"""Unit tests for the run-length :class:`NodeSet`.

The compatibility contract is what matters: wherever the codebase used a
sorted tuple/list of node indexes, a ``NodeSet`` with the same members
must behave identically — iteration, length, membership, indexing,
slicing, equality in both directions, and hashing.  Set algebra is
cross-checked against Python sets on randomized inputs.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.nodeset import NodeSet, freeze_nodes, mask_of, mask_runs


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_from_iterable_normalises_duplicates_and_order():
    ns = NodeSet.from_iterable([5, 1, 2, 2, 3, 9])
    assert list(ns) == [1, 2, 3, 5, 9]
    assert ns.runs == ((1, 4), (5, 6), (9, 10))


def test_constructor_rejects_unnormalised_runs():
    with pytest.raises(ValueError):
        NodeSet([(3, 3)])  # empty run
    with pytest.raises(ValueError):
        NodeSet([(0, 5), (5, 8)])  # adjacent (should be one run)
    with pytest.raises(ValueError):
        NodeSet([(0, 5), (2, 8)])  # overlapping


def test_interval_and_full():
    assert list(NodeSet.interval(3, 6)) == [3, 4, 5]
    assert not NodeSet.interval(6, 6)
    assert len(NodeSet.full(128)) == 128
    assert NodeSet.full(128).runs == ((0, 128),)


def test_from_iterable_passes_nodeset_through():
    ns = NodeSet.interval(0, 4)
    assert NodeSet.from_iterable(ns) is ns


# ----------------------------------------------------------------------
# Sequence protocol / tuple compatibility
# ----------------------------------------------------------------------
def test_sequence_protocol_matches_tuple():
    members = (0, 1, 2, 10, 11, 40)
    ns = NodeSet.from_sorted(members)
    assert len(ns) == len(members)
    assert tuple(ns) == members
    assert ns[0] == 0 and ns[3] == 10 and ns[-1] == 40
    assert 11 in ns and 12 not in ns and "x" not in ns
    with pytest.raises(IndexError):
        ns[6]


def test_step1_slicing_returns_nodeset():
    ns = NodeSet.from_sorted([0, 1, 2, 10, 11, 40])
    prefix = ns[:4]
    assert isinstance(prefix, NodeSet)
    assert list(prefix) == [0, 1, 2, 10]
    assert list(ns[2:5]) == [2, 10, 11]
    with pytest.raises(ValueError):
        ns[::2]


def test_equality_is_symmetric_with_tuples_and_lists():
    members = [3, 4, 5, 9]
    ns = NodeSet.from_sorted(members)
    assert ns == tuple(members) and tuple(members) == ns
    assert ns == members and members == ns
    assert ns != (3, 4, 5) and ns != (3, 4, 5, 8)
    assert ns == NodeSet.from_sorted(members)


def test_hash_matches_tuple_hash():
    members = (2, 3, 7)
    ns = NodeSet.from_sorted(members)
    assert hash(ns) == hash(members)
    assert {members: "x"}[ns] == "x"


def test_min_max_node():
    ns = NodeSet.from_sorted([4, 5, 20])
    assert ns.min_node == 4 and ns.max_node == 20
    with pytest.raises(ValueError):
        NodeSet().min_node
    with pytest.raises(ValueError):
        NodeSet().max_node


# ----------------------------------------------------------------------
# Set algebra, cross-checked against Python sets
# ----------------------------------------------------------------------
def test_set_algebra_matches_python_sets_randomized():
    rng = random.Random(42)
    for _ in range(200):
        a = {rng.randrange(64) for _ in range(rng.randrange(20))}
        b = {rng.randrange(64) for _ in range(rng.randrange(20))}
        na, nb = NodeSet.from_iterable(a), NodeSet.from_iterable(b)
        assert list(na | nb) == sorted(a | b)
        assert list(na & nb) == sorted(a & b)
        assert list(na - nb) == sorted(a - b)
        assert na.isdisjoint(nb) == a.isdisjoint(b)


def test_slicing_matches_list_randomized():
    rng = random.Random(43)
    for _ in range(100):
        members = sorted({rng.randrange(100) for _ in range(rng.randrange(30))})
        ns = NodeSet.from_sorted(members)
        lo = rng.randrange(len(members) + 1)
        hi = rng.randrange(len(members) + 1)
        assert list(ns[lo:hi]) == members[lo:hi]


def test_mask_born_set_matches_the_run_built_one_randomized():
    # 200 bits: masks span several machine words.
    rng = random.Random(3)
    for _ in range(300):
        members = sorted(rng.sample(range(200), rng.randint(0, 200)))
        mask = sum(1 << n for n in members)
        lazy = NodeSet.from_mask(mask)
        built = NodeSet.from_sorted(members)
        assert len(lazy) == len(members)
        assert lazy.mask() == built.mask() == mask_of(members) == mask
        # Runs are built on first use and then equal the eager ones.
        assert lazy == built and lazy.runs == built.runs
        assert list(lazy) == members and lazy == members
        probe = rng.randrange(200)
        assert (probe in NodeSet.from_mask(mask)) == (probe in members)
        limit = rng.randint(0, len(members) + 1)
        assert mask_runs(mask, limit) == list(built[:limit].runs)


def test_mask_runs_trims_the_last_run():
    assert mask_runs(0b1110110001) == [(0, 1), (4, 6), (7, 10)]
    assert mask_runs(0b1110110001, 3) == [(0, 1), (4, 6)]
    assert mask_runs(0b1110110001, 4) == [(0, 1), (4, 6), (7, 8)]
    assert mask_runs(0b111, 0) == [] and mask_runs(0) == []
    assert mask_of([9, 2, 4]) == mask_of(NodeSet.from_iterable([2, 4, 9])) == 532


# ----------------------------------------------------------------------
# freeze_nodes
# ----------------------------------------------------------------------
def test_freeze_nodes_passthrough_and_fallback():
    ns = NodeSet.interval(0, 3)
    assert freeze_nodes(ns) is ns
    t = (1, 2, 3)
    assert freeze_nodes(t) is t
    assert freeze_nodes([1, 2, 3]) == (1, 2, 3)
    assert isinstance(freeze_nodes([1, 2, 3]), tuple)
