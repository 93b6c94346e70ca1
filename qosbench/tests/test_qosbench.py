"""Tests of the benchmark itself: tracing must leave the simulator as it
found it, account for all of ``run()``, agree with the simulator's own
counters, and never change a trajectory.

Run from the repository root: ``python3 -m pytest qosbench/tests``.
"""

from __future__ import annotations

import importlib
import math

import pytest

import tracing
from repro.core.system import ProbabilisticQoSSystem
from repro.obs.registry import MetricsRegistry
from tracing import BOUNDARIES, LAYERS, ROOT, OfferTimer, Tracer
from workloads import (
    INPUTS_PER_SEED, CheckFailed, RoundResult, Workload, failure_seed,
    run_round, run_rounds,
)

#: Small enough for seconds, churny enough to kill, restart, prune and
#: checkpoint: SDSC jobs squeezed onto 32 nodes at a high failure rate.
TINY = Workload(
    name="tiny", source="sdsc", nodes=32, jobs=120, failures_per_day=60.0,
    user_threshold=0.9,
)


def class_state():
    """Identity of every wrapped attribute as the classes hold it now."""
    state = {}
    for _layer, module, cls_name, methods in BOUNDARIES + ((ROOT[0], ROOT[1],
                                                            ROOT[2], (ROOT[3],)),):
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods:
            name = method.rstrip("*")
            state[(cls_name, name)] = cls.__dict__.get(name, "inherited")
    return state


def test_wrappers_are_restored_after_a_traced_round():
    before = class_state()
    with Tracer() as tracer:
        run_round(TINY, seed=3)
        assert class_state() != before
    assert class_state() == before
    assert tracer.report().span_count > 0


def test_wrappers_are_restored_when_the_run_raises():
    before = class_state()
    with pytest.raises(RuntimeError):
        with OfferTimer(), Tracer():
            raise RuntimeError("boom")
    assert class_state() == before


def test_layer_shares_and_unattributed_share_sum_to_one():
    with Tracer() as tracer:
        run_round(TINY, seed=5)
    report = tracer.report()
    assert not report.missing
    shares = [report.metrics[f"{layer}.share"][0] for layer in LAYERS[1:]]
    unattributed = report.metrics["unattributed_share"][0]
    assert all(share >= 0.0 for share in shares)
    assert 0.0 <= unattributed < 0.2
    assert math.isclose(sum(shares) + unattributed, 1.0, rel_tol=1e-9)


def test_tiny_workload_checksum_repeats_traced_and_untraced():
    with OfferTimer() as timer:
        first = run_round(TINY, seed=7, offer_ns=timer.samples_ns)
    second = run_round(TINY, seed=7)
    with Tracer():
        traced = run_round(TINY, seed=7)
    assert len(first.offer_ns) == first.jobs
    assert first.checksum == second.checksum == traced.checksum
    assert run_round(TINY, seed=8).checksum != first.checksum


def fake_round(seed, checksum):
    return RoundResult(seed=seed, jobs=1, completed=1, gen_s=0.0,
                       failures_s=0.0, build_s=0.0, run_s=1e-3,
                       checksum=checksum, simulated={})


def test_rounds_cycle_the_traces_and_replay_the_first():
    rounds = []
    run_rounds(rounds, seed=4, seconds=0.0,
               round_fn=lambda s: fake_round(s, f"trace-{s}"))
    assert [r.seed for r in rounds] == [
        failure_seed(4, k) for k in range(INPUTS_PER_SEED)] + [failure_seed(4, 0)]


def test_a_replay_with_another_trajectory_fails_the_run():
    replays = {}

    def drifting(seed):
        replays[seed] = replays.get(seed, 0) + 1
        return fake_round(seed, f"trace-{seed}-replay-{replays[seed]}")

    with pytest.raises(CheckFailed, match="different trajectory"):
        run_rounds([], seed=4, seconds=0.0, round_fn=drifting)


def test_outside_in_counts_match_the_simulators_own_counters():
    registry = MetricsRegistry()
    with Tracer() as tracer:
        for seed in (1, 2):
            log = TINY.make_log()
            system = ProbabilisticQoSSystem(
                TINY.config(seed), log, TINY.make_failures(log, seed),
                registry=registry,
            )
            system.run()
    metrics = tracer.report().metrics
    counters = registry.snapshot()["counters"]

    def value(name):
        return metrics[name][0]

    assert value("core.negotiation.dialogues") == counters["negotiation.dialogue.dialogues"]
    assert value("core.negotiation.probes") == counters["negotiation.dialogue.probes"]
    assert value("core.negotiation.pruned") == counters["negotiation.dialogue.pruned"]
    assert value("core.negotiation.pruned") > 0
    assert value("core.negotiation.forced") == counters.get("negotiation.dialogue.forced", 0)
    assert value("scheduling.fcfs.restarts") == counters["scheduling.fcfs.restarts_booked"]
    assert value("scheduling.fcfs.restarts") > 0
    assert value("sim.scheduled") == counters["sim.engine.scheduled"]
    hits = counters.get("cluster.ledger.profile_cache_hits", 0)
    misses = counters["cluster.ledger.profile_cache_misses"]
    assert value("cluster.reservations.profile_hit_ratio") == pytest.approx(
        hits / (hits + misses))
    term_misses = counters["negotiation.fastpath.term_cache_misses"]
    assert tracer.counts["prediction.term_cache_entries"] == term_misses
    term_hits = counters.get("negotiation.fastpath.term_cache_hits", 0)
    assert value("prediction.term_cache_hit_ratio") == pytest.approx(
        term_hits / (term_hits + term_misses))


def test_a_renamed_boundary_is_reported_missing_not_zeroed(monkeypatch):
    renamed = tuple(
        (layer, module, cls, ("decide_renamed",) if cls == "CooperativePolicy" else methods)
        for layer, module, cls, methods in BOUNDARIES
    )
    monkeypatch.setattr(tracing, "BOUNDARIES", renamed)
    with Tracer() as tracer:
        run_round(TINY, seed=3)
    report = tracer.report()
    assert any("CooperativePolicy.decide_renamed" in m for m in report.missing)
    assert not any(k.startswith("checkpointing.") for k in report.metrics)
    assert "prediction.share" in report.metrics
