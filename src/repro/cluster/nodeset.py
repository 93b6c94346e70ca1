"""Run-length encoded node sets for big-cluster placements.

At paper scale (128 nodes) a partition is a short tuple of indexes and
every representation is cheap.  At 10k-100k nodes the substrate would
otherwise materialise 100k-element Python lists on every ``free_nodes``
probe and every booking — ~1 MB and a full scan per query.  A
:class:`NodeSet` stores the same set as sorted half-open ``[start, stop)``
runs: a first-fit placement of 64k nodes is a handful of ranges, and
set algebra (union / intersection / difference) runs in O(runs), not
O(nodes).

Compatibility contract
----------------------
The rest of the codebase passes node sets around as sorted tuples or
lists (``Reservation.nodes``, ``DeadlineOffer.nodes``,
``QoSGuarantee.planned_nodes``).  ``NodeSet`` is a drop-in for those
uses:

* it iterates ascending, supports ``len``, ``in``, indexing and
  step-1 slicing (``free[:size]`` stays a ``NodeSet``);
* ``==`` compares elementwise against any sequence of ints, so a
  ``NodeSet`` equals the tuple/list holding the same nodes — this is what
  keeps the seed-ledger equivalence benches and the existing tests
  working unchanged;
* ``hash`` matches ``hash(tuple(self))`` so equal values stay
  interchangeable as dict keys (computed lazily, O(n) once).

Determinism: all operations are pure functions of the run lists; no set
or dict iteration is involved anywhere (lint rule QOS103).
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union, overload

#: A half-open interval of node indexes: ``start <= n < stop``.
Run = Tuple[int, int]


def mask_runs(mask: int, limit: Optional[int] = None) -> List[Run]:
    """The set bits of ``mask`` (bit n = node n) as runs, lowest first,
    stopping once ``limit`` nodes are covered (the last run trimmed to
    fit); all of them when ``limit`` is None.

    One step per run, not per node: adding a run's lowest bit carries
    through the run and sets the first zero above it.
    """
    runs: List[Run] = []
    left = -1 if limit is None else limit
    while mask and left:
        low = mask & -mask
        top = (mask + low) & ~mask
        lo = low.bit_length() - 1
        hi = top.bit_length() - 1
        if 0 < left < hi - lo:
            hi = lo + left
        runs.append((lo, hi))
        left -= hi - lo
        mask &= -top
    return runs


def _runs_from_sorted(values: Sequence[int]) -> List[Run]:
    """Group an ascending, duplicate-free index sequence into runs."""
    runs: List[Run] = []
    if not values:
        return runs
    run_start = prev = values[0]
    for v in values[1:]:
        if v == prev + 1:
            prev = v
            continue
        runs.append((run_start, prev + 1))
        run_start = prev = v
    runs.append((run_start, prev + 1))
    return runs


class NodeSet:
    """An immutable set of node indexes stored as sorted interval runs.

    A set made by :meth:`from_mask` holds its bitmask and size only and
    builds its runs on first use: a free-node query whose answer goes
    straight to a mask-based placement never pays for them.
    """

    __slots__ = ("_runs", "_starts", "_size", "_hash", "_mask")

    def __init__(self, runs: Iterable[Run] = ()) -> None:
        """Build from *normalised* runs: sorted, non-empty, non-adjacent,
        non-overlapping.  Use :meth:`from_iterable` for arbitrary input."""
        run_list = list(runs)
        size = 0
        prev_stop: Optional[int] = None
        for start, stop in run_list:
            if stop <= start:
                raise ValueError(f"empty or inverted run [{start}, {stop})")
            if prev_stop is not None and start <= prev_stop:
                raise ValueError(
                    f"runs not normalised: [{start}, {stop}) touches or "
                    f"overlaps the previous run ending at {prev_stop}"
                )
            size += stop - start
            prev_stop = stop
        self._runs: Tuple[Run, ...] = tuple(run_list)
        # Parallel array of run starts for O(log runs) membership tests.
        self._starts: List[int] = [r[0] for r in run_list]
        self._size = size
        self._hash: Optional[int] = None
        self._mask: Optional[int] = None

    def __getattr__(self, name: str) -> object:
        # Only reached for an unset slot: the runs of a mask-born set.
        if name not in ("_runs", "_starts") or self._mask is None:
            raise AttributeError(name)
        runs = mask_runs(self._mask)
        self._runs = tuple(runs)
        self._starts = [r[0] for r in runs]
        return object.__getattribute__(self, name)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_iterable(cls, nodes: Iterable[int]) -> "NodeSet":
        """Normalise arbitrary (unsorted, possibly duplicated) indexes."""
        if isinstance(nodes, NodeSet):
            return nodes
        return cls(_runs_from_sorted(sorted(set(nodes))))

    @classmethod
    def from_mask(cls, mask: int) -> "NodeSet":
        """The set bits of ``mask`` (bit n = node n); O(1) besides the
        population count, the runs are built on first use."""
        nodes = cls.__new__(cls)
        nodes._mask = mask
        nodes._size = bin(mask).count("1")
        nodes._hash = None
        return nodes

    @classmethod
    def from_sorted(cls, values: Sequence[int]) -> "NodeSet":
        """Build from an ascending, duplicate-free sequence (unchecked)."""
        return cls(_runs_from_sorted(values))

    @classmethod
    def interval(cls, start: int, stop: int) -> "NodeSet":
        """The contiguous set ``{start, ..., stop - 1}`` (empty if degenerate)."""
        if stop <= start:
            return cls()
        return cls(((start, stop),))

    @classmethod
    def full(cls, node_count: int) -> "NodeSet":
        """Every node of an ``node_count``-wide cluster."""
        return cls.interval(0, node_count)

    # ------------------------------------------------------------------
    # Sequence protocol (ascending iteration order)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[int]:
        for start, stop in self._runs:
            yield from range(start, stop)

    def __contains__(self, node: object) -> bool:
        if not isinstance(node, int):
            return False
        idx = bisect.bisect_right(self._starts, node) - 1
        return idx >= 0 and node < self._runs[idx][1]

    @overload
    def __getitem__(self, index: int) -> int: ...

    @overload
    def __getitem__(self, index: slice) -> "NodeSet": ...

    def __getitem__(self, index: Union[int, slice]) -> Union[int, "NodeSet"]:
        if isinstance(index, slice):
            start, stop, step = index.indices(self._size)
            if step != 1:
                raise ValueError("NodeSet slicing supports step 1 only")
            return self._slice(start, stop)
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError("NodeSet index out of range")
        remaining = index
        for run_start, run_stop in self._runs:
            width = run_stop - run_start
            if remaining < width:
                return run_start + remaining
            remaining -= width
        raise IndexError("NodeSet index out of range")  # pragma: no cover

    def _slice(self, start: int, stop: int) -> "NodeSet":
        """Elements with iteration rank in ``[start, stop)``, as a NodeSet."""
        if stop <= start:
            return NodeSet()
        runs: List[Run] = []
        skip = start
        take = stop - start
        for run_start, run_stop in self._runs:
            width = run_stop - run_start
            if skip >= width:
                skip -= width
                continue
            lo = run_start + skip
            skip = 0
            hi = min(run_stop, lo + take)
            runs.append((lo, hi))
            take -= hi - lo
            if take == 0:
                break
        return NodeSet(runs)

    # ------------------------------------------------------------------
    # Equality / hashing (tuple-compatible)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, NodeSet):
            return self._runs == other._runs
        if isinstance(other, (tuple, list)):
            if len(other) != self._size:
                return False
            it = iter(self)
            for value in other:
                if value != next(it):
                    return False
            return True
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self))  # qoslint: disable=QOS110 -- dict/set-key hashing only, must equal tuple.__hash__; never persisted or fed to sim state
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(
            str(a) if b == a + 1 else f"{a}-{b - 1}" for a, b in self._runs
        )
        return f"NodeSet([{parts}])"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def runs(self) -> Tuple[Run, ...]:
        """The normalised ``(start, stop)`` half-open runs."""
        return self._runs

    @property
    def run_count(self) -> int:
        return len(self._runs)

    def mask(self) -> int:
        """The members as one int bitmask (bit n = node n), one block per
        run; kept once built."""
        if self._mask is None:
            mask = 0
            for start, stop in self._runs:
                mask |= ((1 << (stop - start)) - 1) << start
            self._mask = mask
        return self._mask

    @property
    def min_node(self) -> int:
        """Smallest member (O(1)); raises ValueError on the empty set."""
        if not self._runs:
            raise ValueError("empty NodeSet has no minimum")
        return self._runs[0][0]

    @property
    def max_node(self) -> int:
        """Largest member (O(1)); raises ValueError on the empty set."""
        if not self._runs:
            raise ValueError("empty NodeSet has no maximum")
        return self._runs[-1][1] - 1

    def to_list(self) -> List[int]:
        """Materialise as an ascending list (the legacy representation)."""
        nodes: List[int] = []
        for start, stop in self._runs:
            nodes.extend(range(start, stop))
        return nodes

    # ------------------------------------------------------------------
    # Set algebra (all O(runs of self + runs of other))
    # ------------------------------------------------------------------
    def union(self, other: "NodeSet") -> "NodeSet":
        merged: List[Run] = []
        for start, stop in sorted(self._runs + other._runs):
            if merged and start <= merged[-1][1]:
                if stop > merged[-1][1]:
                    merged[-1] = (merged[-1][0], stop)
            else:
                merged.append((start, stop))
        return NodeSet(merged)

    def intersection(self, other: "NodeSet") -> "NodeSet":
        result: List[Run] = []
        i = j = 0
        a, b = self._runs, other._runs
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                result.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return NodeSet(result)

    def difference(self, other: "NodeSet") -> "NodeSet":
        result: List[Run] = []
        j = 0
        b = other._runs
        for start, stop in self._runs:
            cursor = start
            while j < len(b) and b[j][1] <= cursor:
                j += 1
            k = j
            while k < len(b) and b[k][0] < stop:
                if b[k][0] > cursor:
                    result.append((cursor, b[k][0]))
                cursor = max(cursor, b[k][1])
                if cursor >= stop:
                    break
                k += 1
            if cursor < stop:
                result.append((cursor, stop))
        return NodeSet(result)

    def __or__(self, other: "NodeSet") -> "NodeSet":
        return self.union(other)

    def __and__(self, other: "NodeSet") -> "NodeSet":
        return self.intersection(other)

    def __sub__(self, other: "NodeSet") -> "NodeSet":
        return self.difference(other)

    def isdisjoint(self, other: "NodeSet") -> bool:
        i = j = 0
        a, b = self._runs, other._runs
        while i < len(a) and j < len(b):
            if a[i][1] <= b[j][0]:
                i += 1
            elif b[j][1] <= a[i][0]:
                j += 1
            else:
                return False
        return True


def mask_of(nodes: Iterable[int]) -> int:
    """The bitmask (bit n = node n) of ``nodes``, in any order: one block
    per run of a :class:`NodeSet`, one OR per node otherwise."""
    if isinstance(nodes, NodeSet):
        return nodes.mask()
    mask = 0
    for node in nodes:
        mask |= 1 << node
    return mask


def freeze_nodes(nodes: Iterable[int]) -> Sequence[int]:
    """Normalise a node collection for storage on immutable records.

    ``NodeSet`` inputs pass through untouched (already immutable and
    ascending); anything else becomes the legacy sorted-unique tuple.
    Used where offers/reservations/guarantees capture their partition.
    """
    if isinstance(nodes, NodeSet):
        return nodes
    if isinstance(nodes, tuple):
        return nodes
    return tuple(nodes)
