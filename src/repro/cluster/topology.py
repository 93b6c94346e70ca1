"""Communication topologies and their allocation constraints.

The paper's experiments use "a flat (all-to-all) communication architecture"
— any set of free nodes forms a valid partition.  Machines like BlueGene/L
instead carve partitions out of a torus, constraining which node sets are
allocatable.  The topology abstraction lets placement honour such
constraints; the torus here is the 1-D ring simplification (contiguous
blocks with wraparound), enough to study the fragmentation effects the
paper attributes to size mix (Section 5.1) without modelling full 3-D
midplane allocation.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

from repro.cluster.nodeset import NodeSet
from repro.cluster.ranking import NodeScorer, best_nodes
from repro.obs.prof import NULL_PROFILER, Profiler
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry


class Topology(abc.ABC):
    """Allocation-shape constraint over node indexes ``0..N-1``.

    Args:
        node_count: Cluster width ``N``.
        registry: Optional obs registry; when live, the flat topology
            counts the nodes its ranking scored under
            ``scheduling.placement.nodes_scored``.
        profiler: Optional hierarchical profiler; when live, every
            selection runs inside the ``scheduling.placement.select`` zone.
    """

    def __init__(
        self,
        node_count: int,
        registry: Optional[MetricsRegistry] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        if node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {node_count}")
        self.node_count = node_count
        registry = registry if registry is not None else NULL_REGISTRY
        self._obs = registry.enabled
        self._c_nodes_scored = registry.counter("scheduling.placement.nodes_scored")
        profiler = profiler if profiler is not None else NULL_PROFILER
        self._prof = profiler.enabled
        self._z_select = profiler.zone("scheduling.placement.select")

    def select_partition(
        self,
        free_nodes: Sequence[int],
        size: int,
        start: float,
        end: float,
        scorer: Optional[NodeScorer] = None,
    ) -> Optional[Sequence[int]]:
        """Choose a valid partition of ``size`` from ``free_nodes``.

        Args:
            free_nodes: Ascending node indexes free over the window.
            size: Required partition size.
            start: Window start (passed to the scorer).
            end: Window end (passed to the scorer).
            scorer: Optional per-node badness; the topology picks the valid
                partition minimising total score, breaking ties toward
                lower indexes.

        Returns:
            An ascending node sequence (a sorted list, or a run-length
            :class:`NodeSet` on the flat scorerless fast path — the two
            compare equal for the same members), or None if no valid
            partition exists (even though enough nodes may be free, their
            *shape* may not fit).
        """
        if not self._prof:
            return self._select(free_nodes, size, start, end, scorer)
        with self._z_select:
            return self._select(free_nodes, size, start, end, scorer)

    @abc.abstractmethod
    def _select(
        self,
        free_nodes: Sequence[int],
        size: int,
        start: float,
        end: float,
        scorer: Optional[NodeScorer],
    ) -> Optional[Sequence[int]]:
        """:meth:`select_partition` without the profiling zone."""


class FlatTopology(Topology):
    """All-to-all network: every node subset is a valid partition."""

    def _select(
        self,
        free_nodes: Sequence[int],
        size: int,
        start: float,
        end: float,
        scorer: Optional[NodeScorer],
    ) -> Optional[Sequence[int]]:
        if len(free_nodes) < size:
            return None
        if scorer is None:
            # First-fit keeps a NodeSet in run-length form: on a 100k-node
            # cluster the partition stays O(runs), never a boxed-int list.
            if isinstance(free_nodes, NodeSet):
                return free_nodes[:size]
            return list(free_nodes[:size])
        chosen, scored = best_nodes(free_nodes, size, start, end, scorer)
        if self._obs:
            self._c_nodes_scored.inc(scored)
        return chosen


class RingTopology(Topology):
    """1-D torus: partitions are contiguous blocks (with wraparound).

    Models allocation-shape pressure: odd-sized jobs fragment the ring, so
    a request can fail even when enough nodes are free in total — the
    effect the paper credits for SDSC's extra "temporal fragmentation".
    """

    def _select(
        self,
        free_nodes: Sequence[int],
        size: int,
        start: float,
        end: float,
        scorer: Optional[NodeScorer],
    ) -> Optional[List[int]]:
        if len(free_nodes) < size:
            return None
        free_set = set(free_nodes)
        best: Optional[List[int]] = None
        best_score = float("inf")
        for origin in free_nodes:
            block = [(origin + k) % self.node_count for k in range(size)]
            if not all(n in free_set for n in block):
                continue
            if scorer is None:
                return sorted(block)
            score = sum(scorer(n, start, end) for n in block)
            if score < best_score or (
                score == best_score and best is not None and block < best
            ):
                best, best_score = sorted(block), score
        return best


class MeshTopology(Topology):
    """2-D mesh: partitions are contiguous axis-aligned rectangles.

    The closest planar analogue of BlueGene-style allocation: a job of size
    ``s`` needs an ``h x w`` rectangle of free nodes with ``h * w >= s``
    (the smallest such rectangle by area, then by perimeter).  Rectangles
    cannot wrap.  Node ``(r, c)`` has index ``r * width + c``.

    Note the mesh may return *more* than ``size`` nodes (the whole
    rectangle): that surplus is the machine's internal fragmentation, which
    the job occupies but cannot use — exactly how rectangular allocators
    waste capacity on awkward sizes.

    Args:
        node_count: Total nodes; must factor as ``height * width``.
        width: Mesh width; defaults to the largest divisor of
            ``node_count`` not exceeding its square root's complement
            (i.e. the most square arrangement).
    """

    def __init__(
        self,
        node_count: int,
        width: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        super().__init__(node_count, registry=registry, profiler=profiler)
        if width is None:
            width = 1
            for candidate in range(1, int(node_count**0.5) + 1):
                if node_count % candidate == 0:
                    width = node_count // candidate
        if width < 1 or node_count % width != 0:
            raise ValueError(
                f"width {width} does not tile {node_count} nodes"
            )
        self.width = width
        self.height = node_count // width

    def _candidate_shapes(self, size: int) -> List[tuple]:
        """(h, w) rectangles with h*w >= size, smallest waste first."""
        shapes = []
        for h in range(1, self.height + 1):
            w = -(-size // h)  # ceil(size / h)
            if w <= self.width:
                shapes.append((h * w - size, h + w, h, w))
        shapes.sort()
        return [(h, w) for _, _, h, w in shapes]

    def _select(
        self,
        free_nodes: Sequence[int],
        size: int,
        start: float,
        end: float,
        scorer: Optional[NodeScorer],
    ) -> Optional[List[int]]:
        if len(free_nodes) < size:
            return None
        free_set = set(free_nodes)
        best: Optional[List[int]] = None
        best_score = float("inf")
        for h, w in self._candidate_shapes(size):
            for top in range(self.height - h + 1):
                for left in range(self.width - w + 1):
                    block = [
                        (top + dr) * self.width + (left + dc)
                        for dr in range(h)
                        for dc in range(w)
                    ]
                    if not all(n in free_set for n in block):
                        continue
                    if scorer is None:
                        return sorted(block)
                    score = sum(scorer(n, start, end) for n in block)
                    if score < best_score:
                        best, best_score = sorted(block), score
            if best is not None and scorer is None:
                break
        return best


def topology_by_name(
    name: str,
    node_count: int,
    registry: Optional[MetricsRegistry] = None,
    profiler: Optional[Profiler] = None,
) -> Topology:
    """Factory: ``"flat"`` (paper default), ``"ring"`` or ``"mesh"``
    (BG/L-style contiguity constraints); instruments as for
    :class:`Topology`."""
    builders = {"flat": FlatTopology, "ring": RingTopology, "mesh": MeshTopology}
    try:
        builder = builders[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown topology {name!r}; available: {sorted(builders)}"
        ) from None
    return builder(node_count, registry=registry, profiler=profiler)
