"""Hierarchical wall-clock profiler with sim-time bucketing.

The missing leg of the observability triad (metrics, traces, audits —
see DESIGN.md "Observability"): *where does the wall clock go?*  Every
hot path in the control system opens a **zone** — engine event dispatch,
``find_slot``, negotiation dialogues, fastpath evaluations, predictor
queries, checkpoint decisions — and the profiler maintains the live zone
stack, attributing self and cumulative nanoseconds plus call counts to
each node of the resulting call tree.

Design constraints, in order (mirroring :mod:`repro.obs.registry`):

* **~zero cost when off.**  The default is :data:`NULL_PROFILER`
  (pattern of :class:`~repro.obs.registry.NullRegistry`): its ``enabled``
  flag is False and its zones are inert, so instrumented hot paths guard
  with one attribute test and uninstrumented sweeps pay nothing.
  Components bind :class:`Zone` objects once at construction — entering
  a zone is a dict-free push.
* **Deterministic shape.**  The zone *tree structure*, call counts, and
  sim-time bucket indices are pure functions of the simulated trajectory
  and therefore bit-identical across reruns and event-queue backends;
  only the wall-ns payloads vary run to run.  Tests pin the shape with
  :func:`strip_wall_ns`.
* **Sim-time bucketing.**  The owner calls :meth:`Profiler.set_sim_time`
  as simulated time advances (the engine does this per dispatched
  event); each zone entry charges its *self* nanoseconds to the bucket
  ``floor(sim_time_at_entry / bucket_width)``, so a profile can answer
  "which phase of the trace got slow", not just "which function".
* **Mergeable.**  :meth:`Profiler.merge_snapshot` folds per-worker
  profiles across the process pool exactly like
  :meth:`~repro.obs.registry.MetricsRegistry.merge` folds registries;
  integer nanosecond arithmetic makes the fold exact and associative.
* **No third-party deps.**  Snapshots are JSON dicts; the collapsed
  export is the classic FlameGraph / speedscope ``frame;frame value``
  stack format.
* **No silent blind spots.**  A simulation run reports its whole wall
  time and the part of it its zones cover (:meth:`Profiler.add_run`);
  both ride in the snapshot meta as ``run_wall_ns``/``run_zoned_ns`` and
  the report states the rest as its *unattributed* share
  (:func:`unattributed_share`).

Zone names follow the repo-wide ``<layer>.<component>.<name>`` scheme,
validated at :meth:`Profiler.zone` registration and statically by the
QOS111 lint rule.
"""

from __future__ import annotations

import functools
import json
import re
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

#: Version of the on-disk profile layout.
PROF_SCHEMA_VERSION = 1

#: Zone names share the metric naming contract: dot-separated lowercase
#: identifiers, at least ``<layer>.<component>.<name>`` deep.
ZONE_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+){2,}$")

#: Default sim-time bucket width, seconds (one simulated hour — the
#: paper's checkpoint interval, a natural phase length for these traces).
DEFAULT_BUCKET_WIDTH = 3600.0

_F = TypeVar("_F", bound=Callable[..., Any])


def _validate_zone_name(name: str) -> None:
    if not ZONE_NAME_RE.match(name):
        raise ValueError(
            f"zone name {name!r} does not follow "
            "'<layer>.<component>.<name>' (lowercase, dot-separated, "
            ">= 3 components)"
        )


class _ZoneNode:
    """One node of the call tree: totals for a zone *at a stack position*."""

    __slots__ = ("name", "calls", "cum_ns", "self_ns", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.cum_ns = 0
        self.self_ns = 0
        self.children: Dict[str, "_ZoneNode"] = {}


class Zone:
    """A reusable, re-entrant context manager bound to one zone name.

    Components request their zones once at construction
    (``self._z_find_slot = profiler.zone("cluster.ledger.find_slot")``)
    and enter them on the hot path; entering costs one list append plus
    one ``perf_counter_ns`` read.
    """

    __slots__ = ("_profiler", "name")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self.name = name

    def __enter__(self) -> "Zone":
        self._profiler.push(self.name)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._profiler.pop()


class Profiler:
    """Maintains the live zone stack and the accumulated call tree.

    Args:
        bucket_width: Sim-time bucket width in (simulated) seconds; each
            zone entry charges its self-time to bucket
            ``floor(sim_time / bucket_width)``.
    """

    #: Hot paths test this once per call; :class:`NullProfiler` flips it.
    enabled = True

    def __init__(self, bucket_width: float = DEFAULT_BUCKET_WIDTH) -> None:
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be > 0, got {bucket_width}")
        self.bucket_width = float(bucket_width)
        self._root = _ZoneNode("root")
        # One frame per live zone: [node, start_ns, child_ns, bucket].
        self._frames: List[List[Any]] = []
        self._sim_time = 0.0
        # bucket index -> zone name -> [calls, self_ns]
        self._buckets: Dict[int, Dict[str, List[int]]] = {}
        self._zones: Dict[str, Zone] = {}
        # Elapsed ns of zones closed with no zone open around them.
        self._top_ns = 0
        # Simulation runs: their wall ns, and the ns their zones covered.
        self._run_wall_ns = 0
        self._run_zoned_ns = 0

    # ------------------------------------------------------------------
    # Zone access
    # ------------------------------------------------------------------
    def zone(self, name: str) -> Zone:
        """The reusable context manager for ``name`` (validated, cached)."""
        zone = self._zones.get(name)
        if zone is None:
            _validate_zone_name(name)
            zone = self._zones[name] = Zone(self, name)
        return zone

    # ------------------------------------------------------------------
    # The hot path
    # ------------------------------------------------------------------
    def set_sim_time(self, sim_time: float) -> None:
        """Advance the simulated clock used for bucket attribution."""
        self._sim_time = sim_time

    @property
    def sim_time(self) -> float:
        return self._sim_time

    @property
    def depth(self) -> int:
        """Number of currently open zones."""
        return len(self._frames)

    def push(self, name: str) -> None:
        """Open zone ``name`` under the innermost open zone."""
        frames = self._frames
        parent = frames[-1][0] if frames else self._root
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = _ZoneNode(name)
        frames.append(
            [
                node,
                time.perf_counter_ns(),
                0,
                int(self._sim_time // self.bucket_width),
            ]
        )

    def pop(self) -> None:
        """Close the innermost open zone and account its elapsed time."""
        end_ns = time.perf_counter_ns()
        if not self._frames:
            raise RuntimeError("Profiler.pop() without a matching push()")
        node, start_ns, child_ns, bucket = self._frames.pop()
        elapsed = end_ns - start_ns
        self_ns = elapsed - child_ns
        node.calls += 1
        node.cum_ns += elapsed
        node.self_ns += self_ns
        if self._frames:
            self._frames[-1][2] += elapsed
        else:
            self._top_ns += elapsed
        slots = self._buckets.get(bucket)
        if slots is None:
            slots = self._buckets[bucket] = {}
        slot = slots.get(node.name)
        if slot is None:
            slots[node.name] = [1, self_ns]
        else:
            slot[0] += 1
            slot[1] += self_ns

    def child_ns(self) -> int:
        """Elapsed ns of the zones closed so far directly under the
        innermost open zone (at top level when none is open).  Its change
        over a stretch of code is the time zones covered in it."""
        return self._frames[-1][2] if self._frames else self._top_ns

    def add_run(self, wall_ns: int, zoned_ns: int) -> None:
        """Account one simulation run: its wall ns and the ns its zones
        covered (a :meth:`child_ns` difference over the run)."""
        self._run_wall_ns += wall_ns
        self._run_zoned_ns += zoned_ns

    # ------------------------------------------------------------------
    # Snapshots and merging
    # ------------------------------------------------------------------
    def snapshot(self, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The accumulated profile as a JSON-serialisable dict.

        Open zones contribute nothing until they pop; snapshotting is
        intended for quiescent profilers (end of run / end of worker).
        Once a run was accounted, ``meta`` also carries ``run_wall_ns``
        and ``run_zoned_ns``.
        """
        meta = dict(meta) if meta else {}
        if self._run_wall_ns:
            meta["run_wall_ns"] = self._run_wall_ns
            meta["run_zoned_ns"] = self._run_zoned_ns
        return {
            "schema": PROF_SCHEMA_VERSION,
            "bucket_width": self.bucket_width,
            "meta": meta,
            "root": _node_to_dict(self._root),
            "buckets": {
                str(index): {
                    name: {"calls": slot[0], "self_ns": slot[1]}
                    for name, slot in sorted(slots.items())
                }
                for index, slots in sorted(self._buckets.items())
            },
        }

    def merge(self, other: "Profiler") -> "Profiler":
        """Fold another profiler's totals into this one (returns self)."""
        return self.merge_snapshot(other.snapshot())

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> "Profiler":
        """Fold a ``snapshot()``-shaped dict into this profiler.

        The cross-process form of :meth:`merge`: pool workers return
        their snapshot and the parent folds the dicts in submission
        order.  All arithmetic is integer nanoseconds, so the fold is
        exact and associative regardless of grouping.
        """
        if not self.enabled:
            return self
        schema = snapshot.get("schema")
        if schema != PROF_SCHEMA_VERSION:
            raise ValueError(
                f"cannot merge profile schema {schema!r} "
                f"(this build speaks {PROF_SCHEMA_VERSION})"
            )
        width = snapshot.get("bucket_width")
        if width != self.bucket_width:
            raise ValueError(
                f"cannot merge profiles with different bucket widths "
                f"({self.bucket_width} vs {width})"
            )
        _merge_node(self._root, snapshot.get("root", {}))
        meta = snapshot.get("meta", {})
        self.add_run(
            int(meta.get("run_wall_ns", 0)), int(meta.get("run_zoned_ns", 0))
        )
        for index_key, zones in sorted(snapshot.get("buckets", {}).items()):
            index = int(index_key)
            slots = self._buckets.get(index)
            if slots is None:
                slots = self._buckets[index] = {}
            for name, data in sorted(zones.items()):
                slot = slots.get(name)
                if slot is None:
                    slots[name] = [int(data["calls"]), int(data["self_ns"])]
                else:
                    slot[0] += int(data["calls"])
                    slot[1] += int(data["self_ns"])
        return self


def _node_to_dict(node: _ZoneNode) -> Dict[str, Any]:
    return {
        "calls": node.calls,
        "cum_ns": node.cum_ns,
        "self_ns": node.self_ns,
        "children": {
            name: _node_to_dict(child)
            for name, child in sorted(node.children.items())
        },
    }


def _merge_node(node: _ZoneNode, data: Dict[str, Any]) -> None:
    node.calls += int(data.get("calls", 0))
    node.cum_ns += int(data.get("cum_ns", 0))
    node.self_ns += int(data.get("self_ns", 0))
    for name, child_data in sorted(data.get("children", {}).items()):
        child = node.children.get(name)
        if child is None:
            child = node.children[name] = _ZoneNode(name)
        _merge_node(child, child_data)


def profiled(
    name: str, attr: str = "_profiler"
) -> Callable[[_F], _F]:
    """Method decorator: run the call inside zone ``name``.

    The profiler is read from the instance attribute ``attr`` (default
    ``_profiler``) at call time, so decorated methods stay zero-cost on
    objects carrying :data:`NULL_PROFILER` (one attribute test).
    """
    _validate_zone_name(name)

    def wrap(fn: _F) -> _F:
        @functools.wraps(fn)
        def inner(self: Any, *args: Any, **kwargs: Any) -> Any:
            profiler = getattr(self, attr, None)
            if profiler is None or not profiler.enabled:
                return fn(self, *args, **kwargs)
            profiler.push(name)
            try:
                return fn(self, *args, **kwargs)
            finally:
                profiler.pop()

        return inner  # type: ignore[return-value]

    return wrap


class _NullZone(Zone):
    __slots__ = ()

    def __enter__(self) -> "Zone":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


class NullProfiler(Profiler):
    """A profiler that records nothing (the default, zero-cost).

    Hands out one shared inert zone, so uninstrumented paths pay one
    no-op call at worst — and nothing at all on paths that guard with
    :attr:`Profiler.enabled`, which is the instrumented-code contract.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_zone = _NullZone(self, "null.null.zone")

    def zone(self, name: str) -> Zone:
        return self._null_zone


#: Shared default instance; safe because its zones record nothing.
NULL_PROFILER = NullProfiler()


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def write_profile(path: str, snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Write a profile snapshot to ``path``; returns what was written."""
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return snapshot


def load_profile(path: str) -> Dict[str, Any]:
    """Read a profile back; raises ValueError on an unknown schema."""
    with open(path) as fh:
        snapshot = json.load(fh)
    schema = snapshot.get("schema")
    if schema != PROF_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported profile schema {schema!r} "
            f"(this build reads {PROF_SCHEMA_VERSION})"
        )
    return snapshot


# ----------------------------------------------------------------------
# Analysis helpers
# ----------------------------------------------------------------------
def strip_wall_ns(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The snapshot with every wall-ns payload zeroed.

    What remains — tree structure, call counts, bucket indices and
    per-bucket call counts — is the deterministic surface: bit-identical
    across reruns and event-queue backends for the same trajectory.
    """

    def strip_node(node: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "calls": node.get("calls", 0),
            "cum_ns": 0,
            "self_ns": 0,
            "children": {
                name: strip_node(child)
                for name, child in sorted(node.get("children", {}).items())
            },
        }

    return {
        "schema": snapshot.get("schema"),
        "bucket_width": snapshot.get("bucket_width"),
        "meta": {},
        "root": strip_node(snapshot.get("root", {})),
        "buckets": {
            index: {
                name: {"calls": data.get("calls", 0), "self_ns": 0}
                for name, data in sorted(zones.items())
            }
            for index, zones in sorted(snapshot.get("buckets", {}).items())
        },
    }


def walk_zones(
    snapshot: Dict[str, Any]
) -> Iterator[Tuple[Tuple[str, ...], Dict[str, Any]]]:
    """Yield ``(stack, node_dict)`` for every zone, depth-first, sorted."""

    def walk(
        node: Dict[str, Any], stack: Tuple[str, ...]
    ) -> Iterator[Tuple[Tuple[str, ...], Dict[str, Any]]]:
        for name, child in sorted(node.get("children", {}).items()):
            child_stack = stack + (name,)
            yield child_stack, child
            yield from walk(child, child_stack)

    yield from walk(snapshot.get("root", {}), ())


def aggregate_self(snapshot: Dict[str, Any]) -> Dict[str, Tuple[int, int]]:
    """Flatten the tree: zone name -> (calls, self_ns) across all stacks."""
    totals: Dict[str, Tuple[int, int]] = {}
    for stack, node in walk_zones(snapshot):
        name = stack[-1]
        calls, self_ns = totals.get(name, (0, 0))
        totals[name] = (calls + node["calls"], self_ns + node["self_ns"])
    return totals


def total_ns(snapshot: Dict[str, Any]) -> int:
    """Wall nanoseconds under profile: the root children's cumulative sum."""
    root = snapshot.get("root", {})
    return sum(
        child.get("cum_ns", 0)
        for child in root.get("children", {}).values()
    )


def unattributed_share(snapshot: Dict[str, Any]) -> Optional[float]:
    """Share of the runs' wall time that no zone covered, or None when
    the snapshot accounts no run (``meta.run_wall_ns``)."""
    meta = snapshot.get("meta", {})
    wall = meta.get("run_wall_ns", 0)
    if not wall:
        return None
    return 1.0 - meta.get("run_zoned_ns", 0) / wall


# ----------------------------------------------------------------------
# Collapsed-stack (FlameGraph / speedscope) export
# ----------------------------------------------------------------------
def to_collapsed(snapshot: Dict[str, Any]) -> str:
    """The profile in collapsed-stack form: ``a;b;c <self_ns>`` per line.

    The classic Brendan Gregg FlameGraph input, which speedscope also
    imports directly; weights are integer self-nanoseconds.  Zones whose
    self time rounds to zero are omitted (a collapsed line's weight must
    be positive).
    """
    lines: List[str] = []
    for stack, node in walk_zones(snapshot):
        self_ns = node.get("self_ns", 0)
        if self_ns > 0:
            lines.append(";".join(stack) + f" {self_ns}")
    return "\n".join(lines) + ("\n" if lines else "")


def validate_collapsed(text: str) -> List[str]:
    """Problems that would stop FlameGraph/speedscope loading ``text``.

    Checks the grammar the importers share: one ``frame(;frame)* weight``
    per non-empty line, frames non-empty, weight a positive integer.
    Returns an empty list when the document is valid.
    """
    problems: List[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        stack_part, _, weight_part = line.rpartition(" ")
        if not stack_part:
            problems.append(f"line {lineno}: missing stack or weight")
            continue
        if not weight_part.isdigit() or int(weight_part) <= 0:
            problems.append(
                f"line {lineno}: weight {weight_part!r} is not a "
                "positive integer"
            )
        frames = stack_part.split(";")
        if any(not frame for frame in frames):
            problems.append(f"line {lineno}: empty frame in {stack_part!r}")
    return problems


# ----------------------------------------------------------------------
# Human-readable rendering
# ----------------------------------------------------------------------
def _fmt_ns(ns: int) -> str:
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.1f}ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.1f}us"
    return f"{ns}ns"


def render_report(
    snapshot: Dict[str, Any],
    top: int = 12,
    max_depth: Optional[int] = None,
    bucket_rows: int = 12,
) -> str:
    """Render a profile as the ``probqos prof report`` text.

    Three sections: the zone call tree (by cumulative time), the
    flattened top self-time zones, and the sim-time bucket breakdown.
    """
    lines: List[str] = []
    total = total_ns(snapshot)
    meta = snapshot.get("meta", {})
    zone_count = sum(1 for _ in walk_zones(snapshot))
    lines.append(
        f"Profile: {zone_count} zones, {_fmt_ns(total)} profiled wall time"
        f" (sim-time buckets of {snapshot.get('bucket_width', 0.0):g} s)"
    )
    unattributed = unattributed_share(snapshot)
    if unattributed is not None:
        lines.append(
            f"  unattributed: {unattributed * 100.0:.1f}% of "
            f"{_fmt_ns(meta['run_wall_ns'])} simulation run wall time "
            "lies outside every zone"
        )
    for key in sorted(meta):
        lines.append(f"  {key}: {meta[key]}")

    lines.append("")
    lines.append("Zone tree (by cumulative time):")

    def render_node(node: Dict[str, Any], name: str, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        share = (node["cum_ns"] / total * 100.0) if total else 0.0
        lines.append(
            f"  {'  ' * depth}{name:<{max(1, 46 - 2 * depth)}}"
            f" {share:5.1f}%  cum {_fmt_ns(node['cum_ns']):>9}"
            f"  self {_fmt_ns(node['self_ns']):>9}"
            f"  calls {node['calls']}"
        )
        children = sorted(
            node.get("children", {}).items(),
            key=lambda kv: (-kv[1]["cum_ns"], kv[0]),
        )
        for child_name, child in children:
            render_node(child, child_name, depth + 1)

    roots = sorted(
        snapshot.get("root", {}).get("children", {}).items(),
        key=lambda kv: (-kv[1]["cum_ns"], kv[0]),
    )
    for name, node in roots:
        render_node(node, name, 0)

    totals = aggregate_self(snapshot)
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1][1], kv[0]))[:top]
    if ranked:
        lines.append("")
        lines.append(f"Top {len(ranked)} zones by self time (all stacks):")
        width = max(len(name) for name, _ in ranked)
        for name, (calls, self_ns) in ranked:
            share = (self_ns / total * 100.0) if total else 0.0
            per_call = self_ns // calls if calls else 0
            lines.append(
                f"  {name:<{width}}  {share:5.1f}%  self {_fmt_ns(self_ns):>9}"
                f"  calls {calls:>8}  ({_fmt_ns(per_call)}/call)"
            )

    buckets = snapshot.get("buckets", {})
    if buckets:
        width_s = snapshot.get("bucket_width", DEFAULT_BUCKET_WIDTH)
        by_index = sorted((int(k), v) for k, v in buckets.items())
        bucket_totals = [
            sum(d["self_ns"] for d in zones.values()) for _, zones in by_index
        ]
        lines.append("")
        lines.append(
            f"Sim-time buckets: {len(by_index)} buckets, wall cost per "
            "simulated phase:"
        )
        ranked_buckets = sorted(
            zip(by_index, bucket_totals),
            key=lambda pair: (-pair[1], pair[0][0]),
        )[:bucket_rows]
        for (index, zones), bucket_ns in sorted(
            ranked_buckets, key=lambda pair: pair[0][0]
        ):
            hot = max(zones.items(), key=lambda kv: (kv[1]["self_ns"], kv[0]))
            share = (bucket_ns / total * 100.0) if total else 0.0
            lines.append(
                f"  [{index * width_s:>12g}s, {(index + 1) * width_s:>12g}s)"
                f"  {share:5.1f}%  {_fmt_ns(bucket_ns):>9}"
                f"  hottest {hot[0]} ({_fmt_ns(hot[1]['self_ns'])})"
            )
        if len(by_index) > bucket_rows:
            lines.append(
                f"  ... {len(by_index) - bucket_rows} cooler buckets omitted"
            )
    return "\n".join(lines)
