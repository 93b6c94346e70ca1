"""Class-level span tracing of the simulator's layer boundaries.

The traced run wraps the public methods listed in :data:`BOUNDARIES` on
their classes *before* the system is built (several components bind
methods such as ``ledger.free_nodes_set`` at construction time), records
one span per call, and puts every original back afterwards.  Nothing in
``src/`` is modified or configured: the spans come from this file alone.

A span is ``(name, start_ns, end_ns, parent, job)``; ``job`` is the id of
the enclosing ``Negotiator.negotiate`` call (-1 outside a dialogue).  Spans
are kept in flat ``array`` columns (about 25 bytes each) and are recorded
only inside a traced ``ProbabilisticQoSSystem.run`` call, so construction
and workload generation never appear.  A layer's self time is the time its
spans cover minus the time their direct children cover; the root ``run``
span's self time is the cost no boundary claims (``unattributed_share``),
so the layer shares and the unattributed share sum to 1.

Generator methods (``iter_offers``, ``iter_candidate_times``) get one span
per resumption, so the consumer's code between two offers is never charged
to the generator and spans stay strictly nested.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: The root boundary: every recorded span descends from one of its calls.
ROOT = ("core.system", "repro.core.system", "ProbabilisticQoSSystem", "run")

LEDGER_QUERIES = (
    "get", "reservations", "profile", "free_nodes_set", "free_nodes",
    "busy_jobs_at", "candidate_times", "iter_candidate_times*", "horizon",
    "find_slot",
)
LEDGER_MUTATIONS = ("reserve", "release", "truncate", "extend")

#: ``(layer, module, class, methods)``; a method name ending in ``*`` is a
#: generator, traced per resumption.  ``ReservationLedger.node_free`` is
#: left out on purpose: only ``reserve`` calls it (once per booked node),
#: so its time already lands in the ledger as ``reserve`` self time.  The
#: per-node placement scorer is never wrapped either (millions of calls on
#: ``wide-4k``); its cost is placement self time.
BOUNDARIES: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "EventLoop",
     ("run", "step", "schedule", "schedule_in")),
    ("core.negotiation", "repro.core.negotiation", "Negotiator",
     ("negotiate", "make_offer", "iter_offers*", "suggest_deadline")),
    ("scheduling.placement", "repro.cluster.topology", "FlatTopology",
     ("select_partition",)),
    ("cluster.reservations", "repro.cluster.reservations", "ReservationLedger",
     LEDGER_QUERIES + LEDGER_MUTATIONS),
    ("prediction", "repro.core.fastpath", "AnalyticalEvaluator",
     ("failure_probability", "predicted_failures", "first_predicted_failure",
      "best_case_probability", "begin_dialogue")),
    ("scheduling.fcfs", "repro.scheduling.fcfs", "ConservativeBackfillScheduler",
     ("schedule_arrival", "schedule_restart", "pull_forward")),
    ("checkpointing", "repro.checkpointing.policies", "CooperativePolicy",
     ("decide",)),
    ("checkpointing", "repro.checkpointing.runtime", "JobRun",
     ("next_event_delay", "reach_request", "skip_checkpoint",
      "begin_checkpoint", "complete_checkpoint", "finish", "kill")),
    ("cluster.machine", "repro.cluster.machine", "Cluster",
     ("node", "up_nodes", "running_jobs", "nodes_of", "job_on",
      "nodes_available", "busy_node_count", "start_job", "remove_job",
      "fail_node", "recover_node", "down_until", "latest_recovery")),
    ("core.metrics", "repro.core.metrics", "MetricsCollector",
     ("register_job", "outcome", "record_guarantee", "record_start",
      "record_finish", "record_failure_hit", "record_evacuation",
      "record_checkpoint", "outcomes", "finalize")),
)

#: Layers in report order (the root first; its self time is unattributed).
LAYERS: Tuple[str, ...] = (ROOT[0],) + tuple(
    dict.fromkeys(layer for layer, _, _, _ in BOUNDARIES)
)


def resolve(module: str, cls_name: str, method: str) -> Tuple[type, Callable]:
    """The class and the plain function behind ``module.cls_name.method``.

    Raises:
        LookupError: When any part is missing or is not a plain method.
    """
    try:
        cls = getattr(importlib.import_module(module), cls_name)
    except (ImportError, AttributeError) as exc:
        raise LookupError(f"{module}.{cls_name}: {exc}") from None
    fn = getattr(cls, method, None)
    if not callable(fn) or isinstance(fn, type):
        raise LookupError(f"{module}.{cls_name}.{method} not found")
    return cls, fn


class ClassPatch:
    """Replaces methods on classes and puts the originals back.

    A method inherited from a base class is shadowed on the named class
    and the shadow deleted on restore, so the base class is never touched.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, Any, bool]] = []

    def replace(self, cls: type, method: str, wrapper: Callable) -> None:
        own = method in cls.__dict__
        self._saved.append((cls, method, cls.__dict__.get(method), own))
        setattr(cls, method, wrapper)

    def restore(self) -> None:
        while self._saved:
            cls, method, original, own = self._saved.pop()
            if own:
                setattr(cls, method, original)
            else:
                delattr(cls, method)


class OfferTimer:
    """Times every ``Negotiator.negotiate`` call: the untraced run's only
    instrumentation (two clock reads and one array append per job).

    Use as a context manager; ``samples_ns`` holds one duration per call,
    8 bytes each, so the samples of a longer run barely move peak RSS.
    """

    def __init__(self) -> None:
        self.samples_ns: "array[int]" = array("q")
        self._patch = ClassPatch()

    def __enter__(self) -> "OfferTimer":
        cls, negotiate = resolve("repro.core.negotiation", "Negotiator", "negotiate")
        clock = time.perf_counter_ns
        record = self.samples_ns.append

        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            outcome = negotiate(*args, **kwargs)
            record(clock() - t0)
            return outcome

        self._patch.replace(cls, "negotiate", timed)
        return self

    def __exit__(self, *exc: object) -> None:
        self._patch.restore()


@dataclass
class LayerReport:
    """Per-layer metrics ``name -> (value, unit)`` of the traced runs, the
    boundaries that could not be found, and the number of spans."""

    metrics: Dict[str, Tuple[float, str]]
    missing: List[str]
    span_count: int


class Tracer:
    """Records spans at every boundary of :data:`BOUNDARIES` while active.

    Use as a context manager around building *and* running the systems.
    Counts a span cannot give (nodes scored, pruned candidates,
    profile-cache hits, ...) are read from the arguments and results of
    the same calls by the hooks in :data:`_HOOKS`.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.missing: List[str] = []
        self.counts: Dict[str, int] = {}
        self._layer_of: List[int] = []
        self._patch = ClassPatch()
        self._name = array("h")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._job = array("i")
        self._stack: List[int] = []
        self._dialogue_job = [-1]
        self._last_profile: Tuple[Any, Any] = (None, None)
        self._evaluator: Any = None
        self._terms_found = True

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._patch.restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._patch.restore()

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _install(self) -> None:
        layer, module, cls_name, method = ROOT
        cls, fn = resolve(module, cls_name, method)
        root_id = self._add_name(f"{cls_name}.{method}", layer)
        self._patch.replace(
            cls, method, self._wrap(fn, root_id, None, _end_of_run, root=True)
        )
        for layer, module, cls_name, methods in BOUNDARIES:
            for spec in methods:
                method = spec.rstrip("*")
                label = f"{cls_name}.{method}"
                try:
                    cls, fn = resolve(module, cls_name, method)
                except LookupError as exc:
                    self.missing.append(f"{layer}: {exc}")
                    continue
                name_id = self._add_name(label, layer)
                before, after = _HOOKS.get(label, (None, None))
                if spec.endswith("*"):
                    wrapper = self._wrap_generator(fn, name_id, before, after)
                else:
                    wrapper = self._wrap(fn, name_id, before, after)
                if label == "Negotiator.negotiate":
                    wrapper = self._tag_dialogue(wrapper)
                self._patch.replace(cls, method, wrapper)

    def _add_name(self, label: str, layer: str) -> int:
        self.names.append(label)
        self._layer_of.append(LAYERS.index(layer))
        return len(self.names) - 1

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(
        self, fn: Callable, name_id: int, before: Optional[Callable],
        after: Optional[Callable], root: bool = False,
    ) -> Callable:
        tracer, stack, clock = self, self._stack, time.perf_counter_ns
        names, starts, ends = self._name, self._start, self._end
        parents, jobs, job = self._parent, self._job, self._dialogue_job

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack and not root:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(job[0])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def _tag_dialogue(self, traced: Callable) -> Callable:
        """Tag every span under ``negotiate`` with the negotiated job id."""
        job = self._dialogue_job

        def dialogue(negotiator: Any, job_id: int, *args: Any, **kwargs: Any) -> Any:
            outer, job[0] = job[0], job_id
            try:
                return traced(negotiator, job_id, *args, **kwargs)
            finally:
                job[0] = outer

        return dialogue

    def _wrap_generator(
        self, fn: Callable, name_id: int, before: Optional[Callable],
        after: Optional[Callable],
    ) -> Callable:
        tracer, stack, names = self, self._stack, self._name
        layer_of, label = self._layer_of, self.names[name_id]
        resume = self._wrap(next, name_id, None, None)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                yield from fn(*args, **kwargs)
                return
            if layer_of[names[stack[-1]]] != layer_of[name_id]:
                tracer.count(f"external_calls.{label}")
            if before is not None:
                before(tracer, args, kwargs)
            inner = fn(*args, **kwargs)
            yielded = 0
            try:
                while True:
                    try:
                        item = resume(inner)
                    except StopIteration:
                        return
                    yielded += 1
                    yield item
            finally:
                inner.close()
                if after is not None:
                    after(tracer, args, kwargs, yielded)

        return traced

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def columns(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy columns."""
        return {
            "name": np.frombuffer(self._name, dtype=np.int16).copy(),
            "start_ns": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self._end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self._job, dtype=np.int32).copy(),
        }

    def report(self) -> LayerReport:
        """Per-layer metrics over every traced ``run`` so far."""
        cols = self.columns()
        name, parent = cols["name"].astype(np.intp), cols["parent"]
        duration = (cols["end_ns"] - cols["start_ns"]).astype(np.float64)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent],
            minlength=len(duration),
        )
        layer = np.asarray(self._layer_of, dtype=np.intp)[name]
        self_ns = np.bincount(layer, weights=duration - covered,
                              minlength=len(LAYERS))
        calls = np.bincount(layer, minlength=len(LAYERS))
        wall_ns = float(duration[~has_parent].sum())
        c = self.counts

        # Ledger calls made by other layers: the ledger calling itself
        # (free_nodes_set -> profile) is not a new query.  Generator calls
        # were counted when created, since one call spans many resumptions.
        ledger = LAYERS.index("cluster.reservations")
        external = np.ones(len(name), dtype=bool)
        external[has_parent] = layer[parent[has_parent]] != ledger
        ledger_calls = {}
        for kind, methods in (("queries", LEDGER_QUERIES),
                              ("mutations", LEDGER_MUTATIONS)):
            plain = [f"ReservationLedger.{m}" for m in methods if "*" not in m]
            ids = [i for i, n in enumerate(self.names) if n in plain]
            ledger_calls[kind] = int((np.isin(name, ids) & external).sum()) + sum(
                c.get(f"external_calls.ReservationLedger.{m.rstrip('*')}", 0)
                for m in methods if "*" in m
            )

        def layer_calls(name: str) -> int:
            return int(calls[LAYERS.index(name)])

        dialogues = c.get("core.negotiation.dialogues", 0)
        forced = c.get("core.negotiation.forced", 0)
        offers = c.get("core.negotiation.offers", 0)
        scored = c.get("scheduling.placement.nodes_scored", 0)
        profile_calls = c.get("cluster.reservations.profile_calls", 0)
        raw: Dict[str, Tuple[float, str]] = {
            "scheduling.placement.calls": (layer_calls("scheduling.placement"), "count"),
            "scheduling.placement.nodes_scored": (scored, "count"),
            "cluster.reservations.queries": (ledger_calls["queries"], "count"),
            "cluster.reservations.mutations": (ledger_calls["mutations"], "count"),
            "cluster.reservations.profile_hit_ratio": (_ratio(
                profile_calls - c.get("cluster.reservations.profile_rebuilds", 0),
                profile_calls), "fraction"),
            "sim.events": (c.get("sim.events", 0), "count"),
            "sim.scheduled": (c.get("sim.scheduled", 0), "count"),
            "core.negotiation.dialogues": (dialogues, "count"),
            "core.negotiation.offers": (offers, "count"),
            "core.negotiation.accept_ratio": (
                _ratio(dialogues - forced, offers), "fraction"),
            "core.negotiation.forced": (forced, "count"),
            "core.negotiation.probes": (c.get("core.negotiation.probes", 0), "count"),
            "core.negotiation.pruned": (c.get("core.negotiation.pruned", 0), "count"),
            "prediction.calls": (layer_calls("prediction"), "count"),
            # Each scored node is one term lookup (the fault-aware scorer
            # asks once per free node) and each cache entry was one miss.
            "prediction.term_cache_hit_ratio": (_ratio(
                scored - c.get("prediction.term_cache_entries", 0), scored),
                "fraction"),
            "scheduling.fcfs.restarts": (c.get("scheduling.fcfs.restarts", 0), "count"),
            "checkpointing.decisions": (c.get("checkpointing.decisions", 0), "count"),
            "checkpointing.performed": (c.get("checkpointing.performed", 0), "count"),
            "cluster.machine.calls": (layer_calls("cluster.machine"), "count"),
            "core.metrics.calls": (layer_calls("core.metrics"), "count"),
        }
        for i, layer_name in enumerate(LAYERS[1:], start=1):
            raw[f"{layer_name}.self_s"] = (self_ns[i] / 1e9, "s")
            raw[f"{layer_name}.share"] = (_ratio(self_ns[i], wall_ns), "fraction")

        missing = list(self.missing)
        if not self._terms_found:
            missing.append(
                "prediction: repro.core.fastpath.AnalyticalEvaluator._terms "
                "(term cache) not found"
            )
        # A layer with a boundary missing is reported by name, never as 0.
        gone = {entry.split(":", 1)[0] for entry in missing}
        metrics = {
            key: value for key, value in raw.items()
            if not any(key.startswith(layer_name + ".") for layer_name in gone)
        }
        metrics["unattributed_share"] = (_ratio(self_ns[0], wall_ns), "fraction")
        return LayerReport(metrics, missing, len(name))

    def write(self, path: Path) -> None:
        """Write the spans (numpy columns plus the name table) to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        table = {"names": self.names,
                 "layers": [LAYERS[i] for i in self._layer_of]}
        np.savez_compressed(path, names=np.asarray(json.dumps(table)),
                            **self.columns())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Hooks: ``before(tracer, args, kwargs)`` and ``after(tracer, args,
# kwargs, result)`` around a traced call; ``args`` includes ``self``.
# ----------------------------------------------------------------------
def _end_of_run(tracer: Tracer, args: Sequence, kwargs: Dict, result: Any) -> None:
    # The term cache still holds the entries made since the last dialogue.
    _count_terms(tracer, tracer._evaluator)
    tracer._evaluator = None
    tracer._last_profile = (None, None)


def _count_terms(tracer: Tracer, evaluator: Any) -> None:
    if evaluator is None:
        return
    terms = getattr(evaluator, "_terms", None)
    if terms is None:
        tracer._terms_found = False
    else:
        tracer.count("prediction.term_cache_entries", len(terms))


def _begin_dialogue(tracer: Tracer, args: Sequence, kwargs: Dict) -> None:
    # Runs before the call clears the dialogue-scoped term cache: every
    # entry in it was one miss since the previous clear.
    _count_terms(tracer, args[0])
    tracer._evaluator = args[0]


def _select_partition(tracer: Tracer, args: Sequence, kwargs: Dict, result: Any) -> None:
    # select_partition(self, free_nodes, size, start, end, scorer=None)
    scorer = args[5] if len(args) > 5 else kwargs.get("scorer")
    free_nodes, size = args[1], args[2]
    if scorer is not None and len(free_nodes) >= size:
        tracer.count("scheduling.placement.nodes_scored", len(free_nodes))


def _profile(tracer: Tracer, args: Sequence, kwargs: Dict, result: Any) -> None:
    # The ledger returns the same cached object until a mutation.
    tracer.count("cluster.reservations.profile_calls")
    last_ledger, last_profile = tracer._last_profile
    if last_ledger is not args[0] or last_profile is not result:
        tracer.count("cluster.reservations.profile_rebuilds")
        tracer._last_profile = (args[0], result)


def _negotiate(tracer: Tracer, args: Sequence, kwargs: Dict, outcome: Any) -> None:
    tracer.count("core.negotiation.dialogues")
    tracer.count("core.negotiation.offers", outcome.offers_made)
    if outcome.forced:
        tracer.count("core.negotiation.forced")


def _make_offer(tracer: Tracer, args: Sequence, kwargs: Dict, result: Any) -> None:
    tracer.count("core.negotiation.probes")


def _lend_stats(tracer: Tracer, args: Sequence, kwargs: Dict) -> None:
    # iter_offers(self, size, duration, earliest, threshold=None, stats=None)
    if len(args) <= 5 and kwargs.get("stats") is None:
        kwargs["stats"] = {}


def _count_pruned(tracer: Tracer, args: Sequence, kwargs: Dict, yielded: int) -> None:
    # stats["produced"] counts yielded plus pruned candidates.
    stats = args[5] if len(args) > 5 else kwargs["stats"]
    tracer.count("core.negotiation.pruned", stats.get("produced", 0) - yielded)


def _schedule_restart(tracer: Tracer, args: Sequence, kwargs: Dict, result: Any) -> None:
    tracer.count("scheduling.fcfs.restarts")


def _decide(tracer: Tracer, args: Sequence, kwargs: Dict, decision: Any) -> None:
    tracer.count("checkpointing.decisions")
    if decision.perform:
        tracer.count("checkpointing.performed")


def _step(tracer: Tracer, args: Sequence, kwargs: Dict, event: Any) -> None:
    if event is not None:
        tracer.count("sim.events")


def _schedule(tracer: Tracer, args: Sequence, kwargs: Dict, event: Any) -> None:
    tracer.count("sim.scheduled")


_HOOKS: Dict[str, Tuple[Optional[Callable], Optional[Callable]]] = {
    "AnalyticalEvaluator.begin_dialogue": (_begin_dialogue, None),
    "FlatTopology.select_partition": (None, _select_partition),
    "ReservationLedger.profile": (None, _profile),
    "Negotiator.negotiate": (None, _negotiate),
    "Negotiator.make_offer": (None, _make_offer),
    "Negotiator.iter_offers": (_lend_stats, _count_pruned),
    "ConservativeBackfillScheduler.schedule_restart": (None, _schedule_restart),
    "CooperativePolicy.decide": (None, _decide),
    "EventLoop.step": (None, _step),
    "EventLoop.schedule": (None, _schedule),
}
