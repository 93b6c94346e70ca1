"""The deadline-negotiation dialogue between system and user.

This is the paper's central mechanism (Sections 3.3 and 3.5): at submission
the scheduler looks for the earliest time the job could run, selects the
partition with the lowest predicted failure probability, and offers the user
a deadline together with a promised success probability ``p = 1 − p_f``.
If the user declines (their risk threshold ``U`` exceeds ``p``), the system
produces the next-earliest offer — a later slot and/or a safer partition —
and the dialogue repeats.  The user accepts the earliest offer satisfying
Equation 3, so deadlines are pushed "no further than necessary".

Offer enumeration is exact for the booked region: free capacity changes
only at reservation end points, so those are the only candidate start times
(plus "now").  Past the booking horizon the cluster is entirely free and
offers can only improve by *jumping past predicted failures*; the loop
advances the candidate start just beyond the earliest predicted failure of
the best partition until the promise clears the threshold (the failure
trace is finite, so this terminates), with a hard cap as a safety valve —
if the cap is hit, the best offer seen is imposed and flagged.

Negotiation modes
-----------------

The dialogue can price offers three ways (``Negotiator(mode=...)``):

``analytical`` (default)
    Offers are priced by an :class:`~repro.core.fastpath
    .AnalyticalEvaluator` — cached per-node survival terms combined
    analytically instead of re-querying the predictor per candidate.  For
    :class:`~repro.core.users.RiskThresholdUser` dialogues the enumeration
    additionally *prunes*: before probing a candidate window, a sound upper
    bound on the promise any partition could earn there is compared against
    the user's threshold, and provably-declined candidates are skipped
    without partition selection or pricing.  Pruned candidates still count
    toward the dialogue cap (keeping the enumeration aligned with probe
    mode), and if a pruned dialogue ends without acceptance the negotiator
    reruns it unpruned, so the accepted/imposed outcome is always identical
    to probe mode — only ``offers_made`` / ``offers_declined`` shrink,
    because pruned offers were never laid on the table.

``probe``
    The original simulated dialogue: every candidate is priced by a live
    predictor query.  Kept as the oracle of record.

``oracle``
    Probe mode with a built-in cross-check: every offer is priced both
    ways and the two must agree within ``oracle_tolerance``; the *probe*
    value is emitted, so accepted offers are bit-identical to probe mode
    by construction.  Use it to validate the fast path against a new
    predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.cluster.nodeset import freeze_nodes
from repro.cluster.reservations import NodeScorer, ReservationLedger
from repro.cluster.topology import Topology
from repro.core.fastpath import AnalyticalEvaluator
from repro.core.guarantee import DeadlineOffer, QoSGuarantee
from repro.core.users import RiskThresholdUser, UserModel
from repro.obs.prof import NULL_PROFILER, Profiler
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.prediction.base import Predictor

#: Valid values for ``Negotiator(mode=...)``.
NEGOTIATION_MODES: Tuple[str, ...] = ("probe", "analytical", "oracle")

#: Default absolute tolerance for the oracle-mode cross-check.  The trace
#: and online fast paths are bit-identical by construction, so any
#: disagreement here means a predictor's ``node_failure_term`` does not
#: match its ``failure_probability`` decomposition (see DESIGN.md).
DEFAULT_ORACLE_TOLERANCE = 1e-9

#: Acceptance slack shared with ``RiskThresholdUser.accepts`` — the pruning
#: bound must use the exact same epsilon or it could skip an offer the user
#: would have taken.
_ACCEPT_EPSILON = 1e-12


class OracleDisagreement(RuntimeError):
    """Raised in oracle mode when the analytical promise strays from the
    probe promise by more than the configured tolerance."""


@dataclass(frozen=True)
class NegotiationOutcome:
    """Result of one submission dialogue.

    Attributes:
        guarantee: The promise as recorded by the system.
        start: Reserved start time.
        nodes: Reserved partition (ascending; a tuple or a run-length
            :class:`~repro.cluster.nodeset.NodeSet` — equal either way).
        reserved_end: Reservation end (start + padded duration).
        offers_made: Offers laid on the table including the accepted one
            (pruned candidates were never on the table and do not count).
        forced: True if the safety cap ended the dialogue and the best
            offer was imposed rather than accepted.
    """

    guarantee: QoSGuarantee
    start: float
    nodes: Sequence[int]
    reserved_end: float
    offers_made: int
    forced: bool


@dataclass(frozen=True)
class DeadlineSuggestion:
    """Typed result of the advisory :meth:`Negotiator.suggest_deadline`.

    Attributes:
        offer: The earliest offer reaching the target, or None.
        status: ``"found"`` when an offer reached the target;
            ``"cap_reached"`` when the dialogue cap ended the search first
            (a feasible deadline may exist beyond the cap); ``"infeasible"``
            when the enumeration exhausted naturally — no partition of the
            requested size can ever be placed.
        offers_examined: Candidates examined, including pruned ones.
    """

    offer: Optional[DeadlineOffer]
    status: str
    offers_examined: int

    @property
    def found(self) -> bool:
        """True when an offer reaching the target was found."""
        return self.offer is not None


class Negotiator:
    """Produces offers and records accepted guarantees.

    Args:
        ledger: The scheduler's reservation book.
        topology: Allocation-shape constraint (flat in the paper).
        predictor: The event predictor behind every promise.
        scorer: Node ranking used to pick partitions; the paper's system
            passes the fault-aware scorer.
        max_offers: Dialogue safety cap.
        registry: Optional obs registry; when live, every dialogue records
            its probe depth, offer count, and the rank of the accepted
            offer under ``negotiation.dialogue.*``.
        mode: Offer-pricing mode, one of :data:`NEGOTIATION_MODES` (see
            the module docstring).
        failure_jump_epsilon: Seconds added when advancing a candidate
            start past a predicted failure; must be positive or the jump
            loop could stall on the failure instant itself.
        evaluator: The analytical evaluator to price offers with (built
            from ``predictor`` when omitted).  The system passes a shared
            instance so placement scoring reuses the same term cache.
        oracle_tolerance: Absolute tolerance for the oracle cross-check.
        profiler: Optional hierarchical profiler (:mod:`repro.obs.prof`);
            when live, each dialogue runs inside the
            ``negotiation.dialogue.negotiate`` zone, and a self-built
            evaluator inherits it.
    """

    def __init__(
        self,
        ledger: ReservationLedger,
        topology: Topology,
        predictor: Predictor,
        scorer: Optional[NodeScorer] = None,
        max_offers: int = 400,
        registry: Optional[MetricsRegistry] = None,
        mode: str = "analytical",
        failure_jump_epsilon: float = 1.0,
        evaluator: Optional[AnalyticalEvaluator] = None,
        oracle_tolerance: float = DEFAULT_ORACLE_TOLERANCE,
        profiler: Optional[Profiler] = None,
    ) -> None:
        if max_offers < 1:
            raise ValueError(f"max_offers must be >= 1, got {max_offers}")
        if mode not in NEGOTIATION_MODES:
            raise ValueError(
                f"mode must be one of {NEGOTIATION_MODES}, got {mode!r}"
            )
        if failure_jump_epsilon <= 0.0:
            raise ValueError(
                "failure_jump_epsilon must be positive, got "
                f"{failure_jump_epsilon}"
            )
        self._ledger = ledger
        self._topology = topology
        # Prefer the run-length free-set query when the ledger offers one
        # (the frozen seed ledger only speaks lists); both iterate the same
        # nodes ascending, so offers are identical either way.
        self._free_query = getattr(ledger, "free_nodes_set", ledger.free_nodes)
        self._predictor = predictor
        self._scorer = scorer
        self._max_offers = max_offers
        self._mode = mode
        self._jump_epsilon = float(failure_jump_epsilon)
        self._oracle_tolerance = float(oracle_tolerance)
        registry = registry if registry is not None else NULL_REGISTRY
        profiler = profiler if profiler is not None else NULL_PROFILER
        if mode == "probe":
            self._eval: Optional[AnalyticalEvaluator] = None
        elif evaluator is not None:
            self._eval = evaluator
        else:
            self._eval = AnalyticalEvaluator(
                predictor, ledger.node_count, registry=registry,
                profiler=profiler,
            )
        # Jump targets come from the evaluator only in analytical mode;
        # probe and oracle stay faithful to the live predictor.
        self._jump_source: Predictor = (
            self._eval if self._mode == "analytical" and self._eval is not None
            else predictor
        )
        self._obs = registry.enabled
        self._c_dialogues = registry.counter("negotiation.dialogue.dialogues")
        self._c_probes = registry.counter("negotiation.dialogue.probes")
        self._c_prefilter = registry.counter(
            "negotiation.dialogue.prefilter_rejects"
        )
        self._c_pruned = registry.counter("negotiation.dialogue.pruned")
        self._c_forced = registry.counter("negotiation.dialogue.forced")
        self._c_advisories = registry.counter("negotiation.dialogue.advisories")
        self._c_oracle_checks = registry.counter(
            "negotiation.fastpath.oracle_checks"
        )
        self._h_offers = registry.histogram("negotiation.dialogue.offers_per_job")
        self._h_accepted_rank = registry.histogram(
            "negotiation.dialogue.accepted_rank"
        )
        self._prof = profiler.enabled
        self._z_negotiate = profiler.zone("negotiation.dialogue.negotiate")

    @property
    def mode(self) -> str:
        """The configured pricing mode."""
        return self._mode

    @property
    def failure_jump_epsilon(self) -> float:
        """Seconds added when jumping past a predicted failure."""
        return self._jump_epsilon

    @property
    def evaluator(self) -> Optional[AnalyticalEvaluator]:
        """The analytical evaluator (None in probe mode)."""
        return self._eval

    # ------------------------------------------------------------------
    # Offer generation
    # ------------------------------------------------------------------
    def _price(self, nodes: Sequence[int], start: float, end: float) -> float:
        """The promised failure probability for a concrete partition."""
        if self._mode == "analytical":
            assert self._eval is not None
            return self._eval.failure_probability(nodes, start, end)
        p_f = self._predictor.failure_probability(nodes, start, end)
        if self._mode == "oracle":
            assert self._eval is not None
            analytical = self._eval.failure_probability(nodes, start, end)
            if abs(analytical - p_f) > self._oracle_tolerance:
                raise OracleDisagreement(
                    f"analytical promise {analytical!r} disagrees with probe "
                    f"promise {p_f!r} for nodes={nodes} window=[{start}, {end})"
                    f" beyond tolerance {self._oracle_tolerance}"
                )
            if self._obs:
                self._c_oracle_checks.inc()
        return p_f

    def make_offer(
        self, size: int, duration: float, start: float
    ) -> Optional[DeadlineOffer]:
        """Best offer starting exactly at ``start``, or None if infeasible.

        Picks the lowest-failure-probability partition among the free nodes
        (the paper's tie-breaking), then quotes ``p = 1 − p_f`` for it.
        """
        free = self._free_query(start, start + duration)
        if len(free) < size:
            return None
        nodes = self._topology.select_partition(
            free, size, start, start + duration, self._scorer
        )
        if nodes is None:
            return None
        partition = freeze_nodes(nodes)
        p_f = self._price(partition, start, start + duration)
        return DeadlineOffer(
            start=start,
            nodes=partition,
            deadline=start + duration,
            probability=1.0 - p_f,
            failure_probability=p_f,
        )

    def iter_offers(
        self,
        size: int,
        duration: float,
        earliest: float,
        threshold: Optional[float] = None,
        stats: Optional[Dict[str, int]] = None,
    ) -> Iterator[DeadlineOffer]:
        """Yield offers in nondecreasing deadline order.

        First the exact candidates of the booked region, then the
        jump-past-predicted-failure sequence; stops after
        ``self._max_offers`` candidates.

        Args:
            size: Nodes required.
            duration: Padded runtime to reserve.
            earliest: No offer starts before this.
            threshold: When set (analytical mode only), candidates whose
                best-achievable promise provably falls short of this user
                threshold are skipped without pricing.  Pruned candidates
                count toward the cap so the enumeration stays aligned with
                an unpruned dialogue.
            stats: Optional dict; ``stats["produced"]`` is kept updated
                with the number of candidates counted toward the cap
                (yielded + pruned), letting callers detect cap exhaustion
                even when pruning swallows the final candidates.
        """
        produced = 0
        last_start = earliest
        obs = self._obs
        probes = self._c_probes
        evaluator = self._eval
        if evaluator is not None:
            evaluator.begin_dialogue()
        prune = threshold is not None and self._mode == "analytical"
        if prune:
            assert evaluator is not None
        # Capacity prefilter: the ledger's skyline walk skips candidates
        # that cannot possibly have enough simultaneously free nodes
        # without per-node queries.  The ledger is not mutated during one
        # dialogue, so one walk serves the whole enumeration.
        if size > self._ledger.node_count:
            # The walk yields nothing for a job wider than the cluster:
            # every candidate is a prefilter reject, and the horizon probe
            # below starts from the last one, as after any other walk.
            candidates = self._ledger.candidate_times(earliest)
            last_start = candidates[-1]
            if obs:
                self._c_prefilter.inc(len(candidates))
        for start, skipped in self._ledger.fitting_starts(
            earliest, duration, size, obs
        ):
            last_start = start
            if skipped:
                self._c_prefilter.inc(skipped)
            if prune:
                bound = evaluator.best_case_probability(
                    size, start, start + duration
                )
                if bound < threshold - _ACCEPT_EPSILON:
                    produced += 1
                    if stats is not None:
                        stats["produced"] = produced
                    if obs:
                        self._c_pruned.inc()
                    if produced >= self._max_offers:
                        return
                    continue
            if obs:
                probes.inc()
            offer = self.make_offer(size, duration, start)
            if offer is None:
                continue
            produced += 1
            if stats is not None:
                stats["produced"] = produced
            yield offer
            if produced >= self._max_offers:
                return
        # Past the booking horizon: jump beyond predicted failures.  The
        # walk's last start is the last candidate (nothing is booked past
        # it, so its window always fits).
        start = last_start
        while produced < self._max_offers:
            if prune:
                bound = evaluator.best_case_probability(
                    size, start, start + duration
                )
                if bound < threshold - _ACCEPT_EPSILON:
                    # Advance exactly as the unpruned loop would: find the
                    # partition this candidate would have offered and jump
                    # past its earliest predicted failure.
                    free = self._free_query(start, start + duration)
                    if len(free) < size:
                        return
                    nodes = self._topology.select_partition(
                        free, size, start, start + duration, self._scorer
                    )
                    if nodes is None:
                        return
                    predicted = evaluator.first_predicted_failure(
                        nodes, start, start + duration
                    )
                    if predicted is not None:
                        produced += 1
                        if stats is not None:
                            stats["produced"] = produced
                        if obs:
                            self._c_pruned.inc()
                        start = predicted.time + self._jump_epsilon
                        continue
                    # A bound below the threshold implies a detectable
                    # failure on every feasible partition, so this branch
                    # is unreachable for trace-backed evaluators; fall
                    # through to a real probe rather than trusting it.
            if obs:
                probes.inc()
            offer = self.make_offer(size, duration, start)
            if offer is None:
                return  # cluster narrower than the job; caller validates
            produced += 1
            if stats is not None:
                stats["produced"] = produced
            yield offer
            if produced >= self._max_offers:
                return
            predicted = self._jump_source.first_predicted_failure(
                offer.nodes, start, start + duration
            )
            if predicted is None:
                return  # perfect offer; nothing later can beat p = 1
            start = predicted.time + self._jump_epsilon

    # ------------------------------------------------------------------
    # The dialogue
    # ------------------------------------------------------------------
    def _run_dialogue(
        self,
        size: int,
        duration: float,
        now: float,
        user: UserModel,
        threshold: Optional[float],
    ) -> Tuple[Optional[DeadlineOffer], Optional[DeadlineOffer], int]:
        """One pass of the offer loop: ``(best, accepted, offers_made)``."""
        best: Optional[DeadlineOffer] = None
        accepted: Optional[DeadlineOffer] = None
        offers_made = 0
        for offer in self.iter_offers(size, duration, now, threshold=threshold):
            offers_made += 1
            if best is None or offer.probability > best.probability:
                best = offer
            if user.accepts(offer):
                accepted = offer
                break
        return best, accepted, offers_made

    def negotiate(
        self,
        job_id: int,
        size: int,
        duration: float,
        now: float,
        user: UserModel,
    ) -> NegotiationOutcome:
        """Run the submission dialogue and book the accepted offer.

        Args:
            job_id: Job being submitted.
            size: Nodes required (``n_j``).
            duration: Padded runtime ``E_j`` to reserve.
            now: Submission time (offers start at or after it).
            user: The user's risk strategy.

        Returns:
            The accepted (or imposed) :class:`NegotiationOutcome`; the
            reservation is already booked in the ledger.

        Raises:
            ValueError: If the job can never fit (size > cluster width).
        """
        if not self._prof:
            return self._negotiate(job_id, size, duration, now, user)
        with self._z_negotiate:
            return self._negotiate(job_id, size, duration, now, user)

    def _negotiate(
        self,
        job_id: int,
        size: int,
        duration: float,
        now: float,
        user: UserModel,
    ) -> NegotiationOutcome:
        if size > self._ledger.node_count:
            raise ValueError(
                f"job {job_id}: size {size} exceeds cluster width "
                f"{self._ledger.node_count}"
            )

        # Pruning is only sound when acceptance is *exactly* the Equation 3
        # threshold test, so it is keyed to RiskThresholdUser itself — not
        # subclasses or look-alikes (SlackBoundedUser also accepts on
        # patience, which the bound knows nothing about).
        threshold: Optional[float] = None
        if self._mode == "analytical" and type(user) is RiskThresholdUser:
            threshold = user.risk_threshold

        best, accepted, offers_made = self._run_dialogue(
            size, duration, now, user, threshold
        )
        if accepted is None and threshold is not None:
            # The pruned pass ended without acceptance (cap or exhaustion).
            # Rerun unpruned so the imposed offer — and the RuntimeError
            # below, if it comes to that — are bit-identical to probe mode.
            best, accepted, offers_made = self._run_dialogue(
                size, duration, now, user, None
            )

        forced = accepted is None
        if accepted is None:
            if best is None:
                raise RuntimeError(
                    f"job {job_id}: no feasible offer (topology cannot place "
                    f"{size} nodes)"
                )
            accepted = best  # cap hit: impose the safest offer seen

        if self._obs:
            self._c_dialogues.inc()
            self._h_offers.observe(offers_made)
            if forced:
                self._c_forced.inc()
            else:
                # Rank 1 = first offer accepted (deadline pushed "no
                # further than necessary" with no pushback at all).
                self._h_accepted_rank.observe(offers_made)

        self._ledger.reserve(job_id, accepted.nodes, accepted.start, accepted.deadline)
        guarantee = QoSGuarantee(
            job_id=job_id,
            deadline=accepted.deadline,
            probability=accepted.probability,
            predicted_failure_probability=accepted.failure_probability,
            negotiated_at=now,
            planned_start=accepted.start,
            planned_nodes=accepted.nodes,
            offers_declined=offers_made - (0 if forced else 1),
        )
        return NegotiationOutcome(
            guarantee=guarantee,
            start=accepted.start,
            nodes=accepted.nodes,
            reserved_end=accepted.deadline,
            offers_made=offers_made,
            forced=forced,
        )

    # ------------------------------------------------------------------
    # Advisory
    # ------------------------------------------------------------------
    def _advise(
        self,
        size: int,
        duration: float,
        now: float,
        target_probability: float,
        threshold: Optional[float],
    ) -> DeadlineSuggestion:
        stats: Dict[str, int] = {"produced": 0}
        for offer in self.iter_offers(
            size, duration, now, threshold=threshold, stats=stats
        ):
            if offer.probability >= target_probability - _ACCEPT_EPSILON:
                return DeadlineSuggestion(
                    offer=offer, status="found", offers_examined=stats["produced"]
                )
        status = (
            "cap_reached"
            if stats["produced"] >= self._max_offers
            else "infeasible"
        )
        return DeadlineSuggestion(
            offer=None, status=status, offers_examined=stats["produced"]
        )

    def suggest_deadline(
        self, size: int, duration: float, now: float, target_probability: float
    ) -> DeadlineSuggestion:
        """The paper's "the scheduler could even suggest a deadline": the
        earliest offer whose promise reaches ``target_probability``.

        Purely advisory — nothing is booked.  The result distinguishes a
        search truncated by the dialogue cap (``status="cap_reached"``: a
        feasible deadline may exist further out) from true infeasibility
        (``status="infeasible"``: the enumeration exhausted naturally,
        which only happens when no partition of this size can be placed —
        a failure-free offer always satisfies any target ``<= 1``).

        Raises:
            ValueError: If ``target_probability`` is outside ``(0, 1]``; no
                promise can reach it, so any verdict would be false.
        """
        if not 0.0 < target_probability <= 1.0:
            raise ValueError(
                "target_probability must be in (0, 1], got "
                f"{target_probability}"
            )
        if self._obs:
            self._c_advisories.inc()
        threshold = (
            target_probability if self._mode == "analytical" else None
        )
        suggestion = self._advise(size, duration, now, target_probability, threshold)
        if suggestion.status == "cap_reached" and threshold is not None:
            # Pruned candidates count toward the cap (including ones an
            # unpruned pass would have skipped as infeasible), so the
            # pruned pass can exhaust the cap slightly early; rerun
            # unpruned for a probe-identical verdict.
            suggestion = self._advise(
                size, duration, now, target_probability, None
            )
        return suggestion
