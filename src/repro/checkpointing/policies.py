"""Checkpointing policies, including the paper's cooperative scheme.

In cooperative checkpointing (Section 3.4) the *application* requests a
checkpoint every ``I`` seconds of execution and the *system* decides whether
to perform or skip it.  The risk-based heuristic performs checkpoint ``i``
iff the expected lost work from skipping exceeds the overhead:

    p_f * d * I  >=  C                                  (Equation 1)

where ``p_f`` is the predicted probability that the job's partition fails
before the next checkpoint would complete, ``d - 1`` is the number of
consecutively skipped requests (so ``d * I`` is the execution time at risk),
and ``C`` is the checkpoint overhead.

A second, deadline-driven rule overrides Equation 1: "even if
``p_f d I >= C``, the checkpoint will be skipped if doing so might allow a
job to meet a deadline that it would otherwise miss."

The policy object sees one :class:`CheckpointDecisionContext` per request
and returns perform/skip; all timing bookkeeping lives in
:mod:`repro.checkpointing.runtime`.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Tuple

from repro.prediction.base import Predictor


class CheckpointDecisionContext:
    """Everything a policy may consult for one checkpoint request.

    A slotted record built once per request (thousands per run), so it
    sets plain attributes instead of paying a frozen dataclass's
    ``object.__setattr__`` per field; policies treat it as read-only.

    Attributes:
        now: Request time ``b_i`` (seconds).
        job_id: Requesting job.
        nodes: Partition the job occupies.
        interval: Checkpoint interval ``I`` (seconds of execution between
            requests).
        overhead: Checkpoint overhead ``C`` (seconds).
        skipped_since_checkpoint: Consecutive skipped requests since the
            last completed checkpoint (or run start); the paper's ``d - 1``.
        remaining_work: Execution seconds left after this request point.
        deadline: The job's negotiated deadline, or None if none was set.
        predictor: The system's event predictor.
    """

    __slots__ = (
        "now", "job_id", "nodes", "interval", "overhead",
        "skipped_since_checkpoint", "remaining_work", "deadline", "predictor",
    )

    def __init__(
        self,
        now: float,
        job_id: int,
        nodes: Sequence[int],
        interval: float,
        overhead: float,
        skipped_since_checkpoint: int,
        remaining_work: float,
        deadline: Optional[float],
        predictor: Predictor,
    ) -> None:
        self.now = now
        self.job_id = job_id
        self.nodes = nodes
        self.interval = interval
        self.overhead = overhead
        self.skipped_since_checkpoint = skipped_since_checkpoint
        self.remaining_work = remaining_work
        self.deadline = deadline
        self.predictor = predictor

    @property
    def d(self) -> int:
        """The paper's ``d``: intervals of execution currently at risk."""
        return self.skipped_since_checkpoint + 1

    def failure_probability(self) -> float:
        """``p_f`` over the window ending when the *next* checkpoint would
        complete: perform now (C) + run one interval (I) + perform (C)."""
        horizon = self.overhead + min(self.interval, self.remaining_work) + self.overhead
        return self.predictor.failure_probability(
            self.nodes, self.now, self.now + horizon
        )

    def meets_deadline_if(self, perform: bool) -> Optional[bool]:
        """Whether the projected finish meets the deadline.

        The projection charges only *this* request's overhead — later
        requests re-decide with fresher information, so charging their
        overhead now would double-count the system's future flexibility.
        Returns None when the job has no deadline.
        """
        if self.deadline is None:
            return None
        projected = self.now + self.remaining_work + (self.overhead if perform else 0.0)
        return projected <= self.deadline


class CheckpointDecision:
    """A perform/skip decision plus the rationale that produced it.

    The rationale is what the span layer (:mod:`repro.obs.trace`) attaches
    to each checkpoint span/mark so audit trails can explain *why* work
    was or was not made durable — the attribution Xu et al. motivate for
    opportunistic checkpointing analyses.

    A value: two decisions are equal when all four fields are.  Slotted,
    with plain attribute sets, because one is made per checkpoint
    request; treat it as read-only.

    Attributes:
        perform: True to perform the requested checkpoint.
        reason: Short machine-stable tag, e.g. ``"risk-exceeds-overhead"``.
        failure_probability: The ``p_f`` the decision consulted, when the
            policy evaluated the predictor (None for oblivious policies).
        at_risk: Execution seconds that were at risk (``d * I``), when the
            policy weighed them.
    """

    __slots__ = ("perform", "reason", "failure_probability", "at_risk")

    def __init__(
        self,
        perform: bool,
        reason: str,
        failure_probability: Optional[float] = None,
        at_risk: Optional[float] = None,
    ) -> None:
        self.perform = perform
        self.reason = reason
        self.failure_probability = failure_probability
        self.at_risk = at_risk

    def _fields(self) -> Tuple[bool, str, Optional[float], Optional[float]]:
        return (self.perform, self.reason, self.failure_probability, self.at_risk)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CheckpointDecision):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (
            f"CheckpointDecision(perform={self.perform!r}, "
            f"reason={self.reason!r}, "
            f"failure_probability={self.failure_probability!r}, "
            f"at_risk={self.at_risk!r})"
        )


class CheckpointPolicy(abc.ABC):
    """Decides, per request, whether a checkpoint is performed."""

    name: str = "abstract"

    @abc.abstractmethod
    def decide(self, ctx: CheckpointDecisionContext) -> CheckpointDecision:
        """Full decision with rationale; the simulator's entry point."""

    def should_checkpoint(self, ctx: CheckpointDecisionContext) -> bool:
        """True to perform the requested checkpoint, False to skip it."""
        return self.decide(ctx).perform


class PeriodicPolicy(CheckpointPolicy):
    """Always perform: classical periodic checkpointing (no cooperation)."""

    name = "periodic"

    def decide(self, ctx: CheckpointDecisionContext) -> CheckpointDecision:
        return CheckpointDecision(perform=True, reason="periodic-always")


class NeverPolicy(CheckpointPolicy):
    """Never perform: the no-checkpointing lower bound for ablations."""

    name = "never"

    def decide(self, ctx: CheckpointDecisionContext) -> CheckpointDecision:
        return CheckpointDecision(perform=False, reason="never-policy")


class CooperativePolicy(CheckpointPolicy):
    """The paper's risk-based cooperative policy (Equation 1 + deadline rule).

    Args:
        deadline_aware: Enable the deadline-override rule.  The paper's
            system uses it; disable for the pure Equation 1 ablation.
    """

    name = "cooperative"

    def __init__(self, deadline_aware: bool = True) -> None:
        self.deadline_aware = deadline_aware

    def decide(self, ctx: CheckpointDecisionContext) -> CheckpointDecision:
        p_f = ctx.failure_probability()
        at_risk = ctx.d * ctx.interval
        if p_f * at_risk < ctx.overhead:
            return CheckpointDecision(
                perform=False,
                reason="risk-below-overhead",
                failure_probability=p_f,
                at_risk=at_risk,
            )
        if self.deadline_aware:
            meets_if_perform = ctx.meets_deadline_if(perform=True)
            meets_if_skip = ctx.meets_deadline_if(perform=False)
            if meets_if_perform is False and meets_if_skip is True:
                # Skipping might rescue the promise; take the risk.
                return CheckpointDecision(
                    perform=False,
                    reason="deadline-rescue",
                    failure_probability=p_f,
                    at_risk=at_risk,
                )
        return CheckpointDecision(
            perform=True,
            reason="risk-exceeds-overhead",
            failure_probability=p_f,
            at_risk=at_risk,
        )


class RiskFreePolicy(CheckpointPolicy):
    """Perform only when a failure is *predicted at all* (p_f > 0).

    A useful intermediate for ablations: cheaper than periodic, blinder
    than Equation 1 (ignores how much work is at risk).
    """

    name = "risk-free"

    def decide(self, ctx: CheckpointDecisionContext) -> CheckpointDecision:
        p_f = ctx.failure_probability()
        if p_f > 0.0:
            return CheckpointDecision(
                perform=True, reason="failure-predicted", failure_probability=p_f
            )
        return CheckpointDecision(
            perform=False, reason="no-failure-predicted", failure_probability=p_f
        )


def policy_by_name(name: str, deadline_aware: bool = True) -> CheckpointPolicy:
    """Factory for the bundled policies.

    Args:
        name: ``"cooperative"`` (paper), ``"periodic"``, ``"never"`` or
            ``"risk-free"``.
        deadline_aware: Passed through to :class:`CooperativePolicy`.
    """
    key = name.lower()
    if key == "cooperative":
        return CooperativePolicy(deadline_aware=deadline_aware)
    if key == "periodic":
        return PeriodicPolicy()
    if key == "never":
        return NeverPolicy()
    if key == "risk-free":
        return RiskFreePolicy()
    raise KeyError(
        f"unknown checkpoint policy {name!r}; available: "
        "cooperative, periodic, never, risk-free"
    )
