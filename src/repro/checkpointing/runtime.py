"""Per-run execution state for a checkpointing job.

A running job alternates *compute segments* with (possibly skipped)
checkpoint requests; a performed checkpoint pauses progress for the
overhead ``C`` and makes all prior progress durable.  :class:`JobRun`
tracks one run — from a (re)start until a finish or a kill — and answers
the questions the simulator asks:

* when is the next event (checkpoint request or finish) and what progress
  will the job have reached by then;
* how much *unsaved* wall-clock time is destroyed if the partition fails
  now (the lost-work integrand ``t_x - c_{j_x}``);
* what execution remains after a kill (restart from last completed
  checkpoint).

All progress is measured in *execution seconds of the checkpoint-free
runtime* ``e_j``; overheads never count as progress, matching the paper's
"checkpointing overhead [is] unnecessary work" accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.registry import MetricsRegistry


@dataclass
class JobRun:
    """State machine for one run of one job.

    Attributes:
        job_id: The job being run.
        total_work: Full checkpoint-free runtime ``e_j``.
        interval: Checkpoint interval ``I``.
        overhead: Checkpoint overhead ``C``.
        saved_progress: Durable progress at run start (from earlier runs).
        start_time: Wall-clock time this run started.
        recovery_overhead: Restore time ``R`` consumed before computation
            resumes when the run starts from a checkpoint (the paper argues
            ``R = 0`` is acceptable because downtime is aggressively
            minimised; the parameter lets that claim be tested).  Charged
            only when ``saved_progress > 0`` — a fresh start reads no
            checkpoint.
        registry: Optional obs registry; when live, performed/skipped
            checkpoints, overhead seconds, kills, and lost wall seconds are
            totalled under ``checkpointing.runtime.*`` across all runs.
    """

    job_id: int
    total_work: float
    interval: float
    overhead: float
    saved_progress: float
    start_time: float
    recovery_overhead: float = 0.0
    registry: Optional[MetricsRegistry] = field(
        default=None, repr=False, compare=False
    )

    #: Progress (execution seconds) reached; includes unsaved work.
    progress: float = field(init=False)
    #: Wall time the current compute segment began (or checkpoint ended).
    segment_start: float = field(init=False)
    #: Consecutive skipped requests since the last completed checkpoint.
    skipped_since_checkpoint: int = field(init=False, default=0)
    #: Wall time the last *completed* checkpoint of this run started.
    last_checkpoint_start: Optional[float] = field(init=False, default=None)
    #: Wall time the in-flight checkpoint started, if any.
    checkpoint_begun_at: Optional[float] = field(init=False, default=None)
    #: Checkpoints performed / skipped in this run (statistics).
    checkpoints_performed: int = field(init=False, default=0)
    checkpoints_skipped: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.saved_progress < self.total_work:
            raise ValueError(
                f"job {self.job_id}: saved progress {self.saved_progress} out of "
                f"[0, {self.total_work})"
            )
        if self.interval <= 0 or self.overhead < 0:
            raise ValueError(
                f"job {self.job_id}: bad interval/overhead "
                f"{self.interval}/{self.overhead}"
            )
        if self.recovery_overhead < 0:
            raise ValueError(
                f"job {self.job_id}: recovery overhead must be >= 0, got "
                f"{self.recovery_overhead}"
            )
        self.progress = self.saved_progress
        # Restoring from a checkpoint costs R before compute resumes.
        restore = self.recovery_overhead if self.saved_progress > 0 else 0.0
        self.segment_start = self.start_time + restore
        # A run is made per start and restart: the counters are bound only
        # for a live registry, and every use is gated on _obs.
        registry = self.registry
        self._obs = False
        if registry is not None and registry.enabled:
            self._obs = True
            self._c_performed = registry.counter("checkpointing.runtime.performed")
            self._c_skipped = registry.counter("checkpointing.runtime.skipped")
            self._c_overhead = registry.counter(
                "checkpointing.runtime.overhead_seconds"
            )
            self._c_kills = registry.counter("checkpointing.runtime.kills")
            self._c_lost_wall = registry.counter(
                "checkpointing.runtime.lost_wall_seconds"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def in_checkpoint(self) -> bool:
        return self.checkpoint_begun_at is not None

    @property
    def remaining_work(self) -> float:
        """Execution seconds left from current progress to completion."""
        return self.total_work - self.progress

    def next_request_progress(self) -> float:
        """Progress at which the next checkpoint request fires.

        Requests fire at multiples of ``I`` execution seconds; a request at
        or beyond completion is never issued.
        """
        k = math.floor(self.progress / self.interval + 1e-9) + 1
        return k * self.interval

    def next_event_delay(self) -> tuple:
        """``(kind, delay)`` of the next run event from ``segment_start``.

        ``kind`` is ``"request"`` or ``"finish"``; ``delay`` is seconds of
        execution from the current progress point.
        """
        if self.in_checkpoint:
            raise RuntimeError(f"job {self.job_id}: next event during checkpoint")
        to_request = self.next_request_progress() - self.progress
        to_finish = self.remaining_work
        if to_finish <= to_request + 1e-9:
            return "finish", to_finish
        return "request", to_request

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def reach_request(self, now: float) -> None:
        """Advance progress to the request point firing at ``now``."""
        executed = max(0.0, now - self.segment_start)
        self.progress = min(self.total_work, self.progress + executed)
        self.segment_start = now

    def skip_checkpoint(self, now: float) -> None:
        """Record a skipped request; computation continues immediately."""
        self.skipped_since_checkpoint += 1
        self.checkpoints_skipped += 1
        self.segment_start = now
        if self._obs:
            self._c_skipped.inc()

    def begin_checkpoint(self, now: float) -> None:
        """Pause computation for the overhead starting at ``now``."""
        if self.in_checkpoint:
            raise RuntimeError(f"job {self.job_id}: checkpoint already in flight")
        self.checkpoint_begun_at = now

    def complete_checkpoint(self, now: float) -> None:
        """Make progress durable; the checkpoint that began earlier ends."""
        if not self.in_checkpoint:
            raise RuntimeError(f"job {self.job_id}: no checkpoint in flight")
        if self._obs:
            self._c_performed.inc()
            self._c_overhead.inc(max(0.0, now - self.checkpoint_begun_at))
        self.saved_progress = self.progress
        self.last_checkpoint_start = self.checkpoint_begun_at
        self.checkpoint_begun_at = None
        self.skipped_since_checkpoint = 0
        self.checkpoints_performed += 1
        self.segment_start = now

    def finish(self, now: float) -> None:
        """Advance to completion (the finish event fired at ``now``)."""
        executed = max(0.0, now - self.segment_start)
        self.progress = min(self.total_work, self.progress + executed)
        if self.remaining_work > 1e-6:
            raise RuntimeError(
                f"job {self.job_id}: finish with {self.remaining_work}s remaining"
            )
        self.progress = self.total_work

    # ------------------------------------------------------------------
    # Failure accounting
    # ------------------------------------------------------------------
    def rollback_point(self) -> float:
        """Wall time work would roll back to if the partition failed now.

        The start of the last completed checkpoint of this run, or the run's
        start time — the ``c_{j_x}`` of the lost-work metric.
        """
        if self.last_checkpoint_start is not None:
            return self.last_checkpoint_start
        return self.start_time

    def kill(self, now: float) -> tuple:
        """Abort the run at ``now`` (node failure).

        In-flight checkpoints are lost.  Progress not covered by a completed
        checkpoint is discarded.

        Returns:
            ``(lost_wall_seconds, durable_progress)`` where the lost wall
            seconds are ``now - rollback_point()`` (multiply by the job size
            for node-seconds) and ``durable_progress`` seeds the next run.
        """
        # Progress accounting up to the failure instant (compute segments
        # only; checkpoint pauses contribute no progress).
        if not self.in_checkpoint:
            executed = max(0.0, now - self.segment_start)
            self.progress = min(self.total_work, self.progress + executed)
        lost_wall = max(0.0, now - self.rollback_point())
        if self._obs:
            self._c_kills.inc()
            self._c_lost_wall.inc(lost_wall)
        return lost_wall, self.saved_progress


def padded_remaining(
    remaining_work: float, interval: float, overhead: float
) -> float:
    """Reservation length for ``remaining_work`` assuming every future
    checkpoint is performed (the scheduler's conservative estimate E_j).

    Mirrors :meth:`repro.workload.job.Job.padded_runtime` but for restarts
    from a checkpoint.
    """
    if remaining_work <= 0:
        raise ValueError(f"remaining_work must be > 0, got {remaining_work}")
    requests = max(0, int(math.ceil(remaining_work / interval)) - 1)
    return remaining_work + overhead * requests
