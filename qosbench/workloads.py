"""The benchmark's workloads and the measured replay of one round.

Each workload is an offline trace replay through the public API:
``log_by_name``/``stream_jobs`` + ``generate_failure_trace`` ->
``ProbabilisticQoSSystem(...)`` -> ``.run()``.  Jobs arrive in simulated
time and the host runs flat out.  A *round* generates the inputs, builds
the system and replays it once.

The job log of a workload is fixed (drawn from the repository's default
seed, standing in for the archive log the paper replays), so every seed
measures throughput at the same stated input size.  The benchmark seed
draws :data:`INPUTS_PER_SEED` failure traces, each with its own predictor
detectability (the random parts of the paper's experiment); a run cycles
through them, so no one trace decides the latency tail.
"""

from __future__ import annotations

import gc
import hashlib
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.system import ProbabilisticQoSSystem, SystemConfig
from repro.experiments.runner import estimate_horizon
from repro.failures.generator import FailureModelSpec, generate_failure_trace
from repro.sim.rng import DEFAULT_SEED
from repro.workload.job import JobLog
from repro.workload.synthetic import BigClusterSpec, log_by_name, stream_jobs

#: Paper failure rate (Section 4.3: ~2.8 failures/day on 128 nodes).
PAPER_FAILURES_PER_DAY = 2.8
#: Predictor accuracy ``a`` of every workload.
ACCURACY = 0.5
#: Failure traces per benchmark seed.
INPUTS_PER_SEED = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark input family.

    Attributes:
        name: Workload name as given to ``--workload``.
        source: ``"nasa"``/``"sdsc"`` (``log_by_name``) or ``"big"``
            (``stream_jobs(BigClusterSpec(nodes=nodes))``).
        nodes: Cluster width.
        jobs: Jobs in the log.
        failures_per_day: Cluster-wide failure rate of the trace.
        user_threshold: Risk threshold ``U``.
    """

    name: str
    source: str
    nodes: int
    jobs: int
    failures_per_day: float
    user_threshold: float

    def make_log(self) -> JobLog:
        if self.source == "big":
            stream = stream_jobs(
                BigClusterSpec(nodes=self.nodes), seed=DEFAULT_SEED,
                job_count=self.jobs,
            )
            return JobLog(stream, name=f"big-{self.nodes}")
        log = log_by_name(self.source, seed=DEFAULT_SEED, job_count=self.jobs)
        return log.scaled_sizes(self.nodes)

    def make_failures(self, log: JobLog, seed: int):
        spec = FailureModelSpec(nodes=self.nodes, rate_per_day=self.failures_per_day)
        return generate_failure_trace(
            estimate_horizon(log, self.nodes), spec=spec, seed=seed
        )

    def config(self, seed: int) -> SystemConfig:
        return SystemConfig(
            node_count=self.nodes,
            accuracy=ACCURACY,
            user_threshold=self.user_threshold,
            seed=seed,
        )


#: Why each workload was chosen: see README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Paper scale: engine, ledger and negotiation dominate.
        Workload(
            name="paper-nasa", source="nasa", nodes=128, jobs=10_000,
            failures_per_day=PAPER_FAILURES_PER_DAY, user_threshold=0.5,
        ),
        # Fault-aware placement scores every free node and dominates.
        Workload(
            name="wide-4k", source="big", nodes=4096, jobs=2_000,
            failures_per_day=PAPER_FAILURES_PER_DAY * 4096 / 128,
            user_threshold=0.5,
        ),
        # Kills become ledger writes and restarts; many checkpoint decisions.
        Workload(
            name="failure-sdsc", source="sdsc", nodes=128, jobs=5_000,
            failures_per_day=5 * PAPER_FAILURES_PER_DAY, user_threshold=0.9,
        ),
    )
}


class CheckFailed(Exception):
    """An output of the simulator failed a correctness check."""


@dataclass
class RoundResult:
    """One replay: host timings, the paper's metrics, the checksum."""

    seed: int
    jobs: int
    completed: int
    gen_s: float
    failures_s: float
    build_s: float
    run_s: float
    checksum: str
    simulated: Dict[str, float]
    offer_ns: "array[int]" = field(default_factory=lambda: array("q"))

    @property
    def setup_s(self) -> float:
        return self.gen_s + self.failures_s + self.build_s


def trajectory_checksum(outcomes) -> str:
    """SHA-256 over every job's (id, deadline, promised p, first start,
    finish, failures, checkpoints performed and skipped), floats exact."""
    digest = hashlib.sha256()
    for o in sorted(outcomes, key=lambda o: o.job.job_id):
        g = o.guarantee
        fields = (
            o.job.job_id,
            g.deadline.hex() if g is not None else None,
            g.probability.hex() if g is not None else None,
            o.first_start.hex() if o.first_start is not None else None,
            o.finish.hex() if o.finish is not None else None,
            o.failures,
            o.checkpoints_performed,
            o.checkpoints_skipped,
        )
        digest.update(repr(fields).encode())
    return digest.hexdigest()


def check_result(workload: Workload, log: JobLog, result) -> None:
    """Raise :class:`CheckFailed` unless the run's outputs are sane."""
    m = result.metrics
    problems = []
    if m.job_count != len(log) or m.completed_jobs != len(log):
        problems.append(f"{m.completed_jobs}/{len(log)} jobs completed")
    capacity = m.span * workload.nodes
    lost_frac = m.lost_work / capacity if capacity > 0 else -1.0
    for label, value, low in (("qos", m.qos, 0.0),
                              ("utilization", m.utilization, 1e-12),
                              ("lost_work_frac", lost_frac, 0.0)):
        if not low <= value <= 1.0:
            problems.append(f"{label}={value!r} out of range")
    for o in result.outcomes:
        g = o.guarantee
        if g is None or not 0.0 <= g.probability <= 1.0:
            problems.append(f"job {o.job.job_id}: bad promise {g!r}")
            break
        if o.first_start is None or o.first_start < o.job.arrival_time:
            problems.append(f"job {o.job.job_id}: started before arrival")
            break
    if problems:
        raise CheckFailed(f"{workload.name}: " + "; ".join(problems))


def run_round(
    workload: Workload, seed: int, offer_ns: "Optional[array[int]]" = None
) -> RoundResult:
    """Generate the inputs, build the system, replay it once and check it.

    ``offer_ns`` is the live array an :class:`~tracing.OfferTimer` appends
    to, if one is installed; the round keeps the samples it added.
    """
    first_sample = len(offer_ns) if offer_ns is not None else 0
    gc.collect()
    clock = time.perf_counter
    t0 = clock()
    log = workload.make_log()
    t1 = clock()
    failures = workload.make_failures(log, seed)
    t2 = clock()
    system = ProbabilisticQoSSystem(workload.config(seed), log, failures)
    t3 = clock()
    result = system.run()
    t4 = clock()
    check_result(workload, log, result)
    m = result.metrics
    capacity = m.span * workload.nodes
    return RoundResult(
        seed=seed,
        jobs=len(log),
        completed=m.completed_jobs,
        gen_s=t1 - t0,
        failures_s=t2 - t1,
        build_s=t3 - t2,
        run_s=t4 - t3,
        checksum=trajectory_checksum(result.outcomes),
        simulated={
            "qos": m.qos,
            "utilization": m.utilization,
            "lost_work_frac": m.lost_work / capacity,
            "jobs_failed_frac": (len(log) - m.completed_jobs) / len(log),
        },
        offer_ns=offer_ns[first_sample:] if offer_ns is not None else array("q"),
    )


def failure_seed(seed: int, k: int) -> int:
    """Seed of the ``k``-th failure trace of benchmark seed ``seed``;
    distinct benchmark seeds never share a trace."""
    return seed * INPUTS_PER_SEED + k


def run_rounds(
    rounds: List[RoundResult],
    seed: int,
    seconds: float,
    round_fn: Callable[[int], RoundResult],
) -> None:
    """Append rounds ``round_fn(failure_seed)`` to ``rounds``, cycling
    through the inputs of ``seed``, while one more round would still end
    within ``seconds``.  At least every input plus one replay of the
    first; a replay must reproduce its input's trajectory exactly."""
    start = time.perf_counter()
    while True:
        k = len(rounds) % INPUTS_PER_SEED
        rounds.append(round_fn(failure_seed(seed, k)))
        if len(rounds) > INPUTS_PER_SEED and rounds[-1].checksum != rounds[k].checksum:
            raise CheckFailed(
                f"round {len(rounds)} replays failure seed {rounds[k].seed} "
                "with a different trajectory"
            )
        elapsed = time.perf_counter() - start
        if len(rounds) > INPUTS_PER_SEED and elapsed / len(rounds) * (
            len(rounds) + 1
        ) > seconds:
            return
