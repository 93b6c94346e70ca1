"""Streamed arrivals: the system pulls one job at a time from its workload.

The oracle is :class:`PrimedSystem`, the replay as it was before
streaming: every ARRIVAL is queued before the first dispatch.  A streamed
run must match it exactly — outcomes, metrics, event counts and the live
recorder's JSONL bytes — whether the workload is a :class:`JobLog` or a
generator, including bounded (``max_events``) stops and the
opportunistic-start extension, while its queue holds at most one pending
arrival.

The workload is built on a coarse time grid so that several jobs arrive
at the same instant and arrivals coincide with FINISH and FAILURE
instants (the test checks that they do).
"""

from __future__ import annotations

import io
import random

import pytest

from repro.analysis.tracelog import TraceRecorder
from repro.core.system import ProbabilisticQoSSystem, SystemConfig
from repro.failures.events import FailureEvent, FailureTrace
from repro.obs.registry import MetricsRegistry
from repro.sim.events import EventKind
from repro.workload.job import Job, JobLog

GRID = 1800.0
NODES = 16


class PrimedSystem(ProbabilisticQoSSystem):
    """Every arrival queued up front, as before streaming."""

    def _prime(self) -> None:
        for job in self.workload:
            self._admit(job)
            self.loop.schedule(job.arrival_time, EventKind.ARRIVAL, job_id=job.job_id)
        self._schedule_next_failure()

    def _pull_arrival(self) -> None:
        pass


def grid_log(seed: int = 5, jobs: int = 80) -> JobLog:
    rng = random.Random(seed)
    return JobLog(
        [
            Job(
                job_id=i + 1,
                arrival_time=rng.randrange(0, 60) * GRID,
                size=rng.choice([1, 2, 4, 8, NODES]),
                runtime=rng.randrange(1, 8) * GRID,
            )
            for i in range(jobs)
        ],
        name="grid",
    )


def grid_failures(seed: int = 5, count: int = 30) -> FailureTrace:
    rng = random.Random(seed + 1)
    return FailureTrace(
        [
            FailureEvent(
                event_id=k + 1, time=rng.randrange(1, 90) * GRID,
                node=rng.randrange(NODES),
            )
            for k in range(count)
        ]
    )


def config(**overrides) -> SystemConfig:
    defaults = dict(node_count=NODES, accuracy=0.5, user_threshold=0.9, seed=3)
    defaults.update(overrides)
    return SystemConfig(**defaults)


def replay(system_cls, workload, failures, cfg=None, max_events=None):
    """Run one system; returns (result, JSONL trace text)."""
    stream = io.StringIO()
    system = system_cls(
        cfg or config(), workload, failures, recorder=TraceRecorder(stream=stream)
    )
    return system.run(max_events=max_events), stream.getvalue()


def outcome_rows(result):
    return [
        (o.job.job_id, o.guarantee, o.first_start, o.last_start, o.finish,
         o.failures, o.lost_node_seconds, o.checkpoints_performed,
         o.checkpoints_skipped, o.evacuations)
        for o in result.outcomes
    ]


def assert_same_run(a, b):
    (result_a, trace_a), (result_b, trace_b) = a, b
    assert result_a.metrics == result_b.metrics
    assert outcome_rows(result_a) == outcome_rows(result_b)
    assert result_a.events_processed == result_b.events_processed
    assert trace_a == trace_b


class TestStreamedEqualsPrimed:
    def test_joblog_and_generator_match_the_primed_replay(self):
        log, failures = grid_log(), grid_failures()
        primed = replay(PrimedSystem, log, failures)
        streamed = replay(ProbabilisticQoSSystem, log, failures)
        generated = replay(ProbabilisticQoSSystem, (job for job in log), failures)
        assert_same_run(primed, streamed)
        assert_same_run(primed, generated)

        # The scenario really has the coincidences it is meant to cover.
        recorder = TraceRecorder()
        PrimedSystem(config(), log, failures, recorder=recorder).run()
        arrivals = [job.arrival_time for job in log]
        assert len(set(arrivals)) < len(arrivals)  # equal arrival times
        finishes = {r.time for r in recorder.of_kind("finish")}
        failed = {r.time for r in recorder.of_kind("failure")}
        assert finishes & set(arrivals)
        assert failed & set(arrivals)
        assert recorder.of_kind("killed")

    def test_opportunistic_start_is_unchanged(self):
        log, failures = grid_log(seed=9), grid_failures(seed=9)
        cfg = config(opportunistic_start=True)
        primed = replay(PrimedSystem, log, failures, cfg)
        assert_same_run(primed, replay(ProbabilisticQoSSystem, log, failures, cfg))
        assert_same_run(
            primed, replay(ProbabilisticQoSSystem, iter(list(log)), failures, cfg)
        )

    @pytest.mark.parametrize("max_events", [1, 7, 60, 250])
    def test_bounded_stop_reports_the_whole_workload(self, max_events):
        log, failures = grid_log(), grid_failures()
        primed = replay(PrimedSystem, log, failures, max_events=max_events)
        streamed = replay(ProbabilisticQoSSystem, log, failures, max_events=max_events)
        assert_same_run(primed, streamed)
        result = streamed[0]
        assert result.metrics.job_count == len(log)
        assert result.metrics.completed_jobs < len(log)
        assert [o.job for o in result.outcomes] == sorted(log, key=lambda j: j.job_id)


    def test_failure_and_sample_chains_survive_an_idle_gap(self):
        # The cluster idles between job 1's finish and job 2's arrival; a
        # failure and samples fall in the gap, and a later failure kills
        # job 2.  Work remains throughout: job 2 is pending.
        jobs = [
            Job(job_id=1, arrival_time=0.0, size=4, runtime=GRID),
            Job(job_id=2, arrival_time=6 * GRID, size=NODES, runtime=4 * GRID),
        ]
        failures = FailureTrace(
            [FailureEvent(1, 3 * GRID, 0), FailureEvent(2, 8 * GRID, 5)]
        )
        runs = []
        for system_cls, workload in ((PrimedSystem, JobLog(jobs)),
                                     (ProbabilisticQoSSystem, iter(jobs))):
            registry = MetricsRegistry()
            system = system_cls(
                config(accuracy=0.0), workload, failures, registry=registry,
                sample_interval=GRID,
            )
            result = system.run()
            rows = [row["time"] for row in system.sampler.rows]
            runs.append((result.metrics, outcome_rows(result), rows))
        assert runs[0] == runs[1]
        metrics, _, rows = runs[1]
        assert metrics.failures_hitting_jobs == 1
        assert 4 * GRID in rows  # sampled while idle


class TestLiveQueue:
    def test_at_most_one_arrival_is_pending(self):
        log, failures = grid_log(), grid_failures()
        registry = MetricsRegistry()
        system = ProbabilisticQoSSystem(config(), log, failures, registry=registry)
        loop = system.loop
        step = loop.step
        peak = 0

        def checked_step():
            nonlocal peak
            event = step()
            loop.observe_gauges()
            gauges = registry.snapshot()["gauges"]
            arrivals = gauges.get("sim.engine.pending.arrival", 0)
            live = gauges["sim.engine.pending_total"] - arrivals
            assert arrivals <= 1
            assert loop.pending_events <= live + 1
            peak = max(peak, loop.pending_events)
            return event

        loop.step = checked_step
        result = system.run()
        assert result.metrics.completed_jobs == len(log)
        # A primed queue starts with every arrival in it.
        assert peak < len(log)


class TestWorkloadValidation:
    def test_out_of_order_job_raises_naming_it(self):
        jobs = [
            Job(job_id=1, arrival_time=0.0, size=1, runtime=GRID),
            Job(job_id=2, arrival_time=2 * GRID, size=1, runtime=GRID),
            Job(job_id=3, arrival_time=GRID, size=1, runtime=GRID),
        ]
        system = ProbabilisticQoSSystem(config(), iter(jobs), FailureTrace([]))
        with pytest.raises(ValueError, match=r"^job 3 arrives at 1800\.0, before") as err:
            system.run()
        assert "\n" not in str(err.value)

    def test_oversize_job_raises_when_pulled(self):
        jobs = [
            Job(job_id=1, arrival_time=0.0, size=1, runtime=GRID),
            Job(job_id=2, arrival_time=GRID, size=NODES + 1, runtime=GRID),
        ]
        with pytest.raises(ValueError, match="job 2 needs 17 nodes .* clip the log first"):
            ProbabilisticQoSSystem(config(), iter(jobs), FailureTrace([])).run()

    def test_meta_counts_the_jobs_pulled(self):
        from repro.obs.trace import SpanBuilder

        log = grid_log(jobs=20)
        spans = SpanBuilder()
        result = ProbabilisticQoSSystem(
            config(), (job for job in log), grid_failures(), spans=spans
        ).run()
        assert result.spans is not None
        assert result.spans.meta["workload_jobs"] == 20
