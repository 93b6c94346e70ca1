"""Wall-clock gate for the null profiler path.

Marked ``perf`` and living outside the tier-1 ``testpaths``: it bounds a
wall-clock difference, which another process sharing the host can break
on its own.  Run it explicitly on a quiet machine:

    PYTHONPATH=src python -m pytest benchmarks/perf -m perf -q

The structural zero-cost check (no zone is ever entered without a
profiler) stays in tier-1 as
``tests/obs/test_prof.py::TestEndToEndDeterminism::test_null_path_never_touches_a_zone``.
"""

from __future__ import annotations

import time

import pytest

from repro.core.system import simulate
from repro.experiments.config import ExperimentSetup
from repro.experiments.runner import ExperimentContext
from repro.obs.prof import NullProfiler


def _nasa_context(job_count: int = 40) -> ExperimentContext:
    setup = ExperimentSetup(workload="nasa", job_count=job_count, seed=11)
    return ExperimentContext.prepare(setup)


@pytest.mark.perf
class TestEndToEndDeterminism:
    def test_null_profiler_overhead_is_within_noise(self):
        """The default (null) path times the same as an explicitly passed
        NullProfiler — both must be the identical guarded fast path."""
        ctx = _nasa_context(job_count=40)
        config = ctx.config(0.5, 0.5)
        simulate(config, ctx.log, ctx.failures)  # warm caches

        def best_of(profiler, repeats=5):
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                simulate(config, ctx.log, ctx.failures, profiler=profiler)
                best = min(best, time.perf_counter() - t0)
            return best

        default = best_of(None)
        null = best_of(NullProfiler())
        # Identical code paths: minima agree within noise (2% + 2ms floor
        # so a sub-100ms workload cannot flake on scheduler jitter).
        assert abs(null - default) <= max(0.02 * max(null, default), 0.002), (
            f"null-profiler path diverged: default {default:.4f}s "
            f"vs null {null:.4f}s"
        )
