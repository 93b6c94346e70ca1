#!/usr/bin/env python3
"""Full-system benchmark of the probabilistic-QoS simulator.

Replays a workload through the public API (workload + failure-trace
generators -> ``ProbabilisticQoSSystem`` -> ``run()``) in this single
process and thread, round after round for ``--seconds``, checks every
round's outputs, and prints every metric with its unit.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` puts the end-to-end metrics there (tracing off; only
``Negotiator.negotiate`` is timed).  ``--trace 1`` then replays one more
round with every layer boundary wrapped (see ``tracing.py``) and puts the
per-layer metrics there instead; the spans and a JSON report go to
``qosbench/out/``.

Usage, from the repository root::

    python3 qosbench/run.py --workload paper-nasa --seed 1 --seconds 50 --trace 0
    python3 qosbench/run.py --workload all --seed 1 --seconds 50 --trace 1

``all`` runs each workload in a fresh process of its own, because peak
RSS is a high-water mark of the whole process.  The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

Metrics = Dict[str, Tuple[float, str]]


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="paper-nasa, wide-4k, failure-sdsc or all")
    parser.add_argument("--seed", type=int, required=True,
                        help="non-negative; draws the failure traces")
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat untraced rounds about this long (at least 6 rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def percentile(samples: Sequence[int], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def show(title: str, metrics: Metrics) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")


def as_json(metrics: Metrics) -> Dict[str, Dict[str, object]]:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def emit(correct: bool, attempted: int, failed: int, metrics: Metrics) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": as_json(metrics)}))


def end_to_end(rounds: list) -> Metrics:
    """Host metrics of the untraced rounds, each over the whole run.

    Throughput is all jobs completed over all ``run()`` seconds, and the
    offer p50 is taken over every sample of the run: the host's speed
    wanders by tens of percent within seconds, and whole-run figures
    average over it.  The offer p99 is taken per failure trace (over all
    its replays), then the median over traces: how often a dialogue must
    jump past predicted failures is a property of the trace, and on
    ``wide-4k`` about one trace in four has enough such dialogues to move
    its p99 by 3x.  Set-up is the median over rounds.  Peak RSS is read
    first, before sorting the samples can raise it.
    """
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    by_trace: Dict[int, List[int]] = {}
    for r in rounds:
        by_trace.setdefault(r.seed, []).extend(r.offer_ns)
    return {
        "jobs_per_s": (sum(r.completed for r in rounds)
                       / sum(r.run_s for r in rounds), "jobs/s"),
        "offer_p50_us": (percentile(
            [ns for r in rounds for ns in r.offer_ns], 0.50) / 1e3, "us"),
        "offer_p99_us": (statistics.median(
            percentile(s, 0.99) / 1e3 for s in by_trace.values()), "us"),
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run_one(args: argparse.Namespace) -> int:
    from tracing import OfferTimer, Tracer
    from workloads import WORKLOADS, CheckFailed, failure_seed, run_round, run_rounds

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    print(f"{workload.name}: {workload.jobs} jobs on {workload.nodes} nodes, "
          f"seed {args.seed}")
    rounds: list = []
    try:
        with OfferTimer() as timer:
            run_rounds(rounds, args.seed, args.seconds,
                       lambda seed: run_round(workload, seed, timer.samples_ns))
        host = end_to_end(rounds)  # before tracing can raise the peak RSS
        if args.trace:
            with Tracer() as tracer:
                traced = run_round(workload, failure_seed(args.seed, 0))
            if traced.checksum != rounds[0].checksum:
                raise CheckFailed("traced trajectory differs from untraced")
    except Exception:  # any failure of the simulator fails the whole run
        traceback.print_exc()
        attempted = workload.jobs * (len(rounds) + 1)
        emit(False, attempted, attempted, {})
        return 1

    attempted = sum(r.jobs for r in rounds)
    failed = attempted - sum(r.completed for r in rounds)
    print(f"{len(rounds)} rounds of {workload.jobs} jobs; per round: failure "
          "seed, jobs/s, offer p50 and p99 (us), then the paper's metrics "
          "(fractions; identical in every replay of a trace) and the "
          "trajectory checksum:")
    for r in rounds:
        sim = r.simulated
        print(f"  {r.seed:>6} {r.completed / r.run_s:>9.1f} "
              f"{percentile(r.offer_ns, 0.5) / 1e3:>8.1f} "
              f"{percentile(r.offer_ns, 0.99) / 1e3:>8.1f}  "
              + " ".join(f"{k}={v:.6g}" for k, v in sim.items())
              + f"  {r.checksum[:16]}")
    show("end-to-end:", host)
    if not args.trace:
        emit(True, attempted, failed, host)
        return 0

    report = tracer.report()
    per_layer = dict(report.metrics)
    per_layer["workload.gen_s"] = (traced.gen_s, "s")
    per_layer["failures.gen_s"] = (traced.failures_s, "s")
    per_layer["core.system.build_s"] = (traced.build_s, "s")
    per_layer["trace_overhead_frac"] = (
        traced.run_s / statistics.median(r.run_s for r in rounds) - 1.0,
        "fraction")
    for entry in report.missing:
        print(f"MISSING boundary, layer not reported: {entry}", file=sys.stderr)
    stem = OUT / f"{workload.name}-seed{args.seed}"
    tracer.write(stem.with_suffix(".spans.npz"))
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "spans": report.span_count,
        "missing": report.missing,
        "end_to_end": as_json(host),
        "simulated": {r.seed: r.simulated for r in rounds},
        "per_layer": as_json(per_layer),
    }, indent=1) + "\n")
    show(f"per-layer (one traced round, {report.span_count} spans; written "
         f"to {stem.relative_to(HERE.parent)}.*):", per_layer)
    emit(True, attempted + traced.jobs, failed, per_layer)
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a process of its own; one combined result line."""
    from workloads import WORKLOADS

    status, attempted, failed, metrics = 0, 0, 0, {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.strip().splitlines() or ["{}"]
        print("\n".join(lines[:-1]))
        status = status or child.returncode
        result = json.loads(lines[-1])
        attempted += result.get("attempted", 0)
        failed += result.get("failed", 0)
        for key, value in result.get("metrics", {}).items():
            metrics[f"{name}.{key}"] = value
    print(json.dumps({"correct": status == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"qosbench: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
