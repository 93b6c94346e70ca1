"""Partition-selection scorers (fault-aware and baselines).

The paper's scheduler "uses event prediction to break ties among otherwise
equivalent partitions": at the chosen start time it selects, among the free
nodes, the partition with the lowest probability of failure.  In the flat
topology that reduces to ranking individual free nodes by their predicted
failure probability over the job's window and taking the best ``n_j``.

Scorers are plain callables ``(node, start, end) -> float`` (lower is
better) plugged into :meth:`ReservationLedger.find_slot` and
:meth:`Topology.select_partition`; this keeps the policy choice orthogonal
to the mechanics.  The fault-aware scorer over an exact (trace-backed)
evaluator is a :class:`~repro.cluster.ranking.WindowScorer`: it also lists
the window's dirty nodes, so the ranking skips scoring the clean ones.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cluster.ranking import NodeScorer, WindowScorer
from repro.core.fastpath import AnalyticalEvaluator
from repro.prediction.base import Predictor
from repro.sim.rng import make_rng, stable_uniform


def fault_aware_scorer(predictor: Predictor) -> NodeScorer:
    """Rank nodes by predicted failure probability over the window.

    With the trace predictor this steers jobs away from nodes carrying a
    *detectable* upcoming failure; undetectable failures (``p_x > a``) are
    invisible, which is exactly how prediction accuracy couples into
    placement quality.  Over an exact evaluator the scorer also carries
    the window's dirty terms (see :mod:`repro.cluster.ranking`).
    """

    def score(node: int, start: float, end: float) -> float:
        return predictor.node_failure_probability(node, start, end)

    if isinstance(predictor, AnalyticalEvaluator):
        window_terms = predictor.window_terms
        if window_terms is not None:
            return WindowScorer(score, window_terms)
    return score


def index_scorer() -> NodeScorer:
    """First-fit: prefer low node indexes (deterministic, uninformed)."""

    def score(node: int, start: float, end: float) -> float:
        return float(node)

    return score


def random_scorer(seed: Optional[int] = None) -> NodeScorer:
    """Uninformed random placement, deterministic per (node, window).

    Keyed on the query so repeated calls during one negotiation are
    consistent, but different windows shuffle differently — a fair
    "no information" baseline for the placement ablation.
    """

    def score(node: int, start: float, end: float) -> float:
        return stable_uniform(f"placement:{node}:{start:.3f}:{end:.3f}", seed)

    return score


def scorer_by_name(
    name: str, predictor: Predictor, seed: Optional[int] = None
) -> NodeScorer:
    """Factory: ``"fault-aware"`` (paper), ``"first-fit"``, ``"random"``."""
    key = name.lower()
    if key == "fault-aware":
        return fault_aware_scorer(predictor)
    if key == "first-fit":
        return index_scorer()
    if key == "random":
        return random_scorer(seed)
    raise KeyError(
        f"unknown placement scorer {name!r}; available: "
        "fault-aware, first-fit, random"
    )
