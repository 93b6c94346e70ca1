"""Best-``size`` node selection: the one ranking behind scored placement.

A scored placement takes the ``size`` free nodes that come first under the
key ``(score(node, start, end), node)`` — lowest score, ties toward lower
indexes.  :func:`best_nodes` is the single implementation; the flat
topology and the ledger's scored ``find_slot`` both call it.

Scoring every free node costs O(free · log free) scorer calls per
selection.  When the scorer can say which few nodes may score above zero
in a window (a :class:`WindowScorer`, e.g. the fault-aware scorer over a
trace-backed evaluator: only nodes with a detectable failure in the window
are *dirty*), the ranking works on the free set's bitmask instead (bit n =
node n; the ledger's free-node query already holds it):

* every unlisted (clean) node scores exactly ``0.0``, and listed nodes
  score ``>= 0.0``, so all zero-score nodes rank first, by index;
* the *risky* nodes are the dirty ones that score above zero and whose
  bit is free; a dirty node scoring exactly ``0.0`` stays clean;
* the first ``size`` zero-score free nodes are therefore the *clean
  prefix*: the lowest ``size`` set bits of ``free & ~risky``, read run by
  run;
* any shortfall is filled from the risky nodes in ``(score, node)`` order.

That is exactly ``sorted(free, key=(score, node))[:size]``, sorted, for
O(dirty · log dirty + runs of the prefix) work instead of O(free) scorer
calls, and no per-member walk of the free set.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.cluster.nodeset import mask_of, mask_runs

#: Scoring callback: (node, start, end) -> sort key; lower is preferred.
NodeScorer = Callable[[int, float, float], float]

#: ``(start, end) -> [(node, score), ...]``: every node whose score in the
#: window may be nonzero.  Unlisted nodes score exactly ``0.0``.
WindowTerms = Callable[[float, float], Sequence[Tuple[int, float]]]


class WindowScorer:
    """A :data:`NodeScorer` that also lists its possibly-nonzero nodes.

    Contract: ``score(n, start, end)`` is ``>= 0.0`` for every node, and
    equals ``0.0`` for every node absent from ``window_terms(start, end)``;
    listed nodes carry exactly the value ``score`` returns.  Callable like
    a plain scorer, so topologies that score whole blocks (ring, mesh) use
    it unchanged.

    Args:
        score: The per-node scorer.
        window_terms: The window's possibly-nonzero ``(node, score)`` pairs.
    """

    __slots__ = ("_score", "window_terms")

    def __init__(self, score: NodeScorer, window_terms: WindowTerms) -> None:
        self._score = score
        self.window_terms = window_terms

    def __call__(self, node: int, start: float, end: float) -> float:
        return self._score(node, start, end)


def best_nodes(
    free: Sequence[int],
    size: int,
    start: float,
    end: float,
    scorer: NodeScorer,
) -> Tuple[List[int], int]:
    """The ``size`` members of ``free`` ranked first by ``(score, node)``.

    Args:
        free: Candidate nodes (a :class:`NodeSet`, whose mask is read
            directly, or any sequence).
        size: Nodes wanted; all of ``free`` when it holds fewer.
        start: Window start, passed to the scorer.
        end: Window end, passed to the scorer.
        scorer: Per-node badness; a :class:`WindowScorer` takes the sparse
            merge path (module docstring), anything else is called once
            per free node.

    Returns:
        ``(chosen, scored)``: the chosen nodes as an ascending list, and
        how many nodes were ranked to find them (every free node on the
        full-sort path; dirty plus clean prefix on the sparse path).
    """
    if not isinstance(scorer, WindowScorer):
        ranked = sorted(free, key=lambda n: (scorer(n, start, end), n))
        return sorted(ranked[:size]), len(free)
    clean = mask_of(free)
    terms = scorer.window_terms(start, end)
    risky: List[Tuple[float, int]] = []
    if terms:  # most windows have no dirty node at all
        risky = sorted((p, n) for n, p in terms if p > 0.0 and clean >> n & 1)
    for _, n in risky:
        clean &= ~(1 << n)
    prefix: List[int] = []
    for lo, hi in mask_runs(clean, size):
        prefix.extend(range(lo, hi))
    scored = len(prefix) + len(risky)
    need = size - len(prefix)
    if need <= 0:
        return prefix, scored
    chosen = prefix + [n for _, n in risky[:need]]
    chosen.sort()
    return chosen, scored
