"""The in-process oracle: every op's direct answer, computed at set-up.

A served answer is correct when its canonical form equals the canonical
form of the same op dispatched directly against an in-memory warehouse
(``repro.server.service.dispatch``, outside any timing). Canonical forms
keep everything a client can see, in order where the API promises an
order, so a served answer that drops, adds, reorders or renames anything
is a mismatch; so is one flagged ``degraded``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.server.service import dispatch
from repro.services.lineage import LineageTrace
from repro.services.search import SearchResults
from repro.sparql.results import SolutionSequence


def canonical(answer) -> Tuple:
    """A comparable, order-faithful form of one answer of any kind."""
    if isinstance(answer, SearchResults):
        return (
            "search",
            answer.degraded,
            tuple(answer.expanded_terms),
            tuple(answer.homonym_warnings),
            tuple(
                (h.instance, h.name, h.matched_term, h.direct_classes, h.all_classes)
                for h in answer.hits
            ),
            tuple(answer.groups()),
        )
    if isinstance(answer, LineageTrace):
        return (
            "lineage",
            answer.degraded,
            answer.start,
            answer.direction,
            tuple(answer.edges),
            tuple(sorted(answer.depth.items())),
        )
    if isinstance(answer, SolutionSequence):
        # SQL/SPARQL without ORDER BY promise a multiset, not an order
        return (
            "rows",
            tuple(answer.columns),
            tuple(sorted((tuple(sorted(row.asdict().items())) for row in answer), key=repr)),
        )
    if isinstance(answer, list):  # lookup: sorted matching terms
        return ("terms", tuple(answer))
    raise TypeError(f"no canonical form for {type(answer).__name__}")


def expected_answers(warehouse, ops: Iterable) -> Dict[Tuple, Tuple]:
    """Canonical direct answers of every distinct op, keyed by ``op.key``."""
    out: Dict[Tuple, Tuple] = {}
    for op in ops:
        if op.key not in out:
            out[op.key] = canonical(dispatch(warehouse, op.kind, op.payload))
    return out


class Checker:
    """Compares served answers with one or more accepted oracle states.

    Release-mix readers may see either release state, so an answer is
    correct when it matches the oracle of any state given.
    """

    def __init__(self, *states: Dict[Tuple, Tuple]):
        self._states: List[Dict[Tuple, Tuple]] = list(states)
        self.mismatches: List[Tuple] = []

    def check(self, op, answer) -> bool:
        form = canonical(answer)
        if any(state.get(op.key) == form for state in self._states):
            return True
        if len(self.mismatches) < 5:
            self.mismatches.append(op.key)
        return False
