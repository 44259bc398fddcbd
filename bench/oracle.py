"""Output oracle for the benchmark.

Checks factgate's outputs against the generator's own N-Triples text and
planted-violation set, never against factgate's parser or `Graph` indexes:
entailment is a linear scan over the lines with its own tolerant numeric
equality. It asserts the gate's promise (an emitted answer has only
entailed, conforming claims; an abstention emits the abstention text),
that each audit's entailment flag and each graph report are exact, and, on
a graph with nothing planted, the verdict itself. Quality metrics such as
licensed accuracy are reported as measured, not checked here.
"""

from __future__ import annotations

import re
from decimal import Decimal

ABSTENTION_TEXT = "I don't know"
_REL_TOL = Decimal("1e-9")
_DECIMAL = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)")


def _object(token: str) -> tuple[str, str]:
    """Generator object token -> (kind, lexical); kind is iri, num or str."""
    if token.startswith("<"):
        return "iri", token[1:-1]
    lexical = token[1 : token.rindex('"')]
    return ("num" if _DECIMAL.fullmatch(lexical) else "str"), lexical


def _claim_object(term) -> tuple[str, str]:
    if hasattr(term, "lexical"):
        return ("num" if _DECIMAL.fullmatch(term.lexical) else "str"), term.lexical
    return "iri", term.value


def _same(kind: str, a: str, b: str) -> bool:
    if kind != "num" or a == b:
        return a == b
    x, y = Decimal(a), Decimal(b)
    return x == y or abs(x - y) <= _REL_TOL * max(abs(x), abs(y))


class Oracle:
    """`graph_nt` is the generator's graph text; it may be empty when no
    claim will be checked, which keeps the measuring process small."""

    def __init__(self, graph_nt: str, planted: list[tuple[str, str]]):
        self._lines = graph_nt.splitlines()
        self.planted = set(planted)

    def entailed(self, triple) -> bool:
        """Linear scan: does any generated triple entail the claim?"""
        prefix = f"<{triple.subject.value}> <{triple.predicate.value}> "
        kind, value = _claim_object(triple.object)
        for line in self._lines:
            if line.startswith(prefix):
                tk, tv = _object(line[len(prefix) : -2])
                if tk == kind and _same(kind, tv, value):
                    return True
        return False

    def check_decision(self, decision) -> list[str]:
        """Problems with one LicensingDecision; empty when it is correct."""
        problems = []
        answered = decision.verdict.value == "ANSWER"
        if answered and decision.response_text == ABSTENTION_TEXT:
            problems.append("ANSWER emitted the abstention text")
        if not answered and decision.response_text != ABSTENTION_TEXT:
            problems.append("ABSTAIN emitted a response")
        if answered and not decision.audits:
            problems.append("ANSWER with no audited claim")
        truths = []
        for audit in decision.audits:
            triple = audit.claim.triple
            truth = self.entailed(triple)
            truths.append(truth)
            if audit.entailed != truth:
                problems.append(f"claim {triple} entailed={audit.entailed}, linear scan says {truth}")
            if answered and (not truth or audit.violations):
                problems.append(f"ANSWER licensed unlicensable {triple}")
            # A claim the graph already holds adds nothing to it, so in a
            # graph with nothing planted it cannot break a constraint.
            if truth and audit.violations and not self.planted:
                problems.append(f"entailed {triple} reported {len(audit.violations)} violations")
        if not self.planted and answered != (bool(truths) and all(truths)):
            problems.append(f"verdict {decision.verdict.value}, scan says otherwise")
        return problems

    def check_report(self, report) -> list[str]:
        """Problems with a ValidationReport against the planted set."""
        found = {(v.constraint_id, v.focus.value) for v in report.violations}
        problems = [f"missing planted violation {p}" for p in sorted(self.planted - found)]
        problems += [f"unplanted violation {p}" for p in sorted(found - self.planted)]
        if report.conforms != (not self.planted):
            problems.append(f"conforms={report.conforms} with {len(self.planted)} planted")
        return problems
