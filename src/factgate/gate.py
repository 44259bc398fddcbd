"""The licensing gate.

A generated response may only be emitted if every factual claim extracted
from it is entailed by the knowledge graph and violates no constraint.
Anything else becomes a deterministic abstention, and every decision
carries the full audit trail of what supported or blocked it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .constraints import ConstraintSet, Violation, validate_claim
from .extraction import (
    Claim,
    Lexicon,
    PredicateRule,
    extract_claims,
    link_question_entities,
)
from .generators import GeneratorFn
from .kg import Graph, Triple, retrieve_subgraph, serialize_ntriples, triple_to_ntriples

ABSTENTION_TEXT = "I don't know"


class Verdict(str, Enum):
    ANSWER = "ANSWER"
    ABSTAIN = "ABSTAIN"


class AbstainReason(str, Enum):
    NO_EVIDENCE = "NO_EVIDENCE"
    CONSTRAINT_VIOLATION = "CONSTRAINT_VIOLATION"
    NO_CLAIMS_POLICY = "NO_CLAIMS_POLICY"


@dataclass(frozen=True)
class AuditRecord:
    claim: Claim
    entailed: bool
    violations: tuple[Violation, ...]
    supporting_triple: Triple | None

    @property
    def licensed(self) -> bool:
        return self.entailed and not self.violations


@dataclass(frozen=True)
class LicensingDecision:
    verdict: Verdict
    response_text: str
    audits: tuple[AuditRecord, ...]
    abstain_reason: AbstainReason | None


def audit_claim(
    graph: Graph, constraints: ConstraintSet, claim: Claim
) -> AuditRecord:
    """Two-step audit of one claim: entailment, then constraint validation."""
    supporting = graph.find_supporting(claim.triple)
    violations = validate_claim(claim.triple, graph, constraints)
    return AuditRecord(
        claim=claim,
        entailed=supporting is not None,
        violations=tuple(violations),
        supporting_triple=supporting,
    )


def decide(
    audits: Sequence[AuditRecord], abstain_on_no_claims: bool = True
) -> tuple[Verdict, AbstainReason | None]:
    """Licensing decision over a set of audits.

    Missing evidence outranks constraint violations. An empty audit list
    abstains under the default strict policy; with the policy disabled,
    unverifiable text passes through unchecked.
    """
    if not audits:
        if abstain_on_no_claims:
            return Verdict.ABSTAIN, AbstainReason.NO_CLAIMS_POLICY
        return Verdict.ANSWER, None
    if any(not a.entailed for a in audits):
        return Verdict.ABSTAIN, AbstainReason.NO_EVIDENCE
    if any(a.violations for a in audits):
        return Verdict.ABSTAIN, AbstainReason.CONSTRAINT_VIOLATION
    return Verdict.ANSWER, None


def build_context(
    question: str, graph: Graph, lexicon: Lexicon, max_hops: int
) -> str:
    """The generator's context for a question: the N-Triples of the subgraph
    within `max_hops` of the entities the question names."""
    seeds = link_question_entities(question, lexicon)
    return serialize_ntriples(retrieve_subgraph(graph, seeds, max_hops))


def run_pipeline(
    question: str,
    graph: Graph,
    constraints: ConstraintSet,
    generator: GeneratorFn,
    lexicon: Lexicon,
    rules: Sequence[PredicateRule],
    max_hops: int = 3,
    abstain_on_no_claims: bool = True,
) -> LicensingDecision:
    """Full gate run for one question.

    Retrieval only shapes the generator's context; auditing always runs
    against the full graph, so a truncated subgraph can never cause a
    spurious missing-evidence abstention. Generator exceptions propagate:
    a failed run is not an abstention.
    """
    response = generator(question, build_context(question, graph, lexicon, max_hops))
    claims = extract_claims(response, lexicon, rules)
    audits = tuple(audit_claim(graph, constraints, c) for c in claims)
    verdict, reason = decide(audits, abstain_on_no_claims)
    return LicensingDecision(
        verdict=verdict,
        response_text=response if verdict is Verdict.ANSWER else ABSTENTION_TEXT,
        audits=audits,
        abstain_reason=reason,
    )


def decision_to_dict(question: str, decision: LicensingDecision) -> dict:
    """Provenance record for one question, ready for JSON emission."""
    return {
        "question": question,
        "verdict": decision.verdict.value,
        "abstain_reason": (
            decision.abstain_reason.value if decision.abstain_reason else None
        ),
        "response_text": decision.response_text,
        "claims": [
            {
                "triple": triple_to_ntriples(audit.claim.triple),
                "rule_id": audit.claim.rule_id,
                "source_span": list(audit.claim.source_span),
                "entailed": audit.entailed,
                "supporting_triple": (
                    triple_to_ntriples(audit.supporting_triple)
                    if audit.supporting_triple
                    else None
                ),
                "violations": [v.constraint_id for v in audit.violations],
            }
            for audit in decision.audits
        ],
    }


def decision_to_json(question: str, decision: LicensingDecision) -> str:
    """One-line JSON provenance report."""
    return json.dumps(decision_to_dict(question, decision), sort_keys=True)
