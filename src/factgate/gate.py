"""The licensing gate.

A generated response may only be emitted if every factual claim extracted
from it is entailed by the knowledge graph, and an entailed claim adds no
constraint violation. Anything else becomes a deterministic abstention, and
every decision carries the full audit trail of what supported or blocked it.
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
    """Audit of one claim: its support in the graph, then, only for a claim
    the graph does not entail, the violations asserting it would add. The
    claim is looked up once; an entailed claim adds nothing, by the rule
    `validate_claim` keeps, so it is not re-checked."""
    supporting = graph.find_supporting(claim.triple)
    entailed = supporting is not None
    violations = () if entailed else validate_claim(claim.triple, graph, constraints)
    return AuditRecord(
        claim=claim,
        entailed=entailed,
        violations=tuple(violations),
        supporting_triple=supporting,
    )


def decide(
    audits: Sequence[AuditRecord],
) -> tuple[Verdict, AbstainReason | None]:
    """Licensing decision over a set of audits: answer iff every claim is
    entailed. No audit abstains: a response with no claim is never emitted.
    """
    if not audits:
        return Verdict.ABSTAIN, AbstainReason.NO_CLAIMS_POLICY
    if any(not a.entailed for a in audits):
        return Verdict.ABSTAIN, AbstainReason.NO_EVIDENCE
    return Verdict.ANSWER, None


def build_context(
    question: str, graph: Graph, lexicon: Lexicon, max_hops: int
) -> str:
    """The generator's context for a question: the N-Triples of the subgraph
    within `max_hops` of the entities the question names. No reached hub
    (see kg.Graph) is expanded, so it stays bounded as the graph grows."""
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
    verdict, reason = decide(audits)
    return LicensingDecision(
        verdict=verdict,
        response_text=response if verdict is Verdict.ANSWER else ABSTENTION_TEXT,
        audits=audits,
        abstain_reason=reason,
    )


def decision_to_json(question: str, decision: LicensingDecision) -> str:
    """One-line JSON provenance report for one question."""
    return json.dumps({
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
    }, sort_keys=True)
