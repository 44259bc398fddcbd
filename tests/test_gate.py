from __future__ import annotations

import hashlib
import importlib
import json

import pytest

from factgate.constraints import parse_manifest, validate_claim
from factgate.evaluation import load_dataset, mock_factory
from factgate.extraction import Claim, build_lexicon, parse_rules
from factgate.gate import (
    ABSTENTION_TEXT,
    AbstainReason,
    AuditRecord,
    Verdict,
    audit_claim,
    build_context,
    decide,
    decision_to_json,
    run_pipeline,
)
from factgate.generators import (
    GeneratorError,
    MockBehavior,
    MockMode,
    mock_generator,
)
from factgate.kg import (
    RDF_TYPE_IRI,
    Datatype,
    Graph,
    Iri,
    Literal,
    Triple,
    parse_ntriples,
)

from conftest import FIXTURES, REPO_ROOT

TYPE = f"<{RDF_TYPE_IRI}>"

GRAPH_TEXT = "\n".join(
    [
        f"<River_Colorado> {TYPE} <River> .",
        '<River_Colorado> <label> "Colorado River" .',
        '<River_Colorado> <length> "2334000.0" .',
        '<River_Colorado> <sourceElevation> "2743.0" .',
        '<River_Colorado> <mouthElevation> "80.0" .',
        "<River_Colorado> <traverses> <State_Colorado> .",
        "<River_Colorado> <inCountry> <United_States> .",
        f"<State_Colorado> {TYPE} <State> .",
        '<State_Colorado> <label> "Colorado" .',
    ]
)

MANIFEST = """\
C2 min_exclusive class=<River> property=<sourceElevation> bound=0
C6 less_than_property class=<River> lesser=<mouthElevation> greater=<sourceElevation>
C7 conditional_requirement predicate=<traverses> object_class=<State> required_predicate=<inCountry> required_object=<United_States>
"""

RULES_TEXT = """\
R_length "SUBJ is OBJ km long" predicate=<length> kind=numeric scale=1000
R_source "SUBJ rises at OBJ meters" predicate=<sourceElevation> kind=numeric scale=1
"""


@pytest.fixture
def setting():
    graph = parse_ntriples(GRAPH_TEXT)
    constraints = parse_manifest(MANIFEST)
    rules = parse_rules(RULES_TEXT)
    lexicon = build_lexicon(graph, [Iri("label")])
    return graph, constraints, rules, lexicon


def claim_of(s: str, p: str, lexical: str) -> Claim:
    triple = Triple(Iri(s), Iri(p), Literal(lexical, Datatype.DECIMAL))
    return Claim(triple, (0, 1), "test")


# --- audit_claim ---------------------------------------------------------------


def test_entailed_clean_claim(setting):
    graph, constraints, _, _ = setting
    record = audit_claim(graph, constraints, claim_of("River_Colorado", "length", "2334000"))
    assert record.entailed
    assert record.violations == ()
    assert record.supporting_triple is not None
    assert record.supporting_triple.object.lexical == "2334000.0"
    assert record.licensed


def test_unknown_entity_has_no_evidence(setting):
    graph, constraints, _, _ = setting
    record = audit_claim(graph, constraints, claim_of("River_Nile", "length", "6650000"))
    assert not record.entailed
    assert record.supporting_triple is None


def test_violating_claim_is_flagged_even_without_entailment():
    # The river's stored mouth elevation is 80; a claimed source of 50 both
    # lacks evidence and breaks the downhill-flow ordering.
    graph = parse_ntriples(
        "\n".join(
            [
                f"<River_X> {TYPE} <River> .",
                '<River_X> <mouthElevation> "80" .',
                '<River_X> <length> "1000" .',
            ]
        )
    )
    constraints = parse_manifest(MANIFEST)
    claim = claim_of("River_X", "sourceElevation", "50")
    record = audit_claim(graph, constraints, claim)
    assert not record.entailed
    assert "C6" in {v.constraint_id for v in record.violations}
    assert record.violations == tuple(validate_claim(claim.triple, graph, constraints))
    assert not record.licensed


def test_entailed_claim_is_looked_up_once(setting, monkeypatch):
    graph, constraints, _, _ = setting
    claim = claim_of("River_Colorado", "length", "2334000")
    asked: list[Triple] = []
    find = Graph.find_supporting
    monkeypatch.setattr(
        Graph, "find_supporting", lambda g, t: asked.append(t) or find(g, t)
    )
    assert audit_claim(graph, constraints, claim).licensed
    assert asked == [claim.triple]


# --- decide ----------------------------------------------------------------------


def licensed_audit() -> AuditRecord:
    c = claim_of("a", "p", "1")
    return AuditRecord(c, True, (), c.triple)


def unentailed_audit() -> AuditRecord:
    return AuditRecord(claim_of("a", "p", "1"), False, (), None)


def violating_audit() -> AuditRecord:
    from factgate.constraints import Violation

    c = claim_of("a", "p", "1")
    return AuditRecord(c, True, (Violation("C9", Iri("a"), c.triple, "bad"),), c.triple)


def test_all_licensed_answers():
    assert decide([licensed_audit(), licensed_audit()]) == (Verdict.ANSWER, None)


def test_any_unentailed_abstains_no_evidence():
    verdict, reason = decide([licensed_audit(), unentailed_audit()])
    assert verdict is Verdict.ABSTAIN
    assert reason is AbstainReason.NO_EVIDENCE


def test_no_evidence_outranks_violation():
    verdict, reason = decide([violating_audit(), unentailed_audit()])
    assert reason is AbstainReason.NO_EVIDENCE


def test_empty_audits_policy():
    assert decide([]) == (Verdict.ABSTAIN, AbstainReason.NO_CLAIMS_POLICY)


# --- run_pipeline ------------------------------------------------------------------


def test_echo_generator_answers_entailed_fact(setting):
    graph, constraints, rules, lexicon = setting
    generator = mock_generator(MockBehavior(MockMode.ECHO_CONTEXT), rules=rules)
    decision = run_pipeline(
        "How long is the Colorado River?", graph, constraints, generator,
        lexicon, rules,
    )
    assert decision.verdict is Verdict.ANSWER
    assert decision.response_text == "River Colorado is 2334 km long."
    assert len(decision.audits) == 1
    assert decision.audits[0].licensed


def test_fabricated_fact_forces_abstention(setting):
    graph, constraints, rules, lexicon = setting
    generator = mock_generator(
        MockBehavior(MockMode.FIXED_ANSWER),
        answer_key="Colorado River is 9999 km long.",
    )
    decision = run_pipeline(
        "How long is the Colorado River?", graph, constraints, generator,
        lexicon, rules,
    )
    assert decision.verdict is Verdict.ABSTAIN
    assert decision.abstain_reason is AbstainReason.NO_EVIDENCE
    assert decision.response_text == ABSTENTION_TEXT


def test_chitchat_abstains_under_strict_policy(setting):
    graph, constraints, rules, lexicon = setting
    generator = mock_generator(
        MockBehavior(MockMode.FIXED_ANSWER), answer_key="Lovely weather, isn't it?"
    )
    decision = run_pipeline(
        "How long is the Colorado River?", graph, constraints, generator,
        lexicon, rules,
    )
    assert decision.audits == ()
    assert decision.verdict is Verdict.ABSTAIN
    assert decision.abstain_reason is AbstainReason.NO_CLAIMS_POLICY


def test_audits_run_against_full_graph_not_subgraph(setting):
    graph, constraints, rules, lexicon = setting
    # The response asserts a fact about an entity unrelated to the question;
    # because auditing uses the full graph the claim is still licensed.
    generator = mock_generator(
        MockBehavior(MockMode.FIXED_ANSWER),
        answer_key="Colorado River rises at 2743 meters.",
    )
    for hops in (1, 2, 3):
        decision = run_pipeline(
            "Tell me about Colorado", graph, constraints, generator,
            lexicon, rules, max_hops=hops,
        )
        assert decision.verdict is Verdict.ANSWER
        assert [a.entailed for a in decision.audits] == [True]


def test_pipeline_is_deterministic(setting):
    graph, constraints, rules, lexicon = setting
    generator = mock_generator(
        MockBehavior(MockMode.NOISY, p_correct=0.5, p_hallucinate=0.5, seed=5),
        answer_key="Colorado River is 2334 km long.",
    )
    first = run_pipeline(
        "How long is the Colorado River?", graph, constraints, generator,
        lexicon, rules,
    )
    second = run_pipeline(
        "How long is the Colorado River?", graph, constraints, generator,
        lexicon, rules,
    )
    assert first == second


def test_generator_errors_propagate(setting):
    graph, constraints, rules, lexicon = setting

    def broken(question: str, context: str) -> str:
        raise GeneratorError("connection lost")

    with pytest.raises(GeneratorError):
        run_pipeline("q?", graph, constraints, broken, lexicon, rules)


def test_answer_invariant_every_audit_licensed(setting):
    graph, constraints, rules, lexicon = setting
    generator = mock_generator(MockBehavior(MockMode.ECHO_CONTEXT), rules=rules)
    for question in (
        "How long is the Colorado River?",
        "Where does the Colorado River rise?",
        "Is there anything about Atlantis?",
    ):
        decision = run_pipeline(
            question, graph, constraints, generator, lexicon, rules
        )
        if decision.verdict is Verdict.ANSWER:
            assert decision.audits and all(a.licensed for a in decision.audits)
        else:
            assert decision.response_text == ABSTENTION_TEXT
            assert decision.abstain_reason is not None


# --- provenance -----------------------------------------------------------------


def test_provenance_json_shape(setting):
    graph, constraints, rules, lexicon = setting
    generator = mock_generator(MockBehavior(MockMode.ECHO_CONTEXT), rules=rules)
    decision = run_pipeline(
        "How long is the Colorado River?", graph, constraints, generator,
        lexicon, rules,
    )
    line = decision_to_json("How long is the Colorado River?", decision)
    record = json.loads(line)
    assert "\n" not in line
    assert record["verdict"] == "ANSWER"
    assert record["abstain_reason"] is None
    assert record["claims"][0]["entailed"] is True
    assert record["claims"][0]["supporting_triple"] == (
        '<River_Colorado> <length> "2334000.0" .'
    )
    assert record["claims"][0]["violations"] == []


def test_provenance_records_violation_ids(setting):
    graph, constraints, rules, lexicon = setting
    generator = mock_generator(
        MockBehavior(MockMode.FIXED_ANSWER),
        answer_key="Colorado River rises at -12 meters.",
    )
    decision = run_pipeline("q?", graph, constraints, generator, lexicon, rules)
    record = json.loads(decision_to_json("q?", decision))
    assert record["verdict"] == "ABSTAIN"
    assert record["response_text"] == ABSTENTION_TEXT
    assert "C2" in record["claims"][0]["violations"]


# --- hub-capped retrieval at a realistic shape ----------------------------------


def river_basin(n_rivers: int = 150):
    """Typed rivers, all in <United_States>; only the first ten traverse a
    state, six sharing <State_A> and four <State_B>. <River>, <State> and
    <United_States> are the hubs."""
    lines = [f"<State_A> {TYPE} <State> .", f"<State_B> {TYPE} <State> ."]
    for i in range(n_rivers):
        river = f"<Stream_{i:03d}>"
        lines += [
            f"{river} {TYPE} <River> .",
            f'{river} <label> "Stream {i:03d}" .',
            f'{river} <length> "{1000 * (i + 1)}.0" .',
            f'{river} <sourceElevation> "{100 + i}.0" .',
            f"{river} <inCountry> <United_States> .",
        ]
        if i < 10:
            lines.append(f"{river} <traverses> <State_{'A' if i < 6 else 'B'}> .")
    return parse_ntriples("\n".join(lines))


def context_rivers(graph, lexicon):
    context = build_context("How long is Stream 000?", graph, lexicon, max_hops=3)
    subjects = {t.subject.value for t in parse_ntriples(context)}
    return {s for s in subjects if s.startswith("Stream_")}


def test_context_leaves_out_rivers_reached_only_through_hubs(monkeypatch):
    graph = river_basin()
    lexicon = build_lexicon(graph, [Iri("label")])
    assert context_rivers(graph, lexicon) == {f"Stream_{i:03d}" for i in range(6)}
    monkeypatch.setattr(graph, "_hubs", bytearray(len(graph._hubs)))
    assert len(context_rivers(graph, lexicon)) == 150


@pytest.mark.parametrize(
    "answer, verdict",
    [
        ("Stream 000 is 1 km long.", Verdict.ANSWER),
        ("Stream 000 is 9999 km long.", Verdict.ABSTAIN),
        # Entailed only by a triple the capped context leaves out.
        ("Stream 149 is 150 km long.", Verdict.ANSWER),
    ],
)
def test_capped_context_keeps_the_full_graph_verdict(monkeypatch, answer, verdict):
    graph = river_basin()
    constraints = parse_manifest(MANIFEST)
    rules = parse_rules(RULES_TEXT)
    lexicon = build_lexicon(graph, [Iri("label")])
    generator = mock_generator(MockBehavior(MockMode.FIXED_ANSWER), answer_key=answer)

    def decide_json():
        question = "How long is Stream 000?"
        decision = run_pipeline(question, graph, constraints, generator, lexicon, rules)
        return decision_to_json(question, decision)

    capped = decide_json()
    monkeypatch.setattr(graph, "_hubs", bytearray(len(graph._hubs)))
    assert capped == decide_json()
    assert json.loads(capped)["verdict"] == verdict.value


def _benchmark_inputs(qa, tmp_path, monkeypatch):
    """The graph, lexicon, rules and 200 items of a benchmark workload's
    seed-1 inputs (qa "ask" or "eval"), as bench/scaledrivers.py writes them."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    generate = importlib.import_module("scaledrivers").generate
    generate(1, 10_000, qa, 200).write(tmp_path)
    graph = parse_ntriples((tmp_path / "graph.nt").read_text("utf-8"))
    rules = parse_rules((FIXTURES / "rivers" / "rules.txt").read_text("utf-8"))
    lexicon = build_lexicon(graph, [Iri("label")])
    items = load_dataset(tmp_path / "qa.jsonl")
    assert len(items) == 200
    return graph, lexicon, rules, items


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# The provenance lines of the 200 seed-1 items of two benchmark workloads,
# each set as one sha256 prefix: a change to any verdict, audit or response
# text, or to how a decision is written, moves a digest.
@pytest.mark.parametrize(
    "qa, behavior, max_hops, digest",
    [
        ("ask", MockBehavior(MockMode.ECHO_CONTEXT), 3, "57ce4130b32d3b73"),
        ("eval", MockBehavior(MockMode.NOISY, 0.6, 0.3, seed=1), 1, "d76085e14ceb5a73"),
    ],
    ids=["ask_wide_10k", "eval_narrow_10k"],
)
def test_benchmark_decisions_are_unchanged(
    qa, behavior, max_hops, digest, tmp_path, monkeypatch
):
    graph, lexicon, rules, items = _benchmark_inputs(qa, tmp_path, monkeypatch)
    manifest = (FIXTURES / "rivers" / "constraints.txt").read_text("utf-8")
    constraints = parse_manifest(manifest)
    factory = mock_factory(behavior, rules=rules)
    lines = "".join(
        decision_to_json(
            item.question,
            run_pipeline(
                item.question, graph, constraints, factory(item), lexicon, rules,
                max_hops=max_hops,
            ),
        )
        + "\n"
        for item in items
    )
    assert _digest(lines) == digest


# The generator contexts of the same 200 items, each ended by a NUL, as one
# sha256 prefix. The echo mock reads only its context's first line, so the
# decision digests above cannot see a context reordered or cut after it.
@pytest.mark.parametrize(
    "qa, max_hops, digest",
    [("ask", 3, "f545917a54a9c608"), ("eval", 1, "f9704e03d9916eed")],
    ids=["ask_wide_10k", "eval_narrow_10k"],
)
def test_benchmark_contexts_are_unchanged(qa, max_hops, digest, tmp_path, monkeypatch):
    graph, lexicon, _, items = _benchmark_inputs(qa, tmp_path, monkeypatch)
    contexts = "".join(
        build_context(item.question, graph, lexicon, max_hops) + "\x00"
        for item in items
    )
    assert _digest(contexts) == digest
