"""Acceptance suite.

Each test implements one numbered acceptance criterion against its stated
bound and prints a single pass/fail line (visible with `pytest -s`).
Criteria 1 and 2 share one batch of gated runs.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from factgate.constraints import parse_manifest, validate_graph
from factgate.evaluation import (
    Condition,
    QAItem,
    Responded,
    ResultRecord,
    compute_metrics,
    load_dataset,
    mock_factory,
    run_condition,
)
from factgate.extraction import (
    PredicateRule,
    build_lexicon,
    extract_claims,
    parse_rules,
)
from factgate.generators import MockBehavior, MockMode
from factgate.kg import (
    Datatype,
    Iri,
    Literal,
    Triple,
    parse_ntriples,
    retrieve_subgraph,
)

from conftest import FIXTURES, REPO_ROOT, random_graph
from test_constraints import ALL_KINDS, planted_fixture
from test_evaluation import brute_force_metrics, random_log
from test_kg import bfs_oracle, scan_contains, scan_match

RIVERS = FIXTURES / "rivers"


def check(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {criterion:02d}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def rivers():
    graph = parse_ntriples((RIVERS / "graph.nt").read_text(encoding="utf-8"))
    constraints = parse_manifest(
        (RIVERS / "constraints.txt").read_text(encoding="utf-8")
    )
    rules = parse_rules((RIVERS / "rules.txt").read_text(encoding="utf-8"))
    lexicon = build_lexicon(graph, [Iri("label")])
    dataset = load_dataset(RIVERS / "qa.jsonl")
    return graph, constraints, rules, lexicon, dataset


@pytest.fixture(scope="module")
def gated_noisy_runs(rivers):
    """ORACLE over the rivers fixture, NOISY mock at p_hallucinate=0.5,
    seeds 1..20; shared by criteria 1 and 2."""
    graph, constraints, rules, lexicon, dataset = rivers
    start = time.perf_counter()
    metrics = []
    for seed in range(1, 21):
        behavior = MockBehavior(
            MockMode.NOISY, p_correct=0.5, p_hallucinate=0.5, seed=seed
        )
        records = run_condition(
            Condition.ORACLE, dataset, graph, constraints,
            mock_factory(behavior), lexicon, rules,
        )
        metrics.append(compute_metrics(dataset, records))
    elapsed = time.perf_counter() - start
    return metrics, elapsed


def test_criterion_01_structural_guarantees(rivers, gated_noisy_runs):
    graph, _, _, _, dataset = rivers
    metrics, elapsed = gated_noisy_runs
    fixture_ok = (
        len(dataset) >= 20
        and len(graph) >= 50
        and sum(1 for i in dataset if not i.entailed) >= 2
        and sum(1 for i in dataset if i.violates_constraints) >= 2
    )
    far_ne_ok = all(m.far_ne == 0 for m in metrics)
    ap_ok = all(m.abstention_precision == 1 for m in metrics)
    check(
        1,
        fixture_ok and far_ne_ok and ap_ok and elapsed < 5.0,
        f"FAR-NE=0 and AP=1 on all 20 seeds, {elapsed:.2f}s",
    )


def test_criterion_02_licensed_answer_accuracy(gated_noisy_runs):
    metrics, _ = gated_noisy_runs
    ok = all(m.licensed_accuracy == 1 for m in metrics)
    check(2, ok, "LA=1 exactly on all 20 seeds")


def test_criterion_03_cvrr_controllability(rivers):
    graph, constraints, rules, lexicon, dataset = rivers
    # A generator forced to assert every item's claim, including the
    # planted contradictions.
    records = run_condition(
        Condition.ORACLE, dataset, graph, constraints,
        mock_factory(MockBehavior(MockMode.FIXED_ANSWER)), lexicon, rules,
    )
    forced = compute_metrics(dataset, records)
    # Synthetic log reproducing a 1-of-2 rejection ratio.
    synthetic_items = [
        QAItem("v1", "?", "a", entailed=False, violates_constraints=True),
        QAItem("v2", "?", "a", entailed=False, violates_constraints=True),
    ]
    synthetic_records = [
        ResultRecord("v1", Responded.ABSTAINED, None, False,
                     rejected_violation=True, appropriate_abstention=True),
        ResultRecord("v2", Responded.ANSWERED, False, False),
    ]
    synthetic = compute_metrics(synthetic_items, synthetic_records)
    check(
        3,
        forced.cvrr == 1 and synthetic.cvrr == Fraction(1, 2),
        f"forced CVRR={float(forced.cvrr):.3f}, synthetic CVRR=0.500",
    )


def test_criterion_04_metric_formula_oracle():
    start = time.perf_counter()
    mismatches = 0
    for seed in range(100):
        rng = random.Random(seed)
        dataset, records = random_log(rng, rng.randint(1, 80))
        m = compute_metrics(dataset, records)
        got = (m.accuracy, m.abstention_precision, m.cvrr, m.far_ne,
               m.licensed_accuracy)
        if got != brute_force_metrics(dataset, records):
            mismatches += 1
    elapsed = time.perf_counter() - start
    check(
        4,
        mismatches == 0 and elapsed < 2.0,
        f"100 random logs, 0 mismatches, {elapsed:.2f}s",
    )


def test_criterion_05_constraint_fixture_suite():
    failures = []
    for kind in ALL_KINDS:
        for k in (0, 1, 3):
            graph_text, manifest, focus = planted_fixture(kind, k)
            report = validate_graph(
                parse_ntriples(graph_text), parse_manifest(manifest)
            )
            if len(report.violations) != k:
                failures.append(f"{kind}/k={k}: {len(report.violations)}")
            elif {v.focus.value for v in report.violations} != focus:
                failures.append(f"{kind}/k={k}: wrong focus")
    # The physical-law case: a source at or below the mouth must violate.
    uphill = parse_ntriples(
        "<R> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <River> .\n"
        '<R> <sourceElevation> "100" .\n'
        '<R> <mouthElevation> "100" .\n'
    )
    law = parse_manifest(
        "C6 less_than_property class=<River> lesser=<mouthElevation> "
        "greater=<sourceElevation>"
    )
    if len(validate_graph(uphill, law).violations) != 1:
        failures.append("physical-law case")
    # The lifespan-overlap case: influence across disjoint lifespans.
    disjoint = parse_ntriples(
        '<A> <birthYear> "1724" .\n<A> <deathYear> "1804" .\n'
        '<B> <birthYear> "-384" .\n<B> <deathYear> "-322" .\n'
        "<A> <influenced> <B> .\n"
    )
    overlap = parse_manifest(
        "T1 interval_overlap predicate=<influenced> start=<birthYear> "
        "end=<deathYear>"
    )
    if len(validate_graph(disjoint, overlap).violations) != 1:
        failures.append("lifespan case")
    check(5, not failures, f"7 kinds x k in {{0,1,3}}: {failures or 'all exact'}")


def test_criterion_06_entailment_index_oracle():
    rng = random.Random(606)
    graph = random_graph(rng, 500, n_entities=40)
    entities = [Iri(f"e{i}") for i in range(45)]
    predicates = [Iri(f"p{i}") for i in range(5)]

    def random_triple() -> Triple:
        o: Iri | Literal
        if rng.random() < 0.5:
            o = rng.choice(entities)
        else:
            o = Literal(str(rng.randint(0, 500)), Datatype.DECIMAL)
        return Triple(rng.choice(entities), rng.choice(predicates), o)

    start = time.perf_counter()
    disagreements = 0
    for _ in range(1000):
        probe = random_triple()
        if graph.contains(probe) != scan_contains(graph, probe):
            disagreements += 1
        got = graph.match(s=probe.subject, p=probe.predicate, o=probe.object)
        want = scan_match(graph, probe.subject, probe.predicate, probe.object)
        if sorted(map(str, got)) != sorted(map(str, want)):
            disagreements += 1
    elapsed = time.perf_counter() - start
    check(
        6,
        disagreements == 0 and elapsed < 1.0,
        f"1000 probes vs linear scan, 0 disagreements, {elapsed:.2f}s",
    )


def test_criterion_07_subgraph_bfs_oracle():
    bad = 0
    for seed in range(20):
        rng = random.Random(seed)
        graph = random_graph(rng, rng.randint(20, 70), n_entities=15)
        seeds = {Iri(f"e{rng.randint(0, 14)}"), Iri(f"e{rng.randint(0, 14)}")}
        for hops in (1, 2, 3):
            got = set(retrieve_subgraph(graph, seeds, hops))
            if got != bfs_oracle(graph, seeds, hops):
                bad += 1
    check(7, bad == 0, "20 random graphs x hops 1..3, set-equal to BFS oracle")


def test_criterion_08_extraction_fidelity(rivers):
    _, _, rules, lexicon, _ = rivers
    claims = extract_claims("Colorado River is 2334 km long", lexicon, rules)
    scaling_example_ok = (
        len(claims) == 1
        and claims[0].triple.subject.value == "River_Colorado"
        and claims[0].triple.predicate.value == "length"
        and isinstance(claims[0].triple.object, Literal)
        and claims[0].triple.object.lexical == "2334000"
    )
    # 1000 fuzzed sentences: nothing an emitted triple names may fall
    # outside the lexicon.
    rng = random.Random(88)
    known = set(lexicon.alias_to_iri.values())
    aliases = sorted(lexicon.alias_to_iri)
    fillers = [
        "the", "mighty", "ancient", "reportedly", "around", "near", "and",
        "rubicon", "yampa", "nile", "danube", "maybe",
    ]
    templates = [
        "{a} is {n} km long",
        "{a} rises at {n} meters",
        "{a} discharges {n} cubic meters per second",
        "{a} traverses {b}",
        "{a} has tributary {b}",
        "{w} {a} {w} is {n} km long {w}",
        "{w} {w} {w} {w}",
    ]
    emitted = 0
    fabricated = 0
    for _ in range(1000):
        sentence = rng.choice(templates).format(
            a=rng.choice(aliases + fillers),
            b=rng.choice(aliases + fillers),
            n=rng.choice(["5", "2334", "12.5", "-40", "0"]),
            w=rng.choice(fillers),
        )
        for claim in extract_claims(sentence, lexicon, rules):
            emitted += 1
            if claim.triple.subject not in known:
                fabricated += 1
            if isinstance(claim.triple.object, Iri) and (
                claim.triple.object not in known
            ):
                fabricated += 1
    check(
        8,
        scaling_example_ok and fabricated == 0 and emitted > 100,
        f"km-scaling example byte-exact; {emitted} claims from 1000 fuzzed "
        f"sentences, 0 fabricated",
    )


def test_criterion_09_condition_contrast(rivers):
    graph, constraints, rules, lexicon, dataset = rivers
    bad_seeds = []
    for seed in range(1, 11):
        behavior = MockBehavior(
            MockMode.NOISY, p_correct=0.6, p_hallucinate=0.3, seed=seed
        )
        ungated = compute_metrics(dataset, run_condition(
            Condition.CONTEXT_ONLY, dataset, graph, constraints,
            mock_factory(behavior), lexicon, rules,
        ))
        gated = compute_metrics(dataset, run_condition(
            Condition.ORACLE, dataset, graph, constraints,
            mock_factory(behavior), lexicon, rules,
        ))
        if not (ungated.far_ne > 0 and gated.far_ne == 0):
            bad_seeds.append(seed)
    check(
        9,
        not bad_seeds,
        "CONTEXT_ONLY FAR-NE>0 and ORACLE FAR-NE=0 on seeds 1..10",
    )


def test_criterion_10_abstention_and_exit_code_contract():
    proc = subprocess.run(
        [
            sys.executable, "-m", "factgate", "ask",
            "--graph", str(RIVERS / "graph.nt"),
            "--constraints", str(RIVERS / "constraints.txt"),
            "--rules", str(RIVERS / "rules.txt"),
            "--mock-mode", "fixed",
            "--answer", "Colorado River is 9999 km long.",
            "How long is the Colorado River?",
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    record = json.loads(proc.stdout) if proc.stdout else {}
    ok = (
        proc.returncode == 3
        and record.get("response_text") == "I don't know"
        and record.get("verdict") == "ABSTAIN"
    )
    check(10, ok, "exit code 3 and byte-exact abstention string")
