"""Smoke tests for the benchmark: every workload at toy size, generator
determinism, and an oracle that rejects wrong outputs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses

import pytest

import run
from oracle import Oracle
from scaledrivers import generate

TOY = {
    "ask_wide_10k": dict(triples=400, items=40),
    "eval_narrow_10k": dict(triples=400, items=40),
    "validate_50k": dict(triples=2000, dirty_share=0.05),
}


@pytest.fixture(scope="module")
def fg():
    return run.import_factgate()


def test_generator_is_deterministic():
    a = generate(3, 2000, "eval", 50, 0.05)
    b = generate(3, 2000, "eval", 50, 0.05)
    assert (a.graph_nt, a.qa_jsonl, a.planted) == (b.graph_nt, b.qa_jsonl, b.planted)
    assert a.planted
    assert generate(4, 2000, "eval", 50, 0.05).graph_nt != a.graph_nt


def test_planted_set_is_exactly_what_validation_finds(fg):
    data = generate(5, 3000, None, 0, 0.05)
    constraints = fg.parse_manifest((run.FIXTURES / "constraints.txt").read_text())
    report = fg.validate_graph(fg.parse_ntriples(data.graph_nt), constraints)
    assert {p[0] for p in data.planted} == {f"C{i}" for i in range(1, 8)}
    assert Oracle("", data.planted).check_report(report) == []


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_at_toy_size(name, trace, fg, monkeypatch):
    monkeypatch.setattr(run, "COLD_PROBES", 1)
    spec = dataclasses.replace(run.WORKLOADS[name], **TOY[name])
    result, info = run.run_workload(spec, seed=2, seconds=0.3, trace=trace)
    assert result["correct"], info["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)
    if trace and spec.qa == "ask":
        # Retrieval, the echo mock's parse and validate_claim's copy.
        assert info["graphs_by_claims"].get("1") == [3]


def _decision(fg, verdict, triple, entailed, violations=()):
    claim = fg.Claim(triple, (0, 1), "R")
    audit = fg.AuditRecord(claim, entailed, violations, triple if entailed else None)
    text = "x" if verdict is fg.Verdict.ANSWER else fg.ABSTENTION_TEXT
    return fg.LicensingDecision(verdict, text, (audit,), None)


def test_oracle_rejects_a_wrong_verdict(fg):
    data = generate(6, 300, None)
    oracle = Oracle(data.graph_nt, data.planted)
    s, p, o = next(t for t in data.triples if t[1] == "length")
    true = fg.kg.parse_ntriples_line(f"<{s}> <{p}> {o} .")
    false = fg.Triple(true.subject, true.predicate, fg.Literal("1.5", fg.Datatype.DECIMAL))
    assert oracle.check_decision(_decision(fg, fg.Verdict.ANSWER, true, True)) == []
    assert oracle.check_decision(_decision(fg, fg.Verdict.ANSWER, false, True))
    assert oracle.check_decision(_decision(fg, fg.Verdict.ABSTAIN, true, False))
    # Right entailment flag, wrong verdict: the graph holds the claim.
    assert oracle.check_decision(_decision(fg, fg.Verdict.ABSTAIN, true, True))


def test_oracle_rejects_a_spurious_violation(fg):
    data = generate(6, 300, None)
    oracle = Oracle(data.graph_nt, data.planted)
    s, p, o = next(t for t in data.triples if t[1] == "length")
    true = fg.kg.parse_ntriples_line(f"<{s}> <{p}> {o} .")
    spurious = (fg.constraints.Violation("C3", true.subject, true, "spurious"),)
    decision = _decision(fg, fg.Verdict.ABSTAIN, true, True, spurious)
    problems = oracle.check_decision(decision)
    assert any("reported 1 violations" in p for p in problems)


def test_oracle_rejects_a_missing_planted_violation(fg):
    data = generate(7, 3000, None, 0, 0.05)
    constraints = fg.parse_manifest((run.FIXTURES / "constraints.txt").read_text())
    report = fg.validate_graph(fg.parse_ntriples(data.graph_nt), constraints)
    short = fg.ValidationReport(False, report.violations[1:])
    problems = Oracle("", data.planted).check_report(short)
    assert problems and problems[0].startswith("missing planted violation")
