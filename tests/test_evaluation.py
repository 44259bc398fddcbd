from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from factgate.constraints import parse_manifest
from factgate.evaluation import (
    Condition,
    DuplicateId,
    EvalMetrics,
    MetricCounts,
    QAItem,
    Responded,
    ResultRecord,
    UnknownItem,
    answer_matches,
    compute_metrics,
    load_dataset,
    mock_factory,
    read_result_log,
    render_report,
    run_condition,
    write_result_log,
)
from factgate.extraction import build_lexicon, parse_rules
from factgate.gate import build_context
from factgate.generators import GeneratorError, MockBehavior, MockMode
from factgate.kg import Iri, ParseError, parse_ntriples

from conftest import FIXTURES


@pytest.fixture(scope="module")
def rivers():
    base = FIXTURES / "rivers"
    graph = parse_ntriples((base / "graph.nt").read_text(encoding="utf-8"))
    constraints = parse_manifest((base / "constraints.txt").read_text(encoding="utf-8"))
    rules = parse_rules((base / "rules.txt").read_text(encoding="utf-8"))
    lexicon = build_lexicon(graph, [Iri("label")])
    dataset = load_dataset(base / "qa.jsonl")
    return graph, constraints, rules, lexicon, dataset


# --- dataset loading ----------------------------------------------------------


def test_load_bundled_dataset(rivers):
    *_, dataset = rivers
    assert len(dataset) == 24
    assert sum(item.entailed for item in dataset) == 16
    assert sum(item.violates_constraints for item in dataset) == 2


def test_load_dataset_minimal(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id": "a", "question": "q?", "gold_answer": "x", "entailed": false}\n'
        '{"id": "b", "question": "r?", "gold_answer": "y", "entailed": false}\n'
        '{"id": "c", "question": "s?", "gold_answer": "z", "entailed": false}\n'
    )
    items = load_dataset(path)
    assert [i.id for i in items] == ["a", "b", "c"]


def test_missing_question_is_dataset_error(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": "a", "gold_answer": "x", "entailed": false}\n')
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert err.value.line == 1


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    row = '{"id": "a", "question": "q?", "gold_answer": "x", "entailed": false}\n'
    path.write_text(row + row)
    with pytest.raises(DuplicateId):
        load_dataset(path)


def test_entailed_item_requires_gold_triple(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": "a", "question": "q?", "gold_answer": "x", "entailed": true}\n')
    with pytest.raises(ParseError):
        load_dataset(path)


def test_violating_item_cannot_be_entailed(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(
        '{"id": "a", "question": "q?", "gold_answer": "x", "entailed": true, '
        '"violates_constraints": true, "gold_triple": "<a> <p> <b> ."}\n'
    )
    with pytest.raises(ParseError):
        load_dataset(path)


@pytest.mark.parametrize("field", ["entailed", "violates_constraints"])
@pytest.mark.parametrize("value", ['"false"', '"true"', "0", "1", "null"])
def test_dataset_flags_accept_only_json_booleans(tmp_path, field, value):
    path = tmp_path / "d.jsonl"
    row = {"id": "a", "question": "q?", "gold_answer": "x", "entailed": False}
    path.write_text(
        '{"id": "z", "question": "q?", "gold_answer": "x", "entailed": false}\n'
        + json.dumps(row)[:-1] + f', "{field}": {value}}}\n'
    )
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert err.value.line == 2
    assert repr(field) in str(err.value)


def test_non_object_lines_are_dataset_errors(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("5\n")
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert err.value.line == 1
    path.write_text('["a", "ANSWERED"]\n')
    with pytest.raises(ParseError) as err:
        read_result_log(path)
    assert err.value.line == 1


# --- grading -------------------------------------------------------------------


@pytest.mark.parametrize(
    "response,gold,expected",
    [
        ("Colorado River is 2334 km long.", "Colorado River is 2334 km long.", True),
        ("colorado river IS 2334.0 km long.", "Colorado River is 2334 km long.", True),
        ("Indeed, Colorado River is  2334 km long. Famously so.",
         "Colorado River is 2334 km long.", True),
        ("Colorado River is 4668 km long.", "Colorado River is 2334 km long.", False),
        ("I don't know", "Colorado River is 2334 km long.", False),
    ],
)
def test_answer_matching(response, gold, expected):
    assert answer_matches(response, gold) is expected


# --- run_condition -------------------------------------------------------------


def test_baseline_with_gold_fixed_answers_is_perfect(rivers):
    graph, constraints, rules, lexicon, dataset = rivers
    records = run_condition(
        Condition.BASELINE, dataset, graph, constraints,
        mock_factory(MockBehavior(MockMode.FIXED_ANSWER)), lexicon, rules,
    )
    assert all(r.responded is Responded.ANSWERED for r in records)
    metrics = compute_metrics(dataset, records)
    assert metrics.accuracy == 1
    assert metrics.abstention_precision is None  # no abstentions at all


def test_oracle_with_echo_generator(rivers):
    graph, constraints, rules, lexicon, dataset = rivers
    records = run_condition(
        Condition.ORACLE, dataset, graph, constraints,
        mock_factory(MockBehavior(MockMode.ECHO_CONTEXT), rules=rules),
        lexicon, rules,
    )
    by_id = {r.item_id: r for r in records}
    # Every entailed question draws a licensed answer from the context.
    for item in dataset:
        if item.entailed:
            assert by_id[item.id].responded is Responded.ANSWERED
            assert by_id[item.id].licensed
        else:
            assert by_id[item.id].responded is Responded.ABSTAINED
    metrics = compute_metrics(dataset, records)
    assert metrics.abstention_precision == 1
    assert metrics.far_ne == 0


def test_oracle_with_always_hallucinating_mock(rivers):
    graph, constraints, rules, lexicon, dataset = rivers
    behavior = MockBehavior(MockMode.NOISY, p_correct=0.0, p_hallucinate=1.0, seed=1)
    records = run_condition(
        Condition.ORACLE, dataset, graph, constraints,
        mock_factory(behavior), lexicon, rules,
    )
    assert all(r.responded is Responded.ABSTAINED for r in records)


def test_context_only_never_abstains(rivers):
    graph, constraints, rules, lexicon, dataset = rivers
    behavior = MockBehavior(MockMode.NOISY, p_correct=0.0, p_hallucinate=1.0, seed=1)
    records = run_condition(
        Condition.CONTEXT_ONLY, dataset, graph, constraints,
        mock_factory(behavior), lexicon, rules,
    )
    assert all(r.responded is Responded.ANSWERED for r in records)
    assert all(r.correct is False for r in records)
    metrics = compute_metrics(dataset, records)
    assert metrics.far_ne is not None and metrics.far_ne > 0


def _contexts_passed(condition, rivers, max_hops):
    """Item id -> the context `condition` hands the generator."""
    graph, constraints, rules, lexicon, dataset = rivers
    contexts: dict[str, str] = {}

    def recording(item):
        def gen(question, context):
            contexts[item.id] = context
            return ""

        return gen

    run_condition(
        condition, dataset, graph, constraints, recording, lexicon, rules,
        max_hops=max_hops,
    )
    return contexts


@pytest.mark.parametrize("max_hops", [1, 3])
def test_context_only_and_oracle_pass_one_context(rivers, max_hops):
    graph, _, _, lexicon, dataset = rivers
    context_only = _contexts_passed(Condition.CONTEXT_ONLY, rivers, max_hops)
    oracle = _contexts_passed(Condition.ORACLE, rivers, max_hops)
    assert context_only == oracle
    assert list(oracle) == [item.id for item in dataset]
    assert sum(bool(context) for context in oracle.values()) > len(dataset) // 2
    for item in dataset:
        expected = build_context(item.question, graph, lexicon, max_hops)
        assert oracle[item.id] == expected


def test_oracle_echo_on_fully_entailed_fixture_is_all_correct():
    # One river, one verbalizable fact: the echo answer is always the
    # asked fact, so every item is answered, licensed, and correct.
    graph = parse_ntriples(
        '<River_Colorado> <label> "Colorado River" .\n'
        '<River_Colorado> <length> "2334000.0" .\n'
    )
    constraints = parse_manifest("")
    rules = parse_rules(
        'R_length "SUBJ is OBJ km long" predicate=<length> kind=numeric scale=1000'
    )
    lexicon = build_lexicon(graph, [Iri("label")])
    gold = "River Colorado is 2334 km long."
    dataset = [
        QAItem(f"q{i}", q, gold, entailed=True,
               gold_triple=graph.match(p=Iri("length"))[0])
        for i, q in enumerate([
            "How long is the Colorado River?",
            "What is the length of the Colorado River?",
            "Is the Colorado River long?",
        ])
    ]
    records = run_condition(
        Condition.ORACLE, dataset, graph, constraints,
        mock_factory(MockBehavior(MockMode.ECHO_CONTEXT), rules=rules),
        lexicon, rules,
    )
    assert all(r.responded is Responded.ANSWERED for r in records)
    assert all(r.licensed for r in records)
    assert all(r.correct for r in records)


def test_oracle_rejects_forced_violations(rivers):
    graph, constraints, rules, lexicon, dataset = rivers
    records = run_condition(
        Condition.ORACLE, dataset, graph, constraints,
        mock_factory(MockBehavior(MockMode.FIXED_ANSWER)), lexicon, rules,
    )
    by_id = {r.item_id: r for r in records}
    assert by_id["rv01"].rejected_violation
    assert by_id["rv02"].rejected_violation
    metrics = compute_metrics(dataset, records)
    assert metrics.cvrr == 1


def test_generator_failure_is_recorded_not_raised(rivers):
    graph, constraints, rules, lexicon, dataset = rivers

    def exploding(item):
        def gen(question, context):
            raise GeneratorError("kaboom")

        return gen

    records = run_condition(
        Condition.ORACLE, dataset[:3], graph, constraints, exploding,
        lexicon, rules,
    )
    assert len(records) == 3
    assert all(r.failed and r.responded is Responded.ABSTAINED for r in records)


def test_parallel_run_matches_serial(rivers):
    graph, constraints, rules, lexicon, dataset = rivers
    behavior = MockBehavior(MockMode.NOISY, p_correct=0.5, p_hallucinate=0.5, seed=4)
    serial = run_condition(
        Condition.ORACLE, dataset, graph, constraints,
        mock_factory(behavior), lexicon, rules, jobs=1,
    )
    parallel = run_condition(
        Condition.ORACLE, dataset, graph, constraints,
        mock_factory(behavior), lexicon, rules, jobs=4,
    )
    assert serial == parallel


# --- compute_metrics ---------------------------------------------------------------


def record(item_id, responded, correct=None, licensed=False, rejected=False,
           appropriate=None):
    return ResultRecord(
        item_id=item_id,
        responded=responded,
        correct=correct,
        licensed=licensed,
        rejected_violation=rejected,
        appropriate_abstention=appropriate,
    )


def test_accuracy_matches_published_ratio():
    # 12,174 questions with 6,100 correct is 50.1% to one decimal.
    dataset = [
        QAItem(f"q{i}", "?", "a", entailed=False) for i in range(12174)
    ]
    records = [
        record(f"q{i}", Responded.ANSWERED, correct=(i < 6100))
        for i in range(12174)
    ]
    metrics = compute_metrics(dataset, records)
    assert metrics.accuracy == Fraction(6100, 12174)
    assert f"{float(metrics.accuracy) * 100:.1f}%" == "50.1%"


def test_perfect_gate_profile():
    # All abstentions on non-entailed items, no answered non-entailed,
    # every licensed answer correct.
    dataset = [
        QAItem("e1", "?", "a", entailed=True,
               gold_triple=next(iter(parse_ntriples("<a> <p> <b> .")))),
        QAItem("e2", "?", "a", entailed=True,
               gold_triple=next(iter(parse_ntriples("<a> <q> <b> .")))),
        QAItem("n1", "?", "a", entailed=False),
    ]
    records = [
        record("e1", Responded.ANSWERED, correct=True, licensed=True),
        record("e2", Responded.ANSWERED, correct=True, licensed=True),
        record("n1", Responded.ABSTAINED),
    ]
    metrics = compute_metrics(dataset, records)
    assert metrics.abstention_precision == 1
    assert metrics.far_ne == 0
    assert metrics.licensed_accuracy == 1


def test_half_rejected_violations_give_half_cvrr():
    dataset = [
        QAItem("v1", "?", "a", entailed=False, violates_constraints=True),
        QAItem("v2", "?", "a", entailed=False, violates_constraints=True),
    ]
    records = [
        record("v1", Responded.ABSTAINED, rejected=True),
        record("v2", Responded.ANSWERED, correct=False),
    ]
    metrics = compute_metrics(dataset, records)
    assert metrics.cvrr == Fraction(1, 2)


def test_unknown_item_raises():
    with pytest.raises(UnknownItem):
        compute_metrics([], [record("ghost", Responded.ANSWERED, correct=True)])


def test_undefined_metrics_on_empty_log():
    metrics = compute_metrics([], [])
    assert metrics.accuracy is None
    assert metrics.abstention_precision is None
    assert metrics.cvrr is None


def test_appropriateness_falls_back_to_item_entailment():
    dataset = [
        QAItem("e1", "?", "a", entailed=True,
               gold_triple=next(iter(parse_ntriples("<a> <p> <b> .")))),
        QAItem("n1", "?", "a", entailed=False),
    ]
    # External log without appropriateness flags: the abstention on the
    # entailed item counts as inappropriate.
    records = [
        record("e1", Responded.ABSTAINED),
        record("n1", Responded.ABSTAINED),
    ]
    metrics = compute_metrics(dataset, records)
    assert metrics.abstention_precision == Fraction(1, 2)
    # The same log with explicit flags keeps its own verdicts.
    records = [
        record("e1", Responded.ABSTAINED, appropriate=True),
        record("n1", Responded.ABSTAINED, appropriate=True),
    ]
    assert compute_metrics(dataset, records).abstention_precision == 1


def test_accuracy_decomposition_is_exact():
    dataset = [QAItem(f"q{i}", "?", "a", entailed=False) for i in range(7)]
    records = [
        record(f"q{i}", Responded.ANSWERED, correct=(i % 3 == 0)) for i in range(7)
    ]
    metrics = compute_metrics(dataset, records)
    assert metrics.accuracy * metrics.counts.total == metrics.counts.correct_answered


def brute_force_metrics(dataset, records):
    """Independent tally over the result records."""
    items = {i.id: i for i in dataset}
    total = len(records)
    correct = sum(
        1 for r in records if r.responded is Responded.ANSWERED and r.correct
    )
    abst = [r for r in records if r.responded is Responded.ABSTAINED]
    appro = 0
    for r in abst:
        flag = r.appropriate_abstention
        if flag is None:
            flag = not items[r.item_id].entailed
        appro += bool(flag)
    viol = [r for r in records if items[r.item_id].violates_constraints]
    rej = sum(1 for r in viol if r.rejected_violation)
    ne = [r for r in records if not items[r.item_id].entailed]
    ne_false = sum(
        1 for r in ne if r.responded is Responded.ANSWERED and not r.correct
    )
    lic = [r for r in records if items[r.item_id].entailed and r.licensed]
    lic_ok = sum(
        1 for r in lic if r.responded is Responded.ANSWERED and r.correct
    )
    f = lambda n, d: Fraction(n, d) if d else None
    return (
        f(correct, total), f(appro, len(abst)), f(rej, len(viol)),
        f(ne_false, len(ne)), f(lic_ok, len(lic)),
    )


def random_log(rng: random.Random, n: int):
    dataset = []
    records = []
    for i in range(n):
        entailed = rng.random() < 0.5
        violates = (not entailed) and rng.random() < 0.3
        gold = (
            next(iter(parse_ntriples(f"<e{i}> <p> <v> ."))) if entailed else None
        )
        dataset.append(
            QAItem(f"q{i}", "?", "a", entailed=entailed, gold_triple=gold,
                   violates_constraints=violates)
        )
        if rng.random() < 0.5:
            records.append(
                record(f"q{i}", Responded.ANSWERED, correct=rng.random() < 0.6,
                       licensed=rng.random() < 0.5)
            )
        else:
            records.append(
                record(
                    f"q{i}", Responded.ABSTAINED,
                    rejected=violates and rng.random() < 0.5,
                    appropriate=rng.choice([None, True, False]),
                )
            )
    return dataset, records


def test_metrics_match_brute_force_on_random_logs():
    for seed in range(30):
        rng = random.Random(seed)
        dataset, records = random_log(rng, rng.randint(1, 60))
        metrics = compute_metrics(dataset, records)
        assert (
            metrics.accuracy,
            metrics.abstention_precision,
            metrics.cvrr,
            metrics.far_ne,
            metrics.licensed_accuracy,
        ) == brute_force_metrics(dataset, records)


# --- result log IO ------------------------------------------------------------------


def test_result_log_round_trip(tmp_path, rivers):
    graph, constraints, rules, lexicon, dataset = rivers
    records = run_condition(
        Condition.ORACLE, dataset, graph, constraints,
        mock_factory(MockBehavior(MockMode.FIXED_ANSWER)), lexicon, rules,
    )
    path = tmp_path / "log.jsonl"
    write_result_log(records, path)
    assert read_result_log(path) == records
    first = json.loads(path.read_text().splitlines()[0])
    assert set(first) == {
        "item_id", "responded", "correct", "licensed", "rejected_violation",
        "appropriate_abstention", "failed",
    }


LOG_ROW = {
    "item_id": "a", "responded": "ABSTAINED", "correct": None, "licensed": False,
    "rejected_violation": False, "appropriate_abstention": None, "failed": False,
}


@pytest.mark.parametrize(
    "field", ["licensed", "rejected_violation", "failed"]
)
@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_result_log_flags_accept_only_json_booleans(tmp_path, field, value):
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps(LOG_ROW) + "\n" + json.dumps(
        {**LOG_ROW, "item_id": "b", field: value}
    ) + "\n")
    with pytest.raises(ParseError) as err:
        read_result_log(path)
    assert err.value.line == 2
    assert repr(field) in str(err.value)


@pytest.mark.parametrize(
    "field,responded",
    [("correct", "ANSWERED"), ("appropriate_abstention", "ABSTAINED")],
)
@pytest.mark.parametrize("value", ["false", "null", 0, 1])
def test_result_log_optional_flags_accept_boolean_or_null(
    tmp_path, field, responded, value
):
    path = tmp_path / "log.jsonl"
    row = {**LOG_ROW, "responded": responded, field: False}
    path.write_text(json.dumps(row) + "\n")
    assert getattr(read_result_log(path)[0], field) is False
    path.write_text(json.dumps({**row, field: value}) + "\n")
    with pytest.raises(ParseError) as err:
        read_result_log(path)
    assert err.value.line == 1
    assert repr(field) in str(err.value)


def test_duplicated_record_is_rejected_not_counted_twice(tmp_path):
    dataset = [QAItem("a", "?", "x", entailed=False)]
    twice = [record("a", Responded.ABSTAINED), record("a", Responded.ABSTAINED)]
    with pytest.raises(DuplicateId):
        compute_metrics(dataset, twice)
    assert compute_metrics(dataset, twice[:1]).counts.total == 1
    path = tmp_path / "log.jsonl"
    write_result_log(twice, path)
    with pytest.raises(DuplicateId):
        read_result_log(path)


def test_abstained_record_cannot_carry_grade():
    with pytest.raises(ValueError):
        ResultRecord("x", Responded.ABSTAINED, correct=True, licensed=False)


# --- reporting ---------------------------------------------------------------------


def reference_metrics() -> EvalMetrics:
    return EvalMetrics(
        accuracy=Fraction(891, 1000),
        abstention_precision=Fraction(1),
        cvrr=Fraction(1, 2),
        far_ne=Fraction(0),
        licensed_accuracy=Fraction(1),
        counts=MetricCounts(),
    )


def test_report_formats_reference_row():
    out = render_report([("ORACLE", reference_metrics())])
    row = out.splitlines()[1]
    assert row.split() == ["ORACLE", "89.1%", "1.000", "0.500", "0.000", "1.000"]
    assert "n=1" in out


def test_report_empty_input_is_header_only():
    out = render_report([])
    assert out.splitlines() == [
        "condition  accuracy        AP      CVRR    FAR-NE        LA"
    ]


def test_report_preserves_input_order_and_is_stable():
    rows = [("BASELINE", reference_metrics()), ("ORACLE", reference_metrics())]
    first = render_report(rows)
    assert first == render_report(rows)
    lines = first.splitlines()
    assert lines[1].startswith("BASELINE")
    assert lines[2].startswith("ORACLE")


def test_report_renders_undefined_as_dash():
    metrics = compute_metrics([], [])
    out = render_report([("EMPTY", metrics)])
    assert out.splitlines()[1].split() == ["EMPTY", "-", "-", "-", "-", "-"]
