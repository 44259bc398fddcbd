from __future__ import annotations

import json
import re
import shlex
import subprocess
import sys

import pytest

from factgate.cli import _LIVE_FLAGS, main

from conftest import FIXTURES, REPO_ROOT

RIVERS = FIXTURES / "rivers"
PHILOSOPHERS = FIXTURES / "philosophers"


def rivers_args():
    return [
        "--graph", str(RIVERS / "graph.nt"),
        "--constraints", str(RIVERS / "constraints.txt"),
    ]


def rivers_rules_args():
    return rivers_args() + ["--rules", str(RIVERS / "rules.txt")]


# --- validate -------------------------------------------------------------


def test_validate_conforming_fixture(tmp_path, capsys):
    code = main(["validate"] + rivers_args())
    out = capsys.readouterr().out
    assert code == 0
    assert out == "triples=118 subjects=20 predicates=9\nconforms=true\n"
    # Two triples, each in two spellings, a comment and a blank line: the
    # parse keeps one triple of each. The first <comment> literal holds a
    # raw tab, which the second spells \t.
    graph = tmp_path / "graph.nt"
    graph.write_text(
        "# The length of River_X, spelled twice.\n"
        '<River_X> <length> "5" .\n'
        "\n"
        '<River_X> <length> "5"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n'
        '<River_X> <label> "X" .\n'
        '<River_X> <comment> "a\tb" .\n'
        '<River_X> <comment> "a\\tb" .\n'
    )
    code = main([
        "validate", "--graph", str(graph),
        "--constraints", str(RIVERS / "constraints.txt"),
    ])
    assert code == 0
    assert capsys.readouterr().out == "triples=3 subjects=1 predicates=3\nconforms=true\n"


def test_validate_philosophers_fixture(capsys):
    code = main([
        "validate",
        "--graph", str(PHILOSOPHERS / "graph.nt"),
        "--constraints", str(PHILOSOPHERS / "constraints.txt"),
    ])
    assert code == 0
    assert capsys.readouterr().out == "triples=42 subjects=9 predicates=5\nconforms=true\n"


def test_validate_reports_planted_violation(tmp_path, capsys):
    graph = tmp_path / "bad.nt"
    graph.write_text(
        "<River_Up> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <River> .\n"
        '<River_Up> <sourceElevation> "10" .\n'
        '<River_Up> <mouthElevation> "90" .\n'
    )
    code = main([
        "validate", "--graph", str(graph),
        "--constraints", str(RIVERS / "constraints.txt"),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "conforms=false" in out
    assert "violation constraint=C6 focus=<River_Up>" in out
    # A graph breaking each rivers constraint once: every violation is
    # printed, in manifest order.
    river = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <River> .\n"
    graph.write_text(
        f"<River_C1> {river}<River_C1> <hasTributary> <Lake_1> .\n"
        f'<River_C2> {river}<River_C2> <sourceElevation> "-10" .\n'
        f"<River_C3> {river}"
        '<River_C3> <length> "0"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        f'<River_C4> {river}<River_C4> <discharge> "-1.5" .\n'
        f'<River_C5> {river}<River_C5> <mouthElevation> "-200" .\n'
        f'<River_C6> {river}<River_C6> <mouthElevation> "300.0" .\n'
        '<River_C6> <sourceElevation> "200" .\n'
        f"<River_C7> {river}<River_C7> <traverses> <State_U> .\n"
        "<State_U> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <State> .\n"
    )
    code = main([
        "validate", "--graph", str(graph),
        "--constraints", str(RIVERS / "constraints.txt"),
    ])
    assert code == 1
    assert capsys.readouterr().out == (
        "triples=16 subjects=8 predicates=7\n"
        "conforms=false\n"
        "violation constraint=C1 focus=<River_C1> message=object 'Lake_1' of "
        "<hasTributary> is not typed <River>\n"
        "violation constraint=C2 focus=<River_C2> message=<sourceElevation> "
        "value -10 is not > 0\n"
        "violation constraint=C3 focus=<River_C3> message=<length> value 0 is not > 0\n"
        "violation constraint=C4 focus=<River_C4> message=<discharge> value -1.5 "
        "is not > 0\n"
        "violation constraint=C5 focus=<River_C5> message=<mouthElevation> "
        "value -200 is not >= -100\n"
        "violation constraint=C6 focus=<River_C6> message=<mouthElevation> 300.0 "
        "is not strictly less than <sourceElevation> 200\n"
        "violation constraint=C7 focus=<River_C7> message=<River_C7> has "
        "<traverses> <State_U> but lacks <inCountry> <United_States>\n"
    )


def test_validate_missing_file_is_exit_2(capsys):
    code = main([
        "validate", "--graph", "nope.nt",
        "--constraints", str(RIVERS / "constraints.txt"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unparseable_graph_is_exit_2(tmp_path, capsys):
    graph = tmp_path / "broken.nt"
    graph.write_text("<a> <p>\n")
    code = main([
        "validate", "--graph", str(graph),
        "--constraints", str(RIVERS / "constraints.txt"),
    ])
    assert code == 2


def test_input_that_is_not_utf8_names_its_file_and_line(tmp_path, capsys):
    # Lines end in \r\n and \r; line 3 holds a byte that no UTF-8 text has.
    graph = tmp_path / "graph.nt"
    graph.write_bytes(
        (RIVERS / "graph.nt").read_bytes().splitlines()[0]
        + b'\r\n<a> <label> "A" .\r<a> <label> "\xff" .\n'
    )
    code = main([
        "validate", "--graph", str(graph),
        "--constraints", str(RIVERS / "constraints.txt"),
    ])
    assert code == 2
    assert f"graph {str(graph)!r}: line 3: byte 0xff" in capsys.readouterr().err
    dataset = tmp_path / "qa.jsonl"
    lines = (RIVERS / "qa.jsonl").read_bytes().splitlines()
    dataset.write_bytes(b"\r\n".join(lines[:2]) + b"\r" + b"\xff" + lines[2])
    code = main(
        ["eval"] + rivers_rules_args()
        + ["--dataset", str(dataset), "--condition", "baseline"]
    )
    assert code == 2
    assert f"dataset {str(dataset)!r}: line 3: byte 0xff" in capsys.readouterr().err


def test_rule_file_with_repeated_key_is_exit_2(tmp_path, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text(
        'R_length "SUBJ is OBJ km long" predicate=<length> predicate=<discharge> '
        "kind=numeric scale=1000\n"
    )
    code = main(
        ["ask"] + rivers_args()
        + ["--rules", str(rules), "--max-hops", "1", "How long is the Colorado River?"]
    )
    assert code == 2
    assert "line 1: duplicate key 'predicate'" in capsys.readouterr().err


# --- ask --------------------------------------------------------------------


def test_ask_entailed_question_answers(capsys):
    code = main(
        ["ask"] + rivers_rules_args()
        + ["--max-hops", "1", "How long is the Colorado River?"]
    )
    out = capsys.readouterr().out
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "ANSWER"
    assert record["claims"]
    assert all(c["entailed"] for c in record["claims"])
    # At --max-hops 1 the context is the seed's own triples, all of them
    # collected by the last hop. The echo mock answers from the first
    # context line a rule can render, so a hop that collects another first
    # line moves this one.
    assert out == (
        '{"abstain_reason": null, "claims": [{"entailed": true, '
        '"rule_id": "R_discharge", "source_span": [0, 53], '
        r'"supporting_triple": "<River_Colorado> <discharge> \"640.0\" .", '
        r'"triple": "<River_Colorado> <discharge> \"640\" .", "violations": []}], '
        '"question": "How long is the Colorado River?", '
        '"response_text": "River Colorado discharges 640 cubic meters per second.", '
        '"verdict": "ANSWER"}\n'
    )
    # River_Colorado has no incoming triple, so that line cannot show that
    # the hop collects a seed's incoming triples; River_Gila's first
    # renderable line is one of them.
    code = main(
        ["ask"] + rivers_rules_args()
        + ["--max-hops", "1", "How long is the Gila River?"]
    )
    assert code == 0
    assert capsys.readouterr().out == (
        '{"abstain_reason": null, "claims": [{"entailed": true, '
        '"rule_id": "R_tributary", "source_span": [0, 39], '
        '"supporting_triple": "<River_Colorado> <hasTributary> <River_Gila> .", '
        '"triple": "<River_Colorado> <hasTributary> <River_Gila> .", "violations": []}], '
        '"question": "How long is the Gila River?", '
        '"response_text": "River Colorado has tributary River Gila.", '
        '"verdict": "ANSWER"}\n'
    )


def test_ask_fabricated_fact_abstains(capsys):
    code = main(
        ["ask"] + rivers_rules_args()
        + [
            "--mock-mode", "fixed",
            "--answer", "Colorado River is 9999 km long.",
            "How long is the Colorado River?",
        ]
    )
    out = capsys.readouterr().out
    assert code == 3
    record = json.loads(out)
    assert record["verdict"] == "ABSTAIN"
    assert record["response_text"] == "I don't know"
    assert record["abstain_reason"] == "NO_EVIDENCE"


@pytest.mark.parametrize(
    "number, code",
    [("2334", 0), ("2334.000002", 3), ("2334.00000000000000000000000001", 3)],
)
def test_ask_licenses_only_the_stored_number(capsys, number, code):
    # The graph holds "2334000.0" (meters) and the rule's scale is 1000: a
    # number off in any digit, the 30th too, is not entailed.
    assert main(
        ["ask"] + rivers_rules_args()
        + [
            "--mock-mode", "fixed",
            "--answer", f"Colorado River is {number} km long.",
            "How long is the Colorado River?",
        ]
    ) == code
    record = json.loads(capsys.readouterr().out)
    assert record["abstain_reason"] == (None if code == 0 else "NO_EVIDENCE")


def test_respelled_dirty_fact_answers_in_every_spelling(tmp_path, capsys):
    # The stored "-5.0" breaks C2. A claim restating it in any spelling is
    # entailed, adds no violation, and answers.
    graph = tmp_path / "dirty.nt"
    graph.write_text(
        "<River_X> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <River> .\n"
        '<River_X> <label> "River X" .\n'
        '<River_X> <sourceElevation> "-5.0" .\n'
    )
    for number in ("-5", "-5.0", "-5.00"):
        code = main([
            "ask", "--graph", str(graph),
            "--constraints", str(RIVERS / "constraints.txt"),
            "--rules", str(RIVERS / "rules.txt"), "--mock-mode", "fixed",
            "--answer", f"River X rises at {number} meters.",
            "Where does River X rise?",
        ])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["verdict"] == "ANSWER"
        [claim] = record["claims"]
        assert claim["entailed"] and claim["violations"] == []


def test_echo_states_a_long_stored_number_exactly(tmp_path, capsys):
    # 1.00000000000000000000000000001 m is 0.00100000000000000000000000000001
    # km; divided at Decimal's default 28 digits it read 0.001 km, a number
    # the graph does not hold, and the echo answer abstained.
    graph = tmp_path / "long.nt"
    graph.write_text(
        "<River_X> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <River> .\n"
        '<River_X> <label> "River X" .\n'
        '<River_X> <length> "1.00000000000000000000000000001" .\n'
    )
    code = main([
        "ask", "--graph", str(graph),
        "--constraints", str(RIVERS / "constraints.txt"),
        "--rules", str(RIVERS / "rules.txt"), "--mock-mode", "echo",
        "How long is River X?",
    ])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    assert record["response_text"] == (
        "River X is 0.00100000000000000000000000000001 km long."
    )
    [claim] = record["claims"]
    assert claim["entailed"]


def test_ask_unknown_topic_abstains_with_empty_claims(capsys):
    code = main(["ask"] + rivers_rules_args() + ["What is the capital of France?"])
    record = json.loads(capsys.readouterr().out)
    assert code == 3
    assert record["abstain_reason"] == "NO_CLAIMS_POLICY"
    assert record["claims"] == []


def test_no_claims_pass_through_is_gone(capsys):
    # A claimless response always abstains: no flag lets it pass.
    question = ["What is the capital of France?"]
    assert main(["ask"] + rivers_rules_args() + ["--no-claims", "answer"] + question) == 2
    assert "--no-claims" in capsys.readouterr().err


def test_ask_fixed_mock_without_answer_is_input_error(capsys):
    code = main(
        ["ask"] + rivers_rules_args() + ["--mock-mode", "fixed", "question?"]
    )
    assert code == 2
    # So is a noisy mock, when it is bound.
    code = main(
        ["ask"] + rivers_rules_args()
        + ["--mock-mode", "noisy", "--p-correct", "1", "question?"]
    )
    assert code == 2
    assert "the noisy mock requires an answer key" in capsys.readouterr().err


def test_generator_flag_is_gone(capsys):
    # An --endpoint alone selects the HTTP generator; --generator is unknown.
    code = main(
        ["ask"] + rivers_rules_args()
        + ["--generator", "http", "How long is the Colorado River?"]
    )
    assert code == 2
    assert "unrecognized arguments: --generator" in capsys.readouterr().err


def test_ask_http_without_key_is_generator_failure(capsys, monkeypatch):
    monkeypatch.delenv("FACTGATE_API_KEY", raising=False)
    code = main(
        ["ask"] + rivers_rules_args()
        + [
            "--endpoint", "https://localhost:1/v1/chat",
            "--model", "m",
            "How long is the Colorado River?",
        ]
    )
    assert code == 4
    assert "generator failure" in capsys.readouterr().err


def http_ask_args(url, *flags):
    return (
        ["ask"] + rivers_rules_args()
        + ["--endpoint", url, "--model", "m"]
        + list(flags) + ["How long is the Colorado River?"]
    )


def test_ask_http_endpoint_must_be_an_http_url(capsys, monkeypatch, endpoint):
    monkeypatch.setenv("FACTGATE_API_KEY", "sekrit")
    for url in ("", "file:///etc/hostname", endpoint.url.removeprefix("http://")):
        assert main(http_ask_args(url)) == 2
        assert "endpoint must be an http(s) URL" in capsys.readouterr().err
    assert endpoint.requests == []


def test_ask_http_key_with_a_newline_is_not_printed(capsys, monkeypatch, endpoint):
    monkeypatch.setenv("FACTGATE_API_KEY", "sekrit\nX-Leak: 1")
    assert main(http_ask_args(endpoint.url)) == 4
    err = capsys.readouterr().err
    assert "generator failure" in err and "sekrit" not in err
    assert endpoint.requests == []


def test_mock_flags_with_an_endpoint_are_input_errors(capsys, monkeypatch, endpoint):
    # The HTTP client reads no mock flag, so none is silently dropped.
    monkeypatch.setenv("FACTGATE_API_KEY", "sekrit")
    http = ["--endpoint", endpoint.url]
    for flag, value in (
        ("--mock-mode", "fixed"), ("--answer", "Colorado River is 2334 km long."),
        ("--p-correct", "5"), ("--p-hallucinate", "0.5"), ("--seed", "3"),
    ):
        assert main(http_ask_args(endpoint.url, flag, value)) == 2
        assert capsys.readouterr().err == f"error: {flag}: not read with --endpoint\n"
        if flag != "--answer":
            assert main(eval_args("--condition", "oracle", flag, value, *http)) == 2
            assert f"error: {flag}: not read with --endpoint" in capsys.readouterr().err
    assert endpoint.requests == []


def test_http_flags_without_an_endpoint_are_input_errors(capsys):
    # A mock reads no HTTP flag, so none is silently dropped.
    mock = ["--mock-mode", "fixed", "--answer", "Colorado River is 2334 km long."]
    question = ["How long is the Colorado River?"]
    for flag, value in (
        ("--model", "m"), ("--api-key-env", "KEY"), ("--timeout", "5"), ("--retries", "1"),
    ):
        assert main(["ask"] + rivers_rules_args() + mock + [flag, value] + question) == 2
        assert main(eval_args("--condition", "oracle", flag, value)) == 2
        err = capsys.readouterr().err
        assert err.count(f"error: {flag}: not read without --endpoint\n") == 2


# The mock flags each mock mode reads, besides --mock-mode.
MODE_READS = {
    "echo": set(),
    "fixed": {"--answer"},
    "noisy": {"--answer", "--p-correct", "--p-hallucinate", "--seed"},
}
MOCK_FLAG_VALUES = {
    "--answer": "Colorado River is 2334 km long.", "--p-correct": "0.5",
    "--p-hallucinate": "0.5", "--seed": "3",
}


@pytest.mark.parametrize(
    "command, mode, flag",
    [
        (command, mode, flag)
        for command in ("ask", "eval")
        for mode in (None, *MODE_READS)  # None: no --mock-mode, the echo mock
        for flag in MOCK_FLAG_VALUES
        if flag not in MODE_READS[mode or "echo"]
        and not (command == "eval" and flag == "--answer")  # eval has no --answer
    ],
)
def test_mock_flag_the_mode_does_not_read_is_input_error(capsys, command, mode, flag):
    # A flag the selected mock would not read is not silently dropped.
    args = [flag, MOCK_FLAG_VALUES[flag]]
    if mode is not None:
        args += ["--mock-mode", mode]
    if command == "ask":
        if mode == "fixed":
            args += ["--answer", MOCK_FLAG_VALUES["--answer"]]
        argv = ["ask"] + rivers_rules_args() + args + ["How long is the Colorado River?"]
    else:
        argv = eval_args("--condition", "oracle", *args)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag}: not read by the {mode or 'echo'} mock\n"


def test_unusable_timeouts_are_input_errors(capsys, monkeypatch, endpoint):
    monkeypatch.setenv("FACTGATE_API_KEY", "sekrit")
    http = ["--endpoint", endpoint.url, "--model", "m"]
    for timeout in ("nan", "inf", "1e300"):
        assert main(http_ask_args(endpoint.url, "--timeout", timeout)) == 2
        code = main(eval_args("--condition", "oracle", "--timeout", timeout, *http))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count(f"error: timeout {float(timeout)} is not in (0, ") == 2
        assert "Traceback" not in err
    assert endpoint.requests == []


def test_config_flag_is_gone(tmp_path, capsys):
    # Flags are the only configuration: a JSON config file is not read.
    config = tmp_path / "run.json"
    config.write_text('{"max_hops": 1}')
    assert main(
        ["ask"] + rivers_rules_args()
        + ["--config", str(config), "How long is the Colorado River?"]
    ) == 2
    assert main(eval_args("--condition", "baseline", "--config", str(config))) == 2
    assert capsys.readouterr().err.count("unrecognized arguments: --config") == 2


def test_label_predicate_flag_replaces_config_list(capsys):
    def ask(*flags):
        return main(
            ["ask"] + rivers_rules_args() + list(flags)
            + ["How long is the Colorado River?"]
        )

    # No flag reads labels from `label`; a flag replaces that default, so an
    # unknown label predicate alone gives an empty lexicon, and no claims.
    assert ask() == 0
    # At the default --max-hops (3) retrieval walks past the class and
    # country hubs' edges. The echo mock answers from the first context
    # line a rule can render, so a context with another first such line
    # (its depth, bytes or order) moves this one.
    default = capsys.readouterr().out
    assert default == (
        '{"abstain_reason": null, "claims": [{"entailed": true, '
        '"rule_id": "R_discharge", "source_span": [0, 54], '
        r'"supporting_triple": "<River_Arkansas> <discharge> \"1066.0\" .", '
        r'"triple": "<River_Arkansas> <discharge> \"1066\" .", "violations": []}], '
        '"question": "How long is the Colorado River?", '
        '"response_text": "River Arkansas discharges 1066 cubic meters per second.", '
        '"verdict": "ANSWER"}\n'
    )
    # An explicit --label-predicate label is the default lexicon: same line.
    assert ask("--label-predicate", "label") == 0
    assert capsys.readouterr().out == default
    assert ask("--label-predicate", "nolabel") == 3
    assert ask("--label-predicate", "nolabel", "--label-predicate", "label") == 0


@pytest.mark.parametrize("iri", ["a b", ""])
def test_invalid_label_predicate_names_the_flag(capsys, iri):
    code = main(["ask"] + rivers_rules_args() + ["--label-predicate", iri, "q?"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"argument --label-predicate: invalid Iri value: {iri!r}" in err


# --- eval --------------------------------------------------------------------


def eval_args(*extra):
    return (
        ["eval"] + rivers_rules_args()
        + ["--dataset", str(RIVERS / "qa.jsonl")] + list(extra)
    )


def test_eval_oracle_with_echo_mock(capsys):
    code = main(eval_args("--condition", "oracle"))
    out = capsys.readouterr().out
    assert code == 0
    row = out.splitlines()[1].split()
    assert row[0] == "ORACLE"
    assert row[2] == "1.000"  # AP
    assert row[4] == "0.000"  # FAR-NE
    assert "n=1" in out


def test_eval_baseline_fixed_gold_is_100_percent(capsys):
    code = main(eval_args("--condition", "baseline", "--mock-mode", "fixed"))
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1].split()[1] == "100.0%"


def test_eval_has_no_answer_flag(capsys):
    # eval's mocks answer from each item's gold answer, so --answer would be
    # read by nothing.
    code = main(eval_args(
        "--condition", "oracle", "--mock-mode", "fixed",
        "--answer", "Colorado River is 9999 km long.",
    ))
    assert code == 2
    assert "unrecognized arguments: --answer" in capsys.readouterr().err


def test_eval_unknown_condition_is_exit_2(capsys):
    code = main(eval_args("--condition", "wishful"))
    assert code == 2


def test_eval_writes_result_log_and_rescoring_matches(tmp_path, capsys):
    # The gated runner, and the ungated one that reads a context.
    for condition in ("oracle", "context_only"):
        log = tmp_path / f"{condition}.jsonl"
        assert main(eval_args(
            "--condition", condition, "--mock-mode", "noisy",
            "--p-correct", "0.5", "--p-hallucinate", "0.5", "--seed", "11",
            "--output", str(log),
        )) == 0
        first = capsys.readouterr().out
        assert log.exists() and len(log.read_text().splitlines()) == 24
        assert main(eval_args(
            "--condition", condition, "--from-log", str(log)
        )) == 0
        assert capsys.readouterr().out == first


def test_eval_result_log_with_string_flag_is_exit_2(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    assert main(eval_args("--condition", "oracle", "--output", str(log))) == 0
    capsys.readouterr()
    lines = log.read_text().splitlines()
    first = json.loads(lines[0])
    first["failed"] = "false"
    log.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
    assert main(eval_args("--condition", "oracle", "--from-log", str(log))) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "'failed'" in err


def test_eval_result_log_with_repeated_item_is_exit_2(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    assert main(eval_args("--condition", "oracle", "--output", str(log))) == 0
    capsys.readouterr()
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines + lines[:1]) + "\n")
    assert main(eval_args("--condition", "oracle", "--from-log", str(log))) == 2
    err = capsys.readouterr().err
    assert f"result log {str(log)!r}: line 25: duplicate item id 'rq01'" in err


def test_eval_repeated_dataset_id_names_its_line(tmp_path, capsys):
    rows = (RIVERS / "qa.jsonl").read_text().splitlines()
    dataset = tmp_path / "qa.jsonl"
    dataset.write_text("\n".join(rows[:2] + rows[:1]) + "\n")
    args = rivers_rules_args() + ["--dataset", str(dataset), "--condition", "baseline"]
    assert main(["eval"] + args) == 2
    err = capsys.readouterr().err
    assert f"dataset {str(dataset)!r}: line 3: duplicate item id 'rq01'" in err


def test_eval_result_log_with_unknown_item_is_exit_2(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text(
        '{"item_id": "nope", "responded": "ABSTAINED", "correct": null, '
        '"licensed": false}\n'
    )
    assert main(eval_args("--condition", "oracle", "--from-log", str(log))) == 2
    assert "unknown item 'nope'" in capsys.readouterr().err


def test_eval_truncated_result_log_is_exit_2(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    assert main(eval_args("--condition", "baseline", "--output", str(log))) == 0
    capsys.readouterr()
    log.write_text("\n".join(log.read_text().splitlines()[:5]) + "\n")
    copy = tmp_path / "copy.jsonl"
    assert main(eval_args(
        "--condition", "baseline", "--from-log", str(log), "--output", str(copy)
    )) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "covers 5 of 24 dataset items; first missing 'rq06'" in captured.err
    assert not copy.exists()


def test_eval_from_log_with_a_live_run_flag_is_exit_2(tmp_path, capsys):
    # The flags are refused before the log is read: this one does not exist.
    log = tmp_path / "absent.jsonl"
    for flags, named in (
        (["--p-correct", "5", "--mock-mode", "fixed", "--jobs", "4"],
         "--mock-mode, --p-correct, --jobs"),
        (["--endpoint", "http://127.0.0.1:1/x", "--timeout", "5"],
         "--endpoint, --timeout"),
        (["--max-hops", "3"], "--max-hops"),
    ):
        assert main(eval_args(
            "--condition", "oracle", "--from-log", str(log), *flags
        )) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {named}: not read with --from-log\n"


def test_eval_log_of_another_condition_is_exit_2(tmp_path, capsys):
    baseline, oracle = tmp_path / "baseline.jsonl", tmp_path / "oracle.jsonl"
    assert main(eval_args("--condition", "baseline", "--output", str(baseline))) == 0
    assert main(eval_args("--condition", "oracle", "--output", str(oracle))) == 0
    capsys.readouterr()
    rows = [json.loads(line) for line in baseline.read_text().splitlines()]
    assert {row["condition"] for row in rows} == {"BASELINE"}
    # A baseline log is not re-scored as an oracle run.
    assert main(eval_args("--condition", "oracle", "--from-log", str(baseline))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "holds records of BASELINE; re-scored as ORACLE" in captured.err
    # Nor is a log that mixes two conditions, under either of them.
    mixed = tmp_path / "mixed.jsonl"
    lines = oracle.read_text().splitlines()[:12] + baseline.read_text().splitlines()[12:]
    mixed.write_text("\n".join(lines) + "\n")
    for condition in ("oracle", "baseline"):
        assert main(eval_args("--condition", condition, "--from-log", str(mixed))) == 2
        assert "holds records of BASELINE and ORACLE" in capsys.readouterr().err
    # A log that names no condition is scored as the flag says.
    unnamed = tmp_path / "unnamed.jsonl"
    unnamed.write_text("".join(
        json.dumps({k: v for k, v in row.items() if k != "condition"}) + "\n"
        for row in rows
    ))
    assert main(eval_args("--condition", "baseline", "--from-log", str(unnamed))) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("BASELINE")
    assert main(eval_args("--condition", "oracle", "--from-log", str(unnamed))) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("ORACLE")


def test_count_flags_below_one_are_input_errors(capsys):
    assert main(eval_args("--condition", "baseline", "--jobs", "-3")) == 2
    assert main(eval_args("--condition", "baseline", "--max-hops", "0")) == 2
    err = capsys.readouterr().err
    assert "--jobs: must be at least 1" in err
    assert "--max-hops: must be at least 1" in err


def test_misspelt_mock_mode_is_input_error(capsys):
    # A misspelt choice must not silently switch the mock.
    assert main(
        ["ask"] + rivers_rules_args()
        + ["--mock-mode", "ecko", "How long is the Colorado River?"]
    ) == 2
    err = capsys.readouterr().err
    assert "--mock-mode" in err and "invalid choice" in err and "ecko" in err


def test_eval_jobs_flag_gives_identical_output(tmp_path, capsys):
    args = eval_args(
        "--condition", "oracle", "--mock-mode", "noisy",
        "--p-correct", "0.6", "--p-hallucinate", "0.3", "--seed", "3",
    )
    serial_log = tmp_path / "serial.jsonl"
    assert main(args + ["--output", str(serial_log)]) == 0
    serial = capsys.readouterr().out
    # The same table, and the same log: its records in dataset order.
    for jobs in ("3", "4"):
        log = tmp_path / f"jobs{jobs}.jsonl"
        assert main(args + ["--jobs", jobs, "--output", str(log)]) == 0
        assert capsys.readouterr().out == serial
        assert log.read_bytes() == serial_log.read_bytes()


def test_eval_with_failed_items_is_exit_4(tmp_path, capsys, monkeypatch):
    # Every item fails (no API key), and the run and its re-score say so.
    monkeypatch.delenv("FACTGATE_API_KEY", raising=False)
    log = tmp_path / "log.jsonl"
    code = main(eval_args(
        "--condition", "oracle",
        "--endpoint", "http://127.0.0.1:1/v1/chat", "--output", str(log),
    ))
    run = capsys.readouterr()
    assert code == 4
    assert run.out.splitlines()[1].split()[0] == "ORACLE"  # the table is printed
    assert run.err == "24 of 24 items failed (generator failure)\n"
    assert all(json.loads(line)["failed"] for line in log.read_text().splitlines())
    # Re-scored, two items failed.
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    for row in lines[2:]:
        row["failed"] = False
    log.write_text("".join(json.dumps(row) + "\n" for row in lines))
    copy = tmp_path / "copy.jsonl"
    assert main(eval_args(
        "--condition", "oracle", "--from-log", str(log), "--output", str(copy)
    )) == 4
    rescored = capsys.readouterr()
    assert rescored.out == run.out
    assert rescored.err == "2 of 24 items failed (generator failure)\n"
    assert copy.read_text() == log.read_text()


def test_eval_unwritable_output_fails_before_any_item(
    tmp_path, capsys, monkeypatch, endpoint
):
    monkeypatch.setenv("FACTGATE_API_KEY", "sekrit")
    missing = tmp_path / "nonexistent" / "run.jsonl"
    code = main(eval_args(
        "--condition", "oracle", "--endpoint", endpoint.url,
        "--model", "m", "--output", str(missing),
    ))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"cannot write result log {str(missing)!r}" in captured.err
    assert endpoint.requests == []
    # A log re-scored into itself is read before the output is opened.
    log = tmp_path / "log.jsonl"
    assert main(eval_args("--condition", "oracle", "--output", str(log))) == 0
    first, logged = capsys.readouterr().out, log.read_text()
    assert main(eval_args(
        "--condition", "oracle", "--from-log", str(log), "--output", str(log)
    )) == 0
    assert capsys.readouterr().out == first
    assert log.read_text() == logged


@pytest.mark.parametrize("flag", ["--graph", "--constraints", "--rules", "--dataset"])
def test_eval_output_naming_an_input_is_exit_2(tmp_path, capsys, flag):
    # The log would replace the input, and the next run would fail to read
    # it. Each input is a copy; the output names it by another path.
    inputs = {"--graph": "graph.nt", "--constraints": "constraints.txt",
              "--rules": "rules.txt", "--dataset": "qa.jsonl"}
    args = []
    for name, file in inputs.items():
        (tmp_path / file).write_bytes((RIVERS / file).read_bytes())
        args += [name, str(tmp_path / file)]
    (tmp_path / "sub").mkdir()
    output = str(tmp_path / "sub" / ".." / inputs[flag])
    log = tmp_path / "log.jsonl"
    assert main(["eval", *args, "--condition", "oracle", "--output", str(log)]) == 0
    capsys.readouterr()
    for extra in ([], ["--from-log", str(log)]):
        argv = ["eval", *args, "--condition", "oracle", *extra, "--output", output]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --output: {output!r} is the {flag} file\n"
        assert (tmp_path / inputs[flag]).read_bytes() == (RIVERS / inputs[flag]).read_bytes()


def dataset_of(tmp_path, *edits):
    """The rivers dataset, with `(line index, field, value)` edits."""
    rows = [json.loads(line) for line in (RIVERS / "qa.jsonl").read_text().splitlines()]
    for index, field, value in edits:
        rows[index][field] = value
    path = tmp_path / "qa.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return path


def test_eval_blank_gold_answer_is_exit_2(tmp_path, capsys):
    # Read as "" or "None", a gold answer graded every response correct.
    for value in ("", None):
        dataset = dataset_of(tmp_path, (3, "gold_answer", value))
        code = main(
            ["eval"] + rivers_rules_args()
            + ["--dataset", str(dataset), "--condition", "baseline"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "line 4: 'gold_answer' must be a non-blank string" in err


def test_eval_repeated_json_key_is_exit_2(tmp_path, capsys):
    # Read with its last value, a repeated key scored a line against it.
    lines = (RIVERS / "qa.jsonl").read_text().splitlines()
    lines[0] = lines[0][:-1] + ', "gold_answer": "9999 km"}'
    dataset = tmp_path / "qa.jsonl"
    dataset.write_text("\n".join(lines) + "\n")
    args = ["--dataset", str(dataset), "--condition", "baseline"]
    assert main(["eval"] + rivers_rules_args() + args) == 2
    assert "line 1: duplicate key 'gold_answer'" in capsys.readouterr().err
    log = tmp_path / "log.jsonl"
    assert main(eval_args("--condition", "baseline", "--output", str(log))) == 0
    capsys.readouterr()
    rows = log.read_text().splitlines()
    rows[2] = rows[2][:-1] + ', "correct": true}'
    log.write_text("\n".join(rows) + "\n")
    assert main(eval_args("--condition", "baseline", "--from-log", str(log))) == 2
    err = capsys.readouterr().err
    assert f"result log {str(log)!r}: line 3: duplicate key 'correct'" in err


def test_eval_entailed_flag_must_match_the_graph(tmp_path, capsys):
    rows = [json.loads(line) for line in (RIVERS / "qa.jsonl").read_text().splitlines()]
    held = next(i for i, row in enumerate(rows) if row["entailed"])
    absent = next(
        i for i, row in enumerate(rows) if row.get("gold_triple") and not row["entailed"]
    )
    log = tmp_path / "log.jsonl"
    assert main(eval_args("--condition", "oracle", "--output", str(log))) == 0
    capsys.readouterr()
    for index, edits, says in (
        (held, [("entailed", False)], "is marked not entailed, but the graph holds"),
        (
            absent,
            [("entailed", True), ("violates_constraints", False)],
            "is marked entailed, but the graph lacks",
        ),
    ):
        dataset = dataset_of(tmp_path, *((index, *edit) for edit in edits))
        base = ["eval"] + rivers_rules_args() + ["--dataset", str(dataset)]
        for extra in ([], ["--from-log", str(log)]):
            assert main(base + ["--condition", "oracle"] + extra) == 2
            err = capsys.readouterr().err
            assert f"item {rows[index]['id']!r} {says} its gold_triple" in err


def test_eval_entailed_flag_error_shortens_a_long_id(tmp_path, capsys, monkeypatch):
    rows = [json.loads(line) for line in (RIVERS / "qa.jsonl").read_text().splitlines()]
    held = next(i for i, row in enumerate(rows) if row["entailed"])
    long_id = "x" * 50_000
    dataset_of(tmp_path, (held, "entailed", False), (held, "id", long_id))
    monkeypatch.chdir(tmp_path)  # a short dataset path in the message
    args = ["--dataset", "qa.jsonl", "--condition", "oracle"]
    assert main(["eval"] + rivers_rules_args() + args) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "is marked not entailed, but the graph holds" in line
    assert len(line) < 200


def test_eval_missing_dataset_is_exit_2(capsys):
    code = main(
        ["eval"] + rivers_rules_args()
        + ["--dataset", "ghost.jsonl", "--condition", "oracle"]
    )
    assert code == 2



@pytest.mark.parametrize(
    "flag, what",
    [
        ("--graph", "graph"),
        ("--constraints", "constraint manifest"),
        ("--rules", "rule file"),
        ("--dataset", "dataset"),
        ("--from-log", "result log"),
    ],
)
def test_eval_unreadable_input_is_exit_2(tmp_path, capsys, flag, what):
    log = tmp_path / "log.jsonl"
    assert main(eval_args("--condition", "oracle", "--output", str(log))) == 0
    capsys.readouterr()
    args = eval_args("--condition", "oracle", "--from-log", str(log))
    missing = str(tmp_path / "missing")
    args[args.index(flag) + 1] = missing
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert f"cannot read {what} {missing!r}" in err
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--dataset", "--from-log"])
def test_eval_json_nested_too_deep_is_exit_2(tmp_path, flag):
    # A line json.loads cannot decode without exceeding the recursion limit.
    deep = tmp_path / "deep.jsonl"
    deep.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    dataset = deep if flag == "--dataset" else RIVERS / "qa.jsonl"
    args = ["--dataset", str(dataset), "--condition", "oracle"]
    if flag == "--from-log":
        args += ["--from-log", str(deep)]
    proc = subprocess.run(
        [sys.executable, "-m", "factgate", "eval"] + rivers_rules_args() + args,
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 2
    assert f"{str(deep)!r}: line 1: bad JSON: nested too deep" in proc.stderr
    assert "Traceback" not in proc.stderr

# --- README -----------------------------------------------------------------------


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", section, re.S | re.M)
    commands = [text for lang, text in blocks if lang == "sh"]
    (table,) = [text for lang, text in blocks if not lang]
    monkeypatch.chdir(REPO_ROOT)
    log = str(tmp_path / "run.jsonl")
    for command, code in zip(commands, (0, 0, 3, 0), strict=True):
        argv = shlex.split(command.replace("\\\n", " "))
        assert argv[0] == "factgate"
        argv = [log if arg == "run.jsonl" else arg for arg in argv[1:]]
        assert main(argv) == code, command
        out = capsys.readouterr().out
    assert out == table  # the eval's table, byte for byte
    # The eval re-scored from its log, its live-run flags dropped: the same table.
    rescore, flags = [], iter(argv)
    for arg in flags:
        if arg in _LIVE_FLAGS:
            next(flags)
        else:
            rescore.append("--from-log" if arg == "--output" else arg)
    assert main(rescore) == 0
    assert capsys.readouterr().out == table


# --- end-to-end process ---------------------------------------------------------


def test_cli_process_abstention_contract():
    """The abstention string and exit code, through a real process."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "factgate", "ask",
            "--graph", str(RIVERS / "graph.nt"),
            "--constraints", str(RIVERS / "constraints.txt"),
            "--rules", str(RIVERS / "rules.txt"),
            "--mock-mode", "fixed",
            "--answer", "Styx River is 80 km long.",
            "How long is the mythic boundary stream of the dead?",
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 3
    record = json.loads(proc.stdout)
    assert record["response_text"] == "I don't know"
