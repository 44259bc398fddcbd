from __future__ import annotations

import json
import subprocess
import sys

from factgate.cli import main

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


def test_validate_conforming_fixture(capsys):
    code = main(["validate"] + rivers_args())
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "triples=118 subjects=20 predicates=9"
    assert "conforms=true" in out


def test_validate_philosophers_fixture(capsys):
    code = main([
        "validate",
        "--graph", str(PHILOSOPHERS / "graph.nt"),
        "--constraints", str(PHILOSOPHERS / "constraints.txt"),
    ])
    assert code == 0
    assert "conforms=true" in capsys.readouterr().out


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


def test_ask_unknown_topic_abstains_with_empty_claims(capsys):
    code = main(["ask"] + rivers_rules_args() + ["What is the capital of France?"])
    record = json.loads(capsys.readouterr().out)
    assert code == 3
    assert record["abstain_reason"] == "NO_CLAIMS_POLICY"
    assert record["claims"] == []


def test_ask_fixed_mock_without_answer_is_input_error(capsys):
    code = main(
        ["ask"] + rivers_rules_args() + ["--mock-mode", "fixed", "question?"]
    )
    assert code == 2


def test_ask_http_without_key_is_generator_failure(capsys, monkeypatch):
    monkeypatch.delenv("FACTGATE_API_KEY", raising=False)
    code = main(
        ["ask"] + rivers_rules_args()
        + [
            "--generator", "http",
            "--endpoint", "https://localhost:1/v1/chat",
            "--model", "m",
            "How long is the Colorado River?",
        ]
    )
    assert code == 4
    assert "generator failure" in capsys.readouterr().err


def test_config_file_supplies_defaults_flags_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "mock-mode": "fixed",
        "answer": "Colorado River is 9999 km long.",
        "max-hops": 2,
    }))
    # Config alone: the fabricated answer abstains.
    assert main(
        ["ask"] + rivers_rules_args()
        + ["--config", str(config), "How long is the Colorado River?"]
    ) == 3
    capsys.readouterr()
    # A flag overrides the config's answer and becomes licensable.
    code = main(
        ["ask"] + rivers_rules_args()
        + [
            "--config", str(config),
            "--answer", "Colorado River is 2334 km long.",
            "How long is the Colorado River?",
        ]
    )
    assert code == 0


def test_unknown_config_key_is_input_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text('{"frobnicate": 1}')
    code = main(
        ["ask"] + rivers_rules_args()
        + ["--config", str(config), "How long is the Colorado River?"]
    )
    assert code == 2


def ask_with_config(tmp_path, settings, *flags):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(settings))
    return main(
        ["ask"] + rivers_rules_args() + list(flags)
        + ["--config", str(config), "How long is the Colorado River?"]
    )


def test_config_values_pass_the_flags_checks(tmp_path, capsys):
    # A misspelt choice must not silently switch the no-claims policy.
    assert ask_with_config(tmp_path, {"no_claims": "abstian"}) == 2
    assert ask_with_config(tmp_path, {"max_hops": 2.5}) == 2
    assert ask_with_config(tmp_path, {"max_hops": None}) == 2
    assert ask_with_config(tmp_path, {"label_predicate": [["label"]]}) == 2
    assert ask_with_config(tmp_path, {"max_hops": 0}) == 2
    config = tmp_path / "eval.json"
    config.write_text(json.dumps({"jobs": -3}))
    assert main(eval_args("--condition", "baseline", "--config", str(config))) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "no_claims" in err and "max_hops" in err and "jobs" in err
    assert "must be at least 1, got 0" in err and "must be at least 1, got -3" in err


def test_config_string_number_reads_like_the_flag(tmp_path, capsys):
    answer = ["--mock-mode", "fixed", "--answer", "Colorado River is 2334 km long."]
    assert ask_with_config(tmp_path, {"max_hops": "2"}, *answer) == 0
    from_config = capsys.readouterr().out
    assert main(
        ["ask"] + rivers_rules_args() + answer
        + ["--max-hops", "2", "How long is the Colorado River?"]
    ) == 0
    assert capsys.readouterr().out == from_config


def test_label_predicate_flag_replaces_config_list(tmp_path, capsys):
    # An unknown label predicate alone gives an empty lexicon, so no claims.
    assert ask_with_config(tmp_path, {"label_predicate": ["label"]}) == 0
    assert ask_with_config(tmp_path, {"label_predicate": "label"}) == 0
    code = ask_with_config(
        tmp_path, {"label_predicate": ["label"]}, "--label-predicate", "nolabel"
    )
    assert code == 3


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


def test_eval_unknown_condition_is_exit_2(capsys):
    code = main(eval_args("--condition", "wishful"))
    assert code == 2


def test_eval_writes_result_log_and_rescoring_matches(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    assert main(eval_args(
        "--condition", "oracle", "--mock-mode", "noisy",
        "--p-correct", "0.5", "--p-hallucinate", "0.5", "--seed", "11",
        "--output", str(log),
    )) == 0
    first = capsys.readouterr().out
    assert log.exists() and len(log.read_text().splitlines()) == 24
    assert main(eval_args(
        "--condition", "oracle", "--from-log", str(log)
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
    assert "duplicate item id" in capsys.readouterr().err


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


def test_count_flags_below_one_are_input_errors(capsys):
    assert main(eval_args("--condition", "baseline", "--jobs", "-3")) == 2
    assert main(eval_args("--condition", "baseline", "--max-hops", "0")) == 2
    err = capsys.readouterr().err
    assert "--jobs: must be at least 1" in err
    assert "--max-hops: must be at least 1" in err


def test_eval_jobs_flag_gives_identical_output(capsys):
    args = eval_args(
        "--condition", "oracle", "--mock-mode", "noisy",
        "--p-correct", "0.6", "--p-hallucinate", "0.3", "--seed", "3",
    )
    assert main(args) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--jobs", "4"]) == 0
    assert capsys.readouterr().out == serial


def test_eval_missing_dataset_is_exit_2(capsys):
    code = main(
        ["eval"] + rivers_rules_args()
        + ["--dataset", "ghost.jsonl", "--condition", "oracle"]
    )
    assert code == 2


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
