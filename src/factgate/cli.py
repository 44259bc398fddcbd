"""Command-line interface.

Three subcommands: `validate` checks a graph against its constraint
manifest, `ask` gates a single question, and `eval` runs an experiment
condition over a QA dataset and prints the metrics table.

Exit codes are a stable contract:
  0  answer emitted / run succeeded / graph conforms
  1  graph does not conform
  2  input or configuration error
  3  the gate abstained (a successful outcome, distinct from errors)
  4  generator (upstream) failure; for `eval`, any item failed
"""

from __future__ import annotations

import argparse
import os
import reprlib
import sys
from typing import Callable, Sequence, TypeVar

from .constraints import ConstraintSet, parse_manifest, validate_graph
from .evaluation import (
    Condition,
    ResultRecord,
    compute_metrics,
    load_dataset,
    mock_factory,
    read_result_log,
    render_report,
    run_condition,
    write_result_log,
)
from .extraction import Lexicon, PredicateRule, build_lexicon, parse_rules
from .gate import Verdict, decision_to_json, run_pipeline
from .generators import (
    GeneratorConfig,
    GeneratorError,
    HttpGenerator,
    MockBehavior,
    MockMode,
    mock_generator,
)
from .kg import HUB_DEGREE, Graph, Iri, ParseError, parse_ntriples, read_utf8

T = TypeVar("T")

EXIT_OK = 0
EXIT_NONCONFORMING = 1
EXIT_INPUT_ERROR = 2
EXIT_ABSTAINED = 3
EXIT_GENERATOR_FAILURE = 4


class CliError(Exception):
    """Input or configuration problem; maps to exit code 2."""


def _load(read: Callable[[str], T], path: str, what: str, label: str) -> T:
    """`read(path)` for the `what` file at `path`. A file that cannot be
    read is an input error, and so is a malformed line or a byte that is
    not UTF-8, prefixed with `label`."""
    try:
        return read(path)
    except OSError as exc:
        raise CliError(f"cannot read {what} {path!r}: {exc}") from exc
    except ParseError as exc:
        raise CliError(f"{label} {path!r}: {exc}") from exc


def _text(parse: Callable[[str], T]) -> Callable[[str], T]:
    """`parse` over the text of the file at a path."""
    return lambda path: parse(read_utf8(path))


def _load_graph(args: argparse.Namespace) -> tuple[Graph, ConstraintSet]:
    """The graph and its constraint manifest, which every subcommand reads."""
    return (
        _load(_text(parse_ntriples), args.graph, "graph", "graph"),
        _load(_text(parse_manifest), args.constraints, "constraint manifest",
              "constraints"),
    )


def _load_extraction(
    args: argparse.Namespace, graph: Graph
) -> tuple[Lexicon, list[PredicateRule]]:
    """The lexicon and the predicate rules, which claim extraction reads."""
    lexicon = build_lexicon(graph, args.label_predicate or [Iri("label")])
    return lexicon, _load(_text(parse_rules), args.rules, "rule file", "rules")


# Each run flag and the args field it sets. A run flag not given is absent
# from the parsed args (argparse.SUPPRESS), so the field it sets keeps the
# default of the dataclass or function it is passed to. The generator flags
# set fields of MockBehavior (or the mock's answer key) without --endpoint,
# of GeneratorConfig with it.
_MOCK_FLAGS = {"--mock-mode": "mode", "--answer": "answer_key", "--seed": "seed",
               "--p-correct": "p_correct", "--p-hallucinate": "p_hallucinate"}
_HTTP_FLAGS = {"--model": "model_name", "--api-key-env": "api_key_env",
               "--timeout": "timeout", "--retries": "max_retries"}
_RUN_FLAGS = {"--jobs": "jobs", "--max-hops": "max_hops"}
# The flags only a live eval reads, so a re-score given one exits 2.
_LIVE_FLAGS = {"--endpoint": "endpoint", **_MOCK_FLAGS, **_HTTP_FLAGS, **_RUN_FLAGS}


def _given(args: argparse.Namespace, flags: dict[str, str]) -> dict[str, str]:
    """The flags of `flags` that were given, each with its field."""
    return {flag: field for flag, field in flags.items() if hasattr(args, field)}


def _fields(args: argparse.Namespace, flags: dict[str, str]) -> dict:
    """The value of each field set by a given flag of `flags`."""
    return {field: getattr(args, field) for field in _given(args, flags).values()}


# The mock flags each mock mode reads, besides --mock-mode itself.
_MODE_FLAGS = {
    MockMode.ECHO_CONTEXT: (),
    MockMode.FIXED_ANSWER: ("--answer",),
    MockMode.NOISY: ("--answer", "--p-correct", "--p-hallucinate", "--seed"),
}


def _generator_fields(args: argparse.Namespace) -> dict:
    """Fields set by the given flags of the generator --endpoint selects; a
    flag only the other generator, or another mock mode, reads is an input
    error, not ignored."""
    http = hasattr(args, "endpoint")
    read, unread = (_HTTP_FLAGS, _MOCK_FLAGS) if http else (_MOCK_FLAGS, _HTTP_FLAGS)
    if ignored := _given(args, unread):
        where = "with" if http else "without"
        raise CliError(f"{', '.join(ignored)}: not read {where} --endpoint")
    fields = _fields(args, read)
    if not http:
        mode = MockMode(fields.get("mode", MockBehavior.mode))
        if ignored := [
            flag for flag in _given(args, _MOCK_FLAGS)
            if flag != "--mock-mode" and flag not in _MODE_FLAGS[mode]
        ]:
            raise CliError(f"{', '.join(ignored)}: not read by the {mode.value} mock")
    return fields


# --- subcommands -------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    graph, constraints = _load_graph(args)
    report = validate_graph(graph, constraints)
    print(
        f"triples={len(graph)} subjects={len({t.subject.value for t in graph})} "
        f"predicates={len({t.predicate.value for t in graph})}"
    )
    print(f"conforms={'true' if report.conforms else 'false'}")
    for v in report.violations:
        print(
            f"violation constraint={v.constraint_id} focus=<{v.focus.value}> "
            f"message={v.message}"
        )
    return EXIT_OK if report.conforms else EXIT_NONCONFORMING


def cmd_ask(args: argparse.Namespace) -> int:
    fields = _generator_fields(args)
    graph, constraints = _load_graph(args)
    lexicon, rules = _load_extraction(args, graph)
    if hasattr(args, "endpoint"):
        generator = HttpGenerator(GeneratorConfig(args.endpoint, **fields))
    else:
        answer = fields.pop("answer_key", None)
        generator = mock_generator(MockBehavior(**fields), answer, rules)
    try:
        decision = run_pipeline(
            args.question, graph, constraints, generator, lexicon, rules,
            **_fields(args, _RUN_FLAGS),
        )
    except GeneratorError as exc:
        print(f"generator failure: {exc}", file=sys.stderr)
        return EXIT_GENERATOR_FAILURE
    print(decision_to_json(args.question, decision))
    return EXIT_OK if decision.verdict is Verdict.ANSWER else EXIT_ABSTAINED


def _write_log(records: list[ResultRecord], path: str) -> None:
    try:
        write_result_log(records, path)
    except OSError as exc:
        raise CliError(f"cannot write result log {path!r}: {exc}") from exc


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # either is missing: no file is both
        return False


def cmd_eval(args: argparse.Namespace) -> int:
    if args.from_log and (live := _given(args, _LIVE_FLAGS)):
        raise CliError(f"{', '.join(live)}: not read with --from-log")
    fields = _generator_fields(args)
    # The log would replace an input. The --from-log log is read before the
    # log is written, so --output may name it.
    for flag in ("--graph", "--constraints", "--rules", "--dataset"):
        if args.output and _same_file(args.output, getattr(args, flag[2:])):
            raise CliError(f"--output: {args.output!r} is the {flag} file")
    graph, constraints = _load_graph(args)
    lexicon, rules = _load_extraction(args, graph)
    dataset = _load(load_dataset, args.dataset, "dataset", "dataset")
    # The metrics split items by their entailed flag, so it must hold.
    for item in dataset:
        if item.gold_triple and graph.contains(item.gold_triple) != item.entailed:
            raise CliError(
                f"dataset {args.dataset!r}: item {reprlib.repr(item.id)} is marked "
                f"{'' if item.entailed else 'not '}entailed, but the graph "
                f"{'lacks' if item.entailed else 'holds'} its gold_triple"
            )
    condition = Condition(args.condition.upper())
    if args.from_log:
        records = _load(read_result_log, args.from_log, "result log", "result log")
        # A log is scored only as the condition that wrote it.
        logged = sorted({r.condition.value for r in records if r.condition})
        if logged and logged != [condition.value]:
            raise CliError(
                f"result log {args.from_log!r}: holds records of "
                f"{' and '.join(logged)}; re-scored as {condition.value}"
            )
    else:
        if hasattr(args, "endpoint"):
            http = HttpGenerator(GeneratorConfig(args.endpoint, **fields))
            factory = lambda item: http
        else:
            factory = mock_factory(MockBehavior(**fields), rules=rules)
        if args.output:
            _write_log([], args.output)  # unwritable: fail before any item runs
        records = run_condition(
            condition, dataset, graph, constraints, factory, lexicon, rules,
            **_fields(args, _RUN_FLAGS),
        )
    try:
        metrics = compute_metrics(dataset, records)
    except ValueError as exc:
        raise CliError(f"result log {args.from_log!r}: {exc}") from exc
    if args.output:
        _write_log(records, args.output)
    print(render_report([(condition.value, metrics)]), end="")
    failed = sum(record.failed for record in records)
    if failed:
        print(
            f"{failed} of {len(records)} items failed (generator failure)",
            file=sys.stderr,
        )
        return EXIT_GENERATOR_FAILURE
    return EXIT_OK


# --- argument plumbing ----------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_generator_flag(parser: argparse.ArgumentParser, name: str, **kw) -> None:
    dest = (_MOCK_FLAGS | _HTTP_FLAGS)[name]
    parser.add_argument(name, dest=dest, default=argparse.SUPPRESS, **kw)


def _add_common(parser: argparse.ArgumentParser, rules: bool) -> None:
    parser.add_argument("--graph", required=True, help="N-Triples graph file")
    parser.add_argument("--constraints", required=True, help="constraint manifest file")
    if rules:
        parser.add_argument("--rules", required=True, help="predicate rule file")
        parser.add_argument(
            "--label-predicate",
            action="append",
            type=Iri,
            help="label predicate IRI for the lexicon (repeatable; default: label)",
        )
        parser.add_argument(
            "--max-hops",
            type=_positive_int,
            default=argparse.SUPPRESS,
            help="retrieval depth (default: 3); a reached class or node of "
            f"more than {HUB_DEGREE} triples is not expanded",
        )
        parser.add_argument(
            "--endpoint", default=argparse.SUPPRESS, help="chat completion URL"
        )
        _add_generator_flag(parser, "--mock-mode", choices=[m.value for m in MockMode])
        _add_generator_flag(parser, "--p-correct", type=float)
        _add_generator_flag(parser, "--p-hallucinate", type=float)
        _add_generator_flag(parser, "--seed", type=int)
        _add_generator_flag(parser, "--model")
        _add_generator_flag(parser, "--api-key-env")
        _add_generator_flag(parser, "--timeout", type=float)
        _add_generator_flag(parser, "--retries", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factgate",
        description="Validate model output against a knowledge graph: "
        "answer when every claim is licensed, abstain otherwise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="check a graph against its constraint manifest"
    )
    _add_common(p_validate, rules=False)
    p_validate.set_defaults(func=cmd_validate)

    p_ask = sub.add_parser("ask", help="gate a single question")
    _add_common(p_ask, rules=True)
    _add_generator_flag(p_ask, "--answer", help="mock answer sentence")
    p_ask.add_argument("question")
    p_ask.set_defaults(func=cmd_ask)

    p_eval = sub.add_parser(
        "eval", help="run an experiment condition over a QA dataset"
    )
    _add_common(p_eval, rules=True)
    p_eval.add_argument("--dataset", required=True, help="QA JSONL file")
    p_eval.add_argument(
        "--condition",
        required=True,
        choices=("baseline", "context_only", "oracle"),
    )
    p_eval.add_argument("--jobs", type=_positive_int, default=argparse.SUPPRESS)
    p_eval.add_argument("--output", default=None, help="result log JSONL path")
    p_eval.add_argument(
        "--from-log", default=None, help="re-score an existing result log"
    )
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
