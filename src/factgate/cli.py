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
import sys
from dataclasses import dataclass
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


@dataclass
class RunConfig:
    graph: Graph
    constraints: ConstraintSet
    rules: list[PredicateRule]
    lexicon: Lexicon


def _load(parse: Callable[[str], T], path: str, what: str, label: str) -> T:
    """`parse` over the text of the `what` file at `path`; a malformed line
    or a byte that is not UTF-8 is an input error prefixed with `label`."""
    try:
        return parse(read_utf8(path))
    except OSError as exc:
        raise CliError(f"cannot read {what} {path!r}: {exc}") from exc
    except ParseError as exc:
        raise CliError(f"{label} {path!r}: {exc}") from exc


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    graph = _load(parse_ntriples, args.graph, "graph", "graph")
    labels = args.label_predicate or ["label"]
    lexicon = build_lexicon(graph, [Iri(p) for p in labels])
    return RunConfig(
        graph=graph,
        constraints=_load(
            parse_manifest, args.constraints, "constraint manifest", "constraints"
        ),
        rules=_load(parse_rules, args.rules, "rule file", "rules"),
        lexicon=lexicon,
    )


# Each generator flag and the field it sets: of MockBehavior (or the mock's
# answer key) without --endpoint, of GeneratorConfig with it. A flag not given
# is absent from the parsed args, so its field keeps the dataclass's default.
_MOCK_FLAGS = {"--mock-mode": "mode", "--answer": "answer_key", "--seed": "seed",
               "--p-correct": "p_correct", "--p-hallucinate": "p_hallucinate"}
_HTTP_FLAGS = {"--model": "model_name", "--api-key-env": "api_key_env",
               "--timeout": "timeout", "--retries": "max_retries"}
# The flags only a live eval reads, so a re-score given one exits 2. A flag
# not given is absent from the parsed args, or None (--endpoint).
_LIVE_FLAGS = {"--endpoint": "endpoint", **_MOCK_FLAGS, **_HTTP_FLAGS,
               "--jobs": "jobs", "--max-hops": "max_hops"}


def _generator_fields(args: argparse.Namespace) -> dict:
    """Fields set by the given flags of the generator --endpoint selects; a
    flag only the other generator reads is an input error, not ignored."""
    http = args.endpoint is not None
    read, unread = (_HTTP_FLAGS, _MOCK_FLAGS) if http else (_MOCK_FLAGS, _HTTP_FLAGS)
    if ignored := [flag for flag, field in unread.items() if hasattr(args, field)]:
        where = "with" if http else "without"
        raise CliError(f"{', '.join(ignored)}: not read {where} --endpoint")
    return {field: getattr(args, field) for field in read.values() if hasattr(args, field)}


# --- subcommands -------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    graph = _load(parse_ntriples, args.graph, "graph", "graph")
    constraints = _load(
        parse_manifest, args.constraints, "constraint manifest", "constraints"
    )
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
    config = _load_run_config(args)
    if args.endpoint is not None:
        generator = HttpGenerator(GeneratorConfig(args.endpoint, **fields))
    else:
        answer = fields.pop("answer_key", None)
        generator = mock_generator(MockBehavior(**fields), answer, config.rules)
    try:
        decision = run_pipeline(
            args.question,
            config.graph,
            config.constraints,
            generator,
            config.lexicon,
            config.rules,
            max_hops=getattr(args, "max_hops", 3),
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


def cmd_eval(args: argparse.Namespace) -> int:
    if args.from_log and (live := [
        flag for flag, field in _LIVE_FLAGS.items()
        if getattr(args, field, None) is not None
    ]):
        raise CliError(f"{', '.join(live)}: not read with --from-log")
    fields = _generator_fields(args)
    config = _load_run_config(args)
    try:
        dataset = load_dataset(args.dataset)
    except OSError as exc:
        raise CliError(f"cannot read dataset {args.dataset!r}: {exc}") from exc
    except ParseError as exc:
        raise CliError(f"dataset {args.dataset!r}: {exc}") from exc
    # The metrics split items by their entailed flag, so it must hold.
    for item in dataset:
        if item.gold_triple and config.graph.contains(item.gold_triple) != item.entailed:
            raise CliError(
                f"dataset {args.dataset!r}: item {item.id!r} is marked "
                f"{'' if item.entailed else 'not '}entailed, but the graph "
                f"{'lacks' if item.entailed else 'holds'} its gold_triple"
            )
    condition = Condition(args.condition.upper())
    if args.from_log:
        try:
            records = read_result_log(args.from_log)
        except (OSError, ParseError) as exc:
            raise CliError(f"result log {args.from_log!r}: {exc}") from exc
        # A log is scored only as the condition that wrote it.
        logged = sorted({r.condition.value for r in records if r.condition})
        if logged and logged != [condition.value]:
            raise CliError(
                f"result log {args.from_log!r}: holds records of "
                f"{' and '.join(logged)}; re-scored as {condition.value}"
            )
    else:
        if args.endpoint is not None:
            http = HttpGenerator(GeneratorConfig(args.endpoint, **fields))
            factory = lambda item: http
        else:
            factory = mock_factory(MockBehavior(**fields), rules=config.rules)
        if args.output:
            _write_log([], args.output)  # unwritable: fail before any item runs
        records = run_condition(
            condition,
            dataset,
            config.graph,
            config.constraints,
            factory,
            config.lexicon,
            config.rules,
            max_hops=getattr(args, "max_hops", 3),
            jobs=getattr(args, "jobs", 1),
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
            default=None,
            help="label predicate IRI for the lexicon (repeatable; default: label)",
        )
        parser.add_argument(
            "--max-hops",
            type=_positive_int,
            default=argparse.SUPPRESS,
            help="retrieval depth (default: 3); a reached class or node of "
            f"more than {HUB_DEGREE} triples is not expanded",
        )
        parser.add_argument("--endpoint", default=None, help="chat completion URL")
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
