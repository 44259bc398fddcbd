"""Command-line interface.

Three subcommands: `validate` checks a graph against its constraint
manifest, `ask` gates a single question, and `eval` runs an experiment
condition over a QA dataset and prints the metrics table.

Exit codes are a stable contract:
  0  answer emitted / run succeeded / graph conforms
  1  graph does not conform
  2  input or configuration error
  3  the gate abstained (a successful outcome, distinct from errors)
  4  generator (upstream) failure
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .constraints import ConstraintSet, parse_manifest, validate_graph
from .evaluation import (
    Condition,
    DuplicateId,
    UnknownItem,
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
from .kg import Graph, Iri, ParseError, parse_ntriples

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
    abstain_on_no_claims: bool


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {what} {path!r}: {exc}") from exc


def _load(parse: Callable[[str], T], path: str, what: str, label: str) -> T:
    """`parse` over the text of the `what` file at `path`; a malformed line
    is an input error prefixed with `label`."""
    try:
        return parse(_read_text(path, what))
    except ParseError as exc:
        raise CliError(f"{label} {path!r}: {exc}") from exc


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    graph = _load(parse_ntriples, args.graph, "graph", "graph")
    lexicon = build_lexicon(graph, [Iri(p) for p in args.label_predicate])
    return RunConfig(
        graph=graph,
        constraints=_load(
            parse_manifest, args.constraints, "constraint manifest", "constraints"
        ),
        rules=_load(parse_rules, args.rules, "rule file", "rules"),
        lexicon=lexicon,
        abstain_on_no_claims=(args.no_claims == "abstain"),
    )


def _mock_behavior(args: argparse.Namespace) -> MockBehavior:
    return MockBehavior(
        mode=MockMode(args.mock_mode),
        p_correct=args.p_correct,
        p_hallucinate=args.p_hallucinate,
        seed=args.seed,
    )


def _http_generator(args: argparse.Namespace) -> HttpGenerator:
    if not args.endpoint:
        raise CliError("--endpoint is required with --generator http")
    config = GeneratorConfig(
        endpoint_url=args.endpoint,
        model_name=args.model,
        api_key_env=args.api_key_env,
        timeout=args.timeout,
        max_retries=args.retries,
    )
    return HttpGenerator(config)


# --- subcommands -------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    graph = _load(parse_ntriples, args.graph, "graph", "graph")
    constraints = _load(
        parse_manifest, args.constraints, "constraint manifest", "constraints"
    )
    report = validate_graph(graph, constraints)
    print(
        f"triples={len(graph)} subjects={len({t.subject for t in graph})} "
        f"predicates={len({t.predicate for t in graph})}"
    )
    print(f"conforms={'true' if report.conforms else 'false'}")
    for v in report.violations:
        print(
            f"violation constraint={v.constraint_id} focus=<{v.focus.value}> "
            f"message={v.message}"
        )
    return EXIT_OK if report.conforms else EXIT_NONCONFORMING


def cmd_ask(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    if args.generator == "http":
        generator = _http_generator(args)
    else:
        behavior = _mock_behavior(args)
        if behavior.mode is not MockMode.ECHO_CONTEXT and args.answer is None:
            raise CliError(f"--answer is required with the {behavior.mode.value} mock")
        generator = mock_generator(behavior, answer_key=args.answer, rules=config.rules)
    try:
        decision = run_pipeline(
            args.question,
            config.graph,
            config.constraints,
            generator,
            config.lexicon,
            config.rules,
            max_hops=args.max_hops,
            abstain_on_no_claims=config.abstain_on_no_claims,
        )
    except GeneratorError as exc:
        print(f"generator failure: {exc}", file=sys.stderr)
        return EXIT_GENERATOR_FAILURE
    print(decision_to_json(args.question, decision))
    return EXIT_OK if decision.verdict is Verdict.ANSWER else EXIT_ABSTAINED


def cmd_eval(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    try:
        dataset = load_dataset(args.dataset)
    except OSError as exc:
        raise CliError(f"cannot read dataset {args.dataset!r}: {exc}") from exc
    except (ParseError, DuplicateId) as exc:
        raise CliError(f"dataset {args.dataset!r}: {exc}") from exc
    condition = Condition(args.condition.upper())
    if args.from_log:
        try:
            records = read_result_log(args.from_log)
        except (OSError, ParseError, DuplicateId) as exc:
            raise CliError(f"result log {args.from_log!r}: {exc}") from exc
    else:
        if args.generator == "http":
            http = _http_generator(args)
            factory = lambda item: http
        else:
            factory = mock_factory(_mock_behavior(args), rules=config.rules)
        records = run_condition(
            condition,
            dataset,
            config.graph,
            config.constraints,
            factory,
            config.lexicon,
            config.rules,
            max_hops=args.max_hops,
            jobs=args.jobs,
            abstain_on_no_claims=config.abstain_on_no_claims,
        )
    try:
        metrics = compute_metrics(dataset, records)
    except UnknownItem as exc:
        raise CliError(f"result log {args.from_log!r}: {exc}") from exc
    # A log that skips items would be scored on the rest alone.
    if len(records) < len(dataset):
        logged = {record.item_id for record in records}
        missing = next(item.id for item in dataset if item.id not in logged)
        raise CliError(
            f"result log {args.from_log!r}: covers {len(records)} of "
            f"{len(dataset)} dataset items; first missing {missing!r}"
        )
    if args.output:
        write_result_log(records, args.output)
    print(render_report([(condition.value, metrics)]), end="")
    return EXIT_OK


# --- argument plumbing ----------------------------------------------------------


class _Repeatable(argparse.Action):
    """Like action="append", except that the first flag replaces the default
    list instead of extending it, so flags beat a config-file list."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        if items is self.default:
            items = []
        setattr(namespace, self.dest, [*items, values])


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, rules: bool) -> None:
    parser.add_argument("--graph", required=True, help="N-Triples graph file")
    parser.add_argument("--constraints", required=True, help="constraint manifest file")
    if rules:
        parser.add_argument("--rules", required=True, help="predicate rule file")
        parser.add_argument(
            "--label-predicate",
            action=_Repeatable,
            default=["label"],
            help="label predicate IRI for the lexicon (repeatable; default: label)",
        )
        parser.add_argument("--max-hops", type=_positive_int, default=3)
        parser.add_argument(
            "--no-claims",
            choices=("abstain", "answer"),
            default="abstain",
            help="policy when a response contains no extractable claims",
        )
        parser.add_argument("--generator", choices=("mock", "http"), default="mock")
        parser.add_argument(
            "--mock-mode", choices=("echo", "fixed", "noisy"), default="echo"
        )
        parser.add_argument("--answer", default=None, help="mock answer sentence")
        parser.add_argument("--p-correct", type=float, default=0.0)
        parser.add_argument("--p-hallucinate", type=float, default=0.0)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--endpoint", default=None, help="chat completion URL")
        parser.add_argument("--model", default="")
        parser.add_argument("--api-key-env", default="FACTGATE_API_KEY")
        parser.add_argument("--timeout", type=float, default=30.0)
        parser.add_argument("--retries", type=int, default=2)


def _flag_value(action: argparse.Action, value: object) -> object:
    """A config value read exactly as the same text after its flag would be."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError(f"expected a string or a number, got {value!r}")
    converted = action.type(str(value)) if action.type else str(value)
    if action.choices is not None and converted not in action.choices:
        raise ValueError(f"{value!r} is not one of {sorted(action.choices)}")
    return converted


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> dict:
    """The settings of a JSON config file, each checked as its flag's value,
    to become the parser's defaults: flags beat the file, which beats those."""
    try:
        values = json.loads(_read_text(path, "config file"))
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path!r}: bad JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise CliError(f"config {path!r}: expected a JSON object")
    flags = {a.dest: a for a in parser._actions if a.option_strings}
    defaults = {}
    for key, value in values.items():
        action = flags.get(key.replace("-", "_"))
        if action is None or action.dest in ("help", "config"):
            raise CliError(f"config {path!r}: unknown setting {key!r}")
        repeated = isinstance(action, _Repeatable)
        items = value if repeated and isinstance(value, list) else [value]
        try:
            checked = [_flag_value(action, v) for v in items]
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise CliError(f"config {path!r}: bad {key!r}: {exc}") from exc
        defaults[action.dest] = checked if repeated else checked[0]
    return defaults


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
    p_ask.add_argument("--config", default=None, help="JSON config file")
    p_ask.add_argument("question")
    p_ask.set_defaults(func=cmd_ask)

    p_eval = sub.add_parser(
        "eval", help="run an experiment condition over a QA dataset"
    )
    _add_common(p_eval, rules=True)
    p_eval.add_argument("--config", default=None, help="JSON config file")
    p_eval.add_argument("--dataset", required=True, help="QA JSONL file")
    p_eval.add_argument(
        "--condition",
        required=True,
        choices=("baseline", "context_only", "oracle"),
    )
    p_eval.add_argument("--jobs", type=_positive_int, default=1)
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
        if getattr(args, "config", None):
            (commands,) = [
                a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            ]
            command = commands.choices[args.command]
            command.set_defaults(**_config_defaults(command, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
