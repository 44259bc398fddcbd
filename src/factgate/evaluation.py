"""Evaluation harness.

Loads QA datasets, runs one of three experiment conditions (ungrounded
baseline, retrieval without validation, or the full licensing gate), and
scores result logs with five epistemic-reliability metrics:

  accuracy              correct answers over all questions
  abstention precision  fraction of abstentions that were warranted
  CVRR                  planted constraint violations actually rejected
  FAR-NE                non-entailed questions wrongly answered
  licensed accuracy     correctness among licensed answers on entailed items

One table, `_METRICS`, defines each of them as a ratio of two counts and
names its report column; `compute_metrics` and `render_report` both read
it. Metric values are exact fractions so each one reproduces its defining
ratio without rounding. A result log is scored only if it covers every
dataset item exactly once. Result logs are JSONL, one record's fields per
line, and can be re-scored without re-running any generator.
"""

from __future__ import annotations

import json
import reprlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .constraints import ConstraintSet
from .extraction import NUMBER_TOKEN_RE, Lexicon, PredicateRule
from .gate import Verdict, build_context, run_pipeline
from .generators import GeneratorError, GeneratorFn, MockBehavior, mock_generator
from .kg import (
    EXACT,
    Graph,
    ParseError,
    Triple,
    decimal_lexical,
    parse_ntriples_line,
    read_utf8,
    split_lines,
)

T = TypeVar("T")


class Condition(str, Enum):
    BASELINE = "BASELINE"
    CONTEXT_ONLY = "CONTEXT_ONLY"
    ORACLE = "ORACLE"


class Responded(str, Enum):
    ANSWERED = "ANSWERED"
    ABSTAINED = "ABSTAINED"


@dataclass(frozen=True)
class QAItem:
    id: str
    question: str
    gold_answer: str
    entailed: bool
    gold_triple: Triple | None = None
    violates_constraints: bool = False

    def __post_init__(self) -> None:
        # The id is echoed short: it comes from the dataset file.
        if self.entailed and self.gold_triple is None:
            raise ValueError(
                f"{reprlib.repr(self.id)}: entailed item needs a gold triple"
            )
        if self.violates_constraints and self.entailed:
            raise ValueError(
                f"{reprlib.repr(self.id)}: a constraint-violating item cannot be "
                "entailed"
            )


@dataclass(frozen=True)
class ResultRecord:
    item_id: str
    responded: Responded
    correct: bool | None
    licensed: bool
    rejected_violation: bool = False
    appropriate_abstention: bool | None = None
    failed: bool = False
    # The condition that produced the record; None for a record read from a
    # log that does not name one, such as an external run.
    condition: Condition | None = None

    def __post_init__(self) -> None:
        # The id is echoed short: it comes from the result log.
        if self.responded is Responded.ABSTAINED and self.correct is not None:
            raise ValueError(
                f"{reprlib.repr(self.item_id)}: abstained records carry no grade"
            )
        if self.responded is Responded.ANSWERED and self.correct is None:
            raise ValueError(
                f"{reprlib.repr(self.item_id)}: answered records need a grade"
            )


@dataclass(frozen=True)
class MetricCounts:
    total: int = 0
    answered: int = 0
    correct_answered: int = 0
    abstentions: int = 0
    appropriate_abstentions: int = 0
    violating_total: int = 0
    violating_rejected: int = 0
    nonentailed_total: int = 0
    nonentailed_false_answers: int = 0
    entailed_licensed: int = 0
    entailed_licensed_correct: int = 0


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: Fraction | None
    abstention_precision: Fraction | None
    cvrr: Fraction | None
    far_ne: Fraction | None
    licensed_accuracy: Fraction | None
    counts: MetricCounts


# --- dataset and log IO -------------------------------------------------------


def _rejected(line: int, key: str, want: str, value: object) -> ParseError:
    """The error for a field that is not `want`, its value echoed short."""
    return ParseError(line, f"{key!r} must be {want}, got {reprlib.repr(value)}")


def _flag(payload: dict, key: str, line: int) -> bool:
    """A true/false field, false when absent; anything else fails closed."""
    value = payload.get(key, False)
    if not isinstance(value, bool):
        raise _rejected(line, key, "true or false", value)
    return value


def _optional_flag(payload: dict, key: str, line: int) -> bool | None:
    """A true/false/null field, null when absent."""
    value = payload.get(key)
    if value is not None and not isinstance(value, bool):
        raise _rejected(line, key, "true, false or null", value)
    return value


def _string(payload: dict, key: str, line: int) -> str:
    """A string field that is not blank: an empty gold answer, say, would
    grade every response correct."""
    value = payload[key]
    if not isinstance(value, str) or not value.strip():
        raise _rejected(line, key, "a non-blank string", value)
    return value


def _member(kind: type[T], payload: dict, key: str, line: int) -> T:
    """A field holding the value of a member of the str enum `kind`."""
    try:
        return kind(payload[key])
    except ValueError:
        raise _rejected(line, key, "one of " + ", ".join(kind), payload[key]) from None


def _parse_item(payload: dict, line: int) -> QAItem:
    if not isinstance(payload, dict):
        raise ParseError(line, "expected a JSON object")
    for key in ("id", "question", "gold_answer", "entailed"):
        if key not in payload:
            raise ParseError(line, f"missing field {key!r}")
    gold_triple = None
    if payload.get("gold_triple") is not None:
        try:
            gold_triple = parse_ntriples_line(_string(payload, "gold_triple", line))
        except ValueError as exc:
            raise ParseError(line, f"bad gold_triple: {exc}") from exc
    try:
        return QAItem(
            id=_string(payload, "id", line),
            question=_string(payload, "question", line),
            gold_answer=_string(payload, "gold_answer", line),
            entailed=_flag(payload, "entailed", line),
            gold_triple=gold_triple,
            violates_constraints=_flag(payload, "violates_constraints", line),
        )
    except ValueError as exc:
        raise ParseError(line, str(exc)) from exc


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object; a repeated key is an error, not a pick of its last value."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _read_jsonl(
    path: str | Path, parse: Callable[[dict, int], T], key: Callable[[T], str]
) -> list[T]:
    """`parse(payload, line)` over each non-blank line of a JSONL file; the
    `key` of each parsed value must be unique, and a repeat is a ParseError
    at its line."""
    values: list[T] = []
    seen: set[str] = set()
    for number, raw in enumerate(split_lines(read_utf8(path)), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            payload = json.loads(line, object_pairs_hook=_json_object)
        except json.JSONDecodeError as exc:
            raise ParseError(number, f"bad JSON: {exc}") from exc
        except RecursionError as exc:
            raise ParseError(number, "bad JSON: nested too deep to decode") from exc
        except ValueError as exc:  # a key repeated in one object
            raise ParseError(number, str(exc)) from exc
        value = parse(payload, number)
        if (value_key := key(value)) in seen:
            raise ParseError(number, f"duplicate item id {reprlib.repr(value_key)}")
        seen.add(value_key)
        values.append(value)
    return values


def load_dataset(path: str | Path) -> list[QAItem]:
    """Load a JSONL QA dataset; ids must be unique."""
    return _read_jsonl(path, _parse_item, lambda item: item.id)


def record_from_dict(payload: dict, line: int = 0) -> ResultRecord:
    if not isinstance(payload, dict):
        raise ParseError(line, "expected a JSON object")
    try:
        return ResultRecord(
            item_id=_string(payload, "item_id", line),
            responded=_member(Responded, payload, "responded", line),
            correct=_optional_flag(payload, "correct", line),
            licensed=_flag(payload, "licensed", line),
            rejected_violation=_flag(payload, "rejected_violation", line),
            appropriate_abstention=_optional_flag(
                payload, "appropriate_abstention", line
            ),
            failed=_flag(payload, "failed", line),
            condition=(
                None if payload.get("condition") is None
                else _member(Condition, payload, "condition", line)
            ),
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(line, f"bad result record: {exc}") from exc


def write_result_log(records: Iterable[ResultRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(asdict(record), sort_keys=True) + "\n")


def read_result_log(path: str | Path) -> list[ResultRecord]:
    """Ingest a ResultRecord JSONL, e.g. a published external run; item
    ids must be unique."""
    return _read_jsonl(path, record_from_dict, lambda record: record.item_id)


# --- grading -------------------------------------------------------------------


def _normalize_answer(text: str) -> str:
    lowered = NUMBER_TOKEN_RE.sub(
        lambda m: decimal_lexical(EXACT.normalize(Decimal(m.group(0)))), text.lower()
    )
    return " ".join(lowered.split())


def answer_matches(response: str, gold_answer: str) -> bool:
    """Containment grading: the normalized gold answer appears in the
    normalized response. Case-folded; numbers compared in exact canonical form."""
    return _normalize_answer(gold_answer) in _normalize_answer(response)


# --- condition runner ------------------------------------------------------------


GeneratorFactory = Callable[[QAItem], GeneratorFn]


def mock_factory(
    behavior: MockBehavior, rules: Sequence[PredicateRule] = ()
) -> GeneratorFactory:
    """Per-item mock generators keyed on each item's gold answer."""

    def for_item(item: QAItem) -> GeneratorFn:
        return mock_generator(behavior, answer_key=item.gold_answer, rules=rules)

    return for_item


def run_condition(
    condition: Condition,
    dataset: Sequence[QAItem],
    graph: Graph,
    constraints: ConstraintSet,
    generator: GeneratorFactory,
    lexicon: Lexicon,
    rules: Sequence[PredicateRule],
    max_hops: int = 3,
    jobs: int = 1,
) -> list[ResultRecord]:
    """Run one experiment condition over the dataset, one record per item.

    Each item runs its condition's pipeline once: the gate (`run_pipeline`)
    under ORACLE, otherwise the generator alone, with no context under
    BASELINE and the retrieved one under CONTEXT_ONLY. Its record is one of
    four: failed, an ungated answer, a licensed answer, or a gate
    abstention. `generator` is a per-item factory so mocks can key their
    behavior on the item's gold answer. Generator failures are recorded per
    item as abstentions with the failure flag set; they never abort the run.
    """

    def run_item(item: QAItem) -> ResultRecord:
        record = partial(ResultRecord, item.id, condition=condition)
        gen = generator(item)
        gated = condition is Condition.ORACLE
        try:
            if gated:
                decision = run_pipeline(
                    item.question, graph, constraints, gen, lexicon, rules,
                    max_hops=max_hops,
                )
                response = decision.response_text
            elif condition is Condition.CONTEXT_ONLY:
                context = build_context(item.question, graph, lexicon, max_hops)
                response = gen(item.question, context)
            else:
                response = gen(item.question, "")
        except GeneratorError:
            return record(Responded.ABSTAINED, None, False, failed=True)
        # Without the gate nothing abstains: every response is graded.
        if not gated or decision.verdict is Verdict.ANSWER:
            correct = answer_matches(response, item.gold_answer)
            return record(Responded.ANSWERED, correct, licensed=gated)
        # Both flags re-derive the gate's rule from the audits instead of
        # reading the verdict, so a wrong abstention would lower AP.
        audits = decision.audits
        appropriate = (not audits) or any(not a.entailed for a in audits)
        cited_violation = any(a.violations for a in audits)
        return record(
            Responded.ABSTAINED, None, False,
            rejected_violation=item.violates_constraints and cited_violation,
            appropriate_abstention=appropriate,
        )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_item, dataset))
    return [run_item(item) for item in dataset]


# --- metrics ----------------------------------------------------------------------


# The five metrics, in report order, as (report column, EvalMetrics field,
# numerator, denominator, cell format spec). The numerator and denominator
# are MetricCounts fields; a metric with a denominator of 0 is None.
_METRICS = (
    ("accuracy", "accuracy", "correct_answered", "total", ".1%"),
    ("AP", "abstention_precision", "appropriate_abstentions", "abstentions", ".3f"),
    ("CVRR", "cvrr", "violating_rejected", "violating_total", ".3f"),
    ("FAR-NE", "far_ne", "nonentailed_false_answers", "nonentailed_total", ".3f"),
    ("LA", "licensed_accuracy", "entailed_licensed_correct", "entailed_licensed", ".3f"),
)


def _ratio(numerator: int, denominator: int) -> Fraction | None:
    if denominator == 0:
        return None
    return Fraction(numerator, denominator)


def compute_metrics(
    dataset: Sequence[QAItem], records: Sequence[ResultRecord]
) -> EvalMetrics:
    """Score a result log against its dataset: count its records into
    MetricCounts, then take each metric of `_METRICS` as its numerator over
    its denominator.

    An abstention without an explicit appropriateness flag falls back to
    the item's entailment flag: abstaining on a non-entailed question is
    appropriate. Ingested external logs usually take this fallback. Each
    item is scored exactly once: a dataset that repeats an item id, a
    record of an unknown or already scored item id, or a log that skips a
    dataset item raises ValueError.
    """
    by_id: dict[str, QAItem] = {}
    for item in dataset:
        if item.id in by_id:
            raise ValueError(f"duplicate dataset item id {reprlib.repr(item.id)}")
        by_id[item.id] = item
    seen: set[str] = set()
    c: Counter[str] = Counter()
    for record in records:
        item_id = record.item_id
        item = by_id.get(item_id)
        if item is None:
            raise ValueError(f"result record of unknown item {reprlib.repr(item_id)}")
        if item_id in seen:
            raise ValueError(f"duplicate item id {reprlib.repr(item_id)}")
        seen.add(item_id)
        c["total"] += 1
        answered = record.responded is Responded.ANSWERED
        if answered:
            c["answered"] += 1
            if record.correct:
                c["correct_answered"] += 1
        else:
            c["abstentions"] += 1
            appropriate = record.appropriate_abstention
            if appropriate is None:
                appropriate = not item.entailed
            if appropriate:
                c["appropriate_abstentions"] += 1
        if item.violates_constraints:
            c["violating_total"] += 1
            if record.rejected_violation:
                c["violating_rejected"] += 1
        if not item.entailed:
            c["nonentailed_total"] += 1
            if answered and not record.correct:
                c["nonentailed_false_answers"] += 1
        else:
            if record.licensed:
                c["entailed_licensed"] += 1
                if answered and record.correct:
                    c["entailed_licensed_correct"] += 1
    if missing := [item.id for item in dataset if item.id not in seen]:
        raise ValueError(
            f"covers {len(seen)} of {len(dataset)} dataset items; "
            f"first missing {reprlib.repr(missing[0])}"
        )
    counts = MetricCounts(**c)
    return EvalMetrics(
        **{
            field: _ratio(getattr(counts, num), getattr(counts, den))
            for _, field, num, den, _ in _METRICS
        },
        counts=counts,
    )


# --- reporting --------------------------------------------------------------------


def render_report(rows: Sequence[tuple[str, EvalMetrics]]) -> str:
    """Fixed-width metrics table, one row per condition, in input order,
    one column per metric of `_METRICS`.

    Accuracy is a percentage to one decimal, the others are ratios to
    three; an undefined metric renders as "-". Values are point estimates
    from single runs (n=1), and the report says so.
    """
    name_width = max([len("condition")] + [len(name) for name, _ in rows])
    header = f"{'condition':<{name_width}}" + "".join(
        f"{column:>10}" for column, *_ in _METRICS
    )
    lines = [header]
    for name, metrics in rows:
        cells = (
            "-" if (value := getattr(metrics, field)) is None
            else format(float(value), spec)
            for _, field, _, _, spec in _METRICS
        )
        lines.append(
            f"{name:<{name_width}}" + "".join(f"{cell:>10}" for cell in cells)
        )
    if rows:
        lines.append("single evaluation run (n=1); point estimates only")
    return "\n".join(lines) + "\n"
