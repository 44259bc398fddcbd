"""Evaluation harness.

Loads QA datasets, runs one of three experiment conditions (ungrounded
baseline, retrieval without validation, or the full licensing gate), and
scores result logs with five epistemic-reliability metrics:

  accuracy              correct answers over all questions
  abstention precision  fraction of abstentions that were warranted
  CVRR                  planted constraint violations actually rejected
  FAR-NE                non-entailed questions wrongly answered
  licensed accuracy     correctness among licensed answers on entailed items

Metric values are exact fractions so each one reproduces its defining
ratio without rounding. Result logs are JSONL and can be re-scored without
re-running any generator.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .constraints import ConstraintSet
from .extraction import NUMBER_TOKEN_RE, Lexicon, PredicateRule
from .gate import AbstainReason, Verdict, build_context, run_pipeline
from .generators import GeneratorError, GeneratorFn, MockBehavior, mock_generator
from .kg import Graph, ParseError, Triple, parse_ntriples_line

T = TypeVar("T")


class DuplicateId(Exception):
    def __init__(self, item_id: str):
        super().__init__(f"duplicate item id {item_id!r}")
        self.item_id = item_id


class UnknownItem(Exception):
    def __init__(self, item_id: str):
        super().__init__(f"result record references unknown item {item_id!r}")
        self.item_id = item_id


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
        if self.entailed and self.gold_triple is None:
            raise ValueError(f"{self.id}: entailed item needs a gold triple")
        if self.violates_constraints and self.entailed:
            raise ValueError(
                f"{self.id}: a constraint-violating item cannot be entailed"
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

    def __post_init__(self) -> None:
        if self.responded is Responded.ABSTAINED and self.correct is not None:
            raise ValueError(f"{self.item_id}: abstained records carry no grade")
        if self.responded is Responded.ANSWERED and self.correct is None:
            raise ValueError(f"{self.item_id}: answered records need a grade")


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


def _flag(payload: dict, key: str, line: int) -> bool:
    """A true/false field, false when absent; anything else fails closed."""
    value = payload.get(key, False)
    if not isinstance(value, bool):
        raise ParseError(line, f"{key!r} must be true or false, got {value!r}")
    return value


def _optional_flag(payload: dict, key: str, line: int) -> bool | None:
    """A true/false/null field, null when absent."""
    value = payload.get(key)
    if value is not None and not isinstance(value, bool):
        raise ParseError(
            line, f"{key!r} must be true, false or null, got {value!r}"
        )
    return value


def _parse_item(payload: dict, line: int) -> QAItem:
    if not isinstance(payload, dict):
        raise ParseError(line, "expected a JSON object")
    for key in ("id", "question", "gold_answer", "entailed"):
        if key not in payload:
            raise ParseError(line, f"missing field {key!r}")
    gold_triple = None
    if payload.get("gold_triple") is not None:
        try:
            gold_triple = parse_ntriples_line(payload["gold_triple"])
        except ValueError as exc:
            raise ParseError(line, f"bad gold_triple: {exc}") from exc
    try:
        return QAItem(
            id=str(payload["id"]),
            question=str(payload["question"]),
            gold_answer=str(payload["gold_answer"]),
            entailed=_flag(payload, "entailed", line),
            gold_triple=gold_triple,
            violates_constraints=_flag(payload, "violates_constraints", line),
        )
    except ValueError as exc:
        raise ParseError(line, str(exc)) from exc


def _read_jsonl(
    path: str | Path, parse: Callable[[dict, int], T], key: Callable[[T], str]
) -> list[T]:
    """`parse(payload, line)` over each non-blank line of a JSONL file; the
    `key` of each parsed value must be unique."""
    values: list[T] = []
    seen: set[str] = set()
    text = Path(path).read_text(encoding="utf-8")
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(number, f"bad JSON: {exc}") from exc
        value = parse(payload, number)
        if (value_key := key(value)) in seen:
            raise DuplicateId(value_key)
        seen.add(value_key)
        values.append(value)
    return values


def load_dataset(path: str | Path) -> list[QAItem]:
    """Load a JSONL QA dataset; ids must be unique."""
    return _read_jsonl(path, _parse_item, lambda item: item.id)


def record_to_dict(record: ResultRecord) -> dict:
    return {
        "item_id": record.item_id,
        "responded": record.responded.value,
        "correct": record.correct,
        "licensed": record.licensed,
        "rejected_violation": record.rejected_violation,
        "appropriate_abstention": record.appropriate_abstention,
        "failed": record.failed,
    }


def record_from_dict(payload: dict, line: int = 0) -> ResultRecord:
    if not isinstance(payload, dict):
        raise ParseError(line, "expected a JSON object")
    try:
        return ResultRecord(
            item_id=str(payload["item_id"]),
            responded=Responded(payload["responded"]),
            correct=_optional_flag(payload, "correct", line),
            licensed=_flag(payload, "licensed", line),
            rejected_violation=_flag(payload, "rejected_violation", line),
            appropriate_abstention=_optional_flag(
                payload, "appropriate_abstention", line
            ),
            failed=_flag(payload, "failed", line),
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(line, f"bad result record: {exc}") from exc


def write_result_log(records: Iterable[ResultRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record), sort_keys=True) + "\n")


def read_result_log(path: str | Path) -> list[ResultRecord]:
    """Ingest a ResultRecord JSONL, e.g. a published external run; item
    ids must be unique."""
    return _read_jsonl(path, record_from_dict, lambda record: record.item_id)


# --- grading -------------------------------------------------------------------


def _canonical_number(token: str) -> str:
    return format(Decimal(token).normalize(), "f")


def _normalize_answer(text: str) -> str:
    lowered = NUMBER_TOKEN_RE.sub(lambda m: _canonical_number(m.group(0)), text.lower())
    return re.sub(r"\s+", " ", lowered).strip()


def answer_matches(response: str, gold_answer: str) -> bool:
    """Containment grading: the normalized gold answer appears in the
    normalized response. Case-folded; numbers compared in canonical form."""
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
    abstain_on_no_claims: bool = True,
) -> list[ResultRecord]:
    """Run one experiment condition over the dataset.

    `generator` is a per-item factory so mocks can key their behavior on
    the item's gold answer. Generator failures are recorded per item as
    abstentions with the failure flag set; they never abort the run.
    """

    def run_item(item: QAItem) -> ResultRecord:
        gen = generator(item)
        try:
            if condition is Condition.ORACLE:
                return _run_oracle_item(item, gen)
            return _run_ungated_item(item, gen)
        except GeneratorError:
            return ResultRecord(
                item_id=item.id,
                responded=Responded.ABSTAINED,
                correct=None,
                licensed=False,
                failed=True,
            )

    def _run_ungated_item(item: QAItem, gen: GeneratorFn) -> ResultRecord:
        context = ""
        if condition is Condition.CONTEXT_ONLY:
            context = build_context(item.question, graph, lexicon, max_hops)
        response = gen(item.question, context)
        # No abstention mechanism: the response is always graded as answered.
        return ResultRecord(
            item_id=item.id,
            responded=Responded.ANSWERED,
            correct=answer_matches(response, item.gold_answer),
            licensed=False,
        )

    def _run_oracle_item(item: QAItem, gen: GeneratorFn) -> ResultRecord:
        decision = run_pipeline(
            item.question, graph, constraints, gen, lexicon, rules,
            max_hops=max_hops, abstain_on_no_claims=abstain_on_no_claims,
        )
        if decision.verdict is Verdict.ANSWER:
            return ResultRecord(
                item_id=item.id,
                responded=Responded.ANSWERED,
                correct=answer_matches(decision.response_text, item.gold_answer),
                licensed=True,
            )
        audits = decision.audits
        appropriate = (not audits) or any(
            (not a.entailed) or a.violations for a in audits
        )
        cited_violation = (
            decision.abstain_reason is AbstainReason.CONSTRAINT_VIOLATION
            or any(a.violations for a in audits)
        )
        return ResultRecord(
            item_id=item.id,
            responded=Responded.ABSTAINED,
            correct=None,
            licensed=False,
            rejected_violation=item.violates_constraints and cited_violation,
            appropriate_abstention=appropriate,
        )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_item, dataset))
    return [run_item(item) for item in dataset]


# --- metrics ----------------------------------------------------------------------


def _ratio(numerator: int, denominator: int) -> Fraction | None:
    if denominator == 0:
        return None
    return Fraction(numerator, denominator)


def compute_metrics(
    dataset: Sequence[QAItem], records: Sequence[ResultRecord]
) -> EvalMetrics:
    """Score a result log against its dataset.

    An abstention without an explicit appropriateness flag falls back to
    the item's entailment flag: abstaining on a non-entailed question is
    appropriate. Ingested external logs usually take this fallback. Each
    item is scored at most once: a repeated item id raises DuplicateId.
    """
    by_id = {item.id: item for item in dataset}
    seen: set[str] = set()
    c: Counter[str] = Counter()
    for record in records:
        item = by_id.get(record.item_id)
        if item is None:
            raise UnknownItem(record.item_id)
        if record.item_id in seen:
            raise DuplicateId(record.item_id)
        seen.add(record.item_id)
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
    counts = MetricCounts(**c)
    return EvalMetrics(
        accuracy=_ratio(counts.correct_answered, counts.total),
        abstention_precision=_ratio(
            counts.appropriate_abstentions, counts.abstentions
        ),
        cvrr=_ratio(counts.violating_rejected, counts.violating_total),
        far_ne=_ratio(counts.nonentailed_false_answers, counts.nonentailed_total),
        licensed_accuracy=_ratio(
            counts.entailed_licensed_correct, counts.entailed_licensed
        ),
        counts=counts,
    )


# --- reporting --------------------------------------------------------------------


_REPORT_COLUMNS = ("accuracy", "AP", "CVRR", "FAR-NE", "LA")


def _fmt_percent(value: Fraction | None) -> str:
    return "-" if value is None else f"{float(value) * 100:.1f}%"


def _fmt_ratio(value: Fraction | None) -> str:
    return "-" if value is None else f"{float(value):.3f}"


def render_report(rows: Sequence[tuple[str, EvalMetrics]]) -> str:
    """Fixed-width metrics table, one row per condition, in input order.

    Percentages to one decimal, ratios to three; undefined metrics render
    as "-". Values are point estimates from single runs (n=1), and the
    report says so.
    """
    name_width = max([len("condition")] + [len(name) for name, _ in rows])
    header = f"{'condition':<{name_width}}" + "".join(
        f"{col:>10}" for col in _REPORT_COLUMNS
    )
    lines = [header]
    for name, metrics in rows:
        cells = [
            _fmt_percent(metrics.accuracy),
            _fmt_ratio(metrics.abstention_precision),
            _fmt_ratio(metrics.cvrr),
            _fmt_ratio(metrics.far_ne),
            _fmt_ratio(metrics.licensed_accuracy),
        ]
        lines.append(
            f"{name:<{name_width}}" + "".join(f"{cell:>10}" for cell in cells)
        )
    if rows:
        lines.append("single evaluation run (n=1); point estimates only")
    return "\n".join(lines) + "\n"
