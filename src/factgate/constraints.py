"""Declarative constraint engine.

Seven constraint families cover the formal rules a knowledge graph (and any
claim hypothetically inserted into it) must satisfy: object typing, numeric
bounds, property ordering, conditional requirements, and temporal interval
overlap. Constraints are declared in a line-oriented manifest and evaluated
either graph-wide or against a single claim.

Bound and ordering checks use exact decimal comparison; only numeric
*equality* elsewhere is tolerant. Nodes missing a constrained property are
skipped, except under ConditionalRequirement which demands presence.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Sequence

from .kg import (
    RDF_TYPE,
    Graph,
    Iri,
    Literal,
    Triple,
    decimal_lexical,
    parse_decimal,
)


class ManifestError(Exception):
    """Raised on a malformed constraint manifest line."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


@dataclass(frozen=True)
class Violation:
    constraint_id: str
    focus: Iri
    triple: Triple | None
    message: str


@dataclass(frozen=True)
class ValidationReport:
    conforms: bool
    violations: tuple[Violation, ...]


def _instances_of(graph: Graph, cls: Iri) -> list[Iri]:
    return sorted(
        {t.subject for t in graph.match(p=RDF_TYPE, o=cls)}, key=lambda i: i.value
    )


def _has_type(graph: Graph, node: Iri, cls: Iri) -> bool:
    return graph.contains(Triple(node, RDF_TYPE, cls))


def _numeric_values(graph: Graph, node: Iri, prop: Iri) -> list[tuple[Decimal, Triple]]:
    out = []
    for t in graph.match(s=node, p=prop):
        if isinstance(t.object, Literal) and t.object.is_numeric:
            out.append((t.object.numeric, t))
    return out


@dataclass(frozen=True)
class ClassOfObject:
    """Objects of `predicate` must be IRIs typed as `target_class`."""

    id: str
    predicate: Iri
    target_class: Iri

    def evaluate(self, graph: Graph) -> list[Violation]:
        out = []
        for t in graph.match(p=self.predicate):
            obj = t.object
            if isinstance(obj, Iri) and _has_type(graph, obj, self.target_class):
                continue
            shown = obj.value if isinstance(obj, Iri) else obj.lexical
            out.append(
                Violation(
                    self.id,
                    t.subject,
                    t,
                    f"object {shown!r} of <{self.predicate.value}> is not "
                    f"typed <{self.target_class.value}>",
                )
            )
        return out


@dataclass(frozen=True)
class NumericBound:
    """Shared evaluator for min_exclusive / min_inclusive / max_inclusive."""

    id: str
    kind: str
    target_class: Iri
    property: Iri
    bound: Decimal

    def _ok(self, value: Decimal) -> bool:
        if self.kind == "min_exclusive":
            return value > self.bound
        if self.kind == "min_inclusive":
            return value >= self.bound
        return value <= self.bound  # max_inclusive

    def evaluate(self, graph: Graph) -> list[Violation]:
        op = {"min_exclusive": ">", "min_inclusive": ">=", "max_inclusive": "<="}[
            self.kind
        ]
        out = []
        for node in _instances_of(graph, self.target_class):
            for value, t in _numeric_values(graph, node, self.property):
                if not self._ok(value):
                    out.append(
                        Violation(
                            self.id,
                            node,
                            t,
                            f"<{self.property.value}> value "
                            f"{decimal_lexical(value)} is not {op} "
                            f"{decimal_lexical(self.bound)}",
                        )
                    )
        return out


@dataclass(frozen=True)
class LessThanProperty:
    """On `target_class` nodes, every `lesser` value < every `greater` value."""

    id: str
    target_class: Iri
    lesser: Iri
    greater: Iri

    def evaluate(self, graph: Graph) -> list[Violation]:
        out = []
        for node in _instances_of(graph, self.target_class):
            lesser_vals = _numeric_values(graph, node, self.lesser)
            greater_vals = _numeric_values(graph, node, self.greater)
            for lv, lt in lesser_vals:
                for gv, _ in greater_vals:
                    if not lv < gv:
                        out.append(
                            Violation(
                                self.id,
                                node,
                                lt,
                                f"<{self.lesser.value}> {decimal_lexical(lv)} is "
                                f"not strictly less than <{self.greater.value}> "
                                f"{decimal_lexical(gv)}",
                            )
                        )
        return out


@dataclass(frozen=True)
class ConditionalRequirement:
    """(s, predicate, o) with o typed `object_class` requires
    (s, required_predicate, required_object)."""

    id: str
    predicate: Iri
    object_class: Iri
    required_predicate: Iri
    required_object: Iri

    def evaluate(self, graph: Graph) -> list[Violation]:
        out = []
        for t in graph.match(p=self.predicate):
            if not isinstance(t.object, Iri):
                continue
            if not _has_type(graph, t.object, self.object_class):
                continue
            required = Triple(t.subject, self.required_predicate, self.required_object)
            if not graph.contains(required):
                out.append(
                    Violation(
                        self.id,
                        t.subject,
                        t,
                        f"<{t.subject.value}> has <{self.predicate.value}> "
                        f"<{t.object.value}> but lacks "
                        f"<{self.required_predicate.value}> "
                        f"<{self.required_object.value}>",
                    )
                )
        return out


@dataclass(frozen=True)
class IntervalOverlap:
    """For (a, predicate, b), the [start, end] intervals of a and b must
    overlap (closed intervals, non-strict at endpoints)."""

    id: str
    predicate: Iri
    start: Iri
    end: Iri

    def _interval(self, graph: Graph, node: Iri) -> tuple[Decimal, Decimal] | None:
        starts = [v for v, _ in _numeric_values(graph, node, self.start)]
        ends = [v for v, _ in _numeric_values(graph, node, self.end)]
        if not starts or not ends:
            return None
        # Multi-valued endpoints take the widest reading.
        return min(starts), max(ends)

    def evaluate(self, graph: Graph) -> list[Violation]:
        out = []
        for t in graph.match(p=self.predicate):
            if not isinstance(t.object, Iri):
                continue
            a = self._interval(graph, t.subject)
            b = self._interval(graph, t.object)
            if a is None or b is None:
                continue
            if a[0] <= b[1] and b[0] <= a[1]:
                continue
            out.append(
                Violation(
                    self.id,
                    t.subject,
                    t,
                    f"intervals of <{t.subject.value}> "
                    f"[{decimal_lexical(a[0])}, {decimal_lexical(a[1])}] and "
                    f"<{t.object.value}> "
                    f"[{decimal_lexical(b[0])}, {decimal_lexical(b[1])}] "
                    f"do not overlap",
                )
            )
        return out


Constraint = (
    ClassOfObject
    | NumericBound
    | LessThanProperty
    | ConditionalRequirement
    | IntervalOverlap
)


@dataclass(frozen=True)
class ConstraintSet:
    constraints: tuple[Constraint, ...]

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)


def _parse_kv(tokens: Sequence[str], line: int) -> dict[str, str]:
    kv: dict[str, str] = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or not key or not value:
            raise ManifestError(line, f"expected key=value, got {token!r}")
        if key in kv:
            raise ManifestError(line, f"duplicate key {key!r}")
        kv[key] = value
    return kv


def _take_iri(kv: dict[str, str], key: str, line: int) -> Iri:
    try:
        raw = kv.pop(key)
    except KeyError:
        raise ManifestError(line, f"missing parameter {key!r}") from None
    if not (raw.startswith("<") and raw.endswith(">")):
        raise ManifestError(line, f"{key} must be an angle-bracketed IRI: {raw!r}")
    try:
        return Iri(raw[1:-1])
    except ValueError as exc:
        raise ManifestError(line, str(exc)) from exc


def _take_decimal(kv: dict[str, str], key: str, line: int) -> Decimal:
    try:
        raw = kv.pop(key)
    except KeyError:
        raise ManifestError(line, f"missing parameter {key!r}") from None
    try:
        return parse_decimal(raw)
    except ValueError as exc:
        raise ManifestError(line, str(exc)) from exc


def parse_manifest(text: str) -> ConstraintSet:
    """Parse a constraint manifest: one `<id> <kind> key=value ...` per line."""
    constraints: list[Constraint] = []
    seen_ids: set[str] = set()
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ManifestError(number, "expected `<id> <kind> key=value ...`")
        cid, kind = tokens[0], tokens[1]
        if cid in seen_ids:
            raise ManifestError(number, f"duplicate constraint id {cid!r}")
        seen_ids.add(cid)
        kv = _parse_kv(tokens[2:], number)
        constraint: Constraint
        if kind == "class_of_object":
            constraint = ClassOfObject(
                cid,
                predicate=_take_iri(kv, "predicate", number),
                target_class=_take_iri(kv, "class", number),
            )
        elif kind in ("min_exclusive", "min_inclusive", "max_inclusive"):
            constraint = NumericBound(
                cid,
                kind,
                target_class=_take_iri(kv, "class", number),
                property=_take_iri(kv, "property", number),
                bound=_take_decimal(kv, "bound", number),
            )
        elif kind == "less_than_property":
            constraint = LessThanProperty(
                cid,
                target_class=_take_iri(kv, "class", number),
                lesser=_take_iri(kv, "lesser", number),
                greater=_take_iri(kv, "greater", number),
            )
        elif kind == "conditional_requirement":
            constraint = ConditionalRequirement(
                cid,
                predicate=_take_iri(kv, "predicate", number),
                object_class=_take_iri(kv, "object_class", number),
                required_predicate=_take_iri(kv, "required_predicate", number),
                required_object=_take_iri(kv, "required_object", number),
            )
        elif kind == "interval_overlap":
            constraint = IntervalOverlap(
                cid,
                predicate=_take_iri(kv, "predicate", number),
                start=_take_iri(kv, "start", number),
                end=_take_iri(kv, "end", number),
            )
        else:
            raise ManifestError(number, f"unknown constraint kind {kind!r}")
        if kv:
            raise ManifestError(number, f"unexpected parameters: {sorted(kv)}")
        constraints.append(constraint)
    return ConstraintSet(tuple(constraints))


def validate_graph(graph: Graph, constraints: ConstraintSet) -> ValidationReport:
    """Evaluate every constraint against the whole graph."""
    violations: list[Violation] = []
    for constraint in constraints:
        found = constraint.evaluate(graph)
        found.sort(key=lambda v: (v.focus.value, v.message))
        violations.extend(found)
    return ValidationReport(conforms=not violations, violations=tuple(violations))


def validate_claim(
    claim_triple: Triple, graph: Graph, constraints: ConstraintSet
) -> list[Violation]:
    """Violations a claim would introduce if asserted.

    The claim is inserted into a copy of the graph and the full validation
    runs; only violations focused on the claim's subject, or citing the
    claim itself, are attributed to it.
    """
    augmented = Graph(list(graph.triples) + [claim_triple])
    report = validate_graph(augmented, constraints)
    return [
        v
        for v in report.violations
        if v.focus == claim_triple.subject or v.triple == claim_triple
    ]
