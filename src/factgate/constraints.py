"""Declarative constraint engine.

Seven constraint families cover the formal rules a knowledge graph (and any
claim hypothetically inserted into it) must satisfy: object typing, numeric
bounds, property ordering, conditional requirements, and temporal interval
overlap. Constraints are declared in a line-oriented manifest. A graph is
validated whole; a claim is charged with exactly the violations that
asserting it would add, found by re-checking only the nodes it touches.

Bound and ordering checks use exact decimal comparison; only numeric
*equality* elsewhere is tolerant. Nodes missing a constrained property are
skipped, except under ConditionalRequirement which demands presence.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from decimal import Decimal
from functools import cache, partial
from typing import Callable

from .kg import (
    RDF_TYPE,
    Graph,
    Iri,
    Literal,
    ParseError,
    Term,
    Triple,
    content_lines,
    decimal_lexical,
    parse_kv,
    take_decimal,
    take_iri,
    term_matches,
    triple_sort_key,
)


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


def _violation_order(v: Violation) -> tuple:
    """Order within one constraint's violations: focus, message, triple."""
    return (v.focus.value, v.message, triple_sort_key(v.triple) if v.triple else ())


class _GraphPlusClaim:
    """Read-only view of a graph plus one triple it does not hold. It answers
    the only two queries the checks make, `match` and `contains`."""

    __slots__ = ("graph", "claim")

    def __init__(self, graph: Graph, claim: Triple):
        self.graph = graph
        self.claim = claim

    def _claim_matches(self, s: Iri | None, p: Iri | None, o: Term | None) -> bool:
        c = self.claim
        return (
            (s is None or c.subject == s)
            and (p is None or c.predicate == p)
            and (o is None or term_matches(c.object, o))
        )

    def match(
        self, s: Iri | None = None, p: Iri | None = None, o: Term | None = None
    ) -> list[Triple]:
        found = self.graph.match(s, p, o)
        if self._claim_matches(s, p, o):
            found.append(self.claim)
        return found

    def contains(self, triple: Triple) -> bool:
        return self.graph.contains(triple) or self._claim_matches(
            triple.subject, triple.predicate, triple.object
        )


_GraphLike = Graph | _GraphPlusClaim


def _instances_of(graph: Graph, cls: Iri) -> list[Iri]:
    return sorted(
        {t.subject for t in graph.match(p=RDF_TYPE, o=cls)}, key=lambda i: i.value
    )


# The instances of a class, computed once per `validate_graph` call and
# shared by the node checks that target it.
_Instances = Callable[[Iri], list[Iri]]


def _has_type(graph: _GraphLike, node: Iri, cls: Iri) -> bool:
    return graph.contains(Triple(node, RDF_TYPE, cls))


def _numeric_values(
    graph: _GraphLike, node: Iri, prop: Iri
) -> list[tuple[Decimal, Triple]]:
    out = []
    for t in graph.match(s=node, p=prop):
        if isinstance(t.object, Literal) and t.object.is_numeric:
            out.append((t.object.numeric, t))
    return out


# Each constraint is a loop over one per-unit check. A node check's units are
# the instances of its target class; a triple check's units are the triples
# of its predicate. Every check reads only triples whose subject is the
# unit's node, or the subject or object of the unit triple, and every
# violation it reports carries that node as its focus (node checks) or that
# triple as its triple (triple checks). So asserting a claim can change the
# violations of only the units that touch the claim's subject, plus the claim
# itself as a new unit: that is what `check_around` re-checks.


class _NodeCheck:
    """Units are the instances of `target_class`; subclasses define
    `check_node(graph, node)` for one instance."""

    def evaluate(self, graph: Graph, instances: _Instances) -> list[Violation]:
        return [
            v
            for node in instances(self.target_class)
            for v in self.check_node(graph, node)
        ]

    def check_around(self, graph: _GraphLike, node: Iri) -> list[Violation]:
        """Violations of the units whose check reads triples of `node`."""
        if not _has_type(graph, node, self.target_class):
            return []
        return self.check_node(graph, node)


class _TripleCheck:
    """Units are the triples of `predicate`; subclasses define
    `check_triple(graph, t)` for one of them."""

    def evaluate(self, graph: Graph, instances: _Instances) -> list[Violation]:
        return [
            v
            for t in graph.match(p=self.predicate)
            for v in self.check_triple(graph, t)
        ]

    def check_around(self, graph: _GraphLike, node: Iri) -> list[Violation]:
        """Violations of the units whose check reads triples of `node`."""
        incoming = graph.match(p=self.predicate, o=node)
        units = graph.match(s=node, p=self.predicate) + [
            t for t in incoming if t.subject != node
        ]
        return [v for t in units for v in self.check_triple(graph, t)]


@dataclass(frozen=True)
class ClassOfObject(_TripleCheck):
    """Objects of `predicate` must be IRIs typed as `target_class`."""

    id: str
    predicate: Iri
    target_class: Iri

    def check_triple(self, graph: _GraphLike, t: Triple) -> list[Violation]:
        obj = t.object
        if isinstance(obj, Iri) and _has_type(graph, obj, self.target_class):
            return []
        shown = obj.value if isinstance(obj, Iri) else obj.lexical
        return [
            Violation(
                self.id,
                t.subject,
                t,
                f"object {shown!r} of <{self.predicate.value}> is not "
                f"typed <{self.target_class.value}>",
            )
        ]


# Each bound kind: the symbol its message shows, and the check a value passes.
_BOUNDS = {
    "min_exclusive": (">", operator.gt),
    "min_inclusive": (">=", operator.ge),
    "max_inclusive": ("<=", operator.le),
}


@dataclass(frozen=True)
class NumericBound(_NodeCheck):
    """Shared evaluator for min_exclusive / min_inclusive / max_inclusive."""

    id: str
    kind: str
    target_class: Iri
    property: Iri
    bound: Decimal

    def check_node(self, graph: _GraphLike, node: Iri) -> list[Violation]:
        symbol, ok = _BOUNDS[self.kind]
        out = []
        for value, t in _numeric_values(graph, node, self.property):
            if not ok(value, self.bound):
                out.append(
                    Violation(
                        self.id,
                        node,
                        t,
                        f"<{self.property.value}> value "
                        f"{decimal_lexical(value)} is not {symbol} "
                        f"{decimal_lexical(self.bound)}",
                    )
                )
        return out


@dataclass(frozen=True)
class LessThanProperty(_NodeCheck):
    """On `target_class` nodes, every `lesser` value < every `greater` value."""

    id: str
    target_class: Iri
    lesser: Iri
    greater: Iri

    def check_node(self, graph: _GraphLike, node: Iri) -> list[Violation]:
        out = []
        greater_vals = _numeric_values(graph, node, self.greater)
        for lv, lt in _numeric_values(graph, node, self.lesser):
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
class ConditionalRequirement(_TripleCheck):
    """(s, predicate, o) with o typed `object_class` requires
    (s, required_predicate, required_object)."""

    id: str
    predicate: Iri
    object_class: Iri
    required_predicate: Iri
    required_object: Iri

    def check_triple(self, graph: _GraphLike, t: Triple) -> list[Violation]:
        if not isinstance(t.object, Iri):
            return []
        if not _has_type(graph, t.object, self.object_class):
            return []
        required = Triple(t.subject, self.required_predicate, self.required_object)
        if graph.contains(required):
            return []
        return [
            Violation(
                self.id,
                t.subject,
                t,
                f"<{t.subject.value}> has <{self.predicate.value}> "
                f"<{t.object.value}> but lacks "
                f"<{self.required_predicate.value}> "
                f"<{self.required_object.value}>",
            )
        ]


@dataclass(frozen=True)
class IntervalOverlap(_TripleCheck):
    """For (a, predicate, b), the [start, end] intervals of a and b must
    overlap (closed intervals, non-strict at endpoints)."""

    id: str
    predicate: Iri
    start: Iri
    end: Iri

    def _interval(
        self, graph: _GraphLike, node: Iri
    ) -> tuple[Decimal, Decimal] | None:
        starts = [v for v, _ in _numeric_values(graph, node, self.start)]
        ends = [v for v, _ in _numeric_values(graph, node, self.end)]
        if not starts or not ends:
            return None
        # Multi-valued endpoints take the widest reading.
        return min(starts), max(ends)

    def check_triple(self, graph: _GraphLike, t: Triple) -> list[Violation]:
        if not isinstance(t.object, Iri):
            return []
        a = self._interval(graph, t.subject)
        b = self._interval(graph, t.object)
        if a is None or b is None:
            return []
        if a[0] <= b[1] and b[0] <= a[1]:
            return []
        return [
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
        ]


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


# Each manifest kind's class. A line's parameters are the class's fields
# after `id` (and `kind`), read in field order, with `target_class` spelled
# `class`: a `Decimal` field takes a plain decimal, any other an IRI.
_KINDS = {
    "class_of_object": ClassOfObject,
    **dict.fromkeys(_BOUNDS, NumericBound),
    "less_than_property": LessThanProperty,
    "conditional_requirement": ConditionalRequirement,
    "interval_overlap": IntervalOverlap,
}


def parse_manifest(text: str) -> ConstraintSet:
    """Parse a constraint manifest: one `<id> <kind> key=value ...` per line."""
    constraints: list[Constraint] = []
    seen_ids: set[str] = set()
    for number, line in content_lines(text):
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError(number, "expected `<id> <kind> key=value ...`")
        cid, kind = tokens[0], tokens[1]
        if cid in seen_ids:
            raise ParseError(number, f"duplicate constraint id {cid!r}")
        seen_ids.add(cid)
        kv = parse_kv(tokens[2:], number)
        cls = _KINDS.get(kind)
        if cls is None:
            raise ParseError(number, f"unknown constraint kind {kind!r}")
        params: dict[str, object] = {"id": cid, "kind": kind}
        for f in fields(cls):
            if f.name not in params:
                take = take_decimal if f.type == "Decimal" else take_iri
                key = "class" if f.name == "target_class" else f.name
                params[f.name] = take(kv, key, number)
        if kv:
            raise ParseError(number, f"unexpected parameters: {sorted(kv)}")
        constraints.append(cls(*(params[f.name] for f in fields(cls))))
    return ConstraintSet(tuple(constraints))


def validate_graph(graph: Graph, constraints: ConstraintSet) -> ValidationReport:
    """Evaluate every constraint against the whole graph."""
    violations: list[Violation] = []
    instances = cache(partial(_instances_of, graph))
    for constraint in constraints:
        violations.extend(
            sorted(constraint.evaluate(graph, instances), key=_violation_order)
        )
    return ValidationReport(conforms=not violations, violations=tuple(violations))


def validate_claim(
    claim_triple: Triple, graph: Graph, constraints: ConstraintSet
) -> list[Violation]:
    """Violations a claim would introduce if asserted.

    Exactly the set difference `violations(G + claim) - violations(G)` under
    `validate_graph`, in its order: a violation the graph already has is
    never attributed to the claim, and a new one is attributed wherever its
    focus lies. A claim the graph already holds adds nothing. Only the units
    around the claim's subject are re-checked, on the graph and on a view of
    the graph plus the claim; no graph is built.
    """
    node = claim_triple.subject
    if claim_triple in graph.match(node, claim_triple.predicate, claim_triple.object):
        return []
    with_claim = _GraphPlusClaim(graph, claim_triple)
    new: list[Violation] = []
    for constraint in constraints:
        before = set(constraint.check_around(graph, node))
        after = set(constraint.check_around(with_claim, node))
        new.extend(sorted(after - before, key=_violation_order))
    return new
