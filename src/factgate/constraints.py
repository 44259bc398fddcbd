"""Declarative constraint engine.

Seven constraint families cover the formal rules a knowledge graph (and any
claim hypothetically inserted into it) must satisfy: object typing, numeric
bounds, property ordering, conditional requirements, and temporal interval
overlap. Constraints are declared in a line-oriented manifest.

Every constraint has one shape: a check over the triples of one predicate,
each triple a unit, which takes its units as one batch. A whole graph is
validated by passing each constraint every unit of its predicate, a claim by
passing it the few units around the claim's subject; there is no per-unit
check. A type or requirement test is a lookup in the graph's subject set of
its (predicate, object) pair (Graph.subjects_of), built once per graph and
shared by every later call, and fetched once per check, not once per unit.
An ordering or interval test reads numbers the same way: the least or
greatest of a node's values of a predicate, one lookup in a map the graph
keeps per predicate (Graph.least, Graph.greatest).
A claim is charged with exactly the violations that asserting it would add,
found by re-checking only the units around its subject, up to the term
equality entailment uses (term_matches): a claim the graph entails adds
nothing, however its number is spelled.

Bound and ordering checks, like entailment, compare exact decimal values.
Nodes missing a constrained property are skipped, except under
ConditionalRequirement which demands presence.
"""

from __future__ import annotations

import operator
from collections import ChainMap
from collections.abc import Mapping
from dataclasses import dataclass, fields
from decimal import Decimal

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
    split_lines,
    take_decimal,
    take_iri,
    term_matches,
    triple_sort_key,
)


@dataclass(frozen=True)
class Violation:
    constraint_id: str
    focus: Iri
    triple: Triple
    message: str


@dataclass(frozen=True)
class ValidationReport:
    conforms: bool
    violations: tuple[Violation, ...]


def _violation_order(v: Violation) -> tuple:
    """Order within one constraint's violations: focus, message, triple."""
    return (v.focus.value, v.message, triple_sort_key(v.triple))


class _GraphPlusClaim:
    """Read-only view of a graph plus one triple it does not hold. It answers
    the queries the checks make of a graph: `match`, `subjects_of`, `holds`,
    `least` and `greatest`. `subjects_of` returns the graph's own set, or,
    for the claim's (predicate, object) pair, a copy with the claim's subject
    added, so the graph's kept sets never change; `holds` tests the same
    membership without the copy. `least` and `greatest` return the graph's
    own map, or, for a numeric claim of that predicate, the map under a
    one-entry layer holding the claim subject's value with the claim's
    number counted in; the graph's kept maps never change either."""

    __slots__ = ("graph", "claim")

    def __init__(self, graph: Graph, claim: Triple):
        self.graph, self.claim = graph, claim

    def _claim_matches(self, s: Iri | None, p: Iri, o: Term | None) -> bool:
        c = self.claim
        return (
            c.predicate == p
            and (s is None or c.subject == s)
            and (o is None or term_matches(c.object, o))
        )

    def match(
        self, *, s: Iri | None = None, p: Iri, o: Term | None = None
    ) -> list[Triple]:
        found = self.graph.match(s=s, p=p, o=o)
        if self._claim_matches(s, p, o):
            found.append(self.claim)
        return found

    def subjects_of(self, p: Iri, o: Iri) -> set[str]:
        found = self.graph.subjects_of(p, o)
        if self._claim_matches(None, p, o):
            return found | {self.claim.subject.value}
        return found

    def holds(self, s: Iri, p: Iri, o: Iri) -> bool:
        return self.graph.holds(s, p, o) or self._claim_matches(s, p, o)

    def least(self, p: Iri) -> Mapping[str, Decimal]:
        return self._with_claim(self.graph.least(p), p, operator.lt)

    def greatest(self, p: Iri) -> Mapping[str, Decimal]:
        return self._with_claim(self.graph.greatest(p), p, operator.gt)

    def _with_claim(
        self, kept: dict[str, Decimal], p: Iri, beats
    ) -> Mapping[str, Decimal]:
        """`kept` with the claim's number counted in, if the claim is a
        number of `p`. The graph's value stays on a tie: the view's `match`
        lists the claim after the graph's triples."""
        c = self.claim
        o = c.object
        if c.predicate != p or not isinstance(o, Literal) or o.numeric is None:
            return kept
        s = c.subject.value
        value = kept.get(s)
        if value is None or beats(o.numeric, value):
            value = o.numeric
        return ChainMap({s: value}, kept)


_View = Graph | _GraphPlusClaim


# Every constraint has one check shape: `check(graph, units)` on a batch of
# its units, which are triples of its `unit_predicate`; `evaluate` passes
# every unit of a graph, `check_around` the few around a claim. A check
# fetches the subject sets, number maps and parameters it needs once per
# call, then tests each unit, and builds a violation's message only for a
# unit that fails. A constraint with a `unit_class` (the numeric bounds and
# ordering) takes as units only the triples whose subject has that class, and
# its check reads only triples of the unit's subject. One without (object
# typing, requirements, intervals) takes every triple of the predicate, and
# its check reads triples of the unit's subject and, of its object, those of
# the predicates in `object_reads`. The graph is read only through `match`,
# `subjects_of` (and `holds`, a test in the same set), `least` and
# `greatest`, which a Graph answers from its own indexes, kept sets and kept
# maps, and every violation carries its unit as its triple and the unit's
# subject as its focus. So a claim (x, p, o) can touch only the units whose
# subject is x, if x has the unit class, and, for a check that reads p of
# objects, those whose object is x; the claim itself is one of the former
# once asserted. Those are the units `check_around` re-checks.


class _Check:
    unit_class: Iri | None = None
    unit_predicate = property(lambda self: self.predicate)
    object_reads: tuple[Iri, ...] = ()

    def evaluate(self, graph: Graph) -> list[Violation]:
        """The violations of every unit: one scan of the predicate's triples."""
        units = graph.match(p=self.unit_predicate)
        if self.unit_class is not None:
            typed = graph.subjects_of(RDF_TYPE, self.unit_class)
            units = [t for t in units if t.subject.value in typed]
        return self.check(graph, units)

    def check_around(self, graph: _View, claim: Triple) -> list[Violation]:
        """The violations of the units `claim` can touch."""
        p, cls, node = self.unit_predicate, self.unit_class, claim.subject
        if cls is None:
            units = graph.match(s=node, p=p)
            if claim.predicate in self.object_reads:
                incoming = graph.match(p=p, o=node)
                units += [t for t in incoming if t.subject != node]
        elif graph.holds(node, RDF_TYPE, cls):
            units = graph.match(s=node, p=p)
        else:
            return []
        return self.check(graph, units)

    def _violation(self, t: Triple, message: str) -> Violation:
        return Violation(self.id, t.subject, t, message)


@dataclass(frozen=True)
class ClassOfObject(_Check):
    """Objects of `predicate` must be IRIs typed as `target_class`."""

    id: str
    predicate: Iri
    target_class: Iri

    object_reads = (RDF_TYPE,)

    def check(self, graph: _View, units: list[Triple]) -> list[Violation]:
        typed = graph.subjects_of(RDF_TYPE, self.target_class)
        return [
            self._untyped(t)
            for t in units
            if not (isinstance(t.object, Iri) and t.object.value in typed)
        ]

    def _untyped(self, t: Triple) -> Violation:
        obj = t.object
        shown = obj.value if isinstance(obj, Iri) else obj.lexical
        message = f"object {shown!r} of <{self.predicate.value}> is not typed"
        return self._violation(t, f"{message} <{self.target_class.value}>")


# Each bound kind: the symbol its message shows, and the check a value passes.
_BOUNDS = {
    "min_exclusive": (">", operator.gt),
    "min_inclusive": (">=", operator.ge),
    "max_inclusive": ("<=", operator.le),
}


@dataclass(frozen=True)
class NumericBound(_Check):
    """Shared evaluator for min_exclusive / min_inclusive / max_inclusive.
    Units: the `property` triples of `target_class` nodes."""

    id: str
    kind: str
    target_class: Iri
    property: Iri
    bound: Decimal

    unit_class = property(lambda self: self.target_class)
    unit_predicate = property(lambda self: self.property)

    def check(self, graph: _View, units: list[Triple]) -> list[Violation]:
        symbol, ok = _BOUNDS[self.kind]
        bound = self.bound
        return [
            self._violation(
                t,
                f"<{self.property.value}> value {decimal_lexical(value)} is not "
                f"{symbol} {decimal_lexical(bound)}",
            )
            for t in units
            if isinstance(t.object, Literal)
            and (value := t.object.numeric) is not None
            and not ok(value, bound)
        ]


# The least `greater` value of a node that has none: every number is below it.
_NO_BOUND = Decimal("Infinity")


@dataclass(frozen=True)
class LessThanProperty(_Check):
    """On `target_class` nodes, every `lesser` value < every `greater` value.
    Units: the `lesser` triples of `target_class` nodes."""

    id: str
    target_class: Iri
    lesser: Iri
    greater: Iri

    unit_class = property(lambda self: self.target_class)
    unit_predicate = property(lambda self: self.lesser)

    def check(self, graph: _View, units: list[Triple]) -> list[Violation]:
        # A unit below its subject's least `greater` value passes; only one
        # that fails reads its `greater` triples, one violation each.
        least = graph.least(self.greater).get
        match, greater = graph.match, self.greater
        return [
            self._violation(
                t,
                f"<{self.lesser.value}> {decimal_lexical(lv)} is not strictly "
                f"less than <{greater.value}> {decimal_lexical(gv)}",
            )
            for t in units
            if isinstance(t.object, Literal)
            and (lv := t.object.numeric) is not None
            and not lv < least(t.subject.value, _NO_BOUND)
            for g in match(s=t.subject, p=greater)
            if isinstance(g.object, Literal)
            and (gv := g.object.numeric) is not None
            and not lv < gv
        ]


@dataclass(frozen=True)
class ConditionalRequirement(_Check):
    """(s, predicate, o) with o typed `object_class` requires
    (s, required_predicate, required_object)."""

    id: str
    predicate: Iri
    object_class: Iri
    required_predicate: Iri
    required_object: Iri

    object_reads = (RDF_TYPE,)

    def check(self, graph: _View, units: list[Triple]) -> list[Violation]:
        typed = graph.subjects_of(RDF_TYPE, self.object_class)
        having = graph.subjects_of(self.required_predicate, self.required_object)
        return [
            self._violation(
                t,
                f"<{t.subject.value}> has <{self.predicate.value}> "
                f"<{t.object.value}> but lacks <{self.required_predicate.value}> "
                f"<{self.required_object.value}>",
            )
            for t in units
            if isinstance(t.object, Iri)
            and t.object.value in typed
            and t.subject.value not in having
        ]


@dataclass(frozen=True)
class IntervalOverlap(_Check):
    """For (a, predicate, b), the [start, end] intervals of a and b must
    overlap (closed intervals, non-strict at endpoints)."""

    id: str
    predicate: Iri
    start: Iri
    end: Iri

    object_reads = property(lambda self: (self.start, self.end))

    def check(self, graph: _View, units: list[Triple]) -> list[Violation]:
        # Multi-valued endpoints take the widest reading.
        starts, ends = graph.least(self.start), graph.greatest(self.end)

        def interval(node: Iri) -> tuple[Decimal, Decimal] | None:
            key = node.value
            if key in starts and key in ends:
                return starts[key], ends[key]
            return None

        return [
            self._violation(
                t,
                f"intervals of <{t.subject.value}> "
                f"[{decimal_lexical(a[0])}, {decimal_lexical(a[1])}] and "
                f"<{t.object.value}> "
                f"[{decimal_lexical(b[0])}, {decimal_lexical(b[1])}] do not overlap",
            )
            for t in units
            if isinstance(t.object, Iri)
            and (a := interval(t.subject)) is not None
            and (b := interval(t.object)) is not None
            and not (a[0] <= b[1] and b[0] <= a[1])
        ]


Constraint = (
    ClassOfObject | NumericBound | LessThanProperty | ConditionalRequirement
    | IntervalOverlap
)

ConstraintSet = tuple[Constraint, ...]


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
    for number, line in content_lines(split_lines(text)):
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
    return tuple(constraints)


def validate_graph(graph: Graph, constraints: ConstraintSet) -> ValidationReport:
    """Evaluate every constraint against the whole graph."""
    violations: list[Violation] = []
    for constraint in constraints:
        violations.extend(sorted(constraint.evaluate(graph), key=_violation_order))
    return ValidationReport(conforms=not violations, violations=tuple(violations))


def validate_claim(
    claim_triple: Triple, graph: Graph, constraints: ConstraintSet
) -> list[Violation]:
    """Violations a claim would introduce if asserted.

    Exactly the set difference `violations(G + claim) - violations(G)` under
    `validate_graph`, in its order, taken up to the term equality entailment
    uses: a claim the graph entails (`Graph.contains`) adds nothing, however
    its number is spelled. A violation the graph already has is never
    attributed to the claim, and a new one is attributed wherever its focus
    lies. Only the units around the claim's subject are re-checked, on the
    graph and on a view of the graph plus the claim; no graph is built.
    """
    if graph.contains(claim_triple):
        return []
    with_claim = _GraphPlusClaim(graph, claim_triple)
    new: list[Violation] = []
    for constraint in constraints:
        before = set(constraint.check_around(graph, claim_triple))
        after = set(constraint.check_around(with_claim, claim_triple))
        new.extend(sorted(after - before, key=_violation_order))
    return new
