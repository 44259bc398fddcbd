from __future__ import annotations

import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factgate.constraints import (
    ClassOfObject,
    ConditionalRequirement,
    IntervalOverlap,
    LessThanProperty,
    NumericBound,
    ValidationReport,
    Violation,
    _GraphPlusClaim,
    parse_manifest,
    validate_claim,
    validate_graph,
)
from factgate.extraction import Claim
from factgate.gate import audit_claim, decide
from factgate.kg import (
    RDF_TYPE,
    RDF_TYPE_IRI,
    Datatype,
    Graph,
    Iri,
    Literal,
    ParseError,
    Triple,
    parse_ntriples,
    triple_sort_key,
)

from conftest import FIXTURES
from test_kg import _spelled, same_term

TYPE = f"<{RDF_TYPE_IRI}>"

RIVER_MANIFEST = f"""\
# rivers constraint set
C1 class_of_object predicate=<hasTributary> class=<River>
C2 min_exclusive class=<River> property=<sourceElevation> bound=0
C3 min_exclusive class=<River> property=<length> bound=0
C4 min_exclusive class=<River> property=<discharge> bound=0
C5 min_inclusive class=<River> property=<mouthElevation> bound=-100
C6 less_than_property class=<River> lesser=<mouthElevation> greater=<sourceElevation>
C7 conditional_requirement predicate=<traverses> object_class=<State> required_predicate=<inCountry> required_object=<United_States>
"""


def river(name: str, **props) -> str:
    lines = [f"<{name}> {TYPE} <River> ."]
    for prop, values in props.items():
        if not isinstance(values, list):
            values = [values]
        for v in values:
            if isinstance(v, str) and v.startswith("<"):
                lines.append(f"<{name}> <{prop}> {v} .")
            else:
                lines.append(f'<{name}> <{prop}> "{v}" .')
    return "\n".join(lines)


# --- manifest parsing -----------------------------------------------------


def test_parse_manifest_less_than_property_line():
    cs = parse_manifest(
        "C6 less_than_property class=<River> lesser=<mouthElevation> "
        "greater=<sourceElevation>"
    )
    assert len(cs) == 1
    c = cs[0]
    assert c.id == "C6"
    assert c.lesser == Iri("mouthElevation")
    assert c.greater == Iri("sourceElevation")


def test_empty_manifest_validates_everything():
    cs = parse_manifest("")
    g = parse_ntriples('<a> <p> "-5" .')
    assert validate_graph(g, cs).conforms


def test_unknown_kind_rejected():
    with pytest.raises(ParseError) as err:
        parse_manifest("X1 frobnicate class=<River>")
    assert err.value.line == 1


@pytest.mark.parametrize(
    "line",
    [
        "C2 min_exclusive class=<River> property=<sourceElevation>",  # missing bound
        "C2 min_exclusive class=<River> property=<sourceElevation> bound=abc",
        "C1 class_of_object predicate=hasTributary class=<River>",  # bare IRI
        "C1 class_of_object predicate=<hasTributary> class=<River> extra=<x>",
        "C1",  # no kind
    ],
)
def test_malformed_manifest_lines(line):
    with pytest.raises(ParseError):
        parse_manifest(line)


# Every key each manifest kind requires, in the order the parser reads them.
KIND_PARAMS = {
    "class_of_object": "predicate=<p> class=<C>",
    "min_exclusive": "class=<C> property=<p> bound=0",
    "min_inclusive": "class=<C> property=<p> bound=0",
    "max_inclusive": "class=<C> property=<p> bound=0",
    "less_than_property": "class=<C> lesser=<a> greater=<b>",
    "conditional_requirement": (
        "predicate=<p> object_class=<S> required_predicate=<q> required_object=<o>"
    ),
    "interval_overlap": "predicate=<p> start=<s> end=<e>",
}


@pytest.mark.parametrize("kind", KIND_PARAMS)
def test_each_kind_takes_exactly_its_parameters(kind):
    params = KIND_PARAMS[kind].split()
    (constraint,) = parse_manifest(f"X {kind} {' '.join(params)}")
    assert constraint.id == "X"
    for i, param in enumerate(params):
        key = param.partition("=")[0]
        rest = " ".join(params[:i] + params[i + 1 :])
        with pytest.raises(ParseError) as err:
            parse_manifest(f"X {kind} {rest}")
        assert err.value.reason == f"missing parameter {key!r}"
    with pytest.raises(ParseError) as err:
        parse_manifest(f"X {kind} {' '.join(params)} extra=<x>")
    assert err.value.reason == "unexpected parameters: ['extra']"


def test_duplicate_constraint_id_rejected():
    text = (
        "C2 min_exclusive class=<River> property=<sourceElevation> bound=0\n"
        "C2 min_exclusive class=<River> property=<length> bound=0\n"
    )
    with pytest.raises(ParseError) as err:
        parse_manifest(text)
    assert err.value.line == 2


# --- graph-wide validation -------------------------------------------------


def test_positive_source_elevation_conforms():
    g = parse_ntriples(river("River_Colorado", sourceElevation="2743.0"))
    report = validate_graph(g, parse_manifest(RIVER_MANIFEST))
    assert report.conforms


def test_uphill_river_violates_ordering():
    g = parse_ntriples(
        river("River_X", sourceElevation="100", mouthElevation="200")
    )
    report = validate_graph(g, parse_manifest(RIVER_MANIFEST))
    assert not report.conforms
    assert len(report.violations) == 1
    v = report.violations[0]
    assert v.constraint_id == "C6"
    assert v.focus == Iri("River_X")


def test_disjoint_lifespans_violate_interval_overlap():
    g = parse_ntriples(
        "\n".join(
            [
                f"<PhilA> {TYPE} <Philosopher> .",
                '<PhilA> <birthYear> "1600" .',
                '<PhilA> <deathYear> "1650" .',
                f"<PhilB> {TYPE} <Philosopher> .",
                '<PhilB> <birthYear> "1700" .',
                '<PhilB> <deathYear> "1770" .',
                "<PhilA> <influenced> <PhilB> .",
            ]
        )
    )
    cs = parse_manifest(
        "T1 interval_overlap predicate=<influenced> start=<birthYear> "
        "end=<deathYear>"
    )
    report = validate_graph(g, cs)
    assert len(report.violations) == 1
    assert report.violations[0].focus == Iri("PhilA")


def test_interval_overlap_endpoint_touch_is_allowed():
    # Death year equal to the other's birth year still counts as overlap.
    g = parse_ntriples(
        "\n".join(
            [
                '<A> <birthYear> "1600" .',
                '<A> <deathYear> "1650" .',
                '<B> <birthYear> "1650" .',
                '<B> <deathYear> "1700" .',
                "<A> <influenced> <B> .",
            ]
        )
    )
    cs = parse_manifest(
        "T1 interval_overlap predicate=<influenced> start=<birthYear> end=<deathYear>"
    )
    assert validate_graph(g, cs).conforms


def test_interval_overlap_skips_nodes_without_years():
    g = parse_ntriples("<A> <influenced> <B> .")
    cs = parse_manifest(
        "T1 interval_overlap predicate=<influenced> start=<birthYear> end=<deathYear>"
    )
    assert validate_graph(g, cs).conforms


def test_class_of_object_flags_untyped_and_literal_objects():
    g = parse_ntriples(
        "\n".join(
            [
                f"<River_X> {TYPE} <River> .",
                "<River_X> <hasTributary> <Lake_Y> .",
                f"<Lake_Y> {TYPE} <Lake> .",
                '<River_X> <hasTributary> "not an entity" .',
            ]
        )
    )
    report = validate_graph(g, parse_manifest(RIVER_MANIFEST))
    c1 = [v for v in report.violations if v.constraint_id == "C1"]
    assert len(c1) == 2
    assert all(v.focus == Iri("River_X") for v in c1)


def test_conditional_requirement_demands_presence():
    base = [
        f"<River_X> {TYPE} <River> .",
        "<River_X> <traverses> <State_Utah> .",
        f"<State_Utah> {TYPE} <State> .",
    ]
    g = parse_ntriples("\n".join(base))
    report = validate_graph(g, parse_manifest(RIVER_MANIFEST))
    assert [v.constraint_id for v in report.violations] == ["C7"]
    g2 = parse_ntriples(
        "\n".join(base + ["<River_X> <inCountry> <United_States> ."])
    )
    assert validate_graph(g2, parse_manifest(RIVER_MANIFEST)).conforms


def test_max_inclusive_bound():
    cs = parse_manifest("M1 max_inclusive class=<River> property=<ph> bound=14")
    good = parse_ntriples(river("River_A", ph="7.2"))
    bad = parse_ntriples(river("River_B", ph="15"))
    assert validate_graph(good, cs).conforms
    assert len(validate_graph(bad, cs).violations) == 1


def test_min_exclusive_boundary_is_exact():
    # Bounds compare exact values: exactly 0 fails > 0.
    g = parse_ntriples(river("River_A", sourceElevation="0"))
    report = validate_graph(g, parse_manifest(RIVER_MANIFEST))
    assert [v.constraint_id for v in report.violations] == ["C2"]


def test_untyped_node_is_outside_class_targets():
    g = parse_ntriples('<NotARiver> <sourceElevation> "-50" .')
    assert validate_graph(g, parse_manifest(RIVER_MANIFEST)).conforms


def test_missing_property_is_not_a_violation():
    g = parse_ntriples(river("River_A"))
    assert validate_graph(g, parse_manifest(RIVER_MANIFEST)).conforms


def test_non_numeric_value_is_skipped_by_bounds():
    g = parse_ntriples(river("River_A", sourceElevation="unknown"))
    assert validate_graph(g, parse_manifest(RIVER_MANIFEST)).conforms


# --- planted-violation completeness ----------------------------------------


def planted_fixture(kind: str, k: int) -> tuple[str, str, set[str]]:
    """Graph text, manifest text, and expected focus nodes with k planted
    violations for the given constraint kind."""
    lines: list[str] = []
    focus: set[str] = set()
    if kind == "class_of_object":
        manifest = "K class_of_object predicate=<hasTributary> class=<River>"
        for i in range(3):
            name = f"Good{i}"
            lines += [
                f"<{name}> <hasTributary> <Trib{i}> .",
                f"<Trib{i}> {TYPE} <River> .",
            ]
        for i in range(k):
            lines.append(f"<Bad{i}> <hasTributary> <Swamp{i}> .")
            focus.add(f"Bad{i}")
    elif kind in ("min_exclusive", "min_inclusive", "max_inclusive"):
        bound = {"min_exclusive": "0", "min_inclusive": "-100", "max_inclusive": "50"}
        good = {"min_exclusive": "10", "min_inclusive": "-100", "max_inclusive": "50"}
        bad = {"min_exclusive": "0", "min_inclusive": "-101", "max_inclusive": "51"}
        manifest = f"K {kind} class=<River> property=<v> bound={bound[kind]}"
        for i in range(3):
            lines.append(river(f"Good{i}", v=good[kind]))
        for i in range(k):
            lines.append(river(f"Bad{i}", v=bad[kind]))
            focus.add(f"Bad{i}")
    elif kind == "less_than_property":
        manifest = "K less_than_property class=<River> lesser=<mouth> greater=<source>"
        for i in range(3):
            lines.append(river(f"Good{i}", mouth="5", source="100"))
        for i in range(k):
            lines.append(river(f"Bad{i}", mouth="100", source="100"))
            focus.add(f"Bad{i}")
    elif kind == "conditional_requirement":
        manifest = (
            "K conditional_requirement predicate=<traverses> object_class=<State> "
            "required_predicate=<inCountry> required_object=<US>"
        )
        lines.append(f"<State_S> {TYPE} <State> .")
        for i in range(3):
            lines += [
                f"<Good{i}> <traverses> <State_S> .",
                f"<Good{i}> <inCountry> <US> .",
            ]
        for i in range(k):
            lines.append(f"<Bad{i}> <traverses> <State_S> .")
            focus.add(f"Bad{i}")
    elif kind == "interval_overlap":
        manifest = "K interval_overlap predicate=<knew> start=<born> end=<died>"
        lines.append(river("Anchor", born="1700", died="1780"))
        for i in range(3):
            lines.append(river(f"Good{i}", born="1710", died="1790"))
            lines.append(f"<Good{i}> <knew> <Anchor> .")
        for i in range(k):
            lines.append(river(f"Bad{i}", born="1850", died="1900"))
            lines.append(f"<Bad{i}> <knew> <Anchor> .")
            focus.add(f"Bad{i}")
    else:
        raise AssertionError(kind)
    return "\n".join(lines), manifest, focus


ALL_KINDS = [
    "class_of_object",
    "min_exclusive",
    "min_inclusive",
    "max_inclusive",
    "less_than_property",
    "conditional_requirement",
    "interval_overlap",
]


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("k", [0, 1, 3])
def test_planted_violations_are_counted_exactly(kind, k):
    graph_text, manifest, focus = planted_fixture(kind, k)
    report = validate_graph(parse_ntriples(graph_text), parse_manifest(manifest))
    assert len(report.violations) == k
    assert {v.focus.value for v in report.violations} == focus
    assert report.conforms == (k == 0)


# --- per-claim validation ---------------------------------------------------


@pytest.fixture
def typed_graph():
    return parse_ntriples(
        "\n".join(
            [
                river("River_X", sourceElevation="2000", mouthElevation="80"),
                f"<Lake_Y> {TYPE} <Lake> .",
            ]
        )
    )


def test_claim_with_mistyped_tributary(typed_graph):
    claim = Triple(Iri("River_X"), Iri("hasTributary"), Iri("Lake_Y"))
    violations = validate_claim(claim, typed_graph, parse_manifest(RIVER_MANIFEST))
    assert [v.constraint_id for v in violations] == ["C1"]


def test_entailed_consistent_claim_is_clean(typed_graph):
    claim = Triple(
        Iri("River_X"), Iri("sourceElevation"), Literal("2000", Datatype.DECIMAL)
    )
    assert validate_claim(claim, typed_graph, parse_manifest(RIVER_MANIFEST)) == []


def test_negative_source_elevation_claim(typed_graph):
    claim = Triple(
        Iri("River_X"), Iri("sourceElevation"), Literal("-5", Datatype.DECIMAL)
    )
    violations = validate_claim(claim, typed_graph, parse_manifest(RIVER_MANIFEST))
    assert "C2" in {v.constraint_id for v in violations}


def test_claim_below_mouth_triggers_ordering(typed_graph):
    # Source at 50 against a stored mouth elevation of 80.
    claim = Triple(
        Iri("River_X"), Iri("sourceElevation"), Literal("50", Datatype.DECIMAL)
    )
    violations = validate_claim(claim, typed_graph, parse_manifest(RIVER_MANIFEST))
    assert "C6" in {v.constraint_id for v in violations}


def test_clean_insertion_matches_graph_validation(typed_graph):
    cs = parse_manifest(RIVER_MANIFEST)
    claim = Triple(
        Iri("River_X"), Iri("discharge"), Literal("120", Datatype.DECIMAL)
    )
    augmented = Graph(list(typed_graph) + [claim])
    assert validate_graph(augmented, cs).conforms
    assert validate_claim(claim, typed_graph, cs) == []


def test_removing_properties_never_adds_violations():
    # Monotone skip rule: dropping property triples can only remove
    # violations, except under conditional_requirement.
    manifest = parse_manifest(
        "K1 min_exclusive class=<River> property=<v> bound=0\n"
        "K2 less_than_property class=<River> lesser=<lo> greater=<hi>\n"
    )
    full = parse_ntriples(
        "\n".join(
            [
                river("R1", v="-3", lo="9", hi="5"),
                river("R2", v="7", lo="1", hi="5"),
            ]
        )
    )
    baseline = len(validate_graph(full, manifest).violations)
    for dropped in full:
        if dropped.predicate.value not in ("v", "lo", "hi"):
            continue
        remaining = [t for t in full if t != dropped]
        report = validate_graph(Graph(remaining), manifest)
        assert len(report.violations) <= baseline


def test_violations_reconfirmed_in_isolation():
    # Soundness: re-check each violation with a directly coded rule.
    graph_text, manifest, _ = planted_fixture("less_than_property", 3)
    g = parse_ntriples(graph_text)
    report = validate_graph(g, parse_manifest(manifest))
    for v in report.violations:
        mouth = [
            t.object.numeric for t in g.match(s=v.focus, p=Iri("mouth"))
        ]
        source = [
            t.object.numeric for t in g.match(s=v.focus, p=Iri("source"))
        ]
        assert mouth and source
        assert not (mouth[0] < source[0])


# --- claim attribution: exact set difference --------------------------------


PHILOSOPHER_MANIFEST = """\
P1 interval_overlap predicate=<influenced> start=<birthYear> end=<deathYear>
P2 less_than_property class=<Philosopher> lesser=<birthYear> greater=<deathYear>
"""


def brute_force_claim_violations(claim, graph, constraints) -> list:
    """validate_claim's definition, computed the slow way: nothing for a
    claim that a stored triple entails (a scan under same_term);
    otherwise the violations of the graph with the claim asserted that the
    graph alone does not have, once each, in validate_graph's order."""
    if any(
        (t.subject, t.predicate) == (claim.subject, claim.predicate)
        and same_term(t.object, claim.object)
        for t in graph
    ):
        return []
    before = set(validate_graph(graph, constraints).violations)
    after = validate_graph(Graph([*graph, claim]), constraints).violations
    return list(dict.fromkeys(v for v in after if v not in before))


def spellings(integer: str) -> list[Literal]:
    """Four spellings of one integer value."""
    return [
        Literal(integer, Datatype.DECIMAL),
        Literal(f"{integer}.0", Datatype.DECIMAL),
        Literal(f"{integer}.00", Datatype.DECIMAL),
        Literal(integer, Datatype.INTEGER),
    ]


def test_claim_on_an_already_violating_node_is_not_charged_for_it():
    # The river already breaks C2; a true, unrelated length claim adds
    # nothing and must not inherit that violation.
    g = parse_ntriples(river("R", sourceElevation="-5", length="100"))
    claim = Triple(Iri("R"), Iri("length"), Literal("100", Datatype.DECIMAL))
    cs = parse_manifest(RIVER_MANIFEST)
    assert [v.constraint_id for v in validate_graph(g, cs).violations] == ["C2"]
    assert validate_claim(claim, g, cs) == []
    fresh = Triple(Iri("R"), Iri("length"), Literal("120", Datatype.DECIMAL))
    assert validate_claim(fresh, g, cs) == []


def test_claim_is_charged_with_a_violation_focused_on_another_node():
    # A's life ends before B's can start once B's birth year is asserted:
    # the P1 violation sits on (A influenced B), with focus A.
    g = parse_ntriples(
        "\n".join(
            [
                '<A> <birthYear> "1700" .',
                '<A> <deathYear> "1750" .',
                '<B> <deathYear> "1950" .',
                "<A> <influenced> <B> .",
            ]
        )
    )
    cs = parse_manifest(PHILOSOPHER_MANIFEST)
    assert validate_graph(g, cs).conforms
    claim = Triple(Iri("B"), Iri("birthYear"), Literal("1900", Datatype.DECIMAL))
    violations = validate_claim(claim, g, cs)
    assert [v.constraint_id for v in violations] == ["P1"]
    assert violations[0].focus == Iri("A")
    assert violations[0].triple == Triple(Iri("A"), Iri("influenced"), Iri("B"))


def test_an_end_claim_is_charged_with_a_violation_focused_on_another_node():
    # The test above with the endpoints swapped: B has a birth year, and a
    # claimed death year gives it an interval that breaks P1 on (A influenced
    # B). Edges into a claim's subject are re-checked only for a predicate
    # the check reads of an object; here both endpoints are read.
    g = parse_ntriples(
        "\n".join(
            [
                '<A> <birthYear> "1700" .',
                '<A> <deathYear> "1750" .',
                '<B> <birthYear> "1900" .',
                "<A> <influenced> <B> .",
            ]
        )
    )
    cs = parse_manifest(PHILOSOPHER_MANIFEST)
    assert validate_graph(g, cs).conforms
    claim = Triple(Iri("B"), Iri("deathYear"), Literal("1950", Datatype.DECIMAL))
    violations = validate_claim(claim, g, cs)
    assert [(v.constraint_id, v.focus) for v in violations] == [("P1", Iri("A"))]
    assert violations == brute_force_claim_violations(claim, g, cs)


def test_claim_the_graph_holds_adds_nothing():
    g = parse_ntriples(river("R", sourceElevation="-5"))
    held = Triple(Iri("R"), Iri("sourceElevation"), Literal("-5", Datatype.DECIMAL))
    assert validate_claim(held, g, parse_manifest(RIVER_MANIFEST)) == []


def test_every_spelling_of_a_stored_number_adds_nothing():
    # The stored "-5.0" breaks C2. Every spelling of -5 is entailed by it, so
    # asserting any of them adds nothing; the graph's own violation is never
    # charged to a claim, whichever spelling the claim uses.
    g = parse_ntriples(river("R", sourceElevation="-5.0"))
    cs = parse_manifest(RIVER_MANIFEST)
    assert [v.constraint_id for v in validate_graph(g, cs).violations] == ["C2"]
    for spelling in spellings("-5"):
        claim = Triple(Iri("R"), Iri("sourceElevation"), spelling)
        assert g.contains(claim)
        assert validate_claim(claim, g, cs) == []
        assert brute_force_claim_violations(claim, g, cs) == []
    # A value the graph does not hold is charged, in its own spelling.
    fresh = Triple(Iri("R"), Iri("sourceElevation"), Literal("-6", Datatype.INTEGER))
    violations = validate_claim(fresh, g, cs)
    assert [(v.constraint_id, v.triple) for v in violations] == [("C2", fresh)]
    assert violations == brute_force_claim_violations(fresh, g, cs)


def test_type_claim_brings_a_node_and_its_incoming_edges_into_scope():
    g = parse_ntriples(
        "\n".join(
            [
                '<X> <sourceElevation> "-5" .',
                "<Up> <hasTributary> <X> .",
                "<X> <traverses> <State_S> .",
                f"<State_S> {TYPE} <State> .",
            ]
        )
    )
    cs = parse_manifest(RIVER_MANIFEST)
    claim = Triple(Iri("X"), RDF_TYPE, Iri("River"))
    violations = validate_claim(claim, g, cs)
    # X becomes a River (C2 fires, C1 on Up -> X is cleared, C7 is unaffected
    # by X's own type); only the new violation is charged.
    assert [v.constraint_id for v in violations] == ["C2"]
    assert violations == brute_force_claim_violations(claim, g, cs)
    state = Triple(Iri("State_S"), RDF_TYPE, Iri("Lake"))
    assert validate_claim(state, g, cs) == []
    untype = Triple(Iri("Y"), RDF_TYPE, Iri("State"))
    g2 = parse_ntriples("<Z> <traverses> <Y> .")
    assert [v.constraint_id for v in validate_claim(untype, g2, cs)] == ["C7"]


def test_claim_on_a_fresh_subject():
    g = parse_ntriples(river("R", sourceElevation="10"))
    cs = parse_manifest(RIVER_MANIFEST)
    claim = Triple(Iri("New"), Iri("hasTributary"), Iri("R"))
    assert validate_claim(claim, g, cs) == []
    bad = Triple(Iri("New"), Iri("hasTributary"), Literal("R", Datatype.STRING))
    assert [v.constraint_id for v in validate_claim(bad, g, cs)] == ["C1"]


def test_a_claim_never_changes_the_graphs_subject_sets():
    # Each claim is of a (predicate, object) pair whose subject set a check
    # reads, so the view of the graph plus the claim answers with that set
    # and the claim's subject; the graph's own set must stay as it was.
    g = parse_ntriples(
        "\n".join(
            [
                "<Up> <hasTributary> <X> .",
                "<X> <traverses> <State_S> .",
                f"<State_S> {TYPE} <State> .",
                river("R", inCountry="<United_States>"),
            ]
        )
    )
    cs = parse_manifest(RIVER_MANIFEST)
    report = validate_graph(g, cs)
    assert [v.constraint_id for v in report.violations] == ["C1", "C7"]
    pairs = [(RDF_TYPE, Iri("River")), (Iri("inCountry"), Iri("United_States"))]
    kept = [g.subjects_of(p, o) for p, o in pairs]
    members = [set(found) for found in kept]
    for p, o in pairs:
        claim = Triple(Iri("X"), p, o)
        # Each claim clears one of the graph's violations and adds none.
        assert validate_claim(claim, g, cs) == []
        assert brute_force_claim_violations(claim, g, cs) == []
    for (p, o), found, before in zip(pairs, kept, members):
        assert g.subjects_of(p, o) is found
        assert found == before
    assert validate_graph(g, cs) == report


def rivers_graph(n: int) -> Graph:
    """n rivers, each with every measure C2-C6 reads, a tributary and a
    traversed state, and every fifth one breaking a constraint."""
    lines = [f"<State_S> {TYPE} <State> ."]
    for i in range(n):
        mouth = 3000 if i % 5 == 0 else 10
        lines.append(
            river(
                f"R{i}", sourceElevation="2000", mouthElevation=str(mouth),
                length="100", discharge="5", hasTributary=f"<R{(i + 1) % n}>",
                traverses="<State_S>",
            )
        )
        if i % 5:
            lines.append(f"<R{i}> <inCountry> <United_States> .")
    return parse_ntriples("\n".join(lines))


def test_graph_lookups_per_validation_do_not_grow_with_the_graph():
    # Each check fetches its subject sets once per call, not once per unit.
    cs = parse_manifest(RIVER_MANIFEST)
    counts = []
    for n in (10, 40):
        g = rivers_graph(n)
        with mock.patch.object(
            Graph, "subjects_of", autospec=True, side_effect=Graph.subjects_of
        ) as subjects_of:
            report = validate_graph(g, cs)
        assert len(report.violations) == 2 * n // 5  # C6 and C7 each
        counts.append(subjects_of.call_count)
    assert counts[0] == counts[1]


def test_claims_agree_on_fresh_validated_and_shared_graphs():
    # A graph gathers its subject sets on first ask: a claim's violations must
    # not depend on which call, or which of several threads, asked first.
    text = (FIXTURES / "rivers" / "graph.nt").read_text("utf-8")
    cs = parse_manifest((FIXTURES / "rivers" / "constraints.txt").read_text("utf-8"))
    nodes = sorted({t.subject for t in parse_ntriples(text)}, key=lambda n: n.value)
    objects = [*nodes, Iri("River"), Iri("State"), Iri("United_States")]
    # Many more rivers make gathering the River set slow enough that another
    # thread would read it half-filled, were it shared before it is full.
    text += "".join(f"<River_Extra_{i}> {TYPE} <River> .\n" for i in range(3000))
    claims = [
        Triple(s, p, o)
        for s in [*nodes, Iri("Fresh")]
        for p in (Iri("hasTributary"), Iri("traverses"), Iri("inCountry"), RDF_TYPE)
        for o in objects
    ] + [
        Triple(s, Iri(p), Literal(v, Datatype.DECIMAL))
        for s in nodes
        for p, v in (("sourceElevation", "-5"), ("mouthElevation", "5000"))
    ]

    def run(graph):
        return [validate_claim(c, graph, cs) for c in claims]

    fresh = run(parse_ntriples(text))
    assert sum(map(bool, fresh)) > 100
    validated = parse_ntriples(text)
    validate_graph(validated, cs)
    assert run(validated) == fresh
    shared = parse_ntriples(text)
    start = threading.Barrier(4)

    def threaded():
        start.wait(timeout=60)
        return run(shared)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(threaded) for _ in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert results == [fresh] * 4


# Small vocabularies under which random graphs hit every constraint of both
# fixture manifests: typed and untyped nodes, hubs, numbers around each bound
# and in INTEGER/DECIMAL twins, string literals.
_NODES = [Iri(n) for n in ("a", "b", "c", "d", "United_States")]
_CLASSES = [Iri(n) for n in ("River", "State", "Philosopher", "Lake")]
_IRI_OBJECTS = _NODES + _CLASSES
_LINK_PREDICATES = [
    Iri(n) for n in ("hasTributary", "traverses", "inCountry", "influenced")
]
_NUMERIC_PREDICATES = [
    Iri(n)
    for n in (
        "sourceElevation", "length", "discharge", "mouthElevation",
        "birthYear", "deathYear",
    )
]
_INTEGERS = ["-150", "-100", "-5", "0", "1", "5", "1700", "1750", "1900"]

_numbers = st.one_of(
    st.builds(
        Literal, st.sampled_from(_INTEGERS + ["0.0", "1.5"]), st.just(Datatype.DECIMAL)
    ),
    st.builds(Literal, st.sampled_from(_INTEGERS), st.just(Datatype.INTEGER)),
)


def _triples(subjects: list[Iri]):
    subject = st.sampled_from(subjects)
    return st.one_of(
        st.builds(Triple, subject, st.just(RDF_TYPE), st.sampled_from(_CLASSES)),
        st.builds(
            Triple,
            subject,
            st.sampled_from(_LINK_PREDICATES),
            st.one_of(st.sampled_from(_IRI_OBJECTS), st.just(Literal("a"))),
        ),
        st.builds(Triple, subject, st.sampled_from(_NUMERIC_PREDICATES), _numbers),
    )


def _twin(t: Triple) -> Triple:
    """The same number under the other numeric datatype."""
    integer = t.object.datatype is Datatype.INTEGER
    other = Datatype.DECIMAL if integer else Datatype.INTEGER
    return Triple(t.subject, t.predicate, Literal(t.object.lexical, other))


@settings(max_examples=200, deadline=None)
@given(
    manifest=st.sampled_from([RIVER_MANIFEST, PHILOSOPHER_MANIFEST]),
    triples=st.lists(_triples(_NODES), max_size=14),
    data=st.data(),
)
def test_validate_claim_is_the_set_difference_on_random_graphs(manifest, triples, data):
    graph = Graph(triples)
    cs = parse_manifest(manifest)
    # Claims on stored and fresh subjects, claims the graph holds, and
    # INTEGER/DECIMAL twins of stored integers.
    kinds = [_triples(_NODES + [Iri("fresh")])]
    if triples:
        kinds.append(st.sampled_from(triples))
        twins = [
            _twin(t)
            for t in triples
            if isinstance(t.object, Literal) and t.object.lexical in _INTEGERS
        ]
        if twins:
            kinds.append(st.sampled_from(twins))
    claim = data.draw(st.one_of(kinds), label="claim")
    assert validate_claim(claim, graph, cs) == brute_force_claim_violations(
        claim, graph, cs
    )


def _by_value(v: Violation) -> tuple:
    """A violation with its message dropped and its triple's number read by
    value: what stays the same when a claim's number is respelled."""
    o = v.triple.object
    value = o.numeric if isinstance(o, Literal) and o.numeric is not None else o
    return v.constraint_id, v.focus, v.triple.subject, v.triple.predicate, value


@settings(max_examples=200, deadline=None)
@given(
    manifest=st.sampled_from([RIVER_MANIFEST, PHILOSOPHER_MANIFEST]),
    triples=st.lists(_triples(_NODES), max_size=14),
    data=st.data(),
)
def test_audits_do_not_depend_on_how_a_number_is_spelled(manifest, triples, data):
    cs = parse_manifest(manifest)
    s, p, integer = data.draw(
        st.tuples(
            st.sampled_from(_NODES + [Iri("fresh")]),
            st.sampled_from(_NUMERIC_PREDICATES),
            st.sampled_from(_INTEGERS),
        ),
        label="claim",
    )
    # Often the graph stores the claim's number in one of its spellings, and
    # types its subject with the class the manifest's bounds apply to.
    stored = data.draw(st.sampled_from([None, *spellings(integer)]), label="stored")
    typed = data.draw(st.booleans(), label="typed")
    cls = Iri("River" if manifest == RIVER_MANIFEST else "Philosopher")
    added = [Triple(s, RDF_TYPE, cls)] if typed else []
    if stored is not None:
        added.append(Triple(s, p, stored))
    graph = Graph([*triples, *added])
    seen = set()
    for spelling in spellings(integer):
        audit = audit_claim(graph, cs, Claim(Triple(s, p, spelling), (0, 0), "R"))
        assert not (audit.entailed and audit.violations)
        violations = Counter(map(_by_value, audit.violations))
        seen.add((decide([audit]), audit.entailed, frozenset(violations.items())))
    assert len(seen) == 1


# --- whole-graph validation against a reference by definition ---------------


def reference_report(graph: Graph, constraints) -> ValidationReport:
    """validate_graph by each constraint kind's definition, from linear scans
    of the graph's triples: each constraint's violations sorted by focus,
    message and triple, in manifest order."""
    triples = tuple(graph)

    def typed(node, cls) -> bool:
        return any(t == Triple(node, RDF_TYPE, cls) for t in triples)

    def numbers(node, prop) -> list:
        return [
            t.object.numeric
            for t in triples
            if t.subject == node and t.predicate == prop
            and isinstance(t.object, Literal) and t.object.numeric is not None
        ]

    def units(prop, cls=None) -> list:
        return [
            t for t in triples
            if t.predicate == prop and (cls is None or typed(t.subject, cls))
        ]

    def number(term):
        return term.numeric if isinstance(term, Literal) else None

    violations = []
    for c in constraints:
        found = []  # (unit, message)
        if isinstance(c, ClassOfObject):
            for t in units(c.predicate):
                o = t.object
                if not (isinstance(o, Iri) and typed(o, c.target_class)):
                    shown = o.value if isinstance(o, Iri) else o.lexical
                    found.append((t, f"object {shown!r} of <{c.predicate.value}> "
                                     f"is not typed <{c.target_class.value}>"))
        elif isinstance(c, NumericBound):
            symbol, ok = {
                "min_exclusive": (">", lambda v: v > c.bound),
                "min_inclusive": (">=", lambda v: v >= c.bound),
                "max_inclusive": ("<=", lambda v: v <= c.bound),
            }[c.kind]
            for t in units(c.property, c.target_class):
                v = number(t.object)
                if v is not None and not ok(v):
                    found.append((t, f"<{c.property.value}> value {v:f} is not "
                                     f"{symbol} {c.bound:f}"))
        elif isinstance(c, LessThanProperty):
            for t in units(c.lesser, c.target_class):
                lv = number(t.object)
                for gv in numbers(t.subject, c.greater) if lv is not None else ():
                    if not lv < gv:
                        found.append((t, f"<{c.lesser.value}> {lv:f} is not strictly "
                                         f"less than <{c.greater.value}> {gv:f}"))
        elif isinstance(c, ConditionalRequirement):
            required = (c.required_predicate, c.required_object)
            for t in units(c.predicate):
                if (
                    isinstance(t.object, Iri)
                    and typed(t.object, c.object_class)
                    and Triple(t.subject, *required) not in triples
                ):
                    found.append((t, f"<{t.subject.value}> has <{c.predicate.value}> "
                                     f"<{t.object.value}> but lacks "
                                     f"<{c.required_predicate.value}> "
                                     f"<{c.required_object.value}>"))
        elif isinstance(c, IntervalOverlap):
            for t in units(c.predicate):
                if not isinstance(t.object, Iri):
                    continue
                ends = [
                    (numbers(n, c.start), numbers(n, c.end))
                    for n in (t.subject, t.object)
                ]
                if not all(starts and stops for starts, stops in ends):
                    continue
                # Multi-valued endpoints take the widest reading.
                (a0, a1), (b0, b1) = [(min(x), max(y)) for x, y in ends]
                if not (a0 <= b1 and b0 <= a1):
                    found.append((t, f"intervals of <{t.subject.value}> "
                                     f"[{a0:f}, {a1:f}] and <{t.object.value}> "
                                     f"[{b0:f}, {b1:f}] do not overlap"))
        else:
            raise AssertionError(c)
        violations += sorted(
            (Violation(c.id, t.subject, t, message) for t, message in found),
            key=lambda v: (v.focus.value, v.message, triple_sort_key(v.triple)),
        )
    return ValidationReport(conforms=not violations, violations=tuple(violations))


# Every kind over a few predicates, so that random graphs of a few dozen
# triples break each often: rivers' elevations are both bounded, ordered and
# the intervals of their tributary edges.
ALL_KINDS_MANIFEST = """\
C1 class_of_object predicate=<hasTributary> class=<River>
C2 min_exclusive class=<River> property=<sourceElevation> bound=0
C5 min_inclusive class=<River> property=<mouthElevation> bound=-100
M1 max_inclusive class=<River> property=<length> bound=1
C6 less_than_property class=<River> lesser=<mouthElevation> greater=<sourceElevation>
C7 conditional_requirement predicate=<traverses> object_class=<State> required_predicate=<inCountry> required_object=<United_States>
I1 interval_overlap predicate=<hasTributary> start=<mouthElevation> end=<sourceElevation>
"""

_ORACLE_NODES = [Iri(n) for n in ("a", "b", "c", "United_States")]
_ORACLE_LINKS = [Iri(n) for n in ("hasTributary", "traverses", "inCountry")]
_ORACLE_NUMERIC = [Iri(n) for n in ("sourceElevation", "mouthElevation", "length")]
# One number in three spellings, numbers around each bound, and objects of a
# numeric property that are no number: a numeric string and IRIs.
_SPELLED_NUMBERS = [
    Literal("5", Datatype.DECIMAL),
    Literal("5.0", Datatype.DECIMAL),
    Literal("5", Datatype.INTEGER),
    *(Literal(n, Datatype.DECIMAL) for n in ("-150", "-100", "0", "1900.0")),
    *(Literal(n, Datatype.INTEGER) for n in ("-120", "-5", "1", "1900")),
]
_NOT_NUMBERS = [Literal("5", Datatype.STRING), Iri("a"), Iri("River")]


def _oracle_triples():
    subject = st.sampled_from(_ORACLE_NODES)
    numeric = st.builds(
        Triple,
        subject,
        st.sampled_from(_ORACLE_NUMERIC),
        st.sampled_from(_SPELLED_NUMBERS * 3 + _NOT_NUMBERS),
    )
    return st.one_of(
        numeric,
        numeric,
        st.builds(
            Triple, subject, st.just(RDF_TYPE), st.sampled_from(_CLASSES[:2])
        ),
        st.builds(
            Triple,
            subject,
            st.sampled_from(_ORACLE_LINKS),
            st.sampled_from([*_ORACLE_NODES, Iri("River"), Literal("a")]),
        ),
        # A self-loop on each link predicate.
        st.builds(
            lambda s, p: Triple(s, p, s), subject, st.sampled_from(_ORACLE_LINKS)
        ),
    )


@settings(max_examples=300, deadline=None)
@given(
    rivers=st.sets(st.sampled_from(_ORACLE_NODES)),
    triples=st.lists(_oracle_triples(), min_size=16, max_size=48),
)
def test_validate_graph_matches_the_reference_on_random_graphs(rivers, triples):
    graph = Graph([*(Triple(n, RDF_TYPE, Iri("River")) for n in rivers), *triples])
    cs = parse_manifest(ALL_KINDS_MANIFEST)
    assert validate_graph(graph, cs) == reference_report(graph, cs)


@settings(max_examples=300, deadline=None)
@given(
    triples=st.lists(_oracle_triples(), max_size=32),
    claim=_oracle_triples(),
)
def test_the_claim_view_reads_numbers_as_the_graph_with_the_claim(triples, claim):
    # validate_claim only ever views a claim the graph does not entail.
    graph = Graph(triples)
    assume(not graph.contains(claim))
    cs = parse_manifest(ALL_KINDS_MANIFEST)
    validate_graph(graph, cs)  # the graph gathers the maps its checks read
    kept = [(graph.least(p), graph.greatest(p)) for p in _ORACLE_NUMERIC]
    before = [(_spelled(a), _spelled(b)) for a, b in kept]
    view, built = _GraphPlusClaim(graph, claim), Graph([*triples, claim])
    for p in {*_ORACLE_NUMERIC, claim.predicate}:
        assert _spelled(view.least(p)) == _spelled(built.least(p))
        assert _spelled(view.greatest(p)) == _spelled(built.greatest(p))
    validate_claim(claim, graph, cs)
    for p, (least, greatest), spelled in zip(_ORACLE_NUMERIC, kept, before):
        assert graph.least(p) is least and graph.greatest(p) is greatest
        assert (_spelled(least), _spelled(greatest)) == spelled
