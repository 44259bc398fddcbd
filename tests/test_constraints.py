from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factgate.constraints import (
    parse_manifest,
    validate_claim,
    validate_graph,
)
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
)

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
    c = cs.constraints[0]
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
    # Bound checks never apply the matching tolerance: exactly 0 fails > 0.
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
    """validate_claim's definition, computed the slow way: the violations of
    the graph with the claim asserted that the graph alone does not have,
    once each, in validate_graph's order."""
    before = set(validate_graph(graph, constraints).violations)
    after = validate_graph(Graph([*graph, claim]), constraints).violations
    return list(dict.fromkeys(v for v in after if v not in before))


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


def test_claim_the_graph_holds_adds_nothing():
    g = parse_ntriples(river("R", sourceElevation="-5"))
    held = Triple(Iri("R"), Iri("sourceElevation"), Literal("-5", Datatype.DECIMAL))
    assert validate_claim(held, g, parse_manifest(RIVER_MANIFEST)) == []


def test_integer_twin_of_a_stored_number_is_a_new_triple():
    # "-5"^^xsd:integer is entailed by the stored decimal "-5", but it is a
    # different triple, so asserting it adds its own C2 violation.
    g = parse_ntriples(river("R", sourceElevation="-5"))
    twin = Triple(Iri("R"), Iri("sourceElevation"), Literal("-5", Datatype.INTEGER))
    cs = parse_manifest(RIVER_MANIFEST)
    violations = validate_claim(twin, g, cs)
    assert [(v.constraint_id, v.triple) for v in violations] == [("C2", twin)]
    assert violations == brute_force_claim_violations(twin, g, cs)


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
