from __future__ import annotations

import io
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factgate.kg import (
    NUMERIC_REL_TOL,
    Datatype,
    Graph,
    Iri,
    Literal,
    ParseError,
    Triple,
    numbers_close,
    parse_ntriples,
    retrieve_subgraph,
    serialize_ntriples,
    term_matches,
    triple_to_ntriples,
)


def lit(value: str, datatype: Datatype = Datatype.DECIMAL) -> Literal:
    return Literal(value, datatype)


def scan_match(graph, s=None, p=None, o=None):
    """Linear-scan oracle for match()."""
    return [
        t
        for t in graph
        if (s is None or t.subject == s)
        and (p is None or t.predicate == p)
        and (o is None or term_matches(t.object, o))
    ]


def scan_contains(graph, triple):
    """Linear-scan oracle for contains()."""
    return any(
        t.subject == triple.subject
        and t.predicate == triple.predicate
        and term_matches(t.object, triple.object)
        for t in graph
    )


def bfs_oracle(graph, seeds, max_hops):
    """Independent BFS over (subject, iri-object) adjacency."""
    frontier = {s.value for s in seeds}
    seen_nodes = set(frontier)
    out = set()
    for _ in range(max_hops):
        new_nodes = set()
        for t in graph:
            ends = {t.subject.value} | (
                {t.object.value} if isinstance(t.object, Iri) else set()
            )
            if ends & frontier and t not in out:
                out.add(t)
                new_nodes |= ends
        frontier = new_nodes - seen_nodes
        seen_nodes |= frontier
    return out


# --- parsing -------------------------------------------------------------


def test_parse_minimal_iri_triple():
    g = parse_ntriples("<a> <p> <b> .")
    assert len(g) == 1
    assert next(iter(g)) == Triple(Iri("a"), Iri("p"), Iri("b"))


def test_parse_numeric_literal_inferred_decimal():
    g = parse_ntriples('<River_Colorado> <length> "2334000.0" .')
    obj = next(iter(g)).object
    assert isinstance(obj, Literal)
    assert obj.datatype is Datatype.DECIMAL
    assert obj.numeric == Decimal("2334000.0")


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(ParseError) as err:
        parse_ntriples("<a> <p>")
    assert err.value.line == 1


def test_parse_is_all_or_nothing():
    text = "<a> <p> <b> .\n<broken line\n<c> <p> <d> ."
    with pytest.raises(ParseError) as err:
        parse_ntriples(text)
    assert err.value.line == 2


def test_parse_skips_blanks_comments_and_dedups():
    text = "\n# comment\n<a> <p> <b> .\n<a> <p> <b> .\n"
    g = parse_ntriples(text)
    assert len(g) == 1


def test_parse_gives_one_object_per_iri():
    # "a" and "p" occur in all three positions, "b" as subject and object.
    g = parse_ntriples(
        "<a> <p> <b> .\n<b> <p> <a> .\n<b> <a> <p> .\n<p> <q> <p> .\n<a> <q> \"1\" ."
    )
    by_value: dict[str, Iri] = {}
    for t in g:
        for term in (t.subject, t.predicate, t.object):
            if isinstance(term, Iri):
                assert by_value.setdefault(term.value, term) is term
    assert sorted(by_value) == ["a", "b", "p", "q"]
    # The table lives for one parse only.
    again = parse_ntriples("<a> <p> <b> .")
    assert next(iter(again)).subject is not by_value["a"]


def test_terms_and_triples_have_no_instance_dict():
    g = parse_ntriples('<a> <p> "x" .\n<a> <q> "1.5" .\n<a> <r> <b> .')
    for t in g:
        for obj in (t, t.subject, t.predicate, t.object):
            assert not hasattr(obj, "__dict__"), obj


def test_parse_accepts_stream_input():
    g = parse_ntriples(io.StringIO("<a> <p> <b> .\n"))
    assert len(g) == 1


def test_parse_explicit_datatypes_and_escapes():
    text = (
        '<a> <p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        '<a> <q> "say \\"hi\\"\\n" .\n'
    )
    g = parse_ntriples(text)
    objs = {t.predicate.value: t.object for t in g}
    assert objs["p"] == Literal("5", Datatype.INTEGER)
    assert objs["q"].lexical == 'say "hi"\n'


def test_parse_rejects_unknown_datatype():
    with pytest.raises(ParseError):
        parse_ntriples('<a> <p> "1.5"^^<http://www.w3.org/2001/XMLSchema#double> .')


def test_parse_rejects_nonfinite_numeric_literal():
    # "NaN" does not fit the plain-decimal lexical space, so it stays a string.
    g = parse_ntriples('<a> <p> "NaN" .')
    assert next(iter(g)).object.datatype is Datatype.STRING


# --- entailment ----------------------------------------------------------


def test_contains_known_fact(river_sample):
    claim = Triple(Iri("River_Colorado"), Iri("length"), lit("2334000.0"))
    assert river_sample.contains(claim)


def test_contains_empty_graph_is_false():
    g = Graph()
    assert not g.contains(Triple(Iri("a"), Iri("p"), Iri("b")))


def test_contains_within_relative_tolerance(river_sample):
    # Oracle: direct decimal arithmetic confirming the perturbed value is
    # within 1e-9 relative tolerance of the stored one.
    stored = Decimal("2334000.0")
    probe = Decimal("2334000.0000000001")
    assert abs(stored - probe) <= NUMERIC_REL_TOL * max(abs(stored), abs(probe))
    claim = Triple(Iri("River_Colorado"), Iri("length"), lit("2334000.0000000001"))
    assert river_sample.contains(claim)


def test_contains_rejects_values_outside_tolerance(river_sample):
    claim = Triple(Iri("River_Colorado"), Iri("length"), lit("2334001"))
    assert not river_sample.contains(claim)


def test_numeric_string_literals_do_not_match():
    g = parse_ntriples('<a> <p> "5"^^<http://www.w3.org/2001/XMLSchema#string> .')
    assert not g.contains(Triple(Iri("a"), Iri("p"), lit("5")))
    assert g.contains(Triple(Iri("a"), Iri("p"), Literal("5", Datatype.STRING)))


def test_integer_and_decimal_literals_match_numerically():
    g = parse_ntriples('<a> <p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .')
    assert g.contains(Triple(Iri("a"), Iri("p"), lit("5.0")))


def test_numbers_close_zero_cases():
    assert numbers_close(Decimal("0"), Decimal("0"))
    assert not numbers_close(Decimal("0"), Decimal("1e-15"))


def test_entailment_monotone_under_graph_growth():
    rng = random.Random(11)
    from conftest import random_graph

    small = random_graph(rng, 30)
    bigger = Graph(list(small) + [Triple(Iri("zz"), Iri("p0"), Iri("e1"))])
    for t in small:
        assert bigger.contains(t)


# --- pattern matching ----------------------------------------------------


def test_match_subject_bound_on_sample(river_sample):
    hits = river_sample.match(s=Iri("River_Colorado"))
    assert len(hits) == 3


def test_match_unbound_returns_all(river_sample):
    assert river_sample.match() == list(river_sample)


def test_match_predicate_bound_equals_scan():
    fixture = parse_ntriples(
        "\n".join(
            [
                "<a> <p> <b> .",
                "<a> <q> <c> .",
                '<b> <p> "10" .',
                '<b> <q> "11" .',
                "<c> <p> <a> .",
                '<c> <q> "12" .',
                "<d> <p> <d> .",
                '<d> <r> "13" .',
                "<e> <p> <a> .",
                '<e> <q> "14" .',
            ]
        )
    )
    got = fixture.match(p=Iri("p"))
    assert got == sorted(
        scan_match(fixture, p=Iri("p")),
        key=lambda t: (t.subject.value, t.predicate.value),
    )
    assert len(got) == 5


@pytest.mark.parametrize("seed", [3, 17, 99])
def test_match_agrees_with_scan_on_random_patterns(seed):
    from conftest import random_graph

    rng = random.Random(seed)
    g = random_graph(rng, 60)
    terms: list = [
        None,
        Iri("e1"),
        Iri("e3"),
        lit(str(rng.randint(0, 500))),
        Literal("e1", Datatype.STRING),
    ]
    for s in [None, Iri("e0"), Iri("e5")]:
        for p in [None, Iri("p0"), Iri("p2")]:
            for o in terms:
                got = g.match(s=s, p=p, o=o)
                assert list(map(triple_to_ntriples, got)) == list(
                    map(triple_to_ntriples, scan_match(g, s, p, o))
                )


def test_match_orders_deterministically():
    g = parse_ntriples("<b> <p> <x> .\n<a> <q> <x> .\n<a> <p> <x> .")
    assert [t.subject.value + t.predicate.value for t in g.match()] == [
        "ap",
        "aq",
        "bp",
    ]


# --- subgraph retrieval ---------------------------------------------------


def chain_graph():
    return parse_ntriples(
        "<A> <next> <B> .\n<B> <next> <C> .\n<C> <next> <D> .\n<D> <next> <E> ."
    )


def test_bfs_depth_on_chain():
    g = chain_graph()
    sub = retrieve_subgraph(g, {Iri("A")}, max_hops=3)
    got = {(t.subject.value, t.object.value) for t in sub}
    assert got == {("A", "B"), ("B", "C"), ("C", "D")}


def test_bfs_single_hop_on_chain():
    g = chain_graph()
    sub = retrieve_subgraph(g, {Iri("A")}, max_hops=1)
    assert {(t.subject.value, t.object.value) for t in sub} == {("A", "B")}


def test_bfs_empty_seeds_gives_empty_graph():
    assert len(retrieve_subgraph(chain_graph(), set(), max_hops=3)) == 0


def test_bfs_rejects_zero_hops():
    with pytest.raises(ValueError):
        retrieve_subgraph(chain_graph(), {Iri("A")}, max_hops=0)


def test_bfs_matches_independent_oracle_on_random_fixture():
    from conftest import random_graph

    rng = random.Random(42)
    g = random_graph(rng, 50)
    seeds = {Iri("e0"), Iri("e7")}
    sub = retrieve_subgraph(g, seeds, max_hops=3)
    assert set(sub) == bfs_oracle(g, seeds, 3)
    assert isinstance(sub, tuple) and list(sub) == [t for t in g if t in sub]


_NODES = [Iri(f"n{i}") for i in range(5)]
# IRI objects that are never subjects.
_SINKS = [Iri(f"sink{i}") for i in range(2)]
# A node as object allows self-loops; the string literal spells a node's IRI
# and must still never be expanded.
_OBJECTS = [
    *_NODES,
    *_SINKS,
    Literal("n0", Datatype.STRING),
    Literal("7", Datatype.DECIMAL),
    Literal("7", Datatype.INTEGER),
]


@st.composite
def _graph_and_seeds(draw):
    triples = draw(
        st.lists(
            st.builds(
                Triple,
                st.sampled_from(_NODES),
                st.sampled_from([Iri("p0"), Iri("p1")]),
                st.sampled_from(_OBJECTS),
            ),
            max_size=30,
        )
    )
    # Some seeds are absent from the graph: "absent" always, any other term
    # when no drawn triple mentions it.
    candidates = [*_NODES, *_SINKS, Iri("absent"), Iri("p0")]
    seeds = draw(st.sets(st.sampled_from(candidates), max_size=4))
    return Graph(triples), seeds


@settings(max_examples=300, deadline=None)
@given(_graph_and_seeds(), st.integers(1, 4))
def test_retrieval_agrees_with_bfs_oracle(graph_and_seeds, max_hops):
    g, seeds = graph_and_seeds
    oracle = bfs_oracle(g, seeds, max_hops)
    assert retrieve_subgraph(g, seeds, max_hops) == tuple(t for t in g if t in oracle)


def _copy_term(term):
    if isinstance(term, Iri):
        return Iri(term.value)
    return Literal(term.lexical, term.datatype)


def test_graph_of_separately_built_terms_answers_like_the_parsed_one():
    parsed = parse_ntriples(
        "<a> <p> <b> .\n<b> <p> <c> .\n<c> <q> <a> .\n<a> <q> <a> .\n"
        '<b> <q> "2.5" .\n<c> <p> "b" .\n<d> <p> <b> .'
    )
    built = Graph(
        Triple(*map(_copy_term, (t.subject, t.predicate, t.object))) for t in parsed
    )
    assert tuple(built) == tuple(parsed)
    assert next(iter(built)).subject is not next(iter(parsed)).subject
    # Query terms are built separately from both graphs' terms too.
    terms = [None, Iri("a"), Iri("b"), Iri("d"), Iri("zz")]
    objects = [*terms, lit("2.50"), Literal("b", Datatype.STRING)]
    for s in terms:
        for p in [None, Iri("p"), Iri("q")]:
            for o in objects:
                got = built.match(s, p, o)
                assert got == parsed.match(s, p, o) == scan_match(parsed, s, p, o)
    for seeds in ({Iri("a")}, {Iri("d")}, {Iri("c"), Iri("zz")}):
        for k in (1, 2, 3):
            oracle = bfs_oracle(parsed, seeds, k)
            got = retrieve_subgraph(built, seeds, k)
            assert got == retrieve_subgraph(parsed, seeds, k)
            assert got == tuple(t for t in parsed if t in oracle)


def test_subgraph_monotone_in_hops():
    from conftest import random_graph

    rng = random.Random(8)
    g = random_graph(rng, 50)
    seeds = {Iri("e2")}
    prev: set = set()
    for k in (1, 2, 3):
        cur = set(retrieve_subgraph(g, seeds, k))
        assert prev <= cur <= set(g)
        prev = cur


# --- serialization --------------------------------------------------------


def test_round_trip_preserves_graph():
    text = (
        '<a> <p> "hello world" .\n'
        '<a> <q> "42.5" .\n'
        '<a> <r> "7"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        '<a> <s> "123"^^<http://www.w3.org/2001/XMLSchema#string> .\n'
        "<b> <p> <a> .\n"
        '<b> <q> "line\\nbreak" .\n'
    )
    g = parse_ntriples(text)
    assert tuple(parse_ntriples(serialize_ntriples(g))) == tuple(g)


def test_round_trip_on_random_graphs():
    from conftest import random_graph

    for seed in range(5):
        g = random_graph(random.Random(seed), 40)
        assert tuple(parse_ntriples(serialize_ntriples(g))) == tuple(g)


def test_serialized_output_is_sorted():
    g = parse_ntriples("<b> <p> <x> .\n<a> <p> <x> .")
    assert serialize_ntriples(g).splitlines() == ["<a> <p> <x> .", "<b> <p> <x> ."]


def test_iri_rejects_whitespace_and_empty():
    with pytest.raises(ValueError):
        Iri("has space")
    with pytest.raises(ValueError):
        Iri("")
