from __future__ import annotations

import io
import random
from collections import Counter
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factgate.kg import (
    HUB_DEGREE,
    NUMERIC_REL_TOL,
    RDF_TYPE,
    Datatype,
    Graph,
    Iri,
    Literal,
    ParseError,
    Triple,
    iter_ntriples,
    numbers_close,
    parse_ntriples,
    parse_ntriples_line,
    retrieve_subgraph,
    Subgraph,
    serialize_ntriples,
    term_matches,
    term_to_ntriples,
    triple_sort_key,
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


def _ends(t):
    obj = {t.object.value} if isinstance(t.object, Iri) else set()
    return {t.subject.value} | obj


def scan_hubs(graph):
    """Linear-scan hub set: `rdf:type` objects, and IRI nodes with more than
    HUB_DEGREE incident triples."""
    classes = {
        t.object.value
        for t in graph
        if t.predicate == RDF_TYPE and isinstance(t.object, Iri)
    }
    degree = Counter(n for t in graph for n in _ends(t))
    return classes | {n for n, d in degree.items() if d > HUB_DEGREE}


def bfs_oracle(graph, seeds, max_hops, capped=False):
    """Independent BFS over (subject, iri-object) adjacency. Capped, a
    reached hub (see scan_hubs) is never expanded; the seeds always are."""
    hubs = scan_hubs(graph)
    # Uncapped, the oracle models retrieval only where the cap is a no-op.
    assert capped or not hubs, f"uncapped oracle on a graph with hubs {hubs}"
    frontier = {s.value for s in seeds}
    seen_nodes = set(frontier)
    out = set()
    for _ in range(max_hops):
        new_nodes = set()
        for t in graph:
            ends = _ends(t)
            if ends & frontier and t not in out:
                out.add(t)
                new_nodes |= ends
        frontier = new_nodes - seen_nodes - hubs
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
    # Each literal token occurs twice; "1" is spelled two ways.
    text = (
        "<a> <p> <b> .\n<b> <p> <a> .\n<b> <a> <p> .\n<p> <q> <p> .\n<a> <q> \"1\" .\n"
        '<b> <q> "1" .\n<p> <p> "1"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n'
        '<a> <r> "x y" .\n<b> <r> "x y" .\n'
        '<a> <s> "007"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        '<b> <s> "007"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
    )
    for triples in (parse_ntriples(text), list(iter_ntriples(text))):
        by_value: dict[str, Iri] = {}
        by_text: dict[str, Literal] = {}
        for t in triples:
            for term in (t.subject, t.predicate, t.object):
                if isinstance(term, Iri):
                    assert by_value.setdefault(term.value, term) is term
                else:
                    assert by_text.setdefault(term_to_ntriples(term), term) is term
        assert sorted(by_value) == ["a", "b", "p", "q", "r", "s"]
        assert sorted(by_text) == [
            '"007"^^<http://www.w3.org/2001/XMLSchema#integer>', '"1"', '"x y"'
        ]
    # The tables live for one parse only.
    again = parse_ntriples('<a> <p> <b> .\n<a> <q> "1" .')
    first, second = again
    assert first.subject is not by_value["a"]
    assert second.object is not by_text['"1"']


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


_XSD = "http://www.w3.org/2001/XMLSchema#"
# As keys "ab" < "ab1", but as lines "<ab1>" < "<ab>" ('1' < '>').
_LINE_IRIS = ["a", "a!", "ab", "ab1", "b"]
# Several spellings of one term ("5", "5"^^decimal; "007" and "7" are not
# one), numeric-looking strings, escapes.
_LINE_OBJECTS = [
    *(f"<{v}>" for v in _LINE_IRIS),
    '"5"', f'"5"^^<{_XSD}decimal>', '"5.0"', f'"5"^^<{_XSD}integer>',
    f'"007"^^<{_XSD}integer>', f'"7"^^<{_XSD}integer>', f'"5"^^<{_XSD}string>',
    f'"-1.5"^^<{_XSD}string>', '"x"', f'"x"^^<{_XSD}string>', '""',
    '"say \\"hi\\"\\n"', '"back\\\\slash\\ttab"',
]
_MALFORMED_LINES = [
    "<a> <p>",
    "<a b> <p> <b> .",
    "<> <p> <b> .",
    "<a> <p> <b c> .",
    f'<a> <p> "1.5"^^<{_XSD}double> .',
    f'<a> <p> "x"^^<{_XSD}integer> .',
    '<a> <p> "bad\\q" .',
]
# Another spelling of the same term.
_RESPELLED = {'"5"': f'"5"^^<{_XSD}decimal>', '"x"': f'"x"^^<{_XSD}string>'}


@st.composite
def _ntriples_text(draw):
    """N-Triples text over _LINE_IRIS and _LINE_OBJECTS: repeated triples,
    some respelled, padding, blank and comment lines, and maybe one
    malformed line."""
    iri = st.sampled_from(_LINE_IRIS)
    row = st.tuples(iri, iri, st.sampled_from(_LINE_OBJECTS))
    rows = draw(st.lists(row, max_size=20))
    if rows:
        again = draw(st.lists(st.sampled_from(rows), max_size=6))
        rows += [(s, p, _RESPELLED.get(o, o)) for s, p, o in again]
    sep = st.sampled_from([" ", "\t", "  "])
    pad = st.sampled_from(["", " "])
    lines = []
    for s, p, o in draw(st.permutations(rows)):
        a, b, c, d = draw(sep), draw(sep), draw(pad), draw(pad)
        lines.append(f"{d}<{s}>{a}<{p}>{b}{o}{c}.{d}")
    filler = st.sampled_from(["", "   ", "# a comment", "  #<a> <p> <b> ."])
    for text in draw(st.lists(filler, max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), text)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(_MALFORMED_LINES)))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(_ntriples_text())
def test_parse_agrees_with_the_per_line_reader(text):
    expected, error = [], None
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.strip().startswith("#"):
            continue
        try:
            expected.append(parse_ntriples_line(line))
        except ValueError as exc:
            error = (number, str(exc))
            break
    yielded = []
    if error is None:
        graph = parse_ntriples(text)
        assert tuple(graph) == tuple(sorted(set(expected), key=triple_sort_key))
        yielded.extend(iter_ntriples(text))
    else:
        with pytest.raises(ParseError) as err:
            parse_ntriples(text)
        assert (err.value.line, err.value.reason) == error
        # The lazy reader yields every line before the malformed one.
        with pytest.raises(ParseError) as err:
            yielded.extend(iter_ntriples(text))
        assert (err.value.line, err.value.reason) == error
    assert yielded == expected


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
    assert isinstance(sub, Subgraph) and list(sub) == [t for t in g if t in set(sub)]


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
    assert tuple(retrieve_subgraph(g, seeds, max_hops)) == tuple(t for t in g if t in oracle)


_CLASSES = [Iri("C0"), Iri("C1")]
_LEAVES = [Iri(f"leaf{i}") for i in range(HUB_DEGREE + 2)]


@st.composite
def _hub_graph_and_seeds(draw):
    """A drawn graph with `rdf:type` triples (n0 may be a class as well as a
    subject) and a star of leaf triples around one drawn node, its size
    straddling HUB_DEGREE. Two leaves also carry drawn triples, so a walk
    can go on past the star."""
    nodes = [*_NODES, *_LEAVES[:2]]
    node = st.sampled_from(nodes)
    p = st.sampled_from([Iri("p0"), Iri("p1")])
    triples = draw(
        st.lists(
            st.builds(Triple, node, p, st.sampled_from([*_OBJECTS, *_LEAVES[:2]])),
            max_size=30,
        )
    )
    classes = st.sampled_from([*_CLASSES, _NODES[0]])
    typed = st.builds(Triple, node, st.just(RDF_TYPE), classes)
    triples += draw(st.lists(typed, max_size=6))
    center = draw(st.sampled_from([*_NODES, *_CLASSES]))
    size = draw(st.integers(HUB_DEGREE - 2, HUB_DEGREE + 2))
    inward = draw(st.booleans())
    triples += [
        Triple(leaf, Iri("p2"), center) if inward else Triple(center, Iri("p2"), leaf)
        for leaf in _LEAVES[:size]
    ]
    candidates = [*nodes, *_SINKS, *_CLASSES, _LEAVES[-1], Iri("absent")]
    seeds = draw(st.sets(st.sampled_from(candidates), max_size=3))
    return Graph(triples), seeds


@settings(max_examples=200, deadline=None)
@given(_hub_graph_and_seeds(), st.integers(1, 3))
def test_capped_retrieval_agrees_with_capped_oracle(graph_and_seeds, max_hops):
    g, seeds = graph_and_seeds
    oracle = bfs_oracle(g, seeds, max_hops, capped=True)
    got = tuple(retrieve_subgraph(g, seeds, max_hops))
    assert got == tuple(t for t in g if t in oracle)
    seed_values = {s.value for s in seeds}
    # Every seed is expanded, a hub seed too.
    assert {t for t in g if _ends(t) & seed_values} <= set(got)
    # A collected triple touches a seed or a non-hub: a reached hub keeps
    # the edge that reached it, and none of its other triples.
    hubs = scan_hubs(g) - seed_values
    assert all(_ends(t) - hubs for t in got)
    assert set(got) <= set(retrieve_subgraph(g, seeds, max_hops + 1))


def test_reached_hub_keeps_its_edge_and_is_not_expanded():
    a, b, c, h = Iri("a"), Iri("b"), Iri("C"), Iri("H")
    a_h, a_c = Triple(a, Iri("p"), h), Triple(a, RDF_TYPE, c)
    b_c = Triple(b, RDF_TYPE, c)
    star = [Triple(h, Iri("p"), leaf) for leaf in _LEAVES]
    g = Graph([a_h, a_c, b_c, *star])
    assert set(retrieve_subgraph(g, {a}, 3)) == {a_h, a_c}
    # A hub seed is expanded, and what it reaches expands in turn.
    assert set(retrieve_subgraph(g, {c}, 2)) == {a_c, b_c, a_h}
    assert set(retrieve_subgraph(g, {h}, 1)) == {a_h, *star}
    # At exactly HUB_DEGREE incident triples a node is not a hub.
    g = Graph([a_h, *star[: HUB_DEGREE - 1]])
    assert set(retrieve_subgraph(g, {a}, 2)) == set(g)


def _copy_term(term):
    if isinstance(term, Iri):
        return Iri(term.value)
    return Literal(term.lexical, term.datatype)


def test_graph_of_separately_built_terms_answers_like_the_parsed_one():
    parsed = parse_ntriples(
        "<a> <p> <b> .\n<b> <p> <c> .\n<c> <q> <a> .\n<a> <q> <a> .\n"
        '<b> <q> "2.5" .\n<c> <p> "b" .\n<d> <p> <b> .\n<ab> <p> <a> .\n'
        '<ab1> <p> "say \\"hi\\"" .\n'
        '<a> <r> "12"^^<http://www.w3.org/2001/XMLSchema#string> .\n'
        '<a> <r> "7"^^<http://www.w3.org/2001/XMLSchema#integer> .'
    )
    # Separately built terms, every triple twice, in a shuffled order.
    copies = [
        Triple(*map(_copy_term, (t.subject, t.predicate, t.object)))
        for t in [*parsed, *parsed]
    ]
    random.Random(5).shuffle(copies)
    built = Graph(copies)
    assert tuple(built) == tuple(parsed)
    assert serialize_ntriples(built) == serialize_ntriples(parsed)
    assert next(iter(built)).subject is not next(iter(parsed)).subject
    # Query terms are built separately from both graphs' terms too.
    terms = [None, Iri("a"), Iri("b"), Iri("d"), Iri("ab"), Iri("ab1"), Iri("zz")]
    objects = [
        *terms, lit("2.50"), Literal("b", Datatype.STRING),
        Literal("12", Datatype.STRING), lit("7"), Literal('say "hi"', Datatype.STRING),
    ]
    for s in terms:
        for p in [None, Iri("p"), Iri("q"), Iri("r")]:
            for o in objects:
                got = built.match(s, p, o)
                assert got == parsed.match(s, p, o) == scan_match(parsed, s, p, o)
    for seeds in ({Iri("a")}, {Iri("d")}, {Iri("c"), Iri("zz")}):
        for k in (1, 2, 3):
            oracle = bfs_oracle(parsed, seeds, k)
            sub = retrieve_subgraph(built, seeds, k)
            assert sub.ranks == retrieve_subgraph(parsed, seeds, k).ranks
            assert tuple(sub) == tuple(t for t in parsed if t in oracle)
            assert serialize_ntriples(sub) == serialize_ntriples(
                retrieve_subgraph(parsed, seeds, k)
            )


# Objects whose rendering takes care: escapes, strings that look numeric
# (rendered with an explicit xsd:string) and integers (xsd:integer).
_RENDERED_OBJECTS = [
    *_NODES,
    *_SINKS,
    Literal('say "hi"\n', Datatype.STRING),
    Literal("back\\slash\ttab\r", Datatype.STRING),
    Literal("12", Datatype.STRING),
    Literal("-1.5", Datatype.STRING),
    Literal("n1", Datatype.STRING),
    Literal("7", Datatype.INTEGER),
    Literal("-12", Datatype.INTEGER),
    Literal("2.50", Datatype.DECIMAL),
]


@st.composite
def _rendered_graph_and_seeds(draw):
    """Drawn triples over _RENDERED_OBJECTS, self-loops, and a star of leaf
    triples around one drawn node, its size straddling HUB_DEGREE."""
    node = st.sampled_from(_NODES)
    p = st.sampled_from([Iri("p0"), Iri("p1")])
    triples = draw(
        st.lists(
            st.builds(Triple, node, p, st.sampled_from(_RENDERED_OBJECTS)),
            max_size=30,
        )
    )
    triples += [Triple(n, Iri("p1"), n) for n in draw(st.sets(node, max_size=2))]
    center = draw(node)
    size = draw(st.integers(HUB_DEGREE - 1, HUB_DEGREE + 1))
    triples += [Triple(center, Iri("p2"), leaf) for leaf in _LEAVES[:size]]
    candidates = [*_NODES, *_SINKS, _LEAVES[0], Iri("absent")]
    seeds = draw(st.sets(st.sampled_from(candidates), max_size=3))
    return triples, seeds


def _rendered(triples):
    return "".join(
        triple_to_ntriples(t) + "\n" for t in sorted(set(triples), key=triple_sort_key)
    )


@settings(max_examples=200, deadline=None)
@given(_rendered_graph_and_seeds(), st.integers(1, 3))
def test_serialized_context_matches_the_rendered_oracle(case, max_hops):
    triples, seeds = case
    g = Graph(triples)
    expected = _rendered(bfs_oracle(g, seeds, max_hops, capped=True))
    # A cold line cache, then a warm one.
    assert serialize_ntriples(retrieve_subgraph(g, seeds, max_hops)) == expected
    assert serialize_ntriples(retrieve_subgraph(g, seeds, max_hops)) == expected
    # A cache filled by serializing the whole graph first.
    whole = Graph(triples)
    assert serialize_ntriples(whole) == _rendered(triples)
    assert serialize_ntriples(retrieve_subgraph(whole, seeds, max_hops)) == expected
    assert serialize_ntriples(whole) == _rendered(triples)
    # A graph whose terms were built separately from the drawn ones.
    copied = Graph(
        Triple(*map(_copy_term, (t.subject, t.predicate, t.object))) for t in triples
    )
    assert serialize_ntriples(retrieve_subgraph(copied, seeds, max_hops)) == expected


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
