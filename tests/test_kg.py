from __future__ import annotations

import gc
import random
import re
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factgate.extraction import PredicateRule, build_lexicon, extract_claims
from factgate.kg import (
    _LINE_RE,
    _parse_object,
    HUB_DEGREE,
    RDF_TYPE,
    XSD_DECIMAL,
    XSD_INTEGER,
    Datatype,
    Graph,
    Iri,
    Literal,
    ParseError,
    Triple,
    iter_lines,
    parse_ntriples,
    parse_ntriples_line,
    retrieve_subgraph,
    Subgraph,
    serialize_ntriples,
    split_lines,
    term_to_ntriples,
    triple_sort_key,
    triple_to_ntriples,
)

from conftest import REPO_ROOT


def lit(value: str, datatype: Datatype = Datatype.DECIMAL) -> Literal:
    return Literal(value, datatype)


def same_term(a, b) -> bool:
    """Term equality spelled out for the scan oracles: IRIs by value, two
    numbers by Decimal value, two strings by lexical form; a number never
    equals a string."""
    if isinstance(a, Iri) or isinstance(b, Iri):
        return a == b
    if a.datatype is Datatype.STRING or b.datatype is Datatype.STRING:
        return a.datatype is b.datatype and a.lexical == b.lexical
    return Decimal(a.lexical) == Decimal(b.lexical)


def scan_match(graph, s=None, p=None, o=None):
    """Linear-scan oracle for match()."""
    return [
        t
        for t in graph
        if (s is None or t.subject == s)
        and (p is None or t.predicate == p)
        and (o is None or same_term(t.object, o))
    ]


def _whole(graph):
    """The whole graph as a Subgraph: hop 1 from every subject collects
    every triple."""
    return retrieve_subgraph(graph, {t.subject for t in graph}, 1)


def scan_contains(graph, triple):
    """Linear-scan oracle for contains()."""
    return any(
        t.subject == triple.subject
        and t.predicate == triple.predicate
        and same_term(t.object, triple.object)
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
    by_value: dict[str, Iri] = {}
    by_text: dict[str, Literal] = {}
    for t in parse_ntriples(text):
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


def test_lines_end_only_at_newlines():
    # str.splitlines() would break this line at U+2028, and number the
    # malformed line after it 4.
    text = '<a> <label> "x\u2028y" .\r\n<a> <q> "\x0c" .\r<broken\n'
    with pytest.raises(ParseError) as err:
        parse_ntriples(text)
    assert err.value.line == 3
    g = parse_ntriples(text.replace("<broken\n", ""))
    assert [t.object.lexical for t in g] == ["x\u2028y", "\x0c"]


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="\r\na \x0b\x0c\x1c\x85\u2028\u2029", max_size=16))
def test_lazy_lines_are_the_split_lines(text):
    assert list(iter_lines(text)) == split_lines(text)


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


def test_a_number_is_ascii_digits():
    # "١٢" (Arabic-Indic 1, 2) is outside xsd:decimal's lexical space: the
    # literal is a string, and entails no number.
    g = parse_ntriples('<a> <p> "\u0661\u0662" .')
    obj = next(iter(g)).object
    assert obj == Literal("\u0661\u0662", Datatype.STRING)
    assert not g.contains(Triple(Iri("a"), Iri("p"), lit("12")))
    assert g.contains(Triple(Iri("a"), Iri("p"), obj))
    for dt in (XSD_DECIMAL, XSD_INTEGER):
        with pytest.raises(ParseError):
            parse_ntriples(f'<a> <p> "\u0661\u0662"^^<{dt}> .')
    with pytest.raises(ValueError):
        Literal("\u0661\u0662", Datatype.DECIMAL)


_XSD = "http://www.w3.org/2001/XMLSchema#"
# As keys "ab" < "ab1", but as lines "<ab1>" < "<ab>" ('1' < '>').
_LINE_IRIS = ["a", "a!", "ab", "ab1", "b"]
_STRING = Datatype.STRING
# Each object token and its term, made through the validating constructors:
# the reference both readers are held to. Several spellings of one term
# ("5", "5"^^decimal; "007" and "7" are not one), numeric-looking strings,
# escapes, and a raw tab, which the text of its term escapes.
_LINE_TERMS = {
    **{f"<{v}>": Iri(v) for v in _LINE_IRIS},
    '"5"': lit("5"),
    f'"5"^^<{_XSD}decimal>': lit("5"),
    '"5.0"': lit("5.0"),
    f'"5"^^<{_XSD}integer>': lit("5", Datatype.INTEGER),
    f'"007"^^<{_XSD}integer>': lit("007", Datatype.INTEGER),
    f'"7"^^<{_XSD}integer>': lit("7", Datatype.INTEGER),
    f'"5"^^<{_XSD}string>': lit("5", _STRING),
    f'"-1.5"^^<{_XSD}string>': lit("-1.5", _STRING),
    '"x"': lit("x", _STRING),
    f'"x"^^<{_XSD}string>': lit("x", _STRING),
    '""': lit("", _STRING),
    '"say \\"hi\\"\\n"': lit('say "hi"\n', _STRING),
    '"back\\\\slash\\ttab"': lit("back\\slash\ttab", _STRING),
    '"a\tb"': lit("a\tb", _STRING),
    '"a\\tb"': lit("a\tb", _STRING),
    # Characters str.splitlines() breaks at, held raw: none ends a line.
    '"x\u2028y"': lit("x\u2028y", _STRING),
    '"\u2029\x85"': lit("\u2029\x85", _STRING),
    '"a\x0b\x0cb"': lit("a\x0b\x0cb", _STRING),
    '"\x1c\x1d\x1e"': lit("\x1c\x1d\x1e", _STRING),
}
# Each malformed line and the reason it is rejected with.
_MALFORMED_LINES = {
    "<a> <p>": "expected `<subject> <predicate> object .`",
    "<a b> <p> <b> .": "IRI contains whitespace: 'a b'",
    "<> <p> <b> .": "IRI must be non-empty",
    "<a> <p> <b c> .": "IRI contains whitespace: 'b c'",
    f'<a> <p> "1.5"^^<{_XSD}double> .': f"unsupported datatype: <{_XSD}double>",
    f'<a> <p> "x"^^<{_XSD}integer> .': "invalid integer lexical form: 'x'",
    '<a> <p> "bad\\q" .': "unsupported escape in literal: 'bad\\\\q'",
}
# Another spelling of the same term.
_RESPELLED = {
    '"5"': f'"5"^^<{_XSD}decimal>',
    '"x"': f'"x"^^<{_XSD}string>',
    '"a\tb"': '"a\\tb"',
}


@st.composite
def _ntriples_lines(draw):
    """A line break and N-Triples lines over _LINE_IRIS and _LINE_TERMS,
    each with what it reads as: repeated triples, some respelled, padding,
    blank and comment lines (None), and maybe one malformed line (the
    reason it is rejected)."""
    iri = st.sampled_from(_LINE_IRIS)
    row = st.tuples(iri, iri, st.sampled_from(list(_LINE_TERMS)))
    rows = draw(st.lists(row, max_size=20))
    if rows:
        again = draw(st.lists(st.sampled_from(rows), max_size=6))
        rows += [(s, p, _RESPELLED.get(o, o)) for s, p, o in again]
    sep = st.sampled_from([" ", "\t", "  "])
    pad = st.sampled_from(["", " "])
    lines = []
    for s, p, o in draw(st.permutations(rows)):
        a, b, c, d = draw(sep), draw(sep), draw(pad), draw(pad)
        triple = Triple(Iri(s), Iri(p), _LINE_TERMS[o])
        lines.append((f"{d}<{s}>{a}<{p}>{b}{o}{c}.{d}", triple))
    filler = st.sampled_from(["", "   ", "# a comment", "  #<a> <p> <b> ."])
    for text in draw(st.lists(filler, max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), (text, None))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(lines)))
        line = draw(st.sampled_from(list(_MALFORMED_LINES)))
        lines.insert(at, (line, _MALFORMED_LINES[line]))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])), lines


def _fields(t: Triple) -> tuple:
    """Every field of a triple, `Literal.numeric` too, which == ignores."""
    o = t.object
    obj = o.value if isinstance(o, Iri) else (o.lexical, o.datatype, repr(o.numeric))
    return t.subject.value, t.predicate.value, obj


@settings(max_examples=300, deadline=None)
@given(_ntriples_lines())
def test_parse_agrees_with_the_per_line_reader(case):
    newline, lines = case
    expected, error = [], None
    for number, (line, want) in enumerate(lines, start=1):
        if isinstance(want, Triple):
            assert _fields(parse_ntriples_line(line)) == _fields(want)
            expected.append(want)
        elif want is not None:
            with pytest.raises(ValueError) as err:
                parse_ntriples_line(line)
            assert str(err.value) == want
            error = number, want
    text = newline.join(line for line, _ in lines)
    if error is None:
        graph = parse_ntriples(text)
        want = sorted(set(expected), key=triple_sort_key)
        assert list(map(_fields, graph)) == list(map(_fields, want))
    else:
        with pytest.raises(ParseError) as err:
            parse_ntriples(text)
        assert (err.value.line, err.value.reason) == error


@pytest.mark.parametrize("token", [*_LINE_TERMS, '"x\ry"'])
def test_an_object_token_gives_the_text_of_its_term(token):
    # A raw carriage return reaches the token only through
    # parse_ntriples_line: a parse breaks the line there.
    term, text = _parse_object(token, Iri)
    assert _fields(Triple(Iri("s"), Iri("p"), term)) == _fields(
        Triple(Iri("s"), Iri("p"), _LINE_TERMS.get(token, lit("x\ry", _STRING)))
    )
    assert text == term_to_ntriples(term)


@pytest.fixture
def collector():
    """Restores the cyclic garbage collector's state after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_a_build_leaves_the_collector_as_it_found_it(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    parse_ntriples('<a> <p> "1" .\n<a> <q> <b> .')
    assert gc.isenabled() is enabled
    with pytest.raises(ParseError):
        parse_ntriples('<a> <p> "1" .\n<a> <q> "bad\\q" .')
    assert gc.isenabled() is enabled
    Graph([Triple(Iri("a"), Iri("p"), lit("1"))])
    assert gc.isenabled() is enabled


def test_a_parse_runs_at_most_the_collection_it_deferred(collector):
    # Unpaused, this parse starts dozens of young-generation collections.
    # Paused, one may start after the build, when the collector is back on.
    gc.enable()
    text = "\n".join(f'<n{i}> <p> <n{i + 1}> .\n<n{i}> <q> "{i}" .' for i in range(5000))
    generations = []

    def record(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.callbacks.append(record)
    try:
        graph = parse_ntriples(text)
    finally:
        gc.callbacks.remove(record)
    assert len(graph) == 10_000
    assert len(generations) <= 1


# The line grammar before it was made linear, kept as the reference: on a
# malformed line with a long whitespace run it backtracks quadratically.
_BACKTRACKING_LINE_RE = re.compile(r"<([^<>]*)>\s+<([^<>]*)>\s+(.+?)\s*\.\s*$")
_LINE_PIECES = [
    "<s> <p> ", "<", ">", "<a>", " ", "  ", "\t", "\u00a0", "\n", ".", " .",
    "x", '"', "\\", "^^", "#",
]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_LINE_PIECES), max_size=12).map("".join))
@example("<s> <p> \t .")
def test_line_grammar_agrees_with_the_backtracking_reference(text):
    line = text.strip()  # both grammars read stripped lines
    reference = _BACKTRACKING_LINE_RE.match(line)
    m = _LINE_RE.match(line)
    if reference is not None and not reference.group(3).strip():
        # An object of whitespace alone: the reference matched it, and
        # _parse_object rejected it one step later.
        assert m is None
    else:
        assert (m and m.groups()) == (reference and reference.groups())


# Timed in a child process: a regex that backtracks holds the GIL for
# minutes on this line, so only a kill ends it.
_PARSE_LONG_LINE = """
import time
from factgate.kg import ParseError, parse_ntriples, parse_ntriples_line
line = "<a> <b> x" + " " * 999_990 + "y"
assert len(line) == 1_000_000
start = time.perf_counter()
for parse, error in ((parse_ntriples, ParseError), (parse_ntriples_line, ValueError)):
    try:
        parse(line)
    except error as exc:
        assert "expected `<subject>" in str(exc), exc
    else:
        raise AssertionError(f"{parse.__name__} read the line")
print(time.perf_counter() - start)
"""


def test_long_malformed_line_is_rejected_in_linear_time():
    proc = subprocess.run(
        [sys.executable, "-c", _PARSE_LONG_LINE],
        capture_output=True, text=True, timeout=30, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 2


# --- entailment ----------------------------------------------------------


def test_contains_known_fact(river_sample):
    claim = Triple(Iri("River_Colorado"), Iri("length"), lit("2334000.0"))
    assert river_sample.contains(claim)


def test_contains_empty_graph_is_false():
    g = Graph()
    assert not g.contains(Triple(Iri("a"), Iri("p"), Iri("b")))


def test_contains_rejects_a_value_off_in_the_17th_digit(river_sample):
    # A number entails only its own value, however close another one is:
    # this one is within one part in 1e16 of the stored "2334000.0".
    claim = Triple(Iri("River_Colorado"), Iri("length"), lit("2334000.0000000001"))
    assert not river_sample.contains(claim)


def test_contains_rejects_a_different_value(river_sample):
    claim = Triple(Iri("River_Colorado"), Iri("length"), lit("2334001"))
    assert not river_sample.contains(claim)


def test_numeric_string_literals_do_not_match():
    g = parse_ntriples('<a> <p> "5"^^<http://www.w3.org/2001/XMLSchema#string> .')
    assert not g.contains(Triple(Iri("a"), Iri("p"), lit("5")))
    assert g.contains(Triple(Iri("a"), Iri("p"), Literal("5", Datatype.STRING)))


def test_integer_and_decimal_literals_match_numerically():
    g = parse_ntriples('<a> <p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .')
    assert g.contains(Triple(Iri("a"), Iri("p"), lit("5.0")))


def test_contains_zero_cases():
    g = parse_ntriples('<a> <p> "0" .')
    for zero in ("0", "0.000", "-0", "+0.0"):
        assert g.contains(Triple(Iri("a"), Iri("p"), lit(zero)))
    assert not g.contains(Triple(Iri("a"), Iri("p"), lit("0.000000000000001")))


# Plain decimals of up to 36 digits, past Decimal's default 28.
_plain_decimals = st.builds(
    lambda sign, whole, frac: sign + whole + ("." + frac if frac else ""),
    st.sampled_from(["", "-"]),
    st.text("0123456789", min_size=1, max_size=18),
    st.text("0123456789", max_size=18),
)


def _shifted(lexical: str, k: int) -> str:
    """`lexical` times 10**k, spelled by moving its decimal point."""
    sign = "-" if lexical.startswith("-") else ""
    whole, _, frac = lexical.removeprefix("-").partition(".")
    digits = "000" + whole + frac + "0000"
    point = 3 + len(whole) + k
    return f"{sign}{digits[:point]}.{digits[point:]}"


def _respelled(lexical: str, zeros: int) -> str:
    """The same value with `zeros` more leading and trailing zeros."""
    sign = "-" if lexical.startswith("-") else ""
    body = lexical.removeprefix("-")
    point = "." if zeros and "." not in body else ""
    return f"{sign}{'0' * zeros}{body}{point}{'0' * zeros}"


def _changed(lexical: str, at: int, digit: str, tail: str) -> str:
    """Another value: the digit at index `at` becomes `digit`, or, where that
    changes nothing, the nonzero `tail` is appended to the fraction."""
    if at < len(lexical) and lexical[at].isdigit() and lexical[at] != digit:
        return lexical[:at] + digit + lexical[at + 1 :]
    return lexical + ("" if "." in lexical else ".") + tail


@settings(max_examples=300, deadline=None)
@given(
    stored=st.lists(_plain_decimals, min_size=1, max_size=3),
    pick=st.integers(0, 2),
    change=st.booleans(),
    at=st.integers(0, 40),
    digit=st.sampled_from("0123456789"),
    tail=st.sampled_from("123456789"),
    zeros=st.integers(0, 3),
    scale=st.sampled_from([0, 3, -3]),
    via_text=st.booleans(),
)
@example(stored=["2334." + "0" * 25], pick=0, change=True, at=99, digit="0",
         tail="1", zeros=0, scale=3, via_text=True)
@example(stored=["2334." + "0" * 25], pick=0, change=True, at=99, digit="0",
         tail="1", zeros=0, scale=0, via_text=False)
def test_a_number_entails_exactly_its_own_value(
    stored, pick, change, at, digit, tail, zeros, scale, via_text
):
    """A stated number is entailed iff a stored one has its value: one that
    differs at any digit, the 29th and later too, is not, and any spelling
    of a stored one is. The number is stated as a literal or in a sentence
    read by a rule of scale 10**scale, which the stored values carry."""
    stated = stored[pick % len(stored)]
    probe = _changed(stated, at, digit, tail) if change else _respelled(stated, zeros)
    rio, length = Iri("Rio"), Iri("length")
    graph = Graph(
        [Triple(rio, length, lit(_shifted(v, scale))) for v in stored]
        + [Triple(rio, Iri("label"), Literal("Rio"))]
    )
    if via_text:
        rule = PredicateRule(
            "R", "SUBJ is OBJ km long", length, "numeric", Decimal(10) ** scale
        )
        lexicon = build_lexicon(graph, [Iri("label")])
        [claim] = extract_claims(f"Rio is {probe} km long.", lexicon, [rule])
        triple = claim.triple
    else:
        triple = Triple(rio, length, lit(_shifted(probe, scale)))
    held = any(Fraction(probe) == Fraction(v) for v in stored)
    assert held or change
    assert graph.contains(triple) is held


def test_entailment_monotone_under_graph_growth():
    rng = random.Random(11)
    from conftest import random_graph

    small = random_graph(rng, 30)
    bigger = Graph(list(small) + [Triple(Iri("zz"), Iri("p0"), Iri("e1"))])
    for t in small:
        assert bigger.contains(t)


# --- pattern matching ----------------------------------------------------


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
        for p in [Iri("p0"), Iri("p2"), Iri("absent")]:
            for o in terms:
                got = g.match(s=s, p=p, o=o)
                assert list(map(triple_to_ntriples, got)) == list(
                    map(triple_to_ntriples, scan_match(g, s, p, o))
                )


@pytest.mark.parametrize("seed", [3, 17, 99])
def test_holds_is_contains_for_iri_objects(seed):
    from conftest import random_graph

    g = random_graph(random.Random(seed), 60)
    nodes = [Iri(f"e{i}") for i in range(13)]  # no triple names e12
    predicates = [Iri(f"p{i}") for i in range(5)]  # nor p4
    answers = [
        (g.holds(s, p, o), g.contains(Triple(s, p, o)))
        for s in nodes
        for p in predicates
        for o in nodes
    ]
    assert all(held == contained for held, contained in answers)
    assert sum(held for held, _ in answers) == sum(isinstance(t.object, Iri) for t in g)


# River is a class that is also a subject; Sea a class of no instance that
# may be a subject, Ocean one absent from the graph; a literal "River" may be
# a type object.
_SET_SUBJECTS = [Iri(n) for n in ("a", "b", "River", "Sea")]
_SET_PREDICATES = [RDF_TYPE, Iri("p0")]
_SET_OBJECTS = [
    Iri("River"), Iri("Lake"), Iri("a"), Literal("River", Datatype.STRING), lit("5")
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.builds(
            Triple,
            st.sampled_from(_SET_SUBJECTS),
            st.sampled_from(_SET_PREDICATES),
            st.sampled_from(_SET_OBJECTS),
        ),
        max_size=16,
    )
)
def test_subjects_of_is_a_scan(triples):
    g = Graph(triples)
    scan = tuple(g)
    for p in [*_SET_PREDICATES, Iri("absent")]:
        for o in [Iri("River"), Iri("Lake"), Iri("a"), Iri("Sea"), Iri("Ocean")]:
            found = g.subjects_of(p, o)
            assert found == {
                t.subject.value for t in scan if t.predicate == p and t.object == o
            }
            assert g.subjects_of(p, o) is found  # kept, not gathered again


# One number in three spellings, numbers below and above it (one of them in
# two spellings), and objects of a numeric predicate that are no number.
_EXTREME_OBJECTS = [
    lit("5"), lit("5.0"), lit("5", Datatype.INTEGER), lit("-1"), lit("7.5"),
    lit("7.50"), lit("12", Datatype.INTEGER), Literal("5", Datatype.STRING),
    Literal("x", Datatype.STRING), Iri("a"),
]
_EXTREME_PREDICATES = [Iri("p0"), Iri("p1")]


def _spelled(values) -> dict:
    """A subject -> number map with each number's spelling: `"5"` and
    `"5.0"` are one value but print apart, and a message prints them."""
    return {s: (v, str(v)) for s, v in values.items()}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.builds(
            Triple,
            st.sampled_from(_SET_SUBJECTS),
            st.sampled_from(_EXTREME_PREDICATES),
            st.sampled_from(_EXTREME_OBJECTS),
        ),
        max_size=16,
    )
)
def test_least_and_greatest_are_min_and_max_over_match(triples):
    g = Graph(triples)
    for p in [*_EXTREME_PREDICATES, Iri("absent")]:
        numbers: dict[str, list[Decimal]] = {}
        for t in g.match(p=p):
            if isinstance(t.object, Literal) and t.object.numeric is not None:
                numbers.setdefault(t.subject.value, []).append(t.object.numeric)
        least, greatest = g.least(p), g.greatest(p)
        assert _spelled(least) == _spelled({s: min(v) for s, v in numbers.items()})
        assert _spelled(greatest) == _spelled({s: max(v) for s, v in numbers.items()})
        assert g.least(p) is least and g.greatest(p) is greatest  # kept


def test_least_and_greatest_make_no_container_per_subject(collector):
    # The maps hold the triples' own strings and Decimals, which the
    # collector does not track. A map of a container per subject (a tuple of
    # its values) made one tracked object per subject, and so young
    # collections during a cold validate, one of them over the whole graph.
    p = Iri("p")
    growth = []
    for n in (200, 2000):
        g = parse_ntriples(
            "".join(f'<n{i}> <p> "{i}" .\n<n{i}> <p> "{i}.5" .\n' for i in range(n))
        )
        gc.disable()
        before = gc.get_count()[0]
        least, greatest = g.least(p), g.greatest(p)
        growth.append(gc.get_count()[0] - before)
        gc.enable()
        assert len(least) == len(greatest) == n
        assert str(least["n7"]) == "7" and str(greatest["n7"]) == "7.5"
    assert growth[0] == growth[1] <= 4


def test_match_orders_deterministically():
    g = parse_ntriples(
        "<b> <p> <x> .\n<a> <q> <x> .\n<a> <p> <y> .\n<a> <p> <x> .\n<x> <p> <a> ."
    )
    names = [
        [t.subject.value + t.object.value for t in found]
        for found in (
            g.match(p=Iri("p")),
            g.match(p=Iri("p"), o=Iri("x")),
            g.match(s=Iri("a"), p=Iri("p")),
        )
    ]
    assert names == [["ax", "ay", "bx", "xa"], ["ax", "bx"], ["ax", "ay"]]


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
@given(_hub_graph_and_seeds(), st.integers(1, 4))
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


def test_a_self_loop_counts_once_toward_the_hub_degree():
    a, h = Iri("a"), Iri("H")
    a_h, loop = Triple(a, Iri("p"), h), Triple(h, Iri("q"), h)
    star = [Triple(h, Iri("p"), leaf) for leaf in _LEAVES]
    # H's incident triples: a_h, its self-loop and the star's.
    g = Graph([a_h, loop, *star[: HUB_DEGREE - 2]])
    assert scan_hubs(g) == set()
    assert set(retrieve_subgraph(g, {a}, 2)) == set(g)
    g = Graph([a_h, loop, *star[: HUB_DEGREE - 1]])
    assert scan_hubs(g) == {"H"}
    assert set(retrieve_subgraph(g, {a}, 2)) == {a_h}


@settings(max_examples=200, deadline=None)
@given(_graph_and_seeds())
def test_object_bound_match_agrees_with_scan(graph_and_seeds):
    g, _ = graph_and_seeds
    for o in [*_NODES, *_SINKS, Iri("absent")]:
        for p in [Iri("p0"), Iri("p1"), Iri("absent")]:
            assert g.match(p=p, o=o) == scan_match(g, p=p, o=o)


@settings(max_examples=200, deadline=None)
@given(_hub_graph_and_seeds(), st.integers(1, 4))
def test_a_subgraph_counts_and_ranks_its_triples(graph_and_seeds, max_hops):
    g, seeds = graph_and_seeds
    sub = retrieve_subgraph(g, seeds, max_hops)
    ranks = sub.ranks
    assert list(ranks) == sorted(set(ranks))
    assert len(sub) == len(ranks) == len(tuple(sub))
    assert tuple(sub) == tuple(tuple(g)[r] for r in ranks)


def test_a_warm_context_renders_no_triple(rivers_fixture_paths, monkeypatch):
    from factgate import kg
    from factgate.gate import build_context

    graph = parse_ntriples(rivers_fixture_paths["graph"].read_text("utf-8"))
    lexicon = build_lexicon(graph, [Iri("label")])
    rendered = []
    render = kg.triple_to_ntriples
    monkeypatch.setattr(
        kg, "triple_to_ntriples", lambda t: rendered.append(t) or render(t)
    )
    # At two hops the context holds whole subject runs and single triples.
    question = "How long is the Colorado River?"
    context = build_context(question, graph, lexicon, 2)
    # Cold, each line of the context is rendered once.
    assert sorted(map(render, rendered)) == sorted(context.splitlines())
    cold = len(rendered)
    assert build_context(question, graph, lexicon, 2) == context
    assert len(rendered) == cold


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
    assert serialize_ntriples(_whole(built)) == serialize_ntriples(_whole(parsed))
    assert next(iter(built)).subject is not next(iter(parsed)).subject
    # Query terms are built separately from both graphs' terms too.
    terms = [None, Iri("a"), Iri("b"), Iri("d"), Iri("ab"), Iri("ab1"), Iri("zz")]
    objects = [
        *terms, lit("2.50"), Literal("b", Datatype.STRING),
        Literal("12", Datatype.STRING), lit("7"), Literal('say "hi"', Datatype.STRING),
    ]
    for s in terms:
        for p in [Iri("p"), Iri("q"), Iri("r"), Iri("absent")]:
            for o in objects:
                got = built.match(s=s, p=p, o=o)
                assert got == parsed.match(s=s, p=p, o=o)
                assert got == scan_match(parsed, s, p, o)
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
    assert serialize_ntriples(_whole(whole)) == _rendered(triples)
    assert serialize_ntriples(retrieve_subgraph(whole, seeds, max_hops)) == expected
    assert serialize_ntriples(_whole(whole)) == _rendered(triples)
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
    assert tuple(parse_ntriples(serialize_ntriples(_whole(g)))) == tuple(g)


def test_round_trip_on_random_graphs():
    from conftest import random_graph

    for seed in range(5):
        g = random_graph(random.Random(seed), 40)
        assert tuple(parse_ntriples(serialize_ntriples(_whole(g)))) == tuple(g)


def test_serialized_output_is_sorted():
    g = parse_ntriples("<b> <p> <x> .\n<a> <p> <x> .")
    assert serialize_ntriples(_whole(g)).splitlines() == [
        "<a> <p> <x> .",
        "<b> <p> <x> .",
    ]


def test_iri_rejects_whitespace_and_empty():
    with pytest.raises(ValueError):
        Iri("has space")
    with pytest.raises(ValueError):
        Iri("")
