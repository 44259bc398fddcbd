from __future__ import annotations

import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factgate.extraction import (
    NUMBER_TOKEN_RE,
    _KEY_END,
    Claim,
    PredicateRule,
    _fold,
    _fold_key,
    _normalize_alias,
    build_lexicon,
    extract_claims,
    link_question_entities,
    parse_rules,
    rule_for_triple,
    verbalize_triple,
)
from factgate.kg import (
    EXACT,
    Datatype,
    Graph,
    Iri,
    Literal,
    ParseError,
    Triple,
    decimal_lexical,
    parse_decimal,
    parse_ntriples,
)

from conftest import FIXTURES

LABEL = Iri("label")

LENGTH_RULE = PredicateRule(
    "R_length", "SUBJ is OBJ km long", Iri("length"), "numeric", Decimal("1000")
)
ELEV_RULE = PredicateRule(
    "R_source", "SUBJ rises at OBJ meters", Iri("sourceElevation"), "numeric",
    Decimal("1"),
)
TRIB_RULE = PredicateRule(
    "R_trib", "SUBJ has tributary OBJ", Iri("hasTributary"), "entity"
)


@pytest.fixture
def lexicon():
    g = parse_ntriples(
        "\n".join(
            [
                '<River_Colorado> <label> "Colorado River" .',
                '<River_Gila> <label> "Gila River" .',
                '<State_Colorado> <label> "Colorado" .',
            ]
        )
    )
    return build_lexicon(g, [LABEL])


# --- lexicon ----------------------------------------------------------------


def test_label_maps_to_entity(lexicon):
    assert link_question_entities("colorado river", lexicon) == {Iri("River_Colorado")}


def test_local_name_alias_is_added(lexicon):
    assert link_question_entities("river colorado", lexicon) == {Iri("River_Colorado")}


def test_empty_graph_gives_empty_lexicon():
    lex = build_lexicon(Graph(), [LABEL])
    assert len(lex) == 0
    assert extract_claims("anything at all", lex, [LENGTH_RULE]) == []


def test_conflicting_alias_resolution():
    # 20 labeled entities; e05 and e13 share the alias "shared name".
    lines = []
    for i in range(20):
        name = f"shared name" if i in (5, 13) else f"entity {i:02d}"
        lines.append(f'<e{i:02d}> <label> "{name}" .')
    lex = build_lexicon(parse_ntriples("\n".join(lines)), [LABEL])
    # Hand enumeration: 18 unique label aliases + 1 shared + 20 local names.
    assert len(lex) == 19 + 20
    assert len(lex.conflicts) == 1
    conflict = lex.conflicts[0]
    assert conflict.alias == "shared name"
    assert conflict.kept == Iri("e05")
    assert conflict.dropped == Iri("e13")
    assert link_question_entities("shared name", lex) == {Iri("e05")}


def test_non_string_labels_are_ignored():
    g = parse_ntriples('<a> <label> "42" .')
    lex = build_lexicon(g, [LABEL])
    # "42" parses as a decimal literal, so it is not a usable label; only
    # nothing is mapped (no labeled entities at all).
    assert len(lex) == 0


def test_lexicon_requires_label_predicates():
    with pytest.raises(ValueError):
        build_lexicon(Graph(), [])


def test_every_lexicon_entity_is_in_the_graph():
    g = parse_ntriples(
        "\n".join(
            [
                '<River_Colorado> <label> "Colorado River" .',
                '<State_Utah> <label> "Utah" .',
                "<River_Colorado> <traverses> <State_Utah> .",
            ]
        )
    )
    lex = build_lexicon(g, [LABEL])
    subjects = {t.subject for t in g}
    assert all(iri in subjects for iri in lex.alias_to_iri.values())


# Whitespace of every kind str.isspace() knows, and characters next to it.
_SPACES = (
    " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0"
    "\u1680\u2000\u200a\u2028\u2029\u202f\u205f\u3000"
)
_NEAR_SPACES = "\u180e\u200b\u200c\u2060\ufeffİẞΣ"


@settings(max_examples=500)
@given(st.text(st.one_of(st.characters(), st.sampled_from(_SPACES + _NEAR_SPACES))))
def test_alias_normalization_is_the_regex_form(text):
    # The regex form it replaced stays here as the reference.
    assert _normalize_alias(text) == re.sub(r"\s+", " ", text.strip().lower())


# --- extraction --------------------------------------------------------------


def test_threads_sharing_a_fresh_lexicon_agree(lexicon):
    # `eval --jobs` shares one lexicon and one rule list, whose trie and
    # segment regexes are built on first use.
    rules = parse_rules((FIXTURES / "rivers" / "rules.txt").read_text("utf-8"))
    text = (
        "Colorado River is 2334 km long. Gila River rises at 2012 meters. "
        "Gila River ends at 43 meters. Colorado River discharges 640 cubic "
        "meters per second. Colorado River traverses Colorado. "
        "Colorado River has tributary Gila River."
    )

    def both():
        return extract_claims(text, lexicon, rules), link_question_entities(text, lexicon)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(both) for _ in range(32)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert results == [both()] * len(results)
    assert sorted(c.rule_id for c in results[0][0]) == sorted(r.rule_id for r in rules)
    assert len(results[0][1]) == 3


def test_km_length_extraction_with_unit_scaling(lexicon):
    claims = extract_claims("Colorado River is 2334 km long", lexicon, [LENGTH_RULE])
    assert len(claims) == 1
    triple = claims[0].triple
    assert triple.subject == Iri("River_Colorado")
    assert triple.predicate == Iri("length")
    assert triple.object == Literal("2334000", Datatype.DECIMAL)


def test_no_match_yields_empty_list(lexicon):
    assert extract_claims("The weather is nice today.", lexicon, [LENGTH_RULE]) == []


def test_unknown_entity_is_dropped_silently(lexicon):
    claims = extract_claims("Rubicon River is 406 km long", lexicon, [LENGTH_RULE])
    assert claims == []


def test_two_matches_ordered_by_span(lexicon):
    # Hand application: rule 1 matches at offset 0, rule 2 at offset 32.
    text = "Gila River is 1044 km long and Gila River rises at 2012 meters"
    claims = extract_claims(text, lexicon, [ELEV_RULE, LENGTH_RULE])
    assert len(claims) == 2
    assert claims[0].rule_id == "R_length"
    assert claims[1].rule_id == "R_source"
    assert claims[0].source_span[0] < claims[1].source_span[0]
    assert claims[0].triple.object.numeric == Decimal("1044000")
    assert claims[1].triple.object.numeric == Decimal("2012")


def test_case_insensitive_matching(lexicon):
    claims = extract_claims("COLORADO RIVER IS 10 KM LONG", lexicon, [LENGTH_RULE])
    assert len(claims) == 1
    assert claims[0].triple.object == Literal("10000", Datatype.DECIMAL)


def test_entity_object_extraction(lexicon):
    claims = extract_claims(
        "Colorado River has tributary Gila River.", lexicon, [TRIB_RULE]
    )
    assert [c.triple for c in claims] == [
        Triple(Iri("River_Colorado"), Iri("hasTributary"), Iri("River_Gila"))
    ]


def test_span_substring_reproduces_claim(lexicon):
    text = "We know that Gila River is 1044 km long, more or less."
    [claim] = extract_claims(text, lexicon, [LENGTH_RULE])
    start, end = claim.source_span
    [again] = extract_claims(text[start:end], lexicon, [LENGTH_RULE])
    assert again.triple == claim.triple


def test_determinism(lexicon):
    text = "Colorado River is 2334 km long. Gila River is 1044 km long."
    first = extract_claims(text, lexicon, [LENGTH_RULE, TRIB_RULE])
    for _ in range(3):
        assert extract_claims(text, lexicon, [LENGTH_RULE, TRIB_RULE]) == first


def test_no_partial_word_matches(lexicon):
    # "xcolorado riverx" must not resolve through the "colorado river" alias.
    claims = extract_claims("xColorado Riverx is 5 km long", lexicon, [LENGTH_RULE])
    assert claims == []


def test_no_fabrication_on_fuzzed_sentences(lexicon):
    rng = random.Random(2024)
    vocab = [
        "colorado", "river", "gila", "is", "km", "long", "the", "mighty",
        "2334", "flows", "rises", "at", "meters", "rubicon", "12.5",
    ]
    rules = [LENGTH_RULE, ELEV_RULE, TRIB_RULE]
    known = set(lexicon.alias_to_iri.values())
    for _ in range(300):
        sentence = " ".join(rng.choices(vocab, k=rng.randint(3, 12)))
        for claim in extract_claims(sentence, lexicon, rules):
            assert claim.triple.subject in known
            if isinstance(claim.triple.object, Iri):
                assert claim.triple.object in known


# --- question linking ---------------------------------------------------------


def test_question_entity_linking(lexicon):
    assert link_question_entities("How long is the Colorado River?", lexicon) == {
        Iri("River_Colorado")
    }


def test_unknown_question_has_no_entities(lexicon):
    assert link_question_entities("What is the capital of France?", lexicon) == set()


def test_longest_alias_wins_on_overlap(lexicon):
    # "colorado" alone would resolve to the state; the longer river alias
    # must shadow it where both apply.
    assert link_question_entities("Tell me about the Colorado River", lexicon) == {
        Iri("River_Colorado")
    }
    assert link_question_entities("Tell me about Colorado", lexicon) == {
        Iri("State_Colorado")
    }


# --- rule files -----------------------------------------------------------------


def test_parse_rules_round_trip():
    text = (
        "# length in km\n"
        'R_length "SUBJ is OBJ km long" predicate=<length> kind=numeric scale=1000\n'
        'R_trib "SUBJ has tributary OBJ" predicate=<hasTributary> kind=entity\n'
    )
    rules = parse_rules(text)
    assert rules[0] == LENGTH_RULE
    assert rules[1] == TRIB_RULE


@pytest.mark.parametrize(
    "line",
    [
        'R "SUBJ only" predicate=<p> kind=numeric scale=1',  # missing OBJ
        'R "SUBJ near OBJ" predicate=<p> kind=entity scale=1',  # scale on entity
        'R "SUBJ near OBJ" predicate=<p> kind=numeric',  # numeric without scale
        'R "SUBJ near OBJ" predicate=<p> kind=fuzzy',  # bad kind
        'R "SUBJ near OBJ" kind=entity',  # missing predicate
        "R no-quoted-pattern predicate=<p> kind=entity",
        # A scale of 0 reads every number as 0; a negative one flips a sign.
        'R "SUBJ is OBJ km long" predicate=<length> kind=numeric scale=0',
        'R "SUBJ is OBJ km long" predicate=<length> kind=numeric scale=-1000',
    ],
)
def test_rule_file_errors(line):
    with pytest.raises(ParseError):
        parse_rules(line)


def test_duplicate_rule_id_rejected():
    text = (
        'R "SUBJ at OBJ meters" predicate=<p> kind=numeric scale=1\n'
        'R "SUBJ near OBJ" predicate=<q> kind=entity\n'
    )
    with pytest.raises(ParseError) as err:
        parse_rules(text)
    assert err.value.line == 2


def test_repeated_rule_key_rejected():
    text = (
        'R1 "SUBJ at OBJ meters" predicate=<p> kind=numeric scale=1\n'
        'R2 "SUBJ near OBJ" predicate=<a> predicate=<b> kind=entity\n'
    )
    with pytest.raises(ParseError) as err:
        parse_rules(text)
    assert err.value.line == 2
    assert err.value.reason == "duplicate key 'predicate'"


# --- verbalization (rule inversion) ----------------------------------------------


def test_verbalize_inverts_extraction(lexicon):
    triple = Triple(
        Iri("River_Colorado"), Iri("length"), Literal("2334000.0", Datatype.DECIMAL)
    )
    rule = rule_for_triple(triple, [TRIB_RULE, LENGTH_RULE])
    assert rule == LENGTH_RULE
    sentence = verbalize_triple(triple, rule)
    assert sentence == "River Colorado is 2334 km long."
    [claim] = extract_claims(sentence, lexicon, [LENGTH_RULE])
    assert claim.triple.subject == triple.subject
    assert claim.triple.object.numeric == Decimal("2334000")


def _terminates(q: Fraction) -> bool:
    d = q.denominator
    for f in (2, 5):
        while d % f == 0:
            d //= f
    return d == 1


@settings(max_examples=300, deadline=None)
@given(
    st.builds(
        lambda sign, digits, e: Decimal(sign + digits).scaleb(-e),
        st.sampled_from(["", "-"]),
        st.text("0123456789", min_size=1, max_size=40),
        st.integers(0, 40),
    ),
    st.builds(
        lambda n, e: Decimal(n).scaleb(e),
        st.integers(1, 10**4) | st.sampled_from([2**20, 5**12, 3 * 2**10]),
        st.integers(-4, 4),
    ),
)
@example(Decimal("1.00000000000000000000000000001"), Decimal(1000))
def test_verbalized_number_is_the_exact_quotient_when_it_ends(value, scale):
    rule = PredicateRule("R", "SUBJ is OBJ km long", Iri("length"), "numeric", scale)
    obj = Literal(decimal_lexical(value), Datatype.DECIMAL)
    triple = Triple(Iri("River_X"), Iri("length"), obj)
    number = verbalize_triple(triple, rule).split()[3]
    quotient = Fraction(value) / Fraction(scale)
    if _terminates(quotient):
        assert Fraction(Decimal(number)) == quotient
        assert number == decimal_lexical(Decimal(number).normalize(EXACT))
    else:
        # Not a stored value, so the claim read back from it abstains.
        assert number == decimal_lexical((value / scale).normalize())


def test_rule_for_triple_respects_object_kind():
    numeric_triple = Triple(Iri("a"), Iri("hasTributary"), Literal("5", Datatype.DECIMAL))
    assert rule_for_triple(numeric_triple, [TRIB_RULE]) is None
    entity_triple = Triple(Iri("a"), Iri("hasTributary"), Iri("b"))
    assert rule_for_triple(entity_triple, [TRIB_RULE]) == TRIB_RULE


_RIVERS_RULES = parse_rules((FIXTURES / "rivers" / "rules.txt").read_text("utf-8"))
# Local names of words that spell, or hold, a slot name.
_LOCAL_NAMES = st.lists(
    st.sampled_from(["River", "OBJ", "SUBJ", "OBJECT", "Green", "X1"]),
    min_size=1,
    max_size=3,
).map("_".join)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_RIVERS_RULES),
    _LOCAL_NAMES,
    _LOCAL_NAMES,
    st.decimals(min_value=-10**6, max_value=10**6, places=3),
)
def test_verbalized_triple_extracts_back(rule, subject, obj, number):
    if rule.object_kind == "entity":
        o: Iri | Literal = Iri(obj)
    else:
        o = Literal(decimal_lexical(number), Datatype.DECIMAL)
    triple = Triple(Iri(subject), rule.predicate, o)
    labels = [Triple(Iri(n), LABEL, Literal(n.replace("_", " "))) for n in (subject, obj)]
    lexicon = build_lexicon(Graph([triple, *labels]), [LABEL])
    claims = extract_claims(verbalize_triple(triple, rule), lexicon, [rule])
    assert any(Graph([triple]).contains(c.triple) for c in claims)


# --- equivalence with the regex extractor -------------------------------------
# The extractor the alias trie replaced: every alias, longest first, compiled
# into one alternation at each entity slot of each rule regex, and matched
# with `finditer`. It stays here as the oracle for the trie scan. Each slot
# resolves to the entity of the alias the alternation matched; the replaced
# code re-resolved the matched text through a `str.lower` lookup instead (see
# test_entity_is_the_alias_that_matched).

_L = r"(?<![0-9A-Za-z_])"
_R = r"(?![0-9A-Za-z_])"


def _alias_regex(alias):
    return r"\s+".join(re.escape(c) for c in alias.split(" "))


def _alternation(lexicon):
    ordered = sorted(lexicon.alias_to_iri, key=lambda a: (-len(a), a))
    return "|".join(_alias_regex(a) for a in ordered)


def _matched_entity(lexicon, surface):
    """The entity of the alternation branch that matched `surface`: the first
    alias in preference order that matches all of it."""
    for alias in sorted(lexicon.alias_to_iri, key=lambda a: (-len(a), a)):
        if re.fullmatch(_alias_regex(alias), surface, re.IGNORECASE):
            return lexicon.alias_to_iri[alias]


def _oracle_rule_regex(rule, aliases):
    pieces = []
    for part in re.split(r"\b(SUBJ|OBJ)\b", rule.pattern):
        if part == "SUBJ":
            pieces.append(f"(?P<subj>{aliases})")
        elif part == "OBJ":
            if rule.object_kind == "numeric":
                pieces.append(f"(?P<obj>{NUMBER_TOKEN_RE.pattern})")
            else:
                pieces.append(f"(?P<obj>{aliases})")
        else:
            chunks = re.split(r"(\s+)", part)
            pieces.append(
                "".join(r"\s+" if c.isspace() else re.escape(c) for c in chunks)
            )
    return re.compile(_L + "".join(pieces) + _R, re.IGNORECASE)


def oracle_extract_claims(text, lexicon, rules):
    if not lexicon.alias_to_iri:
        return []
    aliases = _alternation(lexicon)
    claims = []
    for rule in rules:
        for m in _oracle_rule_regex(rule, aliases).finditer(text):
            subject = _matched_entity(lexicon, m.group("subj"))
            if rule.object_kind == "numeric":
                value = parse_decimal(m.group("obj")) * rule.unit_scale
                obj = Literal(decimal_lexical(value), Datatype.DECIMAL)
            else:
                obj = _matched_entity(lexicon, m.group("obj"))
            claims.append(
                Claim(Triple(subject, rule.predicate, obj), (m.start(), m.end()), rule.rule_id)
            )
    claims.sort(key=lambda c: (c.source_span[0], c.rule_id))
    return claims


def oracle_link_question_entities(question, lexicon):
    if not lexicon.alias_to_iri:
        return set()
    rx = re.compile(_L + f"(?:{_alternation(lexicon)})" + _R, re.IGNORECASE)
    return {_matched_entity(lexicon, m.group(0)) for m in rx.finditer(question)}


def _fixture_lexicon(name):
    graph = parse_ntriples((FIXTURES / name / "graph.nt").read_text("utf-8"))
    return build_lexicon(graph, [LABEL])


# Aliases sharing prefixes, pairs that fold to one trie path ("star" and
# "ſtar", "idris" and "ıdris"), aliases starting with a digit, and some
# holding punctuation.
_PREFIX_LABELS = [
    "Tavo River", "Tavo River 3", "Big Tavo River", "Tavo", "River",
    "star", "ſtar", "idris", "ıdris", "Straße", "3 forks", "St. Mary River",
    "O'Neil Creek", "5.x", "Kelvin Lake", "5.5.x",
]
PREFIX_LEXICON = build_lexicon(
    parse_ntriples(
        "\n".join(f'<e{i}> <label> "{name}" .' for i, name in enumerate(_PREFIX_LABELS))
    ),
    [LABEL],
)
LEXICONS = [_fixture_lexicon("rivers"), _fixture_lexicon("philosophers"), PREFIX_LEXICON]

# The fixture rules, plus shapes they lack: literal text before the first
# slot, OBJ before SUBJ, a numeric OBJ glued to an entity slot by a dot (a
# regex backtracks into the number there), punctuation between slots, and
# trailing whitespace before the right boundary.
EQUIVALENCE_RULES = [
    *parse_rules((FIXTURES / "rivers" / "rules.txt").read_text("utf-8")),
    *parse_rules((FIXTURES / "philosophers" / "rules.txt").read_text("utf-8")),
    *parse_rules(
        'X_of "the length of SUBJ is OBJ km" predicate=<length> kind=numeric scale=1000\n'
        'X_into "OBJ flows into SUBJ" predicate=<hasTributary> kind=entity\n'
        'X_dot "OBJ.SUBJ" predicate=<code> kind=numeric scale=1\n'
        'X_dash "SUBJ-OBJ" predicate=<near> kind=entity\n'
        'X_trail "SUBJ is near OBJ " predicate=<near> kind=entity\n'
    ),
]
_WORDS = sorted(
    {w for r in EQUIVALENCE_RULES for w in re.split(r"\s+|SUBJ|OBJ", r.pattern) if w}
)
_NUMBERS = ["+.5", "12.", "-3.25", "007", "2334", "1.5.3", "12-3", ".5", "+", "-", ".", "5"]
# Characters whose case folding is not ASCII: long s, Kelvin sign, dotted
# and dotless I, capital sharp s, micro sign, final sigma.
_ODD = ["ſ", "K", "İ", "ı", "ẞ", "ß", "µ", "ς", "é", "x", "_", "9"]
_SPACES = [" ", "  ", "\t", "\n", " \t\n "]
_SEPARATORS = ["", " ", "  ", "\t", "\n", ". ", ",", "-", "."]
_CASES = [
    str,
    str.upper,
    str.title,
    str.swapcase,
    lambda t: t.replace("s", "ſ").replace("k", "K"),
    lambda t: t.upper().replace("I", "İ"),
    lambda t: t.replace("i", "ı"),
]


@st.composite
def _alias_text(draw, lexicon):
    alias = draw(st.sampled_from(sorted(lexicon.alias_to_iri)))
    return "".join(draw(st.sampled_from(_SPACES)) if c == " " else c for c in alias)


@st.composite
def _sentence(draw, lexicon):
    rule = draw(st.sampled_from(EQUIVALENCE_RULES))
    out = []
    for part in re.split(r"\b(SUBJ|OBJ)\b", rule.pattern):
        if part == "OBJ" and rule.object_kind == "numeric":
            out.append(draw(st.sampled_from(_NUMBERS)))
        elif part in ("SUBJ", "OBJ"):
            out.append(draw(_alias_text(lexicon)))
        else:
            out.append(re.sub(r" ", lambda _: draw(st.sampled_from(_SPACES)), part))
    return "".join(out)


@st.composite
def _lexicon_and_text(draw):
    lexicon = draw(st.sampled_from(LEXICONS))
    fragment = st.one_of(
        _sentence(lexicon),
        _alias_text(lexicon),
        st.sampled_from(_WORDS + _NUMBERS + _ODD),
    )
    parts = []
    for _ in range(draw(st.integers(1, 8))):
        case = draw(st.sampled_from(_CASES))
        parts.append(case(draw(fragment)))
        parts.append(draw(st.sampled_from(_SEPARATORS)))
    return lexicon, "".join(parts)


@settings(max_examples=600, deadline=None)
@given(_lexicon_and_text())
# Boundaries next to characters that fold into the boundary class: long s
# and the Kelvin sign are word characters there, so neither text links
# anything; é is not, so "arizona" links.
@example((LEXICONS[0], "arizonaſalt river"))
@example((LEXICONS[0], "ArizonaK"))
@example((LEXICONS[0], "Arizonaé"))
def test_trie_scan_agrees_with_regex_alternation(lexicon_and_text):
    lexicon, text = lexicon_and_text
    assert extract_claims(text, lexicon, EQUIVALENCE_RULES) == oracle_extract_claims(
        text, lexicon, EQUIVALENCE_RULES
    )
    assert link_question_entities(text, lexicon) == oracle_link_question_entities(
        text, lexicon
    )


@lru_cache(maxsize=None)
def _alias_pattern(alias):
    return re.compile(_alias_regex(alias) + _R, re.IGNORECASE)


def oracle_mentions(text, lexicon):
    """`Lexicon.mentions` read off the regexes, one position at a time."""
    ordered = sorted(lexicon.alias_to_iri, key=lambda a: (-len(a), a))
    boundary_l = re.compile(_L, re.IGNORECASE)
    boundary_r = re.compile(_R, re.IGNORECASE)
    aliases, numbers = {}, {}
    for start in range(len(text)):
        if not boundary_l.match(text, start):
            continue
        found = [(a, m.end()) for a in ordered if (m := _alias_pattern(a).match(text, start))]
        if found:
            aliases[start] = found
        found = [
            (text[start:end], end)
            for end in range(len(text), start, -1)
            if NUMBER_TOKEN_RE.fullmatch(text, start, end) and boundary_r.match(text, end)
        ]
        if found:
            numbers[start] = found
    return aliases, numbers


@settings(max_examples=300, deadline=None)
@given(_lexicon_and_text())
def test_mention_index_agrees_with_the_regex(lexicon_and_text):
    lexicon, text = lexicon_and_text
    aliases, numbers = lexicon.mentions(text)
    expected_aliases, expected_numbers = oracle_mentions(text, lexicon)
    assert list(aliases.items()) == list(expected_aliases.items())
    assert list(numbers.items()) == list(expected_numbers.items())


@pytest.mark.parametrize("digit", ["1", "\u0663"])  # an ASCII and an Arabic-Indic 3
def test_a_long_digit_run_is_one_number_value(digit):
    # Every prefix of an ASCII run is a number token, but only the whole run
    # ends at a word boundary: the index holds that one value, so its size
    # and the time to build it stay linear in the run's length. A number is
    # ASCII digits, so an Arabic-Indic run is none, and every one of its
    # characters, a word start, is read in constant time.
    rivers = LEXICONS[0]
    prefix = "Colorado River is "
    text = prefix + digit * 20_000 + " km long."
    claims = extract_claims(text, rivers, EQUIVALENCE_RULES)
    _, numbers = rivers.mentions(text)
    if not digit.isascii():
        assert claims == [] and numbers == {}
        return
    [claim] = claims
    assert claim.triple.object == Literal(digit * 20_000 + "000", Datatype.DECIMAL)
    assert numbers == {len(prefix): [(digit * 20_000, len(prefix) + 20_000)]}


def test_a_run_of_non_ascii_digits_is_not_split():
    # "١٢" is no number, and no part of it is: neither the regex nor the
    # index reads one from it. Like any character outside the boundary
    # class, a non-ASCII digit leaves a word start after it, where both read
    # the ASCII number that follows.
    text = "a\u0661\u0662.tavo"
    assert oracle_extract_claims(text, PREFIX_LEXICON, EQUIVALENCE_RULES) == []
    assert extract_claims(text, PREFIX_LEXICON, EQUIVALENCE_RULES) == []
    assert PREFIX_LEXICON.mentions(text)[1] == {}
    text = "a\u06612.tavo"
    [claim] = extract_claims(text, PREFIX_LEXICON, EQUIVALENCE_RULES)
    assert claim.triple.object == Literal("2", Datatype.DECIMAL)
    assert [claim] == oracle_extract_claims(text, PREFIX_LEXICON, EQUIVALENCE_RULES)


@pytest.mark.parametrize(
    "text, subject",
    [
        ("TAVO RIVER 3 is 12 km long", "e1"),  # longest alias wins
        ("big\ttavo\n river is 12 km long", "e2"),  # spaces match whitespace runs
        ("KELVIN LAKE is 12 km long", "e14"),  # Kelvin sign is k
        ("ſTAR is 12 km long", "e5"),  # long s is s; "star" sorts before "ſtar"
        ("ıdris is 12 km long", "e7"),  # dotless i is i; "idris" first
        ("İDRİS is 12 km long", "e7"),  # dotted capital I is i
        ("STRAẞE is 12 km long", "e9"),  # capital sharp s is ß
    ],
)
def test_non_ascii_case_folding_matches_the_regex(text, subject):
    [claim] = extract_claims(text, PREFIX_LEXICON, EQUIVALENCE_RULES)
    assert claim.triple.subject == Iri(subject)
    assert [claim] == oracle_extract_claims(text, PREFIX_LEXICON, EQUIVALENCE_RULES)


def test_multi_character_fold_key_is_one_trie_step():
    # "ß" folds to the two-character key "SS". Were the keys of a prefix
    # joined bare, "stras" (of "Strasbourg") plus "s" would reach the prefix
    # of "straße", and "Strasse" would match it; the regex does not.
    lexicon = build_lexicon(
        parse_ntriples('<a> <label> "Straße" .\n<b> <label> "Strasbourg" .'), [LABEL]
    )
    text = "Strasse is 12 km long"
    assert extract_claims(text, lexicon, EQUIVALENCE_RULES) == []
    assert oracle_extract_claims(text, lexicon, EQUIVALENCE_RULES) == []
    assert link_question_entities(text, lexicon) == set()
    [claim] = extract_claims("STRAẞE is 12 km long", lexicon, EQUIVALENCE_RULES)
    assert claim.triple.subject == Iri("a")


# Every basic-plane character and a few astral ones.
_SWEEP = "".join(map(chr, [*range(0x10000), 0x10400, 0x10428, 0x1E900, 0x1E922]))


def test_fold_keys_agree_with_re_ignorecase():
    # The sweep against characters an alias can hold, with non-ASCII case
    # folding among them.
    text = _SWEEP
    by_key = {}
    for ch in text:
        by_key.setdefault(_fold(ch), set()).add(ch)
    for alias_char in "azk09_.-éßſıiµμςσϐβϑθﬅﬆẛṡǆωвꙋ\u0307𐐨𞤢":
        matched = set(re.findall(re.escape(alias_char), text, re.IGNORECASE))
        assert matched == by_key[_fold(alias_char)], alias_char
    whitespace = set(re.findall(r"\s", text))
    assert whitespace == by_key[" "]


def test_no_non_word_character_folds_into_the_boundary_class():
    # Every slot of a rule is bounded by a character outside `\w` or by a
    # whitespace run, so the mention index drops values that end before a
    # character of the boundary class. That is exact only if no such
    # character shares a case key with the class: then none is matched by
    # the class, nor by a rule literal that a class character would match.
    word = re.compile("[0-9A-Za-z_]", re.IGNORECASE)
    class_keys = {_fold(ch) for ch in _SWEEP if word.match(ch)}
    assert [
        ch for ch in _SWEEP if not re.match(r"\w", ch) and _fold(ch) in class_keys
    ] == []


def test_cached_fold_key_is_the_fold_key_and_stays_bounded():
    for ch in _SWEEP:
        assert _fold_key(ch) == _fold(ch) + _KEY_END, ch
    info = _fold_key.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize < len(_SWEEP)


@pytest.mark.parametrize(
    "text, expected",
    [
        # The number "1.5" leaves "5.x"; "1" would leave the alias "5.5.x".
        ("1.5.5.x", [("X_dot", "e13", "1.5")]),
        # "1.5" leaves "x", no alias; the regex falls back to "1".
        ("1.5.x", [("X_dot", "e13", "1")]),
        # A failed match restarts one character after its start, inside the
        # literal text it had matched.
        ("the length of the length of tavo is 5 km", [("X_of", "e3", "5000")]),
        # Trailing whitespace in a rule backtracks to leave a word boundary.
        ("tavo is near river  x", [("X_trail", "e3", "e4")]),
        # Rule literals present only in folded form: long s, Kelvin sign.
        ("tavo riſes at 3 meters", [("R_source", "e3", "3")]),
        ("tavo is 5 KM LONG", [("R_length", "e3", "5000")]),
        # A literal split by a whitespace run other than one space.
        ("tavo rises\t\nat 3 meters", [("R_source", "e3", "3")]),
        # Every literal of R_length is present, " km long" only before the
        # subject: the rule is scanned and matches nothing.
        ("5 km long, tavo is 5", []),
        # The only literal is R_tributary's: every numeric rule is skipped.
        ("tavo has tributary river", [("R_tributary", "e3", "e4")]),
    ],
)
def test_regex_backtracking_corner_cases(text, expected):
    claims = extract_claims(text, PREFIX_LEXICON, EQUIVALENCE_RULES)
    assert claims == oracle_extract_claims(text, PREFIX_LEXICON, EQUIVALENCE_RULES)
    assert [
        (c.rule_id, c.triple.subject.value, getattr(c.triple.object, "value", None)
         or c.triple.object.lexical)
        for c in claims
    ] == expected


def test_a_literal_first_rule_is_tried_inside_its_own_literal():
    # "a a" matches at 0 and at 2 of "a a a tavo": the match at 0 has no
    # alias after it, the one that starts inside it does.
    rules = parse_rules(
        'X_aa "a a SUBJ is OBJ km" predicate=<length> kind=numeric scale=1\n'
    )
    text = "a a a tavo is 5 km"
    [claim] = extract_claims(text, PREFIX_LEXICON, rules)
    assert claim.source_span == (2, len(text))
    assert [claim] == oracle_extract_claims(text, PREFIX_LEXICON, rules)


def test_entity_is_the_alias_that_matched():
    # The regex matches case-insensitively under a wider folding than
    # `str.lower`, so the replaced extractor, which re-resolved matched text
    # through a `str.lower` alias lookup, dropped some matches and moved
    # others to a different alias. Each slot now takes the entity of the alias it matched.
    rivers = LEXICONS[0]
    text = "Arkanſaſ River is 2334 km long. The Arkanſaſ River."
    [claim] = extract_claims(text, rivers, EQUIVALENCE_RULES)
    assert claim.triple.subject == Iri("River_Arkansas")
    assert link_question_entities(text, rivers) == {Iri("River_Arkansas")}
    [claim] = extract_claims("ſtar is 12 km long", PREFIX_LEXICON, EQUIVALENCE_RULES)
    assert claim.triple.subject == Iri("e5")  # "star" precedes "ſtar"
