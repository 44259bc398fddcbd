from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal

import pytest

from factgate.extraction import (
    Claim,
    PredicateRule,
    RuleError,
    build_lexicon,
    extract_claims,
    link_question_entities,
    parse_rules,
    rule_for_triple,
    verbalize_triple,
)
from factgate.kg import Datatype, Graph, Iri, Literal, Triple, parse_ntriples

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
    assert lexicon.resolve("colorado river") == Iri("River_Colorado")


def test_local_name_alias_is_added(lexicon):
    assert lexicon.resolve("river colorado") == Iri("River_Colorado")


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
    assert lex.resolve("shared name") == Iri("e05")


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
    subjects = g.subjects()
    assert all(iri in subjects for iri in lex.alias_to_iri.values())


# --- extraction --------------------------------------------------------------


def test_threads_sharing_a_fresh_lexicon_agree(lexicon):
    # `eval --jobs` shares one lexicon, whose regexes compile on first use.
    text = "Colorado River is 2334 km long. Gila River has tributary Colorado River."
    rules = [LENGTH_RULE, ELEV_RULE, TRIB_RULE]

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
    assert len(results[0][0]) == 2 and len(results[0][1]) == 2


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
    ],
)
def test_rule_file_errors(line):
    with pytest.raises(RuleError):
        parse_rules(line)


def test_duplicate_rule_id_rejected():
    text = (
        'R "SUBJ at OBJ meters" predicate=<p> kind=numeric scale=1\n'
        'R "SUBJ near OBJ" predicate=<q> kind=entity\n'
    )
    with pytest.raises(RuleError) as err:
        parse_rules(text)
    assert err.value.line == 2


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


def test_rule_for_triple_respects_object_kind():
    numeric_triple = Triple(Iri("a"), Iri("hasTributary"), Literal("5", Datatype.DECIMAL))
    assert rule_for_triple(numeric_triple, [TRIB_RULE]) is None
    entity_triple = Triple(Iri("a"), Iri("hasTributary"), Iri("b"))
    assert rule_for_triple(entity_triple, [TRIB_RULE]) == TRIB_RULE
