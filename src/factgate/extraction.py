"""Rule-based claim extraction.

Factual triples are pulled out of free text by matching predicate patterns
(`SUBJ is OBJ km long`) whose slots take their values from one scan of the
text (`Lexicon.mentions`): the aliases of a lexicon derived from the graph's
labeled entities, and number tokens. Numeric objects are multiplied exactly
by each rule's unit scale at extraction time, so downstream entailment
checks compare like with like.

The extractor is deliberately dumb and deterministic: anything it cannot
resolve is dropped, never invented. The licensing gate depends only on the
extract_claims signature, so a learned extractor can replace this one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Inexact
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .kg import (
    EXACT,
    Datatype,
    Graph,
    Iri,
    Literal,
    ParseError,
    Triple,
    content_lines,
    decimal_lexical,
    parse_decimal,
    parse_kv,
    split_lines,
    take_decimal,
    take_iri,
    take_param,
)

# A plain decimal number token in free text (no exponent, no trailing dot),
# of ASCII digits, as kg reads a number.
NUMBER_TOKEN_RE = re.compile(r"[+-]?(?:[0-9]+\.[0-9]+|[0-9]+|\.[0-9]+)")
# The longest number token at a position; group 1 is its integer part if a
# fraction, group 2, follows.
_NUMBER_RE = re.compile(r"[+-]?(?:([0-9]+)(\.[0-9]+)?|\.[0-9]+)")
_SLOT_RE = re.compile(r"\b(SUBJ|OBJ)\b")
_WORD_BOUNDARY_L = r"(?<![0-9A-Za-z_])"
_WORD_BOUNDARY_R = r"(?![0-9A-Za-z_])"
_WORD_START_RE = re.compile(_WORD_BOUNDARY_L + r"\S", re.IGNORECASE)
_WORD_END_RE = re.compile(_WORD_BOUNDARY_R, re.IGNORECASE)


@dataclass(frozen=True)
class LexiconConflict:
    """One alias claimed by two entities; the lexicographically smaller IRI won."""

    alias: str
    kept: Iri
    dropped: Iri


@dataclass(frozen=True)
class PredicateRule:
    """A textual template mapping one sentence shape to one predicate."""

    rule_id: str
    pattern: str
    predicate: Iri
    object_kind: str  # "numeric" | "entity"
    unit_scale: Decimal | None = None

    def __post_init__(self) -> None:
        slots = _SLOT_RE.findall(self.pattern)
        if sorted(slots) != ["OBJ", "SUBJ"]:
            raise ValueError(
                f"pattern must contain exactly one SUBJ and one OBJ: "
                f"{self.pattern!r}"
            )
        if self.object_kind not in ("numeric", "entity"):
            raise ValueError("object_kind must be numeric or entity")
        if (self.unit_scale is not None) != (self.object_kind == "numeric"):
            raise ValueError("unit_scale is required iff object_kind is numeric")
        if self.unit_scale is not None and self.unit_scale <= 0:
            raise ValueError(f"scale must be above 0, got {self.unit_scale}")

    @cached_property
    def _segments(self) -> tuple[tuple[re.Pattern[str], ...], tuple[str, ...]]:
        """The pattern split at its slots: the slot names in pattern order,
        and one regex per stretch of literal text around them (spaces match
        any whitespace run; the first and last carry the word boundaries)."""
        segments: list[re.Pattern[str]] = []
        slots: list[str] = []
        piece = _WORD_BOUNDARY_L
        for part in _SLOT_RE.split(self.pattern):
            if part in ("SUBJ", "OBJ"):
                segments.append(re.compile(piece, re.IGNORECASE))
                slots.append(part)
                piece = ""
            else:
                chunks = re.split(r"(\s+)", part)
                piece += "".join(
                    r"\s+" if c.isspace() else re.escape(c) for c in chunks
                )
        segments.append(re.compile(piece + _WORD_BOUNDARY_R, re.IGNORECASE))
        return tuple(segments), tuple(slots)


@dataclass(frozen=True)
class Claim:
    triple: Triple
    source_span: tuple[int, int]
    rule_id: str


def _normalize_alias(text: str) -> str:
    """Lowercased, each whitespace run one space, none at either end."""
    return " ".join(text.lower().split())


def local_name(iri: Iri) -> str:
    """Trailing segment of an IRI, after the last '#' or '/'."""
    value = iri.value
    for sep in ("#", "/"):
        if sep in value:
            value = value.rsplit(sep, 1)[1]
            break
    return value


def _fold(ch: str) -> str:
    """Case key of one character: a text character matches an alias
    character under `re.IGNORECASE` exactly when their keys are equal. `re`
    compares the first character of each lowercase form and treats
    lowercase letters with one uppercase form as one (s and long s, i and
    dotless i). Every whitespace character keys as a space."""
    return " " if ch.isspace() else ch.lower()[0].upper()


# Closes each `_fold` key in a trie prefix, so that a multi-character key
# (`ß` folds to "SS") and two single ones ("S", "S") give different prefixes.
# No other key contains it (`_fold("\0")` is "\0" itself), so every prefix
# splits back into its keys one way.
_KEY_END = "\0"


@lru_cache(maxsize=4096)
def _fold_key(ch: str) -> str:
    """`_fold(ch)` closed by `_KEY_END`, cached: a text repeats few distinct
    characters. The bound keeps text spanning all of Unicode from growing
    the cache without limit."""
    return _fold(ch) + _KEY_END


# For each start, the values a slot can take there and their ends, in backtracking order.
Mentions = dict[int, list[tuple[str, int]]]


@dataclass(frozen=True)
class Lexicon:
    """Lowercased surface-form → entity map built from graph labels.

    `mentions` indexes a text's alias and number mentions in one pass.
    Aliases are matched through a character trie keyed by `_fold`, built on
    first use and kept for the lexicon's lifetime, so `alias_to_iri` must
    not change once the lexicon is in use.
    """

    alias_to_iri: dict[str, Iri]
    conflicts: tuple[LexiconConflict, ...] = ()

    def __len__(self) -> int:
        return len(self.alias_to_iri)

    @cached_property
    def _trie(self) -> dict[str, tuple[str, ...]]:
        """The trie as one flat dict: each alias prefix, keyed by its `_fold`
        keys each closed by `_KEY_END`, maps to the aliases ending there,
        all of one length, sorted (`()` for a prefix that only continues).
        Its keys are strings and most values the one empty tuple, so a build
        leaves the cyclic garbage collector few new objects to track."""
        aliases = sorted(self.alias_to_iri)
        # Aliases are lowercase with single spaces: there `_fold` is upper.
        closed = {c: c.upper() + _KEY_END for c in set("".join(aliases))}
        trie: dict[str, tuple[str, ...]] = {}
        for alias in aliases:
            prefix = ""
            for key in map(closed.__getitem__, alias):
                prefix += key
                trie.setdefault(prefix, ())
            trie[prefix] += (alias,)
        return trie

    def mentions(self, text: str) -> tuple[Mentions, Mentions]:
        """The alias and the number mentions of `text`, from one pass over
        the positions where a word starts. Only values ending at a word
        boundary are kept: each rule slot has one on both sides, since no
        character outside `\\w` matches the boundary class, even
        case-insensitively.

        Aliases come longest first, then by alias, as in an alternation. The
        text is keyed through `_fold_key`; a space in an alias consumes a
        whole whitespace run, as `\\s+` does, since no alias character is
        whitespace. Numbers come longest first, as a regex backtracks into
        NUMBER_TOKEN_RE, and are read whole: the boundary class holds every
        digit a number is made of, so none starts right after a digit or
        ends right before one, and only the longest token and its integer
        part before a fraction are kept. The pass takes time linear in the
        text's length.
        """
        keys = list(map(_fold_key, text))
        space = " " + _KEY_END
        n = len(keys)
        trie, word_end = self._trie, _WORD_END_RE.match
        aliases: Mentions = {}
        numbers: Mentions = {}
        for start in map(re.Match.start, _WORD_START_RE.finditer(text)):
            prefix, hits, i = "", [], start
            while i < n:
                key = keys[i]
                prefix += key
                found = trie.get(prefix)
                if found is None:
                    break
                i += 1
                if key == space:
                    while i < n and keys[i] == space:
                        i += 1
                if found and word_end(text, i):
                    hits.append((found, i))
            if hits:
                aliases[start] = [(a, e) for names, e in reversed(hits) for a in names]
            if number := _NUMBER_RE.match(text, start):
                ends = (number.end(), number.end(1)) if number[2] else (number.end(),)
                values = [(text[start:e], e) for e in ends if word_end(text, e)]
                if values:
                    numbers[start] = values
        return aliases, numbers


def build_lexicon(graph: Graph, label_predicates: Sequence[Iri]) -> Lexicon:
    """Derive the alias lexicon from label triples.

    Every labeled entity contributes its label(s) plus its IRI local name
    with underscores as spaces. When one alias maps to two entities the
    lexicographically smaller IRI wins and the conflict is recorded.
    """
    if not label_predicates:
        raise ValueError("label_predicates must be non-empty")
    entries: dict[str, Iri] = {}
    conflicts: list[LexiconConflict] = []

    def put(alias: str, iri: Iri) -> None:
        if not alias:
            return
        current = entries.get(alias)
        if current is None:
            entries[alias] = iri
            return
        if current == iri:
            return
        kept, dropped = sorted((current, iri), key=lambda i: i.value)
        entries[alias] = kept
        conflicts.append(LexiconConflict(alias, kept, dropped))

    labeled: list[Iri] = []
    seen: set[Iri] = set()
    for predicate in label_predicates:
        for t in graph.match(p=predicate):
            obj = t.object
            if not isinstance(obj, Literal) or obj.datatype is not Datatype.STRING:
                continue
            put(_normalize_alias(obj.lexical), t.subject)
            if t.subject not in seen:
                seen.add(t.subject)
                labeled.append(t.subject)
    for iri in labeled:
        put(_normalize_alias(local_name(iri).replace("_", " ")), iri)
    return Lexicon(entries, tuple(conflicts))


def _starts(segment: re.Pattern[str], text: str) -> Iterator[int]:
    """The ascending positions where `segment` matches, overlapping ones
    included, one `search` each."""
    at = 0
    while m := segment.search(text, at):
        yield m.start()
        at = m.start() + 1


def _matches(
    segments: Sequence[re.Pattern[str]], mentions: Sequence[Mentions], text: str
) -> Iterator[tuple[int, int, list[str]]]:
    """`finditer` over the regex that joins `segments` with one slot between
    each pair: leftmost, non-overlapping matches as (start, end, slot values).

    Each slot backtracks over its mentions at the position it reaches, in
    order. A segment is taken at its first match only: it is literal text, so
    before a slot it can end elsewhere only inside a whitespace run, where no
    mention starts.

    A rule that starts with a slot, whose first segment is a bare word
    boundary, is tried only at that slot's mentions; any other rule only
    where its first segment matches, each such start found by one `search`
    from the one before. A match holds a match of every segment, so a text
    in which some segment has no match anywhere yields nothing.
    """
    if not all(segment.search(text) for segment in segments):
        return

    def rest(k: int, pos: int) -> tuple[list[str], int] | None:
        if k == len(mentions):
            return [], pos
        for value, end in mentions[k].get(pos, ()):
            m = segments[k + 1].match(text, end)
            if m and (found := rest(k + 1, m.end())):
                return [value, *found[0]], found[1]
        return None

    bare = segments[0].pattern == _WORD_BOUNDARY_L
    pos = 0
    for start in mentions[0] if bare else _starts(segments[0], text):
        if start < pos or not (first := segments[0].match(text, start)):
            continue
        found = rest(0, first.end())
        if found is not None:
            values, pos = found
            yield start, pos, values


def extract_claims(
    text: str, lexicon: Lexicon, rules: Sequence[PredicateRule]
) -> list[Claim]:
    """All claims any rule can extract from the text.

    Matching is case-insensitive; entity slots only ever match lexicon
    aliases (longest alias wins at each position), so unresolvable mentions
    simply yield no claim. Output is ordered by span start, then rule id.
    """
    aliases, numbers = lexicon.mentions(text)
    claims: list[Claim] = []
    for rule in rules:
        segments, slots = rule._segments
        numeric = rule.object_kind == "numeric"
        mentions = [numbers if numeric and s == "OBJ" else aliases for s in slots]
        for start, end, values in _matches(segments, mentions, text):
            found = dict(zip(slots, values))
            obj: Iri | Literal
            if numeric:
                value = EXACT.multiply(parse_decimal(found["OBJ"]), rule.unit_scale)
                obj = Literal(decimal_lexical(value), Datatype.DECIMAL)
            else:
                obj = lexicon.alias_to_iri[found["OBJ"]]
            subject = lexicon.alias_to_iri[found["SUBJ"]]
            claims.append(
                Claim(Triple(subject, rule.predicate, obj), (start, end), rule.rule_id)
            )
    claims.sort(key=lambda c: (c.source_span[0], c.rule_id))
    return claims


def link_question_entities(question: str, lexicon: Lexicon) -> set[Iri]:
    """Entities mentioned in a question: from left to right, the longest
    alias at a mention start, the scan resuming at that alias's end."""
    entities: set[Iri] = set()
    pos = 0
    for start, hits in lexicon.mentions(question)[0].items():
        if start >= pos:
            alias, pos = hits[0]
            entities.add(lexicon.alias_to_iri[alias])
    return entities


_RULE_LINE_RE = re.compile(r'^(\S+)\s+"([^"]*)"\s*(.*)$')


def parse_rules(text: str) -> list[PredicateRule]:
    """Parse a predicate-rule file.

    One rule per line: `<rule_id> "<pattern>" predicate=<iri>
    kind=numeric|entity scale=<decimal>`, each key at most once, in the
    manifest's `key=value` syntax; `#` starts a comment.
    """
    rules: list[PredicateRule] = []
    seen: set[str] = set()
    for number, line in content_lines(split_lines(text)):
        m = _RULE_LINE_RE.match(line)
        if m is None:
            raise ParseError(number, 'expected `<id> "<pattern>" key=value ...`')
        rule_id, pattern, rest = m.groups()
        if rule_id in seen:
            raise ParseError(number, f"duplicate rule id {rule_id!r}")
        seen.add(rule_id)
        kv = parse_kv(rest.split(), number)
        predicate = take_iri(kv, "predicate", number)
        kind = take_param(kv, "kind", number)
        scale = take_decimal(kv, "scale", number) if "scale" in kv else None
        if kv:
            raise ParseError(number, f"unexpected parameters: {sorted(kv)}")
        try:
            rules.append(PredicateRule(rule_id, pattern, predicate, kind, scale))
        except ValueError as exc:
            raise ParseError(number, str(exc)) from exc
    return rules


def rule_for_triple(
    triple: Triple, rules: Iterable[PredicateRule]
) -> PredicateRule | None:
    """First rule able to verbalize the given triple, if any."""
    for rule in rules:
        if rule.predicate != triple.predicate:
            continue
        if rule.object_kind == "numeric":
            if isinstance(triple.object, Literal) and triple.object.numeric is not None:
                return rule
        elif isinstance(triple.object, Iri):
            return rule
    return None


def _unscale(value: Decimal, scale: Decimal) -> Decimal:
    """`value / scale`, normalized: exact when the quotient terminates, and
    else rounded to Decimal's default 28 digits (a claim read back from it
    is then not entailed, and abstains). A terminating quotient has at most
    the digits of `value` plus those of the power of 2 or 5 that clears the
    scale from its denominator: fewer than 2.33n + 1 for a scale of n
    digits, so at most 3n. At that precision the division below is exact,
    or it raises Inexact."""
    digits = len(value.as_tuple().digits) + 3 * len(scale.as_tuple().digits)
    exact = Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
    try:
        return exact.divide(value, scale).normalize(exact)
    except Inexact:
        return (value / scale).normalize()


def verbalize_triple(triple: Triple, rule: PredicateRule) -> str:
    """Render a triple back into a sentence through a rule's template.

    The inverse of extraction: entity slots use IRI local names with
    underscores as spaces; numeric slots divide out the unit scale, exactly
    whenever the quotient ends.
    """
    subj_text = local_name(triple.subject).replace("_", " ")
    if rule.object_kind == "numeric":
        assert isinstance(triple.object, Literal) and triple.object.numeric is not None
        obj_text = decimal_lexical(_unscale(triple.object.numeric, rule.unit_scale))
    else:
        assert isinstance(triple.object, Iri)
        obj_text = local_name(triple.object).replace("_", " ")
    # Only the slot words _segments reads are filled, in one pass: a name
    # that holds OBJ, or a pattern word such as OBJECT, stays as written.
    text = {"SUBJ": subj_text, "OBJ": obj_text}
    return _SLOT_RE.sub(lambda m: text[m.group(1)], rule.pattern) + "."
