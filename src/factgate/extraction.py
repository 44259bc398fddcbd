"""Rule-based claim extraction.

Factual triples are pulled out of free text by matching predicate patterns
(`SUBJ is OBJ km long`) whose entity slots must resolve through an alias
lexicon derived from the graph's labeled entities. Numeric objects are
normalized at extraction time via each rule's unit scale, so downstream
entailment checks compare like with like.

The extractor is deliberately dumb and deterministic: anything it cannot
resolve is dropped, never invented. The licensing gate depends only on the
extract_claims signature, so a learned extractor can replace this one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Sequence

from .kg import (
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
    take_decimal,
    take_iri,
    take_param,
)

# A plain decimal number token in free text (no exponent, no trailing dot).
NUMBER_TOKEN_RE = re.compile(r"[+-]?(?:\d+\.\d+|\d+|\.\d+)")
_NUMBER_RUN_RE = re.compile(r"[+-]?[\d.]*")
_SLOT_RE = re.compile(r"\b(SUBJ|OBJ)\b")
_WORD_BOUNDARY_L = r"(?<![0-9A-Za-z_])"
_WORD_BOUNDARY_R = r"(?![0-9A-Za-z_])"


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
    return re.sub(r"\s+", " ", text.strip().lower())


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

# A scan of one text: for a position, each value a slot can take there with
# its end, in the order a regex backtracks through them.
_Scan = Callable[[int], list[tuple[str, int]]]


def _numbers_at(text: str, pos: int) -> list[tuple[str, int]]:
    """Number tokens at `pos`, longest first: the order in which a regex
    backtracks into NUMBER_TOKEN_RE, whose every way to match ends at a
    different place."""
    end = _NUMBER_RUN_RE.match(text, pos).end()
    return [
        (text[pos:e], e)
        for e in range(end, pos, -1)
        if NUMBER_TOKEN_RE.fullmatch(text, pos, e)
    ]


@dataclass(frozen=True)
class Lexicon:
    """Lowercased surface-form → entity map built from graph labels.

    Text is matched against the aliases through a character trie keyed by
    `_fold`, built on first use and kept for the lexicon's lifetime, so
    `alias_to_iri` must not change once the lexicon is in use.
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

    def _scan(self, text: str) -> _Scan:
        """A memoized alias scan of `text`, in the preference order of an
        alternation sorted by (-len(alias), alias). A space in an alias
        consumes a whole whitespace run, as `\\s+` does in the alternation:
        a shorter run is followed by whitespace, which no alias character
        matches."""
        keys = [_fold(c) + _KEY_END for c in text]
        space = " " + _KEY_END
        n = len(keys)
        trie = self._trie
        memo: dict[int, list[tuple[str, int]]] = {}

        def aliases_at(start: int) -> list[tuple[str, int]]:
            found = memo.get(start)
            if found is not None:
                return found
            prefix, hits, i = "", [], start
            while i < n:
                key = keys[i]
                prefix += key
                aliases = trie.get(prefix)
                if aliases is None:
                    break
                i += 1
                if key == space:
                    while i < n and keys[i] == space:
                        i += 1
                if aliases:
                    hits.append((aliases, i))
            found = memo[start] = [
                (alias, end) for aliases, end in reversed(hits) for alias in aliases
            ]
            return found

        return aliases_at


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


def _matches(
    segments: Sequence[re.Pattern[str]], scans: Sequence[_Scan], text: str
) -> Iterator[tuple[int, int, list[str]]]:
    """`finditer` over the regex that joins `segments` with one slot between
    each pair: leftmost, non-overlapping matches as (start, end, slot values).

    Each slot backtracks over its scan's values in order. A segment is taken
    at its first match only: it is literal text, so before a slot it can end
    elsewhere only inside a whitespace run, where no slot value starts.
    """

    def rest(k: int, pos: int) -> tuple[list[str], int] | None:
        for value, end in scans[k](pos):
            m = segments[k + 1].match(text, end)
            if m is None:
                continue
            if k + 1 == len(scans):
                return [value], m.end()
            found = rest(k + 1, m.end())
            if found is not None:
                return [value, *found[0]], found[1]
        return None

    pos = 0
    # A match holds a slot value, so it cannot start at the end of the text.
    while pos < len(text) and (first := segments[0].search(text, pos)):
        found = rest(0, first.end())
        if found is None:
            pos = first.start() + 1
            continue
        values, pos = found
        yield first.start(), pos, values


def extract_claims(
    text: str, lexicon: Lexicon, rules: Sequence[PredicateRule]
) -> list[Claim]:
    """All claims any rule can extract from the text.

    Matching is case-insensitive; entity slots only ever match lexicon
    aliases (longest alias wins at each position), so unresolvable mentions
    simply yield no claim. Output is ordered by span start, then rule id.
    """
    aliases_at = lexicon._scan(text)
    numbers_at = partial(_numbers_at, text)
    claims: list[Claim] = []
    for rule in rules:
        segments, slots = rule._segments
        numeric = rule.object_kind == "numeric"
        scans = [numbers_at if numeric and s == "OBJ" else aliases_at for s in slots]
        for start, end, values in _matches(segments, scans, text):
            found = dict(zip(slots, values))
            obj: Iri | Literal
            if numeric:
                value = parse_decimal(found["OBJ"]) * rule.unit_scale
                obj = Literal(decimal_lexical(value), Datatype.DECIMAL)
            else:
                obj = lexicon.alias_to_iri[found["OBJ"]]
            subject = lexicon.alias_to_iri[found["SUBJ"]]
            claims.append(
                Claim(Triple(subject, rule.predicate, obj), (start, end), rule.rule_id)
            )
    claims.sort(key=lambda c: (c.source_span[0], c.rule_id))
    return claims


_MENTION_SEGMENTS = (
    re.compile(_WORD_BOUNDARY_L, re.IGNORECASE),
    re.compile(_WORD_BOUNDARY_R, re.IGNORECASE),
)


def link_question_entities(question: str, lexicon: Lexicon) -> set[Iri]:
    """Entities mentioned in a question, longest alias winning on overlaps."""
    scans = [lexicon._scan(question)]
    return {
        lexicon.alias_to_iri[alias]
        for _, _, (alias,) in _matches(_MENTION_SEGMENTS, scans, question)
    }


_RULE_LINE_RE = re.compile(r'^(\S+)\s+"([^"]*)"\s*(.*)$')


def parse_rules(text: str) -> list[PredicateRule]:
    """Parse a predicate-rule file.

    One rule per line: `<rule_id> "<pattern>" predicate=<iri>
    kind=numeric|entity scale=<decimal>`, each key at most once, in the
    manifest's `key=value` syntax; `#` starts a comment.
    """
    rules: list[PredicateRule] = []
    seen: set[str] = set()
    for number, line in content_lines(text):
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
            if isinstance(triple.object, Literal) and triple.object.is_numeric:
                return rule
        elif isinstance(triple.object, Iri):
            return rule
    return None


def verbalize_triple(triple: Triple, rule: PredicateRule) -> str:
    """Render a triple back into a sentence through a rule's template.

    The inverse of extraction: entity slots use IRI local names with
    underscores as spaces; numeric slots divide out the unit scale.
    """
    subj_text = local_name(triple.subject).replace("_", " ")
    if rule.object_kind == "numeric":
        assert isinstance(triple.object, Literal) and triple.object.numeric is not None
        value = (triple.object.numeric / rule.unit_scale).normalize()
        obj_text = decimal_lexical(value)
    else:
        assert isinstance(triple.object, Iri)
        obj_text = local_name(triple.object).replace("_", " ")
    sentence = rule.pattern.replace("SUBJ", subj_text).replace("OBJ", obj_text)
    return sentence + "."
