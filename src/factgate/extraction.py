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
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property
from typing import Iterable, Sequence

from .kg import (
    Datatype,
    Graph,
    Iri,
    Literal,
    Triple,
    decimal_lexical,
    parse_decimal,
)

# A plain decimal number token in free text (no exponent, no trailing dot).
NUMBER_TOKEN_RE = re.compile(r"[+-]?(?:\d+\.\d+|\d+|\.\d+)")
_SLOT_RE = re.compile(r"\b(SUBJ|OBJ)\b")
_WORD_BOUNDARY_L = r"(?<![0-9A-Za-z_])"
_WORD_BOUNDARY_R = r"(?![0-9A-Za-z_])"


class RuleError(Exception):
    """Raised on a malformed predicate-rule line."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


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


@dataclass(frozen=True)
class Lexicon:
    """Lowercased surface-form → entity map built from graph labels.

    The alias alternation and the regexes built on it are compiled on
    first use and kept for the lexicon's lifetime, so `alias_to_iri` must
    not change once the lexicon is in use.
    """

    alias_to_iri: dict[str, Iri]
    conflicts: tuple[LexiconConflict, ...] = ()
    _rule_regexes: dict[PredicateRule, re.Pattern[str] | None] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def resolve(self, surface: str) -> Iri | None:
        return self.alias_to_iri.get(_normalize_alias(surface))

    def __len__(self) -> int:
        return len(self.alias_to_iri)

    @cached_property
    def _alias_alternation(self) -> str | None:
        """Alternation over all aliases, longest first, spaces matching any
        whitespace run. None when the lexicon is empty."""
        if not self.alias_to_iri:
            return None
        ordered = sorted(self.alias_to_iri, key=lambda a: (-len(a), a))
        parts = []
        for alias in ordered:
            chunks = [re.escape(c) for c in alias.split(" ")]
            parts.append(r"\s+".join(chunks))
        return "|".join(parts)

    @cached_property
    def _mention_regex(self) -> re.Pattern[str] | None:
        aliases = self._alias_alternation
        if aliases is None:
            return None
        return re.compile(
            _WORD_BOUNDARY_L + f"(?:{aliases})" + _WORD_BOUNDARY_R, re.IGNORECASE
        )

    def _rule_regex(self, rule: PredicateRule) -> re.Pattern[str] | None:
        if rule not in self._rule_regexes:
            # Threads racing here compile equal regexes; whichever lands is right.
            self._rule_regexes[rule] = _compile_rule(rule, self._alias_alternation)
        return self._rule_regexes[rule]


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


def _compile_rule(rule: PredicateRule, aliases: str | None) -> re.Pattern[str] | None:
    if aliases is None:
        return None
    pieces: list[str] = []
    for part in _SLOT_RE.split(rule.pattern):
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
    return re.compile(
        _WORD_BOUNDARY_L + "".join(pieces) + _WORD_BOUNDARY_R,
        re.IGNORECASE,
    )


def extract_claims(
    text: str, lexicon: Lexicon, rules: Sequence[PredicateRule]
) -> list[Claim]:
    """All claims any rule can extract from the text.

    Matching is case-insensitive; entity slots only ever match lexicon
    aliases (longest alias wins at each position), so unresolvable mentions
    simply yield no claim. Output is ordered by span start, then rule id.
    """
    claims: list[Claim] = []
    for rule in rules:
        rx = lexicon._rule_regex(rule)
        if rx is None:
            continue
        for m in rx.finditer(text):
            subject = lexicon.resolve(m.group("subj"))
            if subject is None:  # pragma: no cover - alternation guarantees hit
                continue
            obj: Iri | Literal
            if rule.object_kind == "numeric":
                value = parse_decimal(m.group("obj")) * rule.unit_scale
                obj = Literal(decimal_lexical(value), Datatype.DECIMAL)
            else:
                entity = lexicon.resolve(m.group("obj"))
                if entity is None:  # pragma: no cover
                    continue
                obj = entity
            claims.append(
                Claim(
                    Triple(subject, rule.predicate, obj),
                    (m.start(), m.end()),
                    rule.rule_id,
                )
            )
    claims.sort(key=lambda c: (c.source_span[0], c.rule_id))
    return claims


def link_question_entities(question: str, lexicon: Lexicon) -> set[Iri]:
    """Entities mentioned in a question, longest alias winning on overlaps."""
    rx = lexicon._mention_regex
    if rx is None:
        return set()
    found: set[Iri] = set()
    for m in rx.finditer(question):
        iri = lexicon.resolve(m.group(0))
        if iri is not None:
            found.add(iri)
    return found


_RULE_LINE_RE = re.compile(r'^(\S+)\s+"([^"]*)"\s*(.*)$')


def parse_rules(text: str) -> list[PredicateRule]:
    """Parse a predicate-rule file.

    One rule per line: `<rule_id> "<pattern>" predicate=<iri>
    kind=numeric|entity scale=<decimal>`; `#` starts a comment.
    """
    rules: list[PredicateRule] = []
    seen: set[str] = set()
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _RULE_LINE_RE.match(line)
        if m is None:
            raise RuleError(number, 'expected `<id> "<pattern>" key=value ...`')
        rule_id, pattern, rest = m.groups()
        if rule_id in seen:
            raise RuleError(number, f"duplicate rule id {rule_id!r}")
        seen.add(rule_id)
        kv: dict[str, str] = {}
        for token in rest.split():
            key, eq, value = token.partition("=")
            if not eq or not value:
                raise RuleError(number, f"expected key=value, got {token!r}")
            kv[key] = value
        predicate_raw = kv.pop("predicate", None)
        kind = kv.pop("kind", None)
        scale_raw = kv.pop("scale", None)
        if kv:
            raise RuleError(number, f"unexpected keys: {sorted(kv)}")
        if predicate_raw is None or kind is None:
            raise RuleError(number, "predicate= and kind= are required")
        if not (predicate_raw.startswith("<") and predicate_raw.endswith(">")):
            raise RuleError(number, f"predicate must be <iri>: {predicate_raw!r}")
        try:
            scale = parse_decimal(scale_raw) if scale_raw is not None else None
            rule = PredicateRule(
                rule_id, pattern, Iri(predicate_raw[1:-1]), kind, scale
            )
        except ValueError as exc:
            raise RuleError(number, str(exc)) from exc
        rules.append(rule)
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
