"""In-memory RDF triple store.

Holds an immutable, indexed set of (subject, predicate, object) triples
parsed from a flat N-Triples subset (no prefixes, no blank nodes, no
language tags). The store answers three questions: does a triple hold
(entailment, with tolerant numeric matching), which triples match a
pattern, and what lies within k hops of a set of seed entities.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from typing import IO, Callable, Iterable, Iterator, Sequence

RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"

# Relative tolerance for numeric literal matching. Bound checks elsewhere
# use exact decimal comparison; only *equality* is tolerant.
NUMERIC_REL_TOL = Decimal("1e-9")

# xsd:decimal / xsd:integer lexical forms (no exponent, no NaN/Inf).
_DECIMAL_RE = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)\Z")
_INTEGER_RE = re.compile(r"[+-]?\d+\Z")

_WHITESPACE_RE = re.compile(r"[ \t\r\n]")


class ParseError(Exception):
    """Raised on the first malformed line of an input file: a graph,
    constraint manifest, rule file, dataset or result log. Parsing is
    all-or-nothing."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class Datatype(str, Enum):
    STRING = "string"
    DECIMAL = "decimal"
    INTEGER = "integer"


@dataclass(frozen=True, slots=True)
class Iri:
    """An absolute IRI. Equality is byte equality; no normalization."""

    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("IRI must be non-empty")
        if _WHITESPACE_RE.search(self.value):
            raise ValueError(f"IRI contains whitespace: {self.value!r}")


RDF_TYPE = Iri(RDF_TYPE_IRI)


@dataclass(frozen=True, slots=True)
class Literal:
    """A typed literal value.

    `numeric` is the parsed decimal for DECIMAL/INTEGER literals and None
    for strings. It is derived from `lexical`, so equality and hashing use
    (lexical, datatype) only.
    """

    lexical: str
    datatype: Datatype = Datatype.STRING
    numeric: Decimal | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.datatype is Datatype.STRING:
            object.__setattr__(self, "numeric", None)
            return
        pattern = _INTEGER_RE if self.datatype is Datatype.INTEGER else _DECIMAL_RE
        if not pattern.match(self.lexical):
            raise ValueError(
                f"invalid {self.datatype.value} lexical form: {self.lexical!r}"
            )
        object.__setattr__(self, "numeric", Decimal(self.lexical))

    @property
    def is_numeric(self) -> bool:
        return self.numeric is not None


Term = Iri | Literal


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Iri
    predicate: Iri
    object: Term


def numbers_close(a: Decimal, b: Decimal) -> bool:
    """Equality within NUMERIC_REL_TOL relative tolerance, in exact decimal
    arithmetic: |a - b| <= tol * max(|a|, |b|)."""
    if a == b:
        return True
    return abs(a - b) <= NUMERIC_REL_TOL * max(abs(a), abs(b))


def term_matches(graph_term: Term, query_term: Term) -> bool:
    """Term equality used by entailment and pattern matching.

    IRIs and string literals compare byte-equal; numeric literals compare
    on their decimal values within relative tolerance.
    """
    if isinstance(graph_term, Iri) or isinstance(query_term, Iri):
        return graph_term == query_term
    if graph_term.is_numeric and query_term.is_numeric:
        return numbers_close(graph_term.numeric, query_term.numeric)
    if graph_term.is_numeric or query_term.is_numeric:
        return False
    return graph_term.lexical == query_term.lexical


# --- N-Triples subset ---------------------------------------------------

_LINE_RE = re.compile(r"<([^<>]*)>\s+<([^<>]*)>\s+(.+?)\s*\.\s*$")
_LITERAL_OBJ_RE = re.compile(r'"((?:[^"\\]|\\.)*)"(?:\^\^<([^<>]*)>)?\Z')

_ESCAPE_SEQ_RE = re.compile(r"\\(.?)", re.DOTALL)
_UNESCAPE = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_ESCAPE = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
)

_DATATYPE_BY_IRI = {
    XSD_STRING: Datatype.STRING,
    XSD_DECIMAL: Datatype.DECIMAL,
    XSD_INTEGER: Datatype.INTEGER,
}


def _unescape_one(m: re.Match[str]) -> str:
    if m.group(1) not in _UNESCAPE:
        raise ValueError(f"unsupported escape in literal: {m.string!r}")
    return _UNESCAPE[m.group(1)]


def _parse_object(token: str, iri: Callable[[str], Iri]) -> Term:
    if token.startswith("<") and token.endswith(">"):
        return iri(token[1:-1])
    m = _LITERAL_OBJ_RE.match(token)
    if m is None:
        raise ValueError(f"malformed object term: {token!r}")
    lexical = _ESCAPE_SEQ_RE.sub(_unescape_one, m.group(1))
    dt_iri = m.group(2)
    if dt_iri is None:
        # Unsuffixed literals that look like decimals are stored as decimals;
        # the source data omits datatype suffixes on numeric values.
        if _DECIMAL_RE.match(lexical):
            return Literal(lexical, Datatype.DECIMAL)
        return Literal(lexical, Datatype.STRING)
    datatype = _DATATYPE_BY_IRI.get(dt_iri)
    if datatype is None:
        raise ValueError(f"unsupported datatype: <{dt_iri}>")
    return Literal(lexical, datatype)


def _parse_line(line: str, iri: Callable[[str], Iri]) -> Triple:
    m = _LINE_RE.match(line)
    if m is None:
        raise ValueError("expected `<subject> <predicate> object .`")
    return Triple(iri(m.group(1)), iri(m.group(2)), _parse_object(m.group(3), iri))


def parse_ntriples_line(line: str) -> Triple:
    """Parse one `<s> <p> o .` line. Raises ValueError on malformed input."""
    return _parse_line(line.strip(), Iri)


class _IriTable(dict):
    """One parse's IRI table: looking up an IRI string gives the one `Iri`
    made for it, validated on its first occurrence."""

    def __missing__(self, value: str) -> Iri:
        iri = self[value] = Iri(value)
        return iri


def content_lines(source: str | IO[str]) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of a line-oriented input
    that is neither blank nor a `#` comment."""
    lines = source.splitlines() if isinstance(source, str) else source
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield number, stripped


def iter_ntriples(source: str | IO[str]) -> Iterator[Triple]:
    """Yield the triples of N-Triples text in text order, lazily.

    Blank lines and `#` comment lines are skipped. A malformed line raises
    a ParseError carrying its line number when it is reached. Every
    occurrence of one IRI string in the text yields the same `Iri` object.
    """
    iri = _IriTable().__getitem__
    for number, line in content_lines(source):
        try:
            triple = _parse_line(line, iri)
        except ValueError as exc:
            raise ParseError(number, str(exc)) from exc
        yield triple


def parse_ntriples(source: str | IO[str]) -> "Graph":
    """Parse N-Triples text into a Graph.

    Duplicate triples are deduplicated. Any malformed line aborts the
    whole parse with a ParseError carrying its line number.
    """
    return Graph(iter_ntriples(source))


def term_to_ntriples(term: Term) -> str:
    """Serialize one term to its N-Triples form.

    Integer literals keep an explicit datatype suffix, and numeric-looking
    strings get one, so that re-parsing recovers the same datatype.
    """
    if isinstance(term, Iri):
        return f"<{term.value}>"
    quoted = f'"{term.lexical.translate(_ESCAPE)}"'
    if term.datatype is Datatype.INTEGER:
        return f"{quoted}^^<{XSD_INTEGER}>"
    if term.datatype is Datatype.STRING and _DECIMAL_RE.match(term.lexical):
        return f"{quoted}^^<{XSD_STRING}>"
    return quoted


def triple_to_ntriples(triple: Triple) -> str:
    return (
        f"<{triple.subject.value}> <{triple.predicate.value}> "
        f"{term_to_ntriples(triple.object)} ."
    )


def triple_sort_key(triple: Triple) -> tuple[str, str, str]:
    return (
        triple.subject.value,
        triple.predicate.value,
        term_to_ntriples(triple.object),
    )


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialize triples as N-Triples, one per line, in the order given.

    A Graph and retrieve_subgraph's result iterate in sorted order, so
    either serializes as sorted N-Triples.
    """
    lines = [triple_to_ntriples(t) for t in triples]
    return "\n".join(lines) + ("\n" if lines else "")


# --- the store ----------------------------------------------------------


class Graph:
    """Immutable indexed triple set.

    Triples are held in sorted order, each addressed by its rank (its
    position in that order). Two indexes, keyed by the terms themselves,
    back the subject and predicate lookups: subject -> predicate ->
    triples, and predicate -> triples; each list is a run of the sorted
    order. The adjacency maps each IRI node to the ascending ranks of the
    triples whose subject or object it is, which serve object lookups and
    retrieval. All query results come out sorted, and every lookup is
    equivalent to a linear scan.
    """

    __slots__ = ("_triples", "_spo", "_pos", "_adj")

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples: tuple[Triple, ...] = tuple(
            sorted(set(triples), key=triple_sort_key)
        )
        spo: dict[Iri, dict[Iri, list[Triple]]] = {}
        pos: dict[Iri, list[Triple]] = {}
        adj: dict[Iri, list[int]] = {}
        for rank, t in enumerate(self._triples):
            spo.setdefault(t.subject, {}).setdefault(t.predicate, []).append(t)
            pos.setdefault(t.predicate, []).append(t)
            adj.setdefault(t.subject, []).append(rank)
            if isinstance(t.object, Iri) and t.object != t.subject:
                adj.setdefault(t.object, []).append(rank)
        self._spo = spo
        self._pos = pos
        self._adj = adj

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __repr__(self) -> str:
        return f"Graph({len(self._triples)} triples)"

    def match(
        self,
        s: Iri | None = None,
        p: Iri | None = None,
        o: Term | None = None,
    ) -> list[Triple]:
        """All triples matching the bound positions, in sorted order.

        Subject and predicate match byte-equal; a bound object matches per
        term_matches (tolerant for numeric literals).
        """
        # Pick an index, then test only the positions it did not select.
        if s is not None:
            by_p = self._spo.get(s, {})
            if p is not None:
                found: Iterable[Triple] = by_p.get(p, ())
            else:
                # Predicates were inserted in sorted order within the subject.
                found = (t for ts in by_p.values() for t in ts)
            p = None
        elif isinstance(o, Iri):
            found = map(self._triples.__getitem__, self._adj.get(o, ()))
        elif p is not None:
            found, p = self._pos.get(p, ()), None
        else:
            found = self._triples
        if p is None and o is None:
            return list(found)
        return [
            t
            for t in found
            if (p is None or t.predicate == p)
            and (o is None or term_matches(t.object, o))
        ]

    def find_supporting(self, triple: Triple) -> Triple | None:
        """The first stored triple entailing `triple`, or None."""
        hits = self.match(triple.subject, triple.predicate, triple.object)
        return hits[0] if hits else None

    def contains(self, triple: Triple) -> bool:
        """Entailment check: membership with tolerant numeric matching."""
        return self.find_supporting(triple) is not None


def retrieve_subgraph(
    graph: Graph, seeds: Iterable[Iri], max_hops: int
) -> tuple[Triple, ...]:
    """Breadth-first subgraph expansion from seed entities.

    Hop 1 collects all triples incident to a seed; each later hop expands
    from IRI terms newly reached in the previous one. Literal objects are
    never expanded. Returns the collected triples as a sorted tuple, ready
    for serialize_ntriples. The walk runs over the graph's triple ranks:
    its cost grows with the triples it collects, and the result takes its
    order from the graph's.
    """
    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    triples, adj = graph._triples, graph._adj
    frontier = set(seeds)
    visited = set(frontier)
    collected: set[int] = set()
    for _ in range(max_hops):
        if not frontier:
            break
        reached: set[Iri] = set()
        for node in frontier:
            for rank in adj.get(node, ()):
                if rank in collected:
                    continue
                collected.add(rank)
                t = triples[rank]
                reached.add(t.subject)
                if isinstance(t.object, Iri):
                    reached.add(t.object)
        frontier = reached - visited
        visited |= frontier
    return tuple(triples[rank] for rank in sorted(collected))


def parse_decimal(text: str) -> Decimal:
    """Strict decimal parse (xsd:decimal lexical space, no exponent)."""
    if not _DECIMAL_RE.match(text):
        raise ValueError(f"not a plain decimal: {text!r}")
    return Decimal(text)


def decimal_lexical(value: Decimal) -> str:
    """Fixed-point lexical form of a decimal (never exponent notation)."""
    return format(value, "f")


# --- key=value parameters of manifest and rule lines --------------------


def parse_kv(tokens: Sequence[str], line: int) -> dict[str, str]:
    """The `key=value` tokens of one line; each key may appear once."""
    kv: dict[str, str] = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or not key or not value:
            raise ParseError(line, f"expected key=value, got {token!r}")
        if key in kv:
            raise ParseError(line, f"duplicate key {key!r}")
        kv[key] = value
    return kv


def take_param(kv: dict[str, str], key: str, line: int) -> str:
    """Remove a required parameter from `kv` and return its raw value."""
    try:
        return kv.pop(key)
    except KeyError:
        raise ParseError(line, f"missing parameter {key!r}") from None


def take_iri(kv: dict[str, str], key: str, line: int) -> Iri:
    raw = take_param(kv, key, line)
    if not (raw.startswith("<") and raw.endswith(">")):
        raise ParseError(line, f"{key} must be an angle-bracketed IRI: {raw!r}")
    try:
        return Iri(raw[1:-1])
    except ValueError as exc:
        raise ParseError(line, str(exc)) from exc


def take_decimal(kv: dict[str, str], key: str, line: int) -> Decimal:
    try:
        return parse_decimal(take_param(kv, key, line))
    except ValueError as exc:
        raise ParseError(line, str(exc)) from exc
