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
from itertools import chain, filterfalse
from typing import IO, Callable, Iterable, Iterator, Sequence

RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"

# Retrieval never expands a non-seed node of more incident triples.
HUB_DEGREE = 64

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


_LINE_SHAPE = "expected `<subject> <predicate> object .`"


def parse_ntriples_line(line: str) -> Triple:
    """Parse one `<s> <p> o .` line. Raises ValueError on malformed input."""
    m = _LINE_RE.match(line.strip())
    if m is None:
        raise ValueError(_LINE_SHAPE)
    return Triple(Iri(m.group(1)), Iri(m.group(2)), _parse_object(m.group(3), Iri))


class _IriTable(dict):
    """One parse's IRI table: looking up an IRI string gives the one `Iri`
    made for it, validated on its first occurrence."""

    def __missing__(self, value: str) -> Iri:
        iri = self[value] = Iri(value)
        return iri


class _TermTable:
    """One parse's term tables. `iris` maps an IRI string to its one `Iri`;
    `texts` maps an object token to the N-Triples text of its term
    (term_to_ntriples), and `objects` that text to the term. An object
    token is parsed, validated and rendered on its first occurrence only,
    and two spellings of one term (`"5"`, `"5"^^<...#decimal>`) give one
    text and one term object."""

    def __init__(self) -> None:
        self.iris = _IriTable()
        self.texts: dict[str, str] = {}
        self.objects: dict[str, Term] = {}

    def read(self, source: str | IO[str]) -> Iterator[tuple[str, str, str]]:
        """(subject, predicate, object text) of each content line, in text
        order; a malformed line raises a ParseError when it is reached."""
        iri, texts = self.iris.__getitem__, self.texts
        for number, line in content_lines(source):
            m = _LINE_RE.match(line)
            try:
                if m is None:
                    raise ValueError(_LINE_SHAPE)
                s, p, token = m.groups()
                key = iri(s).value, iri(p).value, texts.get(token) or self._text(token)
            except ValueError as exc:
                raise ParseError(number, str(exc)) from exc
            yield key

    def _text(self, token: str) -> str:
        term = _parse_object(token, self.iris.__getitem__)
        text = term_to_ntriples(term)
        if text == token:
            text = token  # most tokens are their text: keep one string
        self.texts[token] = text
        self.objects.setdefault(text, term)
        return text


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
    a ParseError carrying its line number when it is reached. Terms are
    interned for the parse: every occurrence of one IRI string yields the
    same `Iri` object, and every occurrence of one object token (or of
    another spelling of the same literal) the same term object, parsed and
    validated once.
    """
    table = _TermTable()
    iris, objects = table.iris, table.objects
    for s, p, o in table.read(source):
        yield Triple(iris[s], iris[p], objects[o])


def parse_ntriples(source: str | IO[str]) -> "Graph":
    """Parse N-Triples text into a Graph.

    Duplicate triples are deduplicated. Any malformed line aborts the
    whole parse with a ParseError carrying its line number. The lines are
    read into string keys (see Graph); no `Triple` is made before the keys
    are deduplicated and sorted.
    """
    table = _TermTable()
    graph = Graph.__new__(Graph)
    graph._index(table.read(source), table.iris, table.objects)
    return graph


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


def serialize_ntriples(source: Graph | Subgraph) -> str:
    """N-Triples of a Graph or a retrieve_subgraph result, one triple per
    line, in the graph's sorted order.

    Lines come from the graph's line cache, indexed by rank. It is made on
    the first call and filled lazily: each line is rendered once, the first
    time any call needs it, and reused after that. A graph that is never
    serialized holds no cache; a filled one holds one string per triple,
    about 100 bytes each. Concurrent calls may render the same line twice,
    writing the same string to the same slot.
    """
    if isinstance(source, Graph):
        graph, ranks = source, range(len(source))
    else:
        graph, ranks = source.graph, source.ranks
    cache = graph._lines
    if cache is None:
        cache = graph._lines = [None] * len(graph._triples)
    lines = []
    for rank in ranks:
        line = cache[rank]
        if line is None:
            line = cache[rank] = triple_to_ntriples(graph._triples[rank])
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


# --- the store ----------------------------------------------------------


class Graph:
    """Immutable indexed triple set.

    Triples are held in sorted order, each addressed by its rank (its
    position in that order). The order is that of the (subject, predicate,
    object text) string keys, the object text being term_to_ntriples of the
    object. One build serves `Graph(triples)` and parse_ntriples alike: it
    deduplicates and sorts those keys as strings and makes each Triple
    after that, from tables mapping the strings to terms. Two indexes,
    keyed by IRI strings, back the subject and predicate lookups: subject
    -> predicate -> (lo, hi), the rank run of the sorted order holding that
    pair's triples, and predicate -> triples. Every IRI node (a subject or
    an IRI object) gets a dense integer id at build, through one string ->
    id table. Indexed by node id, the adjacency holds the ascending ranks
    of the triples whose subject or object the node is, which serve object
    lookups and retrieval; indexed by rank, two int lists hold each
    triple's subject and object node ids (-1 for a literal), the very int
    objects of the id table. A lookup thus hashes strings, and retrieval
    only ints. All query results come out sorted, and every lookup is
    equivalent to a linear scan. The hubs, flagged by node id at build,
    are the classes (`rdf:type` objects) and the nodes of more than
    HUB_DEGREE triples. The rendered lines live in a cache filled lazily
    (see serialize_ntriples); no line is rendered at build.
    """

    __slots__ = (
        "_triples", "_spo", "_pos", "_ids", "_adj", "_subjects", "_objects",
        "_hubs", "_lines",
    )

    def __init__(self, triples: Iterable[Triple] = ()):
        iris: dict[str, Iri] = {}
        objects: dict[str, Term] = {}
        keys = []
        for t in triples:
            s, p, text = t.subject, t.predicate, term_to_ntriples(t.object)
            iris.setdefault(s.value, s)
            iris.setdefault(p.value, p)
            objects.setdefault(text, t.object)
            keys.append((s.value, p.value, text))
        self._index(keys, iris, objects)

    def _index(
        self,
        keys: Iterable[tuple[str, str, str]],
        iris: dict[str, Iri],
        objects: dict[str, Term],
    ) -> None:
        """The one build, from (subject, predicate, object text) keys and
        the term tables that map those strings to terms. The keys are
        deduplicated and sorted as strings; each Triple is made after that,
        once per distinct key."""
        keys = sorted(set(keys))
        triples = self._triples = [
            Triple(iris[s], iris[p], objects[o]) for s, p, o in keys
        ]
        # Drop the keys before the indexes grow: the two never coexist,
        # which keeps the build's peak memory down.
        del keys
        spo: dict[str, dict[str, tuple[int, int]]] = {}
        pos: dict[str, list[Triple]] = {}
        ids: dict[str, int] = {}
        adj: list[list[int]] = []
        subjects: list[int] = []
        object_ids: list[int] = []
        runs: dict[str | None, tuple[int, int]] = {}  # scratch until a subject opens
        run_s = run_p = None
        lo = 0
        for rank, t in enumerate(triples):
            s, p, o = t.subject.value, t.predicate.value, t.object
            # A subject's triples are adjacent, and so are its predicate's:
            # each (subject, predicate) run is closed when the next opens.
            if s != run_s:
                runs[run_p] = (lo, rank)
                runs = spo[s] = {}
                sid = ids.setdefault(s, len(adj))
                if sid == len(adj):
                    adj.append([])
                run_s, run_p, lo = s, p, rank
            elif p != run_p:
                runs[run_p] = (lo, rank)
                run_p, lo = p, rank
            pos.setdefault(p, []).append(t)
            adj[sid].append(rank)
            subjects.append(sid)
            if isinstance(o, Iri):
                oid = ids.setdefault(o.value, len(adj))
                if oid == len(adj):
                    adj.append([])
                if oid != sid:
                    adj[oid].append(rank)
                object_ids.append(oid)
            else:
                object_ids.append(-1)
        runs[run_p] = (lo, len(triples))
        self._spo = spo
        self._pos = pos
        self._ids = ids
        self._adj = adj
        self._subjects = subjects
        self._objects = object_ids
        hubs = bytearray(len(adj))
        for t in pos.get(RDF_TYPE_IRI, ()):
            if isinstance(t.object, Iri):
                hubs[ids[t.object.value]] = 1
        for node, ranks in enumerate(adj):
            if len(ranks) > HUB_DEGREE:
                hubs[node] = 1
        self._hubs = hubs
        self._lines: list[str | None] | None = None

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
        term_matches (tolerant for numeric literals). A bound subject picks
        a slice of the sorted triples by its rank runs, a bound IRI object
        its adjacency ranks, a bound predicate alone its list.
        """
        # Pick an index, then test only the positions it did not select.
        if s is not None:
            runs = self._spo.get(s.value)
            if runs is None:
                return []
            if p is not None:
                lo, hi = runs.get(p.value, (0, 0))
            else:
                # A subject's runs are adjacent, inserted in sorted order.
                spans = [*runs.values()]
                lo, hi = spans[0][0], spans[-1][1]
            run = self._triples[lo:hi]
            if o is None:
                return run  # the slice is a new list
            return [t for t in run if term_matches(t.object, o)]
        if isinstance(o, Iri):
            node = self._ids.get(o.value)
            ranks = () if node is None else self._adj[node]
            found: Iterable[Triple] = map(self._triples.__getitem__, ranks)
        elif p is not None:
            found, p = self._pos.get(p.value, ()), None
        else:
            found = self._triples
        if p is None and o is None:
            return list(found)
        return [
            t
            for t in found
            if (p is None or t.predicate.value == p.value)
            and (o is None or term_matches(t.object, o))
        ]

    def find_supporting(self, triple: Triple) -> Triple | None:
        """The first stored triple entailing `triple`, or None."""
        hits = self.match(triple.subject, triple.predicate, triple.object)
        return hits[0] if hits else None

    def contains(self, triple: Triple) -> bool:
        """Entailment check: membership with tolerant numeric matching."""
        return self.find_supporting(triple) is not None


@dataclass(frozen=True, slots=True)
class Subgraph:
    """A read-only view of some of a graph's triples: the graph and the
    ascending ranks of the triples in view. It iterates its triples in the
    graph's sorted order and serializes through the graph's line cache."""

    graph: Graph
    ranks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ranks)

    def __iter__(self) -> Iterator[Triple]:
        return map(self.graph._triples.__getitem__, self.ranks)


def retrieve_subgraph(graph: Graph, seeds: Iterable[Iri], max_hops: int) -> Subgraph:
    """Breadth-first subgraph expansion from seed entities, capped at hubs.

    Hop 1 collects all triples incident to a seed, hub or not; each later
    hop expands from IRI nodes newly reached in the previous one. Literal
    objects and reached hubs (see Graph) are never expanded, though the
    edge that reached a hub is collected: a context is bounded by the
    degree limit, not by the graph's size. The seeds are looked up once by
    IRI string; the walk then runs over node ids and triple ranks only, so
    its cost grows with the triples it collects. Returns a Subgraph of the
    collected ranks, sorted, ready for serialize_ntriples.
    """
    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    ids, adj, hubs = graph._ids, graph._adj, graph._hubs
    subjects, objects = graph._subjects, graph._objects
    frontier = {ids[s.value] for s in seeds if s.value in ids}
    visited = set(frontier)
    collected: set[int] = set()
    for _ in range(max_hops):
        if not frontier:
            break
        ranks = set(chain.from_iterable(map(adj.__getitem__, frontier)))
        ranks -= collected
        collected |= ranks
        reached = set(map(subjects.__getitem__, ranks))
        reached.update(map(objects.__getitem__, ranks))
        reached -= visited
        reached.discard(-1)
        frontier = set(filterfalse(hubs.__getitem__, reached))
        visited |= frontier
    return Subgraph(graph, tuple(sorted(collected)))


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
