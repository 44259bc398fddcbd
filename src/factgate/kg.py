"""In-memory RDF triple store.

Holds an immutable, indexed set of (subject, predicate, object) triples
parsed from a flat N-Triples subset (no prefixes, no blank nodes, no
language tags). The store answers three questions: does a triple hold
(entailment, numbers by exact value), which triples of a predicate have a
given subject or object, and what lies within k hops of some entities.

A parse checks each distinct object token once, and a plain token (an IRI,
or a quoted literal with no suffix or escape) is its own N-Triples text.
The store is built with the cyclic garbage collector paused, and the
collector is restored as found when the build ends, on error too.
"""

from __future__ import annotations

import gc
import re
from dataclasses import dataclass, field, fields
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from enum import Enum
from itertools import filterfalse
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Sequence

RDF_TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"
XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"

# Retrieval never expands a non-seed node of more incident triples.
HUB_DEGREE = 64

# xsd:decimal / xsd:integer lexical forms (no exponent, no NaN/Inf). Their
# digits are ASCII: `\d` would also take other scripts' decimal digits.
_DECIMAL_RE = re.compile(r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)\Z")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")

_WHITESPACE_RE = re.compile(r"[ \t\r\n]")

# The (s, p) runs of a subject the graph lacks: one shared read-only mapping,
# so a lookup of such a subject allocates nothing.
_NO_RUNS = MappingProxyType({})


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


Term = Iri | Literal


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Iri
    predicate: Iri
    object: Term


def _unchecked(cls: type) -> Callable:
    """A constructor of `cls`, a frozen slots dataclass of three fields, for
    parts already checked: it sets the fields in order through their slot
    descriptors, and runs neither __init__ nor __post_init__."""
    new = object.__new__
    first, second, third = (getattr(cls, f.name).__set__ for f in fields(cls))

    def make(a, b, c):
        made = new(cls)
        first(made, a)
        second(made, b)
        third(made, c)
        return made

    return make


# The parse's constructors: a literal it has checked, with the numeric value
# it parsed, and a triple of its terms.
_literal = _unchecked(Literal)
_triple = _unchecked(Triple)


def term_matches(graph_term: Term, query_term: Term) -> bool:
    """Term equality used by entailment and pattern matching.

    IRIs and strings compare byte-equal, numbers by exact decimal value
    (`"5"`, `"5.0"`, `"5"^^xsd:integer` are one); a number is no string.
    """
    if isinstance(graph_term, Literal) and isinstance(query_term, Literal):
        if graph_term.numeric is not None or query_term.numeric is not None:
            return graph_term.numeric == query_term.numeric
    return graph_term == query_term


# --- N-Triples subset ---------------------------------------------------

# Matched against a stripped line. The object starts and ends with a
# non-space character, so no two repeats can share a whitespace run, and a
# malformed line is rejected in time linear in its length.
_LINE_RE = re.compile(r"<([^<>]*)>\s+<([^<>]*)>\s+(\S(?:.*\S)?)\s*\.$")
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


def _parse_object(token: str, iri: Callable[[str], Iri]) -> tuple[Term, str]:
    """The term of an object token and its N-Triples text (term_to_ntriples
    of the term), from one lexical check of the token. An IRI token is its
    own text, and so is a quoted one with no datatype suffix and nothing
    inside that the text escapes (a backslash, a raw tab or carriage
    return); any other is rendered from its term."""
    if token.startswith("<") and token.endswith(">"):
        return iri(token[1:-1]), token
    m = _LITERAL_OBJ_RE.match(token)
    if m is None:
        raise ValueError(f"malformed object term: {token!r}")
    body, dt_iri = m.groups()
    plain = dt_iri is None and not ("\\" in body or "\t" in body or "\r" in body)
    lexical = body if plain else _ESCAPE_SEQ_RE.sub(_unescape_one, body)
    if dt_iri is None:
        # Unsuffixed literals that look like decimals are stored as decimals;
        # the source data omits datatype suffixes on numeric values.
        numeric = _DECIMAL_RE.match(lexical) is not None
        datatype = Datatype.DECIMAL if numeric else Datatype.STRING
    else:
        datatype = _DATATYPE_BY_IRI.get(dt_iri)
        if datatype is None:
            raise ValueError(f"unsupported datatype: <{dt_iri}>")
        numeric = datatype is not Datatype.STRING
        pattern = _INTEGER_RE if datatype is Datatype.INTEGER else _DECIMAL_RE
        if numeric and not pattern.match(lexical):
            raise ValueError(f"invalid {datatype.value} lexical form: {lexical!r}")
    term = _literal(lexical, datatype, Decimal(lexical) if numeric else None)
    if plain:
        return term, token
    text = term_to_ntriples(term)
    return term, token if text == token else text  # keep one string


_LINE_SHAPE = "expected `<subject> <predicate> object .`"


def parse_ntriples_line(line: str) -> Triple:
    """Parse one `<s> <p> o .` line. Raises ValueError on malformed input."""
    m = _LINE_RE.match(line.strip())
    if m is None:
        raise ValueError(_LINE_SHAPE)
    term, _ = _parse_object(m.group(3), Iri)
    return Triple(Iri(m.group(1)), Iri(m.group(2)), term)


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
    token is parsed, checked and given its text in one pass, on its first
    occurrence only, and two spellings of one term (`"5"`,
    `"5"^^<...#decimal>`) give one text and one term object."""

    def __init__(self) -> None:
        self.iris = _IriTable()
        self.texts: dict[str, str] = {}
        self.objects: dict[str, Term] = {}

    def read(self, text: str) -> Iterator[tuple[str, str, str]]:
        """(subject, predicate, object text) of each content line, in text
        order; a malformed line raises a ParseError when it is reached."""
        iri, texts = self.iris.__getitem__, self.texts
        for number, line in content_lines(split_lines(text)):
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
        term, text = _parse_object(token, self.iris.__getitem__)
        self.texts[token] = text
        self.objects.setdefault(text, term)
        return text


def split_lines(text: str) -> list[str]:
    """The lines of a line-oriented input. A line ends only at a line feed,
    a carriage return or the two together, never at U+2028 or the other
    characters str.splitlines() also breaks at, which a literal or a JSON
    string may hold raw."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def iter_lines(text: str) -> Iterator[str]:
    """The lines of split_lines(text), one at a time: a reader that stops
    early neither splits nor copies the rest of the text."""
    start = 0
    while (end := text.find("\n", start)) >= 0:
        line, start = text[start:end], end + 1
        if "\r" in line:  # a CR ends a line too; one just before the LF is CRLF
            yield from line.removesuffix("\r").split("\r")
        else:
            yield line
    yield from text[start:].split("\r")


def read_utf8(path: str | Path) -> str:
    """The text of an input file; a byte that is not UTF-8 is a ParseError
    at its line, counted as split_lines counts."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(split_lines(data[: exc.start].decode("utf-8")))
        raise ParseError(
            line, f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        ) from exc


def content_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each of the lines of a line-oriented
    input that is neither blank nor a `#` comment. A reader of the whole
    text passes split_lines(text), one fast split; a reader that stops early
    passes iter_lines(text), the same lines read only as far as it reads."""
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield number, stripped


def parse_ntriples(text: str) -> "Graph":
    """Parse N-Triples text into a Graph.

    Duplicate triples are deduplicated. Any malformed line aborts the
    whole parse with a ParseError carrying its line number. The lines are
    read into string keys (see Graph); no `Triple` is made before the keys
    are deduplicated and sorted. Each distinct object token is parsed and
    checked once, and a plain token (an IRI, or a quoted literal with no
    datatype suffix and nothing to escape) is its own text. The reading and
    the build run with the cyclic garbage collector paused; it is restored
    as found when they end, also when a line is malformed.
    """
    table = _TermTable()
    graph = Graph.__new__(Graph)
    graph._index(table.read(text), table.iris, table.objects)
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


def serialize_ntriples(sub: Subgraph) -> str:
    """N-Triples of a retrieve_subgraph result, one triple per line, in the
    graph's sorted order.

    The text comes from the graph's text cache, one slot per piece key (see
    Subgraph): a subject run's slot holds the lines of the whole run, a
    single triple's slot its one line. The cache is made on the first call
    and filled lazily: a piece is rendered the first time any call needs it
    and reused after that, so a context whose pieces are all warm is one
    join of cached strings. A graph that is never serialized holds no cache.
    Concurrent calls may render the same piece twice, writing the same
    string to the same slot.
    """
    graph = sub.graph
    cache = graph._texts
    if cache is None:
        cache = graph._texts = [None] * (2 * len(graph._triples))
    keys = sub.pieces
    if not all(map(cache.__getitem__, keys)):
        triples, runs, subjects = graph._triples, graph._runs, graph._subjects
        for key in keys:
            if cache[key] is None:
                lo = key >> 1
                if key & 1:
                    text = triple_to_ntriples(triples[lo])
                else:
                    hi = runs[subjects[lo]][1]
                    text = "\n".join(map(triple_to_ntriples, triples[lo:hi]))
                cache[key] = text + "\n"
    return "".join(map(cache.__getitem__, keys))


# --- the store ----------------------------------------------------------


class Graph:
    """Immutable indexed triple set.

    Triples are held in sorted order, each addressed by its rank (its
    position in that order). The order is that of the (subject, predicate,
    object text) string keys, the object text being term_to_ntriples of the
    object. One build serves `Graph(triples)` and parse_ntriples alike: it
    deduplicates and sorts those keys as strings and makes each Triple
    after that, from tables mapping the strings to terms. Two indexes,
    keyed by IRI strings, back match's (s, p) and (p) lookups: subject
    -> predicate -> (lo, hi), the rank run of the sorted order holding that
    pair's triples, and predicate -> triples. Every IRI node (a subject or
    an IRI object) gets a dense integer id at build, through one string ->
    id table. Indexed by node id, the store keeps the node's subject run,
    the (lo, hi) ranks of the triples whose subject it is (empty for a node
    that is no subject), and its incoming ranks, the ascending ranks of the
    triples whose object it is, a self-loop included; these serve the
    (p, o) lookup, and both serve retrieval. Indexed by rank, two int lists
    hold each triple's subject and object node ids (-1 for a literal), the
    very int objects of the id table. A lookup thus hashes strings, and
    retrieval only ints. All query results come out sorted, and every
    lookup is equivalent to a linear scan. The hubs, flagged by node id at
    build, are the classes (`rdf:type` objects) and the nodes of more than
    HUB_DEGREE incident triples, a self-loop counted once. Three caches are
    filled lazily, so no line is rendered, no set gathered and no number
    compared at build: the rendered text (see serialize_ntriples), the
    subject sets of subjects_of, which back holds, and the per-subject
    least and greatest numbers of least and greatest.
    """

    __slots__ = (
        "_triples", "_spo", "_pos", "_ids", "_runs", "_in", "_subjects",
        "_objects", "_hubs", "_texts", "_subject_sets", "_extremes",
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
        # A build makes several objects per triple and no cycle, so a
        # collection in it would only walk them: the collector is paused,
        # not frozen, and left as it was found. The collector is process
        # state, so two builds in two threads at once may leave it off; the
        # CLI builds its one graph before any worker starts.
        enabled = gc.isenabled()
        gc.disable()
        try:
            keys = sorted(set(keys))
            triples = self._triples = [
                _triple(iris[s], iris[p], objects[o]) for s, p, o in keys
            ]
            # Drop the keys before the indexes grow: the two never coexist,
            # which keeps the build's peak memory down.
            del keys
            spo: dict[str, dict[str, tuple[int, int]]] = {}
            pos: dict[str, list[Triple]] = {}
            ids: dict[str, int] = {}
            subject_runs: list[tuple[int, int]] = []
            incoming: list[list[int]] = []
            subjects: list[int] = []
            object_ids: list[int] = []
            loops: list[int] = []  # the subject id of each self-loop
            runs: dict[str | None, tuple[int, int]] = {}  # scratch until a subject opens
            run_s = run_p = None
            lo = start = sid = 0
            for rank, t in enumerate(triples):
                s, p, o = t.subject.value, t.predicate.value, t.object
                # A subject's triples are adjacent, and so are its predicate's:
                # each subject run and (subject, predicate) run is closed when
                # the next opens.
                if s != run_s:
                    runs[run_p] = (lo, rank)
                    if rank:
                        subject_runs[sid] = (start, rank)
                    runs = spo[s] = {}
                    sid = ids.setdefault(s, len(incoming))
                    if sid == len(incoming):
                        incoming.append([])
                        subject_runs.append((0, 0))
                    run_s, run_p, lo = s, p, rank
                    start = rank
                elif p != run_p:
                    runs[run_p] = (lo, rank)
                    run_p, lo = p, rank
                pos.setdefault(p, []).append(t)
                subjects.append(sid)
                if isinstance(o, Iri):
                    oid = ids.setdefault(o.value, len(incoming))
                    if oid == len(incoming):
                        incoming.append([])
                        subject_runs.append((0, 0))
                    incoming[oid].append(rank)
                    if oid == sid:
                        loops.append(sid)
                    object_ids.append(oid)
                else:
                    object_ids.append(-1)
            runs[run_p] = (lo, len(triples))
            if triples:
                subject_runs[sid] = (start, len(triples))
            self._spo = spo
            self._pos = pos
            self._ids = ids
            self._runs = subject_runs
            self._in = incoming
            self._subjects = subjects
            self._objects = object_ids
            hubs = bytearray(len(incoming))
            for t in pos.get(RDF_TYPE_IRI, ()):
                if isinstance(t.object, Iri):
                    hubs[ids[t.object.value]] = 1
            # A node's incident triples are its run and its incoming ranks; a
            # self-loop is in both and counts once.
            degrees = [
                hi - lo + len(ranks) for (lo, hi), ranks in zip(subject_runs, incoming)
            ]
            for node in loops:
                degrees[node] -= 1
            for node, degree in enumerate(degrees):
                if degree > HUB_DEGREE:
                    hubs[node] = 1
            self._hubs = hubs
            self._texts: list[str | None] | None = None
            self._subject_sets: dict[tuple[str, str], set[str]] = {}
            self._extremes: dict[str, tuple[dict[str, Decimal], ...]] = {}
        finally:
            if enabled:
                gc.enable()

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __repr__(self) -> str:
        return f"Graph({len(self._triples)} triples)"

    def match(
        self, *, s: Iri | None = None, p: Iri, o: Term | None = None
    ) -> list[Triple]:
        """The triples of predicate `p` with subject `s` and object `o`, as
        far as those are bound, in sorted order, as a new list. A bound
        subject reads its (s, p) rank run, else an IRI object its incoming
        ranks, else `p`'s list. IRIs match byte-equal, an object per
        term_matches.
        """
        if s is not None:
            lo, hi = self._spo.get(s.value, _NO_RUNS).get(p.value, (0, 0))
            found = self._triples[lo:hi]  # the slice is a new list
        elif isinstance(o, Iri):
            node = self._ids.get(o.value)
            ranks = () if node is None else self._in[node]
            hits = map(self._triples.__getitem__, ranks)
            return [t for t in hits if t.predicate.value == p.value]
        else:
            found = list(self._pos.get(p.value, ()))
        if o is None:
            return found
        return [t for t in found if term_matches(t.object, o)]

    def subjects_of(self, p: Iri, o: Iri) -> set[str]:
        """The IRI strings of the subjects of the (s, p, o) triples, the
        object being the IRI `o`: say, the instances of a class. Each pair's
        set is gathered from the predicate's triples on its first ask and
        kept for the graph's life, so it suits the few pairs a constraint
        set names; two first asks at once may each gather it, and store
        equal sets. Callers must not change the set."""
        key = p.value, o.value
        found = self._subject_sets.get(key)
        if found is None:
            found = self._subject_sets[key] = {
                t.subject.value
                for t in self._pos.get(p.value, ())
                if isinstance(t.object, Iri) and t.object.value == o.value
            }
        return found

    def least(self, p: Iri) -> dict[str, Decimal]:
        """The least number among each subject's numeric `p` objects, keyed
        by the subject's IRI string; a subject with none is absent. Of equal
        numbers (`"5"`, `"5.0"`) the first in sorted order is kept, as `min`
        over match keeps it. Both maps of `p` are gathered on its first
        ask and kept for the graph's life, like the subject sets: two first
        asks at once may each gather them, and store equal maps. Callers
        must not change the dict."""
        return (self._extremes.get(p.value) or self._gather_extremes(p))[0]

    def greatest(self, p: Iri) -> dict[str, Decimal]:
        """`least`, for the greatest number."""
        return (self._extremes.get(p.value) or self._gather_extremes(p))[1]

    def _gather_extremes(self, p: Iri) -> tuple[dict[str, Decimal], ...]:
        """Both maps of `p`, from one pass over its triples. A map's keys
        and values are the triples' own strings and Decimals, which the
        collector does not track: the pass makes no container per subject,
        so it adds nothing for a collection to count or walk."""
        least: dict[str, Decimal] = {}
        greatest: dict[str, Decimal] = {}
        for t in self._pos.get(p.value, ()):
            o = t.object
            if isinstance(o, Literal) and (value := o.numeric) is not None:
                s = t.subject.value
                low = least.get(s)
                if low is None:
                    least[s] = greatest[s] = value
                elif value < low:
                    least[s] = value
                elif value > greatest[s]:
                    greatest[s] = value
        found = self._extremes[p.value] = (least, greatest)
        return found

    def holds(self, s: Iri, p: Iri, o: Iri) -> bool:
        """`contains` for the triple of an IRI object."""
        return s.value in self.subjects_of(p, o)

    def find_supporting(self, triple: Triple) -> Triple | None:
        """The first stored triple entailing `triple`, or None."""
        hits = self.match(s=triple.subject, p=triple.predicate, o=triple.object)
        return hits[0] if hits else None

    def contains(self, triple: Triple) -> bool:
        """Entailment check: membership, numbers compared by exact value."""
        return self.find_supporting(triple) is not None


@dataclass(frozen=True, slots=True)
class Subgraph:
    """A read-only view of some of a graph's triples, held as pieces of the
    graph's sorted order: whole subject runs and single triples. A piece's
    key is twice its first rank, plus one for a single triple, so keys sort
    as their pieces do, and a run's key is not that of its first triple
    alone. `pieces` holds the keys, ascending, of pieces that never
    overlap, and `size` the number of triples they hold. The view iterates
    its triples in the graph's sorted order and serializes through the
    graph's text cache."""

    graph: Graph
    pieces: tuple[int, ...]
    size: int

    @property
    def ranks(self) -> tuple[int, ...]:
        """The ascending ranks of the triples in view."""
        runs, subjects = self.graph._runs, self.graph._subjects
        ranks: list[int] = []
        for key in self.pieces:
            lo = key >> 1
            ranks.extend(range(lo, lo + 1 if key & 1 else runs[subjects[lo]][1]))
        return tuple(ranks)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Triple]:
        return map(self.graph._triples.__getitem__, self.ranks)


def retrieve_subgraph(graph: Graph, seeds: Iterable[Iri], max_hops: int) -> Subgraph:
    """Breadth-first subgraph expansion from seed entities, capped at hubs.

    Hop 1 collects all triples incident to a seed, hub or not; each later
    hop expands from IRI nodes newly reached in the previous one. Literal
    objects and reached hubs (see Graph) are never expanded, though the
    edge that reached a hub is collected: a context is bounded by the
    degree limit, not by the graph's size. The seeds are looked up once by
    IRI string; the walk then runs over node ids only. A hop reaches the
    objects of each expanded node's subject run and the subjects of its
    incoming triples; the last hop reaches nothing, since no frontier
    follows it. The triples collected are those incident to an expanded
    node: the whole subject run of each one, plus each incoming triple
    whose subject is not expanded. Returns a Subgraph of those pieces,
    sorted, ready for serialize_ntriples; its cost grows with the nodes
    expanded and their incoming triples, not with the triples in its runs.
    """
    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    ids, runs, incoming, hubs = graph._ids, graph._runs, graph._in, graph._hubs
    subjects, objects = graph._subjects, graph._objects
    frontier = {ids[s.value] for s in seeds if s.value in ids}
    expanded = set(frontier)
    for _ in range(max_hops - 1):
        if not frontier:
            break
        reached: set[int] = set()
        for node in frontier:
            lo, hi = runs[node]
            reached.update(objects[lo:hi])
            reached.update(map(subjects.__getitem__, incoming[node]))
        reached -= expanded
        reached.discard(-1)
        frontier = set(filterfalse(hubs.__getitem__, reached))
        expanded |= frontier
    keys = []
    size = 0
    for lo, hi in map(runs.__getitem__, expanded):
        if hi > lo:
            keys.append(2 * lo)
            size += hi - lo
    singles = [
        2 * rank + 1
        for node in expanded
        for rank in incoming[node]
        if subjects[rank] not in expanded
    ]
    keys += singles
    keys.sort()
    return Subgraph(graph, tuple(keys), size + len(singles))


def parse_decimal(text: str) -> Decimal:
    """Strict decimal parse (xsd:decimal lexical space, no exponent)."""
    if not _DECIMAL_RE.match(text):
        raise ValueError(f"not a plain decimal: {text!r}")
    return Decimal(text)


# Unit scaling and normalizing run in EXACT, whose precision and exponent
# range no number reaches: nothing rounds. Never divide in it (x/3 never ends).
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


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
