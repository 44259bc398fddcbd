"""Timing spans around factgate's public functions, for the traced run only.

The tracer patches the names `factgate.gate` and `factgate.evaluation` call
(so a span sits exactly at each layer boundary the pipeline crosses), plus
`Graph.find_supporting`, `Graph.__init__` (counted, not timed) and the
generator callable. Spans are kept in memory and written out at the end;
`uninstall` restores every original, so untraced code runs unwrapped.
"""

from __future__ import annotations

import functools
import json
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    qid: str | None
    start: int
    end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


# (module attribute, span name, sizes recorded from the result)
_GATE_TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("link_question_entities", "link", lambda r: {"seeds": len(r)}),
    ("retrieve_subgraph", "retrieve", lambda r: {"triples": len(r)}),
    ("serialize_ntriples", "serialize", lambda r: {"bytes": len(r.encode("utf-8"))}),
    ("extract_claims", "extract", lambda r: {"claims": len(r)}),
    ("audit_claim", "audit_claim", lambda r: {"licensed": r.licensed}),
    ("validate_claim", "validate_claim", lambda r: {"violations": len(r)}),
    (
        "decide",
        "decide",
        lambda r: {"verdict": r[0].value, "reason": r[1].value if r[1] else None},
    ),
)
_EVALUATION_TARGETS = (
    ("run_pipeline", "run_pipeline", None),
    ("answer_matches", "grade", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.graphs: list[tuple[str | None, int]] = []
        self.qid: str | None = None
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.qid, perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn: Callable, name: str, sizes: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if sizes is not None:
                span.attrs.update(sizes(result))
            return result

        return traced

    # --- patching ---------------------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, fg, session) -> None:
        """Wrap the layer boundaries of the imported `factgate` package and
        the session's generator factory."""
        for attr, name, sizes in _GATE_TARGETS:
            self._patch(fg.gate, attr, self.wrap(getattr(fg.gate, attr), name, sizes))
        for attr, name, sizes in _EVALUATION_TARGETS:
            self._patch(
                fg.evaluation, attr, self.wrap(getattr(fg.evaluation, attr), name, sizes)
            )
        graph_cls = fg.kg.Graph
        find = graph_cls.find_supporting
        traced_find = self.wrap(find, "find_supporting")

        # Constraint checks call find_supporting thousands of times per claim
        # through Graph.contains; only the gate's own entailment lookup is a
        # layer boundary, so only calls made directly by audit_claim record.
        def find_supporting(graph, triple):
            if self._stack and self._stack[-1].name == "audit_claim":
                return traced_find(graph, triple)
            return find(graph, triple)

        init = graph_cls.__init__

        def counted_init(graph, *args, **kwargs):
            init(graph, *args, **kwargs)
            self.graphs.append((self.qid, len(graph)))

        self._patch(graph_cls, "find_supporting", find_supporting)
        self._patch(graph_cls, "__init__", counted_init)
        factory = session.factory
        self._patch(
            session, "factory", lambda item: self.wrap(factory(item), "generate")
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent,
                    "qid": s.qid,
                    "start_ns": s.start,
                    "end_ns": s.end,
                }
                record.update(s.attrs)
                fh.write(json.dumps(record) + "\n")

    # --- derived figures --------------------------------------------------

    def self_ms(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        child_ms: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms
        return {s.id: s.ms - child_ms.get(s.id, 0.0) for s in self.spans}


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, window: set[str], graph_triples: int) -> dict[str, float]:
    """Per-layer figures from spans; per-question figures average over the
    questions (qids in `window` that ran the pipeline)."""
    spans = tracer.spans
    selfs = tracer.self_ms()

    def named(name: str, qids: set[str] | None = None) -> list[Span]:
        return [s for s in spans if s.name == name and (qids is None or s.qid in qids)]

    def first_ms(name: str, qid: str) -> float:
        found = [s.ms for s in spans if s.name == name and s.qid == qid]
        return found[0] if found else 0.0

    questions = {s.qid for s in named("run_pipeline", window)}
    nq = len(questions) or 1

    def per_q(name: str, value=lambda s: s.ms) -> float:
        return sum(value(s) for s in named(name, questions)) / nq

    graphs = [n for qid, n in tracer.graphs if qid in questions]
    retrieves = named("retrieve", questions)
    audits = named("audit_claim", questions)
    decides = named("decide", questions)
    verdicts = [(s.attrs["verdict"], s.attrs["reason"]) for s in decides]
    context = _mean([s.attrs["triples"] for s in retrieves])
    # Share of the graph one retrieval returns, over questions that linked
    # an entity (with no seed there is nothing to expand, by design).
    share = _mean([
        s.attrs["triples"] / graph_triples
        for s, link in zip(retrieves, named("link", questions))
        if link.attrs["seeds"]
    ])
    validate_graph = [s for s in named("validate_graph") if s.qid != "cold"]
    return {
        "kg.parse_ms": first_ms("parse_ntriples", "setup"),
        "kg.graphs_built": len(graphs) / nq,
        "kg.triples_indexed": sum(graphs) / nq,
        "kg.retrieve_ms": per_q("retrieve"),
        "kg.serialize_ms": per_q("serialize"),
        "kg.context_triples": context,
        "kg.context_bytes": _mean([s.attrs["bytes"] for s in named("serialize", questions)]),
        "kg.context_share": share,
        "kg.find_supporting_us": 1000 * _mean([s.ms for s in named("find_supporting", questions)]),
        "extraction.build_lexicon_ms": first_ms("build_lexicon", "setup"),
        "extraction.link_ms": per_q("link"),
        "extraction.link_cold_ms": first_ms("link", "cold"),
        "extraction.extract_ms": per_q("extract"),
        "extraction.extract_cold_ms": first_ms("extract", "cold"),
        "extraction.seeds": per_q("link", lambda s: s.attrs["seeds"]),
        "extraction.claims": per_q("extract", lambda s: s.attrs["claims"]),
        "constraints.validate_claim_ms": _mean([s.ms for s in named("validate_claim", questions)]),
        "constraints.claim_violations": _mean(
            [s.attrs["violations"] for s in named("validate_claim", questions)]
        ),
        "constraints.validate_graph_ms": (
            statistics.median(s.ms for s in validate_graph) if validate_graph else 0.0
        ),
        "constraints.graph_violations": (
            validate_graph[-1].attrs["violations"] if validate_graph else 0
        ),
        "generators.mock_ms": per_q("generate"),
        "gate.audit_self_ms": sum(selfs[s.id] for s in audits) / nq,
        "gate.pipeline_self_ms": per_q("run_pipeline", lambda s: selfs[s.id]),
        "gate.questions": len(questions),
        "gate.answer": sum(v == "ANSWER" for v, _ in verdicts),
        "gate.abstain.no_evidence": sum(r == "NO_EVIDENCE" for _, r in verdicts),
        "gate.abstain.constraint_violation": sum(
            r == "CONSTRAINT_VIOLATION" for _, r in verdicts
        ),
        "gate.abstain.no_claims": sum(r == "NO_CLAIMS_POLICY" for _, r in verdicts),
        "gate.licensed_claim_share": (
            sum(s.attrs["licensed"] for s in audits) / len(audits) if audits else 0.0
        ),
        "evaluation.grade_us": 1000 * _mean([s.ms for s in named("grade", questions)]),
        "evaluation.compute_metrics_ms": sum(s.ms for s in named("compute_metrics")),
    }


def graphs_by_claims(tracer: Tracer, window: set[str]) -> dict[str, list[int]]:
    """Claims per question -> the distinct Graph-construction counts seen."""
    claims = {s.qid: s.attrs["claims"] for s in tracer.spans
              if s.name == "extract" and s.qid in window}
    built: dict[str, int] = {}
    for qid, _ in tracer.graphs:
        if qid in claims:
            built[qid] = built.get(qid, 0) + 1
    out: dict[str, set[int]] = {}
    for qid, n in claims.items():
        out.setdefault(str(n), set()).add(built.get(qid, 0))
    return {k: sorted(v) for k, v in sorted(out.items())}
