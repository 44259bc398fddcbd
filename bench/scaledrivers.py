"""Seeded scaled-rivers generator.

Scales the schema of `fixtures/rivers` (typed rivers and states, tributary
chains, numeric length / elevation / discharge, `inCountry`, `traverses`
into shared state hubs) to any size, and writes the matching QA set and the
exact set of planted constraint violations. The graph validates against
the unchanged `fixtures/rivers/constraints.txt`; every violation it has is
one this module planted on purpose.

The same (seed, triples, qa kind, dirty share) gives the same bytes: all
randomness comes from one `random.Random` seeded with a string, and every
collection is emitted in generation order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

# A short syllable inventory, so that stems repeat at scale and a realistic
# share of river names carries a numeric disambiguator ("Tavo 3 River").
_SYLLABLES = (
    "ka", "lo", "ve", "ri", "ta", "mo", "sen", "dar", "qui", "bel",
    "nor", "wa", "phi", "gu", "tez",
)
# States draw from a separate inventory, so no state name is a river stem.
_STATE_SYLLABLES = ("ar", "bra", "cel", "dun", "esk", "fal", "gor", "hal", "ist")
N_STATES = 48
# Triples a clean river contributes on average (type, label, four measures,
# inCountry, 1-3 traverses, ~0.7 hasTributary edges).
_TRIPLES_PER_RIVER = 9.7
# Share of rivers left sparse (type, label, inCountry only), like the
# fixture's Styx and Lethe: questions about their measures are not entailed.
_SPARSE_SHARE = 0.03

PLANT_KINDS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")


@dataclass
class River:
    iri: str
    label: str
    length_km: int | None = None
    source_m: int | None = None
    mouth_m: int | None = None
    discharge: int | None = None
    country: str = "United_States"
    states: list[str] = field(default_factory=list)
    tributaries: list[str] = field(default_factory=list)
    plant: str | None = None


@dataclass
class Dataset:
    """Everything one workload's inputs are made of."""

    graph_nt: str
    qa_jsonl: str
    planted: list[tuple[str, str]]
    triples: list[tuple[str, str, str]]

    def write(self, out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "graph.nt").write_text(self.graph_nt, encoding="utf-8")
        (out / "qa.jsonl").write_text(self.qa_jsonl, encoding="utf-8")
        (out / "planted.tsv").write_text(
            "".join(f"{cid}\t{focus}\n" for cid, focus in self.planted),
            encoding="utf-8",
        )


def _stem(rng: random.Random, syllables: tuple[str, ...], parts: int) -> str:
    return "".join(rng.choice(syllables) for _ in range(parts)).capitalize()


def _state_names(rng: random.Random) -> list[str]:
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < N_STATES:
        name = _stem(rng, _STATE_SYLLABLES, rng.choice((2, 3)))
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _river_names(rng: random.Random, count: int) -> list[str]:
    uses: dict[str, int] = {}
    names = []
    for _ in range(count):
        stem = _stem(rng, _SYLLABLES, rng.choice((2, 2, 3)))
        uses[stem] = uses.get(stem, 0) + 1
        names.append(stem if uses[stem] == 1 else f"{stem} {uses[stem]}")
    return names


def _clean_measures(rng: random.Random, river: River) -> None:
    river.length_km = rng.randint(20, 3800)
    river.source_m = rng.randint(300, 4400)
    river.mouth_m = rng.randint(0, river.source_m - 100)
    river.discharge = rng.randint(1, 2000)


def _plant(river: River, kind: str, states: list[str]) -> None:
    """Break exactly one constraint on `river` (focus = the river)."""
    river.plant = kind
    if kind == "C1":  # a state named as a tributary
        river.tributaries.append(f"State_{states[0]}")
    elif kind == "C2":  # source below sea level, still above the mouth
        river.source_m, river.mouth_m = -5, -40
    elif kind == "C3":
        river.length_km = 0
    elif kind == "C4":
        river.discharge = 0
    elif kind == "C5":  # mouth below the -100 m floor, still below the source
        river.mouth_m = -150
    elif kind == "C6":  # flows uphill
        river.mouth_m = river.source_m + 100
    elif kind == "C7":  # traverses a US state but is placed in another country
        river.country = "Canada"
        if not river.states:
            river.states.append(states[0])


def build_graph(
    rng: random.Random, n_triples: int, dirty_share: float
) -> tuple[list[River], list[str], list[tuple[str, str, str]], list[tuple[str, str]]]:
    states = _state_names(rng)
    n_rivers = max(8, round((n_triples - 2 * N_STATES) / _TRIPLES_PER_RIVER))
    rivers = []
    for name in _river_names(rng, n_rivers):
        river = River(f"River_{name.replace(' ', '_')}", f"{name} River")
        if rng.random() >= _SPARSE_SHARE:
            _clean_measures(rng, river)
            river.states = rng.sample(states, rng.randint(1, 3))
        rivers.append(river)
    # Tributary chains: each river may flow into one earlier river.
    for i in range(1, n_rivers):
        if rng.random() < 0.7:
            rivers[rng.randrange(i)].tributaries.append(rivers[i].iri)
    planted: list[tuple[str, str]] = []
    measured = [r for r in rivers if r.length_km is not None]
    n_dirty = round(dirty_share * n_rivers)
    for i, river in enumerate(rng.sample(measured, n_dirty) if n_dirty else ()):
        kind = PLANT_KINDS[i % len(PLANT_KINDS)]
        _plant(river, kind, rng.sample(states, 1))
        planted.append((kind, river.iri))
    planted.sort()

    triples: list[tuple[str, str, str]] = []

    def num(value: int, scale: int = 1) -> str:
        return f'"{value * scale}.0"'

    for river in rivers:
        s = river.iri
        triples.append((s, RDF_TYPE, "<River>"))
        triples.append((s, "label", f'"{river.label}"'))
        if river.length_km is not None:
            triples.append((s, "length", num(river.length_km, 1000)))
            triples.append((s, "sourceElevation", num(river.source_m)))
            triples.append((s, "mouthElevation", num(river.mouth_m)))
            triples.append((s, "discharge", num(river.discharge)))
        triples.append((s, "inCountry", f"<{river.country}>"))
        for state in river.states:
            triples.append((s, "traverses", f"<State_{state}>"))
        for trib in river.tributaries:
            triples.append((s, "hasTributary", f"<{trib}>"))
    for state in states:
        triples.append((f"State_{state}", RDF_TYPE, "<State>"))
        triples.append((f"State_{state}", "label", f'"{state}"'))
    return rivers, states, triples, planted


# --- QA sets ---------------------------------------------------------------

def _sentences(river: River, labels: dict[str, str]) -> dict[str, tuple[str, str, str]]:
    """Per predicate: (question, answer sentence, gold triple) for one river."""
    out: dict[str, tuple[str, str, str]] = {}
    lab = river.label
    s = f"<{river.iri}>"
    if river.length_km is not None:
        out["length"] = (
            f"How long is the {lab}?",
            f"{lab} is {river.length_km} km long.",
            f'{s} <length> "{river.length_km * 1000}.0" .',
        )
        out["sourceElevation"] = (
            f"At what elevation does the {lab} rise?",
            f"{lab} rises at {river.source_m} meters.",
            f'{s} <sourceElevation> "{river.source_m}.0" .',
        )
        out["mouthElevation"] = (
            f"At what elevation does the {lab} end?",
            f"{lab} ends at {river.mouth_m} meters.",
            f'{s} <mouthElevation> "{river.mouth_m}.0" .',
        )
        out["discharge"] = (
            f"What is the discharge of the {lab}?",
            f"{lab} discharges {river.discharge} cubic meters per second.",
            f'{s} <discharge> "{river.discharge}.0" .',
        )
    if river.states:
        state = river.states[0]
        out["traverses"] = (
            f"Which state does the {lab} traverse?",
            f"{lab} traverses {labels[f'State_{state}']}.",
            f"{s} <traverses> <State_{state}> .",
        )
    if river.tributaries:
        trib = river.tributaries[0]
        out["hasTributary"] = (
            f"Which river is a tributary of the {lab}?",
            f"{lab} has tributary {labels[trib]}.",
            f"{s} <hasTributary> <{trib}> .",
        )
    return out


def _item(
    item_id: str,
    question: str,
    answer: str,
    gold: str | None,
    entailed: bool,
    violates: bool = False,
) -> dict:
    item = {
        "id": item_id,
        "question": question,
        "gold_answer": answer,
        "entailed": entailed,
        "gold_triple": gold,
    }
    if violates:
        item["violates_constraints"] = True
    return item


def _unknown_name(rng: random.Random, taken: set[str]) -> str:
    while True:
        name = _stem(rng, _SYLLABLES, 4)
        if name not in taken:
            return name


def _kinds(cycle: list[str], n: int) -> list[str]:
    """Item kinds for n items: `cycle` repeated in a fixed order.

    Every prefix then holds the stated mix to within one item of each kind,
    so how much work a run measures does not depend on the seed; which
    rivers and values the items use does."""
    return [cycle[i % len(cycle)] for i in range(n)]


# Per 20 questions: 17 about known rivers, 3 naming unknown ones (15 %).
_ASK_CYCLE = (
    ["known"] * 6 + ["unknown"] + ["known"] * 6 + ["unknown"] + ["known"] * 5 + ["unknown"]
)
# Per 20 items: 14 multi-claim answer keys with 2 (5), 3 (5) or 4 (4)
# claims, 3 non-entailed and 3 planted-violation items, interleaved.
_EVAL_CYCLE = [
    "m2", "m3", "m4", "absent", "m2", "m3", "violation", "m4", "m2", "m3",
    "absent", "m4", "m2", "violation", "m3", "m4", "m2", "absent", "m3", "violation",
]
# Item ids are `<kind>-<index>`. A cold start runs the first item of this
# kind that the mock answers with its answer key, so that its work has the
# same shape on every seed.
COLD_KIND = {"ask": "known", "eval": "m2"}


def qa_ask(
    rng: random.Random, rivers: list[River], labels: dict[str, str], n: int
) -> list[dict]:
    """Single-claim questions about distinct rivers; 15 % name unknown ones."""
    clean = [r for r in rivers if r.length_km is not None and r.plant is None]
    taken = {r.label.split(" ")[0] for r in rivers}
    items = []
    targets = iter(rng.sample(clean, min(n, len(clean))))
    for i, kind in enumerate(_kinds(_ASK_CYCLE, n)):
        if kind == "unknown":
            name = _unknown_name(rng, taken)
            km = rng.randint(20, 900)
            question = f"How long is the {name} River?"
            answer = f"{name} River is {km} km long."
            items.append(_item(f"{kind}-{i:05d}", question, answer, None, False))
            continue
        river = next(targets, None) or rng.choice(clean)
        options = _sentences(river, labels)
        question, answer, gold = options[rng.choice(sorted(options))]
        items.append(_item(f"{kind}-{i:05d}", question, answer, gold, True))
    return items


def qa_eval(
    rng: random.Random,
    rivers: list[River],
    states: list[str],
    labels: dict[str, str],
    n: int,
) -> list[dict]:
    """Multi-claim answer keys (2-4 claims mixing numeric and entity rules),
    plus non-entailed and planted-violation items."""
    clean = [r for r in rivers if r.length_km is not None and r.plant is None]
    sparse = [r for r in rivers if r.length_km is None]
    taken = {r.label.split(" ")[0] for r in rivers}
    items = []
    for i, kind in enumerate(_kinds(_EVAL_CYCLE, n)):
        river = rng.choice(clean)
        lab = river.label
        options = _sentences(river, labels)
        if kind.startswith("m"):
            numeric = [p for p in options if p not in ("traverses", "hasTributary")]
            entity = [p for p in ("traverses", "hasTributary") if p in options]
            preds = rng.sample(numeric, int(kind[1]) - 1) + [rng.choice(entity)]
            rng.shuffle(preds)
            question = f"Tell me the {', '.join(preds)} of the {lab}."
            answer = " ".join(options[p][1] for p in preds)
            items.append(_item(f"{kind}-{i:05d}", question, answer, options[preds[0]][2], True))
        elif kind == "absent":
            # Facts the graph does not hold: measures of a sparse river, or
            # of an unknown one when the graph is too small to have any.
            target = rng.choice(sparse).label if sparse else (
                f"{_unknown_name(rng, taken)} River"
            )
            km = rng.randint(20, 900)
            question = f"How long is the {target}?"
            answer = f"{target} is {km} km long."
            items.append(_item(f"{kind}-{i:05d}", question, answer, None, False))
        elif rng.random() < 0.5:  # C1: a state as a tributary
            state = rng.choice(states)
            answer = f"{lab} has tributary {labels[f'State_{state}']}."
            gold = f"<{river.iri}> <hasTributary> <State_{state}> ."
            question = f"Does any state feed the {lab} as a tributary?"
            items.append(_item(f"{kind}-{i:05d}", question, answer, gold, False, True))
        else:  # C2: a source below sea level
            depth = rng.randint(10, 400)
            answer = f"{lab} rises at -{depth} meters."
            gold = f'<{river.iri}> <sourceElevation> "-{depth}" .'
            question = f"How far below the sea does the {lab} begin?"
            items.append(_item(f"{kind}-{i:05d}", question, answer, gold, False, True))
    return items


def generate(
    seed: int, n_triples: int, qa: str | None, n_items: int = 0, dirty_share: float = 0.0
) -> Dataset:
    """One workload's inputs. `qa` is "ask", "eval" or None (no QA set)."""
    rng = random.Random(f"scaledrivers:{seed}:{n_triples}:{qa}:{dirty_share}")
    rivers, states, triples, planted = build_graph(rng, n_triples, dirty_share)
    labels = {r.iri: r.label for r in rivers}
    labels.update({f"State_{s}": s for s in states})
    if qa == "ask":
        items = qa_ask(rng, rivers, labels, n_items)
    elif qa == "eval":
        items = qa_eval(rng, rivers, states, labels, n_items)
    else:
        items = []
    graph_nt = "".join(f"<{s}> <{p}> {o} .\n" for s, p, o in triples)
    qa_jsonl = "".join(json.dumps(item, sort_keys=True) + "\n" for item in items)
    return Dataset(graph_nt, qa_jsonl, planted, triples)
