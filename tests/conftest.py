from __future__ import annotations

import random
from pathlib import Path

import pytest

from factgate.kg import Datatype, Graph, Iri, Literal, Triple, parse_ntriples

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"

RIVER_SAMPLE = """\
<River_Colorado> <length> "2334000.0" .
<River_Colorado> <sourceElevation> "2743.0" .
<River_Colorado> <traverses> <State_Colorado> .
"""


@pytest.fixture
def river_sample() -> Graph:
    """Three-triple sample graph used across the entailment tests."""
    return parse_ntriples(RIVER_SAMPLE)


@pytest.fixture(scope="session")
def rivers_fixture_paths() -> dict[str, Path]:
    base = FIXTURES / "rivers"
    return {
        "graph": base / "graph.nt",
        "constraints": base / "constraints.txt",
        "rules": base / "rules.txt",
        "dataset": base / "qa.jsonl",
    }


def random_graph(rng: random.Random, n_triples: int, n_entities: int = 12) -> Graph:
    """Deterministic random graph mixing IRI and numeric literal objects."""
    entities = [Iri(f"e{i}") for i in range(n_entities)]
    predicates = [Iri(f"p{i}") for i in range(4)]
    triples = []
    for _ in range(n_triples):
        s = rng.choice(entities)
        p = rng.choice(predicates)
        if rng.random() < 0.5:
            o: Triple | Iri | Literal = rng.choice(entities)
        else:
            o = Literal(str(rng.randint(0, 500)), Datatype.DECIMAL)
        triples.append(Triple(s, p, o))
    return Graph(triples)
