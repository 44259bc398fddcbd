from __future__ import annotations

import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
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


class Endpoint:
    """A chat-completion endpoint on 127.0.0.1. It answers every POST or GET
    with the next `(status, body)` of `replies` (the last one repeats), after
    `delay` seconds, and keeps `(path, headers, body)` of each request. A 3xx
    points `Location` at `/moved`."""

    def __init__(self, url: str, closing: threading.Event):
        self.url = url
        self.replies: list[tuple[int, bytes]] = [(200, b"")]
        self.delay = 0.0
        self.requests: list[tuple[str, dict[str, str], bytes]] = []
        self.closing = closing


class _EndpointHandler(BaseHTTPRequestHandler):
    def do_POST(self) -> None:
        endpoint: Endpoint = self.server.endpoint
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        endpoint.requests.append((self.path, dict(self.headers), body))
        replies = endpoint.replies
        status, payload = replies.pop(0) if len(replies) > 1 else replies[0]
        endpoint.closing.wait(endpoint.delay)  # wakes when the server closes
        self.send_response(status)
        if 300 <= status < 400:
            self.send_header("Location", "/moved")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    do_GET = do_POST  # a followed redirect would come back as a GET

    def log_message(self, format: str, *args: object) -> None:
        pass


@pytest.fixture
def endpoint():
    """A running `Endpoint`; it is shut down when the test ends."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EndpointHandler)
    server.daemon_threads = True
    # A client that gave up (a timeout test) breaks the reply's pipe.
    server.handle_error = lambda request, client_address: None
    closing = threading.Event()
    host, port = server.server_address[:2]
    server.endpoint = Endpoint(f"http://{host}:{port}/v1/chat", closing)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server.endpoint
    closing.set()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
