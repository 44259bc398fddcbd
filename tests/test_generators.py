from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
from _thread import TIMEOUT_MAX
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal

import pytest

from factgate.extraction import PredicateRule
from factgate.generators import (
    AuthError,
    GeneratorConfig,
    HttpGenerator,
    MockBehavior,
    MockMode,
    NO_CLAIM_TEXT,
    PROMPT_TEMPLATE,
    RequestTimeout,
    UpstreamError,
    corrupt_number,
    mock_generator,
)
from factgate.kg import Iri, ParseError, content_lines, iter_lines

from conftest import FIXTURES, REPO_ROOT

LENGTH_RULE = PredicateRule(
    "R_length", "SUBJ is OBJ km long", Iri("length"), "numeric", Decimal("1000")
)

CONTEXT = (
    '<River_Colorado> <length> "2334000.0" .\n'
    '<River_Colorado> <sourceElevation> "2743.0" .\n'
    "<River_Colorado> <traverses> <State_Colorado> .\n"
)


# --- mocks -------------------------------------------------------------------


def test_fixed_answer_passthrough():
    behavior = MockBehavior(MockMode.FIXED_ANSWER)
    out = mock_generator(behavior, answer_key="The answer is 42.")("q?", "")
    assert out == "The answer is 42."


def test_fixed_answer_requires_key():
    # The key is checked when the mock is bound, before any question.
    with pytest.raises(ValueError, match="fixed mock requires an answer key"):
        mock_generator(MockBehavior(MockMode.FIXED_ANSWER))


def test_echo_verbalizes_first_renderable_triple():
    behavior = MockBehavior(MockMode.ECHO_CONTEXT)
    out = mock_generator(behavior, rules=[LENGTH_RULE])("q?", CONTEXT)
    assert out == "River Colorado is 2334 km long."


def test_echo_takes_first_renderable_line_in_text_order():
    behavior = MockBehavior(MockMode.ECHO_CONTEXT)
    unsorted = (
        "<River_Gila> <traverses> <State_Arizona> .\n"
        '<River_Gila> <length> "1044000" .\n'
        '<River_Colorado> <length> "2334000.0" .\n'
        "<this line is never read\n"
    )
    out = mock_generator(behavior, rules=[LENGTH_RULE])("q?", unsorted)
    assert out == "River Gila is 1044 km long."
    with pytest.raises(ParseError) as err:
        mock_generator(behavior, rules=[LENGTH_RULE])("q?", "\n<broken\n" + unsorted)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "head",
    ["# retrieved\r\n\r\n", "# retrieved\r\r", "# retrieved\r\n\r", "\r\r\n\n"],
)
def test_echo_counts_lines_as_the_whole_text_readers_do(head):
    # The echo stops reading early; a malformed line is reported at the
    # number that content_lines over iter_lines gives it, as in every
    # reader of a whole text.
    behavior = MockBehavior(MockMode.ECHO_CONTEXT)
    context = head + "<broken\r\n" + CONTEXT
    (expected, line), *_ = content_lines(iter_lines(context))
    assert line == "<broken"
    with pytest.raises(ParseError) as err:
        mock_generator(behavior, rules=[LENGTH_RULE])("q?", context)
    assert err.value.line == expected


def test_echo_splits_a_line_only_at_a_line_end():
    behavior = MockBehavior(MockMode.ECHO_CONTEXT)
    for char in ("\u2028", "\x85", "\x0c"):
        context = f'<River_{char}Colorado> <length> "2334000.0" .\n'
        out = mock_generator(behavior, rules=[LENGTH_RULE])("q?", context)
        assert out == f"River {char}Colorado is 2334 km long."


def test_echo_renders_a_last_line_without_a_line_end():
    behavior = MockBehavior(MockMode.ECHO_CONTEXT)
    context = '<River_Colorado> <length> "2334000.0" .'
    out = mock_generator(behavior, rules=[LENGTH_RULE])("q?", context)
    assert out == "River Colorado is 2334 km long."


def test_echo_without_renderable_triple_falls_back():
    behavior = MockBehavior(MockMode.ECHO_CONTEXT)
    assert mock_generator(behavior, rules=[LENGTH_RULE])("q?", "") == NO_CLAIM_TEXT
    assert mock_generator(behavior, rules=[])("q?", CONTEXT) == NO_CLAIM_TEXT


def test_noisy_degenerate_probabilities():
    always_right = MockBehavior(MockMode.NOISY, p_correct=1.0, seed=3)
    always_wrong = MockBehavior(MockMode.NOISY, p_hallucinate=1.0, seed=3)
    key = "Colorado River is 2334 km long."
    for q in ("a?", "b?", "c?"):
        assert mock_generator(always_right, answer_key=key)(q, "") == key
        assert (
            mock_generator(always_wrong, answer_key=key)(q, "")
            == "Colorado River is 4668 km long."
        )


def test_noisy_requires_answer_key():
    with pytest.raises(ValueError, match="noisy mock requires an answer key"):
        mock_generator(MockBehavior(MockMode.NOISY, p_correct=1.0))


def test_noisy_replay_stability():
    behavior = MockBehavior(MockMode.NOISY, p_correct=0.4, p_hallucinate=0.4, seed=9)
    outs = [
        mock_generator(behavior, answer_key=f"It is {i} km.")(f"question {i}?", "")
        for i in range(50)
    ]
    again = [
        mock_generator(behavior, answer_key=f"It is {i} km.")(f"question {i}?", "")
        for i in range(50)
    ]
    assert outs == again
    assert len(set(outs)) > 1  # the stream actually varies across questions


def test_noisy_correct_fraction_near_half():
    # Law-of-large-numbers check against the seeded stream itself.
    behavior = MockBehavior(MockMode.NOISY, p_correct=0.5, p_hallucinate=0.5, seed=7)
    key = "The value is 10 km."
    hits = sum(
        mock_generator(behavior, answer_key=key)(f"q{i}?", "") == key
        for i in range(1000)
    )
    assert abs(hits / 1000 - 0.5) <= 0.05


def test_probability_validation():
    with pytest.raises(ValueError):
        MockBehavior(MockMode.NOISY, p_correct=0.7, p_hallucinate=0.5)
    with pytest.raises(ValueError):
        MockBehavior(MockMode.NOISY, p_correct=-0.1)


def test_corrupt_number_variants():
    assert corrupt_number("is 2334 km long") == "is 4668 km long"
    assert corrupt_number("rated 2.5 stars") == "rated 5 stars"
    # No number to corrupt: the variant must still be a detectable non-answer.
    corrupted = corrupt_number("Gila River has tributary Salt River.")
    assert corrupted != "Gila River has tributary Salt River."


def test_mock_generator_binding():
    gen = mock_generator(MockBehavior(MockMode.FIXED_ANSWER), answer_key="yes")
    assert gen("q?", "ctx") == "yes"


# --- http client ----------------------------------------------------------------
# Every case runs the real client against the loopback `endpoint` fixture.


def completion(text) -> bytes:
    return json.dumps({"choices": [{"message": {"content": text}}]}).encode()


def http_config(url: str, timeout: float = 5.0) -> GeneratorConfig:
    return GeneratorConfig(
        url, "test-model", api_key_env="TEST_API_KEY", timeout=timeout, max_retries=2
    )


@pytest.fixture
def config(monkeypatch, endpoint):
    monkeypatch.setenv("TEST_API_KEY", "sekrit")
    return http_config(endpoint.url)


def test_http_returns_completion_verbatim(config, endpoint):
    endpoint.replies = [(200, completion("A canned completion.  \n"))]
    out = HttpGenerator(config)("How long?", "ctx")
    assert out == "A canned completion."  # trailing whitespace only is trimmed
    ((path, headers, body),) = endpoint.requests
    assert path == "/v1/chat"
    assert headers["Authorization"] == "Bearer sekrit"
    assert headers["Content-Type"] == "application/json"
    payload = json.loads(body)
    assert payload["model"] == "test-model"
    assert payload["temperature"] == 0
    assert payload["messages"] == [
        {
            "role": "user",
            "content": PROMPT_TEMPLATE.format(context="ctx", question="How long?"),
        }
    ]


def test_http_retries_then_raises_upstream_error(config, endpoint):
    endpoint.replies = [(500, b"boom")]
    sleeps = []
    with pytest.raises(UpstreamError) as err:
        HttpGenerator(config, sleep=sleeps.append)("q?", "")
    assert (err.value.status, err.value.body) == (500, "boom")
    assert len(endpoint.requests) == 3  # initial call + 2 retries
    assert sleeps == [1.0, 2.0]  # exponential backoff, base 1s


def test_http_missing_key_fails_before_any_call(monkeypatch, endpoint):
    monkeypatch.delenv("TEST_API_KEY", raising=False)
    with pytest.raises(AuthError):
        HttpGenerator(http_config(endpoint.url))("q?", "")
    assert endpoint.requests == []


def test_http_key_unfit_for_a_header_fails_before_any_call(monkeypatch, endpoint):
    for key in ("sekrit\nX-Leak: 1", "sek\x1brit", "sekrit\r", "sekr\u20acit"):
        monkeypatch.setenv("TEST_API_KEY", key)
        with pytest.raises(AuthError) as err:
            HttpGenerator(http_config(endpoint.url))("q?", "")
        assert "sek" not in str(err.value)  # the key is not echoed
    assert endpoint.requests == []


def test_http_rejected_key_is_auth_error(config, endpoint):
    for status in (401, 403):
        endpoint.requests.clear()
        endpoint.replies = [(status, b"bad key")]
        sleeps = []
        with pytest.raises(AuthError, match=str(status)):
            HttpGenerator(config, sleep=sleeps.append)("q?", "")
        assert len(endpoint.requests) == 1 and sleeps == []  # no retry


def test_http_other_status_raises_at_once(config, endpoint):
    # No redirect is followed, so the key goes to no other URL: a 3xx is
    # its own status.
    for status in (404, 301, 302, 303, 307, 308):
        endpoint.requests.clear()
        endpoint.replies = [(status, b"no such model")]
        sleeps = []
        with pytest.raises(UpstreamError) as err:
            HttpGenerator(config, sleep=sleeps.append)("q?", "")
        assert err.value.status == status
        assert [path for path, _, _ in endpoint.requests] == ["/v1/chat"]
        assert sleeps == []


def test_http_timeout_after_retries(monkeypatch, endpoint):
    monkeypatch.setenv("TEST_API_KEY", "sekrit")
    endpoint.delay = 2.0
    sleeps = []
    with pytest.raises(RequestTimeout):
        HttpGenerator(http_config(endpoint.url, timeout=0.2), sleep=sleeps.append)(
            "q?", ""
        )
    assert len(endpoint.requests) == 3
    assert sleeps == [1.0, 2.0]


def test_http_connect_timeout_is_request_timeout(monkeypatch):
    # A listener that never accepts, its queue filled: on Linux the next
    # connect waits out the timeout, which urlopen wraps in a URLError.
    monkeypatch.setenv("TEST_API_KEY", "sekrit")
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(0)
        port = listener.getsockname()[1]
        queued = [socket.socket() for _ in range(3)]
        try:
            for sock in queued:
                sock.setblocking(False)
                sock.connect_ex(("127.0.0.1", port))
            config = http_config(f"http://127.0.0.1:{port}/v1", timeout=0.2)
            with pytest.raises(RequestTimeout):
                HttpGenerator(config, sleep=lambda _: None)("q?", "")
        finally:
            for sock in queued:
                sock.close()


def test_http_refused_connection_is_upstream_error(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "sekrit")
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    sleeps = []
    with pytest.raises(UpstreamError) as err:
        HttpGenerator(http_config(f"http://127.0.0.1:{port}/v1"), sleep=sleeps.append)(
            "q?", ""
        )
    assert err.value.status == 0
    assert sleeps == [1.0, 2.0]


def test_http_recovers_after_transient_failure(config, endpoint):
    endpoint.replies = [(503, b"busy"), (200, completion("ok"))]
    sleeps = []
    assert HttpGenerator(config, sleep=sleeps.append)("q?", "") == "ok"
    assert len(endpoint.requests) == 2 and sleeps == [1.0]


def test_http_malformed_payload_is_upstream_error(config, endpoint):
    bodies = [
        json.dumps({"nope": []}).encode(),
        completion(None),
        completion(["a", "b"]),
        b"not json",
        completion("café").decode().encode("utf-16"),
        b'{"choices": [{"message": {"content": "caf\xe9"}}]}',  # latin-1
    ]
    for body in bodies:
        endpoint.replies = [(200, body)]
        with pytest.raises(UpstreamError) as err:
            HttpGenerator(config)("q?", "")
        assert err.value.status == 200
        assert err.value.body.startswith("malformed completion payload: ")


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig("https://x.test", "m", timeout=0)
    with pytest.raises(ValueError):
        GeneratorConfig("https://x.test", "m", max_retries=6)
    # A socket cannot take a timeout past TIMEOUT_MAX; nan is no timeout.
    for timeout in (float("nan"), float("inf"), 1e300, -1.0):
        with pytest.raises(ValueError, match="timeout"):
            GeneratorConfig("https://x.test", "m", timeout=timeout)
    assert GeneratorConfig("https://x.test", "m", timeout=TIMEOUT_MAX)


def test_endpoint_must_be_http_with_a_host():
    # urlopen would read a file:// URL; a schemeless one is not a URL.
    rejected = [
        "file:///etc/hostname", "localhost:8080/v1", "ftp://x.test/v1", "http:///v1"
    ]
    for url in rejected:
        with pytest.raises(ValueError, match="endpoint"):
            GeneratorConfig(url, "m")
    for url in ("https://host/v1", "http://127.0.0.1:8080/v1/chat"):
        assert GeneratorConfig(url, "m").endpoint_url == url


def test_http_generator_is_callable(config, endpoint):
    # One generator serves every `eval --jobs` worker.
    endpoint.replies = [(200, completion("hello"))]
    gen = HttpGenerator(config)
    questions = [f"q{i}?" for i in range(8)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        assert list(pool.map(gen, questions, [""] * 8)) == ["hello"] * 8
    sent = sorted(
        json.loads(body)["messages"][0]["content"] for *_, body in endpoint.requests
    )
    assert sent == [PROMPT_TEMPLATE.format(context="", question=q) for q in questions]


def test_cli_runs_without_requests():
    """The package needs no third-party module: a mock `ask` runs with
    `requests` made unimportable."""
    rivers = FIXTURES / "rivers"
    script = (
        "import sys\n"
        "sys.modules['requests'] = None\n"
        "from factgate.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [
            sys.executable, "-c", script, "ask",
            "--graph", str(rivers / "graph.nt"),
            "--constraints", str(rivers / "constraints.txt"),
            "--rules", str(rivers / "rules.txt"),
            "--max-hops", "1",
            "How long is the Colorado River?",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "ANSWER"
