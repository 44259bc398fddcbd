from __future__ import annotations

from decimal import Decimal

import pytest

from factgate.extraction import PredicateRule
from factgate.generators import (
    AuthError,
    GeneratorConfig,
    HttpGenerator,
    MissingAnswerKey,
    MockBehavior,
    MockMode,
    NO_CLAIM_TEXT,
    RequestTimeout,
    UpstreamError,
    corrupt_number,
    generate_mock,
    mock_generator,
)
from factgate.kg import Iri, ParseError

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
    out = generate_mock(behavior, "q?", "", answer_key="The answer is 42.")
    assert out == "The answer is 42."


def test_fixed_answer_requires_key():
    with pytest.raises(MissingAnswerKey):
        generate_mock(MockBehavior(MockMode.FIXED_ANSWER), "q?", "")


def test_echo_verbalizes_first_renderable_triple():
    behavior = MockBehavior(MockMode.ECHO_CONTEXT)
    out = generate_mock(behavior, "q?", CONTEXT, rules=[LENGTH_RULE])
    assert out == "River Colorado is 2334 km long."


def test_echo_takes_first_renderable_line_in_text_order():
    behavior = MockBehavior(MockMode.ECHO_CONTEXT)
    unsorted = (
        "<River_Gila> <traverses> <State_Arizona> .\n"
        '<River_Gila> <length> "1044000" .\n'
        '<River_Colorado> <length> "2334000.0" .\n'
        "<this line is never read\n"
    )
    out = generate_mock(behavior, "q?", unsorted, rules=[LENGTH_RULE])
    assert out == "River Gila is 1044 km long."
    with pytest.raises(ParseError) as err:
        generate_mock(behavior, "q?", "\n<broken\n" + unsorted, rules=[LENGTH_RULE])
    assert err.value.line_number == 2


def test_echo_without_renderable_triple_falls_back():
    behavior = MockBehavior(MockMode.ECHO_CONTEXT)
    assert generate_mock(behavior, "q?", "", rules=[LENGTH_RULE]) == NO_CLAIM_TEXT
    assert generate_mock(behavior, "q?", CONTEXT, rules=[]) == NO_CLAIM_TEXT


def test_noisy_degenerate_probabilities():
    always_right = MockBehavior(MockMode.NOISY, p_correct=1.0, seed=3)
    always_wrong = MockBehavior(MockMode.NOISY, p_hallucinate=1.0, seed=3)
    key = "Colorado River is 2334 km long."
    for q in ("a?", "b?", "c?"):
        assert generate_mock(always_right, q, "", answer_key=key) == key
        assert (
            generate_mock(always_wrong, q, "", answer_key=key)
            == "Colorado River is 4668 km long."
        )


def test_noisy_requires_answer_key():
    with pytest.raises(MissingAnswerKey):
        generate_mock(MockBehavior(MockMode.NOISY, p_correct=1.0), "q?", "")


def test_noisy_replay_stability():
    behavior = MockBehavior(MockMode.NOISY, p_correct=0.4, p_hallucinate=0.4, seed=9)
    outs = [
        generate_mock(behavior, f"question {i}?", "", answer_key=f"It is {i} km.")
        for i in range(50)
    ]
    again = [
        generate_mock(behavior, f"question {i}?", "", answer_key=f"It is {i} km.")
        for i in range(50)
    ]
    assert outs == again
    assert len(set(outs)) > 1  # the stream actually varies across questions


def test_noisy_correct_fraction_near_half():
    # Law-of-large-numbers check against the seeded stream itself.
    behavior = MockBehavior(MockMode.NOISY, p_correct=0.5, p_hallucinate=0.5, seed=7)
    key = "The value is 10 km."
    hits = sum(
        generate_mock(behavior, f"q{i}?", "", answer_key=key) == key
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


class StubResponse:
    def __init__(self, status_code=200, text="", payload=None):
        self.status_code = status_code
        self.text = text
        self._payload = payload

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


def completion(text: str) -> StubResponse:
    return StubResponse(payload={"choices": [{"message": {"content": text}}]})


@pytest.fixture
def config(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "sekrit")
    return GeneratorConfig(
        "https://example.test/v1/chat", "test-model", api_key_env="TEST_API_KEY",
        timeout=5.0, max_retries=2,
    )


def test_http_returns_completion_verbatim(config):
    calls = []

    def transport(url, json, headers, timeout):
        calls.append((url, json, headers, timeout))
        return completion("A canned completion.  \n")

    out = HttpGenerator(config, transport=transport).generate("How long?", "ctx")
    assert out == "A canned completion."  # trailing whitespace only is trimmed
    (url, payload, headers, timeout) = calls[0]
    assert url == config.endpoint_url
    assert payload["model"] == "test-model"
    assert payload["temperature"] == 0
    assert "QUESTION:\nHow long?" in payload["messages"][0]["content"]
    assert headers["Authorization"] == "Bearer sekrit"


def test_http_retries_then_raises_upstream_error(config):
    attempts = []
    sleeps = []

    def transport(url, **kwargs):
        attempts.append(url)
        return StubResponse(status_code=500, text="boom")

    with pytest.raises(UpstreamError) as err:
        HttpGenerator(config, transport=transport, sleep=sleeps.append).generate(
            "q?", ""
        )
    assert err.value.status == 500
    assert len(attempts) == 3  # initial call + 2 retries
    assert sleeps == [1.0, 2.0]  # exponential backoff, base 1s


def test_http_missing_key_fails_before_any_call(monkeypatch):
    monkeypatch.delenv("NOPE_KEY", raising=False)
    config = GeneratorConfig("https://x.test", "m", api_key_env="NOPE_KEY")
    called = []

    def transport(url, **kwargs):  # pragma: no cover - must not be reached
        called.append(url)
        return completion("hi")

    with pytest.raises(AuthError):
        HttpGenerator(config, transport=transport).generate("q?", "")
    assert called == []


def test_http_rejected_key_is_auth_error(config):
    def transport(url, **kwargs):
        return StubResponse(status_code=401, text="bad key")

    with pytest.raises(AuthError):
        HttpGenerator(config, transport=transport).generate("q?", "")


def test_http_timeout_after_retries(config):
    import requests

    def transport(url, **kwargs):
        raise requests.Timeout()

    with pytest.raises(RequestTimeout):
        HttpGenerator(config, transport=transport, sleep=lambda _: None).generate(
            "q?", ""
        )


def test_http_recovers_after_transient_failure(config):
    responses = [StubResponse(status_code=503, text="busy"), completion("ok")]

    def transport(url, **kwargs):
        return responses.pop(0)

    gen = HttpGenerator(config, transport=transport, sleep=lambda _: None)
    out = gen.generate("q?", "")
    assert out == "ok"


def test_http_malformed_payload_is_upstream_error(config):
    payloads = [
        {"nope": []},
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": ["a", "b"]}}]},
    ]
    for payload in payloads:

        def transport(url, **kwargs):
            return StubResponse(status_code=200, payload=payload)

        with pytest.raises(UpstreamError):
            HttpGenerator(config, transport=transport).generate("q?", "")


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig("https://x.test", "m", timeout=0)
    with pytest.raises(ValueError):
        GeneratorConfig("https://x.test", "m", max_retries=6)


def test_http_generator_is_callable(config):
    gen = HttpGenerator(config, transport=lambda url, **kw: completion("hello"))
    assert gen("q?", "ctx") == "hello"
