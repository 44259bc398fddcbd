"""Text generators: an HTTP chat-completion client and deterministic mocks.

The rest of the pipeline only needs a callable `(question, context) -> text`.
The HTTP client talks to an OpenAI-style JSON endpoint with retries and
backoff; the mocks replay deterministic behavior from a seed so pipeline
experiments are exactly reproducible.
"""

from __future__ import annotations

import json
import os
import random
import time
from _thread import TIMEOUT_MAX
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from http.client import HTTPException
from typing import Callable, Sequence
from urllib.error import HTTPError, URLError
from urllib.parse import urlsplit
from urllib.request import HTTPRedirectHandler, Request, build_opener

from .extraction import (
    NUMBER_TOKEN_RE,
    PredicateRule,
    rule_for_triple,
    verbalize_triple,
)
from .kg import (
    EXACT,
    ParseError,
    content_lines,
    decimal_lexical,
    iter_lines,
    parse_ntriples_line,
)

GeneratorFn = Callable[[str, str], str]

PROMPT_TEMPLATE = "CONTEXT:\n{context}\n\nQUESTION:\n{question}"

NO_CLAIM_TEXT = "I have nothing specific to report on that."


class GeneratorError(Exception):
    """Base class for generator failures (distinct from abstention)."""


class AuthError(GeneratorError):
    """API key missing from the environment or rejected upstream."""


class RequestTimeout(GeneratorError):
    """The endpoint did not answer within the configured timeout."""


class UpstreamError(GeneratorError):
    def __init__(self, status: int, body: str):
        super().__init__(f"upstream returned {status}: {body[:200]}")
        self.status = status
        self.body = body


@dataclass(frozen=True)
class GeneratorConfig:
    endpoint_url: str
    model_name: str = ""
    api_key_env: str = "FACTGATE_API_KEY"
    timeout: float = 30.0
    max_retries: int = 2

    def __post_init__(self) -> None:
        url = urlsplit(self.endpoint_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint must be an http(s) URL: {self.endpoint_url!r}")
        # A socket timeout past TIMEOUT_MAX overflows; nan fails the test too.
        if not 0 < self.timeout <= TIMEOUT_MAX:
            raise ValueError(f"timeout {self.timeout} is not in (0, {TIMEOUT_MAX:g}] s")
        if not 0 <= self.max_retries <= 5:
            raise ValueError("max_retries must be between 0 and 5")


class MockMode(str, Enum):
    ECHO_CONTEXT = "echo"
    FIXED_ANSWER = "fixed"
    NOISY = "noisy"


@dataclass(frozen=True)
class MockBehavior:
    mode: MockMode = MockMode.ECHO_CONTEXT
    p_correct: float = 0.0
    p_hallucinate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", MockMode(self.mode))
        for name in ("p_correct", "p_hallucinate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.p_correct + self.p_hallucinate > 1.0:
            raise ValueError("p_correct + p_hallucinate must not exceed 1")


_NO_NUMBER_CORRUPTION = "The records are unclear on that point."


def corrupt_number(text: str) -> str:
    """Double the first numeric token.

    Guarantees a detectably non-entailed variant of any numeric claim
    (x != 2x for x != 0). An answer without a numeric token corrupts to an
    unverifiable filler sentence instead, so it can never come back as a
    licensed claim.
    """
    m = NUMBER_TOKEN_RE.search(text)
    if m is None:
        return _NO_NUMBER_CORRUPTION
    doubled = decimal_lexical(EXACT.normalize(EXACT.multiply(Decimal(m.group(0)), 2)))
    return text[: m.start()] + doubled + text[m.end() :]


def _echo_context(context: str, rules: Sequence[PredicateRule]) -> str:
    for number, line in content_lines(iter_lines(context)):
        try:
            triple = parse_ntriples_line(line)
        except ValueError as exc:
            raise ParseError(number, str(exc)) from exc
        rule = rule_for_triple(triple, rules)
        if rule is not None:
            return verbalize_triple(triple, rule)
    return NO_CLAIM_TEXT


def mock_generator(
    behavior: MockBehavior,
    answer_key: str | None = None,
    rules: Sequence[PredicateRule] = (),
) -> GeneratorFn:
    """Bind a MockBehavior into the pipeline's generator signature.

    Generation is deterministic. ECHO_CONTEXT verbalizes the first context
    line, in text order, that any rule can render; the context is read
    through iter_lines, one small chunk of lines at a time, so lines past
    that one's chunk are neither split nor parsed, and a malformed line
    before it raises ParseError at its line number.
    FIXED_ANSWER returns the answer key verbatim. NOISY draws from a stream
    keyed by (seed, question): the answer key with p_correct, a corrupted
    number variant with p_hallucinate, otherwise "I don't know". Binding
    either of the two without an answer key raises ValueError.
    """
    if behavior.mode is not MockMode.ECHO_CONTEXT and answer_key is None:
        raise ValueError(f"the {behavior.mode.value} mock requires an answer key")

    def generate(question: str, context: str) -> str:
        if behavior.mode is MockMode.ECHO_CONTEXT:
            return _echo_context(context, rules)
        if behavior.mode is MockMode.FIXED_ANSWER:
            return answer_key
        draw = random.Random(f"{behavior.seed}\x00{question}").random()
        if draw < behavior.p_correct:
            return answer_key
        if draw < behavior.p_correct + behavior.p_hallucinate:
            return corrupt_number(answer_key)
        return "I don't know"

    return generate


class _NoRedirect(HTTPRedirectHandler):
    def redirect_request(self, *args: object) -> None:
        return None  # a 3xx is an HTTPError: the key goes to no other URL


class HttpGenerator:
    """Chat-completion client with retries and backoff.

    A call makes one request at a time, so the requests in flight are the
    callers' threads (`eval --jobs`). `sleep` is injectable for tests.
    """

    def __init__(
        self, config: GeneratorConfig, sleep: Callable[[float], None] = time.sleep
    ):
        self.config = config
        self._sleep = sleep
        self._open = build_opener(_NoRedirect).open

    def __call__(self, question: str, context: str) -> str:
        key = os.environ.get(self.config.api_key_env, "")
        if not key:
            raise AuthError(
                f"environment variable {self.config.api_key_env} is not set"
            )
        if not (key.isascii() and key.isprintable()):  # the error must not echo it
            raise AuthError(
                f"{self.config.api_key_env} holds a character not allowed in a header"
            )
        prompt = PROMPT_TEMPLATE.format(context=context, question=question)
        payload = {
            "model": self.config.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0,
        }
        headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}
        data = json.dumps(payload).encode()
        request = Request(self.config.endpoint_url, data, headers)
        last_error: GeneratorError | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                self._sleep(1.0 * 2 ** (attempt - 1))
            try:
                try:
                    response = self._open(request, timeout=self.config.timeout)
                except HTTPError as exc:  # an error status is a response too
                    response = exc
                with response:
                    status, body = response.status, response.read()
            except (OSError, HTTPException) as exc:
                reason = exc.reason if isinstance(exc, URLError) else exc
                if isinstance(reason, TimeoutError):
                    last_error = RequestTimeout(
                        f"no response within {self.config.timeout}s"
                    )
                else:
                    last_error = UpstreamError(0, str(exc))
                continue
            if status in (401, 403):
                raise AuthError(f"endpoint rejected the key ({status})")
            if status >= 500:
                last_error = UpstreamError(status, body.decode(errors="replace"))
                continue
            if status != 200:
                raise UpstreamError(status, body.decode(errors="replace"))
            try:
                text = json.loads(body.decode())["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise TypeError(f"content is {type(text).__name__}")
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise UpstreamError(
                    status, f"malformed completion payload: {exc}"
                ) from exc
            return text.rstrip()
        assert last_error is not None
        raise last_error
