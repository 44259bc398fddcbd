"""Text generators: an HTTP chat-completion client and deterministic mocks.

The rest of the pipeline only needs a callable `(question, context) -> text`.
The HTTP client talks to an OpenAI-style JSON endpoint with retries and
backoff; the mocks replay deterministic behavior from a seed so pipeline
experiments are exactly reproducible.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from typing import Callable, Sequence

import requests

from .extraction import (
    NUMBER_TOKEN_RE,
    PredicateRule,
    rule_for_triple,
    verbalize_triple,
)
from .kg import decimal_lexical, iter_ntriples

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


class MissingAnswerKey(GeneratorError):
    """NOISY and FIXED_ANSWER mocks need a gold answer sentence."""


@dataclass(frozen=True)
class GeneratorConfig:
    endpoint_url: str
    model_name: str
    api_key_env: str = "FACTGATE_API_KEY"
    timeout: float = 30.0
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if not 0 <= self.max_retries <= 5:
            raise ValueError("max_retries must be between 0 and 5")


class MockMode(str, Enum):
    ECHO_CONTEXT = "echo"
    FIXED_ANSWER = "fixed"
    NOISY = "noisy"


@dataclass(frozen=True)
class MockBehavior:
    mode: MockMode
    p_correct: float = 0.0
    p_hallucinate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
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
    doubled = decimal_lexical((Decimal(m.group(0)) * 2).normalize())
    return text[: m.start()] + doubled + text[m.end() :]


def _echo_context(context: str, rules: Sequence[PredicateRule]) -> str:
    for triple in iter_ntriples(context):
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
    line, in text order, that any rule can render; lines after it are not
    parsed, and a malformed line before it raises ParseError.
    FIXED_ANSWER returns the answer key verbatim. NOISY draws from a stream
    keyed by (seed, question): the answer key with p_correct, a corrupted
    number variant with p_hallucinate, otherwise "I don't know".
    """

    def generate(question: str, context: str) -> str:
        if behavior.mode is MockMode.ECHO_CONTEXT:
            return _echo_context(context, rules)
        if answer_key is None:
            raise MissingAnswerKey(
                f"{behavior.mode.value} mock requires an answer key"
            )
        if behavior.mode is MockMode.FIXED_ANSWER:
            return answer_key
        draw = random.Random(f"{behavior.seed}\x00{question}").random()
        if draw < behavior.p_correct:
            return answer_key
        if draw < behavior.p_correct + behavior.p_hallucinate:
            return corrupt_number(answer_key)
        return "I don't know"

    return generate


class HttpGenerator:
    """Chat-completion client with retries, backoff, and an in-flight cap.

    `transport` and `sleep` are injectable for tests; the defaults are
    requests.post and time.sleep.
    """

    def __init__(
        self,
        config: GeneratorConfig,
        max_inflight: int = 4,
        transport: Callable[..., "requests.Response"] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.config = config
        self._transport = transport or requests.post
        self._sleep = sleep
        self._gate = threading.Semaphore(max_inflight)

    def __call__(self, question: str, context: str) -> str:
        key = os.environ.get(self.config.api_key_env, "")
        if not key:
            raise AuthError(
                f"environment variable {self.config.api_key_env} is not set"
            )
        payload = {
            "model": self.config.model_name,
            "messages": [
                {
                    "role": "user",
                    "content": PROMPT_TEMPLATE.format(
                        context=context, question=question
                    ),
                }
            ],
            "temperature": 0,
        }
        headers = {"Authorization": f"Bearer {key}"}
        last_error: GeneratorError | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                self._sleep(1.0 * 2 ** (attempt - 1))
            try:
                with self._gate:
                    response = self._transport(
                        self.config.endpoint_url,
                        json=payload,
                        headers=headers,
                        timeout=self.config.timeout,
                    )
            except requests.Timeout:
                last_error = RequestTimeout(
                    f"no response within {self.config.timeout}s"
                )
                continue
            except requests.RequestException as exc:
                last_error = UpstreamError(0, str(exc))
                continue
            if response.status_code in (401, 403):
                raise AuthError(f"endpoint rejected the key ({response.status_code})")
            if response.status_code >= 500:
                last_error = UpstreamError(response.status_code, response.text)
                continue
            if response.status_code != 200:
                raise UpstreamError(response.status_code, response.text)
            try:
                text = response.json()["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise TypeError(f"content is {type(text).__name__}")
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise UpstreamError(
                    response.status_code, f"malformed completion payload: {exc}"
                ) from exc
            return text.rstrip()
        assert last_error is not None
        raise last_error

