from __future__ import annotations

import time
from dataclasses import dataclass, field

import pytest
import requests

from prefbench.da_model import DAParams
from prefbench.errors import BackendError, ConfigError
from prefbench.harness.backends import (
    BackendConfig,
    HttpChatBackend,
    MockDecisionBackend,
    make_backend,
)
from prefbench.harness.prompts import ChatMessage, Treatment, TreatmentKind, build_prompt
from prefbench.data import ReturnPair
from prefbench.simulation import evaluation_schedule


class TestMockBackend:
    def test_reads_decision_budget_from_prompt(self):
        backend = MockDecisionBackend(DAParams(0.0, 1.0))
        messages = build_prompt(Treatment(TreatmentKind.DECISION), ReturnPair(0.5, 0.9))
        answer = backend.send(messages)
        assert answer == "I will invest 50.0 points to asset A and 50.0 points to asset B."

    def test_answers_every_table_row(self):
        backend = MockDecisionBackend(DAParams(0.3, 0.8))
        messages = build_prompt(Treatment(TreatmentKind.RECOMMENDATION), evaluation_schedule())
        answer = backend.send(messages)
        assert answer.count("I recommend investing") == 25

    def test_refuses_promptless_requests(self):
        backend = MockDecisionBackend(DAParams(0.0, 1.0))
        with pytest.raises(BackendError):
            backend.send([ChatMessage("user", "hello there")])


@dataclass
class FakeResponse:
    status_code: int
    payload: dict | None = None
    text: str = ""

    def json(self):
        if self.payload is None:
            raise ValueError("no body")
        return self.payload


@dataclass
class FakeSession:
    responses: list
    calls: list = field(default_factory=list)

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


def http_backend(monkeypatch, responses, **overrides) -> tuple[HttpChatBackend, FakeSession]:
    monkeypatch.setenv("CHAT_API_KEY", "sekret")
    monkeypatch.setattr("time.sleep", lambda s: None)
    config = BackendConfig(
        kind="http", endpoint="https://example.invalid/v1/chat", model="test-model",
        **overrides,
    )
    backend = HttpChatBackend(config)
    fake = FakeSession(list(responses))
    backend._session = fake
    return backend, fake


def ok_response(text="fine"):
    return FakeResponse(200, {"choices": [{"message": {"content": text}}]})


class TestHttpBackend:
    def test_requires_endpoint_model_and_key(self, monkeypatch):
        monkeypatch.delenv("CHAT_API_KEY", raising=False)
        with pytest.raises(ConfigError, match="endpoint"):
            HttpChatBackend(BackendConfig(kind="http", model="m"))
        with pytest.raises(ConfigError, match="model"):
            HttpChatBackend(BackendConfig(kind="http", endpoint="https://x"))
        with pytest.raises(ConfigError, match="CHAT_API_KEY"):
            HttpChatBackend(BackendConfig(kind="http", endpoint="https://x", model="m"))

    def test_payload_shape_and_auth_header(self, monkeypatch):
        backend, fake = http_backend(monkeypatch, [ok_response("hello")])
        answer = backend.send([ChatMessage("system", "s"), ChatMessage("user", "u")])
        assert answer == "hello"
        (call,) = fake.calls
        assert call["headers"]["Authorization"] == "Bearer sekret"
        assert call["json"]["model"] == "test-model"
        assert call["json"]["temperature"] == 0.5
        assert call["json"]["messages"] == [
            {"role": "system", "content": "s"},
            {"role": "user", "content": "u"},
        ]
        assert call["timeout"] == 120.0

    def test_retries_until_success(self, monkeypatch):
        backend, fake = http_backend(
            monkeypatch,
            [requests.ConnectionError("nope"), FakeResponse(500, text="oops"), ok_response("ok")],
        )
        assert backend.send([ChatMessage("user", "u")]) == "ok"
        assert len(fake.calls) == 3

    def test_gives_up_after_max_retries(self, monkeypatch):
        backend, fake = http_backend(
            monkeypatch, [FakeResponse(429, text="slow down")] * 5, max_retries=3
        )
        with pytest.raises(BackendError, match="3 attempts"):
            backend.send([ChatMessage("user", "u")])
        assert len(fake.calls) == 3

    def test_make_backend_dispatch(self, monkeypatch):
        assert isinstance(make_backend(BackendConfig(kind="mock")), MockDecisionBackend)
        with pytest.raises(ConfigError, match="unknown backend.kind"):
            make_backend(BackendConfig(kind="carrier-pigeon"))


@dataclass
class RecordedTransport:
    """Replays responses through a patched ``requests.Session.post``; records posts and sleeps."""

    monkeypatch: pytest.MonkeyPatch
    posts: list = field(default_factory=list)
    sleeps: list = field(default_factory=list)

    def backend(self, responses, **overrides) -> HttpChatBackend:
        queue = list(responses)

        def post(session, url, json=None, headers=None, timeout=None):
            self.posts.append(url)
            return queue.pop(0)

        self.monkeypatch.setattr(requests.Session, "post", post)
        self.monkeypatch.setattr(time, "sleep", self.sleeps.append)
        self.monkeypatch.setenv("CHAT_API_KEY", "sekret")
        return HttpChatBackend(BackendConfig(
            kind="http", endpoint="https://example.invalid/v1/chat", model="test-model",
            **overrides,
        ))


@pytest.fixture
def transport(monkeypatch) -> RecordedTransport:
    return RecordedTransport(monkeypatch)


class TestRetryPolicy:
    def test_no_sleep_after_the_final_attempt(self, transport):
        backend = transport.backend([FakeResponse(500, text="down")] * 5, max_retries=5)
        with pytest.raises(BackendError, match="5 attempts"):
            backend.send([ChatMessage("user", "u")])
        assert len(transport.posts) == 5
        assert transport.sleeps == [1.0, 2.0, 4.0, 8.0]

    def test_rate_limited_first_attempt_waits_one_second(self, transport):
        backend = transport.backend([FakeResponse(429, text="slow down"), ok_response("ok")])
        assert backend.send([ChatMessage("user", "u")]) == "ok"
        assert transport.sleeps == [1.0]

    def test_timeout_and_rate_limit_statuses_are_retried(self, transport):
        backend = transport.backend(
            [FakeResponse(408), FakeResponse(429), FakeResponse(503), ok_response("ok")]
        )
        assert backend.send([ChatMessage("user", "u")]) == "ok"
        assert transport.sleeps == [1.0, 2.0, 4.0]

    @pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
    def test_other_client_errors_fail_at_once(self, transport, status):
        backend = transport.backend([FakeResponse(status, text="bad request"), ok_response()])
        with pytest.raises(BackendError, match=f"HTTP {status}: bad request"):
            backend.send([ChatMessage("user", "u")])
        assert len(transport.posts) == 1
        assert transport.sleeps == []

    def test_backoff_is_capped_at_thirty_seconds(self, transport):
        backend = transport.backend([FakeResponse(500)] * 8, max_retries=8)
        with pytest.raises(BackendError):
            backend.send([ChatMessage("user", "u")])
        assert transport.sleeps == [1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0]
