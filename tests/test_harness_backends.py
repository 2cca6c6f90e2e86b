from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
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
from prefbench.harness.parsing import parse_allocations
from prefbench.harness.prompts import ChatMessage, Treatment, TreatmentKind, build_prompt
from prefbench.data import ReturnPair
from prefbench.simulation import evaluation_schedule, generate_budgets, simulate_subject


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

    # elation seekers of very low rho choose tokens below 1e-4 in some rounds, which
    # the mock must not write in exponent notation ("3.3e-07" parses as 7)
    @pytest.mark.parametrize("params", [DAParams(-0.5, 0.4), DAParams(-0.3, 0.7),
                                        DAParams(0.0, 1.0), DAParams(0.0, 2.5),
                                        DAParams(0.3, 0.8), DAParams(2.0, 0.3),
                                        DAParams(-0.9, 0.05), DAParams(-0.9, 0.2),
                                        DAParams(-0.5, 0.1)])
    def test_answers_are_the_simulated_choices(self, params):
        # the mock solves one budget at a time, the simulator all 25 rounds at once: the
        # parsed answers must be the simulated tokens bit for bit, corners included
        backend = MockDecisionBackend(params)
        schedule = evaluation_schedule()
        want = simulate_subject(params, schedule).dataset.rounds
        for returns, round_ in zip(schedule.rounds, want):
            answer = backend.send(build_prompt(Treatment(TreatmentKind.DECISION), returns))
            (parsed,) = parse_allocations(answer)
            assert parsed.ok
            assert (parsed.t_a, parsed.t_b) == (round_.tokens.t_a, round_.tokens.t_b)

    @pytest.mark.parametrize("seed", range(8))
    def test_table_answer_is_the_per_row_answers(self, seed):
        # one demand call for the 25-row table gives the bits of 25 one-row calls
        rng = np.random.default_rng(seed)
        params = DAParams(rng.uniform(-0.9, 2.0), rng.uniform(0.05, 2.5))
        schedule = evaluation_schedule() if seed == 0 else generate_budgets(seed, 25)
        backend = MockDecisionBackend(params)
        table = backend.send(build_prompt(Treatment(TreatmentKind.RECOMMENDATION), schedule))
        rows = []
        for idx, returns in enumerate(schedule.rounds, start=1):
            answer = backend.send(build_prompt(Treatment(TreatmentKind.DECISION), returns))
            points = answer.removeprefix("I will invest ").removesuffix(" points to asset B.")
            t_a, t_b = points.split(" points to asset A and ")
            rows.append(f"In round {idx}, I recommend investing {t_a} points in "
                        f"asset A and {t_b} points in asset B.")
        assert table == " ".join(rows)

    def test_refuses_promptless_requests(self):
        backend = MockDecisionBackend(DAParams(0.0, 1.0))
        with pytest.raises(BackendError):
            backend.send([ChatMessage("user", "hello there")])


@dataclass
class FakeResponse:
    status_code: int
    payload: dict | None = None
    text: str = ""
    headers: dict = field(default_factory=dict)

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

    def test_connection_pool_holds_every_concurrent_request(self, monkeypatch):
        monkeypatch.setenv("CHAT_API_KEY", "sekret")
        backend = HttpChatBackend(BackendConfig(
            kind="http", endpoint="https://example.invalid/v1/chat", model="m", concurrency=16))
        for url in ("https://example.invalid/v1/chat", "http://localhost:8000/v1"):
            pool = backend._session.get_adapter(url).poolmanager
            assert pool.connection_pool_kw["maxsize"] >= 16

    def test_concurrent_sends_keep_the_cap_and_log_every_request(self, monkeypatch):
        lock = threading.Lock()
        in_flight, peak = 0, 0

        def post(session, url, json=None, headers=None, timeout=None):
            nonlocal in_flight, peak
            with lock:
                in_flight += 1
                peak = max(peak, in_flight)
            time.sleep(0.001)
            with lock:
                in_flight -= 1
            return ok_response(json["messages"][-1]["content"])

        monkeypatch.setattr(requests.Session, "post", post)
        monkeypatch.setenv("CHAT_API_KEY", "sekret")
        backend = HttpChatBackend(BackendConfig(
            kind="http", endpoint="https://example.invalid/v1/chat", model="m", concurrency=3,
            rate_per_min=1_000_000))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                answers = list(pool.map(
                    lambda i: backend.send([ChatMessage("user", str(i))]), range(200)))
        finally:
            sys.setswitchinterval(interval)
        assert answers == [str(i) for i in range(200)]
        assert peak == 3
        assert len(backend._sent) == 200  # the rate limiter lost no update

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

    @pytest.mark.parametrize("status,value,wait", [
        (429, "7", 7.0), (503, " 2 ", 2.0), (408, "0", 0.0), (429, "120", 30.0),
    ])
    def test_retry_after_delay_seconds_set_the_wait(self, transport, status, value, wait):
        backend = transport.backend([FakeResponse(status, headers={"Retry-After": value}),
                                     ok_response("ok")])
        assert backend.send([ChatMessage("user", "u")]) == "ok"
        assert transport.sleeps == [wait]

    @pytest.mark.parametrize("value", [
        "Wed, 21 Oct 2015 07:28:00 GMT", "1.5", "-3", "soon", "", "\u00b2",
    ])
    def test_other_retry_after_values_keep_the_backoff(self, transport, value):
        backend = transport.backend([FakeResponse(429, headers={"Retry-After": value}),
                                     ok_response("ok")])
        assert backend.send([ChatMessage("user", "u")]) == "ok"
        assert transport.sleeps == [1.0]

    def test_retry_after_counts_only_on_its_own_statuses(self, transport):
        backend = transport.backend([
            FakeResponse(429, headers={"Retry-After": "5"}),
            FakeResponse(500, headers={"Retry-After": "5"}),
            FakeResponse(429),
            ok_response("ok"),
        ])
        assert backend.send([ChatMessage("user", "u")]) == "ok"
        assert transport.sleeps == [5.0, 2.0, 4.0]

    def test_backoff_is_capped_at_thirty_seconds(self, transport):
        backend = transport.backend([FakeResponse(500)] * 8, max_retries=8)
        with pytest.raises(BackendError):
            backend.send([ChatMessage("user", "u")])
        assert transport.sleeps == [1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0]
