"""Chat backends: the deterministic utility-maximizing mock and a generic
chat-completions HTTP client.

The mock reads budgets back out of the prompt text, solves for the optimal
allocation under its fixed preference parameters, and answers in the
documented sentence formats.  It is the backend used by every CI test; the
HTTP client exists for live runs only.
"""

from __future__ import annotations

import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from ..da_model import DAParams, optimal_demand_grid
from ..data import demand_to_tokens, returns_to_prices
from ..errors import BackendError, ConfigError
from .prompts import ChatMessage

API_KEY_ENV = "CHAT_API_KEY"

_DECISION_RETURNS = re.compile(
    r"asset A returns\s+(\d+(?:\.\d+)?)\s+dollars.*?asset B returns\s+(\d+(?:\.\d+)?)\s+dollars",
    re.DOTALL,
)
_TABLE_ROW = re.compile(r"^(\d+)\t([0-9.]+)\t([0-9.]+)$", re.MULTILINE)


class ChatBackend(Protocol):
    def send(self, messages: Sequence[ChatMessage]) -> str: ...


@dataclass
class MockDecisionBackend:
    """Answers every prompt with the exact optimum for fixed (beta, rho)."""

    params: DAParams

    def _tokens(self, returns: Sequence[tuple[str, str]]) -> list[list[float]]:
        """The optimal (t_a, t_b) at each pair of returns in the prompt, from one demand call."""
        returns = np.array([[float(r_a), float(r_b)] for r_a, r_b in returns])
        demand = optimal_demand_grid(
            returns_to_prices(returns), np.array([self.params.beta]), np.array([self.params.rho]))
        return demand_to_tokens(returns, demand[0]).tolist()

    def send(self, messages: Sequence[ChatMessage]) -> str:
        user_text = next((m.content for m in reversed(messages) if m.role == "user"), "")
        rows = _TABLE_ROW.findall(user_text)
        if rows:
            return " ".join(
                f"In round {idx}, I recommend investing {_points(t_a)} points in "
                f"asset A and {_points(t_b)} points in asset B."
                for (idx, _, _), (t_a, t_b) in zip(rows, self._tokens([row[1:] for row in rows]))
            )
        match = _DECISION_RETURNS.search(user_text)
        if not match:
            raise BackendError("mock backend found no budget in the prompt")
        ((t_a, t_b),) = self._tokens([match.groups()])
        return (
            f"I will invest {_points(t_a)} points to asset A and "
            f"{_points(t_b)} points to asset B."
        )


def _points(tokens: float) -> str:
    """Shortest round-tripping decimal, never in exponent notation.

    The parser would read ``3.3e-07`` as 7.  From 1e-4 to 100 this is
    ``repr``'s text.
    """
    return np.format_float_positional(tokens, unique=True, trim="0")


@dataclass
class BackendConfig:
    kind: str = "mock"
    endpoint: str = ""
    model: str = ""
    temperature: float = 0.5
    max_retries: int = 5
    timeout: float = 120.0
    rate_per_min: int = 60
    concurrency: int = 4
    mock_beta: float = 0.0
    mock_rho: float = 1.0


_RETRY_AFTER_STATUSES = (408, 429, 503)
_MAX_WAIT_S = 30.0


def _retry_after(response) -> float | None:
    """The delay-seconds of a 408/429/503 response's ``Retry-After``, else None.

    The HTTP-date form and unparseable values give None.
    """
    if response.status_code not in _RETRY_AFTER_STATUSES:
        return None
    value = response.headers.get("Retry-After", "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


class HttpChatBackend:
    """Generic chat-completions client with backoff, rate cap, and concurrency cap.

    A failed attempt is retried after 1, 2, 4, ... seconds (at most 30), up
    to ``max_retries`` attempts in all; a 408, 429 or 503 response whose
    ``Retry-After`` gives delay-seconds sets the wait instead (also at most
    30).  Client errors other than 408 and 429 fail at once.

    Sends ``{"model", "messages", "temperature"}`` and expects the reply text
    at ``choices[0].message.content``.  The bearer token comes from the
    ``CHAT_API_KEY`` environment variable.
    """

    def __init__(self, config: BackendConfig):
        if not config.endpoint:
            raise ConfigError("http backend requires backend.endpoint")
        if not config.model:
            raise ConfigError("http backend requires backend.model")
        token = os.environ.get(API_KEY_ENV, "")
        if not token:
            raise ConfigError(f"http backend requires the {API_KEY_ENV} environment variable")
        # imported here, not at module level: requests and urllib3 add about
        # 0.13 s to the start of every command, and only live runs use them
        import requests

        self._config = config
        self._token = token
        self._session = requests.Session()
        # a connection per concurrent request; urllib3 keeps only 10 per host by default
        adapter = requests.adapters.HTTPAdapter(pool_maxsize=config.concurrency)
        self._session.mount("https://", adapter)
        self._session.mount("http://", adapter)
        self._lock = threading.Lock()
        self._sent: deque[float] = deque()
        self._slots = threading.Semaphore(max(1, config.concurrency))

    def _respect_rate_limit(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                while self._sent and now - self._sent[0] > 60.0:
                    self._sent.popleft()
                if len(self._sent) < self._config.rate_per_min:
                    self._sent.append(now)
                    return
                wait = 60.0 - (now - self._sent[0])
            time.sleep(max(wait, 0.05))

    def send(self, messages: Sequence[ChatMessage]) -> str:
        import requests

        payload = {
            "model": self._config.model,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "temperature": self._config.temperature,
        }
        last_error: Exception | None = None
        with self._slots:
            for attempt in range(self._config.max_retries):
                if attempt:
                    time.sleep(wait)
                wait = min(2.0 ** attempt, _MAX_WAIT_S)
                self._respect_rate_limit()
                try:
                    response = self._session.post(
                        self._config.endpoint,
                        json=payload,
                        headers={"Authorization": f"Bearer {self._token}"},
                        timeout=self._config.timeout,
                    )
                    if response.status_code == 200:
                        body = response.json()
                        return body["choices"][0]["message"]["content"]
                    last_error = BackendError(
                        f"HTTP {response.status_code}: {response.text[:200]}"
                    )
                    if 400 <= response.status_code < 500 and response.status_code not in (408, 429):
                        raise last_error  # a repeated request cannot fix it
                    retry_after = _retry_after(response)
                    if retry_after is not None:
                        wait = min(retry_after, _MAX_WAIT_S)
                except (requests.RequestException, KeyError, IndexError, ValueError) as exc:
                    last_error = exc
        raise BackendError(
            f"request failed after {self._config.max_retries} attempts: {last_error}"
        )


def make_backend(config: BackendConfig) -> ChatBackend:
    if config.kind == "mock":
        return MockDecisionBackend(DAParams(config.mock_beta, config.mock_rho))
    if config.kind == "http":
        return HttpChatBackend(config)
    raise ConfigError(f"unknown backend.kind {config.kind!r}")
