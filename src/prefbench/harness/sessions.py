"""Session runners, transcripts, and transcript persistence.

Decision sessions are cumulative: request k carries the k-1 previous answers
as extra assistant messages, so the conversation mirrors a sequential
experiment.  Recommendation sessions are a single stateless request carrying
the full return table.  A round whose decision answer cannot be used is
re-asked once with a terse reminder, then flagged; flagged rounds never get
imputed allocations.

Transcripts persist as JSON Lines, one object per request/response with
ISO-8601 timestamps, and can be reloaded for resumption or re-analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from ..data import Allocation, ChoiceRound, Provenance, SubjectDataset
from ..errors import BackendError, SessionError, ValidationError
from ..simulation import BudgetSchedule
from .backends import ChatBackend
from .parsing import ParsedAllocation, parse_allocations
from .prompts import (
    ChatMessage,
    RETRY_REMINDER,
    Treatment,
    TreatmentKind,
    build_prompt,
)

SESSION_ROUNDS = 25

_PROVENANCE = {
    TreatmentKind.DECISION: Provenance.LLM_DECISION,
    TreatmentKind.RECOMMENDATION: Provenance.LLM_RECOMMENDATION,
    TreatmentKind.PERSONALIZED_RECOMMENDATION: Provenance.LLM_PERSONALIZED,
}


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class RequestRecord:
    round: int | None  # None for the single recommendation request
    attempt: int
    messages: tuple[ChatMessage, ...]
    response: str
    parsed: tuple[ParsedAllocation, ...]
    started_at: str
    finished_at: str


@dataclass
class Transcript:
    session_id: str
    treatment: TreatmentKind
    records: list[RequestRecord] = field(default_factory=list)

    def parsed_rounds(self) -> list[ParsedAllocation]:
        """Final outcome per round: the last attempt wins."""
        final: dict[int, ParsedAllocation] = {}
        for record in self.records:
            for alloc in record.parsed:
                final[alloc.round] = alloc
        return [final[idx] for idx in sorted(final)]

    def anomalies(self) -> list[ParsedAllocation]:
        return [a for a in self.parsed_rounds() if not a.ok]

    def complete(self) -> bool:
        """Every round 1..SESSION_ROUNDS has a final allocation and it parsed cleanly."""
        final = {a.round: a.ok for a in self.parsed_rounds()}
        return all(final.get(idx, False) for idx in range(1, SESSION_ROUNDS + 1))


class TranscriptWriter:
    """Append-only JSONL sink; one file per session."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, transcript: Transcript, record: RequestRecord) -> None:
        obj = {
            "session_id": transcript.session_id,
            "treatment": transcript.treatment.value,
            "round": record.round,
            "attempt": record.attempt,
            "messages": [{"role": m.role, "content": m.content} for m in record.messages],
            "response": record.response,
            "parsed": [
                {"round": a.round, "t_a": a.t_a, "t_b": a.t_b, "flags": list(a.flags)}
                for a in record.parsed
            ],
            "started_at": record.started_at,
            "finished_at": record.finished_at,
        }
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(obj) + "\n")


def load_transcript(path: str | Path) -> Transcript:
    path = Path(path)
    transcript: Transcript | None = None
    with path.open(encoding="utf-8") as fh:
        for line_num, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{line_num}: invalid JSON: {exc}") from None
            if transcript is None:
                transcript = Transcript(obj["session_id"], TreatmentKind(obj["treatment"]))
            record = RequestRecord(
                round=obj["round"],
                attempt=obj["attempt"],
                messages=tuple(ChatMessage(m["role"], m["content"]) for m in obj["messages"]),
                response=obj["response"],
                parsed=tuple(
                    ParsedAllocation(p["round"], p["t_a"], p["t_b"], tuple(p["flags"]))
                    for p in obj["parsed"]
                ),
                started_at=obj["started_at"],
                finished_at=obj["finished_at"],
            )
            transcript.records.append(record)
    if transcript is None:
        raise ValidationError(f"{path}: empty transcript")
    return transcript


def _send_recorded(
    backend: ChatBackend,
    transcript: Transcript,
    writer: TranscriptWriter | None,
    messages: list[ChatMessage],
    round_index: int | None,
    attempt: int,
    mode: str,
) -> RequestRecord:
    started = _now()
    try:
        response = backend.send(messages)
    except BackendError as exc:
        raise SessionError(f"backend failed on round {round_index}: {exc}", transcript) from exc
    parsed = parse_allocations(
        response, mode=mode, n_rounds=SESSION_ROUNDS, round_index=round_index or 1
    )
    record = RequestRecord(
        round_index, attempt, tuple(messages), response, tuple(parsed), started, _now()
    )
    transcript.records.append(record)
    if writer is not None:
        writer.append(transcript, record)
    return record


def run_decision_session(
    backend: ChatBackend,
    schedule: BudgetSchedule,
    session_id: str = "decision",
    writer: TranscriptWriter | None = None,
) -> Transcript:
    """Cumulative 25-round decision session."""
    if len(schedule.rounds) != SESSION_ROUNDS:
        raise ValidationError(f"decision sessions need {SESSION_ROUNDS} rounds")
    treatment = Treatment(TreatmentKind.DECISION)
    transcript = Transcript(session_id, TreatmentKind.DECISION)
    history: list[str] = []
    for idx, returns in enumerate(schedule.rounds, start=1):
        system, assistant, user = build_prompt(treatment, returns)
        messages = [system, assistant]
        messages += [ChatMessage("assistant", answer) for answer in history]
        messages.append(user)
        record = _send_recorded(backend, transcript, writer, messages, idx, 1, "single")
        if not record.parsed[0].ok:
            retry_messages = messages[:-1] + [ChatMessage("user", user.content + RETRY_REMINDER)]
            record = _send_recorded(backend, transcript, writer, retry_messages, idx, 2, "single")
        history.append(record.response.strip())
    return transcript


def run_recommendation_session(
    backend: ChatBackend,
    treatment: Treatment,
    schedule: BudgetSchedule,
    session_id: str = "recommendation",
    writer: TranscriptWriter | None = None,
) -> Transcript:
    """Single-request recommendation session; sessions share no state."""
    if treatment.kind is TreatmentKind.DECISION:
        raise ValidationError("use run_decision_session for the decision treatment")
    if len(schedule.rounds) != SESSION_ROUNDS:
        raise ValidationError(f"recommendation sessions need {SESSION_ROUNDS} rounds")
    transcript = Transcript(session_id, treatment.kind)
    messages = list(build_prompt(treatment, schedule))
    _send_recorded(backend, transcript, writer, messages, None, 1, "multi")
    return transcript


def transcript_to_dataset(
    transcript: Transcript, schedule: BudgetSchedule, subject_id: str
) -> SubjectDataset:
    """Dataset of the cleanly parsed rounds; flagged rounds are dropped."""
    rounds = []
    for alloc in transcript.parsed_rounds():
        if not alloc.ok:
            continue
        returns = schedule.rounds[alloc.round - 1]
        rounds.append(
            ChoiceRound.from_returns_tokens(alloc.round, returns, Allocation(alloc.t_a, alloc.t_b))
        )
    if not rounds:
        raise ValidationError(f"session {transcript.session_id!r}: no usable rounds")
    return SubjectDataset(subject_id, _PROVENANCE[transcript.treatment], tuple(rounds))
