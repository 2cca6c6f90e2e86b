"""Session runners, transcripts, and transcript persistence.

Decision sessions are cumulative: request k carries the k-1 previous answers
as extra assistant messages, so the conversation mirrors a sequential
experiment.  Recommendation sessions are a single stateless request carrying
the full return table.  A round whose decision answer cannot be used is
re-asked once with a terse reminder, then flagged; flagged rounds never get
imputed allocations.

Transcripts persist as JSON Lines, one object per request/response with
ISO-8601 timestamps, and can be reloaded for resumption or re-analysis.  A
record of format 2 stores only the messages after the ``prefix`` it shares
with the record before it, so a decision transcript holds each message once;
:func:`load_transcript` rebuilds the full messages, and reads format 1 files
(no ``format`` key, every message stored) too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from ..data import SubjectDataset
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
    """Append-only JSONL sink; one file per session.

    Each line is a format 2 record: ``prefix`` is the number of leading
    messages the record shares (by ``==``) with the record this writer wrote
    just before it, 0 for its first, and ``messages`` holds the rest.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._previous: tuple[ChatMessage, ...] = ()

    def append(self, transcript: Transcript, record: RequestRecord) -> None:
        prefix = 0
        for old, new in zip(self._previous, record.messages):
            if old != new:
                break
            prefix += 1
        obj = {
            "format": 2,
            "session_id": transcript.session_id,
            "treatment": transcript.treatment.value,
            "round": record.round,
            "attempt": record.attempt,
            "prefix": prefix,
            "messages": [{"role": m.role, "content": m.content}
                         for m in record.messages[prefix:]],
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
        self._previous = record.messages


def _shared_prefix(obj: dict, previous: tuple[ChatMessage, ...]) -> int:
    """How many of ``previous``'s leading messages the record ``obj`` shares: 0 in format 1."""
    if "format" not in obj:
        return 0
    if obj["format"] != 2:
        raise ValueError(f"unknown format {obj['format']!r}")
    prefix = obj["prefix"]
    if type(prefix) is not int:
        raise TypeError(f"prefix {prefix!r} is not an int")
    if not 0 <= prefix <= len(previous):
        raise ValueError(f"prefix {prefix} outside [0, {len(previous)}], "
                         "the previous record's message count")
    return prefix


def load_transcript(path: str | Path) -> Transcript:
    """Read a JSONL transcript of format 1 or 2, or of both mixed.

    A format 2 record's messages are the previous record's first ``prefix``
    messages followed by the ones it stores.  A final line that lacks its
    newline and does not decode is dropped: it is a record cut short by a
    process killed while writing it.  Any other malformed line, or a record
    that lacks a field, holds an unknown treatment or format, or a ``prefix``
    that is not an int in [0, the previous record's message count], raises
    :class:`ValidationError` naming ``path:line``.
    """
    path = Path(path)
    transcript: Transcript | None = None
    previous: tuple[ChatMessage, ...] = ()
    with path.open(encoding="utf-8") as fh:
        for line_num, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                if not line.endswith("\n"):  # only the last line can lack it
                    break
                raise ValidationError(f"{path}:{line_num}: invalid JSON: {exc}") from None
            try:
                if transcript is None:
                    transcript = Transcript(obj["session_id"], TreatmentKind(obj["treatment"]))
                record = RequestRecord(
                    round=obj["round"],
                    attempt=obj["attempt"],
                    messages=previous[:_shared_prefix(obj, previous)] + tuple(
                        ChatMessage(m["role"], m["content"]) for m in obj["messages"]),
                    response=obj["response"],
                    parsed=tuple(
                        ParsedAllocation(p["round"], p["t_a"], p["t_b"], tuple(p["flags"]))
                        for p in obj["parsed"]
                    ),
                    started_at=obj["started_at"],
                    finished_at=obj["finished_at"],
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(
                    f"{path}:{line_num}: malformed record: {type(exc).__name__}: {exc}") from None
            transcript.records.append(record)
            previous = record.messages
    if transcript is None:
        raise ValidationError(f"{path}: empty transcript")
    return transcript


def reusable_transcript(path: Path, treatment: Treatment, schedule: BudgetSchedule) -> Transcript | None:
    """The transcript at ``path`` if its session is done in this run, else None.

    A session is done when its transcript loads, is :meth:`Transcript.complete`
    and asked this run's questions: its treatment is ``treatment.kind``, and each
    record's system message, instructions and question (its last user message,
    without ``RETRY_REMINDER``) are those :func:`build_prompt` gives for the
    record's round of ``schedule``.  Any other file at ``path`` is deleted, so
    that its session runs again from round 1.
    """
    if path.exists():
        try:
            transcript = load_transcript(path)
            if transcript.complete() and _asked(transcript, treatment, schedule):
                return transcript
        except ValidationError:
            pass
        path.unlink()
    return None


def _asked(transcript: Transcript, treatment: Treatment, schedule: BudgetSchedule) -> bool:
    """Whether every request of ``transcript`` asked what ``treatment`` on ``schedule`` asks."""
    if transcript.treatment is not treatment.kind:
        return False
    decision = treatment.kind is TreatmentKind.DECISION
    for record in transcript.records:
        if decision and not (type(record.round) is int and 1 <= record.round <= len(schedule.rounds)):
            return False
        system, instructions, question = build_prompt(
            treatment, schedule.rounds[record.round - 1] if decision else schedule)
        asked = [m.content for m in record.messages if m.role == "user"]
        if (record.messages[:2] != (system, instructions) or not asked
                or asked[-1].removesuffix(RETRY_REMINDER) != question.content):
            return False
    return True


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
    usable = [alloc for alloc in transcript.parsed_rounds() if alloc.ok]
    if not usable:
        raise ValidationError(f"session {transcript.session_id!r}: no usable rounds")
    returns = [schedule.rounds[alloc.round - 1] for alloc in usable]
    return SubjectDataset.from_returns_tokens(
        subject_id, [(r.r_a, r.r_b) for r in returns], [(alloc.t_a, alloc.t_b) for alloc in usable],
        [alloc.round for alloc in usable])
