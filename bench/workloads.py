"""The four benchmark workloads: inputs from a seed, timed CLI commands, output checks.

Each workload runs in batches.  ``prepare(index)`` writes one batch's inputs
(untimed, through the CLI's own ``sample-params`` and ``simulate`` where it
can), ``commands`` lists the timed CLI invocations, and ``check`` verifies
every unit of work (a subject or a session) in their outputs.  Every batch
draws fresh inputs from ``(seed, index)``, so no two timed commands of a run
see the same input.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import requests

from prefbench.cli import main as cli_main
from prefbench.da_model import DAParams
from prefbench.data import read_dataset
from prefbench.harness.backends import API_KEY_ENV, MockDecisionBackend
from prefbench.harness.prompts import RETRY_REMINDER, Treatment, TreatmentKind, build_prompt
from prefbench.rationality import garp_holds
from prefbench.simulation import evaluation_schedule, simulate_subject

ROUNDS = 175
RECOVERY_TOL = 0.05  # acceptance criterion 3
CHOICE_TOL = 1e-9
SLOPPY_SIGMA = 10.0  # points of Gaussian noise on the token choice of sloppy subjects
CURVE_SIZES = (1, 10, 25, 75, 175)

# experiment_http's fake chat endpoint
HTTP_DELAY_S = 0.02
HTTP_RATE_LIMITED_ROUND = 13  # first attempt gets a 429 with Retry-After
HTTP_GARBLED_ROUNDS = (5, 19)  # first answer unparseable, so the session re-asks
HTTP_CONFIG = {
    "backend.kind": "http",
    "backend.endpoint": "http://127.0.0.1:9/v1/chat/completions",
    "backend.model": "bench-mock",
    "backend.max_retries": 5,
    "backend.timeout": 10,
    "backend.rate_per_min": 1_000_000,  # never binds
    "backend.concurrency": 2,
}


def run_cli(argv: list[str]) -> tuple[int | None, str | None]:
    """Run one ``prefbench`` command in this process: (exit code, error)."""
    try:
        cli_main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        return code, None
    except Exception as exc:  # a raising command is a failed operation, not a crashed run
        return None, f"{type(exc).__name__}: {exc}"
    return 0, None


def setup_cli(*argv) -> None:
    code, error = run_cli(list(argv))
    if code != 0:
        raise RuntimeError(f"set-up command {argv[0]} failed: exit {code} {error or ''}")


def batch_seeds(seed: int, index: int, k: int) -> list[int]:
    return [int(v) for v in np.random.SeedSequence([seed, index]).generate_state(k) % 2**31]


def read_params(path: Path) -> dict[str, DAParams]:
    with path.open(newline="", encoding="utf-8") as fh:
        return {row["subject_id"]: DAParams(float(row["beta"]), float(row["rho"]))
                for row in csv.DictReader(fh)}


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Command:
    argv: list
    out: Path  # the command's output directory
    resume: bool = False  # part of the resume pass, not counted in throughput


@dataclass
class CommandRun:
    command: Command
    code: int | None
    error: str | None
    wall_s: float
    digests: dict[str, str] = field(default_factory=dict)  # file name -> sha256


@dataclass
class Batch:
    index: int
    dir: Path
    units: list[str]  # a subject or session id per unit of work
    inputs: list[Path]  # generated inputs whose digests are recorded
    params: dict[str, DAParams]  # truth per subject or session id


def fail_all(units, reason):
    return {u: reason for u in units}


def exit_problem(run: CommandRun, allowed=(0,)) -> str | None:
    if run.error is not None:
        return f"raised {run.error}"
    if run.code not in allowed:
        return f"exit {run.code}"
    return None


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def prepare(self, index: int) -> Batch:
        raise NotImplementedError

    def commands(self, batch: Batch, tag: str) -> list[Command]:
        raise NotImplementedError

    def check(self, batch: Batch, runs: list[CommandRun]) -> dict[str, str | None]:
        """Failure reason per unit id; None when the unit passed."""
        raise NotImplementedError

    @contextlib.contextmanager
    def serving(self, batch: Batch):
        """Context the batch's commands run in (a fake endpoint, for one workload)."""
        yield


class AnalyzeMixed175(Workload):
    """``analyze --jobs 1`` on exact maximizers and sloppy copies of them, 175 rounds."""

    name = "analyze_mixed175"
    exact_per_batch = 1

    def prepare(self, index):
        d = self.work / f"b{index}"
        s_pop, s_sched, s_noise = batch_seeds(self.seed, index, 3)
        setup_cli("sample-params", "--n", self.exact_per_batch, "--seed", s_pop,
                  "--out", d / "pop")
        setup_cli("simulate", "--params-file", d / "pop" / "params.csv", "--rounds", ROUNDS,
                  "--seed", s_sched, "--out", d / "sim")
        rng = np.random.default_rng(s_noise)
        exact = read_rows(d / "sim" / "choices.csv")
        sloppy = []
        for row in exact:
            t_a = round(float(np.clip(float(row["t_a"]) + rng.normal(0.0, SLOPPY_SIGMA),
                                      0.0, 100.0)), 2)
            sloppy.append({**row, "subject_id": row["subject_id"] + "_sloppy",
                           "t_a": repr(t_a), "t_b": repr(round(100.0 - t_a, 2))})
        mixed = d / "mixed.csv"
        with mixed.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(exact[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(exact + sloppy)
        params = read_params(d / "pop" / "params.csv")
        units = list(params) + [sid + "_sloppy" for sid in params]
        return Batch(index, d, units, [d / "sim" / "choices.csv", mixed], params)

    def commands(self, batch, tag):
        out = batch.dir / f"idx{tag}"
        return [Command(["analyze", "--choices", batch.dir / "mixed.csv", "--jobs", 1,
                         "--out", out], out)]

    def check(self, batch, runs):
        (run,) = runs
        problem = exit_problem(run, allowed=(0, 4))  # 4: completed with anomaly flags
        if problem:
            return fail_all(batch.units, problem)
        rows = {r["subject_id"]: r for r in read_rows(run.command.out / "index.csv")}
        datasets = {ds.subject_id: ds for ds in read_dataset(batch.dir / "mixed.csv")}
        outcome = {}
        for sid in batch.units:
            row = rows.get(sid)
            if row is None:
                outcome[sid] = "missing from index.csv"
            elif sid in batch.params:
                outcome[sid] = check_exact(row, batch.params[sid])
            else:
                outcome[sid] = check_sloppy(row, datasets[sid])
        return outcome


def check_exact(row: dict, truth: DAParams) -> str | None:
    if float(row["ccei"]) != 1.0:
        return f"exact subject has ccei {row['ccei']}"
    if int(row["fosd_count"]) != 0:
        return f"exact subject has fosd_count {row['fosd_count']}"
    if abs(float(row["beta_hat"]) - truth.beta) > RECOVERY_TOL:
        return f"beta_hat {row['beta_hat']} vs {truth.beta}"
    if abs(float(row["rho_hat"]) - truth.rho) > RECOVERY_TOL:
        return f"rho_hat {row['rho_hat']} vs {truth.rho}"
    return None


def check_sloppy(row: dict, dataset) -> str | None:
    """GARP holds between the reported CCEI and the candidate ratio below it
    and fails between it and the one above; GARP's status changes only at
    the cross/own expenditure ratios."""
    value = float(row["ccei"])
    if float(row["deut"]) < 0.0:
        return f"deut {row['deut']} < 0"
    if not value < 1.0:
        return f"sloppy subject has ccei {row['ccei']}"
    prices, demand = dataset.price_matrix(), dataset.demand_matrix()
    cross = prices @ demand.T
    ratios = cross / np.diag(cross)[:, None]
    ratios = ratios[~np.eye(dataset.n, dtype=bool)]
    candidates = np.unique(np.concatenate([ratios[(ratios >= 0.0) & (ratios <= 1.0)], [0.0, 1.0]]))
    pos = int(np.argmin(np.abs(candidates - value)))
    if abs(candidates[pos] - value) > 1e-12:
        return f"ccei {value!r} is no expenditure ratio"
    if pos > 0 and not garp_holds(dataset, 0.5 * (candidates[pos - 1] + value))[0]:
        return f"GARP fails just below ccei {value!r}"
    if garp_holds(dataset, 0.5 * (value + candidates[pos + 1]))[0]:
        return f"GARP holds just above ccei {value!r}"
    return None


class CurveDirect(Workload):
    """``learning-curve --direct``: simulate 175 rounds, recover at every prefix size."""

    name = "curve_direct"
    subjects_per_batch = 3

    def prepare(self, index):
        d = self.work / f"b{index}"
        s_pop, _ = batch_seeds(self.seed, index, 2)
        setup_cli("sample-params", "--n", self.subjects_per_batch, "--seed", s_pop,
                  "--out", d / "pop")
        params = read_params(d / "pop" / "params.csv")
        return Batch(index, d, list(params), [d / "pop" / "params.csv"], params)

    def commands(self, batch, tag):
        out = batch.dir / f"curve{tag}"
        _, s_provision = batch_seeds(self.seed, batch.index, 2)
        return [Command(["learning-curve", "--truth", batch.dir / "pop" / "params.csv",
                         "--direct", "--provision-seed", s_provision, "--out", out], out)]

    def check(self, batch, runs):
        (run,) = runs
        problem = exit_problem(run)
        if problem is None:
            problem = check_curve(read_rows(run.command.out / "learning_curve.csv"),
                                  len(batch.units))
        return fail_all(batch.units, problem)


def check_curve(rows: list[dict], n: int) -> str | None:
    keys = [(int(r["sample_size"]), r["parameter"]) for r in rows]
    if keys != [(s, p) for s in CURVE_SIZES for p in ("beta", "rho")]:
        return f"learning_curve.csv rows {keys}"
    if any(int(r["n"]) != n for r in rows):
        return "regression over the wrong subject count"
    gamma = {(int(r["sample_size"]), r["parameter"]): float(r["gamma"]) for r in rows}
    if not gamma[(175, "rho")] >= 0.9:  # acceptance criterion 4
        return f"gamma_rho at s=175 is {gamma[(175, 'rho')]}"
    return None


def check_sessions(out: Path, expected: dict[str, DAParams]) -> dict[str, str | None]:
    """Every session parsed 25/25 rounds and chose the exact optimum on the
    evaluation schedule."""
    schedule = evaluation_schedule()
    rows: dict[str, list[dict]] = {}
    path = out / "choices.csv"
    for row in read_rows(path) if path.exists() else []:
        rows.setdefault(row["subject_id"], []).append(row)
    outcome = {}
    for sid, params in expected.items():
        got = rows.get(sid, [])
        if [int(r["round"]) for r in got] != list(range(1, len(schedule.rounds) + 1)):
            outcome[sid] = f"parsed {len(got)}/{len(schedule.rounds)} rounds"
            continue
        want = simulate_subject(params, schedule, sid).dataset.rounds
        worst = max(max(abs(float(r["t_a"]) - w.tokens.t_a), abs(float(r["t_b"]) - w.tokens.t_b))
                    for r, w in zip(got, want))
        outcome[sid] = None if worst <= CHOICE_TOL else f"choice off the optimum by {worst:.3g}"
    return outcome


def check_resume(write: CommandRun, resume: CommandRun, sessions: int) -> str | None:
    problem = exit_problem(resume)
    if problem:
        return f"resume pass {problem}"
    manifest = json.loads((resume.command.out / "manifest.json").read_text(encoding="utf-8"))
    if manifest["arguments"]["resumed"] != sessions:
        return f"resumed {manifest['arguments']['resumed']}/{sessions} sessions"
    if resume.digests.get("choices.csv") != write.digests.get("choices.csv"):
        return "choices.csv changed on resume"
    return None


class ExperimentMock(Workload):
    """Decision and personalized (175 sample rounds) sessions on the mock
    backend, then the same commands again, resuming every session."""

    name = "experiment_mock"
    subjects_per_batch = 10

    def prepare(self, index):
        d = self.work / f"b{index}"
        s_pop, s_sched = batch_seeds(self.seed, index, 2)
        setup_cli("sample-params", "--n", self.subjects_per_batch, "--seed", s_pop,
                  "--out", d / "pop")
        setup_cli("simulate", "--params-file", d / "pop" / "params.csv", "--rounds", ROUNDS,
                  "--seed", s_sched, "--out", d / "sim")
        params = read_params(d / "pop" / "params.csv")
        units = [f"decision:{s}" for s in params] + [f"personalized:{s}" for s in params]
        return Batch(index, d, units, [d / "sim" / "choices.csv"], params)

    def commands(self, batch, tag):
        pop = batch.dir / "pop" / "params.csv"
        dec, per = batch.dir / f"dec{tag}", batch.dir / f"per{tag}"
        decision = ["experiment", "--treatment", "decision", "--params-file", pop, "--out", dec]
        personalized = ["experiment", "--treatment", "personalized",
                        "--sample-data", batch.dir / "sim" / "choices.csv",
                        "--sample-size", ROUNDS, "--params-file", pop, "--out", per]
        return [Command(decision, dec), Command(personalized, per),
                Command(decision, dec, resume=True), Command(personalized, per, resume=True)]

    def check(self, batch, runs):
        outcome = {}
        for kind, write, resume in (("decision", runs[0], runs[2]),
                                    ("personalized", runs[1], runs[3])):
            units = {f"{kind}:{s}": s for s in batch.params}
            problem = exit_problem(write) or check_resume(write, resume, len(units))
            sessions = check_sessions(write.command.out, batch.params)
            outcome.update({u: problem or sessions[s] for u, s in units.items()})
        return outcome


class FakeChatEndpoint:
    """Stands in for ``requests.Session.post``: after a fixed delay it answers
    each question of the evaluation schedule as the mock backend would.  The
    answers are computed once, up front, so the endpoint does no prefbench
    work while a run is traced.  The first attempt at round 13 of a session
    gets a 429 with ``Retry-After`` (with concurrent sessions: every other
    round-13 attempt), and the first answers at rounds 5 and 19 are
    unparseable."""

    def __init__(self, params: DAParams):
        mock = MockDecisionBackend(params)
        self.answers = {}
        for returns in evaluation_schedule().rounds:
            messages = build_prompt(Treatment(TreatmentKind.DECISION), returns)
            self.answers[messages[-1].content] = mock.send(messages)
        self._limited = False
        self._lock = threading.Lock()

    def reply(self, payload: dict) -> "FakeResponse":
        time.sleep(HTTP_DELAY_S)
        messages = payload["messages"]
        round_index = len(messages) - 2  # system, instructions, history, question
        question = messages[-1]["content"]
        reask = question.endswith(RETRY_REMINDER)
        with self._lock:
            if round_index == HTTP_RATE_LIMITED_ROUND and not reask:
                self._limited = not self._limited
                if self._limited:
                    return FakeResponse(429, "", {"Retry-After": "1"})
        if self.garbled(round_index, reask):
            return FakeResponse(200, "Let me think about the two assets first.")
        return FakeResponse(200, self.answers[question.removesuffix(RETRY_REMINDER)])

    def garbled(self, round_index: int, reask: bool) -> bool:
        return round_index in HTTP_GARBLED_ROUNDS and not reask

    @contextlib.contextmanager
    def installed(self):
        endpoint = self

        def post(session, url, json=None, headers=None, timeout=None, **kwargs):
            return endpoint.reply(json)

        original, token = requests.Session.post, os.environ.get(API_KEY_ENV)
        requests.Session.post = post
        os.environ[API_KEY_ENV] = "bench-token"
        try:
            yield self
        finally:
            requests.Session.post = original
            if token is None:
                os.environ.pop(API_KEY_ENV, None)
            else:
                os.environ[API_KEY_ENV] = token


@dataclass
class FakeResponse:
    status_code: int
    content: str
    headers: dict = field(default_factory=dict)

    @property
    def text(self) -> str:
        return self.content

    def json(self) -> dict:
        return {"choices": [{"message": {"role": "assistant", "content": self.content}}]}


class ExperimentHttp(Workload):
    """Decision sessions through ``HttpChatBackend`` against a fake endpoint,
    then the same command again, resuming every session."""

    name = "experiment_http"
    sessions_per_batch = 2

    def prepare(self, index):
        d = self.work / f"b{index}"
        (s_pop,) = batch_seeds(self.seed, index, 1)
        setup_cli("sample-params", "--n", 1, "--seed", s_pop, "--out", d / "pop")
        (params,) = read_params(d / "pop" / "params.csv").values()
        (d / "config.json").write_text(json.dumps(HTTP_CONFIG), encoding="utf-8")
        width = max(3, len(str(self.sessions_per_batch)))
        sessions = {f"decision{i:0{width}d}": params
                    for i in range(1, self.sessions_per_batch + 1)}
        return Batch(index, d, list(sessions), [d / "config.json"], sessions)

    def commands(self, batch, tag):
        out = batch.dir / f"http{tag}"
        argv = ["experiment", "--config", batch.dir / "config.json", "--treatment", "decision",
                "--sessions", len(batch.units), "--out", out]
        return [Command(argv, out), Command(argv, out, resume=True)]

    @contextlib.contextmanager
    def serving(self, batch):
        (params,) = set(batch.params.values())
        with FakeChatEndpoint(params).installed():
            yield

    def check(self, batch, runs):
        write, resume = runs
        problem = exit_problem(write) or check_resume(write, resume, len(batch.units))
        sessions = check_sessions(write.command.out, batch.params)
        return {u: problem or reason for u, reason in sessions.items()}


WORKLOADS = {w.name: w for w in (AnalyzeMixed175, CurveDirect, ExperimentMock, ExperimentHttp)}
