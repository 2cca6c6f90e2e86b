from __future__ import annotations

import csv
import json
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import run_python

from prefbench.cli import INDEX_COLUMNS, _parse_config, _write_index_reports, main
from prefbench.da_model import DAParams
from prefbench.data import (
    PRICES_HEADER,
    RETURNS_HEADER,
    format_float,
    read_dataset,
    write_dataset,
    write_table,
)
from prefbench.errors import ConfigError, ValidationError
from prefbench.harness.backends import HttpChatBackend, MockDecisionBackend
from prefbench.harness.prompts import ChatMessage
from prefbench.harness.sessions import load_transcript
from prefbench.simulation import (
    BudgetSchedule,
    evaluation_schedule,
    generate_budgets,
    sample_population,
    write_params_file,
    write_schedule,
)
from prefbench.workflows import IndexReport


def run_cli(*argv: str) -> int:
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    return excinfo.value.code or 0


def make_params(tmp_path: Path, n: int = 3, seed: int = 0) -> Path:
    path = tmp_path / "params.csv"
    write_params_file(sample_population(seed, n), path)
    return path


class ChatResponse:
    """A chat-completions reply as ``requests.Session.post`` returns it."""

    status_code = 200

    def __init__(self, text):
        self.text = text

    def json(self):
        return {"choices": [{"message": {"content": self.text}}]}


class TestSimulate:
    def test_structure_and_manifest(self, tmp_path):
        params = make_params(tmp_path, n=3)
        out = tmp_path / "sim"
        assert run_cli("simulate", "--params-file", str(params), "--rounds", "25",
                       "--seed", "5", "--out", str(out)) == 0
        rows = (out / "choices.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 25
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seeds"] == {"seed": 5}
        assert (out / "schedule.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        params = make_params(tmp_path, n=4)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "--params-file", str(params), "--rounds", "10",
                "--seed", "9", "--out", str(out_a))
        run_cli("simulate", "--params-file", str(params), "--rounds", "10",
                "--seed", "9", "--out", str(out_b))
        assert (out_a / "choices.csv").read_bytes() == (out_b / "choices.csv").read_bytes()

    def test_invalid_params_row_names_row(self, tmp_path, capsys):
        bad = tmp_path / "params.csv"
        bad.write_text("subject_id,beta,rho\ns1,0.1,0.5\ns2,0.2,-1.0\n", encoding="utf-8")
        code = run_cli("simulate", "--params-file", str(bad), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "row 3" in capsys.readouterr().err


class TestSampleParams:
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_size_below_one_is_a_usage_error(self, tmp_path, capsys, n):
        out = tmp_path / "pop"
        assert run_cli("sample-params", "--n", n, "--out", str(out)) == 2
        assert "--n" in capsys.readouterr().err
        assert not out.exists()


class TestAnalyze:
    def test_simulated_subjects_all_consistent(self, tmp_path):
        params = make_params(tmp_path, n=3)
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--params-file", str(params), "--rounds", "25",
                "--seed", "2", "--out", str(sim_out))
        out = tmp_path / "idx"
        code = run_cli("analyze", "--choices", str(sim_out / "choices.csv"), "--out", str(out))
        assert code == 0
        rows = (out / "index.csv").read_text().splitlines()
        assert rows[0] == "subject_id,ccei,deut,fosd_count,beta_hat,rho_hat,loss,flags"
        assert len(rows) == 4
        sids = [row.split(",")[0] for row in rows[1:]]
        assert sids == sorted(sids)
        for row in rows[1:]:
            fields = row.split(",")
            assert float(fields[1]) == 1.0  # ccei
            assert int(fields[3]) == 0  # fosd_count

    def test_jobs_give_the_same_index(self, tmp_path):
        # 5 subjects in 1, 2 or 3 contiguous chunks; 2 subjects on 3 jobs use 2 chunks
        params = make_params(tmp_path, n=5)
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--params-file", str(params), "--rounds", "25",
                "--seed", "3", "--out", str(sim_out))
        lines = (sim_out / "choices.csv").read_text().splitlines(keepends=True)
        two = tmp_path / "two.csv"
        two.write_text("".join(lines[:51]), encoding="utf-8")
        for choices, jobs in ((sim_out / "choices.csv", (1, 2, 3)), (two, (1, 3))):
            indexes = set()
            for n_jobs in jobs:
                out = tmp_path / f"idx_{choices.stem}_{n_jobs}"
                assert run_cli("analyze", "--choices", str(choices), "--jobs", str(n_jobs),
                               "--out", str(out)) == 0
                indexes.add((out / "index.csv").read_bytes())
            assert len(indexes) == 1

    def test_pool_has_one_worker_per_chunk(self, tmp_path, monkeypatch):
        # a serial stand-in for the pool: it records its size and starts no process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("prefbench.cli.ProcessPoolExecutor", SerialPool)
        params = make_params(tmp_path, n=5)
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--params-file", str(params), "--rounds", "10",
                "--seed", "3", "--out", str(sim_out))
        lines = (sim_out / "choices.csv").read_text().splitlines(keepends=True)
        for n_subjects, n_jobs, expected in ((2, 64, [2]), (5, 3, [3]), (5, 5, [5]), (1, 4, [])):
            choices = tmp_path / f"c{n_subjects}.csv"
            choices.write_text("".join(lines[:1 + 10 * n_subjects]), encoding="utf-8")
            serial = tmp_path / f"serial{n_subjects}_{n_jobs}"
            pooled = tmp_path / f"pooled{n_subjects}_{n_jobs}"
            assert run_cli("analyze", "--choices", str(choices), "--out", str(serial)) == 0
            sizes.clear()
            assert run_cli("analyze", "--choices", str(choices), "--jobs", str(n_jobs),
                           "--out", str(pooled)) == 0
            assert sizes == expected
            assert (pooled / "index.csv").read_bytes() == (serial / "index.csv").read_bytes()

    @pytest.mark.parametrize("n_jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, n_jobs):
        params = make_params(tmp_path, n=1)
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--params-file", str(params), "--rounds", "5",
                "--seed", "3", "--out", str(sim_out))
        out = tmp_path / "idx"
        assert run_cli("analyze", "--choices", str(sim_out / "choices.csv"), "--jobs", n_jobs,
                       "--out", str(out)) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_input_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("subject_id,round,r_a,r_b,t_a,t_b\n", encoding="utf-8")
        assert run_cli("analyze", "--choices", str(empty), "--out", str(tmp_path / "o")) == 2

    def test_expected_utility_population_scores_clean(self, tmp_path):
        params = tmp_path / "eu_params.csv"
        params.write_text(
            "subject_id,beta,rho\neu1,0.0,0.5\neu2,0.0,1.0\neu3,0.0,2.0\n", encoding="utf-8"
        )
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--params-file", str(params), "--rounds", "25",
                "--seed", "8", "--out", str(sim_out))
        out = tmp_path / "idx"
        assert run_cli("analyze", "--choices", str(sim_out / "choices.csv"),
                       "--out", str(out)) == 0
        for row in (out / "index.csv").read_text().splitlines()[1:]:
            fields = row.split(",")
            assert float(fields[1]) == 1.0  # ccei
            assert float(fields[2]) == 0.0  # deut

    def test_dominated_round_counts_as_fosd_violation(self, tmp_path):
        choices = tmp_path / "fosd.csv"
        choices.write_text(
            "subject_id,round,p_a,p_b,x_a,x_b\n"
            "v1,1,0.0237,0.0125,33.3,17.0\n"
            "v1,2,0.01,0.02,60.0,20.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "idx"
        run_cli("analyze", "--choices", str(choices), "--out", str(out))
        row = (out / "index.csv").read_text().splitlines()[1]
        assert int(row.split(",")[3]) >= 1

    def test_flagged_subjects_exit_partial(self, tmp_path):
        # a single-round subject cannot pin two parameters: flagged, exit 4
        choices = tmp_path / "one_round.csv"
        choices.write_text(
            "subject_id,round,r_a,r_b,t_a,t_b\nlone,1,0.5,0.9,40.0,60.0\n", encoding="utf-8"
        )
        out = tmp_path / "idx"
        assert run_cli("analyze", "--choices", str(choices), "--out", str(out)) == 4
        row = (out / "index.csv").read_text().splitlines()[1]
        assert "insufficient_rounds" in row

    def test_price_row_off_the_budget_is_flagged_rescaled(self, tmp_path):
        # round 2's demand implies 50 + 53 = 103 tokens: inside the band, rescaled onto the line
        choices = tmp_path / "prices.csv"
        write_table(choices, PRICES_HEADER, [("v1", 1, 0.01, 0.01, 50.0, 50.0),
                                             ("v1", 2, 0.01, 0.02, 50.0, 26.5),
                                             ("v1", 3, 0.02, 0.01, 20.0, 60.0)])
        out = tmp_path / "idx"
        assert run_cli("analyze", "--choices", str(choices), "--out", str(out)) == 4
        (row,) = _csv_rows(out / "index.csv")[1:]
        assert "rescaled:1" in row[-1].split(";")

    def test_price_row_outside_the_band_names_the_row(self, tmp_path, capsys):
        # round 2's demand implies 50 + 60 = 110 tokens, outside [95, 105]
        choices = tmp_path / "prices.csv"
        write_table(choices, PRICES_HEADER, [("v1", 1, 0.01, 0.01, 50.0, 50.0),
                                             ("v1", 2, 0.01, 0.02, 50.0, 30.0)])
        assert run_cli("analyze", "--choices", str(choices), "--out", str(tmp_path / "idx")) == 2
        err = capsys.readouterr().err
        assert f"{choices}: row 3: implied token sum" in err and "outside [95, 105]" in err


class TestExperiment:
    def _config(self, tmp_path, beta=0.1, rho=0.6) -> Path:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"backend.kind": "mock", "backend.mock_beta": beta, "backend.mock_rho": rho}
        ), encoding="utf-8")
        return path

    def test_mock_decision_end_to_end(self, tmp_path):
        out = tmp_path / "exp"
        code = run_cli("experiment", "--config", str(self._config(tmp_path)),
                       "--treatment", "decision", "--sessions", "2", "--out", str(out))
        assert code == 0
        datasets = read_dataset(out / "choices.csv")
        assert len(datasets) == 2
        assert all(ds.n == 25 for ds in datasets)
        assert len(list((out / "transcripts").glob("*.jsonl"))) == 2

    def test_resume_skips_complete_sessions(self, tmp_path):
        out = tmp_path / "exp"
        config = self._config(tmp_path)
        run_cli("experiment", "--config", str(config), "--treatment", "recommendation",
                "--sessions", "2", "--out", str(out))
        stamps = {p.name: p.stat().st_mtime_ns for p in (out / "transcripts").iterdir()}
        code = run_cli("experiment", "--config", str(config), "--treatment", "recommendation",
                       "--sessions", "2", "--out", str(out))
        assert code == 0
        assert {p.name: p.stat().st_mtime_ns for p in (out / "transcripts").iterdir()} == stamps
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["arguments"]["resumed"] == 2

    @pytest.mark.parametrize("treatment,flagged", [
        # the one recommendation response is unparseable
        ("recommendation", {"t_a": None, "t_b": None, "flags": ["unparseable"]}),
        # the final decision round parsed to numbers that fail validation
        ("decision", {"t_a": 90.0, "t_b": 30.0, "flags": ["sum_out_of_band"]}),
    ])
    def test_resume_reruns_sessions_with_flagged_rounds(self, tmp_path, treatment, flagged):
        out = tmp_path / "exp"
        argv = ["experiment", "--config", str(self._config(tmp_path)),
                "--treatment", treatment, "--sessions", "2", "--out", str(out)]
        assert run_cli(*argv) == 0
        choices = (out / "choices.csv").read_bytes()
        spoiled = sorted((out / "transcripts").iterdir())[0]
        lines = spoiled.read_text(encoding="utf-8").splitlines()
        last = json.loads(lines[-1])
        last["parsed"] = [{"round": a["round"], **flagged} for a in last["parsed"]]
        spoiled.write_text("\n".join(lines[:-1] + [json.dumps(last)]) + "\n", encoding="utf-8")
        assert not load_transcript(spoiled).complete()

        assert run_cli(*argv) == 0
        assert json.loads((out / "manifest.json").read_text())["arguments"]["resumed"] == 1
        assert load_transcript(spoiled).complete()
        assert (out / "choices.csv").read_bytes() == choices

    @pytest.mark.parametrize("record", [
        {"session_id": "decision001"},  # valid JSON without the other fields
        "unknown_treatment",
    ])
    def test_resume_reruns_sessions_with_malformed_records(self, tmp_path, record):
        out = tmp_path / "exp"
        argv = ["experiment", "--config", str(self._config(tmp_path)),
                "--treatment", "decision", "--sessions", "2", "--out", str(out)]
        assert run_cli(*argv) == 0
        choices = (out / "choices.csv").read_bytes()
        spoiled = out / "transcripts" / "decision001.jsonl"
        lines = spoiled.read_text(encoding="utf-8").splitlines()
        if record == "unknown_treatment":
            record = {**json.loads(lines[0]), "treatment": "telepathy"}
        spoiled.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f"{spoiled.name}:1: malformed record"):
            load_transcript(spoiled)

        assert run_cli(*argv) == 0
        assert json.loads((out / "manifest.json").read_text())["arguments"]["resumed"] == 1
        assert load_transcript(spoiled).complete()
        assert (out / "choices.csv").read_bytes() == choices

    def _transcript_messages(self, out: Path) -> dict:
        return {path.name: [record.messages for record in load_transcript(path).records]
                for path in sorted((out / "transcripts").iterdir())}

    @pytest.mark.parametrize("case", ["treatment", "schedule", "sample_size"])
    def test_resume_reruns_sessions_that_asked_other_questions(self, tmp_path, case):
        params = make_params(tmp_path, n=2)
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--params-file", str(params), "--rounds", "25", "--seed", "4",
                       "--shared-schedule", "--out", str(sim)) == 0
        personalized = ["--treatment", "personalized", "--sample-data", str(sim / "choices.csv")]
        first, second = {
            "treatment": (["--treatment", "decision"], ["--treatment", "recommendation"]),
            "schedule": (["--treatment", "decision"],
                         ["--treatment", "decision", "--schedule-file", str(sim / "schedule.csv")]),
            "sample_size": (personalized + ["--sample-size", "5"],
                            personalized + ["--sample-size", "25"]),
        }[case]
        out, fresh = tmp_path / "exp", tmp_path / "fresh"
        assert run_cli("experiment", *first, "--params-file", str(params), "--out", str(out)) == 0
        assert run_cli("experiment", *second, "--params-file", str(params), "--out", str(out)) == 0
        assert json.loads((out / "manifest.json").read_text())["arguments"]["resumed"] == 0
        assert run_cli("experiment", *second, "--params-file", str(params),
                       "--out", str(fresh)) == 0
        assert (out / "choices.csv").read_bytes() == (fresh / "choices.csv").read_bytes()
        assert self._transcript_messages(out) == self._transcript_messages(fresh)

    def test_rerun_without_a_usable_round_writes_a_header_only_choices_file(self, tmp_path,
                                                                            monkeypatch):
        out = tmp_path / "exp"
        assert run_cli("experiment", "--treatment", "decision", "--out", str(out)) == 0
        assert len(read_dataset(out / "choices.csv")) == 1

        class Unparsable:
            def send(self, messages):
                return "I would rather not say."

        monkeypatch.setattr("prefbench.cli.make_backend", lambda config: Unparsable())
        assert run_cli("experiment", "--treatment", "recommendation", "--out", str(out)) == 4
        assert (out / "choices.csv").read_text(encoding="utf-8") == ",".join(RETURNS_HEADER) + "\n"
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["outputs"] == ["choices.csv", "transcripts/"]

    def test_schedule_of_other_than_25_rounds_keeps_the_transcripts(self, tmp_path, capsys):
        schedule = tmp_path / "schedule.csv"
        rounds = evaluation_schedule().rounds + generate_budgets(3, 5).rounds
        write_schedule(BudgetSchedule(rounds), schedule)
        out, fresh = tmp_path / "exp", tmp_path / "fresh"
        assert run_cli("experiment", "--treatment", "decision", "--out", str(out)) == 0
        stamps = {p.name: p.stat().st_mtime_ns for p in (out / "transcripts").iterdir()}
        for target in (out, fresh):
            assert run_cli("experiment", "--treatment", "decision", "--schedule-file",
                           str(schedule), "--out", str(target)) == 2
            assert "sessions need 25 rounds; the schedule has 30" in capsys.readouterr().err
        assert {p.name: p.stat().st_mtime_ns for p in (out / "transcripts").iterdir()} == stamps
        assert not fresh.exists()

    @pytest.mark.parametrize("session_id", ["../../notes", "", ".", "..", "a/b", "a\0b"])
    def test_session_id_that_is_not_a_plain_file_name(self, tmp_path, capsys, session_id):
        params = tmp_path / "params.csv"
        write_params_file([("s1", DAParams(0.1, 0.6)), (session_id, DAParams(0.2, 0.5))], params)
        notes = tmp_path / "notes.jsonl"
        notes.write_text("not a transcript\n", encoding="utf-8")
        out = tmp_path / "exp"
        assert run_cli("experiment", "--treatment", "decision", "--params-file", str(params),
                       "--out", str(out)) == 2
        message = f"{params}: session id {session_id!r} is not a plain file name"
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert notes.read_text(encoding="utf-8") == "not a transcript\n"

    def test_sample_subject_id_that_is_not_a_plain_file_name(self, tmp_path, capsys):
        sample = self._sample_data(tmp_path)
        (ds,) = read_dataset(sample)
        write_dataset([replace(ds, subject_id="../x")], sample)
        out = tmp_path / "pr"
        assert run_cli("experiment", "--treatment", "personalized", "--sample-data", str(sample),
                       "--out", str(out)) == 2
        assert f"{sample}: session id '../x' is not a plain file name" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("treatment,options", [
        ("decision", ["--sample-data", "SAMPLE", "--sample-size", "3"]),
        ("decision", ["--sample-data", "SAMPLE"]),
        ("recommendation", ["--sample-size", "3"]),
    ])
    def test_sample_options_need_the_personalized_treatment(self, tmp_path, capsys, treatment,
                                                            options):
        sample = str(self._sample_data(tmp_path))
        out = tmp_path / "exp"
        assert run_cli("experiment", "--treatment", treatment,
                       *[sample if o == "SAMPLE" else o for o in options], "--out", str(out)) == 2
        assert ("--sample-data and --sample-size apply to the personalized treatment only"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_personalized_uses_sample_subjects(self, tmp_path):
        params = make_params(tmp_path, n=2)
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--params-file", str(params), "--rounds", "25", "--seed", "4",
                "--shared-schedule", "--out", str(sim_out))
        out = tmp_path / "pr"
        code = run_cli(
            "experiment", "--config", str(self._config(tmp_path)),
            "--treatment", "personalized", "--sample-data", str(sim_out / "choices.csv"),
            "--sample-size", "10", "--params-file", str(params), "--out", str(out),
        )
        assert code == 0
        datasets = read_dataset(out / "choices.csv")
        assert sorted(ds.subject_id for ds in datasets) == sorted(
            sid for sid, _ in sample_population(0, 2)
        )

    @pytest.mark.parametrize("sessions", ["0", "-2"])
    def test_sessions_below_one_is_a_usage_error(self, tmp_path, capsys, sessions):
        out = tmp_path / "exp"
        assert run_cli("experiment", "--config", str(self._config(tmp_path)),
                       "--treatment", "decision", "--sessions", sessions, "--out", str(out)) == 2
        assert "--sessions" in capsys.readouterr().err
        assert not out.exists()

    def _sample_data(self, tmp_path) -> Path:
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--params-file", str(make_params(tmp_path, n=1)), "--rounds", "5",
                "--seed", "4", "--out", str(sim_out))
        return sim_out / "choices.csv"

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_sample_size_below_one_is_a_usage_error(self, tmp_path, capsys, size):
        out = tmp_path / "pr"
        assert run_cli("experiment", "--config", str(self._config(tmp_path)),
                       "--treatment", "personalized", "--sample-data",
                       str(self._sample_data(tmp_path)), "--sample-size", size,
                       "--out", str(out)) == 2
        assert "--sample-size" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_size_above_the_sample_is_an_error(self, tmp_path, capsys):
        assert run_cli("experiment", "--config", str(self._config(tmp_path)),
                       "--treatment", "personalized", "--sample-data",
                       str(self._sample_data(tmp_path)), "--sample-size", "6",
                       "--out", str(tmp_path / "pr")) == 2
        assert "sample_size 6 exceeds the 5 available rounds" in capsys.readouterr().err

    def test_http_backend_without_key_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("CHAT_API_KEY", raising=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"backend.kind": "http", "backend.endpoint": "https://example.invalid/v1",
             "backend.model": "m"}
        ), encoding="utf-8")
        code = run_cli("experiment", "--config", str(config), "--treatment", "decision",
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert "CHAT_API_KEY" in capsys.readouterr().err

    def test_http_sessions_run_backend_concurrency_at_once(self, tmp_path, monkeypatch):
        answers = MockDecisionBackend(DAParams(0.1, 0.6))
        lock = threading.Lock()
        in_flight, peak = 0, 0

        def post(session, url, json=None, headers=None, timeout=None):
            nonlocal in_flight, peak
            with lock:
                in_flight += 1
                peak = max(peak, in_flight)
            time.sleep(0.005)
            with lock:
                in_flight -= 1
            messages = [ChatMessage(m["role"], m["content"]) for m in json["messages"]]
            return ChatResponse(answers.send(messages))

        monkeypatch.setattr("requests.Session.post", post)
        monkeypatch.setenv("CHAT_API_KEY", "sekret")
        runs = {}
        for concurrency in (3, 1):
            config = tmp_path / f"http{concurrency}.json"
            config.write_text(json.dumps(
                {"backend.kind": "http", "backend.endpoint": "https://example.invalid/v1",
                 "backend.model": "m", "backend.rate_per_min": 1_000_000,
                 "backend.concurrency": concurrency}
            ), encoding="utf-8")
            out = tmp_path / f"exp{concurrency}"
            peak = 0
            assert run_cli("experiment", "--config", str(config), "--treatment", "decision",
                           "--sessions", "5", "--out", str(out)) == 0
            runs[concurrency] = peak, out
        (peak3, out3), (peak1, out1) = runs[3], runs[1]
        assert (peak3, peak1) == (3, 1)
        assert (out3 / "choices.csv").read_bytes() == (out1 / "choices.csv").read_bytes()
        assert self._untimed_transcripts(out3) == self._untimed_transcripts(out1)
        assert len(self._untimed_transcripts(out3)) == 5

    def _untimed_transcripts(self, out: Path) -> dict:
        return {path.name: [replace(r, started_at="", finished_at="")
                            for r in load_transcript(path).records]
                for path in sorted((out / "transcripts").iterdir())}

    @pytest.mark.parametrize("session_id", ["y" * 300, "\u00e9" * 125],  # 306, 256 bytes
                             ids=["ascii", "two_byte"])
    def test_session_id_too_long_for_a_file_name(self, tmp_path, capsys, session_id):
        params = tmp_path / "params.csv"
        longest = "x" * (255 - len(".jsonl"))  # 255 bytes with .jsonl: allowed
        write_params_file([(longest, DAParams(0.1, 0.6)), (session_id, DAParams(0.2, 0.5))],
                          params)
        out = tmp_path / "exp"
        assert run_cli("experiment", "--treatment", "decision", "--params-file", str(params),
                       "--out", str(out)) == 2
        assert (f"{params}: session id {session_id!r} is too long for a file name"
                in capsys.readouterr().err)
        assert not out.exists()

        write_params_file([(longest, DAParams(0.1, 0.6))], params)
        assert run_cli("experiment", "--treatment", "decision", "--params-file", str(params),
                       "--out", str(out)) == 0
        assert (out / "transcripts" / f"{longest}.jsonl").exists()

    def test_personalized_sample_without_subjects(self, tmp_path, capsys):
        sample = self._sample_data(tmp_path)
        header, *_ = sample.read_text(encoding="utf-8").splitlines(keepends=True)
        sample.write_text(header, encoding="utf-8")
        out = tmp_path / "pr"
        assert run_cli("experiment", "--treatment", "personalized", "--sample-data", str(sample),
                       "--out", str(out)) == 2
        assert f"{sample}: no subjects" in capsys.readouterr().err
        assert not out.exists()

    def test_personalized_http_sessions_share_one_backend(self, tmp_path, monkeypatch):
        params = make_params(tmp_path, n=3)
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--params-file", str(params), "--rounds", "10", "--seed", "4",
                "--shared-schedule", "--out", str(sim_out))
        answers = MockDecisionBackend(DAParams(0.1, 0.6))

        def post(session, url, json=None, headers=None, timeout=None):
            messages = [ChatMessage(m["role"], m["content"]) for m in json["messages"]]
            return ChatResponse(answers.send(messages))

        inits = []
        init = HttpChatBackend.__init__

        def counted_init(self, config):
            inits.append(config)
            init(self, config)

        monkeypatch.setattr("requests.Session.post", post)
        monkeypatch.setattr(HttpChatBackend, "__init__", counted_init)
        monkeypatch.setenv("CHAT_API_KEY", "sekret")
        config = tmp_path / "http.json"
        config.write_text(json.dumps(
            {"backend.kind": "http", "backend.endpoint": "https://example.invalid/v1",
             "backend.model": "m"}
        ), encoding="utf-8")
        out = tmp_path / "pr"
        code = run_cli("experiment", "--config", str(config), "--treatment", "personalized",
                       "--sample-data", str(sim_out / "choices.csv"), "--sample-size", "10",
                       "--out", str(out))
        assert code == 0
        assert len(list((out / "transcripts").glob("*.jsonl"))) == 3
        assert len(inits) == 1


class TestConfig:
    def _config(self, tmp_path, cfg) -> Path:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    @pytest.mark.parametrize("cfg,message", [
        ({"grid.rho_points": "abc"}, "'grid.rho_points' must be an integer, got 'abc'"),
        ({"grid.rho_points": 10.5}, "'grid.rho_points' must be an integer, got 10.5"),
        ({"grid.beta_step": 0}, "'grid.beta_step' must be > 0, got 0.0"),
        ({"grid.rho_points": 0}, "'grid.rho_points' must be >= 1, got 0"),
        ({"grid.beta_max": -2}, "'grid.beta_max' must be >= grid.beta_min, got -2.0"),
        ({"grid.rho_point": 5}, "unknown config key 'grid.rho_point'"),
        ({"refine.tol": float("nan")}, "'refine.tol' must be a finite number, got nan"),
        ({"backend.rate_per_min": 0}, "'backend.rate_per_min' must be >= 1, got 0"),
    ])
    def test_bad_analyze_config_is_a_config_error(self, tmp_path, capsys, cfg, message):
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--params-file", str(make_params(tmp_path, n=1)), "--rounds", "5",
                "--out", str(sim_out))
        out = tmp_path / "idx"
        assert run_cli("analyze", "--choices", str(sim_out / "choices.csv"),
                       "--config", str(self._config(tmp_path, cfg)), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_http_rate_limit_below_one_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        # with 0 the rate limiter's window check indexed an empty deque
        monkeypatch.setenv("CHAT_API_KEY", "sekret")
        config = self._config(tmp_path, {
            "backend.kind": "http", "backend.endpoint": "https://example.invalid/v1",
            "backend.model": "m", "backend.rate_per_min": 0})
        out = tmp_path / "exp"
        assert run_cli("experiment", "--config", str(config), "--treatment", "decision",
                       "--out", str(out)) == 2
        assert "'backend.rate_per_min' must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_http_settings_keep_their_keys(self):
        recovery, backend = _parse_config({
            "backend.kind": "http", "backend.endpoint": "http://127.0.0.1:9/v1",
            "backend.model": "m", "backend.max_retries": 5, "backend.timeout": 10,
            "backend.rate_per_min": 1_000_000, "backend.concurrency": 2,
            "grid.rho_points": 25.0,
        })
        assert (backend.kind, backend.endpoint, backend.model) == (
            "http", "http://127.0.0.1:9/v1", "m")
        assert (backend.max_retries, backend.rate_per_min, backend.concurrency) == (
            5, 1_000_000, 2)
        assert type(backend.timeout) is float and backend.timeout == 10.0
        assert type(recovery.rho_points) is int and recovery.rho_points == 25

    @pytest.mark.parametrize("cfg", [
        {"grid.rho_points": 10**30},
        {"grid.beta_step": 1e-300},
        {"grid.beta_step": 5e-324},  # (beta_max - beta_min) / beta_step overflows to inf
    ])
    def test_oversized_grid_is_a_config_error(self, tmp_path, capsys, cfg):
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--params-file", str(make_params(tmp_path, n=1)), "--rounds", "5",
                "--out", str(sim_out))
        out = tmp_path / "idx"
        assert run_cli("analyze", "--choices", str(sim_out / "choices.csv"),
                       "--config", str(self._config(tmp_path, cfg)), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "'grid.beta_step' and 'grid.rho_points' give a grid of" in err
        assert "more than 16777216" in err
        assert not out.exists()

    def test_grid_cell_limit_is_inclusive(self):
        # the default grid has 80 beta rows
        recovery, _ = _parse_config({"grid.rho_points": 2**24 // 80})
        assert recovery.rho_points == 209715
        with pytest.raises(ConfigError, match="give a grid of 80 x 209716 cells"):
            _parse_config({"grid.rho_points": 2**24 // 80 + 1})


class TestManifestInputs:
    """A manifest names every file a command read, --config included, and the config's
    settings; without --config it has neither."""

    _GRID = {"grid.beta_step": 0.5, "grid.rho_points": 4}

    def _config(self, tmp_path) -> Path:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self._GRID), encoding="utf-8")
        return path

    def _manifest(self, out: Path) -> dict:
        return json.loads((out / "manifest.json").read_text(encoding="utf-8"))

    def test_analyze_records_its_config(self, tmp_path):
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--params-file", str(make_params(tmp_path, n=2)), "--rounds", "5",
                "--out", str(sim_out))
        choices, config = str(sim_out / "choices.csv"), str(self._config(tmp_path))
        run_cli("analyze", "--choices", choices, "--config", config, "--out", str(tmp_path / "a"))
        run_cli("analyze", "--choices", choices, "--out", str(tmp_path / "b"))
        with_config, without = self._manifest(tmp_path / "a"), self._manifest(tmp_path / "b")
        assert with_config["inputs"] == [config, choices]
        assert with_config["arguments"] == {"choices": choices, "jobs": 1, "config": self._GRID}
        assert without["inputs"] == [choices]
        assert without["arguments"] == {"choices": choices, "jobs": 1}

    def test_direct_learning_curve_records_its_config(self, tmp_path):
        truth, config = str(make_params(tmp_path, n=6, seed=1)), str(self._config(tmp_path))
        out = tmp_path / "curve"
        assert run_cli("learning-curve", "--truth", truth, "--direct", "--config", config,
                       "--out", str(out)) == 0
        manifest = self._manifest(out)
        assert manifest["inputs"] == [config, truth]
        assert manifest["arguments"] == {"truth": truth, "estimates": [], "direct": True,
                                         "config": self._GRID}

    def test_report_lists_its_curve(self, tmp_path):
        curve = tmp_path / "learning_curve.csv"
        write_table(curve, ("sample_size", "parameter", "gamma", "se_gamma", "alpha", "se_alpha",
                            "p_gamma", "p_alpha", "n"), [(25, "beta", 0.5, 0.1, 0.0, 0.1, 0.01,
                                                          0.9, 6)])
        out = tmp_path / "rep"
        assert run_cli("report", "--curve", str(curve), "--out", str(out)) == 0
        assert self._manifest(out)["inputs"] == [str(curve)]


class TestLearningCurveAndReport:
    def test_direct_pipeline_and_report(self, tmp_path):
        params = make_params(tmp_path, n=6, seed=1)
        out = tmp_path / "curve"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid.rho_points": 25}), encoding="utf-8")
        code = run_cli("learning-curve", "--truth", str(params), "--direct",
                       "--provision-seed", "3", "--config", str(config), "--out", str(out))
        assert code == 0
        rows = (out / "learning_curve.csv").read_text().splitlines()
        assert rows[0].startswith("sample_size,parameter,gamma")
        assert len(rows) == 1 + 2 * 5  # beta and rho per sample size

        report_out = tmp_path / "report"
        code = run_cli("report", "--curve", str(out / "learning_curve.csv"),
                       "--out", str(report_out))
        assert code == 0
        assert (report_out / "gamma_vs_s.csv").exists()

    def test_estimate_join_mode(self, tmp_path):
        params = make_params(tmp_path, n=3)
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--params-file", str(params), "--rounds", "25",
                "--seed", "2", "--out", str(sim_out))
        idx_out = tmp_path / "idx"
        run_cli("analyze", "--choices", str(sim_out / "choices.csv"), "--out", str(idx_out))
        out = tmp_path / "curve"
        code = run_cli("learning-curve", "--truth", str(params),
                       "--estimates", f"25={idx_out / 'index.csv'}", "--out", str(out))
        assert code == 0
        text = (out / "learning_curve.csv").read_text()
        assert text.splitlines()[1].startswith("25,beta,")

    def _index(self, tmp_path) -> tuple[Path, Path]:
        """A truth file and the index ``analyze`` writes for its simulated subjects."""
        params = make_params(tmp_path, n=3)
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--params-file", str(params), "--rounds", "10",
                "--seed", "2", "--out", str(sim_out))
        idx_out = tmp_path / "idx"
        run_cli("analyze", "--choices", str(sim_out / "choices.csv"), "--out", str(idx_out))
        return params, idx_out / "index.csv"

    def test_estimates_size_that_is_not_an_integer(self, tmp_path, capsys):
        params, index = self._index(tmp_path)
        code = run_cli("learning-curve", "--truth", str(params), "--estimates", f"x={index}",
                       "--out", str(tmp_path / "c"))
        assert code == 2
        assert f"malformed --estimates spec 'x={index}'" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["beta_hat", "rho_hat"])
    def test_estimates_value_that_is_not_a_number(self, tmp_path, capsys, column):
        params, index = self._index(tmp_path)
        lines = index.read_text(encoding="utf-8").splitlines()
        at = lines[0].split(",").index(column)
        cells = lines[2].split(",")
        cells[at] = "abc"
        lines[2] = ",".join(cells)
        index.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_cli("learning-curve", "--truth", str(params), "--estimates", f"10={index}",
                       "--out", str(tmp_path / "c"))
        assert code == 2
        assert f"{index}:3: bad beta_hat or rho_hat" in capsys.readouterr().err

    def test_mismatched_ids_fail_the_join(self, tmp_path, capsys):
        params = make_params(tmp_path, n=3)
        other = tmp_path / "other_params.csv"
        write_params_file(sample_population(9, 2), other)
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--params-file", str(other), "--rounds", "10",
                "--seed", "2", "--out", str(sim_out))
        idx_out = tmp_path / "idx"
        run_cli("analyze", "--choices", str(sim_out / "choices.csv"), "--out", str(idx_out))
        code = run_cli("learning-curve", "--truth", str(params),
                       "--estimates", f"10={idx_out / 'index.csv'}",
                       "--out", str(tmp_path / "c"))
        assert code == 2
        assert "do not match" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["report", "--index", "../../x=IDX"],
         "--index '../../x=IDX': label '../../x' is not a plain file name"),
        (["report", "--choices", "a/b=SIM"],
         "--choices 'a/b=SIM': label 'a/b' is not a plain file name"),
        (["report", "--index", "=IDX"], "--index '=IDX': label '' is not a plain file name"),
        # scatter_{label}.csv is 256 bytes
        (["report", "--choices", "y" * 244 + "=SIM"],
         f"--choices '{'y' * 244}=SIM': label '{'y' * 244}' is too long for a file name"),
        (["report", "--index", "a=IDX", "--index", "a=SIM"], "--index 'a=SIM': label 'a' repeats"),
        (["learning-curve", "--truth", "TRUTH", "--estimates", "10=IDX", "--estimates", "10=SIM"],
         "--estimates '10=SIM': sample size 10 repeats"),
    ], ids=["parent_dir", "slash", "empty", "too_long", "repeated_label", "repeated_size"])
    def test_spec_that_cannot_name_its_output(self, tmp_path, capsys, argv, message):
        params, index = self._index(tmp_path)
        paths = {"IDX": str(index), "SIM": str(tmp_path / "sim" / "choices.csv"),
                 "TRUTH": str(params)}

        def filled(text):
            for key, path in paths.items():
                text = text.replace(key, path)
            return text

        out = tmp_path / "rep"
        assert run_cli(*map(filled, argv), "--out", str(out)) == 2
        assert f"error: {filled(message)}" in capsys.readouterr().err
        assert not out.exists()

    def test_report_with_nothing_to_report_creates_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "rep_empty"
        assert run_cli("report", "--out", str(out)) == 2
        assert ("nothing to report: provide --index, --choices, or --curve"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_direct_rejects_estimates(self, tmp_path, capsys):
        # --direct recovers its own estimates: an --estimates path, even one that does not
        # exist, would be ignored yet listed among the manifest's inputs
        params = make_params(tmp_path, n=3)
        out = tmp_path / "curve"
        assert run_cli("learning-curve", "--truth", str(params), "--direct",
                       "--estimates", "25=nonexistent.csv", "--out", str(out)) == 2
        assert ("--estimates does not apply with --direct, which recovers its own estimates"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_report_panels_sorted_by_label(self, tmp_path):
        params = make_params(tmp_path, n=4)
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--params-file", str(params), "--rounds", "25",
                "--seed", "2", "--out", str(sim_out))
        idx_out = tmp_path / "idx"
        run_cli("analyze", "--choices", str(sim_out / "choices.csv"), "--out", str(idx_out))
        out = tmp_path / "rep"
        code = run_cli(
            "report",
            "--index", f"zeta={idx_out / 'index.csv'}",
            "--index", f"alpha={idx_out / 'index.csv'}",
            "--choices", f"alpha={sim_out / 'choices.csv'}",
            "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["arguments"]["panels"] == ["summary_alpha.csv", "summary_zeta.csv"]
        panel = (out / "summary_alpha.csv").read_text().splitlines()
        assert panel[0] == "variable,p5,p25,p50,p75,p95,mean,std,n"
        assert [row.split(",")[0] for row in panel[1:]] == ["ccei", "deut", "beta", "rho"]
        scatter = (out / "scatter_alpha.csv").read_text().splitlines()
        assert scatter[0] == "subject_id,round,log_price_ratio,relative_demand_a"
        assert len(scatter) == 1 + 4 * 25


def _csv_rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestTableFiles:
    """Every CSV a command reads is checked; every CSV it writes reads back."""

    def _pipeline(self, root: Path, ids: list[str]) -> Path:
        """simulate, analyze, then report and learning-curve on the index, for three subjects."""
        root.mkdir()
        params = root / "params.csv"
        write_params_file([(sid, p) for sid, (_, p) in zip(ids, sample_population(0, 3))], params)
        choices, index = root / "sim" / "choices.csv", root / "idx" / "index.csv"
        assert run_cli("simulate", "--params-file", str(params), "--rounds", "25",
                       "--seed", "2", "--out", str(root / "sim")) == 0
        assert run_cli("analyze", "--choices", str(choices), "--out", str(root / "idx")) == 0
        assert run_cli("report", "--index", f"x={index}", "--choices", f"x={choices}",
                       "--out", str(root / "rep")) == 0
        assert run_cli("learning-curve", "--truth", str(params), "--estimates", f"25={index}",
                       "--out", str(root / "curve")) == 0
        return root

    def test_ids_with_a_comma_or_a_quote_round_trip(self, tmp_path):
        # both id lists sort alike, so every per-subject order is the same
        plain_ids, quoted_ids = ["s1", "s2", "s3"], ['s"1', "s,2", "s3"]
        plain = self._pipeline(tmp_path / "plain", plain_ids)
        quoted = self._pipeline(tmp_path / "quoted", quoted_ids)
        for name in ("rep/summary_x.csv", "curve/learning_curve.csv"):
            assert (quoted / name).read_bytes() == (plain / name).read_bytes()
        rename = dict(zip(plain_ids, quoted_ids))
        for name in ("sim/choices.csv", "idx/index.csv", "rep/scatter_x.csv"):
            header, *rows = _csv_rows(plain / name)
            assert _csv_rows(quoted / name) == [header] + [[rename[r[0]], *r[1:]] for r in rows]
        lines = (quoted / "idx" / "index.csv").read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[0] for line in lines[1:3]] == ['"s""1"', '"s']
        assert lines[3].startswith("s3,")  # a plain id stays unquoted

    def _index(self, tmp_path) -> Path:
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--params-file", str(make_params(tmp_path, n=3)), "--rounds", "10",
                "--seed", "2", "--out", str(sim_out))
        idx_out = tmp_path / "idx"
        run_cli("analyze", "--choices", str(sim_out / "choices.csv"), "--out", str(idx_out))
        return idx_out / "index.csv"

    def _edit_row(self, path: Path, row: int, edit) -> None:
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[row - 1] = edit(lines[row - 1])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_short_schedule_row(self, tmp_path, capsys):
        schedule = tmp_path / "schedule.csv"
        write_schedule(generate_budgets(1, 25), schedule)
        self._edit_row(schedule, 3, lambda line: ",".join(line.split(",")[:3]))
        assert run_cli("experiment", "--treatment", "decision", "--schedule-file", str(schedule),
                       "--out", str(tmp_path / "exp")) == 2
        assert f"{schedule}: row 3: expected 6 fields, got 3" in capsys.readouterr().err

    def test_short_index_row(self, tmp_path, capsys):
        index = self._index(tmp_path)
        self._edit_row(index, 3, lambda line: line.rsplit(",", 1)[0])
        assert run_cli("report", "--index", f"x={index}", "--out", str(tmp_path / "rep")) == 2
        assert f"{index}: row 3: expected 8 fields, got 7" in capsys.readouterr().err

    def test_index_ccei_that_is_not_a_number(self, tmp_path, capsys):
        index = self._index(tmp_path)

        def spoil_ccei(line):
            fields = line.split(",")
            fields[1] = "abc"
            return ",".join(fields)

        self._edit_row(index, 3, spoil_ccei)
        assert run_cli("report", "--index", f"x={index}", "--out", str(tmp_path / "rep")) == 2
        assert f"{index}: row 3, column 'ccei': not a number: 'abc'" in capsys.readouterr().err

    def test_curve_file_with_another_header(self, tmp_path, capsys):
        index = self._index(tmp_path)
        assert run_cli("report", "--curve", str(index), "--out", str(tmp_path / "rep")) == 2
        err = capsys.readouterr().err
        assert f"{index}: row 1: unrecognized header" in err
        assert "expected sample_size,parameter,gamma," in err

    def test_repeated_params_id(self, tmp_path, capsys):
        params = tmp_path / "params.csv"
        params.write_text("subject_id,beta,rho\ns1,0.1,0.5\ns2,0.2,0.6\ns1,0.0,1.0\n",
                          encoding="utf-8")
        out = tmp_path / "exp"
        assert run_cli("experiment", "--treatment", "decision", "--params-file", str(params),
                       "--out", str(out)) == 2
        assert f"{params}: rows 2 and 4: subject_id 's1' repeats" in capsys.readouterr().err
        assert not (out / "choices.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["analyze", "--choices", "BAD_CHOICES"],
        ["simulate", "--params-file", "REPEATED_ID"],
        ["simulate", "--params-file", "PARAMS", "--rounds", "0"],
        ["learning-curve", "--truth", "REPEATED_ID", "--direct"],
        ["report", "--choices", "x=BAD_CHOICES"],
    ], ids=["analyze_non_numeric_return", "simulate_repeated_id", "simulate_no_rounds",
            "direct_curve_repeated_id", "report_malformed_choices"])
    def test_bad_input_exits_before_out_exists(self, tmp_path, argv):
        paths = {"BAD_CHOICES": tmp_path / "choices.csv", "REPEATED_ID": tmp_path / "repeated.csv",
                 "PARAMS": make_params(tmp_path)}
        paths["BAD_CHOICES"].write_text(",".join(RETURNS_HEADER) + "\ns1,1,0.5,abc,40,60\n",
                                        encoding="utf-8")
        paths["REPEATED_ID"].write_text("subject_id,beta,rho\ns1,0.1,0.5\ns1,0.0,1.0\n",
                                        encoding="utf-8")

        def filled(text):
            for key, path in paths.items():
                text = text.replace(key, str(path))
            return text

        out = tmp_path / "out"
        assert run_cli(*map(filled, argv), "--out", str(out)) == 2
        assert not out.exists()

    def test_index_writer_matches_the_joined_lines(self, tmp_path):
        reports = [
            IndexReport("s1", 1.0, 0.0, 0, 0.1, 0.6, 1e-300, ()),
            IndexReport("s2", 0.1 + 0.2, 5e-324, 3, -0.95, 5.0, float("inf"),
                        ("no_convergence", "rescaled:2")),
            IndexReport("h-03", 0.875, 1.5e-7, 12, 3.0, 0.05, float("nan"),
                        ("insufficient_rounds",)),
        ]
        path = tmp_path / "index.csv"
        _write_index_reports(reports, path)
        # the lines the index writer joined by hand before it used the table writer
        lines = [",".join(INDEX_COLUMNS)] + [",".join([
            rep.subject_id, format_float(rep.ccei), format_float(rep.deut), str(rep.fosd_count),
            format_float(rep.beta_hat), format_float(rep.rho_hat), format_float(rep.loss),
            ";".join(rep.flags),
        ]) for rep in reports]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


# Runs each command in turn in one fresh interpreter and prints, after each,
# the scipy and requests modules it holds so far.
_FOOTPRINT = """
import json, sys
from prefbench.cli import main

out = sys.argv[1]
config = f"{out}/config.json"
open(config, "w").write(json.dumps({"grid.rho_points": 10}))
commands = [
    ["sample-params", "--n", "4", "--seed", "1", "--out", f"{out}/pop"],
    ["simulate", "--params-file", f"{out}/pop/params.csv", "--rounds", "25", "--out", f"{out}/sim"],
    ["experiment", "--treatment", "decision", "--sessions", "2", "--out", f"{out}/exp"],
    ["learning-curve", "--truth", f"{out}/pop/params.csv", "--direct", "--config", config,
     "--out", f"{out}/curve"],
    ["analyze", "--choices", f"{out}/sim/choices.csv", "--jobs", "1", "--config", config,
     "--out", f"{out}/idx"],
]
for argv in commands:
    try:
        main(argv)
    except SystemExit as exc:
        if exc.code not in (0, 4):
            raise
    print(json.dumps([m for m in sorted(sys.modules) if m.partition(".")[0] in ("scipy", "requests")]))
"""


class TestImportFootprint:
    def test_commands_import_only_the_scipy_they_run(self, tmp_path):
        lines = run_python(_FOOTPRINT, str(tmp_path)).splitlines()
        *before_analyze, after_analyze = [set(json.loads(line)) for line in lines]
        assert len(before_analyze) == 4
        for loaded in before_analyze:
            assert not loaded & {"scipy.optimize", "scipy.special", "requests"}
        # only scoring loads scipy: ccei's strong components
        assert "scipy.sparse.csgraph" in after_analyze
        assert not after_analyze & {"scipy.optimize", "scipy.special", "requests"}
