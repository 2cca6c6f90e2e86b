"""Tests of the benchmark itself: smoke runs, tamper detection, the contract.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402  (puts the package sources on the path)
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracing import span_totals  # noqa: E402


def bench_run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_has_no_failures(name):
    proc = bench_run(name, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["experiment_mock", "experiment_http"])
def test_traced_smoke_run_reports_every_layer(name):
    proc = bench_run(name, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert [k for k in result["metrics"]] == [m[0] for m in PER_LAYER]
    assert result["metrics"]["harness.backends.send.calls"]["value"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = bench_run("curve_direct", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_child_self_time_beyond_its_root_is_reported():
    # [id, name, start, end, parent, label]
    nested = [[0, "cli.command", 0.0, 1.0, None, None], [1, "a", 0.1, 0.6, 0, None],
              [2, "b", 0.2, 0.3, 1, None]]
    totals, derived = span_totals(nested)
    assert totals["a"] == [1, 0.5, pytest.approx(0.4)]
    assert derived["root_excess_s"] == 0.0
    overlapping = nested + [[3, "c", 0.5, 1.2, 0, None]]
    assert span_totals(overlapping)[1]["root_excess_s"] == pytest.approx(0.2)


def run_and_check(workload, tamper=None):
    batch = workload.prepare(0)
    runs = worker.run_commands(workload, batch, "")
    if tamper is not None:
        tamper(batch, runs)
    return workload.check(batch, runs)


def test_edited_index_row_fails_that_subject(tmp_path):
    def tamper(batch, runs):
        path = runs[0].command.out / "index.csv"
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        rows[0]["rho_hat"] = repr(float(rows[0]["rho_hat"]) + 0.2)
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)

    workload = workloads.AnalyzeMixed175(tmp_path, seed=3)
    assert not any(run_and_check(workload).values())
    outcome = run_and_check(workloads.AnalyzeMixed175(tmp_path / "t", seed=3), tamper)
    failed = [u for u, reason in outcome.items() if reason]
    assert len(failed) == 1 and "rho_hat" in outcome[failed[0]]


def test_garbling_endpoint_fails_every_session(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.FakeChatEndpoint, "garbled", lambda self, r, reask: True)
    outcome = run_and_check(workloads.ExperimentHttp(tmp_path, seed=3))
    assert outcome and all(outcome.values())


def test_lost_transcript_fails_the_resume_check(tmp_path):
    def tamper(batch, runs):
        write, _, resume, _ = runs
        next((write.command.out / "transcripts").iterdir()).unlink()
        code, error = workloads.run_cli(resume.command.argv)
        runs[2] = workloads.CommandRun(resume.command, code, error, 0.0,
                                       {"choices.csv": worker.sha256(resume.command.out
                                                                     / "choices.csv")})

    outcome = run_and_check(workloads.ExperimentMock(tmp_path, seed=3), tamper)
    failed = {u for u, reason in outcome.items() if reason}
    assert failed == {u for u in outcome if u.startswith("decision:")}
    assert all("resumed" in outcome[u] for u in failed)
