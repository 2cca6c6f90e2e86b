from __future__ import annotations

import json
from pathlib import Path

import pytest

from prefbench.cli import main
from prefbench.data import read_dataset
from prefbench.harness.sessions import load_transcript
from prefbench.simulation import sample_population, write_params_file


def run_cli(*argv: str) -> int:
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    return excinfo.value.code or 0


def make_params(tmp_path: Path, n: int = 3, seed: int = 0) -> Path:
    path = tmp_path / "params.csv"
    write_params_file(sample_population(seed, n), path)
    return path


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

    def test_jsonl_format(self, tmp_path):
        params = make_params(tmp_path, n=2)
        sim_out = tmp_path / "sim"
        run_cli("simulate", "--params-file", str(params), "--rounds", "10",
                "--seed", "2", "--out", str(sim_out))
        out = tmp_path / "idx"
        run_cli("analyze", "--choices", str(sim_out / "choices.csv"), "--format", "jsonl",
                "--out", str(out))
        lines = (out / "index.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["ccei"] == 1.0


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
