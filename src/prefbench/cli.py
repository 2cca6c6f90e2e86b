"""Command-line entry point wiring the library into reproducible pipelines.

Every command writes its outputs plus a ``manifest.json`` snapshot (command,
arguments, config, seeds, package version, timestamps) into the --out
directory.  Exit codes: 0 success, 2 validation/configuration error,
3 backend error, 4 completed with anomaly flags.
"""

from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import click

from . import __version__
from .da_model import DAParams
from .data import (
    Provenance,
    SubjectDataset,
    format_float,
    read_dataset,
    write_dataset,
)
from .errors import BackendError, ConfigError, SessionError, ValidationError
from .estimation import RecoveryConfig
from .harness import (
    Treatment,
    TreatmentKind,
    TranscriptWriter,
    load_transcript,
    make_backend,
    run_decision_session,
    run_recommendation_session,
    transcript_to_dataset,
)
from .harness.backends import BackendConfig, MockDecisionBackend
from .simulation import (
    evaluation_schedule,
    generate_budgets,
    read_params_file,
    read_schedule,
    sample_population,
    simulate_subject,
    write_params_file,
    write_schedule,
)
from .stats import summarize
from .workflows import (
    LEARNING_SAMPLE_SIZES,
    PROVISION_ROUNDS,
    IndexReport,
    analyze_subject,
    learning_curve_direct,
    regress_per_size,
)

INDEX_COLUMNS = ["subject_id", "ccei", "deut", "fosd_count", "beta_hat", "rho_hat", "loss", "flags"]


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def load_config(path: str | None) -> dict:
    """Flat key-value JSON configuration; dotted keys, see README for the list."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def write_manifest(out: Path, command: str, arguments: dict, seeds: dict,
                   inputs: list[str], outputs: list[str], started_at: str) -> None:
    manifest = {
        "command": command,
        "arguments": arguments,
        "seeds": seeds,
        "inputs": inputs,
        "outputs": outputs,
        "artifact_version": __version__,
        "started_at": started_at,
        "finished_at": _now(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _write_index_reports(reports: list[IndexReport], path: Path, fmt: str) -> None:
    if fmt == "jsonl":
        with path.open("w", encoding="utf-8") as fh:
            for rep in reports:
                obj = asdict(rep)
                obj["flags"] = list(rep.flags)
                fh.write(json.dumps(obj) + "\n")
        return
    lines = [",".join(INDEX_COLUMNS)]
    for rep in reports:
        lines.append(
            ",".join(
                [
                    rep.subject_id,
                    format_float(rep.ccei),
                    format_float(rep.deut),
                    str(rep.fosd_count),
                    format_float(rep.beta_hat),
                    format_float(rep.rho_hat),
                    format_float(rep.loss),
                    ";".join(rep.flags),
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_index_csv(path: Path) -> list[dict]:
    import csv as _csv

    with path.open(newline="", encoding="utf-8") as fh:
        reader = _csv.DictReader(fh)
        if reader.fieldnames != INDEX_COLUMNS:
            raise ValidationError(f"{path}: expected index columns {INDEX_COLUMNS}")
        return list(reader)


@click.group()
def cli():
    """Revealed-preference workbench for two-asset budget experiments."""


@cli.command("sample-params")
@click.option("--n", type=int, required=True, help="Population size.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_sample_params(n: int, seed: int, out_dir: str):
    """Draw a synthetic (beta, rho) population from the representative box."""
    started = _now()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_params_file(sample_population(seed, n), out / "params.csv")
    write_manifest(out, "sample-params", {"n": n}, {"seed": seed}, [], ["params.csv"], started)


@cli.command("simulate")
@click.option("--params-file", type=click.Path(exists=True), required=True)
@click.option("--rounds", type=int, default=PROVISION_ROUNDS, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--shared-schedule", is_flag=True,
              help="Give every subject the same schedule instead of per-subject draws.")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_simulate(params_file: str, rounds: int, seed: int, shared_schedule: bool, out_dir: str):
    """Exact optimal choice data for a parameter population."""
    started = _now()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    population = read_params_file(params_file)
    datasets = []
    for i, (sid, params) in enumerate(population):
        schedule = generate_budgets(seed if shared_schedule else seed + i, rounds)
        datasets.append(simulate_subject(params, schedule, sid).dataset)
    write_dataset(datasets, out / "choices.csv")
    write_schedule(generate_budgets(seed, rounds), out / "schedule.csv")
    write_manifest(
        out, "simulate",
        {"params_file": params_file, "rounds": rounds, "shared_schedule": shared_schedule},
        {"seed": seed}, [params_file], ["choices.csv", "schedule.csv"], started,
    )


@cli.command("analyze")
@click.option("--choices", "choices_file", type=click.Path(exists=True), required=True)
@click.option("--config", "config_file", type=click.Path(exists=True), default=None)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default="csv")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_analyze(choices_file: str, config_file: str | None, jobs: int, fmt: str, out_dir: str):
    """Per-subject indices: CCEI, EU-deviation, FOSD count, recovered parameters."""
    started = _now()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    datasets = read_dataset(choices_file)
    if not datasets:
        raise ValidationError(f"{choices_file}: no subjects")
    config = RecoveryConfig.from_mapping(load_config(config_file))
    worker = partial(analyze_subject, config=config)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(worker, datasets))
    else:
        reports = [worker(ds) for ds in datasets]
    reports.sort(key=lambda rep: rep.subject_id)
    name = "index.jsonl" if fmt == "jsonl" else "index.csv"
    _write_index_reports(reports, out / name, fmt)
    write_manifest(out, "analyze", {"choices": choices_file, "jobs": jobs, "format": fmt},
                   {}, [choices_file], [name], started)
    if any(rep.flags for rep in reports):
        sys.exit(4)


@cli.command("experiment")
@click.option("--config", "config_file", type=click.Path(exists=True), default=None)
@click.option("--treatment", type=click.Choice(["decision", "recommendation", "personalized"]),
              required=True)
@click.option("--sessions", type=int, default=1, show_default=True,
              help="Session count for decision/recommendation treatments.")
@click.option("--params-file", type=click.Path(exists=True), default=None,
              help="Mock backend only: per-session preference parameters.")
@click.option("--sample-data", type=click.Path(exists=True), default=None,
              help="Personalized treatment: choice CSV supplying one session per subject.")
@click.option("--sample-size", type=int, default=None,
              help="Personalized treatment: rounds of sample data shown.")
@click.option("--schedule-file", type=click.Path(exists=True), default=None,
              help="Evaluation schedule CSV; defaults to the shared 25-round schedule.")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_experiment(config_file, treatment, sessions, params_file, sample_data, sample_size,
                   schedule_file, out_dir):
    """Run harness sessions; resumable, transcripts as JSONL plus parsed choices."""
    started = _now()
    out = Path(out_dir)
    (out / "transcripts").mkdir(parents=True, exist_ok=True)
    cfg = load_config(config_file)
    backend_config = BackendConfig.from_mapping(cfg)
    schedule = read_schedule(schedule_file) if schedule_file else evaluation_schedule()

    kind = {
        "decision": TreatmentKind.DECISION,
        "recommendation": TreatmentKind.RECOMMENDATION,
        "personalized": TreatmentKind.PERSONALIZED_RECOMMENDATION,
    }[treatment]

    population = read_params_file(params_file) if params_file else None
    if population is not None and backend_config.kind != "mock":
        raise ConfigError("--params-file applies to the mock backend only")

    # (session_id, treatment, backend) triples
    plans = []
    if kind is TreatmentKind.PERSONALIZED_RECOMMENDATION:
        if sample_data is None:
            raise ValidationError("personalized treatment requires --sample-data")
        samples = read_dataset(sample_data)
        by_id = {sid: params for sid, params in population} if population else {}
        for ds in samples:
            t = Treatment(kind, sample_data=ds, sample_size=sample_size)
            backend = (
                MockDecisionBackend(by_id[ds.subject_id])
                if by_id.get(ds.subject_id) is not None
                else make_backend(backend_config)
            )
            plans.append((ds.subject_id, t, backend))
    else:
        t = Treatment(kind)
        if population:
            for sid, params in population:
                plans.append((sid, t, MockDecisionBackend(params)))
        else:
            backend = make_backend(backend_config)
            width = max(3, len(str(sessions)))
            for i in range(1, sessions + 1):
                plans.append((f"{treatment}{i:0{width}d}", t, backend))

    datasets, anomalies, resumed = [], 0, 0
    for session_id, t, backend in plans:
        path = out / "transcripts" / f"{session_id}.jsonl"
        transcript = None
        if path.exists():
            try:
                candidate = load_transcript(path)
                if candidate.complete():
                    transcript, resumed = candidate, resumed + 1
            except ValidationError:
                transcript = None
        if transcript is None:
            path.unlink(missing_ok=True)
            writer = TranscriptWriter(path)
            if kind is TreatmentKind.DECISION:
                transcript = run_decision_session(backend, schedule, session_id, writer)
            else:
                transcript = run_recommendation_session(backend, t, schedule, session_id, writer)
        anomalies += len(transcript.anomalies())
        try:
            datasets.append(transcript_to_dataset(transcript, schedule, session_id))
        except ValidationError:
            pass  # a session with zero usable rounds contributes no subject
    if datasets:
        write_dataset(datasets, out / "choices.csv")
    write_manifest(
        out, "experiment",
        {"treatment": treatment, "sessions": len(plans), "sample_size": sample_size,
         "resumed": resumed, "config": cfg},
        {}, [p for p in (config_file, params_file, sample_data, schedule_file) if p],
        ["choices.csv", "transcripts/"], started,
    )
    if anomalies:
        sys.exit(4)


@cli.command("learning-curve")
@click.option("--truth", "truth_file", type=click.Path(exists=True), required=True)
@click.option("--estimates", "estimate_specs", multiple=True, metavar="S=INDEX_CSV",
              help="Recovered-parameter index CSV for sample size S; repeatable.")
@click.option("--direct", is_flag=True,
              help="Run the full simulate->recover pipeline instead of joining estimates.")
@click.option("--provision-seed", type=int, default=0, show_default=True)
@click.option("--config", "config_file", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_learning_curve(truth_file, estimate_specs, direct, provision_seed, config_file, out_dir):
    """Alignment regressions of recovered on generating parameters, per sample size."""
    started = _now()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    population = read_params_file(truth_file)
    truth = dict(population)
    config = RecoveryConfig.from_mapping(load_config(config_file))

    if direct:
        rows, _ = learning_curve_direct(population, provision_seed,
                                        LEARNING_SAMPLE_SIZES, config)
    else:
        if not estimate_specs:
            raise ValidationError("provide --estimates S=PATH pairs or use --direct")
        estimates_by_size = {}
        for spec in estimate_specs:
            size_str, _, path = spec.partition("=")
            if not path:
                raise ValidationError(f"malformed --estimates spec {spec!r}; expected S=PATH")
            rows_in = _read_index_csv(Path(path))
            estimates_by_size[int(size_str)] = {
                row["subject_id"]: DAParams(float(row["beta_hat"]), float(row["rho_hat"]))
                for row in rows_in
            }
        rows = regress_per_size(truth, estimates_by_size)

    lines = ["sample_size,parameter,gamma,se_gamma,alpha,se_alpha,p_gamma,p_alpha,n"]
    for row in rows:
        reg = row.regression
        lines.append(",".join([
            str(row.sample_size), row.parameter,
            format_float(reg.gamma), format_float(reg.se_gamma),
            format_float(reg.alpha), format_float(reg.se_alpha),
            format_float(reg.p_gamma), format_float(reg.p_alpha), str(reg.n),
        ]))
    (out / "learning_curve.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_manifest(
        out, "learning-curve",
        {"truth": truth_file, "estimates": list(estimate_specs), "direct": direct},
        {"provision_seed": provision_seed},
        [truth_file] + [s.partition("=")[2] for s in estimate_specs],
        ["learning_curve.csv"], started,
    )


@cli.command("report")
@click.option("--index", "index_specs", multiple=True, metavar="LABEL=INDEX_CSV")
@click.option("--choices", "choice_specs", multiple=True, metavar="LABEL=CHOICES_CSV",
              help="Emit (log price ratio, relative demand) scatter data per label.")
@click.option("--curve", "curve_file", type=click.Path(exists=True), default=None,
              help="learning_curve.csv to reshape into gamma-vs-sample-size plot data.")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_report(index_specs, choice_specs, curve_file, out_dir):
    """Summary panels and plot-ready CSVs."""
    started = _now()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []

    def parse_specs(specs):
        pairs = []
        for spec in specs:
            label, _, path = spec.partition("=")
            if not path:
                raise ValidationError(f"malformed spec {spec!r}; expected LABEL=PATH")
            pairs.append((label, Path(path)))
        return sorted(pairs)

    panels = []
    for label, path in parse_specs(index_specs):
        rows = _read_index_csv(path)
        if not rows:
            raise ValidationError(f"{path}: empty index file")
        panel_lines = ["variable,p5,p25,p50,p75,p95,mean,std,n"]
        for variable, column in (("ccei", "ccei"), ("deut", "deut"),
                                 ("beta", "beta_hat"), ("rho", "rho_hat")):
            row = summarize([float(r[column]) for r in rows])
            panel_lines.append(",".join(
                [variable] + [format_float(v) for v in
                              (row.p5, row.p25, row.p50, row.p75, row.p95, row.mean, row.std)]
                + [str(row.n)]
            ))
        name = f"summary_{label}.csv"
        (out / name).write_text("\n".join(panel_lines) + "\n", encoding="utf-8")
        panels.append(name)
        outputs.append(name)

    for label, path in parse_specs(choice_specs):
        datasets = read_dataset(path)
        lines = ["subject_id,round,log_price_ratio,relative_demand_a"]
        for ds in datasets:
            for rd in ds.rounds:
                ratio = math.log(rd.prices.p_a / rd.prices.p_b)
                share = rd.demand[0] / (rd.demand[0] + rd.demand[1])
                lines.append(f"{ds.subject_id},{rd.round},{format_float(ratio)},{format_float(share)}")
        name = f"scatter_{label}.csv"
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        outputs.append(name)

    if curve_file:
        import csv as _csv

        with open(curve_file, newline="", encoding="utf-8") as fh:
            curve_rows = list(_csv.DictReader(fh))
        lines = ["parameter,sample_size,gamma,se_gamma"]
        for row in sorted(curve_rows, key=lambda r: (r["parameter"], int(r["sample_size"]))):
            lines.append(",".join([row["parameter"], row["sample_size"], row["gamma"], row["se_gamma"]]))
        (out / "gamma_vs_s.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        outputs.append("gamma_vs_s.csv")

    if not outputs:
        raise ValidationError("nothing to report: provide --index, --choices, or --curve")
    write_manifest(out, "report", {"panels": panels}, {},
                   [str(p) for _, p in parse_specs(index_specs) + parse_specs(choice_specs)],
                   outputs, started)


def main(argv: list[str] | None = None) -> None:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except (ValidationError, ConfigError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except (BackendError, SessionError) as exc:
        click.echo(f"backend error: {exc}", err=True)
        sys.exit(3)
    sys.exit(0)


if __name__ == "__main__":
    main()
