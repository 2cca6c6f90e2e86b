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
from dataclasses import astuple
from datetime import datetime, timezone
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Mapping, get_type_hints

import click

from . import __version__
from .da_model import DAParams
from .data import read_dataset, read_table, write_dataset, write_table
from .errors import BackendError, ConfigError, SessionError, ValidationError
from .estimation import RecoveryConfig, _beta_rows
from .harness import TreatmentKind, make_backend
from .harness.backends import BackendConfig
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
    analyze_batch,
    experiment_plans,
    learning_curve_direct,
    regress_per_size,
    run_experiment,
)

INDEX_COLUMNS = ("subject_id", "ccei", "deut", "fosd_count", "beta_hat", "rho_hat", "loss", "flags")
# beta_hat and rho_hat stay strings here: _read_index parses them into DAParams
_INDEX_TYPES = (str, float, float, int, str, str, float, str)
_CURVE_COLUMNS = ("sample_size", "parameter", "gamma", "se_gamma", "alpha", "se_alpha",
                  "p_gamma", "p_alpha", "n")
_CURVE_TYPES = (int, str, float, float, float, float, float, float, int)

# the most cells (beta rows x rho points) a recovery grid may have: 3,495 times the default
_MAX_GRID_CELLS = 2**24

# the longest file name, in bytes, on common file systems (ext4, XFS, Btrfs)
_MAX_NAME_BYTES = 255

# every --config key: its config class, field and valid range ("" for any value; a
# bound that names a key is that key's value); the field's annotation gives the type
_CONFIG_KEYS = {
    "grid.beta_min": (RecoveryConfig, "beta_min", "> -1"),
    "grid.beta_max": (RecoveryConfig, "beta_max", ">= grid.beta_min"),
    "grid.beta_step": (RecoveryConfig, "beta_step", "> 0"),
    "grid.rho_points": (RecoveryConfig, "rho_points", ">= 1"),
    "grid.rho_min": (RecoveryConfig, "rho_min", "> 0"),
    "grid.rho_max": (RecoveryConfig, "rho_max", ">= grid.rho_min"),
    "refine.max_evals": (RecoveryConfig, "max_evals", ">= 1"),
    "refine.tol": (RecoveryConfig, "tol", ">= 0"),
    "backend.kind": (BackendConfig, "kind", ""),
    "backend.endpoint": (BackendConfig, "endpoint", ""),
    "backend.model": (BackendConfig, "model", ""),
    "backend.temperature": (BackendConfig, "temperature", ">= 0"),
    "backend.max_retries": (BackendConfig, "max_retries", ">= 1"),
    "backend.timeout": (BackendConfig, "timeout", "> 0"),
    "backend.rate_per_min": (BackendConfig, "rate_per_min", ">= 1"),
    "backend.concurrency": (BackendConfig, "concurrency", ">= 1"),
    "backend.mock_beta": (BackendConfig, "mock_beta", "> -1"),
    "backend.mock_rho": (BackendConfig, "mock_rho", "> 0"),
}


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


def _config_value(key: str, value: object, kind: type) -> object:
    """``value`` as a str, an int (an integral number) or a finite float; else ConfigError."""
    if kind is str and isinstance(value, str):
        return value
    if kind is not str and isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is int and (isinstance(value, int) or value.is_integer()):
            return int(value)
        if kind is float and abs(value) <= sys.float_info.max:  # not nan, inf or a huge int
            return float(value)
    expected = {str: "a string", int: "an integer", float: "a finite number"}[kind]
    raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")


def _parse_config(cfg: Mapping[str, object]) -> tuple[RecoveryConfig, BackendConfig]:
    """The recovery and backend settings of a dotted-key config; ConfigError names a bad key."""
    unknown = sorted(set(cfg) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}")
    settings: dict[type, dict[str, object]] = {RecoveryConfig: {}, BackendConfig: {}}
    values = {}
    for key, (cls, name, valid) in _CONFIG_KEYS.items():
        values[key] = getattr(cls, name)
        if key in cfg:
            value = _config_value(key, cfg[key], get_type_hints(cls)[name])
            if valid:
                op, bound = valid.split(" ")
                limit = values[bound] if bound in values else float(bound)
                if not (value >= limit if op == ">=" else value > limit):
                    raise ConfigError(f"config key {key!r} must be {valid}, got {value!r}")
            values[key] = settings[cls][name] = value
    recovery = RecoveryConfig(**settings[RecoveryConfig])
    beta_rows = _beta_rows(recovery)
    if beta_rows * recovery.rho_points > _MAX_GRID_CELLS:
        raise ConfigError(
            f"config keys 'grid.beta_min', 'grid.beta_max', 'grid.beta_step' and 'grid.rho_points' "
            f"give a grid of {beta_rows:g} x {recovery.rho_points} cells, more than {_MAX_GRID_CELLS}")
    return recovery, BackendConfig(**settings[BackendConfig])


def _check_file_name(name: str, file_name: str, what: str) -> None:
    """ValidationError naming ``what`` unless ``name`` makes ``file_name`` a plain file name."""
    if name in ("", ".", "..") or "/" in name or "\0" in name:
        raise ValidationError(f"{what} {name!r} is not a plain file name")
    if len(file_name.encode()) > _MAX_NAME_BYTES:
        raise ValidationError(f"{what} {name!r} is too long for a file name")


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


def _write_index_reports(reports: list[IndexReport], path: Path) -> None:
    write_table(path, INDEX_COLUMNS, ((*attrgetter(*INDEX_COLUMNS[:-1])(rep), ";".join(rep.flags))
                                      for rep in reports))


def _read_index(path: str | Path) -> list[tuple[str, float, float, DAParams]]:
    """(subject_id, ccei, deut, recovered parameters) for each row of an ``analyze`` index."""
    rows = []
    for row_num, (sid, ccei, deut, _, beta, rho, _, _) in read_table(
            path, {INDEX_COLUMNS: lambda *fields: fields}, _INDEX_TYPES):
        try:
            rows.append((sid, ccei, deut, DAParams(float(beta), float(rho))))
        except ValueError as exc:
            raise ValidationError(f"{path}:{row_num}: bad beta_hat or rho_hat: {exc}") from None
    return rows


@click.group()
def cli():
    """Revealed-preference workbench for two-asset budget experiments."""


@cli.command("sample-params")
@click.option("--n", type=click.IntRange(min=1), required=True, help="Population size.")
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
@click.option("--rounds", type=click.IntRange(min=1), default=PROVISION_ROUNDS, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--shared-schedule", is_flag=True,
              help="Give every subject the same schedule instead of per-subject draws.")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_simulate(params_file: str, rounds: int, seed: int, shared_schedule: bool, out_dir: str):
    """Exact optimal choice data for a parameter population."""
    started = _now()
    population = read_params_file(params_file)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_analyze(choices_file: str, config_file: str | None, jobs: int, out_dir: str):
    """Per-subject indices: CCEI, EU-deviation, FOSD count, recovered parameters."""
    started = _now()
    cfg = load_config(config_file)
    config, _ = _parse_config(cfg)
    datasets = read_dataset(choices_file)
    if not datasets:
        raise ValidationError(f"{choices_file}: no subjects")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_chunks = min(jobs, len(datasets))
    if n_chunks > 1:
        # contiguous non-empty chunks, one recovery batch and one worker each:
        # under the fork start method the pool starts all its workers at once
        bounds = [len(datasets) * k // n_chunks for k in range(n_chunks + 1)]
        chunks = [datasets[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            reports = [rep for part in pool.map(partial(analyze_batch, config=config), chunks)
                       for rep in part]
    else:
        reports = analyze_batch(datasets, config)
    reports.sort(key=lambda rep: rep.subject_id)
    _write_index_reports(reports, out / "index.csv")
    write_manifest(out, "analyze", {"choices": choices_file, "jobs": jobs,
                                    **({"config": cfg} if config_file else {})},
                   {}, [p for p in (config_file, choices_file) if p], ["index.csv"], started)
    if any(rep.flags for rep in reports):
        sys.exit(4)


@cli.command("experiment")
@click.option("--config", "config_file", type=click.Path(exists=True), default=None)
@click.option("--treatment", type=click.Choice(["decision", "recommendation", "personalized"]),
              required=True)
@click.option("--sessions", type=click.IntRange(min=1), default=1, show_default=True,
              help="Session count for decision/recommendation treatments.")
@click.option("--params-file", type=click.Path(exists=True), default=None,
              help="Mock backend only: per-session preference parameters.")
@click.option("--sample-data", type=click.Path(exists=True), default=None,
              help="Personalized treatment: choice CSV supplying one session per subject.")
@click.option("--sample-size", type=click.IntRange(min=1), default=None,
              help="Personalized treatment: rounds of sample data shown.")
@click.option("--schedule-file", type=click.Path(exists=True), default=None,
              help="Evaluation schedule CSV; defaults to the shared 25-round schedule.")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_experiment(config_file, treatment, sessions, params_file, sample_data, sample_size,
                   schedule_file, out_dir):
    """Run harness sessions; resumable, transcripts as JSONL plus parsed choices."""
    started = _now()
    cfg = load_config(config_file)
    _, backend_config = _parse_config(cfg)
    kind = TreatmentKind("personalized_recommendation" if treatment == "personalized" else treatment)
    if params_file and backend_config.kind != "mock":
        raise ConfigError("--params-file applies to the mock backend only")
    personalized = kind is TreatmentKind.PERSONALIZED_RECOMMENDATION
    if personalized and sample_data is None:
        raise ValidationError("personalized treatment requires --sample-data")
    if not personalized and (sample_data is not None or sample_size is not None):
        raise ValidationError("--sample-data and --sample-size apply to the personalized "
                              "treatment only")
    schedule = read_schedule(schedule_file) if schedule_file else evaluation_schedule()
    population = read_params_file(params_file) if params_file else None
    samples = read_dataset(sample_data) if sample_data else None
    if sample_data and not samples:
        raise ValidationError(f"{sample_data}: no subjects")
    plans = experiment_plans(kind, make_backend(backend_config), population, samples,
                             sample_size, sessions, schedule)
    # each id names a transcript file; ids come from --sample-data, else from --params-file
    for session_id, _, _ in plans:
        _check_file_name(session_id, f"{session_id}.jsonl",
                         f"{sample_data or params_file}: session id")
    out = Path(out_dir)
    # the mock computes under the interpreter lock, so only http sessions gain from threads
    workers = backend_config.concurrency if backend_config.kind == "http" else 1
    datasets, anomalies, resumed = run_experiment(plans, schedule, out / "transcripts", workers)
    # header only when no session has a usable round, so no earlier run's choices remain
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
    cfg = load_config(config_file)
    config, _ = _parse_config(cfg)
    estimate_paths = {}
    if direct and estimate_specs:
        raise ValidationError("--estimates does not apply with --direct, which recovers its "
                              "own estimates")
    if config_file and not direct:
        raise ValidationError("--config applies with --direct only: joined --estimates are "
                              "regressed as they are")
    if not direct:
        if not estimate_specs:
            raise ValidationError("provide --estimates S=PATH pairs or use --direct")
        for spec in estimate_specs:
            size_str, _, path = spec.partition("=")
            try:
                size = int(size_str)
            except ValueError:
                size = None
            if size is None or not path:
                raise ValidationError(f"malformed --estimates spec {spec!r}; expected S=PATH")
            if size in estimate_paths:
                raise ValidationError(f"--estimates {spec!r}: sample size {size} repeats")
            estimate_paths[size] = path
    population = read_params_file(truth_file)
    if direct:
        rows, _ = learning_curve_direct(population, provision_seed,
                                        LEARNING_SAMPLE_SIZES, config)
    else:
        rows = regress_per_size(dict(population), {
            size: {sid: params for sid, _, _, params in _read_index(path)}
            for size, path in estimate_paths.items()})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "learning_curve.csv", _CURVE_COLUMNS, (
        (row.sample_size, row.parameter, *attrgetter(*_CURVE_COLUMNS[2:])(row.regression))
        for row in rows))
    write_manifest(
        out, "learning-curve",
        {"truth": truth_file, "estimates": list(estimate_specs), "direct": direct,
         **({"config": cfg} if config_file else {})},
        {"provision_seed": provision_seed},
        [p for p in (config_file, truth_file) if p] + [s.partition("=")[2] for s in estimate_specs],
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

    def parse_specs(option, specs, file_name):
        """Sorted (label, path) pairs; each label names the output ``file_name.format(label)``."""
        pairs = {}
        for spec in specs:
            label, _, path = spec.partition("=")
            if not path:
                raise ValidationError(f"malformed spec {spec!r}; expected LABEL=PATH")
            _check_file_name(label, file_name.format(label), f"{option} {spec!r}: label")
            if label in pairs:
                raise ValidationError(f"{option} {spec!r}: label {label!r} repeats")
            pairs[label] = Path(path)
        return sorted(pairs.items())

    index_pairs = parse_specs("--index", index_specs, "summary_{}.csv")
    choice_pairs = parse_specs("--choices", choice_specs, "scatter_{}.csv")
    if not (index_pairs or choice_pairs or curve_file):
        raise ValidationError("nothing to report: provide --index, --choices, or --curve")
    # every input is read before --out is created
    indexes = []
    for label, path in index_pairs:
        rows = _read_index(path)
        if not rows:
            raise ValidationError(f"{path}: empty index file")
        indexes.append((label, rows))
    choices = [(label, read_dataset(path)) for label, path in choice_pairs]
    curve = read_table(curve_file, {_CURVE_COLUMNS: lambda size, parameter, gamma, se_gamma, *_:
                                    (parameter, size, gamma, se_gamma)},
                       _CURVE_TYPES) if curve_file else []
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    panels = []
    for label, rows in indexes:
        _, cceis, deuts, params = zip(*rows)
        columns = {"ccei": cceis, "deut": deuts,
                   "beta": [p.beta for p in params], "rho": [p.rho for p in params]}
        name = f"summary_{label}.csv"
        write_table(out / name, ("variable", "p5", "p25", "p50", "p75", "p95", "mean", "std", "n"),
                    ((variable, *astuple(summarize(values))) for variable, values in columns.items()))
        panels.append(name)
        outputs.append(name)

    for label, datasets in choices:
        name = f"scatter_{label}.csv"
        write_table(out / name, ("subject_id", "round", "log_price_ratio", "relative_demand_a"), (
            (ds.subject_id, k, math.log(p_a / p_b), x_a / (x_a + x_b))
            for ds in datasets
            for k, (p_a, p_b), (x_a, x_b) in zip(ds.round.tolist(), ds.prices.tolist(),
                                                 ds.demand.tolist())))
        outputs.append(name)

    if curve_file:
        write_table(out / "gamma_vs_s.csv", ("parameter", "sample_size", "gamma", "se_gamma"),
                    sorted((row for _, row in curve), key=lambda row: row[:2]))
        outputs.append("gamma_vs_s.csv")

    write_manifest(out, "report", {"panels": panels}, {},
                   [str(p) for _, p in index_pairs + choice_pairs]
                   + ([curve_file] if curve_file else []), outputs, started)


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
