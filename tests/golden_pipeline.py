"""A small fixed pipeline through every command, and what it writes, as a golden record.

:func:`run_pipeline` runs ``simulate``, ``analyze``, ``learning-curve
--direct``, two mock ``experiment`` runs and ``report`` in one directory, on
fixed seeds and relative paths, so no output holds an absolute path.  The
population has six subjects: four from the README's representative box, one
at a large beta and rho (kink-heavy choices) and one elation seeker at a
small rho, whose interior ratios reach about 1e15 and more, so its bundles
hold nearly nothing of the dearer asset (corner-heavy).  ``analyze`` reads
12 subjects: exact and sloppy (N(0, 10) token noise, rounded to cents) at
175 rounds on their own schedules and at 25 rounds on one shared schedule.

:func:`observe` reduces the run to what the golden file holds: the sha256 of
every output file, with the timestamps of manifests and transcript records
dropped; every ``FitResult`` field of ``analyze`` and of ``learning-curve
--direct``, floats as ``float.hex``; and each analyzed subject's ``deut``.
:func:`mismatches` compares two such records, and :func:`check` states how:
on the golden file's platform (numpy version and the SIMD targets numpy
dispatches to on this CPU, :func:`platform`) every value must be equal.  On
another platform numpy's ``power`` and ``log`` may round differently in the
last bit, so a moved value is reported as an expected failure that names the
platform difference and every moved value, never as a pass; a missing or
extra output or fit fails on any platform.

Regenerate the golden file with ``python tests/regen_pipeline_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from prefbench import workflows
from prefbench.cli import main
from prefbench.da_model import DAParams
from prefbench.data import SubjectDataset, read_dataset, write_dataset
from prefbench.simulation import sample_population, write_params_file

GOLDEN = Path(__file__).parent / "golden" / "pipeline_digests.json"

POPULATION = [*sample_population(1, 4), ("kinky", DAParams(1.5, 2.5)),
              ("corner", DAParams(-0.9, 0.1))]

# keys of manifests and transcript records that hold a wall-clock time
_TIMESTAMPS = ("started_at", "finished_at")


def platform() -> dict:
    """numpy's version and the SIMD targets it dispatches to here (its build's targets that
    this CPU supports)."""
    from numpy._core import _multiarray_umath as umath

    features = umath.__cpu_features__
    targets = [*umath.__cpu_baseline__, *umath.__cpu_dispatch__]
    return {"numpy": np.__version__,
            "simd": sorted(target for target in targets if features.get(target))}


def _sloppy(dataset: SubjectDataset, rng: np.random.Generator) -> SubjectDataset:
    """The dataset's rounds with N(0, 10) points added to ``t_a``, clipped and rounded to
    cents, under the id ``<id>_n10``."""
    t_a = np.round(np.clip(dataset.tokens[:, 0] + rng.normal(0.0, 10.0, dataset.n), 0.0, 100.0), 2)
    tokens = np.column_stack([t_a, np.round(100.0 - t_a, 2)])
    return SubjectDataset.from_returns_tokens(f"{dataset.subject_id}_n10", dataset.returns, tokens)


def _renamed(dataset: SubjectDataset, prefix: str) -> SubjectDataset:
    return SubjectDataset.from_returns_tokens(prefix + dataset.subject_id, dataset.returns,
                                              dataset.tokens)


def _command(*argv: str) -> None:
    """One command in this process; it must exit 0, or 4 (done, with anomaly flags)."""
    try:
        main(list(argv))
    except SystemExit as done:
        if done.code not in (0, 4, None):
            raise RuntimeError(f"prefbench {' '.join(argv)} exited {done.code}") from None


@contextmanager
def _recorded_fits(fits: dict):
    """Every ``workflows.recover_batch`` result, kept in ``fits`` under the call's number."""
    recover_batch = workflows.recover_batch

    def recording(datasets, sizes=None, config=None):
        datasets = list(datasets)
        results = recover_batch(datasets, sizes, config)
        fits[len(fits)] = [(ds.subject_id, by_size) for ds, by_size in zip(datasets, results)]
        return results

    workflows.recover_batch = recording
    try:
        yield
    finally:
        workflows.recover_batch = recover_batch


def run_pipeline(root: Path) -> dict:
    """Run the pipeline in the empty directory ``root``; returns each ``recover_batch``
    call's fits, ``analyze``'s first, then ``learning-curve``'s."""
    fits: dict = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        Path("pop").mkdir()
        write_params_file(POPULATION, "pop/params.csv")
        _command("simulate", "--params-file", "pop/params.csv", "--rounds", "175", "--seed", "7",
                 "--out", "sim175")
        _command("simulate", "--params-file", "pop/params.csv", "--rounds", "25", "--seed", "11",
                 "--shared-schedule", "--out", "sim25")
        rng = np.random.default_rng(5)
        long, short = read_dataset("sim175/choices.csv"), read_dataset("sim25/choices.csv")
        short = [_renamed(ds, "r25_") for ds in short]
        # exact: two README-box subjects and the kink- or corner-heavy ones; the rest sloppy
        mixed = [*(long[i] for i in (0, 4, 5)), *(_sloppy(long[i], rng) for i in (1, 2, 3)),
                 *(short[i] for i in (0, 1, 5)), *(_sloppy(short[i], rng) for i in (2, 3, 4))]
        Path("mixed").mkdir()
        write_dataset(mixed, "mixed/choices.csv")
        with _recorded_fits(fits):
            _command("analyze", "--choices", "mixed/choices.csv", "--out", "idx")
            _command("learning-curve", "--truth", "pop/params.csv", "--direct",
                     "--provision-seed", "3", "--out", "curve")
        _command("experiment", "--treatment", "decision", "--params-file", "pop/params.csv",
                 "--out", "exp")
        _command("experiment", "--treatment", "personalized", "--sample-data",
                 "sim25/choices.csv", "--sample-size", "10", "--out", "pr")
        _command("report", "--index", "mixed=idx/index.csv", "--choices",
                 "mixed=mixed/choices.csv", "--curve", "curve/learning_curve.csv",
                 "--out", "report")
    finally:
        os.chdir(cwd)
    return fits


def _content(path: Path) -> bytes:
    """A file's bytes, less the timestamps of a manifest or of each transcript record."""
    if path.suffix not in (".json", ".jsonl"):
        return path.read_bytes()
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
               ] if path.suffix == ".jsonl" else [json.loads(path.read_text(encoding="utf-8"))]
    for record in records:
        for key in _TIMESTAMPS:
            record.pop(key, None)
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records).encode()


def _fit_fields(fit) -> dict:
    return {"beta": fit.params.beta.hex(), "rho": fit.params.rho.hex(), "loss": fit.loss.hex(),
            "grid_beta": fit.grid_best.beta.hex(), "grid_rho": fit.grid_best.rho.hex(),
            "converged": fit.converged, "evaluations": fit.evaluations, "flags": list(fit.flags)}


def observe(root: Path, fits: dict) -> dict:
    """The golden record of a run in ``root``: digests, fits and ``deut`` values."""
    files = sorted(path for path in root.rglob("*") if path.is_file())
    digests = {path.relative_to(root).as_posix(): hashlib.sha256(_content(path)).hexdigest()
               for path in files}
    recorded = {}
    for command, batch in (("analyze", fits[0]), ("learning-curve", fits[1])):
        for subject_id, by_size in batch:
            for size, fit in by_size.items():
                recorded[f"{command}/{subject_id}/{size}"] = _fit_fields(fit)
    deut = {}
    for line in (root / "idx" / "index.csv").read_text(encoding="utf-8").splitlines()[1:]:
        subject_id, _, value = line.split(",")[:3]
        deut[subject_id] = float(value).hex()
    return {"platform": platform(), "digests": digests, "fits": recorded, "deut": deut}


def mismatches(golden: dict, observed: dict) -> tuple[list[str], list[str]]:
    """``(missing or extra keys, moved values)`` of ``observed`` against ``golden``, each as
    ``section/key`` strings."""
    structural, moved = [], []
    for section in ("digests", "fits", "deut"):
        want, got = golden[section], observed[section]
        structural += [f"{section}/{key}: missing" for key in sorted(set(want) - set(got))]
        structural += [f"{section}/{key}: extra" for key in sorted(set(got) - set(want))]
        moved += [f"{section}/{key}" for key in sorted(set(want) & set(got))
                  if want[key] != got[key]]
    return structural, moved


def check(golden: dict, observed: dict, xfail) -> None:
    """Assert ``observed`` against ``golden`` by the module's platform rule; ``xfail(reason)``
    reports moved values on another platform."""
    structural, moved = mismatches(golden, observed)
    assert not structural, structural
    if not moved:
        return
    want, got = golden["platform"], observed["platform"]
    if want == got:
        raise AssertionError(f"{len(moved)} golden values moved on the golden file's platform: "
                             f"{moved}")
    differ = [f"numpy {want['numpy']} -> {got['numpy']}"] if want["numpy"] != got["numpy"] else []
    gained = sorted(set(got["simd"]) - set(want["simd"]))
    lost = sorted(set(want["simd"]) - set(got["simd"]))
    differ += [f"SIMD +{','.join(gained)}"] * bool(gained)
    differ += [f"SIMD -{','.join(lost)}"] * bool(lost)
    xfail(f"platform differs from the golden file's ({'; '.join(differ)}): "
          f"{len(moved)} values moved: {moved}")
