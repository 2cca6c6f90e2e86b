from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import prefbench
from prefbench.data import SubjectDataset

settings.register_profile(
    "ci", max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")

# One "PASS/FAIL" line per acceptance criterion, printed after the run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def run_python(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this ``prefbench``; its stdout."""
    src = str(Path(prefbench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code, *args],
                         env=env, capture_output=True, text=True, check=True)
    return out.stdout


def dataset_from_prices(rows, subject_id="s") -> SubjectDataset:
    """Rows of (p_a, p_b, x_a, x_b) -> validated dataset."""
    rows = [tuple(row) for row in rows]
    return SubjectDataset.from_prices_demand(
        subject_id, [row[:2] for row in rows], [row[2:] for row in rows])


@pytest.fixture
def crossing_dataset() -> SubjectDataset:
    """Two mutually revealed-preferred observations with CCEI exactly 0.5."""
    return dataset_from_prices([(1.0, 1.0, 1.0, 0.0), (0.5, 2.0, 0.0, 0.5)])


def random_sloppy_dataset(rng: np.random.Generator, n_rounds: int) -> SubjectDataset:
    """Random budgets with behaviorally arbitrary (often irrational) choices."""
    rows = []
    for _ in range(n_rounds):
        p = rng.uniform(0.005, 0.05, size=2)
        share = rng.uniform(0.0, 1.0)
        rows.append((p[0], p[1], share / p[0], (1.0 - share) / p[1]))
    return dataset_from_prices(rows)


def random_rows(rng: np.random.Generator, n_rounds: int, corner_share: float = 0.0) -> list:
    """Random (p_a, p_b, x_a, x_b) rows; each is a corner choice with probability ``corner_share``."""
    rows = []
    for _ in range(n_rounds):
        p = rng.uniform(0.005, 0.05, size=2)
        share = float(rng.integers(0, 2)) if rng.uniform() < corner_share else float(rng.uniform())
        rows.append((float(p[0]), float(p[1]), share / p[0], (1.0 - share) / p[1]))
    return rows
