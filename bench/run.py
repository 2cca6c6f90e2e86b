"""Run one prefbench benchmark workload and print its metrics.

    python3 bench/run.py --workload analyze_mixed175 --seed 1 --seconds 20 --trace 0

Set-up is timed in fresh interpreters: ``SETUP_SAMPLES - 1`` processes that
only set up, then the measured worker, each from spawn to its ``READY`` line;
``setup_s`` is their median.  The worker (see ``worker.py``) runs the timed
commands in its own process.  This script prints one line per metric, writes
``bench/results/<workload>-seed<seed>-trace<t>.json`` with the metrics,
failures, output digests and provenance, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1`` the
metrics are the per-layer ones and the spans go to ``...-spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, REPORTED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # the whole run, set-up included
# one process, one thread: no BLAS or OpenMP pool beside the interpreter
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spawn(args: list[str], deadline: float) -> tuple[float, subprocess.Popen]:
    """Start a worker and wait for its READY line; returns (set-up seconds, process)."""
    env = {**os.environ, **ENV}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - start, 0.0))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        stop(proc)
        raise RuntimeError(f"worker failed or overran during set-up (exit {proc.returncode})")
    return setup, proc


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "prefbench" / "__init__.py").is_file():
        print(f"error: no prefbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    work = BENCH / "work" / f"{label}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    try:
        for i in range(SETUP_SAMPLES - 1):
            setup, proc = spawn(common + ["--work", str(work / f"setup{i}"), "--setup-only"],
                                deadline)
            try:
                proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
            finally:
                stop(proc)
            setups.append(setup)
        spans = results / f"{label}-spans.jsonl"
        setup, proc = spawn(common + ["--work", str(work / "run"), "--spans", str(spans)],
                            deadline)
        setups.append(setup)
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"worker overran the {RUN_LIMIT_S:.0f} s run limit") from None
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        report = json.loads(out.strip().splitlines()[-1])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = report["attempted"], report["failed"]
    values = dict(report["end_to_end"], setup_s=statistics.median(setups),
                  error_rate=failed / attempted)
    correct = failed == 0
    if args.trace:
        catalog = {name: unit for name, unit, _ in PER_LAYER}
        values.update(report["per_layer"])
        if report["root_excess_s"] > 1e-6:
            correct = False
            print(f"error: child self times exceed their root span by "
                  f"{report['root_excess_s']:.3g} s", file=sys.stderr)
    else:
        catalog = {name: unit for name, (unit, _) in END_TO_END.items()}
    shown = dict(catalog, error_rate=REPORTED["error_rate"][0])
    if values["resume_s"] > 0:  # the experiment workloads
        shown["resume_s"] = REPORTED["resume_s"][0]
    for name, unit in shown.items():
        print(f"{args.workload} {name} {values[name]:.6g} {unit}")
    for reason in report["failures"]:
        print(f"failed: {reason}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "failures": report["failures"], "batches": report["batches"],
        "timed_s": report["timed_s"], "setup_samples_s": setups,
        "root_excess_s": report.get("root_excess_s"),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in shown.items()},
        "provenance": dict(report["provenance"], nproc=os.cpu_count(), cpu=cpu_model(),
                           platform=platform.platform()),
        "sha256": report["digests"],
    }
    (results / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n",
                                           encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in catalog.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
