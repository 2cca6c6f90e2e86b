"""Run workloads over several seeds and report each metric's median and spread.

    python3 bench/spread.py                          # every workload, seeds 1-10
    python3 bench/spread.py --workload curve_direct --seeds 11 12 13 14 15

The spread is the interquartile range of the per-seed values, as
``statistics.quantiles(values, n=4)`` gives it, as a share of their median;
it is compared with the metric's bound in ``BENCHMARK.json``.  Every run's
result line is appended to ``bench/results/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = BENCH / "results" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        units = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            with log.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']}/{result['attempted']} failed")
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            verdict = "" if bound is None else ("ok" if spread <= bound / 3 else "WIDE")
            print(f"{workload:18s} {name:40s} median {median:10.6g} {units[name]:6s} "
                  f"spread {spread:7.2%}  bound {bound if bound is not None else '-'} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
