"""One workload in one fresh process: set up, run timed CLI commands, check them.

Started by ``run.py``.  It prints ``READY`` when set-up is done (the parent
times set-up from its own spawn of this process to that line); with
``--setup-only`` it stops there.  Otherwise it runs batches until the timed
commands have taken ``--seconds``, checks every output and prints one JSON
line with the counts, metrics and provenance.

With ``--trace 1`` every batch runs twice, untraced and then traced, and the
per-layer metrics come from the traced runs.  All per-layer figures are per
unit of work (subject or session) unless they are ratios.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import prefbench  # noqa: E402
from tracing import SPAN_NAMES, Tracer, span_totals  # noqa: E402
from workloads import WORKLOADS, CommandRun, run_cli  # noqa: E402

DIGESTED = ("index.csv", "learning_curve.csv", "choices.csv")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class BatchResult:
    units: int
    traced: bool
    write_s: float = 0.0  # timed commands, without the resume pass
    resume_s: float = 0.0
    bytes: int = 0
    failures: dict[str, str] = field(default_factory=dict)  # unit id -> reason
    digests: dict[str, str] = field(default_factory=dict)  # output path -> sha256

    @property
    def wall_s(self) -> float:
        return self.write_s + self.resume_s


def run_commands(workload, batch, tag: str, tracer: Tracer | None = None) -> list[CommandRun]:
    """Run the batch's timed commands, traced when a tracer is given."""
    runs = []
    with workload.serving(batch):
        if tracer is not None:
            tracer.install()
        try:
            for command in workload.commands(batch, tag):
                root = tracer.open("cli.command", "cli.resume" if command.resume else None) \
                    if tracer is not None else None
                start = time.perf_counter()
                code, error = run_cli(command.argv)
                wall = time.perf_counter() - start
                if root is not None:
                    tracer.close(root)
                digests = {name: sha256(command.out / name) for name in DIGESTED
                           if (command.out / name).is_file()}
                runs.append(CommandRun(command, code, error, wall, digests))
        finally:
            if tracer is not None:
                tracer.uninstall()
    return runs


def run_batch(workload, batch, tag: str, tracer: Tracer | None) -> BatchResult:
    result = BatchResult(len(batch.units), tracer is not None)
    runs = run_commands(workload, batch, tag, tracer)
    for run in runs:
        if run.command.resume:
            result.resume_s += run.wall_s
        else:
            result.write_s += run.wall_s
            rel = run.command.out.relative_to(workload.work)
            result.digests.update({f"{rel}/{name}": d for name, d in run.digests.items()})
    try:
        outcome = workload.check(batch, runs)
    except Exception as exc:  # an unreadable output fails its units; the run goes on
        outcome = {u: f"check raised {type(exc).__name__}: {exc}" for u in batch.units}
    result.failures = {u: reason for u, reason in outcome.items() if reason}
    result.failures.update({u: "missing from the check" for u in batch.units if u not in outcome})
    result.bytes = sum(tree_bytes(out) for out in {r.command.out for r in runs} if out.exists())
    return result


def measure(workload, first_batch, seconds: float, tracer: Tracer | None) -> list[BatchResult]:
    """Closed loop, one client: batches until the timed commands took ``seconds``."""
    results = []
    batch = first_batch
    timed = 0.0
    while True:
        input_digests = {str(p.relative_to(workload.work)): sha256(p) for p in batch.inputs}
        for traced in (False, True) if tracer is not None else (False,):
            result = run_batch(workload, batch, "-traced" if traced else "",
                               tracer if traced else None)
            result.digests.update(input_digests)
            results.append(result)
            timed += result.wall_s
        shutil.rmtree(batch.dir)
        if timed >= seconds:
            return results
        batch = workload.prepare(batch.index + 1)


def end_to_end(results: list[BatchResult]) -> dict[str, float]:
    units = sum(r.units for r in results)
    resumes = [r.resume_s for r in results if r.resume_s > 0]
    return {
        "throughput": units / sum(r.write_s for r in results),
        "output_mb": sum(r.bytes for r in results) / units / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "resume_s": float(np.median(resumes)) if resumes else 0.0,
    }


def per_layer(results: list[BatchResult], tracer: Tracer) -> tuple[dict[str, float], float]:
    """Per-layer metrics per unit of the traced batches, and the root excess."""
    traced = [r for r in results if r.traced]
    units = sum(r.units for r in traced)
    totals, derived = span_totals(tracer.spans)
    counts = tracer.counts
    metrics = {}
    for name in SPAN_NAMES:
        calls, busy, self_time = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls / units
        metrics[f"{name}.busy_s"] = busy / units
        metrics[f"{name}.self_s"] = self_time / units

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def ratio(num, den):
        return num / den if den else 0.0

    for kind in ("consistent", "inconsistent"):
        metrics[f"rationality.ccei.{kind}.busy_s"] = \
            totals.get(f"rationality.ccei.{kind}", (0, 0.0, 0.0))[1] / units
    metrics["cli.resume.busy_s"] = totals.get("cli.resume", (0, 0.0, 0.0))[1] / units
    metrics["rationality.garp_checks_per_ccei"] = ratio(calls("rationality.garp_holds"),
                                                        calls("rationality.ccei"))
    metrics["eu_deviation.edges"] = counts["eu_deviation.edges"] / units
    metrics["estimation.nm_evals"] = counts["estimation.nm_evals"] / units
    metrics["estimation.converged_ratio"] = ratio(counts["estimation.converged"],
                                                  calls("estimation.refine"))
    metrics["da_model.cells"] = counts["da_model.cells"] / units
    metrics["harness.prompts.message_bytes"] = ratio(counts["harness.prompts.message_bytes"],
                                                     calls("harness.backends.send"))
    metrics["harness.parsing.ok_ratio"] = ratio(counts["harness.parsing.ok"],
                                                counts["harness.parsing.allocations"])
    metrics["harness.backends.attempts_per_request"] = ratio(
        calls("harness.backends.transport"), calls("harness.backends.send"))
    metrics["harness.backends.wait_s"] = derived["wait_s"] / units
    metrics["harness.sessions.bytes_written"] = counts["harness.sessions.bytes_written"] / units
    metrics["harness.sessions.bytes_read"] = counts["harness.sessions.bytes_read"] / units
    untraced = sum(r.wall_s for r in results if not r.traced)
    overhead = sum(r.wall_s for r in traced) - untraced
    metrics["trace.overhead_s"] = overhead / units
    metrics["trace.overhead_share"] = overhead / untraced
    return metrics, derived["root_excess_s"]


def provenance() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "prefbench": prefbench.__version__,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.work, args.seed)
    first = workload.prepare(0)
    print("READY", flush=True)
    if args.setup_only:
        return
    tracer = Tracer() if args.trace else None
    results = measure(workload, first, args.seconds, tracer)
    report = {
        "attempted": sum(r.units for r in results),
        "failed": sum(len(r.failures) for r in results),
        "failures": sorted({why for r in results for why in r.failures.values()})[:20],
        "batches": len(results),
        "timed_s": sum(r.wall_s for r in results),
        "end_to_end": end_to_end(results),
        "digests": {k: v for r in results for k, v in r.digests.items()},
        "provenance": provenance(),
    }
    if tracer is not None:
        report["per_layer"], report["root_excess_s"] = per_layer(results, tracer)
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
