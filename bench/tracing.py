"""In-memory span tracer that wraps prefbench's public functions by name.

The program is not changed: :meth:`Tracer.install` replaces each target with a
wrapper in every ``prefbench`` module namespace that holds the original
object, so the span is recorded where the caller looks the name up (methods
are wrapped on their class).  A span is ``[id, name, start, end, parent,
label]``; ``label`` is an optional second name the same interval is also
reported under, such as the round count of a recovery.  Spans are kept in
memory and written out by the caller when the run ends.

Spans nest per thread.  A span opened in a thread the program starts has no
parent and counts as a root of its own.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ID, NAME, START, END, PARENT, LABEL = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._transcript_sizes: dict[Path, int] = {}

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, label: str | None = None) -> list:
        stack = self._stack()
        span = [next(self._ids), name, time.perf_counter(), 0.0,
                stack[-1][ID] if stack else None, label]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name: str, after=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(self, span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every name in :data:`TARGETS`."""
        for module_name, qualname, name, after in TARGETS:
            owner = sys.modules[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, after)
            if path:
                holders = [owner]
            else:
                holders = [
                    module for mod_name, module in list(sys.modules.items())
                    if (mod_name == "prefbench" or mod_name.startswith("prefbench."))
                    and vars(module).get(attr) is original
                ]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "label"),
                                             span))) + "\n")


# --- counters recorded at the same boundaries as the spans -------------------

def _after_demand_grid(tracer, span, args, result):
    prices, beta = args[0], args[1]
    grid = len(beta)
    tracer.counts["da_model.cells"] += grid * len(prices)
    if grid > 1:
        span[LABEL] = "estimation.grid"


def _after_recover(tracer, span, args, result):
    span[LABEL] = f"estimation.recover_params.n{args[0].n}"


def _after_minimize(tracer, span, args, result):
    tracer.counts["estimation.nm_evals"] += int(result.nfev)
    tracer.counts["estimation.converged"] += bool(result.success)


def _after_ccei(tracer, span, args, result):
    kind = "consistent" if result.ccei == 1.0 else "inconsistent"
    span[LABEL] = f"rationality.ccei.{kind}"


def _after_eu_graph(tracer, span, args, result):
    tracer.counts["eu_deviation.edges"] += len(result.edges)


def _after_parse(tracer, span, args, result):
    tracer.counts["harness.parsing.allocations"] += len(result)
    tracer.counts["harness.parsing.ok"] += sum(1 for alloc in result if alloc.ok)


def _after_send(tracer, span, args, result):
    tracer.counts["harness.prompts.message_bytes"] += sum(
        len(m.content.encode("utf-8")) for m in args[1]
    )


def _after_append(tracer, span, args, result):
    path = args[0].path
    size = path.stat().st_size
    tracer.counts["harness.sessions.bytes_written"] += size - tracer._transcript_sizes.get(path, 0)
    tracer._transcript_sizes[path] = size


def _after_load(tracer, span, args, result):
    tracer.counts["harness.sessions.bytes_read"] += Path(args[0]).stat().st_size


# (module holding the name, attribute or Class.method, span name, counter hook)
TARGETS = [
    ("prefbench.data", "read_dataset", "data.read_dataset", None),
    ("prefbench.data", "write_dataset", "data.write_dataset", None),
    ("prefbench.simulation", "generate_budgets", "simulation.generate_budgets", None),
    ("prefbench.simulation", "simulate_subject", "simulation.simulate_subject", None),
    ("prefbench.workflows", "analyze_subject", "workflows.analyze_subject", None),
    ("prefbench.workflows", "learning_curve_direct", "workflows.learning_curve_direct", None),
    ("prefbench.workflows", "regress_per_size", "workflows.regress_per_size", None),
    ("prefbench.rationality", "ccei", "rationality.ccei", _after_ccei),
    ("prefbench.rationality", "garp_holds", "rationality.garp_holds", None),
    ("prefbench.rationality", "fosd_violations", "rationality.fosd_violations", None),
    ("prefbench.eu_deviation", "deut_index", "eu_deviation.deut_index", None),
    ("prefbench.eu_deviation", "build_eu_graph", "eu_deviation.build_eu_graph", _after_eu_graph),
    ("prefbench.estimation", "recover_params", "estimation.recover_params", _after_recover),
    ("prefbench.estimation", "minimize", "estimation.refine", _after_minimize),
    ("prefbench.da_model", "optimal_demand_grid", "da_model.optimal_demand_grid",
     _after_demand_grid),
    ("prefbench.da_model", "optimal_demand", "da_model.optimal_demand", None),
    ("prefbench.stats", "regress_alignment", "stats.regress_alignment", None),
    ("prefbench.harness.prompts", "build_prompt", "harness.prompts.build_prompt", None),
    ("prefbench.harness.parsing", "parse_allocations", "harness.parsing.parse_allocations",
     _after_parse),
    ("prefbench.harness.backends", "MockDecisionBackend.send", "harness.backends.send",
     _after_send),
    ("prefbench.harness.backends", "HttpChatBackend.send", "harness.backends.send", _after_send),
    ("requests", "Session.post", "harness.backends.transport", None),
    ("prefbench.harness.sessions", "run_decision_session",
     "harness.sessions.run_decision_session", None),
    ("prefbench.harness.sessions", "run_recommendation_session",
     "harness.sessions.run_recommendation_session", None),
    ("prefbench.harness.sessions", "TranscriptWriter.append",
     "harness.sessions.TranscriptWriter.append", _after_append),
    ("prefbench.harness.sessions", "load_transcript", "harness.sessions.load_transcript",
     _after_load),
    ("prefbench.harness.sessions", "transcript_to_dataset",
     "harness.sessions.transcript_to_dataset", None),
]

# Every span and label reported as <name>.calls, <name>.busy_s and <name>.self_s.
# ``cli.command`` is the root span the benchmark opens around each timed command.
SPAN_NAMES = [
    "cli.command",
    "data.read_dataset", "data.write_dataset",
    "simulation.generate_budgets", "simulation.simulate_subject",
    "workflows.analyze_subject", "workflows.learning_curve_direct", "workflows.regress_per_size",
    "rationality.ccei", "rationality.garp_holds", "rationality.fosd_violations",
    "eu_deviation.deut_index", "eu_deviation.build_eu_graph",
    "estimation.recover_params",
    "estimation.recover_params.n1", "estimation.recover_params.n10",
    "estimation.recover_params.n25", "estimation.recover_params.n75",
    "estimation.recover_params.n175",
    "estimation.grid", "estimation.refine",
    "da_model.optimal_demand_grid", "da_model.optimal_demand",
    "stats.regress_alignment",
    "harness.prompts.build_prompt",
    "harness.parsing.parse_allocations",
    "harness.backends.send", "harness.backends.transport",
    "harness.sessions.run_decision_session", "harness.sessions.run_recommendation_session",
    "harness.sessions.TranscriptWriter.append", "harness.sessions.load_transcript",
    "harness.sessions.transcript_to_dataset",
]


def span_totals(spans: list[list]) -> tuple[dict[str, list[float]], dict[str, float]]:
    """Per name and label: [calls, busy seconds, self seconds]; plus derived sums.

    Self time is a span's duration minus the durations of its direct children.
    The derived sums are ``wait_s`` (send time not spent in the transport, over
    sends that reached one) and ``root_excess_s`` (the largest amount by which
    the self times under one root exceed that root's duration; 0 when the
    spans nest properly).
    """
    child_time: dict[int, float] = defaultdict(float)
    transport_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            duration = span[END] - span[START]
            child_time[span[PARENT]] += duration
            if span[NAME] == "harness.backends.transport":
                transport_time[span[PARENT]] += duration

    totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    root_of: dict[int, int] = {}
    root_duration: dict[int, float] = {}
    under_root: dict[int, float] = defaultdict(float)
    wait = 0.0
    for span in spans:  # parents are opened, and so listed, before their children
        duration = span[END] - span[START]
        self_time = duration - child_time[span[ID]]
        for key in (span[NAME], span[LABEL]):
            if key:
                entry = totals[key]
                entry[0] += 1
                entry[1] += duration
                entry[2] += self_time
        if span[PARENT] is None:
            root_of[span[ID]] = span[ID]
            root_duration[span[ID]] = duration
        else:
            root_of[span[ID]] = root_of[span[PARENT]]
            under_root[root_of[span[ID]]] += self_time
        if span[ID] in transport_time and span[NAME] == "harness.backends.send":
            wait += duration - transport_time[span[ID]]
    excess = max((under_root[r] - root_duration[r] for r in root_duration), default=0.0)
    return dict(totals), {"wait_s": wait, "root_excess_s": max(excess, 0.0)}
