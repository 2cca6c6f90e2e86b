"""Names, units and directions of every metric the benchmark reports."""

from tracing import SPAN_NAMES

# name -> (unit, better); reported by every untraced run, on every workload
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput": ("1/s", "higher"),
    "output_mb": ("MB", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Reported by every run but not gated: resume_s exists on the experiment
# workloads only and error_rate is 0 on a healthy run; the gated
# failed/attempted counts of the result line carry the same information.
REPORTED = {
    "resume_s": ("s", "lower"),
    "error_rate": ("ratio", "lower"),
}

_SPAN_METRICS = [
    (f"{span}.{field}", unit, "lower")
    for span in SPAN_NAMES
    for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
]

# Per unit of work (subject or session), except the ratios and
# harness.prompts.message_bytes, which is per request.
PER_LAYER = _SPAN_METRICS + [
    ("rationality.ccei.consistent.busy_s", "s", "lower"),
    ("rationality.ccei.inconsistent.busy_s", "s", "lower"),
    ("rationality.garp_checks_per_ccei", "ratio", "lower"),
    ("eu_deviation.edges", "count", "lower"),
    ("estimation.nm_evals", "count", "lower"),
    ("estimation.converged_ratio", "ratio", "higher"),
    ("da_model.cells", "count", "lower"),
    ("harness.prompts.message_bytes", "B", "lower"),
    ("harness.parsing.ok_ratio", "ratio", "higher"),
    ("harness.backends.attempts_per_request", "ratio", "lower"),
    ("harness.backends.wait_s", "s", "lower"),
    ("harness.sessions.bytes_written", "B", "lower"),
    ("harness.sessions.bytes_read", "B", "lower"),
    ("cli.resume.busy_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]
