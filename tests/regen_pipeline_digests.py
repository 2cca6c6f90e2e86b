"""Regenerate ``tests/golden/pipeline_digests.json`` from the code as it stands.

Run it from the repository root as ``PYTHONPATH=src python
tests/regen_pipeline_digests.py``.  It runs :mod:`golden_pipeline`'s pipeline
in a temporary directory, writes the golden record with this machine's numpy
version and SIMD targets, and prints each value that moved against the file
it replaces.  A change that moves a value explains each move in CHANGES.md.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from golden_pipeline import GOLDEN, mismatches, observe, run_pipeline


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        observed = observe(root, run_pipeline(root))
    if GOLDEN.exists():
        structural, moved = mismatches(json.loads(GOLDEN.read_text(encoding="utf-8")), observed)
        for line in (*structural, *moved):
            print(line)
        print(f"{len(structural)} missing or extra, {len(moved)} moved")
    GOLDEN.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
