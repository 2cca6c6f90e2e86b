"""The benchmark tracer finds every name it wraps.

``bench/tracing.py`` wraps functions and methods of the package by name, so a
rename or a deletion in the package breaks the benchmark.  This test installs
the tracer in-process and checks that each of its targets was wrapped, then
restores the originals.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(module_name: str, qualname: str):
    """The object a target names, where the tracer looks it up."""
    owner = sys.modules[module_name]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return getattr(owner, attr)


def test_every_target_is_wrapped():
    tracing = _load_tracing()
    for module_name, _, _, _ in tracing.TARGETS:
        importlib.import_module(module_name)
    originals = [_lookup(module, qualname) for module, qualname, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, qualname, name, _), original in zip(tracing.TARGETS, originals):
            wrapped = _lookup(module, qualname)
            assert getattr(wrapped, "__wrapped__", None) is original, f"{module}.{qualname} ({name})"
    finally:
        tracer.uninstall()
    assert [_lookup(module, qualname) for module, qualname, _, _ in tracing.TARGETS] == originals
