"""Every library name the benchmark's trace wraps still exists.

perfbench/tracing.py names its span and counter targets as strings and
reports a missing one only in a traced run, so a renamed function would
quietly drop its metrics.  The file is loaded by path; it imports only the
standard library.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


_spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
TRACED = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(TRACED)
TARGETS = sorted({t[:2] for t in TRACED.SPANS + TRACED.COUNTERS})


@pytest.mark.parametrize("modname, path", TARGETS, ids=[".".join(t) for t in TARGETS])
def test_trace_target_resolves(modname, path):
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    # defined on the owner itself, as the tracer requires, not inherited
    assert attr in vars(owner), "%s.%s is gone" % (modname, path)
