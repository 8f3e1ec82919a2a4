"""Every layer the benchmark tracer wraps must exist in the package.

perfbench/selftest.py would catch a dropped layer too, but only after
minutes of runs; this reads the tracer's target table in well under a
second.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        (mod, fn)
        for mod, fn in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"tverberg_nd.{mod}"), fn, None))
    ]
    assert not missing
