"""Every function the benchmark's tracer wraps still exists where it looks.

bench/tracing.py patches `sasv` functions by module and name; a refactor
that moves or renames one would otherwise break `bench/run.py --trace 1`
without any test noticing.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("where,attr", [
    (where, attr) for where, attr, *_ in tracing.SPANS + tracing.COUNTERS])
def test_traced_target_resolves(where, attr):
    target = tracing._get(tracing._resolve(where), attr)
    assert callable(getattr(target, "__func__", target))
