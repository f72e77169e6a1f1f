"""Every function the benchmark's tracer wraps still exists where it looks.

bench/tracing.py patches `sasv` functions by module and name, and reads the
MLP's arguments and tape to count flop; a refactor that moves or renames
one, or changes the tape layout, would otherwise break
`bench/run.py --trace 1` without any test noticing.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sasv.nn import init_mlp, mlp_backward, mlp_forward

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


@pytest.mark.parametrize("single", [False, True])
def test_mlp_flop_hooks_read_real_calls(single):
    """The tracer counts 2 n sum(in * out) flop forward and 4 n sum(in * out)
    backward from the (params, x) and (params, tape) arguments it sees."""
    params = init_mlp(6, (5, 3), np.random.default_rng(0))
    n = 1 if single else 7
    x = np.ones(6) if single else np.ones((n, 6))
    per_row = 6 * 5 + 5 * 3 + 3 * 1
    result = mlp_forward(params, x)
    tracer = tracing.Tracer()
    tracing._mlp_forward_flop(tracer, (params, x), {}, result)
    assert tracer.counters == {"nn.mlp_flop": 2 * n * per_row}
    tape = result[1]
    upstream = 1.0 if single else np.ones(n)
    backward = mlp_backward(params, tape, upstream)
    tracer = tracing.Tracer()
    tracing._mlp_backward_flop(tracer, (params, tape, upstream), {}, backward)
    assert tracer.counters == {"nn.mlp_flop": 4 * n * per_row}
