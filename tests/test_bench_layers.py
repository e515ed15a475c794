"""Smoke test of `benchmarks/bench_layers.py` on its cheap layers.

The script calls private library functions (`scale._march`,
`scale._exponential_march`, `simulate._run_paths`, ...), so a signature
change there fails here rather than in the next benchmark run.
"""

import importlib
import math
import os
import sys

import pytest

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCHMARKS)
    try:
        yield importlib.import_module("bench_layers")
    finally:
        sys.path.remove(BENCHMARKS)


LAYERS = {
    "blocked_W_only": lambda b: b.bench_blocked(False),
    "block_solve": lambda b: b.bench_block_solve(),
    "csv_write": lambda b: b.bench_csv_write(500),
    "sweep_march": lambda b: b.bench_sweep_march(),
    "penalised_solve": lambda b: b.bench_penalised_solve(),
    "find_barrier": lambda b: b.bench_find_barrier(),
    "grid_lookup": lambda b: b.bench_grid_lookup(20),
    "convolution": lambda b: b.bench_convolution(2000),
    "streams": lambda b: b.bench_streams(200),
    "refill": lambda b: b.bench_refill(300),
    "paths": lambda b: b.bench_paths(200),
    "flow": lambda b: b.bench_flow(5),
    "volterra": lambda b: b.bench_volterra(500),
}


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_layer_runs(bench, layer):
    result = LAYERS[layer](bench)
    numbers = [v for v in result.values() if not isinstance(v, bool)]
    assert numbers and all(math.isfinite(v) for v in numbers)
    assert result.get("bitwise_equal", True)
    for gap in ("max_rel_gap", "max_rel_diff"):
        assert result.get(gap, 0.0) <= 1e-5, (gap, result)
