"""Smoke test of `benchmarks/bench_layers.py` on its cheap layers.

The script calls private library functions (`scale._march`,
`scale._exponential_march`, `simulate._run_paths`, ...), so a signature
change there fails here rather than in the next benchmark run.
"""

import importlib
import inspect
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


# each `bench_*` function of the script, with the arguments of a cheap run
LAYERS = {
    "bench_blocked": (False, 160.0, 1),
    "bench_csv_write": (30.0,),
    "bench_sweep_march": (),
    "bench_penalised_solve": (),
    "bench_find_barrier": (),
    "bench_locate": (1,),
    "bench_grid_lookup": (20,),
    "bench_convolution": (2000,),
    "bench_omega": (200,),
    "bench_refill": (300,),
    "bench_mc_memory": (200, 200),
    "bench_small_calls": (2,),
    "bench_paths": (200,),
    "bench_survivors": (200,),
    "bench_volterra": (500,),
}


def test_every_layer_has_one_smoke_entry(bench):
    assert set(LAYERS) == {name for name, _ in inspect.getmembers(bench, inspect.isfunction)
                           if name.startswith("bench_")}


# the result keys of the layers whose printout reads them by name
KEYS = {
    "bench_blocked": {"nodes", "support_nodes", "columns", "reference", "blocked",
                      "history", "max_rel_gap", "faults_per_march",
                      "peak_floats_per_node"},
}


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_layer_runs(bench, layer):
    result = getattr(bench, layer)(*LAYERS[layer])
    assert set(result) == KEYS.get(layer, set(result))
    numbers = [v for v in result.values() if not isinstance(v, bool)]
    assert numbers and all(math.isfinite(v) for v in numbers)
    assert result.get("bitwise_equal", True)
    for gap in ("max_rel_gap", "max_rel_diff"):
        assert result.get(gap, 0.0) <= 1e-5, (gap, result)
