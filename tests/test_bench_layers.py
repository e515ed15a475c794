"""Smoke test of `benchmarks/bench_layers.py` on small inputs.

The script calls private library functions (`scale._march`,
`scale._MarchInputs`, `simulate._refill`, ...) and takes its inputs
from `perfbench/workloads.py`, so a signature change in either fails here
rather than in the next benchmark run.
"""

import importlib
import inspect
import json
import math
import os
import sys

import pytest

from dividend_opt import params_from_dict, params_to_dict

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
    "bench_imports": (1,),
    "bench_sweep_march": (),
    "bench_penalised_solve": (),
    "bench_find_barrier": (),
    "bench_locate": (1,),
    "bench_locate_nodes": (),
    "bench_locate_memory": (1,),
    "bench_tabulated_cli_pass": (1,),
    "bench_sweep_certified": (1,),
    "bench_grid_lookup": (20,),
    "bench_convolution": (2000,),
    "bench_omega": (200,),
    "bench_refill": ((300,),),
    "bench_mc_memory": (200,),
    "bench_survivors": (200,),
    "bench_small_calls": (2,),
}


def test_every_layer_has_one_smoke_entry(bench):
    assert set(LAYERS) == {name for name, _ in inspect.getmembers(bench, inspect.isfunction)
                           if name.startswith("bench_")}


def numbers(result):
    """Every number of a layer's result, checking that each timing is a
    {"best", "median", "runs"} record."""
    if isinstance(result, dict):
        if "best" in result:
            assert set(result) == {"best", "median", "runs"}, result
            assert 0 < result["best"] <= result["median"] and result["runs"] >= 1, result
        for value in result.values():
            yield from numbers(value)
    else:
        assert isinstance(result, (int, float)) and not isinstance(result, bool), result
        yield result


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_layer_runs(bench, layer):
    result = getattr(bench, layer)(*LAYERS[layer])
    values = list(numbers(result))
    assert values and all(math.isfinite(v) for v in values)
    json.dumps(result, allow_nan=False)


def test_tabulated_cli_model_is_the_workload_input(bench, tmp_path):
    import workloads  # on the path that the script adds

    workload = workloads.TabulatedCli(0, str(tmp_path))
    workload.setup()
    with open(workload.config, encoding="utf-8") as fh:
        config = json.load(fh)
    assert params_to_dict(bench.tabulated_cli_model()) == params_to_dict(
        params_from_dict(config))


def test_locate_memory_counts_the_input_nodes(bench):
    # a default-domain locate evaluates p and omega on its domain's nodes
    # only: 13 312 of the cap's 33 334 for tabulated_cli
    layer = bench.bench_locate_memory(1)
    assert {name: layer["tabulated_cli"][name] for name in
            ("input_nodes", "domain_nodes", "cap_nodes")} == {
        "input_nodes": 13312, "domain_nodes": 13312, "cap_nodes": 33334}
    sweep = layer["sweep1_q05"]
    assert sweep["input_nodes"] == sweep["domain_nodes"] < sweep["cap_nodes"]


def test_sweep_certified_counts_the_work(bench):
    # per column: run_sweep alone, with one h test at the last node of
    # [0, MIN_X_MAX] and no default domain; the points at which
    # find_barrier interpolates W' and G', G' being 0 for the zero penalty
    # of every sweep column and never interpolated
    layer = bench.bench_sweep_certified(1)
    assert (layer["certified"], layer["h_tests"], layer["run_sweep_nodes"]) == (10, 10, 60010)
    assert layer["G_prime_points"] == 0
    columns = layer["columns"].values()
    for name in ("certified", "h_tests", "run_sweep_nodes", "W_prime_points"):
        assert layer[name] == sum(c[name] for c in columns)
    for column in columns:
        assert {"run_sweep_s", "march_s", "find_barrier_s"} <= set(column)
        assert (column["certified"], column["h_tests"], column["run_sweep_nodes"]) == (1, 1, 6001)
        assert column["G_prime_points"] == 0 and column["W_prime_points"] >= 1
    assert 0 not in bench.SWEEPS  # the one-column sweep is gone again
