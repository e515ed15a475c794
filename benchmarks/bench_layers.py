#!/usr/bin/env python3
"""Time the library's layers on the inputs of perfbench's workloads.

Every model, seed and path count comes from `perfbench/workloads.py` or
`dividend_opt.tables`: the 10 models of sweeps 1 and 6 (`Sweep.SWEEPS`),
the tabulated Erlang-2 model of `tabulated_cli` and the three estimates of
`montecarlo` at the workload seed `SEED`.  Only code that the pipeline runs
is timed; each fast path's agreement with its test oracle is a tier-1 test.

Every timing is seconds, as {"best", "median", "runs"}.  Every count of
minor page faults comes from a fresh process, whose heap no earlier layer
has grown: after large blocks are freed, glibc raises its trim and mmap
thresholds, and a later layer in the same process would count none.  The
layers:

- `imports`: a fresh `python -c` process that imports `dividend_opt.cli`
  and digests the tabulated_cli config, as every command begins: its wall
  time, its `ru_maxrss` in MB and whether it loaded OpenSSL's `_hashlib`
  (`openssl_loaded`, 0 or 1).
- `sweep_march`: W's exponential march on each sweep model, summed, with
  the minor page faults per march and the largest `tracemalloc` peak of one
  march in float64 per node.
- `penalised_solve`: `solve_scale` on each sweep model with the constant
  penalty w = -1 (W and G_p as two columns of one march, then G and the
  diagnostics), summed.
- `locate`: `tables.locate_barrier` on each sweep model, summed, on its
  default domain, with the minor page faults per locate; then the first
  read of the value curve v and of the residual diagnostics of located
  models.
- `locate_nodes`: the nodes of the default domain of `locate_barrier`, per
  model and summed, against those of the cap `default_x_max`, for the sweep
  models, sweep 1 with the penalties w = -1 and w = -1 + 0.5 y, and the
  tabulated_cli model.
- `sweep_certified`: per sweep column, `locate_barrier` on the default
  domain against `locate_barrier` on [0, `tables.MIN_X_MAX`] plus
  `tables._edge_certificate`, which `run_sweep` runs instead when the
  certificate shows that no longer domain holds a larger h; the two parts
  of the short solve, W's march and `find_barrier`; the points at which
  `find_barrier` interpolates W' and G' (`GridFunction.derivative`); the
  nodes of each solve, whether the column was certified; and over all
  columns the count of certified ones, the interpolation points, and the
  nodes that `run_sweep` marches against those of the default domains.
- `convolution`: the diagnostics convolution of W with the claim density
  on 33 334 nodes, for sweep 1's q = 0.05 model and for the tabulated_cli
  model without its penalty.
- `find_barrier`: `barrier.find_barrier` on each sweep model, its scale
  functions solved beforehand, summed.
- `grid_lookup`: W and W' of sweep 1's q = 0.05 model at its a*, per call,
  at a float, a 1-point array and the 65 points of a first refinement round.
- `blocked_march*`: the tabulated march of the tabulated_cli model, with
  its linear penalty (W and G_p), without it (W), and with its claim
  support widened from 40 to 160; each with the time of its older history
  (the methods of `scale._PartitionedHistory`), its minor page faults per
  march and its `tracemalloc` peak in float64 per node.
- `csv_write`: `v_curve.csv` of the tabulated_cli model streamed through
  `grid.atomic_write`, as `barrier` writes it, with its `tracemalloc` peak.
- `tabulated_cli_pass`: one pass of the `tabulated_cli` workload in this
  process, `barrier`, `verify` and `simulate` through `cli.main`, in all
  and per command, with the rows of the `v_curve.csv` it writes.
- `omega`: the penalty rate `omega_eval` of the tabulated_cli model on
  every node of its solve grid.
- `refill`: the group kernel of `simulate.philox_uniforms`, one Philox block
  per key as a lockstep refill draws it, per key, at three key counts.
- `mc_memory`: the `tracemalloc` peak of each estimate of the `montecarlo`
  workload, and its minor page faults in one steady-state pass of the
  three, run in turn as the workload runs them, with the pass's total.
- `survivors`: its Gerber-Shiu estimate, where the roulette ends most paths,
  with its mean, standard error and ruin fraction.
- `small_calls`: the workload's `simulate_value` with 8, 100 and 1 000
  paths, where a call's fixed costs outweigh its per-path work, with its
  `simulate._refill` calls per call.

Run from the repository root; the JSON document goes to stdout:

    PYTHONPATH=src python benchmarks/bench_layers.py > BENCH_<tag>.json
"""

import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

import dividend_opt
from dividend_opt import (GridFunction, PenaltyModel, find_barrier, omega_eval,
                          params_from_dict, simulate, solve_scale)
from dividend_opt.grid import atomic_write
from dividend_opt.scale import (_PartitionedHistory, _exponential_march, _grid_arrays,
                                _march, _trapezoid_convolution)
from dividend_opt.tables import (DEFAULT_DX, MIN_X_MAX, SWEEPS, _edge_certificate,
                                 default_x_max, locate_barrier)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from workloads import (X0, MonteCarlo, Sweep, TabulatedCli, erlang2_config,  # noqa: E402
                       sweep1_q05, write_json)

SEED = 7  # the workload seed: perfbench/run.py --seed 7
SMALL_CALL_PATHS = (8, 100, 1000)
PHILOX_KEYS = (2048, 8192, 32000)  # a quarter, one and about four `simulate._PHILOX_TILE`
SWEEP_MODELS = [SWEEPS[w].model_for(v) for w in Sweep.SWEEPS for v in SWEEPS[w].values]


def summary(seconds):
    return {"best": min(seconds), "median": statistics.median(seconds), "runs": len(seconds)}


def timed(fn, runs=5, per=1, setup=None):
    """The summary of `runs` timed calls of fn(), in seconds per `per`; with
    `setup`, of fn(setup()), the setup untimed.  Returns it with the last
    call's result."""
    seconds = []
    for _ in range(runs):
        arg = () if setup is None else (setup(),)
        t0 = time.perf_counter()
        out = fn(*arg)
        seconds.append((time.perf_counter() - t0) / per)
    return summary(seconds), out


def traced_peak(fn):
    """The `tracemalloc` peak of one call of fn(), in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def page_faults(fn):
    """The minor page faults of one call of fn(), after a first call has
    warmed the allocator."""
    fn()
    before = minor_faults()
    fn()
    return minor_faults() - before


def tabulated_cli_config(support=40.0):
    """The config of `TabulatedCli.setup`, its claim density on [0, support]."""
    return erlang2_config(0.6, 0.01, support, {"kind": "linear", "k": 1.0, "beta": 0.5})


def tabulated_cli_model(support=40.0):
    """The model of `TabulatedCli.setup`, its claim density on [0, support]."""
    return params_from_dict(tabulated_cli_config(support))


def montecarlo_cases(paths=None):
    """(name, function, model, config) of each `montecarlo` estimate, with
    `paths` paths if given."""
    workload = MonteCarlo(SEED, None)
    workload.setup()
    return [(name, getattr(dividend_opt, function), model,
             config if paths is None else dataclasses.replace(config, paths=paths))
            for name, function, (model, config, _) in workload.cases]


# what every CLI command does before its own work; prints ru_maxrss (KiB)
# and whether OpenSSL's _hashlib was loaded
IMPORTS_CODE = ("import resource, sys\n"
                "from dividend_opt import cli\n"
                "cli._digest(sys.argv[1])\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,"
                " int('_hashlib' in sys.modules))\n")


def fresh_process(code, *args):
    """The stdout of `python -c code args...` with the library importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dividend_opt.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def bench_imports(runs=7):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "model.json")
        write_json(config, tabulated_cli_config())
        t, out = timed(lambda: fresh_process(IMPORTS_CODE, config).split(), runs)
    maxrss_kib, openssl = map(int, out)
    return {"wall_s": t, "maxrss_mb": maxrss_kib / 1024.0, "openssl_loaded": openssl}


def sweep_grids():
    """(model, premium at the nodes) of each sweep model on its cap's grid."""
    return [(m, _grid_arrays(m, DEFAULT_DX, default_x_max(m))[1]) for m in SWEEP_MODELS]


def sweep_march(m, p):
    _exponential_march(p, m.claim.mu, m.lam, m.q, DEFAULT_DX, [1.0], [0.0])


def blocked_march_call(penalised=True, support=40.0):
    """(march, nodes): the march of `solve_scale` on the tabulated_cli
    model's cap grid, its claim on [0, support]: W and G_p with its linear
    penalty, W alone without it."""
    params = tabulated_cli_model(support)
    if not penalised:
        params = dataclasses.replace(params, penalty=PenaltyModel.zero())
    x, p = _grid_arrays(params, DEFAULT_DX, default_x_max(params))
    omega = omega_eval(params, x) if penalised else None

    def march():
        _march(params, p, DEFAULT_DX, omega)

    return march, x.size


def pass_faults(layer, *args):
    """The minor page faults that `layer` reports, per march or locate."""
    if layer == "sweep_march":
        grids = sweep_grids()
        return page_faults(lambda: [sweep_march(m, p) for m, p in grids]) / len(grids)
    if layer == "locate":
        return page_faults(lambda: [locate_barrier(m) for m in SWEEP_MODELS]) / len(SWEEP_MODELS)
    return page_faults(blocked_march_call(*args)[0])


# a function of this script with JSON arguments, run in a fresh process for
# its page faults (see the module docstring); prints its JSON result
FRESH_CODE = ("import json, sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import bench_layers\n"
              "print(json.dumps(getattr(bench_layers, sys.argv[2])(*json.loads(sys.argv[3]))))\n")


def in_fresh_process(name, *args):
    return json.loads(fresh_process(FRESH_CODE, os.path.dirname(os.path.abspath(__file__)),
                                    name, json.dumps(args)))


def bench_sweep_march():
    grids = sweep_grids()

    def one_pass():
        for m, p in grids:
            sweep_march(m, p)

    return {"models": len(grids), "nodes": sum(p.size for _, p in grids),
            "march_s": timed(one_pass, runs=3)[0],
            "faults_per_march": in_fresh_process("pass_faults", "sweep_march"),
            "peak_floats_per_node": max(traced_peak(lambda: sweep_march(m, p)) / (8 * p.size)
                                        for m, p in grids)}


def bench_penalised_solve():
    models = [dataclasses.replace(m, penalty=PenaltyModel.constant(1.0))
              for m in SWEEP_MODELS]
    t, _ = timed(lambda: [solve_scale(m, DEFAULT_DX, default_x_max(m)).diagnostics
                          for m in models], runs=3)
    return {"models": len(models), "solve_s": t}


def bench_locate(runs=5):
    def one_pass():
        for m in SWEEP_MODELS:
            locate_barrier(m)

    def located():
        return [locate_barrier(m) for m in SWEEP_MODELS]

    models = len(SWEEP_MODELS)
    return {"models": models, "locate_s": timed(one_pass, runs)[0],
            "faults_per_locate": in_fresh_process("pass_faults", "locate"),
            "first_v_s": timed(lambda ls: [sol.v for _, sol in ls], runs,
                               setup=located)[0],
            "first_diagnostics_s": timed(lambda ls: [scale.diagnostics for scale, _ in ls],
                                         runs, setup=located)[0]}


def bench_locate_nodes():
    penalties = {"constant": PenaltyModel.constant(1.0), "linear": PenaltyModel.linear(1.0, 0.5)}
    groups = {
        "sweep": {f"sweep{w}[{v}]": SWEEPS[w].model_for(v)
                  for w in Sweep.SWEEPS for v in SWEEPS[w].values},
        "sweep1_penalised": {f"sweep1[{v}] {name}": dataclasses.replace(
            SWEEPS[1].model_for(v), penalty=penalty)
            for name, penalty in penalties.items() for v in SWEEPS[1].values},
        "tabulated_cli": {"tabulated_cli": tabulated_cli_model()},
    }
    out = {}
    for group, models in groups.items():
        columns = {name: {"nodes": locate_barrier(m)[0].W.n,
                          "cap_nodes": int(round(default_x_max(m) / DEFAULT_DX)) + 1}
                   for name, m in models.items()}
        out[group] = {"columns": columns,
                      "nodes": sum(c["nodes"] for c in columns.values()),
                      "cap_nodes": sum(c["cap_nodes"] for c in columns.values())}
    return out


def derivative_points(scale, fn):
    """The points at which fn() interpolates W' and G' of `scale`
    (`GridFunction.derivative`), as {"W_prime_points", "G_prime_points"}."""
    counts = {"W_prime_points": 0, "G_prime_points": 0}
    derivative = GridFunction.derivative

    def counted(self, y):
        for name, grid in (("W_prime_points", scale.W), ("G_prime_points", scale.G)):
            counts[name] += np.size(y) if self is grid else 0
        return derivative(self, y)

    GridFunction.derivative = counted
    try:
        fn()
    finally:
        GridFunction.derivative = derivative
    return counts


def bench_sweep_certified(runs=5):
    columns, certified, default_nodes, sweep_nodes = {}, 0, 0, 0
    points = {"W_prime_points": 0, "G_prime_points": 0}
    for which in Sweep.SWEEPS:
        spec = SWEEPS[which]
        for value in spec.values:
            m = spec.model_for(value)
            p = _grid_arrays(m, DEFAULT_DX, MIN_X_MAX)[1]

            def short():
                scale, sol = locate_barrier(m, x_max=MIN_X_MAX)
                return scale, int(_edge_certificate(scale, sol.alpha))

            default_t, (default_scale, _) = timed(lambda: locate_barrier(m), runs)
            short_t, (short_scale, ok) = timed(short, runs)
            march_t = timed(lambda: _exponential_march(p, m.claim.mu, m.lam, m.q, DEFAULT_DX,
                                                       [1.0], [0.0]), runs)[0]
            find_t = timed(lambda: find_barrier(short_scale), runs)[0]
            column_points = derivative_points(short_scale, lambda: find_barrier(short_scale))
            columns[f"sweep{which}[{value}]"] = {
                "default_s": default_t, "short_s": short_t, "march_s": march_t,
                "find_barrier_s": find_t, **column_points,
                "default_nodes": default_scale.W.n, "short_nodes": short_scale.W.n,
                "certified": ok}
            certified += ok
            default_nodes += default_scale.W.n
            sweep_nodes += short_scale.W.n + (0 if ok else default_scale.W.n)
            for name, count in column_points.items():
                points[name] += count
    return {"columns": columns, "certified": certified, "default_nodes": default_nodes,
            "run_sweep_nodes": sweep_nodes, **points}


def bench_convolution(nodes=33334):
    out = {"nodes": nodes}
    models = {"exponential": sweep1_q05(),
              "erlang2": dataclasses.replace(tabulated_cli_model(), penalty=PenaltyModel.zero())}
    for name, model in models.items():
        x, p = _grid_arrays(model, DEFAULT_DX, DEFAULT_DX * (nodes - 1))
        u = _march(model, p, DEFAULT_DX, None)[0][:, 0]
        f = model.claim.density(x)
        out[f"{name}_s"] = timed(lambda: _trapezoid_convolution(u, f, DEFAULT_DX), runs=10)[0]
    return out


def bench_find_barrier():
    scales = [locate_barrier(m)[0] for m in SWEEP_MODELS]
    t, sols = timed(lambda: [find_barrier(s) for s in scales], runs=7)
    return {"models": len(scales), "find_barrier_s": t,
            "max_width": max(sol.refinement_width for sol in sols)}


def bench_grid_lookup(calls=200):
    scale = locate_barrier(sweep1_q05())[0]
    W = scale.W
    a = find_barrier(scale).a_star
    points = {"float": a, "1": np.array([a]), "65": np.linspace(a - W.dx, a + W.dx, 65)}
    out = {"nodes": W.n, "calls": calls}
    for label, y in points.items():
        for name, fn in (("value", W), ("derivative", W.derivative)):
            out[f"{name}_{label}_s"] = timed(lambda: [fn(y) for _ in range(calls)],
                                             runs=7, per=calls)[0]
    return out


def history_seconds(fn):
    """The seconds that one call of fn() spends in the methods of
    `scale._PartitionedHistory`: the older history of the blocked march."""
    spent = [0.0]
    methods = {name: getattr(_PartitionedHistory, name) for name in ("__init__", "push", "older")}

    def timed_method(method):
        def call(*args):
            t0 = time.perf_counter()
            try:
                return method(*args)
            finally:
                spent[0] += time.perf_counter() - t0
        return call

    for name, method in methods.items():
        setattr(_PartitionedHistory, name, timed_method(method))
    try:
        fn()
    finally:
        for name, method in methods.items():
            setattr(_PartitionedHistory, name, method)
    return spent[0]


def bench_blocked(penalised=True, support=40.0, runs=3):
    """The march of `blocked_march_call`."""
    march, n = blocked_march_call(penalised, support)
    return {"nodes": n, "support_nodes": int(round(support / DEFAULT_DX)) + 1,
            "columns": 2 if penalised else 1, "march_s": timed(march, runs)[0],
            "history_s": summary([history_seconds(march) for _ in range(runs)]),
            "faults_per_march": in_fresh_process("pass_faults", "blocked", penalised,
                                                 support),
            "peak_floats_per_node": traced_peak(march) / (8 * n)}


def bench_csv_write(x_max=None):
    v = locate_barrier(tabulated_cli_model(), x_max=x_max)[1].v
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v_curve.csv")

        def write():
            atomic_write(path, v.csv_chunks())

        t, _ = timed(write)
        return {"rows": v.n, "bytes": os.path.getsize(path), "write_s": t,
                "peak_bytes": traced_peak(write)}


def bench_tabulated_cli_pass(runs=5):
    with tempfile.TemporaryDirectory() as tmp:
        workload = TabulatedCli(SEED, tmp)
        workload.setup()
        workload.run_pass()  # the first calls
        totals, commands = [], {}
        for _ in range(runs):
            ops = workload.run_pass()
            failed = [f"{op.name}: {op.detail}" for op in ops if not op.ok]
            if failed:
                raise RuntimeError(f"tabulated_cli pass failed: {failed}")
            totals.append(sum(op.seconds for op in ops))
            for op in ops:
                commands.setdefault(op.name, []).append(op.seconds)
        with open(os.path.join(workload.barrier_dir, "v_curve.csv"), encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
    return {"pass_s": summary(totals), "v_curve_rows": rows,
            **{f"{name}_s": summary(seconds) for name, seconds in commands.items()}}


def bench_omega(nodes=None):
    params = tabulated_cli_model()
    x = _grid_arrays(params, DEFAULT_DX, default_x_max(params))[0][:nodes]
    return {"nodes": x.size, "omega_s": timed(lambda: omega_eval(params, x))[0]}


def bench_refill(keys=PHILOX_KEYS):
    seed = montecarlo_cases()[0][3].seed
    return {f"key_s_{n}": timed(lambda: simulate.philox_uniforms(np.arange(n), seed, 1),
                                runs=15, per=n)[0] for n in keys}


def mc_pass_faults(paths=None):
    """The minor page faults of each `montecarlo` estimate in the second of
    two passes of the three, run in turn as the workload's passes run them:
    a back-to-back second call of one estimate reuses the heap that its
    first call left, and counts none."""
    cases = montecarlo_cases(paths)

    def one_pass():
        faults = []
        for _, fn, model, config in cases:
            before = minor_faults()
            fn(model, X0, config)
            faults.append(minor_faults() - before)
        return faults

    one_pass()
    return one_pass()


def bench_mc_memory(paths=None):
    faults = in_fresh_process("mc_pass_faults", paths)
    out = {name: {"paths": config.paths, "faults": n,
                  "peak_bytes": traced_peak(lambda: fn(model, X0, config))}
           for (name, fn, model, config), n in zip(montecarlo_cases(paths), faults)}
    out["pass_faults"] = sum(faults)
    return out


def bench_survivors(paths=None):
    """The Gerber-Shiu estimate of the `montecarlo` workload, where most paths
    outlive ln(10)/q and the Russian roulette ends them."""
    _, fn, model, config = montecarlo_cases(paths)[1]
    t, est = timed(lambda: fn(model, X0, config), runs=3)
    return {"paths": config.paths, "estimate_s": t, "mean": est.mean,
            "std_error": est.std_error, "ruin_fraction": est.ruin_fraction}


def bench_small_calls(runs=20):
    """`simulate_value` of the `montecarlo` workload with few paths, and the
    `simulate._refill` calls each makes (counted in one more, untimed call)."""
    _, fn, model, config = montecarlo_cases()[0]
    refill = simulate._refill
    refills = [0]

    def counted(*args):
        refills[0] += 1
        return refill(*args)

    out = {}
    for paths in SMALL_CALL_PATHS:
        small = dataclasses.replace(config, paths=paths)
        out[f"call_s_{paths}"] = timed(lambda: fn(model, X0, small), runs)[0]
        refills[0] = 0
        simulate._refill = counted
        try:
            fn(model, X0, small)
        finally:
            simulate._refill = refill
        out[f"refills_{paths}"] = refills[0]
    return out


def main():
    layers = {
        "imports": bench_imports(),
        "sweep_march": bench_sweep_march(),
        "penalised_solve": bench_penalised_solve(),
        "locate": bench_locate(),
        "locate_nodes": bench_locate_nodes(),
        "sweep_certified": bench_sweep_certified(),
        "convolution": bench_convolution(),
        "find_barrier": bench_find_barrier(),
        "grid_lookup": bench_grid_lookup(),
        "blocked_march": bench_blocked(),
        "blocked_march_no_penalty": bench_blocked(penalised=False),
        "blocked_march_support_160": bench_blocked(support=160.0),
        "csv_write": bench_csv_write(),
        "tabulated_cli_pass": bench_tabulated_cli_pass(),
        "omega": bench_omega(),
        "refill": bench_refill(),
        "mc_memory": bench_mc_memory(),
        "survivors": bench_survivors(),
        "small_calls": bench_small_calls(),
    }
    print(json.dumps(layers, allow_nan=False))


if __name__ == "__main__":
    main()
