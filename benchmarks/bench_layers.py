#!/usr/bin/env python3
"""Benchmark the hot layers against their reference implementations.

Times these layers, best of k:

- the reference O(n^2) Volterra march `_reference.volterra_march` on a
  representative model (linear premium, exponential claims), against the
  O(n) `scale._exponential_march` that `solve_scale` takes for it.
- the exponential march of W summed over the 10 models of sweeps 1 and 6
  (the `sweep` workload of `perfbench`, grid dx 0.005), with the largest
  `tracemalloc` peak of one march in float64 per node and the minor page
  faults per march (`resource.getrusage`).
- `solve_scale` summed over the same 10 models with the constant penalty
  w = -1: W and G_p are two columns of one exponential march, then G and
  the diagnostics, read once per solve.  It goes through the public API
  only.
- `tables.locate_barrier` summed over the same 10 models, with no
  penalty, as `dividend-opt tables` runs it, with its minor page faults
  per locate; then, apart, the first read of the value curve `v` and of
  the residual diagnostics, which `tables` never reads.
- the diagnostics convolution `scale._trapezoid_convolution` of W with
  the claim density on 33 334 nodes, for sweep 1's q = 0.05 model
  (exponential claims) and for the `tabulated_cli` model of `perfbench`
  (tabulated Erlang-2 claims).
- `barrier.find_barrier` summed over the 10 models of sweeps 1 and 6, on
  scale functions solved beforehand: the grid scan, the refinement of a*
  and the assembly of the value function.
- lookups of W and W' on sweep 1's q = 0.05 model at its barrier a*: a
  float, a 1-point array and the 65 points of a first refinement round of
  a*, per call.  The values must equal np.interp over writeable copies of
  the whole grid bit for bit, and W' at each float must equal the array
  W' there.
- the march of a tabulated claim density, on the `tabulated_cli` model of
  `perfbench` (grid dx 0.005, x_max 166.7, 33 334 nodes) with and without
  its linear penalty, and with its linear penalty on a claim support of
  160 instead of 40 (K = 32 001 instead of 8 001 nodes of support): one
  reference march per function (W, and G_p with the penalty) against the
  one call of `scale._march`, which marches both as the two columns of
  the blocked march.  The largest node-wise relative gap to the reference
  is printed with it, the time of the march's older history (the methods
  of `scale._PartitionedHistory`), the blocked march's `tracemalloc` peak
  in float64 per node and its minor page faults per march; then the march
  time at both supports, side by side.
- the CSV write of the `tabulated_cli` model's value curve `v` (33 334
  rows), as `barrier` writes `v_curve.csv`: the chunk stream of
  `GridFunction.csv_chunks` through `grid.atomic_write` against the whole
  text of `to_csv_string`, each with its `tracemalloc` peak; the two
  files must be equal byte for byte.
- the penalty rate omega on every node of a solve grid (dx 0.005,
  x_max 166.7) for a tabulated Erlang-2 claim density with a linear
  penalty: the exact, vectorized `model.omega_eval` against the per-node
  quadrature oracle `_reference.omega_quadrature`, which runs Simpson
  between the kinks of the integrand and so agrees to rounding.
- the group kernel of `simulate.philox_uniforms` drawing one Philox block
  per key, as a lockstep refill draws it, at 2 048, 8 192 and 32 000 keys,
  in ns per key; more keys than `simulate._PHILOX_TILE` (8 192) run in
  tiles of that many.
- the memory of `perfbench`'s two closed-form `montecarlo` calls at seed
  7: `simulate_value` with 32 000 paths and `simulate_gerber_shiu` with
  20 000, each with its `tracemalloc` peak and its minor page faults
  (`resource.getrusage`, over a second call).
- the Monte-Carlo Gerber-Shiu estimate of `perfbench`'s `montecarlo`
  workload (sweep 1 at q = 0.05 with the penalty w = -1, horizon 300),
  where most paths outlive ln(10)/q and the Russian roulette ends them:
  its time, standard error and weighted ruin fraction.
- small Monte-Carlo calls: `simulate_value` on sweep 1 at q = 0.05 from
  x = a*, at the barrier a*, to the horizon 300, with 8, 100 and 1 000
  paths, where a call's fixed costs (refills, per-iteration numpy calls)
  outweigh its per-path work; each with its Philox refills per call.
- the Monte-Carlo value under a barrier: the scalar per-path event loop
  `_reference.closed_form_path` on pre-drawn uniforms (claims and
  roulette) against the lockstep engine (which draws its own).

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_layers.py [--paths 20000] [--nodes 20000]
"""

import argparse
import dataclasses
import math
import os
import resource
import tempfile
import time
import tracemalloc

import numpy as np

from dividend_opt import (ClaimModel, ModelParams, PenaltyModel, PremiumModel,
                          SimulationConfig, omega_eval, simulate_gerber_shiu,
                          simulate_value, solve_scale)
from dividend_opt import _reference, find_barrier, simulate
from dividend_opt.grid import atomic_write
from dividend_opt.scale import (_PartitionedHistory, _exponential_march, _grid_arrays,
                                _march, _trapezoid_convolution)
from dividend_opt.tables import DEFAULT_DX, SWEEPS, default_x_max, locate_barrier

PARAMS = ModelParams(PremiumModel.linear(1.0, 0.02), ClaimModel.exponential(0.3),
                     PenaltyModel.zero(), lam=0.1, q=0.05)


def traced_peak(fn, *args):
    """The `tracemalloc` peak of one call, in bytes; its result is dropped."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def time_best(fn, *args, repeats=3):
    """Best of `repeats` runs (steady state, BLAS threads warmed up)."""
    best = math.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_volterra(nodes: int):
    dx = 0.005
    x = dx * np.arange(nodes)
    p = np.asarray(PARAMS.premium.p(x))
    f = np.asarray(PARAMS.claim.density(x))
    t_general, _ = time_best(_reference.volterra_march, p, f, 0.1, 0.05, dx, 1.0, None)
    t_exp, _ = time_best(_exponential_march, p, PARAMS.claim.mu, 0.1, 0.05, dx,
                         [1.0], [0.0])
    return {"general": t_general, "exponential": t_exp}


def sweep_models():
    """The 10 models of sweeps 1 and 6: the `sweep` workload of `perfbench`."""
    return [SWEEPS[w].model_for(v) for w in (1, 6) for v in SWEEPS[w].values]


def bench_sweep_march():
    """W's exponential march on each model of sweeps 1 and 6, summed; the
    minor page faults per march over a second pass, and the largest traced
    peak of one march in float64 per node.  Each march's result is dropped
    before the next, as `locate_barrier` drops it."""
    grids = [(m, _grid_arrays(m, DEFAULT_DX, default_x_max(m))[1]) for m in sweep_models()]

    def march(m, p):
        _exponential_march(p, m.claim.mu, m.lam, m.q, DEFAULT_DX, [1.0], [0.0])

    def one_pass():
        for m, p in grids:
            march(m, p)

    one_pass()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    one_pass()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    t, _ = time_best(one_pass)
    peak = max(traced_peak(march, m, p) / (8 * p.size) for m, p in grids)
    return {"models": len(grids), "nodes": sum(p.size for _, p in grids), "march": t,
            "faults_per_march": faults / len(grids), "peak_floats_per_node": peak}


def bench_penalised_solve():
    """`solve_scale` on each model of sweeps 1 and 6 with the constant
    penalty w = -1, summed: W and G_p marched, G and the diagnostics."""
    models = [dataclasses.replace(m, penalty=PenaltyModel.constant(1.0))
              for m in sweep_models()]
    t, _ = time_best(lambda: [solve_scale(m, DEFAULT_DX, default_x_max(m)).diagnostics
                              for m in models])
    return {"models": len(models), "solve": t}


def bench_locate(repeats: int = 5):
    """`locate_barrier` on each model of sweeps 1 and 6, summed, as
    `tables.run_sweep` calls it, dropping each result before the next, with
    the minor page faults per locate over a second pass; then the first
    read of v and of the diagnostics of a located model, best of `repeats`
    fresh locates each, summed over the models."""
    models = sweep_models()

    def one_pass():
        for m in models:
            locate_barrier(m)

    one_pass()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    one_pass()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    t_locate, _ = time_best(one_pass, repeats=repeats)
    t_v = t_diag = 0.0
    for m in models:
        best_v = best_diag = math.inf
        for _ in range(repeats):
            scale, sol = locate_barrier(m)
            t0 = time.perf_counter()
            sol.v
            t1 = time.perf_counter()
            scale.diagnostics
            best_v = min(best_v, t1 - t0)
            best_diag = min(best_diag, time.perf_counter() - t1)
        t_v += best_v
        t_diag += best_diag
    return {"models": len(models), "locate": t_locate,
            "faults_per_locate": faults / len(models), "first_v": t_v,
            "first_diagnostics": t_diag}


def bench_convolution(nodes: int = 33334):
    """The diagnostics convolution of W with the claim density on `nodes`
    nodes of step DEFAULT_DX: sweep 1's q = 0.05 model (exponential claims)
    and the tabulated_cli model without its penalty (Erlang-2)."""
    out = {"nodes": nodes}
    for name, model in (("exponential", SWEEPS[1].model_for(0.05)),
                        ("erlang2", dataclasses.replace(omega_params(),
                                                        penalty=PenaltyModel.zero()))):
        x, p = _grid_arrays(model, DEFAULT_DX, DEFAULT_DX * (nodes - 1))
        u = _march(model, p, DEFAULT_DX, None)[0][:, 0]
        out[name], _ = time_best(_trapezoid_convolution, u, model.claim.density(x),
                                 DEFAULT_DX, repeats=10)
    return out


def bench_find_barrier():
    """find_barrier on each model of sweeps 1 and 6, scale functions solved
    beforehand (on the domain `locate_barrier` settles on), summed."""
    scales = [locate_barrier(m)[0] for m in sweep_models()]
    t, sols = time_best(lambda: [find_barrier(s) for s in scales], repeats=7)
    return {"models": len(scales), "find_barrier": t,
            "max_width": max(sol.refinement_width for sol in sols)}


def bench_grid_lookup(calls: int = 200):
    """W and W' at a* of sweep 1's q = 0.05 model, seconds per lookup: a
    float, a 1-point array and 65 points spanning a* +- one grid step (the
    first round of `barrier._refine_max`)."""
    scale = locate_barrier(SWEEPS[1].model_for(0.05))[0]
    W = scale.W
    a = find_barrier(scale).a_star
    points = {"float": a, "1": np.array([a]),
              "65": np.linspace(a - W.dx, a + W.dx, 65)}
    out = {"nodes": W.n}
    for label, y in points.items():
        for name, fn in (("value", W), ("derivative", W.derivative)):
            t, _ = time_best(lambda: [fn(y) for _ in range(calls)], repeats=7)
            out[f"{name}_{label}"] = t / calls
    x, values, ys = W.x.copy(), W.values.copy(), points["65"]
    out["bitwise_equal"] = (
        all(np.array_equal(W(y), np.interp(y, x, values)) for y in points.values())
        and [W.derivative(float(y)) for y in ys] == W.derivative(ys).tolist())
    return out


def omega_params(support: float = 40.0):
    """Linear premium 1 + 0.02x, tabulated Erlang(2, 0.6) claims on
    [0, support] (dx 0.01), linear penalty -1 + 0.5x, lambda 0.1, q 0.05."""
    dx = 0.01
    ys = dx * np.arange(int(round(support / dx)) + 1)
    f = 0.36 * ys * np.exp(-0.6 * ys)
    claim = ClaimModel.tabulated(0.0, dx, f / np.trapezoid(f, dx=dx))
    return ModelParams(PremiumModel.linear(1.0, 0.02), claim,
                       PenaltyModel.linear(1.0, 0.5), lam=0.1, q=0.05)


def bench_omega(nodes: int = int(round(166.7 / 0.005)) + 1):
    params = omega_params()
    x = 0.005 * np.arange(nodes)
    t_ref, ref = time_best(
        lambda: np.array([_reference.omega_quadrature(params, float(v)) for v in x]))
    t_exact, exact = time_best(omega_eval, params, x)
    return {"nodes": x.size, "quadrature": t_ref, "exact": t_exact,
            "max_abs_diff": float(np.max(np.abs(exact - ref)))}


def history_seconds(fn):
    """The seconds that one call of fn spends in the methods of
    `scale._PartitionedHistory`: the older history of the blocked march,
    its segment spectra, ring pushes, and products with their inverse
    transforms."""
    spent = [0.0]
    methods = {name: getattr(_PartitionedHistory, name)
               for name in ("__init__", "push", "older")}

    def timed(method):
        def call(*args):
            t0 = time.perf_counter()
            try:
                return method(*args)
            finally:
                spent[0] += time.perf_counter() - t0
        return call

    for name, method in methods.items():
        setattr(_PartitionedHistory, name, timed(method))
    try:
        fn()
    finally:
        for name, method in methods.items():
            setattr(_PartitionedHistory, name, method)
    return spent[0]


def bench_blocked(penalised: bool, support: float = 40.0, repeats: int = 3):
    """The tabulated_cli model, with its linear penalty or with none, its
    claim density on [0, support]: the reference marches against the
    blocked one, best of `repeats`, and the best of `repeats` times of the
    blocked march's older history; then the blocked march's minor page
    faults over one more call and its traced peak, each call's result
    dropped at once, as `solve_scale` drops it."""
    params = omega_params(support)
    if not penalised:
        params = dataclasses.replace(params, penalty=PenaltyModel.zero())
    dx = DEFAULT_DX
    x, p = _grid_arrays(params, dx, default_x_max(params))
    f = params.claim.density(x)  # the reference's input; `_march` samples its own
    omega = omega_eval(params, x) if penalised else None
    starts = [(1.0, None)] + ([(0.0, omega)] if penalised else [])
    t_ref, ref = time_best(lambda: [_reference.volterra_march(
        p, f, params.lam, params.q, dx, u0, src) for u0, src in starts])
    t_new, (u, d) = time_best(_march, params, p, dx, omega, repeats=repeats)
    gap = 0.0
    for k, (ur, dr, Lr) in enumerate(ref):
        for a, b in ((u[:, k], ur * math.exp(Lr)), (d[:, k], dr * math.exp(Lr))):
            rel = np.divide(np.abs(a - b), np.abs(b), out=np.zeros_like(b), where=b != 0)
            gap = max(gap, float(rel.max()))
    del ref, u, d

    def march():
        _march(params, p, dx, omega)

    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    march()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"nodes": x.size, "support_nodes": int(np.flatnonzero(f)[-1]) + 1,
            "columns": len(starts), "reference": t_ref, "blocked": t_new,
            "history": min(history_seconds(march) for _ in range(repeats)),
            "max_rel_gap": gap, "faults_per_march": faults,
            "peak_floats_per_node": traced_peak(march) / (8 * x.size)}


def bench_csv_write(x_max=None):
    """`v_curve.csv` of the tabulated_cli model (domain [0, x_max], 33 334
    rows by default), written by `atomic_write` from the chunk stream and
    from the whole text, best of 5 each, with each write's traced peak."""
    v = locate_barrier(omega_params(), x_max=x_max)[1].v
    out = {"rows": v.n}
    texts = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v_curve.csv")
        for name, text in (("stream", v.csv_chunks), ("string", v.to_csv_string)):
            def write():
                atomic_write(path, text())

            out[name], _ = time_best(write, repeats=5)
            out[name + "_peak"] = traced_peak(write)
            with open(path, "rb") as fh:
                texts.append(fh.read())
    out["bytes"] = len(texts[0])
    out["bitwise_equal"] = texts[0] == texts[1]
    return out


MC_SEED = 7
MC_BARRIER = 5.33
MC_HORIZON = 250.0


def bench_refill(keys: int):
    """One Philox block (4 uniforms) for each of `keys` keys, as a lockstep
    refill with many live paths draws it: the group kernel of
    `simulate.philox_uniforms`, its scratch buffer included, best of 15,
    in ns per key."""
    t, _ = time_best(simulate.philox_uniforms, np.arange(keys), MC_SEED, 1, repeats=15)
    return {"keys": keys, "ns_per_key": t / keys * 1e9}


def bench_mc_memory(value_paths: int = 32000, gerber_paths: int = 20000):
    """`tracemalloc` peak and minor page faults of one call of each of
    perfbench's `montecarlo` closed-form estimates at seed 7 (sweep 1 at
    q = 0.05 from x = 5: the value at a* to the horizon 250, the
    Gerber-Shiu penalty w = -1 to 300); the faults are counted over a
    second call, after a first has warmed the allocator."""
    params = SWEEPS[1].model_for(0.05)
    a = locate_barrier(params)[1].a_star
    # perfbench's `mc_seed(7, 0)` and `mc_seed(7, 1)`
    calls = {"value": (simulate_value, params, SimulationConfig(
                 value_paths, 250.0, 4474668370826950401, barrier=a)),
             "gerber": (simulate_gerber_shiu,
                        dataclasses.replace(params, penalty=PenaltyModel.constant(1.0)),
                        SimulationConfig(gerber_paths, 300.0, 793649811123725967))}
    out = {}
    for name, (fn, model, config) in calls.items():
        fn(model, 5.0, config)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        fn(model, 5.0, config)
        out[f"faults_{name}"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        out[f"peak_{name}"] = traced_peak(fn, model, 5.0, config)
    return out


def bench_paths(paths: int):
    """Value under the barrier MC_BARRIER from x = 3: the scalar event loop on
    numpy's per-path streams (drawn outside the timing) against the
    lockstep engine, which draws its own uniforms."""
    block = 4096
    keys = [(MC_SEED << 64) + p for p in range(paths)]
    streams = [np.random.Generator(np.random.Philox(key=key)).random(block) for key in keys]
    # the roulette uniform of iteration k is word 0 of block 2**63 + k
    roulette = [np.random.Generator(np.random.Philox(key=key, counter=2 ** 63 - 1))
                .random(2 * block)[::4] for key in keys]

    def scalar():
        return np.array([_reference.closed_form_path(
            u, 0, 1, 1.0, 0.02, 0.3, 0.1, 0.05, 3.0, MC_BARRIER, MC_HORIZON,
            0, 0.0, 0.0, r)[0] for u, r in zip(streams, roulette)])

    config = SimulationConfig(paths, MC_HORIZON, MC_SEED, barrier=MC_BARRIER)
    t_old, v_old = time_best(scalar)
    t_new, (v_new, _) = time_best(simulate._run_paths, PARAMS, 3.0, config, 0,
                                  MC_BARRIER)
    return {"scalar": t_old, "lockstep": t_new,
            "mean_scalar": float(v_old.mean()), "mean_lockstep": float(v_new.mean()),
            "max_rel_diff": float(np.max(np.abs(v_new - v_old)
                                         / np.maximum(np.abs(v_old), 1.0)))}


SMALL_CALL_PATHS = (8, 100, 1000)


def bench_small_calls(repeats: int = 20):
    """Best-of-`repeats` time of `simulate_value` with few paths, sweep 1 at
    q = 0.05 from x = a* to the horizon 300, and the number of
    `simulate._refill` calls each makes (counted in one more, untimed
    call)."""
    params = SWEEPS[1].model_for(0.05)
    a = locate_barrier(params)[1].a_star
    refill = simulate._refill
    refills = []

    def counted(*args):
        refills.append(args[2])  # the iteration k
        return refill(*args)

    out = {}
    for paths in SMALL_CALL_PATHS:
        config = SimulationConfig(paths, 300.0, MC_SEED, barrier=a)
        out[f"seconds_{paths}"], _ = time_best(simulate_value, params, a, config,
                                               repeats=repeats)
        refills.clear()
        simulate._refill = counted
        try:
            simulate_value(params, a, config)
        finally:
            simulate._refill = refill
        out[f"refills_{paths}"] = len(refills)
    return out


def bench_survivors(paths: int = 20000):
    """The Gerber-Shiu estimate of perfbench's `montecarlo` workload: sweep 1
    at q = 0.05 with the penalty w = -1, from x = 5, to the horizon 300,
    where most paths survive; the roulette ends them past ln(10)/q."""
    params = dataclasses.replace(SWEEPS[1].model_for(0.05), penalty=PenaltyModel.constant(1.0))
    config = SimulationConfig(paths, 300.0, MC_SEED)
    t, est = time_best(simulate_gerber_shiu, params, 5.0, config)
    return {"paths": paths, "seconds": t, "mean": est.mean, "std_error": est.std_error,
            "ruin_fraction": est.ruin_fraction}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--paths", type=int, default=20000)
    ap.add_argument("--nodes", type=int, default=20000)
    args = ap.parse_args()

    v = bench_volterra(args.nodes)
    print(f"Volterra march, {args.nodes} nodes:")
    print(f"  O(n^2) reference march {v['general'] * 1e3:9.1f} ms")
    print(f"  O(n) exponential march {v['exponential'] * 1e3:9.1f} ms")

    w = bench_sweep_march()
    print(f"\nExponential march of W, {w['models']} sweep models ({w['nodes']} nodes):")
    print(f"  summed                 {w['march'] * 1e3:9.1f} ms   "
          f"(traced peak {w['peak_floats_per_node']:.1f} float64 per node, "
          f"{w['faults_per_march']:.0f} minor page faults per march)")
    s = bench_penalised_solve()
    print(f"solve_scale, {s['models']} sweep models with the penalty w = -1:")
    print(f"  summed                 {s['solve'] * 1e3:9.1f} ms")
    loc = bench_locate()
    print(f"locate_barrier, {loc['models']} sweep models (the tables path):")
    print(f"  summed                 {loc['locate'] * 1e3:9.1f} ms   "
          f"({loc['faults_per_locate']:.0f} minor page faults per locate)")
    print(f"  first read of v        {loc['first_v'] * 1e3:9.1f} ms")
    print(f"  first read of diagnostics {loc['first_diagnostics'] * 1e3:6.1f} ms")
    c = bench_convolution()
    print(f"Diagnostics convolution of W, {c['nodes']} nodes:")
    print(f"  exponential claims     {c['exponential'] * 1e3:9.2f} ms")
    print(f"  Erlang-2 claims        {c['erlang2'] * 1e3:9.2f} ms")
    b = bench_find_barrier()
    print(f"find_barrier, {b['models']} sweep models (scale functions solved):")
    print(f"  summed                 {b['find_barrier'] * 1e3:9.1f} ms   "
          f"(largest refinement width {b['max_width']:.2g})")
    g = bench_grid_lookup()
    print(f"Lookups of W and W' at a* (sweep 1, q = 0.05, {g['nodes']} nodes), per call:")
    for label in ("float", "1", "65"):
        kind = "a float " if label == "float" else f"{label:>2}-point array"
        print(f"  {kind:16s} W {g['value_' + label] * 1e6:7.1f} us   "
              f"W' {g['derivative_' + label] * 1e6:7.1f} us")
    print(f"  bitwise equal to np.interp over the whole grid: {g['bitwise_equal']}")

    scaling = []
    for penalised, support in ((True, 40.0), (False, 40.0), (True, 160.0)):
        b = bench_blocked(penalised, support)
        label = "W and G_p" if penalised else "W only"
        print(f"\nTabulated-claim march, {b['nodes']} nodes, {label} "
              f"(tabulated_cli model, {'linear' if penalised else 'zero'} penalty, "
              f"claim support {support:g}, K = {b['support_nodes']}):")
        marches = "2 marches" if b["columns"] == 2 else "1 march  "
        print(f"  reference, {marches}  {b['reference'] * 1e3:9.1f} ms")
        print(f"  blocked, one call     {b['blocked'] * 1e3:9.1f} ms   "
              f"({b['reference'] / b['blocked']:.1f}x, max rel gap "
              f"{b['max_rel_gap']:.1e})")
        print(f"  its older history     {b['history'] * 1e3:9.1f} ms")
        print(f"  blocked, traced peak {b['peak_floats_per_node']:.1f} float64 per node, "
              f"{b['faults_per_march']} minor page faults per march")
        if penalised:
            scaling.append(f"K = {b['support_nodes']} {b['blocked'] * 1e3:.1f} ms "
                           f"(history {b['history'] * 1e3:.1f} ms)")
    print("Blocked march of W and G_p by support, best of 3: " + ", ".join(scaling))

    cw = bench_csv_write()
    print(f"\nCSV write of v_curve.csv, {cw['rows']} rows, {cw['bytes']} bytes "
          f"(tabulated_cli model):")
    for name, label in (("stream", "chunk stream"), ("string", "whole text  ")):
        print(f"  {label}          {cw[name] * 1e3:9.1f} ms   "
              f"(traced peak {cw[name + '_peak'] / 1e6:.2f} MB)")
    print(f"  files equal byte for byte: {cw['bitwise_equal']}")

    o = bench_omega()
    print(f"\nPenalty rate omega, {o['nodes']} nodes (tabulated Erlang-2 claims):")
    print(f"  quadrature {o['quadrature'] * 1e3:9.1f} ms")
    print(f"  exact      {o['exact'] * 1e3:9.1f} ms   "
          f"({o['quadrature'] / o['exact']:.0f}x, "
          f"max abs diff {o['max_abs_diff']:.1e})")

    print("\nMonte-Carlo refill, one Philox block per key (group kernel):")
    for keys in (2048, 8192, 32000):
        r = bench_refill(keys)
        print(f"  {keys:6d} keys        {r['ns_per_key']:9.1f} ns per key")

    mm = bench_mc_memory()
    print("\nMonte-Carlo memory, perfbench's montecarlo calls at seed 7:")
    for name, label in (("value", "simulate_value, 32 000 paths     "),
                        ("gerber", "simulate_gerber_shiu, 20 000 paths")):
        print(f"  {label} traced peak {mm['peak_' + name] / 2 ** 20:5.2f} MiB, "
              f"{mm['faults_' + name]} minor page faults")

    sv = bench_survivors(args.paths)
    print(f"\nMonte-Carlo Gerber-Shiu, {args.paths} paths (sweep 1 at q = 0.05, w = -1, "
          f"horizon 300):")
    print(f"  lockstep engine     {sv['seconds'] * 1e3:9.1f} ms   (mean {sv['mean']:.5f}, "
          f"SE {sv['std_error']:.2e}, ruin fraction {sv['ruin_fraction']:.4f})")

    sc = bench_small_calls()
    print("\nMonte-Carlo value, small calls (sweep 1 at q = 0.05, x = a*, horizon 300):")
    for paths in SMALL_CALL_PATHS:
        print(f"  {paths:5d} paths         {sc[f'seconds_{paths}'] * 1e3:9.2f} ms   "
              f"({sc[f'refills_{paths}']} refills per call)")

    p = bench_paths(args.paths)
    print(f"\nMonte-Carlo value, {args.paths} paths (linear premium, barrier {MC_BARRIER}):")
    print(f"  scalar event loop   {p['scalar'] * 1e3:9.1f} ms   (uniforms drawn beforehand)")
    print(f"  lockstep engine     {p['lockstep'] * 1e3:9.1f} ms   "
          f"({p['scalar'] / p['lockstep']:.0f}x, incl. its uniforms; means "
          f"{p['mean_scalar']!r} / {p['mean_lockstep']!r}, "
          f"max per-path diff {p['max_rel_diff']:.1e})")


if __name__ == "__main__":
    main()
