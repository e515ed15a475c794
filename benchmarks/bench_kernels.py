#!/usr/bin/env python3
"""Benchmark the hot kernels against their reference implementations.

Times three layers, best of k:

- the general O(n^2) Volterra march and its compiled twin, on a
  representative model (linear premium, exponential claims).  For this
  exponential model the library itself does not use the O(n^2) march:
  `solve_scale` takes the O(n) `scale._exponential_march`, timed alongside
  for comparison.  The O(n^2) march serves tabulated claim densities.
- the penalty rate omega on every node of a solve grid (dx 0.005,
  x_max 166.7) for a tabulated Erlang-2 claim density with a linear
  penalty: the exact, vectorized `model.omega_eval` against the per-node
  quadrature oracle `_reference.omega_quadrature`.  Their difference
  (about 5e-8) is the oracle's Simpson error at the nodes that fall
  between density samples, where its panels straddle the density's kinks.
- the Monte-Carlo path engine and its compiled twin.

Run after building the extension (the compiled timings are skipped
without it):

    python benchmarks/bench_kernels.py [--paths 20000] [--nodes 20000]
"""

import argparse
import math
import time

import numpy as np

from dividend_opt import (ClaimModel, ModelParams, PenaltyModel, PremiumModel,
                          omega_eval)
from dividend_opt import _backend, _reference
from dividend_opt.scale import _exponential_march

PARAMS = ModelParams(PremiumModel.linear(1.0, 0.02), ClaimModel.exponential(0.3),
                     PenaltyModel.zero(), lam=0.1, q=0.05)


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
    results = {}
    t_py, (u_py, _, _) = time_best(_reference.volterra_march, p, f, 0.1, 0.05,
                                   dx, 1.0, None)
    results["python"] = t_py
    t_lin, _ = time_best(_exponential_march, p, PARAMS.claim.mu, 0.1, 0.05, dx,
                         1.0, None)
    results["exponential"] = t_lin
    if _backend.HAVE_COMPILED:
        t_c, (u_c, _, _) = time_best(_backend._ext.volterra_march, p, f, 0.1,
                                     0.05, dx, 1.0, None)
        results["compiled"] = t_c
        drift = float(np.max(np.abs(u_c - u_py) / np.abs(u_py)))
        results["max_rel_drift"] = drift
    return results


def omega_params():
    """Linear premium 1 + 0.02x, tabulated Erlang(2, 0.6) claims on [0, 40]
    (dx 0.01), linear penalty -1 + 0.5x, lambda 0.1, q 0.05."""
    dx = 0.01
    ys = dx * np.arange(4001)
    f = 0.36 * ys * np.exp(-0.6 * ys)
    claim = ClaimModel.tabulated(0.0, dx, f / np.trapezoid(f, dx=dx))
    return ModelParams(PremiumModel.linear(1.0, 0.02), claim,
                       PenaltyModel.linear(1.0, 0.5), lam=0.1, q=0.05)


def bench_omega():
    params = omega_params()
    x = 0.005 * np.arange(int(round(166.7 / 0.005)) + 1)
    t_ref, ref = time_best(
        lambda: np.array([_reference.omega_quadrature(params, float(v)) for v in x]))
    t_exact, exact = time_best(omega_eval, params, x)
    return {"nodes": x.size, "quadrature": t_ref, "exact": t_exact,
            "max_abs_diff": float(np.max(np.abs(exact - ref)))}


def bench_paths(paths: int):
    horizon = 250.0
    barrier = 5.33
    block = int(2 * 0.1 * horizon + 8 * math.sqrt(2 * 0.1 * horizon + 1) + 16)

    def run(engine):
        total = 0.0
        for pid in range(paths):
            gen = np.random.Generator(np.random.Philox(key=pid))
            u = gen.random(block)
            val, _, _, _, status = engine(u, 0, 1, 1.0, 0.02, 0.3, 0.1, 0.05,
                                          3.0, barrier, horizon, 0, 0.0, 0.0)
            while status == 1:
                u = np.random.Generator(np.random.Philox(key=pid)).random(4 * u.size)
                val, _, _, _, status = engine(u, 0, 1, 1.0, 0.02, 0.3, 0.1,
                                              0.05, 3.0, barrier, horizon,
                                              0, 0.0, 0.0)
            total += val
        return total / paths

    results = {}
    t_py, mean_py = time_best(run, _reference.closed_form_path, repeats=2)
    results["python"] = t_py
    if _backend.HAVE_COMPILED:
        t_c, mean_c = time_best(run, _backend._ext.closed_form_path, repeats=2)
        results["compiled"] = t_c
        results["bitwise_equal"] = (mean_c == mean_py)
    return results


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--paths", type=int, default=20000)
    ap.add_argument("--nodes", type=int, default=20000)
    args = ap.parse_args()

    print(f"selected backend: {_backend.backend_name()}")
    if not _backend.HAVE_COMPILED:
        print("compiled kernels unavailable; timing the fallback only\n")

    v = bench_volterra(args.nodes)
    print(f"\nVolterra march, {args.nodes} nodes:")
    print(f"  python   {v['python'] * 1e3:9.1f} ms")
    print(f"  O(n) exponential march {v['exponential'] * 1e3:9.1f} ms")
    if "compiled" in v:
        print(f"  compiled {v['compiled'] * 1e3:9.1f} ms   "
              f"({v['python'] / v['compiled']:.1f}x, "
              f"max rel drift {v['max_rel_drift']:.1e})")

    o = bench_omega()
    print(f"\nPenalty rate omega, {o['nodes']} nodes (tabulated Erlang-2 claims):")
    print(f"  quadrature {o['quadrature'] * 1e3:9.1f} ms")
    print(f"  exact      {o['exact'] * 1e3:9.1f} ms   "
          f"({o['quadrature'] / o['exact']:.0f}x, "
          f"max abs diff {o['max_abs_diff']:.1e})")

    p = bench_paths(args.paths)
    print(f"\nMonte-Carlo engine, {args.paths} paths (incl. per-path stream setup):")
    print(f"  python   {p['python'] * 1e3:9.1f} ms")
    if "compiled" in p:
        print(f"  compiled {p['compiled'] * 1e3:9.1f} ms   "
              f"({p['python'] / p['compiled']:.1f}x, "
              f"bitwise equal: {p['bitwise_equal']})")


if __name__ == "__main__":
    main()
