#!/usr/bin/env python3
"""Benchmark of the dividend-opt pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload sweep|tabulated_cli|montecarlo \
        --seed N --seconds S --trace 0|1

`--trace 0` times the workload untraced and prints the end-to-end metrics:
`setup_s` (median wall time of three fresh processes that import the
package, build the inputs, make the reference solves and warm up every
entry point), `ops_per_s` (checked operations per second of timed calls,
median over the passes that fit in S seconds) and `peak_rss_mb`.

`--trace 1` runs set-up and one pass with every public library function
wrapped (see tracer.py), after one untraced pass of the same workload,
and prints the per-layer metrics and the tracing overhead.  The spans are
written to `.perfbench_out/` at the end.

The process and its set-up processes run on one CPU with one BLAS thread
(see `pin_to_one_core`).  Every output is checked (see workloads.py).  The
last line of standard output is the result object; the line before it
carries the machine block, the per-operation counts and the timing
samples.  The library is imported from `src/` of the checkout; without it
the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 3
PROBE_TIMEOUT = 40.0  # a set-up takes 2-4 s; three must fit in a 180 s run
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_to_one_core():
    """Run on one CPU with one BLAS thread.

    Called before numpy loads; the set-up processes inherit both settings.
    The benchmark measures throughput per core.  On a shared 2-core VM a
    process that keeps both cores busy (run_sweep's thread pool, BLAS
    threads) waits for the host in long episodes, and its time moved by
    25% between runs.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def require_source():
    if not os.path.isfile(os.path.join(SRC, "dividend_opt", "__init__.py")):
        print(f"perfbench: no library source at {SRC}; run from a checkout root",
              file=sys.stderr)
        sys.exit(2)


def import_package() -> float:
    """Import the library the way the CLI does; returns the seconds taken."""
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    importlib.import_module("dividend_opt")
    importlib.import_module("dividend_opt.tables")
    importlib.import_module("dividend_opt.cli")
    return perf_counter() - t0


def machine_block() -> dict:
    import numpy as np
    import scipy

    import dividend_opt

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    backend = dividend_opt.backend_name()
    block = {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "backend": backend,
        "reference_backend": backend == "python",
    }
    if backend != "python":
        block["warning"] = ("compiled backend: not comparable with the pure-Python "
                            "results the benchmark is defined on")
        print(f"perfbench: WARNING {block['warning']}", file=sys.stderr)
    return block


def new_workdir(tag: str) -> str:
    os.makedirs(OUT, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT)


def setup_workload(name: str, seed: int, workdir: str):
    """Build the workload and warm up; returns (workload, inputs_s, first_call_s)."""
    from workloads import WORKLOADS, warm_up

    workload = WORKLOADS[name](seed, workdir)
    t0 = perf_counter()
    workload.setup()
    t1 = perf_counter()
    warm_up(workdir)
    return workload, t1 - t0, perf_counter() - t1


def setup_probe(args) -> int:
    """One fresh-process set-up; prints its internal timings as JSON."""
    import_s = import_package()
    workdir = new_workdir(f"probe-{args.workload}")
    try:
        _, inputs_s, first_call_s = setup_workload(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": import_s, "inputs_s": inputs_s,
                      "first_call_s": first_call_s}))
    return 0


def measure_setup(args) -> dict:
    """Run SETUP_SAMPLES fresh set-up processes, one after another."""
    walls, inner = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT)
        walls.append(perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        inner.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {"wall_s": walls, "probes": inner}


def cpu_steal_jiffies():
    """(steal, total) jiffies of the CPU this process runs on, from
    /proc/stat; None where that is not available."""
    label = f"cpu{min(os.sched_getaffinity(0))}"
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                name, *values = line.split()
                if name == label:
                    fields = [int(v) for v in values]
                    return fields[7] if len(fields) > 7 else 0, sum(fields)
    except (OSError, ValueError):
        pass
    return None


def run_passes(workload, seconds: float):
    """Passes until the next one would end after `seconds` (at least one)."""
    ops, rates, walls = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        pass_ops = workload.run_pass()
        walls.append(perf_counter() - t0)
        ops += pass_ops
        rates.append(len(pass_ops) / sum(op.seconds for op in pass_ops))
        if perf_counter() - start + statistics.median(walls) > seconds:
            return ops, rates, walls


def summarize(ops) -> tuple:
    per_name, failures = {}, []
    for op in ops:
        entry = per_name.setdefault(op.name, {"attempted": 0, "failed": 0})
        entry["attempted"] += 1
        if not op.ok:
            entry["failed"] += 1
            failures.append(f"{op.name}: {op.detail}")
    return per_name, failures


def sample_stats(values) -> dict:
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 20:
        # the highest percentile with at least ten samples beyond it
        k = int(100 * (1 - 10 / len(values)))
        out[f"p{k}"] = statistics.quantiles(values, n=100)[k - 1]
    return out


def measured_run(args) -> tuple:
    setup = measure_setup(args)
    import_s = import_package()
    workdir = new_workdir(args.workload)
    try:
        workload, _, _ = setup_workload(args.workload, args.seed, workdir)
        before = cpu_steal_jiffies()
        ops, rates, walls = run_passes(workload, args.seconds)
        after = cpu_steal_jiffies()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {
        "setup_s": {"value": statistics.median(setup["wall_s"]), "unit": "s"},
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "unit": "MB"},
    }
    detail = {"setup": setup, "in_process_import_s": import_s,
              "pass_wall_s": sample_stats(walls), "ops_per_s": sample_stats(rates)}
    if before and after and after[1] > before[1]:
        # time the hypervisor gave the CPU to other guests: the main source of
        # run-to-run spread on a shared VM
        detail["cpu_steal_share"] = (after[0] - before[0]) / (after[1] - before[1])
    return ops, metrics, detail


def replay_probes(tracer) -> dict:
    """Untraced replays of recorded calls: serial sweep columns and W alone."""
    import inspect

    from dividend_opt import scale, tables

    serial = 0.0
    signature = inspect.signature(tables.run_sweep)
    for args, kwargs in tracer.calls.get("tables.run_sweep", []):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        spec = tables.SWEEPS[bound.arguments["which"]]
        for value in spec.values:
            t0 = perf_counter()
            try:
                tables.locate_barrier(spec.model_for(value), dx=bound.arguments["dx"],
                                      x_max=bound.arguments["x_max"])
            except Exception:  # run_sweep turns these into NaN rows too
                pass
            serial += perf_counter() - t0
    march = 0.0
    for args, kwargs in tracer.calls.get("scale.solve", []):
        t0 = perf_counter()
        scale.compute_W(*args, **kwargs)
        march += perf_counter() - t0
    return {"tables.serial_locate_s": serial, "scale.W_march_s": march}


def traced_run(args) -> tuple:
    from tracer import LAYERS, Tracer

    import_s = import_package()
    tracer = Tracer()
    workdir = new_workdir(args.workload)
    try:
        tracer.install()
        try:
            workload, inputs_s, first_call_s = setup_workload(args.workload,
                                                              args.seed, workdir)
        finally:
            tracer.uninstall()
        t0 = perf_counter()
        ops = workload.run_pass()
        untraced = perf_counter() - t0
        tracer.install()
        try:
            t0 = perf_counter()
            ops += workload.run_pass()
            traced = perf_counter() - t0
        finally:
            tracer.uninstall()
        probes = replay_probes(tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    t, n = tracer.seconds, tracer.count
    locates = n("tables.locate_barrier")
    values = {
        "setup.import_s": import_s,
        "setup.inputs_s": inputs_s,
        "setup.first_call_s": first_call_s,
        "tables.run_sweep_s": t("tables.run_sweep"),
        "tables.serial_locate_s": probes["tables.serial_locate_s"],
        "tables.solves_per_locate": (tracer.children_named(
            "tables.locate_barrier", "scale.solve") / locates) if locates else 0.0,
        "scale.solve_s": t("scale.solve"),
        "scale.W_march_s": probes["scale.W_march_s"],
        "scale.nodes": tracer.totals["scale.nodes"],
        "barrier.find_s": t("barrier.find"),
        "barrier.h_evals": n("barrier.h_eval"),
        "hjb.verify_s": t("hjb.verify"),
        "model.parse_s": t("model.parse"),
        "model.validate_s": t("model.validate"),
        "model.omega_s": t("model.omega"),
        "model.omega_calls": n("model.omega"),
        "grid.csv_write_s": t("grid.csv_write"),
        "grid.csv_bytes": tracer.totals["grid.csv_bytes"],
        "grid.csv_read_s": t("grid.csv_read"),
        "cli.barrier_s": t("cli.barrier"),
        "cli.verify_s": t("cli.verify"),
        "cli.simulate_s": t("cli.simulate"),
        "simulate.value_s": t("simulate.value"),
        "simulate.gerber_s": t("simulate.gerber"),
        "simulate.paths": tracer.totals["simulate.paths"],
        "flow.forward_calls": n("flow.forward"),
        "flow.hit_calls": n("flow.hit"),
        "flow.forward_s": t("flow.forward"),
        "flow.hit_s": t("flow.hit"),
    }
    for layer, seconds in tracer.self_seconds().items():
        values[f"{layer}.self_s"] = seconds
    values.update({"trace.untraced_pass_s": untraced, "trace.traced_pass_s": traced,
                   "trace.overhead_s": traced - untraced,
                   "trace.spans": len(tracer.spans)})
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "layers": list(LAYERS), "totals": dict(tracer.totals),
                   "spans": tracer.to_records()}, fh)
    return ops, metrics, {"trace_file": os.path.relpath(trace_path, ROOT)}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "grid.csv_bytes":
        return "bytes"
    if name == "tables.solves_per_locate":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "tabulated_cli", "montecarlo"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    require_source()
    pin_to_one_core()
    if args.setup_probe:
        return setup_probe(args)

    ops, metrics, detail = (traced_run if args.trace else measured_run)(args)
    per_name, failures = summarize(ops)
    failed = sum(e["failed"] for e in per_name.values())
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "machine": machine_block(),
                      "operations": per_name, "failures": failures[:20], **detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
