"""Command-line front end.

    dividend-opt validate CONFIG [--out DIR]
    dividend-opt barrier  CONFIG [--dx --xmax --out DIR]
    dividend-opt tables   --which N [--out DIR --dx --xmax]
    dividend-opt verify   CONFIG [--barrier LEVEL --dx --xmax --out DIR]
    dividend-opt simulate CONFIG --x X --paths N --seed S --horizon H
                          [--barrier LEVEL | --barrier-file barrier_dir]
                          [--out DIR]

Exit codes: 0 success, 1 verification verdict negative, 2 validation
failure (of the configuration, or of the barrier.json or v_curve.csv that
--barrier-file names), 3 numerical or I/O failure, 64 usage error
(including an argument value that the library rejects with ValueError).
All file outputs are written atomically (temporary name, then rename)
and listed in a run manifest next to them; the JSON ones hold null for a
value that is not finite.  The manifest's `config_digest` is the SHA-256
hex digest of the config file's bytes, computed with the interpreter's
built-in SHA-256 so that no command loads OpenSSL.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .errors import ConfigError, DividendOptError, ModelValidationError, NumericsError
from .grid import atomic_write, csv_value
from .hjb import verify_optimality
from .model import _number, params_from_json, validate_model
from .simulate import (SimulationConfig, _check_capital, simulate_gerber_shiu,
                       simulate_value)
from .tables import DEFAULT_DX, SWEEPS, locate_barrier, run_sweep, sweep_csv

# hashlib is heavy to load: it brings in OpenSSL's libcrypto through _hashlib
# (about 3.5 MB resident), so the built-in SHA-256 comes first, as in random.py
try:
    from _sha2 import sha256 as _sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_VALIDATION = 2
EXIT_NUMERICS = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha256(fh.read()).hexdigest()


def _write_outputs(out_dir: str, command: str, config_digest: str, files: dict,
                   t0: float):
    """Write each {filename: text} of `files` atomically into `out_dir`, then
    the run manifest that lists them.  A text is a str or a stream of str
    chunks (`GridFunction.csv_chunks`), written as it comes."""
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    for name, text in files.items():
        outputs.append(os.path.join(out_dir, name))
        atomic_write(outputs[-1], text)
    doc = {
        "command": command,
        "config_digest": config_digest,
        "tool_version": __version__,
        "outputs": sorted(outputs),
        "wall_time": time.time() - t0,
    }
    atomic_write(os.path.join(out_dir, "manifest.json"), json.dumps(doc, indent=2) + "\n")


def _finite_or_none(obj):
    """obj with every non-finite float in it, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_none(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(value) for value in obj]
    return obj


def _dump_json(obj) -> str:
    """Standard JSON (RFC 8259): a non-finite float is written as null."""
    return json.dumps(_finite_or_none(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _load_params(path: str):
    params = params_from_json(path)
    report = validate_model(params)
    if not report.passed:
        raise ModelValidationError("model validation failed: "
                                   + "; ".join(report.reasons))
    return params


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    t0 = time.time()
    params = params_from_json(args.config)
    report = validate_model(params)
    text = _dump_json(report.to_dict())
    if args.out:
        _write_outputs(args.out, "validate", _digest(args.config),
                       {"validation.json": text}, t0)
    sys.stdout.write(text)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_barrier(args) -> int:
    t0 = time.time()
    params = _load_params(args.config)
    scale, sol = locate_barrier(params, dx=args.dx, x_max=args.xmax)
    doc = sol.to_dict()
    doc["stable_coefficient"] = scale.stable_coefficient
    doc["domain_end"] = scale.domain_end
    doc["domain"] = scale.domain
    doc["diagnostics"] = scale.diagnostics
    _write_outputs(args.out, "barrier", _digest(args.config),
                   {"barrier.json": _dump_json(doc),
                    "h_profile.csv": sol.h_profile.csv_chunks(),
                    "v_curve.csv": sol.v.csv_chunks()}, t0)
    sys.stdout.write(f"a_star = {sol.a_star:.6f}  (v(a*) = {sol.v_at_barrier:.6f})\n")
    return EXIT_OK


def _cmd_tables(args) -> int:
    t0 = time.time()
    which = sorted(SWEEPS) if args.which is None else [args.which]
    files = {}
    for w in which:
        rows = run_sweep(w, dx=args.dx, x_max=args.xmax)
        files[f"table{w}.csv"] = sweep_csv(rows)
        worst = max((r[3] for r in rows if not math.isnan(r[3])), default=math.nan)
        sys.stdout.write(f"table {w}: max |a_star - ref| = {worst:.3f}\n")
    _write_outputs(args.out, "tables", "", files, t0)
    return EXIT_OK


def _cmd_verify(args) -> int:
    t0 = time.time()
    params = _load_params(args.config)
    _, sol = locate_barrier(params, dx=args.dx, x_max=args.xmax, barrier=args.barrier)
    report = verify_optimality(sol, params)
    _write_outputs(args.out, "verify", _digest(args.config),
                   {"optimality.json": _dump_json(report.to_dict()),
                    "residual_profile.csv": report.residual_profile.csv_chunks()}, t0)
    verdict = "optimal" if report.necessary_sufficient_pass else "NOT optimal"
    sys.stdout.write(f"barrier {report.barrier:.6f}: {verdict} "
                     f"(max residual above = {report.max_residual_above:.3e})\n")
    return EXIT_OK if report.necessary_sufficient_pass else EXIT_VERDICT


def _cmd_simulate(args) -> int:
    t0 = time.time()
    params = _load_params(args.config)

    barrier = args.barrier
    analytic = None
    if args.barrier_file:
        bpath = os.path.join(args.barrier_file, "barrier.json")
        with open(bpath, encoding="utf-8") as fh:
            try:
                bdoc = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"{bpath}: not valid JSON: {exc}") from None
        barrier = _number(bpath, "a_star",
                          bdoc.get("a_star") if isinstance(bdoc, dict) else None)
        vpath = os.path.join(args.barrier_file, "v_curve.csv")
        if os.path.exists(vpath):
            x = _check_capital(args.x)  # an invalid --x stays a usage error
            try:
                analytic, x0, x_end = csv_value(vpath, x)
            except ValueError as exc:
                raise ConfigError(f"{vpath}: {exc}") from None
            if analytic is None:
                raise ConfigError(
                    f"{vpath}: its grid starts at x={x0:.6g}, above --x {x:.6g}; "
                    f"use the v_curve.csv that 'barrier' writes, whose grid starts "
                    f"at 0")
            if x > x_end:  # linear continuation past the stored grid
                analytic += x - x_end

    config = SimulationConfig(paths=args.paths, horizon=args.horizon,
                              seed=args.seed, barrier=barrier)
    if barrier is not None:
        est = simulate_value(params, args.x, config)
    else:
        est = simulate_gerber_shiu(params, args.x, config)
    doc = est.to_dict()
    if analytic is not None:
        z = (est.mean - analytic) / est.std_error if est.std_error > 0 else math.inf
        doc["comparison"] = {"analytic": analytic, "z_score": z}
    _write_outputs(args.out, "simulate", _digest(args.config),
                   {"estimate.json": _dump_json(doc)}, t0)
    sys.stdout.write(f"mean = {est.mean:.6f} +- {est.std_error:.6f} "
                     f"(ruin fraction {est.ruin_fraction:.4f})\n")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="dividend-opt",
                     description="Optimal dividend barriers for surplus-dependent "
                                 "premium risk processes")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="check a model configuration")
    pv.add_argument("config")
    pv.add_argument("--out", default=None)
    pv.set_defaults(fn=_cmd_validate)

    pb = sub.add_parser("barrier", help="locate the optimal barrier")
    pb.add_argument("config")
    pb.add_argument("--dx", type=float, default=DEFAULT_DX)
    pb.add_argument("--xmax", type=float, default=None)
    pb.add_argument("--out", default="out")
    pb.set_defaults(fn=_cmd_barrier)

    pt = sub.add_parser("tables", help="run the built-in reference sweeps")
    pt.add_argument("--which", type=int, choices=sorted(SWEEPS), default=None)
    pt.add_argument("--dx", type=float, default=DEFAULT_DX)
    pt.add_argument("--xmax", type=float, default=None)
    pt.add_argument("--out", default="out")
    pt.set_defaults(fn=_cmd_tables)

    pw = sub.add_parser("verify", help="verify barrier optimality (HJB)")
    pw.add_argument("config")
    pw.add_argument("--barrier", type=float, default=None,
                    help="check this barrier level instead of the located one")
    pw.add_argument("--dx", type=float, default=DEFAULT_DX)
    pw.add_argument("--xmax", type=float, default=None)
    pw.add_argument("--out", default="out")
    pw.set_defaults(fn=_cmd_verify)

    ps = sub.add_parser("simulate", help="Monte-Carlo estimate of the value")
    ps.add_argument("config")
    ps.add_argument("--x", type=float, required=True)
    ps.add_argument("--paths", type=int, required=True)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--horizon", type=float, required=True)
    level = ps.add_mutually_exclusive_group()
    level.add_argument("--barrier", type=float, default=None)
    level.add_argument("--barrier-file", default=None,
                       help="directory produced by 'barrier'; supplies the level "
                            "and an analytic comparison")
    ps.add_argument("--out", default="out")
    ps.set_defaults(fn=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (UsageError, ValueError) as exc:  # argument values the library rejects
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, ModelValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except DividendOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
