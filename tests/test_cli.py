import csv
import hashlib
import importlib.util
import io
import json
import math
import tracemalloc
import warnings

import pytest

from dividend_opt import (ModelParams, PenaltyModel, PremiumModel, cli, params_to_dict,
                          simulate)
from dividend_opt.cli import main
from dividend_opt.errors import DividendOptError
from dividend_opt.scale import _grid_arrays
from dividend_opt.tables import DEFAULT_DX, default_x_max, sweep_csv
from conftest import erlang2_claim, run_python

TABLE1_Q05 = {"premium": {"kind": "linear", "c": 1.0, "epsilon": 0.02},
              "claim": {"kind": "exponential", "mu": 0.3},
              "penalty": {"kind": "zero"}, "lambda": 0.1, "q": 0.05}

BAD_SPEED = {**TABLE1_Q05, "q": 0.01}  # eps > q: speed condition fails

# knots end at 100, which the claim-free flow from 0 reaches at t ~ 76, long
# before e^{-qt} has decayed; the premium is held at 1.5 beyond
SHORT_GRID = {**TABLE1_Q05,
              "premium": {"kind": "tabulated", "x": [0, 10, 100], "p": [1, 1.2, 1.5]}}


# G decays slowly: every solve needs more than the default domain [0, 50]
SLOW_DECAY = {"premium": {"kind": "constant", "c": 1.0},
              "claim": {"kind": "exponential", "mu": 1.0},
              "penalty": {"kind": "constant", "k": 1.0}, "lambda": 0.95, "q": 0.001}

# q = 0: the speed bound is NaN and the drift threshold infinite
Q_ZERO = {"premium": {"kind": "constant", "c": 1.0},
          "claim": {"kind": "exponential", "mu": 0.3},
          "penalty": {"kind": "zero"}, "lambda": 0.5, "q": 0.0}


def _strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity, as RFC 8259 does."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(TABLE1_Q05))
    return str(path)


@pytest.fixture
def bad_config_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_SPEED))
    return str(path)


class TestValidateCommand:
    def test_pass(self, config_path, capsys):
        assert main(["validate", config_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True

    def test_fail_exit_2(self, bad_config_path, capsys):
        assert main(["validate", bad_config_path]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert not doc["speed_pass"]

    def test_out_dir_holds_validation_and_manifest(self, bad_config_path, tmp_path,
                                                   capsys):
        out = tmp_path / "out"
        assert main(["validate", bad_config_path, "--out", str(out)]) == 2
        text = (out / "validation.json").read_text()
        assert capsys.readouterr().out == text
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "validate"
        assert manifest["outputs"] == [str(out / "validation.json")]
        assert len(manifest["config_digest"]) == 64

    def test_out_under_a_regular_file_exit_3(self, config_path, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["validate", config_path, "--out", str(blocker / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert blocker.read_text() == ""

    def test_bare_library_error_exit_3(self, config_path, monkeypatch, capsys):
        # the library raises only subclasses of DividendOptError today; a bare
        # one still ends in one line and exit 3, not a traceback
        def raise_bare(args):
            raise DividendOptError("no subclass fits")

        monkeypatch.setattr(cli, "_cmd_validate", raise_bare)
        assert main(["validate", config_path]) == 3
        assert capsys.readouterr().err == "error: no subclass fits\n"

    def test_non_finite_fields_are_null(self, tmp_path, capsys):
        path = tmp_path / "q0.json"
        path.write_text(json.dumps(Q_ZERO))
        out = tmp_path / "out"
        assert main(["validate", str(path), "--out", str(out)]) == 2
        text = (out / "validation.json").read_text()
        assert capsys.readouterr().out == text
        doc = _strict_json(text)
        assert doc["drift_x0"] is None and doc["speed_bound"] == [None, None]

    def test_tabulated_premium_held_beyond_its_knots(self, tmp_path, capsys):
        # barrier's default x_max, 166.7, also reaches past the last knot
        path = tmp_path / "short_grid.json"
        path.write_text(json.dumps(SHORT_GRID))
        assert main(["validate", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True and doc["speed_bound"] == [0.0, 1.5 / 0.05]
        out = tmp_path / "out"
        assert main(["barrier", str(path), "--dx", "0.01", "--out", str(out)]) == 0
        assert json.loads((out / "barrier.json").read_text())["a_star"] > 0


class TestBarrierCommand:
    def test_full_run(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["barrier", config_path, "--dx", "0.01", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "barrier.json").read_text())
        assert doc["a_star"] == pytest.approx(5.33, abs=0.1)
        assert abs(doc["smooth_pasting_residual"]) <= 1e-3
        assert (out / "h_profile.csv").exists()
        assert (out / "v_curve.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        outs = {p.split("/")[-1] for p in manifest["outputs"]}
        assert outs >= {"barrier.json", "h_profile.csv", "v_curve.csv"}
        assert len(manifest["config_digest"]) == 64

    @pytest.mark.parametrize("grid, domain", [
        ([], {"end": 38.86, "certified": True, "reason": "tests passed"}),
        (["--xmax", "60"], {"end": 60.0, "certified": False, "reason": "xmax"})])
    def test_domain_is_reported(self, grid, domain, config_path, tmp_path):
        # barrier.json and optimality.json say where the domain ends and why,
        # and every CSV ends there
        out = tmp_path / "out"
        assert main(["barrier", config_path, *grid, "--out", str(out)]) == 0
        assert main(["verify", config_path, *grid, "--out", str(out)]) == 0
        for name in ("barrier.json", "optimality.json"):
            doc = json.loads((out / name).read_text())
            assert doc["domain"] == {**domain, "end": pytest.approx(domain["end"])}
        for name in ("h_profile.csv", "v_curve.csv", "residual_profile.csv"):
            with open(out / name, encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
            assert len(rows) == round(domain["end"] / DEFAULT_DX) + 1
            assert float(rows[-1].split(",")[0]) == pytest.approx(domain["end"])

    def test_invalid_config_exit_2(self, bad_config_path, tmp_path, capsys):
        code = main(["barrier", bad_config_path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "speed" in capsys.readouterr().err

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["barrier", str(path)]) == 2

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(TABLE1_Q05).encode() + b"\xff")
        assert main(["barrier", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and err.count("\n") == 1
        assert str(path) in err
        assert not (tmp_path / "o").exists()

    def test_q06_column(self, tmp_path):
        path = tmp_path / "q06.json"
        path.write_text(json.dumps({**TABLE1_Q05, "q": 0.06}))
        out = tmp_path / "out"
        assert main(["barrier", str(path), "--dx", "0.01", "--out", str(out)]) == 0
        doc = json.loads((out / "barrier.json").read_text())
        assert doc["a_star"] == pytest.approx(3.18, abs=0.1)

    @pytest.mark.parametrize("command", ["validate", "barrier"])
    @pytest.mark.parametrize("change, field", [
        ({"premium": {"kind": "constant"}}, "'c'"),
        ({"premium": "x"}, "'premium'"),
        ({"premium": {"kind": "constant", "c": "abc"}}, "'c'"),
        ({"premium": {"kind": "constant", "c": float("nan")}}, "'c'"),
        ({"lambda": "abc"}, "'lambda'"),
        ({"premium": {"kind": "tabulated", "x": [0, 1], "p": [1, "abc"]}}, "'p'"),
        ({"claim": {"kind": "exponential", "mu": 1e-320}}, "claim mean"),
    ])
    def test_malformed_config_exit_2(self, command, change, field, tmp_path, capsys):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({**TABLE1_Q05, **change}))
        assert main([command, str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and field in err

    def test_scale_past_float_range_exit_3(self, tmp_path, capsys):
        path = tmp_path / "fast.json"
        path.write_text(json.dumps({**Q_ZERO, "claim": {"kind": "exponential", "mu": 1.0},
                                    "q": 5.0}))
        out = tmp_path / "o"
        assert main(["barrier", str(path), "--xmax", "200", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and err.count("\n") == 1
        assert "leaves float64 range" in err
        assert not out.exists()

    @pytest.mark.parametrize("claim", ["exponential", "erlang2"])
    def test_step_past_the_trapezoid_limit_exit_3(self, claim, tmp_path, capsys):
        # a model that `validate` passes, with premium 1e-4 on [0, 1]: at the
        # default dx the step dx (lam + q) / p is 7.5, past the trapezoid
        # limit 2, for every claim kind
        params = ModelParams(PremiumModel.tabulated([0.0, 1.0, 2.0, 50.0],
                                                    [1e-4, 1e-4, 1.0, 1.5]),
                             erlang2_claim(0.01), PenaltyModel.zero(), lam=0.1, q=0.05)
        doc = params_to_dict(params)
        if claim == "exponential":
            doc["claim"] = {"kind": "exponential", "mu": 0.3}
        path = tmp_path / "thin_premium.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        out = tmp_path / "o"
        assert main(["barrier", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and err.count("\n") == 1
        assert "trapezoid limit" in err and "decrease dx below" in err
        assert "degeneracy" not in err
        assert not out.exists()

    def test_missing_config_exit_3(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["barrier", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert str(path) in err

    def test_refinement_stability(self, config_path, tmp_path):
        outs = []
        for i, dx in enumerate(("0.01", "0.005")):
            out = tmp_path / f"o{i}"
            assert main(["barrier", config_path, "--dx", dx, "--out", str(out)]) == 0
            outs.append(json.loads((out / "barrier.json").read_text())["a_star"])
        assert abs(outs[0] - outs[1]) < 0.02


class TestVerifyCommand:
    def test_optimal_barrier_exit_0(self, config_path, tmp_path):
        out = tmp_path / "v"
        code = main(["verify", config_path, "--dx", "0.01", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "optimality.json").read_text())
        assert doc["necessary_sufficient_pass"] is True
        assert doc["thm_convex_concave_pass"] is True
        assert (out / "residual_profile.csv").exists()

    def test_misset_barrier_fails(self, config_path, tmp_path, capsys):
        out = tmp_path / "v"
        code = main(["verify", config_path, "--dx", "0.01", "--barrier", "1.0",
                     "--out", str(out)])
        assert code == 1
        doc = json.loads((out / "optimality.json").read_text())
        assert doc["necessary_sufficient_pass"] is False
        assert doc["max_residual_above"] > 0

    def test_given_barrier_grows_domain(self, tmp_path, capsys):
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(SLOW_DECAY))
        out = tmp_path / "v"
        assert main(["verify", str(path), "--barrier", "3.0", "--out", str(out)]) == 1
        doc = json.loads((out / "optimality.json").read_text())
        assert doc["barrier"] == 3.0 and doc["necessary_sufficient_pass"] is False
        assert doc["domain"]["reason"] == "cap" and doc["domain"]["end"] > 50.0
        with open(out / "residual_profile.csv", encoding="utf-8") as fh:
            last = fh.readlines()[-1]
        assert float(last.split(",")[0]) > 50.0
        assert "NOT optimal" in capsys.readouterr().out

    def test_rational_zero_penalty_passes_thm47(self, tmp_path):
        cfgp = tmp_path / "rat.json"
        cfgp.write_text(json.dumps({
            "premium": {"kind": "rational", "c": 1.0},
            "claim": {"kind": "exponential", "mu": 0.3},
            "penalty": {"kind": "zero"}, "lambda": 0.1, "q": 0.01}))
        out = tmp_path / "v"
        code = main(["verify", str(cfgp), "--dx", "0.01", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "optimality.json").read_text())
        assert doc["thm_decreasing_density_pass"] is True


def test_runtime_does_not_load_the_test_oracles():
    code = ("import sys\n"
            "import dividend_opt.cli\n"
            "import dividend_opt as do\n"
            "do.solve_scale(do.ModelParams(do.PremiumModel.linear(1.0, 0.02),\n"
            "                              do.ClaimModel.exponential(0.3),\n"
            "                              do.PenaltyModel.zero(), lam=0.1, q=0.05),\n"
            "               0.01, 60.0)\n"
            "print('dividend_opt._reference' in sys.modules)\n")
    assert run_python(code).split() == ["False"]


def test_no_command_loads_openssl(tmp_path):
    # hashlib's OpenSSL backend, _hashlib, adds about 3.5 MB to a process's
    # resident memory; the config digest uses the interpreter's own SHA-256
    config = tmp_path / "model.json"
    config.write_text(json.dumps(TABLE1_Q05))
    commands = [["validate", str(config)], ["tables", "--which", "1"],
                ["barrier", str(config)], ["verify", str(config)],
                ["simulate", str(config), "--x", "2.0", "--paths", "10",
                 "--horizon", "250", "--barrier-file", str(tmp_path / "barrier")]]
    code = "import sys\nfrom dividend_opt import cli\n" + "".join(
        f"assert cli.main({argv + ['--out', str(tmp_path / argv[0])]!r}) == 0\n"
        for argv in commands) + "print('_hashlib' in sys.modules)\n"
    assert run_python(code).split()[-1] == "False"


def test_config_digest_is_the_sha256_of_the_config_bytes(config_path, tmp_path):
    out = tmp_path / "v"
    assert main(["validate", config_path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    with open(config_path, "rb") as fh:
        assert manifest["config_digest"] == hashlib.sha256(fh.read()).hexdigest()


SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

# each branch of cli's SHA-256 import chain: the modules hidden from it, and
# the module its sha256 then comes from
SHA256_BRANCHES = {
    "_sha2": ((), "_sha2"),  # Python 3.12 and later
    "_sha256": (("_sha2",), "_sha256"),  # Python 3.10 and 3.11
    "hashlib": (("_sha2", "_sha256"), "_hashlib"),
}


@pytest.mark.parametrize("branch", sorted(SHA256_BRANCHES))
def test_every_sha256_branch_gives_the_sha256_digest(branch):
    hidden, source = SHA256_BRANCHES[branch]
    if importlib.util.find_spec(source) is None:
        pytest.skip(f"this Python has no {source} module")
    code = ("import sys\n"
            f"for name in {hidden!r}:\n"
            "    sys.modules[name] = None  # import name raises ImportError\n"
            "from dividend_opt import cli\n"
            "print(cli._sha256.__module__, cli._sha256(b'abc').hexdigest())\n")
    assert run_python(code).split() == [source, SHA256_ABC]


def test_verify_within_twenty_one_floats_per_node(tmp_path):
    # `verify` in process on perfbench's tabulated_cli model.  Its domain
    # ends at 66.555, but the march allocates its arrays for the 33 334
    # nodes of the cap, default_x_max, and their working set is the peak
    # (20.0 floats per cap node, 19.8 with --xmax at the cap).  Evaluating
    # omega again for the residual profile, or holding the residual's
    # temporaries over all nodes, went past the budget (23.6) on the cap
    params = ModelParams(PremiumModel.linear(1.0, 0.02), erlang2_claim(0.01),
                         PenaltyModel.linear(1.0, 0.5), lam=0.1, q=0.05)
    n = _grid_arrays(params, DEFAULT_DX, default_x_max(params))[0].size
    assert n == 33334
    config = tmp_path / "model.json"
    config.write_text(json.dumps(params_to_dict(params)))
    tracemalloc.start()
    try:
        assert main(["verify", str(config), "--out", str(tmp_path / "v")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 21 * 8 * n


# argument values that argparse accepts and the library rejects with ValueError
BAD_ARGUMENT_VALUES = {
    "simulate_negative_seed": ["simulate", "--x", "2.0", "--paths", "10",
                               "--horizon", "250", "--seed", "-1"],
    "simulate_negative_x": ["simulate", "--x", "-1", "--paths", "10",
                            "--horizon", "250"],
    "simulate_infinite_horizon": ["simulate", "--x", "2.0", "--paths", "10",
                                  "--horizon", "inf"],
    "verify_negative_barrier": ["verify", "--barrier", "-1"],
    "barrier_negative_dx": ["barrier", "--dx", "-1"],
    "barrier_nan_dx": ["barrier", "--dx", "nan"],
    # 2e14 nodes, 1.4 PiB: the allocation fails at once, allocating nothing
    "verify_unallocatable_grid": ["verify", "--xmax", "1e12"],
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENT_VALUES))
def test_bad_argument_value_is_usage_error(case, config_path, tmp_path, capsys):
    command, *flags = BAD_ARGUMENT_VALUES[case]
    code = main([command, config_path, *flags, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 64
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_grid_past_numpy_size_limit_is_usage_error(config_path, tmp_path, capsys):
    # about 1e302 nodes: numpy refuses the array size before allocating anything
    code = main(["barrier", config_path, "--dx", "1e-300", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 64
    assert "cannot be allocated; increase dx or decrease x_max" in err
    assert "Maximum allowed size" not in err


class TestSimulateCommand:
    def test_usage_error_paths(self, config_path, tmp_path):
        code = main(["simulate", config_path, "--x", "2.0", "--paths", "0",
                     "--horizon", "250", "--out", str(tmp_path / "s")])
        assert code == 64

    def test_missing_required_flag_is_usage_error(self, config_path):
        assert main(["simulate", config_path, "--paths", "10"]) == 64

    def test_byte_identical_rerun(self, config_path, tmp_path):
        args = ["simulate", config_path, "--x", "3.0", "--paths", "500",
                "--seed", "7", "--horizon", "250", "--barrier", "5.33"]
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "estimate.json").read_bytes() == (out2 / "estimate.json").read_bytes()

    def test_comparison_block_with_barrier_file(self, config_path, tmp_path):
        bout = tmp_path / "b"
        assert main(["barrier", config_path, "--dx", "0.01", "--out", str(bout)]) == 0
        sout = tmp_path / "s"
        code = main(["simulate", config_path, "--x", "3.0", "--paths", "4000",
                     "--seed", "21", "--horizon", "250",
                     "--barrier-file", str(bout), "--out", str(sout)])
        assert code == 0
        doc = json.loads((sout / "estimate.json").read_text())
        assert "comparison" in doc
        assert abs(doc["comparison"]["z_score"]) < 4.0

    @pytest.mark.parametrize("text", [b'{}', b'{"a_star": null}', b'{"a_star": "5"}',
                                      b'{"a_star": -1.0}', b'{"a_star": Infinity}',
                                      b'{"a_star": true}', b'[]', b'{"a_star": 5',
                                      b'{"a_star": 5.0\xff}'],
                             ids=["missing", "null", "string", "negative", "infinite",
                                  "bool", "not_an_object", "not_json", "not_utf8"])
    def test_bad_barrier_file_is_validation_error(self, text, config_path, tmp_path,
                                                  capsys):
        bdir = tmp_path / "b"
        bdir.mkdir()
        (bdir / "barrier.json").write_bytes(text)
        code = main(["simulate", config_path, "--x", "3.0", "--paths", "10",
                     "--horizon", "250", "--barrier-file", str(bdir),
                     "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error: ") and err.count("\n") == 1
        assert str(bdir / "barrier.json") in err
        assert not (tmp_path / "s").exists()

    def test_infinite_z_score_is_null(self, config_path, tmp_path):
        # one path has no standard error, so z = (mean - v) / 0 is infinite
        bdir = tmp_path / "b"
        bdir.mkdir()
        (bdir / "barrier.json").write_text('{"a_star": 5.0}')
        (bdir / "v_curve.csv").write_text("x,value,derivative\n0,1,1\n1,2,1\n")
        out = tmp_path / "s"
        assert main(["simulate", config_path, "--x", "3.0", "--paths", "1",
                     "--horizon", "250", "--barrier-file", str(bdir),
                     "--out", str(out)]) == 0
        doc = _strict_json((out / "estimate.json").read_text())
        assert doc["comparison"]["z_score"] is None
        assert math.isfinite(doc["comparison"]["analytic"])

    @pytest.mark.parametrize("text", ["", "x,value,derivative\n",
                                      "x,value,derivative\n0,1,1\n",
                                      "x,value,derivative\n0,abc,1\n1,2,1\n",
                                      "x,value,derivative\n0,1,1\n1,2,1\n3,3,1\n",
                                      "x,value,derivative\n0,nan,1\n1,2,1\n",
                                      "x,value,derivative\n-1.7e308,1,1\n1.7e308,2,1\n"],
                             ids=["empty", "header_only", "one_row", "not_a_number",
                                  "non_uniform", "nan", "infinite_step"])
    def test_bad_v_curve_is_validation_error(self, text, config_path, tmp_path, capsys):
        bdir = tmp_path / "b"
        bdir.mkdir()
        (bdir / "barrier.json").write_text('{"a_star": 5.0}')
        (bdir / "v_curve.csv").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error line is all that is printed
            code = main(["simulate", config_path, "--x", "3.0", "--paths", "10",
                         "--horizon", "250", "--barrier-file", str(bdir),
                         "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("validation error: ") and err.count("\n") == 1
        assert str(bdir / "v_curve.csv") in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("x, code", [("0.5", 2), ("-1.0", 64), ("nan", 64)])
    def test_v_curve_starting_above_x(self, x, code, config_path, tmp_path, capsys,
                                      monkeypatch):
        # a v_curve.csv whose x column is shifted by +1 cannot give v(0.5):
        # a validation error naming the file, before any path is simulated;
        # an invalid --x stays a usage error
        def refuse(*args, **kwargs):
            raise AssertionError("paths simulated")

        monkeypatch.setattr(cli, "simulate_value", refuse)
        bdir = tmp_path / "b"
        bdir.mkdir()
        (bdir / "barrier.json").write_text('{"a_star": 5.0}')
        (bdir / "v_curve.csv").write_text("x,value,derivative\n1,1,1\n2,2,1\n3,3,1\n")
        out = tmp_path / "s"
        assert main(["simulate", config_path, "--x", x, "--paths", "10",
                     "--horizon", "250", "--barrier-file", str(bdir),
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        if code == 2:
            assert err.startswith("validation error: ")
            assert str(bdir / "v_curve.csv") in err and "starts at x=1" in err
        else:
            assert err.startswith("usage error: ") and "initial capital" in err
        assert not out.exists()

    def test_barrier_and_barrier_file_exclusive(self, config_path, tmp_path, capsys):
        # argparse rejects the pair before the directory is read
        code = main(["simulate", config_path, "--x", "3.0", "--paths", "10",
                     "--horizon", "250", "--barrier", "3.0",
                     "--barrier-file", str(tmp_path / "b"), "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert code == 64
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "--barrier" in err
        assert not (tmp_path / "s").exists()

    def test_non_finite_path_value_exits_3(self, config_path, tmp_path, monkeypatch,
                                           capsys):
        # a NaN path value (planted in path 3) is a numerical error, not a
        # mean to write to estimate.json
        lockstep = simulate._lockstep

        def planted(*args):
            values, ruined = lockstep(*args)
            values[3] = math.nan
            return values, ruined

        monkeypatch.setattr(simulate, "_lockstep", planted)
        out = tmp_path / "s"
        code = main(["simulate", config_path, "--x", "3.0", "--paths", "20",
                     "--horizon", "250", "--barrier", "5.0", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "numerical error: path 3 has the value nan, not a finite number\n"
        assert not (out / "estimate.json").exists()

    def test_gerber_mode_without_barrier(self, tmp_path):
        cfgp = tmp_path / "pen.json"
        cfgp.write_text(json.dumps({**TABLE1_Q05,
                                    "penalty": {"kind": "constant", "k": 1.0}}))
        out = tmp_path / "s"
        code = main(["simulate", str(cfgp), "--x", "2.0", "--paths", "2000",
                     "--seed", "3", "--horizon", "250", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "estimate.json").read_text())
        assert doc["mean"] < 0


class TestTablesCommand:
    def test_single_sweep(self, tmp_path, capsys):
        out = tmp_path / "t"
        code = main(["tables", "--which", "1", "--dx", "0.02", "--out", str(out)])
        assert code == 0
        lines = (out / "table1.csv").read_text().splitlines()
        assert lines[0] == "param,a_star,a_star_ref,abs_diff,note"
        assert len(lines) == 6
        rows = [line.split(",") for line in lines[1:]]
        diffs = [float(r[3]) for r in rows]
        assert max(diffs) < 0.1

    def test_note_with_commas_and_quotes_stays_one_field(self, tmp_path):
        note = 'W\' <= 0 at x=21: dx=3 exceeds the cap, and mu·dx = 0.9; "decrease dx"'
        rows = [(0.05, 18.5, 17.73, 0.77, ""), (0.2, math.nan, 19.16, math.nan, note)]
        text = sweep_csv(rows)
        assert list(csv.reader(io.StringIO(text))) == [
            ["param", "a_star", "a_star_ref", "abs_diff", "note"],
            ["0.050000000000000003", "18.5", "17.73", "0.77000000000000002", ""],
            ["0.20000000000000001", "nan", "19.16", "nan", note]]
        # a row without a comma is written as before, unquoted
        assert text.splitlines()[1] == "0.050000000000000003,18.5,17.73,0.77000000000000002,"
        # the coarse sweep 6 notes name dx, the step cap and mu·dx, with commas
        out = tmp_path / "t"
        with pytest.warns(UserWarning):
            assert main(["tables", "--which", "6", "--dx", "3", "--out", str(out)]) == 0
        with open(out / "table6.csv", newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        assert [len(r) for r in table] == [5] * 6
        assert any("," in r[4] for r in table[1:])

    def test_unknown_table_is_usage_error(self, tmp_path):
        assert main(["tables", "--which", "9", "--out", str(tmp_path)]) == 64
