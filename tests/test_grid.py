import math
import os
import re
import stat

import numpy as np
import pytest

from dividend_opt import GridFunction, h_eval, value_function
from dividend_opt.grid import _CSV_CHUNK, atomic_write


def test_linear_interpolation():
    g = GridFunction(0.0, 0.5, [0.0, 1.0, 4.0])
    assert g(0.25) == pytest.approx(0.5)
    assert g(0.75) == pytest.approx(2.5)
    assert g(1.0) == pytest.approx(4.0)


# on (-50, 0.1, 1001) rounding puts some points' computed cells one below
# and some one above the cell np.interp finds
@pytest.mark.parametrize("x0,dx,n", [(0.0, 0.005, 5001), (-3.7, 0.3, 2),
                                     (0.5, 1.0 / 3.0, 101), (0.0, 0.005, 33334),
                                     (-50.0, 0.1, 1001)])
def test_scalar_interpolation_equals_full_grid_interp(x0, dx, n):
    g = GridFunction(x0, dx, np.random.default_rng(7).standard_normal(n))
    x = g.x
    ys = np.concatenate((x, x[:-1] + 0.5 * dx, np.nextafter(x[1:], -np.inf),
                         np.nextafter(x[:-1], np.inf),
                         [x0, g.x_end, g.x_end - 1e-12 * dx, x0 + 1e-12 * dx,
                          x0 - 1e-10 * dx, g.x_end + 1e-10 * dx]))  # the slack
    full = np.interp(ys, x.copy(), g.values.copy())
    assert [g(float(y)) for y in ys] == full.tolist()
    assert g(ys).tobytes() == full.tobytes()
    few = np.r_[0:ys.size:11, -6:0]  # every 11th point, and the last six
    assert [g(ys[[i]]).item() for i in few] == full[few].tolist()
    assert g.x is x and not x.flags.writeable and type(g(x0)) is float


def test_empty_array_gives_empty_array():
    g = GridFunction(0.0, 0.5, np.arange(7.0), np.arange(7.0))
    for out in (g(np.array([])), g.derivative(np.array([]))):
        assert out.shape == (0,) and out.dtype == float


def test_out_of_range_is_error():
    g = GridFunction(0.0, 0.5, [0.0, 1.0, 4.0])
    with pytest.raises(ValueError):
        g(-0.1)
    with pytest.raises(ValueError):
        g(1.2)


@pytest.mark.parametrize("evaluate", [
    lambda scale, a: scale.W(np.array([np.nan])),
    lambda scale, a: scale.W.derivative(np.nan),
    lambda scale, a: h_eval(scale, np.nan),
    lambda scale, a: value_function(scale, a, [1.0, np.nan]),
], ids=["W_array", "W_derivative", "h_eval", "value_function"])
def test_nan_is_error(evaluate, scale_q05, barrier_q05):
    with pytest.raises(ValueError, match="NaN"):
        evaluate(scale_q05, barrier_q05.a_star)


def test_needs_two_points():
    with pytest.raises(ValueError):
        GridFunction(0.0, 0.5, [1.0])
    with pytest.raises(ValueError):
        GridFunction(0.0, -0.5, [1.0, 2.0])


@pytest.mark.parametrize("x0, dx, field", [
    (0.0, math.inf, "dx"), (0.0, math.nan, "dx"), (0.0, 0.0, "dx"), (0.0, -0.5, "dx"),
    (math.inf, 1.0, "x0"), (-math.inf, 1.0, "x0"), (math.nan, 1.0, "x0"),
    (1e308, 1e308, "x0 + dx (n - 1)")],
    ids=["dx_inf", "dx_nan", "dx_zero", "dx_negative", "x0_inf", "x0_minus_inf", "x0_nan",
         "end_overflows"])
def test_grid_origin_step_and_end_checked(x0, dx, field):
    with pytest.raises(ValueError, match=f"grid \\w+ {re.escape(field)} must be finite"):
        GridFunction(x0, dx, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("shape", [(2,), (4,), (1, 3)])
def test_derivative_array_of_another_shape_is_error(shape):
    with pytest.raises(ValueError, match="derivative sample array must match"):
        GridFunction(0.0, 1.0, [1.0, 2.0, 3.0], np.ones(shape))


def test_values_are_immutable():
    g = GridFunction(0.0, 1.0, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        g.values[0] = 9.0


def test_derivative_interpolation_smooth():
    # cubic interpolation of derivative samples reproduces smooth data to O(dx^3+)
    dx = 0.05
    x = dx * np.arange(101)
    g = GridFunction(0.0, dx, np.sin(x), np.cos(x))
    ys = np.linspace(0.2, 4.8, 57)
    assert np.max(np.abs(g.derivative(ys) - np.cos(ys))) < 5e-6


@pytest.mark.parametrize("x0,dx,n", [(0.0, 0.005, 5001), (-3.7, 0.3, 2),
                                     (0.5, 1.0 / 3.0, 101), (0.0, 1.0, 3)])
def test_scalar_derivative_equals_array_path(x0, dx, n):
    rng = np.random.default_rng(11)
    g = GridFunction(x0, dx, rng.standard_normal(n), rng.standard_normal(n))
    x = g.x
    ys = np.concatenate((x, x[:-1] + 0.5 * dx,  # nodes and mid-cells
                         x0 + dx * np.array([0.3, n - 1.7]),  # both end cells
                         np.nextafter(x[1:], -np.inf), np.nextafter(x[:-1], np.inf),
                         [g.x_end, g.x_end + 1e-10 * dx, x0 - 1e-10 * dx]))
    scalar = [g.derivative(float(y)) for y in ys]
    assert all(type(v) is float for v in scalar)
    assert scalar == g.derivative(ys).tolist()


@pytest.mark.parametrize("y", [np.nan, -0.6, 1.3])
def test_scalar_derivative_off_grid_raises(y):
    g = GridFunction(0.0, 0.5, [0.0, 1.0, 4.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="outside grid"):
        g.derivative(y)


def test_derivative_missing():
    g = GridFunction(0.0, 1.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        g.derivative(0.5)


def test_atomic_write_replaces_existing_file_whole(tmp_path):
    path = tmp_path / "estimate.json"
    path.write_text("x" * 10000)
    atomic_write(path, '{"mean": 1.5}\n')
    assert path.read_text() == '{"mean": 1.5}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["estimate.json"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_mode_follows_umask(umask, mode, tmp_path):
    path = tmp_path / "estimate.json"
    old = os.umask(umask)
    try:
        atomic_write(path, "{}\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode


def test_atomic_write_failed_rename_keeps_target(tmp_path, monkeypatch):
    path = tmp_path / "estimate.json"
    path.write_text("old\n")

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        atomic_write(path, "new\n")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["estimate.json"]


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_atomic_write_failing_stream_keeps_target(tmp_path, error):
    path = tmp_path / "v_curve.csv"
    path.write_bytes(b"x,value,derivative\n0,1,2\n")

    def chunks():
        yield "x,value,derivative\n"
        raise error("stream failed")

    with pytest.raises(error, match="stream failed"):
        atomic_write(path, chunks())
    assert path.read_bytes() == b"x,value,derivative\n0,1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["v_curve.csv"]


def test_csv_round_trip(tmp_path):
    dx = 0.1
    x = dx * np.arange(20)
    g = GridFunction(0.0, dx, np.exp(x) / 3.0, np.exp(x) / 3.0)
    path = tmp_path / "g.csv"
    atomic_write(path, g.to_csv_string())
    text = path.read_text()
    assert text.splitlines()[0] == "x,value,derivative"
    back = GridFunction.from_csv(path)
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(back.values, g.values)
    assert np.array_equal(back.derivative_values, g.derivative_values)
    assert back.dx == pytest.approx(dx)


def test_csv_without_derivative(tmp_path):
    g = GridFunction(0.0, 0.5, [1.0, 2.0, 3.0])
    path = tmp_path / "g.csv"
    atomic_write(path, g.to_csv_string())
    back = GridFunction.from_csv(path)
    assert back.derivative_values is None
    assert np.array_equal(back.values, g.values)


def _csv_string_by_row_loop(g):
    """The writer as a per-row f-string loop, kept as the format oracle."""
    lines = ["x,value,derivative\n"]
    xs = g.x
    dv = g.derivative_values
    for i in range(g.n):
        dtxt = f"{dv[i]:.17g}" if dv is not None else ""
        lines.append(f"{xs[i]:.17g},{g.values[i]:.17g},{dtxt}\n")
    return "".join(lines)


@pytest.mark.parametrize("with_derivative", [True, False])
@pytest.mark.parametrize("x0,n", [(0.0, 3001), (-2.75, 3001), (0.3, 2),
                                  (0.0, _CSV_CHUNK - 1), (0.0, _CSV_CHUNK),
                                  (-2.75, _CSV_CHUNK + 1), (0.3, 3 * _CSV_CHUNK + 1)])
def test_csv_string_byte_identical_to_row_loop(with_derivative, x0, n, tmp_path):
    dx = 0.005
    x = x0 + dx * np.arange(n)
    vals = 3.3 * np.exp(-x / 7.0)
    deriv = np.cos(x)
    if n > 12:  # zero, subnormal, negative, integral, infinite and nan
        vals[5:12] = 0.0, 5e-324, -1e20, 1.0, np.inf, -np.inf, np.nan
        deriv[2:5] = np.nan, -np.inf, np.inf
    else:
        vals[:], deriv[:] = (np.inf, np.nan), (-np.inf, -0.0)
    g = GridFunction(x0, dx, vals, deriv if with_derivative else None)
    text = _csv_string_by_row_loop(g)
    assert g.to_csv_string() == text
    path = tmp_path / "g.csv"
    atomic_write(path, g.csv_chunks())  # the stream the CLI writes
    assert path.read_bytes() == text.encode("utf-8")
