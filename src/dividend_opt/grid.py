"""Uniform-grid sampled functions with interpolation and derivative access,
and the atomic text-file write that every output file goes through."""

from __future__ import annotations

import functools
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

_TOO_FEW_ROWS = "a grid-function CSV needs at least 2 data rows"


def atomic_write(path, text: str):
    """Write `text` to a temporary file next to `path`, then rename it over
    `path`: readers see the old file or the new one, never a partial write."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class GridFunction:
    """A function sampled on a uniform grid.

    Value evaluation between nodes is linear interpolation; evaluation
    outside [x0, x_end] or at NaN raises.  Derivative samples, when
    present, are interpolated with a C1 cubic (Catmull-Rom) so that
    optimizers running on derived quantities see a smooth surrogate.
    """

    x0: float
    dx: float
    values: np.ndarray
    derivative_values: Optional[np.ndarray] = None

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if self.dx <= 0:
            raise ValueError(f"grid step must be positive, got {self.dx}")
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("grid needs at least 2 sample points")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if self.derivative_values is not None:
            dv = np.ascontiguousarray(np.asarray(self.derivative_values, dtype=float))
            if dv.shape != vals.shape:
                raise ValueError("derivative sample array must match the value array")
            dv.flags.writeable = False
            object.__setattr__(self, "derivative_values", dv)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x_end(self) -> float:
        return self.x0 + self.dx * (self.n - 1)

    @functools.cached_property
    def x(self) -> np.ndarray:
        x = self.x0 + self.dx * np.arange(self.n)
        x.flags.writeable = False  # built on first read, then shared by every reader
        return x

    def _bounds_error(self) -> ValueError:
        return ValueError(f"evaluation outside grid [{self.x0}, {self.x_end}] or at NaN")

    def _locate(self, y):
        y = np.asarray(y, dtype=float)
        lo, hi = self.x0 - 1e-9 * self.dx, self.x_end + 1e-9 * self.dx
        if not np.all((y >= lo) & (y <= hi)):  # NaN fails both comparisons
            raise self._bounds_error()
        return y

    def __call__(self, y):
        """Linear interpolation of the sampled values.

        A scalar y is interpolated on the up to four nodes around it, whose
        abscissae are computed exactly as `x` computes them, so the result
        equals np.interp over the whole grid bit for bit, in O(1) time.
        """
        y = self._locate(y)
        if y.ndim:
            return np.interp(y, self.x, self.values)
        j = int((y - self.x0) / self.dx)  # y's cell, or a neighbour after rounding
        lo, hi = min(max(j - 1, 0), self.n - 2), min(j + 3, self.n)
        nodes = self.x0 + self.dx * np.arange(lo, hi)
        return float(np.interp(y, nodes, self.values[lo:hi]))

    def derivative(self, y):
        """C1 cubic interpolation of the derivative samples.

        A scalar y is evaluated in Python floats on the up to four nodes
        around it, with the same operations as the array path, so the two
        agree bit for bit.
        """
        if self.derivative_values is None:
            raise ValueError("no derivative samples on this grid function")
        if np.ndim(y) == 0:
            return self._derivative_scalar(float(y))
        y = self._locate(y)
        d = self.derivative_values
        n = self.n
        pos = np.clip((y - self.x0) / self.dx, 0.0, n - 1.0)
        j = np.minimum(pos.astype(int), n - 2)
        s = pos - j
        # Catmull-Rom node slopes (one-sided at the ends), in units of dx
        jm = np.maximum(j - 1, 0)
        jp = np.minimum(j + 2, n - 1)
        m0 = (d[j + 1] - d[jm]) / (j + 1 - jm)
        m1 = (d[jp] - d[j]) / (jp - j)
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * d[j] + h10 * m0 + h01 * d[j + 1] + h11 * m1

    def _derivative_scalar(self, y: float) -> float:
        if not self.x0 - 1e-9 * self.dx <= y <= self.x_end + 1e-9 * self.dx:
            raise self._bounds_error()
        n = self.n
        pos = min(max((y - self.x0) / self.dx, 0.0), n - 1.0)
        j = min(int(pos), n - 2)
        s = pos - j
        jm, jp = max(j - 1, 0), min(j + 2, n - 1)
        d = self.derivative_values[jm:jp + 1].tolist()  # d[i] is node jm + i
        dj, dj1 = d[j - jm], d[j + 1 - jm]
        m0 = (dj1 - d[0]) / (j + 1 - jm)
        m1 = (d[-1] - dj) / (jp - j)
        h00 = (1 + 2 * s) * ((1 - s) * (1 - s))
        h10 = s * ((1 - s) * (1 - s))
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * dj + h10 * m0 + h01 * dj1 + h11 * m1

    def to_csv_string(self) -> str:
        """The CSV text: a header, then one "x,value,derivative" row per node
        (the derivative field empty when there are no derivative samples)."""
        cols = [self.x, self.values]
        if self.derivative_values is None:
            row = "%.17g,%.17g,\n"
        else:
            row = "%.17g,%.17g,%.17g\n"
            cols.append(self.derivative_values)
        return "x,value,derivative\n" + (row * self.n) % tuple(
            np.column_stack(cols).ravel().tolist())

    @staticmethod
    def from_csv(path) -> "GridFunction":
        """Read a CSV written from `to_csv_string`; an empty derivative field on the
        first row means the grid has no derivative samples."""
        with open(path, encoding="utf-8") as fh:
            fh.readline()  # header
            start = fh.tell()
            first = fh.readline().rstrip("\r\n").split(",")
            if first == [""]:  # no data row: loadtxt would only warn
                raise ValueError(_TOO_FEW_ROWS)
            fh.seek(start)
            usecols = (0, 1, 2) if len(first) >= 3 and first[2] else (0, 1)
            data = np.loadtxt(fh, delimiter=",", usecols=usecols, ndmin=2)
        if data.shape[0] < 2:
            raise ValueError(_TOO_FEW_ROWS)
        if not np.all(np.isfinite(data)):
            raise ValueError("a grid-function CSV holds a non-finite value")
        xs = data[:, 0]
        dx = xs[1] - xs[0]
        if not np.allclose(np.diff(xs), dx, rtol=1e-9, atol=1e-12 * max(1.0, abs(dx))):
            raise ValueError("grid-function CSV must have uniform spacing")
        deriv = data[:, 2] if data.shape[1] == 3 else None
        return GridFunction(float(xs[0]), float(dx), data[:, 1], deriv)
