"""Uniform-grid sampled functions with interpolation and derivative access,
and the atomic text-file write that every output file goes through.

A grid function's CSV text is produced in chunks of `_CSV_CHUNK` rows
(`GridFunction.csv_chunks`), and `atomic_write` writes such a stream as
it comes, so a CLI run no longer holds a file's whole text in memory.
The chunks split the rows, not a row's format, so the file is byte for
byte the text of one format over all rows, which `to_csv_string` returns
as the join of the same chunks."""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

_TOO_FEW_ROWS = "a grid-function CSV needs at least 2 data rows"
# rows per chunk of the CSV text, about 70 KB of it: measured on the CLI's
# 33 334-node runs, 16 384-row chunks made more minor page faults and
# 256-row chunks no fewer; each chunk is still one % operation
_CSV_CHUNK = 1024


def atomic_write(path, text):
    """Write `text`, a str or an iterable of str chunks, to a temporary file
    next to `path`, then rename it over `path`: readers see the old file or
    the new one, never a partial write.  Chunks are written as they come,
    so a streamed file's text is never held whole, and the file is their
    concatenation byte for byte; a stream that raises leaves the old file
    and no temporary one.  The temporary file is created, under a unique
    name, with mode 0o666 less the process umask, the mode `open` gives a
    new file; the rename keeps it."""
    path = os.fspath(path)
    d, base = os.path.split(os.path.abspath(path))
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}-{base}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class GridFunction:
    """A function sampled on a uniform grid.

    Values between nodes are linear interpolation, equal bit for bit to
    np.interp over the whole grid.  Derivative samples, when present, are
    interpolated with a C1 cubic (Catmull-Rom) so that optimizers running
    on derived quantities see a smooth surrogate.  Both lookups take a
    float or an array and run the same operations on either: one cell
    routine, then one formula.  A point outside [x0, x_end] (beyond a
    1e-9 dx slack) or at NaN raises.
    """

    x0: float
    dx: float
    values: np.ndarray
    derivative_values: Optional[np.ndarray] = None

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if not math.isfinite(self.x0):
            raise ValueError(f"grid origin x0 must be finite, got {self.x0}")
        if not (math.isfinite(self.dx) and self.dx > 0):
            raise ValueError(f"grid step dx must be finite and positive, got {self.dx}")
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("grid needs at least 2 sample points")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if not math.isfinite(self.x_end):
            raise ValueError(f"grid end x0 + dx (n - 1) must be finite, got {self.x_end}")
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

    def _cell(self, y):
        """(y, pos, j): y checked against the grid, its position (y - x0) / dx
        clipped to [0, n - 1], and its cell j = int(pos) capped at n - 2, so
        that y lies between nodes j and j + 1.  A float stays in Python floats
        and ints, an array goes through numpy, with the same operations."""
        lo, hi = self.x0 - 1e-9 * self.dx, self.x_end + 1e-9 * self.dx
        if isinstance(y, float) or np.ndim(y) == 0:  # np.ndim is slow on a float
            y = float(y)
            if not lo <= y <= hi:  # NaN fails both comparisons
                raise self._bounds_error()
            pos = min(max((y - self.x0) / self.dx, 0.0), self.n - 1.0)
            return y, pos, min(int(pos), self.n - 2)
        y = np.asarray(y, dtype=float)
        if y.size and not (y.min() >= lo and y.max() <= hi):  # NaN if y holds one
            raise self._bounds_error()
        pos = np.minimum(np.maximum((y - self.x0) / self.dx, 0.0), self.n - 1.0)
        return y, pos, np.minimum(pos.astype(int), self.n - 2)

    def __call__(self, y):
        """Linear interpolation of the sampled values.

        np.interp runs on the nodes from one before the first point's cell
        to two past the last point's cell, with abscissae computed exactly
        as `x` computes them.  Rounding in j moves a point by at most one
        cell, so np.interp finds the cell it finds on the whole grid, and
        the result equals np.interp over the whole grid bit for bit, while
        a float or a short array costs O(1) in n.
        """
        y, _, j = self._cell(y)
        if isinstance(y, float):
            first = last = j
        else:  # an empty array has no cells; any window gives no values
            first, last = (j.min(), j.max()) if j.size else (0, 0)
        lo, hi = max(first - 1, 0), min(last + 3, self.n)
        out = np.interp(y, self.x0 + self.dx * np.arange(lo, hi), self.values[lo:hi])
        return float(out) if isinstance(y, float) else out

    def derivative(self, y):
        """C1 cubic (Catmull-Rom) interpolation of the derivative samples: one
        expression for a float and an array, so the two agree bit for bit."""
        if self.derivative_values is None:
            raise ValueError("no derivative samples on this grid function")
        y, pos, j = self._cell(y)
        d = self.derivative_values
        s = pos - j
        # Catmull-Rom node slopes (one-sided at the ends), in units of dx
        j1 = j + 1
        jm, jp = j - (j > 0), j1 + (j1 < self.n - 1)
        dj, dj1 = d[j], d[j1]
        m0 = (dj1 - d[jm]) / (j1 - jm)
        m1 = (d[jp] - dj) / (jp - j)
        t2, s2 = (1 - s) * (1 - s), s * s
        out = ((1 + 2 * s) * t2 * dj + s * t2 * m0
               + s2 * (3 - 2 * s) * dj1 + s2 * (s - 1) * m1)
        return float(out) if isinstance(y, float) else out

    def csv_chunks(self):
        """The CSV text as a stream of str chunks: the header, then one
        "x,value,derivative" row per node (the derivative field empty when
        there are no derivative samples), `_CSV_CHUNK` rows per chunk.  The
        abscissae are computed as `x` computes them, chunk by chunk."""
        yield "x,value,derivative\n"
        if self.derivative_values is None:
            row, extra = "%.17g,%.17g,\n", ()
        else:
            row, extra = "%.17g,%.17g,%.17g\n", (self.derivative_values,)
        for lo in range(0, self.n, _CSV_CHUNK):
            hi = min(lo + _CSV_CHUNK, self.n)
            cols = [self.x0 + self.dx * np.arange(lo, hi), self.values[lo:hi],
                    *(col[lo:hi] for col in extra)]
            yield (row * (hi - lo)) % tuple(np.column_stack(cols).ravel().tolist())

    def to_csv_string(self) -> str:
        """The CSV text of `csv_chunks`, joined."""
        return "".join(self.csv_chunks())

    @staticmethod
    def from_csv(path) -> "GridFunction":
        """Read a CSV written from `csv_chunks`; an empty derivative field on the
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
        deriv = data[:, 2] if data.shape[1] == 3 else None
        # Python floats: a first step past float max is inf, rejected here
        grid = GridFunction(float(xs[0]), float(xs[1]) - float(xs[0]), data[:, 1], deriv)
        with np.errstate(over="ignore"):  # a later step past float max is not uniform
            steps = np.diff(xs)
        if not np.allclose(steps, grid.dx, rtol=1e-9, atol=1e-12 * max(1.0, grid.dx)):
            raise ValueError("grid-function CSV must have uniform spacing")
        return grid
