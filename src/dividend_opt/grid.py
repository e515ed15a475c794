"""Uniform-grid sampled functions with interpolation and derivative access,
and the atomic text-file write that every output file goes through.

A grid function's CSV text is produced in chunks of `_CSV_CHUNK` rows
(`GridFunction.csv_chunks`), and `atomic_write` writes such a stream as
it comes, so a CLI run no longer holds a file's whole text in memory.
The chunks split the rows, not a row's format, so the file is byte for
byte the text of one format over all rows, which `to_csv_string` returns
as the join of the same chunks."""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

_TOO_FEW_ROWS = "a grid-function CSV needs at least 2 data rows"
_NON_FINITE = "a grid-function CSV holds a non-finite value"
_NOT_UNIFORM = "grid-function CSV must have uniform spacing"
# each step of a grid-function CSV within _STEP_ATOL max(1, dx) + _STEP_RTOL dx of dx
_STEP_ATOL, _STEP_RTOL = 1e-12, 1e-9
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


def _cell(x0: float, dx: float, n: int, y):
    """(y, pos, j) on the grid x0 + dx j of n nodes: y checked against the
    grid, its position (y - x0) / dx clipped to [0, n - 1], and its cell
    j = int(pos) capped at n - 2, so that y lies between nodes j and j + 1.
    A float stays in Python floats and ints, an array goes through numpy,
    with the same operations."""
    x_end = x0 + dx * (n - 1)
    lo, hi = x0 - 1e-9 * dx, x_end + 1e-9 * dx
    if isinstance(y, float) or np.ndim(y) == 0:  # np.ndim is slow on a float
        y = float(y)
        if not lo <= y <= hi:  # NaN fails both comparisons
            raise _bounds_error(x0, x_end)
        pos = min(max((y - x0) / dx, 0.0), n - 1.0)
        return y, pos, min(int(pos), n - 2)
    y = np.asarray(y, dtype=float)
    if y.size and not (y.min() >= lo and y.max() <= hi):  # NaN if y holds one
        raise _bounds_error(x0, x_end)
    pos = np.minimum(np.maximum((y - x0) / dx, 0.0), n - 1.0)
    return y, pos, np.minimum(pos.astype(int), n - 2)


def _bounds_error(x0: float, x_end: float) -> ValueError:
    return ValueError(f"evaluation outside grid [{x0}, {x_end}] or at NaN")


def _window(first: int, last: int, n: int):
    """The nodes [lo, hi) from one before cell `first` to two past cell
    `last`: rounding in a cell index moves a point by at most one cell, so
    np.interp on them finds the cell it finds on the whole grid."""
    return max(first - 1, 0), min(last + 3, n)


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

    def __call__(self, y):
        """Linear interpolation of the sampled values.

        np.interp runs on the nodes `_window` gives, with abscissae computed
        exactly as `x` computes them, so the result equals np.interp over
        the whole grid bit for bit, while a float or a short array costs
        O(1) in n.
        """
        y, _, j = _cell(self.x0, self.dx, self.n, y)
        if isinstance(y, float):
            first = last = j
        else:  # an empty array has no cells; any window gives no values
            first, last = (j.min(), j.max()) if j.size else (0, 0)
        lo, hi = _window(first, last, self.n)
        out = np.interp(y, self.x0 + self.dx * np.arange(lo, hi), self.values[lo:hi])
        return float(out) if isinstance(y, float) else out

    def derivative(self, y):
        """C1 cubic (Catmull-Rom) interpolation of the derivative samples: one
        expression for a float and an array, so the two agree bit for bit."""
        if self.derivative_values is None:
            raise ValueError("no derivative samples on this grid function")
        y, pos, j = _cell(self.x0, self.dx, self.n, y)
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
            raise ValueError(_NON_FINITE)
        xs = data[:, 0]
        deriv = data[:, 2] if data.shape[1] == 3 else None
        # Python floats: a first step past float max is inf, rejected here
        grid = GridFunction(float(xs[0]), float(xs[1]) - float(xs[0]), data[:, 1], deriv)
        with np.errstate(over="ignore"):  # a later step past float max is not uniform
            steps = np.diff(xs)
        if not np.allclose(steps, grid.dx, rtol=_STEP_RTOL, atol=_STEP_ATOL * max(1.0, grid.dx)):
            raise ValueError(_NOT_UNIFORM)
        return grid


def csv_value(path, y: float):
    """(v, x0, x_end) of the grid-function CSV at `path`, for a finite y:
    v is the linear interpolation at min(y, x_end), bit for bit
    `GridFunction.from_csv(path)(min(y, x_end))`, or None when y lies below
    the grid.

    It streams the lines, skipping blank ones as `from_csv` does, and
    parses only the first two rows (x0 and dx, taken as `from_csv` takes
    them), the rows of `_window` around y and the last row; the header and
    the rows between are counted, not parsed, and at most a few lines are
    held at a time.  Each row it parses needs finite x and value fields,
    and at row j an x within j times `from_csv`'s step tolerance of
    x0 + j dx, which at the last row checks the row count against the first
    step.  A file that fails raises ValueError, as `from_csv` would.
    """
    with open(path, "rb") as fh:
        fh.readline()  # the header
        lines = filter(bytes.strip, fh)
        rows = dict(enumerate(itertools.islice(lines, 2)))
        if len(rows) < 2:
            raise ValueError(_TOO_FEW_ROWS)
        x0, x1 = _csv_row(rows[0])[0], _csv_row(rows[1])[0]
        dx = x1 - x0
        if not (math.isfinite(dx) and dx > 0):
            raise ValueError(f"grid step dx must be finite and positive, got {dx}")
        # from row 2: the last four rows before y's window, the window on a
        # grid that reaches y, and the last four rows, which hold the window
        # when the grid ends before y's cell (1e18 cells lie past any file)
        lo = max(int(min(max((y - x0) / dx, 0.0), 1e18)) - 1, 2)
        rows.update(collections.deque(enumerate(itertools.islice(lines, lo - 2), 2), maxlen=4))
        rows.update(enumerate(itertools.islice(lines, 4), lo))
        rows.update(collections.deque(enumerate(lines, lo + 4), maxlen=4))
    n = max(rows) + 1
    x_end = x0 + dx * (n - 1)
    if not math.isfinite(x_end):
        raise ValueError(f"grid end x0 + dx (n - 1) must be finite, got {x_end}")
    step_tol = _STEP_ATOL * max(1.0, dx) + _STEP_RTOL * dx

    def value(j):  # row j's value, its x checked
        x, v = _csv_row(rows[j])
        if not abs(x - (x0 + dx * j)) <= j * step_tol:
            raise ValueError(_NOT_UNIFORM)
        return v

    value(n - 1)
    try:
        y, _, j = _cell(x0, dx, n, min(y, x_end))
    except ValueError:  # y below the grid
        return None, x0, x_end
    lo, hi = _window(j, j, n)
    values = [value(i) for i in range(lo, hi)]
    return float(np.interp(y, x0 + dx * np.arange(lo, hi), values)), x0, x_end


def _csv_row(line: bytes):
    """(x, value): the first two fields of a grid-function CSV row, finite."""
    fields = line.split(b",")
    if len(fields) < 2:
        raise ValueError(f"a grid-function CSV row needs x and value fields, got {line!r}")
    x, v = float(fields[0]), float(fields[1])
    if not (math.isfinite(x) and math.isfinite(v)):
        raise ValueError(_NON_FINITE)
    return x, v
