"""Scale-type function W_q and Gerber-Shiu function G_{q,w}.

Both solve the same integro-differential relation

    p(x) u'(x) = (lam + q) u(x) - lam * int_0^x u(x-z) f(z) dz - lam * omega(x)

(omega = 0 for W_q) but with different boundary behaviour: W_q starts at
W_q(0) = 1 and grows without bound, while G_{q,w} is the unique solution
vanishing at infinity.  G is recovered from a particular solution G_p
(zero initial value) plus the multiple of W that annihilates the unstable
mode at the truncation boundary:

    G = G_p + gamma * W,   gamma = -G_p(x_max) / W(x_max).

W and G_p are marched forward by one implicit-trapezoid scheme, the one
`_reference.volterra_march` runs node by node.  For exponential claims
f(z) = mu exp(-mu z) the trapezoid history sum H_i of the convolution
obeys H_{i+1} = exp(-mu dx) (H_i + w_i u_i f(0)); the deficit at ruin is
Exp(mu), so omega(x) = omega(0) exp(-mu x) decays by the same factor.  Each
step is a linear map of the two-number state (u, H + omega/dx), on which
the derivative depends; G_p is W's march from another start state, and
`_exponential_chunks` is an O(n) block scan with O(sqrt(n)) Python-level
steps.  Every other claim density goes through `_blocked_chunks`: W and
G_p are two columns of one unit lower-triangular system per block of
`_BLOCK` nodes, and the history older than a super-block of `_SUPER`
nodes is a partitioned convolution.  The scheme's one stability rule,
checked in `_march_chunks` for every claim kind before either kernel runs, is
that the step z = dx (lam + q - dx/2 lam f(0)) / p(x) stays inside
(-2, 2), where the amplification factor (1 + z/2) / (1 - z/2) is
positive: it is 0 at z = -2 and has its pole at z = 2, and past either
u changes sign from node to node.  z can reach -2 only where dx/2 lam f(0)
exceeds lam + q.  A step outside (-2, 2) is a NumericsError naming the
dx below which every step's factor is positive,

    min(2 p / (lam + q), ((lam + q) + sqrt((lam + q)^2 + 4 lam f(0) p)) / (lam f(0)))

at p = min p, the second term for f(0) > 0 only, and the step cap
0.01 min(1/lam, mean claim): a positive factor only keeps each step from
flipping u's sign, and far past the cap W is still no approximation (at
z just above -2 it falls by the factor, near 0, per node).  An overflow
within one block near z = 2 is the same NumericsError (`_near_limit`).
Both marches run in true units from W(0) = 1; a march that leaves float
range otherwise ends in OverflowDomainError, with the largest x_max that
stays inside it.

The relation is the vanishing of the generator residual (A - q)u, which
`_generator_residual` evaluates on every node: the diagnostics apply it
to W and G on their first read, and `hjb.residual_profile` to the value
function.  Its convolution with the claim density, over the whole grid,
is one FFT on the density sampled at the nodes (`_trapezoid_convolution`)
for every claim kind; a read of the diagnostics samples and transforms
the density once for both W and G (`_claim_kernel`).

For exponential(mu) claims, omega' = -mu omega and the convolution's
derivative is mu (u - conv), so differentiating the relation removes both:
W and G, for every penalty, and every combination of them solve

    p u'' = k u' + mu q u,   k = lam + q - p' - mu p,

which `_second_derivative` evaluates.  Differentiated once more, at a
critical point of u' it reads p u''' = kappa u', with
kappa = mu q - p'' - mu p' (`_kappa_positive`).

Both kernels march in chunks (`_march_chunks`), each ending at the first
place at or past the node count the caller asks for: `_blocked_chunks`
at a super-block end, where it keeps its history ring, and
`_exponential_chunks` at a block end, where it keeps each column's
(u, H) state.  At every chunk end the march's first nodes hold exactly
what the march to the last node computes for them, so a caller can stop
there and take the stable G of that shorter domain (`_truncated`).

The closed forms that check W and G, for constant and linear premiums
with exponential claims, are test oracles in `_reference`.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainTooShortError, NumericsError, OverflowDomainError
from .grid import GridFunction
from .model import ModelParams, PenaltyModel, omega_eval

_MAX_SAFE_LOG = 708.0  # natural-log range representable in float64
_DECAY_SLACK = 1e-12
# round-off of G = G_p - r W relative to the cancelled max |G_p|;
# the measured tails of well-resolved models sit at 1e-15 to 1e-14 of it
_CANCEL_FLOOR = 1e-13
# Nodes per triangular block of `_blocked_chunks`, a power of two for the
# doubling inverse
_BLOCK = 64
# Nodes per super-block: one 2 _SUPER-point rfft of its rows when it ends,
# one irfft of the older history when it starts
_SUPER = 1024


@dataclass(frozen=True)
class ScaleSolution:
    """W and G on a common grid, plus the stable-mode bookkeeping.

    `sign_checks` holds the flags W' > 0 and 1 - G' > 0, and where each
    first fails, from the solve; `omega` is the penalty rate on the grid,
    None for a zero penalty.  `diagnostics` adds the residual norms to the
    flags on its first read and is cached from then on.  `domain_reason`
    says how the domain's end was chosen ("xmax": given; "cap" or "tests
    passed": `tables.locate_barrier`), and `domain_certified` whether a
    proof shows that no longer domain holds a larger maximum of h.
    """

    params: ModelParams
    W: GridFunction
    G: GridFunction
    sign_checks: dict
    omega: np.ndarray | None = field(default=None, repr=False, compare=False)
    domain_reason: str = field(default="xmax", compare=False)
    domain_certified: bool = field(default=False, compare=False)

    @property
    def dx(self) -> float:
        return self.W.dx

    @property
    def domain_end(self) -> float:
        return self.W.x_end

    @property
    def domain(self) -> dict:
        """{end, certified, reason}: the domain as `barrier.json` and
        `optimality.json` report it."""
        return {"end": self.domain_end, "certified": self.domain_certified,
                "reason": self.domain_reason}

    @property
    def stable_coefficient(self) -> float:
        """G(0), the multiple of W in G = G_p + gamma W (G_p(0) = 0)."""
        return float(self.G.values[0])

    @cached_property
    def diagnostics(self) -> dict:
        """Relative residuals of the defining relation for W and G
        (`_generator_residual`), the sign flags, and G <= 0."""
        params, dx = self.params, self.dx
        p_vals = np.asarray(params.premium.p(self.W.x), dtype=float)
        w_vals, g_vals = self.W.values, self.G.values
        kernel = _claim_kernel(params, w_vals.size, dx)  # shared by W's and G's residual
        resid_w = _generator_residual(params, p_vals, w_vals, self.W.derivative_values, dx,
                                      kernel=kernel)
        out = {"residual_W": float(np.max(np.abs(resid_w))) / float(np.max(np.abs(w_vals))),
               **self.sign_checks}
        if self.omega is not None and np.any(g_vals != 0.0):
            resid_g = _generator_residual(params, p_vals, g_vals, self.G.derivative_values,
                                          dx, self.omega, kernel)
            gmax = float(np.max(np.abs(g_vals)))
            out["residual_G"] = float(np.max(np.abs(resid_g))) / max(gmax, 1e-300)
            out["G_nonpositive"] = bool(np.all(g_vals <= 1e-12 * gmax))
        else:
            out["residual_G"] = 0.0
            out["G_nonpositive"] = True
        return out


def _step_cap(params: ModelParams) -> float:
    """The recommended largest dx, 0.01 * min(1/lambda, mean claim)."""
    return 0.01 * min(1.0 / params.lam, params.claim.mean())


def _exceeds_step_cap(params: ModelParams, dx: float) -> bool:
    return dx > _step_cap(params) * (1 + 1e-12)


def _under_resolution(params: ModelParams, dx: float) -> str | None:
    """Why W' <= 0 when dx exceeds the step cap: the text naming dx, the cap
    and, for exponential claims, mu·dx, with the remedy.  None within the cap."""
    if not _exceeds_step_cap(params, dx):
        return None
    stiff = (f", and mu·dx = {params.claim.mu * dx:.4g}"
             if params.claim.kind == "exponential" else "")
    return (f"dx={dx:.4g} exceeds the step cap 0.01·min(1/lambda, mean claim) = "
            f"{_step_cap(params):.4g}{stiff}; decrease dx")


def _grid_arrays(params: ModelParams, dx: float, x_max: float):
    for name, value in (("dx", dx), ("x_max", x_max)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value}")
    if dx <= 0 or x_max <= dx:
        raise ValueError(f"need 0 < dx < x_max, got dx={dx}, x_max={x_max}")
    if _exceeds_step_cap(params, dx):
        warnings.warn(f"dx={dx} exceeds the recommended cap {_step_cap(params):.4g} "
                      f"(0.01 * min(1/lambda, mean claim)); results may be coarse")
    n = int(round(x_max / dx)) + 1
    try:
        x = dx * np.arange(n)
    except (MemoryError, ValueError):  # ValueError: numpy's size limit
        raise ValueError(f"a grid of {n} nodes (dx={dx}, x_max={x_max}) cannot be "
                         f"allocated; increase dx or decrease x_max") from None
    p_vals = np.asarray(params.premium.p(x), dtype=float)
    if np.any(p_vals <= 0):
        raise NumericsError("premium not positive on the grid")
    return x, p_vals


def _scan_block(n: int) -> int:
    """Steps per block of `_exponential_chunks` on n nodes, about sqrt(0.1 n):
    it balances the B lockstep numpy steps against the n / B Python-float
    steps of the chain."""
    return max(1, round(math.sqrt(0.1 * n)))


def _near_limit(B: int, i: int, dx: float, A: float, c) -> NumericsError:
    """The error of a march that leaves float range within the block of B nodes
    from node i, whose largest step dx A c (c = 1/p) is near the limit 2."""
    return NumericsError(
        f"the march overflows float range within one block of {B} nodes at "
        f"x={i * dx:.6g}: the step dx (lam + q - dx/2 lam f(0)) / p(x) reaches "
        f"{dx * A * float(c.max()):.3g}, near its limit of 2, for dx={dx:.6g}; "
        f"decrease dx")


def _to_end(chunks):
    """(values, derivatives) of a chunked march run to its last node."""
    for _, u, d in chunks:
        pass
    return u, d


def _exponential_march(p_vals, mu, lam, q, dx, u0, omega0):
    """`_exponential_chunks` run to its last node: (values, derivatives)."""
    return _to_end(_exponential_chunks(p_vals, mu, lam, q, dx, u0, omega0))


def _exponential_chunks(p_vals, mu, lam, q, dx, u0, omega0, first=None):
    """`_reference.volterra_march` for the density f(z) = mu exp(-mu z), one
    column per entry of u0 and omega0.

    Column k starts from u0[k] with the source omega(x) = omega0[k] e^{-mu x}
    (0 for W): every penalty rate of exponential claims has that form.  The
    convolution's history sum and omega(x_i)/dx both decay by delta =
    exp(-mu dx) per step, so their sum H obeys H_i = delta (H_{i-1} + mu
    u_{i-1}) from H_0 = -mu u_0 / 2 + omega(0)/dx (node 0 has weight 1/2),
    d_i = c_i (A u_i - lam dx H_i), and one step maps (u, H) linearly:

        u_i = alpha_i u_{i-1} + beta_i H_{i-1},  H_i = delta (H_{i-1} + mu u_{i-1}),
        alpha_i = k_i (1 + dx/2 A c_{i-1} - dx/2 lam dx mu delta c_i),
        beta_i = -k_i dx/2 lam dx (c_{i-1} + delta c_i)

    with c = 1/p, k = 1 / (1 - dx/2 A c) and A = lam + q - dx/2 lam mu.
    The n - 1 steps are cut into blocks of B = `_scan_block(n)` steps.  B
    lockstep steps of three numpy calls march every block's response to
    each unit start state; per column, a 2 x 2 chain over the block-end
    responses in Python floats gives each block's start state, broadcast
    products expand u and H, and d follows from them.

    A generator: it carries each column's state at a block end on and
    yields (k, values, derivatives), the first k nodes done, at the first
    block end k at or past `first`, and then at the first one at or past
    the node count sent in; at the last node for None.  The arrays, in
    true units and of shape (n, m), are the same objects at every yield;
    their rows past k are not yet written.  Every product is elementwise
    per block, so a node's values do not depend on where the chunks end.
    A column that grows past float range reads inf or nan from there on.
    """
    n = len(p_vals)
    half, ldx = 0.5 * dx, lam * dx
    A, decay = lam + q - half * lam * mu, math.exp(-mu * dx)
    B = _scan_block(n)
    nb = -(-(n - 1) // B)
    # c, then 0 past the last node; step j of block b is node 1 + b B + j
    c = np.zeros(nb * B + 1)
    np.divide(1.0, p_vals, out=c[:n])
    c_prev, c_cur = c[:-1].reshape(nb, B).T, c[1:].reshape(nb, B).T
    # R[j, var, s, b]: u (var 0) and H (var 1) after step j of block b from
    # unit start state s.  Before step j, R[j] holds the rows (alpha, delta)
    # on the state and (beta, mu delta) on it with u and H swapped
    R = np.empty((B, 2, 2, nb))
    alpha, delta, k = R[:, 0, 0], R[:, 0, 1], R[:, 1, 0]
    np.multiply(c_cur, -half * A, out=k)
    k += 1.0
    np.divide(1.0, k, out=k)
    np.multiply(c_prev, half * A, out=alpha)
    alpha += 1.0
    np.multiply(c_cur, half * ldx * mu * decay, out=delta)
    alpha -= delta
    alpha *= k
    np.multiply(c_cur, decay, out=delta)
    delta += c_prev
    delta *= -half * ldx
    k *= delta  # beta
    R[:, :, 1] = ((decay,), (mu * decay,))
    prev, mine, swapped = np.eye(2)[:, :, None], np.empty((2, 2, nb)), np.empty((2, 2, nb))
    for cur, own, other in zip(R, R[:, 0, :, None], R[:, 1, :, None]):
        np.multiply(own, prev, out=mine)
        np.multiply(other, prev[::-1], out=swapped)
        np.add(mine, swapped, out=cur)
        prev = cur
    # a non-finite entry stays one through the later steps of its block (H
    # carries it: a non-finite times a finite or a sum with one is
    # non-finite), so the block-end products show every failing block
    bad = ~np.isfinite(R[-1]).all(axis=(0, 1))
    if bad.any():
        i = 1 + int(np.argmax(bad)) * B
        raise _near_limit(B, i, dx, A, c[i:i + B])
    ends = R[-1].transpose(2, 0, 1).reshape(nb, 4).tolist()
    u, d = np.empty((2, nb * B + 1, len(u0)))
    h = np.empty((nb, B))
    states = []  # per column, (u, H) at the start of the next block
    for col, (s0, w0) in enumerate(zip(u0, omega0)):
        u[0, col], d[0, col] = s0, ((lam + q) * s0 - lam * w0) / p_vals[0]
        states.append((float(s0), -0.5 * mu * s0 + w0 / dx))

    def end_at(want, b0):  # the first block end 1 + b1 B >= want past block b0
        return nb if want is None else min(nb, max(b0 + 1, -(-(want - 1) // B)))

    b0, b1 = 0, end_at(first, 0)
    while True:
        rows, hb = slice(1 + b0 * B, 1 + b1 * B), h[:b1 - b0]
        for col, (su, sh) in enumerate(states):
            starts = []  # u and H at each block start, flat
            put = starts.append
            for uu, uh, hu, hh in ends[b0:b1]:
                put(su)
                put(sh)
                su, sh = uu * su + uh * sh, hu * su + hh * sh
            states[col] = su, sh
            su, sh = np.array(starts).reshape(-1, 2).T[:, :, None]
            uc, dc = u[rows, col].reshape(-1, B), d[rows, col].reshape(-1, B)
            for var, out in ((1, hb), (0, uc)):  # dc is scratch until d is formed
                np.multiply(R[:, var, 0, b0:b1].T, su, out=out)
                np.multiply(R[:, var, 1, b0:b1].T, sh, out=dc)
                out += dc
            np.multiply(uc, A, out=dc)
            hb *= ldx
            dc -= hb
            dc *= c_cur[:, b0:b1].T
        want = yield min(rows.stop, n), u[:n], d[:n]
        if b1 == nb:
            return
        b0, b1 = b1, end_at(want, b1)


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: a length numpy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            best = min(best, f35 << max(0, (-(-n // f35) - 1).bit_length()))
            f35 *= 3
        f5 *= 5
    return best


def _unit_lower_inverse(M, inv):
    """The inverses of a stack of unit lower-triangular matrices, shape
    (k, B, B) with B a power of two, by doubling, written into `inv` (of
    M's shape) and returned.

    The inverses of the diagonal blocks of size s are known (1 for s = 1);
    the inverse of the block [[A, 0], [C, D]] of size 2s that joins two of
    them is [[A^-1, 0], [X, D^-1]] with X = -D^-1 C A^-1.  Each level is
    two batched matmuls over strided views of the diagonal blocks.  There
    is no pivoting, the entries above the diagonal stay exactly 0, and an
    inverse past float range reads inf or nan.
    """
    k, B, _ = M.shape
    inv.fill(0.0)
    inv.reshape(k, B * B)[:, ::B + 1] = 1.0
    item = M.itemsize
    s = 1
    while s < B:
        # the s x s blocks of every pair of diagonal blocks, the pair at row
        # and column 2 s p; from its corner, A^-1 is at element offset 0,
        # D^-1 at s (B + 1), and C (in M) and X (in inv) at s B
        shape = (k, B // (2 * s), s, s)
        strides = (B * B * item, 2 * s * (B + 1) * item, B * item, item)

        def blocks(a, offset):
            return np.ndarray(shape, a.dtype, a, offset * item, strides)

        np.negative(blocks(inv, s * (B + 1)) @ blocks(M, s * B) @ blocks(inv, 0),
                    out=blocks(inv, s * B))
        s *= 2
    return inv


def _finite_rows(a) -> int:
    """The number of leading rows of `a` whose entries are all finite."""
    ok = np.isfinite(a).all(axis=1)
    return a.shape[0] if ok.all() else int(np.argmin(ok))


class _PartitionedHistory:
    """The history of `_blocked_chunks` from the D super-blocks of S rows
    before the current one, as a uniformly partitioned convolution with
    the density f: super-block s - d reaches super-block s through the
    segment f[(d-1)S+1 : (d+1)S], d = 1..D, 0 past f's end.

    `seg` holds the segments' 2S-point spectra for d = D, D - 1, ..., 1
    and then once more in that order, so that rows o to o + D - 1, with
    o = (-s) mod D, pair segment s - t with the spectrum of super-block t
    in ring slot t mod D, for the D super-blocks t before s.  `ring`
    holds those spectra, one per column of u, zero before the march has
    filled them.
    """

    def __init__(self, f, S: int, D: int, m: int):
        self.S, self.D = S, D
        fp = np.zeros((D + 1) * S)
        fp[:min(f.size, fp.size)] = f[:fp.size]
        segments = np.lib.stride_tricks.sliding_window_view(fp[1:], 2 * S - 1)[::S]
        spectra = np.fft.rfft(segments[::-1], 2 * S, axis=1)
        self.seg = np.concatenate((spectra, spectra))
        self.ring = np.zeros((m, D, S + 1), complex)

    def push(self, s: int, rows):
        """Store the spectrum of super-block s, its S rows of u."""
        self.ring[:, s % self.D] = np.fft.rfft(rows.T, 2 * self.S)

    def older(self, s: int, ns: int):
        """The history sums of the first ns rows of super-block s from the
        D super-blocks before it, shape (ns, m): rows S-1 onward of the
        inverse transform of sum_d U_{s-d} G_d, where the circular wrap of
        the 2S points lands on rows below S-1 only."""
        S, D = self.S, self.D
        o = -s % D
        acc = (self.seg[o:o + D] * self.ring).sum(axis=1)
        return np.fft.irfft(acc, 2 * S)[:, S - 1:S - 1 + ns].T


def _blocked_chunks(p_vals, f_vals, lam, q, dx, u0, omega=None):
    """`_reference.volterra_march` for several columns at once, by blocks.

    Column k starts from u0[k]; the last column has the source omega when
    `omega` is given, and every other column none.  Same trapezoid step,
    written for the nodes i of one block after eliminating the derivative
    d_{i-1}:

        u_i = alpha_i ((1 + dx/2 A c_{i-1}) u_{i-1}
                       + dx/2 (c_{i-1} e_{i-1} + c_i e_i)),

    with c = 1/p, alpha_i = 1 / (1 - dx/2 A c_i) and e_i = -lam (S_i + s_i)
    linear in u through the history sum S_i.  The first node of a block
    uses the known d_{i-1} instead.

    The history from nodes before the current super-block of S nodes is a
    uniformly partitioned convolution (a frequency-domain delay line,
    `_PartitionedHistory`).  With K the support of f on the grid, only the
    last D = ceil((K-1)/S) super-blocks reach the current one.  When a
    super-block ends, its rows are transformed once, at 2S points, into a
    ring of the last D spectra; the 2S-point spectra of the density's D
    segments are computed once per march, and a super-block's older
    history is one product over the ring and one inverse transform.  Each
    super-block costs O(S log S + D S), not a transform over its support.

    The history from earlier blocks of the super-block comes through a
    C-contiguous Toeplitz strip of f, and the coupling inside the block
    through a unit lower-triangular matrix.  Those matrices depend on the
    grid, not on u: at the top of each super-block all of them are
    inverted as one stack (`_unit_lower_inverse`), and a block's solve is
    one product with its inverse, one right-hand side per column.  The
    coefficients of their rows, alpha and the source term are built per
    super-block, in buffers allocated once per march, so the march holds
    O(n) only in 1/p, in its outputs and, for a support as long as the
    grid, in the ring.

    A generator: at the end of every super-block it yields (k, values,
    derivatives), the first k nodes done, in true units; the arrays, of
    shape (n, m), are the same objects at every yield, and their rows
    past k are not yet written.  A block whose solution leaves float
    range, while the inverse of its matrix is finite, ends the march: row
    i of the triangular product reads the right-hand side up to row i
    only, so the nodes before the first non-finite row keep their values
    and the nodes from it on read inf, for `_check_range` to report.
    Below the trapezoid limit, which `_march_chunks` checks, the inverse
    leaves float range only near it, where one block's growth does: a
    NumericsError (`_near_limit`).
    """
    p = np.asarray(p_vals, dtype=float)
    f = np.asarray(f_vals, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    n, m = p.size, u0.size
    B = _BLOCK
    S = max(B, min(_SUPER, n))
    nz = np.flatnonzero(f)
    K = int(nz[-1]) + 1 if nz.size else 1
    half = 0.5 * dx
    A = lam + q - half * lam * f[0]

    # strip[i, j] = f[Sw - B + i - j] (0 below index 0), C-contiguous: the
    # history from the super-block's nodes before the block at offset r0
    # reads its columns Sw - B - r0 to Sw - B, and Sw - B >= every r0.  It
    # is built before the march allocates any O(n) array, so its index
    # temporaries do not add to the march's peak
    Sw = B * (S // B + 1)
    fw = np.zeros(Sw)
    fw[:min(Sw, n)] = f[:Sw]
    lag = (Sw - B) + np.arange(B)[:, None] - np.arange(Sw)
    strip = np.where(lag >= 0, fw[np.maximum(lag, 0)], 0.0)
    del lag
    # T[r, j] = dx/2 lam dx f[r - j] below the diagonal, 0 on and above it
    T = np.tril(strip[:, Sw - B:], -1) * (half * lam * dx)
    T_up = np.zeros((B, B))  # row r holds row r - 1 of T
    T_up[1:] = T[:-1]
    # the D super-blocks before a super-block that reach it through f's
    # support, at most all the others
    D = min(-(-(K - 1) // S), -(-n // S) - 1)
    history = _PartitionedHistory(f, S, D, m) if D else None

    c = 1.0 / p
    # the super-block's node s0 + i at row i: per node, alpha, the
    # coefficients of its row of the block matrix (on T, on T shifted down
    # a row, and on the subdiagonal; the zero column S pads a short block
    # with identity rows), each column's source (0, or omega in the last)
    # and -lam c times it
    alpha = np.empty(S)
    coef = np.zeros((3, S + 1))
    src = np.zeros((S, m))
    src_c = np.empty((S, m))
    older = np.zeros((S, m))  # the history from before the super-block
    # the super-block's block matrices, and their inverses (at first the
    # scratch of the matrices' second term)
    mats, invs = np.empty((2, -(-S // B), B, B))
    src0 = np.zeros(m)
    if omega is not None:
        src0[-1] = omega[0]

    u = np.empty((n, m))  # u[0] holds u0/2: its trapezoid weight in every sum
    d = np.empty((n, m))
    u[0] = 0.5 * u0
    d[0] = ((lam + q) * u0 - lam * src0) / p[0]
    u_prev, d_prev = u0, d[0]

    for s, s0 in enumerate(range(0, n, S)):
        s1 = min(s0 + S, n)
        ns = s1 - s0
        lo = max(s0, 1)  # node 0 is no row of a block, and may be past the limit
        np.divide(1.0, 1.0 - half * A * c[lo:s1], out=alpha[lo - s0:ns])
        own, prev = slice(lo - s0, ns), slice(lo - 1, s1 - 1)
        coef[0, own] = alpha[own] * c[lo:s1]
        coef[1, own] = alpha[own] * c[prev]
        coef[2, own] = alpha[own] * (1.0 + half * A * c[prev])
        if omega is not None:
            src[:ns, -1] = omega[s0:s1]
        np.multiply((-lam * c[s0:s1])[:, None], src[:ns], out=src_c[:ns])
        if s and history is not None:
            older[:ns] = history.older(s, ns)
        # the blocks [starts, ends) of the super-block, aligned to multiples
        # of B; the first of the march starts at node 1
        starts = np.arange(s0, s1, B)
        ends = np.minimum(starts + B, s1)
        starts[0] = lo
        rows = starts[:, None] + np.arange(B)
        rc, rcp, rs = coef[:, np.where(rows < ends[:, None], rows - s0, S)]
        M, scratch = mats[:starts.size], invs[:starts.size]
        np.multiply(rc[..., None], T, out=M)
        M += np.multiply(rcp[..., None], T_up, out=scratch)
        flat = M.reshape(starts.size, B * B)
        flat[:, B::B + 1] -= rs[:, 1:]
        flat[:, ::B + 1] = 1.0
        for inv, b0, b1 in zip(_unit_lower_inverse(M, scratch), starts.tolist(),
                               ends.tolist()):
            L = b1 - b0
            r0 = b0 - s0
            hist = strip[:L, Sw - B - r0:Sw - B] @ u[s0:b0]
            hist += older[r0:r0 + L]
            cb = c[b0:b1, None]
            g = src_c[r0:r0 + L] - (lam * dx) * cb * hist  # c e, known part
            rhs = half * g
            rhs[1:] += half * g[:-1]
            rhs[0] += u_prev + half * d_prev
            rhs *= alpha[r0:r0 + L, None]
            inv = inv[:L, :L]
            ub = inv @ rhs
            k = L
            if not np.isfinite(ub).all():
                if not np.isfinite(inv).all():
                    raise _near_limit(B, b0, dx, A, c[b0:b1])
                # the solution left float range, not the step: keep the rows
                # before it, solved from the finite rows of rhs only, since
                # a non-finite rhs row times the zeros above the diagonal is nan
                k = _finite_rows(rhs)
                ub = inv[:k, :k] @ rhs[:k]
                k = _finite_rows(ub)
                ub = ub[:k]
            db = g[:k] + cb[:k] * (A * ub - (2.0 / dx) * (T[:k, :k] @ ub))
            u[b0:b0 + k] = ub
            d[b0:b0 + k] = db
            if k < L:
                u[b0 + k:] = d[b0 + k:] = np.inf
                u[0] = u0
                yield n, u, d
                return
            u_prev, d_prev = ub[-1], db[-1]
        if history is not None and s1 < n:
            history.push(s, u[s0:s1])
        u[0] = u0  # no later sum reads node 0 once its super-block is pushed
        yield s1, u, d


def _march(params, p_vals, dx, omega=None):
    """March W, and G_p too when `omega` is given, as columns of one call.

    Returns (values, derivatives), each of shape (n, m): column 0 is W,
    column 1 G_p.  It is `_march_chunks` run to the last node.
    """
    return _to_end(_march_chunks(params, p_vals, dx, omega))


def _march_chunks(params, p_vals, dx, omega=None, first=None):
    """`_march` as a generator of (k, values, derivatives), the first k
    nodes done, at the first chunk end k at or past `first`, and then at
    the first one at or past the node count sent in; the arrays are the
    same objects at every yield.  With None, every chunk end, which for
    exponential claims is the last node.  For exponential claims the O(n)
    march, where G_p needs only omega(0): it is W's march from another
    start state, and its chunks end at any block end.  Otherwise the
    blocked one, on the density sampled at the nodes, whose chunks end at
    super-block ends.  Each kernel runs with float overflow silenced, and
    only while it runs: a march past float range reads inf or nan, which
    the kernels' own checks and `_check_range` report.
    """
    lam, q = params.lam, params.q
    # the trapezoid limit (module docstring) at the nodes x_i, i >= 1: the
    # step dx A / p is outside (-2, 2) where p <= dx/2 |A|
    f0 = params.claim.density(0.0)
    A = lam + q - 0.5 * dx * lam * f0
    if p_vals[1:].min() <= 0.5 * dx * abs(A):
        i = 1 + int(np.argmax(p_vals[1:] <= 0.5 * dx * abs(A)))
        floor = params.premium.floor_from(0.0, dx * (p_vals.size - 1))
        stable = 2.0 * floor / (lam + q)
        if f0 > 0:
            stable = min(stable, (lam + q + math.sqrt((lam + q) ** 2 + 4.0 * lam * f0 * floor))
                         / (lam * f0))
        raise NumericsError(
            f"the march reaches the trapezoid limit at x={i * dx:.6g}: the step "
            f"dx (lam + q - dx/2 lam f(0)) / p(x) is {dx * A / p_vals[i]:.6g}, outside "
            f"(-2, 2), for dx={dx:.6g}; decrease dx below {stable:.6g}, where every "
            f"step's factor is positive (min p = {floor:.6g}); an accurate W needs dx "
            f"within the step cap 0.01·min(1/lambda, mean claim) = {_step_cap(params):.6g}")
    u0 = [1.0] if omega is None else [1.0, 0.0]
    if params.claim.kind == "exponential":
        omega0 = [0.0] if omega is None else [0.0, float(omega[0])]
        chunks = _exponential_chunks(p_vals, params.claim.mu, lam, q, dx, u0, omega0, first)
    else:
        f_vals = params.claim.density(dx * np.arange(p_vals.size))
        chunks = _blocked_chunks(p_vals, f_vals, lam, q, dx, u0, omega)
    n, want, done = p_vals.size, first, None
    while done is None or done[0] < n:
        with np.errstate(over="ignore", invalid="ignore"):
            done = next(chunks) if done is None else chunks.send(want)
            while want is not None and done[0] < min(want, n):
                done = next(chunks)  # the blocked march ends chunks at super-blocks only
        want = yield done


def _check_range(x, u, d):
    """Raise OverflowDomainError unless every column of the march, values and
    derivatives, is finite and |W| <= e^708 (column 0).  The usable domain
    it reports ends at the last node before the first failing one where
    |W| <= e^703."""
    absw = np.abs(u[:, 0])
    if np.isfinite(u).all() and np.isfinite(d).all() and absw.max() <= math.exp(_MAX_SAFE_LOG):
        return  # the per-row mask below only locates a failure
    ok = (np.isfinite(u).all(axis=1) & np.isfinite(d).all(axis=1)
          & (absw <= math.exp(_MAX_SAFE_LOG)))
    first = int(np.argmin(ok))
    safe_nodes = np.flatnonzero(absw[:first] <= math.exp(_MAX_SAFE_LOG - 5.0))
    safe = float(x[safe_nodes[-1]]) if safe_nodes.size else 0.0
    raise OverflowDomainError(
        f"the scale function leaves float64 range at x={x[first]:.6g} on "
        f"[0, {x[-1]}]; largest safe x_max is about {safe:.6g}",
        largest_safe_x_max=safe)


def compute_W(params: ModelParams, dx: float, x_max: float) -> GridFunction:
    """Scale-type function W_q on a uniform grid over [0, x_max].

    W(0) = 1 exactly; the derivative samples come from the defining
    relation (not finite differences).  W does not depend on the penalty:
    this is the solve of the zero-penalty model, which marches W alone.
    """
    return solve_scale(dataclasses.replace(params, penalty=PenaltyModel.zero()),
                       dx, x_max).W


def compute_G(params: ModelParams, dx: float, x_max: float) -> GridFunction:
    """Gerber-Shiu function G_{q,w} on [0, x_max] (the stable solution)."""
    return solve_scale(params, dx, x_max).G


def solve_scale(params: ModelParams, dx: float, x_max: float) -> ScaleSolution:
    """The joint march, W from W(0) = 1 and the stable G, in true units;
    G = 0 for a zero penalty.

    The sign checks run here and warn where W' <= 0 or 1 - G' <= 0; the
    residual norms of the diagnostics are computed on their first read.
    """
    x, p_vals = _grid_arrays(params, dx, x_max)
    omega = None if params.penalty.is_zero else omega_eval(params, x)
    return _solution(params, x_max, x, *_march(params, p_vals, dx, omega), omega)


def _solution(params, x_max, x, u, d, omega) -> ScaleSolution:
    """`solve_scale`'s solution from its march, values u and derivatives d
    on the grid x of [0, x_max]: W and the stable G, after the range check
    and, for G, the decay check on the whole grid."""
    _check_range(x, u, d)
    noise = None if omega is None else _CANCEL_FLOOR * float(np.abs(u[:, 1]).max())
    W, G = _stable_pair(float(x[1]), u, d, omega is not None)  # x[1] = dx * 1 is dx
    del u, d  # W and G hold copies of their columns: the march's arrays go now
    if omega is not None:
        _check_G_decay(G.values, x_max, noise)
    return ScaleSolution(params, W, G, _sign_checks(params, W, G), omega)


def _truncated(params, dx, u, d, omega, k, certified) -> ScaleSolution:
    """The solution on the first k nodes of a march (values u, derivatives
    d), a domain whose end the caller's tests chose: G = G_p - r W with
    r = G_p / W at node k - 1, and no decay check."""
    W, G = _stable_pair(dx, u[:k], d[:k], omega is not None)
    return ScaleSolution(params, W, G, _sign_checks(params, W, G),
                         None if omega is None else omega[:k].copy(), "tests passed", certified)


def _stable_pair(dx, u, d, penalised):
    """(W, G) from the march's columns: W, and G = G_p - r W with
    r = G_p / W at the last node (G = 0 without a penalty)."""
    W = GridFunction(0.0, dx, u[:, 0], d[:, 0])
    if not penalised:
        return W, GridFunction(0.0, dx, np.zeros_like(W.values), np.zeros_like(W.values))
    r = u[-1, 1] / W.values[-1]
    return W, GridFunction(0.0, dx, u[:, 1] - r * W.values, d[:, 1] - r * W.derivative_values)


def _check_G_decay(g_vals, x_max, noise):
    """Raise unless |G| decays over the last two 10% bands of the grid; a rise
    within `noise`, the round-off of the cancelled combination, is not one."""
    n = g_vals.size
    absg = np.abs(g_vals)
    peak = float(absg.max())
    if peak == 0.0:
        return
    i90, i80 = int(0.9 * n), int(0.8 * n)
    if i80 == i90:
        raise NumericsError(f"the G decay check compares the last two 10% bands of "
                            f"the grid, and a grid of {n} nodes on [0, {x_max}] "
                            f"has an empty band; use a smaller dx or a larger x_max")
    last = float(absg[i90:].max())
    prev = float(absg[i80:i90].max())
    if last > prev + _DECAY_SLACK * peak + noise:
        raise DomainTooShortError(
            f"|G| is not decaying on the last 10% of [0, {x_max}] "
            f"(max {last:.3e} vs {prev:.3e} on the previous band); "
            f"increase the truncation domain", suggested_x_max=1.5 * x_max)
    # the stable mode must have died out before the annihilation zone,
    # otherwise forcing G(x_max) = 0 distorts the whole profile
    if last > 0.01 * peak:
        raise DomainTooShortError(
            f"|G| has only decayed to {last / peak:.1%} of its peak by the last "
            f"10% of [0, {x_max}]; the truncation distorts the stable solution",
            suggested_x_max=1.5 * x_max)


def _trapezoid_convolution(u: np.ndarray, f: np.ndarray, dx: float,
                           f_hat: np.ndarray | None = None) -> np.ndarray:
    """conv_j = dx * trapezoid of int_0^{x_j} u(s) f(x_j - s) ds for every j.

    u is scaled by the power of two 2^-e that brings max |u| into [1/2, 1)
    before the transforms, and the result by 2^e after them: the scaling is
    exact, so the result is that of the unscaled FFT wherever that stays in
    float range, and an input near float max convolves without overflow.
    `f_hat` is f's transform from `_claim_kernel`, when the caller has it.
    """
    n = u.size
    e = int(np.frexp(np.max(np.abs(u)))[1])
    s = np.ldexp(u, -e)
    nfft = _fft_length(2 * n - 1)  # no wrap-around
    if f_hat is None:
        f_hat = np.fft.rfft(f, nfft)
    spec = np.fft.rfft(s, nfft)
    spec *= f_hat
    full = np.fft.irfft(spec, nfft)[:n]
    del spec
    # dx (full - 0.5 s_0 f - 0.5 s f_0) 2^e in place, in that order of
    # operations, ending in s
    tmp = f * (0.5 * s[0])
    full -= tmp
    np.multiply(s, 0.5, out=tmp)
    tmp *= f[0]
    full -= tmp
    full *= dx
    return np.ldexp(full, e, out=s)


def _claim_kernel(params, n: int, dx: float):
    """(f, f_hat): the claim density at the n nodes dx j and its transform
    at the length `_trapezoid_convolution` uses."""
    f = params.claim.density(dx * np.arange(n))
    return f, np.fft.rfft(f, _fft_length(2 * n - 1))


def _generator_residual(params, p_vals, u: np.ndarray, du: np.ndarray, dx: float,
                        omega=None, kernel=None) -> np.ndarray:
    """(A - q) u = p u' + lam (conv(u, f) + omega - u) - q u at every node
    dx j, u extended below zero by the penalty through omega (zero when
    None).  It vanishes on W, with omega None, and on G, with the penalty's
    omega, where it is the residual of the defining relation.  `kernel` is
    `_claim_kernel`'s pair for u's grid, computed here when None."""
    f, f_hat = _claim_kernel(params, u.size, dx) if kernel is None else kernel
    conv = _trapezoid_convolution(u, f, dx, f_hat)
    if omega is not None:
        conv += omega
    # p u' + lam (conv - u) - q u in place, in that order of operations
    conv -= u
    conv *= params.lam
    out = p_vals * du
    out += conv
    np.multiply(u, params.q, out=conv)
    out -= conv
    return out


def _sign_checks(params, W: GridFunction, G: GridFunction) -> dict:
    """The flags W' > 0 and 1 - G' > 0, with the first node where each
    fails; a failure is warned about, flagged and not clipped."""
    wd_vals, gd_vals = W.derivative_values, G.derivative_values
    out = {
        "W_prime_positive": bool(np.all(wd_vals > 0)),
        "one_minus_G_prime_positive": bool(np.all(1.0 - gd_vals > 0)),
    }
    if not out["W_prime_positive"]:
        at = int(np.argmax(wd_vals <= 0)) * W.dx
        out["W_prime_first_violation_x"] = at
        why = _under_resolution(params, W.dx)
        warnings.warn(f"W' <= 0 at x={at:.6g}; barrier quantities are "
                      f"undefined there (flagged, not clipped)"
                      + ("" if why is None else f"; the grid is under-resolved: {why}"))
    if not out["one_minus_G_prime_positive"]:
        at = int(np.argmax(1.0 - gd_vals <= 0)) * W.dx
        out["G_prime_first_violation_x"] = at
        warnings.warn(f"1 - G' <= 0 at x={at:.6g} (flagged, not clipped)")
    return out


def _second_derivative(params, x, u, du):
    """u''(x) of a solution u of the relation for exponential(mu) claims,
    from the ODE of the module docstring: (k u' + mu q u) / p with
    k = lam + q - p' - mu p.  It holds for W, G and every combination of
    them; x, u and u' are floats or arrays of one shape."""
    premium, mu, q = params.premium, params.claim.mu, params.q
    p = premium.p(x)
    k = params.lam + q - premium.p_prime(x) - mu * p
    return (k * du + mu * q * u) / p


def _kappa_positive(premium, mu: float, q: float, x1: float) -> bool:
    """Whether kappa = mu q - p'' - mu p' > 0 on all of [x1, inf), where
    p u''' = kappa u' at every critical point of u' (module docstring).

    For the linear law (constant included) kappa = mu (q - eps).  For the
    rational law p = c + 1/(1+x),
    (1+x)^3 kappa = mu q (1+x)^3 + mu (1+x) - 2, which increases in x, so
    its sign at x1 holds beyond.  A tabulated premium has
    kappa = mu (q - s) on each piece of slope s, and p'' holds
    a point mass, the slope's jump, at each knot: every slope from x1 on
    must be below q, and none may rise at a knot past x1, beyond the
    round-off of slopes taken from samples (the tolerance of
    `PremiumModel.concave`).
    """
    if premium.kind == "rational":
        u = 1.0 + x1
        return mu * q * u ** 3 + mu * u - 2.0 > 0.0
    if premium.kind == "tabulated":
        slopes = premium._piece_table[0][np.searchsorted(premium.xs, x1, side="right"):]
        tol = 1e-10 * max(1.0, float(np.max(np.abs(slopes))))
        return bool(np.all(slopes < q) and np.all(np.diff(slopes) <= tol))
    return premium.epsilon < q
