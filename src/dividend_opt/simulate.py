"""Exact event-driven Monte-Carlo simulation of the regulated surplus.

The process is piecewise deterministic: surplus flows along dr = p(r) dt
between Poisson(lambda) claim times, claims knock it down, and under a
barrier strategy everything above the barrier is paid out (an initial
lump if x > a, then dividends at rate p(a) while sitting at the barrier).
Discounted barrier dividends are integrated in closed form per sojourn
segment, so horizon truncation is the only bias and it is bounded and
reported.

One engine serves every premium, claim and penalty kind: it advances all
live paths in lockstep, one claim per iteration, as arrays, with the exact
travel times and flow of `flow.FlowSolver`, the claim quantile function
and the penalty.

Russian roulette ends paths whose remaining rewards are discounted to
little.  Past h0 = ln(10)/q, at the claim epochs t that start an even
iteration, a path is kept with probability e^{-q (t - h0)} / pi, pi being
the probability with which it was kept so far, and a kept path carries
the weight e^{q (t - h0)} on every later dividend, penalty, exit value
and ruin indicator.  A kept path's weighted remaining reward is thus at
most e^{-q h0} = 1/10 of the envelope that bounds the truncation.  The
decision is a stopping-time rule, so the estimate stays unbiased for the
value truncated at the horizon, and `truncation_bound` keeps its
meaning; `ruin_fraction` is the weighted mean of the ruin indicators, an
unbiased estimate of the probability of ruin before the horizon.  With
q = 0 or a horizon at most h0 no path is ever past h0 and nothing
changes.

Stream contract: path k's stream under a seed is numpy's
`Generator(Philox(key=(seed << 64) + k))`, the counter-based
Philox4x64-10 keyed by (seed, k), generated here for all live paths at
once.  Iteration i of a path draws its inter-arrival time and its claim
from uniforms 2i and 2i + 1 of the stream, which lie in Philox block
i // 2 + 1; its roulette uniform is word 0 of block 2^63 + i.  The two
counter ranges are disjoint, so the roulette leaves every claim draw as
it is.  Estimates are bit-identical across reruns and do not depend on
how the path range is cut into chunks.

The generator is a group kernel: each refill draws a few whole blocks, in
groups of paths that share a counter.  A counter (c, 0, 0, 0) makes
round 0 a function of the group alone and leaves one array word to
multiply in round 1, so both run on Python ints; rounds 2-9 run in place
on views of one uint64 scratch buffer allocated per call, of a fixed
size: at most _PHILOX_TILE = 8 192 keys times blocks.  A refill of more
runs in tiles of that many, each of whole groups or of a slice of one
group, and each tile's words are written as uniforms straight into
their rows of the draws array; in a call of at most 4 096 paths every
refill is one tile.  A refill is drawn when the rows of the last one run
out, and the same call draws the roulette uniforms: a refill of several
blocks (at most _REFILL_BLOCKS / 2 live paths), if the horizon is past
h0, those of every live path at each even iteration it covers; a refill
of one block (two iterations), those of iteration k for the paths past
h0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import HorizonError, ModelValidationError, NumericsError
from .flow import FlowSolver
from .model import ModelParams, penalty_envelope

_MODE_VALUE = 0
_MODE_GERBER = 1
_MODE_TWO_SIDED = 2
_MAX_BLOCK = 1 << 22  # most uniforms one path may draw
_BOUND_FRACTION = 1e-4
# Philox blocks generated per refill, over all live paths: with few live
# paths one refill covers many iterations, so the fixed cost of its ~170
# array operations is not paid every two iterations.
_REFILL_BLOCKS = 128
# paths advanced together at most: bounds the engine's working arrays
# (a few dozen of this length) whatever the path count
_CHUNK_PATHS = 1 << 16
# Russian roulette starts at h0 = _ROULETTE_START / q, where e^{-q h0} = 1/10;
# iteration k's roulette uniform is word 0 of Philox block _ROULETTE_BLOCK + k
_ROULETTE_START = math.log(10.0)
_ROULETTE_BLOCK = 1 << 63

# Philox4x64-10 (Salmon et al., SC'11): the round multipliers of the two
# lanes (counter words 0 and 2) and the key increments (key words 0 and 1)
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_MASK64 = (1 << 64) - 1
_PHILOX_M = np.array([_M0, _M1], dtype=np.uint64)[:, None]
_LO32 = np.uint64(0xFFFFFFFF)
_U11, _U32 = np.uint64(11), np.uint64(32)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _U32
# uint64 planes of a Philox scratch buffer: the even and odd counter words,
# the high product words, three temporaries and the round key
_PLANES = 7
# most keys times blocks that one `_philox_words` call draws: it bounds the
# Philox scratch buffer at 0.9 MB (7 planes of 2 words per key) whatever
# the path count, and a larger refill runs in tiles.  Per key, Philox took
# 239 ns at 4 096 keys, 155 at 8 192, 143 at 16 384 and 153 at 32 000 (best
# of 15, one pinned CPU of a 2-core VM), so a smaller tile costs time
_PHILOX_TILE = 8192


def _mulhilo(x, m, m_lo, m_hi, hi, lo, s1, s2, s3):
    """Write the high and low 64-bit words of the 128-bit products m * x
    into `hi` and `lo`, from 32-bit halves; `lo` may be `x`, and s1-s3 are
    scratch of x's shape."""
    np.bitwise_and(x, _LO32, out=s1)  # x_lo
    np.right_shift(x, _U32, out=hi)  # x_hi
    np.multiply(x, m, out=lo)
    np.multiply(hi, m_lo, out=s2)  # mid
    np.multiply(s1, m_lo, out=s3)
    s3 >>= _U32
    s2 += s3  # no carry out: (2^32 - 1)^2 + 2^32 - 1 < 2^64
    np.multiply(s1, m_hi, out=s1)  # low
    np.bitwise_and(s2, _LO32, out=s3)
    s1 += s3
    hi *= m_hi
    s2 >>= _U32
    hi += s2
    s1 >>= _U32
    hi += s1


def _philox_words(groups, seed: int, scratch: np.ndarray):
    """Words of Philox4x64-10 blocks under key words (k, seed): for each
    (counter, keys) of `groups`, block `counter` (an int) of every k in the
    uint64 array `keys`.

    Returns (even, odd), (2, N) views of `scratch` (a uint64 array of
    _PLANES rows, each of at least 2 N elements, N the number of keys of
    all groups) that hold counter words (0, 2) and (1, 3), group after
    group.  Round 0 of a counter (c, 0, 0, 0) depends on the counter only,
    and round 1 multiplies only the key word k, so both run on Python ints
    per group plus one product over the keys; rounds 2-9 run in place.
    """
    keys = groups[0][1] if len(groups) == 1 else np.concatenate([k for _, k in groups])
    n = keys.size
    planes = scratch[:, :2 * n]
    even, odd, hi, s1, s2, s3 = (v.reshape(2, n) for v in planes[:6])
    key = planes[6, :n]
    # round 0 leaves (k, 0, hi(M0 c) ^ seed, lo(M0 c)); round 1 multiplies the
    # counter words by M1 as Python ints and the key word k by M0 as an array
    w2 = [(_M0 * c >> 64) ^ seed for c, _ in groups]
    words = np.array([[_M1 * w >> 64 for w in w2],
                      [((_M0 * c) & _MASK64) ^ ((seed + _W1) & _MASK64) for c, _ in groups],
                      [(_M1 * w) & _MASK64 for w in w2]], dtype=np.uint64)
    if len(groups) > 1:
        words = np.repeat(words, [k.size for _, k in groups], axis=1)
    hi1, l0, lo1 = words
    k_hi, k_lo = hi[0], s1[0]
    _mulhilo(keys, _PHILOX_M[0, 0], _M_LO[0, 0], _M_HI[0, 0], k_hi, k_lo,
             s2[0], s3[0], even[0])
    np.add(keys, np.uint64(_W0), out=key)
    np.bitwise_xor(key, hi1, out=even[0])
    np.bitwise_xor(k_hi, l0, out=even[1])
    odd[0] = lo1
    odd[1] = k_lo
    for r in range(2, 10):
        _mulhilo(even, _PHILOX_M, _M_LO, _M_HI, hi, even, s1, s2, s3)
        odd ^= hi[::-1]
        key += np.uint64(_W0)
        odd[0] ^= key
        odd[1] ^= np.uint64((seed + r * _W1) & _MASK64)
        even, odd = odd, even[::-1]
    return even, odd


def _to_uniforms(parts, seed: int, scratch: np.ndarray):
    """Write the uniforms of Philox4x64-10 blocks, (w >> 11) * 2**-53 of
    each word w, straight into their output arrays.

    Each part is (counters, keys, out): block c of every key k, for c in
    the sequence `counters` and k in the uint64 array `keys`, goes to
    out[:, :, i, j] for c = counters[i] and k = keys[j]; out[0, l] takes
    counter word 2 l and out[1, l], if out has two planes, word 2 l + 1.
    The blocks run through `_philox_words` in tiles of at most the keys
    that `scratch` holds; a tile packs whole groups of keys sharing a
    counter, or holds a slice of one group.
    """
    tile = scratch.shape[1] // 2
    tiles, used = [[]], 0  # each a list of pieces (counters, keys, out)
    for counters, keys, out in parts:
        step, width = max(1, tile // keys.size), min(keys.size, tile)
        for i in range(0, len(counters), step):
            for j in range(0, keys.size, width):
                cs, ks = counters[i:i + step], keys[j:j + width]
                if used + len(cs) * ks.size > tile:
                    tiles.append([])
                    used = 0
                tiles[-1].append((cs, ks, out[:, :, i:i + step, j:j + width]))
                used += len(cs) * ks.size
    for pieces in tiles:
        even, odd = _philox_words([(c, ks) for cs, ks, _ in pieces for c in cs], seed,
                                  scratch)
        start = 0
        for cs, ks, out in pieces:
            stop = start + len(cs) * ks.size
            for words, dst in zip((even, odd), out):  # out's planes
                w = words[:dst.shape[0], start:stop].reshape(dst.shape)
                w >>= _U11
                np.multiply(w, 1.0 / 9007199254740992.0, out=dst)
            start = stop


def _philox_scratch(n: int) -> np.ndarray:
    """A Philox scratch buffer for up to `n` keys times blocks."""
    return np.empty((_PLANES, 2 * n), dtype=np.uint64)


def philox_uniforms(paths, seed: int, counter) -> np.ndarray:
    """The four uniforms of Philox4x64-10 block `counter` of each path's stream.

    Path k's stream under `seed` is numpy's
    `Generator(Philox(key=(seed << 64) + k))`: key words (k, seed), counter
    words (counter, 0, 0, 0), counters counted from 1, each 64-bit word w
    turned into (w >> 11) * 2**-53.  `paths` is a scalar or 1-D; `counter`
    is shared by all paths: a scalar, or an array whose last axis has
    length 1 when `paths` is 1-D.  The result has shape (4,) + their
    broadcast shape, in draw order along axis 0.
    """
    keys = np.asarray(paths, dtype=np.uint64)
    ctr = np.asarray(counter, dtype=np.uint64)
    if keys.ndim > 1 or (keys.ndim and ctr.ndim and ctr.shape[-1] != 1):
        raise ValueError("philox_uniforms needs 1-D paths and a counter shared by "
                         "all of them (a scalar, or last axis of length 1)")
    shape = np.broadcast_shapes(keys.shape, ctr.shape)
    keys = keys.ravel()
    b, n = ctr.size, keys.size
    out = np.empty((4, b, n))
    if out.size:  # draw 2 l + j is lane l of the even (j = 0) or odd words
        _to_uniforms([([int(c) for c in ctr.ravel()], keys,
                       out.reshape(2, 2, b, n).transpose(1, 0, 2, 3))],
                     seed, _philox_scratch(min(_PHILOX_TILE, b * n)))
    return out.reshape((4,) + shape)


@dataclass(frozen=True)
class SimulationConfig:
    """Replication plan: path count, horizon, seed, barrier level."""

    paths: int
    horizon: float
    seed: int
    barrier: Optional[float] = None

    def __post_init__(self):
        for name in ("paths", "seed"):  # a bool is Integral but no count or seed
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.paths <= 0:
            raise ValueError(f"paths must be positive, got {self.paths}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be a finite number > 0, got {self.horizon}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.barrier is not None and not (math.isfinite(self.barrier)
                                             and self.barrier >= 0):
            raise ValueError(f"barrier must be a finite number >= 0, got {self.barrier}")


@dataclass(frozen=True)
class SimulationEstimate:
    """A Monte-Carlo estimate; `ruin_fraction` is the mean of the paths'
    roulette-weighted ruin indicators, an unbiased estimate of the
    probability of ruin before the horizon."""

    mean: float
    std_error: float
    ci95: tuple
    paths_used: int
    ruin_fraction: float
    truncation_bound: float
    seed: int
    truncation_is_heuristic: bool = False

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "ci95": [self.ci95[0], self.ci95[1]],
            "paths": self.paths_used,
            "ruin_fraction": self.ruin_fraction,
            "truncation_bound": self.truncation_bound,
            "seed": self.seed,
        }


def _check_capital(x) -> float:
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"initial capital x must be a finite number >= 0, got {x}")
    return float(x)


def _refill(keys: np.ndarray, seed: int, k: int, lam: float, ppf,
            scratch: np.ndarray, roulette: bool, past: Optional[np.ndarray]):
    """The draws of iterations k .. k + 2 blocks - 1 (k even) of the paths
    `keys`, one row per iteration, from the Philox tiles of `scratch`.

    Plane 0 holds the inter-arrival times and plane 1 the claims.  Plane 2
    holds roulette uniforms: if `roulette` and the refill covers several
    blocks, those of every even iteration for every path (its odd rows are
    never read); if it covers one block, those of iteration k for the
    paths `past` (the indices of the paths past h0), if given.
    """
    m = keys.size
    blocks = max(1, _REFILL_BLOCKS // m)
    every = roulette and blocks > 1
    draws = np.empty((2 + (every or past is not None), 2 * blocks, m))
    # words 0-3 of block b are draws 0-1 of iterations k + 2b, k + 2b + 1:
    # lane j of the even (odd) words is row 2b + j of plane 0 (1)
    parts = [(range(k // 2 + 1, k // 2 + 1 + blocks), keys,
              draws[:2].reshape(2, blocks, 2, m).transpose(0, 2, 1, 3))]
    if every:  # word 0 of block _ROULETTE_BLOCK + i for iteration i
        parts.append((range(_ROULETTE_BLOCK + k, _ROULETTE_BLOCK + k + 2 * blocks, 2),
                      keys, draws[2:, None, 0::2]))
    elif past is not None:
        u = np.empty(past.size)
        parts.append(([_ROULETTE_BLOCK + k], keys[past], u.reshape(1, 1, 1, -1)))
    _to_uniforms(parts, seed, scratch)
    taus = draws[0]  # -log1p(-u) / lam, in place
    np.negative(taus, out=taus)
    np.log1p(taus, out=taus)
    np.divide(taus, -lam, out=taus)
    draws[1] = ppf(draws[1])
    if past is not None and not every:
        draws[2, 0, past] = u
    return draws


def _lockstep(params: ModelParams, x: float, horizon: float, seed: int,
              mode: int, a: float, lo: int, hi: int):
    """(value, ruin weight) arrays of paths lo .. hi-1, advanced together.

    Each iteration handles one claim of every live path, in the order of
    the scalar oracle `_reference.generic_path`: the roulette, dividends
    up to the claim or the horizon, the two-sided exit, the horizon, then
    the claim and ruin.  Paths that end are dropped from the live arrays.
    The ruin weight is the path's roulette weight if it is ruined, else 0.
    """
    lam, q = params.lam, params.q
    solver = FlowSolver(params.premium)
    ppf, w = params.claim.ppf, params.penalty.w
    p_at_a = float(params.premium.p(a)) if mode == _MODE_VALUE else 0.0
    h0 = _ROULETTE_START / q if q > 0 else math.inf
    roulette = h0 < horizon  # else no claim epoch of a live path passes h0
    n = hi - lo
    values = np.zeros(n)
    ruined = np.zeros(n)
    live = np.arange(n)
    t = np.zeros(n)
    lvl = np.full(n, x)
    val = np.zeros(n)
    wgt = None  # roulette weights of the live paths; None while all are 1
    if mode == _MODE_VALUE and x > a:
        val += x - a
        lvl[:] = a
    draws = np.empty((2, 0, n))
    row = 0
    # holds every refill whole in a call of at most _PHILOX_TILE / 2 paths
    scratch = _philox_scratch(min(_PHILOX_TILE, 2 * max(n, _REFILL_BLOCKS)))
    travel_time, flow = solver.travel_time, solver.flow
    for k in range(_MAX_BLOCK // 2):
        past = None
        if k % 2 == 0 and roulette and t.max() > h0:
            past = np.flatnonzero(t > h0)
        if row == draws.shape[1]:  # k is even: refills cover whole blocks
            draws = _refill((lo + live).astype(np.uint64), seed, k, lam, ppf,
                            scratch, roulette, past)
            row = 0
        gone = None
        if past is not None:
            # keep a path past h0 with probability e^{-q (t - h0)} over the
            # one it has survived so far, 1 / wgt (0 if e^{q (t - h0)}
            # overflows); a dropped path gets weight 0 and ends with this iteration
            grown = t[past]  # e^{q (t - h0)}, in place
            grown -= h0
            grown *= q
            if wgt is None:
                wgt = np.ones(live.size)
            u = draws[2, row, past]
            with np.errstate(over="ignore", invalid="ignore"):
                np.exp(grown, out=grown)
                u *= grown
            dropped = ~(u < wgt[past])
            wgt[past] = np.where(dropped, 0.0, grown)
            gone = past[dropped]
        tau, claim = draws[0, row], draws[1, row]
        row += 1
        t_claim = t + tau
        cut = np.minimum(t_claim, horizon)
        done = t_claim >= horizon
        if gone is not None:
            done[gone] = True
        if mode == _MODE_VALUE:
            at_a = t + np.where(lvl >= a, 0.0, travel_time(lvl, a))
            paid = p_at_a * (np.exp(-q * at_a) - np.exp(-q * cut)) / q
            if wgt is not None:
                paid *= wgt
            val = np.where(at_a < cut, val + paid, val)
        elif mode == _MODE_TWO_SIDED:
            at_a = t + travel_time(lvl, a)
            exit_ = at_a <= cut
            hit = np.exp(-q * at_a)
            if wgt is not None:
                hit *= wgt
            val = np.where(exit_, hit, val)
            done |= exit_
        pre = flow(lvl, tau)
        if mode == _MODE_VALUE:
            pre = np.where(at_a <= t_claim, a, pre)
        new = pre - claim
        ruin = (new < 0.0) & ~done
        if np.count_nonzero(ruin):
            if mode != _MODE_TWO_SIDED:
                penalty = np.exp(-q * t_claim[ruin]) * w(new[ruin])
                if wgt is not None:
                    penalty *= wgt[ruin]
                val[ruin] += penalty
            ruined[live[ruin]] = 1.0 if wgt is None else wgt[ruin]
            done |= ruin
        lvl, t = new, t_claim
        if np.count_nonzero(done):
            values[live[done]] = val[done]
            keep = np.flatnonzero(~done)
            if keep.size == 0:
                return values, ruined
            live, lvl, t, val = live[keep], lvl[keep], t[keep], val[keep]
            if wgt is not None:
                wgt = wgt[keep]
            draws, row = draws[:, row:, keep], 0
    raise NumericsError(f"path {lo + live[0]} needs more than {_MAX_BLOCK} draws; "
                        f"horizon or rates look pathological")


def _run_paths(params: ModelParams, x: float, config: SimulationConfig,
               mode: int, a: float):
    """Per-path (value, ruined) arrays in path order.

    The path range runs in consecutive chunks of at most _CHUNK_PATHS
    paths; every path's result is the same in any chunk.
    """
    n = config.paths
    parts = [_lockstep(params, x, config.horizon, int(config.seed), mode, a,
                       start, min(start + _CHUNK_PATHS, n))
             for start in range(0, n, _CHUNK_PATHS)]
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]))


def _estimate(values: np.ndarray, ruined: np.ndarray, config: SimulationConfig,
              bound: float, heuristic: bool) -> SimulationEstimate:
    """The estimate from the per-path values; NumericsError if one of them
    is not a finite number, which no mean or horizon check would catch."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericsError(f"path {bad[0]} has the value {float(values[bad[0]])}, "
                            f"not a finite number")
    n = values.size
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return SimulationEstimate(mean, se, (mean - 1.96 * se, mean + 1.96 * se),
                              n, float(ruined.mean()), bound, config.seed,
                              heuristic)


def _check_horizon(est: SimulationEstimate, envelope: float, q: float):
    """Raise HorizonError, with the horizon that would do, when the truncation
    bound e^{-qH} * envelope of `est` exceeds 1e-4 of its mean."""
    floor = _BOUND_FRACTION * max(abs(est.mean), 1e-12)
    if est.truncation_bound > floor:
        required = math.log(max(envelope, 1e-300) / floor) / q
        raise HorizonError(f"truncation bound {est.truncation_bound:.3e} exceeds 1e-4 "
                           f"of the mean {est.mean:.6g}; need horizon >= {required:.1f}",
                           required_horizon=required)


def _value_envelope(params: ModelParams, a: float) -> float:
    """Bound on the value still collectable after the horizon."""
    return float(params.premium.p(a)) / params.q + penalty_envelope(params)


def simulate_value(params: ModelParams, x: float, config: SimulationConfig) -> SimulationEstimate:
    """Estimate the barrier-strategy value: discounted dividends until ruin
    plus the discounted penalty at ruin.

    Requires config.barrier and q > 0 (with q = 0 the dividend stream at
    the barrier has no finite discounted value).  Raises HorizonError when
    the truncation bound exceeds 1e-4 of the running mean.
    """
    if config.barrier is None:
        raise ValueError("simulate_value needs config.barrier")
    if params.q == 0.0:
        raise ModelValidationError("q = 0 with a barrier: the discounted dividend "
                                   "integral may diverge")
    x = _check_capital(x)
    a = float(config.barrier)
    values, ruined = _run_paths(params, x, config, _MODE_VALUE, a)
    envelope = _value_envelope(params, a)
    bound = math.exp(-params.q * config.horizon) * envelope
    est = _estimate(values, ruined, config, bound, False)
    _check_horizon(est, envelope, params.q)
    return est


def simulate_gerber_shiu(params: ModelParams, x: float,
                         config: SimulationConfig) -> SimulationEstimate:
    """Estimate the expected discounted penalty at ruin (no dividends)."""
    if config.barrier is not None:
        raise ValueError("simulate_gerber_shiu runs without a barrier")
    x = _check_capital(x)
    values, ruined = _run_paths(params, x, config, _MODE_GERBER, 0.0)
    w_env = penalty_envelope(params)
    heuristic = False
    if params.q > 0:
        bound = math.exp(-params.q * config.horizon) * w_env
    else:
        bound = _drift_tail_bound(params, x, config.horizon, w_env)
        heuristic = True
    est = _estimate(values, ruined, config, bound, heuristic)
    if not params.penalty.is_zero and params.q > 0:
        _check_horizon(est, w_env, params.q)
    return est


def _drift_tail_bound(params: ModelParams, x: float, horizon: float,
                      w_env: float) -> float:
    """Heuristic q = 0 tail bound from the survival drift: the surplus of a
    path alive at the horizon sits near x + drift * H, and ruin from there
    is exponentially unlikely in the adjustment coefficient."""
    p_floor = params.premium.floor_from(x, x + 1e6)
    drift = p_floor - params.lam * params.claim.mean()
    if params.claim.kind == "exponential":
        kappa = params.claim.mu - params.lam / p_floor
    else:
        kappa = 0.0
    if drift <= 0 or kappa <= 0:
        return w_env
    return w_env * math.exp(-kappa * (x + 0.5 * drift * horizon))


def simulate_two_sided(params: ModelParams, x: float, a: float,
                       config: SimulationConfig) -> SimulationEstimate:
    """Estimate E_x[e^{-q tau_a^+}; tau_a^+ < tau_0^-] for 0 <= x <= a."""
    x = _check_capital(x)
    if not (x <= a < math.inf):
        raise ValueError(f"need 0 <= x <= a with a finite, got x={x}, a={a}")
    if config.barrier is not None:
        raise ValueError("two-sided exit runs on the unregulated process")
    if x == a:
        return SimulationEstimate(1.0, 0.0, (1.0, 1.0), config.paths, 0.0, 0.0,
                                  config.seed)
    values, ruined = _run_paths(params, x, config, _MODE_TWO_SIDED, float(a))
    bound = math.exp(-params.q * config.horizon)
    return _estimate(values, ruined, config, bound, params.q == 0.0)
