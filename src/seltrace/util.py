"""Shared numerics: quadrature grids, block iteration, exponential sums,
circle sampling, smooth cutoffs."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class SeltraceError(Exception):
    """Base class for all library errors."""


class PoleProximityError(SeltraceError):
    """A requested evaluation point sits inside a pole exclusion disk."""

    def __init__(self, points, message="evaluation too close to a pole"):
        self.points = list(np.atleast_1d(points))
        super().__init__(f"{message}: {self.points}")


class DecayError(SeltraceError):
    """Declared or observed decay is insufficient for a convergent contour."""


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gl_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes/weights on [a, b]."""
    x, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def panel_gl_nodes(edges, n: int):
    """Composite Gauss-Legendre nodes over consecutive panels `edges`: on each
    panel, the nodes and weights of `gl_nodes`, bit for bit."""
    x, w = gauss_legendre(n)
    edges = np.asarray(edges, dtype=float)
    a = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - a)
    return (a + half * (x + 1.0)).ravel(), (half * w).ravel()


def ranges(lo: np.ndarray, count: np.ndarray):
    """Flatten the integer ranges lo[i], lo[i] + 1, ..., lo[i] + count[i] - 1
    into (owner i, value) pairs, ranges in order."""
    owner = np.repeat(np.arange(lo.size), count)
    start = np.cumsum(count) - count
    return owner, lo[owner] + (np.arange(owner.size) - start[owner])


# entries per step of every chunked loop, 256 kB per float64 array: a step's
# arrays stay in cache, and the allocator seldom faults their pages in afresh
# (glibc, 2-core host: a width 1.0 `tf report` takes 4.0e4 minor faults, and
# 1.6e5 with kernel-sum steps of 1 << 16)
_BLOCK = 1 << 15


def steps(sizes: np.ndarray):
    """Slices of consecutive items, each the longest run whose sizes add up to
    at most `_BLOCK` (or a single item, if that alone passes it): the one
    working-set size of the library's chunked loops.  Items of fixed width w
    are `steps(np.full(n, w))`, max(1, _BLOCK // w) to a slice."""
    ends = np.cumsum(sizes)
    i = 0
    while i < sizes.size:
        j = max(i + 1, int(np.searchsorted(ends, (ends[i - 1] if i else 0) + _BLOCK, side="right")))
        yield slice(i, j)
        i = j


def trap_grid(t_max: float, dt: float):
    """Uniform grid on [-t_max, t_max] with trapezoid weights, the one rule
    for every vertical line.

    The n = round(2 t_max / dt) steps are 2 t_max / n wide (dt itself where
    n dt = 2 t_max to rounding), and the nodes step (k - n/2), k = 0..n, are
    exactly antisymmetric, so odd parts of an integrand cancel to the bit."""
    n = int(round(2.0 * t_max / dt))
    step = 2.0 * t_max / n
    if abs(step - dt) <= 8.0 * np.finfo(float).eps * dt:
        step = dt
    t = step * (np.arange(n + 1) - 0.5 * n)
    w = np.full(n + 1, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return t, w


# shortest progression worth factoring; shorter axes go dense
_MIN_PROGRESSION = 256


def _progression_step(v: np.ndarray):
    """The step of an axis that `exp_sum` can factor, else None: at least
    _MIN_PROGRESSION points v_k = v_0 + k d to rounding, either direction.
    A real v is the nodes u and d is real; a complex v is a vertical line s,
    with constant real part, and d is its imaginary step."""
    n = v.size
    if n < _MIN_PROGRESSION:
        return None
    tol = 16.0 * np.finfo(float).eps * float(np.max(np.abs(v)))
    # written so that a nan anywhere fails either test
    if np.iscomplexobj(v):
        if not np.max(np.abs(v.real - v[0].real)) <= tol:
            return None
        v = v.imag
    d = (v[-1] - v[0]) / (n - 1)
    if not np.max(np.abs(v - (v[0] + d * np.arange(n)))) <= tol:
        return None
    return d


# share of the smallest row's absolute sum that `exp_sum` may leave out: below
# one rounding of any double-precision result
_NEGLIGIBLE = 2.0**-60


def _live_terms(s: np.ndarray, u: np.ndarray, c: np.ndarray):
    """Mask of the terms of sum_j c_j exp(-s_k u_j) that can reach the sum at
    some row, or None to keep them all.

    With Re s_k in [lo, hi], each term is at most b_j = |c_j| max(e^(-lo u_j),
    e^(-hi u_j)) and every row's absolute sum is at least L = sum_j |c_j|
    min(e^(-lo u_j), e^(-hi u_j)).  The smallest b_j are dropped while they add
    up to at most _NEGLIGIBLE * L.  Bounds are formed in logs, so nothing
    overflows; complex u and non-finite inputs keep every term, so nan and inf
    propagate as in the plain sum."""
    if np.iscomplexobj(u) or u.size == 0 or s.size == 0:
        return None
    lo, hi = float(np.min(s.real)), float(np.max(s.real))
    if not (math.isfinite(lo) and math.isfinite(hi) and np.all(np.isfinite(u)) and np.all(np.isfinite(c))):
        return None
    with np.errstate(divide="ignore"):
        log_c = np.log(np.abs(c))
    log_hi = log_c - np.minimum(lo * u, hi * u)
    log_lo = log_c - np.maximum(lo * u, hi * u)
    top = float(np.max(log_lo))
    if top == -math.inf:
        return None
    log_L = top + math.log(float(np.sum(np.exp(log_lo - top))))
    with np.errstate(over="ignore"):
        b = np.exp(log_hi - log_L)
    order = np.argsort(b, kind="stable")
    n_drop = int(np.searchsorted(np.cumsum(b[order]), _NEGLIGIBLE, side="right"))
    if n_drop == 0:
        return None
    keep = np.ones(u.size, dtype=bool)
    keep[order[:n_drop]] = False
    return keep


def exp_sum(s, u, c):
    """sum_j c_j exp(-s_k u_j) for every s_k; the result has the shape of s.

    Terms that cannot reach the result are dropped first (`_live_terms`): at
    every row the dropped part is at most 2^-60 of sum_j |c_j exp(-s_k u_j)|,
    below one rounding of the sum.

    With complex exponents, the longer of the two axes is factored when it is
    a progression (`_progression_step`), taken in blocks of B = ceil(sqrt(n))
    points:
      * nodes u_{bB+m} = u_{bB} + m du, where n_u >= n_s: exp(-s u) is
        exp(-s u_{bB}) exp(-s m du), and each row is the sum over b of
        exp(-s u_{bB}) (sum_m exp(-s m du) c_{bB+m}), one (rows x B) @
        (B x n_u/B) product in the row blocks of `steps`.  The dropped terms
        keep their places with weight 0 (the dropped ends are cut off), so
        u stays a progression;
      * else a vertical line s_{bB+m} = s_{bB} + i m d: exp(-s u) is
        exp(-s_{bB} u) exp(-i m d u), and the whole line is one
        (n_s/B x n_u) @ (n_u x B) product.
    Either takes O(sqrt(n) n_other) exponentials in place of n_s n_u, and no
    n_s x n_u array is formed.  Any other input, and real s and u, whose
    exponents stay real, take the dense formula in the row blocks of `steps`,
    at most `_BLOCK` exponentials each (or one row, if it alone passes that).
    All are the same sum, exact to rounding; the result takes the type of the
    exponentials times c.
    """
    real = not (np.iscomplexobj(s) or np.iscomplexobj(u))
    s = np.asarray(s, dtype=float if real else complex)
    u = np.asarray(u)
    c = np.asarray(c)
    sf = s.reshape(-1)
    keep = _live_terms(sf, u, c)
    du = None if real or np.iscomplexobj(u) or u.size < sf.size else _progression_step(u)
    d = None if real or du is not None else _progression_step(sf)
    if keep is not None and du is not None:
        live = np.flatnonzero(keep)
        g = slice(live[0], live[-1] + 1)
        u, c = u[g], np.where(keep[g], c[g], 0)
    elif keep is not None:
        u, c = u[keep], c[keep]
    if d is not None:
        n = sf.size
        B = math.isqrt(n - 1) + 1
        head = np.exp(-np.multiply.outer(sf[::B], u)) * c
        step = np.exp(np.multiply.outer(-1j * d * np.arange(B), u))
        return (head @ step.T).reshape(-1)[:n].reshape(s.shape)
    out = np.empty(sf.shape, dtype=np.result_type(s, u, c))
    if du is not None:
        B = math.isqrt(u.size - 1) + 1
        n_b = -(-u.size // B)
        blocks = np.zeros(n_b * B, dtype=c.dtype)
        blocks[: u.size] = c
        blocks = blocks.reshape(n_b, B).T
        u_head, m_du = u[::B], du * np.arange(B)
        for g in steps(np.full(sf.size, n_b + B)):
            head = np.exp(-np.multiply.outer(sf[g], u_head))
            step = np.exp(-np.multiply.outer(sf[g], m_du))
            out[g] = np.sum(head * (step @ blocks), axis=1)
    else:
        for g in steps(np.full(sf.size, u.size)):
            out[g] = np.exp(-np.multiply.outer(sf[g], u)) @ c
    return out.reshape(s.shape)


def circle_coefficients(f, s0: complex, orders, radius: float, m: int) -> dict:
    """Laurent coefficients {k: a_k} of f at s0 for the requested orders, from
    the FFT of f on m equally spaced points of the circle |s - s0| = radius."""
    orders = np.asarray(list(orders), dtype=int)
    th = 2.0 * np.pi * np.arange(m) / m
    fft = np.fft.fft(as_complex_array(f(s0 + radius * np.exp(1j * th)))) / m
    return dict(zip(orders.tolist(), fft[orders % m] / radius**orders))


def smooth_eta(x):
    """C^infinity cutoff: 1 on (0, 1/2], 0 on [1, inf), monotone in between."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[x <= 0.5] = 1.0
    mid = (x > 0.5) & (x < 1.0)
    if np.any(mid):
        t = (x[mid] - 0.5) / 0.5
        a = np.exp(-1.0 / np.clip(1.0 - t, 1e-300, None))
        b = np.exp(-1.0 / np.clip(t, 1e-300, None))
        out[mid] = a / (a + b)
    return out


def smooth_eta_inf(x):
    """Mirror cutoff: 0 on (0, 1], 1 on [2, inf)."""
    x = np.asarray(x, dtype=float)
    return smooth_eta(1.0 / np.clip(x, 1e-300, None))


def as_complex_array(x):
    return np.asarray(x, dtype=complex)
