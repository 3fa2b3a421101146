"""Shared numerics: quadrature grids, exponential sums, smooth cutoffs,
modular reduction."""

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
    """Composite Gauss-Legendre nodes over consecutive panels `edges`."""
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = gl_nodes(a, b, n)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def trap_grid(t_max: float, dt: float):
    """Symmetric uniform grid on [-t_max, t_max] with trapezoid weights."""
    n = int(round(2.0 * t_max / dt))
    t = np.linspace(-t_max, t_max, n + 1)
    w = np.full(n + 1, dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return t, w


# shortest vertical progression worth factoring; shorter inputs go dense
_MIN_PROGRESSION = 256
# exponentials per row block of the dense formula (32 MB of complex128)
_DENSE_BLOCK = 1 << 21


def _vertical_step(s: np.ndarray):
    """Imaginary step d if s_k = s_0 + i k d to rounding (constant real part,
    either direction, at least _MIN_PROGRESSION points), else None."""
    n = s.size
    if n < _MIN_PROGRESSION:
        return None
    d = (s[-1].imag - s[0].imag) / (n - 1)
    tol = 16.0 * np.finfo(float).eps * float(np.max(np.abs(s)))
    dev_im = s.imag - (s[0].imag + d * np.arange(n))
    dev_re = s.real - s[0].real
    # written so that a nan anywhere fails the test
    if not (np.max(np.abs(dev_im)) <= tol and np.max(np.abs(dev_re)) <= tol):
        return None
    return d


def exp_sum(s, u, c):
    """sum_j c_j exp(-s_k u_j) for every s_k; the result has the shape of s.

    On a vertical progression s_{bB+m} = s_{bB} + i m d, taken in blocks of
    B = ceil(sqrt(n)) points, exp(-s u) factors as exp(-s_{bB} u) exp(-i m d u):
    the whole line is one (n/B x n_u) @ (n_u x B) product built from
    O(sqrt(n) n_u) exponentials, and no n x n_u array is ever formed.  Any
    other s takes the dense formula in row blocks of bounded size.  Both are
    the same sum, exact to rounding.
    """
    s = np.asarray(s, dtype=complex)
    u = np.asarray(u)
    c = np.asarray(c, dtype=complex)
    sf = s.reshape(-1)
    d = _vertical_step(sf)
    if d is not None:
        n = sf.size
        B = math.isqrt(n - 1) + 1
        head = np.exp(-np.multiply.outer(sf[::B], u)) * c
        step = np.exp(np.multiply.outer(-1j * d * np.arange(B), u))
        out = (head @ step.T).reshape(-1)[:n]
    else:
        out = np.empty(sf.shape, dtype=complex)
        rows = max(1, _DENSE_BLOCK // max(u.size, 1))
        for i in range(0, sf.size, rows):
            out[i : i + rows] = np.exp(-np.multiply.outer(sf[i : i + rows], u)) @ c
    return out.reshape(s.shape)


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


def reduce_to_fundamental_domain(z: complex, max_iter: int = 200) -> complex:
    """Reduce z in the upper half-plane to {|x| <= 1/2, |z| >= 1} under PSL2(Z)."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("point must lie in the upper half-plane")
    for _ in range(max_iter):
        z = complex(z.real - np.round(z.real), z.imag)
        n2 = z.real * z.real + z.imag * z.imag
        if n2 >= 1.0 - 1e-15:
            return z
        z = complex(-z.real / n2, z.imag / n2)
    return z


def as_complex_array(x):
    return np.asarray(x, dtype=complex)
