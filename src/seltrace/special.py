"""Complex special functions for the automorphic layer.

Everything here is double precision and vectorized over numpy arrays where it
pays off.  Zeta is one Euler-Maclaurin sum on Re s >= -1/2 and the reflection
formula onto it left of that line.  The scattering scalar c(s) =
xi(s)/xi(s+1) is the one object whose normalization is derived rather than
assumed; see `scattering_charged` and the lattice-sum oracle in the half-plane
module.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .charged import ChargedLaurent, ChargedMeromorphicFunction
from .util import SeltraceError, PoleProximityError, circle_coefficients, exp_sum

__all__ = [
    "PoleError",
    "DomainError",
    "UnderflowWarning",
    "gamma",
    "zeta",
    "xi",
    "intertwining_c",
    "c_log_derivative",
    "kbessel",
    "kbessel_imag_order",
    "KBesselValue",
    "divisor_sigma",
    "scattering_charged",
]


class PoleError(SeltraceError):
    """Evaluation exactly at (or numerically on top of) a pole."""


class DomainError(SeltraceError):
    """An argument outside the domain on which the function is validated."""


class UnderflowWarning(RuntimeWarning):
    pass


# ----------------------------------------------------------------------------
# Gamma: Lanczos approximation (g = 7, n = 9) with reflection for Re z < 1/2.

_LANCZOS_G = 7.0
_LANCZOS_C = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)


def gamma(z):
    """Complex gamma function, accurate to ~1e-13 relative on moderate strips."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    refl = z.real < 0.5
    zz = np.where(refl, 1.0 - z, z)
    x = np.full_like(zz, _LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        x = x + _LANCZOS_C[i] / (zz - 1.0 + i)
    t = zz - 1.0 + _LANCZOS_G + 0.5
    res = np.sqrt(2.0 * np.pi) * t ** (zz - 0.5) * np.exp(-t) * x
    out[~refl] = res[~refl]
    if np.any(refl):
        zr = z[refl]
        out[refl] = np.pi / (np.sin(np.pi * zr) * res[refl])
    return out[0] if scalar else out


# ----------------------------------------------------------------------------
# Riemann zeta.
#
# Euler-Maclaurin on Re s >= -1/2, vectorized over the array; the reflection
# formula maps the rest of the left half plane onto Re s > 3/2.

# B_2 .. B_16: with N >= 60 and N > 1.2 |Im s| the B_18 term stays below
# 3e-17 max(1, |zeta|) on Re s >= -1/2, |Im s| <= 250
_BERNOULLI_EVEN = [
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510,
]


def _zeta_em(s: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin zeta on Re s >= -1/2 (array input).

    Sums n < N = max(60, 1.2 max|Im s| + 20) directly and corrects with the
    8 tabulated Bernoulli terms."""
    N = max(60, int(1.2 * float(np.max(np.abs(s.imag), initial=0.0))) + 20)
    n = np.arange(1.0, N)
    tail = N / (s - 1.0) + 0.5  # N^(1-s)/(s-1) + N^(-s)/2, over N^(-s)
    coeff = s  # rising product s (s+1) ... (s+2j-2)
    for j, b in enumerate(_BERNOULLI_EVEN, start=1):
        tail = tail + b / math.factorial(2 * j) * float(N) ** (1 - 2 * j) * coeff
        coeff = coeff * (s + 2 * j - 1) * (s + 2 * j)
    return exp_sum(s, np.log(n), np.ones_like(n)) + tail * np.exp(-math.log(N) * s)


# zeta is bounded against mpmath for |Im s| <= _ZETA_IM_MAX only
_ZETA_IM_MAX = 250.0


def _check_zeta_domain(s: np.ndarray):
    if np.any(np.abs(s.imag) > _ZETA_IM_MAX):
        raise DomainError(f"|Im s| = {np.max(np.abs(s.imag)):.6g} is past zeta's validated band |Im s| <= 250")


def zeta(s):
    """Riemann zeta, ~1e-12 of max(1, |zeta|) for |Im s| <= 250.  PoleError at
    s = 1; DomainError for |Im s| > 250."""
    s = np.asarray(s, dtype=complex)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    _check_zeta_domain(s)
    if np.any(np.abs(s - 1.0) < 1e-12):
        raise PoleError("zeta has its pole at s = 1")
    left = s.real < -0.5
    out = _zeta_em(np.where(left, 1.0 - s, s))
    if np.any(left):
        sl = s[left]
        # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
        out[left] *= (2.0 ** sl) * np.pi ** (sl - 1.0) * np.sin(0.5 * np.pi * sl) * gamma(1.0 - sl)
    return out[0] if scalar else out


# ----------------------------------------------------------------------------
# Completed zeta and the scattering scalar.


def xi(s):
    """Completed zeta xi(s) = pi^(-s/2) Gamma(s/2) zeta(s).

    Simple poles at s = 0 and s = 1 with residues -1 and +1; the functional
    equation xi(s) = xi(1-s) is used for Re s < 1/2 so the Gamma factor is
    always evaluated on its fast half plane.
    """
    s = np.asarray(s, dtype=complex)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    _check_zeta_domain(s)
    if np.any(np.abs(s) < 1e-12) or np.any(np.abs(s - 1.0) < 1e-12):
        raise PoleError("xi has poles at s = 0 and s = 1")
    z = np.where(s.real < 0.5, 1.0 - s, s)
    out = np.pi ** (-0.5 * z) * gamma(0.5 * z) * zeta(z)
    return out[0] if scalar else out


def _c_raw(s):
    return xi(s) / xi(s + 1.0)


# order of the Taylor germ of c at 0, and the radius of the 64-point circle
# its coefficients are sampled on
_C_TAYLOR_ORDER = 6
_C_TAYLOR_RADIUS = 1e-2


@lru_cache(maxsize=1)
def _c_taylor_at_zero() -> dict:
    return circle_coefficients(_c_raw, 0.0, range(_C_TAYLOR_ORDER + 1), _C_TAYLOR_RADIUS, 64)


def intertwining_c(s):
    """Level-1 spherical scattering scalar c(s) = xi(s)/xi(s+1).

    c(0) = -1 is a removable point (ratio of the two xi-pole limits) and is
    evaluated by a memoized Taylor expansion.  PoleError at the single pole
    s = 1, residue 1/xi(2) = 6/pi.
    """
    s = np.asarray(s, dtype=complex)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    if np.any(np.abs(s - 1.0) < 1e-12):
        raise PoleError("c(s) has its pole at s = 1")
    out = np.empty_like(s)
    tiny = np.abs(s) < 1e-5
    if np.any(~tiny):
        out[~tiny] = _c_raw(s[~tiny])
    if np.any(tiny):
        co = _c_taylor_at_zero()
        st = s[tiny]
        acc = np.zeros_like(st)
        for k in range(_C_TAYLOR_ORDER, -1, -1):
            acc = acc * st + co[k]
        out[tiny] = acc
    return out[0] if scalar else out


# step of the central differences in `c_log_derivative`
_CLOGD_STEP = 1e-4


def _log_derivative(f, s):
    """(f'/f)(s) for f = c or xi by central differences at steps h and h/2,
    h = `_CLOGD_STEP`, with one Richardson step.  PoleProximityError within
    10 steps of s = 0 or 1, where c and xi have their poles (and c its
    removable point)."""
    s = np.asarray(s, dtype=complex)
    h = _CLOGD_STEP
    near = (np.abs(s - 1.0) < 10 * h) | (np.abs(s) < 10 * h)
    if np.any(near):
        raise PoleProximityError(s[near], "c'/c too close to a pole/removable point")

    def d_central(step):
        return (f(s + step) - f(s - step)) / (2.0 * step)

    return ((4.0 * d_central(0.5 * h) - d_central(h)) / 3.0) / f(s)


def c_log_derivative(s):
    """(c'/c)(s) by Richardson-extrapolated central differences of c; `s` may
    be an array."""
    return _log_derivative(intertwining_c, s)


def _c_log_derivative_xi(s):
    """(c'/c)(s) by the second route, (xi'/xi)(s) - (xi'/xi)(s + 1), under
    the same differences: the `clogd_two_routes` check."""
    s = np.asarray(s, dtype=complex)
    return _log_derivative(xi, s) - _log_derivative(xi, s + 1.0)


def scattering_charged() -> ChargedMeromorphicFunction:
    """c(s) as a charged function on its strip of numerical validity.

    The strip keeps clear of the zeta-zero poles of c, which sit on
    Re s = rho - 1 (left of the unitary line); on it the only pole is s = 1,
    a plus pole of residue 1/xi(2) = 6/pi.
    """
    return ChargedMeromorphicFunction(
        evaluator=intertwining_c,
        poles=(ChargedLaurent(1.0, plus={-1: 6.0 / np.pi}),),
        strip=(-0.45, 3.0),
    )


# ----------------------------------------------------------------------------
# K-Bessel with general (complex) order via exp-sinh double-exponential
# quadrature of the cosh integral representation.


class KBesselValue(NamedTuple):
    value: float
    underflowed: bool


# the exp-sinh rule of `kbessel`: t in [_DE_T_LO, _DE_T_HI] at step _DE_H
_DE_T_LO = -3.8
_DE_T_HI = 3.6
_DE_H = 0.018


@lru_cache(maxsize=1)
def _de_nodes():
    t = np.arange(_DE_T_LO, _DE_T_HI + _DE_H, _DE_H)
    u = np.exp(0.5 * np.pi * np.sinh(t))
    w = _DE_H * 0.5 * np.pi * np.cosh(t) * u
    return u, w


def kbessel(nu, y):
    """K_nu(y) = int_0^inf exp(-y cosh u) cosh(nu u) du for y > 0.

    `nu` may be complex; `y` may be an array.  Double-exponential nodes make
    the rule spectrally accurate; entries with y > 690 underflow to 0.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    if np.any(y <= 0):
        raise ValueError("K_nu(y) requires y > 0")
    nu = complex(nu)
    u, w = _de_nodes()
    out = np.zeros(y.shape, dtype=complex)
    live = y <= 690.0
    if np.any(live):
        yl = y[live]
        # past the cap every term underflows for every requested y; the cap
        # keeps cosh(u) and cosh(nu u) finite (an infinite weight would make
        # an underflowed term nan), and exp_sum drops the negligible terms
        # below it
        ratio = 745.0 / float(np.min(yl))
        u_cap = np.arccosh(max(ratio, 1.0 + 1e-12)) + 1.0
        keep = u <= u_cap
        uk, wk = u[keep], w[keep]
        out[live] = exp_sum(yl, np.cosh(uk), np.cosh(nu * uk) * wk)
    return out[0] if scalar else out


def kbessel_imag_order(nu: float, y: float) -> KBesselValue:
    """K_{i nu}(y) (real-valued) with an explicit underflow flag."""
    if y <= 0:
        raise ValueError("y must be positive")
    if y > 690.0:
        warnings.warn("K_{i nu}(y) underflowed to zero", UnderflowWarning)
        return KBesselValue(0.0, True)
    val = kbessel(1j * float(nu), y)
    return KBesselValue(float(np.real(val)), False)


def divisor_sigma(n: int, w) -> complex:
    """sigma_w(n) = sum_{d | n} d^w by trial division."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    w = complex(w)
    total = 0.0 + 0.0j
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** w
            e = n // d
            if e != d:
                total += e ** w
        d += 1
    return total
