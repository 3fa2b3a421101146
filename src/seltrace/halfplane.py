"""Level-1 automorphic layer: PSL2(Z) on the upper half-plane.

Coordinate dictionary used throughout (fixed once, here):
  * boundary coordinate x = y^(1/2); a boundary function f(y) corresponds to
    the model function G(x) = f(x^2)/x on the multiplicative half-line, so
    that the cusp asymptote coeff * y^((1+s0)/2) becomes the model
    infinity-side exponent term coeff * x^(s0);
  * the boundary Mellin transform of f is the model Mellin transform of G;
  * the measure on the boundary in this coordinate is x^(-2) dx/x, which is
    HALF the push-forward of dmu = dx dy / y^2 (dy/y^2 = 2 x^(-2) dx/x).
    Classical fundamental-domain integrals (`fd_integrate`, volume pi/3) use
    dmu; pairings normalized against the boundary measure therefore carry an
    explicit factor 1/2, recorded as PAIRING_HALF below.

Eisenstein series are evaluated through the classical parameter
w = (1+s)/2: constant term y^w + phi(w) y^(1-w) with
phi(w) = xi(2w-1)/xi(2w), i.e. the scattering scalar c(s) = xi(s)/xi(s+1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charged import ChargedMeromorphicFunction
from .special import PoleError, gamma, intertwining_c, kbessel, xi, zeta, divisor_sigma
from .torus import (
    AsymptoticallyFiniteFunction,
    CriticalExponentError,
    mellin,
)
from .util import (
    DecayError,
    SeltraceError,
    gl_nodes,
    panel_gl_nodes,
    reduce_to_fundamental_domain,
    trap_grid,
)

__all__ = [
    "TruncationWarning",
    "DegenerateParameterError",
    "TailMissingError",
    "HalfPlanePoint",
    "BoundaryFunction",
    "AutomorphicFunction",
    "PseudoEisenstein",
    "pseudo_eisenstein",
    "pseudo_eisenstein_function",
    "constant_term",
    "radon_transform",
    "radon_mellin",
    "eisenstein",
    "EisensteinSeries",
    "lattice_eisenstein",
    "truncate",
    "fd_integrate",
    "maass_selberg",
    "rank_one_plancherel",
    "constant_term_symmetry_check",
    "FUNDAMENTAL_DOMAIN_VOLUME",
    "PAIRING_HALF",
    "boundary_from_model",
    "schwartz_boundary",
    "coprime_rows",
]

FUNDAMENTAL_DOMAIN_VOLUME = np.pi / 3.0
# dmu = dx dy/y^2 restricts to twice the declared boundary measure x^-2 d*x;
# regularized [H]-pairings in the boundary normalization are half the raw
# fundamental-domain quadrature
PAIRING_HALF = 0.5


class TruncationWarning(UserWarning):
    pass


class DegenerateParameterError(SeltraceError):
    """Parameter collision (s1 +- s2 = 0, or an Eisenstein-pole hit)."""


class TailMissingError(SeltraceError):
    """fd_integrate needs either an analytic tail or a decay certificate."""


@dataclass(frozen=True)
class HalfPlanePoint:
    x: float
    y: float

    def __post_init__(self):
        if self.y <= 0:
            raise ValueError("upper half-plane requires y > 0")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


def _as_z(z):
    if isinstance(z, HalfPlanePoint):
        return z.z
    return complex(z)


# ----------------------------------------------------------------------------
# Boundary functions


@dataclass(frozen=True)
class BoundaryFunction:
    """Function on the boundary line (0, inf) in the height coordinate y.

    Internally everything is delegated to the model function
    G(x) = f(x^2)/x; `model` is an AsymptoticallyFiniteFunction whose
    infinity-side exponents are the cusp exponents s0 (the classical
    asymptote coeff * y^((1+s0)/2)) and whose rapid decay toward 0 is the
    funnel-decay certificate.
    """

    model: AsymptoticallyFiniteFunction
    label: str = ""

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        x = np.sqrt(y)
        return x * self.model(x)

    def model_values(self, x):
        return self.model(np.asarray(x, dtype=float))

    def cusp_exponents(self):
        return self.model.infinity_exponents()

    def cusp_terms(self):
        return tuple(t for t in self.model.terms if t.side == "infinity")

    def transform(self) -> ChargedMeromorphicFunction:
        return mellin(self.model)

    def asymptote(self):
        """(s0, coefficient) of the leading cusp term, or None."""
        terms = self.cusp_terms()
        if not terms:
            return None
        lead = max(terms, key=lambda t: t.exponent.real)
        return (lead.exponent, lead.log_poly[0])


def boundary_from_model(model: AsymptoticallyFiniteFunction, label="") -> BoundaryFunction:
    if model.zero_exponents():
        raise ValueError("boundary functions must decay rapidly toward the funnel")
    return BoundaryFunction(model=model, label=label)


def schwartz_boundary(mu: float = 0.0, sigma: float = 1.0, amp: complex = 1.0, label="") -> BoundaryFunction:
    """Rapid-decay-both-ends boundary function from a log-Gaussian model core."""
    from .torus import log_gaussian_core

    return BoundaryFunction(
        model=AsymptoticallyFiniteFunction(core=log_gaussian_core(mu, sigma, amp)),
        label=label or f"logGauss(mu={mu},sigma={sigma})",
    )


# ----------------------------------------------------------------------------
# Automorphic functions


@dataclass(frozen=True)
class AutomorphicFunction:
    """Gamma-invariant evaluator with optional constant-term machinery.

    evaluator acts on complex arrays of upper-half-plane points; ct, when
    supplied, is the exact constant term as a function of the height y.
    asymptote = (s0, coeff) declares phi ~ coeff * y^((1+s0)/2) at the cusp.
    """

    evaluator: Callable
    ct: Callable | None = None
    asymptote: tuple | None = None
    label: str = ""

    def __call__(self, z):
        z = np.asarray(_as_z(z) if np.ndim(z) == 0 else [_as_z(p) for p in np.ravel(z)])
        if z.ndim == 0:
            return self.evaluator(np.atleast_1d(z))[0]
        return self.evaluator(z)

    def on_grid(self, z_array):
        return self.evaluator(np.asarray(z_array, dtype=complex))


def constant_term(phi, y, n_x: int = 64):
    """Average over the closed horocycle at height y.

    Uses the exact constant term when phi carries one; otherwise a periodic
    trapezoid rule in x, spectrally accurate for smooth integrands.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    if isinstance(phi, AutomorphicFunction) and phi.ct is not None:
        out = np.asarray(phi.ct(y), dtype=complex)
        return out[0] if scalar else out
    xs = (np.arange(n_x) + 0.5) / n_x - 0.5
    ev = phi.on_grid if isinstance(phi, AutomorphicFunction) else phi
    Z = xs[None, :] + 1j * y[:, None]
    vals = ev(Z.ravel()).reshape(Z.shape)
    out = vals.mean(axis=1)
    return out[0] if scalar else out


# ----------------------------------------------------------------------------
# Pseudo-Eisenstein series


def _funnel_threshold(f: BoundaryFunction, tol: float) -> float:
    """Largest probe height below which |f| stays under tol (sampled).

    Raises DecayError when |f| is still at or above tol at the lowest probe
    height e^-45: the funnel decays too slowly for any coset truncation."""
    hs = np.exp(-np.linspace(0.0, 45.0, 200))
    vals = np.abs(f(hs))
    below = vals < tol
    if not below[-1]:
        raise DecayError(
            f"|f| = {vals[-1]:.2e} >= {tol:.1e} at the lowest probe height {hs[-1]:.2e}: "
            "the funnel decays too slowly"
        )
    # first index after which everything stays below tol
    keep = len(hs) - 1
    for i in range(len(hs) - 1, -1, -1):
        if below[i]:
            keep = i
        else:
            break
    return float(hs[keep])


def coprime_rows(x_lo: float, x_hi: float, radius2) -> tuple[np.ndarray, np.ndarray]:
    """Coprime bottom rows (c, d) of PSL2(Z), c >= 1, in order of c then d.

    For c = 1, 2, ..., len(radius2) the d run over the integer window that
    covers every d with (c x + d)^2 <= radius2[c - 1] for some x in
    [x_lo, x_hi], coprime ones only; a c with radius2 <= 0 has no rows."""
    cs, ds = [], []
    for c, bound2 in enumerate(radius2, start=1):
        if bound2 <= 0:
            continue
        B = math.sqrt(bound2)
        d = np.arange(int(math.floor(-c * x_hi - B)), int(math.ceil(-c * x_lo + B)) + 1)
        d = d[np.gcd(c, np.abs(d)) == 1]
        cs.append(np.full(d.size, c))
        ds.append(d)
    if not cs:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    return np.concatenate(cs), np.concatenate(ds)


# target accuracy of a pseudo-Eisenstein value; the coset enumeration keeps
# every orbit height where |f| exceeds 1e-3 of it
_PSI_TOL = 1e-10
# (row, point) entries per block of `_psi_values`: the torus-automorphic
# benchmark, whose largest arrays are these blocks, peaks at 110 MB RSS with
# 1e6 entries and at 293 MB with 4e6
_PSI_CHUNK = 1_000_000


def _psi_values(f: BoundaryFunction, z: np.ndarray, c_cap=None) -> np.ndarray:
    """Sum of f over the heights of the Gamma_inf \\ Gamma orbit of z.

    Cosets are enumerated adaptively: a bottom row (c, d) is kept only when
    some grid point can reach an orbit height where |f| exceeds the funnel
    threshold derived from `_PSI_TOL`.  The row (c, -d) lifts -conj(z) to the
    height (c, d) lifts z to, so Psi f(-conj z) = Psi f(z): the sum runs once
    per distinct (|x|, y) over a d-window symmetric in x, the one an unfolded
    grid spanning [-max|x|, max|x|] enumerates."""
    z = np.asarray(z, dtype=complex)
    folded, point_of = np.unique(np.abs(z.real) + 1j * z.imag, return_inverse=True)
    y = folded.imag
    x = folded.real
    out = np.asarray(f(y), dtype=complex)
    h_min = _funnel_threshold(f, _PSI_TOL * 1e-3)
    # a row (c, d) lifts z to height y / ((c x + d)^2 + c^2 y^2) >= h_min only
    # if (c x + d)^2 <= y / h_min - c^2 y^2, sampled over the grid's heights
    y_lo = float(np.min(y))
    c_max = int(math.floor(1.0 / math.sqrt(h_min * y_lo))) + 1
    if c_cap is not None:
        c_max = min(c_max, c_cap)
    ys = np.linspace(y_lo, float(np.max(y)), 16)
    x_hi = float(np.max(x))
    cs, ds = coprime_rows(
        -x_hi, x_hi, [np.max(ys / h_min - c * c * ys * ys) for c in range(1, c_max + 1)]
    )
    chunk = max(1, _PSI_CHUNK // folded.size)
    for i in range(0, len(cs), chunk):
        cc = cs[i : i + chunk, None]
        dd = ds[i : i + chunk, None]
        denom = (cc * x[None, :] + dd) ** 2 + (cc * y[None, :]) ** 2
        heights = y[None, :] / denom
        out = out + np.sum(f(heights.ravel()).reshape(heights.shape), axis=0)
    return out[point_of.reshape(-1)].reshape(z.shape)


def pseudo_eisenstein_function(f: BoundaryFunction, coset_bound: int | None = None) -> "PseudoEisenstein":
    return PseudoEisenstein(f=f, coset_bound=coset_bound)


@dataclass(frozen=True)
class PseudoEisenstein(AutomorphicFunction):
    """Psi f, carrying its boundary datum for spectral-side computations.

    With coset_bound=None the bottom-row enumeration is adaptive (driven by
    the funnel decay of f and the target tolerance); an explicit bound caps
    |c| and emits a TruncationWarning when the estimated tail exceeds 1e-8.
    """

    f: BoundaryFunction = None
    coset_bound: int | None = None

    def __init__(self, f: BoundaryFunction, coset_bound: int | None = None):
        def ev(z):
            z = np.asarray(z, dtype=complex)
            if coset_bound is not None:
                ymin = float(np.min(z.imag))
                probe = 1.0 / (coset_bound**2 * ymin)
                tail = 4.0 * float(np.abs(f(np.asarray([probe]))[0]))
                if tail > 1e-8:
                    warnings.warn(
                        f"pseudo-Eisenstein coset tail estimate {tail:.2e} > 1e-8",
                        TruncationWarning,
                    )
            return _psi_values(f, z, c_cap=coset_bound)

        def ct(y):
            y = np.atleast_1d(np.asarray(y, dtype=float))
            return np.asarray(f(y), dtype=complex) + radon_transform(f, y)

        object.__setattr__(self, "f", f)
        object.__setattr__(self, "coset_bound", coset_bound)
        AutomorphicFunction.__init__(
            self, evaluator=ev, ct=ct, asymptote=f.asymptote(), label=f"Psi({f.label})"
        )


def pseudo_eisenstein(f: BoundaryFunction, z, coset_bound: int | None = None):
    """Point evaluation of the pseudo-Eisenstein series Psi f."""
    return complex(pseudo_eisenstein_function(f, coset_bound)(_as_z(z)))


# ----------------------------------------------------------------------------
# Radon transform


# r-step of the horocycle trapezoid in `_horocycle_F`
_HOROCYCLE_DR = 0.04


def _horocycle_F(f: BoundaryFunction, warr: np.ndarray) -> np.ndarray:
    """F(w) = int_R f(1/(w (1+tau^2))) dtau, stably for all w scales.

    With tau = sinh(r) and f(h) = sqrt(h) G(sqrt(h)) in the model coordinate,
        F(w) = w^(-1/2) int_R G(sech(r) / sqrt(w)) dr,
    a log-localized integrand resolved by a uniform r-trapezoid whose range
    grows only like |log w|."""
    warr = np.atleast_1d(np.asarray(warr, dtype=float))
    r_max = 0.5 * float(np.max(np.abs(np.log(warr)))) + 42.0
    r = np.arange(0.0, r_max, _HOROCYCLE_DR)
    sech = 1.0 / np.cosh(r)
    out = np.empty(warr.shape, dtype=complex)
    chunk = max(1, int(4e6 // len(r)))
    for i in range(0, len(warr), chunk):
        wc = warr[i : i + chunk]
        args = np.multiply.outer(1.0 / np.sqrt(wc), sech)
        vals = f.model_values(args.ravel()).reshape(args.shape)
        # even in r; half weight at r = 0
        out[i : i + chunk] = 2.0 * (vals.sum(axis=1) - 0.5 * vals[:, 0]) * _HOROCYCLE_DR
    return out / np.sqrt(warr)


# most (coset, height) entries `radon_transform` takes on: `verify all` peaks
# at 18,850 cosets on 700 heights (1.3e7)
_RADON_BUDGET = 4e7


def radon_transform(f: BoundaryFunction, y):
    """Rf(y) = constant term of Psi f minus f, via the coprime-row series

        Rf(y) = sum_{c >= 1} phi(c) * y * F(c^2 y),
        F(w)  = int_R f(1/(w (1+tau^2))) dtau.

    The c-sum is truncated once the peak argument 1/(c^2 y) drops below the
    funnel threshold of f, the height under which |f| stays below 1e-12.
    Raises DecayError when the series needs more than `_RADON_BUDGET`
    (coset, height) entries.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    h_min = _funnel_threshold(f, 1e-12)
    c_max = int(math.floor(1.0 / math.sqrt(h_min * float(np.min(y))))) + 1
    if c_max * y.size > _RADON_BUDGET:
        raise DecayError(
            f"Radon transform needs {c_max} cosets at {y.size} heights "
            f"({float(c_max * y.size):.2e} entries > {_RADON_BUDGET:.0e})"
        )
    cs = np.arange(1, c_max + 1, dtype=float)
    phis = _totients(c_max).astype(float)
    W = np.multiply.outer(cs * cs, y)
    # F(w) only samples f on (0, 1/w]; entries with 1/w below the funnel
    # threshold contribute nothing
    live = W <= 1.0 / h_min
    Fv = np.zeros(W.shape, dtype=complex)
    if np.any(live):
        Fv[live] = _horocycle_F(f, W[live])
    out = y * (phis @ Fv)
    return out[0] if scalar else out


def _totients(n: int) -> np.ndarray:
    """Euler's phi(1), ..., phi(n) by a sieve: phi(c) = c prod_{p | c} (1 - 1/p)."""
    phi = np.arange(n + 1)
    for p in range(2, n + 1):
        if phi[p] == p:  # no smaller prime divides p
            phi[p::p] -= phi[p::p] // p
    return phi[1:]


# w where `radon_mellin` switches from the subtracted to the plain integrand
_RADON_W_SPLIT = 1.0


def radon_mellin(f: BoundaryFunction, s):
    """Boundary Mellin transform of Rf, continued to Re s <= 0.

    Termwise Mellin of the coprime-row series gives
        (Rf)^(s) = (1/2) * [zeta(-s)/zeta(1-s)] * B(s),
        B(s) = int_0^inf Fw(w) w^((1-s)/2) dw/w,
        Fw(w) = int_R f(1/(w(1+tau^2))) dtau,
    where the Dirichlet series sum phi(c) c^(s-1) = zeta(-s)/zeta(1-s) and the
    w -> 0 behavior Fw ~ w^(-1/2) * int f(t) t^(-3/2) dt is subtracted for
    convergence on the line.  Valid on Re s <= 0 (and equal to the convergent
    double integral for Re s < -1).
    """
    s = np.asarray(s, dtype=complex)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)

    def Fw(warr):
        return _horocycle_F(f, warr)

    # Phi0 = int_0^inf f(t) t^(-3/2) dt = 2 * int G(x) d*x in the model
    u, uw = trap_grid(40.0, 0.05)
    x_nodes = np.exp(u)
    phi0 = 2.0 * np.sum(f.model_values(x_nodes) * uw)

    # B(s) in v = log w: Gauss-Legendre panels split exactly at the
    # subtraction boundary v = log(_RADON_W_SPLIT)
    v_split = math.log(_RADON_W_SPLIT)
    vlo, wlo_w = panel_gl_nodes(np.linspace(-20.0, v_split, 41), 12)
    vhi, whi_w = panel_gl_nodes(np.linspace(v_split, 20.0, 41), 12)
    wlo = np.exp(vlo)
    whi = np.exp(vhi)
    Flo = Fw(wlo) - phi0 / np.sqrt(wlo)
    Fhi = Fw(whi)

    out = np.empty(s.shape, dtype=complex)
    flat = out.reshape(-1)
    for i, sv in enumerate(s.reshape(-1)):
        if abs(sv) < 1e-9:
            # zeta(-s)/zeta(1-s) ~ s/2 against the -2 phi0 / s pole of B
            flat[i] = -phi0
            continue
        ex_lo = np.exp(0.5 * (1.0 - sv) * vlo)
        ex_hi = np.exp(0.5 * (1.0 - sv) * vhi)
        B = np.sum(Flo * ex_lo * wlo_w) + np.sum(Fhi * ex_hi * whi_w)
        # subtracted piece: int_0^split w^(-s/2) d*w = -(2/s) split^(-s/2)
        B += phi0 * (-2.0 / sv) * _RADON_W_SPLIT ** (-0.5 * sv)
        flat[i] = 0.5 * zeta(-sv) / zeta(1.0 - sv) * B
    return out[0] if scalar else out


# ----------------------------------------------------------------------------
# Eisenstein series


def _eisenstein_pole_guard(s: complex):
    if abs(s - 1.0) < 1e-10:
        raise PoleError("Eisenstein series has its pole at s = 1")


class EisensteinSeries(AutomorphicFunction):
    """E_s(z) via the Fourier expansion in the classical parameter w=(1+s)/2."""

    def __init__(self, s: complex):
        s = complex(s)
        _eisenstein_pole_guard(s)
        w = 0.5 * (1.0 + s)
        cs = -1.0 if abs(s) < 1e-12 else complex(intertwining_c(s))

        def ev(z):
            z = np.asarray(z, dtype=complex)
            return eisenstein_grid_values(s, z)

        def ct(y):
            y = np.asarray(y, dtype=float)
            if abs(s) < 1e-12:
                return np.zeros_like(y, dtype=complex)
            return y**w + cs * y ** (1.0 - w)

        AutomorphicFunction.__init__(
            self, evaluator=ev, ct=ct, asymptote=(s, 1.0 + 0.0j), label=f"E(s={s})"
        )
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "c_value", cs)


def eisenstein_grid_values(s: complex, z: np.ndarray):
    """Vectorized Fourier-expansion evaluation of E_s on an array of points.

    The expansion keeps the terms n <= ceil(48 / (2 pi min y))."""
    s = complex(s)
    _eisenstein_pole_guard(s)
    z = np.asarray(z, dtype=complex)
    if abs(s) < 1e-12:
        return np.zeros_like(z)
    w = 0.5 * (1.0 + s)
    y = z.imag
    x = z.real
    if np.any(y <= 0):
        raise ValueError("points must lie in the upper half-plane")
    cs = complex(intertwining_c(s))
    out = y**w + cs * y ** (1.0 - w)
    ymin = float(np.min(y))
    n_terms = max(1, int(np.ceil(48.0 / (2.0 * np.pi * ymin))))
    pref = 4.0 / complex(xi(1.0 + s))
    nu = w - 0.5
    # grids repeat heights and abscissae: K and cos run once per distinct
    # value (the K rule's node cap depends only on min y, so each value is
    # bitwise the one a call on every point gives)
    heights, height_of = np.unique(y, return_inverse=True)
    xs, x_of = np.unique(x, return_inverse=True)
    height_of = height_of.reshape(y.shape)
    x_of = x_of.reshape(x.shape)
    root = np.sqrt(heights)
    for n in range(1, n_terms + 1):
        an = n ** (w - 0.5) * divisor_sigma(n, 1.0 - 2.0 * w)
        radial = pref * an * root * kbessel(nu, 2.0 * np.pi * n * heights)
        out = out + radial[height_of] * np.cos(2.0 * np.pi * n * xs)[x_of]
    return out


def eisenstein(s: complex, z) -> complex:
    """E_s at one point via the Fourier expansion."""
    return complex(eisenstein_grid_values(s, np.atleast_1d(_as_z(z)))[0])


# rows m of the lattice sum in `lattice_eisenstein` summed directly
_LATTICE_M_MAX = 60


def lattice_eisenstein(s: complex, z) -> complex:
    """Oracle evaluator: full-lattice sum with analytic n- and m-tails.

    E_s(z) = (1/(2 zeta(2w))) sum_{(m,n) != 0} y^w / |m z + n|^(2w), Re w > 1.
    The inner n-sums are summed directly with Euler-Maclaurin tail
    corrections; the m-tail uses the exact integral asymptotics
      sum_n ~ y^w (m y)^(1-2w) sqrt(pi) Gamma(w-1/2)/Gamma(w).
    Independent of the Fourier/Bessel route.
    """
    s = complex(s)
    z = _as_z(z)
    w = 0.5 * (1.0 + s)
    if w.real <= 1.1:
        raise ValueError("lattice oracle requires Re s > 1.2")
    y = z.imag
    x = z.real
    total = 2.0 * y**w * zeta(2.0 * w)  # m = 0

    def n_sum(m: int) -> complex:
        a = m * y
        center = -m * x
        T = max(140.0, 8.0 * abs(a))
        n_lo = int(math.floor(center - T))
        n_hi = int(math.ceil(center + T))
        n = np.arange(n_lo, n_hi + 1)
        t = n + m * x
        vals = (t * t + a * a) ** (-w)
        ssum = np.sum(vals)

        def q(tv):
            return (tv * tv + a * a) ** (-w)

        def qp(tv):
            return -w * 2 * tv * (tv * tv + a * a) ** (-w - 1)

        # asymptotic tail integral: int_T^inf t^(-2w) (1 - w a^2/t^2 + ...) dt
        def tail_integral(T0):
            return (
                T0 ** (1 - 2 * w) / (2 * w - 1)
                - w * a * a * T0 ** (-1 - 2 * w) / (2 * w + 1)
                + 0.5 * w * (w + 1) * a**4 * T0 ** (-3 - 2 * w) / (2 * w + 3)
            )

        t_hi = n_hi + m * x
        t_lo = -(n_lo + m * x)
        tail = (
            tail_integral(t_hi) - 0.5 * q(t_hi) - qp(t_hi) / 12.0
            + tail_integral(t_lo) - 0.5 * q(t_lo) + qp(-t_lo) / 12.0
        )
        return y**w * (ssum + tail)

    for m in range(1, _LATTICE_M_MAX + 1):
        total += 2.0 * n_sum(m)

    # m-tail via the integral asymptotics and Euler-Maclaurin in m
    const = y**w * y ** (1 - 2 * w) * math.sqrt(np.pi) * gamma(w - 0.5) / gamma(w)

    def g(mv):
        return mv ** (1.0 - 2.0 * w)

    def gp(mv):
        return (1.0 - 2.0 * w) * mv ** (-2.0 * w)

    M = float(_LATTICE_M_MAX)
    m_tail = (M + 1) ** (2 - 2 * w) / (2 * w - 2) + 0.5 * g(M + 1) - gp(M + 1) / 12.0
    total += 2.0 * const * m_tail
    return complex(total / (2.0 * zeta(2.0 * w)))


# ----------------------------------------------------------------------------
# Truncation and fundamental-domain quadrature


def truncate(phi, T: float, z):
    """Truncated function: subtract the constant term above height e^(2T)."""
    zz = reduce_to_fundamental_domain(_as_z(z))
    val = phi(zz) if not isinstance(phi, AutomorphicFunction) else complex(phi(zz))
    if zz.imag > math.exp(2.0 * T):
        val = val - complex(constant_term(phi, zz.imag))
    return val


def _fd_grids(Ymax: float, nx: int, ny: int, v_breaks=()):
    """Quadrature nodes/weights for the standard fundamental domain up to Ymax.

    Region 1: {|x|<=1/2, sqrt(1-x^2) <= y <= 1} with x-dependent y-panels.
    Region 2: the strip [−1/2,1/2] x [1, Ymax] in v = log y panels (so an MS
    truncation height can be made a panel edge via v_breaks).
    Weights carry the hyperbolic measure dx dy/y^2.
    """
    xs, wx = gl_nodes(-0.5, 0.5, nx)
    # exactly antisymmetric nodes, so that mirror points share their values
    xs = 0.5 * (xs - xs[::-1])
    n1 = max(12, ny // 4)
    Z1 = []
    W1 = []
    for xv, wxv in zip(xs, wx):
        ylo = math.sqrt(max(1.0 - xv * xv, 0.0))
        yv, wy = gl_nodes(ylo, 1.0, n1)
        Z1.append(xv + 1j * yv)
        W1.append(wxv * wy / yv**2)
    Z1 = np.concatenate(Z1)
    W1 = np.concatenate(W1)

    vmax = math.log(Ymax)
    edges = {0.0, vmax}
    for b in v_breaks:
        if 0.0 < b < vmax:
            edges.add(float(b))
    base = sorted(edges)
    # split into panels of width <= 0.35
    panels = [base[0]]
    for e in base[1:]:
        start = panels[-1]
        width = e - start
        k = max(1, int(math.ceil(width / 0.35)))
        panels.extend(start + width * (i + 1) / k for i in range(k))
    v_nodes, v_w = panel_gl_nodes(np.asarray(panels), max(8, ny // 24))
    yv = np.exp(v_nodes)
    # dy/y^2 = e^{-v} dv
    Z2 = (xs[None, :] + 1j * yv[:, None]).ravel()
    W2 = (np.multiply.outer(v_w * np.exp(-v_nodes), wx)).ravel()
    return Z1, W1, Z2, W2


def fd_integrate(
    integrand,
    Ymax: float = 12.0,
    tail=None,
    nx: int = 200,
    ny: int = 200,
):
    """Integral over the standard fundamental domain with dmu = dx dy / y^2.

    `integrand` maps complex arrays to values.  Above Ymax an analytic tail
    (value or callable of Ymax) must be supplied.
    """
    if tail is None:
        raise TailMissingError("supply an analytic tail above Ymax")
    Z1, W1, Z2, W2 = _fd_grids(Ymax, nx, ny)
    ev = integrand.on_grid if isinstance(integrand, AutomorphicFunction) else integrand
    total = np.sum(ev(Z1) * W1) + np.sum(ev(Z2) * W2)
    total = total + (tail(Ymax) if callable(tail) else tail)
    return complex(total)


# ----------------------------------------------------------------------------
# Maass-Selberg


def maass_selberg(
    s1: complex,
    s2: complex,
    T: float,
    nx: int = 200,
    ny: int = 200,
):
    """Both sides of the truncated-Eisenstein inner-product relation.

    lhs: the regularized [H]-pairing of the two truncated series, computed as
    PAIRING_HALF times the raw fundamental-domain quadrature (see the module
    docstring for the measure dictionary).  Above the truncation height the
    integrand is a product of two exponentially small non-constant parts and
    is dropped.

    rhs: e^{T(s1+s2)}/(s1+s2) + c(s1) e^{T(-s1+s2)}/(-s1+s2)
         + c(s2) e^{T(s1-s2)}/(s1-s2) + c(s1) c(s2) e^{-T(s1+s2)}/(-s1-s2).
    """
    s1 = complex(s1)
    s2 = complex(s2)
    for a, b in ((s1, s2), (s1, -s2)):
        if abs(a + b) < 1e-9:
            raise DegenerateParameterError("Maass-Selberg needs s1 +- s2 != 0")
    for sv in (s1, s2):
        if abs(sv - 1.0) < 1e-9:
            raise PoleError("Eisenstein pole at s = 1")

    Y = math.exp(2.0 * T)
    E1 = EisensteinSeries(s1)
    E2 = EisensteinSeries(s2)

    def integrand(z):
        return E1.on_grid(z) * E2.on_grid(z)

    raw = fd_integrate(integrand, Ymax=Y, tail=0.0, nx=nx, ny=ny)
    lhs = PAIRING_HALF * raw

    c1 = complex(intertwining_c(s1))
    c2 = complex(intertwining_c(s2))
    rhs = (
        np.exp(T * (s1 + s2)) / (s1 + s2)
        + c1 * np.exp(T * (-s1 + s2)) / (-s1 + s2)
        + c2 * np.exp(T * (s1 - s2)) / (s1 - s2)
        + c1 * c2 * np.exp(-T * (s1 + s2)) / (-s1 - s2)
    )
    return complex(lhs), complex(rhs), float(abs(lhs - rhs))


# ----------------------------------------------------------------------------
# Rank-one Plancherel


def _boundary_b(f: BoundaryFunction, F: ChargedMeromorphicFunction):
    """Scalar constant-term transform b(z) = F(z) + c(-z) F(-z) of Psi f."""

    def b(z):
        z = np.asarray(z, dtype=complex)
        return F(z) + intertwining_c(-z) * F(-z)

    return b


# trapezoid rule of the continuous part of `rank_one_plancherel`: t in
# (0, _RANK_ONE_T_MAX] at step _RANK_ONE_DT
_RANK_ONE_T_MAX = 40.0
_RANK_ONE_DT = 5e-3


def rank_one_plancherel(phi1: PseudoEisenstein, phi2: PseudoEisenstein):
    """Spectral decomposition of the regularized pairing of two
    pseudo-Eisenstein series, normalized against the raw fundamental-domain
    quadrature (so it matches fd_integrate(phi1 * phi2) directly).

        value = (1/pi) int_0^inf b1(it) b2(-it) dt
                + (12/pi) F1(1) F2(1)                      [residual line]
                + sum over cusp exponents Re s0 > 0 of 2 r b_other(-s0),

    where b_i is the scalar constant-term transform and r the minus residue
    of the exponent.  Unitary exponents (Re s0 = 0) enter with half weight.
    """
    if not isinstance(phi1, PseudoEisenstein) or not isinstance(phi2, PseudoEisenstein):
        raise TypeError("rank_one_plancherel expects pseudo-Eisenstein inputs")
    f1, f2 = phi1.f, phi2.f
    F1 = f1.transform()
    F2 = f2.transform()
    e1 = f1.cusp_exponents()
    e2 = f2.cusp_exponents()
    for a in e1:
        for b in e2:
            if abs(a + b) < 1e-10:
                raise CriticalExponentError(f"cusp exponents {a} + {b} = 0")
    all_exps = [(a, 1) for a in e1] + [(a, 2) for a in e2]
    for a, _ in all_exps:
        if abs(a - 1.0) < 1e-8:
            raise DegenerateParameterError("cusp exponent collides with the Eisenstein pole")
    for a in e1:
        for b in e2:
            if abs(a - b) < 1e-10 and a.real > 0:
                raise DegenerateParameterError("coinciding exponents s1 = s2 not supported")

    b1 = _boundary_b(f1, F1)
    b2 = _boundary_b(f2, F2)

    dt = _RANK_ONE_DT
    t = np.arange(dt, _RANK_ONE_T_MAX + dt, dt)
    vals = b1(1j * t) * b2(-1j * t)
    # the integrand vanishes at t = 0 since c(0) = -1; trapezoid rule with a
    # zero left endpoint and half weight at t_max
    cont = (np.sum(vals) - 0.5 * vals[-1]) * dt / np.pi
    breakdown = [{"term_kind": "continuous", "location": 0.0j, "charge": "", "value": cont}]
    total = cont

    resid = (12.0 / np.pi) * complex(F1(1.0)) * complex(F2(1.0))
    breakdown.append(
        {"term_kind": "residual", "location": 1.0 + 0.0j, "charge": "", "value": resid}
    )
    total += resid

    for which, (F, bother) in (
        (1, (F1, b2)),
        (2, (F2, b1)),
    ):
        for p in F.poles:
            r = p.minus.get(-1, 0.0 + 0.0j)
            if r == 0:
                continue
            s0 = p.location
            if s0.real < -1e-10:
                continue
            weight = 1.0 if s0.real > 1e-10 else 0.5
            term = 2.0 * weight * r * complex(bother(np.atleast_1d(-s0))[0])
            breakdown.append(
                {"term_kind": f"exponent_J_{which}", "location": s0, "charge": "minus", "value": term}
            )
            total += term
    return complex(total), breakdown


def constant_term_symmetry_check(phi: PseudoEisenstein) -> float:
    """max_t | ct^(it) - c(-it) ct^(-it) | for the constant term of Psi f,
    over 40 points t in [0.05, 10].

    The two Mellin routes are independent of the identity under test: the
    f-part by direct quadrature, the Radon part through the coprime-row
    series and the zeta-ratio continuation.
    """
    f = phi.f
    F = f.transform()
    t = np.linspace(0.05, 10.0, 40)
    ct_plus = F(1j * t) + radon_mellin(f, 1j * t)
    ct_minus = F(-1j * t) + radon_mellin(f, -1j * t)
    dev = np.abs(ct_plus - intertwining_c(-1j * t) * ct_minus)
    return float(np.max(dev))
