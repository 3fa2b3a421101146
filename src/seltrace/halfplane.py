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
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .charged import ChargedMeromorphicFunction
from .special import PoleError, gamma, intertwining_c, kbessel, xi, zeta, divisor_sigma
from .torus import (
    AsymptoticallyFiniteFunction,
    CriticalExponentError,
    _charged_term,
    _side,
    log_gaussian_core,
    mellin,
)
from .util import (
    DecayError,
    SeltraceError,
    exp_sum,
    gauss_legendre,
    gl_nodes,
    panel_gl_nodes,
    ranges,
    steps,
    trap_grid,
)

__all__ = [
    "DegenerateParameterError",
    "BoundaryFunction",
    "AutomorphicFunction",
    "PseudoEisenstein",
    "pseudo_eisenstein_function",
    "constant_term",
    "radon_transform",
    "radon_mellin",
    "eisenstein",
    "EisensteinSeries",
    "lattice_eisenstein",
    "fd_integrate",
    "maass_selberg",
    "rank_one_plancherel",
    "constant_term_symmetry_check",
    "FUNDAMENTAL_DOMAIN_VOLUME",
    "PAIRING_HALF",
    "boundary_from_model",
    "schwartz_boundary",
    "coprime_rows",
    "coset_windows",
    "coset_blocks",
    "fold_mirror",
]

FUNDAMENTAL_DOMAIN_VOLUME = np.pi / 3.0
# dmu = dx dy/y^2 restricts to twice the declared boundary measure x^-2 d*x;
# regularized [H]-pairings in the boundary normalization are half the raw
# fundamental-domain quadrature
PAIRING_HALF = 0.5


class DegenerateParameterError(SeltraceError):
    """Parameter collision (s1 +- s2 = 0, or an Eisenstein-pole hit)."""


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

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        x = np.sqrt(y)
        out = self.model(x)
        out *= x
        return out

    def model_values(self, x):
        return self.model(np.asarray(x, dtype=float))

    def cusp_exponents(self):
        return self.model.infinity_exponents()

    def transform(self) -> ChargedMeromorphicFunction:
        return mellin(self.model)


def boundary_from_model(model: AsymptoticallyFiniteFunction) -> BoundaryFunction:
    if model.zero_exponents():
        raise ValueError("boundary functions must decay rapidly toward the funnel")
    return BoundaryFunction(model=model)


def schwartz_boundary(mu: float = 0.0, sigma: float = 1.0, amp: complex = 1.0) -> BoundaryFunction:
    """Rapid-decay-both-ends boundary function from a log-Gaussian model core."""
    return BoundaryFunction(model=AsymptoticallyFiniteFunction(core=log_gaussian_core(mu, sigma, amp)))


# ----------------------------------------------------------------------------
# Automorphic functions


@dataclass(frozen=True)
class AutomorphicFunction:
    """Gamma-invariant evaluator with its exact constant term.

    evaluator acts on complex arrays of upper-half-plane points; ct is the
    exact constant term as a function of the height y.
    """

    evaluator: Callable
    ct: Callable

    def on_grid(self, z_array):
        return self.evaluator(np.asarray(z_array, dtype=complex))


def constant_term(phi, y):
    """Average over the closed horocycle at height y.

    Uses the exact constant term of an `AutomorphicFunction` (its `ct`); any
    other phi maps a flat array of points to values and is averaged by a
    64-node periodic trapezoid rule in x, spectrally accurate for smooth
    integrands.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    if isinstance(phi, AutomorphicFunction):
        out = np.asarray(phi.ct(y), dtype=complex)
        return out[0] if scalar else out
    xs = (np.arange(64) + 0.5) / 64 - 0.5
    Z = xs[None, :] + 1j * y[:, None]
    out = phi(Z.ravel()).reshape(Z.shape).mean(axis=1)
    return out[0] if scalar else out


# ----------------------------------------------------------------------------
# Pseudo-Eisenstein series


# probe heights of `_psi_threshold`, from 1 down to e^-45
_PROBE_HEIGHTS = np.exp(-np.linspace(0.0, 45.0, 2001))


def _psi_threshold(f: BoundaryFunction, drop: float) -> float:
    """Largest probe height h_c whose left-out cosets carry at most `drop`
    of |f|.

    About 3/(pi h) cosets per point reach an orbit height >= h, so leaving out
    the heights below h_c drops about M = (3/pi) int_0^h_c |f(t)| t^-2 dt: a
    trapezoid rule in log t over the probe heights, plus |f(h_0)|/h_0 for the
    stretch below the lowest one, h_0 = e^-45, as though |f(t)| t^-2 stayed
    there at its value.  The coset sums of `_psi_values` take
    drop = `_COSET_DROP` and add back the mean of what they leave out
    (`_coset_mean`); `radon_transform` takes drop = `_PSI_DROP` and adds
    nothing.  Raises DecayError when the stretch below h_0 alone passes the
    bound: the funnel decays too slowly for any coset truncation."""
    h = _PROBE_HEIGHTS[::-1]
    g = np.abs(f(h)) / h
    steps = 0.5 * (g[1:] + g[:-1]) * np.diff(np.log(h))
    mass = (3.0 / math.pi) * (g[0] + np.concatenate(([0.0], np.cumsum(steps))))
    if not mass[0] <= drop:
        raise DecayError(
            f"|f| = {abs(g[0] * h[0]):.2e} at the lowest probe height {h[0]:.2e} leaves "
            f"{mass[0]:.2e} > {drop:.0e} below it: the funnel decays too slowly"
        )
    return float(h[np.count_nonzero(mass <= drop) - 1])


# Gauss-Legendre panels (16 nodes each) in log t of `_coset_mean`, between
# the lowest probe height and the cut
_MEAN_PANELS = 90


def _coset_mean(f: BoundaryFunction, h_c: float):
    """m = (3/pi) int_0^h_c f(t) t^-2 dt: on average, what the cosets below
    orbit height h_c add to a coset sum.

    This is the signed form of the mass M that `_psi_threshold` bounds with
    |f|.  The integral runs on `_MEAN_PANELS` Gauss-Legendre panels in log t
    from h_0 = e^-45 to h_c, plus f(h_0)/h_0 for the stretch below h_0."""
    h_0 = float(_PROBE_HEIGHTS[-1])
    v, w = panel_gl_nodes(np.linspace(math.log(h_0), math.log(h_c), _MEAN_PANELS + 1), 16)
    t = np.exp(v)
    vals = f(np.append(t, h_0))
    return (3.0 / math.pi) * (np.sum(vals[:-1] / t * w) + vals[-1] / h_0)


def _c_max(h_c: float, y: float) -> int:
    """Bound on the c >= 1 whose rows lift height y to h_c or above.

    A row (c, d) lifts z to height y / ((c x + d)^2 + c^2 y^2), which is at
    least h_c only if c^2 y <= 1 / h_c."""
    return int(math.floor(1.0 / math.sqrt(h_c * y))) + 1


def _row_windows(x_lo: float, x_hi: float, radius2):
    """The c with radius2[c - 1] > 0 and the integer window [d_lo, d_hi] of
    each, which covers every d with (c x + d)^2 <= radius2[c - 1] for some x
    in [x_lo, x_hi]."""
    r2 = np.asarray(radius2, dtype=float)
    c = np.nonzero(r2 > 0)[0] + 1
    B = np.sqrt(r2[c - 1])
    return c, np.floor(-c * x_hi - B).astype(int), np.ceil(-c * x_lo + B).astype(int)


def coprime_rows(x_lo: float, x_hi: float, radius2) -> tuple[np.ndarray, np.ndarray]:
    """Coprime bottom rows (c, d) of PSL2(Z), c >= 1, in order of c then d.

    For c = 1, 2, ..., len(radius2) the d run over the integer window that
    covers every d with (c x + d)^2 <= radius2[c - 1] for some x in
    [x_lo, x_hi], coprime ones only; a c with radius2 <= 0 has no rows."""
    cs, ds = [], []
    for c, d_lo, d_hi in zip(*_row_windows(x_lo, x_hi, radius2)):
        d = np.arange(d_lo, d_hi + 1)
        d = d[np.gcd(c, np.abs(d)) == 1]
        cs.append(np.full(d.size, c))
        ds.append(d)
    if not cs:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    return np.concatenate(cs), np.concatenate(ds)


def fold_mirror(z) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (|x|, y) of the points z, as complex |x| + iy sorted by
    height and then by |x|, and the index of each point of z among them, in
    the shape of z.

    The reflection z -> -conj(z) normalizes PSL2(Z), so a coset sum that it
    leaves unchanged runs once per folded point, and `values[point_of]`
    unfolds it."""
    z = np.asarray(z, dtype=complex)
    swapped, point_of = np.unique(z.imag + 1j * np.abs(z.real), return_inverse=True)
    return swapped.imag + 1j * swapped.real, point_of.reshape(z.shape)


# folded points per height band of `coset_windows`; each band sizes its own
# row windows
_COSET_BAND = 256


def coset_windows(x: np.ndarray, y: np.ndarray, radius2: Callable) -> list:
    """The row window of each band of a coset sum: (band, x_lo, x_hi, r2).

    The points (x, y), heights ascending, are cut into bands of
    `_COSET_BAND`.  A band's rows are those `coprime_rows` enumerates for
    its [min x, max x] and r2 = radius2(y_lo, y_hi), the sum's radius^2 rule
    on the band's height range: for c = 1, ..., len(r2), a bound on
    (c x + d)^2 over the live rows of its points."""
    windows = []
    for i in range(0, y.size, _COSET_BAND):
        b = slice(i, min(i + _COSET_BAND, y.size))
        r2 = radius2(float(y[b.start]), float(y[b.stop - 1]))
        windows.append((b, float(np.min(x[b])), float(np.max(x[b])), r2))
    return windows


def coset_blocks(windows: list):
    """(band, c, d) for the rows of each window of `coset_windows`, band by
    band in order of c then d, in the blocks of `util.steps`: at most
    `util._BLOCK` (row, point) entries (or one row, if that alone passes
    it)."""
    for b, *window in windows:
        cs, ds = coprime_rows(*window)
        for g in steps(np.full(cs.size, b.stop - b.start)):
            yield b, cs[g], ds[g]


def _funnel_radius2(h_c: float, y_lo: float, y_hi: float) -> np.ndarray:
    """Radius^2 rule of the pseudo-Eisenstein coset sums on heights
    [y_lo, y_hi]: a row lifts z to h_c or above only if
    (c x + d)^2 <= y / h_c - c^2 y^2, a concave function of y that peaks at
    1 / (2 h_c c^2), for c up to `_c_max(h_c, y_lo)`."""
    c = np.arange(1, _c_max(h_c, y_lo) + 1)
    yc = np.clip(1.0 / (2.0 * h_c * c * c), y_lo, y_hi)
    return yc / h_c - (c * yc) ** 2


# pointwise error bound of a pseudo-Eisenstein value, and the mass of |f|
# `radon_transform` may leave out below its lowest orbit height (see
# `_psi_threshold`)
_PSI_DROP = 1e-12
# mass of |f| the coset sums of `_psi_values` may leave out: they add back
# its mean (`_coset_mean`), and the cosets' fluctuation about it measured
# 0.29 of the mass at 3e-12 on the bench grids, inside `_PSI_DROP`
_COSET_DROP = 3.0 * _PSI_DROP
# most (row, point) entries of the band windows `_psi_values` takes on in one
# call: at the coset cut `verify all` peaks at 6.3e6 (c <= 72) and the
# torus-automorphic bench rounds at 2.7e7 (c <= 85, round 0 of seeds
# 9001-9010), so this leaves a margin of 3.7
_PSI_BUDGET = 1e8


def _psi_values(f: BoundaryFunction, z: np.ndarray) -> np.ndarray:
    """Sum of f over the heights of the Gamma_inf \\ Gamma orbit of z.

    The sum takes exactly the cosets whose orbit height is at least h_c,
    the cut of `_psi_threshold` at `_COSET_DROP`, and adds to every point the
    mean m of the cosets below it (`_coset_mean`), so what it misses is their
    fluctuation about m.  A point's value does not depend on the points
    evaluated with it.  The row (c, -d) lifts -conj(z) to the height (c, d)
    lifts z to, so the sum runs once per distinct (|x|, y) (`fold_mirror`),
    over the row blocks of `coset_blocks` under the radius^2 rule
    `_funnel_radius2`; f is evaluated only on the live entries of a block, in
    its own dtype (real for a real core), and the block sums are added into
    the complex values.

    Raises DecayError, before any row is built, when the band windows hold
    more than `_PSI_BUDGET` (row, point) entries."""
    folded, point_of = fold_mirror(z)
    x, y = folded.real, folded.imag
    h_c = _psi_threshold(f, _COSET_DROP)
    # a band's c_max comes from its lowest height, and every c < c_max - 1
    # has a nonempty window, so this many entries are certain before the
    # windows are sized
    c_maxes = [_c_max(h_c, y_lo) for y_lo in y[::_COSET_BAND]]
    sizes = np.diff([*range(0, y.size, _COSET_BAND), y.size])
    c_max = max(c_maxes, default=0)
    _check_psi_budget(sum((c - 2) * n for c, n in zip(c_maxes, sizes)), c_max)
    windows = coset_windows(x, y, partial(_funnel_radius2, h_c))
    entries = 0.0
    for b, *window in windows:
        _, d_lo, d_hi = _row_windows(*window)
        entries += float(np.sum(d_hi - d_lo + 1)) * (b.stop - b.start)
    _check_psi_budget(entries, c_max)
    out = np.asarray(f(y), dtype=complex)
    out += _coset_mean(f, h_c)
    for b, c, d in coset_blocks(windows):
        # a block is (point, row), so that each point's live entries are one
        # run of the values f takes on them
        yb = y[b, None]
        heights = x[b, None] * c
        heights += d
        heights *= heights
        heights += yb * yb * (c * c)
        np.divide(yb, heights, out=heights)
        live = heights >= h_c
        counts = np.count_nonzero(live, axis=1)
        has = counts > 0
        starts = (np.cumsum(counts) - counts)[has]
        out[b][has] += np.add.reduceat(f(heights[live]), starts)
    return out[point_of]


def _check_psi_budget(entries: float, c_max: int):
    if entries > _PSI_BUDGET:
        raise DecayError(
            f"pseudo-Eisenstein sum needs {entries:.2e} (row, point) entries over "
            f"{c_max} values of c (> {_PSI_BUDGET:.0e}): the funnel decays too slowly"
        )


def pseudo_eisenstein_function(f: BoundaryFunction) -> "PseudoEisenstein":
    return PseudoEisenstein(f=f)


@dataclass(frozen=True, init=False)
class PseudoEisenstein(AutomorphicFunction):
    """Psi f, carrying its boundary datum for spectral-side computations.

    Its values sum f over every coset whose orbit height is at least the
    cut h_c at which the left-out cosets carry about `_COSET_DROP` of |f|,
    plus the mean of those left out, so each value is within about
    `_PSI_DROP` of the full sum (see `_psi_threshold`, `_coset_mean` and
    `_psi_values`).  Its constant term is f plus `radon_transform`, which
    takes its own cut.
    """

    f: BoundaryFunction

    def __init__(self, f: BoundaryFunction):
        def ev(z):
            return _psi_values(f, z)

        def ct(y):
            y = np.atleast_1d(np.asarray(y, dtype=float))
            return np.asarray(f(y), dtype=complex) + radon_transform(f, y)

        object.__setattr__(self, "f", f)
        AutomorphicFunction.__init__(self, evaluator=ev, ct=ct)


# ----------------------------------------------------------------------------
# Radon transform


# r-step of the horocycle trapezoid in `_horocycle_F`
_HOROCYCLE_DR = 0.04
# model values below this share of the sampled peak are left out of F(w)
_HOROCYCLE_FLOOR = 1e-17


def _model_window(f: BoundaryFunction, log_x_lo: float, log_x_hi: float):
    """(x_lo, x_hi) outside which |G| stays below _HOROCYCLE_FLOOR of its peak
    on [e^log_x_lo, e^log_x_hi], from samples a step of at most
    _HOROCYCLE_DR apart and with one step of margin; an end whose last sample
    is still live is left open (0 or inf).  None when G vanishes there."""
    n = int(math.ceil((log_x_hi - log_x_lo) / _HOROCYCLE_DR)) + 1
    g = np.linspace(log_x_lo, log_x_hi, max(n, 2))
    mag = np.abs(f.model_values(np.exp(g)))
    peak = float(np.max(mag))
    if not peak > 0.0:
        return None
    live = np.flatnonzero(mag >= _HOROCYCLE_FLOOR * peak)
    i0, i1 = int(live[0]) - 1, int(live[-1]) + 1
    x_lo = 0.0 if i0 < 0 else math.exp(g[i0])
    x_hi = math.inf if i1 >= g.size else math.exp(g[i1])
    return x_lo, x_hi


def _horocycle_F(f: BoundaryFunction, warr: np.ndarray) -> np.ndarray:
    """F(w) = int_R f(1/(w (1+tau^2))) dtau, stably for all w scales.

    With tau = sinh(r) and f(h) = sqrt(h) G(sqrt(h)) in the model coordinate,
        F(w) = w^(-1/2) int_R G(sech(r) / sqrt(w)) dr,
    a log-localized integrand resolved by a uniform r-trapezoid whose range
    grows only like |log w|.  Each w takes only the r-nodes whose argument
    lies in the window where |G| is above _HOROCYCLE_FLOOR of its peak.  The
    (w, r) entries are evaluated in the blocks of `util.steps`; a block holds
    whole w's, so its size changes no value."""
    warr = np.atleast_1d(np.asarray(warr, dtype=float))
    r_max = 0.5 * float(np.max(np.abs(np.log(warr)))) + 42.0
    r = np.arange(0.0, r_max, _HOROCYCLE_DR)
    sech = 1.0 / np.cosh(r)
    inv_sqrt_w = 1.0 / np.sqrt(warr)
    out = np.zeros(warr.shape, dtype=complex)
    window = _model_window(
        f, math.log(sech[-1] * float(np.min(inv_sqrt_w))), math.log(float(np.max(inv_sqrt_w)))
    )
    if window is None:
        return out
    # the arguments sech(r)/sqrt(w) fall with r: node range [a, b) per w
    x_lo, x_hi = window
    a = np.searchsorted(-sech, -x_hi / inv_sqrt_w, side="left")
    b = np.searchsorted(-sech, -x_lo / inv_sqrt_w, side="right")
    counts = np.maximum(b - a, 0)
    for g in steps(counts):
        n = counts[g]
        owner, idx = ranges(a[g], n)
        vals = f.model_values(inv_sqrt_w[g][owner] * sech[idx])
        starts = np.cumsum(n) - n
        full = n > 0
        sums = np.zeros(n.size, dtype=complex)
        sums[full] = np.add.reduceat(vals, starts[full])
        # even in r; half weight at r = 0
        first = full & (a[g] == 0)
        sums[first] -= 0.5 * vals[starts[first]]
        out[g] = 2.0 * sums * _HOROCYCLE_DR
    return out / np.sqrt(warr)


# most (coset, height) entries `radon_transform` takes on, counted as the sum
# of each height's `_c_max`: `verify all` peaks at 338,938 on 398 heights
_RADON_BUDGET = 4e7


def radon_transform(f: BoundaryFunction, y):
    """Rf(y) = constant term of Psi f minus f, via the coprime-row series

        Rf(y) = sum_{c >= 1} phi(c) * y * F(c^2 y),
        F(w)  = int_R f(1/(w (1+tau^2))) dtau.

    Rf(y) is the x-average of the c >= 1 cosets of `_psi_values`.  The c-sum
    takes exactly the terms whose peak argument 1/(c^2 y) is at least its own
    cut h_min, `_psi_threshold` at `_PSI_DROP`: the cosets left out carry
    about (3/pi) int_0^h_min |f(t)| t^-2 dt, at most `_PSI_DROP`.  It adds
    no mean for them, as the coset sums do: its cut drops whole (c, height)
    terms, and `_coset_mean` does not describe what those carry.  Raises
    DecayError, before any F(w) is built, when the series needs more than
    `_RADON_BUDGET` (coset, height) entries.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    h_min = _psi_threshold(f, _PSI_DROP)
    c_maxes = np.array([_c_max(h_min, v) for v in y], dtype=int)
    entries = int(c_maxes.sum())
    if entries > _RADON_BUDGET:
        raise DecayError(
            f"Radon transform needs {entries} (coset, height) entries at "
            f"{y.size} heights (> {_RADON_BUDGET:.0e})"
        )
    # F(w) only samples f on (0, 1/w], so only the (c, height) pairs with
    # 1/w = 1/(c^2 y) at least h_min are built; the others are the cosets
    # left out
    height, c = ranges(np.ones(y.size, dtype=int), c_maxes)
    w = (c * c) * y[height]
    live = w <= 1.0 / h_min
    height = height[live]
    terms = np.zeros(height.size, dtype=complex)
    if height.size:
        terms = _totients(int(c_maxes.max()))[c[live] - 1] * _horocycle_F(f, w[live])
    sums = np.bincount(height, terms.real, y.size) + 1j * np.bincount(height, terms.imag, y.size)
    out = y * sums
    return out[0] if scalar else out


def _totients(n: int) -> np.ndarray:
    """Euler's phi(1), ..., phi(n) by a sieve: phi(c) = c prod_{p | c} (1 - 1/p)."""
    phi = np.arange(n + 1)
    for p in range(2, n + 1):
        if phi[p] == p:  # no smaller prime divides p
            phi[p::p] -= phi[p::p] // p
    return phi[1:]


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

    # Phi0 = int_0^inf f(t) t^(-3/2) dt = 2 * int G(x) d*x in the model
    u, uw = trap_grid(40.0, 0.05)
    x_nodes = np.exp(u)
    phi0 = 2.0 * np.sum(f.model_values(x_nodes) * uw)

    # B(s) in v = log w: Gauss-Legendre panels split exactly at v = 0, where
    # the integrand switches from the subtracted (w < 1) to the plain one
    vlo, wlo_w = panel_gl_nodes(np.linspace(-20.0, 0.0, 41), 12)
    vhi, whi_w = panel_gl_nodes(np.linspace(0.0, 20.0, 41), 12)
    wlo = np.exp(vlo)
    Flo = _horocycle_F(f, wlo) - phi0 / np.sqrt(wlo)
    Fhi = _horocycle_F(f, np.exp(vhi))
    # w^((1-s)/2) = exp(-((s-1)/2) v)
    v = np.concatenate([vlo, vhi])
    B = exp_sum(0.5 * (s - 1.0), v, np.concatenate([Flo * wlo_w, Fhi * whi_w]))

    # zeta(-s)/zeta(1-s) ~ s/2 against the -2 phi0 / s pole of B
    out = np.full(s.shape, -phi0, dtype=complex)
    off = np.abs(s) >= 1e-9
    so = s[off]
    # subtracted piece: int_0^1 w^(-s/2) d*w = -2/s
    B_off = B[off] + phi0 * (-2.0 / so)
    out[off] = 0.5 * zeta(-so) / zeta(1.0 - so) * B_off
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
            return eisenstein_grid_values(s, z)

        def ct(y):
            y = np.asarray(y, dtype=float)
            if abs(s) < 1e-12:
                return np.zeros_like(y, dtype=complex)
            return y**w + cs * y ** (1.0 - w)

        AutomorphicFunction.__init__(self, evaluator=ev, ct=ct)


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
    return complex(eisenstein_grid_values(s, np.atleast_1d(complex(z)))[0])


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
    z = complex(z)
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
# Fundamental-domain quadrature


def _fd_grids(Ymax: float, nx: int, ny: int, mx: int):
    """Quadrature nodes/weights for the standard fundamental domain up to Ymax.

    Region 1: {|x|<=1/2, sqrt(1-x^2) <= y <= 1}, an nx-node Gauss-Legendre
    x-rule with max(12, ny // 4) Gauss-Legendre heights per abscissa.
    Region 2: the strip [−1/2,1/2] x [1, Ymax] in equal v = log y panels of
    width at most 0.35 with 8 Gauss-Legendre nodes each, with the mx-point
    midpoint rule in x: its integrands are 1-periodic and analytic in x, so
    the rule converges like e^(−2 pi mx y).
    Weights carry the hyperbolic measure dx dy/y^2.  The abscissae of both
    regions are exactly antisymmetric, so that mirror points share their
    values.
    """
    xs, wx = gl_nodes(-0.5, 0.5, nx)
    xs = 0.5 * (xs - xs[::-1])
    # each abscissa's gl_nodes(ylo, 1, max(12, ny // 4)), in one broadcast
    # and bit for bit
    y, w = gauss_legendre(max(12, ny // 4))
    ylo = np.sqrt(np.maximum(1.0 - xs * xs, 0.0))[:, None]
    half = 0.5 * (1.0 - ylo)
    yv = ylo + half * (y + 1.0)
    Z1 = (xs[:, None] + 1j * yv).ravel()
    W1 = (wx[:, None] * (half * w) / yv**2).ravel()

    vmax = math.log(Ymax)
    k = max(1, int(math.ceil(vmax / 0.35)))
    v_nodes, v_w = panel_gl_nodes(vmax * np.arange(k + 1) / k, 8)
    yv = np.exp(v_nodes)
    xm = (np.arange(mx) + 0.5) / mx - 0.5
    xm = 0.5 * (xm - xm[::-1])
    # dy/y^2 = e^{-v} dv
    Z2 = (xm[None, :] + 1j * yv[:, None]).ravel()
    W2 = np.repeat(v_w * np.exp(-v_nodes) / mx, mx)
    return Z1, W1, Z2, W2


# abscissae per strip height of `fd_integrate`: Psi f1 Psi f2 and products of
# two Eisenstein series on y >= 1 (Fourier modes below 16) are integrated
# exactly, to rounding, by 16 midpoints; see README for the measurement
_FD_STRIP_MX = 16
# the base region's rule of every fundamental-domain integral in the library,
# as both nx and ny of `_fd_grids`: 64 abscissae with 16 heights each.  The
# Maass-Selberg, rank-one and kernel-fit integrals read the same here, to
# rounding, as at 140, 160 or 200; see README for the measurement
_FD_BASE = 64


def fd_integrate(integrand, Ymax: float, tail, nx: int, ny: int):
    """Integral over the standard fundamental domain with dmu = dx dy / y^2.

    `integrand` maps complex arrays to values.  nx and ny size the base
    region's rule (`_fd_grids`; the library passes `_FD_BASE` for both); the
    strip y >= 1 takes `_FD_STRIP_MX` midpoints per height.  Above Ymax the
    analytic tail (value or callable of Ymax) is added.
    """
    Z1, W1, Z2, W2 = _fd_grids(Ymax, nx, ny, _FD_STRIP_MX)
    total = np.sum(integrand(Z1) * W1) + np.sum(integrand(Z2) * W2)
    total = total + (tail(Ymax) if callable(tail) else tail)
    return complex(total)


# ----------------------------------------------------------------------------
# Maass-Selberg


def maass_selberg(s1: complex, s2: complex, T: float):
    """Both sides of the truncated-Eisenstein inner-product relation.

    lhs: the regularized [H]-pairing of the two truncated series, computed as
    PAIRING_HALF times the raw fundamental-domain quadrature on the
    `_FD_BASE` rule (see the module docstring for the measure dictionary).
    Above the truncation height the integrand is a product of two
    exponentially small non-constant parts and is dropped.

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

    raw = fd_integrate(integrand, Ymax=Y, tail=0.0, nx=_FD_BASE, ny=_FD_BASE)
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
    for a in e1 + e2:
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
            s0 = p.location
            # the minus residue, whole right of Re s = 0 and half on it
            r = _charged_term(_side(s0, 0.0), 0.0, p.minus.get(-1, 0.0 + 0.0j))
            if r == 0:
                continue
            term = 2.0 * r * complex(bother(np.atleast_1d(-s0))[0])
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
    s = np.concatenate([1j * t, -1j * t])
    ct_plus, ct_minus = np.split(F(s) + radon_mellin(f, s), 2)
    dev = np.abs(ct_plus - intertwining_c(-1j * t) * ct_minus)
    return float(np.max(dev))
