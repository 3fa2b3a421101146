"""Two-term Laurent data of the non-invariant trace formula, level 1,
spherical.

Transform dictionary (fixed here, used consistently):
  * h(s): even entire multiplier by which the test measure acts on the
    spherical line; rapid decay on verticals.
  * g(u): plain Fourier partner of t -> h(it):  h(it) = int g(u) e^{iut} du.
  * classical abscissa function g_cl(rho) = g(rho/2) / 2 (the boundary
    coordinate is the square root of the height).
  * horocycle function Q(v) = int_R k(v + tau^2) dtau = g_cl(rho) with
    v = 4 sinh^2(rho/2); Abel inversion recovers the point-pair kernel
    k(u) = -(1/pi) int_0^inf Q'(u + w) w^(-1/2) dw.
  * point-pair variable u(z, w) = |z - w|^2 / (Im z Im w).

Normalization anchors (each cross-checked in the test suite):
  spectral first Laurent coefficient  -(1/2 pi) int h1(it) h2(it) dt
  identity term                        Vol(F) k(0) = (pi/3) k(0)
  residual line                        h1(1) h2(1)  (= pi int_0^inf k du)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .special import c_log_derivative, intertwining_c, zeta
from .charged import ChargedLaurent, ChargedMeromorphicFunction
from .halfplane import FUNDAMENTAL_DOMAIN_VOLUME, _fd_grids, coprime_rows
from .torus import TwoTermLaurent
from .util import DecayError, SeltraceError, exp_sum, gl_nodes, panel_gl_nodes, trap_grid

__all__ = [
    "FitError",
    "EllipticInputError",
    "SphericalTestFunction",
    "MEASURE_LEDGER",
    "spherical_from_h",
    "gaussian_test_function",
    "kernel_constant_terms",
    "two_term_laurent",
    "two_term_laurent_kernel",
    "tf_minus1_spectral",
    "weight_v",
    "weighted_orbital_integral",
    "unit_hecke_global_factor",
    "tate_zeta_term",
    "identity_term",
    "tf_minus1_geometric",
    "spectral_side",
    "convolve_test_functions",
]


class FitError(SeltraceError):
    """Truncation-fit residuals failed to decay."""


class EllipticInputError(SeltraceError):
    """A non-hyperbolic class was passed to a hyperbolic orbital integral."""


# ----------------------------------------------------------------------------
# Spherical transform chain


@dataclass(frozen=True)
class SphericalTestFunction:
    """Compatible triple (h, g, k), built from h.

    `k` integrates the Abel inversion by quadrature on each call (accurate,
    for orbital integrals); `k_fast` interpolates a dense table, built on its
    first call (for the large modular-group sums).  `t_max` is the cut of the spectral
    line that the triple was built on."""

    h: Callable
    g: Callable
    k: Callable
    k_fast: Callable = None
    t_max: float = 26.0


def _fourier_g(h: Callable, t_max: float, dt: float):
    t, w = trap_grid(t_max, dt)
    hw = np.asarray(h(1j * t), dtype=complex) * w

    def g(u):
        return exp_sum(1j * np.asarray(u, dtype=float), t, hw) / (2.0 * np.pi)

    return g


def _g_cl_derivative(h: Callable, t_max: float, dt: float):
    t, w = trap_grid(t_max, dt)
    kern = np.asarray(h(1j * t), dtype=complex) * (-1j * t * 0.5) * w

    def gclp(rho):
        return exp_sum(0.5j * np.asarray(rho, dtype=float), t, kern) / (4.0 * np.pi)

    return gclp


# spherical_from_h's quadrature budget: the t-steps of the Fourier rules for
# g and g_cl', the rho-range of the g_cl' table, and the number of k_fast nodes
_G_DT = 0.01
_G_CL_DT = 0.02
_RHO_MAX = 26.0
_N_K_GRID = 6000
# (row, node) entries of Q' that k evaluates at a time
_ABEL_CHUNK = 250_000


def spherical_from_h(h: Callable, t_max: float = 26.0) -> SphericalTestFunction:
    """Build (h, g, k) from the spectral multiplier h, cut at |t| <= t_max.

    g comes from Fourier quadrature of h on the line; k from the Abel
    inversion k(u) = -(2/pi) int_0^inf Q'(u + xi^2) d xi, where
    Q'(v) = g_cl'(rho)/(2 sinh rho) at v = 4 sinh^2(rho/2).  g_cl' is
    tabulated densely, so both the per-call quadrature k and the
    table-interpolated k_fast are cheap.  The g_cl' table is built on the
    first call of k or k_fast, and the k_fast table on the first call of
    k_fast: a triple used only through h and g never builds either.
    """
    probe = np.abs(np.asarray(h(1j * np.array([0.0, 0.5 * t_max, t_max]))))
    if probe[-1] > 1e-9 * (1.0 + probe[0]):
        raise DecayError("h must decay rapidly on the spectral line")
    g = _fourier_g(h, t_max, _G_DT)

    @lru_cache(maxsize=1)
    def abel():
        """(Q', v_cut, xi nodes, xi weights) of the Abel inversion."""
        # dense g_cl' table; Q'(v) after that costs one interpolation
        rho_tab = np.linspace(0.0, _RHO_MAX, 52001)
        gclp_tab = np.real(_g_cl_derivative(h, t_max, _G_CL_DT)(rho_tab))
        eps = rho_tab[1]
        qp_origin = gclp_tab[1] / (2.0 * eps)
        peak = float(np.max(np.abs(gclp_tab)))
        supp = np.nonzero(np.abs(gclp_tab) > 1e-17 * peak)[0]
        rho_cut = float(rho_tab[supp[-1]]) if supp.size else _RHO_MAX
        v_cut = 4.0 * math.sinh(0.5 * rho_cut) ** 2

        def Qp(v):
            v = np.asarray(v, dtype=float)
            rho = 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(v, 0.0)))
            gp = np.interp(rho, rho_tab, gclp_tab, right=0.0)
            out = np.empty(v.shape, dtype=float)
            small = rho < 1e-6
            np.divide(gp, 2.0 * np.sinh(np.where(small, 1.0, rho)), out=out)
            out[small] = qp_origin
            return out

        # Abel inversion in xi = e^l so the quadrature tracks the support of Q'
        l_nodes, l_w = panel_gl_nodes(np.linspace(-16.0, 0.5 * math.log(v_cut) + 0.5, 60), 10)
        xi_nodes = np.exp(l_nodes)
        return Qp, v_cut, xi_nodes, xi_nodes * l_w

    def k(u):
        Qp, v_cut, xi_nodes, xi_weights = abel()
        u = np.asarray(u, dtype=float)
        shape = u.shape
        uf = np.atleast_1d(u).ravel()
        # k vanishes from v_cut on, so Q' is evaluated only on the rows with
        # u < v_cut, a block of rows at a time; the matrix keeps every row,
        # because the BLAS product blocks rows by position and a shorter
        # matrix rounds some rows differently
        live = np.nonzero(uf < v_cut)[0]
        vals = np.zeros((uf.size, xi_nodes.size))
        step = max(1, _ABEL_CHUNK // xi_nodes.size)
        for i in range(0, live.size, step):
            rows = live[i : i + step]
            vals[rows] = Qp(uf[rows, None] + xi_nodes[None, :] ** 2)
        out = -(2.0 / np.pi) * (vals @ xi_weights)
        out[uf >= v_cut] = 0.0
        return out.reshape(shape) if shape else float(out[0])

    @lru_cache(maxsize=1)
    def k_table():
        u_tab = np.concatenate([[0.0], np.geomspace(1e-4, abel()[1] + 1.0, _N_K_GRID - 1)])
        return u_tab, np.asarray(k(u_tab))

    def k_fast(u):
        u_tab, k_tab = k_table()
        u = np.asarray(u, dtype=float)
        out = np.interp(u, u_tab, k_tab, right=0.0)
        return out if u.shape else float(out)

    return SphericalTestFunction(h=h, g=g, k=k, k_fast=k_fast, t_max=t_max)


@lru_cache(maxsize=16)
def gaussian_test_function(width: float = 1.0) -> SphericalTestFunction:
    """h(s) = exp(width^2 s^2 / 4); on the line h(it) = exp(-(width t)^2/4).

    Triples are immutable, so each width is built once (memoized)."""

    def h(s):
        return np.exp(0.25 * (width**2) * np.asarray(s, dtype=complex) ** 2)

    return spherical_from_h(h, t_max=max(26.0, 12.0 / width))


@lru_cache(maxsize=16)
def convolve_test_functions(T1: SphericalTestFunction, T2: SphericalTestFunction) -> SphericalTestFunction:
    """Triple of the convolution: the multiplier is the product h1 h2.

    Memoized on the pair, so the callers that each need T1 * T2 share one
    build."""

    def h(s):
        return T1.h(s) * T2.h(s)

    return spherical_from_h(h, t_max=max(T1.t_max, T2.t_max))


# ----------------------------------------------------------------------------
# Kernel constant terms


def kernel_constant_terms(T: SphericalTestFunction):
    """Scalar constant-term pair of the automorphic kernel.

    diag(s) = h(s) (entire, rapid decay); adiag(s) = c(-s) h(s), carrying the
    scattering pole at s = -1 with plus charge and residue -(6/pi) h(1).
    """
    h = T.h

    def diag_ev(s):
        return np.asarray(h(np.asarray(s, dtype=complex)))

    diag = ChargedMeromorphicFunction(
        evaluator=diag_ev, poles=(), strip=(-3.0, 3.0), decay_class=("rapid", 0), label="diag"
    )

    def adiag_ev(s):
        s = np.asarray(s, dtype=complex)
        return intertwining_c(-s) * np.asarray(h(s))

    res = -(6.0 / np.pi) * complex(h(np.array([1.0 + 0.0j]))[0])
    adiag = ChargedMeromorphicFunction(
        evaluator=adiag_ev,
        poles=(ChargedLaurent(location=-1.0 + 0.0j, plus={-1: res}),),
        strip=(-1.4, 0.45),
        decay_class=("rapid", 0),
        label="adiag",
    )
    return diag, adiag


# ----------------------------------------------------------------------------
# Spectral first coefficient


def tf_minus1_spectral(T1, T2, sigma: float = 0.0) -> complex:
    """-(1/2 pi i) int over Re s = sigma of h1(s) h2(-s) ds, by the trapezoid
    rule on |t| <= 26 at step 0.01."""
    h1 = T1.h if isinstance(T1, SphericalTestFunction) else T1
    h2 = T2.h if isinstance(T2, SphericalTestFunction) else T2
    t, w = trap_grid(26.0, 0.01)
    s = sigma + 1j * t
    vals = np.asarray(h1(s)) * np.asarray(h2(-s))
    return complex(-np.sum(vals * w) / (2.0 * np.pi))


# ----------------------------------------------------------------------------
# Truncation fits


def two_term_laurent(F_model, phi_model) -> TwoTermLaurent:
    """Model-space truncation fit: I(T) = int_{x <= e^T} F phi d*x.

    Fits I(T) = -a_{-1} T + a_0 on the tail of the grid T = 2, 2.5, ..., 6
    and verifies that the fit residuals decay along the grid (they are
    exponentially small in T for asymptotically constant inputs).  Each
    truncated integral runs from u = log x = -40 on Gauss-Legendre panels with
    edges pinned at u = 0 (possible sharp-carrier jump) and at the truncation
    height itself.
    """
    T_grid = np.arange(2.0, 6.01, 0.5)

    def I_of(T):
        edges = np.concatenate([
            np.linspace(-40.0, 0.0, 81),
            np.linspace(0.0, float(T), max(2, int(math.ceil(4 * T)) + 1))[1:],
        ])
        un, uw = panel_gl_nodes(edges, 10)
        x = np.exp(un)
        vals = np.asarray(F_model(x), dtype=complex) * np.asarray(phi_model(x), dtype=complex)
        return complex(np.sum(vals * uw))

    I = np.array([I_of(T) for T in T_grid])

    A = np.vstack([np.ones_like(T_grid), T_grid]).T
    tail = slice(-4, None)
    coef, *_ = np.linalg.lstsq(A[tail], I[tail], rcond=None)
    a0, slope = coef
    resid_all = I - (A @ coef)
    r = np.abs(resid_all)
    if not (r[0] + 1e-14 >= r[-1] and r[-1] < 1e-6 * (1.0 + np.max(np.abs(I)))):
        raise FitError(f"truncation-fit residuals do not decay: {r}")
    return TwoTermLaurent(a_minus1=complex(-slope), a_0=complex(a0))


def _ranges(lo: np.ndarray, count: np.ndarray):
    """Flatten the integer ranges lo[i], lo[i] + 1, ..., lo[i] + count[i] - 1
    into (owner i, value) pairs, ranges in order."""
    owner = np.repeat(np.arange(lo.size), count)
    start = np.cumsum(count) - count
    return owner, lo[owner] + (np.arange(owner.size) - start[owner])


def _live_values(k: Callable, u: np.ndarray, u_max: float) -> np.ndarray:
    """k(u) where u <= u_max and exactly 0 past it (a window edge may land an
    ulp beyond u_max)."""
    return np.where(u <= u_max, np.asarray(k(u), dtype=float), 0.0)


# (row, point) entries per step of kernel_diagonal_sum, which bounds the
# expanded (point, shift) arrays: a `tf report` at width 0.47 peaks at 211 MB
# RSS with 2.5e5 entries and at 293 MB with 2e6
_KERNEL_CHUNK = 250_000


def kernel_diagonal_sum(k: Callable, z: np.ndarray, u_max: float = 100.0) -> np.ndarray:
    """Sum of k(u(z, gamma z)) over the gamma in PSL2(Z) with u <= u_max, on
    an array of points; terms with u > u_max contribute exactly 0.

    Translations (c = 0) give u = n^2 / y^2 and are summed once per distinct
    height.  The c >= 1 elements come as cosets T^m gamma0 of one
    representative gamma0 per coprime bottom row (c, d): with w = gamma0 z,
    the element T^m gamma0 moves z to w + m, so the live shifts of a point
    are exactly the m with (x - Re w - m)^2 <= u_max y Im w - (y - Im w)^2.
    Only those (point, m) pairs are expanded, `_KERNEL_CHUNK` (row, point)
    entries at a time.

    The reflection z -> -conj(z) normalizes PSL2(Z) and preserves u, so the
    sum at -conj(z) equals the sum at z: it runs once per distinct (|x|, y),
    over the rows of the x-window [-max|x|, max|x|], which covers every
    point's own window.
    """
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    z, point_of = np.unique(np.abs(z.real) + 1j * z.imag, return_inverse=True)
    x, y = z.real, z.imag
    out = np.full(z.size, float(np.asarray(k(np.zeros(1)))[0]))

    heights, height_of = np.unique(y, return_inverse=True)
    n_hi = np.floor(heights * math.sqrt(u_max)).astype(int)
    owner, n = _ranges(np.ones(heights.size, dtype=int), n_hi)
    kv = _live_values(k, (n / heights[owner]) ** 2, u_max)
    out += 2.0 * np.bincount(owner, weights=kv, minlength=heights.size)[height_of]

    # u >= |cz + d|^2 + |cz + d|^-2 - 2, so a live row has |cz + d|^2 <= t_max
    t_max = 0.5 * (u_max + 2.0 + math.sqrt((u_max + 2.0) ** 2 - 4.0))
    by_height = np.argsort(y, kind="stable")
    y_sorted = y[by_height]
    y_lo = float(y_sorted[0])
    c_max = int(math.floor(math.sqrt(t_max) / y_lo))
    x_hi = float(np.max(x))
    cs, ds = coprime_rows(-x_hi, x_hi, [t_max - (c * y_lo) ** 2 for c in range(1, c_max + 1)])
    acc = np.zeros(z.size)
    for c in range(1, c_max + 1):
        # points with c y > sqrt(t_max) have no live row of this c
        pts = by_height[: np.searchsorted(y_sorted, math.sqrt(t_max) / c, side="right")]
        d_all = ds[cs == c]
        zp, xp, yp = z[pts], x[pts], y[pts]
        step = max(1, _KERNEL_CHUNK // max(pts.size, 1))
        for i in range(0, d_all.size, step):
            d = d_all[i : i + step]
            a0 = np.array([pow(int(dj), -1, c) for dj in d])
            # gamma0 z = a0/c - 1/(c (c z + d)), one (row, point) entry each
            w = (a0 / c)[:, None] - 1.0 / (c * (c * zp[None, :] + d[:, None]))
            dx = xp[None, :] - w.real
            yy = yp[None, :] * w.imag
            dy2 = (yp[None, :] - w.imag) ** 2
            r2 = u_max * yy - dy2
            live = np.nonzero(r2 >= 0.0)
            dx, yy, dy2 = dx[live], yy[live], dy2[live]
            r = np.sqrt(r2[live])
            m_lo = np.ceil(dx - r)
            m_count = (np.floor(dx + r) - m_lo + 1.0).astype(int)
            owner, m = _ranges(m_lo, m_count)
            u = ((dx[owner] - m) ** 2 + dy2[owner]) / yy[owner]
            acc += np.bincount(pts[live[1][owner]], weights=_live_values(k, u, u_max), minlength=z.size)
    return (out + acc)[point_of.reshape(-1)].reshape(shape)


def two_term_laurent_kernel(
    T1: SphericalTestFunction,
    T2: SphericalTestFunction,
    u_max: float = 250.0,
):
    """Kernel-pair truncation fit.

    I(T) = integral over the fundamental domain up to height e^{2T} of the
    diagonal kernel sum of the convolved test function; the model
    I(T) = a0 - a_{-1} T + c e^{-2T} is fitted (the exponential term is the
    exact subleading correction of the level-1 translation tail) on
    T = 0.75, 1, ..., 2.25, with a 160 x 160 fundamental-domain rule.
    """
    T_grid = np.arange(0.75, 2.26, 0.25)
    T12 = convolve_test_functions(T1, T2)
    Ymax = math.exp(2.0 * float(T_grid[-1]))
    v_breaks = tuple(2.0 * T_grid[:-1])
    Z1, W1, Z2, W2 = _fd_grids(Ymax, 160, 160, v_breaks)
    vals1 = kernel_diagonal_sum(T12.k_fast, Z1, u_max)
    vals2 = kernel_diagonal_sum(T12.k_fast, Z2, u_max)
    base = float(np.real(np.sum(vals1 * W1)))
    y2 = Z2.imag
    I = np.array(
        [base + float(np.real(np.sum((vals2 * W2)[y2 <= math.exp(2.0 * T) + 1e-12]))) for T in T_grid]
    )
    A = np.vstack([np.ones_like(T_grid), T_grid, np.exp(-2.0 * T_grid)]).T
    coef, *_ = np.linalg.lstsq(A, I, rcond=None)
    a0, slope, _c = coef
    resid = I - A @ coef
    if np.max(np.abs(resid)) > 1e-4 * (1.0 + np.max(np.abs(I))):
        raise FitError(f"kernel truncation fit residuals too large: {resid}")
    return TwoTermLaurent(a_minus1=complex(-slope), a_0=complex(a0))


# ----------------------------------------------------------------------------
# Geometric terms


def weight_v(t: float) -> float:
    """Truncation weight at the unipotent coordinate: (1/2) log(1 + t^2)."""
    return 0.5 * math.log1p(float(t) * float(t))


def unit_hecke_global_factor(alpha) -> float:
    """Product of the finite-place orbital factors of the unit Hecke function.

    For the split class diag(t, 1) this is 1 exactly when t is a unit at every
    prime (t = +-1) and 0 otherwise.
    """
    t = Fraction(alpha)
    if t == 0:
        raise EllipticInputError("alpha must be a nonzero rational")
    return 1.0 if abs(t.numerator) == 1 and abs(t.denominator) == 1 else 0.0


def _arch_orbital_nodes():
    """Nodes for int_0^inf of slowly decaying point-pair integrands: a dense
    900-node head on [0, 6] plus a log-spaced tail out to x = e^9."""
    x_head = 6.0
    x1, w1 = gl_nodes(0.0, x_head, 900)
    l, lw = panel_gl_nodes(np.linspace(math.log(x_head), 9.0, 24), 10)
    x2 = np.exp(l)
    w2 = x2 * lw
    return np.concatenate([x1, x2]), np.concatenate([w1, w2])


def weighted_orbital_integral(T: SphericalTestFunction, alpha, weighted: bool = True) -> complex:
    """Archimedean (optionally weight-free) orbital integral of the split
    class diag(alpha, 1), times the finite-place unit-Hecke factors.

        int_R k(|t| x^2 + (|t|-1)^2/|t|) * v(x) dx,   v(x) = (1/2) log(1+x^2)

    At level 1 the finite-place weighted pieces vanish on the support, so the
    global weighted integral is the archimedean one times the unweighted
    global factor.
    """
    t = Fraction(alpha)
    if t == 0 or t == 1:
        raise EllipticInputError("hyperbolic class needs a rational ratio distinct from 0 and 1")
    factor = unit_hecke_global_factor(t)
    if factor == 0.0:
        return 0.0 + 0.0j
    ta = abs(float(t))
    v0 = (math.sqrt(ta) - 1.0 / math.sqrt(ta)) ** 2
    x, w = _arch_orbital_nodes()
    args = ta * x**2 + v0
    kv = np.asarray(T.k(args))
    wt = 0.5 * np.log1p(x**2) if weighted else np.ones_like(x)
    return complex(2.0 * np.sum(kv * wt * w) * factor)


def identity_term(T: SphericalTestFunction) -> complex:
    """Vol(F) k(0) under the hyperbolic measure dx dy / y^2."""
    return complex(FUNDAMENTAL_DOMAIN_VOLUME * float(np.asarray(T.k(0.0))))


def tate_zeta_term(F_profile: Callable) -> tuple[TwoTermLaurent, Callable]:
    """Two-term Laurent data at s = 0 of Z(F, 1 - s/2) for F = F_inf x lattice.

    Z(F, w) = Z_inf(F_inf, w) zeta(w) with
    Z_inf(w) = int_R F_inf(x) |x|^(w-1) dx, by the trapezoid rule in
    u = log x on |u| <= 30.  The simple pole at w = 1 has residue Z_inf(1);
    the constant term is extracted by a symmetric limit at steps 1e-3 and
    5e-4 with Richardson refinement.  Returns (laurent, Z_callable).
    """
    u, uw = trap_grid(30.0, 0.01)
    # the profile does not depend on w, so every Z_inf call shares it
    vals = np.asarray(F_profile(np.exp(u)), dtype=complex)

    def z_inf(w):
        w = complex(w)
        return 2.0 * np.sum(vals * np.exp(w * u) * uw)

    def Z(w):
        w = complex(w)
        return z_inf(w) * zeta(w)

    R = z_inf(1.0)  # residue of zeta at 1 is 1
    def fp(h):
        return 0.5 * (Z(1.0 + h) + Z(1.0 - h))

    step = 1e-3
    c1 = fp(step)
    c2 = fp(0.5 * step)
    C = (4.0 * c2 - c1) / 3.0
    return TwoTermLaurent(a_minus1=complex(-2.0 * R), a_0=complex(C)), Z


# the measure normalizations of the geometric side, emitted with every
# `tf report`; Vol([A]^1) = 1 is the factor in `tf_minus1_geometric`
MEASURE_LEDGER = {
    "measure": "dmu = dx dy / y^2 on the half-plane; Vol(F) = pi/3",
    "boundary": "x = sqrt(y); boundary measure x^-2 d*x (half of dmu push-forward)",
    "volumes": "Vol([A]^1) = Vol([M]^1) = Vol([Gm]^1) = 1 in the declared normalization",
    "alpha_insertion": "the class representative is inserted in the integrand, "
                       "Phi(k^-1 n alpha k); the alpha-free display diverges",
}


def tf_minus1_geometric(T1: SphericalTestFunction, T2: SphericalTestFunction) -> complex:
    """-Vol([A]^1) sum over split alpha of the plain orbital integral of the
    convolved kernel over N x K, with the finite-place unit-Hecke factors.

    At level 1 only alpha = +-1 survive, each with factor 1; both have
    |alpha| = 1, so each contributes the same 2 int_0^inf k(x^2) dx."""
    T12 = convolve_test_functions(T1, T2)
    x, w = _arch_orbital_nodes()
    term = 2.0 * np.sum(np.asarray(T12.k(x**2)) * w)
    total = 0.0 + 0.0j
    total += term  # alpha = 1
    total += term  # alpha = -1
    # -Vol([A]^1) total with Vol([A]^1) = 1; a product, not a negation, so
    # the imaginary part stays +0.0 as in the reports
    return complex(-1.0 * total)


# ----------------------------------------------------------------------------
# Spectral side


def spectral_side(
    T1: SphericalTestFunction,
    T2: SphericalTestFunction,
    residual_on: bool = True,
    cusp_eigenvalues=None,
) -> dict:
    """Computable spectral terms of the constant Laurent coefficient.

    M0_term         (1/4) c(0) h1(0) h2(0)
    residual_term   h1(1) h2(1)   [trivial-line contribution; the
                    intertwining-residue scalar (6/pi) h1(1) h2(1) is recorded
                    alongside, see `residual_defdiscrete_scalar`]
    continuous_term -(1/4 pi) int (c'/c)(it) h1(it) h2(it) dt, by the
                    trapezoid rule on |t| <= 14 at step 0.02

    Cuspidal terms are never computed; optional eigenvalue data (t_j with
    s_j = i t_j) is folded into `cusp_display_sum` for display only.
    """
    h1, h2 = T1.h, T2.h
    h10 = complex(np.asarray(h1(np.zeros(1, dtype=complex)))[0])
    h20 = complex(np.asarray(h2(np.zeros(1, dtype=complex)))[0])
    c0 = complex(intertwining_c(0.0))
    m0 = 0.25 * c0 * h10 * h20

    h11 = complex(np.asarray(h1(np.ones(1, dtype=complex)))[0])
    h21 = complex(np.asarray(h2(np.ones(1, dtype=complex)))[0])
    residual = h11 * h21 if residual_on else 0.0 + 0.0j

    t, w = trap_grid(14.0, 0.02)
    mask = np.abs(t) > 1e-9
    tt = t[mask]
    integrand = np.real(c_log_derivative(1j * tt)) * np.real(
        np.asarray(h1(1j * tt)) * np.asarray(h2(1j * tt))
    )
    # (c'/c)(0) is finite; patch the origin node by neighbor average
    full = np.zeros_like(t)
    full[mask] = integrand
    if np.any(~mask):
        i0 = int(np.nonzero(~mask)[0][0])
        full[i0] = 0.5 * (full[i0 - 1] + full[i0 + 1])
    continuous = -np.sum(full * w) / (4.0 * np.pi)

    out = {
        "M0_term": m0,
        "residual_term": residual,
        "residual_defdiscrete_scalar": (6.0 / np.pi) * h11 * h21,
        "continuous_term": complex(continuous),
        "computable_sum": m0 + residual + complex(continuous),
    }
    if cusp_eigenvalues is not None:
        tj = np.asarray(cusp_eigenvalues, dtype=float)
        out["cusp_display_sum"] = complex(
            np.sum(np.asarray(h1(1j * tj)) * np.asarray(h2(1j * tj)))
        )
    return out
