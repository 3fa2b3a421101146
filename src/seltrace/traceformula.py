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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .special import intertwining_c, zeta
from .charged import ChargedLaurent, ChargedMeromorphicFunction
from .halfplane import FUNDAMENTAL_DOMAIN_VOLUME, _fd_grids
from .torus import TwoTermLaurent
from .util import DecayError, SeltraceError, exp_sum, gl_nodes, panel_gl_nodes, trap_grid

__all__ = [
    "FitError",
    "EllipticInputError",
    "SphericalTestFunction",
    "GeometricTermConfig",
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
    """Compatible triple (h, g, k) with provenance of the supplied member.

    `k` integrates the Abel inversion by quadrature on each call (accurate,
    for orbital integrals); `k_fast` interpolates a dense precomputed table
    (for the large modular-group sums)."""

    h: Callable
    g: Callable
    k: Callable
    k_fast: Callable = None
    provenance: str = "h"
    t_max: float = 26.0
    dt: float = 0.01

    def h_line(self, t):
        return self.h(1j * np.asarray(t, dtype=float))


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


def spherical_from_h(
    h: Callable,
    t_max: float = 26.0,
    dt: float = 0.01,
    rho_max: float = 26.0,
    n_k_grid: int = 6000,
) -> SphericalTestFunction:
    """Build (h, g, k) from the spectral multiplier h.

    g comes from Fourier quadrature of h on the line; k from the Abel
    inversion k(u) = -(2/pi) int_0^inf Q'(u + xi^2) d xi, where
    Q'(v) = g_cl'(rho)/(2 sinh rho) at v = 4 sinh^2(rho/2).  g_cl' is
    tabulated densely once, so both the per-call quadrature k and the
    table-interpolated k_fast are cheap.
    """
    probe = np.abs(np.asarray(h(1j * np.array([0.0, 0.5 * t_max, t_max]))))
    if probe[-1] > 1e-9 * (1.0 + probe[0]):
        raise DecayError("h must decay rapidly on the spectral line")
    g = _fourier_g(h, t_max, dt)
    gclp = _g_cl_derivative(h, t_max, max(dt, 0.02))

    # dense g_cl' table; Q'(v) after that costs one interpolation
    rho_tab = np.linspace(0.0, rho_max, 52001)
    gclp_tab = np.real(gclp(rho_tab))
    eps = rho_tab[1]
    qp_origin = gclp_tab[1] / (2.0 * eps)
    peak = float(np.max(np.abs(gclp_tab)))
    supp = np.nonzero(np.abs(gclp_tab) > 1e-17 * peak)[0]
    rho_cut = float(rho_tab[supp[-1]]) if supp.size else rho_max
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
    xi_weights = xi_nodes * l_w

    def k(u):
        u = np.asarray(u, dtype=float)
        shape = u.shape
        uf = np.atleast_1d(u).ravel()
        vals = Qp(uf[:, None] + xi_nodes[None, :] ** 2)
        out = -(2.0 / np.pi) * (vals @ xi_weights)
        out[uf >= v_cut] = 0.0
        return out.reshape(shape) if shape else float(out[0])

    u_tab = np.concatenate([[0.0], np.geomspace(1e-4, v_cut + 1.0, n_k_grid - 1)])
    k_tab = np.asarray(k(u_tab))

    def k_fast(u):
        u = np.asarray(u, dtype=float)
        out = np.interp(u, u_tab, k_tab, right=0.0)
        return out if u.shape else float(out)

    return SphericalTestFunction(h=h, g=g, k=k, k_fast=k_fast, provenance="h", t_max=t_max, dt=dt)


def gaussian_test_function(width: float = 1.0) -> SphericalTestFunction:
    """h(s) = exp(width^2 s^2 / 4); on the line h(it) = exp(-(width t)^2/4)."""

    def h(s):
        return np.exp(0.25 * (width**2) * np.asarray(s, dtype=complex) ** 2)

    return spherical_from_h(h, t_max=max(26.0, 12.0 / width))


def convolve_test_functions(T1: SphericalTestFunction, T2: SphericalTestFunction) -> SphericalTestFunction:
    """Triple of the convolution: the multiplier is the product h1 h2."""

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


def tf_minus1_spectral(T1, T2, sigma: float = 0.0, t_max: float = 26.0, dt: float = 0.01) -> complex:
    """-(1/2 pi i) int over Re s = sigma of h1(s) h2(-s) ds."""
    h1 = T1.h if isinstance(T1, SphericalTestFunction) else T1
    h2 = T2.h if isinstance(T2, SphericalTestFunction) else T2
    t, w = trap_grid(t_max, dt)
    s = sigma + 1j * t
    vals = np.asarray(h1(s)) * np.asarray(h2(-s))
    return complex(-np.sum(vals * w) / (2.0 * np.pi))


# ----------------------------------------------------------------------------
# Truncation fits


def two_term_laurent(
    F_model,
    phi_model,
    T_grid=None,
    u_min: float = -40.0,
) -> TwoTermLaurent:
    """Model-space truncation fit: I(T) = int_{x <= e^T} F phi d*x.

    Fits I(T) = -a_{-1} T + a_0 on the tail of the grid and verifies that the
    fit residuals decay along the grid (they are exponentially small in T for
    asymptotically constant inputs).  Each truncated integral is evaluated on
    Gauss-Legendre panels with edges pinned at u = 0 (possible sharp-carrier
    jump) and at the truncation height itself.
    """
    T_grid = np.asarray(T_grid if T_grid is not None else np.arange(2.0, 6.01, 0.5))

    def I_of(T):
        edges = np.concatenate([
            np.linspace(u_min, 0.0, 81),
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


def _modular_group_elements(u_max: float, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
    """Matrices (a, b; c, d) with c >= 1 that can come within point-pair
    distance u_max of some grid point; translations (c = 0) are handled
    separately."""
    mats = []
    c_cap = int(math.floor(math.sqrt(u_max + 4.0) / y_lo)) + 1
    for c in range(1, c_cap + 1):
        # |c x + d| <= sqrt(u_max + 2) window around the grid x-range
        B = math.sqrt(u_max + 4.0)
        d_lo = int(math.floor(c * x_lo - B))
        d_hi = int(math.ceil(c * x_hi + B))
        for d in range(d_lo, d_hi + 1):
            if math.gcd(c, abs(d)) != 1:
                continue
            a0 = pow(d, -1, c) if c > 1 else 0
            b0 = (a0 * d - 1) // c
            # m-shifts: gamma_m = (a0 + m c, b0 + m d; c, d)
            m_span = int(math.ceil(math.sqrt(u_max) + abs(x_hi) + 2.0))
            for m in range(-m_span, m_span + 1):
                mats.append((a0 + m * c, b0 + m * d, c, d))
    return np.array(mats, dtype=float)


def kernel_diagonal_sum(k: Callable, z: np.ndarray, u_max: float = 100.0) -> np.ndarray:
    """sum over the modular group of k(u(z, gamma z)) on an array of points.

    Translations are summed in a vectorized n-window; the c >= 1 elements are
    enumerated once for the bounding box of the grid.
    """
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    out = np.full(z.shape, float(np.asarray(k(np.zeros(1)))[0]))
    # translations: u = n^2 / y^2, summed in y-chunks
    chunk_pts = 4000
    for i in range(0, z.size, chunk_pts):
        yc = y[i : i + chunk_pts]
        n_max = int(math.ceil(np.max(yc) * math.sqrt(u_max))) + 1
        n = np.arange(1, n_max + 1)
        args = (n[None, :] / yc[:, None]) ** 2
        live = args <= u_max
        kv = np.asarray(k(np.where(live, args, u_max + 1.0)))
        out[i : i + chunk_pts] += 2.0 * np.sum(np.where(live, kv, 0.0), axis=1)

    y_live = y <= math.sqrt(u_max) + 2.0
    if np.any(y_live):
        mats = _modular_group_elements(
            u_max, float(np.min(x)), float(np.max(x)), float(np.min(y[y_live])), float(np.max(y[y_live]))
        )
        zl = z[y_live]
        yl = zl.imag
        acc = np.zeros(zl.shape)
        chunk = max(1, int(4e6 // max(zl.size, 1)))
        for i in range(0, len(mats), chunk):
            blk = mats[i : i + chunk]
            a = blk[:, 0][:, None]
            b = blk[:, 1][:, None]
            c = blk[:, 2][:, None]
            d = blk[:, 3][:, None]
            den = c * zl[None, :] + d
            gz = (a * zl[None, :] + b) / den
            u = np.abs(zl[None, :] - gz) ** 2 / (yl[None, :] * gz.imag)
            u = np.minimum(u, u_max + 1.0)
            acc += np.sum(k(u), axis=0)
        out[y_live] = out[y_live] + acc
    return out


def two_term_laurent_kernel(
    T1: SphericalTestFunction,
    T2: SphericalTestFunction,
    T_grid=None,
    nx: int = 160,
    ny: int = 160,
    u_max: float = 250.0,
):
    """Kernel-pair truncation fit.

    I(T) = integral over the fundamental domain up to height e^{2T} of the
    diagonal kernel sum of the convolved test function; the model
    I(T) = a0 - a_{-1} T + c e^{-2T} is fitted (the exponential term is the
    exact subleading correction of the level-1 translation tail).
    """
    T_grid = np.asarray(T_grid if T_grid is not None else np.arange(0.75, 2.26, 0.25))
    T12 = convolve_test_functions(T1, T2)
    Ymax = math.exp(2.0 * float(T_grid[-1]))
    v_breaks = tuple(2.0 * T_grid[:-1])
    Z1, W1, Z2, W2 = _fd_grids(Ymax, nx, ny, v_breaks)
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


def _arch_orbital_nodes(n: int = 900, x_head: float = 6.0, l_max: float = 9.0):
    """Nodes for int_0^inf of slowly decaying point-pair integrands: a dense
    head plus a log-spaced tail out to x = e^l_max."""
    x1, w1 = gl_nodes(0.0, x_head, n)
    l, lw = panel_gl_nodes(np.linspace(math.log(x_head), l_max, 24), 10)
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


def tate_zeta_term(
    F_profile: Callable,
    h_step: float = 1e-3,
    x_max: float = 30.0,
) -> tuple[TwoTermLaurent, Callable]:
    """Two-term Laurent data at s = 0 of Z(F, 1 - s/2) for F = F_inf x lattice.

    Z(F, w) = Z_inf(F_inf, w) zeta(w) with
    Z_inf(w) = int_R F_inf(x) |x|^(w-1) dx.  The simple pole at w = 1 has
    residue Z_inf(1); the constant term is extracted by a symmetric limit
    with Richardson refinement.  Returns (laurent, Z_callable).
    """
    u, uw = trap_grid(x_max, 0.01)

    def z_inf(w):
        w = complex(w)
        x = np.exp(u)
        vals = np.asarray(F_profile(x), dtype=complex)
        return 2.0 * np.sum(vals * np.exp(w * u) * uw)

    def Z(w):
        w = complex(w)
        return z_inf(w) * zeta(w)

    R = z_inf(1.0)  # residue of zeta at 1 is 1
    def fp(h):
        return 0.5 * (Z(1.0 + h) + Z(1.0 - h))

    c1 = fp(h_step)
    c2 = fp(0.5 * h_step)
    C = (4.0 * c2 - c1) / 3.0
    return TwoTermLaurent(a_minus1=complex(-2.0 * R), a_0=complex(C)), Z


@dataclass
class GeometricTermConfig:
    """Measure normalizations and the split-class list for the geometric side.

    The volume constants are pinned to the declared normalization and carried
    through the formulas explicitly, so alternative conventions rescale
    predictably; `ledger` documents each choice.
    """

    vol_H: float = FUNDAMENTAL_DOMAIN_VOLUME
    vol_A1: float = 1.0
    vol_M1: float = 1.0
    vol_Gm1: float = 1.0
    hyperbolic_classes: tuple = (
        Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2),
        Fraction(-1, 2), Fraction(3), Fraction(-3), Fraction(3, 2),
    )
    class_norm_bound: float = 12.0
    ledger: dict = field(default_factory=lambda: {
        "measure": "dmu = dx dy / y^2 on the half-plane; Vol(F) = pi/3",
        "boundary": "x = sqrt(y); boundary measure x^-2 d*x (half of dmu push-forward)",
        "volumes": "Vol([A]^1) = Vol([M]^1) = Vol([Gm]^1) = 1 in the declared normalization",
        "alpha_insertion": "the class representative is inserted in the integrand, "
                           "Phi(k^-1 n alpha k); the alpha-free display diverges",
    })

    def classes_within_bound(self):
        out = []
        for t in self.hyperbolic_classes:
            norm = abs(float(t)) + 1.0 / abs(float(t))
            if norm <= self.class_norm_bound:
                out.append(t)
        return out


def tf_minus1_geometric(
    T1: SphericalTestFunction,
    T2: SphericalTestFunction,
    config: GeometricTermConfig | None = None,
) -> complex:
    """-Vol([A]^1) sum over split alpha of the plain orbital integral of the
    convolved kernel over N x K, with the finite-place unit-Hecke factors.

    At level 1 only alpha = +-1 survive; each contributes int k(x^2) dx."""
    config = config or GeometricTermConfig()
    T12 = convolve_test_functions(T1, T2)
    x, w = _arch_orbital_nodes()
    total = 0.0 + 0.0j
    for t in config.classes_within_bound():
        factor = unit_hecke_global_factor(t)
        if factor == 0.0:
            continue
        ta = abs(float(t))
        v0 = (math.sqrt(ta) - 1.0 / math.sqrt(ta)) ** 2
        kv = np.asarray(T12.k(ta * x**2 + v0))
        total += factor * 2.0 * np.sum(kv * w)
    return complex(-config.vol_A1 * total)


# ----------------------------------------------------------------------------
# Spectral side


def _c_log_derivative_line(t: np.ndarray, h_fd: float = 1e-4) -> np.ndarray:
    """(c'/c)(it) on an array of ordinates, by Richardson central differences."""
    s = 1j * np.asarray(t, dtype=float)
    def deriv(step):
        return (intertwining_c(s + step) - intertwining_c(s - step)) / (2.0 * step)

    d = (4.0 * deriv(0.5 * h_fd) - deriv(h_fd)) / 3.0
    return d / intertwining_c(s)


def spectral_side(
    T1: SphericalTestFunction,
    T2: SphericalTestFunction,
    residual_on: bool = True,
    t_max: float = 14.0,
    dt: float = 0.02,
    cusp_eigenvalues=None,
) -> dict:
    """Computable spectral terms of the constant Laurent coefficient.

    M0_term         (1/4) c(0) h1(0) h2(0)
    residual_term   h1(1) h2(1)   [trivial-line contribution; the
                    intertwining-residue scalar (6/pi) h1(1) h2(1) is recorded
                    alongside, see `residual_defdiscrete_scalar`]
    continuous_term -(1/4 pi) int (c'/c)(it) h1(it) h2(it) dt

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

    t, w = trap_grid(t_max, dt)
    mask = np.abs(t) > 1e-9
    tt = t[mask]
    integrand = np.real(_c_log_derivative_line(tt)) * np.real(
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
