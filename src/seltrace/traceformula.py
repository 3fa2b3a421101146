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
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .special import c_log_derivative, intertwining_c, zeta
from .charged import ChargedLaurent, ChargedMeromorphicFunction
from .halfplane import FUNDAMENTAL_DOMAIN_VOLUME, _FD_BASE, _fd_grids, coset_blocks, coset_windows, fold_mirror
from .util import _NEGLIGIBLE, DecayError, SeltraceError, circle_coefficients, exp_sum, panel_gl_nodes, ranges, steps, trap_grid

__all__ = [
    "FitError",
    "EllipticInputError",
    "SphericalTestFunction",
    "TwoTermLaurent",
    "MEASURE_LEDGER",
    "spherical_from_h",
    "gaussian_test_function",
    "check_report_width",
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
    "tate_kernel_term",
    "ledger",
]


class FitError(SeltraceError):
    """Truncation-fit residuals failed to decay."""


class EllipticInputError(SeltraceError):
    """A non-hyperbolic class was passed to a hyperbolic orbital integral."""


# ----------------------------------------------------------------------------
# Spherical transform chain


@dataclass(frozen=True)
class SphericalTestFunction:
    """Spherical test function: the multiplier h, the point-pair kernel k
    built from it, and their truncations.

    `k` evaluates the point-pair kernel from a table in geodesic distance,
    built on its first call; it is exactly 0 where Q' has fallen below its
    rounding floor (`spherical_from_h`).  `t_max` is the cut of the spectral
    line that the triple was built on, and `reach()` the cut of the kernel
    sums: the u of the last table node where |k| >= `_K_REACH` |k(0)|."""

    h: Callable
    k: Callable
    t_max: float
    reach: Callable


# spherical_from_h's quadrature budget: the t-step of the Fourier rule for
# Q', the rho-range and node count of the Q' table, and the number of k nodes
_G_CL_DT = 0.02
_RHO_MAX = 26.0
_N_Q_GRID = 13001
_N_K_GRID = 6000
# the most t nodes the Fourier rule may take (2 t_max / _G_CL_DT): width 0.005
_MAX_T_NODES = 240_000
# the kernel sums keep |k| >= _K_REACH |k(0)|: u <= 249.1 at width 0.5
_K_REACH = 5e-8


def _even_cubic(values):
    """Horner coefficients, constant term first, of the cubic through the
    nodes j-1 .. j+2 on each node interval [j, j+1] of a table that is even
    about node 0 (node -1 mirrors node 1) and 0 from its last node on."""
    padded = np.concatenate([values[1:2], values, [0.0, 0.0]])
    km, k0, k1, k2 = padded[:-3], padded[1:-2], padded[2:-1], padded[3:]
    coef = np.stack([
        k0,
        k1 - k0 / 2.0 - km / 3.0 - k2 / 6.0,
        (km + k1) / 2.0 - k0,
        (k0 - k1) / 2.0 + (k2 - km) / 6.0,
    ])
    coef[:, -1] = 0.0
    return coef


def _read_even_cubic(coef, x):
    """The table of `_even_cubic` at x >= 0 in node units."""
    x = np.minimum(x, coef.shape[1] - 1)
    j = x.astype(np.intp)
    x -= j
    c0, c1, c2, c3 = coef
    return ((c3[j] * x + c2[j]) * x + c1[j]) * x + c0[j]


def _cut_at_floor(q: np.ndarray):
    """(q with every node past its last one at |q| >= `_NEGLIGIBLE` max|q| set
    to 0, v_end): the cubic of `_even_cubic` reads only zero nodes, so is
    exactly 0, at v >= v_end (inf when the table has no such v)."""
    # written so that a nan keeps the whole table
    live = int(np.nonzero(~(np.abs(q) < _NEGLIGIBLE * np.max(np.abs(q))))[0][-1])
    q = q.copy()
    q[live + 1 :] = 0.0
    # the cubic on [j, j+1] reads nodes j-1 .. j+2, so it is 0 from node
    # live + 2 on; one node more keeps the rounding of u + xi^2 off that edge
    end = live + 3
    if end >= _N_Q_GRID:
        return q, math.inf
    return q, 4.0 * math.sinh(0.5 * end * _RHO_MAX / (_N_Q_GRID - 1)) ** 2


def spherical_from_h(h: Callable, t_max: float) -> SphericalTestFunction:
    """Build (h, k) from the spectral multiplier h, cut at |t| <= t_max.

    k comes from the Abel inversion k(u) = -(2/pi) int_0^inf Q'(u + xi^2) d xi,
    where Q'(v) = g_cl'(rho)/(2 sinh rho) at v = 4 sinh^2(rho/2), even in rho,
    with Q'(0) = g_cl''(0)/2.  Q' (from h by Fourier quadrature on the line)
    and k are tabulated on `_N_Q_GRID` and `_N_K_GRID` equally spaced rho in
    [0, `_RHO_MAX`], and both are read by the cubic of `_even_cubic`.  Q' is
    set to 0 past its last node at `_NEGLIGIBLE` of its largest, where the
    table holds only the Fourier sum's rounding, and the Abel step evaluates
    only the entries that read a nonzero node (`_cut_at_floor`): k is exactly
    0 from v_end on, as it is past `_RHO_MAX`.  The Abel rows go in the
    blocks of `util.steps`, each row counted as the whole xi rule, after
    node 0 alone.  The tables are built on the
    first call of k or reach(): a triple used only through h never builds
    them.
    """
    n_t = 2.0 * t_max / _G_CL_DT
    if n_t > _MAX_T_NODES:
        raise DecayError(f"spectral cut t_max = {t_max:.6g} needs {n_t:.3g} Fourier nodes, more than {_MAX_T_NODES}")
    probe = np.abs(np.asarray(h(1j * np.array([0.0, 0.5 * t_max, t_max]))))
    if probe[-1] > 1e-9 * (1.0 + probe[0]):
        raise DecayError("h must decay rapidly on the spectral line")

    @lru_cache(maxsize=1)
    def table():
        """(drho, `_even_cubic` coefficients of k: the constant terms are k
        at the nodes)."""
        # g_cl'(rho) = sum_t kern e^{-i rho t / 2}; g_cl'' adds a factor -it/2
        t, w = trap_grid(t_max, _G_CL_DT)
        kern = np.asarray(h(1j * t), dtype=complex) * (-0.5j * t) * w / (4.0 * np.pi)
        rho_q = np.linspace(0.0, _RHO_MAX, _N_Q_GRID)[1:]
        qp = np.real(exp_sum(0.5j * rho_q, t, kern)) / (2.0 * np.sinh(rho_q))
        q, v_end = _cut_at_floor(np.concatenate([[0.5 * np.real(np.sum(kern * (-0.5j * t)))], qp]))
        qp_coef = _even_cubic(q)
        # Abel inversion in xi = e^l, so the quadrature tracks the support of
        # Q', plus the node xi = 0 for [0, e^-16]
        l_nodes, l_w = panel_gl_nodes(np.linspace(-16.0, math.log(2.0 * math.sinh(0.5 * _RHO_MAX)) + 0.5, 60), 10)
        xi2 = np.concatenate([[0.0], np.exp(2.0 * l_nodes)])
        xi_weights = np.concatenate([[math.exp(-16.0)], np.exp(l_nodes) * l_w])

        drho = _RHO_MAX / (_N_K_GRID - 1)
        u_nodes = 4.0 * np.sinh(0.5 * drho * np.arange(_N_K_GRID)) ** 2
        k_nodes = np.zeros(_N_K_GRID)
        # node 0 is a one-row product of its own, so k(0) does not depend on
        # how the BLAS blocks the rows of the others; rows from v_end on and
        # each block's xi past v_end - u would read only zero Q' nodes.  The
        # blocks of `steps` count each row as the whole xi rule
        n_rows = int(np.searchsorted(u_nodes, v_end))
        blocks = [slice(0, 1), *(slice(g.start + 1, g.stop + 1) for g in steps(np.full(n_rows - 1, xi2.size)))]
        for g in blocks:
            n_xi = int(np.searchsorted(xi2, v_end - u_nodes[g.start]))
            x = 2.0 * np.arcsinh(0.5 * np.sqrt(u_nodes[g, None] + xi2[:n_xi])) * ((_N_Q_GRID - 1) / _RHO_MAX)
            k_nodes[g] = -(2.0 / np.pi) * (_read_even_cubic(qp_coef, x) @ xi_weights[:n_xi])
        return drho, _even_cubic(k_nodes)

    def k(u):
        drho, coef = table()
        u = np.asarray(u, dtype=float)
        # u < 0 only by rounding: it is read as u = 0
        out = _read_even_cubic(coef, 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(u, 0.0))) / drho)
        return out if u.shape else float(out)

    def reach():
        drho, (k_nodes, *_) = table()
        last = np.nonzero(np.abs(k_nodes) >= _K_REACH * abs(k_nodes[0]))[0][-1]
        return float(4.0 * math.sinh(0.5 * drho * last) ** 2)

    return SphericalTestFunction(h=h, k=k, t_max=t_max, reach=reach)


def gaussian_test_function(width: float) -> SphericalTestFunction:
    """h(s) = exp(width^2 s^2 / 4); on the line h(it) = exp(-(width t)^2/4)."""

    def h(s):
        return np.exp(0.25 * (width**2) * np.asarray(s, dtype=complex) ** 2)

    return spherical_from_h(h, max(26.0, 12.0 / width))


def convolve_test_functions(T1: SphericalTestFunction, T2: SphericalTestFunction) -> SphericalTestFunction:
    """Triple of the convolution T1 * T2: the multiplier is the product h1 h2,
    cut at the wider of the two cuts.  Every trace-formula term depends on a
    pair only through this triple, so callers build it once and pass it."""

    def h(s):
        return T1.h(s) * T2.h(s)

    return spherical_from_h(h, max(T1.t_max, T2.t_max))


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

    diag = ChargedMeromorphicFunction(evaluator=diag_ev, poles=(), strip=(-3.0, 3.0))

    def adiag_ev(s):
        s = np.asarray(s, dtype=complex)
        return intertwining_c(-s) * np.asarray(h(s))

    res = -(6.0 / np.pi) * complex(h(np.array([1.0 + 0.0j]))[0])
    adiag = ChargedMeromorphicFunction(
        evaluator=adiag_ev,
        poles=(ChargedLaurent(location=-1.0 + 0.0j, plus={-1: res}),),
        strip=(-1.4, 0.45),
    )
    return diag, adiag


# ----------------------------------------------------------------------------
# Spectral first coefficient


def tf_minus1_spectral(T: SphericalTestFunction, sigma: float = 0.0) -> complex:
    """-(1/2 pi i) int over Re s = sigma of h(s) ds for the convolved triple
    T = T1 * T2, by the trapezoid rule at step 0.01 on its cut |t| <= t_max.

    The pairing integrand is h1(s) h2(-s); it equals h(s) = h1(s) h2(s)
    because every multiplier h is even."""
    t, w = trap_grid(T.t_max, 0.01)
    vals = np.asarray(T.h(sigma + 1j * t))
    return complex(-np.sum(vals * w) / (2.0 * np.pi))


# ----------------------------------------------------------------------------
# Truncation fits


@dataclass(frozen=True)
class TwoTermLaurent:
    """The germ a_{-1}/s + a_0 at s = 0."""

    a_minus1: complex
    a_0: complex


def two_term_laurent(F_model, phi_model) -> TwoTermLaurent:
    """Model-space truncation fit: I(T) = int_{x <= e^T} F phi d*x.

    Takes I(T) = -a_{-1} T + a_0 as the line through the heights T = 5.5
    and 6 and verifies that its residuals decay at T = 4.5 and 5 (they are
    exponentially small in T for asymptotically constant inputs).  Each
    truncated integral runs from u = log x = -40 on Gauss-Legendre panels with
    edges pinned at u = 0 (possible sharp-carrier jump) and at the truncation
    height itself.
    """
    T_grid = np.arange(4.5, 6.01, 0.5)

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
    slope = (I[-1] - I[-2]) / (T_grid[-1] - T_grid[-2])
    a0 = I[-1] - slope * T_grid[-1]
    # the line has no residual at its own two heights; the others test it
    r = np.abs(I[:-2] - (a0 + slope * T_grid[:-2]))
    if not (r[0] + 1e-14 >= r[-1] and r[-1] < 1e-6 * (1.0 + np.max(np.abs(I)))):
        raise FitError(f"truncation-fit residuals do not decay: {r}")
    return TwoTermLaurent(a_minus1=complex(-slope), a_0=complex(a0))


def _live_values(k: Callable, u: np.ndarray, u_max: float) -> np.ndarray:
    """k(u) where u <= u_max and exactly 0 past it (a window edge may land an
    ulp beyond u_max)."""
    return np.where(u <= u_max, np.asarray(k(u), dtype=float), 0.0)


# most terms a kernel sum may take on, estimated before it starts: a report's
# one sum over both regions, i y0 and 2 i y0 estimates 2.17e8 at width 1.0
# and 5.46e8 at 1.1 (refused); the bound sits at u_max of about 6e4
_KERNEL_BUDGET = 4.8e8


def _kernel_radius2(t_max: float, y_lo: float, y_hi: float) -> np.ndarray:
    """Radius^2 rule of the kernel sum on heights [y_lo, y_hi]: a live row
    has |c z + d|^2 <= t_max, so (c x + d)^2 <= t_max - (c y_lo)^2, for c up
    to sqrt(t_max) / y_lo."""
    c = np.arange(1, int(math.floor(math.sqrt(t_max) / y_lo)) + 1)
    return t_max - (c * y_lo) ** 2


def kernel_diagonal_sum(k: Callable, z: np.ndarray, u_max: float) -> np.ndarray:
    """Sum of k(u(z, gamma z)) over the gamma in PSL2(Z) with u <= u_max, on
    an array of points; terms with u > u_max contribute exactly 0.

    Translations (c = 0) give u = n^2 / y^2 and are summed once per distinct
    height.  The c >= 1 elements come as cosets T^m gamma0 of one
    representative gamma0 per coprime bottom row (c, d): with w = gamma0 z,
    the element T^m gamma0 moves z to w + m, so the live shifts of a point
    are exactly the m with (x - Re w - m)^2 <= u_max y Im w - (y - Im w)^2.
    The rows come in the (row, point) blocks of `halfplane.coset_blocks`
    under the radius^2 rule `_kernel_radius2`, and only the live
    (point, m) pairs of a block are expanded, in the steps of `util.steps`:
    at most `util._BLOCK` pairs (or one entry's shifts, if they alone pass
    it).  The translations go in steps of whole heights under the same rule
    (or one height, if its own shifts pass it), so k never reads more than
    `_BLOCK` points at a time but for one such entry or height.

    The reflection z -> -conj(z) normalizes PSL2(Z) and preserves u, so the
    sum at -conj(z) equals the sum at z: it runs once per distinct (|x|, y)
    (`fold_mirror`).
    """
    z, point_of = fold_mirror(z)
    x, y = z.real, z.imag
    out = np.full(z.size, float(np.asarray(k(np.zeros(1)))[0]))

    heights, height_of = np.unique(y, return_inverse=True)
    n_hi = np.floor(heights * math.sqrt(u_max)).astype(int)
    # the disc u <= u_max has area pi u_max and F has pi / 3, so each point
    # meets about 3 u_max cosets
    terms = float(np.sum(n_hi)) + 3.0 * u_max * z.size
    if terms > _KERNEL_BUDGET:
        raise DecayError(f"kernel sum to u = {u_max:.4g} needs ~{terms:.2e} terms (> {_KERNEL_BUDGET:.2g})")
    tr = np.zeros(heights.size)
    for g in steps(n_hi):
        owner, n = ranges(np.ones(g.stop - g.start, dtype=int), n_hi[g])
        kv = _live_values(k, (n / heights[g][owner]) ** 2, u_max)
        tr[g] = np.bincount(owner, weights=kv, minlength=g.stop - g.start)
    out += 2.0 * tr[height_of]

    # u >= |cz + d|^2 + |cz + d|^-2 - 2, so a live row has |cz + d|^2 <= t_max
    t_max = 0.5 * (u_max + 2.0 + math.sqrt((u_max + 2.0) ** 2 - 4.0))
    acc = np.zeros(z.size)
    for b, c, d in coset_blocks(coset_windows(x, y, partial(_kernel_radius2, t_max))):
        a0 = np.array([pow(dj, -1, cj) for cj, dj in zip(c.tolist(), d.tolist())])
        c, d = c[:, None], d[:, None]
        # gamma0 z = a0/c - 1/(c (c z + d)), one (row, point) entry each
        w = a0[:, None] / c - 1.0 / (c * (c * z[b] + d))
        dx = x[b] - w.real
        yy = y[b] * w.imag
        dy2 = (y[b] - w.imag) ** 2
        r2 = u_max * yy - dy2
        live = np.nonzero(r2 >= 0.0)
        dx, yy, dy2, point = dx[live], yy[live], dy2[live], live[1]
        r = np.sqrt(r2[live])
        m_lo = np.ceil(dx - r)
        m_count = (np.floor(dx + r) - m_lo + 1.0).astype(int)
        for g in steps(m_count):
            owner, m = ranges(m_lo[g], m_count[g])
            u = ((dx[g][owner] - m) ** 2 + dy2[g][owner]) / yy[g][owner]
            acc[b] += np.bincount(point[g][owner], weights=_live_values(k, u, u_max), minlength=b.stop - b.start)
    return (out + acc)[point_of]


# abscissae per strip height of the kernel truncation fit: K(z, z) is only as
# smooth in x as the cubic table of k, so it needs more midpoints than the
# pseudo-Eisenstein pairings
_KERNEL_STRIP_MX = 32
# most relative change of a(y) = -2 K(i y, i y) / y from y0 to 2 y0 that the
# kernel line accepts: 6.0e-10 at width 0.5 and 2.6e-11 at 1.0, 9.8e-9 at 0.2
# and 1.9e-7 at 0.18, where a_{-1} starts to miss the geometric value
_FIT_LINE_TOL = 1e-7


# narrowest Gaussian width a report takes: the kernel line fails at every
# probed W <= 0.18 and holds at every probed W >= 0.185.  The misfit is not
# monotone in W (3.6e-9 at 0.19, 1.4e-8 at 0.195), so the line check stays
# behind this floor
_MIN_REPORT_WIDTH = 0.185


def check_report_width(width: float):
    """Raise FitError for a Gaussian width below `_MIN_REPORT_WIDTH`, where
    the kernel line of `two_term_laurent_kernel` does not hold, before any
    table or kernel sum is built."""
    if not width >= _MIN_REPORT_WIDTH:
        raise FitError(
            f"Gaussian width {width:g} is below {_MIN_REPORT_WIDTH:g}: the kernel line of the "
            "truncation fit does not hold there"
        )


def two_term_laurent_kernel(T12: SphericalTestFunction):
    """Kernel-pair truncation data of the convolved triple T12 = T1 * T2.

    I(T) is the integral over the fundamental domain up to height e^{2T} of
    the diagonal kernel sum of k12, cut at its reach u_max.  A row with
    c >= 1 gives u >= c^2 y^2 - 2 + 1/(c^2 y^2), so above
    y0 = sqrt(u_max + 2) only the translations are live: there K(z, z) is
    sum_m k(m^2/y^2) = y int k(x^2) dx up to Poisson terms, the same at every
    x, and I(T) = a0 - a_{-1} T with a_{-1} = -2 K(i y0, i y0) / y0.  So
    I(T0) at T0 = (1/2) log y0 comes from the `_FD_BASE` fundamental-domain
    rule up to y0, whose strip takes `_KERNEL_STRIP_MX` midpoints per
    height, and a0 = I(T0) + a_{-1} T0.  One kernel sum takes the points of
    both regions, i y0 and 2 i y0, so `_KERNEL_BUDGET` sees them all before
    any term is summed.

    Raises FitError when a(y) = -2 K(i y, i y) / y differs between y0 and
    2 y0 by more than `_FIT_LINE_TOL` of a(2 y0): then the Poisson terms are
    not negligible at y0 (a narrow k, whose u_max is small) and the line
    does not hold there.
    """
    u_max = T12.reach()
    y0 = math.sqrt(u_max + 2.0)
    Z1, W1, Z2, W2 = _fd_grids(y0, _FD_BASE, _FD_BASE, _KERNEL_STRIP_MX)
    vals = kernel_diagonal_sum(T12.k, np.concatenate([Z1, Z2, [1j * y0, 2j * y0]]), u_max)
    I0 = float(np.sum(vals[: Z1.size] * W1) + np.sum(vals[Z1.size : -2] * W2))
    a_minus1 = -2.0 * float(vals[-2]) / y0
    a_far = -float(vals[-1]) / y0
    if not abs(a_minus1 - a_far) <= _FIT_LINE_TOL * abs(a_far):
        raise FitError(
            f"kernel line a(y) = -2K(iy, iy)/y is {a_minus1:.10g} at y0 = {y0:.4g} and {a_far:.10g} at 2 y0: "
            "the Poisson terms are not negligible at y0"
        )
    return TwoTermLaurent(a_minus1=complex(a_minus1), a_0=complex(I0 + a_minus1 * 0.5 * math.log(y0)))


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
    """Nodes for int_0^inf of slowly decaying point-pair integrands: 120
    panels of 12 nodes on [0, 6] plus a log-spaced tail out to x = e^9."""
    x_head = 6.0
    x1, w1 = panel_gl_nodes(np.linspace(0.0, x_head, 121), 12)
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
    u = log x on |u| <= 30.  The Laurent coefficients b_-1, b_0 of Z at
    w = 1 are sampled on 16 points of the circle |w - 1| = 1/8
    (`util.circle_coefficients`); w = 1 - s/2 makes them a_-1 = -2 b_-1 and
    a_0 = b_0.  Returns (laurent, Z_callable).
    """
    u, uw = trap_grid(30.0, 0.01)
    # the profile does not depend on w, so every Z_inf call shares it
    c = 2.0 * np.asarray(F_profile(np.exp(u)), dtype=complex) * uw

    def Z(w):
        return exp_sum(-np.asarray(w), u, c) * zeta(w)

    b = circle_coefficients(Z, 1.0, (-1, 0), 0.125, 16)
    return TwoTermLaurent(a_minus1=complex(-2.0 * b[-1]), a_0=complex(b[0])), Z


def tate_kernel_term(T12: SphericalTestFunction) -> TwoTermLaurent:
    """Two-term Laurent data of `tate_zeta_term` for the profile k12(x^2) of
    the convolved triple: the unipotent slice of the geometric side."""
    return tate_zeta_term(lambda x: np.asarray(T12.k(np.asarray(x) ** 2)))[0]


# the measure normalizations of the geometric side, emitted with every
# `tf report`; Vol([A]^1) = 1 is the factor in `tf_minus1_geometric`
MEASURE_LEDGER = {
    "measure": "dmu = dx dy / y^2 on the half-plane; Vol(F) = pi/3",
    "boundary": "x = sqrt(y); boundary measure x^-2 d*x (half of dmu push-forward)",
    "volumes": "Vol([A]^1) = Vol([M]^1) = Vol([Gm]^1) = 1 in the declared normalization",
    "alpha_insertion": "the class representative is inserted in the integrand, "
                       "Phi(k^-1 n alpha k); the alpha-free display diverges",
}


def tf_minus1_geometric(T12: SphericalTestFunction) -> complex:
    """-Vol([A]^1) sum over split alpha of the plain orbital integral of the
    convolved kernel k12 over N x K, with the finite-place unit-Hecke factors.

    At level 1 only alpha = +-1 survive, each with factor 1; both have
    |alpha| = 1, so each contributes the same 2 int_0^inf k(x^2) dx, the
    weight-free orbital integral at alpha = -1."""
    # a product, not a negation, so the imaginary part stays +0.0
    return -2.0 * weighted_orbital_integral(T12, -1, weighted=False)


# ----------------------------------------------------------------------------
# Spectral side


def spectral_side(T: SphericalTestFunction) -> dict:
    """Computable spectral terms of the constant Laurent coefficient of the
    convolved triple T = T1 * T2, whose multiplier is h = h1 h2.

    M0_term         (1/4) c(0) h(0)
    residual_term   h(1)   [trivial-line contribution; the intertwining-residue
                    scalar (6/pi) h(1) is recorded alongside, see
                    `residual_defdiscrete_scalar`]
    continuous_term -(1/4 pi) int (c'/c)(it) h(it) dt, by the midpoint rule
                    at step 0.02 on t > 0, doubled (it is even), up to the
                    cut t_max

    The pairings h1(s) h2(-s) of the formula are read as h(s): every
    multiplier h is even.  Cuspidal terms are never computed.
    """
    h0, h1 = (complex(v) for v in np.asarray(T.h(np.array([0.0, 1.0], dtype=complex))))
    m0 = 0.25 * complex(intertwining_c(0.0)) * h0
    n = int(math.ceil(T.t_max / 0.02))
    dt = T.t_max / n
    t = (np.arange(n) + 0.5) * dt
    integrand = np.real(c_log_derivative(1j * t)) * np.real(np.asarray(T.h(1j * t)))
    continuous = -2.0 * dt * np.sum(integrand) / (4.0 * np.pi)
    return {
        "M0_term": m0,
        "residual_term": h1,
        "residual_defdiscrete_scalar": (6.0 / np.pi) * h1,
        "continuous_term": complex(continuous),
        "spectral_computable_sum": m0 + h1 + complex(continuous),
    }


# ----------------------------------------------------------------------------
# The ledger: every term of a report


def ledger(T12: SphericalTestFunction, cusp_eigenvalues) -> dict:
    """Every term of the two-term Laurent data of the convolved triple
    T12 = T1 * T2, as the body of a `tf report`: nested dicts of complex,
    float and str values, each term from its function in this module.  The
    hyperbolic term is half the weighted orbital integral at alpha = -1;
    the cuspidal and elliptic remainders are the kernel fit's a_0 minus the
    spectral sum and minus the geometric one, identity + hyperbolic + Tate
    a_0.  Cusp data t_j (s_j = i t_j), or None, adds
    `cusp_display_sum` = sum_j h(i t_j), for display only.
    """
    sp = spectral_side(T12)
    v_spec = tf_minus1_spectral(T12)
    v_geo = tf_minus1_geometric(T12)
    hyper = 0.5 * weighted_orbital_integral(T12, -1)
    ident = identity_term(T12)
    tate = tate_kernel_term(T12)
    fit = two_term_laurent_kernel(T12)
    geo = ident + hyper + tate.a_0
    out = {
        "tf_minus1": {
            "spectral": v_spec,
            "geometric": v_geo,
            "deviation_geo_spec": abs(v_geo - v_spec),
            "deviation_fit_spec": abs(fit.a_minus1 - v_spec),
            "deviation_fit_geo": abs(fit.a_minus1 - v_geo),
        },
        "tf0_terms": {
            **sp,
            "identity_term": ident,
            "hyperbolic_term": hyper,
            "tate_a0": tate.a_0,
            "tate_aminus1": tate.a_minus1,
        },
        "measure_ledger": MEASURE_LEDGER,
        "truncation_fit": {"a_minus1": fit.a_minus1, "a_0": fit.a_0},
        "cuspidal_remainder": fit.a_0 - sp["spectral_computable_sum"],
        "geometric_computable_sum": geo,
        "elliptic_remainder": fit.a_0 - geo,
    }
    if cusp_eigenvalues is not None:
        tj = np.asarray(cusp_eigenvalues, dtype=float)
        out["cusp_display_sum"] = complex(np.sum(np.asarray(T12.h(1j * tj))))
    return out
