"""Verification suites: every spec-level identity as a pass/fail record set.

Each suite builds its own inputs (seeded where sampling is involved) and runs
its checks into the SuiteReport that `run_suite` hands it; the report's
serialization is byte-stable for a fixed config.  `run_all` aggregates and
sets the exit status.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from . import special
from .charged import (
    AdmissibilityError,
    ChargedLaurent,
    charged_product,
    eval_vertical,
    from_pole_table,
    negate_argument,
    numeric_residue,
    polar_consistency_check,
    rational_from_poles,
    residue,
)
from .config import RunConfig
from .corpus import default_corpus
from .halfplane import (
    EisensteinSeries,
    _FD_BASE,
    _FD_STRIP_MX,
    _fd_grids,
    boundary_from_model,
    constant_term,
    constant_term_symmetry_check,
    fd_integrate,
    lattice_eisenstein,
    maass_selberg,
    pseudo_eisenstein_function,
    radon_mellin,
    radon_transform,
    rank_one_plancherel,
    schwartz_boundary,
)
from .special import (
    divisor_sigma,
    gamma,
    intertwining_c,
    kbessel,
    kbessel_imag_order,
    xi,
    zeta,
)
from .torus import (
    AsymptoticallyFiniteFunction,
    CriticalExponentError,
    ExponentTerm,
    log_gaussian_core,
    mellin,
    mellin_inverse,
    plancherel_inner_product,
    pw_decay_profile,
    regularized_inner_product_direct,
    regularized_integral,
)
from .traceformula import (
    EllipticInputError,
    convolve_test_functions,
    gaussian_test_function,
    identity_term,
    kernel_constant_terms,
    ledger,
    spectral_side,
    tate_kernel_term,
    tate_zeta_term,
    tf_minus1_geometric,
    tf_minus1_spectral,
    two_term_laurent,
    weight_v,
    weighted_orbital_integral,
)
from .util import SeltraceError, gl_nodes, panel_gl_nodes

__all__ = ["UnknownSuiteError", "SuiteReport", "run_suite", "run_all", "emit_report", "SUITE_NAMES"]


class UnknownSuiteError(SeltraceError):
    pass


# the line that follows a run with a suite of zero checks, which fails
ZERO_CHECKS = "warning: at least one suite produced zero checks (configuration?)"


@dataclass
class SuiteReport:
    suite: str
    records: list = field(default_factory=list)
    wall_clock: float = 0.0
    config_echo: dict = field(default_factory=dict)
    # per-check seconds; serialized with wall_clock only, never in records
    timings: dict = field(default_factory=dict)

    def add(self, check_id: str, inputs, expected, got, tolerance: float):
        deviation = float(abs(complex(got) - complex(expected)))
        self.records.append(
            {
                "id": check_id,
                "inputs": str(inputs),
                "expected": _fmt(expected),
                "got": _fmt(got),
                "deviation": deviation,
                "tolerance": float(tolerance),
                "pass": bool(deviation <= tolerance),
            }
        )

    def add_bool(self, check_id: str, inputs, condition: bool, detail: str = ""):
        self.records.append(
            {
                "id": check_id,
                "inputs": str(inputs),
                "expected": "True",
                "got": f"{condition}" + (f" ({detail})" if detail else ""),
                "deviation": 0.0 if condition else 1.0,
                "tolerance": 0.0,
                "pass": bool(condition),
            }
        )

    def add_raises(self, check_id: str, inputs, error_type: type, call: Callable):
        """Pass when `call()` raises `error_type`; no error, or an error of
        another type (named in `got`), fails the record."""
        try:
            call()
        except error_type:
            self.add_bool(check_id, inputs, True)
        except Exception as exc:
            self.add_bool(check_id, inputs, False, f"{type(exc).__name__}: {exc}")
        else:
            self.add_bool(check_id, inputs, False)

    @property
    def passed(self) -> bool:
        """Every record passes, and there is at least one: a suite that
        checked nothing (a corpus selection that names no function) fails."""
        return bool(self.records) and all(r["pass"] for r in self.records)

    @property
    def max_deviation(self) -> float:
        return max((r["deviation"] for r in self.records), default=0.0)

    @property
    def headroom(self) -> str:
        """'headroom=<worst deviation/tolerance> <record id>' over the records
        with a positive tolerance; for the summary lines, never the payload."""
        rated = [(r["deviation"] / r["tolerance"], r["id"]) for r in self.records if r["tolerance"] > 0]
        if not rated:
            return "headroom=n/a"
        ratio, check_id = max(rated, key=lambda pair: pair[0])
        return f"headroom={ratio:.3g} {check_id}"

    def payload(self, include_timing: bool = False) -> dict:
        out = {
            "suite": self.suite,
            "records": self.records,
            "config": self.config_echo,
            "passed": self.passed,
        }
        if include_timing:
            out["wall_clock"] = self.wall_clock
            out["timings"] = self.timings
        return out


def _fmt(v) -> str:
    c = complex(v)
    return f"{c.real:.12e}{c.imag:+.12e}j"


# ----------------------------------------------------------------------------
# torus suites


def _suite_torus_plancherel(rep: SuiteReport, cfg: RunConfig):
    corps = default_corpus()
    pairs = [
        ("sharp_x|sharp_invsqrt", corps["sharp_x"], corps["sharp_invsqrt"], 2.0),
        ("gauss|gauss", corps["gauss_unit"], corps["gauss_unit"], math.sqrt(math.pi)),
        ("sharp_sqrt|sharp_sqrt", corps["sharp_sqrt"], corps["sharp_sqrt"], 1.0),
        ("gauss_narrow|smooth_inf", corps["gauss_narrow"], corps["gauss_plus_smooth_inf"], None),
        ("superunitary|gauss", corps["gauss_superunitary"], corps["gauss_unit"], None),
        ("log_term|gauss_narrow", corps["smooth_log_term"], corps["gauss_narrow"], None),
        ("unitary_pv|gauss", corps["gauss_unitary_pv"], corps["gauss_unit"], None),
    ]
    if cfg.corpus:
        pairs = [p for p in pairs if any(tok in p[0] for tok in cfg.corpus)]
        if not pairs:
            return  # zero checks: run_all flags this as a config warning
    tol = cfg.tol("quadrature")
    for name, f1, f2, exact in pairs:
        direct = regularized_inner_product_direct(f1, f2)
        spectral, _ = plancherel_inner_product(f1, f2, 0.0)
        rep.add(f"direct=spectral[{name}]", name, direct, spectral, tol)
        if exact is not None:
            rep.add(f"exact_value[{name}]", name, exact, spectral, tol)
    # superunitary rule: exactly one discrete residue entry at sigma = 0
    _, bd = plancherel_inner_product(corps["gauss_superunitary"], corps["gauss_unit"], 0.0)
    n_res = sum(1 for r in bd if r["term_kind"] == "residue")
    rep.add_bool("superunitary_one_residue", "gauss_superunitary", n_res == 1, f"n={n_res}")
    _, bd = plancherel_inner_product(corps["gauss_unitary_pv"], corps["gauss_unit"], 0.0)
    n_pv = sum(1 for r in bd if r["term_kind"] == "pv_half_residue")
    rep.add_bool("unitary_pv_half_residue", "gauss_unitary_pv", n_pv == 1, f"n={n_pv}")
    # sigma-freedom across the pole at 1/2
    v0, _ = plancherel_inner_product(corps["gauss_narrow"], corps["gauss_plus_smooth_inf"], 0.0)
    v1, _ = plancherel_inner_product(corps["gauss_narrow"], corps["gauss_plus_smooth_inf"], 0.8)
    rep.add("sigma_freedom", "sigma 0 -> 0.8", v0, v1, cfg.tol("analytic"))


def _suite_mellin_roundtrip(rep: SuiteReport, cfg: RunConfig):
    corps = default_corpus()
    tol = cfg.tol("quadrature")
    xgrid = np.exp(np.linspace(-3.0, 3.0, 50))
    cases = [
        ("gauss_unit", corps["gauss_unit"], (-1.5, 0.0, 1.5)),
        ("gauss_shifted", corps["gauss_shifted"], (-1.5, 0.0, 1.5)),
        ("sharp_x+core", AsymptoticallyFiniteFunction(
            core=log_gaussian_core(0.0, 0.8, 0.5),
            terms=(ExponentTerm(1.0, side="zero"),),
        ), (0.0, 1.5, 2.5)),
        ("smooth_log_term", corps["smooth_log_term"], (-1.0, 0.0, 1.2)),
    ]
    for name, f, sigmas in cases:
        F = mellin(f)
        truth = f(xgrid)
        for sg in sigmas:
            vals = mellin_inverse(F, sg, xgrid)
            rep.add(f"roundtrip[{name};sigma={sg}]", name, 0.0, np.max(np.abs(vals - truth)), tol)
    # PV branch: on-contour pole, f = 1_(0,1)
    f0 = AsymptoticallyFiniteFunction(terms=(ExponentTerm(0.0, side="zero"),))
    F0 = mellin(f0)
    rep.add("pv_on_contour[x=0.5]", "F=1/(-s), sigma=0", 1.0, mellin_inverse(F0, 0.0, 0.5), tol)
    rep.add("pv_on_contour[x=2]", "F=1/(-s), sigma=0", 0.0, mellin_inverse(F0, 0.0, 2.0), tol)
    # Mellin derivative identity with finite-difference x d/dx
    g = corps["gauss_unit"]
    s0 = 0.3 + 0.2j
    h = 1e-4
    def dcore(x):
        return (g(x * math.exp(h)) - g(x * math.exp(-h))) / (2.0 * h) - s0 * g(x)
    dfun = AsymptoticallyFiniteFunction(core=dcore)
    Fg = mellin(g)
    Fd = mellin(dfun)
    spts = np.array([0.1 + 1j, -0.5 + 2j, 1.0 - 0.7j])
    dev = np.max(np.abs(Fd(spts) - (spts - s0) * Fg(spts)))
    rep.add("mellin_derivative_identity", f"s0={s0}", 0.0, dev, tol)
    # regularized integral examples
    rep.add("reg_integral[x on (0,1)]", "sharp_x", 1.0, regularized_integral(corps["sharp_x"]), cfg.tol("analytic"))
    rep.add_raises("critical_exponent_raises", "1_(0,1)", CriticalExponentError, lambda: regularized_integral(f0))
    # Paley-Wiener decay profiles
    prof = pw_decay_profile(corps["gauss_unit"], 6)
    rep.add_bool("pw_gaussian_bounded", "N=6", prof["bounded_looking"], f"sup={prof['sup']:.3e}")
    prof2 = pw_decay_profile(corps["sharp_x"], 2)
    rep.add_bool("pw_sharp_flagged", "N=2", not prof2["bounded_looking"], f"sup={prof2['sup']:.3e}")


def _suite_charged_core(rep: SuiteReport, cfg: RunConfig):
    tol = cfg.tol("analytic")
    h1 = rational_from_poles([ChargedLaurent(1.0, plus={-1: -1.0})])
    h2 = rational_from_poles([ChargedLaurent(0.5, minus={-1: 1.0})])
    prod = charged_product(h2, h1)
    rep.add("product_res_minus[1/2]", "h2*h1", 2.0, residue(prod, 0.5, "minus"), tol)
    rep.add("product_res_plus[1]", "h2*h1", -2.0, residue(prod, 1.0, "plus"), tol)
    rep.add(
        "polar_consistency[rational]",
        "h2*h1",
        0.0,
        polar_consistency_check(h2, h1)["max_deviation"],
        1e-9,
    )
    sq = charged_product(h1, h1)
    rep.add("square_double_pole", "h1*h1", 1.0, sq.poles[0].plus.get(-2, 0.0), tol)
    rep.add(
        "polar_consistency[square]", "h1*h1", 0.0, polar_consistency_check(h1, h1)["max_deviation"], 1e-9
    )
    # negation is a charge-swapping involution
    n2 = negate_argument(negate_argument(h1))
    spts = np.array([0.3 + 2j, -1.0 + 0.5j])
    rep.add("negate_involution", "h1", 0.0, np.max(np.abs(n2(spts) - h1(spts))), tol)
    hd = rational_from_poles([ChargedLaurent(0.5, minus={-2: 1.0})])
    nd = negate_argument(hd)
    rep.add("negate_double_pole_coeff", "1/(s-1/2)^2", 1.0, nd.poles[0].plus.get(-2, 0.0), tol)
    rep.add("negate_double_pole_loc", "1/(s-1/2)^2", -0.5, nd.poles[0].location, tol)
    # numeric residue via contour circle
    rep.add("contour_residue", "h1 at 1", -1.0, numeric_residue(h1, 1.0), 1e-8)
    clash = rational_from_poles([ChargedLaurent(1.0, minus={-1: 3.0})])
    rep.add_raises("admissibility_raises", "plus meets minus", AdmissibilityError, lambda: charged_product(h1, clash))
    # serialization roundtrip
    rt = from_pole_table(json.loads(sq.to_json()))
    rep.add("pole_table_roundtrip", "h1^2", 0.0, np.max(np.abs(rt(spts) - sq(spts))), tol)
    # eval_vertical behavior
    from .util import PoleProximityError

    rep.add_raises("pole_proximity_raises", "sigma=1", PoleProximityError, lambda: eval_vertical(h1, 1.0, [0.0, 5.0]))
    c_ch = special.scattering_charged()
    vals = eval_vertical(c_ch, 0.0, np.linspace(0.3, 12.0, 25))
    rep.add("c_unitary_on_line", "|c(it)|", 1.0, float(np.max(np.abs(vals))), 1e-8)


# ----------------------------------------------------------------------------
# special-function suites


def _ct_fit(phi, s0: complex, ys) -> np.ndarray:
    """(a, b) with constant_term(phi, y) = a y^w + b y^(1-w), w = (1 + s0)/2,
    solved from the two heights `ys`."""
    w0 = 0.5 * (1.0 + s0)
    ys = np.asarray(ys)
    cts = np.array([complex(constant_term(phi, y)) for y in ys])
    A = np.array([[y**w0, y ** (1 - w0)] for y in ys])
    return np.linalg.solve(A, cts)


def _suite_functional_equations(rep: SuiteReport, cfg: RunConfig):
    # the c checks run against this local c; the c_sign fault flips it here
    # only, so no other caller of intertwining_c ever sees the flip
    c = (lambda s: -intertwining_c(s)) if cfg.fault_injection == "c_sign" else intertwining_c
    sig = np.linspace(0.1, 0.9, 9)
    ts = np.concatenate([np.linspace(0.0, 40.0, 41)])
    S = (sig[:, None] + 1j * ts[None, :]).ravel()
    dev_xi = float(np.max(np.abs(xi(S) - xi(1.0 - S))))
    rep.add("xi_functional_equation", "grid 0.1..0.9 x |t|<=40", 0.0, dev_xi, 1e-10)
    for re_s in (0.0, 0.3, -0.3):
        tt = np.linspace(0.05, 40.0, 80)
        s = re_s + 1j * tt
        dev_c = float(np.max(np.abs(c(s) * c(-s) - 1.0)))
        rep.add(f"c_times_c_neg[Re={re_s}]", "|t|<=40", 0.0, dev_c, 1e-9)
    rep.add("c_at_zero", "limit", -1.0, c(0.0), cfg.tol("analytic"))
    res_c = numeric_residue(c, 1.0)
    rep.add("c_residue_at_1", "contour circle", 6.0 / math.pi, res_c, cfg.tol("quadrature"))
    rep.add("xi_residue_at_1", "contour circle", 1.0, numeric_residue(lambda s: xi(s), 1.0), 1e-8)
    rep.add("zeta_at_2", "", math.pi**2 / 6.0, zeta(2.0 + 0j), 1e-12)
    rep.add("zeta_at_0", "", -0.5, zeta(0.0 + 0j), 1e-12)
    # Gamma recursion on seeded random samples
    rng = np.random.default_rng(cfg.seed)
    zs = rng.uniform(0.3, 3.0, 12) + 1j * rng.uniform(-8.0, 8.0, 12)
    dev_g = float(np.max(np.abs(gamma(zs + 1.0) / (zs * gamma(zs)) - 1.0)))
    rep.add("gamma_recursion", "12 seeded samples", 0.0, dev_g, 1e-12)
    # derivation oracle for the scattering normalization: constant term of
    # the truncated lattice Eisenstein sum at Re s = 3 fits c(s)
    s0 = 3.0 + 0.4j
    coeffs = _ct_fit(lambda z: np.array([lattice_eisenstein(s0, complex(zq)) for zq in z]), s0, (1.3, 2.1))
    rep.add("c_lattice_oracle[leading]", f"s={s0}", 1.0, coeffs[0], cfg.tol("fd"))
    rep.add("c_lattice_oracle[scattering]", f"s={s0}", c(s0), coeffs[1], cfg.tol("fd"))
    # c'/c: two computation routes and line symmetry
    rep.add("clogd_two_routes", "s=0.3+0.7i", special.c_log_derivative(0.3 + 0.7j),
            special._c_log_derivative_xi(0.3 + 0.7j), cfg.tol("quadrature"))
    rep.add(
        "clogd_even",
        "s=0.4i",
        special.c_log_derivative(0.4j),
        special.c_log_derivative(-0.4j),
        cfg.tol("analytic"),
    )
    rep.add("clogd_real_on_line", "t=1", 0.0, complex(special.c_log_derivative(1j)).imag, 1e-8)
    # K-Bessel spot values
    rep.add("kbessel_half", "K_{1/2}(1)", math.sqrt(math.pi / 2.0) * math.exp(-1.0), kbessel(0.5, 1.0), 1e-10)
    got = kbessel_imag_order(0.0, 1.0)
    rep.add("kbessel_zero_order", "K_0(1)", 0.42102443824070834, got.value, 1e-9)
    # mpmath's besselk(1j, 0.5)
    got = kbessel_imag_order(1.0, 0.5)
    rep.add("kbessel_refinement", "K_i(0.5)", 0.48339609004387797, got.value, 1e-12)
    rep.add("divisor_sigma[6,1]", "", 12.0, divisor_sigma(6, 1.0), 1e-12)
    rep.add("divisor_sigma[12,-1]", "", 7.0 / 3.0, divisor_sigma(12, -1.0), 1e-12)


def _suite_hc_bound(rep: SuiteReport, cfg: RunConfig):
    sigmas = np.linspace(0.0, 2.0, 21)
    ts = np.concatenate([np.arange(0.1, 1.0, 0.1), np.arange(1.0, 40.5, 0.5)])
    T_required = 0.0
    ok = True
    worst = None
    for sg in sigmas:
        s = sg + 1j * ts
        away = np.abs(s - 1.0) > 0.2 if sg > 0 else np.ones_like(ts, dtype=bool)
        vals = np.abs(intertwining_c(s[away]))
        bound5 = np.exp(2.0 * 5.0 * sg) * (1.0 + 2.0 * np.abs(sg / ts[away])) + 1e-10
        if np.any(vals > bound5):
            ok = False
            worst = (sg, float(ts[away][np.argmax(vals - bound5)]))
        if sg > 0:
            need = np.log(vals / (1.0 + 2.0 * np.abs(sg / ts[away]))) / (2.0 * sg)
            T_required = max(T_required, float(np.max(need)))
    rep.add_bool("strip_bound_T5", "0<=sigma<=2, 0.1<=|t|<=40", ok, f"worst={worst}")
    rep.add_bool(
        "minimal_T_reported",
        "grid (pole ring |s-1|<=0.2 excluded)",
        T_required <= 5.0,
        f"min feasible T = {max(T_required, 0.0):.4f}",
    )


# ----------------------------------------------------------------------------
# automorphic suites


def _ms_pairs():
    return [
        (2j, 3j),
        (0.5 + 2j, 0.5 - 2j),
        (0.4 + 2j, 0.3j),
        (1.5j, 0.6 + 1j),
    ]


def _suite_maass_selberg(rep: SuiteReport, cfg: RunConfig):
    tol = cfg.tol("fd")
    for s1, s2 in _ms_pairs():
        for T in cfg.ms_T:
            t0 = time.perf_counter()
            lhs, rhs, dev = maass_selberg(s1, s2, T)
            dt_run = time.perf_counter() - t0
            check_id = f"ms[s1={s1},s2={s2},T={T}]"
            rep.add(check_id, "", rhs, lhs, tol)
            rep.timings[check_id] = dt_run
    # positivity for a conjugate pair
    lhs, rhs, dev = maass_selberg(0.5 + 2j, 0.5 - 2j, 1.0)
    rep.add_bool("ms_conjugate_positive", "s2 = conj(s1)", complex(lhs).real >= 0.0, f"lhs={lhs}")
    from .halfplane import DegenerateParameterError

    rep.add_raises("ms_degenerate_raises", "s1=-s2", DegenerateParameterError, lambda: maass_selberg(0.7j, -0.7j, 1.0))


def _suite_constant_term_symmetry(rep: SuiteReport, cfg: RunConfig):
    tol = cfg.tol("fd")
    for name, (mu, sg) in (("f_a", (0.0, 0.5)), ("f_b", (0.3, 0.6))):
        f = schwartz_boundary(mu, sg)
        phi = pseudo_eisenstein_function(f)
        dev = constant_term_symmetry_check(phi)
        rep.add(f"ct_symmetry[{name}]", f"mu={mu},sigma={sg}, t in [0,10]", 0.0, dev, tol)
    # Eisenstein case: fit the two constant-term coefficients from heights and
    # compare against the scattering scalar (closed-form identity)
    s0 = 0.4 + 2.0j
    coeffs = _ct_fit(EisensteinSeries(s0), s0, (1.7, 2.6))
    rep.add("eis_ct_leading", f"s={s0}", 1.0, coeffs[0], cfg.tol("quadrature"))
    rep.add("eis_ct_scattering", f"s={s0}", intertwining_c(s0), coeffs[1], cfg.tol("quadrature"))
    # zero constant term trivially satisfies the symmetry
    zero_f = boundary_from_model(AsymptoticallyFiniteFunction(core=None))
    dev0 = constant_term_symmetry_check(pseudo_eisenstein_function(zero_f))
    rep.add("zero_function", "f=0", 0.0, dev0, 1e-14)


def _suite_rank_one(rep: SuiteReport, cfg: RunConfig):
    tol = cfg.tol("fd")

    f0 = schwartz_boundary(0.0, 0.5)
    m_exp = AsymptoticallyFiniteFunction(
        core=log_gaussian_core(0.0, 0.5, 0.7),
        terms=(ExponentTerm(0.5, (1.0,), side="infinity", carrier="smooth"),),
    )
    psi = {
        name: pseudo_eisenstein_function(f)
        for name, f in (
            ("f0", f0),
            ("f_a", schwartz_boundary(0.3, 0.6)),
            ("f_c1", schwartz_boundary(-0.2, 0.45)),
            ("f_c2", schwartz_boundary(0.2, 0.55)),
            ("f_J", boundary_from_model(m_exp)),
        )
    }
    pairs = [
        ("schwartz_a", "f0", "f_a"),
        ("schwartz_b", "f0", "f0"),
        ("schwartz_c", "f_c1", "f_c2"),
        ("exponent_J", "f0", "f_J"),
    ]
    # fd_integrate's rule up to Y = 16 plus the tail int_Y^inf ct1 ct2 dy/y^2
    # in y = Y e^v: each Psi f is evaluated once per region and once on the
    # tail heights, and each pair is summed in fd_integrate's order
    Y = 16.0
    Z1, W1, Z2, W2 = _fd_grids(Y, _FD_BASE, _FD_BASE, _FD_STRIP_MX)
    v, w = gl_nodes(0.0, 8.0, 240)
    y_tail, w_tail = Y * np.exp(v), w * np.exp(-v)
    vals = {name: (*map(p.on_grid, (Z1, Z2)), p.ct(y_tail)) for name, p in psi.items()}

    for name, a, b in pairs:
        p1, p2 = psi[a], psi[b]
        val, bd = rank_one_plancherel(p1, p2)
        (a1, a2, a_tail), (b1, b2, b_tail) = vals[a], vals[b]
        tail = np.sum(a_tail * b_tail * w_tail) / Y
        fd = complex(np.sum(a1 * b1 * W1) + np.sum(a2 * b2 * W2) + tail)
        rep.add(f"plancherel=fd[{name}]", name, fd, val, tol)
        if name == "schwartz_a":
            adjoint = (p1.f, p2, fd)
        if name == "exponent_J":
            has_j = any(r["term_kind"].startswith("exponent_J") for r in bd)
            rep.add_bool("exponent_J_present", name, has_j)
        if name == "schwartz_b":
            # residual line = product of the projections onto constants
            F1 = p1.f.transform()
            resid = next(r["value"] for r in bd if r["term_kind"] == "residual")
            proj = (12.0 / math.pi) * complex(F1(1.0)) ** 2
            rep.add("residual=projection_product", name, proj, resid, cfg.tol("quadrature"))
    # adjunction: fd(Psi f * phi) = boundary pairing of f against ct(phi), on
    # the schwartz_a pair.  ct(phi) is taken only where the weight f is above
    # 1e-18 of its peak: the deep heights (f ~ e^-72 at y = 6e-6) would need
    # O(y^-1/2) cosets each for terms that cannot reach the sum
    f1, p2, fd12 = adjoint
    u = np.linspace(-6.0, 10.0, 700)
    du = u[1] - u[0]
    xs = np.exp(u)
    gvals = f1.model_values(xs)
    seen = np.abs(gvals) >= 1e-18 * np.max(np.abs(gvals))
    ct2 = np.zeros(xs.size, dtype=complex)
    ct2[seen] = p2.ct(xs[seen] ** 2)
    boundary = 2.0 * np.sum(gvals * (ct2 / xs) * du)  # dy/y^2 = 2 x^-2 d*x
    rep.add("adjunction", "Psi f1 vs f2", boundary, fd12, tol)
    # Radon decay and spectral identity
    ys = np.exp(np.array([6.0, 8.0, 10.0, 12.0, 14.0]))
    rv = np.abs(radon_transform(f0, ys)) * ys**5
    decays = bool(np.all(np.diff(rv) <= 1e-12) and rv[-1] < 1e-4)
    rep.add_bool("radon_rapid_decay", "Rf*y^5 on y=e^6..e^14", decays, f"{rv}")
    F = f0.transform()
    for tv in (1.0, 3.0):
        lhs = radon_mellin(f0, 1j * tv)
        rhs = intertwining_c(-1j * tv) * complex(F(-1j * tv))
        rep.add(f"radon_spectral_identity[t={tv}]", "", rhs, lhs, cfg.tol("fd"))
    # germ at the cusp is preserved by the pseudo-Eisenstein sum
    m_asym = AsymptoticallyFiniteFunction(
        core=log_gaussian_core(0.0, 0.5, 0.4),
        terms=(ExponentTerm(-0.5, (1.0,), side="infinity", carrier="smooth"),),
    )
    fb = boundary_from_model(m_asym)
    phi = pseudo_eisenstein_function(fb)
    yprobe = math.exp(6.0)
    got = complex(constant_term(phi, yprobe)) / yprobe ** (0.25)
    rep.add("germ_identity", "s0=-0.5 at y=e^6", 1.0, got, cfg.tol("quadrature"))
    # fundamental domain volume
    vol = fd_integrate(lambda z: np.ones_like(z, dtype=complex), Ymax=50.0, tail=lambda Y: 1.0 / Y,
                       nx=_FD_BASE, ny=_FD_BASE)
    rep.add("fd_volume", "integrand=1", math.pi / 3.0, vol, cfg.tol("quadrature"))


def _suite_kernel_relations(rep: SuiteReport, cfg: RunConfig):
    T = gaussian_test_function(0.8)
    diag, adiag = kernel_constant_terms(T)
    ts = np.linspace(0.05, 12.0, 40)
    s = 1j * ts
    c_m = intertwining_c(-s)
    c_p = intertwining_c(s)
    r1 = float(np.max(np.abs(diag(s) - c_m * c_p * diag(-s))))
    r2 = float(np.max(np.abs(adiag(s) - c_m**2 * adiag(-s))))
    r3 = float(np.max(np.abs(adiag(s) - c_m * diag(-s))))
    tol = cfg.tol("analytic")
    rep.add("diag_to_diag", "Re s = 0", 0.0, r1, 1e-10)
    rep.add("adiag_to_adiag", "Re s = 0", 0.0, r2, tol)
    rep.add("diag_to_adiag", "Re s = 0", 0.0, r3, tol)
    rep.add("adiag_to_adiag[s=0.7i]", "", complex(adiag(np.array([0.7j]))[0]),
            complex((intertwining_c(-0.7j) ** 2) * adiag(np.array([-0.7j]))[0]), tol)
    h1 = complex(np.asarray(T.h(np.array([1.0 + 0j])))[0])
    rep.add("adiag_pole_residue", "s=-1", -(6.0 / math.pi) * h1, adiag.poles[0].plus[-1], tol)


def _suite_tf_minus1(rep: SuiteReport, cfg: RunConfig):
    tol = cfg.tol("tf")
    # pinned Gaussian spectral value
    T1 = gaussian_test_function(1.0)
    T11 = convolve_test_functions(T1, T1)
    v_spec1 = tf_minus1_spectral(T11)
    rep.add("gaussian_spectral_value", "width 1", -1.0 / math.sqrt(2.0 * math.pi), v_spec1, 1e-7)
    rep.add("sigma_shift_invariance", "Re s = 0.2", v_spec1, tf_minus1_spectral(T11, sigma=0.2), cfg.tol("analytic"))
    v_geo1 = tf_minus1_geometric(T11)
    rep.add("triangle_geo_spec[width1]", "", v_spec1, v_geo1, 1e-10)
    # full triangle on the narrow pair (kernel truncation fit included)
    Tn = gaussian_test_function(0.5)
    led = ledger(convolve_test_functions(Tn, Tn), None)
    v_spec, v_geo = led["tf_minus1"]["spectral"], led["tf_minus1"]["geometric"]
    fit = led["truncation_fit"]
    rep.add("triangle_geo_spec[width0.5]", "", v_spec, v_geo, 1e-10)
    rep.add("triangle_fit_spec[width0.5]", "", v_spec, fit["a_minus1"], tol)
    rep.add("triangle_fit_geo[width0.5]", "", v_geo, fit["a_minus1"], tol)
    # model truncation fits
    ind = AsymptoticallyFiniteFunction(terms=(ExponentTerm(0.0, side="infinity"),))
    lau = two_term_laurent(ind, ind)
    rep.add("model_fit_aminus1", "F=phi=1_[1,inf)", -1.0, lau.a_minus1, 1e-8)
    rep.add("model_fit_a0", "F=phi=1_[1,inf)", 0.0, lau.a_0, 1e-8)

    def with_exp_tail(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 1.0, np.exp(-x), 0.0)

    f2 = AsymptoticallyFiniteFunction(core=with_exp_tail, terms=(ExponentTerm(0.0, side="infinity"),))
    lau2 = two_term_laurent(ind, f2)
    e1_val = 0.21938393439552062  # int_1^inf e^-x dx/x
    rep.add("model_fit_mixed_aminus1", "1 + e^-x tail", -1.0, lau2.a_minus1, 1e-6)
    rep.add("model_fit_mixed_a0", "1 + e^-x tail", e1_val, lau2.a_0, 1e-6)
    # full constant-coefficient consistency: fit a0 against the computable
    # spectral terms (the cuspidal content of the width-0.5 pair is
    # h(i t_1)^2 = 1.8e-20 at t_1 = 19.07, so the remainder is quadrature
    # noise)
    rep.add("tf0_cusp_remainder", "width 0.5 pair", led["tf0_terms"]["spectral_computable_sum"], fit["a_0"], 5e-6)


def _suite_geometric_terms(rep: SuiteReport, cfg: RunConfig):
    rep.add("weight_v[0]", "", 0.0, weight_v(0.0), 1e-14)
    rep.add("weight_v[1]", "", 0.5 * math.log(2.0), weight_v(1.0), 1e-12)
    # volume-definition oracle at t = 2: the conditions are evaluated from
    # actual Moebius heights of a n_t . i = u (t + i), with the torus measure
    # taken in the dominant-weight coordinate Delta(a) = sqrt(u).  Each height
    # is monotone in log u and both lie below 1 between their crossings of 1
    t_val = 2.0
    l_hi = _crossing_of_one(lambda u: math.sqrt(complex(u * t_val, u).imag), -8.0, 8.0)
    l_lo = _crossing_of_one(lambda u: math.sqrt((-1.0 / complex(u * t_val, u)).imag), -8.0, 8.0)
    rep.add("weight_volume_oracle[t=2]", "bisection in log u", weight_v(2.0), 0.5 * (l_hi - l_lo), 1e-14)
    T = gaussian_test_function(0.8)
    # unweighted orbital integral vs geodesic-polar coordinates
    direct = weighted_orbital_integral(T, -1, weighted=False)
    d, dw = panel_gl_nodes(np.linspace(0.0, 9.0, 121), 12)
    polar = 4.0 * np.sum(np.asarray(T.k(4.0 * np.sinh(d) ** 2)) * np.cosh(d) * dw)
    rep.add("orbital_geodesic_polar", "alpha=-1", direct, polar, cfg.tol("fd"))
    # linearity and zero function
    woi = weighted_orbital_integral(T, -1)
    rep.add_bool("orbital_linearity", "2k vs k", abs(2.0 * woi - _scaled_woi(T, 2.0)) < 1e-10, "")
    rep.add("orbital_vanishing[alpha=2]", "level-1 unit Hecke", 0.0, weighted_orbital_integral(T, 2), 1e-14)
    rep.add_raises("elliptic_input_raises", "alpha=1", EllipticInputError, lambda: weighted_orbital_integral(T, 1))
    # identity term and the transform-chain oracle for the residual line
    idt = identity_term(T)
    rep.add("identity_term", "(pi/3) k(0)", (math.pi / 3.0) * float(np.asarray(T.k(0.0))), idt, 1e-12)
    un, uw2 = panel_gl_nodes(np.linspace(0.0, 8.0, 81), 10)
    l, lw = panel_gl_nodes(np.linspace(math.log(8.0), 14.0, 30), 10)
    un = np.concatenate([un, np.exp(l)])
    uw2 = np.concatenate([uw2, np.exp(l) * lw])
    resid_oracle = math.pi * float(np.sum(np.asarray(T.k(un)) * uw2))
    h_at_1 = complex(np.asarray(T.h(np.array([1.0 + 0j])))[0])
    rep.add("residual_line_oracle", "pi int k = h(1)", h_at_1, resid_oracle, 1e-9)
    # k(0) of the Abel chain against its Plancherel integral, relative
    for W in (0.3, 0.5, 1.0):
        Tw = gaussian_test_function(W)
        T12 = convolve_test_functions(Tw, Tw)
        k0_ref = _k0_plancherel(T12)
        rep.add(f"k0_plancherel[width{W:g}]", "T*T", k0_ref, float(np.asarray(T12.k(0.0))), 1e-11 * k0_ref)
    # spectral side shape
    sp = spectral_side(convolve_test_functions(T, T))
    rep.add("M0_term", "c(0) = -1", -0.25 * complex(np.asarray(T.h(np.zeros(1, complex)))[0]) ** 2, sp["M0_term"], 1e-12)
    rep.add_bool("continuous_term_real", "", abs(sp["continuous_term"].imag) < 1e-8, f"{sp['continuous_term']}")


def _k0_plancherel(T12) -> float:
    """k(0) = (1/4 pi) int_R h(2ir) r tanh(pi r) dr, by the midpoint rule with
    step at most 1e-2 on 0 <= r <= t_max/2 (the integrand is even)."""
    n = math.ceil(50.0 * T12.t_max)
    dr = 0.5 * T12.t_max / n
    r = (np.arange(n) + 0.5) * dr
    return float(np.sum(np.real(T12.h(2j * r)) * r * np.tanh(np.pi * r))) * dr / (2.0 * np.pi)


def _crossing_of_one(height: Callable, lo: float, hi: float) -> float:
    """The log u in [lo, hi] where a monotone height(u) crosses 1, by 64
    bisection steps in log u (an interval of 2^-64 (hi - lo))."""
    above_hi = height(math.exp(hi)) > 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if (height(math.exp(mid)) > 1.0) == above_hi:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _scaled_woi(T, factor: float):
    return weighted_orbital_integral(replace(T, k=lambda u: factor * np.asarray(T.k(u))), -1)


def _suite_tate_zeta(rep: SuiteReport, cfg: RunConfig):
    lau, Z = tate_zeta_term(lambda x: np.exp(-np.pi * x**2))
    for w0 in (1.5, 2.0, 3.0):
        rep.add(f"tate_is_xi[w={w0}]", "Gaussian x lattice", complex(xi(complex(w0))), Z(w0), 1e-8)
    rep.add("tate_aminus1", "-2 Fhat(0) Vol", -2.0, lau.a_minus1, cfg.tol("quadrature"))
    # the constant term of xi at 1
    rep.add("tate_a0_finite_part", "xi finite part at 1", 0.5 * (np.euler_gamma - math.log(4.0 * math.pi)),
            lau.a_0, 1e-10)
    lau0, _ = tate_zeta_term(lambda x: np.zeros_like(np.asarray(x)))
    rep.add("tate_zero_profile[a-1]", "F=0", 0.0, lau0.a_minus1, 1e-14)
    rep.add("tate_zero_profile[a0]", "F=0", 0.0, lau0.a_0, 1e-14)
    # residue consistency against the unipotent slice of the geometric sum
    T1 = gaussian_test_function(0.5)
    T12 = convolve_test_functions(T1, T1)
    rep.add("tate_unipotent_slice", "a-1 = -2 int k(x^2) dx", tf_minus1_geometric(T12),
            tate_kernel_term(T12).a_minus1, 1e-11)


SUITES = {
    "torus-plancherel": _suite_torus_plancherel,
    "mellin-roundtrip": _suite_mellin_roundtrip,
    "charged-core": _suite_charged_core,
    "functional-equations": _suite_functional_equations,
    "hc-bound": _suite_hc_bound,
    "maass-selberg": _suite_maass_selberg,
    "constant-term-symmetry": _suite_constant_term_symmetry,
    "rank-one-plancherel": _suite_rank_one,
    "kernel-relations": _suite_kernel_relations,
    "tf-minus1": _suite_tf_minus1,
    "geometric-terms": _suite_geometric_terms,
    "tate-zeta": _suite_tate_zeta,
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, config: RunConfig | None = None) -> SuiteReport:
    if name not in SUITES:
        raise UnknownSuiteError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    cfg = config or RunConfig()
    rep = SuiteReport(name, config_echo=asdict(cfg))
    t0 = time.perf_counter()
    SUITES[name](rep, cfg)
    rep.wall_clock = time.perf_counter() - t0
    return rep


def run_all(config: RunConfig | None = None, names=None):
    """Run every suite; returns (exit_code, reports, summary_lines)."""
    cfg = config or RunConfig()
    names = tuple(names or SUITE_NAMES)
    reports = [run_suite(name, cfg) for name in names]
    lines = [
        f"{r.suite:26s} checks={len(r.records):3d} max_dev={r.max_deviation:9.2e} "
        f"time={r.wall_clock:7.1f}s {'PASS' if r.passed else 'FAIL'} {r.headroom}"
        for r in reports
    ]
    if not all(r.records for r in reports):
        lines.append(ZERO_CHECKS)
    return (0 if all(r.passed for r in reports) else 1), reports, lines


def emit_report(report: SuiteReport | list, path: str, fmt: str = "json", include_timing: bool = False):
    """Serialize report(s); byte-stable for identical config and seed."""
    reports = report if isinstance(report, list) else [report]
    if fmt == "json":
        payload = [r.payload(include_timing) for r in reports]
        text = json.dumps(payload if len(payload) > 1 else payload[0], sort_keys=True, indent=1)
    elif fmt == "csv":
        buf = io.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(["suite", "id", "inputs", "expected", "got", "deviation", "tolerance", "pass"])
        for r in reports:
            for rec in r.records:
                wr.writerow(
                    [
                        r.suite,
                        rec["id"],
                        rec["inputs"],
                        rec["expected"],
                        rec["got"],
                        f"{rec['deviation']:.12e}",
                        f"{rec['tolerance']:.6e}",
                        rec["pass"],
                    ]
                )
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)
    return path
