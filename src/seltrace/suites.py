"""Verification suites: every spec-level identity as a pass/fail record set.

Each suite builds its own inputs (seeded where sampling is involved), runs
the checks, and returns a SuiteReport whose serialization is byte-stable for
a fixed config.  `run_all` aggregates and sets the exit status.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

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
    gaussian_test_function,
    identity_term,
    kernel_constant_terms,
    spectral_side,
    tate_zeta_term,
    tf_minus1_geometric,
    tf_minus1_spectral,
    two_term_laurent,
    two_term_laurent_kernel,
    weight_v,
    weighted_orbital_integral,
)
from .util import SeltraceError, gl_nodes, panel_gl_nodes

__all__ = ["UnknownSuiteError", "SuiteReport", "run_suite", "run_all", "emit_report", "SUITE_NAMES"]


class UnknownSuiteError(SeltraceError):
    pass


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

    @property
    def passed(self) -> bool:
        return all(r["pass"] for r in self.records)

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


def _config_echo(cfg: RunConfig) -> dict:
    return asdict(cfg)


# ----------------------------------------------------------------------------
# torus suites


def _suite_torus_plancherel(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("torus-plancherel", config_echo=_config_echo(cfg))
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
            return rep  # zero checks: run_all flags this as a config warning
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
    return rep


def _suite_mellin_roundtrip(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("mellin-roundtrip", config_echo=_config_echo(cfg))
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
    try:
        regularized_integral(f0)
        rep.add_bool("critical_exponent_raises", "1_(0,1)", False)
    except CriticalExponentError:
        rep.add_bool("critical_exponent_raises", "1_(0,1)", True)
    # Paley-Wiener decay profiles
    prof = pw_decay_profile(corps["gauss_unit"], (-1.0, 1.0), 6)
    rep.add_bool("pw_gaussian_bounded", "N=6", prof["bounded_looking"], f"sup={prof['sup']:.3e}")
    prof2 = pw_decay_profile(corps["sharp_x"], (-1.0, 1.0), 2)
    rep.add_bool("pw_sharp_flagged", "N=2", not prof2["bounded_looking"], f"sup={prof2['sup']:.3e}")
    return rep


def _suite_charged_core(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("charged-core", config_echo=_config_echo(cfg))
    tol = cfg.tol("analytic")
    h1 = rational_from_poles([ChargedLaurent(1.0, plus={-1: -1.0})], label="1/(1-s)")
    h2 = rational_from_poles([ChargedLaurent(0.5, minus={-1: 1.0})], label="1/(s-1/2)")
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
    rep.add("contour_residue", "h1 at 1", -1.0, numeric_residue(h1, 1.0, radius=1e-2), 1e-8)
    try:
        charged_product(h1, rational_from_poles([ChargedLaurent(1.0, minus={-1: 3.0})]))
        rep.add_bool("admissibility_raises", "plus meets minus", False)
    except AdmissibilityError:
        rep.add_bool("admissibility_raises", "plus meets minus", True)
    # serialization roundtrip
    rt = from_pole_table(json.loads(sq.to_json()))
    rep.add("pole_table_roundtrip", "h1^2", 0.0, np.max(np.abs(rt(spts) - sq(spts))), tol)
    # eval_vertical behavior
    from .util import PoleProximityError

    try:
        eval_vertical(h1, 1.0, [0.0, 5.0])
        rep.add_bool("pole_proximity_raises", "sigma=1", False)
    except PoleProximityError:
        rep.add_bool("pole_proximity_raises", "sigma=1", True)
    c_ch = special.ScatteringScalar().as_charged()
    vals = eval_vertical(c_ch, 0.0, np.linspace(0.3, 12.0, 25))
    rep.add("c_unitary_on_line", "|c(it)|", 1.0, float(np.max(np.abs(vals))), 1e-8)
    return rep


# ----------------------------------------------------------------------------
# special-function suites


def _suite_functional_equations(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("functional-equations", config_echo=_config_echo(cfg))
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
    res_c = numeric_residue(c, 1.0, radius=1e-2)
    rep.add("c_residue_at_1", "contour circle", 6.0 / math.pi, res_c, cfg.tol("quadrature"))
    rep.add("xi_residue_at_1", "contour circle", 1.0, numeric_residue(lambda s: xi(s), 1.0, radius=1e-2), 1e-8)
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
    w0 = 0.5 * (1.0 + s0)
    ys = np.array([1.3, 2.1])
    cts = []
    for yv in ys:
        xs_q = (np.arange(64) + 0.5) / 64.0 - 0.5
        vals = np.array([lattice_eisenstein(s0, complex(xq, yv)) for xq in xs_q])
        cts.append(np.mean(vals))
    A = np.array([[ys[0] ** w0, ys[0] ** (1 - w0)], [ys[1] ** w0, ys[1] ** (1 - w0)]])
    coeffs = np.linalg.solve(A, np.array(cts))
    rep.add("c_lattice_oracle[leading]", f"s={s0}", 1.0, coeffs[0], cfg.tol("fd"))
    rep.add("c_lattice_oracle[scattering]", f"s={s0}", c(s0), coeffs[1], cfg.tol("fd"))
    # c'/c: two computation routes and line symmetry
    v, alt = special.c_log_derivative(0.3 + 0.7j, cross_check=True)
    rep.add("clogd_two_routes", "s=0.3+0.7i", v, alt, cfg.tol("quadrature"))
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
    fine = kbessel(1j, 0.5)
    coarse = kbessel_imag_order(1.0, 0.5).value
    rep.add("kbessel_refinement", "K_i(0.5)", fine, coarse, 1e-9)
    rep.add("divisor_sigma[6,1]", "", 12.0, divisor_sigma(6, 1.0), 1e-12)
    rep.add("divisor_sigma[12,-1]", "", 7.0 / 3.0, divisor_sigma(12, -1.0), 1e-12)
    return rep


def _suite_hc_bound(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("hc-bound", config_echo=_config_echo(cfg))
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
    return rep


# ----------------------------------------------------------------------------
# automorphic suites


def _ms_pairs():
    return [
        (2j, 3j),
        (0.5 + 2j, 0.5 - 2j),
        (0.4 + 2j, 0.3j),
        (1.5j, 0.6 + 1j),
    ]


def _suite_maass_selberg(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("maass-selberg", config_echo=_config_echo(cfg))
    tol = cfg.tol("fd")
    for s1, s2 in _ms_pairs():
        for T in cfg.ms_T:
            t0 = time.perf_counter()
            lhs, rhs, dev = maass_selberg(s1, s2, T, nx=cfg.nx, ny=cfg.ny)
            dt_run = time.perf_counter() - t0
            check_id = f"ms[s1={s1},s2={s2},T={T}]"
            rep.add(check_id, f"nx={cfg.nx},ny={cfg.ny}", rhs, lhs, tol)
            rep.timings[check_id] = dt_run
            if dt_run > 60.0:
                rep.add_bool(f"ms_runtime[s1={s1},s2={s2},T={T}]", "", False, f"{dt_run:.1f}s")
    # positivity for a conjugate pair
    lhs, rhs, dev = maass_selberg(0.5 + 2j, 0.5 - 2j, 1.0, nx=cfg.nx, ny=cfg.ny)
    rep.add_bool("ms_conjugate_positive", "s2 = conj(s1)", complex(lhs).real >= 0.0, f"lhs={lhs}")
    from .halfplane import DegenerateParameterError

    try:
        maass_selberg(0.7j, -0.7j, 1.0)
        rep.add_bool("ms_degenerate_raises", "s1=-s2", False)
    except DegenerateParameterError:
        rep.add_bool("ms_degenerate_raises", "s1=-s2", True)
    return rep


def _suite_constant_term_symmetry(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("constant-term-symmetry", config_echo=_config_echo(cfg))
    tol = cfg.tol("fd")
    for name, (mu, sg) in (("f_a", (0.0, 0.5)), ("f_b", (0.3, 0.6))):
        f = schwartz_boundary(mu, sg)
        phi = pseudo_eisenstein_function(f)
        dev = constant_term_symmetry_check(phi)
        rep.add(f"ct_symmetry[{name}]", f"mu={mu},sigma={sg}, t in [0,10]", 0.0, dev, tol)
    # Eisenstein case: fit the two constant-term coefficients from heights and
    # compare against the scattering scalar (closed-form identity)
    s0 = 0.4 + 2.0j
    E = EisensteinSeries(s0)
    w0 = 0.5 * (1.0 + s0)
    ys = np.array([1.7, 2.6])
    cts = np.array([complex(constant_term(E, y)) for y in ys])
    A = np.array([[ys[0] ** w0, ys[0] ** (1 - w0)], [ys[1] ** w0, ys[1] ** (1 - w0)]])
    coeffs = np.linalg.solve(A, cts)
    rep.add("eis_ct_leading", f"s={s0}", 1.0, coeffs[0], cfg.tol("quadrature"))
    rep.add("eis_ct_scattering", f"s={s0}", intertwining_c(s0), coeffs[1], cfg.tol("quadrature"))
    # zero constant term trivially satisfies the symmetry
    zero_f = boundary_from_model(AsymptoticallyFiniteFunction(core=None))
    dev0 = constant_term_symmetry_check(pseudo_eisenstein_function(zero_f))
    rep.add("zero_function", "f=0", 0.0, dev0, 1e-14)
    return rep


def _suite_rank_one(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("rank-one-plancherel", config_echo=_config_echo(cfg))
    tol = cfg.tol("fd")

    def ct_tail(p1, p2):
        def tail(Y):
            v, w = gl_nodes(0.0, 8.0, 240)
            y = Y * np.exp(v)
            return np.sum(np.asarray(p1.ct(y)) * np.asarray(p2.ct(y)) * (w * np.exp(-v))) / Y

        return tail

    pairs = [
        ("schwartz_a", schwartz_boundary(0.0, 0.5), schwartz_boundary(0.3, 0.6)),
        ("schwartz_b", schwartz_boundary(0.0, 0.5), schwartz_boundary(0.0, 0.5)),
        ("schwartz_c", schwartz_boundary(-0.2, 0.45), schwartz_boundary(0.2, 0.55)),
    ]
    m_exp = AsymptoticallyFiniteFunction(
        core=log_gaussian_core(0.0, 0.5, 0.7),
        terms=(ExponentTerm(0.5, (1.0,), side="infinity", carrier="smooth"),),
    )
    pairs.append(("exponent_J", schwartz_boundary(0.0, 0.5), boundary_from_model(m_exp)))

    for name, f1, f2 in pairs:
        p1 = pseudo_eisenstein_function(f1)
        p2 = pseudo_eisenstein_function(f2)
        val, bd = rank_one_plancherel(p1, p2)

        def integrand(z, _p1=p1, _p2=p2):
            return _p1.on_grid(z) * _p2.on_grid(z)

        fd = fd_integrate(integrand, Ymax=16.0, tail=ct_tail(p1, p2), nx=140, ny=140)
        rep.add(f"plancherel=fd[{name}]", name, fd, val, tol)
        if name == "exponent_J":
            has_j = any(r["term_kind"].startswith("exponent_J") for r in bd)
            rep.add_bool("exponent_J_present", name, has_j)
        if name == "schwartz_b":
            # residual line = product of the projections onto constants
            F1 = f1.transform()
            resid = next(r["value"] for r in bd if r["term_kind"] == "residual")
            proj = (12.0 / math.pi) * complex(F1(1.0)) ** 2
            rep.add("residual=projection_product", name, proj, resid, cfg.tol("quadrature"))
    # adjunction: fd(Psi f * phi) = boundary pairing of f against ct(phi)
    f1 = schwartz_boundary(0.0, 0.5)
    f2 = schwartz_boundary(0.3, 0.6)
    p1 = pseudo_eisenstein_function(f1)
    p2 = pseudo_eisenstein_function(f2)
    u = np.linspace(-6.0, 10.0, 700)
    du = u[1] - u[0]
    xs = np.exp(u)
    gvals = f1.model_values(xs)
    ct2 = np.asarray(p2.ct(xs**2))
    boundary = 2.0 * np.sum(gvals * (ct2 / xs) * du)  # dy/y^2 = 2 x^-2 d*x

    def integrand12(z):
        return p1.on_grid(z) * p2.on_grid(z)

    fd12 = fd_integrate(integrand12, Ymax=16.0, tail=ct_tail(p1, p2), nx=140, ny=140)
    rep.add("adjunction", "Psi f1 vs f2", boundary, fd12, tol)
    # Radon decay and spectral identity
    f = schwartz_boundary(0.0, 0.5)
    ys = np.exp(np.array([6.0, 8.0, 10.0, 12.0, 14.0]))
    rv = np.abs(radon_transform(f, ys)) * ys**5
    decays = bool(np.all(np.diff(rv) <= 1e-12) and rv[-1] < 1e-4)
    rep.add_bool("radon_rapid_decay", "Rf*y^5 on y=e^6..e^14", decays, f"{rv}")
    F = f.transform()
    for tv in (1.0, 3.0):
        lhs = radon_mellin(f, 1j * tv)
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
                       nx=cfg.nx, ny=cfg.ny)
    rep.add("fd_volume", "integrand=1", math.pi / 3.0, vol, cfg.tol("quadrature"))
    return rep


def _suite_kernel_relations(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("kernel-relations", config_echo=_config_echo(cfg))
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
    return rep


def _suite_tf_minus1(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("tf-minus1", config_echo=_config_echo(cfg))
    tol = cfg.tol("tf")
    # pinned Gaussian spectral value
    T1 = gaussian_test_function(1.0)
    v_spec1 = tf_minus1_spectral(T1, T1)
    rep.add("gaussian_spectral_value", "width 1", -1.0 / math.sqrt(2.0 * math.pi), v_spec1, 1e-7)
    rep.add("sigma_shift_invariance", "Re s = 0.2", v_spec1, tf_minus1_spectral(T1, T1, sigma=0.2), cfg.tol("analytic"))
    v_geo1 = tf_minus1_geometric(T1, T1)
    rep.add("triangle_geo_spec[width1]", "", v_spec1, v_geo1, tol)
    # full triangle on the narrow pair (kernel truncation fit included)
    Tn = gaussian_test_function(0.5)
    v_spec = tf_minus1_spectral(Tn, Tn)
    v_geo = tf_minus1_geometric(Tn, Tn)
    fit = two_term_laurent_kernel(Tn, Tn, u_max=cfg.kernel_u_max)
    rep.add("triangle_geo_spec[width0.5]", "", v_spec, v_geo, tol)
    rep.add("triangle_fit_spec[width0.5]", "", v_spec, fit.a_minus1, tol)
    rep.add("triangle_fit_geo[width0.5]", "", v_geo, fit.a_minus1, tol)
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
    sp = spectral_side(Tn, Tn)
    rep.add("tf0_cusp_remainder", "width 0.5 pair", sp["computable_sum"], fit.a_0, 5e-3)
    return rep


def _suite_geometric_terms(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("geometric-terms", config_echo=_config_echo(cfg))
    tol = cfg.tol("quadrature")
    rep.add("weight_v[0]", "", 0.0, weight_v(0.0), 1e-14)
    rep.add("weight_v[1]", "", 0.5 * math.log(2.0), weight_v(1.0), 1e-12)
    # volume-definition oracle at t = 2: the conditions are evaluated from
    # actual Moebius heights of a n_t . i = u (t + i), with the torus measure
    # taken in the dominant-weight coordinate Delta(a) = sqrt(u)
    t_val = 2.0
    us = np.exp(np.linspace(-8.0, 8.0, 400001))
    dlog = np.log(us[1]) - np.log(us[0])
    z1 = us * t_val + 1j * us
    h1 = np.sqrt(z1.imag)
    z2 = -1.0 / z1
    h2 = np.sqrt(z2.imag)
    vol = 0.5 * float(np.sum((h1 < 1.0) & (h2 < 1.0))) * dlog
    rep.add("weight_volume_oracle[t=2]", "1-D quadrature", weight_v(2.0), vol, 1e-4)
    T = gaussian_test_function(0.8)
    # unweighted orbital integral vs geodesic-polar coordinates
    direct = weighted_orbital_integral(T, -1, weighted=False)
    d, dw = gl_nodes(0.0, 9.0, 2400)
    polar = 4.0 * np.sum(np.asarray(T.k(4.0 * np.sinh(d) ** 2)) * np.cosh(d) * dw)
    rep.add("orbital_geodesic_polar", "alpha=-1", direct, polar, cfg.tol("fd"))
    # linearity and zero function
    woi = weighted_orbital_integral(T, -1)
    rep.add_bool("orbital_linearity", "2k vs k", abs(2.0 * woi - _scaled_woi(T, 2.0)) < 1e-10, "")
    rep.add("orbital_vanishing[alpha=2]", "level-1 unit Hecke", 0.0, weighted_orbital_integral(T, 2), 1e-14)
    try:
        weighted_orbital_integral(T, 1)
        rep.add_bool("elliptic_input_raises", "alpha=1", False)
    except Exception:
        rep.add_bool("elliptic_input_raises", "alpha=1", True)
    # identity term and the transform-chain oracle for the residual line
    idt = identity_term(T)
    rep.add("identity_term", "(pi/3) k(0)", (math.pi / 3.0) * float(np.asarray(T.k(0.0))), idt, 1e-12)
    un, uw2 = gl_nodes(0.0, 8.0, 800)
    l, lw = panel_gl_nodes(np.linspace(math.log(8.0), 14.0, 30), 10)
    un = np.concatenate([un, np.exp(l)])
    uw2 = np.concatenate([uw2, np.exp(l) * lw])
    resid_oracle = math.pi * float(np.sum(np.asarray(T.k(un)) * uw2))
    h_at_1 = complex(np.asarray(T.h(np.array([1.0 + 0j])))[0])
    rep.add("residual_line_oracle", "pi int k = h(1)", h_at_1, resid_oracle, tol)
    # spectral side shape
    sp = spectral_side(T, T)
    rep.add("M0_term", "c(0) = -1", -0.25 * complex(np.asarray(T.h(np.zeros(1, complex)))[0]) ** 2, sp["M0_term"], 1e-12)
    rep.add_bool("continuous_term_real", "", abs(sp["continuous_term"].imag) < 1e-8, f"{sp['continuous_term']}")
    return rep


def _scaled_woi(T, factor: float):
    return weighted_orbital_integral(replace(T, k=lambda u: factor * np.asarray(T.k(u))), -1)


def _suite_tate_zeta(cfg: RunConfig) -> SuiteReport:
    rep = SuiteReport("tate-zeta", config_echo=_config_echo(cfg))
    lau, Z = tate_zeta_term(lambda x: np.exp(-np.pi * x**2))
    for w0 in (1.5, 2.0, 3.0):
        rep.add(f"tate_is_xi[w={w0}]", "Gaussian x lattice", complex(xi(complex(w0))), Z(w0), 1e-8)
    rep.add("tate_aminus1", "-2 Fhat(0) Vol", -2.0, lau.a_minus1, cfg.tol("quadrature"))
    h = 1e-4
    fp_xi = 0.5 * ((xi(1.0 + h) - 1.0 / h) + (xi(1.0 - h) + 1.0 / h))
    rep.add("tate_a0_finite_part", "xi finite part at 1", fp_xi, lau.a_0, 1e-6)
    lau0, _ = tate_zeta_term(lambda x: np.zeros_like(np.asarray(x)))
    rep.add("tate_zero_profile[a-1]", "F=0", 0.0, lau0.a_minus1, 1e-14)
    rep.add("tate_zero_profile[a0]", "F=0", 0.0, lau0.a_0, 1e-14)
    # residue consistency against the unipotent slice of the geometric sum
    T1 = gaussian_test_function(0.5)
    from .traceformula import convolve_test_functions, _arch_orbital_nodes

    T12 = convolve_test_functions(T1, T1)
    lau_k, _ = tate_zeta_term(lambda x: np.asarray(T12.k(np.asarray(x) ** 2)))
    x, w = _arch_orbital_nodes()
    slice_val = -2.0 * 2.0 * np.sum(np.asarray(T12.k(x**2)) * w)
    rep.add("tate_unipotent_slice", "a-1 = -2 int k(x^2) dx", slice_val, lau_k.a_minus1, cfg.tol("fd"))
    return rep


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
    t0 = time.perf_counter()
    rep = SUITES[name](cfg)
    rep.wall_clock = time.perf_counter() - t0
    return rep


def run_all(config: RunConfig | None = None, names=None):
    """Run every suite; returns (exit_code, reports, summary_lines)."""
    cfg = config or RunConfig()
    names = tuple(names or SUITE_NAMES)
    reports = []
    lines = []
    warn_empty = False
    for name in names:
        rep = run_suite(name, cfg)
        reports.append(rep)
        n = len(rep.records)
        if n == 0:
            warn_empty = True
        lines.append(
            f"{name:26s} checks={n:3d} max_dev={rep.max_deviation:9.2e} "
            f"time={rep.wall_clock:7.1f}s {'PASS' if rep.passed else 'FAIL'} {rep.headroom}"
        )
    if warn_empty:
        lines.append("warning: at least one suite produced zero checks (configuration?)")
    code = 0 if all(r.passed for r in reports) and not warn_empty else 1
    return code, reports, lines


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
