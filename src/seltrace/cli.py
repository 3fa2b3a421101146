"""Command-line entry point.

    seltrace verify <suite>|all [--config PATH] [--tol K=V ...] [--out PATH]
                                [--format json|csv] [--seed N]
    seltrace tf report --h gaussian --width W [--no-residual] [--cusp-data FILE]
                       [--skip-truncation-fit] [--out PATH]
    seltrace auto ct|eis|maass-selberg|plancherel ...
    seltrace special eval --fn NAME [--re X] [--im Y] [--nu V] [--y V] [--n N]

Exit codes: 0 pass, 1 check failure, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .suites import SUITE_NAMES, UnknownSuiteError, emit_report, run_all, run_suite
from .util import SeltraceError


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="seltrace", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite (or all)")
    pv.add_argument("suite", help=f"one of: {', '.join(SUITE_NAMES)}, or 'all'")
    pv.add_argument("--config", default=None)
    pv.add_argument("--tol", action="append", default=[], metavar="K=V")
    pv.add_argument("--out", default=None)
    pv.add_argument("--format", default="json", choices=("json", "csv"))
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--include-timing", action="store_true")

    pt = sub.add_parser("tf", help="trace-formula reports")
    tf_sub = pt.add_subparsers(dest="tf_command", required=True)
    pr = tf_sub.add_parser("report", help="two-term Laurent report for a test-function pair")
    pr.add_argument("--h", default="gaussian", choices=("gaussian",))
    pr.add_argument("--width", type=float, default=0.5)
    pr.add_argument("--no-residual", dest="residual", action="store_false")
    pr.add_argument("--cusp-data", default=None, help="JSON file with {'eigenvalues_t': [...]}")
    pr.add_argument("--skip-truncation-fit", action="store_true")
    pr.add_argument("--out", default=None)

    pa = sub.add_parser("auto", help="automorphic layer evaluations")
    auto_sub = pa.add_subparsers(dest="auto_command", required=True)
    a_ct = auto_sub.add_parser("ct", help="constant term of a pseudo-Eisenstein series")
    a_ct.add_argument("--y", type=float, required=True)
    a_ct.add_argument("--mu", type=float, default=0.0)
    a_ct.add_argument("--sigma", type=float, default=0.5)
    a_eis = auto_sub.add_parser("eis", help="Eisenstein series value")
    a_eis.add_argument("--s", required=True, help="complex parameter, RE,IM")
    a_eis.add_argument("--z", required=True, help="point, X,Y")
    a_ms = auto_sub.add_parser("maass-selberg", help="truncated inner-product relation")
    a_ms.add_argument("--s1", required=True)
    a_ms.add_argument("--s2", required=True)
    a_ms.add_argument("--T", type=float, required=True)
    a_pl = auto_sub.add_parser("plancherel", help="rank-one decomposition of a Schwartz pair")
    a_pl.add_argument("--mu1", type=float, default=0.0)
    a_pl.add_argument("--sigma1", type=float, default=0.5)
    a_pl.add_argument("--mu2", type=float, default=0.3)
    a_pl.add_argument("--sigma2", type=float, default=0.6)

    ps = sub.add_parser("special", help="special-function evaluations")
    sp_sub = ps.add_subparsers(dest="special_command", required=True)
    ev = sp_sub.add_parser("eval")
    ev.add_argument("--fn", required=True,
                    choices=("zeta", "xi", "c", "clogd", "kbessel", "sigma", "gamma"))
    ev.add_argument("--re", type=float, default=0.0)
    ev.add_argument("--im", type=float, default=0.0)
    ev.add_argument("--nu", type=float, default=0.0)
    ev.add_argument("--y", type=float, default=1.0)
    ev.add_argument("--n", type=int, default=1)
    return p


def _parse_complex(text: str) -> complex:
    re_s, im_s = (text.split(",") + ["0"])[:2]
    return complex(float(re_s), float(im_s))


def _cmd_verify(args) -> int:
    overrides = {}
    for item in args.tol:
        if "=" not in item:
            raise ConfigError(f"--tol expects K=V, got {item!r}")
        k, v = item.split("=", 1)
        overrides[f"tol.{k}" if not k.startswith("tol.") else k] = v
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = load_config(args.config, overrides)
    if args.suite == "all":
        code, reports, lines = run_all(cfg)
        for line in lines:
            print(line)
        if args.out:
            emit_report(reports, args.out, args.format, args.include_timing)
            print(f"wrote {args.out}")
        return code
    rep = run_suite(args.suite, cfg)
    for rec in rep.records:
        mark = "PASS" if rec["pass"] else "FAIL"
        print(f"[{mark}] {rec['id']}: dev={rec['deviation']:.3e} tol={rec['tolerance']:.1e}")
    print(f"suite {rep.suite}: {'PASS' if rep.passed else 'FAIL'} "
          f"({len(rep.records)} checks, max dev {rep.max_deviation:.3e}, {rep.headroom})")
    if args.out:
        emit_report(rep, args.out, args.format, args.include_timing)
        print(f"wrote {args.out}")
    return 0 if rep.passed else 1


def _cmd_tf_report(args) -> int:
    from .traceformula import (
        MEASURE_LEDGER,
        convolve_test_functions,
        gaussian_test_function,
        identity_term,
        spectral_side,
        tate_zeta_term,
        tf_minus1_geometric,
        tf_minus1_spectral,
        two_term_laurent_kernel,
        weighted_orbital_integral,
    )

    cusp_t = None
    if args.cusp_data:
        with open(args.cusp_data) as fh:
            cusp_t = json.load(fh).get("eigenvalues_t", [])
    T = gaussian_test_function(args.width)
    T12 = convolve_test_functions(T, T)
    sp = spectral_side(T, T, residual_on=args.residual, cusp_eigenvalues=cusp_t)
    v_spec = tf_minus1_spectral(T, T)
    v_geo = tf_minus1_geometric(T, T)
    hyper = 0.5 * weighted_orbital_integral(T12, -1)
    ident = identity_term(T12)
    tate, _ = tate_zeta_term(lambda x: np.asarray(T12.k(np.asarray(x) ** 2)))
    report = {
        "test_function": {"family": "gaussian", "width": args.width},
        "tf_minus1": {
            "spectral": _c2(v_spec),
            "geometric": _c2(v_geo),
            "deviation_geo_spec": abs(v_geo - v_spec),
        },
        "tf0_terms": {
            "M0_term": _c2(sp["M0_term"]),
            "residual_term": _c2(sp["residual_term"]),
            "residual_defdiscrete_scalar": _c2(sp["residual_defdiscrete_scalar"]),
            "continuous_term": _c2(sp["continuous_term"]),
            "spectral_computable_sum": _c2(sp["computable_sum"]),
            "identity_term": _c2(ident),
            "hyperbolic_term": _c2(hyper),
            "tate_a0": _c2(tate.a_0),
            "tate_aminus1": _c2(tate.a_minus1),
        },
        "measure_ledger": MEASURE_LEDGER,
    }
    if not args.skip_truncation_fit:
        fit = two_term_laurent_kernel(T, T)
        report["truncation_fit"] = {"a_minus1": _c2(fit.a_minus1), "a_0": _c2(fit.a_0)}
        report["tf_minus1"]["deviation_fit_spec"] = abs(fit.a_minus1 - v_spec)
        report["tf_minus1"]["deviation_fit_geo"] = abs(fit.a_minus1 - v_geo)
        report["cuspidal_remainder"] = _c2(fit.a_0 - sp["computable_sum"])
        report["geometric_computable_sum"] = _c2(
            ident + hyper + tate.a_0
        )
        report["elliptic_remainder"] = _c2(fit.a_0 - (ident + hyper + tate.a_0))
    if cusp_t is not None:
        report["cusp_display_sum"] = _c2(sp["cusp_display_sum"])
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _c2(v) -> list:
    c = complex(v)
    return [c.real, c.imag]


def _cmd_auto(args) -> int:
    from .halfplane import (
        constant_term,
        eisenstein,
        maass_selberg,
        pseudo_eisenstein_function,
        rank_one_plancherel,
        schwartz_boundary,
    )

    if args.auto_command == "ct":
        f = schwartz_boundary(args.mu, args.sigma)
        phi = pseudo_eisenstein_function(f)
        val = complex(constant_term(phi, args.y))
        out = {"inputs": {"y": args.y, "mu": args.mu, "sigma": args.sigma},
               "value": _c2(val), "breakdown": [], "deviation": 0.0}
    elif args.auto_command == "eis":
        s = _parse_complex(args.s)
        z = _parse_complex(args.z)
        val = eisenstein(s, z)
        out = {"inputs": {"s": _c2(s), "z": _c2(z)}, "value": _c2(val),
               "breakdown": [], "deviation": 0.0}
    elif args.auto_command == "maass-selberg":
        s1 = _parse_complex(args.s1)
        s2 = _parse_complex(args.s2)
        lhs, rhs, dev = maass_selberg(s1, s2, args.T)
        out = {"inputs": {"s1": _c2(s1), "s2": _c2(s2), "T": args.T},
               "value": _c2(lhs),
               "breakdown": [{"term_kind": "closed_form_rhs", "value": _c2(rhs)}],
               "deviation": dev}
    else:
        f1 = schwartz_boundary(args.mu1, args.sigma1)
        f2 = schwartz_boundary(args.mu2, args.sigma2)
        val, bd = rank_one_plancherel(
            pseudo_eisenstein_function(f1), pseudo_eisenstein_function(f2)
        )
        out = {"inputs": {"f1": [args.mu1, args.sigma1], "f2": [args.mu2, args.sigma2]},
               "value": _c2(val),
               "breakdown": [{"term_kind": r["term_kind"], "value": _c2(r["value"])} for r in bd],
               "deviation": 0.0}
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


def _cmd_special(args) -> int:
    from . import special

    s = complex(args.re, args.im)
    if args.fn == "zeta":
        val = special.zeta(s)
    elif args.fn == "xi":
        val = special.xi(s)
    elif args.fn == "c":
        val = special.intertwining_c(s)
    elif args.fn == "clogd":
        val = special.c_log_derivative(s)
    elif args.fn == "gamma":
        val = special.gamma(s)
    elif args.fn == "kbessel":
        res = special.kbessel_imag_order(args.nu, args.y)
        print(json.dumps({"value": res.value, "underflowed": res.underflowed}))
        return 0
    else:
        val = special.divisor_sigma(args.n, s)
    c = complex(val)
    print(json.dumps({"re": c.real, "im": c.imag}))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "tf":
            return _cmd_tf_report(args)
        if args.command == "auto":
            return _cmd_auto(args)
        if args.command == "special":
            return _cmd_special(args)
    except (ConfigError, UnknownSuiteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SeltraceError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
