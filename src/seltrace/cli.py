"""Command-line entry point.

    seltrace verify <suite>|all [--config PATH] [--tol K=V ...] [--out PATH]
                                [--format json|csv] [--seed N]
    seltrace tf report --h gaussian --width W [--cusp-data FILE] [--out PATH]
    seltrace auto ct|eis|maass-selberg|plancherel ...
    seltrace special eval --fn NAME [--re X] [--im Y] [--nu V] [--y V] [--n N]

Exit codes: 0 pass, 1 check failure, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial

from . import traceformula as tf
from .config import ConfigError, load_config
from .suites import SUITE_NAMES, UnknownSuiteError, emit_report, run_all
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
    pr.add_argument("--cusp-data", default=None, help="JSON file with {'eigenvalues_t': [...]}")
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


def _in_domain(flag: str, value, ok: bool, domain: str):
    """Refuse an out-of-domain argument as a config error; nan fails each `ok`."""
    if not ok:
        raise ConfigError(f"{flag} must be {domain}, got {value!r}")
    return value


def _positive(flag: str, value: float) -> float:
    return _in_domain(flag, value, math.isfinite(value) and value > 0.0, "a positive number")


def _parse_complex(flag: str, text: str) -> complex:
    try:
        re_s, im_s = text.split(",") if "," in text else (text, "0")
        return complex(float(re_s), float(im_s))
    except ValueError:
        return _in_domain(flag, text, False, "RE,IM (two numbers, or one for a real value)")


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
    code, reports, lines = run_all(cfg, SUITE_NAMES if args.suite == "all" else [args.suite])
    if args.suite != "all":
        # one suite: its record lines, then its summary line in place of the
        # table row (a zero-check warning follows as in `verify all`)
        rep = reports[0]
        for rec in rep.records:
            mark = "PASS" if rec["pass"] else "FAIL"
            print(f"[{mark}] {rec['id']}: dev={rec['deviation']:.3e} tol={rec['tolerance']:.1e}")
        lines[0] = (f"suite {rep.suite}: {'PASS' if rep.passed else 'FAIL'} "
                    f"({len(rep.records)} checks, max dev {rep.max_deviation:.3e}, {rep.headroom})")
    for line in lines:
        print(line)
    if args.out:
        emit_report(reports, args.out, args.format, args.include_timing)
        print(f"wrote {args.out}")
    return code


def _cmd_tf_report(args) -> int:
    _positive("--width", args.width)
    cusp_t = _read_cusp_data(args.cusp_data) if args.cusp_data else None
    tf.check_report_width(args.width)
    T = tf.gaussian_test_function(args.width)
    report = tf.ledger(tf.convolve_test_functions(T, T), cusp_t)
    report["test_function"] = {"family": "gaussian", "width": args.width}
    text = json.dumps(report, indent=1, sort_keys=True, default=_c2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _read_cusp_data(path: str) -> list:
    try:
        with open(path) as fh:
            t = json.load(fh)["eigenvalues_t"]
        if not isinstance(t, list):
            raise TypeError("'eigenvalues_t' is not a list")
        return [float(v) for v in t]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"--cusp-data {path!r}: {type(exc).__name__}: {exc}") from exc


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
        f = schwartz_boundary(args.mu, _positive("--sigma", args.sigma))
        phi = pseudo_eisenstein_function(f)
        val = complex(constant_term(phi, _positive("--y", args.y)))
        out = {"inputs": {"y": args.y, "mu": args.mu, "sigma": args.sigma},
               "value": _c2(val), "breakdown": [], "deviation": 0.0}
    elif args.auto_command == "eis":
        s = _parse_complex("--s", args.s)
        z = _parse_complex("--z", args.z)
        _in_domain("--z", args.z, math.isfinite(abs(z)) and z.imag > 0.0, "a point X,Y of the upper half-plane")
        val = eisenstein(s, z)
        out = {"inputs": {"s": _c2(s), "z": _c2(z)}, "value": _c2(val),
               "breakdown": [], "deviation": 0.0}
    elif args.auto_command == "maass-selberg":
        s1 = _parse_complex("--s1", args.s1)
        s2 = _parse_complex("--s2", args.s2)
        T = _in_domain("--T", args.T, math.isfinite(args.T) and args.T >= 0.0, "a non-negative number")
        lhs, rhs, dev = maass_selberg(s1, s2, T)
        out = {"inputs": {"s1": _c2(s1), "s2": _c2(s2), "T": args.T},
               "value": _c2(lhs),
               "breakdown": [{"term_kind": "closed_form_rhs", "value": _c2(rhs)}],
               "deviation": dev}
    else:
        f1 = schwartz_boundary(args.mu1, _positive("--sigma1", args.sigma1))
        f2 = schwartz_boundary(args.mu2, _positive("--sigma2", args.sigma2))
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

    if args.fn == "kbessel":
        res = special.kbessel_imag_order(args.nu, _positive("--y", args.y))
        print(json.dumps({"value": res.value, "underflowed": res.underflowed}))
        return 0
    if args.fn == "sigma":
        _in_domain("--n", args.n, args.n >= 1, "a positive integer")
    fns = {"zeta": special.zeta, "xi": special.xi, "c": special.intertwining_c, "clogd": special.c_log_derivative,
           "gamma": special.gamma, "sigma": partial(special.divisor_sigma, args.n)}
    c = complex(fns[args.fn](complex(args.re, args.im)))
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
