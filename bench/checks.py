"""Checks of each operation's outputs against references from reference.py.

A deviation is max |got - ref| / max(1, max |ref|): absolute for values of
order one, relative for larger ones.  Each tolerance is set from the
accuracy the method reaches on the seeded input ranges (README.md lists the
largest deviation seen next to each), with headroom of a few times that, so
that a change spending the accuracy shows in ``checks.max_dev_ratio`` before
it fails a check.
"""

from __future__ import annotations

import numpy as np

import reference as ref
from inputs import from_pair

TOLERANCES = {
    # torus-automorphic: the torus functions
    "transform": 1e-13,
    "pair=reference": 1e-13,
    "pair=direct": 5e-9,
    "sigma_freedom": 1e-13,
    "inverse[sharp]": 1e-8,
    "inverse[smooth]": 5e-5,
    # torus-automorphic: the modular-surface cases
    "maass_selberg": 1e-12,
    "rank_one=reference": 1e-13,
    "rank_one=fd": 1e-10,
    "ct_symmetry": 5e-8,
    # trace-formula
    "tf_minus1_spectral": 1e-13,
    "tf_minus1_geometric": 1e-3,
    "tate_aminus1": 1e-3,
    "fit_aminus1": 2e-3,
    "M0_term": 1e-14,
    "residual_term": 1e-14,
    "identity_term": 2.5e-4,
    "cuspidal_remainder": 5e-3,
}


def deviation(got, expected) -> float:
    got = np.atleast_1d(np.asarray(got, dtype=complex))
    expected = np.atleast_1d(np.asarray(expected, dtype=complex))
    scale = max(1.0, float(np.max(np.abs(expected))))
    return float(np.max(np.abs(got - expected))) / scale


def _check(name, got, expected) -> dict:
    tol = TOLERANCES[name]
    dev = deviation(got, expected)
    return {"check": name, "deviation": dev, "tolerance": tol, "ratio": dev / tol, "pass": bool(dev <= tol)}


def torus_checks(kind, inp, out, partners) -> list:
    """Checks of one op of function ``f<k>``; its kind is ``f<k>.<what>``."""
    head, what = kind.split(".", 1)
    spec = inp["functions"][int(head[1:])]
    if what == "transform":
        return [_check("transform", [from_pair(v) for v in out["values"]], ref.transform_values(spec, inp["s_points"]))]
    if what.startswith("pair["):
        partner = partners[what[len("pair["):-1]]
        s0, s1 = (from_pair(v) for v in out["spectral"])
        return [
            _check("pair=reference", s0, ref.pairing(spec, partner)),
            _check("pair=direct", from_pair(out["direct"]), s0),
            _check("sigma_freedom", s1, s0),
        ]
    if what.startswith("inverse["):
        name = f"inverse[{spec['carrier']}]"
        return [_check(name, [from_pair(v) for v in out["values"]], ref.function_values(spec, inp["x"]))]
    raise KeyError(kind)


def _index(kind) -> int:
    return int(kind[kind.index("[") + 1:-1])


def automorphic_checks(kind, inp, out) -> list:
    if kind.startswith("maass_selberg["):
        case = inp["maass_selberg"][_index(kind)]
        return [_check("maass_selberg", from_pair(out["lhs"]), ref.maass_selberg_rhs(case["s1"], case["s2"], case["T"]))]
    if kind.endswith(".rank_one"):
        value = from_pair(out["value"])
        pair = inp["pairs"][int(kind[len("pair"):kind.index(".")])]
        return [
            _check("rank_one=reference", value, ref.rank_one_value(*pair)),
            _check("rank_one=fd", from_pair(out["fd"]), value),
        ]
    if ".ct_symmetry[" in kind:
        return [_check("ct_symmetry", out["deviation"], 0.0)]
    raise KeyError(kind)


def trace_formula_checks(kind, inp, out) -> list:
    if kind != "tf_report":
        raise KeyError(kind)
    w = inp["width"]
    first = ref.tf_first_coefficient(w)
    terms = out["tf0_terms"]
    return [
        _check("tf_minus1_spectral", from_pair(out["tf_minus1"]["spectral"]), first),
        _check("tf_minus1_geometric", from_pair(out["tf_minus1"]["geometric"]), first),
        _check("tate_aminus1", from_pair(terms["tate_aminus1"]), first),
        _check("fit_aminus1", from_pair(out["truncation_fit"]["a_minus1"]), first),
        _check("M0_term", from_pair(terms["M0_term"]), -0.25),
        _check("residual_term", from_pair(terms["residual_term"]), ref.tf_residual(w)),
        _check("identity_term", from_pair(terms["identity_term"]), ref.tf_identity(w)),
        _check("cuspidal_remainder", from_pair(out["cuspidal_remainder"]), 0.0),
    ]


def check_ops(workload: str, rounds: dict, ops: list, partners=None) -> list:
    """Attach ``checks`` and ``verified`` to every op that returned outputs.
    ``rounds`` maps a round index to that round's inputs."""
    for op in ops:
        if "error" in op:
            op["verified"] = False
            continue
        inp = rounds[op["round"]]
        if workload == "torus-automorphic":
            if op["kind"].startswith("f"):
                checks = torus_checks(op["kind"], inp, op["outputs"], partners)
            else:
                checks = automorphic_checks(op["kind"], inp, op["outputs"])
        else:
            checks = trace_formula_checks(op["kind"], inp, op["outputs"])
        op["checks"] = checks
        op["verified"] = all(c["pass"] for c in checks)
    return ops
