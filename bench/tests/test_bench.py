"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

The end-to-end cases start one reduced run (a single round) of every
workload, traced and untraced, and take a few minutes; the check, tracer and
input cases take seconds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import reference as ref  # noqa: E402
from inputs import TORUS_PARTNERS, WORKLOADS, round_inputs, to_pair  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _partners():
    corpus = ref.corpus_specs(os.path.join(ROOT, "src", "seltrace", "data", "torus_corpus.json"))
    return {name: corpus[name] for name in TORUS_PARTNERS}


# ----------------------------------------------------------------------------
# every check fails once its output moves past the tolerance


def _torus_ops(inp, partners):
    ops = []
    for k, spec in enumerate(inp["functions"]):
        values = [to_pair(v) for v in ref.transform_values(spec, inp["s_points"])]
        ops.append({"kind": f"f{k}.transform", "round": 0, "outputs": {"values": values}})
        for name, partner in partners.items():
            v = to_pair(ref.pairing(spec, partner))
            ops.append({"kind": f"f{k}.pair[{name}]", "round": 0,
                        "outputs": {"spectral": [v, list(v)], "direct": list(v)}})
        values = [to_pair(v) for v in ref.function_values(spec, inp["x"])]
        for i in range(len(inp["inverse_sigmas"])):
            ops.append({"kind": f"f{k}.inverse[{i}]", "round": 0, "outputs": {"values": copy.deepcopy(values)}})
    return ops


def _automorphic_ops(inp):
    ops = [
        {"kind": f"maass_selberg[{i}]", "round": 0,
         "outputs": {"lhs": to_pair(ref.maass_selberg_rhs(c["s1"], c["s2"], c["T"]))}}
        for i, c in enumerate(inp["maass_selberg"])
    ]
    for j, pair in enumerate(inp["pairs"]):
        v = to_pair(ref.rank_one_value(*pair))
        ops.append({"kind": f"pair{j}.rank_one", "round": 0, "outputs": {"value": v, "fd": list(v)}})
        ops += [{"kind": f"pair{j}.ct_symmetry[{i}]", "round": 0, "outputs": {"deviation": 0.0}} for i in range(2)]
    return ops


def _trace_formula_ops(inp):
    w = inp["width"]
    first = to_pair(ref.tf_first_coefficient(w))
    report = {
        "tf_minus1": {"spectral": list(first), "geometric": list(first)},
        "tf0_terms": {
            "tate_aminus1": list(first),
            "M0_term": [-0.25, 0.0],
            "residual_term": to_pair(ref.tf_residual(w)),
            "identity_term": to_pair(ref.tf_identity(w)),
        },
        "truncation_fit": {"a_minus1": list(first)},
        "cuspidal_remainder": [0.0, 0.0],
    }
    return [{"kind": "tf_report", "round": 0, "outputs": report}]


# (workload, seed, op kind, path into the outputs, check expected to fail)
PERTURBATIONS = [
    ("torus-automorphic", 0, "f1.transform", ("values", 2), "transform"),
    ("torus-automorphic", 0, "f0.pair[gauss_unit]", ("spectral", 0), "pair=reference"),
    ("torus-automorphic", 0, "f1.pair[gauss_shifted]", ("direct",), "pair=direct"),
    ("torus-automorphic", 0, "f0.pair[gauss_unit]", ("spectral", 1), "sigma_freedom"),
    ("torus-automorphic", 0, "f0.inverse[0]", ("values", 5), "inverse[sharp]"),
    ("torus-automorphic", 0, "f1.inverse[1]", ("values", 5), "inverse[smooth]"),
    ("torus-automorphic", 0, "maass_selberg[0]", ("lhs",), "maass_selberg"),
    ("torus-automorphic", 0, "pair0.rank_one", ("value",), "rank_one=reference"),
    ("torus-automorphic", 0, "pair0.rank_one", ("fd",), "rank_one=fd"),
    ("torus-automorphic", 0, "pair0.ct_symmetry[1]", ("deviation",), "ct_symmetry"),
    ("trace-formula", 0, "tf_report", ("tf_minus1", "spectral"), "tf_minus1_spectral"),
    ("trace-formula", 0, "tf_report", ("tf_minus1", "geometric"), "tf_minus1_geometric"),
    ("trace-formula", 0, "tf_report", ("tf0_terms", "tate_aminus1"), "tate_aminus1"),
    ("trace-formula", 0, "tf_report", ("truncation_fit", "a_minus1"), "fit_aminus1"),
    ("trace-formula", 0, "tf_report", ("tf0_terms", "M0_term"), "M0_term"),
    ("trace-formula", 0, "tf_report", ("tf0_terms", "residual_term"), "residual_term"),
    ("trace-formula", 0, "tf_report", ("tf0_terms", "identity_term"), "identity_term"),
    ("trace-formula", 0, "tf_report", ("cuspidal_remainder",), "cuspidal_remainder"),
]

_OPS_CACHE = {}


def _reference_ops(workload, seed):
    key = (workload, seed)
    if key not in _OPS_CACHE:
        inp = round_inputs(workload, seed, 0)
        if workload == "torus-automorphic":
            ops = _torus_ops(inp, _partners()) + _automorphic_ops(inp)
        else:
            ops = _trace_formula_ops(inp)
        _OPS_CACHE[key] = (inp, ops)
    inp, ops = _OPS_CACHE[key]
    return inp, copy.deepcopy(ops)


def _run_checks(workload, inp, ops):
    return checks.check_ops(workload, {0: inp}, ops, _partners() if workload == "torus-automorphic" else None)


def test_perturbations_cover_every_tolerance():
    assert {p[4] for p in PERTURBATIONS} == set(checks.TOLERANCES)


@pytest.mark.parametrize("workload,seed", sorted({(p[0], p[1]) for p in PERTURBATIONS}))
def test_reference_outputs_pass(workload, seed):
    inp, ops = _reference_ops(workload, seed)
    for op in _run_checks(workload, inp, ops):
        assert op["verified"], op


@pytest.mark.parametrize("workload,seed,kind,path,check", PERTURBATIONS, ids=[p[4] for p in PERTURBATIONS])
def test_check_fails_past_tolerance(workload, seed, kind, path, check):
    inp, ops = _reference_ops(workload, seed)
    op = next(o for o in ops if o["kind"] == kind)
    node = op["outputs"]
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]]
    value = complex(*old) if isinstance(old, list) else complex(old)
    step = 3.0 * checks.TOLERANCES[check] * max(1.0, abs(value))
    node[path[-1]] = to_pair(value + step) if isinstance(old, list) else value.real + step
    result = _run_checks(workload, inp, [op])[0]
    failing = {c["check"] for c in result["checks"] if not c["pass"]}
    assert check in failing
    assert not result["verified"]


def test_failed_operation_is_counted_not_checked():
    inp, ops = _reference_ops("trace-formula", 0)
    ops[0] = {"kind": "tf_report", "round": 0, "error": "FitError: residuals too large"}
    op = _run_checks("trace-formula", inp, ops)[0]
    assert op["verified"] is False and "checks" not in op


# ----------------------------------------------------------------------------
# inputs and tracer


def test_inputs_are_fixed_by_seed_and_round():
    for workload in WORKLOADS:
        assert round_inputs(workload, 7, 2) == round_inputs(workload, 7, 2)
        assert round_inputs(workload, 7, 2) != round_inputs(workload, 8, 2)
        assert round_inputs(workload, 7, 2) != round_inputs(workload, 7, 3)


def test_tracer_self_time_and_identity():
    tracer = Tracer()
    sentinel = object()

    def inner(x):
        time.sleep(0.05)
        return sentinel

    inner_w = tracer.wrap("m.inner", inner, 0)

    def outer():
        time.sleep(0.05)
        return inner_w([1, 2, 3])

    outer_w = tracer.wrap("m.outer", outer, None)
    assert outer_w() is sentinel
    summary = tracer.summary()
    assert summary["calls"] == {"m.outer": 1, "m.inner": 1}
    assert summary["points"] == {"m.inner": 3}
    assert 0.04 < summary["self_s"]["m.outer"] < 0.09
    assert 0.04 < summary["self_s"]["m.inner"] < 0.09
    assert tracer.spans[1][3] == 0  # the inner span's parent is the outer one


def test_tracer_counts_repeated_builds():
    tracer = Tracer()
    build = tracer.wrap("traceformula.gaussian_test_function", lambda width: object(), None)
    convolve = tracer.wrap("traceformula.convolve_test_functions", lambda a, b: object(), None)
    t = build(0.5)
    build(0.5)
    build(0.6)
    convolve(t, t)
    convolve(t, t)
    assert tracer.summary()["repeat_builds"] == 2


def test_benchmark_json_lists_every_traced_metric():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


# ----------------------------------------------------------------------------
# reduced runs of the real benchmark


def _run(cwd, workload, trace, seconds="0"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=200,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_run_completes(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "trace-formula", 0, seconds="1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
