"""One workload in a fresh process, so every cache starts cold.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            --result FILE
    python3 bench/worker.py --workload NAME --seed N --setup-only

The worker imports seltrace from the checkout's ``src``, builds the inputs
of round 0, and reports when it got there (``ready``, a ``perf_counter``
reading; on Linux that clock is shared by all processes, so the parent
subtracts its own launch reading).  It then runs whole rounds until
``--seconds`` have passed and writes each operation's raw outputs, or the
error it raised, to ``--result``.  It checks nothing itself: the parent
compares the outputs with references it computes without seltrace.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from inputs import TORUS_PARTNERS, from_pair, round_inputs, to_pair  # noqa: E402

# fundamental-domain quadrature of Psi f1 * Psi f2, as the rank-one suite
# sets it up: grid up to Ymax plus the constant-term tail above it
FD_YMAX = 16.0
FD_GRID = 140


class Context:
    """Library modules and objects shared by the rounds of one run."""

    def __init__(self, workload: str, out_dir: str):
        from seltrace import cli, halfplane, torus
        from seltrace.corpus import default_corpus

        self.out_dir = out_dir
        self.torus = torus
        self.halfplane = halfplane
        self.cli = cli
        self.partners = None
        if workload == "torus-automorphic":
            corpus = default_corpus()
            self.partners = {name: corpus[name] for name in TORUS_PARTNERS}

    def torus_function(self, spec):
        t = self.torus
        core = spec["core"]
        terms = tuple(
            t.ExponentTerm(
                exponent=from_pair(term["exponent"]),
                log_poly=tuple(from_pair(c) for c in term["log_poly"]),
                side=term["side"],
                carrier=term["carrier"],
            )
            for term in spec["terms"]
        )
        return t.AsymptoticallyFiniteFunction(
            core=t.log_gaussian_core(core["mu"], core["sigma"], core["amp"]), terms=terms
        )


def _op(ops, kind, r, fn):
    """Run one operation; an exception is the operation's failure, recorded
    with its type so the parent can count it."""
    t0 = time.perf_counter()
    try:
        op = {"kind": kind, "round": r, "outputs": fn()}
    except Exception as exc:  # the workload must go on after a failed operation
        op = {"kind": kind, "round": r, "error": f"{type(exc).__name__}: {exc}"[:500]}
    op["seconds"] = time.perf_counter() - t0
    op["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops.append(op)


def torus_round(ctx: Context, inp: dict, r: int) -> list:
    t = ctx.torus
    ops = []
    s_points = np.array([from_pair(s) for s in inp["s_points"]])
    x = np.asarray(inp["x"])
    for k, spec in enumerate(inp["functions"]):
        f = ctx.torus_function(spec)
        _op(ops, f"f{k}.transform", r, lambda: {"values": [to_pair(v) for v in t.mellin(f)(s_points)]})
        for name, partner in ctx.partners.items():
            def pair(partner=partner):
                spectral = [t.plancherel_inner_product(f, partner, sg)[0] for sg in inp["pairing_sigmas"]]
                direct = t.regularized_inner_product_direct(f, partner)
                return {"spectral": [to_pair(v) for v in spectral], "direct": to_pair(direct)}

            _op(ops, f"f{k}.pair[{name}]", r, pair)
        for i, sg in enumerate(inp["inverse_sigmas"]):
            def inverse(sg=sg):
                return {"values": [to_pair(v) for v in t.mellin_inverse(t.mellin(f), sg, x)]}

            _op(ops, f"f{k}.inverse[{i}]", r, inverse)
    return ops


def automorphic_round(ctx: Context, inp: dict, r: int) -> list:
    hp = ctx.halfplane
    ops = []
    for i, case in enumerate(inp["maass_selberg"]):
        def ms(case=case):
            lhs, _rhs, _dev = hp.maass_selberg(from_pair(case["s1"]), from_pair(case["s2"]), case["T"])
            return {"lhs": to_pair(lhs)}

        _op(ops, f"maass_selberg[{i}]", r, ms)
    for j, pair in enumerate(inp["pairs"]):
        p1, p2 = (hp.pseudo_eisenstein_function(hp.schwartz_boundary(p["mu"], p["sigma"], p["amp"]))
                  for p in pair)

        def rank_one(p1=p1, p2=p2):
            value, _ = hp.rank_one_plancherel(p1, p2)
            nodes, weights = np.polynomial.legendre.leggauss(240)
            v = 4.0 * (nodes + 1.0)
            w = 4.0 * weights

            def tail(Y):
                y = Y * np.exp(v)
                return np.sum(np.asarray(p1.ct(y)) * np.asarray(p2.ct(y)) * w * np.exp(-v)) / Y

            fd = hp.fd_integrate(
                lambda z: p1.on_grid(z) * p2.on_grid(z),
                Ymax=FD_YMAX, tail=tail, nx=FD_GRID, ny=FD_GRID,
            )
            return {"value": to_pair(value), "fd": to_pair(fd)}

        _op(ops, f"pair{j}.rank_one", r, rank_one)
        for i, phi in enumerate((p1, p2)):
            _op(ops, f"pair{j}.ct_symmetry[{i}]", r,
                lambda phi=phi: {"deviation": hp.constant_term_symmetry_check(phi)})
    return ops


def trace_formula_round(ctx: Context, inp: dict, r: int) -> list:
    ops = []
    width = inp["width"]
    path = os.path.join(ctx.out_dir, f"tf-report-{os.getpid()}-{r}.json")

    def report():
        try:
            code = ctx.cli.main(
                ["tf", "report", "--h", "gaussian", "--width", repr(width), "--out", path]
            )
            if code != 0:
                raise RuntimeError(f"tf report exited with {code}")
            with open(path) as fh:
                return json.load(fh)
        finally:
            if os.path.exists(path):
                os.remove(path)

    _op(ops, "tf_report", r, report)
    return ops


def torus_automorphic_round(ctx: Context, inp: dict, r: int) -> list:
    return torus_round(ctx, inp, r) + automorphic_round(ctx, inp, r)


ROUNDS = {
    "torus-automorphic": torus_automorphic_round,
    "trace-formula": trace_formula_round,
}


def environment() -> dict:
    info = np.show_config(mode="dicts")
    blas = info.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", default=None)
    ap.add_argument("--spans", default=None, help="trace file for the spans of a traced run")
    args = ap.parse_args(argv)

    out_dir = os.path.dirname(os.path.abspath(args.result)) if args.result else HERE
    ctx = Context(args.workload, out_dir)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    first = round_inputs(args.workload, args.seed, 0)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    run_round = ROUNDS[args.workload]
    ops = []
    rounds = 0
    t0 = time.perf_counter()
    while True:
        inp = first if rounds == 0 else round_inputs(args.workload, args.seed, rounds)
        ops.extend(run_round(ctx, inp, rounds))
        rounds += 1
        if time.perf_counter() - t0 >= args.seconds:
            break
    measure_s = time.perf_counter() - t0

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ready": ready,
        "rounds": rounds,
        "measure_s": measure_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
        "ops": ops,
    }
    if tracer is not None:
        result["trace_summary"] = tracer.summary()
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
