"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: torus-automorphic,
trace-formula (see README.md for what each stresses and why).

With ``--trace 0`` the run reports the end-to-end metrics:
  setup_s               median, over several fresh worker processes, of the
                        time from launch until seltrace is imported and the
                        first round's inputs exist
  ops_verified_per_min  operations whose outputs passed every check, per
                        minute of the measured wall time after set-up
  peak_rss_mb           peak resident memory of the measuring worker
With ``--trace 1`` the same operations run with span wrappers installed and
the run reports the per-layer metrics of tracing.PER_LAYER instead.

The worker process measures; this process computes every reference without
importing seltrace, checks the outputs, writes the full record to
``bench/out/`` and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import TORUS_PARTNERS, WORKLOADS, round_inputs  # noqa: E402

# fresh processes whose set-up time is measured; the measuring worker is the
# last of them
SETUP_LAUNCHES = 9
# one OpenBLAS thread: the dense products are memory-bound, a second thread
# gains nothing measurable on two cores and adds run-to-run spread
BLAS_THREADS = 1
# a run must end within 180 s; the worker is killed past this
WORKER_TIMEOUT_S = 170.0

SRC = os.path.join(ROOT, "src", "seltrace")
OUT_DIR = os.path.join(HERE, "out")


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over the library's files, naming the code measured when the
    checkout carries no git metadata."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _worker(args, extra, env, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)] + extra
    launched = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - launched), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return launched, proc.stdout


def _terminate(signum, frame):
    # raise inside subprocess.run, which then kills and reaps the worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: no seltrace sources under {os.path.relpath(SRC, ROOT)}; "
              "run from the root of a seltrace checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS))
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    worker_file = stem + ".worker.json"

    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_LAUNCHES - 1):
                launched, stdout = _worker(args, ["--setup-only"], env, deadline)
                setups.append(json.loads(stdout.strip().splitlines()[-1])["ready"] - launched)
        extra = ["--seconds", repr(args.seconds), "--trace", str(args.trace), "--result", worker_file]
        if args.trace:
            extra += ["--spans", stem + ".spans.json"]
        launched, _ = _worker(args, extra, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(worker_file) as fh:
        result = json.load(fh)
    os.remove(worker_file)
    setups.append(result["ready"] - launched)

    import checks
    import reference

    partners = None
    if args.workload == "torus-automorphic":
        corpus = reference.corpus_specs(os.path.join(SRC, "data", "torus_corpus.json"))
        partners = {name: corpus[name] for name in TORUS_PARTNERS}
    rounds = {r: round_inputs(args.workload, args.seed, r) for r in range(result["rounds"])}
    ops = checks.check_ops(args.workload, rounds, result["ops"], partners)

    attempted = len(ops)
    failed = sum(1 for op in ops if "error" in op)
    verified = sum(1 for op in ops if op["verified"])
    correct = all(op["verified"] for op in ops if "error" not in op)
    ratios = [c["ratio"] for op in ops for c in op.get("checks", ())]
    max_dev_ratio = max(ratios) if ratios else 0.0

    if args.trace:
        from tracing import per_layer_metrics

        metrics = per_layer_metrics(result["trace_summary"], max_dev_ratio)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_verified_per_min": {"value": verified / (result["measure_s"] / 60.0), "unit": "1/min"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "environment": result["environment"],
        "rounds": result["rounds"],
        "measure_s": result["measure_s"],
        "setup_samples_s": setups,
        "attempted": attempted,
        "failed": failed,
        "verified": verified,
        "max_dev_ratio": max_dev_ratio,
        "metrics": metrics,
        "ops": ops,
    }
    if args.trace:
        record["trace_summary"] = result["trace_summary"]
        record["spans_file"] = os.path.relpath(stem + ".spans.json", ROOT)
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    env_info = result["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"commit {record['commit'] or 'unknown'} source {record['source_sha256'][:12]}")
    print(f"python {env_info['python']} numpy {env_info['numpy']} blas {env_info['blas']} "
          f"blas_threads {env_info['blas_threads']} nproc {env_info['nproc']}")
    print(f"rounds {result['rounds']} measured {result['measure_s']:.2f} s "
          f"attempted {attempted} failed {failed} verified {verified} "
          f"max_dev_ratio {max_dev_ratio:.3g}")
    for op in ops:
        if "error" in op:
            print(f"failed: round {op['round']} {op['kind']}: {op['error'].splitlines()[0]}")
        elif not op["verified"]:
            bad = [c["check"] for c in op["checks"] if not c["pass"]]
            print(f"incorrect: round {op['round']} {op['kind']}: {', '.join(bad)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"record {os.path.relpath(stem + '.json', ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
