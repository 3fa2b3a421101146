#!/usr/bin/env python3
"""Run the benchmark over a list of seeds and write BENCH_<pr>.json.

    python scripts/bench_record.py --pr N --seeds 9001-9010 \\
        --side parent=../seltrace-parent --side change=.

Each --side names a checkout to measure.  For every seed and workload the
sides run `bench/run.py` one after the other, in an order that alternates
from seed to seed, so that each seed gives one pair of runs taken at nearly
the same time.  After the untraced pairs, each side makes one traced run
(`--trace 1`) at the first seed.  The file, written at the root of this
checkout, holds per side: the commit, nproc, the numpy version, every run's
end-to-end metrics, their median and quartiles per workload, the traced
run's per-layer metrics and its per-operation check ratios of round 0.  With
two sides it also counts, per workload and metric, the pairs the last side
wins, and compares two metrics on equal operation sets (`shared_rounds`),
since a faster side fits more rounds into the same seconds: the traced
runs' largest check ratio over the rounds both reached, and each pair's
per-operation peak RSS over the rounds both of its runs reached.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str) -> list[int]:
    """'9001-9010' or '9001,9003,9005'."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def _run(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py run in `checkout`; its full record from bench/out/."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}")
    path = os.path.join(checkout, "bench", "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def _summary(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def _round0_ratios(record: dict) -> dict:
    """Largest deviation/tolerance ratio of each round-0 operation."""
    return {op["kind"]: max((c["ratio"] for c in op.get("checks", ())), default=None)
            for op in record["ops"] if op["round"] == 0}


def _values(record: dict) -> dict:
    return {name: m["value"] for name, m in record["metrics"].items()}


def _max_over_rounds(record: dict, rounds: int, values) -> float | None:
    """Largest of values(op) over the operations of rounds 0 .. rounds - 1."""
    return max((v for op in record["ops"] if op["round"] < rounds for v in values(op)), default=None)


def _check_ratios(op: dict) -> list:
    return [c["ratio"] for c in op.get("checks", ())]


def _peak_rss(op: dict) -> list:
    return [op["peak_rss_mb"]] if "peak_rss_mb" in op else []


def _shared_rounds(base: dict, new: dict) -> dict:
    """Per workload, the metrics that grow with the rounds a run fits, taken
    over the rounds both sides reached: `max_dev_ratio` of the traced runs,
    and per pair of untraced runs the per-operation peak RSS, with the pairs
    the last side wins (lower RSS)."""
    out = {}
    for workload in base["runs"]:
        tb, tn = base["traced"][workload], new["traced"][workload]
        shared = min(tb["rounds"], tn["rounds"])
        rss = {"rounds": [], "base": [], "new": []}
        for rb, rn in zip(base["runs"][workload], new["runs"][workload]):
            k = min(rb["rounds"], rn["rounds"])
            rss["rounds"].append(k)
            rss["base"].append(_max_over_rounds(rb, k, _peak_rss))
            rss["new"].append(_max_over_rounds(rn, k, _peak_rss))
        out[workload] = {
            "traced_rounds": shared,
            "max_dev_ratio": {"base": _max_over_rounds(tb, shared, _check_ratios),
                              "new": _max_over_rounds(tn, shared, _check_ratios)},
            "peak_rss_mb": {**rss,
                            "median": {k: statistics.median(rss[k]) for k in ("base", "new")},
                            "wins": sum(1 for a, b in zip(rss["base"], rss["new"]) if b < a)},
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True, type=int, help="number in the file name BENCH_<pr>.json")
    ap.add_argument("--seeds", required=True, help="e.g. 9001-9010 or 9001,9002")
    ap.add_argument("--side", action="append", required=True, metavar="LABEL=CHECKOUT")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = float(bench["run_seconds"])
    workloads = [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {}
    for spec in args.side:
        label, _, path = spec.partition("=")
        sides[label] = os.path.abspath(path)
    seeds = _seeds(args.seeds)

    runs = {label: {w: [] for w in workloads} for label in sides}
    for i, seed in enumerate(seeds):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for workload in workloads:
            for label in order:
                rec = _run(sides[label], workload, seed, seconds, 0)
                runs[label][workload].append(rec)
                print(f"{label} {workload} seed {seed}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in _values(rec).items()), flush=True)

    doc = {"pr": args.pr, "seconds": seconds, "seeds": seeds, "sides": {}}
    traced_runs = {}
    for label, checkout in sides.items():
        first = runs[label][workloads[0]][0]
        side = {"commit": first["commit"], "source_sha256": first["source_sha256"],
                "nproc": first["environment"]["nproc"], "numpy": first["environment"]["numpy"],
                "environment": first["environment"], "workloads": {}}
        for workload in workloads:
            recs = runs[label][workload]
            per_run = [dict(seed=r["seed"], attempted=r["attempted"], failed=r["failed"],
                            verified=r["verified"], rounds=r["rounds"], **_values(r)) for r in recs]
            metrics = sorted({k for r in recs for k in r["metrics"]})
            traced = _run(checkout, workload, seeds[0], seconds, 1)
            traced_runs.setdefault(label, {})[workload] = traced
            side["workloads"][workload] = {
                "runs": per_run,
                "summary": {m: _summary([r[m] for r in per_run]) for m in metrics},
                "traced": {"seed": seeds[0], "rounds": traced["rounds"],
                           "attempted": traced["attempted"], "metrics": _values(traced),
                           "round0_check_ratios": _round0_ratios(traced)},
            }
        doc["sides"][label] = side

    if len(sides) == 2:
        base, new = list(sides)
        wins = {}
        for workload in workloads:
            wins[workload] = {}
            for metric, direction in better.items():
                a = [r[metric] for r in doc["sides"][base]["workloads"][workload]["runs"]]
                b = [r[metric] for r in doc["sides"][new]["workloads"][workload]["runs"]]
                sign = 1.0 if direction == "higher" else -1.0
                won = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
                wins[workload][metric] = {"pairs": len(a), "won_by": new, "wins": won}
        doc["pair_wins"] = wins
        shared = _shared_rounds({"runs": runs[base], "traced": traced_runs[base]},
                                {"runs": runs[new], "traced": traced_runs[new]})
        doc["shared_rounds"] = {"base": base, "new": new, "workloads": shared}

    out_path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(out_path, os.getcwd())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
