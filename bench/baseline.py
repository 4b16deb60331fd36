"""Run the benchmark repeatedly and write a ``BENCH_<n>.json`` record.

Usage, from the root of a checkout::

    python3 bench/baseline.py --name BENCH_0 --runs 10

For every workload in ``BENCHMARK.json`` it makes ``--runs`` untraced runs,
one per seed from 1 up, round-robin over the workloads so that slow drift
of the machine spreads over all of them.  It then makes two traced runs
per workload with seed 1 and checks that their call and row counts agree
exactly.  The record holds, per workload and metric, every value, the
median, the quartiles and the spread (interquartile distance over the
median) next to the metric's bound; the medians of the metrics each run
prints under its own names; the per-layer profile; and the environment.
Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(args)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    env = next(json.loads(x[len("# env "):]) for x in lines
               if x.startswith("# env "))
    stem = f"{workload}-seed{seed}-trace{trace}"
    printed = json.loads((BENCH_DIR / "out" / f"{stem}.json")
                         .read_text())["printed"]
    return result, env, printed


def summary(values, bound=None):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    out = {"median": med, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / med if med else None, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["spread_within_third_of_bound"] = (
            out["spread"] is not None and out["spread"] < bound / 3)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--name", required=True, help="record name, e.g. BENCH_0")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = spec["command"], spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.runs + 1))

    values = {w: {} for w in workloads}
    printed = {w: {} for w in workloads}
    env = None
    for seed in seeds:
        for w in workloads:
            result, env, shown = run_once(command, w, seed, seconds, 0)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            for name, m in shown.items():
                printed[w].setdefault(name, {"unit": m["unit"], "values": []})
                printed[w][name]["values"].append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                flush=True)

    record = {"name": args.name, "environment": env, "run_seconds": seconds,
              "seeds": seeds, "workloads": {}}
    for w in workloads:
        entry = {
            "end_to_end": {k: summary(v, bounds[k])
                           for k, v in values[w].items()},
            "printed": {k: {"unit": p["unit"],
                            "median": statistics.median(p["values"])}
                        for k, p in printed[w].items()},
        }
        a, _, _ = run_once(command, w, seeds[0], seconds, 1)
        b, _, _ = run_once(command, w, seeds[0], seconds, 1)
        counts = [k for k, m in a["metrics"].items()
                  if m["unit"] in ("count", "rows")]
        differ = [k for k in counts
                  if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        entry["per_layer"] = {
            "seed": seeds[0],
            "counts_repeat_exactly": not differ,
            "counts_that_differ": differ,
            "metrics": {k: [a["metrics"][k]["value"], b["metrics"][k]["value"],
                            a["metrics"][k]["unit"]]
                        for k in a["metrics"]},
        }
        record["workloads"][w] = entry
        for k, s in entry["end_to_end"].items():
            print(f"{w:9s} {k:14s} median {s['median']:.6g}  spread "
                  f"{s['spread']:.4f}  bound {s['bound']}")

    out = BENCH_DIR / f"{args.name}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
