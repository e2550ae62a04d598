#!/usr/bin/env python3
"""Run every workload several times and report how steady each metric is.

    python3 perfbench/steady.py                    # each workload once
    python3 perfbench/steady.py --runs 10          # the steadiness check
    python3 perfbench/steady.py --workloads exact --runs 5 --first-seed 11

Each run is ``perfbench/run.py --trace 0`` in a fresh interpreter, for the
run length in BENCHMARK.json, with its own seed (``--first-seed``, the next
one, ...).  For every workload this prints the
operations attempted and failed and, for every end-to-end metric, its unit,
median and quartiles over the runs, and the spread (q3 - q1) / median next
to the metric's bound in BENCHMARK.json.  The bounds were set from this
output: each spread must stay below a third of its bound (``setup_s`` is
exempt and has the largest bound).  The last line is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    steady = True
    for wl in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(wl, seed, spec["run_seconds"])
            results.append(res)
            print(f"{wl} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"== {wl}: {args.runs} runs, all correct: "
              f"{all(r['correct'] for r in results)}, failed share(s): {shares}")
        summary[wl] = {"failed_share": shares, "metrics": {}}
        for name in results[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            bound = bounds.get(name)
            ok = bound is None or name == "setup_s" or s["spread"] < bound / 3
            steady = steady and ok and len(shares) == 1
            summary[wl]["metrics"][name] = s
            print(f"   {name:<14} {s['unit']:<4} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}"
                  + (f"  bound {bound}" if bound is not None else "")
                  + ("" if ok else "  NOT STEADY"), flush=True)
    print(json.dumps({"steady": steady, "workloads": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
