"""Steadiness report: run the same commit in two sets and compare.

    python3 perfbench/steadiness.py

Run from the repository root.  For each workload, set A uses seeds 1..10
and set B seeds 101..110; each set ends with one traced run.
For every end-to-end metric it prints, raw and calibrated, each set's
median and quartiles, the spread (quartile distance / median) and the
agreement of the two medians, against the bound in BENCHMARK.json.  The
share of failed ops must be identical in every run.  The trace overhead is
the traced op_p50_s over the untraced median.  All runs go to
perfbench/out/steadiness.json as each set finishes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10       # untraced runs per set


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{cmd} exit {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    side = {}
    for line in lines[:-1]:
        tag, _, payload = line.partition(": ")
        if tag in ("raw", "traced"):
            side[tag] = json.loads(payload)
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": result, **side}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med


def main() -> None:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_path = HERE / "out" / "steadiness.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    ok = True
    for wl in names:
        sets = {}
        for label, base in (("A", 0), ("B", 100)):
            sets[label] = [one_run(wl, base + k, seconds, 0)
                           for k in range(1, RUNS + 1)]
            traced = one_run(wl, base + RUNS + 1, seconds, 1)
            runs += sets[label] + [traced]
            out_path.write_text(json.dumps(runs, indent=1))
            p50 = statistics.median(r["result"]["metrics"]["op_p50_s"]["value"]
                                    for r in sets[label])
            print(f"{wl} set {label}: trace overhead "
                  f"{traced['traced']['op_p50_s'] / p50 - 1:+.1%} on op_p50_s",
                  flush=True)
        shares = {(r["result"]["failed"], r["result"]["attempted"])
                  for s in sets.values() for r in s}
        ratios = {f / a for f, a in shares}
        correct = all(r["result"]["correct"] for s in sets.values() for r in s)
        print(f"{wl}: failed/attempted {sorted(shares)}; one share: "
              f"{len(ratios) == 1}; all correct: {correct}")
        ok = ok and len(ratios) == 1 and correct
        print(f"  {'metric':14s} {'form':10s} {'set':3s} {'median':>10s} "
              f"{'q1':>10s} {'q3':>10s} {'spread':>7s}  agreement (bound)")
        for metric, bound in bounds.items():
            for form in ("calibrated", "raw"):
                meds = {}
                for label, rs in sets.items():
                    vals = [r["result"]["metrics"][metric]["value"] if form == "calibrated"
                            else r["raw"][metric] for r in rs]
                    med, q1, q3, spread = summary(vals)
                    meds[label] = med
                    flag = ""
                    if form == "calibrated" and metric != "setup_s" and spread > bound:
                        flag, ok = " SPREAD > BOUND", False
                    print(f"  {metric:14s} {form:10s} {label:3s} {med:10.5g} "
                          f"{q1:10.5g} {q3:10.5g} {spread:7.2%}{flag}")
                agree = meds["B"] / meds["A"] - 1
                flag = ""
                if form == "calibrated" and abs(agree) > bound:
                    flag, ok = " DISAGREE", False
                print(f"  {metric:14s} {form:10s} B/A {agree:+.2%} ({bound:.0%}){flag}")
    print("steady" if ok else "NOT steady")


if __name__ == "__main__":
    main()
