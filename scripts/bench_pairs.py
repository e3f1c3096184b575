"""Run perfbench on two checkouts in alternating pairs and write a BENCH file.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --seed 43 --out BENCH_n.json \
        [--trace kerr-geometry]

Each directory is a whole checkout, for example one made with `git archive`.
Every run is `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` in that directory, with T the `run_seconds` of BENCHMARK.json,
and its result is the last line it prints.  Each workload gets 10 pairs
of runs; pair k runs the parent first when k is odd and the change first
when k is even.  For each end-to-end metric of BENCHMARK.json the summary
gives each side's median and quartiles and the number of pairs in which
the change was better.  `--trace W` adds one traced run of W on each side.  The line
counts of `src/` on both sides are recorded too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = ["python3", "perfbench/run.py"]
PAIRS = 10


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> list:
    """The last two lines printed by one perfbench run in root."""
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    return out.strip().splitlines()[-2:]


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def summary(runs: list, metrics: list) -> dict:
    out = {}
    for name, better in metrics:
        side = {s: [r["result"]["metrics"][name]["value"] for r in runs if r["side"] == s]
                for s in ("parent", "change")}
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(side["parent"], side["change"]))
        out[name] = {s: dict(zip(("q1", "median", "q3"), statistics.quantiles(v, n=4)))
                     for s, v in side.items()}
        out[name].update(change_better_pairs=wins, pairs=len(side["parent"]))
    out["failed"] = {s: sorted({(r["result"]["failed"], r["result"]["attempted"])
                                for r in runs if r["side"] == s})
                     for s in ("parent", "change")}
    out["correct"] = all(r["result"]["correct"] for r in runs)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="append", default=[])
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    roots = {"parent": args.parent, "change": args.change}
    result = {"command": " ".join(RUN) + " --workload <workload> --seed <seed> "
                         f"--seconds {seconds:g} --trace 0",
              "method": "each run in its own process, one after another; pair k runs the "
                        "parent first when k is odd; 'result' is the last line each run "
                        "printed; summaries give median and quartiles per side and the "
                        "number of pairs in which the change was better",
              "seed": args.seed,
              "src_lines": {s: src_lines(r) for s, r in roots.items()},
              "workloads": {}, "traced": {}}
    for w in (w["name"] for w in bench["workloads"]):
        runs = []
        for k in range(1, PAIRS + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            for i, side in enumerate(order):
                line = run(roots[side], w, args.seed, seconds, 0)[-1]
                runs.append({"pair": k, "order": i, "side": side, "result": json.loads(line)})
                print(w, k, side, line[:120], file=sys.stderr, flush=True)
        result["workloads"][w] = {"seconds": seconds, "summary": summary(runs, metrics),
                                  "runs": runs}
    for w in args.trace:
        result["traced"][w] = {}
        for side, root in roots.items():
            traced_line, line = run(root, w, args.seed, seconds, 1)
            result["traced"][w][side] = {"traced_line": traced_line, "result": json.loads(line)}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
