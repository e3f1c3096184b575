"""Run perfbench on two checkouts in alternating pairs and write a BENCH file.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --seed 43 --out BENCH_n.json \
        [--trace kerr-geometry] [--held-out cli-cold=5]

Each directory is a whole checkout, for example one made with `git archive`.
Every run is `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` in that directory, with T the `run_seconds` of BENCHMARK.json,
and its result is the last line it prints.  Each workload gets 10 pairs
of runs; pair k runs the parent first when k is odd and the change first
when k is even.  Before each `cli-cold` run, the medians of 5 `python3 -c pass`
and 5 `python3 -S -c pass` processes are recorded under `before`, so that a cold
time can be read against the interpreter's own start.  For each end-to-end
metric of BENCHMARK.json the summary gives each side's median and quartiles, the
differences change minus parent pair by pair with their median and quartiles,
the number of pairs in which the change was better, and the exact two-sided
sign-test p-value of that count (ties dropped).  `claim_holds` is the rule that
judges a claimed gain on a metric: the quartile of the differences nearest 0
lies on the better side, and the sign test gives p < 0.05 (9 of 10 pairs give
0.021, 10 of 10 give 0.002).  `--trace W` adds one traced run of W on each side, and
`--held-out W=S` 10 more pairs of W at the seed S, summarised the same way.  The
line counts of `src/` on both sides are recorded too, and under `cold_lines` the
source lines that each cold subcommand of `COLD` compiles: the lines of the
`ambitoric` modules in `sys.modules` after `cli.main` ran it in a fresh
interpreter (`COLD_LINES`), on the spec of tests/golden/case1_proper_fold.json.

Every BENCH file also gets `first_use`: 10 more pairs, alternating the same way,
that time the exact layer on new spec instances, so that no per-spec cache stays
warm across rounds.  Each run is one process in that checkout (`FIRST_USE`): it
imports `perfbench/workloads`, runs `exact_run` once on every case untimed, then
for each of `FIRST_USE_ROUNDS` rounds rebuilds `exact_cases(seed)` untimed and
times `exact_run` once per case.  The run's result is the median of those times;
the summary gives each side's median and quartiles of the run medians and the
number of pairs in which the change was better.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUN = ["python3", "perfbench/run.py"]
PAIRS = 10
#: timed before each `cli-cold` run, against which its cold times are read
INTERPRETER = {"python_c_pass_s": ["python3", "-c", "pass"],
               "python_S_c_pass_s": ["python3", "-S", "-c", "pass"]}
INTERPRETER_RUNS = 5
FIRST_USE_ROUNDS = 5
FIRST_USE = """
import json, statistics, sys, time
sys.path[:0] = ["src", "perfbench"]
import workloads
seed, rounds = int(sys.argv[1]), int(sys.argv[2])
for case in workloads.exact_cases(seed):
    workloads.exact_run(case.spec)
times = []
for _ in range(rounds):
    for case in workloads.exact_cases(seed):
        t = time.perf_counter()
        workloads.exact_run(case.spec)
        times.append(time.perf_counter() - t)
print(json.dumps({"median_s": statistics.median(times), "ops": len(times)}))
"""
#: the cold subcommands of `cold_lines`; SPEC is the golden case1 spec
COLD = {"validate": ["validate", "SPEC"], "classify": ["classify", "SPEC"],
        "check": ["check", "SPEC"], "moment": ["moment", "SPEC", "--sign", "+"],
        "examples kerr-interior": ["examples", "kerr-interior"]}
COLD_LINES = """
import json, os, sys
sys.path[:0] = ["src"]
from ambitoric.cli import main
assert main(sys.argv[1:]) <= 1
mods = sorted(n for n in sys.modules if n.startswith("ambitoric"))
lines = sum(len(open(sys.modules[n].__file__).read().splitlines()) for n in mods)
print(json.dumps({"lines": lines, "modules": mods}))
"""


def cold_lines(root: Path, scratch: Path) -> dict:
    """The source lines that each subcommand of `COLD` compiles in root."""
    spec = scratch / "spec.json"
    golden = json.loads((root / "tests/golden/case1_proper_fold.json").read_text())
    spec.write_text(json.dumps(golden["spec"]))
    out = {}
    for name, argv in COLD.items():
        argv = [str(spec) if a == "SPEC" else a for a in argv]
        cmd = ["python3", "-c", COLD_LINES, *argv, "--out", str(scratch / "out")]
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
        out[name] = json.loads(done.stdout.strip().splitlines()[-1])
    return out


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> list:
    """The last two lines printed by one perfbench run in root."""
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    return out.strip().splitlines()[-2:]


def interpreter(root: Path) -> dict:
    """The median wall time of `INTERPRETER_RUNS` processes of each command of
    `INTERPRETER`, run in root."""
    out = {}
    for name, cmd in INTERPRETER.items():
        times = []
        for _ in range(INTERPRETER_RUNS):
            t = time.perf_counter()
            subprocess.run(cmd, cwd=root, check=True)
            times.append(time.perf_counter() - t)
        out[name] = statistics.median(times)
    return out


def first_use(root: Path, seed: int) -> dict:
    """One `FIRST_USE` run in root: the median time of `exact_run` per op."""
    cmd = ["python3", "-c", FIRST_USE, str(seed), str(FIRST_USE_ROUNDS)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def in_pairs(roots: dict, measure, tag: str, before=None) -> list:
    """PAIRS pairs of runs, measure(root) each, after before(root) when it is
    given; pair k runs the parent first when k is odd."""
    runs = []
    for k in range(1, PAIRS + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for i, side in enumerate(order):
            record = {"pair": k, "order": i, "side": side}
            if before is not None:
                record["before"] = before(roots[side])
            record["result"] = measure(roots[side])
            runs.append(record)
            print(tag, k, side, str(record["result"])[:120], file=sys.stderr, flush=True)
    return runs


def quartiles(values: list) -> dict:
    """The first quartile, the median and the third quartile of values."""
    return dict(zip(("q1", "median", "q3"), statistics.quantiles(values, n=4)))


def sign_test_p(wins: int, losses: int) -> float:
    """The exact two-sided sign-test p-value of wins against losses."""
    n, k = wins + losses, max(wins, losses)
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(k, n + 1)) / 2 ** n)


def compare(runs: list, value, better: str = "lower") -> dict:
    """Each side's median and quartiles of value(run), and of the differences
    change minus parent within each pair; the number of pairs in which the
    change was better, and the sign-test p-value of that count."""
    side = {s: {r["pair"]: value(r) for r in runs if r["side"] == s}
            for s in ("parent", "change")}
    diffs = [side["change"][k] - side["parent"][k] for k in sorted(side["parent"])]
    sign = -1 if better == "lower" else 1
    wins, losses = sum(sign * d > 0 for d in diffs), sum(sign * d < 0 for d in diffs)
    out = {s: quartiles(list(v.values())) for s, v in side.items()}
    out.update(better=better, differences=diffs, difference=quartiles(diffs),
               change_better_pairs=wins, pairs=len(diffs),
               sign_test_p=sign_test_p(wins, losses))
    out["claim_holds"] = claim_holds(out)
    return out


def claim_holds(entry: dict) -> bool:
    """Whether a `compare` entry shows a gain: the quartile of the differences
    nearest 0 lies on the better side, and the sign test gives p < 0.05."""
    if entry["better"] == "lower":
        beyond = entry["difference"]["q3"] < 0
    else:
        beyond = entry["difference"]["q1"] > 0
    return beyond and entry["sign_test_p"] < 0.05


def summary(runs: list, metrics: list) -> dict:
    """`compare` of every end-to-end metric (name, better) over runs; for runs
    that recorded the interpreter's start, `compare` of that too."""
    out = {name: compare(runs, lambda r, name=name: r["result"]["metrics"][name]["value"],
                         better)
           for name, better in metrics}
    if all("before" in r for r in runs):
        out["before"] = {name: compare(runs, lambda r, name=name: r["before"][name])
                         for name in INTERPRETER}
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
    ap.add_argument("--held-out", action="append", default=[], metavar="WORKLOAD=SEED")
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    roots = {"parent": args.parent, "change": args.change}
    result = {"command": " ".join(RUN) + " --workload <workload> --seed <seed> "
                         f"--seconds {seconds:g} --trace 0",
              "method": "each run in its own process, one after another; pair k runs the "
                        "parent first when k is odd; 'result' is the last line each run "
                        "printed; before each cli-cold run, 'before' holds the medians of "
                        f"{INTERPRETER_RUNS} processes of each of: "
                        + "; ".join(" ".join(c) for c in INTERPRETER.values())
                        + "; summaries give median and quartiles per side and of the "
                        "differences change minus parent within each pair, the number of "
                        "pairs in which the change was better, the exact two-sided "
                        "sign-test p-value of that count, and claim_holds: the quartile "
                        "of the differences nearest 0 lies on the better side and p < 0.05",
              "seed": args.seed,
              "src_lines": {s: src_lines(r) for s, r in roots.items()},
              "workloads": {}, "traced": {}, "held_out": {}}
    with tempfile.TemporaryDirectory() as scratch:
        result["cold_lines"] = {s: cold_lines(r, Path(scratch)) for s, r in roots.items()}

    def paired(w: str, seed: int) -> dict:
        runs = in_pairs(roots, lambda root: json.loads(run(root, w, seed, seconds, 0)[-1]),
                        f"{w} seed {seed}", interpreter if w == "cli-cold" else None)
        return {"seconds": seconds, "summary": summary(runs, metrics), "runs": runs}

    for w in (w["name"] for w in bench["workloads"]):
        result["workloads"][w] = paired(w, args.seed)
    for spec in args.held_out:
        w, seed = spec.split("=")
        result["held_out"][w] = dict(seed=int(seed), **paired(w, int(seed)))
    for w in args.trace:
        result["traced"][w] = {}
        for side, root in roots.items():
            traced_line, line = run(root, w, args.seed, seconds, 1)
            result["traced"][w][side] = {"traced_line": traced_line, "result": json.loads(line)}
    runs = in_pairs(roots, lambda root: first_use(root, args.seed), "first-use")
    result["first_use"] = {"command": "python3 -c FIRST_USE <seed> "
                                      f"{FIRST_USE_ROUNDS} (scripts/bench_pairs.py)",
                           "rounds": FIRST_USE_ROUNDS,
                           "summary": compare(runs, lambda r: r["result"]["median_s"]),
                           "runs": runs}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
