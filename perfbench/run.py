"""Benchmark of ambitoric: one workload per run, calibrated timings.

    python3 perfbench/run.py --workload cli-cold|exact-family|kerr-geometry \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from src/.  A run
sets up (several fresh interpreters), then times whole rounds of the
workload's operations until S seconds have passed, checking every output.
The run is pinned to one CPU.  The calibration kernel (calib.py) runs right
before and after each timed sample, and every 50 ms while a child process
runs; each time is reported as raw * NOMINAL_S / mean kernel seconds.  With --trace 1
every layer is wrapped (tracing.py) and the per-layer metrics are reported
instead of the end-to-end ones.  The last line of standard output is the
JSON result; the line before it gives the raw (uncalibrated) figures.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / "perfbench" / "out"
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

import calib      # noqa: E402
import tracing    # noqa: E402
import workloads  # noqa: E402

N_SETUP = 5             # fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10        # op_tail_s: samples beyond the reported one
MIN_ROUND = 40          # ops per round, so that each round has a tail

END_TO_END = [("setup_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB")]


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.setups = []        # [raw, factor]
        self.samples = []       # [round, raw, factor, failed]
        self.imports = []       # (("setup" | "op", index), package_s, deferred_s), raw
        self.problems = []      # (op name, problems, kept fault or None)
        self.correct = True
        self.sampler = calib.Sampler(OUT)

    def error(self, msg: str) -> None:
        self.correct = False
        print(msg, file=sys.stderr)

    # -- timing ------------------------------------------------------------
    def timed_setup(self, fn) -> None:
        """Time fn(index) as one set-up sample, bracketed by the kernel."""
        self.sampler.take()
        k0 = calib.kernel_time()
        t0 = time.perf_counter()
        fn(len(self.setups))
        raw = time.perf_counter() - t0
        during, busy = self.sampler.take()
        kernels = [k0] + during + [calib.kernel_time()]
        self.setups.append([raw - busy, calib.factor(kernels)])

    def python_child(self, args, tag) -> None:
        cmd = [sys.executable] + (["-X", "importtime"] if self.trace else []) + args
        code, _, err = self.sampler.run_child(cmd, workloads.child_env(),
                                              str(ROOT), timeout=170)
        if self.trace:
            self.imports.append((tag,) + tracing.import_times(err))
        if code != 0:
            self.error(f"set-up child exit {code}: {err.strip().splitlines()[-3:]}")

    def measure(self, ops, before) -> None:
        """Time whole rounds of `ops` until the run's seconds have passed.
        before(sample index) runs right before each timed op."""
        if len(ops) < MIN_ROUND:
            raise ValueError(f"a round needs at least {MIN_ROUND} ops")
        start = time.perf_counter()
        kernels, during = [], []
        self.sampler.take()
        rnd = 0
        while True:
            for op in ops:
                kernels.append(calib.kernel_time())
                before(len(self.samples))
                t0 = time.perf_counter()
                try:
                    out, err = op.run(), None
                except Exception:
                    err = traceback.format_exc(limit=3)
                raw = time.perf_counter() - t0
                kernels_during, busy = self.sampler.take()
                raw -= busy
                during.append(kernels_during)
                if err is None:
                    try:
                        probs = op.check(out)
                    except Exception:
                        probs = ["check raised: " + traceback.format_exc(limit=3)]
                else:
                    probs = ["op raised: " + err]
                self.samples.append([rnd, raw, None, bool(probs)])
                if probs:
                    kept = op.fault is not None and op.fault.explains(probs)
                    self.problems.append((op.name, probs, op.fault if kept else None))
                    if not kept:
                        self.correct = False
            rnd += 1
            if time.perf_counter() - start >= self.seconds:
                break
        kernels.append(calib.kernel_time())
        for i, sample in enumerate(self.samples):
            sample[2] = calib.factor([kernels[i]] + during[i] + [kernels[i + 1]])

    # -- results -----------------------------------------------------------
    def end_to_end(self, calibrated: bool, rss_mb: float) -> dict:
        times = [raw * f if calibrated else raw for _, raw, f, _ in self.samples]
        tails = []
        for r in sorted({s[0] for s in self.samples}):
            per_round = sorted(t for t, s in zip(times, self.samples) if s[0] == r)
            tails.append(per_round[len(per_round) - 1 - TAIL_BEYOND])
        setup = [raw * f if calibrated else raw for raw, f in self.setups]
        return {
            "setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(times),
            "op_tail_s": statistics.median(tails),
            "ops_per_s": len(times) / sum(times),
            "peak_rss_mb": rss_mb,
        }

    def calibrated_imports(self):
        out = []
        for (kind, i), pkg, deferred in self.imports:
            f = self.setups[i][1] if kind == "setup" else self.samples[i][2]
            out.append((pkg and pkg * f, deferred and deferred * f))
        return out

    def finish(self, rss_mb: float, trace_dump: dict) -> None:
        cal = self.end_to_end(True, rss_mb)
        if self.trace:
            factors = {i: s[2] for i, s in enumerate(self.samples)}
            metrics = tracing.layer_metrics(
                trace_dump["spans"], trace_dump["counts"],
                trace_dump["components"], factors, len(self.samples),
                self.calibrated_imports())
            units = tracing.METRICS
            print("traced: " + json.dumps({"op_p50_s": cal["op_p50_s"],
                                           "ops_per_s": cal["ops_per_s"]}))
            path = OUT / f"trace-{self.workload}-seed{self.seed}.json"
            path.write_text(json.dumps({
                "workload": self.workload, "seed": self.seed,
                "factors": factors, "imports": self.calibrated_imports(),
                **trace_dump}))
        else:
            metrics, units = cal, END_TO_END
            raw = self.end_to_end(False, rss_mb)
            raw["mean_factor"] = statistics.mean(s[2] for s in self.samples)
            raw["rounds"] = len({s[0] for s in self.samples})
            print("raw: " + json.dumps(raw))
        attempted = len(self.samples)
        for name, probs, fault in {(n, tuple(p), f): None
                                   for n, p, f in self.problems}:
            tag = f"kept fault: {fault.text}" if fault else "UNEXPECTED"
            print(f"failed op {name} ({tag}): {'; '.join(probs)[:300]}",
                  file=sys.stderr)
        print(json.dumps({
            "correct": self.correct and attempted > 0,
            "attempted": attempted,
            "failed": sum(1 for s in self.samples if s[3]),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units},
        }))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def run_inprocess(run: Run) -> None:
    for _ in range(N_SETUP):
        run.timed_setup(lambda k: run.python_child(
            [str(CHILD), "setup", run.workload], ("setup", k)))
    ops = (workloads.exact_ops(run.seed) if run.workload == "exact-family"
           else workloads.kerr_ops(run.seed))
    ops[0].run()                                # warm: imported and run once
    rec = tracing.Recorder()
    if run.trace:
        tracing.install(rec)

    def before(i):
        rec.op = i

    run.measure(ops, before)
    run.finish(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               rec.dump())


def run_cli(run: Run) -> None:
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=str(OUT)))
    try:
        runner = workloads.CliRunner(workdir, run.trace, run.sampler)
        kerr_path = workdir / "kerr-interior.spec.json"
        csv, svg = runner.moment_paths("kerr-interior", "-")

        def setup(k):
            # write the Kerr interior input, then run the first op on it
            runner.tag = ("setup", k)
            for args in (["examples", "kerr-interior", "--out", str(kerr_path)],
                         ["moment", str(kerr_path), "--sign", "-",
                          "--csv", str(csv), "--svg", str(svg)]):
                code, _, err = runner.call(args)
                if code != 0:
                    run.error(f"set-up {args[0]} exit {code}: {err[-300:]}")
            digest = (workloads.digest(csv), workloads.digest(svg))
            if runner.digests.setdefault(("kerr-interior", "-"), digest) != digest:
                run.error("set-up: repeated moment op wrote different bytes")

        for _ in range(N_SETUP):
            run.timed_setup(setup)
        ops = runner.ops(workloads.write_cli_inputs(workdir, kerr_path),
                         random.Random(run.seed))

        def before(i):
            runner.tag = ("op", i)

        run.measure(ops, before)
        run.imports = runner.imports
        run.finish(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
                   runner.merged_trace())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


WORKLOADS = {"cli-cold": run_cli, "exact-family": run_inprocess,
             "kerr-geometry": run_inprocess}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for need in ("src/ambitoric/__init__.py", "tests/golden/case1_proper_fold.json"):
        if not (ROOT / need).is_file():
            print(f"run.py: {need} not found; run from the repository root",
                  file=sys.stderr)
            sys.exit(2)
    # one BLAS thread, and one CPU for the harness and its children: the
    # cores of this machine change speed independently, so the kernel only
    # tells the speed of a sample that ran on its own core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(parents=True, exist_ok=True)
    WORKLOADS[args.workload](Run(args.workload, args.seed, args.seconds,
                                 bool(args.trace)))


if __name__ == "__main__":
    main()
