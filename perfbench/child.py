"""Fresh-interpreter entry points started by run.py.

    python perfbench/child.py setup <workload>
        import the package and run the workload's fixed first op, checked;
    python perfbench/child.py cli <trace.json> <ambitoric cli args...>
        run the command line with every layer traced and write the spans.

Run from the repository root with src/ on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def setup(workload: str) -> int:
    import workloads
    if workload == "exact-family":
        case = workloads.golden_case("case1_proper_fold")
        probs = workloads.exact_check(case, workloads.exact_run(case.spec))
    elif workload == "kerr-geometry":
        probs = workloads.kerr_check(
            workloads.kerr_run(Fraction(1), Fraction(1, 2)))
    else:
        raise SystemExit(f"no in-process setup for {workload!r}")
    for p in probs:
        print(p, file=sys.stderr)
    return 3 if probs else 0


def cli(trace_path: str, argv) -> int:
    import ambitoric.cli
    import tracing
    rec = tracing.Recorder()
    rec.op = 0
    tracing.install(rec)
    try:
        return ambitoric.cli.main(argv)
    finally:
        Path(trace_path).write_text(json.dumps(rec.dump()))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2]))
    sys.exit(cli(sys.argv[2], sys.argv[3:]))
