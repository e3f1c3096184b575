#!/usr/bin/env python3
"""Print human-readable completability verdicts for the curated golden
specs, including the per-rule reports that the JSON files compress."""

import json
import pathlib

from ambitoric import AnsatzSpec, classify

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"


def main():
    for path in sorted(GOLDEN.glob("case*.json")):
        payload = json.loads(path.read_text())
        spec = AnsatzSpec.from_dict(payload["spec"])
        print(f"== {payload['name']} "
              f"(type {spec.ctype}, metric {spec.metric.tag}) ==")
        for comp, verdict in classify(spec):
            print(f"  component sign(x-y)={comp.sign_xy:+d} "
                  f"sign(q)={comp.sign_q:+d}: "
                  f"completable={verdict.completable} "
                  f"extends={verdict.extends_ambitoric}")
            for r in verdict.reports:
                print(f"    {r.line()}")
        print()


if __name__ == "__main__":
    main()
