"""Command-line front end.

Spec files are JSON objects with rational numbers written as strings:

    {
      "q": ["0", "1", "0"],
      "A": ["-12", "10", "-2"],
      "B": ["0", "-2", "-2"],
      "x_interval": ["2", "3"],
      "y_interval": ["-1", "0"],
      "lattice": [["1", "0"], ["0", "1"]],
      "metric": "g0"            # or "g+", "g-", {"gp": ["0","0","1"]}
    }

Interval endpoints accept "inf" / "-inf"; an optional "tau_basis" lists
two q-orthogonal quadratics (written by `gauge` when the transported q is
not in canonical form).  A `csc-gen` data file holds "q", "p", "rho", the
five coefficients a0..a4 of "R", and optionally "x_interval",
"y_interval" and "lattice".  `validate`, `check`, `classify` and `moment`
work on the same exact cells, the connected components of the box minus
the folds (`validate` lists one sign pair per cell, so a pair can repeat);
only `moment --grid` sets a sample density (default 24).
Exit codes: 0 success, 1 negative classification verdict, 2 input error
(a missing or malformed field is named), 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .ansatz import FIELDS, AnsatzSpec, validate

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3


def _load_spec(path: str) -> AnsatzSpec:
    with open(path) as fh:
        return AnsatzSpec.from_dict(json.load(fh))


def _dump_json(obj, path: Optional[str]):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands: the four that the benchmark traces by these names; `moment`
# and `check` run from the modules that only they load, and the other five
# from `commands` (`main`)
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    spec = _load_spec(args.spec)
    comps = validate(spec)
    out = [{"sign_xy": c.sign_xy, "sign_q": c.sign_q} for c in comps]
    _dump_json({"conic_type": spec.ctype, "components": out}, args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    from .invariants import run_check

    return run_check(args)


def _cmd_classify(args) -> int:
    from .classify import classify

    spec = _load_spec(args.spec)
    results = classify(spec)
    out = []
    all_ok = True
    for comp, verdict in results:
        all_ok = all_ok and verdict.completable
        d = verdict.to_dict()
        d["component"] = {"sign_xy": comp.sign_xy, "sign_q": comp.sign_q}
        out.append(d)
    _dump_json({"metric": spec.metric.tag, "verdicts": out}, args.out)
    return EXIT_OK if all_ok else EXIT_NEGATIVE


def _cmd_moment(args) -> int:
    from .figures import run_moment

    return run_moment(args)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ambitoric",
        description="Ambitoric ansatz geometry: validation, tensors, moment "
                    "maps, completability classification.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, spec=True):
        if spec:
            p.add_argument("spec", help="spec JSON file")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("validate", help="list the sign pair of each cell")
    common(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("eval", help="tensor blocks at a point")
    common(p)
    p.add_argument("--at", required=True, help="x,y")
    p.add_argument("--field", default=None, choices=list(FIELDS))
    p.set_defaults(fn="run_eval")

    p = sub.add_parser("check", help="invariant suite with pass/fail counts")
    common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("classify", help="completability verdicts")
    common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("moment", help="moment-map samples, conic, figures")
    common(p)
    p.add_argument("--sign", default="+", choices=["+", "-"])
    p.add_argument("--grid", type=int, default=24,
                   help="samples per component side (default 24)")
    p.add_argument("--csv", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=_cmd_moment)

    p = sub.add_parser("kerr", help="emit a Kerr spec file")
    common(p, spec=False)
    p.add_argument("--mass", default="1")
    p.add_argument("--alpha", default="1/2")
    p.add_argument("--region", default="exterior",
                   choices=["exterior", "interior"])
    p.set_defaults(fn="run_kerr")

    p = sub.add_parser("examples", help="named example registry")
    common(p, spec=False)
    p.add_argument("name", help="kerr | kerr-interior | cp2 | hirzebruch:k")
    p.add_argument("--format", default="json", choices=["json", "svg"])
    p.set_defaults(fn="run_examples")

    p = sub.add_parser("gauge", help="Mobius-transport a spec file")
    common(p)
    p.add_argument("--mobius", required=True, help="a,b,c,d")
    p.set_defaults(fn="run_gauge")

    p = sub.add_parser("csc-gen", help="build a CSC/Einstein spec from data")
    common(p, spec=False)
    p.add_argument("data", help="CSC data JSON file")
    p.set_defaults(fn="run_csc_gen")
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        fn = args.fn
        if isinstance(fn, str):
            # the handler of a subcommand in `commands`, named by the parser
            from . import commands

            fn = getattr(commands, fn)
        return fn(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as err:
        print(f"internal invariant failure: {err}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    # under `python -m ambitoric.cli` the handler modules import this module
    # as `ambitoric.cli`, not a second copy that would compile again
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
