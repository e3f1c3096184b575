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
work on the same exact cells, the components of the box minus the folds.
Exit codes: 0 success, 1 negative classification verdict, 2 usage or input
error (a missing or malformed field is named), 3 a `check` invariant failed.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from .ansatz import FIELDS, AnsatzSpec, quoted, validate

EXIT_OK, EXIT_NEGATIVE, EXIT_INPUT, EXIT_INVARIANT = 0, 1, 2, 3


def _load_spec(path: str) -> AnsatzSpec:
    with open(path) as fh:
        return AnsatzSpec.from_dict(json.load(fh))


def _dump_json(obj, path: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the four subcommands that the benchmark traces by these names; the other
# four run from `commands`

def _cmd_validate(args) -> int:
    spec = _load_spec(args.spec)
    out = [{"sign_xy": c.sign_xy, "sign_q": c.sign_q} for c in validate(spec)]
    _dump_json({"conic_type": spec.ctype, "components": out}, args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    from .invariants import run_check

    return run_check(args)


def _cmd_classify(args) -> int:
    from .classify import classify

    spec = _load_spec(args.spec)
    out = [dict(verdict.to_dict(), component={"sign_xy": comp.sign_xy, "sign_q": comp.sign_q})
           for comp, verdict in classify(spec)]
    _dump_json({"metric": spec.metric.tag, "verdicts": out}, args.out)
    return EXIT_OK if all(d["completable"] for d in out) else EXIT_NEGATIVE


def _cmd_moment(args) -> int:
    from .figures import run_moment

    return run_moment(args)


REQUIRED = object()     # the default of an option that must be given
MAX_GRID = 1000         # `moment --grid N` walks a 3N x 3N lattice per cell
_OUT = {"--out": (None, "PATH")}

#: The command line, parsed without argparse, whose import (with `gettext` and
#: `locale`) every cold run would pay: subcommand -> (help, positionals,
#: options, handler name), an option as flag -> (default, kind) with kind a
#: metavar, `int` or a tuple of choices.  `main` looks handlers up by name when
#: they run, so the benchmark's tracing wrappers of the `_cmd_*` stay in effect.
COMMANDS = {
    "validate": ("list the sign pair of each cell", ["spec"], _OUT, "_cmd_validate"),
    "eval": ("tensor blocks at a point", ["spec"],
             {**_OUT, "--at": (REQUIRED, "X,Y"), "--field": (None, FIELDS)}, "run_eval"),
    "check": ("invariant suite with pass/fail counts", ["spec"], _OUT, "_cmd_check"),
    "classify": ("completability verdicts", ["spec"], _OUT, "_cmd_classify"),
    "moment": (f"moment-map samples (--grid N <= {MAX_GRID}), conic, figures", ["spec"],
               {**_OUT, "--sign": ("+", ("+", "-")), "--grid": (24, int),
                "--csv": (None, "PATH"), "--svg": (None, "PATH")}, "_cmd_moment"),
    "examples": ("named example: kerr, kerr-interior (Kerr spec files, --mass 1 and "
                 "--alpha 1/2 by default), cp2 or hirzebruch:k", ["name"],
                 {**_OUT, "--format": ("json", ("json", "svg")), "--mass": (None, "M"),
                  "--alpha": (None, "ALPHA")}, "run_examples"),
    "gauge": ("Mobius-transport a spec file", ["spec"],
              {**_OUT, "--mobius": (REQUIRED, "A,B,C,D")}, "run_gauge"),
    "csc-gen": ("build a CSC/Einstein spec from a data file", ["data"], _OUT, "run_csc_gen"),
}


def _usage(command: str | None) -> str:
    if command is None:
        return "\n".join(["usage: ambitoric <command> [options]", "", "commands:"]
                         + [f"  {name:<9} {entry[0]}" for name, entry in COMMANDS.items()]
                         + ["", "`ambitoric <command> -h` lists the options of one.", ""])
    text, positionals, options, _ = COMMANDS[command]
    words = ["usage: ambitoric", command, *positionals]
    for flag, (default, kind) in options.items():
        arg = f"{flag} {kind if isinstance(kind, str) else 'N' if kind is int else '|'.join(kind)}"
        words.append(arg if default is REQUIRED else f"[{arg}]")
        if default not in (None, REQUIRED):
            text += f"; {flag} {default} by default"
    return "\n".join([" ".join(words), "", text + ".", "Flags cannot be abbreviated.", ""])


def _parse_args(argv: list[str]):
    """(arguments, handler name) of a command line, or (None, None) once the help
    that `-h` or `--help` asks for is printed; a usage error is a `ValueError`."""
    command = argv[0] if argv else None
    if command in ("-h", "--help") or command in COMMANDS and {"-h", "--help"} & set(argv):
        sys.stdout.write(_usage(command if command in COMMANDS else None))
        return None, None
    if command not in COMMANDS:
        what = f"unknown subcommand {quoted(command)}" if argv else "no subcommand"
        raise ValueError(f"{what}; `ambitoric -h` lists them")
    _, positionals, options, handler = COMMANDS[command]
    values = {flag[2:]: default for flag, (default, _) in options.items()}
    given, tokens = [], iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        flag, eq, value = token.partition("=")
        if flag not in options:
            raise ValueError(f"{command}: unrecognized option {flag}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"{command}: {flag} needs a value")
        kind, shown = options[flag][1], quoted(value)
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"{command}: {flag} takes an integer, not {shown}") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"{command}: {flag} takes one of {', '.join(kind)}, not {shown}")
        values[flag[2:]] = value
    if len(given) > len(positionals):
        raise ValueError(f"{command}: unexpected argument {quoted(given[len(positionals)])}")
    missing = positionals[len(given):] + ["--" + n for n, v in values.items() if v is REQUIRED]
    if missing:
        raise ValueError(f"{command}: missing {missing[0]}")
    return SimpleNamespace(**dict(zip(positionals, given)), **values), handler


def main(argv: list[str] | None = None) -> int:
    try:
        args, handler = _parse_args(sys.argv[1:] if argv is None else list(argv))
        if handler is None:
            return EXIT_OK
        if handler.startswith("_cmd_"):
            return globals()[handler](args)
        from . import commands

        return getattr(commands, handler)(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    # under `python -m ambitoric.cli` the handler modules import this module
    # as `ambitoric.cli`, not a second copy that would compile again
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
