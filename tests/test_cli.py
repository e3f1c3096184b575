import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ambitoric.cli import COMMANDS, MAX_GRID, main
from ambitoric.invariants import relative_residual
from ambitoric.quadratics import rational_sqrt

from conftest import make_spec
from ambitoric import (
    OO,
    AnsatzSpec,
    FramePoint,
    KerrParams,
    MomentError,
    Quadratic,
    eval_field,
    kerr,
    validate,
)
from ambitoric.special import INTERIOR

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
CASE5 = json.loads((GOLDEN_DIR / "case5_accept.json").read_text())["spec"]
CSC_DATA = {"q": ["0", "1", "0"], "p": ["1", "0", "-4"],
            "rho": ["1", "1", "4"], "R": ["1", "4", "0", "1", "1"]}


@pytest.fixture
def spec_file(tmp_path, hyperbolic_spec):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(hyperbolic_spec.to_dict()))
    return str(p)


def test_validate_command(spec_file, capsys):
    assert main(["validate", spec_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["conic_type"] == "Hyperbolic"
    assert out["components"] == [{"sign_xy": 1, "sign_q": 1}]


def test_eval_command(spec_file, capsys):
    assert main(["eval", spec_file, "--at", "2.5,-0.5", "--field", "g0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["g0"]) == 4


def test_eval_refuses_gp_asked_of_a_spec_whose_metric_is_not_gp(tmp_path, capsys):
    # the golden case1 has the metric g0: `--field gp` used to exit 0 and
    # print only f, x and y, while the default fields leave gp out
    spec = tmp_path / "case1.json"
    spec.write_text(json.dumps(json.loads((GOLDEN_DIR / "case1_proper_fold.json").read_text())
                               ["spec"]))
    assert main(["eval", str(spec), "--at", "2.5,-0.5", "--field", "gp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: spec metric is not gp\n"
    assert main(["eval", str(spec), "--at", "2.5,-0.5"]) == 0
    assert "gp" not in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("at", ["nan,1", "inf,1", "1,-inf"])
def test_eval_rejects_a_non_finite_point(spec_file, capsys, at):
    # JSON has no NaN or infinity: a non-finite point must not reach the output
    assert main(["eval", spec_file, f"--at={at}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --at")


@pytest.mark.parametrize("at", ["foo", "1,2,3", "1"])
def test_eval_rejects_a_malformed_point(spec_file, capsys, at):
    # these used to fail with "too many values to unpack" or "could not
    # convert string to float", naming no option
    assert main(["eval", spec_file, f"--at={at}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --at")


@pytest.mark.parametrize("at, why", [("1,1", "fold x = y"), ("-0.5,-0.5", "fold x = y"),
                                     ("3,-0.5", "A or B vanishes")],
                         ids=["1,1", "-0.5,-0.5", "3,-0.5"])
def test_eval_rejects_a_point_on_the_fold(spec_file, capsys, at, why):
    # a singular point, on the fold or at the root 3 of A, is one --at error
    # naming the point
    assert main(["eval", spec_file, f"--at={at}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: --at={at}: ")
    assert why in captured.err and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_moment_rejects_a_grid_below_one(spec_file, capsys, grid):
    # a grid of 0 used to report the witness alone as "samples": 1
    assert main(["moment", spec_file, f"--grid={grid}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --grid")
    assert main(["moment", spec_file, "--grid", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["samples"] >= 1


@pytest.mark.parametrize("grid", [str(MAX_GRID + 1), str(10 ** 20 - 1)])
def test_moment_refuses_a_grid_above_its_maximum(capsys, grid):
    # a grid of 10^20 started to build a list of 3 * 10^20 samples; the
    # bound is checked before the spec is read, so a missing file is not
    # reached
    assert main(["moment", "no-such-file.json", "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --grid must be at most {MAX_GRID}, got '{grid}'\n"
    assert main(["moment", "-h"]) == 0
    assert f"--grid N <= {MAX_GRID}" in capsys.readouterr().out


def test_classify_exit_codes(spec_file, tmp_path, capsys):
    assert main(["classify", spec_file]) == 0
    capsys.readouterr()
    bad = make_spec(Quadratic(0, 1, 0), [-2, 3, -1], [0, -3, -1],
                    (1, 2), (-3, 0))
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad.to_dict()))
    assert main(["classify", str(p)]) == 1
    capsys.readouterr()


def test_input_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["validate", str(p)]) == 2
    capsys.readouterr()


def test_moment_outputs_stable(spec_file, tmp_path, capsys):
    csv1 = tmp_path / "a.csv"
    svg1 = tmp_path / "a.svg"
    csv2 = tmp_path / "b.csv"
    svg2 = tmp_path / "b.svg"
    for csv, svg in ((csv1, svg1), (csv2, svg2)):
        assert main(["moment", spec_file, "--sign", "-", "--grid", "8",
                     "--csv", str(csv), "--svg", str(svg)]) == 0
        capsys.readouterr()
    assert csv1.read_bytes() == csv2.read_bytes()
    assert svg1.read_bytes() == svg2.read_bytes()
    header = csv1.read_text().splitlines()[0]
    assert header == "x,y,mu1,mu2"


def test_kerr_and_examples(tmp_path, capsys):
    out = tmp_path / "kerr.json"
    # M^2 + alpha^2 = 25/16: the exterior on the instanton's lattice is case6
    assert main(["examples", "kerr", "--mass", "1", "--alpha", "3/4",
                 "--out", str(out)]) == 0
    case6 = json.loads((GOLDEN_DIR / "case6_kerr_exterior.json").read_text())["spec"]
    assert json.loads(out.read_text()) == case6
    lattice = [["1", "0"], ["0", "1"]]
    assert main(["examples", "cp2"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "vertices": [["0", "0"], ["0", "-1"], ["1", "0"]],
        "normals": [["1", "0"], ["-1", "1"], ["0", "-1"]], "lattice": lattice}
    # vertices 1 and 2 lie on the extra tangent (-4, 3) . mu = -sqrt(12), in floats
    assert main(["examples", "hirzebruch:3"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "vertices": [["0", "-1"], ["0.464101615138", "-0.535898384862"],
                     ["6.46410161514", "7.46410161514"], ["0", "1"]],
        "normals": [["-1", "1"], ["-4", "3"], ["1", "-1"], ["1", "0"]], "lattice": lattice}


@pytest.mark.parametrize("argv, name", [
    (["examples", "kerr", "--mass", "1/0"], "--mass"),
    (["examples", "kerr-interior", "--alpha", "1/0"], "--alpha"),
    (["gauge", "SPEC", "--mobius", "1/0,0,0,1"], "--mobius"),
    (["gauge", "SPEC", "--mobius", "1,1,0"], "--mobius"),
    (["examples", f"hirzebruch:{2 ** 53}"], f"hirzebruch:{2 ** 53}"),
    (["examples", "hirzebruch:" + "9" * 160], "hirzebruch:999"),
    (["examples", "hirzebruch:" + "9" * 4400], "example 'hirzebruch:999"),
    (["moment", "SPEC", "--grid", "9" * 4400], "--grid takes an integer, not '999"),
    (["moment", "SPEC", "--grid", "-" + "9" * 4000], "--grid must be at least 1, got '-999"),
    (["examples", "kerr", "--mass", "9" * 4400], "--mass needs 1 rational number, got '999"),
    (["check", "KERR:1e400:1/2"], "a value near 1e400 does not fit in a float"),
    (["check", "KERR:1e999:1/2"], "a value near 1e999 does not fit in a float"),
    (["check", "KERR:1e-200:1e-201"], "a value near -1e-402 does not fit in a float"),
], ids=["mass-1/0", "alpha-1/0", "mobius-1/0",
        "mobius-3-values", "hirzebruch-2^53", "hirzebruch-1e160", "hirzebruch-4400-digits",
        "grid-4400-digits", "grid-below-1-4000-digits", "mass-4400-digits",
        "mass-1e400", "mass-1e999", "mass-1e-200"])
def test_a_malformed_number_in_a_flag_is_an_input_error(spec_file, tmp_path, capsys, argv,
                                                        name):
    """Each of these used to end in a ZeroDivisionError or OverflowError
    traceback, or (three Mobius values) in an unpacking message that named
    no flag: now one `error:` line naming the flag or the example, exit 2.
    From k = 2^53 on, -k-1 rounds in floats, and a corner of hirzebruch:k
    has a float determinant of 0 or of 2 in place of 1.  An index of more
    than 4300 digits failed in int(), naming no example, and the flag
    errors printed every digit: a long number is now cut short.
    `KERR:M:ALPHA` stands for the spec file of `examples kerr --mass M
    --alpha ALPHA`, which is exact at any size (see the property below):
    a mass of 1e400 or 1e999, or 1e-200 beside alpha = 1e-201, is refused
    by `check`, which works in floats, and no longer when the spec is made."""
    def resolve(a):
        if a == "SPEC":
            return spec_file
        if a.startswith("KERR:"):
            _, mass, alpha = a.split(":")
            path = str(tmp_path / "kerr.json")
            assert main(["examples", "kerr", "--mass", mass, "--alpha", alpha,
                         "--out", path]) == 0
            return path
        return a

    assert main([resolve(a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert name in captured.err and len(captured.err.splitlines()) == 1
    assert len(captured.err) < 150


@st.composite
def irrational_horizons(draw):
    """(M, alpha) as flag values with M^2 + alpha^2 no rational square: M a
    ratio of integers times 10^k, -200 <= k <= 999, and alpha = M j / 1000."""
    M = F(draw(st.integers(1, 10 ** 6)), draw(st.integers(1, 10 ** 6)))
    M *= F(10) ** draw(st.integers(-200, 999))
    alpha = M * F(draw(st.integers(-999, 999).filter(bool)), 1000)
    assume(rational_sqrt(M * M + alpha * alpha) is None)
    return str(M), str(alpha)


@settings(max_examples=40, deadline=None)
@given(flags=irrational_horizons())
@example(flags=("1e400", "1/2"))
@example(flags=("1e999", "1/2"))
@example(flags=("1e-200", "1e-201"))
def test_an_irrational_horizon_end_lies_where_A_is_positive_next_to_its_root(flags):
    """With M^2 + alpha^2 = n/d in lowest terms and no square, the horizon end
    of `examples kerr` (x+) and of `examples kerr-interior` (x-) lies where
    A > 0, and A < 0 one step of 1/(d 10^9) towards the root.  A float
    sqrt once bounded these ends: it refused a mass of 1e400 or 1e999 and
    (at 1e-200, where M^2 + alpha^2 read as 0.0) wrote ends near +-1e-7."""
    mass, alpha = flags
    M, a = F(mass), F(alpha)
    step = F(1, (M * M + a * a).denominator * 10 ** 9)
    for name, key, inward in (("kerr", 0, -step), ("kerr-interior", 1, step)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["examples", name, "--mass", mass, "--alpha", alpha]) == 0
        end = F(json.loads(out.getvalue())["x_interval"][key])
        A = lambda x: x * x - 2 * M * x - a * a
        assert A(end) > 0 > A(end + inward)


@pytest.mark.parametrize("index", ["x", "0", "-2", "1.5", ""])
def test_examples_names_a_bad_hirzebruch_index(capsys, index):
    # `hirzebruch:x` used to exit 2 with "invalid literal for int() with
    # base 10: 'x'", naming neither the example nor what the index must be
    assert main(["examples", f"hirzebruch:{index}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: example 'hirzebruch:{index}': "
                            "the index must be an integer >= 1\n")


@pytest.mark.parametrize("argv, words", [
    ([], "no subcommand"),
    (["plot", "SPEC"], "unknown subcommand 'plot'"),
    (["-v"], "unknown subcommand '-v'"),
    (["validate", "SPEC", "--fast"], "unrecognized option --fast"),
    (["moment", "SPEC", "--sig", "-"], "unrecognized option --sig"),
    (["validate"], "missing spec"),
    (["csc-gen"], "missing data"),
    (["validate", "SPEC", "SPEC"], "unexpected argument"),
    (["eval", "SPEC"], "missing --at"),
    (["gauge", "SPEC"], "missing --mobius"),
    (["moment", "SPEC", "--grid", "many"], "--grid takes an integer, not 'many'"),
    (["moment", "SPEC", "--grid=2.5"], "--grid takes an integer, not '2.5'"),
    (["moment", "SPEC", "--grid"], "--grid needs a value"),
    (["moment", "SPEC", "--csv", "--svg", "m.svg"], "--csv needs a value"),
    (["moment", "SPEC", "--sign", "*"], "--sign takes one of +, -, not '*'"),
    (["examples", "cp2", "--format", "png"], "--format takes one of json, svg"),
    (["examples", "cp2", "--mass", "2"], "example 'cp2' is a polygon: --mass sets only"),
    (["eval", "SPEC", "--at", "2.5,-0.5", "--field", "g1"], "--field takes one of g0,"),
    (["examples", "kerr-interior", "--format", "svg"], "example 'kerr-interior' is a spec"),
], ids=["no-subcommand", "unknown-subcommand", "unknown-top-flag", "unknown-flag",
        "abbreviated-flag", "missing-spec", "missing-data", "extra-positional", "missing-at",
        "missing-mobius", "grid-word", "grid-float", "grid-no-value", "csv-no-value",
        "bad-sign", "bad-format", "polygon-mass", "bad-field", "kerr-svg"])
def test_a_usage_error_is_one_error_line(spec_file, capsys, argv, words):
    """Every usage error exits 2 with one `error:` line that names what is
    wrong, and runs no subcommand."""
    assert main([spec_file if a == "SPEC" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert words in captured.err and len(captured.err.splitlines()) == 1


SUBCOMMANDS = "validate eval check classify moment examples gauge csc-gen".split()


def test_help_names_every_subcommand_and_its_options(capsys):
    for flag in ("-h", "--help"):
        assert main([flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: ambitoric ")
        assert all(f"\n  {name} " in out for name in SUBCOMMANDS)
    options = {"eval": "--at X,Y", "moment": "[--grid N]", "examples": "[--mass M] [--alpha ALPHA]",
               "gauge": "--mobius A,B,C,D"}
    for name in SUBCOMMANDS:
        # help wins over a missing or bogus argument, and runs nothing
        assert main([name, "no-such-file.json", "-h"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith(f"usage: ambitoric {name} ")
        assert "[--out PATH]" in captured.out and options.get(name, "") in captured.out
        assert "cannot be abbreviated" in captured.out


@pytest.mark.parametrize("argv, spaced", [
    (["eval", "SPEC", "--at=2.5,-0.5"], ["eval", "SPEC", "--at", "2.5,-0.5"]),
    (["moment", "SPEC", "--grid=5", "--sign=-"], ["moment", "SPEC", "--grid", "5", "--sign", "-"]),
], ids=["eval-at", "moment-grid-sign"])
def test_an_option_takes_its_value_after_an_equals_sign_or_a_space(spec_file, capsys, argv,
                                                                   spaced):
    outs = []
    for form in (argv, spaced):
        assert main([spec_file if a == "SPEC" else a for a in form]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].startswith("{")


def test_main_calls_the_handler_bound_when_it_runs(spec_file, monkeypatch, capsys):
    """perfbench's tracing rebinds `cli._cmd_*` after the import: `main` must
    call the rebound function, or the traced `cli.*` layers would read 0."""
    import ambitoric.cli as cli

    calls, inner = [], cli._cmd_validate
    monkeypatch.setattr(cli, "_cmd_validate", lambda args: calls.append(args.spec) or inner(args))
    assert main(["validate", spec_file]) == 0
    assert calls == [spec_file] and '"components"' in capsys.readouterr().out


def test_gauge_roundtrip_bytes(spec_file, tmp_path, capsys):
    g1 = tmp_path / "g1.json"
    g2 = tmp_path / "g2.json"
    base = tmp_path / "base.json"
    # normalize through the serializer first
    assert main(["gauge", spec_file, "--mobius", "1,0,0,1",
                 "--out", str(base)]) == 0
    assert main(["gauge", str(base), "--mobius", "1,1,0,1",
                 "--out", str(g1)]) == 0
    assert main(["gauge", str(g1), "--mobius=1,-1,0,1",
                 "--out", str(g2)]) == 0
    assert base.read_bytes() == g2.read_bytes()


def test_check_command(spec_file, capsys):
    assert main(["check", spec_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["failed"] == 0 and out["passed"] > 0


def test_check_covers_every_component(tmp_path, capsys):
    # the Kerr interior has three sign components, 108 checks each
    p = tmp_path / "kerr.json"
    assert main(["examples", "kerr-interior", "--out", str(p)]) == 0
    assert main(["check", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["passed"], out["failed"]) == (324, 0)


def test_check_passes_on_the_sliver(tmp_path, capsys, sliver_spec):
    # the sliver cell is sampled at its witness, where q = -1/400 and the
    # entries of g+, J+ and omega+ reach 1e3 to 1e6, while the residuals
    # stay at rounding size relative to them
    p = tmp_path / "sliver.json"
    p.write_text(json.dumps(sliver_spec.to_dict()))
    assert main(["check", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["passed"], out["failed"], out["failures"]) == (117, 0, [])
    assert max(out["worst_residual"].values()) < 1e-10


def test_check_relative_bound_still_fails_a_wrong_pairing(sliver_spec):
    x, y = map(float, validate(sliver_spec)[0].witness)
    pt = FramePoint(x, y)
    Jp, Jm, gp, wp, wm = (np.asarray(eval_field(sliver_spec, f, pt))
                          for f in ("J+", "J-", "g+", "omega+", "omega-"))
    # check's bound on these is 1e-8
    assert relative_residual(gp @ Jp - wp, (gp, Jp), (wp,)) < 1e-12
    assert relative_residual(gp @ Jp - wm, (gp, Jp), (wm,)) > 1e-6
    assert relative_residual(Jp @ Jm - Jm @ Jp, (Jp, Jm)) < 1e-12
    assert relative_residual(Jp @ wm - wm @ Jp, (Jp, wm)) > 1e-6


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with src/ on the path."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter with src/ on the path."""
    return _python("-c", code)


def test_decision_path_never_imports_sympy(tmp_path):
    """validate, classify, moment with either sign, check and eval, on case1
    (g0) and the Kerr interior (gp, which eval gives too), load none of
    sympy, numpy or scipy, nor dataclasses or inspect (the records come from
    `quadratics.Record`), nor argparse with its gettext and locale."""
    golden = json.loads((GOLDEN_DIR / "case1_proper_fold.json").read_text())["spec"]
    code = ["import sys", "from ambitoric.cli import main"]
    for name, d in (("case1", golden), ("kerr", kerr(KerrParams(1, F(1, 2)), INTERIOR).to_dict())):
        spec, csv, svg = (str(tmp_path / f"{name}.{ext}") for ext in ("json", "csv", "svg"))
        pathlib.Path(spec).write_text(json.dumps(d))
        at = ",".join(str(float(v)) for v in validate(AnsatzSpec.from_dict(d))[0].witness)
        code += [f"main(['classify', {spec!r}])",
                 f"main(['validate', {spec!r}])",
                 f"main(['moment', {spec!r}, '--sign', '-', '--csv', {csv!r}, '--svg', {svg!r}])",
                 f"assert main(['moment', {spec!r}, '--sign', '+']) == 0",
                 f"assert main(['check', {spec!r}]) == 0",
                 f"assert main(['eval', {spec!r}, '--at=' + {at!r}]) == 0"]
    run = _run_python("\n".join(code + [
        "loaded = [m for m in ('sympy', 'numpy', 'scipy', 'dataclasses', 'inspect',",
        "                      'argparse', 'gettext', 'locale') if m in sys.modules]",
        "sys.exit(f'loaded {loaded}' if loaded else 0)"]))
    assert run.returncode == 0, run.stderr
    assert '"verdicts"' in run.stdout and '"components"' in run.stdout
    assert '"samples"' in run.stdout and '"passed": 216' in run.stdout and '"J-"' in run.stdout
    assert '"passed": 324' in run.stdout and '"gp": [' in run.stdout
    assert all((tmp_path / f"{name}.svg").read_text().endswith("</svg>\n")
               for name in ("case1", "kerr"))


@pytest.mark.parametrize("argv, loads", [
    (["validate", "SPEC"], ()),
    (["moment", "SPEC", "--sign", "+"], ("figures", "moment")),
    (["check", "SPEC"], ("invariants", "tensors")),
    (["classify", "SPEC"], ("boundary", "classify")),
    (["examples", "kerr-interior"], ("commands", "special")),
    (["examples", "cp2", "--format", "svg"], ("commands", "figures", "special")),
    (["gauge", "SPEC", "--mobius", "1,1,0,1"], ("commands", "gauge")),
    (["validate", "KERR"], ()),
    (["moment", "KERR", "--sign", "+"], ("figures", "moment")),
    (["check", "KERR"], ("invariants", "tensors")),
    (["classify", "KERR"], ("boundary", "classify")),
    (["examples", "cp2"], ("commands", "special")),
    (["examples", "hirzebruch:2"], ("commands", "special")),
], ids=["validate", "moment", "check", "classify", "examples-kerr-interior",
        "examples-cp2-svg", "gauge", "validate-kerr", "moment-kerr", "check-kerr",
        "classify-kerr", "examples-cp2", "examples-hirzebruch-2"])
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, loads):
    """A cold subcommand imports only the modules it runs: `classify` reads
    compatible normals off `AnsatzSpec.tau_dual`, not `moment`; `check`
    pairs d mu from `tensors` with omega, not from `moment`; the standard
    polygons of `examples` are plain tuples, with no `moment`; the figure code
    (`figures`), the invariant suite (`invariants`) and the Mobius gauge
    (`gauge`) load only on their own subcommands.  None loads argparse,
    gettext or locale.  SPEC is case1 (g0), KERR the Kerr interior (gp)."""
    specs = {"SPEC": json.loads((GOLDEN_DIR / "case1_proper_fold.json").read_text())["spec"],
             "KERR": kerr(KerrParams(1, F(1, 2)), INTERIOR).to_dict()}
    for name, d in specs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(d))
    argv = [str(tmp_path / f"{a}.json") if a in specs else a for a in argv]
    argv += ["--out", str(tmp_path / "o")]
    run = _run_python(
        "import sys\n"
        "from ambitoric.cli import main\n"
        f"assert main({argv!r}) <= 1\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('ambitoric')\n"
        "                      or m in ('argparse', 'gettext', 'locale'))))\n")
    assert run.returncode == 0, run.stderr
    expected = {"ambitoric", "ambitoric.cli", "ambitoric.quadratics", "ambitoric.ansatz"}
    assert set(run.stdout.split()) == expected | {f"ambitoric.{m}" for m in loads}


@pytest.mark.parametrize("argv, bound", [
    (["validate", "SPEC"], 1791),
    (["classify", "SPEC"], 2268),
    (["check", "SPEC"], 2379),
    (["moment", "SPEC", "--sign", "+"], 2362),
    (["examples", "kerr-interior"], 2203),
    (["examples", "cp2"], 2203),
    (["examples", "cp2", "--format", "svg"], 2380),
], ids=["validate", "classify", "check", "moment", "examples-kerr-interior",
        "examples-cp2", "examples-cp2-svg"])
def test_each_cold_subcommand_compiles_at_most_its_lines(tmp_path, argv, bound):
    """With no bytecode cache a cold subcommand compiles every source line of
    the `ambitoric` modules it loads.  Each bound is the count at the time it
    was set: code that grows onto a cold path fails here, and a change that
    shrinks one lowers its bound."""
    golden = json.loads((GOLDEN_DIR / "case1_proper_fold.json").read_text())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(golden["spec"]))
    argv = [str(spec) if a == "SPEC" else a for a in argv] + ["--out", str(tmp_path / "o")]
    run = _run_python(
        "import sys\n"
        "from ambitoric.cli import main\n"
        f"assert main({argv!r}) <= 1\n"
        "files = [m.__file__ for n, m in sys.modules.items() if n.startswith('ambitoric')]\n"
        "print(sum(len(open(f).read().splitlines()) for f in files))\n")
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) <= bound


@pytest.mark.parametrize("argv", [["moment", "SPEC", "--sign", "+"], ["check", "SPEC"],
                                  ["examples", "kerr-interior"]],
                         ids=["moment", "check", "examples"])
def test_python_m_compiles_cli_once(tmp_path, argv):
    """Under `python -m ambitoric.cli` the handler modules, which import
    `ambitoric.cli`, get the running module, not a second copy: no import of
    `ambitoric.cli` shows in `-X importtime`."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(CASE5))
    argv = [str(spec) if a == "SPEC" else a for a in argv] + ["--out", str(tmp_path / "o")]
    run = _python("-X", "importtime", "-m", "ambitoric.cli", *argv)
    assert run.returncode == 0, run.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")]
    assert "ambitoric.quadratics" in imported and "ambitoric.cli" not in imported


#: the public names of the package
PUBLIC = (
    "AnsatzSpec BoxComponent CSCData Conic DistanceStatus FIELDS FramePoint "
    "Interval KerrParams LineInTstar METRIC_G0 METRIC_GMINUS METRIC_GPLUS "
    "MetricChoice Mobius MomentError MomentPoint OO Poly Quadratic "
    "ValidationError Verdict classify completability_verdict "
    "conformal_factor conic_type convexity_check "
    "corner_status csc_construct curvature decompose_boundary delzant_check "
    "edge_status estimate_r eval_field fold_conic fold_status identify_t inner "
    "kerr level_set_line metric_gp mobius_transport moment_map rat "
    "scalar_closed_form standard_polygon transvectant2 validate").split()

_IS_CLASSIFY = ("assert ambitoric.classify is sys.modules['ambitoric.classify'].classify"
                ", ambitoric.classify\n")


@pytest.mark.parametrize("code", [
    "import ambitoric.classify\n" + _IS_CLASSIFY,
    "import ambitoric\nambitoric.classify\nimport ambitoric.classify\n" + _IS_CLASSIFY,
    "from ambitoric.cli import main\nassert main(['classify', SPEC, '--out', OUT]) == 0\n"
    "import ambitoric\n" + _IS_CLASSIFY,
    f"import ambitoric\nassert ambitoric.__all__ == {sorted(PUBLIC)!r}\n",
    "ns = {}\nexec('from ambitoric import *', ns)\n"
    f"assert sorted(set(ns) - {{'__builtins__'}}) == {sorted(PUBLIC)!r}\n",
    "import ambitoric\nassert not hasattr(ambitoric, 'no_such_name')\n",
], ids=["submodule-first", "function-first", "after-cli-classify", "all",
        "star-import", "unknown-name"])
def test_package_namespace(tmp_path, code):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(CASE5))
    run = _run_python("import sys\n" + code.replace("SPEC", repr(str(spec)))
                      .replace("OUT", repr(str(tmp_path / "out.json"))))
    assert run.returncode == 0, run.stderr


def test_readme_example_runs():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = readme.split("## Example")[1].split("```python\n")[1].split("```")[0]
    assert "from ambitoric import *" in code
    run = _run_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "True True\n"


def test_package_import_defers_numpy_to_the_float_layer():
    run = _run_python(
        "import sys\n"
        "from fractions import Fraction\n"
        "import ambitoric\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded by import ambitoric'\n"
        "spec = ambitoric.kerr(ambitoric.KerrParams(1, Fraction(1, 2)))\n"
        "x, y = ambitoric.validate(spec)[0].sample_points(2)[0]\n"
        "pack = ambitoric.curvature(spec, spec.metric, ambitoric.FramePoint(x, y))\n"
        "assert abs(pack.ricci).max() < 1e-9, pack.ricci\n"
        "assert 'numpy' in sys.modules and 'curvature' in vars(ambitoric)\n"
        "from ambitoric import eval_field, FIELDS\n"
        "assert ambitoric.eval_field is sys.modules['ambitoric.tensors'].eval_field\n"
        "assert 'gp' in FIELDS and not hasattr(ambitoric, 'no_such_name')\n")
    assert run.returncode == 0, run.stderr


def test_scalar_curvature_needs_no_numpy():
    """Only the arrays of a CurvaturePack load numpy: with numpy blocked the
    scalar of the Kerr exterior is computed, and reading ricci fails."""
    run = _run_python(
        "import sys\n"
        "from fractions import Fraction\n"
        "sys.modules['numpy'] = None\n"
        "import ambitoric\n"
        "spec = ambitoric.kerr(ambitoric.KerrParams(1, Fraction(1, 2)))\n"
        "x, y = ambitoric.validate(spec)[0].sample_points(2)[0]\n"
        "pack = ambitoric.curvature(spec, spec.metric, ambitoric.FramePoint(x, y))\n"
        "assert isinstance(pack.scalar, float), pack.scalar\n"
        "try:\n"
        "    pack.ricci\n"
        "except ImportError:\n"
        "    sys.exit(0)\n"
        "sys.exit('ricci read without numpy')\n")
    assert run.returncode == 0, run.stderr


def test_csc_gen_command(tmp_path, capsys):
    p = tmp_path / "data.json"
    p.write_text(json.dumps(CSC_DATA))
    assert main(["csc-gen", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["csc"] is True
    assert out["report"]["einstein"] is False


def test_moment_svg_draws_degenerate_edge_image(tmp_path, capsys):
    # the '-' image of case2's edge at infinity is a single point
    g = json.loads((GOLDEN_DIR / "case2_fold_edge_g0.json").read_text())
    p = tmp_path / "case2.json"
    p.write_text(json.dumps(g["spec"]))
    svg = tmp_path / "case2.svg"
    assert main(["moment", str(p), "--sign", "-", "--svg", str(svg)]) == 0
    capsys.readouterr()
    assert svg.read_text().endswith("</svg>\n")


def test_moment_json_gives_every_edge_image(tmp_path, capsys, monkeypatch):
    """`lines` holds one entry per box edge: the exact line with its tangency
    certificate, the point the edge collapses to, or the pole of mu+ along
    it.  --svg draws those lines: level_set_line runs once per edge."""
    import ambitoric.moment as moment
    calls = []
    build = moment.level_set_line
    monkeypatch.setattr(moment, "level_set_line", lambda *a: calls.append(a) or build(*a))
    g = json.loads((GOLDEN_DIR / "case2_fold_edge_g0.json").read_text())
    p = tmp_path / "case2.json"
    p.write_text(json.dumps(g["spec"]))
    spec = AnsatzSpec.from_dict(g["spec"])
    kinds = {}
    for sign in "+-":
        calls.clear()
        assert main(["moment", str(p), "--sign", sign, "--svg", str(tmp_path / "m.svg")]) == 0
        lines = json.loads(capsys.readouterr().out)["lines"]
        assert [(d["axis"], d["gamma"]) for d in lines] == [
            ("X", "1"), ("X", "oo"), ("Y", "-2"), ("Y", "-1")]
        assert len(calls) == 4
        for d in lines:
            gamma = OO if d["gamma"] == "oo" else F(d["gamma"])
            kinds[sign, d["gamma"]] = sorted(set(d) - {"axis", "gamma"})
            if "pole" in d:
                with pytest.raises(MomentError):
                    build(spec, sign, d["axis"], gamma)
                continue
            line = build(spec, sign, d["axis"], gamma)
            if "point" in d:
                assert d["point"] == [str(v) for v in line.degenerate_point]
                continue
            assert (d["normal"], d["offset"]) == ([str(v) for v in line.normal], str(line.offset))
            if line.tangency is not None:
                assert (d["leading"], d["discriminant"]) == (
                    str(line.tangency.leading), str(line.tangency.discriminant))
                assert d["discriminant"] == "0"
    tangent = ["discriminant", "leading", "normal", "offset"]
    assert kinds == {("+", "1"): tangent, ("+", "oo"): ["pole"], ("+", "-2"): tangent,
                     ("+", "-1"): tangent, ("-", "1"): ["normal", "offset"],
                     ("-", "oo"): ["point"], ("-", "-2"): ["normal", "offset"],
                     ("-", "-1"): ["normal", "offset"]}


def test_validate_and_classify_agree_on_components(tmp_path, capsys):
    spec = make_spec(Quadratic(0, 1, 0), [-6, 5, -1],
                     ["-203/100", "-303/100", -1], (2, 3), ("-203/100", -1))
    p = tmp_path / "sliver.json"
    p.write_text(json.dumps(spec.to_dict()))
    main(["validate", str(p)])
    validated = json.loads(capsys.readouterr().out)["components"]
    main(["classify", str(p)])
    classified = [v["component"] for v in json.loads(capsys.readouterr().out)["verdicts"]]
    assert len(validated) == 2
    assert validated == classified


@pytest.mark.parametrize("field, value", [("B", [str(10 ** 20 - 1), "-2", "-2"]),
                                          ("A", ["-12", str(10 ** 20 - 1), "-2"])])
def test_check_passes_with_a_coefficient_near_float_precision(tmp_path, capsys, field, value):
    # the determinants of the fibre volume relation cancelled here: B ended
    # in a ZeroDivisionError traceback, A in 10 false failures, exit 3
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(dict(CASE5, **{field: value})))
    assert main(["check", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["passed"], out["failed"]) == (108, 0)


@pytest.mark.parametrize("field, value, argv", [
    ("A", ["-12", "1e999", "-2"], ["check"]),
    ("A", ["-12", "1e999", "-2"], ["eval", "--at", "2.5,-0.5"]),
    ("B", ["1e999", "-2", "-2"], ["check"]),
    ("q", ["0", "1e999", "0"], ["check"]),
    ("q", ["0", "1e999", "0"], ["eval", "--at", "2.5,-0.5"]),
    ("q", ["0", "1e999", "0"], ["moment", "--sign", "+"]),
    ("q", ["0", "1e999", "0"], ["moment", "--sign", "-"]),
    ("metric", {"gp": ["1e999", "0", "1"]}, ["eval", "--at", "2.5,-0.5"]),
], ids=["A-check", "A-eval", "B-check", "q-check", "q-eval", "q-moment+", "q-moment-",
        "gp-eval"])
def test_a_coefficient_no_float_holds_is_an_input_error(tmp_path, capsys, field, value, argv):
    # validate and classify read "1e999" exactly as 10^999; each of these
    # read it in floats and ended in an OverflowError traceback, exit 1
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(dict(CASE5, **{field: value})))
    assert main([argv[0], str(p), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a value near 1e999 does not fit in a float\n"


@pytest.mark.parametrize("field, value, argv", [
    ("q", ["0", "1e-330", "0"], ["check"]),
    ("q", ["0", "1e-330", "0"], ["eval", "--at", "2.5,-0.5"]),
    ("q", ["0", "1e-330", "0"], ["moment", "--sign", "-"]),
    ("q", ["0", "1e-330", "0"], ["moment", "--sign", "+"]),
    ("A", ["-12", "10", "-1e-330"], ["check"]),
    ("A", ["-12", "10", "-1e-330"], ["eval", "--at", "2.5,-0.5"]),
], ids=["q-check", "q-eval", "q-moment-", "q-moment+", "A-check", "A-eval"])
def test_a_coefficient_that_rounds_to_zero_is_an_input_error(tmp_path, capsys, field, value,
                                                             argv):
    # a float reads 1e-330 as 0.0: with that q, `check` and `eval` said
    # "(x - y) q(x, y) vanishes" and `moment --sign -` drew one sample per
    # cell, and with that A, `check` passed 108 identities of another A
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(dict(CASE5, **{field: value})))
    assert main([argv[0], str(p), *argv[1:]]) == 2
    captured = capsys.readouterr()
    near = "-1e-330" if field == "A" else "1e-330"
    assert captured.out == ""
    assert captured.err == f"error: a value near {near} does not fit in a float\n"


def test_a_sigma_coefficient_no_float_holds_is_named_as_sigma(tmp_path, capsys):
    # q = 1e-320 is a subnormal float, but sigma, which solves sigma x q =
    # -tau, has a coefficient near 1e320: `moment --sign +` said "a value
    # near 1e320", a number the spec does not hold; mu- reads tau alone
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(dict(CASE5, q=["0", "1e-320", "0"])))
    assert main(["moment", str(p), "--sign", "+"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a coefficient of sigma (sigma x q = -tau) near 1e320 "
                            "does not fit in a float\n")
    assert main(["moment", str(p), "--sign", "-", "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("field, value", [("q", ["0", "1e200", "0"]), ("q", ["0", "1e160", "0"]),
                                          ("A", ["-12", "1e200", "-2"])])
def test_check_refuses_fields_that_leave_the_float_range(tmp_path, capsys, field, value):
    # omega+ is about 1/q^2 here, which underflows to 0, and f^2 overflows:
    # the q specs ended in an OverflowError traceback, exit 1, and the A spec
    # in false failures with residual nan, exit 3
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(dict(CASE5, **{field: value})))
    assert main(["check", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the terms of an identity leave the float range\n"


@pytest.mark.parametrize("field, value, argv, what", [
    ("q", ["0", "1e-200", "0"], ["check"], "the metric"),
    ("q", ["0", "1e-200", "0"], ["eval", "--field", "g0", "--at", "2.5,-0.5"], "the metric"),
    ("q", ["0", "1e-200", "0"], ["eval", "--field", "omega+", "--at", "2.5,-0.5"], "omega+"),
    ("metric", {"gp": ["0", "0", "1e-200"]}, ["eval", "--field", "gp", "--at", "2.5,-0.5"],
     "the metric"),
], ids=["q-check", "q-eval-g0", "q-eval-omega+", "gp-eval-gp"])
def test_fields_that_underflow_are_an_input_error(tmp_path, capsys, field, value, argv, what):
    # (x - y) q, omega+'s q and gp's p are not 0 here, but their squares
    # underflow to 0.0: each of these ended in a ZeroDivisionError
    # traceback, exit 1; `moment` forms no such square
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(dict(CASE5, **{field: value})))
    assert main([argv[0], str(p), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {what} at the evaluation point leaves the float range\n"
    assert main(["moment", str(p), "--sign", "+"]) == 0


def test_check_fails_a_wrong_fibre_block(spec_file, monkeypatch, capsys):
    import ambitoric.tensors as tensors

    right = tensors.metric_components

    def wrong(spec, metric, x, y):
        # doubles the (dt1, dt2) block of g-, so g- - f g0 is f h0 there
        g = right(spec, metric, x, y)
        return g if metric.tag != "g-" else g[:2] + tuple(
            tuple(2 * v for v in row) for row in g[2:])

    monkeypatch.setattr(tensors, "metric_components", wrong)
    assert main(["check", spec_file]) == 3
    out = json.loads(capsys.readouterr().out)
    assert any(f.startswith("g-=f g0:") for f in out["failures"])
    assert out["worst_residual"]["g-=f g0"] > 0.2


def test_check_fails_a_doubled_omega_plus(spec_file, monkeypatch, capsys):
    import ambitoric.tensors as tensors

    right = tensors._omega_components

    def doubled(spec, sign, x, y):
        # omega+^2 is then 4 times f^-2 / (A B) dx ^ dcx ^ dy ^ dcy
        w = right(spec, sign, x, y)
        return w if sign == "-" else tuple(tuple(2 * v for v in row) for row in w)

    monkeypatch.setattr(tensors, "_omega_components", doubled)
    assert main(["check", spec_file]) == 3
    out = json.loads(capsys.readouterr().out)
    names = [f.partition(":")[0] for f in out["failures"]]
    # nine invariants per point, and omega+^2 fails at every point
    assert names.count("omega+^2 identity") == (out["passed"] + out["failed"]) // 9
    assert "omega-^2 identity" not in names


@pytest.mark.parametrize("command, payload, field", [
    ("classify", {k: v for k, v in CASE5.items() if k != "A"}, "'A'"),
    ("validate", dict(CASE5, q=["0", "1"]), "'q'"),
    ("csc-gen", dict(CSC_DATA, R=["1", "4", "0", "1"]), "'R'"),
    ("classify", dict(CASE5, A="-6512"), "'A'"),
    ("classify", dict(CASE5, x_interval="23"), "'x_interval'"),
    ("csc-gen", dict(CSC_DATA, R="14011"), "'R'"),
    ("csc-gen", dict(CSC_DATA, rho="114"), "'rho'"),
], ids=["spec-without-A", "spec-q-of-two", "csc-R-of-four", "spec-A-string",
        "spec-interval-string", "csc-R-string", "csc-rho-string"])
def test_malformed_input_exits_2_and_names_the_field(tmp_path, capsys, command,
                                                     payload, field):
    p = tmp_path / "input.json"
    p.write_text(json.dumps(payload))
    assert main([command, str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("command", ["validate", "check", "classify", "moment"])
@pytest.mark.parametrize("x_interval", [["2", "3"], ["2", "inf"]])
def test_A_of_degree_above_four_exits_2(tmp_path, capsys, command, x_interval):
    # validate, check and moment used to exit 0 on A = 1 + z^5, and classify
    # exited 0 or 2 depending on whether an x end was infinite
    p = tmp_path / "input.json"
    p.write_text(json.dumps(dict(CASE5, A=["1", "0", "0", "0", "0", "1"],
                                 x_interval=x_interval)))
    assert main([command, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: A has degree 5")


def test_traced_layers_resolve():
    # perfbench's traced runs look up every layer by name; a renamed or
    # deleted layer function would make them raise
    import importlib
    import importlib.util

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, module, attr, _, _ in tracing.LAYERS:
        owner = importlib.import_module(module)
        for name in attr.split("."):
            owner = getattr(owner, name)
        assert callable(owner), (module, attr)


# ---------------------------------------------------------------------------
# every input ends in a verdict or one error line
# ---------------------------------------------------------------------------

#: what a mutated entry of a spec becomes, or what is appended to a list:
#: strings that are no rational or no float, rationals that parse, large,
#: small or near the precision of floats, and JSON values of the wrong type
ODD_VALUES = ("0", "1/0", "1e999", "1e200", "1e-200", "1e-330", str(10 ** 20 - 1), "nan", "oo",
              "1/3", "-7/2", "3e5", 0, 1.5, -7, None, True, [], {}, ["1", "0"])

#: the specs that are mutated: the 8 goldens and `examples kerr-interior`
BASE_SPECS = [json.loads(p.read_text())["spec"] for p in sorted(GOLDEN_DIR.glob("*.json"))] + [
    kerr(KerrParams(1, F(1, 2)), INTERIOR).to_dict()]


def _json_paths(value, path=()):
    """(path, entry) for `value` and for every entry nested in it."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, entry in items:
        yield from _json_paths(entry, path + (key,))


def _nonzero_rational(value) -> bool:
    """Whether value is a string that reads as a non-zero rational."""
    try:
        return isinstance(value, str) and F(value) != 0
    except (ValueError, ZeroDivisionError):
        return False


@st.composite
def one_field_mutations(draw):
    """A spec of `BASE_SPECS` with one entry replaced, deleted, (in a list)
    appended to, or (a non-zero rational) scaled by 10^k, |k| <= 330, which
    keeps the shape of the spec and so reaches past the parser."""
    spec = json.loads(json.dumps(draw(st.sampled_from(BASE_SPECS))))
    how = draw(st.sampled_from(("replace", "append", "delete", "scale")))
    paths = [path for path, entry in _json_paths(spec)
             if path and (how != "scale" or _nonzero_rational(entry))]
    *head, last = draw(st.sampled_from(paths))
    parent = spec
    for key in head:
        parent = parent[key]
    if how == "delete":
        del parent[last]
    elif how == "scale":
        parent[last] = str(F(parent[last]) * F(10) ** draw(st.integers(-330, 330)))
    elif how == "append" and isinstance(parent[last], list):
        parent[last].append(draw(st.sampled_from(ODD_VALUES)))
    else:
        parent[last] = draw(st.sampled_from(ODD_VALUES))
    return spec


def _ends_in_a_verdict_or_one_error_line(argv) -> int:
    """Run `main(argv)`: no exception escapes it, its exit code is 0 to 3,
    and exit 2 comes with exactly one line, an `error:` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    return code


@settings(max_examples=150, deadline=None)
@given(spec=one_field_mutations(), sign=st.sampled_from("+-"))
@example(spec=dict(CASE5, B=[str(10 ** 20 - 1)] + CASE5["B"][1:]), sign="+")
@example(spec=dict(CASE5, A=["-12", "1e999", "-2"]), sign="+")
@example(spec=dict(CASE5, q=["0", "1e999", "0"]), sign="+")
@example(spec=dict(CASE5, q=["0", "1e200", "0"]), sign="+")
@example(spec=dict(CASE5, q=["0", "1e-200", "0"]), sign="+")
@example(spec=dict(CASE5, q=["0", "1e-320", "0"]), sign="+")
def test_every_spec_ends_in_a_verdict_or_one_error_line(spec, sign):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        for argv in (["validate", path], ["classify", path], ["check", path],
                     ["moment", path, "--sign", sign, "--grid", "4"]):
            _ends_in_a_verdict_or_one_error_line(argv)


#: argv tokens after the subcommand: every flag of `COMMANDS`, alone and
#: with a value after "=", values of every kind a flag or positional takes,
#: and a file of each kind; SPEC and DATA stand for the files
ARG_VALUES = ("+", "-", "0", "-1", "3", "1/2", "1/0", "1e999", str(10 ** 20 - 1), "nan", "x",
              "", "1,2", "2.5,-0.5", "1,1,0,1", "1e999,0,0,1", "0,0,0,0", "g0", "J+", "json",
              "svg", "interior", "cp2", "kerr", "kerr-interior", "hirzebruch:3", "hirzebruch:0",
              "hirzebruch:" + "9" * 4400, "9" * 4400, "SPEC", "DATA", "missing.json")
FLAGS = sorted({flag for entry in COMMANDS.values() for flag in entry[2]}) + ["--bogus", "-h"]
TOKENS = st.one_of(st.sampled_from(ARG_VALUES), st.sampled_from(FLAGS),
                   st.builds("{}={}".format, st.sampled_from(FLAGS), st.sampled_from(ARG_VALUES)))


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS) + ["-h", "bogus", ""]),
       tokens=st.lists(TOKENS, max_size=5))
@example(command="examples", tokens=["hirzebruch:" + "9" * 4400])
@example(command="moment", tokens=["SPEC", "--grid", "9" * 4400])
@example(command="moment", tokens=["SPEC", "--grid", str(10 ** 20 - 1)])
def test_every_command_line_ends_in_a_verdict_or_one_error_line(command, tokens):
    with tempfile.TemporaryDirectory() as tmp:
        files = {"SPEC": os.path.join(tmp, "spec.json"), "DATA": os.path.join(tmp, "data.json")}
        for name, payload in (("SPEC", CASE5), ("DATA", CSC_DATA)):
            with open(files[name], "w") as fh:
                json.dump(payload, fh)
        cwd = os.getcwd()
        os.chdir(tmp)           # an --out, --csv or --svg value names a file here
        try:
            _ends_in_a_verdict_or_one_error_line(
                [command] + [files.get(t, t) for t in tokens])
        finally:
            os.chdir(cwd)
