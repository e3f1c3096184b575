"""The three workloads: seeded inputs, the timed operations and the checks
that judge each operation's output.

Every workload is a fixed list of operations (a round); the seed picks the
inputs and the order, never which operations are expected to fail.  An
operation's output is checked right after it is timed; the check is not
timed.  Expected values come from `checks` (the benchmark's own exact
arithmetic), from the golden files, or from the paper's displayed formulas.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import checks

ROOT = Path.cwd()
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"

RULE_PROPER_FOLD = "i:no-proper-folds"
INFINITELY_DISTANT = "InfinitelyDistant"

#: the classical torus bases of the canonical gauges (paper, section 2)
CANONICAL_Q = {
    "Parabolic": (F(0), F(0), F(1)),
    "Hyperbolic": (F(0), F(1), F(0)),
    "Elliptic": (F(1), F(0), F(1)),
}
CANONICAL_TAU = {
    "Parabolic": ((F(0), F(0), F(1)), (F(0), F(1, 2), F(0))),    # {1, z}
    "Hyperbolic": ((F(0), F(0), F(1)), (F(1), F(0), F(0))),      # {1, z^2}
    "Elliptic": ((F(0), F(1), F(0)), (F(1), F(0), F(-1))),       # {2z, z^2-1}
}

KERR_SWEEP_ALPHAS = [F(k, 12) for k in range(1, 7)]   # scripts/kerr_sweep.py


def conic_type(q) -> str:
    disc = q[1] * q[1] - q[0] * q[2]
    return "Hyperbolic" if disc > 0 else "Elliptic" if disc < 0 else "Parabolic"


def golden_files() -> List[Path]:
    return sorted(GOLDEN_DIR.glob("*.json"))


@dataclass(frozen=True)
class Fault:
    """A known program fault that makes an op fail every time.  `symptoms`
    are patterns of the problems it causes on that op.  The fault explains
    the op's problems only when each problem matches a symptom and each
    symptom matches a problem; any other failure of the op is unexpected."""

    text: str
    symptoms: Tuple[str, ...]

    def explains(self, probs: List[str]) -> bool:
        return (all(any(re.fullmatch(s, p) for s in self.symptoms) for p in probs)
                and all(any(re.fullmatch(s, p) for p in probs)
                        for s in self.symptoms))


@dataclass
class Op:
    """One timed operation.  `run` returns the output that `check` judges;
    `check` returns a list of problems (empty when correct).  `fault` is
    the known program fault that makes this op fail every time, if any."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]
    fault: Optional[Fault] = None


# ---------------------------------------------------------------------------
# exact-family
# ---------------------------------------------------------------------------

@dataclass
class SpecCase:
    name: str
    spec: object
    golden: Optional[list] = None          # verdict dicts from a golden file
    base_flags: Optional[list] = None      # flags of the untransported golden
    displayed: Optional[str] = None        # conic type of a canonical ancestor
    displayed_signs: str = "+-"
    fault: Optional[Fault] = None


def _iv(interval):
    return (interval.lo, interval.hi)


def _q(spec):
    return tuple(spec.q.coeffs())


def _flags(verdict_dicts) -> list:
    return sorted((d["completable"], d["extends_ambitoric"]) for d in verdict_dicts)


def _edges(spec):
    from ambitoric import OO
    out = []
    for axis, iv in (("X", spec.x_interval), ("Y", spec.y_interval)):
        a, b = iv.endpoints_proj()
        out.append((axis, a))
        if not (a is OO and b is OO) and a != b:
            out.append((axis, b))
    return out


def exact_run(spec):
    """classify with default options, then for both signs the fold conic and
    the image line of every edge."""
    import ambitoric as amb
    verdicts = amb.classify(spec)
    conics, lines = {}, {}
    for sign in "+-":
        try:
            conics[sign] = amb.fold_conic(spec, sign)
        except amb.MomentError as err:
            conics[sign] = err
        for axis, gamma in _edges(spec):
            try:
                lines[(sign, axis, gamma)] = amb.level_set_line(spec, sign, axis, gamma)
            except (amb.MomentError, ValueError) as err:
                lines[(sign, axis, gamma)] = err
    return verdicts, conics, lines


def _own_gamma(gamma):
    from ambitoric import OO
    return checks.OO if gamma is OO else gamma


def exact_check(case: SpecCase, out) -> List[str]:
    spec = case.spec
    verdicts, conics, lines = out
    probs: List[str] = []
    q, X, Y = _q(spec), _iv(spec.x_interval), _iv(spec.y_interval)
    n = checks.count_components(q, X, Y)
    if len(verdicts) != n:
        probs.append(f"{len(verdicts)} components, {n} by exact count")
    dicts = []
    for comp, v in verdicts:
        d = v.to_dict()
        d["component"] = {"sign_xy": comp.sign_xy, "sign_q": comp.sign_q}
        dicts.append(d)
    if case.golden is not None and dicts != case.golden:
        probs.append("verdicts differ from the golden file")
    if case.base_flags is not None and _flags(dicts) != case.base_flags:
        probs.append(f"flags {_flags(dicts)} differ from the untransported "
                     f"{case.base_flags}")
    meets = checks.folds_meet_open_box(q, X, Y)
    for d in dicts:
        fires = any(r["rule"] == RULE_PROPER_FOLD and not r["ok"]
                    for r in d["reports"])
        if fires != meets:
            probs.append(f"rule (i) fires={fires} but folds meet box={meets}")
    # edge verdicts against the exact multiplicity rule (e = 0 off fold-edges)
    for _, v in verdicts:
        for r in v.reports:
            c = r.component
            if c.kind != "Edge" or c.is_fold_and_edge:
                continue
            P = spec.A if c.axis == "X" else spec.B
            m = checks.root_multiplicity(P.coeffs, _own_gamma(c.gamma))
            if m == 0:
                if r.status is not None:
                    probs.append(f"{c.describe()}: no root but a verdict")
            elif r.status is None or (
                    (r.status.verdict == INFINITELY_DISTANT) != (m >= 2)):
                probs.append(f"{c.describe()}: m={m} but "
                             f"{r.status and r.status.verdict}")
    tau = tuple(tuple(t.coeffs()) for t in spec.tau_basis)
    for sign in "+-":
        basis = checks.moment_basis(sign, q, tau)
        conic = conics[sign]
        fresh = [checks.mu(sign, q, basis, x, y)
                 for x, y in checks.fold_points(sign, q)]
        fresh = [m for m in fresh if m is not None]
        key = (case.displayed, sign)
        if isinstance(conic, Exception):
            probs.append(f"fold_conic {sign}: {conic}")
        elif conic.matrix is not None:
            if any(checks.conic_value(conic.matrix, m) != 0 for m in fresh):
                probs.append(f"fold conic {sign} misses fresh fold points")
            if (sign in case.displayed_signs and key in checks.DISPLAYED_CONICS
                    and not checks.proportional(conic.matrix,
                                                checks.DISPLAYED_CONICS[key])):
                probs.append(f"fold conic {sign} is not the displayed one")
        else:
            pts = set(conic.points)
            if not all(m in pts for m in fresh):
                probs.append(f"fold image {sign} misses fresh fold points")
            if (sign in case.displayed_signs and key in checks.DISPLAYED_POINTS
                    and pts != checks.DISPLAYED_POINTS[key]):
                probs.append(f"fold points {sign} are not the displayed ones")
        for axis, gamma in _edges(spec):
            line = lines[(sign, axis, gamma)]
            g = _own_gamma(gamma)
            if isinstance(line, Exception):
                if not checks.edge_image_at_infinity(sign, q, g):
                    probs.append(f"level_set_line {sign} {axis}={gamma}: {line}")
                continue
            other = Y if axis == "X" else X
            for s in checks.edge_points(other):
                if g == checks.OO:
                    m = checks.mu_at_infinity(sign, q, basis, s)
                else:
                    m = checks.mu(sign, q, basis, *((g, s) if axis == "X" else (s, g)))
                if m is None:
                    continue
                if line.degenerate_point is not None:
                    ok = tuple(line.degenerate_point) == m
                else:
                    ok = line.normal[0] * m[0] + line.normal[1] * m[1] == line.offset
                if not ok:
                    probs.append(f"line {sign} {axis}={gamma} misses mu at {s}")
                    break
            if line.tangency is not None and line.tangency.discriminant != 0:
                probs.append(f"line {sign} {axis}={gamma} not tangent")
    return probs


def _random_mobius(rng: random.Random, spec):
    """z -> (a z + b)/(c z + d) with c != 0 and the pole outside both closed
    intervals."""
    from ambitoric import Mobius
    ivs = (spec.x_interval, spec.y_interval)
    while True:
        c = rng.choice((1, 2, -1))
        pole = F(rng.randint(-24, 24), 4)
        if any((iv.lo is None or pole >= iv.lo) and (iv.hi is None or pole <= iv.hi)
               for iv in ivs):
            continue
        d = -c * pole
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a * d - b * c != 0:
            return Mobius(a, b, c, d)


def _planted(rng: random.Random, ctype: str):
    """A canonical box with A = (x - a)^m1 (b - x)^m2 and
    B = (y - c)^n1 (d - y)^n2, multiplicities in {1, 2}."""
    from ambitoric import AnsatzSpec, Interval, MetricChoice, Poly
    from ambitoric.quadratics import Quadratic

    def factor_poly(lo, hi, m1, m2):
        p = Poly([1])
        for _ in range(m1):
            p = p * Poly([-lo, 1])
        for _ in range(m2):
            p = p * Poly([hi, -1])
        return p

    def interval(low, high):
        lo = F(rng.randint(2 * low, 2 * high - 2), 2)
        return lo, lo + F(rng.randint(2, 6), 2)

    if ctype == "Elliptic":
        # keep x > 0 so the box sees one branch of {xy + 1 = 0}
        a, b = interval(1, 4)
        c, d = interval(-4, 3)
    else:
        a, b = interval(-3, 3)
        c, d = interval(-3, 3)
    ms = [rng.choice((1, 2)) for _ in range(4)]
    return AnsatzSpec(
        q=Quadratic(*CANONICAL_Q[ctype]),
        A=factor_poly(a, b, ms[0], ms[1]),
        B=factor_poly(c, d, ms[2], ms[3]),
        x_interval=Interval(a, b), y_interval=Interval(c, d),
        lattice=((1, 0), (0, 1)),
        metric=MetricChoice(rng.choice(("g0", "g+", "g-"))))


def defect_specs():
    """The two grid defects: a sliver the 48x48 grid misses, and six
    connected regions that share four sign pairs."""
    from ambitoric import AnsatzSpec, Interval, Poly
    from ambitoric.quadratics import Quadratic
    sliver = AnsatzSpec(
        q=Quadratic(0, 1, 0), A=Poly([-6, 5, -1]),
        B=Poly([F(-201, 100), F(-301, 100), -1]),
        x_interval=Interval(2, 3), y_interval=Interval(F(-201, 100), -1),
        lattice=((1, 0), (0, 1)))
    merged = AnsatzSpec(
        q=Quadratic(1, 0, -1), A=Poly([9, 0, -1]), B=Poly([9, 0, -1]),
        x_interval=Interval(-3, 3), y_interval=Interval(-3, 3),
        lattice=((1, 0), (0, 1)),
        tau_basis=(Quadratic(1, 0, 1), Quadratic(0, 1, 0)))
    return [("defect-sliver", sliver), ("defect-merged", merged)]


FAULT_LINE_PAIR = Fault(
    "moment.fold_conic samples one line of the line pair {q = 0} when q has "
    "a finite double root, so the '-' fold image loses one of its two points",
    (r"fold points - are not the displayed ones",))
FAULT_GRID = Fault(
    "ansatz.validate samples a 48x48 float grid and keys components by "
    "sign pair",
    (r"\d+ components, \d+ by exact count",))


def golden_case(name: str) -> SpecCase:
    import ambitoric as amb
    g = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    spec = amb.AnsatzSpec.from_dict(g["spec"])
    ctype = conic_type(_q(spec))
    return SpecCase(name, spec, golden=g["verdicts"],
                    displayed=ctype if _q(spec) == CANONICAL_Q[ctype] else None)


def exact_cases(seed: int) -> List[SpecCase]:
    import ambitoric as amb
    from ambitoric.special import INTERIOR
    rng = random.Random(seed)
    cases: List[SpecCase] = []
    for path in golden_files():
        case = golden_case(path.stem)
        cases.append(case)
        fault = None
        if case.displayed == "Parabolic":
            # every transport moves the double root of q to a finite point;
            # one fixed map keeps this failing op's input off the seed
            m, fault = amb.Mobius(0, 1, 1, 0), FAULT_LINE_PAIR
        else:
            m = _random_mobius(rng, case.spec)
        # mu- is gauge invariant, so the '-' fold image keeps its equation
        cases.append(SpecCase(path.stem + "@mobius",
                              amb.mobius_transport(case.spec, m),
                              base_flags=_flags(case.golden),
                              displayed=case.displayed, displayed_signs="-",
                              fault=fault))
    M = F(rng.randint(2, 8), 4)
    alpha = M * F(rng.randint(1, 11), 12)
    for region in (amb.special.EXTERIOR, INTERIOR):
        spec = amb.kerr(amb.KerrParams(M, alpha), region)
        cases.append(SpecCase(f"kerr-{region.lower()}", spec,
                              displayed="Hyperbolic"))
    for ctype in ("Hyperbolic", "Elliptic", "Parabolic"):
        for k in range(7):
            cases.append(SpecCase(f"planted-{ctype.lower()}-{k}",
                                  _planted(rng, ctype), displayed=ctype))
    for name, spec in defect_specs():
        cases.append(SpecCase(name, spec, fault=FAULT_GRID))
    rng.shuffle(cases)
    return cases


def exact_ops(seed: int) -> List[Op]:
    return [Op(c.name, (lambda c=c: exact_run(c.spec)),
               (lambda out, c=c: exact_check(c, out)), c.fault)
            for c in exact_cases(seed)]


# ---------------------------------------------------------------------------
# kerr-geometry
# ---------------------------------------------------------------------------

STENCIL = ("tensors.curvature's stencil guard ignores the zeros of A and B, "
           "so small alpha gives |Ric| far above 1e-4")
SYMPTOM_RICCI = r"max \|Ric\| = \S+"
#: at alpha = 1/12 a sample point lies 0.0056 from the root -alpha of B and
#: the same stencil also throws the g- scalar curvature off by 1.2e-3
SYMPTOM_SCALAR = r"g- scalar / closed form = \S+ at \(3\.731, -0\.07778\)"


def stencil_fault(alpha: F) -> Optional[Fault]:
    if alpha >= F(1, 2):
        return None
    if alpha == F(1, 12):
        return Fault(STENCIL, (SYMPTOM_RICCI, SYMPTOM_SCALAR))
    return Fault(STENCIL, (SYMPTOM_RICCI,))


def kerr_run(M, alpha):
    """Ricci and the g- scalar curvature at the exterior sample_points(5);
    the interior mu- image of the component touching x = y over
    sample_points(28), then convexity_check."""
    import ambitoric as amb
    from ambitoric.special import INTERIOR
    ext = amb.kerr(amb.KerrParams(M, alpha))
    comp = amb.validate(ext)[0]
    curv = []
    for x, y in comp.sample_points(5):
        pt = amb.FramePoint(x, y)
        ric = amb.curvature(ext, ext.metric, pt).ricci
        scal = amb.curvature(ext, amb.METRIC_GMINUS, pt).scalar
        curv.append((x, y, float(abs(ric).max()), scal))
    inner = amb.kerr(amb.KerrParams(M, alpha), INTERIOR)
    comp = next(c for c in amb.validate(inner) if c.sign_xy == 1)
    mus = [amb.moment_map(inner, "-", x, y) for x, y in comp.sample_points(28)]
    convex, witness = amb.convexity_check(mus)
    return ext, curv, [(m.mu1, m.mu2) for m in mus], witness


def kerr_check(out) -> List[str]:
    ext, curv, mus, witness = out
    probs = []
    q = _q(ext)
    worst = max(c[2] for c in curv)
    if worst >= 1e-4:
        probs.append(f"max |Ric| = {worst:.3g}")
    for x, y, _, scal in curv:
        closed = checks.scalar_minus_closed_form(q, ext.A.coeffs, ext.B.coeffs, x, y)
        if abs(closed) > 1e-8 and abs(scal / closed - 1.0) > 1e-3:
            probs.append(f"g- scalar / closed form = {scal / closed:.6f} at ({x:.4g}, {y:.4g})")
            break
    if len(mus) < 3:
        probs.append("interior image has fewer than 3 samples")
    elif witness is not None and not checks.in_hull(
            checks.convex_hull(mus), (witness.mu1, witness.mu2)):
        probs.append("convexity witness outside the sample hull")
    return probs


def kerr_params(seed: int) -> List[Tuple[F, F, Optional[Fault]]]:
    """The alphas of scripts/kerr_sweep.py at M = 1 (those below 1/2 fail
    every time), then seeded (M, alpha) with alpha/M in [1/2, 19/20]."""
    rng = random.Random(seed)
    out = [(F(1), a, stencil_fault(a)) for a in KERR_SWEEP_ALPHAS]
    while len(out) < 40:
        M = F(rng.randint(4, 12), 4)
        out.append((M, M * F(rng.randint(10, 19), 20), None))
    rng.shuffle(out)
    return out


def kerr_ops(seed: int) -> List[Op]:
    return [Op(f"kerr M={M} alpha={a}", (lambda M=M, a=a: kerr_run(M, a)),
               kerr_check, fault)
            for M, a, fault in kerr_params(seed)]


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

FAULT_CHECK_H = Fault(
    "moment.hamiltonian_residual uses h = 1e-4 against an absolute bound of "
    "1e-5; check --h is ignored",
    (r"exit 3: Hamiltonian mu[+-]: residual \S+",))
FAULT_SVG_LINE = Fault(
    "cli._line_segment divides by a zero normal component when a level-set "
    "image degenerates to a point",
    (r"exit 1: ZeroDivisionError: .* in _line_segment",))
CHECK_FAILS = {"case3_fold_corner_g0", "case7_p_corner_gp",
               "case8_fold_corner_gminus", "kerr-interior"}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class CliCase:
    name: str
    path: Path
    components: Optional[list]      # golden [{sign_xy, sign_q}, ...]
    golden: Optional[list]
    q: tuple
    X: tuple
    Y: tuple


def write_cli_inputs(workdir: Path, kerr_spec: Path) -> List[CliCase]:
    """Spec files of the 8 goldens plus the Kerr interior spec that
    `ambitoric examples kerr-interior` wrote."""
    cases = []
    for path in golden_files():
        g = json.loads(path.read_text())
        p = workdir / f"{path.stem}.spec.json"
        p.write_text(json.dumps(g["spec"]))
        cases.append((path.stem, p, g["spec"], g["verdicts"]))
    cases.append(("kerr-interior", kerr_spec, json.loads(kerr_spec.read_text()), None))
    out = []
    for name, p, d, verdicts in cases:
        def end(s):
            return None if s in ("inf", "-inf") else F(s)
        out.append(CliCase(name, p,
                           [v["component"] for v in verdicts] if verdicts else None,
                           verdicts, tuple(F(c) for c in d["q"]),
                           tuple(end(s) for s in d["x_interval"]),
                           tuple(end(s) for s in d["y_interval"])))
    return out


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliRunner:
    """Runs one fresh `python -m ambitoric.cli` process per op, through the
    calibration sampler of the run.  Traced, the
    process is `child.py cli` instead, under `-X importtime`, and its import
    times and spans are kept, labelled with `tag`: ("setup", k) or
    ("op", sample index)."""

    def __init__(self, workdir: Path, traced: bool, sampler):
        self.workdir = workdir
        self.traced = traced
        self.sampler = sampler
        self.digests: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self.tag: Tuple[str, int] = ("setup", 0)
        self.imports: List[tuple] = []        # (tag, package_s, deferred_s)
        self.dumps: List[Tuple[int, dict]] = []

    def call(self, args: Sequence[str]):
        if self.traced:
            trace = self.workdir / f"trace-{len(self.imports)}.json"
            cmd = [sys.executable, "-X", "importtime",
                   str(Path(__file__).resolve().parent / "child.py"),
                   "cli", str(trace)]
        else:
            cmd = [sys.executable, "-m", "ambitoric.cli"]
        code, stdout, stderr = self.sampler.run_child(
            cmd + list(args), child_env(), str(ROOT), timeout=120)
        if self.traced:
            import tracing
            self.imports.append((self.tag,) + tracing.import_times(stderr))
            if self.tag[0] == "op" and trace.exists():
                self.dumps.append((self.tag[1], json.loads(trace.read_text())))
            stderr = "\n".join(line for line in stderr.splitlines()
                               if not line.startswith("import time:"))
        return code, stdout, stderr

    def merged_trace(self) -> dict:
        spans, counts, components = [], {}, []
        for op, dump in self.dumps:
            base = len(spans)
            for name, t0, t1, parent, _ in dump["spans"]:
                spans.append([name, t0, t1, parent + base if parent >= 0 else -1, op])
            for k, v in dump["counts"].items():
                counts[k] = counts.get(k, 0) + v
            components += dump["components"]
        return {"spans": spans, "counts": counts, "components": components}

    def ops(self, cases: List[CliCase], rng: random.Random) -> List[Op]:
        ops = []
        for c in cases:
            ops.append(Op(f"validate {c.name}", self._runner("validate", c),
                          lambda out, c=c: self._check_validate(c, out)))
            ops.append(Op(f"classify {c.name}", self._runner("classify", c),
                          lambda out, c=c: self._check_classify(c, out)))
            ops.append(Op(f"check {c.name}", self._runner("check", c),
                          self._check_check,
                          FAULT_CHECK_H if c.name in CHECK_FAILS else None))
            for sign in "+-":
                fault = (FAULT_SVG_LINE
                         if (c.name, sign) == ("case2_fold_edge_g0", "-") else None)
                ops.append(Op(f"moment{sign} {c.name}", self._moment_runner(c, sign),
                              lambda out, c=c, s=sign: self._check_moment(c, s, out),
                              fault))
        rng.shuffle(ops)
        return ops

    def _runner(self, cmd, c):
        return lambda: self.call([cmd, str(c.path)])

    def moment_paths(self, name: str, sign: str):
        tag = "plus" if sign == "+" else "minus"
        return (self.workdir / f"{name}.{tag}.csv",
                self.workdir / f"{name}.{tag}.svg")

    def _moment_runner(self, c, sign):
        csv, svg = self.moment_paths(c.name, sign)
        return lambda: self.call(["moment", str(c.path), "--sign", sign,
                                  "--csv", str(csv), "--svg", str(svg)])

    @staticmethod
    def _json(stdout: str):
        try:
            return json.loads(stdout)
        except ValueError:
            return None

    @staticmethod
    def _crash(code: int, stderr: str) -> str:
        """The exit code, the last line of stderr and, after a traceback,
        the function it ended in."""
        lines = stderr.strip().splitlines()
        where = [ln.rsplit(", in ", 1)[-1] for ln in lines
                 if ln.lstrip().startswith("File ") and ", in " in ln]
        msg = f"exit {code}: {lines[-1] if lines else ''}"
        return msg + (f" in {where[-1]}" if where else "")

    def _check_validate(self, c: CliCase, out) -> List[str]:
        code, stdout, stderr = out
        d = self._json(stdout)
        if code != 0 or d is None:
            return [self._crash(code, stderr)]
        probs = []
        if d["conic_type"] != conic_type(c.q):
            probs.append(f"conic type {d['conic_type']}")
        n = checks.count_components(c.q, c.X, c.Y)
        if len(d["components"]) != n:
            probs.append(f"{len(d['components'])} components, {n} by exact count")
        if c.components is not None and d["components"] != c.components:
            probs.append("components differ from the golden file")
        return probs

    def _check_classify(self, c: CliCase, out) -> List[str]:
        code, stdout, stderr = out
        d = self._json(stdout)
        if d is None:
            return [self._crash(code, stderr)]
        if c.golden is not None:
            expect = 0 if all(v["completable"] for v in c.golden) else 1
            probs = [] if d["verdicts"] == c.golden else ["verdicts differ from golden"]
        else:
            meets = checks.folds_meet_open_box(c.q, c.X, c.Y)
            expect = 1 if meets else 0
            probs = []
            for v in d["verdicts"]:
                fires = any(r["rule"] == RULE_PROPER_FOLD and not r["ok"]
                            for r in v["reports"])
                if fires != meets:
                    probs.append(f"rule (i) fires={fires}, folds meet={meets}")
        if code != expect:
            probs.append(f"exit {code}, expected {expect}")
        return probs

    def _check_check(self, out) -> List[str]:
        """One problem per failed invariant (exit 3), else the crash."""
        code, stdout, stderr = out
        d = self._json(stdout)
        if d is None or code not in (0, 3):
            return [self._crash(code, stderr)]
        probs = [f"exit {code}: {f}" for f in d["failures"]]
        if (code == 3) != bool(probs) or len(probs) != d["failed"]:
            probs.append(f"exit {code} with {d['failed']} failed, "
                         f"{len(d['failures'])} failures listed")
        return probs

    def _check_moment(self, c: CliCase, sign: str, out) -> List[str]:
        code, stdout, stderr = out
        d = self._json(stdout)
        if code != 0 or d is None:
            return [self._crash(code, stderr)]
        probs = []
        csv, svg = self.moment_paths(c.name, sign)
        rows = csv.read_text().splitlines()[1:]
        if len(rows) != d["samples"]:
            probs.append(f"{len(rows)} CSV rows for {d['samples']} samples")
        ctype = conic_type(c.q)
        key = (ctype, sign)
        conic = d["conic"]
        if key in checks.DISPLAYED_CONICS:
            Q = [[F(v) for v in row] for row in conic]
            if not checks.proportional(Q, checks.DISPLAYED_CONICS[key]):
                probs.append("conic is not the displayed one")
        if key in checks.DISPLAYED_POINTS:
            pts = {(F(a), F(b)) for a, b in conic["points"]}
            if pts != checks.DISPLAYED_POINTS[key]:
                probs.append("fold points are not the displayed ones")
        basis = checks.moment_basis(sign, c.q, CANONICAL_TAU[ctype])
        for row in rows[:: max(1, len(rows) // 7)]:
            x, y, m1, m2 = (float(v) for v in row.split(","))
            own = checks.mu(sign, c.q, basis, F(x), F(y))
            if own is None or max(abs(float(own[0]) - m1), abs(float(own[1]) - m2)) \
                    > 1e-7 * max(1.0, abs(m1), abs(m2)):
                probs.append(f"CSV row {row} disagrees with mu{sign}")
                break
        digest_pair = (digest(csv), digest(svg))
        if self.digests.setdefault((c.name, sign), digest_pair) != digest_pair:
            probs.append("repeated moment op wrote different bytes")
        return probs
