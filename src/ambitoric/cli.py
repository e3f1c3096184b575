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
import math
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .quadratics import OO, Mobius, Poly, Quadratic, rat
from .ansatz import (
    FIELDS,
    AnsatzSpec,
    Interval,
    ValidationError,
    _as_lattice,
    conformal_factor,
    json_field,
    json_list,
    mobius_transport,
    validate,
)

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
# SVG emission (deterministic, fixed precision)
# ---------------------------------------------------------------------------

def _svg_document(width: float, height: float, body: List[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width:.0f}" height="{height:.0f}" '
            f'viewBox="0 0 {width:.0f} {height:.0f}">')
    return "\n".join([head] + body + ["</svg>", ""])


class _Viewport:
    """Affine map from moment coordinates to SVG pixels: the points' box,
    scaled into a `size` x `size` square inside a `margin`."""

    size, margin = 480.0, 40.0

    def __init__(self, pts: List[Tuple[float, float]]):
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        self.x0, self.x1 = min(xs), max(xs)
        self.y0, self.y1 = min(ys), max(ys)
        span = max(self.x1 - self.x0, self.y1 - self.y0, 1e-9)
        self.scale = (self.size - 2 * self.margin) / span

    def map(self, p: Tuple[float, float]) -> Tuple[float, float]:
        u = self.margin + (p[0] - self.x0) * self.scale
        v = self.size - self.margin - (p[1] - self.y0) * self.scale
        return u, v

    def polyline(self, pts, color: str, width: float = 1.5) -> str:
        coords = " ".join(f"{u:.3f},{v:.3f}" for u, v in map(self.map, pts))
        return (f'<polyline fill="none" stroke="{color}" '
                f'stroke-width="{width:.1f}" points="{coords}"/>')

    def dots(self, pts, color: str, r: float = 1.6) -> str:
        parts = []
        for p in pts:
            u, v = self.map(p)
            parts.append(f'<circle cx="{u:.3f}" cy="{v:.3f}" r="{r:.1f}" '
                         f'fill="{color}"/>')
        return "\n".join(parts)


def _conic_polylines(conic, box) -> List[List[Tuple[float, float]]]:
    """Trace the conic {v^T Q v = 0} inside the bounding box by sampling
    mu1 and solving the per-column quadratic in mu2."""
    if conic.matrix is None:
        return []
    Q = [[float(c) for c in row] for row in conic.matrix]
    (x0, x1), (y0, y1) = box
    branches: List[List[Tuple[float, float]]] = [[], []]
    n = 400
    for i in range(n + 1):
        m1 = x0 + (x1 - x0) * i / n
        a = Q[1][1]
        b = 2.0 * (Q[0][1] * m1 + Q[1][2])
        c = Q[0][0] * m1 * m1 + 2.0 * Q[0][2] * m1 + Q[2][2]
        if abs(a) < 1e-14:
            if abs(b) > 1e-14:
                m2 = -c / b
                if y0 <= m2 <= y1:
                    branches[0].append((m1, m2))
            continue
        disc = b * b - 4.0 * a * c
        if disc < 0:
            continue
        sq = math.sqrt(disc)
        for j, m2 in enumerate(((-b - sq) / (2 * a), (-b + sq) / (2 * a))):
            if y0 <= m2 <= y1:
                branches[j].append((m1, m2))
    return [br for br in branches if len(br) >= 2]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    spec = _load_spec(args.spec)
    comps = validate(spec)
    out = [{"sign_xy": c.sign_xy, "sign_q": c.sign_q} for c in comps]
    _dump_json({"conic_type": spec.ctype, "components": out}, args.out)
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .tensors import FramePoint, eval_field

    try:
        x, y = (float(v) for v in args.at.split(","))
    except ValueError:
        x = y = math.nan
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"--at needs two finite coordinates x,y, got {args.at!r}")
    if x == y:
        # the conformal factor q(x, y) / (x - y) has its pole there
        raise ValueError(f"--at must lie off the fold x = y, got {args.at!r}")
    spec = _load_spec(args.spec)
    fields = [args.field] if args.field else list(FIELDS)
    out = {"x": x, "y": y, "f": float(conformal_factor(spec, x, y))}
    for f in fields:
        if f == "gp" and spec.metric.tag != "gp":
            continue
        out[f] = [[float(v) for v in row] for row in eval_field(spec, f, FramePoint(x, y))]
    _dump_json(out, args.out)
    return EXIT_OK


def _size(m) -> float:
    """The max-norm of a matrix, or the absolute value of a number."""
    if isinstance(m, (int, float, Fraction)):
        return abs(float(m))
    return max(abs(float(v)) for row in m for v in row)


def _matmul(a, b) -> tuple:
    """The product of two matrices given as nested tuples."""
    return tuple(tuple(sum(u * v for u, v in zip(row, col)) for col in zip(*b))
                 for row in a)


def _sub(a, b) -> tuple:
    """The difference of two matrices given as nested tuples."""
    return tuple(tuple(u - v for u, v in zip(r, s)) for r, s in zip(a, b))


#: -Id on the frame (dx, dy, dt1, dt2)
_MINUS_ID = tuple(tuple(-1.0 if i == j else 0.0 for j in range(4)) for i in range(4))


def relative_residual(residual, *terms) -> float:
    """The size of an identity's residual over the size of its largest
    term, where the size of a term is the product of the sizes of its
    factors: entries that grow like 1/q near a fold then leave only the
    rounding in the ratio."""
    return _size(residual) / max(math.prod(_size(f) for f in t) for t in terms)


#: bounds of the invariants of `check`, on relative residuals
_CHECK_BOUNDS = {"J+^2=-Id": 1e-8, "J-J+ commute": 1e-8, "omega+=g+J+": 1e-8,
                 "g0=f g+": 1e-8, "omega+^2 identity": 1e-8,
                 "omega-^2 identity": 1e-8, "fibre volume relation": 1e-6,
                 "Hamiltonian mu+": 1e-8, "Hamiltonian mu-": 1e-8}


def _cmd_check(args) -> int:
    from .moment import hamiltonian_residual
    from .tensors import (
        FramePoint,
        eval_field,
        kaehler_volume_coefficient,
        pfaffian4,
    )

    spec = _load_spec(args.spec)
    comps = validate(spec)
    passed = failed = 0
    failures: List[str] = []
    worst = dict.fromkeys(_CHECK_BOUNDS, 0.0)

    def record(name: str, res: float):
        nonlocal passed, failed
        worst[name] = max(worst[name], res)
        if res < _CHECK_BOUNDS[name]:
            passed += 1
        else:
            failed += 1
            failures.append(f"{name}: residual {res:g}")

    K = (Fraction(1), Fraction(0))
    for comp in comps:
        pts = comp.sample_points(6)
        n = min(12, len(pts))
        for x, y in (pts[i * len(pts) // n] for i in range(n)):
            pt = FramePoint(x, y)
            g0, gp, gm, wp, wm, Jp, Jm = (
                eval_field(spec, name, pt)
                for name in ("g0", "g+", "g-", "omega+", "omega-", "J+", "J-"))
            record("J+^2=-Id", relative_residual(_sub(_matmul(Jp, Jp), _MINUS_ID),
                                                 (Jp, Jp), (_MINUS_ID,)))
            record("J-J+ commute", relative_residual(
                _sub(_matmul(Jp, Jm), _matmul(Jm, Jp)), (Jp, Jm)))
            record("omega+=g+J+", relative_residual(_sub(_matmul(gp, Jp), wp),
                                                    (gp, Jp), (wp,)))
            f = conformal_factor(spec, x, y)
            fgp = tuple(tuple(f * v for v in row) for row in gp)
            record("g0=f g+", relative_residual(_sub(g0, fgp), (g0,), (f, gp)))
            for s, ex, w, J in (("+", -2, wp, Jp), ("-", 2, wm, Jm)):
                lhs = pfaffian4(w)
                rhs = (f ** ex / (float(spec.A(x)) * float(spec.B(y)))
                       * kaehler_volume_coefficient(J))
                record(f"omega{s}^2 identity", abs(lhs - rhs) / max(1.0, abs(lhs)))
            # det h of the (dt1, dt2) blocks: h+ = h0 / f and h- = f h0
            h0, hp, hm = (g[2][2] * g[3][3] - g[2][3] * g[3][2] for g in (g0, gp, gm))
            record("fibre volume relation",
                   relative_residual(h0 * h0 - hp * hm, (h0, h0), (hp, hm)))
            for s, w in (("+", wp), ("-", wm)):
                record(f"Hamiltonian mu{s}", hamiltonian_residual(spec, s, K, x, y, w))
    report = {"passed": passed, "failed": failed, "failures": failures,
              "worst_residual": {k: float(f"{v:.3g}") for k, v in worst.items()}}
    _dump_json(report, args.out)
    return EXIT_OK if failed == 0 else EXIT_INVARIANT


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
    from .moment import MomentError, fold_conic, level_set_line, moment_map

    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    spec = _load_spec(args.spec)
    comps = validate(spec)
    sign = args.sign
    rows: List[Tuple[float, float, float, float]] = []
    for comp in comps:
        for x, y in comp.sample_points(args.grid):
            try:
                mp = moment_map(spec, sign, x, y)
            except MomentError:
                continue
            rows.append((x, y, float(mp.mu1), float(mp.mu2)))
    conic = fold_conic(spec, sign)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("x,y,mu1,mu2\n")
            for r in rows:
                fh.write(",".join(f"{v:.12g}" for v in r) + "\n")
    if conic.matrix is not None:
        conic_out = [[str(c) for c in row] for row in conic.matrix]
    else:
        conic_out = {"points": [[str(a), str(b)] for a, b in conic.points]}
    lines, lines_out = [], []
    for axis, iv in (("X", spec.x_interval), ("Y", spec.y_interval)):
        for g in iv.endpoints_proj():
            entry = {"axis": axis, "gamma": "oo" if g is OO else str(g)}
            try:
                lines.append(level_set_line(spec, sign, axis, g))
                entry.update(_line_json(lines[-1]))
            except MomentError as err:
                entry["pole"] = str(err)
            lines_out.append(entry)
    if args.svg:
        mus = [(r[2], r[3]) for r in rows]
        vp = _Viewport(mus)
        body = [vp.dots(mus, "#3465a4")]
        box = ((vp.x0, vp.x1), (vp.y0, vp.y1))
        if conic.matrix is None:
            points = [(float(a), float(b)) for a, b in conic.points]
            body.append(vp.dots(points, "#cc0000", 3.0))
        for br in _conic_polylines(conic, box):
            body.append(vp.polyline(br, "#cc0000"))
        for line in lines:
            if line.degenerate_point is not None:
                point = tuple(float(v) for v in line.degenerate_point)
                body.append(vp.dots([point], "#4e9a06", 3.0))
            else:
                body.append(vp.polyline(_line_segment(line, box), "#4e9a06", 1.0))
        with open(args.svg, "w") as fh:
            fh.write(_svg_document(vp.size, vp.size, body))
    _dump_json({"sign": sign, "samples": len(rows), "conic": conic_out,
                "lines": lines_out}, args.out)
    return EXIT_OK


def _line_json(line) -> dict:
    """An edge image as exact strings: the point it collapses to, or the
    line {normal . mu = offset} with the leading coefficient and the
    discriminant of its tangency certificate against the fold conic (none
    when the conic is a point pair)."""
    if line.degenerate_point is not None:
        return {"point": [str(v) for v in line.degenerate_point]}
    out = {"normal": [str(v) for v in line.normal], "offset": str(line.offset)}
    if line.tangency is not None:
        out.update(leading=str(line.tangency.leading),
                   discriminant=str(line.tangency.discriminant))
    return out


def _line_segment(line, box):
    (x0, x1), (y0, y1) = box
    n1, n2 = (float(v) for v in line.normal)
    c = float(line.offset)
    pts = []
    if abs(n2) > abs(n1):
        for m1 in (x0, x1):
            pts.append((m1, (c - n1 * m1) / n2))
    else:
        for m2 in (y0, y1):
            pts.append(((c - n2 * m2) / n1, m2))
    return pts


def _cmd_kerr(args) -> int:
    from .special import EXTERIOR, INTERIOR, KerrParams, kerr

    params = KerrParams(rat(args.mass), rat(args.alpha))
    region = EXTERIOR if args.region == "exterior" else INTERIOR
    spec = kerr(params, region)
    _dump_json(spec.to_dict(), args.out)
    return EXIT_OK


def _cmd_examples(args) -> int:
    from .moment import Conic
    from .special import EXTERIOR, INTERIOR, KerrParams, kerr, standard_polygon

    name = args.name
    if name in ("kerr", "kerr-exterior", "kerr-interior"):
        region = INTERIOR if name == "kerr-interior" else EXTERIOR
        spec = kerr(KerrParams(1, Fraction(1, 2)), region)
        _dump_json(spec.to_dict(), args.out)
        return EXIT_OK
    if name == "cp2" or name.startswith("hirzebruch:"):
        poly, lattice = standard_polygon(name)
        if args.format == "svg":
            vp = _Viewport(list(poly.vertices))
            ring = list(poly.vertices) + [poly.vertices[0]]
            body = [vp.polyline(ring, "#204a87", 2.0)]
            conic_box = ((vp.x0, vp.x1), (vp.y0, vp.y1))
            # 4 mu1 mu2 + 1 = 0, the conic the standard polygons are tangent to
            hyperbola = Conic(matrix=((0, 2, 0), (2, 0, 0), (0, 0, 1)))
            for br in _conic_polylines(hyperbola, conic_box):
                body.append(vp.polyline(br, "#cc0000"))
            text = _svg_document(vp.size, vp.size, body)
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return EXIT_OK
        out = {
            "vertices": [[f"{v[0]:.12g}", f"{v[1]:.12g}"] for v in poly.vertices],
            "normals": [[str(n[0]), str(n[1])] for n in poly.normals],
            "lattice": [[str(v) for v in row] for row in lattice],
        }
        _dump_json(out, args.out)
        return EXIT_OK
    raise ValidationError(f"unknown example {name!r}")


def _cmd_gauge(args) -> int:
    spec = _load_spec(args.spec)
    a, b, c, d = (rat(v) for v in args.mobius.split(","))
    spec2 = mobius_transport(spec, Mobius(a, b, c, d))
    _dump_json(spec2.to_dict(), args.out)
    return EXIT_OK


def _quartic(coeffs) -> Poly:
    """R written as its five coefficients a0, ..., a4, ascending."""
    if len(json_list(coeffs)) != 5:
        raise ValueError(f"a quartic has 5 coefficients, not {len(coeffs)}")
    return Poly(coeffs)


def _cmd_csc_gen(args) -> int:
    from .special import CSCData, csc_construct

    with open(args.data) as fh:
        d = json.load(fh)
    data = CSCData(*(json_field(d, k, lambda v: Quadratic(*json_list(v)))
                     for k in ("q", "p", "rho")), R=json_field(d, "R", _quartic))
    box = {k: json_field(d, k, parse) for k, parse in (
        ("x_interval", Interval.from_json), ("y_interval", Interval.from_json),
        ("lattice", _as_lattice)) if k in d}
    spec, report = csc_construct(data, **box)
    obj = spec.to_dict()
    obj["report"] = {"einstein": report.einstein, "csc": True}
    _dump_json(obj, args.out)
    return EXIT_OK


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
    p.set_defaults(fn=_cmd_eval)

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
    p.set_defaults(fn=_cmd_kerr)

    p = sub.add_parser("examples", help="named example registry")
    common(p, spec=False)
    p.add_argument("name", help="kerr | kerr-interior | cp2 | hirzebruch:k")
    p.add_argument("--format", default="json", choices=["json", "svg"])
    p.set_defaults(fn=_cmd_examples)

    p = sub.add_parser("gauge", help="Mobius-transport a spec file")
    common(p)
    p.add_argument("--mobius", required=True, help="a,b,c,d")
    p.set_defaults(fn=_cmd_gauge)

    p = sub.add_parser("csc-gen", help="build a CSC/Einstein spec from data")
    common(p, spec=False)
    p.add_argument("data", help="CSC data JSON file")
    p.set_defaults(fn=_cmd_csc_gen)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as err:
        print(f"internal invariant failure: {err}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
