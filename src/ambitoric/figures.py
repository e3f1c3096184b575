"""Output of `ambitoric moment`, and the figures of `ambitoric examples`.

`run_moment` samples the moment image of every cell, prints the fold conic
and the exact image of every box edge (`_line_json`), and writes the
samples as CSV and the image as SVG.  The SVG code (`_Viewport`, conic
tracing, `_svg_document`) also draws the standard polygons of `examples
--format svg`.  Every number in an SVG is written at a fixed precision, so
the files are byte-stable.  Only `moment` and `examples --format svg` load
this module.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from .quadratics import OO
from .ansatz import quoted, validate
from .cli import EXIT_OK, MAX_GRID, _dump_json, _load_spec


def run_moment(args) -> int:
    """`ambitoric moment`: samples, conic and edge images of one spec."""
    from .moment import MomentError, fold_conic, level_set_line, moment_map

    if not 1 <= args.grid <= MAX_GRID:
        bound = "at least 1" if args.grid < 1 else f"at most {MAX_GRID}"
        raise ValueError(f"--grid must be {bound}, got {quoted(str(args.grid))}")
    spec = _load_spec(args.spec)
    sign = args.sign
    rows: List[Tuple[float, float, float, float]] = []
    for comp in validate(spec):
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
                fh.write("%.12g,%.12g,%.12g,%.12g\n" % r)
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
        for br in _conic_polylines(conic.matrix, box):
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
        tail = f'" r="{r:.1f}" fill="{color}"/>'
        return "\n".join(f'<circle cx="{u:.3f}" cy="{v:.3f}{tail}' for u, v in map(self.map, pts))


def _conic_polylines(matrix, box) -> List[List[Tuple[float, float]]]:
    """Trace the conic {v^T Q v = 0}, Q = matrix, inside the bounding box by
    sampling mu1 and solving the per-column quadratic in mu2."""
    if matrix is None:
        return []
    Q = [[float(c) for c in row] for row in matrix]
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
