"""The subcommands that build or read single objects: `eval`, `kerr`,
`examples`, `gauge` and `csc-gen`.

`cli` looks each handler up here by name when its subcommand runs, so
`validate`, `classify`, `check` and `moment` never load this module.  A
handler imports what it runs inside its body: `examples` loads `special`
and not `tensors`, `gauge` or `moment`, and `figures` only for `--format svg`.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

from .quadratics import Poly, Quadratic, rat
from .ansatz import (
    FIELDS,
    Interval,
    SingularEvaluation,
    ValidationError,
    _as_lattice,
    conformal_factor,
    json_field,
    json_list,
    quoted,
)
from .cli import EXIT_OK, _dump_json, _load_spec


def _numbers(flag: str, text: str, count: int = 1) -> list:
    """The `count` comma-separated rational numbers of a flag; a malformed
    one, "1/0" included, or a wrong count is an input error naming the flag."""
    values = text.split(",")
    try:
        if len(values) == count:
            return [rat(v) for v in values]
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"{flag} needs {count} rational number{'s' * (count > 1)}, got {quoted(text)}")


def run_eval(args) -> int:
    from .tensors import FramePoint, eval_field

    try:
        x, y = (float(v) for v in args.at.split(","))
    except ValueError:
        x = y = math.nan
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"--at needs two finite coordinates x,y, got {quoted(args.at)}")
    spec = _load_spec(args.spec)
    fields = [args.field] if args.field else list(FIELDS)
    try:
        out = {"x": x, "y": y, "f": float(conformal_factor(spec, x, y))}
        for f in fields:
            if f == "gp" and spec.metric.tag != "gp":
                continue
            out[f] = [[float(v) for v in row] for row in eval_field(spec, f, FramePoint(x, y))]
    except SingularEvaluation as err:
        raise ValueError(f"--at={args.at}: {err}") from None
    _dump_json(out, args.out)
    return EXIT_OK


def run_kerr(args) -> int:
    from .special import EXTERIOR, INTERIOR, KerrParams, kerr

    params = KerrParams(*_numbers("--mass", args.mass), *_numbers("--alpha", args.alpha))
    region = EXTERIOR if args.region == "exterior" else INTERIOR
    spec = kerr(params, region)
    _dump_json(spec.to_dict(), args.out)
    return EXIT_OK


def run_examples(args) -> int:
    from .special import EXTERIOR, INTERIOR, KerrParams, kerr, standard_polygon

    name = args.name
    if name in ("kerr", "kerr-exterior", "kerr-interior"):
        region = INTERIOR if name == "kerr-interior" else EXTERIOR
        spec = kerr(KerrParams(1, Fraction(1, 2)), region)
        _dump_json(spec.to_dict(), args.out)
        return EXIT_OK
    if name == "cp2" or name.startswith("hirzebruch:"):
        vertices, normals, lattice = standard_polygon(name)
        if args.format == "svg":
            from .figures import _conic_polylines, _svg_document, _Viewport

            vp = _Viewport(list(vertices))
            ring = list(vertices) + [vertices[0]]
            body = [vp.polyline(ring, "#204a87", 2.0)]
            conic_box = ((vp.x0, vp.x1), (vp.y0, vp.y1))
            # 4 mu1 mu2 + 1 = 0, the conic the standard polygons are tangent to
            for br in _conic_polylines(((0, 2, 0), (2, 0, 0), (0, 0, 1)), conic_box):
                body.append(vp.polyline(br, "#cc0000"))
            text = _svg_document(vp.size, vp.size, body)
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return EXIT_OK
        _dump_json({"vertices": [[f"{v[0]:.12g}", f"{v[1]:.12g}"] for v in vertices],
                    "normals": [[str(n[0]), str(n[1])] for n in normals],
                    "lattice": [[str(v) for v in row] for row in lattice]}, args.out)
        return EXIT_OK
    raise ValidationError(f"unknown example {quoted(name)}")


def run_gauge(args) -> int:
    from .gauge import Mobius, mobius_transport

    spec = _load_spec(args.spec)
    spec2 = mobius_transport(spec, Mobius(*_numbers("--mobius", args.mobius, 4)))
    _dump_json(spec2.to_dict(), args.out)
    return EXIT_OK


def _quartic(coeffs) -> Poly:
    """R written as its five coefficients a0, ..., a4, ascending."""
    if len(json_list(coeffs)) != 5:
        raise ValueError(f"a quartic has 5 coefficients, not {len(coeffs)}")
    return Poly(coeffs)


def run_csc_gen(args) -> int:
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
