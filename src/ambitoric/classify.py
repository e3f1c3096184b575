"""Completability and completeness verdicts assembled from boundary data.

The four rules applied to a validated cell:

  (i)   no proper folds;
  (ii)  every ordinary edge is either infinitely distant or carries a
        compatible normal lying in the lattice;
  (iii) a fold-edge at finite distance forces the metric's scale order e-
        along {q = 0} to be 1 (g-, or gp with p not a multiple of q);
  (iv)  every finite corner satisfies the fold/P-locus admissibility rule.

The component extends to a complete ambitoric structure precisely when it
is completable and every fold-type piece (proper fold, fold-edge, fold
corner) is infinitely distant.  Verdicts are total: every rule is
evaluated and reported, nothing raises.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .quadratics import Record, proj_ints
from .ansatz import AnsatzSpec, BoxComponent, ValidationError, validate
from .boundary import (
    CORNER,
    EDGE,
    FOLD,
    INFINITELY_DISTANT,
    PLOCUS,
    BoundaryComponent,
    DistanceStatus,
    _scale_orders,
    corner_status,
    decompose_boundary,
    edge_status,
    fold_status,
)

RULE_PROPER_FOLD = "i:no-proper-folds"
RULE_EDGE_NORMAL = "ii:edge-distant-or-normal"
RULE_FOLD_EDGE = "iii:fold-edge-metric"
RULE_CORNER = "iv:corner-admissible"
RULE_INFO = "info"


class Report(Record):
    component: BoundaryComponent
    status: Optional[DistanceStatus]
    rule: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        mark = "ok" if self.ok else "VIOLATED"
        extra = f": {self.detail}" if self.detail else ""
        return f"{self.component.describe():32s} [{self.rule}] {mark}{extra}"


class Verdict(Record):
    completable: bool
    extends_ambitoric: bool
    reports: Tuple[Report, ...]

    def to_dict(self) -> dict:
        def st(s: Optional[DistanceStatus]):
            if s is None:
                return None
            d = {"verdict": s.verdict}
            if s.r_exponent is not None:
                d["r"] = s.r_exponent
            if s.compatible_normal is not None:
                n, member = s.compatible_normal
                d["normal"] = [str(n[0]), str(n[1])]
                d["normal_in_lattice"] = member
            return d

        return {
            "completable": self.completable,
            "extends_ambitoric": self.extends_ambitoric,
            "reports": [
                {
                    "component": r.component.describe(),
                    "rule": r.rule,
                    "ok": r.ok,
                    "detail": r.detail,
                    "status": st(r.status),
                }
                for r in self.reports
            ],
        }


def _is_fold_piece(c: BoundaryComponent) -> bool:
    if c.kind == FOLD:
        return True
    if c.kind == EDGE and c.is_fold_and_edge:
        return True
    if c.kind == CORNER and (c.on_positive_fold or c.on_negative_fold):
        return True
    return False


def _edge_report(spec: AnsatzSpec, c: BoundaryComponent) -> Report:
    """Rule (iii) on a fold-edge, rule (ii) on any other edge."""
    try:
        st = edge_status(spec, c)
    except ValidationError as err:
        return Report(c, None, RULE_EDGE_NORMAL, False, str(err))
    if c.is_fold_and_edge:
        ok = st.verdict == INFINITELY_DISTANT or _scale_orders(spec)[1] == 1
        detail = st.verdict if ok else f"finite fold-edge under {spec.metric.tag}"
        return Report(c, st, RULE_FOLD_EDGE, ok, detail)
    if st.verdict == INFINITELY_DISTANT:
        return Report(c, st, RULE_EDGE_NORMAL, True, st.verdict)
    n, member = st.compatible_normal
    detail = (f"normal {tuple(map(str, n))} in lattice" if member
              else "finite edge, compatible normal not in lattice")
    return Report(c, st, RULE_EDGE_NORMAL, member, detail)


def completability_verdict(spec: AnsatzSpec, comp: BoxComponent,
                           edges: Optional[dict] = None) -> Verdict:
    """Apply rules (i)-(iv) to one cell and report everything, in one pass
    over `decompose_boundary`'s pieces: its edges come before the corners
    that read their statuses.

    An edge's report depends on the spec and the edge alone.  `edges`,
    when given, holds the reports of the edges met so far under this spec,
    keyed by (axis, proj_ints(gamma)): `classify` shares one across the
    cells of a spec, so an edge that bounds two cells is decided once."""
    reports: List[Report] = []
    edge_stat = {}      # (axis, proj_ints(gamma)) -> status, for the decided edges
    if edges is None:
        edges = {}
    for c in decompose_boundary(spec, comp):
        if c.kind == EDGE:
            key = c.axis, proj_ints(c.gamma)
            r = edges.get(key)
            if r is None:
                r = edges[key] = _edge_report(spec, c)
            if r.status is not None:
                edge_stat[key] = r.status
        elif c.kind == FOLD:
            st = fold_status(spec, c)
            r = Report(c, st, RULE_PROPER_FOLD, False,
                       f"proper {c.sign} fold (r={st.r_exponent})")
        elif c.kind == PLOCUS:
            r = Report(c, fold_status(spec, c), RULE_INFO, True,
                       "P-locus infinitely distant under gp")
        else:
            gx, gy = c.corner
            adj = [edge_stat[k] for k in (("X", proj_ints(gx)), ("Y", proj_ints(gy)))
                   if k in edge_stat]
            st, ok, reason = corner_status(spec, c, adj)
            r = Report(c, st, RULE_CORNER, ok, reason)
        reports.append(r)

    completable = all(r.ok for r in reports)
    extends = completable and all(
        r.status is not None and r.status.verdict == INFINITELY_DISTANT
        for r in reports if _is_fold_piece(r.component))
    return Verdict(completable=completable, extends_ambitoric=extends,
                   reports=tuple(reports))


def classify(spec: AnsatzSpec) -> List[Tuple[BoxComponent, Verdict]]:
    """Verdicts for every cell of the spec under its own metric, each edge
    decided once."""
    edges = {}
    return [(c, completability_verdict(spec, c, edges))
            for c in validate(spec)]
