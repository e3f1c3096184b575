"""Per-layer tracing from outside the program.

`install()` replaces each layer function of `ambitoric` by a wrapper, under
every name a caller looks it up by (the package, each submodule that
imported it, and the class for methods).  A timed layer records a span
(name, start, end, parent span, op); a counted layer bumps a counter.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import re
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

#: (metric prefix, module, attribute, timed?, counted?)
LAYERS = [
    ("ansatz.validate", "ambitoric.ansatz", "validate", True, True),
    ("ansatz.sample_points", "ambitoric.ansatz", "BoxComponent.sample_points", True, False),
    ("quadratics.polarize", "ambitoric.quadratics", "Quadratic.polarize", False, True),
    ("boundary.decompose_boundary", "ambitoric.boundary", "decompose_boundary", True, False),
    ("boundary.edge_status", "ambitoric.boundary", "edge_status", True, False),
    ("boundary.fold_status", "ambitoric.boundary", "fold_status", True, False),
    ("boundary.estimate_r", "ambitoric.boundary", "estimate_r", True, True),
    ("classify.completability_verdict", "ambitoric.classify", "completability_verdict", True, False),
    ("classify.classify", "ambitoric.classify", "classify", False, False),
    ("moment.fold_conic", "ambitoric.moment", "fold_conic", True, True),
    ("moment.level_set_line", "ambitoric.moment", "level_set_line", True, False),
    ("moment.identify_t", "ambitoric.moment", "identify_t", True, False),
    ("moment.moment_map", "ambitoric.moment", "moment_map", True, False),
    ("moment.convexity_check", "ambitoric.moment", "convexity_check", True, False),
    ("tensors.curvature", "ambitoric.tensors", "curvature", True, False),
    ("tensors.metric_components", "ambitoric.tensors", "metric_components", False, True),
    ("tensors.eval_field", "ambitoric.tensors", "eval_field", True, False),
    ("cli.validate", "ambitoric.cli", "_cmd_validate", True, False),
    ("cli.classify", "ambitoric.cli", "_cmd_classify", True, False),
    ("cli.check", "ambitoric.cli", "_cmd_check", True, False),
    ("cli.moment", "ambitoric.cli", "_cmd_moment", True, False),
]

#: per-layer metrics in report order: (name, unit)
METRICS = ([("import.package_s", "s"), ("import.deferred_s", "s")]
           + [(p + "_s", "s") for p, _, _, timed, _ in LAYERS if timed and p.startswith("cli.")]
           + [(p + "_s", "s") for p, _, _, timed, _ in LAYERS if timed and not p.startswith("cli.")]
           + [(p + "_calls", "count") for p, _, _, _, counted in LAYERS if counted]
           + [("classify.components", "count")])

DEFERRED_IMPORTS = ("sympy", "scipy.spatial")


class Recorder:
    def __init__(self):
        self.spans: List[list] = []       # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.components: List[int] = []
        self.stack: List[int] = []
        self.op = -1

    def timed(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def classify_counter(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.components.append(len(out))
            return out
        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "components": self.components}


def install(rec: Recorder) -> None:
    """Wrap every layer function of the already imported package."""
    mods = [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "ambitoric" or n.startswith("ambitoric."))]
    for prefix, modname, attr, timed, counted in LAYERS:
        owner = sys.modules.get(modname)
        if owner is None:           # e.g. the CLI module outside cli-cold
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner, attr = getattr(owner, cls_name), meth
        fn = getattr(owner, attr)
        new = fn
        if counted:
            new = rec.counted(prefix, new)
        if timed:
            new = rec.timed(prefix, new)
        if prefix == "classify.classify":
            new = rec.classify_counter(new)
        if isinstance(owner, type):
            setattr(owner, attr, new)
            continue
        for m in mods:
            for name, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, name, new)


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)\s*$")


def import_times(stderr: str) -> Tuple[Optional[float], Optional[float]]:
    """(package, deferred) cumulative import seconds from `-X importtime`
    output: the `ambitoric` package, and the sum of the lazily imported
    modules the run pulled in (None when absent)."""
    best: Dict[str, Tuple[int, int]] = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        depth, name = len(m.group(3)), m.group(4)
        if name == "ambitoric" or name in DEFERRED_IMPORTS:
            if name not in best or depth < best[name][0]:
                best[name] = (depth, int(m.group(2)))
    pkg = best["ambitoric"][1] * 1e-6 if "ambitoric" in best else None
    deferred = [best[n][1] for n in DEFERRED_IMPORTS if n in best]
    return pkg, (sum(deferred) * 1e-6 if deferred else None)


def layer_metrics(spans: List[list], counts: Counter, components: List[int],
                  factors: Dict[int, float], n_ops: int,
                  imports: List[Tuple[Optional[float], Optional[float]]]) -> Dict[str, float]:
    """Per-layer metrics: medians of calibrated span seconds, counts per op.
    A layer the workload never enters reads 0."""
    from statistics import median
    per: Dict[str, List[float]] = {}
    for name, t0, t1, _parent, op in spans:
        per.setdefault(name, []).append((t1 - t0) * factors[op])
    out: Dict[str, float] = {}
    pk = [p for p, _ in imports if p is not None]
    de = [d for _, d in imports if d is not None]
    out["import.package_s"] = median(pk) if pk else 0.0
    out["import.deferred_s"] = median(de) if de else 0.0
    for metric, _unit in METRICS:
        if metric in out or metric == "classify.components":
            continue
        if metric.endswith("_calls"):
            out[metric] = counts.get(metric[: -len("_calls")], 0) / n_ops
        else:
            vals = per.get(metric[: -len("_s")])
            out[metric] = median(vals) if vals else 0.0
    out["classify.components"] = (sum(components) / len(components)
                                  if components else 0.0)
    return out
