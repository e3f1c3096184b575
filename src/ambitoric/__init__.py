"""Ambitoric ansatz geometry.

Exact rational core (quadratics, Mobius gauge, ansatz validation), numeric
tensor evaluation and curvature, moment maps with their fold conics,
boundary distance analysis, and completability classification.

Only `curvature` loads numpy (and `estimate_r` and `convexity_check`, the
numeric cross-checks): the names of `tensors` are imported on first
access, and its fields are 4x4 tuples, so validation, classification,
moment maps and the Kaehler invariants run without it.
"""

from .quadratics import (
    OO,
    Mobius,
    Poly,
    Quadratic,
    conic_type,
    inner,
    rat,
    transvectant2,
)
from .ansatz import (
    FIELDS,
    AnsatzSpec,
    BoxComponent,
    Interval,
    MetricChoice,
    METRIC_G0,
    METRIC_GPLUS,
    METRIC_GMINUS,
    ValidationError,
    conformal_factor,
    metric_gp,
    mobius_transport,
    validate,
)
from .moment import (
    Conic,
    LineInTstar,
    MomentError,
    MomentPoint,
    Polygon,
    convexity_check,
    delzant_check,
    fold_conic,
    identify_t,
    level_set_line,
    moment_map,
    p_image_line,
)
from .boundary import (
    DistanceStatus,
    compatible_quadratic,
    corner_status,
    decompose_boundary,
    edge_status,
    estimate_r,
    fold_status,
)
from .classify import (
    Verdict,
    classify,
    complete_orbifold_check,
    completability_verdict,
)
from .special import (
    CSCData,
    KerrParams,
    csc_construct,
    kerr,
    scalar_closed_form,
    standard_polygon,
)

__version__ = "0.1.0"

_TENSORS = ("FramePoint", "curvature", "eval_field")


def __getattr__(name):
    """Import `tensors` on first access to one of its names."""
    if name not in _TENSORS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import tensors
    value = globals()[name] = getattr(tensors, name)
    return value
