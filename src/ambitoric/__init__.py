"""Ambitoric ansatz geometry.

Exact rational core (quadratics, Mobius gauge, ansatz validation), numeric
tensor evaluation and curvature, moment maps with their fold conics,
boundary distance analysis, and completability classification.

Every public name is imported on first access (PEP 562): `import ambitoric`
loads no submodule, and a name loads only the module that defines it and
that module's own imports.  So `validate` needs only `quadratics` and
`ansatz`.  numpy loads only when a `CurvaturePack`'s `riemann` or
`ricci` is read, or when `convexity_check` runs.
`classify` is both a submodule and a function; the package keeps the name
for the function in every import order.
"""

import importlib
import sys
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "quadratics": "OO Poly Quadratic conic_type inner rat transvectant2",
    "ansatz": "FIELDS AnsatzSpec BoxComponent Interval MetricChoice METRIC_G0 "
              "METRIC_GPLUS METRIC_GMINUS ValidationError conformal_factor "
              "metric_gp validate",
    "gauge": "Mobius mobius_transport",
    "moment": "Conic LineInTstar MomentError MomentPoint convexity_check "
              "delzant_check fold_conic identify_t level_set_line moment_map",
    "boundary": "DistanceStatus corner_status "
                "decompose_boundary edge_status estimate_r fold_status",
    "classify": "Verdict classify completability_verdict",
    "special": "CSCData KerrParams csc_construct kerr scalar_closed_form "
               "standard_polygon",
    "tensors": "FramePoint curvature eval_field",
}
#: public name -> the submodule that defines it
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import the module of a public name on its first access."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # importing a submodule binds it on the package; a public name
        # (`classify`) keeps its value
        if not (name in _MODULE_OF and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
