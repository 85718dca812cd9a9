"""Slope calculus on finite metric spaces.

Compute discrete slopes of scalar fields on weighted graphs and sampled
intervals, extract critical sets, run strictly decreasing descent
paths, decide whether two fields agree up to an additive constant from
their slopes and critical values, and reconstruct a field from its
slope field plus prescribed critical values.

`import slopekit` loads no module of the package (and no numpy): each
module loads the first time one of its names is read (PEP 562).
"""
import importlib
import sys
import types

__version__ = "0.1.0"

# Each public name with the module that defines it.
_MODULE_OF = {name: module for module, names in (
    ("space", ("PointId", "MetricSpaceGraph", "build_graph", "sample_interval",
               "neighbors", "distances_from", "is_connected")),
    ("slope", ("ScalarField", "SlopeField", "DeltaProfileEntry", "OVERFLOW_CAP",
               "local_slope", "slope_field", "scale_field", "delta_slope_profile")),
    ("critical", ("CriticalSet", "NoCriticalBelow", "NO_CRITICAL_BELOW",
                  "critical_set", "comparison_floor", "grid_critical_tol")),
    ("descent", ("DescentPath", "NoStep", "StrictComparisonReport",
                 "descent_step", "descent_path", "verify_strict_comparison")),
    ("determination", ("HypothesisDiagnostics", "DeterminationReport", "Verdict",
                       "Witness", "ComparisonResult", "EpsilonAudit",
                       "comparison_principle", "epsilon_audit", "determine")),
    ("reconstruct", ("SlopeData", "Inadmissible", "SlopeMismatch", "reconstruct")),
    ("gallery", ("AnalyticFunction1D", "arctan_pair", "square_sine_pair",
                 "cantor_approx", "cantor_pair", "emit_figure_data")),
) for name in names}

# Modules that read as attributes of the package without an import of
# their own, as when the package loaded them all. `reconstruct` is in
# _MODULE_OF as well, and there it is the function.
_SUBMODULES = {"errors", *_MODULE_OF.values()}

__all__ = ["errors", *_MODULE_OF]


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The package's module type. The import system binds each submodule
    to its package on first load; the `slopekit.reconstruct` module must
    not replace the `reconstruct` function, so that binding is dropped."""

    def __setattr__(self, name, value):
        if name == "reconstruct" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
