"""Slope calculus on finite metric spaces.

Compute discrete slopes of scalar fields on weighted graphs and sampled
intervals, extract critical sets, run strictly decreasing descent
paths, decide whether two fields agree up to an additive constant from
their slopes and critical values, and reconstruct a field from its
slope field plus prescribed critical values.
"""
from . import errors
from .critical import (
    NO_CRITICAL_BELOW,
    CriticalSet,
    NoCriticalBelow,
    comparison_floor,
    critical_set,
    grid_critical_tol,
)
from .descent import (
    DescentPath,
    NoStep,
    StrictComparisonReport,
    descent_path,
    descent_step,
    verify_strict_comparison,
)
from .determination import (
    ComparisonResult,
    DeterminationReport,
    EpsilonAudit,
    HypothesisDiagnostics,
    Verdict,
    Witness,
    comparison_principle,
    determine,
    epsilon_audit,
)
from .gallery import (
    AnalyticFunction1D,
    arctan_pair,
    cantor_approx,
    cantor_pair,
    emit_figure_data,
    square_sine_pair,
)
from .reconstruct import (
    Inadmissible,
    SlopeData,
    SlopeMismatch,
    reconstruct,
)
from .slope import (
    OVERFLOW_CAP,
    DeltaProfileEntry,
    ScalarField,
    SlopeField,
    delta_slope_profile,
    local_slope,
    scale_field,
    slope_field,
)
from .space import (
    MetricSpaceGraph,
    PointId,
    build_graph,
    distances_from,
    is_connected,
    metric_distances,
    neighbors,
    sample_interval,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "PointId", "MetricSpaceGraph",
    "build_graph", "sample_interval", "neighbors", "distances_from",
    "metric_distances", "is_connected",
    "ScalarField", "SlopeField", "DeltaProfileEntry", "OVERFLOW_CAP",
    "local_slope", "slope_field", "scale_field", "delta_slope_profile",
    "CriticalSet", "NoCriticalBelow", "NO_CRITICAL_BELOW",
    "critical_set", "comparison_floor", "grid_critical_tol",
    "DescentPath", "NoStep", "StrictComparisonReport",
    "descent_step", "descent_path", "verify_strict_comparison",
    "HypothesisDiagnostics", "DeterminationReport", "Verdict", "Witness",
    "ComparisonResult", "EpsilonAudit",
    "comparison_principle", "epsilon_audit", "determine",
    "SlopeData", "Inadmissible", "SlopeMismatch", "reconstruct",
    "AnalyticFunction1D", "arctan_pair", "square_sine_pair",
    "cantor_approx", "cantor_pair", "emit_figure_data",
]
