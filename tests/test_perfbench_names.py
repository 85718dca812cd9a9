"""The names that the benchmark under perfbench/ reads from slopekit:
every (module, function) that its tracer wraps resolves, and the
critical-set views, the floor marker and the SlopeField keyword that
its workloads and checks use still work."""
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from conftest import path_field, unit_path
from slopekit import (
    NO_CRITICAL_BELOW,
    CriticalSet,
    SlopeField,
    comparison_floor,
    critical_set,
    slope_field,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, name in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"slopekit.{module}"), name)), \
            f"slopekit.{module}.{name}"


def test_workload_views_and_keywords():
    space = unit_path(3)
    f = path_field(space, [2.0, 1.0, 0.0])
    sf = slope_field(space, f)
    crit = critical_set(sf)
    assert crit.members == frozenset({2}) and crit.sorted_members() == (2,)
    above = CriticalSet(space, np.array([True, False, False]), 0.0)
    assert type(NO_CRITICAL_BELOW).__name__ == "NoCriticalBelow"
    assert comparison_floor(space, f, f, 2, above) is NO_CRITICAL_BELOW
    copy = SlopeField(space, sf.values.copy(), sf.infinite.copy(),
                      provenance=sf.provenance, cap=sf.cap)
    assert copy.provenance == "exact-graph"
    assert np.array_equal(copy.values, sf.values) and copy.cap == sf.cap
