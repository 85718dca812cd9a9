"""Numeric knobs are validated in one place (`check_cap`, `check_tol`,
`check_constant`): a NaN, infinite or out-of-range cap, tolerance or
comparison constant raises a typed error instead of silently changing
the answer."""
import math

import numpy as np
import pytest

from conftest import path_field, unit_path
from slopekit import (
    comparison_principle,
    critical_set,
    determine,
    epsilon_audit,
    local_slope,
    reconstruct,
    slope_field,
)
from slopekit.cli import main
from slopekit.errors import InvalidCap, NegativeTolerance, NonFiniteConstant
from slopekit.reconstruct import SlopeData

BAD_CAPS = [math.nan, 0.0, -1.0, math.inf]


@pytest.fixture
def steep_path():
    """The 3-point path with f = (0, 1, 1e300): the slope at point 2 is
    1e300, above the default cap."""
    space = unit_path(3)
    return space, path_field(space, [0.0, 1.0, 1e300])


@pytest.mark.parametrize("cap", BAD_CAPS)
def test_slope_field_rejects_cap(steep_path, cap):
    space, f = steep_path
    with pytest.raises(InvalidCap):
        slope_field(space, f, cap=cap)


@pytest.mark.parametrize("cap", BAD_CAPS)
def test_local_slope_rejects_cap(steep_path, cap):
    space, f = steep_path
    with pytest.raises(InvalidCap):
        local_slope(space, f, 2, cap=cap)


def test_default_cap_marks_the_steep_point_infinite(steep_path):
    space, f = steep_path
    assert slope_field(space, f).infinite.tolist() == [False, False, True]


@pytest.mark.parametrize("cap", ["nan", "0", "-1", "inf"])
def test_cli_rejects_cap_as_usage_error(tmp_path, capsys, cap):
    graph = tmp_path / "graph.csv"
    graph.write_text("u,v,length\n0,1,1.0\n")
    field = tmp_path / "f.csv"
    field.write_text("point,value\n0,1.0\n1,0.0\n")
    with pytest.raises(SystemExit) as info:
        main(["slope", "--space", str(graph), "--f", str(field),
              "--cap", cap])
    assert info.value.code == 64
    assert "--cap" in capsys.readouterr().err


def test_critical_set_rejects_nan_tol(steep_path):
    space, f = steep_path
    with pytest.raises(NegativeTolerance):
        critical_set(slope_field(space, f), tol=math.nan)


def test_determine_rejects_nan_tol_crit(steep_path):
    space, _ = steep_path
    f = path_field(space, [0.0, 1.0, 2.0])
    with pytest.raises(NegativeTolerance):
        determine(space, f, f, tol_crit=math.nan)


@pytest.mark.parametrize("tol_residual", [math.nan, -1e-9])
def test_determine_rejects_tol_residual(tol_residual):
    space = unit_path(3)
    f = path_field(space, [0.0, 1.0, 2.0])
    with pytest.raises(NegativeTolerance):
        determine(space, f, f, tol_residual=tol_residual)


def test_determine_rejects_nan_tol_slope():
    space = unit_path(3)
    f = path_field(space, [0.0, 1.0, 2.0])
    with pytest.raises(NegativeTolerance):
        determine(space, f, f, tol_slope=math.nan)


def test_reconstruct_rejects_nan_tol():
    space = unit_path(3)
    f = path_field(space, [0.0, 1.0, 2.0])
    data = SlopeData(slope_field(space, f), {0: 0.0})
    with pytest.raises(NegativeTolerance):
        reconstruct(space, data, tol=math.nan)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_comparison_principle_rejects_constant(c):
    # c = inf used to report holds=True, c = nan holds=False with a NaN margin.
    space = unit_path(3)
    f = path_field(space, [0.0, 1.0, 2.0])
    with pytest.raises(NonFiniteConstant):
        comparison_principle(space, f, path_field(space, [0.0, 0.5, 1.0]), c=c)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_epsilon_audit_rejects_constant(c):
    # c = nan used to report bound_holds=True with worst_point=None.
    space = unit_path(3)
    f = path_field(space, [0.0, 1.0, 2.0])
    with pytest.raises(NonFiniteConstant):
        epsilon_audit(space, f, path_field(space, [0.0, 0.5, 1.0]), [0.5], c=c)


def test_valid_knobs_still_pass():
    space = unit_path(3)
    f = path_field(space, [0.0, 1.0, 2.0])
    report = determine(space, f, f, tol_slope=0.0, tol_crit=0.0,
                       tol_residual=0.0, cap=1.0)
    assert report.verdict.kind == "EqualUpToConstant"
    assert np.array_equal(slope_field(space, f, cap=1.0).values,
                          [0.0, 1.0, 1.0])
