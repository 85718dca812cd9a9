"""Numeric knobs are validated in one place (`check_cap`, `check_tol`,
`check_constant`, `check_count`): a NaN, infinite or out-of-range cap,
tolerance, constant, threshold or count raises a typed error instead of
silently changing the answer. Every real-valued knob goes through
`space.check_real`, so a bool or a string is rejected like a NaN, with
the knob's own error, and a numpy scalar is read like a Python float."""
import math

import numpy as np
import pytest

from conftest import path_field, unit_path
from slopekit import (
    CriticalSet,
    SlopeField,
    build_graph,
    cantor_approx,
    cantor_pair,
    comparison_principle,
    critical_set,
    delta_slope_profile,
    descent_path,
    determine,
    emit_figure_data,
    epsilon_audit,
    grid_critical_tol,
    local_slope,
    reconstruct,
    sample_interval,
    scale_field,
    slope_field,
    verify_strict_comparison,
)
from slopekit.cli import main
from slopekit.io import load_graph_csv
from slopekit.errors import (
    DegenerateInterval,
    FieldSpaceMismatch,
    InvalidCap,
    InvalidCount,
    InvalidDecreasingList,
    InvalidSlopeValue,
    NegativeTolerance,
    NonFiniteConstant,
    NonPositiveLength,
    NonPositiveScale,
    OutOfDomain,
    SlopeKitError,
    TooFewPoints,
)
from slopekit.reconstruct import SlopeData
from slopekit.slope import check_cap, check_tol

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


@pytest.mark.parametrize("tol", [math.nan, -1e-9, math.inf])
def test_caller_critical_set_rejects_tol(tol):
    # it was stored as given, and `render_crit_csv` printed `# tol=nan`
    with pytest.raises(NegativeTolerance, match="tol must be"):
        CriticalSet(unit_path(2), np.array([True, False]), tol)


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


@pytest.mark.parametrize("scale", [math.inf, math.nan])
def test_scale_field_rejects_non_finite_scale(scale):
    # inf used to pass the check and overflow in the multiply (a
    # RuntimeWarning, which fails the suite) before the field check.
    space = unit_path(3)
    with pytest.raises(NonPositiveScale, match="finite"):
        scale_field(path_field(space, [0.0, 1.0, 2.0]), scale)


@pytest.mark.parametrize("epsilons", [[math.inf], [math.inf, 0.5]])
def test_epsilon_audit_rejects_non_finite_epsilon(epsilons):
    space = unit_path(3)
    f = path_field(space, [0.0, 1.0, 2.0])
    with pytest.raises(InvalidDecreasingList, match="epsilons must be finite"):
        epsilon_audit(space, f, path_field(space, [0.0, 0.5, 1.0]), epsilons)


def test_valid_knobs_still_pass():
    space = unit_path(3)
    f = path_field(space, [0.0, 1.0, 2.0])
    report = determine(space, f, f, tol_slope=0.0, tol_crit=0.0,
                       tol_residual=0.0, cap=1.0)
    assert report.verdict.kind == "EqualUpToConstant"
    assert np.array_equal(slope_field(space, f, cap=1.0).values,
                          [0.0, 1.0, 1.0])


@pytest.mark.parametrize("n", [10.7, math.nan, math.inf, "10", None, True])
def test_sample_interval_rejects_non_integer_count(n):
    # 10.7 used to build 10 points
    with pytest.raises(InvalidCount):
        sample_interval(0.0, 1.0, n)


@pytest.mark.parametrize("n", [10.7, math.nan, math.inf, "3", True, np.True_])
def test_build_graph_rejects_non_integer_count(tmp_path, n):
    # 10.7 used to build 10 points and "3" 3; nan raised a bare ValueError,
    # inf an OverflowError and True a DanglingEndpoint
    graph = tmp_path / "graph.csv"
    graph.write_text("u,v,length\n0,1,1.0\n")
    with pytest.raises(InvalidCount, match="n must be an integer"):
        build_graph([(0, 1, 1.0)], n=n)
    with pytest.raises(InvalidCount, match="n must be an integer"):
        load_graph_csv(graph, n=n)


@pytest.mark.parametrize("n", [0, -1])
def test_build_graph_count_below_one_is_too_few_points(n):
    with pytest.raises(TooFewPoints):
        build_graph([], n=n)


def test_build_graph_accepts_integral_counts():
    # integers of any int type; 3.0 is not a count
    for n in (3, np.int64(3), np.int8(3), np.uint64(3)):
        assert build_graph([(0, 1, 1.0)], n=n).n == 3


def test_sample_interval_accepts_integral_counts():
    for n in (10, np.int64(10), np.uint16(10)):
        assert sample_interval(0.0, 1.0, n).n == 10


@pytest.mark.parametrize("a,b", [("0", True), (0.0, True), (np.False_, 1.0),
                                 ("0", 1.0), (0.0, b"1")])
def test_sample_interval_rejects_bool_and_string_endpoints(a, b):
    # ("0", True) used to sample 0, 0.5, 1
    with pytest.raises(DegenerateInterval) as info:
        sample_interval(a, b, 3)
    assert str(info.value) == f"need numbers a < b, got a={a!r}, b={b!r}"


def test_sample_interval_takes_numpy_and_int_endpoints():
    for a, b in ((0, 1), (np.int64(0), np.float32(1.0)), (np.float64(0.0), 1)):
        assert sample_interval(a, b, 3).coordinates.tolist() == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("t,message", [
    (math.nan, "t must be a finite number, got nan"),
    (-math.inf, "t must be a finite number, got -inf"),
    (1.5, "t=1.5 outside [0, 1]"),
])
def test_cantor_argument_messages(t, message):
    with pytest.raises(OutOfDomain) as info:
        cantor_approx(2, t)
    assert str(info.value) == message


@pytest.mark.parametrize("edges", [
    [(0, 1, True)],                        # numpy reads a bool as 0 or 1
    [(0, 1, 1.0), (1, 2, np.True_)],
    [(0, 1, 1.0), (np.uint64(1), 2, False)],   # beside a uint64 endpoint
])
def test_build_graph_rejects_bool_lengths(edges):
    # (0, 1, True) used to build an edge of length 1.0
    with pytest.raises(NonPositiveLength) as info:
        build_graph(edges)
    assert str(info.value) == \
        f"edge {edges[-1]!r}: length {edges[-1][2]!r} is not a number"


@pytest.mark.parametrize("edges", [
    [(0, 1, "0.5")],
    [(0, 1, 1.0), (1, 2, "0.5"), (2, 3, 2.0)],   # a string among floats
    [(0, 1, 1.0), (1, 2, b"2")],
    [(np.uint64(0), 1, "1e0")],                  # the endpoints pass, the length not
])
def test_build_graph_rejects_string_lengths(edges):
    # (0, 1, "0.5") used to build an edge of length 0.5
    bad = next(e for e in edges if isinstance(e[2], (str, bytes)))
    with pytest.raises(NonPositiveLength) as info:
        build_graph(edges)
    assert str(info.value) == f"edge {bad!r}: length {bad[2]!r} is not a number"


@pytest.mark.parametrize("level", [2.9, math.nan, math.inf, True])
def test_cantor_rejects_non_integer_level(level):
    # 2.9 used to run level 2
    with pytest.raises(InvalidCount):
        cantor_approx(level, 0.5)
    with pytest.raises(InvalidCount):
        cantor_pair(level)
    with pytest.raises(InvalidCount):
        emit_figure_data("fig3", level=level)


def test_gallery_rejects_non_integer_size():
    # 10.7 used to sample 10 points
    with pytest.raises(InvalidCount):
        emit_figure_data("fig1", n=10.7)


@pytest.mark.parametrize("max_steps", [math.nan, 1.5, -1, math.inf, True])
def test_descent_path_rejects_step_budget(max_steps):
    # nan used to never stop on the budget, -1 to raise StepLimitExceeded
    space = unit_path(3)
    f = path_field(space, [2.0, 1.0, 0.0])
    crit = critical_set(slope_field(space, f))
    with pytest.raises(InvalidCount):
        descent_path(space, f, path_field(space, [0.0] * 3), 0, crit,
                     max_steps=max_steps)


@pytest.mark.parametrize("h,lipschitz", [(math.nan, 1.0), (-1.0, 1.0), (math.inf, 1.0),
                                         (1.0, -1.0), (-1.0, -1.0), (1e308, 10.0)])
def test_grid_critical_tol_rejects_bad_spacing(h, lipschitz):
    # nan used to give nan, -1.0 to give -2.0
    with pytest.raises(NegativeTolerance):
        grid_critical_tol(h, lipschitz)


@pytest.mark.parametrize("cap", BAD_CAPS)
def test_slope_field_constructor_rejects_cap(cap):
    space = unit_path(3)
    with pytest.raises(InvalidCap):
        SlopeField(space, np.zeros(3), np.zeros(3, dtype=bool), cap=cap)


@pytest.mark.parametrize("entry", [-1.0, math.nan, math.inf, -math.inf])
def test_slope_field_constructor_rejects_unflagged_entry(entry):
    # used to raise a bare ValueError
    space = unit_path(3)
    with pytest.raises(InvalidSlopeValue, match="at point 1"):
        SlopeField(space, np.array([0.0, entry, 1.0]), np.zeros(3, dtype=bool))
    flagged = SlopeField(space, np.array([0.0, entry, 1.0]), [False, True, False])
    assert flagged.values[1] == math.inf


# Each real-valued knob: the error it raises, its name in the message,
# and a call that passes v as its value.
REAL_KNOBS = {
    "slope_field-cap": (InvalidCap, "cap", lambda s, f, v: slope_field(s, f, cap=v)),
    "determine-cap": (InvalidCap, "cap", lambda s, f, v: determine(s, f, f, cap=v)),
    "determine-tol_slope": (NegativeTolerance, "tol_slope",
                            lambda s, f, v: determine(s, f, f, tol_slope=v)),
    "determine-tol_crit": (NegativeTolerance, "tol_crit",
                           lambda s, f, v: determine(s, f, f, tol_crit=v)),
    "determine-tol_residual": (NegativeTolerance, "tol_residual",
                               lambda s, f, v: determine(s, f, f, tol_residual=v)),
    "critical_set-tol": (NegativeTolerance, "tol",
                         lambda s, f, v: critical_set(slope_field(s, f), v)),
    "grid_critical_tol-h": (NegativeTolerance, "h", lambda s, f, v: grid_critical_tol(v)),
    "comparison_principle-c": (NonFiniteConstant, "c",
                               lambda s, f, v: comparison_principle(s, f, f, v)),
    "comparison_principle-tol": (
        NegativeTolerance, "tol", lambda s, f, v: comparison_principle(s, f, f, 0.0, tol=v)),
    # crit_tol used to be named "tol" in the message
    "comparison_principle-crit_tol": (
        NegativeTolerance, "crit_tol",
        lambda s, f, v: comparison_principle(s, f, f, 0.0, crit_tol=v)),
    "comparison_principle-cap": (
        InvalidCap, "cap", lambda s, f, v: comparison_principle(s, f, f, 0.0, cap=v)),
    "epsilon_audit-epsilons": (InvalidDecreasingList, "epsilons",
                               lambda s, f, v: epsilon_audit(s, f, f, [v, 0.25])),
    "epsilon_audit-c": (NonFiniteConstant, "c",
                        lambda s, f, v: epsilon_audit(s, f, f, [0.5], c=v)),
    "epsilon_audit-tol": (NegativeTolerance, "tol",
                          lambda s, f, v: epsilon_audit(s, f, f, [0.5], tol=v)),
    "epsilon_audit-crit_tol": (NegativeTolerance, "crit_tol",
                               lambda s, f, v: epsilon_audit(s, f, f, [0.5], crit_tol=v)),
    "epsilon_audit-cap": (InvalidCap, "cap",
                          lambda s, f, v: epsilon_audit(s, f, f, [0.5], cap=v)),
    "verify_strict_comparison-cap": (
        InvalidCap, "cap", lambda s, f, v: verify_strict_comparison(
            s, f, f, critical_set(slope_field(s, f)), cap=v)),
    "reconstruct-tol": (NegativeTolerance, "tol", lambda s, f, v: reconstruct(
        s, SlopeData(slope_field(s, f), {0: 0.0, 2: 1.0}), tol=v)),
    "delta_slope_profile-radii": (InvalidDecreasingList, "radii",
                                  lambda s, f, v: delta_slope_profile(s, f, 2, [v])),
    "scale_field-scale": (NonPositiveScale, "scale", lambda s, f, v: scale_field(f, v)),
    # True and "0.5" used to read as 1.0 and 0.5
    "cantor_approx-t": (OutOfDomain, "t", lambda s, f, v: cantor_approx(2, v)),
}
knobs = pytest.mark.parametrize("error,name,call", REAL_KNOBS.values(), ids=REAL_KNOBS)


@pytest.mark.parametrize("value", [True, np.True_, "0.5", "7"])
@knobs
def test_real_knobs_reject_bools_and_strings(value, error, name, call):
    # True used to run as 1.0 and "0.5" as 0.5, with no error
    space = unit_path(3)
    f = path_field(space, [0.0, 1.0, 1.0])
    with pytest.raises(error) as info:
        call(space, f, value)
    assert str(info.value).startswith(f"{name} must be ")
    assert str(info.value).endswith(f", got {value!r}")


@pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), np.int64(2), 2])
@knobs
def test_real_knobs_take_ints_and_numpy_scalars(value, error, name, call):
    space = unit_path(3)
    f = path_field(space, [0.0, 1.0, 1.0])
    try:
        call(space, f, value)
    except SlopeKitError as exc:
        # a valid value may still fail a later check, never this knob's own
        assert not str(exc).startswith(f"{name} must be ")


@pytest.mark.parametrize("value", [10**400, -10**400], ids=["big", "minus-big"])
@knobs
def test_real_knobs_reject_ints_beyond_the_float_range(value, error, name, call):
    # used to raise a bare OverflowError; the message reads the int as inf
    space = unit_path(3)
    f = path_field(space, [0.0, 1.0, 1.0])
    with pytest.raises(error) as info:
        call(space, f, value)
    assert str(info.value).startswith(f"{name} must be ")
    assert str(info.value).endswith(", got inf" if value > 0 else ", got -inf")


def test_comparison_calls_check_their_arguments_in_one_order():
    # After their own knobs (the epsilons, then c), both calls check the
    # binding of f and g, then tol, crit_tol and cap; comparison_principle
    # used to check cap before crit_tol, and epsilon_audit tol before c.
    space = unit_path(3)
    f = path_field(space, [0.0, 1.0, 1.0])
    foreign = path_field(unit_path(3), f.values)
    for call in (lambda g, **kw: comparison_principle(space, f, g, 0.0, **kw),
                 lambda g, **kw: epsilon_audit(space, f, g, [0.5], **kw)):
        knobs = dict(tol=math.nan, crit_tol=math.nan, cap=math.nan)
        with pytest.raises(FieldSpaceMismatch):
            call(foreign, **knobs)
        for name in list(knobs):
            with pytest.raises(SlopeKitError) as info:
                call(f, **knobs)
            assert str(info.value).startswith(f"{name} must be ")
            del knobs[name]
        call(f)
    with pytest.raises(InvalidDecreasingList):
        epsilon_audit(space, f, foreign, [0.5, 0.5], c=math.nan)
    with pytest.raises(NonFiniteConstant):
        epsilon_audit(space, f, foreign, [0.5], c=math.nan)
    with pytest.raises(NonFiniteConstant):
        comparison_principle(space, f, foreign, math.nan)


def test_real_knob_messages_give_the_float_value():
    for value in (np.float64("nan"), np.float32("nan"), math.nan):
        with pytest.raises(InvalidCap) as info:
            check_cap(value)
        assert str(info.value) == "cap must be a finite number > 0, got nan"
    with pytest.raises(NegativeTolerance) as info:
        check_tol(np.int64(-1), "tol_crit")
    assert str(info.value) == "tol_crit must be a finite number >= 0, got -1.0"
    assert type(check_cap(np.int64(7))) is float and check_cap(np.int64(7)) == 7.0


@pytest.mark.parametrize("cap,message", [
    ("abc", "could not convert string to float: 'abc'"),
    ("nan", "cap must be a finite number > 0, got nan"),
    ("True", "could not convert string to float: 'True'"),
])
def test_cli_cap_usage_errors(tmp_path, capsys, cap, message):
    graph = tmp_path / "graph.csv"
    graph.write_text("u,v,length\n0,1,1.0\n")
    field = tmp_path / "f.csv"
    field.write_text("point,value\n0,1.0\n1,0.0\n")
    with pytest.raises(SystemExit) as info:
        main(["slope", "--space", str(graph), "--f", str(field), "--cap", cap])
    assert info.value.code == 64
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"slopekit slope: error: argument --cap: {message}"
