"""Point ids are integers in [0, n): a float, string or bool id raises
InvalidPoint instead of wrapping around or being dropped, also when it
indexes a field, and a
critical set built by a caller must have one mask entry per point and
be used on its own space (FieldSpaceMismatch)."""
import numpy as np
import pytest

from conftest import path_field, unit_path
from slopekit import (
    CriticalSet,
    comparison_floor,
    comparison_principle,
    delta_slope_profile,
    descent_path,
    descent_step,
    determine,
    epsilon_audit,
    local_slope,
    neighbors,
    reconstruct,
    slope_field,
    verify_strict_comparison,
)
from slopekit import io as skio
from slopekit.errors import FieldSpaceMismatch, InvalidPoint, NonFiniteFieldValue
from slopekit.reconstruct import SlopeData


@pytest.fixture
def path3():
    space = unit_path(3)
    return space, path_field(space, [2.0, 1.0, 0.0]), path_field(space, [0.0, 0.0, 0.0])


@pytest.mark.parametrize("members", [[True], [False, False], [False] * 4,
                                     [False, False, True, True], [True] * 7])
def test_caller_critical_set_outside_the_space(members):
    # a short mask used to raise a bare IndexError, a long one to pass;
    # both are rejected where the set is built
    with pytest.raises(FieldSpaceMismatch,
                       match=f"critical mask has {len(members)} entries, "
                             "space has 3 points"):
        CriticalSet(unit_path(3), np.array(members), 0.0)


def test_caller_critical_set_of_another_space(path3):
    # an equal point count used to pass: the set is bound to its space,
    # as a field is
    space, f, g = path3
    crit = CriticalSet(unit_path(3), np.array([True, False, True]), 0.0)
    for call in (lambda: comparison_floor(space, f, g, 1, crit),
                 lambda: verify_strict_comparison(space, f, g, crit),
                 lambda: skio.render_crit_csv(crit, slope_field(space, f)),
                 lambda: descent_step(space, f, g, 1, crit),
                 lambda: descent_path(space, f, g, 1, crit)):
        with pytest.raises(FieldSpaceMismatch,
                           match="critical set is bound to a different space"):
            call()
    with pytest.raises(FieldSpaceMismatch,
                       match="field is bound to a different space"):
        comparison_floor(crit.space, f, g, 1, crit)


def _crit(space):
    return CriticalSet(space, np.array([False, False, True]), 0.0)


# Every public call that takes a space and fields, as a call on
# (space, f, g); those that take g are listed with True.
FIELD_CALLS = {
    "local_slope": (lambda s, f, g: local_slope(s, f, 1), False),
    "slope_field": (lambda s, f, g: slope_field(s, f), False),
    "delta_slope_profile": (lambda s, f, g: delta_slope_profile(s, f, 1, [1.0]), False),
    "reconstruct": (lambda s, f, g: reconstruct(s, SlopeData(
        slope_field(f.space, f), {2: 0.0})), False),
    "descent_step": (lambda s, f, g: descent_step(s, f, g, 1, _crit(s)), True),
    "descent_path": (lambda s, f, g: descent_path(s, f, g, 1, _crit(s)), True),
    "comparison_floor": (lambda s, f, g: comparison_floor(s, f, g, 1, _crit(s)), True),
    "verify_strict_comparison": (
        lambda s, f, g: verify_strict_comparison(s, f, g, _crit(s)), True),
    "comparison_principle": (lambda s, f, g: comparison_principle(s, f, g, 0.0), True),
    "epsilon_audit": (lambda s, f, g: epsilon_audit(s, f, g, [0.5]), True),
    "determine": (lambda s, f, g: determine(s, f, g), True),
}


@pytest.mark.parametrize("call,foreign", [
    (call, which) for call, (_, takes_g) in FIELD_CALLS.items()
    for which in ("f", "g")[:1 + takes_g]])
def test_fields_of_another_space_are_rejected(path3, call, foreign):
    # an equal point count would pass a size check; each call binds f
    # and g once, at entry
    space, f, g = path3
    other = unit_path(3)
    fields = {"f": f, "g": g}
    fields[foreign] = path_field(other, fields[foreign].values)
    with pytest.raises(FieldSpaceMismatch, match="^field is bound to a different space$"):
        FIELD_CALLS[call][0](space, fields["f"], fields["g"])


def test_caller_critical_set_inside_the_space(path3):
    space, f, g = path3
    crit = CriticalSet(space, np.array([True, False, True]), 0.0)
    assert crit.sorted_members() == (0, 2)
    assert comparison_floor(space, f, g, 1, crit) == 0.0
    assert descent_step(space, f, g, 1, crit) == 2
    assert descent_path(space, f, g, 1, crit).points == (1, 2)
    assert CriticalSet(space, np.zeros(3, dtype=bool), 0.0).sorted_members() == ()


@pytest.mark.parametrize("x", [1.5, 1.0, np.float64(1.0), "1", True, None])
def test_non_integer_point_ids(path3, x):
    space, f, _ = path3
    with pytest.raises(InvalidPoint, match="not an integer"):
        space.check_point(x)
    with pytest.raises(InvalidPoint):
        local_slope(space, f, x)
    with pytest.raises(InvalidPoint):
        neighbors(space, x)


@pytest.mark.parametrize("x,match", [(-1, "outside"), (3, "outside"),
                                     (True, "not an integer"), (1.0, "not an integer")])
def test_field_indexing_takes_point_ids_only(path3, x, match):
    # f[-1] used to give the last point, f[3] numpy's IndexError and
    # f[True] a TypeError
    space, f, _ = path3
    for fld in (f, slope_field(space, f)):
        with pytest.raises(InvalidPoint, match=match):
            fld[x]


def test_integer_point_ids_of_any_int_type(path3):
    space, f, _ = path3
    for x in (1, np.int64(1), np.int32(1), np.uint8(1)):
        space.check_point(x)
        assert local_slope(space, f, x) == 1.0
        assert (f[x], slope_field(space, f)[x]) == (1.0, 1.0)


def prescription(space, f, crit_values):
    return SlopeData(slope_field(space, f), crit_values)


@pytest.mark.parametrize("key", [0.7, 2.0, "2", True, None])
def test_reconstruct_rejects_non_integer_keys(path3, key):
    space, f, _ = path3
    with pytest.raises(InvalidPoint, match="not an integer"):
        reconstruct(space, prescription(space, f, {key: 0.0}))


@pytest.mark.parametrize("key", [-1, 3, 2**70])
def test_reconstruct_rejects_keys_outside_the_space(path3, key):
    space, f, _ = path3
    with pytest.raises(InvalidPoint, match="outside"):
        reconstruct(space, prescription(space, f, {2: 0.0, key: 0.0}))


@pytest.mark.parametrize("crit_values", [{True: 0.0, 2: 0.0}, {2: 0.0, np.True_: 5.0}],
                         ids=["bool-first", "numpy-bool-last"])
def test_reconstruct_rejects_bool_keys_among_integers(path3, crit_values):
    # np.array reads a bool among ints as 0 or 1: unless bools are
    # refused by type, True prescribes point 1.
    space, f, _ = path3
    with pytest.raises(InvalidPoint, match="not an integer"):
        reconstruct(space, prescription(space, f, crit_values))


def test_reconstruct_checks_every_key_before_the_values(path3):
    space, f, _ = path3
    with pytest.raises(InvalidPoint):
        reconstruct(space, prescription(space, f, {2: float("nan"), 0.5: 1.0}))
    with pytest.raises(NonFiniteFieldValue, match="at 2 "):
        reconstruct(space, prescription(space, f, {0: 2.0, 2: float("inf")}))


def test_reconstruct_accepts_numpy_integer_keys(path3):
    space, f, _ = path3
    out = reconstruct(space, prescription(space, f, {np.int64(2): np.float32(0.0)}))
    assert out.values.tolist() == [2.0, 1.0, 0.0]
    # np.array reads np.uint64 among Python ints as uint64, not int64
    python = reconstruct(space, prescription(space, f, {1: 1.0, 2: 0.0}))
    mixed = reconstruct(space, prescription(space, f, {1: 1.0, np.uint64(2): 0.0}))
    assert mixed.values.dtype == python.values.dtype
    assert mixed.values.tobytes() == python.values.tobytes()
