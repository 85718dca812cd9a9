"""One input rule each for numbers, flags and integers, all in `space`.

A number is a Python or numpy int or float, not a bool, and it must be
finite; an int beyond the float range is not finite. Per-point values
(`ScalarField`, `SlopeField`), prescribed values, interval endpoints,
edge lengths and real-valued knobs all follow it, each with its own
error. A flag array (a `SlopeField` infinity mask, a `CriticalSet` mask)
is a 1-D bool array. An integer is a Python int or numpy integer, not a
bool: point ids, edge endpoints and prescription keys raise InvalidPoint
and counts InvalidCount, naming a value beyond int64 without its digits.
The rejected forms below used to be read by numpy as numbers or flags,
or by int() as integers, or to end in a bare OverflowError, TypeError or
ValueError.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import path_field, unit_path
from slopekit import (
    CriticalSet,
    ScalarField,
    SlopeData,
    SlopeField,
    build_graph,
    cantor_approx,
    cantor_pair,
    comparison_floor,
    delta_slope_profile,
    descent_path,
    descent_step,
    distances_from,
    emit_figure_data,
    epsilon_audit,
    local_slope,
    neighbors,
    reconstruct,
    sample_interval,
    slope_field,
)
from slopekit.errors import (
    DegenerateInterval,
    FieldSpaceMismatch,
    InvalidCount,
    InvalidDecreasingList,
    InvalidPoint,
    InvalidSlopeValue,
    NonFiniteFieldValue,
    NonPositiveLength,
    SelfLoopEdge,
)
from slopekit.io import load_graph_csv
from slopekit.space import _int64s
from slopekit.testing import reference_build_graph

BIG = 10**400

# Values for the 3-point path that are not all numbers, and the first
# entry that is not one.
NOT_NUMBERS = {
    "strings-and-bool": (["2", True, "0"], 0),
    "bool-among-floats": ([1.0, True, 0.0], 1),
    "numpy-bool": ([1.0, 0.0, np.False_], 2),
    "complex": ([1 + 0j, 1, 0], 0),
    "none": ([None, 1, 0], 0),
    "bytes": ([0.0, b"1", 0.0], 1),
    "bool-array": (np.array([True, False, True]), 0),
    "str-array": (np.array(["2", "1", "0"]), 0),
    "object-array": (np.array([1.0, "1", 0.0], dtype=object), 1),
}
not_numbers = pytest.mark.parametrize("values,first", NOT_NUMBERS.values(),
                                      ids=NOT_NUMBERS)

# Sequences of numbers that stay accepted, with the floats they give.
NUMBERS = {
    "int-array": (np.array([2, 1, 0]), [2.0, 1.0, 0.0]),
    "uint-array": (np.array([2, 1, 0], dtype=np.uint8), [2.0, 1.0, 0.0]),
    "float32-array": (np.array([2.5, 1, 0], dtype=np.float32), [2.5, 1.0, 0.0]),
    "python-ints-and-floats": ([2, 1.5, 0], [2.0, 1.5, 0.0]),
    "numpy-scalars": ([np.int64(2), np.float32(1.5), np.uint16(0)], [2.0, 1.5, 0.0]),
    "object-array-of-floats": (np.array([2.0, 1.0, 0.0], dtype=object), [2.0, 1.0, 0.0]),
    "big-int": ([10**20, 1, 0], [1e20, 1.0, 0.0]),
}
numbers = pytest.mark.parametrize("values,floats", NUMBERS.values(), ids=NUMBERS)


@not_numbers
def test_fields_reject_values_that_are_not_numbers(values, first):
    with pytest.raises(NonFiniteFieldValue) as info:
        ScalarField(unit_path(3), values)
    assert str(info.value) == \
        f"value at point {first} must be an int or float, got {values[first]!r}"


@numbers
def test_fields_take_numbers(values, floats):
    f = ScalarField(unit_path(3), values)
    assert f.values.dtype == np.float64 and f.values.tolist() == floats


@pytest.mark.parametrize("values,point", [([BIG, 1, 0], 0), ([0, -BIG, 0], 1)])
def test_fields_reject_ints_beyond_the_float_range(values, point):
    with pytest.raises(NonFiniteFieldValue) as info:
        ScalarField(unit_path(3), values)
    assert str(info.value) == f"non-finite value at point {point}"


def test_field_shape_is_checked_before_the_entries():
    with pytest.raises(FieldSpaceMismatch, match=r"field has \(2,\) values"):
        ScalarField(unit_path(3), ["a", None])
    with pytest.raises(FieldSpaceMismatch, match="length differs"):
        SlopeField(unit_path(3), ["1", "1"], [0.5, 0.5, 0.5])


@not_numbers
def test_slope_values_reject_values_that_are_not_numbers(values, first):
    with pytest.raises(InvalidSlopeValue) as info:
        SlopeField(unit_path(3), values, [False] * 3)
    assert str(info.value) == \
        f"slope at point {first} must be an int or float, got {values[first]!r}"


@numbers
def test_slope_values_take_numbers(values, floats):
    slopes = SlopeField(unit_path(3), values, [False] * 3)
    assert slopes.values.dtype == np.float64 and slopes.values.tolist() == floats


def test_slope_values_reject_ints_beyond_the_float_range():
    with pytest.raises(InvalidSlopeValue, match="^slope inf at point 0 is not finite"):
        SlopeField(unit_path(3), [BIG, 0, 0], [False] * 3)


# A mask of anything but bools used to be read by truth value: 0.5, 2
# and "0" as set, None as unset.
@pytest.mark.parametrize("mask", [[0.5, 0, 0], ["0", "0", "0"], [2, 0, 0], [None, 0, 0],
                                  [1, 0, 0], np.array([1, 0, 0]),
                                  np.array([1.0, 0.0, 0.0]), [True, 0, False]],
                         ids=["half", "strings", "two", "none", "ints", "int-array",
                              "float-array", "bool-and-int"])
def test_infinity_mask_wants_bools(mask):
    with pytest.raises(InvalidSlopeValue,
                       match="^the infinity mask is a 1-D boolean mask over the points"):
        SlopeField(unit_path(3), [1.0, 1.0, 1.0], mask)


@pytest.mark.parametrize("mask", [[True, False, False], [np.True_, False, np.False_],
                                  np.array([True, False, False])],
                         ids=["bools", "numpy-bools", "bool-array"])
def test_flag_masks_take_bools(mask):
    space = unit_path(3)
    slopes = SlopeField(space, [1.0, 1.0, 1.0], mask)
    assert slopes.infinite.tolist() == [True, False, False]
    assert slopes.values.tolist() == [math.inf, 1.0, 1.0]
    assert CriticalSet(space, mask, 0.0).sorted_members() == (0,)


@pytest.mark.parametrize("value", [BIG, -BIG], ids=["big", "minus-big"])
def test_prescribed_values_reject_ints_beyond_the_float_range(value):
    space = unit_path(3)
    data = SlopeData(slope_field(space, path_field(space, [2.0, 1.0, 0.0])), {2: value})
    with pytest.raises(NonFiniteFieldValue) as info:
        reconstruct(space, data)
    assert str(info.value) == "prescribed value at 2 is not finite"


@pytest.mark.parametrize("a,b,message", [
    (0, BIG, "a=0.0, b=inf, n=3"),
    (-BIG, 0, "a=-inf, b=0.0, n=3"),
])
def test_sample_interval_rejects_ints_beyond_the_float_range(a, b, message):
    with pytest.raises(DegenerateInterval) as info:
        sample_interval(a, b, 3)
    assert str(info.value).endswith(message)


# The first bad entry in input order raises, whichever check it fails.
BAD_LENGTHS = {
    "big": ([(0, 1, BIG)], NonPositiveLength, "edge (0, 1) has length inf"),
    "minus-big": ([(0, 1, 1.0), (1, 2, -BIG)], NonPositiveLength,
                  "edge (1, 2) has length -inf"),
    "big-before-a-self-loop": ([(0, 1, BIG), (2, 2, 1.0)], NonPositiveLength,
                               "edge (0, 1) has length inf"),
    "self-loop-before-big": ([(2, 2, 1.0), (0, 1, BIG)], SelfLoopEdge,
                             "self-loop at point 2"),
    "none": ([(0, 1, 1.0), (1, 2, None)], NonPositiveLength,
             "edge (1, 2, None): length None is not a number"),
    "complex": ([(0, 1, 1 + 0j)], NonPositiveLength,
                "edge (0, 1, (1+0j)): length (1+0j) is not a number"),
    # float() read a Fraction, so it used to pass
    "fraction": ([(0, 1, Fraction(1, 2))], NonPositiveLength,
                 "edge (0, 1, Fraction(1, 2)): length Fraction(1, 2) is not a number"),
}


@pytest.mark.parametrize("edges,error,message", BAD_LENGTHS.values(), ids=BAD_LENGTHS)
def test_build_graph_lengths_follow_the_number_rule(edges, error, message):
    for build in (build_graph, reference_build_graph):
        with pytest.raises(error) as info:
            build(edges)
        assert str(info.value) == message


def test_build_graph_takes_big_int_lengths():
    space = build_graph([(0, 1, 10**20), (1, 2, np.uint64(3))])
    assert space.edges == ((0, 1, 1e20), (1, 2, 3.0))


# A single number where a list of radii or epsilons belongs used to
# raise a bare TypeError.
@pytest.mark.parametrize("call,name", [
    (lambda s, f: epsilon_audit(s, f, f, 0.5), "epsilons"),
    (lambda s, f: delta_slope_profile(s, f, 0, 2.0), "radii"),
    (lambda s, f: epsilon_audit(s, f, f, None), "epsilons"),
    (lambda s, f: epsilon_audit(s, f, f, np.array(0.5)), "epsilons"),
], ids=["epsilon_audit", "delta_slope_profile", "none", "0-d-array"])
def test_list_knobs_reject_a_single_number(call, name):
    space = unit_path(3)
    with pytest.raises(InvalidDecreasingList,
                       match=f"^{name} must be a list, got "):
        call(space, path_field(space, [2.0, 1.0, 0.0]))


# Ragged input has no shape: numpy raised a bare ValueError for it.
RAGGED = [[1.0, 2.0], [1.0], 3.0]


def test_ragged_input_is_a_shape_mismatch():
    space = unit_path(3)
    with pytest.raises(FieldSpaceMismatch) as info:
        ScalarField(space, RAGGED)
    assert str(info.value) == "field has ragged values, space has 3 points"
    for values, mask in ((RAGGED, [False] * 3), ([1.0] * 3, RAGGED)):
        with pytest.raises(FieldSpaceMismatch,
                           match="^slope field length differs from point count$"):
            SlopeField(space, values, mask)
    with pytest.raises(FieldSpaceMismatch) as info:
        CriticalSet(space, [[True], [False, True], True], 0.0)
    assert str(info.value) == \
        "a critical set is a 1-D boolean mask over the points, got ragged values"


# Spaces and fields are immutable, so the table shares one path 0-1-2.
PATH = unit_path(3)
F = path_field(PATH, [2.0, 1.0, 0.0])
G = path_field(PATH, [0.0, 0.0, 0.0])
CRIT = CriticalSet(PATH, [True, False, True], 0.0)


def _graph_csv(tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("u,v,length\n0,1,1.0\n")
    return path


# Every integer input: (the call on x and a tmp_path, its error, an
# integer it takes).
INTEGER_INPUTS = {
    "neighbors": (lambda x, _: neighbors(PATH, x), InvalidPoint, 1),
    "distances_from": (lambda x, _: distances_from(PATH, x), InvalidPoint, 1),
    "local_slope": (lambda x, _: local_slope(PATH, F, x), InvalidPoint, 1),
    "descent_step": (lambda x, _: descent_step(PATH, F, G, x, CRIT), InvalidPoint, 1),
    "descent_path-start": (lambda x, _: descent_path(PATH, F, G, x, CRIT),
                           InvalidPoint, 1),
    "descent_path-max_steps": (
        lambda x, _: descent_path(PATH, F, G, 1, CRIT, max_steps=x), InvalidCount, 3),
    "comparison_floor": (lambda x, _: comparison_floor(PATH, F, G, x, CRIT),
                         InvalidPoint, 1),
    "delta_slope_profile": (lambda x, _: delta_slope_profile(PATH, F, x, [2.0, 1.0]),
                            InvalidPoint, 1),
    "scalar-field-index": (lambda x, _: F[x], InvalidPoint, 1),
    "slope-field-index": (lambda x, _: slope_field(PATH, F)[x], InvalidPoint, 1),
    "build_graph-n": (lambda x, _: build_graph([(0, 1, 1.0)], n=x), InvalidCount, 3),
    "load_graph_csv-n": (lambda x, tmp: load_graph_csv(_graph_csv(tmp), n=x),
                         InvalidCount, 3),
    "sample_interval-n": (lambda x, _: sample_interval(0.0, 1.0, x), InvalidCount, 3),
    "cantor_approx-level": (lambda x, _: cantor_approx(x, 0.5), InvalidCount, 3),
    "cantor_pair-level": (lambda x, _: cantor_pair(x), InvalidCount, 3),
    "emit_figure_data-level": (lambda x, _: emit_figure_data("fig3", level=x),
                               InvalidCount, 2),
    "emit_figure_data-n": (lambda x, _: emit_figure_data("fig1", n=x), InvalidCount, 3),
    "build_graph-endpoint": (lambda x, _: build_graph([(0, 1, 1.0), (x, 2, 1.0)]),
                             InvalidPoint, 1),
    # x first: a dict keeps the first of equal keys, and np.float64(2.0) == 2
    "reconstruct-key": (lambda x, _: reconstruct(PATH, SlopeData(
        slope_field(PATH, F), {x: 1.0, 2: 0.0})), InvalidPoint, 1),
}

# None is the default of these, so it is no bad input there.
NONE_IS_DEFAULT = {"descent_path-max_steps", "build_graph-n", "load_graph_csv-n",
                   "emit_figure_data-n"}

# np.uint64 beyond int64: numpy 1.x may wrap it to a negative int64
NOT_INTEGERS = [True, np.True_, 1.0, np.float64(2.0), "1", b"1", None, 1.5,
                2**64, -2**63 - 1, BIG, np.uint64(2**63), np.uint64(2**64 - 1)]


def test_int64_conversion_takes_int64_integers_only():
    # The public paths hand `_int64s` lists, and numpy 2 refuses a list
    # entry beyond int64 itself; a uint64 array it wraps to negative int64.
    for values in [[x] for x in NOT_INTEGERS] + [np.array([2**63, 1], dtype=np.uint64)]:
        assert _int64s(values) is None, values
    assert _int64s(np.array([2**63 - 1, 1], dtype=np.uint64)).tolist() == [2**63 - 1, 1]


@pytest.mark.parametrize("call,error,good", INTEGER_INPUTS.values(), ids=INTEGER_INPUTS)
def test_integer_inputs_follow_one_rule(request, tmp_path, call, error, good):
    name = request.node.callspec.id
    for x in NOT_INTEGERS:
        if x is None and name in NONE_IS_DEFAULT:
            continue
        with pytest.raises(error) as info:
            call(x, tmp_path)
        assert type(info.value) is error, (name, x)
        assert len(str(info.value)) <= 120, (name, str(info.value)[:200])
    for x in (np.int8(good), np.uint64(good)):
        call(x, tmp_path)
