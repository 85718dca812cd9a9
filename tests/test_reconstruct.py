import heapq
import itertools
import random
import types

import numpy as np
import pytest

import slopekit.space as space_module
from conftest import path_field, unit_path
from slopekit import (
    Inadmissible,
    ScalarField,
    SlopeData,
    SlopeField,
    build_graph,
    critical_set,
    reconstruct,
    slope_field,
)
from slopekit.cli import main
from slopekit.errors import (
    EmptyCriticalSet,
    InfiniteSlopeData,
    InvariantViolated,
    NonFiniteFieldValue,
    UncoveredCriticalPoint,
)
from slopekit.testing import random_connected_graph, random_dyadic_field


def roundtrip_data(space, f):
    slopes = slope_field(space, f)
    crit = critical_set(slopes, tol=0.0)
    return SlopeData(slopes, {p: f[p] for p in crit.sorted_members()})


def test_single_point_constant():
    space = build_graph([], n=1)
    f = path_field(space, [7.5])
    out = reconstruct(space, roundtrip_data(space, f))
    assert isinstance(out, ScalarField)
    assert out.values[0] == 7.5


def test_all_prescribed_constant_field():
    space = unit_path(3)
    f = path_field(space, [2.0, 2.0, 2.0])
    out = reconstruct(space, roundtrip_data(space, f))
    assert isinstance(out, ScalarField)
    assert np.array_equal(out.values, f.values)


def test_zero_slopes_partially_prescribed_is_uncovered():
    space = unit_path(3)
    zeros = SlopeField(space, np.zeros(3), np.zeros(3, dtype=bool))
    with pytest.raises(UncoveredCriticalPoint):
        reconstruct(space, SlopeData(zeros, {0: 1.0}))


def test_conflicting_prescriptions_on_flat_component():
    space = unit_path(2)
    zeros = SlopeField(space, np.zeros(2), np.zeros(2, dtype=bool))
    out = reconstruct(space, SlopeData(zeros, {0: 0.0, 1: 5.0}))
    assert isinstance(out, Inadmissible)
    assert any(w.point == 1 for w in out.witnesses)


def test_unit_speed_path_gives_distance_solution():
    # slopes 1 everywhere except the prescribed source: v(k) = k
    n = 6
    space = unit_path(n)
    vals = np.ones(n)
    vals[0] = 0.0
    slopes = SlopeField(space, vals, np.zeros(n, dtype=bool))
    out = reconstruct(space, SlopeData(slopes, {0: 0.0}))
    assert isinstance(out, ScalarField)
    assert np.array_equal(out.values, np.arange(n, dtype=float))


def test_round_trip_random():
    rng = random.Random(91)
    for _ in range(100):
        space = random_connected_graph(rng, n_max=30)
        f = random_dyadic_field(rng, space)
        out = reconstruct(space, roundtrip_data(space, f))
        assert isinstance(out, ScalarField)
        assert float(np.max(np.abs(out.values - f.values))) <= 1e-9


def test_round_trip_exact_on_dyadic_instances():
    rng = random.Random(93)
    for _ in range(20):
        space = random_connected_graph(rng, n_max=20)
        f = random_dyadic_field(rng, space)
        out = reconstruct(space, roundtrip_data(space, f), tol=0.0)
        assert isinstance(out, ScalarField)
        assert np.array_equal(out.values, f.values)


def test_perturbed_prescribed_slope_rejected():
    rng = random.Random(97)
    for _ in range(50):
        space = random_connected_graph(rng, n_max=20)
        f = random_dyadic_field(rng, space)
        data = roundtrip_data(space, f)
        p0 = int(np.argmin(f.values))
        bumped = data.slopes.values.copy()
        bumped[p0] += 1.0
        data2 = SlopeData(
            SlopeField(space, bumped, data.slopes.infinite.copy()),
            dict(data.crit_values))
        out = reconstruct(space, data2)
        assert isinstance(out, Inadmissible)
        assert any(w.point == p0 for w in out.witnesses)


def test_exact_round_trip_and_bumped_slope():
    space = unit_path(4)
    f = path_field(space, [3.0, 2.0, 1.0, 0.0])
    out = reconstruct(space, roundtrip_data(space, f))
    assert isinstance(out, ScalarField)
    assert np.array_equal(out.values, f.values)

    data = roundtrip_data(space, f)
    bumped = data.slopes.values.copy()
    bumped[3] += 1.0
    bad = SlopeData(SlopeField(space, bumped, data.slopes.infinite.copy()),
                    dict(data.crit_values))
    out = reconstruct(space, bad)
    assert isinstance(out, Inadmissible)
    assert out.witnesses


def test_translation_of_prescribed_values():
    rng = random.Random(101)
    for _ in range(20):
        space = random_connected_graph(rng, n_max=15)
        f = random_dyadic_field(rng, space)
        data = roundtrip_data(space, f)
        c = rng.randint(-2048, 2048) / 1024
        shifted = SlopeData(data.slopes,
                            {p: v + c for p, v in data.crit_values.items()})
        out = reconstruct(space, data)
        out_shifted = reconstruct(space, shifted)
        assert isinstance(out, ScalarField)
        assert isinstance(out_shifted, ScalarField)
        assert np.array_equal(out_shifted.values, out.values + c)


def test_disconnected_space_rejected():
    # No seed at all: the least point of an unseeded component is named.
    space = build_graph([(0, 1, 1.0), (2, 3, 1.0)])
    slopes = SlopeField(space, np.ones(4), np.zeros(4, dtype=bool))
    with pytest.raises(EmptyCriticalSet, match="no prescribed value and no slope "
                                               r"<= 1e-09 in the component of point 0$"):
        reconstruct(space, SlopeData(slopes, {}))


def test_disconnected_space_reconstructs_when_every_component_is_seeded():
    # Each component has its critical point covered, so the sweep
    # reaches every point; no connectivity is required.
    space = build_graph([(0, 1, 1.0), (2, 3, 1.0)])
    f = path_field(space, [0.0, 1.0, 5.0, 6.0])
    out = reconstruct(space, SlopeData(slope_field(space, f), {0: 0.0, 2: 5.0}))
    assert isinstance(out, ScalarField)
    assert out.values.tolist() == [0.0, 1.0, 5.0, 6.0]


def edge_subsets(n):
    """Every non-empty set of unit edges on n points, connected or not;
    the one-point space has only the empty one."""
    pairs = list(itertools.combinations(range(n), 2))
    return [subset for k in range(1, len(pairs) + 1)
            for subset in itertools.combinations(pairs, k)] or [()]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_slopes_and_critical_values_fix_every_field_without_connectivity(n):
    # Every component of a finite space holds a minimizer of f, whose
    # slope is 0, so prescribing f on its slope-0 points seeds each
    # component and the sweep returns f itself, bit for bit. n is passed
    # to build_graph, so a point on no edge stays isolated.
    for edges in edge_subsets(n):
        space = build_graph([(u, v, 1.0) for u, v in edges], n=n)
        for values in itertools.product([0.0, 1.0, 2.0, 3.0], repeat=n):
            f = ScalarField(space, np.array(values))
            out = reconstruct(space, roundtrip_data(space, f))
            assert isinstance(out, ScalarField), (edges, values)
            assert out.values.tobytes() == f.values.tobytes(), (edges, values)


def test_infinite_slope_data_rejected():
    space = unit_path(3)
    mask = np.array([False, True, False])
    vals = np.array([1.0, np.inf, 1.0])
    slopes = SlopeField(space, vals, mask)
    with pytest.raises(InfiniteSlopeData):
        reconstruct(space, SlopeData(slopes, {0: 0.0}))


def test_extra_prescriptions_allowed_when_consistent():
    space = unit_path(4)
    f = path_field(space, [3.0, 2.0, 1.0, 0.0])
    slopes = slope_field(space, f)
    # prescribe a non-critical point with its true value
    data = SlopeData(slopes, {3: 0.0, 1: 2.0})
    out = reconstruct(space, data)
    assert isinstance(out, ScalarField)
    assert np.array_equal(out.values, f.values)


def test_sweep_order_violation_raises(monkeypatch):
    # A heap whose pop also drops the next entry never relaxes point 2,
    # so point 3 keeps the long way round, 0-1-3 (value 6), instead of
    # 0-2-3 (value 2): the fixpoint certificate must catch it, under -O too.
    def pop_and_drop(heap):
        item = heapq.heappop(heap)
        if heap:
            heapq.heappop(heap)
        return item
    monkeypatch.setattr(space_module, "heapq", types.SimpleNamespace(
        heapify=heapq.heapify, heappush=heapq.heappush, heappop=pop_and_drop))
    space = build_graph([(0, 1, 1.0), (0, 2, 1.0), (1, 3, 5.0), (2, 3, 1.0)])
    slopes = SlopeField(space, np.array([0.0, 1.0, 1.0, 1.0]),
                        np.zeros(4, dtype=bool))
    with pytest.raises(InvariantViolated,
                       match=r"not a fixpoint: edge \(2, 3\) lowers 6.0 to 2.0"):
        reconstruct(space, SlopeData(slopes, {0: 0.0}))


def test_incomplete_sweep_raises():
    # Two components: the sweep seeded at 0 never reaches 2 and 3, whose
    # slopes are above tol, so their component has no seed.
    space = build_graph([(0, 1, 1.0), (2, 3, 1.0)])
    slopes = SlopeField(space, np.array([0.0, 1.0, 1.0, 1.0]),
                        np.zeros(4, dtype=bool))
    with pytest.raises(EmptyCriticalSet, match="in the component of point 2$"):
        reconstruct(space, SlopeData(slopes, {0: 0.0}))


def test_overflow_is_named_before_an_unseeded_component():
    # Point 1 is next to the seed but overflows; points 2 and 3 have no seed.
    space = build_graph([(0, 1, 10.0), (2, 3, 1.0)])
    slopes = SlopeField(space, np.array([0.0, 1e308, 1.0, 1.0]),
                        np.zeros(4, dtype=bool))
    with pytest.raises(NonFiniteFieldValue, match="point 1 overflows"):
        reconstruct(space, SlopeData(slopes, {0: 0.0}))


# A prescribed value follows the type rule of the real-valued knobs
# (`space.check_real`): a Python or numpy int or float, not a bool. The
# rule is by type because a float conversion reads "0", b"0" and False
# as 0.0, and True as 1.0.
@pytest.mark.parametrize("value", ["0", b"0", False, True, np.True_],
                         ids=["str", "bytes", "False", "True", "numpy-True"])
def test_prescribed_values_reject_bools_and_strings(value):
    space = unit_path(3)
    f = path_field(space, [2.0, 1.0, 0.0])
    with pytest.raises(NonFiniteFieldValue,
                       match="prescribed value at 2 must be an int or float, got "):
        reconstruct(space, SlopeData(slope_field(space, f), {2: value}))


def test_prescribed_values_name_the_first_bad_key():
    space = unit_path(3)
    f = path_field(space, [2.0, 1.0, 0.0])
    data = SlopeData(slope_field(space, f), {2: 0.0, 1: True, 0: "2"})
    with pytest.raises(NonFiniteFieldValue, match="at 1 must be an int or float, got True$"):
        reconstruct(space, data)


@pytest.mark.parametrize("value", [0, np.float32(0), 10**20, np.int64(-3)],
                         ids=["int", "float32", "big-int", "int64"])
def test_prescribed_values_take_ints_and_floats(value):
    space = build_graph([], n=1)
    zero = SlopeField(space, np.zeros(1), np.zeros(1, dtype=bool))
    out = reconstruct(space, SlopeData(zero, {0: value}))
    assert out.values.tolist() == [float(value)]


# Slope data the sweep cannot start or finish on: no prescribed value
# while every slope is above tol, and a slope so steep that the value
# next to the seed overflows. Both used to end in InvariantViolated
# (exit 70, with a traceback).
BAD_DATA = {
    "no seed": ([(0, 1, 1.0), (1, 2, 1.0)], [1.0, 1.0, 1.0], {},
                EmptyCriticalSet, "no prescribed value"),
    "overflow": ([(0, 1, 10.0), (1, 2, 1.0)], [0.0, 1e308, 1.0], {0: 0.0},
                 NonFiniteFieldValue, "point 1 overflows"),
}


@pytest.mark.parametrize("case", list(BAD_DATA))
def test_unsweepable_data_is_an_input_error(case):
    edges, slopes, prescribed, error, message = BAD_DATA[case]
    space = build_graph(edges)
    data = SlopeData(SlopeField(space, np.array(slopes), np.zeros(3, dtype=bool)),
                     prescribed)
    with pytest.raises(error, match=message):
        reconstruct(space, data)


@pytest.mark.parametrize("case", list(BAD_DATA))
def test_cli_reconstruct_rejects_unsweepable_data(tmp_path, capsys, case):
    edges, slopes, prescribed, error, message = BAD_DATA[case]
    files = {
        "space": "u,v,length\n" + "".join(f"{u},{v},{w!r}\n" for u, v, w in edges),
        "slopes": "point,slope,is_infinite\n" + "".join(
            f"{p},{s!r},0\n" for p, s in enumerate(slopes)),
        "crit": "point,value\n" + "".join(
            f"{p},{v!r}\n" for p, v in prescribed.items()),
    }
    for name, text in files.items():
        (tmp_path / f"{name}.csv").write_text(text)
    code = main(["reconstruct", "--space", str(tmp_path / "space.csv"),
                 "--slopes", str(tmp_path / "slopes.csv"),
                 "--crit-values", str(tmp_path / "crit.csv")])
    err = capsys.readouterr().err
    assert code == 74
    assert f"{error.__name__}: " in err and message in err
    assert "Traceback" not in err
