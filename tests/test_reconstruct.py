import heapq
import importlib
import random
import types

import numpy as np
import pytest

from conftest import path_field, unit_path
from slopekit import (
    Inadmissible,
    MetricSpaceGraph,
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
    DisconnectedSpace,
    EmptyCriticalSet,
    InfiniteSlopeData,
    InvariantViolated,
    NonFiniteFieldValue,
    UncoveredCriticalPoint,
)
from slopekit.testing import random_connected_graph, random_dyadic_field

# The package re-exports the function `reconstruct` under the module's name.
reconstruct_module = importlib.import_module("slopekit.reconstruct")


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
    space = build_graph([(0, 1, 1.0), (2, 3, 1.0)])
    slopes = SlopeField(space, np.ones(4), np.zeros(4, dtype=bool))
    with pytest.raises(DisconnectedSpace):
        reconstruct(space, SlopeData(slopes, {}))


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
    # A heap that pops its largest entry finalizes point 3 (value 5)
    # before point 0 (value 0): the order check must catch it, under -O too.
    def pop_largest(heap):
        return heap.pop(heap.index(max(heap)))
    monkeypatch.setattr(reconstruct_module, "heapq", types.SimpleNamespace(
        heappush=heapq.heappush, heappop=pop_largest))
    space = unit_path(4)
    f = path_field(space, [0.0, 1.0, 2.0, 5.0])
    data = SlopeData(slope_field(space, f), {0: 0.0, 3: 5.0})
    with pytest.raises(InvariantViolated, match="after"):
        reconstruct(space, data)


def test_incomplete_sweep_raises():
    # Raw arrays that break the constructor's symmetry contract: 2 -> 1
    # is missing, so the space looks connected from 0 but the sweep
    # seeded at 2 reaches nothing else.
    space = MetricSpaceGraph(n=3, src=[0, 1, 1], dst=[1, 0, 2],
                             w=[1.0, 1.0, 1.0])
    slopes = SlopeField(space, np.array([1.0, 1.0, 0.0]),
                        np.zeros(3, dtype=bool))
    with pytest.raises(InvariantViolated, match="1 of 3"):
        reconstruct(space, SlopeData(slopes, {2: 0.0}))


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
