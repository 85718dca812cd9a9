"""Differential suite for the shortest-path sweep.

`reconstruct` and `distances_from` both run the sweep kernel in
`slopekit.space`. Their values must equal, bit for bit, the fixpoint
that `testing.reference_sweep` reaches by Bellman-Ford label
correction, which does not depend on a relaxation order. Every case
runs at the default frontier width for array rounds, and again with
array rounds down to a one-point frontier and with the heap alone.
"""
import math
import random

import numpy as np
import pytest

import slopekit.space as space_module
from slopekit import (
    Inadmissible,
    ScalarField,
    SlopeData,
    SlopeField,
    build_graph,
    critical_set,
    distances_from,
    reconstruct,
    sample_interval,
    slope_field,
)
from slopekit.testing import (
    random_connected_graph,
    random_dyadic_field,
    reference_slope_field,
    reference_sweep,
)


def float_graph(rng, n_max=40, lo=1e-3, hi=10.0):
    """A random connected graph with lengths drawn from [lo, hi)."""
    tree = random_connected_graph(rng, n_max=n_max)
    return build_graph([(u, v, rng.uniform(lo, hi)) for u, v, _ in tree.edges],
                       n=tree.n)


def float_field(rng, space):
    return ScalarField(space, np.array([rng.uniform(-10.0, 10.0)
                                        for _ in range(space.n)]))


def dyadic_case(rng):
    space = random_connected_graph(rng, n_max=40)
    return space, random_dyadic_field(rng, space)


def float_case(rng):
    space = float_graph(rng)
    return space, float_field(rng, space)


def grid_case(rng):
    n = rng.randint(2, 200)
    space = sample_interval(-rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0), n)
    k = rng.uniform(0.5, 6.0)
    return space, ScalarField(space, np.sin(k * space.coordinates))


CASES = {"dyadic": dyadic_case, "float": float_case, "grid": grid_case}


def critical_data(space, f, tol):
    slopes = slope_field(space, f)
    crit = critical_set(slopes, tol=tol)
    return SlopeData(slopes, {p: f[p] for p in crit.sorted_members()})


def check_against_oracle(space, data, tol):
    """reconstruct(space, data, tol) must return the oracle's values, or
    an Inadmissible whose witnesses are exactly the points where the
    oracle's values miss the input slopes by more than tol."""
    speeds = data.slopes.values
    with np.errstate(over="ignore"):
        inc = speeds[space.dst] * space.w
    seeds = {int(p): float(v) for p, v in data.crit_values.items()}
    expected = reference_sweep(space, inc, seeds)
    recomputed = reference_slope_field(space, ScalarField(space, expected),
                                       cap=data.slopes.cap).values
    off = np.flatnonzero(~(np.abs(recomputed - speeds) <= tol)).tolist()
    out = reconstruct(space, data, tol=tol)
    if off:
        assert isinstance(out, Inadmissible)
        assert [w.point for w in out.witnesses] == off
        assert [w.recomputed for w in out.witnesses] == recomputed[off].tolist()
    else:
        assert isinstance(out, ScalarField)
        assert out.values.tobytes() == expected.tobytes()
    return out


@pytest.mark.parametrize("kind", list(CASES))
@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_reconstruct_matches_oracle_on_critical_data(kind, tol):
    rng = random.Random(f"critical-{kind}-{tol}")
    for _ in range(40):
        space, f = CASES[kind](rng)
        check_against_oracle(space, critical_data(space, f, tol), tol)


@pytest.mark.parametrize("kind", list(CASES))
def test_reconstruct_matches_oracle_with_extra_prescriptions(kind):
    # Extra points prescribed with their own value, or with a shifted
    # one, which the verification then rejects.
    rng = random.Random(f"extra-{kind}")
    outcomes = set()
    for _ in range(40):
        space, f = CASES[kind](rng)
        data = critical_data(space, f, 0.0)
        values = dict(data.crit_values)
        shift = rng.choice([0.0, 0.0, 0.5, -0.25])
        for p in rng.sample(range(space.n), rng.randint(1, space.n)):
            values.setdefault(p, f[p] + shift)
        out = check_against_oracle(space, SlopeData(data.slopes, values), 0.0)
        outcomes.add(type(out))
    assert outcomes == {ScalarField, Inadmissible}


@pytest.mark.parametrize("kind", list(CASES))
def test_reconstruct_matches_oracle_on_inadmissible_data(kind):
    # A prescribed point's slope is fixed by its neighbours' values, so
    # raising it gives data that no field has; other slopes are scaled.
    rng = random.Random(f"inadmissible-{kind}")
    rejected = 0
    for _ in range(40):
        space, f = CASES[kind](rng)
        data = critical_data(space, f, 0.0)
        speeds = data.slopes.values.copy()
        prescribed = sorted(data.crit_values)
        for p in rng.sample(prescribed, rng.randint(1, len(prescribed))):
            speeds[p] += rng.choice([0.25, 1.0])
        for p in rng.sample(range(space.n), rng.randint(0, space.n)):
            if p not in data.crit_values:
                speeds[p] *= rng.choice([0.5, 3.0])
        slopes = SlopeField(space, speeds, data.slopes.infinite.copy())
        out = check_against_oracle(space, SlopeData(slopes, data.crit_values), 1e-9)
        rejected += isinstance(out, Inadmissible)
    assert rejected >= 30


@pytest.mark.parametrize("kind", ["dyadic", "float", "huge"])
def test_distances_from_matches_oracle(kind):
    # Spaces with isolated points, so that some distances are inf; the
    # huge lengths make some path sums overflow to inf.
    rng = random.Random(f"distances-{kind}")
    overflowed = 0
    for _ in range(40):
        if kind == "dyadic":
            tree = random_connected_graph(rng, n_max=40)
        else:
            lo, hi = (1e-3, 10.0) if kind == "float" else (1e306, 1e308)
            tree = float_graph(rng, lo=lo, hi=hi)
        space = build_graph(tree.edges, n=tree.n + rng.randint(0, 3))
        for x in rng.sample(range(tree.n), min(tree.n, 5)):
            expected = reference_sweep(space, space.w, {x: 0.0})
            got = distances_from(space, x)
            assert got.tobytes() == expected.tobytes()
            overflowed += not np.isfinite(got[:tree.n]).all()
    assert (overflowed > 0) == (kind == "huge")


def test_oracle_refuses_a_negative_increment():
    # Label correction needs nonnegative increments: on the edge pair
    # 1-2, neither of which is a seed, -1 lowers both labels every round.
    space = build_graph([(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError) as info:
        reference_sweep(space, np.full(space.dst.size, -1.0), {0: 0.0})
    assert str(info.value) == "no fixpoint within n rounds: a negative increment"


def test_wide_frontier_matches_oracle():
    # Dyadic fields on 1500-2000-point graphs have several hundred
    # local minima, so at the default width the sweep starts with
    # array rounds.
    rng = random.Random("wide")
    for _ in range(4):
        space = random_connected_graph(rng, n_max=2000, n_min=1500)
        f = random_dyadic_field(rng, space)
        data = critical_data(space, f, 0.0)
        assert len(data.crit_values) > 256
        assert isinstance(check_against_oracle(space, data, 0.0), ScalarField)


@pytest.mark.parametrize("width", [1, math.inf])
def test_every_case_at_forced_widths(width, monkeypatch):
    # Width 1 runs array rounds until the frontier is empty; width inf
    # leaves the whole sweep to the heap.
    monkeypatch.setattr(space_module, "_WIDE", width)
    for kind in CASES:
        for tol in (0.0, 1e-9):
            test_reconstruct_matches_oracle_on_critical_data(kind, tol)
        test_reconstruct_matches_oracle_with_extra_prescriptions(kind)
        test_reconstruct_matches_oracle_on_inadmissible_data(kind)
    for kind in ("dyadic", "float", "huge"):
        test_distances_from_matches_oracle(kind)
    test_wide_frontier_matches_oracle()
