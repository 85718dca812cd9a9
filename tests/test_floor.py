"""Seeded differential suites for the comparison floor.

`verify_strict_comparison` and the bracket of `epsilon_audit` take every
floor from one `sublevel_floor` pass. Here they are checked, field by
field, against per-point scans kept in this file: `comparison_floor` at
each non-critical point, and the bracket loop over the critical points.
`comparison_floor` itself is checked bit for bit against the loop over
a set of critical points, `testing.reference_comparison_floor`. Also
checked: `determine` computes each slope field and each critical mask
once.
"""
import math
import random
import struct

import numpy as np
import pytest

import slopekit.determination as determination
from conftest import path_field, unit_path
from slopekit import (
    NO_CRITICAL_BELOW,
    CriticalSet,
    ScalarField,
    StrictComparisonReport,
    build_graph,
    comparison_floor,
    comparison_principle,
    critical_set,
    determine,
    epsilon_audit,
    slope_field,
    verify_strict_comparison,
)
from slopekit.critical import sublevel_floor
from slopekit.determination import VERDICT_EQUAL
from slopekit.testing import (
    random_connected_graph,
    random_dyadic_constant,
    random_dyadic_field,
    reference_comparison_floor,
)

EPSILONS = (0.5, 0.125, 0.03125)


def scan_strict_comparison(space, f, g, crit):
    """verify_strict_comparison with one comparison_floor call per point."""
    non_critical = ~crit.mask
    sf, sg = slope_field(space, f), slope_field(space, g)
    offending = np.flatnonzero(non_critical & ~(sf.values > sg.values))
    if offending.size:
        return StrictComparisonReport(
            dominance_ok=False, dominance_witness=int(offending[0]),
            checked=0, comparison_holds=None,
            violation_point=None, violation_floor=None)
    checked = 0
    for x in np.flatnonzero(non_critical).tolist():
        floor = comparison_floor(space, f, g, x, crit)
        checked += 1
        with np.errstate(over="ignore"):
            holds = f.values[x] - g.values[x] > floor
        if floor is NO_CRITICAL_BELOW or not holds:
            return StrictComparisonReport(
                dominance_ok=True, dominance_witness=None, checked=checked,
                comparison_holds=False, violation_point=x,
                violation_floor=None if floor is NO_CRITICAL_BELOW else floor)
    return StrictComparisonReport(
        dominance_ok=True, dominance_witness=None, checked=checked,
        comparison_holds=True, violation_point=None, violation_floor=None)


def scan_bracket_rows(f, g, crit, c):
    """(worst_point, worst_margin, bound_holds, bracket_max) per epsilon,
    from a loop over the non-critical points."""
    crit_points = sorted(crit.members)
    f_crit = f.values[crit_points]
    non_crit = [x for x in range(len(f)) if not crit.mask[x]]
    rows = []
    for e in EPSILONS:
        fe = f.values * (1.0 + e)
        fe_crit = fe[crit_points]
        worst_point, worst_margin, bracket_max = None, -math.inf, 0.0
        for x in non_crit:
            inside = fe_crit <= fe[x]
            floor_f = float(np.min(f_crit[inside])) if inside.any() else math.inf
            bracket = float(f.values[x] - floor_f)
            bracket_max = max(bracket_max, bracket)
            margin = float(g.values[x] - (f.values[x] + e * bracket + c))
            if margin > worst_margin:
                worst_point, worst_margin = x, margin
        if not non_crit:
            worst_margin = None
        holds = worst_margin is None or worst_margin < 0.0
        rows.append((worst_point, worst_margin, holds, bracket_max))
    return rows


def dyadic_case(rng):
    space = random_connected_graph(rng, n_max=30)
    return space, random_dyadic_field(rng, space)


def non_dyadic_case(rng):
    base = random_connected_graph(rng, n_max=30)
    space = build_graph([(u, v, rng.uniform(0.1, 3.0)) for u, v, _ in base.edges],
                        n=base.n)
    f = ScalarField(space, np.array([rng.uniform(-3.0, 3.0) for _ in range(space.n)]))
    return space, f


def rounding_case(rng):
    """Values near 2**56 on a grid of 16, where g = lam * f rounds: the
    strict comparison then fails now and then, so its violation path
    runs (in exact arithmetic the descent argument rules it out)."""
    space = random_connected_graph(rng, n_max=30)
    values = [2.0 ** 56 + 16.0 * rng.randint(0, 8) for _ in range(space.n)]
    return space, ScalarField(space, np.array(values))


def contraction(rng, f):
    """g = lam * f + shift, whose slope lies strictly below f's off its
    critical set."""
    lam = rng.choice([rng.randint(1, 7) / 8, rng.uniform(0.05, 0.95)])
    return ScalarField(f.space, lam * f.values + random_dyadic_constant(rng))


def hand_made_sets(rng, space, f):
    """The derived critical set, a superset with random extra points, a
    random set that misses the minimizer (so some sublevel sets hold no
    critical point), and the empty set."""
    derived = critical_set(slope_field(space, f))
    extra = set(rng.sample(range(space.n), rng.randint(0, space.n)))
    minimizer = int(np.argmin(f.values))
    missing = set(rng.sample(range(space.n), rng.randint(1, space.n))) - {minimizer}
    return [derived, CriticalSet(space, derived.mask | mask_of(space.n, extra), 0.0),
            CriticalSet(space, mask_of(space.n, missing), 0.0),
            CriticalSet(space, mask_of(space.n, ()), 0.0)]


def mask_of(n, points):
    mask = np.zeros(n, dtype=bool)
    mask[list(points)] = True
    return mask


def test_strict_comparison_matches_per_point_scan():
    rng = random.Random(4049)
    outcomes = set()
    for make in [dyadic_case, non_dyadic_case, rounding_case] * 100:
        space, f = make(rng)
        for g in (contraction(rng, f), random_dyadic_field(rng, space)):
            for crit in hand_made_sets(rng, space, f):
                got = verify_strict_comparison(space, f, g, crit)
                assert got == scan_strict_comparison(space, f, g, crit)
                outcomes.add((got.dominance_ok, got.comparison_holds,
                              got.violation_floor is None))
    # the dominance failure, the holding comparison and a violation with
    # a floor all occur
    assert {(False, None, True), (True, True, True), (True, False, False)} <= outcomes


@pytest.mark.parametrize("make", [dyadic_case, non_dyadic_case, rounding_case])
def test_sublevel_floor_matches_comparison_floor(make):
    rng = random.Random(4051)
    missed = 0
    for _ in range(150):
        space, f = make(rng)
        g = random_dyadic_field(rng, space)
        for crit in hand_made_sets(rng, space, f):
            ids = np.flatnonzero(crit.mask)
            floor, found = sublevel_floor(f.values[ids], f.values[ids] - g.values[ids],
                                          f.values)
            for x in range(space.n):
                want = comparison_floor(space, f, g, x, crit)
                if want is NO_CRITICAL_BELOW:
                    missed += 1
                    assert not found[x] and floor[x] == math.inf
                else:
                    assert found[x] and float(floor[x]) == want
    assert missed > 0


def test_sublevel_floor_ties_and_overflowed_values():
    keys = np.array([2.0, 1.0, 2.0, 3.0])
    vals = np.array([5.0, math.inf, -1.0, -7.0])
    floor, found = sublevel_floor(keys, vals, np.array([0.5, 1.0, 2.0, 2.5, 3.0]))
    assert found.tolist() == [False, True, True, True, True]
    # an overflowed +inf value is a found floor, not "none below"
    assert floor.tolist() == [math.inf, math.inf, -1.0, -1.0, -7.0]
    floor, found = sublevel_floor(np.array([]), np.array([]), np.array([1.0]))
    assert floor.tolist() == [math.inf] and found.tolist() == [False]


def test_overflowing_difference_is_a_floor_not_a_warning():
    # (f - g)(0) = 2e308 overflows to +inf; the floor at point 1 is that
    # +inf, so (f - g)(1) = +inf does not exceed it.
    space = build_graph([(0, 1, 1.0)])
    f = path_field(space, [1e308, 1.5e308])
    g = path_field(space, [-1e308, -1e308])
    crit = critical_set(slope_field(space, f))
    assert crit.members == {0}
    assert comparison_floor(space, f, g, 1, crit) == math.inf
    report = verify_strict_comparison(space, f, g, crit)
    assert report == scan_strict_comparison(space, f, g, crit)
    assert report.violation_point == 1 and report.violation_floor == math.inf


EXTREMES = (1e308, -1e308, 8.9e307, -8.9e307, 1e-308, -1e-308, 0.0, -0.0,
            0.5, -1.25, 3.0)


def extreme_case(rng):
    """A graph of at most 8 points whose values come from EXTREMES, so
    that f - g overflows to +-inf, or from (0.0, -0.0, 0.5)."""
    space = random_connected_graph(rng, n_max=8)
    palette = rng.choice((EXTREMES, (0.0, -0.0, 0.5)))
    return space, ScalarField(space, np.array([rng.choice(palette)
                                                for _ in range(space.n)]))


def extreme_partner(rng, f):
    """g from EXTREMES at every point, so that f - g overflows; or g
    equal to f or a zero of either sign at each point, so that the
    candidates +0.0 and -0.0 for a zero floor tie now and then."""
    if rng.random() < 0.5:
        return ScalarField(f.space, np.array([rng.choice(EXTREMES) for _ in range(f.space.n)]))
    return ScalarField(f.space, np.array([rng.choice((v, 0.0, -0.0))
                                          for v in f.values.tolist()]))


def same_floor(got, want):
    if want is NO_CRITICAL_BELOW:
        return got is NO_CRITICAL_BELOW
    return type(got) is float and struct.pack("<d", got) == struct.pack("<d", want)


def test_comparison_floor_matches_reference_loop():
    rng = random.Random(4063)
    seen = set()
    cases = 0
    for make in [dyadic_case, non_dyadic_case, rounding_case] * 20 + [extreme_case] * 300:
        space, f = make(rng)
        g = (extreme_partner(rng, f) if make is extreme_case
             else random_dyadic_field(rng, space))
        for crit in hand_made_sets(rng, space, f):
            for x in range(space.n):
                got = comparison_floor(space, f, g, x, crit)
                want = reference_comparison_floor(f, g, x, crit)
                assert same_floor(got, want), (x, got, want)
                cases += 1
                if want is NO_CRITICAL_BELOW:
                    seen.add("none below")
                elif math.isinf(want) or want == 0.0:
                    seen.add(struct.pack("<d", want))
    assert cases >= 1000
    assert seen == {"none below", *(struct.pack("<d", v)
                                    for v in (math.inf, -math.inf, 0.0, -0.0))}


@pytest.mark.parametrize("make", [dyadic_case, non_dyadic_case, rounding_case])
def test_epsilon_audit_rows_match_bracket_loop(make):
    rng = random.Random(4057)
    for _ in range(150):
        space, f = make(rng)
        g = contraction(rng, f)
        crit = critical_set(slope_field(space, f))
        for c in (None, rng.uniform(0.0, 4.0) + float(np.max(g.values - f.values))):
            audit = epsilon_audit(space, f, g, EPSILONS, c=c)
            want_c = float(np.max((g.values - f.values)[sorted(crit.members)])) \
                if c is None else c
            assert audit.constant == want_c
            got = [(r.worst_point, r.worst_margin, r.bound_holds, r.bracket_max)
                   for r in audit.rows]
            assert got == scan_bracket_rows(f, g, crit, want_c)


def test_epsilon_audit_without_non_critical_points():
    space = unit_path(3)
    f = path_field(space, [1.0, 1.0, 1.0])
    audit = epsilon_audit(space, f, f, EPSILONS)
    got = [(r.worst_point, r.worst_margin, r.bound_holds, r.bracket_max)
           for r in audit.rows]
    assert got == scan_bracket_rows(f, f, critical_set(slope_field(space, f)), 0.0)
    assert got[0] == (None, None, True, 0.0)


def counting(monkeypatch, name):
    """The positional arguments of each call of `determination.<name>`."""
    calls = []
    real = getattr(determination, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(determination, name, counted)
    return calls


def test_determine_computes_each_slope_field_once(monkeypatch):
    # One call of the maker `_slope_fields(space, cap, f, g)` builds both
    # slope fields; its kernel passes are counted in test_budgets.py.
    rng = random.Random(4061)
    made = counting(monkeypatch, "_slope_fields")
    crit_calls = counting(monkeypatch, "critical_mask")
    for _ in range(20):
        space, f = dyadic_case(rng)
        g = ScalarField(space, f.values + random_dyadic_constant(rng))
        del made[:], crit_calls[:]
        report = determine(space, f, g)
        assert report.verdict.kind == VERDICT_EQUAL
        assert report.slope_provenance == "exact-graph"
        assert [args[2:] for args in made] == [(f, g)] and len(crit_calls) == 2
    del made[:], crit_calls[:]
    comparison_principle(space, f, g, report.verdict.constant)
    assert [args[2:] for args in made] == [(f, g)] and len(crit_calls) == 1
