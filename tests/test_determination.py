import math
import random
from itertools import combinations, product

import numpy as np
import pytest

from conftest import path_field, unit_path
from slopekit import (
    ScalarField,
    build_graph,
    comparison_principle,
    critical_set,
    determine,
    epsilon_audit,
    grid_critical_tol,
    sample_interval,
    slope_field,
)
from slopekit.determination import (
    DiffConstancyCheck,
    VERDICT_EQUAL,
    VERDICT_INCONCLUSIVE,
    VERDICT_VIOLATED,
)
from slopekit.errors import (
    DifferenceOverflow,
    InvalidDecreasingList,
    PreconditionViolated,
)
from slopekit.gallery import cantor_pair, square_sine_pair
from slopekit.testing import (
    random_connected_graph,
    random_dyadic_constant,
    random_dyadic_field,
)


def mirrored_pair_on_grid(n=1005):
    grid = sample_interval(-math.pi, math.pi, n)
    f_an, g_an = square_sine_pair()
    ts = grid.coordinates
    f = ScalarField(grid, np.array([f_an.value(t) for t in ts]))
    g = ScalarField(grid, np.array([g_an.value(t) for t in ts]))
    return grid, f, g


def test_shifted_field_passes_all_hypotheses():
    space = unit_path(4)
    f = path_field(space, [3.0, 2.0, 1.0, 0.0])
    g = ScalarField(space, f.values + 5.0)
    diag = determine(space, f, g).diagnostics
    assert diag.slopes_finite.passed
    assert diag.slopes_equal.passed
    assert diag.crit_sets_equal.passed
    assert diag.diff_constant_on_crit.passed
    assert diag.diff_constant_on_crit.constant == 5.0
    assert diag.diff_constant_on_crit.spread == 0.0


def test_equal_differences_give_their_value_exactly():
    # the mean of (0.1, 0.1, 0.1) used to read 0.10000000000000002,
    # with a residual of 1.39e-17
    space = unit_path(3)
    report = determine(space, path_field(space, [0.0, 0.0, 0.0]),
                       path_field(space, [0.1, 0.1, 0.1]))
    assert report.verdict.kind == VERDICT_EQUAL
    assert report.diagnostics.diff_constant_on_crit.constant == 0.1
    assert report.verdict.constant == 0.1 and report.residual == 0.0


def test_mirrored_pair_fails_constancy_with_spread_four():
    grid, f, g = mirrored_pair_on_grid()
    h = grid.edges[0][2]
    diag = determine(grid, f, g, tol_slope=5 * h,
                     tol_crit=grid_critical_tol(h)).diagnostics
    assert diag.slopes_finite.passed
    assert diag.slopes_equal.passed
    dc = diag.diff_constant_on_crit
    assert not dc.passed
    assert abs(dc.spread - 4.0) <= 5e-3
    assert abs(dc.max_value - 2.0) <= 5e-3
    assert abs(dc.min_value + 2.0) <= 5e-3
    ts = grid.coordinates
    assert abs(ts[dc.max_point] + math.pi / 2) <= h
    assert abs(ts[dc.min_point] - math.pi / 2) <= h


def test_cantor_pair_fails_slope_equality_and_diverges():
    for k in (3, 5):
        n = 3 ** k + 1
        grid = sample_interval(0.0, 1.0, n)
        f_an, g_an = cantor_pair(k)
        ts = grid.coordinates
        f = ScalarField(grid, np.array([f_an.value(t) for t in ts]))
        g = ScalarField(grid, np.array([g_an.value(t) for t in ts]))
        diag = determine(grid, f, g).diagnostics
        assert not diag.slopes_equal.passed
        # the gap grows like the stair steepness
        assert diag.slopes_equal.max_gap >= 1.5 ** k * (1 - 1e-9)


def test_cantor_pair_overflows_a_tight_cap():
    # with a finite refinement budget the blow-up registers as overflow
    # once the stair steepness crosses the configured cap
    k = 6
    n = 3 ** k + 1
    grid = sample_interval(0.0, 1.0, n)
    f_an, g_an = cantor_pair(k)
    ts = grid.coordinates
    f = ScalarField(grid, np.array([f_an.value(t) for t in ts]))
    g = ScalarField(grid, np.array([g_an.value(t) for t in ts]))
    # cap between the stair slopes of f (~12.4) and g (~23.8): g overflows
    report = determine(grid, f, g, cap=15.0)
    diag = report.diagnostics
    assert not diag.slopes_finite.passed
    assert not diag.slopes_equal.passed
    assert report.verdict.kind == VERDICT_VIOLATED
    assert "slopes_finite" in report.verdict.violated


def test_comparison_principle_affine_family():
    rng = random.Random(51)
    for _ in range(50):
        space = random_connected_graph(rng, n_max=25)
        f = random_dyadic_field(rng, space)
        alpha = rng.randint(0, 16) / 16
        beta = random_dyadic_constant(rng)
        g = ScalarField(space, alpha * f.values + beta)
        crit = critical_set(slope_field(space, f), 0.0)
        c = max(float(g.values[z] - f.values[z])
                for z in crit.sorted_members())
        result = comparison_principle(space, f, g, c, tol=1e-9)
        assert result.holds
        assert np.all(g.values <= f.values + c + 1e-9)


def test_comparison_principle_identity():
    space = unit_path(4)
    f = path_field(space, [3.0, 2.0, 1.0, 0.0])
    result = comparison_principle(space, f, f, 0.0)
    assert result.holds
    assert result.worst_margin == 0.0


def test_comparison_principle_shifted_off_critical():
    # bump g above f away from the critical point: the slope dominance
    # precondition breaks at the boundary of the modification
    space = unit_path(4)
    f = path_field(space, [3.0, 2.0, 1.0, 0.0])
    g = path_field(space, [4.0, 3.0, 2.0, 0.0])
    with pytest.raises(PreconditionViolated) as exc:
        comparison_principle(space, f, g, 0.0)
    assert exc.value.which == "slope_dominance"


def test_epsilon_audit_contraction():
    space = unit_path(5)
    f = path_field(space, [4.0, 3.0, 2.0, 1.0, 0.0])
    g = ScalarField(space, 0.5 * f.values)
    audit = epsilon_audit(space, f, g, [1.0])
    row = audit.rows[0]
    assert row.crit_preserved
    assert row.dominance_ok
    assert row.bound_holds
    assert audit.bracket_uniform


def test_epsilon_audit_bound_converges():
    rng = random.Random(61)
    for _ in range(20):
        space = random_connected_graph(rng, n_max=20)
        f = random_dyadic_field(rng, space)
        g = ScalarField(space, 0.75 * f.values)
        epsilons = (1.0, 0.1, 0.01)
        audit = epsilon_audit(space, f, g, epsilons)
        assert audit.bracket_uniform
        f_range = float(f.values.max() - f.values.min())
        for row in audit.rows:
            assert row.crit_preserved and row.dominance_ok and row.bound_holds
            if row.worst_point is not None:
                x = row.worst_point
                # the audited bound sits within eps * range of g <= f + c
                assert g.values[x] <= f.values[x] + audit.constant \
                    + 3 * row.epsilon * f_range + 1e-9


def test_epsilon_audit_constant_field_trivial():
    space = unit_path(4)
    f = path_field(space, [1.0, 1.0, 1.0, 1.0])
    g = ScalarField(space, f.values.copy())
    audit = epsilon_audit(space, f, g, [1.0, 0.5])
    for row in audit.rows:
        assert row.bound_holds
        assert row.worst_point is None
    assert audit.bracket_uniform


def test_epsilon_audit_validates_epsilons():
    space = unit_path(3)
    f = path_field(space, [2.0, 1.0, 0.0])
    with pytest.raises(InvalidDecreasingList):
        epsilon_audit(space, f, f, [])
    with pytest.raises(InvalidDecreasingList):
        epsilon_audit(space, f, f, [0.1, 0.5])


def test_determine_shifted_random():
    rng = random.Random(71)
    for _ in range(100):
        space = random_connected_graph(rng, n_max=30)
        f = random_dyadic_field(rng, space)
        c = random_dyadic_constant(rng)
        g = ScalarField(space, f.values + c)
        report = determine(space, f, g)
        assert report.verdict.kind == VERDICT_EQUAL
        assert abs(report.verdict.constant - c) <= 1e-12
        assert report.residual <= 1e-12
        assert report.exit_code == 0


def test_determine_soundness_recheck():
    rng = random.Random(73)
    for _ in range(30):
        space = random_connected_graph(rng, n_max=20)
        f = random_dyadic_field(rng, space)
        g = ScalarField(space, f.values + 1.25)
        report = determine(space, f, g)
        if report.verdict.kind == VERDICT_EQUAL:
            c = report.verdict.constant
            recheck = float(np.max(np.abs(g.values - f.values - c)))
            assert recheck <= report.tolerances["tol_residual"]


def test_determine_symmetry():
    rng = random.Random(79)
    for _ in range(20):
        space = random_connected_graph(rng, n_max=20)
        f = random_dyadic_field(rng, space)
        c = random_dyadic_constant(rng)
        g = ScalarField(space, f.values + c)
        fwd = determine(space, f, g)
        bwd = determine(space, g, f)
        assert fwd.verdict.kind == bwd.verdict.kind == VERDICT_EQUAL
        assert fwd.verdict.constant == -bwd.verdict.constant


def test_determine_scaling_robustness():
    rng = random.Random(83)
    for _ in range(20):
        space = random_connected_graph(rng, n_max=20)
        f = random_dyadic_field(rng, space)
        c = random_dyadic_constant(rng)
        g = ScalarField(space, f.values + c)
        base = determine(space, f, g)
        lam = 2.0
        scaled = determine(space, ScalarField(space, lam * f.values),
                           ScalarField(space, lam * g.values))
        assert scaled.verdict.kind == base.verdict.kind == VERDICT_EQUAL
        assert scaled.verdict.constant == lam * base.verdict.constant


def test_determine_mirrored_pair_verdict():
    grid, f, g = mirrored_pair_on_grid()
    h = grid.edges[0][2]
    report = determine(grid, f, g, tol_slope=5 * h,
                       tol_crit=grid_critical_tol(h))
    assert report.verdict.kind == VERDICT_VIOLATED
    assert report.verdict.violated == ("diff_constant_on_crit",)
    assert report.exit_code == 2
    kinds = {w.kind: w for w in report.witnesses}
    assert "diff_max" in kinds and "diff_min" in kinds
    ts = grid.coordinates
    assert abs(ts[kinds["diff_max"].point] + math.pi / 2) <= h
    assert abs(ts[kinds["diff_min"].point] - math.pi / 2) <= h


def test_determine_arctan_pair_boundary_witness():
    grid = sample_interval(-5.0, 5.0, 2001)
    ts = grid.coordinates
    f = ScalarField(grid, np.arctan(ts))
    g = ScalarField(grid, -np.arctan(ts))
    report = determine(grid, f, g)
    assert report.verdict.kind == VERDICT_VIOLATED
    assert "slopes_equal" in report.verdict.violated
    # monotone truncation plants the disagreement at the boundary
    assert report.diagnostics.slopes_equal.worst_point in (0, grid.n - 1)


def test_determine_inconclusive_on_sub_tolerance_bump():
    space = unit_path(4)
    f = path_field(space, [3.0, 2.0, 1.0, 0.0])
    bumped = f.values + 5.0
    bumped = bumped.copy()
    bumped[0] += 5e-10  # below slope tolerance, above residual tolerance
    g = ScalarField(space, bumped)
    report = determine(space, f, g, tol_slope=1e-8, tol_crit=1e-8,
                       tol_residual=1e-12)
    assert report.verdict.kind == VERDICT_INCONCLUSIVE
    assert report.exit_code == 3


def test_determine_infinite_slope_fails_finiteness():
    space = build_graph([(0, 1, 1e-13), (1, 2, 1.0)])
    f = path_field(space, [1.0, 0.0, 0.5])
    g = ScalarField(space, f.values.copy())
    report = determine(space, f, g)
    assert report.verdict.kind == VERDICT_VIOLATED
    assert "slopes_finite" in report.verdict.violated
    assert any(w.kind == "infinite_slope" for w in report.witnesses)


def connected_graphs(n):
    """All connected labeled graphs on n vertices (unit lengths)."""
    if n == 1:
        yield build_graph([], n=1)
        return
    pairs = list(combinations(range(n), 2))
    for bits in product((0, 1), repeat=len(pairs)):
        edges = [(u, v, 1.0) for (u, v), b in zip(pairs, bits) if b]
        if len(edges) < n - 1:
            continue
        space = build_graph(edges, n=n)
        from slopekit import is_connected
        if is_connected(space):
            yield space


def test_brute_force_uniqueness_small():
    # every field sharing its slope field and critical values is itself
    for n in (1, 2, 3, 4):
        for space in connected_graphs(n):
            groups = {}
            for vals in product((0.0, 1.0, 2.0, 3.0), repeat=n):
                f = ScalarField(space, np.array(vals))
                sf = slope_field(space, f)
                key = (tuple(sf.values),
                       tuple((p, vals[p]) for p in range(n)
                             if sf.values[p] == 0.0))
                groups.setdefault(key, []).append(vals)
            for members in groups.values():
                assert len(members) == 1


def test_every_returned_report_has_argmin_f_in_its_critical_set():
    # The slope of f is exactly 0 at a minimizer (every drop from it is
    # <= 0), and 0 is critical at every tolerance and below every cap.
    # So every report determine returns has the minimizers of f among
    # its critical points, the constancy check, a float residual and an
    # int slope-gap point; no report is built without them.
    rng = random.Random(1801)
    big = 1.7e308
    returned = {"dyadic": 0, "near range": 0}
    overflowed = 0
    for k in range(150):
        space = random_connected_graph(rng, n_max=20)
        if k % 2:
            kind = "dyadic"
            f = random_dyadic_field(rng, space)
            g = random_dyadic_field(rng, space) if k % 4 == 1 else \
                ScalarField(space, f.values + random_dyadic_constant(rng))
        else:
            kind = "near range"
            f, g = (ScalarField(space, np.array(
                [rng.choice((-big, big, 0.0, big * rng.uniform(-1.0, 1.0)))
                 for _ in range(space.n)])) for _ in range(2))
            if k % 4 == 2:  # g - f = -f / 2 stays finite
                g = ScalarField(space, f.values / 2)
        minimizers = set(np.flatnonzero(f.values == f.values.min()).tolist())
        for cap, tol_crit in product((1e12, 1.7e308, 1e-3), (0.0, 1e-9, 1.0)):
            try:
                report = determine(space, f, g, tol_crit=tol_crit, cap=cap)
            except DifferenceOverflow:
                overflowed += 1
                continue
            returned[kind] += 1
            diag = report.diagnostics
            assert minimizers <= set(diag.critical_points)
            assert type(diag.diff_constant_on_crit) is DiffConstancyCheck
            assert type(report.residual) is float
            assert type(diag.slopes_equal.worst_point) is int
    assert min(returned.values()) >= 150 and overflowed >= 200
