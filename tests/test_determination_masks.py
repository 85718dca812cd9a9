"""Seeded differential suite for the mask form of the determination checks.

`_diagnose` reads each critical set as one boolean mask and picks its
witnesses by array selection. Here every derived diagnostic of
`determine` is recomputed point by point from
`reference_slope_field`: the critical sets, `only_in_f` and `only_in_g`,
the critical points, the constant, the spread and the two extremal
witnesses (`reference_extremal_witness`, the loop the selection
replaced). Some cases place values of g - f inside the witness tie
window, so the slope-then-id tie rule is exercised. The masks of
`epsilon_audit` and of the backward comparison in `determine` are
checked the same way, and the certificate that `determine` reads from
its residual against the two comparison principles it replaced
(`reference_determine_certificate`).
"""
import math
import random

import numpy as np

from slopekit import ScalarField, build_graph, determine, epsilon_audit
from slopekit.determination import _extremal_witness
from slopekit.io import render_determination_report
from slopekit.space import distances_from
from slopekit.testing import (
    random_connected_graph,
    random_dyadic_constant,
    random_dyadic_field,
    reference_determine_certificate,
    reference_extremal_witness,
    reference_slope_field,
)

TOLS = (0.0, 1e-9, 0.5, 2.0)
EPSILONS = (0.5, 0.125, 0.03125)


def make_g(rng, f, mode):
    n = len(f)
    if mode == "shift":
        return f.values + random_dyadic_constant(rng)
    if mode == "random":
        return random_dyadic_field(rng, f.space).values
    if mode == "mirror":
        return -f.values
    if mode == "bump":
        g = f.values + 1.0
        g[rng.randrange(n)] += rng.choice([0.25, 1e-10, 3.0])
        return g
    if mode == "near_ties":
        # 1e-13 lies inside the window (1e-12 for |g - f| <= 1), 2e-12 outside
        return f.values + 0.5 + np.array(
            [rng.choice([0.0, 1e-13, -1e-13, 2e-12, 0.25]) for _ in range(n)])
    return f.values + np.array([rng.choice([0.0, 1.0]) for _ in range(n)])


MODES = ("shift", "random", "mirror", "bump", "near_ties", "exact_ties")


def per_point_diagnostics(f, g, tol):
    """(crit_f, only_f, only_g, constant, spread, max witness, min
    witness) from per-point slopes and loops over the points."""
    sf, sg = reference_slope_field(f.space, f), reference_slope_field(g.space, g)
    crit_f = [x for x in range(len(f)) if not sf.infinite[x] and sf.values[x] <= tol]
    crit_g = [x for x in range(len(g)) if not sg.infinite[x] and sg.values[x] <= tol]
    only_f = tuple(sorted(set(crit_f) - set(crit_g)))
    only_g = tuple(sorted(set(crit_g) - set(crit_f)))
    if not crit_f:
        return tuple(crit_f), only_f, only_g, None
    diffs = [float(g.values[z] - f.values[z]) for z in crit_f]
    return tuple(crit_f), only_f, only_g, (
        float(np.mean(diffs)), max(diffs) - min(diffs),
        reference_extremal_witness(crit_f, diffs, sf.values, pick_max=True),
        reference_extremal_witness(crit_f, diffs, sf.values, pick_max=False))


def observed(diag):
    dc = diag.diff_constant_on_crit
    derived = None if dc is None else (
        dc.constant, dc.spread, (dc.max_point, dc.max_value),
        (dc.min_point, dc.min_value))
    return (diag.critical_points, diag.crit_sets_equal.only_in_f,
            diag.crit_sets_equal.only_in_g, derived)


def test_diagnostics_match_per_point_recomputation():
    rng = random.Random(10061)
    cases = ties = flips = 0
    for k in range(2400):
        space = random_connected_graph(rng, n_max=30)
        f = random_dyadic_field(rng, space)
        mode = MODES[k % len(MODES)]
        g = ScalarField(space, make_g(rng, f, mode))
        tol = TOLS[(k // len(MODES)) % len(TOLS)]
        want = per_point_diagnostics(f, g, tol)
        report = determine(space, f, g, tol_crit=tol)
        assert observed(report.diagnostics) == want, (k, mode, tol)
        if want[3] is not None:
            dc = report.diagnostics.diff_constant_on_crit
            if not dc.passed:
                got = [(w.point, w.value) for w in report.witnesses
                       if w.kind in ("diff_max", "diff_min")]
                assert got == [want[3][2], want[3][3]]
            diffs = g.values[list(want[0])] - f.values[list(want[0])]
            ties += int(np.count_nonzero(np.abs(diffs - want[3][2][1]) <= 1e-12) > 1)
        flips += bool(want[1] or want[2])
        cases += 1
    assert cases >= 2000
    # ties inside the window and differing critical sets both occur often
    assert ties > 500 and flips > 200


def test_witness_selection_matches_loop_on_awkward_values():
    """Signed zeros, infinities, overflowing gaps and near ties. Each
    case holds a finite value: with every value at an infinite extreme
    no value ties it (inf - inf is NaN) and neither form has a witness."""
    rng = random.Random(10067)
    finite = [0.0, -0.0, 1.0, 1.0 + 1e-13, 1.0 - 1e-13, 1e308, -1e308,
              5e-13, -5e-13, 1e12, 1e12 + 0.5]
    palette = finite + [math.inf, -math.inf]
    slopes_palette = [0.0, -0.0, 0.25, 0.5, 3.0]
    for _ in range(3000):
        m = rng.randint(1, 12)
        ids = sorted(rng.sample(range(40), m))
        values = [rng.choice(palette) for _ in range(m - 1)] + [rng.choice(finite)]
        rng.shuffle(values)
        slope_values = np.array([rng.choice(slopes_palette) for _ in range(40)])
        for pick_max in (True, False):
            want = reference_extremal_witness(ids, values, slope_values, pick_max)
            got = _extremal_witness(np.array(ids), np.array(values), slope_values,
                                    pick_max)
            assert got[0] == want[0]
            assert repr(got[1]) == repr(want[1])


def test_backward_comparison_reads_the_critical_set_of_g():
    # Point 1 is critical for g (flat) but not for f (slope 1e-8 > tol_crit),
    # and (f - g)(1) = 1e-5: the backward comparison, on the critical set
    # of g, fails its critical bound; on that of f it would not.
    space = build_graph([(0, 1, 1000.0)])
    f = ScalarField(space, np.array([0.0, 1e-5]))
    g = ScalarField(space, np.array([0.0, 0.0]))
    report = determine(space, f, g, tol_slope=1e-7, tol_crit=1e-9)
    assert report.diagnostics.crit_sets_equal.only_in_g == (1,)
    assert report.verdict.kind == "Inconclusive"
    assert [w.kind for w in report.witnesses] == ["residual", "precondition:critical_bound"]


def test_epsilon_audit_flags_match_per_point_recomputation():
    """`crit_preserved` and `dominance_ok` of every row against the
    critical sets of (1 + epsilon) f recomputed point by point."""
    rng = random.Random(10069)
    outcomes = set()
    for k in range(300):
        space = random_connected_graph(rng, n_max=20)
        f = random_dyadic_field(rng, space)
        g = ScalarField(space, rng.choice([0.25, 0.5, 0.875]) * f.values)
        crit_tol = (0.0, 0.5, 1.0)[k % 3]
        audit = epsilon_audit(space, f, g, EPSILONS, crit_tol=crit_tol)
        sf, sg = reference_slope_field(space, f), reference_slope_field(space, g)
        crit = [x for x in range(space.n) if sf.values[x] <= crit_tol]
        for e, row in zip(EPSILONS, audit.rows):
            se = reference_slope_field(space, ScalarField(space, f.values * (1.0 + e)))
            crit_e = [x for x in range(space.n) if se.values[x] <= crit_tol]
            dominance = all(sg.values[x] < se.values[x]
                            for x in range(space.n) if x not in crit_e)
            assert (row.crit_preserved, row.dominance_ok) == (crit_e == crit, dominance)
            outcomes.add((row.crit_preserved, row.dominance_ok))
    assert {(True, True), (False, True)} <= outcomes


PERTURBATIONS = (1e-12, 1e-9, 1e-6, 1e-3, 0.25)
CERT_TOLS = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.3)


def test_certificate_matches_the_two_comparison_principles():
    """The rendered report and exit code of `determine` against the
    oracle's, on g = f + c + a perturbation of size d. A third of the
    cases perturb random points; the rest tilt g by d times the distance
    from one point, which moves every slope by at most d, so with
    tol_slope a little above d the slope hypotheses pass while g - f - c
    spreads over the critical sets and the critical bounds and the
    residual test decide."""
    rng = random.Random(10079)
    kinds = {"EqualUpToConstant": 0, "HypothesisViolated": 0, "Inconclusive": 0}
    bounds = 0
    for k in range(2400):
        space = random_connected_graph(rng, n_max=30)
        f = random_dyadic_field(rng, space)
        d = rng.choice(PERTURBATIONS)
        if k % 3:
            delta = d * rng.choice((-1, 1)) * distances_from(
                space, rng.randrange(space.n))
            tols = dict(tol_slope=d * rng.choice((1.5, 3)),
                        tol_crit=rng.choice((1e-9, 0.3, 8 * d, 32 * d, 128 * d)),
                        tol_residual=rng.choice((None, 0.0, d, 8 * d, 0.3)))
        else:
            p = rng.choice((0.1, 0.5, 1.0))
            delta = np.array([d * rng.choice((-1, 1)) if rng.random() < p else 0.0
                              for _ in range(space.n)])
            tols = dict(tol_slope=rng.choice(CERT_TOLS), tol_crit=rng.choice(CERT_TOLS),
                        tol_residual=rng.choice((None,) + CERT_TOLS))
        g = ScalarField(space, f.values + random_dyadic_constant(rng) + delta)
        got = determine(space, f, g, **tols)
        want = reference_determine_certificate(space, f, g, **tols)
        assert (render_determination_report(got), got.exit_code) == \
            (render_determination_report(want), want.exit_code), (k, tols)
        kinds[got.verdict.kind] += 1
        bounds += any(w.kind == "precondition:critical_bound" for w in got.witnesses)
    assert min(kinds.values()) >= 300 and kinds["Inconclusive"] >= 500
    assert bounds >= 50
