"""Metamorphic checks on the consumers of the slope kernel.

The metric slope depends only on the distances and on f, which gives
checks that need no oracle:

  (a) relabelling the points, with the edge list shuffled, is an
      isometry: it permutes the slope field, its infinity mask and the
      critical mask bit for bit, and leaves the constant and every
      row's flags, worst margin and bracket of `epsilon_audit`, and the
      verdict, constant and residual of `determine`, unchanged;
  (b) multiplying every edge length by 2^k divides every slope by 2^k
      exactly;
  (c) adding a dyadic constant to f leaves the slope field bitwise equal.

Point ids break ties (first-worst points, witnesses), so (a) compares
values, never ids. Fields are dyadic, so the mean of g - f over the
critical set is exact in any summation order; (a) runs again with
values near +-1.1e308 at the cap 1.7e308, with g = f + c so that the
differences stay small.
"""
import random

import numpy as np

import slopekit as sk
from slopekit.errors import SlopeKitError
from slopekit.testing import (
    random_connected_graph,
    random_dyadic_constant,
    random_dyadic_field,
)

EPSILONS = (0.5, 0.25, 0.125)
HUGE = (1.1e308, -1.1e308)


def relabelled(rng, space):
    """A random permutation p (point x becomes p[x]) and the space built
    from the relabelled edges in shuffled order and orientation."""
    p = list(range(space.n))
    rng.shuffle(p)
    edges = [(p[u], p[v], w) if rng.random() < 0.5 else (p[v], p[u], w)
             for u, v, w in space.edges]
    rng.shuffle(edges)
    return np.array(p), sk.build_graph(edges, n=space.n)


def moved(p, space, f):
    """f on the relabelled space: the value of point x at p[x]."""
    values = np.empty(space.n)
    values[p] = f.values
    return sk.ScalarField(space, values)


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def outcome(call, summary):
    """summary(call()), or the class of the error raised and the
    hypothesis it names, neither of which depends on point ids."""
    try:
        return summary(call())
    except SlopeKitError as exc:
        return type(exc), getattr(exc, "which", None)


def audit_summary(audit):
    return audit.constant, audit.bracket_uniform, [
        (row.epsilon, row.crit_preserved, row.dominance_ok, row.bound_holds,
         row.worst_margin, row.bracket_max) for row in audit.rows]


def report_summary(report):
    dc = report.diagnostics.diff_constant_on_crit
    return (report.verdict, report.residual, report.exit_code,
            None if dc is None else (dc.constant, dc.spread, dc.passed))


def check_relabelling(rng, space, f, g, cap):
    p, space2 = relabelled(rng, space)
    f2, g2 = moved(p, space2, f), moved(p, space2, g)
    for h, h2 in ((f, f2), (g, g2)):
        sf, sf2 = sk.slope_field(space, h, cap=cap), sk.slope_field(space2, h2, cap=cap)
        assert same_bits(sf2.values[p], sf.values)
        assert same_bits(sf2.infinite[p], sf.infinite)
        for tol in (0.0, 1e-9, 0.5):
            assert same_bits(sk.critical_set(sf2, tol).mask[p],
                             sk.critical_set(sf, tol).mask)
    assert outcome(lambda: sk.epsilon_audit(space2, f2, g2, EPSILONS, cap=cap),
                   audit_summary) == \
        outcome(lambda: sk.epsilon_audit(space, f, g, EPSILONS, cap=cap), audit_summary)
    assert outcome(lambda: sk.determine(space2, f2, g2, cap=cap), report_summary) == \
        outcome(lambda: sk.determine(space, f, g, cap=cap), report_summary)


def test_relabelling_permutes_slopes_and_keeps_audits_and_verdicts():
    rng = random.Random(1601)
    audits = verdicts = 0
    for k in range(300):
        space = random_connected_graph(rng, n_max=20)
        f = random_dyadic_field(rng, space)
        # alternately a dominated g (the audit returns), f + c (equal)
        # and an unrelated g (hypotheses fail)
        if k % 3 == 0:
            g = sk.ScalarField(space, f.values / 2)
        elif k % 3 == 1:
            g = sk.ScalarField(space, f.values + random_dyadic_constant(rng))
        else:
            g = random_dyadic_field(rng, space)
        check_relabelling(rng, space, f, g, sk.OVERFLOW_CAP)
        audits += k % 3 == 0
        verdicts += k % 3 == 1
    assert audits and verdicts


def test_relabelling_near_the_float_range():
    rng = random.Random(1602)
    kinds = set()
    for _ in range(200):
        space = random_connected_graph(rng, n_max=12)
        f = random_dyadic_field(rng, space)
        values = np.array([rng.choice(HUGE) if rng.random() < 0.3 else v
                           for v in f.values])
        f = sk.ScalarField(space, values)
        g = sk.ScalarField(space, values + random_dyadic_constant(rng))
        check_relabelling(rng, space, f, g, 1.7e308)
        kinds.add(bool(sk.slope_field(space, f, cap=1.7e308).any_infinite()))
    assert kinds == {False, True}


def test_scaled_lengths_divide_slopes_exactly():
    rng = random.Random(1603)
    for _ in range(100):
        space = random_connected_graph(rng, n_max=20)
        f = random_dyadic_field(rng, space)
        sf = sk.slope_field(space, f)
        for k in range(-3, 4):
            scaled = sk.build_graph([(u, v, w * 2.0 ** k) for u, v, w in space.edges],
                                    n=space.n)
            got = sk.slope_field(scaled, sk.ScalarField(scaled, f.values))
            assert same_bits(got.values, sf.values / 2.0 ** k)
            assert same_bits(got.infinite, sf.infinite)


def test_adding_a_constant_keeps_the_slope_field():
    rng = random.Random(1604)
    for _ in range(200):
        space = random_connected_graph(rng, n_max=20)
        f = random_dyadic_field(rng, space)
        g = sk.ScalarField(space, f.values + random_dyadic_constant(rng))
        sf, sg = sk.slope_field(space, f), sk.slope_field(space, g)
        assert same_bits(sg.values, sf.values)
        assert same_bits(sg.infinite, sf.infinite)
