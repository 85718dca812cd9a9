"""The small-space fast paths against the loops they replaced.

`epsilon_audit` scales f by every 1 + epsilon at once and takes one
edge pass over all the rows; `testing.reference_epsilon_audit` scales f
and takes its slopes one epsilon at a time. `descent._step` works on
Python floats; `testing.reference_descent_step` on np.float64 values
under `np.errstate`. On seeded graphs of up to 50 points, with dyadic
values and with values near +-1.7e308, at the default cap and at
1.7e308, both give results equal bit for bit, or raise the same class
with the same message, and neither warns (RuntimeWarning is an error
here). Fields that the kernels build without the constructor checks
pass those checks unchanged.
"""
import dataclasses
import random
import struct
from collections import Counter

import numpy as np
import pytest

import slopekit as sk
from slopekit import NoStep, ScalarField, SlopeField
from slopekit.testing import (
    random_connected_graph,
    random_dyadic_constant,
    random_dyadic_field,
    reference_descent_step,
    reference_epsilon_audit,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EXTREMES = (1.7e308, -1.7e308, 1e308, -1e308, 8.9e307, -8.9e307, 1e-308,
            0.0, -0.0, 0.5, -1.25, 3.0)
CAPS = (sk.OVERFLOW_CAP, 1.7e308)
EPSILONS = (1.0, 0.5, 0.125, 0.03125, 1e-300)


def bits(value):
    """`value` with every float as its 8 bytes, so that == compares bit
    for bit (signed zeros and all); dataclasses become (class, fields)."""
    if isinstance(value, (float, np.floating)):
        return struct.pack("<d", value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value


def outcome(call):
    """("ok", the result in bits) or (error class, message)."""
    try:
        return "ok", bits(call())
    except sk.errors.SlopeKitError as exc:
        return type(exc), str(exc)


def seeded_cases(seed, trials):
    """(rng, space, f, g, cap). f is dyadic, drawn from EXTREMES, or a
    dyadic step pattern on top of a value near the float range, whose
    slopes are finite at the larger cap and whose scaled copies
    overflow; g is unrelated to f or a contraction of it (whose slope f
    often dominates). Either cap is drawn."""
    rng = random.Random(seed)
    for _ in range(trials):
        space = random_connected_graph(rng, n_max=50)
        kind = rng.randrange(3)
        if kind == 0:
            f = random_dyadic_field(rng, space)
        elif kind == 1:
            f = ScalarField(space, np.array([rng.choice(EXTREMES)
                                             for _ in range(space.n)]))
        else:
            base = rng.choice((1.7e308, -1.7e308, 1e308, -1e308, 8.9e307))
            f = ScalarField(space, base + 2.0**975 * random_dyadic_field(
                rng, space).values * 1024)
        if rng.random() < 0.5:
            g = ScalarField(space, rng.choice((0.0, 0.5, 0.875)) * f.values)
        elif rng.random() < 0.5:
            g = random_dyadic_field(rng, space)
        else:
            g = ScalarField(space, np.array([rng.choice(EXTREMES)
                                             for _ in range(space.n)]))
        yield rng, space, f, g, rng.choice(CAPS)


def test_epsilon_audit_matches_the_loop_over_epsilons():
    seen = Counter()
    for rng, space, f, g, cap in seeded_cases(2719, 1200):
        epsilons = sorted(rng.sample(EPSILONS, rng.randint(1, 4)), reverse=True)
        if rng.random() < 0.05:
            epsilons.append(epsilons[-1])  # not strictly decreasing
        knobs = dict(c=rng.choice((None, None, random_dyadic_constant(rng), 1e308)),
                     tol=rng.choice((1e-9, 0.0)),
                     crit_tol=rng.choice((0.0, 0.0, 1e-9, 0.5)), cap=cap)
        got = outcome(lambda: sk.epsilon_audit(space, f, g, epsilons, **knobs))
        want = outcome(lambda: reference_epsilon_audit(space, f, g, epsilons, **knobs))
        assert got == want
        seen[got[0] if got[0] == "ok" else got[0].__name__] += 1
    # the audit returns, meets an overflowing scale and a failed hypothesis
    assert seen["ok"] > 150
    assert seen["NonFiniteFieldValue"] > 30
    assert seen["PreconditionViolated"] > 500
    assert seen["InvalidDecreasingList"] > 30


def test_overflowing_scale_is_named_before_any_edge_pass():
    # (1 + 1.0) * 1e308 overflows at point 1 and (1 + 0.5) * 1.7e308 at
    # points 1 and 2: the first epsilon and its first point are named
    space = sk.build_graph([(0, 1, 1.0), (1, 2, 1.0)])
    f = ScalarField(space, np.array([0.0, 1e308, 1.7e308]))
    g = ScalarField(space, np.zeros(3))
    for epsilons, message in (([1.0, 0.5], "2.0 * f overflows at point 1"),
                              ([0.5, 0.125], "1.5 * f overflows at point 2")):
        got = outcome(lambda: sk.epsilon_audit(space, f, g, epsilons, cap=1.7e308))
        assert got == (sk.errors.NonFiniteFieldValue, message)
        assert got == outcome(lambda: reference_epsilon_audit(
            space, f, g, epsilons, cap=1.7e308))


def test_audit_rows_at_the_cap_and_at_equal_slopes():
    space = sk.build_graph([(0, 1, 1.0)])
    zero = ScalarField(space, np.zeros(2))
    # (1 + 0.5) * f has slope 1.5 at point 1: equal to the cap, so finite,
    # and critical at crit_tol 1.5 like the slope 1 of f
    f = ScalarField(space, np.array([0.0, 1.0]))
    audit = sk.epsilon_audit(space, f, zero, [0.5], crit_tol=1.5, cap=1.5)
    assert audit.rows[0].crit_preserved
    # the slope of g equals that of 1.5 * f at point 1, so it is not below it
    f = ScalarField(space, np.array([0.0, 1e-10]))
    g = ScalarField(space, np.array([0.0, 1e-10 * 1.5]))
    audit = sk.epsilon_audit(space, f, g, [0.5])
    assert not audit.rows[0].dominance_ok
    for args, knobs in (((f, zero, [0.5]), dict(crit_tol=1.5, cap=1.5)),
                        ((f, g, [0.5]), {})):
        assert outcome(lambda: sk.epsilon_audit(space, *args, **knobs)) == \
            outcome(lambda: reference_epsilon_audit(space, *args, **knobs))


def reference_path(space, f, g, x0, crit, cap):
    """The points of a descent path from x0 by reference steps, or the
    step outcome that ends it early."""
    points = [x0]
    while not crit.mask[points[-1]] and len(points) <= space.n:
        step = outcome(lambda: reference_descent_step(space, f, g, points[-1], cap))
        if step[0] != "ok" or isinstance(step[1], tuple):
            return step
        points.append(step[1])
    return tuple(points)


def test_descent_step_matches_the_float64_loop():
    seen = Counter()
    for _, space, f, g, cap in seeded_cases(3181, 400):
        crit = sk.critical_set(sk.slope_field(space, f, cap=cap))
        for x in (~crit.mask).nonzero()[0].tolist():
            got = outcome(lambda: sk.descent_step(space, f, g, x, crit, cap=cap))
            assert got == outcome(lambda: reference_descent_step(space, f, g, x, cap))
            seen[got[0] if got[0] == "ok" else got[0].__name__] += 1
            if isinstance(got[1], tuple):
                seen["NoStep"] += 1
            path = outcome(lambda: sk.descent_path(space, f, g, x, crit, cap=cap))
            if path[0] == "ok":
                points, f_vals, diff_vals, _ = path[1][1]
                assert points == reference_path(space, f, g, x, crit, cap)
                assert f_vals == bits([float(f.values[p]) for p in points])
                assert diff_vals == bits([float(f.values[p]) - float(g.values[p])
                                          for p in points])
    # steps are taken, refused for dominance and (with overflow) found stuck
    assert seen["ok"] > 3000
    assert seen["SlopeDominanceViolated"] > 1000
    assert seen["NoStep"] > 10


def test_no_step_reports_python_floats_with_the_reference_bits():
    # (f - g)(0) = -1e308 - 1e308 overflows to -inf, so no step lowers it,
    # though the slope of f at 0, 7e307, is above that of g, 0
    space = sk.build_graph([(0, 1, 1.0)])
    f = ScalarField(space, np.array([-1e308, -1.7e308]))
    g = ScalarField(space, np.array([1e308, 1e308]))
    crit = sk.critical_set(sk.slope_field(space, f, cap=1.7e308))
    got = sk.descent_step(space, f, g, 0, crit, cap=1.7e308)
    want = reference_descent_step(space, f, g, 0, 1.7e308)
    assert isinstance(got, NoStep) and bits(got) == bits(want)
    assert type(got.slope_f) is float and type(got.slope_g) is float
    # (f - g)(0) and (f - g)(1) overflow to inf; point 2, level with 0 in
    # f, lowers f - g but is no descent step
    space = sk.build_graph([(0, 1, 1.0), (0, 2, 1.0)])
    f = ScalarField(space, np.array([1.7e308, 1e308, 1.7e308]))
    g = ScalarField(space, np.array([-1e308, -1e308, 0.0]))
    crit = sk.critical_set(sk.slope_field(space, f, cap=1.7e308))
    got = sk.descent_step(space, f, g, 0, crit, cap=1.7e308)
    assert isinstance(got, NoStep)
    assert (got.slope_f, got.slope_g) == (1.7e308 - 1e308, 0.0)
    assert bits(got) == bits(reference_descent_step(space, f, g, 0, 1.7e308))


def test_kernel_built_fields_pass_the_public_checks():
    for rng, space, f, g, cap in seeded_cases(4409, 300):
        for field in (f, g):
            sf = sk.slope_field(space, field, cap=cap)
            again = SlopeField(space, sf.values, sf.infinite, cap=sf.cap)
            assert again.values.tobytes() == sf.values.tobytes()
            assert again.infinite.tobytes() == sf.infinite.tobytes()
            assert (again.provenance, again.cap) == (sf.provenance, sf.cap)
            assert not (sf.values.flags.writeable or sf.infinite.flags.writeable)
        for scale in (2.0, 1.5, 0.5, 1e-300):
            try:
                scaled = sk.scale_field(f, scale)
            except sk.errors.NonFiniteFieldValue:
                continue
            again = ScalarField(space, scaled.values)
            assert again.values.tobytes() == scaled.values.tobytes()
            assert scaled.space is space and not scaled.values.flags.writeable
        sf = sk.slope_field(space, f, cap=cap)
        if sf.any_infinite():
            continue
        crit = sk.critical_set(sf, 1e-9)
        data = sk.SlopeData(sf, {p: f[p] for p in crit.sorted_members()})
        try:
            rebuilt = sk.reconstruct(space, data)
        except sk.errors.SlopeKitError:
            continue
        if isinstance(rebuilt, ScalarField):
            assert ScalarField(space, rebuilt.values).values.tobytes() \
                == rebuilt.values.tobytes()
            assert not rebuilt.values.flags.writeable
