"""Metamorphic checks on slopekit's layers.

The metric slope depends only on the distances and on f, which gives
checks that need no oracle:

  (a) relabelling the points, with the edge list shuffled, is an
      isometry: it permutes the slope field, its infinity mask and the
      critical mask bit for bit, and leaves the constant and every
      row's flags, worst margin and bracket of `epsilon_audit`, and the
      verdict, constant and residual of `determine`, unchanged; it
      permutes reconstructions, their witnesses and comparison floors
      bit for bit, maps descent paths to descent paths and keeps the
      outcome of `verify_strict_comparison`;
  (b) multiplying every edge length by 2^k divides every slope by 2^k
      exactly;
  (c) adding a dyadic constant to f leaves the slope field bitwise equal;
  (d) the row order of an input CSV changes no byte of the CLI's output.

Point ids break ties (first-worst points, witnesses, descent
successors, the first failing point of a strict comparison), so (a)
compares values there, never ids: a relabelled descent path, mapped
back, must be a descent path of the original whose every step is one
of the steepest admissible ones, and it is the original path itself
when no step had a tie. These fields are dyadic, so the mean of g - f
over the critical set is exact in any summation order; (a) runs again
with values near +-1.1e308 at the cap 1.7e308, with g = f + c so that
the differences stay small. On trees with g = f + c for a non-dyadic c
the differences g - f vary in their last bits, and relabelling must
still keep the constant and the residual of `determine` bit for bit.
"""
import random

import numpy as np
import pytest

import slopekit as sk
import slopekit.io as skio
from slopekit.cli import main
from slopekit.errors import SlopeKitError
from slopekit.testing import (
    random_connected_graph,
    random_dyadic_constant,
    random_dyadic_field,
)

pytestmark = pytest.mark.filterwarnings("error")

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
            (dc.constant, dc.spread, dc.passed))


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


def plateau_tree(rng):
    """A random tree of 20-400 points and a field that mostly copies the
    value of a point's parent, else takes a new integer in [-1000, 1000]."""
    n = rng.randint(20, 400)
    parents = [rng.randrange(v) for v in range(1, n)]
    space = sk.build_graph([(u, v, rng.choice((0.25, 0.5, 1.0, 2.0)))
                            for v, u in enumerate(parents, 1)])
    values = [0.0]
    for u in parents:
        values.append(values[u] if rng.random() < 0.8 else float(rng.randint(-1000, 1000)))
    return space, sk.ScalarField(space, np.array(values))


def test_relabelling_keeps_a_non_dyadic_constant_bit_for_bit():
    # with the numpy mean the constant or the residual changed in 107 of
    # these 400 pairs
    rng = random.Random(1801)
    for _ in range(400):
        space, f = plateau_tree(rng)
        g = sk.ScalarField(space, f.values + rng.uniform(-10.0, 10.0))
        p, space2 = relabelled(rng, space)
        report = sk.determine(space, f, g, tol_crit=1e-2)
        report2 = sk.determine(space2, moved(p, space2, f), moved(p, space2, g),
                               tol_crit=1e-2)
        bits = [(r.diagnostics.diff_constant_on_crit.constant.hex(), r.residual.hex())
                for r in (report, report2)]
        assert bits[0] == bits[1]


def descent_candidates(space, f, g, x):
    """The quotient (f(x) - f(z)) / d(x, z) of every adjacent z at which
    both f and f - g fall strictly."""
    fx, dx = f.values[x], f.values[x] - g.values[x]
    return {z: (fx - f.values[z]) / d for z, d in sk.neighbors(space, x)
            if f.values[z] < fx and f.values[z] - g.values[z] < dx}


def check_descent_path(space, f, g, crit, points):
    """Whether `points` is a descent path of (f, g) to the critical set
    whose every step takes a steepest candidate; and whether every step
    had a single steepest candidate."""
    tie_free = True
    for x, z in zip(points, points[1:]):
        assert not crit.mask[x]
        quotients = descent_candidates(space, f, g, x)
        steepest = max(quotients.values())
        assert quotients.get(z) == steepest
        tie_free = tie_free and list(quotients.values()).count(steepest) == 1
    assert crit.mask[points[-1]]
    return tie_free


def check_relabelled_consumers(rng, space, f, g, dominated):
    """(a) for comparison floors, strict comparison, reconstruction from
    the values of f on its critical set and, when g is dominated by f,
    descent paths from every other point. Returns the numbers of descent
    paths with and without a tie, and the strict comparison's report."""
    p, space2 = relabelled(rng, space)
    back = np.argsort(p)  # back[p[x]] == x
    f2, g2 = moved(p, space2, f), moved(p, space2, g)
    sf, sf2 = sk.slope_field(space, f), sk.slope_field(space2, f2)
    crit, crit2 = sk.critical_set(sf, 0.0), sk.critical_set(sf2, 0.0)
    floors = [sk.comparison_floor(space, f, g, x, crit) for x in range(space.n)]
    for x in range(space.n):
        assert repr(sk.comparison_floor(space2, f2, g2, int(p[x]), crit2)) == \
            repr(floors[x])

    # Under strict dominance a descent path from x ends at a critical
    # point below both f(x) and (f - g)(x), so the comparison holds: the
    # outcomes are a dominance witness, checked by value, or a pass.
    strict = sk.verify_strict_comparison(space, f, g, crit)
    strict2 = sk.verify_strict_comparison(space2, f2, g2, crit2)
    assert (strict2.dominance_ok, strict2.comparison_holds, strict2.checked) == \
        (strict.dominance_ok, strict.comparison_holds, strict.checked)
    if not strict2.dominance_ok:
        x = int(back[strict2.dominance_witness])
        assert not crit.mask[x]
        assert not sf.values[x] > sk.slope_field(space, g).values[x]

    ties = untied = 0
    if dominated:
        for x in (~crit.mask).nonzero()[0].tolist():
            path = sk.descent_path(space, f, g, x, crit)
            path2 = sk.descent_path(space2, f2, g2, int(p[x]), crit2)
            mapped = back[list(path2.points)].tolist()
            assert same_bits(np.array(path2.f_values), f.values[mapped])
            assert same_bits(np.array(path2.diff_values),
                             f.values[mapped] - g.values[mapped])
            if check_descent_path(space, f, g, crit, mapped):
                assert mapped == list(path.points)
                untied += 1
            else:
                ties += 1

    items = [(x, float(f.values[x])) for x in crit.sorted_members()]
    rng.shuffle(items)
    bumped = sf.values.copy()
    bumped[rng.randrange(space.n)] += 1.0
    for values in (sf.values, bumped):
        out = sk.reconstruct(space, sk.SlopeData(
            sk.SlopeField(space, values, sf.infinite), dict(items)))
        moved_values = np.empty(space.n)
        moved_values[p] = values
        out2 = sk.reconstruct(space2, sk.SlopeData(
            sk.SlopeField(space2, moved_values, sf2.infinite),
            {int(p[x]): v for x, v in items}))
        assert type(out2) is type(out)
        if isinstance(out, sk.Inadmissible):
            assert sorted((int(p[w.point]), w.expected, w.recomputed)
                          for w in out.witnesses) == \
                [(w.point, w.expected, w.recomputed) for w in out2.witnesses]
        else:
            assert same_bits(out2.values[p], out.values)
    return ties, untied, strict


def test_relabelling_keeps_floors_paths_comparisons_and_reconstructions():
    rng = random.Random(1605)
    paths = np.zeros(2, dtype=int)
    outcomes = set()
    for k in range(200):
        space = random_connected_graph(rng, n_max=20)
        # a narrow range of values half the time, so that descent
        # quotients tie
        f = random_dyadic_field(rng, space, *((-2048, 2048), (-2, 2))[k % 4 // 2])
        dominated = k % 2 == 0
        g = sk.ScalarField(space, f.values * rng.choice((0.5, 0.25))) if dominated \
            else random_dyadic_field(rng, space)
        *counts, strict = check_relabelled_consumers(rng, space, f, g, dominated)
        paths += counts
        outcomes.add((strict.dominance_ok, strict.comparison_holds))
    assert paths.min() >= 30
    assert outcomes == {(True, True), (False, None)}


def shuffled_rows(text, rng):
    """The CSV text with its data rows (every line after the header) in
    random order."""
    header, *rows = text.splitlines(keepends=True)
    rng.shuffle(rows)
    return header + "".join(rows)


def cli_bytes(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_csv_row_order_changes_no_cli_byte(tmp_path, monkeypatch, capsys):
    # Both copies of the inputs have the same relative names, so that
    # paths in messages agree.
    rng = random.Random(1606)
    commands = (
        ["slope", "--space", "graph.csv", "--f", "f.csv"],
        ["crit", "--space", "graph.csv", "--f", "f.csv", "--tol-crit", "0"],
        ["crit", "--space", "graph.csv", "--slopes", "slopes.csv"],
        ["determine", "--space", "graph.csv", "--f", "f.csv", "--g", "g_equal.csv"],
        ["determine", "--space", "graph.csv", "--f", "f.csv", "--g", "g_other.csv"],
        ["reconstruct", "--space", "graph.csv", "--slopes", "slopes.csv",
         "--crit-values", "crit.csv"],
        ["reconstruct", "--space", "graph.csv", "--slopes", "bumped.csv",
         "--crit-values", "crit.csv"],
    )
    codes = set()
    for k in range(12):
        space = random_connected_graph(rng, n_max=30)
        f = random_dyadic_field(rng, space)
        sf = sk.slope_field(space, f)
        crit = sk.critical_set(sf, 0.0)
        bumped = sf.values.copy()
        bumped[rng.randrange(space.n)] += 1.0
        files = {
            "graph.csv": skio.render_graph_csv(space),
            "f.csv": skio.render_field_csv(f),
            "g_equal.csv": skio.render_field_csv(sk.ScalarField(
                space, f.values + random_dyadic_constant(rng))),
            "g_other.csv": skio.render_field_csv(random_dyadic_field(rng, space)),
            "slopes.csv": skio.render_slope_csv(sf),
            "bumped.csv": skio.render_slope_csv(sk.SlopeField(space, bumped, sf.infinite)),
            "crit.csv": "point,value\n" + "".join(
                f"{x},{skio.fmt(f.values[x])}\n" for x in crit.sorted_members()),
        }
        outputs = []
        for name, transform in (("as_written", lambda text: text),
                                ("shuffled", lambda text: shuffled_rows(text, rng))):
            folder = tmp_path / f"{k}_{name}"
            folder.mkdir()
            for file, text in files.items():
                (folder / file).write_text(transform(text))
            monkeypatch.chdir(folder)
            outputs.append([cli_bytes(capsys, argv) for argv in commands])
        assert outputs[0] == outputs[1]
        codes.update(code for code, _, _ in outputs[0])
    assert codes == {0, 1, 2}


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
