"""Tests of the benchmark's reference computations and checkers.

Each checker must accept a hand-worked example and reject a corrupted
copy of it. The main example is the 3-point path 0 - 1 - 2 with unit
lengths and f = (2, 1, 0): its slopes are (1, 1, 0) and its critical
set is {2}. Program outputs come from slopekit itself; the corrupted
copies are made here.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks as ck  # noqa: E402
import slopekit as sk  # noqa: E402
from slopekit import io as skio  # noqa: E402

EDGES = [(0, 1, 1.0), (1, 2, 1.0)]
F = np.array([2.0, 1.0, 0.0])
G = 0.5 * F                       # f - g = (1, 0.5, 0), decreasing towards 2
SLOPES = np.array([1.0, 1.0, 0.0])
ADJ = ck.adjacency(3, EDGES)


@pytest.fixture
def path():
    space = sk.build_graph(EDGES)
    return space, sk.ScalarField(space, F), sk.ScalarField(space, G)


def rejects(check, *args, **kwargs):
    with pytest.raises(ck.CheckFailed):
        check(*args, **kwargs)


def off_by_one_ulp(sf, point):
    values = sf.values.copy()
    values[point] = np.nextafter(values[point], math.inf)
    return sk.SlopeField(sf.space, values, sf.infinite.copy(), cap=sf.cap)


# ---- reference computations ----

def test_references_on_the_path():
    assert np.array_equal(ck.scan_slopes(ADJ, F), SLOPES)
    assert np.array_equal(ck.grid_slopes(F, 1.0), SLOPES)
    assert ck.critical_points(SLOPES) == [2]
    table = ck.FloorTable(F, G, [2])
    assert [table.floor(v) for v in F] == [0.0, 0.0, 0.0]
    assert table.floor(-1.0) is None


def test_floor_table_takes_the_minimum_below():
    f = np.array([0.0, 1.0, 2.0, 3.0])
    g = np.array([-1.0, 0.0, 5.0, 0.0])      # f - g = (1, 1, -3, 3)
    table = ck.FloorTable(f, g, [0, 2, 3])
    assert [table.floor(v) for v in (0.0, 1.5, 2.0, 3.0)] == [1.0, 1.0, -3.0, -3.0]


# ---- slopes and critical sets ----

def test_check_slopes(path):
    space, f, _ = path
    sf = sk.slope_field(space, f)
    ck.check_slopes("path", sf, SLOPES)
    rejects(ck.check_slopes, "path", off_by_one_ulp(sf, 0), SLOPES)
    rejects(ck.check_slopes, "path", off_by_one_ulp(sf, 2), SLOPES)


def test_check_members(path):
    space, f, _ = path
    crit = sk.critical_set(sk.slope_field(space, f), 0.0)
    ck.check_members("path", crit.members, [2])
    rejects(ck.check_members, "path", crit.members, [1])
    rejects(ck.check_members, "path", frozenset({1, 2}), [2])


def test_check_closed_form():
    n = 4001
    ts = np.linspace(-math.pi, math.pi, n)
    h = 2.0 * math.pi / (n - 1)
    slopes = ck.grid_slopes(ck.square_sine(ts), h)
    ck.check_closed_form(ts, slopes, h)
    bad = slopes.copy()
    bad[n // 2] += 1e-2
    rejects(ck.check_closed_form, ts, bad, h)


# ---- determination ----

def test_check_equal_verdict(path):
    space, f, _ = path
    report = sk.determine(space, f, sk.ScalarField(space, F + 5.0))
    ck.check_equal_verdict(report, 5.0, 1e-12)
    rejects(ck.check_equal_verdict, report, 5.0 + 1e-6, 1e-9)
    wrong = dataclasses.replace(report, verdict=sk.Verdict("HypothesisViolated", None,
                                                           ("slopes_equal",)))
    rejects(ck.check_equal_verdict, wrong, 5.0, 1e-12)


def test_check_mirrored_verdict():
    n = 4001
    space = sk.sample_interval(-math.pi, math.pi, n)
    ts = space.coordinates
    h = 2.0 * math.pi / (n - 1)
    f = sk.ScalarField(space, ck.square_sine(ts))
    g = sk.ScalarField(space, ck.square_sine(-ts))
    report = sk.determine(space, f, g, tol_slope=5 * h, tol_crit=sk.grid_critical_tol(h))
    ck.check_mirrored_verdict(report, ts, h)
    equal = sk.determine(space, f, f, tol_slope=5 * h, tol_crit=sk.grid_critical_tol(h))
    rejects(ck.check_mirrored_verdict, equal, ts, h)
    moved = tuple(dataclasses.replace(w, point=w.point + 2) if w.kind == "diff_max" else w
                  for w in report.witnesses)
    rejects(ck.check_mirrored_verdict, dataclasses.replace(report, witnesses=moved), ts, h)


# ---- reconstruction ----

def test_check_field_and_rejection(path):
    space, f, _ = path
    sf = sk.slope_field(space, f)
    rebuilt = sk.reconstruct(space, sk.SlopeData(sf, {2: 0.0}))
    ck.check_field("path", rebuilt, F, 0.0)
    off = sk.ScalarField(space, rebuilt.values + np.array([0.0, 1e-6, 0.0]))
    rejects(ck.check_field, "path", off, F, 1e-9)

    bumped = sf.values.copy()
    bumped[2] += 1.0
    perturbed = sk.SlopeField(space, bumped, sf.infinite.copy(), cap=sf.cap)
    rejected = sk.reconstruct(space, sk.SlopeData(perturbed, {2: 0.0}))
    ck.check_rejected(rejected, 2)
    rejects(ck.check_field, "path", rejected, F, 1e-9)
    rejects(ck.check_rejected, rebuilt, 2)
    rejects(ck.check_rejected, rejected, 0)


# ---- descent and comparison ----

def test_check_descent_path(path):
    space, f, g = path
    crit = sk.critical_set(sk.slope_field(space, f), 0.0)
    walk = sk.descent_path(space, f, g, 0, crit)
    assert walk.points == (0, 1, 2)
    ck.check_descent_path(walk, 0, F, G, ADJ, {2}, 3)
    stalls = sk.DescentPath((0, 1, 1, 2), (2.0, 1.0, 1.0, 0.0), (1.0, 0.5, 0.5, 0.0), True)
    rejects(ck.check_descent_path, stalls, 0, F, G, ADJ, {2}, 3)
    short = sk.DescentPath((0, 1), (2.0, 1.0), (1.0, 0.5), False)
    rejects(ck.check_descent_path, short, 0, F, G, ADJ, {2}, 3)
    jumps = sk.DescentPath((0, 2), (2.0, 0.0), (1.0, 0.0), True)
    rejects(ck.check_descent_path, jumps, 0, F, G, ADJ, {2}, 3)
    rising_diff = np.array([2.0, 1.25, 0.0])   # f - g = (0, -0.25, 0) rises on 1 -> 2
    rejects(ck.check_descent_path, walk, 0, F, rising_diff, ADJ, {2}, 3)


def test_check_floor(path):
    space, f, g = path
    crit = sk.critical_set(sk.slope_field(space, f), 0.0)
    table = ck.FloorTable(F, G, [2])
    for x in range(3):
        ck.check_floor(sk.comparison_floor(space, f, g, x, crit), table.floor(F[x]), x)
    rejects(ck.check_floor, 0.5, 0.0, 0)
    rejects(ck.check_floor, sk.NO_CRITICAL_BELOW, 0.0, 0)
    ck.check_floor(sk.NO_CRITICAL_BELOW, None, 0)
    rejects(ck.check_floor, 0.0, None, 0)


def test_check_strict_comparison(path):
    space, f, g = path
    crit = sk.critical_set(sk.slope_field(space, f), 0.0)
    report = sk.verify_strict_comparison(space, f, g, crit)
    ck.check_strict_comparison(report, 2)
    rejects(ck.check_strict_comparison, report, 3)
    rejects(ck.check_strict_comparison,
            dataclasses.replace(report, comparison_holds=False, violation_point=0), 2)
    rejects(ck.check_strict_comparison,
            dataclasses.replace(report, dominance_ok=False, dominance_witness=0), 2)


def test_check_epsilon_audit(path):
    space, f, g = path
    epsilons = (0.5, 0.125)
    audit = sk.epsilon_audit(space, f, g, epsilons)
    c, rows = ck.epsilon_rows(F, G, [2], epsilons)
    assert c == 0.0
    ck.check_epsilon_audit(audit, c, rows)
    rejects(ck.check_epsilon_audit, dataclasses.replace(audit, constant=1.0), c, rows)
    rejects(ck.check_epsilon_audit, dataclasses.replace(audit, bracket_uniform=False), c, rows)
    first = audit.rows[0]
    for change in ({"crit_preserved": False}, {"dominance_ok": False},
                   {"worst_margin": first.worst_margin + 1e-6}, {"worst_point": 2}):
        bad = (dataclasses.replace(first, **change),) + audit.rows[1:]
        rejects(ck.check_epsilon_audit, dataclasses.replace(audit, rows=bad), c, rows)


def test_check_epsilon_audit_without_noncritical_points(path):
    space, _, _ = path
    flat = sk.ScalarField(space, np.ones(3))          # every point critical
    half = sk.ScalarField(space, 0.5 * np.ones(3))
    audit = sk.epsilon_audit(space, flat, half, (0.5,))
    c, rows = ck.epsilon_rows(np.ones(3), 0.5 * np.ones(3), [0, 1, 2], (0.5,))
    assert rows == [(None, None, 0.0)]
    ck.check_epsilon_audit(audit, c, rows)
    rejects(ck.check_epsilon_audit, audit, c, [(None, -1.0, 0.0)])


# ---- command-line output files ----

def test_check_slope_and_crit_csv(path):
    space, f, _ = path
    sf = sk.slope_field(space, f)
    text = skio.render_slope_csv(sf)
    ck.check_slope_csv(text, SLOPES)
    rejects(ck.check_slope_csv, skio.render_slope_csv(off_by_one_ulp(sf, 1)), SLOPES)
    crit_text = skio.render_crit_csv(sk.critical_set(sf, 0.0), sf)
    ck.check_crit_csv(crit_text, [2])
    rejects(ck.check_crit_csv, crit_text, [1])


def test_check_field_csv(path):
    space, _, _ = path
    text = skio.render_field_csv(sk.ScalarField(space, F))
    ck.check_field_csv(text, F, 0.0)
    off = skio.render_field_csv(sk.ScalarField(space, F + np.array([0.0, 0.0, 1e-6])))
    rejects(ck.check_field_csv, off, F, 1e-9)


def test_check_report_json(path):
    space, f, _ = path
    text = skio.render_determination_report(sk.determine(space, f, sk.ScalarField(space, F + 5.0)))
    ck.check_report_json(text, "EqualUpToConstant", constant=5.0)
    rejects(ck.check_report_json, text, "EqualUpToConstant", constant=4.0)
    rejects(ck.check_report_json, text, "HypothesisViolated")
    doc = json.loads(text)
    doc["constant"] = 5.0 + 1e-6
    rejects(ck.check_report_json, json.dumps(doc), "EqualUpToConstant", constant=5.0)


def test_check_fig2_csv():
    n = 4001
    header, rows = sk.emit_figure_data("fig2", n=n)
    text = skio.render_rows_csv(header, rows)
    ck.check_fig2_csv(text, n)
    bad = list(rows)
    t, fv, gv, analytic, discrete = bad[n // 3]
    bad[n // 3] = (t, fv, gv, analytic, float(np.nextafter(discrete, math.inf)))
    rejects(ck.check_fig2_csv, skio.render_rows_csv(header, bad), n)
    rejects(ck.check_fig2_csv, text, n + 1)
