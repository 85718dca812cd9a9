"""Reference computations and output checkers for the benchmark.

Nothing here imports slopekit: every expected value is recomputed from
the raw inputs (edge lists, field values, grid spacing) with code of the
benchmark's own, so a check never trusts the bookkeeping of the program
it checks. Each checker raises CheckFailed with the first mismatch.
"""
from __future__ import annotations

import bisect
import json
import math

import numpy as np

HALF_PI = math.pi / 2.0


class CheckFailed(Exception):
    """A program output disagrees with the reference or a required property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---- reference computations ----

def adjacency(n: int, edges) -> list[list[tuple[int, float]]]:
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def scan_slopes(adj, values) -> np.ndarray:
    """Brute-force neighbour scan: max over neighbours of (f(x) - f(y))+ / d."""
    out = np.zeros(len(adj))
    for x, nbrs in enumerate(adj):
        fx = values[x]
        best = 0.0
        for y, d in nbrs:
            q = max(fx - values[y], 0.0) / d
            if q > best:
                best = q
        out[x] = best
    return out


def grid_slopes(values: np.ndarray, h: float) -> np.ndarray:
    """Two-neighbour quotient on a uniform grid, as whole-array numpy passes."""
    left = np.zeros_like(values)
    right = np.zeros_like(values)
    left[1:] = np.maximum(values[1:] - values[:-1], 0.0) / h
    right[:-1] = np.maximum(values[:-1] - values[1:], 0.0) / h
    return np.maximum(left, right)


def square_sine(ts: np.ndarray) -> np.ndarray:
    """Parabolas glued to sin x at -pi/2 and +pi/2 (the gallery's fig2 f)."""
    return np.where(ts < -HALF_PI, (ts + HALF_PI) ** 2 - 1.0,
                    np.where(ts > HALF_PI, (ts - HALF_PI) ** 2 + 1.0, np.sin(ts)))


def square_sine_slope(ts: np.ndarray) -> np.ndarray:
    """Closed-form slope: cos x between the junctions, 2(|x| - pi/2) outside."""
    inside = np.abs(ts) <= HALF_PI
    return np.where(inside, np.cos(ts), 2.0 * (np.abs(ts) - HALF_PI))


def critical_points(slopes: np.ndarray, tol: float = 0.0) -> list[int]:
    return [int(x) for x in np.flatnonzero(slopes <= tol)]


class FloorTable:
    """Comparison floors by one sort of the critical points plus a prefix minimum.

    floor(x) = min of (f - g)(z) over critical z with f(z) <= f(x), or
    None when no critical point lies in the sublevel set of x.
    """

    def __init__(self, f, g, crit):
        order = sorted(crit, key=lambda z: f[z])
        self.keys = [f[z] for z in order]
        self.prefix = []
        best = math.inf
        for z in order:
            best = min(best, float(f[z] - g[z]))
            self.prefix.append(best)

    def floor(self, fx: float):
        k = bisect.bisect_right(self.keys, fx)
        return self.prefix[k - 1] if k else None


# ---- checkers ----

def check_slopes(name: str, got, expected: np.ndarray) -> None:
    """Slopes must be finite and equal the reference bit for bit."""
    require(not bool(np.any(got.infinite)), f"{name}: overflow marker present")
    if not np.array_equal(got.values, expected):
        bad = int(np.flatnonzero(got.values != expected)[0])
        raise CheckFailed(f"{name}: slope at point {bad} is "
                          f"{got.values[bad]!r}, expected {expected[bad]!r}")


def check_closed_form(ts: np.ndarray, slopes: np.ndarray, h: float,
                      bound: float = 5e-3) -> None:
    """Away from the junctions the slopes lie within `bound` of the closed form."""
    away = np.minimum(np.abs(ts - HALF_PI), np.abs(ts + HALF_PI)) > 2 * h
    err = np.abs(slopes[away] - square_sine_slope(ts[away]))
    require(bool(np.all(err <= bound)),
            f"closed-form slope error {float(np.max(err)):.3e} > {bound}")


def check_members(name: str, got, expected) -> None:
    got = sorted(got)
    require(got == sorted(expected),
            f"{name}: critical set {got[:8]}... != expected {sorted(expected)[:8]}...")


def check_equal_verdict(report, c: float, tol: float) -> None:
    v = report.verdict
    require(v.kind == "EqualUpToConstant", f"verdict {v.kind}{v.violated}, "
            "expected EqualUpToConstant")
    require(v.constant is not None and abs(v.constant - c) <= tol,
            f"constant {v.constant!r}, expected {c!r} within {tol}")


def check_mirrored_verdict(report, ts: np.ndarray, h: float) -> None:
    v = report.verdict
    require(v.kind == "HypothesisViolated" and v.violated == ("diff_constant_on_crit",),
            f"verdict {v.kind}{v.violated}, expected "
            "HypothesisViolated('diff_constant_on_crit',)")
    spread = report.diagnostics.diff_constant_on_crit.spread
    require(abs(spread - 4.0) <= 5e-3, f"spread {spread!r}, expected 4 within 5e-3")
    where = {w.kind: w.point for w in report.witnesses}
    require("diff_max" in where and abs(ts[where["diff_max"]] + HALF_PI) <= h,
            f"diff_max witness {where.get('diff_max')} not within h of -pi/2")
    require("diff_min" in where and abs(ts[where["diff_min"]] - HALF_PI) <= h,
            f"diff_min witness {where.get('diff_min')} not within h of +pi/2")


def check_field(name: str, got, expected: np.ndarray, tol: float) -> None:
    """`got` must be a field (not a rejection) within `tol` of `expected`."""
    values = getattr(got, "values", None)
    require(values is not None and getattr(got, "witnesses", None) is None,
            f"{name}: expected a field, got {type(got).__name__}")
    err = float(np.max(np.abs(np.asarray(values) - expected)))
    require(err <= tol, f"{name}: max error {err!r} > {tol}")


def check_rejected(got, point: int) -> None:
    witnesses = getattr(got, "witnesses", None)
    require(witnesses is not None, f"perturbed data accepted as {type(got).__name__}")
    require(any(w.point == point for w in witnesses),
            f"no witness at the perturbed minimizer {point}")


def check_descent_path(path, start: int, f, g, adj, crit: set, n: int) -> None:
    """Ends at a critical point within n steps along edges, with f and
    f - g strictly decreasing and the reported values equal to the field's."""
    pts = list(path.points)
    require(pts[0] == start, f"path from {start} starts at {pts[0]}")
    require(pts[-1] in crit, f"path from {start} ends at non-critical {pts[-1]}")
    require(len(pts) - 1 <= n, f"path from {start} takes {len(pts) - 1} > {n} steps")
    for a, b in zip(pts, pts[1:]):
        require(any(y == b for y, _ in adj[a]), f"step {a}->{b} is not an edge")
        require(f[a] > f[b], f"f does not decrease on step {a}->{b}")
        require(f[a] - g[a] > f[b] - g[b], f"f - g does not decrease on step {a}->{b}")
    require(list(path.f_values) == [float(f[p]) for p in pts],
            f"path from {start}: reported f values differ from the field")
    require(list(path.diff_values) == [float(f[p] - g[p]) for p in pts],
            f"path from {start}: reported f - g values differ from the field")


def check_floor(got, expected, x: int) -> None:
    if expected is None:
        require(type(got).__name__ == "NoCriticalBelow",
                f"floor at {x} is {got!r}, expected NoCriticalBelow")
    else:
        require(got == expected, f"floor at {x} is {got!r}, expected {expected!r}")


def check_strict_comparison(report, noncritical: int) -> None:
    require(report.dominance_ok, f"dominance reported violated at {report.dominance_witness}")
    require(report.comparison_holds is True,
            f"comparison reported failing at {report.violation_point}")
    require(report.checked == noncritical,
            f"checked {report.checked} points, expected {noncritical} non-critical")


def epsilon_rows(f: np.ndarray, g: np.ndarray, crit, epsilons):
    """Expected (worst_point, worst_margin, bracket_max) per epsilon, and c."""
    crit_set = set(crit)
    c = float(max(g[z] - f[z] for z in crit))
    noncrit = [x for x in range(len(f)) if x not in crit_set]
    rows = []
    for e in epsilons:
        fe = f * (1.0 + e)
        order = sorted(crit, key=lambda z: fe[z])
        keys = [fe[z] for z in order]
        prefix, best = [], math.inf
        for z in order:
            best = min(best, float(f[z]))
            prefix.append(best)
        worst_margin = -math.inf if noncrit else None
        worst_point, bracket_max = None, 0.0
        for x in noncrit:
            k = bisect.bisect_right(keys, fe[x])
            bracket = float(f[x] - (prefix[k - 1] if k else math.inf))
            bracket_max = max(bracket_max, bracket)
            margin = float(g[x] - (f[x] + e * bracket + c))
            if margin > worst_margin:
                worst_margin, worst_point = margin, x
        rows.append((worst_point, worst_margin, bracket_max))
    return c, rows


def check_epsilon_audit(audit, expected_c: float, expected_rows) -> None:
    require(audit.constant == expected_c, f"audit constant {audit.constant!r} != {expected_c!r}")
    require(audit.bracket_uniform, "brackets not uniform across epsilons")
    require(len(audit.rows) == len(expected_rows), "audit row count differs")
    for row, (point, margin, bracket_max) in zip(audit.rows, expected_rows):
        e = row.epsilon
        require(row.crit_preserved, f"eps={e}: critical set not preserved")
        require(row.dominance_ok, f"eps={e}: dominance lost")
        require(row.bound_holds and (row.worst_margin is None or row.worst_margin < 0.0),
                f"eps={e}: margin {row.worst_margin!r} not below 0")
        require((row.worst_point, row.worst_margin, row.bracket_max)
                == (point, margin, bracket_max),
                f"eps={e}: row ({row.worst_point}, {row.worst_margin!r}, "
                f"{row.bracket_max!r}) != expected ({point}, {margin!r}, {bracket_max!r})")


# ---- CLI output files ----

def _csv_rows(text: str):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0], [ln.split(",") for ln in lines[1:]]


def check_slope_csv(text: str, expected: np.ndarray) -> None:
    header, rows = _csv_rows(text)
    require(header == "point,slope,is_infinite", f"slope CSV header {header!r}")
    require([int(r[0]) for r in rows] == list(range(len(expected))),
            "slope CSV points are not 0..n-1 in order")
    require(all(r[2] == "0" for r in rows), "slope CSV flags an overflow")
    got = np.array([float(r[1]) for r in rows])
    require(np.array_equal(got, expected), "slope CSV values differ from the reference")


def check_crit_csv(text: str, crit) -> None:
    header, rows = _csv_rows(text)
    require(header == "point,slope", f"crit CSV header {header!r}")
    require([int(r[0]) for r in rows] == sorted(crit),
            "crit CSV points differ from the reference critical set")
    require(all(float(r[1]) == 0.0 for r in rows), "crit CSV lists a nonzero slope")


def check_field_csv(text: str, expected: np.ndarray, tol: float) -> None:
    header, rows = _csv_rows(text)
    require(header == "point,value", f"field CSV header {header!r}")
    require([int(r[0]) for r in rows] == list(range(len(expected))),
            "field CSV points are not 0..n-1 in order")
    err = float(np.max(np.abs(np.array([float(r[1]) for r in rows]) - expected)))
    require(err <= tol, f"reconstructed field off by {err!r} > {tol}")


def check_report_json(text: str, kind: str, constant: float | None = None,
                      violated: str | None = None) -> None:
    doc = json.loads(text)
    require(doc["verdict"] == kind, f"JSON verdict {doc['verdict']!r}, expected {kind!r}")
    if constant is not None:
        require(doc["constant"] is not None and abs(doc["constant"] - constant) <= 1e-12,
                f"JSON constant {doc['constant']!r}, expected {constant!r}")
    if violated is not None:
        require(violated in doc["violated_hypotheses"],
                f"JSON violated {doc['violated_hypotheses']}, expected {violated!r}")


def check_fig2_csv(text: str, n: int) -> None:
    header, rows = _csv_rows(text)
    require(header == "t,f,g,slope_f_analytic,slope_f_discrete", f"fig2 header {header!r}")
    require(len(rows) == n, f"fig2 has {len(rows)} rows, expected {n}")
    cols = np.array(rows, dtype=float)
    ts, f, discrete = cols[:, 0], cols[:, 1], cols[:, 4]
    h = 2.0 * math.pi / (n - 1)
    require(np.array_equal(discrete, grid_slopes(f, h)),
            "fig2 discrete slopes differ from the two-neighbour quotient")
    check_closed_form(ts, discrete, h)
