"""Seeded random instances and the property suites built on them.

Generated fields take dyadic rational values (multiples of 1/1024) and
edge lengths are powers of two, so descent quotients, slope fields, and
reconstruction arithmetic are exact in binary floating point. The
suites can therefore assert strict inequalities and exact recoveries
directly, without tolerance fudging: any failure is a real defect, not
rounding noise.

Each suite re-derives its claims from raw field values (brute-force
neighbor scans, direct inequality checks) instead of trusting the
bookkeeping of the operation under test. `reference_slope_field` keeps
the per-point loop that the edge-array slope kernel replaced,
`reference_read_columns` reads the CSV grammar line by line, and
`reference_sweep` computes the shortest-path sweep by label correction,
in no particular relaxation order, `reference_build_graph` checks an
edge list entry by entry and lays it out by `sorted()`,
`reference_is_connected` keeps
the depth-first search that array label propagation replaced, and
`reference_extremal_witness` the loop over the critical points that
picked the witnesses of `determination`, and `reference_comparison_floor`
the loop over a set of critical points that `comparison_floor` ran
before critical sets became masks, and `reference_determine_certificate`
the two comparison principles that certified `determine` before it read
its verdict from the residual, `reference_epsilon_audit` the loop over
the epsilons that scaled f and took its slope field one epsilon at a
time, and `reference_descent_step` the step on np.float64 values under
`np.errstate`, as the oracles of the differential tests.
"""
from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .critical import (
    NO_CRITICAL_BELOW,
    CriticalSet,
    comparison_floor,
    critical_mask,
    critical_set,
    sublevel_floor,
)
from .descent import NoStep, descent_path, descent_step
from .determination import (
    _WITNESS_TIE_WINDOW,
    VERDICT_EQUAL,
    VERDICT_INCONCLUSIVE,
    VERDICT_VIOLATED,
    DeterminationReport,
    EpsilonAudit,
    EpsilonAuditRow,
    Verdict,
    Witness,
    _compare,
    _diagnose,
    _violation_witnesses,
    determine,
)
from .errors import (
    DanglingEndpoint,
    DuplicateEdge,
    EmptyEdgeList,
    InvalidCount,
    InvalidPoint,
    NonPositiveLength,
    PreconditionViolated,
    SelfLoopEdge,
    SlopeDominanceViolated,
    TooFewPoints,
)
from .io import _FLOAT, _INT
from .reconstruct import Inadmissible, SlopeData, reconstruct
from .slope import (
    OVERFLOW_CAP,
    ScalarField,
    SlopeField,
    check_constant,
    check_decreasing,
    check_tol,
    require_bound,
    scale_field,
    slope_field,
)
from .space import MetricSpaceGraph, build_graph, neighbors

EDGE_LENGTHS = (0.25, 0.5, 1.0, 2.0)
VALUE_DENOM = 1024


def reference_slope_field(space: MetricSpaceGraph, f: ScalarField,
                          cap: float = OVERFLOW_CAP) -> SlopeField:
    """The slope field by a loop over each point's adjacent points, on
    np.float64 values under `np.errstate`: the per-point loop that the
    edge-array kernel of `slope_field` replaced."""
    slopes = np.zeros(space.n)
    with np.errstate(over="ignore"):
        for x in range(space.n):
            for y, d in neighbors(space, x):
                drop = f.values[x] - f.values[y]
                if drop > 0.0 and drop / d > slopes[x]:
                    slopes[x] = drop / d
    infinite = slopes > cap
    slopes[infinite] = math.inf
    return SlopeField(space=space, values=slopes, infinite=infinite,
                      provenance="exact-graph", cap=cap)


def reference_read_columns(path, layouts: dict[str, str]):
    """The header line and data columns of a CSV file, read line by
    line: each data row must match the cell patterns of `slopekit.io`
    for the kinds ('i' or 'f') that `layouts` gives its header, and
    each cell is converted by int() or float() (so `inf` is float inf).
    Raises ValueError at the first line outside the grammar."""
    text = Path(path).read_bytes().decode("utf-8")
    lines = [(lineno, line.removesuffix("\r").strip(" \t"))
             for lineno, line in enumerate(text.split("\n"), start=1)]
    rows = [(lineno, [c.strip(" \t") for c in line.split(",")])
            for lineno, line in lines if line and not line.startswith("#")]
    header = ",".join(rows[0][1])
    kinds = layouts[header]
    cell = {"i": _INT, "f": f"(?:{_FLOAT}|inf)"}
    pattern = re.compile(",".join(cell[k] for k in kinds))
    for lineno, cells in rows[1:]:
        if not pattern.fullmatch(",".join(cells)):
            raise ValueError(f"line {lineno} is outside the grammar")
    return header, [np.array([(int if k == "i" else float)(cells[j])
                              for _, cells in rows[1:]],
                             dtype=np.int64 if k == "i" else float)
                    for j, k in enumerate(kinds)]


def reference_sweep(space: MetricSpaceGraph, inc: np.ndarray,
                    seeds: dict[int, float]) -> np.ndarray:
    """The fixpoint that `space._sweep` computes, by Bellman-Ford label
    correction: relax every edge into a non-seed point at once, with
    np.minimum.at, until no value changes. Seeds keep their values.
    With nonnegative increments round-to-nearest addition is monotone,
    so every relaxation order reaches the same least left-fold path
    sums, and the fixpoint comes within n rounds."""
    v = np.full(space.n, math.inf)
    seeded = np.zeros(space.n, dtype=bool)
    for p, value in seeds.items():
        v[p] = value
        seeded[p] = True
    free = ~seeded[space.dst]
    src, dst, step = space.src[free], space.dst[free], inc[free]
    for _ in range(space.n + 1):
        before = v.copy()
        with np.errstate(over="ignore"):
            np.minimum.at(v, dst, v[src] + step)
        if np.array_equal(v, before):
            return v
    raise ValueError("no fixpoint within n rounds: a negative increment")


def reference_is_connected(space: MetricSpaceGraph) -> bool:
    """Whether the space is one component, by a depth-first search from
    point 0 over the CSR slices: the per-point loop that the label
    propagation of `space.is_connected` replaced."""
    ends = space.indptr.tolist()
    dst = space.dst.tolist()
    seen = [False] * space.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        x = stack.pop()
        for y in dst[ends[x]:ends[x + 1]]:
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == space.n


def reference_build_graph(edge_list, n: int | None = None):
    """The (src, dst, w, indptr) arrays of `build_graph(edge_list, n)`,
    or its error, by an entry loop: each entry is converted by int(),
    int(), float() (an int length beyond the float range as inf), where
    an endpoint that is not a Python int or numpy integer in the int64
    range, or is a bool, is InvalidPoint and a length that is a bool, or
    not a Python or numpy int or float, NonPositiveLength, and checked
    in input order against a set of the pairs seen so far, and the first
    bad one raises; then the count checks run, and the directed entries
    are laid out by sorted()."""
    lengths = {}
    for k, item in enumerate(edge_list):
        try:
            a, b, c = item
        except (TypeError, ValueError):
            raise ValueError(f"edge entries must be (u, v, length), got {item!r}") from None
        for e in (a, b):
            if type(e) is bool or not isinstance(e, (int, np.integer)):
                raise InvalidPoint(f"edge {item!r}: endpoint {e!r} is not an integer")
            if not -2**63 <= int(e) < 2**63:
                raise InvalidPoint(f"edge entry {k}: an endpoint lies beyond int64")
        if isinstance(c, (bool, np.bool_)) or not isinstance(
                c, (int, float, np.integer, np.floating)):
            raise NonPositiveLength(f"edge {item!r}: length {c!r} is not a number")
        try:
            length = float(c)
        except OverflowError:
            length = math.inf if c > 0 else -math.inf
        a, b = int(a), int(b)
        if a < 0 or b < 0:
            raise DanglingEndpoint(f"negative endpoint in edge ({a}, {b})")
        if a == b:
            raise SelfLoopEdge(f"self-loop at point {a}")
        if not 0.0 < length < math.inf:
            raise NonPositiveLength(f"edge ({a}, {b}) has length {length}")
        key = (min(a, b), max(a, b))
        if key in lengths:
            raise DuplicateEdge(f"edge {key} appears more than once")
        lengths[key] = length
    top = max((b for _, b in lengths), default=-1)
    if n is None:
        if not lengths:
            raise EmptyEdgeList("cannot infer the point count from an empty edge list")
        n = top + 1
    elif n < 1:
        raise TooFewPoints(f"a space needs at least one point, got {n}")
    elif top >= n:
        raise DanglingEndpoint(f"edge endpoint {top} outside [0, {n})")
    elif not lengths and n > 1:
        raise EmptyEdgeList(f"no edges given for a {n}-point space")
    if n * n >= 2**63:
        raise InvalidCount(f"a space has at most {math.isqrt(2**63 - 1)} points, got {n}")
    directed = sorted([(a, b, w) for (a, b), w in lengths.items()]
                      + [(b, a, w) for (a, b), w in lengths.items()])
    counts = [0] * n
    for a, _, _ in directed:
        counts[a] += 1
    return (np.array([a for a, _, _ in directed], dtype=np.intp),
            np.array([b for _, b, _ in directed], dtype=np.intp),
            np.array([w for _, _, w in directed], dtype=float),
            np.array([0, *itertools.accumulate(counts)], dtype=np.intp))


def reference_extremal_witness(points, values, slope_values, pick_max: bool):
    """The extremal witness of `determination._extremal_witness`, by a
    loop over the points: values within the tie window of the extreme
    (the first one `max` or `min` meets) are resolved toward the
    smallest slope, then the smallest point id."""
    target = max(values) if pick_max else min(values)
    window = _WITNESS_TIE_WINDOW * max(1.0, abs(target))
    best_key = None
    best_point = None
    for p, v in zip(points, values):
        gap = (target - v) if pick_max else (v - target)
        if gap <= window:
            key = (float(slope_values[p]), p)
            if best_key is None or key < best_key:
                best_key = key
                best_point = p
    return int(best_point), float(target)


def reference_comparison_floor(f: ScalarField, g: ScalarField, x: int,
                               crit: CriticalSet):
    """The floor of `critical.comparison_floor` by a loop over the
    critical points as a set, in increasing order (the first of equal
    values wins), with each f - g taken in numpy under `np.errstate`."""
    fx = f.values[x]
    best = None
    with np.errstate(over="ignore"):
        for z in sorted(crit.members):
            if f.values[z] <= fx:
                val = float(f.values[z] - g.values[z])
                if best is None or val < best:
                    best = val
    return NO_CRITICAL_BELOW if best is None else best


def reference_determine_certificate(space: MetricSpaceGraph, f: ScalarField,
                                    g: ScalarField, tol_slope: float = 1e-9,
                                    tol_crit: float = 1e-9,
                                    tol_residual: float | None = None,
                                    cap: float = OVERFLOW_CAP) -> DeterminationReport:
    """The report of `determine` (valid knobs only) with the certificate
    it read from the residual taken instead from the two comparison
    principles: `_compare` forward on the critical set of f and backward
    on that of g, hypotheses within tol_slope and each conclusion, its
    worst margin, within tol_residual. A failed hypothesis is the witness
    `precondition:<hypothesis>` and an Inconclusive verdict."""
    if tol_residual is None:
        tol_residual = 1e-9 + tol_crit
    tolerances = {"tol_slope": tol_slope, "tol_crit": tol_crit,
                  "tol_residual": tol_residual, "overflow_cap": cap}
    diag, sf, sg, in_f, in_g, resid = _diagnose(space, f, g, tol_slope,
                                                tol_crit, cap)
    dc = diag.diff_constant_on_crit
    violated = diag.failed_hypotheses()
    residual = float(np.abs(resid).max())
    if violated:
        verdict = Verdict(kind=VERDICT_VIOLATED, violated=violated)
        witnesses = _violation_witnesses(diag)
    else:
        worst = int(np.argmax(np.abs(resid)))
        witnesses = [Witness(point=worst, kind="residual",
                             value=float(resid[worst]))]
        try:
            forward = _compare(sf, sg, np.flatnonzero(in_f), f, g,
                               dc.constant, tol_slope)
            backward = _compare(sg, sf, np.flatnonzero(in_g), g, f,
                                -dc.constant, tol_slope)
            certified = max(forward.worst_margin,
                            backward.worst_margin) <= tol_residual
        except PreconditionViolated as exc:
            certified = False
            witnesses.append(Witness(point=-1, kind=f"precondition:{exc.which}"))
        verdict = Verdict(kind=VERDICT_EQUAL if certified and residual <= tol_residual
                          else VERDICT_INCONCLUSIVE, constant=dc.constant)
    return DeterminationReport(
        verdict=verdict, diagnostics=diag, residual=residual,
        witnesses=tuple(witnesses), tolerances=tolerances,
        slope_provenance=sf.provenance)


def reference_epsilon_audit(space: MetricSpaceGraph, f: ScalarField,
                            g: ScalarField, epsilons, c: float | None = None,
                            tol: float = 1e-9, crit_tol: float = 0.0,
                            cap: float = OVERFLOW_CAP) -> EpsilonAudit:
    """The audit of `determination.epsilon_audit`, or its error, by a
    loop over the epsilons: each (1 + epsilon) * f is built by
    `scale_field`, its slopes by `slope_field` and its critical set by
    `critical_mask`, one epsilon at a time."""
    require_bound(space, f, g)
    eps = check_decreasing(epsilons, "epsilons")
    tol = check_tol(tol)
    if c is not None:
        c = check_constant(c)
    sf = slope_field(space, f, cap=cap)
    sg = slope_field(space, g, cap=cap)
    crit_tol = check_tol(crit_tol, "crit_tol")
    on_crit = critical_mask(sf, crit_tol)
    crit_arr, non_crit = np.flatnonzero(on_crit), np.flatnonzero(~on_crit)
    c = _compare(sf, sg, crit_arr, f, g, c, tol).constant
    fx, gx = f.values[non_crit], g.values[non_crit]
    rows = []
    for e in eps:
        fe = scale_field(f, 1.0 + e)
        se = slope_field(space, fe, cap=cap)
        on_crit_e = critical_mask(se, crit_tol)
        floor_f, _ = sublevel_floor(fe.values[crit_arr], f.values[crit_arr],
                                    fe.values[non_crit])
        with np.errstate(over="ignore", invalid="ignore"):
            brackets = fx - floor_f
            margins = gx - (fx + e * brackets + c)
        ranked = np.flatnonzero(margins > -math.inf)
        if ranked.size:
            k = int(ranked[int(np.argmax(margins[ranked]))])
            worst_point, worst_margin = int(non_crit[k]), float(margins[k])
        else:
            worst_point = None
            worst_margin = -math.inf if non_crit.size else None
        rows.append(EpsilonAuditRow(
            epsilon=e, crit_preserved=bool(np.array_equal(on_crit_e, on_crit)),
            dominance_ok=bool(np.all((sg.values < se.values)[~on_crit_e])),
            bound_holds=worst_margin is None or worst_margin < 0.0,
            worst_point=worst_point, worst_margin=worst_margin,
            bracket_max=float(max(0.0, brackets.max(initial=0.0)))))
    bracket_maxes = [row.bracket_max for row in rows]
    hi, lo = max(bracket_maxes), min(bracket_maxes)
    uniform = hi == lo or (hi < math.inf and hi - lo <= 1e-12 * max(1.0, hi))
    return EpsilonAudit(constant=c, rows=tuple(rows), bracket_uniform=uniform)


def reference_descent_step(space: MetricSpaceGraph, f: ScalarField,
                           g: ScalarField, x: int, cap: float = OVERFLOW_CAP):
    """The result of `descent._step` from the non-critical point x, for
    checked inputs, by a loop over x's adjacent points on np.float64
    values under `np.errstate`: the next point, a NoStep, or
    SlopeDominanceViolated."""
    fx, gx = f.values[x], g.values[x]
    slope_f = slope_g = 0.0
    best = None
    best_q = -1.0
    with np.errstate(over="ignore"):
        diff_x = fx - gx
        for z, d in neighbors(space, x):
            fz, gz = f.values[z], g.values[z]
            drop = fx - fz
            if drop > 0.0:
                q = drop / d
                if q > slope_f:
                    slope_f = q
                if diff_x > fz - gz and (
                        q > best_q or (q == best_q and z < best)):
                    best = z
                    best_q = q
            drop = gx - gz
            if drop > 0.0:
                q = drop / d
                if q > slope_g:
                    slope_g = q
    if slope_f > cap:
        slope_f = math.inf
    if slope_g > cap:
        slope_g = math.inf
    if not slope_f > slope_g:
        raise SlopeDominanceViolated(
            f"at point {x}: slope_f={slope_f} <= slope_g={slope_g}")
    if best is None:
        return NoStep(point=x, slope_f=slope_f, slope_g=slope_g,
                      reason="no adjacent point satisfies both strict decreases")
    return best


def random_connected_graph(rng: random.Random, n_max: int = 50,
                           n_min: int = 2) -> MetricSpaceGraph:
    """Random connected graph: a random spanning tree plus extra edges,
    with edge lengths drawn from a power-of-two palette."""
    n = rng.randint(n_min, n_max)
    present = set()
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        present.add((u, v))
        edges.append((u, v, rng.choice(EDGE_LENGTHS)))
    extra = rng.randint(0, n)
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in present:
            continue
        present.add(key)
        edges.append((key[0], key[1], rng.choice(EDGE_LENGTHS)))
    return build_graph(edges, n=n)


def random_dyadic_field(rng: random.Random, space: MetricSpaceGraph,
                        lo: int = -2048, hi: int = 2048) -> ScalarField:
    vals = [rng.randint(lo, hi) / VALUE_DENOM for _ in range(space.n)]
    return ScalarField(space, np.array(vals))


def random_dyadic_constant(rng: random.Random, lo: int = -5120,
                           hi: int = 5120) -> float:
    return rng.randint(lo, hi) / VALUE_DENOM


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    checks: int
    failures: int
    first_failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def lemma_existence_suite(trials: int = 1000, seed: int = 0,
                          n_max: int = 50) -> SuiteResult:
    """At every non-critical point of f, with g = c*f for 0 < c < 0.9,
    a descent step exists and satisfies both strict inequalities."""
    rng = random.Random(seed)
    checks = failures = 0
    first = None
    for _ in range(trials):
        space = random_connected_graph(rng, n_max=n_max)
        f = random_dyadic_field(rng, space)
        c = rng.uniform(0.0, 0.9) or 0.5
        g = ScalarField(space, c * f.values)
        crit = critical_set(slope_field(space, f), tol=0.0)
        for x in range(space.n):
            if crit.mask[x]:
                continue
            checks += 1
            z = descent_step(space, f, g, x, crit)
            ok = (not isinstance(z, NoStep)
                  and f.values[x] > f.values[z]
                  and (f.values[x] - g.values[x]) > (f.values[z] - g.values[z]))
            if not ok:
                failures += 1
                if first is None:
                    first = f"no valid step at point {x} (n={space.n})"
    return SuiteResult("lemma", trials, checks, failures, first)


def descent_comparison_suite(trials: int = 1000, seed: int = 0,
                             n_max: int = 50) -> SuiteResult:
    """Every descent path terminates at a critical point within n steps,
    decreases strictly in both f and f - g, never revisits a point, and
    the strict comparison (f - g)(x) > floor(x) holds off the critical
    set."""
    rng = random.Random(seed)
    checks = failures = 0
    first = None
    for _ in range(trials):
        space = random_connected_graph(rng, n_max=n_max)
        f = random_dyadic_field(rng, space)
        c = rng.uniform(0.0, 0.9) or 0.5
        g = ScalarField(space, c * f.values)
        crit = critical_set(slope_field(space, f), tol=0.0)
        for x in range(space.n):
            if crit.mask[x]:
                continue
            checks += 1
            path = descent_path(space, f, g, x, crit)
            ok = (path.terminal_critical
                  and crit.mask[path.points[-1]]
                  and path.steps <= space.n
                  and len(set(path.points)) == len(path.points)
                  and all(a > b for a, b in zip(path.f_values,
                                                path.f_values[1:]))
                  and all(a > b for a, b in zip(path.diff_values,
                                                path.diff_values[1:])))
            floor = comparison_floor(space, f, g, x, crit)
            ok = ok and isinstance(floor, float) \
                and f.values[x] - g.values[x] > floor
            if not ok:
                failures += 1
                if first is None:
                    first = f"path or floor failure from point {x} (n={space.n})"
    return SuiteResult("descent", trials, checks, failures, first)


def determination_roundtrip_suite(trials: int = 1000, seed: int = 0,
                                  n_max: int = 50) -> SuiteResult:
    """determine(f, f + c) recovers the verdict and the constant.

    The recovered constant and the reported residual must sit within
    1e-12 of the truth, and the residual is re-checked directly from
    the raw values."""
    rng = random.Random(seed)
    checks = failures = 0
    first = None
    for _ in range(trials):
        space = random_connected_graph(rng, n_max=n_max)
        f = random_dyadic_field(rng, space)
        c = random_dyadic_constant(rng)
        g = ScalarField(space, f.values + c)
        checks += 1
        report = determine(space, f, g)
        got = report.verdict.constant
        ok = (report.verdict.kind == VERDICT_EQUAL
              and got is not None
              and abs(got - c) <= 1e-12
              and report.residual <= 1e-12
              and float(np.max(np.abs(g.values - f.values - got))) <= 1e-12)
        if not ok:
            failures += 1
            if first is None:
                first = (f"verdict={report.verdict.kind} c={c} got={got} "
                         f"residual={report.residual}")
    return SuiteResult("determine", trials, checks, failures, first)


def reconstruction_roundtrip_suite(trials: int = 1000, seed: int = 0,
                                   n_max: int = 50) -> SuiteResult:
    """Slope field plus critical values reproduce the field, and a
    perturbed slope entry at a prescribed point is rejected.

    The perturbation targets the global minimizer: its value is pinned
    by the prescription, so the inflated slope can never be realized by
    the verified output."""
    rng = random.Random(seed)
    checks = failures = 0
    first = None
    for _ in range(trials):
        space = random_connected_graph(rng, n_max=n_max)
        f = random_dyadic_field(rng, space)
        slopes = slope_field(space, f)
        crit = critical_set(slopes, tol=0.0)
        data = SlopeData(slopes, {p: f[p] for p in crit.sorted_members()})
        checks += 1
        out = reconstruct(space, data, tol=1e-9)
        ok = (isinstance(out, ScalarField)
              and float(np.max(np.abs(out.values - f.values))) <= 1e-9)
        p0 = int(np.argmin(f.values))
        bumped = slopes.values.copy()
        bumped[p0] = bumped[p0] + 1.0
        data2 = SlopeData(
            SlopeField(space, bumped, slopes.infinite.copy(),
                       provenance=slopes.provenance, cap=slopes.cap),
            dict(data.crit_values))
        out2 = reconstruct(space, data2, tol=1e-9)
        ok = ok and isinstance(out2, Inadmissible) \
            and any(w.point == p0 for w in out2.witnesses)
        if not ok:
            failures += 1
            if first is None:
                first = f"round trip or perturbation failure (n={space.n})"
    return SuiteResult("reconstruct", trials, checks, failures, first)


def homogeneity_suite(trials: int = 100, seed: int = 0,
                      epsilons=(1.0, 0.1, 0.01),
                      n_max: int = 50) -> SuiteResult:
    """Slope of (1 + eps) f equals (1 + eps) times the slope of f,
    pointwise within 1e-12 relative; zero slopes map to exact zeros."""
    rng = random.Random(seed)
    checks = failures = 0
    first = None
    for _ in range(trials):
        space = random_connected_graph(rng, n_max=n_max)
        f = random_dyadic_field(rng, space)
        base = slope_field(space, f)
        for eps in epsilons:
            lam = 1.0 + eps
            scaled = slope_field(space, scale_field(f, lam))
            checks += 1
            ok = True
            for x in range(space.n):
                expected = lam * base.values[x]
                if expected == 0.0:
                    if scaled.values[x] != 0.0:
                        ok = False
                        break
                elif abs(scaled.values[x] - expected) > 1e-12 * expected:
                    ok = False
                    break
            if not ok:
                failures += 1
                if first is None:
                    first = f"homogeneity gap at eps={eps} (n={space.n})"
    return SuiteResult("homogeneity", trials, checks, failures, first)


SUITES = {
    "lemma": lemma_existence_suite,
    "descent": descent_comparison_suite,
    "determine": determination_roundtrip_suite,
    "reconstruct": reconstruction_roundtrip_suite,
    "homogeneity": homogeneity_suite,
}
