"""Hypothesis checks and verdicts for slope-based function comparison.

Two fields on the same space are compared through three hypotheses:

  (1) slopes_finite: neither slope field contains an overflow marker;
  (2) slopes_equal: the slope fields agree pointwise within tol_slope;
  (3) diff_constant_on_crit: g - f is constant (within tol_crit) on the
      critical set of f.

When all three hold, g must equal f plus that constant; `determine`
certifies this by applying the one-sided comparison principle in both
directions and re-checking the residual max |g - f - c| directly. The
constant c is estimated as the mean of g - f over the critical set and
validated by its spread, since callers typically need c discovered
rather than supplied.

One private `_compare` checks the hypotheses of the comparison
principle (finite slope of f, slope dominance, the critical bound) on
slope fields and a critical set the caller already holds; `determine`
runs it both ways on those of its hypothesis checks, so each slope
field is computed once. Each public entry point validates its knobs once.

All outcomes of `determine` are verdicts, never exceptions; the
individual checks raise typed errors only for malformed inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critical import CriticalSet, critical_set, sublevel_floor
from .errors import EmptyCriticalSet, PreconditionViolated
from .slope import (
    OVERFLOW_CAP,
    ScalarField,
    SlopeField,
    check_cap,
    check_constant,
    check_tol,
    require_bound,
    scale_field,
    slope_field,
)
from .space import MetricSpaceGraph

VERDICT_EQUAL = "EqualUpToConstant"
VERDICT_VIOLATED = "HypothesisViolated"
VERDICT_INCONCLUSIVE = "Inconclusive"

# Witness selection treats values this close to the extreme as tied and
# resolves the tie toward the flattest (smallest-slope) candidate.
_WITNESS_TIE_WINDOW = 1e-12


@dataclass(frozen=True)
class FinitenessCheck:
    passed: bool
    worst_point: int | None = None
    which_field: str | None = None


@dataclass(frozen=True)
class SlopeEqualityCheck:
    """Pointwise slope agreement. `max_gap` is None when the failure is
    an infinity-mask mismatch rather than a finite gap."""

    passed: bool
    max_gap: float | None
    worst_point: int | None
    slope_f: float | None = None
    slope_g: float | None = None


@dataclass(frozen=True)
class CritSetCheck:
    """Derived diagnostic: equal slope fields force equal critical sets,
    so a mismatch here exposes tolerance-boundary membership flips."""

    passed: bool
    only_in_f: tuple[int, ...]
    only_in_g: tuple[int, ...]


@dataclass(frozen=True)
class DiffConstancyCheck:
    constant: float
    spread: float
    passed: bool
    max_point: int
    max_value: float
    min_point: int
    min_value: float


@dataclass(frozen=True)
class HypothesisDiagnostics:
    """Per-hypothesis pass/fail with enough recorded data to reproduce
    each flag from the offending point and values."""

    slopes_finite: FinitenessCheck
    slopes_equal: SlopeEqualityCheck
    crit_sets_equal: CritSetCheck
    diff_constant_on_crit: DiffConstancyCheck | None
    critical_points: tuple[int, ...]
    tol_slope: float
    tol_crit: float
    overflow_cap: float

    def failed_hypotheses(self) -> tuple[str, ...]:
        """Names of failed verdict-relevant hypotheses, in fixed order.

        `crit_sets_equal` is informational and never listed here.
        """
        failed = []
        if not self.slopes_finite.passed:
            failed.append("slopes_finite")
        if not self.slopes_equal.passed:
            failed.append("slopes_equal")
        if self.diff_constant_on_crit is not None \
                and not self.diff_constant_on_crit.passed:
            failed.append("diff_constant_on_crit")
        return tuple(failed)


@dataclass(frozen=True)
class Witness:
    point: int
    kind: str
    value: float | None = None


@dataclass(frozen=True)
class Verdict:
    kind: str
    constant: float | None = None
    violated: tuple[str, ...] = ()


@dataclass(frozen=True)
class DeterminationReport:
    verdict: Verdict
    diagnostics: HypothesisDiagnostics
    residual: float | None
    witnesses: tuple[Witness, ...]
    tolerances: dict
    slope_provenance: str

    @property
    def exit_code(self) -> int:
        if self.verdict.kind == VERDICT_EQUAL:
            return 0
        if self.verdict.kind == VERDICT_VIOLATED:
            return 2
        return 3


@dataclass(frozen=True)
class ComparisonResult:
    """One-sided comparison g <= f + c. `worst_margin` is the maximum of
    g - f - c over all points; the bound holds when it is <= tol."""

    holds: bool
    constant: float
    worst_point: int
    worst_margin: float


@dataclass(frozen=True)
class EpsilonAuditRow:
    epsilon: float
    crit_preserved: bool
    dominance_ok: bool
    bound_holds: bool
    worst_point: int | None
    worst_margin: float | None
    bracket_max: float


@dataclass(frozen=True)
class EpsilonAudit:
    """Scaling audit of the comparison bound.

    For each epsilon, f is inflated to (1 + epsilon) f, which preserves
    the critical set and strictly dominates the slope of g off it; the
    audited bound is g(x) < f(x) + epsilon * bracket(x) + c where
    bracket(x) = f(x) - min of f over critical points in the sublevel
    set of x. The bracket is independent of epsilon (up to rounding of
    the scaled sublevel sets), which is what `bracket_uniform` records;
    letting epsilon shrink to 0 recovers g <= f + c.
    """

    constant: float
    rows: tuple[EpsilonAuditRow, ...]
    bracket_uniform: bool


def _extremal_witness(points, values, slope_values, pick_max: bool):
    """Deterministic extremal witness: tolerance-tied extreme values are
    resolved toward the smallest slope, then the smallest point id."""
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


def _diagnose(space: MetricSpaceGraph, f: ScalarField, g: ScalarField,
              tol_slope: float, tol_crit: float, cap: float):
    """The diagnostics for validated knobs, plus the slope fields and
    critical sets they were built from: (diag, sf, sg, crit_f, crit_g)."""
    require_bound(space, f)
    require_bound(space, g)
    sf = slope_field(space, f, cap=cap)
    sg = slope_field(space, g, cap=cap)

    any_inf = sf.infinite | sg.infinite
    if any_inf.any():
        worst = int(np.flatnonzero(any_inf)[0])
        which = "f" if sf.infinite[worst] else "g"
        finiteness = FinitenessCheck(passed=False, worst_point=worst,
                                     which_field=which)
    else:
        finiteness = FinitenessCheck(passed=True)

    mask_mismatch = sf.infinite != sg.infinite
    if mask_mismatch.any():
        worst = int(np.flatnonzero(mask_mismatch)[0])
        equality = SlopeEqualityCheck(passed=False, max_gap=None,
                                      worst_point=worst)
    else:
        both_finite = ~sf.infinite
        if both_finite.any():
            gaps = np.abs(sf.values[both_finite] - sg.values[both_finite])
            idx = np.flatnonzero(both_finite)
            k = int(idx[int(np.argmax(gaps))])
            max_gap = float(np.max(gaps))
        else:
            k, max_gap = 0, 0.0
        equality = SlopeEqualityCheck(
            passed=max_gap <= tol_slope, max_gap=max_gap, worst_point=k,
            slope_f=float(sf.values[k]), slope_g=float(sg.values[k]))

    crit_f = critical_set(sf, tol_crit)
    crit_g = critical_set(sg, tol_crit)
    only_f = tuple(sorted(crit_f.members - crit_g.members))
    only_g = tuple(sorted(crit_g.members - crit_f.members))
    crit_check = CritSetCheck(passed=not only_f and not only_g,
                              only_in_f=only_f, only_in_g=only_g)

    crit_points = crit_f.sorted_members()
    if crit_points:
        diffs = [float(g.values[z] - f.values[z]) for z in crit_points]
        constant = float(np.mean(diffs))
        spread = float(max(diffs) - min(diffs))
        max_point, max_value = _extremal_witness(
            crit_points, diffs, sf.values, pick_max=True)
        min_point, min_value = _extremal_witness(
            crit_points, diffs, sf.values, pick_max=False)
        diff_check = DiffConstancyCheck(
            constant=constant, spread=spread, passed=spread <= tol_crit,
            max_point=max_point, max_value=max_value,
            min_point=min_point, min_value=min_value)
    else:
        diff_check = None

    diag = HypothesisDiagnostics(
        slopes_finite=finiteness, slopes_equal=equality,
        crit_sets_equal=crit_check, diff_constant_on_crit=diff_check,
        critical_points=crit_points, tol_slope=tol_slope, tol_crit=tol_crit,
        overflow_cap=cap)
    return diag, sf, sg, crit_f, crit_g


def check_hypotheses(space: MetricSpaceGraph, f: ScalarField, g: ScalarField,
                     tol_slope: float = 1e-9, tol_crit: float = 1e-9,
                     cap: float = OVERFLOW_CAP) -> HypothesisDiagnostics:
    """Evaluate the three hypotheses and estimate the constant.

    `tol_crit` plays two roles: the slope zero test that defines the
    critical set, and the allowed spread of g - f on it. Raises
    EmptyCriticalSet when no critical point exists at tol_crit, which on
    a finite space can only mean an infinite-slope pathology.
    """
    diag = _diagnose(space, f, g, check_tol(tol_slope, "tol_slope"),
                     check_tol(tol_crit, "tol_crit"), check_cap(cap))[0]
    if diag.diff_constant_on_crit is None:
        raise EmptyCriticalSet(
            f"no critical point at tol={tol_crit}; cannot estimate the constant")
    return diag


def _compare(sf: SlopeField, sg: SlopeField, crit: CriticalSet,
             f: ScalarField, g: ScalarField, c: float | None, tol: float,
             pre_tol: float) -> ComparisonResult:
    """`comparison_principle` on precomputed slope fields sf, sg and
    the critical set of f. A `c` of None takes the max of g - f over
    `crit`, which meets the critical bound by construction."""
    if sf.any_infinite():
        worst = int(np.flatnonzero(sf.infinite)[0])
        raise PreconditionViolated(
            "slopes_finite", f"slope of f overflows at point {worst}")
    if sg.any_infinite():
        worst = int(np.flatnonzero(sg.infinite)[0])
        raise PreconditionViolated(
            "slope_dominance", f"slope of g overflows at point {worst}")
    excess = sg.values - sf.values
    worst = int(np.argmax(excess))
    if excess[worst] > pre_tol:
        raise PreconditionViolated(
            "slope_dominance",
            f"slope_g - slope_f = {float(excess[worst])} at point {worst}")
    diffs = g.values - f.values
    on_crit = np.flatnonzero(crit.mask(sf.space.n))
    if c is None:
        c = float(diffs[on_crit].max())
    above = on_crit[diffs[on_crit] - c > pre_tol]
    if above.size:
        z = int(above[0])
        raise PreconditionViolated(
            "critical_bound",
            f"(g - f)({z}) = {float(diffs[z])} exceeds c = {c}")
    margins = diffs - c
    worst = int(np.argmax(margins))
    worst_margin = float(margins[worst])
    return ComparisonResult(holds=worst_margin <= tol, constant=c,
                            worst_point=worst, worst_margin=worst_margin)


def comparison_principle(space: MetricSpaceGraph, f: ScalarField,
                         g: ScalarField, c: float, tol: float = 1e-9,
                         crit_tol: float = 0.0, pre_tol: float | None = None,
                         cap: float = OVERFLOW_CAP) -> ComparisonResult:
    """One-sided comparison: from slope dominance and a critical bound,
    conclude g <= f + c everywhere (within tol). `c` must be finite.

    Preconditions, checked here with `pre_tol` (default: tol):
    the slope of f is finite everywhere, the slope of g is pointwise
    <= the slope of f, and g - f <= c on the critical set of f (taken
    at `crit_tol`). Violations raise PreconditionViolated naming the
    failed hypothesis; the conclusion itself is returned as data with
    its worst witness.
    """
    require_bound(space, f)
    require_bound(space, g)
    c = check_constant(c)
    tol = check_tol(tol)
    pre_tol = tol if pre_tol is None else check_tol(pre_tol, "pre_tol")
    sf = slope_field(space, f, cap=cap)
    sg = slope_field(space, g, cap=cap)
    return _compare(sf, sg, critical_set(sf, crit_tol), f, g, c, tol, pre_tol)


def epsilon_audit(space: MetricSpaceGraph, f: ScalarField, g: ScalarField,
                  epsilons, c: float | None = None, tol: float = 1e-9,
                  crit_tol: float = 0.0,
                  cap: float = OVERFLOW_CAP) -> EpsilonAudit:
    """Audit the inflation argument behind the comparison principle.

    Epsilons must be strictly decreasing and positive. For each epsilon
    the audit verifies that inflating f preserves the critical set and
    strictly dominates the slope of g off it, then evaluates the bound
    g(x) < f(x) + epsilon * bracket(x) + c at its worst point. `c`
    must be finite; it defaults to the max of g - f over the critical
    set of f. The hypotheses of `comparison_principle` are checked
    within `tol`.
    """
    require_bound(space, f)
    require_bound(space, g)
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ValueError("need at least one epsilon")
    for a, b in zip(eps, eps[1:]):
        if not b < a:
            raise ValueError("epsilons must be strictly decreasing")
    if not eps[-1] > 0.0:
        raise ValueError("epsilons must be positive")
    tol = check_tol(tol)
    if c is not None:
        c = check_constant(c)

    sf = slope_field(space, f, cap=cap)
    sg = slope_field(space, g, cap=cap)
    crit = critical_set(sf, crit_tol)
    c = _compare(sf, sg, crit, f, g, c, tol, tol).constant

    on_crit = crit.mask(space.n)
    crit_arr, non_crit = np.flatnonzero(on_crit), np.flatnonzero(~on_crit)
    fx, gx = f.values[non_crit], g.values[non_crit]

    rows = []
    for e in eps:
        fe = scale_field(f, 1.0 + e)
        se = slope_field(space, fe, cap=cap)
        crit_e = critical_set(se, crit_tol)
        crit_preserved = crit_e.members == crit.members
        dominance_ok = bool(np.all(
            (sg.values < se.values)[~crit_e.mask(space.n)]))
        floor_f, _ = sublevel_floor(fe.values[crit_arr], f.values[crit_arr],
                                    fe.values[non_crit])
        brackets = fx - floor_f
        margins = gx - (fx + e * brackets + c)
        # The first point of largest margin; a -inf margin (from an
        # overflowing bracket) never counts as the worst.
        ranked = np.flatnonzero(margins > -math.inf)
        if ranked.size:
            k = int(ranked[int(np.argmax(margins[ranked]))])
            worst_point, worst_margin = int(non_crit[k]), float(margins[k])
        else:
            worst_point = None
            worst_margin = -math.inf if non_crit.size else None
        rows.append(EpsilonAuditRow(
            epsilon=e, crit_preserved=crit_preserved,
            dominance_ok=dominance_ok,
            bound_holds=worst_margin is None or worst_margin < 0.0,
            worst_point=worst_point, worst_margin=worst_margin,
            bracket_max=float(max(0.0, brackets.max(initial=0.0)))))

    bracket_maxes = [row.bracket_max for row in rows]
    spread = max(bracket_maxes) - min(bracket_maxes)
    uniform = spread <= 1e-12 * max(1.0, abs(max(bracket_maxes)))
    return EpsilonAudit(constant=c, rows=tuple(rows), bracket_uniform=uniform)


def determine(space: MetricSpaceGraph, f: ScalarField, g: ScalarField,
              tol_slope: float = 1e-9, tol_crit: float = 1e-9,
              tol_residual: float | None = None,
              cap: float = OVERFLOW_CAP) -> DeterminationReport:
    """Full two-sided verdict: is g equal to f plus a constant?

    Runs the hypothesis checks; if all pass, applies the comparison
    principle in both directions with the estimated constant and then
    independently re-checks the residual max |g - f - c|. Hypothesis
    failures become HypothesisViolated verdicts with witnesses; a
    residual above tolerance with passing hypotheses is Inconclusive.
    """
    tol_slope = check_tol(tol_slope, "tol_slope")
    tol_crit = check_tol(tol_crit, "tol_crit")
    if tol_residual is None:
        tol_residual = 1e-9 + tol_crit
    tol_residual = check_tol(tol_residual, "tol_residual")
    cap = check_cap(cap)
    tolerances = {
        "tol_slope": tol_slope,
        "tol_crit": tol_crit,
        "tol_residual": tol_residual,
        "overflow_cap": cap,
    }
    diag, sf, sg, crit_f, crit_g = _diagnose(space, f, g, tol_slope,
                                             tol_crit, cap)
    dc = diag.diff_constant_on_crit
    violated = diag.failed_hypotheses()
    residual = None
    if dc is not None:
        c = dc.constant
        resid = g.values - f.values - c
        abs_resid = np.abs(resid)
        worst = int(np.argmax(abs_resid))
        residual = float(abs_resid[worst])

    if dc is None or violated:
        # dc is None only if overflow emptied the critical set.
        verdict = Verdict(kind=VERDICT_VIOLATED,
                          violated=violated or ("slopes_finite",))
        witnesses = _violation_witnesses(diag)
    else:
        witnesses = [Witness(point=worst, kind="residual",
                             value=float(resid[worst]))]
        try:
            forward = _compare(sf, sg, crit_f, f, g, c, tol_residual,
                               tol_slope)
            backward = _compare(sg, sf, crit_g, g, f, -c, tol_residual,
                                tol_slope)
            certified = forward.holds and backward.holds
        except PreconditionViolated as exc:
            # Possible only at tolerance boundaries (e.g. the critical set
            # of g picks up a point the constancy check never saw).
            certified = False
            witnesses.append(Witness(point=-1, kind=f"precondition:{exc.which}"))
        kind = VERDICT_EQUAL if certified and residual <= tol_residual \
            else VERDICT_INCONCLUSIVE
        verdict = Verdict(kind=kind, constant=c)
    return DeterminationReport(
        verdict=verdict, diagnostics=diag, residual=residual,
        witnesses=tuple(witnesses), tolerances=tolerances,
        slope_provenance=sf.provenance)


def _violation_witnesses(diag: HypothesisDiagnostics) -> list[Witness]:
    witnesses = []
    if not diag.slopes_finite.passed:
        witnesses.append(Witness(point=diag.slopes_finite.worst_point,
                                 kind="infinite_slope"))
    if not diag.slopes_equal.passed and diag.slopes_equal.worst_point is not None:
        witnesses.append(Witness(point=diag.slopes_equal.worst_point,
                                 kind="slope_gap",
                                 value=diag.slopes_equal.max_gap))
    dc = diag.diff_constant_on_crit
    if dc is not None and not dc.passed:
        witnesses.append(Witness(point=dc.max_point, kind="diff_max",
                                 value=dc.max_value))
        witnesses.append(Witness(point=dc.min_point, kind="diff_min",
                                 value=dc.min_value))
    return witnesses
