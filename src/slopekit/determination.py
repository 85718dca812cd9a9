"""Hypothesis checks and verdicts for slope-based function comparison.

Two fields on the same space are compared through three hypotheses:

  (1) slopes_finite: neither slope field contains an overflow marker;
  (2) slopes_equal: the slope fields agree pointwise within tol_slope;
  (3) diff_constant_on_crit: g - f is constant (within tol_crit) on the
      critical set of f.

When all three hold, g must equal f plus that constant. The paper
proves it by the one-sided comparison principle applied both ways;
`determine` reads both directions from the residual resid = g - f - c
of its checks: the critical bounds, resid <= tol_slope on the critical
set of f and >= -tol_slope on that of g, then max |resid| <=
tol_residual. The constant c is estimated as the mean of g - f over the
critical set and validated by its spread, since callers typically need
c discovered rather than supplied.

Each critical set is one boolean mask over the points (`critical_mask`);
the critical points, `only_in_f`/`only_in_g`, g - f on the critical set
and its witnesses are array selections on it. One private `_compare`
checks the comparison principle's hypotheses (finite slope of f, slope
dominance, the critical bound) on slope fields and critical ids the
caller holds, for `comparison_principle` and `epsilon_audit`. Each
public entry point validates its knobs once.

`epsilon_audit` inflates f by every epsilon in one 2-D pass: row r is
(1 + eps[r]) * f, one call of the slope kernel of `slope_field`
(`slope._slopes`) over all rows gives their slopes and one mask per
row their critical sets, with the elementwise float operations of the
per-epsilon loop it replaced (`testing.reference_epsilon_audit`); only
the sublevel floors and the worst margins are taken row by row.

The outcomes of `determine` are verdicts. It raises typed errors only
for malformed inputs, and DifferenceOverflow from `_diagnose` when g - f,
its mean or spread on the critical set, or the residual overflows the
float range, a value that no report can state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critical import critical_mask, sublevel_floor
from .errors import DifferenceOverflow, PreconditionViolated
from .slope import (
    OVERFLOW_CAP,
    ScalarField,
    SlopeField,
    _slopes,
    check_cap,
    check_constant,
    check_decreasing,
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


def _extremal_witness(ids: np.ndarray, values: np.ndarray,
                      slope_values: np.ndarray, pick_max: bool):
    """The witness among the ascending points `ids` for the first extreme
    of `values`: values tied with it within the window are resolved
    toward the smallest slope, then the smallest point id."""
    target = float(values[values.argmax() if pick_max else values.argmin()])
    window = _WITNESS_TIE_WINDOW * max(1.0, abs(target))
    # A gap overflows to inf and inf - inf is NaN (never tied), silently.
    with np.errstate(over="ignore", invalid="ignore"):
        tied = ids[((target - values) if pick_max else (values - target)) <= window]
    return int(tied[np.lexsort((tied, slope_values[tied]))[0]]), target


def _diagnose(space: MetricSpaceGraph, f: ScalarField, g: ScalarField,
              tol_slope: float, tol_crit: float, cap: float):
    """The diagnostics for validated knobs, plus the slope fields and
    critical masks they were built from and the residual g - f - c
    (None without critical points): (diag, sf, sg, in_f, in_g, resid).

    DifferenceOverflow if g - f, the constant, the spread or the
    residual is not finite."""
    require_bound(space, f)
    require_bound(space, g)
    sf = slope_field(space, f, cap=cap)
    sg = slope_field(space, g, cap=cap)

    any_inf = sf.infinite | sg.infinite
    if any_inf.any():
        worst = int(any_inf.nonzero()[0][0])
        which = "f" if sf.infinite[worst] else "g"
        finiteness = FinitenessCheck(passed=False, worst_point=worst,
                                     which_field=which)
    else:
        finiteness = FinitenessCheck(passed=True)

    mask_mismatch = sf.infinite != sg.infinite
    if mask_mismatch.any():
        worst = int(mask_mismatch.nonzero()[0][0])
        equality = SlopeEqualityCheck(passed=False, max_gap=None,
                                      worst_point=worst)
    else:
        both_finite = ~sf.infinite
        if both_finite.any():
            gaps = np.abs(sf.values[both_finite] - sg.values[both_finite])
            j = int(gaps.argmax())
            k, max_gap = int(both_finite.nonzero()[0][j]), float(gaps[j])
        else:
            k, max_gap = 0, 0.0
        equality = SlopeEqualityCheck(
            passed=max_gap <= tol_slope, max_gap=max_gap, worst_point=k,
            slope_f=float(sf.values[k]), slope_g=float(sg.values[k]))

    in_f = critical_mask(sf, tol_crit)
    in_g = critical_mask(sg, tol_crit)
    only_f = tuple((in_f & ~in_g).nonzero()[0].tolist())
    only_g = tuple((in_g & ~in_f).nonzero()[0].tolist())
    crit_check = CritSetCheck(passed=not only_f and not only_g,
                              only_in_f=only_f, only_in_g=only_g)

    crit_ids = in_f.nonzero()[0]
    crit_points = tuple(crit_ids.tolist())
    diff_check = resid = None
    if crit_points:
        with np.errstate(over="ignore", invalid="ignore"):
            diff = g.values - f.values
            diffs = diff[crit_ids]
            constant = float(diffs.mean())
            resid = diff - constant
        _require_finite(diff, "g - f")
        if not math.isfinite(constant):
            raise DifferenceOverflow(
                "the mean of g - f on the critical set overflows")
        _require_finite(resid, "g - f - c")
        max_point, max_value = _extremal_witness(
            crit_ids, diffs, sf.values, pick_max=True)
        min_point, min_value = _extremal_witness(
            crit_ids, diffs, sf.values, pick_max=False)
        spread = max_value - min_value
        if not math.isfinite(spread):
            raise DifferenceOverflow(
                f"the spread of g - f on the critical set, from point "
                f"{min_point} to point {max_point}, overflows")
        diff_check = DiffConstancyCheck(
            constant=constant, spread=spread,
            passed=spread <= tol_crit,
            max_point=max_point, max_value=max_value,
            min_point=min_point, min_value=min_value)

    diag = HypothesisDiagnostics(
        slopes_finite=finiteness, slopes_equal=equality,
        crit_sets_equal=crit_check, diff_constant_on_crit=diff_check,
        critical_points=crit_points)
    return diag, sf, sg, in_f, in_g, resid


def _require_finite(values: np.ndarray, name: str) -> None:
    """DifferenceOverflow naming the first point where `values` is not finite."""
    bad = (~np.isfinite(values)).nonzero()[0]
    if bad.size:
        raise DifferenceOverflow(f"{name} overflows at point {bad[0]}")


def _compare(sf: SlopeField, sg: SlopeField, crit_ids: np.ndarray,
             f: ScalarField, g: ScalarField, c: float | None,
             tol: float) -> ComparisonResult:
    """`comparison_principle` on precomputed slope fields sf, sg and
    the ascending ids `crit_ids` of the critical points of f. A `c` of
    None takes the max of g - f over them, which meets the critical
    bound by construction. g - f and the margins may overflow to +-inf,
    on purpose: an inf margin fails the bound, a -inf one meets it."""
    if sf.any_infinite():
        worst = int(sf.infinite.nonzero()[0][0])
        raise PreconditionViolated(
            "slopes_finite", f"slope of f overflows at point {worst}")
    if sg.any_infinite():
        worst = int(sg.infinite.nonzero()[0][0])
        raise PreconditionViolated(
            "slope_dominance", f"slope of g overflows at point {worst}")
    excess = sg.values - sf.values
    worst = int(excess.argmax())
    if excess[worst] > tol:
        raise PreconditionViolated(
            "slope_dominance",
            f"slope_g - slope_f = {float(excess[worst])} at point {worst}")
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = g.values - f.values
        if c is None:
            c = float(diffs[crit_ids].max())
        above = crit_ids[diffs[crit_ids] - c > tol]
        margins = diffs - c
    if above.size:
        z = int(above[0])
        raise PreconditionViolated(
            "critical_bound",
            f"(g - f)({z}) = {float(diffs[z])} exceeds c = {c}")
    worst = int(margins.argmax())
    worst_margin = float(margins[worst])
    return ComparisonResult(holds=worst_margin <= tol, constant=c,
                            worst_point=worst, worst_margin=worst_margin)


def comparison_principle(space: MetricSpaceGraph, f: ScalarField,
                         g: ScalarField, c: float, tol: float = 1e-9,
                         crit_tol: float = 0.0,
                         cap: float = OVERFLOW_CAP) -> ComparisonResult:
    """One-sided comparison: from slope dominance and a critical bound,
    conclude g <= f + c everywhere (within tol). `c` must be finite.

    Preconditions, checked here within the same tol: the slope of f is
    finite everywhere, the slope of g is pointwise <= the slope of f,
    and g - f <= c on the critical set of f (taken at `crit_tol`).
    Violations raise PreconditionViolated naming the failed hypothesis;
    the conclusion is returned as data with its worst witness.
    `determine` reads both directions of it from its residual g - f - c.
    """
    require_bound(space, f)
    require_bound(space, g)
    c = check_constant(c)
    tol = check_tol(tol)
    sf = slope_field(space, f, cap=cap)
    sg = slope_field(space, g, cap=cap)
    crit_ids = critical_mask(sf, crit_tol).nonzero()[0]
    return _compare(sf, sg, crit_ids, f, g, c, tol)


def epsilon_audit(space: MetricSpaceGraph, f: ScalarField, g: ScalarField,
                  epsilons, c: float | None = None, tol: float = 1e-9,
                  crit_tol: float = 0.0,
                  cap: float = OVERFLOW_CAP) -> EpsilonAudit:
    """Audit the inflation argument behind the comparison principle.

    Epsilons must be finite, positive and strictly decreasing
    (`check_decreasing`). For each epsilon the audit verifies that
    inflating f preserves the critical set and strictly dominates the
    slope of g off it, then evaluates the bound
    g(x) < f(x) + epsilon * bracket(x) + c at its worst point. `c` must
    be finite; it defaults to the max of g - f over the critical set of
    f. The hypotheses of `comparison_principle` are checked within
    `tol`. Each (1 + epsilon) * f is one row of a 2-D array, and one
    edge pass gives the slopes of every row, with the float operations
    of `scale_field`, `slope_field` and `critical_mask`. A product that
    overflows raises the error of `scale_field` for the first such
    epsilon, before the edge pass.
    """
    require_bound(space, f)
    require_bound(space, g)
    eps = check_decreasing(epsilons, "epsilons")
    tol = check_tol(tol)
    if c is not None:
        c = check_constant(c)
    cap = check_cap(cap)
    crit_tol = check_tol(crit_tol)

    sf = slope_field(space, f, cap=cap)
    sg = slope_field(space, g, cap=cap)
    on_crit = critical_mask(sf, crit_tol)
    crit_arr, non_crit = on_crit.nonzero()[0], (~on_crit).nonzero()[0]
    c = _compare(sf, sg, crit_arr, f, g, c, tol).constant
    fx, gx = f.values[non_crit], g.values[non_crit]

    # Row r holds (1 + eps[r]) * f as `scale_field` computes it. If a
    # row overflows, `scale_field` on the first such row raises the
    # error that names its first overflowing point.
    scales = [1.0 + e for e in eps]
    with np.errstate(over="ignore"):
        fe = f.values * np.array(scales)[:, None]
    finite = np.isfinite(fe).all(axis=1)
    if not finite.all():
        scale_field(f, scales[int((~finite).nonzero()[0][0])])
    # The slope kernel of `slope_field` and the test of `critical_mask`
    # on every row; dominance is checked off the critical set of each row.
    se, inf_e = _slopes(space, fe, cap)
    on_crit_e = ~inf_e & (se <= crit_tol)
    crit_preserved = (on_crit_e == on_crit).all(axis=1).tolist()
    dominance_ok = ((sg.values < se) | on_crit_e).all(axis=1).tolist()

    rows = []
    for r, e in enumerate(eps):
        floor_f, _ = sublevel_floor(fe[r, crit_arr], f.values[crit_arr],
                                    fe[r, non_crit])
        # Brackets and margins may overflow to +-inf (a margin to NaN).
        with np.errstate(over="ignore", invalid="ignore"):
            brackets = fx - floor_f
            margins = gx - (fx + e * brackets + c)
        # The first point of largest margin; a -inf or NaN margin (from
        # an overflowing bracket) never counts as the worst.
        ranked = (margins > -math.inf).nonzero()[0]
        if ranked.size:
            k = int(ranked[int(margins[ranked].argmax())])
            worst_point, worst_margin = int(non_crit[k]), float(margins[k])
        else:
            worst_point = None
            worst_margin = -math.inf if non_crit.size else None
        rows.append(EpsilonAuditRow(
            epsilon=e, crit_preserved=crit_preserved[r],
            dominance_ok=dominance_ok[r],
            bound_holds=worst_margin is None or worst_margin < 0.0,
            worst_point=worst_point, worst_margin=worst_margin,
            bracket_max=float(max(0.0, brackets.max(initial=0.0)))))

    bracket_maxes = [row.bracket_max for row in rows]
    hi, lo = max(bracket_maxes), min(bracket_maxes)
    # hi - lo is NaN when both are inf: equal brackets are uniform.
    uniform = hi == lo or (hi < math.inf and hi - lo <= 1e-12 * max(1.0, hi))
    return EpsilonAudit(constant=c, rows=tuple(rows), bracket_uniform=uniform)


def determine(space: MetricSpaceGraph, f: ScalarField, g: ScalarField,
              tol_slope: float = 1e-9, tol_crit: float = 1e-9,
              tol_residual: float | None = None,
              cap: float = OVERFLOW_CAP) -> DeterminationReport:
    """Full two-sided verdict: is g equal to f plus a constant?

    Runs the hypothesis checks; if all pass, reads the comparison
    principle in both directions from their residual g - f - c: its
    critical bounds within tol_slope, then max |g - f - c| <= tol_residual.
    Hypothesis failures become HypothesisViolated verdicts with
    witnesses; a failed bound or a residual above tolerance with passing
    hypotheses is Inconclusive. A difference that overflows raises
    DifferenceOverflow (`_diagnose`).
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
    diag, sf, _, in_f, in_g, resid = _diagnose(space, f, g, tol_slope,
                                               tol_crit, cap)
    dc = diag.diff_constant_on_crit
    violated = diag.failed_hypotheses()
    residual = None
    if dc is not None:
        abs_resid = np.abs(resid)
        worst = int(abs_resid.argmax())
        residual = float(abs_resid[worst])

    if dc is None or violated:
        # dc is None only if overflow emptied the critical set.
        verdict = Verdict(kind=VERDICT_VIOLATED,
                          violated=violated or ("slopes_finite",))
        witnesses = _violation_witnesses(diag)
    else:
        witnesses = [Witness(point=worst, kind="residual",
                             value=float(resid[worst]))]
        # Possible only at tolerance boundaries: with tol_crit > tol_slope,
        # or at a point critical for g alone.
        bounded = not ((resid[in_f] > tol_slope).any()
                       or (resid[in_g] < -tol_slope).any())
        if not bounded:
            witnesses.append(Witness(point=-1, kind="precondition:critical_bound"))
        kind = VERDICT_EQUAL if bounded and residual <= tol_residual \
            else VERDICT_INCONCLUSIVE
        verdict = Verdict(kind=kind, constant=dc.constant)
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
