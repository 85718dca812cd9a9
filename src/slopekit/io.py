"""CSV and JSON serialization for spaces, fields, slopes, paths, and
determination reports.

All numeric output is printed with 17 significant digits, which makes
float round trips lossless and repeated runs byte-identical. CSV files
use a mandatory header line; lines starting with '#' are comments.
Every number read must be finite: a NaN or infinite cell is a format
error naming its line.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .critical import CriticalSet
from .descent import DescentPath
from .determination import DeterminationReport
from .errors import FileFormatError
from .reconstruct import Inadmissible
from .slope import OVERFLOW_CAP, ScalarField, SlopeField
from .space import EDGE_LOCAL, MetricSpaceGraph, build_graph


def fmt(x: float) -> str:
    """17 significant digits: enough to reproduce any binary64 exactly."""
    return format(float(x), ".17g")


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _read_rows(path, expected_header: tuple[str, ...],
               allow_short_header: bool = False):
    text = Path(path).read_text(encoding="utf-8")
    lines = list(_data_lines(text))
    if not lines:
        raise FileFormatError(f"{path}: empty file, expected header "
                              f"{','.join(expected_header)}")
    lineno, header = lines[0]
    got = tuple(cell.strip() for cell in header.split(","))
    ok = got == expected_header or (
        allow_short_header and got == expected_header[:len(got)]
        and len(got) >= 2)
    if not ok:
        raise FileFormatError(
            f"{path}:{lineno}: bad header {header!r}, expected "
            f"{','.join(expected_header)}")
    rows = []
    for lineno, line in lines[1:]:
        cells = tuple(cell.strip() for cell in line.split(","))
        rows.append((lineno, cells))
    return got, rows


def _parse_int(path, lineno, cell, what):
    try:
        return int(cell)
    except ValueError:
        raise FileFormatError(f"{path}:{lineno}: bad {what} {cell!r}")


def _parse_float(path, lineno, cell, what):
    try:
        x = float(cell)
    except ValueError:
        raise FileFormatError(f"{path}:{lineno}: bad {what} {cell!r}")
    if not math.isfinite(x):
        raise FileFormatError(f"{path}:{lineno}: non-finite {what} {cell!r}")
    return x


# ---- spaces ----

def load_graph_csv(path, metric_mode: str = EDGE_LOCAL,
                   coordinates_path=None, n: int | None = None) -> MetricSpaceGraph:
    """Load a space from an edge list CSV with header `u,v,length`."""
    _, rows = _read_rows(path, ("u", "v", "length"))
    edges = []
    for lineno, cells in rows:
        if len(cells) != 3:
            raise FileFormatError(f"{path}:{lineno}: expected u,v,length")
        u = _parse_int(path, lineno, cells[0], "endpoint")
        v = _parse_int(path, lineno, cells[1], "endpoint")
        w = _parse_float(path, lineno, cells[2], "length")
        edges.append((u, v, w))
    coords = None
    if coordinates_path is not None:
        coords = load_coordinates_csv(coordinates_path)
        if n is None:
            n = coords.shape[0]
    return build_graph(edges, n=n, metric_mode=metric_mode, coordinates=coords)


def render_graph_csv(space: MetricSpaceGraph) -> str:
    out = ["u,v,length"]
    for u, v, w in space.edges:
        out.append(f"{u},{v},{fmt(w)}")
    return "\n".join(out) + "\n"


def load_coordinates_csv(path) -> np.ndarray:
    """Load per-point coordinates from a CSV with header `point,x[,y]`.

    Every point in [0, n) must appear exactly once (any order).
    """
    header, rows = _read_rows(path, ("point", "x", "y"),
                              allow_short_header=True)
    dim = len(header) - 1
    seen = {}
    for lineno, cells in rows:
        if len(cells) != dim + 1:
            raise FileFormatError(f"{path}:{lineno}: expected {dim + 1} columns")
        p = _parse_int(path, lineno, cells[0], "point")
        if p in seen:
            raise FileFormatError(f"{path}:{lineno}: duplicate point {p}")
        seen[p] = [
            _parse_float(path, lineno, c, "coordinate") for c in cells[1:]]
    n = len(seen)
    if sorted(seen) != list(range(n)):
        raise FileFormatError(f"{path}: points must cover 0..{n - 1} exactly")
    coords = np.array([seen[p] for p in range(n)])
    if dim == 1:
        coords = coords[:, 0]
    return coords


# ---- scalar fields ----

def _point_values(path, space: MetricSpaceGraph) -> dict[int, float]:
    """The rows of a `point,value` CSV, each point of the space at most once."""
    _, rows = _read_rows(path, ("point", "value"))
    out: dict[int, float] = {}
    for lineno, cells in rows:
        if len(cells) != 2:
            raise FileFormatError(f"{path}:{lineno}: expected point,value")
        p = _parse_int(path, lineno, cells[0], "point")
        if p in out:
            raise FileFormatError(f"{path}:{lineno}: duplicate point {p}")
        if not 0 <= p < space.n:
            raise FileFormatError(f"{path}:{lineno}: point {p} outside "
                                  f"[0, {space.n})")
        out[p] = _parse_float(path, lineno, cells[1], "value")
    return out


def load_field_csv(path, space: MetricSpaceGraph) -> ScalarField:
    """Load a field from a CSV with header `point,value` covering every
    point of the space exactly once."""
    seen = _point_values(path, space)
    if len(seen) != space.n:
        raise FileFormatError(
            f"{path}: {len(seen)} values for a {space.n}-point space")
    return ScalarField(space, np.array([seen[p] for p in range(space.n)]))


def render_field_csv(f: ScalarField) -> str:
    out = ["point,value"]
    for p in range(len(f)):
        out.append(f"{p},{fmt(f.values[p])}")
    return "\n".join(out) + "\n"


def load_crit_values_csv(path, space: MetricSpaceGraph) -> dict[int, float]:
    """Load prescribed values (a partial field) from a `point,value` CSV."""
    return _point_values(path, space)


# ---- slope fields ----

def render_slope_csv(slopes: SlopeField) -> str:
    out = ["point,slope,is_infinite"]
    for p in range(len(slopes)):
        if slopes.infinite[p]:
            out.append(f"{p},inf,1")
        else:
            out.append(f"{p},{fmt(slopes.values[p])},0")
    return "\n".join(out) + "\n"


def load_slope_csv(path, space: MetricSpaceGraph,
                   provenance: str = "exact-graph",
                   cap: float = OVERFLOW_CAP) -> SlopeField:
    """Load a slope field from `point,slope[,is_infinite]`.

    A slope not flagged infinite must be >= 0; the slope cell of a
    flagged row is not read.
    """
    header, rows = _read_rows(path, ("point", "slope", "is_infinite"),
                              allow_short_header=True)
    has_flag = len(header) == 3
    vals = {}
    flags = {}
    for lineno, cells in rows:
        if len(cells) != len(header):
            raise FileFormatError(f"{path}:{lineno}: expected "
                                  f"{len(header)} columns")
        p = _parse_int(path, lineno, cells[0], "point")
        if p in vals:
            raise FileFormatError(f"{path}:{lineno}: duplicate point {p}")
        if not 0 <= p < space.n:
            raise FileFormatError(f"{path}:{lineno}: point {p} outside "
                                  f"[0, {space.n})")
        flag = _parse_int(path, lineno, cells[2], "flag") if has_flag else 0
        if flag not in (0, 1):
            raise FileFormatError(f"{path}:{lineno}: is_infinite must be 0 or 1")
        flags[p] = bool(flag)
        vals[p] = (math.inf if flag else
                   _parse_float(path, lineno, cells[1], "slope"))
        if vals[p] < 0.0:
            raise FileFormatError(f"{path}:{lineno}: negative slope {cells[1]!r}")
    if len(vals) != space.n:
        raise FileFormatError(
            f"{path}: {len(vals)} slopes for a {space.n}-point space")
    values = np.array([vals[p] for p in range(space.n)])
    mask = np.array([flags[p] for p in range(space.n)], dtype=bool)
    return SlopeField(space, values, mask, provenance=provenance, cap=cap)


def render_crit_csv(crit: CriticalSet, slopes: SlopeField) -> str:
    out = [f"# tol={fmt(crit.tol)}", "point,slope"]
    for p in crit.sorted_members():
        out.append(f"{p},{fmt(slopes.values[p])}")
    return "\n".join(out) + "\n"


# ---- descent paths ----

def render_path_csv(path_obj: DescentPath) -> str:
    out = ["step,point,f,f_minus_g"]
    for i, p in enumerate(path_obj.points):
        out.append(f"{i},{p},{fmt(path_obj.f_values[i])},"
                   f"{fmt(path_obj.diff_values[i])}")
    flag = "true" if path_obj.terminal_critical else "false"
    out.append(f"# terminal_critical={flag}")
    return "\n".join(out) + "\n"


# ---- determination reports ----

def determination_report_to_dict(report: DeterminationReport) -> dict:
    d = report.diagnostics
    eq = d.slopes_equal
    dc = d.diff_constant_on_crit
    crit_preview = 16
    doc = {
        "verdict": report.verdict.kind,
        "violated_hypotheses": list(report.verdict.violated),
        "constant": report.verdict.constant,
        "residual": report.residual,
        "diagnostics": {
            "slopes_finite": {
                "passed": d.slopes_finite.passed,
                "worst_point": d.slopes_finite.worst_point,
                "which_field": d.slopes_finite.which_field,
            },
            "slopes_equal": {
                "passed": eq.passed,
                "max_gap": eq.max_gap,
                "worst_point": eq.worst_point,
                "slope_f": eq.slope_f,
                "slope_g": eq.slope_g,
            },
            "crit_sets_equal": {
                "passed": d.crit_sets_equal.passed,
                "only_in_f": list(d.crit_sets_equal.only_in_f[:crit_preview]),
                "only_in_g": list(d.crit_sets_equal.only_in_g[:crit_preview]),
            },
            "diff_constant_on_crit": None if dc is None else {
                "passed": dc.passed,
                "constant": dc.constant,
                "spread": dc.spread,
                "max_point": dc.max_point,
                "max_value": dc.max_value,
                "min_point": dc.min_point,
                "min_value": dc.min_value,
            },
            "critical_point_count": len(d.critical_points),
        },
        "witnesses": [
            {"point": w.point, "kind": w.kind, "value": w.value}
            for w in report.witnesses
        ],
        "tolerances": dict(report.tolerances),
        "slope_provenance": report.slope_provenance,
    }
    return doc


def render_determination_report(report: DeterminationReport) -> str:
    return json.dumps(determination_report_to_dict(report), indent=2,
                      allow_nan=False) + "\n"


def render_witness_report(result: Inadmissible) -> str:
    def safe(x: float):
        return fmt(x) if not math.isfinite(x) else x

    doc = {
        "admissible": False,
        "witnesses": [
            {"point": w.point, "expected": safe(w.expected),
             "recomputed": safe(w.recomputed)}
            for w in result.witnesses
        ],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


# ---- generic tabular output ----

def render_rows_csv(header, rows) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(
            fmt(c) if isinstance(c, float) else str(c) for c in row))
    return "\n".join(out) + "\n"


def render_rows_gnuplot(header, rows) -> str:
    out = ["# " + " ".join(header)]
    for row in rows:
        out.append(" ".join(
            fmt(c) if isinstance(c, float) else str(c) for c in row))
    return "\n".join(out) + "\n"


def render_rows_json(header, rows) -> str:
    docs = [dict(zip(header, row)) for row in rows]
    return json.dumps(docs, indent=2, allow_nan=False) + "\n"
