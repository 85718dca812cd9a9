"""CSV and JSON serialization for spaces, fields, slopes, paths, and
determination reports.

All numeric output is printed with 17 significant digits, which makes
float round trips lossless and repeated runs byte-identical. CSV files
are UTF-8 text with a mandatory header line; lines starting with '#'
are comments. Every number read must be finite: a NaN or infinite cell
is a format error naming its line.

Reading has two paths, and every loader reads its file once for both.

- The per-row path (`_read_rows`, `_parse_int`, `_parse_float` and each
  loader's row loop) defines the format: comment and blank lines are
  skipped, cells are stripped and converted by Python's int() and
  float() (so '+1_0.5', '٣' and CRLF line ends are accepted), and every
  FileFormatError, with its `path:lineno`, is raised there.
- The fast path (`_read_columns`) parses whole columns with
  np.loadtxt, but only after a whole-body guard has proved that the
  file is in the renderers' own grammar: the header line exactly as
  written, then rows of exactly the header's column count ended by
  a newline, every integer cell ASCII `-?[0-9]+` of at most 18 characters
  (so it fits int64), every float cell ASCII `-?(D+[.D*]|.D+)` with an
  optional `[eE][-+]?D+` exponent, D a digit. On that grammar
  np.loadtxt and Python's int() and float() give bitwise-equal values
  (`tests/test_csv_fast.py` checks this). The loader then checks the
  whole arrays (finite values, points in range, no duplicates, full
  coverage, flags in {0, 1}, slopes >= 0).

If the guard or any array check fails, the loader drops the arrays and
runs the per-row path on the same text. The fast path therefore raises
no format error of its own, and a file is either accepted with the same
values by both paths or rejected with the per-row path's message. A
slope file with flagged rows (whose slope cell reads 'inf') always takes
the per-row path.
"""
from __future__ import annotations

import json
import math
from io import StringIO
from pathlib import Path

import numpy as np

from .critical import CriticalSet
from .descent import DescentPath
from .determination import DeterminationReport
from .errors import FileFormatError
from .reconstruct import Inadmissible
from .slope import OVERFLOW_CAP, ScalarField, SlopeField
from .space import EDGE_LOCAL, MetricSpaceGraph, _space_from_columns


def fmt(x: float) -> str:
    """17 significant digits: enough to reproduce any binary64 exactly."""
    return format(float(x), ".17g")


# ---- reading: the fast path ----

# Byte classes of the renderers' grammar; 0 is any other byte.
_DIGIT, _MINUS, _PLUS, _DOT, _EXP, _COMMA, _NEWLINE = range(1, 8)
_CLASS = bytearray(256)
for _chars, _cls in ((b"0123456789", _DIGIT), (b"-", _MINUS), (b"+", _PLUS),
                     (b".", _DOT), (b"eE", _EXP), (b",", _COMMA),
                     (b"\n", _NEWLINE)):
    for _ch in _chars:
        _CLASS[_ch] = _cls
_CLASS = bytes(_CLASS)
# _FOLLOWS[8 * a + b]: whether a byte of class b may follow one of class a.
_FOLLOWS = np.zeros((8, 8), dtype=bool)
for _before, _after in {
        _COMMA: (_DIGIT, _MINUS, _DOT), _NEWLINE: (_DIGIT, _MINUS, _DOT),
        _MINUS: (_DIGIT, _DOT), _PLUS: (_DIGIT,),
        _DIGIT: (_DIGIT, _DOT, _EXP, _COMMA, _NEWLINE),
        _DOT: (_DIGIT, _EXP, _COMMA, _NEWLINE),
        _EXP: (_DIGIT, _MINUS, _PLUS)}.items():
    _FOLLOWS[_before, list(_after)] = True
_FOLLOWS = _FOLLOWS.ravel()
_MAX_INT_CHARS = 18


def _in_grammar(body: bytes, kinds: str) -> bool:
    """Whether `body` (the data rows, ending in a newline) is in the grammar
    of the module docstring, with column kinds 'i' (int) and 'f' (float).

    Which byte may follow which settles everything within a cell except
    that a float cell holds at most one '.' and one exponent, in that
    order, and a '.' needs a digit beside it; cell kinds, lengths and
    the column count come from the separator positions.
    """
    k = len(kinds)
    cls = np.frombuffer((b"\n" + body).translate(_CLASS), dtype=np.uint8)
    if not _FOLLOWS.take(cls[:-1] * np.uint8(8) + cls[1:]).all():
        return False
    dots = np.flatnonzero(cls == _DOT)
    if not ((cls[dots - 1] == _DIGIT) | (cls[dots + 1] == _DIGIT)).all():
        return False
    seps = np.flatnonzero(cls[1:] >= _COMMA)
    row_end = np.full(k, _COMMA, dtype=np.uint8)
    row_end[-1] = _NEWLINE
    if seps.size % k or not (cls[1:][seps].reshape(-1, k) == row_end).all():
        return False
    is_float = np.array([c == "f" for c in kinds])
    widths = np.diff(seps, prepend=-1).reshape(-1, k) - 1
    if widths[:, ~is_float].max(initial=0) > _MAX_INT_CHARS:
        return False
    # The cell of a byte at body offset q is the number of separators before q.
    exps = np.flatnonzero(cls == _EXP)
    dot_cell = np.searchsorted(seps, dots - 1)
    exp_cell = np.searchsorted(seps, exps - 1)
    if not (is_float[dot_cell % k].all() and is_float[exp_cell % k].all()):
        return False
    if (np.diff(dot_cell) == 0).any() or (np.diff(exp_cell) == 0).any():
        return False
    # A '.' after the exponent of its cell.
    nxt = np.searchsorted(dots, exps)
    has = nxt < dots.size
    return not (dot_cell[nxt[has]] == exp_cell[has]).any()


def _read_columns(path, layouts: dict[str, str]):
    """The text of a CSV file and, when it is in the renderers' grammar,
    its data columns.

    `layouts` maps each accepted header line to its column kinds, 'i'
    (int64) or 'f' (float64). Returns (text, columns), with columns
    None when the header is not one of those lines exactly, the file
    has no data row, or a row is outside the grammar.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(
            f"{path}: not UTF-8 text at byte {exc.start} ({exc.reason})"
        ) from None
    head, _, body = raw.partition(b"\n")
    kinds = layouts.get(head.decode("utf-8"))
    if kinds is None or not body:
        return text, None
    if not body.endswith(b"\n"):
        body += b"\n"
    if not _in_grammar(body, kinds):
        return text, None
    dtype = [(f"c{i}", "i8" if c == "i" else "f8") for i, c in enumerate(kinds)]
    table = np.loadtxt(StringIO(body.decode("ascii")), dtype=dtype,
                       delimiter=",", comments=None, ndmin=1)
    return text, [np.ascontiguousarray(table[name]) for name, _ in dtype]


def _distinct_points(points: np.ndarray, n: int) -> bool:
    """Whether every point lies in [0, n) and none repeats."""
    if points.min() < 0 or points.max() >= n:
        return False
    seen = np.zeros(n, dtype=bool)
    seen[points] = True
    return int(np.count_nonzero(seen)) == points.size


# ---- reading: the per-row path ----

def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _read_rows(path, text: str, expected_header: tuple[str, ...],
               allow_short_header: bool = False):
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

_INT64 = np.iinfo(np.int64)


def _edge_rows(path, text: str):
    """The u, v, length columns of an edge list CSV, row by row."""
    _, rows = _read_rows(path, text, ("u", "v", "length"))
    u, v, w = [], [], []
    for lineno, cells in rows:
        if len(cells) != 3:
            raise FileFormatError(f"{path}:{lineno}: expected u,v,length")
        for col, cell in zip((u, v), cells):
            x = _parse_int(path, lineno, cell, "endpoint")
            if not _INT64.min <= x <= _INT64.max:
                raise FileFormatError(
                    f"{path}:{lineno}: endpoint {cell!r} outside the int64 range")
            col.append(x)
        w.append(_parse_float(path, lineno, cells[2], "length"))
    return (np.array(u, dtype=np.int64), np.array(v, dtype=np.int64),
            np.array(w, dtype=float))


def load_graph_csv(path, metric_mode: str = EDGE_LOCAL,
                   coordinates_path=None, n: int | None = None) -> MetricSpaceGraph:
    """Load a space from an edge list CSV with header `u,v,length`.

    The edges are validated, and the space built, as by `build_graph`.
    """
    text, cols = _read_columns(path, {"u,v,length": "iif"})
    if cols is None or not np.isfinite(cols[2]).all():
        cols = _edge_rows(path, text)
    coords = None
    if coordinates_path is not None:
        coords = load_coordinates_csv(coordinates_path)
        if n is None:
            n = coords.shape[0]
    return _space_from_columns(*cols, n, metric_mode, coords)


def render_graph_csv(space: MetricSpaceGraph) -> str:
    out = ["u,v,length"]
    for u, v, w in space.edges:
        out.append(f"{u},{v},{fmt(w)}")
    return "\n".join(out) + "\n"


def load_coordinates_csv(path) -> np.ndarray:
    """Load per-point coordinates from a CSV with header `point,x[,y]`.

    Every point in [0, n) must appear exactly once (any order).
    """
    text, cols = _read_columns(path, {"point,x": "if", "point,x,y": "iff"})
    if cols is not None:
        points, xs = cols[0], np.column_stack(cols[1:])
        if _distinct_points(points, points.size) and np.isfinite(xs).all():
            coords = np.empty_like(xs)
            coords[points] = xs
            return coords[:, 0] if len(cols) == 2 else coords
    header, rows = _read_rows(path, text, ("point", "x", "y"),
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

_POINT_VALUE = {"point,value": "if"}


def _point_value_columns(path, space: MetricSpaceGraph):
    """The text of a `point,value` CSV and, from the fast path, its
    point and value columns once they pass the checks of
    `_point_values` (else None)."""
    text, cols = _read_columns(path, _POINT_VALUE)
    if cols is not None and not (_distinct_points(cols[0], space.n)
                                 and np.isfinite(cols[1]).all()):
        cols = None
    return text, cols


def _point_values(path, text: str, space: MetricSpaceGraph) -> dict[int, float]:
    """The rows of a `point,value` CSV, each point of the space at most once."""
    _, rows = _read_rows(path, text, ("point", "value"))
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
    text, cols = _point_value_columns(path, space)
    if cols is not None and cols[0].size == space.n:
        values = np.empty(space.n)
        values[cols[0]] = cols[1]
        return ScalarField(space, values)
    seen = _point_values(path, text, space)
    if len(seen) != space.n:
        raise FileFormatError(
            f"{path}: {len(seen)} values for a {space.n}-point space")
    return ScalarField(space, np.array([seen[p] for p in range(space.n)]))


def render_field_csv(f: ScalarField) -> str:
    return "".join(["point,value\n", *(
        f"{p},{v:.17g}\n" for p, v in enumerate(f.values.tolist()))])


def load_crit_values_csv(path, space: MetricSpaceGraph) -> dict[int, float]:
    """Load prescribed values (a partial field) from a `point,value` CSV."""
    text, cols = _point_value_columns(path, space)
    if cols is not None:
        return dict(zip(cols[0].tolist(), cols[1].tolist()))
    return _point_values(path, text, space)


# ---- slope fields ----

def render_slope_csv(slopes: SlopeField) -> str:
    return "".join(["point,slope,is_infinite\n", *(
        f"{p},inf,1\n" if inf else f"{p},{v:.17g},0\n"
        for p, (v, inf) in enumerate(zip(slopes.values.tolist(),
                                         slopes.infinite.tolist())))])


def load_slope_csv(path, space: MetricSpaceGraph,
                   provenance: str = "exact-graph",
                   cap: float = OVERFLOW_CAP) -> SlopeField:
    """Load a slope field from `point,slope[,is_infinite]`.

    A slope not flagged infinite must be >= 0; the slope cell of a
    flagged row is not read.
    """
    text, cols = _read_columns(path, {"point,slope": "if",
                                      "point,slope,is_infinite": "ifi"})
    if cols is not None:
        points, slopes = cols[:2]
        flags = cols[2] if len(cols) == 3 else np.zeros_like(points)
        flagged = flags == 1
        valid = flagged | ((flags == 0) & np.isfinite(slopes) & (slopes >= 0.0))
        if (points.size == space.n and _distinct_points(points, space.n)
                and valid.all()):
            values = np.empty(space.n)
            mask = np.empty(space.n, dtype=bool)
            values[points] = np.where(flagged, math.inf, slopes)
            mask[points] = flagged
            return SlopeField(space, values, mask, provenance=provenance,
                              cap=cap)
    header, rows = _read_rows(path, text, ("point", "slope", "is_infinite"),
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
    values = slopes.values.tolist()
    return "".join([f"# tol={fmt(crit.tol)}\npoint,slope\n", *(
        f"{p},{values[p]:.17g}\n" for p in crit.sorted_members())])


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
