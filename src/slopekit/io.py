"""CSV and JSON serialization for spaces, fields, slopes, paths, and
determination reports.

One row writer, `_render_rows`, prints every CSV and gnuplot table: int
and bool cells with `%d`, float cells with 17 significant digits
(`%.17g`), which makes float round trips lossless and runs byte-identical.

Every CSV loader reads one grammar: what the renderers write, plus LF or
CRLF line ends, ASCII spaces and tabs around cells, and blank and
comment ('#') lines. A file is UTF-8 text; its first other line is one
of the loader's header lines, and each later one is a row with the
header's number of comma-separated cells. An integer cell is ASCII
`-?[0-9]+` of at most 18 characters, so it fits int64. A float cell is
ASCII `-?(D+[.D*]|.D+)` with an optional `[eE][-+]?D+` exponent, D a
digit, or the `inf` that `render_slope_csv` writes in a flagged row.
Every value must be finite, except the unread slope of a flagged row.
A file outside the grammar, or a row that fails a loader's check
(points in range and distinct, flags in {0, 1}, slopes >= 0), is a
FileFormatError naming that line.

Reading is column-wise, and each rule of the grammar is checked once.
A guard on the bytes (`_in_grammar`) enforces what np.loadtxt would let
through: only the bytes `0-9 - + . e E , \n`, a '+' only right after
'e' or 'E', the header's number of cells in every row, and int cells of
at most 18 characters with no '.', 'e' or 'E'. np.loadtxt then parses
whole columns with the values of int() and float()
(`testing.reference_read_columns` is the oracle), and rejects every
other malformed cell: an empty one, a lone sign or '.', a second '.' or
exponent, a misplaced '-'. Before any guard, each `inf` cell after the
first is spelled `1e999` (`_infinities`), so a file in the renderers'
exact form is guarded as read; any other file is normalised once and
guarded again. Only a rejected file is read by lines, for the line to name.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import asdict
from io import StringIO
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import FileFormatError, InvariantViolated
from .slope import OVERFLOW_CAP, ScalarField, SlopeField, require_bound
from .space import MetricSpaceGraph, _space_from_columns

if TYPE_CHECKING:  # annotations only: a `slope` process never loads these
    from .critical import CriticalSet
    from .descent import DescentPath
    from .determination import DeterminationReport
    from .reconstruct import Inadmissible


def fmt(x: float) -> str:
    """17 significant digits: enough to reproduce any binary64 exactly."""
    return format(float(x), ".17g")


# ---- reading ----

# The cells of the grammar, as patterns; `_grammar_error` names the first
# row outside them.
_INT = r"(?:-?[0-9]{1,17}|[0-9]{18})"  # at most 18 characters
_FLOAT = r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
_CELL = {"i": re.compile(_INT), "f": re.compile(f"{_FLOAT}|inf")}
_ALPHABET = b"0123456789-+.eE,\n"
_MAX_INT_CHARS = 18
# A whole `inf` cell after a comma, matched from its 'i': the regex engine
# finds that one byte about three times faster than the prefix ",inf".
_INF_CELL = re.compile(rb"i(?<=,i)nf(?=[,\n])")


def _infinities(body: bytes) -> bytes:
    """`body` with each whole `inf` cell after a comma spelled `1e999`."""
    return _INF_CELL.sub(b"1e999", body) if b"i" in body else body


def _in_grammar(body: bytes, kinds: str) -> bool:
    """Whether `body` (data rows, each ended by a newline) keeps the rules
    of the grammar that np.loadtxt does not enforce, with column kinds 'i'
    (int) and 'f' (float): only bytes of `_ALPHABET`, a '+' only right
    after an exponent mark, `len(kinds)` cells in every row (so no blank
    line shifts a cell into another column), and int cells of at most 18
    characters without '.', 'e' or 'E' (which numpy 1.24 may still read
    into an int column). np.loadtxt rejects every other cell outside the
    grammar as it parses.
    """
    if body.translate(None, _ALPHABET):
        return False
    b = np.frombuffer(body, dtype=np.uint8)
    # b[-1] is a newline, so a '+' at offset 0 fails too.
    before_plus = b[np.flatnonzero(b == ord("+")) - 1]
    if not ((before_plus == ord("e")) | (before_plus == ord("E"))).all():
        return False
    k = len(kinds)
    seps = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
    row_end = np.frombuffer(b"," * (k - 1) + b"\n", dtype=np.uint8)
    if seps.size % k or not (b[seps].reshape(-1, k) == row_end).all():
        return False
    is_int = np.array([c == "i" for c in kinds])
    widths = np.diff(seps, prepend=-1).reshape(-1, k) - 1
    if widths[:, is_int].max(initial=0) > _MAX_INT_CHARS:
        return False
    # '.', 'e' and 'E' are the bytes of the alphabet above '-' other than
    # the digits. The cell of a byte at body offset q is the number of
    # separators before q.
    marks = np.flatnonzero((b == ord(".")) | (b > ord("9")))
    return not is_int[np.searchsorted(seps, marks) % k].any()


def _data_lines(text: str):
    """(line number, cells) of each line that is neither blank nor a
    comment, without CRLF ends and the spaces and tabs around cells."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r").strip(" \t")
        if line and not line.startswith("#"):
            yield lineno, [cell.strip(" \t") for cell in line.split(",")]


def _grammar_error(path, text: str, kinds: str, names) -> Exception:
    """The error for the first data row of `text` outside the grammar."""
    lines = _data_lines(text)
    header = ",".join(next(lines)[1])
    for lineno, cells in lines:
        where = f"{path}:{lineno}:"
        if len(cells) != len(kinds):
            return FileFormatError(f"{where} expected {header}")
        for cell, kind, what in zip(cells, kinds, names):
            if _CELL[kind].fullmatch(cell):
                continue
            if kind == "i" and re.fullmatch("-?[0-9]+", cell):
                return FileFormatError(f"{where} {what} {cell!r} is longer "
                                       f"than {_MAX_INT_CHARS} characters")
            try:
                finite = kind == "i" or math.isfinite(float(cell))
            except ValueError:
                finite = True
            return FileFormatError(
                f"{where} {'bad' if finite else 'non-finite'} {what} {cell!r}")
    return InvariantViolated(f"{path}: the reader rejects rows that "
                             "the cell patterns accept")


def _normalised(path, raw: bytes, layouts: dict[str, str], names):
    """The header line and data rows of any file in the grammar, in the
    renderers' form."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(
            f"{path}: not UTF-8 text at byte {exc.start} ({exc.reason})"
        ) from None
    lines = _data_lines(text)
    lineno, cells = next(lines, (0, None))
    expected = max(layouts, key=len)
    if cells is None:
        raise FileFormatError(f"{path}: empty file, expected header {expected}")
    header = ",".join(cells)
    if header not in layouts:
        raise FileFormatError(
            f"{path}:{lineno}: bad header {header!r}, expected {expected}")
    body = _infinities("".join([",".join(cells) + "\n" for _, cells in lines]).encode())
    if body and not _in_grammar(body, layouts[header]):
        raise _grammar_error(path, text, layouts[header], names)
    return header, body


def _read_columns(path, layouts: dict[str, str], names):
    """The data columns of a CSV file, and its bytes.

    `layouts` maps each accepted header line to its column kinds, 'i'
    (int64) or 'f' (float64), and `names` names the cells in messages.
    An `inf` cell reads as float inf.
    """
    raw = Path(path).read_bytes()
    head, _, body = raw.partition(b"\n")
    kinds = layouts.get(head.decode("latin-1"))
    if body and not body.endswith(b"\n"):
        body += b"\n"
    body = _infinities(body)
    if kinds is None or not body or not _in_grammar(body, kinds):
        header, body = _normalised(path, raw, layouts, names)
        kinds = layouts[header]
    dtype = [(f"c{i}", "i8" if c == "i" else "f8") for i, c in enumerate(kinds)]
    if not body:
        return [np.empty(0, dt) for _, dt in dtype], raw
    try:
        table = np.loadtxt(StringIO(body.decode("ascii")), dtype=dtype,
                           delimiter=",", comments=None, ndmin=1)
    except ValueError:  # a cell that does not parse
        raise _grammar_error(path, raw.decode(), kinds, names) from None
    return [np.ascontiguousarray(table[name]) for name, _ in dtype], raw


def _reject_rows(path, raw: bytes, checks) -> None:
    """Raise FileFormatError at the first data row that a check flags.

    `checks` holds (mask over the rows, message) pairs, tried in order
    on that row; a message is formatted with the row's cells and `p`,
    the integer in its first cell."""
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():
        return
    row = int(np.argmax(bad))
    lineno, cells = next(islice(_data_lines(raw.decode()), row + 1, None))
    message = next(message for mask, message in checks if mask[row])
    raise FileFormatError(
        f"{path}:{lineno}: {message.format(*cells, p=int(cells[0]))}")


def _distinct_points(points: np.ndarray, n: int) -> bool:
    """Whether every point lies in [0, n) and none repeats."""
    if points.size and (points.min() < 0 or points.max() >= n):
        return False
    seen = np.zeros(n, dtype=bool)
    seen[points] = True
    return int(np.count_nonzero(seen)) == points.size


def _point_checks(points: np.ndarray, n: int | None):
    """The row checks of a point column: no point repeats an earlier
    row's, and each lies in [0, n) unless n is None."""
    if _distinct_points(points, points.size if n is None else n):
        return []
    first = np.zeros(points.size, dtype=bool)
    first[np.unique(points, return_index=True)[1]] = True
    checks = [(~first, "duplicate point {p}")]
    if n is not None:
        checks.append(((points < 0) | (points >= n),
                       f"point {{p}} outside [0, {n})"))
    return checks


# ---- spaces ----

def load_graph_csv(path, n: int | None = None) -> MetricSpaceGraph:
    """Load a space from an edge list CSV with header `u,v,length`.

    The edges are validated, and the space built, as by `build_graph`.
    """
    (u, v, w), raw = _read_columns(path, {"u,v,length": "iif"},
                                   ("endpoint", "endpoint", "length"))
    _reject_rows(path, raw, [(~np.isfinite(w), "non-finite length {2!r}")])
    return _space_from_columns(u, v, w, n)


def render_graph_csv(space: MetricSpaceGraph) -> str:
    up = space.src < space.dst
    return _render_rows(",", "", ("u", "v", "length"), "ddg", zip(
        space.src[up].tolist(), space.dst[up].tolist(), space.w[up].tolist()))


def load_coordinates_csv(path) -> np.ndarray:
    """Load per-point coordinates from a CSV with header `point,x[,y]`.

    Every point in [0, n) must appear exactly once (any order). Spaces
    take no coordinates: the array is for the caller's own use.
    """
    (points, *xs), raw = _read_columns(
        path, {"point,x": "if", "point,x,y": "iff"},
        ("point", "coordinate", "coordinate"))
    _reject_rows(path, raw, [*_point_checks(points, None), *(
        (~np.isfinite(x), f"non-finite coordinate {{{i}!r}}")
        for i, x in enumerate(xs, start=1))])
    n = points.size
    if not _distinct_points(points, n):
        raise FileFormatError(f"{path}: points must cover 0..{n - 1} exactly")
    coords = np.empty((n, len(xs)))
    coords[points] = np.column_stack(xs)
    return coords[:, 0] if len(xs) == 1 else coords


# ---- scalar fields ----

def _point_values(path, space: MetricSpaceGraph):
    """The point and value columns of a `point,value` CSV, each point
    of the space at most once."""
    (points, values), raw = _read_columns(path, {"point,value": "if"},
                                          ("point", "value"))
    _reject_rows(path, raw, [*_point_checks(points, space.n),
                             (~np.isfinite(values), "non-finite value {1!r}")])
    return points, values


def load_field_csv(path, space: MetricSpaceGraph) -> ScalarField:
    """Load a field from a CSV with header `point,value` covering every
    point of the space exactly once."""
    points, values = _point_values(path, space)
    if points.size != space.n:
        raise FileFormatError(
            f"{path}: {points.size} values for a {space.n}-point space")
    out = np.empty(space.n)
    out[points] = values
    return ScalarField(space, out)


def render_field_csv(f: ScalarField) -> str:
    return _render_rows(",", "", ("point", "value"), "dg",
                        enumerate(f.values.tolist()))


def load_crit_values_csv(path, space: MetricSpaceGraph) -> dict[int, float]:
    """Load prescribed values (a partial field) from a `point,value` CSV."""
    points, values = _point_values(path, space)
    return dict(zip(points.tolist(), values.tolist()))


# ---- slope fields ----

def render_slope_csv(slopes: SlopeField) -> str:
    return _render_rows(",", "", ("point", "slope", "is_infinite"), "dgd", zip(
        range(slopes.space.n), slopes.values.tolist(), slopes.infinite.tolist()))


def load_slope_csv(path, space: MetricSpaceGraph,
                   cap: float = OVERFLOW_CAP) -> SlopeField:
    """Load a slope field from `point,slope[,is_infinite]`.

    A slope not flagged infinite must be finite and >= 0; the slope
    cell of a flagged row is not read.
    """
    (points, slopes, *flag), raw = _read_columns(
        path, {"point,slope": "if", "point,slope,is_infinite": "ifi"},
        ("point", "slope", "flag"))
    flags = flag[0] if flag else np.zeros_like(points)
    flagged, unflagged = flags == 1, flags == 0
    _reject_rows(path, raw, [
        *_point_checks(points, space.n),
        (~(flagged | unflagged), "is_infinite must be 0 or 1"),
        (unflagged & ~np.isfinite(slopes), "non-finite slope {1!r}"),
        (unflagged & (slopes < 0.0), "negative slope {1!r}")])
    if points.size != space.n:
        raise FileFormatError(
            f"{path}: {points.size} slopes for a {space.n}-point space")
    values = np.empty(space.n)
    mask = np.empty(space.n, dtype=bool)
    values[points] = np.where(flagged, math.inf, slopes)
    mask[points] = flagged
    return SlopeField(space, values, mask, cap=cap)


def render_crit_csv(crit: CriticalSet, slopes: SlopeField) -> str:
    require_bound(slopes.space, crit)
    ids = crit.mask.nonzero()[0]
    return _render_rows(",", f"# tol={fmt(crit.tol)}\n", ("point", "slope"), "dg",
                        zip(ids.tolist(), slopes.values[ids].tolist()))


# ---- descent paths ----

def render_path_csv(path_obj: DescentPath) -> str:
    rows = zip(range(len(path_obj)), path_obj.points, path_obj.f_values,
               path_obj.diff_values)
    flag = "true" if path_obj.terminal_critical else "false"
    return _render_rows(",", "", ("step", "point", "f", "f_minus_g"), "ddgg",
                        rows) + f"# terminal_critical={flag}\n"


# ---- determination reports ----

def determination_report_to_dict(report: DeterminationReport) -> dict:
    d = report.diagnostics
    dc = d.diff_constant_on_crit
    crit_preview = 16
    return {
        "verdict": report.verdict.kind,
        "violated_hypotheses": list(report.verdict.violated),
        "constant": report.verdict.constant,
        "residual": report.residual,
        "diagnostics": {
            "slopes_finite": asdict(d.slopes_finite),
            "slopes_equal": asdict(d.slopes_equal),
            "crit_sets_equal": {
                "passed": d.crit_sets_equal.passed,
                "only_in_f": list(d.crit_sets_equal.only_in_f[:crit_preview]),
                "only_in_g": list(d.crit_sets_equal.only_in_g[:crit_preview]),
            },
            "diff_constant_on_crit": {"passed": dc.passed, **asdict(dc)},
            "critical_point_count": len(d.critical_points),
        },
        "witnesses": [asdict(w) for w in report.witnesses],
        "tolerances": dict(report.tolerances),
        "slope_provenance": report.slope_provenance,
    }


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

def _render_rows(sep: str, prefix: str, header, kinds: str, rows) -> str:
    """`prefix`, the header line, then one line per row. Rows are tuples
    of numbers; `kinds` has one letter per column: 'd' prints an int or
    bool cell with `%d`, 'g' a float cell as `fmt` prints it (`%.17g`)."""
    line = sep.join(["%d" if k == "d" else "%.17g" for k in kinds]) + "\n"
    return "".join([prefix, sep.join(header), "\n", *(line % row for row in rows)])


def render_rows_csv(header, rows) -> str:
    return _render_rows(",", "", header, "g" * len(header), rows)


def render_rows_gnuplot(header, rows) -> str:
    return _render_rows(" ", "# ", header, "g" * len(header), rows)


def render_rows_json(header, rows) -> str:
    docs = [dict(zip(header, row)) for row in rows]
    return json.dumps(docs, indent=2, allow_nan=False) + "\n"
