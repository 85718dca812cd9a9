"""Differential suite for the CSV layer: the column reader of
`slopekit.io` (a byte guard, one normalising pass for files not in the
renderers' exact form, then np.loadtxt) against
`testing.reference_read_columns`, which matches each line against the
cell patterns and converts each cell with int() or float().

Files in the grammar must read bitwise-equal both ways, and files
outside it must be rejected by both. Every malformed file of the CLI
fuzz suite, and every in-grammar file that a loader's checks reject,
must fail with its pinned exception class and message. Whole CLI runs
must be byte-identical on rewritten files.
"""
import json
import random
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import slopekit.io as skio
from slopekit.cli import main
from slopekit.errors import FileFormatError
from slopekit.testing import random_connected_graph, reference_read_columns
from test_cli_fuzz import FILES, cases, write

INT, FLOAT = skio._INT, skio._FLOAT

LOADERS = {
    "graph": lambda path, space: skio.load_graph_csv(path),
    "coords": lambda path, space: skio.load_coordinates_csv(path),
    "field": skio.load_field_csv,
    "slopes": skio.load_slope_csv,
    "crit_values": skio.load_crit_values_csv,
}

LAYOUTS = {
    "graph": {"u,v,length": "iif"},
    "coords": {"point,x": "if", "point,x,y": "iff"},
    "field": {"point,value": "if"},
    "slopes": {"point,slope": "if", "point,slope,is_infinite": "ifi"},
    "crit_values": {"point,value": "if"},
}


def bits(a) -> list:
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def digest(obj):
    """Everything a loader returns, with floats as their bit patterns."""
    if isinstance(obj, list):  # columns
        return [(c.dtype.str, c.tolist() if c.dtype.kind == "i" else bits(c))
                for c in obj]
    if isinstance(obj, dict):
        return [(p, bits([v])) for p, v in obj.items()]
    if isinstance(obj, np.ndarray):
        return obj.shape, bits(obj.ravel())
    if hasattr(obj, "src"):  # a space
        coords = None if obj.coordinates is None else digest(obj.coordinates)
        return (obj.n, obj.src.tolist(), obj.dst.tolist(), bits(obj.w),
                coords)
    if hasattr(obj, "infinite"):  # a slope field
        return bits(obj.values), obj.infinite.tolist(), obj.provenance
    return bits(obj.values)  # a scalar field


def outcome(load, tmp_path=None):
    """("ok", digest) or (exception class name, message without tmp_path)."""
    try:
        return "ok", digest(load())
    except Exception as exc:  # compared, never swallowed
        message = str(exc)
        if tmp_path is not None:
            message = message.replace(f"{tmp_path}/", "")
        return type(exc).__name__, message


def read_columns(path, layouts):
    return skio._read_columns(path, layouts, ("cell",) * 3)[0]


def count_normalised(monkeypatch) -> list:
    """Record each file the column reader has to normalise."""
    calls = []
    real = skio._normalised

    def spy(path, *args):
        calls.append(path)
        return real(path, *args)

    monkeypatch.setattr(skio, "_normalised", spy)
    return calls


def write_file(path, text: str):
    path.write_text(text, encoding="utf-8", newline="")
    return path


# ---- the reader (guard, then parse) takes exactly the grammar ----

def read_body(tmp_path, body: str, kinds: str):
    """What the column reader and the reference give a file of `body`
    under a header with the given column kinds: each side's columns (as
    bit patterns), or None when it rejects the file. The reader must
    reject with FileFormatError, the reference with ValueError, and
    neither may warn."""
    header = ",".join(f"c{i}" for i in range(len(kinds)))
    path = write_file(tmp_path / "body.csv", f"{header}\n{body}")
    sides = []
    for read, error in ((read_columns, FileFormatError),
                        (lambda *a: reference_read_columns(*a)[1], ValueError)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                sides.append(digest(read(path, {header: kinds})))
            except error:
                sides.append(None)
    return sides


def random_cell(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.2:
        return format(rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-320, 300),
                      ".17g")
    if roll < 0.3:
        return str(rng.randint(-10 ** 19, 10 ** 19))
    return "".join(rng.choice("0123456789-+.eE") for _ in range(rng.randint(0, 6)))


BODIES = 4000  # per column layout


@pytest.mark.parametrize("kinds", ["if", "iif", "ifi", "iff"])
def test_guard_matches_the_grammar(tmp_path, kinds):
    rng = random.Random(2021 + len(kinds))
    cell = {"i": INT, "f": FLOAT}
    row = re.compile(",".join(cell[c] for c in kinds))
    accepted = 0
    for _ in range(BODIES):
        rows = [",".join(random_cell(rng) if rng.random() < 0.3 else
                         (str(rng.randint(-99, 99)) if c == "i" else
                          repr(rng.uniform(-9, 9))) for c in kinds)
                for _ in range(rng.randint(1, 3))]
        body = "".join(r + "\n" for r in rows)
        got, ref = read_body(tmp_path, body, kinds)
        assert got == ref, body
        assert (got is not None) == all(row.fullmatch(r) for r in rows), body
        accepted += got is not None
    assert 0 < accepted < BODIES


# A float in an int column: numpy 2 refuses it as it parses, and numpy
# 1.24 may read it, so the guard refuses it first.
FLOATS_IN_INT_COLUMNS = [("1.0,2\n", "if"), ("1e3,2\n", "if"), ("1.5,2.0\n", "if")]


@pytest.mark.parametrize("body,kinds", FLOATS_IN_INT_COLUMNS)
def test_guard_refuses_floats_in_int_columns(body, kinds):
    assert not skio._in_grammar(body.encode(), kinds)


@pytest.mark.parametrize("body,kinds", [
    ("1,2\n\n3,4\n", "if"),            # blank line
    ("1,2,3\n", "if"),                 # extra column
    ("1\n", "if"),                     # missing column
    ("1,2\n3\n", "if"),
    ("1,2\r\n", "if"),                 # CRLF
    (" 1,2\n", "if"),                  # whitespace
    ("+1,2\n", "if"), ("1,+2\n", "if"),
    ("1_0,2\n", "if"), ("1,2_5\n", "if"),
    ("٣,2\n", "if"), ("1,2 \n", "if"),
    *FLOATS_IN_INT_COLUMNS,
    ("1234567890123456789,2\n", "if"),      # 19 characters
    ("1,.\n", "if"), ("1,-\n", "if"), ("1,-.\n", "if"), ("1,e5\n", "if"),
    ("1,.e5\n", "if"), ("1,5e\n", "if"), ("1,5e+\n", "if"),
    ("1,5.5.5\n", "if"), ("1,5e5e5\n", "if"), ("1,5e5.5\n", "if"),
    ("1,5-5\n", "if"), ("1,--5\n", "if"), ("1,inf\n", "if"),
    ("1,nan\n", "if"), ("#1,2\n", "if"),
    ("1,2\n\n1234567890123456789,5\n\n", "if"),  # the long int, shifted
    ("0000000000000000001,2\n", "if"),      # 19 characters for a small value
    ("1,5e+-5\n", "if"), ("1,\n", "if"), (",2\n", "if"), ("1,2,3\n4\n", "if"),
    ("1,2,inf\n", "ifi"), ("1,2,1e0\n", "ifi"),
])
def test_guard_rejects(tmp_path, monkeypatch, body, kinds):
    # No body here is accepted as written: the reader rejects those
    # outside the grammar, and normalises the rest (spaces, CRLF, a blank
    # or comment line, `inf`) and reads them as the reference does.
    normalised = count_normalised(monkeypatch)
    got, ref = read_body(tmp_path, body, kinds)
    assert got == ref
    assert got is None or normalised


@pytest.mark.parametrize("body,kinds", [
    ("-0,-0\n", "if"), ("007,0.5\n", "if"), ("123456789012345678,1\n", "if"),
    ("-12345678901234567,1\n", "if"), ("1,5.\n", "if"), ("1,.5\n", "if"),
    ("1,-.5\n", "if"), ("1,5.e3\n", "if"), ("1,2.5E+2\n", "if"),
    ("1,1e-320\n", "if"), ("1,1e999\n", "if"), ("0,1,0.25\n1,2,2\n", "iif"),
    ("\n1,2\n\n\n3,4\n\n", "if"),  # blank lines between rows
    ("\n", "if"), ("\n\n\n", "iif"),  # only blank lines: no rows
])
def test_guard_accepts(tmp_path, monkeypatch, body, kinds):
    # Rows in the renderers' form are read as written; blank lines are
    # normalised away first.
    normalised = count_normalised(monkeypatch)
    got, ref = read_body(tmp_path, body, kinds)
    assert got == ref and got is not None
    assert bool(normalised) == (body.startswith("\n") or "\n\n" in body)
    if not body.strip("\n"):
        assert all(not column for _, column in got)


# ---- files in the grammar read bitwise-equal to the reference ----

def random_values(rng: random.Random, n: int) -> list[float]:
    return [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)
            if rng.random() < 0.2 else rng.uniform(-5.0, 5.0)
            for _ in range(n)]


def well_formed(rng: random.Random, n: int) -> dict[str, str]:
    """A renderer-format file for every loader, rows in random order."""
    space = random_connected_graph(rng, n_max=n, n_min=n)
    edges = list(space.edges)
    rng.shuffle(edges)
    order = list(range(n))
    rng.shuffle(order)
    values = random_values(rng, n)
    slopes = [abs(v) for v in random_values(rng, n)]
    xs, ys = random_values(rng, n), random_values(rng, n)
    crit = sorted(rng.sample(range(n), n // 3), key=lambda _: rng.random())
    return {
        "graph": "u,v,length\n" + "".join(
            f"{u},{v},{w!r}\n" for u, v, w in edges),
        "coords": "point,x,y\n" + "".join(
            f"{p},{xs[p]:.17g},{ys[p]:.17g}\n" for p in order)
        if n % 2 else "point,x\n" + "".join(f"{p},{xs[p]:.17g}\n" for p in order),
        "field": "point,value\n" + "".join(
            f"{p},{values[p]:.17g}\n" for p in order),
        "slopes": "point,slope,is_infinite\n" + "".join(
            f"{p},{slopes[p]:.17g},0\n" for p in order),
        "crit_values": "point,value\n" + "".join(
            f"{p},{values[p]:.17g}\n" for p in crit),
    }


# Rewrites of a well-formed file, and how the column reader takes the
# result: as written, after normalising, or not at all (the spellings
# that only Python's int() and float() accept).
EQUIVALENT = {
    "plain": ("as written", lambda t: t),
    "no final newline": ("as written", lambda t: t[:-1]),
    "leading zeros": ("as written", lambda t: re.sub(
        r"(^|,)(\d)", r"\g<1>00\2", t, flags=re.M)),
    "minus zero": ("as written", lambda t: re.sub(r"(?m)^0,", "-0,", t)),
    "exponents": ("as written", lambda t: re.sub(
        r"(\d)\.(\d+)(?=,|$)",
        lambda m: f"{m[1]}{m[2]}E-{len(m[2])}", t, flags=re.M)),
    "leading plus": ("rejected", lambda t: re.sub(r"(?m)^(\d)", r"+\1", t)),
    "whitespace": ("normalised", lambda t: t.replace(",", " , ")),
    "CRLF": ("normalised", lambda t: t.replace("\n", "\r\n")),
    "blank and comment lines": ("normalised", lambda t: t.replace(
        "\n", "\n\n# note\n", 3)),
    "unicode digits": ("rejected", lambda t: t.replace("7", "٧")),
    "underscores": ("rejected", lambda t: re.sub(r"(\d)(\d)", r"\1_\2", t)),
}


@pytest.mark.parametrize("rewrite", list(EQUIVALENT))
@pytest.mark.parametrize("seed", range(3))
def test_well_formed_files_load_equal(tmp_path, monkeypatch, seed, rewrite):
    rng = random.Random(seed)
    texts = well_formed(rng, 60 + seed)
    route, change = EQUIVALENT[rewrite]
    space = skio.load_graph_csv(write_file(tmp_path / "base.csv",
                                           texts["graph"]))
    normalised = count_normalised(monkeypatch)
    for name, text in texts.items():
        plain = write_file(tmp_path / f"{name}-plain.csv", text)
        path = write_file(tmp_path / f"{name}.csv", change(text))
        layouts = LAYOUTS[name]
        ref = outcome(lambda: reference_read_columns(path, layouts)[1])
        got = outcome(lambda: read_columns(path, layouts))
        loaded = outcome(lambda: LOADERS[name](path, space))
        if route == "rejected":
            assert change(text) != text, name
            assert ref[0] == "ValueError" and got[0] == "FileFormatError", name
            assert loaded[0] == "FileFormatError", name
            continue
        assert got == ref and got[0] == "ok", name
        assert loaded == outcome(lambda: LOADERS[name](plain, space)), name
        assert loaded[0] == "ok", name
        assert (path in normalised) == (route == "normalised"), name


def test_flagged_slopes_read_as_infinite(tmp_path, monkeypatch):
    space = skio.load_graph_csv(write_file(
        tmp_path / "g.csv", "u,v,length\n0,1,1e-13\n1,2,1\n"))
    normalised = count_normalised(monkeypatch)
    path = write_file(tmp_path / "s.csv",
                      "point,slope,is_infinite\n0,inf,1\n1,inf,1\n2,0.5,0\n")
    loaded = skio.load_slope_csv(path, space)
    assert loaded.infinite.tolist() == [True, True, False]
    assert loaded.values.tolist() == [np.inf, np.inf, 0.5]
    assert normalised == [path]  # `inf` is not in the byte guard's alphabet
    ref = outcome(lambda: reference_read_columns(path, LAYOUTS["slopes"])[1])
    assert outcome(lambda: read_columns(path, LAYOUTS["slopes"])) == ref
    # The slope cell of a flagged row is not read, but it must be a cell
    # of the grammar.
    path.write_text("point,slope,is_infinite\n2,0.5,0\n0,-7,1\n1,1e13,1\n")
    assert digest(skio.load_slope_csv(path, space)) == digest(loaded)
    path.write_text("point,slope,is_infinite\n2,0.5,0\n0,x,1\n1,inf,1\n")
    with pytest.raises(FileFormatError, match=r"s.csv:3: bad slope 'x'"):
        skio.load_slope_csv(path, space)


# Files in the grammar that only a loader's checks reject, with the
# exception and message they raise (the same as before the one-grammar
# reader, when a per-row reader defined the format).
IN_GRAMMAR_INVALID = {
    ("graph", "u,v,length\n0,1,1e999\n1,2,1\n"):
        ("FileFormatError", "bad.csv:2: non-finite length '1e999'"),
    ("graph", "u,v,length\n0,1,1\n1,2,0\n"):
        ("NonPositiveLength", "edge (1, 2) has length 0.0"),
    ("graph", "u,v,length\n0,1,1\n1,1,2\n"):
        ("SelfLoopEdge", "self-loop at point 1"),
    ("graph", "u,v,length\n0,1,1\n-1,2,1\n"):
        ("DanglingEndpoint", "negative endpoint in edge (-1, 2)"),
    ("coords", "point,x\n0,1\n1,-1e999\n2,0\n"):
        ("FileFormatError", "bad.csv:3: non-finite coordinate '-1e999'"),
    ("coords", "point,x,y\n0,1,1\n2,0,0\n"):
        ("FileFormatError", "bad.csv: points must cover 0..1 exactly"),
    ("field", "point,value\n0,1\n1,1e400\n2,0\n"):
        ("FileFormatError", "bad.csv:3: non-finite value '1e400'"),
    ("field", "point,value\n0,1\n1,2\n3,0\n"):
        ("FileFormatError", "bad.csv:4: point 3 outside [0, 3)"),
    ("field", "point,value\n0,1\n1,2\n"):
        ("FileFormatError", "bad.csv: 2 values for a 3-point space"),
    ("slopes", "point,slope\n0,1\n1,-2e-3\n2,0\n"):
        ("FileFormatError", "bad.csv:3: negative slope '-2e-3'"),
    ("slopes", "point,slope,is_infinite\n0,1,0\n1,2,2\n2,0,0\n"):
        ("FileFormatError", "bad.csv:3: is_infinite must be 0 or 1"),
    ("slopes", "point,slope,is_infinite\n0,1,0\n1,1e999,0\n2,0,0\n"):
        ("FileFormatError", "bad.csv:3: non-finite slope '1e999'"),
    ("crit_values", "point,value\n1,0\n1,0\n"):
        ("FileFormatError", "bad.csv:3: duplicate point 1"),
    ("crit_values", "point,value\n1,0\n-0,1e999\n"):
        ("FileFormatError", "bad.csv:3: non-finite value '1e999'"),
    # Several bad rows: the first one is named.
    ("field", "point,value\n0,1\n1,1e999\n2,-1e999\n"):
        ("FileFormatError", "bad.csv:3: non-finite value '1e999'"),
    ("slopes", "point,slope\n0,1\n1,-1\n2,1e999\n"):
        ("FileFormatError", "bad.csv:3: negative slope '-1'"),
}


@pytest.mark.parametrize("loader,text", list(IN_GRAMMAR_INVALID))
def test_array_checks_fail_the_same_way(tmp_path, monkeypatch, loader, text):
    space = skio.load_graph_csv(write_file(tmp_path / "space.csv",
                                           "u,v,length\n0,1,1\n1,2,1\n"))
    path = write_file(tmp_path / "bad.csv", text)
    normalised = count_normalised(monkeypatch)
    got = outcome(lambda: LOADERS[loader](path, space), tmp_path)
    assert got == IN_GRAMMAR_INVALID[loader, text]
    assert not normalised


# ---- every fuzz case fails with its pinned error ----

FUZZ_LOADERS = {"space": "graph", "coords": "coords", "f": "field",
                "g": "field", "slopes": "slopes", "crit_values": "crit_values"}

# Exception class and message of each fuzz case under the per-row reader
# that defined the format before the one-grammar reader.
PER_ROW = json.loads((Path(__file__).parent / "fuzz_loader_errors.json")
                     .read_text(encoding="utf-8"))
# The messages that the one-grammar reader changed: a wrong column count
# names the header, and an integer cell longer than 18 characters is
# outside the grammar.
LONG = "'99999999999999999999' is longer than 18 characters"
CHANGED = {
    **{f"coords-{m}-{k}": f"coords-bad.csv:{line}: expected point,x"
       for m, lines in (("extra column", (6, 6, 6)), ("missing column", (3, 2, 5)))
       for k, line in enumerate(lines)},
    **{f"slopes-{m}-{k}":
       f"slopes-bad.csv:{line}: expected point,slope,is_infinite"
       for m, lines in (("extra column", (6, 6, 2)), ("missing column", (2, 4, 3)))
       for k, line in enumerate(lines)},
    **{f"{name}-huge integer-{k}": f"{name}-bad.csv:{line}: {what} {LONG}"
       for name, what, lines in (
           ("space", "endpoint", (5, 3, 5)), ("coords", "point", (2, 6, 2)),
           ("f", "point", (4, 4, 2)), ("g", "point", (5, 6, 4)),
           ("crit_values", "point", (2, 2, 2)))
       for k, line in enumerate(lines)},
    "slopes-huge integer-0": f"slopes-bad.csv:2: point {LONG}",
    "slopes-huge integer-1": f"slopes-bad.csv:4: flag {LONG}",
    "slopes-huge integer-2": f"slopes-bad.csv:2: point {LONG}",
}


@pytest.mark.parametrize("name,mutation,text", cases())
def test_fuzz_case_fails_the_same_way(tmp_path, request, name, mutation, text):
    space = skio.load_graph_csv(write_file(tmp_path / "space.csv",
                                           FILES["space"]))
    path = tmp_path / f"{name}-bad.csv"
    write(path, text)
    load = LOADERS[FUZZ_LOADERS[name]]
    case = request.node.callspec.id
    cls, message = PER_ROW[case]
    if case in CHANGED:
        cls, message = "FileFormatError", CHANGED[case]
    assert outcome(lambda: load(path, space), tmp_path) == (cls, message)


def test_changed_messages_are_real_changes():
    assert len(CHANGED) == 30
    for case, message in CHANGED.items():
        assert PER_ROW[case][1] != message, case


# ---- whole CLI runs are byte-identical on rewritten files ----

def test_cli_runs_identical_on_rewritten_files(tmp_path, monkeypatch, capsys):
    rng = random.Random(7)
    n = 2000
    space = random_connected_graph(rng, n_max=n, n_min=n)
    f = [rng.uniform(-5.0, 5.0) for _ in range(n)]
    c = rng.uniform(-3.0, 3.0)
    files = {
        "space": skio.render_graph_csv(space),
        "f": "point,value\n" + "".join(f"{p},{v:.17g}\n" for p, v in enumerate(f)),
        "g": "point,value\n" + "".join(f"{p},{v + c:.17g}\n"
                                       for p, v in enumerate(f)),
    }
    for name, text in files.items():
        write_file(tmp_path / f"{name}.csv", text)
    sp = ["--space", str(tmp_path / "space.csv")]
    assert main(["slope", *sp, "--f", str(tmp_path / "f.csv"),
                 "--out", str(tmp_path / "slopes.csv")]) == 0
    slopes = (tmp_path / "slopes.csv").read_text()
    crit = [line.split(",")[0] for line in slopes.splitlines()[1:]
            if line.split(",")[1] == "0"]
    files["slopes"] = slopes
    files["crit"] = "point,value\n" + "".join(
        f"{p},{f[int(p)]:.17g}\n" for p in crit)
    write_file(tmp_path / "crit.csv", files["crit"])
    for name, text in files.items():
        write_file(tmp_path / f"{name}-rewritten.csv", "# rewritten\r\n" + "".join(
            f" {line.replace(',', ' ,')}\t\r\n\r\n" for line in text.splitlines()))

    def commands(suffix):
        def at(name):
            return str(tmp_path / f"{name}{suffix}.csv")
        sp = ["--space", at("space")]
        return [
            ["slope", *sp, "--f", at("f")],
            ["crit", *sp, "--slopes", at("slopes")],
            ["crit", *sp, "--f", at("f"), "--tol-crit", "1e-3"],
            ["determine", *sp, "--f", at("f"), "--g", at("g")],
            ["determine", *sp, "--f", at("f"), "--g", at("f")],
            ["reconstruct", *sp, "--slopes", at("slopes"),
             "--crit-values", at("crit")],
        ]

    normalised = count_normalised(monkeypatch)
    for plain, rewritten in zip(commands(""), commands("-rewritten")):
        as_written = main(plain), capsys.readouterr()
        assert not normalised, plain[0]
        assert (main(rewritten), capsys.readouterr()) == as_written, plain[0]
        assert normalised, plain[0]
        normalised.clear()
        assert as_written[1].out and not as_written[1].err
