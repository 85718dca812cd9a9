"""Differential suite for the CSV layer: the column-wise fast path of
`slopekit.io` against its per-row path, which defines the format.

The fast path is turned off by making its grammar guard, `_in_grammar`,
reject everything; every loader then runs the per-row path alone.
Well-formed files must load bitwise-equal both ways, files outside the
renderers' grammar must be routed to the per-row path, every malformed
file of the CLI fuzz suite must fail with the same exception class and
message, and whole CLI runs must be byte-identical.
"""
import random
import re

import numpy as np
import pytest

import slopekit.io as skio
from slopekit.cli import main
from slopekit.testing import random_connected_graph
from test_cli_fuzz import FILES, cases, write

# The grammar of the io module docstring, as regular expressions.
INT = r"(?:-?[0-9]{1,17}|[0-9]{18})"  # at most 18 characters
FLOAT = r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"

LOADERS = {
    "graph": lambda path, space: skio.load_graph_csv(path),
    "coords": lambda path, space: skio.load_coordinates_csv(path),
    "field": skio.load_field_csv,
    "slopes": skio.load_slope_csv,
    "crit_values": skio.load_crit_values_csv,
}


def per_row_only(monkeypatch):
    monkeypatch.setattr(skio, "_in_grammar", lambda body, kinds: False)


def bits(a) -> list:
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def digest(obj):
    """Everything a loader returns, with floats as their bit patterns."""
    if isinstance(obj, dict):
        return [(p, bits([v])) for p, v in obj.items()]
    if isinstance(obj, np.ndarray):
        return obj.shape, bits(obj.ravel())
    if hasattr(obj, "src"):  # a space
        coords = None if obj.coordinates is None else digest(obj.coordinates)
        return (obj.n, obj.src.tolist(), obj.dst.tolist(), bits(obj.w),
                coords, obj.metric_mode)
    if hasattr(obj, "infinite"):  # a slope field
        return bits(obj.values), obj.infinite.tolist(), obj.provenance
    return bits(obj.values)  # a scalar field


def outcome(load):
    try:
        return "ok", digest(load())
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


def both_paths(monkeypatch, load):
    fast = outcome(load)
    with monkeypatch.context() as m:
        per_row_only(m)
        slow = outcome(load)
    return fast, slow


def write_file(path, text: str):
    path.write_text(text, encoding="utf-8", newline="")
    return path


def took_fast_path(path, layouts) -> bool:
    return skio._read_columns(path, layouts)[1] is not None


# ---- the guard proves exactly the documented grammar ----

def random_cell(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.2:
        return format(rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-320, 300),
                      ".17g")
    if roll < 0.3:
        return str(rng.randint(-10 ** 19, 10 ** 19))
    return "".join(rng.choice("0123456789-+.eE") for _ in range(rng.randint(0, 6)))


@pytest.mark.parametrize("kinds", ["if", "iif", "ifi", "iff"])
def test_guard_matches_the_grammar(kinds):
    rng = random.Random(2021 + len(kinds))
    cell = {"i": INT, "f": FLOAT}
    row = re.compile(",".join(cell[c] for c in kinds))
    agree = accepted = 0
    for _ in range(4000):
        rows = [",".join(random_cell(rng) if rng.random() < 0.3 else
                         (str(rng.randint(-99, 99)) if c == "i" else
                          repr(rng.uniform(-9, 9))) for c in kinds)
                for _ in range(rng.randint(1, 3))]
        body = "".join(r + "\n" for r in rows)
        expected = all(row.fullmatch(r) for r in rows)
        got = skio._in_grammar(body.encode(), kinds)
        assert got == expected, body
        agree += 1
        accepted += expected
    assert 0 < accepted < agree


@pytest.mark.parametrize("body,kinds", [
    ("1,2\n\n3,4\n", "if"),            # blank line
    ("1,2,3\n", "if"),                 # extra column
    ("1\n", "if"),                     # missing column
    ("1,2\n3\n", "if"),
    ("1,2\r\n", "if"),                 # CRLF
    (" 1,2\n", "if"),                  # whitespace
    ("+1,2\n", "if"), ("1,+2\n", "if"),
    ("1_0,2\n", "if"), ("1,2_5\n", "if"),
    ("٣,2\n", "if"), ("1,2\u2028\n", "if"),
    ("1.0,2\n", "if"), ("1e3,2\n", "if"),   # a float in an int column
    ("1234567890123456789,2\n", "if"),      # 19 characters
    ("1,.\n", "if"), ("1,-\n", "if"), ("1,-.\n", "if"), ("1,e5\n", "if"),
    ("1,.e5\n", "if"), ("1,5e\n", "if"), ("1,5e+\n", "if"),
    ("1,5.5.5\n", "if"), ("1,5e5e5\n", "if"), ("1,5e5.5\n", "if"),
    ("1,5-5\n", "if"), ("1,--5\n", "if"), ("1,inf\n", "if"),
    ("1,nan\n", "if"), ("#1,2\n", "if"),
])
def test_guard_rejects(body, kinds):
    assert not skio._in_grammar(body.encode(), kinds)


@pytest.mark.parametrize("body,kinds", [
    ("-0,-0\n", "if"), ("007,0.5\n", "if"), ("123456789012345678,1\n", "if"),
    ("-12345678901234567,1\n", "if"), ("1,5.\n", "if"), ("1,.5\n", "if"),
    ("1,-.5\n", "if"), ("1,5.e3\n", "if"), ("1,2.5E+2\n", "if"),
    ("1,1e-320\n", "if"), ("1,1e999\n", "if"), ("0,1,0.25\n1,2,2\n", "iif"),
])
def test_guard_accepts(body, kinds):
    assert skio._in_grammar(body.encode(), kinds)


# ---- well-formed files load bitwise-equal both ways ----

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


# Rewrites of a well-formed file that keep its meaning for the per-row
# path; True when the result must still take the fast path.
EQUIVALENT = {
    "plain": (True, lambda t: t),
    "no final newline": (True, lambda t: t[:-1]),
    "leading zeros": (True, lambda t: re.sub(r"(^|,)(\d)", r"\g<1>00\2", t,
                                              flags=re.M)),
    "minus zero": (True, lambda t: re.sub(r"(?m)^0,", "-0,", t)),
    "exponents": (True, lambda t: re.sub(
        r"(\d)\.(\d+)(?=,|$)",
        lambda m: f"{m[1]}{m[2]}E-{len(m[2])}", t, flags=re.M)),
    "leading plus": (False, lambda t: re.sub(r"(?m)^(\d)", r"+\1", t)),
    "whitespace": (False, lambda t: t.replace(",", " , ")),
    "CRLF": (False, lambda t: t.replace("\n", "\r\n")),
    "blank and comment lines": (False, lambda t: t.replace(
        "\n", "\n\n# note\n", 3)),
    "unicode digits": (False, lambda t: t.replace("7", "٧")),
    "underscores": (False, lambda t: re.sub(r"(\d)(\d)", r"\1_\2", t)),
}

LAYOUTS = {
    "graph": {"u,v,length": "iif"},
    "coords": {"point,x": "if", "point,x,y": "iff"},
    "field": {"point,value": "if"},
    "slopes": {"point,slope": "if", "point,slope,is_infinite": "ifi"},
    "crit_values": {"point,value": "if"},
}


@pytest.mark.parametrize("rewrite", list(EQUIVALENT))
@pytest.mark.parametrize("seed", range(3))
def test_well_formed_files_load_equal(tmp_path, monkeypatch, seed, rewrite):
    rng = random.Random(seed)
    texts = well_formed(rng, 60 + seed)
    fast_expected, change = EQUIVALENT[rewrite]
    space = skio.load_graph_csv(write_file(tmp_path / "base.csv",
                                           texts["graph"]))
    for name, text in texts.items():
        path = write_file(tmp_path / f"{name}.csv", change(text))
        assert took_fast_path(path, LAYOUTS[name]) == fast_expected, name
        fast, slow = both_paths(
            monkeypatch, lambda: LOADERS[name](path, space))
        assert fast[0] == "ok", (name, fast)
        assert fast == slow, name


def test_flagged_slopes_take_the_per_row_path(tmp_path, monkeypatch):
    space = skio.load_graph_csv(write_file(
        tmp_path / "g.csv", "u,v,length\n0,1,1e-13\n1,2,1\n"))
    path = write_file(tmp_path / "s.csv",
                      "point,slope,is_infinite\n0,inf,1\n1,1e13,1\n2,0.5,0\n")
    assert not took_fast_path(path, LAYOUTS["slopes"])
    path.write_text("point,slope,is_infinite\n2,0.5,0\n0,-7,1\n1,1e13,1\n")
    assert took_fast_path(path, LAYOUTS["slopes"])
    fast, slow = both_paths(monkeypatch, lambda: skio.load_slope_csv(path, space))
    assert fast == slow
    assert fast[1][1] == [True, True, False]


# Files in the grammar that only the array checks can reject.
IN_GRAMMAR_INVALID = [
    ("graph", "u,v,length\n0,1,1e999\n1,2,1\n"),
    ("graph", "u,v,length\n0,1,1\n1,2,0\n"),
    ("graph", "u,v,length\n0,1,1\n1,1,2\n"),
    ("graph", "u,v,length\n0,1,1\n-1,2,1\n"),
    ("coords", "point,x\n0,1\n1,-1e999\n2,0\n"),
    ("coords", "point,x,y\n0,1,1\n2,0,0\n"),
    ("field", "point,value\n0,1\n1,1e400\n2,0\n"),
    ("field", "point,value\n0,1\n1,2\n3,0\n"),
    ("field", "point,value\n0,1\n1,2\n"),
    ("slopes", "point,slope\n0,1\n1,-2e-3\n2,0\n"),
    ("slopes", "point,slope,is_infinite\n0,1,0\n1,2,2\n2,0,0\n"),
    ("slopes", "point,slope,is_infinite\n0,1,0\n1,1e999,0\n2,0,0\n"),
    ("crit_values", "point,value\n1,0\n1,0\n"),
    ("crit_values", "point,value\n1,0\n-0,1e999\n"),
]


@pytest.mark.parametrize("loader,text", IN_GRAMMAR_INVALID)
def test_array_checks_fail_the_same_way(tmp_path, monkeypatch, loader, text):
    space = skio.load_graph_csv(write_file(tmp_path / "space.csv",
                                           "u,v,length\n0,1,1\n1,2,1\n"))
    path = write_file(tmp_path / "bad.csv", text)
    assert took_fast_path(path, LAYOUTS[loader])
    fast, slow = both_paths(monkeypatch, lambda: LOADERS[loader](path, space))
    assert fast == slow
    assert fast[0] != "ok"


# ---- every fuzz case fails the same way on both paths ----

FUZZ_LOADERS = {"space": "graph", "coords": "coords", "f": "field",
                "g": "field", "slopes": "slopes", "crit_values": "crit_values"}


@pytest.mark.parametrize("name,mutation,text", cases())
def test_fuzz_case_fails_the_same_way(tmp_path, monkeypatch, name, mutation, text):
    space = skio.load_graph_csv(write_file(tmp_path / "space.csv",
                                           FILES["space"]))
    path = tmp_path / f"{name}-bad.csv"
    write(path, text)
    load = LOADERS[FUZZ_LOADERS[name]]
    fast, slow = both_paths(monkeypatch, lambda: load(path, space))
    assert fast == slow
    assert fast[0] != "ok"


# ---- whole CLI runs are byte-identical with the fast path off ----

def test_cli_runs_identical_without_fast_path(tmp_path, monkeypatch, capsys):
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
    paths = {}
    for name, text in files.items():
        paths[name] = write_file(tmp_path / f"{name}.csv", text)
    sp = ["--space", str(paths["space"])]
    assert main(["slope", *sp, "--f", str(paths["f"]),
                 "--out", str(tmp_path / "slopes.csv")]) == 0
    slopes = (tmp_path / "slopes.csv").read_text()
    crit = [line.split(",")[0] for line in slopes.splitlines()[1:]
            if line.split(",")[1] == "0"]
    write_file(tmp_path / "crit.csv", "point,value\n" + "".join(
        f"{p},{f[int(p)]:.17g}\n" for p in crit))
    commands = [
        ["slope", *sp, "--f", str(paths["f"])],
        ["crit", *sp, "--slopes", str(tmp_path / "slopes.csv")],
        ["crit", *sp, "--f", str(paths["f"]), "--tol-crit", "1e-3"],
        ["determine", *sp, "--f", str(paths["f"]), "--g", str(paths["g"])],
        ["determine", *sp, "--f", str(paths["f"]), "--g", str(paths["f"])],
        ["reconstruct", *sp, "--slopes", str(tmp_path / "slopes.csv"),
         "--crit-values", str(tmp_path / "crit.csv")],
    ]
    calls = []
    real = skio._in_grammar

    def counted(body, kinds):
        calls.append(real(body, kinds))
        return calls[-1]

    for argv in commands:
        monkeypatch.setattr(skio, "_in_grammar", counted)
        fast = main(argv), capsys.readouterr()
        with monkeypatch.context() as m:
            per_row_only(m)
            slow = main(argv), capsys.readouterr()
        assert fast == slow, argv[0]
        assert fast[1].out and not fast[1].err
    assert calls and all(calls)
