"""Seeded fuzz of the CLI input files.

Each case corrupts one data row of one input CSV (space, coordinates,
field, slopes or critical values) with one malformed cell: NaN, +-inf,
an empty cell, an extra or a missing column, a duplicated point,
non-numeric text, a byte that is not UTF-8, or an integer beyond int64
in an integer column. Every case must be rejected as a usage or input error
(exit 64 or 74), never as an internal error (exit 70), and must print
no traceback. No command reads a coordinates file: its cases go to its
one reader, `io.load_coordinates_csv` (`read_back`).

Further cases: cells respelled in ways that only Python's int() and
float() accept, text in the unread slope cell of a flagged row, and
numeric options outside their bounds (exit 64).
"""
import random

import pytest

from slopekit.cli import build_parser, main
from slopekit.errors import SlopeKitError
from slopekit.io import load_coordinates_csv

SPACE = "u,v,length\n0,1,1.0\n1,2,0.5\n2,3,2.0\n0,3,1.0\n3,4,0.25\n"
COORDS = "point,x\n0,0.0\n1,1.0\n2,1.5\n3,3.5\n4,3.75\n"
FIELD_F = "point,value\n0,3.0\n1,2.0\n2,1.5\n3,0.5\n4,0.0\n"
FIELD_G = "point,value\n0,4.0\n1,3.0\n2,2.5\n3,1.5\n4,1.0\n"
SLOPES = "point,slope,is_infinite\n0,1,0\n1,1,0\n2,1,0\n3,2,0\n4,0,0\n"
CRIT_VALUES = "point,value\n4,0.0\n"

FILES = {"space": SPACE, "coords": COORDS, "f": FIELD_F, "g": FIELD_G,
         "slopes": SLOPES, "crit_values": CRIT_VALUES}

# The command that reads each file but the coordinates, as arguments
# after the subcommand.
COMMANDS = {
    "space": ["slope", "--space", "{space}", "--f", "{f}"],
    "f": ["determine", "--space", "{space}", "--f", "{f}", "--g", "{g}"],
    "g": ["determine", "--space", "{space}", "--f", "{f}", "--g", "{g}"],
    "slopes": ["reconstruct", "--space", "{space}", "--slopes", "{slopes}",
               "--crit-values", "{crit_values}"],
    "crit_values": ["reconstruct", "--space", "{space}", "--slopes",
                    "{slopes}", "--crit-values", "{crit_values}"],
}

# The integer columns of each file.
INT_COLUMNS = {"space": (0, 1), "coords": (0,), "f": (0,), "g": (0,),
               "slopes": (0, 2), "crit_values": (0,)}

BAD_CELLS = ("nan", "inf", "-inf", "", "x1")
MUTATIONS = BAD_CELLS + ("extra column", "missing column", "duplicate row")
# Drawn after MUTATIONS, so that the cases above stay as they were.
# The lone surrogate is written as the byte 0xff (see `write`).
LATER_MUTATIONS = ("invalid utf-8", "huge integer")
INVALID_BYTE = "\udcff"
HUGE_INTEGER = "99999999999999999999"


def write(path, text: str) -> None:
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


def corrupt(text: str, mutation: str, rng: random.Random, k: int,
            int_columns=(0,)) -> str:
    """Apply `mutation` to a random data row; a cell mutation or a
    dropped cell hits column k (mod the row width), a huge integer the
    k-th integer column (mod their count)."""
    header, *rows = text.splitlines()
    i = rng.randrange(len(rows))
    cells = rows[i].split(",")
    if mutation == "extra column":
        cells.append("1")
    elif mutation == "missing column":
        cells.pop(k % len(cells))
    elif mutation == "duplicate row":
        rows.insert(i, rows[i])
    elif mutation == "invalid utf-8":
        cells[k % len(cells)] += INVALID_BYTE
    elif mutation == "huge integer":
        cells[int_columns[k % len(int_columns)]] = HUGE_INTEGER
    else:
        cells[k % len(cells)] = mutation
    if mutation != "duplicate row":
        rows[i] = ",".join(cells)
    return "\n".join([header, *rows]) + "\n"


def cases(seed=20211, per_pair=3):
    rng = random.Random(seed)
    out = []
    for mutations in (MUTATIONS, LATER_MUTATIONS):
        for name in FILES:
            for mutation in mutations:
                for k in range(per_pair):
                    text = corrupt(FILES[name], mutation, rng, k,
                                   INT_COLUMNS[name])
                    out.append(pytest.param(name, mutation, text,
                                            id=f"{name}-{mutation}-{k}"))
    return out


def test_uncorrupted_files_pass(tmp_path, capsys):
    paths = {}
    for name, text in FILES.items():
        paths[name] = tmp_path / f"{name}.csv"
        write(paths[name], text)
    for args in COMMANDS.values():
        assert main([a.format(**paths) for a in args]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("name,mutation,text", cases())
def test_malformed_cell_is_an_input_error(tmp_path, capsys, name, mutation, text):
    code, err = read_back(tmp_path, capsys, name, text)
    assert code in (64, 74), (name, mutation, text, err)
    assert "Traceback" not in err


# Spellings of a cell's own value that Python's int() and float() accept
# and the grammar does not.
SPELLINGS = {
    "plus": lambda cell: "+" + cell,
    "underscore": lambda cell: "0_" + cell,
    "non-ASCII digits": lambda cell: cell.translate(
        str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                    "\u0665\u0666\u0667\u0668\u0669")),
}


def spelling_cases(seed=20212):
    rng = random.Random(seed)
    out = []
    for name, text in FILES.items():
        header, *rows = text.splitlines()
        for spelling, respell in SPELLINGS.items():
            for col in range(header.count(",") + 1):
                i = rng.randrange(len(rows))
                cells = rows[i].split(",")
                cells[col] = respell(cells[col])
                bad = rows[:i] + [",".join(cells)] + rows[i + 1:]
                out.append(pytest.param(
                    name, i + 2, cells[col], "\n".join([header, *bad]) + "\n",
                    id=f"{name}-{spelling}-{col}"))
    return out


def run_with(tmp_path, name, text, args):
    paths = {}
    for other, content in FILES.items():
        paths[other] = tmp_path / f"{other}.csv"
        write(paths[other], text if other == name else content)
    return main([a.format(**paths) for a in args])


def read_back(tmp_path, capsys, name, text):
    """The exit status and stderr of the command that reads the file
    `name` (COMMANDS) when it holds `text`. For a coordinates file,
    which no command reads, its one reader runs instead, and an error
    from it gives exit 74, as `main` reports an input error."""
    if name in COMMANDS:
        code = run_with(tmp_path, name, text, COMMANDS[name])
        return code, capsys.readouterr().err
    path = tmp_path / f"{name}.csv"
    write(path, text)
    try:
        load_coordinates_csv(path)
    except SlopeKitError as exc:
        return 74, str(exc)
    return 0, ""


@pytest.mark.parametrize("name,lineno,cell,text", spelling_cases())
def test_python_only_spelling_is_an_input_error(tmp_path, capsys, name,
                                                lineno, cell, text):
    code, err = read_back(tmp_path, capsys, name, text)
    assert code == 74, err
    assert f"{name}.csv:{lineno}: bad " in err and repr(cell) in err
    assert "Traceback" not in err


def test_text_in_a_flagged_slope_cell_is_an_input_error(tmp_path, capsys):
    text = SLOPES.replace("3,2,0", "3,steep,1")
    args = ["crit", "--space", "{space}", "--slopes", "{slopes}"]
    code = run_with(tmp_path, "slopes", text, args)
    err = capsys.readouterr().err
    assert code == 74
    assert "slopes.csv:5: bad slope 'steep'" in err
    assert run_with(tmp_path, "slopes", text.replace("steep", "inf"), args) == 0


# Numeric options at and beyond their bounds: True when accepted.
OPTIONS = [
    (["gallery", "fig3", "--level", "-1"], False),
    (["gallery", "fig3", "--level", "0"], True),
    (["gallery", "fig3", "--level", "12"], True),
    (["gallery", "fig3", "--level", "13"], False),
    (["gallery", "fig1", "--n", "1"], False),
    (["gallery", "fig1", "--n", "2"], True),
    (["gallery", "fig1", "--n", "1000000"], True),
    (["gallery", "fig1", "--n", "1000001"], False),
    (["gallery", "fig1", "--n", "1e3"], False),
    (["verify", "--trials", "-5"], False),
    (["verify", "--trials", "0"], False),
    (["verify", "--trials", "1"], True),
    (["descend", "--space", "s", "--f", "f", "--g", "g", "--start", "0",
      "--max-steps", "-1"], False),
    (["descend", "--space", "s", "--f", "f", "--g", "g", "--start", "0",
      "--max-steps", "0"], True),
    (["crit", "--space", "s", "--f", "f", "--tol-crit", "nan"], False),
    (["crit", "--space", "s", "--f", "f", "--tol-crit", "0"], True),
    (["determine", "--space", "s", "--f", "f", "--g", "g",
      "--tol-slope", "-0.5"], False),
    (["determine", "--space", "s", "--f", "f", "--g", "g",
      "--tol-residual", "inf"], False),
    (["reconstruct", "--space", "s", "--slopes", "s", "--crit-values", "c",
      "--tol", "nan"], False),
    (["slope", "--space", "s", "--f", "f", "--cap", "nan"], False),
    (["slope", "--space", "s", "--f", "f", "--cap", "0"], False),
    (["slope", "--space", "s", "--f", "f", "--cap", "1e300"], True),
]


@pytest.mark.parametrize("argv,accepted", OPTIONS,
                         ids=[" ".join(a[:1] + a[-2:]) for a, _ in OPTIONS])
def test_numeric_option_bounds(capsys, argv, accepted):
    if accepted:
        build_parser().parse_args(argv)
        return
    with pytest.raises(SystemExit) as info:
        main(argv)
    err = capsys.readouterr().err
    assert info.value.code == 64
    assert f"argument {argv[-2]}:" in err and "Traceback" not in err
