"""Seeded fuzz of the CLI input files.

Each case corrupts one data row of one input CSV (space, coordinates,
field, slopes or critical values) with one malformed cell: NaN, +-inf,
an empty cell, an extra or a missing column, a duplicated point, or
non-numeric text. Every case must be rejected as a usage or input error
(exit 64 or 74), never as an internal error (exit 70), and must print
no traceback.
"""
import random

import pytest

from slopekit.cli import main

SPACE = "u,v,length\n0,1,1.0\n1,2,0.5\n2,3,2.0\n0,3,1.0\n3,4,0.25\n"
COORDS = "point,x\n0,0.0\n1,1.0\n2,1.5\n3,3.5\n4,3.75\n"
FIELD_F = "point,value\n0,3.0\n1,2.0\n2,1.5\n3,0.5\n4,0.0\n"
FIELD_G = "point,value\n0,4.0\n1,3.0\n2,2.5\n3,1.5\n4,1.0\n"
SLOPES = "point,slope,is_infinite\n0,1,0\n1,1,0\n2,1,0\n3,2,0\n4,0,0\n"
CRIT_VALUES = "point,value\n4,0.0\n"

FILES = {"space": SPACE, "coords": COORDS, "f": FIELD_F, "g": FIELD_G,
         "slopes": SLOPES, "crit_values": CRIT_VALUES}

# The command that reads each file, as arguments after the subcommand.
COMMANDS = {
    "space": ["slope", "--space", "{space}", "--f", "{f}"],
    "coords": ["slope", "--space", "{space}", "--coords", "{coords}",
               "--f", "{f}"],
    "f": ["determine", "--space", "{space}", "--f", "{f}", "--g", "{g}"],
    "g": ["determine", "--space", "{space}", "--f", "{f}", "--g", "{g}"],
    "slopes": ["reconstruct", "--space", "{space}", "--slopes", "{slopes}",
               "--crit-values", "{crit_values}"],
    "crit_values": ["reconstruct", "--space", "{space}", "--slopes",
                    "{slopes}", "--crit-values", "{crit_values}"],
}

BAD_CELLS = ("nan", "inf", "-inf", "", "x1")
MUTATIONS = BAD_CELLS + ("extra column", "missing column", "duplicate row")


def corrupt(text: str, mutation: str, rng: random.Random, k: int) -> str:
    """Apply `mutation` to a random data row; a cell mutation or a
    dropped cell hits column k (mod the row width)."""
    header, *rows = text.splitlines()
    i = rng.randrange(len(rows))
    cells = rows[i].split(",")
    if mutation == "extra column":
        cells.append("1")
    elif mutation == "missing column":
        cells.pop(k % len(cells))
    elif mutation == "duplicate row":
        rows.insert(i, rows[i])
    else:
        cells[k % len(cells)] = mutation
    if mutation != "duplicate row":
        rows[i] = ",".join(cells)
    return "\n".join([header, *rows]) + "\n"


def cases(seed=20211, per_pair=3):
    rng = random.Random(seed)
    out = []
    for name in FILES:
        for mutation in MUTATIONS:
            for k in range(per_pair):
                text = corrupt(FILES[name], mutation, rng, k)
                out.append(pytest.param(name, mutation, text,
                                        id=f"{name}-{mutation}-{k}"))
    return out


def test_uncorrupted_files_pass(tmp_path, capsys):
    paths = {}
    for name, text in FILES.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(text)
    for args in COMMANDS.values():
        assert main([a.format(**paths) for a in args]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("name,mutation,text", cases())
def test_malformed_cell_is_an_input_error(tmp_path, capsys, name, mutation, text):
    paths = {}
    for other, content in FILES.items():
        paths[other] = tmp_path / f"{other}.csv"
        paths[other].write_text(text if other == name else content)
    code = main([a.format(**paths) for a in COMMANDS[name]])
    err = capsys.readouterr().err
    assert code in (64, 74), (name, mutation, text, err)
    assert "Traceback" not in err
