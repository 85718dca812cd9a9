"""Fields with values near the float range: every public call either
raises a typed error or returns a result, with no RuntimeWarning (the
suite turns warnings into errors), and a `determine` report always
renders as strict JSON that the report schema accepts. A g - f that
overflows, or a constant, spread or residual derived from it, is
DifferenceOverflow (exit 74 from the command line). Through the command
line, every failure on such fields is exit 64 or 74 with one line on
stderr, and `gallery` runs at caps from the least subnormal to the
largest float.
"""
import json
import math
import random
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import slopekit as sk
from conftest import path_field, unit_path
from slopekit import io as skio
from slopekit.cli import main
from slopekit.errors import DifferenceOverflow, NonFiniteFieldValue, SlopeKitError
from slopekit.testing import random_connected_graph, reference_epsilon_audit

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "docs" /
                     "determination_report.schema.json").read_text())
EXTREMES = (1e308, -1e308, 8.9e307, -8.9e307, 1e-308, -1e-308, 0.0, -0.0,
            0.5, -1.25, 3.0)

# f, g on the 3-point path, and the message of the DifferenceOverflow
OVERFLOWS = [
    # g - f is -inf off the critical set, so the residual was inf
    ([0.0, 0.0, 1e308], [0.0, 0.0, -1e308], "g - f overflows at point 2"),
    # g - f is +inf on the critical set, so the residual was nan
    ([-1e308, 0.0, 0.0], [1e308, 0.0, 0.0], "g - f overflows at point 0"),
    # g - f is finite: the residual at 2 is 1e308 - (-1e308)
    ([0.0, 1.0, 2.0], [-1e308, 0.0, 1e308], "g - f - c overflows at point 2"),
    # the sum behind the mean of g - f = (1e308, 1e308, 1e308) overflows
    ([0.0, 0.0, 0.0], [1e308, 1e308, 1e308],
     "the mean of g - f on the critical set overflows"),
    # the mean is 0, but the spread is 1e308 - (-1e308)
    ([0.0, 0.0, 0.0], [1e308, 0.0, -1e308],
     "the spread of g - f on the critical set, from point 2 to point 0, overflows"),
]


def write(path, values):
    path.write_text("point,value\n" + "".join(
        f"{p},{v!r}\n" for p, v in enumerate(values)))
    return str(path)


@pytest.mark.parametrize("f,g,message", OVERFLOWS)
def test_overflowing_difference_is_a_typed_error(f, g, message):
    space = unit_path(3)
    with pytest.raises(DifferenceOverflow) as info:
        sk.determine(space, path_field(space, f), path_field(space, g))
    assert str(info.value) == message


@pytest.mark.parametrize("f,g,message", OVERFLOWS[:2])
def test_determine_exits_74_on_overflow(f, g, message, tmp_path, capsys):
    space = tmp_path / "space.csv"
    space.write_text("u,v,length\n0,1,1\n1,2,1\n")
    rc = main(["determine", "--space", str(space),
               "--f", write(tmp_path / "f.csv", f), "--g", write(tmp_path / "g.csv", g)])
    out, err = capsys.readouterr()
    assert rc == 74 and out == ""
    assert err == f"slopekit: DifferenceOverflow: {message}\n"


def public_calls(space, f, g, cap):
    """One call of each public entry point that takes f (and g)."""
    crit = sk.critical_set(sk.slope_field(space, f, cap=cap))
    prescribed = {p: f[p] for p in crit.sorted_members()}
    return {
        "determine": lambda: sk.determine(space, f, g, cap=cap),
        "comparison_principle": lambda: sk.comparison_principle(space, f, g, 0.0, cap=cap),
        "epsilon_audit": lambda: sk.epsilon_audit(space, f, g, (1.0, 0.5, 0.125), cap=cap),
        "comparison_floor": lambda: [sk.comparison_floor(space, f, g, x, crit)
                                     for x in range(space.n)],
        "verify_strict_comparison": lambda: sk.verify_strict_comparison(
            space, f, g, crit, cap=cap),
        "descent_path": lambda: [sk.descent_path(space, f, g, x, crit, cap=cap)
                                 for x in range(space.n)],
        "reconstruct": lambda: sk.reconstruct(
            space, sk.SlopeData(sk.slope_field(space, f, cap=cap), prescribed)),
        "delta_slope_profile": lambda: sk.delta_slope_profile(space, f, 0, (2.0, 0.5),
                                                              cap=cap),
    }


def extreme_fields(rng, space):
    """f from EXTREMES; g from EXTREMES, or a contraction of f plus half
    of a draw from EXTREMES, whose slope is often dominated by f's."""
    f = np.array([rng.choice(EXTREMES) for _ in range(space.n)])
    g = np.array([rng.choice(EXTREMES) for _ in range(space.n)])
    if rng.random() < 0.5:
        g = rng.choice((0.0, 0.5)) * f + rng.choice((0.0, 0.5)) * g
    return sk.ScalarField(space, f), sk.ScalarField(space, g)


def test_extreme_values_give_typed_errors_or_valid_reports():
    jsonschema = pytest.importorskip("jsonschema")
    rng = random.Random(4111)
    outcomes = Counter()
    for _ in range(600):
        space = random_connected_graph(rng, n_max=8)
        f, g = extreme_fields(rng, space)
        # at the largest cap few slopes are infinite, so the checks run deeper
        cap = rng.choice((sk.OVERFLOW_CAP, 1.7e308))
        for name, call in public_calls(space, f, g, cap).items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    out = call()
                except SlopeKitError as exc:
                    outcomes[name, type(exc).__name__] += 1
                    continue
                if name == "determine":
                    jsonschema.validate(json.loads(skio.render_determination_report(out)),
                                        SCHEMA)
                outcomes[name, "returned"] += 1
    # every entry point returns now and then, and determine fails only by overflow
    assert all(outcomes[name, "returned"] > 20 for name, _ in outcomes)
    assert outcomes["determine", "DifferenceOverflow"] > 100
    assert {kind for name, kind in outcomes if name == "determine"} == {
        "returned", "DifferenceOverflow"}


def test_overflowing_difference_is_data_in_the_comparison_checks():
    # g - f is -2e308 at point 1; the slope of f there, 1e308, is below the cap
    space = sk.build_graph([(0, 1, 1.0)])
    f, g = path_field(space, [0.0, 1e308]), path_field(space, [-1e308, -1e308])
    result = sk.comparison_principle(space, f, g, 0.0, cap=1.7e308)
    assert result.holds and result.worst_point == 0
    audit = sk.epsilon_audit(space, f, g, [0.5], cap=1.7e308)
    assert audit.constant == -1e308 and audit.rows[0].bound_holds


def test_brackets_that_all_overflow_are_uniform():
    # f - f(0) overflows at point 2 for every epsilon; inf - inf is NaN,
    # which must not make equal brackets read as non-uniform
    space = sk.build_graph([(0, 1, 1.0), (1, 2, 1.0)])
    f = path_field(space, [-1.1e308, 0.0, 1.1e308])
    g = path_field(space, [-1.1e308, 0.0, 0.9e308])
    for audit in (sk.epsilon_audit(space, f, g, (0.5, 0.25), cap=1.7e308),
                  reference_epsilon_audit(space, f, g, (0.5, 0.25), cap=1.7e308)):
        assert [row.bracket_max for row in audit.rows] == [math.inf, math.inf]
        assert audit.bracket_uniform


def test_overflowing_scale_names_the_product():
    # every value of f is finite; 2.0 * 1e308 is what overflows
    space = sk.build_graph([(0, 1, 1.0)])
    f, g = path_field(space, [0.0, 1e308]), path_field(space, [0.0, 0.0])
    for call in (lambda: sk.scale_field(f, 2.0),
                 lambda: sk.epsilon_audit(space, f, g, [1.0], cap=1.7e308)):
        with pytest.raises(NonFiniteFieldValue) as info:
            call()
        assert str(info.value) == "2.0 * f overflows at point 1"


# Each subcommand that reads fields, with the files it reads.
CLI_COMMANDS = {
    "slope": ["slope", "--space", "{space}", "--f", "{f}"],
    "crit": ["crit", "--space", "{space}", "--f", "{f}"],
    "descend": ["descend", "--space", "{space}", "--f", "{f}", "--g", "{g}",
                "--start", "{start}"],
    "determine": ["determine", "--space", "{space}", "--f", "{f}", "--g", "{g}"],
    "reconstruct": ["reconstruct", "--space", "{space}", "--slopes", "{slopes}",
                    "--crit-values", "{crit}"],
}


def test_extreme_values_through_the_command_line(tmp_path, capsys):
    rng = random.Random(4112)
    exits = Counter()
    for _ in range(100):
        space = random_connected_graph(rng, n_max=8)
        f, g = extreme_fields(rng, space)
        cap = rng.choice((sk.OVERFLOW_CAP, 1.7e308))
        slopes = sk.slope_field(space, f, cap=cap)
        texts = {
            "space": skio.render_graph_csv(space),
            "f": skio.render_field_csv(f),
            "g": skio.render_field_csv(g),
            "slopes": skio.render_slope_csv(slopes),
            "crit": "point,value\n" + "".join(
                f"{p},{f[p]!r}\n" for p in sk.critical_set(slopes).sorted_members()),
        }
        paths = {"start": rng.randrange(space.n)}
        for name, text in texts.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(text)
        for name, argv in CLI_COMMANDS.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main([a.format(**paths) for a in argv] + ["--cap", repr(cap)])
            _, err = capsys.readouterr()
            exits[name, rc] += 1
            if rc > 3:
                assert rc in (64, 74), (name, rc, err)
                assert err.count("\n") == 1 and "Traceback" not in err, (name, err)
    # every subcommand gives a result now and then
    assert all(sum(k for (name, rc), k in exits.items() if name == cmd and rc <= 3) > 10
               for cmd in CLI_COMMANDS)


@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3"])
def test_gallery_at_extreme_caps(capsys, figure):
    """`gallery` at the least subnormal cap, a tiny normal one and the
    largest float: exit 0, a header and 7 rows, no warning, and a
    discrete slope that is `inf` exactly where it exceeds the cap."""
    tables = {}
    for cap in ("1.7976931348623157e308", "1e-300", "5e-324"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["gallery", figure, "--n", "7", "--cap", cap])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "t,f,g,slope_f_analytic,slope_f_discrete" and len(lines) == 8
        tables[float(cap)] = [line.split(",") for line in lines[1:]]
    uncapped = tables.pop(1.7976931348623157e308)
    assert all(row[4] != "inf" for row in uncapped)
    for cap, rows in tables.items():
        for row, free in zip(rows, uncapped):
            assert row[:4] == free[:4]
            assert row[4] == ("inf" if float(free[4]) > cap else free[4])
    # a subnormal cap is exceeded by every slope that is not 0
    assert any(row[4] == "inf" for row in tables[5e-324])
