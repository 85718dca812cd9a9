import argparse
import hashlib
import json
import math
import random

import pytest

from slopekit import gallery, testing
from slopekit.cli import build_parser, main
from slopekit.testing import random_connected_graph, random_dyadic_field

PATH_GRAPH = "u,v,length\n0,1,1.0\n1,2,1.0\n2,3,1.0\n"
PATH_F = "point,value\n0,3.0\n1,2.0\n2,1.0\n3,0.0\n"
PATH_G_SHIFT = "point,value\n0,8.0\n1,7.0\n2,6.0\n3,5.0\n"
PATH_G_ZERO = "point,value\n0,0.0\n1,0.0\n2,0.0\n3,0.0\n"
PATH_G_OTHER = "point,value\n0,0.0\n1,4.0\n2,1.0\n3,7.0\n"


@pytest.fixture
def fixtures(tmp_path):
    files = {}
    for name, text in (("graph.csv", PATH_GRAPH), ("f.csv", PATH_F),
                       ("g_shift.csv", PATH_G_SHIFT),
                       ("g_zero.csv", PATH_G_ZERO),
                       ("g_other.csv", PATH_G_OTHER)):
        p = tmp_path / name
        p.write_text(text)
        files[name] = str(p)
    files["dir"] = tmp_path
    return files


def test_slope_subcommand(fixtures, capsys):
    rc = main(["slope", "--space", fixtures["graph.csv"],
               "--f", fixtures["f.csv"]])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "point,slope,is_infinite"
    assert lines[1] == "0,1,0"
    assert lines[4] == "3,0,0"


def test_slope_json_subcommand(fixtures, tmp_path, capsys):
    # Slopes 2e300 at point 0 and 1e300 at point 2 exceed the cap: they
    # print as null, flagged infinite.
    f = tmp_path / "steep.csv"
    f.write_text("point,value\n0,1e300\n1,-1e300\n2,0.0\n3,0.1\n")
    rc = main(["slope", "--space", fixtures["graph.csv"], "--f", str(f),
               "--format", "json"])
    assert rc == 0
    rows = [(0, "null", 1), (1, "0.0", 0), (2, "null", 1), (3, "0.1", 0)]
    assert capsys.readouterr().out == "[\n" + ",\n".join(
        f'  {{\n    "point": {p},\n    "slope": {s},\n    "is_infinite": {i}\n  }}'
        for p, s, i in rows) + "\n]\n"


def test_crit_subcommand(fixtures, capsys):
    rc = main(["crit", "--space", fixtures["graph.csv"],
               "--f", fixtures["f.csv"], "--tol-crit", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[-1] == "3,0"


def test_crit_requires_exactly_one_input(fixtures, capsys):
    crit = ["crit", "--space", fixtures["graph.csv"]]
    both = ["--f", fixtures["f.csv"], "--slopes", fixtures["f.csv"]]
    for argv, message in [
            (crit, "one of the arguments --slopes --f is required"),
            (crit + both, "argument --slopes: not allowed with argument --f")]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 64
        assert capsys.readouterr().err.endswith(
            f"slopekit crit: error: {message}\n")


def test_descend_subcommand(fixtures, capsys):
    rc = main(["descend", "--space", fixtures["graph.csv"],
               "--f", fixtures["f.csv"], "--g", fixtures["g_zero.csv"],
               "--start", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "step,point,f,f_minus_g"
    assert len(lines) == 6  # 4 path rows plus header and trailer
    assert lines[-1] == "# terminal_critical=true"


def test_determine_exit_codes(fixtures, capsys):
    rc = main(["determine", "--space", fixtures["graph.csv"],
               "--f", fixtures["f.csv"], "--g", fixtures["g_shift.csv"]])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["verdict"] == "EqualUpToConstant"
    assert doc["constant"] == 5.0

    rc = main(["determine", "--space", fixtures["graph.csv"],
               "--f", fixtures["f.csv"], "--g", fixtures["g_other.csv"]])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert doc["verdict"] == "HypothesisViolated"


def test_determine_inconclusive_exit_code(fixtures, tmp_path, capsys):
    g = tmp_path / "g_bump.csv"
    g.write_text("point,value\n0,8.0000000005\n1,7.0\n2,6.0\n3,5.0\n")
    rc = main(["determine", "--space", fixtures["graph.csv"],
               "--f", fixtures["f.csv"], "--g", str(g),
               "--tol-slope", "1e-8", "--tol-crit", "1e-8",
               "--tol-residual", "1e-12"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 3
    assert doc["verdict"] == "Inconclusive"


# (exit code, sha256 of stdout) of `slopekit determine` on the path
# fixtures and on a seeded 2000-point graph; the digests were taken
# from the implementation that kept critical sets as frozensets.
DETERMINE_GOLDEN = {
    ("g_shift.csv",):
        (0, "b37e36aca3e483e37a090768e54723ad53d98448b50c0064924d1156eddc41b8"),
    ("g_zero.csv",):
        (2, "5982235be1be181922222278b4a94d66ec79ab6f88c5e07bf042d4120f9733c7"),
    ("g_other.csv",):
        (2, "63a069f3c7829a89f0c5519861f0cb366b3c13d5bff0972a7275b38497e8c0a4"),
    ("g_other.csv", "--tol-crit", "1"):
        (2, "2ffa396f97464f871a1a85ff7e8f4b0535ad2e640274c31ff5c1cf9ed006879b"),
    ("g_shift.csv", "--tol-residual", "0"):
        (0, "28362720df262c555cc44b65869e6ac5b3699bf2ca2541c5cf62f95683576bb7"),
    ("big_g_equal.csv",):
        (0, "5574bc0d4b60ecd199b17379ec4ada63c3edad52f504f361f67be7a4a8049276"),
    ("big_g_perturbed.csv",):
        (2, "ae387c970297f01b48374430d1366750ca6d7c7f6d8d55bc29e663c6a5b80f5e"),
    ("big_g_other.csv",):
        (2, "d5e0543dde712a0cded256dd459f72a60ad88123e5283a99b2da320c43d5401b"),
    ("big_g_other.csv", "--tol-crit", "2"):
        (2, "1608491f85688a2b0d61537718b388e1a9e51aae151eb56a56967a5f24d31b66"),
}


def write_big_case(directory):
    """A seeded 2000-point graph, a dyadic field f, g = f + c, g with
    one point raised by 0.25 and an unrelated dyadic g, as CSV files."""
    rng = random.Random(2000)
    space = random_connected_graph(rng, n_max=2000, n_min=2000)
    f = random_dyadic_field(rng, space).values
    g = f + rng.randint(-5120, 5120) / 1024
    bumped = g.copy()
    bumped[rng.randrange(space.n)] += 0.25
    other = random_dyadic_field(rng, space).values
    up = space.src < space.dst
    rows = zip(space.src[up].tolist(), space.dst[up].tolist(), space.w[up].tolist())
    (directory / "big_graph.csv").write_text("u,v,length\n" + "".join(
        f"{u},{v},{w!r}\n" for u, v, w in rows))
    for name, vals in (("big_f", f), ("big_g_equal", g), ("big_g_perturbed", bumped),
                       ("big_g_other", other)):
        (directory / f"{name}.csv").write_text("point,value\n" + "".join(
            f"{p},{v!r}\n" for p, v in enumerate(vals.tolist())))


@pytest.mark.parametrize("case", list(DETERMINE_GOLDEN))
def test_determine_output_is_pinned(case, fixtures, capsys):
    g, *options = case
    prefix = "big_" if g.startswith("big_") else ""
    if prefix:
        write_big_case(fixtures["dir"])
    d = fixtures["dir"]
    rc = main(["determine", "--space", str(d / f"{prefix}graph.csv"),
               "--f", str(d / f"{prefix}f.csv"), "--g", str(d / g), *options])
    out = capsys.readouterr().out
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == DETERMINE_GOLDEN[case]


def test_reconstruct_subcommand(fixtures, tmp_path, capsys):
    slopes = tmp_path / "slopes.csv"
    slopes.write_text("point,slope\n0,1.0\n1,1.0\n2,1.0\n3,0.0\n")
    crit_values = tmp_path / "cv.csv"
    crit_values.write_text("point,value\n3,0.0\n")
    rc = main(["reconstruct", "--space", fixtures["graph.csv"],
               "--slopes", str(slopes), "--crit-values", str(crit_values)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[1] == "0,3"

    bad = tmp_path / "bad.csv"
    bad.write_text("point,slope\n0,1.0\n1,1.0\n2,1.0\n3,1.0\n")
    rc = main(["reconstruct", "--space", fixtures["graph.csv"],
               "--slopes", str(bad), "--crit-values", str(crit_values)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["admissible"] is False
    assert doc["witnesses"]


def test_gallery_fig2_slope_column(capsys):
    rc = main(["gallery", "fig2", "--n", "201"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "t,f,g,slope_f_analytic,slope_f_discrete"
    for line in lines[1:]:
        t, _, _, slope_an, _ = (float(c) for c in line.split(","))
        if abs(t) > math.pi / 2:
            assert abs(slope_an - 2 * (abs(t) - math.pi / 2)) <= 1e-12
        else:
            assert abs(slope_an - math.cos(t)) <= 1e-12


def test_gallery_gnuplot_format(capsys):
    rc = main(["gallery", "fig1", "--n", "11", "--format", "gnuplot"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0].startswith("# t f g")
    assert "," not in out.splitlines()[1]


def test_byte_identical_repeated_runs(fixtures, capsys):
    main(["determine", "--space", fixtures["graph.csv"],
          "--f", fixtures["f.csv"], "--g", fixtures["g_shift.csv"]])
    first = capsys.readouterr().out
    main(["determine", "--space", fixtures["graph.csv"],
          "--f", fixtures["f.csv"], "--g", fixtures["g_shift.csv"]])
    second = capsys.readouterr().out
    assert first == second


def test_out_flag_writes_file(fixtures, tmp_path, capsys):
    target = tmp_path / "slopes_out.csv"
    rc = main(["slope", "--space", fixtures["graph.csv"],
               "--f", fixtures["f.csv"], "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().splitlines()[0] == "point,slope,is_infinite"


def test_usage_error_exit_code(capsys):
    rc = None
    try:
        main(["determine", "--space"])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 64


def test_missing_file_exit_code(tmp_path, capsys):
    rc = main(["slope", "--space", str(tmp_path / "nope.csv"),
               "--f", str(tmp_path / "also_nope.csv")])
    assert rc == 74


def test_malformed_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n0,1\n")
    f = tmp_path / "f.csv"
    f.write_text(PATH_F)
    rc = main(["slope", "--space", str(bad), "--f", str(f)])
    assert rc == 74


def test_space_beyond_the_key_range_is_an_input_error(fixtures, tmp_path, capsys):
    # one edge to point 2**32 implies more points than a space may have
    space = tmp_path / "huge.csv"
    space.write_text("u,v,length\n0,4294967296,1.0\n")
    rc = main(["slope", "--space", str(space), "--f", fixtures["f.csv"]])
    out, err = capsys.readouterr()
    assert rc == 74 and out == ""
    assert err == ("slopekit: InvalidCount: a space has at most 3037000499 "
                   "points, got 4294967297\n")


def test_descend_without_dominance_is_an_input_error(fixtures, capsys):
    # g = f + 5 has identical slopes, so the descent precondition fails
    rc = main(["descend", "--space", fixtures["graph.csv"],
               "--f", fixtures["f.csv"], "--g", fixtures["g_shift.csv"],
               "--start", "0"])
    err = capsys.readouterr().err
    assert rc == 74
    assert "SlopeDominanceViolated" in err


def test_internal_error_prints_its_traceback(monkeypatch, capsys):
    # a bug, not a typed error: exit 70 with the traceback on stderr
    def broken(*args, **kwargs):
        raise RuntimeError("broken figure")
    monkeypatch.setattr(gallery, "emit_figure_data", broken)
    rc = main(["gallery", "fig1", "--n", "5"])
    out, err = capsys.readouterr()
    assert rc == 70 and out == ""
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: broken figure\n")


def test_verify_subcommand(capsys):
    rc = main(["verify", "--suite", "lemma", "--trials", "10", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "suite=lemma" in out and "PASS" in out


def test_verify_reports_a_failing_suite(monkeypatch, capsys):
    def failing(trials, seed):
        return testing.SuiteResult("fake", trials, 3, 1, f"gap at seed {seed}")
    monkeypatch.setattr(testing, "SUITES", {"fake": failing})
    rc = main(["verify", "--trials", "4", "--seed", "7"])
    assert rc == 1
    assert capsys.readouterr().out == \
        "suite=fake trials=4 checks=3 failures=1 FAIL (gap at seed 7)\n"


def test_parser_choices_are_the_library_names():
    # The parser keeps the figure tags and suite names as literals, so
    # that building it loads neither `gallery` nor `testing`.
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))

    def choices(command, dest):
        return next(tuple(a.choices) for a in sub.choices[command]._actions
                    if a.dest == dest)
    assert choices("gallery", "figure") == gallery.FIGURE_TAGS
    assert choices("verify", "suite") == ("all", *testing.SUITES)
