import json
import math

import pytest

from slopekit.cli import main

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


def test_nan_coordinate_is_an_input_error(fixtures, tmp_path, capsys):
    coords = tmp_path / "coords.csv"
    coords.write_text("point,x\n0,0.0\n1,nan\n2,2.0\n3,3.0\n")
    rc = main(["slope", "--space", fixtures["graph.csv"],
               "--coords", str(coords), "--f", fixtures["f.csv"]])
    assert rc == 74
    assert f"{coords}:3: non-finite coordinate 'nan'" in capsys.readouterr().err


def test_coordinates_without_rows_are_an_input_error(fixtures, tmp_path, capsys):
    # No rows means a space with no points.
    coords = tmp_path / "coords.csv"
    coords.write_text("point,x\n")
    rc = main(["slope", "--space", fixtures["graph.csv"],
               "--coords", str(coords), "--f", fixtures["f.csv"]])
    err = capsys.readouterr().err
    assert rc == 74
    assert "TooFewPoints: a space needs at least one point, got 0" in err
    assert "Traceback" not in err


def test_descend_without_dominance_is_an_input_error(fixtures, capsys):
    # g = f + 5 has identical slopes, so the descent precondition fails
    rc = main(["descend", "--space", fixtures["graph.csv"],
               "--f", fixtures["f.csv"], "--g", fixtures["g_shift.csv"],
               "--start", "0"])
    err = capsys.readouterr().err
    assert rc == 74
    assert "SlopeDominanceViolated" in err


def test_verify_subcommand(capsys):
    rc = main(["verify", "--suite", "lemma", "--trials", "10", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "suite=lemma" in out and "PASS" in out
