import json
import math
from pathlib import Path

import numpy as np
import pytest

import slopekit.io as skio
from conftest import path_field, unit_path
from slopekit import (
    ScalarField,
    critical_set,
    descent_path,
    determine,
    sample_interval,
    slope_field,
)
from slopekit.errors import FileFormatError

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / \
    "determination_report.schema.json"


def test_graph_csv_round_trip(tmp_path):
    space = unit_path(4)
    p = tmp_path / "g.csv"
    p.write_text(skio.render_graph_csv(space))
    loaded = skio.load_graph_csv(p)
    assert loaded.n == 4
    assert loaded.edges == space.edges


def test_graph_csv_comments_and_header(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("# comment\nu,v,length\n# another\n0,1,0.25\n")
    space = skio.load_graph_csv(p)
    assert space.edges == ((0, 1, 0.25),)
    p.write_text("a,b,c\n0,1,0.25\n")
    with pytest.raises(FileFormatError):
        skio.load_graph_csv(p)
    p.write_text("u,v,length\n0,1\n")
    with pytest.raises(FileFormatError):
        skio.load_graph_csv(p)


def test_csv_of_only_comments_and_blank_lines_is_empty(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("# a comment\n\n   \n# another\n")
    with pytest.raises(FileFormatError,
                       match=r"g\.csv: empty file, expected header u,v,length$"):
        skio.load_graph_csv(p)


def test_coordinates_csv(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("point,x\n1,0.5\n0,0.0\n2,1.0\n")
    coords = skio.load_coordinates_csv(p)
    assert np.array_equal(coords, [0.0, 0.5, 1.0])
    p.write_text("point,x,y\n0,0.0,1.0\n1,2.0,3.0\n")
    coords = skio.load_coordinates_csv(p)
    assert coords.shape == (2, 2)
    p.write_text("point,x\n0,0.0\n2,1.0\n")
    with pytest.raises(FileFormatError):
        skio.load_coordinates_csv(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_coordinates_csv_rejects_non_finite(tmp_path, cell):
    p = tmp_path / "c.csv"
    p.write_text(f"point,x\n0,0.0\n1,{cell}\n2,1.0\n")
    with pytest.raises(FileFormatError, match=f"c.csv:3: non-finite coordinate '{cell}'"):
        skio.load_coordinates_csv(p)


@pytest.mark.parametrize("cell,what", [
    ("nan", "non-finite slope"), ("inf", "non-finite slope"),
    ("-1.5", "negative slope")])
def test_slope_csv_rejects_unflagged_bad_slopes(tmp_path, cell, what):
    space = unit_path(3)
    p = tmp_path / "s.csv"
    p.write_text(f"point,slope,is_infinite\n0,0.0,0\n1,{cell},0\n2,1.0,0\n")
    with pytest.raises(FileFormatError, match=f"s.csv:3: {what} '{cell}'"):
        skio.load_slope_csv(p, space)


def test_field_csv_round_trip_lossless(tmp_path):
    space = unit_path(3)
    f = path_field(space, [1 / 3, math.pi, -0.1])
    p = tmp_path / "f.csv"
    p.write_text(skio.render_field_csv(f))
    loaded = skio.load_field_csv(p, space)
    assert np.array_equal(loaded.values, f.values)  # 17 digits round-trip


def test_field_csv_validation(tmp_path):
    space = unit_path(3)
    p = tmp_path / "f.csv"
    p.write_text("point,value\n0,1.0\n1,2.0\n")
    with pytest.raises(FileFormatError):
        skio.load_field_csv(p, space)
    p.write_text("point,value\n0,1.0\n0,2.0\n1,0.0\n2,0.0\n")
    with pytest.raises(FileFormatError):
        skio.load_field_csv(p, space)
    p.write_text("point,value\n0,1.0\n1,2.0\n5,0.0\n")
    with pytest.raises(FileFormatError):
        skio.load_field_csv(p, space)


def test_slope_csv_round_trip_with_infinite(tmp_path):
    from slopekit import build_graph
    space = build_graph([(0, 1, 1e-13), (1, 2, 1.0)])
    f = path_field(space, [1.0, 0.0, 0.5])
    slopes = slope_field(space, f)
    assert slopes.any_infinite()
    p = tmp_path / "s.csv"
    p.write_text(skio.render_slope_csv(slopes))
    loaded = skio.load_slope_csv(p, space)
    assert np.array_equal(loaded.infinite, slopes.infinite)
    finite = ~slopes.infinite
    assert np.array_equal(loaded.values[finite], slopes.values[finite])


def test_slope_csv_two_column_form(tmp_path):
    space = unit_path(3)
    p = tmp_path / "s.csv"
    p.write_text("point,slope\n0,1.0\n1,1.0\n2,0.0\n")
    loaded = skio.load_slope_csv(p, space)
    assert list(loaded.values) == [1.0, 1.0, 0.0]
    assert not loaded.any_infinite()


def test_slope_csv_needs_a_row_per_point(tmp_path):
    space = unit_path(3)
    p = tmp_path / "s.csv"
    p.write_text("point,slope\n0,1.0\n2,0.0\n")
    with pytest.raises(FileFormatError, match=r"s\.csv: 2 slopes for a 3-point space$"):
        skio.load_slope_csv(p, space)


def test_crit_csv_records_tolerance(tmp_path):
    space = unit_path(3)
    slopes = slope_field(space, path_field(space, [2.0, 1.0, 0.0]))
    crit = critical_set(slopes, tol=0.0)
    text = skio.render_crit_csv(crit, slopes)
    lines = text.splitlines()
    assert lines[0] == "# tol=0"
    assert lines[1] == "point,slope"
    assert lines[2] == "2,0"


def test_path_csv_trailer():
    space = unit_path(4)
    f = path_field(space, [3.0, 2.0, 1.0, 0.0])
    g = path_field(space, [0.0] * 4)
    crit = critical_set(slope_field(space, f), 0.0)
    path = descent_path(space, f, g, 0, crit)
    text = skio.render_path_csv(path)
    lines = text.splitlines()
    assert lines[0] == "step,point,f,f_minus_g"
    assert len(lines) == 6
    assert lines[-1] == "# terminal_critical=true"
    assert lines[1].startswith("0,0,3,")


def test_determination_report_json_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    space = unit_path(4)
    f = path_field(space, [3.0, 2.0, 1.0, 0.0])

    g_pass = ScalarField(space, f.values + 5.0)
    report = determine(space, f, g_pass)
    doc = json.loads(skio.render_determination_report(report))
    jsonschema.validate(doc, schema)
    assert doc["verdict"] == "EqualUpToConstant"
    assert doc["constant"] == 5.0

    g_fail = ScalarField(space, np.array([0.0, 4.0, 1.0, 7.0]))
    report = determine(space, f, g_fail)
    doc = json.loads(skio.render_determination_report(report))
    jsonschema.validate(doc, schema)
    assert doc["verdict"] == "HypothesisViolated"
    assert doc["violated_hypotheses"]
    assert doc["witnesses"]


def test_report_json_key_order():
    # The report is compared byte for byte across versions, so the order
    # of its keys is part of the format.
    space = unit_path(4)
    f = path_field(space, [3.0, 2.0, 1.0, 0.0])
    doc = json.loads(skio.render_determination_report(
        determine(space, f, ScalarField(space, f.values + 1.0))))
    diag = doc["diagnostics"]
    assert list(doc) == ["verdict", "violated_hypotheses", "constant",
                         "residual", "diagnostics", "witnesses", "tolerances",
                         "slope_provenance"]
    assert list(diag) == ["slopes_finite", "slopes_equal", "crit_sets_equal",
                          "diff_constant_on_crit", "critical_point_count"]
    assert list(diag["slopes_finite"]) == ["passed", "worst_point", "which_field"]
    assert list(diag["slopes_equal"]) == ["passed", "max_gap", "worst_point",
                                          "slope_f", "slope_g"]
    assert list(diag["crit_sets_equal"]) == ["passed", "only_in_f", "only_in_g"]
    assert list(diag["diff_constant_on_crit"]) == [
        "passed", "constant", "spread", "max_point", "max_value", "min_point",
        "min_value"]
    g_fail = ScalarField(space, np.array([0.0, 4.0, 1.0, 7.0]))
    doc = json.loads(skio.render_determination_report(determine(space, f, g_fail)))
    assert doc["witnesses"] and all(
        list(w) == ["point", "kind", "value"] for w in doc["witnesses"])


def test_report_json_is_deterministic():
    space = unit_path(4)
    f = path_field(space, [3.0, 2.0, 1.0, 0.0])
    g = ScalarField(space, f.values + 1.0)
    a = skio.render_determination_report(determine(space, f, g))
    b = skio.render_determination_report(determine(space, f, g))
    assert a == b


def test_rows_render_formats():
    header = ("t", "value")
    rows = [(0.5, 1.0), (1.5, 2.0)]
    csv_text = skio.render_rows_csv(header, rows)
    assert csv_text.splitlines()[0] == "t,value"
    gp_text = skio.render_rows_gnuplot(header, rows)
    assert gp_text.splitlines()[0] == "# t value"
    docs = json.loads(skio.render_rows_json(header, rows))
    assert docs[0] == {"t": 0.5, "value": 1.0}


def test_fmt_is_lossless():
    for x in (1 / 3, math.pi, 1e-300, -0.0, 12345.6789):
        assert float(skio.fmt(x)) == x
