import dataclasses
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slopekit
from slopekit import errors, io
from slopekit.cli import main


def test_every_public_name_resolves_once():
    names = slopekit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(slopekit, name), name


def test_removed_names_are_absent():
    for name in ("EDGE_LOCAL", "SHORTEST_PATH_CLOSURE", "SublevelSet", "sublevel_set",
                 "SlopeValue", "INFINITE_SLOPE", "Neighborhood", "check_hypotheses",
                 "metric_distances", "NoStep"):
        assert name not in slopekit.__all__
        assert not hasattr(slopekit, name)
    assert not hasattr(slopekit.descent, "NoStep")
    assert not hasattr(importlib.import_module("slopekit.testing"), "NoStep")
    assert not hasattr(slopekit.determination, "check_hypotheses")
    for module in (slopekit.critical, slopekit.slope, slopekit.space):
        for name in ("SublevelSet", "sublevel_set", "SlopeValue", "INFINITE_SLOPE",
                     "Neighborhood"):
            assert not hasattr(module, name)
    for attr in ("check_members", "__contains__", "__len__"):
        assert not hasattr(slopekit.CriticalSet, attr)
    for name in ("NoMetricClosure", "NonFiniteCoordinate", "UnsortedEdges",
                 "DisconnectedSpace"):
        assert not hasattr(errors, name)
    assert not hasattr(slopekit.space, "metric_distances")
    for attr in ("adjacency", "_adjacency", "metric_mode", "degree", "is_isolated"):
        assert not hasattr(slopekit.MetricSpaceGraph, attr)
    for cls, gone in ((slopekit.AnalyticFunction1D, {"metadata"}),
                      (slopekit.HypothesisDiagnostics,
                       {"tol_slope", "tol_crit", "overflow_cap"})):
        assert not gone & {f.name for f in dataclasses.fields(cls)}
        assert not any(hasattr(cls, name) for name in gone)
    for fn in (slopekit.build_graph, slopekit.sample_interval, io.load_graph_csv):
        assert "metric_mode" not in inspect.signature(fn).parameters
    assert "provenance" not in inspect.signature(io.load_slope_csv).parameters


def test_spaces_take_no_coordinates(tmp_path, capsys):
    # One metric per space: the edge lengths. Only `sample_interval`
    # stores coordinates, its sample positions.
    with pytest.raises(AttributeError, match="metric_distances"):
        slopekit.metric_distances
    for fn in (slopekit.build_graph, slopekit.MetricSpaceGraph, io.load_graph_csv):
        assert not {"coordinates", "coordinates_path"} & set(
            inspect.signature(fn).parameters), fn
    space, f = tmp_path / "space.csv", tmp_path / "f.csv"
    space.write_text("u,v,length\n0,1,1.0\n")
    f.write_text("point,value\n0,1.0\n1,0.0\n")
    with pytest.raises(SystemExit) as info:
        main(["slope", "--space", str(space), "--f", str(f),
              "--coords", "x.csv"])
    out, err = capsys.readouterr()
    assert info.value.code == 64 and out == ""
    assert "unrecognized arguments: --coords x.csv" in err


# What `import slopekit.cli` loads: the package, the command line and
# the errors, and no numpy. Every command-line process pays for this
# import, so a module that joins it has to be listed here.
CLI_MODULES = ["slopekit", "slopekit.cli", "slopekit.errors"]


def _run_fresh(code: str, *args: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports slopekit
    from this source tree."""
    src = str(Path(slopekit.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={"PYTHONPATH": src}, check=True).stdout


def test_cli_import_loads_exactly_the_library_modules():
    # traceback loads on the internal-error path only
    code = ("import sys, slopekit.cli; assert 'numpy' not in sys.modules; "
            "assert 'traceback' not in sys.modules; "
            "print(sorted(m for m in sys.modules "
            "if m == 'slopekit' or m.startswith('slopekit.')))")
    assert _run_fresh(code).strip() == repr(CLI_MODULES)


# The modules each command loads beyond CLI_MODULES. Building the parser
# loads `slope` (the knob checks), and every command reads or writes
# files through `io`, which loads `space`. `critical` loads with the
# commands that take a critical set, `gallery` with `gallery` alone.
_COMMON = ["io", "slope", "space"]
COMMAND_MODULES = {
    "slope": (["slope", "--space", "{space}", "--f", "{f}"], _COMMON),
    "crit": (["crit", "--space", "{space}", "--f", "{f}"], [*_COMMON, "critical"]),
    "descend": (["descend", "--space", "{space}", "--f", "{f}", "--g", "{g}",
                 "--start", "0"], [*_COMMON, "critical", "descent"]),
    "determine": (["determine", "--space", "{space}", "--f", "{f}", "--g", "{fc}"],
                  [*_COMMON, "critical", "determination"]),
    "reconstruct": (["reconstruct", "--space", "{space}", "--slopes", "{slopes}",
                     "--crit-values", "{crit}"], [*_COMMON, "critical", "reconstruct"]),
    "gallery": (["gallery", "fig1", "--n", "5"], [*_COMMON, "gallery"]),
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_loads_only_its_modules(tmp_path, command):
    files = {"space": "u,v,length\n0,1,1.0\n1,2,1.0\n",
             "f": "point,value\n0,2.0\n1,1.0\n2,0.0\n",
             "g": "point,value\n0,1.0\n1,0.5\n2,0.0\n",
             "fc": "point,value\n0,3.0\n1,2.0\n2,1.0\n",
             "slopes": "point,slope,is_infinite\n0,1.0,0\n1,1.0,0\n2,0.0,0\n",
             "crit": "point,value\n2,0.0\n"}
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(text)
    argv, extra = COMMAND_MODULES[command]
    code = ("import sys; from slopekit.cli import main; "
            "rc = main(sys.argv[1:]); "
            "print(rc, sorted(m for m in sys.modules "
            "if m == 'slopekit' or m.startswith('slopekit.')))")
    out = _run_fresh(code, *(a.format(**paths) for a in argv),
                     "--out", str(tmp_path / "out"))
    expected = sorted([*CLI_MODULES, *(f"slopekit.{m}" for m in extra)])
    assert out.strip() == f"0 {expected!r}"


@pytest.mark.parametrize("first", [
    "import importlib; importlib.import_module('slopekit.reconstruct')",
    "from slopekit.reconstruct import SlopeData",
    "import slopekit.cli",
    "import slopekit.reconstruct",
])
def test_reconstruct_stays_the_function(first):
    # Loading the module binds it to the package; that must not hide the function.
    code = (f"{first}\nimport importlib, slopekit\n"
            "fn = importlib.import_module('slopekit.reconstruct').reconstruct\n"
            "print(callable(fn), slopekit.reconstruct is fn)")
    assert _run_fresh(code).strip() == "True True"


def test_names_load_their_module_on_first_use():
    code = ("import sys, slopekit; public = set(slopekit.__all__); "
            "loaded = sorted(m for m in sys.modules if m.startswith('slopekit')); "
            "cached = sorted(public & set(vars(slopekit))); "
            "numpy = 'numpy' in sys.modules; slopekit.determine; "
            "print(loaded, cached, numpy, "
            "'slopekit.determination' in sys.modules, 'determine' in vars(slopekit))")
    assert _run_fresh(code).strip() == "['slopekit'] [] False True True"


def test_public_names_are_their_modules_objects():
    for name in slopekit.__all__:
        module = importlib.import_module(f"slopekit.{slopekit._MODULE_OF.get(name, name)}")
        expected = module if name == "errors" else vars(module)[name]
        assert getattr(slopekit, name) is expected, name
    assert set(slopekit.__all__) <= set(dir(slopekit))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        slopekit.no_such_name


def assignments():
    """The repros of reassigning a checked attribute: each used to be
    accepted and to skip every check the constructor made."""
    space = slopekit.build_graph([(0, 1, 1.0), (1, 2, 1.0)])
    other = slopekit.sample_interval(0.0, 1.0, 5)
    f = slopekit.ScalarField(space, [0.0, 1.0, 2.0])
    slopes = slopekit.slope_field(space, f)
    return {
        # slope_field then returned 5 slopes for 3 points
        "values-length": (f, "values", np.zeros(5)),
        # slope_field then returned NaN slopes, determine a bare ValueError
        "values-nan": (f, "values", [np.nan, 0.0, 1.0]),
        # later calls sized their arrays by it
        "space-n": (space, "n", 10),
        # require_bound then passed, and slope_field raised IndexError
        "field-space": (f, "space", other),
        "slopes-infinite": (slopes, "infinite", np.ones(3, dtype=bool)),
        "slopes-cap": (slopes, "cap", -1.0),
        "space-coordinates": (other, "coordinates", None),
    }


@pytest.mark.parametrize("case", list(assignments()))
def test_validated_objects_cannot_be_reassigned(case):
    obj, name, value = assignments()[case]
    before = getattr(obj, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, value)
    assert getattr(obj, name) is before
