import dataclasses
import inspect
import subprocess
import sys
from pathlib import Path

import slopekit
from slopekit import errors, io


def test_every_public_name_resolves_once():
    names = slopekit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(slopekit, name), name


def test_removed_names_are_absent():
    for name in ("EDGE_LOCAL", "SHORTEST_PATH_CLOSURE", "SublevelSet", "sublevel_set",
                 "SlopeValue", "INFINITE_SLOPE", "Neighborhood", "check_hypotheses"):
        assert name not in slopekit.__all__
        assert not hasattr(slopekit, name)
    assert not hasattr(slopekit.determination, "check_hypotheses")
    for module in (slopekit.critical, slopekit.slope, slopekit.space):
        for name in ("SublevelSet", "sublevel_set", "SlopeValue", "INFINITE_SLOPE",
                     "Neighborhood"):
            assert not hasattr(module, name)
    for attr in ("check_members", "__contains__", "__len__"):
        assert not hasattr(slopekit.CriticalSet, attr)
    assert not hasattr(errors, "NoMetricClosure")
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


# What `import slopekit.cli` loads: the package and its modules, and
# neither slopekit.testing nor anything else of slopekit. Every
# command-line process pays for this import, so a module that joins it
# has to be listed here.
CLI_MODULES = ["slopekit", "slopekit.cli", "slopekit.critical", "slopekit.descent",
               "slopekit.determination", "slopekit.errors", "slopekit.gallery",
               "slopekit.io", "slopekit.reconstruct", "slopekit.slope",
               "slopekit.space"]


def test_cli_import_loads_exactly_the_library_modules():
    src = str(Path(slopekit.__file__).resolve().parents[1])
    code = ("import sys, slopekit.cli; print(sorted(m for m in sys.modules "
            "if m == 'slopekit' or m.startswith('slopekit.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True).stdout
    assert out.strip() == repr(CLI_MODULES)
