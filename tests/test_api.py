import inspect

import slopekit
from slopekit import errors, io


def test_every_public_name_resolves_once():
    names = slopekit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(slopekit, name), name


def test_removed_names_are_absent():
    for name in ("EDGE_LOCAL", "SHORTEST_PATH_CLOSURE", "SublevelSet", "sublevel_set",
                 "SlopeValue", "INFINITE_SLOPE", "Neighborhood"):
        assert name not in slopekit.__all__
        assert not hasattr(slopekit, name)
    for module in (slopekit.critical, slopekit.slope, slopekit.space):
        for name in ("SublevelSet", "sublevel_set", "SlopeValue", "INFINITE_SLOPE",
                     "Neighborhood"):
            assert not hasattr(module, name)
    for attr in ("check_members", "__contains__", "__len__"):
        assert not hasattr(slopekit.CriticalSet, attr)
    assert not hasattr(errors, "NoMetricClosure")
    for attr in ("adjacency", "_adjacency", "metric_mode"):
        assert not hasattr(slopekit.MetricSpaceGraph, attr)
    for fn in (slopekit.build_graph, slopekit.sample_interval, io.load_graph_csv):
        assert "metric_mode" not in inspect.signature(fn).parameters
    assert "provenance" not in inspect.signature(io.load_slope_csv).parameters
