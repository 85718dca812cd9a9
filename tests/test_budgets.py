"""Work budgets: how many times each public call runs the kernels that
do its work, counted exactly on a fixed small space.

Every slopekit module's reference to the slope kernel (`slope._slopes`),
the sweep (`space._sweep`) and the connectivity test
(`space.is_connected`) is wrapped with a counter. A call that gains a
pass, or loses one, changes a count; the counts are asserted equal, not
bounded. A change that moves a budget changes this table and says why.
"""
import importlib
import random
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import path_field, unit_path
from slopekit import (
    SlopeData,
    comparison_floor,
    comparison_principle,
    critical_set,
    descent_path,
    determine,
    epsilon_audit,
    reconstruct,
    scale_field,
    slope_field,
    verify_strict_comparison,
)
from slopekit.testing import random_connected_graph, random_dyadic_field

KERNELS = {"slopes": ("slopekit.slope", "_slopes"),
           "sweeps": ("slopekit.space", "_sweep"),
           "connectivity": ("slopekit.space", "is_connected")}

MODULES = ("space", "slope", "critical", "descent", "determination",
           "reconstruct", "gallery", "io", "testing")


@pytest.fixture
def tally(monkeypatch):
    """A Counter of kernel runs, keyed like KERNELS."""
    for name in MODULES:
        importlib.import_module(f"slopekit.{name}")
    counts = Counter()
    for key, (module, name) in KERNELS.items():
        original = getattr(sys.modules[module], name)

        def counted(*args, _key=key, _original=original, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "slopekit" or mod_name.startswith("slopekit."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
    return counts


def path3():
    space = unit_path(3)
    return space, path_field(space, [2.0, 1.0, 0.0])


def random30():
    rng = random.Random(27)
    space = random_connected_graph(rng, n_max=30, n_min=30)
    return space, random_dyadic_field(rng, space)


class Inputs:
    """A space, a field f, g = f / 2 and what the calls take besides:
    f's slopes, its critical set, its critical values, and a point off
    that set. g has strictly smaller slopes off the critical set of f,
    so descent and the strict comparison run their whole course."""

    def __init__(self, space, f):
        self.space, self.f, self.g = space, f, scale_field(f, 0.5)
        self.slopes = slope_field(space, f)
        self.crit = critical_set(self.slopes)
        self.data = SlopeData(self.slopes, {p: f[p] for p in self.crit.sorted_members()})
        self.x0 = int((~self.crit.mask).nonzero()[0][0])
        self.c = float(np.max(self.g.values - f.values))


# public call -> (slope passes, sweeps, connectivity tests)
BUDGETS = {
    "slope_field": ((1, 0, 0), lambda a: slope_field(a.space, a.f)),
    "critical_set": ((0, 0, 0), lambda a: critical_set(a.slopes)),
    "comparison_floor": ((0, 0, 0),
                         lambda a: comparison_floor(a.space, a.f, a.g, a.x0, a.crit)),
    "descent_path": ((0, 0, 0), lambda a: descent_path(a.space, a.f, a.g, a.x0, a.crit)),
    "verify_strict_comparison": (
        (2, 0, 0), lambda a: verify_strict_comparison(a.space, a.f, a.g, a.crit)),
    "comparison_principle": (
        (2, 0, 0), lambda a: comparison_principle(a.space, a.f, a.g, a.c)),
    "epsilon_audit": ((3, 0, 0), lambda a: epsilon_audit(a.space, a.f, a.g, [0.5, 0.25])),
    "determine": ((2, 0, 0), lambda a: determine(a.space, a.f, a.g)),
    "reconstruct": ((1, 1, 0), lambda a: reconstruct(a.space, a.data)),
}


@pytest.mark.parametrize("build", [path3, random30], ids=["path3", "random30"])
@pytest.mark.parametrize("call", list(BUDGETS))
def test_kernel_passes_per_public_call(tally, build, call):
    inputs = Inputs(*build())
    budget, run = BUDGETS[call]
    tally.clear()
    run(inputs)
    assert (tally["slopes"], tally["sweeps"], tally["connectivity"]) == budget
