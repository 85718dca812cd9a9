"""Work budgets: how many times each public call runs the kernels that
do its work, and the checks of its arguments, counted exactly on a
fixed small space.

Every slopekit module's reference to the slope kernel (`slope._slopes`)
and the sweep (`space._sweep`) is wrapped with a counter, and so is
each reference to the binding check and the cap and tolerance checks of
`slope`. A call that gains a pass, or loses one, changes a count; the
counts are asserted equal, not bounded. Each argument is checked once,
at the public entry, and private code takes checked inputs. A change
that moves a budget changes its table and says why.
"""
import importlib
import random
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import path_field, unit_path
from slopekit import (
    CriticalSet,
    ScalarField,
    SlopeData,
    SlopeField,
    comparison_floor,
    comparison_principle,
    critical_set,
    delta_slope_profile,
    descent_path,
    descent_step,
    determine,
    distances_from,
    epsilon_audit,
    is_connected,
    local_slope,
    neighbors,
    reconstruct,
    scale_field,
    slope_field,
    verify_strict_comparison,
)
from slopekit.testing import random_connected_graph, random_dyadic_field

KERNELS = {"slopes": ("slopekit.slope", "_slopes"),
           "sweeps": ("slopekit.space", "_sweep")}
CHECKS = {"require_bound": ("slopekit.slope", "require_bound"),
          "check_cap": ("slopekit.slope", "check_cap"),
          "check_tol": ("slopekit.slope", "check_tol")}

MODULES = ("space", "slope", "critical", "descent", "determination",
           "reconstruct", "gallery", "io", "testing")


@pytest.fixture
def tally(monkeypatch):
    """A Counter of kernel runs and checks, keyed like KERNELS and CHECKS."""
    for name in MODULES:
        importlib.import_module(f"slopekit.{name}")
    counts = Counter()
    for key, (module, name) in {**KERNELS, **CHECKS}.items():
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


# public call -> (slope passes, sweeps); a constructor checks its input
# by the rules of `space` and runs no kernel
BUDGETS = {
    "ScalarField": ((0, 0), lambda a: ScalarField(a.space, a.f.values)),
    "SlopeField": ((0, 0),
                   lambda a: SlopeField(a.space, a.slopes.values, a.slopes.infinite)),
    "CriticalSet": ((0, 0), lambda a: CriticalSet(a.space, a.crit.mask, 0.0)),
    "local_slope": ((0, 0), lambda a: local_slope(a.space, a.f, a.x0)),
    "scale_field": ((0, 0), lambda a: scale_field(a.f, 2.0)),
    "neighbors": ((0, 0), lambda a: neighbors(a.space, 0)),
    "distances_from": ((0, 1), lambda a: distances_from(a.space, 0)),
    "delta_slope_profile": (
        (0, 1), lambda a: delta_slope_profile(a.space, a.f, a.x0, [2.0, 1.0])),
    "is_connected": ((0, 1), lambda a: is_connected(a.space)),
    "descent_step": ((0, 0), lambda a: descent_step(a.space, a.f, a.g, a.x0, a.crit)),
    "slope_field": ((1, 0), lambda a: slope_field(a.space, a.f)),
    "critical_set": ((0, 0), lambda a: critical_set(a.slopes)),
    "comparison_floor": ((0, 0),
                         lambda a: comparison_floor(a.space, a.f, a.g, a.x0, a.crit)),
    "descent_path": ((0, 0), lambda a: descent_path(a.space, a.f, a.g, a.x0, a.crit)),
    "verify_strict_comparison": (
        (2, 0), lambda a: verify_strict_comparison(a.space, a.f, a.g, a.crit)),
    "comparison_principle": (
        (2, 0), lambda a: comparison_principle(a.space, a.f, a.g, a.c)),
    "epsilon_audit": ((3, 0), lambda a: epsilon_audit(a.space, a.f, a.g, [0.5, 0.25])),
    "determine": ((2, 0), lambda a: determine(a.space, a.f, a.g)),
    "reconstruct": ((1, 1), lambda a: reconstruct(a.space, a.data)),
}


@pytest.mark.parametrize("build", [path3, random30], ids=["path3", "random30"])
@pytest.mark.parametrize("call", list(BUDGETS))
def test_kernel_passes_per_public_call(tally, build, call):
    inputs = Inputs(*build())
    budget, run = BUDGETS[call]
    tally.clear()
    run(inputs)
    assert (tally["slopes"], tally["sweeps"]) == budget


# public call -> (require_bound, check_cap, check_tol) calls, each run by
# BUDGETS: one per argument of the call that takes it
CHECK_BUDGETS = {
    "ScalarField": (0, 0, 0),
    "SlopeField": (0, 1, 0),
    "CriticalSet": (0, 0, 1),
    "local_slope": (1, 1, 0),
    "scale_field": (0, 0, 0),
    "neighbors": (0, 0, 0),
    "distances_from": (0, 0, 0),
    "delta_slope_profile": (1, 1, 0),
    "is_connected": (0, 0, 0),
    "descent_step": (1, 1, 0),
    "slope_field": (1, 1, 0),
    "critical_set": (0, 0, 1),
    "comparison_floor": (1, 0, 0),
    "descent_path": (1, 1, 0),
    "verify_strict_comparison": (1, 1, 0),
    "comparison_principle": (1, 1, 2),
    "epsilon_audit": (1, 1, 2),
    "determine": (1, 1, 3),
    "reconstruct": (1, 0, 1),
}


@pytest.mark.parametrize("build", [path3, random30], ids=["path3", "random30"])
@pytest.mark.parametrize("call", list(BUDGETS))
def test_each_argument_is_checked_once_per_public_call(tally, build, call):
    inputs = Inputs(*build())
    run = BUDGETS[call][1]
    tally.clear()
    run(inputs)
    assert tuple(tally[key] for key in CHECKS) == CHECK_BUDGETS[call]
