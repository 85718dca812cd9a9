"""The failure bookkeeping of the property suites in `slopekit.testing`.

Each suite passes on the library as it is (tests/test_acceptance.py),
so its failure path only runs when a name it calls is broken. Here the
name is replaced inside `slopekit.testing` by a stand-in that gets its
check wrong, and the suite must fail: count the failed checks and
describe the first.
"""
import dataclasses
import math
import re

import numpy as np
import pytest

from slopekit import ScalarField, testing
from slopekit.errors import SlopeDominanceViolated


def stay(space, f, g, x, crit):
    """A 'step' to x itself, which lowers neither f nor f - g."""
    return x


def stall(space, f, g, x, crit):
    raise SlopeDominanceViolated(f"descent stalled at point {x}")


REAL_DETERMINE = testing.determine


def residual_one(space, f, g):
    return dataclasses.replace(REAL_DETERMINE(space, f, g), residual=1.0)

# suite, {name in slopekit.testing: stand-in}, the first failure's text
CASES = {
    "lemma-stay": (testing.lemma_existence_suite, {"descent_step": stay},
                   r"no valid step at point \d+ \(n=\d+\)"),
    "lemma-stall": (testing.lemma_existence_suite, {"descent_step": stall},
                    r"no valid step at point \d+ \(n=\d+\)"),
    "descent": (testing.descent_comparison_suite,
                {"comparison_floor": lambda space, f, g, x, crit: math.inf},
                r"path or floor failure from point \d+ \(n=\d+\)"),
    "determine": (testing.determination_roundtrip_suite, {"determine": residual_one},
                  r"verdict=EqualUpToConstant c=\S+ got=\S+ residual=1\.0"),
    "reconstruct": (testing.reconstruction_roundtrip_suite,
                    {"reconstruct": lambda space, data, tol: None},
                    r"round trip or perturbation failure \(n=\d+\)"),
    # an unscaled copy keeps each nonzero slope of f as it is
    "homogeneity-unscaled": (testing.homogeneity_suite,
                             {"scale_field": lambda f, lam: f},
                             r"homogeneity gap at eps=1\.0 \(n=\d+\)"),
    # f is flat, so every slope of f is 0, and the "scaled" field rises
    # with the point id: point 1, adjacent to point 0, has slope > 0
    "homogeneity-flat": (testing.homogeneity_suite, {
        "random_dyadic_field": lambda rng, space: ScalarField(space, np.zeros(space.n)),
        "scale_field": lambda f, lam: ScalarField(
            f.space, np.arange(f.space.n, dtype=float))},
        r"homogeneity gap at eps=1\.0 \(n=\d+\)"),
}


@pytest.mark.parametrize("suite,stand_ins,first", CASES.values(), ids=CASES)
def test_a_broken_check_fails_the_suite(monkeypatch, suite, stand_ins, first):
    for name, stand_in in stand_ins.items():
        monkeypatch.setattr(testing, name, stand_in)
    result = suite(trials=5, seed=0, n_max=10)
    assert result.passed is False
    assert 0 < result.failures <= result.checks
    assert re.fullmatch(first, result.first_failure), result.first_failure
