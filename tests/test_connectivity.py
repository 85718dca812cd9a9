"""Differential suite for `is_connected`.

`space.is_connected` decides whether a space is one component by a
zero-increment sweep from point 0. It must agree with the depth-first
search of `testing.reference_is_connected`, also on long paths whose
ids do not rise along them, and on paths whose distances overflow.
"""
import random
import time

import numpy as np
import pytest

from slopekit import build_graph, distances_from, is_connected
from slopekit.testing import random_connected_graph, reference_is_connected


def agree(space):
    expected = reference_is_connected(space)
    assert is_connected(space) == expected
    return expected


def test_connected_graphs():
    rng = random.Random("connected")
    for _ in range(200):
        assert agree(random_connected_graph(rng, n_min=1 if rng.random() < 0.1 else 2))


def test_components_and_isolated_points():
    # Several random components and isolated points, with the point ids
    # shuffled, so point 0 may sit in any component or alone.
    rng = random.Random("components")
    outcomes = []
    for _ in range(200):
        edges, n = [], 0
        for _ in range(rng.randint(1, 4)):
            part = random_connected_graph(rng, n_max=12)
            edges += [(u + n, v + n, w) for u, v, w in part.edges]
            n += part.n
        n += rng.choice([0, 0, 1, 3])
        ids = list(range(n))
        rng.shuffle(ids)
        space = build_graph([(ids[u], ids[v], w) for u, v, w in edges], n=n)
        outcomes.append(agree(space))
    assert True in outcomes and False in outcomes


def cut_path(order, cut, length=1.0):
    """The path order[0] - order[1] - ... with edges of the given length,
    without its middle edge if `cut`."""
    order = np.asarray(order)
    keep = np.ones(order.size - 1, dtype=bool)
    keep[order.size // 2] = not cut
    return build_graph(zip(order[:-1][keep].tolist(), order[1:][keep].tolist(),
                           [length] * int(keep.sum())), n=order.size)


@pytest.mark.parametrize("cut", [None, "both"])
def test_long_interval(cut):
    # A 100 001-point path, whole or without its middle edge.
    space = cut_path(np.arange(100001), cut)
    assert agree(space) == (cut is None)


@pytest.mark.parametrize("layout", ["zero_last", "falling", "shuffled"])
@pytest.mark.parametrize("cut", [False, True])
def test_long_path_with_unsorted_ids(layout, cut):
    # Ids that do not rise along a 100 001-point path: the sweep from
    # point 0 must still cross it in time.
    n = 100001
    if layout == "zero_last":
        order = np.r_[np.arange(1, n), 0]
    elif layout == "falling":
        order = np.r_[0, np.arange(n - 1, 0, -1)]
    else:
        order = np.random.default_rng(11).permutation(n)
    space = cut_path(order, cut)
    start = time.perf_counter()
    assert is_connected(space) == (not cut)
    assert time.perf_counter() - start < 5.0
    assert reference_is_connected(space) == (not cut)


@pytest.mark.parametrize("cut", [False, True])
def test_path_whose_distances_overflow(cut):
    # Edges near the float maximum: the distance from point 0 overflows
    # to inf two hops out, yet the whole path is one component.
    space = cut_path(np.arange(9), cut, length=1.7e308)
    assert distances_from(space, 0)[2] == np.inf
    assert agree(space) == (not cut)
