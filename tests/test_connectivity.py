"""Differential suite for `is_connected`.

`space.is_connected` decides, by array label propagation, whether every
point is reachable from point 0 along the directed edges. It must agree
with the depth-first search kept as `testing.reference_is_connected`,
also on long paths whose ids do not rise along them, where the label
rounds run out and the zero-increment sweep decides.
"""
import random
import time

import numpy as np
import pytest

from slopekit import MetricSpaceGraph, build_graph, is_connected, sample_interval
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


def raw_space(n, pairs):
    """A space from raw directed (src, dst) pairs, unit lengths, sorted as
    the constructor expects but not made symmetric."""
    pairs = sorted(pairs)
    return MetricSpaceGraph(n=n, src=[u for u, _ in pairs],
                            dst=[v for _, v in pairs], w=[1.0] * len(pairs))


def test_asymmetric_raw_arrays():
    # 2 -> 1 is missing, but every point is still reachable from 0.
    assert agree(raw_space(3, [(0, 1), (1, 0), (1, 2)]))
    assert not agree(raw_space(3, [(1, 0), (1, 2), (2, 1)]))
    rng = random.Random("asymmetric")
    outcomes = []
    for _ in range(300):
        n = rng.randint(1, 15)
        pairs = {(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 3 * n))}
        outcomes.append(agree(raw_space(n, [(u, v) for u, v in pairs if u != v])))
    assert True in outcomes and False in outcomes


@pytest.mark.parametrize("cut", [None, "both", "forward", "backward"])
def test_long_interval(cut):
    # A 100 001-point path, whole or with its middle edge cut in one or
    # both directions: only a forward cut hides points from point 0.
    grid = sample_interval(0.0, 1.0, 100001)
    keep = np.ones(grid.src.size, dtype=bool)
    mid = 50000
    if cut in ("both", "forward"):
        keep &= ~((grid.src == mid) & (grid.dst == mid + 1))
    if cut in ("both", "backward"):
        keep &= ~((grid.src == mid + 1) & (grid.dst == mid))
    space = MetricSpaceGraph(n=grid.n, src=grid.src[keep], dst=grid.dst[keep],
                             w=grid.w[keep])
    assert agree(space) == (cut in (None, "backward"))


def permuted_path(order):
    """The path order[0] - order[1] - ... with unit lengths."""
    order = np.asarray(order)
    return build_graph(zip(order[:-1].tolist(), order[1:].tolist(),
                           [1.0] * (order.size - 1)), n=order.size)


@pytest.mark.parametrize("layout", ["zero_last", "falling", "shuffled"])
@pytest.mark.parametrize("cut", [False, True])
def test_long_path_with_unsorted_ids(layout, cut):
    # Ids that do not rise along a 100 001-point path move label 0 one
    # hop per round; the bounded rounds must hand over to the sweep.
    n = 100001
    if layout == "zero_last":
        order = np.r_[np.arange(1, n), 0]
    elif layout == "falling":
        order = np.r_[0, np.arange(n - 1, 0, -1)]
    else:
        order = np.random.default_rng(11).permutation(n)
    space = permuted_path(order)
    if cut:
        a, b = int(order[n // 2]), int(order[n // 2 + 1])
        keep = ~(((space.src == a) & (space.dst == b))
                 | ((space.src == b) & (space.dst == a)))
        space = MetricSpaceGraph(n=n, src=space.src[keep], dst=space.dst[keep],
                                 w=space.w[keep])
    start = time.perf_counter()
    assert is_connected(space) == (not cut)
    assert time.perf_counter() - start < 5.0
    assert reference_is_connected(space) == (not cut)
