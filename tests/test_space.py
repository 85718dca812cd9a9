import math
import random
import re

import numpy as np
import pytest

from conftest import unit_path
from slopekit import (
    SHORTEST_PATH_CLOSURE,
    build_graph,
    distances_from,
    is_connected,
    neighbors,
    sample_interval,
)
from slopekit.errors import (
    DanglingEndpoint,
    DegenerateInterval,
    DuplicateEdge,
    EmptyEdgeList,
    InvalidPoint,
    NoMetricClosure,
    NonFiniteCoordinate,
    NonPositiveLength,
    SelfLoopEdge,
    TooFewPoints,
)
from slopekit.testing import random_connected_graph


def floyd_warshall(space):
    """Independent all-pairs oracle for the shortest-path metric."""
    n = space.n
    d = np.full((n, n), math.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in space.edges:
        d[u, v] = min(d[u, v], w)
        d[v, u] = min(d[v, u], w)
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def test_single_edge_space():
    space = build_graph([(0, 1, 1.0)])
    assert space.n == 2
    nb = neighbors(space, 0)
    assert nb.members == ((1, 1.0),)
    nb = neighbors(space, 1)
    assert nb.members == ((0, 1.0),)


def test_single_isolated_point():
    space = build_graph([], n=1)
    assert space.n == 1
    assert neighbors(space, 0).members == ()
    assert space.is_isolated(0)


def test_closure_mode_path_distance():
    # Dijkstra oracle on the 3-node path: d(0, 2) = 1 + 1
    space = build_graph([(0, 1, 1.0), (1, 2, 1.0)],
                        metric_mode=SHORTEST_PATH_CLOSURE)
    d = distances_from(space, 0)
    assert d[2] == 2.0


def test_closure_matches_floyd_oracle_and_triangle_inequality():
    rng = random.Random(7)
    for _ in range(20):
        space = random_connected_graph(rng, n_max=30)
        oracle = floyd_warshall(space)
        dist = np.array([distances_from(space, x) for x in range(space.n)])
        assert np.allclose(dist, oracle, rtol=0, atol=1e-12)
        # exhaustive triples
        n = space.n
        for y in range(n):
            via = dist[:, y:y + 1] + dist[y:y + 1, :]
            assert np.all(dist <= via + 1e-12)


def test_symmetry_of_adjacency():
    rng = random.Random(3)
    for _ in range(20):
        space = random_connected_graph(rng, n_max=20)
        for x in range(space.n):
            for y, d in neighbors(space, x):
                assert d > 0
                back = dict(neighbors(space, y).members)
                assert back[x] == d


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge):
        build_graph([(0, 1, 1.0), (0, 1, 2.0)])


def test_flipped_duplicate_rejected():
    with pytest.raises(DuplicateEdge):
        build_graph([(0, 1, 1.0), (1, 0, 1.0)])


def test_bad_edges_rejected():
    with pytest.raises(NonPositiveLength):
        build_graph([(0, 1, 0.0)])
    with pytest.raises(NonPositiveLength):
        build_graph([(0, 1, -2.0)])
    with pytest.raises(NonPositiveLength):
        build_graph([(0, 1, math.nan)])
    with pytest.raises(SelfLoopEdge):
        build_graph([(1, 1, 1.0)])
    with pytest.raises(DanglingEndpoint):
        build_graph([(0, 3, 1.0)], n=3)
    with pytest.raises(DanglingEndpoint):
        build_graph([(-1, 0, 1.0)])
    with pytest.raises(EmptyEdgeList):
        build_graph([], n=2)
    with pytest.raises(EmptyEdgeList):
        build_graph([])


def test_infinite_edge_length_rejected():
    with pytest.raises(NonPositiveLength, match=r"edge \(1, 2\) has length inf"):
        build_graph([(0, 1, 1.0), (1, 2, math.inf)])


@pytest.mark.parametrize("coords,bad", [
    ([0.0, math.nan, 2.0], 1),
    ([0.0, 1.0, math.inf], 2),
    ([[0.0, 0.0], [1.0, -math.inf], [2.0, 0.0]], 1),
])
def test_non_finite_coordinates_rejected(coords, bad):
    # A NaN coordinate would drop the point out of every radius ball.
    with pytest.raises(NonFiniteCoordinate, match=f"at point {bad}$"):
        build_graph([(0, 1, 1.0), (1, 2, 1.0)], coordinates=coords)


def test_sample_interval_two_points():
    grid = sample_interval(0.0, 1.0, 2)
    assert grid.n == 2
    assert grid.edges == ((0, 1, 1.0),)
    assert grid.coordinates[0] == 0.0 and grid.coordinates[1] == 1.0


def test_sample_interval_spacing():
    grid = sample_interval(-5.0, 5.0, 10001)
    h = grid.edges[0][2]
    assert abs(h - 0.001) < 1e-15
    assert grid.coordinates[0] == -5.0
    assert grid.coordinates[-1] == 5.0


def test_sample_interval_symmetric_grid_hits_special_points():
    # odd point count, (n - 1) divisible by 4: contains 0 and +-pi/2
    n = 1005
    grid = sample_interval(-math.pi, math.pi, n)
    ts = grid.coordinates
    mid = (n - 1) // 2
    quarter = (n - 1) // 4
    assert abs(ts[mid]) < 1e-12
    assert abs(ts[mid + quarter] - math.pi / 2) < 1e-12
    assert abs(ts[mid - quarter] + math.pi / 2) < 1e-12


def test_sample_interval_errors():
    with pytest.raises(DegenerateInterval):
        sample_interval(1.0, 1.0, 5)
    with pytest.raises(DegenerateInterval):
        sample_interval(2.0, 1.0, 5)
    with pytest.raises(TooFewPoints):
        sample_interval(0.0, 1.0, 1)


@pytest.mark.parametrize("a,b,n", [
    (-1e308, 1e308, 3),        # b - a overflows to +inf
    (-math.inf, 0.0, 3),
    (0.0, 5e-324, 3),          # h underflows to 0
])
def test_sample_interval_rejects_unrepresentable_spacing(a, b, n):
    # Raised before np.linspace, so no RuntimeWarning (an error here).
    with pytest.raises(DegenerateInterval, match=re.escape(f"a={a}, b={b}")):
        sample_interval(a, b, n)


def test_neighbors_interior_grid_point():
    grid = sample_interval(0.0, 1.0, 11)
    nb = neighbors(grid, 5)
    assert nb.point_ids() == (4, 6)
    assert all(abs(d - 0.1) < 1e-15 for _, d in nb)


def test_neighbors_radius_grid():
    grid = sample_interval(0.0, 1.0, 101)
    h = 0.01
    nb = neighbors(grid, 50, radius=2.5 * h)
    assert nb.point_ids() == (48, 49, 51, 52)


def test_neighbors_radius_monotone():
    grid = sample_interval(0.0, 1.0, 101)
    rng = random.Random(11)
    for _ in range(20):
        x = rng.randrange(101)
        r1 = rng.uniform(0.005, 0.2)
        r2 = r1 + rng.uniform(0.0, 0.2)
        small = set(neighbors(grid, x, radius=r1).point_ids())
        big = set(neighbors(grid, x, radius=r2).point_ids())
        assert small <= big


def test_neighbors_radius_closure_mode():
    space = build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
                        metric_mode=SHORTEST_PATH_CLOSURE)
    nb = neighbors(space, 0, radius=2.0)
    assert nb.point_ids() == (1, 2)


def test_neighbors_radius_needs_metric():
    space = build_graph([(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(NoMetricClosure):
        neighbors(space, 0, radius=1.5)


def test_invalid_point_rejected():
    space = unit_path(3)
    with pytest.raises(InvalidPoint):
        neighbors(space, 3)
    with pytest.raises(InvalidPoint):
        neighbors(space, -1)


def test_is_connected():
    assert is_connected(unit_path(5))
    assert is_connected(build_graph([], n=1))
    assert not is_connected(build_graph([(0, 1, 1.0), (2, 3, 1.0)]))


def test_isolated_point_inside_larger_space():
    space = build_graph([(0, 1, 1.0)], n=3)
    assert space.is_isolated(2)
    assert neighbors(space, 2).members == ()
