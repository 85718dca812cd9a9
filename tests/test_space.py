import math
import random
import re
import warnings

import numpy as np
import pytest

from conftest import unit_path
from slopekit import (
    MetricSpaceGraph,
    ScalarField,
    build_graph,
    critical_set,
    delta_slope_profile,
    descent_path,
    distances_from,
    is_connected,
    local_slope,
    neighbors,
    sample_interval,
    slope_field,
)
from slopekit.errors import (
    DanglingEndpoint,
    DegenerateInterval,
    DuplicateEdge,
    EmptyEdgeList,
    FileFormatError,
    InvalidPoint,
    NonPositiveLength,
    SelfLoopEdge,
    TooFewPoints,
)
from slopekit.io import load_coordinates_csv
from slopekit.testing import random_connected_graph, random_dyadic_field


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


def ball(space, x, r):
    """The (point, distance) pairs of the points y != x with
    d(x, y) <= r, by `distances_from` plus a mask."""
    d = distances_from(space, x)
    ys = ((d > 0.0) & (d <= r)).nonzero()[0]
    return tuple(zip(ys.tolist(), d[ys].tolist()))


def test_single_edge_space():
    space = build_graph([(0, 1, 1.0)])
    assert space.n == 2
    assert neighbors(space, 0) == ((1, 1.0),)
    assert neighbors(space, 1) == ((0, 1.0),)


def test_single_isolated_point():
    space = build_graph([], n=1)
    assert space.n == 1
    assert neighbors(space, 0) == ()


def test_closure_mode_path_distance():
    # Dijkstra oracle on the 3-node path: d(0, 2) = 1 + 1
    space = build_graph([(0, 1, 1.0), (1, 2, 1.0)])
    d = distances_from(space, 0)
    assert d[2] == 2.0


def test_distance_beyond_the_float_range_is_inf():
    space = build_graph([(0, 1, 1e308), (1, 2, 1e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert distances_from(space, 0).tolist() == [0.0, 1e308, math.inf]
        assert is_connected(space)


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
                back = dict(neighbors(space, y))
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
    with pytest.raises(TooFewPoints, match="at least one point"):
        build_graph([], n=0)


@pytest.mark.parametrize("kwargs", [
    # one way only, and a reverse edge of another length
    dict(n=3, src=[0, 1], dst=[1, 2], w=[1.0, 1.0]),
    dict(n=2, src=[0, 1], dst=[1, 0], w=[1.0, 2.0]),
    # a valid layout is refused too
    dict(n=2, src=[0, 1], dst=[1, 0], w=[1.0, 1.0]),
])
def test_raw_constructor_is_a_type_error(kwargs):
    # Every space is the symmetric closure of an undirected edge list:
    # no direct call builds one.
    message = "build_graph, io.load_graph_csv or sample_interval"
    with pytest.raises(TypeError, match=re.escape(message)):
        MetricSpaceGraph(**kwargs)
    with pytest.raises(TypeError, match=re.escape(message)):
        MetricSpaceGraph(*kwargs.values())


def test_infinite_edge_length_rejected():
    with pytest.raises(NonPositiveLength, match=r"edge \(1, 2\) has length inf"):
        build_graph([(0, 1, 1.0), (1, 2, math.inf)])


@pytest.mark.parametrize("coords,bad", [
    ([0.0, math.nan, 2.0], 1),
    ([0.0, 1.0, math.inf], 2),
    ([[0.0, 0.0], [1.0, -math.inf], [2.0, 0.0]], 1),
])
def test_non_finite_coordinates_rejected(tmp_path, coords, bad):
    # Spaces take no coordinates; their one reader names the bad row,
    # in either column.
    rows = [[p, *np.atleast_1d(c).tolist()] for p, c in enumerate(coords)]
    header = "point,x,y" if len(rows[0]) == 3 else "point,x"
    path = tmp_path / "c.csv"
    path.write_text("\n".join([header, *(",".join(map(repr, r)) for r in rows)]) + "\n")
    with pytest.raises(FileFormatError, match=f"c.csv:{bad + 2}: non-finite coordinate"):
        load_coordinates_csv(path)


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
    assert [y for y, _ in nb] == [4, 6]
    assert all(abs(d - 0.1) < 1e-15 for _, d in nb)


def test_neighbors_radius_grid():
    grid = sample_interval(0.0, 1.0, 101)
    h = 0.01
    nb = ball(grid, 50, 2.5 * h)
    assert [y for y, _ in nb] == [48, 49, 51, 52]


def test_triangle_legs_give_path_distances():
    # A 3-4-5 right triangle with only its legs as edges: the path from
    # 0 to 2 is 7 long, and no straight line of length 5 enters any query.
    space = build_graph([(0, 1, 3.0), (1, 2, 4.0)])
    assert distances_from(space, 0).tolist() == [0.0, 3.0, 7.0]
    assert distances_from(space, 2).tolist() == [7.0, 4.0, 0.0]
    assert ball(space, 0, 5.0) == ((1, 3.0),)
    assert ball(space, 0, 7.0) == ((1, 3.0), (2, 7.0))
    f = ScalarField(space, np.array([10.0, 7.0, 0.0]))
    entries = delta_slope_profile(space, f, 0, [7.0, 5.0, 1.0])
    assert [(e.slope, e.empty_ball) for e in entries] == \
        [(10.0 / 7.0, False), (1.0, False), (0.0, True)]


def uneven_grids():
    """Grids, the `gallery fig2` grid among them, where the rounded
    sample positions of some adjacent points lie more than the spacing
    h apart: a ball must not be measured between them."""
    return [sample_interval(0.0, 1.0, 11), sample_interval(-math.pi, math.pi, 1005),
            sample_interval(-1.0, 3.0, 97)]


def test_grid_ball_of_one_spacing_is_the_adjacent_points():
    for grid in uneven_grids():
        h = grid.w[0]
        for x in range(grid.n):
            assert ball(grid, x, h) == neighbors(grid, x), x


def test_profile_at_the_longest_edge_bounds_the_slope():
    # Every adjacent point is at most its edge length away, so a ball of
    # a radius at least the longest edge at x sees every edge quotient.
    rng = random.Random("one-metric")
    spaces = uneven_grids()
    for _ in range(30):
        tree = random_connected_graph(rng, n_max=30)
        spaces.append(build_graph(tree.edges, n=tree.n + rng.randint(0, 2)))
    for space in spaces:
        fields = [random_dyadic_field(rng, space)]
        if space.coordinates is not None:
            fields.append(ScalarField(space, -space.coordinates))
        for f in fields:
            slopes = slope_field(space, f)
            for x in range(space.n):
                lengths = space.w[space.indptr[x]:space.indptr[x + 1]]
                if not lengths.size:
                    continue
                longest = float(lengths.max())
                for entry in delta_slope_profile(space, f, x, [2.0 * longest, longest]):
                    assert not entry.empty_ball
                    assert entry.slope >= slopes[x], (x, entry)


def test_neighbors_radius_monotone():
    grid = sample_interval(0.0, 1.0, 101)
    rng = random.Random(11)
    for _ in range(20):
        x = rng.randrange(101)
        r1 = rng.uniform(0.005, 0.2)
        r2 = r1 + rng.uniform(0.0, 0.2)
        small = {y for y, _ in ball(grid, x, r1)}
        big = {y for y, _ in ball(grid, x, r2)}
        assert small <= big


def test_neighbors_radius_matches_point_scan():
    # Power-of-two lengths add exactly, so `distances_from` equals the
    # oracle bit for bit, inf at the isolated points and from them. A
    # ball's members are then every y != x with d(x, y) <= r, in
    # increasing order; unreached points are never members.
    rng = random.Random("radius-members")
    for _ in range(60):
        tree = random_connected_graph(rng, n_max=30)
        space = build_graph(tree.edges, n=tree.n + rng.randint(0, 2))
        all_pairs = floyd_warshall(space)
        for x in range(space.n):
            assert distances_from(space, x).tolist() == all_pairs[x].tolist(), x
        for x in rng.sample(range(space.n), min(space.n, 4)):
            r = rng.choice([0.25, 1.0, 2.5, 6.0])
            dist = all_pairs[x]
            expected = tuple((y, float(dist[y])) for y in range(space.n)
                             if y != x and 0.0 < dist[y] <= r)
            assert ball(space, x, r) == expected


def test_neighbors_radius_closure_mode():
    space = build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    nb = ball(space, 0, 2.0)
    assert [y for y, _ in nb] == [1, 2]


def test_radius_queries_without_coordinates_use_path_distances():
    # 0 -1- 1 -2- 2, plus a chord 0 -4- 2 that the path via 1 beats.
    space = build_graph([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)], n=4)
    assert distances_from(space, 0).tolist() == [0.0, 1.0, 3.0, math.inf]
    assert ball(space, 0, 1.5) == ((1, 1.0),)
    assert ball(space, 0, 3.0) == ((1, 1.0), (2, 3.0))
    f = ScalarField(space, [6.0, 5.0, 0.0, -100.0])
    profile = delta_slope_profile(space, f, 0, [5.0, 3.0, 1.0, 0.5])
    assert [(e.slope, e.empty_ball) for e in profile] == [
        (2.0, False), (2.0, False), (1.0, False), (0.0, True)]


def test_neighbors_takes_no_radius():
    # A ball is `distances_from` plus a mask (`ball`), not a neighbors query.
    space = unit_path(3)
    with pytest.raises(TypeError):
        neighbors(space, 0, radius=1.0)
    with pytest.raises(TypeError):
        neighbors(space, 0, 1.0)


def test_queries_store_nothing_on_the_space():
    rng = random.Random(5)
    for space in (sample_interval(0.0, 1.0, 9),
                  random_connected_graph(rng, n_max=20)):
        before = dict(vars(space))
        f = random_dyadic_field(rng, space)
        g = ScalarField(space, 0.5 * f.values)
        crit = critical_set(slope_field(space, f), tol=0.0)
        assert len(space.edges) == space.src.size // 2
        for x in range(space.n):
            neighbors(space, x)
            local_slope(space, f, x)
            distances_from(space, x)
            if not crit.mask[x]:
                descent_path(space, f, g, x, crit)
        after = vars(space)
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)


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
    assert neighbors(space, 2) == ()
