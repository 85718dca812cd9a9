"""The edge-array slope kernel and the edge-array space against their
per-point and per-entry references.

`slope_field` must equal `testing.reference_slope_field` (the per-point
loop) bit for bit, values and infinity mask, on every seeded family
below, without a RuntimeWarning even where f(x) - f(y) overflows.
`build_graph` must raise, for the first bad entry in input order, the
class and message of the per-entry validation loop it replaced; the
expected pairs below are that loop's output. On seeded edge lists with
injected faults it must raise what `testing.reference_build_graph`
raises, or build the same four arrays bit for bit.
"""
import math
import random
import re

import numpy as np
import pytest

from slopekit import (
    ScalarField,
    build_graph,
    neighbors,
    sample_interval,
    slope_field,
)
from slopekit.errors import (
    DanglingEndpoint,
    DuplicateEdge,
    InvalidCount,
    NonPositiveLength,
    SelfLoopEdge,
)
from slopekit.io import load_graph_csv
from slopekit.testing import (
    random_connected_graph,
    random_dyadic_field,
    reference_build_graph,
    reference_slope_field,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def assert_same_slopes(space, f, cap=1e12):
    got = slope_field(space, f, cap=cap)
    want = reference_slope_field(space, f, cap=cap)
    assert np.array_equal(got.infinite, want.infinite)
    assert np.array_equal(got.values, want.values)
    assert got.values.tobytes() == want.values.tobytes()
    return got


def random_graph_with_isolated(rng, n_max=40):
    """A random graph on the first points, plus isolated points above
    its largest endpoint."""
    inner = random_connected_graph(rng, n_max=n_max)
    extra = rng.randint(1, 5)
    return build_graph(inner.edges, n=inner.n + extra)


def test_dyadic_random_graphs():
    rng = random.Random(101)
    for _ in range(200):
        space = random_connected_graph(rng, n_max=50)
        assert_same_slopes(space, random_dyadic_field(rng, space))


def test_non_dyadic_floats_and_lengths():
    rng = random.Random(102)
    for _ in range(100):
        base = random_connected_graph(rng, n_max=50)
        edges = [(u, v, rng.uniform(1e-3, 10.0)) for u, v, _ in base.edges]
        space = build_graph(edges, n=base.n)
        f = ScalarField(space, np.array([rng.gauss(0.0, 100.0)
                                         for _ in range(space.n)]))
        assert_same_slopes(space, f)


def test_isolated_points_get_zero():
    rng = random.Random(103)
    for _ in range(50):
        space = random_graph_with_isolated(rng)
        f = random_dyadic_field(rng, space)
        got = assert_same_slopes(space, f)
        top = max(max(u, v) for u, v, _ in space.edges)
        assert np.all(got.values[top + 1:] == 0.0)


def test_quotients_above_a_small_cap():
    rng = random.Random(104)
    capped = 0
    for _ in range(100):
        space = random_connected_graph(rng, n_max=50)
        f = random_dyadic_field(rng, space)
        got = assert_same_slopes(space, f, cap=rng.choice((0.25, 1.0, 3.0)))
        capped += got.any_infinite()
    assert capped >= 50


def test_slope_equal_to_the_cap_stays_finite():
    rng = random.Random(108)
    for _ in range(50):
        space = random_connected_graph(rng, n_max=50)
        f = random_dyadic_field(rng, space)
        slopes = reference_slope_field(space, f).values
        cap = float(rng.choice(slopes[slopes > 0.0]))
        got = assert_same_slopes(space, f, cap=cap)
        assert not got.infinite[slopes == cap].any()
        assert got.infinite[slopes > cap].all()


def test_values_near_the_float_limit():
    rng = random.Random(105)
    big = 1.7e308
    for _ in range(100):
        space = random_connected_graph(rng, n_max=30)
        vals = np.array([rng.choice((-big, big, 0.0, big * rng.uniform(-1.0, 1.0)))
                         for _ in range(space.n)])
        f = ScalarField(space, vals)
        for cap in (1e12, 1e300):
            assert_same_slopes(space, f, cap=cap)


def test_overflowing_drop_is_marked_infinite():
    space = build_graph([(0, 1, 1.0)])
    f = ScalarField(space, np.array([1.7e308, -1.7e308]))
    got = assert_same_slopes(space, f, cap=1e300)
    assert got.infinite.tolist() == [True, False]


def test_interval_grid():
    grid = sample_interval(-math.pi, math.pi, 2001)
    assert_same_slopes(grid, ScalarField(grid, np.sin(grid.coordinates)))


def test_edge_arrays_are_sorted_symmetric_csr():
    rng = random.Random(106)
    for _ in range(50):
        space = random_graph_with_isolated(rng)
        key = space.src * space.n + space.dst
        assert np.all(np.diff(key) > 0)
        pairs = set(zip(space.src.tolist(), space.dst.tolist()))
        assert all((y, x) in pairs for x, y in pairs)
        assert space.indptr[0] == 0 and space.indptr[-1] == space.src.size
        for x in range(space.n):
            lo, hi = space.indptr[x], space.indptr[x + 1]
            assert np.all(space.src[lo:hi] == x)
            assert np.diff(space.indptr)[x] == np.count_nonzero(space.src == x)


def test_lazy_views_match_the_input_edge_list():
    rng = random.Random(107)
    for _ in range(50):
        n = rng.randint(2, 30)
        keys = {(min(u, v), max(u, v)) for u, v in
                ((rng.randrange(n), rng.randrange(n)) for _ in range(2 * n))
                if u != v} | {(0, 1)}
        entries = [(u, v, rng.choice((0.25, 0.5, 1.0))) if rng.random() < 0.5
                   else (v, u, rng.choice((0.25, 0.5, 1.0))) for u, v in keys]
        rng.shuffle(entries)
        space = build_graph(entries, n=n)
        canonical = sorted((min(u, v), max(u, v), w) for u, v, w in entries)
        assert space.edges == tuple(canonical)
        for x in range(n):
            want = sorted((v if u == x else u, w) for u, v, w in canonical
                          if x in (u, v))
            assert neighbors(space, x) == tuple(want)
        assert all(type(a) is int and type(b) is int and type(w) is float
                   for a, b, w in space.edges)


OK = [(0, 1, 1.0), (1, 2, 0.5)]

BAD_ENTRIES = [
    (OK + [(-1, 2, 1.0), (3, 3, 1.0)], None,
     DanglingEndpoint, "negative endpoint in edge (-1, 2)"),
    (OK + [(2, -4, 1.0)], None,
     DanglingEndpoint, "negative endpoint in edge (2, -4)"),
    (OK + [(2, 2, 1.0)], None, SelfLoopEdge, "self-loop at point 2"),
    (OK + [(2, 3, math.nan)], None,
     NonPositiveLength, "edge (2, 3) has length nan"),
    (OK + [(2, 3, 0.0)], None,
     NonPositiveLength, "edge (2, 3) has length 0.0"),
    (OK + [(2, 3, -2.5)], None,
     NonPositiveLength, "edge (2, 3) has length -2.5"),
    (OK + [(2, 3, 1.0), (0, 1, 2.0)], None,
     DuplicateEdge, "edge (0, 1) appears more than once"),
    (OK + [(2, 3, 1.0), (2, 1, 1.0)], None,
     DuplicateEdge, "edge (1, 2) appears more than once"),
    (OK + [(2, 3)], None,
     ValueError, "edge entries must be (u, v, length), got (2, 3)"),
    (OK + [(2, 3, 1.0, 4)], None,
     ValueError, "edge entries must be (u, v, length), got (2, 3, 1.0, 4)"),
    (OK + [7], None, ValueError, "edge entries must be (u, v, length), got 7"),
    (OK + [("x", 3, 1.0)], None,
     ValueError, "invalid literal for int() with base 10: 'x'"),
    (OK + [(1, 1, 1.0), (2, 3)], None, SelfLoopEdge, "self-loop at point 1"),
    (OK + [(2, 3), (1, 1, 1.0)], None,
     ValueError, "edge entries must be (u, v, length), got (2, 3)"),
    ([(0.0, 1.0, 1.0), (1.0, 1.0, 1.0)], None,
     SelfLoopEdge, "self-loop at point 1"),
    ([("0", "1", "1.0"), ("1", "0", "2")], None,
     DuplicateEdge, "edge (0, 1) appears more than once"),
    (OK, 2, DanglingEndpoint, "edge endpoint 2 outside [0, 2)"),
    (OK + [(0, 1, 1.0), (0, 9, 1.0)], 3,
     DuplicateEdge, "edge (0, 1) appears more than once"),
    # keyed by 2**32 + 1, (2**32, 1) and (1, 0) would wrap to one int64 key
    ([(0, 1, 1.0), (4294967296, 1, 1.0)], 5,
     DanglingEndpoint, "edge endpoint 4294967296 outside [0, 5)"),
    # a self-loop is named before its length
    (OK + [(3, 3, -1.0)], None, SelfLoopEdge, "self-loop at point 3"),
]


@pytest.mark.parametrize("edges,n,cls,message", BAD_ENTRIES)
def test_first_bad_entry_raises_as_the_entry_loop_did(edges, n, cls, message):
    with pytest.raises(cls) as info:
        build_graph(edges, n=n)
    assert type(info.value) is cls
    assert str(info.value) == message


def test_narrow_integer_endpoints_build_the_same_space():
    # int32 endpoints: src * n + dst would overflow int32 at this n
    entries = [(0, 50000, 1.0), (1, 60000, 2.0), (0, 1, 0.5)]
    narrow = build_graph([(np.int32(u), np.int32(v), w) for u, v, w in entries])
    wide = build_graph(entries)
    assert narrow.edges == wide.edges
    assert np.array_equal(narrow.src, wide.src)
    assert np.array_equal(narrow.dst, wide.dst)


def test_generator_and_tuple_inputs():
    gen = ((i, i + 1, 1.0) for i in range(4))
    assert build_graph(gen).edges == build_graph(tuple(
        (i, i + 1, 1.0) for i in range(4))).edges


TOO_MANY = "a space has at most 3037000499 points, got {}"


def test_point_counts_beyond_the_key_range_are_invalid(tmp_path):
    # Each would ask for an array of n + 1 offsets; none is allocated.
    with pytest.raises(InvalidCount, match=re.escape(TOO_MANY.format(4294967297))):
        build_graph([(0, 1, 1.0), (4294967296, 1, 1.0)])
    with pytest.raises(InvalidCount, match=re.escape(TOO_MANY.format(2**62))):
        build_graph([(0, 1, 1.0)], n=2**62)
    with pytest.raises(InvalidCount, match=re.escape(TOO_MANY.format(2**62))):
        sample_interval(0.0, 1.0, 2**62)
    path = tmp_path / "space.csv"
    path.write_text("u,v,length\n0,4294967296,1.0\n")
    with pytest.raises(InvalidCount, match=re.escape(TOO_MANY.format(4294967297))):
        load_graph_csv(path)
    # a bad entry still comes first
    with pytest.raises(SelfLoopEdge):
        build_graph([(4294967296, 1, 1.0), (2, 2, 1.0)])


def outcome(build):
    """("ok", the four edge arrays) or (error class, message)."""
    try:
        out = build()
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(out, tuple):
        return "ok", out
    return "ok", (out.src, out.dst, out.w, out.indptr)


FAULTS = ("negative", "self-loop", "length", "duplicate", "unconvertible", "huge")


def fault(rng, kind, n, edges):
    """One bad entry of the given kind for the valid `edges` on n points."""
    a, b = rng.randrange(n + 1), rng.randrange(n + 1)
    if kind == "negative":
        return -rng.randint(1, 3), b, 1.0
    if kind == "self-loop":
        return a, a, rng.choice((1.0, 0.0))
    if kind == "length":
        return a, a + 1, rng.choice((0.0, -1.0, math.nan, math.inf))
    if kind == "duplicate" and edges:
        u, v, _ = rng.choice(edges)
        return rng.choice(((u, v, 1.0), (v, u, 2.0)))
    if kind == "unconvertible":
        return rng.choice(((a, b), (a, b, 1.0, 1), 7, ("x", b, 1.0), (a, b, "abc"),
                           (a, b, None), (a, 2**64, 1.0), (-2**63 - 1, b, 1.0)))
    return a, 4294967296, 1.0  # "huge", or a duplicate of nothing


def faulty_edge_list(rng):
    """A seeded edge list on at most 30 points, with 1-2 faults of each
    of some kinds at random positions (or none at all), and an n to
    pass: None, at least the point count, at most the largest endpoint,
    or beyond the key range."""
    n = rng.randint(1, 30)
    keys = sorted({(min(a, b), max(a, b)) for a, b in
                   ((rng.randrange(n), rng.randrange(n)) for _ in range(2 * n))
                   if a != b})
    entries = [rng.choice(((a, b), (b, a))) + (rng.choice((0.25, 0.5, 1.0, 2.0, 3)),)
               for a, b in keys]
    rng.shuffle(entries)
    top = max((b for _, b in keys), default=0)
    if rng.random() < 0.6:
        edges = list(entries)
        for kind in rng.sample(FAULTS, rng.randint(1, len(FAULTS))):
            for _ in range(rng.randint(1, 2)):
                entries.insert(rng.randint(0, len(entries)),
                               fault(rng, kind, n, edges))
    if rng.random() < 0.2:  # float first endpoints: the per-entry conversion
        entries = [(float(e[0]), *e[1:]) if type(e) is tuple and len(e) == 3
                   and type(e[0]) is int and abs(e[0]) < 2**53 else e for e in entries]
    return entries, rng.choice((None, None, n + rng.randint(0, 3), rng.randint(0, top),
                                2**62))


def test_build_matches_the_entry_loop_on_faulty_edge_lists():
    rng = random.Random(109)
    tally = {}
    for _ in range(500):
        entries, n = faulty_edge_list(rng)
        want = outcome(lambda: reference_build_graph(entries, n))
        got = outcome(lambda: build_graph(entries, n=n))
        assert got[0] is want[0], (entries, n, got, want)
        if want[0] == "ok":
            for a, b in zip(got[1], want[1]):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        else:
            assert got[1] == want[1], (entries, n)
        kind = want[0] if want[0] == "ok" else want[0].__name__
        tally[kind] = tally.get(kind, 0) + 1
    assert tally["ok"] >= 100
    assert all(tally.get(name, 0) >= 10 for name in (
        "DanglingEndpoint", "SelfLoopEdge", "NonPositiveLength", "DuplicateEdge",
        "ValueError", "OverflowError", "InvalidCount"))
