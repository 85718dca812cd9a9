"""Finite metric spaces: weighted graphs and uniform interval samplings.

A space is a finite point set {0, ..., n-1} with symmetric positive edge
lengths. Distances beyond adjacent pairs are defined only in
shortest-path-closure mode or through stored point coordinates; slope
computations themselves only ever compare adjacent points.

Storage is one set of directed edge arrays `src`, `dst`, `w`: every
undirected edge {u, v} appears twice, as (u, v) and as (v, u), and the
entries are sorted by (src, dst). The CSR offsets `indptr` then give
each point's edges as one contiguous slice, `indptr[x]:indptr[x + 1]`,
with its adjacent points in increasing order. Array passes (the slope
kernel, validation, sweeps) read these arrays directly. The tuple views
that code iterating in Python wants, `edges` (each undirected edge once,
as (u, v, length) with u < v, sorted) and the per-point adjacency
tuples, are built from the arrays on first use and cached.

The raw `MetricSpaceGraph` constructor takes the directed arrays as
stored and checks none of the layout above; `build_graph` and
`sample_interval` validate their input and produce it.

Spaces are immutable after construction and every query is pure, so
they are safe to share across threads (two threads racing on a lazy
view can at worst build the same tuples twice). Because the point set
is finite, every sublevel set of every field on a space is compact in
any topology, which is why minimizers (and hence critical points)
always exist here without any extra coercivity hypothesis.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
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

PointId = int

EDGE_LOCAL = "edge-local"
SHORTEST_PATH_CLOSURE = "shortest-path-closure"
_METRIC_MODES = (EDGE_LOCAL, SHORTEST_PATH_CLOSURE)


def _frozen(a, dtype) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(eq=False)
class MetricSpaceGraph:
    """A finite point set with symmetric positive pairwise edge lengths.

    Build instances with `build_graph` or `sample_interval`; the raw
    constructor assumes already-validated directed edge arrays: both
    orientations of every edge, sorted by (src, dst), no self-loops,
    finite positive lengths. It checks only that coordinates are finite.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    coordinates: np.ndarray | None = None
    metric_mode: str = EDGE_LOCAL
    indptr: np.ndarray = field(init=False, repr=False)
    _dist_cache: dict[int, np.ndarray] = field(
        init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if self.metric_mode not in _METRIC_MODES:
            raise ValueError(f"unknown metric mode {self.metric_mode!r}")
        if self.n < 1:
            raise ValueError("a space needs at least one point")
        self.src = _frozen(self.src, np.intp)
        self.dst = _frozen(self.dst, np.intp)
        self.w = _frozen(self.w, float)
        self.indptr = _frozen(
            np.searchsorted(self.src, np.arange(self.n + 1)), np.intp)
        if self.coordinates is not None:
            coords = np.array(self.coordinates, dtype=float)
            if coords.shape[0] != self.n:
                raise ValueError(
                    f"coordinates cover {coords.shape[0]} points, space has {self.n}")
            bad = np.flatnonzero(~np.isfinite(coords.reshape(self.n, -1)).all(axis=1))
            if bad.size:
                raise NonFiniteCoordinate(f"non-finite coordinate at point {bad[0]}")
            coords.setflags(write=False)
            self.coordinates = coords

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """Each undirected edge once, as (u, v, length) with u < v, sorted."""
        up = self.src < self.dst
        return tuple(zip(self.src[up].tolist(), self.dst[up].tolist(),
                         self.w[up].tolist()))

    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        pairs = list(zip(self.dst.tolist(), self.w.tolist()))
        ends = self.indptr.tolist()
        return tuple(tuple(pairs[a:b]) for a, b in zip(ends, ends[1:]))

    def check_point(self, x: PointId) -> None:
        if not 0 <= x < self.n:
            raise InvalidPoint(f"point {x} outside [0, {self.n})")

    def adjacency(self, x: PointId) -> tuple[tuple[int, float], ...]:
        """Adjacent points of x with edge lengths, sorted by point id."""
        self.check_point(x)
        return self._adjacency[x]

    def degree(self, x: PointId) -> int:
        self.check_point(x)
        return int(self.indptr[x + 1] - self.indptr[x])

    def is_isolated(self, x: PointId) -> bool:
        return self.degree(x) == 0


@dataclass(frozen=True)
class Neighborhood:
    """Points near a center, each with its distance to the center.

    The center itself is never a member and all recorded distances are
    strictly positive.
    """

    center: PointId
    members: tuple[tuple[int, float], ...]

    def point_ids(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _symmetric(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray,
               coordinates, metric_mode: str) -> MetricSpaceGraph:
    """The space whose undirected edges are the validated (u, v, w)."""
    src = np.concatenate((u, v))
    dst = np.concatenate((v, u))
    # Keys are unique (no duplicate edges) and src * n + dst < n**2
    # fits int64 for any n whose indptr fits in memory.
    order = np.argsort(src * n + dst)
    return MetricSpaceGraph(n=n, src=src[order], dst=dst[order],
                            w=np.concatenate((w, w))[order],
                            coordinates=coordinates, metric_mode=metric_mode)


def _edge_columns(items):
    """Endpoint and length columns of an edge list, converted as
    int(u), int(v), float(length).

    Returns (u, v, w, error): the columns of the longest prefix of
    entries that convert, and the exception for the first entry that
    does not (None when all do); an endpoint outside the int64 range
    does not convert. Lists of (int, int, number) triples, which is
    what the loaders and generators produce, convert in one array pass;
    anything else goes entry by entry.
    """
    try:
        if set(map(len, items)) == {3}:
            u, v, w = (np.array(c) for c in zip(*items))
            if u.dtype.kind == v.dtype.kind == "i" and w.dtype.kind in "if":
                return (u.astype(np.intp, copy=False), v.astype(np.intp, copy=False),
                        w.astype(float, copy=False), None)
    except TypeError:  # an entry without len()
        pass
    u = np.empty(len(items), dtype=np.intp)
    v = np.empty(len(items), dtype=np.intp)
    w = np.empty(len(items))
    k = 0
    for item in items:
        try:
            a, b, c = item
        except (TypeError, ValueError):
            return u[:k], v[:k], w[:k], ValueError(
                f"edge entries must be (u, v, length), got {item!r}")
        try:
            u[k], v[k], w[k] = int(a), int(b), float(c)
        except (TypeError, ValueError, OverflowError) as exc:
            return u[:k], v[:k], w[:k], exc
        k += 1
    return u, v, w, None


def _check_edges(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
    """Raise for the first entry, in input order, that is not a valid edge.

    Per entry the checks run in a fixed order: negative endpoint,
    self-loop, length not finite and > 0 (NaN included), then a
    duplicate of an earlier entry in either orientation. Duplicates are
    found by a stable sort on the (min, max) keys, so within a run of
    equal keys every entry after the first in input order is the
    duplicate.
    """
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))
    repeat = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
    dup = np.zeros(u.size, dtype=bool)
    dup[order[1:][repeat]] = True
    bad = np.flatnonzero((lo < 0) | (u == v) | ~((w > 0.0) & (w < math.inf)) | dup)
    if bad.size == 0:
        return
    i = int(bad[0])
    a, b, length = int(u[i]), int(v[i]), float(w[i])
    if a < 0 or b < 0:
        raise DanglingEndpoint(f"negative endpoint in edge ({a}, {b})")
    if a == b:
        raise SelfLoopEdge(f"self-loop at point {a}")
    if not 0.0 < length < math.inf:
        raise NonPositiveLength(f"edge ({a}, {b}) has length {length}")
    raise DuplicateEdge(f"edge {(min(a, b), max(a, b))} appears more than once")


def build_graph(edge_list, n: int | None = None,
                metric_mode: str = EDGE_LOCAL,
                coordinates=None) -> MetricSpaceGraph:
    """Construct a space from an undirected edge list.

    Each (u, v, length) entry is one undirected edge; the symmetric
    closure is implied, and a pair appearing twice (in either
    orientation) is rejected, and every length must be finite and > 0.
    `n` defaults to 1 + the largest endpoint;
    pass it explicitly to create isolated points or a single-point space.
    Entries are checked in input order and the first bad one raises.
    """
    items = edge_list if isinstance(edge_list, (list, tuple)) else list(edge_list)
    u, v, w, error = _edge_columns(items)
    _check_edges(u, v, w)
    if error is not None:
        raise error
    max_endpoint = int(max(u.max(), v.max())) if u.size else -1
    if n is None:
        if not u.size:
            raise EmptyEdgeList("cannot infer the point count from an empty edge list")
        n = max_endpoint + 1
    else:
        n = int(n)
        if n < 1:
            raise ValueError("a space needs at least one point")
        if max_endpoint >= n:
            raise DanglingEndpoint(
                f"edge endpoint {max_endpoint} outside [0, {n})")
        if not u.size and n > 1:
            raise EmptyEdgeList(f"no edges given for a {n}-point space")
    return _symmetric(n, u, v, w, coordinates, metric_mode)


def sample_interval(a: float, b: float, n: int,
                    metric_mode: str = EDGE_LOCAL) -> MetricSpaceGraph:
    """Sample [a, b] at n uniformly spaced points.

    Consecutive samples are joined by edges of length h = (b-a)/(n-1)
    and the sample coordinates are stored on the space.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise DegenerateInterval(f"need a < b, got a={a}, b={b}")
    n = int(n)
    if n < 2:
        raise TooFewPoints(f"need at least 2 sample points, got {n}")
    h = (b - a) / (n - 1)
    left = np.arange(n - 1)
    return _symmetric(n, left, left + 1, np.full(n - 1, h),
                      np.linspace(a, b, n), metric_mode)


def distances_from(space: MetricSpaceGraph, x: PointId) -> np.ndarray:
    """Single-source shortest-path distances along edges.

    Unreachable points get math.inf. Results are cached on the space.
    """
    space.check_point(x)
    cached = space._dist_cache.get(x)
    if cached is not None:
        return cached
    dist = np.full(space.n, math.inf)
    dist[x] = 0.0
    done = np.zeros(space.n, dtype=bool)
    heap: list[tuple[float, int]] = [(0.0, x)]
    while heap:
        dv, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for y, w in space._adjacency[v]:
            nd = dv + w
            if nd < dist[y]:
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    dist.setflags(write=False)
    space._dist_cache[x] = dist
    return dist


def metric_distances(space: MetricSpaceGraph, x: PointId) -> np.ndarray:
    """Distances from x to every point under the space's metric mode.

    Closure mode uses shortest-path distances; otherwise stored
    coordinates define the (Euclidean) metric. Without either there is
    no notion of distance beyond adjacency.
    """
    if space.metric_mode == SHORTEST_PATH_CLOSURE:
        return distances_from(space, x)
    if space.coordinates is not None:
        space.check_point(x)
        diff = space.coordinates - space.coordinates[x]
        if diff.ndim == 1:
            return np.abs(diff)
        return np.sqrt(np.sum(diff * diff, axis=1))
    raise NoMetricClosure(
        "radius queries need coordinates or shortest-path-closure mode")


def neighbors(space: MetricSpaceGraph, x: PointId,
              radius: float | None = None) -> Neighborhood:
    """Adjacent points of x, or every point within `radius` of x.

    Without a radius the members are the graph-adjacent points with
    their edge lengths. With a radius the members are all points y != x
    with 0 < d(x, y) <= radius under the space's metric mode.
    """
    space.check_point(x)
    if radius is None:
        return Neighborhood(center=x, members=space._adjacency[x])
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    dist = metric_distances(space, x)
    members = tuple((y, float(dist[y])) for y in range(space.n)
                    if y != x and 0.0 < dist[y] <= radius)
    return Neighborhood(center=x, members=members)


def is_connected(space: MetricSpaceGraph) -> bool:
    if space.n <= 1:
        return True
    ends = space.indptr.tolist()
    dst = space.dst.tolist()
    seen = [False] * space.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for y in dst[ends[v]:ends[v + 1]]:
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == space.n
