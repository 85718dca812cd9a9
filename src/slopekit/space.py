"""Finite metric spaces: weighted graphs and uniform interval samplings.

A space is a finite point set {0, ..., n-1} with symmetric positive edge
lengths. Slope computations only ever compare adjacent points. Beyond
adjacent pairs, the distance between two points is the Euclidean
distance between their stored coordinates when the space has
coordinates, and otherwise the shortest-path distance along edges
(`metric_distances`).

A space stores its point count `n`, its directed edge arrays `src`,
`dst`, `w`, their CSR offsets `indptr` and its optional coordinates,
and nothing else. Every undirected edge {u, v} appears twice in the
edge arrays, as (u, v) and as (v, u), and the entries are sorted by
(src, dst). The offsets `indptr` then give each point's edges as one
contiguous slice, `indptr[x]:indptr[x + 1]`, with its adjacent points
in increasing order. Array passes (the slope kernel, validation,
sweeps) read these arrays directly; per-point code reads one slice at
a time, and `edges` (each undirected edge once, as (u, v, length) with
u < v, sorted) is built from the arrays on each access.

The raw `MetricSpaceGraph` constructor takes the directed arrays as
stored and checks of the layout above only that the arrays have one
length and their endpoints lie in [0, n); `build_graph` and
`sample_interval` validate their input by array passes and lay it out
by one sort, which also finds duplicate edges; only input that fails is
walked entry by entry, to name its first bad entry.

Spaces are immutable after construction and every query is pure: none
stores anything on the space, so spaces are safe to share across
threads. Because the point set is finite, every sublevel set of every
field on a space is compact in any topology, which is why minimizers
(and hence critical points) always exist here without any extra
coercivity hypothesis.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DanglingEndpoint,
    DegenerateInterval,
    DuplicateEdge,
    EmptyEdgeList,
    FieldSpaceMismatch,
    InvalidCount,
    InvalidDecreasingList,
    InvalidPoint,
    InvariantViolated,
    NonFiniteCoordinate,
    NonPositiveLength,
    SelfLoopEdge,
    TooFewPoints,
)

PointId = int

# At most 3037000499 points, so that the CSR sort keys src * span + dst
# of the directed edges fit int64.
_MAX_POINTS = math.isqrt(2**63 - 1)


def check_count(value, name: str, least: int | None = None) -> int:
    """A count knob as an int; InvalidCount unless it is an integral
    number (10.0 passes; NaN and inf do not), and >= least if given."""
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and value.is_integer())
    if not integral or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise InvalidCount(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


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
    finite positive lengths. It checks only that the three edge arrays
    have one length and every endpoint lies in [0, n) (DanglingEndpoint),
    and that coordinates are finite.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    coordinates: np.ndarray | None = None
    indptr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise TooFewPoints(f"a space needs at least one point, got {self.n}")
        self.src = _frozen(self.src, np.intp)
        self.dst = _frozen(self.dst, np.intp)
        self.w = _frozen(self.w, float)
        if not self.src.size == self.dst.size == self.w.size:
            raise DanglingEndpoint(
                f"edge arrays differ in length: src {self.src.size}, "
                f"dst {self.dst.size}, w {self.w.size}")
        # As unsigned integers, negative endpoints are >= n as well.
        if self.src.size and max(self.src.view(np.uintp).max(),
                                 self.dst.view(np.uintp).max()) >= self.n:
            k = int(((self.src < 0) | (self.src >= self.n)
                     | (self.dst < 0) | (self.dst >= self.n)).nonzero()[0][0])
            raise DanglingEndpoint(
                f"edge ({self.src[k]}, {self.dst[k]}) has an endpoint "
                f"outside [0, {self.n})")
        self.indptr = _frozen(np.concatenate(
            ([0], np.cumsum(np.bincount(self.src, minlength=self.n)))), np.intp)
        if self.coordinates is not None:
            coords = np.array(self.coordinates, dtype=float)
            if coords.shape[0] != self.n:
                raise FieldSpaceMismatch(
                    f"coordinates cover {coords.shape[0]} points, space has {self.n}")
            bad = (~np.isfinite(coords.reshape(self.n, -1)).all(axis=1)).nonzero()[0]
            if bad.size:
                raise NonFiniteCoordinate(f"non-finite coordinate at point {bad[0]}")
            coords.setflags(write=False)
            self.coordinates = coords

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """Each undirected edge once, as (u, v, length) with u < v, sorted."""
        up = self.src < self.dst
        return tuple(zip(self.src[up].tolist(), self.dst[up].tolist(),
                         self.w[up].tolist()))

    def check_point(self, x: PointId) -> None:
        """InvalidPoint unless x is an integer (not a bool) in [0, n)."""
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            raise InvalidPoint(f"point id {x!r} is not an integer")
        if not 0 <= x < self.n:
            raise InvalidPoint(f"point {x} outside [0, {self.n})")


def _adjacent(space: MetricSpaceGraph, x: PointId) -> tuple[list[int], list[float]]:
    """The adjacent points of x, in increasing order, and the lengths of
    their edges: x's CSR slice of `dst` and `w`, as lists."""
    a, b = space.indptr[x], space.indptr[x + 1]
    return space.dst[a:b].tolist(), space.w[a:b].tolist()


def _edge_columns(items):
    """Endpoint and length columns (u, v, w) of an edge list, converted
    as int(u), int(v), float(length).

    The first entry that does not convert raises its error, unless an
    entry before it is bad; an endpoint outside the int64 range does not
    convert. Lists of (int, int, number) triples, which is what the
    loaders and generators produce, convert in one array pass; anything
    else goes entry by entry.
    """
    try:
        if set(map(len, items)) == {3}:
            u, v, w = (np.array(c) for c in zip(*items))
            if u.dtype.kind == v.dtype.kind == "i" and w.dtype.kind in "if":
                return (u.astype(np.intp, copy=False), v.astype(np.intp, copy=False),
                        w.astype(float, copy=False))
    except TypeError:  # an entry without len()
        pass
    u = np.empty(len(items), dtype=np.intp)
    v = np.empty(len(items), dtype=np.intp)
    w = np.empty(len(items))
    for k, item in enumerate(items):
        try:
            a, b, c = item
        except (TypeError, ValueError):
            raise _first_bad_edge(u[:k], v[:k], w[:k]) or ValueError(
                f"edge entries must be (u, v, length), got {item!r}") from None
        try:
            u[k], v[k], w[k] = int(a), int(b), float(c)
        except (TypeError, ValueError, OverflowError) as exc:
            raise _first_bad_edge(u[:k], v[:k], w[:k]) or exc from None
    return u, v, w


def _first_bad_edge(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> Exception | None:
    """The error for the first entry, in input order, that is not a
    valid edge, or None. Per entry the checks run in a fixed order:
    negative endpoint, self-loop, length not finite and > 0 (NaN
    included), then a duplicate of an earlier entry in either orientation.
    """
    seen = set()
    for a, b, length in zip(u.tolist(), v.tolist(), w.tolist()):
        if a < 0 or b < 0:
            return DanglingEndpoint(f"negative endpoint in edge ({a}, {b})")
        if a == b:
            return SelfLoopEdge(f"self-loop at point {a}")
        if not 0.0 < length < math.inf:
            return NonPositiveLength(f"edge ({a}, {b}) has length {length}")
        key = (min(a, b), max(a, b))
        if key in seen:
            return DuplicateEdge(f"edge {key} appears more than once")
        seen.add(key)
    return None


def build_graph(edge_list, n: int | None = None,
                coordinates=None) -> MetricSpaceGraph:
    """Construct a space from an undirected edge list.

    Each (u, v, length) entry is one undirected edge; the symmetric
    closure is implied, and a pair appearing twice (in either
    orientation) is rejected, and every length must be finite and > 0.
    `n` defaults to 1 + the largest endpoint, and may be at most
    isqrt(2**63 - 1) (InvalidCount); pass it explicitly to create
    isolated points or a single-point space. Valid input takes array
    passes and one sort (`_space_from_columns`); failing input is walked
    entry by entry, and its first bad entry in input order raises.
    """
    items = edge_list if isinstance(edge_list, (list, tuple)) else list(edge_list)
    return _space_from_columns(*_edge_columns(items), n, coordinates)


def _space_from_columns(u: np.ndarray, v: np.ndarray, w: np.ndarray,
                        n: int | None, coordinates) -> MetricSpaceGraph:
    """The array core of `build_graph` and `sample_interval`: validate
    the endpoint (int64) and length (float) columns and build the space.

    The point count is checked first, so that no key wraps and no array
    of more than `_MAX_POINTS` points is made. A mask flags bad
    endpoints and lengths, and one argsort of the directed keys
    src * span + dst (span: the largest endpoint + 1) gives the CSR
    order, where a duplicate edge is two equal neighbours. Only input
    that fails is walked by `_first_bad_edge`, to name its first bad entry.
    """
    span = int(max(u.max(), v.max())) + 1 if u.size else 0
    if n is None and not u.size:
        raise EmptyEdgeList("cannot infer the point count from an empty edge list")
    n = span if n is None else int(n)
    problem = None
    if n < 1:
        problem = TooFewPoints(f"a space needs at least one point, got {n}")
    elif span > n:
        problem = DanglingEndpoint(f"edge endpoint {span - 1} outside [0, {n})")
    elif not u.size and n > 1:
        problem = EmptyEdgeList(f"no edges given for a {n}-point space")
    elif n > _MAX_POINTS:
        problem = InvalidCount(f"a space has at most {_MAX_POINTS} points, got {n}")
    bad = (u < 0) | (v < 0) | (u == v) | ~((w > 0.0) & (w < math.inf))
    if problem is not None or bad.any():
        raise _first_bad_edge(u, v, w) or problem
    src, dst = np.concatenate((u, v)), np.concatenate((v, u))
    key = src * span + dst
    order = np.argsort(key)
    if (np.diff(key[order]) == 0).any():
        raise _first_bad_edge(u, v, w)
    return MetricSpaceGraph(n=n, src=src[order], dst=dst[order],
                            w=np.concatenate((w, w))[order], coordinates=coordinates)


def sample_interval(a: float, b: float, n: int) -> MetricSpaceGraph:
    """Sample [a, b] at n uniformly spaced points.

    Consecutive samples are joined by edges of length h = (b-a)/(n-1)
    and the sample coordinates are stored on the space. An interval so
    wide that b - a overflows, or so narrow that h underflows to 0, is
    a DegenerateInterval; an n that is not an integer, or is above
    isqrt(2**63 - 1) as in `build_graph`, is an InvalidCount.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise DegenerateInterval(f"need a < b, got a={a}, b={b}")
    n = check_count(n, "n")
    if n < 2:
        raise TooFewPoints(f"need at least 2 sample points, got {n}")
    if n > _MAX_POINTS:
        raise InvalidCount(f"a space has at most {_MAX_POINTS} points, got {n}")
    h = (b - a) / (n - 1)
    if not (math.isfinite(h) and h > 0.0):
        raise DegenerateInterval(
            f"spacing (b - a) / (n - 1) is not a finite positive number "
            f"for a={a}, b={b}, n={n}")
    left = np.arange(n - 1)
    return _space_from_columns(left, left + 1, np.full(n - 1, h), n,
                               np.linspace(a, b, n))


# `_sweep` relaxes its frontier in array rounds while the frontier holds
# at least this many points, and with a heap once it is narrower.
_WIDE = 256


def _sweep(space: MetricSpaceGraph, inc: np.ndarray, seeds: np.ndarray,
           values: np.ndarray) -> np.ndarray:
    """Least path sums from the distinct points `seeds` (intp).

    Seeds keep their `values`; every other point x gets the least
    v(y) + inc[k] over its in-edges k = (y, x), for increments inc >= 0
    indexed like the directed edge arrays; unreached points stay inf.

    The frontier, the points whose value fell and whose out-edges are
    not yet relaxed, starts as the seeds. While it holds at least
    `_WIDE` points, one array round relaxes all its out-edges at once
    (frontier-synchronous relaxation). A heap then takes the rest of the
    frontier, popping the least value first, and a point whose value
    falls again is pushed again. With inc >= 0 round-to-nearest addition
    is monotone, so every relaxation order reaches the same least
    left-fold path sums, bit for bit (`testing.reference_sweep`).

    The result is certified in one array pass: an edge into a non-seed
    point that would still lower it raises InvariantViolated.
    """
    v = np.full(space.n, math.inf)
    v[seeds] = values
    seeded = np.zeros(space.n, dtype=bool)
    seeded[seeds] = True
    # An edge into a seed steps by inf, so it lowers nothing.
    step = np.where(seeded[space.dst], math.inf, inc)
    frontier = seeds
    with np.errstate(over="ignore"):
        while frontier.size >= _WIDE:
            starts = space.indptr[frontier]
            counts = space.indptr[frontier + 1] - starts
            edges = (np.arange(counts.sum())
                     + np.repeat(starts - np.cumsum(counts) + counts, counts))
            before = v.copy()
            np.minimum.at(v, space.dst[edges], v[space.src[edges]] + step[edges])
            frontier = (v < before).nonzero()[0]
        if frontier.size:
            v = _heap_sweep(space, step, v, frontier)
        bad = (v[space.dst] > v[space.src] + step).nonzero()[0]
    if bad.size:
        k = int(bad[0])
        x, y = int(space.src[k]), int(space.dst[k])
        raise InvariantViolated(
            f"sweep is not a fixpoint: edge ({x}, {y}) lowers "
            f"{float(v[y])!r} to {float(v[x] + step[k])!r}")
    return v


def _heap_sweep(space: MetricSpaceGraph, step: np.ndarray, v: np.ndarray,
                frontier: np.ndarray) -> np.ndarray:
    """`_sweep` from the values v and its pending frontier, by a heap."""
    ends = space.indptr.tolist()
    dst = space.dst.tolist()
    step = step.tolist()
    v = v.tolist()
    heap = [(v[x], x) for x in frontier.tolist()]
    heapq.heapify(heap)
    while heap:
        val, x = heapq.heappop(heap)
        if val > v[x]:
            continue
        for k in range(ends[x], ends[x + 1]):
            cand = val + step[k]
            y = dst[k]
            if cand < v[y]:
                v[y] = cand
                heapq.heappush(heap, (cand, y))
    return np.array(v)


def distances_from(space: MetricSpaceGraph, x: PointId) -> np.ndarray:
    """Single-source shortest-path distances along edges.

    Unreachable points get math.inf, and so does a point whose every
    path sum exceeds the float range.
    """
    space.check_point(x)
    return _sweep(space, space.w, np.array([x], dtype=np.intp), np.zeros(1))


def metric_distances(space: MetricSpaceGraph, x: PointId) -> np.ndarray:
    """Distances from x to every point under the space's metric.

    The Euclidean distances between stored coordinates when the space
    has them; otherwise the shortest-path distances of `distances_from`.
    """
    space.check_point(x)
    if space.coordinates is None:
        return distances_from(space, x)
    diff = space.coordinates - space.coordinates[x]
    if diff.ndim == 1:
        return np.abs(diff)
    return np.sqrt(np.sum(diff * diff, axis=1))


def neighbors(space: MetricSpaceGraph, x: PointId,
              radius: float | None = None) -> tuple[tuple[int, float], ...]:
    """The (point, distance) pairs of the adjacent points of x, or of
    every point within `radius` of x, in increasing point order.

    Without a radius the pairs are the graph-adjacent points with their
    edge lengths. With a radius, which must be finite and > 0, they are
    all points y != x with 0 < d(x, y) <= radius under
    `metric_distances`. x itself is never among them.
    """
    space.check_point(x)
    if radius is None:
        return tuple(zip(*_adjacent(space, x)))
    if not 0.0 < radius < math.inf:
        raise InvalidDecreasingList(
            f"radius must be a finite number > 0, got {radius}")
    dist = metric_distances(space, x)
    # d(x, x) = 0, so x itself is never a member.
    ys = ((dist > 0.0) & (dist <= radius)).nonzero()[0]
    return tuple(zip(ys.tolist(), dist[ys].tolist()))


def is_connected(space: MetricSpaceGraph) -> bool:
    """Whether every point is reachable from point 0 along the directed
    edges; for a space from `build_graph`, whether it is one component.

    Every point starts labelled with its own id. Each round lowers the
    label of every edge's target to its source's label, then replaces
    each label by its label's label (min-label propagation with pointer
    jumping). A label is always a point that reaches its holder, and
    labels only fall, so the rounds stop when the label sum stops
    falling; the least point that reaches a holder is then its label.
    The space is connected iff every label is 0.

    Labels move toward the target, not toward its root, so a path whose
    ids do not rise along it can take one round per point. After
    2 * bit_length(n) + 4 undecided rounds a zero-increment sweep from
    point 0 decides instead, in O(n + m log n): it leaves inf exactly on
    the points that 0 does not reach.
    """
    label = np.arange(space.n)
    total = label.sum()
    for _ in range(2 * int(space.n).bit_length() + 4):
        if not total:
            return True
        np.minimum.at(label, space.dst, label[space.src])
        label = label[label]
        last, total = total, label.sum()
        if total == last:
            return False
    return not total or bool(np.isfinite(
        _sweep(space, np.zeros(space.dst.size), np.zeros(1, dtype=np.intp),
               np.zeros(1))).all())
