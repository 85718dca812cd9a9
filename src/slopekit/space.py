"""Finite metric spaces: weighted graphs and uniform interval samplings.

A space is a finite point set {0, ..., n-1} with symmetric positive edge
lengths, and its one metric is the shortest-path distance along edges
(`distances_from`). Slope computations only ever compare adjacent
points; radius queries (`neighbors` with a radius,
`slope.delta_slope_profile`) measure with the same distances.

A space stores its point count `n`, its directed edge arrays `src`,
`dst`, `w`, their CSR offsets `indptr` and `coordinates`, and nothing
else. `coordinates` holds the sample positions of a `sample_interval`
grid, for callers that evaluate functions there, and is None on every
other space; no distance is read from it. Every undirected edge {u, v}
appears twice in the edge arrays, as (u, v) and as (v, u), and the
entries are sorted by (src, dst). The offsets `indptr` then give each
point's edges as one contiguous slice, `indptr[x]:indptr[x + 1]`, with
its adjacent points in increasing order. Array passes (the slope
kernel, validation, sweeps) read these arrays directly; per-point code
reads one slice at a time, and `edges` (each undirected edge once, as
(u, v, length) with u < v, sorted) is built from the arrays on each
access.

Every space is made by `_space_from_columns`, under `build_graph`,
`io.load_graph_csv` and `sample_interval`: it validates an undirected
edge list by array passes and lays out its symmetric closure by one
sort, which also finds duplicate edges; only input that fails is walked
entry by entry, to name its first bad entry.

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
from itertools import chain

import numpy as np

from .errors import (
    DanglingEndpoint,
    DegenerateInterval,
    DuplicateEdge,
    EmptyEdgeList,
    InvalidCount,
    InvalidDecreasingList,
    InvalidPoint,
    InvariantViolated,
    NonPositiveLength,
    SelfLoopEdge,
    TooFewPoints,
)

PointId = int

# At most 3037000499 points, so that the CSR sort keys src * span + dst
# of the directed edges fit int64.
_MAX_POINTS = math.isqrt(2**63 - 1)

# Not integer endpoints, counts or radii, although int() reads them as 0 or 1.
_BOOLS = (bool, np.bool_)
_REALS = (int, float, np.integer, np.floating)


def check_count(value, name: str, least: int | None = None) -> int:
    """A count knob as an int; InvalidCount unless it is an integral
    number (10.0 passes; NaN, inf, bools and strings do not), and
    >= least if given."""
    integral = not isinstance(value, _BOOLS) and (
        isinstance(value, (int, np.integer))
        or (isinstance(value, (float, np.floating)) and value.is_integer()))
    if not integral or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise InvalidCount(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def check_real(value, error, name: str, rule: str, least: float = -math.inf,
               closed: bool = False) -> float:
    """A real-valued knob as a float: `error` ("{name} {rule}, got ...")
    unless it is a Python or numpy int or float, not a bool, that is
    finite and > least (>= least if `closed`). The message gives the
    float value, so a numpy scalar reads like a Python float."""
    if type(value) is not float:
        if isinstance(value, _BOOLS) or not isinstance(value, _REALS):
            raise error(f"{name} {rule}, got {value!r}")
        value = float(value)
    if not (math.isfinite(value) and (value > least or closed and value == least)):
        raise error(f"{name} {rule}, got {value}")
    return value


@dataclass(frozen=True, eq=False, init=False)
class MetricSpaceGraph:
    """A finite point set with symmetric positive pairwise edge lengths.

    Build instances with `build_graph`, `io.load_graph_csv` or
    `sample_interval`; calling the class is a TypeError.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    coordinates: np.ndarray | None
    indptr: np.ndarray = field(repr=False)

    def __init__(self, *args, **kwargs):
        raise TypeError("build a MetricSpaceGraph with build_graph, "
                        "io.load_graph_csv or sample_interval")

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


def _offsets(src: np.ndarray, n: int) -> np.ndarray:
    """The CSR offsets of n points' edges, sorted by their sources `src`."""
    return np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))


def _built(target, **fields):
    """`target` with `fields` stored, without the checks of a public
    constructor: `target` is a frozen class (a space, field or critical
    set), for a new instance, or an instance already made. The arrays
    are made read-only here; the caller owns them and guarantees the
    rest (the layout of a space; one entry per point, finite values, inf
    where the mask is set and finite slopes >= 0 elsewhere, a checked
    cap or tolerance)."""
    obj = target.__new__(target) if isinstance(target, type) else target
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    obj.__dict__.update(fields)
    return obj


def _edge_columns(items):
    """Endpoint and length columns (u, v, w) of an edge list, converted
    as `_endpoint(u)`, `_endpoint(v)`, float(length); a bool, str or
    bytes length is NonPositiveLength.

    The first entry that does not convert raises its error, unless an
    entry before it is bad; an endpoint outside the int64 range does not
    convert. Lists of (int, int, number) triples without bools, which is
    what the loaders and generators produce, convert in one array pass;
    anything else goes entry by entry.
    """
    try:
        if set(map(len, items)) == {3}:
            cols = tuple(zip(*items))
            u, v, w = (np.array(c) for c in cols)
            # numpy reads a bool among numbers as 0 or 1
            if u.dtype.kind == v.dtype.kind == "i" and w.dtype.kind in "if" \
                    and set(map(type, chain(*cols))).isdisjoint(_BOOLS):
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
            u[k], v[k] = _endpoint(a, item), _endpoint(b, item)
            # float() reads a bool as 0 or 1 and a numeric string as its number.
            if isinstance(c, (*_BOOLS, str, bytes)):
                raise NonPositiveLength(f"edge {item!r}: length {c!r} is not a number")
            w[k] = float(c)
        except (TypeError, ValueError, OverflowError, InvalidPoint,
                NonPositiveLength) as exc:
            raise _first_bad_edge(u[:k], v[:k], w[:k]) or exc from None
    return u, v, w


def _endpoint(e, item) -> int:
    """int(e) for an endpoint of the edge entry `item`: InvalidPoint if e
    is a bool or a number that int() truncates (1.7), while an integral
    float (1.0) or an integer string converts."""
    k = int(e)
    if isinstance(e, _BOOLS) or (k != e and not isinstance(e, (str, bytes))):
        raise InvalidPoint(f"edge {item!r}: endpoint {e!r} is not an integer")
    return k


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


def build_graph(edge_list, n: int | None = None) -> MetricSpaceGraph:
    """Construct a space from an undirected edge list.

    Each (u, v, length) entry is one undirected edge; the symmetric
    closure is implied, and a pair appearing twice (in either
    orientation) is rejected, and every length must be finite and > 0.
    An endpoint that is a bool, or a number int() would truncate, is
    InvalidPoint (`_endpoint`).
    `n` defaults to 1 + the largest endpoint; a given n must be an
    integral number (`check_count`), and n may be at most
    isqrt(2**63 - 1) (InvalidCount). Pass it explicitly to create
    isolated points or a single-point space. Valid input takes array
    passes and one sort (`_space_from_columns`); failing input is walked
    entry by entry, and its first bad entry in input order raises.
    """
    items = edge_list if isinstance(edge_list, (list, tuple)) else list(edge_list)
    return _space_from_columns(*_edge_columns(items), n)


def _space_from_columns(u: np.ndarray, v: np.ndarray, w: np.ndarray,
                        n: int | None) -> MetricSpaceGraph:
    """The one maker of spaces, under `build_graph`, `io.load_graph_csv`
    and `sample_interval`: validate the endpoint (int64) and length
    (float) columns of an undirected edge list and build the space.

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
    n = span if n is None else check_count(n, "n")
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
    src = src[order]
    return _built(MetricSpaceGraph, n=n, src=src, dst=dst[order],
                  w=np.concatenate((w, w))[order], coordinates=None,
                  indptr=_offsets(src, n))


def sample_interval(a: float, b: float, n: int) -> MetricSpaceGraph:
    """Sample [a, b] at n uniformly spaced points.

    Consecutive samples are joined by edges of length h = (b-a)/(n-1),
    and the samples np.linspace(a, b, n) are stored as the space's
    `coordinates`. An endpoint that is a bool or a string, an interval
    without a < b, one so wide that b - a overflows, or one so narrow
    that h underflows to 0, is a DegenerateInterval; an n that is not an
    integer, or is above isqrt(2**63 - 1) as in `build_graph`, is an
    InvalidCount.
    """
    # Not `check_real`: a NaN or infinite endpoint keeps the messages below.
    if any(isinstance(x, _BOOLS) or not isinstance(x, _REALS) for x in (a, b)):
        raise DegenerateInterval(f"need numbers a < b, got a={a!r}, b={b!r}")
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
    grid = _space_from_columns(left, left + 1, np.full(n - 1, h), n)
    return _built(grid, coordinates=np.linspace(a, b, n))


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


def neighbors(space: MetricSpaceGraph, x: PointId,
              radius: float | None = None) -> tuple[tuple[int, float], ...]:
    """The (point, distance) pairs of the adjacent points of x, or of
    every point within `radius` of x, in increasing point order.

    Without a radius the pairs are the graph-adjacent points with their
    edge lengths. With a radius, which must be a finite number > 0
    (`check_real`, InvalidDecreasingList), they are all points y != x
    with d(x, y) <= radius, d the shortest-path distance of
    `distances_from`, which is at most the edge length for an adjacent
    point; unreachable points are never among them. The query sweeps the
    whole component of x, whatever the radius.
    """
    space.check_point(x)
    if radius is None:
        a, b = space.indptr[x], space.indptr[x + 1]
        return tuple(zip(space.dst[a:b].tolist(), space.w[a:b].tolist()))
    radius = check_real(radius, InvalidDecreasingList, "radius",
                        "must be a finite number > 0", 0.0)
    dist = distances_from(space, x)
    # d(x, x) = 0, so x itself is never a member.
    ys = ((dist > 0.0) & (dist <= radius)).nonzero()[0]
    return tuple(zip(ys.tolist(), dist[ys].tolist()))


def is_connected(space: MetricSpaceGraph) -> bool:
    """Whether the space is one component.

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
