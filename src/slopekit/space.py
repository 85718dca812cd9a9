"""Finite metric spaces: weighted graphs and uniform interval samplings.

A space is a finite point set {0, ..., n-1} with symmetric positive edge
lengths, and its one metric is the shortest-path distance along edges
(`distances_from`). Slope computations only ever compare adjacent
points; the balls of `slope.delta_slope_profile` are measured with the
same distances.

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
sort, which also finds duplicate edges; only failing input is walked,
by `_first_bad_edge`, to name its first bad entry. Inputs follow three
rules, written once here, each caller raising its own typed error. An
integer (`_integer`: point ids, counts, endpoints, `reconstruct` keys)
is a Python int or numpy integer, not a bool, in int64; endpoints and
keys of any kinds convert in one pass (`_int64s`). A number (`_number`)
is an integer or a Python or numpy float. A flag array (`check_flags`)
is a 1-D bool array.

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
    InvalidCount,
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


def _too_many(n: int) -> InvalidCount | None:
    """InvalidCount if n is more points than a space may have, else None."""
    return InvalidCount(f"a space has at most {_MAX_POINTS} points, got {n}") \
        if n > _MAX_POINTS else None


def _integer(t: type) -> bool:
    """Whether t is a type of integers: a Python int or numpy integer, not a bool."""
    return issubclass(t, (int, np.integer)) and t is not bool


def _number(t: type) -> bool:
    """Whether t is a type of numbers: an `_integer` or a Python or numpy float."""
    return _integer(t) or issubclass(t, (float, np.floating))


def _shown(x) -> str:
    """repr(x) for a message, but "<beyond int64>" for an `_integer` beyond it."""
    return "<beyond int64>" if _integer(type(x)) and not -2**63 <= x < 2**63 else repr(x)


def _float(x) -> float:
    """float(x) for a number x; an int beyond the float range is +-inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _int64s(values) -> np.ndarray | None:
    """A sequence of `_integer`s in int64 as an int64 array, else None."""
    types = set(map(type, values))
    if not all(map(_integer, types)):
        return None
    try:
        out = np.array(values, dtype=np.int64)
    except OverflowError:  # an entry beyond int64
        return None
    # numpy 1.x may wrap an unsigned entry beyond int64 to a negative one
    unsigned = any(issubclass(t, np.unsignedinteger) for t in types)
    return None if unsigned and (out < 0).any() else out


def check_count(value, name: str, least: int | None = None) -> int:
    """A count knob as an int; InvalidCount unless it is an `_integer` in
    the int64 range (10.0 is not), and >= least if given."""
    if not (_integer(type(value)) and -2**63 <= value < 2**63
            and (least is None or value >= least)):
        bound = "" if least is None else f" >= {least}"
        raise InvalidCount(f"{name} must be an integer{bound}, got {_shown(value)}")
    return int(value)


def check_real(value, error, name: str, rule: str, least: float = -math.inf,
               closed: bool = False) -> float:
    """A real-valued knob as a float: `error` ("{name} {rule}, got ...") unless
    it is a finite `_number` > least (>= least if `closed`). The message gives
    the float value (a numpy scalar as a Python float, a huge int as inf)."""
    if type(value) is not float:
        if not _number(type(value)):
            raise error(f"{name} {rule}, got {value!r}")
        value = _float(value)
    if not (math.isfinite(value) and (value > least or closed and value == least)):
        raise error(f"{name} {rule}, got {value}")
    return value


def _array(values) -> np.ndarray | None:
    """np.asarray(values), or None for a ragged sequence, which has no shape."""
    try:
        return np.asarray(values)
    except ValueError:
        return None


def check_reals(values, error, name: str, keys=None, n: int | None = None):
    """Numbers as a new float array, +-inf for an int beyond the float
    range; with n given, None unless `values` has shape (n,), tested
    first. An int, uint or float ndarray passes on its dtype, and a list
    or tuple of numbers on its set of entry types (its length is its
    shape, so it is converted once); else `_array` gives the shape, and
    the first entry that is not a `_number` raises `error`."""
    if isinstance(values, np.ndarray):
        numbers, shape = values.dtype.kind in "iuf", values.shape
    else:
        numbers = isinstance(values, (list, tuple)) and all(
            map(_number, set(map(type, values))))
        shape = (len(values),) if numbers else getattr(_array(values), "shape", None)
    if n is not None and shape != (n,):
        return None
    if not numbers and not all(map(_number, set(map(type, values)))):
        k = next(k for k, v in enumerate(values) if not _number(type(v)))
        raise error(f"{name} {k if keys is None else keys[k]} must be an int "
                    f"or float, got {values[k]!r}")
    return _floats(values)


def _floats(values) -> np.ndarray:
    """Numbers as a new float array, +-inf for an int beyond the float range."""
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        return np.array([_float(v) for v in values])


def check_flags(flags, error, name: str) -> np.ndarray:
    """`flags` copied as a 1-D bool array (a list of bools only), else `error`."""
    mask = _array(flags)
    if mask is None or mask.ndim != 1 or mask.dtype != bool:
        got = "ragged values" if mask is None else \
            f"shape {mask.shape} and dtype {mask.dtype}"
        raise error(f"{name} is a 1-D boolean mask over the points, got {got}")
    return mask.copy()


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
        """InvalidPoint unless x is an `_integer` in [0, n) (`_shown` in messages)."""
        if not _integer(type(x)):
            raise InvalidPoint(f"point id {x!r} is not an integer")
        if not 0 <= x < self.n:
            raise InvalidPoint(f"point {_shown(x)} outside [0, {self.n})")


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
    """The int64 endpoints and float lengths (u, v, w) of an edge list
    of triples of any numeric kinds, in one array pass each; any other
    list is walked by `_first_bad_edge`, and its first bad entry raises."""
    try:
        if set(map(len, items)) <= {3}:
            u, v, w = tuple(zip(*items)) or ((), (), ())
            uv = _int64s(u + v)
            if uv is not None and all(map(_number, set(map(type, w)))):
                return uv[:len(u)], uv[len(u):], _floats(w)
    except TypeError:  # an entry without len()
        pass
    raise _first_bad_edge(items)


def _first_bad_edge(items) -> Exception | None:
    """The error for the first bad entry of an edge list, in input
    order, or None. Per entry the checks run in a fixed order: a triple
    (ValueError), two `_integer` endpoints in the int64 range
    (InvalidPoint), a `_number` length (NonPositiveLength), then a
    negative endpoint, a self-loop, a length not finite and > 0 (NaN
    included), and a duplicate of an earlier entry in either orientation.
    """
    seen = set()
    for k, item in enumerate(items):
        try:
            a, b, c = item
        except (TypeError, ValueError):
            return ValueError(f"edge entries must be (u, v, length), got {item!r}")
        for e in (a, b):
            if not _integer(type(e)):
                return InvalidPoint(f"edge {item!r}: endpoint {e!r} is not an integer")
            if not -2**63 <= e < 2**63:
                return InvalidPoint(f"edge entry {k}: an endpoint lies beyond int64")
        if not _number(type(c)):
            return NonPositiveLength(f"edge {item!r}: length {c!r} is not a number")
        a, b, length = int(a), int(b), _float(c)
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
    An endpoint that is not an `_integer` in the int64 range (a bool, a
    float such as 1.0, a str) is InvalidPoint, and an entry that is not a
    triple a ValueError. `n` defaults to 1 + the largest endpoint;
    a given n must be an `_integer` (`check_count`), and n may be at most
    isqrt(2**63 - 1) (InvalidCount). Pass it explicitly to create
    isolated points or a single-point space. Valid input of any numeric
    kinds converts in two array passes and is laid out by one sort;
    `_first_bad_edge` names the first bad entry of failing input.
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
    order, where a duplicate edge is two equal neighbours. Failing input
    is walked by `_first_bad_edge`, as triples, to name its first bad entry.
    """
    span = int(max(u.max(), v.max())) + 1 if u.size else 0
    if n is None and not u.size:
        raise EmptyEdgeList("cannot infer the point count from an empty edge list")
    n = span if n is None else check_count(n, "n")
    if n < 1:
        problem = TooFewPoints(f"a space needs at least one point, got {n}")
    elif span > n:
        problem = DanglingEndpoint(f"edge endpoint {span - 1} outside [0, {n})")
    elif not u.size and n > 1:
        problem = EmptyEdgeList(f"no edges given for a {n}-point space")
    else:
        problem = _too_many(n)
    bad = (u < 0) | (v < 0) | (u == v) | ~((w > 0.0) & (w < math.inf))
    if problem is None and not bad.any():
        src, dst = np.concatenate((u, v)), np.concatenate((v, u))
        key = src * span + dst
        order = np.argsort(key)
        if not (np.diff(key[order]) == 0).any():
            src = src[order]
            counts = np.bincount(src, minlength=n)  # edges per point
            return _built(MetricSpaceGraph, n=n, src=src, dst=dst[order],
                          w=np.concatenate((w, w))[order], coordinates=None,
                          indptr=np.concatenate(([0], np.cumsum(counts))))
    raise _first_bad_edge(zip(u.tolist(), v.tolist(), w.tolist())) or problem


def sample_interval(a: float, b: float, n: int) -> MetricSpaceGraph:
    """Sample [a, b] at n uniformly spaced points.

    Consecutive samples are joined by edges of length h = (b-a)/(n-1),
    and the samples np.linspace(a, b, n) are stored as the space's
    `coordinates`. An endpoint that is not a `_number`, an interval
    without a < b, one so wide that b - a overflows, or one so narrow
    that h underflows to 0, is a DegenerateInterval; an n that is not an
    `_integer`, or is above isqrt(2**63 - 1) as in `build_graph`, is an
    InvalidCount.
    """
    # Not `check_real`: a NaN or infinite endpoint keeps the messages below.
    if not (_number(type(a)) and _number(type(b))):
        raise DegenerateInterval(f"need numbers a < b, got a={a!r}, b={b!r}")
    a, b = _float(a), _float(b)
    if not a < b:
        raise DegenerateInterval(f"need a < b, got a={a}, b={b}")
    n = check_count(n, "n")
    if n < 2:
        raise TooFewPoints(f"need at least 2 sample points, got {n}")
    problem = _too_many(n)
    if problem is not None:
        raise problem
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
    path sum exceeds the float range. One seed is a frontier narrower
    than `_WIDE`, so the `_sweep` is a heap over the whole component of x.
    """
    space.check_point(x)
    return _sweep(space, space.w, np.array([x], dtype=np.intp), np.zeros(1))


def neighbors(space: MetricSpaceGraph, x: PointId) -> tuple[tuple[int, float], ...]:
    """The (point, edge length) pairs of the adjacent points of x, in
    increasing point order. A metric ball is `distances_from` plus a
    mask: `d = distances_from(space, x)`, then
    `((d > 0.0) & (d <= r)).nonzero()[0]`."""
    space.check_point(x)
    a, b = space.indptr[x], space.indptr[x + 1]
    return tuple(zip(space.dst[a:b].tolist(), space.w[a:b].tolist()))


def is_connected(space: MetricSpaceGraph) -> bool:
    """Whether the space is one component: a zero-increment `_sweep` from
    point 0 reaches exactly the component of 0, without overflow, so the
    space is connected iff it leaves no point at inf."""
    return bool(np.isfinite(_sweep(space, np.zeros(space.dst.size),
                                   np.zeros(1, dtype=np.intp), np.zeros(1))).all())
