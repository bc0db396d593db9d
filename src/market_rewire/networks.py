"""Co-occurrence and differential networks over distance matrices.

A co-occurrence network joins every pair of assets whose current DTW
distance falls strictly below a threshold; its connected components are
the clusters whose node-count distribution feeds graph-based entropy. A
differential network compares two consecutive distance matrices: pairs that
moved apart by strictly more than a threshold get a red edge, pairs that
moved closer a blue edge. Hubs are counted per edge color.

`day_metrics` gives a block of dates' counts and entropy straight from the
upper triangles of their distance matrices, as columns (`_Columns`),
without building a graph or a row, and hands back the sorted positions of
its edges; the pipeline uses it on every date and keeps the positions of
the snapshot dates. Its edge search, components and degrees are one compiled
call of `_native.c`'s `dtw_edges` where the library loaded
(`dtw.KERNEL == "c"`), and numpy array code (`_numpy_edges`) where it did
not; both give the same edges and counts. The graph functions map ids to
their places in the node tuple and call the numpy array code.
"""

import math
from collections.abc import Iterable, Sized
from dataclasses import dataclass, fields
from datetime import date
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _native
from .dtw import DistanceMatrix, _pair_indices
from .ingest import _check_date, _check_ids, _check_int, _check_real


def _canonical_edges(edges, nodes: set[str], kind: str) -> frozenset[tuple[str, str]]:
    if isinstance(edges, str) or not isinstance(edges, Iterable):
        raise ValueError(f"{kind}: edges must be a collection of id pairs, got {edges!r}")
    out = set()
    for edge in edges:
        if isinstance(edge, str) or not isinstance(edge, Sized) or len(edge) != 2:
            raise ValueError(f"{kind}: edge {edge!r} is not a pair of ids")
        a, b = edge
        if a == b:
            raise ValueError(f"{kind}: self-loop on {a!r}")
        if a not in nodes or b not in nodes:
            raise ValueError(f"{kind}: edge ({a!r}, {b!r}) has an endpoint outside the node set")
        out.add((a, b) if a < b else (b, a))
    return frozenset(out)


def _node_set(graph) -> set[str]:
    """Check the date, store the nodes as a tuple; return them as a set, without duplicates."""
    _check_date(graph.end_date, "end_date")
    object.__setattr__(graph, "nodes", _check_ids(graph.nodes, "nodes"))
    node_set = set(graph.nodes)
    if len(node_set) != len(graph.nodes):
        raise ValueError("duplicate node ids")
    return node_set


@dataclass(frozen=True)
class Graph:
    """Undirected co-occurrence network; isolated nodes are kept."""

    end_date: date
    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "edges", _canonical_edges(self.edges, _node_set(self), "graph"))


@dataclass(frozen=True)
class SignedGraph:
    """Differential network: red edges moved apart, blue edges moved closer."""

    end_date: date
    nodes: tuple[str, ...]
    red_edges: frozenset[tuple[str, str]]
    blue_edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        node_set = _node_set(self)
        red = _canonical_edges(self.red_edges, node_set, "signed graph (red)")
        blue = _canonical_edges(self.blue_edges, node_set, "signed graph (blue)")
        if red & blue:
            raise ValueError("red and blue edge sets must be disjoint")
        object.__setattr__(self, "red_edges", red)
        object.__setattr__(self, "blue_edges", blue)


@dataclass(frozen=True)
class MetricsRow:
    """Per-day metrics. Differential fields are None on the first analyzable
    date, where no previous distance matrix exists (absent, not zero). A
    `RunResult` keeps gbe as a float64 and each count as a non-negative
    int64, so a row built by hand reads back from it that way."""

    end_date: date
    gbe: float
    n_components: int
    n_cooc_edges: int
    n_red_edges: int | None = None
    n_blue_edges: int | None = None
    n_farther_hubs: int | None = None
    n_closer_hubs: int | None = None

    @property
    def has_differential(self) -> bool:
        return self.n_red_edges is not None


class _Columns(NamedTuple):
    """The metrics of consecutive dates as columns: `gbe`, float64, and
    `counts`, int64 (6, dates), the six count fields of `MetricsRow` in
    field order, each -1 where it is absent (the differential of the first
    analyzable date)."""

    end_dates: Sequence[date]
    gbe: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, rows: Sequence[MetricsRow]) -> "_Columns":
        """The columns of `rows`: gbe taken as float64, None as -1. A count
        that is negative, a bool or not an integer raises ValueError naming
        its date and field, since it would not read back as itself."""
        dates, gbe, *counts = ([getattr(r, f.name) for r in rows] for f in fields(MetricsRow))
        counts = [
            [-1 if v is None else _check_int(v, f"{d}: {f.name}", 0) for d, v in zip(dates, c)]
            for f, c in zip(fields(MetricsRow)[2:], counts)
        ]
        return cls(dates, np.array(gbe, np.float64), np.array(counts, np.int64).reshape(6, len(dates)))

    def rows(self) -> list[MetricsRow]:
        """The MetricsRow of each date, with None where a count is absent."""
        counts = np.where(self.counts < 0, None, self.counts).tolist()
        return list(map(MetricsRow, self.end_dates, self.gbe.tolist(), *counts))


class HubCounts(NamedTuple):
    n_closer_hubs: int
    n_farther_hubs: int
    closer_hub_ids: frozenset[str]
    farther_hub_ids: frozenset[str]


def _pair_edges(ids: tuple[str, ...], positions: np.ndarray) -> list[tuple[str, str]]:
    """(ids[i], ids[j]) for the pairs at `positions` (indices or a mask) of
    the upper triangle over the ids, in `_pair_indices` order."""
    ii, jj = _pair_indices(len(ids))
    return [(ids[i], ids[j]) for i, j in zip(ii[positions].tolist(), jj[positions].tolist())]


def _places(nodes: tuple[str, ...], edges) -> tuple[np.ndarray, np.ndarray]:
    """The places in `nodes` of the two ends of each edge."""
    place = {node: i for i, node in enumerate(nodes)}
    ends = np.fromiter([place[x] for edge in edges for x in edge], np.intp, 2 * len(edges))
    return ends[0::2], ends[1::2]


def cooccurrence_network(dm: DistanceMatrix, theta: float) -> Graph:
    """Graph with an edge wherever the pairwise distance is strictly below `theta`."""
    _check_real(theta, "co-occurrence threshold")
    edges = _pair_edges(dm.asset_ids, dm.d[_pair_indices(dm.n_assets)] < theta)
    return Graph(end_date=dm.end_date, nodes=dm.asset_ids, edges=edges)


def connected_components(g: Graph) -> list[set[str]]:
    """Partition of the nodes into maximal connected sets, singletons included.

    Components are returned in order of their first node's position in
    `g.nodes`, so the output is deterministic for a given graph.
    """
    labels = _component_labels(len(g.nodes), *_places(g.nodes, g.edges))
    components: dict[int, set[str]] = {}
    for node, label in zip(g.nodes, labels.tolist()):
        components.setdefault(label, set()).add(node)
    return list(components.values())


def _component_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each node of the graph on nodes 0..n-1 with edges (a[e], b[e]),
    the lowest node of its connected component.

    Every node carries the label of a node in its own component, no larger
    than itself. Each round hooks the larger label of every edge whose ends
    disagree under the smaller one and then lets every node take its label's
    label, so some label shrinks each round. Once the ends of every edge
    agree, each component carries one label of its own: its lowest node.
    """
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        if (la == lb).all():
            return label
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        label = label[label]


# The same few size lists recur from date to date (73 distinct among the
# 233 dates of a 20-asset year), so their entropies are kept: the log loop
# took 0.45 ms for those dates and the cached lookups 0.14 ms. A key holds
# one int per cluster, so 256 keys stay under 1 MB at 500 assets.
@lru_cache(maxsize=256)
def _sorted_size_entropy(sizes: tuple[int, ...]) -> float:
    """Shannon entropy, in bits, of positive cluster sizes sorted largest first."""
    total = sum(sizes)
    if total == 0:
        return 0.0
    h = 0.0
    for s in sizes:
        p = s / total
        h -= p * math.log2(p)
    # avoid -0.0 from the single-cluster case
    return h + 0.0


def graph_based_entropy(components: Sequence[set[str]]) -> float:
    """Shannon entropy, in bits, of the cluster-size distribution.

    Each cluster's frequency is its node count. A single cluster gives 0;
    n equal clusters give log2(n). An empty partition (zero nodes) returns
    0 by convention.
    """
    # summed largest first, so the bits do not depend on the clusters' order
    return _sorted_size_entropy(tuple(sorted((len(c) for c in components if c), reverse=True)))


def difference_matrix(x_t: DistanceMatrix, x_prev: DistanceMatrix) -> np.ndarray:
    """Elementwise change between consecutive distance matrices (current minus previous)."""
    if x_t.asset_ids != x_prev.asset_ids:
        raise ValueError(
            "difference_matrix: asset sets differ "
            f"({x_t.asset_ids} vs {x_prev.asset_ids})"
        )
    return x_t.d - x_prev.d


def differential_network(
    diff: np.ndarray,
    delta: float,
    asset_ids: Sequence[str],
    end_date: date,
) -> SignedGraph:
    """Signed graph over a difference matrix with strict threshold `delta`.

    A red edge marks a pair whose distance grew by more than `delta`; a blue
    edge a pair whose distance shrank by more than `delta`. Entries equal to
    +/-delta produce no edge. The matrix must be finite and symmetric, as
    the difference of two distance matrices is.
    """
    _check_real(delta, "differential threshold")
    D = np.asarray(diff, dtype=float)
    ids = _check_ids(asset_ids, "asset_ids")
    n = len(ids)
    if D.shape != (n, n):
        raise ValueError(f"difference matrix shape {D.shape} does not match {n} assets")
    if not np.isfinite(D).all():
        raise ValueError("difference matrix entries must be finite")
    if not np.array_equal(D, D.T):
        raise ValueError("difference matrix must be symmetric")
    upper = D[_pair_indices(n)]
    return SignedGraph(
        end_date=end_date,
        nodes=ids,
        red_edges=_pair_edges(ids, upper > delta),
        blue_edges=_pair_edges(ids, upper < -delta),
    )


def count_hubs(sg: SignedGraph, k: int) -> HubCounts:
    """Count closer and farther hubs: nodes whose blue-edge (respectively
    red-edge) degree is at least `k`. Degrees are counted per color, so a
    node needs k edges of a single color to qualify, and may be both kinds."""
    _check_int(k, "hub degree threshold", 1)
    nodes = sg.nodes
    closer, farther = (
        frozenset(nodes[p] for p in _hubs(len(nodes), *_places(nodes, edges), k).tolist())
        for edges in (sg.blue_edges, sg.red_edges)
    )
    return HubCounts(len(closer), len(farther), closer, farther)


def _hubs(n: int, a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Nodes of 0..n-1 that are an end of at least `k` of the edges (a[e], b[e])."""
    degree = np.bincount(np.concatenate((a, b)), minlength=n)
    return np.flatnonzero(degree >= k)


# `search(dist, prev, theta, delta)` of a block: its `at`, `starts` and counts
_EdgeSearch = Callable[[np.ndarray, np.ndarray | None, float, float], tuple[np.ndarray, np.ndarray, np.ndarray]]


def day_metrics(
    end_dates: Sequence[date],
    search: _EdgeSearch,
    dist: np.ndarray,
    prev: np.ndarray | None,
    theta: float,
    delta: float,
    k: int,
) -> tuple[_Columns, np.ndarray, np.ndarray]:
    """The metrics of a block of consecutive dates straight from the upper
    triangles of their matrices, as columns, and the edges they were
    counted from.

    `search` is the `_edge_search` of the pairs (ii, jj) of n assets, and
    entry (d, p) of `dist` the distance on end_dates[d] between assets
    ii[p] and jj[p]; `prev` holds the distances of the date before the
    block, None where the block starts at the first analyzable date, whose
    differential counts are then absent. Each date's metrics equal the row
    read off `cooccurrence_network`, `connected_components`,
    `graph_based_entropy`, `differential_network` and `count_hubs` with the
    same thresholds, taken as float64, without building a graph.

    The edges come back as `(columns, at, starts)`: `at` holds the pair
    positions p of every edge, network by network (co-occurrence, red,
    blue), date by date within each and ascending within each date, and
    the edges of network c on date d are at[starts[c·dates + d] :
    starts[c·dates + d + 1]]. A date without differential has empty red
    and blue runs. `at` owns its data, so a read-only flag on it holds for
    its slices.
    """
    days = dist.shape[0]
    at, starts, nodes = search(dist, prev, float(theta), float(delta))
    counts = np.empty((6, days), np.int64)
    counts[0] = np.count_nonzero(nodes[0], axis=1)
    counts[1:4] = np.diff(starts).reshape(3, days)
    counts[4:] = np.count_nonzero(nodes[1:] >= k, axis=2)
    if prev is None:  # the first analyzable date has no differential
        counts[2:, 0] = -1
    sizes = np.sort(nodes[0])[:, ::-1].tolist()  # each date's component sizes, largest first, then zeros
    gbe = [_sorted_size_entropy(tuple(s[:c])) for s, c in zip(sizes, counts[0].tolist())]
    return _Columns(end_dates, np.array(gbe), counts), at, starts


def _edge_search(
    n: int, pairs: tuple[np.ndarray, np.ndarray]
) -> _EdgeSearch:
    """The edge search of `day_metrics` over the pairs (ii, jj) of n
    assets, built once for every block of a run: `search(dist, prev,
    theta, delta)` gives the block's `at` and `starts` and its counts,
    (3, dates, n): the size of each co-occurrence component at its lowest
    node, else 0, and each node's red and blue degree.

    The search, components and degrees are two calls of `_native.c`'s
    `dtw_edges` where the library loaded (`dtw.KERNEL`), and
    `_numpy_edges` where it did not; both take the same comparisons of the
    same values, so they give the same counts, `at` and `starts`. The
    compiled search checks ii and jj and takes their addresses here, and
    the addresses of a block's arrays once a block (`_native.address`).
    """
    if _native.lib is None:
        return partial(_numpy_edges, n, pairs)
    held = ii, jj = pairs  # referenced by the search, so alive while it passes their addresses
    m = ii.size
    at_ii, at_jj = (_native.address(a, np.int64, (m,), "the edge search") for a in held)

    def search(dist, prev, theta, delta):
        days = len(dist)
        args = (
            _native.address(dist, np.float64, (days, m), "the edge search"),
            None if prev is None else _native.address(prev, np.float64, (m,), "the edge search"),
            days, m, n, at_ii, at_jj, theta, delta,
        )
        # one array for `starts` and the counts, for one address lookup
        buf = np.empty(3 * days * (n + 1) + 1, np.int64)
        address = buf.ctypes.data
        _native.lib.dtw_edges(*args, address, None, None)
        starts = buf[: 3 * days + 1]
        at = np.empty(starts[-1], np.intp)
        if _native.lib.dtw_edges(*args, address, at.ctypes.data, address + 8 * (3 * days + 1)):
            raise IndexError(f"a pair index is outside 0 .. {n - 1}")
        return at, starts, buf[3 * days + 1 :].reshape(3, days, n)

    return search


def _numpy_edges(
    n: int, pairs: tuple[np.ndarray, np.ndarray], dist: np.ndarray, prev: np.ndarray | None, theta: float, delta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges of a block's networks as `day_metrics` returns them, `at`
    and `starts`, and the (3, dates, n) counts of its networks' nodes: the
    size of each co-occurrence component at its lowest node, else 0, and
    each node's red and blue degree.

    The block's co-occurrence, red and blue networks are taken as one graph
    of 3·dates·n nodes, network c of date d on nodes (c·dates + d)·n ..
    (c·dates + d + 1)·n - 1, so every count takes one array call per block:
    components of the co-occurrence part, then one `bincount` for their
    sizes and the red and blue degrees.
    """
    days, m = dist.shape
    masks = np.empty((3, days, m), dtype=bool)
    np.less(dist, theta, out=masks[0])
    change = np.empty_like(dist)
    np.subtract(dist[1:], dist[:-1], out=change[1:])
    if prev is not None:
        np.subtract(dist[0], prev, out=change[0])
    np.greater(change, delta, out=masks[1])
    np.less(change, -delta, out=masks[2])
    del change  # freed before the edge search, whose arrays then reuse its pages
    if prev is None:
        masks[1:, 0] = False
    at = np.flatnonzero(masks)
    # `at` is sorted, so the edges of network c on date d, row q = c·dates + d
    # of the masks, are one run of it: no division finds their rows
    starts = np.searchsorted(at, np.arange(3 * days + 1) * m)
    edges = np.diff(starts)
    q = np.repeat(np.arange(3 * days), edges)
    at = at - q * m  # each edge's pair, in an array of its own: `flatnonzero` gives a view
    q *= n  # the first node of its date and network
    a, b = pairs[0][at], pairs[1][at]
    a += q
    b += q
    near = int(edges[:days].sum())
    labels = _component_labels(days * n, a[:near], b[:near])
    counts = np.bincount(np.concatenate((labels, a[near:], b[near:])), minlength=3 * days * n)
    return at, starts, counts.reshape(3, days, n)
