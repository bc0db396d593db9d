"""Co-occurrence and differential networks over distance matrices.

A co-occurrence network joins every pair of assets whose current DTW
distance falls strictly below a threshold; its connected components are
the clusters whose node-count distribution feeds graph-based entropy. A
differential network compares two consecutive distance matrices: pairs that
moved apart by strictly more than a threshold get a red edge, pairs that
moved closer a blue edge. Hubs are counted per edge color.

`day_metrics` gives the counts and entropy straight from the upper
triangle of the distance matrices, without building a graph, and hands
back its edge masks; the pipeline uses it on every date and keeps the
masked positions of snapshot dates. The graph functions map ids to their
places in the node tuple and call the same array code.
"""

import math
from collections.abc import Iterable, Sized
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple, Sequence

import numpy as np

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
    date, where no previous distance matrix exists (absent, not zero)."""

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


def _size_entropy(sizes: Sequence[int]) -> float:
    """Shannon entropy, in bits, of cluster sizes taken as frequencies."""
    # summed largest first, so `graph_based_entropy` gives the same bits
    # whatever order the clusters come in
    sizes = sorted((s for s in sizes if s > 0), reverse=True)
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
    return _size_entropy([len(c) for c in components])


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


def day_metrics(
    end_date: date,
    n: int,
    pairs: tuple[np.ndarray, np.ndarray],
    dist: np.ndarray,
    change: np.ndarray | None,
    theta: float,
    delta: float,
    k: int,
) -> tuple[MetricsRow, tuple[np.ndarray, ...]]:
    """One date's metrics row straight from the upper triangle of its
    matrices, and the edge masks it was counted from.

    Entry p of `dist` is the distance between assets pairs[0][p] and
    pairs[1][p] of n, and entry p of `change` that distance minus the
    previous date's (None on the first analyzable date). The row equals the
    one read off `cooccurrence_network`, `connected_components`,
    `graph_based_entropy`, `differential_network` and `count_hubs` with the
    same thresholds, without building a graph. The masks are the
    co-occurrence one and, given `change`, the red and the blue one.
    """
    ii, jj = pairs
    near = dist < theta
    labels = _component_labels(n, ii[near], jj[near])
    sizes = [s for s in np.bincount(labels, minlength=n).tolist() if s]
    differential, masks = {}, (near,)
    if change is not None:
        red = change > delta
        blue = change < -delta
        differential = dict(
            n_red_edges=int(np.count_nonzero(red)),
            n_blue_edges=int(np.count_nonzero(blue)),
            n_farther_hubs=_hubs(n, ii[red], jj[red], k).size,
            n_closer_hubs=_hubs(n, ii[blue], jj[blue], k).size,
        )
        masks = (near, red, blue)
    return MetricsRow(
        end_date=end_date,
        gbe=_size_entropy(sizes),
        n_components=len(sizes),
        n_cooc_edges=int(np.count_nonzero(near)),
        **differential,
    ), masks
