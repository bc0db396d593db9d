"""Co-occurrence and differential networks over distance matrices.

A co-occurrence network joins every pair of assets whose current DTW
distance falls strictly below a threshold; its connected components are
the clusters whose node-count distribution feeds graph-based entropy. A
differential network compares two consecutive distance matrices: pairs that
moved apart by strictly more than a threshold get a red edge, pairs that
moved closer a blue edge. Hubs are counted per edge color.

`day_metrics` gives the same counts and entropy straight from the upper
triangle of the distance matrices, without building a graph; the pipeline
uses it on every date and builds graphs only for snapshots.
"""

import math
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple, Sequence

import numpy as np

from .dtw import DistanceMatrix
from .ingest import _check_int, _check_real


def _canonical_edges(edges, nodes: set[str], kind: str) -> frozenset[tuple[str, str]]:
    out = set()
    for a, b in edges:
        if a == b:
            raise ValueError(f"{kind}: self-loop on {a!r}")
        if a not in nodes or b not in nodes:
            raise ValueError(f"{kind}: edge ({a!r}, {b!r}) has an endpoint outside the node set")
        out.add((a, b) if a < b else (b, a))
    return frozenset(out)


@dataclass(frozen=True)
class Graph:
    """Undirected co-occurrence network; isolated nodes are kept."""

    end_date: date
    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValueError("duplicate node ids")
        object.__setattr__(self, "edges", _canonical_edges(self.edges, node_set, "graph"))


@dataclass(frozen=True)
class SignedGraph:
    """Differential network: red edges moved apart, blue edges moved closer."""

    end_date: date
    nodes: tuple[str, ...]
    red_edges: frozenset[tuple[str, str]]
    blue_edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValueError("duplicate node ids")
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


def _upper_edges(mask: np.ndarray, ids: tuple[str, ...]) -> list[tuple[str, str]]:
    """(ids[i], ids[j]) for every True mask[i, j] above the diagonal."""
    ii, jj = np.nonzero(mask)
    upper = ii < jj
    return [(ids[i], ids[j]) for i, j in zip(ii[upper].tolist(), jj[upper].tolist())]


def cooccurrence_network(dm: DistanceMatrix, theta: float) -> Graph:
    """Graph with an edge wherever the pairwise distance is strictly below `theta`."""
    _check_real(theta, "co-occurrence threshold")
    edges = _upper_edges(dm.d < theta, dm.asset_ids)
    return Graph(end_date=dm.end_date, nodes=dm.asset_ids, edges=edges)


def connected_components(g: Graph) -> list[set[str]]:
    """Partition of the nodes into maximal connected sets, singletons included.

    Components are returned in order of their first node's position in
    `g.nodes`, so the output is deterministic for a given graph.
    """
    adj: dict[str, list[str]] = {node: [] for node in g.nodes}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    seen: set[str] = set()
    components: list[set[str]] = []
    for start in g.nodes:
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        stack = [start]
        while stack:
            node = stack.pop()
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    comp.add(nb)
                    stack.append(nb)
        components.append(comp)
    return components


def _component_sizes(n: int, a: np.ndarray, b: np.ndarray) -> list[int]:
    """Node counts of the connected components of the graph on nodes 0..n-1
    with edges (a[e], b[e]).

    Every node carries the label of a node in its own component, no larger
    than itself. Each round hooks the larger label of every edge whose ends
    disagree under the smaller one and then lets every node take its label's
    label, so some label shrinks each round. Once the ends of every edge
    agree, each component carries one label of its own.
    """
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        if (la == lb).all():
            return [s for s in np.bincount(label, minlength=n).tolist() if s]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        label = label[label]


def _size_entropy(sizes: Sequence[int]) -> float:
    """Shannon entropy, in bits, of cluster sizes taken as frequencies."""
    # summed largest first whatever order the clusters come in, so the graph
    # and array paths give the same bits
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
    ids = tuple(asset_ids)
    n = len(ids)
    if D.shape != (n, n):
        raise ValueError(f"difference matrix shape {D.shape} does not match {n} assets")
    if not np.isfinite(D).all():
        raise ValueError("difference matrix entries must be finite")
    if not np.array_equal(D, D.T):
        raise ValueError("difference matrix must be symmetric")
    return SignedGraph(
        end_date=end_date,
        nodes=ids,
        red_edges=_upper_edges(D > delta, ids),
        blue_edges=_upper_edges(D < -delta, ids),
    )


def count_hubs(sg: SignedGraph, k: int) -> HubCounts:
    """Count closer and farther hubs: nodes whose blue-edge (respectively
    red-edge) degree is at least `k`. Degrees are counted per color, so a
    node needs k edges of a single color to qualify, and may be both kinds."""
    _check_int(k, "hub degree threshold", 1)
    blue_deg: dict[str, int] = {}
    red_deg: dict[str, int] = {}
    for a, b in sg.blue_edges:
        blue_deg[a] = blue_deg.get(a, 0) + 1
        blue_deg[b] = blue_deg.get(b, 0) + 1
    for a, b in sg.red_edges:
        red_deg[a] = red_deg.get(a, 0) + 1
        red_deg[b] = red_deg.get(b, 0) + 1
    closer = frozenset(n for n, deg in blue_deg.items() if deg >= k)
    farther = frozenset(n for n, deg in red_deg.items() if deg >= k)
    return HubCounts(len(closer), len(farther), closer, farther)


def _hub_count(n: int, a: np.ndarray, b: np.ndarray, k: int) -> int:
    """Nodes of 0..n-1 that are an end of at least `k` of the edges (a[e], b[e])."""
    degree = np.bincount(np.concatenate((a, b)), minlength=n)
    return int(np.count_nonzero(degree >= k))


def day_metrics(
    end_date: date,
    n: int,
    pairs: tuple[np.ndarray, np.ndarray],
    dist: np.ndarray,
    change: np.ndarray | None,
    theta: float,
    delta: float,
    k: int,
) -> MetricsRow:
    """One date's metrics straight from the upper triangle of its matrices.

    Entry p of `dist` is the distance between assets pairs[0][p] and
    pairs[1][p] of n, and entry p of `change` that distance minus the
    previous date's (None on the first analyzable date). The row equals the
    one read off `cooccurrence_network`, `connected_components`,
    `graph_based_entropy`, `differential_network` and `count_hubs` with the
    same thresholds, without building a graph.
    """
    ii, jj = pairs
    near = dist < theta
    sizes = _component_sizes(n, ii[near], jj[near])
    differential = {}
    if change is not None:
        red = change > delta
        blue = change < -delta
        differential = dict(
            n_red_edges=int(np.count_nonzero(red)),
            n_blue_edges=int(np.count_nonzero(blue)),
            n_farther_hubs=_hub_count(n, ii[red], jj[red], k),
            n_closer_hubs=_hub_count(n, ii[blue], jj[blue], k),
        )
    return MetricsRow(
        end_date=end_date,
        gbe=_size_entropy(sizes),
        n_components=len(sizes),
        n_cooc_edges=int(np.count_nonzero(near)),
        **differential,
    )
