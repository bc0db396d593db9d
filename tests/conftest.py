import json
import math
from collections import Counter

import numpy as np
import pytest

from market_rewire import AssetMeta, MetricsRow, PricePanel, SignedGraph, dtw, pipeline


@pytest.fixture
def c_kernel():
    """The compiled kernel, which a run and `distance_matrix` take wherever
    it loaded."""
    if dtw.KERNEL != "c":
        pytest.skip("the compiled DTW kernel did not build or load here")


@pytest.fixture
def numpy_kernel(monkeypatch):
    """The numpy wavefront, which a run and `distance_matrix` take where the
    compiled kernel did not load."""
    monkeypatch.setattr(dtw, "_kernel", None)


@pytest.fixture
def pooled(monkeypatch):
    """A run with more than one worker hands its dates to the thread pool
    however little DTW work they hold, so that small panels exercise it."""
    monkeypatch.setattr(pipeline, "_POOL_MIN_WORK", 0)


def dtw_bruteforce(p, q, band=None):
    """Exhaustive minimum over all monotone warping paths.

    Walks every path from (0, 0) to (l-1, m-1) built from right, down and
    diagonal steps, summing |p_i - q_j| at each visited cell. Exponential on
    purpose: this is the independent oracle, kept free of any dynamic
    programming so it cannot share a bug with the implementation under test.
    With `band`, a path may visit only cells with |i - j| <= band; inf where
    none reaches the end.
    """
    p = [float(v) for v in p]
    q = [float(v) for v in q]
    l, m = len(p), len(q)
    best = [float("inf")]

    def walk(i, j, acc):
        if band is not None and abs(i - j) > band:
            return
        acc += abs(p[i] - q[j])
        if i == l - 1 and j == m - 1:
            if acc < best[0]:
                best[0] = acc
            return
        if i + 1 < l:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < l and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def graph_json_reference(g, classes=None):
    """Snapshot JSON as json.dumps renders it: the text export_graph must equal."""
    classes = classes or {}
    if isinstance(g, SignedGraph):
        tagged = [(a, b, "red") for a, b in g.red_edges]
        tagged += [(a, b, "blue") for a, b in g.blue_edges]
        edges = [{"a": a, "b": b, "color": c} for a, b, c in sorted(tagged)]
    else:
        edges = [{"a": a, "b": b} for a, b in sorted(g.edges)]
    payload = {
        "date": g.end_date.isoformat(),
        "nodes": [{"id": n, "class": classes.get(n, "other")} for n in sorted(g.nodes)],
        "edges": edges,
    }
    return json.dumps(payload, indent=2) + "\n"


@pytest.fixture
def dtw_oracle():
    return dtw_bruteforce


def component_sizes_reference(g):
    """Node counts of the graph's connected components, largest first, from a
    plain union-find over its id edges."""
    root = {node: node for node in g.nodes}

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for a, b in g.edges:
        root[find(a)] = find(b)
    return sorted(Counter(find(node) for node in g.nodes).values(), reverse=True)


def hub_ids_reference(sg, k):
    """(closer, farther) hub ids: the nodes with at least `k` blue, resp. red,
    edges, from plain degree counts."""
    return tuple(
        {node for node, degree in Counter(x for edge in edges for x in edge).items() if degree >= k}
        for edges in (sg.blue_edges, sg.red_edges)
    )


def graph_metrics_row(g, sg, k):
    """A date's metrics read off its co-occurrence graph and, when there is
    one, its differential graph with hub degree `k`, without the library's
    network code: the reference that the pipeline's array metrics must
    equal. The entropy is summed largest cluster first, as documented, in a
    plain loop: `sum` compensates its rounding from Python 3.12 on."""
    sizes = component_sizes_reference(g)
    n = len(g.nodes)
    gbe = 0.0
    for s in sizes:
        gbe -= s / n * math.log2(s / n)
    row = {"gbe": gbe + 0.0, "n_components": len(sizes), "n_cooc_edges": len(g.edges)}
    if sg is not None:
        closer, farther = hub_ids_reference(sg, k)
        row.update(
            n_red_edges=len(sg.red_edges),
            n_blue_edges=len(sg.blue_edges),
            n_farther_hubs=len(farther),
            n_closer_hubs=len(closer),
        )
    return MetricsRow(end_date=g.end_date, **row)


def build_panel(values, directions=None, classes=None, dates=None):
    """PricePanel from a raw (n_dates, n_assets) array with stub metadata."""
    values = np.asarray(values, dtype=float)
    n = values.shape[1]
    directions = directions or [1] * n
    classes = classes or ["stock"] * n
    assets = [
        AssetMeta(f"a{i:02d}", f"Asset {i}", classes[i], directions[i]) for i in range(n)
    ]
    if dates is None:
        from datetime import date, timedelta

        start = date(2020, 1, 1)
        dates = [start + timedelta(days=i) for i in range(values.shape[0])]
    return PricePanel(dates=dates, assets=assets, values=values)


@pytest.fixture
def panel_factory():
    return build_panel
