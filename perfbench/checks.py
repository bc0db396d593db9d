"""Correctness checks with references the benchmark computes itself."""

import math
import sys

import numpy as np

from market_rewire import dtw_distance


class Checker:
    """Counts attempted and failed checks; a failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def scalar_sample(values: np.ndarray, d: np.ndarray, day, n_pairs: int, rng, ck: Checker) -> None:
    """Recompute a seeded sample of one day's pairs with the scalar
    `dtw_distance` over the day's windows (`values`, one row per asset); the
    batched distances `d` must agree bitwise."""
    for _ in range(n_pairs):
        i, j = sorted(rng.choice(len(values), size=2, replace=False).tolist())
        ref = dtw_distance(values[i], values[j])
        ck.check(
            d[i, j] == ref and d[j, i] == ref,
            f"{day}: distance_matrix[{i},{j}]={d[i, j]!r} but dtw_distance gives {ref!r}",
        )


def _component_sizes(adjacent: np.ndarray) -> list[int]:
    n = adjacent.shape[0]
    root = list(range(n))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for i, j in zip(*np.nonzero(np.triu(adjacent, k=1))):
        root[find(int(i))] = find(int(j))
    sizes: dict[int, int] = {}
    for a in range(n):
        r = find(a)
        sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.values(), reverse=True)


def reference_row(d: np.ndarray, prev: np.ndarray | None, config) -> dict:
    """One date's metrics row from its distance matrix (and the previous
    date's), computed without the library's network code."""
    cooc, diff, hub = config.cooc_threshold, config.diff_threshold, config.hub_min_degree
    n = d.shape[0]
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    sizes = _component_sizes(d < cooc)
    gbe = -sum((s / n) * math.log2(s / n) for s in sizes) + 0.0
    row = {
        "gbe": gbe,
        "n_components": len(sizes),
        "n_cooc_edges": int(((d < cooc) & upper).sum()),
        "n_red_edges": None,
        "n_blue_edges": None,
        "n_farther_hubs": None,
        "n_closer_hubs": None,
    }
    if prev is not None:
        delta = d - prev
        red = (delta > diff) & upper
        blue = (delta < -diff) & upper
        red_deg = red.sum(axis=0) + red.sum(axis=1)
        blue_deg = blue.sum(axis=0) + blue.sum(axis=1)
        row.update(
            n_red_edges=int(red.sum()),
            n_blue_edges=int(blue.sum()),
            n_farther_hubs=int((red_deg >= hub).sum()),
            n_closer_hubs=int((blue_deg >= hub).sum()),
        )
    return row


def rows_match(actual: dict, ref: dict) -> bool:
    """Integer fields equal, entropy equal to within float rounding."""
    for key, want in ref.items():
        got = actual[key]
        if key == "gbe":
            if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
                return False
        elif got != want:
            return False
    return True


def row_dict(row) -> dict:
    """A `MetricsRow` as a plain dict keyed like `reference_row`."""
    return {
        "gbe": row.gbe,
        "n_components": row.n_components,
        "n_cooc_edges": row.n_cooc_edges,
        "n_red_edges": row.n_red_edges,
        "n_blue_edges": row.n_blue_edges,
        "n_farther_hubs": row.n_farther_hubs,
        "n_closer_hubs": row.n_closer_hubs,
    }
