import dataclasses
import math
from datetime import date, timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import graph_metrics_row, hub_ids_reference
from market_rewire import (
    DistanceMatrix,
    Graph,
    SignedGraph,
    connected_components,
    cooccurrence_network,
    count_hubs,
    difference_matrix,
    differential_network,
    graph_based_entropy,
)
from market_rewire import networks
from market_rewire.networks import _edge_search, day_metrics

D0 = date(2020, 3, 2)


def dm_from(matrix, ids=None):
    matrix = np.asarray(matrix, dtype=float)
    ids = ids or tuple(f"a{i:02d}" for i in range(matrix.shape[0]))
    return DistanceMatrix(end_date=D0, asset_ids=ids, d=matrix)


def test_cooccurrence_strict_threshold():
    dm = dm_from([[0.0, 1.99], [1.99, 0.0]])
    assert cooccurrence_network(dm, 2.0).edges == {("a00", "a01")}

    dm = dm_from([[0.0, 2.0], [2.0, 0.0]])
    assert cooccurrence_network(dm, 2.0).edges == frozenset()


def test_cooccurrence_keeps_isolated_nodes():
    dm = dm_from(np.full((4, 4), 100.0) - 100.0 * np.eye(4))
    g = cooccurrence_network(dm, 2.0)
    assert g.nodes == ("a00", "a01", "a02", "a03")
    assert g.edges == frozenset()


def test_cooccurrence_threshold_validated():
    with pytest.raises(ValueError, match="> 0"):
        cooccurrence_network(dm_from([[0.0]] ), 0.0)


def test_threshold_monotonicity():
    rng = np.random.default_rng(8)
    raw = rng.uniform(0, 5, (10, 10))
    sym = (raw + raw.T) / 2
    np.fill_diagonal(sym, 0.0)
    dm = dm_from(sym)
    for lo, hi in [(0.5, 1.0), (1.0, 2.5), (2.5, 4.9)]:
        assert cooccurrence_network(dm, lo).edges <= cooccurrence_network(dm, hi).edges


def test_connected_components_textbook():
    g = Graph(end_date=D0, nodes=("a", "b", "c", "d"), edges={("a", "b"), ("b", "c")})
    comps = connected_components(g)
    assert sorted(sorted(c) for c in comps) == [["a", "b", "c"], ["d"]]


def test_connected_components_no_edges_and_complete():
    nodes = tuple("abcde")
    empty = Graph(end_date=D0, nodes=nodes, edges=frozenset())
    assert sorted(len(c) for c in connected_components(empty)) == [1] * 5

    complete = Graph(
        end_date=D0,
        nodes=nodes,
        edges={(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]},
    )
    assert len(connected_components(complete)) == 1


def test_gbe_analytic_values():
    assert graph_based_entropy([{"a", "b", "c"}, {"d", "e", "f"}]) == 1.0
    assert graph_based_entropy([set(map(str, range(49)))]) == 0.0
    assert math.copysign(1.0, graph_based_entropy([{"a"}])) == 1.0  # +0.0, not -0.0
    assert graph_based_entropy([{"a", "b", "c", "d"}, {"e", "f"}]) == pytest.approx(
        0.9182958340544896, abs=1e-12
    )
    assert graph_based_entropy([]) == 0.0
    for n in (2, 5, 16, 49):
        singletons = [{f"n{i}"} for i in range(n)]
        assert graph_based_entropy(singletons) == pytest.approx(math.log2(n), abs=1e-12)


def test_gbe_bounds_and_equal_size_maximum():
    rng = np.random.default_rng(21)
    for _ in range(50):
        k = int(rng.integers(1, 8))
        comps = [set(f"c{i}_{j}" for j in range(int(rng.integers(1, 9)))) for i in range(k)]
        h = graph_based_entropy(comps)
        assert 0.0 <= h <= math.log2(k) + 1e-12
        if len({len(c) for c in comps}) == 1:
            assert h == pytest.approx(math.log2(k), abs=1e-12)


def test_gbe_order_invariant():
    comps = [set("abc"), set("de"), {"f"}]
    assert graph_based_entropy(comps) == graph_based_entropy(comps[::-1])


@given(st.lists(st.integers(0, 60), max_size=60))
def test_cached_size_entropy_gives_the_plain_loops_bits(sizes):
    """The entropy memoized per sorted size tuple, from a first call or from
    the cache, is the one of the plain loop over the sizes largest first."""
    positive = sorted((s for s in sizes if s > 0), reverse=True)
    total = sum(positive)
    h = 0.0
    for s in positive:
        p = s / total
        h -= p * math.log2(p)
    expected = (h + 0.0).hex()
    clusters = [set(range(s)) for s in sizes]
    assert graph_based_entropy(clusters).hex() == expected
    assert graph_based_entropy(clusters[::-1]).hex() == expected
    assert networks._sorted_size_entropy.__wrapped__(tuple(positive)).hex() == expected
    assert networks._sorted_size_entropy.cache_info().maxsize is not None  # bounded


def test_merging_components_never_increases_count_and_collapse_zeroes_gbe():
    nodes = tuple(f"n{i}" for i in range(6))
    sparse = Graph(end_date=D0, nodes=nodes, edges={("n0", "n1"), ("n2", "n3")})
    before = connected_components(sparse)
    merged = Graph(
        end_date=D0, nodes=nodes, edges=sparse.edges | {("n1", "n2")}
    )
    after = connected_components(merged)
    assert len(after) <= len(before)

    chain = {(f"n{i}", f"n{i+1}") for i in range(5)}
    collapsed = Graph(end_date=D0, nodes=nodes, edges=chain)
    comps = connected_components(collapsed)
    assert len(comps) == 1
    assert graph_based_entropy(comps) == 0.0


def test_difference_matrix():
    a = dm_from([[0.0, 3.5], [3.5, 0.0]])
    b = dm_from([[0.0, 1.0], [1.0, 0.0]])
    diff = difference_matrix(a, b)
    assert diff[0, 1] == 2.5
    np.testing.assert_array_equal(diff, diff.T)
    np.testing.assert_array_equal(difference_matrix(a, a), np.zeros((2, 2)))


def test_difference_matrix_asset_mismatch():
    a = dm_from([[0.0, 1.0], [1.0, 0.0]], ids=("x", "y"))
    b = dm_from([[0.0, 1.0], [1.0, 0.0]], ids=("x", "z"))
    with pytest.raises(ValueError, match="asset sets differ"):
        difference_matrix(a, b)


def test_differential_network_strict_thresholds():
    ids = ("a", "b", "c")
    diff = np.zeros((3, 3))
    diff[0, 1] = diff[1, 0] = 1.5
    diff[0, 2] = diff[2, 0] = -1.5
    diff[1, 2] = diff[2, 1] = 1.0  # exactly delta: no edge
    sg = differential_network(diff, 1.0, ids, D0)
    assert sg.red_edges == {("a", "b")}
    assert sg.blue_edges == {("a", "c")}

    diff[1, 2] = diff[2, 1] = -1.0
    sg = differential_network(diff, 1.0, ids, D0)
    assert sg.blue_edges == {("a", "c")}


# unchecked, a NaN change compares false both ways and gives no edge, and an
# infinite one gives a red or blue edge
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_differential_network_rejects_non_finite_changes(bad):
    diff = np.zeros((3, 3))
    diff[0, 1] = diff[1, 0] = bad
    with pytest.raises(ValueError, match="difference matrix entries must be finite"):
        differential_network(diff, 1.0, ("a", "b", "c"), D0)


def test_differential_network_rejects_a_matrix_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"^difference matrix shape \(2, 2\) does not match 3 assets$"):
        differential_network(np.zeros((2, 2)), 1.0, ("a", "b", "c"), D0)


def test_differential_network_rejects_an_asymmetric_matrix():
    # read from its upper triangle alone, this would give one red edge
    with pytest.raises(ValueError, match="difference matrix must be symmetric"):
        differential_network(np.array([[0.0, 5.0], [-5.0, 0.0]]), 1.0, ("a", "b"), D0)


def test_differential_swap_exchanges_colors():
    rng = np.random.default_rng(13)
    raw = rng.uniform(0, 6, (8, 8))
    x_prev = (raw + raw.T) / 2
    raw2 = rng.uniform(0, 6, (8, 8))
    x_t = (raw2 + raw2.T) / 2
    np.fill_diagonal(x_prev, 0.0)
    np.fill_diagonal(x_t, 0.0)
    ids = tuple(f"a{i}" for i in range(8))
    fwd = differential_network(x_t - x_prev, 1.0, ids, D0)
    rev = differential_network(x_prev - x_t, 1.0, ids, D0)
    assert fwd.red_edges == rev.blue_edges
    assert fwd.blue_edges == rev.red_edges
    assert not (fwd.red_edges & fwd.blue_edges)


def test_count_hubs_per_color_degree():
    nodes = ("h", "x", "y", "z", "w")
    sg = SignedGraph(
        end_date=D0,
        nodes=nodes,
        red_edges=frozenset(),
        blue_edges={("h", "x"), ("h", "y"), ("h", "z")},
    )
    counts = count_hubs(sg, 3)
    assert counts.n_closer_hubs == 1
    assert counts.closer_hub_ids == {"h"}
    assert counts.n_farther_hubs == 0

    # 2 blue + 2 red edges is not enough for either hub type at k=3
    mixed = SignedGraph(
        end_date=D0,
        nodes=nodes,
        red_edges={("h", "x"), ("h", "y")},
        blue_edges={("h", "z"), ("h", "w")},
    )
    counts = count_hubs(mixed, 3)
    assert counts.n_closer_hubs == 0 and counts.n_farther_hubs == 0


def test_count_hubs_node_can_be_both():
    nodes = tuple("hxyzuvw")
    sg = SignedGraph(
        end_date=D0,
        nodes=nodes,
        red_edges={("h", "x"), ("h", "y"), ("h", "z")},
        blue_edges={("h", "u"), ("h", "v"), ("h", "w")},
    )
    counts = count_hubs(sg, 3)
    assert counts.closer_hub_ids == {"h"}
    assert counts.farther_hub_ids == {"h"}


def test_count_hubs_empty_and_validation():
    sg = SignedGraph(end_date=D0, nodes=("a", "b"), red_edges=frozenset(), blue_edges=frozenset())
    assert count_hubs(sg, 3) == (0, 0, frozenset(), frozenset())
    with pytest.raises(ValueError, match=">= 1"):
        count_hubs(sg, 0)


def test_count_hubs_relabeling_invariance():
    rng = np.random.default_rng(4)
    ids = tuple(f"n{i}" for i in range(9))
    pairs = [(ids[i], ids[j]) for i in range(9) for j in range(i + 1, 9)]
    chosen = [pairs[k] for k in rng.choice(len(pairs), size=16, replace=False)]
    red = frozenset(chosen[:8])
    blue = frozenset(chosen[8:])
    sg = SignedGraph(end_date=D0, nodes=ids, red_edges=red, blue_edges=blue)

    mapping = {n: f"renamed_{n}" for n in ids}
    sg2 = SignedGraph(
        end_date=D0,
        nodes=tuple(mapping[n] for n in ids),
        red_edges={(mapping[a], mapping[b]) for a, b in red},
        blue_edges={(mapping[a], mapping[b]) for a, b in blue},
    )
    c1, c2 = count_hubs(sg, 2), count_hubs(sg2, 2)
    assert (c1.n_closer_hubs, c1.n_farther_hubs) == (c2.n_closer_hubs, c2.n_farther_hubs)
    assert {mapping[n] for n in c1.closer_hub_ids} == c2.closer_hub_ids
    assert {mapping[n] for n in c1.farther_hub_ids} == c2.farther_hub_ids


@pytest.mark.parametrize(
    "edges, what",
    [
        (None, "edges must be a collection of id pairs, got None"),
        ("ab", "edges must be a collection of id pairs, got 'ab'"),
        ([("a", "b", "a")], "edge ('a', 'b', 'a') is not a pair of ids"),
        (["ab"], "edge 'ab' is not a pair of ids"),
        ([("a",)], "edge ('a',) is not a pair of ids"),
        ([5], "edge 5 is not a pair of ids"),
    ],
)
def test_edges_must_be_pairs_of_ids(edges, what):
    # None raised a bare TypeError, a three-item edge the unpacking
    # ValueError, and the string "ab" passed as the edge ('a', 'b')
    nodes = ("a", "b")
    for kind, make in [
        ("graph", lambda: Graph(D0, nodes, edges)),
        ("signed graph (red)", lambda: SignedGraph(D0, nodes, edges, ())),
        ("signed graph (blue)", lambda: SignedGraph(D0, nodes, (), edges)),
    ]:
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == f"{kind}: {what}"


def test_graph_type_validation():
    with pytest.raises(ValueError, match="^duplicate node ids$"):
        Graph(end_date=D0, nodes=("a", "b", "a"), edges=set())
    with pytest.raises(ValueError, match="self-loop"):
        Graph(end_date=D0, nodes=("a", "b"), edges={("a", "a")})
    with pytest.raises(ValueError, match="outside the node set"):
        Graph(end_date=D0, nodes=("a", "b"), edges={("a", "zz")})
    with pytest.raises(ValueError, match="disjoint"):
        SignedGraph(
            end_date=D0,
            nodes=("a", "b"),
            red_edges={("a", "b")},
            blue_edges={("b", "a")},
        )


@pytest.fixture(scope="module")
def scipy_sparse():
    return pytest.importorskip("scipy.sparse"), pytest.importorskip("scipy.sparse.csgraph")


@given(
    st.integers(1, 30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n),
        )
    )
)
def test_connected_components_match_scipy(scipy_sparse, case):
    sparse, csgraph = scipy_sparse
    n, pairs = case
    pairs = [(a, b) for a, b in pairs if a != b]
    nodes = tuple(f"n{i:02d}" for i in range(n))
    g = Graph(end_date=D0, nodes=nodes, edges={(nodes[a], nodes[b]) for a, b in pairs})

    rows = [a for a, _ in pairs]
    cols = [b for _, b in pairs]
    adj = sparse.coo_matrix(([1] * len(pairs), (rows, cols)), shape=(n, n))
    n_ref, labels = csgraph.connected_components(adj, directed=False)
    expected = {frozenset(nodes[i] for i in range(n) if labels[i] == k) for k in range(n_ref)}

    comps = connected_components(g)
    assert {frozenset(c) for c in comps} == expected
    assert len(comps) == n_ref
    # components come in order of their first node's position in g.nodes
    firsts = [min(nodes.index(x) for x in c) for c in comps]
    assert firsts == sorted(firsts)


@st.composite
def day_pairs(draw):
    """Two symmetric distance matrices over n assets. Halves in [0, 6] put
    entries exactly on the co-occurrence threshold 2.0 and exact changes on
    +/-1.0; some entries are arbitrary floats. Isolated assets are far from
    every other on the current date, and ids are not in sorted order."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exact = draw(st.floats(0, 1))

    def matrix():
        m = np.where(rng.random((n, n)) < exact, rng.integers(0, 13, (n, n)) / 2, rng.uniform(0, 6, (n, n)))
        m = np.triu(m, k=1)
        return m + m.T

    cur, prev = matrix(), matrix()
    isolated = sorted(draw(st.sets(st.integers(0, n - 1))))
    cur[isolated, :] = cur[:, isolated] = 9.0
    np.fill_diagonal(cur, 0.0)
    ids = tuple(f"a{p:02d}" for p in draw(st.permutations(range(n))))
    return ids, cur, prev, draw(st.integers(1, 4))


@given(day_pairs())
def test_day_metrics_equal_the_graph_path(case):
    ids, cur, prev, k = case
    n = len(ids)
    dm = DistanceMatrix(D0, ids, cur)
    before = DistanceMatrix(D0, ids, prev)
    pairs = np.triu_indices(n, k=1)
    upper, earlier = cur[pairs], prev[pairs]
    g = cooccurrence_network(dm, 2.0)
    sg = differential_network(difference_matrix(dm, before), 1.0, ids, D0)
    none = np.zeros_like(upper, dtype=bool)
    # each network of a date: the strict comparison and the graph path's edges
    first_date = [(earlier < 2.0, cooccurrence_network(before, 2.0).edges), (none, set()), (none, set())]
    no_differential = [(upper < 2.0, g.edges), (none, set()), (none, set())]
    later_date = [
        (upper < 2.0, g.edges),
        (upper - earlier > 1.0, sg.red_edges),
        (upper - earlier < -1.0, sg.blue_edges),
    ]

    def edge_runs(block, networks_by_date):
        """The rows of a block, after checking each date's runs of edge
        positions against the comparisons and edge sets of its networks."""
        rows, at, starts = block
        days = len(rows)
        assert len(starts) == 3 * days + 1
        for d, networks in enumerate(networks_by_date):
            for c, (mask, edges) in enumerate(networks):
                positions = at[starts[c * days + d] : starts[c * days + d + 1]]
                assert positions.tolist() == np.flatnonzero(mask).tolist()
                assert {
                    tuple(sorted((ids[pairs[0][p]], ids[pairs[1][p]]))) for p in positions.tolist()
                } == edges
        return rows

    [first] = edge_runs(day_metrics([D0], _edge_search(n, pairs), upper[None], None, 2.0, 1.0, k), [no_differential])
    assert first == graph_metrics_row(g, None, k)
    [later] = edge_runs(day_metrics([D0], _edge_search(n, pairs), upper[None], earlier, 2.0, 1.0, k), [later_date])
    assert later == graph_metrics_row(g, sg, k)
    # the same two dates as one block: the first has no differential, and
    # the second's is taken against the first
    D1 = D0 + timedelta(days=1)
    block = day_metrics([D0, D1], _edge_search(n, pairs), np.stack((earlier, upper)), None, 2.0, 1.0, k)
    assert edge_runs(block, [first_date, later_date]) == [
        graph_metrics_row(cooccurrence_network(before, 2.0), None, k),
        dataclasses.replace(graph_metrics_row(g, sg, k), end_date=D1),
    ]


@st.composite
def signed_graphs(draw):
    """A signed graph over up to 30 ids in unsorted order, some of them
    isolated, with a color drawn for each edge, and a hub degree."""
    n = draw(st.integers(1, 30))
    ids = tuple(f"n{p}" for p in draw(st.permutations(range(n))))
    isolated = draw(st.sets(st.integers(0, n - 1)))
    ends = st.integers(0, n - 1)
    red = {}
    for a, b, is_red in draw(st.lists(st.tuples(ends, ends, st.booleans()), max_size=3 * n)):
        if a != b and not {a, b} & isolated:
            red[min(ids[a], ids[b]), max(ids[a], ids[b])] = is_red
    return SignedGraph(
        D0, ids, {e for e, r in red.items() if r}, {e for e, r in red.items() if not r}
    ), draw(st.integers(1, 4))


@given(signed_graphs())
def test_count_hubs_ids_equal_plain_degree_counts(case):
    sg, k = case
    closer, farther = hub_ids_reference(sg, k)
    assert count_hubs(sg, k) == (len(closer), len(farther), closer, farther)


@st.composite
def metric_blocks(draw):
    """A block of 1 to 5 dates of distances over n assets, the previous
    date's or None, and thresholds drawn from the block's own distances and
    changes, so that some entries sit exactly on them. Half-integer values
    make exact ties in the changes too."""
    n, days = draw(st.integers(2, 40)), draw(st.integers(1, 5))
    m = n * (n - 1) // 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, 13, (days + 1, m)) / 2 if draw(st.booleans()) else rng.uniform(0, 6, (days + 1, m))
    prev, dist = values[0], values[1:]
    given_prev = draw(st.booleans())
    change = np.diff(values if given_prev else dist, axis=0)
    theta = draw(st.sampled_from(dist.ravel().tolist())) + draw(st.sampled_from([0.0, 0.5]))
    delta = abs(draw(st.sampled_from(change.ravel().tolist() or [1.0])))
    return n, dist, prev if given_prev else None, max(theta, 0.5), max(delta, 0.5), draw(st.integers(1, 4))


@pytest.mark.usefixtures("c_kernel")
@given(metric_blocks())
def test_compiled_edge_search_equals_the_numpy_path(case):
    n, dist, prev, theta, delta, k = case
    dates = [D0 + timedelta(days=d) for d in range(len(dist))]
    pairs = np.triu_indices(n, k=1)
    compiled = day_metrics(dates, _edge_search(n, pairs), dist, prev, theta, delta, k)
    kernel, networks.dtw._kernel = networks.dtw._kernel, None
    try:
        numpy_path = day_metrics(dates, _edge_search(n, pairs), dist, prev, theta, delta, k)
    finally:
        networks.dtw._kernel = kernel
    rows, at, starts = compiled
    assert rows == numpy_path[0]
    assert at.dtype == numpy_path[1].dtype and at.tolist() == numpy_path[1].tolist()
    assert starts.tolist() == numpy_path[2].tolist()


@pytest.mark.parametrize("kernel", ["c_kernel", "numpy_kernel"])
def test_day_metrics_compare_against_the_thresholds_as_floats(kernel, request):
    """A distance of float(1/3) lies below the rational 1/3 but not below
    the float it rounds to, which both edge searches compare against."""
    request.getfixturevalue(kernel)
    third = float(Fraction(1, 3))
    pairs = np.triu_indices(2, k=1)
    for theta, delta in [(Fraction(1, 3), Fraction(1, 3)), (third, third)]:
        [row], at, starts = day_metrics([D0], _edge_search(2, pairs), np.array([[third]]), np.array([0.0]), theta, delta, 1)
        # not a co-occurrence edge, and a change of exactly delta is no red edge
        assert (row.n_cooc_edges, row.n_red_edges, row.n_farther_hubs) == (0, 0, 0)
        assert at.tolist() == [] and starts.tolist() == [0, 0, 0, 0]


@pytest.mark.usefixtures("c_kernel")
def test_compiled_edge_search_checks_its_arrays():
    pairs = np.triu_indices(4, k=1)
    dist, prev = np.linspace(0, 3, 12).reshape(2, 6), np.zeros(6)
    for args in [
        (pairs, dist.astype(np.float32), prev),
        (pairs, np.asfortranarray(dist), prev),
        ((pairs[0].astype(np.int32), pairs[1]), dist, prev),
        ((pairs[0][:5], pairs[1][:5]), dist, prev),
        (pairs, dist, prev[:5]),
        (pairs, dist, np.zeros(12)[::2]),
    ]:
        with pytest.raises(ValueError, match="edge search takes"):
            day_metrics([D0, D0 + timedelta(days=1)][: len(args[1])], _edge_search(4, args[0]), *args[1:], 2.0, 1.0, 1)
    # a pair index outside the assets, past either end
    for ii in ([0, 0, 0, 1, 1, 4], [0, 0, 0, 1, 1, -1]):
        with pytest.raises(IndexError, match="outside 0 .. 3"):
            day_metrics([D0, D0], _edge_search(4, (np.array(ii), pairs[1])), dist, prev, 9.0, 1.0, 1)
