import gc
import re
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from conftest import dtw_bruteforce
from hypothesis import given, strategies as st

from market_rewire import DistanceMatrix, StandardizedWindow, _native, distance_matrix, dtw, dtw_distance


sequences = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=8
)


def test_identical_sequences_zero():
    assert dtw_distance([0.3, -1.2, 0.9], [0.3, -1.2, 0.9]) == 0.0


def test_hand_traced_example():
    assert dtw_distance([1, 2, 3], [2, 3, 4]) == 2.0


def test_unequal_lengths():
    # single point aligned against both elements: 5 + 5
    assert dtw_distance([0.0], [5.0, 5.0]) == 10.0


def test_matches_bruteforce_on_random_integer_pairs(dtw_oracle):
    rng = np.random.default_rng(2024)
    for _ in range(60):
        p = rng.integers(-9, 10, size=rng.integers(1, 7)).tolist()
        q = rng.integers(-9, 10, size=rng.integers(1, 7)).tolist()
        assert dtw_distance(p, q) == dtw_oracle(p, q)


@given(sequences, sequences)
def test_symmetry(p, q):
    assert dtw_distance(p, q) == dtw_distance(q, p)


@given(sequences)
def test_self_distance_zero(p):
    assert dtw_distance(p, p) == 0.0


@given(sequences, sequences)
def test_non_negative(p, q):
    assert dtw_distance(p, q) >= 0.0


@given(st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-100, 100), min_size=n, max_size=n),
        st.lists(st.integers(-100, 100), min_size=n, max_size=n),
    )
))
def test_warping_never_beats_rigid_alignment(pq):
    p, q = pq
    rigid = float(sum(abs(a - b) for a, b in zip(p, q)))
    assert dtw_distance(p, q) <= rigid


def test_band_zero_is_rigid_alignment():
    rng = np.random.default_rng(5)
    p = rng.normal(size=12)
    q = rng.normal(size=12)
    rigid = float(np.abs(p - q).sum())
    assert dtw_distance(p, q, band=0) == pytest.approx(rigid, abs=1e-12)


def test_wide_band_equals_unconstrained():
    rng = np.random.default_rng(6)
    p = rng.normal(size=10)
    q = rng.normal(size=10)
    assert dtw_distance(p, q, band=9) == dtw_distance(p, q)


def test_band_validation():
    with pytest.raises(ValueError, match="band"):
        dtw_distance([1.0, 2.0], [1.0, 2.0], band=-1)
    for band in (0.9, 1.0, True):
        with pytest.raises(ValueError, match="integer"):
            dtw_distance([1.0, 2.0], [1.0, 2.0], band=band)
        with pytest.raises(ValueError, match="integer"):
            distance_matrix(_windows([[1.0, 2.0], [2.0, 1.0]]), band=band)


def test_input_validation():
    with pytest.raises(ValueError, match="non-empty"):
        dtw_distance([], [1.0])
    with pytest.raises(ValueError, match="non-finite"):
        dtw_distance([1.0, np.inf], [1.0, 2.0])
    with pytest.raises(ValueError, match="^sequences must be one-dimensional$"):
        dtw_distance([[1.0, 2.0]], [1.0, 2.0])
    # row 2 of a 3 x 2 table has no cell within band 0
    with pytest.raises(ValueError, match="^band half-width 0 admits no complete warping path$"):
        dtw_distance([1.0, 2.0, 3.0], [1.0, 2.0], band=0)


def _windows(arrays, end=date(2020, 6, 1)):
    return [
        StandardizedWindow(asset_id=f"a{i:02d}", end_date=end, values=np.asarray(v, float))
        for i, v in enumerate(arrays)
    ]


@pytest.mark.usefixtures("c_kernel")
def test_matrix_of_identical_windows_is_zero():
    dm = distance_matrix(_windows([[0.1, -0.5, 1.0], [0.1, -0.5, 1.0]]))
    np.testing.assert_array_equal(dm.d, np.zeros((2, 2)))


@pytest.mark.usefixtures("c_kernel")
def test_matrix_matches_scalar_dtw_bitwise():
    rng = np.random.default_rng(99)
    arrays = rng.normal(size=(7, 20))
    dm = distance_matrix(_windows(arrays))
    assert dm.d.shape == (7, 7)
    for i in range(7):
        assert dm.d[i, i] == 0.0
        for j in range(i + 1, 7):
            expected = dtw_distance(arrays[i], arrays[j])
            assert dm.d[i, j] == expected
            assert dm.d[j, i] == expected


@pytest.mark.usefixtures("c_kernel")
def test_matrix_with_band_matches_scalar():
    rng = np.random.default_rng(17)
    arrays = rng.normal(size=(4, 12))
    dm = distance_matrix(_windows(arrays), band=2)
    for i in range(4):
        for j in range(i + 1, 4):
            assert dm.d[i, j] == dtw_distance(arrays[i], arrays[j], band=2)


def test_matrix_rejects_mismatched_end_dates():
    wins = _windows([[1.0, 2.0], [1.0, 2.0]])
    wins[1].end_date = date(2021, 1, 1)
    with pytest.raises(ValueError, match="end dates"):
        distance_matrix(wins)


def test_matrix_rejects_mismatched_lengths():
    wins = _windows([[1.0, 2.0], [1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="lengths"):
        distance_matrix(wins)


@pytest.mark.parametrize(
    "arrays, message",
    [
        ([], "need at least one window"),
        ([[], []], "windows must be non-empty"),
        ([[1.0, 2.0], [np.nan, 2.0]], "windows contain non-finite values"),
    ],
)
def test_matrix_rejects_no_windows_empty_windows_and_non_finite_ones(arrays, message):
    with pytest.raises(ValueError) as err:
        distance_matrix(_windows(arrays))
    assert str(err.value) == message


def test_distance_matrix_type_validation():
    from market_rewire import DistanceMatrix

    with pytest.raises(ValueError, match="shape"):
        DistanceMatrix(end_date=date(2020, 1, 1), asset_ids=("a", "b"), d=np.zeros((3, 3)))
    with pytest.raises(ValueError, match="unique"):
        DistanceMatrix(end_date=date(2020, 1, 1), asset_ids=("a", "a"), d=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        DistanceMatrix(
            end_date=date(2020, 1, 1), asset_ids=("a", "b"), d=np.full((2, 2), np.nan)
        )


def test_distance_matrix_rejects_an_asymmetric_matrix():
    with pytest.raises(ValueError, match="symmetric"):
        DistanceMatrix(date(2020, 1, 1), ("a", "b"), [[0.0, 5.0], [1.0, 0.0]])


def test_distance_matrix_rejects_a_nonzero_diagonal():
    with pytest.raises(ValueError, match="diagonal must be zero"):
        DistanceMatrix(date(2020, 1, 1), ("a", "b"), [[0.0, 1.0], [1.0, 0.5]])



def test_distance_matrix_stays_read_only_after_pickling():
    import pickle

    dm = distance_matrix([StandardizedWindow(a, date(2020, 1, 1), np.array(v)) for a, v in
                          (("a", [0.0, 1.0, -1.0]), ("b", [1.0, 0.0, -1.0]))])
    back = pickle.loads(pickle.dumps(dm))
    np.testing.assert_array_equal(back.d, dm.d)
    assert back.asset_ids == dm.asset_ids and back.end_date == dm.end_date
    with pytest.raises(ValueError):
        back.d[0, 1] = 99.0


finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def day_with_band(draw):
    """n windows of equal length w, and a band from None or 0..w+1."""
    n = draw(st.integers(2, 8))
    w = draw(st.integers(1, 24))
    rows = draw(st.lists(st.lists(finite, min_size=w, max_size=w), min_size=n, max_size=n))
    band = draw(st.none() | st.integers(0, w + 1))
    return np.array(rows), band


@pytest.mark.usefixtures("c_kernel")
@given(day_with_band())
def test_matrix_equals_scalar_bitwise_for_any_shape_and_band(case):
    arrays, band = case
    # blocks of 3 pairs, so up to 28 pairs span many block edges
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dtw, "_PAIR_BLOCK", 3)
        dm = distance_matrix(_windows(arrays), band=band)
    n = len(arrays)
    for i in range(n):
        assert dm.d[i, i] == 0.0
        for j in range(i + 1, n):
            expected = dtw_distance(arrays[i], arrays[j], band=band)
            assert dm.d[i, j] == expected
            assert dm.d[j, i] == expected


@pytest.mark.usefixtures("c_kernel")
def test_matrix_equals_scalar_across_the_real_block_edge():
    n = 70  # 2415 pairs: one full block and a partial one
    assert n * (n - 1) // 2 > dtw._PAIR_BLOCK
    arrays = np.random.default_rng(70).normal(size=(n, 20))
    dm = distance_matrix(_windows(arrays))
    ii, jj = np.triu_indices(n, k=1)
    edge = dtw._PAIR_BLOCK
    for p in [0, *range(edge - 3, edge + 3), ii.size - 1]:
        i, j = ii[p], jj[p]
        assert dm.d[i, j] == dm.d[j, i] == dtw_distance(arrays[i], arrays[j])


@pytest.mark.usefixtures("c_kernel")
def test_matrix_equals_scalar_as_the_diagonal_plan_key_changes():
    """Twelve (w, band) keys, each used twice with other keys between: every
    matrix is the scalar DTW's."""
    keys = [(w, band) for band in (None, 0, 1, "w+1") for w in (2, 3, 20)]
    rng = np.random.default_rng(12)
    for w, band in keys + keys[::-1]:
        band = w + 1 if band == "w+1" else band
        arrays = rng.normal(size=(4, w))
        dm = distance_matrix(_windows(arrays), band=band)
        for i in range(4):
            for j in range(i + 1, 4):
                assert dm.d[i, j] == dm.d[j, i] == dtw_distance(arrays[i], arrays[j], band=band)


def test_pair_indices_are_cached_and_read_only():
    ii, jj = dtw._pair_indices(6)
    np.testing.assert_array_equal(ii, np.triu_indices(6, k=1)[0])
    np.testing.assert_array_equal(jj, np.triu_indices(6, k=1)[1])
    assert dtw._pair_indices(6)[0] is ii
    for a in (ii, jj):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 5


def test_pair_positions_invert_the_pair_indices():
    for n in range(2, 41):
        ii, jj = dtw._pair_indices(n)
        expected = np.arange(n * (n - 1) // 2)
        np.testing.assert_array_equal(dtw._pair_positions(n, ii, jj), expected)
        np.testing.assert_array_equal(dtw._pair_positions(n, jj, ii), expected)


@pytest.mark.usefixtures("c_kernel")
def test_one_day_peak_memory_stays_bounded():
    """One day over 400 assets: all 79,800 pairs in one batch peaked at 93 MB;
    fixed pair blocks keep the peak near 5 MB."""
    arrays = np.random.default_rng(400).normal(size=(400, 20))
    windows = _windows(arrays)
    tracemalloc.start()
    try:
        distance_matrix(windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.usefixtures("c_kernel")
def test_kernel_buffers_are_reused_across_days():
    """A warm 100-asset, w = 20 day, 4950 pairs over more than one pair block,
    allocates its scratch once: its traced peak stays under one pair block's
    wavefront scratch (2 MB) plus the day's two n x n matrices."""
    n, w = 100, 20
    rng = np.random.default_rng(100)
    first, second = (_windows(rng.normal(size=(n, w))) for _ in range(2))
    distance_matrix(first)
    tracemalloc.start()
    try:
        distance_matrix(second)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # P, Q, c and three diagonals of w + 1 cells over a full block, and the
    # matrix `distance_matrix` fills and the copy `DistanceMatrix` keeps
    assert peak < (6 * w + 3) * dtw._PAIR_BLOCK * 8 + 2 * n * n * 8


@pytest.mark.usefixtures("numpy_kernel")
def test_a_wavefront_call_holds_nothing_after_it_returns():
    """The wavefront's scratch and diagonal plan belong to one call: once
    `distance_matrix` returns, the only traced memory left is its matrix."""
    n, w = 90, 23  # 4005 pairs: a full block and a short one
    windows = _windows(np.random.default_rng(90).normal(size=(n, w)))
    dtw._pair_indices(n)  # cached for the run's every day; not the call's own
    tracemalloc.start()
    try:
        dm = distance_matrix(windows)
        held = tracemalloc.get_traced_memory()[0] - dm.d.nbytes
    finally:
        tracemalloc.stop()
    assert held < 16_000


@pytest.mark.usefixtures("c_kernel")
def test_matrix_equals_scalar_as_block_shapes_alternate():
    """Days whose block shapes alternate, with short last blocks, a band
    change on a kept shape and w changes: each matrix is the scalar DTW's."""
    rng = np.random.default_rng(13)
    # (n, w, band); with 7-pair blocks 8 assets make 4 full blocks, 9 assets
    # 5 and a 1-pair block, 6 assets 2 and a 1-pair block
    days = [(9, 12, None), (8, 12, None), (9, 12, 2), (6, 5, None), (9, 12, None),
            (8, 5, 1), (9, 5, None), (8, 12, 0), (9, 12, None)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dtw, "_PAIR_BLOCK", 7)
        for n, w, band in days:
            arrays = rng.normal(size=(n, w))
            dm = distance_matrix(_windows(arrays), band=band)
            for i in range(n):
                for j in range(i + 1, n):
                    assert dm.d[i, j] == dtw_distance(arrays[i], arrays[j], band=band)


@pytest.mark.usefixtures("c_kernel")
def test_concurrent_days_equal_serial_days_bitwise():
    """Four threads computing days of mixed (n, w, band) at once, many
    sharing a block shape, get exactly the serial results."""
    rng = np.random.default_rng(15)
    cases = [(n, w, band) for n in (20, 30) for w in (8, 20) for band in (None, 2)]
    days = [(rng.normal(size=(n, w)), band) for n, w, band in cases]

    def matrix(i):
        arrays, band = days[i % len(days)]
        return distance_matrix(_windows(arrays), band=band).d

    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dtw, "_PAIR_BLOCK", 50)
        serial = [matrix(i).tobytes() for i in range(len(days))]
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(matrix, range(40 * len(days)), timeout=60))
        finally:
            sys.setswitchinterval(interval)
    mismatches = [i for i, d in enumerate(got) if d.tobytes() != serial[i % len(days)]]
    assert mismatches == []


# The matrix-level tests above run on the compiled kernel; these run them again
# on the numpy wavefront. Both must give the scalar DTW's bits.
BOTH_KERNELS = [
    test_matrix_of_identical_windows_is_zero,
    test_matrix_matches_scalar_dtw_bitwise,
    test_matrix_with_band_matches_scalar,
    test_matrix_equals_scalar_bitwise_for_any_shape_and_band,
    test_matrix_equals_scalar_across_the_real_block_edge,
    test_matrix_equals_scalar_as_the_diagonal_plan_key_changes,
    test_one_day_peak_memory_stays_bounded,
    test_kernel_buffers_are_reused_across_days,
    test_matrix_equals_scalar_as_block_shapes_alternate,
    test_concurrent_days_equal_serial_days_bitwise,
]


@pytest.mark.parametrize("test", BOTH_KERNELS, ids=lambda test: test.__name__)
def test_on_the_numpy_wavefront(test, numpy_kernel):
    test()


@pytest.mark.usefixtures("c_kernel")
@pytest.mark.parametrize(
    "groups, extra, w, band",
    [
        (0, 1, 20, None),  # one pair
        (0, 5, 20, None),  # fewer pairs than one group
        (2, 5, 13, None),  # a short last group after full ones, odd w
        (1, 3, 1, None),  # w = 1
        (2, 5, 9, 0),  # band 0
        (1, 0, 7, 7),  # band w, whole groups only
        (2, 7, 7, 30),  # band past w
    ],
)
def test_compiled_kernel_equals_scalar_at_pair_group_edges(groups, extra, w, band):
    """Any pairs, an asset with itself among them, in one call of the kernel."""
    k = groups * _native.GROUP + extra
    rng = np.random.default_rng(31 * k + w)
    Z = rng.normal(size=(w, 12))
    ii, jj = rng.integers(0, 12, size=(2, k))
    out = np.full(k, np.nan)
    dtw._pair_distances(Z, ii, jj, band, out)
    assert out.tolist() == [dtw_distance(Z[:, i], Z[:, j], band=band) for i, j in zip(ii, jj)]


def _run_cases():
    """(n, ii, jj) for the runs the compiled kernel fills a group's lanes by:
    pairs (a, b), (a, b + 1), .. in one group."""
    rng = np.random.default_rng(8)
    triu = np.triu_indices(12, k=1)  # 66 pairs: groups straddle first assets, and a short last group
    order = rng.permutation(triu[0].size)
    pairs = [[0, 1], [0, 2], [0, 2], [0, 3], [3, 3], [3, 4], [1, 1], [1, 1], [2, 3]]
    return {
        "triu": (12, *triu),
        "triu_reversed": (12, triu[0][::-1], triu[1][::-1]),
        "shuffled": (12, triu[0][order], triu[1][order]),
        "repeated_and_self_pairs": (5, *np.array(pairs * 5).T),
        "run_through_itself": (8, np.full(8, 3), np.arange(8)),  # (3, 0) .. (3, 7)
        "runs_longer_than_a_group": (80, np.full(70, 5), np.arange(10, 80)),
        "two_assets": (2, np.array([0, 1, 0, 1, 0]), np.array([1, 0, 0, 1, 1])),
    }


@pytest.mark.usefixtures("c_kernel")
@pytest.mark.parametrize("case", _run_cases().items(), ids=lambda case: case[0])
def test_compiled_kernel_run_fills_equal_scalar(case):
    n, ii, jj = case[1]
    ii, jj = np.ascontiguousarray(ii, dtype=np.int64), np.ascontiguousarray(jj, dtype=np.int64)
    Z = np.random.default_rng(n).normal(size=(2, 7, n))  # two dates, w = 7
    out = np.full((2, ii.size), np.nan)
    dtw._pair_distances(Z, ii, jj, None, out)
    for d in range(2):
        assert out[d].tolist() == [dtw_distance(Z[d, :, i], Z[d, :, j]) for i, j in zip(ii, jj)]


@pytest.mark.usefixtures("c_kernel")
@pytest.mark.parametrize(
    "ii, jj",
    [
        # the last pair of a run past the end: at the end of a full group of
        # 32, mid-group, and at the end of a second group
        ([1] * 28 + [0] * 4, [2] * 28 + [1, 2, 3, 4]),
        ([1, 1, 0, 0, 0, 0, 2], [2, 3, 1, 2, 3, 4, 3]),
        ([0] * 64, [1, 2, 3] * 20 + [1, 2, 3, 4]),
        ([-1, -1, -1], [0, 1, 2]),  # a negative first asset at a run's start
        ([0, 0, 0], [-1, 0, 1]),  # a negative second asset at a run's start
    ],
)
def test_compiled_kernel_checks_every_pair_of_a_run(ii, jj):
    Z = np.random.default_rng(3).normal(size=(5, 4))
    ii, jj = np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64)
    with pytest.raises(IndexError, match="outside 0 .. 3"):
        dtw._pair_distances(Z, ii, jj, None, np.empty(ii.size))


@pytest.mark.parametrize("kernel", ["c_kernel", "numpy_kernel"])
@pytest.mark.parametrize("band", [None, 0, 3])
@pytest.mark.parametrize("k", [5, 45])  # under one pair group; a full group and a short one
def test_a_block_call_equals_each_dates_call(kernel, band, k, request, monkeypatch):
    request.getfixturevalue(kernel)
    monkeypatch.setattr(dtw, "_PAIR_BLOCK", 16)  # the wavefront's pair blocks end mid-date
    rng = np.random.default_rng(k)
    Z = rng.normal(size=(4, 9, 12))  # 4 dates, w = 9, 12 assets
    ii, jj = rng.integers(0, 12, size=(2, k))
    out = np.full((4, k), np.nan)
    dtw._pair_distances(Z, ii, jj, band, out)
    for d in range(4):
        one = np.full(k, np.nan)
        dtw._pair_distances(np.ascontiguousarray(Z[d]), ii, jj, band, one)
        assert out[d].tobytes() == one.tobytes()
        assert one.tolist() == [dtw_distance(Z[d, :, i], Z[d, :, j], band=band) for i, j in zip(ii, jj)]


@pytest.mark.usefixtures("c_kernel")
def test_compiled_kernel_call_checks_its_arrays():
    Z = np.random.default_rng(3).normal(size=(5, 4))
    ii, jj, out = np.array([0, 1]), np.array([2, 3]), np.empty(2)
    for args in [
        (Z.astype(np.float32), ii, jj, out),
        (np.asfortranarray(Z), ii, jj, out),
        (Z, ii.astype(np.int32), jj, out),
        (Z, ii, jj[:1], out),
        (Z, ii, jj, np.empty(4)[::2]),
        (np.stack((Z, Z)), ii, jj, out),  # a block of two dates into one date's vector
        (Z, ii, jj, np.empty((1, 2))),
        (Z[None, None], ii, jj, np.empty((1, 1, 2))),
    ]:
        with pytest.raises(ValueError, match="kernel takes"):
            dtw._pair_distances(*args[:3], None, args[3])
    with pytest.raises(IndexError, match="outside 0 .. 3"):
        dtw._pair_distances(Z, ii, np.array([2, 4]), None, out)


@pytest.mark.usefixtures("c_kernel")
def test_the_compiled_block_step_checks_its_arrays_and_dates():
    values = np.random.default_rng(4).normal(size=(12, 4))
    signs = np.ones(4)
    ii, jj = dtw._pair_indices(4)
    with pytest.raises(ValueError, match="C-contiguous"):
        dtw._block_distances(np.asfortranarray(values), signs, ii, jj, 5, None)
    with pytest.raises(ValueError, match="C-contiguous"):
        dtw._block_distances(values, np.ones(3), ii, jj, 5, None)
    with pytest.raises(ValueError, match="C-contiguous"):
        dtw._block_distances(values, signs, ii.astype(np.int32), jj, 5, None)
    block = dtw._block_distances(values, signs, ii, jj, 5, None)
    for start, days in [(3, 1), (4, 9), (11, 2)]:  # a window before the first date, or past the last
        with pytest.raises(ValueError, match="no complete windows"):
            block(start, days)
    with pytest.raises(IndexError, match="outside 0 .. 3"):
        dtw._block_distances(values, signs, ii, jj + 1, 5, None)(4, 2)[1]()
    (Z, flags, out), fill = block(4, 8)
    fill()
    assert Z.shape == (8, 5, 4) and flags.shape == (8, 4) and out.shape == (8, 6)
    assert Z.flags.c_contiguous and out.flags.c_contiguous and not flags.any()


@pytest.mark.parametrize("kernel", ["c_kernel", "numpy_kernel"])
def test_a_block_step_keeps_what_it_reads_and_writes_alive(kernel, request):
    """`fill` may run after its caller dropped the step, its inputs and the
    block's arrays: the compiled step's `fill` once held only their raw
    addresses, and the kernel wrote into freed memory."""
    request.getfixturevalue(kernel)
    values = np.random.default_rng(4).normal(size=(12, 4))
    ii, jj = (a.copy() for a in dtw._pair_indices(4))
    (Z, flags, out), fill = dtw._block_distances(values, np.ones(4), ii, jj, 5, None)(4, 8)
    alive = [weakref.ref(a) for a in (values, jj, Z if Z.base is None else Z.base)]
    del values, jj, Z, flags, out
    gc.collect()
    assert all(a() is not None for a in alive)
    fill()


@pytest.mark.usefixtures("c_kernel")
def test_compiled_kernel_work_buffer_is_cache_line_aligned(monkeypatch):
    call = _native.lib.dtw_pairs
    works = []

    def record(*args):
        works.append(args[8])
        return call(*args)

    monkeypatch.setattr(_native.lib, "dtw_pairs", record)
    rng = np.random.default_rng(5)
    ii, jj = dtw._pair_indices(6)
    held = []
    for w in (2, 20, 21, 40, 100):
        for shift in range(4):
            # hold arrays of odd sizes, so the allocator's next block moves
            held.append(np.empty(2 * shift + 1))
            Z = rng.normal(size=(w, 6))
            dtw._pair_distances(Z, ii, jj, None, np.empty(ii.size))
    assert len(works) == 20 and [address % 64 for address in works] == [0] * 20


@pytest.mark.usefixtures("numpy_kernel")
def test_wavefront_scratch_is_cache_line_aligned(monkeypatch):
    batched = dtw._batched_dtw
    works = []

    def record(*args):
        works.append(args[4])
        return batched(*args)

    monkeypatch.setattr(dtw, "_batched_dtw", record)
    rng = np.random.default_rng(6)
    ii, jj = dtw._pair_indices(6)
    held = []
    for w in (2, 20, 21, 40, 100):
        for shift in range(4):
            # hold arrays of odd sizes, so the allocator's next block moves
            held.append(np.empty(2 * shift + 1))
            dtw._pair_distances(rng.normal(size=(w, 6)), ii, jj, None, np.empty(ii.size))
    assert len(works) == 20 and [work.ctypes.data % 64 for work in works] == [0] * 20


@given(
    st.lists(finite, min_size=1, max_size=6),
    st.lists(finite, min_size=1, max_size=6),
)
def test_scalar_equals_bruteforce_on_lengths_up_to_6(p, q):
    assert dtw_distance(p, q) == dtw_bruteforce(p, q)


def test_the_package_data_ships_the_library_source():
    """A wheel built from pyproject.toml carries the source that `_native`
    compiles: a name left behind by a rename would ship a package that
    silently runs on numpy."""
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[tool\.setuptools\.package-data\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    listed = re.search(r"^market_rewire = \[(.*?)\]", section.group(1), re.M | re.S)
    assert Path(_native._SOURCE).name in re.findall(r'"([^"]+)"', listed.group(1))
    assert Path(_native._SOURCE).parent == Path(_native.__file__).parent
