import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_panel
from market_rewire import apply_direction, dtw, window_zscore, windows_at
from market_rewire.preprocess import NON_FINITE, _window_rows, _zscore_flags

nonconstant_windows = (
    st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=40)
    .map(lambda xs: np.array(xs, dtype=float))
    .filter(lambda x: x.max() > x.min())
)


def test_two_point_window_exact_values():
    z = window_zscore([1.0, 3.0])
    np.testing.assert_allclose(
        z, [-0.7071067811865475, 0.7071067811865475], rtol=0, atol=1e-15
    )


def test_constant_window_is_zero_with_warning():
    with pytest.warns(UserWarning, match="constant window"):
        z = window_zscore([5.0, 5.0, 5.0, 5.0])
    np.testing.assert_array_equal(z, np.zeros(4))


@pytest.mark.parametrize("window", [[100.37] * 20, [0.1] * 3])
def test_stale_quote_is_a_constant_window(window):
    # its sample std is not exactly 0.0: these used to z-score to a flat
    # 0.9747 vector and a flat -0.8165 vector, with no warning
    assert np.std(window, ddof=1) != 0.0
    with pytest.warns(UserWarning, match="constant window"):
        z = window_zscore(window)
    np.testing.assert_array_equal(z, np.zeros(len(window)))


@given(nonconstant_windows)
def test_zscore_mean_zero_sd_one(window):
    z = window_zscore(window)
    assert abs(z.mean()) < 1e-9
    assert abs(z.std(ddof=1) - 1.0) < 1e-9


def test_window_too_short():
    with pytest.raises(ValueError, match="at least 2"):
        window_zscore([1.0])


def test_window_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        window_zscore([1.0, np.nan, 3.0])


def test_window_must_be_one_dimensional():
    with pytest.raises(ValueError, match=r"^window must be one-dimensional, got shape \(2, 2\)$"):
        window_zscore([[1.0, 2.0], [3.0, 4.0]])


def test_constant_window_warnings_point_at_the_caller(panel_factory):
    panel = panel_factory(np.column_stack([np.full(5, 7.0), np.arange(5.0)]))
    line = inspect.currentframe().f_lineno
    with pytest.warns(UserWarning, match="constant window") as record:
        windows_at(panel, 4, 3)
        window_zscore([2.0, 2.0, 2.0])
    assert [(w.filename, w.lineno) for w in record] == [(__file__, line + 2), (__file__, line + 3)]


def test_apply_direction():
    np.testing.assert_array_equal(apply_direction([1, -2, 3], 1), [1, -2, 3])
    np.testing.assert_array_equal(apply_direction([1, -2, 3], -1), [-1, 2, -3])
    with pytest.raises(ValueError, match="direction"):
        apply_direction([1.0], 2)


@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=20))
def test_apply_direction_involution(xs):
    w = np.array(xs, dtype=float)
    np.testing.assert_array_equal(apply_direction(apply_direction(w, -1), -1), w)


def test_windows_at_index_coverage(panel_factory):
    # 25 dates, w=20, t=19: the window must span exactly rows 0..19
    values = np.arange(25, dtype=float)[:, None] + np.array([[100.0, 200.0]])
    panel = panel_factory(values)
    wins = windows_at(panel, t=19, w=20)
    assert len(wins) == 2
    assert all(len(w.values) == 20 for w in wins)
    assert wins[0].end_date == panel.dates[19]
    expected = window_zscore(values[0:20, 0])
    np.testing.assert_array_equal(wins[0].values, expected)


@pytest.mark.parametrize("t", [-1, 25])
def test_windows_at_rejects_a_date_index_out_of_range(panel_factory, t):
    panel = panel_factory(np.random.default_rng(0).uniform(90, 110, (25, 2)))
    with pytest.raises(ValueError, match=f"^date index {t} out of range for panel with 25 dates$"):
        windows_at(panel, t=t, w=20)


def test_windows_at_insufficient_history(panel_factory):
    panel = panel_factory(np.random.default_rng(0).uniform(90, 110, (25, 2)))
    with pytest.raises(ValueError, match="insufficient history"):
        windows_at(panel, t=18, w=20)


def test_windows_at_direction_flip_monotonicity(panel_factory):
    rising = np.linspace(100, 120, 10)
    panel = panel_factory(
        np.column_stack([rising, rising]), directions=[1, -1], classes=["stock", "bond"]
    )
    stock, bond = windows_at(panel, t=9, w=10)
    assert np.all(np.diff(stock.values) > 0)
    assert np.all(np.diff(bond.values) < 0)
    np.testing.assert_array_equal(bond.values, -stock.values)


def test_scale_invariance_power_of_two_is_exact(panel_factory):
    rng = np.random.default_rng(42)
    values = rng.uniform(50, 150, (30, 3))
    base = windows_at(panel_factory(values), t=25, w=20)
    scaled_vals = values.copy()
    scaled_vals[:, 1] *= 2.0
    scaled = windows_at(panel_factory(scaled_vals), t=25, w=20)
    for b, s in zip(base, scaled):
        np.testing.assert_array_equal(b.values, s.values)


@pytest.mark.parametrize("transform", [lambda c: c * 3.7, lambda c: c + 250.0])
def test_scale_and_shift_invariance(panel_factory, transform):
    rng = np.random.default_rng(7)
    values = rng.uniform(50, 150, (30, 3))
    base = windows_at(panel_factory(values), t=25, w=20)
    changed_vals = values.copy()
    changed_vals[:, 0] = transform(changed_vals[:, 0])
    changed = windows_at(panel_factory(changed_vals), t=25, w=20)
    for b, s in zip(base, changed):
        np.testing.assert_allclose(b.values, s.values, rtol=0, atol=1e-11)


def test_direction_flip_negates_windows(panel_factory):
    rng = np.random.default_rng(3)
    values = rng.uniform(50, 150, (30, 2))
    plus = windows_at(panel_factory(values, directions=[1, 1]), t=29, w=15)
    minus = windows_at(panel_factory(values, directions=[1, -1]), t=29, w=15)
    np.testing.assert_array_equal(plus[0].values, minus[0].values)
    np.testing.assert_array_equal(plus[1].values, -minus[1].values)


def _zscore_1d(x):
    """The per-asset formula: mean and n-1 std of one 1-D column."""
    sd = x.std(ddof=1)
    return np.zeros_like(x) if x.max() == x.min() else (x - x.mean()) / sd


@settings(max_examples=60, deadline=None)
@given(
    w=st.integers(2, 300),
    extra=st.integers(0, 3),
    directions=st.lists(st.sampled_from([1, -1]), min_size=1, max_size=6),
    constant=st.sets(st.integers(0, 5), max_size=3),
    log_scale=st.floats(-3, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_windows_at_rows_bitwise_equal_per_column_zscore(
    w, extra, directions, constant, log_scale, seed
):
    # w up to 300 crosses numpy's 128-element pairwise-summation block
    n = len(directions)
    values = np.random.default_rng(seed).normal(100.0, 1.0, (w + extra, n)) * 10.0**log_scale
    constant = sorted(c for c in constant if c < n)
    # a stale quote: not integer-valued, so its mean is rounded and its std
    # is not exactly 0.0
    values[:, constant] = values[0, constant]
    panel = build_panel(values, directions=directions)
    t = w + extra - 1
    if constant:
        with pytest.warns(UserWarning, match="^constant window: standardized values set to zero$"):
            wins = windows_at(panel, t, w)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wins = windows_at(panel, t, w)
    for col, (win, d) in enumerate(zip(wins, directions)):
        raw = values[t - w + 1 : t + 1, col]
        # .tobytes() tells -0.0 (a zeroed window with direction -1) from 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert win.values.tobytes() == apply_direction(window_zscore(raw), d).tobytes()
            assert window_zscore(raw).tobytes() == _zscore_1d(raw).tobytes()
        assert win.values.any() == (col not in constant)


@pytest.mark.parametrize("w", [2, 7, 20, 130])
def test_a_block_of_dates_z_scores_each_date_as_alone(w):
    # w = 130 crosses numpy's 128-element pairwise-summation block
    directions = [1, -1, 1, -1, 1, 1, -1]
    values = np.random.default_rng(w).normal(100.0, 1.0, (w + 12, 7)) * [1, 1e-3, 1e6, 1, 1, 1, 1]
    values[:, 3] = values[0, 3]  # a stale quote on every date
    values[12:, 4] = values[12, 4]  # and on the last date only
    # equal to its first value but in the last place on the second date, by
    # one ulp: not constant, although it was on the first date
    values[:, 5] = 100.37
    values[w:, 5] = np.nextafter(100.37, np.inf)
    values[:, 6] = np.where(np.arange(w + 12) % 3, 0.0, -0.0)  # constant: -0.0 == 0.0
    panel = build_panel(values, directions=directions)
    signs = np.array([[float(d)] for d in directions])

    def zscored(start, stop):
        """The dates start .. stop - 1 z-scored as a run's numpy leg does."""
        rows = _window_rows(panel.values, start, stop, w)
        _zscore_flags(rows)
        rows *= signs
        return rows

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        block = zscored(w - 1, panel.n_dates)
        assert block.shape == (13, 7, w) and block.flags.c_contiguous
        for d, t in enumerate(range(w - 1, panel.n_dates)):
            assert block[d].tobytes() == zscored(t, t + 1)[0].tobytes()
            for a, direction in enumerate(directions):
                raw = values[t - w + 1 : t + 1, a]
                assert block[d, a].tobytes() == apply_direction(window_zscore(raw), direction).tobytes()
    assert not block[:, 3].any() and not block[-1, 4].any() and block[0, 4].any()
    assert not block[0, 5].any() and block[1, 5].any() and not block[:, 6].any()
    with pytest.warns(UserWarning, match="constant window"):
        window_zscore(values[:w, 6])


def test_windows_at_rejects_non_finite(panel_factory):
    values = np.random.default_rng(2).uniform(90, 110, (25, 3))
    values[10, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        windows_at(panel_factory(values), t=24, w=20)


# Magnitudes near 1e-170 square to subnormals and zeros, near 1e154 their
# squares overflow, and near 1e308 their sums do.
_SCALES = [1.0, 1e-3, 1e6, 1e-170, 1e-160, 1e154, 1e300, 1e307]


@pytest.mark.skipif(dtw.KERNEL != "c", reason="the compiled DTW kernel did not build or load here")
@settings(max_examples=150, deadline=None)
@given(
    w=st.one_of(st.sampled_from([2, 3, 7, 8, 9, 16, 127, 128, 129, 136, 257, 300]), st.integers(2, 300)),
    days=st.integers(1, 3),
    directions=st.lists(st.sampled_from([1.0, -1.0]), min_size=1, max_size=5),
    scale=st.sampled_from(_SCALES),
    shift=st.sampled_from([0.0, 100.37, -2.5e300]),
    stale=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 302), st.integers(1, 302)), max_size=3),
    ties=st.booleans(),
    holes=st.sets(st.tuples(st.integers(0, 302), st.integers(0, 4)), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_compiled_block_z_scores_as_zscore_flags(w, days, directions, scale, shift, stale, ties, holes, seed):
    """`dtw_block`'s z-scores have the bits of `_zscore_flags`, and it flags the
    same constant and non-finite rows, for w on either side of numpy's
    8- and 128-value pairwise blocks."""
    n, dates = len(directions), w - 1 + days
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 1.0, (dates, n)) * scale + shift
    if ties:  # few distinct values, with 0.0 and -0.0 among them
        values = rng.choice(np.array([0.0, -0.0, 1.0, -1.0, 3.0]) * scale, (dates, n))
    for col, at, length in stale:  # constant stretches
        if col < n:
            values[at : at + length, col] = values[min(at, dates - 1), col]
    for at, col in holes:  # a missing value
        if col < n and at < dates:
            values[at, col] = np.nan
    signs = np.array(directions)
    ii, jj = dtw._pair_indices(n)
    with np.errstate(all="ignore"):
        (Z, flags, _), fill = dtw._block_distances(values, signs, ii, jj, w, None)(w - 1, days)
        fill()
    rows = _window_rows(values, w - 1, w - 1 + days, w)
    expected = _zscore_flags(rows)
    assert flags.tobytes() == expected.tobytes()
    rows *= signs[:, None]
    finite = (flags & NON_FINITE) == 0
    assert Z.transpose(0, 2, 1)[finite].tobytes() == rows[finite].tobytes()
    if finite.all():
        z = _window_rows(values, w - 1, w - 1 + days, w)
        _zscore_flags(z)
        assert Z.transpose(0, 2, 1).tobytes() == (z * signs[:, None]).tobytes()
