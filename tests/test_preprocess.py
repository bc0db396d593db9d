import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_panel
from market_rewire import apply_direction, window_zscore, windows_at

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


def test_windows_at_rejects_non_finite(panel_factory):
    values = np.random.default_rng(2).uniform(90, 110, (25, 3))
    values[10, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        windows_at(panel_factory(values), t=24, w=20)
