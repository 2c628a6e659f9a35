import numpy as np
import pytest

from zenodark.stencil import differentiate_series, fd_weights, moving_average


def test_fd_weights_exact_on_polynomials():
    x = np.array([0.0, 0.3, 0.7, 1.1, 1.6])
    for x0 in (0.0, 0.7, 1.6):
        w = fd_weights(x, x0, 1)
        for power in range(5):
            exact = power * x0 ** (power - 1) if power > 0 else 0.0
            assert w @ x**power == pytest.approx(exact, abs=1e-10)


def test_fd_weights_rejects_too_few_nodes():
    with pytest.raises(ValueError):
        fd_weights(np.array([0.0, 1.0]), 0.0, 2)


def test_differentiate_series_fourth_order():
    errs = {}
    for h in (2e-3, 1e-3):
        t = np.arange(0.0, 1.0 + h / 2, h)
        series = np.sin(3.0 * t)
        deriv = differentiate_series(series, t)
        errs[h] = np.abs(deriv - 3.0 * np.cos(3.0 * t)).max()
    assert errs[1e-3] < 1e-9
    assert errs[2e-3] / errs[1e-3] > 10.0  # fourth order: ratio about 16


def test_differentiate_series_nonuniform_grid():
    rng = np.random.default_rng(7)
    t = np.sort(rng.uniform(0.0, 1.0, 60))
    series = t**4 - 2.0 * t**2
    deriv = differentiate_series(series, t)
    np.testing.assert_allclose(deriv, 4.0 * t**3 - 4.0 * t, atol=1e-9)


def test_differentiate_series_complex_columns():
    h = 1e-3
    t = np.arange(0.0, 0.5 + h / 2, h)
    series = np.column_stack([np.exp(-1j * 2.0 * t), np.exp(1j * t)])
    deriv = differentiate_series(series, t)
    expected = np.column_stack([-2j * np.exp(-1j * 2.0 * t), 1j * np.exp(1j * t)])
    assert np.abs(deriv - expected).max() < 1e-10


def test_differentiate_series_needs_five_samples():
    with pytest.raises(ValueError):
        differentiate_series(np.zeros(4), np.arange(4.0))


def test_moving_average_constant_series():
    smooth, interior = moving_average(np.full(50, 2.5), 7)
    np.testing.assert_allclose(smooth[interior], 2.5)


def test_moving_average_suppresses_fast_oscillation():
    t = np.arange(0.0, 10.0, 0.01)
    fast = np.exp(1j * 40.0 * t)
    window = int(round(2 * np.pi / 40.0 / 0.01)) * 4
    smooth, interior = moving_average(fast, window)
    # four-period window knocks a unit-amplitude oscillation down ~30x
    assert np.abs(smooth[interior]).max() < 0.05


def test_moving_average_window_one_is_identity():
    x = np.arange(10.0)
    smooth, interior = moving_average(x, 1)
    np.testing.assert_array_equal(smooth, x)
    assert smooth[interior].size == 10


def test_moving_average_window_of_the_whole_series_covers_one_point():
    # a window of 7 (8 rounds up to 9) fits 7 samples once, 6 not at all
    smooth, interior = moving_average(np.arange(7.0), 7)
    np.testing.assert_allclose(smooth[interior], [3.0])
    for length, window in ((6, 7), (8, 8)):
        with pytest.raises(ValueError, match="longer than the series"):
            moving_average(np.ones(length), window)


# Five-point first-derivative weights on unit spacing, exact fractions; row r
# evaluates at node r of the window
UNIFORM5 = np.array(
    [
        [-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -1.0 / 4.0],
        [-1.0 / 4.0, -5.0 / 6.0, 3.0 / 2.0, -1.0 / 2.0, 1.0 / 12.0],
        [1.0 / 12.0, -2.0 / 3.0, 0.0, 2.0 / 3.0, -1.0 / 12.0],
        [-1.0 / 12.0, 1.0 / 2.0, -3.0 / 2.0, 5.0 / 6.0, 1.0 / 4.0],
        [1.0 / 4.0, -4.0 / 3.0, 3.0, -4.0, 25.0 / 12.0],
    ]
)


@pytest.mark.parametrize("h", [1.0, 0.5, 3.0, 0.37, 2e-3, 1e-3, 1e-4])
def test_fd_weights_match_exact_uniform_table(h):
    x = h * np.arange(5.0)
    for r in range(5):
        err = np.abs(fd_weights(x, x[r], 1) * h - UNIFORM5[r]).max()
        assert err <= 8 * np.finfo(float).eps * np.abs(UNIFORM5[r]).max()


def test_differentiate_series_quartic_exact_on_random_nodes():
    rng = np.random.default_rng(11)
    t = np.cumsum(rng.uniform(0.5e-4, 1.5e-4, 20_000))
    quartic = np.polynomial.Polynomial([1.0, -2.0, 0.5, 3.0, -1.0])
    values = quartic(t)
    deriv = differentiate_series(np.column_stack([values, 1j * values]), t)
    # exact up to rounding: about eps * |values| / (smallest step) per weight
    bound = 100 * np.finfo(float).eps * np.abs(values).max() / np.diff(t).min()
    exact = quartic.deriv()(t)
    assert np.abs(deriv[:, 0] - exact).max() <= bound
    assert np.abs(deriv[:, 1] - 1j * exact).max() <= bound


def test_moving_average_complex_matches_real_and_imaginary_parts():
    rng = np.random.default_rng(5)
    series = rng.normal(size=400) + 1j * rng.normal(size=400)
    for window in (4, 7, 31):
        smooth, interior = moving_average(series, window)
        re, re_interior = moving_average(series.real, window)
        im, _ = moving_average(series.imag, window)
        assert interior == re_interior
        np.testing.assert_allclose(smooth, re + 1j * im, rtol=0, atol=1e-15)
