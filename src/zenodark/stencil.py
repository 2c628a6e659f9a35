"""Finite-difference stencils and time-series helpers.

Derivatives of sampled state histories use five-point fourth-order stencils:
central in the interior, one-sided at the edges.  Every weight, on uniform
and non-uniform grids alike, comes from one batched Fornberg recursion
(Fornberg, Math. Comp. 51, 699 (1988)), so each stencil is exact for
quartics on whatever nodes it is given.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fd_weights", "differentiate_series", "moving_average"]


def _weights(x: np.ndarray, x0, order: int) -> np.ndarray:
    # Fornberg's recursion on arrays: the nodes run along axis 0 of `x`, the
    # evaluation points `x0` along the rest (broadcast against x[0]).  Returns
    # c[node, derivative order, ...] for every order up to `order`.  The
    # arithmetic is elementwise, so each point's weights are bitwise those
    # it gets alone.
    n = x.shape[0]
    if order >= n:
        raise ValueError("need more nodes than the derivative order")
    c = np.zeros((n, order + 1) + np.broadcast_shapes(x.shape[1:], np.shape(x0)))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c3 = x[i] - x[:i]
        c2 = 1.0
        for j in range(i):
            c2 = c2 * c3[j]
        c5, c4 = c4, x[i] - x0
        for k in range(mn, 0, -1):
            c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
        c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
        for k in range(mn, 0, -1):
            c[:i, k] = (c4 * c[:i, k] - k * c[:i, k - 1]) / c3
        c[:i, 0] = c4 * c[:i, 0] / c3
        c1 = c2
    return c


def fd_weights(x: np.ndarray, x0: float, order: int) -> np.ndarray:
    """Weights of the ``order``-th derivative at ``x0`` from nodes ``x``.

    Fornberg's recursion; exact for polynomials up to degree ``len(x) - 1``.
    """
    return _weights(np.asarray(x, dtype=float), float(x0), order)[:, order]


def differentiate_series(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Fourth-order first derivative of ``values`` sampled at ``times``.

    ``values`` may be 1-D (scalar series) or 2-D with one row per sample.
    Each point takes the five-sample window centred on it, clamped at the
    ends.  Needs at least five samples.
    """
    values = np.asarray(values)
    times = np.asarray(times, dtype=float)
    m = times.size
    if values.shape[0] != m:
        raise ValueError("values and times must have the same length")
    if m < 5:
        raise ValueError("need at least 5 samples for a fourth-order derivative")

    lo = np.clip(np.arange(m) - 2, 0, m - 5)
    window = lo + np.arange(5)[:, None]
    w = _weights(times[window], times, 1)[:, 1]
    w = w.reshape(w.shape + (1,) * (values.ndim - 1))
    out = w[0] * values[window[0]]
    for k in range(1, 5):
        out += w[k] * values[window[k]]
    return out


def moving_average(series: np.ndarray, window: int) -> tuple[np.ndarray, slice]:
    """Centered moving average and the slice of fully covered interior points.

    ``window`` is clamped to an odd count of at least 1, and may not exceed
    the length of the series, so at least one point is fully covered.  Works
    on complex series; edge points without full coverage are excluded by the
    returned slice (their sums, over the samples they cover, are still
    divided by the full window).  Each mean is a difference of two cumulative
    sums, so the cost is O(n) whatever the window; it agrees with the direct
    sum to rounding of the running total.  A non-finite sample makes every
    later mean non-finite, not only the windows that hold it.
    """
    series = np.asarray(series)
    w = max(1, int(window)) | 1
    n = series.shape[0]
    if w > n:
        raise ValueError(f"window of {w} points longer than the series of {n}")
    half = w // 2
    # sums[i] is the total of series[:edge] with edge = i - half clipped to 0 .. n
    sums = np.concatenate(([0.0], np.cumsum(series)))
    sums = sums[np.clip(np.arange(-half, n + half + 1), 0, n)]
    return (sums[w:] - sums[:-w]) / w, slice(half, n - half)
