"""Hot time-stepping loops, in numpy.

The three propagation loops below dominate runtime: many thousands of small
dense steps per run.  None of them runs Python code once per step.  Each
works in chunks of steps whose ``(k, n, n)`` stack of complex propagators
takes about ``_CHUNK_BYTES``, and builds the chunk's propagators at once:

- ``continuous_loop``: the exponential-midpoint step ``exp(-i H_D dt)``.
  With ``H = 0`` the dark generator ``H_D = i(|fdot><f| - |f><fdot|)`` acts
  on span{f, fdot} only, and ``_transport_steps`` writes each step as the
  exact rank-2 rotation on that plane, without an eigendecomposition.
  Otherwise ``_taylor_exponentials`` takes the exponential of each
  ``X = -i dt H_D`` in the chunk as a truncated Taylor series with scaling
  and squaring (Moler and Van Loan, SIAM Rev. 45, 3 (2003); Al-Mohy and
  Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)).  Each row's plan comes
  from its own ∞-norm θ: q squarings bring θ / 2^q to at most 1/2, and the
  degree m is the lowest whose first dropped term is at most 2^-53.  Rows
  that share a plan are evaluated as one Paterson-Stockmeyer polynomial;
  after squaring, one Newton-Schulz step takes the result back to unitary.
- ``discrete_loop``: the measurement map ``(1 - |f><f|) U``.
- ``embedded_loop``: the exact rank-1 step ``1 + (e^{-i E dt} - 1)|f><f|``.

``_propagate`` applies a chunk's propagators to the state: prefix products
inside blocks of ``isqrt(chunk)`` steps, batched across the blocks, then one
sequential pass over the block starts and one batched product for all the
states.  Blocks start at chunk starts and their length depends on ``n``
only, so the first k states of a run are bitwise those of a k-step run.
They agree with a plain per-step loop to rounding (about 1e-14 after
thousands of steps), not bit for bit.  Each loop returns its ``(steps + 1,
n)`` states only; the runs take their own norms and overlaps.

``python3 perfbench/run.py`` times the loops inside full CLI runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt

import numpy as np

# Bytes of one complex (k, n, n) stack per chunk: bounds the chunk's
# temporaries independently of the run length.
_CHUNK_BYTES = 1 << 16


def _chunk_steps(n: int) -> int:
    return max(1, _CHUNK_BYTES // (16 * n * n))


# Taylor plans: a dropped term at most 2^-53 is below the rounding of the
# identity.  _DEGREE_LIMITS[m] is the largest double s with
# s^(m+1) / (m+1)! <= 2^-53 in exact arithmetic; it passes 1/2 at m = 14, so
# a scaled norm (at most 1/2) plans a degree of at most 14 (NaN plans 15).
_TAYLOR_TOL = 2.0**-53


def _degree_limit(m: int) -> float:
    bound = Fraction(_TAYLOR_TOL) * factorial(m + 1)
    s = float(bound) ** (1.0 / (m + 1))
    while Fraction(s) ** (m + 1) > bound:
        s = np.nextafter(s, 0.0)
    while Fraction(np.nextafter(s, 1.0)) ** (m + 1) <= bound:
        s = np.nextafter(s, 1.0)
    return float(s)


_DEGREE_LIMITS = np.array([_degree_limit(m) for m in range(15)])
_INV_FACTORIALS = [1.0 / factorial(k) for k in range(16)]


def _outer(x, y):
    # stack of |x_j><y_j| from (k, n) rows
    return x[:, :, None] * np.conj(y)[:, None, :]


def effective_hamiltonians(H, f, fdot):
    """Stack of ``H_D = P H P + i(|fdot><f| - |f><fdot|)``, ``P = 1 - |f><f|``.

    One ``(n, n)`` generator per row of the ``(k, n)`` arrays ``f`` and
    ``fdot``, for the Hermitian part of ``H``; inputs are not validated.
    """
    # with h = H f, P H P = H - |f><h| - |h><f| + <f|h> |f><f|, so
    # H_D = H + |a><f| - |f><b| with b = h - i fdot and a = <f|h> f - b.
    # Stacked matrix-vector products round each row alike whatever k is.
    H = 0.5 * (H + np.conj(H.T))  # unchanged when H is Hermitian
    h = H @ f[:, :, None]
    c = (np.conj(f)[:, None, :] @ h)[:, 0].real  # <f|h>, real for Hermitian H
    b = h[:, :, 0] - 1j * fdot
    return H + _outer(c * f - b, f) - _outer(f, b)


def _transport_steps(f, fdot, dt):
    # exp(-i H_D dt) for H = 0.  With r = ||f||, fh = f/r and d = r fdot,
    # H_D = i(|d><fh| - |fh><d|) exactly; d = a fh + beta gh with gh _|_ fh,
    # so H_D = -alpha + (-alpha sz + beta sy) on (fh, gh), alpha = Im a.
    r = np.linalg.norm(f, axis=1)[:, None]
    fh = f / r
    d = fdot * r
    a = np.sum(np.conj(fh) * d, axis=1)
    g = d - a[:, None] * fh
    beta = np.linalg.norm(g, axis=1)
    gh = np.divide(g, beta[:, None], out=np.zeros_like(g), where=beta[:, None] > 0.0)
    alpha = a.imag
    omega = np.hypot(alpha, beta)
    c = np.cos(omega * dt)
    s = dt * np.sinc(omega * dt / np.pi)
    phi = np.exp(1j * alpha * dt)
    # u = 1 + (phi(c + i alpha s) - 1)|fh><fh| + (phi(c - i alpha s) - 1)|gh><gh|
    #       - phi beta s (|fh><gh| - |gh><fh|), grouped by the right-hand vector
    ff = (phi * (c + 1j * alpha * s) - 1.0)[:, None]
    gg = (phi * (c - 1j * alpha * s) - 1.0)[:, None]
    fg = (phi * beta * s)[:, None]
    u = _outer(ff * fh + fg * gh, fh) + _outer(gg * gh - fg * fh, gh)
    u += np.eye(f.shape[1])
    return u


def _taylor_plan(theta):
    """Squaring counts ``q`` and Taylor degrees ``m`` for norms ``theta``.

    Per row, ``q`` is the fewest squarings with ``theta / 2^q <= 1/2``, and
    ``m`` the lowest degree whose first dropped term
    ``(theta / 2^q)^(m+1) / (m+1)!`` is at most ``2^-53``.
    """
    mant, e = np.frexp(theta)  # theta = mant 2^e with 1/2 <= mant < 1
    q = np.maximum(e + (mant > 0.5), 0)
    return np.searchsorted(_DEGREE_LIMITS, np.ldexp(theta, -q)), q


def _taylor_polynomial(x, m):
    # sum_{k <= m} x^k / k! for a (k, n, n) stack, Paterson-Stockmeyer: with
    # s = ceil(sqrt(m)), p = B_0 + x^s (B_1 + x^s (... + x^s B_r)), where B_j
    # combines x^0 ... x^(s-1) (the top block B_r up to x^s)
    s = isqrt(m - 1) + 1 if m else 1
    r = max(m - 1, 0) // s
    powers = [None, x]
    for _ in range(2, min(s, m) + 1):
        powers.append(powers[-1] @ x)

    def block(j, last):
        # sum of x^i / (j s + i)! over i = 0 ... last - j s
        b = _INV_FACTORIALS[j * s + 1] * x if last > j * s else np.zeros_like(x)
        for i in range(2, last - j * s + 1):
            b += _INV_FACTORIALS[j * s + i] * powers[i]
        b.reshape(len(b), -1)[:, :: x.shape[1] + 1] += _INV_FACTORIALS[j * s]
        return b

    p = block(r, m)
    for j in range(r - 1, -1, -1):
        p = p @ powers[s]
        p += block(j, j * s + s - 1)
    return p


def _scaled_taylor(x, m, q):
    # exp(x) ~ p(x / 2^q)^(2^q) for the degree-m Taylor polynomial p.  Each
    # squaring doubles the distance from unitarity, so after squaring one
    # Newton-Schulz step p + p (1 - p^dag p) / 2 brings it back to rounding
    # (x is skew-Hermitian here, so exp(x) is unitary)
    p = _taylor_polynomial(x * 2.0**-q if q else x, m)
    for _ in range(q):
        p = p @ p
    if q:
        defect = np.eye(x.shape[1]) - np.conj(np.swapaxes(p, 1, 2)) @ p
        p += 0.5 * (p @ defect)
    return p


def _taylor_exponentials(x):
    # exp(x) per (n, n) row, with the plan of the row's infinity-norm; rows
    # that share a plan are evaluated as one stack.  A row's plan depends on
    # that row alone, so no row's result depends on the other rows.  A chunk
    # on one plan skips the gather and scatter, whose copies raised the peak
    # RSS of the N = 6 H != 0 runs by about 0.8 MB.
    m, q = _taylor_plan(np.abs(x).sum(axis=2).max(axis=1))
    plans = 16 * q + m  # m <= 15
    if np.all(plans == plans[0]):
        return _scaled_taylor(x, int(m[0]), int(q[0]))
    u = np.empty_like(x)
    for plan in np.unique(plans):
        rows = plans == plan
        squarings, degree = divmod(int(plan), 16)
        u[rows] = _scaled_taylor(x[rows], degree, squarings)
    return u


def _propagate(u, psi, block):
    # rows u[j] ... u[0] psi for j < len(u), in blocks of `block` steps
    k, n, _ = u.shape
    nb = -(-k // block)
    # C-ordered buffers, padded with identities: every product then takes the
    # same matmul path whatever k is (a strided operand rounds differently)
    steps = np.empty((nb, block, n, n), dtype=np.complex128)
    flat = steps.reshape(nb * block, n, n)
    flat[:k] = u
    flat[k:] = np.eye(n)
    prod = np.empty_like(steps)
    prod[:, 0] = steps[:, 0]
    for i in range(1, block):
        np.matmul(steps[:, i], prod[:, i - 1], out=prod[:, i])
    starts = np.empty((nb, n, 1), dtype=np.complex128)
    starts[0, :, 0] = psi
    for j in range(1, nb):
        np.matmul(prod[j - 1, -1], starts[j - 1], out=starts[j])
    # one matrix-vector product per block, its prefix products stacked as rows
    return (prod.reshape(nb, block * n, n) @ starts).reshape(nb * block, n)[:k]


def _evolve(psi0, steps, propagators):
    # states[j + 1] = u[j] ... u[0] psi0, propagators(a, b) building u[a:b]
    # chunk by chunk
    n = psi0.shape[0]
    states = np.empty((steps + 1, n), dtype=np.complex128)
    states[0] = psi0
    chunk = _chunk_steps(n)
    block = isqrt(chunk)
    for a in range(0, steps, chunk):
        b = min(a + chunk, steps)
        states[a + 1 : b + 1] = _propagate(propagators(a, b), states[a], block)
    return states


def discrete_loop(U, f_seq, psi0):
    # psi_n = (1 - f_n f_n^dag) U psi_{n-1}, raw sub-normalized states
    n = psi0.shape[0]
    eye = np.eye(n, dtype=np.complex128)

    def propagators(a, b):
        return (eye - _outer(f_seq[a:b], f_seq[a:b])) @ U

    return _evolve(psi0, f_seq.shape[0], propagators)


def continuous_loop(H, f_mid, fdot_mid, psi0, dt):
    # one step: psi <- exp(-i H_D(t + dt/2) dt) psi with
    # H_D = P H P + i(|fdot><f| - |f><fdot|), P = 1 - |f><f|, all at midpoint:
    # the closed-form rotation for H = 0, otherwise the Taylor exponential
    # with each step's own plan
    transport = not np.any(H)

    def propagators(a, b):
        if transport:
            return _transport_steps(f_mid[a:b], fdot_mid[a:b], dt)
        x = effective_hamiltonians(H, f_mid[a:b], fdot_mid[a:b])
        x *= -1j * dt
        return _taylor_exponentials(x)

    return _evolve(psi0, f_mid.shape[0], propagators)


def embedded_loop(f_mid, psi0, energy, dt):
    # exact rank-1 midpoint step: exp(-i E dt |f><f|) = 1 + (e^{-i E dt} - 1)|f><f|
    factor = np.exp(-1j * energy * dt) - 1.0
    eye = np.eye(psi0.shape[0], dtype=np.complex128)

    def propagators(a, b):
        return eye + factor * _outer(f_mid[a:b], f_mid[a:b])

    return _evolve(psi0, f_mid.shape[0], propagators)
