"""Hot time-stepping loops, in numpy.

The three propagation loops below dominate runtime: many thousands of small
dense steps per run.  None of them runs Python code once per step.  Each
works in chunks of steps whose ``(k, n, n)`` stack of complex propagators
takes about ``_CHUNK_BYTES``, and builds the chunk's propagators at once:

- ``continuous_loop``: the exponential-midpoint step ``exp(-i H_D dt)``.
  With ``H = 0`` the dark generator ``H_D = i(|fdot><f| - |f><fdot|)`` acts
  on span{f, fdot} only, and ``_transport_steps`` writes each step as the
  exact rank-2 rotation on that plane, without an eigendecomposition.
  Otherwise the chunk's ``H_D`` stack from ``effective_hamiltonians`` goes
  through one batched ``np.linalg.eigh``.
- ``discrete_loop``: the measurement map ``(1 - |f><f|) U``.
- ``embedded_loop``: the exact rank-1 step ``1 + (e^{-i E dt} - 1)|f><f|``.

``_propagate`` applies a chunk's propagators to the state: prefix products
inside blocks of ``isqrt(chunk)`` steps, batched across the blocks, then one
sequential pass over the block starts and one batched product for all the
states.  Blocks start at chunk starts and their length depends on ``n``
only, so the first k states of a run are bitwise those of a k-step run.
They agree with a plain per-step loop to rounding (about 1e-14 after
thousands of steps), not bit for bit.  Norms and overlaps are filled per
chunk by ``linalg.row_norms_and_overlaps``.

``python3 perfbench/run.py`` times the loops inside full CLI runs.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .linalg import row_norms_and_overlaps

# Bytes of one complex (k, n, n) stack per chunk: bounds the chunk's
# temporaries independently of the run length.
_CHUNK_BYTES = 1 << 16


def _chunk_steps(n: int) -> int:
    return max(1, _CHUNK_BYTES // (16 * n * n))


def _outer(x, y):
    # stack of |x_j><y_j| from (k, n) rows
    return x[:, :, None] * np.conj(y)[:, None, :]


def effective_hamiltonians(H, f, fdot):
    """Stack of ``H_D = P H P + i(|fdot><f| - |f><fdot|)``, ``P = 1 - |f><f|``.

    One ``(n, n)`` generator per row of the ``(k, n)`` arrays ``f`` and
    ``fdot``; inputs are not validated.
    """
    P = np.eye(f.shape[1], dtype=np.complex128) - _outer(f, f)
    return P @ H @ P + 1j * (_outer(fdot, f) - _outer(f, fdot))


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


def _evolve(psi0, steps, propagators, f_after=None):
    # states[j + 1] = u[j] ... u[0] psi0, with propagators(a, b) building
    # u[a:b] chunk by chunk; with f_after, also the norms and the overlaps
    # |<f_after[j]|states[j + 1]>| (norms[0] is filled, orth[0] is left to
    # the caller)
    n = psi0.shape[0]
    states = np.empty((steps + 1, n), dtype=np.complex128)
    norms = np.empty(steps + 1)
    orth = np.empty(steps + 1)
    states[0] = psi0
    norms[0] = np.linalg.norm(psi0)
    chunk = _chunk_steps(n)
    block = isqrt(chunk)
    for a in range(0, steps, chunk):
        b = min(a + chunk, steps)
        states[a + 1 : b + 1] = _propagate(propagators(a, b), states[a], block)
        if f_after is not None:
            norms[a + 1 : b + 1], orth[a + 1 : b + 1] = row_norms_and_overlaps(
                f_after[a:b], states[a + 1 : b + 1]
            )
    return states, norms, orth


def discrete_loop(U, f_seq, psi0):
    # psi_n = (1 - f_n f_n^dag) U psi_{n-1}, raw sub-normalized states
    n = psi0.shape[0]
    eye = np.eye(n, dtype=np.complex128)

    def propagators(a, b):
        return (eye - _outer(f_seq[a:b], f_seq[a:b])) @ U

    states, norms, orth = _evolve(psi0, f_seq.shape[0], propagators, f_seq)
    orth[0] = 0.0
    return states, norms, orth


def continuous_loop(H, f_grid, f_mid, fdot_mid, psi0, dt):
    # one step: psi <- exp(-i H_D(t + dt/2) dt) psi with
    # H_D = P H P + i(|fdot><f| - |f><fdot|), P = 1 - |f><f|, all at midpoint
    transport = not np.any(H)

    def propagators(a, b):
        if transport:
            return _transport_steps(f_mid[a:b], fdot_mid[a:b], dt)
        w, v = np.linalg.eigh(effective_hamiltonians(H, f_mid[a:b], fdot_mid[a:b]))
        return (v * np.exp(-1j * w * dt)[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))

    states, norms, orth = _evolve(psi0, f_mid.shape[0], propagators, f_grid[1:])
    orth[0] = np.abs(np.vdot(f_grid[0], psi0))
    return states, norms, orth


def embedded_loop(f_mid, psi0, energy, dt):
    # exact rank-1 midpoint step: exp(-i E dt |f><f|) = 1 + (e^{-i E dt} - 1)|f><f|
    factor = np.exp(-1j * energy * dt) - 1.0
    eye = np.eye(psi0.shape[0], dtype=np.complex128)

    def propagators(a, b):
        return eye + factor * _outer(f_mid[a:b], f_mid[a:b])

    return _evolve(psi0, f_mid.shape[0], propagators)[0]
