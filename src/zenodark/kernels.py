"""Hot time-stepping loops, in numpy.

The three propagation loops below dominate runtime: many thousands of small
dense steps per run.  The continuous loop works in chunks of midpoints: it
builds the chunk's effective Hamiltonians as one ``(k, n, n)`` stack, calls
``np.linalg.eigh`` once on it and forms the phases and adjoint eigenvectors
for the whole chunk, so only the matrix-vector recurrence runs step by step
in Python.  Norms and overlaps are filled per chunk with stacked ``matmul``,
which rounds exactly like the per-row ``np.linalg.norm`` and ``np.vdot``
(``einsum`` and ``norm(axis=1)`` do not); the outputs are bitwise those of
a plain per-step loop.

``python3 perfbench/run.py`` times the loops inside full CLI runs.
"""

from __future__ import annotations

import numpy as np

# Bytes of one complex (k, n, n) stack per chunk: bounds the chunk's
# temporaries independently of the run length.
_CHUNK_BYTES = 1 << 16


def _chunk_steps(n: int) -> int:
    return max(1, _CHUNK_BYTES // (16 * n * n))


def _norms_and_overlaps(f, states):
    # row-wise ||psi|| and |<f|psi>|, rounded as np.linalg.norm and np.vdot per row
    re, im = states.real, states.imag
    norms = np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])
    orth = np.abs(np.conj(f)[:, None, :] @ states[:, :, None])
    return norms[:, 0, 0], orth[:, 0, 0]


def discrete_loop(U, f_seq, psi0):
    # psi_n = (1 - f_n f_n^dag) U psi_{n-1}, raw sub-normalized states
    m = f_seq.shape[0]
    n = psi0.shape[0]
    states = np.empty((m + 1, n), dtype=np.complex128)
    norms = np.empty(m + 1)
    orth = np.empty(m + 1)
    psi = psi0.copy()
    states[0] = psi
    norms[0] = np.linalg.norm(psi)
    orth[0] = 0.0
    chunk = _chunk_steps(n)
    for a in range(0, m, chunk):
        b = min(a + chunk, m)
        for s in range(a, b):
            f = f_seq[s]
            psi = U @ psi
            psi = psi - np.vdot(f, psi) * f
            states[s + 1] = psi
        norms[a + 1 : b + 1], orth[a + 1 : b + 1] = _norms_and_overlaps(
            f_seq[a:b], states[a + 1 : b + 1]
        )
    return states, norms, orth


def continuous_loop(H, f_grid, f_mid, fdot_mid, psi0, dt):
    # one step: psi <- exp(-i H_D(t + dt/2) dt) psi with
    # H_D = P H P + i(|fdot><f| - |f><fdot|), P = 1 - |f><f|, all at midpoint
    steps = f_mid.shape[0]
    n = psi0.shape[0]
    states = np.empty((steps + 1, n), dtype=np.complex128)
    norms = np.empty(steps + 1)
    orth = np.empty(steps + 1)
    psi = psi0.copy()
    states[0] = psi
    norms[0] = np.linalg.norm(psi)
    orth[0] = np.abs(np.vdot(f_grid[0], psi))
    eye = np.eye(n, dtype=np.complex128)
    chunk = _chunk_steps(n)
    for a in range(0, steps, chunk):
        b = min(a + chunk, steps)
        f = f_mid[a:b, :, None]
        fd = fdot_mid[a:b, :, None]
        fh = np.conj(f_mid[a:b, None, :])
        P = eye - f * fh
        hd = P @ H @ P + 1j * (fd * fh - f * np.conj(fdot_mid[a:b, None, :]))
        w, v = np.linalg.eigh(hd)
        ph = np.exp(-1j * w * dt)
        vh = np.conj(np.swapaxes(v, 1, 2))
        for s in range(b - a):
            psi = v[s] @ (ph[s] * (vh[s] @ psi))
            states[a + s + 1] = psi
        norms[a + 1 : b + 1], orth[a + 1 : b + 1] = _norms_and_overlaps(
            f_grid[a + 1 : b + 1], states[a + 1 : b + 1]
        )
    return states, norms, orth


def embedded_loop(f_mid, psi0, energy, dt):
    # exact rank-1 midpoint step: exp(-i E dt |f><f|) = 1 + (e^{-i E dt} - 1)|f><f|
    steps = f_mid.shape[0]
    n = psi0.shape[0]
    states = np.empty((steps + 1, n), dtype=np.complex128)
    psi = psi0.copy()
    states[0] = psi
    factor = np.exp(-1j * energy * dt) - 1.0
    for s in range(steps):
        f = f_mid[s]
        psi = psi + factor * np.vdot(f, psi) * f
        states[s + 1] = psi
    return states
