"""Trajectory containers and their CSV serialization.

CSV files are deterministic: every value is written byte for byte as
Python's ``"%.17g" % x`` writes it (:func:`format_float`), with '.' decimal
separator, '\\n' line endings, and a versioned header comment beginning
``#schema=1`` that lists the column order.  :func:`write_rows` writes every
CSV the package produces: trajectories and the CLI's sweep tables.  Fed a
few rows at a time, as the CLI feeds it a run's windows, it writes the same
bytes as in one call.

:func:`write_rows` copies the columns it is given into a buffer of whole
rows, about 5,120 values, and formats it with array operations, a block at
a time, in stages whose temporaries are released on return.  Each value's
17 significant digits come from an error-free double-double product with a
tabulated power of ten, rounded to nearest once the decimal exponent is
fixed from the unrounded product.  The characters are laid out in one fixed
frame per value (separator, sign, "0." and zeros, the digits twice, '.', the
exponent), and a keep mask, looked up by the value's sign, notation and
digit count, picks the text of ``%g`` out of it.  NaN, infinities, nonzero
values outside 1e-200 <= |x| < 1e200 and values within 1e-6 of a rounding
tie are written by :func:`format_float`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError

__all__ = ["DarkTrajectory", "EmbeddedTrajectory", "format_float", "write_rows"]


def format_float(x: float) -> str:
    """Format one float with 17 significant digits."""
    return f"{x:.17g}"


def _freeze(traj) -> None:
    for f in fields(traj):
        value = getattr(traj, f.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


def _dark_columns(n: int) -> list[str]:
    """CSV columns of a :class:`DarkTrajectory` of dimension ``n``."""
    states = [f"re_psi_{j}" for j in range(n)] + [f"im_psi_{j}" for j in range(n)]
    return ["t"] + states + ["norm", "survival_prob", "orth_residual"]


def _embedded_columns(n: int) -> list[str]:
    """CSV columns of an :class:`EmbeddedTrajectory` of dimension ``n``."""
    return _dark_columns(n) + ["re_alpha", "im_alpha"]


def _embedded_blocks(times, dark, alpha) -> tuple:
    """The CSV blocks of an :class:`EmbeddedTrajectory`'s rows: the dark
    component's columns, its norms derived from it, then alpha's."""
    norms = np.linalg.norm(dark, axis=1)
    return times, dark.real, dark.imag, norms, norms**2, np.abs(alpha), alpha.real, alpha.imag


# %.17g with array operations.  A finite x with _FAST_MIN <= |x| < _FAST_MAX
# is written from the 17-digit integer D = round(|x| * 10**(16 - X)) in
# [10**16, 10**17) and its decimal exponent X.  The scaled value is the
# error-free product (Dekker 1971) of |x| and 10**p held as a pair of
# doubles, off from the exact value by about 1e-14 of a unit in the 17th
# digit.  So X is chosen from the unrounded value, and rounding to nearest
# is decided exactly unless the fraction lies within _TIE_WINDOW of 1/2.
# Those values (every exact tie among them), NaN, infinities and nonzero
# values outside the range go to format_float, one call each.
_FAST_MIN, _FAST_MAX = 1e-200, 1e200
_TIE_WINDOW = 1e-6
_P_MIN, _P_MAX = -185, 218  # 16 - X over the fast range, and one more each way
_SPLIT = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves


def _pow10_pairs():
    """``10**p = hi + lo`` for p from _P_MIN to _P_MAX, with hi's split halves."""
    p = np.arange(_P_MIN, _P_MAX + 1)
    hi = 10.0**p
    # lo = 10**p - hi in exact integers, with hi = M * 2**(e - 53)
    mantissa, e = np.frexp(hi)
    M = np.ldexp(mantissa, 53).astype(np.int64).astype(object)
    tens = np.full(1 + max(-_P_MIN, _P_MAX), 10, dtype=object)
    tens[0] = 1
    power = np.multiply.accumulate(tens)[np.abs(p)]
    num = np.where(p >= 0, power, 1)
    den = np.where(p < 0, power, 1)
    up = np.maximum(53 - e, 0).astype(object)
    down = np.maximum(e - 53, 0).astype(object)
    lo = (((num << up) - ((M * den) << down)) / (den << up)).astype(float)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    return hi, hi_hi, hi - hi_hi, lo


_POW10_TABLES = _pow10_pairs()


def _digit_tables():
    """"0000" .. "9999" as one uint32 word each, and each one's trailing zeros."""
    chars = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    words = np.stack(np.broadcast_arrays(*np.ix_(*[chars] * 4)), axis=-1).view(np.uint32)
    a, b, c, d = np.ix_(*[(chars == ord("0")).astype(np.uint8)] * 4)
    return words.ravel(), (d * (1 + c * (1 + b * (1 + a)))).ravel()


_DIGITS4, _TRAILING_ZEROS4 = _digit_tables()

# One frame of _WIDTH bytes per value holds every character its text can
# need, at fixed places; a keep mask picks the text out of it:
#   0-7     separator before the value, sign, "0." and the zeros of a fixed
#           value below 1, first digit: one word, right-aligned
#   8-23    digits 2-17       (or the fallback text, bytes 8-31)
#   27      '.'
#   28-43   digits 2-17 again
#   48-55   'e', the exponent's sign and two or three digits: one word
# A value's separator comes first, so that the text of a value below 1,
# where most trajectory values lie, is one run of bytes.  A value that
# starts a line takes the newline that ends the line (or the header) before.
_WIDTH = 56
_X_MIN = -330  # below every double's exponent
_EXPONENTS = np.arange(_X_MIN, 1 - _X_MIN)


def _prefix_words():
    """Word 0 of a frame for (line start, sign, zeros + 1 or 0, first digit)."""
    line_start = np.arange(2)[:, None, None, None, None]
    sign = np.arange(2)[:, None, None, None]
    zeros = np.arange(-1, 4)[:, None, None]  # -1: no "0."
    digit = np.arange(10)[:, None]
    b = np.arange(8)
    below_one = np.where(zeros >= 0, 2 + zeros, 0)  # length of "0." and the zeros
    at = b - (6 - below_one - sign)  # place in the text, 0 at the separator
    after_sign = at - 1 - sign
    chars = np.where(b == 7, ord("0") + digit, 0)
    chars = np.where((after_sign >= 0) & (after_sign < below_one), ord("0"), chars)
    chars = np.where((after_sign == 1) & (below_one > 0), ord("."), chars)
    chars = np.where((at == 1) & (sign == 1), ord("-"), chars)
    chars = np.where(at == 0, np.where(line_start == 1, ord("\n"), ord(",")), chars)
    return chars.astype(np.uint8).view(np.uint64).ravel()


def _exponent_words():
    """Word 6 of a frame for each exponent: "e+dd" or "e+ddd", left-aligned."""
    X = _EXPONENTS[:, None]
    b = np.arange(8)
    size = np.where(np.abs(X) >= 100, 5, 4)
    place = 10 ** np.maximum(size - 1 - b, 0)  # the digit at byte b
    chars = np.where(b < size, np.abs(X) // place % 10 + ord("0"), 0)
    chars = np.where(b == 1, np.where(X < 0, ord("-"), ord("+")), chars)
    chars = np.where(b == 0, ord("e"), chars)
    return chars.astype(np.uint8).view(np.uint64).ravel()


_PREFIX_WORDS = _prefix_words()
_EXPONENT_WORDS = _exponent_words()
# index into _PREFIX_WORDS: _LINE_START for a value that starts a line, 50
# for a negative one, 10 * (zeros + 1) below one (this table), the digit
_LINE_START = 100
_PREFIX_OF = 10 * np.where((_EXPONENTS >= -4) & (_EXPONENTS < 0), -_EXPONENTS, 0)

# Layouts: 0-20 fixed notation for X = layout - 4, 21 and 22 scientific with
# a two- and a three-digit exponent, 23 fallback text.  A mask row is keyed
# by (sign, layout, count), count being the significant digits or the
# length of the fallback text; _LAYOUT_OF holds the key of 17 digits.
_LAYOUTS, _COUNTS = 24, 25
_FALLBACK = 23
_LAYOUT_OF = 17 + _COUNTS * np.where(
    (_EXPONENTS >= -4) & (_EXPONENTS < 17),
    _EXPONENTS + 4,
    np.where(np.abs(_EXPONENTS) < 100, 21, 22),
)


def _keep_masks():
    sign = np.arange(2)[:, None, None, None]
    layout = np.arange(_LAYOUTS)[:, None, None]
    count = np.arange(_COUNTS)[:, None]
    b = np.arange(_WIDTH)
    X = layout - 4
    fixed = layout <= 20
    scientific = (layout == 21) | (layout == 22)
    text = layout == _FALLBACK
    below_one = fixed & (X < 0)
    # the digits in the first run (before any '.'), and the bytes of word 0
    before = np.where(below_one, count, np.where(fixed, X + 1, 1))
    prefix = 2 + sign + np.where(below_one, 1 - X, 0)
    keep = ~text & (b >= 8 - prefix) & (b < 7 + before)
    fraction = ~text & ~below_one & (count > before)
    keep = keep | (fraction & ((b == 27) | ((b >= 27 + before) & (b < 27 + count))))
    keep = keep | (scientific & (b >= 48) & (b < 31 + layout))
    keep = keep | (text & (b >= 7) & (b < 8 + count))
    return keep.reshape(-1, _WIDTH)


_KEEP = _keep_masks()


def _scaled(a, k):
    """``a * 10**(16 - k)`` as an integer-valued double plus a small rest."""
    # each product goes into an array after that array's last read: the
    # same operations in the same order, holding seven arrays of len(a)
    i = 16 - _P_MIN - k
    hi, hi_hi, hi_lo, lo = (np.take(table, i) for table in _POW10_TABLES)
    del i
    c = _SPLIT * a
    a_hi = c - a
    np.subtract(c, a_hi, out=a_hi)  # c - (c - a)
    a_lo = np.subtract(a, a_hi, out=c)
    whole = np.multiply(a, hi, out=hi)
    # ((a_hi hi_hi - whole) + a_hi hi_lo + a_lo hi_hi) + a_lo hi_lo + a lo
    error = a_hi * hi_hi
    error -= whole
    error += np.multiply(a_hi, hi_lo, out=a_hi)
    error += np.multiply(a_lo, hi_hi, out=hi_hi)
    error += np.multiply(a_lo, hi_lo, out=hi_lo)
    error += np.multiply(a, lo, out=lo)
    return whole, error


def _decimal(x):
    """``(D, exponent, fast, zero)`` of the flat float64 values ``x``.

    ``D`` is the 17-digit integer of ``|x|``, ``exponent`` its decimal
    exponent as an index into the tables, ``fast`` whether the frame writes
    the value (else :func:`format_float` does) and ``zero`` whether it is 0.
    """
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    a[~fast] = 1.0  # a zero is written as the digits of 1 with its digit 0
    fast |= zero
    k = np.floor(np.log10(a)).astype(np.intp)
    whole, rest = _scaled(a, k)
    # log10 can miss by one next to a power of ten: move k until the
    # unrounded value lies in [10**16, 10**17)
    floored = whole.astype(np.int64)
    floored += np.floor(rest).astype(np.int64)
    shift = (floored >= 10**17).astype(np.intp)
    shift -= floored < 10**16
    moved = np.flatnonzero(shift)
    if moved.size:
        k[moved] += shift[moved]
        whole[moved], rest[moved] = _scaled(a[moved], k[moved])
    floor = np.floor(rest)
    frac = np.subtract(rest, floor, out=rest)
    fast &= np.abs(frac - 0.5) >= _TIE_WINDOW
    D = whole.astype(np.int64)
    D += floor.astype(np.int64)
    D += frac > 0.5
    carry = D == 10**17
    D[carry] = 10**16
    k += carry
    k -= _X_MIN  # the decimal exponent, as an index into the tables
    return D, k, fast, zero


def _fill_frame(x, line_start, frame):
    """Lay out the characters of the values ``x`` in ``frame``.

    Returns ``(key, fast)``: each value's row of _KEEP, and whether the
    frame holds its text (else the caller writes the fallback text).
    """
    D, exponent, fast, zero = _decimal(x)
    upper = D // 10**8
    lower = np.subtract(D, upper * 10**8, out=D)
    g3 = lower // 10**4
    g4 = np.subtract(lower, g3 * 10**4, out=lower)
    g0 = upper // 10**4
    g2 = np.subtract(upper, g0 * 10**4, out=upper)
    lead = g0 // 10**4
    g1 = np.subtract(g0, lead * 10**4, out=g0)

    # every block writes bytes 8-43, the '.' included: an earlier block's
    # fallback text may cover bytes 8-31
    words = frame.view(np.uint32)
    for column, group in enumerate((g1, g2, g3, g4), start=2):
        words[:, column] = words[:, column + 5] = np.take(_DIGITS4, group)
    frame[:, 27] = ord(".")
    sign = np.signbit(x)
    words = frame.view(np.uint64)
    prefix = line_start + 50 * sign
    prefix += np.take(_PREFIX_OF, exponent)
    prefix += lead
    prefix -= zero
    words[:, 0] = np.take(_PREFIX_WORDS, prefix)
    del lead, prefix, zero
    words[:, 6] = np.take(_EXPONENT_WORDS, exponent)

    zeros = np.take(_TRAILING_ZEROS4, g1)
    for group in (g2, g3, g4):
        zeros = np.where(group == 0, zeros + 4, np.take(_TRAILING_ZEROS4, group))
    key = np.take(_LAYOUT_OF, exponent)
    key -= zeros
    key += sign * (_LAYOUTS * _COUNTS)
    return key, fast


def _format_block(x, line_start, frame, keep):
    """The ASCII text of the flat float64 values ``x``, each after its separator.

    ``line_start`` is _LINE_START for a value that starts a line, else 0;
    ``frame`` and ``keep`` are scratch of one _WIDTH-byte row per value.
    Each stage releases its arrays on return, so no more than one stage's
    temporaries are held at a time.
    """
    key, fast = _fill_frame(x, line_start, frame)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = [format_float(v).encode() for v in x[slow].tolist()]
        sizes = np.array([len(t) for t in texts])
        key[slow] = _FALLBACK * _COUNTS + sizes
        frame[slow, 7] = np.where(line_start[slow], ord("\n"), ord(","))
        starts = slow * _WIDTH + 8 - np.cumsum(sizes) + sizes
        frame.ravel()[np.repeat(starts, sizes) + np.arange(sizes.sum())] = np.frombuffer(
            b"".join(texts), np.uint8
        )
    # mode="clip": with the default "raise", take buffers ``out``
    np.take(_KEEP, key, axis=0, out=keep, mode="clip")
    return frame[keep]


# Values formatted at a time, in whole rows: the scratch stays within about
# 1 MiB whatever the table's length or width (512 rows of 10 columns).
# Blocks of twice the values take twice the scratch and write no faster;
# blocks of half write slower.
_CSV_BLOCK_VALUES = 5_120


class _RowWriter:
    """:func:`write_rows` fed a few rows at a time.

    Writes the header when made, each :meth:`write` call's rows, and the
    last line's newline at :meth:`close`: the same bytes as one
    :func:`write_rows` call over all the rows.  No scratch is held between
    calls, so none while a run makes its next window.
    """

    def __init__(self, stream, columns: list[str]):
        # each value's text starts with its separator: the header's newline
        # comes with the first value, and the last line's newline at the end
        stream.write("#schema=1 " + ",".join(columns))
        self.stream = stream

    def write(self, *blocks) -> None:
        """Write the rows of ``blocks``: columns (1-D) or groups of columns
        (2-D) of one length, side by side; no array of their rows is made."""
        blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
        blocks = [b[:, None] if b.ndim == 1 else b for b in blocks]
        m = blocks[0].shape[0]
        edges = np.cumsum([0] + [b.shape[1] for b in blocks])
        block_rows = max(1, _CSV_BLOCK_VALUES // int(edges[-1]))
        rows = np.empty((min(m, block_rows), edges[-1]))
        line_start = np.zeros(rows.shape, np.intp)
        line_start[:, 0] = _LINE_START
        line_start = line_start.ravel()
        frame = np.empty((line_start.size, _WIDTH), np.uint8)
        keep = np.empty(frame.shape, bool)
        for start in range(0, m, block_rows):
            k = min(block_rows, m - start)
            for block, a, b in zip(blocks, edges[:-1], edges[1:]):
                rows[:k, a:b] = block[start : start + k]
            size = rows[:k].size
            text = _format_block(rows[:k].ravel(), line_start[:size], frame[:size], keep[:size])
            self.stream.write(str(text, "ascii"))
            del text  # not held while the next block is formatted

    def close(self) -> None:
        self.stream.write("\n")


def write_rows(stream, columns: list[str], *blocks) -> None:
    """Write a ``#schema=1`` header naming ``columns``, then one line per row.

    The ``blocks``, columns (1-D) or groups of columns (2-D) of one length,
    lie side by side; no array of the whole table is made.  Every value is
    written as :func:`format_float` writes it, byte for byte.
    """
    writer = _RowWriter(stream, columns)
    writer.write(*blocks)
    writer.close()


@dataclass(frozen=True)
class DarkTrajectory:
    """Time-indexed record of a dark-evolution run.

    ``states`` holds the raw propagated states: sub-normalized for discrete
    runs (each measurement removes amplitude), unit-norm up to integrator
    accuracy for continuous runs.  ``survival_probability`` is the squared
    norm: the probability that every measurement so far answered "No".
    ``orthogonality_residual`` records ``|<f(t)|psi(t)>|`` as a monitored
    diagnostic; it is never enforced by projection.
    """

    times: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    survival_probability: np.ndarray
    orthogonality_residual: np.ndarray
    mode: str
    step: float

    def __post_init__(self):
        m = self.times.shape[0]
        if not (
            self.states.shape[0] == m
            and self.norms.shape[0] == m
            and self.survival_probability.shape[0] == m
            and self.orthogonality_residual.shape[0] == m
        ):
            raise InputError("trajectory arrays must share one length")
        if self.mode not in ("discrete", "continuous"):
            raise InputError(f"unknown trajectory mode {self.mode!r}")
        _freeze(self)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def csv_columns(self) -> list[str]:
        return _dark_columns(self.dim)

    def write_csv(self, stream) -> None:
        psi = self.states
        floats = (self.norms, self.survival_probability, self.orthogonality_residual)
        write_rows(stream, self.csv_columns(), self.times, psi.real, psi.imag, *floats)


@dataclass(frozen=True)
class EmbeddedTrajectory:
    """Record of a run under the rank-1 energy-shift Hamiltonian.

    ``full_states`` is the exactly propagated system state.  At each time it
    decomposes as ``full = dark + alpha * f(t)`` with ``dark_states``
    orthogonal to the monitored state and ``alpha = <f(t)|full>``.
    """

    times: np.ndarray
    full_states: np.ndarray
    dark_states: np.ndarray
    alpha: np.ndarray
    energy: float
    step: float

    def __post_init__(self):
        m = self.times.shape[0]
        if not (
            self.full_states.shape[0] == m
            and self.dark_states.shape == self.full_states.shape
            and self.alpha.shape[0] == m
        ):
            raise InputError("trajectory arrays must share one length")
        _freeze(self)

    @property
    def dim(self) -> int:
        return self.full_states.shape[1]

    @property
    def full_norms(self) -> np.ndarray:
        return np.linalg.norm(self.full_states, axis=1)

    @property
    def dark_norms(self) -> np.ndarray:
        return np.linalg.norm(self.dark_states, axis=1)

    def csv_columns(self) -> list[str]:
        return _embedded_columns(self.dim)

    def write_csv(self, stream) -> None:
        """Serialize the dark component; alpha columns carry the remainder.

        The full state is reconstructible as ``dark + alpha * f(t)``.  The
        norm columns are derived one writer block at a time.
        """
        columns = self.csv_columns()
        writer = _RowWriter(stream, columns)
        block_rows = max(1, _CSV_BLOCK_VALUES // len(columns))
        for a in range(0, self.times.size, block_rows):
            b = a + block_rows
            writer.write(*_embedded_blocks(self.times[a:b], self.dark_states[a:b], self.alpha[a:b]))
        writer.close()
