"""Hot metric kernels: in-place running-sum sliding sums, a trigger search, and
np.convolve over a window.

Per stream index n (L = quarter period, window w = 2L, template length D):

    ac1(n) = sum_{m=0}^{2L-1} conj(r[n-m]) * r[n-m-L]
    ac2(n) = sum_{m=0}^{2L-1} conj(r[n-m]) * r[n-m-2L]
    ene(n) = sum_{m=0}^{2L-1} |r[n-m]|^2
    xcr(n) = sum_{m=0}^{D-1}  |conj(r[n-m]) * r[n-m-2L]| * a[m]

L and m_consec are the fixed Numerology values; m_consec divides L.

metric_arrays gives the detection arrays (ac1, ac2, ene) over the whole
stream.  Each sliding sum is one buffer of n + 2L entries whose first 2L
are zero: the summands go in behind the zeros (the lag products of both
lags through _lag_products, from one conjugate of r; it also feeds
xcr_window), a running sum runs over them in place (np.add.accumulate, the
loop np.cumsum runs, without its wrapper's cost on campaign-sized frames),
and one subtraction of the buffer's first n entries takes away the sum
from 2L samples back (or a zero, and cs - 0 is cs exactly).
first_trigger finds the first run of m_consec samples with
|ac1| + |ac2| > ene in one pass over the condition.  xcr_window gives xcr
over one index range only: the synchronizer reads it inside the
delta_search-sample timing window and nowhere else.  metric_arrays with
strided=True gives the same windows at one index in m_consec, from
m_consec-sample row sums, and may_trigger reads the trigger condition
there, with a derived rounding bound, to tell whether a trigger can fall
in a buffer at all: it is the cheap screen in front of the full-rate
kernels.  The bound comes from the buffer's energy, summed first, and a
finite energy proves every sample finite.  The same energy, against
_energy_limit, proves that no value the kernels form overflows.

The kernels convert nothing: SyncState, their one package caller, passes
r as a contiguous complex128 vector and a as the float64 template it has
checked (metrics_direct, the oracle, converts its own inputs).

Samples before the stream start are literal zeros in every metric, as in a
streaming correlator whose delay lines power up cleared.  Values are fully
warmed up once n >= num.ac_valid_from = 4L - 1 (ac/ene) resp. n >=
num.lookback = D + 2L - 1 (xcr, which reaches furthest back).
"""

from __future__ import annotations

import numpy as np

from .sigmodel import Numerology

_L, _M = Numerology.l_quarter, Numerology.m_consec

# unit roundoff of float64, and its smallest subnormal: twice the absolute
# error of a rounding that underflows
_U = np.finfo(np.float64).eps / 2
_ETA = np.finfo(np.float64).smallest_subnormal
# the largest float64, and the largest buffer energy E the detection
# kernels take: their values reach 2E, and a factor 2 covers the rounding
# (the range paragraph of trigger_margins)
_FMAX = np.finfo(np.float64).max
_E_DETECT = _FMAX / 4


def active_backend() -> str:
    """Name of the metric kernel implementation (always "numpy"); the
    benchmark records it with its environment."""
    return "numpy"


def _lag_products(rc: np.ndarray, r: np.ndarray, lag: int, lead: int = 0) -> np.ndarray:
    """conj(r[j]) * r[j-lag] for every j (zero for j < lag), behind lead
    zeros; rc is conj(r), which the caller makes once for all its lags."""
    out = np.empty(lead + r.size, dtype=np.complex128)
    out[: lead + lag] = 0.0
    np.multiply(rc[lag:], r[:-lag], out=out[lead + lag :])
    return out


def _window_sums(buf: np.ndarray, w: int) -> np.ndarray:
    """Sliding sums over w of buf[w:], for a buf whose first w entries are
    zero; buf is overwritten with the running sums."""
    cs = buf[w:]
    np.add.accumulate(cs, out=cs)
    return np.subtract(cs, buf[: cs.size])


def metric_arrays(
    r: np.ndarray, strided: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ac1, ac2, ene) over the whole stream; empty in, empty out.

    With strided=True, the same windows at every m-th index only (m =
    m_consec): entry b is the value at b*m + m - 1, the last index of the
    b-th whole m-sample row of r, to rounding (trigger_margins bounds it).
    Row b's lag-L and lag-2L products pair it with the row L/m resp. 2L/m
    before (none before r[0]), so each row's three sums are batched dot
    products of whole rows, and a window of 2L is 2L/m rows: the row sums'
    sliding sums are the windows at the row ends, with no lag-product array.
    """
    if strided:
        return _row_windows(r)
    w = 2 * _L
    rc = np.conj(r)
    ac1, ac2 = (_window_sums(_lag_products(rc, r, lag, w), w) for lag in (_L, w))
    buf = np.empty(r.size + w, dtype=np.float64)
    buf[:w] = 0.0
    np.multiply(r.real, r.real, out=buf[w:])
    buf[w:] += r.imag * r.imag
    return ac1, ac2, _window_sums(buf, w)


def _row_windows(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """metric_arrays(r, strided=True)."""
    m = _M
    q, w = _L // m, 2 * _L // m  # rows per lag L, per window 2L
    nr = r.size // m
    rows = r[: nr * m].reshape(nr, m)
    cur = rows.conj()[:, None, :]
    out = []
    for lag in (q, w):
        k = max(nr - lag, 0)  # rows with a partner
        p = np.empty(w + nr, dtype=np.complex128)
        p[: w + nr - k] = 0.0
        np.matmul(cur[nr - k :], rows[:k, :, None], out=p[w + nr - k :].reshape(k, 1, 1))
        out.append(_window_sums(p, w))
    flat = r[: nr * m].view(np.float64).reshape(nr, 2 * m)
    p = np.empty(w + nr, dtype=np.float64)
    p[:w] = 0.0
    np.einsum("ij,ij->i", flat, flat, out=p[w:])
    out.append(_window_sums(p, w))
    return tuple(out)


def xcr_window(r: np.ndarray, a: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """xcr(n) for lo <= n < hi, in the stream indices of r.

    Convolves |conj(r[j]) * r[j-2L]| over [lo-D+1, hi), zero for j < 2L
    and before r[0], with a in "valid" mode; that operand is never shorter
    than a, so np.convolve keeps it first.  Each value is one dot product
    of the same D terms wherever the window sits, so a zero prefix shifts
    the output exactly, and for lo >= D - 1 it is the full convolution's
    slice bit for bit.
    """
    if hi <= lo:
        return np.zeros(0, dtype=np.float64)
    w = 2 * _L
    s = lo - a.size + 1 - w  # first sample the lag products over [lo-D+1, hi) read
    seg = r[max(s, 0) : hi]
    vm = np.abs(_lag_products(np.conj(seg), seg, w, max(-s, 0))[w:])
    return np.convolve(vm, a, "valid")


def first_trigger(
    ac1: np.ndarray, ac2: np.ndarray, ene: np.ndarray, m: int, start: int
) -> int:
    """First index n where |ac1| + |ac2| > ene has held at n-m+1..n, with
    n-m+1 >= start; -1 if none.

    One pass over [start, n): with t the offsets where the condition holds,
    a run of m ends at t[j] iff t[j] - t[j-m+1] == m-1.
    """
    s = slice(start, None)
    t = (np.abs(ac1[s]) + np.abs(ac2[s]) > ene[s]).nonzero()[0]
    ends = (t[m - 1 :] - t[: max(t.size - m + 1, 0)] == m - 1).nonzero()[0]
    return start + int(t[ends[0] + m - 1]) if ends.size else -1


def trigger_margins(r: np.ndarray, start: int) -> tuple[int, np.ndarray, float]:
    """(first, margin, tol): margin[i] is |ac1| + |ac2| - ene of r at index
    first + i*m, the last index of each m-sample row of r (rows from r[0],
    m = m_consec) at or after start, from metric_arrays(r, strided=True),
    and every margin is within tol of the value metric_arrays(r) gives.

    tol bounds the rounding of both sides, so a margin <= -tol proves that
    metric_arrays' |ac1| + |ac2| > ene is false at that index.  Let N =
    r.size, u the unit roundoff and E the energy of r.  Each |lag product|
    is at most (|r_j|^2 + |r_{j-lag}|^2) / 2, so the products of either lag,
    like the energies, sum to at most E in magnitude.  Any summation of n
    terms, in any order, ends within (n - 1)u times their magnitude sum; the
    real and imaginary parts of a complex sum do so separately, within
    sqrt(2)(n - 1)u together.  In metric_arrays each window value is the
    difference of two cumsum entries (n <= N) over products, which carry
    2 sqrt(2)u relative rounding, resp. squares, which carry 2u.  With the
    subtraction and the magnitude, |ac1| and |ac2| are each within
    2 sqrt(2) N u E + 11u E and ene within 2 N u E + 5u E, and the sum
    |ac1| + |ac2| adds 2u E: all told (4 sqrt(2) + 2) N u E + 29u E
    < 8 N u E once N >= 86.  The row windows go through the same steps with
    fewer terms per sum, so they are within 8 N u E as well.  E is itself
    summed within N u E, and tol = 32 N (u E + eta) doubles the 16 N u E
    of both sides, which covers that and the second-order terms.  A
    rounding that underflows errs by up to eta/2 in absolute terms instead,
    eta the smallest subnormal, and fewer than 64 N roundings feed the two
    sides: 32 N eta covers them.

    tol comes first, from one np.vdot, which warns on no non-finite value,
    and the margins after it, so may_trigger can answer on tol alone.

    Range.  No value the kernels form over r exceeds 2E in magnitude, so
    none overflows while E is at most _energy_limit(a): each lag product
    and each energy is at most E (as above), and so are the cumsum entries
    and window sums over them; |ac1| + |ac2| <= 2E; the margin lies within
    2E of zero and tol is below E; xcr(n), a sum of D |lag products|
    weighted by a, is at most max|a| E, and so are the partial sums of its
    convolution.  _energy_limit(a) is the float64 maximum over
    2 max(2, max|a|), which leaves a factor 2 for the rounding, itself at
    most 8 N u E (N <= 2^48) in relative terms; _E_DETECT, the maximum
    over 4, covers ac1, ac2, ene and the margins alone.
    """
    tol = _tol(r.size, _energy(r))
    return (*_margins(r, start), tol)


def _energy(r: np.ndarray) -> float:
    """The energy E of r, sum |r_j|^2, from one np.vdot, which warns on no
    non-finite value or overflow: finite exactly when every part of every
    sample of r is finite and E does not overflow."""
    return float(np.vdot(r, r).real)


def _energy_limit(a: np.ndarray) -> float:
    """The largest energy of a buffer the kernels take with the finite
    template a, xcr_window's included, without overflow (the range
    paragraph of trigger_margins); at most _E_DETECT.  It is > 0 exactly
    when a is finite: np.abs(a).max() and np.maximum carry a NaN through,
    and an inf makes the limit 0."""
    return float(_FMAX / (2.0 * np.maximum(2.0, np.abs(a).max())))


def _tol(n: int, e: float) -> float:
    """trigger_margins' tol for n samples of energy e."""
    return 32.0 * n * (_U * e + _ETA)


def _margins(r: np.ndarray, start: int) -> tuple[int, np.ndarray]:
    """trigger_margins' (first, margin)."""
    m = _M
    ac1, ac2, ene = metric_arrays(r, strided=True)
    b0 = -(-(start + 1) // m) - 1  # the first row ending at or after start
    return m * b0 + m - 1, np.abs(ac1[b0:]) + np.abs(ac2[b0:]) - ene[b0:]


def may_trigger(r: np.ndarray, start: int, limit: float = _E_DETECT) -> bool:
    """False only when first_trigger on metric_arrays(r) cannot find a run
    of m_consec from start on: at one index in every m_consec, the last of
    each row in trigger_margins, the margin is at most -tol.  Every run of
    m_consec samples holds one such index.

    The energy comes first: one that is not finite or exceeds limit (at
    most _E_DETECT) answers True before any row arithmetic, so neither
    non-finite samples nor values that would overflow reach the kernels
    here, and a False answer proves every sample of r finite and its
    energy at most limit.  A non-finite margin fails its comparison and
    answers True as well."""
    e = _energy(r)
    if not e <= limit:
        return True
    return not (_margins(r, start)[1] <= -_tol(r.size, e)).all()
