"""Hot metric kernels: in-place cumsum sliding sums, a strided trigger
search, and np.convolve over a window.

Per stream index n (L = quarter period, window w = 2L, template length D):

    ac1(n) = sum_{m=0}^{2L-1} conj(r[n-m]) * r[n-m-L]
    ac2(n) = sum_{m=0}^{2L-1} conj(r[n-m]) * r[n-m-2L]
    ene(n) = sum_{m=0}^{2L-1} |r[n-m]|^2
    xcr(n) = sum_{m=0}^{D-1}  |conj(r[n-m]) * r[n-m-2L]| * a[m]

metric_arrays gives the detection arrays (ac1, ac2, ene) over the whole
stream.  Each sliding sum is one buffer of n + 2L entries whose first 2L
are zero: the summands go in behind the zeros (the lag products through
_lag_products, which also feeds xcr_window), a cumsum runs over them in
place, and one subtraction of the buffer's first n entries takes away the
sum from 2L samples back (or a zero, and cs - 0 is cs exactly).
first_trigger finds the first run of m_consec samples with
|ac1| + |ac2| > ene, evaluating that condition at every m-th index and at
full rate only next to the hits.  xcr_window gives xcr over one index range
only: the synchronizer reads it inside the delta_search-sample timing
window and nowhere else.

Samples before the stream start are literal zeros in every metric, as in a
streaming correlator whose delay lines power up cleared.  Values are fully
warmed up once n >= num.ac_valid_from = 4L - 1 (ac/ene) resp. n >=
num.lookback = D + 2L - 1 (xcr, which reaches furthest back).
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the metric kernel implementation (always "numpy"); the
    benchmark records it with its environment."""
    return "numpy"


def _lag_products(r: np.ndarray, lag: int, lead: int = 0) -> np.ndarray:
    """conj(r[j]) * r[j-lag] for every j (zero for j < lag), behind lead
    zeros."""
    out = np.empty(lead + r.size, dtype=np.complex128)
    out[: lead + lag] = 0.0
    np.multiply(np.conj(r[lag:]), r[:-lag], out=out[lead + lag :])
    return out


def _window_sums(buf: np.ndarray, w: int) -> np.ndarray:
    """Sliding sums over w of buf[w:], for a buf whose first w entries are
    zero; buf is overwritten with the running sums."""
    cs = buf[w:]
    np.cumsum(cs, out=cs)
    return np.subtract(cs, buf[: cs.size])


def metric_arrays(
    r: np.ndarray, l_quarter: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ac1, ac2, ene) over the whole stream; empty in, empty out."""
    r = np.ascontiguousarray(r, dtype=np.complex128)
    n, w = r.size, 2 * l_quarter
    ac1, ac2 = (_window_sums(_lag_products(r, lag, w), w) for lag in (l_quarter, w))
    buf = np.empty(n + w, dtype=np.float64)
    buf[:w] = 0.0
    np.multiply(r.real, r.real, out=buf[w:])
    buf[w:] += r.imag * r.imag
    return ac1, ac2, _window_sums(buf, w)


def xcr_window(
    r: np.ndarray, l_quarter: int, a: np.ndarray, lo: int, hi: int
) -> np.ndarray:
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
    r = np.ascontiguousarray(r, dtype=np.complex128)
    a = np.asarray(a, dtype=np.float64)
    w = 2 * l_quarter
    s = lo - a.size + 1 - w  # first sample the lag products over [lo-D+1, hi) read
    vm = np.abs(_lag_products(r[max(s, 0) : hi], w, max(-s, 0))[w:])
    return np.convolve(vm, a, "valid")


def first_trigger(
    ac1: np.ndarray, ac2: np.ndarray, ene: np.ndarray, m: int, start: int
) -> int:
    """First index n where |ac1| + |ac2| > ene has held at n-m+1..n, with
    n-m+1 >= start; -1 if none.

    Every run of m samples from start on holds one index of the screen
    start + m - 1, start + 2m - 1, ...  Around each screen hit i, in order,
    the condition is evaluated over [i-m+1, i+m), which holds every run
    through i; with t the true samples' offsets there, a run of m ends at
    t[j] iff t[j] - t[j-m+1] == m-1.  The first such slice that holds a run
    gives the answer: it holds the earliest run, and no earlier slice
    reaches that run's end.
    """

    def cond(s: slice) -> np.ndarray:
        return np.abs(ac1[s]) + np.abs(ac2[s]) > ene[s]

    for k in np.flatnonzero(cond(slice(start + m - 1, None, m))):
        lo = start + m * int(k)  # the hit is lo + m - 1
        t = np.flatnonzero(cond(slice(lo, lo + 2 * m - 1)))
        ends = t[m - 1 :][t[m - 1 :] - t[: max(t.size - m + 1, 0)] == m - 1]
        if ends.size:
            return lo + int(ends[0])
    return -1
