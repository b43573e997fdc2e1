"""Hot metric kernels: in-place cumsum sliding sums, a strided trigger
screen, and np.convolve over a window.

Per stream index n (L = quarter period, window w = 2L, template length D):

    ac1(n) = sum_{m=0}^{2L-1} conj(r[n-m]) * r[n-m-L]
    ac2(n) = sum_{m=0}^{2L-1} conj(r[n-m]) * r[n-m-2L]
    ene(n) = sum_{m=0}^{2L-1} |r[n-m]|^2
    xcr(n) = sum_{m=0}^{D-1}  |conj(r[n-m]) * r[n-m-2L]| * a[m]

metric_arrays gives the detection arrays (ac1, ac2, ene) over the whole
stream.  Each sliding sum is one buffer of n + 2L entries whose first 2L
are zero: the summands go in behind the zeros, a cumsum runs over them in
place, and one subtraction of the buffer's first n entries takes away the
sum from 2L samples back (or a zero, and cs - 0 is cs exactly).
screened_trigger finds the first run of m_consec samples with
|ac1| + |ac2| > ene, evaluating that condition at every m-th index and at
full rate only next to the hits.  xcr_window gives xcr over one index range
only: the synchronizer reads it inside the delta_search-sample timing
window and nowhere else.

Samples before the stream start are treated as zeros, matching a streaming
correlator whose delay lines power up cleared.  Values are fully warmed up
once n >= num.ac_valid_from = 4L - 1 (ac/ene) resp. n >= num.lookback =
D + 2L - 1 (xcr, which reaches furthest back).
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the metric kernel implementation (always "numpy"); the
    benchmark records it with its environment."""
    return "numpy"


def _lag_products(r: np.ndarray, lag: int) -> np.ndarray:
    out = np.zeros(r.size, dtype=np.complex128)
    if lag < r.size:
        out[lag:] = np.conj(r[lag:]) * r[:-lag]
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
    ac = []
    for lag in (l_quarter, w):
        buf = np.empty(n + w, dtype=np.complex128)
        buf[: w + lag] = 0.0  # the zeros, then the products before r[0]
        np.multiply(np.conj(r[lag:]), r[:-lag], out=buf[w + lag :])
        ac.append(_window_sums(buf, w))
    buf = np.empty(n + w, dtype=np.float64)
    buf[:w] = 0.0
    np.multiply(r.real, r.real, out=buf[w:])
    buf[w:] += r.imag * r.imag
    return ac[0], ac[1], _window_sums(buf, w)


def xcr_window(
    r: np.ndarray, l_quarter: int, a: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """xcr(n) for lo <= n < hi, in the stream indices of r.

    Builds |conj(r[j]) * r[j-2L]| over [lo-D+1, hi) only and convolves it
    with a in "valid" mode, which equals the matching slice of the full
    convolution bit for bit.  A window that reaches before r[0] takes the
    full convolution over all of r instead: a prefix shorter than D would
    make np.convolve swap its operands and move last bits.
    """
    if hi <= lo:
        return np.zeros(0, dtype=np.float64)
    r = np.ascontiguousarray(r, dtype=np.complex128)
    a = np.asarray(a, dtype=np.float64)
    w = 2 * l_quarter
    j0 = lo - a.size + 1
    if j0 < 0:
        return np.convolve(np.abs(_lag_products(r, w)), a)[lo:hi]
    s = max(j0 - w, 0)  # first sample the lag products over [j0, hi) read
    vm = np.abs(_lag_products(r[s:hi], w)[j0 - s :])
    return np.convolve(vm, a, "valid")


def first_trigger(cond: np.ndarray, m: int, start: int) -> int:
    """First index n with cond[n-m+1..n] all true and n-m+1 >= start; -1 if none.
    With t the true samples' indices, a run of m ends at t[i] iff t[i] - t[i-m+1] == m-1."""
    t = np.flatnonzero(cond[start:])
    if t.size < m:
        return -1
    ends = np.flatnonzero(t[m - 1 :] - t[: t.size - m + 1] == m - 1)
    return start + int(t[ends[0] + m - 1]) if ends.size else -1


def screened_trigger(
    ac1: np.ndarray, ac2: np.ndarray, ene: np.ndarray, m: int, start: int
) -> int:
    """first_trigger((|ac1| + |ac2|) > ene, m, start), without evaluating
    the condition at every index.

    Every run of m samples from start on holds one index of the screen
    start + m - 1, start + 2m - 1, ...  Around each screen hit i, in order,
    the condition is evaluated over [i-m+1, i+m), which holds every run
    through i.  The first such slice that holds a run gives first_trigger's
    answer: it holds the earliest run, and no earlier slice reaches that
    run's end.
    """

    def cond(s: slice) -> np.ndarray:
        return np.abs(ac1[s]) + np.abs(ac2[s]) > ene[s]

    for k in np.flatnonzero(cond(slice(start + m - 1, None, m))):
        lo = start + m * int(k)  # the hit is lo + m - 1
        found = first_trigger(cond(slice(lo, lo + 2 * m - 1)), m, 0)
        if found >= 0:
            return lo + found
    return -1
