"""Hot metric kernels: cumsum sliding sums, and np.convolve over a window.

Per stream index n (L = quarter period, window w = 2L, template length D):

    ac1(n) = sum_{m=0}^{2L-1} conj(r[n-m]) * r[n-m-L]
    ac2(n) = sum_{m=0}^{2L-1} conj(r[n-m]) * r[n-m-2L]
    ene(n) = sum_{m=0}^{2L-1} |r[n-m]|^2
    xcr(n) = sum_{m=0}^{D-1}  |conj(r[n-m]) * r[n-m-2L]| * a[m]

metric_arrays gives the detection arrays (ac1, ac2, ene) over the whole
stream.  xcr_window gives xcr over one index range only: the synchronizer
reads it inside the delta_search-sample timing window and nowhere else.

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


def _sliding_sum(x: np.ndarray, w: int) -> np.ndarray:
    cs = np.cumsum(x)
    out = cs.copy()
    if w < x.size:
        out[w:] = cs[w:] - cs[:-w]
    return out


def metric_arrays(
    r: np.ndarray, l_quarter: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ac1, ac2, ene) over the whole stream; empty in, empty out."""
    r = np.ascontiguousarray(r, dtype=np.complex128)
    w = 2 * l_quarter
    ac1 = _sliding_sum(_lag_products(r, l_quarter), w)
    ac2 = _sliding_sum(_lag_products(r, w), w)
    ene = _sliding_sum(r.real**2 + r.imag**2, w)
    return ac1, ac2, ene


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
