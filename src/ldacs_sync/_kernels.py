"""Hot metric kernels: cumsum sliding sums plus np.convolve.

Per stream index n (L = quarter period, window w = 2L, template length D):

    ac1(n) = sum_{m=0}^{2L-1} conj(r[n-m]) * r[n-m-L]
    ac2(n) = sum_{m=0}^{2L-1} conj(r[n-m]) * r[n-m-2L]
    ene(n) = sum_{m=0}^{2L-1} |r[n-m]|^2
    xcr(n) = sum_{m=0}^{D-1}  |conj(r[n-m]) * r[n-m-2L]| * a[m]

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
    r: np.ndarray, l_quarter: int, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ac1, ac2, ene, xcr) over the whole stream; empty in, empty out."""
    r = np.ascontiguousarray(r, dtype=np.complex128)
    w = 2 * l_quarter
    u = _lag_products(r, l_quarter)
    v = _lag_products(r, w)
    e = r.real**2 + r.imag**2
    ac1 = _sliding_sum(u, w)
    ac2 = _sliding_sum(v, w)
    ene = _sliding_sum(e, w)
    vm = np.abs(v)
    # np.convolve rejects an empty input
    xcr = np.convolve(vm, np.asarray(a, dtype=np.float64))[: r.size] if r.size else vm
    return ac1, ac2, ene, xcr


def first_trigger(cond: np.ndarray, m: int, start: int) -> int:
    """First index n with cond[n-m+1..n] all true and n-m+1 >= start; -1 if none."""
    c = np.asarray(cond, dtype=np.int64)
    if c.size < start + m:
        return -1
    runs = _sliding_sum(c, m)  # runs[n] = number of true in the last m slots
    ok = runs[start + m - 1 :] == m
    hits = np.nonzero(ok)[0]
    if hits.size == 0:
        return -1
    return int(hits[0]) + start + m - 1
