"""Preamble detection, symbol timing, and fractional CFO estimation.

Metric definitions live in _kernels (ac1/ac2 lag autocorrelations, ene
energy reference, xcr weighted magnitude correlation).  Detection declares a
trigger at the first sample where

    |ac1(n)| + |ac2(n)| > ene(n)

has held for m_consec consecutive samples.  Timing then scans xcr over a
window of delta_search samples placed one symbol span past the trigger (the
metric peak trails the trigger by roughly the anchor depth) and subtracts
the timing anchor k0 = num.anchor, where the template is read back from,
giving the frame-start estimate n_hat directly.  Timing and CFO are
estimated once, from the complete window; a stream that ends inside it
keeps its trigger without estimates.

The fractional CFO estimate combines both symbol structures.  With
phi_i = -arg(ac_i) read at the matched positions,

    n1 = n2 - n_symbol           (end of symbol 1's useful part)
    n2 = n_hat + k0              (end of symbol 2's useful part, the xcr peak)

the lag-L reading gives a coarse estimate eps1 = 2*phi1/pi covering
(-2, 2], and the lag-2L readings give a fine estimate eps = phi2/pi + 2*k
whose integer ambiguity k in {-1, 0, +1} is resolved against eps1 (the
nearest candidate; equivalent to the usual three-branch rule on phi1 but
well-behaved when phi1 sits numerically on a branch boundary).  Readings at
n1 and n2 are summed coherently before taking the angle.

SyncState runs this chain over a stream fed in chunks of any size, through
the same kernels and the same trigger, timing and CFO code.  synchronize and
metric_stream push a stream through a SyncState in fixed blocks of _BLOCK
samples, each checked for finiteness as it is pushed, so their working
memory and the kernels' cumsums do not grow with the stream.  synchronize
stops pushing once the estimate is final and only checks the rest.  While
it searches, it screens each full block first (_kernels.may_trigger, on
the detection kernel's windows at a stride of m_consec, from row sums): a
block where no trigger can fall skips the full-rate kernels, and the
result keeps every bit.  A noise block costs the screen about a quarter of
the full-rate kernels' time; a block that may trigger pays both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._kernels import first_trigger, may_trigger, metric_arrays, xcr_window
from .sigmodel import Numerology


@dataclass(frozen=True)
class MetricSnapshot:
    """Metric values at one stream index."""

    n: int
    ac1: complex
    ac2: complex
    ene: float
    xcr: float


@dataclass
class SyncResult:
    """One synchronization outcome, in one of three states: not detected
    (detected=False, all else None); triggered (trigger_index set, STO and
    CFO None: the stream ended before the timing window and the CFO
    readings were complete); estimated (sto_estimate set; a CFO field is
    None only when its correlator reading had zero magnitude)."""

    detected: bool
    trigger_index: Optional[int] = None
    sto_estimate: Optional[int] = None
    cfo_estimate: Optional[float] = None
    cfo_estimate_ac1: Optional[float] = None
    cfo_estimate_ac2: Optional[float] = None


# Samples per push when synchronize and metric_stream scan a whole stream.
# It bounds the kernels' working memory (~10 arrays of this length) and the
# length of their cumsums.  16 Ki scanned fastest among 4-128 Ki on 2 Mi
# samples, and every campaign frame (~2.2 k samples) fits in one block, so
# a campaign trial is a single push.
_BLOCK = 1 << 14


# ---------------------------------------------------------------------------
# metrics


def _as_stream(stream: Sequence[complex]) -> np.ndarray:
    """The stream as a contiguous complex128 vector; rejects anything that
    is not 1-D.  An empty stream is valid."""
    r = np.ascontiguousarray(stream, dtype=np.complex128)
    if r.ndim != 1:
        raise ValueError(f"stream must be 1-D, got shape {r.shape}")
    return r


def _check_finite(r: np.ndarray) -> None:
    if not np.isfinite(r).all():
        raise ValueError("stream contains non-finite samples")


def metric_stream(
    stream: Sequence[complex], num: Numerology, template: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ac1, ac2, ene, xcr) arrays over the whole stream.

    The stream must be 1-D and finite (ValueError otherwise; finiteness is
    checked block by block).  The stream is pushed into one SyncState in the
    blocks synchronize uses, and each push's metrics go into the four
    outputs in place, so they match pushes of any other chunk sizes (xcr bit
    for bit, the rest to rounding) and the scan's memory peaks at the
    outputs plus one block's work.
    """
    r = _as_stream(stream)
    out = tuple(np.empty(r.size, t) for t in (np.complex128, np.complex128, float, float))
    state = SyncState(num, template)
    for i in range(0, r.size, _BLOCK):
        for arr, part in zip(out, state.push(r[i : i + _BLOCK])):
            arr[i : i + part.size] = part
    return out


def metrics_direct(
    window: Sequence[complex], num: Numerology, template: np.ndarray
) -> MetricSnapshot:
    """Direct-summation oracle for the metrics at the window's last index.

    Independent of the sliding-sum kernels; used to pin them down in tests.
    The window must cover every lag: more than num.lookback samples.
    """
    r = np.ascontiguousarray(window, dtype=np.complex128)
    L = num.l_quarter
    w = 2 * L
    d = num.d_template
    n = r.size - 1
    if r.size <= num.lookback:
        raise ValueError("window too short for direct metric evaluation")

    tail = r[n - w + 1 : n + 1]
    ac1 = complex(np.vdot(tail, r[n - w + 1 - L : n + 1 - L]))
    ac2 = complex(np.vdot(tail, r[n - w + 1 - w : n + 1 - w]))
    ene = float(np.sum(tail.real**2 + tail.imag**2))

    seg = r[n - d + 1 : n + 1]
    lag = r[n - d + 1 - w : n + 1 - w]
    vmag = np.abs(np.conj(seg) * lag)
    a_rev = np.asarray(template, dtype=np.float64)[::-1]
    xcr = float(np.dot(vmag, a_rev))

    return MetricSnapshot(n=n, ac1=ac1, ac2=ac2, ene=ene, xcr=xcr)


# ---------------------------------------------------------------------------
# estimators


def estimate_sto(xcr_window: np.ndarray, start: int, num: Numerology) -> int:
    """Frame-start estimate from xcr values at stream indices start,
    start+1, ...: argmax minus the timing anchor num.anchor.  Ties resolve
    to the earliest index.  A spurious peak inside the window that beats
    the anchor peak moves the estimate with it."""
    values = np.asarray(xcr_window, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty xcr window")
    return start + int(np.argmax(values)) - num.anchor


def _wrap_eps(eps: float) -> float:
    """Wrap into the estimator range (-2, 2]."""
    out = (eps + 2.0) % 4.0 - 2.0
    if out == -2.0:
        out = 2.0
    return out


def _coarse_cfo(a1: complex) -> float:
    """Lag-L estimate 2*phi1/pi with phi1 = -arg(a1), unwrapped."""
    return 2.0 * -np.angle(a1) / np.pi


def estimate_cfo(
    ac1_vals: Sequence[complex], ac2_vals: Sequence[complex]
) -> Optional[float]:
    """Fractional CFO in subcarrier spacings, range (-2, 2].

    phi1 = -arg(sum ac1_vals) gives the coarse estimate 2*phi1/pi; the fine
    estimate phi2/pi is shifted by the even integer (0 or +/-2) that brings
    it nearest the coarse one.  Returns None when either accumulator has
    zero magnitude (undefined angle).
    """
    a1 = complex(np.sum(np.asarray(ac1_vals, dtype=np.complex128)))
    a2 = complex(np.sum(np.asarray(ac2_vals, dtype=np.complex128)))
    if abs(a1) == 0.0 or abs(a2) == 0.0:
        return None
    coarse = _coarse_cfo(a1)
    fine = -np.angle(a2) / np.pi
    # candidate order biases ties toward the centre branch
    best = fine
    best_err = abs(fine - coarse)
    for k in (2.0, -2.0):
        err = abs(fine + k - coarse)
        if err < best_err:
            best = fine + k
            best_err = err
    return float(_wrap_eps(best))


def timing_window(trigger: int, num: Numerology) -> tuple[int, int]:
    """Stream indices [lo, hi) of the timing window that follows a trigger:
    delta_search samples from sto_search_gap past it."""
    lo = trigger + num.sto_search_gap
    return lo, lo + num.delta_search


def cfo_match_indices(n_hat: int, num: Numerology) -> tuple[int, int]:
    """Stream indices where the correlators align with symbol 1 resp. 2:
    one symbol span before the anchor, and the anchor."""
    n2 = n_hat + num.anchor
    return n2 - num.n_symbol, n2


# ---------------------------------------------------------------------------
# the synchronizer


class SyncState:
    """Detection, timing and CFO over a stream fed in chunks of any size.

    Each push checks the chunk for finiteness, then runs the detection
    kernel (ac1, ac2, ene) once over [retained tail | chunk] and looks for
    the trigger with first_trigger, one pass over the trigger condition
    from the first index whose values are exact.  One rule sets the tail:
    the kernels' look-back, num.lookback = D + 2L - 1 samples, before the
    earliest index an estimate can still read.  That is the symbol-1 CFO
    reading, trigger + _reach (_reach = -44), with the stream end n in
    place of the trigger while searching (the 44 samples also hold the
    m_consec - 1 a trigger run may straddle), and n itself once done.  Chunk metrics thus match one pass over the whole stream, xcr
    bit for bit and ac1, ac2, ene and CFO to rounding (their cumsums re-base
    per push).  An empty chunk re-scans the tail and changes nothing.

    Timing reads xcr through xcr_window over the delta_search-sample timing
    window only.  push returns the chunk's metrics, with its whole xcr from
    the same function; _push is the same step without them, for
    synchronize, which never reads xcr outside the timing window.

    result carries the trigger once it fires.  STO and CFO are estimated
    once, on the push that brings the stream to trigger + horizon, where
    the timing window and both CFO readings are complete (done turns True).

    synchronize and metric_stream feed it blocks of _BLOCK samples.  Each
    push recomputes its retained tail (lookback + 44 = 427 samples while
    searching); the kernels carry no state across pushes.  synchronize
    hands _push a view [tail | block] of its own array, since the tail is
    always the samples just before the block, and has each full block
    screened while the search is on: when may_trigger, reading
    metric_arrays at a stride of m_consec, shows that no run of m_consec
    can meet the trigger condition in the push, the full-rate kernels do not
    run and only the tail moves on, exactly as after a push that found
    nothing.  push, which returns the metrics, and the partial last block,
    which holds every campaign frame, always run the full-rate kernels.
    """

    def __init__(self, num: Numerology, template: np.ndarray):
        self.num = num
        self.template = template
        self.result = SyncResult(detected=False)
        self.done = False
        # offsets from the trigger to the earliest index the estimate reads
        # (the symbol-1 CFO reading, one symbol span before the xcr peak)
        # and to the end of its last read (the timing window, which holds
        # the symbol-2 CFO reading at the peak)
        lo, self._horizon = timing_window(0, num)
        self._reach = lo - num.n_symbol
        self._tail = np.zeros(0, dtype=np.complex128)
        self._n = 0  # samples pushed so far

    def push(
        self, chunk: Sequence[complex]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Feed the next samples; returns their (ac1, ac2, ene, xcr).

        The chunk must be 1-D and finite (ValueError otherwise).
        """
        r = _as_stream(chunk)
        k = self._tail.size
        buf = np.concatenate((self._tail, r)) if k else r
        det = self._push(buf, k)
        xcr = xcr_window(buf, self.num.l_quarter, self.template, k, buf.size)
        return (*(arr[k:] for arr in det), xcr)

    def _push(
        self, buf: np.ndarray, k: int, screen: bool = False
    ) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Detection, timing and CFO for buf = [retained tail | chunk], a
        contiguous complex128 vector whose first k samples are the tail; a
        non-finite chunk raises ValueError and leaves the state as it was.
        Returns buf's (ac1, ac2, ene), or None when screen is set, the
        search is still on and may_trigger shows that no trigger can fall in
        this push: then the full-rate kernels do not run and only the tail
        moves on, as it would after a push that found nothing."""
        _check_finite(buf[k:])
        num = self.num
        base = self._n - k  # stream index of buf[0]
        self._n += buf.size - k
        trig = self.result.trigger_index
        searching = trig is None and not self.done
        # past the stream start, values are exact from num.lookback on
        start = num.lookback if base else num.ac_valid_from
        # a screened push while searching runs the full-rate kernels only if
        # a trigger can fall in it
        det = None
        if not (screen and searching) or may_trigger(buf, num.l_quarter, num.m_consec, start):
            det = metric_arrays(buf, num.l_quarter)
            ac1, ac2, ene = det
            if searching:
                found = first_trigger(ac1, ac2, ene, num.m_consec, start)
                if found >= 0:
                    trig = base + found
                    self.result = SyncResult(detected=True, trigger_index=trig)
            if not self.done and trig is not None and self._n >= trig + self._horizon:
                self.result = self._estimate(buf, base, ac1, ac2)
                self.done = True

        if self.done:
            earliest = self._n
        else:
            earliest = (self._n if trig is None else trig) + self._reach
        self._tail = buf[max(0, earliest - num.lookback - base) :].copy()
        return det

    def finish(self) -> SyncResult:
        """End of stream: the result as it stands.  A stream that ended
        before trigger + horizon keeps its trigger without STO or CFO."""
        self.done = True
        return self.result

    def _estimate(self, buf: np.ndarray, base: int, ac1, ac2) -> SyncResult:
        """Timing and CFO from one push's buffer and detection arrays, which
        start at stream index base and cover the whole timing window and
        both CFO readings.  xcr is computed over the timing window only."""
        num, trig = self.num, self.result.trigger_index
        lo, hi = timing_window(trig, num)
        xcr = xcr_window(buf, num.l_quarter, self.template, lo - base, hi - base)
        n_hat = estimate_sto(xcr, lo, num)

        i1, i2 = cfo_match_indices(n_hat, num)
        a1 = complex(ac1[i1 - base])
        cfo = estimate_cfo([a1], [ac2[i1 - base], ac2[i2 - base]])
        cfo2 = estimate_cfo([a1], [ac2[i1 - base]])
        cfo1 = float(_wrap_eps(_coarse_cfo(a1))) if abs(a1) > 0.0 else None
        return SyncResult(
            detected=True,
            trigger_index=trig,
            sto_estimate=n_hat,
            cfo_estimate=cfo,
            cfo_estimate_ac1=cfo1,
            cfo_estimate_ac2=cfo2,
        )


def synchronize(
    stream: Sequence[complex], num: Numerology, template: np.ndarray
) -> SyncResult:
    """Run detection, timing, and CFO estimation over a sample stream.

    The stream must be 1-D and finite (ValueError otherwise); an empty
    stream reports detected=False.  It is pushed into a fresh SyncState in
    blocks of _BLOCK samples, each checked for finiteness as it is pushed,
    up to the block that makes the estimate final; the blocks after that
    are only checked.  A full block pushed while the search is on runs the
    full-rate detection kernels only if the screen finds that a trigger can fall in
    it (see SyncState).  finish() gives the result.
    """
    r = _as_stream(stream)
    state = SyncState(num, template)
    for i in range(0, r.size, _BLOCK):
        if state.done:
            _check_finite(r[i : i + _BLOCK])
        else:
            # the retained tail is the k samples before the block
            k = state._tail.size
            state._push(r[i - k : i + _BLOCK], k, screen=i + _BLOCK <= r.size)
    return state.finish()


# ---------------------------------------------------------------------------
# reference baselines (coherent matched filter and plain energy template)


def baseline_xsig(
    window: Sequence[complex], pre: np.ndarray, num: Numerology
) -> np.ndarray:
    """|coherent matched filter| against the anchored preamble segment.

    xsig(n) = | sum_{m=0}^{D-1} conj(p[k0-m]) * r[n-m] |, zeros before the
    stream start.  Sensitive to CFO, unlike xcr.
    """
    r = np.ascontiguousarray(window, dtype=np.complex128)
    k0 = num.anchor
    seg = pre[k0 - num.d_template + 1 : k0 + 1]  # ascending sample order
    # correlation with conj(p) descending in m == convolution kernel ascending
    kern = np.conj(seg)[::-1]
    return np.abs(np.convolve(r, kern)[: r.size])


def baseline_xene(
    window: Sequence[complex], template: np.ndarray
) -> np.ndarray:
    """Instant received energy accumulated over the template support:
    xene(n) = sum_{m=0}^{D-1} |r[n-m]|^2.

    The classic unshaped energy detector.  It rides the raw energy plateau,
    so its normalized curve is a broad dome; the shape contrast against the
    anchored xcr correlation is the point of the comparison mode.  Outside
    its own tests, its only users are the xene column of `ldacs-sync trace`
    and acceptance criterion 5; the synchronizer never calls it.
    """
    r = np.ascontiguousarray(window, dtype=np.complex128)
    e = r.real**2 + r.imag**2
    d = int(np.asarray(template).size)
    return np.convolve(e, np.ones(d, dtype=np.float64))[: r.size]
