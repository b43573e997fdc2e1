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
n1 and n2 are summed coherently before taking the angle.  Each reading is
the direct sum of its 2L lag products (_reading), metrics_direct's
definition, so it does not depend on how a stream was split into pushes.

SyncState runs this chain over a stream fed in chunks of any size, one
step per push, and keeps the outcome in state.result; synchronize pushes
a whole stream through it in views of _BLOCK samples.  metric_stream, the
one metrics path, gives the four metric arrays of a whole stream over the
same blocks, with no trigger search or estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._kernels import (
    _L,
    _energy,
    _energy_limit,
    first_trigger,
    may_trigger,
    metric_arrays,
    xcr_window,
)
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


# Samples per block when synchronize and metric_stream scan a whole stream.
# It bounds the kernels' working memory (~10 arrays of this length) and the
# length of their cumsums.  16 Ki scanned fastest among 4-128 Ki on 2 Mi
# samples, and every campaign frame (~2.2 k samples) fits in one block, so
# a campaign trial is a single push.
_BLOCK = 1 << 14

# the retained tail of a state before its first push
_EMPTY = np.zeros(0, dtype=np.complex128)
_EMPTY.flags.writeable = False


# ---------------------------------------------------------------------------
# inputs and metrics


def _as_stream(stream: Sequence[complex]) -> np.ndarray:
    """The stream as a contiguous complex128 vector; rejects anything that
    is not 1-D.  An empty stream is valid."""
    r = np.ascontiguousarray(stream, dtype=np.complex128)
    if r.ndim != 1:
        raise ValueError(f"stream must be 1-D, got shape {r.shape}")
    return r


def _check_energy(buf: np.ndarray, limit: float) -> None:
    """Raise ValueError unless every sample of buf, the buffer the kernels
    read, is finite and its energy at most limit, the template's
    _energy_limit, within which no kernel value overflows."""
    e = _energy(buf)
    if e <= limit:
        return
    if not np.isfinite(buf).all():
        raise ValueError("stream contains non-finite samples")
    raise ValueError(
        f"stream energy {e:.4g} is beyond the kernels' float64 range: at most {limit:.4g}"
    )


def _as_template(template: np.ndarray, num: Numerology) -> tuple[np.ndarray, float]:
    """The template as float64, and the _energy_limit of a stream buffer
    under it; anything but num.d_template finite real values in 1-D, as
    energy_template gives, raises ValueError."""
    a = np.asarray(template)
    a = a if a.dtype.kind == "c" else a.astype(np.float64, copy=False)
    # one pass over the values: the limit is > 0 exactly when they are finite
    limit = _energy_limit(a) if a.dtype == np.float64 and a.shape == (num.d_template,) else 0.0
    if not limit > 0.0:
        raise ValueError(f"template must be 1-D, {num.d_template} finite reals, got {a.dtype} {a.shape}")
    return a, limit


def metric_stream(
    stream: Sequence[complex], num: Numerology, template: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ac1, ac2, ene, xcr) arrays over the whole stream.

    The stream must be 1-D and finite, with an energy the kernels sum
    without overflow, checked block by block, and the template SyncState's
    (ValueError otherwise).  The kernels run over each
    view [num.lookback samples | _BLOCK samples] of the stream: xcr matches
    one pass over the whole stream bit for bit, ac1, ac2 and ene to rounding
    (their cumsums re-base per block).  Memory peaks at the outputs plus
    one block's work.
    """
    a, limit = _as_template(template, num)
    r = _as_stream(stream)
    out = tuple(np.empty(r.size, t) for t in (np.complex128, np.complex128, float, float))
    for i in range(0, r.size, _BLOCK):
        k = min(i, num.lookback)
        buf = r[i - k : i + _BLOCK]
        _check_energy(buf, limit)
        ac1, ac2, ene = metric_arrays(buf)
        xcr = xcr_window(buf, a, k, buf.size)
        for arr, part in zip(out, (ac1[k:], ac2[k:], ene[k:], xcr)):
            arr[i : i + _BLOCK] = part
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

    ac1, ac2 = _reading(r, n, L), _reading(r, n, w)
    tail = r[n - w + 1 : n + 1]
    ene = float(np.sum(tail.real**2 + tail.imag**2))

    seg = r[n - d + 1 : n + 1]
    lag = r[n - d + 1 - w : n + 1 - w]
    vmag = np.abs(np.conj(seg) * lag)
    a_rev = np.asarray(template, dtype=np.float64)[::-1]
    xcr = float(np.dot(vmag, a_rev))

    return MetricSnapshot(n=n, ac1=ac1, ac2=ac2, ene=ene, xcr=xcr)


def _reading(r: np.ndarray, i: int, lag: int) -> complex:
    """The correlator reading at index i of r for one lag: one np.vdot
    over the 2L products conj(r[j]) * r[j-lag], j = i-2L+1..i, with zeros
    before r[0].  It is ac1 (lag L) and ac2 (lag 2L) for the oracle and
    for the estimate."""
    lo = max(i - 2 * _L + 1, lag)
    return complex(np.vdot(r[lo : i + 1], r[lo - lag : i + 1 - lag]))


# ---------------------------------------------------------------------------
# estimators


def _wrap_eps(eps: float) -> float:
    """Wrap into the estimator range (-2, 2]."""
    out = (eps + 2.0) % 4.0 - 2.0
    if out == -2.0:
        out = 2.0
    return out


def _angles(readings: Sequence[complex]) -> np.ndarray:
    """arg of each reading + 0j, in one np.angle call.  + 0j reads a -0.0
    part as +0.0, as a sum from zero (np.sum) does: arg(-1 - 0j) is -pi,
    not pi."""
    return np.angle(np.array(readings) + 0j)


def _coarse_cfo(arg1: float) -> float:
    """Lag-L estimate 2*phi1/pi with phi1 = -arg1, unwrapped."""
    return 2.0 * -arg1 / np.pi


def _fine_cfo(coarse: float, a2: complex, arg2: float) -> Optional[float]:
    """estimate_cfo's result from its coarse estimate, a2 and its angle
    arg2; None when a2 is zero."""
    if abs(a2) == 0.0:
        return None
    fine = -arg2 / np.pi
    # the first nearest candidate: ties go toward the centre branch
    best = min((fine, fine + 2.0, fine - 2.0), key=lambda c: abs(c - coarse))
    return float(_wrap_eps(best))


def estimate_cfo(a1: complex, a2: complex) -> Optional[float]:
    """Fractional CFO in subcarrier spacings, range (-2, 2], from a lag-L
    reading a1 and a lag-2L reading a2.

    phi1 = -arg(a1) gives the coarse estimate 2*phi1/pi; the fine estimate
    phi2/pi, phi2 = -arg(a2), is shifted by the even integer (0 or +/-2)
    that brings it nearest the coarse one.  Returns None when either
    reading has zero magnitude (undefined angle).
    """
    if abs(a1) == 0.0:
        return None
    arg1, arg2 = _angles((a1, a2))
    return _fine_cfo(_coarse_cfo(arg1), a2, arg2)


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

    The template is checked once, when the state is built.  Every push is
    one step, _push, over [retained tail | chunk]: it proves the chunk
    finite and the buffer's energy within the kernels' range and, while
    searching, runs the detection kernel (ac1, ac2, ene) over the buffer
    and first_trigger from the first index whose values are exact.  The
    tail is the kernels' look-back, num.lookback = D + 2L - 1 samples,
    before the earliest index an estimate can still read: the symbol-1 CFO
    reading, trigger + _reach (_reach = -44), with the stream end n in place
    of the trigger while searching (the 44 samples also hold the m_consec -
    1 a trigger run may straddle), and n itself once done.  Trigger, STO
    and CFO thus match one pass over the whole stream exactly: the CFO
    readings are direct sums over the buffer (_reading), which no split
    moves.  An empty chunk changes nothing.

    result carries the trigger once it fires.  STO and CFO are estimated
    once, on the push that brings the stream to trigger + horizon, where
    the timing window and both CFO readings are complete (done turns True);
    timing reads xcr through xcr_window over the timing window only.

    The step runs the detection kernel only while searching, and on a
    searching push of at least _BLOCK new samples only if may_trigger (the
    detection kernel at a stride of m_consec) finds that a trigger can fall
    in it; otherwise only the tail moves on.  Pushes of _BLOCK samples thus
    run synchronize's kernels; a screened noise block costs about a quarter
    of them.  A shorter push, such as a campaign frame, is never screened.
    A block the screen clears pays for the screen only: the screen sums the
    buffer's energy first, and an energy within the template's
    _energy_limit proves every sample finite and the buffer in range.
    Every other push, after the estimate too, has the energy of its buffer
    checked on its own, by _check_energy.
    """

    # offsets from the trigger to the earliest index the estimate reads
    # (the symbol-1 CFO reading, one symbol span before the xcr peak) and
    # to the end of its last read (the timing window, which holds the
    # symbol-2 CFO reading at the peak); the numerology fixes both
    _reach = timing_window(0, Numerology)[0] - Numerology.n_symbol
    _horizon = timing_window(0, Numerology)[1]

    def __init__(self, num: Numerology, template: np.ndarray):
        self.num = num
        self.template, self._limit = _as_template(template, num)
        self.result = SyncResult(detected=False)
        self.done = False
        self._tail = _EMPTY
        self._n = 0  # samples pushed so far

    def push(self, chunk: Sequence[complex]) -> None:
        """Feed the next samples; the outcome so far is in result.

        The chunk must be 1-D and finite, and the energy of the retained
        tail and the chunk within the kernels' range (ValueError
        otherwise).
        """
        self._push(np.concatenate((self._tail, _as_stream(chunk))), self._tail.size)

    def _push(self, buf: np.ndarray, k: int) -> None:
        """The one step, over buf = [retained tail | chunk], contiguous
        complex128 with the tail in its first k samples; a non-finite chunk,
        or a buffer beyond the kernels' range, raises ValueError and leaves
        the state as it was.

        A block the screen clears is proven finite and in range by the
        screen's energy of the whole buffer; every other push is checked
        with _check_energy.  The detection kernel and first_trigger run on
        a searching push the screen did not clear, and the estimate on the
        push that completes it, whether or not they ran there."""
        num = self.num
        base = self._n - k  # stream index of buf[0]
        trig = self.result.trigger_index
        searching = trig is None and not self.done
        # past the stream start, values are exact from num.lookback on
        start = num.lookback if base else num.ac_valid_from
        # a cleared block is in range: may_trigger summed its energy
        screened = searching and buf.size - k >= _BLOCK and not may_trigger(buf, start, self._limit)
        if not screened:
            _check_energy(buf, self._limit)
        self._n += buf.size - k
        if searching and not screened:
            found = first_trigger(*metric_arrays(buf), num.m_consec, start)
            if found >= 0:
                trig = base + found
                self.result = SyncResult(detected=True, trigger_index=trig)
        if trig is not None and not self.done and self._n >= trig + self._horizon:
            self.result = self._estimate(buf, base)
            self.done = True

        if self.done:
            earliest = self._n
        else:
            earliest = (self._n if trig is None else trig) + self._reach
        self._tail = buf[max(0, earliest - num.lookback - base) :].copy()

    def finish(self) -> SyncResult:
        """End of stream: the result as it stands.  A stream that ended
        before trigger + horizon keeps its trigger without STO or CFO."""
        self.done = True
        return self.result

    def _estimate(self, buf: np.ndarray, base: int) -> SyncResult:
        """Timing and CFO from one push's buffer, which starts at stream
        index base and covers the whole timing window and both CFO readings
        with the look-back before them.  xcr is computed over the timing
        window only, and each CFO reading is _reading's direct sum, the
        same bits at any split of the stream."""
        num, trig = self.num, self.result.trigger_index
        lo, hi = timing_window(trig, num)
        xcr = xcr_window(buf, self.template, lo - base, hi - base)
        # the xcr peak, the earliest of ties, less the timing anchor
        n_hat = lo + int(xcr.argmax()) - num.anchor

        i1, i2 = cfo_match_indices(n_hat - base, num)  # in buf
        a1 = _reading(buf, i1, _L)
        cfo = cfo1 = cfo2 = None
        if abs(a1) > 0.0:
            # both symbols' lag-2L readings summed, symbol 1 first, and
            # symbol 1's alone; the sum is np.sum's but for the sign of a
            # zero part, which _angles' + 0j clears
            a2_1 = _reading(buf, i1, 2 * _L)
            a2 = a2_1 + _reading(buf, i2, 2 * _L)
            arg1, arg2, arg2_1 = _angles((a1, a2, a2_1))
            coarse = _coarse_cfo(arg1)
            cfo1 = float(_wrap_eps(coarse))
            cfo = _fine_cfo(coarse, a2, arg2)
            cfo2 = _fine_cfo(coarse, a2_1, arg2_1)
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

    The stream must be 1-D and finite and the template SyncState's
    (ValueError otherwise); an empty stream reports detected=False.  A fresh
    SyncState takes it in blocks of _BLOCK samples, each pushed as a view
    [tail | block] of the stream (the tail is the samples just before it).
    """
    state = SyncState(num, template)
    r = _as_stream(stream)
    for i in range(0, r.size, _BLOCK):
        k = state._tail.size
        state._push(r[i - k : i + _BLOCK], k)
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
