"""Preamble detection, symbol timing, and fractional CFO estimation.

Metric definitions live in _kernels (ac1/ac2 lag autocorrelations, ene
energy reference, xcr weighted magnitude correlation).  Detection declares a
trigger at the first sample where

    |ac1(n)| + |ac2(n)| > ene(n)

has held for m_consec consecutive samples.  Timing then scans xcr over a
window of delta_search samples placed one symbol span past the trigger (the
metric peak trails the trigger by roughly the anchor depth) and subtracts
the calibrated template alignment offset, giving the frame-start estimate
n_hat directly.

The fractional CFO estimate combines both symbol structures.  With
phi_i = -arg(ac_i) read at the matched positions,

    n1 = n_hat + n_cp + n_total - 1      (end of symbol 1's useful part)
    n2 = n_hat + 2*(n_cp + n_total) - 1  (end of symbol 2's useful part)

the lag-L reading gives a coarse estimate eps1 = 2*phi1/pi covering
(-2, 2], and the lag-2L readings give a fine estimate eps = phi2/pi + 2*k
whose integer ambiguity k in {-1, 0, +1} is resolved against eps1 (the
nearest candidate; equivalent to the usual three-branch rule on phi1 but
well-behaved when phi1 sits numerically on a branch boundary).  Readings at
n1 and n2 are summed coherently before taking the angle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ._kernels import first_trigger, metric_arrays
from .sigmodel import EnergyTemplate, Numerology, PreambleWaveform


class SyncPhase(enum.Enum):
    SEARCHING = "searching"
    TRIGGERED = "triggered"


@dataclass(frozen=True)
class MetricSnapshot:
    """Metric values at one stream index.

    ac_valid / xcr_valid flag whether the respective sliding windows are
    fully warmed up; snapshots from the warm-up region are partial.
    """

    n: int
    ac1: complex
    ac2: complex
    ene: float
    xcr: float
    ac_valid: bool
    xcr_valid: bool

    @property
    def partial(self) -> bool:
        return not (self.ac_valid and self.xcr_valid)


@dataclass
class SyncResult:
    detected: bool
    trigger_index: Optional[int] = None
    sto_estimate: Optional[int] = None
    cfo_estimate: Optional[float] = None
    cfo_estimate_ac1: Optional[float] = None
    cfo_estimate_ac2: Optional[float] = None
    metrics_trace: Optional[list] = None


def ac_valid_from(num: Numerology) -> int:
    """First index where ac1/ac2/ene windows are fully populated."""
    return 4 * num.l_quarter - 1


def xcr_valid_from(num: Numerology) -> int:
    """First index where the xcr window is fully populated."""
    return num.d_template + 2 * num.l_quarter - 1


def sto_search_gap(num: Numerology) -> int:
    """Start of the timing search window, relative to the trigger.

    The trigger fires while symbol 1 is still passing through the
    correlators, about one symbol span before the xcr peak (which sits at
    frame start + alignment offset).  Opening the window one n_total past
    the trigger centres the peak for any trigger inside symbol 1.
    """
    return num.n_total


# ---------------------------------------------------------------------------
# streaming state


class SyncState:
    """Sample-at-a-time metric evaluation with ring-buffer delay lines.

    Matches the batch kernels exactly: delay lines power up cleared, so
    metrics in the warm-up region behave as if preceded by zeros.
    """

    def __init__(self, num: Numerology, template: EnergyTemplate):
        self.num = num
        self.template = template
        L = num.l_quarter
        d = num.d_template
        self._L = L
        self._w = 2 * L
        self._d = d
        # r ring holds the last 2L+1 samples; slots default to zero
        self._r = np.zeros(2 * L + 1, dtype=np.complex128)
        self._u = np.zeros(2 * L, dtype=np.complex128)
        self._v = np.zeros(2 * L, dtype=np.complex128)
        self._e = np.zeros(2 * L, dtype=np.float64)
        # |v| double buffer: last d values always form one contiguous slice
        self._vmag = np.zeros(2 * d, dtype=np.float64)
        self._a_rev = np.ascontiguousarray(template.a[::-1], dtype=np.float64)
        self.ac1 = 0.0 + 0.0j
        self.ac2 = 0.0 + 0.0j
        self.ene = 0.0
        self.sample_index = -1
        self.consec_count = 0
        self.phase = SyncPhase.SEARCHING
        self.trigger_index: Optional[int] = None
        self._trigger_pending = False

    def push_sample(self, r: complex) -> MetricSnapshot:
        """Advance one sample; returns the metrics at the new index."""
        n = self.sample_index + 1
        self.sample_index = n
        L, w, d = self._L, self._w, self._d

        rn = complex(r)
        r_l = self._r[(n - L) % (2 * L + 1)] if n >= L else 0.0 + 0.0j
        r_2l = self._r[(n - w) % (2 * L + 1)] if n >= w else 0.0 + 0.0j
        self._r[n % (2 * L + 1)] = rn

        u = rn.conjugate() * r_l
        v = rn.conjugate() * r_2l
        e = rn.real * rn.real + rn.imag * rn.imag

        slot = n % w
        self.ac1 += u - self._u[slot]
        self.ac2 += v - self._v[slot]
        self.ene += e - self._e[slot]
        self._u[slot] = u
        self._v[slot] = v
        self._e[slot] = e

        vslot = n % d
        vm = abs(v)
        self._vmag[vslot] = vm
        self._vmag[vslot + d] = vm
        window = self._vmag[vslot + 1 : vslot + 1 + d]
        xcr = float(np.dot(window, self._a_rev))

        ac_valid = n >= 4 * L - 1
        if self.phase is SyncPhase.SEARCHING:
            if ac_valid and abs(self.ac1) + abs(self.ac2) > self.ene:
                if self.consec_count < self.num.m_consec:
                    self.consec_count += 1
                if self.consec_count >= self.num.m_consec and self.trigger_index is None:
                    self.trigger_index = n
                    self._trigger_pending = True
            else:
                self.consec_count = 0

        return MetricSnapshot(
            n=n,
            ac1=complex(self.ac1),
            ac2=complex(self.ac2),
            ene=float(self.ene),
            xcr=xcr,
            ac_valid=ac_valid,
            xcr_valid=n >= d + w - 1,
        )

    def detect(self) -> bool:
        """True exactly once, at the sample where the trigger condition
        completed its m_consec run; flips phase to TRIGGERED."""
        if self._trigger_pending:
            self._trigger_pending = False
            self.phase = SyncPhase.TRIGGERED
            return True
        return False


# ---------------------------------------------------------------------------
# batch metrics


def _as_stream(stream: Sequence[complex]) -> np.ndarray:
    """The stream as a contiguous complex128 vector; rejects anything that
    is not 1-D or holds non-finite samples.  An empty stream is valid."""
    r = np.ascontiguousarray(stream, dtype=np.complex128)
    if r.ndim != 1:
        raise ValueError(f"stream must be 1-D, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("stream contains non-finite samples")
    return r


def metric_stream(
    stream: Sequence[complex], num: Numerology, template: EnergyTemplate
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ac1, ac2, ene, xcr) arrays over the whole stream."""
    return metric_arrays(_as_stream(stream), num.l_quarter, template.a)


def metrics_direct(
    window: Sequence[complex], num: Numerology, template: EnergyTemplate
) -> MetricSnapshot:
    """Direct-summation oracle for the metrics at the window's last index.

    Independent of the sliding/streaming recurrences; used to pin them down
    in tests.  The window must cover every lag (>= d_template + 2L samples).
    """
    r = np.ascontiguousarray(window, dtype=np.complex128)
    L = num.l_quarter
    w = 2 * L
    d = num.d_template
    n = r.size - 1
    if r.size < d + w or r.size < 4 * L:
        raise ValueError("window too short for direct metric evaluation")

    tail = r[n - w + 1 : n + 1]
    ac1 = complex(np.vdot(tail, r[n - w + 1 - L : n + 1 - L]))
    ac2 = complex(np.vdot(tail, r[n - w + 1 - w : n + 1 - w]))
    ene = float(np.sum(tail.real**2 + tail.imag**2))

    seg = r[n - d + 1 : n + 1]
    lag = r[n - d + 1 - w : n + 1 - w]
    vmag = np.abs(np.conj(seg) * lag)
    a_rev = np.asarray(template.a, dtype=np.float64)[::-1]
    xcr = float(np.dot(vmag, a_rev))

    return MetricSnapshot(
        n=n, ac1=ac1, ac2=ac2, ene=ene, xcr=xcr, ac_valid=True, xcr_valid=True
    )


# ---------------------------------------------------------------------------
# estimators


def estimate_sto(
    xcr_window: Iterable[tuple[int, float]], template: EnergyTemplate
) -> int:
    """Frame-start estimate from (index, xcr) pairs: argmax minus the
    calibrated alignment offset.  Ties resolve to the earliest index."""
    pairs = list(xcr_window)
    if not pairs:
        raise ValueError("empty xcr window")
    values = np.array([p[1] for p in pairs], dtype=np.float64)
    best = int(np.argmax(values))  # first occurrence on ties
    return int(pairs[best][0]) - template.alignment_offset


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


def cfo_match_indices(n_hat: int, num: Numerology) -> tuple[int, int]:
    """Stream indices where the correlators align with symbol 1 resp. 2."""
    span = num.n_cp + num.n_total
    return n_hat + span - 1, n_hat + 2 * span - 1


# ---------------------------------------------------------------------------
# full chain


def synchronize(
    stream: Sequence[complex],
    num: Numerology,
    template: EnergyTemplate,
    collect_trace: bool = False,
) -> SyncResult:
    """Run detection, timing, and CFO estimation over a sample stream.

    The stream must be 1-D and finite (ValueError otherwise); an empty
    stream reports detected=False.
    """
    r = _as_stream(stream)
    ac1, ac2, ene, xcr = metric_arrays(r, num.l_quarter, template.a)

    start = ac_valid_from(num)
    cond = (np.abs(ac1) + np.abs(ac2)) > ene
    trig = first_trigger(cond, num.m_consec, start)

    trace = None
    if collect_trace:
        xv = xcr_valid_from(num)
        trace = [
            MetricSnapshot(
                n=i,
                ac1=complex(ac1[i]),
                ac2=complex(ac2[i]),
                ene=float(ene[i]),
                xcr=float(xcr[i]),
                ac_valid=i >= start,
                xcr_valid=i >= xv,
            )
            for i in range(r.size)
        ]

    if trig < 0:
        return SyncResult(detected=False, metrics_trace=trace)

    s0 = trig + sto_search_gap(num)
    s1 = min(s0 + num.delta_search, r.size)
    if s0 >= r.size:
        return SyncResult(detected=True, trigger_index=trig, metrics_trace=trace)
    pairs = [(i, float(xcr[i])) for i in range(s0, s1)]
    n_hat = estimate_sto(pairs, template)

    i1, i2 = cfo_match_indices(n_hat, num)
    cfo = cfo1 = cfo2 = None
    if 0 <= i1 < r.size and 0 <= i2 < r.size:
        a1 = complex(ac1[i1])
        cfo = estimate_cfo([a1], [ac2[i1], ac2[i2]])
        cfo2 = estimate_cfo([a1], [ac2[i1]])
        if abs(a1) > 0.0:
            cfo1 = float(_wrap_eps(_coarse_cfo(a1)))

    return SyncResult(
        detected=True,
        trigger_index=int(trig),
        sto_estimate=int(n_hat),
        cfo_estimate=cfo,
        cfo_estimate_ac1=cfo1,
        cfo_estimate_ac2=cfo2,
        metrics_trace=trace,
    )


# ---------------------------------------------------------------------------
# reference baselines (coherent matched filter and plain energy template)


def baseline_xsig(
    window: Sequence[complex], pre: PreambleWaveform, num: Numerology
) -> np.ndarray:
    """|coherent matched filter| against the anchored preamble segment.

    xsig(n) = | sum_{m=0}^{D-1} conj(p[k0-m]) * r[n-m] |, zeros before the
    stream start.  Sensitive to CFO, unlike xcr.
    """
    r = np.ascontiguousarray(window, dtype=np.complex128)
    d = num.d_template
    k0 = pre.start_useful_2 + num.n_total - 1
    seg = pre.samples[k0 - d + 1 : k0 + 1]  # ascending sample order
    # correlation with conj(p) descending in m == convolution kernel ascending
    kern = np.conj(seg)[::-1]
    return np.abs(np.convolve(r, kern)[: r.size])


def baseline_xene(
    window: Sequence[complex], template: EnergyTemplate
) -> np.ndarray:
    """Instant received energy accumulated over the template support:
    xene(n) = sum_{m=0}^{D-1} |r[n-m]|^2.

    The classic unshaped energy detector.  It rides the raw energy plateau,
    so its normalized curve is a broad dome; the shape contrast against the
    anchored xcr correlation is the point of the comparison mode.
    """
    r = np.ascontiguousarray(window, dtype=np.complex128)
    e = r.real**2 + r.imag**2
    d = int(np.asarray(template.a).size)
    return np.convolve(e, np.ones(d, dtype=np.float64))[: r.size]
