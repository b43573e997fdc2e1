"""OFDM numerology and waveform synthesis for an L-DACS1-style frame.

The numerology is one fixed link with no settings: the L-DACS1
specification fixes a 64-point base FFT, 50 used subcarriers, 9.765625 kHz
subcarrier spacing, and per base-rate sample an 11-sample cyclic prefix and
an 8-sample window ramp.  The oversampling factor n_ov = 4 (2.5 MHz) keeps
the bundled +/-0.5 MHz DME interferers below Nyquist, and every length,
the detector's d_template, m_consec and delta_search included, derives
from it.

The synchronization preamble spans two OFDM symbols built on an oversampled
FFT of size n_total = 64 * n_ov:

  symbol 1  occupies every 4th subcarrier (multiples of 4 inside the used
            band), so its useful part repeats four times with period
            L = n_total / 4,
  symbol 2  occupies every 2nd subcarrier, so its useful part repeats twice
            with period 2L.

Both symbols carry PN-seeded unit-magnitude QPSK values, are normalized to
unit average power over their useful parts, and get a cyclic prefix of n_cp
samples.  Transmit shaping is windowed overlap-add: every symbol block

    [ CP | useful | cyclic suffix of n_win samples ]

is ramped up/down with a raised-cosine ramp of n_win samples and blocks are
added at a hop of n_cp + n_total, so ramps stay inside the guard interval.

Frame layout (all indices frame-relative):

    CP1 [0,44)  useful1 [44,300)  CP2 [300,344)  useful2 [344,600)  tail [600,632)

The timing anchor k0 = num.anchor = 599 is the last sample of symbol 2's
useful part.  The energy template is read back from it, and every timing
offset derives from it.

The preamble and the payload share one set of row-wise helpers, one OFDM
symbol per row: _qpsk draws the sign bits of every row in one call,
_ofdm_useful runs one IFFT over all rows, _windowed_blocks windows them,
and _overlap_add adds them into the output in row order, the order a
symbol-by-symbol build would use, so the samples are the same bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


# ---------------------------------------------------------------------------
# numerology


@dataclass(frozen=True)
class Numerology:
    """Concrete OFDM dimensioning.  Build through make_numerology().

    Every value is a class constant or derives from n_ov; nothing is
    settable.
    """

    # the 4x/2x subcarrier comb only yields L/2L periods on a base of 64
    n_fft_base: ClassVar[int] = 64
    n_used: ClassVar[int] = 50
    subcarrier_spacing_hz: ClassVar[float] = 9765.625
    n_ov: ClassVar[int] = 4

    @property
    def n_cp(self) -> int:
        """Cyclic prefix (guard) length; the window ramps live inside it."""
        return 11 * self.n_ov

    @property
    def n_win(self) -> int:
        """Raised-cosine ramp length of the windowed overlap-add."""
        return 8 * self.n_ov

    @property
    def l_quarter(self) -> int:
        """Quarter period of preamble symbol 1."""
        return 16 * self.n_ov

    @property
    def n_total(self) -> int:
        """Oversampled FFT size (samples per useful symbol part)."""
        return 4 * self.l_quarter

    @property
    def d_template(self) -> int:
        """Energy template length, 4L: symbol 2's useful part."""
        return 64 * self.n_ov

    @property
    def m_consec(self) -> int:
        """Consecutive samples above threshold that trigger a detection."""
        return 4 * self.n_ov

    @property
    def delta_search(self) -> int:
        """Length of the xcr timing search window."""
        return 56 * self.n_ov

    @property
    def anchor(self) -> int:
        """Timing anchor k0: frame-relative index of the last sample of
        symbol 2's useful part, where the template is read back from."""
        return 2 * (self.n_cp + self.n_total) - 1

    @property
    def ac_valid_from(self) -> int:
        """First stream index where the ac1/ac2/ene windows are fully
        populated, 4L - 1."""
        return 4 * self.l_quarter - 1

    @property
    def sto_search_gap(self) -> int:
        """Start of the timing search window, relative to the trigger.

        The trigger fires while symbol 1 is still passing through the
        correlators, about one symbol span before the xcr peak (which sits
        at frame start + anchor).  Opening the window one n_total past the
        trigger centres the peak for any trigger inside symbol 1.
        """
        return self.n_total

    @property
    def sample_rate_hz(self) -> float:
        return self.n_fft_base * self.n_ov * self.subcarrier_spacing_hz


def make_numerology() -> Numerology:
    """The L-DACS1 numerology at 4x oversampling: 2.5 MHz, n_total 256."""
    return Numerology()


def used_subcarriers(num: Numerology) -> np.ndarray:
    """Used subcarrier indices: +/-1 .. +/-n_used/2, DC excluded."""
    half = num.n_used // 2
    k = np.arange(1, half + 1)
    return np.concatenate([-k[::-1], k])


# ---------------------------------------------------------------------------
# waveforms


@dataclass(frozen=True)
class PreambleWaveform:
    """Synthesized preamble, indexed from the frame start as in the module
    docstring's frame layout.

    samples            windowed overlap-add output, len = 2*(n_cp+n_total)+n_win
    samples_unwindowed rectangular CP-OFDM intermediate, len = 2*(n_cp+n_total);
                       indices align with samples[:600] and keep the exact
                       cyclic-prefix copy property
    """

    samples: np.ndarray
    samples_unwindowed: np.ndarray


@dataclass(frozen=True)
class EnergyTemplate:
    """Expected preamble energy profile, anchored at the last useful sample.

    a[m] = |p[k0 - m]|^2 for m = 0..D-1 with k0 = num.anchor, the final
    sample of symbol 2's useful part.  The timing estimate subtracts k0
    from the xcr peak.
    """

    a: np.ndarray


def _qpsk(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """(rows, n) unit-magnitude QPSK values from one draw of sign bits:
    row by row, the n real signs, then the n imaginary signs."""
    bits = rng.integers(0, 2, size=(rows, 2, n)) * 2 - 1
    return (bits[:, 0] + 1j * bits[:, 1]) / np.sqrt(2.0)


def _ofdm_useful(k_indices: np.ndarray, values: np.ndarray, num: Numerology) -> np.ndarray:
    """Useful parts of OFDM symbols, one per row of values (rows, k):
    the IFFT of the loaded bins, each row normalized to unit average power."""
    spec = np.zeros((values.shape[0], num.n_total), dtype=np.complex128)
    spec[:, np.mod(k_indices, num.n_total)] = values
    x = np.fft.ifft(spec, axis=-1)
    power = np.mean(np.abs(x) ** 2, axis=-1, keepdims=True)
    if np.any(power <= 0):
        raise ValueError("empty subcarrier allocation")
    return x / np.sqrt(power)


@functools.lru_cache(maxsize=None)
def _raised_cosine_ramp(n_win: int) -> np.ndarray:
    """Read-only rising ramp, computed once per length."""
    # half-sample offset keeps both ends strictly inside (0, 1)
    t = (np.arange(n_win) + 0.5) / n_win
    ramp = 0.5 * (1.0 - np.cos(np.pi * t))
    ramp.flags.writeable = False
    return ramp


def _windowed_blocks(useful: np.ndarray, num: Numerology) -> np.ndarray:
    """[CP | useful | cyclic suffix] per row of useful parts (rows,
    n_total), with raised-cosine ramps on both ends."""
    blocks = np.concatenate(
        [useful[:, -num.n_cp:], useful, useful[:, : num.n_win]], axis=-1
    )
    ramp = _raised_cosine_ramp(num.n_win)
    blocks[:, : num.n_win] *= ramp
    blocks[:, -num.n_win:] *= ramp[::-1]
    return blocks


def _overlap_add(out: np.ndarray, start: int, blocks: np.ndarray, num: Numerology) -> None:
    """Add the rows of blocks into out at a hop of n_cp + n_total from
    start, in row order."""
    hop = num.n_cp + num.n_total
    for i, b in enumerate(blocks):
        off = start + i * hop
        out[off : off + b.size] += b


def generate_preamble(num: Numerology, seed: int) -> PreambleWaveform:
    """Synthesize the two-symbol preamble for a given PN seed.

    Symbol 1 loads the used subcarriers divisible by 4, symbol 2 those
    divisible by 2; both with QPSK values drawn from the seeded generator.
    Each symbol is one row of the helpers build_frame uses for its payload.
    """
    rng = np.random.default_rng(seed)
    used = used_subcarriers(num)
    useful = np.concatenate(
        [
            _ofdm_useful(occ, _qpsk(rng, 1, occ.size), num)
            for occ in (used[used % 4 == 0], used[used % 2 == 0])
        ]
    )

    raw = np.concatenate([useful[:, -num.n_cp:], useful], axis=-1).ravel()
    windowed = np.zeros(2 * (num.n_cp + num.n_total) + num.n_win, dtype=np.complex128)
    _overlap_add(windowed, 0, _windowed_blocks(useful, num), num)

    return PreambleWaveform(samples=windowed, samples_unwindowed=raw)


def energy_template(pre: PreambleWaveform, num: Numerology) -> EnergyTemplate:
    """|p|^2 read back from the anchor k0 = num.anchor over d_template = 4L
    samples, so the template spans symbol 2's useful part."""
    k0 = num.anchor
    mag2 = np.abs(pre.samples) ** 2
    a = mag2[k0 - num.d_template + 1 : k0 + 1][::-1].copy()
    return EnergyTemplate(a=a)


def build_frame(
    num: Numerology,
    pre: PreambleWaveform,
    n_payload_symbols: int,
    lead_gap: int,
    seed: int,
) -> tuple[np.ndarray, int]:
    """Assemble lead zeros + preamble + random QPSK payload symbols.

    Payload symbols load all used subcarriers, are unit-power normalized over
    their useful parts, and join the frame by the same windowed overlap-add
    as the preamble.  All payload symbols are built at once, one row each:
    one draw of their QPSK bits, one IFFT, one windowing.  Returns
    (samples, n0) with n0 = lead_gap, the index of the first preamble sample.
    """
    if n_payload_symbols < 0:
        raise ValueError("n_payload_symbols must be >= 0")
    if lead_gap < 0:
        raise ValueError("lead_gap must be >= 0")

    rng = np.random.default_rng(seed)
    used = used_subcarriers(num)
    hop = num.n_cp + num.n_total

    total = lead_gap + (2 + n_payload_symbols) * hop + num.n_win
    out = np.zeros(total, dtype=np.complex128)
    out[lead_gap : lead_gap + pre.samples.size] += pre.samples
    useful = _ofdm_useful(used, _qpsk(rng, n_payload_symbols, used.size), num)
    _overlap_add(out, lead_gap + 2 * hop, _windowed_blocks(useful, num), num)
    return out, lead_gap


# ---------------------------------------------------------------------------
# I/O


def write_iq(path, samples: np.ndarray) -> None:
    """Dump complex samples as interleaved little-endian float32 I,Q."""
    x = np.asarray(samples, dtype=np.complex128)
    flat = np.empty(2 * x.size, dtype="<f4")
    flat[0::2] = x.real
    flat[1::2] = x.imag
    flat.tofile(path)


def read_iq(path) -> np.ndarray:
    """Read back an interleaved float32 I,Q dump."""
    flat = np.fromfile(path, dtype="<f4")
    if flat.size % 2 != 0:
        raise ValueError("IQ file has an odd number of float32 values")
    return (flat[0::2] + 1j * flat[1::2]).astype(np.complex128)
