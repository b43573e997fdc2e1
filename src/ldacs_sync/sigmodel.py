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
added at a hop of n_symbol = n_cp + n_total, so ramps stay inside the guard
interval.  generate_preamble's docstring gives the frame layout.

The preamble is a plain complex array and the energy template a plain
float array.  The timing anchor k0 = num.anchor = 599 is the last sample of
symbol 2's useful part.  The template is read back from it, and every
timing offset derives from it.

The preamble and the payload share one set of row-wise helpers, one OFDM
symbol per row: _qpsk draws the sign bits of every row in one call and
looks their values up in a 4-entry table, _ofdm_useful runs one IFFT over
all rows into the used subcarriers' fixed bins, _windowed_blocks windows
them with one take and one product, and _overlap_add adds them into the
output in row order, the order a symbol-by-symbol build would use, so the
samples are the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np


# ---------------------------------------------------------------------------
# numerology


@dataclass(frozen=True)
class Numerology:
    """Concrete OFDM dimensioning.  Build through make_numerology().

    Every value is a class constant, computed once here from n_ov;
    nothing is settable.
    """

    # the 4x/2x subcarrier comb only yields L/2L periods on a base of 64
    n_fft_base: ClassVar[int] = 64
    n_used: ClassVar[int] = 50
    subcarrier_spacing_hz: ClassVar[float] = 9765.625
    n_ov: ClassVar[int] = 4
    sample_rate_hz: ClassVar[float] = n_fft_base * n_ov * subcarrier_spacing_hz

    # cyclic prefix (guard) length; the window ramps live inside it
    n_cp: ClassVar[int] = 11 * n_ov
    # raised-cosine ramp length of the windowed overlap-add
    n_win: ClassVar[int] = 8 * n_ov
    # quarter period L of preamble symbol 1
    l_quarter: ClassVar[int] = 16 * n_ov
    # oversampled FFT size (samples per useful symbol part)
    n_total: ClassVar[int] = 4 * l_quarter
    # hop of the overlap-add: one symbol, prefix and useful part
    n_symbol: ClassVar[int] = n_cp + n_total

    # energy template length, 4L: symbol 2's useful part
    d_template: ClassVar[int] = 64 * n_ov
    # consecutive samples above threshold that trigger a detection
    m_consec: ClassVar[int] = 4 * n_ov
    # length of the xcr timing search window
    delta_search: ClassVar[int] = 56 * n_ov
    # timing anchor k0: frame-relative index of the last sample of symbol
    # 2's useful part, where the template is read back from
    anchor: ClassVar[int] = 2 * n_symbol - 1
    # first stream index where the ac1/ac2/ene windows are fully populated
    ac_valid_from: ClassVar[int] = 4 * l_quarter - 1
    # the kernels' look-back: xcr reaches D + 2L - 1 samples into the past,
    # at least as far as ac2 (4L - 1, since D = 4L), so an index is exact
    # once that many samples precede it
    lookback: ClassVar[int] = d_template + 2 * l_quarter - 1
    # start of the timing search window, relative to the trigger.  The
    # trigger fires while symbol 1 is still passing through the
    # correlators, about one symbol span before the xcr peak (which sits at
    # frame start n0 + anchor).  The window [trigger + n_total, trigger +
    # n_total + delta_search) holds that peak for a trigger in (n0 + 119,
    # n0 + 343] and centres it only at n0 + 231.  Measured triggers land at
    # n0 + 201 to n0 + 312 (AWGN, eps 0, 0-5 dB), so past n0 + 247 the
    # window also holds the first payload symbol's lag-2L image at n0 + 727.
    sto_search_gap: ClassVar[int] = n_total


# the read-only window of one [CP | useful | cyclic suffix] block of the
# windowed overlap-add: a rising raised-cosine ramp over its first n_win
# samples, ones, and the ramp falling over its last n_win; the half-sample
# offset keeps both ramp ends strictly inside (0, 1)
_RAMP = 0.5 * (1.0 - np.cos(np.pi * ((np.arange(Numerology.n_win) + 0.5) / Numerology.n_win)))
_WINDOW = np.concatenate(
    [_RAMP, np.ones(Numerology.n_cp + Numerology.n_total - Numerology.n_win), _RAMP[::-1]]
)
_WINDOW.flags.writeable = False
# the read-only columns of a useful part that make its block
_BLOCK_COLUMNS = np.r_[
    Numerology.n_total - Numerology.n_cp : Numerology.n_total,
    : Numerology.n_total,
    : Numerology.n_win,
]
_BLOCK_COLUMNS.flags.writeable = False


def make_numerology() -> Numerology:
    """The L-DACS1 numerology at 4x oversampling: 2.5 MHz, n_total 256."""
    return Numerology()


def used_subcarriers(num: Numerology) -> np.ndarray:
    """Used subcarrier indices: +/-1 .. +/-n_used/2, DC excluded."""
    half = num.n_used // 2
    k = np.arange(1, half + 1)
    return np.concatenate([-k[::-1], k])


# the read-only used subcarriers and their bins in the oversampled IFFT
_USED = used_subcarriers(make_numerology())
_USED_BINS = np.mod(_USED, Numerology.n_total)
_USED.flags.writeable = False
_USED_BINS.flags.writeable = False

# the read-only QPSK value of a pair of sign bits, _QPSK[real bit, imaginary
# bit], by the arithmetic of (b_re + 1j * b_im) / sqrt(2) with b = 2 * bit
# - 1 on a whole draw, so a lookup gives the same bits
_QPSK = (np.array([[-1], [1]]) + 1j * np.array([-1, 1])) / np.sqrt(2.0)
_QPSK.flags.writeable = False


# ---------------------------------------------------------------------------
# waveforms


def _qpsk(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """(rows, n) unit-magnitude QPSK values from one draw of sign bits:
    row by row, the n real signs, then the n imaginary signs."""
    bits = rng.integers(0, 2, size=(rows, 2, n))
    return _QPSK[bits[:, 0], bits[:, 1]]


def _ofdm_useful(bins: np.ndarray, values: np.ndarray, num: Numerology) -> np.ndarray:
    """Useful parts of OFDM symbols, one per row of values (rows, k), whose
    columns load the IFFT bins bins: the IFFT of each row, normalized to
    unit average power.  Every allocation is fixed and non-empty and every
    value unit-magnitude QPSK, so no row has zero power."""
    spec = np.zeros((values.shape[0], num.n_total), dtype=np.complex128)
    spec[:, bins] = values
    x = np.fft.ifft(spec, axis=-1)
    # np.mean's own sum and division, without its wrapper
    power = np.add.reduce(np.abs(x) ** 2, axis=-1, keepdims=True) / num.n_total
    return x / np.sqrt(power)


def _windowed_blocks(useful: np.ndarray) -> np.ndarray:
    """[CP | useful | cyclic suffix] per row of useful parts (rows,
    n_total), with raised-cosine ramps on both ends: one take of the
    block's columns, one product with _WINDOW.  A sample under the
    window's ones comes back unchanged but for the sign of a zero part,
    which the overlap-add into a zeroed output clears."""
    return useful.take(_BLOCK_COLUMNS, axis=1) * _WINDOW


def _overlap_add(out: np.ndarray, start: int, blocks: np.ndarray, num: Numerology) -> None:
    """Add the rows of blocks into out at a hop of n_symbol from start,
    in row order."""
    for i, b in enumerate(blocks):
        off = start + i * num.n_symbol
        out[off : off + b.size] += b


def generate_preamble(num: Numerology, seed: int) -> np.ndarray:
    """The windowed two-symbol preamble for a given PN seed,
    2 * n_symbol + n_win samples.

    Symbol 1 loads the used subcarriers divisible by 4, symbol 2 those
    divisible by 2; both with QPSK values drawn from the seeded generator.
    Each symbol is one row of the helpers build_frame uses for its payload.
    Layout, indices from the frame start:

        CP1 [0,44)  useful1 [44,300)  CP2 [300,344)  useful2 [344,600)  tail [600,632)

    The window ramps touch the first n_win samples of each prefix and the
    n_win-sample tail past each useful part (the tail of symbol 1 adds into
    CP2), so the useful parts keep their exact L / 2L periodicity.
    """
    rng = np.random.default_rng(seed)
    useful = np.concatenate(
        [
            _ofdm_useful(bins, _qpsk(rng, 1, bins.size), num)
            for bins in (_USED_BINS[_USED % 4 == 0], _USED_BINS[_USED % 2 == 0])
        ]
    )
    out = np.zeros(2 * num.n_symbol + num.n_win, dtype=np.complex128)
    _overlap_add(out, 0, _windowed_blocks(useful), num)
    return out


def energy_template(pre: np.ndarray, num: Numerology) -> np.ndarray:
    """The expected preamble energy profile a[m] = |pre[k0 - m]|^2 for
    m = 0..d_template-1, read back from the anchor k0 = num.anchor, so it
    spans symbol 2's useful part.  The timing estimate subtracts k0 from
    the xcr peak."""
    k0 = num.anchor
    mag2 = np.abs(pre) ** 2
    return mag2[k0 - num.d_template + 1 : k0 + 1][::-1].copy()


def build_frame(
    num: Numerology,
    pre: np.ndarray,
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
    total = lead_gap + (2 + n_payload_symbols) * num.n_symbol + num.n_win
    out = np.zeros(total, dtype=np.complex128)
    out[lead_gap : lead_gap + pre.size] += pre
    useful = _ofdm_useful(_USED_BINS, _qpsk(rng, n_payload_symbols, _USED_BINS.size), num)
    _overlap_add(out, lead_gap + 2 * num.n_symbol, _windowed_blocks(useful), num)
    return out, lead_gap


# ---------------------------------------------------------------------------
# I/O


def write_iq(path, samples: np.ndarray) -> None:
    """Dump complex samples as little-endian complex64: interleaved float32
    I, Q, each part rounded to float32 on its own, inf, NaN and signed zeros
    kept.  A finite part beyond the float32 range raises ValueError."""
    x = np.ascontiguousarray(samples, dtype=np.complex128)
    with np.errstate(over="ignore"):
        iq = x.astype("<c8")
    over = np.flatnonzero(np.isinf(iq.view("<f4")) & np.isfinite(x.view(np.float64))) // 2
    if over.size:
        raise ValueError(f"sample {over[0]}, {x.flat[over[0]]}, is beyond the float32 range")
    iq.tofile(path)


def read_iq(path) -> np.ndarray:
    """Read back a little-endian complex64 dump as complex128; every float32
    bit, NaN, inf and signed zero included, comes back exactly."""
    flat = np.fromfile(path, dtype="<f4")
    if flat.size % 2 != 0:
        raise ValueError("IQ file has an odd number of float32 values")
    return flat.view("<c8").astype(np.complex128)
