"""Channel impairments: CFO, AWGN, Rician multipath, DME pulses.

The CFO and every multipath tap gain are sums of sinusoids by block angle
addition (_blocks): with m = i*b + r over blocks of b = ceil(sqrt(n))
samples, a tone's factors exp(j*(w*i*b + ph)) and exp(j*w*r) are running
products of three exponentials, exp(j*ph), exp(j*w*b) and exp(j*w), so a
tone over n samples costs three exponentials and about 2*sqrt(n) complex
multiplies, and one small matmul sums the tones of a tap (_tones).  The
products agree with the exponentials of the exact angles to rounding, not
bit for bit: factor i of angle theta within 4*(1 + i + |theta|)*eps
(_blocks derives it).  Over TMA's 129 tones at 1732 samples, _blocks
takes about 80 us against 210 us with an exponential per angle, and
apply_cfo's one tone about 16 against 21 us per call.  apply_multipath
takes the factors of all its tones in one _blocks call, then makes one
product per tap: a 1732-sample TMA frame is one pass over its 129 tones,
then nine products, (42x16) @ (16x42) for each scattered tap.  A faded
config's CFO rides those tones (apply_multipath's epsilon), so it costs
no tone pass and no product of its own: at 1732 samples and epsilon 0.5,
TMA's fading and CFO take about 215 against 244 us as apply_cfo after
apply_multipath, and ENR's 85 against 112 us (one process, one BLAS
thread, 2-CPU Xeon VM).  One
batched np.matmul over the taps gave the same bits but took TMA from
about 375 to 500 us per call (one BLAS thread); under default BLAS
threads on a 2-CPU host, one (42x129) @ (129x42) product over all 129
TMA tones stalled for 24 ms or more in 1% of calls.

The multipath model is a tapped delay line: a line-of-sight (LOS) tone at
delay 0, then the profile's scattered taps, with a Rician power split.
The LOS tone sits at LOS_DOPPLER_FRACTION of the maximum Doppler and
carries K/(K+1) of the power; each scattered tap is a Jakes process of
N_SINUSOIDS tones at the maximum Doppler times the cosine of a random
angle and carries its share of 1/(K+1) (proportional to its dB weight).
Every tone has a random phase, and every tap draws its angles and phases
even at zero power, so the generator stream does not depend on K.
Scattered tap delays are given in seconds; a profile rounds them to whole
samples and checks, when it is built, that each lies from 1 sample behind
the LOS tone to the end of the cyclic prefix.  It also derives then what
apply_multipath reads per tap: the delay in samples and the scale
sqrt(p/K) of the tap's K tones.

A DME environment is a tuple of DmeInterferers; the empty tuple is no DME.
Each interferer emits Gaussian-envelope X-mode pulse pairs: Poisson pair
arrivals, a complex carrier at its frequency offset and one random phase
per pair.  The standard fixes the pulse shape, so the width at half
amplitude (DME_PULSE_WIDTH_S, 3.5 us) and the pair spacing
(DME_PAIR_SPACING_S, 12 us) are constants, as is the -80 dBm signal
power (DME_REFERENCE_DBM) that sets each interferer's peak amplitude
relative to the unit-power signal.  An interferer checks its offset
against Nyquist when it is built, so, as apply_multipath, apply_dme raises
nothing of its own; after each interferer's draws, it builds the pulses of
all interferers in one pass.

run_pipeline applies: multipath -> CFO -> DME -> AWGN, each stage drawing
from its own child generator so that enabling one stage never shifts
another stage's random stream.  A child generator is made only for a stage
that runs.  With a profile, the CFO rides the fading tones in
apply_multipath, which matches apply_cfo after the fading to rounding
(within _blocks' bound for the folded angle, and bit for bit at n <= 1);
apply_cfo runs only for a config without a profile.  One call takes one
input and one config or several; what its configs would compute alike, it
computes once: the fading and CFO of one (seed, profile, epsilon), and the
unit noise of one seed, which apply_awgn scales to each config's SNR.  Each
output has the bits of its config run alone, and nothing is kept from one
call to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .sigmodel import Numerology

LOS_DOPPLER_FRACTION = 0.5  # LOS tone frequency as a fraction of max Doppler
N_SINUSOIDS = 16  # tones per scattered (Jakes) tap
DME_PULSE_WIDTH_S = 3.5e-6  # X-mode pulse width at half amplitude
DME_PAIR_SPACING_S = 12.0e-6  # X-mode spacing of the two pulses of a pair
DME_REFERENCE_DBM = -80.0  # received signal power, the unit-power reference

# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class ChannelTap:
    """One scattered tap: its delay and its dB weight in the scattered share."""

    delay_s: float
    power_db: float


@dataclass(frozen=True)
class ChannelProfile:
    """Tapped delay line: an implicit LOS tone at delay 0, then the
    scattered taps, with a Rician LOS/scattered power split."""

    taps: tuple  # scattered ChannelTaps, delays strictly increasing, 1..n_cp samples
    rician_k_db: float
    max_doppler_hz: float

    # derived when the profile is built, per tap, the LOS tone first: its
    # delay in whole samples and the scale sqrt(p/K) of its K tones' sum
    _delays: tuple = field(init=False, repr=False, compare=False)
    _scales: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        delays = [t.delay_s for t in self.taps]
        # the range checks below fail on NaN too
        if not all(0.0 < d < math.inf for d in delays):
            raise ValueError("tap delays must be finite and > 0")
        if any(b <= a for a, b in zip(delays, delays[1:])):
            raise ValueError("tap delays must be strictly increasing")
        delays_samples = [round(d * Numerology.sample_rate_hz) for d in delays]
        for d, samples in zip(delays, delays_samples):
            if samples < 1:
                raise ValueError(
                    f"tap delay {d} s rounds to {samples} samples: a scattered "
                    "tap must lie at least 1 sample behind the LOS tone"
                )
            if samples > Numerology.n_cp:
                raise ValueError(
                    f"tap delay {d} s rounds to {samples} samples, "
                    f"beyond the limit of {Numerology.n_cp}"
                )
        if not all(math.isfinite(t.power_db) for t in self.taps):
            raise ValueError("tap power_db must be finite")
        if math.isnan(self.rician_k_db):
            raise ValueError("rician_k_db must not be NaN")
        if not 0.0 <= self.max_doppler_hz < math.inf:
            raise ValueError("max_doppler_hz must be finite and >= 0")
        tones = (1,) + (N_SINUSOIDS,) * len(self.taps)
        object.__setattr__(self, "_delays", (0, *delays_samples))
        object.__setattr__(
            self, "_scales", tuple(math.sqrt(p / k) for p, k in zip(self.linear_powers(), tones))
        )

    def linear_powers(self) -> np.ndarray:
        """The LOS power, then each scattered tap's; they sum to 1."""
        k_lin = 10.0 ** (self.rician_k_db / 10.0)
        if math.isinf(k_lin):
            p_los, p_scat = 1.0, 0.0
        else:
            p_los = k_lin / (k_lin + 1.0)
            p_scat = 1.0 / (k_lin + 1.0)
        weights = np.array([10.0 ** (t.power_db / 10.0) for t in self.taps])
        return np.append(p_los, p_scat * weights / weights.sum())


def make_enr_profile() -> ChannelProfile:
    """En-route: strong LOS (K = 15 dB) plus two weak equal-power echoes,
    1250 Hz maximum Doppler."""
    taps = (ChannelTap(0.3e-6, 0.0), ChannelTap(15.0e-6, 0.0))
    return ChannelProfile(taps, 15.0, 1250.0)


def make_tma_profile() -> ChannelProfile:
    """Terminal area: LOS (K = 10 dB) plus an exponentially decaying
    scatter cluster truncated at 10 us (8 taps, decay constant
    max_delay/4), 624 Hz maximum Doppler."""
    max_delay = 10.0e-6
    tau_c = max_delay / 4.0
    delays = np.linspace(1.25e-6, max_delay, 8)
    taps = tuple(
        ChannelTap(float(d), 10.0 * math.log10(math.exp(-d / tau_c))) for d in delays
    )
    return ChannelProfile(taps, 10.0, 624.0)


# ---------------------------------------------------------------------------
# DME


@dataclass(frozen=True)
class DmeInterferer:
    offset_hz: float
    power_dbm: float  # received power; DME_REFERENCE_DBM is unit power
    rate_pps: float  # pulse pairs per second

    def __post_init__(self):
        if not abs(self.offset_hz) < Numerology.sample_rate_hz / 2.0:  # NaN fails too
            raise ValueError("interferer offset_hz must be below Nyquist")
        if not math.isfinite(self.power_dbm):
            raise ValueError("power_dbm must be finite")
        if not 0.0 < self.rate_pps < math.inf:  # NaN fails too
            raise ValueError("rate_pps must be finite and > 0")


def make_dme_scenario() -> tuple:
    """Three ground interrogators adjacent to the signal band."""
    return (
        DmeInterferer(-0.5e6, -67.9, 3600.0),
        DmeInterferer(+0.5e6, -74.0, 3600.0),
        DmeInterferer(+0.5e6, -90.3, 3600.0),
    )


def pulse_pair_times(duration_s: float, rate_pps: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson pair arrivals, uniform over the stream duration."""
    n_pairs = rng.poisson(rate_pps * duration_s)
    return rng.uniform(0.0, duration_s, n_pairs)


# ---------------------------------------------------------------------------
# elementary impairments


def _cfo_omega(epsilon: float, num: Numerology) -> float:
    """A carrier offset of epsilon subcarrier spacings in rad/sample;
    ValueError unless epsilon is finite."""
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    return 2.0 * np.pi * epsilon / num.n_total


def apply_cfo(x: np.ndarray, epsilon: float, num: Numerology) -> np.ndarray:
    """Rotate by a carrier offset of epsilon subcarrier spacings."""
    x = np.asarray(x, dtype=np.complex128)
    return x * _tones((_cfo_omega(epsilon, num),), (0.0,), x.size)


def apply_awgn(
    x: np.ndarray,
    snr_db: float,
    unit: Optional[np.ndarray],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """x + sqrt(var/2) * unit, with var = 10^(-snr/10) (unit-power signal
    reference) and unit the complex noise of _unit_noise.  The result is
    written into out when given (it may be unit itself) and is a new array
    otherwise.  snr_db = +inf (noiseless) returns a copy of x and never
    reads unit, which may then be None; NaN and -inf raise ValueError."""
    x = np.asarray(x, dtype=np.complex128)
    if snr_db == math.inf:
        return x.copy()
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite or inf (noiseless), got {snr_db}")
    var = 10.0 ** (-snr_db / 10.0)
    y = np.multiply(unit, math.sqrt(var / 2.0), out=out)
    y += x
    return y


def _unit_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    """a + 1j*b over n samples, where a and b are the generator's next two
    standard_normal(n) draws, in that order: each is written into one
    complex buffer, so beyond the buffer only one draw is held at a time."""
    unit = np.empty(n, dtype=np.complex128)
    unit.real = rng.standard_normal(n)
    unit.imag = rng.standard_normal(n)
    return unit


def _blocks(omegas: np.ndarray, phases: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The angle addition of _tones for K float64 omegas and phases: the
    (K, nb) per-block factors exp(j*(omegas*i*b + phases)) over the
    nb = ceil(n/b) blocks, and the (K, b) within-block ones exp(j*omegas*r)
    over the b = ceil(sqrt(n)) offsets of a block.

    Both are running products along the block axis: one np.exp call makes
    the 3K base exponentials exp(j*phases), exp(j*omegas*b) and
    exp(j*omegas), and one np.multiply.accumulate per stack steps from
    exp(j*phases) and from exactly 1.  So outer[:, 0] is
    np.exp(1j * phases), inner[:, 0] is 1 and inner[:, 1] is
    np.exp(1j * omegas), bit for bit.

    Elsewhere the factors agree with the exponentials of the exact angles,
    theta = w*i*b + ph and w*r, to rounding (u = eps/2, first order):
    - each base exponential is off by about u, the one rounding of its
      result, and exp(j*w*b) also by the rounding of w*b, u*|w*b|;
    - a complex multiply adds at most sqrt(5)*u (Brent, Percival and
      Zimmermann, Math. Comp. 2007), and block or offset i takes i of them,
      so outer[:, i] lies within u*(1 + (1 + sqrt(5))*i + |w*i*b|) of
      exp(j*theta) and inner[:, r] within u*(1 + sqrt(5))*r;
    - the exact-angle form rounds theta itself, by up to u*(|w*i*b| +
      |theta|), before its own exponential adds u.
    Apart, then, by at most u*(2 + (1 + sqrt(5))*i + 2*|w*i*b| + |theta|)
    in outer, where |w*i*b| <= |theta| + |ph|, and by u*(1 + (1 +
    sqrt(5))*r + |theta|) in inner: within 4*(1 + i + |theta|)*eps, the
    bound TestBlocks holds every factor to, in inner throughout and in
    outer from block 2 on for phases in [0, 2*pi).  The errors do not all
    fall one way: on TestBlocks' grid the largest reads a third of it."""
    b = math.isqrt(n - 1) + 1 if n > 0 else 1  # ceil(sqrt(n))
    nb = -(-n // b)
    k = omegas.size
    base = np.exp(1j * np.concatenate((phases, omegas * float(b), omegas)))
    outer = np.empty((k, nb), dtype=np.complex128)
    # slices, not outer[:, 0], so that n = 0 (nb = 0) assigns nothing
    outer[:, :1] = base[:k, None]
    outer[:, 1:] = base[k : 2 * k, None]
    np.multiply.accumulate(outer, axis=1, out=outer)
    inner = np.empty((k, b), dtype=np.complex128)
    inner[:, 0] = 1.0
    inner[:, 1:] = base[2 * k :, None]
    np.multiply.accumulate(inner, axis=1, out=inner)
    return outer, inner


def _tones(omegas, phases, n: int) -> np.ndarray:
    """Sum over k of exp(j*(omegas[k]*m + phases[k])) for m = 0..n-1, with
    omegas in rad/sample.

    Angle addition over nb = ceil(n/b) blocks of b = ceil(sqrt(n))
    samples (_blocks): with m = i*b + r, exp(j*(w*m + ph)) =
    exp(j*(w*i*b + ph)) * exp(j*w*r), each factor a running product, so
    each tone costs three exponentials and about 2*sqrt(n) complex
    multiplies, and the sum over tones is one (nb, K) @ (K, b) matmul
    whose rows are the blocks.  A term is then off by its two factors'
    errors (_blocks) and one more multiply: to first order at most about
    (2 + 1.62*(i + r) + |w*i*b|/2)*eps from the exponential of its exact
    angle, with i + r < 2*sqrt(n), and the sum adds these over the tones.
    Beyond the output, memory is O(K*sqrt(n)).  apply_multipath makes the
    factors of all its tones in one _blocks call and the product per tap
    (see the module docstring).  omegas and phases must have one length;
    ValueError otherwise.
    """
    omegas = np.asarray(omegas, dtype=np.float64)
    phases = np.asarray(phases, dtype=np.float64)
    if omegas.ndim != 1 or omegas.shape != phases.shape:
        raise ValueError(
            f"omegas and phases must be 1-D of one length, got shapes "
            f"{omegas.shape} and {phases.shape}"
        )
    outer, inner = _blocks(omegas, phases, n)
    return (outer.T @ inner).ravel()[:n]


def apply_multipath(
    x: np.ndarray,
    profile: ChannelProfile,
    num: Numerology,
    rng: np.random.Generator,
    epsilon: float = 0.0,
) -> np.ndarray:
    """Tapped-delay-line fading channel: the LOS tone, then the scattered
    taps at their delays in whole samples, then a carrier offset of
    epsilon subcarrier spacings.

    The generator draws the LOS tone's phase, then tap by tap a scattered
    tap's N_SINUSOIDS angles and its N_SINUSOIDS phases, all in one call:
    uniform doubles come in sequence, so one draw of the total is the same
    stream as one draw per tap.  Each tap's gain is _tones over its own
    tones, from one _blocks call over all of them.

    The offset rides the tones: a CFO of w_c rad/sample turns each tone
    exp(j*(w*m + ph)) into exp(j*((w + w_c)*m + ph)), so every tone's
    omega gains w_c before the one _blocks call, and no second pass over
    the output is made.  This is apply_cfo after apply_multipath to
    rounding (the folded angle's running products, _blocks), and bit for
    bit at n <= 1.  epsilon = 0 leaves the omegas untouched, and epsilon
    takes no draw, so the generator ends in the same state for any value.
    A non-finite epsilon raises apply_cfo's ValueError before any draw.
    """
    x = np.asarray(x, dtype=np.complex128)
    omega_c = _cfo_omega(epsilon, num)
    n = x.size
    u = rng.uniform(0.0, 2.0 * np.pi, 1 + 2 * N_SINUSOIDS * len(profile.taps))
    # the LOS tone's phase, then per scattered tap its angles and its phases
    los_phase, scattered = u[:1], u[1:].reshape(-1, 2, N_SINUSOIDS)
    # one row per tone, the LOS tone first, then tap by tap: its Doppler as
    # a fraction of the maximum, and its phase
    fractions = np.concatenate(([LOS_DOPPLER_FRACTION], np.cos(scattered[:, 0]).ravel()))
    phases = np.concatenate((los_phase, scattered[:, 1].ravel()))
    omegas = 2.0 * np.pi * profile.max_doppler_hz * fractions / num.sample_rate_hz
    if omega_c != 0.0:
        omegas += omega_c
    outer, inner = _blocks(omegas, phases, n)
    y = np.zeros_like(x)
    lo = 0  # the tap's first row
    for d, scale in zip(profile._delays, profile._scales):
        k = 1 if lo == 0 else N_SINUSOIDS
        gain = (outer[lo : lo + k].T @ inner[lo : lo + k]).ravel()[:n]
        gain *= scale
        # out of place: writing the product into gain (out=gain[d:]) moves
        # the bits at n = 1, where numpy takes another complex-multiply loop
        y[d:] += gain[d:] * x[: max(n - d, 0)]
        lo += k
    return y


def apply_dme(
    x: np.ndarray, interferers: tuple, num: Numerology, rng: np.random.Generator
) -> np.ndarray:
    """Add the pulse pairs of each DmeInterferer; no interferers adds
    nothing.  Per interferer the generator draws the pair count, the pair
    times, then one phase per pair; the pulses of all interferers are then
    built in one pass, in interferer order."""
    x = np.asarray(x, dtype=np.complex128)
    n, fs = x.size, num.sample_rate_hz
    # half-amplitude width -> Gaussian sigma; pulses are cut at 5 sigma
    alpha = DME_PULSE_WIDTH_S / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    support = 5.0 * alpha
    starts, phases = [], []
    for intf in interferers:
        starts.append(pulse_pair_times(n / fs, intf.rate_pps, rng))
        phases.append(rng.uniform(0.0, 2.0 * np.pi, starts[-1].size))
    n_pairs = [s.size for s in starts]
    # per pair: its interferer's peak amplitude and carrier offset in rad/s
    table = [
        (math.sqrt(10.0 ** ((i.power_dbm - DME_REFERENCE_DBM) / 10.0)), 2.0 * np.pi * i.offset_hz)
        for i in interferers
    ]
    amp, omega = np.repeat(np.reshape(table, (-1, 2)), n_pairs, axis=0).T
    # the leading empty array keeps np.concatenate defined without interferers
    starts = np.concatenate([np.empty(0), *starts])
    phases = np.concatenate([np.empty(0), *phases])
    # every pulse in pair order: (first, second) of pair 0, then pair 1, ...
    tp = np.stack([starts, starts + DME_PAIR_SPACING_S], axis=1).ravel()
    k_lo = np.maximum(np.ceil((tp - support) * fs).astype(np.int64), 0)
    k_hi = np.minimum(np.floor((tp + support) * fs).astype(np.int64) + 1, n)
    width = np.maximum(k_hi - k_lo, 0)
    # the sample indices of all pulses, concatenated, and each one's pair
    pulse = np.repeat(np.arange(tp.size), width)
    k = k_lo[pulse] + np.arange(pulse.size) - np.repeat(np.cumsum(width) - width, width)
    t = k / fs - tp[pulse]
    pair = pulse // 2
    env = amp[pair] * np.exp(-(t**2) / (2.0 * alpha**2))
    carrier = np.exp(1j * (omega[pair] * t + phases[pair]))
    out = np.zeros(n, dtype=np.complex128)
    # unbuffered and in order, so overlapping pulses add as a per-pulse loop would
    np.add.at(out, k, env * carrier)
    return x + out


# ---------------------------------------------------------------------------
# pipeline


@dataclass
class ImpairmentConfig:
    epsilon: float = 0.0
    snr_db: float = math.inf  # inf -> noiseless
    profile: Optional[ChannelProfile] = None
    dme: tuple = ()  # DmeInterferers; empty -> no DME stage
    seed: int = 0


def _entropy_words(entropy):
    """entropy as the uint32 words SeedSequence makes of it, for an int or
    a list or tuple of ints, all non-negative: each int gives its 32-bit
    words, least significant first, and 0 gives one zero word.
    SeedSequence copies such an array where it would parse the ints again,
    for itself and for each child it spawns, and its pool and children are
    the same.  Any other entropy comes back as it is, for SeedSequence to
    take or reject."""
    ints = (entropy,) if isinstance(entropy, (int, np.integer)) else entropy
    if not isinstance(ints, (list, tuple)):
        return entropy
    words = []
    for v in ints:
        if not isinstance(v, (int, np.integer)) or v < 0:
            return entropy
        v = int(v)
        words.append(v & 0xFFFFFFFF)
        while v > 0xFFFFFFFF:
            v >>= 32
            words.append(v & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


def _stage_rng(seed, stage: int) -> np.random.Generator:
    """Child `stage` of SeedSequence(seed).spawn(4), built without spawning
    the other three: multipath draws from child 0, DME from 2 and AWGN
    from 3.  Child 1 fed a phase-noise stage that is gone; the others keep
    their numbers so that every recorded fading, pulse and noise stream
    stays the same."""
    return np.random.default_rng(np.random.SeedSequence(_entropy_words(seed), spawn_key=(stage,)))


def run_pipeline(
    x: np.ndarray, cfg: ImpairmentConfig | Sequence[ImpairmentConfig], num: Numerology
) -> np.ndarray | list[np.ndarray]:
    """multipath -> CFO -> DME -> AWGN over one input, for one
    ImpairmentConfig or a sequence of them.  A config with a profile
    passes its epsilon to apply_multipath, whose tones carry the CFO;
    apply_cfo runs only for a config without one.

    One config gives one array; a sequence gives a list with one array per
    config, in order, each the bits that config gives alone.  Each stage
    draws from its own child of SeedSequence(cfg.seed), so enabling one
    stage never shifts another's stream, and a generator is made only for
    a stage that runs; a noiseless output calls apply_awgn without unit
    noise.

    The configs of one call share what they would compute alike:
    multipath -> CFO runs once per (seed, profile, epsilon), and the unit
    noise is drawn once per seed, which apply_awgn scales per SNR.  Shared
    arrays are only read, except that the last noisy output of a seed is
    built in its unit-noise buffer; every output is a new array, and
    nothing is kept between calls.
    """
    one = isinstance(cfg, ImpairmentConfig)
    cfgs = [cfg] if one else list(cfg)
    x = np.asarray(x, dtype=np.complex128)
    last_noisy = {c.seed: i for i, c in enumerate(cfgs) if c.snr_db != math.inf}
    faded = {}  # (seed, profile, epsilon) -> multipath -> CFO output
    units = {}  # seed -> unit noise
    outputs = []
    for i, c in enumerate(cfgs):
        key = (c.seed, c.profile, c.epsilon)
        y = faded.get(key)
        if y is None:
            if c.profile is not None:
                y = apply_multipath(x, c.profile, num, _stage_rng(c.seed, 0), c.epsilon)
            elif c.epsilon != 0.0:
                y = apply_cfo(x, c.epsilon, num)
            else:
                y = x
            faded[key] = y
        if c.dme:
            y = apply_dme(y, c.dme, num, _stage_rng(c.seed, 2))
        unit = None
        if c.snr_db != math.inf:
            if c.seed not in units:
                units[c.seed] = _unit_noise(x.size, _stage_rng(c.seed, 3))
            unit = units[c.seed]
        outputs.append(apply_awgn(y, c.snr_db, unit, unit if last_noisy.get(c.seed) == i else None))
    return outputs[0] if one else outputs
