"""Impairment stages: CFO, AWGN, fading, DME pulses, pipeline."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ldacs_sync import (
    ChannelProfile,
    ChannelTap,
    DmeInterferer,
    ImpairmentConfig,
    apply_awgn,
    apply_cfo,
    apply_dme,
    apply_multipath,
    make_dme_scenario,
    make_enr_profile,
    make_tma_profile,
    run_pipeline,
)
from ldacs_sync.channel import (
    DME_PAIR_SPACING_S,
    DME_PULSE_WIDTH_S,
    LOS_DOPPLER_FRACTION,
    N_SINUSOIDS,
    _blocks,
    _tones,
    _unit_noise,
    pulse_pair_times,
)
from ldacs_sync.harness import CHANNEL_MODELS


class TestCfo:
    def test_zero_offset_identity(self, num, rng):
        x = rng.normal(size=100) + 1j * rng.normal(size=100)
        assert np.allclose(apply_cfo(x, 0.0, num), x, atol=0)

    def test_full_cycle_periodicity(self, num):
        x = np.ones(2 * num.n_total, dtype=complex)
        y = apply_cfo(x, 1.0, num)
        # one full subcarrier of offset completes a cycle every n_total samples
        assert y[num.n_total] == pytest.approx(x[num.n_total], abs=1e-12)

    def test_offsets_compose_additively(self, num, rng):
        x = rng.normal(size=300) + 1j * rng.normal(size=300)
        a = apply_cfo(apply_cfo(x, 0.7, num), 0.8, num)
        b = apply_cfo(x, 1.5, num)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_magnitude_preserved(self, num, rng):
        x = rng.normal(size=200) + 1j * rng.normal(size=200)
        assert np.allclose(np.abs(apply_cfo(x, 1.3, num)), np.abs(x), atol=1e-12)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_non_finite_offset_rejected(self, epsilon, num):
        with pytest.raises(ValueError, match="epsilon"):
            apply_cfo(np.ones(8, dtype=complex), epsilon, num)


def _awgn_reference(x, snr_db, rng):
    """x + sqrt(var/2) * (a + 1j*b), where a and b are the generator's next
    two standard_normal(n) draws, in that order; inf passes x through and
    draws nothing: the reference apply_awgn must match bit for bit."""
    x = np.asarray(x, dtype=np.complex128)
    if snr_db == math.inf:
        return x.copy()
    var = 10.0 ** (-snr_db / 10.0)
    a = rng.standard_normal(x.size)
    b = rng.standard_normal(x.size)
    return x + math.sqrt(var / 2.0) * (a + 1j * b)


class TestAwgn:
    @pytest.mark.parametrize("snr_db", [-7.5, 0.0, 12.0, 31.0, math.inf])
    @pytest.mark.parametrize("n", [0, 1, 1732])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_matches_reference(self, in_place, snr_db, n):
        x = np.random.default_rng(n).normal(size=(n, 2)) @ [1.0, 1j]
        for seed in range(3):
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            unit = None if snr_db == math.inf else _unit_noise(n, rng)
            y = apply_awgn(x, snr_db, unit, unit if in_place else None)
            assert y.tobytes() == _awgn_reference(x, snr_db, rng_ref).tobytes()
            assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_unit_noise_is_written_only_as_out(self, rng):
        x = rng.normal(size=50) + 1j * rng.normal(size=50)
        unit = _unit_noise(x.size, rng)
        before = unit.copy()
        y = apply_awgn(x, 5.0, unit)
        assert np.array_equal(unit, before) and not np.shares_memory(y, unit)
        z = apply_awgn(x, 5.0, unit, unit)
        assert z is unit and np.array_equal(z, y)

    def test_noiseless_passthrough(self, rng):
        x = rng.normal(size=50) + 1j * rng.normal(size=50)
        y = apply_awgn(x, math.inf, None)
        assert np.array_equal(y, x) and not np.shares_memory(y, x)

    @pytest.mark.parametrize("snr_db", [-math.inf, math.nan])
    def test_minus_inf_or_nan_rejected(self, snr_db, rng):
        with pytest.raises(ValueError, match="snr_db"):
            apply_awgn(np.ones(4, dtype=complex), snr_db, _unit_noise(4, rng))

    def test_noise_power_at_0db(self, rng):
        x = np.zeros(1_000_000, dtype=complex)
        y = apply_awgn(x, 0.0, _unit_noise(x.size, rng))
        assert 0.99 <= np.mean(np.abs(y) ** 2) <= 1.01

    def test_noise_power_at_10db(self, rng):
        x = np.zeros(1_000_000, dtype=complex)
        y = apply_awgn(x, 10.0, _unit_noise(x.size, rng))
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.1, rel=0.01)


class TestProfiles:
    def test_enr_parameters(self):
        p = make_enr_profile()
        assert p.max_doppler_hz == 1250.0
        assert p.rician_k_db == 15.0
        assert [t.delay_s for t in p.taps] == [0.3e-6, 15.0e-6]

    def test_tma_parameters(self):
        p = make_tma_profile()
        assert p.rician_k_db == 10.0
        assert p.max_doppler_hz == 624.0
        assert max(t.delay_s for t in p.taps) == pytest.approx(10.0e-6)

    def test_tap_powers_normalized(self):
        for p in (make_enr_profile(), make_tma_profile()):
            assert p.linear_powers().sum() == pytest.approx(1.0, abs=1e-9)

    def test_requires_increasing_delays(self):
        with pytest.raises(ValueError, match="delays"):
            ChannelProfile((ChannelTap(1e-6, 0.0), ChannelTap(1e-6, 0.0)), 10.0, 100.0)

    def test_scattered_tap_at_delay_zero_rejected(self):
        # delay 0 belongs to the implicit LOS tone
        with pytest.raises(ValueError, match=r"^tap delays must be finite and > 0$"):
            ChannelProfile((ChannelTap(0.0, 0.0), ChannelTap(1e-6, 0.0)), 10.0, 100.0)

    @pytest.mark.parametrize("delay_s", [0.1e-6, 0.2e-6])
    def test_scattered_tap_below_one_sample_rejected(self, delay_s):
        # 0.25 and 0.5 samples round to 0: the tap would fade on the LOS
        # tone's own sample
        with pytest.raises(
            ValueError,
            match=rf"^tap delay {delay_s} s rounds to 0 samples: a scattered tap "
            "must lie at least 1 sample behind the LOS tone$",
        ):
            ChannelProfile((ChannelTap(delay_s, 0.0),), 10.0, 100.0)

    def test_linear_powers_split_by_k(self):
        # K = 10 dB: LOS 10/11, scattered 1/11 shared by dB weight
        p = ChannelProfile(
            (ChannelTap(1e-6, 0.0), ChannelTap(2e-6, -10.0 * math.log10(3.0))),
            10.0,
            100.0,
        )
        assert p.linear_powers() == pytest.approx([10 / 11, 0.75 / 11, 0.25 / 11])

    @pytest.mark.parametrize("max_doppler_hz", [math.nan, math.inf])
    def test_non_finite_max_doppler_rejected(self, max_doppler_hz):
        taps = (ChannelTap(1e-6, 0.0),)
        with pytest.raises(ValueError, match="max_doppler_hz"):
            ChannelProfile(taps, 10.0, max_doppler_hz)

    def test_nan_tap_power_rejected(self):
        taps = (ChannelTap(1e-6, math.nan),)
        with pytest.raises(ValueError, match="power_db"):
            ChannelProfile(taps, 10.0, 100.0)

    @pytest.mark.parametrize("delay_s", [math.nan, math.inf])
    def test_non_finite_delay_rejected(self, delay_s):
        taps = (ChannelTap(1e-6, 0.0), ChannelTap(delay_s, 0.0))
        with pytest.raises(ValueError, match="delays"):
            ChannelProfile(taps, 10.0, 100.0)


class TestTones:
    # 1681 = 41**2 and 1682 = 41**2 + 1 are the block-length edges
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 1681, 1682, 1732, 2**20])
    @pytest.mark.parametrize("k", [1, 16, 129])
    def test_matches_per_tone_direct_sum(self, k, n):
        rng = np.random.default_rng(1000 * k + n % 1000)
        omegas = rng.uniform(-np.pi, np.pi, k)
        phases = rng.uniform(0.0, 2.0 * np.pi, k)
        # at 2**20 the sum runs over every 7th sample: 7 is coprime to the
        # 1024-sample block, so this still visits every block and offset
        self._check_direct_sum(omegas, phases, n, 7 if n > 4096 else 1)

    # Doppler-sized tones, as a TMA draw's 129: each block and offset
    # factor is a running product, whose rounding does not shrink with
    # |w|; 11 is coprime to the 1449-sample block of 2**21 samples
    @pytest.mark.parametrize("n, stride", [(1732, 1), (2**21, 11)])
    def test_doppler_tones_match_direct_sum(self, n, stride):
        rng = np.random.default_rng(n)
        omegas = rng.uniform(-0.05, 0.05, 129)
        phases = rng.uniform(0.0, 2.0 * np.pi, 129)
        self._check_direct_sum(omegas, phases, n, stride)

    @staticmethod
    def _check_direct_sum(omegas, phases, n, stride):
        k = omegas.size
        g = _tones(omegas, phases, n)
        assert g.shape == (n,)
        assert g.dtype == np.complex128
        m = np.arange(0, n, stride, dtype=np.float64)
        direct = np.zeros(m.size, dtype=np.complex128)
        for w, ph in zip(omegas, phases):
            direct += np.exp(1j * (w * m + ph))
        # both sides round a phase of up to |w|*n, each by up to ~eps*|w|*n
        eps = np.finfo(np.float64).eps
        tol = 4.0 * k * (1.0 + np.max(np.abs(omegas)) * n) * eps
        assert np.max(np.abs(g[::stride] - direct), initial=0.0) <= tol

    @pytest.mark.parametrize("omegas, phases", [((0.1, 0.2), (0.0,)), ((0.1,), (0.0, 1.0))])
    def test_length_mismatch_rejected(self, omegas, phases):
        with pytest.raises(ValueError, match="omegas and phases"):
            _tones(omegas, phases, 100)

    def test_memory_flat(self):
        # only the output is stream-sized; the blocks are O(K*sqrt(n))
        rng = np.random.default_rng(5)
        omegas = rng.uniform(-0.01, 0.01, 16)
        phases = rng.uniform(0.0, 2.0 * np.pi, 16)
        tracemalloc.start()
        try:
            g = _tones(omegas, phases, 2**20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * g.nbytes


def _blocks_reference(omegas, phases, n):
    """_blocks in its exact-angle form, np.exp(1j * theta) of each factor's
    own angle: the (K, nb) outer and (K, b) inner stacks, and their angles."""
    b = math.isqrt(n - 1) + 1 if n > 0 else 1  # ceil(sqrt(n))
    nb = -(-n // b)
    theta_outer = omegas[:, None] * (np.arange(nb) * float(b)) + phases[:, None]
    theta_inner = omegas[:, None] * np.arange(b, dtype=np.float64)
    return (np.exp(1j * theta_outer), np.exp(1j * theta_inner)), (theta_outer, theta_inner)


class TestBlocks:
    """_blocks' running products against the exact-angle np.exp(1j * theta)
    form: byte for byte in the columns made without a multiply, and within
    the rounding bound of _blocks' docstring everywhere.
    _multipath_reference sums its tones through _tones, hence through
    _blocks, so TestMultipath cannot see a drift here; this test and
    TestTones' direct sums can."""

    # 1681 = 41**2 and 1682 are the block-length edges, 2032 the longest
    # sweep frame; K = 1 is apply_cfo, 33 an ENR draw, 129 a TMA draw; up
    # to the largest CFO tone, 2*pi*2/256 rad/sample, and a negative omega
    # makes the within-block angle at offset 0 a -0.0
    @staticmethod
    def _draw(sign, k, n):
        rng = np.random.default_rng([k, n])
        omegas = sign * rng.uniform(0.0, 0.05, k)
        phases = rng.uniform(0.0, 2.0 * np.pi, k)
        return omegas, phases

    @pytest.mark.parametrize("n", [0, 1, 2, 1681, 1682, 2032, 2331])
    @pytest.mark.parametrize("k", [1, 33, 129])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_bytes_match_the_exp_form(self, sign, k, n):
        # where a factor takes no multiply: block 0 is exp(j*phases), the
        # offsets 0 and 1 are exactly 1 and 1 * exp(j*omegas)
        omegas, phases = self._draw(sign, k, n)
        got = _blocks(omegas, phases, n)
        want, _ = _blocks_reference(omegas, phases, n)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.dtype == w.dtype
        outer, inner = got
        assert outer[:, :1].tobytes() == want[0][:, :1].tobytes()
        assert inner[:, 0].tobytes() == np.ones(k, dtype=np.complex128).tobytes()
        assert inner[:, 1:2].tobytes() == want[1][:, 1:2].tobytes()
        if inner.shape[1] > 1:
            assert inner[:, 1].tobytes() == np.exp(1j * omegas).tobytes()

    # 2**21 samples take b = 1449, the longest recurrence a 2 Mi-sample
    # capture's CFO runs
    @pytest.mark.parametrize("n", [0, 1, 2, 1681, 1682, 2032, 2331, 2**21])
    @pytest.mark.parametrize("k", [1, 33, 129])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_within_the_rounding_bound(self, sign, k, n):
        # factor i (a block or an offset) of angle theta is within
        # 4 * (1 + i + |theta|) * eps of exp(j*theta)
        omegas, phases = self._draw(sign, k, n)
        eps = np.finfo(np.float64).eps
        want, thetas = _blocks_reference(omegas, phases, n)
        for got, w, theta in zip(_blocks(omegas, phases, n), want, thetas):
            i = np.arange(theta.shape[1])
            bound = 4.0 * (1.0 + i + np.abs(theta)) * eps
            assert np.all(np.abs(got - w) <= bound)


def _multipath_reference(x, profile, num, rng):
    """Tap-by-tap loop, the LOS tone at delay 0 first, with a delay
    rounding, a draw and a gain scaling per tap: the reference
    apply_multipath must match bit for bit."""
    x = np.asarray(x, dtype=np.complex128)
    fs = num.sample_rate_hz
    n = x.size
    y = np.zeros_like(x)
    delays = (0.0,) + tuple(tap.delay_s for tap in profile.taps)
    for i, (delay_s, p) in enumerate(zip(delays, profile.linear_powers())):
        d = int(np.round(delay_s * fs))
        assert d <= num.n_cp
        if i == 0:
            fractions = np.array([LOS_DOPPLER_FRACTION])
            phases = rng.uniform(0.0, 2.0 * np.pi, 1)
        else:
            fractions = np.cos(rng.uniform(0.0, 2.0 * np.pi, N_SINUSOIDS))
            phases = rng.uniform(0.0, 2.0 * np.pi, N_SINUSOIDS)
        if p == 0.0:
            continue
        omegas = 2.0 * np.pi * profile.max_doppler_hz * fractions / fs
        gain = math.sqrt(p) * (_tones(omegas, phases, n) / math.sqrt(fractions.size))
        y[d:] += gain[d:] * x[: max(n - d, 0)]
    return y


class TestMultipath:
    @pytest.mark.parametrize("make_profile", [make_enr_profile, make_tma_profile])
    @pytest.mark.parametrize("k_db", [math.inf, 10.0, -math.inf])
    # 1681 = 41**2 and 1682 = 41**2 + 1 are the block-length edges; 2032
    # is the longest sweep frame (an 800-sample lead), 2331 a longer one
    @pytest.mark.parametrize("n", [0, 1, 30, 1681, 1682, 1732, 2032, 2331])
    def test_matches_per_tap_loop(self, make_profile, k_db, n, num):
        profile = dataclasses.replace(make_profile(), rician_k_db=k_db)
        x = np.random.default_rng(n).normal(size=(n, 2)) @ [1.0, 1j]
        for seed in range(4):
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            y = apply_multipath(x, profile, num, rng)
            # bytes, not np.array_equal, which takes -0.0 for 0.0
            assert y.tobytes() == _multipath_reference(x, profile, num, rng_ref).tobytes()
            assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_pure_los_is_flat(self, num, rng):
        profile = ChannelProfile((), rician_k_db=math.inf, max_doppler_hz=0.0)
        x = rng.normal(size=400) + 1j * rng.normal(size=400)
        y = apply_multipath(x, profile, num, rng)
        g = y[0] / x[0]
        assert abs(g) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(y, g * x, atol=1e-12)

    def test_enr_delays_round_to_sample_grid(self, num, rng):
        # impulse response exposes the tap positions: 0.3 us -> 1, 15 us -> 38
        x = np.zeros(64, dtype=complex)
        x[0] = 1.0
        y = apply_multipath(x, make_enr_profile(), num, rng)
        nz = np.flatnonzero(np.abs(y) > 1e-12)
        assert nz.tolist() == [0, 1, 38]

    def test_long_run_power_preserved(self, num):
        rng = np.random.default_rng(77)
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, 1_000_000))
        y = apply_multipath(x, make_enr_profile(), num, rng)
        assert 0.95 <= np.mean(np.abs(y) ** 2) <= 1.05

    @pytest.mark.parametrize("n", [0, 1, 30, 64])
    def test_short_streams_are_convolved_with_the_taps(self, n, num):
        # Doppler 0 freezes the ENR taps at 0, 1 and 38 samples, so the
        # channel is the convolution with its impulse response
        profile = dataclasses.replace(make_enr_profile(), max_doppler_hz=0.0)
        impulse = np.zeros(64, dtype=complex)
        impulse[0] = 1.0
        h = apply_multipath(impulse, profile, num, np.random.default_rng(3))
        assert np.flatnonzero(h).tolist() == [0, 1, 38]
        x = np.random.default_rng(4).normal(size=(n, 2)) @ [1.0, 1j]
        y = apply_multipath(x, profile, num, np.random.default_rng(3))
        assert y.shape == (n,)
        # the appended zero only keeps np.convolve away from an empty input
        assert np.allclose(y, np.convolve(np.append(x, 0.0), h)[:n], atol=1e-12)

    def test_los_rotates_at_half_max_doppler(self, num, rng):
        fd = 1000.0
        profile = ChannelProfile((), math.inf, fd)
        x = rng.normal(size=5000) + 1j * rng.normal(size=5000)
        g = apply_multipath(x, profile, num, rng) / x
        assert np.allclose(np.abs(g), 1.0, atol=1e-12)
        step = np.angle(g[1:] * np.conj(g[:-1]))
        assert np.allclose(step, 2.0 * np.pi * 0.5 * fd / num.sample_rate_hz, atol=1e-9)

    def test_scattered_spectrum_within_max_doppler(self, num):
        fd = 1250.0
        profile = ChannelProfile((ChannelTap(1e-6, 0.0),), -math.inf, fd)
        n = 2**16
        y = apply_multipath(np.ones(n + 3, complex), profile, num, np.random.default_rng(8))
        psd = np.abs(np.fft.fft(y[3:] * np.hanning(n))) ** 2
        freqs = np.fft.fftfreq(n, d=1.0 / num.sample_rate_hz)
        # the Hann main lobe spreads each tone over +-2 bins
        band = np.abs(freqs) <= fd + 2 * num.sample_rate_hz / n
        assert psd[band].sum() >= 0.99 * psd.sum()

    def test_generator_state_independent_of_k(self, num):
        x = np.ones(100, dtype=complex)
        states = []
        for k_db in (math.inf, 10.0, -math.inf):
            rng = np.random.default_rng(11)
            profile = dataclasses.replace(make_tma_profile(), rician_k_db=k_db)
            apply_multipath(x, profile, num, rng)
            states.append(rng.bit_generator.state)
        assert states[0] == states[1] == states[2]

    # the delay limit is checked once, when the profile is built, so a
    # profile that apply_multipath receives is always within it

    def test_delay_beyond_limit_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            ChannelProfile((ChannelTap(20.0e-6, 0.0),), 10.0, 100.0)

    def test_delay_limit_names_the_first_tap_beyond_it(self):
        taps = (ChannelTap(1e-6, 0.0), ChannelTap(18.0e-6, 0.0), ChannelTap(20.0e-6, 0.0))
        with pytest.raises(
            ValueError,
            match=r"^tap delay 1.8e-05 s rounds to 45 samples, beyond the limit of 44$",
        ):
            ChannelProfile(taps, 10.0, 100.0)

    def test_delay_at_the_limit_is_applied(self, num):
        # 17.6 us rounds to 44 samples, the whole cyclic prefix
        profile = ChannelProfile((ChannelTap(17.6e-6, 0.0),), -math.inf, 0.0)
        x = np.zeros(64, dtype=complex)
        x[0] = 1.0
        y = apply_multipath(x, profile, num, np.random.default_rng(1))
        assert np.flatnonzero(np.abs(y) > 1e-12).tolist() == [44]


def _dme_reference(n, interferers, num, rng):
    """Per-pair, per-pulse loop over the X-mode pulse pairs: the reference
    apply_dme must match bit for bit."""
    pulse_width_s, pair_spacing_s, signal_power_dbm = 3.5e-6, 12.0e-6, -80.0
    fs = num.sample_rate_hz
    out = np.zeros(n, dtype=np.complex128)
    alpha = pulse_width_s / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    support = 5.0 * alpha
    for intf in interferers:
        amp = math.sqrt(10.0 ** ((intf.power_dbm - signal_power_dbm) / 10.0))
        for t0 in pulse_pair_times(n / fs, intf.rate_pps, rng):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            for tp in (t0, t0 + pair_spacing_s):
                k_lo = max(0, int(math.ceil((tp - support) * fs)))
                k_hi = min(n, int(math.floor((tp + support) * fs)) + 1)
                if k_lo >= k_hi:
                    continue
                t = np.arange(k_lo, k_hi) / fs - tp
                env = amp * np.exp(-(t**2) / (2.0 * alpha**2))
                out[k_lo:k_hi] += env * np.exp(
                    1j * (2.0 * np.pi * intf.offset_hz * t + phase)
                )
    return out


class TestDme:
    def test_empty_scenario_identity(self, num, rng):
        x = rng.normal(size=100) + 1j * rng.normal(size=100)
        assert np.array_equal(apply_dme(x, (), num, rng), x)

    def test_pair_count_near_rate(self, rng):
        # Poisson at 3600/s over 1 s, 3 sigma is plus or minus 180
        for trial in range(3):
            times = pulse_pair_times(1.0, 3600.0, rng)
            assert 3400 <= times.size <= 3800

    def test_default_scenario_shape(self):
        dme = make_dme_scenario()
        assert len(dme) == 3
        assert DME_PULSE_WIDTH_S == pytest.approx(3.5e-6)
        assert DME_PAIR_SPACING_S == pytest.approx(12.0e-6)
        assert {i.rate_pps for i in dme} == {3600.0}

    @pytest.mark.parametrize("n", [0, 1, 50, 1732, 20000])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_per_pulse_loop(self, n, seed, num):
        # the bundled three plus a dense one, so pulses of different pairs
        # overlap and pulses are cut at both stream ends
        interferers = make_dme_scenario() + (DmeInterferer(0.3e6, -70.0, 1.0e5),)
        x = np.random.default_rng(100 + seed).normal(size=(n, 2)) @ [1, 1j]
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        y = apply_dme(x, interferers, num, rng_a)
        assert np.array_equal(y, x + _dme_reference(n, interferers, num, rng_b))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_spectral_peak_at_offset(self, num, rng):
        interferers = (DmeInterferer(-0.5e6, -67.9, 3600.0),)
        z = apply_dme(np.zeros(250_000), interferers, num, rng)  # 0.1 s
        nseg = 256
        segs = z[: (z.size // nseg) * nseg].reshape(-1, nseg)
        psd = np.mean(np.abs(np.fft.fft(segs, axis=1)) ** 2, axis=0)
        freqs = np.fft.fftfreq(nseg, d=1.0 / num.sample_rate_hz)
        peak = freqs[np.argmax(psd)]
        bin_width = num.sample_rate_hz / nseg
        assert abs(peak - (-0.5e6)) <= bin_width

    # the Nyquist limit is checked once, when the interferer is built

    def test_offset_beyond_nyquist_rejected(self):
        for offset_hz in (2.0e6, -1.25e6):  # -1.25 MHz is Nyquist itself
            with pytest.raises(ValueError, match=r"^interferer offset_hz must be below Nyquist$"):
                DmeInterferer(offset_hz, -70.0, 100.0)

    def test_nan_offset_rejected(self):
        with pytest.raises(ValueError, match=r"^interferer offset_hz must be below Nyquist$"):
            DmeInterferer(math.nan, -70.0, 100.0)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="rate_pps"):
            DmeInterferer(0.0, -70.0, 0.0)

    @pytest.mark.parametrize("rate_pps", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate_pps):
        with pytest.raises(ValueError, match="rate_pps"):
            DmeInterferer(0.0, -70.0, rate_pps)

    def test_nan_power_rejected(self):
        with pytest.raises(ValueError, match="power_dbm"):
            DmeInterferer(0.0, math.nan, 3600.0)


class TestPipeline:
    def test_everything_off_is_identity(self, num, rng):
        x = rng.normal(size=200) + 1j * rng.normal(size=200)
        y = run_pipeline(x, ImpairmentConfig(), num)
        assert np.array_equal(y, x)

    def test_cfo_only_matches_direct_call(self, num, rng):
        x = rng.normal(size=200) + 1j * rng.normal(size=200)
        y = run_pipeline(x, ImpairmentConfig(epsilon=1.5), num)
        assert np.array_equal(y, apply_cfo(x, 1.5, num))

    def test_deterministic_per_seed(self, num, rng):
        x = rng.normal(size=300) + 1j * rng.normal(size=300)
        cfg = ImpairmentConfig(
            epsilon=0.5,
            snr_db=10.0,
            profile=make_enr_profile(),
            dme=make_dme_scenario(),
            seed=42,
        )
        a = run_pipeline(x, cfg, num)
        b = run_pipeline(x, cfg, num)
        assert np.array_equal(a, b)
        c = run_pipeline(x, ImpairmentConfig(**{**cfg.__dict__, "seed": 43}), num)
        assert not np.array_equal(a, c)

    def test_stage_seeds_independent_of_toggles(self, num, rng):
        # turning DME on must not change the AWGN realization
        x = rng.normal(size=300) + 1j * rng.normal(size=300)
        base = run_pipeline(x, ImpairmentConfig(snr_db=20.0, seed=9), num)
        with_dme = run_pipeline(
            x, ImpairmentConfig(snr_db=20.0, dme=make_dme_scenario(), seed=9), num
        )
        dme_only = run_pipeline(
            x, ImpairmentConfig(dme=make_dme_scenario(), seed=9), num
        )
        assert np.allclose(with_dme - base, dme_only - x, atol=1e-12)

    @pytest.mark.parametrize(
        "multipath, cfo, dme, snr_db",
        [
            (*flags, snr_db)
            for flags in itertools.product((False, True), repeat=3)
            for snr_db in (7.0, math.inf)
        ],
    )
    def test_stages_draw_from_their_spawned_child(
        self, multipath, cfo, dme, snr_db, num, rng
    ):
        # the hand-made composition takes multipath, DME and AWGN from
        # children 0, 2 and 3 of SeedSequence(seed).spawn(4); a stage on the
        # wrong child differs
        x = rng.normal(size=500) + 1j * rng.normal(size=500)
        seed = 2024
        cfg = ImpairmentConfig(
            epsilon=0.7 if cfo else 0.0,
            snr_db=snr_db,
            profile=make_tma_profile() if multipath else None,
            dme=make_dme_scenario() if dme else (),
            seed=seed,
        )
        rng_mp, _, rng_dme, rng_awgn = (
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)
        )
        y = x
        if multipath:
            y = apply_multipath(y, cfg.profile, num, rng_mp)
        if cfo:
            y = apply_cfo(y, cfg.epsilon, num)
        if dme:
            y = apply_dme(y, cfg.dme, num, rng_dme)
        y = _awgn_reference(y, snr_db, rng_awgn)
        assert np.array_equal(run_pipeline(x, cfg, num), y)


def _configs(seed, epsilons=(0.0, 0.5, 1.5), snrs=(7.0, math.inf)):
    """Every bundled channel at each epsilon and SNR, with one seed."""
    return [
        ImpairmentConfig(epsilon=eps, snr_db=snr, profile=profile, dme=dme, seed=seed)
        for profile, dme in CHANNEL_MODELS.values()
        for eps in epsilons
        for snr in snrs
    ]


class TestPipelineOverConfigs:
    """One call over several configs shares fading and unit noise, and
    gives each config the bits it gives alone."""

    @staticmethod
    def _assert_each_alone(x, cfgs, num):
        outputs = run_pipeline(x, cfgs, num)
        assert isinstance(outputs, list) and len(outputs) == len(cfgs)
        for cfg, y in zip(cfgs, outputs):
            assert y.tobytes() == run_pipeline(x, cfg, num).tobytes()

    def test_every_channel_epsilon_and_snr(self, num):
        x = np.random.default_rng(1).normal(size=(1732, 2)) @ [1.0, 1j]
        # two seeds, interleaved in a fixed shuffled order, so each seed's
        # first and last noisy configs fall at different places
        cfgs = _configs(5) + _configs(6)
        order = np.random.default_rng(2).permutation(len(cfgs))
        self._assert_each_alone(x, [cfgs[i] for i in order], num)

    def test_one_config_repeated(self, num):
        x = np.random.default_rng(3).normal(size=(600, 2)) @ [1.0, 1j]
        for cfg in _configs(8, epsilons=(0.5,)):
            self._assert_each_alone(x, [cfg] * 3, num)

    @pytest.mark.parametrize("snrs", [(12.0, 12.0), (12.0, math.inf), (math.inf, 3.0)])
    def test_enr_and_enr_dme_share_fading(self, snrs, num):
        x = np.random.default_rng(4).normal(size=(1732, 2)) @ [1.0, 1j]
        cfgs = [
            ImpairmentConfig(epsilon=0.5, snr_db=snr, profile=make_enr_profile(), dme=dme, seed=9)
            for snr, dme in zip(snrs, ((), make_dme_scenario()))
        ]
        self._assert_each_alone(x, cfgs, num)

    def test_one_config_is_the_list_of_one(self, num):
        x = np.random.default_rng(5).normal(size=(300, 2)) @ [1.0, 1j]
        cfg = ImpairmentConfig(epsilon=0.5, snr_db=7.0, profile=make_tma_profile(), seed=3)
        y = run_pipeline(x, cfg, num)
        assert isinstance(y, np.ndarray)
        (z,) = run_pipeline(x, [cfg], num)
        assert y.tobytes() == z.tobytes()

    def test_no_configs(self, num):
        assert run_pipeline(np.ones(10, dtype=complex), [], num) == []

    def test_outputs_are_fresh_and_the_input_is_kept(self, num):
        x = np.random.default_rng(6).normal(size=(500, 2)) @ [1.0, 1j]
        x.flags.writeable = False  # as a drawn frame: any write raises
        before = x.copy()
        cfgs = _configs(7) + _configs(7)
        outputs = run_pipeline(x, cfgs, num)
        again = run_pipeline(x, cfgs, num)
        for i, y in enumerate(outputs):
            assert y.flags.writeable and not np.shares_memory(y, x)
            assert not any(np.shares_memory(y, z) for z in outputs[i + 1 :])
        for i, y in enumerate(outputs):
            y[:] = np.nan
            for z, z_again in zip(outputs[i + 1 :], again[i + 1 :]):
                assert z.tobytes() == z_again.tobytes()
        assert np.array_equal(x, before)
        assert all(
            a.tobytes() == b.tobytes() for a, b in zip(again, run_pipeline(x, cfgs, num))
        )

    def test_noise_stage_memory(self, num):
        # the unit noise is built in one buffer, one draw at a time, and the
        # output is that buffer, scaled and added in place
        x = np.zeros(2**20, dtype=np.complex128)
        cfg = ImpairmentConfig(snr_db=10.0, seed=1)
        tracemalloc.start()
        try:
            y = run_pipeline(x, cfg, num)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * y.nbytes
