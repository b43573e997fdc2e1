"""The metric kernels against direct sums and a brute-force trigger scan."""

import numpy as np
import pytest

from ldacs_sync import ImpairmentConfig, active_backend, build_frame, metric_stream, run_pipeline
from conftest import full_rate_trigger
from ldacs_sync._kernels import first_trigger, may_trigger, metric_arrays, trigger_margins, xcr_window
from ldacs_sync.harness import CHANNEL_MODELS
from ldacs_sync.sync import _BLOCK, metrics_direct


def _random_stream(rng, n):
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2.0)


class TestDispatch:
    def test_active_backend_known(self):
        assert active_backend() == "numpy"


class TestAgainstDirectSums:
    def test_metric_arrays_vs_direct(self, num, template, rng):
        r = _random_stream(rng, 1000)
        ac1, ac2, ene = metric_arrays(r)
        xcr = xcr_window(r, template, 0, r.size)
        for n in range(num.lookback, r.size, 17):
            snap = metrics_direct(r[: n + 1], num, template)
            assert abs(ac1[n] - snap.ac1) <= 1e-9 * max(1.0, abs(snap.ac1))
            assert abs(ac2[n] - snap.ac2) <= 1e-9 * max(1.0, abs(snap.ac2))
            assert abs(ene[n] - snap.ene) <= 1e-9 * max(1.0, snap.ene)
            assert abs(xcr[n] - snap.xcr) <= 1e-9 * max(1.0, snap.xcr)

    def test_direct_needs_more_than_lookback_samples(self, num, template, rng):
        r = _random_stream(rng, num.lookback + 1)
        assert metrics_direct(r, num, template).n == num.lookback
        with pytest.raises(ValueError, match="too short"):
            metrics_direct(r[1:], num, template)

    def test_warmup_region_zero_padded(self, num, template, rng):
        # indices before the first full window see zeros in place of history
        r = _random_stream(rng, 300)
        ac1, ac2, ene = metric_arrays(r)
        w = 2 * num.l_quarter
        n = 100  # window still reaching past the stream start
        pad = num.d_template + w
        padded = np.concatenate([np.zeros(pad, complex), r])
        snap = metrics_direct(padded[: pad + n + 1], num, template)
        assert abs(ac1[n] - snap.ac1) < 1e-12
        assert abs(ene[n] - snap.ene) < 1e-12


class TestCumsumReference:
    """metric_arrays has the bits of the plain formula: lag products padded
    with zeros, one cumsum, then cs[w:] - cs[:-w]."""

    @staticmethod
    def _reference(r, l_quarter):
        w = 2 * l_quarter

        def sliding(x):
            cs = np.cumsum(x)
            out = cs.copy()
            if w < x.size:
                out[w:] = cs[w:] - cs[:-w]
            return out

        def lagged(lag):
            v = np.zeros(r.size, dtype=np.complex128)
            if lag < r.size:
                v[lag:] = np.conj(r[lag:]) * r[:-lag]
            return v

        return sliding(lagged(l_quarter)), sliding(lagged(w)), sliding(r.real**2 + r.imag**2)

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_byte_identical(self, scale, num, rng):
        L = num.l_quarter
        sizes = [0, 1, L - 1, L, L + 1, 2 * L - 1, 2 * L, 2 * L + 1, 4 * L, num.lookback, 2200, _BLOCK + 427]
        for n in sizes:
            r = scale * _random_stream(rng, n)
            for got, want in zip(metric_arrays(r), self._reference(r, L)):
                assert got.dtype == want.dtype and got.shape == want.shape, n
                assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), n


class TestXcrWindow:
    """xcr over a window is one "valid" convolution of lag-product
    magnitudes that hold zeros before r[0]: bit for bit the slice of the
    full convolution once the window starts at D - 1, and a zero-led
    "valid" convolution before that."""

    @staticmethod
    def _lag_magnitudes(r, num):
        w = 2 * num.l_quarter
        v = np.zeros(r.size, dtype=np.complex128)
        v[w:] = np.conj(r[w:]) * r[:-w]
        return np.abs(v)

    def _full(self, r, num, template):
        return np.convolve(self._lag_magnitudes(r, num), template)[: r.size]

    def _zero_led(self, r, num, template):
        lead = np.zeros(num.d_template - 1)
        return np.convolve(np.concatenate([lead, self._lag_magnitudes(r, num)]), template, "valid")

    @pytest.mark.parametrize("size", [100, 300, 1000, 5000])
    def test_equals_full_convolution_slice(self, size, num, template, rng):
        r = _random_stream(rng, size)
        full = self._full(r, num, template)
        zero_led = self._zero_led(r, num, template)
        d = num.d_template
        windows = [
            (0, size),  # the whole stream
            (0, min(size, 40)),  # reaches the stream start
            (size // 3, size),  # hi at the buffer end
            (size - 1, size),
        ]
        if size > num.lookback + num.delta_search:
            windows += [
                (num.lookback, num.lookback + num.delta_search),  # lo at lookback exactly
                (d - 2, d + 30),  # reaches one sample before r[0]
                (d - 1, d + 30),  # the first window that needs no padding
                (d + 5, size),  # lag products padded with zeros before 2L
            ]
        windows += [tuple(sorted(rng.integers(0, size + 1, size=2))) for _ in range(40)]
        for lo, hi in windows:
            got = xcr_window(r, template, int(lo), int(hi))
            assert got.dtype == np.float64 and got.shape == (hi - lo,)
            if lo >= d - 1:
                assert np.array_equal(got, full[lo:hi]), (lo, hi)
            else:
                assert np.array_equal(got, zero_led[lo:hi]), (lo, hi)
                np.testing.assert_allclose(got, full[lo:hi], rtol=1e-12, atol=0.0)

    def test_zero_prefix_shifts_exactly(self, num, template, rng):
        # zeros before r[0] are literal: prepending z of them and shifting
        # the window by z gives the same bits, wherever the window reaches
        for _ in range(300):
            r = _random_stream(rng, int(rng.integers(1, 1200)))
            lo, hi = sorted(int(i) for i in rng.integers(0, r.size + 1, size=2))
            z = int(rng.integers(1, 2 * num.lookback))
            padded = np.concatenate([np.zeros(z, dtype=np.complex128), r])
            got = xcr_window(padded, template, lo + z, hi + z)
            assert np.array_equal(got, xcr_window(r, template, lo, hi)), (r.size, lo, hi, z)


def _screened(cond, m, start):
    """first_trigger on metric arrays whose trigger condition is cond:
    |2| + |0| > 1 where cond holds, |0| + |0| > 1 nowhere."""
    ac1 = 2.0 * cond.astype(np.complex128)
    return first_trigger(ac1, np.zeros_like(ac1), np.ones(cond.size), m, start)


class TestFirstTriggerBruteForce:
    """first_trigger and the full-rate reference against a sample-by-sample
    run counter."""

    def _brute(self, cond, start, m):
        run = 0
        for i in range(start, cond.size):
            run = run + 1 if cond[i] else 0
            if run >= m:
                return i
        return -1

    def _check(self, cond, m, start):
        want = self._brute(cond, start, m)
        assert full_rate_trigger(cond, m, start) == want, (m, start)
        got = _screened(cond, m, start)
        assert type(got) is int and got == want, (m, start)

    def test_random_patterns(self, num, rng):
        for trial in range(50):
            cond = rng.random(size=300) < 0.5
            start = int(rng.integers(0, 50))
            m = int(rng.integers(1, 7))
            self._check(cond, m, start)
        # every run length up to 20, over densities that hold runs of it
        for trial in range(400):
            cond = rng.random(size=300) < rng.choice((0.5, 0.8, 0.9, 0.95))
            start = int(rng.integers(0, 50))
            m = int(rng.integers(1, 21))
            self._check(cond, m, start)
        # the detector's own run length, on conditions dense enough to hold it
        m = num.m_consec
        for p in (0.8, 0.9, 0.95):
            for _ in range(20):
                cond = rng.random(size=500) < p
                start = int(rng.integers(0, 100))
                self._check(cond, m, start)

    @pytest.mark.parametrize("m", range(1, 21))
    def test_runs_around_every_screened_index(self, m, rng):
        # single runs of length m - 1, m and m + 1 that begin at, end at or
        # straddle each screened index start + m - 1 + k*m, alone and over
        # a sparse random background that holds no run of its own
        n, start = 12 * m + 7, int(rng.integers(0, 2 * m + 1))
        for screened in range(start + m - 1, n, m):
            for length in (m - 1, m, m + 1):
                for first in (screened, screened - length + 1, screened - length // 2):
                    for background in (0.0, 0.3):
                        cond = rng.random(size=n) < background
                        if m > 1:
                            cond[np.arange(m - 1, n, m)] = False  # break any run of m
                        cond[max(first, 0) : first + length] = True
                        self._check(cond, m, start)

    def test_no_trigger(self):
        cond = np.zeros(100, dtype=bool)
        assert full_rate_trigger(cond, 3, 0) == _screened(cond, 3, 0) == -1

    def test_run_must_not_predate_start(self):
        cond = np.ones(100, dtype=bool)
        # run counting begins at start, not before
        assert full_rate_trigger(cond, 16, 40) == _screened(cond, 16, 40) == 55

    @pytest.mark.parametrize("m", range(1, 21))
    def test_start_at_or_near_the_end(self, m, rng):
        cond = rng.random(size=200) < 0.9
        cond[-m:] = True
        for start in [*range(cond.size - 2 * m - 1, cond.size + 1), cond.size + 5]:
            self._check(cond, m, start)

    @pytest.mark.parametrize("fill", [False, True])
    @pytest.mark.parametrize("m", [1, 3, 16])
    def test_uniform_conditions(self, fill, m):
        cond = np.full(300, fill)
        for start in (0, 7, 284, 285, 299, 300):
            self._check(cond, m, start)

    def test_sparse_block_sized_conditions(self, num, rng):
        # a block's worth of samples with rare true runs, as in a noise scan
        m = num.m_consec
        for density in (0.0, 2e-4, 1e-3, 1e-2):
            for _ in range(5):
                cond = np.zeros(1 << 14, dtype=bool)
                for at in rng.integers(0, cond.size, size=int(density * cond.size)):
                    cond[at : at + int(rng.integers(1, 2 * m))] = True
                self._check(cond, m, int(rng.integers(0, 500)))

    @pytest.mark.parametrize("period, true_per_period", [(2, 1), (16, 15)])
    def test_dense_block_sized_conditions(self, period, true_per_period, num, rng):
        # a block's worth of samples true at every other sample, or at 15 of
        # every 16: dense, yet without a run of m, then with one run planted
        m = num.m_consec
        cond = np.arange(1 << 14) % period < true_per_period
        for start in (0, 1, int(rng.integers(2, 500))):
            self._check(cond, m, start)
        cond[-3 * m : -2 * m] = True
        self._check(cond, m, int(rng.integers(0, 500)))


class TestFirstTriggerOnMetricArrays:
    """first_trigger equals the full-rate reference on the metric arrays of
    real streams, for starts every 61 samples and around each trigger."""

    @staticmethod
    def _stream(kind, num, pre):
        if kind.startswith("enr_dme"):
            # DME pulse trains fire the detector in a lead longer than a block
            f, _ = build_frame(num, pre, n_payload_symbols=2, lead_gap=_BLOCK + 500, seed=5)
            profile, dme = CHANNEL_MODELS["ENR_DME"]
            snr = float(kind.split("_")[-1])
            cfg = ImpairmentConfig(epsilon=0.5, snr_db=snr, profile=profile, dme=dme, seed=5)
            return run_pipeline(f, cfg, num)
        n = 3 * _BLOCK if kind == "noise" else _BLOCK + 1000
        x = _random_stream(np.random.default_rng(11), n)
        if kind == "dc":
            x += 1.0
        elif kind == "cw":
            x += np.exp(2j * np.pi * np.arange(n) / num.l_quarter)
        return x

    @pytest.mark.parametrize("kind", ["enr_dme_16", "enr_dme_20", "enr_dme_24", "dc", "cw", "noise"])
    def test_equals_full_rate_reference(self, kind, num, pre, template):
        ac1, ac2, ene, _ = metric_stream(self._stream(kind, num, pre), num, template)
        cond = (np.abs(ac1) + np.abs(ac2)) > ene
        m = num.m_consec
        starts = set(range(0, cond.size, 61))
        triggers = {full_rate_trigger(cond, m, s) for s in starts} - {-1}
        for t in triggers:
            starts.update(range(max(t - 2 * m, 0), t + 2))
        for s in sorted(starts):
            assert first_trigger(ac1, ac2, ene, m, s) == full_rate_trigger(cond, m, s), s
        if kind != "noise":
            # the condition holds runs before the frame (DME) or throughout
            assert min(triggers) < _BLOCK, sorted(triggers)[:5]


class TestTriggerMargins:
    """metric_arrays at a stride of m_consec gives the full-rate windows at
    each row end; trigger_margins puts one of them in every m_consec from
    start on, each margin within tol of metric_arrays' |ac1| + |ac2| - ene
    there, so may_trigger answers False only where first_trigger finds
    nothing."""

    @pytest.mark.parametrize("scale", [1e-160, 1.0, 1e140])
    @pytest.mark.parametrize("kind", ["enr_dme_8", "enr_dme_16", "enr_dme_24", "dc", "cw", "noise"])
    def test_within_tol_of_the_kernels(self, kind, scale, num, pre):
        x = scale * TestFirstTriggerOnMetricArrays._stream(kind, num, pre)
        m = num.m_consec
        # a stream start, and a buffer that begins with a retained tail
        for buf, start in ((x, num.ac_valid_from), (x[1000:], num.lookback)):
            first, margin, tol = trigger_margins(buf, start)
            # every run of m from start on holds one of the indices
            assert start <= first < start + m
            assert buf.size - m <= first + m * (margin.size - 1) < buf.size
            ac1, ac2, ene = metric_arrays(buf)
            kernels = (np.abs(ac1) + np.abs(ac2) - ene)[first::m]
            assert kernels.shape == margin.shape
            assert np.all(np.abs(margin - kernels) <= tol), np.max(np.abs(margin - kernels)) / tol
            if not may_trigger(buf, start):
                assert first_trigger(ac1, ac2, ene, m, start) == -1
            if kind != "noise" and scale == 1.0:
                # the condition holds runs before the frame (DME) or throughout
                assert may_trigger(buf, start)

    def test_rows_from_the_stream_start(self, num, rng):
        # the windows that reach before r[0] read zeros there, as at full rate
        L, m = num.l_quarter, num.m_consec
        r = _random_stream(rng, 5 * L + 7)
        tol = trigger_margins(r, 0)[2]
        for got, want in zip(metric_arrays(r, strided=True), metric_arrays(r)):
            assert got.dtype == want.dtype and got.size == r.size // m
            assert np.all(np.abs(got - want[m - 1 :: m]) <= tol)

    def test_short_buffers_hold_no_index(self, num, rng):
        L, m = num.l_quarter, num.m_consec
        # lookback = 24m - 1 ends a row: its margin exists once r holds it
        for n, size in ((0, 0), (100, 0), (num.lookback, 0), (num.lookback + 1, 1), (num.lookback + m, 1)):
            first, margin, tol = trigger_margins(_random_stream(rng, n), num.lookback)
            assert first == num.lookback and margin.size == size, n
        for n in (0, m - 1, m, L + m):
            assert all(a.size == n // m for a in metric_arrays(_random_stream(rng, n), strided=True)), n
