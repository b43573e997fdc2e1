"""The metric kernels against direct sums and a brute-force trigger scan."""

import numpy as np
import pytest

from ldacs_sync import active_backend
from ldacs_sync._kernels import first_trigger, metric_arrays, xcr_window
from ldacs_sync.sync import metrics_direct


def _random_stream(rng, n):
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2.0)


class TestDispatch:
    def test_active_backend_known(self):
        assert active_backend() == "numpy"


class TestAgainstDirectSums:
    def test_metric_arrays_vs_direct(self, num, template, rng):
        r = _random_stream(rng, 1000)
        ac1, ac2, ene = metric_arrays(r, num.l_quarter)
        xcr = xcr_window(r, num.l_quarter, template, 0, r.size)
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
        ac1, ac2, ene = metric_arrays(r, num.l_quarter)
        w = 2 * num.l_quarter
        n = 100  # window still reaching past the stream start
        pad = num.d_template + w
        padded = np.concatenate([np.zeros(pad, complex), r])
        snap = metrics_direct(padded[: pad + n + 1], num, template)
        assert abs(ac1[n] - snap.ac1) < 1e-12
        assert abs(ene[n] - snap.ene) < 1e-12


class TestXcrWindow:
    """xcr over a window equals the slice of one full convolution over the
    whole stream, bit for bit."""

    @staticmethod
    def _full(r, num, template):
        w = 2 * num.l_quarter
        v = np.zeros(r.size, dtype=np.complex128)
        v[w:] = np.conj(r[w:]) * r[:-w]
        return np.convolve(np.abs(v), template)[: r.size]

    @pytest.mark.parametrize("size", [100, 300, 1000, 5000])
    def test_equals_full_convolution_slice(self, size, num, template, rng):
        r = _random_stream(rng, size)
        full = self._full(r, num, template)
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
            got = xcr_window(r, num.l_quarter, template, int(lo), int(hi))
            assert got.dtype == np.float64 and got.shape == (hi - lo,)
            assert np.array_equal(got, full[lo:hi]), (lo, hi)


class TestFirstTriggerBruteForce:
    def _brute(self, cond, start, m):
        run = 0
        for i in range(start, cond.size):
            run = run + 1 if cond[i] else 0
            if run >= m:
                return i
        return -1

    def test_random_patterns(self, num, rng):
        for trial in range(50):
            cond = rng.random(size=300) < 0.5
            start = int(rng.integers(0, 50))
            m = int(rng.integers(1, 7))
            assert first_trigger(cond, m, start) == self._brute(cond, start, m)
        # the detector's own run length, on conditions dense enough to hold it
        m = num.m_consec
        for p in (0.8, 0.9, 0.95):
            for _ in range(20):
                cond = rng.random(size=500) < p
                start = int(rng.integers(0, 100))
                assert first_trigger(cond, m, start) == self._brute(cond, start, m)

    def test_no_trigger(self):
        cond = np.zeros(100, dtype=bool)
        assert first_trigger(cond, 3, 0) == -1

    def test_run_must_not_predate_start(self):
        cond = np.ones(100, dtype=bool)
        # run counting begins at start, not before
        assert first_trigger(cond, 16, 40) == 55

    @pytest.mark.parametrize("m", [1, 3, 16])
    def test_start_at_or_near_the_end(self, m, rng):
        cond = rng.random(size=200) < 0.9
        cond[-m:] = True
        for start in [*range(cond.size - m - 1, cond.size + 1), cond.size + 5]:
            assert first_trigger(cond, m, start) == self._brute(cond, start, m), start

    @pytest.mark.parametrize("fill", [False, True])
    @pytest.mark.parametrize("m", [1, 3, 16])
    def test_uniform_conditions(self, fill, m):
        cond = np.full(300, fill)
        for start in (0, 7, 284, 285, 299, 300):
            assert first_trigger(cond, m, start) == self._brute(cond, start, m), start

    def test_sparse_block_sized_conditions(self, num, rng):
        # a block's worth of samples with rare true runs, as in a noise scan
        m = num.m_consec
        for density in (0.0, 2e-4, 1e-3, 1e-2):
            for _ in range(5):
                cond = np.zeros(1 << 14, dtype=bool)
                for at in rng.integers(0, cond.size, size=int(density * cond.size)):
                    cond[at : at + int(rng.integers(1, 2 * m))] = True
                start = int(rng.integers(0, 500))
                assert first_trigger(cond, m, start) == self._brute(cond, start, m)
