"""Metric streaming, detection, and the timing/CFO estimators."""

import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ldacs_sync import (
    ImpairmentConfig,
    SyncResult,
    SyncState,
    apply_awgn,
    apply_cfo,
    baseline_xene,
    baseline_xsig,
    build_frame,
    energy_template,
    estimate_cfo,
    generate_preamble,
    metric_stream,
    metrics_direct,
    run_pipeline,
    synchronize,
)
from ldacs_sync import sync as sync_module
from conftest import full_rate_trigger
from ldacs_sync.channel import _unit_noise
from ldacs_sync.harness import CHANNEL_MODELS
from ldacs_sync._kernels import (
    _E_DETECT,
    _energy,
    _energy_limit,
    may_trigger,
    metric_arrays,
    trigger_margins,
    xcr_window,
)
from ldacs_sync.sync import _BLOCK, cfo_match_indices


# a known timing limit: a fix XPASSes and must drop the marker
_SPURIOUS_PEAK = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a spurious xcr peak inside the timing window beats the anchor peak "
    "(preamble seeds 71, 1817, 2502: off by -145, -150, -129 at every gap and eps)",
)


def _noise(rng, n, power=1.0):
    scale = np.sqrt(power / 2.0)
    return scale * (rng.normal(size=n) + 1j * rng.normal(size=n))


def _chunk_sizes(rng, n):
    """Seeded random chunk sizes covering n samples, starting with a 1."""
    sizes = [1]
    while sum(sizes) < n:
        sizes.append(int(rng.choice((1, 7, 64, 300, 1000))))
    return sizes


def _pushed(x, sizes, num, template):
    """A fresh SyncState fed x in chunks of the given sizes; its result."""
    state = SyncState(num, template)
    i = 0
    for c in sizes:
        state.push(x[i : i + c])
        i += c
    return state.finish()


def _assert_same_result(res, ref):
    """Every field equal, the CFO fields bit for bit."""
    assert res == ref


class TestStreamingMetrics:
    """metric_stream, the one metrics path, across its block boundaries;
    push over the same samples gives synchronize's result."""

    def test_constant_input_saturates_to_window_energy(self, num, template):
        x = np.ones(_BLOCK + 600, dtype=complex)
        w = 2 * num.l_quarter
        for arr in metric_stream(x, num, template)[:3]:
            assert np.max(np.abs(arr[num.ac_valid_from :] - w)) < 1e-9
        assert _pushed(x[:600], [1] * 600, num, template) == synchronize(x[:600], num, template)

    def test_zero_input_all_zero(self, num, template):
        x = np.zeros(_BLOCK + 500, dtype=complex)
        for arr in metric_stream(x, num, template):
            assert not arr.any()
        assert _pushed(x[:500], [1] * 500, num, template) == SyncResult(detected=False)

    def test_streaming_equals_batch_equals_direct(self, num, template, rng):
        x = _noise(rng, _BLOCK + 900)
        ac1, ac2, ene, xcr = metric_stream(x, num, template)
        # either side of the block boundary, and its first index
        for n in (700, _BLOCK - 1, _BLOCK, _BLOCK + 700):
            snap = metrics_direct(x[: n + 1], num, template)
            for got, want in ((ac1, snap.ac1), (ac2, snap.ac2), (ene, snap.ene), (xcr, snap.xcr)):
                assert abs(got[n] - want) < 1e-9
        sizes = _chunk_sizes(np.random.default_rng(3), x.size)
        assert _pushed(x, sizes, num, template) == synchronize(x, num, template)


class TestMetricProperties:
    def test_cfo_leaves_magnitudes_unchanged(self, num, template, rng):
        x = _noise(rng, 800)
        base = metric_stream(x, num, template)
        for eps in (0.25, 1.0, 1.5, -1.9):
            rot = metric_stream(apply_cfo(x, eps, num), num, template)
            assert np.allclose(np.abs(rot[0]), np.abs(base[0]), rtol=1e-9, atol=1e-9)
            assert np.allclose(np.abs(rot[1]), np.abs(base[1]), rtol=1e-9, atol=1e-9)
            assert np.allclose(rot[2], base[2], rtol=1e-9, atol=1e-9)
            assert np.allclose(rot[3], base[3], rtol=1e-9, atol=1e-9)

    def test_scale_equivariance(self, num, template, rng):
        x = _noise(rng, 800)
        alpha = 3.0
        base = metric_stream(x, num, template)
        scaled = metric_stream(alpha * x, num, template)
        for b, s in zip(base, scaled):
            assert np.allclose(s, alpha**2 * b, rtol=1e-9, atol=1e-9)
        assert np.argmax(scaled[3]) == np.argmax(base[3])

    def test_autocorrelation_bounded_by_energy(self, num, template, rng):
        # |ac1(n)|^2 <= ene(n) * ene(n-L), same for ac2 at lag 2L
        x = _noise(rng, 1200)
        ac1, ac2, ene, _ = metric_stream(x, num, template)
        L = num.l_quarter
        for n in range(2 * L, x.size):
            assert abs(ac1[n]) <= np.sqrt(ene[n] * ene[n - L]) + 1e-9
            assert abs(ac2[n]) <= np.sqrt(ene[n] * ene[n - 2 * L]) + 1e-9

    def test_match_identity_on_clean_preamble(self, num, pre, template):
        # at the symbol-1 match index, both lags see identical content
        ac1, ac2, ene, _ = metric_stream(pre, num, template)
        n = num.n_cp + num.n_total - 1
        assert abs(ac1[n]) == pytest.approx(ene[n], rel=1e-9)
        assert abs(ac2[n]) == pytest.approx(ene[n], rel=1e-9)
        assert ene[n] > 0


class TestDetection:
    def test_clean_frame_triggers_inside_symbol1(self, num, pre, template):
        x, n0 = build_frame(num, pre, n_payload_symbols=2, lead_gap=500, seed=2)
        res = synchronize(x, num, template)
        assert res.detected
        assert n0 <= res.trigger_index <= n0 + num.n_cp + 4 * num.l_quarter

    def test_trigger_invariant_to_cfo(self, num, pre, template):
        x, n0 = build_frame(num, pre, n_payload_symbols=2, lead_gap=500, seed=2)
        r0 = synchronize(x, num, template)
        r15 = synchronize(apply_cfo(x, 1.5, num), num, template)
        assert r15.trigger_index == r0.trigger_index

    def test_pure_noise_never_triggers(self, num, template, rng):
        x = _noise(rng, 100_000)
        res = synchronize(x, num, template)
        assert not res.detected

    def test_trigger_set_once_and_equal_to_batch(self, num, pre, template):
        # one sample per push: the trigger appears on the push of its own
        # sample and never changes afterwards
        x, n0 = build_frame(num, pre, n_payload_symbols=0, lead_gap=300, seed=2)
        state = SyncState(num, template)
        fired = []
        for i in range(x.size):
            before = state.result.trigger_index
            state.push(x[i : i + 1])
            if state.result.trigger_index != before:
                fired.append((i, state.result.trigger_index))
        trig = synchronize(x, num, template).trigger_index
        assert fired == [(trig, trig)]
        assert state.finish().trigger_index == trig

    def test_streaming_yields_sto_and_cfo(self, num, pre, template):
        x, n0 = build_frame(num, pre, n_payload_symbols=2, lead_gap=500, seed=3)
        x = apply_cfo(x, 1.5, num)
        state = SyncState(num, template)
        for pushed in range(64, x.size, 64):
            state.push(x[pushed - 64 : pushed])
            if state.done:
                break
        assert state.done and pushed < x.size  # final before the stream ends
        assert state.result.sto_estimate == n0
        assert abs(state.result.cfo_estimate - 1.5) < 1e-6
        assert state.finish() == synchronize(x, num, template)


class TestChunkInvariance:
    """Results do not depend on how a stream is split into chunks."""

    @staticmethod
    def _stream(kind, num, pre, template):
        rng = np.random.default_rng(99)
        if kind == "noise":
            return _noise(rng, 4000)
        # lead gaps shorter and longer than the retained tail
        gap = 50 if kind == "short_gap" else 4 * num.lookback
        x, _ = build_frame(num, pre, n_payload_symbols=2, lead_gap=gap, seed=7)
        x = apply_awgn(apply_cfo(x, -0.7, num), 12.0, _unit_noise(x.size, rng))
        if kind.startswith("cut"):
            trig = synchronize(x, num, template).trigger_index
            # before the timing window opens, resp. halfway through it
            opened = trig + num.sto_search_gap
            x = x[: opened - 5 if kind == "cut_early" else opened + num.delta_search // 2]
        return x

    @pytest.mark.parametrize("kind", ["short_gap", "long_gap", "cut_early", "cut_window", "noise"])
    @pytest.mark.parametrize("chunk", [1, 7, 64, 300, None])
    def test_push_matches_batch(self, kind, chunk, num, pre, template):
        x = self._stream(kind, num, pre, template)
        sizes = [x.size] if chunk is None else [chunk] * -(-x.size // chunk)
        ref = synchronize(x, num, template)
        assert ref.detected == (kind != "noise")
        _assert_same_result(_pushed(x, sizes, num, template), ref)

    @staticmethod
    def _block_stream(kind, num, pre, template):
        """About 3 blocks of noise, or a frame at 12 dB SNR behind a noise
        lead, placed so that the first block boundary falls inside the
        trigger run, the timing window, or between the two CFO readings."""
        rng = np.random.default_rng(5)
        if kind == "noise":
            return _noise(rng, 3 * _BLOCK + 123)
        lead = _noise(rng, _BLOCK, 10 ** -1.2)
        f, _ = build_frame(num, pre, n_payload_symbols=2, lead_gap=0, seed=7)
        f = apply_awgn(apply_cfo(f, -0.7, num), 12.0, _unit_noise(f.size, rng))

        def behind(gap):
            # the lead always ends in the same samples, so the trigger and
            # the estimate keep their offsets from the frame start
            return np.concatenate([lead[lead.size - gap :], f])

        probe = 1000
        ref = synchronize(behind(probe), num, template)
        i2 = ref.sto_estimate + num.anchor
        at = {
            "trigger": ref.trigger_index - num.m_consec // 2,
            "window": ref.trigger_index + num.sto_search_gap + num.delta_search // 2,
            "cfo": i2 - (num.n_cp + num.n_total) // 2,
        }[kind]
        return behind(_BLOCK - (at - probe))

    @pytest.mark.parametrize("kind", ["trigger", "window", "cfo", "noise"])
    def test_block_scan_matches_one_push(self, kind, num, pre, template):
        x = self._block_stream(kind, num, pre, template)
        ref = _pushed(x, [x.size], num, template)  # one push, screened
        if kind == "noise":
            assert x.size > 3 * _BLOCK and not ref.detected
        else:
            trig = ref.trigger_index
            s0 = trig + num.sto_search_gap
            i1, i2 = cfo_match_indices(ref.sto_estimate, num)
            lo, hi = {
                "trigger": (trig - num.m_consec + 1, trig),
                "window": (s0, s0 + num.delta_search - 1),
                "cfo": (i1, i2),
            }[kind]
            assert lo < _BLOCK <= hi  # the second block starts in (lo, hi]
        _assert_same_result(synchronize(x, num, template), ref)
        # metric_stream's blocks against one kernel pass over the whole stream
        got = metric_stream(x, num, template)
        for g, w in zip(got[:3], metric_arrays(x)):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) < 1e-9
        assert np.array_equal(got[3], xcr_window(x, template, 0, x.size))

    @pytest.mark.parametrize("kind", ["trigger", "window", "cfo", "noise"])
    @pytest.mark.parametrize("chunk", [1000, 4096, _BLOCK, "random"])
    def test_push_at_any_split_matches_synchronize(self, kind, chunk, num, pre, template):
        # chunks that cut the trigger run, the timing window or the CFO
        # readings; the random sizes are log-uniform up to ~2.8 blocks, so
        # that some pushes are screened and some are not
        x = self._block_stream(kind, num, pre, template)
        if chunk == "random":
            rng = np.random.default_rng(17)
            sizes = []
            while sum(sizes) < x.size:
                sizes.append(int(2 ** rng.uniform(0, 15.5)))
        else:
            sizes = [chunk] * -(-x.size // chunk)
        _assert_same_result(_pushed(x, sizes, num, template), synchronize(x, num, template))


class TestLongStream:
    """A stream of 2^21 samples: the scan keeps its digits and its working
    memory does not grow with the stream."""

    @pytest.fixture(scope="class")
    def noise(self):
        return _noise(np.random.default_rng(21), 1 << 21)

    @pytest.mark.parametrize("dc", [0.0, 10.0])
    def test_last_index_matches_direct_sums(self, dc, noise, num, template):
        x = noise + dc
        ac1, ac2, ene, xcr = metric_stream(x, num, template)
        snap = metrics_direct(x[-(num.d_template + 2 * num.l_quarter) :], num, template)
        for got, want in ((ac1, snap.ac1), (ac2, snap.ac2), (ene, snap.ene), (xcr, snap.xcr)):
            assert abs(got[-1] - want) <= 1e-12 * abs(want)

    def test_working_memory_bounded(self, noise, num, template):
        # beyond what it returns, a scan holds one block's work at a time
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            for scan in (synchronize, metric_stream):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                out = scan(noise, num, template)
                peak = tracemalloc.get_traced_memory()[1] - before
                kept = sum(a.nbytes for a in out) if scan is metric_stream else 0
                assert peak <= kept + (8 << 20), (
                    f"{scan.__name__}: peak {peak / 2**20:.1f} MiB for a 32 MiB stream "
                    f"and {kept / 2**20:.0f} MiB of output"
                )
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_synchronize_peak_independent_of_length(self, noise, num, template):
        # finiteness is checked block by block: no mask of the whole stream
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            peaks = []
            for n in (1 << 17, noise.size):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                synchronize(noise[:n], num, template)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 64 << 10, [f"{p / 2**20:.2f} MiB" for p in peaks]


class TestScreen:
    """synchronize asks may_trigger about each full block it pushes while
    searching and skips the kernels on those where no trigger can fall; its
    result equals an unscreened scan's (synchronize with may_trigger always
    True), field for field."""

    @staticmethod
    def _unscreened(x, num, template, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(sync_module, "may_trigger", lambda *args: True)
            return synchronize(x, num, template)

    @staticmethod
    def _counting(monkeypatch, name="metric_arrays"):
        """The sizes of sync's calls to one of its globals: the pushes that
        run metric_arrays at full rate (the screen calls it at a stride
        through _kernels, not through sync), or _check_energy."""
        calls = []
        fn = getattr(sync_module, name)

        def counted(r, *args):
            calls.append(r.size)
            return fn(r, *args)

        monkeypatch.setattr(sync_module, name, counted)
        return calls

    @staticmethod
    def _stream(kind, num, pre):
        """A frame at 15 dB whose preamble sits in the third and last full
        block, behind a noise lead that carries a DC offset or a CW tone
        (weak: 0.25 of the noise power, strong: 4 times it), or ENR_DME
        fading and pulses at the given SNR."""
        f, _ = build_frame(num, pre, n_payload_symbols=2, lead_gap=3 * _BLOCK - 1000, seed=3)
        channel, snr = ("ENR_DME", float(kind.split("_")[-1])) if kind.startswith("enr_dme") else ("AWGN", 15.0)
        profile, dme = CHANNEL_MODELS[channel]
        x = run_pipeline(f, ImpairmentConfig(epsilon=0.7, snr_db=snr, profile=profile, dme=dme, seed=9), num)
        level = {"weak": 0.5, "strong": 2.0}.get(kind.split("_")[-1], 0.0) * 10 ** (-snr / 20)
        if kind.startswith("dc"):
            x += level
        elif kind.startswith("cw"):
            x += level * np.exp(2j * np.pi * 0.1234 * np.arange(x.size))
        return x

    @pytest.mark.parametrize(
        "kind",
        ["noise", "dc_weak", "dc_strong", "cw_weak", "cw_strong"]
        + [f"enr_dme_{snr}" for snr in (8, 12, 16, 20, 24)],
    )
    def test_equals_unscreened_scan(self, kind, monkeypatch, num, pre, template):
        x = self._stream(kind, num, pre)
        assert 3 * _BLOCK < x.size < 4 * _BLOCK
        calls = self._counting(monkeypatch)
        res = synchronize(x, num, template)
        ran = len(calls)
        assert res == self._unscreened(x, num, template, monkeypatch)
        assert res.detected
        if kind in ("noise", "dc_weak", "cw_weak"):
            # the lead's blocks are screened out; the frame's block is not
            assert ran == 1 and 2 * _BLOCK < res.trigger_index < 3 * _BLOCK
        elif kind.endswith("strong"):
            assert ran == 1 and res.trigger_index < _BLOCK

    def test_no_kernels_once_the_estimate_is_final(self, monkeypatch, num, pre, template):
        # the estimate is final in block 0 of 4: the screen and the kernels
        # run on block 0 only, and blocks 1-3 are still checked for finiteness
        x, _ = build_frame(num, pre, n_payload_symbols=2, lead_gap=500, seed=3)
        x = np.concatenate([x, np.zeros(4 * _BLOCK - x.size, dtype=complex)])
        calls = self._counting(monkeypatch)
        screened = []
        screen = sync_module.may_trigger

        def counted(r, *args):
            screened.append(r.size)
            return screen(r, *args)

        monkeypatch.setattr(sync_module, "may_trigger", counted)
        checks = self._counting(monkeypatch, "_check_energy")
        assert synchronize(x, num, template).sto_estimate == 500
        assert calls == [_BLOCK] and screened == [_BLOCK]
        # each check reads the kernels' buffer: the block behind the tail,
        # num.lookback samples once the estimate is final
        assert checks == [_BLOCK] + [num.lookback + _BLOCK] * 3
        x[3 * _BLOCK + 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            synchronize(x, num, template)

    def test_no_kernels_after_the_trigger_push(self, monkeypatch, num, pre, template):
        # the trigger fires in block 0 and the estimate completes in block
        # 1: the estimate reads its CFO sums from the buffer, so block 1
        # runs no detection kernel, and the result is one push's
        rng = np.random.default_rng(37)
        f, _ = build_frame(num, pre, n_payload_symbols=2, lead_gap=0, seed=3)
        lead = _noise(rng, _BLOCK - 450, 10**-1.5)
        x = np.concatenate([lead, apply_cfo(f, -0.7, num)])
        calls = self._counting(monkeypatch)
        checks = self._counting(monkeypatch, "_check_energy")
        res = synchronize(x, num, template)
        assert res.trigger_index < _BLOCK <= res.trigger_index + SyncState._horizon
        assert res.sto_estimate == lead.size
        assert calls == [_BLOCK] and len(checks) == 2, (calls, checks)
        assert res == _pushed(x, [x.size], num, template)

    @staticmethod
    def _capture(num, pre):
        """2 Mi samples of noise with a frame 3000 samples before the end."""
        rng = np.random.default_rng(23)
        f, _ = build_frame(num, pre, n_payload_symbols=2, lead_gap=0, seed=4)
        x = _noise(rng, 1 << 21, 10**-1.5)
        n0 = x.size - 3000
        x[n0 : n0 + f.size] += apply_cfo(f, -1.3, num)
        return x, n0

    def test_long_capture_runs_the_kernels_near_its_frame_only(self, monkeypatch, num, pre, template):
        x, n0 = self._capture(num, pre)
        calls = self._counting(monkeypatch)
        res = synchronize(x, num, template)
        assert len(calls) <= 2, len(calls)
        assert res.sto_estimate == n0
        assert res == self._unscreened(x, num, template, monkeypatch)

    def test_a_cleared_block_skips_the_finiteness_check(self, monkeypatch, num, pre, template):
        # the screen's energy proves a block it clears finite: only the
        # pushes that run the full-rate kernels pay for the separate check
        x, n0 = self._capture(num, pre)
        calls = self._counting(monkeypatch)
        checks = self._counting(monkeypatch, "_check_energy")
        res = synchronize(x, num, template)
        assert res.sto_estimate == n0
        assert checks == calls and len(calls) <= 2, (checks, calls)
        checks.clear()
        assert self._unscreened(x, num, template, monkeypatch) == res
        assert len(checks) == x.size // _BLOCK

    def test_work_of_a_scan(self, monkeypatch, num, pre, template):
        # the paper's split, counted over the 2 Mi capture: the screen reads
        # every block, the full-rate detection kernels only the buffers it
        # does not clear, and xcr only the delta_search indices of the one
        # timing window; metric_stream, the comparison, takes xcr at every
        # index
        x, n0 = self._capture(num, pre)
        full = self._counting(monkeypatch)
        passed, cleared = [], []
        screen = sync_module.may_trigger

        def screened(r, *args):
            ok = screen(r, *args)
            (passed if ok else cleared).append(r.size)
            return ok

        spans = []
        window = sync_module.xcr_window

        def timed(r, a, lo, hi):
            spans.append(hi - lo)
            return window(r, a, lo, hi)

        monkeypatch.setattr(sync_module, "may_trigger", screened)
        monkeypatch.setattr(sync_module, "xcr_window", timed)
        assert synchronize(x, num, template).sto_estimate == n0
        assert spans == [num.delta_search]
        assert len(passed) + len(cleared) == x.size // _BLOCK
        assert full == passed and len(passed) <= 2, (full, passed)
        spans.clear()
        metric_stream(x, num, template)
        assert sum(spans) == x.size
        # a campaign frame is one push, never screened: one timing window
        f, _ = build_frame(num, pre, n_payload_symbols=2, lead_gap=500, seed=3)
        spans.clear()
        assert synchronize(f, num, template).sto_estimate == 500
        assert spans == [num.delta_search]

    def test_block_pushes_run_synchronize_kernels(self, monkeypatch, num, pre, template):
        # a receiver pushing the capture in _BLOCK chunks gets synchronize's
        # result, field for field, from the same full-rate kernel calls
        x, n0 = self._capture(num, pre)
        calls = self._counting(monkeypatch)
        res = synchronize(x, num, template)
        ran = calls.copy()
        calls.clear()
        assert _pushed(x, [_BLOCK] * (x.size // _BLOCK), num, template) == res
        assert calls == ran and len(ran) <= 2, (len(calls), len(ran))
        assert res.sto_estimate == n0

    def test_near_threshold_block_takes_the_kernels(self, monkeypatch, num, template):
        # noise, with a period-L tone in block 1 whose amplitude puts the
        # screen's margin within tol of the threshold at one index
        L, m = num.l_quarter, num.m_consec
        x = _noise(np.random.default_rng(31), 3 * _BLOCK)
        state = SyncState(num, template)
        state.push(x[:_BLOCK])
        k = state._tail.size
        buf = x[_BLOCK - k : 2 * _BLOCK]  # block 1's push: [tail | block]
        first = trigger_margins(buf, num.lookback)[0]
        at = first + 300 * m
        seg = slice(at - 4 * L + 1, at + 1)
        tone = np.exp(2j * np.pi * np.arange(4 * L) / L)

        def margins(a):
            y = buf.copy()
            y[seg] += a * tone
            return trigger_margins(y, num.lookback)[1:]

        lo, hi = 0.0, 3.0
        assert np.max(margins(lo)[0]) < 0 < np.max(margins(hi)[0])
        for _ in range(200):  # bisect to a margin of about -tol/2
            mid = (lo + hi) / 2
            margin, tol = margins(mid)
            lo, hi = (lo, mid) if np.max(margin) > -tol / 2 else (mid, hi)
        margin, tol = margins(hi)
        assert -tol < np.max(margin) <= 0 and np.sum(margin > -tol) == 1
        assert may_trigger(buf, num.lookback) is False
        y = x.copy()
        y[_BLOCK - k + seg.start : _BLOCK - k + seg.stop] += hi * tone
        assert may_trigger(y[_BLOCK - k : 2 * _BLOCK], num.lookback)

        calls = self._counting(monkeypatch)
        assert synchronize(x, num, template) == SyncResult(detected=False)
        assert calls == []
        res = synchronize(y, num, template)
        assert calls == [k + _BLOCK]  # block 1 only
        assert res == self._unscreened(y, num, template, monkeypatch)


class TestWindowedTiming:
    """synchronize computes xcr over the timing window only and gets what
    the whole-stream metric arrays give."""

    @staticmethod
    def _frame(channel, eps, lead, num, pre, seed=3):
        f, _ = build_frame(num, pre, n_payload_symbols=2, lead_gap=lead, seed=seed)
        profile, dme = CHANNEL_MODELS[channel]
        cfg = ImpairmentConfig(epsilon=eps, snr_db=15.0, profile=profile, dme=dme, seed=seed)
        return run_pipeline(f, cfg, num)

    @staticmethod
    def _reference(x, num, template):
        """Trigger rule and argmax over [s0, s0 + delta_search), read from
        metric_stream's arrays, and the CFO readings at both symbols from
        metrics_direct, the definition the estimate reads."""
        ac1, ac2, ene, xcr = metric_stream(x, num, template)
        trig = full_rate_trigger((np.abs(ac1) + np.abs(ac2)) > ene, num.m_consec, num.ac_valid_from)
        assert trig >= 0
        s0 = trig + num.sto_search_gap
        n_hat = s0 + int(np.argmax(xcr[s0 : s0 + num.delta_search])) - num.anchor
        i2 = n_hat + num.anchor
        i1 = i2 - num.n_symbol
        s1, s2 = (metrics_direct(x[: i + 1], num, template) for i in (i1, i2))
        return SyncResult(
            detected=True,
            trigger_index=trig,
            sto_estimate=n_hat,
            cfo_estimate=estimate_cfo(s1.ac1, s1.ac2 + s2.ac2),
            cfo_estimate_ac1=float(2.0 * -np.angle(s1.ac1) / np.pi),
            cfo_estimate_ac2=estimate_cfo(s1.ac1, s1.ac2),
        )

    @pytest.mark.parametrize("channel", ["AWGN", "TMA", "ENR_DME"])
    @pytest.mark.parametrize("eps", [0.0, 0.5, -1.2, 1.9])
    @pytest.mark.parametrize("lead", [300, _BLOCK - 700])
    def test_synchronize_equals_metric_stream_reference(self, channel, eps, lead, num, pre, template):
        x = self._frame(channel, eps, lead, num, pre)
        res = synchronize(x, num, template)
        ref = self._reference(x, num, template)
        # the coarse reading is wrapped into (-2, 2], which may move its last bit
        assert res.cfo_estimate_ac1 == pytest.approx(ref.cfo_estimate_ac1, abs=1e-12)
        ref.cfo_estimate_ac1 = res.cfo_estimate_ac1
        assert res == ref

    def test_cfo_reads_direct_sums_behind_a_burst(self, num, pre, template):
        # a noise burst at 60 dB above the frame, its power halving every L
        # samples down to a floor 20 dB below it, so that it never
        # triggers; one push's cumsums carry the burst's running sum into
        # the frame's readings, the direct sums do not
        rng = np.random.default_rng(41)
        L = num.l_quarter
        f, _ = build_frame(num, pre, n_payload_symbols=2, lead_gap=0, seed=7)
        f = apply_awgn(apply_cfo(f, 0.7, num), 15.0, _unit_noise(f.size, rng))
        power = np.concatenate([np.full(2000, 1e6), 1e6 * 2.0 ** (-np.arange(27 * L) / L), np.full(2000, 1e-2)])
        lead = _noise(rng, power.size) * np.sqrt(np.maximum(power, 1e-2))
        x = np.concatenate([lead, f])
        assert x.size < _BLOCK
        res = synchronize(x, num, template)
        assert res.sto_estimate == lead.size
        i1, i2 = cfo_match_indices(res.sto_estimate, num)
        s1, s2 = (metrics_direct(x[: i + 1], num, template) for i in (i1, i2))
        coarse = sync_module._wrap_eps(2.0 * -np.angle(s1.ac1 + 0j) / np.pi)
        assert (res.cfo_estimate, res.cfo_estimate_ac1, res.cfo_estimate_ac2) == (
            estimate_cfo(s1.ac1, s1.ac2 + s2.ac2),
            float(coarse),
            estimate_cfo(s1.ac1, s1.ac2),
        )

    def test_scan_asks_for_one_timing_window(self, monkeypatch, num, pre, template):
        asked = []
        window = sync_module.xcr_window

        def counted(r, a, lo, hi):
            asked.append(hi - lo)
            return window(r, a, lo, hi)

        monkeypatch.setattr(sync_module, "xcr_window", counted)
        f = self._frame("AWGN", 0.5, 40_000, num, pre)
        x = np.concatenate([f, _noise(np.random.default_rng(8), (1 << 16) - f.size, 10 ** -1.5)])
        assert x.size == 1 << 16
        assert synchronize(x, num, template).sto_estimate is not None
        assert asked == [num.delta_search]


class TestCompleteWindow:
    """STO and CFO are estimated once, from the complete timing window."""

    @staticmethod
    def _frame(num, pre):
        return build_frame(num, pre, n_payload_symbols=2, lead_gap=500, seed=3)

    @pytest.mark.parametrize("cut", [500, 550, 590])
    def test_cut_inside_window_keeps_trigger_only(self, cut, num, pre, template):
        x, n0 = self._frame(num, pre)
        x = x[: n0 + cut]
        want = SyncResult(detected=True, trigger_index=697)
        assert synchronize(x, num, template) == want
        assert _pushed(x, _chunk_sizes(np.random.default_rng(cut), x.size), num, template) == want

    def test_cut_past_window_estimates(self, num, pre, template):
        x, n0 = self._frame(num, pre)
        res = synchronize(x[: n0 + 700], num, template)
        assert (res.trigger_index, res.sto_estimate, res.cfo_estimate) == (697, n0, 0.0)

    def test_done_on_last_window_sample(self, num, pre, template):
        x, _ = self._frame(num, pre)
        state = SyncState(num, template)
        for i in range(x.size):
            state.push(x[i : i + 1])
            if state.done:
                break
        trig = state.result.trigger_index
        assert i == trig + num.sto_search_gap + num.delta_search - 1
        assert state.result == synchronize(x, num, template)


def _cfo_reference(ac1_vals, ac2_vals):
    """estimate_cfo as it was when it took sequences of readings, verbatim
    (with the coarse estimate and the wrap inlined): each sequence summed
    by np.sum, then the three-candidate resolution."""
    a1 = complex(np.sum(np.asarray(ac1_vals, dtype=np.complex128)))
    a2 = complex(np.sum(np.asarray(ac2_vals, dtype=np.complex128)))
    if abs(a1) == 0.0 or abs(a2) == 0.0:
        return None
    coarse = 2.0 * -np.angle(a1) / np.pi
    fine = -np.angle(a2) / np.pi
    # candidate order biases ties toward the centre branch
    best = fine
    best_err = abs(fine - coarse)
    for k in (2.0, -2.0):
        err = abs(fine + k - coarse)
        if err < best_err:
            best = fine + k
            best_err = err
    out = (best + 2.0) % 4.0 - 2.0
    if out == -2.0:
        out = 2.0
    return float(out)


class TestCfoReference:
    """estimate_cfo(a1, a2) has the bits of the sequence form on one
    reading each, and on two lag-2L readings summed as SyncState sums them
    (b1 + b2, the symbol-1 reading first) against the np.sum of the
    sequence form.  repr tells -0.0 from 0.0 and round-trips every float,
    so equal reprs are equal bits."""

    @staticmethod
    def _check(a1, b1, b2=None):
        want = _cfo_reference([a1], [b1] if b2 is None else [b1, b2])
        got = estimate_cfo(a1, b1 if b2 is None else b1 + b2)
        assert repr(got) == repr(want), (a1, b1, b2)

    def test_seeded_random_readings(self, rng):
        for scale in (1e-300, 1e-3, 1.0, 1e3, 1e300):
            z = scale * (rng.normal(size=(400, 3)) + 1j * rng.normal(size=(400, 3)))
            for a1, b1, b2 in z:
                self._check(a1, b1)
                self._check(a1, b1, b2)

    def test_criterion_8_branch_angles(self):
        for phi1, phi2 in [
            (0.0, 0.0),
            (np.pi / 4, np.pi / 2),
            (3 * np.pi / 4, -np.pi / 2),
            (-0.6 * np.pi, 0.8 * np.pi),
            (0.95 * np.pi, -0.1 * np.pi),
            (-0.95 * np.pi, 0.1 * np.pi),
            (np.pi / 2, np.pi),
        ]:
            self._check(np.exp(-1j * phi1), np.exp(-1j * phi2))

    def test_near_one_and_two(self, rng):
        # |eps| near 1 puts phi1 on a branch boundary, near 2 the estimate
        # on the wrap
        for centre in (1.0, -1.0, 2.0, -2.0):
            for eps in centre + np.concatenate([[0.0, 1e-15, -1e-15, 1e-9, -1e-9], rng.normal(scale=1e-3, size=50)]):
                a1, b = np.exp(-1j * np.pi * eps / 2.0), np.exp(-1j * np.pi * eps)
                self._check(a1, b)
                self._check(a1, b, b * np.exp(1j * rng.normal(scale=1e-6)))

    def test_signed_zero_parts(self):
        # a sum from zero reads a -0.0 part as +0.0: arg(-1 - 0j) is -pi but
        # arg(-1 + 0j) is pi; b1 + b2 keeps a -0.0 that np.sum drops, and
        # estimate_cfo's + 0j clears it
        parts = (-0.0, 0.0, 1.0, -1.0)
        values = [complex(re, im) for re in parts for im in parts]
        for a1 in values:
            for b1 in values:
                self._check(a1, b1)
                for b2 in values:
                    self._check(a1, b1, b2)


class TestCfoEstimator:
    def test_zero_angles(self):
        assert estimate_cfo(1.0 + 0j, 2.0 + 0j) == 0.0

    def test_centre_branch(self):
        # eps = 0.5: phi1 = pi/4 inside (-pi/2, pi/2), estimate = phi2/pi
        a1 = np.exp(-1j * np.pi / 4)
        a2 = np.exp(-1j * np.pi / 2)
        assert estimate_cfo(a1, a2) == pytest.approx(0.5, abs=1e-12)

    def test_upper_branch(self):
        # eps = 1.5: phi1 = 3pi/4 > pi/2, phi2 wraps to -pi/2, shift +2
        a1 = np.exp(-1j * 3 * np.pi / 4)
        a2 = np.exp(1j * np.pi / 2)
        assert estimate_cfo(a1, a2) == pytest.approx(1.5, abs=1e-12)

    def test_lower_branch(self):
        # eps = -1.2: phi1 = -0.6pi < -pi/2, phi2 wraps to +0.8pi, shift -2
        a1 = np.exp(1j * 0.6 * np.pi)
        a2 = np.exp(-1j * 0.8 * np.pi)
        assert estimate_cfo(a1, a2) == pytest.approx(-1.2, abs=1e-12)

    def test_range_extremes(self):
        for eps in (1.9, -1.9, 1.0, -0.999):
            phi1 = np.pi * eps / 2.0
            phi2 = np.angle(np.exp(1j * np.pi * eps))  # wrapped
            got = estimate_cfo(np.exp(-1j * phi1), np.exp(-1j * phi2))
            assert got == pytest.approx(eps, abs=1e-12)
            assert -2.0 < got <= 2.0

    def test_agrees_with_branch_rule_off_boundary(self):
        # reference: explicit three-branch selection on phi1
        for eps in np.linspace(-1.97, 1.97, 99):
            if abs(abs(eps) - 1.0) < 0.02:
                continue  # phi1 on the branch boundary, rule is fp-fragile there
            phi1 = np.angle(np.exp(1j * np.pi * eps / 2.0))
            phi2 = np.angle(np.exp(1j * np.pi * eps))
            fine = phi2 / np.pi
            if -np.pi / 2 < phi1 < np.pi / 2:
                want = fine
            elif phi1 > np.pi / 2:
                want = fine + 2.0
            else:
                want = fine - 2.0
            if want == -2.0:
                want = 2.0
            got = estimate_cfo(np.exp(-1j * phi1), np.exp(-1j * phi2))
            assert got == pytest.approx(want, abs=1e-12)

    def test_zero_magnitude_is_failure(self):
        assert estimate_cfo(0.0j, 1.0 + 0j) is None
        assert estimate_cfo(1.0 + 0j, 0.0j) is None

    def test_readings_combine_coherently(self):
        # two ac2 readings with the same angle, summed, must not change the
        # estimate
        a1 = np.exp(-1j * np.pi / 4)
        a2 = np.exp(-1j * np.pi / 2)
        one = estimate_cfo(a1, a2)
        two = estimate_cfo(a1, np.sum([a2, 3.0 * a2]))
        assert two == pytest.approx(one, abs=1e-12)


class TestSynchronize:
    def test_clean_loopback_exact(self, num, pre, template):
        x, n0 = build_frame(num, pre, n_payload_symbols=2, lead_gap=500, seed=3)
        res = synchronize(x, num, template)
        assert res.detected
        assert res.sto_estimate == n0
        assert abs(res.cfo_estimate) < 1e-6

    def test_clean_with_large_cfo(self, num, pre, template):
        x, n0 = build_frame(num, pre, n_payload_symbols=2, lead_gap=500, seed=3)
        res = synchronize(apply_cfo(x, 1.5, num), num, template)
        assert res.sto_estimate == n0
        assert abs(res.cfo_estimate - 1.5) < 1e-6

    # preamble seeds whose noiseless xcr has its global maximum before the
    # anchor, outside the timing window; the last three are a tested limit
    @pytest.mark.parametrize(
        "seed",
        [160, 1264, 1362, 1611, 1671, 1691, 2382, 2461, 2515, 3411, 3541]
        + [pytest.param(s, marks=_SPURIOUS_PEAK) for s in (71, 1817, 2502)],
    )
    def test_noiseless_loopback_exact_for_preamble_seed(self, num, seed):
        pre = generate_preamble(num, seed)
        tpl = energy_template(pre, num)
        for gap in (200, 537):
            for n_payload in (0, 2):
                x, n0 = build_frame(num, pre, n_payload, gap, seed=3)
                x = np.concatenate([x, np.zeros(300, complex)])
                for eps in (0.0, 1.5, -1.9):
                    res = synchronize(apply_cfo(x, eps, num), num, tpl)
                    assert res.sto_estimate == n0, (gap, n_payload, eps)
                    assert res.cfo_estimate == pytest.approx(eps, abs=1e-6)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="stream-start slip: the kernel warm-up holds the trigger at "
        "4L - 1 + m_consec - 1 = 270, so the timing window reaches the payload's "
        "lag-2L image at k0 + 128, which beats the anchor (128 samples late)",
    )
    @pytest.mark.parametrize("gap", [0, 10, 22])
    def test_noiseless_frame_at_stream_start_exact(self, gap, num, pre, template):
        x, n0 = build_frame(num, pre, n_payload_symbols=2, lead_gap=gap, seed=0)
        assert synchronize(x, num, template).sto_estimate == n0

    def test_readme_quick_start(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.findall(r"```python\n(.*?)```", readme, re.S)[0]
        exec(block, {})
        detected, sto_exact, _ = capsys.readouterr().out.split()
        assert (detected, sto_exact) == ("True", "True")

    def test_estimate_stays_inside_search_window(self, num, pre, template):
        x, n0 = build_frame(num, pre, n_payload_symbols=2, lead_gap=444, seed=5)
        res = synchronize(x, num, template)
        lo = res.trigger_index + num.sto_search_gap - num.anchor
        assert lo <= res.sto_estimate < lo + num.delta_search

    def test_match_indices_layout(self, num):
        i1, i2 = cfo_match_indices(1000, num)
        span = num.n_cp + num.n_total
        assert i1 == 1000 + span - 1
        assert i2 == 1000 + 2 * span - 1

    def test_no_frame_reports_undetected(self, num, template, rng):
        res = synchronize(_noise(rng, 50_000), num, template)
        assert not res.detected
        assert res.sto_estimate is None
        assert res.cfo_estimate is None


class TestInputContract:
    def test_empty_stream_reports_undetected(self, num, template):
        empty = np.zeros(0, dtype=complex)
        assert synchronize(empty, num, template) == SyncResult(detected=False)
        for arr in metric_stream(empty, num, template):
            assert arr.size == 0

    @pytest.mark.parametrize(
        "bad",
        [
            lambda t: t[:10],
            lambda t: np.concatenate([t, t[:10]]),  # 266 values
            lambda t: t.reshape(16, 16),
            lambda t: np.where(np.arange(t.size) == 100, np.nan, t),
            lambda t: np.where(np.arange(t.size) == 100, -np.inf, t),
            lambda t: t + 1j,
        ],
        ids=["10", "266", "16x16", "nan", "inf", "complex"],
    )
    @pytest.mark.parametrize(
        "make",
        [
            lambda num, t: SyncState(num, t),
            lambda num, t: synchronize(np.zeros(2000, dtype=complex), num, t),
            lambda num, t: metric_stream(np.zeros(2000, dtype=complex), num, t),
        ],
        ids=["SyncState", "synchronize", "metric_stream"],
    )
    def test_bad_template_rejected(self, make, bad, num, template):
        # no cast warns first: a complex template is refused, not truncated
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="template"):
                make(num, bad(template))

    def test_template_converted_once(self, num, template):
        # a list of the same values is the same template, as float64
        state = SyncState(num, template.tolist())
        assert state.template.dtype == np.float64
        assert np.array_equal(state.template, template)

    def test_bad_chunk_rejected_and_state_kept(self, num, pre, template):
        # rejected chunks before the trigger leave no trace in the result
        x, _ = build_frame(num, pre, n_payload_symbols=2, lead_gap=500, seed=3)
        state = SyncState(num, template)
        assert state.push(x[:600]) is None
        kept = state._tail.copy()
        with pytest.raises(ValueError, match=r"1-D.*\(2, 500\)"):
            state.push(x[600:1600].reshape(2, 500))
        with pytest.raises(ValueError, match="non-finite"):
            state.push(np.full(3, np.nan))
        state.push(np.zeros(0, dtype=complex))
        assert state.result == SyncResult(detected=False)
        assert np.array_equal(state._tail, kept) and state._n == 600
        state.push(x[600:])
        _assert_same_result(state.finish(), synchronize(x, num, template))
        assert state.result.sto_estimate == 500

    @pytest.mark.parametrize(
        "bad, match",
        [(np.nan, "non-finite"), (np.inf, "non-finite"), (complex(0.0, -np.inf), "non-finite"), (1e155, "range")],
        ids=["nan", "inf", "-inf_j", "1e155"],
    )
    def test_bad_screened_block_rejected_and_state_kept(self, bad, match, num, pre, template):
        # a noise block the screen clears, but for one non-finite sample, or
        # one beyond the kernels' range, mid-block: the push raises, and the
        # state is as it was before it
        x = TestScreen._stream("noise", num, pre)
        state = SyncState(num, template)
        state.push(x[:_BLOCK])
        n, kept, res = state._n, state._tail.copy(), state.result
        clean = x[_BLOCK : 2 * _BLOCK]
        assert may_trigger(np.concatenate((kept, clean)), num.lookback) is False
        chunk = clean.copy()
        chunk[_BLOCK // 2] = bad
        with pytest.raises(ValueError, match=match):
            state.push(chunk)
        assert state._n == n and np.array_equal(state._tail, kept) and state.result == res
        for i in range(_BLOCK, x.size, _BLOCK):
            state.push(x[i : i + _BLOCK])
        assert state.finish() == synchronize(x, num, template)
        assert state.result.detected

    def test_non_finite_after_the_estimate_rejected(self, num, pre, template):
        # the estimate is final in the first block; the NaN three blocks on
        # must still reject the stream
        x, _ = build_frame(num, pre, n_payload_symbols=2, lead_gap=500, seed=3)
        x = np.concatenate([x, np.zeros(4 * _BLOCK - x.size, dtype=complex)])
        state = SyncState(num, template)
        state.push(x[:_BLOCK])
        assert state.done
        x[3 * _BLOCK + 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            synchronize(x, num, template)

    @pytest.mark.parametrize("fn", [synchronize, metric_stream])
    def test_non_1d_rejected_with_shape(self, fn, num, template):
        with pytest.raises(ValueError, match=r"1-D.*\(2, 2000\)"):
            fn(np.zeros((2, 2000), dtype=complex), num, template)

    @pytest.mark.parametrize("fn", [synchronize, metric_stream])
    @pytest.mark.parametrize(
        "bad, at",
        [
            (np.nan, slice(None)),
            (np.nan, 1234),
            (np.inf, 1234),
            (complex(0.0, -np.inf), 1234),
            (np.nan, _BLOCK + 5),  # a later block
            (np.inf, -1),  # the last sample, in the final partial block
        ],
    )
    def test_non_finite_rejected(self, fn, bad, at, num, template, rng):
        # more than two blocks: each is checked as it is pushed
        x = _noise(rng, 2 * _BLOCK + 2000)
        x[at] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fn(x, num, template)


    @pytest.mark.parametrize("fn", ["synchronize", "metric_stream", "push"])
    @pytest.mark.parametrize("bad", [1e155, (1 + 1j) * 1e154, 1e154], ids=["1e155", "1+1j_1e154", "1e154"])
    @pytest.mark.parametrize("at", [1234, _BLOCK + 5, -1])
    def test_beyond_the_range_rejected(self, fn, bad, at, num, template, rng):
        # a finite sample whose energy takes a buffer past _energy_limit:
        # a ValueError naming the range, and no overflow warning first
        x = _noise(rng, 2 * _BLOCK + 2000)
        x[at] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="range: at most"):
                if fn == "push":
                    _pushed(x, [_BLOCK] * 3, num, template)
                else:
                    getattr(sync_module, fn)(x, num, template)

    def test_inside_the_range_no_overflow(self, num, pre, template, rng):
        # a sample at 1e150 (energy 1e300), and noise under a template
        # scaled by 1e300, stay inside the range: no kernel value overflows
        x = _noise(rng, 2 * _BLOCK + 2000)
        y = x.copy()
        y[_BLOCK + 5] = 1e150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r, tpl in ((y, template), (x, template * 1e300)):
                assert all(np.isfinite(arr).all() for arr in metric_stream(r, num, tpl))
                synchronize(r, num, tpl)

    def test_range_narrows_with_the_template(self, num, template, rng):
        # xcr weighs the stream by the template: a template scaled by 1e306
        # leaves unit-power noise outside the range
        x = _noise(rng, 2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="range: at most"):
                synchronize(x, num, template * 1e306)

    def test_loud_noise_beyond_the_range_is_not_screened_out(self, num, template, rng):
        # noise loud enough that a block's energy lies between the
        # template's limit and the detection kernels' own: the screen could
        # clear it without overflow, but rejects it as every push does
        x = _noise(rng, 3 * _BLOCK, power=2e303)
        assert _energy_limit(template) < _energy(x[:_BLOCK]) < _E_DETECT
        for run in (
            lambda: synchronize(x, num, template),
            lambda: _pushed(x, [_BLOCK] * 3, num, template),
            lambda: metric_stream(x, num, template),
        ):
            with pytest.raises(ValueError, match="range: at most"):
                run()

    def test_range_is_the_buffer_the_kernels_read(self, num, template, rng):
        # two samples, each in range alone, in one buffer: the second block
        # reads the first one's last samples behind it
        x = _noise(rng, 2 * _BLOCK)
        x[_BLOCK - 5] = x[_BLOCK + 5] = 3.5e153
        assert _energy(x[:_BLOCK]) < _energy_limit(template) < _energy(x[_BLOCK - 5 : _BLOCK + 6])
        for fn in (synchronize, metric_stream):
            with pytest.raises(ValueError, match="range: at most"):
                fn(x, num, template)


class TestBaselines:
    def test_matched_filter_agrees_at_zero_cfo(self, num, pre, template):
        x, n0 = build_frame(num, pre, n_payload_symbols=0, lead_gap=400, seed=4)
        x = np.concatenate([x, np.zeros(300, complex)])
        _, _, _, xcr = metric_stream(x, num, template)
        xsig = baseline_xsig(x, pre, num)
        assert np.argmax(xsig) == np.argmax(xcr)
        assert np.argmax(xcr) == n0 + num.anchor

    def test_matched_filter_degrades_under_cfo(self, num, pre, template):
        x, n0 = build_frame(num, pre, n_payload_symbols=0, lead_gap=400, seed=4)
        x = np.concatenate([x, np.zeros(300, complex)])
        rot = apply_cfo(x, 1.5, num)
        peak0 = baseline_xsig(x, pre, num).max()
        peak15 = baseline_xsig(rot, pre, num).max()
        assert peak15 < 0.8 * peak0
        _, _, _, xcr0 = metric_stream(x, num, template)
        _, _, _, xcr15 = metric_stream(rot, num, template)
        assert xcr15.max() == pytest.approx(xcr0.max(), rel=1e-9)

    def test_energy_detector_is_flat_on_plateau(self, num, pre, template):
        x, n0 = build_frame(num, pre, n_payload_symbols=0, lead_gap=400, seed=4)
        x = np.concatenate([x, np.zeros(300, complex)])
        xene = baseline_xene(x, template)
        p = n0 + num.anchor
        L = num.l_quarter
        # dome: a lag-L shift moves the value by far less than for xcr
        _, _, _, xcr = metric_stream(x, num, template)
        xcr_drop = xcr[p - L] / xcr[p]
        xene_drop = xene[p - L] / xene[p]
        assert xene_drop > 0.9
        assert xcr_drop < xene_drop
