"""Metric streaming, detection, and the timing/CFO estimators."""

import re
import tracemalloc
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
    estimate_sto,
    generate_preamble,
    metric_stream,
    metrics_direct,
    run_pipeline,
    synchronize,
)
from ldacs_sync import sync as sync_module
from ldacs_sync._kernels import first_trigger
from ldacs_sync.harness import CHANNEL_MODELS
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


def _push_all(state, x, sizes):
    """Push x in chunks of the given sizes; the concatenated metrics."""
    out = [[], [], [], []]
    i = 0
    for c in sizes:
        for acc, arr in zip(out, state.push(x[i : i + c])):
            acc.append(arr)
        i += c
    return [np.concatenate(acc) for acc in out]


def _assert_same_result(res, ref):
    """Trigger and STO equal; each CFO field within 1e-9, None where ref's is."""
    assert (res.detected, res.trigger_index, res.sto_estimate) == (
        ref.detected,
        ref.trigger_index,
        ref.sto_estimate,
    )
    for field in ("cfo_estimate", "cfo_estimate_ac1", "cfo_estimate_ac2"):
        a, b = getattr(res, field), getattr(ref, field)
        assert (a is None) == (b is None)
        if b is not None:
            assert abs(a - b) < 1e-9


class TestStreamingMetrics:
    def test_constant_input_saturates_to_window_energy(self, num, template):
        state = SyncState(num, template)
        w = 2 * num.l_quarter
        for i in range(600):
            ac1, ac2, ene, _ = state.push([1.0 + 0.0j])
        assert ene[-1] == pytest.approx(w, abs=1e-9)
        assert ac1[-1] == pytest.approx(w, abs=1e-9)
        assert ac2[-1] == pytest.approx(w, abs=1e-9)

    def test_zero_input_all_zero(self, num, template):
        state = SyncState(num, template)
        for i in range(500):
            ac1, ac2, ene, xcr = state.push([0.0j])
            assert ac1[0] == 0.0 and ac2[0] == 0.0
            assert ene[0] == 0.0 and xcr[0] == 0.0

    def test_streaming_equals_batch_equals_direct(self, num, template, rng):
        x = _noise(rng, 900)
        ac1, ac2, ene, xcr = metric_stream(x, num, template)
        state = SyncState(num, template)
        got = _push_all(state, x, _chunk_sizes(np.random.default_rng(3), x.size))
        for g, want in zip(got, (ac1, ac2, ene, xcr)):
            assert g.shape == want.shape
            assert np.max(np.abs(g - want)) < 1e-9
        n = 700
        snap = metrics_direct(x[: n + 1], num, template)
        assert abs(ac1[n] - snap.ac1) < 1e-9
        assert abs(xcr[n] - snap.xcr) < 1e-9


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
        x = apply_awgn(apply_cfo(x, -0.7, num), 12.0, rng)
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
        state = SyncState(num, template)
        sizes = [x.size] if chunk is None else [chunk] * -(-x.size // chunk)
        got = _push_all(state, x, sizes)
        for g, want in zip(got, metric_stream(x, num, template)):
            assert g.shape == want.shape
            assert np.max(np.abs(g - want)) < 1e-9

        ref = synchronize(x, num, template)
        assert ref.detected == (kind != "noise")
        _assert_same_result(state.finish(), ref)

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
        f = apply_awgn(apply_cfo(f, -0.7, num), 12.0, rng)

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
        state = SyncState(num, template)
        want = state.push(x)
        ref = state.finish()
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
        for g, w in zip(metric_stream(x, num, template), want):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) < 1e-9


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
        """Trigger rule, argmax over [s0, s0 + delta_search) and the CFO
        readings at both symbols, all read from metric_stream's arrays."""
        ac1, ac2, ene, xcr = metric_stream(x, num, template)
        trig = first_trigger((np.abs(ac1) + np.abs(ac2)) > ene, num.m_consec, num.ac_valid_from)
        assert trig >= 0
        s0 = trig + num.sto_search_gap
        n_hat = s0 + int(np.argmax(xcr[s0 : s0 + num.delta_search])) - num.anchor
        i2 = n_hat + num.anchor
        i1 = i2 - num.n_symbol
        return SyncResult(
            detected=True,
            trigger_index=trig,
            sto_estimate=n_hat,
            cfo_estimate=estimate_cfo([ac1[i1]], [ac2[i1], ac2[i2]]),
            cfo_estimate_ac1=float(2.0 * -np.angle(ac1[i1]) / np.pi),
            cfo_estimate_ac2=estimate_cfo([ac1[i1]], [ac2[i1]]),
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

    def test_scan_asks_for_one_timing_window(self, monkeypatch, num, pre, template):
        asked = []
        window = sync_module.xcr_window

        def counted(r, l_quarter, a, lo, hi):
            asked.append(hi - lo)
            return window(r, l_quarter, a, lo, hi)

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
        state = SyncState(num, template)
        _push_all(state, x, _chunk_sizes(np.random.default_rng(cut), x.size))
        want = SyncResult(detected=True, trigger_index=697)
        assert synchronize(x, num, template) == want
        assert state.finish() == want

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


class TestStoEstimator:
    def test_exact_peak(self, num):
        xcr = np.array([0.1, 0.4, 2.0, 0.3])
        assert estimate_sto(xcr, 700, num) == 702 - num.anchor

    def test_tie_breaks_earliest(self, num):
        xcr = np.array([1.0, 5.0, 5.0])
        assert estimate_sto(xcr, 10, num) == 11 - num.anchor

    def test_empty_window_rejected(self, num):
        with pytest.raises(ValueError, match="empty"):
            estimate_sto(np.zeros(0), 0, num)


class TestCfoEstimator:
    def test_zero_angles(self):
        assert estimate_cfo([1.0 + 0j], [2.0 + 0j]) == 0.0

    def test_centre_branch(self):
        # eps = 0.5: phi1 = pi/4 inside (-pi/2, pi/2), estimate = phi2/pi
        a1 = np.exp(-1j * np.pi / 4)
        a2 = np.exp(-1j * np.pi / 2)
        assert estimate_cfo([a1], [a2]) == pytest.approx(0.5, abs=1e-12)

    def test_upper_branch(self):
        # eps = 1.5: phi1 = 3pi/4 > pi/2, phi2 wraps to -pi/2, shift +2
        a1 = np.exp(-1j * 3 * np.pi / 4)
        a2 = np.exp(1j * np.pi / 2)
        assert estimate_cfo([a1], [a2]) == pytest.approx(1.5, abs=1e-12)

    def test_lower_branch(self):
        # eps = -1.2: phi1 = -0.6pi < -pi/2, phi2 wraps to +0.8pi, shift -2
        a1 = np.exp(1j * 0.6 * np.pi)
        a2 = np.exp(-1j * 0.8 * np.pi)
        assert estimate_cfo([a1], [a2]) == pytest.approx(-1.2, abs=1e-12)

    def test_range_extremes(self):
        for eps in (1.9, -1.9, 1.0, -0.999):
            phi1 = np.pi * eps / 2.0
            phi2 = np.angle(np.exp(1j * np.pi * eps))  # wrapped
            got = estimate_cfo([np.exp(-1j * phi1)], [np.exp(-1j * phi2)])
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
            got = estimate_cfo([np.exp(-1j * phi1)], [np.exp(-1j * phi2)])
            assert got == pytest.approx(want, abs=1e-12)

    def test_zero_magnitude_is_failure(self):
        assert estimate_cfo([0.0j], [1.0 + 0j]) is None
        assert estimate_cfo([1.0 + 0j], [0.0j]) is None

    def test_readings_combine_coherently(self):
        # two ac2 readings with the same angle must not change the estimate
        a1 = np.exp(-1j * np.pi / 4)
        a2 = np.exp(-1j * np.pi / 2)
        one = estimate_cfo([a1], [a2])
        two = estimate_cfo([a1], [a2, 3.0 * a2])
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

    def test_bad_chunk_rejected_and_state_kept(self, num, template, rng):
        x = _noise(rng, 2000)
        state = SyncState(num, template)
        state.push(x[:1000])
        with pytest.raises(ValueError, match=r"1-D.*\(2, 500\)"):
            state.push(x[1000:].reshape(2, 500))
        with pytest.raises(ValueError, match="non-finite"):
            state.push(np.full(3, np.nan))
        for arr in state.push(np.zeros(0, dtype=complex)):
            assert arr.size == 0
        got = state.push(x[1000:])
        for g, want in zip(got, metric_stream(x, num, template)):
            assert np.max(np.abs(g - want[1000:])) < 1e-9

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
