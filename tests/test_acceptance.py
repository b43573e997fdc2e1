"""Acceptance gate.

Each test measures one shipping criterion at its stated tolerance and prints
a single PASS/FAIL line with the observed numbers (visible without -s).
"""

import math
import statistics
import time

import numpy as np
import pytest

from ldacs_sync import (
    ImpairmentConfig,
    Scenario,
    apply_cfo,
    baseline_xene,
    baseline_xsig,
    build_frame,
    estimate_cfo,
    metric_stream,
    metrics_direct,
    run_campaign,
    run_pipeline,
    run_trial,
    synchronize,
)
from ldacs_sync._kernels import first_trigger
from ldacs_sync.cli import main as cli_main
from ldacs_sync.harness import FINE_THRESHOLD, LEAD_GAP_RANGE, N_PAYLOAD_SYMBOLS
from ldacs_sync.sync import _BLOCK, timing_window


def _report(capsys, ok, label, detail):
    line = f"[{label}] {'PASS' if ok else 'FAIL'}  {detail}"
    with capsys.disabled():
        print(line, flush=True)
    return line


def test_criterion_1_streaming_matches_direct_sums(num, template, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    n = 2 * _BLOCK + 5000  # three blocks
    x = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
    ac1, ac2, ene, xcr = metric_stream(x, num, template)

    # every index within the look-back of the stream start and of each
    # block boundary, where the block views begin, and seeded random ones
    near = [np.arange(b - num.lookback, b + num.lookback) for b in range(_BLOCK, n, _BLOCK)]
    idx = np.unique(np.concatenate([np.arange(num.lookback), *near, rng.integers(0, n, 4000)]))
    pad = num.d_template + 2 * num.l_quarter
    padded = np.concatenate([np.zeros(pad, complex), x])
    worst = 0.0
    for i in idx:
        ref = metrics_direct(padded[: pad + i + 1], num, template)
        for got, want in ((ac1[i], ref.ac1), (ac2[i], ref.ac2), (ene[i], ref.ene), (xcr[i], ref.xcr)):
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.perf_counter() - t0

    ok = worst < 1e-9 and elapsed < 1.0
    line = _report(
        capsys,
        ok,
        "criterion 1",
        f"metric_stream over {n} samples ({-(-n // _BLOCK)} blocks) vs direct sums at "
        f"{idx.size} indices: max rel err {worst:.2e} (tol 1e-9), {elapsed:.2f} s (limit 1 s)",
    )
    assert ok, line


def test_criterion_2_noiseless_grid_exact(num, pre, template, capsys):
    t0 = time.perf_counter()
    grid = (-1.9, -1.5, -1.2, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 1.9)
    frame, n0 = build_frame(num, pre, n_payload_symbols=2, lead_gap=500, seed=21)
    worst_sto = 0
    worst_cfo = 0.0
    for eps in grid:
        res = synchronize(apply_cfo(frame, eps, num), num, template)
        assert res.detected
        worst_sto = max(worst_sto, abs(res.sto_estimate - n0))
        worst_cfo = max(worst_cfo, abs(res.cfo_estimate - eps))
    elapsed = time.perf_counter() - t0

    ok = worst_sto == 0 and worst_cfo < 1e-6 and elapsed < 5.0
    line = _report(
        capsys,
        ok,
        "criterion 2",
        f"noiseless grid of {len(grid)} offsets: max |sto err| {worst_sto}, "
        f"max |cfo err| {worst_cfo:.2e} (tol 1e-6), {elapsed:.2f} s (limit 5 s)",
    )
    assert ok, line


def test_criterion_3_large_cfo_fail_rate_parity(capsys):
    t0 = time.perf_counter()
    rates = {}
    for eps in (0.0, 1.5):
        sc = Scenario(
            name=f"eps{eps}", channel="AWGN", epsilon=eps,
            snr_grid_db=(10.0,), n_trials=1000, master_seed=1,
        )
        rates[eps] = run_campaign(sc)[0].fail_rate
    elapsed = time.perf_counter() - t0

    gap = abs(rates[0.0] - rates[1.5])
    ok = (
        rates[0.0] <= 0.02
        and rates[1.5] <= 0.02
        and gap <= 0.02
        and elapsed < 120.0
    )
    line = _report(
        capsys,
        ok,
        "criterion 3",
        f"AWGN 10 dB, 1000 trials each: fail {rates[0.0]:.3f} (cfo 0) vs "
        f"{rates[1.5]:.3f} (cfo 1.5), gap {gap:.3f} (tol 0.02 each), "
        f"{elapsed:.1f} s (limit 120 s)",
    )
    assert ok, line


def test_criterion_4_cfo_mse_trend_and_lag_comparison(capsys):
    sc = Scenario(
        name="mse", channel="AWGN", epsilon=1.5,
        snr_grid_db=(0.0, 5.0, 10.0), n_trials=1000, master_seed=1,
    )
    stats, records = run_campaign(sc, return_records=True)
    mse = [s.cfo_mse for s in stats]

    # standard error of each mean squared error
    ses = []
    for idx in range(len(stats)):
        sq = np.array(
            [r.cfo_error**2 for r in records[idx] if r.cfo_error is not None]
        )
        ses.append(sq.std(ddof=1) / math.sqrt(sq.size))
    trend_ok = all(
        mse[i + 1] <= mse[i] + ses[i] + ses[i + 1] for i in range(len(mse) - 1)
    )

    # single-reading estimates at 5 dB: long-lag accumulator should win
    recs5 = records[1]
    e1 = np.array([r.cfo_est_ac1 - 1.5 for r in recs5 if r.cfo_est_ac1 is not None])
    e2 = np.array([r.cfo_est_ac2 - 1.5 for r in recs5 if r.cfo_est_ac2 is not None])
    mse1 = float(np.mean(e1**2))
    mse2 = float(np.mean(e2**2))

    ok = trend_ok and mse2 < mse1
    line = _report(
        capsys,
        ok,
        "criterion 4",
        f"AWGN cfo 1.5: mse {mse[0]:.3e} / {mse[1]:.3e} / {mse[2]:.3e} at "
        f"0/5/10 dB (non-increasing within 1 se: {trend_ok}); at 5 dB "
        f"long-lag mse {mse2:.3e} < short-lag {mse1:.3e}: {mse2 < mse1}",
    )
    assert ok, line


def test_criterion_5_secondary_peak_suppression(num, pre, template, capsys):
    rng_master = np.random.default_rng(55)
    L = num.l_quarter
    n_trials = 100
    acc_xcr = np.zeros(3)
    acc_xene = np.zeros(3)
    for k in range(n_trials):
        frame, n0 = build_frame(
            num, pre, n_payload_symbols=2, lead_gap=600, seed=1000 + k
        )
        noise = (
            rng_master.normal(size=frame.size) + 1j * rng_master.normal(size=frame.size)
        ) * np.sqrt(10 ** (-10.0 / 10.0) / 2)
        r = frame + noise
        _, _, _, xcr = metric_stream(r, num, template)
        xene = baseline_xene(r, template)
        p = n0 + num.anchor
        acc_xcr += [xcr[p - L], xcr[p], xcr[p + L]]
        acc_xene += [xene[p - L], xene[p], xene[p + L]]

    r_xcr = (acc_xcr[0] / acc_xcr[1], acc_xcr[2] / acc_xcr[1])
    r_xene = (acc_xene[0] / acc_xene[1], acc_xene[2] / acc_xene[1])
    ok = r_xcr[0] < r_xene[0] and r_xcr[1] < r_xene[1]
    line = _report(
        capsys,
        ok,
        "criterion 5",
        f"10 dB, {n_trials} trials: secondary/main at -L {r_xcr[0]:.3f} vs "
        f"{r_xene[0]:.3f}, at +L {r_xcr[1]:.3f} vs {r_xene[1]:.3f} "
        f"(weighted correlation must be lower than plain energy)",
    )
    assert ok, line


def test_criterion_6_channel_degradation_ordering(capsys):
    t0 = time.perf_counter()
    rates = {}
    for channel in ("AWGN", "ENR", "ENR_DME"):
        sc = Scenario(
            name=channel.lower(), channel=channel, epsilon=0.5,
            snr_grid_db=(10.0,), n_trials=1000, master_seed=1,
        )
        rates[channel] = run_campaign(sc)[0].fail_rate
    sc = Scenario(
        name="tma", channel="TMA", epsilon=0.5,
        snr_grid_db=(22.0,), n_trials=1000, master_seed=1,
    )
    tma22 = run_campaign(sc)[0].fail_rate
    elapsed = time.perf_counter() - t0

    ok = (
        rates["ENR_DME"] > rates["ENR"]
        and rates["ENR"] >= rates["AWGN"] - 0.01
        and tma22 <= 0.02
    )
    line = _report(
        capsys,
        ok,
        "criterion 6",
        f"fail at 10 dB: dme {rates['ENR_DME']:.3f} > enr {rates['ENR']:.3f} "
        f">= awgn {rates['AWGN']:.3f} - 0.01; tma at 22 dB {tma22:.3f} "
        f"(tol 0.02); {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_7_false_alarm_bound(num, template, capsys):
    rng = np.random.default_rng(7)
    n = 1_000_000
    x = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
    ac1, ac2, ene, _ = metric_stream(x, num, template)

    triggers = 0
    start = num.ac_valid_from
    while True:
        trig = first_trigger(ac1, ac2, ene, num.m_consec, start)
        if trig < 0:
            break
        triggers += 1
        start = trig + 1

    ok = triggers <= 1
    line = _report(
        capsys,
        ok,
        "criterion 7",
        f"{n} pure-noise samples: {triggers} trigger(s) (allowed <= 1)",
    )
    assert ok, line


def test_criterion_8_cfo_branch_algebra(capsys):
    cases = [
        (0.0, 0.0, 0.0),                       # both angles zero
        (np.pi / 4, np.pi / 2, 0.5),           # centre branch
        (3 * np.pi / 4, -np.pi / 2, 1.5),      # upper branch, +2 shift
        (-0.6 * np.pi, 0.8 * np.pi, -1.2),     # lower branch, -2 shift
        (0.95 * np.pi, -0.1 * np.pi, 1.9),
        (-0.95 * np.pi, 0.1 * np.pi, -1.9),
        (np.pi / 2, np.pi, 1.0),               # boundary angle
    ]
    worst = 0.0
    for phi1, phi2, want in cases:
        got = estimate_cfo(np.exp(-1j * phi1), np.exp(-1j * phi2))
        worst = max(worst, abs(got - want))

    ok = worst < 1e-12
    line = _report(
        capsys,
        ok,
        "criterion 8",
        f"{len(cases)} synthesized angle pairs: max |err| {worst:.2e} (tol 1e-12)",
    )
    assert ok, line


def test_criterion_9_sweep_determinism(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    rc_a = cli_main(["sweep", "--out", str(a), "--trials", "4", "--seed", "3"])
    rc_b = cli_main(["sweep", "--out", str(b), "--trials", "4", "--seed", "3"])
    files = sorted(p.name for p in a.glob("*.csv"))
    identical = bool(files) and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files
    )

    ok = rc_a == 0 and rc_b == 0 and len(files) == 5 and identical
    line = _report(
        capsys,
        ok,
        "criterion 9",
        f"sweep rerun: {len(files)} csv files, byte-identical: {identical}",
    )
    assert ok, line


def test_criterion_10_timing_survives_large_cfo(num, pre, template, capsys):
    # xcr against the coherent matched filter xsig, both read over the same
    # timing window after the same trigger, on the same received frames
    t0 = time.perf_counter()
    n_trials = 300
    grid = (0.0, 0.5, 1.0, 1.5, 1.9)
    fails = {}
    for s_idx, snr_db in enumerate((5.0, 10.0)):
        for e_idx, eps in enumerate(grid):
            n_xcr = n_xsig = 0
            for t in range(n_trials):
                rng = np.random.default_rng([10, s_idx, e_idx, t])
                gap = int(rng.integers(LEAD_GAP_RANGE[0], LEAD_GAP_RANGE[1] + 1))
                frame, n0 = build_frame(num, pre, N_PAYLOAD_SYMBOLS, gap, seed=rng)
                cfg = ImpairmentConfig(epsilon=eps, snr_db=snr_db, seed=int(rng.integers(2**63)))
                r = run_pipeline(frame, cfg, num)
                res = synchronize(r, num, template)
                if res.sto_estimate is None or abs(res.sto_estimate - n0) > FINE_THRESHOLD:
                    n_xcr += 1
                if res.trigger_index is None:
                    n_xsig += 1
                    continue
                s0, s1 = timing_window(res.trigger_index, num)
                window = baseline_xsig(r, pre, num)[s0:s1]
                if abs(s0 + int(np.argmax(window)) - num.anchor - n0) > FINE_THRESHOLD:
                    n_xsig += 1
            fails[snr_db, eps] = (n_xcr / n_trials, n_xsig / n_trials)
    elapsed = time.perf_counter() - t0

    worst_xcr = max(x for x, _ in fails.values())
    xsig_at_1 = min(fails[snr_db, 1.0][1] for snr_db in (5.0, 10.0))
    ok = worst_xcr <= 0.02 and xsig_at_1 >= 0.9
    table = "; ".join(
        f"{snr_db:g} dB eps {eps:g}: {x:.3f}/{b:.3f}" for (snr_db, eps), (x, b) in fails.items()
    )
    line = _report(
        capsys,
        ok,
        "criterion 10",
        f"AWGN, {n_trials} trials per point, fail xcr/xsig when |err| > "
        f"{FINE_THRESHOLD}: {table}; worst xcr {worst_xcr:.3f} (tol 0.02), "
        f"xsig at eps 1 {xsig_at_1:.3f} (>= 0.9), {elapsed:.1f} s",
    )
    assert ok, line


def _chi2_mean_interval(n, level):
    """Two-sided interval of chi2_n / n at the given level, by the
    Wilson-Hilferty cube-root normal approximation."""
    z = statistics.NormalDist().inv_cdf(0.5 + level / 2.0)
    c = 2.0 / (9.0 * n)
    return tuple((1.0 - c + sign * z * math.sqrt(c)) ** 3 for sign in (-1.0, 1.0))


def test_criterion_11_cfo_variance_meets_first_order_theory(num, capsys):
    # The combined estimate sums two lag-2L readings of 2L products each,
    # N = 2 * 2L = 256; at noise variance s2 per sample (unit-power signal)
    # its first-order variance is (2 s2 + s2^2) / (2 N pi^2), and the
    # symbol-1-only ac2 estimate, with N/2 products, has twice that.
    #
    # The coarse estimate reads ac1, lag L over a 2L window, on the first
    # symbol, whose signal part s has period L there.  With r = s + w, each
    # of the middle L noise samples enters twice, once as conj(w) s and once
    # as conj(s) w, so its first-order term lies in phase with the signal
    # term and adds no phase error.  Only the 2L edge samples add first-order
    # quadrature noise, s2/2 each at unit signal power, and the 2L noise x
    # noise products add s2^2/2 each.  With |ac1| = 2L the phase variance is
    # 2L (s2 + s2^2) / 2 / (2L)^2, and eps1 = 2 phi1 / pi scales it by
    # 4 / pi^2: (s2 + s2^2) / (pi^2 L).  (On this preamble |ac1| and the
    # edge-sample power both equal 2L exactly.)
    #
    # For n unbiased Gaussian errors the mean squared error over its
    # first-order variance is chi2_n / n.
    t0 = time.perf_counter()
    grid = (0.0, 0.5, 1.5, -1.9)
    n_trials = 400
    n_products = 2 * 2 * num.l_quarter
    rows, ok = [], True
    for s_idx, snr_db in enumerate((10.0, 20.0)):
        s2 = 10.0 ** (-snr_db / 10.0)
        var = (2.0 * s2 + s2**2) / (2.0 * n_products * math.pi**2)
        var1 = (s2 + s2**2) / (math.pi**2 * num.l_quarter)
        err, err1, err2 = [], [], []
        for e_idx, eps in enumerate(grid):
            sc = Scenario(name="cfo", channel="AWGN", epsilon=eps, snr_grid_db=(snr_db,))
            for t in range(n_trials):
                rec = run_trial([(sc, snr_db)], [18, e_idx, s_idx, t])[0]
                if rec.cfo_error is not None:
                    err.append(rec.cfo_error)
                if rec.cfo_est_ac1 is not None:
                    err1.append(rec.cfo_est_ac1 - eps)
                if rec.cfo_est_ac2 is not None:
                    err2.append(rec.cfo_est_ac2 - eps)
        lo, hi = _chi2_mean_interval(len(err), 0.999)
        lo2, hi2 = _chi2_mean_interval(len(err2), 0.999)
        lo1, hi1 = _chi2_mean_interval(len(err1), 0.999)
        ratio = float(np.mean(np.square(err))) / var
        ratio2 = float(np.mean(np.square(err2))) / (2.0 * var)
        ratio1 = float(np.mean(np.square(err1))) / var1
        ok = ok and lo <= ratio <= hi and lo2 <= ratio2 <= hi2 and lo1 <= ratio1 <= hi1
        rows.append(
            f"{snr_db:g} dB: combined {ratio:.3f} in [{lo:.3f}, {hi:.3f}] (n {len(err)}), "
            f"ac2/2 {ratio2:.3f} in [{lo2:.3f}, {hi2:.3f}], "
            f"coarse {ratio1:.3f} in [{lo1:.3f}, {hi1:.3f}]"
        )
    elapsed = time.perf_counter() - t0

    line = _report(
        capsys,
        ok,
        "criterion 11",
        f"AWGN, eps {grid} pooled, {n_trials} trials each: mse / first-order "
        f"variance, 99.9% chi-square interval: {'; '.join(rows)}; {elapsed:.1f} s",
    )
    assert ok, line
