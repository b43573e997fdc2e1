"""Monte Carlo orchestration: trials, campaigns, scenario files, outputs."""

import csv
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ldacs_sync import (
    ImpairmentConfig,
    Scenario,
    build_frame,
    energy_template,
    generate_preamble,
    load_scenario,
    run_campaign,
    run_pipeline,
    run_trial,
    write_campaign_csv,
    write_campaign_json,
    write_trial_csv,
)
from ldacs_sync import harness as harness_module
from ldacs_sync.channel import _entropy_words
from ldacs_sync.harness import (
    CHANNEL_MODELS,
    CHANNELS,
    FINE_THRESHOLD,
    LEAD_GAP_RANGE,
    aggregate,
    link,
    resolve_fine_threshold,
)


def _scenario(**kw):
    base = dict(name="t", channel="AWGN", n_trials=4, snr_grid_db=(10.0,))
    base.update(kw)
    return Scenario(**base)


class TestScenario:
    def test_rejects_unknown_channel(self):
        with pytest.raises(ValueError, match="channel"):
            _scenario(channel="LEO")

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="snr_grid_db"):
            _scenario(snr_grid_db=())

    def test_fields_are_channel_grid_and_draw(self):
        assert [f.name for f in fields(Scenario)] == [
            "name",
            "channel",
            "epsilon",
            "snr_grid_db",
            "n_trials",
            "master_seed",
        ]

    @pytest.mark.parametrize("grid", [(5.0, math.nan), (-math.inf,), "0,-inf", "nan"])
    def test_rejects_nan_or_minus_inf_snr(self, grid):
        with pytest.raises(ValueError, match="snr_grid_db"):
            _scenario(snr_grid_db=grid)

    def test_rejects_out_of_range_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            _scenario(epsilon=2.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_trials", 2.5),
            ("n_trials", True),
            ("n_trials", 0),
            ("master_seed", -1),
            ("master_seed", 1.0),
        ],
    )
    def test_rejects_non_integer_or_negative_value(self, field, value):
        # caught on construction, not by numpy mid-campaign
        with pytest.raises(ValueError, match=field):
            _scenario(**{field: value})

    def test_numpy_integers_accepted(self):
        sc = _scenario(n_trials=np.int32(3), master_seed=np.uint8(0))
        assert sc.n_trials == 3
        assert [s.n_trials for s in run_campaign(sc)] == [3]

    @pytest.mark.parametrize("name", ["", ".", "..", "sub/x", "x/", "/tmp/x"])
    def test_rejects_name_that_is_not_a_plain_file_name(self, name):
        with pytest.raises(ValueError, match="name"):
            _scenario(name=name)

    def test_default_fine_threshold_is_cp_fraction(self, num):
        assert FINE_THRESHOLD == num.n_cp // 11 == 4
        assert resolve_fine_threshold(_scenario(epsilon=1.5), num) == FINE_THRESHOLD


class TestLink:
    def test_one_link_per_preamble_seed(self):
        a = link(1)
        assert all(x is y for x, y in zip(a, link(1)))
        assert link(2)[1] is not a[1]

    @pytest.mark.parametrize("which", ["samples", "a"])
    def test_shared_arrays_are_read_only(self, which):
        _, pre, template = link(1)
        arr = template if which == "a" else pre
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0

    def test_matches_a_fresh_build(self, num):
        _, pre, template = link(3)
        fresh = generate_preamble(num, 3)
        assert np.array_equal(pre, fresh)
        assert np.array_equal(template, energy_template(fresh, num))


class TestRunTrial:
    def test_noiseless_trial_succeeds(self):
        sc = _scenario(epsilon=0.5, snr_grid_db=(math.inf,))
        rec = run_trial([(sc, math.inf)], [1, 0, 0])[0]
        assert rec.detected
        assert not rec.fail
        assert rec.sto_error == 0
        assert abs(rec.cfo_error) < 1e-6

    def test_deterministic_per_seed(self):
        sc = _scenario(epsilon=1.5)
        a = run_trial([(sc, 10.0)], [1, 0, 7])[0]
        b = run_trial([(sc, 10.0)], [1, 0, 7])[0]
        assert a == b
        c = run_trial([(sc, 10.0)], [1, 0, 8])[0]
        assert a.seed != c.seed

    def test_low_snr_failures_register(self):
        sc = _scenario(epsilon=1.5, n_trials=200)
        fails = sum(
            run_trial([(sc, -10.0)], [1, 0, t])[0].fail for t in range(200)
        )
        assert fails / 200 > 0.10

    @pytest.mark.parametrize("snr_db", [-math.inf, math.nan])
    def test_minus_inf_or_nan_snr_rejected(self, snr_db):
        # +inf is the only noiseless value
        with pytest.raises(ValueError, match="snr_db"):
            run_trial([(_scenario(), snr_db)], [1, 0, 0])

    def test_lead_gap_varies_across_trials(self):
        sc = _scenario()
        gaps = {run_trial([(sc, math.inf)], [1, 0, t])[0].true_sto for t in range(8)}
        assert len(gaps) > 1
        lo, hi = LEAD_GAP_RANGE
        assert all(lo <= g <= hi for g in gaps)


class TestDrawTrial:
    """The draw inside run_trial: the frame, the lead gap and the seeds
    come from the entropy alone, and the frame is read-only while the
    pairs share it."""

    def test_same_bytes_for_one_entropy(self):
        pairs = [(_scenario(channel="TMA", epsilon=1.5), 10.0)]
        a = run_trial(pairs, [4, 2, 9])
        assert a == run_trial(pairs, [4, 2, 9])
        assert run_trial(pairs, [4, 2, 10])[0].seed != a[0].seed

    def test_frame_is_read_only(self, monkeypatch):
        # the frame run_trial hands the channel cannot be written
        seen = []

        def pipeline(frame, cfgs, num):
            seen.append(frame)
            return run_pipeline(frame, cfgs, num)

        monkeypatch.setattr(harness_module, "run_pipeline", pipeline)
        run_trial([(_scenario(), 10.0), (_scenario(channel="ENR"), 5.0)], [1, 0, 0])
        (frame,) = seen
        assert frame.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            frame[0] = 0.0

    @pytest.mark.parametrize("epsilon", [0.0, 0.5])
    @pytest.mark.parametrize("snr_db", [10.0, math.inf])
    @pytest.mark.parametrize("channel", CHANNELS)
    def test_pipeline_only_reads_the_frame(self, channel, snr_db, epsilon):
        # scenarios share one read-only frame array: no stage may write into
        # it, and the output is a new array even when no stage runs
        num, pre, _ = link(1)
        frame = build_frame(num, pre, 2, 300, seed=3)[0]
        frame.flags.writeable = False
        before = frame.copy()
        profile, dme = CHANNEL_MODELS[channel]
        cfg = ImpairmentConfig(epsilon=epsilon, snr_db=snr_db, profile=profile, dme=dme, seed=9)
        r = run_pipeline(frame, cfg, num)
        assert r.flags.writeable and not np.shares_memory(r, frame)
        assert np.array_equal(frame, before)

    def test_one_draw_through_two_scenarios(self):
        pairs = [
            (_scenario(channel="AWGN", epsilon=0.0), 10.0),
            (_scenario(channel="TMA", epsilon=1.5), 20.0),
        ]
        a, b = run_trial(pairs, [1, 3, 5])
        assert a.seed == b.seed
        assert a.true_sto == b.true_sto
        # one call over both pairs gives what each pair gives alone
        assert [a, b] == [run_trial([pair], [1, 3, 5])[0] for pair in pairs]
        assert run_trial([], [1, 3, 5]) == []


class TestEntropyWords:
    """run_trial and the channel stages seed through _entropy_words: the
    uint32 words numpy's SeedSequence makes of an int or a list of them,
    so the pool, each spawned child and every state they generate are
    those of SeedSequence(entropy)."""

    @staticmethod
    def _entropies():
        rng = np.random.default_rng(5)
        fixed = [
            0,
            7,
            2**32 - 1,
            2**32,
            2**64 + 5,
            np.int64(9),
            [],
            [0],
            [1, 3, 17],
            [2**32, 0, 2**64 + 5],
            (4, 2**96 + 3),
            [np.int64(7), np.uint32(3), np.uint64(2**63 + 1)],
        ]
        drawn = [
            [
                int(v) >> int(rng.integers(0, 63)) << int(rng.integers(0, 70))
                for v in rng.integers(0, 2**63, size=int(rng.integers(1, 5)))
            ]
            for _ in range(300)
        ]
        return fixed + drawn

    def test_same_pool_children_and_states(self):
        for entropy in self._entropies():
            words = _entropy_words(entropy)
            assert words.dtype == np.uint32, entropy
            a, b = np.random.SeedSequence(entropy), np.random.SeedSequence(words)
            assert np.array_equal(a.pool, b.pool), entropy
            assert np.array_equal(a.generate_state(2, np.uint64), b.generate_state(2, np.uint64))
            for x, y in zip(a.spawn(3), b.spawn(3)):
                assert np.array_equal(x.pool, y.pool), entropy
                assert np.array_equal(x.generate_state(4), y.generate_state(4))

    def test_multi_word_entropy_draws_the_same_trial(self, monkeypatch):
        # run_trial through the words against run_trial through numpy's own
        # parsing of the same entropy
        pairs = [(_scenario(epsilon=1.5), 5.0), (_scenario(channel="TMA"), 10.0)]
        for entropy in ([1, 0, 2**32], [2**64 + 5, 3, 17], 2**40 + 1):
            got = run_trial(pairs, entropy)
            with monkeypatch.context() as m:
                m.setattr(harness_module, "_entropy_words", lambda e: e)
                assert run_trial(pairs, entropy) == got

    @pytest.mark.parametrize("entropy", [-1, [1, -2, 3], [np.int64(-3)]], ids=["int", "list", "np_int"])
    def test_negative_still_raises(self, entropy):
        assert _entropy_words(entropy) is entropy
        with pytest.raises(ValueError):
            run_trial([(_scenario(), 10.0)], entropy)

    @pytest.mark.parametrize("entropy", [1.5, [1.0, 2], "12"], ids=["float", "float_list", "str"])
    def test_other_entropy_left_to_numpy(self, entropy):
        assert _entropy_words(entropy) is entropy
        with pytest.raises(TypeError):
            run_trial([(_scenario(), 10.0)], entropy)

    def test_nested_entropy_left_to_numpy(self):
        # SeedSequence flattens a nested list; the words leave it to do so
        nested = [[1, 2], 3]
        assert _entropy_words(nested) is nested
        pairs = [(_scenario(), 10.0)]
        assert run_trial(pairs, nested) == run_trial(pairs, [1, 2, 3])


class TestCampaignOfSeveral:
    def test_matches_each_campaign_run_alone(self):
        grid = (5.0, 10.0, math.inf)
        scenarios = [
            _scenario(name="a", channel="AWGN", snr_grid_db=grid, n_trials=3, master_seed=4),
            _scenario(name="b", channel="ENR", epsilon=0.5, snr_grid_db=grid, n_trials=3, master_seed=4),
            _scenario(name="c", channel="TMA", epsilon=1.5, snr_grid_db=grid, n_trials=3, master_seed=5),
            _scenario(name="d", channel="ENR_DME", snr_grid_db=(20.0,), n_trials=2, master_seed=4),
        ]
        together = run_campaign(scenarios, return_records=True)
        assert together == [run_campaign(sc, return_records=True) for sc in scenarios]
        # one master seed: the same draws at each grid index and trial
        ra, rb, rc, rd = (records for _, records in together)
        for s in range(len(grid)):
            assert [(r.seed, r.true_sto) for r in ra[s]] == [(r.seed, r.true_sto) for r in rb[s]]
            assert [r.seed for r in ra[s]] != [r.seed for r in rc[s]]
        assert [r.seed for r in rd[0]] == [r.seed for r in ra[0][:2]]

    def test_shared_fading_and_noise_match_each_campaign_alone(self):
        # ENR and ENR_DME at one epsilon share their fading; two AWGN
        # scenarios on one grid share the unit noise, and the inf point
        # takes none of it
        grid = (3.0, math.inf, 12.0)
        scenarios = [
            _scenario(name="enr", channel="ENR", epsilon=0.5, snr_grid_db=grid, n_trials=3, master_seed=6),
            _scenario(name="enr_dme", channel="ENR_DME", epsilon=0.5, snr_grid_db=grid, n_trials=3, master_seed=6),
            _scenario(name="awgn0", channel="AWGN", epsilon=0.0, snr_grid_db=grid, n_trials=3, master_seed=6),
            _scenario(name="awgn15", channel="AWGN", epsilon=1.5, snr_grid_db=grid, n_trials=3, master_seed=6),
        ]
        together = run_campaign(scenarios, return_records=True)
        assert together == [run_campaign(sc, return_records=True) for sc in scenarios]

    def test_same_scenario_twice(self):
        sc = _scenario(n_trials=2, snr_grid_db=(10.0, math.inf))
        assert run_campaign([sc, sc], return_records=True) == [run_campaign(sc, return_records=True)] * 2

    def test_stats_only(self):
        scenarios = [
            _scenario(name="a", channel="AWGN", snr_grid_db=(0.0, 10.0), n_trials=2),
            _scenario(name="b", channel="ENR", epsilon=0.5, snr_grid_db=(0.0, 10.0), n_trials=2),
        ]
        assert run_campaign(tuple(scenarios)) == [run_campaign(sc) for sc in scenarios]

    def test_no_scenarios(self):
        assert run_campaign([]) == []
        assert run_campaign([], return_records=True) == []


class TestAggregation:
    def test_single_trial_stats(self):
        sc = _scenario(n_trials=1, snr_grid_db=(math.inf,), epsilon=0.25)
        stats = run_campaign(sc)
        assert len(stats) == 1
        s = stats[0]
        assert s.n_trials == 1
        assert s.n_detected == 1
        assert s.fail_rate == 0.0
        assert s.cfo_mse < 1e-12

    def test_order_independent(self):
        sc = _scenario(n_trials=6)
        recs = [run_trial([(sc, 10.0)], [1, 0, t])[0] for t in range(6)]
        fwd = aggregate("t", 10.0, recs)
        rev = aggregate("t", 10.0, recs[::-1])
        assert fwd == rev

    def test_campaign_matches_manual_trials(self):
        sc = _scenario(n_trials=5, snr_grid_db=(10.0, 5.0), master_seed=3)
        stats, records = run_campaign(sc, return_records=True)
        for s, snr_db in enumerate(sc.snr_grid_db):
            manual = [run_trial([(sc, snr_db)], [3, s, t])[0] for t in range(5)]
            assert records[s] == manual
            assert stats[s] == aggregate("t", snr_db, manual)

    def test_both_return_shapes_carry_the_same_stats(self):
        sc = _scenario(n_trials=3, snr_grid_db=(0.0, 10.0, math.inf), master_seed=2)
        stats, records = run_campaign(sc, return_records=True)
        assert run_campaign(sc) == stats
        assert sorted(records) == [0, 1, 2]
        assert [len(records[s]) for s in sorted(records)] == [3, 3, 3]

    def test_mse_nan_when_nothing_detected(self):
        rec = run_trial([(_scenario(), -30.0)], [1, 0, 0])[0]
        stats = aggregate("t", -30.0, [rec] * 3)
        if stats.n_detected == 0:
            assert math.isnan(stats.cfo_mse)
        assert stats.fail_rate == (1.0 if rec.fail else 0.0)


class TestScenarioFile:
    def _write(self, tmp_path, text):
        p = tmp_path / "s.cfg"
        p.write_text(text)
        return p

    def test_roundtrip(self, tmp_path):
        p = self._write(
            tmp_path,
            "# demo\n"
            "name = demo\n"
            "channel = ENR\n"
            "epsilon = 0.5\n"
            "snr_grid_db = 0, 5, 10\n"
            "n_trials = 50\n"
            "master_seed = 9\n",
        )
        sc = load_scenario(p)
        assert sc.name == "demo"
        assert sc.channel == "ENR"
        assert sc.epsilon == 0.5
        assert sc.snr_grid_db == (0.0, 5.0, 10.0)
        assert sc.n_trials == 50
        assert sc.master_seed == 9

    def test_noiseless_token(self, tmp_path):
        p = self._write(
            tmp_path, "name = x\nchannel = AWGN\nsnr_grid_db = noiseless\n"
        )
        sc = load_scenario(p)
        assert math.isinf(sc.snr_grid_db[0])

    def test_unknown_key_named(self, tmp_path):
        p = self._write(tmp_path, "name = x\nchannel = AWGN\nepsilonn = 1\n")
        with pytest.raises(ValueError, match="epsilonn"):
            load_scenario(p)

    @pytest.mark.parametrize(
        "line",
        [
            "lead_gap_range = 200,800",
            "fine_threshold = auto",
            "n_payload_symbols = 2",
            "preamble_seed = 1",
            "phase_noise_linewidth_hz = 0",
        ],
    )
    def test_removed_protocol_key_rejected(self, tmp_path, line):
        # the four trial-protocol settings are constants now and the
        # phase-noise stage is gone: an old file's key fails even at its
        # old default
        p = self._write(tmp_path, f"name = x\nchannel = AWGN\n{line}\n")
        key = line.split(" =")[0]
        with pytest.raises(ValueError, match=f"^unknown scenario key: {key}$"):
            load_scenario(p)

    def test_duplicate_key_rejected(self, tmp_path):
        p = self._write(tmp_path, "name = x\nname = y\nchannel = AWGN\n")
        with pytest.raises(ValueError, match="name"):
            load_scenario(p)

    def test_missing_required_key_named(self, tmp_path):
        p = self._write(tmp_path, "name = x\n")
        with pytest.raises(ValueError, match="channel"):
            load_scenario(p)

    def test_readme_example(self, tmp_path):
        # the README's ini block sets name, channel and epsilon; every other
        # value it shows must be the Scenario default
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        sc = load_scenario(self._write(tmp_path, block))
        assert (sc.name, sc.channel, sc.epsilon) == ("quick", "AWGN", 1.5)
        for f in fields(Scenario):
            if f.name not in ("name", "channel", "epsilon"):
                assert getattr(sc, f.name) == f.default, f.name

    def test_malformed_number_named(self, tmp_path):
        p = self._write(tmp_path, "name = x\nchannel = AWGN\nn_trials = many\n")
        with pytest.raises(ValueError, match="n_trials"):
            load_scenario(p)


class TestOutputs:
    @pytest.fixture()
    def stats(self):
        sc = _scenario(n_trials=3, snr_grid_db=(math.inf, 10.0))
        return run_campaign(sc)

    def test_campaign_csv_layout(self, tmp_path, stats):
        p = tmp_path / "out.csv"
        write_campaign_csv(p, stats)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "scenario,snr_db,fail_rate,cfo_mse,n_trials,n_detected"
        assert len(lines) == 1 + len(stats)
        assert lines[1].startswith("t,inf,")

    def test_campaign_json_layout(self, tmp_path, stats):
        p = tmp_path / "out.json"
        write_campaign_json(p, stats)
        data = json.loads(p.read_text())
        assert [d["snr_db"] for d in data] == ["inf", 10.0]
        assert set(data[0]) == {
            "scenario",
            "snr_db",
            "fail_rate",
            "cfo_mse",
            "n_trials",
            "n_detected",
        }

    def test_trial_csv_layout(self, tmp_path):
        sc = _scenario(n_trials=2, snr_grid_db=(10.0,))
        stats, records = run_campaign(sc, return_records=True)
        p = tmp_path / "trials.csv"
        write_trial_csv(p, records[0])
        lines = p.read_text().strip().split("\n")
        assert lines[0] == (
            "seed,snr_db,true_sto,true_epsilon,detected,fail,"
            "sto_est,cfo_est,sto_error,cfo_error,cfo_est_ac1,cfo_est_ac2"
        )
        assert len(lines) == 3


DATA = Path(__file__).parent / "data"


class TestGoldenTrials:
    """Per-trial records pinned across commits.  The files are the
    `<channel>_trials.csv` of `ldacs-sync campaign --channel <channel>
    --epsilon <eps> --snr 0,10,inf --trials 6 --per-trial`."""

    EXACT = ("seed", "true_sto", "detected", "fail", "sto_est", "sto_error")

    @pytest.mark.parametrize(
        "channel, epsilon, filename",
        [
            ("AWGN", 1.5, "awgn_eps1p5_trials.csv"),
            ("ENR_DME", 0.5, "enr_dme_eps0p5_trials.csv"),
            ("TMA", 0.5, "tma_eps0p5_trials.csv"),
        ],
    )
    def test_records_match_recorded_csv(self, tmp_path, channel, epsilon, filename):
        sc = Scenario(
            name=channel.lower(),
            channel=channel,
            epsilon=epsilon,
            snr_grid_db="0,10,inf",
            n_trials=6,
        )
        _, records = run_campaign(sc, return_records=True)
        path = tmp_path / filename
        write_trial_csv(path, [r for s_idx in sorted(records) for r in records[s_idx]])

        def rows(p):
            with open(p, newline="", encoding="utf-8") as fh:
                return list(csv.DictReader(fh))

        got, want = rows(path), rows(DATA / filename)
        assert len(got) == len(want) == 18
        assert list(got[0]) == list(want[0])
        for g, w in zip(got, want):
            for key in w:
                if key in self.EXACT or w[key] in ("", "inf") or g[key] == "":
                    assert g[key] == w[key], key
                else:
                    assert float(g[key]) == pytest.approx(float(w[key]), rel=0, abs=1e-9), key
