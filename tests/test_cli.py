"""Command-line front end: trace dumps, campaigns, bundled sweep."""

import numpy as np
import pytest

from ldacs_sync import read_iq, run_campaign, write_campaign_csv
from ldacs_sync.cli import bundled_scenarios, main


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], lines[1:]


class TestTrace:
    def test_header_and_peak_at_zero(self, tmp_path):
        rc = main(["trace", "--out", str(tmp_path), "--snr", "10"])
        assert rc == 0
        header, rows = _read_csv(tmp_path / "trace.csv")
        assert header == "tau,xcr,xsig,xene"
        taus = [int(r.split(",")[0]) for r in rows]
        xcr = [float(r.split(",")[1]) for r in rows]
        assert taus[0] == -128 and taus[-1] == 128
        assert taus[int(np.argmax(xcr))] == 0
        assert max(xcr) == 1.0  # normalized to own peak

    def test_noiseless_both_correlators_peak_at_zero(self, tmp_path):
        rc = main(["trace", "--out", str(tmp_path), "--snr", "inf"])
        assert rc == 0
        header, rows = _read_csv(tmp_path / "trace.csv")
        taus = [int(r.split(",")[0]) for r in rows]
        xcr = [float(r.split(",")[1]) for r in rows]
        xsig = [float(r.split(",")[2]) for r in rows]
        assert taus[int(np.argmax(xcr))] == 0
        assert taus[int(np.argmax(xsig))] == 0

    def test_optional_dumps(self, tmp_path):
        rc = main(
            [
                "trace",
                "--out",
                str(tmp_path),
                "--snr",
                "inf",
                "--metrics",
                "--write-iq",
            ]
        )
        assert rc == 0
        header, rows = _read_csv(tmp_path / "metrics.csv")
        assert header == "n,ac1,ac2,ene,xcr,xsig,xene"
        iq = read_iq(tmp_path / "rx_iq.fc32")
        assert len(rows) == iq.size

    def test_snr_noiseless_same_bytes_as_inf(self, tmp_path):
        # one SNR grammar: the campaign parser's "noiseless" token works here
        for text in ("inf", "noiseless"):
            argv = ["trace", "--out", str(tmp_path / text), "--snr", text]
            assert main([*argv, "--channel", "TMA", "--metrics", "--write-iq"]) == 0
        for name in ("trace.csv", "metrics.csv", "rx_iq.fc32"):
            got = (tmp_path / "noiseless" / name).read_bytes()
            assert got == (tmp_path / "inf" / name).read_bytes(), name

    @pytest.mark.parametrize("text", ["1,2", "x", ",", "nan", "-inf"])
    def test_bad_snr_fails_before_any_output(self, tmp_path, capsys, text):
        out = tmp_path / "out"
        # --snr=<text>: argparse reads a separate "-inf" as an option
        rc = main(["trace", "--out", str(out), f"--snr={text}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "snr" in captured.err and captured.out == ""
        assert not out.exists()
        # trace has no snr_grid_db: a malformed value or list names the flag
        assert "snr_grid_db" not in captured.err
        assert "--snr" in captured.err

    @pytest.mark.parametrize("flag", ["--seed", "--preamble-seed"])
    def test_negative_seed_named(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        rc = main(["trace", "--out", str(out), flag, "-1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_channel_flag(self, tmp_path):
        rc = main(
            ["trace", "--out", str(tmp_path), "--channel", "ENR", "--epsilon", "0.5"]
        )
        assert rc == 0
        assert (tmp_path / "trace.csv").exists()

    def test_preamble_seed_flag(self, tmp_path):
        rc = main(
            ["trace", "--out", str(tmp_path), "--snr", "inf", "--preamble-seed", "3"]
        )
        assert rc == 0


class TestCampaign:
    def test_from_flags(self, tmp_path):
        rc = main(
            [
                "campaign",
                "--out",
                str(tmp_path),
                "--channel",
                "AWGN",
                "--snr",
                "inf",
                "--trials",
                "3",
            ]
        )
        assert rc == 0
        header, rows = _read_csv(tmp_path / "awgn.csv")
        assert header == "scenario,snr_db,fail_rate,cfo_mse,n_trials,n_detected"
        assert len(rows) == 1
        assert rows[0].split(",")[2] == "0"  # noiseless never fails
        assert (tmp_path / "awgn.json").exists()

    def test_from_scenario_file(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "name = quick\nchannel = AWGN\nepsilon = 1.5\n"
            "snr_grid_db = noiseless\nn_trials = 2\n"
        )
        rc = main(
            ["campaign", "--scenario", str(cfg), "--out", str(tmp_path), "--per-trial"]
        )
        assert rc == 0
        header, rows = _read_csv(tmp_path / "quick.csv")
        assert len(rows) == 1
        theader, trows = _read_csv(tmp_path / "quick_trials.csv")
        assert theader.startswith("seed,snr_db,")
        assert len(trows) == 2

    def test_channel_flag_overrides_scenario_file(self, tmp_path):
        # flags override the file; the name still comes from the file
        cfg = tmp_path / "s.cfg"
        cfg.write_text("name = quick\nchannel = AWGN\n")
        common = ["--snr", "10", "--trials", "2", "--per-trial"]
        file_out, flag_out = tmp_path / "file", tmp_path / "flags"
        argv = ["--scenario", str(cfg), "--channel", "TMA", *common]
        assert main(["campaign", "--out", str(file_out), *argv]) == 0
        assert main(["campaign", "--out", str(flag_out), "--channel", "TMA", *common]) == 0
        assert sorted(p.name for p in file_out.iterdir()) == [
            "quick.csv",
            "quick.json",
            "quick_trials.csv",
        ]
        got = (file_out / "quick_trials.csv").read_bytes()
        assert got == (flag_out / "tma_trials.csv").read_bytes()

    @pytest.mark.parametrize("argv", [["campaign", "--channel", "AWGN"], ["trace"]])
    def test_noiseless_flag_is_unknown(self, tmp_path, capsys, argv):
        # --snr inf is the one way to ask for a noiseless run
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--noiseless", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --noiseless" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_scenario_key_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("name = x\nchannel = AWGN\nepsilonn = 1\n")
        rc = main(["campaign", "--scenario", str(cfg), "--out", str(tmp_path)])
        assert rc != 0
        assert "epsilonn" in capsys.readouterr().err

    def test_bad_channel_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("name = x\nchannel = MARS\n")
        rc = main(["campaign", "--scenario", str(cfg), "--out", str(tmp_path)])
        assert rc != 0
        assert "channel" in capsys.readouterr().err

    def test_needs_scenario_or_channel(self, tmp_path, capsys):
        rc = main(["campaign", "--out", str(tmp_path)])
        assert rc != 0

    @pytest.mark.parametrize(
        "line, field",
        [
            ("name =", "name"),
            ("name = sub/x", "name"),
            ("name = x\nmaster_seed = -1", "master_seed"),
            ("name = x\nepsilon = 2.5", "epsilon"),
            # the phase-noise stage is gone: an old file's key is unknown
            ("name = x\nphase_noise_linewidth_hz = 0", "phase_noise_linewidth_hz"),
        ],
    )
    def test_bad_value_fails_before_any_output(self, tmp_path, capsys, line, field):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"channel = AWGN\n{line}\n")
        out = tmp_path / "out"
        rc = main(["campaign", "--scenario", str(cfg), "--out", str(out)])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["inf,5", "noiseless", "1,x", ",", "nan", "5,-inf"])
    def test_snr_list_same_from_flag_and_file(self, tmp_path, capsys, text):
        # one parser: same grid (same CSV bytes) or same error either way
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"name = awgn\nchannel = AWGN\nsnr_grid_db = {text}\nn_trials = 1\n")
        outs = []
        for argv in (
            ["--channel", "AWGN", "--snr", text, "--trials", "1"],
            ["--scenario", str(cfg)],
        ):
            out = tmp_path / str(len(outs))
            rc = main(["campaign", "--out", str(out), *argv])
            err = capsys.readouterr().err
            csv = (out / "awgn.csv").read_bytes() if rc == 0 else None
            outs.append((rc, err, csv))
        assert outs[0] == outs[1]
        rc, err, csv = outs[0]
        if text in ("1,x", ",", "nan", "5,-inf"):
            assert rc == 2 and "snr_grid_db" in err
        else:
            assert rc == 0 and csv.count(b"\n") == 1 + len(text.split(","))


class TestFlagErrors:
    """campaign and sweep name the flag that set a bad value, like trace."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep", "--trials", "0"], "--trials"),
            (["sweep", "--seed", "-1"], "--seed"),
            (["campaign", "--channel", "AWGN", "--trials", "0"], "--trials"),
            (["campaign", "--channel", "AWGN", "--seed", "-1"], "--seed"),
        ],
    )
    def test_error_names_the_flag(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        rc = main([*argv, "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_flag_over_scenario_file_named(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("name = x\nchannel = AWGN\n")
        rc = main(["campaign", "--scenario", str(cfg), "--trials", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert "--trials" in capsys.readouterr().err


class TestSweep:
    def test_smoke_writes_all_bundles(self, tmp_path):
        rc = main(["sweep", "--out", str(tmp_path), "--trials", "2"])
        assert rc == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == [
            "awgn_eps0.csv",
            "awgn_eps1p5.csv",
            "enr.csv",
            "enr_dme.csv",
            "tma.csv",
        ]
        for p in tmp_path.glob("awgn_*.csv"):
            header, rows = _read_csv(p)
            assert len(rows) == 6  # one per SNR grid point
        for name in ("enr.csv", "enr_dme.csv", "tma.csv"):
            header, rows = _read_csv(tmp_path / name)
            assert len(rows) == 7

    def test_negative_seed_named(self, tmp_path, capsys):
        rc = main(["sweep", "--out", str(tmp_path), "--trials", "1", "--seed", "-1"])
        assert rc == 2
        assert "master_seed" in capsys.readouterr().err

    def test_reruns_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["sweep", "--out", str(a), "--trials", "2", "--seed", "5"]) == 0
        assert main(["sweep", "--out", str(b), "--trials", "2", "--seed", "5"]) == 0
        for pa in sorted(a.glob("*.csv")):
            pb = b / pa.name
            assert pa.read_bytes() == pb.read_bytes()

    def test_each_csv_is_its_campaign_run_alone(self, tmp_path):
        # the sweep draws each trial once for all five scenarios; every
        # CSV must still be the bytes of that scenario's own campaign
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out), "--trials", "2", "--seed", "3"]) == 0
        for scen in bundled_scenarios(2, 3):
            alone = tmp_path / f"{scen.name}_alone.csv"
            write_campaign_csv(alone, run_campaign(scen))
            assert (out / f"{scen.name}.csv").read_bytes() == alone.read_bytes()
