"""The benchmark's three closed-loop workloads.

Each workload drives ldacs_sync through its public entry points only, builds
every input from the run's seed, and repeats one operation on the same
inputs; the next operation starts when the previous one returns.

    sweep          cli.main(["sweep", ...]) in-process: all five bundled
                   scenarios at SWEEP_TRIALS trials per SNR point.  The
                   headline number; dominated by sum-of-sinusoids fading
                   and the only workload that runs cli and DME.
    campaign_awgn  harness.run_campaign on AWGN, eps = 1.5, SNR -10..15 dB,
                   CAMPAIGN_TRIALS trials per point, then the campaign CSV.
                   No fading: fixed per-trial cost on ~2 k-sample frames.
    stream_scan    sync.synchronize over one long noisy capture with CFO
                   holding a single frame near its end.  Same sync and
                   kernel layers as campaign_awgn, on few long arrays;
                   the frame at the end means an early-exit scan still
                   does all the work.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from tracing import LAYER_NAMES

AWGN_GRID_DB = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0)
SWEEP_TRIALS = 6
CAMPAIGN_TRIALS = 20
CAPTURE_SAMPLES = 1 << 21  # 32 MiB of complex128 per capture
N_CAPTURES = 3
SCAN_SNR_DB = 15.0
SCAN_MAX_EPS = 1.5
N_PAYLOAD = 2  # the Scenario default
PREAMBLE_SEED = 1  # the Scenario default

# Reference runs: fixed seed and sizes, independent of --seed and --quick.
REF_SEED = 1
REF_SWEEP_TRIALS = 4
REF_CAMPAIGN_TRIALS = 50
REF_CAPTURE_SAMPLES = 1 << 18
KERNEL_CHECK_POINTS = 64


class Workload:
    """Set-up, one operation, and the checks on its outputs."""

    name = ""
    probe = "cpu"  # probes.PROBES key matching where the operation spends its time
    expected_layers: frozenset = frozenset()

    def __init__(self, ls, work_dir: Path, seed: int, quick: bool):
        self.ls = ls
        self.work_dir = work_dir
        self.seed = seed
        self.quick = quick
        self.trials_per_op = 0
        self.samples_per_op = 0

    def setup(self) -> None:
        """Numerology, preamble and energy template (what any caller builds)."""
        ls = self.ls
        self.num = ls.make_numerology()
        self.pre = ls.generate_preamble(self.num, PREAMBLE_SEED)
        self.template = ls.energy_template(self.pre, self.num)

    def op(self):
        raise NotImplementedError

    def check_op(self, out) -> list[str]:
        """Failures of one operation's outputs; empty when correct."""
        raise NotImplementedError

    def prepare(self) -> list[str]:
        """After the warm-up operation: replay it with trial records, check
        the replay against the operation's output, and count its work."""
        raise NotImplementedError

    def quality(self) -> tuple[float, float]:
        """(fail_rate, cfo_mse) of the operation's outputs."""
        raise NotImplementedError

    def reference_points(self) -> list[dict]:
        """Per-point trial rows at the reference seed and sizes."""
        raise NotImplementedError

    def extra_checks(self) -> list[str]:
        return []

    def environment(self) -> dict:
        return {}

    def frame_samples(self, records) -> int:
        """Samples of the frames behind the records (lead gap + fixed frame)."""
        body = self.ls.build_frame(self.num, self.pre, N_PAYLOAD, 0, seed=0)[0].size
        return sum(r.true_sto + body for r in records)


def _campaign_points(ls, scenarios) -> list[dict]:
    """Per-point trial rows of campaigns run with trial records."""
    points = []
    for scen in scenarios:
        _, records = ls.harness.run_campaign(scen, return_records=True)
        for s_idx, snr in enumerate(scen.snr_grid_db):
            points.append(
                {
                    "scenario": scen.name,
                    "snr_db": float(snr),
                    "trials": checks.trial_rows(records[s_idx]),
                }
            )
    return points


# ---------------------------------------------------------------------------


class Sweep(Workload):
    name = "sweep"
    expected_layers = frozenset(LAYER_NAMES)

    def __init__(self, ls, work_dir, seed, quick):
        super().__init__(ls, work_dir, seed, quick)
        self.trials = 1 if quick else SWEEP_TRIALS
        self.out = work_dir / "sweep"
        self.first: dict | None = None

    def op(self):
        argv = ["sweep", "--out", str(self.out), "--trials", str(self.trials), "--seed", str(self.seed)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.ls.cli.main(argv)
        return code, buf.getvalue()

    def _csvs(self) -> dict:
        return {
            s.name: (self.out / f"{s.name}.csv").read_bytes()
            for s in self.ls.cli.bundled_scenarios(self.trials, self.seed)
        }

    def check_op(self, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"sweep exited with {code}"]
        got = {"stdout": text, **self._csvs()}
        if self.first is None:
            self.first = got
            return []
        return [f"same-seed rerun changed {k}" for k in got if got[k] != self.first[k]]

    def prepare(self) -> list[str]:
        scenarios = self.ls.cli.bundled_scenarios(self.trials, self.seed)
        replay = self.work_dir / "replay"
        replay.mkdir()
        errors = []
        records = []
        for scen in scenarios:
            stats, recs = self.ls.harness.run_campaign(scen, return_records=True)
            path = replay / f"{scen.name}.csv"
            self.ls.harness.write_campaign_csv(path, stats)
            if path.read_bytes() != self.first[scen.name]:
                errors.append(f"cli sweep CSV for {scen.name} differs from harness.run_campaign")
            records.extend(r for s_idx in sorted(recs) for r in recs[s_idx])
        self.trials_per_op = len(records)
        self.samples_per_op = self.frame_samples(records)
        return errors

    def quality(self):
        rows = []
        for s in self.ls.cli.bundled_scenarios(self.trials, self.seed):
            rows += checks.read_campaign_csv(self.out / f"{s.name}.csv")
        return checks.pooled_quality(rows)

    def reference_points(self):
        return _campaign_points(self.ls, self.ls.cli.bundled_scenarios(REF_SWEEP_TRIALS, REF_SEED))


class CampaignAwgn(Workload):
    name = "campaign_awgn"
    expected_layers = frozenset(
        {
            "harness.run_campaign",
            "harness.run_trial",
            "harness.write_campaign_csv",
            "sigmodel.build_frame",
            "channel.run_pipeline",
            "channel.apply_cfo",
            "channel.apply_awgn",
            "sync.synchronize",
            "kernels.metric_arrays",
            "kernels.first_trigger",
        }
    )

    def __init__(self, ls, work_dir, seed, quick):
        super().__init__(ls, work_dir, seed, quick)
        self.scenario = self.make_scenario(2 if quick else CAMPAIGN_TRIALS, seed)
        self.csv = work_dir / "campaign_awgn.csv"
        self.first: bytes | None = None

    def make_scenario(self, n_trials: int, seed: int):
        return self.ls.Scenario(
            name="campaign_awgn",
            channel="AWGN",
            epsilon=1.5,
            snr_grid_db=AWGN_GRID_DB,
            n_trials=n_trials,
            master_seed=seed,
        )

    def op(self):
        harness = self.ls.harness
        stats = harness.run_campaign(self.scenario)
        harness.write_campaign_csv(self.csv, stats)
        return stats

    def check_op(self, out) -> list[str]:
        got = self.csv.read_bytes()
        if self.first is None:
            self.first = got
            return []
        return [] if got == self.first else ["same-seed rerun changed the campaign CSV"]

    def prepare(self) -> list[str]:
        harness = self.ls.harness
        stats, recs = harness.run_campaign(self.scenario, return_records=True)
        path = self.work_dir / "replay.csv"
        harness.write_campaign_csv(path, stats)
        records = [r for s_idx in sorted(recs) for r in recs[s_idx]]
        self.trials_per_op = len(records)
        self.samples_per_op = self.frame_samples(records)
        if path.read_bytes() != self.first:
            return ["campaign replay with trial records changed the CSV"]
        return []

    def quality(self):
        return checks.pooled_quality(checks.read_campaign_csv(self.csv))

    def reference_points(self):
        return _campaign_points(self.ls, [self.make_scenario(REF_CAMPAIGN_TRIALS, REF_SEED)])


@dataclass
class Capture:
    samples: np.ndarray
    n0: int  # true frame start
    epsilon: float


class StreamScan(Workload):
    name = "stream_scan"
    probe = "mem"
    expected_layers = frozenset(
        {"sync.synchronize", "kernels.metric_arrays", "kernels.first_trigger"}
    )

    def __init__(self, ls, work_dir, seed, quick):
        super().__init__(ls, work_dir, seed, quick)
        self.n_samples = (1 << 16) if quick else CAPTURE_SAMPLES
        self.k = 0
        self.first: dict[int, tuple] = {}
        self.sq_errors: list[float] = []
        self.n_scans = 0
        self.n_fail = 0

    def setup(self) -> None:
        super().setup()
        self.threshold = self.ls.harness.resolve_fine_threshold(
            self.ls.Scenario(name=self.name, channel="AWGN"), self.num
        )
        self.captures = None  # release the previous set before building the next
        self.captures = [self.make_capture(self.seed, c, self.n_samples) for c in range(N_CAPTURES)]
        self.trials_per_op = 1
        self.samples_per_op = self.n_samples

    def make_capture(self, seed: int, index: int, n_samples: int) -> Capture:
        """Noise with CFO over n_samples; one frame whose end sits a random
        64..4095 samples before the end of the capture."""
        ls = self.ls
        rng = np.random.default_rng([seed, index])
        eps = float(rng.uniform(-SCAN_MAX_EPS, SCAN_MAX_EPS))
        tail = int(rng.integers(64, 4096))
        payload_seed, channel_seed = (int(v) for v in rng.integers(0, 2**63, 2))
        body = ls.build_frame(self.num, self.pre, N_PAYLOAD, 0, seed=0)[0].size
        frame, n0 = ls.build_frame(self.num, self.pre, N_PAYLOAD, n_samples - tail - body, seed=payload_seed)
        x = np.concatenate([frame, np.zeros(tail, dtype=np.complex128)])
        cfg = ls.ImpairmentConfig(epsilon=eps, snr_db=SCAN_SNR_DB, seed=channel_seed)
        return Capture(ls.run_pipeline(x, cfg, self.num), n0, eps)

    def op(self):
        c = self.k % N_CAPTURES
        self.k += 1
        return c, self.ls.sync.synchronize(self.captures[c].samples, self.num, self.template)

    def _row(self, cap: Capture, res) -> list:
        sto_err = None if res.sto_estimate is None else res.sto_estimate - cap.n0
        cfo_err = None if res.cfo_estimate is None else res.cfo_estimate - cap.epsilon
        fail = sto_err is None or abs(sto_err) > self.threshold
        return [cap.n0, res.detected, fail, sto_err, cfo_err]

    def check_op(self, out) -> list[str]:
        c, res = out
        row = self._row(self.captures[c], res)
        self.n_scans += 1
        errors = []
        if row[2]:
            self.n_fail += 1
            errors.append(f"capture {c}: detected={row[1]} sto_error={row[3]} (limit {self.threshold})")
        if row[4] is not None:
            self.sq_errors.append(row[4] ** 2)
        key = (res.trigger_index, res.sto_estimate, res.cfo_estimate)
        if self.first.setdefault(c, key) != key:
            errors.append(f"capture {c}: rescan changed the result")
        return errors

    def prepare(self) -> list[str]:
        return []

    def quality(self):
        mse = float(np.mean(self.sq_errors)) if self.sq_errors else float("nan")
        return self.n_fail / max(1, self.n_scans), mse

    def reference_points(self):
        rows = []
        for c in range(N_CAPTURES):
            cap = self.make_capture(REF_SEED, c, REF_CAPTURE_SAMPLES)
            rows.append(self._row(cap, self.ls.sync.synchronize(cap.samples, self.num, self.template)))
        return [{"scenario": self.name, "snr_db": SCAN_SNR_DB, "trials": rows}]

    def extra_checks(self) -> list[str]:
        rng = np.random.default_rng([self.seed, N_CAPTURES])
        return checks.kernel_vs_direct(
            self.ls, self.captures[0].samples, self.num, self.template, rng, KERNEL_CHECK_POINTS
        )

    def environment(self) -> dict:
        nbytes = self.captures[0].samples.nbytes
        return {
            "capture_samples": self.n_samples,
            "capture_bytes": nbytes,
            "captures": N_CAPTURES,
            "scan_snr_db": SCAN_SNR_DB,
        }


WORKLOADS = {w.name: w for w in (Sweep, CampaignAwgn, StreamScan)}
