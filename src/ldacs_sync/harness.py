"""Monte Carlo trials and campaigns over the synchronizer.

A trial synthesizes one frame (random lead gap, preamble, payload), runs it
through the impairment pipeline for the scenario's channel, synchronizes,
and scores:

    fail       = not detected, or |sto_error| > FINE_THRESHOLD
    sto_error  = sto_estimate - true frame start (detected trials)
    cfo_error  = cfo_estimate - true epsilon     (plain difference)

Seeding is hierarchical and parallel-safe: trial t of SNR point s uses
SeedSequence([master_seed, s, t]), so every trial is reproducible in
isolation and campaign statistics are independent of evaluation order.
run_trial parses that entropy once, into the uint32 words SeedSequence
makes of it (channel._entropy_words); the SeedSequence of the words and
the three children it spawns (lead gap, payload, channel) copy them where
they would parse the list again, and their pool, children and states are
those of SeedSequence([master_seed, s, t]).

run_trial(pairs, rng_seed) draws one frame from the entropy rng_seed and
sends it through the channel of each (scenario, snr_db) pair in one
run_pipeline call, then synchronizes and scores each output.  The lead
gap, the payload, the record's seed and the channel seed depend on the
entropy alone, never on the scenario.  run_campaign over a list of scenarios makes one run_trial
call per (master_seed, s, t) over every scenario that has it, so
scenarios with one master seed see the same frames and channel seeds, and
their per-point differences are paired (common random numbers).  Within
that call they also share the fading of one channel and CFO, and the
draw's unit noise, scaled to each SNR.  The sweep's five campaigns share
their draws this way; the bytes are those of running each campaign alone,
one pair per call.

The frame (lead gap, payload, preamble seed) and the fail threshold are
the fixed trial protocol below; a Scenario sets only the channel, the CFO,
the SNR grid and the draw.  link() builds the link (numerology, preamble,
energy template) once per preamble seed and every trial shares it.

CFO MSE aggregates the squared cfo_error over detected trials that produced
an estimate.  An infinite SNR entry in the grid means noiseless.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .channel import (
    ImpairmentConfig,
    _entropy_words,
    make_dme_scenario,
    make_enr_profile,
    make_tma_profile,
    run_pipeline,
)
from .sigmodel import (
    Numerology,
    build_frame,
    energy_template,
    generate_preamble,
    make_numerology,
)
from .sync import synchronize

# channel name -> (multipath profile or None, DME interferers or ())
CHANNEL_MODELS = {
    "AWGN": (None, ()),
    "ENR": (make_enr_profile(), ()),
    "ENR_DME": (make_enr_profile(), make_dme_scenario()),
    "TMA": (make_tma_profile(), ()),
}
CHANNELS = tuple(CHANNEL_MODELS)


def impairments(channel: str, epsilon: float, snr_db: float, seed) -> ImpairmentConfig:
    """The ImpairmentConfig of a bundled channel at one CFO and SNR."""
    profile, dme = CHANNEL_MODELS[channel]
    return ImpairmentConfig(
        epsilon=epsilon, snr_db=float(snr_db), profile=profile, dme=dme, seed=seed
    )


# the trial protocol
LEAD_GAP_RANGE = (200, 800)  # frame start, drawn uniformly per trial (inclusive)
N_PAYLOAD_SYMBOLS = 2  # data symbols after the preamble
FINE_THRESHOLD = Numerology.n_cp // 11  # = 4: |sto_error| above this fails
PREAMBLE_SEED = 1  # the training sequence every trial sends


def _parse_snr_list(text: str) -> tuple:
    """Comma-separated dB values; "inf" or "noiseless" is a noise-free point."""
    try:
        return tuple(
            float("inf") if tok.lower() in ("inf", "noiseless") else float(tok)
            for tok in (t.strip() for t in text.split(","))
            if tok
        )
    except ValueError:
        raise ValueError(f"malformed number list for snr_grid_db: {text!r}") from None


def _snr_ok(snr_db: float) -> bool:
    """An SNR in dB is finite, or +inf (noiseless); NaN and -inf are not."""
    return math.isfinite(snr_db) or snr_db == math.inf


def _check_int(name: str, value, minimum: int) -> None:
    """Raise ValueError naming the field unless value is an integer >= minimum."""
    # bool is an Integral but never a count, seed or length
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


@dataclass
class Scenario:
    """One campaign.  snr_grid_db also accepts the comma-separated text of
    scenario files and `campaign --snr`, parsed on construction."""

    name: str
    channel: str
    epsilon: float = 0.0
    snr_grid_db: tuple = (0.0, 5.0, 10.0)
    n_trials: int = 1000
    master_seed: int = 1

    def __post_init__(self):
        # the name becomes the output file stem: <out>/<name>.csv
        if self.name in ("", ".", "..") or os.path.basename(self.name) != self.name:
            raise ValueError(f"name must be a non-empty plain file name, got {self.name!r}")
        if self.channel not in CHANNEL_MODELS:
            raise ValueError(f"channel must be one of {CHANNELS}, got {self.channel!r}")
        if isinstance(self.snr_grid_db, str):
            self.snr_grid_db = _parse_snr_list(self.snr_grid_db)
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must not be empty")
        if not all(map(_snr_ok, self.snr_grid_db)):
            raise ValueError(
                f"snr_grid_db entries must be finite or inf (noiseless), got {self.snr_grid_db}"
            )
        _check_int("n_trials", self.n_trials, 1)
        _check_int("master_seed", self.master_seed, 0)
        if not -2.0 < self.epsilon <= 2.0:
            raise ValueError("epsilon must lie in (-2, 2]")


@dataclass
class TrialRecord:
    seed: int
    snr_db: float
    true_sto: int
    true_epsilon: float
    detected: bool
    fail: bool
    sto_est: Optional[int] = None
    cfo_est: Optional[float] = None
    sto_error: Optional[int] = None
    cfo_error: Optional[float] = None
    cfo_est_ac1: Optional[float] = None
    cfo_est_ac2: Optional[float] = None


@dataclass
class CampaignStats:
    scenario: str
    snr_db: float
    fail_rate: float
    cfo_mse: float  # nan when no trial yielded an estimate
    n_trials: int
    n_detected: int


def resolve_fine_threshold(scenario: Scenario, num: Numerology) -> int:
    """FINE_THRESHOLD, whatever the scenario (perfbench/workloads.py calls it)."""
    return FINE_THRESHOLD


@functools.lru_cache(maxsize=None)
def link(preamble_seed: int) -> tuple[Numerology, np.ndarray, np.ndarray]:
    """(num, pre, template) for a preamble seed, built on first use.

    Every caller shares the result, so its arrays are read-only.
    """
    num = make_numerology()
    pre = generate_preamble(num, preamble_seed)
    template = energy_template(pre, num)
    pre.flags.writeable = False
    template.flags.writeable = False
    return num, pre, template


def run_trial(pairs, rng_seed) -> list[TrialRecord]:
    """One frame, drawn from rng_seed, through the channel of each
    (scenario, snr_db) pair and the synchronizer: one TrialRecord per
    pair, in order.

    rng_seed is any SeedSequence entropy (int or sequence of ints), which
    SeedSequence receives as its uint32 words when it is an int or a list
    or tuple of non-negative ints, and as given otherwise.  The frame, sent
    from link(PREAMBLE_SEED), is read-only while the pairs share it.  All
    pairs go through one run_pipeline call, so pairs that share a channel
    and CFO share its fading, and every pair shares the draw's unit noise.
    """
    num, pre, template = link(PREAMBLE_SEED)
    ss = np.random.SeedSequence(_entropy_words(rng_seed))
    child_trial, child_payload, child_channel = ss.spawn(3)
    seed_id = int(ss.generate_state(1, np.uint64)[0])
    channel_seed = int(child_channel.generate_state(1, np.uint64)[0])
    lo, hi = LEAD_GAP_RANGE
    lead_gap = int(np.random.default_rng(child_trial).integers(lo, hi + 1))
    frame, n0 = build_frame(num, pre, N_PAYLOAD_SYMBOLS, lead_gap, seed=child_payload)
    frame.flags.writeable = False
    pairs = list(pairs)
    cfgs = [impairments(sc.channel, sc.epsilon, snr_db, channel_seed) for sc, snr_db in pairs]
    records = []
    for (scenario, snr_db), r in zip(pairs, run_pipeline(frame, cfgs, num)):
        res = synchronize(r, num, template)
        # an STO implies a detection; CFO fields are None without one
        sto, cfo = res.sto_estimate, res.cfo_estimate
        sto_error = None if sto is None else sto - n0
        records.append(
            TrialRecord(
                seed=seed_id,
                snr_db=float(snr_db),
                true_sto=n0,
                true_epsilon=scenario.epsilon,
                detected=res.detected,
                fail=sto_error is None or abs(sto_error) > FINE_THRESHOLD,
                sto_est=sto,
                cfo_est=cfo,
                sto_error=sto_error,
                cfo_error=None if cfo is None else cfo - scenario.epsilon,
                cfo_est_ac1=res.cfo_estimate_ac1,
                cfo_est_ac2=res.cfo_estimate_ac2,
            )
        )
    return records


def aggregate(scenario_name: str, snr_db: float, records: Sequence[TrialRecord]) -> CampaignStats:
    """Order-independent reduction of trial records."""
    n = len(records)
    n_detected = sum(1 for r in records if r.detected)
    n_fail = sum(1 for r in records if r.fail)
    sq = [r.cfo_error**2 for r in records if r.cfo_error is not None]
    mse = float(np.mean(sq)) if sq else float("nan")
    return CampaignStats(
        scenario=scenario_name,
        snr_db=float(snr_db),
        fail_rate=n_fail / n,
        cfo_mse=mse,
        n_trials=n,
        n_detected=n_detected,
    )


def run_campaign(scenario, return_records: bool = False):
    """Run the scenario's full SNR grid: the list of CampaignStats, one per
    grid point; with return_records=True, (stats, records), where records
    maps snr index -> list of TrialRecord.

    scenario may also be a sequence of scenarios, run in one pass: the
    result is then a list with one such value per scenario, in order.
    Trial t of grid point s is run_trial over every scenario with that
    master seed, grid point and trial, with entropy [master_seed, s, t],
    so it is drawn once and such scenarios run the same frames and channel
    seeds.  The loop is grid-point-major and holds one frame at a time; a
    point's records are aggregated when its trials are done and kept only
    with return_records=True.
    """
    one = isinstance(scenario, Scenario)
    scenarios = [scenario] if one else list(scenario)
    stats = [[] for _ in scenarios]
    records = [{} for _ in scenarios]
    n_points = max((len(sc.snr_grid_db) for sc in scenarios), default=0)
    n_trials = max((sc.n_trials for sc in scenarios), default=0)
    for s in range(n_points):
        point = [[] for _ in scenarios]  # this grid point's records, per scenario
        for t in range(n_trials):
            sharing = {}  # master seed -> indices of the scenarios with that draw
            for i, sc in enumerate(scenarios):
                if s < len(sc.snr_grid_db) and t < sc.n_trials:
                    sharing.setdefault(sc.master_seed, []).append(i)
            for seed, members in sharing.items():
                pairs = [(scenarios[i], scenarios[i].snr_grid_db[s]) for i in members]
                for i, rec in zip(members, run_trial(pairs, [seed, s, t])):
                    point[i].append(rec)
        for sc, st, rec, recs in zip(scenarios, stats, records, point):
            if s < len(sc.snr_grid_db):
                st.append(aggregate(sc.name, sc.snr_grid_db[s], recs))
                if return_records:
                    rec[s] = recs
    out = [(st, rec) if return_records else st for st, rec in zip(stats, records)]
    return out[0] if one else out


# ---------------------------------------------------------------------------
# scenario files and result emitters


_SCENARIO_FIELDS = {f.name: f for f in fields(Scenario)}


def _parse_field(key: str, text: str):
    """Scenario-file text for one field, typed like the field's default."""
    default = _SCENARIO_FIELDS[key].default
    if not isinstance(default, (int, float)):
        return text  # name, channel, and snr_grid_db, which Scenario parses
    try:
        return type(default)(text)
    except ValueError:
        raise ValueError(f"malformed value for {key}: {text!r}") from None


def load_scenario(path) -> Scenario:
    """Parse a flat key=value scenario file (# comments, blank lines ok).

    Keys are the Scenario fields and omitted ones keep the field defaults;
    unknown keys and malformed numerics raise ValueError naming the field.
    """
    kwargs: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _SCENARIO_FIELDS:
                raise ValueError(f"unknown scenario key: {key}")
            if key in kwargs:
                raise ValueError(f"duplicate scenario key: {key}")
            kwargs[key] = _parse_field(key, value.strip())

    for key, f in _SCENARIO_FIELDS.items():
        if f.default is MISSING and key not in kwargs:
            raise ValueError(f"missing scenario key: {key}")
    return Scenario(**kwargs)


def fmt(x) -> str:
    """Text form of one output value: floats to 10 significant digits,
    bools as 1/0, None as empty."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def write_csv(path, header: Sequence[str], rows) -> None:
    """A comma-joined header line, then one line of fmt-formatted values
    per row."""
    lines = [",".join(header)]
    lines += [",".join(map(fmt, row)) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_records(path, cls, records) -> None:
    """write_csv with cls's field names as the header and the columns."""
    names = [f.name for f in fields(cls)]
    write_csv(path, names, ([getattr(r, k) for k in names] for r in records))


def write_campaign_csv(path, stats: Sequence[CampaignStats]) -> None:
    _write_records(path, CampaignStats, stats)


def write_campaign_json(path, stats: Sequence[CampaignStats]) -> None:
    def _jsonable(x):
        if isinstance(x, float) and not math.isfinite(x):
            return str(x)  # "inf" / "nan" keep the file strict-JSON parseable
        return x

    payload = [
        {k: _jsonable(v) for k, v in vars(s).items()} for s in stats
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trial_csv(path, records: Sequence[TrialRecord]) -> None:
    _write_records(path, TrialRecord, records)
