"""Command line front end.

    ldacs-sync trace     one impaired frame, timing-metric trace around the
                         preamble anchor (tau, xcr, xsig, xene CSV)
    ldacs-sync campaign  Monte Carlo fail-rate / CFO-MSE over an SNR grid
    ldacs-sync sweep     the bundled reproduction set (AWGN eps 0 / 1.5,
                         ENR, ENR+DME, TMA), one campaign CSV each,
                         written once all five have run

Campaigns come from a key=value scenario file (--scenario) or are assembled
from flags.  All randomness is driven by --seed; repeated runs write
byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .channel import run_pipeline
from .harness import (
    CHANNELS,
    Scenario,
    _check_int,
    _parse_snr_list,
    _snr_ok,
    fmt,
    impairments,
    link,
    load_scenario,
    run_campaign,
    write_campaign_csv,
    write_campaign_json,
    write_csv,
    write_trial_csv,
)
from .sigmodel import build_frame, write_iq
from .sync import baseline_xene, baseline_xsig, metric_stream


# ---------------------------------------------------------------------------
# trace


def cmd_trace(args) -> int:
    _check_int("--seed", args.seed, 0)
    _check_int("--preamble-seed", args.preamble_seed, 0)
    try:
        (snr,) = _parse_snr_list(args.snr)  # the grammar of campaign --snr
        if not _snr_ok(snr):
            raise ValueError
    except ValueError:  # malformed, not one value, NaN or -inf
        raise ValueError(f"--snr takes one value in dB or inf, got {args.snr!r}") from None
    num, pre, template = link(args.preamble_seed)

    # no payload: at lag 2L a trailing unit-power symbol images into the
    # magnitude correlation and can shade the true peak in the dump window
    lead = 600
    frame, n0 = build_frame(num, pre, 0, lead, seed=args.seed + 1)
    frame = np.concatenate([frame, np.zeros(300, dtype=np.complex128)])

    r = run_pipeline(frame, impairments(args.channel, args.epsilon, snr, args.seed), num)

    ac1, ac2, ene, xcr = metric_stream(r, num, template)
    xsig = baseline_xsig(r, pre, num)
    xene = baseline_xene(r, template)

    # the fixed geometry holds the window: [1071, 1327] of 1532 samples
    centre = n0 + num.anchor
    half = num.n_total // 2
    taus = np.arange(-half, half + 1)
    idx = centre + taus

    cols = []
    for arr in (xcr, xsig, xene):
        seg = arr[idx]
        peak = seg.max()
        cols.append(seg / peak if peak > 0 else seg)

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "trace.csv")
    write_csv(path, ("tau", "xcr", "xsig", "xene"), zip(taus, *cols))
    print(f"wrote {path}")

    if args.metrics:
        mpath = os.path.join(args.out, "metrics.csv")
        write_csv(
            mpath,
            ("n", "ac1", "ac2", "ene", "xcr", "xsig", "xene"),
            (
                (n, abs(ac1[n]), abs(ac2[n]), ene[n], xcr[n], xsig[n], xene[n])
                for n in range(r.size)
            ),
        )
        print(f"wrote {mpath}")

    if args.write_iq:
        ipath = os.path.join(args.out, "rx_iq.fc32")
        write_iq(ipath, r)
        print(f"wrote {ipath}")
    return 0


# ---------------------------------------------------------------------------
# campaign


def _check_run_flags(args) -> None:
    """Name --trials and --seed, not the Scenario fields they set, in a
    ValueError; None (not given) passes."""
    for flag, field, value, minimum in (
        ("--trials", "n_trials", args.trials, 1),
        ("--seed", "master_seed", args.seed, 0),
    ):
        if value is not None:
            _check_int(f"{flag} ({field})", value, minimum)


def _scenario_from_args(args) -> Scenario:
    """Scenario file or --channel, with the given flags overriding; fields
    set by neither keep the Scenario defaults."""
    _check_run_flags(args)
    given = {
        "channel": args.channel,
        "epsilon": args.epsilon,
        "snr_grid_db": args.snr,
        "n_trials": args.trials,
        "master_seed": args.seed,
    }
    overrides = {k: v for k, v in given.items() if v is not None}
    if args.scenario:
        return dataclasses.replace(load_scenario(args.scenario), **overrides)
    if args.channel is None:
        raise ValueError("campaign needs --scenario or --channel")
    return Scenario(name=args.channel.lower(), **overrides)


def _print_stats(stats) -> None:
    for s in stats:
        print(
            f"{s.scenario} snr={fmt(s.snr_db)} fail_rate={fmt(s.fail_rate)} "
            f"cfo_mse={fmt(s.cfo_mse)} ({s.n_trials} trials, {s.n_detected} detected)"
        )


def cmd_campaign(args) -> int:
    scen = _scenario_from_args(args)  # main() reports a ValueError, exit 2
    if args.per_trial:
        stats, records = run_campaign(scen, return_records=True)
    else:
        stats = run_campaign(scen)  # keeps no TrialRecord

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, f"{scen.name}.csv")
    json_path = os.path.join(args.out, f"{scen.name}.json")
    write_campaign_csv(csv_path, stats)
    write_campaign_json(json_path, stats)
    _print_stats(stats)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")

    if args.per_trial:
        flat = [r for s_idx in sorted(records) for r in records[s_idx]]
        tpath = os.path.join(args.out, f"{scen.name}_trials.csv")
        write_trial_csv(tpath, flat)
        print(f"wrote {tpath}")
    return 0


# ---------------------------------------------------------------------------
# sweep


def bundled_scenarios(n_trials: int, master_seed: int) -> list:
    awgn_grid = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0)
    aero_grid = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0)
    common = dict(n_trials=n_trials, master_seed=master_seed)
    return [
        Scenario(name="awgn_eps0", channel="AWGN", epsilon=0.0, snr_grid_db=awgn_grid, **common),
        Scenario(name="awgn_eps1p5", channel="AWGN", epsilon=1.5, snr_grid_db=awgn_grid, **common),
        Scenario(name="enr", channel="ENR", epsilon=0.5, snr_grid_db=aero_grid, **common),
        Scenario(name="enr_dme", channel="ENR_DME", epsilon=0.5, snr_grid_db=aero_grid, **common),
        Scenario(name="tma", channel="TMA", epsilon=0.5, snr_grid_db=aero_grid, **common),
    ]


def cmd_sweep(args) -> int:
    _check_run_flags(args)
    scenarios = bundled_scenarios(args.trials, args.seed)
    os.makedirs(args.out, exist_ok=True)
    # one master seed: each trial's frame is drawn once for all five
    for scen, stats in zip(scenarios, run_campaign(scenarios)):
        path = os.path.join(args.out, f"{scen.name}.csv")
        write_campaign_csv(path, stats)
        _print_stats(stats)
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ldacs-sync", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("trace", help="single-frame timing-metric trace")
    t.add_argument("--out", default=".", help="output directory")
    t.add_argument("--snr", default="10", help="SNR in dB (inf or noiseless = noise-free)")
    t.add_argument("--epsilon", type=float, default=0.0, help="CFO in subcarrier spacings")
    t.add_argument("--channel", choices=CHANNELS, default="AWGN")
    t.add_argument("--seed", type=int, default=1, help="noise and channel draw")
    t.add_argument("--preamble-seed", type=int, default=1, help="training sequence selector")
    t.add_argument("--metrics", action="store_true", help="also dump the full metric trace")
    t.add_argument("--write-iq", action="store_true", help="dump received IQ as float32 pairs")
    t.set_defaults(func=cmd_trace)

    c = sub.add_parser("campaign", help="Monte Carlo campaign over an SNR grid")
    c.add_argument("--scenario", help="key=value scenario file")
    c.add_argument("--out", default=".", help="output directory")
    c.add_argument("--channel", choices=CHANNELS)
    c.add_argument("--epsilon", type=float)
    c.add_argument("--snr", help="comma-separated SNR grid in dB (inf = noiseless)")
    c.add_argument("--trials", type=int)
    c.add_argument("--seed", type=int)
    c.add_argument("--per-trial", action="store_true", help="also write per-trial records")
    c.set_defaults(func=cmd_campaign)

    w = sub.add_parser("sweep", help="bundled reproduction campaigns")
    w.add_argument("--out", default=".", help="output directory")
    w.add_argument("--trials", type=int, default=1000)
    w.add_argument("--seed", type=int, default=1)
    w.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    except OSError as e:
        print(str(e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
