"""Output checks: reference agreement and the metric-kernel oracle guard.

Campaign results are compared trial by trial with `reference.json`,
recorded with `record_reference.py` at the commit that introduced this
benchmark. A change that only reorders floating-point arithmetic can flip a
trial sitting on a decision boundary (trigger run, timing peak, CFO
branch), so each grid point tolerates FLIPS trials that differ; every other
trial must reproduce its lead gap, detection, failure and STO error
exactly and its CFO error to CFO_ATOL. Statistics aggregated from trials
that agree this way agree with the reference statistics up to those flips.
"""

from __future__ import annotations

import csv
import math

import numpy as np

FLIPS = 1  # differing trials tolerated per grid point
CFO_ATOL = 1e-9  # CFO error agreement, in subcarrier spacings
KERNEL_RTOL = 1e-9  # metric kernel vs direct sums, relative to the array peak


def read_campaign_csv(path) -> list[dict]:
    """Rows of a campaign CSV as dicts of typed values."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            {
                "scenario": row["scenario"],
                "snr_db": float(row["snr_db"]),
                "fail_rate": float(row["fail_rate"]),
                "cfo_mse": float(row["cfo_mse"]),
                "n_trials": int(row["n_trials"]),
                "n_detected": int(row["n_detected"]),
            }
            for row in csv.DictReader(fh)
        ]


def trial_rows(records) -> list[list]:
    """The reference-relevant fields of each TrialRecord."""
    return [[r.true_sto, r.detected, r.fail, r.sto_error, r.cfo_error] for r in records]


def _same_trial(a: list, b: list) -> bool:
    if a[:4] != b[:4]:
        return False
    if a[4] is None or b[4] is None:
        return a[4] is b[4]
    return abs(a[4] - b[4]) <= CFO_ATOL


def compare_trials(points: list[dict], ref_points: list[dict]) -> list[str]:
    """Disagreements between per-point trial rows and the reference's.

    Each point is {"scenario", "snr_db", "trials": trial_rows(...)}.
    """
    if len(points) != len(ref_points):
        return [f"{len(points)} grid points, reference has {len(ref_points)}"]
    errors = []
    for got, ref in zip(points, ref_points):
        where = f"{ref['scenario']} snr={ref['snr_db']:g}"
        if (got["scenario"], got["snr_db"]) != (ref["scenario"], ref["snr_db"]):
            errors.append(f"{where}: got {got['scenario']} snr={got['snr_db']:g}")
        elif len(got["trials"]) != len(ref["trials"]):
            errors.append(f"{where}: {len(got['trials'])} trials, reference has {len(ref['trials'])}")
        else:
            diff = sum(not _same_trial(a, b) for a, b in zip(got["trials"], ref["trials"]))
            if diff > FLIPS:
                errors.append(f"{where}: {diff} trials differ from the reference (limit {FLIPS})")
    return errors


def pooled_quality(rows: list[dict]) -> tuple[float, float]:
    """(fail_rate over all trials, CFO MSE weighted by detections)."""
    n = sum(r["n_trials"] for r in rows)
    fails = sum(r["fail_rate"] * r["n_trials"] for r in rows)
    det = [(r["cfo_mse"], r["n_detected"]) for r in rows if not math.isnan(r["cfo_mse"])]
    w = sum(d for _, d in det)
    mse = sum(m * d for m, d in det) / w if w else float("nan")
    return fails / n, mse


def kernel_vs_direct(ls, capture: np.ndarray, num, template, rng, n_points: int) -> list[str]:
    """Check the active metric kernel against the direct-sum oracle.

    The batch arrays from `metric_stream` over the whole capture are read at
    n_points seeded indices (plus the last one) and compared with
    `metrics_direct` on the window ending there.
    """
    ac1, ac2, ene, xcr = ls.metric_stream(capture, num, template)
    L = num.l_quarter
    win = max(num.d_template + 2 * L, 4 * L)
    idx = np.sort(rng.integers(win - 1, capture.size, n_points))
    idx = np.append(idx, capture.size - 1)
    scale = {
        name: max(1.0, float(np.max(np.abs(arr))))
        for name, arr in (("ac1", ac1), ("ac2", ac2), ("ene", ene), ("xcr", xcr))
    }
    worst = 0.0
    for i in idx:
        ref = ls.metrics_direct(capture[i - win + 1 : i + 1], num, template)
        for name, arr, want in (
            ("ac1", ac1, ref.ac1),
            ("ac2", ac2, ref.ac2),
            ("ene", ene, ref.ene),
            ("xcr", xcr, ref.xcr),
        ):
            worst = max(worst, abs(arr[i] - want) / scale[name])
    if worst > KERNEL_RTOL:
        return [f"metric kernel deviates from direct sums by {worst:.3e} (limit {KERNEL_RTOL:g})"]
    return []
