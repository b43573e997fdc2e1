#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads sweep,stream_scan --seeds 1-10

Runs run.py once per (workload, seed), one process at a time, and reports
for each end-to-end metric the median of the runs and the spread: the
distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median.  A metric
is steady when its spread is below a third of its bound in BENCHMARK.json
(setup_s has no spread requirement).  Results go to --out as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3) of the values."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", default=str(ROOT / ".bench_out" / "spread.json"))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": seed_list(args.seeds), "workloads": {}}
    ok = True
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in report["seeds"]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            runs.append({"seed": seed, "exit": proc.returncode, "wall_s": wall, **result})
            for name, m in result.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: {wall:.1f} s "
                  + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        summary = {}
        for name, vals in values.items():
            med, q1, q3 = spread(vals)
            share = (q3 - q1) / med if med else float("inf")
            steady = name == "setup_s" or share < bounds[name] / 3
            ok &= steady
            summary[name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                             "spread": share, "bound": bounds[name], "steady": steady}
            print(f"  {wl:14s} {name:14s} median {med:10.5g}  spread {share:6.3f}  "
                  f"bound {bounds[name]:.2f}  {'ok' if steady else 'NOT STEADY'}")
        report["workloads"][wl] = {"runs": runs, "metrics": summary}
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
