#!/usr/bin/env python3
"""Layered benchmark of ldacs_sync.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from the `src/` directory next
to this one, never from an installed copy.  Each run

  1. times set-up SETUP_REPEATS times (package import in a fresh
     interpreter, preamble and template, stream captures) and reports the
     median as setup_s;
  2. runs one untimed warm-up operation, then operations back to back for
     --seconds, and reports throughput from the median operation time;
  3. checks every operation's outputs (same-seed reruns are identical,
     scans find their frame), the reference results recorded in
     reference.json, and, on stream_scan, the metric kernel against its
     direct-sum oracle.

Every set-up and operation time is divided by a machine-speed probe timed
just before it and reported at the probe's reference speed (probes.py);
the raw times go to the details file.

With --trace 1 it instead runs half of --seconds untraced, then the same
number of operations with timing shims on every layer's entry points, and
reports the per-layer metrics.  `--workload all` runs every workload, each
in its own process.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 1 when any check failed and 2 on a usage or
missing-source error.  Details, the environment and (traced) all spans go
to .bench_out/ at the repository root.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: the workloads are single-caller
# and the numbers must not depend on how many cores a pool grabs.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep", "campaign_awgn", "stream_scan")
SETUP_REPEATS = 9
MIN_OPS = 3

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ldacs_sync, ldacs_sync.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny sizes, for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_seconds() -> float:
    """Wall time of `import ldacs_sync` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip())


def cache_sizes() -> dict:
    """L2/L3 sizes of cpu0 as the kernel reports them, in bytes."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind == "Unified" and size.endswith("K"):
            out[f"l{level}_bytes"] = int(size[:-1]) * 1024
            out[f"l{level}_shared_cpus"] = shared
    return out


def environment(ls, np, workload) -> dict:
    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "ldacs_sync": ls.__version__,
        "active_backend": ls.active_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        **cache_sizes(),
        **workload.environment(),
    }
    if "capture_bytes" in env:
        b = env["capture_bytes"]
        for level in ("l2", "l3"):
            if f"{level}_bytes" in env:
                env[f"capture_over_{level}_computed"] = b / env[f"{level}_bytes"]
        env["note"] = (
            "capture ratios are computed from array sizes, not measured. A capture 4x "
            "the shared L3 would take several GB of kernel temporaries (64 B per sample "
            "of kernel input and output alone, plus numpy intermediates)."
        )
    return env


class Run:
    """Counts operations and checks, and remembers why any failed."""

    def __init__(self, workload, probe):
        self.w = workload
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.failures += [f"{what}: {e}" for e in errors]
            for e in errors:
                print(f"check failed: {what}: {e}", file=sys.stderr)
        return not errors

    def guarded(self, what: str, fn):
        """Run one check; an exception counts as its failure."""
        try:
            errors = fn()
        except Exception:  # noqa: BLE001 - any raise is an output failure
            errors = [traceback.format_exc().strip().splitlines()[-1]]
            traceback.print_exc()
        return self.record(what, errors)

    def op(self) -> tuple[float, float] | None:
        """Probe, then one timed operation and its output check.

        Returns (operation seconds, probe seconds), or None if it failed.
        """
        p = self.probe()
        t0 = time.perf_counter()
        try:
            out = self.w.op()
        except Exception:  # noqa: BLE001
            traceback.print_exc()
            self.record("operation", ["raised"])
            return None
        dt = time.perf_counter() - t0
        ok = self.guarded("operation", lambda: self.w.check_op(out))
        return (dt, p) if ok else None

    def loop(self, seconds: float | None = None, n_ops: int | None = None) -> list[tuple[float, float]]:
        """Operations back to back for `seconds`, or exactly `n_ops` of them."""
        timed = []
        t_end = time.perf_counter() + (seconds or 0.0)
        done = 0
        while True:
            res = self.op()
            done += 1
            if res is not None:
                timed.append(res)
            if n_ops is not None:
                if done >= n_ops:
                    return timed
            elif time.perf_counter() >= t_end and done >= MIN_OPS:
                return timed


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def normalised_op_s(timed, probe) -> float:
    """Median operation time at the probe's reference machine speed."""
    return median_or_zero([t / p for t, p in timed]) * probe.reference_s


def run_workload(args) -> int:
    init = SRC / "ldacs_sync" / "__init__.py"
    if not init.is_file():
        print(f"error: ldacs_sync source not found at {init}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import numpy as np

    import ldacs_sync as ls
    import ldacs_sync.cli  # noqa: F401 - the sweep enters here
    import checks
    from probes import PROBES
    from tracing import Tracer, unit_of
    from workloads import WORKLOADS

    if Path(ls.__file__).resolve().parent != init.parent.resolve():
        print(f"error: imported ldacs_sync from {ls.__file__}, not {init.parent}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(prefix=tag + "-", dir=OUT) as tmp:
        w = WORKLOADS[args.workload](ls, Path(tmp), args.seed, args.quick)
        probe = PROBES[w.probe]
        probe()  # first call allocates and warms up
        import_s, build_s, probe_s = [], [], []
        for _ in range(1 if args.quick else SETUP_REPEATS):
            probe_s.append(probe())
            import_s.append(import_seconds())
            t0 = time.perf_counter()
            w.setup()
            build_s.append(time.perf_counter() - t0)
        setup_s = statistics.median(
            (a + b) / p * probe.reference_s for a, b, p in zip(import_s, build_s, probe_s)
        )

        run = Run(w, probe)
        run.op()  # warm-up: untimed, but checked; it is the rerun baseline
        run.guarded("replay", w.prepare)

        metrics: dict[str, float] = {}
        missing: list[str] = []
        spans_path = None
        if args.trace:
            timed = run.loop(seconds=args.seconds / 2)
            n_ops = len(timed) or 1
            tracer = Tracer()
            with tracer:
                traced = run.loop(n_ops=n_ops)
            metrics = tracer.layer_metrics(sum(t for t, _ in traced), n_ops)
            base = normalised_op_s(timed, probe)
            metrics["tracing_overhead"] = normalised_op_s(traced, probe) / base - 1.0 if base else 0.0
            missing = sorted(
                name
                for name in w.expected_layers
                if name in tracer.missing or metrics[f"{name}.calls"] == 0
            )
            metrics["trace.layers_missing"] = len(missing)
            metrics["trace.ops_traced"] = len(traced)
            for name in missing:
                print(f"warning: layer {name} recorded no calls on {w.name}", file=sys.stderr)
            spans_path = OUT / f"{tag}.spans.jsonl"
            tracer.write_spans(spans_path)
        else:
            timed = run.loop(seconds=args.seconds)

        try:
            fail_rate, cfo_mse = w.quality()
        except Exception:  # noqa: BLE001 - only when operations already failed
            traceback.print_exc()
            fail_rate = cfo_mse = float("nan")
        reference = json.loads((HERE / "reference.json").read_text())[w.name]
        run.guarded("reference", lambda: checks.compare_trials(w.reference_points(), reference))
        run.guarded("kernel oracle", w.extra_checks)

        op_s = normalised_op_s(timed, probe)
        raw_op_s = median_or_zero([t for t, _ in timed])
        e2e = {
            "trials_per_s": w.trials_per_op / op_s if op_s else 0.0,
            "msamp_per_s": w.samples_per_op / op_s / 1e6 if op_s else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        env = environment(ls, np, w)

    quality = {
        "fail_rate": fail_rate,
        "cfo_mse": cfo_mse,
        "error_rate": run.failed / run.attempted,
    }
    details = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "ops_timed": len(timed),
        "op_s_median": raw_op_s,
        "op_s_normalised": op_s,
        "probe": {"kind": w.probe, "reference_s": probe.reference_s,
                  "median_s": median_or_zero([p for _, p in timed])},
        "raw_trials_per_s": w.trials_per_op / raw_op_s if raw_op_s else 0.0,
        "raw_msamp_per_s": w.samples_per_op / raw_op_s / 1e6 if raw_op_s else 0.0,
        "op_and_probe_s": timed,
        "trials_per_op": w.trials_per_op,
        "samples_per_op": w.samples_per_op,
        "setup": {"import_s": import_s, "build_s": build_s, "probe_s": probe_s},
        "end_to_end": e2e,
        "quality": quality,
        "per_layer": metrics,
        "layers_missing": missing,
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
        "failures": run.failures,
        "environment": env,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")

    print(f"{w.name} seed={args.seed}: {len(timed)} ops of {w.trials_per_op} trials, "
          f"{w.samples_per_op} samples; median op {raw_op_s * 1e3:.2f} ms raw, "
          f"{op_s * 1e3:.2f} ms at reference speed ({w.probe} probe)")
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    print(f"  fail_rate = {fail_rate:.6g} share   cfo_mse = {cfo_mse:.6g} subcarrier^2   "
          f"error_rate = {quality['error_rate']:.6g} share ({run.failed}/{run.attempted})")
    reported = metrics if args.trace else e2e
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in reported.items()},
    }))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        code = subprocess.run(cmd, cwd=ROOT, timeout=900).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
