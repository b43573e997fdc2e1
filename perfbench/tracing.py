"""Timing shims around the calls into each ldacs_sync layer.

The shims live in the benchmark, not in the package: `Tracer.install`
replaces every module attribute that refers to a listed function (the
names callers look up at call time, e.g. `ldacs_sync.harness.run_pipeline`
or `ldacs_sync.sync.metric_arrays`) with a wrapper that records a span, and
`Tracer.restore` puts the originals back.

Spans are kept in flat in-memory arrays (name, parent, start, end, self
time, samples) and written out once, after the run. Self time is a span's
duration minus the time covered by its direct children, computed with a
span stack.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

# (module, function) pairs, in the package's layer order.
LAYERS = (
    ("cli", "main"),
    ("harness", "run_campaign"),
    ("harness", "run_trial"),
    ("harness", "write_campaign_csv"),
    ("sigmodel", "build_frame"),
    ("channel", "run_pipeline"),
    ("channel", "apply_multipath"),
    ("channel", "apply_dme"),
    ("channel", "apply_cfo"),
    ("channel", "apply_awgn"),
    ("sync", "synchronize"),
    ("_kernels", "metric_arrays"),
    ("_kernels", "first_trigger"),
)
# Metric names start with a letter, so `_kernels` is reported as `kernels`.
LAYER_NAMES = tuple(f"{m.lstrip('_')}.{f}" for m, f in LAYERS)

# Layers whose first positional argument is a sample array.
SAMPLE_LAYERS = frozenset(
    {
        "channel.run_pipeline",
        "channel.apply_multipath",
        "channel.apply_dme",
        "channel.apply_cfo",
        "channel.apply_awgn",
        "sync.synchronize",
        "kernels.metric_arrays",
    }
)

PACKAGE = "ldacs_sync"

UNITS = {
    # end-to-end
    "trials_per_s": "trials/s",
    "msamp_per_s": "Msamp/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    # per-layer, by quantity suffix
    "calls": "count/op",
    "self_us_per_call": "us",
    "self_share": "share",
    "bytes_computed": "B",
    "detect_ratio": "share",
    "tracing_overhead": "ratio",
    "layers_missing": "count",
    "ops_traced": "count",
}


def unit_of(metric: str) -> str:
    """Unit of an end-to-end metric or of a per-layer quantity."""
    return UNITS.get(metric) or UNITS[metric.rsplit(".", 1)[-1]]


class Tracer:
    def __init__(self):
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._self = array("q")
        self._samples = array("q")
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.detections = 0
        self.kernel_bytes = 0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function wherever the package exposes it."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for idx, (mod_name, fn_name) in enumerate(LAYERS):
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                self.missing.append(LAYER_NAMES[idx])
                continue
            shim = self._shim(idx, original)
            for m in modules:
                if getattr(m, fn_name, None) is original:
                    self._patched.append((m, fn_name, original))
                    setattr(m, fn_name, shim)

    def restore(self) -> None:
        for m, fn_name, original in reversed(self._patched):
            setattr(m, fn_name, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- spans ----------------------------------------------------------

    def _shim(self, idx: int, fn):
        name = LAYER_NAMES[idx]
        takes_samples = name in SAMPLE_LAYERS
        is_sync = name == "sync.synchronize"
        is_kernel = name == "kernels.metric_arrays"
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            n = 0
            if takes_samples and args:
                n = int(np.size(args[0]))
            span = len(self._start)
            self._name.append(idx)
            self._parent.append(stack[-1][0] if stack else -1)
            self._samples.append(n)
            self._start.append(0)
            self._end.append(0)
            self._self.append(0)
            frame = [span, 0]
            stack.append(frame)
            t0 = clock()
            self._start[span] = t0
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self._end[span] = t1
                self._self[span] = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if is_sync and getattr(out, "detected", False):
                self.detections += 1
            if is_kernel:
                self.kernel_bytes += np.asarray(args[0]).nbytes + sum(a.nbytes for a in out)
            return out

        return functools.wraps(fn)(traced)

    # -- results --------------------------------------------------------

    def layer_metrics(self, traced_s: float, n_ops: int) -> dict[str, float]:
        """Per-layer calls per operation, self time, self share and throughput.

        traced_s is the summed wall time of the n_ops traced operations.
        """
        names = np.frombuffer(self._name, dtype=np.int32)
        start = np.frombuffer(self._start, dtype=np.int64)
        end = np.frombuffer(self._end, dtype=np.int64)
        self_ns = np.frombuffer(self._self, dtype=np.int64)
        samples = np.frombuffer(self._samples, dtype=np.int64)
        out: dict[str, float] = {}
        for idx, name in enumerate(LAYER_NAMES):
            sel = names == idx
            calls = int(sel.sum())
            s_ns = int(self_ns[sel].sum())
            incl_ns = int((end[sel] - start[sel]).sum())
            out[f"{name}.calls"] = calls / n_ops
            out[f"{name}.self_us_per_call"] = s_ns / 1e3 / calls if calls else 0.0
            out[f"{name}.self_share"] = s_ns / 1e9 / traced_s if traced_s else 0.0
            if name in SAMPLE_LAYERS:
                n = int(samples[sel].sum())
                out[f"{name}.msamp_per_s"] = n / incl_ns * 1e3 if incl_ns else 0.0
        kcalls = out["kernels.metric_arrays.calls"] * n_ops
        out["kernels.metric_arrays.bytes_computed"] = self.kernel_bytes / kcalls if kcalls else 0.0
        scalls = out["sync.synchronize.calls"] * n_ops
        out["sync.synchronize.detect_ratio"] = self.detections / scalls if scalls else 0.0
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, parent span, start/end ns, self ns, samples."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self._start)):
                fh.write(
                    json.dumps(
                        [
                            LAYER_NAMES[self._name[i]],
                            self._parent[i],
                            self._start[i],
                            self._end[i],
                            self._self[i],
                            self._samples[i],
                        ]
                    )
                    + "\n"
                )
