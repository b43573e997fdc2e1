#!/usr/bin/env python3
"""Write perfbench/reference.json: each workload's per-trial results at the
reference seed and sizes (workloads.REF_*), which every benchmark run
compares against.

    python3 perfbench/record_reference.py

Record it again only in a change that means to alter simulation results,
and say so in that change.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, OUT, ROOT, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    import ldacs_sync as ls
    import ldacs_sync.cli  # noqa: F401
    from workloads import WORKLOADS

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    ref = {"recorded_at_commit": commit, "ldacs_sync": ls.__version__}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name, cls in WORKLOADS.items():
            w = cls(ls, Path(tmp), seed=0, quick=True)
            w.setup()
            ref[name] = w.reference_points()
    path = HERE / "reference.json"
    # one grid point per line keeps the file small and its diffs readable
    lines = []
    for key, value in ref.items():
        if isinstance(value, list):
            points = ",\n".join("  " + json.dumps(p) for p in value)
            lines.append(f"{json.dumps(key)}: [\n{points}\n ]")
        else:
            lines.append(f"{json.dumps(key)}: {json.dumps(value)}")
    path.write_text("{\n " + ",\n ".join(lines) + "\n}\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
