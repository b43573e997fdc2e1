"""Same bytes: the outputs of the working tree's src/ against those of a
base commit's, byte for byte.

    python tools/same_bytes.py <base-ref>

Extracts the base's src/ with `git archive <base-ref> src | tar -x` into a
temporary directory, and writes the same outputs from each tree: `sweep
--trials 20 --seed 1` and the ENR_DME `--per-trial` campaign (run in the
output directory with a relative --out, so their stdout, "wrote <path>"
lines included, is compared too), a TMA and an ENR_DME trace, and the
stream probe tools/streams.py, whose channel outputs are saved as .npy
arrays.  It prints each array's largest difference, base against head,
relative to the base array's largest magnitude, then `diff -r` of the two
output trees.  The exit status is 0 only if the trees are identical.

A change at rounding level reads as a small multiple of eps times the
tones' phase span, under 1e-12 on these streams; a real drift reads far
more, where `diff -r` alone only says that the bytes differ.  The probe is
the working tree's, run under both trees, so it may only use names that
the base has.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def outputs(src: Path, out: Path) -> None:
    """Write the compared outputs of the package under src into out."""
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(*args, stdout=subprocess.DEVNULL):
        subprocess.run([sys.executable, *args], cwd=out, env=env, stdout=stdout, check=True)

    cli = ("-m", "ldacs_sync.cli")
    with open(out / "sweep.stdout", "w") as f:
        run(*cli, "sweep", "--trials", "20", "--seed", "1", "--out", "sweep", stdout=f)
    with open(out / "campaign.stdout", "w") as f:
        run(*cli, "campaign", "--channel", "ENR_DME", "--epsilon", "0.5", "--snr", "0,inf",
            "--trials", "20", "--per-trial", "--out", "campaign", stdout=f)
    run(*cli, "trace", "--channel", "TMA", "--epsilon", "1.5", "--metrics", "--write-iq", "--out", "trace")
    run(*cli, "trace", "--channel", "ENR_DME", "--snr", "inf", "--metrics", "--out", "trace_enr_dme")
    with open(out / "multiblock.txt", "w") as f:
        run(str(ROOT / "tools" / "streams.py"), "arrays", str(src), stdout=f)


def reldiff(base: Path, head: Path) -> None:
    """Print, for each .npy array under base that head also holds, its
    largest difference relative to the base array's largest magnitude."""
    for a_path in sorted(base.rglob("*.npy")):
        name = a_path.relative_to(base)
        if not (head / name).is_file():
            continue
        a, b = np.load(a_path), np.load(head / name)
        if a.shape != b.shape:
            print(name, "shape", a.shape, "against", b.shape)
            continue
        scale = np.abs(a).max(initial=0.0)
        diff = np.abs(b - a).max(initial=0.0)
        print(name, "largest relative difference", diff / scale if scale else diff)


def compare(base: Path, head: Path) -> int:
    """reldiff, then `diff -r` of the two trees, paths relative to their
    common parent; diff's exit status, 0 only if the trees are identical."""
    reldiff(base, head)
    sys.stdout.flush()
    top = os.path.commonpath([base, head])
    return subprocess.run(["diff", "-r", os.path.relpath(base, top), os.path.relpath(head, top)], cwd=top).returncode


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="git ref of the base commit")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "tree").mkdir()
        archive = subprocess.run(["git", "archive", args.base, "src"], cwd=ROOT, stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-C", str(tmp / "tree")], input=archive.stdout, check=True)
        outputs(tmp / "tree" / "src", tmp / "base")
        outputs(ROOT / "src", tmp / "head")
        return compare(tmp / "base", tmp / "head")


if __name__ == "__main__":
    sys.exit(main())
