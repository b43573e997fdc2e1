"""The stream probe of tools/same_bytes.py: channel, frame, seeding and
multi-block scan outputs, printed line by line.

    PYTHONPATH=<tree> python tools/streams.py <array dir> <tree>

Every sweep, campaign and trace stream fits in one 16 Ki-sample block;
these frames sit behind a 40123-sample lead, so the scan runs over three
blocks, and behind a 2^18-sample noise lead, plain and under a DC offset,
whose full blocks synchronize screens out before the kernels; each stream
is also pushed in 1000-sample and in 16 Ki-sample chunks through
SyncState.push, which screens a searching push of at least 16 Ki samples as
synchronize screens its blocks and runs the full-rate trigger search on any
shorter one; metric_stream runs the kernels on every block behind the
kernels' look-back; a NaN two blocks after a frame must still be rejected
by synchronize and metric_stream, and an inf mid-way through a lead block
that the screen clears by synchronize and by 16 Ki-sample pushes, which
keep the state of the pushes before it; the channel output itself is
hashed for every bundled channel, so a drift in any stage shows here
directly; apply_multipath's output is hashed for ENR and TMA at empty and
one-sample inputs, at the block-length edges 1681 = 41**2 and 1682, at the
longest sweep frame (2032) and at 2331, three seeds each, so a one-ULP
drift in fading shows at each length; apply_cfo's output is hashed at 1,
1432, 1732 and 2032 samples for epsilon -1.9, 0.5 and 1.5, a negative
epsilon being a negative tone frequency, whose angle at offset 0 is -0.0;
build_frame's output is hashed at lead gaps 0, 1, 537 and 800, with 0, 1
and 2 payload symbols and seeds 0, 3 and 2**40 + 1, so a drift in the QPSK
draw or the windowing shows at its source; run_trial prints the record
seed and lead gap of one-word and multi-word entropies, so a drift in the
seeding shows too; the run_pipeline, apply_multipath and apply_cfo outputs
go into the array dir as .npy files as well, for same_bytes.py to print
their largest relative difference.

same_bytes.py runs this file under the base tree as well as the working
tree, so it may only use names that the base has.  It stops with an error
unless ldacs_sync is imported from <tree>: an installed copy of the
package must not stand in for the tree under test.
"""
import hashlib
import os
import pathlib
import sys
import numpy as np
import ldacs_sync
from ldacs_sync import ImpairmentConfig, Scenario, SyncState, apply_cfo, apply_multipath, build_frame, metric_stream, run_pipeline, run_trial, synchronize
from ldacs_sync.harness import CHANNEL_MODELS, link
if not pathlib.Path(ldacs_sync.__file__).resolve().is_relative_to(pathlib.Path(sys.argv[2]).resolve()):
    sys.exit(f"ldacs_sync is imported from {ldacs_sync.__file__}, not from {sys.argv[2]}")
num, pre, template = link(1)
os.makedirs(sys.argv[1], exist_ok=True)
def hashed(name, y):
    np.save(os.path.join(sys.argv[1], name + ".npy"), y)
    return hashlib.sha256(y.tobytes()).hexdigest()
def show(name, x):
    h = hashlib.sha256()
    for arr in metric_stream(x, num, template):
        h.update(arr.tobytes())
    print(name, synchronize(x, num, template), h.hexdigest())
    for size in (1000, 1 << 14):
        state = SyncState(num, template)
        for i in range(0, x.size, size):
            state.push(x[i : i + size])
        print(name, "push", size, state.finish())
f, n0 = build_frame(num, pre, 2, 40123, seed=3)
for channel, (profile, dme) in CHANNEL_MODELS.items():
    for eps in (0.0, 1.2):
        for snr in (12.0, float("inf")):
            cfg = ImpairmentConfig(epsilon=eps, snr_db=snr, profile=profile, dme=dme, seed=7)
            r = run_pipeline(f, cfg, num)
            print("run_pipeline", channel, eps, snr, hashed(f"run_pipeline_{channel}_{eps}_{snr}", r))
for channel in ("ENR", "TMA"):
    for n in (0, 1, 1681, 1682, 2032, 2331):
        x = np.random.default_rng(n).normal(size=(n, 2)) @ [1.0, 1j]
        for seed in (1, 2, 3):
            y = apply_multipath(x, CHANNEL_MODELS[channel][0], num, np.random.default_rng(seed))
            print("apply_multipath", channel, n, seed, hashed(f"apply_multipath_{channel}_{n}_{seed}", y))
for n in (1, 1432, 1732, 2032):
    x = np.random.default_rng(n).normal(size=(n, 2)) @ [1.0, 1j]
    for eps in (-1.9, 0.5, 1.5):
        y = apply_cfo(x, eps, num)
        print("apply_cfo", n, eps, hashed(f"apply_cfo_{n}_{eps}", y))
for gap in (0, 1, 537, 800):
    for n_payload in (0, 1, 2):
        for seed in (0, 3, 2**40 + 1):
            y, n0 = build_frame(num, pre, n_payload, gap, seed=seed)
            print("build_frame", gap, n_payload, seed, n0, hashlib.sha256(y.tobytes()).hexdigest())
sc = Scenario(name="ci", channel="AWGN", epsilon=1.5)
for entropy in ([1, 0, 0], [7, 3, 17], [1, 0, 2**32], [2**64 + 5, 3, 17], 2**40 + 1, 0):
    rec = run_trial([(sc, 10.0)], entropy)[0]
    print("run_trial", entropy, rec.seed, rec.true_sto, rec.sto_est, rec.cfo_est)
for channel in ("AWGN", "ENR_DME", "TMA"):
    profile, dme = CHANNEL_MODELS[channel]
    cfg = ImpairmentConfig(epsilon=1.2, snr_db=12.0, profile=profile, dme=dme, seed=7)
    show(channel, run_pipeline(f, cfg, num))
f, n0 = build_frame(num, pre, 2, 1 << 18, seed=3)
x = run_pipeline(f, ImpairmentConfig(epsilon=-0.8, snr_db=12.0, seed=7), num)
show("AWGN_lead", x)
show("DC_lead", x + 0.1)
z = x.copy()
z[5 * (1 << 14) + (1 << 13)] = np.inf
try:
    synchronize(z, num, template)
except ValueError as e:
    print("inf_in_lead synchronize", e)
state = SyncState(num, template)
try:
    for i in range(0, z.size, 1 << 14):
        state.push(z[i : i + (1 << 14)])
except ValueError as e:
    print("inf_in_lead push", 1 << 14, i, state._n, state.result, e)
f, n0 = build_frame(num, pre, 2, 40123, seed=3)
y = run_pipeline(np.concatenate((f, np.zeros(5 * (1 << 14) - f.size))), ImpairmentConfig(epsilon=0.3, snr_db=12.0, seed=7), num)
y[4 * (1 << 14) + 5] = np.nan
for fn in (synchronize, metric_stream):
    try:
        fn(y, num, template)
    except ValueError as e:
        print("NaN_after_frame", fn.__name__, e)
