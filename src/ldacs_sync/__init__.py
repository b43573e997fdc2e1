"""Baseband simulator and data-aided synchronizer for L-DACS1-style OFDM frames.

The package splits into five layers:

    sigmodel   numerology, preamble/frame synthesis, energy template
    _kernels   hot metric kernels (cumsum sliding sums, the same sums at a
               stride from row sums, a trigger search, xcr by np.convolve
               over a window, and a screen that shows where no trigger can
               fall)
    sync       metrics, detection, STO and CFO estimation over a stream fed
               in chunks (SyncState) or whole (synchronize)
    channel    CFO, AWGN, Rician multipath, DME interference
    harness    Monte Carlo trials, campaigns, CSV/JSON emitters
"""

from .sigmodel import (
    Numerology,
    make_numerology,
    generate_preamble,
    energy_template,
    build_frame,
    write_iq,
    read_iq,
)
from ._kernels import active_backend
from .sync import (
    MetricSnapshot,
    SyncState,
    SyncResult,
    metrics_direct,
    metric_stream,
    estimate_cfo,
    synchronize,
    baseline_xsig,
    baseline_xene,
)
from .channel import (
    ChannelTap,
    ChannelProfile,
    DmeInterferer,
    ImpairmentConfig,
    apply_cfo,
    apply_awgn,
    apply_multipath,
    apply_dme,
    make_enr_profile,
    make_tma_profile,
    make_dme_scenario,
    run_pipeline,
)
from .harness import (
    Scenario,
    TrialRecord,
    CampaignStats,
    run_trial,
    run_campaign,
    load_scenario,
    write_campaign_csv,
    write_campaign_json,
    write_trial_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Numerology",
    "make_numerology",
    "generate_preamble",
    "energy_template",
    "build_frame",
    "write_iq",
    "read_iq",
    "active_backend",
    "MetricSnapshot",
    "SyncState",
    "SyncResult",
    "metrics_direct",
    "metric_stream",
    "estimate_cfo",
    "synchronize",
    "baseline_xsig",
    "baseline_xene",
    "ChannelTap",
    "ChannelProfile",
    "DmeInterferer",
    "ImpairmentConfig",
    "apply_cfo",
    "apply_awgn",
    "apply_multipath",
    "apply_dme",
    "make_enr_profile",
    "make_tma_profile",
    "make_dme_scenario",
    "run_pipeline",
    "Scenario",
    "TrialRecord",
    "CampaignStats",
    "run_trial",
    "run_campaign",
    "load_scenario",
    "write_campaign_csv",
    "write_campaign_json",
    "write_trial_csv",
]
