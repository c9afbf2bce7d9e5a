"""Workload definitions: corpus sizes, model hyperparameters and why each exists.

Every workload drives the program through `sceneid.cli.main`, the interface
users run. The workload seed only seeds the synthetic corpus (`sceneid synth
--seed`) and the sweep's speech mixing (`sceneid sweep --seed`); the program
receives nothing but the generated files. Model seeds stay at their config
values, as a user would leave them.

Sizes are cut so that a campaign of 4 + 22 x 3 runs fits within an hour on a
2-core machine (see bench/README.md). Stdlib only, so the parent process can
import this without numpy.
"""

from __future__ import annotations

# Conditions of sweep_desk_nf's timed sweeps and of train_paper's held-out
# sweep, and the report tags they produce.
SWEEP_SBRS = "clean,5,20"
SWEEP_TAGS = {"clean": "acc_clean", "sbr+5dB": "acc_sbr5", "sbr+20dB": "acc_sbr20"}

# Paper-scale model: C=256 components, rank R=150. The PCA init of a rank-150
# T needs at least 150 training recordings, i.e. 38 per class x 4 classes;
# 40 per class keeps the backend's pooled covariance (160 - 4 = 156 samples)
# full rank. Iteration counts are cut to one pass each to fit the time budget.
PAPER = {
    "ubm_components": 256,
    "tv_rank": 150,
    "ubm_iters": 1,
    "kmeans_iters": 1,
    "tv_iters": 1,
}

# Desk scale with the hyperparameters of acceptance criterion 8, noise floor on.
DESK_NF = {
    "noise_floor": "true",
    "ubm_components": 16,
    "ubm_iters": 12,
    "kmeans_iters": 8,
    "tv_rank": 12,
    "tv_iters": 4,
    "seed": 20,
}

WORKLOADS = {
    "train_paper": {
        "why": (
            "The only workload that trains a UBM and a T matrix at paper scale "
            "(C=256, R=150): loads gmm.train_ubm, ivector.train_tv and "
            "ivector.extract_ivectors; front-end gains barely show here."
        ),
        "loads": ("gmm", "ivector"),
        "synth": {"train_per_class": 40, "test_per_class": 10, "clip_seconds": 1.0,
                  "sample_rate": 16000},
        "config": PAPER,
        # Bundle training belongs to the timed phase here, not to set-up.
        "train_in_setup": False,
    },
    "sweep_desk_nf": {
        "why": (
            "The paper's headline experiment: a noise-floor desk-scale bundle swept "
            "over clean, +5 and +20 dB SBR. Loads noisefloor (per-frame loop), "
            "features and mixer; the models are negligible."
        ),
        "loads": ("noisefloor", "features", "mixer"),
        "synth": {"train_per_class": 30, "test_per_class": 20, "clip_seconds": 3.0,
                  "sample_rate": 16000},
        "config": DESK_NF,
        "train_in_setup": True,
    },
    "classify_paper": {
        "why": (
            "The deployment path: one `sceneid classify` per 48 kHz clip, closed loop, "
            "one client, on a paper-scale plain bundle. Loads ivector.extract_ivector, "
            "ModelBundle.load and resampling per request."
        ),
        "loads": ("ivector.extract_ivector",),
        "synth": {"train_per_class": 40, "test_per_class": 15, "clip_seconds": 1.0,
                  "sample_rate": 48000},
        # PCA-initialised T (tv_iters=0) keeps set-up cheap; the per-request
        # cost depends on C and R only.
        "config": dict(PAPER, tv_iters=0),
        "train_in_setup": True,
    },
}

# Least work in one timed phase, whatever --seconds says. train_s is the
# median of MIN_TRAIN_CALLS calls (two, not three, so that a campaign of
# 4 + 22 x 3 runs stays within its hour when a train call takes 15 s);
# MIN_REQUESTS requests put ten samples beyond latency_p90_ms.
MIN_TRAIN_CALLS = 2
MIN_SWEEP_CALLS = 2
MIN_REQUESTS = 100
