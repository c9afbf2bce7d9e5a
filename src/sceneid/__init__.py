"""Speech-robust acoustic scene classification.

Pipeline: WAV ingestion -> MFCC/SDC features (optionally computed from a
tracked noise floor) -> GMM-UBM sufficient statistics -> iVector extraction
-> regularized Gaussian backend. Includes an SBR-exact mixer for
multi-condition training and a CLI (`sceneid`) over the whole workflow.
"""

from .audio import (
    AudioBuffer,
    FrameConfig,
    frame_signal,
    read_wav,
    resample,
)
from .backend import BackendModel, score, train_backend
from .config import PipelineConfig
from .errors import SceneidError
from .features import (
    FeatureConfig,
    SdcConfig,
    append_sdc,
    extract_features,
    extract_features_many,
    make_mel_bank,
    mfcc,
    power_spectrogram,
)
from .gmm import GmmModel, SufficientStats, accumulate_stats, log_likelihood, train_ubm
from .ivector import TvMatrix, extract_ivector, init_tv_pca, train_tv
from .manifest import CorpusManifest, ManifestEntry
from .mixer import (
    MixSpec,
    active_speech_level,
    mix_at_sbr,
    rms_level,
)
from .noisefloor import SppParams, noise_floor_spectrogram, track_noise_floor
from .pipeline import (
    EvalReport,
    ModelBundle,
    build_multicondition_corpus,
    run_evaluation,
    run_sbr_sweep,
    run_training,
)

__version__ = "0.1.0"
