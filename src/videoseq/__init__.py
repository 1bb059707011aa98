"""Temporal aggregation models for pre-extracted frame-level video features.

A small numpy-based library for multi-label video classification from
per-frame visual and audio feature vectors: a reverse-mode autodiff core,
recurrent and convolutional sequence encoders with attention pooling,
average-pooling and VLAD baselines, GAP@20 evaluation, and a deterministic
training harness with a CLI.
"""

from .autodiff import (
    Tape,
    Tensor,
    TimeMask,
    backward,
    batchnorm_time,
    concat,
    conv1d_same,
    linear,
    masked_mean_time,
    relu,
    sigmoid,
)
from .dataio import (
    DatasetHeader,
    VideoRecord,
    generate_synthetic,
    load_records,
    pad_batch,
    read_records,
    write_records,
)
from .metrics import (
    GapResult,
    PredictionSet,
    gap_at_k,
    read_prediction_file,
    topk_predictions,
    write_prediction_file,
)
from .models import (
    ModelSpec,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from .recurrent import (
    attention_pool,
    run_bidirectional,
)
from .vlad import Codebook, kmeans_fit, load_codebook, save_codebook, vlad_encode
from .errors import (
    ConfigurationError,
    ContractError,
    CorruptionError,
    DimensionError,
    FormatError,
    InputError,
    PreconditionError,
    StateError,
    TrainingError,
    ValidationError,
    VideoseqError,
)

__version__ = "1.0.0"
