"""Numerical laboratory for difficulty-aware semantic augmentation of
speaker-style embeddings: streaming per-class covariance statistics,
closed-form expected-loss upper bounds with analytic gradients, a
Monte-Carlo oracle that validates the bounds, a small deterministic
trainer, and verification scoring (EER / minDCF).
"""

from .covariance import (
    ClassStats,
    CovarianceBank,
    DegenerateCovarianceError,
    load_bank,
    quadratic_forms,
    sampler_factor,
    save_bank,
)
from .data import Dataset, SynthSpec, generate, read_dataset, read_embeddings, write_dataset, write_embeddings
from .embedder import TinyEmbedder
from .losses import (
    ClassifierHead,
    LossConfig,
    LossOutput,
    am_softmax,
    daam_softmax,
    dasa_bound,
    difficulty_da,
    difficulty_dy,
    isda_bound,
    lambda_schedule,
    loss_gradient_check,
    margin_bound,
    softmax_ce,
    variant_loss,
)
from .metrics import (
    DcfParams,
    ScoreSet,
    TrialSet,
    build_trials,
    eer_and_min_dcf,
    format_metrics,
    score_trials,
)
from .montecarlo import McReport, MomentReport, mc_expected_ce, mc_expected_margin, moment_identity_check, sample_augmented
from .rng import philox_rng
from .suites import composed_gradcheck, gradcheck_suite, jensen_suite, jensen_suite_passes
from .trainer import (
    MetricsRow,
    SgdNesterov,
    TrainRun,
    TrainSettings,
    TrainingDivergedError,
    load_model,
    save_metrics,
    save_model,
    train,
)

__version__ = "0.1.0"
