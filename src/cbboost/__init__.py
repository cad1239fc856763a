"""Boosting that weighs each training label by how much it can be trusted.

The package provides a plain exponential-loss booster over decision stumps,
a confidence-weighted variant that stays useful when a fraction of the
training labels are flipped, estimators for per-label confidence (nearest
neighbor votes or class-conditional Gaussians behind a noise-aware prior),
synthetic two-class generators with known ground truth, and a benchmark
harness plus CLI gluing those together.
"""

from .dataset import (
    Dataset,
    NoiseMask,
    inject_label_noise,
    load_csv,
    save_csv,
    split,
)
from .synth import SynthSpec, bayes_label, gen_normal, gen_sine, generate
from .stump import Stump, train_stump
from .confidence import (
    ConfidenceVector,
    FilterReport,
    FilterRound,
    bayes_confidence,
    confidence_quality,
    estimate_confidence,
    knn_confidence,
    noise_filter,
)
from .boost import (
    BoostConfig,
    BoostTrace,
    Ensemble,
    TraceRow,
    check_propositions,
    empirical_risk,
    ensemble_from_json,
    ensemble_to_json,
    load_ensemble,
    predict,
    save_ensemble,
    score,
    train_adaboost,
    train_cb_adaboost,
)
from .harness import (
    ExperimentConfig,
    ResultsTable,
    derive_seed,
    run_corr,
    run_disc,
    run_experiment,
    table_to_csv,
    table_to_json,
    test_error,
    weight_trace_groups,
)

__version__ = "0.1.0"
