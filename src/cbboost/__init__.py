"""Boosting that weighs each training label by how much it can be trusted.

The package provides a plain exponential-loss booster over decision stumps,
a confidence-weighted variant that stays useful when a fraction of the
training labels are flipped, estimators for per-label confidence (nearest
neighbor votes or class-conditional Gaussians behind a noise-aware prior),
synthetic two-class generators with known ground truth, and a benchmark
harness plus CLI gluing those together.

Import names from the submodule that defines them: cbboost.dataset,
cbboost.synth, cbboost.stump, cbboost.confidence, cbboost.boost,
cbboost.harness and cbboost.cli.
"""

__version__ = "0.1.0"
