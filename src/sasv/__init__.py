"""Spoofing-robust speaker verification back-end.

Calibrates and fuses speaker/spoof detector scores under Bayes decision
theory, evaluates with the a-DCF / EER family and jointly trains lightweight
scoring heads for a differentiable a-DCF objective.
"""

from .core import (CostModel, DEFAULT_COST_MODEL, EmbeddingStore, ScoreTable,
                   TrialLabel, TrialRecord, derive_beta, derive_rho,
                   label_codes)
from .decision import (CalibrationParams, FusionConfig, asv_bayes_threshold,
                       bayes_accept, calibrate, fit_calibration, fuse,
                       fuse_linear, fuse_nonlinear, fuse_vjp, sigmoid)
from .losses import (LossWeights, SoftAdcfConfig, bce, combined_loss_v1,
                     combined_loss_v2, soft_adcf)
from .metrics import (AdcfReport, ErrorRates, actual_adcf, adcf_at,
                      det_points, eer, error_rates, min_adcf)
from .train import (Checkpoint, ModelParams, OptimizerState, TrainConfig,
                    adam_step, init_model, pretrain_heads, score_trials,
                    sgd_step, train_joint, tune_fusion_rho)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
