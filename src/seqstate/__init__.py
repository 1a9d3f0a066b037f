"""seqstate: sequential latent-state representations and batch-constrained
treatment policies for partially observed patient trajectories."""

from .memtune import tune_allocator

tune_allocator()

from .cohort import (Cohort, SplitSpec, Trajectory, compute_norm_stats,
                     decode_action, encode_action, load_cohort, save_cohort,
                     stratified_split, surrogate_acuity, znormalize)
from .encoders import (EncoderModel, LatentSequence, build_encoder,
                       encode_many, encode_trajectory, predict_next_obs)
from .policy import (BCPolicy, QPolicy, TransitionBuffer, bcq_filter,
                     behavior_clone, build_buffer, train_bcq, wis_evaluate)
from .synthetic import SyntheticConfig, generate_synthetic
from .training import (TrainConfig, default_train_config, desk_train_config,
                       train_encoder)

__version__ = "0.1.0"

__all__ = [
    "Cohort", "SplitSpec", "Trajectory", "compute_norm_stats",
    "decode_action", "encode_action", "load_cohort", "save_cohort",
    "stratified_split", "surrogate_acuity", "znormalize",
    "EncoderModel", "LatentSequence", "build_encoder", "encode_many",
    "encode_trajectory", "predict_next_obs",
    "BCPolicy", "QPolicy", "TransitionBuffer", "bcq_filter", "behavior_clone",
    "build_buffer", "train_bcq", "wis_evaluate",
    "SyntheticConfig", "generate_synthetic",
    "TrainConfig", "default_train_config", "desk_train_config",
    "train_encoder",
]
