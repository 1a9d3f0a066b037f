"""Next-observation training loop with optional acuity-score regularization.

The objective per batch is

    loss = masked MSE over (t -> t+1) pairs
         + inverse-model cross-entropy          (decoupled dynamics only)
         - lambda_1 rho_sofa - lambda_2 rho_saps2 - lambda_3 rho_oasis

where each rho is the mean over latent dimensions of the Pearson
correlation between that latent column and the acuity score, pooled over
the valid steps of the batch. Validation MSE selects the checkpoint that
is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .cohort import N_OBS, Trajectory
from .encoders import Batch, EncoderModel, infer_many, make_batch, model_forward
from .optim import adam_init, adam_step, clip_global_norm

GRAD_CLIP_NORM = 10.0

# per-architecture settings from the reference study; the decoupled
# dynamics model wants a dimension-dependent learning rate
REFERENCE_EPOCHS = {"rnn": 600, "ais": 600, "ae": 600, "ddm": 600,
                "dst": 50, "ode": 100, "cde": 200}
REFERENCE_LR = {"rnn": 1e-4, "ais": 5e-4, "ae": 5e-4,
            "dst": 1e-3, "ode": 1e-3, "cde": 2e-4}
DDM_LR_BY_DS = {4: 1e-3, 8: 1e-4, 16: 1e-4, 32: 5e-4,
                64: 1e-4, 128: 1e-4, 256: 1e-4}

# the desk schedule: few epochs, one solver substep per bin
DESK_EPOCHS = 50
DESK_SUBSTEPS = 1

SCORE_NAMES = ("sofa", "saps2", "oasis")


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, value: float):
        super().__init__(f"non-finite loss at epoch {epoch} (value {value})")
        self.epoch = epoch


@dataclass
class TrainConfig:
    epochs: int
    lr: float
    batch_size: int = 128
    seed: int = 0
    regularize: bool = False
    lambda_scale: float | None = None   # None keeps the per-kind default
    solver_substeps: int | None = None  # None keeps the model default (4)

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs, "lr": self.lr, "batch_size": self.batch_size,
            "seed": self.seed, "regularize": self.regularize,
            "lambda_scale": self.lambda_scale,
            "solver_substeps": self.solver_substeps,
        }


def default_train_config(kind: str, d_s: int, **overrides) -> TrainConfig:
    """Reference-scale schedule for one architecture."""
    lr = DDM_LR_BY_DS.get(d_s, 1e-4) if kind == "ddm" else REFERENCE_LR[kind]
    cfg = TrainConfig(epochs=REFERENCE_EPOCHS[kind], lr=lr)
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def desk_train_config(kind: str, d_s: int, epochs: int = DESK_EPOCHS,
                      **overrides) -> TrainConfig:
    """Desk-scale schedule: capped epochs, single solver substep per bin."""
    cfg = default_train_config(kind, d_s)
    cfg.epochs = epochs
    cfg.solver_substeps = DESK_SUBSTEPS
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


@dataclass
class EpochRecord:
    epoch: int
    train_mse: float
    val_mse: float
    rho: dict[str, float] = field(default_factory=dict)


@dataclass
class TrainResult:
    model: EncoderModel
    history: list[EpochRecord]
    best_epoch: int
    best_val_mse: float


def _masked_mse(preds: Tensor, batch: Batch) -> tuple[Tensor, float]:
    n_pairs = float(batch.pair_mask.sum())
    if n_pairs == 0:  # batch of single-step trajectories: nothing to predict
        return Tensor(0.0), 0.0
    diff = ad.sub(preds, Tensor(batch.obs_next))
    masked = ad.mul(ad.mul(diff, diff), Tensor(batch.pair_mask[:, :, None]))
    return ad.mul(ad.tsum(masked), 1.0 / (n_pairs * N_OBS)), n_pairs


def _batch_rho(latents: Tensor, batch: Batch) -> dict[str, Tensor]:
    """Mean signed per-dimension correlation against each acuity score."""
    bsz, t_max = batch.shape
    valid = np.flatnonzero(batch.mask.reshape(-1))
    if valid.size < 2:
        return {}
    rows = ad.reshape(latents, (bsz * t_max, latents.shape[2]))[valid]
    out = {}
    for k, name in enumerate(SCORE_NAMES):
        score = batch.scores[:, :, k].reshape(-1)[valid]
        rho_vec, degenerate = nn.column_pearson(rows, score)
        live = max(int((~degenerate).sum()), 1)
        out[name] = ad.mul(ad.tsum(rho_vec), 1.0 / live)
    return out


def batch_objective(model: EncoderModel, batch: Batch,
                    regularize: bool) -> tuple[Tensor, float, float, dict[str, float]]:
    """Returns (loss, batch mse value, n_pairs, rho values)."""
    out = model_forward(model, batch)
    loss, n_pairs = _masked_mse(out.preds, batch)
    mse_value = float(loss.data)
    if out.aux_ce is not None:
        loss = ad.add(loss, out.aux_ce)
    rho_values: dict[str, float] = {}
    if regularize:
        rho_terms = _batch_rho(out.latents, batch)
        for lam, name in zip(model.lambdas, SCORE_NAMES):
            if name in rho_terms:
                loss = ad.sub(loss, ad.mul(rho_terms[name], lam))
                rho_values[name] = float(rho_terms[name].data)
    return loss, mse_value, n_pairs, rho_values


def evaluate_mse(model: EncoderModel, trajs: list[Trajectory]) -> float:
    """Prediction MSE over all (t -> t+1) pairs, inference mode."""
    pairs = sum(t.n_steps - 1 for t in trajs)
    if pairs == 0:
        return float("nan")
    _latents, preds = infer_many(model, trajs)
    err = np.concatenate(preds) - np.concatenate([t.obs[1:] for t in trajs])
    return float((err * err).sum()) / (pairs * N_OBS)


def latent_rho(latents: list[np.ndarray], trajs: list[Trajectory]) -> dict[str, float]:
    """Per score, the mean over all latent columns of the column's Pearson
    correlation with the score on the pooled steps of ``trajs``, whose
    latent rows ``latents`` holds; a degenerate column counts as 0."""
    pooled = Tensor(np.concatenate(latents))
    out = {}
    with ad.no_grad():
        for name in SCORE_NAMES:
            score = np.concatenate([getattr(t, name) for t in trajs])
            out[name] = float(nn.column_pearson(pooled, score)[0].data.mean())
    return out


def evaluate_rho(model: EncoderModel, trajs: list[Trajectory]) -> dict[str, float]:
    """Signed mean per-dimension correlation on pooled steps, inference mode."""
    return latent_rho(infer_many(model, trajs)[0], trajs)


def mean_predictor_baseline(train_trajs: list[Trajectory],
                            eval_trajs: list[Trajectory]) -> float:
    """MSE of predicting the training-split mean next observation."""
    train_next = np.concatenate([t.obs[1:] for t in train_trajs if t.n_steps > 1])
    mean_next = train_next.mean(axis=0)
    total, count = 0.0, 0
    for t in eval_trajs:
        if t.n_steps > 1:
            total += float(((t.obs[1:] - mean_next) ** 2).sum())
            count += t.n_steps - 1
    return total / (count * N_OBS)


def train_encoder(model: EncoderModel, train_trajs: list[Trajectory],
                  val_trajs: list[Trajectory], config: TrainConfig) -> TrainResult:
    """Train in place; returns the best-validation-MSE checkpoint."""
    if not train_trajs or not val_trajs:
        raise ValueError("training and validation splits must be nonempty")
    if config.epochs < 1 or config.batch_size < 1:
        raise ValueError("epochs and batch_size must be at least 1")
    train_ids = {t.patient_id for t in train_trajs}
    if any(t.patient_id in train_ids for t in val_trajs):
        raise ValueError("training and validation splits overlap")
    if config.solver_substeps is not None and "substeps" in model.meta:
        model.meta["substeps"] = config.solver_substeps
    if config.lambda_scale is not None:
        model.lambdas = (config.lambda_scale,) * 3

    rng = np.random.default_rng(config.seed)
    state = adam_init(model.params, config.lr)
    history: list[EpochRecord] = []
    best_val = float("inf")
    best_epoch = -1
    best_state: dict[str, np.ndarray] | None = None

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_trajs))
        sum_mse, sum_pairs = 0.0, 0.0
        rho_sums: dict[str, float] = dict.fromkeys(SCORE_NAMES, 0.0)
        n_batches = 0
        for lo in range(0, len(order), config.batch_size):
            chunk = [train_trajs[i] for i in order[lo:lo + config.batch_size]]
            batch = make_batch(chunk, model.input_mode)
            model.params.zero_grad()
            loss, mse_value, n_pairs, rho_values = batch_objective(
                model, batch, config.regularize
            )
            if not np.isfinite(float(loss.data)):
                raise TrainingDiverged(epoch, float(loss.data))
            loss.backward()
            clip_global_norm(model.params, GRAD_CLIP_NORM)
            adam_step(state, model.params)
            sum_mse += mse_value * n_pairs
            sum_pairs += n_pairs
            for name, v in rho_values.items():
                rho_sums[name] += v
            n_batches += 1

        val_mse = evaluate_mse(model, val_trajs)
        if not np.isfinite(val_mse):
            raise TrainingDiverged(epoch, val_mse)
        record = EpochRecord(
            epoch=epoch,
            train_mse=sum_mse / max(sum_pairs, 1.0),
            val_mse=val_mse,
            rho={k: rho_sums[k] / n_batches for k in SCORE_NAMES}
            if config.regularize else {},
        )
        history.append(record)
        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            best_state = model.params.snapshot()

    if best_state is not None:
        model.params.load(best_state)
    return TrainResult(model=model, history=history,
                       best_epoch=best_epoch, best_val_mse=best_val)
