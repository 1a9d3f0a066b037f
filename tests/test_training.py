"""Training loop: objective composition, histories, checkpointing, determinism."""

import numpy as np
import pytest

from seqstate import autodiff as ad
from seqstate.cohort import (SplitSpec, Trajectory, compute_norm_stats,
                             stratified_split, znormalize)
from seqstate.encoders import KINDS, build_encoder, make_batch
from seqstate.synthetic import generate_synthetic
from seqstate.training import (TrainConfig, TrainingDiverged, batch_objective,
                               default_train_config, desk_train_config,
                               evaluate_mse, evaluate_rho,
                               mean_predictor_baseline, train_encoder)


def _splits(n=200, seed=0, split_seed=1):
    cohort = generate_synthetic(n, seed)
    train, val, test = stratified_split(cohort, SplitSpec(seed=split_seed))
    stats = compute_norm_stats(train)
    return (znormalize(train, stats).trajectories,
            znormalize(val, stats).trajectories,
            znormalize(test, stats).trajectories)


def _directional_derivative(model, batch, regularize, rng,
                            steps=(1e-4, 1e-5, 1e-6)):
    """The loss's derivative along a random unit direction over all
    parameters, from backward() and by central differences at each step
    (a large step may cross a ReLU kink, a small one loses digits)."""
    tensors = dict(model.params.items())
    theta = {n: t.data.copy() for n, t in tensors.items()}
    v = {n: rng.standard_normal(a.shape) for n, a in theta.items()}
    norm = np.sqrt(sum(float((d * d).sum()) for d in v.values()))
    model.params.zero_grad()
    batch_objective(model, batch, regularize)[0].backward()
    analytic = sum(float((t.grad * v[n]).sum()) for n, t in tensors.items()
                   if t.grad is not None) / norm

    def loss_at(step):
        for n, t in tensors.items():
            t.data = theta[n] + (step / norm) * v[n]
        with ad.no_grad():
            return float(batch_objective(model, batch, regularize)[0].data)

    numeric = [(loss_at(h) - loss_at(-h)) / (2.0 * h) for h in steps]
    for n, t in tensors.items():
        t.data = theta[n]
    return analytic, numeric


@pytest.mark.parametrize("regularize", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_batch_objective_directional_gradient(kind, regularize):
    train, _, _ = _splits(60, seed=4)
    long_stays = [t for t in train if t.n_steps >= 4][:2]
    # two patients, 4 and 3 steps, so the shorter one is padded
    trajs = [Trajectory(t.patient_id, t.obs[:n], t.demog, t.actions[:n],
                        t.sofa[:n], t.saps2[:n], t.oasis[:n], t.outcome)
             for t, n in zip(long_stays, (4, 3))]
    model = build_encoder(kind, 2, "obs", seed=5)
    analytic, numeric = _directional_derivative(
        model, make_batch(trajs, "obs"), regularize, np.random.default_rng(6))
    best = min(numeric, key=lambda d: abs(d - analytic))
    assert abs(best - analytic) <= 1e-6 * max(abs(analytic), abs(best), 1e-12), \
        (analytic, numeric)


def test_default_configs_follow_reference_schedules():
    assert default_train_config("rnn", 16).lr == 1e-4
    assert default_train_config("rnn", 16).epochs == 600
    assert default_train_config("ais", 64).lr == 5e-4
    assert default_train_config("dst", 8).epochs == 50
    assert default_train_config("cde", 8).lr == 2e-4
    assert default_train_config("cde", 8).epochs == 200
    assert default_train_config("ode", 8).epochs == 100
    # dimension-dependent schedule for the decoupled dynamics model
    assert default_train_config("ddm", 4).lr == 1e-3
    assert default_train_config("ddm", 32).lr == 5e-4
    assert default_train_config("ddm", 128).lr == 1e-4


def test_lambda_defaults_per_kind():
    assert build_encoder("rnn", 4).lambdas == (100.0, 100.0, 100.0)
    assert build_encoder("ddm", 4).lambdas == (0.25, 0.25, 0.25)
    assert build_encoder("dst", 4).lambdas == (1.0, 1.0, 1.0)


def test_zero_lambda_reduces_to_prediction_mse():
    train, _, _ = _splits(120, seed=1)
    model = build_encoder("ais", 8, "obs", seed=0, lambdas=(0.0, 0.0, 0.0))
    batch = make_batch(train[:16], "obs")
    loss_reg, mse_reg, _, _ = batch_objective(model, batch, regularize=True)
    loss_plain, mse_plain, _, _ = batch_objective(model, batch, regularize=False)
    assert float(loss_reg.data) == float(loss_plain.data)
    assert mse_reg == mse_plain


def test_regularizer_shifts_objective_linearly():
    # three unit correlations at lambda 100 each lower the loss by 300
    train, _, _ = _splits(120, seed=2)
    model = build_encoder("ae", 4, "obs", seed=0)
    batch = make_batch(train[:16], "obs")
    loss_plain, _, _, _ = batch_objective(model, batch, regularize=False)
    loss_reg, _, _, rho = batch_objective(model, batch, regularize=True)
    expected = float(loss_plain.data) - sum(
        100.0 * rho[name] for name in ("sofa", "saps2", "oasis")
    )
    assert float(loss_reg.data) == pytest.approx(expected, abs=1e-12)


def test_training_improves_and_checkpoints_best():
    train, val, _ = _splits(200, seed=3)
    model = build_encoder("ais", 8, "obs", seed=1)
    cfg = desk_train_config("ais", 8, epochs=10, seed=2)
    result = train_encoder(model, train, val, cfg)
    assert len(result.history) == 10
    assert result.best_val_mse <= min(r.val_mse for r in result.history)
    assert result.best_val_mse < result.history[0].val_mse
    # returned parameters reproduce the recorded best validation MSE
    assert evaluate_mse(model, val) == pytest.approx(result.best_val_mse)


def test_training_beats_mean_predictor():
    train, val, _ = _splits(200, seed=4)
    baseline = mean_predictor_baseline(train, val)
    model = build_encoder("ae", 8, "obs", seed=3)
    result = train_encoder(model, train, val, desk_train_config("ae", 8, epochs=10, seed=4))
    assert result.best_val_mse < baseline


def test_bit_identical_retrain():
    train, val, _ = _splits(80, seed=5)
    snaps = []
    for _ in range(2):
        model = build_encoder("rnn", 4, "obs", seed=6)
        train_encoder(model, train, val, desk_train_config("rnn", 4, epochs=3, seed=7))
        snaps.append(model.params.snapshot())
    for k in snaps[0]:
        assert np.array_equal(snaps[0][k], snaps[1][k])


def test_divergence_records_epoch():
    train, val, _ = _splits(100, seed=6)
    model = build_encoder("rnn", 4, "obs", seed=8)
    model.params["enc.l1.w"].data[0, 0] = np.nan  # poisoned forward pass
    with pytest.raises(TrainingDiverged) as exc_info:
        train_encoder(model, train, val, TrainConfig(epochs=5, lr=1e-4, seed=0))
    assert exc_info.value.epoch == 0


def test_split_overlap_rejected():
    train, val, _ = _splits(100, seed=7)
    model = build_encoder("ae", 4, "obs", seed=9)
    with pytest.raises(ValueError):
        train_encoder(model, train, train, TrainConfig(epochs=1, lr=1e-4))


def test_regularized_history_logs_rho():
    train, val, _ = _splits(100, seed=8)
    model = build_encoder("ae", 4, "obs", seed=10)
    cfg = desk_train_config("ae", 4, epochs=3, seed=11, regularize=True)
    result = train_encoder(model, train, val, cfg)
    for rec in result.history:
        assert set(rec.rho.keys()) == {"sofa", "saps2", "oasis"}
        assert all(np.isfinite(v) for v in rec.rho.values())


def test_evaluate_rho_signed_mean_bounds():
    train, val, _ = _splits(100, seed=9)
    model = build_encoder("ae", 4, "obs", seed=12)
    rho = evaluate_rho(model, val)
    assert set(rho.keys()) == {"sofa", "saps2", "oasis"}
    for v in rho.values():
        assert -1.0 <= v <= 1.0


def test_lambda_scale_override():
    train, val, _ = _splits(100, seed=10)
    model = build_encoder("ae", 4, "obs", seed=13)
    cfg = desk_train_config("ae", 4, epochs=1, seed=14, regularize=True,
                            lambda_scale=0.5)
    train_encoder(model, train, val, cfg)
    assert model.lambdas == (0.5, 0.5, 0.5)
