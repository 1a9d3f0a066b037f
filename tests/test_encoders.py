"""Architecture contracts: shapes, parameter counts, causality, determinism."""

import numpy as np
import pytest

from seqstate import autodiff as ad
from seqstate import nn
from seqstate.autodiff import Tensor, grad_check
from seqstate.cohort import Trajectory, compute_norm_stats, znormalize
from seqstate.encoders import (D_S_GRID, INPUT_MODES, KINDS,
                               PARAM_COUNT_RANGES, _cde_head, build_encoder,
                               encode_many, encode_trajectory, make_batch,
                               model_forward, predict_next_obs)
from seqstate.synthetic import generate_synthetic


def _normed_trajs(n=30, seed=0):
    cohort = generate_synthetic(max(n, 10), seed)
    stats = compute_norm_stats(cohort)
    return znormalize(cohort, stats).trajectories


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        build_encoder("transformer", 16)
    with pytest.raises(ValueError):
        build_encoder("ae", 0)
    with pytest.raises(ValueError):
        build_encoder("ae", 16, input_mode="pixels")


def test_ae_decoder_width_includes_action():
    model = build_encoder("ae", 64, "obs")
    assert model.params["dec.l1.w"].shape == (64 + 25, 64)


def test_dst_stream_channels_after_augmentation():
    model = build_encoder("dst", 16, "obs")
    assert model.meta["stream_channels"] == 58 + 8
    demog = build_encoder("dst", 16, "obs+demog")
    assert demog.meta["stream_channels"] == 63 + 8


def test_rnn_family_encoder_widths():
    for mode, width in (("obs", 58), ("obs+demog", 63)):
        for kind in ("rnn", "ais"):
            model = build_encoder(kind, 8, mode)
            assert model.params["enc.l1.w"].shape == (width, 64)
    ais = build_encoder("ais", 8, "obs")
    rnn = build_encoder("rnn", 8, "obs")
    assert ais.params["dec.l1.w"].shape == (8 + 25, 64)
    assert rnn.params["dec.l1.w"].shape == (8, 64)


def test_param_counts_within_reference_ranges():
    for kind in KINDS:
        lo, hi = PARAM_COUNT_RANGES[kind]
        for mode in INPUT_MODES:
            for d_s in D_S_GRID:
                count = build_encoder(kind, d_s, mode).param_count()
                assert lo <= count <= hi, (kind, d_s, mode, count)


def test_rnn_d4_count_in_published_band():
    count = build_encoder("rnn", 4, "obs").param_count()
    assert 25_000 <= count <= 338_000


def _permute_future(traj, t_keep, rng):
    idx = np.arange(traj.n_steps)
    tail = idx[t_keep + 1:]
    order = np.concatenate([idx[:t_keep + 1], rng.permutation(tail)])
    return Trajectory(traj.patient_id, traj.obs[order], traj.demog,
                      traj.actions[order], traj.sofa[order],
                      traj.saps2[order], traj.oasis[order], traj.outcome)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d_s", [4, 16])
def test_causality_future_permutation(kind, d_s):
    trajs = _normed_trajs(30, seed=1)
    traj = max(trajs, key=lambda t: t.n_steps)
    assert traj.n_steps >= 6
    model = build_encoder(kind, d_s, "obs", seed=2)
    base = encode_trajectory(model, traj).latents
    rng = np.random.default_rng(3)
    for t_keep in (0, 2, traj.n_steps - 3):
        permuted = _permute_future(traj, t_keep, rng)
        out = encode_trajectory(model, permuted).latents
        assert np.abs(out[:t_keep + 1] - base[:t_keep + 1]).max() < 1e-12


def test_ae_statelessness():
    # identical (obs, previous action) rows map to identical latents
    trajs = _normed_trajs(20, seed=4)
    traj = max(trajs, key=lambda t: t.n_steps)
    obs = traj.obs.copy()
    actions = traj.actions.copy()
    obs[5] = obs[2]
    actions[4] = actions[1]  # previous action of step 5 equals that of step 2
    doctored = Trajectory(traj.patient_id, obs, traj.demog, actions,
                          traj.sofa, traj.saps2, traj.oasis, traj.outcome)
    model = build_encoder("ae", 8, "obs", seed=5)
    lat = encode_trajectory(model, doctored).latents
    assert np.abs(lat[5] - lat[2]).max() < 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_encode_shape_and_finiteness(kind):
    trajs = _normed_trajs(12, seed=6)
    model = build_encoder(kind, 16, "obs", seed=7)
    for traj in trajs[:4]:
        lat = encode_trajectory(model, traj).latents
        assert lat.shape == (traj.n_steps, 16)
        assert np.all(np.isfinite(lat))


def _truncated(traj, n_steps, patient_id):
    return Trajectory(patient_id, traj.obs[:n_steps], traj.demog,
                      traj.actions[:n_steps], traj.sofa[:n_steps],
                      traj.saps2[:n_steps], traj.oasis[:n_steps], traj.outcome)


@pytest.mark.parametrize("mode", INPUT_MODES)
@pytest.mark.parametrize("kind", KINDS)
def test_encode_many_matches_per_patient(kind, mode):
    trajs = _normed_trajs(12, seed=10)
    trajs.append(_truncated(trajs[0], 1, "one-step"))
    trajs = [trajs[i] for i in np.random.default_rng(11).permutation(len(trajs))]
    assert len({t.n_steps for t in trajs}) >= 4
    model = build_encoder(kind, 4, mode, seed=12)
    batched = encode_many(model, trajs)
    assert len(batched) == len(trajs)
    for traj, lat in zip(trajs, batched):
        ref = encode_trajectory(model, traj)
        assert ref.trajectory_id == traj.patient_id
        assert lat.shape == (traj.n_steps, 4)
        assert np.abs(lat - ref.latents).max() <= 1e-12


@pytest.mark.parametrize("mode", INPUT_MODES)
@pytest.mark.parametrize("kind", KINDS)
def test_model_forward_padded_cells_are_zero(kind, mode):
    # stays of 1, 5, 3 and 5 steps in batch order, so the packed order
    # differs from it and two stays tie on length
    trajs = [t for t in _normed_trajs(20, seed=15) if t.n_steps >= 5][:4]
    trajs = [_truncated(t, n, f"p{i}") for i, (t, n) in enumerate(zip(trajs, (1, 5, 3, 5)))]
    model = build_encoder(kind, 4, mode, seed=16)
    batch = make_batch(trajs, mode)
    with ad.no_grad():
        out = model_forward(model, batch)
    for i, traj in enumerate(trajs):
        n = traj.n_steps
        for name, arr in (("latents", out.latents.data), ("preds", out.preds.data)):
            assert np.all(arr[i, n:] == 0.0), (name, i)
            assert np.all(np.isfinite(arr[i, :n])) and np.any(arr[i, :n] != 0.0), (name, i)
        alone = encode_trajectory(model, traj).latents
        assert np.abs(out.latents.data[i, :n] - alone).max() <= 1e-12 * np.abs(alone).max()


def test_encode_many_names_the_non_finite_patient():
    trajs = _normed_trajs(12, seed=13)
    bad = trajs[5]
    obs = bad.obs.copy()
    obs[1, 0] = np.inf
    trajs[5] = Trajectory("patient-inf", obs, bad.demog, bad.actions, bad.sofa,
                          bad.saps2, bad.oasis, bad.outcome)
    model = build_encoder("ae", 4, "obs", seed=14)
    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError, match="patient-inf"):
            encode_many(model, trajs)
        with pytest.raises(FloatingPointError, match="patient-inf"):
            encode_trajectory(model, trajs[5])


@pytest.mark.parametrize("kind", KINDS)
def test_predict_next_obs_width(kind):
    trajs = _normed_trajs(12, seed=8)
    model = build_encoder(kind, 4, "obs", seed=9)
    traj = trajs[0]
    lat = encode_trajectory(model, traj).latents
    pred = predict_next_obs(model, lat, int(traj.actions[-1]))
    assert pred.shape == (33,)
    assert np.all(np.isfinite(pred))
    single = predict_next_obs(model, lat[0], int(traj.actions[0]))
    assert single.shape == (33,)


def test_predict_rejects_wrong_latent_width():
    model = build_encoder("ae", 8, "obs")
    with pytest.raises(ValueError):
        predict_next_obs(model, np.zeros(9), 0)


@pytest.mark.parametrize("action_id", [-1, 25])
def test_predict_rejects_action_outside_range(action_id):
    model = build_encoder("ais", 8, "obs")
    with pytest.raises(ValueError, match=r"outside \[0, 24\]"):
        predict_next_obs(model, np.zeros(8), action_id)


def test_ais_zero_action_acts_on_padded_latent():
    # zeroing the action one-hot makes the decoder see [latent, 0]
    model = build_encoder("ais", 8, "obs", seed=10)
    rng = np.random.default_rng(11)
    latent = rng.normal(size=8)
    p = model.params
    with ad.no_grad():
        row = Tensor(np.concatenate([latent, np.zeros(25)])[None, :])
        h = ad.relu(nn.dense(row, p["dec.l1.w"], p["dec.l1.b"]))
        h = ad.relu(nn.dense(h, p["dec.l2.w"], p["dec.l2.b"]))
        manual = nn.dense(h, p["dec.l3.w"], p["dec.l3.b"]).data[0]
    # equivalently: latent through the latent-block weights only
    with ad.no_grad():
        w_lat = p["dec.l1.w"].data[:8]
        h2 = np.maximum(latent @ w_lat + p["dec.l1.b"].data, 0.0)
        h2 = np.maximum(h2 @ p["dec.l2.w"].data + p["dec.l2.b"].data, 0.0)
        manual2 = h2 @ p["dec.l3.w"].data + p["dec.l3.b"].data
    np.testing.assert_allclose(manual, manual2, atol=1e-12)


def test_mode_width_mismatch_raises():
    trajs = _normed_trajs(10, seed=12)
    model = build_encoder("ae", 8, "obs+demog", seed=13)
    batch = make_batch(trajs[:4], "obs")
    with pytest.raises(ValueError):
        model_forward(model, batch)


def test_build_deterministic_in_seed():
    a = build_encoder("ddm", 16, "obs", seed=21)
    b = build_encoder("ddm", 16, "obs", seed=21)
    c = build_encoder("ddm", 16, "obs", seed=22)
    for k in a.params.names():
        assert np.array_equal(a.params[k].data, b.params[k].data)
    assert any(not np.array_equal(a.params[k].data, c.params[k].data)
               for k in a.params.names())


def test_batch_masks_and_targets():
    trajs = _normed_trajs(12, seed=14)[:5]
    batch = make_batch(trajs, "obs")
    for i, t in enumerate(trajs):
        assert batch.mask[i].sum() == t.n_steps
        assert batch.pair_mask[i].sum() == t.n_steps - 1
        np.testing.assert_allclose(batch.obs_next[i, :t.n_steps - 1], t.obs[1:])
        # previous-action channel is shifted: row 0 is all zeros
        assert batch.a_prev[i, 0].sum() == 0.0
        np.testing.assert_allclose(batch.a_prev[i, 1:t.n_steps],
                                   batch.a_curr[i, :t.n_steps - 1])


def test_cde_head_grad_checks():
    rng = np.random.default_rng(21)
    d_s, channels, width = 2, 3, 4
    pre = rng.normal(size=(3, width))
    w = rng.normal(size=(width, d_s * channels)) * 0.5
    b = rng.normal(size=d_s * channels) * 0.5
    xdot = rng.normal(size=(3, channels))
    weight = Tensor(rng.normal(size=(3, d_s)))

    def loss(pre_t, w_t, b_t):
        return ad.tsum(ad.mul(_cde_head(pre_t, w_t, b_t, xdot, d_s, channels), weight))

    assert grad_check(lambda t: loss(t, Tensor(w), Tensor(b)), pre) < 1e-6
    assert grad_check(lambda t: loss(Tensor(pre), t, Tensor(b)), w) < 1e-6
    assert grad_check(lambda t: loss(Tensor(pre), Tensor(w), t), b) < 1e-6
