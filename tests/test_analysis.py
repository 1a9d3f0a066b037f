"""PCA, correlation tables, endpoint projections, sweep aggregation."""

import numpy as np
import pytest

from seqstate.analysis import (REFERENCE_BEST, SweepRow, aggregate_sweep,
                               correlation_table, endpoint_projection,
                               pca_fit, pca_project, pooled_latents)
from seqstate.cohort import Trajectory, compute_norm_stats, znormalize
from seqstate.encoders import build_encoder, encode_many, encode_trajectory
from seqstate.synthetic import generate_synthetic


def _setup(n=40, seed=0):
    cohort = generate_synthetic(n, seed)
    stats = compute_norm_stats(cohort)
    return znormalize(cohort, stats).trajectories


# -- PCA --------------------------------------------------------------------------


def test_pca_rank_one_data():
    rng = np.random.default_rng(0)
    direction = np.array([1.0, 2.0, -1.0])
    x = np.outer(rng.normal(size=50), direction) + 0.5
    model = pca_fit(x, k=2)
    assert model.explained_variance_ratio[0] >= 0.999


def test_pca_projects_mean_to_origin():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 5))
    model = pca_fit(x, k=3)
    proj = pca_project(model, x.mean(axis=0)[None, :])
    np.testing.assert_allclose(proj, 0.0, atol=1e-12)


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 6))
    model = pca_fit(x, k=6)
    proj = pca_project(model, x)
    recon = proj @ model.components + model.mean
    assert np.abs(recon - x).max() < 1e-10


def test_pca_components_orthonormal_ratios_sorted():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
    model = pca_fit(x, k=4)
    gram = model.components @ model.components.T
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-9)
    ratios = model.explained_variance_ratio
    assert np.all(np.diff(ratios) <= 1e-12)
    assert ratios.sum() <= 1.0 + 1e-12


def test_pca_variance_invariant_under_rotation():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(60, 4)) * np.array([2.0, 1.0, 0.5, 0.2])
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    a = pca_fit(x, k=3).explained_variance_ratio
    b = pca_fit(x @ q, k=3).explained_variance_ratio
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_pca_validation():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        pca_fit(rng.normal(size=(10, 3)), k=4)
    with pytest.raises(ValueError):
        pca_fit(rng.normal(size=(3, 5)), k=4)


# -- correlation table ---------------------------------------------------------------


def test_correlation_entries_bounded():
    trajs = _setup(30, seed=1)
    models = {"a": build_encoder("ae", 4, "obs", seed=0),
              "b": build_encoder("rnn", 4, "obs", seed=1)}
    table = correlation_table(
        {name: encode_many(m, trajs) for name, m in models.items()}, trajs)
    for row in table.values():
        for v in row.values():
            assert -1.0 <= v <= 1.0


def test_correlation_replicated_score_is_one():
    # one-dimensional latent planted as the sofa column correlates at 1
    trajs = _setup(20, seed=2)
    model = build_encoder("ae", 1, "obs", seed=3)
    planted = []
    for t in trajs:
        lat = encode_trajectory(model, t).latents[:, 0]
        planted.append(Trajectory(t.patient_id, t.obs, t.demog, t.actions,
                                  lat.copy(), t.saps2, t.oasis, t.outcome))
    table = correlation_table({"planted": encode_many(model, planted)}, planted)
    assert table["planted"]["sofa"] == pytest.approx(1.0, abs=1e-9)


def test_correlation_null_noise_is_small():
    rng = np.random.default_rng(6)
    n = 4000
    lat = rng.normal(size=(n, 8))
    score = rng.normal(size=n)
    rhos = [float(np.corrcoef(lat[:, j], score)[0, 1]) for j in range(8)]
    assert abs(np.mean(rhos)) < 0.1


def test_correlation_table_validation():
    with pytest.raises(ValueError):
        correlation_table({}, [])


# -- endpoint projection ----------------------------------------------------------------


def test_endpoint_projection_rows_and_recomputation():
    trajs = _setup(25, seed=3)
    model = build_encoder("ae", 4, "obs", seed=4)
    lats = pooled_latents(model, trajs)
    pca = pca_fit(lats, k=2)
    rows = endpoint_projection(encode_many(model, trajs), trajs, pca)
    multi = sum(1 for t in trajs if t.n_steps >= 2)
    single = sum(1 for t in trajs if t.n_steps == 1)
    assert len(rows) == 2 * multi + single
    # recompute one patient's projection by hand
    target = trajs[0]
    lat = encode_trajectory(model, target).latents
    manual = pca_project(pca, lat)
    got = [r for r in rows if r["patient_id"] == target.patient_id]
    assert got[0]["pc1"] == pytest.approx(manual[0, 0])
    assert got[1]["pc1"] == pytest.approx(manual[-1, 0])
    assert got[0]["outcome"] == target.outcome


def test_endpoint_projection_single_step_patient():
    trajs = _setup(15, seed=4)
    t0 = trajs[0]
    stub = Trajectory(t0.patient_id, t0.obs[:1], t0.demog, t0.actions[:1],
                      t0.sofa[:1], t0.saps2[:1], t0.oasis[:1], t0.outcome)
    model = build_encoder("ae", 4, "obs", seed=5)
    lats = pooled_latents(model, trajs)
    pca = pca_fit(lats, k=2)
    rows = endpoint_projection(encode_many(model, [stub]), [stub], pca)
    assert len(rows) == 1
    assert rows[0]["which"] == "first"


# -- sweep aggregation -------------------------------------------------------------------


def test_aggregate_single_run():
    out = aggregate_sweep([SweepRow("ae", 4, "obs", False, 0, 0.5)])
    assert out["rows"][0]["mean_val_mse"] == 0.5
    assert out["rows"][0]["two_std"] == pytest.approx(0.0, abs=1e-12)
    assert out["best"][0] == {"kind": "ae", "best_mse": 0.5, "d_s": 4,
                              "setting": "obs"}


def test_aggregate_identical_duplicates_zero_std():
    rows = [SweepRow("rnn", 8, "obs", False, s, 0.42) for s in range(5)]
    out = aggregate_sweep(rows)
    assert out["rows"][0]["n_seeds"] == 5
    assert out["rows"][0]["two_std"] == pytest.approx(0.0, abs=1e-12)


def test_aggregate_best_matches_hand_sort():
    rng = np.random.default_rng(7)
    rows = []
    for kind in ("ae", "rnn"):
        for d_s in (4, 8):
            for seed in (0, 1):
                rows.append(SweepRow(kind, d_s, "obs", False, seed,
                                     float(rng.uniform(0.3, 1.0))))
    out = aggregate_sweep(rows)
    for kind in ("ae", "rnn"):
        candidates = [e for e in out["rows"] if e["kind"] == kind]
        expected = min(candidates, key=lambda e: e["mean_val_mse"])
        best = next(b for b in out["best"] if b["kind"] == kind)
        assert best["best_mse"] == expected["mean_val_mse"]
        assert best["d_s"] == expected["d_s"]


def test_aggregate_permutation_invariant():
    rng = np.random.default_rng(8)
    rows = [SweepRow("ae", d, "obs", r, s, float(rng.uniform(0.3, 1.0)))
            for d in (4, 8) for r in (False, True) for s in (0, 1)]
    a = aggregate_sweep(rows)
    b = aggregate_sweep(list(reversed(rows)))
    assert a == b


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_sweep([])


def test_reference_targets_recorded():
    # spot-check the recorded reference values used by the analyze summary
    assert REFERENCE_BEST["ais"]["best_mse"] == 0.4679
    assert REFERENCE_BEST["ais"]["d_s"] == 64
    assert REFERENCE_BEST["ddm"]["best_mse"] == 0.4654
    assert REFERENCE_BEST["ddm"]["d_s"] == 128
    assert REFERENCE_BEST["dst"]["best_mse"] == 0.5863
    assert REFERENCE_BEST["dst"]["setting"] == "obs"
    assert set(REFERENCE_BEST) == {"ae", "ais", "cde", "ddm", "dst", "ode", "rnn"}
