"""Data model: CSV ingestion, splits, normalization, actions, surrogates."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqstate.cohort import (ActionRangeError, Cohort, CohortError, CSV_HEADER,
                             DuplicateStepError, MissingColumnError,
                             NonFiniteValueError, SplitSpec, Trajectory,
                             compute_norm_stats, decode_action, denormalize,
                             encode_action, load_cohort, normalized_splits,
                             save_cohort, stratified_split, surrogate_acuity,
                             znormalize)
from seqstate.synthetic import generate_synthetic


def _tiny_cohort(n=20, seed=0):
    return generate_synthetic(max(n, 10), seed)


# -- action coding ------------------------------------------------------------


def test_action_corner_cases():
    assert encode_action(0, 0) == 0
    assert encode_action(4, 4) == 24
    assert encode_action(1, 0) == 5  # vasopressor-major ordering
    np.testing.assert_array_equal(
        encode_action(np.array([0, 4, 1, 2]), np.array([0, 4, 0, 3])),
        [0, 24, 5, 13])


def test_action_bijection_exhaustive():
    seen = set()
    for v in range(5):
        for f in range(5):
            a = encode_action(v, f)
            assert decode_action(a) == (v, f)
            seen.add(a)
    assert seen == set(range(25))


def test_action_range_errors():
    with pytest.raises(ValueError):
        encode_action(5, 0)
    with pytest.raises(ValueError):
        encode_action(0, -1)
    with pytest.raises(ValueError, match="bins out of range"):
        encode_action(np.array([0, 4]), np.array([2, 5]))
    with pytest.raises(ValueError):
        decode_action(25)


# -- CSV round trip ---------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    cohort = _tiny_cohort(15, seed=3)
    path = tmp_path / "c.csv"
    save_cohort(cohort, path)
    loaded = load_cohort(path)
    assert len(loaded) == len(cohort)
    assert loaded.provenance == cohort.provenance
    for a, b in zip(cohort.trajectories, loaded.trajectories):
        assert a.patient_id == b.patient_id
        assert a.outcome == b.outcome
        assert np.array_equal(a.obs, b.obs)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.demog, b.demog)
        assert np.array_equal(a.sofa, b.sofa)


def test_save_cohort_failure_keeps_previous_files(tmp_path, monkeypatch):
    path = tmp_path / "c.csv"
    save_cohort(_tiny_cohort(10, seed=1), path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_write_text = Path.write_text

    def fail_half_way(self, text, *args, **kwargs):
        real_write_text(self, text[:len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", fail_half_way)
    with pytest.raises(OSError, match="disk full"):
        save_cohort(_tiny_cohort(12, seed=2), path)
    monkeypatch.undo()
    # the old CSV and sidecar, and no temporary file
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_wellformed_two_patient_file(tmp_path):
    cohort = Cohort(trajectories=_tiny_cohort(12, seed=1).trajectories[:2])
    path = tmp_path / "two.csv"
    save_cohort(cohort, path)
    assert len(load_cohort(path)) == 2


def _write_rows(tmp_path, mutate):
    cohort = Cohort(trajectories=_tiny_cohort(12, seed=2).trajectories[:2])
    path = tmp_path / "bad.csv"
    save_cohort(cohort, path)
    lines = path.read_text().splitlines()
    mutate(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


def test_out_of_range_action_names_row(tmp_path):
    def mutate(lines):
        parts = lines[2].split(",")
        parts[2] = "25"
        lines[2] = ",".join(parts)

    path = _write_rows(tmp_path, mutate)
    with pytest.raises(ActionRangeError, match=":3:"):  # 1-based, header row 1
        load_cohort(path)


def test_non_finite_value_names_row(tmp_path):
    def mutate(lines):
        parts = lines[3].split(",")
        parts[8] = "nan"
        lines[3] = ",".join(parts)

    path = _write_rows(tmp_path, mutate)
    with pytest.raises(NonFiniteValueError, match=":4:"):
        load_cohort(path)


def test_duplicate_step_detected(tmp_path):
    def mutate(lines):
        lines.append(lines[1])

    path = _write_rows(tmp_path, mutate)
    with pytest.raises(DuplicateStepError):
        load_cohort(path)


def test_outcome_changing_within_a_patient_names_row(tmp_path):
    def mutate(lines):
        parts = lines[2].split(",")
        parts[3] = str(1 - int(parts[3]))
        lines[2] = ",".join(parts)

    path = _write_rows(tmp_path, mutate)
    with pytest.raises(CohortError, match=":3: outcome"):
        load_cohort(path)


def test_missing_column_detected(tmp_path):
    path = tmp_path / "m.csv"
    header = [c for c in CSV_HEADER if c != "sofa"]
    path.write_text(",".join(header) + "\n")
    with pytest.raises(MissingColumnError, match="sofa"):
        load_cohort(path)


def test_length_cap_enforced(tmp_path):
    cohort = _tiny_cohort(12, seed=4)
    path = tmp_path / "long.csv"
    save_cohort(cohort, path)
    with pytest.raises(CohortError):
        load_cohort(path, max_steps=2)


# -- stratified split -----------------------------------------------------------------


def _outcome_counts(c):
    return sum(t.outcome for t in c.trajectories), len(c)


def test_split_partition_and_disjointness():
    cohort = _tiny_cohort(120, seed=5)
    train, val, test = stratified_split(cohort, SplitSpec(seed=0))
    ids = [set(c.patient_ids()) for c in (train, val, test)]
    assert ids[0] | ids[1] | ids[2] == set(cohort.patient_ids())
    assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])


def test_split_stratification_within_one_patient():
    # 100 patients with exactly 10 deaths: the 15-patient test split must
    # hold 1 or 2 of them
    base = _tiny_cohort(200, seed=6).trajectories
    died = [t for t in base if t.outcome == 1][:10]
    alive = [t for t in base if t.outcome == 0][:90]
    assert len(died) == 10 and len(alive) == 90
    cohort = Cohort(trajectories=died + alive)
    train, val, test = stratified_split(cohort, SplitSpec(seed=1))
    d_test, n_test = _outcome_counts(test)
    assert n_test == 15
    assert d_test in (1, 2)
    d_train, n_train = _outcome_counts(train)
    assert n_train == 70 and abs(d_train - 7) <= 1


def test_split_deterministic_in_seed():
    cohort = _tiny_cohort(60, seed=7)
    a = stratified_split(cohort, SplitSpec(seed=9))
    b = stratified_split(cohort, SplitSpec(seed=9))
    c = stratified_split(cohort, SplitSpec(seed=10))
    assert [x.patient_ids() for x in a] == [x.patient_ids() for x in b]
    assert [x.patient_ids() for x in a] != [x.patient_ids() for x in c]


def test_split_small_class_rejected():
    base = _tiny_cohort(60, seed=8).trajectories
    died = [t for t in base if t.outcome == 1][:2]
    alive = [t for t in base if t.outcome == 0][:20]
    if len(died) < 2:
        pytest.skip("seed produced too few deaths")
    cohort = Cohort(trajectories=died + alive)
    with pytest.raises(CohortError):
        stratified_split(cohort, SplitSpec())


def test_split_ratio_validation():
    with pytest.raises(ValueError):
        SplitSpec(ratios=(0.5, 0.2, 0.2))


# -- normalization ---------------------------------------------------------------------


def test_znormalize_train_moments():
    cohort = _tiny_cohort(80, seed=9)
    stats = compute_norm_stats(cohort)
    normed = znormalize(cohort, stats)
    obs = np.concatenate([t.obs for t in normed.trajectories])
    assert np.abs(obs.mean(axis=0)).max() < 1e-9
    assert np.abs(obs.std(axis=0) - 1.0).max() < 1e-9
    # actions and scores untouched
    for a, b in zip(cohort.trajectories, normed.trajectories):
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.sofa, b.sofa)


def test_constant_feature_passes_through_flagged():
    cohort = _tiny_cohort(20, seed=10)
    for t in cohort.trajectories:
        t.obs[:, 7] = 3.25
    stats = compute_norm_stats(cohort)
    assert stats.constant_obs[7]
    normed = znormalize(cohort, stats)
    for t in normed.trajectories:
        assert np.all(t.obs[:, 7] == 3.25)


def test_normalization_invertible():
    cohort = _tiny_cohort(40, seed=11)
    stats = compute_norm_stats(cohort)
    back = denormalize(znormalize(cohort, stats), stats)
    for a, b in zip(cohort.trajectories, back.trajectories):
        assert np.abs(a.obs - b.obs).max() < 1e-12
        assert np.abs(a.demog - b.demog).max() < 1e-12


def test_normalized_splits_z_score_with_the_training_stats():
    cohort = _tiny_cohort(100, seed=12)
    spec = SplitSpec(seed=0)
    splits = stratified_split(cohort, spec)
    train_stats = compute_norm_stats(splits[0])
    other_stats = compute_norm_stats(cohort)
    for given, used in ((None, train_stats), (other_stats, other_stats)):
        *got, stats = normalized_splits(cohort, spec, given)
        assert stats.to_dict() == used.to_dict()
        for split, trajs in zip(splits, got):
            want = znormalize(split, used).trajectories
            assert [t.patient_id for t in trajs] == split.patient_ids()
            for a, b in zip(trajs, want):
                assert np.array_equal(a.obs, b.obs)
                assert np.array_equal(a.demog, b.demog)


def test_train_stats_on_other_split_finite():
    cohort = _tiny_cohort(100, seed=12)
    train, _val, test = stratified_split(cohort, SplitSpec(seed=0))
    stats = compute_norm_stats(train)
    test_normed = znormalize(test, stats)
    obs = np.concatenate([t.obs for t in test_normed.trajectories])
    assert np.all(np.isfinite(obs))
    # recompute moments independently: shifted but near standard scale
    recomputed = (np.concatenate([t.obs for t in test.trajectories])
                  - stats.obs_mean) / stats.obs_std
    assert np.abs(obs - recomputed).max() < 1e-12


# -- surrogate acuity -------------------------------------------------------------------


def _surrogate_oracle(z, age):
    """Independently coded sum of abnormality indicators."""
    excess = np.maximum(np.abs(z) - 1.0, 0.0)
    sofa = excess.sum()
    saps2 = excess[:22].sum() + 0.05 * max(age - 40.0, 0.0)
    oasis = excess[:10].sum() + 0.03 * max(age - 40.0, 0.0)
    return sofa, saps2, oasis


def test_surrogate_at_population_mean():
    demog = np.array([70.0, 1.0, 80.0, 0.0, 0.0])
    sofa, saps2, oasis = surrogate_acuity(np.zeros(33), demog)
    assert sofa == 0.0
    assert saps2 == pytest.approx(0.05 * 30.0)
    assert oasis == pytest.approx(0.03 * 30.0)


def test_surrogate_monotone_in_abnormality():
    demog = np.array([50.0, 0.0, 70.0, 0.0, 0.0])
    z = np.zeros(33)
    base = surrogate_acuity(z, demog)[0]
    z[4] = 5.0
    assert surrogate_acuity(z, demog)[0] > base


def test_surrogate_matches_duplicate_implementation():
    rng = np.random.default_rng(13)
    for _ in range(25):
        z = rng.normal(size=33) * 2.0
        demog = np.array([rng.uniform(18, 95), 0.0, 75.0, 0.0, 0.0])
        got = surrogate_acuity(z, demog)
        want = _surrogate_oracle(z, demog[0])
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_surrogate_block_equals_its_rows():
    # a (T, 33) block scores bit for bit like its rows one at a time
    rng = np.random.default_rng(15)
    mean = rng.normal(size=33)
    std = rng.uniform(0.5, 2.0, size=33)
    obs = mean + 3.0 * std * rng.normal(size=(17, 33))
    demog = np.column_stack([rng.uniform(18, 95, 17), np.zeros((17, 4))])
    for ref in ((), (mean, std)):
        block = surrogate_acuity(obs, demog, *ref)
        rows = [surrogate_acuity(o, d, *ref) for o, d in zip(obs, demog)]
        assert all(score.shape == (17,) for score in block)
        np.testing.assert_array_equal(np.column_stack(block), np.array(rows))


def test_surrogate_reference_stats_path():
    rng = np.random.default_rng(14)
    mean = rng.normal(size=33)
    std = rng.uniform(0.5, 2.0, size=33)
    raw = mean + std * rng.normal(size=33)
    demog = np.array([60.0, 1.0, 80.0, 1.0, 0.0])
    a = surrogate_acuity(raw, demog, ref_mean=mean, ref_std=std)
    b = surrogate_acuity((raw - mean) / std, demog)
    np.testing.assert_allclose(a, b, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(v=st.integers(0, 4), f=st.integers(0, 4))
def test_action_bijection_property(v, f):
    assert decode_action(encode_action(v, f)) == (v, f)
