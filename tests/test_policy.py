"""Offline policy stack: buffers, cloning, batch-constrained Q, WIS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqstate.cohort import SplitSpec, compute_norm_stats, stratified_split, znormalize
from seqstate.encoders import build_encoder, encode_trajectory
from seqstate.policy import (PROB_FLOOR, TERMINAL_REWARD, WEIGHT_CLIP, BCConfig,
                             BCQConfig, TransitionBuffer, WisEvalSet,
                             _q_target_values, bcq_filter, behavior_clone,
                             build_buffer, make_eval_set, train_bcq,
                             trajectory_weights, wis_evaluate,
                             wis_from_weights)
from seqstate.synthetic import generate_synthetic


def _encoded_setup(n=120, seed=0):
    cohort = generate_synthetic(n, seed)
    train, _val, test = stratified_split(cohort, SplitSpec(seed=1))
    stats = compute_norm_stats(train)
    model = build_encoder("ae", 4, "obs", seed=2)
    return (model, znormalize(train, stats).trajectories,
            znormalize(test, stats).trajectories)


# -- transition buffer -----------------------------------------------------------


def test_buffer_counts_and_terminals():
    model, train, _ = _encoded_setup(120, seed=1)
    buf = build_buffer(model, train)
    assert len(buf) == sum(t.n_steps for t in train)
    assert buf.done.sum() == len(train)
    # rewards are zero except at terminal steps
    assert np.all(buf.rewards[~buf.done] == 0.0)
    assert set(np.unique(buf.rewards[buf.done])) <= {1.0, -1.0}


def test_buffer_single_patient_layout():
    model, train, _ = _encoded_setup(120, seed=2)
    traj = next(t for t in train if t.n_steps >= 5)
    buf = build_buffer(model, [traj])
    assert len(buf) == traj.n_steps
    assert not buf.done[:-1].any() and buf.done[-1]
    expected = 1.0 if traj.outcome == 0 else -1.0
    assert buf.rewards[-1] == expected
    assert np.all(buf.next_states[-1] == 0.0)


def test_buffer_deterministic_rebuild():
    model, train, _ = _encoded_setup(120, seed=3)
    a = build_buffer(model, train, seed=5)
    b = build_buffer(model, train, seed=5)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.sample(32)[0], b.sample(32)[0])


def test_buffer_matches_per_step_reference():
    model, train, _ = _encoded_setup(120, seed=3)
    states, actions, rewards, next_states, done = [], [], [], [], []
    for traj in train:
        lat = encode_trajectory(model, traj).latents
        t_len = lat.shape[0]
        for t in range(t_len):
            terminal = t == t_len - 1
            states.append(lat[t])
            actions.append(traj.actions[t])
            rewards.append(TERMINAL_REWARD[traj.outcome] if terminal else 0.0)
            next_states.append(np.zeros_like(lat[t]) if terminal else lat[t + 1])
            done.append(terminal)
    buf = build_buffer(model, train)
    assert np.abs(buf.states - np.array(states)).max() <= 1e-12
    assert np.abs(buf.next_states - np.array(next_states)).max() <= 1e-12
    assert buf.actions.dtype == np.int64
    assert np.array_equal(buf.actions, np.array(actions))
    assert np.array_equal(buf.rewards, np.array(rewards))
    assert np.array_equal(buf.done, np.array(done))


def test_buffer_empty_split_rejected():
    model, _, _ = _encoded_setup(120, seed=4)
    with pytest.raises(ValueError):
        build_buffer(model, [])


# -- filter -----------------------------------------------------------------------


def test_filter_uniform_all_pass():
    probs = np.full(25, 1.0 / 25)
    assert bcq_filter(probs, 1.0).sum() == 25
    assert bcq_filter(probs, 0.3).sum() == 25


def test_filter_manual_ratio_example():
    probs = np.zeros(25)
    probs[:4] = [0.5, 0.3, 0.15, 0.05]
    mask = bcq_filter(probs, 0.3)
    assert np.flatnonzero(mask).tolist() == [0, 1, 2]


def test_filter_tau_zero_passes_all():
    probs = np.zeros(25)
    probs[:3] = [0.6, 0.3, 0.1]
    assert bcq_filter(probs, 0.0).sum() == 25  # >= 0 * max holds everywhere


def test_filter_never_empty():
    rng = np.random.default_rng(0)
    for _ in range(100):
        logits = rng.normal(size=25) * 10
        probs = np.exp(logits) / np.exp(logits).sum()
        assert bcq_filter(probs, 1.0).sum() >= 1


def test_filter_one_row_batch_keeps_its_shape():
    probs = np.random.default_rng(1).dirichlet(np.ones(25), size=1)
    mask = bcq_filter(probs, 0.3)
    assert mask.shape == (1, 25)
    assert np.array_equal(mask[0], bcq_filter(probs[0], 0.3))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       tau_pair=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_filter_monotone_in_tau(seed, tau_pair):
    lo, hi = sorted(tau_pair)
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(25))
    set_hi = set(np.flatnonzero(bcq_filter(probs, hi)))
    set_lo = set(np.flatnonzero(bcq_filter(probs, lo)))
    assert set_hi <= set_lo


# -- behavior cloning ----------------------------------------------------------------


def test_bc_learns_separable_behavior():
    rng = np.random.default_rng(1)
    n = 3000
    states = rng.normal(size=(n, 4))
    actions = (states[:, 0] > 0).astype(np.int64) + 2 * (states[:, 1] > 0)
    buf = TransitionBuffer(states, actions, np.zeros(n),
                           np.zeros((n, 4)), np.ones(n, bool), seed=0)
    policy = behavior_clone(buf, BCConfig(iterations=3000, seed=1))
    assert policy.train_accuracy > 0.95


def test_bc_chance_level_on_uniform_actions():
    rng = np.random.default_rng(2)
    n = 10_000
    states = rng.normal(size=(n, 3))
    actions = rng.integers(0, 25, size=n)
    buf = TransitionBuffer(states, actions, np.zeros(n),
                           np.zeros((n, 3)), np.ones(n, bool), seed=0)
    policy = behavior_clone(buf, BCConfig(iterations=1500, seed=2))
    assert abs(policy.train_accuracy - 1.0 / 25) < 0.02


def test_bc_probability_rows_sum_to_one():
    model, train, _ = _encoded_setup(120, seed=5)
    buf = build_buffer(model, train)
    policy = behavior_clone(buf, BCConfig(iterations=300, seed=3))
    probs = policy.probs(buf.states[:50])
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert policy.missing_actions == tuple(
        sorted(set(range(25)) - set(np.unique(buf.actions).tolist()))
    )


# -- batch-constrained Q-learning ------------------------------------------------------


def test_bandit_recovers_positive_action():
    rng = np.random.default_rng(3)
    n = 300
    actions = rng.integers(0, 2, n).astype(np.int64)
    buf = TransitionBuffer(np.zeros((n, 2)), actions,
                           np.where(actions == 0, 1.0, -1.0),
                           np.zeros((n, 2)), np.ones(n, bool), seed=4)
    policy, _ = train_bcq(buf, BCQConfig(iterations=2000, eval_period=10**9, seed=5))
    assert policy.select_actions(np.zeros((1, 2)))[0] == 0
    q = policy.q_values(np.zeros((1, 2)))[0]
    assert q[0] == pytest.approx(1.0, abs=0.05)
    assert q[1] == pytest.approx(-1.0, abs=0.05)


def test_gamma_zero_matches_empirical_means():
    rng = np.random.default_rng(4)
    n = 1500
    state_ids = rng.integers(0, 3, n)
    states = np.eye(3)[state_ids]
    actions = rng.integers(0, 4, n).astype(np.int64)
    cell_means = 0.5 * rng.normal(size=(3, 4))
    rewards = cell_means[state_ids, actions] + 0.05 * rng.normal(size=n)
    buf = TransitionBuffer(states, actions, rewards, np.zeros((n, 3)),
                           np.ones(n, bool), seed=6)
    policy, _ = train_bcq(buf, BCQConfig(iterations=6000, gamma=0.0,
                                         eval_period=10**9, seed=7))
    empirical = np.zeros((3, 4))
    counts = np.zeros((3, 4))
    for s, a, r in zip(state_ids, actions, rewards):
        empirical[s, a] += r
        counts[s, a] += 1
    empirical /= counts
    learned = policy.q_values(np.eye(3))[:, :4]
    assert np.abs(learned - empirical).max() < 0.05


def test_zero_support_action_never_selected():
    # action 3 exists in the MDP but is absent from the buffer
    rng = np.random.default_rng(5)
    n = 600
    states = rng.normal(size=(n, 3))
    actions = rng.integers(0, 3, n).astype(np.int64)  # support = {0, 1, 2}
    rewards = rng.normal(size=n) * 0.1
    buf = TransitionBuffer(states, actions, rewards, np.zeros((n, 3)),
                           np.ones(n, bool), seed=8)
    policy, _ = train_bcq(buf, BCQConfig(iterations=1500, eval_period=10**9, seed=9))
    # force the out-of-support action to look optimal to the Q-network
    policy.params["q.l3.b"].data[3] = 100.0
    queries = rng.normal(size=(10_000, 3))
    chosen = policy.select_actions(queries)
    assert not np.any(chosen == 3)


def test_target_network_frozen_between_refreshes():
    rng = np.random.default_rng(6)
    n = 200
    buf = TransitionBuffer(rng.normal(size=(n, 2)),
                           rng.integers(0, 4, n).astype(np.int64),
                           rng.normal(size=n), rng.normal(size=(n, 2)),
                           np.zeros(n, bool), seed=10)
    policy, _ = train_bcq(buf, BCQConfig(iterations=600, target_period=10**9,
                                         eval_period=10**9, seed=11))
    # the online network moved, the frozen copy did not
    assert any(not np.array_equal(policy.target[k], policy.params[k].data)
               for k in policy.target)
    # the regression target for a fixed transition only uses the frozen copy
    s2 = rng.normal(size=(5, 2))
    y1 = _q_target_values(policy, s2)
    y2 = _q_target_values(policy, s2)
    np.testing.assert_allclose(y1, y2, atol=0)


# -- weighted importance sampling -----------------------------------------------------


def test_wis_identity_policy_equals_mean_return():
    model, train, test = _encoded_setup(120, seed=7)
    buf = build_buffer(model, train)
    behavior = behavior_clone(buf, BCConfig(iterations=200, seed=12))
    policy, _ = train_bcq(buf, BCQConfig(iterations=300, eval_period=10**9, seed=13))
    eval_set = make_eval_set(model, test)
    # make the evaluation policy exactly the behavior policy
    policy.eval_action_probs = lambda states: behavior.probs(states)
    wis, ess = wis_evaluate(policy, behavior, eval_set)
    assert wis == pytest.approx(float(eval_set.returns.mean()), abs=1e-12)
    assert ess == pytest.approx(len(eval_set.returns), abs=1e-9)


def test_wis_single_trajectory_is_its_return():
    model, train, test = _encoded_setup(120, seed=8)
    buf = build_buffer(model, train)
    behavior = behavior_clone(buf, BCConfig(iterations=200, seed=14))
    policy, _ = train_bcq(buf, BCQConfig(iterations=300, eval_period=10**9, seed=15))
    eval_set = make_eval_set(model, test[:1])
    wis, _ = wis_evaluate(policy, behavior, eval_set)
    assert wis == pytest.approx(float(eval_set.returns[0]), abs=1e-12)


def test_wis_hand_arithmetic():
    wis, ess = wis_from_weights(np.array([1.0, 3.0]), np.array([1.0, -1.0]))
    assert wis == pytest.approx(-0.5)
    assert ess == pytest.approx(16.0 / 10.0)


def test_wis_convex_combination_and_scale_invariance():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        w = rng.uniform(0.0, 5.0, size=n) + 1e-9
        r = rng.uniform(-1.0, 1.0, size=n)
        wis, ess = wis_from_weights(w, r)
        assert r.min() - 1e-12 <= wis <= r.max() + 1e-12
        assert 0 < ess <= n + 1e-9
        scaled, _ = wis_from_weights(17.5 * w, r)
        assert scaled == pytest.approx(wis, abs=1e-9)


def test_wis_all_zero_weights_rejected():
    with pytest.raises(ValueError):
        wis_from_weights(np.zeros(3), np.ones(3))


def test_trajectory_weights_clipped_and_finite():
    model, train, test = _encoded_setup(120, seed=10)
    buf = build_buffer(model, train)
    behavior = behavior_clone(buf, BCConfig(iterations=200, seed=16))
    policy, _ = train_bcq(buf, BCQConfig(iterations=200, eval_period=10**9, seed=17))
    weights = trajectory_weights(policy, behavior, make_eval_set(model, test))
    assert np.all(np.isfinite(weights))
    assert np.all((weights >= 1e-8) & (weights <= 1e8))


def test_trajectory_weights_match_product_formula():
    model, train, test = _encoded_setup(120, seed=10)
    buf = build_buffer(model, train)
    behavior = behavior_clone(buf, BCConfig(iterations=200, seed=16))
    policy, _ = train_bcq(buf, BCQConfig(iterations=200, eval_period=10**9, seed=17))
    eval_set = make_eval_set(model, test)
    expected = []
    for lat, acts in zip(eval_set.latents, eval_set.actions):
        rows = np.arange(len(acts))
        pi_e = policy.eval_action_probs(lat)[rows, acts]
        pi_b = behavior.probs(lat)[rows, acts]
        ratios = pi_e / np.maximum(pi_b, PROB_FLOOR)
        expected.append(np.clip(np.prod(ratios), *WEIGHT_CLIP))
    np.testing.assert_allclose(trajectory_weights(policy, behavior, eval_set),
                               expected, rtol=1e-12, atol=0)


class _StepRatioPolicy:
    """Puts probability ``hi`` on action 0 in the first half of a stay
    (state[0] < 0) and ``lo`` after it."""

    def __init__(self, hi, lo):
        self.hi, self.lo = hi, lo

    def _probs(self, states):
        p = np.where(states[:, :1] < 0, self.hi, self.lo)
        return np.broadcast_to(p, (len(states), 25)).copy()

    eval_action_probs = probs = _probs


def test_trajectory_weights_cancel_in_log_space():
    # ratios of 1e12 for 30 steps, then 1e-12 for 30: the running product
    # overflows to inf and would clip to 1e8, the true product is 1
    states = np.where(np.arange(60)[:, None] < 30, -1.0, 1.0) * np.ones((60, 2))
    eval_set = WisEvalSet([states], [np.zeros(60, dtype=np.int64)], np.array([1.0]))
    weights = trajectory_weights(_StepRatioPolicy(1.0, 1e-12),
                                 _StepRatioPolicy(1e-12, 1.0), eval_set)
    assert weights.shape == (1,)
    assert weights[0] == pytest.approx(1.0, rel=1e-12)


def test_bcq_curve_emitted_at_eval_period():
    model, train, test = _encoded_setup(120, seed=11)
    buf = build_buffer(model, train)
    behavior = behavior_clone(buf, BCConfig(iterations=150, seed=18))
    eval_set = make_eval_set(model, test)
    _, curve = train_bcq(buf, BCQConfig(iterations=1000, eval_period=250, seed=19),
                         eval_ctx=eval_set, behavior=behavior)
    assert [p.iteration for p in curve] == [250, 500, 750, 1000]
    assert all(np.isfinite(p.wis_return) for p in curve)
    assert all(np.isfinite(p.q_loss) and np.isfinite(p.filter_loss) for p in curve)
