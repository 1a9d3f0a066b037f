"""Acceptance gate: one test per criterion, each printing a PASS line.

These are the binding exit criteria for the artifact. Desk-scale knobs
(cohort size for the regularization contrast, solver substeps, scaled
epoch counts) are fixed here, not tuned at runtime.
"""

import itertools
import time

import numpy as np
import pytest

import conftest

from seqstate import autodiff as ad
from seqstate import nn
from seqstate.autodiff import Tensor, grad_check
from seqstate.cli import main as cli_main
from seqstate.cohort import (SplitSpec, Trajectory, compute_norm_stats,
                             stratified_split, znormalize)
from seqstate.encoders import (D_S_GRID, INPUT_MODES, KINDS,
                               PARAM_COUNT_RANGES, build_encoder,
                               encode_trajectory)
from seqstate.nn import Params
from seqstate.odesolve import OdeSolverConfig, ode_solve, rk4_solve
from seqstate.policy import (BCConfig, BCQConfig, TransitionBuffer, bcq_filter,
                             behavior_clone, build_buffer, make_eval_set,
                             train_bcq, wis_evaluate, wis_from_weights)
from seqstate.signatures import chen_product, sig_length, signature, stream_signature
from seqstate.splines import eval_spline, eval_spline_deriv, fit_spline
from seqstate.synthetic import generate_synthetic
from seqstate.training import (desk_train_config, evaluate_rho,
                               mean_predictor_baseline, train_encoder)

GRAD_TOL = 1e-4
N_GRAD_SEEDS = 20


def _report(criterion: int, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: PASS - {detail}"
    print(f"\n{line}")
    conftest.record_acceptance(line)


# -- criterion 1: autodiff correctness -------------------------------------------------


def _grad_cases(seed: int):
    rng = np.random.default_rng(seed)
    params = Params()
    dense_w, dense_b = nn.linear_params(params, rng, "d", 4, 3)
    nn.gru_params(params, rng, "g", 3, 2)
    nn.lstm_params(params, rng, "l", 3, 2)
    h0 = rng.normal(size=(2, 2))
    c0 = rng.normal(size=(2, 2))
    times = np.arange(4.0)
    w_field = rng.normal(size=(2, 2)) * 0.4

    def f_dense(x):
        return ad.tsum(ad.tanh(nn.dense(x, dense_w, dense_b)))

    def f_gru(x):
        return ad.tsum(nn.gru_cell(x, Tensor(h0), params, "g"))

    def f_gru_w(w):
        p = {**dict(params.items()), "g.w_ih": w}
        return ad.tsum(nn.gru_cell(Tensor(rng2), Tensor(h0), p, "g"))

    def f_lstm(x):
        h, c = nn.lstm_cell(x, Tensor(h0), Tensor(c0), params, "l")
        return ad.tsum(ad.add(h, c))

    def f_signature(path):
        return ad.tsum(ad.mul(signature(path, 3).values, 0.5))

    def f_spline(values):
        sp = fit_spline(times, values)
        return ad.tsum(ad.add(eval_spline(sp, 1.4), eval_spline_deriv(sp, 2.3)))

    def f_ode(y0):
        field = lambda t, y: ad.tanh(ad.matmul(y, Tensor(w_field)))
        return ad.tsum(rk4_solve(field, y0, 0.0, 1.0, 4))

    rng2 = rng.normal(size=(2, 3))
    return [
        ("dense", f_dense, rng.normal(size=(2, 4))),
        ("gru", f_gru, rng.normal(size=(2, 3))),
        ("gru_weights", f_gru_w, params["g.w_ih"].data.copy()),
        ("lstm", f_lstm, rng.normal(size=(2, 3))),
        ("signature", f_signature, rng.normal(size=(4, 2))),
        ("spline_eval", f_spline, rng.normal(size=(4, 2))),
        ("ode_rk4", f_ode, rng.normal(size=(2, 2))),
    ]


def test_criterion_01_autodiff_correctness():
    start = time.monotonic()
    worst = {}
    for seed in range(N_GRAD_SEEDS):
        for name, f, x in _grad_cases(seed):
            err = grad_check(f, x, eps=1e-5)
            worst[name] = max(worst.get(name, 0.0), err)
            assert err < GRAD_TOL, (name, seed, err)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s"
    summary = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    _report(1, f"{N_GRAD_SEEDS} seeds x {len(worst)} kernels in "
               f"{elapsed:.1f}s; worst errors {summary}")


# -- criterion 2: signature suite ---------------------------------------------------


def test_criterion_02_signature_suite():
    rng = np.random.default_rng(0)

    # linear-path closed form at depths 1..3
    for depth in (1, 2, 3):
        delta = rng.normal(size=3)
        got = signature(np.stack([np.zeros(3), delta]), depth).values.data
        level = np.ones(1)
        fact = 1.0
        want = [np.ones(1)]
        for k in range(1, depth + 1):
            level = np.kron(level, delta)
            fact *= k
            want.append(level / fact)
        assert np.abs(got - np.concatenate(want)).max() < 1e-10

    # Chen concatenation identity on random splits
    for _ in range(10):
        path = rng.normal(size=(int(rng.integers(4, 9)), 2))
        split = int(rng.integers(1, path.shape[0] - 1))
        full = signature(path, 3).values.data
        prod = chen_product(signature(path[:split + 1], 3),
                            signature(path[split:], 3)).values.data
        assert np.abs(full - prod).max() < 1e-9

    # length formula by exhaustive word enumeration, d <= 3, N <= 3
    for d in (1, 2, 3):
        for n in (1, 2, 3):
            words = sum(len(list(itertools.product(range(d), repeat=k)))
                        for k in range(n + 1))
            assert sig_length(d, n) == words

    # stream rows equal from-scratch recomputation
    path = rng.normal(size=(7, 3))
    stream = stream_signature(path, 3).data
    for t in range(1, 7):
        scratch = signature(path[:t + 1], 3).values.data
        assert np.abs(stream[t] - scratch).max() < 1e-10

    _report(2, "closed form 1e-10, Chen 1e-9, lengths enumerated, "
               "stream == scratch")


# -- criterion 3: solver suite -------------------------------------------------------


def test_criterion_03_solver_suite():
    y1 = ode_solve(lambda t, y: y, np.array([1.0]), 0.0, 1.0, OdeSolverConfig())
    exp_err = abs(float(y1[0]) - np.e)
    assert exp_err < 1e-6

    def rk4_err(steps):
        y = rk4_solve(lambda t, y: y, np.array([1.0]), 0.0, 1.0, steps)
        return abs(float(y[0]) - np.e)

    order = float(np.log2(rk4_err(16) / rk4_err(32)))
    assert 3.7 <= order <= 4.3

    rng = np.random.default_rng(1)
    worst_rel = 0.0
    for _ in range(5):
        a = 0.5 * rng.normal(size=(3, 3)) - 1.5 * np.eye(3)
        y0 = rng.normal(size=3)
        expm = np.eye(3)
        term = np.eye(3)
        for k in range(1, 60):
            term = term @ a / k
            expm = expm + term
        want = expm @ y0
        got = ode_solve(lambda t, y: a @ y, y0, 0.0, 1.0, OdeSolverConfig())
        worst_rel = max(worst_rel,
                        float(np.abs(got - want).max() / np.abs(want).max()))
    assert worst_rel < 1e-5
    _report(3, f"exp err {exp_err:.1e}, rk4 order {order:.2f}, "
               f"matrix-exp rel err {worst_rel:.1e}")


# -- criterion 4: spline suite -------------------------------------------------------


def test_criterion_04_spline_suite():
    rng = np.random.default_rng(2)
    times = np.cumsum(rng.uniform(0.5, 1.5, size=7))
    values = rng.normal(size=(7, 3))
    sp = fit_spline(times, values)
    knot_err = max(float(np.abs(eval_spline(sp, t).data - values[i]).max())
                   for i, t in enumerate(times))
    assert knot_err < 1e-12

    slope = np.array([1.5, -2.0, 0.25])
    line = fit_spline(times, np.outer(times, slope))
    for t in np.linspace(times[0], times[-1], 20):
        assert np.abs(eval_spline_deriv(line, t).data - slope).max() < 1e-9

    lo, hi = times[0] + 0.05, times[-1] - 0.05
    fd_err = 0.0
    for t in rng.uniform(lo, hi, size=50):
        h = 1e-6
        fd = (eval_spline(sp, t + h).data - eval_spline(sp, t - h).data) / (2 * h)
        fd_err = max(fd_err, float(np.abs(eval_spline_deriv(sp, t).data - fd).max()))
    assert fd_err < 1e-6
    _report(4, f"knots exact to {knot_err:.1e}, linear reproduction, "
               f"derivative vs FD {fd_err:.1e}")


# -- criterion 5: encoder contracts ----------------------------------------------------


def _permute_future(traj, t_keep, rng):
    idx = np.arange(traj.n_steps)
    order = np.concatenate([idx[:t_keep + 1], rng.permutation(idx[t_keep + 1:])])
    return Trajectory(traj.patient_id, traj.obs[order], traj.demog,
                      traj.actions[order], traj.sofa[order],
                      traj.saps2[order], traj.oasis[order], traj.outcome)


def test_criterion_05_encoder_contracts():
    cohort = generate_synthetic(40, seed=3)
    stats = compute_norm_stats(cohort)
    trajs = znormalize(cohort, stats).trajectories
    traj = max(trajs, key=lambda t: t.n_steps)
    rng = np.random.default_rng(4)

    for kind in KINDS:
        for d_s in (4, 16):
            model = build_encoder(kind, d_s, "obs", seed=5)
            base = encode_trajectory(model, traj).latents
            for t_keep in (0, 3, traj.n_steps - 3):
                permuted = _permute_future(traj, t_keep, rng)
                got = encode_trajectory(model, permuted).latents
                assert np.abs(got[:t_keep + 1] - base[:t_keep + 1]).max() < 1e-12, \
                    (kind, d_s, t_keep)

    # fixed-seed retrain is bit-identical (checked across all kinds)
    small = generate_synthetic(100, seed=6)
    train, val, _ = stratified_split(small, SplitSpec(seed=0))
    sstats = compute_norm_stats(train)
    train_n = znormalize(train, sstats).trajectories
    val_n = znormalize(val, sstats).trajectories
    for kind in KINDS:
        snaps = []
        for _ in range(2):
            model = build_encoder(kind, 4, "obs", seed=7)
            train_encoder(model, train_n, val_n,
                          desk_train_config(kind, 4, epochs=2, seed=8))
            snaps.append(model.params.snapshot())
        for key in snaps[0]:
            assert np.array_equal(snaps[0][key], snaps[1][key]), (kind, key)

    # parameter counts inside the recorded ranges over the full grid
    for kind in KINDS:
        lo, hi = PARAM_COUNT_RANGES[kind]
        for mode in INPUT_MODES:
            for d_s in D_S_GRID:
                count = build_encoder(kind, d_s, mode).param_count()
                assert lo <= count <= hi, (kind, d_s, mode, count)

    _report(5, "causality (7 kinds x d_s {4,16}), bit-identical retrain, "
               "counts within recorded ranges over the 7x7x2 grid")


# -- criterion 6: learning sanity -------------------------------------------------------


@pytest.fixture(scope="module")
def desk_cohort_splits():
    cohort = generate_synthetic(2000, seed=0)
    train, val, test = stratified_split(cohort, SplitSpec(seed=0))
    stats = compute_norm_stats(train)
    return (znormalize(train, stats).trajectories,
            znormalize(val, stats).trajectories,
            znormalize(test, stats).trajectories,
            stats)


def test_criterion_06_learning_sanity(desk_cohort_splits):
    start = time.monotonic()
    train_n, val_n, _test, _stats = desk_cohort_splits
    baseline = mean_predictor_baseline(train_n, val_n)
    lines = []
    for kind in KINDS:
        model = build_encoder(kind, 16, "obs", seed=1)
        cfg = desk_train_config(kind, 16, epochs=50, seed=2)
        result = train_encoder(model, train_n, val_n, cfg)
        first = result.history[0].val_mse
        best = result.best_val_mse
        assert best < baseline, (kind, best, baseline)
        assert best < first, (kind, best, first)
        lines.append(f"{kind}={best:.3f}")
    elapsed = time.monotonic() - start
    assert elapsed < 15 * 60, f"learning sanity took {elapsed:.0f}s"
    _report(6, f"baseline {baseline:.3f}; best val MSE " + ", ".join(lines)
               + f"; {elapsed:.0f}s")


# -- criterion 7: regularization effect ---------------------------------------------------


def test_criterion_07_regularization_effect():
    cohort = generate_synthetic(600, seed=10)
    train, val, _ = stratified_split(cohort, SplitSpec(seed=0))
    stats = compute_norm_stats(train)
    train_n = znormalize(train, stats).trajectories
    val_n = znormalize(val, stats).trajectories

    details = []
    for kind in ("ais", "ae"):
        for seed in (0, 1, 2):
            rhos = {}
            for reg in (False, True):
                model = build_encoder(kind, 16, "obs", seed=seed)
                cfg = desk_train_config(kind, 16, epochs=12, seed=seed + 100,
                                        regularize=reg)
                train_encoder(model, train_n, val_n, cfg)
                rho = evaluate_rho(model, val_n)
                rhos[reg] = float(np.mean([abs(v) for v in rho.values()]))
            assert rhos[True] >= rhos[False] + 0.2, (kind, seed, rhos)
            details.append(f"{kind}/s{seed}: {rhos[False]:.2f}->{rhos[True]:.2f}")
    _report(7, "; ".join(details))


# -- criterion 8: batch-constrained Q suite ------------------------------------------------


def test_criterion_08_bcq_suite():
    rng = np.random.default_rng(20)

    # two-action bandit recovers the rewarding action
    n = 300
    actions = rng.integers(0, 2, n).astype(np.int64)
    bandit = TransitionBuffer(np.zeros((n, 2)), actions,
                              np.where(actions == 0, 1.0, -1.0),
                              np.zeros((n, 2)), np.ones(n, bool), seed=0)
    policy, _ = train_bcq(bandit, BCQConfig(iterations=2000,
                                            eval_period=10**9, seed=1))
    assert policy.select_actions(np.zeros((1, 2)))[0] == 0

    # gamma = 0 recovers per-cell empirical means within 0.05
    n = 1500
    state_ids = rng.integers(0, 3, n)
    acts = rng.integers(0, 4, n).astype(np.int64)
    cell = 0.5 * rng.normal(size=(3, 4))
    rewards = cell[state_ids, acts] + 0.05 * rng.normal(size=n)
    toy = TransitionBuffer(np.eye(3)[state_ids], acts, rewards,
                           np.zeros((n, 3)), np.ones(n, bool), seed=2)
    qpol, _ = train_bcq(toy, BCQConfig(iterations=6000, gamma=0.0,
                                       eval_period=10**9, seed=3))
    empirical = np.zeros((3, 4))
    counts = np.zeros((3, 4))
    for s, a, r in zip(state_ids, acts, rewards):
        empirical[s, a] += r
        counts[s, a] += 1
    gamma0_gap = float(np.abs(qpol.q_values(np.eye(3))[:, :4]
                              - empirical / counts).max())
    assert gamma0_gap < 0.05

    # a zero-support action is never selected across 10k queries
    n = 600
    sup_states = rng.normal(size=(n, 3))
    sup_actions = rng.integers(0, 3, n).astype(np.int64)
    support = TransitionBuffer(sup_states, sup_actions,
                               0.1 * rng.normal(size=n), np.zeros((n, 3)),
                               np.ones(n, bool), seed=4)
    spol, _ = train_bcq(support, BCQConfig(iterations=1500,
                                           eval_period=10**9, seed=5))
    spol.params["q.l3.b"].data[3] = 100.0  # bait the filter
    chosen = spol.select_actions(rng.normal(size=(10_000, 3)))
    assert not np.any(chosen == 3)

    # candidate sets are monotone nonincreasing in tau
    for _ in range(200):
        probs = rng.dirichlet(np.ones(25))
        taus = np.sort(rng.uniform(0.0, 1.0, size=4))
        sets = [set(np.flatnonzero(bcq_filter(probs, t))) for t in taus]
        for small, large in zip(sets[1:], sets[:-1]):
            assert small <= large

    _report(8, f"bandit recovered, gamma0 gap {gamma0_gap:.3f}, "
               "zero-support never chosen (10k), tau-monotone")


# -- criterion 9: weighted importance sampling suite ----------------------------------------


def test_criterion_09_wis_suite():
    cohort = generate_synthetic(120, seed=30)
    train, _val, test = stratified_split(cohort, SplitSpec(seed=0))
    stats = compute_norm_stats(train)
    model = build_encoder("ae", 4, "obs", seed=0)
    train_n = znormalize(train, stats).trajectories
    test_n = znormalize(test, stats).trajectories
    buf = build_buffer(model, train_n)
    behavior = behavior_clone(buf, BCConfig(iterations=300, seed=1))
    policy, _ = train_bcq(buf, BCQConfig(iterations=400,
                                         eval_period=10**9, seed=2))
    eval_set = make_eval_set(model, test_n)

    # identity policies: every weight is one, estimate equals mean return
    policy.eval_action_probs = lambda states: behavior.probs(states)
    wis, ess = wis_evaluate(policy, behavior, eval_set)
    assert wis == float(eval_set.returns.mean())
    assert abs(ess - len(eval_set.returns)) < 1e-9

    # convex-combination bound over randomized draws
    rng = np.random.default_rng(3)
    for _ in range(1000):
        k = int(rng.integers(1, 10))
        w = rng.uniform(1e-6, 4.0, size=k)
        r = rng.uniform(-1.0, 1.0, size=k)
        est, _ = wis_from_weights(w, r)
        assert r.min() - 1e-12 <= est <= r.max() + 1e-12

    hand, _ = wis_from_weights(np.array([1.0, 3.0]), np.array([1.0, -1.0]))
    assert hand == -0.5
    _report(9, "identity-policy equality exact, 1000-draw convexity, "
               "hand case -0.5 exact")


# -- criterion 10: end-to-end pipeline -------------------------------------------------------


def test_criterion_10_pipeline(tmp_path):
    start = time.monotonic()
    cohort_csv = tmp_path / "cohort.csv"
    assert cli_main(["gen-data", "--n", "600", "--seed", "0",
                     "--out", str(cohort_csv)]) == 0

    enc_dir = tmp_path / "enc_ais"
    assert cli_main(["train-encoder", "--cohort", str(cohort_csv),
                     "--kind", "ais", "--d-s", "16", "--epochs", "20",
                     "--seed", "1", "--out", str(enc_dir)]) == 0

    pol_dir = tmp_path / "policy"
    assert cli_main(["train-policy", "--encoder-run", str(enc_dir),
                     "--cohort", str(cohort_csv), "--iterations", "5000",
                     "--eval-every", "500", "--out", str(pol_dir)]) == 0
    curve = (pol_dir / "curve.csv").read_text().splitlines()
    assert curve[0] == "iteration,wis_return,ess,q_loss,filter_loss"
    assert len(curve) == 1 + 10  # 5000 / 500
    for line in curve[1:]:
        fields = line.split(",")
        assert len(fields) == 5
        assert all(np.isfinite(float(v)) for v in fields)

    out_dir = tmp_path / "analysis"
    assert cli_main(["analyze", "--runs", str(enc_dir),
                     "--cohort", str(cohort_csv), "--out", str(out_dir)]) == 0
    corr = (out_dir / "correlation.csv").read_text().splitlines()
    assert corr[0] == "run,kind,rho_sofa,rho_saps2,rho_oasis"
    assert len(corr) == 2
    proj = (out_dir / "projection_enc_ais.csv").read_text().splitlines()
    assert proj[0] == "patient_id,which,pc1,pc2,outcome,sofa"
    assert len(proj) > 1
    history = (enc_dir / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_mse,val_mse,rho_sofa,rho_saps2,rho_oasis"
    assert len(history) == 1 + 20

    # parallel sweep determinism: 1 worker vs 4 workers, identical output
    sweep1 = tmp_path / "sweep1"
    sweep4 = tmp_path / "sweep4"
    for out, workers in ((sweep1, "1"), (sweep4, "4")):
        assert cli_main(["sweep", "--cohort", str(cohort_csv),
                         "--kinds", "ae,rnn", "--d-s-list", "4,8",
                         "--seeds", "0", "--epochs", "3",
                         "--workers", workers, "--out", str(out)]) == 0
    assert (sweep1 / "sweep.csv").read_bytes() == (sweep4 / "sweep.csv").read_bytes()
    assert (sweep1 / "aggregate.csv").read_bytes() == \
        (sweep4 / "aggregate.csv").read_bytes()

    elapsed = time.monotonic() - start
    assert elapsed < 10 * 60, f"pipeline took {elapsed:.0f}s"
    _report(10, f"gen-data -> train-encoder -> train-policy -> analyze + "
                f"parallel sweep parity in {elapsed:.0f}s")
