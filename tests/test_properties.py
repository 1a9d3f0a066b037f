"""Batching invariants as properties over generated batches: 1-6 stays of
1-7 steps, every kind and input mode, d_s 1-4.

Each holds to 1e-12 relative to the compared array's largest entry:

* a stay's ``infer_many`` rows do not depend on which stays share its batch;
* permuting the input list permutes the output rows the same way;
* permuting a training batch's stays leaves the ``batch_objective`` value
  and every parameter gradient unchanged.

Examples are derandomized and no database is written, so the suite stays
deterministic.
"""

from functools import lru_cache

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqstate.cohort import Trajectory, compute_norm_stats, znormalize
from seqstate.encoders import INPUT_MODES, KINDS, build_encoder, infer_many, make_batch
from seqstate.synthetic import generate_synthetic
from seqstate.training import batch_objective

MAX_STEPS = 7
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _pool() -> list[Trajectory]:
    cohort = generate_synthetic(40, 0)
    cohort = znormalize(cohort, compute_norm_stats(cohort))
    return [t for t in cohort.trajectories if t.n_steps >= MAX_STEPS]


POOL = _pool()


@lru_cache(maxsize=None)
def _model(kind: str, mode: str, d_s: int):
    return build_encoder(kind, d_s, mode, seed=d_s)


def _cut(k: int, source: int, n_steps: int) -> Trajectory:
    t = POOL[source]
    return Trajectory(f"stay-{k}", t.obs[:n_steps], t.demog, t.actions[:n_steps],
                      t.sofa[:n_steps], t.saps2[:n_steps], t.oasis[:n_steps],
                      t.outcome)


stays = st.lists(
    st.tuples(st.integers(0, len(POOL) - 1), st.integers(1, MAX_STEPS)),
    min_size=1, max_size=6, unique_by=lambda pick: pick[0],
).map(lambda picks: [_cut(k, src, n) for k, (src, n) in enumerate(picks)])

models = st.builds(_model, st.sampled_from(KINDS), st.sampled_from(INPUT_MODES),
                   st.integers(1, 4))


def _assert_close(got, want, what) -> None:
    if want is None or got is None:
        assert got is None and want is None, what
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    if want.size:
        scale = max(float(np.abs(want).max()), float(np.abs(got).max()))
        assert float(np.abs(got - want).max()) <= 1e-12 * scale, what


@PROPERTY
@given(model=models, trajs=stays)
def test_rows_do_not_depend_on_batch_company(model, trajs):
    latents, preds = infer_many(model, trajs)
    for i, traj in enumerate(trajs):
        alone_lat, alone_pred = infer_many(model, [traj])
        _assert_close(latents[i], alone_lat[0], (model.kind, i, "latents"))
        _assert_close(preds[i], alone_pred[0], (model.kind, i, "preds"))


@PROPERTY
@given(model=models, trajs=stays, data=st.data())
def test_permuting_inputs_permutes_outputs(model, trajs, data):
    perm = data.draw(st.permutations(range(len(trajs))))
    latents, preds = infer_many(model, trajs)
    p_latents, p_preds = infer_many(model, [trajs[i] for i in perm])
    for j, i in enumerate(perm):
        _assert_close(p_latents[j], latents[i], (model.kind, i, "latents"))
        _assert_close(p_preds[j], preds[i], (model.kind, i, "preds"))


def _objective(model, trajs, regularize):
    """The loss value and its gradient as one flat vector over every
    parameter, in registration order (a parameter without one gives 0s)."""
    model.params.zero_grad()
    loss, _, _, _ = batch_objective(model, make_batch(trajs, model.input_mode),
                                    regularize)
    loss.backward()
    grad = np.concatenate([(np.zeros_like(t.data) if t.grad is None else t.grad).ravel()
                           for t in model.params.tensors()])
    model.params.zero_grad()
    return float(loss.data), grad


@PROPERTY
@given(model=models, trajs=stays, regularize=st.booleans(), data=st.data())
def test_permuting_a_batch_keeps_objective_and_gradients(model, trajs, regularize,
                                                        data):
    # Two distinct points correlate at exactly +-1, so the regularizer's
    # gradient there is pure rounding; the stays come from distinct
    # patients, so every pooled row is a distinct point. The gradient is
    # compared as one vector: a correlation does not move when a latent
    # column shifts, so its share of a bias gradient is 0 only up to the
    # rounding of its much larger per-row terms.
    assume(not regularize or sum(t.n_steps for t in trajs) >= 3)
    perm = data.draw(st.permutations(range(len(trajs))))
    loss, grad = _objective(model, trajs, regularize)
    p_loss, p_grad = _objective(model, [trajs[i] for i in perm], regularize)
    _assert_close(p_loss, loss, (model.kind, "loss"))
    _assert_close(p_grad, grad, (model.kind, "gradient"))
