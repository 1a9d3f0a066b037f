"""Golden outputs of the synthetic generator, of every encoder kind and of
BC/BCQ at fixed seeds.

``tests/test_golden.py`` recomputes these arrays and compares them with
``tests/data/golden.npz``. A refactor that must keep the numbers leaves that
file alone; rewrite it only for a change that is meant to move them:

    PYTHONPATH=src python tests/make_golden.py

``--fingerprint`` prints one sha256 over the recomputed arrays instead and
writes nothing. A refactor that must keep the numbers bit-identical prints
the same hash at its parent commit and at the change, on the same machine:

    PYTHONPATH=src python tests/make_golden.py --fingerprint
"""

from __future__ import annotations

import argparse
import hashlib
from pathlib import Path

import numpy as np

from seqstate import autodiff as ad
from seqstate.cohort import Trajectory, compute_norm_stats, znormalize
from seqstate.encoders import (INPUT_MODES, KINDS, build_encoder, encode_many,
                               make_batch, model_forward, predict_next_obs)
from seqstate.optim import adam_init, adam_step, clip_global_norm
from seqstate.policy import (BCConfig, BCQConfig, TransitionBuffer, WisEvalSet,
                             behavior_clone, train_bcq, trajectory_weights)
from seqstate.synthetic import generate_synthetic
from seqstate.training import (GRAD_CLIP_NORM, SCORE_NAMES, batch_objective,
                               evaluate_mse, evaluate_rho)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.npz"
D_S = 4


def golden_patients() -> list[Trajectory]:
    """Two normalized patients cut to 5 and 3 steps, so one is padded."""
    cohort = generate_synthetic(12, 0)
    cohort = znormalize(cohort, compute_norm_stats(cohort))
    long_stays = [t for t in cohort.trajectories if t.n_steps >= 5][:2]
    return [Trajectory(t.patient_id, t.obs[:n], t.demog, t.actions[:n],
                       t.sofa[:n], t.saps2[:n], t.oasis[:n], t.outcome)
            for t, n in zip(long_stays, (5, 3))]


def inference_patients() -> list[Trajectory]:
    """The golden patients and a one-step stay cut from the first, longest
    first, so that a length-sorted inference path has to reorder them."""
    first, second = golden_patients()
    one_step = Trajectory(f"{first.patient_id}-1", first.obs[:1], first.demog,
                          first.actions[:1], first.sofa[:1], first.saps2[:1],
                          first.oasis[:1], first.outcome)
    return [first, second, one_step]


def encoder_arrays(kind: str) -> dict[str, np.ndarray]:
    """Per input mode: each golden patient's real rows of the latents, the
    predictions and the latents after one clipped Adam step of the
    regularized loss; that loss and its MSE part, and one
    ``predict_next_obs`` row. On the inference patients: each one's
    ``encode_many`` rows, and ``evaluate_mse`` followed by ``evaluate_rho``
    per score."""
    trajs = golden_patients()
    inference = inference_patients()
    out = {}

    def real_rows(name, array):
        for i, traj in enumerate(trajs):
            out[f"{key}.{name}.{i}"] = array[i, :traj.n_steps]

    for mode in INPUT_MODES:
        key = f"{kind}.{mode}"
        model = build_encoder(kind, D_S, mode, seed=1)
        batch = make_batch(trajs, mode)
        with ad.no_grad():
            fwd = model_forward(model, batch)
        real_rows("latents", fwd.latents.data)
        real_rows("preds", fwd.preds.data)
        prefix = fwd.latents.data[0, :3]
        out[f"{key}.next_obs"] = predict_next_obs(
            model, prefix if kind == "dst" else prefix[-1],
            int(trajs[0].actions[2]))
        for i, lat in enumerate(encode_many(model, inference)):
            out[f"{key}.encode_many.{i}"] = lat
        rho = evaluate_rho(model, inference)
        out[f"{key}.val_metrics"] = np.array(
            [evaluate_mse(model, inference), *(rho[name] for name in SCORE_NAMES)])

        loss, mse_value, _, _ = batch_objective(model, batch, regularize=True)
        out[f"{key}.loss"] = np.array([float(loss.data), mse_value])
        loss.backward()
        clip_global_norm(model.params, GRAD_CLIP_NORM)
        adam_step(adam_init(model.params, 1e-3), model.params)
        with ad.no_grad():
            real_rows("latents_after_step", model_forward(model, batch).latents.data)
    return out


def policy_arrays() -> dict[str, np.ndarray]:
    """BC after one step and BCQ after two, on 8 fixed states, plus WIS
    weights. BCQ's second step reads a frozen target that differs from the
    online network, so both halves of its regression target are covered."""
    rng = np.random.default_rng(7)
    n = 64
    buf = TransitionBuffer(rng.normal(size=(n, D_S)),
                           rng.integers(0, 25, n).astype(np.int64),
                           rng.normal(size=n), rng.normal(size=(n, D_S)),
                           rng.random(n) < 0.1, seed=3)
    states = rng.normal(size=(8, D_S))
    behavior = behavior_clone(buf, BCConfig(iterations=1, seed=4))
    policy, _ = train_bcq(buf, BCQConfig(iterations=2, target_period=10**9,
                                         eval_period=10**9, seed=5))
    lengths = (4, 2, 3)
    eval_set = WisEvalSet(
        latents=[rng.normal(size=(k, D_S)) for k in lengths],
        actions=[rng.integers(0, 25, k) for k in lengths],
        returns=np.array([1.0, -1.0, 1.0]),
    )
    return {
        "policy.bc.logits": behavior.logits(states),
        "policy.bc.probs": behavior.probs(states),
        "policy.bcq.q_values": policy.q_values(states),
        "policy.bcq.filter_probs": policy.filter_probs(states),
        "policy.bcq.actions": policy.select_actions(states),
        "policy.wis.weights": trajectory_weights(policy, behavior, eval_set),
    }


def synthetic_arrays() -> dict[str, np.ndarray]:
    """The 20-patient cohort at seed 0: every step of obs, actions and the
    three acuity scores stacked in patient order, with each patient's length
    and outcome."""
    trajs = generate_synthetic(20, 0).trajectories
    out = {f"synthetic.{name}": np.concatenate([getattr(t, name) for t in trajs])
           for name in ("obs", "actions", "sofa", "saps2", "oasis")}
    out["synthetic.lengths"] = np.array([t.n_steps for t in trajs])
    out["synthetic.outcomes"] = np.array([t.outcome for t in trajs])
    return out


def golden_arrays() -> dict[str, np.ndarray]:
    out = policy_arrays()
    out.update(synthetic_arrays())
    for kind in KINDS:
        out.update(encoder_arrays(kind))
    return out


def fingerprint(arrays: dict[str, np.ndarray]) -> str:
    """sha256 over each array's name, dtype, shape and bytes, in name order."""
    digest = hashlib.sha256()
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        digest.update(f"{key}|{array.dtype.str}|{array.shape}|".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fingerprint", action="store_true",
                        help="print the sha256 of the arrays; write nothing")
    if parser.parse_args().fingerprint:
        print(fingerprint(golden_arrays()))
    else:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(GOLDEN, **golden_arrays())
        print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
