"""Correctness checks, each computed apart from the code it checks or from
a property the method must have. None compares against stored output.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# -- encoder-train ---------------------------------------------------------------------


def directional_gradient(model, batch, rng, steps=(1e-4, 1e-5, 1e-6)):
    """The derivative of the loss along a random unit direction v over all
    parameters: from backward(), and by central differences at each step.

    Several steps, because a step can cross a ReLU kink (too large) or
    lose digits to rounding (too small); a wrong gradient is wrong at all.
    """
    from seqstate import autodiff as ad
    from seqstate.training import batch_objective

    tensors = dict(model.params.items())
    theta = {n: t.data.copy() for n, t in tensors.items()}
    v = {n: rng.standard_normal(a.shape) for n, a in theta.items()}
    norm = np.sqrt(sum(float((d * d).sum()) for d in v.values()))
    v = {n: d / norm for n, d in v.items()}

    model.params.zero_grad()
    loss, _, _, _ = batch_objective(model, batch, regularize=False)
    loss.backward()
    analytic = sum(float((t.grad * v[n]).sum()) for n, t in tensors.items()
                   if t.grad is not None)
    model.params.zero_grad()

    def loss_at(step):
        for n, t in tensors.items():
            t.data = theta[n] + step * v[n]
        with ad.no_grad():
            return float(batch_objective(model, batch, regularize=False)[0].data)

    try:
        numeric = [(loss_at(h) - loss_at(-h)) / (2.0 * h) for h in steps]
    finally:
        for n, t in tensors.items():
            t.data = theta[n]
    return analytic, numeric


def gradient_check(model, batch, rng, rtol: float = 1e-5) -> list[str]:
    analytic, numeric = directional_gradient(model, batch, rng)
    best = min(numeric, key=lambda x: abs(x - analytic))
    if not abs(analytic - best) <= rtol * max(abs(analytic), abs(best), 1e-12):
        return [f"{model.kind}: backward() gives {analytic!r}, central differences "
                f"give {numeric!r}"]
    return []


# -- policy-offline --------------------------------------------------------------------


def buffer_invariants(buffer, trajs) -> list[str]:
    """One transition per step, done exactly at each last step, terminal
    reward +1 for survivors and -1 for deaths, 0 elsewhere."""
    lengths = np.array([t.n_steps for t in trajs])
    n = int(lengths.sum())
    if len(buffer) != n:
        return [f"buffer holds {len(buffer)} transitions for {n} steps"]
    last = np.cumsum(lengths) - 1
    done = np.zeros(n, dtype=bool)
    done[last] = True
    rewards = np.zeros(n)
    rewards[last] = [1.0 if t.outcome == 0 else -1.0 for t in trajs]
    actions = np.concatenate([t.actions for t in trajs])
    errors = []
    if not np.array_equal(buffer.done, done):
        errors.append("done flags are not exactly the last step of each trajectory")
    if not np.array_equal(buffer.rewards, rewards):
        errors.append("rewards are not +-1 at the terminal step and 0 elsewhere")
    if not np.array_equal(buffer.actions, actions):
        errors.append("buffer actions differ from the logged actions")
    nxt = np.zeros_like(buffer.states)
    nxt[:-1] = buffer.states[1:]
    nxt[last] = 0.0
    if not np.array_equal(buffer.next_states, nxt):
        errors.append("next states are not the following step's state")
    return errors


def batched_latents(model, trajs, batch_size: int = 128) -> np.ndarray:
    """Latents of every step from a batched model_forward, not the
    per-patient encode path."""
    from seqstate import autodiff as ad
    from seqstate.encoders import make_batch, model_forward

    blocks = []
    for lo in range(0, len(trajs), batch_size):
        chunk = trajs[lo:lo + batch_size]
        with ad.no_grad():
            lat = model_forward(model, make_batch(chunk, model.input_mode)).latents.data
        blocks.extend(lat[i, :t.n_steps] for i, t in enumerate(chunk))
    return np.concatenate(blocks)


def latents_match(buffer, model, trajs, atol: float = 1e-10) -> list[str]:
    ref = batched_latents(model, trajs)
    err = float(np.abs(buffer.states - ref).max())
    return [] if err <= atol else [f"buffer latents differ from batched forward by {err:.3g}"]


def choices_in_filter(qpolicy, states) -> list[str]:
    """Greedy choices must lie in the set whose behaviour probability is at
    least tau times the row maximum."""
    probs = qpolicy.filter_probs(states)
    allowed = probs >= qpolicy.config.tau * probs.max(axis=1, keepdims=True)
    chosen = qpolicy.select_actions(states)
    bad = int((~allowed[np.arange(len(chosen)), chosen]).sum())
    return [] if bad == 0 else [f"{bad} greedy actions lie outside the BCQ candidate set"]


def wis_log_space(qpolicy, behavior, eval_set, floor=1e-12, clip=(1e-8, 1e8)):
    """WIS and ESS with the importance ratio products summed in log space."""
    log_w = []
    for lat, acts in zip(eval_set.latents, eval_set.actions):
        rows = np.arange(len(acts))
        pi_e = qpolicy.eval_action_probs(lat)[rows, acts]
        pi_b = behavior.probs(lat)[rows, acts]
        log_w.append(np.sum(np.log(pi_e) - np.log(np.maximum(pi_b, floor))))
    w = np.exp(np.clip(np.array(log_w), np.log(clip[0]), np.log(clip[1])))
    returns = np.asarray(eval_set.returns, dtype=float)
    return float((w * returns).sum() / w.sum()), float(w.sum() ** 2 / (w * w).sum())


def wis_consistent(wis_ess, qpolicy, behavior, eval_set, rtol: float = 1e-8) -> list[str]:
    wis, ess = wis_ess
    ref_wis, ref_ess = wis_log_space(qpolicy, behavior, eval_set)
    errors = []
    if not np.isclose(wis, ref_wis, rtol=rtol, atol=1e-12):
        errors.append(f"WIS {wis!r} differs from the log-space value {ref_wis!r}")
    if not np.isclose(ess, ref_ess, rtol=rtol):
        errors.append(f"ESS {ess!r} differs from the log-space value {ref_ess!r}")
    returns = eval_set.returns
    if not returns.min() <= wis <= returns.max():
        errors.append(f"WIS {wis!r} lies outside the range of returns")
    if not 1.0 - 1e-9 <= ess <= len(returns) + 1e-9:
        errors.append(f"ESS {ess!r} lies outside [1, {len(returns)}]")
    return errors


# -- cli-pipeline ----------------------------------------------------------------------


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def csv_shape(path: Path, header: str, n_rows: int) -> list[str]:
    if not path.exists():
        return [f"{path.name} is missing"]
    got_header, rows = read_csv(path)
    errors = []
    if got_header != header.split(","):
        errors.append(f"{path}: header {got_header} != {header.split(',')}")
    if len(rows) != n_rows:
        errors.append(f"{path}: {len(rows)} rows, expected {n_rows}")
    return errors


def bundle_round_trip(run_dir: Path, scratch: Path) -> list[str]:
    """model.bin -> load_encoder_run -> save_bundle gives the same bytes."""
    from seqstate.bundle import save_bundle
    from seqstate.runio import load_encoder_run

    model, _stats, _manifest = load_encoder_run(run_dir)
    copy = scratch / f"{run_dir.name}.bin"
    save_bundle(copy, model.kind, model.params.snapshot())
    same = copy.read_bytes() == (run_dir / "model.bin").read_bytes()
    copy.unlink()
    return [] if same else [f"{run_dir}/model.bin does not round-trip bit-exactly"]


def correlations_bounded(path: Path) -> list[str]:
    _header, rows = read_csv(path)
    values = [float(v) for row in rows for v in row[2:]]
    bad = [v for v in values if not -1.0 <= v <= 1.0]
    return [] if not bad else [f"{path}: correlations outside [-1, 1]: {bad}"]


def reg_label(summary_path: Path, kind: str) -> bool:
    """The analyze summary labels the only run of ``kind``, trained with
    --reg, as setting obs+reg."""
    best = json.loads(summary_path.read_text(encoding="utf-8"))["best"]
    return any(e["kind"] == kind and e["setting"] == "obs+reg" for e in best)
