"""Post-hoc representation analytics: PCA projections, latent-acuity
correlation tables, and sweep aggregation. Emits plot-ready CSV rows
rather than rendered figures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohort import Trajectory
# encode_trajectory stays bound here: the benchmark's tracer counts
# per-patient encodes by patching this name.
from .encoders import EncoderModel, encode_many, encode_trajectory  # noqa: F401
from .training import latent_rho

# Best reported settings per architecture on the original restricted-access
# ICU cohort (documentation targets; not reachable on synthetic data).
REFERENCE_BEST = {
    "ae": {"best_mse": 0.4804, "tol": 0.001, "d_s": 64, "setting": "obs+demog"},
    "ais": {"best_mse": 0.4679, "tol": 0.004, "d_s": 64, "setting": "obs+demog"},
    "cde": {"best_mse": 0.4887, "tol": 0.019, "d_s": 32, "setting": "obs+demog"},
    "ddm": {"best_mse": 0.4654, "tol": 0.002, "d_s": 128, "setting": "obs+demog"},
    "dst": {"best_mse": 0.5863, "tol": 0.013, "d_s": 64, "setting": "obs"},
    "ode": {"best_mse": 0.4698, "tol": 0.003, "d_s": 32, "setting": "obs+demog"},
    "rnn": {"best_mse": 0.4658, "tol": 0.002, "d_s": 64, "setting": "obs+demog"},
}


@dataclass
class PcaModel:
    mean: np.ndarray                 # (d,)
    components: np.ndarray           # (k, d), orthonormal rows
    explained_variance_ratio: np.ndarray  # (k,), nonincreasing


def pca_fit(x: np.ndarray, k: int) -> PcaModel:
    """Top-k eigenvectors of the sample covariance."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}], got {k}")
    if n <= k:
        raise ValueError("need more samples than components")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    total = eigvals.sum()
    ratio = eigvals[:k] / total if total > 0 else np.zeros(k)
    return PcaModel(mean=mean, components=eigvecs[:, order[:k]].T.copy(),
                    explained_variance_ratio=ratio)


def pca_project(model: PcaModel, x: np.ndarray) -> np.ndarray:
    return (np.asarray(x, dtype=np.float64) - model.mean) @ model.components.T


def pooled_latents(model: EncoderModel, trajs: list[Trajectory]) -> np.ndarray:
    return np.concatenate(encode_many(model, trajs))


def correlation_table(latents: dict[str, list[np.ndarray]],
                      trajs: list[Trajectory]) -> dict[str, dict[str, float]]:
    """Mean per-dimension latent-score correlation per run and score;
    ``latents[name]`` holds that run's ``encode_many`` rows of ``trajs``."""
    if not latents or not trajs:
        raise ValueError("need at least one run and one trajectory")
    return {name: latent_rho(lats, trajs) for name, lats in latents.items()}


def endpoint_projection(latents: list[np.ndarray], trajs: list[Trajectory],
                        pca: PcaModel) -> list[dict]:
    """First/last latent of each patient in component space; ``latents``
    holds the ``encode_many`` rows of ``trajs``.

    Single-step trajectories contribute one row; the outcome column drives
    the survived/died coloring downstream.
    """
    rows = []
    for traj, lat in zip(trajs, latents):
        proj = pca_project(pca, lat)
        points = [("first", 0)]
        if traj.n_steps >= 2:
            points.append(("last", traj.n_steps - 1))
        for which, idx in points:
            rows.append({
                "patient_id": traj.patient_id,
                "which": which,
                "pc1": float(proj[idx, 0]),
                "pc2": float(proj[idx, 1]) if proj.shape[1] > 1 else 0.0,
                "outcome": int(traj.outcome),
                "sofa": float(traj.sofa[idx]),
            })
    return rows


@dataclass
class SweepRow:
    kind: str
    d_s: int
    mode: str
    reg: bool
    seed: int
    val_mse: float


def aggregate_sweep(rows: list[SweepRow]) -> dict:
    """Mean +/- 2 std over seeds per setting plus the best row per kind."""
    if not rows:
        raise ValueError("no completed runs to aggregate")
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        groups.setdefault((r.kind, r.d_s, r.mode, r.reg), []).append(r.val_mse)
    aggregated = []
    for (kind, d_s, mode, reg), values in sorted(groups.items()):
        arr = np.array(values)
        aggregated.append({
            "kind": kind, "d_s": d_s, "mode": mode, "reg": reg,
            "n_seeds": len(values),
            "mean_val_mse": float(arr.mean()),
            "two_std": float(2.0 * arr.std()),
        })
    best = {}
    for entry in aggregated:
        cur = best.get(entry["kind"])
        if cur is None or entry["mean_val_mse"] < cur["best_mse"]:
            setting = entry["mode"] + ("+reg" if entry["reg"] else "")
            best[entry["kind"]] = {
                "kind": entry["kind"],
                "best_mse": entry["mean_val_mse"],
                "d_s": entry["d_s"],
                "setting": setting,
            }
    return {"rows": aggregated, "best": [best[k] for k in sorted(best)]}
