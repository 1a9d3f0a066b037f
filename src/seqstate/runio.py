"""Run-directory layout and atomic file output.

A training run directory is the unit of composition between pipeline
commands:

    config.json    exact configuration the run was launched with
    manifest.json  architecture, split, normalization stats, metrics
    model.bin      parameter bundle (flat binary format)
    history.csv    per-epoch learning curve

Policy runs hold qfilter.bin / behavior.bin / curve.csv instead. All files
are written atomically (temp file plus rename), so a crashed run never
leaves a half-written artifact that later commands would accept.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from . import nn
from .bundle import load_bundle, save_bundle
from .cohort import NormStats
from .encoders import EncoderModel, build_encoder
from .policy import BCPolicy, BCQConfig, CurvePoint, QPolicy
from .training import SCORE_NAMES, EpochRecord, TrainResult


class DataError(Exception):
    """A missing, corrupt or mismatched input file or run artifact (CLI exit
    code 3)."""


HISTORY_HEADER = "epoch,train_mse,val_mse,rho_sofa,rho_saps2,rho_oasis"
CURVE_HEADER = "iteration,wis_return,ess,q_loss,filter_loss"


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict:
    """A JSON object from ``path``; a file that does not hold one raises
    DataError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object")
    return payload


def _atomic_bundle(path: Path, tag: str, arrays) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    os.close(fd)
    try:
        save_bundle(tmp, tag, arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str | Path, header: str, rows: list[list]) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def history_rows(history: list[EpochRecord]) -> list[list]:
    rows = []
    for rec in history:
        row = [rec.epoch, rec.train_mse, rec.val_mse]
        row.extend(rec.rho.get(name, float("nan")) for name in SCORE_NAMES)
        rows.append(row)
    return rows


# -- encoder runs --------------------------------------------------------------------


def save_encoder_run(run_dir: str | Path, model: EncoderModel, stats: NormStats,
                     result: TrainResult, run_config: dict,
                     cohort_provenance: str, split: dict) -> None:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    _atomic_bundle(run_dir / "model.bin", model.kind, model.params.snapshot())
    write_json(run_dir / "config.json", run_config)
    manifest = {
        "artifact": "encoder_run",
        "kind": model.kind,
        "d_s": model.d_s,
        "input_mode": model.input_mode,
        "lambdas": list(model.lambdas),
        "build_seed": model.meta.get("seed"),
        "meta": {k: v for k, v in model.meta.items() if k != "seed"},
        "cohort_provenance": cohort_provenance,
        "split": split,
        "normalization": stats.to_dict(),
        "metrics": {
            "best_val_mse": result.best_val_mse,
            "best_epoch": result.best_epoch,
            "epochs_run": len(result.history),
            "param_count": model.param_count(),
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    write_json(run_dir / "manifest.json", manifest)
    write_csv(run_dir / "history.csv", HISTORY_HEADER, history_rows(result.history))


def load_encoder_run(run_dir: str | Path) -> tuple[EncoderModel, NormStats, dict]:
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"{run_dir}: missing manifest.json")
    manifest = read_json(manifest_path)
    tag, arrays = load_bundle(run_dir / "model.bin")
    if tag != manifest["kind"]:
        raise DataError(f"{run_dir}: bundle tag {tag!r} != manifest kind")
    model = build_encoder(
        manifest["kind"], manifest["d_s"], manifest["input_mode"],
        seed=manifest.get("build_seed") or 0,
        lambdas=tuple(manifest["lambdas"]),
    )
    model.params.load(arrays)
    model.meta.update(manifest.get("meta", {}))
    stats = NormStats.from_dict(manifest["normalization"])
    return model, stats, manifest


# -- policy runs ---------------------------------------------------------------------


def save_policy_run(run_dir: str | Path, policy: QPolicy, behavior: BCPolicy,
                    curve: list[CurvePoint], run_config: dict,
                    manifest_extra: dict) -> None:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    arrays = policy.params.snapshot()
    arrays.update({f"target.{k}": v.copy() for k, v in policy.target.items()})
    _atomic_bundle(run_dir / "qfilter.bin", "bcq", arrays)
    _atomic_bundle(run_dir / "behavior.bin", "bc", behavior.params.snapshot())
    write_json(run_dir / "config.json", run_config)
    manifest = {
        "artifact": "policy_run",
        "gamma": policy.config.gamma,
        "tau": policy.config.tau,
        "eval_epsilon": 0.01,
        "seed": policy.config.seed,
        "bc_train_accuracy": behavior.train_accuracy,
        "bc_missing_actions": list(behavior.missing_actions),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    manifest.update(manifest_extra)
    write_json(run_dir / "manifest.json", manifest)
    rows = [[p.iteration, p.wis_return, p.ess, p.q_loss, p.filter_loss]
            for p in curve]
    write_csv(run_dir / "curve.csv", CURVE_HEADER, rows)


def load_policy_run(run_dir: str | Path) -> tuple[QPolicy, BCPolicy, dict]:
    run_dir = Path(run_dir)
    manifest = read_json(run_dir / "manifest.json")
    _, arrays = load_bundle(run_dir / "qfilter.bin")
    d_s = arrays["q.l1.w"].shape[0]
    hidden = arrays["q.l1.w"].shape[1]
    config = BCQConfig(hidden=hidden, gamma=manifest["gamma"],
                       tau=manifest["tau"], seed=manifest["seed"])
    params = nn.Params()
    target = {}
    for name, arr in arrays.items():
        if name.startswith("target."):
            target[name[len("target."):]] = arr.copy()
        else:
            params.register(name, arr)
    policy = QPolicy(params=params, target=target, d_s=d_s, config=config)

    _, bc_arrays = load_bundle(run_dir / "behavior.bin")
    bc_params = nn.Params()
    for name, arr in bc_arrays.items():
        bc_params.register(name, arr)
    behavior = BCPolicy(
        params=bc_params, d_s=bc_arrays["bc.l1.w"].shape[0],
        hidden=bc_arrays["bc.l1.w"].shape[1],
        train_accuracy=manifest.get("bc_train_accuracy", float("nan")),
        missing_actions=tuple(manifest.get("bc_missing_actions", [])),
    )
    return policy, behavior, manifest
