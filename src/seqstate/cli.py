"""Command-line orchestration of the full pipeline.

Subcommands: gen-data, train-encoder, sweep, train-policy, analyze.
Defaults are desk-scale (training completes in minutes); reference-scale
schedules are reachable through flags. Every command is deterministic
given its flags and seeds, and run directories always contain the exact
configuration used.

Exit codes: 0 success, 2 usage, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .analysis import (REFERENCE_BEST, SweepRow, aggregate_sweep,
                       correlation_table, endpoint_projection, pca_fit,
                       pooled_latents)
from .bundle import BundleFormatError
from .cohort import (Cohort, CohortError, SplitSpec, compute_norm_stats,
                     load_cohort, save_cohort, stratified_split, znormalize)
from .encoders import D_S_GRID, KINDS, build_encoder
from .odesolve import OdeError
from .policy import (BCConfig, BCQConfig, behavior_clone, build_buffer,
                     make_eval_set, train_bcq, wis_evaluate)
from .runio import (DataError, load_encoder_run, read_json, save_encoder_run,
                    save_policy_run, write_csv, write_json)
from .synthetic import SyntheticConfig, generate_synthetic
from .training import (REFERENCE_EPOCHS, TrainingDiverged, default_train_config,
                       train_encoder)

DESK_EPOCHS = 50
DESK_SUBSTEPS = 1
DESK_POLICY_ITERATIONS = 20_000


class UsageError(Exception):
    """A flag value the command cannot run with (exit code 2)."""


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise DataError(f"config file not found: {path}")
    return read_json(p)


def _resolve(flag_value, config: dict, key: str, default):
    """Flag beats config file beats built-in default."""
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _load_cohort_checked(path: str) -> Cohort:
    p = Path(path)
    if not p.exists():
        raise DataError(f"cohort file not found: {path}")
    return load_cohort(p)


def _split_cohort(cohort: Cohort, split_seed: int):
    spec = SplitSpec(seed=split_seed)
    train, val, test = stratified_split(cohort, spec)
    stats = compute_norm_stats(train)
    return (znormalize(train, stats), znormalize(val, stats),
            znormalize(test, stats), stats, spec)


# -- gen-data ---------------------------------------------------------------------


def cmd_gen_data(args, config: dict) -> int:
    n = _resolve(args.n, config, "n", 2000)
    seed = _resolve(args.seed, config, "seed", 0)
    mortality = _resolve(args.mortality, config, "mortality", 0.09)
    try:
        cohort = generate_synthetic(n, seed, SyntheticConfig(mortality_target=mortality))
    except ValueError as exc:  # the generator validates its arguments
        raise UsageError(f"gen-data: {exc}") from exc
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_cohort(cohort, out)
    print(f"wrote {len(cohort)} patients to {out}")
    print(f"realized mortality: {cohort.mortality():.4f} (target {mortality})")
    return 0


# -- train-encoder -----------------------------------------------------------------


def run_encoder_training(cohort_path: str, out_dir: str, kind: str, d_s: int,
                         mode: str, reg: bool, epochs: int, lr: float | None,
                         batch_size: int, seed: int, split_seed: int,
                         lambda_scale: float | None, substeps: int) -> dict:
    """Shared single-run pipeline used by train-encoder and sweep."""
    cohort = _load_cohort_checked(cohort_path)
    train, val, _test, stats, spec = _split_cohort(cohort, split_seed)
    model = build_encoder(kind, d_s, mode, seed=seed)
    cfg = default_train_config(kind, d_s)
    cfg.epochs = epochs
    cfg.seed = seed
    cfg.batch_size = batch_size
    cfg.regularize = reg
    cfg.lambda_scale = lambda_scale
    cfg.solver_substeps = substeps
    if lr is not None:
        cfg.lr = lr
    result = train_encoder(model, train.trajectories, val.trajectories, cfg)
    run_config = {
        "command": "train-encoder", "cohort": str(cohort_path), "kind": kind,
        "d_s": d_s, "mode": mode, "reg": reg, "split_seed": split_seed,
        **cfg.to_dict(),
    }
    save_encoder_run(
        out_dir, model, stats, result, run_config,
        cohort_provenance=cohort.provenance,
        split={"ratios": list(spec.ratios), "seed": spec.seed},
    )
    return {
        "kind": kind, "d_s": d_s, "mode": mode, "reg": reg, "seed": seed,
        "val_mse": result.best_val_mse, "run_dir": str(out_dir),
    }


def cmd_train_encoder(args, config: dict) -> int:
    epochs = _resolve(args.epochs, config, "epochs", None)
    if epochs is None:
        epochs = REFERENCE_EPOCHS[args.kind] if args.reference_scale else DESK_EPOCHS
    row = run_encoder_training(
        cohort_path=args.cohort,
        out_dir=args.out,
        kind=args.kind,
        d_s=_resolve(args.d_s, config, "d_s", 16),
        mode=_resolve(args.mode, config, "mode", "obs"),
        reg=bool(args.reg or config.get("reg", False)),
        epochs=epochs,
        lr=_resolve(args.lr, config, "lr", None),
        batch_size=_resolve(args.batch_size, config, "batch_size", 128),
        seed=_resolve(args.seed, config, "seed", 0),
        split_seed=_resolve(args.split_seed, config, "split_seed", 0),
        lambda_scale=_resolve(args.lambda_scale, config, "lambda_scale", None),
        substeps=_resolve(args.substeps, config, "substeps", DESK_SUBSTEPS),
    )
    print(f"run dir: {row['run_dir']}")
    print(f"best val mse: {row['val_mse']:.6f}")
    return 0


# -- sweep -------------------------------------------------------------------------


def _sweep_task(task: tuple) -> dict:
    (cohort_path, run_dir, kind, d_s, mode, reg, epochs, batch_size, seed,
     split_seed, substeps) = task
    try:
        return run_encoder_training(
            cohort_path, run_dir, kind, d_s, mode, reg, epochs, None,
            batch_size, seed, split_seed, None, substeps,
        )
    except Exception as exc:  # recorded, aggregation proceeds over completions
        return {"kind": kind, "d_s": d_s, "mode": mode, "reg": reg,
                "seed": seed, "error": f"{type(exc).__name__}: {exc}",
                "run_dir": str(run_dir)}


def cmd_sweep(args, config: dict) -> int:
    kinds = _resolve(args.kinds, config, "kinds", ",".join(KINDS)).split(",")
    d_s_list = [int(v) for v in
                _resolve(args.d_s_list, config, "d_s_list",
                         ",".join(str(d) for d in D_S_GRID)).split(",")]
    modes = _resolve(args.modes, config, "modes", "obs").split(",")
    seeds = [int(v) for v in _resolve(args.seeds, config, "seeds", "0").split(",")]
    reg_mode = _resolve(args.reg, config, "reg", "off")
    regs = {"off": [False], "on": [True], "both": [False, True]}[reg_mode]
    epochs = _resolve(args.epochs, config, "epochs", DESK_EPOCHS)
    batch_size = _resolve(args.batch_size, config, "batch_size", 128)
    split_seed = _resolve(args.split_seed, config, "split_seed", 0)
    substeps = _resolve(args.substeps, config, "substeps", DESK_SUBSTEPS)
    workers = _resolve(args.workers, config, "workers", 1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    tasks = []
    for kind in kinds:
        for d_s in d_s_list:
            for mode in modes:
                for reg in regs:
                    for seed in seeds:
                        name = f"{kind}_d{d_s}_{mode.replace('+', '-')}" \
                               f"{'_reg' if reg else ''}_s{seed}"
                        tasks.append((args.cohort, str(out / name), kind, d_s,
                                      mode, reg, epochs, batch_size, seed,
                                      split_seed, substeps))

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_task, tasks))
    else:
        results = [_sweep_task(t) for t in tasks]

    completed = [r for r in results if "error" not in r]
    failures = [r for r in results if "error" in r]
    if not completed:
        for f in failures:
            print(f"FAILED {f['run_dir']}: {f['error']}", file=sys.stderr)
        raise TrainingDiverged(-1, float("nan"))

    rows = sorted(
        [[r["kind"], r["d_s"], r["mode"], int(r["reg"]), r["seed"], r["val_mse"]]
         for r in completed]
    )
    write_csv(out / "sweep.csv", "kind,d_s,mode,reg,seed,val_mse", rows)
    agg = aggregate_sweep([SweepRow(r["kind"], r["d_s"], r["mode"], r["reg"],
                                    r["seed"], r["val_mse"]) for r in completed])
    write_csv(
        out / "aggregate.csv",
        "kind,d_s,mode,reg,n_seeds,mean_val_mse,two_std",
        [[e["kind"], e["d_s"], e["mode"], int(e["reg"]), e["n_seeds"],
          e["mean_val_mse"], e["two_std"]] for e in agg["rows"]],
    )
    write_json(out / "summary.json",
               {"best": agg["best"], "failures": failures,
                "n_completed": len(completed)})
    print(f"sweep complete: {len(completed)} runs, {len(failures)} failures")
    return 0


# -- train-policy ------------------------------------------------------------------


def cmd_train_policy(args, config: dict) -> int:
    run_dir = Path(args.encoder_run)
    if not (run_dir / "manifest.json").exists():
        raise DataError(f"encoder run not found: {run_dir}")
    model, stats, manifest = load_encoder_run(run_dir)
    cohort = _load_cohort_checked(args.cohort)
    split_seed = manifest["split"]["seed"]
    spec = SplitSpec(seed=split_seed)
    train, _val, test = stratified_split(cohort, spec)
    train_n = znormalize(train, stats)
    test_n = znormalize(test, stats)

    seed = _resolve(args.seed, config, "seed", 0)
    default_lr = 1e-5 if model.kind == "cde" else 1e-3
    bcq_cfg = BCQConfig(
        iterations=_resolve(args.iterations, config, "iterations",
                            DESK_POLICY_ITERATIONS),
        lr=_resolve(args.lr, config, "lr", default_lr),
        hidden=128 if model.kind == "ddm" else 64,
        eval_period=_resolve(args.eval_every, config, "eval_every", 500),
        seed=seed,
    )
    buffer = build_buffer(model, train_n.trajectories, seed=seed)
    behavior = behavior_clone(buffer, BCConfig(seed=seed))
    eval_set = make_eval_set(model, test_n.trajectories)
    policy, curve = train_bcq(buffer, bcq_cfg, eval_ctx=eval_set,
                              behavior=behavior)
    final_wis, final_ess = wis_evaluate(policy, behavior, eval_set)

    out = Path(args.out)
    run_config = {
        "command": "train-policy", "encoder_run": str(run_dir),
        "cohort": str(args.cohort), "iterations": bcq_cfg.iterations,
        "lr": bcq_cfg.lr, "eval_every": bcq_cfg.eval_period, "seed": seed,
    }
    save_policy_run(out, policy, behavior, curve, run_config, manifest_extra={
        "encoder_run": str(run_dir),
        "encoder_kind": model.kind,
        "d_s": model.d_s,
        "cohort_provenance": cohort.provenance,
        "final_wis": final_wis,
        "final_ess": final_ess,
        "n_transitions": len(buffer),
    })
    print(f"policy run dir: {out}")
    print(f"final WIS return: {final_wis:.4f} (ESS {final_ess:.1f})")
    return 0


# -- analyze -----------------------------------------------------------------------


def cmd_analyze(args, config: dict) -> int:
    cohort = _load_cohort_checked(args.cohort)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    models, manifests = {}, {}
    for run in args.runs:
        run_path = Path(run)
        if not (run_path / "manifest.json").exists():
            raise DataError(f"run directory not found or incomplete: {run}")
        manifest = read_json(run_path / "manifest.json")
        if manifest.get("artifact") != "encoder_run":
            raise DataError(f"{run}: not an encoder run directory")
        if manifest["cohort_provenance"] != cohort.provenance:
            raise DataError(
                f"{run}: cohort provenance mismatch "
                f"({manifest['cohort_provenance']!r} vs {cohort.provenance!r})"
            )
        model, stats, manifest = load_encoder_run(run_path)
        name = run_path.name
        models[name] = model
        manifests[name] = (manifest, stats)

    corr_rows = []
    for name, model in models.items():
        manifest, stats = manifests[name]
        spec = SplitSpec(seed=manifest["split"]["seed"])
        _train, _val, test = stratified_split(cohort, spec)
        test_n = znormalize(test, stats)
        rho = correlation_table({name: model}, test_n.trajectories)[name]
        corr_rows.append([name, model.kind, rho["sofa"], rho["saps2"],
                          rho["oasis"]])
        lats = pooled_latents(model, test_n.trajectories)
        pca = pca_fit(lats, k=min(2, model.d_s))
        proj = endpoint_projection(model, test_n.trajectories, pca)
        write_csv(
            out / f"projection_{name}.csv",
            "patient_id,which,pc1,pc2,outcome,sofa",
            [[r["patient_id"], r["which"], r["pc1"], r["pc2"], r["outcome"],
              r["sofa"]] for r in proj],
        )
    write_csv(out / "correlation.csv", "run,kind,rho_sofa,rho_saps2,rho_oasis",
              corr_rows)

    best: dict[str, dict] = {}
    for name, (manifest, _stats) in manifests.items():
        kind = manifest["kind"]
        mse = manifest["metrics"]["best_val_mse"]
        setting = manifest["input_mode"] + (
            "+reg" if manifest.get("meta", {}).get("regularized") else ""
        )
        if kind not in best or mse < best[kind]["best_mse"]:
            best[kind] = {"kind": kind, "best_mse": mse,
                          "d_s": manifest["d_s"], "setting": setting}
    write_json(out / "summary.json", {
        "best": [best[k] for k in sorted(best)],
        "reference_targets": REFERENCE_BEST,
    })
    print(f"analysis written to {out}")
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqstate",
        description="Sequential latent-state representations and "
                    "batch-constrained treatment policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic cohort CSV")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mortality", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-encoder", help="train one encoder")
    p.add_argument("--cohort", required=True)
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--d-s", dest="d_s", type=int, default=None)
    p.add_argument("--mode", choices=("obs", "obs+demog"), default=None)
    p.add_argument("--reg", action="store_true",
                   help="regularize latents toward acuity-score correlation")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--reference-scale", action="store_true",
                   help="use the reference epoch schedule instead of desk scale")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--split-seed", type=int, default=None)
    p.add_argument("--lambda-scale", type=float, default=None)
    p.add_argument("--substeps", type=int, default=None,
                   help="solver substeps per time bin (desk default 1; "
                        "reference accuracy 4)")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_encoder)

    # the full reference request is 7 kinds x 7 dims x 4 settings x 5 seeds
    # = 980 runs; defaults stay desk-sized
    p = sub.add_parser("sweep", help="train a grid of encoders")
    p.add_argument("--cohort", required=True)
    p.add_argument("--kinds", default=None, help="comma list (default: all 7)")
    p.add_argument("--d-s-list", dest="d_s_list", default=None,
                   help="comma list (default: 4,8,16,32,64,128,256)")
    p.add_argument("--modes", default=None)
    p.add_argument("--seeds", default=None)
    p.add_argument("--reg", choices=("off", "on", "both"), default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--split-seed", type=int, default=None)
    p.add_argument("--substeps", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train-policy", help="train a batch-constrained policy")
    p.add_argument("--encoder-run", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--eval-every", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_policy)

    p = sub.add_parser("analyze", help="correlation tables and projections")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config_file(getattr(args, "config", None))
        return args.func(args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, CohortError, BundleFormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (TrainingDiverged, OdeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
