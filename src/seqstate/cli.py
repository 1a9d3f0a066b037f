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
import itertools
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .analysis import (REFERENCE_BEST, SweepRow, aggregate_sweep,
                       correlation_table, endpoint_projection, pca_fit)
# pooled_latents stays bound here: the benchmark's tracer patches this name.
from .analysis import pooled_latents  # noqa: F401
from .bundle import BundleFormatError
from .cohort import (Cohort, CohortError, SplitSpec, load_cohort,
                     normalized_splits, save_cohort)
from .encoders import D_S_GRID, INPUT_MODES, KINDS, build_encoder, encode_many
from .odesolve import OdeError
from .policy import (BCConfig, BCQConfig, behavior_clone, build_buffer,
                     make_eval_set, train_bcq, wis_evaluate)
from .runio import (DataError, load_encoder_run, read_json, save_encoder_run,
                    save_policy_run, write_csv, write_json)
from .synthetic import SyntheticConfig, generate_synthetic
from .training import (DESK_EPOCHS, DESK_SUBSTEPS, REFERENCE_EPOCHS, TrainingDiverged,
                       check_splits, default_train_config, train_encoder)

DESK_POLICY_ITERATIONS = 20_000


class UsageError(Exception):
    """A flag value the command cannot run with (exit code 2)."""


# the exit code of each failure a command can end in; anything else is a bug
# and keeps its traceback
EXIT_CODES = {
    UsageError: 2,
    DataError: 3, CohortError: 3, BundleFormatError: 3, FileNotFoundError: 3,
    TrainingDiverged: 4, OdeError: 4, FloatingPointError: 4,
}
_EXIT_LABELS = {2: "usage error", 3: "data error", 4: "numerical failure"}


def exit_code(exc: BaseException) -> int | None:
    """The exit code of ``exc``, or None if it is not a known failure."""
    return next((code for cls, code in EXIT_CODES.items()
                 if isinstance(exc, cls)), None)


def int_at_least(low: int, name: str):
    """The parser, called ``name``, of an int flag whose values start at
    ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = name
    return parse


positive_int = int_at_least(1, "positive_int")  # every count flag
seed_int = int_at_least(0, "seed_int")  # every seed flag


def positive_float(text: str) -> float:
    """The parser of a float flag that must be positive and finite (every
    learning rate and --lambda-scale)."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text}")
    return value


def comma_list(item=str, choices=None):
    """The parser of a comma-separated flag whose items ``item`` parses and,
    when given, ``choices`` holds."""
    def parse(text: str) -> list:
        try:
            values = [item(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a comma list of {item.__name__}") from None
        for v in values:
            if choices is not None and v not in choices:
                raise argparse.ArgumentTypeError(
                    f"{v!r} is not one of {', '.join(choices)}")
        return values
    return parse


def _load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise DataError(f"config file not found: {path}")
    return read_json(p)


def _check_config(parser: argparse.ArgumentParser, config: dict) -> dict:
    """Config values as their flags parse them. A config file may set every
    optional flag of the subcommand except --help and --config; a key that
    is not one, or a value whose text its flag would not accept, is a usage
    error naming the key."""
    options = {a.dest: a for a in parser._actions
               if a.option_strings and not a.required
               and a.dest not in ("help", "config")}
    values = {}
    for key, value in config.items():
        action = options.get(key)
        if action is None:
            raise UsageError(f"{parser.prog}: unknown config key {key!r} "
                             f"(options: {', '.join(sorted(options))})")
        try:
            if action.nargs == 0:  # an on/off flag
                ok = isinstance(value, bool)
            else:
                value = (action.type or str)(str(value))
                ok = action.choices is None or value in action.choices
        except (ValueError, argparse.ArgumentTypeError):
            ok = False
        if not ok:
            raise UsageError(f"{parser.prog}: config key {key!r} cannot take "
                             f"{config[key]!r}")
        values[key] = value
    return values


def _load_cohort_checked(path: str) -> Cohort:
    p = Path(path)
    if not p.exists():
        raise DataError(f"cohort file not found: {path}")
    return load_cohort(p)


# -- gen-data ---------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    try:
        cohort = generate_synthetic(args.n, args.seed,
                                    SyntheticConfig(mortality_target=args.mortality))
    except ValueError as exc:  # the generator validates its arguments
        raise UsageError(f"gen-data: {exc}") from exc
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_cohort(cohort, out)
    print(f"wrote {len(cohort)} patients to {out}")
    print(f"realized mortality: {cohort.mortality():.4f} (target {args.mortality})")
    return 0


# -- train-encoder -----------------------------------------------------------------


def run_encoder_training(*, cohort_path: str, out_dir: str, kind: str, d_s: int,
                         mode: str, reg: bool, epochs: int, batch_size: int,
                         seed: int, split_seed: int, substeps: int,
                         lr: float | None = None,
                         lambda_scale: float | None = None) -> dict:
    """Shared single-run pipeline used by train-encoder and sweep."""
    cohort = _load_cohort_checked(cohort_path)
    spec = SplitSpec(seed=split_seed)
    train, val, _test, stats = normalized_splits(cohort, spec)
    try:
        model = build_encoder(kind, d_s, mode, seed=seed)
    except ValueError as exc:  # the builder validates its arguments
        raise UsageError(str(exc)) from exc
    cfg = default_train_config(
        kind, d_s, epochs=epochs, seed=seed, batch_size=batch_size,
        regularize=reg, lambda_scale=lambda_scale, solver_substeps=substeps)
    if lr is not None:
        cfg.lr = lr
    try:
        check_splits(train, val)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    result = train_encoder(model, train, val, cfg)
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


def cmd_train_encoder(args) -> int:
    epochs = args.epochs
    if epochs is None:
        epochs = REFERENCE_EPOCHS[args.kind] if args.reference_scale else DESK_EPOCHS
    row = run_encoder_training(
        cohort_path=args.cohort, out_dir=args.out, kind=args.kind, d_s=args.d_s,
        mode=args.mode, reg=args.reg, epochs=epochs, lr=args.lr,
        batch_size=args.batch_size, seed=args.seed, split_seed=args.split_seed,
        lambda_scale=args.lambda_scale, substeps=args.substeps,
    )
    print(f"run dir: {row['run_dir']}")
    print(f"best val mse: {row['val_mse']:.6f}")
    return 0


# -- sweep -------------------------------------------------------------------------


def _sweep_task(task: dict) -> dict:
    try:
        return run_encoder_training(**task)
    except Exception as exc:  # recorded, aggregation proceeds over completions
        return {**{k: task[k] for k in ("kind", "d_s", "mode", "reg", "seed")},
                "error": f"{type(exc).__name__}: {exc}",
                "code": exit_code(exc) or 1, "run_dir": task["out_dir"]}


def cmd_sweep(args) -> int:
    regs = {"off": [False], "on": [True], "both": [False, True]}[args.reg]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    tasks = []
    for kind, d_s, mode, reg, seed in itertools.product(
            args.kinds, args.d_s_list, args.modes, regs, args.seeds):
        name = (f"{kind}_d{d_s}_{mode.replace('+', '-')}"
                f"{'_reg' if reg else ''}_s{seed}")
        tasks.append(dict(
            cohort_path=args.cohort, out_dir=str(out / name), kind=kind,
            d_s=d_s, mode=mode, reg=reg, epochs=args.epochs,
            batch_size=args.batch_size, seed=seed, split_seed=args.split_seed,
            substeps=args.substeps))

    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_sweep_task, tasks))
    else:
        results = [_sweep_task(t) for t in tasks]

    completed = [r for r in results if "error" not in r]
    failures = [r for r in results if "error" in r]
    if not completed:
        for f in failures:
            print(f"FAILED {f['run_dir']}: {f['error']}", file=sys.stderr)
        return failures[0]["code"]

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


def cmd_train_policy(args) -> int:
    run_dir = Path(args.encoder_run)
    model, stats, manifest = load_encoder_run(run_dir)
    cohort = _load_cohort_checked(args.cohort)
    train, _val, test, _stats = normalized_splits(
        cohort, SplitSpec(seed=manifest["split"]["seed"]), stats)

    seed = args.seed
    default_lr = 1e-5 if model.kind == "cde" else 1e-3
    bcq_cfg = BCQConfig(
        iterations=args.iterations,
        lr=default_lr if args.lr is None else args.lr,
        hidden=128 if model.kind == "ddm" else 64,
        eval_period=args.eval_every,
        seed=seed,
    )
    buffer = build_buffer(model, train, seed=seed)
    behavior = behavior_clone(buffer, BCConfig(seed=seed))
    eval_set = make_eval_set(model, test)
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


def cmd_analyze(args) -> int:
    # outputs are named by each run's base name, so two runs must not share one
    seen: dict[str, str] = {}
    for run in args.runs:
        name = Path(run).name
        if name in seen:
            raise UsageError(f"analyze: --runs {seen[name]} and {run} share "
                             f"the base name {name!r}")
        seen[name] = run
    cohort = _load_cohort_checked(args.cohort)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    models, manifests = {}, {}
    for run in args.runs:
        run_path = Path(run)
        model, stats, manifest = load_encoder_run(run_path)
        if manifest["cohort_provenance"] != cohort.provenance:
            raise DataError(
                f"{run}: cohort provenance mismatch "
                f"({manifest['cohort_provenance']!r} vs {cohort.provenance!r})"
            )
        name = run_path.name
        models[name] = model
        manifests[name] = (manifest, stats)

    corr_rows = []
    for name, model in models.items():
        manifest, stats = manifests[name]
        _train, _val, test, _stats = normalized_splits(
            cohort, SplitSpec(seed=manifest["split"]["seed"]), stats)
        lats = encode_many(model, test)
        rho = correlation_table({name: lats}, test)[name]
        corr_rows.append([name, model.kind, rho["sofa"], rho["saps2"],
                          rho["oasis"]])
        pca = pca_fit(np.concatenate(lats), k=min(2, model.d_s))
        proj = endpoint_projection(lats, test, pca)
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

    # the flags train-encoder and sweep share
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--cohort", required=True)
    training.add_argument("--batch-size", type=positive_int, default=128)
    training.add_argument("--split-seed", type=seed_int, default=0)
    training.add_argument("--substeps", type=positive_int, default=DESK_SUBSTEPS,
                          help="solver substeps per time bin (desk default 1; "
                               "reference accuracy 4)")

    p = sub.add_parser("gen-data", help="generate a synthetic cohort CSV")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=seed_int, default=0)
    p.add_argument("--mortality", type=float, default=0.09)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-encoder", help="train one encoder",
                       parents=[training])
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--d-s", dest="d_s", type=positive_int, default=16)
    p.add_argument("--mode", choices=INPUT_MODES, default="obs")
    p.add_argument("--reg", action="store_true",
                   help="regularize latents toward acuity-score correlation")
    p.add_argument("--epochs", type=positive_int, default=None,
                   help=f"default {DESK_EPOCHS}, or the kind's reference "
                        "schedule with --reference-scale")
    p.add_argument("--reference-scale", action="store_true",
                   help="use the reference epoch schedule instead of desk scale")
    p.add_argument("--lr", type=positive_float, default=None)
    p.add_argument("--seed", type=seed_int, default=0)
    p.add_argument("--lambda-scale", type=positive_float, default=None)
    p.set_defaults(func=cmd_train_encoder)

    # the full reference request is 7 kinds x 7 dims x 4 settings x 5 seeds
    # = 980 runs; defaults stay desk-sized
    p = sub.add_parser("sweep", help="train a grid of encoders",
                       parents=[training])
    p.add_argument("--kinds", type=comma_list(str, KINDS), default=list(KINDS),
                   help="comma list (default: all 7)")
    p.add_argument("--d-s-list", dest="d_s_list", type=comma_list(int),
                   default=list(D_S_GRID),
                   help="comma list (default: 4,8,16,32,64,128,256)")
    p.add_argument("--modes", type=comma_list(str, INPUT_MODES), default=["obs"])
    p.add_argument("--seeds", type=comma_list(seed_int), default=[0])
    p.add_argument("--reg", choices=("off", "on", "both"), default="off")
    p.add_argument("--epochs", type=positive_int, default=DESK_EPOCHS)
    p.add_argument("--workers", type=positive_int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train-policy", help="train a batch-constrained policy")
    p.add_argument("--encoder-run", required=True)
    p.add_argument("--cohort", required=True)
    p.add_argument("--iterations", type=positive_int,
                   default=DESK_POLICY_ITERATIONS)
    p.add_argument("--eval-every", type=positive_int, default=500)
    p.add_argument("--lr", type=positive_float, default=None,
                   help="default 1e-5 for a cde encoder, else 1e-3")
    p.add_argument("--seed", type=seed_int, default=0)
    p.set_defaults(func=cmd_train_policy)

    p = sub.add_parser("analyze", help="correlation tables and projections")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--cohort", required=True)
    p.set_defaults(func=cmd_analyze)

    for p in sub.choices.values():
        p.add_argument("--config", default=None)
        p.add_argument("--out", required=True)
        p.set_defaults(subparser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. A flag beats its --config key, which beats the
    flag's default: the config file becomes the subcommand's defaults and
    the command line is parsed again."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            config = _check_config(args.subparser, _load_config_file(args.config))
            args.subparser.set_defaults(**config)
            args = parser.parse_args(argv)
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code = exit_code(exc)
        print(f"{_EXIT_LABELS[code]}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
