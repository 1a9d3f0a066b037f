"""The three benchmark workloads.

Each workload has a ``setup`` (timed, not part of the measurement), a
``round`` that does the same fixed operations every time, ``checks`` on
the outputs, and its peak memory. ``run.py`` times the rounds, so every
workload reports the same metrics. The cohort is always the synthetic one
from generator seed 0 and split seed 0; the workload seed drives model
initialisation, batch order, policy sampling, the gradient-check direction
and every seed flag passed to the CLI.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

KINDS = ("ae", "rnn", "ais", "ddm", "dst", "ode", "cde")

# Input make-up. "tiny" exists for the benchmark's own tests.
SIZES = {
    "full": {"n": 2000, "d_s": 16, "setup_repeats": 3, "frozen_epochs": 2,
             "bc_iters": 1000, "bcq_iters": 500, "eval_every": 250,
             "cli_epochs": 2, "cli_policy_iters": 1000, "cli_eval_every": 500},
    "tiny": {"n": 60, "d_s": 4, "setup_repeats": 1, "frozen_epochs": 1,
             "bc_iters": 40, "bcq_iters": 100, "eval_every": 25,
             "cli_epochs": 1, "cli_policy_iters": 100, "cli_eval_every": 50},
}
COHORT_SEED = 0
SPLIT_SEED = 0
POLICY_PARTS = 4  # policy-offline rounds that cover the training split once


@dataclass
class Context:
    seed: int
    size: dict
    workdir: Path
    src: Path
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def make_splits(n: int):
    from seqstate import (SplitSpec, compute_norm_stats, generate_synthetic,
                          stratified_split, znormalize)

    cohort = generate_synthetic(n, COHORT_SEED)
    train, val, test = stratified_split(cohort, SplitSpec(seed=SPLIT_SEED))
    stats = compute_norm_stats(train)
    return [znormalize(c, stats).trajectories for c in (train, val, test)]


def wait_group_gone(pgid: int, timeout: float = 5.0) -> None:
    """Wait until no process of the group is left (the sweep's workers)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# -- encoder-train ---------------------------------------------------------------------


class EncoderTrain:
    """Training epochs of every kind, each with its validation pass: a round
    is one ``train_encoder`` epoch per kind over the whole training and
    validation splits, as a user's training run spends its time."""

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def _fit(self, kind: str, train, val, seed: int) -> None:
        from seqstate import training

        cfg = training.desk_train_config(kind, self.ctx.size["d_s"], epochs=1, seed=seed)
        rec = training.train_encoder(self.models[kind], train, val, cfg).history[-1]
        if not (np.isfinite(rec.train_mse) and np.isfinite(rec.val_mse)):
            self.ctx.errors.append(f"{kind}: non-finite loss {rec}")

    def setup(self) -> float:
        """Median of the data set-up repeats, plus a warm-up epoch of every
        kind on two batches of the longest training stays, so that
        first-call costs are paid before timing and the warm-up meets the
        largest batches an epoch can make."""
        from seqstate import build_encoder, training

        data_s = []
        for _ in range(self.ctx.size["setup_repeats"]):
            t0 = time.perf_counter()
            self.train, self.val, _test = make_splits(self.ctx.size["n"])
            self.models = {k: build_encoder(k, self.ctx.size["d_s"], "obs", seed=self.ctx.seed)
                           for k in KINDS}
            data_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for k in KINDS:
            batch = training.desk_train_config(k, self.ctx.size["d_s"]).batch_size
            longest = sorted(self.train, key=lambda t: t.n_steps)[-2 * batch:]
            self._fit(k, longest, self.val[:batch], self.ctx.seed)
        return statistics.median(data_s) + time.perf_counter() - t0

    def round(self, index: int, traced: bool = False) -> None:
        for k in KINDS:
            self._fit(k, self.train, self.val, self.ctx.seed + index + 1)
        self.ctx.attempted += len(KINDS)

    def checks(self) -> None:
        from seqstate.encoders import make_batch

        rng = np.random.default_rng(self.ctx.seed)
        batch = make_batch(self.train[:4], "obs")
        for k in KINDS:
            self.ctx.errors += checks.gradient_check(self.models[k], batch, rng)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


# -- policy-offline --------------------------------------------------------------------


class PolicyOffline:
    """The train-policy path on a frozen ais encoder, a quarter at a time.
    Round i runs build_buffer on the i-th of POLICY_PARTS fixed parts of the
    training split, make_eval_set on the test split, behaviour cloning, BCQ
    with a WIS evaluation every ``eval_every`` iterations, and a final WIS.
    Short rounds give a run many samples, whose median resists the bursts
    of a shared machine. The models of the last round are the ones checked."""

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> float:
        """Median of the repeats of data set-up plus frozen-encoder training."""
        from seqstate import build_encoder, training

        size = self.ctx.size
        times = []
        for _ in range(size["setup_repeats"]):
            t0 = time.perf_counter()
            self.train, val, self.test = make_splits(size["n"])
            self.model = build_encoder("ais", size["d_s"], "obs", seed=self.ctx.seed)
            cfg = training.desk_train_config("ais", size["d_s"], epochs=size["frozen_epochs"],
                                             seed=self.ctx.seed)
            training.train_encoder(self.model, self.train, val, cfg)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def round(self, index: int, traced: bool = False) -> None:
        from seqstate import policy

        size, seed = self.ctx.size, self.ctx.seed + index
        part = np.array_split(np.arange(len(self.train)), POLICY_PARTS)[index % POLICY_PARTS]
        self.part = [self.train[i] for i in part]
        self.buffer = policy.build_buffer(self.model, self.part, seed=seed)
        self.eval_set = policy.make_eval_set(self.model, self.test)
        self.behavior = policy.behavior_clone(
            self.buffer, policy.BCConfig(iterations=size["bc_iters"], seed=seed))
        cfg = policy.BCQConfig(iterations=size["bcq_iters"], eval_period=size["eval_every"],
                               seed=seed)
        self.qpolicy, self.curve = policy.train_bcq(self.buffer, cfg, eval_ctx=self.eval_set,
                                                    behavior=self.behavior)
        self.final = policy.wis_evaluate(self.qpolicy, self.behavior, self.eval_set)
        self.ctx.attempted += 5

    def checks(self) -> None:
        c, e = checks, self.ctx.errors
        e += c.buffer_invariants(self.buffer, self.part)
        e += c.latents_match(self.buffer, self.model, self.part)
        e += c.choices_in_filter(self.qpolicy, np.concatenate(self.eval_set.latents))
        e += c.wis_consistent(self.final, self.qpolicy, self.behavior, self.eval_set)
        points = self.ctx.size["bcq_iters"] // self.ctx.size["eval_every"]
        if len(self.curve) != points or not all(np.isfinite(p.wis_return) for p in self.curve):
            e.append(f"BCQ curve {self.curve} should hold {points} finite WIS points")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


# -- cli-pipeline ----------------------------------------------------------------------


class CliPipeline:
    """gen-data, sweep, train-encoder --reg, train-policy and analyze, each a
    separate process as a user runs them. The traced run calls
    ``seqstate.cli.main`` in-process so that the wrappers apply."""

    SWEEP_KINDS = ("ae", "rnn")
    SWEEP_D_S = (4, 8)
    TIMEOUT_S = 170

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> float:
        """The cohort's test split, which the projection row count is checked
        against; median of the repeats."""
        times = []
        for _ in range(self.ctx.size["setup_repeats"]):
            (_, _, self.test), dt = timed(make_splits, self.ctx.size["n"])
            times.append(dt)
        return statistics.median(times)

    def _analyzed(self, out: Path) -> list[Path]:
        """The sweep runs of the workload seed, then the --reg run."""
        return [*(out / "sweep" / f"{k}_d{d}_obs_s{self.ctx.seed}"
                  for k in self.SWEEP_KINDS for d in self.SWEEP_D_S), out / "ais_reg"]

    def _argv(self, out: Path) -> list[list[str]]:
        size, seed = self.ctx.size, str(self.ctx.seed)
        cohort = str(out / "cohort.csv")
        analyzed = [str(run) for run in self._analyzed(out)]
        # two sweep seeds make 8 runs, four for each of the two workers
        return [
            ["gen-data", "--n", str(size["n"]), "--seed", str(COHORT_SEED), "--out", cohort],
            ["sweep", "--cohort", cohort, "--kinds", ",".join(self.SWEEP_KINDS),
             "--d-s-list", ",".join(map(str, self.SWEEP_D_S)),
             "--seeds", f"{seed},{self.ctx.seed + 1}", "--epochs", str(size["cli_epochs"]),
             "--split-seed", str(SPLIT_SEED), "--workers", "2", "--out", str(out / "sweep")],
            ["train-encoder", "--cohort", cohort, "--kind", "ais", "--reg",
             "--epochs", str(size["cli_epochs"]), "--seed", seed,
             "--split-seed", str(SPLIT_SEED), "--out", analyzed[-1]],
            ["train-policy", "--encoder-run", analyzed[-2], "--cohort", cohort,
             "--iterations", str(size["cli_policy_iters"]),
             "--eval-every", str(size["cli_eval_every"]), "--seed", seed,
             "--out", str(out / "policy")],
            ["analyze", "--runs", *analyzed, "--cohort", cohort, "--out", str(out / "analysis")],
        ]

    def _run_process(self, argv: list[str]) -> int:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.ctx.src) + os.pathsep + env.get("PYTHONPATH", "")
        env["TMPDIR"] = str(self.ctx.workdir)
        code = "import sys; from seqstate.cli import main; sys.exit(main())"
        proc = subprocess.Popen([sys.executable, "-c", code, *argv], env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=self.TIMEOUT_S)
        except BaseException:  # a timeout, or the benchmark itself told to stop
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            wait_group_gone(proc.pid)
            raise
        if proc.returncode != 0:
            self.ctx.errors.append(f"{argv[0]} exited {proc.returncode}: "
                                   f"{err.decode(errors='replace')[-400:]}")
        return proc.returncode

    def _run_in_process(self, argv: list[str]) -> int:
        import contextlib
        import io

        from seqstate import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            self.ctx.errors.append(f"{argv[0]} returned {code}")
        return code

    def round(self, index: int, traced: bool = False) -> None:
        out = self.ctx.workdir / f"round{index}"
        run = self._run_in_process if traced else self._run_process
        commands = self._argv(out)
        for argv in commands:
            run(argv)
        self.ctx.attempted += len(commands)
        self._check_round(out)
        shutil.rmtree(out)

    def _check_round(self, out: Path) -> None:
        from seqstate.runio import CURVE_HEADER, HISTORY_HEADER

        c, e, size = checks, self.ctx.errors, self.ctx.size
        sweep_csv = out / "sweep" / "sweep.csv"
        grid = len(self.SWEEP_KINDS) * len(self.SWEEP_D_S) * 2
        e += c.csv_shape(sweep_csv, "kind,d_s,mode,reg,seed,val_mse", grid)
        trained = sorted(d for d in (out / "sweep").iterdir() if d.is_dir())
        trained.append(out / "ais_reg")
        for run in trained:
            e += c.csv_shape(run / "history.csv", HISTORY_HEADER, size["cli_epochs"])
            e += c.bundle_round_trip(run, self.ctx.workdir)
        e += c.csv_shape(out / "policy" / "curve.csv", CURVE_HEADER,
                         size["cli_policy_iters"] // size["cli_eval_every"])
        proj_rows = sum(1 + (t.n_steps >= 2) for t in self.test)
        for run in self._analyzed(out):
            e += c.csv_shape(out / "analysis" / f"projection_{run.name}.csv",
                             "patient_id,which,pc1,pc2,outcome,sofa", proj_rows)
        e += c.correlations_bounded(out / "analysis" / "correlation.csv")
        # Known fault: save_encoder_run never records that a run was
        # regularised, so analyze labels the --reg run plain "obs". The
        # analyze operation is counted as failed until that is fixed.
        if not c.reg_label(out / "analysis" / "summary.json", "ais"):
            self.ctx.failed += 1

    def checks(self) -> None:
        """Nothing left to check: each round's outputs are checked before its
        directory is removed."""

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_CHILDREN)


WORKLOADS = {
    "encoder-train": EncoderTrain,
    "policy-offline": PolicyOffline,
    "cli-pipeline": CliPipeline,
}
