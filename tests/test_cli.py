"""Command-line pipeline: determinism, exit codes, run-directory contracts."""

import json

import numpy as np
import pytest

from seqstate.cli import main
from seqstate.cohort import load_cohort
from seqstate.runio import load_encoder_run, read_json


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "cohort.csv"
    assert main(["gen-data", "--n", "120", "--seed", "0",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def encoder_run(tmp_path_factory, cohort_csv):
    out = tmp_path_factory.mktemp("runs") / "ais_run"
    assert main(["train-encoder", "--cohort", str(cohort_csv),
                 "--kind", "ais", "--d-s", "8", "--epochs", "4",
                 "--seed", "1", "--out", str(out)]) == 0
    return out


def test_gen_data_round_trips(cohort_csv):
    cohort = load_cohort(cohort_csv)
    assert len(cohort) == 120
    assert cohort.provenance == "synthetic(seed=0)"
    sidecar = read_json(str(cohort_csv) + ".meta.json")
    assert sidecar == {"provenance": "synthetic(seed=0)", "n_patients": 120}
    rows = cohort_csv.read_text().splitlines()
    assert len(rows) == 1 + sum(t.n_steps for t in cohort.trajectories)


def test_gen_data_rerun_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert main(["gen-data", "--n", "60", "--seed", "5",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    meta_a = json.loads((tmp_path / "a.csv.meta.json").read_text())
    meta_b = json.loads((tmp_path / "b.csv.meta.json").read_text())
    assert meta_a == meta_b


def test_encoder_run_directory_contract(encoder_run):
    for name in ("config.json", "manifest.json", "model.bin", "history.csv"):
        assert (encoder_run / name).exists()
    manifest = read_json(encoder_run / "manifest.json")
    assert manifest["kind"] == "ais"
    assert manifest["d_s"] == 8
    assert manifest["split"] == {"ratios": [0.7, 0.15, 0.15], "seed": 0}
    header = (encoder_run / "history.csv").read_text().splitlines()[0]
    assert header == "epoch,train_mse,val_mse,rho_sofa,rho_saps2,rho_oasis"
    # no stray temp files from atomic writes
    assert not [p for p in encoder_run.iterdir() if p.name.startswith(".")]


def test_encoder_run_loadable_and_metrics_match(encoder_run, cohort_csv):
    model, stats, manifest = load_encoder_run(encoder_run)
    assert model.kind == "ais" and model.d_s == 8
    assert manifest["metrics"]["param_count"] == model.param_count()
    history = (encoder_run / "history.csv").read_text().splitlines()[1:]
    best_from_history = min(float(r.split(",")[2]) for r in history)
    assert manifest["metrics"]["best_val_mse"] == pytest.approx(best_from_history)


def test_train_encoder_deterministic_manifests(tmp_path, cohort_csv):
    dirs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train-encoder", "--cohort", str(cohort_csv),
                     "--kind", "ae", "--d-s", "4", "--epochs", "2",
                     "--seed", "3", "--out", str(out)]) == 0
        dirs.append(out)
    m1 = read_json(dirs[0] / "manifest.json")
    m2 = read_json(dirs[1] / "manifest.json")
    m1.pop("timestamp"), m2.pop("timestamp")
    assert m1 == m2
    assert (dirs[0] / "model.bin").read_bytes() == (dirs[1] / "model.bin").read_bytes()
    assert (dirs[0] / "history.csv").read_bytes() == (dirs[1] / "history.csv").read_bytes()


def test_unknown_kind_is_usage_error(cohort_csv, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["train-encoder", "--cohort", str(cohort_csv),
              "--kind", "bogus", "--out", "/tmp/x"])
    assert exc_info.value.code == 2


def test_missing_cohort_is_data_error(tmp_path):
    code = main(["train-encoder", "--cohort", str(tmp_path / "nope.csv"),
                 "--kind", "ae", "--out", str(tmp_path / "out")])
    assert code == 3


def test_corrupt_cohort_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,cohort\n1,2,3\n")
    code = main(["train-encoder", "--cohort", str(bad),
                 "--kind", "ae", "--out", str(tmp_path / "out")])
    assert code == 3


def test_corrupt_cohort_sidecar_is_data_error(tmp_path, cohort_csv, capsys):
    csv = tmp_path / "cohort.csv"
    csv.write_bytes(cohort_csv.read_bytes())
    (tmp_path / "cohort.csv.meta.json").write_text("{bad")
    code = main(["train-encoder", "--cohort", str(csv), "--kind", "ae",
                 "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "cohort.csv.meta.json: not valid JSON" in err


def test_sidecar_normalization_key_is_ignored(tmp_path, cohort_csv):
    # older sidecars carried a normalization object; nothing reads it now
    csv = tmp_path / "cohort.csv"
    csv.write_bytes(cohort_csv.read_bytes())
    (tmp_path / "cohort.csv.meta.json").write_text(json.dumps(
        {"provenance": "ward export", "normalization": {"obs_mean": [1.0]}}))
    out = tmp_path / "out"
    assert main(["train-encoder", "--cohort", str(csv), "--kind", "ae",
                 "--epochs", "1", "--out", str(out)]) == 0
    assert read_json(out / "manifest.json")["cohort_provenance"] == "ward export"


def test_config_file_defaults_and_flag_override(tmp_path, cohort_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 2, "d_s": 4, "seed": 9}))
    out = tmp_path / "cfgrun"
    assert main(["train-encoder", "--cohort", str(cohort_csv), "--kind", "ae",
                 "--config", str(cfg), "--d-s", "8",  # flag beats config
                 "--out", str(out)]) == 0
    run_cfg = read_json(out / "config.json")
    assert run_cfg["epochs"] == 2      # from config file
    assert run_cfg["d_s"] == 8         # flag override
    assert run_cfg["seed"] == 9


def test_sweep_run_directory_count(tmp_path, cohort_csv):
    out = tmp_path / "sweep"
    assert main(["sweep", "--cohort", str(cohort_csv), "--kinds", "ae,rnn",
                 "--d-s-list", "4,8", "--seeds", "0", "--epochs", "2",
                 "--out", str(out)]) == 0
    run_dirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(run_dirs) == 4
    sweep_rows = (out / "sweep.csv").read_text().splitlines()
    assert len(sweep_rows) == 1 + 4
    assert (out / "aggregate.csv").exists()
    assert (out / "summary.json").exists()


def test_sweep_partial_failures_recorded(tmp_path, cohort_csv):
    # d_s = 0 is rejected per run; aggregation proceeds over the completions
    out = tmp_path / "sweep_partial"
    assert main(["sweep", "--cohort", str(cohort_csv), "--kinds", "ae",
                 "--d-s-list", "4,0", "--seeds", "0", "--epochs", "2",
                 "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["n_completed"] == 1
    assert len(summary["failures"]) == 1
    assert "error" in summary["failures"][0]
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2  # header + the completed run


def test_policy_and_analyze_pipeline(tmp_path, cohort_csv, encoder_run):
    pol = tmp_path / "pol"
    assert main(["train-policy", "--encoder-run", str(encoder_run),
                 "--cohort", str(cohort_csv), "--iterations", "600",
                 "--eval-every", "300", "--out", str(pol)]) == 0
    curve = (pol / "curve.csv").read_text().splitlines()
    assert curve[0] == "iteration,wis_return,ess,q_loss,filter_loss"
    assert len(curve) == 1 + 2  # 600 / 300
    manifest = read_json(pol / "manifest.json")
    assert manifest["tau"] == 0.3 and manifest["gamma"] == 0.99
    assert np.isfinite(manifest["final_wis"])

    out = tmp_path / "analysis"
    assert main(["analyze", "--runs", str(encoder_run),
                 "--cohort", str(cohort_csv), "--out", str(out)]) == 0
    corr = (out / "correlation.csv").read_text().splitlines()
    assert corr[0] == "run,kind,rho_sofa,rho_saps2,rho_oasis"
    proj = (out / f"projection_{encoder_run.name}.csv").read_text().splitlines()
    assert proj[0] == "patient_id,which,pc1,pc2,outcome,sofa"
    summary = read_json(out / "summary.json")
    assert summary["best"][0]["kind"] == "ais"
    assert {"kind", "best_mse", "d_s", "setting"} <= set(summary["best"][0])


def test_train_policy_rerun_identical(tmp_path, cohort_csv, encoder_run):
    dirs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        assert main(["train-policy", "--encoder-run", str(encoder_run),
                     "--cohort", str(cohort_csv), "--iterations", "400",
                     "--eval-every", "200", "--seed", "4",
                     "--out", str(out)]) == 0
        dirs.append(out)
    assert (dirs[0] / "curve.csv").read_bytes() == (dirs[1] / "curve.csv").read_bytes()
    assert (dirs[0] / "qfilter.bin").read_bytes() == (dirs[1] / "qfilter.bin").read_bytes()


def test_analyze_unregularized_null_correlations(tmp_path, cohort_csv, encoder_run):
    out = tmp_path / "nullcorr"
    assert main(["analyze", "--runs", str(encoder_run),
                 "--cohort", str(cohort_csv), "--out", str(out)]) == 0
    row = (out / "correlation.csv").read_text().splitlines()[1].split(",")
    # signed per-dimension means of an unregularized run sit near zero
    for value in row[2:]:
        assert abs(float(value)) < 0.3


def test_analyze_provenance_mismatch_refused(tmp_path, encoder_run):
    other = tmp_path / "other.csv"
    assert main(["gen-data", "--n", "60", "--seed", "99",
                 "--out", str(other)]) == 0
    code = main(["analyze", "--runs", str(encoder_run),
                 "--cohort", str(other), "--out", str(tmp_path / "a")])
    assert code == 3


def test_analyze_missing_run_dir_refused(tmp_path, cohort_csv):
    code = main(["analyze", "--runs", str(tmp_path / "ghost"),
                 "--cohort", str(cohort_csv), "--out", str(tmp_path / "a")])
    assert code == 3


def test_analyze_runs_sharing_a_base_name_refused(tmp_path, cohort_csv,
                                                  encoder_run, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _copy_run(encoder_run, tmp_path / "a" / "enc")
    second = _copy_run(encoder_run, tmp_path / "b" / "enc")
    out = tmp_path / "analysis"
    code = main(["analyze", "--runs", str(first), str(second),
                 "--cohort", str(cohort_csv), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"--runs {first} and {second} share the base name 'enc'" in err
    assert not out.exists()


def test_train_policy_missing_encoder_is_data_error(tmp_path, cohort_csv):
    code = main(["train-policy", "--encoder-run", str(tmp_path / "ghost"),
                 "--cohort", str(cohort_csv), "--out", str(tmp_path / "p")])
    assert code == 3


def test_numerical_failure_exit_code(tmp_path, cohort_csv, monkeypatch):
    from seqstate import cli
    from seqstate.training import TrainingDiverged

    def boom(*args, **kwargs):
        raise TrainingDiverged(3, float("nan"))

    monkeypatch.setattr(cli, "run_encoder_training", boom)
    code = main(["train-encoder", "--cohort", str(cohort_csv),
                 "--kind", "ae", "--out", str(tmp_path / "out")])
    assert code == 4


def test_validation_without_a_pair_is_data_error(tmp_path, cohort_csv, capsys):
    # a cohort of one-step stays gives a validation split with no (t -> t+1)
    # pair: bad data (exit 3), not a numerical failure (exit 4)
    from seqstate.cohort import Cohort, Trajectory, save_cohort

    cohort = load_cohort(cohort_csv)
    one_step = Cohort([Trajectory(t.patient_id, t.obs[:1], t.demog, t.actions[:1],
                                  t.sofa[:1], t.saps2[:1], t.oasis[:1], t.outcome)
                       for t in cohort.trajectories], cohort.provenance)
    csv = tmp_path / "one_step.csv"
    save_cohort(one_step, csv)
    code = main(["train-encoder", "--cohort", str(csv), "--kind", "ae",
                 "--d-s", "4", "--epochs", "1", "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "validation split has no (t -> t+1) pair" in err


def test_value_error_inside_training_is_not_data_error(tmp_path, cohort_csv, monkeypatch):
    # only the split checks before training map to exit 3; a ValueError
    # raised by the training itself is a program fault and stays loud
    from seqstate import cli

    def boom(*args, **kwargs):
        raise ValueError("shape mismatch inside a forward pass")

    monkeypatch.setattr(cli, "train_encoder", boom)
    with pytest.raises(ValueError, match="inside a forward pass"):
        main(["train-encoder", "--cohort", str(cohort_csv), "--kind", "ae",
              "--d-s", "4", "--epochs", "1", "--out", str(tmp_path / "out")])


def test_default_dimension_grid_is_the_reference_grid():
    from seqstate.encoders import D_S_GRID

    assert D_S_GRID == (4, 8, 16, 32, 64, 128, 256)


def test_policy_lr_default_depends_on_encoder_kind(tmp_path, cohort_csv):
    # the continuous-control-path encoder gets the conservative default
    out = tmp_path / "cde_run"
    assert main(["train-encoder", "--cohort", str(cohort_csv), "--kind", "cde",
                 "--d-s", "4", "--epochs", "1", "--out", str(out)]) == 0
    pol = tmp_path / "cde_pol"
    assert main(["train-policy", "--encoder-run", str(out),
                 "--cohort", str(cohort_csv), "--iterations", "300",
                 "--eval-every", "300", "--out", str(pol)]) == 0
    assert read_json(pol / "config.json")["lr"] == 1e-5


def test_gen_data_too_few_patients_is_usage_error(tmp_path, capsys):
    code = main(["gen-data", "--n", "2", "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert "at least 10 patients" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def _copy_run(src, dst):
    dst.mkdir()
    for path in src.iterdir():
        (dst / path.name).write_bytes(path.read_bytes())
    return dst


def test_truncated_bundle_is_data_error(tmp_path, cohort_csv, encoder_run, capsys):
    from seqstate.bundle import BundleFormatError, load_bundle

    run = _copy_run(encoder_run, tmp_path / "run")
    raw = (run / "model.bin").read_bytes()
    for cut in (6, 20, len(raw) // 2, len(raw) - 1):
        (run / "model.bin").write_bytes(raw[:cut])
        with pytest.raises(BundleFormatError):
            load_bundle(run / "model.bin")
    code = main(["analyze", "--runs", str(run), "--cohort", str(cohort_csv),
                 "--out", str(tmp_path / "a")])
    assert code == 3
    assert "truncated bundle" in capsys.readouterr().err


def test_corrupt_manifest_is_data_error(tmp_path, cohort_csv, encoder_run, capsys):
    run = _copy_run(encoder_run, tmp_path / "run")
    text = (run / "manifest.json").read_text()
    (run / "manifest.json").write_text(text[:len(text) // 2])
    code = main(["train-policy", "--encoder-run", str(run),
                 "--cohort", str(cohort_csv), "--out", str(tmp_path / "p")])
    assert code == 3
    assert "not valid JSON" in capsys.readouterr().err
    code = main(["analyze", "--runs", str(run), "--cohort", str(cohort_csv),
                 "--out", str(tmp_path / "a")])
    assert code == 3


@pytest.mark.parametrize("command, config, key", [
    ("train-encoder", {"epochz": 3}, "epochz"),    # not an option name
    ("train-encoder", {"mode": "bogus"}, "mode"),  # not one of its choices
    ("sweep", {"reg": "maybe"}, "reg"),
])
def test_bad_config_is_usage_error(tmp_path, cohort_csv, capsys, command,
                                   config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = [command, "--cohort", str(cohort_csv), "--config", str(cfg),
            "--out", str(tmp_path / "out")]
    if command == "train-encoder":
        argv += ["--kind", "ae"]
    assert main(argv) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_manifest_missing_key_is_data_error(tmp_path, cohort_csv, encoder_run,
                                            capsys):
    run = _copy_run(encoder_run, tmp_path / "run")
    (run / "manifest.json").write_text(json.dumps({"artifact": "encoder_run"}))
    code = main(["analyze", "--runs", str(run), "--cohort", str(cohort_csv),
                 "--out", str(tmp_path / "a")])
    assert code == 3
    assert "missing key 'kind'" in capsys.readouterr().err
    code = main(["train-policy", "--encoder-run", str(run),
                 "--cohort", str(cohort_csv), "--out", str(tmp_path / "p")])
    assert code == 3


@pytest.mark.parametrize("argv, config, code, by_argparse", [
    (["sweep", "--d-s-list", "4,x"], None, 2, True),
    (["sweep", "--seeds", "0,x"], None, 2, True),
    (["sweep", "--kinds", "bogus"], None, 2, True),
    (["sweep", "--modes", "bogus"], None, 2, True),
    (["sweep", "--d-s-list", "0"], None, 2, False),  # every task fails
    (["sweep", "--cohort", "{missing}"], None, 3, False),
    (["train-encoder", "--d-s", "0"], None, 2, True),
    (["train-encoder", "--batch-size", "0"], None, 2, True),
    (["train-encoder", "--epochs", "0"], None, 2, True),
    (["train-policy", "--eval-every", "0"], None, 2, True),
    (["sweep"], {"d_s_list": "4,x"}, 2, False),
    (["sweep"], {"kinds": "bogus"}, 2, False),
    (["train-encoder", "--split-seed", "-1"], None, 2, True),
    (["train-encoder", "--seed", "-1"], None, 2, True),
    (["sweep", "--split-seed", "-1"], None, 2, True),
    (["sweep", "--seeds", "0,-1"], None, 2, True),
    (["train-policy", "--seed", "-1"], None, 2, True),
    (["gen-data", "--seed", "-1"], None, 2, True),
    (["sweep"], {"split_seed": -1}, 2, False),
    (["gen-data", "--mortality", "1.5"], None, 2, False),
    (["gen-data", "--mortality", "-0.5"], None, 2, False),
    (["train-encoder", "--lr", "nan"], None, 2, True),
    (["train-encoder", "--lr", "-0.001"], None, 2, True),
    (["train-encoder", "--lr", "0"], None, 2, True),
    (["train-encoder", "--reg", "--lambda-scale", "-5"], None, 2, True),
    (["train-encoder", "--lambda-scale", "inf"], None, 2, True),
    (["train-policy", "--lr", "-1"], None, 2, True),
    (["train-policy", "--lr", "nan"], None, 2, True),
    (["train-encoder"], {"lr": -0.001}, 2, False),
    (["train-encoder"], {"lambda_scale": "nan"}, 2, False),
    (["train-policy"], {"lr": 0}, 2, False),
])
def test_bad_values_exit_with_their_code(tmp_path, cohort_csv, encoder_run,
                                         capsys, argv, config, code,
                                         by_argparse):
    command, *flags = argv
    cohort = ["--cohort", str(cohort_csv)]
    argv = [command,
            *{"gen-data": ["--n", "20"],
              "sweep": [*cohort, "--epochs", "1"],
              "train-encoder": [*cohort, "--kind", "ae"],
              "train-policy": [*cohort, "--encoder-run", str(encoder_run)]}[command],
            *(f.format(missing=tmp_path / "nope.csv") for f in flags),
            "--out", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    if by_argparse:
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == code
    else:
        assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for key in config or ():
        assert repr(key) in err


@pytest.mark.parametrize("argv, message", [
    (["train-policy", "--encoder-run", "{run}", "--lr", "1e300"],
     "BCQ diverged at iteration"),
    (["train-policy", "--encoder-run", "{nan_run}"], "non-finite latents for"),
    (["analyze", "--runs", "{nan_run}"], "non-finite latents for"),
])
def test_numerical_failures_exit_4(tmp_path, cohort_csv, encoder_run, capsys,
                                   argv, message):
    from seqstate.bundle import load_bundle, save_bundle

    nan_run = _copy_run(encoder_run, tmp_path / "nan_run")
    tag, arrays = load_bundle(nan_run / "model.bin")
    arrays["enc.l1.b"][0] = np.nan
    save_bundle(nan_run / "model.bin", tag, arrays)
    argv = [f.format(run=encoder_run, nan_run=nan_run) for f in argv]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([*argv, "--cohort", str(cohort_csv),
                     "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"numerical failure: {message}" in err


def test_policy_run_is_not_an_encoder_run(tmp_path, cohort_csv, encoder_run,
                                          capsys):
    run = _copy_run(encoder_run, tmp_path / "run")
    manifest = read_json(run / "manifest.json")
    (run / "manifest.json").write_text(json.dumps({**manifest,
                                                   "artifact": "policy_run"}))
    for argv in (["analyze", "--runs", str(run)],
                 ["train-policy", "--encoder-run", str(run)]):
        assert main([*argv, "--cohort", str(cohort_csv),
                     "--out", str(tmp_path / "out")]) == 3
        assert "not an encoder run directory" in capsys.readouterr().err


def test_bundle_from_another_d_s_is_data_error(tmp_path, cohort_csv, encoder_run,
                                               capsys):
    run = tmp_path / "ais4"
    assert main(["train-encoder", "--cohort", str(cohort_csv), "--kind", "ais",
                 "--d-s", "4", "--epochs", "1", "--out", str(run)]) == 0
    (run / "model.bin").write_bytes((encoder_run / "model.bin").read_bytes())
    for argv in (["analyze", "--runs", str(run)],
                 ["train-policy", "--encoder-run", str(run)]):
        assert main([*argv, "--cohort", str(cohort_csv),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "shape mismatch for enc.gru.w_ih" in err


def test_bundle_missing_an_array_is_data_error(tmp_path, cohort_csv, encoder_run,
                                               capsys):
    from seqstate.bundle import load_bundle, save_bundle

    run = _copy_run(encoder_run, tmp_path / "run")
    tag, arrays = load_bundle(run / "model.bin")
    del arrays["dec.l3.b"]
    save_bundle(run / "model.bin", tag, arrays)
    for argv in (["analyze", "--runs", str(run)],
                 ["train-policy", "--encoder-run", str(run)]):
        assert main([*argv, "--cohort", str(cohort_csv),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "missing ['dec.l3.b']" in err
