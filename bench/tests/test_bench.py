"""Tests of the benchmark itself: self-time arithmetic, the tracer's patches,
metric names against BENCHMARK.json, and every workload at a tiny size.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer, covered_length, span_table  # noqa: E402

WORKLOADS = ("encoder-train", "policy-offline", "cli-pipeline")


def _span(span_id, parent, t0, t1, nodes=(0, 0)):
    return (span_id, parent, span_id, t0, t1, nodes[0], nodes[1], None)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(0.2, 0.4), (0.3, 0.5), (0.7, 0.8)], 0.0, 1.0) == pytest.approx(0.4)
    assert covered_length([(-1.0, 0.5), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.6)


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] has a child a [1, 4] (itself holding b [2, 3]) and two
    # children running in parallel, c [5, 8] and d [6, 9]
    spans = [
        _span("b", "a", 2.0, 3.0, (3, 5)),
        _span("a", "root", 1.0, 4.0, (1, 6)),
        _span("c", "root", 5.0, 8.0),
        _span("d", "root", 6.0, 9.0),
        _span("root", None, 0.0, 10.0, (0, 9)),
    ]
    rows = {r["id"]: r for r in span_table(spans)}
    assert rows["root"]["total"] == pytest.approx(10.0)
    assert rows["root"]["self"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert rows["a"]["self"] == pytest.approx(2.0)
    assert rows["b"]["self"] == pytest.approx(1.0)
    assert rows["c"]["self"] == pytest.approx(3.0)
    assert rows["a"]["nodes"] == 5 and rows["b"]["nodes"] == 2


def test_graph_nodes_are_charged_once_across_processes():
    from layers import Rows

    # 1.0 trains kind ae in this process; 2.0 is a forked worker's span
    # under 1.0 whose counter started from the parent's value
    spans = [
        ("1.1", "1.0", "autodiff.backward", 1.0, 2.0, 7, 7, None),
        ("1.2", "1.0", "autodiff.backward", 2.0, 3.0, 12, 12, None),
        ("2.0", "1.0", "autodiff.backward", 1.5, 2.5, 100, 104, None),
        ("1.0", None, "training.train_encoder", 0.0, 4.0, 0, 12, {"kind": "ae"}),
    ]
    rows = Rows(span_table(spans))
    assert rows.own_nodes() == 12 + 4
    assert rows.nodes_per("autodiff.backward", within="training.train_encoder",
                          kind="ae") == pytest.approx(16 / 3)
    assert rows.nodes_per("autodiff.backward", within="policy.train_bcq") == 0.0


def test_patches_wrap_the_looked_up_name_and_are_undone():
    import seqstate.encoders as enc
    import seqstate.odesolve as ode

    original = enc.rk4_solve
    tracer = Tracer("t", BENCH / "work" / "unused")
    tracer.patch("seqstate.encoders.rk4_solve", "odesolve.rk4_solve")
    assert enc.rk4_solve is not original and ode.rk4_solve is original
    assert enc.rk4_solve(lambda t, y: -y, 1.0, 0.0, 1.0, 4) == pytest.approx(0.36789, abs=1e-3)
    tracer.unpatch()
    assert enc.rk4_solve is original
    [row] = span_table(tracer.spans)
    assert row["name"] == "odesolve.rk4_solve" and row["parent"] is None


def _definition():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_definition_has_only_the_contract_keys():
    spec = _definition()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_prints_every_defined_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    spec = _definition()
    defined = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    # every workload prints every metric of its mode, and only those
    assert {k: m["unit"] for k, m in result["metrics"].items()} == defined
    for name, metric in result["metrics"].items():
        assert f"{name} " in proc.stdout
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert result["metrics"]["round_s"]["value"] > 0
    if workload == "cli-pipeline":
        # the analyze step fails on the unlabelled --reg run, once a round
        assert result["failed"] * 5 == result["attempted"]
        if trace:
            # 8 sweep runs in worker processes, then train-encoder,
            # train-policy and analyze
            assert result["metrics"]["cohort.load_cohort.calls"]["value"] == 11
    else:
        assert result["failed"] == 0


def test_exits_nonzero_without_the_program():
    bare = BENCH / "work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("--workload", "encoder-train", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
