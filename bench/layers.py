"""Where the traced run hooks into seqstate, and how span rows become the
per-layer metrics.

Every workload reports the same per-layer metrics. Times are self times (a
span's duration minus the part its child spans cover) of the layers that
every workload goes through; the other layers are reported by call counts,
which are 0 on a workload that does not use them. Totals are those of the
traced round, which is the same fixed work in every run. The result file
of a traced run holds every span name's calls, self and total time.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

# (name the caller looks up, span name). The span name is the module that
# owns the function, so it is the layer the time is charged to.
SPAN_TARGETS = [
    ("seqstate.autodiff.Tensor.backward", "autodiff.backward"),
    ("seqstate.nn.gru_cell", "nn.gru_cell"),
    ("seqstate.nn.lstm_cell", "nn.lstm_cell"),
    ("seqstate.encoders.sig2_stream", "signatures.sig2_stream"),
    ("seqstate.encoders.uniform_spline_matrix", "splines.uniform_spline_matrix"),
    ("seqstate.encoders.rk4_solve", "odesolve.rk4_solve"),
    ("seqstate.training.make_batch", "encoders.make_batch"),
    ("seqstate.training.model_forward", "encoders.model_forward"),
    ("seqstate.policy.encode_trajectory", "encoders.encode_trajectory"),
    ("seqstate.analysis.encode_trajectory", "encoders.encode_trajectory"),
    ("seqstate.training.train_encoder", "training.train_encoder"),
    ("seqstate.cli.train_encoder", "training.train_encoder"),
    ("seqstate.training.evaluate_mse", "training.evaluate_mse"),
    ("seqstate.training.adam_step", "optim.adam_step"),
    ("seqstate.policy.adam_step", "optim.adam_step"),
    ("seqstate.training.clip_global_norm", "optim.clip_global_norm"),
    ("seqstate.policy.TransitionBuffer.sample", "policy.TransitionBuffer.sample"),
    ("seqstate.policy.wis_evaluate", "policy.wis_evaluate"),
    ("seqstate.cli.wis_evaluate", "policy.wis_evaluate"),
    ("seqstate.policy.build_buffer", "policy.build_buffer"),
    ("seqstate.cli.build_buffer", "policy.build_buffer"),
    ("seqstate.policy.make_eval_set", "policy.make_eval_set"),
    ("seqstate.cli.make_eval_set", "policy.make_eval_set"),
    ("seqstate.policy.behavior_clone", "policy.behavior_clone"),
    ("seqstate.cli.behavior_clone", "policy.behavior_clone"),
    ("seqstate.policy.train_bcq", "policy.train_bcq"),
    ("seqstate.cli.train_bcq", "policy.train_bcq"),
    ("seqstate.cli.load_cohort", "cohort.load_cohort"),
    ("seqstate.cli.save_cohort", "cohort.save_cohort"),
    ("seqstate.cli.generate_synthetic", "synthetic.generate_synthetic"),
    ("seqstate.cli.save_encoder_run", "runio.save_encoder_run"),
    ("seqstate.cli.load_encoder_run", "runio.load_encoder_run"),
    ("seqstate.cli.save_policy_run", "runio.save_policy_run"),
    ("seqstate.runio.save_bundle", "bundle.save_bundle"),
    ("seqstate.runio.load_bundle", "bundle.load_bundle"),
    ("seqstate.cli.pooled_latents", "analysis.pooled_latents"),
    ("seqstate.cli.endpoint_projection", "analysis.endpoint_projection"),
    ("seqstate.cli.correlation_table", "analysis.correlation_table"),
    ("seqstate.cli.run_encoder_training", "cli.run_encoder_training"),
    ("seqstate.cli.cmd_gen_data", "cli.gen-data"),
    ("seqstate.cli.cmd_sweep", "cli.sweep"),
    ("seqstate.cli.cmd_train_encoder", "cli.train-encoder"),
    ("seqstate.cli.cmd_train_policy", "cli.train-policy"),
    ("seqstate.cli.cmd_analyze", "cli.analyze"),
]

MB = float(1 << 20)
KINDS = ("ae", "rnn", "ais", "ddm", "dst", "ode", "cde")

# Layers every workload's traced part goes through; their times are never 0.
TIMED_LAYERS = ("autodiff", "nn", "encoders", "optim")

# Spans whose calls per round are reported on every workload; a call count
# is 0 where a workload does not use the layer.
COUNTED = (
    "autodiff.backward", "nn.gru_cell", "nn.lstm_cell", "signatures.sig2_stream",
    "splines.uniform_spline_matrix", "odesolve.rk4_solve", "encoders.model_forward",
    "encoders.encode_trajectory", "training.train_encoder", "optim.adam_step",
    "policy.TransitionBuffer.sample", "policy.wis_evaluate", "cohort.load_cohort",
    "runio.save_encoder_run", "runio.load_encoder_run", "bundle.save_bundle",
    "bundle.load_bundle",
)


def _annotate_kind(args, _result):
    return {"kind": args[0].kind}


def _annotate_out_bytes(_args, result):
    return {"out_bytes": int(result.data.nbytes)}


ANNOTATE = {
    "training.train_encoder": _annotate_kind,
    "signatures.sig2_stream": _annotate_out_bytes,
}


def install(tracer) -> None:
    # Import every module first: one imported while the patching is under
    # way would bind an already wrapped function and wrap it a second time.
    for target, _ in SPAN_TARGETS:
        importlib.import_module(target.split(".")[0] + "." + target.split(".")[1])
    tracer.patch("seqstate.autodiff.make_op", None)
    for target, name in SPAN_TARGETS:
        tracer.patch(target, name, ANNOTATE.get(name))


class Rows:
    """Span rows, each with the encoder kind it trains under (if any), the
    names of its enclosing spans, and ``own_nodes``: the graph nodes made in
    it and not in a child span of the same process."""

    def __init__(self, rows: list[dict]):
        self.rows = rows
        by_id = {r["id"]: r for r in rows}
        child_nodes: dict[str, int] = defaultdict(int)
        for r in rows:
            if r["parent"] is not None and _pid(r["parent"]) == _pid(r["id"]):
                child_nodes[r["parent"]] += r["nodes"]
        for r in rows:
            r["own_nodes"] = r["nodes"] - child_nodes[r["id"]]
            kind, within, p = None, set(), r
            while p is not None:
                within.add(p["name"])
                if p["name"] == "training.train_encoder" and kind is None:
                    kind = p["info"]["kind"]
                p = by_id.get(p["parent"])
            r["kind"], r["within"] = kind, within

    def select(self, name=None, prefix=None, within=None, kind=None):
        return [r for r in self.rows
                if (name is None or r["name"] == name)
                and (prefix is None or r["name"].startswith(prefix))
                and (within is None or within in r["within"])
                and (kind is None or r["kind"] == kind)]

    def calls(self, name, **where) -> int:
        return len(self.select(name, **where))

    def self_s(self, name=None, **where) -> float:
        return sum(r["self"] for r in self.select(name, **where))

    def own_nodes(self, **where) -> int:
        return sum(r["own_nodes"] for r in self.select(**where))

    def per_call(self, name, scale) -> float:
        return self.self_s(name) * scale / self.calls(name)

    def nodes_per(self, step: str, **where) -> float:
        """Graph nodes made per ``step`` call in the selected part, or 0
        where the workload makes no such step there."""
        steps = self.calls(step, **where)
        return self.own_nodes(**where) / steps if steps else 0.0


def _pid(span_id: str) -> str:
    return span_id.split(".", 1)[0]


def layer_metrics(rows: Rows) -> dict:
    """The per-layer metrics of the traced round, the same set on every
    workload."""
    m = {f"{layer}.self_ms_per_round": (rows.self_s(prefix=layer + ".") * 1e3, "ms")
         for layer in TIMED_LAYERS}
    m.update({
        "autodiff.backward_ms_per_call": (rows.per_call("autodiff.backward", 1e3), "ms"),
        "nn.gru_cell_us_per_call": (rows.per_call("nn.gru_cell", 1e6), "us"),
        "optim.adam_step_us_per_call": (rows.per_call("optim.adam_step", 1e6), "us"),
        "autodiff.nodes_per_round": (rows.own_nodes(), "count"),
        "signatures.sig2_stream_out_mb_per_round": (
            sum(r["info"]["out_bytes"] for r in rows.select("signatures.sig2_stream"))
            / MB, "MB"),
    })
    for k in KINDS:
        m[f"autodiff.nodes_per_batch.{k}"] = (
            rows.nodes_per("autodiff.backward", within="training.train_encoder", kind=k),
            "count")
    m["autodiff.nodes_per_iter.bc"] = (
        rows.nodes_per("optim.adam_step", within="policy.behavior_clone"), "count")
    m["autodiff.nodes_per_iter.bcq"] = (
        rows.nodes_per("optim.adam_step", within="policy.train_bcq"), "count")
    for name in COUNTED:
        m[f"{name}.calls"] = (rows.calls(name), "count")
    return m


def summarize(rows: list[dict]) -> dict:
    """Calls, self and total seconds per span name (written to the result file)."""
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for r in rows:
        e = out[r["name"]]
        e["calls"] += 1
        e["self_s"] += r["self"]
        e["total_s"] += r["total"]
    return dict(sorted(out.items()))
