"""The seven sequence-encoder architectures and their forward passes.

Every architecture maps a patient history to a per-step latent state and
decodes a prediction of the next observation. Shared conventions:

* At step t the encoder sees the observation block for steps 0..t and the
  one-hot of the previous action A_{t-1} (zero at t=0). The decoupled
  dynamics model is the one exception: its latent is the predicted next
  embedding, which by construction conditions on the current action A_t.
* Latent row t therefore never depends on any later step, which the
  causality tests exercise by permuting the future suffix.
* Decoders are pointwise except for the signature model, whose decoder
  consumes the whole latent stream; the AE/AIS decoders additionally
  receive the current action appended to the latent.

Architecture tags: ae, rnn, ais, ddm, dst, ode, cde.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .cohort import N_ACTIONS, N_DEMOG, N_OBS, Trajectory
from .odesolve import rk4_solve
# sig2_stream stays bound here: the benchmark's tracer counts calls to
# it by this name, though dst now reads its stream through sig2_linear
from .signatures import sig2_linear, sig2_stream, sig_length  # noqa: F401
from .splines import deriv_weights, uniform_spline_matrix

KINDS = ("ae", "rnn", "ais", "ddm", "dst", "ode", "cde")
INPUT_MODES = ("obs", "obs+demog")
D_S_GRID = (4, 8, 16, 32, 64, 128, 256)

ODE_HIDDEN = 50          # recurrent width of the continuous-time encoder
DST_AUG_WIDTH = 64       # pointwise widths producing the 8 augmented channels
DST_AUG_CHANNELS = 8
DST_GRU_CAP = 8          # recurrent width cap keeping counts inside range
DST_DEC_WIDTHS = (64, 32)

# Expected total parameter counts per kind across the (d_s, input mode)
# grid; recorded reference ranges from the original-cohort study, widened
# by one printed unit for rounding.
PARAM_COUNT_RANGES = {
    "ae": (26_000, 77_000),
    "ais": (27_000, 340_000),
    "cde": (78_800, 1_790_000),
    "ddm": (5_000, 1_260_000),
    "dst": (46_000, 257_000),
    "ode": (47_300, 330_000),
    "rnn": (25_000, 338_000),
}


@dataclass
class EncoderModel:
    kind: str
    d_s: int
    input_mode: str
    lambdas: tuple[float, float, float]
    params: nn.Params
    meta: dict = field(default_factory=dict)

    @property
    def n_x(self) -> int:
        return N_OBS + (N_DEMOG if self.input_mode == "obs+demog" else 0)

    def param_count(self) -> int:
        return self.params.count()


@dataclass
class LatentSequence:
    trajectory_id: str
    latents: np.ndarray  # (T, d_s)


# -- batch assembly ------------------------------------------------------------------


@dataclass
class Batch:
    x: np.ndarray          # (B, T, n_x)
    a_prev: np.ndarray     # (B, T, 25) one-hot of A_{t-1}; zero row at t=0
    a_curr: np.ndarray     # (B, T, 25) one-hot of A_t
    a_ids: np.ndarray      # (B, T)
    obs_next: np.ndarray   # (B, T, 33); row t holds O_{t+1} (zeros at t=T-1)
    mask: np.ndarray       # (B, T)
    pair_mask: np.ndarray  # (B, T); valid (t -> t+1) prediction rows
    scores: np.ndarray     # (B, T, 3) sofa/saps2/oasis

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape


def make_batch(trajectories: list[Trajectory], input_mode: str) -> Batch:
    bsz = len(trajectories)
    t_max = max(t.n_steps for t in trajectories)
    n_x = N_OBS + (N_DEMOG if input_mode == "obs+demog" else 0)
    x = np.zeros((bsz, t_max, n_x))
    a_prev = np.zeros((bsz, t_max, N_ACTIONS))
    a_curr = np.zeros((bsz, t_max, N_ACTIONS))
    a_ids = np.zeros((bsz, t_max), dtype=np.int64)
    obs_next = np.zeros((bsz, t_max, N_OBS))
    mask = np.zeros((bsz, t_max))
    pair_mask = np.zeros((bsz, t_max))
    scores = np.zeros((bsz, t_max, 3))
    for i, traj in enumerate(trajectories):
        t_i = traj.n_steps
        feats = traj.obs
        if input_mode == "obs+demog":
            feats = np.concatenate(
                [traj.obs, np.tile(traj.demog, (t_i, 1))], axis=1
            )
        x[i, :t_i] = feats
        x[i, t_i:] = feats[-1]  # repeat-last padding keeps splines bounded
        a_ids[i, :t_i] = traj.actions
        a_ids[i, t_i:] = traj.actions[-1]
        a_curr[i, np.arange(t_max), a_ids[i]] = 1.0
        a_prev[i, 1:, :] = a_curr[i, :-1, :]
        obs_next[i, :t_i - 1] = traj.obs[1:]
        mask[i, :t_i] = 1.0
        pair_mask[i, :t_i - 1] = 1.0
        scores[i, :t_i, 0] = traj.sofa
        scores[i, :t_i, 1] = traj.saps2
        scores[i, :t_i, 2] = traj.oasis
    return Batch(x, a_prev, a_curr, a_ids, obs_next, mask, pair_mask, scores)


# -- builders ----------------------------------------------------------------------


def build_encoder(
    kind: str,
    d_s: int,
    input_mode: str = "obs",
    seed: int = 0,
    lambdas: tuple[float, float, float] | None = None,
) -> EncoderModel:
    """Construct an initialized encoder with the documented layer shapes."""
    if kind not in KINDS:
        raise ValueError(f"unknown encoder kind {kind!r}; expected one of {KINDS}")
    if input_mode not in INPUT_MODES:
        raise ValueError(f"unknown input mode {input_mode!r}")
    if d_s < 1:
        raise ValueError("d_s must be positive")
    if lambdas is None:
        lambdas = default_lambdas(kind)
    rng = np.random.default_rng(seed)
    params = nn.Params()
    n_x = N_OBS + (N_DEMOG if input_mode == "obs+demog" else 0)
    meta: dict = {"seed": seed, "init": "uniform(+-1/sqrt(fan_in))"}
    builder = _BUILDERS[kind]
    builder(params, rng, d_s, n_x, meta)
    model = EncoderModel(kind, d_s, input_mode, tuple(lambdas), params, meta)
    meta["param_count"] = model.param_count()
    return model


def default_lambdas(kind: str) -> tuple[float, float, float]:
    scale = {"rnn": 100.0, "ais": 100.0, "ae": 100.0,
             "ddm": 0.25, "dst": 1.0, "ode": 1.0, "cde": 1.0}[kind]
    return (scale, scale, scale)


def _build_ae(params, rng, d_s, n_x, meta):
    nn.mlp_params(params, rng, "enc", (n_x + N_ACTIONS, 64, 128, d_s))
    nn.mlp_params(params, rng, "dec", (d_s + N_ACTIONS, 64, 128, N_OBS))


def _build_rnn(params, rng, d_s, n_x, meta, action_decoder=False):
    nn.mlp_params(params, rng, "enc", (n_x + N_ACTIONS, 64, 128))
    nn.gru_params(params, rng, "enc.gru", 128, d_s)
    dec_in = d_s + N_ACTIONS if action_decoder else d_s
    nn.mlp_params(params, rng, "dec", (dec_in, 64, 128, N_OBS))


def _build_ais(params, rng, d_s, n_x, meta):
    _build_rnn(params, rng, d_s, n_x, meta, action_decoder=True)


def _build_ddm(params, rng, d_s, n_x, meta):
    nn.mlp_params(params, rng, "enc", (n_x, d_s, 288, d_s))
    nn.mlp_params(params, rng, "act", (N_ACTIONS, d_s, d_s))
    nn.linear_params(params, rng, "fuse.l", 2 * d_s, d_s)
    nn.lstm_params(params, rng, "dyn.lstm", d_s, d_s)
    nn.mlp_params(params, rng, "inv", (2 * d_s, d_s, N_ACTIONS))
    nn.mlp_params(params, rng, "dec", (d_s, 288, d_s, N_OBS))


def _build_dst(params, rng, d_s, n_x, meta):
    stream_in = n_x + N_ACTIONS
    channels = stream_in + DST_AUG_CHANNELS
    hidden = min(d_s, DST_GRU_CAP)
    sig_dim = sig_length(channels, 2)
    dec_sig_dim = sig_length(DST_DEC_WIDTHS[1], 2)
    meta.update({"stream_channels": channels, "sig_dim": sig_dim,
                 "gru_hidden": hidden})
    nn.mlp_params(params, rng, "aug", (stream_in, DST_AUG_WIDTH, DST_AUG_CHANNELS))
    nn.gru_params(params, rng, "enc.gru1", sig_dim, hidden)
    nn.gru_params(params, rng, "enc.gru2", hidden, hidden)
    if hidden != d_s:
        nn.linear_params(params, rng, "enc.head", hidden, d_s)
    nn.linear_params(params, rng, "dec.c1", d_s, DST_DEC_WIDTHS[0])
    nn.linear_params(params, rng, "dec.c2", DST_DEC_WIDTHS[0], DST_DEC_WIDTHS[1])
    nn.mlp_params(params, rng, "dec", (dec_sig_dim, 64, N_OBS))


def _build_ode(params, rng, d_s, n_x, meta):
    meta["substeps"] = 4
    nn.mlp_params(params, rng, "pre", (n_x + N_ACTIONS, 64, 128))
    nn.gru_params(params, rng, "enc.gru", 128, ODE_HIDDEN)
    nn.mlp_params(params, rng, "field", (ODE_HIDDEN, ODE_HIDDEN, ODE_HIDDEN))
    nn.linear_params(params, rng, "enc.head", ODE_HIDDEN, d_s)
    nn.mlp_params(params, rng, "dec", (d_s, 100, 100, N_OBS))


def _build_cde(params, rng, d_s, n_x, meta):
    channels = n_x + N_ACTIONS + 1  # data, previous action, time
    meta.update({"channels": channels, "substeps": 4})
    nn.linear_params(params, rng, "init.l", channels, d_s)
    nn.linear_params(params, rng, "field.l0", d_s, 100)
    for i in range(1, 5):
        nn.linear_params(params, rng, f"field.l{i}", 100, 100)
    nn.linear_params(params, rng, "field.out", 100, d_s * channels)
    nn.mlp_params(params, rng, "dec", (d_s, 100, 100, N_OBS))


_BUILDERS = {
    "ae": _build_ae,
    "rnn": _build_rnn,
    "ais": _build_ais,
    "ddm": _build_ddm,
    "dst": _build_dst,
    "ode": _build_ode,
    "cde": _build_cde,
}


# -- forward passes ----------------------------------------------------------------


_RELU3 = (ad.relu, ad.relu, None)   # activations of the three-layer stacks
_ELU3 = (ad.elu, ad.elu, None)      # ddm's three-layer stacks


def _stack_time(rows: list[Tensor]) -> Tensor:
    return ad.concat([ad.reshape(r, (r.shape[0], 1, r.shape[1])) for r in rows], axis=1)


@dataclass
class ForwardOut:
    latents: Tensor        # (B, T, d_s)
    preds: Tensor          # (B, T, 33); row t predicts O_{t+1}
    aux_ce: Tensor | None = None  # extra objective term (inverse model)


def _decode(model: EncoderModel, latents: Tensor, a_curr: np.ndarray) -> Tensor:
    """Next-observation predictions (B, T, 33) from the (B, T, d_s) latents.

    The signature decoder reads the whole latent stream; the others are
    pointwise, and the AE/AIS decoders also read ``a_curr`` (B, T, 25), the
    one-hot of the current action.
    """
    p = model.params
    if model.kind == "dst":
        conv = ad.relu(nn.dense(latents, p["dec.c1.w"], p["dec.c1.b"]))
        conv = ad.relu(nn.dense(conv, p["dec.c2.w"], p["dec.c2.b"]))
        hid = ad.relu(sig2_linear(conv, p["dec.l1.w"], p["dec.l1.b"]))
        return nn.dense(hid, p["dec.l2.w"], p["dec.l2.b"])
    if model.kind in ("ae", "ais"):
        latents = ad.concat([latents, Tensor(a_curr)], axis=2)
    return nn.mlp(latents, p, "dec", _ELU3 if model.kind == "ddm" else _RELU3)


def _forward_ae(model: EncoderModel, batch: Batch) -> ForwardOut:
    inp = Tensor(np.concatenate([batch.x, batch.a_prev], axis=2))
    latents = nn.mlp(inp, model.params, "enc", _RELU3)
    return ForwardOut(latents, _decode(model, latents, batch.a_curr))


def _forward_rnn(model: EncoderModel, batch: Batch) -> ForwardOut:
    """The rnn and ais forward; they differ only in their decoder."""
    p = model.params
    inp = Tensor(np.concatenate([batch.x, batch.a_prev], axis=2))
    u = nn.mlp(inp, p, "enc", (ad.relu, ad.relu))
    bsz, t_max = batch.shape
    h = Tensor(np.zeros((bsz, model.d_s)))
    rows = []
    for t in range(t_max):
        h = nn.gru_cell(u[:, t], h, p, "enc.gru")
        rows.append(h)
    latents = _stack_time(rows)
    return ForwardOut(latents, _decode(model, latents, batch.a_curr))


def _forward_ddm(model: EncoderModel, batch: Batch) -> ForwardOut:
    p = model.params
    d_s = model.d_s
    bsz, t_max = batch.shape
    z = nn.mlp(Tensor(batch.x), p, "enc", (ad.elu, ad.elu, ad.tanh))
    a_emb = nn.mlp(Tensor(batch.a_curr), p, "act", (ad.elu, None))
    u = nn.dense(ad.concat([z, a_emb], axis=2), p["fuse.l.w"], p["fuse.l.b"])
    h = Tensor(np.zeros((bsz, d_s)))
    c = Tensor(np.zeros((bsz, d_s)))
    rows = []
    for t in range(t_max):
        h, c = nn.lstm_cell(u[:, t], h, c, p, "dyn.lstm")
        rows.append(ad.tanh(h))  # mean head; the cell state carries the spread
    latents = _stack_time(rows)
    preds = _decode(model, latents, batch.a_curr)

    # inverse model: recover A_t from consecutive observation embeddings
    pair_idx = np.flatnonzero(batch.pair_mask.reshape(-1))
    if pair_idx.size == 0:
        return ForwardOut(latents, preds)
    z_flat = ad.reshape(z, (bsz * t_max, d_s))
    logits = nn.mlp(ad.concat([z_flat[pair_idx], z_flat[pair_idx + 1]], axis=1),
                    p, "inv", (ad.elu, None))
    labels = batch.a_ids.reshape(-1)[pair_idx]
    aux = nn.softmax_cross_entropy(logits, labels)
    return ForwardOut(latents, preds, aux_ce=aux)


def _forward_dst(model: EncoderModel, batch: Batch) -> ForwardOut:
    p = model.params
    bsz, t_max = batch.shape
    hidden = model.meta["gru_hidden"]
    inp = Tensor(np.concatenate([batch.x, batch.a_prev], axis=2))
    aug = nn.mlp(inp, p, "aug", (ad.relu, None))
    stream = ad.concat([inp, aug], axis=2)
    gi1 = sig2_linear(stream, p["enc.gru1.w_ih"], p["enc.gru1.b_ih"])  # (B, T, 3H)
    h1 = Tensor(np.zeros((bsz, hidden)))
    h2 = Tensor(np.zeros((bsz, hidden)))
    rows = []
    for t in range(t_max):
        h1 = nn.gru_step(gi1[:, t], h1, p, "enc.gru1")
        h2 = nn.gru_cell(h1, h2, p, "enc.gru2")
        rows.append(h2)
    latents = _stack_time(rows)
    if "enc.head.w" in p:
        latents = nn.dense(latents, p["enc.head.w"], p["enc.head.b"])
    return ForwardOut(latents, _decode(model, latents, batch.a_curr))


def _forward_ode(model: EncoderModel, batch: Batch) -> ForwardOut:
    p = model.params
    bsz, t_max = batch.shape
    substeps = model.meta.get("substeps", 4)
    inp = Tensor(np.concatenate([batch.x, batch.a_prev], axis=2))
    u = nn.mlp(inp, p, "pre", (ad.relu, ad.relu))

    def vector_field(_t, state):
        return nn.mlp(state, p, "field", (ad.tanh, None))

    h = Tensor(np.zeros((bsz, ODE_HIDDEN)))
    rows = []
    for t in range(t_max):
        if t > 0:
            h = rk4_solve(vector_field, h, float(t - 1), float(t), substeps)
        h = nn.gru_cell(u[:, t], h, p, "enc.gru")
        rows.append(nn.dense(h, p["enc.head.w"], p["enc.head.b"]))
    latents = _stack_time(rows)
    return ForwardOut(latents, _decode(model, latents, batch.a_curr))


def cde_path_values(batch: Batch) -> np.ndarray:
    """Constant control-path values: data, previous action, time channel."""
    bsz, t_max = batch.shape
    time = np.tile(np.arange(t_max, dtype=np.float64), (bsz, 1))[:, :, None]
    return np.concatenate([batch.x, batch.a_prev, time], axis=2)


def _cde_head(pre: Tensor, w: Tensor, b: Tensor, xdot: np.ndarray,
              d_s: int, channels: int) -> Tensor:
    """Fused final field layer: tanh(pre @ w + b) reshaped to the (d_s,
    channels) field matrix and contracted with the control derivative.

    One primitive instead of five keeps a single (B, d_s * channels)
    activation alive per solver stage, which is what bounds CDE memory.
    """
    bsz = pre.shape[0]
    th = np.tanh(pre.data @ w.data + b.data)
    out = np.einsum("bdc,bc->bd", th.reshape(bsz, d_s, channels), xdot)

    def backward(g):
        g_th = np.einsum("bd,bc->bdc", g, xdot).reshape(bsz, d_s * channels)
        g_th *= 1.0 - th * th
        if pre.requires_grad:
            pre._accumulate(g_th @ w.data.T)
        if w.requires_grad:
            w._accumulate(pre.data.T @ g_th)
        if b.requires_grad:
            b._accumulate(g_th.sum(axis=0))

    return ad.make_op(out, (pre, w, b), backward)


def _forward_cde(model: EncoderModel, batch: Batch) -> ForwardOut:
    p = model.params
    bsz, t_max = batch.shape
    substeps = model.meta.get("substeps", 4)
    channels = model.meta["channels"]
    d_s = model.d_s
    path = cde_path_values(batch)

    def field_apply(z, xdot):
        out = ad.relu(nn.dense(z, p["field.l0.w"], p["field.l0.b"]))
        for i in range(1, 5):
            out = ad.relu(nn.dense(out, p[f"field.l{i}.w"], p[f"field.l{i}.b"]))
        return _cde_head(out, p["field.out.w"], p["field.out.b"], xdot, d_s, channels)

    z = nn.dense(Tensor(path[:, 0, :]), p["init.l.w"], p["init.l.b"])
    rows = [z]
    for t in range(1, t_max):
        # refit the interpolant on the observed prefix; the path is data, so
        # the spline solve stays out of the autodiff graph
        smat = uniform_spline_matrix(t + 1)
        prefix = path[:, :t + 1, :]
        m_lo = np.einsum("j,bjc->bc", smat[t - 1], prefix)
        m_hi = np.einsum("j,bjc->bc", smat[t], prefix)
        dy = path[:, t, :] - path[:, t - 1, :]

        def control_deriv(s, lo=float(t - 1), m0=m_lo, m1=m_hi, d=dy):
            w0, w1, wd = deriv_weights(1.0, s - lo)
            return w0 * m0 + w1 * m1 + wd * d

        def cde_field(s, state):
            return field_apply(state, control_deriv(s))

        z = rk4_solve(cde_field, z, float(t - 1), float(t), substeps)
        rows.append(z)
    latents = _stack_time(rows)
    return ForwardOut(latents, _decode(model, latents, batch.a_curr))


_FORWARDS = {
    "ae": _forward_ae,
    "rnn": _forward_rnn,
    "ais": _forward_rnn,
    "ddm": _forward_ddm,
    "dst": _forward_dst,
    "ode": _forward_ode,
    "cde": _forward_cde,
}


def model_forward(model: EncoderModel, batch: Batch) -> ForwardOut:
    if batch.x.shape[2] != model.n_x:
        raise ValueError(
            f"batch width {batch.x.shape[2]} does not match input mode "
            f"{model.input_mode!r} (expected {model.n_x})"
        )
    return _FORWARDS[model.kind](model, batch)


# -- inference-mode encoding -----------------------------------------------------------

ENCODE_BATCH = 128  # the training batch size


def infer_many(model: EncoderModel,
               trajs: list[Trajectory]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Latent rows, (n_steps, d_s) each, and next-observation prediction
    rows, (n_steps - 1, N_OBS) each, for normalized trajectories in input
    order; the one inference-mode loop over a frozen model.

    Patients run ENCODE_BATCH at a time in order of stay length, so a batch
    carries little padding. Every encoder is causal, so a patient's rows do
    not depend on the padding after them; they agree with a batch-of-one
    forward to rounding (about 1e-15), not bit for bit, because BLAS picks
    different kernels for different batch shapes.
    """
    order = sorted(range(len(trajs)), key=lambda i: trajs[i].n_steps)
    latents: list = [None] * len(trajs)
    preds: list = [None] * len(trajs)
    for lo in range(0, len(order), ENCODE_BATCH):
        chunk = order[lo:lo + ENCODE_BATCH]
        batch = make_batch([trajs[i] for i in chunk], model.input_mode)
        with ad.no_grad():
            out = model_forward(model, batch)
        for row, i in enumerate(chunk):
            n = trajs[i].n_steps
            latents[i] = out.latents.data[row, :n].copy()
            preds[i] = out.preds.data[row, :n - 1].copy()
    return latents, preds


def encode_many(model: EncoderModel, trajs: list[Trajectory]) -> list[np.ndarray]:
    """The latent rows of ``infer_many``; a non-finite row raises
    FloatingPointError naming its patient."""
    latents, _preds = infer_many(model, trajs)
    for traj, lat in zip(trajs, latents):
        if not np.all(np.isfinite(lat)):
            raise FloatingPointError(f"non-finite latents for {traj.patient_id}")
    return latents


def encode_trajectory(model: EncoderModel, traj: Trajectory) -> LatentSequence:
    """Latent rows for one normalized trajectory (inference mode)."""
    return LatentSequence(traj.patient_id, encode_many(model, [traj])[0])


def predict_next_obs(model: EncoderModel, latent: np.ndarray, action_id: int) -> np.ndarray:
    """Decode the prediction of the observation after the last of the latent
    rows ``latent``, a (k, d_s) prefix or one (d_s,) row, when the action
    taken at that step is ``action_id``.

    The signature decoder reads the whole prefix, the pointwise decoders
    only its last row. ``action_id`` reaches only the decoders that
    consume it.
    """
    if not 0 <= action_id < N_ACTIONS:
        raise ValueError(f"action_id {action_id} outside [0, {N_ACTIONS - 1}]")
    latent = np.atleast_2d(np.asarray(latent, dtype=np.float64))
    if latent.shape[-1] != model.d_s:
        raise ValueError(f"latent width {latent.shape[-1]} != d_s {model.d_s}")
    if model.kind != "dst":
        latent = latent[-1:]
    a_curr = np.zeros((1, latent.shape[0], N_ACTIONS))
    a_curr[0, -1, action_id] = 1.0
    with ad.no_grad():
        pred = _decode(model, Tensor(latent[None]), a_curr)
    return pred.data[0, -1].copy()
