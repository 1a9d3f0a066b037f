"""Offline treatment-policy learning on frozen latent states.

Pipeline: encode trajectories into transition tuples, behavior-clone the
clinician policy, train a discrete batch-constrained Q-network whose
action choices are restricted to the behavior model's support, and score
policies with weighted importance sampling on held-out trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .cohort import N_ACTIONS, Trajectory
# encode_trajectory stays bound here: the benchmark's tracer counts
# per-patient encodes by patching this name.
from .encoders import EncoderModel, encode_many, encode_trajectory  # noqa: F401
from .optim import adam_init, adam_step

TERMINAL_REWARD = {0: 1.0, 1: -1.0}  # survived / died
EVAL_EPSILON = 0.01                  # greedy smoothing for the WIS target policy
WEIGHT_CLIP = (1e-8, 1e8)
PROB_FLOOR = 1e-12


@dataclass
class TransitionBuffer:
    """Flat (s, a, r, s', done) arrays with seeded uniform sampling."""

    states: np.ndarray       # (N, d_s)
    actions: np.ndarray      # (N,)
    rewards: np.ndarray      # (N,)
    next_states: np.ndarray  # (N, d_s)
    done: np.ndarray         # (N,) bool
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def d_s(self) -> int:
        return self.states.shape[1]

    def sample(self, size: int) -> tuple[np.ndarray, ...]:
        idx = self._rng.integers(0, len(self), size=size)
        return (self.states[idx], self.actions[idx], self.rewards[idx],
                self.next_states[idx], self.done[idx])


def build_buffer(model: EncoderModel, trajs: list[Trajectory], seed: int = 0,
                 terminal_rewards: dict[int, float] | None = None) -> TransitionBuffer:
    """One transition per step: rewards are zero except at the terminal
    step, which pays the outcome and carries done=True."""
    if not trajs:
        raise ValueError("cannot build a buffer from an empty split")
    rewards_map = terminal_rewards or TERMINAL_REWARD
    states = np.concatenate(encode_many(model, trajs))
    last = np.cumsum([t.n_steps for t in trajs]) - 1
    done = np.zeros(len(states), dtype=bool)
    done[last] = True
    rewards = np.zeros(len(states))
    rewards[last] = [rewards_map[t.outcome] for t in trajs]
    next_states = np.zeros_like(states)
    next_states[:-1] = states[1:]
    next_states[done] = 0.0
    return TransitionBuffer(
        states=states,
        actions=np.concatenate([t.actions for t in trajs]).astype(np.int64),
        rewards=rewards,
        next_states=next_states,
        done=done,
        seed=seed,
    )


# -- network helpers -------------------------------------------------------------

_BC_ACTS = (ad.relu, None)
_Q_ACTS = (ad.relu, ad.relu, None)  # both the Q-network and the action filter


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# -- behavior cloning -------------------------------------------------------------


@dataclass
class BCPolicy:
    """Two-layer action classifier over latent states."""

    params: nn.Params
    d_s: int
    hidden: int
    train_accuracy: float = float("nan")
    missing_actions: tuple[int, ...] = ()

    def logits(self, states: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            return nn.mlp(Tensor(np.atleast_2d(states)), self.params, "bc",
                          _BC_ACTS).data

    def probs(self, states: np.ndarray) -> np.ndarray:
        return _softmax(self.logits(states))


@dataclass
class BCConfig:
    iterations: int = 4000
    lr: float = 1e-3
    batch_size: int = 256
    hidden: int = 64
    seed: int = 0


def behavior_clone(buffer: TransitionBuffer, config: BCConfig | None = None) -> BCPolicy:
    """Cross-entropy imitation of the logged actions."""
    config = config or BCConfig()
    rng = np.random.default_rng(config.seed)
    params = nn.Params()
    nn.mlp_params(params, rng, "bc", (buffer.d_s, config.hidden, N_ACTIONS))
    present = np.unique(buffer.actions)
    missing = tuple(sorted(set(range(N_ACTIONS)) - set(present.tolist())))
    policy = BCPolicy(params=params, d_s=buffer.d_s, hidden=config.hidden,
                      missing_actions=missing)

    state = adam_init(params, config.lr)
    for it in range(1, config.iterations + 1):
        s, a, _, _, _ = buffer.sample(config.batch_size)
        params.zero_grad()
        logits = nn.mlp(Tensor(s), params, "bc", _BC_ACTS)
        loss = nn.softmax_cross_entropy(logits, a)
        if not np.isfinite(float(loss.data)):
            raise FloatingPointError(f"behavior cloning diverged at iteration {it}")
        loss.backward()
        adam_step(state, params)

    preds = policy.logits(buffer.states).argmax(axis=1)
    policy.train_accuracy = float((preds == buffer.actions).mean())
    return policy


# -- batch-constrained Q-learning ------------------------------------------------------


def bcq_filter(probs: np.ndarray, tau: float) -> np.ndarray:
    """Candidate actions: behavior probability within factor tau of the max.

    Never empty (the argmax always qualifies). Accepts a single simplex or
    a batch; returns a boolean mask of the input's shape.
    """
    return probs >= tau * probs.max(axis=-1, keepdims=True)


@dataclass
class BCQConfig:
    iterations: int = 20_000
    lr: float = 1e-3
    batch_size: int = 128
    hidden: int = 64           # 128 for latents from the decoupled dynamics model
    gamma: float = 0.99
    tau: float = 0.3
    target_period: int = 1_000
    eval_period: int = 500
    seed: int = 0


@dataclass
class QPolicy:
    """Q-network plus generative action filter and frozen target copy."""

    params: nn.Params
    target: dict[str, np.ndarray]
    d_s: int
    config: BCQConfig

    def q_values(self, states: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            return nn.mlp(Tensor(np.atleast_2d(states)), self.params, "q",
                          _Q_ACTS).data

    def filter_probs(self, states: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            logits = nn.mlp(Tensor(np.atleast_2d(states)), self.params, "f",
                            _Q_ACTS).data
        return _softmax(logits)

    def select_actions(self, states: np.ndarray) -> np.ndarray:
        """Greedy actions over the filtered candidate sets."""
        states = np.atleast_2d(states)
        q = self.q_values(states)
        mask = bcq_filter(self.filter_probs(states), self.config.tau)
        masked_q = np.where(mask, q, -np.inf)
        return masked_q.argmax(axis=1)

    def eval_action_probs(self, states: np.ndarray) -> np.ndarray:
        """Epsilon-smoothed greedy distribution used for WIS."""
        states = np.atleast_2d(states)
        greedy = self.select_actions(states)
        probs = np.full((states.shape[0], N_ACTIONS), EVAL_EPSILON / N_ACTIONS)
        probs[np.arange(states.shape[0]), greedy] += 1.0 - EVAL_EPSILON
        return probs


@dataclass
class CurvePoint:
    iteration: int
    wis_return: float
    ess: float
    q_loss: float
    filter_loss: float


def _q_target_values(policy: QPolicy, s2: np.ndarray) -> np.ndarray:
    """Double-estimator target: candidate argmax by the online networks,
    value by the frozen copy."""
    a_star = policy.select_actions(s2)
    with ad.no_grad():
        q_frozen = nn.mlp(Tensor(s2), policy.target, "q", _Q_ACTS).data
    return q_frozen[np.arange(s2.shape[0]), a_star]


def train_bcq(buffer: TransitionBuffer, config: BCQConfig | None = None,
              eval_ctx: "WisEvalSet | None" = None,
              behavior: BCPolicy | None = None) -> tuple[QPolicy, list[CurvePoint]]:
    """Batch-constrained Q-learning with periodic WIS evaluation.

    ``eval_ctx``/``behavior`` enable the learning curve; without them the
    curve rows carry NaN returns.
    """
    config = config or BCQConfig()
    if len(buffer) == 0:
        raise ValueError("empty transition buffer")
    rng = np.random.default_rng(config.seed)
    params = nn.Params()
    sizes = (buffer.d_s, config.hidden, config.hidden, N_ACTIONS)
    nn.mlp_params(params, rng, "q", sizes)
    nn.mlp_params(params, rng, "f", sizes)
    target = {k: t.data.copy() for k, t in params.items() if k.startswith("q.")}
    policy = QPolicy(params=params, target=target, d_s=buffer.d_s, config=config)

    state = adam_init(params, config.lr)
    curve: list[CurvePoint] = []
    for it in range(1, config.iterations + 1):
        s, a, r, s2, done = buffer.sample(config.batch_size)
        y = r + config.gamma * (1.0 - done.astype(float)) * _q_target_values(policy, s2)
        params.zero_grad()
        q_all = nn.mlp(Tensor(s), params, "q", _Q_ACTS)
        q_sa = q_all[np.arange(len(a)), a]
        q_loss = nn.mse(q_sa, Tensor(y))
        f_logits = nn.mlp(Tensor(s), params, "f", _Q_ACTS)
        f_loss = nn.softmax_cross_entropy(f_logits, a)
        loss = ad.add(q_loss, f_loss)
        if not np.isfinite(float(loss.data)):
            raise FloatingPointError(f"BCQ diverged at iteration {it}")
        loss.backward()
        adam_step(state, params)

        if it % config.target_period == 0:
            for k in target:
                target[k] = params[k].data.copy()
        if it % config.eval_period == 0:
            if eval_ctx is not None and behavior is not None:
                wis, ess = wis_evaluate(policy, behavior, eval_ctx)
            else:
                wis, ess = float("nan"), float("nan")
            curve.append(CurvePoint(it, wis, ess,
                                    float(q_loss.data), float(f_loss.data)))
    return policy, curve


# -- weighted importance sampling ---------------------------------------------------------


@dataclass
class WisEvalSet:
    """Encoded held-out trajectories: latents, logged actions, outcomes."""

    latents: list[np.ndarray]   # per trajectory (T, d_s)
    actions: list[np.ndarray]   # per trajectory (T,)
    returns: np.ndarray         # (N,) observed outcome return per trajectory


def make_eval_set(model: EncoderModel, trajs: list[Trajectory],
                  terminal_rewards: dict[int, float] | None = None) -> WisEvalSet:
    rewards_map = terminal_rewards or TERMINAL_REWARD
    latents = encode_many(model, trajs)
    actions = [t.actions.copy() for t in trajs]
    returns = np.array([rewards_map[t.outcome] for t in trajs])
    return WisEvalSet(latents, actions, returns)


def wis_from_weights(weights: np.ndarray, returns: np.ndarray) -> tuple[float, float]:
    """Self-normalized estimate plus effective sample size."""
    weights = np.asarray(weights, dtype=np.float64)
    returns = np.asarray(returns, dtype=np.float64)
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("all importance weights are zero")
    wis = float((weights * returns).sum() / total)
    ess = float(total * total / (weights * weights).sum())
    return wis, ess


def trajectory_weights(policy: QPolicy, behavior: BCPolicy,
                       eval_set: WisEvalSet) -> np.ndarray:
    """Per-trajectory products of smoothed-greedy over behavior ratios.

    Both policies score every step of the eval set in one call each. The
    products are sums of log ratios, clipped and exponentiated in log space,
    so a long run of large ratios followed by small ones cannot overflow or
    underflow before the clip.
    """
    states = np.concatenate(eval_set.latents)
    acts = np.concatenate(eval_set.actions)
    rows = np.arange(len(acts))
    pi_e = policy.eval_action_probs(states)[rows, acts]
    pi_b = behavior.probs(states)[rows, acts]
    with np.errstate(divide="ignore"):  # pi_e == 0 gives -inf, clipped below
        log_ratios = np.log(pi_e) - np.log(np.maximum(pi_b, PROB_FLOOR))
    lengths = np.array([len(a) for a in eval_set.actions])
    log_w = np.add.reduceat(log_ratios, np.cumsum(lengths) - lengths)
    # the outer clip only puts exp's last-bit rounding at a bound back on it
    return np.clip(np.exp(np.clip(log_w, *np.log(WEIGHT_CLIP))), *WEIGHT_CLIP)


def wis_evaluate(policy: QPolicy, behavior: BCPolicy,
                 eval_set: WisEvalSet) -> tuple[float, float]:
    """Weighted importance sampling return and effective sample size."""
    weights = trajectory_weights(policy, behavior, eval_set)
    return wis_from_weights(weights, eval_set.returns)
