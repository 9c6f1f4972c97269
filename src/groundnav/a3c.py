"""Advantage actor-critic trainer with n-step bootstrapped returns.

Workers roll out up to ``n_steps`` frames against a private environment and
graph, backpropagate policy + value + entropy losses, then apply a globally
clipped, adaptively scaled update to the shared parameters. The workers take
turns on the calling thread: each plays one rollout and applies its update,
then the next worker goes. A worker reloads its private copy of the
parameters only after its own update, so it plays on a copy that misses the
other workers' updates since then: A3C's policy lag. Workers claim each frame
from the ``Collector`` before they play it, and report updates and episode
ends to it; it keeps the run totals and the log (per-step means of the
losses) and decides when the run stops, so a run trains exactly its frame
budget. Every run, with any number of workers, is bit-for-bit reproducible.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import gridnav
from .autodiff import Graph, Tensor
from .gridnav import ACTIONS, MAX_STEPS
from .nets import (
    AttentionState,
    ModelConfig,
    Params,
    encode_instruction,
    init_params,
    initial_attention_state,
    model_step,
)

LOG_COLUMNS = ("episodes", "frames", "mean_reward", "accuracy",
               "policy_loss", "value_loss", "entropy")


@dataclass
class TrainerConfig:
    gamma: float = 0.99
    n_steps: int = 20
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    grad_clip_norm: float = 40.0
    learning_rate: float = 1e-3
    workers: int = 1
    # sync | async; only checks that sync has one worker (workers take turns
    # on the calling thread either way), kept because bench/run.py pins it
    mode: str = "sync"
    rmsprop_alpha: float = 0.99
    rmsprop_eps: float = 1e-8
    max_frames: int = 200_000
    max_episodes: int = 0  # 0 = no episode cap
    log_every_episodes: int = 100
    checkpoint_every_episodes: int = 0  # 0 = off
    early_stop_accuracy: float = 0.0  # 0 = off

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        for name in ("grad_clip_norm", "entropy_coef", "value_coef"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.early_stop_accuracy <= 1.0:
            raise ValueError("early_stop_accuracy must be in [0, 1]")
        if self.log_every_episodes < 1:
            raise ValueError("log_every_episodes must be >= 1")
        for name in ("max_frames", "max_episodes", "checkpoint_every_episodes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.mode not in ("sync", "async"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "sync" and self.workers != 1:
            raise ValueError("sync mode is single-worker by definition")


@dataclass
class EnvSettings:
    difficulty: str = "easy"
    corpus_seed: int = 7

    def __post_init__(self):
        if self.difficulty not in gridnav.DIFFICULTIES:
            raise ValueError(f"unknown difficulty {self.difficulty!r}")
        if self.corpus_seed < 0:
            raise ValueError("corpus_seed must be >= 0")


@dataclass
class RolloutStep:
    log_prob: Tensor
    value: Tensor
    entropy: Tensor
    reward: float
    done: bool


def compute_returns(rollout: list[RolloutStep], bootstrap_value: float,
                    gamma: float) -> list[float]:
    """Discounted returns R_t = r_t + gamma * R_{t+1}, computed backward;
    a done flag cuts the recursion."""
    if not rollout:
        raise ValueError("empty rollout")
    returns = [0.0] * len(rollout)
    acc = float(bootstrap_value)
    for i in range(len(rollout) - 1, -1, -1):
        step = rollout[i]
        if step.done:
            acc = 0.0
        acc = step.reward + gamma * acc
        returns[i] = acc
    return returns


def compute_losses(g: Graph, rollout: list[RolloutStep],
                   returns: list[float]) -> tuple[Tensor, Tensor, Tensor]:
    """(policy_loss, value_loss, entropy) as graph scalars.

    The advantage R_t - V(s_t) enters the policy term as a constant, so no
    gradient flows into the critic through it.
    """
    if len(rollout) != len(returns):
        raise ValueError("returns not aligned with rollout")
    policy_loss = value_loss = entropy = None
    for step, ret in zip(rollout, returns):
        advantage = ret - step.value.item()
        p_term = g.scale(step.log_prob, -advantage)
        diff = g.shift(step.value, -ret)
        v_term = g.mul(diff, diff)
        policy_loss = p_term if policy_loss is None else g.add(policy_loss, p_term)
        value_loss = v_term if value_loss is None else g.add(value_loss, v_term)
        entropy = step.entropy if entropy is None else g.add(entropy, step.entropy)
    return policy_loss, value_loss, entropy


def total_loss(g: Graph, policy_loss: Tensor, value_loss: Tensor,
               entropy: Tensor, config: TrainerConfig) -> Tensor:
    out = g.add(policy_loss, g.scale(value_loss, config.value_coef))
    return g.add(out, g.scale(entropy, -config.entropy_coef))


class SharedOptimizerState:
    """Per-parameter squared-gradient moving averages shared by all workers."""

    def __init__(self, params: Params):
        self.square_avg = {name: np.zeros_like(t.data)
                           for name, t in params.items()}
        self.skipped = 0
        # nothing contends for it; kept because bench/tracing.py times it
        self.lock = threading.Lock()


def worker_update(shared: Params, opt: SharedOptimizerState,
                  grads: dict[str, np.ndarray], config: TrainerConfig) -> bool:
    """Clip to the global norm, then apply an RMSProp-style step to the
    shared parameters. Returns False, and counts the update in
    ``opt.skipped``, on non-finite gradients."""
    sq_sum = 0.0
    for grad in grads.values():
        sq_sum += float(np.dot(grad.ravel(), grad.ravel()))
    if not np.isfinite(sq_sum):
        opt.skipped += 1
        return False
    norm = np.sqrt(sq_sum)
    scale = 1.0
    if config.grad_clip_norm > 0 and norm > config.grad_clip_norm:
        scale = config.grad_clip_norm / norm
    lr = config.learning_rate
    alpha = config.rmsprop_alpha
    eps = config.rmsprop_eps
    with opt.lock:
        for name, grad in grads.items():
            if scale != 1.0:
                grad = grad * scale
            sq = opt.square_avg[name]
            sq *= alpha
            sq += (1.0 - alpha) * grad * grad
            shared[name].data -= lr * grad / (np.sqrt(sq) + eps)
    return True


# --------------------------------------------------------------------------
# Collector: run totals, stop decisions and the log
# --------------------------------------------------------------------------

class Collector:
    """Every worker reports here directly, in turn."""

    def __init__(self, config: TrainerConfig,
                 checkpoint_cb: Optional[Callable[[int], None]] = None):
        self.config = config
        self.checkpoint_cb = checkpoint_cb
        self.stopped = False
        self.episodes = 0
        self.frames = 0
        self.recent = deque(maxlen=100)
        self.loss_sums = [0.0, 0.0, 0.0]
        self.loss_count = 0
        self.rows: list[dict] = []

    def take_frame(self) -> bool:
        """Claim one frame of the budget; False once the run has stopped.
        The frame that uses up a positive ``max_frames`` stops the run."""
        if self.stopped:
            return False
        self.frames += 1
        if 0 < self.config.max_frames <= self.frames:
            self.stopped = True
        return True

    def add_update(self, policy_loss: float, value_loss: float,
                   entropy: float) -> None:
        for i, loss in enumerate((policy_loss, value_loss, entropy)):
            self.loss_sums[i] += loss
        self.loss_count += 1

    def end_episode(self, reward: float) -> None:
        self.episodes += 1
        self.recent.append(reward)
        if self.episodes % self.config.log_every_episodes == 0:
            self._emit_row()
        if 0 < self.config.max_episodes <= self.episodes:
            self.stopped = True
        if (self.checkpoint_cb is not None
                and self.config.checkpoint_every_episodes > 0
                and self.episodes % self.config.checkpoint_every_episodes == 0):
            self.checkpoint_cb(self.episodes)

    def _emit_row(self) -> None:
        n = max(1, self.loss_count)
        accuracy = sum(1 for r in self.recent if r == gridnav.REWARD_CORRECT) \
            / max(1, len(self.recent))
        mean_reward = sum(self.recent) / max(1, len(self.recent))
        self.rows.append(dict(zip(LOG_COLUMNS, (
            self.episodes, self.frames, mean_reward, accuracy,
            *(total / n for total in self.loss_sums)))))
        self.loss_sums = [0.0, 0.0, 0.0]
        self.loss_count = 0
        if (self.config.early_stop_accuracy > 0
                and len(self.recent) == self.recent.maxlen
                and accuracy >= self.config.early_stop_accuracy):
            self.stopped = True


# --------------------------------------------------------------------------
# Worker rollout loop
# --------------------------------------------------------------------------

def policy_entropy(g: Graph, probs: Tensor) -> Tensor:
    return g.scale(g.sum_all(g.mul(probs, g.log(probs))), -1.0)


def _worker(worker_id: int, shared: Params, opt: SharedOptimizerState,
            tconf: TrainerConfig, mconf: ModelConfig, env: EnvSettings,
            seed: int, collector: Collector, train_split):
    """One worker's turns: each ``next`` plays one rollout, which ends early
    when the run stops, and applies its update."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1000 + worker_id]))
    local = shared.copy()
    render_hw = (mconf.render_h, mconf.render_w)

    def new_episode():
        ins = train_split[int(rng.integers(len(train_split)))]
        env_seed = int(rng.integers(2 ** 31))
        state, obs = gridnav.reset(env_seed, env.difficulty, ins,
                                   render_hw=render_hw)
        return ins, state, obs

    instruction, state, obs = new_episode()
    att = initial_attention_state(mconf)

    while True:
        g = Graph()
        x_l = encode_instruction(g, local, mconf, instruction.tokens)
        # detach the recurrent state at the segment boundary
        att = AttentionState(h=Tensor(att.h.data), C=Tensor(att.C.data))
        rollout: list[RolloutStep] = []
        for _ in range(tconf.n_steps):
            if not collector.take_frame():
                break
            out = model_step(g, local, mconf, x_l, obs.image, att)
            p = out.probs.data
            action = int(rng.choice(len(p), p=p / p.sum()))
            log_prob = g.log(g.pick(out.probs, action))
            entropy = policy_entropy(g, out.probs)
            state, reward, done = gridnav.advance(state, ACTIONS[action])
            rollout.append(RolloutStep(
                log_prob=log_prob, value=out.value, entropy=entropy,
                reward=reward, done=done))
            att = out.next_attention_state
            if done:
                collector.end_episode(reward)
                instruction, state, obs = new_episode()
                x_l = encode_instruction(g, local, mconf, instruction.tokens)
                att = initial_attention_state(mconf)
            else:
                obs = gridnav.render(state)

        # a turn starts only while the run goes on, so the rollout has a frame
        bootstrap = 0.0
        if not rollout[-1].done:
            peek = model_step(g, local, mconf, x_l, obs.image, att)
            bootstrap = peek.value.item()
        returns = compute_returns(rollout, bootstrap, tconf.gamma)
        policy_loss, value_loss, entropy = compute_losses(g, rollout, returns)
        loss = total_loss(g, policy_loss, value_loss, entropy, tconf)
        g.check_finite(loss)
        local.zero_grads()
        g.backward(loss)
        grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
                 for name, t in local.items()}
        worker_update(shared, opt, grads, tconf)
        local.load_values(shared)
        n = len(rollout)
        collector.add_update(policy_loss.item() / n, value_loss.item() / n,
                             entropy.item() / n)
        yield


def _worker_loop(shared: Params, opt: SharedOptimizerState,
                 tconf: TrainerConfig, mconf: ModelConfig, env: EnvSettings,
                 seed: int, collector: Collector, train_split) -> None:
    """Give the workers their turns, in worker order, until the collector
    stops the run."""
    workers = [_worker(wid, shared, opt, tconf, mconf, env, seed, collector,
                       train_split) for wid in range(tconf.workers)]
    while True:
        for worker in workers:
            if collector.stopped:
                return
            next(worker)


@dataclass
class TrainResult:
    rows: list[dict]
    params: Params
    episodes: int
    frames: int
    skipped_updates: int


def train(tconf: TrainerConfig, mconf: ModelConfig, env: EnvSettings,
          seed: int,
          checkpoint_cb: Optional[Callable[[int, Params], None]] = None,
          ) -> TrainResult:
    """Run the trainer to its frame/episode budget and return the log rows
    plus the final shared parameters. Every worker runs on the calling
    thread, and so does ``checkpoint_cb``; an exception in either ends the
    run and propagates from here."""
    corpus = gridnav.build_corpus(env.corpus_seed)
    shared = init_params(mconf, seed)
    opt = SharedOptimizerState(shared)

    def save_cb(episodes: int) -> None:
        checkpoint_cb(episodes, shared.copy())

    collector = Collector(tconf, None if checkpoint_cb is None else save_cb)

    # a fully zero budget trains nothing: empty log, initial parameters kept
    if tconf.max_frames > 0 or tconf.max_episodes > 0:
        # looked up at call time: bench/tracing.py swaps _worker_loop
        _worker_loop(shared, opt, tconf, mconf, env, seed, collector,
                     corpus.train)

    return TrainResult(rows=collector.rows, params=shared,
                       episodes=collector.episodes, frames=collector.frames,
                       skipped_updates=opt.skipped)


# --------------------------------------------------------------------------
# Greedy / sampled episode playout (evaluation, visualization)
# --------------------------------------------------------------------------

@dataclass
class EpisodeResult:
    reward: float
    success: bool
    steps: int
    trace: list[dict]
    frames: list[np.ndarray] = field(default_factory=list)
    attended: list[Optional[np.ndarray]] = field(default_factory=list)


def play_episode(params: Params, mconf: ModelConfig, instruction,
                 env_seed: int, difficulty: str, greedy: bool = True,
                 rng: Optional[np.random.Generator] = None,
                 capture: bool = False) -> EpisodeResult:
    """Roll one episode; greedy mode takes the argmax action (ties to the
    lowest index)."""
    state, obs = gridnav.reset(env_seed, difficulty, instruction,
                               render_hw=(mconf.render_h, mconf.render_w))
    g = Graph()
    x_l = encode_instruction(g, params, mconf, instruction.tokens)
    att = initial_attention_state(mconf)
    result = EpisodeResult(reward=0.0, success=False, steps=0, trace=[])
    final_reward = 0.0
    for t in range(MAX_STEPS):
        out = model_step(g, params, mconf, x_l, obs.image, att)
        if capture:
            result.frames.append(obs.image.data.copy())
            result.attended.append(
                None if out.attended is None else out.attended.data.copy())
        if greedy:
            action = int(np.argmax(out.probs.data))
        else:
            if rng is None:
                raise ValueError("sampled playout needs an rng")
            p = out.probs.data
            action = int(rng.choice(len(p), p=p / p.sum()))
        state, reward, done = gridnav.advance(state, ACTIONS[action])
        result.trace.append(gridnav.trace_record(t, ACTIONS[action], reward,
                                                 done, state))
        att = out.next_attention_state
        final_reward = reward
        result.steps = t + 1
        if done:
            break
        obs = gridnav.render(state)
    result.reward = final_reward
    result.success = final_reward == gridnav.REWARD_CORRECT
    return result
