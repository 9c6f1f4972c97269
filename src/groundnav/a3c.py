"""Advantage actor-critic trainer with n-step bootstrapped returns.

The ``workers`` environments step in lockstep as one batch (A2C, Wu et al.,
arXiv 1708.05144): each step is one batched forward on one tape, then each
environment in worker order claims its frame from the ``Collector``, samples
its action from its own random stream and advances. A rollout of up to
``n_steps`` steps ends with one batched bootstrap forward, one backward of
the policy + value + entropy losses summed over environments and steps, and
one globally clipped, adaptively scaled update of the one parameter set, so
every gradient is applied to the parameters it was computed on. The
collector keeps the run totals and the log (per-frame means of the losses)
and decides when the run stops, so a run trains exactly its frame and
episode budgets: an environment that gets no frame, or whose turn comes
after the run has stopped, ends its rollout at that step, bootstrapped from
that step's value. Every run, with any number of workers, is bit-for-bit
reproducible.

Restarts: when an environment's episode ends, its row of each carried
state is replaced on the tape by one blend ``t * (1 - fresh) + new``, where
``fresh`` is 1 at the restarted rows and ``new`` is 0 off them: the
attention state (B, 2, d) takes the initial state, and, if the rollout goes
on, the instruction encoding takes the restarted rows' own, encoded alone.

Batches: every per-step value carries one leading batch axis B, one row
per environment (see ``nets``): the forward's probabilities and values, each
``RolloutStep``'s log-probabilities, values, rewards and done flags, and the
returns. The rows share the parameters. One worker is a batch of one, and
``play_episode`` plays one episode as a batch of one, each frame on a tape of
its own, from an instruction encoding memoized on the parameters; the
bootstrap forward, read only as data, also gets its own tape.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import gridnav
from .autodiff import Graph, Tensor
from .gridnav import ACTIONS, MAX_STEPS
from .nets import (
    ENCODER_TENSORS,
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
    workers: int = 1  # environments stepped in lockstep as one batch
    # sync | async; decides nothing (every run steps its workers as one batch
    # on the calling thread), kept only because bench/run.py passes it
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
        if not 0.0 <= self.rmsprop_alpha <= 1.0:
            raise ValueError("rmsprop_alpha must be in [0, 1]")
        if self.rmsprop_eps <= 0:
            raise ValueError("rmsprop_eps must be > 0")
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
    """One lockstep step: log-probabilities and values (B,), their rows'
    entropy summed into a scalar, and reward and done arrays (B,)."""
    log_prob: Tensor
    value: Tensor
    entropy: Tensor
    reward: np.ndarray
    done: np.ndarray


def compute_returns(rollout: list[RolloutStep], bootstrap_value,
                    gamma: float) -> list[np.ndarray]:
    """Discounted returns R_t = r_t + gamma * R_{t+1} (B,), computed
    backward from the bootstrap values (B,); a done flag cuts the
    recursion."""
    if not rollout:
        raise ValueError("empty rollout")
    returns = [0.0] * len(rollout)
    acc = bootstrap_value
    for i in range(len(rollout) - 1, -1, -1):
        step = rollout[i]
        acc = step.reward + gamma * np.where(step.done, 0.0, acc)
        returns[i] = acc
    return returns


def compute_losses(g: Graph, rollout: list[RolloutStep],
                   returns: list) -> tuple[Tensor, Tensor, Tensor]:
    """(policy_loss, value_loss, entropy) as graph scalars, summed over the
    steps and the environments.

    The advantage R_t - V(s_t) enters the policy term as a constant, so no
    gradient flows into the critic through it.
    """
    if len(rollout) != len(returns):
        raise ValueError("returns not aligned with rollout")
    policy_loss = value_loss = entropy = None
    for step, ret in zip(rollout, returns):
        advantage = ret - step.value.data
        p_term = g.scale(step.log_prob, -advantage)
        diff = g.shift(step.value, -ret)
        v_term = g.mul(diff, diff)
        policy_loss = p_term if policy_loss is None else g.add(policy_loss, p_term)
        value_loss = v_term if value_loss is None else g.add(value_loss, v_term)
        entropy = step.entropy if entropy is None else g.add(entropy, step.entropy)
    return g.sum_all(policy_loss), g.sum_all(value_loss), entropy


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
    """Every environment of the batch reports here directly, in turn."""

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
        """Count one episode. Once the 100-episode window is full, an
        accuracy at ``early_stop_accuracy`` stops the run, whatever the log
        cadence; that episode writes a log row too."""
        self.episodes += 1
        self.recent.append(reward)
        early_stop = (0 < self.config.early_stop_accuracy
                      and len(self.recent) == self.recent.maxlen
                      and self._accuracy() >= self.config.early_stop_accuracy)
        if early_stop or self.episodes % self.config.log_every_episodes == 0:
            self._emit_row()
        if early_stop or 0 < self.config.max_episodes <= self.episodes:
            self.stopped = True
        if (self.checkpoint_cb is not None
                and self.config.checkpoint_every_episodes > 0
                and self.episodes % self.config.checkpoint_every_episodes == 0):
            self.checkpoint_cb(self.episodes)

    def _accuracy(self) -> float:
        """The share of correct episodes in the window."""
        return sum(1 for r in self.recent if r == gridnav.REWARD_CORRECT) \
            / max(1, len(self.recent))

    def _emit_row(self) -> None:
        # a window with no update has no losses to average: NaN, not 0.0
        n = self.loss_count or math.nan
        mean_reward = sum(self.recent) / max(1, len(self.recent))
        self.rows.append(dict(zip(LOG_COLUMNS, (
            self.episodes, self.frames, mean_reward, self._accuracy(),
            *(total / n for total in self.loss_sums)))))
        self.loss_sums = [0.0, 0.0, 0.0]
        self.loss_count = 0


# --------------------------------------------------------------------------
# Lockstep rollouts
# --------------------------------------------------------------------------

def policy_entropy(g: Graph, probs: Tensor, rows=1.0) -> Tensor:
    """Entropy of each distribution of a batch (B, n), summed over the
    rows; ``rows`` (one 0/1 per row) leaves the rows at 0 out."""
    return g.sum_all(g.scale(g.mul(probs, g.log(probs)),
                             -np.asarray(rows, dtype=float)))


def sample_action(rng: np.random.Generator, p: np.ndarray) -> int:
    """An action drawn from ``p``: ``Generator.choice``'s own draw, without
    its argument checks."""
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


class _Worker:
    """One environment of the lockstep batch and the random stream that
    draws its episodes and samples its actions."""

    def __init__(self, rng: np.random.Generator, env: EnvSettings,
                 mconf: ModelConfig, train_split):
        self.rng = rng
        self.difficulty = env.difficulty
        self.render_hw = (mconf.render_h, mconf.render_w)
        self.split = train_split
        self.new_episode()

    def new_episode(self) -> None:
        self.instruction = self.split[int(self.rng.integers(len(self.split)))]
        env_seed = int(self.rng.integers(2 ** 31))
        self.state, self.obs = gridnav.reset(env_seed, self.difficulty,
                                             self.instruction,
                                             render_hw=self.render_hw)

    def sample(self, p: np.ndarray) -> int:
        return sample_action(self.rng, p)


def _rollout(g: Graph, params: Params, tconf: TrainerConfig,
             mconf: ModelConfig, workers: list[_Worker], att: Tensor,
             collector: Collector):
    """Play up to ``tconf.n_steps`` lockstep steps of ``workers`` on ``g``,
    starting from the attention state ``att`` (detached here). Returns the
    steps, the bootstrap values (None when every environment's last step
    ended its episode) and the attention state to carry on."""
    batch = len(workers)
    x_l = encode_instruction(g, params, mconf,
                             [w.instruction.tokens for w in workers])
    att = Tensor(att.data)
    steps: list[RolloutStep] = []
    over = False
    while not over:
        images = Tensor(np.array([w.obs.image.data for w in workers]))
        out = model_step(g, params, mconf, x_l, images, att)
        p = out.probs.data
        # a row that plays no frame keeps a log-probability that is finite
        actions = p.argmax(axis=1).tolist()
        rewards = np.zeros(batch)
        dones = np.zeros(batch, dtype=bool)
        restarts = []
        played = 0
        for b, w in enumerate(workers):
            if not collector.take_frame():
                break
            actions[b] = w.sample(p[b])
            w.state, reward, dones[b] = gridnav.advance(w.state,
                                                        ACTIONS[actions[b]])
            rewards[b] = reward
            if dones[b]:
                collector.end_episode(reward)
                w.new_episode()
                restarts.append(b)
            else:
                w.obs = gridnav.render(w.state)
            played += 1
        log_prob = g.log(g.pick(out.probs, actions))
        live = 1.0
        if played < batch:
            # the run stopped in this step: each row that played no frame
            # ends its rollout at the step before, bootstrapped from this
            # step's value. As a done step whose reward is that value, its
            # return is the value itself, so its advantage and value error
            # are zero; its entropy is left out.
            idle = np.arange(batch) >= played
            rewards[idle] = out.value.data[idle]
            dones[idle] = True
            live = ~idle
        steps.append(RolloutStep(log_prob=log_prob, value=out.value,
                                 entropy=policy_entropy(g, out.probs, live),
                                 reward=rewards, done=dones))
        att = out.next_attention_state
        over = len(steps) == tconf.n_steps or collector.stopped
        if restarts:
            fresh = np.zeros(batch)
            fresh[restarts] = 1.0
            init = initial_attention_state(mconf, batch)

            def blend(t: Tensor, new: Tensor) -> Tensor:
                return g.add(g.scale(t, 1.0 - fresh), new)

            att = blend(att, Tensor(fresh[:, None, None] * init.data))
            if not over:  # else the next rollout encodes every row
                new_x = encode_instruction(
                    g, params, mconf,
                    [workers[b].instruction.tokens for b in restarts])
                slot = {b: i for i, b in enumerate(restarts)}
                spread = g.row(new_x, [slot.get(b, 0) for b in range(batch)])
                x_l = blend(x_l, g.scale(spread, fresh))
    if np.all(steps[-1].done):
        return steps, None, att
    images = Tensor(np.array([w.obs.image.data for w in workers]))
    out = model_step(Graph(), params, mconf, Tensor(x_l.data), images,
                     Tensor(att.data))
    return steps, out.value.data, att


def _worker_loop(shared: Params, opt: SharedOptimizerState,
                 tconf: TrainerConfig, mconf: ModelConfig, env: EnvSettings,
                 seed: int, collector: Collector, train_split) -> None:
    """Step the ``tconf.workers`` environments in lockstep, one rollout,
    backward and update at a time, until the collector stops the run."""
    workers = [_Worker(np.random.default_rng(
        np.random.SeedSequence([seed, 1000 + wid])), env, mconf, train_split)
        for wid in range(tconf.workers)]
    att = initial_attention_state(mconf, len(workers))
    while not collector.stopped:
        g = Graph()
        frames = collector.frames
        rollout, bootstrap, att = _rollout(g, shared, tconf, mconf, workers,
                                           att, collector)
        frames = collector.frames - frames
        returns = compute_returns(rollout, 0.0 if bootstrap is None
                                  else bootstrap, tconf.gamma)
        policy_loss, value_loss, entropy = compute_losses(g, rollout, returns)
        loss = total_loss(g, policy_loss, value_loss, entropy, tconf)
        g.check_finite(loss)
        shared.zero_grads()
        g.backward(loss)
        grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
                 for name, t in shared.items()}
        worker_update(shared, opt, grads, tconf)
        collector.add_update(policy_loss.item() / frames,
                             value_loss.item() / frames,
                             entropy.item() / frames)


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
    plus the trained parameters. The ``tconf.workers`` environments step in
    lockstep as one batch on the calling thread, and each rollout applies
    one update of the gradient summed over its environments and steps.
    (A ``Graph`` may form large conv2d products on a helper thread of its
    own, which is joined when the graph is freed, before this returns.)
    ``checkpoint_cb`` runs on the calling thread too; an exception in it or
    in a step ends the run and propagates from here. ``checkpoint_cb`` gets
    the live parameters, the same object the result holds; they are valid
    for the call only, since the next update changes them in place."""
    corpus = gridnav.build_corpus(env.corpus_seed)
    shared = init_params(mconf, seed)
    opt = SharedOptimizerState(shared)
    collector = Collector(tconf, None if checkpoint_cb is None else
                          lambda episodes: checkpoint_cb(episodes, shared))

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


class _Encodings:
    """Read-only instruction encodings (1, l) by token sequence, valid while
    the encoder's tensors and the model config equal the copies taken when
    this memo was made."""

    def __init__(self, params: Params, mconf: ModelConfig):
        self.mconf = mconf
        self.tensors = [params[n].data.copy() for n in ENCODER_TENSORS]
        self.rows: dict[tuple[str, ...], np.ndarray] = {}

    def matches(self, params: Params, mconf: ModelConfig) -> bool:
        return mconf == self.mconf and all(
            np.array_equal(params[n].data, t)
            for n, t in zip(ENCODER_TENSORS, self.tensors))


def _encoding(params: Params, mconf: ModelConfig, tokens) -> np.ndarray:
    """The encoding of ``tokens`` under ``params``, from the memo that
    ``params`` holds; a miss encodes on a tape of its own. Any change to
    the encoder's tensors or to the config clears the memo."""
    memo = params.encodings
    if memo is None or not memo.matches(params, mconf):
        memo = params.encodings = _Encodings(params, mconf)
    x_l = memo.rows.get(tokens)
    if x_l is None:
        x_l = encode_instruction(Graph(), params, mconf, [tokens]).data
        x_l.flags.writeable = False
        memo.rows[tokens] = x_l
    return x_l


def play_episode(params: Params, mconf: ModelConfig, instruction,
                 env_seed: int, difficulty: str, greedy: bool = True,
                 rng: Optional[np.random.Generator] = None,
                 capture: bool = False) -> EpisodeResult:
    """Roll one episode as a batch of one; greedy mode takes the argmax
    action (ties to the lowest index). ``attended`` holds each frame's
    (c, h, w) maps. Each frame runs on a tape of its own.

    The instruction's encoding is memoized on ``params``: an episode reuses
    it while the encoder's tensors (``nets.ENCODER_TENSORS``) and ``mconf``
    keep the values they had when it was encoded, and encodes it again
    after any change to them."""
    if not greedy and rng is None:
        raise ValueError("sampled playout needs an rng")
    state, obs = gridnav.reset(env_seed, difficulty, instruction,
                               render_hw=(mconf.render_h, mconf.render_w))
    x_l = Tensor(_encoding(params, mconf, instruction.tokens))
    att = initial_attention_state(mconf)
    result = EpisodeResult(reward=0.0, success=False, steps=0, trace=[])
    for t in range(MAX_STEPS):
        out = model_step(Graph(), params, mconf, x_l,
                         Tensor(obs.image.data[None]), att)
        if capture:
            result.frames.append(obs.image.data.copy())
            result.attended.append(
                None if out.attended is None else out.attended.data[0].copy())
        p = out.probs.data[0]
        action = int(np.argmax(p)) if greedy else sample_action(rng, p)
        state, reward, done = gridnav.advance(state, ACTIONS[action])
        result.trace.append(gridnav.trace_record(t, ACTIONS[action], reward,
                                                 done, state))
        att = Tensor(out.next_attention_state.data)
        result.reward = reward
        result.steps = t + 1
        if done:
            break
        obs = gridnav.render(state)
    result.success = result.reward == gridnav.REWARD_CORRECT
    return result
