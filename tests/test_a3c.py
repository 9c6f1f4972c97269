import math
import threading

import numpy as np
import pytest

from groundnav import a3c, gridnav, nets
from groundnav.a3c import (
    Collector,
    EnvSettings,
    RolloutStep,
    SharedOptimizerState,
    TrainerConfig,
    compute_losses,
    compute_returns,
    play_episode,
    policy_entropy,
    total_loss,
    train,
    worker_update,
)
from groundnav.autodiff import Graph, Tensor
from groundnav.nets import Params


def _steps(g, rewards, dones, values=None, actions=None, n_actions=3):
    """Rollout steps of a batch of one around a uniform policy; values are
    constants."""
    steps = []
    values = values or [0.0] * len(rewards)
    actions = actions or [0] * len(rewards)
    for r, d, v, a in zip(rewards, dones, values, actions):
        probs = g.softmax(Tensor(np.zeros((1, n_actions))))
        lp = g.log(g.pick(probs, a))
        steps.append(RolloutStep(log_prob=lp,
                                 value=g.shift(Tensor(np.zeros(1)), v),
                                 entropy=policy_entropy(g, probs),
                                 reward=np.array([r]), done=np.array([d])))
    return steps


def _row(returns):
    """The one row of each return of a batch of one."""
    assert all(r.shape == (1,) for r in returns)
    return [float(r[0]) for r in returns]


class TestComputeReturns:
    def test_single_terminal_step(self):
        g = Graph()
        rollout = _steps(g, [1.0], [True])
        assert _row(compute_returns(rollout, np.zeros(1), 0.99)) == [1.0]

    def test_all_zero_rewards_terminal(self):
        g = Graph()
        rollout = _steps(g, [0.0, 0.0, 0.0], [False, False, True])
        assert _row(compute_returns(rollout, np.zeros(1), 0.99)) == \
            [0.0, 0.0, 0.0]

    def test_hand_recursion_oracle(self):
        g = Graph()
        rollout = _steps(g, [0.0, 0.0, -0.2], [False, False, True])
        returns = _row(compute_returns(rollout, np.zeros(1), 0.99))
        np.testing.assert_allclose(returns, [-0.19602, -0.198, -0.2],
                                   atol=1e-12)

    def test_bootstrap_value_used_when_truncated(self):
        g = Graph()
        rollout = _steps(g, [0.0, 0.5], [False, False])
        returns = _row(compute_returns(rollout, np.full(1, 2.0), 0.5))
        assert returns[1] == pytest.approx(0.5 + 0.5 * 2.0)
        assert returns[0] == pytest.approx(0.5 * returns[1])

    def test_done_resets_recursion(self):
        g = Graph()
        rollout = _steps(g, [1.0, 0.3], [True, False])
        returns = _row(compute_returns(rollout, np.full(1, 9.0), 0.9))
        # the terminal at t=0 must not see anything after it
        assert returns[0] == pytest.approx(1.0)
        assert returns[1] == pytest.approx(0.3 + 0.9 * 9.0)

    def test_recursion_identity_random(self):
        rng = np.random.default_rng(0)
        g = Graph()
        rewards = rng.uniform(-1, 1, 15).tolist()
        dones = (rng.random(15) < 0.2).tolist()
        dones[-1] = True
        rollout = _steps(g, rewards, dones)
        gamma = 0.97
        returns = _row(compute_returns(rollout, np.zeros(1), gamma))
        for t in range(14):
            if not rollout[t].done[0]:
                assert returns[t] - gamma * returns[t + 1] == \
                    pytest.approx(rewards[t])

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            compute_returns([], np.zeros(1), 0.99)


class TestComputeLosses:
    def test_zero_advantage_zero_policy_loss(self):
        g = Graph()
        rollout = _steps(g, [0.5, 0.5], [False, False],
                                values=[0.5 + 0.5 * 0.5, 0.5])
        # gamma=1 with bootstrap 0 would not give zero advantage; build
        # returns directly equal to the stored values instead
        returns = [rollout[0].value.data, rollout[1].value.data]
        policy_loss, _, _ = compute_losses(g, rollout, returns)
        assert policy_loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_policy_entropy(self):
        g = Graph()
        rollout = _steps(g, [0.0] * 4, [False] * 4)
        _, _, entropy = compute_losses(g, rollout, [np.zeros(1)] * 4)
        assert entropy.item() == pytest.approx(4 * math.log(3), abs=1e-9)

    def test_two_step_scalar_oracle(self):
        g = Graph()
        rollout = _steps(g, [0.0, 1.0], [False, True],
                                values=[0.25, 0.5], actions=[1, 2])
        gamma = 0.9
        returns = compute_returns(rollout, np.zeros(1), gamma)
        policy_loss, value_loss, entropy = compute_losses(g, rollout, returns)
        # oracle: uniform policy, log pi = -log 3 at each step
        returns = _row(returns)
        adv = [returns[0] - 0.25, returns[1] - 0.5]
        exp_policy = sum(-(-math.log(3)) * a for a in adv)
        exp_value = sum((r - v) ** 2 for r, v in zip(returns, [0.25, 0.5]))
        assert policy_loss.item() == pytest.approx(exp_policy, abs=1e-9)
        assert value_loss.item() == pytest.approx(exp_value, abs=1e-9)
        assert entropy.item() == pytest.approx(2 * math.log(3), abs=1e-9)

    def test_misaligned_returns_rejected(self):
        g = Graph()
        rollout = _steps(g, [0.0], [True])
        with pytest.raises(ValueError):
            compute_losses(g, rollout, [np.zeros(1)] * 2)

    def test_advantage_carries_no_gradient_into_value(self):
        # policy term must not push the value head: with a leaf value
        # tensor, backward of the policy loss alone leaves it ungraded
        g = Graph()
        v = Tensor(np.full(1, 0.3), requires_grad=True)
        logits = Tensor(np.zeros((1, 3)), requires_grad=True)
        probs = g.softmax(logits)
        lp = g.log(g.pick(probs, 0))
        rollout = [RolloutStep(log_prob=lp,
                               value=g.shift(g.scale(v, 1.0), 0.0),
                               entropy=policy_entropy(g, probs),
                               reward=np.ones(1), done=np.array([True]))]
        policy_loss, _, _ = compute_losses(g, rollout, [np.ones(1)])
        g.backward(policy_loss)
        assert v.grad is None or np.allclose(v.grad, 0.0)
        assert logits.grad is not None


class TestWorkerUpdate:
    def _params(self):
        return Params({
            "w": Tensor(np.array([1.0, -2.0]), requires_grad=True),
            "b": Tensor(np.array([0.5]), requires_grad=True),
        })

    def test_zero_gradient_no_change(self):
        params = self._params()
        opt = SharedOptimizerState(params)
        before = {n: t.data.copy() for n, t in params.items()}
        ok = worker_update(params, opt,
                           {"w": np.zeros(2), "b": np.zeros(1)},
                           TrainerConfig())
        assert ok
        for n, t in params.items():
            np.testing.assert_array_equal(t.data, before[n])

    def test_clip_scale_equivalence(self):
        config = TrainerConfig(grad_clip_norm=1.0)
        grads = {"w": np.array([3.0, 4.0]), "b": np.array([0.0])}  # norm 5
        double = {"w": np.array([6.0, 8.0]), "b": np.array([0.0])}  # norm 10
        p1, p2 = self._params(), self._params()
        o1, o2 = SharedOptimizerState(p1), SharedOptimizerState(p2)
        worker_update(p1, o1, grads, config)
        worker_update(p2, o2, double, config)
        for n in ("w", "b"):
            np.testing.assert_allclose(p1[n].data, p2[n].data, atol=1e-15)

    def test_non_finite_gradient_skipped_and_logged(self):
        params = self._params()
        opt = SharedOptimizerState(params)
        before = params["w"].data.copy()
        ok = worker_update(params, opt,
                           {"w": np.array([np.nan, 1.0]), "b": np.zeros(1)},
                           TrainerConfig())
        assert not ok
        assert opt.skipped == 1
        np.testing.assert_array_equal(params["w"].data, before)

    def test_quadratic_objective_decreases(self):
        # f(x) = (x - 3)^2, one sync step from x=0 must reduce f
        params = Params({"x": Tensor(np.array([0.0]), requires_grad=True)})
        opt = SharedOptimizerState(params)
        config = TrainerConfig(learning_rate=0.1)
        x0 = params["x"].data[0]
        f0 = (x0 - 3.0) ** 2
        grad = np.array([2.0 * (x0 - 3.0)])
        worker_update(params, opt, {"x": grad}, config)
        f1 = (params["x"].data[0] - 3.0) ** 2
        assert f1 < f0


class TestTrainerConfig:
    @pytest.mark.parametrize("key, value", [
        ("rmsprop_alpha", -0.1), ("rmsprop_alpha", 1.5),
        ("rmsprop_eps", 0.0), ("rmsprop_eps", -1e-8)])
    def test_rmsprop_settings_that_make_nan_rejected(self, key, value):
        # eps 0 divides 0 by 0 for a parameter with no gradient yet, and
        # alpha above 1 takes the square root of a negative average
        with pytest.raises(ValueError, match=f"^{key} "):
            TrainerConfig(**{key: value})

    def test_rmsprop_range_ends_accepted(self):
        for alpha in (0.0, 1.0):
            assert TrainerConfig(rmsprop_alpha=alpha).rmsprop_alpha == alpha


def _run_bandit(updates=200, entropy_coef=0.01, lr=2e-2, seed=0,
                rollouts_per_update=5):
    """1-state 2-action bandit: action 0 pays 1, action 1 pays 0."""
    rng = np.random.default_rng(seed)
    params = Params({
        "logits": Tensor(np.zeros(2), requires_grad=True),
        "v": Tensor(np.zeros(1), requires_grad=True),
    })
    config = TrainerConfig(learning_rate=lr, entropy_coef=entropy_coef,
                           n_steps=rollouts_per_update)
    opt = SharedOptimizerState(params)
    for _ in range(updates):
        g = Graph()
        rollout = []
        for _ in range(rollouts_per_update):
            # the bandit's one state, a batch of one
            probs = g.softmax(g.reshape(params["logits"], (1, 2)))
            value = g.pick(g.reshape(params["v"], (1, 1)), 0)
            p = probs.data[0] / probs.data.sum()
            action = int(rng.choice(2, p=p))
            reward = 1.0 if action == 0 else 0.0
            lp = g.log(g.pick(probs, action))
            rollout.append(RolloutStep(log_prob=lp, value=value,
                                       entropy=policy_entropy(g, probs),
                                       reward=np.array([reward]),
                                       done=np.array([True])))
        returns = compute_returns(rollout, np.zeros(1), config.gamma)
        losses = compute_losses(g, rollout, returns)
        loss = total_loss(g, *losses, config)
        params.zero_grads()
        g.backward(loss)
        grads = {n: t.grad for n, t in params.items()}
        worker_update(params, opt, grads, config)
    probs = Graph().softmax(Tensor(params["logits"].data[None])).data[0]
    return probs[0], params["v"].data[0]


class TestBandit:
    def test_learns_rewarded_action(self):
        p_rewarded, value = _run_bandit(updates=200)
        assert p_rewarded > 0.9

    def test_value_estimate_close_to_truth(self):
        p_rewarded, value = _run_bandit(updates=200)
        # true expected return under the learned policy is p(rewarded)
        assert abs(value - p_rewarded) < 0.05

    def test_entropy_free_collapse(self):
        p_rewarded, _ = _run_bandit(updates=400, entropy_coef=0.0, lr=5e-2)
        assert p_rewarded > 0.99


class TestSampleAction:
    def test_draws_as_generator_choice(self):
        # the same action as rng.choice(len(p), p=p / p.sum()), draw for
        # draw, and the generator left in the same state
        draws = np.random.default_rng(11)
        ps = [np.exp(z) / np.exp(z).sum()
              for z in draws.normal(0.0, 3.0, (2000, 6))]
        ps += [np.eye(6)[i] for i in range(6)]
        ps += [np.array([0.0, 0.25, 0.0, 0.75]), np.array([0.5, 0.0, 0.5])]
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        for p in ps:
            got = a3c.sample_action(ours, p)
            want = int(theirs.choice(len(p), p=p / p.sum()))
            assert got == want
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestEntropyProperty:
    def test_uniform_maximizes_entropy(self):
        rng = np.random.default_rng(1)
        uniform = np.full(3, 1 / 3)
        h_uniform = -(uniform * np.log(uniform)).sum()
        for _ in range(1000):
            p = rng.dirichlet(np.ones(3))
            h = -(p * np.log(np.maximum(p, 1e-300))).sum()
            assert h_uniform >= h - 1e-12


@pytest.fixture(scope="module")
def tiny_model():
    corpus = gridnav.build_corpus(7)
    vocab = nets.build_vocab(corpus.train + corpus.test)
    mconf = nets.ModelConfig(vocab=vocab, d=8, l=8, embed_dim=4, hidden=8,
                             render_h=27, render_w=36,
                             conv_specs=((4, 5, 3), (6, 4, 2), (8, 3, 1)))
    return corpus, mconf


class TestTrainLoop:
    def test_sync_deterministic(self, tiny_model):
        _, mconf = tiny_model
        tconf = TrainerConfig(max_frames=1500, log_every_episodes=20)
        env = EnvSettings(difficulty="easy", corpus_seed=7)
        r1 = train(tconf, mconf, env, seed=3)
        r2 = train(tconf, mconf, env, seed=3)
        assert r1.rows == r2.rows
        assert r1.frames == r2.frames
        for name in r1.params.names():
            assert (r1.params[name].data == r2.params[name].data).all()

    def test_zero_budget_trains_nothing(self, tiny_model):
        _, mconf = tiny_model
        tconf = TrainerConfig(max_frames=0, max_episodes=0)
        env = EnvSettings(difficulty="easy", corpus_seed=7)
        result = train(tconf, mconf, env, seed=1)
        assert result.rows == []
        assert result.frames == 0
        fresh = nets.init_params(mconf, 1)
        for name in fresh.names():
            assert (result.params[name].data == fresh[name].data).all()

    def test_async_smoke(self, tiny_model):
        _, mconf = tiny_model
        tconf = TrainerConfig(max_frames=1200, mode="async", workers=2,
                              log_every_episodes=20)
        env = EnvSettings(difficulty="easy", corpus_seed=7)
        result = train(tconf, mconf, env, seed=5)
        assert result.frames >= 1200
        frames = [row["frames"] for row in result.rows]
        assert frames == sorted(frames)
        for row in result.rows:
            for key in ("policy_loss", "value_loss", "entropy"):
                assert math.isfinite(row[key])

    def test_async_single_worker_matches_sync(self, tiny_model):
        # the worker that reaches the frame budget stops the run itself, so
        # one async worker trains exactly what the sync loop trains
        _, mconf = tiny_model
        env = EnvSettings(difficulty="easy", corpus_seed=7)
        for seed in range(10):
            sync = train(TrainerConfig(max_frames=400, log_every_episodes=5),
                         mconf, env, seed)
            one = train(TrainerConfig(max_frames=400, log_every_episodes=5,
                                      mode="async", workers=1),
                        mconf, env, seed)
            assert one.frames == sync.frames == 400, seed
            assert one.rows == sync.rows, seed
            for name in sync.params.names():
                assert one.params[name].data.tobytes() == \
                    sync.params[name].data.tobytes(), (seed, name)

    def test_paper_rollout_memory(self, tiny_model, traced_peak):
        # one 20-frame rollout at paper scale: the tape keeps no im2col
        # columns and no op output that no backward reads, and the backward
        # frees each gradient it has passed on (keeping the columns and the
        # gradients, the peak is about 311 MiB; keeping every op output,
        # about 113; as it is, about 86, and more when the backward's helper
        # thread lags behind the sweep on a busy machine)
        corpus, _ = tiny_model
        mconf = nets.paper_config(nets.build_vocab(corpus.train + corpus.test))
        tconf = TrainerConfig(max_frames=20, learning_rate=1e-5)
        env = EnvSettings(difficulty="easy", corpus_seed=7)
        train(tconf, mconf, env, seed=3)  # warm-up: lazy imports and caches
        peak = traced_peak(lambda: train(tconf, mconf, env, seed=3))
        assert peak < 100 * 2**20

    def test_paper_run_leaves_no_thread(self, tiny_model, helpers):
        # every paper-scale backward hands its kernel gradients to a helper
        # thread, and ends it before it returns
        corpus, _ = tiny_model
        mconf = nets.paper_config(nets.build_vocab(corpus.train + corpus.test))
        before = threading.enumerate()
        train(TrainerConfig(max_frames=20, learning_rate=1e-5), mconf,
              EnvSettings(difficulty="easy", corpus_seed=7), seed=3)
        assert helpers
        assert threading.enumerate() == before

    @pytest.mark.parametrize("max_frames", [401, 410])
    def test_sync_trains_exact_frame_budget(self, tiny_model, max_frames):
        # a budget that is not a multiple of n_steps ends mid-rollout; the
        # partial rollout still trains, and no frame past the budget is played
        _, mconf = tiny_model
        env = EnvSettings(difficulty="easy", corpus_seed=7)
        result = train(TrainerConfig(max_frames=max_frames), mconf, env, seed=0)
        assert result.frames == max_frames

    def test_async_trains_exact_frame_budget(self, tiny_model):
        # two workers claim frames from one budget; neither plays past it
        _, mconf = tiny_model
        env = EnvSettings(difficulty="easy", corpus_seed=7)
        for seed in range(10):
            result = train(TrainerConfig(max_frames=400, mode="async",
                                         workers=2), mconf, env, seed)
            assert result.frames == 400, seed

    def test_multi_worker_run_reproducible(self, tiny_model):
        # the workers take turns in a fixed order, so a seeded run repeats
        # bit for bit
        _, mconf = tiny_model
        tconf = TrainerConfig(max_frames=600, mode="async", workers=2,
                              log_every_episodes=5)
        env = EnvSettings(difficulty="easy", corpus_seed=7)
        r1, r2 = (train(tconf, mconf, env, seed=4) for _ in range(2))
        assert r1.rows == r2.rows
        for name in r1.params.names():
            assert r1.params[name].data.tobytes() == \
                r2.params[name].data.tobytes(), name

    @pytest.mark.parametrize("mode, workers", [("sync", 1), ("async", 2)])
    def test_runs_on_the_calling_thread(self, tiny_model, mode, workers):
        # train() starts no thread, and the checkpoint callback runs on the
        # thread that called train()
        _, mconf = tiny_model
        before = threading.enumerate()
        seen = []

        def checkpoint(episodes, params):
            seen.append((threading.current_thread(), threading.enumerate()))

        tconf = TrainerConfig(max_frames=400, mode=mode, workers=workers,
                              checkpoint_every_episodes=2)
        env = EnvSettings(difficulty="easy", corpus_seed=7)
        train(tconf, mconf, env, seed=5, checkpoint_cb=checkpoint)
        assert seen
        for thread, alive in seen:
            assert thread is threading.current_thread()
            assert alive == before

    @pytest.mark.parametrize("mode, workers", [("sync", 1), ("async", 2)])
    def test_worker_failure_raised(self, tiny_model, monkeypatch, mode,
                                   workers):
        # a worker fails mid-run; the run must stop and re-raise the worker's
        # own exception, not finish its budget on a surviving worker
        _, mconf = tiny_model
        advance = gridnav.advance
        calls = [0]

        def failing_advance(state, action):
            calls[0] += 1
            if calls[0] == 50:
                raise RuntimeError("advance failed")
            return advance(state, action)

        monkeypatch.setattr(gridnav, "advance", failing_advance)
        tconf = TrainerConfig(max_frames=400, mode=mode, workers=workers)
        env = EnvSettings(difficulty="easy", corpus_seed=7)
        with pytest.raises(RuntimeError, match="advance failed"):
            train(tconf, mconf, env, seed=5)
        assert calls[0] < 400

    @pytest.mark.parametrize("mode, workers", [("sync", 1), ("async", 2)])
    def test_checkpoint_failure_stops_workers(self, tiny_model, mode, workers):
        # a checkpoint callback that raises ends train(); no worker may
        # outlive it and go on training the shared parameters
        _, mconf = tiny_model

        def failing_checkpoint(episodes, params):
            raise OSError("checkpoint failed")

        before = set(threading.enumerate())
        tconf = TrainerConfig(max_frames=10 ** 6, mode=mode, workers=workers,
                              checkpoint_every_episodes=1)
        env = EnvSettings(difficulty="easy", corpus_seed=7)
        with pytest.raises(OSError, match="checkpoint failed"):
            train(tconf, mconf, env, seed=5, checkpoint_cb=failing_checkpoint)
        assert [t for t in threading.enumerate() if t not in before] == []

    @pytest.mark.parametrize("mode, workers", [("sync", 1), ("async", 2)])
    def test_workers_play_on_the_returned_params(self, tiny_model, monkeypatch,
                                                 mode, workers):
        # every rollout, bootstrap and update runs on the one parameter set
        # that train() returns; no worker plays on a private copy
        _, mconf = tiny_model
        model_step = a3c.model_step
        seen = []

        def recording_step(g, params, config, x_l, image, prev):
            # one call steps every environment of the batch: one entry per
            # row
            seen.extend([params] * len(image.data))
            return model_step(g, params, config, x_l, image, prev)

        monkeypatch.setattr(a3c, "model_step", recording_step)
        tconf = TrainerConfig(max_frames=200, mode=mode, workers=workers)
        result = train(tconf, mconf, EnvSettings("easy", 7), seed=5)
        assert len(seen) >= 200
        assert all(params is result.params for params in seen)

    @pytest.mark.parametrize("mode, workers", [("sync", 1), ("async", 2)])
    def test_checkpoint_gets_the_returned_params(self, tiny_model, mode,
                                                 workers):
        _, mconf = tiny_model
        seen = []
        tconf = TrainerConfig(max_frames=400, mode=mode, workers=workers,
                              checkpoint_every_episodes=2)
        result = train(tconf, mconf, EnvSettings("easy", 7), seed=5,
                       checkpoint_cb=lambda episodes, params: seen.append(params))
        assert seen
        assert all(params is result.params for params in seen)

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_row_without_update_logs_nan_losses(self, tiny_model, seed):
        # on these seeds the first hard episode ends before the first
        # rollout is complete, so its row has no update to average
        _, mconf = tiny_model
        tconf = TrainerConfig(max_frames=40, log_every_episodes=1)
        result = train(tconf, mconf, EnvSettings("hard", 7), seed)
        first = result.rows[0]
        assert first["frames"] < tconf.n_steps
        for key in ("policy_loss", "value_loss", "entropy"):
            assert math.isnan(first[key]), key
        for row in result.rows[1:]:
            for key in ("policy_loss", "value_loss", "entropy"):
                assert math.isfinite(row[key]), key

    def test_update_accounting(self, tiny_model, monkeypatch):
        # every lockstep rollout of the two environments applies exactly one
        # update
        _, mconf = tiny_model
        from groundnav.a3c import Collector, _worker_loop
        from groundnav.nets import init_params

        calls = [0]
        update = a3c.worker_update

        def counted_update(*args):
            calls[0] += 1
            return update(*args)

        monkeypatch.setattr(a3c, "worker_update", counted_update)

        tconf = TrainerConfig(max_frames=410, mode="async", workers=2)
        shared = init_params(mconf, 2)
        opt = SharedOptimizerState(shared)
        collector = Collector(tconf)
        corpus = gridnav.build_corpus(7)
        _worker_loop(shared, opt, tconf, mconf,
                     EnvSettings("easy", 7), 2, collector, corpus.train)
        # only the rollout that uses up the budget is partial
        assert collector.frames == 410
        assert calls[0] == -(-410 // (tconf.workers * tconf.n_steps)) == 11

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("max_episodes", [1, 3, 7])
    def test_lockstep_episode_budget_exact(self, tiny_model, workers,
                                           max_episodes):
        # an episode that uses up the budget stops the run inside its step:
        # the environments after it in worker order play no frame there
        _, mconf = tiny_model
        tconf = TrainerConfig(max_frames=0, max_episodes=max_episodes,
                              mode="sync" if workers == 1 else "async",
                              workers=workers, log_every_episodes=1)
        result = train(tconf, mconf, EnvSettings("hard", 7), seed=6)
        assert result.episodes == max_episodes
        assert len(result.rows) == max_episodes

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("max_frames", [3, 401, 410])
    def test_lockstep_frame_budget_exact(self, tiny_model, workers,
                                         max_frames):
        # a budget that is not a multiple of the batch ends inside a step
        _, mconf = tiny_model
        tconf = TrainerConfig(max_frames=max_frames, mode="async",
                              workers=workers)
        result = train(tconf, mconf, EnvSettings("easy", 7), seed=6)
        assert result.frames == max_frames

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_log_per_step_means(self, tiny_model, seed):
        # at a tiny learning rate the policy stays near uniform, so the
        # logged entropy is one step's, ln 3, not a rollout's sum
        _, mconf = tiny_model
        tconf = TrainerConfig(max_frames=400, learning_rate=1e-6,
                              log_every_episodes=5)
        result = train(tconf, mconf, EnvSettings("easy", 7), seed)
        assert result.rows[0]["entropy"] == pytest.approx(math.log(3),
                                                          abs=0.01)

    def test_sync_multi_worker_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(mode="sync", workers=2)

    def test_early_stop_at_first_full_window_over_threshold(self, tiny_model):
        _, mconf = tiny_model
        tconf = TrainerConfig(max_frames=4000, log_every_episodes=10,
                              early_stop_accuracy=0.01)
        result = train(tconf, mconf, EnvSettings("easy", 7), seed=1)
        assert result.frames < 4000
        # rows come every 10 episodes; the window is full from episode 100
        full = [row for row in result.rows if row["episodes"] >= 100]
        assert full[-1]["accuracy"] >= 0.01
        assert all(row["accuracy"] < 0.01 for row in full[:-1])
        assert result.episodes == full[-1]["episodes"]

    @pytest.mark.parametrize("log_every", [10, 30, 100])
    def test_early_stop_does_not_depend_on_log_cadence(self, tiny_model,
                                                        log_every):
        # the stop is decided at every episode, and the stopping episode
        # logs its window even off the cadence
        _, mconf = tiny_model
        tconf = TrainerConfig(max_frames=4000, log_every_episodes=log_every,
                              early_stop_accuracy=0.01)
        result = train(tconf, mconf, EnvSettings("easy", 7), seed=1)
        assert (result.episodes, result.frames) == (100, 2940)
        assert result.rows[-1]["episodes"] == result.episodes

    def test_early_stop_out_of_reach_trains_whole_budget(self, tiny_model):
        _, mconf = tiny_model
        tconf = TrainerConfig(max_frames=4000, log_every_episodes=10,
                              early_stop_accuracy=1.0)
        result = train(tconf, mconf, EnvSettings("easy", 7), seed=1)
        assert result.frames == 4000
        assert max(row["accuracy"] for row in result.rows) < 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(gamma=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(n_steps=0)
        with pytest.raises(ValueError):
            TrainerConfig(mode="turbo")


def _scripted_worker(mconf, corpus, seed, instruction, env_seed, actions):
    """A lockstep worker whose first episode is (instruction, env_seed) and
    which plays ``actions`` in turn; later episodes come from its rng."""
    worker = a3c._Worker(np.random.default_rng(seed), EnvSettings("easy", 7),
                         mconf, corpus.train)
    worker.instruction = instruction
    worker.state, worker.obs = gridnav.reset(
        env_seed, "easy", instruction, render_hw=(mconf.render_h,
                                                  mconf.render_w))
    script = iter(actions)
    worker.sample = lambda p: gridnav.ACTIONS.index(next(script))
    return worker


def _rollout_gradient(mconf, params, workers, max_frames):
    """Gradient of one lockstep rollout of ``workers`` from a fresh
    attention state, the run stopping after ``max_frames`` (0: never)."""
    tconf = TrainerConfig(n_steps=12, max_frames=max_frames)
    g = Graph()
    rollout, bootstrap, _ = a3c._rollout(
        g, params, tconf, mconf, workers,
        nets.initial_attention_state(mconf, len(workers)), Collector(tconf))
    returns = compute_returns(rollout, 0.0 if bootstrap is None else bootstrap,
                              tconf.gamma)
    loss = total_loss(g, *compute_losses(g, rollout, returns), tconf)
    params.zero_grads()
    g.backward(loss)
    return rollout, {name: t.grad.copy() for name, t in params.items()}


class TestLockstep:
    # stream 0 turns on the spot; stream 1 walks forward into an object, so
    # its episode ends mid-rollout and its x_l and attention rows are reset
    STREAMS = ((3, 0, 21, ("turn_left", "turn_right") * 6),
               (4, 1, 22, ("move_forward",) * 12))

    @pytest.mark.parametrize("max_frames", [0, 17],
                             ids=["full", "stops_inside_a_step"])
    def test_rollout_gradient_is_the_sum_of_its_environments(
            self, tiny_model, max_frames):
        # with max_frames = 17 the B=2 run stops after row 0's 9th frame: row
        # 1 plays 8 frames and bootstraps from the 9th step's value, as a
        # B=1 run of 8 frames does
        corpus, mconf = tiny_model
        params = nets.init_params(mconf, 7)

        def workers(streams):
            return [_scripted_worker(mconf, corpus, seed, corpus.train[ins],
                                     env_seed, actions)
                    for seed, ins, env_seed, actions in streams]

        rollout, lockstep = _rollout_gradient(mconf, params,
                                              workers(self.STREAMS), max_frames)
        assert rollout[0].reward.shape == (2,)
        assert any(step.done[1] for step in rollout[:-1])
        alone = [_rollout_gradient(
            mconf, params, workers([stream]),
            max_frames and (max_frames + 1) // 2 - row)[1]
            for row, stream in enumerate(self.STREAMS)]
        for name, grad in lockstep.items():
            want = alone[0][name] + alone[1][name]
            assert np.abs(grad - want).max() <= 1e-10 * np.abs(want).max(), name


    @pytest.mark.parametrize("partner", [False, True],
                             ids=["alone", "with_a_partner"])
    def test_episode_ending_on_the_last_step_is_not_encoded(
            self, tiny_model, monkeypatch, partner):
        # stream 1's episode ends on its 5th frame, the last step of a
        # 5-step rollout: the next rollout encodes every row, so this one
        # encodes only at its start, and hands on that row's attention
        # state reset while a partner row's carries on
        corpus, mconf = tiny_model
        params = nets.init_params(mconf, 7)
        streams = self.STREAMS if partner else self.STREAMS[1:]
        workers = [_scripted_worker(mconf, corpus, seed, corpus.train[ins],
                                    env_seed, actions)
                   for seed, ins, env_seed, actions in streams]
        encoded = []
        encode = a3c.encode_instruction

        def counted(g, params, config, tokens):
            encoded.append(len(tokens))
            return encode(g, params, config, tokens)

        monkeypatch.setattr(a3c, "encode_instruction", counted)
        tconf = TrainerConfig(n_steps=5)
        rollout, bootstrap, att = a3c._rollout(
            Graph(), params, tconf, mconf, workers,
            nets.initial_attention_state(mconf, len(workers)),
            Collector(tconf))
        assert len(rollout) == 5
        assert [step.done[-1] for step in rollout] == [False] * 4 + [True]
        assert encoded == [len(workers)]
        assert (bootstrap is None) == (not partner)
        init = nets.initial_attention_state(mconf)
        for row in (0, 1):  # h, then C, of the packed (B, 2, d) state
            got, want = att.data[:, row], init.data[:, row]
            assert got[-1].tobytes() == want[0].tobytes()
            if partner:
                assert not np.array_equal(got[0], want[0])


def _overflowing_trunk(params: Params) -> Params:
    # the largest entry of trunk_w is the largest double, so the trunk
    # matvec overflows on any state entry above 1 in magnitude
    w = params["trunk_w"].data
    w /= np.abs(w).max()
    w *= np.finfo(np.float64).max
    return params


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteForward:
    def test_train_names_the_op(self, tiny_model, monkeypatch):
        _, mconf = tiny_model
        init_params = nets.init_params
        monkeypatch.setattr(
            a3c, "init_params",
            lambda config, seed: _overflowing_trunk(init_params(config, seed)))
        env = EnvSettings(difficulty="easy", corpus_seed=7)
        with pytest.raises(FloatingPointError,
                           match=r"non-finite output of matvec at tape index"):
            train(TrainerConfig(max_frames=40), mconf, env, seed=0)

    def test_play_episode_names_the_op(self, tiny_model):
        corpus, mconf = tiny_model
        params = _overflowing_trunk(nets.init_params(mconf, 3))
        for greedy in (True, False):
            with pytest.raises(FloatingPointError,
                               match=r"non-finite output of matvec at tape index"):
                play_episode(params, mconf, corpus.train[0], 11, "easy",
                             greedy=greedy, rng=np.random.default_rng(0))


class TestPlayEpisode:
    def test_greedy_deterministic(self, tiny_model):
        corpus, mconf = tiny_model
        params = nets.init_params(mconf, 3)
        a = play_episode(params, mconf, corpus.train[0], 11, "easy")
        b = play_episode(params, mconf, corpus.train[0], 11, "easy")
        assert a.reward == b.reward
        assert a.trace == b.trace

    def test_episode_bounded(self, tiny_model):
        corpus, mconf = tiny_model
        params = nets.init_params(mconf, 4)
        res = play_episode(params, mconf, corpus.train[1], 7, "easy")
        assert 1 <= res.steps <= gridnav.MAX_STEPS
        assert res.trace[-1]["done"]

    def test_capture_collects_frames_and_maps(self, tiny_model):
        corpus, mconf = tiny_model
        params = nets.init_params(mconf, 5)
        res = play_episode(params, mconf, corpus.train[2], 9, "easy",
                           capture=True)
        assert len(res.frames) == res.steps
        assert res.frames[0].shape == (3, 27, 36)
        assert res.attended[0].shape == (1, 1, 2)

    def test_paper_greedy_episode_memory(self, tiny_model, traced_peak):
        # each frame runs on a tape of its own, freed once its action is
        # taken (on one tape for the whole episode, the peak is about 131
        # MiB; with a tape per frame, about 6)
        corpus, _ = tiny_model
        mconf = nets.paper_config(nets.build_vocab(corpus.train + corpus.test))
        params = nets.init_params(mconf, 0)

        def play():
            return play_episode(params, mconf, corpus.train[0], 5, "hard")

        assert play().steps == gridnav.MAX_STEPS  # warm-up: lazy caches
        assert traced_peak(play) < 20 * 2**20

    def test_sampled_playout_needs_rng(self, tiny_model, monkeypatch):
        # the missing rng is reported before any work: no reset, no encode
        corpus, mconf = tiny_model
        params = nets.init_params(mconf, 6)
        resets = []
        monkeypatch.setattr(gridnav, "reset",
                            lambda *args, **kwargs: resets.append(args))
        with pytest.raises(ValueError, match="rng"):
            play_episode(params, mconf, corpus.train[0], 1, "easy",
                         greedy=False)
        assert resets == []


class TestCollector:
    def test_rows_every_n_episodes(self):
        config = TrainerConfig(max_frames=10_000, log_every_episodes=10)
        collector = Collector(config)
        for i in range(25):
            for _ in range(7):
                assert collector.take_frame()
            collector.add_update(0.1, 0.2, 1.0)
            collector.end_episode(1.0 if i % 2 else 0.0)
        assert len(collector.rows) == 2
        assert collector.rows[0]["episodes"] == 10
        assert collector.rows[1]["episodes"] == 20
        assert 0.0 <= collector.rows[0]["accuracy"] <= 1.0

    def test_window_without_update_logs_nan(self):
        collector = Collector(TrainerConfig(log_every_episodes=1))
        collector.end_episode(0.0)
        collector.add_update(0.5, 1.0, 1.5)
        collector.add_update(1.5, 3.0, 0.5)
        collector.end_episode(0.0)
        first, second = collector.rows
        for key in ("policy_loss", "value_loss", "entropy"):
            assert math.isnan(first[key]), key
        assert (second["policy_loss"], second["value_loss"],
                second["entropy"]) == (1.0, 2.0, 1.0)

    def test_frame_budget_stops(self):
        config = TrainerConfig(max_frames=100)
        collector = Collector(config)
        for _ in range(99):
            assert collector.take_frame()
        assert not collector.stopped
        assert collector.take_frame()
        assert collector.stopped
        assert not collector.take_frame()
        assert collector.frames == 100

    def test_episode_budget_stops(self):
        config = TrainerConfig(max_frames=0, max_episodes=3)
        collector = Collector(config)
        for _ in range(3):
            collector.end_episode(0.0)
        assert collector.stopped
