import dataclasses
import math
import struct

import numpy as np
import pytest

from groundnav import gridnav, nets
from groundnav.autodiff import Graph, Tensor
from groundnav.nets import (
    ModelConfig,
    attention_step,
    config_digest,
    count_report,
    encode_image,
    encode_instruction,
    fuse,
    init_params,
    initial_attention_state,
    load_params,
    model_step,
    paper_config,
    param_shapes,
    policy_forward,
    save_params,
    token_ids,
)


def _sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def gru_scalar_oracle(wz, bz, wr, br, wh, bh, xs):
    """Pure-Python GRU: h = (1-z)*h + z*tanh(Wh.[r*h, x] + bh)."""
    l = len(bz)

    def affine(w, b, vec):
        return [sum(w[i][j] * vec[j] for j in range(len(vec))) + b[i]
                for i in range(l)]

    h = [0.0] * l
    for x in xs:
        hx = list(h) + list(x)
        z = [_sigmoid(v) for v in affine(wz, bz, hx)]
        r = [_sigmoid(v) for v in affine(wr, br, hx)]
        rhx = [r[i] * h[i] for i in range(l)] + list(x)
        hbar = [math.tanh(v) for v in affine(wh, bh, rhx)]
        h = [(1 - z[i]) * h[i] + z[i] * hbar[i] for i in range(l)]
    return h


def lstm_scalar_oracle(weights, h, c, x, forget_sees_input=True):
    """Pure-Python gate arithmetic for one cell update; ``w`` and ``b``
    stack the input, candidate and output gates' rows in that order."""
    wf, bf, w, b = weights
    d = len(bf)
    wi, wc, wo = w[:d], w[d:2 * d], w[2 * d:]
    bi, bc, bo = b[:d], b[d:2 * d], b[2 * d:]
    hx = list(h) + list(x)
    f_in = hx if forget_sees_input else list(h)

    def affine(w, b, vec):
        return [sum(w[i][j] * vec[j] for j in range(len(vec))) + b[i]
                for i in range(d)]

    f = [_sigmoid(v) for v in affine(wf, bf, f_in)]
    i_ = [_sigmoid(v) for v in affine(wi, bi, hx)]
    cb = [math.tanh(v) for v in affine(wc, bc, hx)]
    c_new = [f[k] * c[k] + i_[k] * cb[k] for k in range(d)]
    o = [_sigmoid(v) for v in affine(wo, bo, hx)]
    h_new = [o[k] * math.tanh(c_new[k]) for k in range(d)]
    return h_new, c_new


def one(image: Tensor) -> Tensor:
    """An observation image (3, H, W) as a batch of one."""
    return Tensor(image.data[None])


@pytest.fixture(scope="module")
def corpus():
    return gridnav.build_corpus(7)


@pytest.fixture(scope="module")
def vocab(corpus):
    return nets.build_vocab(corpus.train + corpus.test)


@pytest.fixture(scope="module")
def small_config(vocab):
    return ModelConfig(vocab=vocab, d=8, l=8, embed_dim=4, hidden=8,
                       render_h=27, render_w=36,
                       conv_specs=((4, 5, 3), (6, 4, 2), (8, 3, 1)))


class TestModelConfig:
    def test_paper_feature_geometry(self, vocab):
        config = paper_config(vocab)
        assert (config.d, config.feat_h, config.feat_w) == (64, 8, 17)
        assert config.state_len == 8 * 17 == 136
        assert config.l == 256

    def test_last_conv_must_match_d(self, vocab):
        with pytest.raises(ValueError):
            ModelConfig(vocab=vocab, d=16,
                        conv_specs=((8, 5, 3), (12, 4, 2), (10, 3, 1)))

    def test_bad_enums(self, vocab):
        with pytest.raises(ValueError):
            ModelConfig(vocab=vocab, attention_source="transformer")
        with pytest.raises(ValueError):
            ModelConfig(vocab=vocab, application="bilinear")

    @pytest.mark.parametrize("field, value", [
        ("d", 0), ("l", 0), ("embed_dim", -1), ("hidden", 0), ("render_h", 0),
        ("render_w", -4), ("conv_specs", ((8, 4, 0), (12, 3, 2), (16, 2, 1))),
        ("conv_specs", ((8, 4, 4), (0, 3, 2), (16, 2, 1)))])
    def test_non_positive_geometry_rejected(self, vocab, field, value):
        with pytest.raises(ValueError, match=f"{field} .*>= 1"):
            ModelConfig(vocab=vocab, **{field: value})

    def test_action_count_is_the_action_set(self, vocab):
        assert ModelConfig(vocab=vocab).action_count == len(gridnav.ACTIONS)
        for count in (2, 4):
            with pytest.raises(ValueError, match="action_count"):
                ModelConfig(vocab=vocab, action_count=count)

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError, match="vocab"):
            ModelConfig(vocab=())

    @pytest.mark.parametrize("specs", [(), ((16, 4),)],
                             ids=["empty", "not_a_triple"])
    def test_conv_specs_shape_rejected(self, vocab, specs):
        with pytest.raises(ValueError, match="conv_specs"):
            ModelConfig(vocab=vocab, conv_specs=specs)

    def test_vocab_reserves_unk(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab=("go", "to"))


class TestInitParams:
    def test_params_is_a_dict_in_declaration_order(self, small_config):
        params = init_params(small_config, 0)
        assert isinstance(params, dict)
        assert list(params) == params.names() == list(
            param_shapes(small_config))
        assert list(params.values()) == params.tensors()

    def test_same_seed_bit_identical(self, small_config):
        a = init_params(small_config, 5)
        b = init_params(small_config, 5)
        for name in a.names():
            assert (a[name].data == b[name].data).all()

    def test_different_seed_differs(self, small_config):
        a = init_params(small_config, 5)
        b = init_params(small_config, 6)
        assert (a["conv1_w"].data != b["conv1_w"].data).any()

    def test_forget_gate_bias_plus_one(self, small_config):
        params = init_params(small_config, 0)
        assert (params["lstm_bf"].data == 1.0).all()

    def test_other_biases_zero(self, small_config):
        params = init_params(small_config, 0)
        assert (params["conv1_b"].data == 0.0).all()
        assert (params["gru_bz"].data == 0.0).all()

    def test_shapes_match_config(self, small_config):
        params = init_params(small_config, 0)
        for name, shape in param_shapes(small_config).items():
            assert params[name].data.shape == shape

    def test_bound_respected(self, small_config):
        # The half-widths documented in nets._init_bound, written out here
        # so that a change to either side shows up as a disagreement.
        def documented_bound(name, shape):
            if name == "embed":
                return 1.0
            if len(shape) == 4:  # conv: relu gain over k*k*c_in
                return math.sqrt(6.0 / (shape[1] * shape[2] * shape[3]))
            if name == "trunk_w":
                return math.sqrt(6.0 / shape[1])
            if name == "policy_w":
                return 0.01 / math.sqrt(shape[1])
            if name == "value_w":
                return 1.0 / math.sqrt(shape[1])
            if (name.startswith(("gru_w", "lstm_w"))
                    or name in ("att_w", "had_w", "cat_w")):
                return math.sqrt(3.0 / shape[1])
            raise AssertionError(f"no documented bound for {name}")

        # small_config has no att_w, had_w or cat_w; these variants do
        configs = [
            small_config,
            dataclasses.replace(small_config, application="hadamard_fc",
                                forget_gate_sees_input=False),
            dataclasses.replace(small_config,
                                attention_source="static_instruction"),
            dataclasses.replace(small_config, attention_source="current_frame"),
            dataclasses.replace(small_config, fusion="concat"),
        ]
        checked = set()
        for config in configs:
            params = init_params(config, 0)
            for name, tensor in params.items():
                if tensor.data.ndim == 1:  # a bias, drawn as zeros
                    continue
                w = tensor.data
                bound = documented_bound(name, w.shape)
                peak = np.abs(w).max()
                assert peak <= bound, (name, peak, bound)
                # from below too: a regression to a smaller init (trunk_w at
                # 1/sqrt(fan_in) is 0.41 of its bound) must not pass
                if w.size >= 16:
                    assert peak >= 0.5 * bound, (name, peak, bound)
                checked.add(name)
        assert {"embed", "conv1_w", "gru_wz", "lstm_wf", "att_w", "had_w",
                "cat_w", "trunk_w", "policy_w", "value_w"} <= checked

    @pytest.mark.parametrize("scale", ["desk", "paper"])
    def test_initial_policy_near_uniform(self, corpus, vocab, scale):
        # The fused state is far from unit-scale on rendered frames, so this
        # pins the policy head's job: no action above probability 0.5 at init.
        config = (ModelConfig(vocab=vocab) if scale == "desk"
                  else paper_config(vocab))
        for seed in range(3):
            params = init_params(config, seed)
            for k, ins in enumerate(corpus.train[:6]):
                state, obs = gridnav.reset(
                    k, "easy", ins, render_hw=(config.render_h, config.render_w))
                g = Graph()
                x_l = encode_instruction(g, params, config, [ins.tokens])
                att = initial_attention_state(config)
                for _ in range(3):
                    out = model_step(g, params, config, x_l, one(obs.image),
                                     att)
                    assert out.probs.data.max() < 0.5, (seed, ins.text)
                    att = out.next_attention_state
                    state, _, done = gridnav.advance(state, "move_forward")
                    if done:
                        break
                    obs = gridnav.render(state)


class TestEncodeImage:
    def test_zero_image_zero_features(self, small_config):
        params = init_params(small_config, 1)
        g = Graph()
        out = encode_image(g, params, small_config,
                           Tensor(np.zeros((1, 3, 27, 36))))
        assert out.shape == (1, 8, 1, 2)
        assert (out.data == 0.0).all()

    def test_paper_output_shape(self, vocab):
        config = paper_config(vocab)
        params = init_params(config, 0)
        g = Graph()
        out = encode_image(g, params, config,
                           Tensor(np.random.default_rng(0)
                                  .uniform(0, 1, (1, 3, 156, 300))))
        assert out.shape == (1, 64, 8, 17)

    def test_shape_mismatch_rejected(self, small_config):
        params = init_params(small_config, 1)
        with pytest.raises(ValueError):
            encode_image(Graph(), params, small_config,
                         Tensor(np.zeros((1, 3, 48, 64))))

    def test_first_layer_kernel_gradient(self, small_config):
        params = init_params(small_config, 2)
        image = Tensor(np.random.default_rng(3).uniform(0, 1, (1, 3, 27, 36)))

        def loss_value():
            g = Graph()
            return g.sum_all(g.tanh(g.reshape(
                encode_image(g, params, small_config, image), (-1,)))).item()

        g = Graph()
        loss = g.sum_all(g.tanh(g.reshape(
            encode_image(g, params, small_config, image), (-1,))))
        params.zero_grads()
        g.backward(loss)
        w = params["conv1_w"]
        flat = w.data.reshape(-1)
        grads = w.grad.reshape(-1)
        rng = np.random.default_rng(0)
        for idx in rng.choice(flat.size, size=8, replace=False):
            orig = flat[idx]
            flat[idx] = orig + 1e-5
            fp = loss_value()
            flat[idx] = orig - 1e-5
            fm = loss_value()
            flat[idx] = orig
            fd = (fp - fm) / 2e-5
            assert abs(grads[idx] - fd) / max(abs(fd), abs(grads[idx]), 1e-3) < 1e-4


class TestEncodeInstruction:
    def test_output_length(self, small_config):
        params = init_params(small_config, 0)
        out = encode_instruction(Graph(), params, small_config,
                                 [("go", "to", "the", "red", "pillar")])
        assert out.shape == (1, small_config.l)

    def test_zero_weights_zero_vector(self, small_config):
        params = init_params(small_config, 0)
        for name in params.names():
            if name.startswith("gru") or name == "embed":
                params[name].data[...] = 0.0
        out = encode_instruction(Graph(), params, small_config, [("go", "to")])
        assert (out.data == 0.0).all()

    def test_empty_sequence_rejected(self, small_config):
        params = init_params(small_config, 0)
        with pytest.raises(ValueError):
            encode_instruction(Graph(), params, small_config, ())
        with pytest.raises(ValueError):
            encode_instruction(Graph(), params, small_config, [("go",), ()])

    def test_unknown_token_maps_to_unk(self, small_config):
        ids = token_ids(small_config, ("go", "xyzzy"))
        assert ids[1] == 0
        params = init_params(small_config, 1)
        out = encode_instruction(Graph(), params, small_config,
                                 [("go", "xyzzy")])
        assert np.isfinite(out.data).all()

    def test_matches_scalar_oracle(self, vocab):
        config = ModelConfig(vocab=vocab, d=8, l=2, embed_dim=2, hidden=4,
                             render_h=27, render_w=36,
                             conv_specs=((4, 5, 3), (6, 4, 2), (8, 3, 1)))
        rng = np.random.default_rng(9)
        params = init_params(config, 9)
        tokens = ("go", "to", "the", "red", "pillar")
        ids = token_ids(config, tokens)
        xs = [params["embed"].data[i].tolist() for i in ids]
        expected = gru_scalar_oracle(
            params["gru_wz"].data.tolist(), params["gru_bz"].data.tolist(),
            params["gru_wr"].data.tolist(), params["gru_br"].data.tolist(),
            params["gru_wh"].data.tolist(), params["gru_bh"].data.tolist(),
            xs)
        out = encode_instruction(Graph(), params, config, [tokens])
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_repeated_token_changes_encoding(self, vocab):
        config = ModelConfig(vocab=vocab, d=8, l=2, embed_dim=2, hidden=4,
                             render_h=27, render_w=36,
                             conv_specs=((4, 5, 3), (6, 4, 2), (8, 3, 1)))
        params = init_params(config, 4)
        once = encode_instruction(Graph(), params, config, [("pillar",)])
        twice = encode_instruction(Graph(), params, config,
                                   [("pillar", "pillar")])
        assert (once.data != twice.data).any()


def split_after_h(config, x):
    """The fused state and the instruction encoding that a gate input x,
    drawn whole without its h, carries."""
    n = config.state_len
    return Tensor(x.data[:, :n]), Tensor(x.data[:, n:])


class TestAttentionStep:
    def _params(self, config, seed=0):
        return init_params(config, seed)

    def test_pure_carry(self, small_config):
        params = self._params(small_config)
        params["lstm_bf"].data[...] = 500.0  # sigmoid saturates to exactly 1
        params["lstm_b"].data[:8] = -500.0   # and the input gate to exactly 0
        rng = np.random.default_rng(1)
        h, c = (Tensor(rng.uniform(-1, 1, (1, 8))) for _ in range(2))
        x = Tensor(rng.uniform(-1, 1, (1, small_config.lstm_input_len)))
        out = attention_step(Graph(), params, small_config, h, c,
                             *split_after_h(small_config, x))
        np.testing.assert_array_equal(out.data[:, 1], c.data)

    def test_pure_write(self, small_config):
        params = self._params(small_config)
        params["lstm_bf"].data[...] = -500.0
        params["lstm_b"].data[:8] = 500.0
        rng = np.random.default_rng(2)
        h, c = (Tensor(rng.uniform(-1, 1, (1, 8))) for _ in range(2))
        x = Tensor(rng.uniform(-1, 1, (1, small_config.lstm_input_len)))
        g = Graph()
        out = attention_step(g, params, small_config, h, c,
                             *split_after_h(small_config, x))
        hx = np.concatenate([h.data[0], x.data[0]])
        cbar = np.tanh(params["lstm_w"].data[8:16] @ hx
                       + params["lstm_b"].data[8:16])
        np.testing.assert_allclose(out.data[0, 1], cbar, atol=1e-12)

    def test_matches_scalar_oracle(self, vocab):
        config = ModelConfig(vocab=vocab, d=2, l=2, embed_dim=2, hidden=4,
                             render_h=27, render_w=36,
                             conv_specs=((4, 5, 3), (6, 4, 2), (2, 3, 1)))
        rng = np.random.default_rng(5)
        params = init_params(config, 5)
        h, c = (Tensor(rng.uniform(-1, 1, (1, 2))) for _ in range(2))
        x = Tensor(rng.uniform(-1, 1, (1, config.lstm_input_len)))
        out = attention_step(Graph(), params, config, h, c,
                             *split_after_h(config, x))
        weights = tuple(params[n].data.tolist() for n in (
            "lstm_wf", "lstm_bf", "lstm_w", "lstm_b"))
        h_exp, c_exp = lstm_scalar_oracle(
            weights, h.data[0].tolist(), c.data[0].tolist(),
            x.data[0].tolist())
        np.testing.assert_allclose(out.data[0, 0], h_exp, atol=1e-12)
        np.testing.assert_allclose(out.data[0, 1], c_exp, atol=1e-12)

    def test_literal_forget_gate_variant(self, vocab):
        config = ModelConfig(vocab=vocab, d=2, l=2, embed_dim=2, hidden=4,
                             render_h=27, render_w=36,
                             conv_specs=((4, 5, 3), (6, 4, 2), (2, 3, 1)),
                             forget_gate_sees_input=False)
        params = init_params(config, 6)
        assert params["lstm_wf"].data.shape == (2, 2)
        rng = np.random.default_rng(6)
        h, c = (Tensor(rng.uniform(-1, 1, (1, 2))) for _ in range(2))
        x = Tensor(rng.uniform(-1, 1, (1, config.lstm_input_len)))
        out = attention_step(Graph(), params, config, h, c,
                             *split_after_h(config, x))
        weights = tuple(params[n].data.tolist() for n in (
            "lstm_wf", "lstm_bf", "lstm_w", "lstm_b"))
        h_exp, c_exp = lstm_scalar_oracle(
            weights, h.data[0].tolist(), c.data[0].tolist(),
            x.data[0].tolist(), forget_sees_input=False)
        np.testing.assert_allclose(out.data[0, 0], h_exp, atol=1e-12)
        np.testing.assert_allclose(out.data[0, 1], c_exp, atol=1e-12)

    def test_dimension_mismatch(self, small_config):
        params = self._params(small_config)
        prev = initial_attention_state(small_config)
        with pytest.raises(ValueError):
            attention_step(Graph(), params, small_config,
                           Tensor(prev.data[:, 0]), Tensor(prev.data[:, 1]),
                           *split_after_h(small_config,
                                          Tensor(np.zeros((1, 3)))))

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("sees_input", [True, False])
    def test_matches_nested_gate_input(self, vocab, batch, sees_input):
        # one concat of [h, s_t, x_l] equals the nested [h, [s_t, x_l]] to
        # the byte, forward and backward, with s_t also read past the step
        # as the policy reads it
        config = ModelConfig(vocab=vocab, forget_gate_sees_input=sees_input)
        rng = np.random.default_rng(batch)
        draws = [rng.uniform(-1, 1, (batch, n)) for n in
                 (config.d, config.d, config.state_len, config.l)]
        out_w = rng.uniform(-1, 1, (batch, 2, config.d))
        state_w = rng.uniform(-1, 1, (batch, config.state_len))
        names = ("lstm_wf", "lstm_bf", "lstm_w", "lstm_b")

        def run(step):
            params = init_params(config, 23)
            h, c, state, x_l = (Tensor(a.copy(), requires_grad=True)
                                for a in draws)
            g = Graph()
            out = step(g, params, h, c, state, x_l)
            g.backward(g.add(g.sum_all(g.mul(out, Tensor(out_w))),
                             g.sum_all(g.mul(state, Tensor(state_w)))))
            grads = [t.grad for t in (h, c, state, x_l)]
            grads += [params[n].grad for n in names]
            return out.data.tobytes(), [grad.tobytes() for grad in grads]

        def nested(g, params, h, c, state, x_l):
            return g.lstm_cell(g.concat([h, g.concat([state, x_l])]), c,
                               *(params[n] for n in names))

        assert run(lambda g, p, *rest: attention_step(g, p, config, *rest)) \
            == run(nested)


class TestApplyAttention:
    @staticmethod
    def _carried(c):
        # under lstm_cellstate, fuse applies the carried cell state, row 1
        # of the packed (B, 2, d) state; a batch of one
        return Tensor(np.stack([np.zeros(len(c)), c])[None])

    def test_conv1d_one_hot(self, small_config):
        params = init_params(small_config, 1)
        rng = np.random.default_rng(1)
        features = Tensor(rng.uniform(-1, 1, (1, 8, 1, 2)))
        att = np.zeros(8)
        att[3] = 1.0
        _, maps, state, _ = fuse(Graph(), params, small_config,
                                 Tensor(np.zeros((1, 8))), features,
                                 self._carried(att))
        np.testing.assert_allclose(state.data[0],
                                   features.data[0, 3].reshape(-1), atol=1e-14)
        assert maps.shape == (1, 1, 1, 2)

    def test_conv1d_state_length(self, small_config):
        params = init_params(small_config, 1)
        rng = np.random.default_rng(2)
        features = Tensor(rng.uniform(-1, 1, (1, 8, 1, 2)))
        _, _, state, _ = fuse(Graph(), params, small_config,
                              Tensor(np.zeros((1, 8))), features,
                              self._carried(rng.uniform(0, 1, 8)))
        assert state.shape == (1, small_config.state_len)

    def test_hadamard_ones_is_fc_of_features(self, vocab):
        config = ModelConfig(vocab=vocab, d=8, l=8, embed_dim=4, hidden=8,
                             render_h=27, render_w=36,
                             conv_specs=((4, 5, 3), (6, 4, 2), (8, 3, 1)),
                             application="hadamard_fc")
        params = init_params(config, 3)
        rng = np.random.default_rng(3)
        features = Tensor(rng.uniform(-1, 1, (1, 8, 1, 2)))
        _, maps, state, _ = fuse(Graph(), params, config,
                                 Tensor(np.zeros((1, 8))), features,
                                 self._carried(np.ones(8)))
        expected = params["had_w"].data @ features.data.reshape(-1) \
            + params["had_b"].data
        np.testing.assert_allclose(state.data[0], expected, atol=1e-12)
        assert state.shape == (1, config.state_len)
        np.testing.assert_array_equal(maps.data, features.data)

    def test_unknown_application(self, small_config):
        # fuse dispatches on config.application; a derived config is
        # validated again, so an unknown application never reaches it
        with pytest.raises(ValueError):
            dataclasses.replace(small_config, application="bilinear")

    def test_paper_state_length(self, vocab):
        assert paper_config(vocab).state_len == 136


class TestComputeAttention:
    def test_static_identical_across_steps(self, vocab):
        config = ModelConfig(vocab=vocab, d=8, l=8, embed_dim=4, hidden=8,
                             render_h=27, render_w=36,
                             conv_specs=((4, 5, 3), (6, 4, 2), (8, 3, 1)),
                             attention_source="static_instruction")
        params = init_params(config, 7)
        rng = np.random.default_rng(7)
        g = Graph()
        x_l = Tensor(rng.uniform(-1, 1, (1, 8)))
        prev = initial_attention_state(config)
        vectors = []
        for _ in range(5):
            features = Tensor(rng.uniform(-1, 1, (1, 8, 1, 2)))
            att, _, _, prev = fuse(g, params, config, x_l, features, prev)
            vectors.append(att.data.tobytes())
        assert len(set(vectors)) == 1
        att_values = np.frombuffer(vectors[0])
        assert ((att_values > 0) & (att_values < 1)).all()

    def test_cellstate_differs_across_steps(self, small_config):
        params = init_params(small_config, 8)
        rng = np.random.default_rng(8)
        g = Graph()
        x_l = Tensor(rng.uniform(-1, 1, (1, 8)))
        prev = initial_attention_state(small_config)
        vectors = []
        for _ in range(3):
            features = Tensor(rng.uniform(-1, 1, (1, 8, 1, 2)))
            att, _, _, prev = fuse(g, params, small_config, x_l, features,
                                   prev)
            vectors.append(att.data.copy())
        assert (vectors[1] != vectors[2]).any()

    def test_cellstate_two_step_oracle(self, vocab):
        config = ModelConfig(vocab=vocab, d=2, l=2, embed_dim=2, hidden=4,
                             render_h=27, render_w=36,
                             conv_specs=((4, 5, 3), (6, 4, 2), (2, 3, 1)))
        params = init_params(config, 10)
        rng = np.random.default_rng(10)
        g = Graph()
        x_l = rng.uniform(-1, 1, 2)
        feats = [rng.uniform(-1, 1, (2, 1, 2)) for _ in range(2)]
        weights = tuple(params[n].data.tolist() for n in (
            "lstm_wf", "lstm_bf", "lstm_w", "lstm_b"))

        h, c = [0.0, 0.0], [1.0, 1.0]
        prev = initial_attention_state(config)
        for t in range(2):
            att, _, _, prev = fuse(g, params, config, Tensor(x_l[None]),
                                   Tensor(feats[t][None]), prev)
            np.testing.assert_allclose(att.data[0], c, atol=1e-12)
            # oracle: apply current attention, then update the cell
            state = [sum(c[k] * feats[t][k, i, j] for k in range(2))
                     for i in range(1) for j in range(2)]
            x_t = state + list(x_l)
            h, c = lstm_scalar_oracle(weights, h, c, x_t)
        np.testing.assert_allclose(prev.data[0, 1], c, atol=1e-12)

    def test_lstm_output_source_uses_h(self, small_config):
        params = init_params(small_config, 11)
        rng = np.random.default_rng(11)
        config = ModelConfig(**{**small_config.__dict__,
                                "attention_source": "lstm_output"})
        g = Graph()
        x_l = Tensor(rng.uniform(-1, 1, (1, 8)))
        features = Tensor(rng.uniform(-1, 1, (1, 8, 1, 2)))
        prev = initial_attention_state(config)
        att, _, _, new = fuse(g, params, config, x_l, features, prev)
        np.testing.assert_array_equal(att.data, prev.data[:, 0])
        assert new is not prev

    def test_missing_prev_state_rejected(self, small_config):
        params = init_params(small_config, 0)
        with pytest.raises(ValueError):
            fuse(Graph(), params, small_config, Tensor(np.zeros((1, 8))),
                 Tensor(np.zeros((1, 8, 1, 2))), None)


class TestConcatFusion:
    def _config(self, vocab):
        return ModelConfig(vocab=vocab, d=8, l=8, embed_dim=4, hidden=8,
                           render_h=27, render_w=36,
                           conv_specs=((4, 5, 3), (6, 4, 2), (8, 3, 1)),
                           fusion="concat")

    @staticmethod
    def _state(g, params, config, x_l, features):
        att, maps, state, prev = fuse(g, params, config, x_l, features, None)
        assert att is None and maps is None and prev is None
        return state

    def test_zero_inputs_zero_state(self, vocab):
        config = self._config(vocab)
        params = init_params(config, 0)
        params["cat_b"].data[...] = 0.0
        out = self._state(Graph(), params, config, Tensor(np.zeros((1, 8))),
                          Tensor(np.zeros((1, 8, 1, 2))))
        assert (out.data == 0.0).all()

    def test_output_length_matches_conv1d_state(self, vocab):
        config = self._config(vocab)
        params = init_params(config, 1)
        rng = np.random.default_rng(1)
        out = self._state(Graph(), params, config,
                          Tensor(rng.uniform(-1, 1, (1, 8))),
                          Tensor(rng.uniform(-1, 1, (1, 8, 1, 2))))
        assert out.shape == (1, config.state_len)

    def test_fc_gradient(self, vocab):
        config = self._config(vocab)
        params = init_params(config, 2)
        rng = np.random.default_rng(2)
        x_l = Tensor(rng.uniform(-1, 1, (1, 8)))
        features = Tensor(rng.uniform(-1, 1, (1, 8, 1, 2)))

        def loss_value():
            g = Graph()
            return g.sum_all(
                self._state(g, params, config, x_l, features)).item()

        g = Graph()
        params.zero_grads()
        g.backward(g.sum_all(self._state(g, params, config, x_l, features)))
        w = params["cat_w"]
        flat = w.data.reshape(-1)
        grads = w.grad.reshape(-1)
        for idx in np.random.default_rng(0).choice(flat.size, 6, replace=False):
            orig = flat[idx]
            flat[idx] = orig + 1e-5
            fp = loss_value()
            flat[idx] = orig - 1e-5
            fm = loss_value()
            flat[idx] = orig
            fd = (fp - fm) / 2e-5
            assert abs(grads[idx] - fd) / max(abs(fd), abs(grads[idx]), 1e-3) < 1e-4


class TestPolicyHeads:
    def test_zero_weights_uniform_and_zero_value(self, small_config):
        params = init_params(small_config, 0)
        for name in ("trunk_w", "trunk_b", "policy_w", "policy_b",
                     "value_w", "value_b"):
            params[name].data[...] = 0.0
        probs, value = policy_forward(
            Graph(), params, Tensor(np.ones((1, small_config.state_len))))
        np.testing.assert_allclose(probs.data, [[1 / 3] * 3], atol=1e-15)
        assert value.item() == 0.0

    def test_probs_sum_to_one(self, small_config):
        params = init_params(small_config, 3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            probs, _ = policy_forward(
                Graph(), params,
                Tensor(rng.uniform(-2, 2, (1, small_config.state_len))))
            assert abs(probs.data.sum() - 1.0) < 1e-9

    def test_value_head_gradient(self, small_config):
        params = init_params(small_config, 4)
        rng = np.random.default_rng(4)
        state = Tensor(rng.uniform(-1, 1, (1, small_config.state_len)))

        def value_of():
            g = Graph()
            _, v = policy_forward(g, params, state)
            return v

        g = Graph()
        _, v = policy_forward(g, params, state)
        params.zero_grads()
        g.backward(v)
        w = params["value_w"]
        flat = w.data.reshape(-1)
        grads = w.grad.reshape(-1)
        for idx in range(min(6, flat.size)):
            orig = flat[idx]
            flat[idx] = orig + 1e-5
            fp = value_of().item()
            flat[idx] = orig - 1e-5
            fm = value_of().item()
            flat[idx] = orig
            fd = (fp - fm) / 2e-5
            assert abs(grads[idx] - fd) / max(abs(fd), abs(grads[idx]), 1e-3) < 1e-4


class TestParameterCounts:
    def test_conv1d_strictly_fewer_than_hadamard(self, vocab):
        base = dict(vocab=vocab, d=16, l=64, embed_dim=16, hidden=64,
                    render_h=48, render_w=64,
                    conv_specs=((8, 4, 4), (12, 3, 2), (16, 2, 1)))
        conv = ModelConfig(**base, application="conv1d")
        had = ModelConfig(**base, application="hadamard_fc")
        assert count_report(conv)["total"] < count_report(had)["total"]
        assert count_report(conv)["fusion_stage"] == 0
        assert count_report(had)["fusion_stage"] > 0

    def test_total_is_sum_of_shapes(self, small_config):
        params = init_params(small_config, 0)
        total = sum(t.data.size for t in params.tensors())
        assert total == count_report(small_config)["total"]


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, small_config, tmp_path):
        params = init_params(small_config, 12)
        path = tmp_path / "model.bin"
        save_params(path, params, small_config)
        loaded = load_params(path, small_config)
        for name in params.names():
            assert (loaded[name].data == params[name].data).all()

    def test_manifest_written(self, small_config, tmp_path):
        params = init_params(small_config, 0)
        path = tmp_path / "model.bin"
        save_params(path, params, small_config)
        manifest = (tmp_path / "model.bin.manifest.txt").read_text()
        lines = manifest.strip().splitlines()
        assert len(lines) == len(params.names())
        assert lines[0].split()[0] == "conv1_w"

    def test_digest_mismatch_rejected(self, small_config, vocab, tmp_path):
        params = init_params(small_config, 0)
        path = tmp_path / "model.bin"
        save_params(path, params, small_config)
        other = ModelConfig(**{**small_config.__dict__, "hidden": 16})
        with pytest.raises(ValueError):
            load_params(path, other)

    def test_old_version_rejected(self, small_config, tmp_path):
        # version 1 stored the input, candidate and output gates of the
        # attention LSTM as three tensors each, not stacked
        path = tmp_path / "model.bin"
        save_params(path, init_params(small_config, 0), small_config)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError,
                           match="unsupported checkpoint version 1"):
            load_params(path, small_config)

    def test_not_a_checkpoint_rejected(self, small_config, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError):
            load_params(path, small_config)

    # 8: after the magic; 10: inside the version; 14: inside the digest
    # length; 40: inside the digest; 83: inside the first tensor
    @pytest.mark.parametrize("cut", [8, 10, 14, 40, 83, -1])
    def test_truncated_file_rejected(self, small_config, tmp_path, cut):
        path = tmp_path / "model.bin"
        save_params(path, init_params(small_config, 0), small_config)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError) as excinfo:
            load_params(path, small_config)
        # the test's own path contains "truncated", so match the whole prefix
        assert str(excinfo.value).startswith(f"{path}: truncated ")

    def test_digest_pinned(self, vocab):
        # checkpoints store this digest; a change to it orphans them
        assert config_digest(ModelConfig(vocab=vocab)) == (
            "5ea5e9132092232957da83d27fc72c59b89ac58b81b8d0fe2979f1ce86a9a9a6")

    def test_digest_stable(self, small_config):
        assert config_digest(small_config) == config_digest(small_config)
        other = ModelConfig(**{**small_config.__dict__, "d": 4,
                               "conv_specs": ((4, 5, 3), (6, 4, 2), (4, 3, 1))})
        assert config_digest(other) != config_digest(small_config)


class TestModelStep:
    def test_recurrent_carry_with_saturated_gates(self, small_config, corpus):
        params = init_params(small_config, 13)
        params["lstm_bf"].data[...] = 500.0
        params["lstm_b"].data[:small_config.d] = -500.0
        ins = corpus.train[0]
        state, obs = gridnav.reset(0, "easy", ins, render_hw=(27, 36))
        g = Graph()
        x_l = encode_instruction(g, params, small_config, [ins.tokens])
        att = initial_attention_state(small_config)
        c0 = att.data[:, 1].copy()
        for t in range(4):
            out = model_step(g, params, small_config, x_l, one(obs.image), att)
            att = out.next_attention_state
            np.testing.assert_array_equal(att.data[:, 1], c0)
            state, _, _ = gridnav.advance(state, "turn_left")
            obs = gridnav.render(state)

    def test_attended_maps_exposed(self, small_config, corpus):
        params = init_params(small_config, 14)
        ins = corpus.train[1]
        _, obs = gridnav.reset(1, "easy", ins, render_hw=(27, 36))
        g = Graph()
        x_l = encode_instruction(g, params, small_config, [ins.tokens])
        out = model_step(g, params, small_config, x_l, one(obs.image),
                         initial_attention_state(small_config))
        assert out.attended.shape == (1, 1, 1, 2)
        assert out.probs.shape == (1, 3)
        assert out.value.shape == (1,)

    def test_concat_fusion_path(self, vocab, corpus):
        config = ModelConfig(vocab=vocab, d=8, l=8, embed_dim=4, hidden=8,
                             render_h=27, render_w=36,
                             conv_specs=((4, 5, 3), (6, 4, 2), (8, 3, 1)),
                             fusion="concat")
        params = init_params(config, 15)
        ins = corpus.train[2]
        _, obs = gridnav.reset(2, "easy", ins, render_hw=(27, 36))
        g = Graph()
        x_l = encode_instruction(g, params, config, [ins.tokens])
        out = model_step(g, params, config, x_l, one(obs.image), None)
        assert out.attended is None
        assert out.next_attention_state is None
        assert out.probs.shape == (1, config.action_count)

    @pytest.mark.parametrize("application", nets.APPLICATIONS)
    def test_lstm_output_first_frame_sees_the_image(self, vocab, corpus,
                                                     application):
        # a zero h_0 would zero the first frame's attended maps, so two
        # different frames would give bit-identical action probabilities
        config = ModelConfig(vocab=vocab, attention_source="lstm_output",
                             application=application)
        params = init_params(config, 0)
        ins = corpus.train[0]
        hw = (config.render_h, config.render_w)
        images = [gridnav.reset(seed, "hard", ins, render_hw=hw)[1].image
                  for seed in (1, 2)]
        assert not np.array_equal(images[0].data, images[1].data)
        probs = []
        for image in images:
            g = Graph()
            x_l = encode_instruction(g, params, config, [ins.tokens])
            probs.append(model_step(g, params, config, x_l, one(image),
                                    initial_attention_state(config)).probs.data)
        assert not np.array_equal(probs[0], probs[1])

    @pytest.mark.parametrize("scale", ["desk", "paper"])
    def test_bench_entry_shapes_are_a_batch_of_one(self, vocab, corpus, scale):
        # bench/run.py's warm-up passes one flat token sequence and one
        # (3, H, W) image: the same bytes as the explicit batch of one,
        # forward and backward
        config = (ModelConfig(vocab=vocab) if scale == "desk"
                  else paper_config(vocab))
        params = init_params(config, 0)
        ins = corpus.train[0]
        _, obs = gridnav.reset(3, "easy", ins,
                               render_hw=(config.render_h, config.render_w))
        runs = []
        for tokens, image in ((ins.tokens, obs.image),
                              ([ins.tokens], one(obs.image))):
            g = Graph()
            x_l = encode_instruction(g, params, config, tokens)
            out = model_step(g, params, config, x_l, image,
                             initial_attention_state(config))
            params.zero_grads()
            g.backward(out.value)
            runs.append([out.probs.data, out.value.data]
                        + [t.grad for t in params.tensors()])
        flat, batch = runs
        assert flat[0].shape == (1, config.action_count)
        assert flat[1].shape == (1,)
        for got, want in zip(flat, batch):
            # the value does not reach the policy head: no gradient in both
            assert (got is None) == (want is None)
            if got is not None:
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestAttentionStateLayout:
    @pytest.mark.parametrize("source", ["lstm_cellstate", "lstm_output"])
    def test_next_state_is_the_lstm_cell_output(self, vocab, corpus, source):
        # the carried state is the (B, 2, d) tensor lstm_cell emits, h over
        # C, and unpacking it costs a recurrent frame no extra node
        config = ModelConfig(vocab=vocab, attention_source=source)
        params = init_params(config, 19)
        hw = (config.render_h, config.render_w)
        images = Tensor(np.stack([
            gridnav.reset(k, "easy", corpus.train[k], render_hw=hw)[1]
            .image.data for k in (0, 1)]))
        prev = initial_attention_state(config, 2)
        assert prev.shape == (2, 2, config.d)
        assert (prev.data[:, 0] == float(source == "lstm_output")).all()
        assert (prev.data[:, 1] == 1.0).all()
        for _ in range(2):  # the first frame, then a recurrent one
            g = Graph()
            out = model_step(g, params, config,
                             Tensor(np.zeros((2, config.l))), images,
                             Tensor(prev.data))
            cells = [node for node in g.nodes if node.op == "lstm_cell"]
            assert len(cells) == 1
            assert out.next_attention_state is cells[0].output
            assert out.next_attention_state.shape == (2, 2, config.d)
            assert len(g.nodes) == 21
            prev = out.next_attention_state


class TestTapeBudget:
    """Nodes one forward of a batch of one records at ModelConfig defaults.
    Each affine layer is a single matvec node with its bias inside and the
    attention LSTM is one lstm_cell node, so a new node here is a per-frame
    interpreter cost in every desk-scale run."""

    def test_model_step_nodes(self, vocab, corpus):
        config = ModelConfig(vocab=vocab)
        params = init_params(config, 16)
        _, obs = gridnav.reset(3, "easy", corpus.train[3],
                               render_hw=(config.render_h, config.render_w))
        g = Graph()
        model_step(g, params, config, Tensor(np.zeros((1, config.l))),
                   one(obs.image), initial_attention_state(config))
        assert len(g.nodes) == 21

    def test_attention_step_nodes(self, vocab):
        config = ModelConfig(vocab=vocab)
        params = init_params(config, 18)
        g = Graph()
        h, c = Tensor(np.zeros((1, config.d))), Tensor(np.ones((1, config.d)))
        x = Tensor(np.zeros((1, config.lstm_input_len)))
        attention_step(g, params, config, h, c,
                       *split_after_h(config, x))
        assert [node.op for node in g.nodes] == ["concat", "lstm_cell"]

    def test_encode_instruction_nodes(self, vocab):
        config = ModelConfig(vocab=vocab)
        params = init_params(config, 17)
        tokens = ("go", "to", "the", "tall", "green", "pillar")
        g = Graph()
        encode_instruction(g, params, config, [tokens])
        assert len(g.nodes) == 90
