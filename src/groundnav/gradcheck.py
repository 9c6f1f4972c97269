"""Central finite-difference verification of the autodiff engine.

Every op kind in ``autodiff.OP_KINDS`` gets randomized small cases checked
against a two-sided difference quotient. A case is the op's operand arrays,
drawn by its ``DRAWS`` entry, and the scalar loss ``sum(w * op(operands))``,
whose weights ``w ~ N(0, 1)`` are drawn from the same generator in the shape
of the op's output, so every output entry reaches the loss with its own
weight. Every operand entry is checked.

End to end, the instruction encoder and ``nets.model_step`` (the forward
pass training uses) run over three rendered frames with the attention state
carried between them, and a handful of randomly chosen entries per parameter
tensor are checked; every tensor, the GRU and the attention LSTM included,
gets a nonzero gradient. The CLI surfaces this as ``gradcheck``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import gridnav, nets
from .a3c import policy_entropy
from .autodiff import OP_KINDS, Graph, Tensor

STEP = 1e-5
OP_TOL = 1e-4
END_TO_END_TOL = 1e-3
END_TO_END_SAMPLES = 3
# Three frames: under lstm_cellstate the output gate first reaches the loss
# through the attention applied at frame 3 (h_1 -> C_2 -> frame 3).
END_TO_END_ACTIONS = ("turn_left", "turn_left", "move_forward")


def relative_error(a: float, f: float) -> float:
    return abs(a - f) / max(abs(a), abs(f), 1e-3)


def _worst_error(tensors, loss: Callable[[], tuple[Graph, Tensor]],
                 entries) -> float:
    """Max relative error between one backward of ``loss()`` and central
    differences at each tensor's chosen flat ``entries``."""
    g, out = loss()
    g.backward(out)
    worst = 0.0
    for tensor, chosen in zip(tensors, entries):
        analytic = tensor.grad if tensor.grad is not None \
            else np.zeros_like(tensor.data)
        analytic = analytic.reshape(-1)
        flat = tensor.data.reshape(-1)
        for idx in chosen:
            orig = flat[idx]
            flat[idx] = orig + STEP
            f_plus = loss()[1].item()
            flat[idx] = orig - STEP
            f_minus = loss()[1].item()
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * STEP)
            worst = max(worst, relative_error(analytic[idx], fd))
    return worst


# --------------------------------------------------------------------------
# Randomized cases per op: DRAWS[op](rng) -> (operand arrays, call(g, tensors))
# --------------------------------------------------------------------------

def _shape(rng, ndim_max=3):
    ndim = int(rng.integers(1, ndim_max + 1))
    return tuple(int(rng.integers(1, 5)) for _ in range(ndim))


def _same_shape(op: str, count=1, low=-2.0, high=2.0, kink=None):
    """Draw ``count`` operands of one random shape for an elementwise op,
    each entry moved 0.2 away if it lies within 0.1 of the op's ``kink``."""
    def draw(rng):
        shape = _shape(rng)
        arrays = [rng.uniform(low, high, size=shape) for _ in range(count)]
        if kink is not None:
            arrays = [np.where(np.abs(x - kink) < 0.1,
                               x + 0.2 * np.sign(x - kink + 1e-12), x)
                      for x in arrays]
        return arrays, lambda g, t: getattr(g, op)(*t)
    return draw


def _channelwise(op: str, max_channels=4):
    """Draw a (c, h, w) map and a length-c vector for a per-channel op."""
    def draw(rng):
        c = int(rng.integers(1, max_channels + 1))
        h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        arrays = [rng.uniform(-1, 1, size=(c, h, w)),
                  rng.uniform(-1, 1, size=(c,))]
        return arrays, lambda g, t: getattr(g, op)(*t)
    return draw


def _draw_scale(rng):
    x = rng.uniform(-2, 2, size=_shape(rng))
    alpha = float(rng.uniform(0.3, 2.5)) * (1 if rng.random() < 0.5 else -1)
    return [x], lambda g, t: g.scale(t[0], alpha)


def _draw_shift(rng):
    x = rng.uniform(-2, 2, size=_shape(rng))
    beta = float(rng.uniform(-2, 2))
    return [x], lambda g, t: g.shift(t[0], beta)


def _draw_matvec(rng):
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    arrays = [rng.uniform(-1, 1, size=(m, n)), rng.uniform(-1, 1, size=(n,)),
              rng.uniform(-1, 1, size=(m,))]
    return arrays, lambda g, t: g.matvec(*t)


def _draw_lstm_cell(rng):
    """Gate input of d + n entries, the forget gate reading the first d
    (the previous h) or all of them."""
    d, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    nf = d if rng.random() < 0.5 else d + n
    arrays = [rng.uniform(-1, 1, size=(d + n,)), rng.uniform(-1, 1, size=(d,))]
    for cols in (nf, d + n, d + n, d + n):
        arrays += [rng.uniform(-1, 1, size=(d, cols)),
                   rng.uniform(-1, 1, size=(d,))]
    return arrays, lambda g, t: g.lstm_cell(*t)


def _draw_conv2d(rng):
    c_in = int(rng.integers(1, 3))
    c_out = int(rng.integers(1, 3))
    k = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    h = k + int(rng.integers(0, 4))
    w = k + int(rng.integers(0, 4))
    arrays = [rng.uniform(-1, 1, size=(c_in, h, w)),
              rng.uniform(-1, 1, size=(c_out, c_in, k, k))]
    return arrays, lambda g, t: g.conv2d(*t, stride=stride)


def _draw_softmax(rng):
    x = rng.uniform(-3, 3, size=(int(rng.integers(1, 7)),))
    return [x], lambda g, t: g.softmax(t[0])


def _draw_concat(rng):
    parts = [rng.uniform(-1, 1, size=(int(rng.integers(1, 5)),))
             for _ in range(int(rng.integers(2, 4)))]
    return parts, lambda g, t: g.concat(t)


def _draw_reshape(rng):
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    x = rng.uniform(-1, 1, size=(m, n))
    return [x], lambda g, t: g.reshape(t[0], (m * n,))


def _draw_pick(rng):
    n = int(rng.integers(2, 7))
    x = rng.uniform(-1, 1, size=(n,))
    i = int(rng.integers(n))
    return [x], lambda g, t: g.pick(t[0], i)


def _draw_row(rng):
    m, n = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    x = rng.uniform(-1, 1, size=(m, n))
    i = int(rng.integers(m))
    return [x], lambda g, t: g.row(t[0], i)


DRAWS: dict[str, Callable] = {
    "sigmoid": _same_shape("sigmoid"),
    "tanh": _same_shape("tanh"),
    "relu": _same_shape("relu", kink=0.0),
    "log": _same_shape("log", low=0.2, high=3.0),
    "add": _same_shape("add", count=2),
    "mul": _same_shape("mul", count=2),
    "scale": _draw_scale,
    "shift": _draw_shift,
    "matvec": _draw_matvec,
    "lstm_cell": _draw_lstm_cell,
    "conv2d": _draw_conv2d,
    "conv1d_channels": _channelwise("conv1d_channels", max_channels=5),
    "bias_add_channels": _channelwise("bias_add_channels"),
    "mul_channels": _channelwise("mul_channels"),
    "softmax": _draw_softmax,
    "concat": _draw_concat,
    "reshape": _draw_reshape,
    "sum_all": _same_shape("sum_all", low=-1.0, high=1.0),
    "pick": _draw_pick,
    "row": _draw_row,
}

assert set(DRAWS) == set(OP_KINDS), "op registry out of sync"


def case(op: str, rng) -> tuple[list[np.ndarray], Callable]:
    """One random case of ``op``: its operand arrays and ``build(g, tensors)``,
    the loss ``sum(w * op(tensors))`` recorded on ``g``."""
    arrays, call = DRAWS[op](rng)
    dry = call(Graph(), [Tensor(a) for a in arrays])
    w = Tensor(rng.standard_normal(dry.shape))

    def build(g, tensors):
        return g.sum_all(g.mul(call(g, tensors), w))

    return arrays, build


def check_op(op: str, seed: int = 0, cases: int = 100) -> float:
    """Worst relative error of ``op`` over ``cases`` random cases, every
    operand entry checked."""
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _op_tag(op)]))
    worst = 0.0
    for _ in range(cases):
        arrays, build = case(op, rng)
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]

        def loss():
            g = Graph()
            return g, build(g, leaves)

        worst = max(worst, _worst_error(
            leaves, loss, [range(a.size) for a in arrays]))
    return worst


def _op_tag(op: str) -> int:
    return int.from_bytes(op.encode(), "little") % (2 ** 31)


# --------------------------------------------------------------------------
# End-to-end model pass
# --------------------------------------------------------------------------

def _tiny_model(seed: int):
    """A small model, an instruction, and the frames of a fixed walk."""
    corpus = gridnav.build_corpus(0)
    vocab = nets.build_vocab(corpus.train + corpus.test)
    mconf = nets.ModelConfig(
        vocab=vocab, d=8, l=8, embed_dim=4, hidden=8,
        render_h=27, render_w=36,
        conv_specs=((4, 5, 3), (6, 4, 2), (8, 3, 1)))
    params = nets.init_params(mconf, seed)
    instruction = corpus.train[0]
    state, obs = gridnav.reset(seed, "easy", instruction, render_hw=(27, 36))
    images = [obs.image]
    for action in END_TO_END_ACTIONS[:-1]:
        state, _, _ = gridnav.advance(state, action)
        images.append(gridnav.render(state).image)
    return mconf, params, instruction, images


def _rollout_loss(mconf, params, instruction, images) -> tuple[Graph, Tensor]:
    """The graph and the loss sum_t log p(a_t) + V_t + H_t through
    ``model_step``, the forward pass that trains, with the attention state
    carried across frames.

    Not the A3C loss: its advantage is a constant taken from the values, so
    central differences would see a different function than backward does.
    """
    g = Graph()
    x_l = nets.encode_instruction(g, params, mconf, instruction.tokens)
    att = nets.initial_attention_state(mconf)
    loss = None
    for image, action in zip(images, END_TO_END_ACTIONS):
        out = nets.model_step(g, params, mconf, x_l, image, att)
        log_p = g.log(g.pick(out.probs, gridnav.ACTIONS.index(action)))
        term = g.add(g.add(log_p, out.value), policy_entropy(g, out.probs))
        loss = term if loss is None else g.add(loss, term)
        att = out.next_attention_state
    return g, loss


def check_end_to_end(seed: int = 0) -> float:
    """Worst relative error over ``END_TO_END_SAMPLES`` random entries of
    every parameter tensor."""
    model = _tiny_model(seed)
    tensors = model[1].tensors()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE2E]))
    entries = [rng.choice(t.size, min(END_TO_END_SAMPLES, t.size),
                          replace=False) for t in tensors]
    return _worst_error(tensors, lambda: _rollout_loss(*model), entries)
