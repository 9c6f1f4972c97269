"""Central finite-difference verification of the autodiff engine.

Every op kind in ``autodiff.OP_KINDS`` gets randomized small cases checked
against a two-sided difference quotient. A case is the op's operand arrays,
drawn by its ``DRAWS`` entry with or without a leading batch axis of 1 to 3
rows, and the scalar loss ``sum(w * op(operands))``, whose weights
``w ~ N(0, 1)`` are drawn from the same generator in the shape of the op's
output, so every output entry reaches the loss with its own weight. Every
operand entry is checked.

End to end, the instruction encoder and ``nets.model_step`` (the forward
pass training uses) run a batch of two environments over three rendered
frames with the attention state carried between them; at the last frame the
second environment starts a new episode, so its instruction encoding and
attention state rows are reset as a lockstep rollout resets them. A handful
of randomly chosen entries per parameter tensor are checked; every tensor,
the GRU and the attention LSTM included, gets a nonzero gradient. The CLI
surfaces this as ``gradcheck``.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from . import gridnav, nets
from .a3c import policy_entropy, start_episodes
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
# Randomized cases per op: DRAWS[op](rng, batch) -> (arrays, batched, call)
#
# ``batch`` is None or a row count. ``batched`` flags the arrays that then
# carry the leading batch axis; the others (weights, biases, kernels) are
# shared by the rows. ``call(g, tensors, row=None)`` records the op; an
# unbatched call on row ``row``'s operands passes that row's own constant or
# index, so a batched call can be compared with its rows.
# --------------------------------------------------------------------------

def _lead(batch: Optional[int]) -> tuple:
    return () if batch is None else (batch,)


def _shape(rng, ndim_max=3):
    ndim = int(rng.integers(1, ndim_max + 1))
    return tuple(int(rng.integers(1, 5)) for _ in range(ndim))


def _same_shape(op: str, count=1, low=-2.0, high=2.0, kink=None):
    """Draw ``count`` operands of one random shape for an elementwise op,
    each entry moved 0.2 away if it lies within 0.1 of the op's ``kink``."""
    def draw(rng, batch):
        shape = _lead(batch) + _shape(rng)
        arrays = [rng.uniform(low, high, size=shape) for _ in range(count)]
        if kink is not None:
            arrays = [np.where(np.abs(x - kink) < 0.1,
                               x + 0.2 * np.sign(x - kink + 1e-12), x)
                      for x in arrays]
        return arrays, (True,) * count, \
            lambda g, t, row=None: getattr(g, op)(*t)
    return draw


def _draw_sum_all(rng, batch):
    x = rng.uniform(-1.0, 1.0, size=_lead(batch) + _shape(rng))
    return [x], (True,), lambda g, t, row=None: g.sum_all(
        t[0], batched=batch is not None and row is None)


def _channelwise(op: str, max_channels=4, vector_batched=True):
    """Draw a (c, h, w) map and a length-c vector for a per-channel op; the
    vector is per row of a batch, or shared like a bias."""
    def draw(rng, batch):
        c = int(rng.integers(1, max_channels + 1))
        h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        vec = _lead(batch) if vector_batched else ()
        arrays = [rng.uniform(-1, 1, size=_lead(batch) + (c, h, w)),
                  rng.uniform(-1, 1, size=vec + (c,))]
        return arrays, (True, vector_batched), \
            lambda g, t, row=None: getattr(g, op)(*t)
    return draw


def _per_row_constant(rng, batch, low, high):
    """One float, or one per row of a batch."""
    value = rng.uniform(low, high, size=_lead(batch))
    return float(value) if batch is None else value


def _draw_scale(rng, batch):
    x = rng.uniform(-2, 2, size=_lead(batch) + _shape(rng))
    alpha = _per_row_constant(rng, batch, 0.3, 2.5) \
        * (1 if rng.random() < 0.5 else -1)
    return [x], (True,), lambda g, t, row=None: g.scale(
        t[0], alpha if row is None else alpha[row])


def _draw_shift(rng, batch):
    x = rng.uniform(-2, 2, size=_lead(batch) + _shape(rng))
    beta = _per_row_constant(rng, batch, -2, 2)
    return [x], (True,), lambda g, t, row=None: g.shift(
        t[0], beta if row is None else beta[row])


def _draw_matvec(rng, batch):
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    arrays = [rng.uniform(-1, 1, size=(m, n)),
              rng.uniform(-1, 1, size=_lead(batch) + (n,)),
              rng.uniform(-1, 1, size=(m,))]
    return arrays, (False, True, False), \
        lambda g, t, row=None: g.matvec(*t)


def _draw_lstm_cell(rng, batch):
    """Gate input of d + n entries, the forget gate reading the first d
    (the previous h) or all of them."""
    d, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    nf = d if rng.random() < 0.5 else d + n
    arrays = [rng.uniform(-1, 1, size=_lead(batch) + (d + n,)),
              rng.uniform(-1, 1, size=_lead(batch) + (d,))]
    for cols in (nf, d + n, d + n, d + n):
        arrays += [rng.uniform(-1, 1, size=(d, cols)),
                   rng.uniform(-1, 1, size=(d,))]
    return arrays, (True, True) + (False,) * 8, \
        lambda g, t, row=None: g.lstm_cell(*t)


def _draw_conv2d(rng, batch):
    c_in = int(rng.integers(1, 3))
    c_out = int(rng.integers(1, 3))
    k = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    h = k + int(rng.integers(0, 4))
    w = k + int(rng.integers(0, 4))
    arrays = [rng.uniform(-1, 1, size=_lead(batch) + (c_in, h, w)),
              rng.uniform(-1, 1, size=(c_out, c_in, k, k))]
    return arrays, (True, False), \
        lambda g, t, row=None: g.conv2d(*t, stride=stride)


def _draw_softmax(rng, batch):
    x = rng.uniform(-3, 3, size=_lead(batch) + (int(rng.integers(1, 7)),))
    return [x], (True,), lambda g, t, row=None: g.softmax(t[0])


def _draw_concat(rng, batch):
    parts = [rng.uniform(-1, 1, size=_lead(batch) + (int(rng.integers(1, 5)),))
             for _ in range(int(rng.integers(2, 4)))]
    return parts, (True,) * len(parts), lambda g, t, row=None: g.concat(t)


def _draw_reshape(rng, batch):
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    x = rng.uniform(-1, 1, size=_lead(batch) + (m, n))
    return [x], (True,), lambda g, t, row=None: g.reshape(
        t[0], t[0].shape[:-2] + (m * n,))


def _index(rng, batch, size):
    """One index, or for a batch one per row or (half the time) one int
    shared by every row; and the index of row ``row``."""
    if batch is None or rng.random() < 0.5:
        index = int(rng.integers(size))
        return index, lambda row: index
    index = [int(i) for i in rng.integers(size, size=batch)]
    return index, lambda row: index[row]


def _draw_pick(rng, batch):
    n = int(rng.integers(2, 7))
    x = rng.uniform(-1, 1, size=_lead(batch) + (n,))
    index, of_row = _index(rng, batch, n)
    return [x], (True,), lambda g, t, row=None: g.pick(
        t[0], index if row is None else of_row(row))


def _draw_row(rng, batch):
    """A matrix per row, or (half the time with a batch) one matrix shared
    by every row that each row looks up with its own index."""
    m, n = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    lookup = batch is not None and rng.random() < 0.5
    x = rng.uniform(-1, 1, size=(() if lookup else _lead(batch)) + (m, n))
    if lookup:
        index = [int(i) for i in rng.integers(m, size=batch)]
        return [x], (False,), lambda g, t, row=None: g.row(
            t[0], index if row is None else index[row])
    index, of_row = _index(rng, batch, m)
    return [x], (True,), lambda g, t, row=None: g.row(
        t[0], index if row is None else of_row(row))


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
    "bias_add_channels": _channelwise("bias_add_channels",
                                      vector_batched=False),
    "mul_channels": _channelwise("mul_channels"),
    "softmax": _draw_softmax,
    "concat": _draw_concat,
    "reshape": _draw_reshape,
    "sum_all": _draw_sum_all,
    "pick": _draw_pick,
    "row": _draw_row,
}

assert set(DRAWS) == set(OP_KINDS), "op registry out of sync"


def case(op: str, rng) -> tuple[list[np.ndarray], Callable]:
    """One random case of ``op``, unbatched or (half the time) a batch of
    1 to 3 rows: its operand arrays and ``build(g, tensors)``, the loss
    ``sum(w * op(tensors))`` recorded on ``g``."""
    batch = None if rng.random() < 0.5 else int(rng.integers(1, 4))
    arrays, _, call = DRAWS[op](rng, batch)
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
    """A small model and a lockstep walk of two environments: the first
    rows' instructions, the (2, 3, H, W) frames of a fixed walk, and the
    episodes that start before a frame (frame -> {row: instruction}). Row 1
    starts a new episode at the last frame."""
    corpus = gridnav.build_corpus(0)
    vocab = nets.build_vocab(corpus.train + corpus.test)
    mconf = nets.ModelConfig(
        vocab=vocab, d=8, l=8, embed_dim=4, hidden=8,
        render_h=27, render_w=36,
        conv_specs=((4, 5, 3), (6, 4, 2), (8, 3, 1)))
    params = nets.init_params(mconf, seed)
    rows = []
    for row, instruction in enumerate(corpus.train[:2]):
        state, obs = gridnav.reset(seed + row, "easy", instruction,
                                   render_hw=(27, 36))
        images = [obs.image.data]
        for action in END_TO_END_ACTIONS[:-1]:
            state, _, _ = gridnav.advance(state, action)
            images.append(gridnav.render(state).image.data)
        rows.append(images)
    restart = corpus.train[2]
    rows[1][-1] = gridnav.reset(seed + 2, "easy", restart,
                                render_hw=(27, 36))[1].image.data
    frames = [np.stack(images) for images in zip(*rows)]
    walk = (corpus.train[:2], frames, {len(frames) - 1: {1: restart}})
    return mconf, params, walk


def _rollout_loss(mconf, params, walk) -> tuple[Graph, Tensor]:
    """The graph and the loss sum over rows and frames of
    log p(a_t) + V_t + H_t through ``model_step``, the forward pass that
    trains, with the attention state carried across frames and reset, with
    the instruction encoding, where a row starts a new episode.

    Not the A3C loss: its advantage is a constant taken from the values, so
    central differences would see a different function than backward does.
    """
    instructions, frames, restarts = walk
    g = Graph()
    x_l = nets.encode_instruction(g, params, mconf,
                                  [ins.tokens for ins in instructions])
    att = nets.initial_attention_state(mconf, len(instructions))
    loss = None
    for t, (images, action) in enumerate(zip(frames, END_TO_END_ACTIONS)):
        if t in restarts:
            x_l, att = start_episodes(g, params, mconf, x_l, att, restarts[t])
        out = nets.model_step(g, params, mconf, x_l, Tensor(images), att)
        log_p = g.log(g.pick(out.probs, gridnav.ACTIONS.index(action)))
        term = g.sum_all(g.add(g.add(log_p, out.value),
                               policy_entropy(g, out.probs)))
        loss = term if loss is None else g.add(loss, term)
        att = out.next_attention_state
    return g, loss


def check_end_to_end(seed: int = 0) -> float:
    """Worst relative error over ``END_TO_END_SAMPLES`` random entries of
    every parameter tensor."""
    mconf, params, walk = _tiny_model(seed)
    tensors = params.tensors()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE2E]))
    entries = [rng.choice(t.size, min(END_TO_END_SAMPLES, t.size),
                          replace=False) for t in tensors]
    return _worst_error(tensors,
                        lambda: _rollout_loss(mconf, params, walk), entries)
