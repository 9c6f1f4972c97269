"""Central finite-difference verification of the autodiff engine.

Every op kind in ``autodiff.OP_KINDS`` gets randomized small cases checked
against a two-sided difference quotient. A case is the op's operand arrays,
drawn by its ``DRAWS`` entry: every per-frame operand carries a leading
batch axis of 1 to 3 rows, and the parameter operands (weights, biases,
kernels, a looked-up matrix) are shared by the rows, as in ``autodiff``.
Its loss is the scalar ``sum(w * op(operands))``, whose weights
``w ~ N(0, 1)`` are drawn from the same generator in the shape of the op's
output, so every output entry reaches the loss with its own weight. Every
operand entry is checked.

End to end, ``a3c._rollout``, the rollout that trains, plays a lockstep
batch of two environments whose actions follow fixed scripts, for six
steps. The second environment's episode ends at step 5, so its instruction
encoding and attention state rows are reset, and the frame budget leaves it
idle at step 6. The loss sums log p(a_t) + V_t + H_t over the returned
steps. A handful of randomly chosen entries per parameter tensor are
checked; every tensor, the GRU and the attention LSTM's stacked gate weight
included, gets a nonzero gradient. The CLI surfaces this as ``gradcheck``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import gridnav, nets
from .a3c import Collector, EnvSettings, TrainerConfig, _rollout, _Worker
from .autodiff import OP_KINDS, Graph, Tensor

STEP = 1e-5
OP_TOL = 1e-4
END_TO_END_TOL = 1e-3
END_TO_END_SAMPLES = 3
# Row 0 walks about without touching an object. Row 1 walks from the
# easy-mode start (11, 8) into the object at (5, 8), so its episode ends
# at step 5 and restarts; the 11-frame budget leaves it idle at step 6.
END_TO_END_SCRIPTS = (
    ("turn_left", "move_forward", "turn_right", "move_forward", "turn_left",
     "turn_right"),
    ("move_forward",) * 5,
)


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
# ``batch`` is the row count. ``batched`` flags the arrays that carry the
# leading batch axis; the others (weights, biases, kernels) are shared by
# the rows. ``call(g, tensors, row=None)`` records the op; with ``row`` it
# records it on the batch of one made of that row's operands
# (``a[row:row + 1]``) and passes that row's own constant or index, so a
# batch can be compared with its rows.
# --------------------------------------------------------------------------

def _shape(rng, ndim_max=3):
    ndim = int(rng.integers(1, ndim_max + 1))
    return tuple(int(rng.integers(1, 5)) for _ in range(ndim))


def _same_shape(op: str, count=1, low=-2.0, high=2.0, kink=None):
    """Draw ``count`` operands of one random shape for an elementwise op,
    each entry moved 0.2 away if it lies within 0.1 of the op's ``kink``."""
    def draw(rng, batch):
        shape = (batch,) + _shape(rng)
        arrays = [rng.uniform(low, high, size=shape) for _ in range(count)]
        if kink is not None:
            arrays = [np.where(np.abs(x - kink) < 0.1,
                               x + 0.2 * np.sign(x - kink + 1e-12), x)
                      for x in arrays]
        return arrays, (True,) * count, \
            lambda g, t, row=None: getattr(g, op)(*t)
    return draw


def _draw_sum_all(rng, batch):
    x = rng.uniform(-1.0, 1.0, size=(batch,) + _shape(rng))
    return [x], (True,), lambda g, t, row=None: g.sum_all(t[0])


def _channelwise(op: str, max_channels=4, shared_vector=False):
    """Draw a batch of (c, h, w) maps and length-c vectors for a per-channel
    op: one vector per row, or one shared like a bias."""
    def draw(rng, batch):
        c = int(rng.integers(1, max_channels + 1))
        h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        vec = () if shared_vector else (batch,)
        arrays = [rng.uniform(-1, 1, size=(batch, c, h, w)),
                  rng.uniform(-1, 1, size=vec + (c,))]
        return arrays, (True, not shared_vector), \
            lambda g, t, row=None: getattr(g, op)(*t)
    return draw


def _draw_scale(rng, batch):
    x = rng.uniform(-2, 2, size=(batch,) + _shape(rng))
    alpha = rng.uniform(0.3, 2.5, size=batch) \
        * (1 if rng.random() < 0.5 else -1)
    return [x], (True,), lambda g, t, row=None: g.scale(
        t[0], alpha if row is None else alpha[row:row + 1])


def _draw_shift(rng, batch):
    x = rng.uniform(-2, 2, size=(batch,) + _shape(rng))
    beta = rng.uniform(-2, 2, size=batch)
    return [x], (True,), lambda g, t, row=None: g.shift(
        t[0], beta if row is None else beta[row:row + 1])


def _draw_matvec(rng, batch):
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    arrays = [rng.uniform(-1, 1, size=(m, n)),
              rng.uniform(-1, 1, size=(batch, n)),
              rng.uniform(-1, 1, size=(m,))]
    return arrays, (False, True, False), \
        lambda g, t, row=None: g.matvec(*t)


def _draw_lstm_cell(rng, batch):
    """Gate input of d + n entries, the forget gate reading the first d
    (the previous h) or all of them."""
    d, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    nf = d if rng.random() < 0.5 else d + n
    arrays = [rng.uniform(-1, 1, size=(batch, d + n)),
              rng.uniform(-1, 1, size=(batch, d))]
    for rows, cols in ((d, nf), (3 * d, d + n)):
        arrays += [rng.uniform(-1, 1, size=(rows, cols)),
                   rng.uniform(-1, 1, size=(rows,))]
    return arrays, (True, True) + (False,) * 4, \
        lambda g, t, row=None: g.lstm_cell(*t)


def _draw_conv2d(rng, batch):
    c_in = int(rng.integers(1, 3))
    c_out = int(rng.integers(1, 3))
    k = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    h = k + int(rng.integers(0, 4))
    w = k + int(rng.integers(0, 4))
    arrays = [rng.uniform(-1, 1, size=(batch, c_in, h, w)),
              rng.uniform(-1, 1, size=(c_out, c_in, k, k))]
    return arrays, (True, False), \
        lambda g, t, row=None: g.conv2d(*t, stride=stride)


def _draw_softmax(rng, batch):
    x = rng.uniform(-3, 3, size=(batch, int(rng.integers(1, 7))))
    return [x], (True,), lambda g, t, row=None: g.softmax(t[0])


def _draw_concat(rng, batch):
    parts = [rng.uniform(-1, 1, size=(batch, int(rng.integers(1, 5))))
             for _ in range(int(rng.integers(2, 4)))]
    return parts, (True,) * len(parts), lambda g, t, row=None: g.concat(t)


def _draw_reshape(rng, batch):
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    x = rng.uniform(-1, 1, size=(batch, m, n))
    return [x], (True,), lambda g, t, row=None: g.reshape(
        t[0], (t[0].shape[0], m * n))


def _index(rng, batch, size):
    """One index per row or (half the time) one int shared by every row;
    and the index of the batch of one made of row ``row``."""
    if rng.random() < 0.5:
        index = int(rng.integers(size))
        return index, lambda row: index
    index = [int(i) for i in rng.integers(size, size=batch)]
    return index, lambda row: index[row:row + 1]


def _draw_pick(rng, batch):
    n = int(rng.integers(2, 7))
    x = rng.uniform(-1, 1, size=(batch, n))
    index, of_row = _index(rng, batch, n)
    return [x], (True,), lambda g, t, row=None: g.pick(
        t[0], index if row is None else of_row(row))


def _draw_row(rng, batch):
    """A matrix per row, or (half the time) one matrix shared by every row
    that each row looks up with its own index."""
    m, n = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    lookup = rng.random() < 0.5
    x = rng.uniform(-1, 1, size=(() if lookup else (batch,)) + (m, n))
    if lookup:
        index = [int(i) for i in rng.integers(m, size=batch)]
        return [x], (False,), lambda g, t, row=None: g.row(
            t[0], index if row is None else index[row:row + 1])
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
                                      shared_vector=True),
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
    """One random case of ``op`` on a batch of 1 to 3 rows: its operand
    arrays and ``build(g, tensors)``, the loss ``sum(w * op(tensors))``
    recorded on ``g``."""
    batch = int(rng.integers(1, 4))
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

class _Scripted(_Worker):
    """A lockstep worker that plays ``script``, one action a frame, whatever
    the policy; a frame past its end raises StopIteration."""

    def __init__(self, script, *args):
        self.script = iter(script)
        super().__init__(*args)

    def sample(self, p: np.ndarray) -> int:
        return gridnav.ACTIONS.index(next(self.script))


def _tiny_model(seed: int):
    """A small model, its parameters and the training split."""
    corpus = gridnav.build_corpus(0)
    vocab = nets.build_vocab(corpus.train + corpus.test)
    mconf = nets.ModelConfig(
        vocab=vocab, d=8, l=8, embed_dim=4, hidden=8,
        render_h=27, render_w=36,
        conv_specs=((4, 5, 3), (6, 4, 2), (8, 3, 1)))
    return mconf, nets.init_params(mconf, seed), corpus.train


def _training_loss(mconf, params, split, seed: int) -> tuple[Graph, Tensor]:
    """The graph and the loss sum over the returned steps of
    log p(a_t) + V_t + H_t of one ``a3c._rollout``, the rollout that trains.

    Not the A3C loss: its advantage is a constant taken from the values, so
    central differences would see a different function than backward does.
    """
    workers = [_Scripted(script, np.random.default_rng([seed, row]),
                         EnvSettings("easy"), mconf, split)
               for row, script in enumerate(END_TO_END_SCRIPTS)]
    tconf = TrainerConfig(n_steps=6, max_frames=11)
    g = Graph()
    steps, _, _ = _rollout(g, params, tconf, mconf, workers,
                           nets.initial_attention_state(mconf, len(workers)),
                           Collector(tconf))
    loss = None
    for step in steps:
        term = g.add(g.sum_all(g.add(step.log_prob, step.value)),
                     step.entropy)
        loss = term if loss is None else g.add(loss, term)
    return g, loss


def check_end_to_end(seed: int = 0) -> float:
    """Worst relative error over ``END_TO_END_SAMPLES`` random entries of
    every parameter tensor."""
    mconf, params, split = _tiny_model(seed)
    tensors = params.tensors()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE2E]))
    entries = [rng.choice(t.size, min(END_TO_END_SAMPLES, t.size),
                          replace=False) for t in tensors]
    return _worst_error(
        tensors, lambda: _training_loss(mconf, params, split, seed), entries)
