"""Central finite-difference verification of the autodiff engine.

Every op kind in ``autodiff.OP_KINDS`` gets randomized small cases checked
against a two-sided difference quotient. End to end, the instruction
encoder and ``nets.model_step`` (the forward pass training uses) run over
three rendered frames with the attention state carried between them, and a
handful of randomly chosen entries per parameter tensor are checked; every
tensor, the GRU and the attention LSTM included, gets a nonzero gradient.
The CLI surfaces this as ``gradcheck``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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


# --------------------------------------------------------------------------
# Randomized cases per op: (leaf arrays, loss builder over fresh graphs)
# --------------------------------------------------------------------------

def _shape(rng, ndim_max=3):
    ndim = int(rng.integers(1, ndim_max + 1))
    return tuple(int(rng.integers(1, 5)) for _ in range(ndim))


def _weighted(g: Graph, out: Tensor, w: np.ndarray) -> Tensor:
    return g.sum_all(g.mul(out, Tensor(w)))


def _unary_case(op: str, rng, low=-2.0, high=2.0, keep_away_from=None):
    shape = _shape(rng)
    x = rng.uniform(low, high, size=shape)
    if keep_away_from is not None:
        x = np.where(np.abs(x - keep_away_from) < 0.1,
                     x + 0.2 * np.sign(x - keep_away_from + 1e-12), x)
    w = rng.standard_normal(shape)

    def build(g, leaves):
        return _weighted(g, getattr(g, op)(leaves[0]), w)

    return [x], build


def _case_sigmoid(rng):
    return _unary_case("sigmoid", rng)


def _case_tanh(rng):
    return _unary_case("tanh", rng)


def _case_relu(rng):
    return _unary_case("relu", rng, keep_away_from=0.0)


def _case_log(rng):
    return _unary_case("log", rng, low=0.2, high=3.0)


def _binary_case(op: str, rng):
    shape = _shape(rng)
    a = rng.uniform(-2, 2, size=shape)
    b = rng.uniform(-2, 2, size=shape)
    w = rng.standard_normal(shape)

    def build(g, leaves):
        return _weighted(g, getattr(g, op)(leaves[0], leaves[1]), w)

    return [a, b], build


def _case_add(rng):
    return _binary_case("add", rng)


def _case_mul(rng):
    return _binary_case("mul", rng)


def _case_scale(rng):
    shape = _shape(rng)
    x = rng.uniform(-2, 2, size=shape)
    alpha = float(rng.uniform(0.3, 2.5)) * (1 if rng.random() < 0.5 else -1)
    w = rng.standard_normal(shape)

    def build(g, leaves):
        return _weighted(g, g.scale(leaves[0], alpha), w)

    return [x], build


def _case_shift(rng):
    shape = _shape(rng)
    x = rng.uniform(-2, 2, size=shape)
    beta = float(rng.uniform(-2, 2))
    w = rng.standard_normal(shape)

    def build(g, leaves):
        return _weighted(g, g.shift(leaves[0], beta), w)

    return [x], build


def _case_matvec(rng):
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    a = rng.uniform(-1, 1, size=(m, n))
    v = rng.uniform(-1, 1, size=(n,))
    b = rng.uniform(-1, 1, size=(m,))
    w = rng.standard_normal(m)

    def build(g, leaves):
        return _weighted(g, g.matvec(leaves[0], leaves[1], leaves[2]), w)

    return [a, v, b], build


def _case_conv2d(rng):
    c_in = int(rng.integers(1, 3))
    c_out = int(rng.integers(1, 3))
    k = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    h = k + int(rng.integers(0, 4))
    wdt = k + int(rng.integers(0, 4))
    x = rng.uniform(-1, 1, size=(c_in, h, wdt))
    kern = rng.uniform(-1, 1, size=(c_out, c_in, k, k))
    ho = (h - k) // stride + 1
    wo = (wdt - k) // stride + 1
    w = rng.standard_normal((c_out, ho, wo))

    def build(g, leaves):
        return _weighted(g, g.conv2d(leaves[0], leaves[1], stride=stride), w)

    return [x, kern], build


def _case_conv1d_channels(rng):
    d = int(rng.integers(1, 6))
    h, wdt = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    f = rng.uniform(-1, 1, size=(d, h, wdt))
    a = rng.uniform(-1, 1, size=(d,))
    w = rng.standard_normal((1, h, wdt))

    def build(g, leaves):
        return _weighted(g, g.conv1d_channels(leaves[0], leaves[1]), w)

    return [f, a], build


def _channelwise_case(op: str, rng):
    c = int(rng.integers(1, 5))
    h, wdt = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    x = rng.uniform(-1, 1, size=(c, h, wdt))
    b = rng.uniform(-1, 1, size=(c,))
    w = rng.standard_normal((c, h, wdt))

    def build(g, leaves):
        return _weighted(g, getattr(g, op)(leaves[0], leaves[1]), w)

    return [x, b], build


def _case_bias_add_channels(rng):
    return _channelwise_case("bias_add_channels", rng)


def _case_mul_channels(rng):
    return _channelwise_case("mul_channels", rng)


def _case_softmax(rng):
    n = int(rng.integers(1, 7))
    x = rng.uniform(-3, 3, size=(n,))
    w = rng.standard_normal(n)

    def build(g, leaves):
        return _weighted(g, g.softmax(leaves[0]), w)

    return [x], build


def _case_concat(rng):
    parts = [rng.uniform(-1, 1, size=(int(rng.integers(1, 5)),))
             for _ in range(int(rng.integers(2, 4)))]
    total = sum(p.size for p in parts)
    w = rng.standard_normal(total)

    def build(g, leaves):
        return _weighted(g, g.concat(leaves), w)

    return parts, build


def _case_reshape(rng):
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    x = rng.uniform(-1, 1, size=(m, n))
    w = rng.standard_normal(m * n)

    def build(g, leaves):
        return _weighted(g, g.reshape(leaves[0], (m * n,)), w)

    return [x], build


def _case_sum_all(rng):
    shape = _shape(rng)
    x = rng.uniform(-1, 1, size=shape)
    alpha = float(rng.uniform(0.5, 2.0))

    def build(g, leaves):
        return g.scale(g.sum_all(leaves[0]), alpha)

    return [x], build


def _case_pick(rng):
    n = int(rng.integers(2, 7))
    x = rng.uniform(-1, 1, size=(n,))
    i = int(rng.integers(n))
    alpha = float(rng.uniform(0.5, 2.0))

    def build(g, leaves):
        return g.scale(g.pick(leaves[0], i), alpha)

    return [x], build


def _case_row(rng):
    m, n = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    x = rng.uniform(-1, 1, size=(m, n))
    i = int(rng.integers(m))
    w = rng.standard_normal(n)

    def build(g, leaves):
        return _weighted(g, g.row(leaves[0], i), w)

    return [x], build


CASE_BUILDERS: dict[str, Callable] = {
    "sigmoid": _case_sigmoid,
    "tanh": _case_tanh,
    "relu": _case_relu,
    "log": _case_log,
    "add": _case_add,
    "mul": _case_mul,
    "scale": _case_scale,
    "shift": _case_shift,
    "matvec": _case_matvec,
    "conv2d": _case_conv2d,
    "conv1d_channels": _case_conv1d_channels,
    "bias_add_channels": _case_bias_add_channels,
    "mul_channels": _case_mul_channels,
    "softmax": _case_softmax,
    "concat": _case_concat,
    "reshape": _case_reshape,
    "sum_all": _case_sum_all,
    "pick": _case_pick,
    "row": _case_row,
}

assert set(CASE_BUILDERS) == set(OP_KINDS), "op registry out of sync"


def check_case(arrays, build, corrupt: bool = False) -> float:
    """Max relative error between reverse-mode and central differences."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    g = Graph()
    g.backward(build(g, leaves))
    max_err = 0.0
    for leaf in leaves:
        analytic = leaf.grad if leaf.grad is not None \
            else np.zeros_like(leaf.data)
        analytic = analytic.reshape(-1).copy()
        if corrupt:
            analytic = analytic * 1.01 + 1e-3
        flat = leaf.data.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + STEP
            f_plus = build(Graph(), leaves).item()
            flat[idx] = orig - STEP
            f_minus = build(Graph(), leaves).item()
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * STEP)
            max_err = max(max_err, relative_error(analytic[idx], fd))
    return max_err


def check_op(op: str, seed: int = 0, cases: int = 100,
             corrupt: bool = False) -> float:
    rng = np.random.default_rng(np.random.SeedSequence([seed, _op_tag(op)]))
    builder = CASE_BUILDERS[op]
    worst = 0.0
    for _ in range(cases):
        arrays, build = builder(rng)
        worst = max(worst, check_case(arrays, build, corrupt=corrupt))
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
        state, obs = gridnav.step(state, action)
        images.append(obs.image)
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


def check_end_to_end(seed: int = 0,
                     samples_per_tensor: int = END_TO_END_SAMPLES) -> float:
    model = _tiny_model(seed)
    params = model[1]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE2E]))

    params.zero_grads()
    g, loss = _rollout_loss(*model)
    g.backward(loss)

    worst = 0.0
    for name, tensor in params.items():
        analytic = tensor.grad if tensor.grad is not None \
            else np.zeros_like(tensor.data)
        analytic = analytic.reshape(-1)
        flat = tensor.data.reshape(-1)
        count = min(samples_per_tensor, flat.size)
        for idx in rng.choice(flat.size, size=count, replace=False):
            orig = flat[idx]
            flat[idx] = orig + STEP
            f_plus = _rollout_loss(*model)[1].item()
            flat[idx] = orig - STEP
            f_minus = _rollout_loss(*model)[1].item()
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * STEP)
            worst = max(worst, relative_error(analytic[idx], fd))
    return worst


# --------------------------------------------------------------------------
# Whole-suite entry point
# --------------------------------------------------------------------------

@dataclass
class SuiteResult:
    op_errors: dict[str, float]
    end_to_end_error: float

    @property
    def passed(self) -> bool:
        return (all(e < OP_TOL for e in self.op_errors.values())
                and self.end_to_end_error < END_TO_END_TOL)


def run_suite(seed: int = 0, cases_per_op: int = 100,
              corrupt_op: Optional[str] = None) -> SuiteResult:
    """Check every registered op exactly once plus the end-to-end pass.

    ``corrupt_op`` deliberately skews that op's analytic gradients; it exists
    as a negative control for the harness itself.
    """
    op_errors = {}
    for op in OP_KINDS:
        op_errors[op] = check_op(op, seed=seed, cases=cases_per_op,
                                 corrupt=(op == corrupt_op))
    return SuiteResult(op_errors=op_errors,
                       end_to_end_error=check_end_to_end(seed))
