"""Network components: image CNN, instruction GRU, the recurrent
cell-state attention, fusion variants, and the actor-critic heads.

Attention flow per step t (recurrent sources): the attention applied to the
current frame is the one produced at step t-1; the attended-and-flattened
image concatenated with the instruction encoding then drives the LSTM that
produces the attention for t+1. That LSTM runs on every frame, so its gate
arithmetic is one ``lstm_cell`` tape node, and its input, candidate and
output gates, which all read the whole gate input, share one stacked weight
``lstm_w`` and bias ``lstm_b``; the GRU instruction encoder runs once per
episode and stays composed of elementwise ops. The fused state has
length feat_h*feat_w in every variant so the policy heads stay comparable.
The carried attention state is the (B, 2, d) output of ``lstm_cell``, h over
C in each batch row; only ``fuse`` unpacks it, once per recurrent frame.

Batches: every per-frame input carries one leading batch axis B (see
``autodiff``): images (B, 3, H, W), the instruction encoding (B, l) and the
attention state go in together, and every output carries the same axis,
so one call steps B environments on one tape; one environment is a batch
of one. Parameters are shared by the rows.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import Graph, Tensor

ATTENTION_SOURCES = ("static_instruction", "current_frame",
                     "lstm_output", "lstm_cellstate")
APPLICATIONS = ("hadamard_fc", "conv1d")
FUSIONS = ("attention", "concat")

UNK_TOKEN = "<unk>"

CHECKPOINT_MAGIC = b"GNAVPK01"
CHECKPOINT_VERSION = 2


def build_vocab(instructions) -> tuple[str, ...]:
    """Token table over a corpus; id 0 is reserved for unknown words."""
    words = sorted({w for ins in instructions for w in ins.tokens})
    return (UNK_TOKEN,) + tuple(words)


@dataclass(frozen=True)
class ModelConfig:
    vocab: tuple[str, ...]
    d: int = 16
    l: int = 64
    embed_dim: int = 16
    hidden: int = 64
    render_h: int = 48
    render_w: int = 64
    # (out_channels, kernel, stride) per conv layer; last out_channels == d.
    # The first layer tiles the image in non-overlapping patches, which keeps
    # neighboring billboard slots from bleeding into each other.
    conv_specs: tuple[tuple[int, int, int], ...] = ((8, 4, 4), (12, 3, 2), (16, 2, 1))
    attention_source: str = "lstm_cellstate"
    application: str = "conv1d"
    fusion: str = "attention"
    action_count: int = 3
    forget_gate_sees_input: bool = True

    def __post_init__(self):
        if self.attention_source not in ATTENTION_SOURCES:
            raise ValueError(f"unknown attention_source {self.attention_source!r}")
        if self.application not in APPLICATIONS:
            raise ValueError(f"unknown application {self.application!r}")
        if self.fusion not in FUSIONS:
            raise ValueError(f"unknown fusion {self.fusion!r}")
        for name in ("d", "l", "embed_dim", "hidden", "render_h", "render_w"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if any(v < 1 for spec in self.conv_specs for v in spec):
            raise ValueError("conv_specs entries must be >= 1")
        if self.conv_specs[-1][0] != self.d:
            raise ValueError("last conv layer must emit d channels")
        if self.feat_h < 1 or self.feat_w < 1:
            raise ValueError("conv stack collapses the image to nothing")
        if self.vocab[0] != UNK_TOKEN:
            raise ValueError("vocab id 0 must be the unknown token")

    @property
    def feat_h(self) -> int:
        h = self.render_h
        for _, k, s in self.conv_specs:
            h = (h - k) // s + 1
        return h

    @property
    def feat_w(self) -> int:
        w = self.render_w
        for _, k, s in self.conv_specs:
            w = (w - k) // s + 1
        return w

    @property
    def state_len(self) -> int:
        return self.feat_h * self.feat_w

    @property
    def lstm_input_len(self) -> int:
        return self.state_len + self.l


def paper_config(vocab) -> ModelConfig:
    """Full-scale geometry: 64 feature channels of 8x17, GRU of size 256."""
    return ModelConfig(
        vocab=tuple(vocab), d=64, l=256, embed_dim=32, hidden=256,
        render_h=156, render_w=300,
        conv_specs=((32, 8, 4), (64, 4, 2), (64, 4, 2)))


def initial_attention_state(config: ModelConfig, batch: int = 1) -> Tensor:
    """The state (batch, 2, d) before an episode's first frame: h_0 in row
    0 and C_0 in row 1 of each batch row."""
    # The first frame applies h_0 under lstm_output and C_0 under
    # lstm_cellstate. All ones is a pass-through under Hadamard and a uniform
    # channel weighting under 1D convolution, so C_0 is ones, and h_0 is ones
    # under lstm_output (zero would blank that frame) and zero otherwise.
    h0 = float(config.attention_source == "lstm_output")
    return Tensor(np.tile([[h0], [1.0]], (batch, 1, config.d)))


# --------------------------------------------------------------------------
# Parameters
# --------------------------------------------------------------------------

class Params:
    """Named tensors in a fixed declaration order (the checkpoint order)."""

    def __init__(self, tensors: dict[str, Tensor]):
        self._tensors = dict(tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def tensors(self) -> list[Tensor]:
        return list(self._tensors.values())

    def zero_grads(self) -> None:
        for t in self._tensors.values():
            t.grad = None


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Declaration-ordered shape table implied by the configuration."""
    shapes: dict[str, tuple[int, ...]] = {}
    c_in = 3
    for i, (c_out, k, _) in enumerate(config.conv_specs, start=1):
        shapes[f"conv{i}_w"] = (c_out, c_in, k, k)
        shapes[f"conv{i}_b"] = (c_out,)
        c_in = c_out
    shapes["embed"] = (len(config.vocab), config.embed_dim)
    gru_in = config.l + config.embed_dim
    for gate in ("z", "r", "h"):
        shapes[f"gru_w{gate}"] = (config.l, gru_in)
        shapes[f"gru_b{gate}"] = (config.l,)

    flat_feat = config.d * config.feat_h * config.feat_w
    if config.fusion == "attention":
        if config.attention_source == "static_instruction":
            shapes["att_w"] = (config.d, config.l)
            shapes["att_b"] = (config.d,)
        elif config.attention_source == "current_frame":
            shapes["att_w"] = (config.d, flat_feat + config.l)
            shapes["att_b"] = (config.d,)
        else:
            hx = config.d + config.lstm_input_len
            f_in = hx if config.forget_gate_sees_input else config.d
            shapes["lstm_wf"] = (config.d, f_in)
            shapes["lstm_bf"] = (config.d,)
            # the input, candidate and output gates, stacked in that order
            shapes["lstm_w"] = (3 * config.d, hx)
            shapes["lstm_b"] = (3 * config.d,)
        if config.application == "hadamard_fc":
            shapes["had_w"] = (config.state_len, flat_feat)
            shapes["had_b"] = (config.state_len,)
    else:
        shapes["cat_w"] = (config.state_len, flat_feat + config.l)
        shapes["cat_b"] = (config.state_len,)

    shapes["trunk_w"] = (config.hidden, config.state_len)
    shapes["trunk_b"] = (config.hidden,)
    shapes["policy_w"] = (config.action_count, config.hidden)
    shapes["policy_b"] = (config.action_count,)
    shapes["value_w"] = (1, config.hidden)
    shapes["value_b"] = (1,)
    return shapes


def _init_bound(name: str, shape: tuple[int, ...]) -> float:
    """Uniform init half-width per tensor.

    Gain-corrected fan-in scaling: plain 1/sqrt(fan_in) contracts activations
    by ~0.41 per relu stage, which buries the instruction-conditioned part of
    the fused state below the optimizer noise floor at desk scale. Embeddings
    are lookups (fan-in 1); relu-feeding stacks (conv, trunk_w) get the
    sqrt(6) relu gain; sigmoid/tanh gates and linear layers get sqrt(3)
    (unit-variance linear); the value head gets 1/sqrt(fan_in).

    The fused state is not unit-scale: under ``conv1d`` the all-ones C_0
    sums d non-negative relu channels, so on rendered frames its rms is
    several times the image's (about 3.5 at desk scale, about 7 at paper
    scale, against an image rms near 0.5). Even a 1/sqrt(fan_in) trunk
    can leave logits 5 or more apart on such a state, so the trunk bound
    does not keep the initial policy near uniform; the policy head does,
    drawn at 0.01/sqrt(fan_in).
    """
    if name == "embed":
        return 1.0
    if len(shape) == 4 or name == "trunk_w":
        fan = shape[1] * shape[2] * shape[3] if len(shape) == 4 else shape[1]
        return np.sqrt(6.0 / fan)
    if name == "policy_w":
        return 0.01 / np.sqrt(shape[1])
    if name == "value_w":
        return 1.0 / np.sqrt(shape[1])
    return np.sqrt(3.0 / shape[1])


def init_params(config: ModelConfig, seed: int) -> Params:
    """Deterministic uniform weights, zero biases (the 1-D tensors),
    forget-gate bias +1."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9A27]))
    tensors: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        if len(shape) == 1:
            data = np.zeros(shape)
            if name == "lstm_bf":
                data += 1.0
        else:
            bound = _init_bound(name, shape)
            data = rng.uniform(-bound, bound, size=shape)
        tensors[name] = Tensor(data, requires_grad=True)
    return Params(tensors)


# --------------------------------------------------------------------------
# Forward pieces
# --------------------------------------------------------------------------

def encode_image(g: Graph, params: Params, config: ModelConfig,
                 image: Tensor) -> Tensor:
    if (image.data.ndim != 4
            or image.shape[1:] != (3, config.render_h, config.render_w)):
        raise ValueError(
            f"image shape {image.shape}, expected "
            f"(B, 3, {config.render_h}, {config.render_w})")
    x = image
    for i, (_, _, stride) in enumerate(config.conv_specs, start=1):
        x = g.conv2d(x, params[f"conv{i}_w"], stride=stride)
        x = g.bias_add_channels(x, params[f"conv{i}_b"])
        x = g.relu(x)
    return x


def token_ids(config: ModelConfig, tokens: Sequence[str]) -> list[int]:
    index = {w: i for i, w in enumerate(config.vocab)}
    return [index.get(t, 0) for t in tokens]


def encode_instruction(g: Graph, params: Params, config: ModelConfig,
                       tokens) -> Tensor:
    """Final hidden state (B, l) of a GRU over the embedded tokens of each
    of a list of B token sequences.

    The rows run right-aligned: of T = max length steps, row b reads its
    tokens in the last len_b, and before that a ``mul`` by a 0/1 mask
    holds its h at the zero it starts from. So each row ends in the state
    its own encode reaches, and only steps where some row has no token yet
    record a mask: rows of one length record 15 nodes per token.
    """
    # bench/run.py passes one flat sequence, lifted here to a batch of one;
    # the benchmark-only change of ROADMAP item 2 removes this line
    tokens = [tokens] if tokens and isinstance(tokens[0], str) else tokens
    seqs = [token_ids(config, t) for t in tokens]
    if min(map(len, seqs), default=0) == 0:
        raise ValueError("empty token sequence")
    steps = max(map(len, seqs))
    h = Tensor(np.zeros((len(seqs), config.l)))
    for t in range(steps):
        # row b's token at step t, or id 0 while it waits for its first
        live = [t >= steps - len(s) for s in seqs]
        ids = [s[t - steps + len(s)] if on else 0 for s, on in zip(seqs, live)]
        x = g.row(params["embed"], ids)
        hx = g.concat([h, x])
        z = g.sigmoid(g.matvec(params["gru_wz"], hx, params["gru_bz"]))
        r = g.sigmoid(g.matvec(params["gru_wr"], hx, params["gru_br"]))
        rhx = g.concat([g.mul(r, h), x])
        hbar = g.tanh(g.matvec(params["gru_wh"], rhx, params["gru_bh"]))
        one_minus_z = g.shift(g.scale(z, -1.0), 1.0)
        h = g.add(g.mul(one_minus_z, h), g.mul(z, hbar))
        if not all(live):
            h = g.mul(h, Tensor(np.repeat(np.array(live, float)[:, None],
                                          config.l, axis=1)))
    return h


def attention_step(g: Graph, params: Params, config: ModelConfig,
                   h: Tensor, c: Tensor, x_t: Tensor) -> Tensor:
    """One LSTM update from h_{t-1} and C_{t-1} (B, d); its output, the
    next state (B, 2, d), holds h_t and C_t, the next attention vector.

    Two tape nodes: the gate input [h_{t-1}, x_t] and one ``lstm_cell``.
    The input, candidate and output gates read all of the gate input
    through the stacked ``lstm_w`` (3d, n), rows in i, c, o order. The
    forget gate reads the first ``lstm_wf.shape[1]`` entries of it through
    its own weight, which is h_{t-1} alone or all of it as
    ``config.forget_gate_sees_input`` sized that weight.
    """
    return g.lstm_cell(g.concat([h, x_t]), c, params["lstm_wf"],
                       params["lstm_bf"], params["lstm_w"], params["lstm_b"])


def _flatten_maps(g: Graph, maps: Tensor) -> Tensor:
    """A batch of channel-major maps (B, c, h, w) as one vector per row."""
    return g.reshape(maps, (maps.shape[0], -1))


def fuse(g: Graph, params: Params, config: ModelConfig, x_l: Tensor,
         features: Tensor, prev: Optional[Tensor]
         ) -> tuple[Optional[Tensor], Optional[Tensor], Tensor,
                    Optional[Tensor]]:
    """(attention, attended maps, fused state, next recurrent state).

    Recurrent sources unpack the previous state (B, 2, d) into h and C with
    one ``row`` each, apply the previous step's vector, then advance the
    LSTM on the fused state and the instruction; the other sources compute
    the vector from scratch and pass ``prev`` through. ``concat`` fusion has
    no attention, so its vector and maps are None.
    """
    if config.fusion == "concat":
        inp = g.concat([_flatten_maps(g, features), x_l])
        state = g.matvec(params["cat_w"], inp, params["cat_b"])
        return None, None, state, prev

    source = config.attention_source
    recurrent = source in ("lstm_output", "lstm_cellstate")
    if recurrent:
        if prev is None:
            raise ValueError(f"{source} needs a previous attention state")
        h, c = g.row(prev, 0), g.row(prev, 1)
        att = h if source == "lstm_output" else c
    else:
        inp = x_l if source == "static_instruction" \
            else g.concat([_flatten_maps(g, features), x_l])
        att = g.sigmoid(g.matvec(params["att_w"], inp, params["att_b"]))

    if config.application == "conv1d":
        maps = g.conv1d_channels(features, att)
        state = _flatten_maps(g, maps)
    else:
        maps = g.mul_channels(features, att)
        flat = _flatten_maps(g, maps)
        state = g.matvec(params["had_w"], flat, params["had_b"])

    if recurrent:
        prev = attention_step(g, params, config, h, c, g.concat([state, x_l]))
    return att, maps, state, prev


def policy_forward(g: Graph, params: Params, state: Tensor) -> tuple[Tensor, Tensor]:
    """(action probabilities, value) from the shared trunk."""
    trunk = g.relu(g.matvec(params["trunk_w"], state, params["trunk_b"]))
    logits = g.matvec(params["policy_w"], trunk, params["policy_b"])
    value = g.pick(g.matvec(params["value_w"], trunk, params["value_b"]), 0)
    return g.softmax(logits), value


@dataclass
class StepOutput:
    attended: Optional[Tensor]  # pre-flatten attended maps (heatmap source)
    probs: Tensor
    value: Tensor
    next_attention_state: Optional[Tensor]  # (B, 2, d): h_t, C_t


def model_step(g: Graph, params: Params, config: ModelConfig, x_l: Tensor,
               image: Tensor, prev: Optional[Tensor]) -> StepOutput:
    """Full per-frame forward pass of a batch of images (B, 3, H, W):
    image encoder, fusion, policy heads. Gives probabilities (B, actions)
    and values (B,).

    Raises FloatingPointError, naming the first op with a non-finite
    output, if the action probabilities or the value are not finite."""
    # bench/run.py passes one (3, H, W) image, lifted here to a batch of
    # one; the benchmark-only change of ROADMAP item 2 removes this line
    image = Tensor(image.data[None]) if image.data.ndim == 3 else image
    features = encode_image(g, params, config, image)
    _, attended, state, new_prev = fuse(g, params, config, x_l, features,
                                        prev)
    probs, value = policy_forward(g, params, state)
    g.check_finite(probs)
    g.check_finite(value)
    return StepOutput(attended=attended, probs=probs, value=value,
                      next_attention_state=new_prev)


# --------------------------------------------------------------------------
# Parameter counting
# --------------------------------------------------------------------------

def count_report(config: ModelConfig) -> dict[str, int]:
    """Trainable parameters in total and in the attention-application
    stage (``fusion_stage``)."""
    sizes = {n: int(np.prod(s)) for n, s in param_shapes(config).items()}
    return {
        "total": sum(sizes.values()),
        "fusion_stage": sum(sizes.get(n, 0) for n in ("had_w", "had_b")),
    }


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

def config_digest(config: ModelConfig) -> str:
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def save_params(path, params: Params, config: ModelConfig) -> None:
    """Flat binary: magic, version, config digest, then raw little-endian
    float64 tensors in declaration order. A text manifest sits alongside."""
    digest = config_digest(config).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(digest)))
        fh.write(digest)
        for _, tensor in params.items():
            fh.write(tensor.data.astype("<f8").tobytes())
    manifest = "".join(
        f"{name} {' '.join(str(s) for s in tensor.data.shape)}\n"
        for name, tensor in params.items())
    with open(str(path) + ".manifest.txt", "w") as fh:
        fh.write(manifest)


def load_params(path, config: ModelConfig) -> Params:
    digest = config_digest(config).encode("ascii")
    with open(path, "rb") as fh:

        def read(n: int, what: str) -> bytes:
            raw = fh.read(n)
            if len(raw) != n:
                raise ValueError(f"{path}: truncated {what}")
            return raw

        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a parameter checkpoint")
        (version,) = struct.unpack("<I", read(4, "version"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (dlen,) = struct.unpack("<I", read(4, "digest length"))
        if dlen != len(digest) or read(dlen, "config digest") != digest:
            raise ValueError(f"{path}: checkpoint config digest mismatch")
        tensors: dict[str, Tensor] = {}
        for name, shape in param_shapes(config).items():
            n = int(np.prod(shape))
            raw = read(n * 8, f"tensor {name}")
            data = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
            tensors[name] = Tensor(data, requires_grad=True)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after last tensor")
    return Params(tensors)
