"""Reverse-mode automatic differentiation on a flat tape.

Tensors wrap double-precision numpy arrays. A Graph records every operation
in the order it executes; because operands must already exist when an op is
recorded, append order is a valid topological order and the backward pass is
a single reverse sweep over the tape.

Gradient semantics: leaf tensors created with ``requires_grad=True``
accumulate into ``.grad`` across repeated ``backward`` calls until the caller
resets them (multi-step rollouts rely on this). Intermediate gradients are
scratch storage local to one backward sweep.

Lifetime: a tensor holds no reference to its graph; only the graph refers to
its nodes and their outputs. The tape is therefore acyclic, and reference
counting frees it, with every array its backward closures keep, as soon as
the last reference to the ``Graph`` is dropped, without waiting for the
cyclic garbage collector. Ownership is checked through the tape index
instead: a graph owns an op output ``t`` when ``t.node`` is in range and
``nodes[t.node].output is t``. Ops reject operands that another graph owns,
and ``backward`` rejects a loss this graph does not own.

Finiteness: a leaf is checked once, when its ``Tensor`` is built, so a
caller cannot put NaN or Inf on the tape. Op outputs are not checked as
they are recorded; a caller checks the values it reads with
``Graph.check_finite``, which on a failure names the first op on the tape
that produced a non-finite output.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np


class Tensor:
    """N-dimensional float64 array tracked by a Graph.

    Leaves have ``node == -1``; op outputs remember the tape index of the
    node that produced them. Building a tensor rejects non-finite data;
    op outputs skip that check (see ``Graph.check_finite``).
    """

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        if type(data) is np.ndarray and data.dtype == np.float64:
            arr = data
        else:
            arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise FloatingPointError("non-finite values in tensor data")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.node = -1

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op: str, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


# Every op kind the engine registers; the gradient-check harness iterates
# this list so a new op cannot silently skip verification.
OP_KINDS = (
    "sigmoid",
    "tanh",
    "relu",
    "log",
    "add",
    "mul",
    "scale",
    "shift",
    "matvec",
    "conv2d",
    "conv1d_channels",
    "bias_add_channels",
    "mul_channels",
    "softmax",
    "concat",
    "reshape",
    "sum_all",
    "pick",
    "row",
)


class Graph:
    """Append-only operation tape with a reverse-sweep backward pass."""

    def __init__(self):
        self.nodes: list[_Node] = []

    # -- recording machinery -------------------------------------------------

    def _owns(self, t: Tensor) -> bool:
        return 0 <= t.node < len(self.nodes) and self.nodes[t.node].output is t

    def _record(self, op: str, inputs, out_data: np.ndarray,
                backward_fn: Callable) -> Tensor:
        requires_grad = False
        for t in inputs:
            if t.node >= 0 and not self._owns(t):
                raise ValueError("tensor belongs to a different graph")
            requires_grad = requires_grad or t.requires_grad
        # every op computes a float64 array from float64 operands; its
        # finiteness is checked where it is read (check_finite)
        out = Tensor.__new__(Tensor)
        out.data = out_data
        out.grad = None
        out.requires_grad = requires_grad
        out.node = len(self.nodes)
        self.nodes.append(_Node(op, tuple(inputs), out, backward_fn))
        return out

    def check_finite(self, t: Tensor) -> None:
        """Return if ``t`` is finite; otherwise raise FloatingPointError
        naming the first node on the tape whose output is non-finite."""
        if np.isfinite(t.data).all():
            return
        for i, node in enumerate(self.nodes):
            if not np.isfinite(node.output.data).all():
                raise FloatingPointError(
                    f"non-finite output of {node.op} at tape index {i}")
        raise FloatingPointError("non-finite values in a leaf tensor")

    # -- elementwise ----------------------------------------------------------

    def sigmoid(self, a: Tensor) -> Tensor:
        # exp overflow saturates cleanly: 1/(1+inf) == 0
        with np.errstate(over="ignore"):
            out = 1.0 / (1.0 + np.exp(-a.data))

        def bwd(g):
            return (g * out * (1.0 - out),)

        return self._record("sigmoid", (a,), out, bwd)

    def tanh(self, a: Tensor) -> Tensor:
        out = np.tanh(a.data)

        def bwd(g):
            return (g * (1.0 - out * out),)

        return self._record("tanh", (a,), out, bwd)

    def relu(self, a: Tensor) -> Tensor:
        out = np.maximum(a.data, 0.0)

        def bwd(g):
            return (g * (a.data > 0.0),)

        return self._record("relu", (a,), out, bwd)

    def log(self, a: Tensor) -> Tensor:
        out = np.log(a.data)

        def bwd(g):
            return (g / a.data,)

        return self._record("log", (a,), out, bwd)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ValueError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")
        out = a.data + b.data

        def bwd(g):
            return (g, g)

        return self._record("add", (a, b), out, bwd)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.shape != b.data.shape:
            raise ValueError(f"mul: shape mismatch {a.data.shape} vs {b.data.shape}")
        out = a.data * b.data

        def bwd(g):
            return (g * b.data, g * a.data)

        return self._record("mul", (a, b), out, bwd)

    def scale(self, a: Tensor, alpha: float) -> Tensor:
        alpha = float(alpha)
        out = a.data * alpha

        def bwd(g):
            return (g * alpha,)

        return self._record("scale", (a,), out, bwd)

    def shift(self, a: Tensor, beta: float) -> Tensor:
        out = a.data + float(beta)

        def bwd(g):
            return (g,)

        return self._record("shift", (a,), out, bwd)

    # -- linear algebra ---------------------------------------------------------

    def matvec(self, w: Tensor, v: Tensor) -> Tensor:
        if w.data.ndim != 2 or v.data.ndim != 1:
            raise ValueError("matvec expects a matrix and a vector")
        if w.data.shape[1] != v.data.shape[0]:
            raise ValueError(f"matvec: {w.data.shape} x {v.data.shape}")
        out = w.data @ v.data

        def bwd(g):
            return (np.outer(g, v.data), w.data.T @ g)

        return self._record("matvec", (w, v), out, bwd)

    # -- convolutions ----------------------------------------------------------

    def conv2d(self, x: Tensor, kernels: Tensor, stride: int = 1) -> Tensor:
        """Valid (unpadded) 2-D convolution over channel-major images.

        x: (c_in, H, W), kernels: (c_out, c_in, k, k). Output spatial dims
        are ho = floor((H - k) / stride) + 1 by the same wo in W.

        im2col lays the patches out as columns, ``cols`` of shape
        (c_in*k*k, ho*wo), rows in (channel, kernel row, kernel column)
        order, so the forward is the single product
        ``kernels.reshape(c_out, c_in*k*k) @ cols`` and its result is the
        output in (c_out, ho, wo) order with no transpose. The backward
        reuses ``cols`` for the kernel gradient and folds the column
        gradient back onto the image one (kernel row, kernel column) offset
        at a time.
        """
        if x.data.ndim != 3 or kernels.data.ndim != 4:
            raise ValueError("conv2d expects (c,H,W) input and (o,c,k,k) kernels")
        c_in, h, w = x.data.shape
        c_out, kc, k, k2 = kernels.data.shape
        if kc != c_in:
            raise ValueError(f"conv2d: channel mismatch {c_in} vs {kc}")
        if k != k2:
            raise ValueError("conv2d: kernels must be square")
        if stride < 1:
            raise ValueError("conv2d: stride must be >= 1")
        if k > h or k > w:
            raise ValueError(f"conv2d: kernel {k} larger than input {h}x{w}")
        ho = (h - k) // stride + 1
        wo = (w - k) // stride + 1
        # one copy of the strided patch view gives the GEMM operand directly
        cols = np.ascontiguousarray(
            _conv_patches(x.data, k, stride)).reshape(c_in * k * k, ho * wo)
        k2 = kernels.data.reshape(c_out, c_in * k * k)
        out = (k2 @ cols).reshape(c_out, ho, wo)
        in_shape = x.data.shape
        need_gx = x.requires_grad  # skipping the fold for constant images

        def bwd(g):
            g2 = g.reshape(c_out, ho * wo)
            gk = (g2 @ cols.T).reshape(c_out, c_in, k, k)
            gx = None
            if need_gx:
                gcols = (k2.T @ g2).reshape(c_in, k, k, ho, wo)
                gx = np.zeros(in_shape)
                for a in range(k):
                    for b in range(k):
                        gx[:, a:a + ho * stride:stride,
                           b:b + wo * stride:stride] += gcols[:, a, b]
            return (gx, gk)

        return self._record("conv2d", (x, kernels), out, bwd)

    def conv1d_channels(self, features: Tensor, attention: Tensor) -> Tensor:
        """Contract a length-d vector against the d channels at every pixel.

        out[0, i, j] = sum_c attention[c] * features[c, i, j]
        """
        if features.data.ndim != 3 or attention.data.ndim != 1:
            raise ValueError("conv1d_channels expects (d,H,W) and (d,)")
        if features.data.shape[0] != attention.data.shape[0]:
            raise ValueError(
                f"conv1d_channels: {features.data.shape[0]} channels vs "
                f"attention length {attention.data.shape[0]}")
        d, fh, fw = features.data.shape
        f2 = features.data.reshape(d, fh * fw)
        out = (attention.data @ f2).reshape(1, fh, fw)

        def bwd(g):
            gflat = g.reshape(fh * fw)
            gf = np.outer(attention.data, gflat).reshape(d, fh, fw)
            ga = f2 @ gflat
            return (gf, ga)

        return self._record("conv1d_channels", (features, attention), out, bwd)

    def bias_add_channels(self, x: Tensor, b: Tensor) -> Tensor:
        if x.data.ndim != 3 or b.data.ndim != 1 or x.data.shape[0] != b.data.shape[0]:
            raise ValueError(f"bias_add_channels: {x.data.shape} vs {b.data.shape}")
        out = x.data + b.data[:, None, None]

        def bwd(g):
            return (g, g.sum(axis=(1, 2)))

        return self._record("bias_add_channels", (x, b), out, bwd)

    def mul_channels(self, x: Tensor, a: Tensor) -> Tensor:
        """Scale each channel plane of x by the matching entry of a."""
        if x.data.ndim != 3 or a.data.ndim != 1 or x.data.shape[0] != a.data.shape[0]:
            raise ValueError(f"mul_channels: {x.data.shape} vs {a.data.shape}")
        out = x.data * a.data[:, None, None]

        def bwd(g):
            return (g * a.data[:, None, None], (g * x.data).sum(axis=(1, 2)))

        return self._record("mul_channels", (x, a), out, bwd)

    # -- shape & reduction -------------------------------------------------------

    def softmax(self, logits: Tensor) -> Tensor:
        if logits.data.ndim != 1 or logits.data.size < 1:
            raise ValueError("softmax expects a non-empty 1-D tensor")
        z = logits.data - logits.data.max()
        e = np.exp(z)
        out = e / e.sum()

        def bwd(g):
            return (out * (g - np.dot(g, out)),)

        return self._record("softmax", (logits,), out, bwd)

    def concat(self, parts: Sequence[Tensor]) -> Tensor:
        parts = tuple(parts)
        if not parts:
            raise ValueError("concat of nothing")
        for p in parts:
            if p.data.ndim != 1:
                raise ValueError("concat expects 1-D tensors")
        out = np.concatenate([p.data for p in parts])
        sizes = [p.data.size for p in parts]

        def bwd(g):
            grads = []
            pos = 0
            for n in sizes:
                grads.append(g[pos:pos + n])
                pos += n
            return tuple(grads)

        return self._record("concat", parts, out, bwd)

    def reshape(self, a: Tensor, shape) -> Tensor:
        out = a.data.reshape(shape)
        in_shape = a.data.shape

        def bwd(g):
            return (g.reshape(in_shape),)

        return self._record("reshape", (a,), out, bwd)

    def flatten(self, a: Tensor) -> Tensor:
        return self.reshape(a, (a.data.size,))

    def sum_all(self, a: Tensor) -> Tensor:
        out = np.asarray(a.data.sum())
        in_shape = a.data.shape

        def bwd(g):
            return (np.full(in_shape, float(g)),)

        return self._record("sum_all", (a,), out, bwd)

    def pick(self, a: Tensor, index: int) -> Tensor:
        if a.data.ndim != 1:
            raise ValueError("pick expects a 1-D tensor")
        if not 0 <= index < a.data.size:
            raise ValueError(f"pick index {index} out of range {a.data.size}")
        out = np.asarray(a.data[index])

        def bwd(g):
            gx = np.zeros(a.data.shape)
            gx[index] = float(g)
            return (gx,)

        return self._record("pick", (a,), out, bwd)

    def row(self, m: Tensor, index: int) -> Tensor:
        if m.data.ndim != 2:
            raise ValueError("row expects a 2-D tensor")
        if not 0 <= index < m.data.shape[0]:
            raise ValueError(f"row index {index} out of range {m.data.shape[0]}")
        out = m.data[index].copy()

        def bwd(g):
            gm = np.zeros(m.data.shape)
            gm[index] = g
            return (gm,)

        return self._record("row", (m,), out, bwd)

    # -- backward ----------------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Populate .grad on every requires_grad leaf reachable from loss.

        Repeated calls accumulate. Intermediate gradients are recomputed
        each call, so two sweeps exactly double the leaf gradients.
        """
        if not self._owns(loss):
            raise ValueError("loss was not produced on this graph")
        if loss.data.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        scratch: list[Optional[np.ndarray]] = [None] * len(self.nodes)
        owned = [False] * len(self.nodes)
        scratch[loss.node] = np.ones_like(loss.data)
        owned[loss.node] = True
        for i in range(loss.node, -1, -1):
            g = scratch[i]
            if g is None:
                continue
            node = self.nodes[i]
            if not node.output.requires_grad:
                continue
            grads = node.backward_fn(g)
            for t, gt in zip(node.inputs, grads):
                if gt is None or not t.requires_grad:
                    continue
                if t.node >= 0:
                    j = t.node
                    if scratch[j] is None:
                        # borrow the closure's array; copy only on reuse
                        scratch[j] = gt
                    elif owned[j]:
                        scratch[j] += gt
                    else:
                        scratch[j] = scratch[j] + gt
                        owned[j] = True
                else:
                    if t.grad is None:
                        t.grad = gt.copy()
                    else:
                        t.grad += gt


def _conv_patches(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Read-only (c, k, k, ho, wo) view: [c, a, b, i, j] is
    x[c, i * stride + a, j * stride + b]."""
    c, h, w = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    s0, s1, s2 = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(c, k, k, ho, wo),
        strides=(s0, s1, s2, s1 * stride, s2 * stride),
        writeable=False,
    )
