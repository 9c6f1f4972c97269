"""Reverse-mode automatic differentiation on a flat tape.

Tensors wrap double-precision numpy arrays. A Graph records every operation
in the order it executes; because operands must already exist when an op is
recorded, append order is a valid topological order and the backward pass is
a single reverse sweep over the tape.

Gradient semantics: leaf tensors created with ``requires_grad=True``
accumulate into ``.grad`` until the caller resets them, so a leaf read by
several nodes in one sweep (a weight read on every frame of a rollout) gets
their sum; the trainer runs one ``backward`` per rollout, after
``zero_grads``. Intermediate gradients are scratch storage local to one
sweep; a closure's array is borrowed, never added into, since ``add`` hands
one array to both inputs.

Lifetime: a tape lives as long as its ``Graph``, and keeps each node's
inputs and output plus what its backward reads. conv2d keeps no im2col
columns (its backward rebuilds them from its input), and ``backward`` frees
each intermediate gradient once its node has passed it on. A tensor holds
no reference to its graph, so the tape is acyclic: reference counting frees
it, with every array its closures keep, as soon as the last reference to the
``Graph`` is dropped, without the cyclic garbage collector. So a forward
read only as data (an eval frame, the bootstrap) runs on a ``Graph`` of its
own, fed leaves ``Tensor(t.data)``. Ownership is checked through the tape
index: a graph owns an op output ``t`` when ``t.node`` is in range and
``nodes[t.node].output is t``. Ops reject operands that another graph owns,
and ``backward`` rejects a loss this graph does not own.

Batches: every per-frame operand carries one leading batch axis B, and a
call is one node for all B rows; one environment is a batch of one.
Parameter operands (matvec and lstm_cell weights and biases, conv2d
kernels, the bias of bias_add_channels, the matrix an embedding ``row``
looks up) never carry the axis: the rows share them, and their gradient is
summed over the rows. The other operands carry it together: a matvec input
(B, n), an image batch (B, c, H, W), attention rows (B, d). Elementwise
ops and reshape take any shape, ``sum_all`` sums every entry of every row
into one scalar, and the ``scale``/``shift`` constant and the
``pick``/``row`` index are one value for every row or one per row.

Finiteness: a leaf is checked once, when its ``Tensor`` is built, so a
caller cannot put NaN or Inf on the tape. Op outputs are not checked as
they are recorded; a caller checks the values it reads with
``Graph.check_finite``, which on a failure names the first op on the tape
that produced a non-finite output.
"""

from __future__ import annotations

from functools import lru_cache
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
    "lstm_cell",
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

    def scale(self, a: Tensor, alpha) -> Tensor:
        """``a * alpha``; alpha is one number, or one per row of a batch."""
        alpha = _per_row(alpha, a, "scale")
        out = a.data * alpha

        def bwd(g):
            return (g * alpha,)

        return self._record("scale", (a,), out, bwd)

    def shift(self, a: Tensor, beta) -> Tensor:
        """``a + beta``; beta is one number, or one per row of a batch."""
        out = a.data + _per_row(beta, a, "shift")

        def bwd(g):
            return (g,)

        return self._record("shift", (a,), out, bwd)

    # -- linear algebra ---------------------------------------------------------

    def matvec(self, w: Tensor, v: Tensor, b: Tensor) -> Tensor:
        """Affine map ``w @ v + b`` of each row of a batch v (B, n) as one
        tape node: w (rows, n) and b (rows,) give (B, rows)."""
        if w.data.ndim != 2 or v.data.ndim != 2:
            raise ValueError("matvec expects a matrix and a batch of vectors")
        if w.data.shape[1] != v.data.shape[1]:
            raise ValueError(f"matvec: {w.data.shape} x {v.data.shape}")
        if b.data.shape != (w.data.shape[0],):
            raise ValueError(f"matvec: bias {b.data.shape} for {w.data.shape}")
        out = v.data @ w.data.T
        out += b.data

        def bwd(g):
            # np.dot: matmul's (rows, 1) @ (1, n) is about 5x slower at B = 1
            return (np.dot(g.T, v.data), g @ w.data, g.sum(axis=0))

        return self._record("matvec", (w, v, b), out, bwd)

    # -- recurrent cell --------------------------------------------------------

    def lstm_cell(self, hx: Tensor, c_prev: Tensor, wf: Tensor, bf: Tensor,
                  w: Tensor, b: Tensor) -> Tensor:
        """One LSTM step of a batch as one tape node. Its output is (B, 2, d):
        row 0 of each is the new h and row 1 the new cell state c.

        hx (B, n) is the gate input, the previous h first; c_prev is (B, d).
        The input, candidate and output gates read all of hx through one
        stacked (3d, n) weight w and (3d,) bias b, their rows in i, c, o
        order, so one product z gives the three pre-activations in its
        column blocks. The forget gate reads ``hx[:nf]`` through its (d, nf)
        weight, so nf = d wires it to the previous h alone and nf = n to the
        whole input::

            z = w @ hx + b                     f = sigmoid(wf @ hx[:nf] + bf)
            i = sigmoid(z[:d])   cbar = tanh(z[d:2d])   o = sigmoid(z[2d:])
            c = f * c_prev + i * cbar          h = o * tanh(c)

        Every value and every product of the backward is formed as the
        matvec, reshape (B, 3, d), row, sigmoid, tanh, mul and add ops would
        form it, and the hx gradient is summed in their reverse-sweep order,
        so the node is bit-identical to that 16-node composition.
        """
        if (hx.data.ndim != 2 or c_prev.data.ndim != 2
                or len(hx.data) != len(c_prev.data) or wf.data.ndim != 2):
            raise ValueError("lstm_cell expects (B, n) input and (B, d) cell "
                             "state rows and a 2-D forget weight")
        d, n, nf = c_prev.data.shape[1], hx.data.shape[1], wf.data.shape[1]
        if (wf.data.shape[0] != d or not 0 < nf <= n
                or w.data.shape != (3 * d, n)
                or (bf.data.shape, b.data.shape) != ((d,), (3 * d,))):
            raise ValueError(
                f"lstm_cell: input {hx.data.shape}, cell {c_prev.data.shape}, "
                f"forget weight {wf.data.shape}, gate weight {w.data.shape}")
        v = hx.data
        vf = v[:, :nf]
        zf = vf @ wf.data.T
        zf += bf.data
        z = v @ w.data.T
        z += b.data
        with np.errstate(over="ignore"):  # as in sigmoid
            f = 1.0 / (1.0 + np.exp(-zf))
            i = 1.0 / (1.0 + np.exp(-z[:, :d]))
            o = 1.0 / (1.0 + np.exp(-z[:, 2 * d:]))
        cbar = np.tanh(z[:, d:2 * d])
        out = np.empty((len(v), 2, d))
        h, c = out[:, 0], out[:, 1]
        np.multiply(f, c_prev.data, out=c)
        c += i * cbar
        tc = np.tanh(c)
        np.multiply(o, tc, out=h)

        def bwd(g):
            gh = g[:, 0]
            gc = g[:, 1] + gh * o * (1.0 - tc * tc)
            dz = np.empty_like(z)
            dz[:, :d] = gc * cbar * i * (1.0 - i)
            dz[:, d:2 * d] = gc * i * (1.0 - cbar * cbar)
            dz[:, 2 * d:] = gh * tc * o * (1.0 - o)
            dzf = gc * c_prev.data * f * (1.0 - f)
            ghx = dz @ w.data
            ghx[:, :nf] += dzf @ wf.data
            return (ghx, gc * f, np.dot(dzf.T, vf), dzf.sum(axis=0),
                    np.dot(dz.T, v), dz.sum(axis=0))

        return self._record("lstm_cell", (hx, c_prev, wf, bf, w, b), out, bwd)

    # -- convolutions ----------------------------------------------------------

    def conv2d(self, x: Tensor, kernels: Tensor, stride: int = 1) -> Tensor:
        """Valid (unpadded) 2-D convolution over a batch of channel-major
        images.

        x: (B, c_in, H, W); kernels: (c_out, c_in, k, k). The output is
        (B, c_out, ho, wo), where ho = floor((H - k) / stride) + 1 and wo
        is the same in W.

        im2col lays the patches out as columns, ``cols`` of shape
        (c_in*k*k, B*ho*wo), rows in (channel, kernel row, kernel column)
        order and columns in (image, output row, output column) order, so
        the forward is the single product
        ``kernels.reshape(c_out, c_in*k*k) @ cols``. The output is a
        transposed view of that (c_out, B, ho, wo) product. The backward
        rebuilds ``cols`` from ``x`` for the kernel gradient, and folds the
        column gradient back onto the images with one ``np.bincount`` over
        ``_fold_index``, the flat input position of every column entry.
        That index runs in the columns' row order, so bincount adds each
        input element's contributions from 0.0 in ascending (kernel row,
        kernel column) order, as k*k strided slab adds onto a zeroed image
        would: the result is bit-identical to that loop.
        """
        if x.data.ndim != 4 or kernels.data.ndim != 4:
            raise ValueError("conv2d expects (B,c,H,W) input and (o,c,k,k) "
                             "kernels")
        batch, c_in, h, w = x.data.shape
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
        k2 = kernels.data.reshape(c_out, c_in * k * k)
        out = (k2 @ _im2col(x.data, k, stride)).reshape(
            c_out, batch, ho, wo).transpose(1, 0, 2, 3)
        in_shape = x.data.shape
        need_gx = x.requires_grad  # skipping the fold for constant images

        def bwd(g):
            g2 = g.transpose(1, 0, 2, 3).reshape(c_out, -1)
            gk = (g2 @ _im2col(x.data, k, stride).T).reshape(c_out, c_in, k, k)
            gx = None
            if need_gx:
                gcols = k2.T @ g2
                gx = np.bincount(_fold_index(in_shape, k, stride),
                                 weights=gcols.reshape(-1),
                                 minlength=x.data.size).reshape(in_shape)
            return (gx, gk)

        return self._record("conv2d", (x, kernels), out, bwd)

    def conv1d_channels(self, features: Tensor, attention: Tensor) -> Tensor:
        """Contract a length-d vector against the d channels at every pixel,
        pairing features (B, d, H, W) with attention (B, d) row by row:

        out[b, 0, i, j] = sum_c attention[b, c] * features[b, c, i, j]
        """
        if (features.data.ndim != 4 or attention.data.ndim != 2
                or len(attention.data) != len(features.data)):
            raise ValueError("conv1d_channels expects (B,d,H,W) and (B,d)")
        batch, d, fh, fw = features.data.shape
        if attention.data.shape[1] != d:
            raise ValueError(
                f"conv1d_channels: {d} channels vs attention length "
                f"{attention.data.shape[1]}")
        f2 = features.data.reshape(batch, d, fh * fw)
        a = attention.data
        out = (a[:, None, :] @ f2).reshape(batch, 1, fh, fw)

        def bwd(g):
            gflat = g.reshape(batch, fh * fw)
            gf = (a[:, :, None] * gflat[:, None, :]).reshape(
                features.data.shape)
            ga = (f2 @ gflat[:, :, None])[:, :, 0]
            return (gf, ga)

        return self._record("conv1d_channels", (features, attention), out, bwd)

    def bias_add_channels(self, x: Tensor, b: Tensor) -> Tensor:
        """Add b[c] to channel plane c of every image of a batch (B, c, H,
        W)."""
        if (x.data.ndim != 4 or b.data.ndim != 1
                or x.data.shape[1] != b.data.shape[0]):
            raise ValueError(f"bias_add_channels: {x.data.shape} vs {b.data.shape}")
        out = x.data + b.data[:, None, None]

        def bwd(g):
            return (g, g.sum(axis=(2, 3)).sum(axis=0))

        return self._record("bias_add_channels", (x, b), out, bwd)

    def mul_channels(self, x: Tensor, a: Tensor) -> Tensor:
        """Scale each channel plane of x by the matching entry of a, pairing
        x (B, d, H, W) with a (B, d) row by row."""
        if (x.data.ndim != 4 or a.data.ndim != 2
                or a.data.shape != x.data.shape[:2]):
            raise ValueError(f"mul_channels: {x.data.shape} vs {a.data.shape}")
        out = x.data * a.data[:, :, None, None]

        def bwd(g):
            return (g * a.data[:, :, None, None], (g * x.data).sum(axis=(2, 3)))

        return self._record("mul_channels", (x, a), out, bwd)

    # -- shape & reduction -------------------------------------------------------

    def softmax(self, logits: Tensor) -> Tensor:
        """Softmax of each row of a batch (B, n)."""
        if logits.data.ndim != 2 or logits.data.shape[1] < 1:
            raise ValueError("softmax expects a batch (B, n) of non-empty rows")
        x = logits.data
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        out = e / e.sum(axis=1, keepdims=True)

        def bwd(g):
            # one np.dot(g, out) per row
            return (out * (g - (g[:, None, :] @ out[:, :, None])[:, 0]),)

        return self._record("softmax", (logits,), out, bwd)

    def concat(self, parts: Sequence[Tensor]) -> Tensor:
        """Join the rows of batches (B, n_i) of one B end to end, into
        (B, sum n_i)."""
        parts = tuple(parts)
        if not parts:
            raise ValueError("concat of nothing")
        batch = len(parts[0].data)
        for p in parts:
            if p.data.ndim != 2 or len(p.data) != batch:
                raise ValueError("concat expects batches (B, n) of one B")
        out = np.concatenate([p.data for p in parts], axis=1)
        sizes = [p.data.shape[1] for p in parts]

        def bwd(g):
            grads = []
            pos = 0
            for n in sizes:
                grads.append(g[:, pos:pos + n])
                pos += n
            return tuple(grads)

        return self._record("concat", parts, out, bwd)

    def reshape(self, a: Tensor, shape) -> Tensor:
        """Any reshape; the caller passes the batched shape."""
        out = a.data.reshape(shape)
        in_shape = a.data.shape

        def bwd(g):
            return (g.reshape(in_shape),)

        return self._record("reshape", (a,), out, bwd)

    def sum_all(self, a: Tensor) -> Tensor:
        """Sum of every entry, over the rows of a batch too: a scalar."""
        out = np.asarray(a.data.sum())
        in_shape = a.data.shape

        def bwd(g):
            return (np.full(in_shape, float(g)),)

        return self._record("sum_all", (a,), out, bwd)

    def pick(self, a: Tensor, index) -> Tensor:
        """Entry ``index`` of each row of a batch (B, n), giving (B,), where
        index is one int or one per row."""
        if a.data.ndim != 2:
            raise ValueError("pick expects a batch (B, n)")
        return self._take("pick", a, index)

    def row(self, m: Tensor, index) -> Tensor:
        """Row ``index`` of each matrix of a batch (B, rows, n), giving
        (B, n), where index is one int or one per matrix; or, for one shared
        matrix (rows, n) and a sequence of B indices, those B rows (B, n): a
        batch of lookups, such as embeddings."""
        if m.data.ndim == 3:
            return self._take("row", m, index)
        if m.data.ndim != 2 or isinstance(index, (int, np.integer)):
            raise ValueError("row expects a batch of matrices, or one matrix "
                             "and a sequence of indices")
        _, rows = _each_row(index, (len(index), m.data.shape[0]), "row")
        out = m.data[rows]

        def bwd(g):
            gm = np.zeros(m.data.shape)
            np.add.at(gm, rows, g)  # a repeated row sums its gradients in order
            return (gm,)

        return self._record("row", (m,), out, bwd)

    def _take(self, op: str, a: Tensor, index) -> Tensor:
        """The ``pick`` or ``row`` node (``op``) that takes entry ``index``
        along axis 1 of each row of the batch ``a``."""
        entries = _each_row(index, a.data.shape[:2], op)
        out = a.data[entries]

        def bwd(g):
            ga = np.zeros(a.data.shape)
            ga[entries] = g
            return (ga,)

        return self._record(op, (a,), out, bwd)

    # -- backward ----------------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Populate .grad on every requires_grad leaf reachable from loss.

        Repeated calls accumulate. Intermediate gradients are recomputed
        each call, so two sweeps exactly double the leaf gradients. A
        closure's array is borrowed: a later gradient makes a new sum.
        """
        if not self._owns(loss):
            raise ValueError("loss was not produced on this graph")
        if loss.data.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        scratch: list[Optional[np.ndarray]] = [None] * len(self.nodes)
        scratch[loss.node] = np.ones_like(loss.data)
        for i in range(loss.node, -1, -1):
            g = scratch[i]
            if g is None:
                continue
            node = self.nodes[i]
            if not node.output.requires_grad:
                continue
            grads = node.backward_fn(g)
            scratch[i] = None  # passed on below; a later sweep recomputes it
            for t, gt in zip(node.inputs, grads):
                if gt is None or not t.requires_grad:
                    continue
                if t.node >= 0:
                    j = t.node
                    scratch[j] = gt if scratch[j] is None else scratch[j] + gt
                elif t.grad is None:
                    t.grad = gt.copy()
                else:
                    t.grad += gt


def _per_row(value, a: Tensor, op: str):
    """A scale or shift constant as a float, or as one value per row of the
    batch ``a``, shaped to broadcast over the row."""
    if isinstance(value, (int, float)):
        return float(value)
    value = np.asarray(value, dtype=np.float64)
    if value.ndim == 0:
        return float(value)
    if value.shape != a.data.shape[:1]:
        raise ValueError(f"{op}: {value.shape} constants for {a.data.shape}")
    return value.reshape(value.shape + (1,) * (a.data.ndim - 1))


def _each_row(index, shape: tuple[int, int], op: str) -> tuple:
    """The numpy index of entry ``index`` of each of ``shape[0]`` rows of
    ``shape[1]`` entries: a basic slice for one int, or (rows, ints) for
    one int per row."""
    rows, size = shape
    if isinstance(index, (int, np.integer)):
        if not 0 <= index < size:
            raise ValueError(f"{op} index {index} out of range {size}")
        return (slice(None), index)
    idx = np.asarray(index)
    if idx.shape != (rows,) or (rows and idx.dtype.kind not in "iu"):
        raise ValueError(f"{op}: {idx.shape} indices for {rows} rows")
    bad = (idx < 0) | (idx >= size)
    if bad.any():
        raise ValueError(f"{op} index {int(idx[bad][0])} out of range {size}")
    return (np.arange(rows), idx)


def _im2col(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """conv2d's column matrix (c*k*k, B*ho*wo): one copy of the patch
    view, the operand of the forward GEMM and of the kernel gradient."""
    return np.ascontiguousarray(_conv_patches(x, k, stride)).reshape(
        x.shape[1] * k * k, -1)


def _conv_patches(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Read-only patch view of a batch of channel-major images (B, c, H,
    W): (c, k, k, B, ho, wo), where [c, a, b, n, i, j] is
    x[n, c, i * stride + a, j * stride + b].

    Built with the ``np.ndarray`` constructor over the contiguous input's
    buffer, which costs less per call than ``as_strided``."""
    batch, c, h, w = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    x = np.ascontiguousarray(x)
    sn, s0, s1, s2 = x.strides
    view = np.ndarray((c, k, k, batch, ho, wo), x.dtype, buffer=x,
                      strides=(s0, s1, s2, sn, s1 * stride, s2 * stride))
    view.flags.writeable = False
    return view


@lru_cache(maxsize=16)
def _fold_index(shape: tuple[int, ...], k: int, stride: int) -> np.ndarray:
    """Read-only flat index: the position in a flattened (B, c, H, W)
    input of every entry of conv2d's column matrix."""
    index = np.ascontiguousarray(
        _conv_patches(np.arange(int(np.prod(shape))).reshape(shape), k, stride)
    ).reshape(-1)
    index.flags.writeable = False
    return index
