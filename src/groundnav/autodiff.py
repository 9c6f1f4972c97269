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

Lifetime: a node keeps the tape index of each op-output operand, each leaf
operand itself, a weak reference to its output, and its backward closure,
which keeps only the arrays or shapes that backward reads. So an op output
that neither the caller nor a closure reads is freed at once: conv2d's raw
maps go as soon as ``bias_add_channels``, whose backward reads nothing, has
added the bias. conv2d keeps no im2col columns (its backward rebuilds them
from its input), and ``backward`` frees each intermediate gradient once its
node has passed it on. A tensor holds no reference to its graph, so the
tape is acyclic: reference counting frees it, with every array its closures
keep, as soon as the last reference to the ``Graph`` is dropped, without
the cyclic garbage collector. Closures keep what they read until then, so
a forward read only as data (an eval frame, the bootstrap) still runs on a
``Graph`` of its own, fed leaves ``Tensor(t.data)``. Ownership is checked
through the tape index: a graph owns an op output ``t`` when ``t.node`` is
in range and ``nodes[t.node].output is t``. Ops reject operands that
another graph owns, and ``backward`` rejects a loss this graph does not
own.

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

Threads: ``backward`` runs on the calling thread, apart from conv2d's large
kernel gradients. When the kernels are a leaf and the product that forms
their gradient has at least ``OFFLOAD_MIN_MACS`` multiply-adds, conv2d's
backward returns that gradient as a callable, and ``backward`` runs it on
one helper thread, started at the first such callable. No later node of the
sweep reads a leaf gradient, so the calling thread goes on with the sweep
meanwhile. From a leaf's first callable on, every contribution to that leaf
goes to the helper, which adds them in the order the sweep made them; so
each ``.grad`` is the same sum in the same order as on one thread, each
product is formed whole on one thread, and the result is bit-identical.
``backward`` waits for every job and ends the helper before it returns or
raises, re-raising the helper's first failure: no thread outlives the call.

Finiteness: a leaf is checked once, when its ``Tensor`` is built, so a
caller cannot put NaN or Inf on the tape. Op outputs are not checked as
they are recorded; a caller checks the values it reads with
``Graph.check_finite``, which on a failure names the first op on the tape
whose output is non-finite. It sees only the output tensors that something
still holds: the caller, or a closure that keeps the tensor itself (relu's).
Other closures keep arrays, so an output they alone read is not seen.
"""

from __future__ import annotations

import queue
import threading
import weakref
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

# conv2d computes a kernel gradient of at least this many multiply-adds on
# the backward's helper thread. Measured on desk-scale lockstep training:
# offloading conv1's 1.18M product (B = 16) gained nothing, most likely as
# the helper waits for the interpreter lock while the sweep runs small ops,
# and its 2.36M product (B = 32) gained about 4% frames/s.
OFFLOAD_MIN_MACS = 2_000_000


class Tensor:
    """N-dimensional float64 array tracked by a Graph.

    Leaves have ``node == -1``; op outputs remember the tape index of the
    node that produced them. Building a tensor rejects non-finite data;
    op outputs skip that check (see ``Graph.check_finite``).
    """

    __slots__ = ("data", "grad", "requires_grad", "node", "__weakref__")

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


class _Node(weakref.ref):
    # A weak reference to the node's output, so the output lives only while
    # the caller or a closure reads it; one object per node costs less to
    # record than a node holding a reference. inputs holds the tape index of
    # each op-output operand and each leaf itself; requires_grad is the
    # output's flag, kept for backward.
    __slots__ = ("op", "inputs", "requires_grad", "backward_fn")

    @property
    def output(self) -> Optional[Tensor]:
        """The output tensor, or None once nothing holds it."""
        return self()


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
        return 0 <= t.node < len(self.nodes) and self.nodes[t.node]() is t

    def _record(self, op: str, inputs, out_data: np.ndarray,
                backward_fn: Callable) -> Tensor:
        nodes = self.nodes
        requires_grad = False
        held = []
        for t in inputs:
            i = t.node
            if i < 0:
                held.append(t)
            elif i < len(nodes) and nodes[i]() is t:  # _owns, inlined for speed
                held.append(i)
            else:
                raise ValueError("tensor belongs to a different graph")
            requires_grad = requires_grad or t.requires_grad
        # every op computes a float64 array from float64 operands; its
        # finiteness is checked where it is read (check_finite)
        out = Tensor.__new__(Tensor)
        out.data = out_data
        out.grad = None
        out.requires_grad = requires_grad
        out.node = len(nodes)
        node = _Node(out)
        node.op = op
        node.inputs = tuple(held)
        node.requires_grad = requires_grad
        node.backward_fn = backward_fn
        nodes.append(node)
        return out

    def check_finite(self, t: Tensor) -> None:
        """Return if ``t`` is finite; otherwise raise FloatingPointError
        naming the first node on the tape whose output is non-finite, among
        the outputs still held (see Finiteness in the module docstring)."""
        if np.isfinite(t.data).all():
            return
        for i, node in enumerate(self.nodes):
            out = node()
            if out is not None and not np.isfinite(out.data).all():
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

        # holds the input tensor, not only its array, so check_finite still
        # sees it: a relu follows the trunk matvec, whose overflow it names
        def bwd(g):
            return (g * (a.data > 0.0),)

        return self._record("relu", (a,), out, bwd)

    def log(self, a: Tensor) -> Tensor:
        x = a.data
        out = np.log(x)

        def bwd(g):
            return (g / x,)

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
        x, y = a.data, b.data
        out = x * y

        def bwd(g):
            return (g * y, g * x)

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
        wd, vd = w.data, v.data
        out = vd @ wd.T
        out += b.data

        def bwd(g):
            # np.dot: matmul's (rows, 1) @ (1, n) is about 5x slower at B = 1
            return (np.dot(g.T, vd), g @ wd, g.sum(axis=0))

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
        v, cp, wfd, wd = hx.data, c_prev.data, wf.data, w.data
        vf = v[:, :nf]
        zf = vf @ wfd.T
        zf += bf.data
        z = v @ wd.T
        z += b.data
        with np.errstate(over="ignore"):  # as in sigmoid
            f = 1.0 / (1.0 + np.exp(-zf))
            i = 1.0 / (1.0 + np.exp(-z[:, :d]))
            o = 1.0 / (1.0 + np.exp(-z[:, 2 * d:]))
        cbar = np.tanh(z[:, d:2 * d])
        out = np.empty((len(v), 2, d))
        h, c = out[:, 0], out[:, 1]
        np.multiply(f, cp, out=c)
        c += i * cbar
        tc = np.tanh(c)
        np.multiply(o, tc, out=h)
        z_shape = z.shape

        def bwd(g):
            gh = g[:, 0]
            gc = g[:, 1] + gh * o * (1.0 - tc * tc)
            dz = np.empty(z_shape)
            dz[:, :d] = gc * cbar * i * (1.0 - i)
            dz[:, d:2 * d] = gc * i * (1.0 - cbar * cbar)
            dz[:, 2 * d:] = gh * tc * o * (1.0 - o)
            dzf = gc * cp * f * (1.0 - f)
            ghx = dz @ wd
            ghx[:, :nf] += dzf @ wfd
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
        rebuilds ``cols`` from ``x`` for the kernel gradient, one product
        ``g2 @ cols.T``; when the kernels are a leaf and that product has at
        least ``OFFLOAD_MIN_MACS`` multiply-adds, it returns the gradient as
        a callable that ``backward`` runs on its helper thread (see Threads
        in the module docstring). It folds the column gradient back onto
        the images with one ``np.bincount`` over ``_fold_index``, the flat
        input position of every column entry.
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
        xd = x.data
        k2 = kernels.data.reshape(c_out, c_in * k * k)
        out = (k2 @ _im2col(xd, k, stride)).reshape(
            c_out, batch, ho, wo).transpose(1, 0, 2, 3)
        need_gx = x.requires_grad  # skipping the fold for constant images
        leaf = kernels.node < 0
        macs = k2.size * batch * ho * wo  # of the kernel gradient's product

        def bwd(g):
            g2 = g.transpose(1, 0, 2, 3).reshape(c_out, -1)

            def kernel_grad():
                return (g2 @ _im2col(xd, k, stride).T).reshape(
                    c_out, c_in, k, k)

            gk = kernel_grad  # a leaf's large product: backward's helper
            if not leaf or macs < OFFLOAD_MIN_MACS:
                gk = kernel_grad()
            gx = None
            if need_gx:
                gcols = k2.T @ g2
                gx = np.bincount(_fold_index(xd.shape, k, stride),
                                 weights=gcols.reshape(-1),
                                 minlength=xd.size).reshape(xd.shape)
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
                batch, d, fh, fw)
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
        xd, ad = x.data, a.data[:, :, None, None]
        out = xd * ad

        def bwd(g):
            return (g * ad, (g * xd).sum(axis=(2, 3)))

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
        m_shape = m.data.shape

        def bwd(g):
            gm = np.zeros(m_shape)
            np.add.at(gm, rows, g)  # a repeated row sums its gradients in order
            return (gm,)

        return self._record("row", (m,), out, bwd)

    def _take(self, op: str, a: Tensor, index) -> Tensor:
        """The ``pick`` or ``row`` node (``op``) that takes entry ``index``
        along axis 1 of each row of the batch ``a``."""
        entries = _each_row(index, a.data.shape[:2], op)
        out = a.data[entries]
        a_shape = a.data.shape

        def bwd(g):
            ga = np.zeros(a_shape)
            ga[entries] = g
            return (ga,)

        return self._record(op, (a,), out, bwd)

    # -- backward ----------------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Populate .grad on every requires_grad leaf reachable from loss.

        Repeated calls accumulate. Intermediate gradients are recomputed
        each call, so two sweeps exactly double the leaf gradients. A
        closure's array is borrowed: a later gradient makes a new sum. A
        closure may return a leaf's gradient as a callable; the helper
        thread computes and adds it (see Threads in the module docstring).
        """
        if not self._owns(loss):
            raise ValueError("loss was not produced on this graph")
        if loss.data.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        nodes = self.nodes
        scratch: list[Optional[np.ndarray]] = [None] * len(nodes)
        scratch[loss.node] = np.ones_like(loss.data)
        helper = None
        offloaded = set()  # the leaves whose every later sum the helper makes
        try:
            for i in range(loss.node, -1, -1):
                g = scratch[i]
                if g is None:
                    continue
                node = nodes[i]
                if not node.requires_grad:
                    continue
                grads = node.backward_fn(g)
                scratch[i] = None  # passed on below; a later sweep recomputes it
                for t, gt in zip(node.inputs, grads):
                    if gt is None:
                        continue
                    if t.__class__ is int:  # an op output's tape index
                        if nodes[t].requires_grad:
                            scratch[t] = gt if scratch[t] is None else scratch[t] + gt
                    elif not t.requires_grad:
                        continue
                    elif t in offloaded or callable(gt):
                        if helper is None:
                            helper = _Helper()
                        offloaded.add(t)
                        helper.jobs.put((t, gt))
                    else:
                        _accumulate(t, gt)
        finally:
            if helper is not None:
                helper.close()
        if helper is not None and helper.error is not None:
            raise helper.error


def _accumulate(t: Tensor, gt) -> None:
    """Add one gradient, or the callable that computes it, into leaf t."""
    if callable(gt):
        gt = gt()
    if t.grad is None:
        t.grad = gt.copy()
    else:
        t.grad += gt


class _Helper:
    """The thread that makes ``backward``'s offloaded leaf sums, one job
    ``(leaf, gradient)`` at a time in the order they are put. After its
    first failure it skips the remaining jobs and keeps the exception."""

    def __init__(self):
        self.jobs: queue.SimpleQueue = queue.SimpleQueue()
        self.error: Optional[BaseException] = None
        self.thread = threading.Thread(target=self._run,
                                       name="autodiff-backward-helper")
        self.thread.start()

    def _run(self) -> None:
        while (job := self.jobs.get()) is not None:
            if self.error is None:
                try:
                    _accumulate(*job)
                except BaseException as exc:
                    self.error = exc

    def close(self) -> None:
        """Wait for every job, then end the thread."""
        self.jobs.put(None)
        self.thread.join()


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
