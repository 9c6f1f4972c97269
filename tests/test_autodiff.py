import dataclasses
import gc
import math
import threading
import weakref

import numpy as np
import pytest

from groundnav import a3c, autodiff, gradcheck, gridnav, nets
from groundnav.autodiff import OP_KINDS, Graph, Tensor


def conv2d_loop(x, kernels, stride):
    """Brute-force valid convolution, row-major accumulation order."""
    c_in, h, w = x.shape
    c_out, _, k, _ = kernels.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    out = np.zeros((c_out, ho, wo))
    for o in range(c_out):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for c in range(c_in):
                    for a in range(k):
                        for b in range(k):
                            acc += kernels[o, c, a, b] * \
                                x[c, i * stride + a, j * stride + b]
                out[o, i, j] = acc
    return out


def conv2d_loop_adjoint(x, kernels, stride, g):
    """Gradients of sum(g * conv2d_loop(x, kernels, stride)) by the same
    loops: (d/dx, d/dkernels)."""
    c_in, _, _ = x.shape
    c_out, _, k, _ = kernels.shape
    _, ho, wo = g.shape
    gx = np.zeros_like(x)
    gk = np.zeros_like(kernels)
    for o in range(c_out):
        for i in range(ho):
            for j in range(wo):
                for c in range(c_in):
                    for a in range(k):
                        for b in range(k):
                            gx[c, i * stride + a, j * stride + b] += \
                                kernels[o, c, a, b] * g[o, i, j]
                            gk[o, c, a, b] += \
                                g[o, i, j] * x[c, i * stride + a, j * stride + b]
    return gx, gk


def slab_fold(gcols, in_shape, k, stride):
    """Fold conv2d column gradients (c_in*k*k, ho*wo) onto the input one
    (kernel row, kernel column) slab at a time: the loop conv2d's
    scatter-add must match bit for bit."""
    c_in, h, w = in_shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    gcols = gcols.reshape(c_in, k, k, ho, wo)
    gx = np.zeros(in_shape)
    for a in range(k):
        for b in range(k):
            gx[:, a:a + ho * stride:stride,
               b:b + wo * stride:stride] += gcols[:, a, b]
    return gx


def lstm_composed(g, h, x, c_prev, wf, bf, w, b):
    """The LSTM step as the 16 nodes ``lstm_cell`` fuses (concat, 2 matvec,
    a reshape of the stacked gates to (B, 3, d) and 3 row, 3 sigmoid,
    2 tanh, 3 mul, add): the reference it must match bit for bit. The
    forget gate reads h alone when wf is as wide as h."""
    hx = g.concat([h, x])
    f_in = h if wf.shape[1] == h.shape[1] else hx
    f = g.sigmoid(g.matvec(wf, f_in, bf))
    z = g.reshape(g.matvec(w, hx, b), (hx.shape[0], 3, bf.shape[0]))
    i = g.sigmoid(g.row(z, 0))
    cbar = g.tanh(g.row(z, 1))
    c = g.add(g.mul(f, c_prev), g.mul(i, cbar))
    o = g.sigmoid(g.row(z, 2))
    return g.mul(o, g.tanh(c)), c


def lstm_fused(g, h, x, c_prev, *weights):
    hc = g.lstm_cell(g.concat([h, x]), c_prev, *weights)
    return g.row(hc, 0), g.row(hc, 1)


def conv2d_input_grad(x, kern, stride, weights):
    """x.grad of sum(weights * conv2d(x, kern)) for one image x, a batch of
    one, next to the slab fold of the same column gradient."""
    x = Tensor(x[None], requires_grad=True)
    g = Graph()
    out = g.conv2d(x, Tensor(kern), stride=stride)
    g.backward(g.sum_all(g.mul(out, Tensor(weights[None]))))
    c_out, _, k, _ = kern.shape
    gcols = kern.reshape(c_out, -1).T @ weights.reshape(c_out, -1)
    return x.grad[0], slab_fold(gcols, x.shape[1:], k, stride)


def conv1d_channels_loop(features, attention):
    d, h, w = features.shape
    out = np.zeros((1, h, w))
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for c in range(d):
                acc += attention[c] * features[c, i, j]
            out[0, i, j] = acc
    return out


class TestElementwise:
    def test_sigmoid_zero(self):
        g = Graph()
        out = g.sigmoid(Tensor([0.0]))
        assert out.data == pytest.approx([0.5])

    def test_tanh_zero(self):
        g = Graph()
        assert g.tanh(Tensor([0.0])).data == pytest.approx([0.0])

    def test_relu(self):
        g = Graph()
        out = g.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_mul_forward_and_gradient(self):
        g = Graph()
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        out = g.mul(a, b)
        np.testing.assert_array_equal(out.data, [8.0, 15.0])
        g.backward(g.sum_all(out))
        # d(out)/d(a) = b, checked against central finite differences
        step = 1e-5
        for i in range(2):
            av = a.data.copy()
            ap, am = av.copy(), av.copy()
            ap[i] += step
            am[i] -= step
            fd = ((ap * b.data).sum() - (am * b.data).sum()) / (2 * step)
            assert abs(a.grad[i] - fd) / max(abs(fd), 1e-3) < 1e-4
        np.testing.assert_allclose(a.grad, b.data)
        np.testing.assert_allclose(b.grad, a.data)

    def test_binary_shape_mismatch(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add(Tensor([1.0]), Tensor([1.0, 2.0]))

    @pytest.mark.parametrize("bias_shape", [(2,), (3, 1), ()])
    def test_matvec_bias_shape_rejected(self, bias_shape):
        g = Graph()
        with pytest.raises(ValueError, match="bias"):
            g.matvec(Tensor(np.ones((3, 2))), Tensor(np.ones((1, 2))),
                     Tensor(np.zeros(bias_shape)))


class TestLstmCell:
    @pytest.mark.parametrize("reads", ["h", "c", "both"])
    @pytest.mark.parametrize("forget_sees_input", [True, False])
    def test_matches_composition_bitwise(self, forget_sees_input, reads):
        # as in a rollout: the previous state is read before the step (the
        # applied attention), and the new c reaches the loss more than once
        rng = np.random.default_rng(11)
        d, n = 5, 7
        nf = d + n if forget_sees_input else d
        # h, x and c_prev are a batch of one
        shapes = [(1, d), (1, n), (1, d), (d, nf), (d,), (3 * d, d + n),
                  (3 * d,)]
        arrays = [rng.uniform(-2, 2, size=s) for s in shapes]
        u_h = Tensor(rng.standard_normal((1, d)))
        u_c = Tensor(rng.standard_normal((1, d)))
        results = []
        for step in (lstm_composed, lstm_fused):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            g = Graph()
            terms = [g.mul(leaves[0], leaves[2])]
            h, c = step(g, *leaves)
            if reads != "c":
                terms.append(g.mul(h, u_h))
            if reads != "h":
                terms += [g.mul(c, u_c), g.mul(c, c)]
            loss = g.sum_all(terms[0])
            for t in terms[1:]:
                loss = g.add(loss, g.sum_all(t))
            g.backward(loss)
            results.append([h.data, c.data] + [
                np.zeros_like(t.data) if t.grad is None else t.grad
                for t in leaves])
        composed, fused = results
        assert len(fused) == 2 + 7  # h, c; h_prev and x make up hx's gradient
        # + 0.0 makes -0.0 equal 0.0: where the composition records no
        # gradient (wo when only c is read), the fused backward multiplies
        # a zero gradient through
        for want, got in zip(composed, fused):
            assert (want + 0.0).tobytes() == (got + 0.0).tobytes()

    def test_shapes_rejected(self):
        d, n = 2, 5
        ok = [np.zeros((1, n)), np.zeros((1, d)), np.zeros((d, d)),
              np.zeros(d), np.zeros((3 * d, n)), np.zeros(3 * d)]
        Graph().lstm_cell(*map(Tensor, ok))
        for index, bad in [(0, np.zeros((1, n + 1))), (1, np.zeros((1, d + 1))),
                           (1, np.zeros((2, d))),
                           (2, np.zeros((d, n + 1))), (3, np.zeros(d + 1)),
                           (4, np.zeros((3 * d + 1, n))),
                           (4, np.zeros((3 * d, n + 1))),
                           (5, np.zeros((3 * d, 1))),
                           # one gate's weight or bias in place of the stack
                           (4, np.zeros((d, n))), (5, np.zeros(d))]:
            operands = list(ok)
            operands[index] = bad
            with pytest.raises(ValueError, match="lstm_cell"):
                Graph().lstm_cell(*map(Tensor, operands))


class TestConv2d:
    def test_all_ones(self):
        g = Graph()
        out = g.conv2d(Tensor(np.ones((1, 1, 3, 3))),
                       Tensor(np.ones((1, 1, 3, 3))), stride=1)
        np.testing.assert_allclose(out.data, [[[[9.0]]]])

    def test_ramp_strided_matches_loop_oracle(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4)
        k = np.array([[[[1.0, 0.0], [0.0, -1.0]]]])
        g = Graph()
        out = g.conv2d(Tensor(x[None]), Tensor(k), stride=2)
        np.testing.assert_allclose(out.data[0], conv2d_loop(x, k, 2),
                                   atol=1e-12)

    # the paper's strides; with stride > 1 the sizes leave trailing rows and
    # columns that no window covers, whose input gradient must stay zero
    @pytest.mark.parametrize("k, stride, h, w", [
        (3, 1, 8, 8), (4, 2, 9, 11), (8, 4, 18, 23), (5, 3, 12, 16)],
        ids=["k3s1", "k4s2", "k8s4", "k5s3"])
    def test_random_matches_loop_oracle(self, k, stride, h, w):
        assert stride == 1 or ((h - k) % stride and (w - k) % stride)
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-1, 1, (1, 3, h, w)), requires_grad=True)
        kern = Tensor(rng.uniform(-1, 1, (4, 3, k, k)), requires_grad=True)
        g = Graph()
        out = g.conv2d(x, kern, stride=stride)
        np.testing.assert_allclose(
            out.data[0], conv2d_loop(x.data[0], kern.data, stride), atol=1e-12)
        weights = rng.standard_normal(out.shape)
        g.backward(g.sum_all(g.mul(out, Tensor(weights))))
        gx, gk = conv2d_loop_adjoint(x.data[0], kern.data, stride, weights[0])
        np.testing.assert_allclose(x.grad[0], gx, atol=1e-12)
        np.testing.assert_allclose(kern.grad, gk, atol=1e-12)
        folded, reference = conv2d_input_grad(x.data[0], kern.data, stride,
                                              weights[0])
        np.testing.assert_array_equal(folded, reference)

    # the backward rebuilds the forward's column matrix rather than keep it
    @pytest.mark.parametrize("batch", [1, 2, 3])
    @pytest.mark.parametrize("k, stride, h, w", [(3, 1, 8, 8), (4, 2, 9, 11)],
                             ids=["k3s1", "k4s2"])
    def test_kernel_grad_is_one_gemm_bitwise(self, batch, k, stride, h, w):
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(-1, 1, (batch, 3, h, w)), requires_grad=True)
        kern = Tensor(rng.uniform(-1, 1, (4, 3, k, k)), requires_grad=True)
        g = Graph()
        out = g.conv2d(x, kern, stride=stride)
        weights = rng.standard_normal(out.shape)
        g.backward(g.sum_all(g.mul(out, Tensor(weights))))
        cols = np.ascontiguousarray(
            autodiff._conv_patches(x.data, k, stride)).reshape(3 * k * k, -1)
        g2 = weights.transpose(1, 0, 2, 3).reshape(4, -1)
        assert kern.grad.tobytes() == \
            (g2 @ cols.T).reshape(kern.shape).tobytes()

    def test_paper_fold_matches_slab_loop_bitwise(self):
        # the paper's conv2: k4s2 over the 32x38x74 maps of conv1
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, (32, 38, 74))
        kern = rng.uniform(-1, 1, (64, 32, 4, 4))
        weights = rng.standard_normal((64, 18, 36))
        folded, reference = conv2d_input_grad(x, kern, 2, weights)
        np.testing.assert_array_equal(folded, reference)

    def test_fold_index_is_read_only(self):
        index = autodiff._fold_index((1, 2, 5, 6), 3, 2)
        assert index is autodiff._fold_index((1, 2, 5, 6), 3, 2)
        with pytest.raises(ValueError):
            index[0] = 1

    def test_kernel_larger_than_input(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.conv2d(Tensor(np.ones((1, 1, 2, 2))),
                     Tensor(np.ones((1, 1, 3, 3))))

    def test_output_shape_floor(self):
        g = Graph()
        out = g.conv2d(Tensor(np.ones((1, 2, 11, 15))),
                       Tensor(np.ones((5, 2, 4, 4))), stride=2)
        assert out.shape == (1, 5, 4, 6)


class TestConv1dChannels:
    def test_one_hot_selects_channel(self):
        rng = np.random.default_rng(0)
        f = rng.uniform(-1, 1, (5, 3, 4))
        for c in range(5):
            att = np.zeros(5)
            att[c] = 1.0
            g = Graph()
            out = g.conv1d_channels(Tensor(f[None]), Tensor(att[None]))
            np.testing.assert_allclose(out.data[0, 0], f[c], atol=1e-15)

    def test_uniform_attention_is_mean_map(self):
        rng = np.random.default_rng(1)
        f = rng.uniform(-1, 1, (4, 2, 2))
        g = Graph()
        out = g.conv1d_channels(Tensor(f[None]), Tensor(np.full((1, 4), 0.25)))
        np.testing.assert_allclose(out.data[0, 0], f.mean(axis=0), atol=1e-12)

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(2)
        f = rng.uniform(-1, 1, (4, 2, 2))
        att = rng.uniform(-1, 1, 4)
        g = Graph()
        out = g.conv1d_channels(Tensor(f[None]), Tensor(att[None]))
        np.testing.assert_allclose(out.data[0], conv1d_channels_loop(f, att),
                                   atol=1e-12)

    def test_length_mismatch(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.conv1d_channels(Tensor(np.ones((1, 3, 2, 2))),
                              Tensor(np.ones((1, 4))))


class TestSoftmax:
    def test_uniform(self):
        g = Graph()
        out = g.softmax(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.uniform(-5, 5, (1, int(rng.integers(1, 8))))
            kappa = float(rng.uniform(-100, 100))
            a = Graph().softmax(Tensor(x)).data
            b = Graph().softmax(Tensor(x + kappa)).data
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_scalar_exp_oracle(self):
        g = Graph()
        out = g.softmax(Tensor([[1.0, 2.0, 3.0]]))
        z = [math.exp(1), math.exp(2), math.exp(3)]
        expected = [v / sum(z) for v in z]
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_sum_to_one_for_random_logits(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(-50, 50, (1, int(rng.integers(1, 10))))
            p = Graph().softmax(Tensor(x)).data
            assert abs(p.sum() - 1.0) < 1e-9
            assert (p > 0).all()


class TestBackward:
    def test_sum_gives_ones(self):
        g = Graph()
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, (3, 2)),
                   requires_grad=True)
        g.backward(g.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)))

    def test_sigmoid_affine_finite_differences(self):
        rng = np.random.default_rng(6)
        w = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        x = Tensor(rng.uniform(-1, 1, (1, 4)))
        b = Tensor(np.zeros(3))

        def loss_value():
            g = Graph()
            return g.sum_all(g.sigmoid(g.matvec(w, x, b))).item()

        g = Graph()
        g.backward(g.sum_all(g.sigmoid(g.matvec(w, x, b))))
        step = 1e-5
        flat = w.data.reshape(-1)
        agrad = w.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = loss_value()
            flat[i] = orig - step
            fm = loss_value()
            flat[i] = orig
            fd = (fp - fm) / (2 * step)
            assert abs(agrad[i] - fd) / max(abs(fd), abs(agrad[i]), 1e-3) < 1e-4

    def test_repeated_backward_accumulates(self):
        g = Graph()
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = g.sum_all(g.mul(x, x))
        g.backward(loss)
        first = x.grad.copy()
        g.backward(loss)
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_sweep_frees_gradients_passed_on(self, traced_peak):
        # 50 nodes on a 1 MiB batch: the sweep holds the gradients it has
        # still to pass on, not all 50 it forms
        x = Tensor(np.ones((1, 128, 1024)), requires_grad=True)
        g = Graph()
        y = x
        for _ in range(50):
            y = g.scale(y, 1.01)
        loss = g.sum_all(y)
        assert traced_peak(lambda: g.backward(loss)) < 8 * 2**20

    def test_shared_gradient_array_not_added_into(self):
        # add hands one array to both inputs: s's g reaches p and q, and p's
        # first gradient (from t) is that same array, so adding s's into it
        # in place would give q 2 for 1, and x 8 for 5
        g = Graph()
        x = Tensor([1.0], requires_grad=True)
        p = g.scale(x, 1.0)
        q = g.scale(x, 3.0)
        s = g.add(p, q)
        t = g.add(s, p)
        g.backward(g.sum_all(t))
        np.testing.assert_array_equal(x.grad, [5.0])

    def test_loss_must_be_scalar(self):
        g = Graph()
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = g.mul(x, x)
        with pytest.raises(ValueError):
            g.backward(y)

    def test_loss_must_be_on_graph(self):
        g = Graph()
        other = Graph()
        x = Tensor([1.0], requires_grad=True)
        loss = other.sum_all(x)
        with pytest.raises(ValueError):
            g.backward(loss)
        with pytest.raises(ValueError):
            g.backward(Tensor(1.0))

    def test_tape_freed_without_cycle_collector(self):
        # a finished tape must go as soon as its Graph is dropped: it holds
        # every op output and closure of a rollout
        x = Tensor(np.ones((1, 2, 6, 6)), requires_grad=True)
        k = Tensor(np.ones((3, 2, 3, 3)), requires_grad=True)
        enabled = gc.isenabled()
        gc.disable()
        try:
            g = Graph()
            loss = g.sum_all(g.relu(g.conv2d(x, k, stride=1)))
            g.backward(loss)
            ref = weakref.ref(g)
            del g, loss
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_cross_graph_tensors_rejected(self):
        g1, g2 = Graph(), Graph()
        x = Tensor([1.0, 2.0])
        mid = g1.relu(x)
        with pytest.raises(ValueError):
            g2.relu(mid)

    @pytest.mark.parametrize("op", OP_KINDS)
    def test_every_op_rejects_foreign_operands(self, op):
        arrays, build = gradcheck.case(op, np.random.default_rng(0))
        other = Graph()
        foreign = [other.reshape(Tensor(a), a.shape) for a in arrays]
        with pytest.raises(ValueError, match="different graph"):
            build(Graph(), foreign)


def _conv_bias_relu(seed, kept=None):
    """(graph, leaves x k b, weak references to the conv2d and bias-add
    outputs and to the conv2d output's array, y) of
    ``relu(bias_add_channels(conv2d(x, k), b))``. The caller keeps no
    reference to the first two outputs unless ``kept`` is a list, which
    gets every output."""
    rng = np.random.default_rng(seed)
    leaves = [Tensor(rng.standard_normal(shape), requires_grad=True)
              for shape in ((2, 2, 7, 7), (3, 2, 3, 3), (3,))]
    x, k, b = leaves
    g = Graph()
    conv = g.conv2d(x, k, stride=2)
    biased = g.bias_add_channels(conv, b)
    y = g.relu(biased)
    refs = [weakref.ref(conv), weakref.ref(biased), weakref.ref(conv.data)]
    if kept is not None:
        kept += [conv, biased, y]
    del conv, biased
    return g, leaves, refs, y


class TestTapeLifetime:
    """A node keeps each op-output operand as its tape index, each leaf
    itself and its output weakly, and each closure only what its backward
    reads: an op output lives while the caller or a backward reads it."""

    def test_output_nothing_reads_is_freed(self):
        # by reference counting alone, with the cycle collector off
        enabled = gc.isenabled()
        gc.disable()
        try:
            g, leaves, (conv, biased, conv_data), y = _conv_bias_relu(0)
            leaf_refs = [weakref.ref(t) for t in leaves[:2]]
            del leaves
            # bias_add_channels' backward reads nothing
            assert conv() is None and conv_data() is None
            assert g.nodes[0].output is None
            # relu's backward reads its input; the tape holds its leaves
            assert biased() is not None and g.nodes[1].output is biased()
            assert all(ref() is not None for ref in leaf_refs)
            assert g.nodes[0].inputs == tuple(ref() for ref in leaf_refs)
            assert g.nodes[1].inputs[0] == 0 and g.nodes[2].inputs == (1,)
            g.backward(g.sum_all(y))
            tape = weakref.ref(g)
            del g, y
            assert tape() is None and biased() is None
            assert all(ref() is None for ref in leaf_refs)
        finally:
            if enabled:
                gc.enable()

    def test_gradients_equal_a_tape_whose_outputs_are_kept(self):
        grads = []
        for kept in (None, []):
            g, leaves, refs, y = _conv_bias_relu(2, kept)
            assert (refs[0]() is None) == (kept is None)
            g.backward(g.sum_all(y))
            grads.append([t.grad.tobytes() for t in leaves])
        assert grads[0] == grads[1]


def _two_frames(rng):
    """Two frames of a batch of 2 through two conv layers that share their
    kernels, the first frame's image a leaf too; returns the leaves."""
    k1 = Tensor(rng.uniform(-1, 1, (4, 2, 3, 3)), requires_grad=True)
    k2 = Tensor(rng.uniform(-1, 1, (3, 4, 2, 2)), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (2, 2, 9, 9)), requires_grad=True)
    g = Graph()
    loss = None
    for image in (x, Tensor(rng.uniform(-1, 1, (2, 2, 9, 9)))):
        h = g.conv2d(g.relu(g.conv2d(image, k1)), k2, stride=2)
        term = g.sum_all(g.mul(h, h))
        loss = term if loss is None else g.add(loss, term)
    g.backward(loss)
    return k1, k2, x


def _eager_first(rng):
    """Kernels that get an eager gradient from ``scale``, then conv2d's,
    then two from ``mul``, in that sweep order; returns the leaves."""
    k = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (2, 2, 7, 7)))
    g = Graph()
    square = g.sum_all(g.mul(k, k))
    out = g.conv2d(x, k)
    conv = g.sum_all(g.mul(out, out))
    scaled = g.sum_all(g.scale(k, 3.0))
    g.backward(g.add(g.add(square, conv), scaled))
    return (k,)


class TestKernelGradientHelper:
    """conv2d's kernel gradients on backward's helper thread: every
    ``OFFLOAD_MIN_MACS`` gives the same bytes, and no thread outlives
    ``backward``."""

    @pytest.mark.parametrize("build", [_two_frames, _eager_first])
    def test_offload_is_bit_identical(self, monkeypatch, helpers, build):
        grads = {}
        for min_macs in (math.inf, 0):
            monkeypatch.setattr(autodiff, "OFFLOAD_MIN_MACS", min_macs)
            leaves = build(np.random.default_rng(0))
            grads[min_macs] = [t.grad.tobytes() for t in leaves]
            assert len(helpers) == int(min_macs == 0)
        assert grads[0] == grads[math.inf]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_training_is_bit_identical(self, monkeypatch, helpers, workers):
        corpus = gridnav.build_corpus(7)
        mconf = nets.ModelConfig(vocab=nets.build_vocab(corpus.train
                                                        + corpus.test))
        tconf = a3c.TrainerConfig(max_frames=200, workers=workers,
                                  mode="sync" if workers == 1 else "async")
        params = {}
        for min_macs in (autodiff.OFFLOAD_MIN_MACS, 0):
            monkeypatch.setattr(autodiff, "OFFLOAD_MIN_MACS", min_macs)
            result = a3c.train(tconf, mconf, a3c.EnvSettings(), seed=3)
            params[min_macs] = [t.data.tobytes() for t in
                                result.params.tensors()]
            assert bool(helpers) == (min_macs == 0)
        assert params[0] == params[autodiff.OFFLOAD_MIN_MACS]

    def test_helper_failure_raised(self, monkeypatch, helpers):
        monkeypatch.setattr(autodiff, "OFFLOAD_MIN_MACS", 0)
        rng = np.random.default_rng(0)
        k = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
        g = Graph()
        loss = g.sum_all(g.conv2d(Tensor(rng.uniform(-1, 1, (2, 2, 7, 7))), k))
        raised_on = []

        def failing_im2col(*args):
            raised_on.append(threading.current_thread())
            raise RuntimeError("im2col failed")

        monkeypatch.setattr(autodiff, "_im2col", failing_im2col)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="im2col failed"):
            g.backward(loss)
        assert threading.enumerate() == before
        assert raised_on == helpers

    def test_sweep_failure_ends_helper(self, monkeypatch, helpers):
        # the sweep raises after a job went to the helper
        monkeypatch.setattr(autodiff, "OFFLOAD_MIN_MACS", 0)
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(-1, 1, (2, 2, 7, 7)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
        g = Graph()
        image = g.scale(x, 2.0)
        loss = g.sum_all(g.conv2d(image, k))

        def failing(grad):
            raise RuntimeError("scale failed")

        g.nodes[image.node].backward_fn = failing
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="scale failed"):
            g.backward(loss)
        assert threading.enumerate() == before
        assert len(helpers) == 1 and k.grad is not None

    def test_tape_freed_without_cycle_collector(self, monkeypatch, helpers):
        monkeypatch.setattr(autodiff, "OFFLOAD_MIN_MACS", 0)
        k = Tensor(np.ones((3, 2, 3, 3)), requires_grad=True)
        enabled = gc.isenabled()
        gc.disable()
        try:
            g = Graph()
            g.backward(g.sum_all(g.conv2d(Tensor(np.ones((1, 2, 6, 6))), k)))
            ref = weakref.ref(g)
            del g
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
        assert helpers


class TestTensorInvariants:
    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError):
            Tensor([1.0, float("nan")])
        with pytest.raises(FloatingPointError):
            Tensor([float("inf")])

    def test_finite_data_with_overflowing_sum_accepted(self):
        big = np.finfo(np.float64).max
        assert Tensor([big, big]).data[0] == big
        g = Graph()
        g.check_finite(g.scale(Tensor([big, big]), 1.0))

    def test_non_finite_forward_output_rejected(self):
        # op outputs are not checked as they are recorded; check_finite on a
        # value read downstream names the first op whose output is not finite
        g = Graph()
        a = g.scale(Tensor([0.0, 1.0]), 2.0)
        b = g.tanh(a)
        g.check_finite(b)
        with np.errstate(divide="ignore"):
            c = g.log(b)  # log 0 -> -inf at tape index 2
        d = g.shift(c, 1.0)
        with pytest.raises(FloatingPointError,
                           match=r"non-finite output of log at tape index 2"):
            g.check_finite(d)

    def test_check_finite_scans_held_outputs_only(self):
        # a node holds its output weakly: the overflowing scale output, read
        # by nothing but a shift whose backward reads nothing, is gone, so
        # the first non-finite output still held is the shift's
        big = np.finfo(np.float64).max
        g = Graph()
        with np.errstate(over="ignore"):
            out = g.shift(g.scale(Tensor([big, 1.0]), 2.0), 1.0)
        assert g.nodes[0].output is None
        with pytest.raises(FloatingPointError,
                           match=r"non-finite output of shift at tape index 1"):
            g.check_finite(out)

    def test_grad_shape_matches(self):
        g = Graph()
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        g.backward(g.sum_all(g.tanh(x)))
        assert x.grad.shape == x.data.shape

    def test_replay_determinism(self):
        def forward():
            rng = np.random.default_rng(42)
            g = Graph()
            a = Tensor(rng.uniform(-1, 1, (1, 3, 5, 5)))
            k = Tensor(rng.uniform(-1, 1, (2, 3, 3, 3)))
            h = g.relu(g.conv2d(a, k))
            return g.softmax(g.reshape(h, (1, -1))).data

        one, two = forward(), forward()
        assert (one == two).all()


# ops whose batched call folds its rows into one GEMM, so the sums over rows
# (and so every row's values) may differ from the rows' own in the last bits;
# sum_all adds every row's entries in one sum, so its output may differ from
# the sum of its rows' sums in the same way
GEMM_OPS = ("matvec", "lstm_cell", "conv2d")


def _in_order(arrays):
    """The sum of ``arrays``, added in order."""
    total = arrays[0]
    for a in arrays[1:]:
        total = total + a
    return total


def _call_and_backward(call, arrays, weights, row=None):
    """Output and operand gradients of sum(weights * op(arrays)), checking
    that the op appends one node whose output it returns."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    g = Graph()
    out = call(g, leaves, row)
    assert len(g.nodes) == 1 and g.nodes[-1].output is out
    g.backward(g.sum_all(g.mul(out, Tensor(weights))))
    return out.data, [np.zeros_like(t.data) if t.grad is None else t.grad
                      for t in leaves]


def _ones(*shape):
    return Tensor(np.ones(shape))


# every op that checks ranks, called on operands with the leading batch axis
# ``lead`` of its per-frame operands: (1,) for a batch of one, () for the
# unbatched ranks they had before every call took a batch
RANK_CHECKED = {
    "matvec": lambda g, lead: g.matvec(_ones(3, 2), _ones(*lead, 2),
                                       _ones(3)),
    "lstm_cell": lambda g, lead: g.lstm_cell(
        _ones(*lead, 5), _ones(*lead, 2), _ones(2, 2), _ones(2),
        _ones(6, 5), _ones(6)),
    "conv2d": lambda g, lead: g.conv2d(_ones(*lead, 1, 3, 3),
                                       _ones(1, 1, 2, 2)),
    "conv1d_channels": lambda g, lead: g.conv1d_channels(
        _ones(*lead, 4, 2, 2), _ones(*lead, 4)),
    "bias_add_channels": lambda g, lead: g.bias_add_channels(
        _ones(*lead, 4, 2, 2), _ones(4)),
    "mul_channels": lambda g, lead: g.mul_channels(_ones(*lead, 4, 2, 2),
                                                   _ones(*lead, 4)),
    "softmax": lambda g, lead: g.softmax(_ones(*lead, 3)),
    "concat": lambda g, lead: g.concat([_ones(*lead, 2), _ones(*lead, 3)]),
    "pick": lambda g, lead: g.pick(_ones(*lead, 3), 1),
    "row": lambda g, lead: g.row(_ones(*lead, 3, 2), 1),
}


class TestBatchedOps:
    @pytest.mark.parametrize("op", list(RANK_CHECKED))
    def test_unbatched_rank_rejected(self, op):
        # one environment is a batch of one: the ranks without the batch
        # axis are refused, and record nothing
        g = Graph()
        out = RANK_CHECKED[op](g, (1,))
        assert g.nodes[-1].output is out
        g = Graph()
        with pytest.raises(ValueError):
            RANK_CHECKED[op](g, ())
        assert g.nodes == []

    @pytest.mark.parametrize("batch", [1, 2, 3])
    @pytest.mark.parametrize("op", OP_KINDS)
    def test_batch_equals_its_rows(self, op, batch):
        # a batch gives its rows' outputs and operand gradients, each row's
        # taken from the batch of one made of that row (a[r:r + 1]), stacked;
        # a shared operand (a weight) gets the sum of the rows' gradients, in
        # row order. sum_all's scalar output, whose weight every row shares,
        # is the sum of its rows' outputs.
        rng = np.random.default_rng([gradcheck._op_tag(op), batch])
        for _ in range(10):
            arrays, batched, call = gradcheck.DRAWS[op](rng, batch)
            dry = call(Graph(), [Tensor(a) for a in arrays])
            weights = rng.standard_normal(dry.shape)
            out, grads = _call_and_backward(call, arrays, weights)
            rows = [_call_and_backward(
                call, [a[r:r + 1] if b else a for a, b in zip(arrays, batched)],
                weights[r:r + 1] if weights.ndim else weights, r)
                for r in range(batch)]
            want_out = np.concatenate([o for o, _ in rows]) if out.ndim \
                else _in_order([o for o, _ in rows])
            want_grads = []
            for i, b in enumerate(batched):
                per_row = [gr[i] for _, gr in rows]
                want_grads.append(np.concatenate(per_row) if b
                                  else _in_order(per_row))
            for got, want in zip([out] + grads, [want_out] + want_grads):
                assert got.shape == want.shape
                if op in GEMM_OPS or (op == "sum_all" and got is out):
                    assert np.abs(got - want).max(initial=0.0) <= \
                        1e-12 * max(1.0, np.abs(want).max(initial=0.0))
                else:
                    np.testing.assert_array_equal(got, want)

    def test_batch_of_rows_not_matching_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))])
        with pytest.raises(ValueError):
            g.pick(Tensor(np.ones((2, 3))), [0, 1, 2])
        with pytest.raises(ValueError, match="out of range"):
            g.pick(Tensor(np.ones((2, 3))), [0, 3])
        with pytest.raises(ValueError):
            g.scale(Tensor(np.ones((2, 3))), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            g.conv1d_channels(Tensor(np.ones((2, 4, 3, 3))),
                              Tensor(np.ones((3, 4))))

    @pytest.mark.parametrize("op, shape, index, message", [
        ("pick", (3, 3), [0, -1, 5], "pick index -1 out of range 3"),
        ("pick", (3, 3), 3, "pick index 3 out of range 3"),
        ("row", (3, 2, 4), [1, 2, 0], "row index 2 out of range 2"),
        ("row", (4, 2), [0, 4, 9], "row index 4 out of range 4"),
    ])
    def test_index_out_of_range_named(self, op, shape, index, message):
        # the error names the op, the first bad index and the range, and
        # nothing is recorded
        g = Graph()
        with pytest.raises(ValueError, match=f"^{message}$"):
            getattr(g, op)(Tensor(np.ones(shape)), index)
        assert g.nodes == []


    def test_repeated_lookup_sums_in_index_order(self):
        # a lookup's backward adds each batch row's gradient into its matrix
        # row, unbuffered and in index order, from 0.0: with magnitudes
        # spread over 1e+-8 the bytes depend on that order
        rng = np.random.default_rng(3)
        index = [2, 0, 2, 2]
        g = Graph()
        out = g.row(Tensor(rng.standard_normal((3, 5))), index)
        assert out.data.tobytes() == g.nodes[-1].inputs[0].data[index].tobytes()
        grad = rng.standard_normal((4, 5)) * 10.0 ** rng.integers(-8, 9, (4, 5))
        (got,) = g.nodes[-1].backward_fn(grad)
        want = np.zeros((3, 5))
        for b, i in enumerate(index):
            want[i] += grad[b]
        assert got.tobytes() == want.tobytes()


class TestGradCheckProperty:
    """Randomized finite-difference agreement for every registered op.

    The full 100-case-per-op sweep runs in the acceptance suite; this is a
    faster smoke pass over the same machinery.
    """

    @pytest.mark.parametrize("op", OP_KINDS)
    def test_op_gradients(self, op):
        err = gradcheck.check_op(op, seed=123, cases=15)
        assert err < gradcheck.OP_TOL, f"{op}: {err}"

    @pytest.mark.parametrize("cases", [0, -3])
    def test_no_cases_rejected(self, cases):
        # an empty case loop would report a worst error of 0, checking nothing
        with pytest.raises(ValueError, match="cases"):
            gradcheck.check_op("mul", cases=cases)

    def test_end_to_end_reaches_every_parameter(self, monkeypatch):
        # the GRU, the embedding and every LSTM gate must reach the loss, or
        # the end-to-end check compares zero with zero; and the scripted
        # rollout restarts row 1, once, inside the rollout: the rollout start
        # encodes both rows, the restart row 1 alone
        encoded = []
        encode = a3c.encode_instruction

        def counted(g, params, config, tokens):
            encoded.append(len(tokens))
            return encode(g, params, config, tokens)

        monkeypatch.setattr(a3c, "encode_instruction", counted)
        mconf, params, split = gradcheck._tiny_model(0)
        g, loss = gradcheck._training_loss(mconf, params, split, 0)
        g.backward(loss)
        assert encoded == [2, 1]
        assert len(params.names()) == 23
        assert [n for n, t in params.items()
                if t.grad is None or not t.grad.any()] == []

    @pytest.mark.parametrize("variant", [{"forget_gate_sees_input": False},
                                         {"attention_source": "lstm_output"}],
                             ids=["forget_reads_h", "lstm_output"])
    def test_end_to_end_variant(self, variant):
        # the suite checks the default wiring end to end; these read the
        # forget gate from h alone, or apply h in place of the cell state
        # (frame 1 applies h_0 = ones under lstm_output). trunk_b is moved
        # off its zero initial value, so the trunk is checked at a nonzero
        # bias too.
        mconf, _, split = gradcheck._tiny_model(0)
        mconf = dataclasses.replace(mconf, **variant)
        params = nets.init_params(mconf, 0)
        rng = np.random.default_rng(0)
        params["trunk_b"].data += rng.uniform(-0.5, 0.5, size=mconf.hidden)
        tensors = params.tensors()
        entries = [rng.choice(t.size, min(gradcheck.END_TO_END_SAMPLES, t.size),
                              replace=False) for t in tensors]
        err = gradcheck._worst_error(
            tensors,
            lambda: gradcheck._training_loss(mconf, params, split, 0), entries)
        assert err < gradcheck.END_TO_END_TOL
        assert [n for n, t in params.items()
                if t.grad is None or not t.grad.any()] == []

    @pytest.mark.parametrize("op", OP_KINDS)
    def test_scaled_backward_detected(self, op, scale_backward):
        # a backward that is 1% off in every gradient must fail the check
        scale_backward(op)
        assert gradcheck.check_op(op, seed=123, cases=15) > gradcheck.OP_TOL
