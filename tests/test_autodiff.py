import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from groundnav import autodiff, gradcheck, nets
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


def lstm_composed(g, h, x, c_prev, wf, bf, wi, bi, wc, bc, wo, bo):
    """The LSTM step as the 14 nodes ``lstm_cell`` fuses (concat, 4 matvec,
    3 sigmoid, 2 tanh, 3 mul, add): the reference it must match bit for
    bit. The forget gate reads h alone when wf is as wide as h."""
    hx = g.concat([h, x])
    f_in = h if wf.shape[1] == h.shape[0] else hx
    f = g.sigmoid(g.matvec(wf, f_in, bf))
    i = g.sigmoid(g.matvec(wi, hx, bi))
    cbar = g.tanh(g.matvec(wc, hx, bc))
    c = g.add(g.mul(f, c_prev), g.mul(i, cbar))
    o = g.sigmoid(g.matvec(wo, hx, bo))
    return g.mul(o, g.tanh(c)), c


def lstm_fused(g, h, x, c_prev, *weights):
    hc = g.lstm_cell(g.concat([h, x]), c_prev, *weights)
    return g.row(hc, 0), g.row(hc, 1)


def conv2d_input_grad(x, kern, stride, weights):
    """x.grad of sum(weights * conv2d(x, kern)) next to the slab fold of
    the same column gradient."""
    x = Tensor(x, requires_grad=True)
    g = Graph()
    out = g.conv2d(x, Tensor(kern), stride=stride)
    g.backward(g.sum_all(g.mul(out, Tensor(weights))))
    c_out, _, k, _ = kern.shape
    gcols = kern.reshape(c_out, -1).T @ weights.reshape(c_out, -1)
    return x.grad, slab_fold(gcols, x.shape, k, stride)


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
            g.matvec(Tensor(np.ones((3, 2))), Tensor(np.ones(2)),
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
        shapes = [(d,), (n,), (d,), (d, nf), (d,)] + [(d, d + n), (d,)] * 3
        arrays = [rng.uniform(-2, 2, size=s) for s in shapes]
        u_h, u_c = Tensor(rng.standard_normal(d)), Tensor(rng.standard_normal(d))
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
        assert len(fused) == 2 + 11  # h, c; h_prev and x make up hx's gradient
        # + 0.0 makes -0.0 equal 0.0: where the composition records no
        # gradient (wo when only c is read), the fused backward multiplies
        # a zero gradient through
        for want, got in zip(composed, fused):
            assert (want + 0.0).tobytes() == (got + 0.0).tobytes()

    def test_shapes_rejected(self):
        d, n = 2, 5
        ok = [np.zeros(n), np.zeros(d), np.zeros((d, d)), np.zeros(d)] + \
            [np.zeros((d, n)), np.zeros(d)] * 3
        Graph().lstm_cell(*map(Tensor, ok))
        for index, bad in [(0, np.zeros(n + 1)), (1, np.zeros(d + 1)),
                           (2, np.zeros((d, n + 1))), (3, np.zeros(d + 1)),
                           (8, np.zeros((d + 1, n))), (9, np.zeros((d, 1)))]:
            operands = list(ok)
            operands[index] = bad
            with pytest.raises(ValueError, match="lstm_cell"):
                Graph().lstm_cell(*map(Tensor, operands))


class TestConv2d:
    def test_all_ones(self):
        g = Graph()
        out = g.conv2d(Tensor(np.ones((1, 3, 3))),
                       Tensor(np.ones((1, 1, 3, 3))), stride=1)
        np.testing.assert_allclose(out.data, [[[9.0]]])

    def test_ramp_strided_matches_loop_oracle(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4)
        k = np.array([[[[1.0, 0.0], [0.0, -1.0]]]])
        g = Graph()
        out = g.conv2d(Tensor(x), Tensor(k), stride=2)
        np.testing.assert_allclose(out.data, conv2d_loop(x, k, 2), atol=1e-12)

    # the paper's strides; with stride > 1 the sizes leave trailing rows and
    # columns that no window covers, whose input gradient must stay zero
    @pytest.mark.parametrize("k, stride, h, w", [
        (3, 1, 8, 8), (4, 2, 9, 11), (8, 4, 18, 23), (5, 3, 12, 16)],
        ids=["k3s1", "k4s2", "k8s4", "k5s3"])
    def test_random_matches_loop_oracle(self, k, stride, h, w):
        assert stride == 1 or ((h - k) % stride and (w - k) % stride)
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-1, 1, (3, h, w)), requires_grad=True)
        kern = Tensor(rng.uniform(-1, 1, (4, 3, k, k)), requires_grad=True)
        g = Graph()
        out = g.conv2d(x, kern, stride=stride)
        np.testing.assert_allclose(
            out.data, conv2d_loop(x.data, kern.data, stride), atol=1e-12)
        weights = rng.standard_normal(out.shape)
        g.backward(g.sum_all(g.mul(out, Tensor(weights))))
        gx, gk = conv2d_loop_adjoint(x.data, kern.data, stride, weights)
        np.testing.assert_allclose(x.grad, gx, atol=1e-12)
        np.testing.assert_allclose(kern.grad, gk, atol=1e-12)
        folded, reference = conv2d_input_grad(x.data, kern.data, stride,
                                              weights)
        np.testing.assert_array_equal(folded, reference)

    def test_paper_fold_matches_slab_loop_bitwise(self):
        # the paper's conv2: k4s2 over the 32x38x74 maps of conv1
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, (32, 38, 74))
        kern = rng.uniform(-1, 1, (64, 32, 4, 4))
        weights = rng.standard_normal((64, 18, 36))
        folded, reference = conv2d_input_grad(x, kern, 2, weights)
        np.testing.assert_array_equal(folded, reference)

    def test_fold_index_is_read_only(self):
        index = autodiff._fold_index((2, 5, 6), 3, 2)
        assert index is autodiff._fold_index((2, 5, 6), 3, 2)
        with pytest.raises(ValueError):
            index[0] = 1

    def test_kernel_larger_than_input(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.conv2d(Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))))

    def test_output_shape_floor(self):
        g = Graph()
        out = g.conv2d(Tensor(np.ones((2, 11, 15))),
                       Tensor(np.ones((5, 2, 4, 4))), stride=2)
        assert out.shape == (5, 4, 6)


class TestConv1dChannels:
    def test_one_hot_selects_channel(self):
        rng = np.random.default_rng(0)
        f = rng.uniform(-1, 1, (5, 3, 4))
        for c in range(5):
            att = np.zeros(5)
            att[c] = 1.0
            g = Graph()
            out = g.conv1d_channels(Tensor(f), Tensor(att))
            np.testing.assert_allclose(out.data[0], f[c], atol=1e-15)

    def test_uniform_attention_is_mean_map(self):
        rng = np.random.default_rng(1)
        f = rng.uniform(-1, 1, (4, 2, 2))
        g = Graph()
        out = g.conv1d_channels(Tensor(f), Tensor(np.full(4, 0.25)))
        np.testing.assert_allclose(out.data[0], f.mean(axis=0), atol=1e-12)

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(2)
        f = rng.uniform(-1, 1, (4, 2, 2))
        att = rng.uniform(-1, 1, 4)
        g = Graph()
        out = g.conv1d_channels(Tensor(f), Tensor(att))
        np.testing.assert_allclose(out.data, conv1d_channels_loop(f, att),
                                   atol=1e-12)

    def test_length_mismatch(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.conv1d_channels(Tensor(np.ones((3, 2, 2))), Tensor(np.ones(4)))


class TestSoftmax:
    def test_uniform(self):
        g = Graph()
        out = g.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.uniform(-5, 5, int(rng.integers(1, 8)))
            kappa = float(rng.uniform(-100, 100))
            a = Graph().softmax(Tensor(x)).data
            b = Graph().softmax(Tensor(x + kappa)).data
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_scalar_exp_oracle(self):
        g = Graph()
        out = g.softmax(Tensor([1.0, 2.0, 3.0]))
        z = [math.exp(1), math.exp(2), math.exp(3)]
        expected = [v / sum(z) for v in z]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_sum_to_one_for_random_logits(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(-50, 50, int(rng.integers(1, 10)))
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
        x = Tensor(rng.uniform(-1, 1, 4))
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
        # a finished tape must go as soon as its Graph is dropped: its patch
        # matrices and closures dominate the memory of a rollout
        x = Tensor(np.ones((2, 6, 6)), requires_grad=True)
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

    def test_grad_shape_matches(self):
        g = Graph()
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        g.backward(g.sum_all(g.tanh(x)))
        assert x.grad.shape == x.data.shape

    def test_replay_determinism(self):
        def forward():
            rng = np.random.default_rng(42)
            g = Graph()
            a = Tensor(rng.uniform(-1, 1, (3, 5, 5)))
            k = Tensor(rng.uniform(-1, 1, (2, 3, 3, 3)))
            h = g.relu(g.conv2d(a, k))
            return g.softmax(g.reshape(h, (-1,))).data

        one, two = forward(), forward()
        assert (one == two).all()


# ops whose batched call folds its rows into one GEMM, so the sums over rows
# (and so every row's values) may differ from the rows' own in the last bits
GEMM_OPS = ("matvec", "lstm_cell", "conv2d")


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


class TestBatchedOps:
    @pytest.mark.parametrize("batch", [1, 2, 3])
    @pytest.mark.parametrize("op", OP_KINDS)
    def test_batch_equals_its_rows(self, op, batch):
        # a batched call gives the stack of its rows' unbatched outputs and
        # operand gradients; a shared operand (a weight) gets the sum of the
        # rows' gradients, in row order
        rng = np.random.default_rng([gradcheck._op_tag(op), batch])
        for _ in range(10):
            arrays, batched, call = gradcheck.DRAWS[op](rng, batch)
            dry = call(Graph(), [Tensor(a) for a in arrays])
            weights = rng.standard_normal(dry.shape)
            out, grads = _call_and_backward(call, arrays, weights)
            rows = [_call_and_backward(
                call, [a[r] if b else a for a, b in zip(arrays, batched)],
                weights[r], r) for r in range(batch)]
            want_out = np.stack([o for o, _ in rows])
            want_grads = []
            for i, b in enumerate(batched):
                per_row = [gr[i] for _, gr in rows]
                if b:
                    want_grads.append(np.stack(per_row))
                else:
                    total = per_row[0]
                    for gr in per_row[1:]:
                        total = total + gr
                    want_grads.append(total)
            for got, want in zip([out] + grads, [want_out] + want_grads):
                assert got.shape == want.shape
                if op in GEMM_OPS:
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

    def test_end_to_end_reaches_every_parameter(self):
        # the GRU, the embedding and every LSTM gate must reach the loss, or
        # the end-to-end check compares zero with zero
        mconf, params, walk = gradcheck._tiny_model(0)
        g, loss = gradcheck._rollout_loss(mconf, params, walk)
        g.backward(loss)
        assert len(params.names()) == 27
        assert [n for n, t in params.items()
                if t.grad is None or not t.grad.any()] == []

    @pytest.mark.parametrize("variant", [{"forget_gate_sees_input": False},
                                         {"attention_source": "lstm_output"}],
                             ids=["forget_reads_h", "lstm_output"])
    def test_end_to_end_variant(self, variant):
        # the suite checks the default wiring end to end; these read the
        # forget gate from h alone, or apply h in place of the cell state.
        # Under lstm_output frame 1 applies h_0 = 0, so its fused state is
        # 0 and every trunk relu sits on its kink at the zero-initialised
        # trunk_b: that bias is moved off zero.
        mconf, _, walk = gradcheck._tiny_model(0)
        mconf = dataclasses.replace(mconf, **variant)
        params = nets.init_params(mconf, 0)
        rng = np.random.default_rng(0)
        params["trunk_b"].data += rng.uniform(-0.5, 0.5, size=mconf.hidden)
        tensors = params.tensors()
        entries = [rng.choice(t.size, min(gradcheck.END_TO_END_SAMPLES, t.size),
                              replace=False) for t in tensors]
        err = gradcheck._worst_error(
            tensors, lambda: gradcheck._rollout_loss(mconf, params, walk),
            entries)
        assert err < gradcheck.END_TO_END_TOL
        assert [n for n, t in params.items()
                if t.grad is None or not t.grad.any()] == []

    @pytest.mark.parametrize("op", OP_KINDS)
    def test_scaled_backward_detected(self, op, scale_backward):
        # a backward that is 1% off in every gradient must fail the check
        scale_backward(op)
        assert gradcheck.check_op(op, seed=123, cases=15) > gradcheck.OP_TOL
