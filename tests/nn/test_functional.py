"""Operator tests: conv/pool/batchnorm against naive references + gradcheck."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from .test_tensor import numeric_gradient


def naive_conv2d(x, w, b=None, stride=1, padding=0):
    """Direct-loop convolution reference."""
    n, c_in, h, w_in = x.shape
    c_out, _, k, _ = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_out = (x.shape[2] - k) // stride + 1
    w_out = (x.shape[3] - k) // stride + 1
    out = np.zeros((n, c_out, h_out, w_out))
    for ni in range(n):
        for co in range(c_out):
            for i in range(h_out):
                for j in range(w_out):
                    patch = x[ni, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[ni, co, i, j] = (patch * w[co]).sum()
            if b is not None:
                out[ni, co] += b[co]
    return out


class TestIm2col:
    # im2col is channel-major: column p of the matrix is the receptive
    # field of output position p, so ``cols.T`` has one row per field.
    def test_shapes(self):
        x = np.arange(2 * 3 * 5 * 5, dtype=np.float64).reshape(2, 3, 5, 5)
        cols = F.im2col(x, kernel=3, stride=1, padding=0)
        assert cols.T.shape == (2 * 3 * 3, 3 * 9)

    def test_content_matches_receptive_fields(self):
        x = np.arange(1 * 1 * 4 * 4, dtype=np.float64).reshape(1, 1, 4, 4)
        cols = F.im2col(x, kernel=2, stride=2, padding=0)
        np.testing.assert_allclose(cols.T[0], [0, 1, 4, 5])
        np.testing.assert_allclose(cols.T[3], [10, 11, 14, 15])

    def test_col2im_inverts_for_nonoverlapping(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 4))
        cols = F.im2col(x, kernel=2, stride=2, padding=0)
        restored = F.col2im(cols, x.shape, kernel=2, stride=2, padding=0)
        np.testing.assert_allclose(restored, x)

    def test_col2im_accumulates_overlaps(self):
        x = np.ones((1, 1, 3, 3))
        cols = F.im2col(x, kernel=2, stride=1, padding=0)
        restored = F.col2im(cols, x.shape, kernel=2, stride=1, padding=0)
        # The centre participates in all four 2x2 windows.
        assert restored[0, 0, 1, 1] == 4.0
        assert restored[0, 0, 0, 0] == 1.0


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_naive(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        np.testing.assert_allclose(
            out.data, naive_conv2d(x, w, b, stride, padding), atol=1e-10
        )

    def test_gradients_match_numeric(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        tx = Tensor(x.copy(), requires_grad=True)
        tw = Tensor(w.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        F.conv2d(tx, tw, tb, stride=1, padding=1).sum().backward()

        gx = numeric_gradient(
            lambda v: float(F.conv2d(Tensor(v), Tensor(w), Tensor(b), 1, 1).sum().data),
            x.copy(),
        )
        gw = numeric_gradient(
            lambda v: float(F.conv2d(Tensor(x), Tensor(v), Tensor(b), 1, 1).sum().data),
            w.copy(),
        )
        gb = numeric_gradient(
            lambda v: float(F.conv2d(Tensor(x), Tensor(w), Tensor(v), 1, 1).sum().data),
            b.copy(),
        )
        np.testing.assert_allclose(tx.grad, gx, atol=1e-5)
        np.testing.assert_allclose(tw.grad, gw, atol=1e-5)
        np.testing.assert_allclose(tb.grad, gb, atol=1e-5)

    def test_no_bias(self):
        rng = np.random.default_rng(2)
        x, w = rng.normal(size=(1, 2, 4, 4)), rng.normal(size=(2, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), None, 1, 1)
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, None, 1, 1), atol=1e-10)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channels"):
            F.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))))

    def test_rectangular_kernel_rejected(self):
        with pytest.raises(ValueError, match="square"):
            F.conv2d(
                Tensor(np.zeros((1, 1, 4, 4))),
                Tensor(np.zeros((1, 1, 2, 3))),
            )

    def test_kernel_row_independence(self):
        """Paper Figure 2: input channel j only meets kernel row j.

        Zeroing kernel row j must make output independent of channel j —
        the structural fact the SE scheme's security argument rests on.
        """
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 3, 3, 3))
        w[:, 1] = 0.0  # remove kernel row 1
        x1 = rng.normal(size=(1, 3, 5, 5))
        x2 = x1.copy()
        x2[:, 1] = rng.normal(size=(1, 5, 5))  # change only channel 1
        out1 = F.conv2d(Tensor(x1), Tensor(w), None, 1, 1)
        out2 = F.conv2d(Tensor(x2), Tensor(w), None, 1, 1)
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-12)

    def test_output_size_helper(self):
        assert F.conv_output_size(32, 3, 1, 1) == 32
        assert F.conv_output_size(32, 2, 2, 0) == 16
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), kernel=2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradient_routes_to_max(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        t = Tensor(x, requires_grad=True)
        F.max_pool2d(t, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(t.grad[0, 0], expected)

    def test_max_pool_strided(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 6, 6))
        out = F.max_pool2d(Tensor(x), kernel=3, stride=3)
        assert out.shape == (2, 3, 2, 2)

    @pytest.mark.parametrize(
        "kernel,stride",
        [(2, 2), (3, 3), (2, 3), (3, 2), (2, 1), (3, 1)],
        ids=["2/2", "3/3", "2/3", "3/2-overlap", "2/1-overlap", "3/1-overlap"],
    )
    def test_max_pool_gradient_equals_scatter_add(self, kernel, stride):
        """Disjoint windows assign the gradient, overlapping ones add it
        with ``np.add.at``; both must equal the scatter-add exactly."""
        rng = np.random.default_rng(kernel * 10 + stride)
        # Integer values make ties (argmax takes the first) and shared maxima.
        x = rng.integers(0, 4, size=(3, 2, 9, 9)).astype(np.float64)
        t = Tensor(x, requires_grad=True)
        out = F.max_pool2d(t, kernel, stride)
        grad = rng.normal(size=out.shape)
        out.backward(grad)

        windows = F._sliding_windows(x, kernel, stride)
        arg = windows.reshape(*windows.shape[:4], -1).argmax(axis=-1)
        ki, kj = np.divmod(arg, kernel)
        n_idx, c_idx, i_idx, j_idx = np.indices(arg.shape)
        expected = np.zeros_like(x)
        np.add.at(
            expected,
            (n_idx, c_idx, i_idx * stride + ki, j_idx * stride + kj),
            grad,
        )
        assert np.array_equal(t.grad, expected)

    def test_avg_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradient_uniform(self):
        t = Tensor(np.zeros((1, 1, 4, 4)), requires_grad=True)
        F.avg_pool2d(t, 2).sum().backward()
        np.testing.assert_allclose(t.grad, np.full((1, 1, 4, 4), 0.25))

    def test_global_avg_pool(self):
        x = np.arange(8.0).reshape(1, 2, 2, 2)
        out = F.global_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data, [[1.5, 5.5]])

    def test_pooling_is_channelwise(self):
        """Pooling never mixes channels — why SEAL channel masks propagate
        through POOL layers unchanged."""
        rng = np.random.default_rng(5)
        x1 = rng.normal(size=(1, 3, 4, 4))
        x2 = x1.copy()
        x2[:, 2] = rng.normal(size=(1, 4, 4))
        p1 = F.max_pool2d(Tensor(x1), 2).data
        p2 = F.max_pool2d(Tensor(x2), 2).data
        np.testing.assert_allclose(p1[:, :2], p2[:, :2])
        assert not np.allclose(p1[:, 2], p2[:, 2])


class TestBatchNorm:
    def test_training_normalizes(self):
        rng = np.random.default_rng(6)
        x = rng.normal(3.0, 2.0, size=(8, 4, 5, 5))
        gamma = Tensor(np.ones(4), requires_grad=True)
        beta = Tensor(np.zeros(4), requires_grad=True)
        rm, rv = np.zeros(4), np.ones(4)
        out = F.batch_norm2d(Tensor(x), gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_update(self):
        rng = np.random.default_rng(7)
        x = rng.normal(2.0, 1.0, size=(16, 2, 4, 4))
        rm, rv = np.zeros(2), np.ones(2)
        F.batch_norm2d(
            Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv,
            training=True, momentum=1.0,
        )
        np.testing.assert_allclose(rm, x.mean(axis=(0, 2, 3)))

    def test_eval_uses_running_stats(self):
        x = np.full((2, 1, 2, 2), 10.0)
        rm, rv = np.array([10.0]), np.array([4.0])
        out = F.batch_norm2d(
            Tensor(x), Tensor(np.ones(1)), Tensor(np.zeros(1)), rm, rv,
            training=False,
        )
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_training_gradients_match_numeric(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 2, 3, 3))
        gamma = rng.normal(size=2)
        beta = rng.normal(size=2)

        def forward(xv, gv, bv):
            return F.batch_norm2d(
                Tensor(xv), Tensor(gv), Tensor(bv),
                np.zeros(2), np.ones(2), training=True,
            )

        tx = Tensor(x.copy(), requires_grad=True)
        tg = Tensor(gamma.copy(), requires_grad=True)
        tb = Tensor(beta.copy(), requires_grad=True)
        out = F.batch_norm2d(
            tx, tg, tb, np.zeros(2), np.ones(2), training=True
        )
        # Weighted sum so gradients are non-trivial.
        weights = rng.normal(size=out.shape)
        (out * Tensor(weights)).sum().backward()

        gx = numeric_gradient(
            lambda v: float((forward(v, gamma, beta).data * weights).sum()), x.copy()
        )
        gg = numeric_gradient(
            lambda v: float((forward(x, v, beta).data * weights).sum()), gamma.copy()
        )
        gb = numeric_gradient(
            lambda v: float((forward(x, gamma, v).data * weights).sum()), beta.copy()
        )
        np.testing.assert_allclose(tx.grad, gx, atol=1e-4)
        np.testing.assert_allclose(tg.grad, gg, atol=1e-5)
        np.testing.assert_allclose(tb.grad, gb, atol=1e-5)


class TestSoftmaxAndLoss:
    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(5, 10))
        probs = F.softmax(Tensor(logits)).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-10)
        assert (probs >= 0).all()

    def test_log_softmax_stability(self):
        logits = np.array([[1000.0, 1000.0, -1000.0]])
        out = F.log_softmax(Tensor(logits)).data
        assert np.isfinite(out).all()

    def test_cross_entropy_value(self):
        logits = np.log(np.array([[0.7, 0.2, 0.1]]))
        loss = F.cross_entropy(Tensor(logits), np.array([0]))
        assert loss.item() == pytest.approx(-np.log(0.7), rel=1e-6)

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(4, 5))
        labels = np.array([0, 2, 4, 1])
        t = Tensor(logits, requires_grad=True)
        F.cross_entropy(t, labels).backward()
        probs = F.softmax(Tensor(logits)).data
        one_hot = np.zeros((4, 5))
        one_hot[np.arange(4), labels] = 1.0
        np.testing.assert_allclose(t.grad, (probs - one_hot) / 4, atol=1e-10)

    def test_cross_entropy_one_hot_targets(self):
        logits = np.random.default_rng(11).normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        one_hot = np.eye(4)[labels]
        a = F.cross_entropy(Tensor(logits), labels).item()
        b = F.cross_entropy(Tensor(logits), one_hot).item()
        assert a == pytest.approx(b)

    def test_label_smoothing_increases_loss_on_confident_model(self):
        logits = np.array([[20.0, -20.0]])
        plain = F.cross_entropy(Tensor(logits), np.array([0])).item()
        smoothed = F.cross_entropy(
            Tensor(logits), np.array([0]), label_smoothing=0.2
        ).item()
        assert smoothed > plain
