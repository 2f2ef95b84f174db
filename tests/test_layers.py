"""Linear, conv, pool, ReLU and loss layers against loop and FD oracles,
and the protocol every layer keeps: its parameter list and gradients."""

import math
import re

import numpy as np
import pytest

from aggnet import layers
from aggnet.aggregation import KIND_PATHS, FMeanLayer, GaussianSupportLayer, HybridLayer
from aggnet.gradcheck import fd_gradient, rel_error
from aggnet.layers import (
    ConvLayer,
    FlattenLayer,
    LinearLayer,
    MaxPool2x2Layer,
    NoCachedForward,
    ReLULayer,
    _blocks,
    _windows,
    softmax_xent,
)
from aggnet.model import build_cnn, build_mlp
from aggnet.ops import ShapeError


class TestLinearForward:
    def test_identity(self):
        rng = np.random.default_rng(0)
        layer = LinearLayer(4, 4, rng)
        layer.W.data = np.eye(4)
        layer.b.data = np.zeros(4)
        x = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_plain_sum(self):
        """All-ones weight row reduces to the plain sum of inputs."""
        layer = LinearLayer(3, 1)
        layer.W.data = np.ones((1, 3))
        layer.b.data = np.zeros(1)
        out = layer.forward(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(out, [[6.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(1)
        layer = LinearLayer(5, 3, rng)
        x = rng.standard_normal((4, 5))
        oracle = np.zeros((4, 3))
        for b in range(4):
            for o in range(3):
                oracle[b, o] = layer.b.data[o]
                for i in range(5):
                    oracle[b, o] += x[b, i] * layer.W.data[o, i]
        np.testing.assert_allclose(layer.forward(x), oracle, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            LinearLayer(3, 2).forward(np.ones((1, 4)))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        layer = LinearLayer(6, 4, rng)
        x = rng.standard_normal((2, 6))
        a = layer.forward(x.copy())
        b = layer.forward(x.copy())
        np.testing.assert_array_equal(a, b)


class TestLinearBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(3)
        layer = LinearLayer(4, 2, rng)
        layer.forward(rng.standard_normal((3, 4)))
        dx = layer.backward(np.zeros((3, 2)))
        assert not np.any(dx)
        assert not np.any(layer.W.grad)
        assert not np.any(layer.b.grad)

    def test_scalar_chain_rule(self):
        """Batch of 1, scalar in/out: dW = upstream * x exactly."""
        layer = LinearLayer(1, 1)
        layer.W.data = np.array([[2.0]])
        x = np.array([[3.0]])
        layer.forward(x)
        layer.backward(np.array([[5.0]]))
        np.testing.assert_array_equal(layer.W.grad, [[15.0]])
        np.testing.assert_array_equal(layer.b.grad, [5.0])

    def test_double_backward_raises(self):
        layer = LinearLayer(2, 2)
        layer.forward(np.ones((1, 2)))
        layer.backward(np.ones((1, 2)))
        with pytest.raises(NoCachedForward):
            layer.backward(np.ones((1, 2)))

    def test_eval_forward_does_not_cache(self):
        layer = LinearLayer(2, 2)
        layer.forward(np.ones((1, 2)), train=False)
        with pytest.raises(NoCachedForward):
            layer.backward(np.ones((1, 2)))

    def test_finite_difference_many_shapes(self):
        """Analytic gradients match FD over 50 random shapes and seeds."""
        rng = np.random.default_rng(4)
        for _ in range(50):
            i, o, b = rng.integers(1, 7, size=3)
            layer = LinearLayer(int(i), int(o), rng)
            x = rng.standard_normal((int(b), int(i)))
            C = rng.standard_normal((int(b), int(o)))

            def f():
                return float(np.sum(C * layer.forward(x, train=False)))

            layer.forward(x)
            dx = layer.backward(C)
            assert rel_error(dx, fd_gradient(f, x)) < 1e-5
            assert rel_error(layer.W.grad, fd_gradient(f, layer.W.data)) < 1e-5
            assert rel_error(layer.b.grad, fd_gradient(f, layer.b.data)) < 1e-5


class TestConv:
    def test_identity_kernel(self):
        """A single centered 1 in the kernel reproduces the input map."""
        layer = ConvLayer(1, 1)
        layer.kernels.data = np.zeros((1, 1, 3, 3))
        layer.kernels.data[0, 0, 1, 1] = 1.0
        layer.bias.data = np.zeros(1)
        x = np.random.default_rng(5).standard_normal((2, 1, 6, 6))
        np.testing.assert_allclose(layer.forward(x), x, atol=1e-15)

    def test_preserves_spatial_size(self):
        layer = ConvLayer(3, 8)
        out = layer.forward(np.zeros((2, 3, 10, 10)))
        assert out.shape == (2, 8, 10, 10)

    def test_against_scalar_loops(self):
        """Full conv arithmetic against a six-deep loop oracle."""
        rng = np.random.default_rng(6)
        layer = ConvLayer(2, 3, rng)
        x = rng.standard_normal((1, 2, 4, 4))
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        K, bias = layer.kernels.data, layer.bias.data
        oracle = np.zeros((1, 3, 4, 4))
        for o in range(3):
            for h in range(4):
                for w in range(4):
                    acc = bias[o]
                    for c in range(2):
                        for di in range(3):
                            for dj in range(3):
                                acc += xp[0, c, h + di, w + dj] * K[o, c, di, dj]
                    oracle[0, o, h, w] = acc
        np.testing.assert_allclose(layer.forward(x), oracle, atol=1e-12)

    def test_backward_finite_differences(self):
        """Conv backward matches FD on a 1x3x6x6 input, and on a 2x3x4x6
        batch into 5 channels, where a mix-up of the flipped kernel axes
        or of the map's height and width would show."""
        rng = np.random.default_rng(7)
        for b, cin, cout, h, w in ((1, 3, 2, 6, 6), (2, 3, 5, 4, 6)):
            layer = ConvLayer(cin, cout, rng)
            x = rng.standard_normal((b, cin, h, w))
            C = rng.standard_normal((b, cout, h, w))

            def f():
                return float(np.sum(C * layer.forward(x, train=False)))

            layer.forward(x)
            dx = layer.backward(C)
            assert rel_error(dx, fd_gradient(f, x)) < 1e-6
            assert rel_error(layer.kernels.grad, fd_gradient(f, layer.kernels.data)) < 1e-6
            assert rel_error(layer.bias.grad, fd_gradient(f, layer.bias.data)) < 1e-6

    @pytest.mark.parametrize("shape, block_elems, one_block", [
        # images in blocks of 2, 2, 1; channels in blocks of 6, 6, 4
        ((5, 16, 16, 32, 32), 2 * 16 * 9 * 32 * 32, False),
        # a first layer: images in blocks of 3, 2; channels in blocks of 2, 1
        ((5, 3, 64, 32, 32), 2 * 9 * 5 * 32 * 32, False),
        # the default budget at the paper's 64 -> 64 layer and batch 16:
        # images in blocks of 7, 7, 2; channels in blocks of 28, 28, 8
        ((16, 64, 64, 32, 32), None, False),
        # the default budget at the CNN's first layer, and at a small layer
        ((4, 3, 64, 32, 32), None, True),
        ((2, 2, 3, 4, 6), None, True),
    ], ids=["ragged", "first-layer", "paper-64", "first-layer-one-block", "small-one-block"])
    def test_blocks_equal_whole_batch_contractions(self, shape, block_elems, one_block,
                                                   monkeypatch):
        """Forward, dx and both parameter gradients have the bytes and the
        strides of the whole-batch einsums, whose (O, B, H, W) and (C, 3,
        3, O) layouts the next layer's bias gradient and the gradient norm
        add in, whether a call walks several blocks or fits in one.  Two
        shapes no model builds are left out: one channel in and one out,
        where einsum drops both channel axes and its dx differs from the
        blocks' matmul in the last bits, and a single 1x1 image, where
        einsum's kernel gradient keeps the sign of its zero padding taps."""
        B, C, O, H, W = shape
        if block_elems is not None:
            monkeypatch.setattr(layers, "_BLOCK_ELEMS", block_elems)
        # forward images, kernel-gradient channels, dx images
        blocks = [_blocks(count, width, layers._BLOCK_ELEMS)
                  for count, width in ((B, C * 9 * H * W), (C, 9 * B * H * W), (B, O * 9 * H * W))]
        if one_block:
            assert [len(b) for b in blocks] == [1, 1, 1]
        else:
            for b in blocks[:2]:
                assert len(b) >= 2 and b[-1].stop - b[-1].start < b[0].stop
            assert len(blocks[2]) >= 2
        rng = np.random.default_rng(39)
        layer = ConvLayer(C, O, rng)
        layer.bias.data = rng.standard_normal(O)
        K = layer.kernels.data
        x = rng.standard_normal((B, C, H, W))
        up = rng.standard_normal((B, O, H, W))
        # C-contiguous, as a pool passes it on, and laid out (O, B, H, W), as
        # a ReLU passes on the next conv's dx
        for up in (up, np.ascontiguousarray(up.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)):
            out = np.einsum("bchwij,ocij->bohw", _windows(x), K, optimize=True)
            out += layer.bias.data[None, :, None, None]
            want = [out,
                    np.einsum("bohwij,ocij->bchw", _windows(up), K[:, :, ::-1, ::-1],
                              optimize=True),
                    np.einsum("bohw,bchwij->ocij", up, _windows(x), optimize=True),
                    up.sum(axis=(0, 2, 3))]
            got = [layer.forward(x), layer.backward(up), layer.kernels.grad, layer.bias.grad]
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.strides == w.strides
                assert g.tobytes() == w.tobytes()

    def test_allocations(self, traced_peak):
        """At the paper's 64 -> 64 layer, 32x32, batch 32, the forward and
        the backward each hold at most 4 input sizes at once (measured 3.22
        and 3.25: the output or dx, one block's 32 MB window matrix and its
        padded images; the backward's kernel gradient also lays out the
        upstream once).  Whole-batch einsums held 11.13 and 11.16, their
        151 MB window copy nine input sizes of it."""
        rng = np.random.default_rng(40)
        layer = ConvLayer(64, 64, rng)
        x = rng.standard_normal((32, 64, 32, 32))
        assert traced_peak(lambda: layer.forward(x)) <= 4 * x.nbytes
        up = rng.standard_normal((32, 64, 32, 32))
        assert traced_peak(lambda: layer.backward(up)) <= 4 * x.nbytes


class TestMaxPool:
    def test_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = MaxPool2x2Layer().forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_tie_goes_to_first_in_row_major_order(self):
        """An all-equal window routes gradient to its top-left entry."""
        layer = MaxPool2x2Layer()
        x = np.ones((1, 1, 2, 2))
        layer.forward(x)
        dx = layer.backward(np.array([[[[7.0]]]]))
        np.testing.assert_array_equal(dx[0, 0], [[7.0, 0.0], [0.0, 0.0]])

    def test_tied_maximum_routes_to_first_tied_entry(self):
        """Four windows of one map tie at entries (1, 3), at (2, 3), at two
        +0.0 entries (1, 3) and at all four +0.0: each window's gradient
        goes to its first tied entry in row-major order and nowhere else."""
        windows = ([0.0, 5.0, 1.0, 5.0], [0.0, 1.0, 5.0, 5.0],
                   [-1.0, 0.0, -2.0, 0.0], [0.0, 0.0, 0.0, 0.0])
        first = (1, 2, 1, 0)
        x = np.zeros((1, 1, 4, 4))
        expected = np.zeros((1, 1, 4, 4))
        up = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        for k, (window, entry) in enumerate(zip(windows, first)):
            i, j = divmod(k, 2)
            x[0, 0, 2 * i:2 * i + 2, 2 * j:2 * j + 2] = np.reshape(window, (2, 2))
            expected[0, 0, 2 * i + entry // 2, 2 * j + entry % 2] = up[0, 0, i, j]
        layer = MaxPool2x2Layer()
        np.testing.assert_array_equal(layer.forward(x)[0, 0], [[5.0, 5.0], [0.0, 0.0]])
        np.testing.assert_array_equal(layer.backward(up), expected)

    def test_allocations(self, traced_peak):
        """Forward holds at most 0.6 input-sizes at once (measured 0.47: the
        output and four boolean masks), backward at most 1.1 (measured 1.00:
        dx alone); a transposed window copy, as in a (B, C, h, w, 4)
        layout, would cost a whole input-size more in each."""
        x = np.maximum(np.random.default_rng(10).standard_normal((8, 16, 32, 32)), 0.0)
        layer = MaxPool2x2Layer()
        assert traced_peak(lambda: layer.forward(x)) <= 0.6 * x.nbytes
        up = np.ones((8, 16, 16, 16))
        assert traced_peak(lambda: layer.backward(up)) <= 1.1 * x.nbytes

    def test_gradient_mass_conserved(self):
        """sum(dx) == sum(upstream) for random inputs."""
        rng = np.random.default_rng(8)
        for _ in range(20):
            layer = MaxPool2x2Layer()
            x = rng.standard_normal((2, 3, 6, 6))
            layer.forward(x)
            up = rng.standard_normal((2, 3, 3, 3))
            dx = layer.backward(up)
            assert dx.sum() == pytest.approx(up.sum(), abs=1e-12)

    def test_odd_size_rejected(self):
        """An odd spatial size, or an input that is not (B, C, H, W)."""
        for shape in ((1, 1, 3, 4), (1, 4, 4)):
            with pytest.raises(ShapeError):
                MaxPool2x2Layer().forward(np.zeros(shape))


class TestReLU:
    def test_definition(self):
        out = ReLULayer().forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_gradient_zero_at_zero(self):
        """Backward masks at x <= 0, including exactly 0."""
        layer = ReLULayer()
        layer.forward(np.array([-1.0, 0.0, 2.0]))
        dx = layer.backward(np.ones(3))
        np.testing.assert_array_equal(dx, [0.0, 0.0, 1.0])

    def test_caches_only_the_mask(self):
        """Backward reads only where x > 0: the cache is that boolean mask,
        one byte per element, not the float64 input."""
        layer = ReLULayer()
        x = np.random.default_rng(0).standard_normal((4, 5))
        layer.forward(x)
        assert layer._cache.dtype == bool
        np.testing.assert_array_equal(layer._cache, x > 0)


class TestFlatten:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        layer = FlattenLayer()
        x = rng.standard_normal((2, 3, 4, 4))
        out = layer.forward(x)
        assert out.shape == (2, 48)
        dx = layer.backward(out)
        np.testing.assert_array_equal(dx, x)


class TestSoftmaxXent:
    def test_uniform_logits(self):
        """Uniform logits over 10 classes give loss ln 10."""
        loss, _ = softmax_xent(np.zeros((4, 10)), np.array([0, 3, 5, 9]))
        assert loss == pytest.approx(math.log(10.0), abs=1e-12)

    def test_confident_correct_saturates_to_zero(self):
        logits = np.zeros((1, 10))
        logits[0, 2] = 60.0
        loss, _ = softmax_xent(logits, np.array([2]))
        assert loss < 1e-12

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal((3, 6))
        labels = np.array([0, 5, 2])
        _, dlogits = softmax_xent(logits, labels)
        fd = fd_gradient(lambda: softmax_xent(logits, labels)[0], logits)
        assert rel_error(dlogits, fd) < 1e-6

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            softmax_xent(np.zeros((1, 3)), np.array([3]))
        with pytest.raises(ValueError):
            softmax_xent(np.zeros((1, 3)), np.array([-1]))


PARAM_NAMES = {
    "fmean": ["W", "b", "p"],
    "gaussian": ["W", "b", "log_sigma"],
    "fmean-hybrid": ["W", "b", "p", "alpha_raw"],
    "gaussian-hybrid": ["W", "b", "log_sigma", "alpha_raw"],
    "threeway-hybrid": ["W", "b", "p", "log_sigma", "alpha_raw"],
}


@pytest.mark.parametrize("build, names", [
    *((lambda k=kind: HybridLayer(3, 2, k), PARAM_NAMES[kind]) for kind in KIND_PATHS),
    (lambda: FMeanLayer(3, 2), PARAM_NAMES["fmean"]),
    (lambda: GaussianSupportLayer(3, 2), PARAM_NAMES["gaussian"]),
    (lambda: LinearLayer(3, 2), ["W", "b"]),
    (lambda: ConvLayer(2, 3), ["kernels", "bias"]),
    (ReLULayer, []),
    (FlattenLayer, []),
    (MaxPool2x2Layer, []),
], ids=[*KIND_PATHS, "FMeanLayer", "GaussianSupportLayer", "linear", "conv", "relu",
        "flatten", "pool"])
def test_params_order_and_names(build, names):
    """params() lists a layer's Parameter attributes in a fixed order, the
    order Adam's state and the checkpoint layout follow; each Parameter is
    named after the attribute that holds it."""
    layer = build()
    assert [p.name for p in layer.params()] == names
    for p in layer.params():
        assert getattr(layer, p.name) is p


GRAD_CASES = {
    "linear": (lambda rng: LinearLayer(5, 4, rng), (3, 5)),
    "conv": (lambda rng: ConvLayer(2, 3, rng), (2, 2, 4, 4)),
    **{kind: (lambda rng, k=kind: HybridLayer(5, 4, k, rng), (3, 5)) for kind in KIND_PATHS},
    "mlp": (lambda rng: build_mlp("threeway-hybrid", rng, in_dim=6, proj_dim=5, hidden_dim=4,
                                  classes=3), (3, 6)),
    "cnn": (lambda rng: build_cnn("threeway-hybrid", rng, proj_dim=5, hidden_dim=4,
                                  classes=3), (2, 3, 32, 32)),
}


@pytest.mark.parametrize("name", GRAD_CASES)
def test_backward_replaces_every_gradient(name):
    """Backward assigns every parameter's gradient: a NaN left on .grad
    beforehand changes nothing, so no pass has to clear gradients."""
    build, shape = GRAD_CASES[name]

    def grads(stale):
        rng = np.random.default_rng(0)
        net = build(rng)
        params = net.parameters() if hasattr(net, "parameters") else net.params()
        if stale:
            for p in params:
                p.grad = np.full_like(p.data, np.nan)
        out = net.forward(rng.standard_normal(shape), train=True)
        net.backward(rng.standard_normal(out.shape))
        return [p.grad for p in params]

    fresh, stale = grads(False), grads(True)
    assert fresh and len(fresh) == len(stale)
    for f, s in zip(fresh, stale):
        assert np.array_equal(f, s)


@pytest.mark.parametrize("name", [*GRAD_CASES, "relu", "pool", "flatten"])
def test_misshaped_upstream_rejected(name):
    """A backward whose upstream is not shaped like its forward's output
    raises ShapeError naming both shapes before it assigns any gradient,
    also where numpy would broadcast the upstream."""
    build, shape = {**GRAD_CASES,
                    "relu": (lambda rng: ReLULayer(), (3, 4)),
                    "pool": (lambda rng: MaxPool2x2Layer(), (2, 3, 4, 4)),
                    "flatten": (lambda rng: FlattenLayer(), (2, 3, 2, 2))}[name]
    rng = np.random.default_rng(43)
    x = rng.standard_normal(shape)
    out = build(rng).forward(x).shape
    for bad in [(out[0] + 1, *out[1:]), (1, *out[1:]), (*out[:-1], 1), ()]:
        net = build(rng)
        net.forward(x)
        with pytest.raises(ShapeError, match=re.escape(f"{bad}") + ".*" + re.escape(f"{out}")):
            net.backward(np.ones(bad))
        params = net.parameters() if hasattr(net, "parameters") else net.params()
        assert all(p.grad is None for p in params)


@pytest.mark.parametrize("build, shape", [
    (lambda rng: ConvLayer(3, 4, rng), (2, 3, 6, 6)),
    (lambda rng: LinearLayer(5, 4, rng), (3, 5)),
], ids=["conv", "linear"])
def test_backward_without_dx(build, shape):
    """need_dx=False returns no input gradient and leaves every parameter
    gradient bit for bit as the default backward gives it."""
    def grads(need_dx):
        rng = np.random.default_rng(41)
        layer = build(rng)
        out = layer.forward(rng.standard_normal(shape))
        dx = layer.backward(rng.standard_normal(out.shape), need_dx=need_dx)
        return dx, [p.grad for p in layer.params()]

    dx, want = grads(True)
    assert dx.shape == shape
    none, got = grads(False)
    assert none is None
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_model_backward_skips_the_first_input_gradient(monkeypatch):
    """The CNN's backward makes the input gradient of its last three conv
    layers only, and every parameter gradient is bit for bit that of a
    backward through all layers with their input gradients."""
    calls = []
    conv = layers._conv
    monkeypatch.setattr(layers, "_conv", lambda x, K: calls.append(K.shape) or conv(x, K))
    rng = np.random.default_rng(42)
    net = build_cnn("baseline", rng, proj_dim=5, hidden_dim=4, classes=3)
    x, up = rng.standard_normal((2, 3, 32, 32)), rng.standard_normal((2, 3))
    net.forward(x)
    calls.clear()
    assert net.backward(up) is None
    # dx of each conv convolves with its kernels' channel axes swapped
    assert calls == [(128, 128, 3, 3), (64, 128, 3, 3), (64, 64, 3, 3)]
    got = [p.grad for p in net.parameters()]
    net.forward(x)
    grad = up
    for layer in reversed(net.layers):
        grad = layer.backward(grad)
    assert grad.shape == x.shape
    for g, p in zip(got, net.parameters()):
        assert g.tobytes() == p.grad.tobytes()
