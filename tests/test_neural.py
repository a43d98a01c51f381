import filecmp

import numpy as np
import pytest

from ammlab import neural
from ammlab.errors import ShapeError


class TestForward:
    def test_zero_parameters_zero_output(self):
        net = neural.Mlp([4, 8, 2], seed=0)
        for w in net.weights:
            w[:] = 0.0
        assert np.array_equal(neural.forward(net, np.ones(4)), np.zeros(2))

    def test_identity_single_layer(self):
        net = neural.Mlp([2, 2], seed=0)
        net.weights[0][...] = np.eye(2)
        net.biases[0][...] = np.zeros(2)
        x = np.array([0.3, -1.7])
        assert np.array_equal(neural.forward(net, x), x)  # output layer is affine

    def test_against_hand_rolled_chain(self):
        # independent reference: explicit matmul/relu chain in the test
        net = neural.Mlp([8, 128, 64, 2], seed=123)
        rng = np.random.default_rng(5)
        x = rng.normal(size=8)
        h = x
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            h = h @ w + b
            if i < 2:
                h = np.maximum(h, 0.0)
        assert neural.forward(net, x) == pytest.approx(h, abs=1e-12)

    def test_batch_matches_rows(self):
        net = neural.Mlp([8, 16, 2], seed=1)
        rng = np.random.default_rng(9)
        batch = rng.normal(size=(7, 8))
        out = neural.forward(net, batch)
        for i in range(7):
            # same code path; BLAS may reorder sums, so exact to 1e-12 only
            assert out[i] == pytest.approx(neural.forward(net, batch[i]), abs=1e-12)

    def test_shape_error(self):
        net = neural.Mlp([8, 4, 2], seed=0)
        with pytest.raises(ShapeError):
            neural.forward(net, np.ones(5))
        with pytest.raises(ShapeError):
            neural.forward_cached(net, 1.0)


def finite_difference_grads(net, x, grad_out, h=1e-5):
    def loss():
        return float(np.sum(neural.forward(net, x) * grad_out))

    out = []
    for li in range(net.n_layers):
        for arr in (net.weights[li], net.biases[li]):
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lp = loss()
                arr[idx] = orig - h
                lm = loss()
                arr[idx] = orig
                g[idx] = (lp - lm) / (2 * h)
            out.append(g)
    return [(out[2 * i], out[2 * i + 1]) for i in range(net.n_layers)]


class TestBackward:
    def test_zero_upstream_gradient(self):
        net = neural.Mlp([3, 5, 2], seed=2)
        _, cache = neural.forward_cached(net, np.ones(3))
        neural.backward(net, cache, np.zeros(2))
        assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in zip(cache.grad_w, cache.grad_b))

    def test_linear_layer_outer_product(self):
        net = neural.Mlp([3, 2], seed=0)
        x = np.array([1.0, -2.0, 0.5])
        g = np.array([0.7, -0.3])
        _, cache = neural.forward_cached(net, x)
        neural.backward(net, cache, g)
        (gw,), (gb,) = cache.grad_w, cache.grad_b
        assert gw == pytest.approx(np.outer(x, g))
        assert gb == pytest.approx(g)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        net = neural.Mlp([8, 12, 6, 2], seed=77)
        x = rng.normal(size=(4, 8))
        grad_out = rng.normal(size=(4, 2))
        _, cache = neural.forward_cached(net, x)
        neural.backward(net, cache, grad_out)
        analytic = zip(cache.grad_w, cache.grad_b)
        numeric = finite_difference_grads(net, x, grad_out)
        for (aw, ab), (nw, nb) in zip(analytic, numeric):
            for a, n in ((aw, nw), (ab, nb)):
                big = np.abs(a) > 1e-8
                assert np.max(np.abs(a[big] - n[big]) / np.abs(a[big])) < 1e-4

    def test_relu_dead_zone(self):
        net = neural.Mlp([1, 1, 1], seed=0)
        net.weights[0][:] = 1.0
        net.biases[0][:] = -5.0  # pre-activation negative for small inputs
        net.weights[1][:] = 1.0
        _, cache = neural.forward_cached(net, np.array([1.0]))
        neural.backward(net, cache, np.array([1.0]))
        assert cache.grad_w[0] == pytest.approx(np.zeros((1, 1)))


class TestAdam:
    def test_zero_gradients_no_change(self):
        net = neural.Mlp([3, 3], seed=4)
        before = [w.copy() for w in net.weights]
        opt = neural.AdamState.for_net(net)
        neural.adam_update(net, np.zeros(3 * 3 + 3), opt)
        assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))

    def test_first_step_is_signed_learning_rate(self):
        net = neural.Mlp([2, 2], seed=0)
        w0 = net.weights[0].copy()
        opt = neural.AdamState.for_net(net, learning_rate=1e-4)
        g = np.array([0.5, 0.5, 0.5, 0.5, 0.0, 0.0])  # the 2x2 weights, then the 2 biases
        neural.adam_update(net, g, opt)
        # bias correction makes m-hat = g and v-hat = g^2: delta ~ -lr*sign(g)
        assert net.weights[0] - w0 == pytest.approx(-1e-4 * np.ones((2, 2)), rel=1e-6)

    def test_constant_gradient_step_size_approaches_lr(self):
        net = neural.Mlp([1, 1], seed=0)
        opt = neural.AdamState.for_net(net, learning_rate=1e-3)
        g = np.array([0.37, 0.0])  # the one weight, then the one bias
        prev = net.weights[0].copy()
        for _ in range(200):
            prev = net.weights[0].copy()
            neural.adam_update(net, g, opt)
        assert abs(float(prev[0, 0] - net.weights[0][0, 0])) == pytest.approx(1e-3, rel=1e-3)


class TestCopyAndCheckpoint:
    def test_copy_gives_equal_outputs(self):
        a = neural.Mlp([4, 6, 2], seed=10)
        b = neural.Mlp([4, 6, 2], seed=99)
        neural.copy_parameters(a, b)
        x = np.random.default_rng(0).normal(size=4)
        assert np.array_equal(neural.forward(a, x), neural.forward(b, x))

    def test_copy_is_deep(self):
        a = neural.Mlp([4, 6, 2], seed=10)
        b = neural.Mlp([4, 6, 2], seed=99)
        neural.copy_parameters(a, b)
        a.weights[0][0, 0] += 1.0
        assert b.weights[0][0, 0] != a.weights[0][0, 0]

    def test_copy_shape_mismatch(self):
        with pytest.raises(ShapeError):
            neural.copy_parameters(neural.Mlp([4, 2], seed=0), neural.Mlp([4, 3], seed=0))

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        net = neural.Mlp([8, 128, 64, 2], seed=4)
        opt = neural.AdamState.for_net(net)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        neural.save_checkpoint(p1, net, metadata={"seed": 4, "training_step": 0}, opt=opt)
        loaded, meta, opt2 = neural.load_checkpoint(p1)
        assert meta["seed"] == 4
        assert opt2.step == 0
        neural.save_checkpoint(p2, loaded, metadata={"seed": 4, "training_step": 0}, opt=opt2)
        assert filecmp.cmp(p1, p2, shallow=False)
        x = np.random.default_rng(1).normal(size=8)
        assert np.array_equal(neural.forward(net, x), neural.forward(loaded, x))


class TestFlatParameters:
    def test_layers_are_views_that_cannot_be_rebound(self):
        net = neural.Mlp([3, 4, 2], seed=0)
        assert all(np.shares_memory(a, net.params) for a in net.weights + net.biases)
        assert net.params.size == 3 * 4 + 4 + 4 * 2 + 2
        with pytest.raises(TypeError):
            net.weights[0] = np.ones((3, 4))
        with pytest.raises(TypeError):
            net.biases[1] = np.zeros(2)

    def test_gradient_must_be_laid_out_like_params(self):
        net = neural.Mlp([3, 4, 2], seed=1)
        opt = neural.AdamState.for_net(net)
        with pytest.raises(ShapeError):
            neural.adam_update(net, np.zeros(net.params.size + 1), opt)
        assert opt.step == 0

    def test_workspace_holds_its_row_count(self):
        net = neural.Mlp([3, 4, 2], seed=0)
        work = neural.Workspace(net.layer_dims, 5)
        with pytest.raises(ShapeError):
            neural.forward_cached(net, np.ones((4, 3)), work)
        y, cache = neural.forward_cached(net, np.ones((5, 3)), work)
        assert cache is work and np.shares_memory(y, work.acts[-1])
        assert np.array_equal(y, neural.forward(net, np.ones((5, 3))))
