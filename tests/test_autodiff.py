"""Gradient checks for every differentiable primitive against central
finite differences, plus tape mechanics (accumulation, broadcasting,
no-grad mode)."""
import numpy as np
import pytest

from hvacrl.neuralsub import tensor as T
from hvacrl.neuralsub.optim import Adam

from gradcheck import TOL, check_op
import reference_graphs as R
from reference_graphs import causal_bias, composed_encoder_block, composed_mlp


def rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


def rand_shape(rng, ndim, lo=1, hi=5):
    return tuple(int(rng.integers(lo, hi + 1)) for _ in range(ndim))


class TestElementwiseOps:
    @pytest.mark.parametrize("seed", range(5))
    def test_add_mul_sub_broadcast(self, seed):
        rng = np.random.default_rng(seed)
        shape = rand_shape(rng, 2)
        a = rand(rng, *shape)
        b = rand(rng, shape[-1])  # broadcast along rows

        def build(ts):
            x, y = ts
            return T.mean(T.mul(T.add(x, y), T.sub(x, T.scale(y, 0.5))))

        assert check_op(build, [a, b]) <= TOL

    @pytest.mark.parametrize("seed", range(5))
    def test_unary_chain(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = rand(rng, *rand_shape(rng, 2))

        def build(ts):
            (x,) = ts
            y = T.add(T.tanh(x), R.relu(x))
            y = T.add(y, T.softplus(x))
            y = T.add(y, T.exp(T.scale(x, 0.3)))
            return T.mean(y)

        assert check_op(build, [a]) <= TOL

    @pytest.mark.parametrize("seed", range(4))
    def test_log_square(self, seed):
        rng = np.random.default_rng(200 + seed)
        a = rng.uniform(0.5, 3.0, size=rand_shape(rng, 2))

        def build(ts):
            (x,) = ts
            return T.mean(T.add(R.log(x), T.square(x)))

        assert check_op(build, [a]) <= TOL

    @pytest.mark.parametrize("seed", range(4))
    def test_clip_interior(self, seed):
        # gradient is checked away from the clamp edges where FD is valid
        rng = np.random.default_rng(300 + seed)
        a = rng.uniform(-0.8, 0.8, size=(3, 4))

        def build(ts):
            (x,) = ts
            return T.mean(T.square(T.clip(x, -1.0, 1.0)))

        assert check_op(build, [a]) <= TOL

    def test_clip_blocks_gradient_outside(self):
        x = T.parameter(np.array([-5.0, 0.0, 5.0], dtype=np.float32))
        T.backward(T.sum_(T.clip(x, -1.0, 1.0)))
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_minimum_routes_gradient(self, seed):
        rng = np.random.default_rng(400 + seed)
        shape = rand_shape(rng, 2)
        a, b = rand(rng, *shape), rand(rng, *shape)
        # keep the two inputs separated so FD never straddles a crossing
        gap = np.abs(a - b) < 0.1
        a[gap] += 0.5

        def build(ts):
            x, y = ts
            return T.mean(T.square(T.minimum(x, y)))

        assert check_op(build, [a, b]) <= TOL


class TestMatmulOps:
    @pytest.mark.parametrize("seed", range(6))
    def test_matmul_2d(self, seed):
        rng = np.random.default_rng(500 + seed)
        m, k, n = rand_shape(rng, 3, 1, 6)
        a, b = rand(rng, m, k), rand(rng, k, n)

        def build(ts):
            return T.mean(T.square(R.matmul(ts[0], ts[1])))

        assert check_op(build, [a, b]) <= TOL

    @pytest.mark.parametrize("seed", range(6))
    def test_matmul_batched(self, seed):
        rng = np.random.default_rng(600 + seed)
        bsz, m, k, n = rand_shape(rng, 4, 1, 4)
        a, b = rand(rng, bsz, m, k), rand(rng, bsz, k, n)

        def build(ts):
            return T.mean(T.square(R.matmul(ts[0], ts[1])))

        assert check_op(build, [a, b]) <= TOL

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_affine(self, seed, ndim):
        rng = np.random.default_rng(700 + seed)
        k, n = rand_shape(rng, 2, 2, 5)
        lead = rand_shape(rng, ndim - 1, 1, 4)
        x, w, b = rand(rng, *lead, k), rand(rng, k, n), rand(rng, n)

        def build(ts):
            return T.mean(T.square(T.affine(*ts)))

        assert check_op(build, [x, w, b]) <= TOL


class TestReductionsAndShape:
    @pytest.mark.parametrize("seed", range(4))
    def test_sum_mean_axes(self, seed):
        rng = np.random.default_rng(800 + seed)
        a = rand(rng, 3, 4, 2)
        axis = int(rng.integers(0, 3))

        def build(ts):
            (x,) = ts
            s = T.sum_(T.square(x), axis=axis)
            m = T.mean(x, axis=axis, keepdims=True)
            return T.add(T.mean(s), T.mean(T.square(m)))

        assert check_op(build, [a]) <= TOL

    @pytest.mark.parametrize("seed", range(4))
    def test_reshape_swap_concat_narrow(self, seed):
        rng = np.random.default_rng(900 + seed)
        a = rand(rng, 2, 3, 4)
        b = rand(rng, 2, 3, 2)

        def build(ts):
            x, y = ts
            z = T.concat([x, y], axis=-1)          # (2, 3, 6)
            z = R.swapaxes(z, 0, 1)                # (3, 2, 6)
            z = T.narrow(z, 2, 1, 4)               # (3, 2, 4)
            z = T.reshape(z, (6, 4))
            return T.mean(T.square(z))

        assert check_op(build, [a, b]) <= TOL

    @pytest.mark.parametrize("seed", range(3))
    def test_take_per_row(self, seed):
        rng = np.random.default_rng(1000 + seed)
        a = rand(rng, 4, 5, 3)
        idx = rng.integers(0, 5, size=4)

        def build(ts):
            (x,) = ts
            return T.mean(T.square(T.take_per_row(x, idx)))

        assert check_op(build, [a]) <= TOL

    @pytest.mark.parametrize("seed", range(3))
    def test_index_select(self, seed):
        rng = np.random.default_rng(1050 + seed)
        a = rand(rng, 5, 3)
        idx = rng.integers(0, 5, size=7)  # repeats force scatter-add

        def build(ts):
            (x,) = ts
            return T.mean(T.square(T.index_select(x, idx)))

        assert check_op(build, [a]) <= TOL


class TestNormalizers:
    @pytest.mark.parametrize("seed", range(6))
    def test_softmax(self, seed):
        rng = np.random.default_rng(1100 + seed)
        a = rand(rng, *rand_shape(rng, 3, 2, 5))
        probe = np.asarray(rng.uniform(-1, 1, size=a.shape))

        def build(ts):
            (x,) = ts
            return T.mean(T.mul(R.softmax(x, axis=-1), probe))

        assert check_op(build, [a]) <= TOL

    @pytest.mark.parametrize("seed", range(3))
    def test_softmax_with_mask_bias(self, seed):
        rng = np.random.default_rng(1200 + seed)
        a = rand(rng, 2, 4, 4)
        bias = np.where(np.tril(np.ones((4, 4), dtype=bool)), 0.0, -1e9)
        bias = bias[None].astype(np.float32)
        probe = np.asarray(rng.uniform(-1, 1, size=a.shape))

        def build(ts):
            (x,) = ts
            return T.mean(T.mul(R.softmax(x, axis=-1, mask_bias=bias), probe))

        assert check_op(build, [a]) <= TOL

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        y = R.softmax(T.Tensor(rand(rng, 8, 5)), axis=-1).data
        assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(y >= 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_layer_norm(self, seed):
        rng = np.random.default_rng(1300 + seed)
        lead = rand_shape(rng, int(rng.integers(1, 3)), 1, 4)
        n = int(rng.integers(2, 8))
        x = rand(rng, *lead, n)
        gain = rng.uniform(0.5, 1.5, size=n)
        bias = rand(rng, n) * 0.1
        probe = np.asarray(rng.uniform(-1, 1, size=x.shape))

        def build(ts):
            return T.mean(T.mul(R.layer_norm(*ts), probe))

        assert check_op(build, [x, gain, bias]) <= TOL

    def test_layer_norm_output_standardized(self):
        rng = np.random.default_rng(1)
        x = T.Tensor(rand(rng, 6, 10) * 3 + 5)
        y = R.layer_norm(x, T.Tensor(np.ones(10)), T.Tensor(np.zeros(10))).data
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(y.std(axis=-1), 1.0, atol=1e-2)


class TestTapeMechanics:
    def test_shared_node_accumulates(self):
        x = T.parameter(np.array([3.0], dtype=np.float32))
        y = T.mul(x, x)              # x used twice
        z = T.add(y, T.scale(x, 4.0))  # d/dx (x^2 + 4x) = 2x + 4
        T.backward(T.sum_(z))
        assert np.allclose(x.grad, [10.0])

    def test_broadcast_gradient_reduces(self):
        x = T.parameter(np.ones((1, 3), dtype=np.float32))
        y = T.add(x, np.zeros((4, 3), dtype=np.float32))
        T.backward(T.sum_(y))
        assert x.grad.shape == (1, 3)
        assert np.allclose(x.grad, 4.0)

    def test_no_grad_blocks_recording(self):
        x = T.parameter(np.ones(3, dtype=np.float32))
        with T.no_grad():
            y = T.mul(x, x)
        assert not y.requires_grad
        assert y._parents == ()

    def test_backward_requires_scalar(self):
        x = T.parameter(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(Exception):
            T.backward(T.mul(x, x))

    def test_float32_is_default_dtype(self):
        t = T.Tensor([1.0, 2.0])
        assert t.dtype == np.float32
        assert T.add(t, 1.0).dtype == np.float32


class TestMLPNode:
    @staticmethod
    def run(forward, x_arr, layer_arrs, x_grad, applications):
        x = T.Tensor(x_arr, requires_grad=x_grad)
        layers = [(T.parameter(w), T.parameter(b)) for w, b in layer_arrs]
        outs = [forward(T.scale(x, c), layers) for c in (1.0, -0.5)[:applications]]
        # a random linear readout makes every upstream gradient entry differ
        readout = np.random.default_rng(0).uniform(
            -1, 1, size=outs[0].shape).astype(np.float32)
        loss = T.sum_(T.mul(outs[0], readout))
        for out in outs[1:]:
            loss = T.add(loss, T.mean(T.square(out)))
        T.backward(loss)
        grads = [x.grad] + [t.grad for pair in layers for t in pair]
        return [o.data for o in outs], grads

    @pytest.mark.parametrize("applications", [1, 2])
    @pytest.mark.parametrize("x_grad", [True, False])
    @pytest.mark.parametrize("out_width", [1, 3])
    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_bit_equal_to_composed_graph(self, ndim, depth, out_width, x_grad,
                                         applications):
        rng = np.random.default_rng(ndim * 100 + depth * 10 + out_width)
        sizes = [7] + [16] * (depth - 1) + [out_width]
        lead = (32,) if ndim == 2 else (4, 8)
        x_arr = rng.normal(size=lead + (7,)).astype(np.float32)
        layer_arrs = [(rng.uniform(-0.6, 0.6, size=(i, o)).astype(np.float32),
                       rng.uniform(-0.3, 0.3, size=o).astype(np.float32))
                      for i, o in zip(sizes[:-1], sizes[1:])]
        got_outs, got_grads = self.run(T.mlp, x_arr, layer_arrs, x_grad,
                                       applications)
        ref_outs, ref_grads = self.run(composed_mlp, x_arr, layer_arrs, x_grad,
                                       applications)
        for got, ref in zip(got_outs, ref_outs):
            assert got.dtype == ref.dtype == np.float32
            assert np.array_equal(got, ref)
        assert (got_grads[0] is None) == (not x_grad)
        for got, ref in zip(got_grads, ref_grads):
            if ref is None:
                assert got is None
            else:
                assert got.dtype == ref.dtype
                assert np.array_equal(got, ref)

    def test_no_grad_forward_matches(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 4))
        layers = [(T.parameter(rng.normal(size=(4, 6))), T.parameter(rng.normal(size=6))),
                  (T.parameter(rng.normal(size=(6, 2))), T.parameter(rng.normal(size=2)))]
        with T.no_grad():
            out = T.mlp(x, layers)
        assert not out.requires_grad
        assert np.array_equal(out.data, composed_mlp(x, layers).data)

    def test_gradcheck(self):
        rng = np.random.default_rng(800)
        arrays = [rand(rng, 6, 4), rand(rng, 4, 5), rand(rng, 5),
                  rand(rng, 5, 5), rand(rng, 5), rand(rng, 5, 1), rand(rng, 1)]

        def build(ts):
            x, *flat = ts
            layers = list(zip(flat[0::2], flat[1::2]))
            return T.mean(T.square(T.mlp(x, layers)))

        assert check_op(build, arrays) <= TOL


class TestGradientsNeverWrittenInPlace:
    def test_shared_gradient_survives_later_accumulation_and_adam(self):
        a = T.parameter(np.ones(3))
        b = T.parameter(np.full(3, 2.0))
        T.backward(T.sum_(T.add(a, b)))
        assert np.shares_memory(a.grad, b.grad)   # one array, two leaves
        before = b.grad.copy()
        T.backward(T.sum_(T.scale(a, 3.0)))       # a further backward into a
        assert np.array_equal(a.grad, before + 3.0)
        assert np.array_equal(b.grad, before)
        Adam([a, b], lr=0.1).step()
        assert np.array_equal(b.grad, before)
        assert np.array_equal(a.grad, before + 3.0)

    def test_float64_contribution_rounds_once(self):
        # 1 + 2^-24 + 2^-50 rounds up to 1 + 2^-23 in float32; rounding the
        # contribution to float32 first leaves an exact tie that rounds to 1
        t = T.parameter(np.ones(1))
        T._accumulate(t, np.ones(1, dtype=np.float32))
        T._accumulate(t, np.array([2.0 ** -24 + 2.0 ** -50]))
        assert t.grad.dtype == np.float32
        assert t.grad[0] == np.float32(1.0 + 2.0 ** -23)


def block_weights(rng, d, hidden, dtype=np.float32):
    """The 16 `T.encoder_block` parameter arrays for width d."""
    arrays = []
    for _ in range(4):      # q, k, v and output projections
        arrays += [rng.uniform(-0.5, 0.5, size=(d, d)),
                   rng.uniform(-0.1, 0.1, size=d)]
    norm = [rng.uniform(0.5, 1.5, size=d), rng.uniform(-0.1, 0.1, size=d)]
    arrays += norm
    arrays += [rng.uniform(-0.5, 0.5, size=(d, hidden)),
               rng.uniform(-0.1, 0.1, size=hidden),
               rng.uniform(-0.5, 0.5, size=(hidden, d)),
               rng.uniform(-0.1, 0.1, size=d)]
    arrays += [rng.uniform(0.5, 1.5, size=d), rng.uniform(-0.1, 0.1, size=d)]
    return [a.astype(dtype) for a in arrays]


class TestEncoderBlockNode:
    @staticmethod
    def run(block, x_arr, weight_arrs, heads, bias):
        """One block under a random linear readout; returns its output and
        the gradients of the input and of all 16 parameters."""
        x = T.parameter(x_arr)
        weights = [T.parameter(a) for a in weight_arrs]
        out = block(x, weights, heads, bias)
        readout = np.random.default_rng(0).uniform(-1, 1, size=out.shape)
        T.backward(T.sum_(T.mul(out, readout.astype(np.float32))))
        return [out.data, x.grad] + [w.grad for w in weights]

    @pytest.mark.parametrize("prefix", ["full", "mixed"])
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("heads", [1, 4])
    def test_bit_equal_to_composed_graph(self, heads, batch, prefix):
        n, d, hidden = 6, 20, 24   # head sizes 20 and 5
        rng = np.random.default_rng(heads * 100 + batch * 10 + len(prefix))
        counts = (np.full(batch, n) if prefix == "full"
                  else rng.integers(1, n + 1, size=batch))
        if prefix == "mixed":
            counts[0] = 3     # a strict prefix even at batch 1
        bias = causal_bias(counts, n, heads)
        x_arr = rng.uniform(-1, 1, size=(batch, n, d)).astype(np.float32)
        weight_arrs = block_weights(rng, d, hidden)
        got = self.run(T.encoder_block, x_arr, weight_arrs, heads, bias)
        ref = self.run(composed_encoder_block, x_arr, weight_arrs, heads, bias)
        assert len(got) == len(ref) == 18
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype == np.float32
            assert np.array_equal(g, r)

    def test_no_grad_forward_matches(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 4, 8)).astype(np.float32)
        weights = [T.parameter(a) for a in block_weights(rng, 8, 12)]
        bias = causal_bias([1, 4, 2], 4, 2)
        with T.no_grad():
            out = T.encoder_block(x, weights, 2, bias)
        assert not out.requires_grad
        assert np.array_equal(
            out.data, composed_encoder_block(T.Tensor(x), weights, 2, bias).data)

    def test_gradcheck(self):
        rng = np.random.default_rng(820)
        bias = causal_bias([4, 2], 4, 2)
        arrays = [rand(rng, 2, 4, 6)] + block_weights(rng, 6, 5, np.float64)
        probe = rng.uniform(-1, 1, size=(2, 4, 6))

        def build(ts):
            return T.mean(T.mul(T.encoder_block(ts[0], ts[1:], 2, bias), probe))

        assert check_op(build, arrays) <= TOL


class TestLayerNormStatistics:
    @pytest.mark.parametrize("shape", [(64, 100), (4, 8, 100), (1, 8, 7)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_mean_var_formula(self, dtype, shape):
        # the forward and the input gradient, as `x.mean`/`x.var` give them
        rng = np.random.default_rng(len(shape))
        x = (rng.normal(size=shape) * 3 + 1).astype(dtype)
        gain = rng.uniform(0.5, 1.5, size=shape[-1]).astype(dtype)
        bias = rng.uniform(-0.2, 0.2, size=shape[-1]).astype(dtype)
        g = rng.uniform(-1, 1, size=shape).astype(dtype)
        inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        xhat = (x - x.mean(axis=-1, keepdims=True)) * inv_std
        gx = g * gain
        ref_dx = inv_std * (gx - gx.mean(axis=-1, keepdims=True)
                            - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        xt = T.Tensor(x, requires_grad=True)
        out = R.layer_norm(xt, T.Tensor(gain), T.Tensor(bias))
        T.backward(out, g)
        assert out.dtype == xt.grad.dtype == dtype
        assert np.array_equal(out.data, gain * xhat + bias)
        assert np.array_equal(xt.grad, ref_dx)
