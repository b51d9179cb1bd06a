import numpy as np
import pytest

from stemsep import autodiff as ad
from stemsep.layers import BiLSTM, BatchNorm2d, Conv2d


def rand(rng, *shape):
    return rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_1x1_identity():
    rng = np.random.default_rng(0)
    x = ad.constant(rand(rng, 1, 5, 6))
    w = ad.constant(np.ones((1, 1, 1, 1)))
    b = ad.constant(np.zeros(1))
    out = ad.conv2d(x, w, b, padding="same")
    np.testing.assert_allclose(out.data, x.data)


def test_conv2d_allones_3x3_interior():
    c = 0.7
    x = ad.constant(np.full((1, 6, 6), c))
    w = ad.constant(np.ones((1, 1, 3, 3)))
    b = ad.constant(np.zeros(1))
    out = ad.conv2d(x, w, b, padding="same")
    np.testing.assert_allclose(out.data[0, 1:-1, 1:-1], 9 * c)


def conv2d_oracle(x, w, b, padding):
    c_out, c_in, kh, kw = w.shape
    ph = kh // 2 if padding == "same" else 0
    pw = kw // 2 if padding == "same" else 0
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    fo = xp.shape[1] - kh + 1
    to = xp.shape[2] - kw + 1
    out = np.zeros((c_out, fo, to))
    for o in range(c_out):
        for i in range(fo):
            for j in range(to):
                acc = b[o]
                for ci in range(c_in):
                    for di in range(kh):
                        for dj in range(kw):
                            acc += w[o, ci, di, dj] * xp[ci, i + di, j + dj]
                out[o, i, j] = acc
    return out


@pytest.mark.parametrize("padding", ["same", "valid"])
def test_conv2d_matches_nested_loop_oracle(padding):
    rng = np.random.default_rng(1)
    x = rand(rng, 2, 4, 4)
    w = rand(rng, 3, 2, 3, 3)
    b = rand(rng, 3)
    out = ad.conv2d(ad.constant(x), ad.constant(w), ad.constant(b), padding=padding)
    expected = conv2d_oracle(x, w, b, padding)
    np.testing.assert_allclose(out.data, expected, rtol=1e-6, atol=1e-12)


def test_conv2d_shape_errors():
    x = ad.constant(np.zeros((2, 4, 4)))
    w = ad.constant(np.zeros((3, 5, 3, 3)))
    b = ad.constant(np.zeros(3))
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, w, b)
    w2 = ad.constant(np.zeros((3, 2, 2, 2)))
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, w2, b, padding="same")
    w3 = ad.constant(np.zeros((3, 2, 3, 3)))
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, w3, b, out=np.empty((3, 4, 5)))
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, w3, b, out=np.empty((3, 4, 4), dtype=np.float32))


def test_conv2d_writes_into_out():
    rng = np.random.default_rng(1)
    x = ad.constant(rand(rng, 2, 5, 6))
    w = ad.constant(rand(rng, 3, 2, 3, 3))
    b = ad.constant(rand(rng, 3))
    buf = np.full((5, 5, 6), 9.0)
    y = ad.conv2d(x, w, b, out=buf[1:4])
    assert np.shares_memory(y.data, buf)
    np.testing.assert_array_equal(buf[1:4], ad.conv2d(x, w, b).data)
    np.testing.assert_array_equal(buf[[0, 4]], 9.0)


def test_conv2d_nonfinite_detection():
    x = ad.constant(np.full((1, 3, 3), np.inf))
    w = ad.constant(np.ones((1, 1, 1, 1)))
    b = ad.constant(np.zeros(1))
    with pytest.raises(ad.NumericError):
        ad.conv2d(x, w, b)


def test_conv2d_grad_check():
    rng = np.random.default_rng(2)
    x = ad.parameter(rand(rng, 2, 5, 4))
    w = ad.parameter(rand(rng, 3, 2, 3, 3))
    b = ad.parameter(rand(rng, 3))

    def build():
        return ad.tmean(ad.mul(ad.conv2d(x, w, b), ad.conv2d(x, w, b)))

    report = ad.grad_check(build, [("x", x), ("w", w), ("b", b)], rng=rng, max_entries=8)
    assert report["passed"], report


# ---------------------------------------------------------------------------
# pooling / upsampling


def test_avg_pool2_constant_and_block():
    x = ad.constant(np.full((3, 4, 6), 2.5))
    out = ad.avg_pool2(x)
    assert out.shape == (3, 2, 3)
    np.testing.assert_allclose(out.data, 2.5)

    blk = ad.constant(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    np.testing.assert_allclose(ad.avg_pool2(blk).data, [[[2.5]]])


def test_avg_pool2_odd_dims_rejected():
    with pytest.raises(ad.ShapeError):
        ad.avg_pool2(ad.constant(np.zeros((1, 3, 4))))


def test_avg_pool2_matches_loop_oracle():
    rng = np.random.default_rng(3)
    x = rand(rng, 2, 6, 8)
    out = ad.avg_pool2(ad.constant(x))
    expected = np.zeros((2, 3, 4))
    for c in range(2):
        for i in range(3):
            for j in range(4):
                expected[c, i, j] = x[c, 2 * i:2 * i + 2, 2 * j:2 * j + 2].mean()
    np.testing.assert_allclose(out.data, expected, rtol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_avg_pool2_matches_reshape_mean(dtype):
    """The strided-slice sum against the reshape-mean it replaced."""
    rng = np.random.default_rng(4)
    for shape in [(3, 6, 8), (2, 2, 4), (5, 130, 18), (4, 64, 256)]:
        x = (rand(rng, *shape) * 10.0 ** rng.uniform(-3, 3, shape)).astype(dtype)
        c, f, t = shape
        expected = x.reshape(c, f // 2, 2, t // 2, 2).mean(axis=(2, 4))
        out = ad.avg_pool2(ad.constant(x)).data
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, expected)
    # for a single output column numpy sums the four terms in sequence,
    # not pairwise, so the two differ by rounding there
    x = rand(rng, 3, 8, 2).astype(dtype)
    expected = x.reshape(3, 4, 2, 1, 2).mean(axis=(2, 4))
    np.testing.assert_allclose(ad.avg_pool2(ad.constant(x)).data, expected,
                               rtol=4 * np.finfo(dtype).eps)


def test_conv_transpose2_replicates_blocks():
    x = ad.constant(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    w = ad.constant(np.ones((1, 1, 2, 2)))
    b = ad.constant(np.zeros(1))
    out = ad.conv_transpose2(x, w, b)
    expected = np.array(
        [[[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]], dtype=float
    )
    np.testing.assert_allclose(out.data, expected)

    zero_w = ad.constant(np.zeros((1, 1, 2, 2)))
    np.testing.assert_allclose(ad.conv_transpose2(x, zero_w, b).data, 0.0)


def test_conv_transpose2_adjoint_identity():
    # <upsample(x), y> == <x, stride-2 2x2 conv of y> for the same kernel
    rng = np.random.default_rng(4)
    x = rand(rng, 3, 4, 5)
    w = rand(rng, 3, 2, 2, 2)
    y = rand(rng, 2, 8, 10)
    up = ad.conv_transpose2(ad.constant(x), ad.constant(w), ad.constant(np.zeros(2)))
    lhs = float((up.data * y).sum())
    # adjoint: correlate y with w at stride 2
    down = np.zeros_like(x)
    for di in range(2):
        for dj in range(2):
            down += np.tensordot(w[:, :, di, dj], y[:, di::2, dj::2], axes=([1], [0]))
    rhs = float((x * down).sum())
    assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))


def test_pool_and_upsample_grad_check():
    rng = np.random.default_rng(5)
    x = ad.parameter(rand(rng, 2, 4, 4))
    w = ad.parameter(rand(rng, 2, 3, 2, 2))
    b = ad.parameter(rand(rng, 3))

    def build():
        return ad.tmean(ad.mul(ad.conv_transpose2(ad.avg_pool2(x), w, b),
                               ad.conv_transpose2(ad.avg_pool2(x), w, b)))

    report = ad.grad_check(build, [("x", x), ("w", w), ("b", b)], rng=rng, max_entries=8)
    assert report["passed"], report


# ---------------------------------------------------------------------------
# batch norm


def test_batch_norm_constant_input_zeros():
    x = ad.constant(np.full((2, 3, 4), 7.0))
    gamma = ad.constant(np.ones(2))
    beta = ad.constant(np.zeros(2))
    out, _, _ = ad.batch_norm_train(x, gamma, beta)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_batch_norm_gamma_zero_beta_broadcast():
    rng = np.random.default_rng(6)
    x = ad.constant(rand(rng, 2, 3, 4))
    gamma = ad.constant(np.zeros(2))
    beta = ad.constant(np.full(2, 5.0))
    out, _, _ = ad.batch_norm_train(x, gamma, beta)
    np.testing.assert_allclose(out.data, 5.0)


def test_batch_norm_grad_check():
    rng = np.random.default_rng(7)
    x = ad.parameter(rand(rng, 3, 4, 5))
    gamma = ad.parameter(1.0 + 0.1 * rand(rng, 3))
    beta = ad.parameter(rand(rng, 3))

    def build():
        y, _, _ = ad.batch_norm_train(x, gamma, beta)
        return ad.tmean(ad.mul(y, y))

    report = ad.grad_check(
        build, [("x", x), ("gamma", gamma), ("beta", beta)], rng=rng, max_entries=10
    )
    assert report["passed"], report


def test_batch_norm_rejects_bad_config():
    gamma = ad.constant(np.ones(1))
    beta = ad.constant(np.zeros(1))
    with pytest.raises(ad.ShapeError):
        ad.batch_norm_train(ad.constant(np.zeros((1, 0, 4))), gamma, beta)
    with pytest.raises(ad.ShapeError):
        ad.batch_norm_train(ad.constant(np.zeros((1, 2, 2))), gamma, beta, eps=0.0)


def test_batch_norm_eval_uses_running_stats():
    rng = np.random.default_rng(8)
    bn = BatchNorm2d(2)
    x = ad.constant(rand(rng, 2, 8, 8) * 3.0 + 1.0)
    bn(x)  # updates running stats
    bn.set_training(False)
    y1 = bn(x)
    y2 = bn(ad.constant(x.data.copy()))
    np.testing.assert_allclose(y1.data, y2.data)
    # eval output is an affine map, not a per-batch standardization
    assert abs(y1.data.mean()) > 1e-6


def eval_stats(rng, c, dtype=np.float64):
    gamma = ad.parameter((1.0 + 0.3 * rand(rng, c)).astype(dtype))
    beta = ad.parameter((0.5 * rand(rng, c)).astype(dtype))
    mean = (0.2 * rand(rng, c)).astype(dtype)
    var = rng.uniform(0.5, 2.0, c).astype(dtype)
    return gamma, beta, mean, var


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_norm_relu_eval_matches_unfused_padded(dtype):
    rng = np.random.default_rng(15)
    x = ad.constant(rand(rng, 3, 5, 7).astype(dtype))
    gamma, beta, mean, var = eval_stats(rng, 3, dtype)
    ref = ad.relu(ad.batch_norm_eval(x, gamma, beta, mean, var)).data
    for ph, pw in [(1, 1), (0, 0), (2, 1)]:
        out = ad.batch_norm_relu_eval(x, gamma, beta, mean, var, (ph, pw)).data
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, np.pad(ref, ((0, 0), (ph, ph), (pw, pw))))


def test_batch_norm_relu_eval_grad_check():
    rng = np.random.default_rng(16)
    # keep pre-activations away from the ReLU kink for finite differences
    x = ad.parameter(rand(rng, 3, 4, 5) + np.where(rand(rng, 3, 4, 5) > 0, 0.8, -0.8))
    gamma, beta, mean, var = eval_stats(rng, 3)
    w = ad.constant(rand(rng, 2, 3, 3, 3))
    b = ad.constant(np.zeros(2))

    def build():
        h = ad.batch_norm_relu_eval(x, gamma, beta, mean, var, (1, 1))
        y = ad.conv2d(h, w, b, padding="valid")
        return ad.tmean(ad.mul(y, y))

    report = ad.grad_check(build, [("x", x), ("gamma", gamma), ("beta", beta)],
                           rng=rng, max_entries=10, shrink_retries=2)
    assert report["passed"], report


def test_batch_norm_relu_eval_propagates_nan():
    rng = np.random.default_rng(17)
    x = ad.constant(rand(rng, 2, 3, 3))
    gamma, beta, mean, var = eval_stats(rng, 2)
    var[1] = np.nan
    out = ad.batch_norm_relu_eval(x, gamma, beta, mean, var, (1, 1)).data
    assert np.all(np.isnan(out[1, 1:-1, 1:-1]))
    assert np.all(np.isfinite(out[0]))


# ---------------------------------------------------------------------------
# relu / elementwise


def test_relu_basic_and_grad():
    x = ad.constant(np.array([-1.0, 0.0, 2.0, np.nan]))
    out = ad.relu(x)
    # NaN passes through, so the next checked op reports it
    np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0, np.nan])

    rng = np.random.default_rng(9)
    # keep values away from the kink for finite differences
    p = ad.parameter(rand(rng, 3, 4) + np.where(rand(rng, 3, 4) > 0, 0.5, -0.5))

    def build():
        return ad.tsum(ad.mul(ad.relu(p), ad.relu(p)))

    report = ad.grad_check(build, [("p", p)], rng=rng, max_entries=12)
    assert report["passed"], report


def test_linear_identity_and_oracle():
    rng = np.random.default_rng(10)
    x = rand(rng, 4, 3)
    eye = np.eye(3)
    out = ad.affine(ad.constant(x), ad.constant(eye), ad.constant(np.zeros(3)))
    np.testing.assert_allclose(out.data, x)

    w = rand(rng, 5, 3)
    b = rand(rng, 5)
    out = ad.affine(ad.constant(x), ad.constant(w), ad.constant(b))
    expected = np.zeros((4, 5))
    for n in range(4):
        for o in range(5):
            expected[n, o] = b[o] + sum(x[n, i] * w[o, i] for i in range(3))
    np.testing.assert_allclose(out.data, expected, rtol=1e-6)

    zero_w = np.zeros((5, 3))
    out = ad.affine(ad.constant(x), ad.constant(zero_w), ad.constant(b))
    np.testing.assert_allclose(out.data, np.tile(b, (4, 1)))


def test_concat_channels_order_and_grad():
    a = ad.parameter(np.ones((1, 2, 2)))
    b = ad.parameter(2 * np.ones((1, 2, 2)))
    out = ad.concat([a, b], axis=0)
    assert out.shape == (2, 2, 2)
    np.testing.assert_allclose(out.data[0], 1.0)
    np.testing.assert_allclose(out.data[1], 2.0)

    rng = np.random.default_rng(11)

    def build():
        cat = ad.concat([a, b], axis=0)
        return ad.tsum(ad.mul(cat, cat))

    report = ad.grad_check(build, [("a", a), ("b", b)], rng=rng, max_entries=8)
    assert report["passed"], report

    with pytest.raises(ad.ShapeError):
        ad.concat([a, ad.constant(np.ones((1, 3, 2)))], axis=0)


def test_concat_single_is_identity():
    a = ad.constant(np.ones((2, 2, 2)))
    assert ad.concat([a], axis=0) is a


def test_concat_view_wraps_data_without_copy():
    a = ad.parameter(np.ones((1, 2, 2)))
    b = ad.parameter(2 * np.ones((2, 2, 2)))
    buf = np.concatenate([a.data, b.data])
    out = ad.concat_view(buf, [a, b])
    assert out.data is buf
    ad.tsum(ad.mul(out, out)).backward()
    np.testing.assert_array_equal(a.grad, 2.0)
    np.testing.assert_array_equal(b.grad, 4.0)
    with pytest.raises(ad.ShapeError):
        ad.concat_view(buf[:2], [a, b])


# ---------------------------------------------------------------------------
# backward machinery


def test_backward_sum_gives_ones():
    x = ad.parameter(np.arange(6.0).reshape(2, 3))
    ad.tsum(x).backward()
    np.testing.assert_allclose(x.grad, 1.0)


def test_backward_half_square_gives_x():
    x = ad.parameter(np.array([1.0, -2.0, 3.0]))
    loss = ad.scale(ad.tsum(ad.mul(x, x)), 0.5)
    loss.backward()
    np.testing.assert_allclose(x.grad, x.data)


def test_backward_requires_scalar():
    x = ad.parameter(np.ones((2, 2)))
    with pytest.raises(ad.ShapeError):
        ad.mul(x, x).backward()


def test_backward_diamond_graph_accumulates_paths():
    # loss = sum(y + y) with y = 2x: dl/dx = 4 through two paths
    x = ad.parameter(np.array([1.0, 2.0]))
    y = ad.scale(x, 2.0)
    loss = ad.tsum(ad.add(y, y))
    loss.backward()
    np.testing.assert_allclose(x.grad, 4.0)


def test_composite_conv_bn_relu_grad():
    rng = np.random.default_rng(12)
    x = ad.constant(rand(rng, 2, 6, 6))
    w = ad.parameter(rand(rng, 3, 2, 3, 3))
    b = ad.parameter(rand(rng, 3))
    gamma = ad.parameter(1.0 + 0.1 * rand(rng, 3))
    beta = ad.parameter(rand(rng, 3))

    def build():
        y = ad.conv2d(x, w, b)
        y, _, _ = ad.batch_norm_train(y, gamma, beta)
        return ad.tmean(ad.relu(y))

    report = ad.grad_check(
        build, [("w", w), ("b", b), ("gamma", gamma), ("beta", beta)], rng=rng
    )
    assert report["passed"], report


def test_grad_check_negative_control():
    x = ad.parameter(np.array([1.0, 2.0]))

    calls = {"n": 0}

    def build():
        # deliberately inconsistent: loss changes definition between calls
        calls["n"] += 1
        if calls["n"] == 1:
            return ad.tsum(ad.mul(x, x))
        return ad.scale(ad.tsum(ad.mul(x, x)), 3.0)

    report = ad.grad_check(build, [("x", x)])
    assert not report["passed"]


def test_forward_does_not_mutate_inputs():
    rng = np.random.default_rng(13)
    x = rand(rng, 2, 4, 4)
    xc = x.copy()
    t = ad.constant(x)
    ad.relu(t)
    ad.avg_pool2(t)
    ad.conv2d(t, ad.constant(rand(rng, 1, 2, 3, 3)), ad.constant(np.zeros(1)))
    np.testing.assert_array_equal(t.data, xc)


def test_no_grad_suppresses_graph():
    x = ad.parameter(np.ones((2, 2)))
    with ad.no_grad():
        y = ad.mul(x, x)
    assert y._parents == ()
    assert not y.requires_grad


# ---------------------------------------------------------------------------
# BiLSTM


def test_bilstm_zero_weights_zero_output():
    rng = np.random.default_rng(14)
    lstm = BiLSTM(3, 4, rng)
    for name in list(lstm._params):
        lstm._params[name].data[...] = 0.0
    seq = ad.constant(rng.standard_normal((5, 3)))
    out = lstm(seq)
    assert out.shape == (5, 8)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_bilstm_time_reversal_symmetry():
    rng = np.random.default_rng(15)
    lstm = BiLSTM(3, 4, rng)
    # tie the two directions so reversal maps one exactly onto the other
    for suffix in ("wx", "wh", "b"):
        lstm._params["bw_" + suffix].data[...] = lstm._params["fw_" + suffix].data
    x = rng.standard_normal((6, 3))
    out = lstm(ad.constant(x)).data
    out_rev = lstm(ad.constant(x[::-1].copy())).data
    m = 4
    # forward half of reversed run equals reversed backward half and vice versa
    np.testing.assert_allclose(out_rev[:, :m], out[::-1, m:], atol=1e-12)
    np.testing.assert_allclose(out_rev[:, m:], out[::-1, :m], atol=1e-12)


def test_bilstm_grad_check():
    rng = np.random.default_rng(16)
    lstm = BiLSTM(2, 2, rng)
    x = ad.constant(rng.standard_normal((3, 2)))

    def build():
        y = lstm(x)
        return ad.tmean(ad.mul(y, y))

    report = ad.grad_check(
        build, list(lstm.named_params()), tol=1e-4, rng=rng, max_entries=6
    )
    assert report["passed"], report


# ---------------------------------------------------------------------------
# invariants across seeds


@pytest.mark.parametrize("seed", range(10))
def test_ops_grad_check_many_seeds(seed):
    rng = np.random.default_rng(100 + seed)
    x = ad.parameter(rng.standard_normal((2, 4, 4)))
    w = ad.parameter(rng.standard_normal((2, 2, 3, 3)))
    b = ad.parameter(rng.standard_normal(2))
    gamma = ad.parameter(1.0 + 0.1 * rng.standard_normal(2))
    beta = ad.parameter(rng.standard_normal(2))
    up_w = ad.parameter(rng.standard_normal((2, 2, 2, 2)))
    up_b = ad.parameter(rng.standard_normal(2))

    def build():
        y = ad.conv2d(x, w, b)
        y, _, _ = ad.batch_norm_train(y, gamma, beta)
        y = ad.relu(y)
        y = ad.avg_pool2(y)
        y = ad.conv_transpose2(y, up_w, up_b)
        return ad.tmean(ad.mul(y, y))

    params = [("x", x), ("w", w), ("b", b), ("gamma", gamma),
              ("beta", beta), ("up_w", up_w), ("up_b", up_b)]
    report = ad.grad_check(build, params, tol=1e-4, rng=rng, max_entries=4)
    assert report["passed"], report
