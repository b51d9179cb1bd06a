import sys
import threading
import tracemalloc

import numpy as np
import pytest

from gradcheck import grad_check, tsum
from stemsep import autodiff as ad
from threads import (ONE_THREAD_HOSTS, fake_host, one_blas_thread, record_worker_jobs,
                     two_blas_threads)
from stemsep.layers import BiLSTM, Conv2d
from stemsep.model import DenseLayer


def rand(rng, *shape):
    return rng.standard_normal(shape)


def test_every_export_exists():
    """A removed op leaves no stale name in autodiff.__all__."""
    assert [name for name in ad.__all__ if not hasattr(ad, name)] == []
    assert len(set(ad.__all__)) == len(ad.__all__)


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_1x1_identity():
    rng = np.random.default_rng(0)
    x = ad.constant(rand(rng, 1, 5, 6))
    w = ad.constant(np.ones((1, 1, 1, 1)))
    b = ad.constant(np.zeros(1))
    out = ad.conv2d(x, w, b)
    np.testing.assert_allclose(out.data, x.data)


def test_conv2d_allones_3x3_interior():
    c = 0.7
    x = ad.constant(np.full((1, 6, 6), c))
    w = ad.constant(np.ones((1, 1, 3, 3)))
    b = ad.constant(np.zeros(1))
    out = ad.conv2d(x, w, b)
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


def interior(kh, kw, f, t):
    """The index of a same conv's output pixels whose taps read no zero
    border: they are the valid conv's output."""
    return slice(None), slice(kh // 2, f - kh // 2), slice(kw // 2, t - kw // 2)


@pytest.mark.parametrize("padding", ["same", "valid"])
def test_conv2d_matches_nested_loop_oracle(padding):
    """The whole output against the same oracle; its interior against
    the valid one."""
    rng = np.random.default_rng(1)
    x = rand(rng, 2, 4, 4)
    w = rand(rng, 3, 2, 3, 3)
    b = rand(rng, 3)
    out = ad.conv2d(ad.constant(x), ad.constant(w), ad.constant(b))
    if padding == "valid":
        out = out[interior(3, 3, 4, 4)]
    expected = conv2d_oracle(x, w, b, padding)
    np.testing.assert_allclose(out.data, expected, rtol=1e-6, atol=1e-12)


def conv2d_grad_oracle(x, w, g, padding):
    """gx, gw, gb of conv2d by nested loops over output pixels and taps,
    in float64."""
    x, w, g = (a.astype(np.float64) for a in (x, w, g))
    c_out, c_in, kh, kw = w.shape
    ph = kh // 2 if padding == "same" else 0
    pw = kw // 2 if padding == "same" else 0
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    _, fo, to = g.shape
    for o in range(c_out):
        for i in range(fo):
            for j in range(to):
                for di in range(kh):
                    for dj in range(kw):
                        gw[o, :, di, dj] += g[o, i, j] * xp[:, i + di, j + dj]
                        gxp[:, i + di, j + dj] += g[o, i, j] * w[o, :, di, dj]
    gx = gxp[:, ph:ph + x.shape[1], pw:pw + x.shape[2]]
    return gx, gw, g.sum(axis=(1, 2))


# (c_in, c_out, kh, kw, padding, non-contiguous x view); a "valid" case
# differentiates the interior of the same conv's output
CONV_GRAD_CASES = [
    (4, 3, 3, 3, "same", False),
    (4, 3, 3, 3, "valid", False),
    (5, 2, 1, 1, "same", False),
    (3, 2, 3, 1, "same", False),
    (2, 7, 3, 3, "same", False),  # c_out > c_in, as in a band's stem
    (3, 4, 3, 3, "valid", True),
    (3, 4, 3, 3, "same", True),
    (3, 2, 5, 5, "same", False),
    (2, 3, 5, 1, "same", True),
    (3, 2, 1, 1, "same", True),  # kernels one row high read the rows of x in place
    (2, 3, 1, 3, "same", True),
]


@pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("c_in, c_out, kh, kw, padding, view", CONV_GRAD_CASES)
def test_conv2d_backward_matches_nested_loop_oracle(c_in, c_out, kh, kw, padding, view,
                                                    dtype, rel):
    rng = np.random.default_rng(11)
    if view:
        base = rand(rng, c_in, 12, 9).astype(dtype)
        xd = base[:, ::2, 1:-1]
        assert not xd.flags.c_contiguous
    else:
        xd = rand(rng, c_in, 6, 7).astype(dtype)
    x = ad.parameter(xd)
    w = ad.parameter(rand(rng, c_out, c_in, kh, kw).astype(dtype))
    b = ad.parameter(rand(rng, c_out).astype(dtype))
    y = ad.conv2d(x, w, b)
    if padding == "valid":
        y = y[interior(kh, kw, *xd.shape[1:])]
    g = rand(rng, *y.shape).astype(dtype)
    tsum(ad.mul(y, ad.constant(g))).backward()
    for got, want in zip((x.grad, w.grad, b.grad), conv2d_grad_oracle(xd, w.data, g, padding)):
        assert got.dtype == dtype and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=rel, atol=rel * np.abs(want).max())


def test_conv2d_shape_errors():
    x = ad.constant(np.zeros((2, 4, 4)))
    w = ad.constant(np.zeros((3, 5, 3, 3)))
    b = ad.constant(np.zeros(3))
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, w, b)
    w2 = ad.constant(np.zeros((3, 2, 2, 2)))
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, w2, b)
    w3 = ad.constant(np.zeros((3, 2, 3, 3)))
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, w3, b, out=np.empty((3, 4, 5)))
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, w3, b, out=np.empty((3, 4, 4), dtype=np.float32))


def test_conv2d_writes_into_out():
    """A 3x3 and a 1x1 conv (which reads its input rows in place), with
    one row and an odd number of them, write into out and match the
    nested-loop oracle."""
    rng = np.random.default_rng(1)
    for (kh, kw), f in (((3, 3), 5), ((1, 1), 1), ((1, 1), 5)):
        x = ad.constant(rand(rng, 2, f, 6))
        w = ad.constant(rand(rng, 3, 2, kh, kw))
        b = ad.constant(rand(rng, 3))
        buf = np.full((5, f, 6), 9.0)
        y = ad.conv2d(x, w, b, out=buf[1:4])
        assert np.shares_memory(y.data, buf)
        np.testing.assert_array_equal(buf[1:4], ad.conv2d(x, w, b).data)
        np.testing.assert_allclose(buf[1:4], conv2d_oracle(x.data, w.data, b.data, "same"),
                                   rtol=1e-12, atol=1e-12)
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

    report = grad_check(build, [("x", x), ("w", w), ("b", b)], rng=rng, max_entries=8)
    assert report["passed"], report


def conv2d_tensordot_reference(x, w, b, padding):
    """The forward conv2d had before its row tiles: one tensordot per
    kernel row over the whole padded input, each kw times the output's
    size, then a shifted sum of the taps into the whole output."""
    c_out, c_in, kh, kw = w.shape
    ph, pw = (kh // 2, kw // 2) if padding == "same" else (0, 0)
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    fo, to = xp.shape[1] - kh + 1, xp.shape[2] - kw + 1
    out = np.empty((c_out, fo, to), dtype=x.dtype)
    out[:] = b[:, None, None]
    for di in range(kh):
        taps = np.tensordot(w[:, :, di, :], xp, axes=([1], [0]))  # (c_out, kw, fp, tp)
        for dj in range(kw):
            out += taps[:, dj, di:di + fo, dj:dj + to]
    return out


def assert_conv_close(got, want, x, w, b, padding):
    """got and want are two sums of the same c_in*kh*kw products plus the
    bias in any order: each is within n*eps*(|w| * |x| + |b|) of the
    exact value, with n = c_in*kh*kw + 1."""
    n = w[0].size + 1
    absolute = conv2d_tensordot_reference(*(np.abs(a).astype(np.float64) for a in (x, w, b)),
                                          padding)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 2 * n * np.finfo(got.dtype).eps * absolute)


TILE_ROWS = 3  # output rows per block when a test sets CONV_TILE_BYTES with tile_bytes


def tile_bytes(c_out, kh, kw, t, dtype, rows=TILE_ROWS):
    """The CONV_TILE_BYTES that makes conv2d's forward take `rows` output
    rows per block of a map t columns wide: the tap array of rows + kh - 1
    row-bordered input rows (the tile has no column border)."""
    return (rows + kh - 1) * kh * kw * c_out * t * np.dtype(dtype).itemsize


def recording_reader(xp, calls, heights):
    """A _conv_forward reader over the bordered input xp that records
    the height of each reader made, and the thread and rows of each
    read, in calls."""
    def reader(height):
        heights.append((threading.current_thread().name, height))

        def read_rows(lo, hi):
            calls.append((threading.current_thread().name, lo, hi))
            return xp[:, lo:hi]

        return read_rows

    return reader


def test_conv2d_row_blocks(monkeypatch):
    """Blocks of TILE_ROWS output rows, each reading kh - 1 more input
    rows bordered by zero rows above and below (no zero columns), from
    one reader made as tall as the first block's rows; the last block is
    short. Outside row_threads, all on the caller's thread."""
    monkeypatch.setattr(ad, "CONV_TILE_BYTES", tile_bytes(2, 3, 3, 4, np.float64))
    rng = np.random.default_rng(3)
    x = rand(rng, 4, 7, 4)
    xp = np.pad(x, ((0, 0), (1, 1), (0, 0)))
    calls, heights = [], []
    out = np.empty((2, 7, 4))
    w, b = rand(rng, 2, 4, 3, 3), rand(rng, 2)
    ad._conv_forward(recording_reader(xp, calls, heights), w, b, out)
    main = threading.current_thread().name
    assert heights == [(main, 5)]
    assert calls == [(main, 0, 5), (main, 3, 8), (main, 6, 9)]
    assert_conv_close(out, conv2d_oracle(x, w, b, "same"), x, w, b, "same")


def test_conv2d_row_blocks_split_across_threads(monkeypatch):
    """Inside row_threads, blocks of TILE_ROWS rows over 13 rows (the
    last block one row) split where they come nearest half the rows:
    the caller reads the first two blocks (6 rows), the worker the other
    three (7 rows) in order, each through its own reader, both made on
    the caller's thread. The output is bitwise the sequential one."""
    monkeypatch.setattr(ad, "CONV_TILE_BYTES", tile_bytes(2, 3, 3, 4, np.float64))
    counts = fake_host(monkeypatch)
    jobs = record_worker_jobs(monkeypatch)
    rng = np.random.default_rng(3)
    x = rand(rng, 4, 13, 4)
    xp = np.pad(x, ((0, 0), (1, 1), (0, 0)))
    w, b = rand(rng, 2, 4, 3, 3), rand(rng, 2)
    want = np.empty((2, 13, 4))
    ad._conv_forward(recording_reader(xp, [], []), w, b, want)
    calls, heights = [], []
    out = np.empty((2, 13, 4))
    with ad.row_threads():
        ad._conv_forward(recording_reader(xp, calls, heights), w, b, out)
    main = threading.current_thread().name
    assert len(jobs) == 1 and jobs[0] != main and counts == [2, 1, 2]
    assert heights == [(main, 5), (main, 5)]
    assert [c for c in calls if c[0] == main] == [(main, 0, 5), (main, 3, 8)]
    assert [c for c in calls if c[0] != main] == [(jobs[0], 6, 11), (jobs[0], 9, 14),
                                                  (jobs[0], 12, 15)]
    np.testing.assert_array_equal(out, want)


# (c_in, c_out, kh, kw, padding); a "valid" case checks the fo-row
# interior of the same conv's output
CONV_TILE_CASES = [
    (3, 2, 3, 3, "same"),
    (3, 2, 3, 3, "valid"),
    (4, 3, 1, 1, "same"),
    (2, 5, 3, 1, "valid"),
    (2, 3, 5, 5, "same"),
    (3, 2, 5, 1, "same"),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_in, c_out, kh, kw, padding", CONV_TILE_CASES)
@pytest.mark.parametrize("fo", [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 2 * TILE_ROWS + 1])
def test_conv2d_row_tiles_match_oracle(monkeypatch, dtype, c_in, c_out, kh, kw, padding, fo):
    """Every block split, including a first block that is the last one,
    matches the nested-loop oracle and the tensordot forward."""
    ph, pw = (kh // 2, kw // 2) if padding == "same" else (0, 0)
    t = 5
    monkeypatch.setattr(ad, "CONV_TILE_BYTES", tile_bytes(c_out, kh, kw, t, dtype))
    rng = np.random.default_rng(fo)
    x = rand(rng, c_in, fo + kh - 1 - 2 * ph, t).astype(dtype)
    w = rand(rng, c_out, c_in, kh, kw).astype(dtype)
    b = rand(rng, c_out).astype(dtype)
    got = ad.conv2d(ad.constant(x), ad.constant(w), ad.constant(b)).data
    assert got.dtype == dtype and got.shape == (c_out,) + x.shape[1:]
    if padding == "valid":
        got = got[interior(kh, kw, *x.shape[1:])]
    assert got.shape == (c_out, fo, t + 2 * pw - kw + 1)
    assert_conv_close(got, conv2d_oracle(x, w, b, padding).astype(dtype), x, w, b, padding)
    assert_conv_close(got, conv2d_tensordot_reference(x, w, b, padding), x, w, b, padding)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv2d_matches_tensordot_at_model_sizes(dtype):
    """A dense layer's shape in a 256-frame fp32 forward: several blocks
    at the default CONV_TILE_BYTES, the last one short."""
    rng = np.random.default_rng(4)
    x = rand(rng, 40, 71, 256).astype(dtype)
    w = (0.1 * rand(rng, 14, 40, 3, 3)).astype(dtype)
    b = rand(rng, 14).astype(dtype)
    rows = ad.CONV_TILE_BYTES // (9 * 14 * 256 * np.dtype(dtype).itemsize) - 2
    assert 71 % rows and 71 // rows >= 2
    got = ad.conv2d(ad.constant(x), ad.constant(w), ad.constant(b)).data
    assert_conv_close(got, conv2d_tensordot_reference(x, w, b, "same"), x, w, b, "same")


def test_conv2d_never_builds_its_padded_input(monkeypatch):
    """A conv2d forward allocates less, at its peak, than the
    zero-bordered copy of its input, which it reads one row tile at a
    time. The tile size is set so that the forward takes many blocks."""
    monkeypatch.setattr(ad, "CONV_TILE_BYTES", 64 << 10)
    rng = np.random.default_rng(5)
    x = ad.constant(rand(rng, 16, 64, 64))
    w, b = ad.constant(rand(rng, 4, 16, 3, 3)), ad.constant(rand(rng, 4))
    padded_bytes = 16 * 66 * 66 * x.data.itemsize
    tracemalloc.start()
    try:
        y = ad.conv2d(x, w, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.shape == (4, 64, 64)
    assert peak < padded_bytes, (peak, padded_bytes)


def test_conv2d_1x1_reads_its_input_in_place():
    """A kernel one row high needs no zero rows, so conv2d reads the rows
    of its input in place: with many input channels and few output ones,
    the forward allocates at its peak less than a quarter of the input,
    where a tile of its rows would be the whole input (one row block)."""
    rng = np.random.default_rng(5)
    x = ad.constant(rand(rng, 64, 64, 64))
    w, b = ad.constant(rand(rng, 2, 64, 1, 1)), ad.constant(rand(rng, 2))
    tracemalloc.start()
    try:
        y = ad.conv2d(x, w, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.shape == (2, 64, 64)
    assert peak < x.data.nbytes // 4, (peak, x.data.nbytes)


# kernels wider than the maps below: on flattened rows, the shift of a
# tap column can wrap past the next row, or past the whole map
NARROW_KERNELS = [(3, 3), (5, 5), (3, 7), (7, 7)]


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("kh, kw", NARROW_KERNELS)
def test_conv2d_narrower_than_kernel_matches_nested_loop_oracle(monkeypatch, kh, kw, t):
    """Maps t <= 3 columns wide, over two row blocks: the forward and
    every gradient against the nested-loop oracles."""
    monkeypatch.setattr(ad, "CONV_TILE_BYTES", tile_bytes(2, kh, kw, t, np.float64))
    rng = np.random.default_rng(30 + t)
    xd = rand(rng, 3, 5, t)
    x, w, b = ad.parameter(xd), ad.parameter(rand(rng, 2, 3, kh, kw)), ad.parameter(rand(rng, 2))
    y = ad.conv2d(x, w, b)
    np.testing.assert_allclose(y.data, conv2d_oracle(xd, w.data, b.data, "same"),
                               rtol=1e-12, atol=1e-12)
    g = rand(rng, 2, 5, t)
    tsum(ad.mul(y, ad.constant(g))).backward()
    for got, want in zip((x.grad, w.grad, b.grad), conv2d_grad_oracle(xd, w.data, g, "same")):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def conv_backward_whole(g, xd, w):
    """conv2d's backward with the whole tap-shifted gradient, as it was
    before the row blocks: (gx, gw, gb) from one (kh*kw*c_out, f*t)
    array whose row block (di, dj) holds g's flattened rows shifted by
    (di - kh // 2) * t + dj - kw // 2, and two GEMMs over it."""
    c_out, c_in, kh, kw = w.shape
    _, f, t = xd.shape
    if kh == kw == 1:
        shifted = np.ascontiguousarray(g).reshape(c_out, f * t)
    else:
        shifted = np.zeros((kh, kw, c_out, f * t), dtype=g.dtype)
        g2 = g.reshape(c_out, f * t)
        for di in range(kh):
            for dj in range(kw):
                dst, src = ad._tap_span((di - kh // 2) * t + dj - kw // 2, f * t, f * t)
                shifted[di, dj, :, dst] = g2[:, src]
        ad._zero_wraps(shifted.reshape(kh, kw, c_out, f, t))
        shifted = shifted.reshape(kh * kw * c_out, f * t)
    w9 = w.transpose(2, 3, 0, 1).reshape(kh * kw * c_out, c_in)
    gx = (w9.T @ shifted).reshape(c_in, f, t)
    gw = shifted @ xd.reshape(c_in, f * t).T
    return gx, gw.reshape(kh, kw, c_out, c_in).transpose(2, 3, 0, 1), g.sum(axis=(1, 2))


GRAD_RTOL = {np.float32: 1e-4, np.float64: 1e-12}  # of the largest |gradient|, blocked vs whole


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kh, kw", [(1, 1), (1, 3), (3, 3)])
@pytest.mark.parametrize("f", [1, 2, 7])
@pytest.mark.parametrize("rows", [1, 2, 3, None])
def test_conv2d_backward_row_blocks_match_whole_oracle(monkeypatch, dtype, kh, kw, f, rows):
    """The backward in blocks of `rows` rows (None: the default tile, one
    block) against the whole tap-shifted gradient: 1, 2 and 3 or more
    blocks over maps of 1, 2 and 7 rows; a 1x1 kernel reads g in one
    block. The input gradient, a column split of the oracle's GEMM at 16
    columns, is bitwise equal; the weight gradient, summed over the
    blocks, is within GRAD_RTOL of the largest gradient."""
    c_in, c_out, t = 3, 2, 16
    if rows is not None:
        monkeypatch.setattr(ad, "CONV_TILE_BYTES", tile_bytes(c_out, kh, kw, t, dtype, rows))
        assert ad._block_rows(kh * kw * c_out, kh, t, np.dtype(dtype).itemsize) == rows
    rng = np.random.default_rng(60 + f)
    xd = rand(rng, c_in, f, t).astype(dtype)
    x, w = ad.parameter(xd), ad.parameter(rand(rng, c_out, c_in, kh, kw).astype(dtype))
    b = ad.parameter(rand(rng, c_out).astype(dtype))
    g = rand(rng, c_out, f, t).astype(dtype)
    ad.conv2d(x, w, b)._backward(g)
    gx, gw, gb = conv_backward_whole(g, xd, w.data)
    assert x.grad.dtype == w.grad.dtype == dtype
    np.testing.assert_array_equal(x.grad, gx, strict=True)
    atol = GRAD_RTOL[dtype] * max(np.abs(a).max() for a in (gx, gw, gb))
    np.testing.assert_allclose(w.grad, gw, rtol=0, atol=atol)
    np.testing.assert_allclose(b.grad, gb, rtol=0, atol=atol)


def test_conv2d_backward_builds_no_whole_shifted_gradient():
    """The backward of a final-block-sized conv2d, (35, 2049, 16) fp64
    in and 12 maps out, allocates at its peak under 16 MiB: the 9.2 MiB
    input gradient and one row tile of the tap-shifted gradient, whose
    whole (27 MiB) the backward never builds."""
    rng = np.random.default_rng(64)
    x = ad.parameter(rand(rng, 35, 2049, 16))
    w, b = ad.parameter(0.1 * rand(rng, 12, 35, 3, 3)), ad.parameter(rand(rng, 12))
    y = ad.conv2d(x, w, b)
    g = rand(rng, 12, 2049, 16)
    tracemalloc.start()
    try:
        y._backward(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad.shape == x.shape and w.grad.shape == w.shape
    assert peak < 16 << 20, peak / 2**20


def test_conv2d_on_a_map_without_columns():
    """A (c, f, 0) map gives an empty output and empty gradients."""
    x = ad.parameter(np.ones((2, 4, 0)))
    w, b = ad.parameter(np.ones((3, 2, 3, 3))), ad.parameter(np.ones(3))
    y = ad.conv2d(x, w, b)
    tsum(y).backward()
    assert y.shape == (3, 4, 0) and x.grad.shape == (2, 4, 0)
    np.testing.assert_array_equal(w.grad, 0.0)
    np.testing.assert_array_equal(b.grad, 0.0)


# (fo, rows per block): maps of 1 row, 2 rows and an odd number of
# rows, in 1, 2 and 3 row blocks
SPLIT_CASES = [(1, 1), (2, 2), (2, 1), (7, 7), (7, 4), (7, 3)]


def split_conv_runs(rng, dtype, kh, fo):
    """conv2d on a 4-channel map, written into out, and the eval-mode
    dense layer op on the same map given as two channel parts."""
    t = 5
    x = rand(rng, 4, fo, t).astype(dtype)
    parts = [ad.constant(x[:1]), ad.constant(x[1:])]
    w = ad.constant(rand(rng, 2, 4, kh, kh).astype(dtype))
    b = ad.constant(rand(rng, 2).astype(dtype))
    gamma, beta, mean, var = eval_stats(rng, 4, dtype)

    def conv():
        out = np.empty((2, fo, t), dtype=dtype)
        return ad.conv2d(ad.constant(x), w, b, out=out).data

    def dense_layer():
        return ad.batch_norm_relu_conv2d(parts, gamma, beta, w, b, (mean, var))[0].data

    return conv, dense_layer


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kh", [1, 3])
@pytest.mark.parametrize("fo, rows", SPLIT_CASES)
def test_row_threads_match_sequential_forward_bitwise(monkeypatch, dtype, kh, fo, rows):
    """Inside row_threads, conv2d (a 1x1 one reading its rows in place)
    and the dense layer op give bitwise the output of the sequential
    forward at one BLAS thread; a conv of one row block stays on the
    caller's thread. BLAS has its two threads back after the scope."""
    monkeypatch.setattr(ad, "CONV_TILE_BYTES", tile_bytes(2, kh, kh, 5, dtype, rows))
    with two_blas_threads(monkeypatch) as blas:
        jobs = record_worker_jobs(monkeypatch)
        for run in split_conv_runs(np.random.default_rng(fo + rows), dtype, kh, fo):
            with one_blas_thread(blas):
                want = run()
            with ad.row_threads():
                got = run()
            assert blas[0]() == 2
            np.testing.assert_array_equal(got, want, strict=True)
        assert len(jobs) == (2 if fo > rows else 0)


def test_row_threads_stay_bitwise_under_frequent_thread_switches(monkeypatch):
    """With the interpreter switching threads every microsecond, 30 split
    forwards of the dense layer op over 12 row blocks each give bitwise
    the sequential output: the halves share only out, in disjoint rows."""
    monkeypatch.setattr(ad, "CONV_TILE_BYTES", tile_bytes(2, 3, 3, 5, np.float32, 2))
    fake_host(monkeypatch)
    run = split_conv_runs(np.random.default_rng(9), np.float32, 3, 23)[1]
    want = run()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ad.row_threads():
            for _ in range(30):
                np.testing.assert_array_equal(run(), want)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("blas, cores", list(ONE_THREAD_HOSTS.values()))
def test_row_threads_fall_back_to_the_sequential_path(monkeypatch, blas, cores):
    """With no BLAS thread control (MKL, Accelerate), BLAS at one thread
    or one core to run on, the scope changes nothing: the worker gets no
    job and the BLAS thread count is left alone."""
    monkeypatch.setattr(ad, "CONV_TILE_BYTES", tile_bytes(2, 3, 3, 5, np.float64))
    counts = fake_host(monkeypatch, blas, cores)
    jobs = record_worker_jobs(monkeypatch)
    run = split_conv_runs(np.random.default_rng(6), np.float64, 3, 7)[0]
    want = run()
    with ad.row_threads():
        assert ad._worker is None
        got = run()
    np.testing.assert_array_equal(got, want)
    assert jobs == [] and counts == [blas or 2]


@pytest.mark.parametrize("bad_row", [0, 6])
def test_row_threads_raise_after_both_halves_and_reset_blas(monkeypatch, bad_row):
    """A NaN in either half's rows raises conv2d's NumericError once both
    halves are written: the other half's rows hold their values. The
    scope then resets BLAS and drops the worker; a nested scope leaves
    both to the outer one."""
    monkeypatch.setattr(ad, "CONV_TILE_BYTES", tile_bytes(2, 1, 1, 5, np.float64))
    counts = fake_host(monkeypatch)
    rng = np.random.default_rng(7)
    x = rand(rng, 4, 7, 5)
    w, b = ad.constant(rand(rng, 2, 4, 1, 1)), ad.constant(rand(rng, 2))
    want = ad.conv2d(ad.constant(x), w, b).data
    x[1, bad_row, 2] = np.nan
    out = np.zeros((2, 7, 5))
    with pytest.raises(ad.NumericError, match="non-finite values in output of conv2d"):
        with ad.row_threads():
            with ad.row_threads():
                pass
            assert ad._worker is not None and counts == [2, 1]
            ad.conv2d(ad.constant(x), w, b, out=out)
    assert ad._worker is None and counts == [2, 1, 2]
    good = slice(3, 7) if bad_row < 3 else slice(0, 3)  # the 3 + 4 rows split at 3
    np.testing.assert_array_equal(out[:, good], want[:, good])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_accumulate_takes_fresh_gradients_and_copies_views(monkeypatch, dtype):
    """conv2d's input gradient and the dense layer op's per-part ones are
    made fresh and become the parent's grad; slices of a concat's
    gradient are copied. The gradients are bitwise those of copying
    every first gradient."""
    rng = np.random.default_rng(8)
    a, c = (ad.parameter(rand(rng, n, 4, 5).astype(dtype)) for n in (2, 3))
    w, b = ad.parameter(rand(rng, 2, 5, 3, 3).astype(dtype)), ad.parameter(rand(rng, 2).astype(dtype))
    gamma, beta, _, _ = eval_stats(rng, 5, dtype)
    g = ad.constant(rand(rng, 5, 4, 5).astype(dtype))
    x = ad.parameter(rand(rng, 5, 4, 5).astype(dtype))
    graphs = [
        ([x], lambda: tsum(ad.conv2d(x, w, b)), True),
        ([a, c], lambda: tsum(ad.batch_norm_relu_conv2d([a, c], gamma, beta, w, b)[0]), True),
        ([a, c], lambda: tsum(ad.mul(ad.concat([a, c]), g)), False),
    ]
    accumulate = ad.Tensor._accumulate
    for leaves, build, fresh in graphs:
        grads = []
        for copy_all in (False, True):
            given = {}

            def spy(self, grad, fresh=False):
                if self.grad is None:
                    given[id(self)] = (grad, fresh)
                accumulate(self, grad, fresh and not copy_all)

            monkeypatch.setattr(ad.Tensor, "_accumulate", spy)
            for p in leaves:
                p.zero_grad()
            build().backward()
            monkeypatch.undo()
            grads.append([p.grad for p in leaves])
            for p in leaves:
                grad, was_fresh = given[id(p)]
                assert was_fresh == fresh
                assert (p.grad is grad) == (fresh and not copy_all)
                assert fresh or not np.shares_memory(p.grad, grad)
        for got, want in zip(*grads):
            np.testing.assert_array_equal(got, want, strict=True)
def test_conv2d_rejects_out_without_contiguous_planes():
    """The forward writes each output channel's (f, t) plane as one
    flattened span, so an out whose planes are strided is refused before
    any write (a reshape of it would be a copy, and the output lost); an
    out whose channels are strided but whose planes are contiguous is
    written in place."""
    rng = np.random.default_rng(6)
    x = ad.constant(rand(rng, 2, 4, 5))
    w, b = ad.constant(rand(rng, 3, 2, 3, 3)), ad.constant(rand(rng, 3))
    buf = np.full((6, 4, 6), 9.0)
    for op in (lambda out: ad.conv2d(x, w, b, out=out),
               lambda out: ad.batch_norm_relu_conv2d(x, ad.constant(np.ones(2)),
                                                     ad.constant(np.zeros(2)), w, b, out=out)):
        with pytest.raises(ad.ShapeError, match="contiguous"):
            op(buf[:3, :, :5])
        np.testing.assert_array_equal(buf, 9.0)
    slots = np.full((6, 4, 5), 9.0)
    y = ad.conv2d(x, w, b, out=slots[::2])
    assert np.shares_memory(y.data, slots)
    np.testing.assert_array_equal(slots[::2], ad.conv2d(x, w, b).data)
    np.testing.assert_array_equal(slots[1::2], 9.0)


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

    report = grad_check(build, [("x", x), ("w", w), ("b", b)], rng=rng, max_entries=8)
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

    report = grad_check(
        build, [("x", x), ("gamma", gamma), ("beta", beta)], rng=rng, max_entries=10
    )
    assert report["passed"], report


def test_batch_norm_rejects_bad_config():
    gamma = ad.constant(np.ones(1))
    beta = ad.constant(np.zeros(1))
    with pytest.raises(ad.ShapeError):
        ad.batch_norm_train(ad.constant(np.zeros((1, 0, 4))), gamma, beta)


def test_batch_norm_eval_uses_running_stats():
    """An eval DenseLayer normalizes with its running statistics, with
    grad on or off: an affine map of x, not a per-batch standardization."""
    rng = np.random.default_rng(8)
    x = ad.constant(rand(rng, 2, 8, 8) * 3.0 + 1.0)
    layer = DenseLayer(2, 3, rng)
    layer(x)  # updates running stats
    layer.set_training(False)
    bn, w, b = layer.bn, layer.conv.weight, layer.conv.bias
    h = ad.batch_norm_eval(x, bn.gamma, bn.beta, bn._buffers["running_mean"],
                           bn._buffers["running_var"])
    want = ad.conv2d(ad.relu(h), w, b).data
    y1 = layer(x)
    with ad.no_grad():
        y2 = layer(ad.constant(x.data.copy()))
    np.testing.assert_array_equal(y1.data, want)
    np.testing.assert_array_equal(y2.data, want)
    batch = ad.conv2d(ad.relu(ad.batch_norm_train(x, bn.gamma, bn.beta)[0]), w, b).data
    assert np.abs(y1.data - batch).max() > 1e-6


def test_batch_norm2d_folds_batch_stats_into_running_stats():
    """A train-mode DenseLayer folds the batch statistics of its input
    into its BN's running ones; an eval one leaves them alone."""
    rng = np.random.default_rng(9)
    x = ad.constant(rand(rng, 2, 5, 6) * 3.0 + 1.0)
    layer = DenseLayer(2, 3, rng)
    layer(x)
    running = layer.bn._buffers
    np.testing.assert_allclose(running["running_mean"], 0.1 * x.data.mean(axis=(1, 2)))
    np.testing.assert_allclose(running["running_var"], 0.9 + 0.1 * x.data.var(axis=(1, 2)))
    before = {k: v.copy() for k, v in running.items()}
    layer.set_training(False)
    layer(x)
    with ad.no_grad():
        layer(x)
    for k, v in before.items():
        np.testing.assert_array_equal(running[k], v)


def eval_stats(rng, c, dtype=np.float64):
    gamma = ad.parameter((1.0 + 0.3 * rand(rng, c)).astype(dtype))
    beta = ad.parameter((0.5 * rand(rng, c)).astype(dtype))
    mean = (0.2 * rand(rng, c)).astype(dtype)
    var = rng.uniform(0.5, 2.0, c).astype(dtype)
    return gamma, beta, mean, var


def identity_conv(c, dtype=np.float64):
    """A 1x1 conv that passes its c input channels through exactly."""
    return ad.constant(np.eye(c, dtype=dtype)[:, :, None, None]), ad.constant(np.zeros(c, dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_norm_relu_eval_matches_unfused(dtype):
    """The eval-mode map, seen through a 1x1 identity conv, is
    relu(batch_norm_eval(x)) bit for bit."""
    rng = np.random.default_rng(15)
    x = ad.constant(rand(rng, 3, 5, 7).astype(dtype))
    gamma, beta, mean, var = eval_stats(rng, 3, dtype)
    ref = ad.relu(ad.batch_norm_eval(x, gamma, beta, mean, var)).data
    out, _, _ = ad.batch_norm_relu_conv2d(x, gamma, beta, *identity_conv(3, dtype), (mean, var))
    assert out.data.dtype == dtype
    np.testing.assert_array_equal(out.data, ref)


def test_batch_norm_relu_eval_grad_check():
    rng = np.random.default_rng(16)
    # keep pre-activations away from the ReLU kink for finite differences
    x = ad.parameter(rand(rng, 3, 4, 5) + np.where(rand(rng, 3, 4, 5) > 0, 0.8, -0.8))
    gamma, beta, mean, var = eval_stats(rng, 3)
    w = ad.parameter(rand(rng, 2, 3, 3, 3))
    b = ad.parameter(np.zeros(2))

    def build():
        y, _, _ = ad.batch_norm_relu_conv2d(x, gamma, beta, w, b, (mean, var))
        return ad.tmean(ad.mul(y, y))

    report = grad_check(build, [("x", x), ("gamma", gamma), ("beta", beta), ("w", w), ("b", b)],
                        rng=rng, max_entries=10, shrink_retries=2)
    assert report["passed"], report


def test_batch_norm_relu_eval_propagates_nan():
    """BN and ReLU are not checked themselves: a NaN in one channel of the
    running variance (eval) or of x (train) reaches the conv, whose
    check raises."""
    rng = np.random.default_rng(17)
    x = ad.constant(rand(rng, 2, 3, 3))
    gamma, beta, mean, var = eval_stats(rng, 2)
    w, b = identity_conv(2)
    var[1] = np.nan
    with pytest.raises(ad.NumericError, match="conv2d"):
        ad.batch_norm_relu_conv2d(x, gamma, beta, w, b, (mean, var))
    x.data[1, 1, 1] = np.nan
    with pytest.raises(ad.NumericError, match="conv2d"):
        ad.batch_norm_relu_conv2d(x, gamma, beta, w, b)


def check_matches_unfused(monkeypatch, dtype, kh, kw, fo, train):
    """batch_norm_relu_conv2d against conv2d(relu(batch_norm_train or
    batch_norm_eval)) over every block split, written into out: outputs,
    statistics and the gradients of all five operands, bit for bit."""
    c_in, c_out, t = 3, 2, 5
    monkeypatch.setattr(ad, "CONV_TILE_BYTES", tile_bytes(c_out, kh, kw, t, dtype))
    rng = np.random.default_rng(20 + fo)
    x = ad.parameter(rand(rng, c_in, fo, t).astype(dtype))
    gamma, beta, mean, var = eval_stats(rng, c_in, dtype)
    w = ad.parameter(rand(rng, c_out, c_in, kh, kw).astype(dtype))
    b = ad.parameter(rand(rng, c_out).astype(dtype))
    g = ad.constant(rand(rng, c_out, fo, t).astype(dtype))
    params = (x, gamma, beta, w, b)
    runs = []
    for fused in (True, False):
        for p in params:
            p.zero_grad()
        if fused:
            buf = np.full((c_out + 2, fo, t), 9.0, dtype=dtype)
            y, *stats = ad.batch_norm_relu_conv2d(x, gamma, beta, w, b,
                                                  None if train else (mean, var), out=buf[1:-1])
            assert np.shares_memory(y.data, buf)
            np.testing.assert_array_equal(buf[[0, -1]], 9.0)
        else:
            if train:
                h, *stats = ad.batch_norm_train(x, gamma, beta)
            else:
                h, stats = ad.batch_norm_eval(x, gamma, beta, mean, var), [mean, var]
            y = ad.conv2d(ad.relu(h), w, b)
        tsum(ad.mul(y, g)).backward()
        runs.append([y.data.copy()] + stats + [p.grad for p in params])
    for got, want in zip(*runs):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kh, kw", [(3, 3), (1, 1), (3, 1)])
@pytest.mark.parametrize("fo", [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 2 * TILE_ROWS + 1])
def test_batch_norm_relu_conv2d_eval_matches_two_ops(monkeypatch, dtype, kh, kw, fo):
    check_matches_unfused(monkeypatch, dtype, kh, kw, fo, train=False)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kh, kw", [(3, 3), (1, 1), (3, 1)])
@pytest.mark.parametrize("fo", [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 2 * TILE_ROWS + 1])
def test_batch_norm_relu_conv2d_train_matches_three_ops(monkeypatch, dtype, kh, kw, fo):
    check_matches_unfused(monkeypatch, dtype, kh, kw, fo, train=True)


@pytest.mark.parametrize("train", [False, True])
@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("kh, kw", NARROW_KERNELS)
def test_batch_norm_relu_conv2d_narrower_than_kernel_matches_oracle(monkeypatch, kh, kw, t,
                                                                   train):
    """The op on maps t <= 3 columns wide, over two row blocks, in each
    mode: its output and the gradients of all five operands against BN
    and ReLU as two ops with the conv and its gradients by nested loops."""
    monkeypatch.setattr(ad, "CONV_TILE_BYTES", tile_bytes(2, kh, kw, t, np.float64))
    rng = np.random.default_rng(40 + t)
    x = ad.parameter(rand(rng, 3, 5, t))
    gamma, beta, mean, var = eval_stats(rng, 3)
    w, b = ad.parameter(rand(rng, 2, 3, kh, kw)), ad.parameter(rand(rng, 2))
    g = rand(rng, 2, 5, t)
    params = (x, gamma, beta, w, b)
    y, _, _ = ad.batch_norm_relu_conv2d(x, gamma, beta, w, b, None if train else (mean, var))
    tsum(ad.mul(y, ad.constant(g))).backward()
    got = [y.data] + [p.grad for p in params]
    for p in params:
        p.zero_grad()
    h = ad.relu(ad.batch_norm_train(x, gamma, beta)[0] if train
                else ad.batch_norm_eval(x, gamma, beta, mean, var))
    gh, gw, gb = conv2d_grad_oracle(h.data, w.data, g, "same")
    tsum(ad.mul(h, ad.constant(gh))).backward()
    want = [conv2d_oracle(h.data, w.data, b.data, "same"), x.grad, gamma.grad, beta.grad, gw, gb]
    for a, e in zip(got, want):
        np.testing.assert_allclose(a, e, rtol=1e-12, atol=1e-12 * np.abs(e).max())


def test_batch_norm_relu_conv2d_eval_checks(monkeypatch):
    """The op goes through _make, so it records a graph with grad on and
    none under no_grad; given channel parts, they are its parents, and
    parts that differ in (f, t) or dtype are refused; a NaN running
    variance raises either way."""
    rng = np.random.default_rng(21)
    x = ad.constant(rand(rng, 2, 4, 3))
    gamma, beta, mean, var = eval_stats(rng, 2)
    w, b = ad.constant(rand(rng, 3, 2, 3, 3)), ad.constant(np.zeros(3))
    made = []
    make = ad._make
    monkeypatch.setattr(ad, "_make", lambda *args: made.append(args[1]) or make(*args))
    y, _, _ = ad.batch_norm_relu_conv2d(x, gamma, beta, w, b, (mean, var))
    assert y.requires_grad and y._parents == (x, gamma, beta, w, b)
    with ad.no_grad():
        y, _, _ = ad.batch_norm_relu_conv2d(x, gamma, beta, w, b, (mean, var))
    assert not y.requires_grad and y._parents == ()
    assert made == [(x, gamma, beta, w, b)] * 2
    parts = [ad.constant(x.data[:1]), ad.constant(x.data[1:])]
    y, _, _ = ad.batch_norm_relu_conv2d(parts, gamma, beta, w, b, (mean, var))
    assert y._parents == (*parts, gamma, beta, w, b)
    for bad in ([parts[0], ad.constant(x.data[1:, :3])],
                [parts[0], ad.constant(x.data[1:].astype(np.float32))]):
        with pytest.raises(ad.ShapeError, match="parts differ"):
            ad.batch_norm_relu_conv2d(bad, gamma, beta, w, b, (mean, var))
    var[1] = np.nan
    with pytest.raises(ad.NumericError, match="conv2d"):
        ad.batch_norm_relu_conv2d(x, gamma, beta, w, b, (mean, var))
    with ad.no_grad(), pytest.raises(ad.NumericError, match="conv2d"):
        ad.batch_norm_relu_conv2d(x, gamma, beta, w, b, (mean, var))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_norm_relu_train_matches_unfused(dtype):
    """Seen through a 1x1 identity conv, the train-mode map, its batch
    statistics and the gradients of x, gamma and beta equal
    relu(batch_norm_train(x)) bit for bit."""
    rng = np.random.default_rng(18)
    x = ad.parameter(rand(rng, 3, 5, 7).astype(dtype))
    gamma, beta, _, _ = eval_stats(rng, 3, dtype)
    params = (x, gamma, beta)
    g = ad.constant(rand(rng, 3, 5, 7).astype(dtype))
    runs = []
    for fused in (True, False):
        for p in params:
            p.zero_grad()
        if fused:
            out, mean, var = ad.batch_norm_relu_conv2d(x, gamma, beta, *identity_conv(3, dtype))
        else:
            out, mean, var = ad.batch_norm_train(x, gamma, beta)
            out = ad.relu(out)
        tsum(ad.mul(out, g)).backward()
        runs.append([out.data, mean, var] + [p.grad for p in params])
    for got, want in zip(*runs):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)


def test_batch_norm_relu_train_grad_check():
    rng = np.random.default_rng(19)
    x = ad.parameter(rand(rng, 3, 4, 5))
    gamma = ad.parameter(1.0 + 0.3 * rand(rng, 3))
    beta = ad.parameter(0.3 * rand(rng, 3))
    w = ad.parameter(rand(rng, 2, 3, 3, 3))
    b = ad.parameter(np.zeros(2))

    def build():
        y, _, _ = ad.batch_norm_relu_conv2d(x, gamma, beta, w, b)
        return ad.tmean(ad.mul(y, y))

    report = grad_check(build, [("x", x), ("gamma", gamma), ("beta", beta), ("w", w), ("b", b)],
                        rng=rng, max_entries=10, shrink_retries=2)
    assert report["passed"], report


@pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-3)])
def test_batch_norm_train_matches_textbook_formula(dtype, atol):
    """Train-mode BN is x * scale + shift per channel; against the
    textbook gamma * (x - mean) / sqrt(var + eps) + beta in fp64 it is
    off by about |mean| / sigma * eps, here on a channel whose mean is
    1e3 sigmas from 0."""
    rng = np.random.default_rng(22)
    x = rand(rng, 3, 6, 9)
    x[1] = 1e3 + x[1] / x[1].std()
    x = x.astype(dtype)
    gamma, beta = 1.0 + 0.3 * rand(rng, 3), 0.5 * rand(rng, 3)
    out, _, _ = ad.batch_norm_train(ad.constant(x), ad.constant(gamma.astype(dtype)),
                                    ad.constant(beta.astype(dtype)))
    x64 = x.astype(np.float64)
    mean, var = x64.mean(axis=(1, 2))[:, None, None], x64.var(axis=(1, 2))[:, None, None]
    want = gamma.astype(dtype)[:, None, None] * (x64 - mean) / np.sqrt(var + ad.BN_EPS) \
        + beta.astype(dtype)[:, None, None]
    assert out.data.dtype == dtype
    np.testing.assert_allclose(out.data, want, rtol=0, atol=atol)


def test_batch_norm_relu_conv2d_train_backward_holds_one_map():
    """A train-mode dense layer's backward (the op's closure, given the
    output gradient) allocates at its peak no more than the tap-shifted
    gradient, the recomputed BN+ReLU map and the input gradient, plus
    1 MiB: BN's standardized input is made only after the map is freed."""
    rng = np.random.default_rng(23)
    (c_in, f, t), c_out, kh, kw = (40, 71, 256), 14, 3, 3
    dtype = np.float32
    x = ad.parameter(rand(rng, c_in, f, t).astype(dtype))
    gamma, beta = ad.parameter(np.ones(c_in, dtype)), ad.parameter(np.zeros(c_in, dtype))
    w = ad.parameter((0.1 * rand(rng, c_out, c_in, kh, kw)).astype(dtype))
    b = ad.parameter(np.zeros(c_out, dtype))
    y, _, _ = ad.batch_norm_relu_conv2d(x, gamma, beta, w, b)
    g = rand(rng, c_out, f, t).astype(dtype)
    bound = (kh * kw * c_out + 2 * c_in) * f * t * np.dtype(dtype).itemsize + (1 << 20)
    tracemalloc.start()
    try:
        y._backward(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad.shape == x.shape and w.grad.shape == w.shape
    assert peak < bound, (peak / 2**20, bound / 2**20)


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
        return tsum(ad.mul(ad.relu(p), ad.relu(p)))

    report = grad_check(build, [("p", p)], rng=rng, max_entries=12)
    assert report["passed"], report


def test_linear_identity_and_oracle():
    """affine maps the columns of a (d_in, n) x."""
    rng = np.random.default_rng(10)
    x = rand(rng, 3, 4)
    eye = np.eye(3)
    out = ad.affine(ad.constant(x), ad.constant(eye), ad.constant(np.zeros(3)))
    np.testing.assert_allclose(out.data, x)

    w = rand(rng, 5, 3)
    b = rand(rng, 5)
    out = ad.affine(ad.constant(x), ad.constant(w), ad.constant(b))
    expected = np.zeros((5, 4))
    for n in range(4):
        for o in range(5):
            expected[o, n] = b[o] + sum(w[o, i] * x[i, n] for i in range(3))
    np.testing.assert_allclose(out.data, expected, rtol=1e-6)

    zero_w = np.zeros((5, 3))
    out = ad.affine(ad.constant(x), ad.constant(zero_w), ad.constant(b))
    np.testing.assert_allclose(out.data, np.tile(b[:, None], (1, 4)))


def test_affine_grad_check():
    rng = np.random.default_rng(18)
    x = ad.parameter(rng.standard_normal((3, 4)))
    w = ad.parameter(rng.standard_normal((5, 3)))
    b = ad.parameter(rng.standard_normal(5))

    def build():
        y = ad.affine(x, w, b)
        return tsum(ad.mul(y, y))

    report = grad_check(build, [("x", x), ("w", w), ("b", b)], rng=rng, max_entries=6)
    assert report["passed"], report


def test_affine_rejects_rows_of_the_input_width():
    """A (n, d_in) x, the row layout, is a shape error unless n == d_in."""
    with pytest.raises(ad.ShapeError, match="affine: x"):
        ad.affine(ad.constant(np.ones((4, 3))), ad.constant(np.ones((5, 3))),
                  ad.constant(np.zeros(5)))


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
        return tsum(ad.mul(cat, cat))

    report = grad_check(build, [("a", a), ("b", b)], rng=rng, max_entries=8)
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
    tsum(ad.mul(out, out)).backward()
    np.testing.assert_array_equal(a.grad, 2.0)
    np.testing.assert_array_equal(b.grad, 4.0)
    with pytest.raises(ad.ShapeError):
        ad.concat_view(buf[:2], [a, b])


# ---------------------------------------------------------------------------
# backward machinery


def test_backward_sum_gives_ones():
    x = ad.parameter(np.arange(6.0).reshape(2, 3))
    tsum(x).backward()
    np.testing.assert_allclose(x.grad, 1.0)


def test_backward_half_square_gives_x():
    x = ad.parameter(np.array([1.0, -2.0, 3.0]))
    loss = ad.scale(tsum(ad.mul(x, x)), 0.5)
    loss.backward()
    np.testing.assert_allclose(x.grad, x.data)


def test_backward_on_a_swept_graph_raises():
    """The sweep frees the graph, so sweeping it again, from the same loss
    or from a new loss on one of its nodes, raises and leaves the leaf
    gradients as the first sweep left them."""
    x = ad.parameter(np.array([1.0, 2.0]))
    y = ad.mul(x, x)
    loss = tsum(y)
    loss.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    for again in (loss, tsum(y)):
        with pytest.raises(ad.GraphError, match="already swept"):
            again.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = ad.parameter(np.ones((2, 2)))
    with pytest.raises(ad.ShapeError):
        ad.mul(x, x).backward()


def test_backward_diamond_graph_accumulates_paths():
    # loss = sum(y + y) with y = 2x: dl/dx = 4 through two paths
    x = ad.parameter(np.array([1.0, 2.0]))
    y = ad.scale(x, 2.0)
    loss = tsum(ad.add(y, y))
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

    report = grad_check(
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
            return tsum(ad.mul(x, x))
        return ad.scale(tsum(ad.mul(x, x)), 3.0)

    report = grad_check(build, [("x", x)])
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
    seq = ad.constant(rng.standard_normal((5, 3)).T)
    out = lstm(seq)
    assert out.shape == (8, 5)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_bilstm_time_reversal_symmetry():
    rng = np.random.default_rng(15)
    lstm = BiLSTM(3, 4, rng)
    # tie the two directions so reversal maps one exactly onto the other
    for suffix in ("wx", "wh", "b"):
        lstm._params["bw_" + suffix].data[...] = lstm._params["fw_" + suffix].data
    x = rng.standard_normal((6, 3)).T
    out = lstm(ad.constant(x)).data
    out_rev = lstm(ad.constant(x[:, ::-1].copy())).data
    m = 4
    # forward half of reversed run equals reversed backward half and vice versa
    np.testing.assert_allclose(out_rev[:m], out[m:, ::-1], atol=1e-12)
    np.testing.assert_allclose(out_rev[m:], out[:m, ::-1], atol=1e-12)


def test_bilstm_grad_check():
    rng = np.random.default_rng(16)
    lstm = BiLSTM(2, 2, rng)
    x = ad.constant(rng.standard_normal((3, 2)).T)

    def build():
        y = lstm(x)
        return ad.tmean(ad.mul(y, y))

    report = grad_check(
        build, list(lstm.named_params()), tol=1e-4, rng=rng, max_entries=6
    )
    assert report["passed"], report


def getitem_reference(x, key):
    """getitem with the backward it had before: a zero array the size of
    x for each slice, accumulated into x's gradient."""
    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[key] += g
            x._accumulate(gx)

    return ad._make(x.data[key], (x,), backward)


@pytest.mark.parametrize("graph", ["bilstm", "mixed"])
def test_getitem_gradients_equal_per_slice_zero_arrays(monkeypatch, graph):
    """The BiLSTM's per-step columns of its input projection, and slices
    of a tensor that is also used whole, give the same gradients (==) as
    the reference backward."""
    rng = np.random.default_rng(17)
    lstm = BiLSTM(3, 4, rng)
    x = ad.parameter(rng.standard_normal((9, 3)).T)
    params = [x] + [p for _, p in lstm.named_params()]

    def loss():
        if graph == "bilstm":
            y = lstm(x)
        else:
            y = ad.concat([ad.mul(x, x), x[:, 2:7], x[:, 1:3], x[:, 4:5]], axis=1)
        return tsum(ad.mul(y, y))

    grads = []
    for op in (ad.getitem, getitem_reference):
        monkeypatch.setattr(ad, "getitem", op)
        for p in params:
            p.zero_grad()
        loss().backward()
        grads.append([p.grad for p in params])
    for got, want in zip(*grads):
        assert (got is None and want is None) or np.array_equal(got, want)


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
    report = grad_check(build, params, tol=1e-4, rng=rng, max_entries=4)
    assert report["passed"], report
