"""Minimal reverse-mode automatic differentiation on numpy arrays.

Implements exactly the operation set the separation model needs:
same-padded 2-D convolution, batch normalization (one per-channel
affine map in train and eval mode), a dense layer's BN + ReLU + conv
as one op (its input is a list of channel parts, never concatenated;
it fills the conv's row tile, zero rows above and below and no zero
columns, with the BN+ReLU map, and its backward recomputes that map
from the parts), ReLU/sigmoid/tanh, 2x2
average pooling, stride-2 transposed convolution, affine maps,
concatenation, slicing and the usual elementwise/reduction glue. Each
operation records a backward closure; `Tensor.backward()` runs a
reverse topological sweep.

Conventions:
  * feature maps are (channels, frequency, time), row-major
  * gradients are accumulated (a node used twice sums both contributions)
  * no operation mutates its inputs
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = [
    "Tensor",
    "GraphError",
    "NumericError",
    "ShapeError",
    "no_grad",
    "constant",
    "parameter",
    "add",
    "sub",
    "mul",
    "scale",
    "relu",
    "sigmoid",
    "tanh",
    "tmean",
    "affine",
    "conv2d",
    "avg_pool2",
    "conv_transpose2",
    "batch_norm_train",
    "batch_norm_eval",
    "batch_norm_relu_conv2d",
    "concat",
    "concat_view",
    "getitem",
    "reshape",
    "transpose2d",
]


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the operation's contract."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where only finite values are allowed."""


class GraphError(RuntimeError):
    """backward() was asked to sweep a graph it already swept (and freed)."""


_recording = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording; forward results carry no parents."""
    global _recording
    prev = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = prev


class Tensor:
    """A node in the computation graph: a value plus backward bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64 if not isinstance(data, np.ndarray) else data.dtype)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self):
        """Reverse-mode sweep from a scalar loss node. The sweep frees the
        graph as it goes: once a non-leaf's backward has run, its grad,
        closure and parents are dropped, so only the leaves' gradients
        outlive it. A swept graph raises GraphError if swept again."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar loss, got shape %r" % (self.shape,))
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _swept, ()

    def __repr__(self):
        return "Tensor(shape=%r, requires_grad=%r)" % (self.shape, self.requires_grad)

    def __getitem__(self, key):
        return getitem(self, key)


def _swept(g):
    raise GraphError("backward() already swept this graph; build it again")


def _toposort(root):
    """Iterative DFS: every node after its parents, root last. No op
    can make a cycle: _make gives parents only to the tensor it makes."""
    seen = {id(root)}
    order = []
    stack = [(root, iter(root._parents))]
    while stack:
        node, it = stack[-1]
        for parent in it:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                break
        else:
            order.append(node)
            stack.pop()
    return order


def constant(data):
    return Tensor(np.asarray(data))


def parameter(data):
    return Tensor(np.asarray(data), requires_grad=True)


def _make(data, parents, backward):
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _check_finite(arr, where):
    """Finiteness guard on the outputs of conv2d and sigmoid (BiLSTM
    checks its cell state too). BN and ReLU are not checked themselves:
    they propagate NaN/inf into the next conv2d, whose check raises."""
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite values in output of %s" % where)


# ---------------------------------------------------------------------------
# elementwise / reductions


def add(a, b):
    if a.shape != b.shape:
        raise ShapeError("add: shapes %r vs %r" % (a.shape, b.shape))
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _make(out_data, (a, b), backward)


def sub(a, b):
    if a.shape != b.shape:
        raise ShapeError("sub: shapes %r vs %r" % (a.shape, b.shape))
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)

    return _make(out_data, (a, b), backward)


def mul(a, b):
    if a.shape != b.shape:
        raise ShapeError("mul: shapes %r vs %r" % (a.shape, b.shape))
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return _make(out_data, (a, b), backward)


def scale(a, c):
    c = float(c)
    out_data = a.data * c

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * c)

    return _make(out_data, (a,), backward)


def relu(a):
    # np.maximum propagates NaN, so a bad input reaches the next checked op
    out_data = np.maximum(a.data, 0)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (out_data > 0))

    return _make(out_data, (a,), backward)


def sigmoid(a):
    out_data = 1.0 / (1.0 + np.exp(-a.data))
    _check_finite(out_data, "sigmoid")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


def tanh(a):
    out_data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), backward)


def tmean(a):
    n = a.size
    out_data = np.asarray(a.data.mean())

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g / n, a.shape))

    return _make(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra


def affine(x, weight, bias):
    """Rows of x mapped by weight (d_out, d_in) plus bias (d_out,)."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError("affine: x %r, weight %r" % (x.shape, weight.shape))
    if bias.shape != (weight.shape[0],):
        raise ShapeError("affine: bias %r, weight %r" % (bias.shape, weight.shape))
    out_data = x.data @ weight.data.T + bias.data

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ weight.data)
        if weight.requires_grad:
            weight._accumulate(g.T @ x.data)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0))

    return _make(out_data, (x, weight, bias), backward)


# ---------------------------------------------------------------------------
# convolution family (inputs are (c, f, t) maps)


CONV_TILE_BYTES = 4 << 20  # size of the tap array of one row block in conv2d's forward


def _channel_parts(x):
    """x, a (c, f, t) tensor or a list of (c_i, f, t) tensors that stack
    along channels, as (parts, offsets): parts[i] holds channels
    [offsets[i], offsets[i + 1]) of the map."""
    parts = [x] if isinstance(x, Tensor) else list(x)
    if not parts or any(p.ndim != 3 for p in parts):
        raise ShapeError("expected (c, f, t) channel parts, got %r" % ([p.shape for p in parts],))
    if any(p.shape[1:] != parts[0].shape[1:] or p.data.dtype != parts[0].data.dtype
           for p in parts):
        raise ShapeError("channel parts differ in (f, t) or dtype: %r"
                         % ([(p.shape, p.data.dtype) for p in parts],))
    return parts, np.cumsum([0] + [p.shape[0] for p in parts]).tolist()


def _conv_setup(shape, dtype, weight, bias, out):
    """Check conv2d's operands, the input map being of shape (c_in, f, t)
    and dtype; return (ph, out_data)."""
    if len(shape) != 3 or weight.ndim != 4:
        raise ShapeError("conv2d: x %r, weight %r" % (shape, weight.shape))
    c_out, c_in, kh, kw = weight.shape
    if shape[0] != c_in:
        raise ShapeError("conv2d: input channels %d, kernel expects %d" % (shape[0], c_in))
    if bias.shape != (c_out,):
        raise ShapeError("conv2d: bias %r for %d output channels" % (bias.shape, c_out))
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError("conv2d: same-padding requires odd kernel dims, got %dx%d" % (kh, kw))
    shape = (c_out,) + shape[1:]
    if out is None:
        return kh // 2, np.empty(shape, dtype=dtype)
    if out.shape != shape or out.dtype != dtype:
        raise ShapeError("conv2d: out %r %s, expected %r %s" % (out.shape, out.dtype, shape, dtype))
    if out.size and not out[0].flags.c_contiguous:  # _conv_forward writes flattened planes
        raise ShapeError("conv2d: out needs a contiguous (f, t) plane per channel")
    return kh // 2, out


def _padded_rows(fill, shape, dtype, ph):
    """read_rows for _conv_forward over a (c, f, t) map bordered by ph
    zero rows above and below. Each call builds rows [lo, hi) of the
    bordered input in one reused (c, rows, t) tile, sized by the first
    (tallest) call: fill(dst, a, b) writes rows [a, b) of the map into
    dst, one contiguous span per channel. The whole bordered input never
    exists (Pleiss et al. 2017, arXiv:1707.06990)."""
    c, f, t = shape
    tile = None

    def read_rows(lo, hi):
        nonlocal tile
        if tile is None:
            tile = np.zeros((c, hi - lo, t), dtype=dtype)
        rows = tile[:, :hi - lo]
        a, b = max(lo, ph), min(hi, ph + f)  # the bordered rows that hold rows of the map
        rows[:, :a - lo] = 0
        rows[:, b - lo:] = 0
        fill(rows[:, a - lo:b - lo], a - ph, b - ph)
        return rows

    return read_rows


def _zero_wraps(taps):
    """Zero, in a (kh, kw, c_out, rows, t) tap array, the columns that
    the flattened shift of tap dj by dj - kw // 2 would carry into the
    next or previous row: they stand for the zero columns left and right
    of the map."""
    kw, t = taps.shape[1], taps.shape[-1]
    for dj in range(kw):
        s = dj - kw // 2
        if s > 0:
            taps[:, dj, ..., :s] = 0
        elif s < 0:
            taps[:, dj, ..., max(t + s, 0):] = 0


def _conv_forward(read_rows, w, bias, out):
    """out = bias + the same cross-correlation of w with an input whose
    rows are bordered by kh // 2 zero rows, one block of output rows at
    a time.

    read_rows(lo, hi) returns rows [lo, hi) of the bordered (c_in, fp, t)
    input, the first call being the tallest. A block of n output rows
    needs n + kh - 1 input rows; one GEMM of the tap-major kernel w9
    (kh*kw*c_out, c_in) against them, read in place, gives the block's
    (kh, kw, c_out, (n + kh - 1) * t) tap array. On flattened rows, tap
    (di, dj) is the shift by di * t + dj - kw // 2: its wrapping columns
    are zeroed (_zero_wraps) and its kh*kw shifted spans are added into
    the block in (di, dj) order. n keeps the tap array near
    CONV_TILE_BYTES, so the taps are added while in cache.
    """
    c_out, c_in, kh, kw = w.shape
    _, fo, t = out.shape
    w9 = w.transpose(2, 3, 0, 1).reshape(kh * kw * c_out, c_in)
    rows = max(1, CONV_TILE_BYTES // (w9.shape[0] * max(t, 1) * out.itemsize) - (kh - 1))
    for r0 in range(0, fo, rows):
        n = min(rows, fo - r0)
        m = (n + kh - 1) * t
        taps = (w9 @ read_rows(r0, r0 + n + kh - 1).reshape(c_in, m)).reshape(kh, kw, c_out, m)
        _zero_wraps(taps.reshape(kh, kw, c_out, n + kh - 1, t))
        block = out[:, r0:r0 + n].reshape(c_out, n * t)
        block[:] = bias[:, None]
        for di in range(kh):
            for dj in range(kw):
                dst, src = _tap_span(-(di * t + dj - kw // 2), n * t, m)
                block[:, dst] += taps[di, dj, :, src]


def _tap_span(s, n, m):
    """(dst, src) slices putting src[i] at dst[i + s], dst in [0, n) and
    src in [0, m)."""
    lo = max(s, 0)
    hi = max(min(n, m + s), lo)
    return slice(lo, hi), slice(lo - s, hi - s)


def _conv_backward(g, xd, weight, bias, need_gx):
    """conv2d's backward for the output gradient g and the input map xd:
    two GEMMs over one tap-shifted gradient (convolution as a few large
    GEMMs, Chellapilla, Puri & Simard 2006). `shifted` is a zero
    (kh*kw*c_out, f*t) array whose row block (di, dj) holds g where that
    tap's input sits: g's flattened rows shifted by (di - kh // 2) * t +
    dj - kw // 2, clipped at the ends, with the wrapping columns zeroed
    (_zero_wraps); a 1x1 kernel's one tap reads g itself. The weight
    gradient shifted @ xd.T and the bias gradient are accumulated; the
    input gradient w9.T @ shifted, w9 the (kh*kw*c_out, c_in) tap-major
    kernel, is returned when need_gx (else None)."""
    c_out, c_in, kh, kw = weight.shape
    _, f, t = xd.shape
    gx = None
    if need_gx or weight.requires_grad:
        if kh == kw == 1:
            shifted = np.ascontiguousarray(g).reshape(c_out, f * t)
        else:
            shifted = np.zeros((kh, kw, c_out, f * t), dtype=g.dtype)
            g2 = g.reshape(c_out, f * t)
            for di in range(kh):
                for dj in range(kw):
                    dst, src = _tap_span((di - kh // 2) * t + dj - kw // 2, f * t, f * t)
                    shifted[di, dj, :, dst] = g2[:, src]
            _zero_wraps(shifted.reshape(kh, kw, c_out, f, t))
            shifted = shifted.reshape(kh * kw * c_out, f * t)
        if need_gx:
            w9 = weight.data.transpose(2, 3, 0, 1).reshape(kh * kw * c_out, c_in)
            gx = (w9.T @ shifted).reshape(c_in, f, t)
        if weight.requires_grad:
            gw = shifted @ xd.reshape(c_in, f * t).T
            weight._accumulate(gw.reshape(kh, kw, c_out, c_in).transpose(2, 3, 0, 1))
    if bias.requires_grad:
        bias._accumulate(g.sum(axis=(1, 2)))
    return gx


def conv2d(x, weight, bias, out=None):
    """Same-padded cross-correlation of a (c_in, f, t) map with
    (c_out, c_in, kh, kw), kh and kw odd.

    out, when given, is the (c_out, f, t) array the result is written
    into (e.g. a slot of a dense block's channel buffer), with each
    channel's (f, t) plane contiguous; the returned tensor's data is
    that array.

    The forward runs in blocks of output rows (_conv_forward): one GEMM
    per block against its input rows, copied into a reused tile that
    holds zero rows above and below and no zero columns (_padded_rows),
    then a sum of the taps shifted along flattened rows. No padded copy
    of x is made; a kernel one row high needs no zero rows, so it reads
    the rows of x in place. The backward is _conv_backward.
    """
    xd = x.data
    ph, out_data = _conv_setup(xd.shape, xd.dtype, weight, bias, out)
    if ph:
        copy_rows = lambda dst, a, b: np.copyto(dst, xd[:, a:b])
        read_rows = _padded_rows(copy_rows, xd.shape, xd.dtype, ph)
    else:
        read_rows = lambda lo, hi: xd[:, lo:hi]
    _conv_forward(read_rows, weight.data, bias.data, out_data)
    _check_finite(out_data, "conv2d")

    def backward(g):
        gx = _conv_backward(g, x.data, weight, bias, x.requires_grad)
        if gx is not None:
            x._accumulate(gx)

    return _make(out_data, (x, weight, bias), backward)


def avg_pool2(x):
    """2x2 average pooling, stride 2, on both spatial axes."""
    if x.ndim != 3:
        raise ShapeError("avg_pool2: expected (c, f, t), got %r" % (x.shape,))
    c, f, t = x.shape
    if f % 2 or t % 2:
        raise ShapeError("avg_pool2: spatial dims must be even, got %r (pad first)" % (x.shape,))
    xd = x.data
    out_data = (xd[:, 0::2, 0::2] + xd[:, 0::2, 1::2]) + (xd[:, 1::2, 0::2] + xd[:, 1::2, 1::2])
    out_data *= 0.25

    def backward(g):
        if x.requires_grad:
            gx = np.repeat(np.repeat(g, 2, axis=1), 2, axis=2) * 0.25
            x._accumulate(gx)

    return _make(out_data, (x,), backward)


def conv_transpose2(x, weight, bias):
    """Stride-2 transposed convolution with a 2x2 kernel (non-overlapping).

    weight is (c_in, c_out, 2, 2); output is (c_out, 2f, 2t).
    """
    if x.ndim != 3 or weight.ndim != 4 or weight.shape[2:] != (2, 2):
        raise ShapeError("conv_transpose2: x %r, weight %r" % (x.shape, weight.shape))
    c_in, c_out = weight.shape[:2]
    if x.shape[0] != c_in:
        raise ShapeError("conv_transpose2: input channels %d, kernel expects %d" % (x.shape[0], c_in))
    if bias.shape != (c_out,):
        raise ShapeError("conv_transpose2: bias %r for %d output channels" % (bias.shape, c_out))
    _, f, t = x.shape
    w = weight.data
    out_data = np.empty((c_out, 2 * f, 2 * t), dtype=x.data.dtype)
    xf = x.data.reshape(c_in, -1)
    for di in range(2):
        for dj in range(2):
            out_data[:, di::2, dj::2] = (w[:, :, di, dj].T @ xf).reshape(c_out, f, t)
    out_data += bias.data[:, None, None]

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            for di in range(2):
                for dj in range(2):
                    gx += np.tensordot(w[:, :, di, dj], g[:, di::2, dj::2], axes=([1], [0]))
            x._accumulate(gx)
        if weight.requires_grad:
            gw = np.empty_like(w)
            for di in range(2):
                for dj in range(2):
                    gw[:, :, di, dj] = xf @ g[:, di::2, dj::2].reshape(c_out, -1).T
            weight._accumulate(gw)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=(1, 2)))

    return _make(out_data, (x, weight, bias), backward)


# ---------------------------------------------------------------------------
# batch normalization (per channel over the (f, t) plane)

BN_EPS = 1e-5  # added to the variance before its square root, in every BN op


def _bn_affine(parts, gamma, beta, running):
    """Check batch norm's operands, the input given as channel parts;
    return the per-channel (mean, var, inv_std, scale, shift) of its map
    x * scale + shift, with scale = gamma * inv_std and shift = beta -
    mean * scale. (mean, var) are the batch statistics of each part's
    channels when running is None (train mode), else running (eval
    mode)."""
    _, f, t = parts[0].shape
    c = sum(p.shape[0] for p in parts)
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError("batch_norm: gamma/beta must be (%d,)" % c)
    if running is None:
        if f * t == 0:
            raise ShapeError("batch_norm: zero-size channel plane %r" % ((c, f, t),))
        mean = np.concatenate([p.data.mean(axis=(1, 2)) for p in parts])
        var = np.concatenate([p.data.var(axis=(1, 2)) for p in parts])
    else:
        mean, var = running
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    scale_c = gamma.data * inv_std
    return mean, var, inv_std, scale_c, beta.data - mean * scale_c


def _affine_relu(src, scale_c, shift_c, out):
    """out = max(src * scale_c + shift_c, 0) per channel, in place."""
    np.multiply(src, scale_c[:, None, None], out=out)
    out += shift_c[:, None, None]
    np.maximum(out, 0, out=out)
    return out


def _bn_backward(g, parts, offsets, gamma, beta, mean, inv_std, scale_c, train):
    """Accumulate batch norm's gradients for the output gradient g, one
    channel part at a time: part i takes channels [offsets[i],
    offsets[i + 1]) of g. x's gradient flows through the batch statistics
    in train mode only."""
    g_xhat = []
    for x, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
        gp = g[lo:hi]
        xhat = np.subtract(x.data, mean[lo:hi, None, None])
        xhat *= inv_std[lo:hi, None, None]
        g_xhat.append((gp * xhat).sum(axis=(1, 2)))
        if x.requires_grad:
            if train:
                gx = gp - gp.mean(axis=(1, 2))[:, None, None]
                gx -= xhat * (g_xhat[-1] / (x.shape[1] * x.shape[2]))[:, None, None]
                gx *= scale_c[lo:hi, None, None]
            else:
                gx = gp * scale_c[lo:hi, None, None]
            x._accumulate(gx)
    if gamma.requires_grad:
        gamma._accumulate(np.concatenate(g_xhat))
    if beta.requires_grad:
        beta._accumulate(g.sum(axis=(1, 2)))


def _batch_norm(x, gamma, beta, running):
    """The BN op in either mode: (out, mean, var) of _bn_affine's map."""
    parts, offsets = _channel_parts(x)
    mean, var, inv_std, scale_c, shift_c = _bn_affine(parts, gamma, beta, running)
    out_data = x.data * scale_c[:, None, None]
    out_data += shift_c[:, None, None]

    def backward(g):
        _bn_backward(g, parts, offsets, gamma, beta, mean, inv_std, scale_c, running is None)

    return _make(out_data, (x, gamma, beta), backward), mean, var


def batch_norm_train(x, gamma, beta):
    """x * scale + shift per channel, scale and shift from x's batch
    statistics over each channel's spatial plane.

    Returns (out, batch_mean, batch_var); the caller owns running-stat
    bookkeeping. Differentiable w.r.t. x, gamma and beta.
    """
    return _batch_norm(x, gamma, beta, None)


def batch_norm_eval(x, gamma, beta, running_mean, running_var):
    """x * scale + shift per channel, scale and shift from fixed
    (running) statistics."""
    return _batch_norm(x, gamma, beta, (running_mean, running_var))[0]


def batch_norm_relu_conv2d(x, gamma, beta, weight, bias, running=None, out=None):
    """conv2d(relu(batch_norm(x, gamma, beta)), weight, bias, out), a
    dense layer, as one op: bitwise equal to those ops, gradients too.

    x is a (c_in, f, t) tensor or a list of tensors, its channel parts:
    the op reads them where they are and never concatenates them.
    running=None normalizes with the batch statistics of each channel
    (train mode), running=(running_mean, running_var) with those (eval
    mode); either way BN is the per-channel map x * scale + shift
    (_bn_affine). Returns (out, mean, var), the statistics used; the
    running-stat fold is the caller's. The BN+ReLU map fills conv2d's
    row tile (_padded_rows), one contiguous span per channel and row
    block, each part into its channels, and is never whole. The graph
    keeps the parts, which their producers hold anyway, and per-channel
    statistics; the backward recomputes the map from them (Pleiss et al.
    2017, arXiv:1707.06990), frees it before BN's backward standardizes
    the parts, and hands each part its slice of the input gradient.
    """
    parts, offsets = _channel_parts(x)
    _, f, t = parts[0].shape
    shape, dtype = (offsets[-1], f, t), parts[0].data.dtype
    mean, var, inv_std, scale_c, shift_c = _bn_affine(parts, gamma, beta, running)
    ph, out_data = _conv_setup(shape, dtype, weight, bias, out)
    spans = list(zip(parts, offsets[:-1], offsets[1:]))

    def affine_relu_rows(dst, a, b):
        for p, lo, hi in spans:
            _affine_relu(p.data[:, a:b], scale_c[lo:hi], shift_c[lo:hi], dst[lo:hi])

    _conv_forward(_padded_rows(affine_relu_rows, shape, dtype, ph), weight.data, bias.data,
                  out_data)
    _check_finite(out_data, "conv2d")

    def backward(g):
        h = np.empty(shape, dtype=dtype)
        affine_relu_rows(h, 0, f)
        gh = _conv_backward(g, h, weight, bias, True)
        gh *= h > 0
        del h
        _bn_backward(gh, parts, offsets, gamma, beta, mean, inv_std, scale_c, running is None)

    return _make(out_data, tuple(parts) + (gamma, beta, weight, bias), backward), mean, var


# ---------------------------------------------------------------------------
# shape surgery


def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat: empty input list")
    if len(tensors) == 1:
        return tensors[0]
    ref = tensors[0].shape
    for t in tensors[1:]:
        if t.ndim != len(ref) or any(
            t.shape[a] != ref[a] for a in range(len(ref)) if a != axis
        ):
            raise ShapeError("concat: incompatible shapes %r" % ([t.shape for t in tensors],))
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    return concat_view(out_data, tensors, axis)


def concat_view(data, tensors, axis=0):
    """The concat of tensors along axis, over `data`, an array that
    already holds it (e.g. a view of a buffer the tensors were written
    into). No copy is made; the backward is concat's. The caller must
    not overwrite the covered part of `data` afterwards."""
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    if data.shape[axis] != sum(sizes):
        raise ShapeError("concat_view: %d along axis %d holds parts of sizes %r"
                         % (data.shape[axis], axis, sizes))
    if len(tensors) == 1:
        return tensors[0]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _make(data, tensors, backward)


def getitem(x, key):
    """Basic (slice/int) indexing only; fancy indexing is not supported.

    The backward adds g into the indexed part of x's gradient, made once
    as zeros, so n slices of x cost O(x.size + n * slice) and not
    O(n * x.size): the BiLSTM takes one row of its (T, 4m) input
    projection per step.
    """
    out_data = x.data[key]

    def backward(g):
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[key] += g

    return _make(out_data, (x,), backward)


def reshape(x, shape):
    out_data = x.data.reshape(shape)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.reshape(x.shape))

    return _make(out_data, (x,), backward)


def transpose2d(x):
    if x.ndim != 2:
        raise ShapeError("transpose2d: expected 2-D, got %r" % (x.shape,))
    out_data = x.data.T.copy()

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.T)

    return _make(out_data, (x,), backward)
