"""Minimal reverse-mode automatic differentiation on numpy arrays.

Implements exactly the operation set the separation model needs: 2-D
convolution, batch normalization (plus an eval-mode BN + ReLU fused into
a zero-bordered map), ReLU/sigmoid/tanh, 2x2 average pooling,
stride-2 transposed convolution, affine maps, concatenation, slicing and
the usual elementwise/reduction glue. Each operation records a backward
closure; `Tensor.backward()` runs a reverse topological sweep.

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
    "neg",
    "relu",
    "sigmoid",
    "tanh",
    "tsum",
    "tmean",
    "affine",
    "conv2d",
    "avg_pool2",
    "conv_transpose2",
    "batch_norm_train",
    "batch_norm_eval",
    "batch_norm_relu_eval",
    "concat",
    "concat_view",
    "getitem",
    "reshape",
    "transpose2d",
    "grad_check",
]


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the operation's contract."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where only finite values are allowed."""


class GraphError(RuntimeError):
    """The computation graph is malformed (e.g. contains a cycle)."""


_grad_enabled = True

# Cheap finiteness guard on the outputs of conv2d and sigmoid (and the
# LSTM cell state). BN and ReLU are not checked themselves: they
# propagate NaN/inf into the next conv2d, whose check raises.
finite_checks = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording; forward results carry no parents."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


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

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self):
        """Reverse-mode sweep from a scalar loss node."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar loss, got shape %r" % (self.shape,))
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return "Tensor(shape=%r, requires_grad=%r)" % (self.shape, self.requires_grad)

    # small operator sugar used by the layers
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __getitem__(self, key):
        return getitem(self, key)


def _toposort(root):
    """Iterative DFS topological order with cycle detection."""
    WHITE, GREY, BLACK = 0, 1, 2
    state = {}
    order = []
    stack = [(root, iter(root._parents))]
    state[id(root)] = GREY
    while stack:
        node, it = stack[-1]
        advanced = False
        for parent in it:
            s = state.get(id(parent), WHITE)
            if s == GREY:
                raise GraphError("cycle detected in computation graph")
            if s == WHITE:
                state[id(parent)] = GREY
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            state[id(node)] = BLACK
            order.append(node)
            stack.pop()
    return order


def constant(data):
    return Tensor(np.asarray(data))


def parameter(data):
    return Tensor(np.asarray(data), requires_grad=True)


def _make(data, parents, backward):
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _check_finite(arr, where):
    if finite_checks and not np.all(np.isfinite(arr)):
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


def neg(a):
    return scale(a, -1.0)


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


def tsum(a):
    out_data = np.asarray(a.data.sum())

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g, a.shape))

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


def conv2d(x, weight, bias, padding="same", out=None):
    """Cross-correlation of a (c_in, f, t) map with (c_out, c_in, kh, kw).

    out, when given, is the (c_out, fo, to) array the result is written
    into (e.g. a slot of a dense block's channel buffer); the returned
    tensor's data is that array.
    """
    if x.ndim != 3 or weight.ndim != 4:
        raise ShapeError("conv2d: x %r, weight %r" % (x.shape, weight.shape))
    c_out, c_in, kh, kw = weight.shape
    if x.shape[0] != c_in:
        raise ShapeError("conv2d: input channels %d, kernel expects %d" % (x.shape[0], c_in))
    if bias.shape != (c_out,):
        raise ShapeError("conv2d: bias %r for %d output channels" % (bias.shape, c_out))
    if padding == "same":
        if kh % 2 == 0 or kw % 2 == 0:
            raise ShapeError("conv2d: same-padding requires odd kernel dims, got %dx%d" % (kh, kw))
        ph, pw = kh // 2, kw // 2
    elif padding == "valid":
        ph = pw = 0
    else:
        raise ShapeError("conv2d: unknown padding %r" % (padding,))

    _, f, t = x.shape
    fo, to = f + 2 * ph - kh + 1, t + 2 * pw - kw + 1
    if fo < 1 or to < 1:
        raise ShapeError("conv2d: input %r too small for %dx%d valid kernel" % (x.shape, kh, kw))
    xp = np.pad(x.data, ((0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x.data

    if out is None:
        out_data = np.empty((c_out, fo, to), dtype=x.data.dtype)
    elif out.shape != (c_out, fo, to) or out.dtype != x.data.dtype:
        raise ShapeError("conv2d: out %r %s, expected %r %s"
                         % (out.shape, out.dtype, (c_out, fo, to), x.data.dtype))
    else:
        out_data = out
    out_data[:] = bias.data[:, None, None]
    w = weight.data
    # one GEMM per kernel row against the whole (unwindowed) input,
    # then shifted accumulation: avoids copying input windows per tap
    for di in range(kh):
        taps = np.tensordot(w[:, :, di, :], xp, axes=([1], [0]))  # (c_out, kw, fp, tp)
        for dj in range(kw):
            out_data += taps[:, dj, di:di + fo, dj:dj + to]
    _check_finite(out_data, "conv2d")

    def backward(g):
        gf = g.reshape(c_out, -1)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for di in range(kh):
                taps = np.tensordot(w[:, :, di, :], g, axes=([0], [0]))  # (c_in, kw, fo, to)
                for dj in range(kw):
                    gxp[:, di:di + fo, dj:dj + to] += taps[:, dj]
            gx = gxp[:, ph:ph + f, pw:pw + t] if (ph or pw) else gxp
            x._accumulate(gx)
        if weight.requires_grad:
            gw = np.empty_like(w)
            for di in range(kh):
                for dj in range(kw):
                    win = xp[:, di:di + fo, dj:dj + to].reshape(c_in, -1)
                    gw[:, :, di, dj] = gf @ win.T
            weight._accumulate(gw)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=(1, 2)))

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


def batch_norm_train(x, gamma, beta, eps=1e-5):
    """Standardize each channel over its spatial plane, then affine.

    Returns (out, batch_mean, batch_var); the caller owns running-stat
    bookkeeping. Differentiable w.r.t. x, gamma and beta.
    """
    if x.ndim != 3:
        raise ShapeError("batch_norm: expected (c, f, t), got %r" % (x.shape,))
    c, f, t = x.shape
    if f * t == 0:
        raise ShapeError("batch_norm: zero-size channel plane %r" % (x.shape,))
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError("batch_norm: gamma/beta must be (%d,)" % c)
    if eps <= 0:
        raise ShapeError("batch_norm: eps must be positive")
    n = f * t
    mean = x.data.mean(axis=(1, 2))
    var = x.data.var(axis=(1, 2))
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[:, None, None]) * inv_std[:, None, None]
    out_data = gamma.data[:, None, None] * xhat + beta.data[:, None, None]

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=(1, 2)))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=(1, 2)))
        if x.requires_grad:
            gmean = g.mean(axis=(1, 2))
            gx_hat_mean = (g * xhat).sum(axis=(1, 2)) / n
            gx = (gamma.data * inv_std)[:, None, None] * (
                g - gmean[:, None, None] - xhat * gx_hat_mean[:, None, None]
            )
            x._accumulate(gx)

    return _make(out_data, (x, gamma, beta), backward), mean, var


def _eval_affine(x, gamma, beta, running_mean, running_var, eps):
    """Per-channel (inv_std, scale, shift) of eval-mode batch norm."""
    if x.ndim != 3:
        raise ShapeError("batch_norm: expected (c, f, t), got %r" % (x.shape,))
    c = x.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError("batch_norm: gamma/beta must be (%d,)" % c)
    inv_std = 1.0 / np.sqrt(running_var + eps)
    scale_c = gamma.data * inv_std
    shift_c = beta.data - running_mean * scale_c
    return inv_std, scale_c, shift_c


def _eval_affine_backward(g, x, gamma, beta, running_mean, inv_std, scale_c):
    if x.requires_grad:
        x._accumulate(g * scale_c[:, None, None])
    if gamma.requires_grad:
        xhat = (x.data - running_mean[:, None, None]) * inv_std[:, None, None]
        gamma._accumulate((g * xhat).sum(axis=(1, 2)))
    if beta.requires_grad:
        beta._accumulate(g.sum(axis=(1, 2)))


def batch_norm_eval(x, gamma, beta, running_mean, running_var, eps=1e-5):
    """Affine standardization against fixed (running) statistics."""
    inv_std, scale_c, shift_c = _eval_affine(x, gamma, beta, running_mean, running_var, eps)
    out_data = x.data * scale_c[:, None, None]
    out_data += shift_c[:, None, None]

    def backward(g):
        _eval_affine_backward(g, x, gamma, beta, running_mean, inv_std, scale_c)

    return _make(out_data, (x, gamma, beta), backward)


def batch_norm_relu_eval(x, gamma, beta, running_mean, running_var, halo, eps=1e-5):
    """relu(batch_norm_eval(x)) written into a zero halo.

    The result is (c, f + 2*ph, t + 2*pw) for halo = (ph, pw): the
    interior holds max(x*scale + shift, 0) and the border is zero, so a
    following conv2d(..., padding="valid") equals a same-padded one on
    the unpadded map, without np.pad. The affine map and the ReLU run
    in place in the interior, with no temporaries. Differentiable
    w.r.t. x, gamma and beta.
    """
    inv_std, scale_c, shift_c = _eval_affine(x, gamma, beta, running_mean, running_var, eps)
    c, f, t = x.shape
    ph, pw = halo
    out_data = np.zeros((c, f + 2 * ph, t + 2 * pw), dtype=x.data.dtype)
    inner = out_data[:, ph:ph + f, pw:pw + t]
    np.multiply(x.data, scale_c[:, None, None], out=inner)
    inner += shift_c[:, None, None]
    np.maximum(inner, 0, out=inner)

    def backward(g):
        g_inner = g[:, ph:ph + f, pw:pw + t] * (inner > 0)
        _eval_affine_backward(g_inner, x, gamma, beta, running_mean, inv_std, scale_c)

    return _make(out_data, (x, gamma, beta), backward)


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
    """Basic (slice/int) indexing only; fancy indexing is not supported."""
    out_data = x.data[key]

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[key] += g
            x._accumulate(gx)

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


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(build_loss, params, step=1e-3, tol=1e-4, rng=None, max_entries=6,
               shrink_retries=0):
    """Compare analytic gradients against central finite differences.

    build_loss rebuilds the graph from scratch and returns the scalar loss
    tensor. params is an iterable of (name, Tensor). For each parameter up
    to max_entries coordinates are probed (all of them when the tensor is
    small). Returns a dict with per-parameter and overall max relative
    error plus a pass flag.

    shrink_retries: for piecewise-smooth graphs (rectifiers), a central
    difference can straddle a kink at any fixed step. A coordinate that
    misses the tolerance is re-probed up to this many times with the step
    shrunk 10x each time, and the best agreement is kept.
    """
    rng = rng or np.random.default_rng(0)
    params = list(params)

    for _, p in params:
        p.zero_grad()
    loss = build_loss()
    loss.backward()
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy()) for name, p in params}

    report = {"per_param": {}, "max_rel_err": 0.0}
    for name, p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= max_entries:
            idxs = np.arange(n)
        else:
            idxs = rng.choice(n, size=max_entries, replace=False)
        worst = 0.0
        for i in idxs:
            v = flat[i]
            a = analytic[name].reshape(-1)[i]
            best = np.inf
            cur = step
            for _ in range(1 + shrink_retries):
                h = cur * max(1.0, abs(v))
                flat[i] = v + h
                lp = build_loss().item()
                flat[i] = v - h
                lm = build_loss().item()
                flat[i] = v
                numeric = (lp - lm) / (2.0 * h)
                denom = max(abs(a), abs(numeric), 1e-8)
                best = min(best, abs(a - numeric) / denom)
                if best < tol:
                    break
                cur /= 10.0
            worst = max(worst, best)
        report["per_param"][name] = worst
        report["max_rel_err"] = max(report["max_rel_err"], worst)
    report["passed"] = report["max_rel_err"] < tol
    report["tol"] = tol
    return report
