"""Parameterized layers built on the autodiff primitives.

A tiny Module system keeps named parameters/buffers in deterministic
order so the optimizer, checkpoints and parameter audits all see the
same flat view.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

DEFAULT_DTYPE = np.float64


class Module:
    """Base class: registers parameters, buffers and child modules.
    Calling a module runs its forward."""

    def __init__(self):
        self._params = {}
        self._buffers = {}
        self._children = {}
        self.training = True

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def add_param(self, name, array):
        self._params[name] = ad.parameter(array)
        return self._params[name]

    def add_buffer(self, name, array):
        self._buffers[name] = np.asarray(array)
        return self._buffers[name]

    def add_child(self, name, module):
        self._children[name] = module
        return module

    def named_params(self, prefix=""):
        for name, p in self._params.items():
            yield prefix + name, p
        for cname, child in self._children.items():
            yield from child.named_params(prefix + cname + ".")

    def modules(self):
        """This module and every module under it, depth first."""
        yield self
        for child in self._children.values():
            yield from child.modules()

    def named_buffers(self, prefix=""):
        for name, b in self._buffers.items():
            yield prefix + name, b
        for cname, child in self._children.items():
            yield from child.named_buffers(prefix + cname + ".")

    def set_training(self, flag):
        self.training = bool(flag)
        for child in self._children.values():
            child.set_training(flag)

    def zero_grad(self):
        for _, p in self.named_params():
            p.zero_grad()

    def astype(self, dtype):
        """Convert parameters and buffers in place (e.g. to float32)."""
        for _, p in self.named_params():
            p.data = p.data.astype(dtype)
        for name, b in list(self._buffers.items()):
            self._buffers[name] = b.astype(dtype)
        for child in self._children.values():
            child.astype(dtype)
        return self


def _uniform_fan_in(rng, shape, fan_in):
    # zero-mean uniform with bound 1/sqrt(fan_in)
    bound = 1.0 / np.sqrt(max(1, fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(DEFAULT_DTYPE)


class Conv2d(Module):
    def __init__(self, c_in, c_out, kh, kw, rng):
        super().__init__()
        self.c_in, self.c_out = c_in, c_out
        self.weight = self.add_param(
            "weight", _uniform_fan_in(rng, (c_out, c_in, kh, kw), c_in * kh * kw)
        )
        self.bias = self.add_param("bias", np.zeros(c_out, dtype=DEFAULT_DTYPE))

    def forward(self, x):
        return ad.conv2d(x, self.weight, self.bias)


class ConvTranspose2x2(Module):
    """Learned stride-2 upsampler (doubles both spatial axes)."""

    def __init__(self, c_in, c_out, rng):
        super().__init__()
        self.c_in, self.c_out = c_in, c_out
        self.weight = self.add_param(
            "weight", _uniform_fan_in(rng, (c_in, c_out, 2, 2), c_in)
        )
        self.bias = self.add_param("bias", np.zeros(c_out, dtype=DEFAULT_DTYPE))

    def forward(self, x):
        return ad.conv_transpose2(x, self.weight, self.bias)


class BatchNorm2d(Module):
    """A dense layer's batch-norm parameters (gamma, beta) and running
    statistics. DenseLayer applies them, with its ReLU and conv, through
    autodiff.batch_norm_relu_conv2d, and in training folds each batch's
    statistics into the running ones (fold).
    """

    momentum = 0.1  # weight of the batch statistics in the running ones

    def __init__(self, channels):
        super().__init__()
        self.gamma = self.add_param("gamma", np.ones(channels, dtype=DEFAULT_DTYPE))
        self.beta = self.add_param("beta", np.zeros(channels, dtype=DEFAULT_DTYPE))
        self.add_buffer("running_mean", np.zeros(channels, dtype=DEFAULT_DTYPE))
        self.add_buffer("running_var", np.ones(channels, dtype=DEFAULT_DTYPE))

    def fold(self, mean, var):
        """running = (1 - momentum) * running + momentum * batch, in place,
        for the running mean and variance. A training replica shadows it
        on its own instances to record the fold for the model's batch norm
        (train._replica)."""
        for name, batch in (("running_mean", mean), ("running_var", var)):
            running = self._buffers[name]
            running *= 1.0 - self.momentum
            running += self.momentum * batch


class Linear(Module):
    def __init__(self, d_in, d_out, rng):
        super().__init__()
        self.weight = self.add_param("weight", _uniform_fan_in(rng, (d_out, d_in), d_in))
        self.bias = self.add_param("bias", np.zeros(d_out, dtype=DEFAULT_DTYPE))

    def forward(self, x):
        return ad.affine(x, self.weight, self.bias)


class BiLSTM(Module):
    """Bidirectional LSTM over a (T, d) sequence; outputs (T, 2*units).

    Gate order in the stacked weights is input, forget, candidate,
    output. Forget-gate biases start at 1, everything else at 0.
    """

    def __init__(self, d_in, units, rng):
        super().__init__()
        self.d_in, self.units = d_in, units
        m = units
        for tag in ("fw", "bw"):
            self.add_param(tag + "_wx", _uniform_fan_in(rng, (4 * m, d_in), d_in))
            self.add_param(tag + "_wh", _uniform_fan_in(rng, (4 * m, m), m))
            bias = np.zeros(4 * m, dtype=DEFAULT_DTYPE)
            bias[m:2 * m] = 1.0
            self.add_param(tag + "_b", bias)

    def _run_direction(self, seq, tag, reverse):
        m = self.units
        T = seq.shape[0]
        wx = self._params[tag + "_wx"]
        wh = self._params[tag + "_wh"]
        b = self._params[tag + "_b"]
        # input projections for all steps at once
        zx = ad.affine(seq, wx, b)
        h = ad.constant(np.zeros((1, m), dtype=seq.data.dtype))
        c = ad.constant(np.zeros((1, m), dtype=seq.data.dtype))
        outputs = [None] * T
        steps = range(T - 1, -1, -1) if reverse else range(T)
        for t in steps:
            z = ad.affine(h, wh, zx[t])  # step t's input projection is the bias
            i = ad.sigmoid(z[:, 0:m])
            f = ad.sigmoid(z[:, m:2 * m])
            g = ad.tanh(z[:, 2 * m:3 * m])
            o = ad.sigmoid(z[:, 3 * m:4 * m])
            c = ad.add(ad.mul(f, c), ad.mul(i, g))
            if not np.all(np.isfinite(c.data)):
                raise ad.NumericError("non-finite LSTM cell state at step %d" % t)
            h = ad.mul(o, ad.tanh(c))
            outputs[t] = h
        return ad.concat(outputs, axis=0)

    def forward(self, seq):
        if seq.ndim != 2 or seq.shape[1] != self.d_in:
            raise ad.ShapeError(
                "BiLSTM: expected (T, %d), got %r" % (self.d_in, seq.shape)
            )
        if seq.shape[0] < 1:
            raise ad.ShapeError("BiLSTM: empty sequence")
        fw = self._run_direction(seq, "fw", reverse=False)
        bw = self._run_direction(seq, "bw", reverse=True)
        return ad.concat([fw, bw], axis=1)
