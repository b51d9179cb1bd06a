"""The LSTM block in the row layout it had before it worked on (features,
frames) maps: the reduced map is reshaped and transposed to a (frames,
bins) sequence, every affine map takes rows (x @ W.T + b), and the
Linear output is transposed and reshaped back. The oracle of the
layout tests in test_model.py; it reads the parameters of a
layers.BiLSTM and a model.LstmBlock, whose shapes did not change."""

import numpy as np

from stemsep import autodiff as ad


def affine_rows(x, weight, bias):
    """Rows of x (n, d_in) mapped by weight (d_out, d_in) plus bias."""
    out_data = x.data @ weight.data.T + bias.data

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ weight.data)
        if weight.requires_grad:
            weight._accumulate(g.T @ x.data)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0))

    return ad._make(out_data, (x, weight, bias), backward)


def reshape(x, shape):
    def backward(g):
        if x.requires_grad:
            x._accumulate(g.reshape(x.shape))

    return ad._make(x.data.reshape(shape), (x,), backward)


def transpose2d(x):
    def backward(g):
        if x.requires_grad:
            x._accumulate(g.T)

    return ad._make(x.data.T.copy(), (x,), backward)


def _direction_rows(lstm, seq, tag, reverse):
    m = lstm.units
    wx, wh, b = (lstm._params[tag + suffix] for suffix in ("_wx", "_wh", "_b"))
    zx = affine_rows(seq, wx, b)
    h = ad.constant(np.zeros((1, m), dtype=seq.data.dtype))
    c = ad.constant(np.zeros((1, m), dtype=seq.data.dtype))
    outputs = [None] * seq.shape[0]
    steps = range(seq.shape[0] - 1, -1, -1) if reverse else range(seq.shape[0])
    for t in steps:
        z = affine_rows(h, wh, zx[t])
        i = ad.sigmoid(z[:, 0:m])
        f = ad.sigmoid(z[:, m:2 * m])
        g = ad.tanh(z[:, 2 * m:3 * m])
        o = ad.sigmoid(z[:, 3 * m:4 * m])
        c = ad.add(ad.mul(f, c), ad.mul(i, g))
        h = ad.mul(o, ad.tanh(c))
        outputs[t] = h
    return ad.concat(outputs, axis=0)


def bilstm_rows(lstm, seq):
    """A BiLSTM over a (T, d) sequence; returns (T, 2 * units)."""
    fw = _direction_rows(lstm, seq, "fw", reverse=False)
    bw = _direction_rows(lstm, seq, "bw", reverse=True)
    return ad.concat([fw, bw], axis=1)


def lstm_block_rows(block, x):
    """An LstmBlock's forward on a (c, f, t) map; returns (1, f, t)."""
    m = block.reduce(x)
    seq = transpose2d(reshape(m, m.shape[1:]))
    y = affine_rows(bilstm_rows(block.lstm, seq), block.expand.weight, block.expand.bias)
    return reshape(transpose2d(y), (1,) + x.shape[1:])
