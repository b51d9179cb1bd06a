import dataclasses
import gc
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from closed_forms import lstm_block_param_count
from gradcheck import tsum
from row_lstm import bilstm_rows, lstm_block_rows, transpose2d
from stemsep import autodiff as ad
from stemsep import model as mdl
from stemsep.arch import (
    ArchSpec,
    BandPlan,
    ScaleSlot,
    canonical_text,
    default_arch,
    reduce_spec,
    toy_arch,
)
from stemsep.layers import BiLSTM
from stemsep.model import BandNet, DenseBlock, LstmBlock, SeparationModel, Slot
from structure import model_wiring, slot_wiring
from threads import one_blas_thread, record_worker_jobs, two_blas_threads

RNG = lambda seed=0: np.random.default_rng(seed)


def make_slot(position, mode, c_in, f, layers=None, growth=3, units=None, seed=0):
    return Slot(ScaleSlot(position, layers, units), mode, c_in, f, growth, RNG(seed))


# ---------------------------------------------------------------------------
# dense block


def test_dense_block_channel_arithmetic():
    blk = DenseBlock(2, 1, 14, RNG())
    assert blk._children["layer0"].conv.c_in == 2
    assert blk.out_channels == 14

    blk = DenseBlock(2, 5, 14, RNG())
    for j in range(5):
        assert blk._children["layer%d" % j].conv.c_in == 2 + j * 14
    assert blk.out_channels == 70

    x = ad.constant(RNG(1).standard_normal((2, 8, 8)))
    assert blk(x).shape == (70, 8, 8)


def dense_block_reference(blk, x):
    """The re-concatenating dense block the channel parts replaced:
    the block input (a map or its channel parts) concatenated, unfused
    BN -> ReLU -> same-padded conv, each layer input a fresh concat of
    the block input and every earlier output, and in training each
    batch's statistics folded into the running ones as DenseLayer does."""
    x = ad.concat([x] if isinstance(x, ad.Tensor) else x, axis=0)
    outputs = []
    state = x
    for j in range(blk.layers):
        layer = blk._children["layer%d" % j]
        bn = layer.bn
        stats = bn._buffers["running_mean"], bn._buffers["running_var"]
        if bn.training:
            h, mean, var = ad.batch_norm_train(state, bn.gamma, bn.beta)
            for running, batch in zip(stats, (mean, var)):
                running *= 1.0 - bn.momentum
                running += bn.momentum * batch
        else:
            h = ad.batch_norm_eval(state, bn.gamma, bn.beta, *stats)
        outputs.append(layer.conv(ad.relu(h)))
        state = ad.concat([x] + outputs, axis=0)
    return ad.concat(outputs, axis=0)


def randomize_running_stats(module, rng):
    for child in module._children.values():
        randomize_running_stats(child, rng)
    if "running_var" in module._buffers:
        c = module._buffers["running_var"].shape
        module._buffers["running_mean"][...] = 0.2 * rng.standard_normal(c)
        module._buffers["running_var"][...] = rng.uniform(0.5, 2.0, c)


def dense_blocks(module):
    for child in module._children.values():
        if isinstance(child, DenseBlock):
            yield child
        yield from dense_blocks(child)


def run_records(module, dtype, training, inputs, run, reference):
    """The records of run() and of reference(), which build the same
    output of the dtype from module's state. From the same running
    statistics, each records its output (first under no_grad too, in
    eval mode), the gradients of every input tensor and parameter for
    the loss sum(y * y), and the running statistics."""
    module.set_training(training)
    start = [b.copy() for _, b in module.named_buffers()]
    leaves = inputs + [p for _, p in module.named_params()]
    records = []
    for build in (run, reference):
        for (_, b), b0 in zip(module.named_buffers(), start):
            b[...] = b0
        for p in leaves:
            p.zero_grad()
        record = []
        if not training:
            with ad.no_grad():
                record.append(build().data.copy())
        y = build()
        assert y.data.dtype == dtype
        tsum(ad.mul(y, y)).backward()
        record += [y.data.copy()] + [p.grad for p in leaves]
        records.append(record + [b.copy() for _, b in module.named_buffers()])
    assert all(g is not None for g in records[0])
    return records


def assert_runs_bitwise_equal(module, dtype, training, inputs, run, reference):
    """run_records of run() and reference() are bitwise equal."""
    got, want = run_records(module, dtype, training, inputs, run, reference)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b, strict=True)


LAYOUT_RTOL = {np.float32: 1e-5, np.float64: 1e-12}  # of each array's peak |value|


def assert_runs_close(module, dtype, training, inputs, run, reference):
    """run_records of run() and reference() agree: outputs and running
    statistics within LAYOUT_RTOL of each reference array's peak, and
    gradients within LAYOUT_RTOL of the largest reference gradient, as
    test_train's GRAD_RTOL, since a gradient whose exact value is 0 (a
    conv bias ahead of a train-mode batch norm) holds only rounding."""
    got, want = run_records(module, dtype, training, inputs, run, reference)
    n_out = 1 if training else 2
    grads = range(n_out, n_out + len(inputs) + len(list(module.named_params())))
    grad_peak = max(np.abs(want[i]).max() for i in grads)
    for i, (a, b) in enumerate(zip(got, want, strict=True)):
        assert a.dtype == b.dtype == dtype
        peak = grad_peak if i in grads else np.abs(b).max()
        np.testing.assert_allclose(a, b, rtol=0, atol=LAYOUT_RTOL[dtype] * peak)


# the channel parts a dense block's 4-channel input is given as
PART_SPLITS = [(4,), (1, 3), (2, 1, 1)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("training", [False, True])
def test_dense_block_matches_concat_reference(dtype, layers, training):
    """A dense block given its input as one map, two parts or three
    (1-channel parts among them), and the toy model in each combination
    mode, against the concat reference: bitwise equal outputs, gradients
    of every parameter and input part, and running statistics, in train
    mode, in eval mode with grad on and under no_grad."""
    blk = DenseBlock(4, layers, 4, RNG(40)).astype(dtype)
    randomize_running_stats(blk, RNG(41))
    x = RNG(42).standard_normal((4, 6, 10)).astype(dtype)
    for split in PART_SPLITS:
        ends = np.cumsum(split)
        parts = [ad.parameter(x[e - n:e]) for n, e in zip(split, ends)]
        given = parts if len(parts) > 1 else parts[0]
        assert_runs_bitwise_equal(blk, dtype, training, parts, lambda: blk(given),
                                  lambda: dense_block_reference(blk, parts))

    for mode in ("Sa", "Sb", "P"):
        m = SeparationModel(dataclasses.replace(toy_arch(), mode=mode), seed=43).astype(dtype)
        randomize_running_stats(m, RNG(44))
        mag = np.abs(RNG(45).standard_normal((2, m.spec.num_bins, 12)))

        def reference():
            blocks = list(dense_blocks(m))
            for block in blocks:
                block.forward = lambda v, block=block: dense_block_reference(block, v)
            try:
                return m.forward(mag)
            finally:
                for block in blocks:
                    del block.forward

        assert_runs_bitwise_equal(m, dtype, training, [], lambda: m.forward(mag), reference)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["Sa", "Sb", "P"])
def test_row_threads_forward_matches_sequential_bitwise(monkeypatch, mode, dtype):
    """The toy model's no-grad eval forward inside row_threads, with a
    tile small enough that most convs take several row blocks, is
    bitwise the sequential forward at one BLAS thread."""
    monkeypatch.setattr(ad, "CONV_TILE_BYTES", 4 << 10)
    m = SeparationModel(dataclasses.replace(toy_arch(), mode=mode), seed=46).astype(dtype)
    randomize_running_stats(m, RNG(47))
    m.set_training(False)
    mag = np.abs(RNG(48).standard_normal((2, m.spec.num_bins, 12))).astype(dtype)
    with two_blas_threads(monkeypatch) as blas:
        jobs = record_worker_jobs(monkeypatch)
        with ad.no_grad():
            with one_blas_thread(blas):
                want = m.forward(mag).data
            with ad.row_threads():
                got = m.forward(mag).data
    assert len(jobs) > 10
    np.testing.assert_array_equal(got, want, strict=True)


def test_eval_dense_layer_never_builds_its_halo_map(monkeypatch):
    """A no-grad eval DenseLayer forward allocates less, at its peak, than
    the zero-bordered BN+ReLU map of its input, which it never builds
    whole. The tile size is set so that the forward takes many blocks."""
    monkeypatch.setattr(ad, "CONV_TILE_BYTES", 64 << 10, raising=False)
    layer = mdl.DenseLayer(16, 4, RNG(43))
    randomize_running_stats(layer, RNG(44))
    layer.set_training(False)
    x = ad.constant(RNG(45).standard_normal((16, 64, 64)))
    halo_bytes = 16 * 66 * 66 * x.data.itemsize
    tracemalloc.start()
    try:
        with ad.no_grad():
            y = layer(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.shape == (4, 64, 64)
    assert peak < halo_bytes, (peak, halo_bytes)


def test_train_dense_layer_graph_keeps_no_full_size_map():
    """The graph of a train-mode DenseLayer forward keeps no full-size
    map: the memory still held after it (the output and what the graph
    keeps) is below the size of the input map, since the backward
    recomputes the BN+ReLU map and xhat from the input."""
    layer = mdl.DenseLayer(16, 4, RNG(46))
    x = ad.parameter(RNG(47).standard_normal((16, 64, 64)))
    tracemalloc.start()
    try:
        y = layer(x)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.requires_grad and y.shape == (4, 64, 64)
    assert held < x.data.nbytes, (held, x.data.nbytes)


def test_dense_block_degenerate_passthrough():
    blk = DenseBlock(5, 0, 14, RNG())
    x = ad.constant(RNG(2).standard_normal((5, 4, 4)))
    assert blk(x) is x
    assert blk.out_channels == 5
    assert mdl.count_params(blk)[0] == 0


# ---------------------------------------------------------------------------
# LSTM block


def test_lstm_block_param_count_matches_closed_form():
    blk = LstmBlock(4, 16, 8, RNG())
    assert mdl.count_params(blk)[0] == lstm_block_param_count(4, 16, 8) == 1877


def test_lstm_block_zero_weights_zero_map_and_shape():
    blk = LstmBlock(3, 8, 4, RNG())
    for _, p in blk.named_params():
        p.data[...] = 0.0
    for t in (1, 5, 11):
        x = ad.constant(RNG(3).standard_normal((3, 8, t)))
        out = blk(x)
        assert out.shape == (1, 8, t)
        np.testing.assert_allclose(out.data, 0.0)


def test_lstm_block_rejects_a_map_of_another_height():
    blk = LstmBlock(3, 8, 4, RNG())
    with pytest.raises(ad.ShapeError, match=r"BiLSTM: expected \(8, T\), got \(7, 5\)"):
        blk(ad.constant(RNG(3).standard_normal((3, 7, 5))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("training", [False, True])
def test_lstm_layers_match_the_row_layout_oracle(dtype, training):
    """A BiLSTM on a (features, frames) map, and an LstmBlock, against
    the row layout they had (row_lstm): outputs, and the gradients of
    every parameter and of the input (assert_runs_close)."""
    lstm = BiLSTM(5, 4, RNG(50)).astype(dtype)
    x = ad.parameter(RNG(51).standard_normal((5, 9)).astype(dtype))
    assert_runs_close(lstm, dtype, training, [x], lambda: lstm(x),
                      lambda: transpose2d(bilstm_rows(lstm, transpose2d(x))))
    blk = LstmBlock(3, 8, 4, RNG(52)).astype(dtype)
    x = ad.parameter(RNG(53).standard_normal((3, 8, 6)).astype(dtype))
    assert_runs_close(blk, dtype, training, [x], lambda: blk(x),
                      lambda: lstm_block_rows(blk, x))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["Sa", "Sb", "P"])
@pytest.mark.parametrize("training", [False, True])
def test_toy_model_matches_the_row_layout_lstm_oracle(dtype, mode, training):
    """The toy model against itself with its LSTM blocks in the row
    layout (row_lstm): a train-mode forward and backward, and an eval
    forward with grad on and under no_grad: outputs, gradients and
    running statistics (assert_runs_close)."""
    m = SeparationModel(dataclasses.replace(toy_arch(), mode=mode), seed=54).astype(dtype)
    randomize_running_stats(m, RNG(55))
    mag = np.abs(RNG(56).standard_normal((2, m.spec.num_bins, 12))).astype(dtype)
    blocks = [b for b in m.modules() if isinstance(b, LstmBlock)]
    assert blocks

    def reference():
        for block in blocks:
            block.forward = lambda v, block=block: lstm_block_rows(block, v)
        try:
            return m.forward(mag)
        finally:
            for block in blocks:
                del block.forward

    assert_runs_close(m, dtype, training, [], lambda: m.forward(mag), reference)


def test_sa_slot_concat_leaves_other_channels_untouched():
    slot = make_slot("d1", "Sa", 2, 8, layers=2, units=4)
    for _, p in slot.lstm.named_params():
        p.data[...] = 0.0
    x = ad.constant(RNG(4).standard_normal((2, 8, 6)))
    out = slot(x)
    dense_only = slot.dense(x)
    assert out.shape[0] == dense_only.shape[0] + 1
    np.testing.assert_array_equal(out.data[:-1], dense_only.data)
    np.testing.assert_allclose(out.data[-1], 0.0)


# ---------------------------------------------------------------------------
# slot composition modes


def test_sa_without_lstm_is_dense_only():
    slot = make_slot("d1", "Sa", 2, 8, layers=2)
    assert slot_wiring(slot) == "dense(l=2,k=3)"
    assert slot.out_channels == 6
    assert slot.lstm_channel is None


def test_p_mode_output_channels():
    slot = make_slot("d1", "P", 2, 8, layers=2, units=4)
    assert slot.out_channels == 7  # dense 6 + lstm map
    assert slot_wiring(slot) == "parallel[dense(l=2,k=3)|lstm(m=4)]"
    x = ad.constant(RNG(5).standard_normal((2, 8, 4)))
    assert slot(x).shape == (7, 8, 4)


def test_sb_lstm_only_slot():
    # mirrors the band-3 bottleneck row: LSTM units, no dense layers
    slot = make_slot("d3", "Sb", 4, 8, units=8)
    assert slot.out_channels == 5
    x = ad.constant(RNG(6).standard_normal((4, 8, 4)))
    out = slot(x)
    assert out.shape == (5, 8, 4)
    np.testing.assert_array_equal(out.data[:4], x.data)


def test_sb_dense_consumes_lstm_map():
    slot = make_slot("d1", "Sb", 2, 8, layers=2, units=4)
    assert slot_wiring(slot) == "lstm(m=4)->dense(l=2,k=3)"
    assert slot.dense.c_in == 3
    assert slot.out_channels == 6


def test_mode_wiring_structural_diff():
    wirings = {}
    for mode in ("Sa", "Sb", "P"):
        m = SeparationModel(dataclasses.replace(toy_arch(), mode=mode), seed=7)
        wirings[mode] = model_wiring(m)
    # LSTM-free slots agree everywhere; LSTM-bearing slots differ as documented
    assert wirings["Sa"]["1"]["d1"] == wirings["Sb"]["1"]["d1"] == wirings["P"]["1"]["d1"]
    assert wirings["Sa"]["1"]["d2"] == "dense(l=2,k=3)->lstm(m=4)"
    assert wirings["Sb"]["1"]["d2"] == "lstm(m=4)->dense(l=2,k=3)"
    assert wirings["P"]["1"]["d2"] == "parallel[dense(l=2,k=3)|lstm(m=4)]"


@pytest.mark.parametrize("mode", ["Sa", "Sb", "P"])
def test_all_modes_build_and_differentiate(mode):
    spec = dataclasses.replace(toy_arch(), mode=mode)
    m = SeparationModel(spec, seed=8)
    x = np.abs(RNG(8).standard_normal((2, spec.num_bins, 4)))
    target = np.abs(RNG(9).standard_normal((2, spec.num_bins, 4)))

    def build():
        pred = m.forward(x)
        diff = ad.sub(pred, ad.constant(target.astype(pred.data.dtype)))
        return ad.tmean(ad.mul(diff, diff))

    loss = build()
    loss.backward()
    grads = [p.grad for _, p in m.named_params() if p.grad is not None]
    assert grads and all(np.all(np.isfinite(g)) for g in grads)


# ---------------------------------------------------------------------------
# band net topology


def toy_band_plan():
    return BandPlan("t", 3, (
        ScaleSlot("d1", 2),
        ScaleSlot("d2", 2),
        ScaleSlot("d3", 2),
        ScaleSlot("u2", 2),
        ScaleSlot("u1", 2),
    ))


def test_band_net_three_scale_topology_and_shape():
    plan = toy_band_plan()
    net = BandNet(plan, "Sa", 2, 64, RNG(10))
    # two inter-block skip connections: u2 and u1 inputs both concatenate
    # the same-scale down-path output
    assert net._children["u2"].c_in == net._children["up2"].c_out + net.down_channels[1]
    assert net._children["u1"].c_in == net._children["up1"].c_out + net.down_channels[0]
    x = ad.constant(RNG(11).standard_normal((2, 64, 64)))
    out = net(x)
    assert out.shape[1:] == (64, 64)


def test_band_net_rejects_wrong_bins():
    net = BandNet(toy_band_plan(), "Sa", 2, 64, RNG(12))
    with pytest.raises(ad.ShapeError):
        net(ad.constant(np.zeros((2, 60, 8))))


# ---------------------------------------------------------------------------
# full model


def pad_axis_reference(x, axis, target):
    """The loop _pad_axis replaced: reflect at most size - 1 samples at a
    time, and repeat a single sample."""
    need = target - x.shape[axis]
    while need > 0:
        size = x.shape[axis]
        width = [(0, 0)] * x.ndim
        if size == 1:
            width[axis] = (0, need)
            return np.pad(x, width, mode="edge")
        step = min(need, size - 1)
        width[axis] = (0, step)
        x = np.pad(x, width, mode="reflect")
        need -= step
    return x


def test_pad_axis_matches_reflect_loop():
    rng = RNG(32)
    for size in range(1, 12):
        for axis in range(3):
            shape = [3, 4, 5]
            shape[axis] = size
            x = rng.standard_normal(shape)
            assert mdl._pad_axis(x, axis, size) is x
            for need in range(40):
                np.testing.assert_array_equal(mdl._pad_axis(x, axis, size + need),
                                              pad_axis_reference(x, axis, size + need))


def test_forward_shape_round_trip_various_lengths():
    spec = toy_arch()
    m = SeparationModel(spec, seed=13)
    m.set_training(False)
    rng = RNG(14)
    for t in (1, 7, 64, 100):
        x = np.abs(rng.standard_normal((2, spec.num_bins, t)))
        with ad.no_grad():
            y = m.forward(x)
        assert y.shape == (2, spec.num_bins, t)
        assert np.all(y.data >= 0)


def test_forward_rejects_bad_input():
    spec = toy_arch()
    m = SeparationModel(spec, seed=15)
    with pytest.raises(ad.ShapeError):
        m.forward(np.zeros((2, 50, 4)))
    bad = np.zeros((2, spec.num_bins, 4))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ad.NumericError):
        m.forward(bad)


def test_forward_raises_on_nan_running_var():
    # ReLU used to map the NaN to 0, and forward returned finite output
    spec = toy_arch()
    m = SeparationModel(spec, seed=15)
    m.set_training(False)
    bn = m._children["band1"]._children["d1"].dense._children["layer1"].bn
    bn._buffers["running_var"][0] = np.nan
    x = np.abs(RNG(16).standard_normal((2, spec.num_bins, 8)))
    with ad.no_grad():
        with pytest.raises(ad.NumericError, match="conv2d"):
            m.forward(x)


def test_forward_deterministic_in_eval_mode():
    spec = toy_arch()
    m = SeparationModel(spec, seed=16)
    m.set_training(False)
    x = np.abs(RNG(17).standard_normal((2, spec.num_bins, 9)))
    with ad.no_grad():
        a = m.forward(x).data
        b = m.forward(x).data
    np.testing.assert_array_equal(a, b)


def shadow_forward(module, record):
    """Shadow module's forward on this instance, as feature_map_norms
    does: record(x, y) sees each call's input and output."""
    forward = module.forward

    def shadowed(x):
        y = forward(x)
        record(x, y)
        return y

    module.forward = shadowed


def allocation(a):
    """The array that owns a's memory."""
    while a.base is not None:
        a = a.base
    return a


def test_up_slot_reads_its_skip_in_place():
    """The full band's u1 gets the upsampled map and d1's output as two
    channel parts, the second d1's output itself; its dense block's
    buffer holds exactly layers * growth channels, its outputs."""
    spec = toy_arch()
    m = SeparationModel(spec, seed=23)
    m.set_training(False)
    net = m.full_net
    d1, u1 = net._children["d1"], net._children["u1"]
    seen = {}
    shadow_forward(d1, lambda x, y: seen.update(d1=y))
    shadow_forward(u1, lambda x, y: seen.update(u1_in=x))
    shadow_forward(u1.dense, lambda x, y: seen.update(u1_out=y))
    x = np.abs(RNG(24).standard_normal((2, spec.num_bins, 8)))
    with ad.no_grad():
        m.forward(x)
    up, skip = seen["u1_in"]
    assert skip is seen["d1"]
    assert up.shape[0] == net._children["up1"].c_out
    buf = allocation(seen["u1_out"].data)
    assert buf.shape == (u1.dense.layers * u1.dense.growth,) + skip.shape[1:]
    assert not np.shares_memory(buf, skip.data) and not np.shares_memory(buf, up.data)


def test_final_block_reads_its_parts_in_place():
    """The final block gets the merged band outputs and the full band's
    output as two channel parts, the second a view of the full band's
    last output buffer; its buffer holds exactly layers * growth
    channels, which the head conv reads."""
    spec = toy_arch()
    m = SeparationModel(spec, seed=21)
    m.set_training(False)
    seen = {}
    shadow_forward(m.full_net, lambda x, y: seen.update(full=y))
    shadow_forward(m.final, lambda x, y: seen.update(final_in=x, final_out=y))
    x = np.abs(RNG(22).standard_normal((2, spec.num_bins, 8)))
    with ad.no_grad():
        m.forward(x)
    merged, yf = seen["final_in"]
    assert merged.shape == (spec.merge_channels, spec.num_bins, 8)
    assert yf.shape == (m.full_net.out_channels, spec.num_bins, 8)
    assert np.shares_memory(yf.data, seen["full"].data)
    buf = allocation(seen["final_out"].data)
    assert buf.shape == (spec.final_layers * spec.final_growth,) + yf.shape[1:]


def test_default_inference_forward_peak_memory():
    """A default-spec fp32 forward under no_grad at 256 frames allocates
    at most 212 MiB at its peak (tracemalloc): the dense blocks read
    their input parts in place and the 1x1 convs their rows. Copying
    the skips and each block input into its buffer peaked at 265.5 MiB."""
    spec = default_arch()
    m = SeparationModel(spec, seed=0).astype(np.float32)
    m.set_training(False)
    x = np.abs(RNG(25).standard_normal((2, spec.num_bins, 256))).astype(np.float32)
    tracemalloc.start()
    try:
        with ad.no_grad():
            y = m.forward(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.shape == x.shape
    assert peak <= 212 << 20, peak / 2**20


def test_forward_is_nonlinear_in_magnitude():
    spec = toy_arch()
    m = SeparationModel(spec, seed=18)
    m.set_training(False)
    x = np.abs(RNG(19).standard_normal((2, spec.num_bins, 8)))
    with ad.no_grad():
        y1 = m.forward(x).data
        y2 = m.forward(2.0 * x).data
    assert not np.allclose(y2, 2.0 * y1, rtol=1e-3)


def test_param_count_independent_of_input_length():
    spec = toy_arch()
    m = SeparationModel(spec, seed=20)
    total0, items0 = mdl.count_params(m)
    with ad.no_grad():
        m.forward(np.abs(RNG(21).standard_normal((2, spec.num_bins, 3))))
        m.forward(np.abs(RNG(21).standard_normal((2, spec.num_bins, 17))))
    total1, items1 = mdl.count_params(m)
    assert total0 == total1 and items0 == items1
    assert total0 == sum(items0.values()) == sum(p.size for _, p in m.named_params())


def test_single_conv_param_count():
    conv = mdl.Conv2d(2, 14, 3, 3, RNG(22))
    assert mdl.count_params(conv)[0] == 2 * 14 * 9 + 14 == 266


def test_lstm_module_totals_match_closed_form():
    spec = toy_arch()
    m = SeparationModel(spec, seed=23)
    actual = 0
    expected = 0
    for name, p in m.named_params():
        if ".lstm." in name:
            actual += p.size
    for plan, net in [(b, m._children["band%s" % b.name]) for b in spec.bands] + [
        (spec.full_band, m.full_net)
    ]:
        for slot_spec in plan.slots:
            if slot_spec.units is None:
                continue
            slot = net._children[slot_spec.position]
            f_s = net.freq_bins // (2 ** (slot_spec.scale - 1))
            expected += lstm_block_param_count(
                slot.lstm.reduce.c_in, f_s, slot_spec.units
            )
    assert actual == expected > 0


def test_train_backward_keeps_only_the_parameter_gradients():
    """Once a train-mode backward on the toy model returns, the memory it
    left is the parameter gradients plus a small margin for array
    headers: the sweep dropped every intermediate gradient, backward
    closure and saved activation."""
    from stemsep.train import mse_loss

    spec = toy_arch()
    m = SeparationModel(spec, seed=31)
    grad_bytes = sum(p.data.nbytes for _, p in m.named_params())
    x, target = np.abs(RNG(32).standard_normal((2, 2, spec.num_bins, 16)))
    tracemalloc.start()
    try:
        loss = mse_loss(m.forward(x), ad.constant(target))
        graph = tracemalloc.get_traced_memory()[0]
        loss.backward()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for _, p in m.named_params())
    assert graph > 20 * grad_bytes
    assert held < 2 * grad_bytes, (held, grad_bytes)


# ---------------------------------------------------------------------------
# feature map norms


def test_feature_map_norms_zero_input():
    spec = toy_arch()
    m = SeparationModel(spec, seed=24)
    m.set_training(False)
    x = np.zeros((2, spec.num_bins, 8))
    norms, lstm_channel = mdl.feature_map_norms(m, "1/d2".replace("1/", "band1/"),
                                                lambda: m.forward(x))
    np.testing.assert_allclose(norms, 0.0, atol=1e-12)
    assert lstm_channel == len(norms) - 1  # Sa puts the LSTM map last


def test_feature_map_norms_rms_convention_and_oracle():
    spec = toy_arch()
    m = SeparationModel(spec, seed=25)
    m.set_training(False)
    x = np.abs(RNG(26).standard_normal((2, spec.num_bins, 8)))
    norms, _ = mdl.feature_map_norms(m, "band1/d1", lambda: m.forward(x))
    # oracle: band1's stem and d1 slot run by hand on the band's input
    # slice, which needs no padding in either axis here
    net = m._children["band1"]
    lo, hi = spec.band_layout().ranges[0]
    assert (hi - lo, x.shape[2] % spec.time_pad_multiple) == (net.freq_bins, 0)
    with ad.no_grad():
        act = net._children["d1"](net.stem(ad.constant(x[:, lo:hi, :]))).data
    for c in range(act.shape[0]):
        expected = np.sqrt(np.mean(act[c] ** 2))
        assert abs(norms[c] - expected) < 1e-12
    # a constant-one map has RMS norm exactly 1 under this convention
    assert abs(np.sqrt(np.mean(np.ones((5, 7)) ** 2)) - 1.0) == 0.0


def test_feature_map_norms_unknown_slot():
    spec = toy_arch()
    m = SeparationModel(spec, seed=27)
    with pytest.raises(KeyError):
        mdl.feature_map_norms(m, "band9/d1", lambda: m.forward(np.zeros((2, spec.num_bins, 4))))


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    spec = toy_arch()
    m = SeparationModel(spec, seed=28)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    mdl.save_checkpoint(p1, m)
    m2 = SeparationModel(spec, seed=999)  # different init
    mdl.load_checkpoint(p1, m2)
    mdl.save_checkpoint(p2, m2)
    assert p1.read_bytes() == p2.read_bytes()
    for (n1, a), (n2, b) in zip(m.named_params(), m2.named_params()):
        assert n1 == n2
        np.testing.assert_array_equal(a.data, b.data)


def test_checkpoint_rejects_wrong_arch(tmp_path):
    m = SeparationModel(toy_arch(), seed=29)
    path = tmp_path / "m.ckpt"
    mdl.save_checkpoint(path, m)
    other_spec = toy_arch(fft_size=128)
    other = SeparationModel(other_spec, seed=29)
    with pytest.raises(mdl.CheckpointError):
        mdl.load_checkpoint(path, other)


def _edit_checkpoint_header(path, edit):
    header, payload_start = mdl.read_checkpoint_header(path)
    payload = path.read_bytes()[payload_start:]
    edit(header)
    hdr = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(mdl.CHECKPOINT_MAGIC + len(hdr).to_bytes(8, "little") + hdr + payload)


def _edit_checkpoint_entry(path, entry_name, changes):
    """Update the named entry with `changes`, or drop it if they are None."""
    def edit(header):
        (entry,) = [e for e in header["entries"] if e["name"] == entry_name]
        if changes is None:
            header["entries"].remove(entry)
        else:
            entry.update(changes)

    _edit_checkpoint_header(path, edit)


# (entry, changes, message) of a checkpoint that must not load
BAD_ENTRIES = pytest.mark.parametrize("entry,changes,message", [
    ("band1.d1.dense.layer0.bn.running_mean",
     {"name": "band1.d1.dense.layer0.bn.running_nope"}, "unknown buffer"),
    ("band1.d1.dense.layer0.bn.running_mean", {"shape": [1, 3]}, "shape mismatch"),
    ("head.weight", None, "checkpoint lacks param 'head.weight'$"),
    ("band1.d1.dense.layer0.bn.running_var", None,
     "checkpoint lacks buffer 'band1.d1.dense.layer0.bn.running_var'$"),
], ids=["unknown-name", "wrong-shape", "missing-param", "missing-buffer"])


@BAD_ENTRIES
def test_checkpoint_checks_buffers_like_params(tmp_path, entry, changes, message):
    path = tmp_path / "m.ckpt"
    mdl.save_checkpoint(path, SeparationModel(toy_arch(), seed=32))
    _edit_checkpoint_entry(path, entry, changes)
    with pytest.raises(mdl.CheckpointError, match=message):
        mdl.load_checkpoint_model(path)


@BAD_ENTRIES
def test_failed_checkpoint_load_leaves_model_unchanged(tmp_path, entry, changes, message):
    path = tmp_path / "m.ckpt"
    mdl.save_checkpoint(path, SeparationModel(toy_arch(), seed=32))
    _edit_checkpoint_entry(path, entry, changes)
    m = SeparationModel(toy_arch(), seed=2)
    with pytest.raises(mdl.CheckpointError, match=message):
        mdl.load_checkpoint(path, m)
    fresh = SeparationModel(toy_arch(), seed=2)
    _assert_same_params(m, fresh)
    for (n1, a), (n2, b) in zip(m.named_buffers(), fresh.named_buffers()):
        assert n1 == n2
        np.testing.assert_array_equal(a, b)


def test_checkpoint_names_every_missing_entry(tmp_path):
    path = tmp_path / "m.ckpt"
    mdl.save_checkpoint(path, SeparationModel(toy_arch(), seed=32))
    _edit_checkpoint_header(path, lambda header: header["entries"].clear())
    with pytest.raises(mdl.CheckpointError) as info:
        mdl.load_checkpoint_model(path)
    m = SeparationModel(toy_arch())
    names = [("param", n) for n, _ in m.named_params()]
    names += [("buffer", n) for n, _ in m.named_buffers()]
    assert str(info.value).endswith(", ".join("%s %r" % kn for kn in names))


def _assert_same_params(m, m2):
    for (n1, a), (n2, b) in zip(m.named_params(), m2.named_params()):
        assert n1 == n2
        np.testing.assert_array_equal(a.data, b.data)


def _toy_spec_built_in_code():
    slots = (ScaleSlot("d1", 1), ScaleSlot("d2", 1, 2), ScaleSlot("u1", 1))
    return ArchSpec(bands=(BandPlan("1", 2, slots), BandPlan("2", 3, slots[:1])),
                    full_band=BandPlan("full", 2, slots), mode="Sb", final_layers=1,
                    final_growth=2, fft_size=64, sample_rate=8000, band_edges_hz=(1000,),
                    merge_channels=2)


@pytest.mark.parametrize("make_spec", [
    lambda: dataclasses.replace(toy_arch(), mode="P"), _toy_spec_built_in_code,
], ids=["replaced", "built-in-code"])
def test_checkpoint_of_a_spec_not_parsed_from_text_loads(tmp_path, make_spec):
    spec = make_spec()
    m = SeparationModel(spec, seed=33)
    path = tmp_path / "m.ckpt"
    mdl.save_checkpoint(path, m)
    m2 = mdl.load_checkpoint_model(path)
    assert m2.spec == spec
    assert mdl.read_checkpoint_header(path)[0]["arch_text"] == canonical_text(spec)
    _assert_same_params(m, m2)


def test_checkpoint_with_commented_config_text_loads(tmp_path):
    # earlier checkpoints embed the config file's text, comments included
    import importlib.resources

    shipped = importlib.resources.files("stemsep").joinpath("configs/full44k.cfg").read_text()
    assert "#" in shipped
    m = SeparationModel(default_arch(), seed=34)
    path = tmp_path / "m.ckpt"
    mdl.save_checkpoint(path, m)

    def set_text(header):
        header["arch_text"] = shipped

    _edit_checkpoint_header(path, set_text)
    m2 = mdl.load_checkpoint_model(path)
    assert m2.spec == default_arch()
    _assert_same_params(m, m2)


# spec -> (content_hash, sha256 of the (name, shape) layout of parameters
# then buffers, count_params); a change here orphans existing checkpoints
PINNED_LAYOUTS = {
    "default": ("795ef9e5449e37a0af9ffd19114e326e4806a1aa90233436a8f8af4bcba413ab",
                "a664eebaed80e331d646d67740817f4564bd9bf253dfa43b6dea1493a7c6e8ea",
                3320411),
    "toy": ("3204276e62cb45f33cbf49f413de032a6244bff579450876b286b06454de1b75",
            "3718d5381af475dc8ff952fa87fa96a583ebf25d68346db63b00de9890fdcced",
            7775),
    "reduced2": ("58d01b55159b29ac302e1cf180b3259e387c1a4bce5703a4f2ed216b28c4afca",
                 "38328cacbbea0ad60df4e2027bea7e3bac9b99fc8a84ab61cbbd7e7a9cbc0e01",
                 649793),
}


@pytest.mark.parametrize("name", sorted(PINNED_LAYOUTS))
def test_checkpoint_layout_is_pinned(name):
    spec = {"default": default_arch, "toy": toy_arch,
            "reduced2": lambda: reduce_spec(reduce_spec(default_arch()))}[name]()
    m = SeparationModel(spec)
    layout = json.dumps([[n, list(p.shape)] for n, p in m.named_params()]
                        + [[n, list(b.shape)] for n, b in m.named_buffers()])
    got = (spec.content_hash(), hashlib.sha256(layout.encode()).hexdigest(),
           mdl.count_params(m)[0])
    assert got == PINNED_LAYOUTS[name]


def test_checkpoint_model_reconstruction(tmp_path):
    spec = toy_arch()
    m = SeparationModel(spec, seed=30)
    m.set_training(False)
    path = tmp_path / "m.ckpt"
    mdl.save_checkpoint(path, m)
    m2 = mdl.load_checkpoint_model(path)
    m2.set_training(False)
    x = np.abs(RNG(31).standard_normal((2, spec.num_bins, 5)))
    with ad.no_grad():
        np.testing.assert_array_equal(m.forward(x).data, m2.forward(x).data)
