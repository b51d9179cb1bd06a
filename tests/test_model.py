import numpy as np
import pytest

from stemsep import autodiff as ad
from stemsep import model as mdl
from stemsep.arch import (
    ArchSpec,
    BandPlan,
    DenseBlockSpec,
    LstmBlockSpec,
    ScaleSlot,
    canonical_text,
    default_arch,
    lstm_block_param_count,
    toy_arch,
)
from stemsep.model import BandNet, DenseBlock, LstmBlock, SeparationModel, Slot

RNG = lambda seed=0: np.random.default_rng(seed)


def make_slot(position, mode, c_in, f, layers=None, growth=3, units=None, seed=0):
    spec_slot = ScaleSlot(
        position,
        DenseBlockSpec(layers, growth) if layers is not None else None,
        LstmBlockSpec(units) if units is not None else None,
    )
    return Slot(spec_slot, mode, c_in, f, RNG(seed))


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
    """The re-concatenating dense block the channel buffer replaced:
    unfused BN -> ReLU -> same-padded conv, and each layer input a fresh
    concat of the block input and every earlier output."""
    outputs = []
    state = x
    for j in range(blk.layers):
        layer = blk._children["layer%d" % j]
        outputs.append(layer.conv(ad.relu(layer.bn(state))))
        state = ad.concat([x] + outputs, axis=0)
    return ad.concat(outputs, axis=0)


def randomize_running_stats(module, rng):
    for child in module._children.values():
        randomize_running_stats(child, rng)
    if "running_var" in module._buffers:
        c = module._buffers["running_var"].shape
        module._buffers["running_mean"][...] = 0.2 * rng.standard_normal(c)
        module._buffers["running_var"][...] = rng.uniform(0.5, 2.0, c)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("training", [False, True])
def test_dense_block_matches_concat_reference(dtype, layers, training):
    blk = DenseBlock(2, layers, 4, RNG(40)).astype(dtype)
    randomize_running_stats(blk, RNG(41))
    blk.set_training(training)
    x = ad.parameter(RNG(42).standard_normal((2, 6, 10)).astype(dtype))
    params = [x] + [p for _, p in blk.named_params()]

    if not training:
        with ad.no_grad():
            np.testing.assert_array_equal(blk(x).data, dense_block_reference(blk, x).data)

    grads = []
    for run in (blk, lambda v: dense_block_reference(blk, v)):
        for p in params:
            p.zero_grad()
        y = run(x)
        ad.tsum(ad.mul(y, y)).backward()
        grads.append((y.data.copy(), [p.grad for p in params]))
    (y_new, g_new), (y_ref, g_ref) = grads
    assert y_new.dtype == dtype
    np.testing.assert_array_equal(y_new, y_ref)
    for a, b in zip(g_new, g_ref):
        np.testing.assert_array_equal(a, b)


def test_dense_block_degenerate_passthrough():
    blk = DenseBlock(5, 0, 14, RNG())
    x = ad.constant(RNG(2).standard_normal((5, 4, 4)))
    assert blk(x) is x
    assert blk.out_channels == 5
    assert blk.num_params() == 0


# ---------------------------------------------------------------------------
# LSTM block


def test_lstm_block_param_count_matches_closed_form():
    blk = LstmBlock(4, 16, 8, RNG())
    assert blk.num_params() == lstm_block_param_count(4, 16, 8) == 1877


def test_lstm_block_zero_weights_zero_map_and_shape():
    blk = LstmBlock(3, 8, 4, RNG())
    for _, p in blk.named_params():
        p.data[...] = 0.0
    for t in (1, 5, 11):
        x = ad.constant(RNG(3).standard_normal((3, 8, t)))
        out = blk(x)
        assert out.shape == (1, 8, t)
        np.testing.assert_allclose(out.data, 0.0)


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
    assert slot.wiring() == "dense(l=2,k=3)"
    assert slot.out_channels == 6
    assert slot.lstm_channel is None


def test_p_mode_output_channels():
    slot = make_slot("d1", "P", 2, 8, layers=2, units=4)
    assert slot.out_channels == 7  # dense 6 + lstm map
    assert slot.wiring() == "parallel[dense(l=2,k=3)|lstm(m=4)]"
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
    assert slot.wiring() == "lstm(m=4)->dense(l=2,k=3)"
    assert slot.dense.c_in == 3
    assert slot.out_channels == 6


def test_mode_wiring_structural_diff():
    wirings = {}
    for mode in ("Sa", "Sb", "P"):
        spec = toy_arch()
        spec = type(spec)(**{**spec.__dict__, "mode": mode, "source_text": ""})
        m = SeparationModel(spec, seed=7)
        wirings[mode] = m.wiring()
    # LSTM-free slots agree everywhere; LSTM-bearing slots differ as documented
    assert wirings["Sa"]["1"]["d1"] == wirings["Sb"]["1"]["d1"] == wirings["P"]["1"]["d1"]
    assert wirings["Sa"]["1"]["d2"] == "dense(l=2,k=3)->lstm(m=4)"
    assert wirings["Sb"]["1"]["d2"] == "lstm(m=4)->dense(l=2,k=3)"
    assert wirings["P"]["1"]["d2"] == "parallel[dense(l=2,k=3)|lstm(m=4)]"


@pytest.mark.parametrize("mode", ["Sa", "Sb", "P"])
def test_all_modes_build_and_differentiate(mode):
    spec = toy_arch()
    spec = type(spec)(**{**spec.__dict__, "mode": mode, "source_text": ""})
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
        ScaleSlot("d1", DenseBlockSpec(2, 3)),
        ScaleSlot("d2", DenseBlockSpec(2, 3)),
        ScaleSlot("d3", DenseBlockSpec(2, 3)),
        ScaleSlot("u2", DenseBlockSpec(2, 3)),
        ScaleSlot("u1", DenseBlockSpec(2, 3)),
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
    assert total0 == sum(items0.values()) == m.num_params()


def test_single_conv_param_count():
    conv = mdl.Conv2d(2, 14, 3, 3, RNG(22))
    assert conv.num_params() == 2 * 14 * 9 + 14 == 266


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
            if slot_spec.lstm is None:
                continue
            slot = net._children[slot_spec.position]
            f_s = net.freq_bins // (2 ** (slot_spec.scale - 1))
            expected += lstm_block_param_count(
                slot.lstm.reduce.c_in, f_s, slot_spec.lstm.units
            )
    assert actual == expected > 0


# ---------------------------------------------------------------------------
# feature map norms


def test_feature_map_norms_zero_input():
    spec = toy_arch()
    m = SeparationModel(spec, seed=24)
    m.set_training(False)
    x = np.zeros((2, spec.num_bins, 8))
    norms, lstm_channel = mdl.feature_map_norms(m, x, "1/d2".replace("1/", "band1/"))
    np.testing.assert_allclose(norms, 0.0, atol=1e-12)
    assert lstm_channel == len(norms) - 1  # Sa puts the LSTM map last


def test_feature_map_norms_rms_convention_and_oracle():
    spec = toy_arch()
    m = SeparationModel(spec, seed=25)
    m.set_training(False)
    x = np.abs(RNG(26).standard_normal((2, spec.num_bins, 8)))
    norms, _ = mdl.feature_map_norms(m, x, "band1/d1")
    capture = {}
    with ad.no_grad():
        m.forward(x, capture=capture)
    act = capture["band1/d1"][0].data
    for c in range(act.shape[0]):
        expected = np.sqrt(np.mean(act[c] ** 2))
        assert abs(norms[c] - expected) < 1e-12
    # a constant-one map has RMS norm exactly 1 under this convention
    assert abs(np.sqrt(np.mean(np.ones((5, 7)) ** 2)) - 1.0) == 0.0


def test_feature_map_norms_unknown_slot():
    spec = toy_arch()
    m = SeparationModel(spec, seed=27)
    with pytest.raises(KeyError):
        mdl.feature_map_norms(m, np.zeros((2, spec.num_bins, 4)), "band9/d1")


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
