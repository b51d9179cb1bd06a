import dataclasses

import pytest

from closed_forms import conv_param_count, dense_block_param_count, lstm_block_param_count
from stemsep import arch
from stemsep.arch import (
    ArchSpec,
    BandPlan,
    ConfigError,
    ScaleSlot,
    canonical_text,
    default_arch,
    parse_arch_text,
    receptive_field,
    reduce_spec,
    toy_arch,
)
from structure import plan_slot


def test_default_arch_matches_shipped_table():
    spec = default_arch()
    assert spec.mode == "Sa"
    assert [b.name for b in spec.bands] == ["1", "2", "3"]
    assert [b.growth for b in spec.bands] == [14, 4, 2]
    assert spec.full_band.growth == 7
    band1 = spec.bands[0]
    assert [s.position for s in band1.slots] == ["d1", "d2", "d3", "d4", "u3", "u2", "u1"]
    assert plan_slot(band1, "d4") == ScaleSlot("d4", 5, 128)
    assert plan_slot(band1, "u2") == ScaleSlot("u2", 5, 128)
    assert plan_slot(band1, "d1") == ScaleSlot("d1", 5)
    # band 3 bottleneck is LSTM-only
    assert plan_slot(spec.bands[2], "d3") == ScaleSlot("d3", units=8)
    full = spec.full_band
    assert [s.layers for s in full.down_slots] == [3, 3, 4, 5, 5]
    assert plan_slot(full, "d4").units == 128
    assert plan_slot(full, "u2").units == 128
    assert spec.final_layers == 3 and spec.final_growth == 12


def test_band_bin_partition():
    spec = default_arch()
    layout = spec.band_layout()
    assert layout.ranges == [(0, 381), (381, 1022), (1022, 2049)]
    assert spec.band_padded_bins(spec.bands[0]) == 384  # multiple of 2^3
    assert spec.band_padded_bins(spec.full_band) == 2064  # multiple of 2^4
    assert spec.time_pad_multiple == 16


def test_canonical_round_trip():
    spec = default_arch()
    text = canonical_text(spec)
    again = parse_arch_text(text)
    assert canonical_text(again) == text
    assert again.content_hash() == spec.content_hash()


@pytest.mark.parametrize("mode", ["Sa", "Sb", "P"])
@pytest.mark.parametrize("make", [default_arch, toy_arch,
                                  lambda: reduce_spec(reduce_spec(default_arch()))],
                         ids=["default", "toy", "reduced2"])
def test_source_text_is_derived_and_parses_back(make, mode):
    spec = dataclasses.replace(make(), mode=mode)
    assert "source_text" not in [f.name for f in dataclasses.fields(ArchSpec)]
    assert spec.source_text == canonical_text(spec)
    assert parse_arch_text(spec.source_text) == spec


# the toy config, as canonical_text writes it, with line numbers
TOY_LINES = canonical_text(toy_arch()).splitlines()
TOY_BAND1_D1 = TOY_LINES.index("band 1 growth=3") + 2


def toy_text_with(lineno, line):
    """The toy config with line `lineno` (1-based) replaced by `line`."""
    lines = list(TOY_LINES)
    lines[lineno - 1] = line
    return "\n".join(lines) + "\n"


def test_parse_rejects_bad_configs():
    for text in [
        "mode Zz\n",
        "frobnicate 3\n",
        "mode Sa\nd1 l=3\n",  # slot before any band stanza
        "band 1 growth=2\n  d1 l=1\n",  # missing full band
        # an edge canonical_text would round to 4096.69 Hz, one bin lower
        canonical_text(default_arch()).replace("band_edges_hz 4100", "band_edges_hz 4096.6919"),
    ]:
        with pytest.raises(ConfigError):
            parse_arch_text(text)
    # text canonical_text cannot write fails on its line
    for lineno, line in [
        (TOY_BAND1_D1, "  d1 l=2 M=4"),  # unknown slot key
        (TOY_BAND1_D1, "  d1 l=2 l=3"),  # repeated slot key
        (TOY_BAND1_D1 - 1, "band 1 growth=3 depth=2"),  # unknown band key
        (TOY_BAND1_D1 - 1, "band 1 growth=3 growth=3"),  # repeated band key
        (7, "final_dense layers=2 growth=3 units=4"),  # unknown final_dense key
        (7, "final_dense layers=2 growth=3 layers=2"),  # repeated final_dense key
        (2, "mode Sa"),  # a global key given twice
        (2, "fft_size 256 128"),  # a second value
        (TOY_BAND1_D1 + 4, "band 1 growth=2"),  # a band name given twice
    ]:
        with pytest.raises(ConfigError, match="^line %d: " % lineno):
            parse_arch_text(toy_text_with(lineno, line))
    # the full band given twice: the second stanza is the bad line
    with pytest.raises(ConfigError, match="^line %d: band full given twice"
                       % (TOY_LINES.index("band full growth=2") + 1)):
        parse_arch_text(toy_text_with(TOY_BAND1_D1 - 1, "band full growth=3"))


def test_arch_spec_rejects_repeated_or_misplaced_band_names():
    spec = toy_arch()
    band1, band2, band3 = spec.bands
    for bands, full in [
        ((band1, band1, band3), spec.full_band),  # a dedicated name twice
        ((band1, dataclasses.replace(band2, name="full"), band3), spec.full_band),
        (spec.bands, dataclasses.replace(spec.full_band, name="4")),  # no full band
    ]:
        with pytest.raises(ConfigError, match="band names"):
            dataclasses.replace(spec, bands=bands, full_band=full)


def test_slot_validation():
    with pytest.raises(ConfigError):
        ScaleSlot("d1")  # neither block
    with pytest.raises(ConfigError):
        ScaleSlot("d1", layers=-1)
    with pytest.raises(ConfigError):
        ScaleSlot("d1", units=0)
    with pytest.raises(ConfigError):
        BandPlan("x", 2, (ScaleSlot("d2", 1),))  # no d1
    with pytest.raises(ConfigError):
        BandPlan("x", 0, (ScaleSlot("d1", units=2),))  # the stem needs growth >= 1


def test_reduce_spec_halves_and_shallows():
    spec = default_arch()
    red = reduce_spec(spec)
    assert [b.growth for b in red.bands] == [7, 2, 1]
    assert red.full_band.growth == 3
    assert red.bands[0].depth == spec.bands[0].depth - 1
    assert red.full_band.depth == 4
    # the dropped bottleneck LSTM migrates to the new bottleneck
    assert plan_slot(red.full_band, "d4").units is not None
    assert plan_slot(red.bands[0], "d3").units == 64


# ---------------------------------------------------------------------------
# receptive field (hand-derived values)


def plan(slots):
    return BandPlan("x", 3, tuple(slots))


def test_receptive_field_single_conv():
    p = plan([ScaleSlot("d1", 1)])
    # one 3x3 conv sees 3 frames
    assert arch._plan_receptive_field(p, stem=False) == 3


def test_receptive_field_two_scale_hand_value():
    # hand derivation: 3 convs at scale 1 -> 7; pool -> 8 (jump 2);
    # 3 convs at scale 2 -> 8 + 3*2*2 = 20; upsample adds nothing;
    # 3 convs back at scale 1 -> 26
    p = plan([ScaleSlot("d1", 3), ScaleSlot("d2", 3), ScaleSlot("u1", 3)])
    assert arch._plan_receptive_field(p, stem=False) == 26


def test_receptive_field_with_stem_hand_value():
    # stem conv: 1 + 2 = 3; two convs -> 7; pool -> 8 (jump 2);
    # two convs at scale 2 -> 16; upsample; two convs -> 20
    p = plan([ScaleSlot("d1", 2), ScaleSlot("d2", 2), ScaleSlot("u1", 2)])
    assert arch._plan_receptive_field(p, stem=True) == 20


def test_receptive_field_full_spec_reports_all_bands():
    spec = default_arch()
    rf = receptive_field(spec)
    assert set(rf["per_band"]) == {"1", "2", "3", "full"}
    assert rf["overall_conv_frames"] == rf["per_band"]["full"]["conv_frames"]
    # every band with an LSTM block is flagged (LSTM context is unbounded)
    assert all(rf["per_band"][b]["has_lstm"] for b in rf["per_band"])


# ---------------------------------------------------------------------------
# closed-form counts


def test_conv_and_dense_closed_forms():
    assert conv_param_count(2, 14, 3, 3) == 2 * 14 * 9 + 14  # 266
    # l=5, k=14, c_in=2: layer j sees 2 + j*14 channels
    total = dense_block_param_count(2, 5, 14)
    expected = sum(2 * c + (c * 14 * 9 + 14) for c in (2, 16, 30, 44, 58))
    assert total == expected


def test_lstm_block_closed_form_hand_count():
    # c_in=4, f=16, m=8:
    # 1x1 conv: 4*1+1 = 5
    # per direction, 4 gates: 8*16 in + 8*8 rec + 8 bias = 200 -> x4 gates
    # both directions: 2 * 4 * 200 = 1600
    # linear 2m->f: 16*16 + 16 = 272
    assert lstm_block_param_count(4, 16, 8) == 5 + 1600 + 272


def test_toy_arch_is_valid():
    spec = toy_arch()
    assert spec.num_bins == 129
    assert len(spec.bands) == 3
    assert ArchSpec is not None
