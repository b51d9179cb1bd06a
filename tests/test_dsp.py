import struct

import numpy as np
import pytest

from stemsep import cli, dsp
from wavfiles import (
    FORMATS, chunk, fmt_body, oracle_read_wav, oracle_write_wav, rf64, riff, sample_bytes,
)


def test_stft_zero_clip_is_zero():
    assert np.all(dsp.stft(np.zeros((2, 10000))) == 0)


def test_stft_rejects_empty_clip():
    with pytest.raises(dsp.InputError):
        dsp.stft(np.zeros((1, 0)))


def test_stft_sinusoid_peaks_at_its_bin():
    n = 4096
    sr = 44100
    k = 10
    t = np.arange(4 * n)
    x = np.sin(2 * np.pi * k * t / n)
    mags = np.abs(dsp.stft(x[None, :], fft_size=n)[0])
    for frame in range(mags.shape[1] - 4):  # skip zero-padded tail frames
        assert np.argmax(mags[:, frame]) == k


def test_stft_istft_round_trip_interior():
    rng = np.random.default_rng(0)
    n = 4096
    x = rng.standard_normal((2, 6 * n))
    rec = dsp.istft(dsp.stft(x, n), n, x.shape[1])
    assert rec.shape == x.shape
    interior = slice(n, x.shape[1] - n)
    err = np.abs(rec[:, interior] - x[:, interior]).max()
    assert err < 1e-6 * np.abs(x).max()


def test_stft_shorter_than_window_is_padded():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 1000))
    bins = dsp.stft(x, fft_size=4096)
    assert bins.shape[2] >= 1
    rec = dsp.istft(bins, 4096, 1000)
    assert rec.shape == (1, 1000)


def test_istft_linearity_and_zero():
    rng = np.random.default_rng(2)
    n = dsp.DEFAULT_FFT_SIZE
    sa = dsp.stft(rng.standard_normal((2, 12000)))
    sb = dsp.stft(rng.standard_normal((2, 12000)))
    combined = dsp.istft(sa + sb, n, 12000)
    separate = dsp.istft(sa, n, 12000) + dsp.istft(sb, n, 12000)
    np.testing.assert_allclose(combined, separate, atol=1e-10)

    zeros = dsp.istft(np.zeros_like(sa), n, 12000)
    np.testing.assert_allclose(zeros, 0.0)


def test_stft_linearity():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((1, 9000))
    b = rng.standard_normal((1, 9000))
    sa = dsp.stft(a)
    sb = dsp.stft(b)
    sab = dsp.stft(a + b)
    np.testing.assert_allclose(sab, sa + sb, atol=1e-8)


@pytest.mark.parametrize("channels,fft_size,n", [(2, 256, 3000), (1, 64, 64), (2, 64, 10),
                                                  (2, 6, 20), (1, 10, 37)])
def test_stft_is_contiguous_channels_bins_frames(channels, fft_size, n):
    # oracle: one np.fft.rfft per windowed frame of the zero-padded signal
    rng = np.random.default_rng(4)
    x = rng.standard_normal((channels, n))
    hop = dsp.hop_size(fft_size)
    bins = dsp.stft(x, fft_size)
    frames = max(0, -(-(n - fft_size) // hop)) + 1  # the fewest that cover x
    assert bins.shape == (channels, fft_size // 2 + 1, frames)
    assert bins.flags.c_contiguous
    padded = np.pad(x, ((0, 0), (0, (frames - 1) * hop + fft_size - n)))
    window = dsp.raised_cosine_window(fft_size)
    for c in range(channels):
        for m in range(frames):
            frame = padded[c, m * hop:m * hop + fft_size] * window
            np.testing.assert_array_equal(bins[c, :, m], np.fft.rfft(frame))


def test_cola_constant_on_interior():
    n = 4096
    profile = dsp.cola_profile(n, frames=16)
    interior = profile[n:-n]
    assert np.abs(interior - interior[0]).max() < 1e-10


# ---------------------------------------------------------------------------
# band layout


def test_band_layout_table_boundaries():
    for edges, fft_size, rate, ranges in (
        ((4100, 11000), 4096, 44100, [(0, 381), (381, 1022), (1022, 2049)]),
        ((), 64, 8000, [(0, 33)]),  # no boundaries: one band over every bin
    ):
        layout = dsp.BandLayout(edges, fft_size=fft_size, sample_rate=rate)
        assert layout.ranges == ranges


# ---------------------------------------------------------------------------
# WAV I/O


@pytest.mark.parametrize("dtype", ["int16", "float32"])
def test_wav_round_trip(tmp_path, dtype):
    rng = np.random.default_rng(6)
    x = (rng.standard_normal((2, 5000)) * 0.1).astype(np.float64)
    clip = dsp.AudioClip(x, 44100)
    path = tmp_path / ("clip_%s.wav" % dtype)
    dsp.write_wav(path, clip, dtype=dtype)
    back = dsp.read_wav(path)
    assert back.sample_rate == 44100
    tol = 1e-4 if dtype == "int16" else 1e-7
    np.testing.assert_allclose(back.samples, x, atol=tol)


def test_read_wav_unsigned_8bit(tmp_path):
    from scipy.io import wavfile

    data = np.array([[0, 255], [64, 128], [128, 192], [255, 1]], dtype=np.uint8)
    path = tmp_path / "u8.wav"
    wavfile.write(path, 8000, data)
    clip = dsp.read_wav(path)
    assert clip.sample_rate == 8000
    expected = np.array([[-1.0, -0.5, 0.0, 127 / 128], [127 / 128, 0.0, 0.5, -127 / 128]])
    np.testing.assert_array_equal(clip.samples, expected)


# ---------------------------------------------------------------------------
# the WAV codec against the scipy-based reader and writer it replaced

FRAMES = 11  # odd, so 8-bit mono data has a pad byte


def _wav(name, channels, order="<", frames=FRAMES, before=(), after=(), **fmt_kw):
    fmt = chunk(b"fmt ", fmt_body(name, channels, order=order, **fmt_kw), order)
    data = chunk(b"data", sample_bytes(name, channels, frames, order), order)
    return riff([fmt, *before, data, *after], order)


def _cut(name, channels, k):
    """_wav's file cut k bytes before the end of its samples."""
    raw = _wav(name, channels)
    return raw[:len(raw) - (FRAMES * channels * FORMATS[name][2]) % 2 - k]


_SIDE_CHUNKS = dict(
    before=[chunk(b"fact", struct.pack("<I", FRAMES)), chunk(b"LIST", b"INFOa"),
            chunk(b"JUNK", b"\x00" * 3), chunk(b"bext", b"odd")],
    after=[chunk(b"LIST", b"INFOabc")])

# case id -> (file bytes, expected outcome): "oracle" is whatever the
# scipy-based reader returns or raises; bytes are a little-endian RIFF
# twin of a RIFX file, which must read as the scipy-based reader reads
# the twin (it rejected big-endian samples, but for 8-bit ones, as
# unsupported sample formats); "error" is an InputError naming the path,
# where the scipy-based reader returned an empty clip, raised outside its
# error mapping or left the path out of the message
WAV_CASES = {}
for _name in ("u8", "pcm16", "pcm24", "pcm32", "float32", "float64"):
    for _ch in (1, 2):
        _width = FORMATS[_name][2]
        WAV_CASES.update({
            "riff-%s-%d" % (_name, _ch): (_wav(_name, _ch), "oracle"),
            "extensible-%s-%d" % (_name, _ch): (_wav(_name, _ch, extensible=True), "oracle"),
            "rf64-%s-%d" % (_name, _ch): (
                rf64(fmt_body(_name, _ch), sample_bytes(_name, _ch, FRAMES)), "oracle"),
            "rifx-%s-%d" % (_name, _ch): (_wav(_name, _ch, ">"), _wav(_name, _ch)),
            "rifx-extensible-%s-%d" % (_name, _ch): (
                _wav(_name, _ch, ">", extensible=True), _wav(_name, _ch, extensible=True)),
            "side-chunks-%s-%d" % (_name, _ch): (_wav(_name, _ch, **_SIDE_CHUNKS), "oracle"),
            "cut-mid-frame-%s-%d" % (_name, _ch): (_cut(_name, _ch, _width), "oracle"),
            "cut-mid-sample-%s-%d" % (_name, _ch): (_cut(_name, _ch, 1), "oracle"),
            "cut-in-fmt-%s-%d" % (_name, _ch): (_wav(_name, _ch)[:30], "oracle"),
            "empty-%s-%d" % (_name, _ch): (_wav(_name, _ch, frames=0), "error"),
        })
for _ch in (1, 2):
    WAV_CASES.update({
        "pcm12-%d" % _ch: (_wav("pcm12", _ch), "oracle"),
        "pcm64-%d" % _ch: (_wav("pcm64", _ch), "oracle"),
        "alaw-%d" % _ch: (_wav("alaw", _ch), "oracle"),
        "extensible-alaw-%d" % _ch: (_wav("alaw", _ch, extensible=True), "oracle"),
        "extensible-cbsize-20-%d" % _ch: (_wav("pcm16", _ch, extensible=True, cb_size=20),
                                          "oracle"),
    })
WAV_CASES.update({
    "three-channels": (_wav("pcm16", 3), "oracle"),
    "text": (b"not a wav file\n", "oracle"),
    "not-wave": (b"RIFF\x04\x00\x00\x00AVI ", "oracle"),
    "data-before-fmt": (riff([chunk(b"data", b"\x00\x00"),
                              chunk(b"fmt ", fmt_body("pcm16", 1))]), "oracle"),
    "fmt-of-14-bytes": (riff([chunk(b"fmt ", fmt_body("pcm16", 1)[:14]),
                              chunk(b"data", b"\x00\x00")]), "oracle"),
    "byte-rate-wrong": (riff([chunk(b"fmt ", fmt_body("pcm16", 1)[:8] + b"\x01\x00\x00\x00"
                                    + fmt_body("pcm16", 1)[12:]),
                              chunk(b"data", b"\x00\x00")]), "oracle"),
    "riff-size-past-the-end": (b"RIFF\xff\xff\xff\x7f" + _wav("pcm16", 2)[8:], "oracle"),
    "bare-chunk-id-at-the-end": (_wav("pcm16", 2, after=[b"LIST"]), "oracle"),
    "partial-chunk-id-at-the-end": (_wav("pcm16", 2, after=[b"LI"]), "oracle"),
    "no-data-chunk": (riff([chunk(b"fmt ", fmt_body("pcm16", 1))]), "error"),
    "rate-0": (riff([chunk(b"fmt ", fmt_body("pcm16", 1, rate=0)),
                     chunk(b"data", b"\x00\x00")]), "error"),
})


def _outcome(read, path):
    """The clip read, or (exception type, message, CLI exit code)."""
    try:
        return read(path)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        codes = [code for types, _, code in cli._ERROR_CODES if isinstance(exc, types)]
        return type(exc), str(exc), (codes + [1])[0]


@pytest.mark.parametrize("case", sorted(WAV_CASES))
def test_read_wav_matches_scipy_reader(tmp_path, case):
    raw, expect = WAV_CASES[case]
    path = tmp_path / "x.wav"
    path.write_bytes(raw)
    got = _outcome(dsp.read_wav, path)
    if expect == "error":
        assert isinstance(got, tuple), "read %s" % case
        assert got[0] is dsp.InputError and got[1].startswith("%s: " % path) and got[2] == 3
        return
    if isinstance(expect, bytes):
        twin = tmp_path / "twin.wav"
        twin.write_bytes(expect)
        want = _outcome(oracle_read_wav, twin)
    else:
        want = _outcome(oracle_read_wav, path)
    if isinstance(want, tuple):
        assert isinstance(got, tuple), "read %s, which the oracle rejects: %s" % (case, want)
        assert got[0] is want[0] is dsp.InputError
        assert got[1].startswith("%s: " % path) and want[1].startswith("%s: " % path)
        assert got[2] == want[2] == 3
    else:
        assert not isinstance(got, tuple), got
        assert got.sample_rate == want.sample_rate
        assert got.samples.shape == want.samples.shape
        assert got.samples.strides == want.samples.strides
        assert got.samples.tobytes() == want.samples.tobytes()  # bitwise, NaN included


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("frames", [1, 11])
@pytest.mark.parametrize("dtype", ["float32", "int16"])
def test_write_wav_bytes_equal_scipy_writer(tmp_path, dtype, frames, channels):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((channels, frames)) * 0.5
    x[0, :3] = [-0.0, 1.5, -1.5][:frames]  # past full scale: int16 clips
    clip = dsp.AudioClip(x, 22050)
    dsp.write_wav(tmp_path / "new.wav", clip, dtype)
    oracle_write_wav(tmp_path / "old.wav", clip, dtype)
    assert (tmp_path / "new.wav").read_bytes() == (tmp_path / "old.wav").read_bytes()
