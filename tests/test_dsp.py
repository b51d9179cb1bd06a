import numpy as np
import pytest

from stemsep import dsp


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


@pytest.mark.parametrize("channels,fft_size,n", [(2, 256, 3000), (1, 64, 64), (2, 64, 10)])
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
