import numpy as np
import pytest

from stemsep import dsp


def test_stft_zero_clip_is_zero():
    clip = dsp.AudioClip(np.zeros((2, 10000)))
    spec = dsp.stft(clip)
    assert np.all(spec.bins == 0)


def test_stft_rejects_empty_clip():
    with pytest.raises(dsp.InputError):
        dsp.stft(dsp.AudioClip(np.zeros((1, 0))))


def test_stft_sinusoid_peaks_at_its_bin():
    n = 4096
    sr = 44100
    k = 10
    t = np.arange(4 * n)
    x = np.sin(2 * np.pi * k * t / n)
    spec = dsp.stft(dsp.AudioClip(x[None, :], sr), fft_size=n)
    mags = np.abs(spec.bins[0])
    for frame in range(spec.bins.shape[1] - 4):  # skip zero-padded tail frames
        assert np.argmax(mags[frame]) == k


def test_stft_istft_round_trip_interior():
    rng = np.random.default_rng(0)
    n = 4096
    x = rng.standard_normal((2, 6 * n))
    clip = dsp.AudioClip(x)
    rec = dsp.istft(dsp.stft(clip)).samples
    assert rec.shape == x.shape
    interior = slice(n, x.shape[1] - n)
    err = np.abs(rec[:, interior] - x[:, interior]).max()
    assert err < 1e-6 * np.abs(x).max()


def test_stft_shorter_than_window_is_padded():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 1000))
    spec = dsp.stft(dsp.AudioClip(x), fft_size=4096)
    assert spec.bins.shape[1] >= 1
    rec = dsp.istft(spec)
    assert rec.num_samples == 1000


def test_istft_linearity_and_zero():
    rng = np.random.default_rng(2)
    clip_a = dsp.AudioClip(rng.standard_normal((2, 12000)))
    clip_b = dsp.AudioClip(rng.standard_normal((2, 12000)))
    sa, sb = dsp.stft(clip_a), dsp.stft(clip_b)
    combined = dsp.istft(sa.with_bins(sa.bins + sb.bins)).samples
    separate = dsp.istft(sa).samples + dsp.istft(sb).samples
    np.testing.assert_allclose(combined, separate, atol=1e-10)

    zeros = dsp.istft(sa.with_bins(np.zeros_like(sa.bins)))
    np.testing.assert_allclose(zeros.samples, 0.0)


def test_stft_linearity():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((1, 9000))
    b = rng.standard_normal((1, 9000))
    sa = dsp.stft(dsp.AudioClip(a)).bins
    sb = dsp.stft(dsp.AudioClip(b)).bins
    sab = dsp.stft(dsp.AudioClip(a + b)).bins
    np.testing.assert_allclose(sab, sa + sb, atol=1e-8)


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
