"""STFT analysis/synthesis and the frequency-band layout.

Analysis uses a periodic raised-cosine window at 75% overlap; synthesis
is weighted overlap-add with the same window, which satisfies the
constant-overlap-add condition (sum of squared windows is constant on
interior samples), so stft -> istft reconstructs interior samples
exactly up to floating-point error.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.io import wavfile

DEFAULT_FFT_SIZE = 4096
DEFAULT_SAMPLE_RATE = 44100


class InputError(ValueError):
    """Malformed audio or spectrogram input."""


def hop_size(fft_size):
    """The hop of every STFT: a quarter of the frame (75% overlap)."""
    return fft_size // 4


@dataclass
class AudioClip:
    """Multichannel audio: samples is (channels, time)."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 2:
            raise InputError("samples must be (channels, time)")
        if self.sample_rate <= 0:
            raise InputError("sample_rate must be positive")

    @property
    def num_samples(self):
        return self.samples.shape[1]


def raised_cosine_window(n):
    """Periodic raised-cosine (hann) window of length n."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft(samples, fft_size=DEFAULT_FFT_SIZE):
    """Complex STFT of (channels, n) samples as a C-contiguous
    (channels, fft_size // 2 + 1, frames) array: the layout of the
    model's input, the masks and the Wiener filter, so a chunk of frames
    is the slice x[:, :, a:b]. The tail is zero-padded so that every
    sample lies in a whole frame."""
    hop = hop_size(fft_size)
    x = samples
    n = x.shape[1]
    if n == 0:
        raise InputError("empty clip")
    padded = max(n, fft_size)
    if (padded - fft_size) % hop:
        padded += hop - (padded - fft_size) % hop
    if padded > n:
        x = np.pad(x, ((0, 0), (0, padded - n)))
    frames = (padded - fft_size) // hop + 1
    window = raised_cosine_window(fft_size)
    idx = np.arange(frames)[:, None] * hop + np.arange(fft_size)[None, :]
    segments = x[:, idx] * window  # (ch, frames, fft_size)
    # the rFFT along the last axis, then one copy: an rFFT along axis 1 is slower
    return np.ascontiguousarray(np.fft.rfft(segments, axis=2).transpose(0, 2, 1))


def istft(bins, fft_size, num_samples):
    """(channels, num_samples) samples of a complex (channels,
    fft_size // 2 + 1, frames) STFT: weighted overlap-add with
    squared-window normalization.

    The squared-window normalizer is floored at 1% of its full-overlap
    value: for spectrograms that were modified (masked) after analysis,
    dividing by the near-zero window tails at the signal edges would
    otherwise blow up the first and last partial frames. Edge samples
    are therefore attenuated instead of amplified; interior samples are
    reconstructed exactly.
    """
    ch, _, frames = bins.shape
    n = fft_size
    hop = hop_size(n)
    window = raised_cosine_window(n)
    total = (frames - 1) * hop + n
    out = np.zeros((ch, total))
    segs = np.fft.irfft(bins.transpose(0, 2, 1), n=n, axis=2) * window
    for m in range(frames):
        out[:, m * hop:m * hop + n] += segs[:, m, :]
    norm = cola_profile(n, frames)
    out /= np.maximum(norm, 0.01 * norm.max())
    return out[:, :num_samples]


def cola_profile(fft_size=DEFAULT_FFT_SIZE, frames=16):
    """Overlap-added squared-window profile (constant on the interior)."""
    hop = hop_size(fft_size)
    w2 = raised_cosine_window(fft_size) ** 2
    total = (frames - 1) * hop + fft_size
    norm = np.zeros(total)
    for m in range(frames):
        norm[m * hop:m * hop + fft_size] += w2
    return norm


# ---------------------------------------------------------------------------
# band layout


@dataclass
class BandLayout:
    """Partition of the [0, fft_size/2] bin range into contiguous bands.

    Boundary rule: bin = round(freq_hz * fft_size / sample_rate); the
    boundary bin belongs to the upper band.
    """

    boundaries_hz: tuple
    fft_size: int = DEFAULT_FFT_SIZE
    sample_rate: int = DEFAULT_SAMPLE_RATE
    ranges: list = field(init=False)

    def __post_init__(self):
        bins = self.fft_size // 2 + 1
        edges = [0]
        for f_hz in self.boundaries_hz:
            b = int(round(f_hz * self.fft_size / self.sample_rate))
            if not edges[-1] < b < bins:
                raise InputError("band boundary %s Hz maps to bin %d outside (%d, %d)"
                                 % (f_hz, b, edges[-1], bins))
            edges.append(b)
        edges.append(bins)
        self.ranges = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


# ---------------------------------------------------------------------------
# WAV I/O


def read_wav(path) -> AudioClip:
    try:
        rate, data = wavfile.read(path)
    except (ValueError, struct.error) as exc:  # not a WAV, or one cut short
        raise InputError("%s: unreadable WAV: %s" % (path, exc)) from exc
    if data.ndim == 1:
        data = data[:, None]
    if data.shape[1] > 2:
        raise InputError("%s: only 1-2 channels supported" % path)
    if data.dtype == np.uint8:  # unsigned 8-bit PCM, centred on 128
        samples = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise InputError("%s: unsupported WAV sample format %s" % (path, data.dtype))
    return AudioClip(samples.T, int(rate))


def write_wav(path, clip: AudioClip, dtype="float32"):
    data = clip.samples.T
    if dtype == "int16":
        data = np.clip(np.round(data * 32768.0), -32768, 32767).astype(np.int16)
    elif dtype == "float32":
        data = data.astype(np.float32)
    else:
        raise InputError("unsupported output dtype %r" % (dtype,))
    wavfile.write(path, clip.sample_rate, data)

