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

DEFAULT_FFT_SIZE = 4096
DEFAULT_SAMPLE_RATE = 44100
# BSSEval scoring defaults, stated in this scipy-free module so that the
# CLI's parser has them without importing `evaluation`
DEFAULT_FILTER_LEN = 512
DEFAULT_WINDOW_S = 30.0
DEFAULT_HOP_S = 15.0


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
    window = raised_cosine_window(fft_size)
    frames = np.lib.stride_tricks.sliding_window_view(x, fft_size, axis=1)[:, ::hop]
    segments = frames * window  # (ch, frames, fft_size)
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
# WAV I/O: the RIFF chunks are walked with struct, and the samples are
# decoded with numpy, so reading and writing audio needs no scipy module

WAVE_PCM = 1
WAVE_FLOAT = 3
WAVE_EXTENSIBLE = 0xFFFE
# a WAVE_FORMAT_EXTENSIBLE sub-format GUID ending so holds a format tag in
# its first four bytes (RFC 2361); its first three groups are in file order
_GUID_TAIL = {"<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
              ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71"}
# PCM sample bytes -> full scale; a 24-bit sample is read into the high
# bytes of an int32, and 8-bit samples are unsigned, centred on 128
_PCM_FULL_SCALE = {1: 128.0, 2: 32768.0, 4: 2147483648.0}


def _fmt_chunk(raw, pos, order):
    """(size, format tag, channels, rate, block align, bits per sample) of
    the fmt chunk whose size field is at raw[pos]."""
    size, tag, channels, rate, byte_rate, align, bits = struct.unpack_from(
        order + "IHHIIHH", raw, pos)
    if size < 16:
        raise ValueError("fmt chunk of %d bytes" % size)
    if tag == WAVE_EXTENSIBLE and size >= 18:
        (cb_size,) = struct.unpack_from(order + "H", raw, pos + 20)
        if cb_size < 22:
            raise ValueError("WAVE_FORMAT_EXTENSIBLE fmt chunk with cbSize %d" % cb_size)
        guid = raw[pos + 28:pos + 44]
        if guid.endswith(_GUID_TAIL[order]):
            (tag,) = struct.unpack_from(order + "I", guid)
    if tag not in (WAVE_PCM, WAVE_FLOAT):
        raise InputError("unsupported WAV format tag %#06x: only PCM and IEEE float" % tag)
    if tag == WAVE_PCM and byte_rate != rate * align:
        raise ValueError("byte rate %d is not the rate %d times the block align %d"
                         % (byte_rate, rate, align))
    return size, tag, channels, rate, align, bits


def _data_chunk(chunk, fmt, order):
    """(frames, channels) float64 samples of the bytes of a data chunk. A
    chunk cut short keeps its whole samples, unless that leaves a partial
    frame or a partial 24-bit sample."""
    _, tag, channels, _, align, bits = fmt
    width = align // channels if channels else 0
    if tag == WAVE_PCM and bits <= 64 and width == 3:  # into the high bytes of an int32
        if len(chunk) % 3:
            raise ValueError("data chunk ends inside a sample")
        wide = np.zeros((len(chunk) // 3, 4), np.uint8)
        wide[:, slice(1, 4) if order == "<" else slice(0, 3)] = np.frombuffer(
            chunk, np.uint8).reshape(-1, 3)
        data = wide.view(order + "i4")[:, 0]
    else:
        if tag == WAVE_FLOAT and bits in (32, 64) and width in (4, 8):
            dtype = order + "f%d" % width
        elif tag == WAVE_PCM and 1 <= bits <= 8 and width == 1:  # unsigned, centred on 128
            dtype = "u1"
        elif tag == WAVE_PCM and bits <= 64 and width in (2, 4):
            dtype = order + "i%d" % width
        else:
            raise InputError("unsupported WAV sample format: %d-bit %s in %d-byte containers"
                             % (bits, "PCM" if tag == WAVE_PCM else "float", width))
        data = np.frombuffer(chunk, dtype, count=len(chunk) // width)
    if len(data) % channels:
        raise ValueError("data chunk ends inside a frame")
    samples = data.reshape(-1, channels).astype(np.float64)
    if tag == WAVE_PCM:  # onto [-1, 1)
        if data.dtype == np.uint8:
            samples -= 128.0
        samples /= _PCM_FULL_SCALE[data.itemsize]
    return samples


def _decode_wav(raw):
    """(rate, (frames, channels) float64 samples) of the bytes of a RIFF,
    RIFX (big-endian) or RF64 WAV file."""
    form = raw[:4]
    order = ">" if form == b"RIFX" else "<"
    if form == b"RF64":  # the RIFF and data sizes are 64-bit fields of a ds64 chunk
        if raw[12:16] != b"ds64":
            raise ValueError("RF64 file without a ds64 chunk")
        ds64_size, riff_size, data_size = struct.unpack_from("<IQQ", raw, 16)
        pos = 20 + ds64_size
    elif form in (b"RIFF", b"RIFX"):
        (riff_size,) = struct.unpack_from(order + "I", raw, 4)
        pos = 12
    else:
        raise ValueError("not a RIFF, RIFX or RF64 file")
    if raw[8:12] != b"WAVE":
        raise ValueError("RIFF form type %r is not WAVE" % raw[8:12])
    fmt = samples = None
    while pos < riff_size + 8:
        chunk_id = raw[pos:pos + 4]
        pos += 4
        if len(chunk_id) < 4:  # the file ends before its RIFF size says
            if samples is None:
                raise ValueError("file ends before its data chunk")
            break
        if chunk_id == b"fmt ":
            fmt = _fmt_chunk(raw, pos, order)
            size = fmt[0]
        elif chunk_id == b"data":
            if fmt is None:
                raise ValueError("data chunk before the fmt chunk")
            size = data_size if form == b"RF64" else struct.unpack_from(order + "I", raw, pos)[0]
            samples = _data_chunk(memoryview(raw)[pos + 4:pos + 4 + size], fmt, order)
        elif pos == len(raw):  # a bare chunk id at the end of the file
            size = 0
        else:  # fact, LIST and any other chunk are skipped
            (size,) = struct.unpack_from(order + "I", raw, pos)
        pos += 4 + size + size % 2  # odd-sized chunks carry a pad byte
    if samples is None:
        raise ValueError("no data chunk")
    return fmt[3], samples


def read_wav(path) -> AudioClip:
    """The clip in a WAV file of 8-bit unsigned, 16-, 24- or 32-bit PCM,
    or 32- or 64-bit float samples, scaled to [-1, 1) for PCM. Any other
    file, more than two channels, no samples or a sample rate of 0 is an
    InputError naming the path."""
    try:
        with open(path, "rb") as fh:
            rate, samples = _decode_wav(fh.read())
    except InputError as exc:  # a WAV of a sample format it does not read
        raise InputError("%s: %s" % (path, exc)) from exc
    except (ValueError, struct.error) as exc:  # not a WAV, or one cut short
        raise InputError("%s: unreadable WAV: %s" % (path, exc)) from exc
    if samples.shape[1] > 2:
        raise InputError("%s: only 1-2 channels supported" % path)
    if not samples.shape[0]:
        raise InputError("%s: no samples" % path)
    if not rate:
        raise InputError("%s: sample rate 0" % path)
    return AudioClip(samples.T, rate)


def write_wav(path, clip: AudioClip, dtype="float32"):
    """Write clip as a RIFF WAV of 16-bit PCM ("int16") or 32-bit float
    ("float32") samples."""
    if dtype == "int16":
        data = np.clip(np.round(clip.samples.T * 32768.0), -32768, 32767).astype("<i2", order="C")
        tag, fmt_tail, fact = WAVE_PCM, b"", b""
    elif dtype == "float32":
        data = clip.samples.T.astype("<f4", order="C")
        # a non-PCM fmt chunk ends in a cbSize of 0, and a fact chunk gives the frame count
        tag, fmt_tail, fact = WAVE_FLOAT, b"\x00\x00", struct.pack("<4sII", b"fact", 4, len(data))
    else:
        raise InputError("unsupported output dtype %r" % (dtype,))
    channels, rate = data.shape[1], clip.sample_rate
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * data.itemsize * channels,
                      data.itemsize * channels, 8 * data.itemsize) + fmt_tail
    header = (b"WAVE" + struct.pack("<4sI", b"fmt ", len(fmt)) + fmt + fact
              + struct.pack("<4sI", b"data", data.nbytes))
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI", b"RIFF", len(header) + data.nbytes) + header)
        fh.write(data)
