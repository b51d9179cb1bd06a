"""WAV test tooling: the scipy-based reader and writer that `stemsep.dsp`
used before it parsed RIFF itself, kept as the oracle of its codec, and
helpers that build WAV files of any layout."""

import struct
import warnings

import numpy as np
from scipy.io import wavfile

from stemsep.dsp import AudioClip, InputError


def oracle_read_wav(path) -> AudioClip:
    """The scipy-based reader. scipy warns, and reads on, past chunks it
    does not know and past a file that ends before its RIFF size says;
    those warnings are silenced here, as a run of the CLI printed them."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", wavfile.WavFileWarning)
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


def oracle_write_wav(path, clip: AudioClip, dtype="float32"):
    """The scipy-based writer."""
    data = clip.samples.T
    if dtype == "int16":
        data = np.clip(np.round(data * 32768.0), -32768, 32767).astype(np.int16)
    elif dtype == "float32":
        data = data.astype(np.float32)
    else:
        raise InputError("unsupported output dtype %r" % (dtype,))
    wavfile.write(path, clip.sample_rate, data)


# ---------------------------------------------------------------------------
# WAV files of any layout

PCM, FLOAT, ALAW, EXTENSIBLE = 1, 3, 6, 0xFFFE
GUID_TAIL = {"<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
             ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71"}
# sample format -> (format tag, bits per sample, bytes per sample)
FORMATS = {
    "u8": (PCM, 8, 1), "pcm16": (PCM, 16, 2), "pcm24": (PCM, 24, 3),
    "pcm32": (PCM, 32, 4), "float32": (FLOAT, 32, 4), "float64": (FLOAT, 64, 8),
    "pcm12": (PCM, 12, 2), "pcm64": (PCM, 64, 8), "alaw": (ALAW, 8, 1),
}


def chunk(chunk_id, body, order="<"):
    """One RIFF chunk, with its pad byte when body has an odd length."""
    return chunk_id + struct.pack(order + "I", len(body)) + body + b"\x00" * (len(body) % 2)


def fmt_body(name, channels, rate=8000, order="<", extensible=False, cb_size=22):
    tag, bits, width = FORMATS[name]
    align = channels * width
    body = struct.pack(order + "HHIIHH", EXTENSIBLE if extensible else tag, channels,
                       rate, rate * align, align, bits)
    if extensible:  # cbSize, valid bits, channel mask, sub-format GUID
        body += struct.pack(order + "HHI", cb_size, bits, (1 << channels) - 1)
        body += struct.pack(order + "I", tag) + GUID_TAIL[order]
    return body


def sample_bytes(name, channels, frames, order="<", seed=0):
    """Random interleaved samples of a format, as the bytes of a data
    chunk; float samples include -0.0, inf, NaN and peaks above 1."""
    rng = np.random.default_rng(seed)
    n = channels * frames
    if name in ("u8", "alaw"):
        return rng.integers(0, 256, n, dtype=np.uint8).tobytes()
    if name == "pcm24":
        wide = rng.integers(-(1 << 23), 1 << 23, n).astype(order + "i4")
        octets = wide.view(np.uint8).reshape(n, 4)
        return (octets[:, :3] if order == "<" else octets[:, 1:]).tobytes()
    _, bits, width = FORMATS[name]
    if name.startswith("float"):
        x = rng.standard_normal(n) * 0.5
        x[:4] = [-0.0, np.inf, np.nan, 3.5][:n]
        return x.astype(order + "f%d" % width).tobytes()
    info = np.iinfo("i%d" % width)
    return rng.integers(info.min, info.max, n, endpoint=True).astype(order + "i%d" % width).tobytes()


def riff(chunks, order="<"):
    """A RIFF file (RIFX when order is big-endian) of the given chunks."""
    body = b"WAVE" + b"".join(chunks)
    return (b"RIFX" if order == ">" else b"RIFF") + struct.pack(order + "I", len(body)) + body


def rf64(fmt, data):
    """An RF64 file: a ds64 chunk holds the sizes; the RIFF and data size
    fields read 0xFFFFFFFF."""
    tail = chunk(b"fmt ", fmt) + b"data" + struct.pack("<I", 0xFFFFFFFF) + data
    ds64 = struct.pack("<QQQI", 4 + 36 + len(tail), len(data), 0, 0)
    return (b"RF64" + struct.pack("<I", 0xFFFFFFFF) + b"WAVE" + chunk(b"ds64", ds64)
            + tail)
