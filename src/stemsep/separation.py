"""Oracle masks, multichannel Wiener post-filtering and the separation
pipeline.

The Wiener filter is a single direct pass (no EM) of the full-rank
spatial-covariance model (Duong, Vincent & Gribonval 2010): per-source
power v_j is the channel-mean squared magnitude estimate, and the
spatial covariance R_j per frequency is the power-weighted average of
the mixture outer products, scaled to trace 2. Each Hermitian 2x2
matrix is held as its two real diagonals and one complex off-diagonal,
so the filter is a few per-entry formulas: the mixture covariance
Sigma = sum_j v_j R_j + eps I is three (f, t) planes, inverted through
its real determinant; z = Sigma^-1 x is solved once, and each source is
y_j = v_j R_j z. The sources therefore sum to the mixture up to the
regularizer eps.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .dsp import AudioClip, istft, stft

SOURCE_NAMES = ("bass", "drums", "other", "vocals")
SOFT_MASK_EPS = 1e-12  # added to the summed source power
WIENER_EPS_SCALE = 1e-10  # diagonal loading, relative to the mean mixture power


class SeparationError(ValueError):
    pass


def ideal_binary_mask(source_mags: dict) -> dict:
    """Per-bin winner-take-all masks from the true source magnitudes.

    Ties go to the earliest source in iteration order, so masks always
    partition the TF bins.
    """
    names = list(source_mags)
    if len(names) < 2:
        raise SeparationError("need at least two sources for a binary mask")
    shapes = {np.asarray(source_mags[n]).shape for n in names}
    if len(shapes) != 1:
        raise SeparationError("source magnitude shapes differ: %r" % (shapes,))
    stack = np.stack([np.asarray(source_mags[n]) for n in names])
    winner = np.argmax(stack, axis=0)  # first max wins ties
    return {n: (winner == i).astype(stack.dtype) for i, n in enumerate(names)}


def soft_mask(source_powers: dict) -> dict:
    """Power-ratio masks v_j / sum_k v_k; masks sum to one per bin."""
    names = list(source_powers)
    stack = np.stack([np.asarray(source_powers[n]) for n in names])
    if np.any(stack < 0):
        raise SeparationError("source powers must be non-negative")
    denom = stack.sum(axis=0) + SOFT_MASK_EPS
    return {n: stack[i] / denom for i, n in enumerate(names)}


def multichannel_wiener(mixture_stft, estimate_mags: dict,
                        force_identity_covariance=False) -> dict:
    """Single-pass multichannel Wiener filter for a stereo mixture.

    mixture_stft: complex (2, f, t); estimate_mags: source -> (2, f, t)
    magnitudes. Returns per-source complex (2, f, t) estimates whose sum
    reproduces the mixture up to the regularizer.
    """
    x = np.asarray(mixture_stft)
    if x.ndim != 3 or x.shape[0] != 2:
        raise SeparationError("expected a stereo (2, f, t) mixture STFT")
    names = list(estimate_mags)
    if not names:
        raise SeparationError("no source estimates given")
    for n in names:
        if np.asarray(estimate_mags[n]).shape != x.shape:
            raise SeparationError("estimate %r shape mismatch" % n)

    if not np.any(x):
        return {n: np.zeros_like(x) for n in names}
    f = x.shape[1]
    # per-source power: channel mean of squared magnitudes -> (src, f, t)
    v = np.stack([
        (np.asarray(estimate_mags[n]) ** 2).mean(axis=0) for n in names
    ])

    # a Hermitian 2x2 matrix is its entries (m00, m11, m01): a real
    # diagonal and a complex off-diagonal, m10 = conj(m01)
    x0, x1 = x
    outer = (np.abs(x0) ** 2, np.abs(x1) ** 2, x0 * np.conj(x1))
    eps = WIENER_EPS_SCALE * max(float((np.abs(x) ** 2).mean()), 1e-300)
    cov = []
    mix = (eps, eps, 0.0)  # sum_j v_j R_j + eps I, as (f, t) planes
    for vj in v:
        r = (np.ones(f), np.ones(f), np.zeros(f))
        if not force_identity_covariance:
            # power-weighted average of the outer products, scaled to
            # trace 2: the average's denominator sum_t v_j cancels. The
            # identity where the trace is 0 (no power or no mixture at f)
            num = [np.einsum("ft,ft->f", vj, o) for o in outer]
            trace = num[0] + num[1]
            ok = trace > 0
            scale = 2.0 / np.where(ok, trace, 1.0)
            r = tuple(np.where(ok, m * scale, e) for m, e in zip(num, r))
        r = tuple(m[:, None] for m in r)
        cov.append(r)
        mix = tuple(s + vj * m for s, m in zip(mix, r))

    # z = mix^-1 x through the real determinant, shared by every source
    s00, s11, s01 = mix
    det = s00 * s11 - np.abs(s01) ** 2
    z0 = (s11 * x0 - s01 * x1) / det
    z1 = (s00 * x1 - np.conj(s01) * x0) / det
    return {n: np.stack([vj * (r00 * z0 + r01 * z1), vj * (np.conj(r01) * z0 + r11 * z1)])
            for n, vj, (r00, r11, r01) in zip(names, v, cov)}


def _check_blend(names_a, names_b, weight):
    if not 0.0 <= weight <= 1.0:
        raise SeparationError("blend weight must lie in [0, 1]")
    if set(names_a) != set(names_b):
        raise SeparationError("blend requires matching source sets: %s vs %s"
                              % (sorted(names_a), sorted(names_b)))


def blend(estimates_a: dict, estimates_b: dict, weight) -> dict:
    """Elementwise magnitude blend: w * a + (1 - w) * b."""
    _check_blend(estimates_a, estimates_b, weight)
    out = {}
    for n in estimates_a:
        a, b = np.asarray(estimates_a[n]), np.asarray(estimates_b[n])
        if a.shape != b.shape:
            raise SeparationError("blend shape mismatch for %r" % n)
        out[n] = weight * a + (1.0 - weight) * b
    return out


# ---------------------------------------------------------------------------
# end-to-end pipeline


def normalize_magnitude(mag):
    """(mag / norm, norm) with norm the RMS of mag (1.0 for silence): the
    scale every model sees, in training, separation and inspection."""
    norm = np.sqrt((mag ** 2).mean())
    norm = norm if norm > 0 else 1.0
    return mag / norm, norm


def estimate_magnitudes(models: dict, mag) -> dict:
    """Run each source model on the (normalized) (ch, f, t) mixture
    magnitude. A mono magnitude goes to a stereo model on both channels,
    and the channel mean of its estimate comes back.

    The forwards run under no_grad and inside one ad.row_threads scope:
    each conv splits its row blocks across two threads, with BLAS at one
    thread until the scope ends. Their output is bitwise that of the
    sequential forwards at one BLAS thread, and OPENBLAS_NUM_THREADS=1
    keeps them on one core."""
    mag, norm = normalize_magnitude(mag)
    out = {}
    with ad.no_grad(), ad.row_threads():
        for name, model in models.items():
            model.set_training(False)
            channels = model.spec.io_channels
            est = model.forward(np.broadcast_to(mag, (channels,) + mag.shape[1:])).data
            out[name] = (est if channels == len(mag) else est.mean(axis=0, keepdims=True)) * norm
    return out


def separate_spectrogram(x, estimate_mags: dict, wiener=True):
    """Per-source complex (ch, f, t) STFTs from the mixture STFT x and
    (ch, f, t) magnitude estimates: Wiener-filtered for a stereo x,
    soft-masked otherwise."""
    if wiener and len(x) == 2:
        return multichannel_wiener(x, estimate_mags)
    masks = soft_mask({n: m ** 2 for n, m in estimate_mags.items()})
    return {n: masks[n] * x for n in estimate_mags}


def _input_arch(models: dict, blend_with: dict | None):
    """The arch of the first model, once every model agrees with it on
    the input format: FFT size, sample rate and channel count."""
    named = list(models.items())
    named += [("blend " + n, m) for n, m in (blend_with or {}).items()]
    formats = {n: (m.spec.fft_size, m.spec.sample_rate, m.spec.io_channels)
               for n, m in named}
    if len(set(formats.values())) > 1:
        raise SeparationError(
            "models disagree on (fft_size, sample_rate, io_channels): %s"
            % ", ".join("%s %r" % item for item in formats.items()))
    return named[0][1].spec


def _resample(clip, rate, num_samples=None):
    """clip at `rate` (itself when it is at that rate), cut to num_samples."""
    if clip.sample_rate == rate:
        return clip
    # scipy.signal costs most of the CLI's import time, and only this path uses it
    from scipy.signal import resample_poly

    samples = resample_poly(clip.samples, rate, clip.sample_rate, axis=1)
    return AudioClip(samples[:, :num_samples], rate)


def separate_track(models: dict, clip: AudioClip, wiener=True,
                   blend_with=None, blend_weight=0.5) -> dict:
    """Separate a mixture clip into source clips plus the accompaniment
    (the waveform residual of the vocal extraction).

    models maps source names to models. The STFT size (hop a quarter of
    it) and the sample rate come from the models' arch `spec`. A clip at
    another rate is resampled to the arch's rate with
    scipy.signal.resample_poly and separated there; its stems are
    resampled back and cut to the clip's length, so the accompaniment
    is the residual at the clip's rate. With blend_with, a second
    name -> model map over the same sources, the magnitude estimates are
    blended as blend_weight * models + (1 - blend_weight) * blend_with.
    A single model is filtered against the spectral residual, so it
    still gets a two-source Wiener (or soft-mask) pass. A mono mixture
    goes to stereo models as estimate_magnitudes says, and is then
    soft-masked: a Wiener filter would need a stereo mixture.

    Raises SeparationError, before any model runs, when models is
    empty, blend_weight lies outside [0, 1], the blend covers other
    sources, the models disagree on FFT size, sample rate or channel
    count, the mixture has another channel count than the models (but
    mono for stereo models), or it holds a non-finite sample.
    """
    if not models:
        raise SeparationError("no source models given")
    if blend_with is not None:
        _check_blend(models, blend_with, blend_weight)
    arch = _input_arch(models, blend_with)
    channels = len(clip.samples)
    if channels != arch.io_channels and (channels, arch.io_channels) != (1, 2):
        raise SeparationError("a %d-channel mixture for %d-channel models"
                              % (channels, arch.io_channels))
    if not np.all(np.isfinite(clip.samples)):
        raise SeparationError("non-finite samples in the mixture")
    mixture = _resample(clip, arch.sample_rate)
    x = stft(mixture.samples, arch.fft_size)
    mags = estimate_magnitudes(models, np.abs(x))
    if blend_with is not None:
        mags = blend(mags, estimate_magnitudes(blend_with, np.abs(x)), blend_weight)
    if len(mags) == 1:
        # single-model runs still get a two-source Wiener pass against
        # the spectral residual
        mags["_rest"] = np.maximum(np.abs(x) - mags[next(iter(models))], 0.0)
    stems = separate_spectrogram(x, mags, wiener=wiener)
    out = {n: _resample(AudioClip(istft(stems[n], arch.fft_size, mixture.num_samples),
                                  arch.sample_rate), clip.sample_rate, clip.num_samples)
           for n in models}
    if "vocals" in out:
        residual = clip.samples - out["vocals"].samples
        out["accompaniment"] = AudioClip(residual, clip.sample_rate)
    return out
