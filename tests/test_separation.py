import warnings

import numpy as np
import pytest

from stemsep import autodiff as ad
from stemsep import dsp, separation
from stemsep.arch import default_arch, toy_arch
from stemsep.model import build_model
from stemsep.separation import (
    SeparationError,
    blend,
    ideal_binary_mask,
    multichannel_wiener,
    separate_spectrogram,
    separate_track,
    soft_mask,
)
from threads import (ONE_THREAD_HOSTS, fake_host, one_blas_thread, record_worker_jobs,
                     two_blas_threads)


# ---------------------------------------------------------------------------
# ideal binary mask


def test_ibm_disjoint_supports():
    a = np.zeros((1, 4, 4))
    b = np.zeros((1, 4, 4))
    a[:, :2, :] = 1.0
    b[:, 2:, :] = 1.0
    masks = ideal_binary_mask({"a": a, "b": b})
    np.testing.assert_array_equal(masks["a"], a)
    np.testing.assert_array_equal(masks["b"], b)
    mixture = a + b
    np.testing.assert_array_equal(masks["a"] * mixture, a)


def test_ibm_tie_goes_to_first_source():
    a = np.ones((1, 2, 2))
    b = np.ones((1, 2, 2))
    masks = ideal_binary_mask({"a": a, "b": b})
    np.testing.assert_array_equal(masks["a"], 1.0)
    np.testing.assert_array_equal(masks["b"], 0.0)


def test_ibm_matches_brute_force_argmax():
    rng = np.random.default_rng(0)
    sources = {n: rng.random((2, 4, 4)) for n in ("x", "y", "z")}
    masks = ideal_binary_mask(sources)
    names = list(sources)
    for c in range(2):
        for i in range(4):
            for j in range(4):
                vals = [sources[n][c, i, j] for n in names]
                win = names[int(np.argmax(vals))]
                for n in names:
                    assert masks[n][c, i, j] == (1.0 if n == win else 0.0)
    total = sum(masks.values())
    np.testing.assert_array_equal(total, 1.0)
    for m in masks.values():
        assert set(np.unique(m)) <= {0.0, 1.0}


def test_ibm_rejects_bad_input():
    with pytest.raises(SeparationError):
        ideal_binary_mask({"only": np.ones((1, 2, 2))})
    with pytest.raises(SeparationError):
        ideal_binary_mask({"a": np.ones((1, 2, 2)), "b": np.ones((1, 3, 2))})


# ---------------------------------------------------------------------------
# soft mask


def test_soft_mask_ratios():
    masks = soft_mask({"a": np.full((1, 1, 1), 1.0), "b": np.full((1, 1, 1), 3.0)})
    np.testing.assert_allclose(masks["a"], 0.25, rtol=1e-9)
    np.testing.assert_allclose(masks["b"], 0.75, rtol=1e-9)


def test_soft_mask_single_active_source():
    masks = soft_mask({"a": np.ones((1, 2, 2)), "b": np.zeros((1, 2, 2))})
    np.testing.assert_allclose(masks["a"], 1.0, rtol=1e-9)
    np.testing.assert_allclose(masks["b"], 0.0)


def test_soft_masked_estimates_sum_to_mixture():
    rng = np.random.default_rng(1)
    powers = {n: rng.random((2, 5, 6)) for n in ("a", "b", "c")}
    mixture = rng.standard_normal((2, 5, 6))
    masks = soft_mask(powers)
    recon = sum(masks[n] * mixture for n in powers)
    np.testing.assert_allclose(recon, mixture, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# multichannel Wiener


def random_stft(rng, f=8, t=10):
    return rng.standard_normal((2, f, t)) + 1j * rng.standard_normal((2, f, t))


def test_wiener_single_source_recovers_mixture():
    rng = np.random.default_rng(2)
    x = random_stft(rng)
    est = {"solo": np.abs(x)}
    out = multichannel_wiener(x, est)
    np.testing.assert_allclose(out["solo"], x, rtol=1e-6)


def test_wiener_conservation():
    rng = np.random.default_rng(3)
    x = random_stft(rng, f=16, t=12)
    est = {n: np.abs(random_stft(rng, 16, 12)) for n in ("a", "b", "c")}
    out = multichannel_wiener(x, est)
    total = sum(out.values())
    err = np.abs(total - x).max() / np.abs(x).max()
    assert err < 1e-6


def test_wiener_identity_covariance_reduces_to_soft_mask():
    rng = np.random.default_rng(4)
    x = random_stft(rng)
    est = {n: np.abs(random_stft(rng)) for n in ("a", "b")}
    out = multichannel_wiener(x, est, force_identity_covariance=True)
    powers = {n: (est[n] ** 2).mean(axis=0) for n in est}
    masks = soft_mask(powers)
    for n in est:
        np.testing.assert_allclose(out[n], masks[n][None] * x, rtol=1e-5, atol=1e-8)


def _invert_2x2_hermitian(m):
    """Vectorized inverse of (..., 2, 2) Hermitian matrices."""
    a = m[..., 0, 0]
    b = m[..., 0, 1]
    c = m[..., 1, 0]
    d = m[..., 1, 1]
    det = a * d - b * c
    inv = np.empty_like(m)
    inv[..., 0, 0] = d / det
    inv[..., 0, 1] = -b / det
    inv[..., 1, 0] = -c / det
    inv[..., 1, 1] = a / det
    return inv


def wiener_reference(mixture_stft, estimate_mags: dict,
                     force_identity_covariance=False) -> dict:
    """The batched 2x2 matrix form the closed-form filter replaced: it
    builds (f, t, 2, 2) outer products, mixture covariance, inverse and
    per-source filters, and multiplies them with stacked @."""
    x = np.asarray(mixture_stft)
    if x.ndim != 3 or x.shape[0] != 2:
        raise SeparationError("expected a stereo (2, f, t) mixture STFT")
    names = list(estimate_mags)
    if not names:
        raise SeparationError("no source estimates given")
    for n in names:
        if np.asarray(estimate_mags[n]).shape != x.shape:
            raise SeparationError("estimate %r shape mismatch" % n)

    _, f, t = x.shape
    if not np.any(x):
        return {n: np.zeros_like(x) for n in names}
    # per-source power: channel mean of squared magnitudes -> (src, f, t)
    v = np.stack([
        (np.asarray(estimate_mags[n]) ** 2).mean(axis=0) for n in names
    ])

    xt = x.transpose(1, 2, 0)  # (f, t, 2)
    outer = xt[..., :, None] * np.conj(xt[..., None, :])  # (f, t, 2, 2)

    eye = np.eye(2, dtype=complex)
    cov = np.empty((len(names), f, 2, 2), dtype=complex)
    if force_identity_covariance:
        cov[:] = eye
    else:
        for j in range(len(names)):
            w = v[j][..., None, None]  # (f, t, 1, 1)
            num = (w * outer).sum(axis=1)  # (f, 2, 2)
            den = v[j].sum(axis=1)[:, None, None]
            r = np.divide(num, den, out=np.tile(eye, (f, 1, 1)).astype(complex),
                          where=den > 0)
            trace = np.real(r[:, 0, 0] + r[:, 1, 1])
            safe = trace > 0
            r[safe] *= (2.0 / trace[safe])[:, None, None]
            r[~safe] = eye
            cov[j] = r

    # per-bin mix model: sum_k v_k R_k + eps I
    mix_cov = np.zeros((f, t, 2, 2), dtype=complex)
    for j in range(len(names)):
        mix_cov += v[j][..., None, None] * cov[j][:, None, :, :]
    eps = separation.WIENER_EPS_SCALE * max(float((np.abs(x) ** 2).mean()), 1e-300)
    mix_cov += eps * eye
    inv_mix = _invert_2x2_hermitian(mix_cov)

    out = {}
    for j, n in enumerate(names):
        wj = v[j][..., None, None] * (cov[j][:, None, :, :] @ inv_mix)
        yj = (wj @ xt[..., :, None])[..., 0]  # (f, t, 2)
        out[n] = yj.transpose(2, 0, 1)
    return out


def assert_matches_wiener_reference(x, est, identity, rtol=1e-12):
    out = multichannel_wiener(x, est, force_identity_covariance=identity)
    ref = wiener_reference(x, est, force_identity_covariance=identity)
    assert list(out) == list(ref)
    scale = max(np.abs(y).max() for y in ref.values())
    for n in ref:
        assert out[n].shape == ref[n].shape == x.shape
        assert np.abs(out[n] - ref[n]).max() <= rtol * scale, n


@pytest.mark.parametrize("identity", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("f,t,sources", [(16, 12, 3), (1, 12, 2), (7, 9, 1), (33, 40, 4)])
def test_wiener_matches_batched_matrix_reference(f, t, sources, dtype, identity):
    rng = np.random.default_rng(f * 100 + t)
    x = random_stft(rng, f, t)
    est = {"s%d" % j: np.abs(random_stft(rng, f, t)).astype(dtype) for j in range(sources)}
    assert_matches_wiener_reference(x, est, identity)


@pytest.mark.parametrize("identity", [False, True])
def test_wiener_matches_reference_with_silent_source_and_row(identity):
    rng = np.random.default_rng(8)
    x = random_stft(rng, 10, 12)
    x[:, 3, :] = 0.0  # a frequency row where the mixture is zero
    est = {"a": np.abs(random_stft(rng, 10, 12)), "silent": np.zeros((2, 10, 12)),
           "b": np.abs(random_stft(rng, 10, 12))}
    assert_matches_wiener_reference(x, est, identity)
    out = multichannel_wiener(x, est, force_identity_covariance=identity)
    np.testing.assert_array_equal(out["silent"], 0.0)


@pytest.mark.parametrize("level", [1e-6, 1.0])
@pytest.mark.parametrize("f", [1, 6])
def test_wiener_matches_reference_on_one_frame(f, level):
    """With one frame, every R_j is the same rank-1 matrix 2 x x^H / |x|^2,
    so the mixture covariance is rank 1 plus eps I, with condition number
    1 + 2 V / eps (V the summed source power). Both implementations lose
    about that factor of the working precision in the determinant, so the
    reference tolerance is scaled by it: estimates at level 1e-6 of the
    mixture keep it near 1, estimates at the mixture's level make it
    about 1e10. The identity covariance keeps the plain tolerance."""
    rng = np.random.default_rng(9)
    x = random_stft(rng, f, 1)
    est = {n: level * np.abs(random_stft(rng, f, 1)) for n in ("a", "b")}
    assert_matches_wiener_reference(x, est, identity=True)
    eps = separation.WIENER_EPS_SCALE * float((np.abs(x) ** 2).mean())
    power = sum((m ** 2).mean(axis=0) for m in est.values())
    cond = 1 + 2 * power.max() / eps
    assert cond < 1.1 if level < 1 else cond > 1e9
    assert_matches_wiener_reference(x, est, identity=False, rtol=1e-12 * cond)


def test_wiener_rejects_bad_input():
    rng = np.random.default_rng(5)
    x = random_stft(rng)
    with pytest.raises(SeparationError):
        multichannel_wiener(x[:1], {"a": np.abs(x)})
    with pytest.raises(SeparationError):
        multichannel_wiener(x, {})
    with pytest.raises(SeparationError):
        multichannel_wiener(x, {"a": np.ones((2, 3, 3))})


# ---------------------------------------------------------------------------
# blend


def test_blend_endpoints_and_midpoint():
    rng = np.random.default_rng(6)
    a = {"s": rng.random((2, 3, 3))}
    b = {"s": rng.random((2, 3, 3))}
    np.testing.assert_array_equal(blend(a, b, 1.0)["s"], a["s"])
    np.testing.assert_array_equal(blend(a, b, 0.0)["s"], b["s"])
    np.testing.assert_allclose(blend(a, b, 0.5)["s"], (a["s"] + b["s"]) / 2)
    with pytest.raises(SeparationError):
        blend(a, b, 1.5)
    with pytest.raises(SeparationError):
        blend(a, {"t": b["s"]}, 0.5)


# ---------------------------------------------------------------------------
# pipeline


def synth_two_source_mixture(rng, n=44100):
    t = np.arange(n) / 44100.0
    low = 0.3 * np.sin(2 * np.pi * 220.0 * t)
    high = 0.2 * np.sin(2 * np.pi * 6000.0 * t)
    src_a = np.stack([low, 0.8 * low])
    src_b = np.stack([0.7 * high, high])
    return src_a, src_b


def test_oracle_substitution_recovers_sources():
    rng = np.random.default_rng(7)
    src_a, src_b = synth_two_source_mixture(rng)
    x = dsp.stft(src_a + src_b)
    masks = ideal_binary_mask({"a": np.abs(dsp.stft(src_a)), "b": np.abs(dsp.stft(src_b))})
    est = {n: masks[n] * np.abs(x) for n in masks}
    out_specs = separate_spectrogram(x, est, wiener=True)
    for name, ref in (("a", src_a), ("b", src_b)):
        rec = dsp.istft(out_specs[name], dsp.DEFAULT_FFT_SIZE, ref.shape[1])
        interior = slice(4096, rec.shape[1] - 4096)
        err = np.sqrt(np.mean((rec[:, interior] - ref[:, interior]) ** 2))
        ref_rms = np.sqrt(np.mean(ref[:, interior] ** 2))
        assert err < 0.05 * ref_rms


class ConstantFractionModel:
    """Stand-in for a trained model: returns a fixed fraction of input.
    Its arch is the default one (4096-point FFT at 44.1 kHz)."""

    spec = default_arch()

    def __init__(self, fraction):
        self.fraction = fraction

    def set_training(self, flag):
        pass

    def forward(self, mag):
        from stemsep import autodiff as ad

        return ad.constant(self.fraction * mag)


def test_separate_track_zero_clip_gives_zero_outputs():
    clip = dsp.AudioClip(np.zeros((2, 20000)))
    out = separate_track({"vocals": ConstantFractionModel(0.5)}, clip)
    for est in out.values():
        np.testing.assert_allclose(est.samples, 0.0, atol=1e-12)


def test_accompaniment_is_exact_residual():
    rng = np.random.default_rng(8)
    clip = dsp.AudioClip(0.1 * rng.standard_normal((2, 30000)))
    out = separate_track({"vocals": ConstantFractionModel(0.4)}, clip)
    np.testing.assert_allclose(
        out["vocals"].samples + out["accompaniment"].samples,
        clip.samples,
        atol=1e-12,
    )


def test_separate_track_requires_models():
    with pytest.raises(SeparationError):
        separate_track({}, dsp.AudioClip(np.zeros((2, 1000))))


def test_separate_track_takes_fft_size_and_rate_from_the_model():
    rng = np.random.default_rng(9)
    clip = dsp.AudioClip(0.1 * rng.standard_normal((2, 4000)), sample_rate=8000)
    model = build_model(toy_arch(), seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = separate_track({"vocals": model}, clip)
    assert sorted(out) == ["accompaniment", "vocals"]
    for est in out.values():
        assert est.samples.shape == clip.samples.shape
        assert est.sample_rate == 8000


def test_separation_is_reproducible_with_row_threads(monkeypatch):
    """Criterion 10 with threads on: separate_track, its forwards split
    across two threads, gives bitwise the same stems twice, and those of
    the sequential forwards at one BLAS thread; BLAS gets its two
    threads back."""
    monkeypatch.setattr(ad, "CONV_TILE_BYTES", 4 << 10)
    rng = np.random.default_rng(10)
    clip = dsp.AudioClip(0.1 * rng.standard_normal((2, 4000)), sample_rate=8000)
    models = {"vocals": build_model(toy_arch(), seed=11), "drums": build_model(toy_arch(), seed=12)}
    with two_blas_threads(monkeypatch) as blas:
        jobs = record_worker_jobs(monkeypatch)
        runs = [separate_track(models, clip) for _ in range(2)]
        assert jobs and blas[0]() == 2
        split = len(jobs)
        fake_host(monkeypatch, *ONE_THREAD_HOSTS["no BLAS control"])
        with one_blas_thread(blas):
            runs.append(separate_track(models, clip))
        assert len(jobs) == split
    assert sorted(runs[0]) == ["accompaniment", "drums", "vocals"]
    for run in runs[1:]:
        for name, stem in run.items():
            np.testing.assert_array_equal(stem.samples, runs[0][name].samples, strict=True)
