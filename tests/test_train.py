import os

import numpy as np
import pytest

from gradcheck import grad_check
from stemsep import autodiff as ad
from stemsep import dsp
from stemsep.arch import toy_arch
from stemsep.model import build_model
from stemsep.separation import separate_track
from stemsep.train import (
    AdamState,
    TrainConfig,
    TrainError,
    adam_step,
    augment,
    build_excerpts,
    list_tracks,
    load_track,
    make_excerpt,
    make_toy_dataset,
    mse_loss,
    train,
    train_step,
)
from threads import fake_blas, record_worker_jobs


# ---------------------------------------------------------------------------
# loss


def test_mse_zero_for_equal_inputs():
    x = ad.constant(np.arange(12.0).reshape(3, 4))
    assert mse_loss(x, x).data == 0.0


def test_mse_constant_offset():
    x = ad.constant(np.zeros((2, 5)))
    y = ad.constant(np.full((2, 5), 0.3))
    assert mse_loss(x, y).data == pytest.approx(0.09, rel=1e-12)


def test_mse_gradient_matches_closed_form_and_finite_differences():
    rng = np.random.default_rng(0)
    pred = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    target = ad.constant(rng.standard_normal((3, 4)))
    loss = mse_loss(pred, target)
    loss.backward()
    np.testing.assert_allclose(
        pred.grad, 2.0 * (pred.data - target.data) / pred.data.size, rtol=1e-12
    )
    report = grad_check(lambda: mse_loss(pred, target), [("pred", pred)],
                        rng=np.random.default_rng(1))
    assert report["passed"]


def test_mse_rejects_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        mse_loss(ad.constant(np.zeros((2, 2))), ad.constant(np.zeros(4)))


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_is_signed_learning_rate():
    p = ad.Tensor(np.zeros(3), requires_grad=True)
    p.grad = np.array([0.5, -2.0, 1e-3])
    state = AdamState(alpha=0.01)
    adam_step({"p": p}, state)
    expected = -0.01 * p.grad / (np.abs(p.grad) + state.eps)
    np.testing.assert_allclose(p.data, expected, rtol=1e-6)


def test_adam_zero_gradient_is_noop():
    p = ad.Tensor(np.ones(4), requires_grad=True)
    p.grad = np.zeros(4)
    adam_step({"p": p}, AdamState(alpha=0.1))
    np.testing.assert_array_equal(p.data, 1.0)


def test_adam_zero_learning_rate_is_noop():
    p = ad.Tensor(np.ones(4), requires_grad=True)
    p.grad = np.ones(4)
    adam_step({"p": p}, AdamState(alpha=0.0))
    np.testing.assert_array_equal(p.data, 1.0)


def test_adam_quadratic_bowl_convergence():
    rng = np.random.default_rng(2)
    target = rng.standard_normal(6)
    p = ad.Tensor(np.zeros(6), requires_grad=True)
    state = AdamState(alpha=0.1)
    for _ in range(500):
        p.grad = 2.0 * (p.data - target)
        adam_step({"p": p}, state)
    assert float(np.mean((p.data - target) ** 2)) < 1e-8


# ---------------------------------------------------------------------------
# augmentation


def source_clips(rng, n=8000, sr=8000):
    return {
        name: dsp.AudioClip(0.1 * rng.standard_normal((2, n)), sr)
        for name in ("bass", "drums", "other", "vocals")
    }


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_augment_mixture_is_sum_of_outputs(seed):
    rng = np.random.default_rng(4)
    clips = source_clips(rng)
    mixture, out = augment(clips, seed=seed)
    np.testing.assert_allclose(
        mixture.samples, sum(c.samples for c in out.values()), atol=1e-15
    )
    for name in clips:
        assert out[name].samples.shape == clips[name].samples.shape


def test_augment_gain_scales_stft_magnitude():
    rng = np.random.default_rng(5)
    clip = dsp.AudioClip(0.1 * rng.standard_normal((2, 4096)), 8000)
    doubled = dsp.AudioClip(2.0 * clip.samples, 8000)
    m1 = np.abs(dsp.stft(clip.samples, fft_size=256))
    m2 = np.abs(dsp.stft(doubled.samples, fft_size=256))
    np.testing.assert_allclose(m2, 2.0 * m1, rtol=1e-10, atol=1e-14)


def test_augment_is_reproducible():
    rng = np.random.default_rng(6)
    clips = source_clips(rng)
    m1, o1 = augment(clips, seed=42)
    m2, o2 = augment(clips, seed=42)
    np.testing.assert_array_equal(m1.samples, m2.samples)
    for n in o1:
        np.testing.assert_array_equal(o1[n].samples, o2[n].samples)


# ---------------------------------------------------------------------------
# toy dataset


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toydata")
    make_toy_dataset(out, seed=7, n_tracks=2, duration_s=3.0, sample_rate=8000)
    return out


def test_toy_mixture_is_exact_stem_sum(toy_dir):
    clips = load_track(os.path.join(toy_dir, "track00"))
    total = sum(clips[n].samples for n in ("bass", "drums", "other", "vocals"))
    np.testing.assert_array_equal(clips["mixture"].samples, total)


def test_toy_dataset_is_reproducible(tmp_path):
    make_toy_dataset(tmp_path / "a", seed=7, n_tracks=1, duration_s=1.0,
                     sample_rate=8000)
    make_toy_dataset(tmp_path / "b", seed=7, n_tracks=1, duration_s=1.0,
                     sample_rate=8000)
    for name in ("mixture", "bass", "drums", "other", "vocals"):
        ca = dsp.read_wav(tmp_path / "a" / "track00" / (name + ".wav"))
        cb = dsp.read_wav(tmp_path / "b" / "track00" / (name + ".wav"))
        np.testing.assert_array_equal(ca.samples, cb.samples)


def test_toy_tracks_differ_across_indices(toy_dir):
    a = dsp.read_wav(os.path.join(toy_dir, "track00", "mixture.wav"))
    b = dsp.read_wav(os.path.join(toy_dir, "track01", "mixture.wav"))
    assert not np.array_equal(a.samples, b.samples)


def test_list_tracks(toy_dir, tmp_path):
    tracks = list_tracks(toy_dir)
    assert len(tracks) == 2
    with pytest.raises(TrainError):
        list_tracks(tmp_path)


# ---------------------------------------------------------------------------
# excerpts and training loop


def toy_config(**overrides):
    base = dict(source="vocals", frames_per_excerpt=16, excerpts_per_step=1,
                steps_per_epoch=2, epochs=1, learning_rate=1e-3, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(TrainError):
        toy_config(frames_per_excerpt=8)
    with pytest.raises(TrainError):
        toy_config(source="keyboard")


def test_excerpt_is_normalized_and_shaped(toy_dir):
    clips = load_track(os.path.join(toy_dir, "track00"))
    mix, tgt = make_excerpt(clips["mixture"], clips["vocals"], 2, 16, fft_size=256)
    assert mix.shape == (2, 129, 16) and tgt.shape == mix.shape
    assert np.sqrt((mix ** 2).mean()) == pytest.approx(1.0, rel=1e-9)
    assert np.all(mix >= 0) and np.all(tgt >= 0)


def test_build_excerpts_deterministic(toy_dir):
    cfg = toy_config()
    tracks = list_tracks(toy_dir)
    a = build_excerpts(tracks, cfg, np.random.default_rng(0), 256)
    b = build_excerpts(tracks, cfg, np.random.default_rng(0), 256)
    for (ma, ta), (mb, tb) in zip(a, b):
        np.testing.assert_array_equal(ma, mb)
        np.testing.assert_array_equal(ta, tb)


def test_loss_decreases_on_fixed_batch(toy_dir):
    model = build_model(toy_arch(), seed=0)
    clips = load_track(os.path.join(toy_dir, "track00"))
    batch = [make_excerpt(clips["mixture"], clips["vocals"], 0, 16, fft_size=256)]
    state = AdamState(alpha=1e-4)
    losses = [train_step(model, batch, state) for _ in range(10)]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_train_step_takes_the_sequential_path(toy_dir, monkeypatch):
    """Training opens no row_threads scope: once a separation has made
    the row worker, a train step gives it no job, leaves the BLAS thread
    count alone, and is bitwise the train step before the separation."""
    monkeypatch.setattr(ad, "CONV_TILE_BYTES", 4 << 10)
    counts = fake_blas(monkeypatch)
    jobs = record_worker_jobs(monkeypatch)
    clips = load_track(os.path.join(toy_dir, "track00"))
    batch = [make_excerpt(clips["mixture"], clips["vocals"], 0, 16, fft_size=256)]
    steps = []
    for separate_first in (False, True):
        model = build_model(toy_arch(), seed=3)
        if separate_first:
            separate_track({"vocals": model}, clips["mixture"])
            assert jobs and counts == [2, 1, 2]
        split = len(jobs)
        loss = train_step(model, batch, AdamState())
        assert len(jobs) == split and counts[-1] == 2 and len(counts) == 1 + 2 * separate_first
        steps.append([loss] + [p.data.copy() for _, p in model.named_params()])
    assert steps[0][0] == steps[1][0]
    for a, b in zip(*steps):
        np.testing.assert_array_equal(a, b, strict=True)


def test_train_zero_lr_keeps_params(toy_dir):
    model = build_model(toy_arch(), seed=1)
    before = {k: v.data.copy() for k, v in model.named_params()}
    train(model, toy_dir, toy_config(learning_rate=0.0))
    for k, v in model.named_params():
        np.testing.assert_array_equal(v.data, before[k])


def test_train_is_bitwise_reproducible(toy_dir):
    results = []
    for _ in range(2):
        model = build_model(toy_arch(), seed=2)
        trace = train(model, toy_dir, toy_config(seed=5, steps_per_epoch=3))
        results.append((trace, {k: v.data.copy() for k, v in model.named_params()}))
    assert results[0][0] == results[1][0]
    for k in results[0][1]:
        np.testing.assert_array_equal(results[0][1][k], results[1][1][k])


def test_train_writes_csv_log(toy_dir, tmp_path):
    log = tmp_path / "loss.csv"
    model = build_model(toy_arch(), seed=3)
    trace = train(model, toy_dir, toy_config(log_path=str(log)))
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "step,epoch,loss"
    assert len(lines) == len(trace) + 1


def test_train_log_keeps_rows_of_finished_steps(toy_dir, tmp_path, monkeypatch):
    import stemsep.train as train_mod

    calls = []
    real_step = train_mod.train_step

    def step(*args):
        calls.append(None)
        if len(calls) == 2:
            raise TrainError("stopped in step 2")
        return real_step(*args)

    monkeypatch.setattr(train_mod, "train_step", step)
    log = tmp_path / "loss.csv"
    model = build_model(toy_arch(), seed=3)
    with pytest.raises(TrainError, match="step 2"):
        train(model, toy_dir, toy_config(log_path=str(log)))
    lines = log.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "step,epoch,loss"
    assert lines[1].startswith("0,0,")


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_loss_aborts():
    model = build_model(toy_arch(), seed=4)
    mix = np.full((2, 129, 16), 1e200)
    with pytest.raises((TrainError, ad.NumericError)):
        train_step(model, [(mix, mix)], AdamState())
