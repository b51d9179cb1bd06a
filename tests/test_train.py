import contextlib
import dataclasses
import os
import sys
import time

import numpy as np
import pytest

from gradcheck import grad_check
from stemsep import autodiff as ad
from stemsep import dsp
from stemsep.arch import toy_arch
from stemsep import train as train_mod
from stemsep.model import build_model, load_checkpoint, save_checkpoint
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
from threads import (ONE_THREAD_HOSTS, fake_host, one_blas_thread, record_worker_jobs,
                     two_blas_threads)


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
    with pytest.raises(dsp.InputError, match="no track directories"):
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
    """A one-excerpt step runs on the caller alone: once a separation has
    made the row worker, the step gives it no job, leaves the BLAS
    thread count alone, and is bitwise the step before the separation."""
    monkeypatch.setattr(ad, "CONV_TILE_BYTES", 4 << 10)
    counts = fake_host(monkeypatch)
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


def toy_batch(toy_dir, n):
    """n 16-frame excerpts of the toy tracks, at different starts."""
    excerpts = []
    for i in range(n):
        clips = load_track(os.path.join(toy_dir, "track%02d" % (i % 2)))
        excerpts.append(make_excerpt(clips["mixture"], clips["vocals"], 7 * i, 16, fft_size=256))
    return excerpts


def step_record(monkeypatch, model, batch):
    """One train_step of model on batch: (loss, the gradients Adam was
    given, the BN buffers after the step)."""
    grads = []
    real_adam = train_mod.adam_step

    def adam(params, state):
        grads.extend(p.grad.copy() for p in params.values())
        real_adam(params, state)

    monkeypatch.setattr(train_mod, "adam_step", adam)
    loss = train_step(model, batch, AdamState())
    monkeypatch.setattr(train_mod, "adam_step", real_adam)
    return loss, grads, [b.copy() for _, b in model.named_buffers()]


def loop_record(model, batch):
    """The oracle of a step: forward -> loss -> backward of each excerpt
    on the model in turn, the gradients summed in one set. Returns what
    step_record does, without the Adam step."""
    model.set_training(True)
    model.zero_grad()
    losses = []
    for mix_mag, tgt_mag in batch:
        loss = mse_loss(model.forward(mix_mag), ad.constant(tgt_mag))
        ad.scale(loss, 1.0 / len(batch)).backward()
        losses.append(float(loss.data))
    return (float(np.mean(losses)), [p.grad.copy() for _, p in model.named_params()],
            [b.copy() for _, b in model.named_buffers()])


GRAD_RTOL = {np.float32: 1e-4, np.float64: 1e-12}  # of the largest |gradient|, split vs loop


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["Sa", "Sb", "P"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_split_step_matches_the_sequential_loop(toy_dir, monkeypatch, n, mode, dtype):
    """A step of n excerpts split across two threads, the worker taking
    the last n // 2, against a loop over the excerpts that sums their
    gradients in one set (loop_record) at one BLAS thread: the loss and
    every BN running mean and variance bitwise, every gradient within
    GRAD_RTOL of the largest one."""
    batch = toy_batch(toy_dir, n)
    spec = dataclasses.replace(toy_arch(), mode=mode)
    with two_blas_threads(monkeypatch) as blas:
        jobs = record_worker_jobs(monkeypatch)
        with one_blas_thread(blas):
            want_loss, want_grads, want_stats = loop_record(
                build_model(spec, seed=11).astype(dtype), batch)
        loss, grads, stats = step_record(monkeypatch, build_model(spec, seed=11).astype(dtype),
                                         batch)
        assert len(jobs) == 1
    assert loss == want_loss
    for got, want in zip(stats, want_stats, strict=True):
        np.testing.assert_array_equal(got, want, strict=True)
    atol = GRAD_RTOL[dtype] * max(np.abs(g).max() for g in want_grads)
    assert len(grads) == len(want_grads)
    for got, want in zip(grads, want_grads):
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)


def test_split_training_is_bitwise_reproducible(toy_dir, monkeypatch):
    """Criterion 10 with the split: two training runs of 3 excerpts per
    step give bitwise-equal loss traces and parameters."""
    fake_host(monkeypatch)
    jobs = record_worker_jobs(monkeypatch)
    results = []
    for _ in range(2):
        model = build_model(toy_arch(), seed=2)
        trace = train(model, toy_dir, toy_config(seed=5, steps_per_epoch=3, excerpts_per_step=3))
        results.append((trace, [p.data.copy() for _, p in model.named_params()]))
    assert len(jobs) == 6
    assert results[0][0] == results[1][0]
    for a, b in zip(results[0][1], results[1][1]):
        np.testing.assert_array_equal(a, b, strict=True)


def test_split_steps_stay_bitwise_under_frequent_thread_switches(toy_dir, monkeypatch):
    """30 split steps with the interpreter switching threads every
    microsecond give the loss trace and parameters of the same steps at
    the default switch interval."""
    fake_host(monkeypatch)
    batch = toy_batch(toy_dir, 2)
    runs = []
    for interval in (sys.getswitchinterval(), 1e-6):
        model, state = build_model(toy_arch(), seed=6), AdamState()
        before = sys.getswitchinterval()
        sys.setswitchinterval(interval)
        try:
            losses = [train_step(model, batch, state) for _ in range(30)]
        finally:
            sys.setswitchinterval(before)
        runs.append((losses, [p.data.copy() for _, p in model.named_params()]))
    assert runs[0][0] == runs[1][0]
    for a, b in zip(runs[0][1], runs[1][1]):
        np.testing.assert_array_equal(a, b, strict=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["Sa", "Sb", "P"])
@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("host", [*ONE_THREAD_HOSTS, "inside row_threads"])
def test_train_step_runs_its_second_half_inline_without_a_worker(toy_dir, monkeypatch, host,
                                                                 n, mode, dtype):
    """Where the worker cannot use a second core, the step runs its
    second half inline: it gives the worker no job, leaves the BLAS
    thread count as it found it, and is bitwise the threaded step at one
    BLAS thread: the loss, the gradients Adam gets and the running
    statistics."""
    batch = toy_batch(toy_dir, n)
    spec = dataclasses.replace(toy_arch(), mode=mode)
    with two_blas_threads(monkeypatch) as blas:
        jobs = record_worker_jobs(monkeypatch)
        want = step_record(monkeypatch, build_model(spec, seed=11).astype(dtype), batch)
        assert len(jobs) == 1
        with one_blas_thread(blas):
            counts = fake_host(monkeypatch, *ONE_THREAD_HOSTS.get(host, (2, 2)))
            with ad.row_threads() if host == "inside row_threads" else contextlib.nullcontext():
                before = list(counts)
                got = step_record(monkeypatch, build_model(spec, seed=11).astype(dtype), batch)
                assert counts == before
        assert len(jobs) == 1
    assert got[0] == want[0]
    for a, b in zip(got[1] + got[2], want[1] + want[2], strict=True):
        np.testing.assert_array_equal(a, b, strict=True)


@pytest.mark.parametrize("bad", [0, 3])
def test_split_step_raises_the_sequential_error_after_both_halves(toy_dir, monkeypatch, bad):
    """A non-finite excerpt in the caller's half (0) or the worker's (3)
    of 4: the split step raises the error the step at one BLAS thread,
    which runs the halves in turn, raises first, once the worker's half
    has finished, with BLAS back at two threads, and leaves the running
    statistics as that step does, as a loop over the excerpts would. In
    the caller's case the worker's half fails too, with another error,
    which is not the one raised; it is slowed so that it ends last."""
    batch = toy_batch(toy_dir, 4)
    batch[bad] = (np.full_like(batch[bad][0], np.nan), batch[bad][1])
    if bad == 0:
        batch[2] = (batch[2][0], batch[2][1][:, :-1])  # a target of the wrong shape
    counts = fake_host(monkeypatch, threads=1)
    model = build_model(toy_arch(), seed=9)
    with pytest.raises(ad.NumericError, match="model input") as want:
        train_step(model, batch, AdamState())
    want_stats = [b.copy() for _, b in model.named_buffers()]

    counts.append(2)
    events = []
    worker = ad._row_worker()

    class Slow:
        def submit(self, fn, *args):
            def job():
                time.sleep(0.2 if bad == 0 else 0)
                try:
                    return fn(*args)
                finally:
                    events.append("worker done")

            return worker.submit(job)

    monkeypatch.setattr(ad, "_row_worker", Slow)
    model = build_model(toy_arch(), seed=9)
    with pytest.raises(ad.NumericError, match="model input") as got:
        train_step(model, batch, AdamState())
    assert events == ["worker done"] and counts == [1, 2, 1, 2]
    assert str(got.value) == str(want.value)
    for a, (_, b) in zip(want_stats, model.named_buffers()):
        np.testing.assert_array_equal(a, b, strict=True)


def test_split_step_after_load_checkpoint_uses_the_loaded_weights(toy_dir, monkeypatch, tmp_path):
    """Loading a checkpoint into a model that has taken split steps
    replaces its parameter arrays; the next split step runs both halves
    on the loaded ones, bitwise as a fresh model of those weights."""
    fake_host(monkeypatch)
    batch = toy_batch(toy_dir, 2)
    source = build_model(toy_arch(), seed=12)
    save_checkpoint(tmp_path / "w.ckpt", source)
    model = build_model(toy_arch(), seed=13)
    train_step(model, batch, AdamState())
    load_checkpoint(tmp_path / "w.ckpt", model)
    runs = [(train_step(m, batch, AdamState()), [p.data.copy() for _, p in m.named_params()])
            for m in (model, source)]
    assert runs[0][0] == runs[1][0]
    for a, b in zip(runs[0][1], runs[1][1]):
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
