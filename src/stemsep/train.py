"""MSE training with Adam, augmentation, dataset loading and toy data.

Training minimizes the mean squared error between the model's magnitude
estimate and the isolated target source's magnitude, computed on
mixture-RMS-normalized spectrogram excerpts. Runs are bitwise
reproducible given (seed, config, dataset).
"""

from __future__ import annotations

import contextlib
import copy
import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .dsp import DEFAULT_FFT_SIZE, AudioClip, InputError, hop_size, read_wav, stft, write_wav
from .layers import BatchNorm2d
from .separation import SOURCE_NAMES, normalize_magnitude


class TrainError(RuntimeError):
    pass


class ExcerptError(ValueError):
    """A dataset track too short for the excerpts training cuts from it."""


# ---------------------------------------------------------------------------
# loss


def mse_loss(pred: ad.Tensor, target: ad.Tensor) -> ad.Tensor:
    if pred.data.shape != target.data.shape:
        raise ad.ShapeError(
            "loss shape mismatch: %r vs %r" % (pred.data.shape, target.data.shape)
        )
    diff = ad.sub(pred, target)
    return ad.tmean(ad.mul(diff, diff))


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Per-parameter first/second moment estimates plus the step count."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    alpha: float = 1e-3
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, state: AdamState) -> None:
    """One in-place Adam update from the accumulated gradients.

    params maps name -> Tensor with .grad populated by backward().
    """
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        p.data -= state.alpha * m_hat / (np.sqrt(v_hat) + state.eps)


# ---------------------------------------------------------------------------
# augmentation


def augment(sources: dict, seed):
    """Random remix of aligned source clips.

    Per source: a random circular offset of up to 2 s, a channel swap
    with probability 1/2 (stereo only), and a random gain in
    [0.25, 1.25). Returns (mixture, augmented sources); the mixture is
    always the exact sample-wise sum of what is returned.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for name in sorted(sources):
        clip = sources[name]
        shift = int(rng.integers(0, max(1, int(2.0 * clip.sample_rate))))
        x = np.roll(clip.samples, shift, axis=1)
        if x.shape[0] == 2 and rng.random() < 0.5:
            x = x[::-1]
        x = x * rng.uniform(0.25, 1.25)
        out[name] = AudioClip(np.ascontiguousarray(x), clip.sample_rate)
    mixture = AudioClip(
        np.sum([c.samples for c in out.values()], axis=0),
        next(iter(out.values())).sample_rate,
    )
    return mixture, out


# ---------------------------------------------------------------------------
# datasets


def list_tracks(root):
    """Track directories under a MUSDB-style layout (one dir per song)."""
    tracks = sorted(
        d for d in os.listdir(root)
        if os.path.isfile(os.path.join(root, d, "mixture.wav"))
    )
    if not tracks:
        raise InputError("no track directories with mixture.wav under %r" % root)
    return [os.path.join(root, d) for d in tracks]


def load_track(track_dir):
    """Load mixture.wav plus whichever source stems exist."""
    clips = {"mixture": read_wav(os.path.join(track_dir, "mixture.wav"))}
    for name in SOURCE_NAMES:
        path = os.path.join(track_dir, name + ".wav")
        if os.path.isfile(path):
            clips[name] = read_wav(path)
    if len(clips) == 1:
        raise InputError("track %r has no source stems" % track_dir)
    return clips


@dataclass
class TrainConfig:
    source: str = "vocals"
    frames_per_excerpt: int = 256
    excerpts_per_step: int = 1
    steps_per_epoch: int = 8
    epochs: int = 1
    learning_rate: float = 1e-3
    seed: int = 0
    augment: bool = False
    log_path: str | None = None

    def __post_init__(self):
        if self.frames_per_excerpt < 16:
            raise TrainError("frames_per_excerpt must be >= 16")
        for name in ("excerpts_per_step", "steps_per_epoch"):
            if getattr(self, name) < 1:
                raise TrainError("%s must be >= 1" % name)
        if self.epochs < 0:
            raise TrainError("epochs must be >= 0")
        if self.source not in SOURCE_NAMES:
            raise TrainError("unknown target source %r" % self.source)


def make_excerpt(mixture_clip, target_clip, start_frame, frames,
                 fft_size=DEFAULT_FFT_SIZE):
    """One (mixture, target) magnitude pair, normalized by the mixture's
    magnitude RMS over the excerpt."""
    hop = hop_size(fft_size)
    start = start_frame * hop
    cut = slice(start, start + (frames - 1) * hop + fft_size)
    mix_mag = np.abs(stft(mixture_clip.samples[:, cut], fft_size))[:, :, :frames]
    tgt_mag = np.abs(stft(target_clip.samples[:, cut], fft_size))[:, :, :frames]
    mix_mag, norm = normalize_magnitude(mix_mag)
    return mix_mag, tgt_mag / norm


def build_excerpts(track_dirs, config: TrainConfig, rng, spec, epoch):
    """Sample an epoch's (mixture, target) magnitude excerpts of the
    spec's STFT. The run's excerpt i comes from track i mod the number
    of tracks, so a run of as many excerpts as tracks reads them all.
    Each track's WAVs must be at the spec's sample rate and of one
    length."""
    fft_size = spec.fft_size
    hop = hop_size(fft_size)
    excerpts = []
    n = config.steps_per_epoch * config.excerpts_per_step
    for i in range(epoch * n, (epoch + 1) * n):
        track_dir = track_dirs[i % len(track_dirs)]
        clips = load_track(track_dir)
        if config.source not in clips:
            raise InputError("track %r lacks %s.wav" % (track_dir, config.source))
        if any(c.sample_rate != spec.sample_rate for c in clips.values()):
            raise InputError("track %r: WAVs at %s; the model runs at %d Hz" % (
                track_dir, ", ".join("%s %d Hz" % (k, c.sample_rate) for k, c in clips.items()),
                spec.sample_rate))
        if len({c.num_samples for c in clips.values()}) > 1:
            raise InputError("track %r: WAV lengths differ: %s" % (track_dir, ", ".join(
                "%s %d" % (k, c.num_samples) for k, c in clips.items())))
        if config.augment:
            sources = {k: v for k, v in clips.items() if k != "mixture"}
            mixture, sources = augment(sources, rng.integers(2 ** 32))
            target = sources[config.source]
        else:
            mixture, target = clips["mixture"], clips[config.source]
        max_start = (mixture.num_samples - fft_size) // hop \
            - config.frames_per_excerpt
        if max_start < 0:
            raise ExcerptError("track %r too short for %d-frame excerpts"
                               % (track_dir, config.frames_per_excerpt))
        start = int(rng.integers(0, max_start + 1))
        excerpts.append(make_excerpt(mixture, target, start,
                                     config.frames_per_excerpt, fft_size))
    return excerpts


def _run_excerpts(model, excerpts, n, step):
    """forward -> loss -> backward of each excerpt in turn, each loss
    scaled by 1 / n into the gradients; returns the losses."""
    losses = []
    for mix_mag, tgt_mag in excerpts:
        pred = model.forward(mix_mag)
        loss = mse_loss(pred, ad.constant(tgt_mag))
        if not np.isfinite(loss.data):
            raise TrainError("non-finite loss %r at step %d" % (float(loss.data), step))
        ad.scale(loss, 1.0 / n).backward()
        losses.append(float(loss.data))
    return losses


def _replica(model, folds):
    """A copy of model for one step's second half. Its parameter tensors
    hold the model's arrays but gather their own gradients, and it
    shares the model's running buffers, which a train-mode forward never
    reads. Its batch norms do not write them: an instance fold, shadowing
    the method, appends (the model's batch norm, mean, var) to folds."""
    memo = {id(model.spec): model.spec}
    memo.update((id(p.data), p.data) for _, p in model.named_params())
    memo.update((id(b), b) for _, b in model.named_buffers())
    replica = copy.deepcopy(model, memo)
    for r, m in zip(replica.modules(), model.modules()):
        if isinstance(r, BatchNorm2d):
            r.fold = lambda mean, var, bn=m: folds.append((bn, mean, var))
    return replica


def train_step(model, batch, state: AdamState):
    """forward -> loss -> backward -> Adam over one list of excerpts,
    averaging gradients across the excerpts. Returns the mean loss.

    With two or more excerpts, the first ceil(n / 2) run against the
    model and the rest against a replica made for this step (_replica):
    on autodiff's worker thread while the caller runs the first half,
    where second_thread gives one (BLAS at one thread), and inline after
    the first half where it does not. Then the replica's gradients are
    added into the model's in parameter order, and its batch-norm
    statistics folded into the model's in excerpt order. So a step gives
    the same bits with or without the worker; its losses and running
    statistics are bitwise those of a loop over the excerpts on the
    model, and its gradients differ from that loop's by rounding, as the
    halves are summed apart. An error in the first half is raised once
    the worker's half is done, without the merge; one in the second half
    after the merge, so the model is left as that loop would leave it.
    """
    model.set_training(True)
    model.zero_grad()
    step, n = state.step + 1, len(batch)
    if n < 2:
        losses = _run_excerpts(model, batch, n, step)
    else:
        half, folds = (n + 1) // 2, []
        replica = _replica(model, folds)
        with ad.second_thread() as worker:
            future = None if worker is None else worker.submit(
                _run_excerpts, replica, batch[half:], n, step)
            try:
                losses = _run_excerpts(model, batch[:half], n, step)
            finally:
                if future is not None:
                    future.exception()  # waits for the worker's half
            try:
                losses += (_run_excerpts(replica, batch[half:], n, step) if future is None
                           else future.result())
            finally:
                for (_, r), (_, p) in zip(replica.named_params(), model.named_params()):
                    if r.grad is not None:
                        p._accumulate(r.grad, fresh=True)
                        r.grad = None  # one gradient set, not two, through Adam
                for bn, mean, var in folds:
                    bn.fold(mean, var)
    loss = float(np.mean(losses))
    adam_step(dict(model.named_params()), state)
    return loss


def train(model, dataset_dir, config: TrainConfig):
    """Full training run over a dataset directory, on excerpts of the
    model's STFT size. Returns the loss trace (one entry per optimizer
    step). With config.log_path set, writes it as a step,epoch,loss CSV
    that gets each row, flushed, as its step ends, so a run that stops
    early leaves the rows of its finished steps."""
    state = AdamState(alpha=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    track_dirs = list_tracks(dataset_dir)
    trace = []
    with contextlib.ExitStack() as stack:
        log = None
        if config.log_path:
            fh = stack.enter_context(open(config.log_path, "w", newline=""))
            log = csv.writer(fh)
            log.writerow(["step", "epoch", "loss"])
        for epoch in range(config.epochs):
            excerpts = build_excerpts(track_dirs, config, rng, model.spec, epoch)
            for step in range(config.steps_per_epoch):
                batch = excerpts[step * config.excerpts_per_step:
                                 (step + 1) * config.excerpts_per_step]
                trace.append(train_step(model, batch, state))
                if log is not None:
                    log.writerow([len(trace) - 1, epoch, "%.10g" % trace[-1]])
                    fh.flush()
    return trace


# ---------------------------------------------------------------------------
# toy dataset

TOY_DURATION_S = 12.0


def _envelope(rng, n, sr, rate_hz=0.5):
    """Slow random amplitude envelope in [0.3, 1]."""
    knots = max(3, int(TOY_DURATION_S * rate_hz) + 2)
    values = rng.uniform(0.3, 1.0, knots)
    return np.interp(np.arange(n), np.linspace(0, n - 1, knots), values)


def _toy_bass(rng, n, sr):
    """Low tone (60-120 Hz at 44.1 kHz; frequencies scale with sr)."""
    scale = sr / 44100.0
    f0 = rng.uniform(60.0, 120.0) * scale
    t = np.arange(n) / sr
    wave = np.sin(2 * np.pi * f0 * t) + 0.3 * np.sin(2 * np.pi * 2 * f0 * t)
    return wave * _envelope(rng, n, sr)


def _toy_drums(rng, n, sr):
    """Band-limited (6-11 kHz at 44.1 kHz) noise bursts on a steady grid."""
    from scipy.signal import butter, sosfilt

    scale = sr / 44100.0
    noise = rng.standard_normal(n)
    sos = butter(4, [6000.0 * scale, 11000.0 * scale], btype="bandpass",
                 fs=sr, output="sos")
    noise = sosfilt(sos, noise)
    gate = np.zeros(n)
    period = int(0.25 * sr)
    burst = int(0.08 * sr)
    ramp = np.hanning(burst)
    for start in range(int(rng.integers(0, period // 4)), n - burst, period):
        gate[start:start + burst] = ramp
    return 2.5 * noise * gate


def _toy_other(rng, n, sr):
    """Slow chirp sweeping 300-900 Hz (at 44.1 kHz)."""
    scale = sr / 44100.0
    t = np.arange(n) / sr
    sweep_hz = rng.uniform(0.05, 0.15)
    inst_freq = (600.0 + 300.0 * np.sin(2 * np.pi * sweep_hz * t)) * scale
    phase = 2 * np.pi * np.cumsum(inst_freq) / sr
    return np.sin(phase) * _envelope(rng, n, sr)


def _toy_vocals(rng, n, sr):
    """Harmonic stack around 1-4 kHz (at 44.1 kHz) with vibrato."""
    scale = sr / 44100.0
    t = np.arange(n) / sr
    f0 = rng.uniform(1000.0, 1400.0) * scale
    vibrato = 1.0 + 0.01 * np.sin(2 * np.pi * 5.0 * t)
    phase = 2 * np.pi * np.cumsum(f0 * vibrato) / sr
    wave = np.sin(phase) + 0.5 * np.sin(2 * phase) + 0.25 * np.sin(3 * phase)
    return wave * _envelope(rng, n, sr, rate_hz=1.0)


_TOY_SYNTHS = {
    "bass": _toy_bass,
    "drums": _toy_drums,
    "other": _toy_other,
    "vocals": _toy_vocals,
}


def _quantize(x):
    return np.clip(np.round(x * 32767.0), -32768, 32767).astype(np.int16)


def make_toy_dataset(out_dir, seed=0, n_tracks=3, duration_s=TOY_DURATION_S,
                     sample_rate=44100):
    """Synthesize a small MUSDB-layout dataset of 4 spectrally
    semi-disjoint sources per track. The mixture WAV is the exact
    sample-wise integer sum of the 4 stem WAVs.
    """
    n = int(duration_s * sample_rate)
    track_dirs = []
    for i in range(n_tracks):
        rng = np.random.default_rng([seed, i])
        track_dir = os.path.join(out_dir, "track%02d" % i)
        os.makedirs(track_dir, exist_ok=True)
        total = np.zeros((2, n), dtype=np.int64)
        for name, synth in _TOY_SYNTHS.items():
            mono = synth(rng, n, sample_rate)
            pan = rng.uniform(0.3, 0.7)
            stereo = 0.2 * np.stack([pan * mono, (1.0 - pan) * mono])
            q = _quantize(stereo)
            total += q
            write_wav(os.path.join(track_dir, name + ".wav"),
                      AudioClip(q / 32768.0, sample_rate), dtype="int16")
        mixture = np.clip(total, -32768, 32767).astype(np.int16)
        if np.any(total != mixture):
            raise TrainError("toy mixture clipped; lower the stem gains")
        write_wav(os.path.join(track_dir, "mixture.wav"),
                  AudioClip(mixture / 32768.0, sample_rate), dtype="int16")
        track_dirs.append(track_dir)
    return track_dirs
