import json
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from stemsep import cli
from stemsep.arch import canonical_text, toy_arch
from stemsep.dsp import AudioClip, read_wav, write_wav
from stemsep.model import load_checkpoint_model
from wavfiles import chunk, fmt_body, riff, sample_bytes


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def toy_arch_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "toy.cfg"
    path.write_text(canonical_text(toy_arch()))
    return str(path)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-data")
    rc = cli.main(["synth-data", str(out), "--seed", "3", "--tracks", "2",
                   "--duration", "2.5", "--sample-rate", "8000"])
    assert rc == 0
    return str(out)


def test_synth_data_layout(data_dir):
    for track in ("track00", "track01"):
        files = sorted(os.listdir(os.path.join(data_dir, track)))
        assert files == ["bass.wav", "drums.wav", "mixture.wav",
                         "other.wav", "vocals.wav"]


def test_synth_data_deterministic(tmp_path, data_dir):
    rc = cli.main(["synth-data", str(tmp_path), "--seed", "3", "--tracks", "1",
                   "--duration", "2.5", "--sample-rate", "8000"])
    assert rc == 0
    a = read_wav(os.path.join(data_dir, "track00", "mixture.wav"))
    b = read_wav(tmp_path / "track00" / "mixture.wav")
    np.testing.assert_array_equal(a.samples, b.samples)


@pytest.fixture(scope="module")
def trained_ckpt(tmp_path_factory, toy_arch_file, data_dir):
    out = tmp_path_factory.mktemp("ckpt") / "vocals.ckpt"
    rc = cli.main(["train", data_dir, "--out", str(out), "--arch", toy_arch_file,
                   "--source", "vocals", "--epochs", "1", "--steps", "2",
                   "--frames", "16", "--seed", "1"])
    assert rc == 0
    return str(out)


def test_train_epochs_zero_writes_init_checkpoint(tmp_path, toy_arch_file, data_dir):
    from stemsep.model import build_model, save_checkpoint
    from stemsep.arch import load_arch_file

    out = tmp_path / "init.ckpt"
    rc = cli.main(["train", data_dir, "--out", str(out), "--arch", toy_arch_file,
                   "--epochs", "0", "--seed", "7"])
    assert rc == 0
    ref = tmp_path / "ref.ckpt"
    save_checkpoint(ref, build_model(load_arch_file(toy_arch_file), seed=7),
                    extra={"source": "vocals", "seed": 7, "epochs": 0})
    assert out.read_bytes() == ref.read_bytes()


def test_train_then_load_round_trip(trained_ckpt):
    model = load_checkpoint_model(trained_ckpt)
    assert model.spec.fft_size == toy_arch().fft_size


def test_separate_writes_stems(tmp_path, trained_ckpt, data_dir):
    out = tmp_path / "est" / "track00"
    rc = cli.main(["separate", os.path.join(data_dir, "track00", "mixture.wav"),
                   "--checkpoints", trained_ckpt, "--out", str(out)])
    assert rc == 0
    assert sorted(os.listdir(out)) == ["accompaniment.wav", "vocals.wav"]
    mix = read_wav(os.path.join(data_dir, "track00", "mixture.wav"))
    voc = read_wav(out / "vocals.wav")
    acc = read_wav(out / "accompaniment.wav")
    assert voc.samples.shape == mix.samples.shape
    np.testing.assert_allclose(voc.samples + acc.samples, mix.samples, atol=1e-4)


def test_separate_then_evaluate_compose(tmp_path, trained_ckpt, data_dir):
    est_root = tmp_path / "est"
    for track in ("track00", "track01"):
        rc = cli.main(["separate", os.path.join(data_dir, track, "mixture.wav"),
                       "--checkpoints", trained_ckpt,
                       "--out", str(est_root / track)])
        assert rc == 0
    scores = tmp_path / "scores.json"
    rc = cli.main(["evaluate", "--estimates", str(est_root),
                   "--references", data_dir, "--out", str(scores),
                   "--filter-len", "16", "--window", "1.0", "--hop", "0.5"])
    assert rc == 0
    report = read_report(scores)
    assert "vocals" in report["medians"]
    assert "accompaniment" in report["medians"]


def test_evaluate_jobs_flag_gives_same_scores(tmp_path, trained_ckpt, data_dir):
    est_root = tmp_path / "est"
    for track in ("track00", "track01"):
        cli.main(["separate", os.path.join(data_dir, track, "mixture.wav"),
                  "--checkpoints", trained_ckpt, "--out", str(est_root / track)])
    args = ["--estimates", str(est_root), "--references", data_dir,
            "--filter-len", "8", "--window", "1.0", "--hop", "0.5"]
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert cli.main(["evaluate", *args, "--out", str(s1), "--jobs", "1"]) == 0
    assert cli.main(["evaluate", *args, "--out", str(s2), "--jobs", "2"]) == 0
    assert read_report(s1) == read_report(s2)


def test_inspect_arch_reports_counts(capsys, toy_arch_file):
    from stemsep.arch import load_arch_file
    from stemsep.model import build_model, count_params

    rc = cli.main(["inspect", "--arch", toy_arch_file])
    assert rc == 0
    out = capsys.readouterr().out
    total, _ = count_params(build_model(load_arch_file(toy_arch_file), seed=0))
    assert "total parameters: %d" % total in out
    assert "receptive field" in out


def test_inspect_checkpoint_with_feature_norms(capsys, trained_ckpt, data_dir):
    rc = cli.main(["inspect", "--checkpoint", trained_ckpt,
                   "--input", os.path.join(data_dir, "track00", "mixture.wav"),
                   "--slot", "band1/d1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "feature-map RMS at band1/d1" in out


def test_inspect_feature_norms_use_eval_mode(capsys, monkeypatch, trained_ckpt, data_dir):
    # the norms come from the loaded running statistics, which stay as loaded
    from stemsep.dsp import stft
    from stemsep.model import feature_map_norms
    from stemsep.separation import normalize_magnitude

    loaded = []

    def load(path):
        loaded.append(load_checkpoint_model(path))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_checkpoint_model", load)
    wav = os.path.join(data_dir, "track00", "mixture.wav")
    rc = cli.main(["inspect", "--checkpoint", trained_ckpt, "--input", wav,
                   "--slot", "band1/d2"])
    assert rc == 0
    out = capsys.readouterr().out

    fresh = load_checkpoint_model(trained_ckpt)
    buffers = list(fresh.named_buffers())
    assert buffers
    for (name, got), (_, want) in zip(loaded[0].named_buffers(), buffers):
        np.testing.assert_array_equal(got, want, err_msg=name)
    fresh.set_training(False)
    mag, _ = normalize_magnitude(np.abs(stft(read_wav(wav).samples, fresh.spec.fft_size)))
    norms, _ = feature_map_norms(fresh, "band1/d2", lambda: fresh.forward(mag))
    printed = out.split("feature-map RMS at band1/d2:\n")[1].splitlines()
    assert [line.split()[1] for line in printed] == ["%.6g" % v for v in norms]


def test_inspect_feature_norms_ignore_input_level(capsys, tmp_path, trained_ckpt, data_dir):
    # the model sees its input RMS-normalized, as in training and separation;
    # doubling a float32 WAV is exact through the STFT and the RMS
    clip = read_wav(os.path.join(data_dir, "track00", "mixture.wav"))
    printed = []
    for gain in (1.0, 2.0):
        wav = tmp_path / ("gain%g.wav" % gain)
        write_wav(str(wav), AudioClip(gain * clip.samples, clip.sample_rate))
        rc = cli.main(["inspect", "--checkpoint", trained_ckpt, "--input", str(wav),
                       "--slot", "band1/d2"])
        assert rc == 0
        printed.append(capsys.readouterr().out.split("feature-map RMS at band1/d2:\n")[1])
    assert printed[0] == printed[1]


@pytest.mark.parametrize("given,missing", [("input", "slot"), ("slot", "input")])
def test_inspect_needs_input_and_slot_together(capsys, trained_ckpt, data_dir, given, missing):
    value = {"input": os.path.join(data_dir, "track00", "mixture.wav"), "slot": "band1/d1"}
    rc = cli.main(["inspect", "--checkpoint", trained_ckpt, "--" + given, value[given]])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error (usage): --%s needs --%s" % (given, missing) in captured.err
    assert "total parameters" not in captured.out


def test_inspect_rejects_unknown_slot_before_any_work(capsys, tmp_path, trained_ckpt):
    # the WAV does not exist: reading it would exit 3
    from stemsep.model import named_slots

    rc = cli.main(["inspect", "--checkpoint", trained_ckpt,
                   "--input", str(tmp_path / "missing.wav"), "--slot", "band9/d1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "total parameters" not in captured.out
    slots = sorted(named_slots(load_checkpoint_model(trained_ckpt)))
    assert "band1/d1" in slots
    assert captured.err == "error (usage): unknown slot 'band9/d1'; available: %s\n" \
        % ", ".join(slots)


def test_inspect_resamples_as_separate_track_does(capsys, tmp_path, trained_ckpt, data_dir):
    """A WAV at twice the arch rate is probed at the arch rate: inspect
    prints the norms that feature_map_norms records while separate_track
    runs on the same clip, with no warning."""
    from scipy.signal import resample_poly

    from stemsep.model import feature_map_norms
    from stemsep.separation import separate_track

    clip = read_wav(os.path.join(data_dir, "track00", "mixture.wav"))
    wav = tmp_path / "mix16k.wav"
    write_wav(str(wav), AudioClip(resample_poly(clip.samples, 2, 1, axis=1), 16000))
    rc = cli.main(["inspect", "--checkpoint", trained_ckpt, "--input", str(wav),
                   "--slot", "band1/d1"])
    assert rc == 0
    printed = capsys.readouterr().out.split("feature-map RMS at band1/d1:\n")[1].splitlines()
    model, other = load_checkpoint_model(trained_ckpt), read_wav(wav)
    assert other.sample_rate == 2 * model.spec.sample_rate
    norms, _ = feature_map_norms(model, "band1/d1",
                                 lambda: separate_track({"vocals": model}, other))
    assert [line.split()[1] for line in printed] == ["%.6g" % v for v in norms]


def test_inspect_rejects_zero_growth_lstm_only_band(capsys, tmp_path):
    # growth 0 gives the band a stem conv with no output channels
    toy = canonical_text(toy_arch())
    text = toy.replace("band 3 growth=2\n  d1 l=1\n  d2 m=3\n  u1 l=1\n",
                       "band 3 growth=0\n  d1 m=2\n  d2 m=3\n  u1 m=2\n")
    assert text != toy
    cfg = tmp_path / "growth0.cfg"
    cfg.write_text(text)
    assert cli.main(["inspect", "--arch", str(cfg)]) == 4
    assert "error (config): band 3: growth must be at least 1, got 0" in capsys.readouterr().err


def test_inspect_rejects_unknown_slot_key(capsys, tmp_path):
    # a typo for m=4 would otherwise build the slot without its LSTM
    toy = canonical_text(toy_arch())
    text = toy.replace("  d2 l=2 m=4\n", "  d2 l=2 M=4\n", 1)
    assert text != toy
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(text)
    assert cli.main(["inspect", "--arch", str(cfg)]) == 4
    assert "error (config): line 11: unknown key 'M'" in capsys.readouterr().err


def _copy_track(src_dir, out_dir, names, rates=None):
    os.makedirs(out_dir)
    for name in names:
        clip = read_wav(os.path.join(src_dir, name + ".wav"))
        rate = (rates or {}).get(name, clip.sample_rate)
        write_wav(os.path.join(out_dir, name + ".wav"), AudioClip(clip.samples, rate))


STEMS = ("bass", "drums", "other", "vocals")


def test_evaluate_scores_at_the_wav_rate(tmp_path, data_dir):
    # 2.5 s at 8 kHz: 1 s windows every 0.5 s start at 0, 0.5, 1 and 1.5 s
    track = os.path.join(data_dir, "track00")
    _copy_track(track, tmp_path / "refs" / "track00", STEMS + ("mixture",))
    _copy_track(track, tmp_path / "ests" / "track00", STEMS)
    scores = tmp_path / "scores.json"
    rc = cli.main(["evaluate", "--estimates", str(tmp_path / "ests"),
                   "--references", str(tmp_path / "refs"), "--out", str(scores),
                   "--filter-len", "8", "--window", "1.0", "--hop", "0.5"])
    assert rc == 0
    song = read_report(scores)["songs"]["track00"]
    assert sorted(song) == sorted(STEMS)
    assert all(len(song[name]["windows"]) == 4 for name in STEMS)


@pytest.mark.parametrize("side,odd", [
    ("refs", "drums"), ("refs", "mixture"), ("ests", "vocals"),
])
def test_evaluate_rejects_mixed_sample_rates(capsys, tmp_path, data_dir, side, odd):
    track = os.path.join(data_dir, "track00")
    for where in ("refs", "ests"):
        names = STEMS + ("mixture",) if where == "refs" else STEMS
        _copy_track(track, tmp_path / where / "track00", names,
                    rates={odd: 16000} if where == side else None)
    rc = cli.main(["evaluate", "--estimates", str(tmp_path / "ests"),
                   "--references", str(tmp_path / "refs"),
                   "--out", str(tmp_path / "scores.json"), "--filter-len", "8"])
    assert rc == 5
    err = capsys.readouterr().err
    kind = "reference" if side == "refs" else "estimate"
    assert "WAV sample rates differ" in err
    assert "%s %s 16000 Hz" % (kind, odd) in err and "8000 Hz" in err
    assert not (tmp_path / "scores.json").exists()


@pytest.mark.parametrize("bad", [
    "sample_rate 0", "fft_size 2", "fft_size 0", "io_channels 0", "merge_channels 0",
    "final_dense layers=3 growth=0", "final_dense layers=-1 growth=12",
    "band_edges_hz 4100 30000",
])
def test_inspect_rejects_bad_arch_numbers(capsys, tmp_path, bad):
    # the default config with one line replaced
    from stemsep.arch import default_arch

    lines = default_arch().source_text.splitlines()
    (i,) = [i for i, line in enumerate(lines) if line.split()[:1] == bad.split()[:1]]
    lines[i] = bad
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert cli.main(["inspect", "--arch", str(cfg)]) == 4
    assert "error (config)" in capsys.readouterr().err


def test_config_echo(capsys, tmp_path):
    cli.main(["synth-data", str(tmp_path), "--tracks", "1", "--duration", "1.0",
              "--sample-rate", "8000"])
    out = capsys.readouterr().out
    assert out.startswith("config:")
    assert "tracks=1" in out


def test_missing_input_exit_code(tmp_path):
    rc = cli.main(["separate", str(tmp_path / "nope.wav"),
                   "--checkpoints", str(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 3


@pytest.mark.parametrize("kind", ["text", "cut-riff"])
def test_separate_unreadable_wav_exit_code(capsys, tmp_path, trained_ckpt, data_dir, kind):
    # scipy raises ValueError on a file that is not RIFF, and struct.error
    # on a RIFF header that ends inside its fmt chunk
    wav = tmp_path / "mix.wav"
    if kind == "text":
        wav.write_text("not a wav file\n")
    else:
        with open(os.path.join(data_dir, "track00", "mixture.wav"), "rb") as fh:
            wav.write_bytes(fh.read(30))
    rc = cli.main(["separate", str(wav), "--checkpoints", trained_ckpt,
                   "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "error (input): %s: unreadable WAV" % wav in capsys.readouterr().err


# header edits by case: a key dropped, or a value save_checkpoint never writes
_HEADER_EDITS = {
    "arch_text": lambda header: header.pop("arch_text"),
    "entries": lambda header: header.pop("entries"),
    "entries-not-a-list": lambda header: header.update(entries=5),
    "entry-dtype-float16": lambda header: header["entries"][0].update(dtype="float16"),
    "entry-without-offset": lambda header: header["entries"][0].pop("offset"),
    "entry-wrong-shape": lambda header: header["entries"][0].update(shape=[1, 3]),
    # sliced from the payload's end, this offset reads bytes of other entries
    "entry-negative-offset": lambda header: header["entries"][-1].update(
        offset=-2 * header["entries"][-1]["nbytes"]),
    "arch_text-unparsed": lambda header: header.update(arch_text="mode = Q\n"),
}


def _malform_checkpoint(src, dst, case):
    """Copy of the checkpoint src at dst, cut or with its header edited."""
    with open(src, "rb") as fh:
        data = fh.read()
    n = int.from_bytes(data[8:16], "little")
    if case == "cut":
        data = data[:60]
    elif case == "short-payload":
        data = data[:-8]
    else:
        header = json.loads(data[16:16 + n])
        _HEADER_EDITS[case](header)
        text = json.dumps(header).encode()
        data = data[:8] + len(text).to_bytes(8, "little") + text + data[16 + n:]
    dst.write_bytes(data)


@pytest.mark.parametrize("case", ["cut", "arch_text", "entries", "short-payload",
                                  "entries-not-a-list", "entry-dtype-float16",
                                  "entry-without-offset", "entry-wrong-shape",
                                  "entry-negative-offset", "arch_text-unparsed"])
@pytest.mark.parametrize("command", ["separate", "inspect"])
def test_malformed_checkpoint_exit_code(capsys, tmp_path, trained_ckpt, data_dir,
                                        case, command):
    ckpt = tmp_path / "vocals.ckpt"
    _malform_checkpoint(trained_ckpt, ckpt, case)
    argv = (["separate", os.path.join(data_dir, "track00", "mixture.wav"),
             "--checkpoints", str(ckpt), "--out", str(tmp_path / "o")]
            if command == "separate" else ["inspect", "--checkpoint", str(ckpt)])
    rc = cli.main(argv)
    assert rc == 4
    assert "error (config): %s: " % ckpt in capsys.readouterr().err


def test_bad_arch_exit_code(tmp_path, data_dir):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode = Q\n")
    rc = cli.main(["train", data_dir, "--out", str(tmp_path / "c.ckpt"),
                   "--arch", str(bad)])
    assert rc == 4


@pytest.mark.parametrize("case,stems,code,kind", [
    ("no track", (), 3, "input"),
    ("no stems", ("mixture",), 3, "input"),
    ("no vocals", ("mixture", "drums"), 3, "input"),
    ("too short", ("mixture", "vocals"), 5, "data"),
])
def test_train_dataset_error_exit_code(capsys, tmp_path, toy_arch_file, data_dir,
                                       case, stems, code, kind):
    """A dataset missing a file training needs exits 3, and a track too
    short for one excerpt (1,200 samples, under 16 frames of the toy
    arch's 256-point STFT) exits 5; the message names the dataset or
    track."""
    root = tmp_path / "data"
    track = root / "track00"
    os.makedirs(track)
    for name in stems:
        clip = read_wav(os.path.join(data_dir, "track00", name + ".wav"))
        cut = 1200 if case == "too short" else clip.num_samples
        write_wav(os.path.join(track, name + ".wav"),
                  AudioClip(clip.samples[:, :cut], clip.sample_rate))
    rc = cli.main(["train", str(root), "--out", str(tmp_path / "c.ckpt"),
                   "--arch", toy_arch_file, "--steps", "1", "--frames", "16"])
    err = capsys.readouterr().err
    assert rc == code
    assert "error (%s): " % kind in err
    assert repr(str(root if case == "no track" else track)) in err


@pytest.mark.parametrize("flag,value,message", [
    ("--window", "0.00001", "scoring window of 1e-05 s is under one sample at 8000 Hz"),
    ("--hop", "0", "scoring hop of 0 s is under one sample at 8000 Hz"),
])
def test_evaluate_window_or_hop_under_one_sample_exit_code(
        capsys, tmp_path, data_dir, flag, value, message):
    rc = cli.main(["evaluate", "--estimates", data_dir, "--references", data_dir,
                   "--out", str(tmp_path / "scores.json"), "--filter-len", "8",
                   "--window", "1.0", flag, value])
    assert rc == 5
    assert "error (data): %s" % message in capsys.readouterr().err


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit):
        cli.main(["synth-data", "out", "--bogus"])


# ---------------------------------------------------------------------------
# separate: one pipeline, early failures


def _save_toy(path, seed, spec=None):
    from stemsep.model import build_model, save_checkpoint

    save_checkpoint(str(path), build_model(spec or toy_arch(), seed=seed))
    return str(path)


@pytest.fixture
def forward_calls(monkeypatch):
    from stemsep.model import SeparationModel

    calls = []
    forward = SeparationModel.forward

    def counted(self, *args, **kwargs):
        calls.append(self)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(SeparationModel, "forward", counted)
    return calls


def _separate_argv(data_dir, checkpoints, out, *extra):
    return ["separate", os.path.join(data_dir, "track00", "mixture.wav"),
            "--checkpoints", str(checkpoints), "--out", str(out), *extra]


def _other_arch(field):
    import dataclasses

    if field == "fft_size":
        return toy_arch(fft_size=128)
    if field == "sample_rate":
        return toy_arch(sample_rate=16000)
    return dataclasses.replace(toy_arch(), io_channels=1)


@pytest.mark.parametrize("case,code", [
    ("weight", 5), ("sources", 5), ("missing", 3),
    ("fft_size", 5), ("sample_rate", 5), ("io_channels", 5),
])
def test_separate_fails_before_any_model_runs(tmp_path, data_dir, forward_calls,
                                              case, code):
    primary = tmp_path / "primary"
    primary.mkdir()
    _save_toy(primary / "vocals.ckpt", 1)
    blend = tmp_path / "blend"
    blend.mkdir()
    extra = ["--blend-with", str(blend)]
    if case == "weight":
        _save_toy(blend / "vocals.ckpt", 2)
        extra += ["--blend-weight", "1.5"]
    elif case == "sources":
        _save_toy(blend / "drums.ckpt", 2)
    elif case == "missing":
        extra = ["--blend-with", str(tmp_path / "nope")]
    elif case == "fft_size":  # two primary checkpoints that disagree
        _save_toy(primary / "bass.ckpt", 2, _other_arch(case))
        extra = []
    else:
        _save_toy(blend / "vocals.ckpt", 2, _other_arch(case))
    rc = cli.main(_separate_argv(data_dir, primary, tmp_path / "out", *extra))
    assert rc == code
    assert forward_calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_separate_rejects_non_finite_mixture(tmp_path, data_dir, forward_calls, capsys, bad):
    """A NaN or inf sample fails before the STFT, names the mixture, and
    exits 5 without running a model or raising a numpy warning."""
    import warnings

    clip = read_wav(os.path.join(data_dir, "track00", "mixture.wav"))
    clip.samples[1, 100] = bad
    mixture = tmp_path / "bad.wav"
    write_wav(str(mixture), clip)
    ckpt = _save_toy(tmp_path / "vocals.ckpt", 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["separate", str(mixture), "--checkpoints", ckpt,
                       "--out", str(tmp_path / "out")])
    assert rc == 5
    assert forward_calls == []
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "non-finite samples in the mixture" in capsys.readouterr().err


def test_separate_reads_8bit_mixture(tmp_path, data_dir):
    from scipy.io import wavfile

    clip = read_wav(os.path.join(data_dir, "track00", "mixture.wav"))
    pcm = np.clip(np.round(clip.samples.T * 128.0 + 128.0), 0, 255).astype(np.uint8)
    mixture = tmp_path / "u8.wav"
    wavfile.write(mixture, clip.sample_rate, pcm)
    ckpt = _save_toy(tmp_path / "vocals.ckpt", 1)
    out = tmp_path / "out"
    rc = cli.main(["separate", str(mixture), "--checkpoints", ckpt, "--out", str(out)])
    assert rc == 0
    assert read_wav(out / "vocals.wav").samples.shape == clip.samples.shape


@pytest.mark.parametrize("case", ["empty", "3-channel", "alaw", "pcm64"])
def test_unsupported_wav_exits_3_before_any_model_runs(tmp_path, forward_calls, capsys, case):
    """Exit 3 is a missing, unreadable or unsupported audio file: a WAV
    without samples, with three channels, of A-law samples (format tag 6)
    or of 64-bit PCM exits 3 with an error naming it, before any model
    runs."""
    name, channels, frames = {"empty": ("float32", 2, 0), "3-channel": ("pcm16", 3, 100),
                              "alaw": ("alaw", 2, 100), "pcm64": ("pcm64", 2, 100)}[case]
    wav = tmp_path / ("%s.wav" % case)
    fmt = fmt_body(name, channels, rate=toy_arch().sample_rate)
    wav.write_bytes(riff([chunk(b"fmt ", fmt),
                          chunk(b"data", sample_bytes(name, channels, frames))]))
    ckpt = _save_toy(tmp_path / "vocals.ckpt", 1)
    rc = cli.main(["separate", str(wav), "--checkpoints", ckpt, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error (input): %s: " % wav)
    assert forward_calls == []


def test_separate_mono_mixture(tmp_path, data_dir):
    """A mono mixture goes to the stereo models on both channels: exit 0,
    mono stems of the input's length, and vocals plus accompaniment give
    the mixture back."""
    clip = read_wav(os.path.join(data_dir, "track00", "mixture.wav"))
    mixture = tmp_path / "mono.wav"
    write_wav(str(mixture), AudioClip(clip.samples.mean(axis=0), clip.sample_rate))
    mono = read_wav(mixture)
    ckpt = _save_toy(tmp_path / "vocals.ckpt", 1)
    out = tmp_path / "out"
    rc = cli.main(["separate", str(mixture), "--checkpoints", ckpt, "--out", str(out)])
    assert rc == 0
    vocals, rest = read_wav(out / "vocals.wav"), read_wav(out / "accompaniment.wav")
    assert vocals.samples.shape == rest.samples.shape == mono.samples.shape == (1, clip.num_samples)
    assert np.abs(vocals.samples).max() > 0
    np.testing.assert_allclose(vocals.samples + rest.samples, mono.samples, rtol=0, atol=1e-6)


def test_separate_resamples_mixture_at_another_rate(tmp_path, data_dir):
    """A 16 kHz mixture for 8 kHz models is separated at 8 kHz and its
    stems resampled back: exit 0 with no warning, stems of the input's
    shape and rate, and vocals plus accompaniment give the mixture back."""
    from scipy.signal import resample_poly

    clip = read_wav(os.path.join(data_dir, "track00", "mixture.wav"))
    assert clip.sample_rate == toy_arch().sample_rate == 8000
    mixture = tmp_path / "mix16k.wav"
    write_wav(str(mixture), AudioClip(resample_poly(clip.samples, 2, 1, axis=1), 16000))
    mix = read_wav(mixture)
    ckpt = _save_toy(tmp_path / "vocals.ckpt", 1)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["separate", str(mixture), "--checkpoints", ckpt, "--out", str(out)])
    assert rc == 0
    assert [str(w.message) for w in caught] == []
    vocals, rest = read_wav(out / "vocals.wav"), read_wav(out / "accompaniment.wav")
    assert vocals.sample_rate == rest.sample_rate == 16000
    assert vocals.samples.shape == rest.samples.shape == mix.samples.shape
    assert mix.samples.shape == (2, 2 * clip.num_samples)
    assert np.abs(vocals.samples).max() > 0
    np.testing.assert_allclose(vocals.samples + rest.samples, mix.samples, rtol=0, atol=1e-6)


def test_separate_rejects_stereo_mixture_for_mono_models(tmp_path, data_dir, forward_calls,
                                                         capsys):
    ckpt = _save_toy(tmp_path / "vocals.ckpt", 1, _other_arch("io_channels"))
    rc = cli.main(_separate_argv(data_dir, ckpt, tmp_path / "out"))
    assert rc == 5
    assert forward_calls == []
    assert "2-channel mixture for 1-channel models" in capsys.readouterr().err


def _library_wavs(tmp_path, models, clip, **kwargs):
    from stemsep.dsp import write_wav
    from stemsep.separation import separate_track

    out = {}
    for name, est in separate_track(models, clip, **kwargs).items():
        path = tmp_path / ("lib-%s.wav" % name)
        write_wav(str(path), est)
        out[name + ".wav"] = path.read_bytes()
    return out


def test_separate_writes_what_separate_track_gives(tmp_path, data_dir):
    mixture = os.path.join(data_dir, "track00", "mixture.wav")
    clip = read_wav(mixture)

    ckpt = _save_toy(tmp_path / "vocals.ckpt", 3)
    out = tmp_path / "single"
    assert cli.main(_separate_argv(data_dir, ckpt, out)) == 0
    expected = _library_wavs(tmp_path, {"vocals": load_checkpoint_model(ckpt)}, clip)
    assert sorted(os.listdir(out)) == sorted(expected) == ["accompaniment.wav",
                                                           "vocals.wav"]
    for name, data in expected.items():
        assert (out / name).read_bytes() == data

    primary, blend = tmp_path / "primary", tmp_path / "blend"
    for directory, seed in ((primary, 4), (blend, 6)):
        directory.mkdir()
        for i, source in enumerate(("drums", "vocals")):
            _save_toy(directory / ("%s.ckpt" % source), seed + i)
    out = tmp_path / "blended"
    rc = cli.main(_separate_argv(data_dir, primary, out, "--wiener", "off",
                                 "--blend-with", str(blend), "--blend-weight", "0.3"))
    assert rc == 0

    def load(directory):
        return {s: load_checkpoint_model(str(directory / ("%s.ckpt" % s)))
                for s in ("drums", "vocals")}

    expected = _library_wavs(tmp_path, load(primary), clip, wiener=False,
                             blend_with=load(blend), blend_weight=0.3)
    assert sorted(os.listdir(out)) == sorted(expected) == [
        "accompaniment.wav", "drums.wav", "vocals.wav"]
    for name, data in expected.items():
        assert (out / name).read_bytes() == data


def _front_end_samples(clip, case):
    """(samples, rate) of one mixture class, made from a stereo clip."""
    from scipy.signal import resample_poly

    x, rate = clip.samples, clip.sample_rate
    if case == "mono":
        return x[:1], rate
    if case == "twice-rate":
        return resample_poly(x, 2, 1, axis=1), 2 * rate
    if case == "nan":
        x = x.copy()
        x[1, 100] = np.nan
        return x, rate
    if case == "3-channel":
        return np.concatenate([x, x[:1]]), rate
    if case == "empty":
        return x[:, :0], rate
    return x, rate


@pytest.mark.parametrize("case,code", [
    ("stereo", 0), ("mono", 0), ("twice-rate", 0),
    ("nan", 5), ("3-channel", 3), ("empty", 3),
])
def test_separate_and_inspect_share_the_mixture_front_end(
        tmp_path, data_dir, forward_calls, capsys, case, code):
    """separate and inspect --input --slot read a mixture through the same
    front end: the same exit code and error line on every input class,
    one model forward when it is accepted and none when it is rejected."""
    from scipy.io import wavfile

    clip = read_wav(os.path.join(data_dir, "track00", "mixture.wav"))
    samples, rate = _front_end_samples(clip, case)
    wav = tmp_path / ("%s.wav" % case)
    wavfile.write(wav, rate, samples.T.astype(np.float32))
    ckpt = _save_toy(tmp_path / "vocals.ckpt", 1)
    errors = []
    for argv in (["separate", str(wav), "--checkpoints", ckpt, "--out", str(tmp_path / "out")],
                 ["inspect", "--checkpoint", ckpt, "--input", str(wav), "--slot", "band1/d1"]):
        forward_calls.clear()
        assert cli.main(argv) == code, argv[0]
        assert len(forward_calls) == (code == 0), argv[0]
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert (errors[0] == "") == (code == 0)


# ---------------------------------------------------------------------------
# start-up: `import stemsep.cli`, separate at the arch's rate and train load
# no scipy module; evaluate loads BSSEval's scipy before its first WAV read,
# so set-up holds the import and scoring does not. scipy.signal is loaded
# only to resample a mixture at another rate, and by synth-data.


@pytest.mark.parametrize("command", ["import", "separate", "train", "evaluate"])
def test_commands_do_not_import_scipy_signal(tmp_path, data_dir, toy_arch_file,
                                             trained_ckpt, command):
    track = os.path.join(data_dir, "track00")
    argv = {
        "import": [],
        "separate": ["separate", os.path.join(track, "mixture.wav"),
                     "--checkpoints", trained_ckpt, "--out", str(tmp_path / "est")],
        "train": ["train", data_dir, "--out", str(tmp_path / "vocals.ckpt"),
                  "--arch", toy_arch_file, "--steps", "1", "--frames", "16", "--augment"],
        "evaluate": ["evaluate", "--estimates", data_dir, "--references", data_dir,
                     "--out", str(tmp_path / "scores.json"), "--filter-len", "8",
                     "--window", "1.0", "--hop", "0.5"],
    }[command]
    code = textwrap.dedent("""
        import json, sys
        from stemsep import cli

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        at_first_read, read_wav = [], cli.read_wav

        def first_read(*args):
            at_first_read.append(scipy_modules())
            return read_wav(*args)

        cli.read_wav = first_read
        rc = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
        print(json.dumps([rc, scipy_modules(), at_first_read[:1]]))
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rc, loaded, at_first_read = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    assert "scipy.signal" not in loaded
    if command == "evaluate":
        assert {"scipy.fft", "scipy.linalg"} <= set(at_first_read[0])
    else:
        assert loaded == []
