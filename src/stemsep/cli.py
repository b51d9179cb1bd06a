"""Command-line interface: train, separate, evaluate, inspect, synth-data.

Every run echoes its resolved configuration before doing work. Exit
codes: 0 success, 2 usage, 3 missing/unreadable files, 4 bad
configuration or checkpoints, 5 data errors, 1 anything else.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import arch as arch_mod
from . import evaluation, train as train_mod
from .arch import ConfigError
from .dsp import InputError, read_wav, write_wav
from .model import (
    CheckpointError,
    build_model,
    count_params,
    feature_map_norms,
    load_checkpoint_model,
    save_checkpoint,
)
from .separation import SOURCE_NAMES, SeparationError, separate_track
from .train import TrainConfig, TrainError, make_toy_dataset


class UsageError(Exception):
    """Flags that cannot be used as given."""


def _echo_config(args):
    items = sorted(
        (k, v) for k, v in vars(args).items() if k != "func" and v is not None
    )
    print("config:", " ".join("%s=%s" % kv for kv in items))


def _load_arch(args):
    if getattr(args, "arch", None):
        return arch_mod.load_arch_file(args.arch)
    return arch_mod.default_arch()


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args):
    spec = _load_arch(args)
    config = TrainConfig(
        source=args.source,
        frames_per_excerpt=args.frames,
        excerpts_per_step=args.batch,
        steps_per_epoch=args.steps,
        epochs=args.epochs,
        learning_rate=args.lr,
        seed=args.seed,
        augment=args.augment,
        log_path=args.log,
    )
    model = build_model(spec, seed=args.seed)
    if args.epochs > 0:
        trace = train_mod.train(model, args.dataset, config)
        print("trained %d steps, final loss %.6g" % (len(trace), trace[-1]))
    else:
        print("epochs=0: writing the initialized model unchanged")
    save_checkpoint(args.out, model, extra={"source": args.source,
                                            "seed": args.seed,
                                            "epochs": args.epochs})
    print("wrote checkpoint %s" % args.out)
    return 0


def _load_model_dir(path):
    """source name -> model for every *.ckpt in a directory."""
    if os.path.isfile(path):
        name = os.path.splitext(os.path.basename(path))[0]
        return {name if name in SOURCE_NAMES else "vocals": load_checkpoint_model(path)}
    models = {}
    for entry in sorted(os.listdir(path)):
        if entry.endswith(".ckpt"):
            models[os.path.splitext(entry)[0]] = load_checkpoint_model(
                os.path.join(path, entry)
            )
    if not models:
        raise InputError("no .ckpt files under %r" % path)
    return models


def cmd_separate(args):
    # load every checkpoint before any audio, so a bad path fails first
    models = _load_model_dir(args.checkpoints)
    blend_with = _load_model_dir(args.blend_with) if args.blend_with else None
    clip = read_wav(args.input)
    outputs = separate_track(models, clip, wiener=args.wiener == "on",
                             blend_with=blend_with, blend_weight=args.blend_weight)
    os.makedirs(args.out, exist_ok=True)
    for name, out_clip in outputs.items():
        path = os.path.join(args.out, name + ".wav")
        write_wav(path, out_clip)
        print("wrote %s" % path)
    return 0


def _track_dirs(root):
    subdirs = sorted(
        d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d))
    )
    stems = [d for d in subdirs
             if any(f.endswith(".wav") for f in os.listdir(os.path.join(root, d)))]
    if stems:
        return {d: os.path.join(root, d) for d in stems}
    if any(f.endswith(".wav") for f in os.listdir(root)):
        return {os.path.basename(os.path.abspath(root)): root}
    raise InputError("no WAV tracks under %r" % root)


def _load_stems(track_dir):
    """stem name -> AudioClip for every WAV in a track directory."""
    return {entry[:-4]: read_wav(os.path.join(track_dir, entry))
            for entry in sorted(os.listdir(track_dir)) if entry.endswith(".wav")}


def _eval_one(job):
    """Score one track at the sample rate its WAVs share."""
    name, ref_dir, est_dir, filter_len, window_s, hop_s = job
    loaded = {"reference": _load_stems(ref_dir), "estimate": _load_stems(est_dir)}
    rates = {"%s %s" % (kind, n): c.sample_rate
             for kind, clips in loaded.items() for n, c in clips.items()}
    rate, *others = set(rates.values())
    if others:
        raise evaluation.EvalError("track %s: WAV sample rates differ: %s" % (
            name, ", ".join("%s %d Hz" % item for item in rates.items())))
    refs, ests = ({n: c.samples for n, c in loaded[kind].items()}
                  for kind in ("reference", "estimate"))
    mixture = refs.pop("mixture", None)
    if "accompaniment" in ests and "accompaniment" not in refs \
            and mixture is not None and "vocals" in refs:
        refs["accompaniment"] = mixture - refs["vocals"]
    result = evaluation.evaluate_track(
        refs, ests, filter_len=filter_len, window_s=window_s, hop_s=hop_s,
        sample_rate=rate,
    )
    return name, result


def cmd_evaluate(args):
    ref_tracks = _track_dirs(args.references)
    est_tracks = _track_dirs(args.estimates)
    common = sorted(set(ref_tracks) & set(est_tracks))
    if not common:
        raise InputError("no track names shared between estimates and references")
    jobs = [
        (name, ref_tracks[name], est_tracks[name], args.filter_len,
         args.window, args.hop)
        for name in common
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            per_song = dict(pool.map(_eval_one, jobs))
    else:
        per_song = dict(map(_eval_one, jobs))
    report = evaluation.aggregate(per_song)
    evaluation.write_report(args.out, report)
    print(evaluation.format_report(report))
    print("wrote %s" % args.out)
    return 0


def cmd_inspect(args):
    if (args.input is None) != (args.slot is None):
        given, missing = ("input", "slot") if args.slot is None else ("slot", "input")
        raise UsageError("--%s needs --%s" % (given, missing))
    if args.checkpoint:
        model = load_checkpoint_model(args.checkpoint)
    else:
        model = build_model(_load_arch(args), seed=0)
    total, itemized = count_params(model)
    print("total parameters: %d" % total)
    for key in sorted(itemized):
        print("  %-24s %10d" % (key, itemized[key]))
    rf = arch_mod.receptive_field(model.spec)
    print("receptive field (conv frames):")
    for band in sorted(rf["per_band"]):
        info = rf["per_band"][band]
        suffix = "  (plus whole-input LSTM context)" if info["has_lstm"] else ""
        print("  %-8s %4d%s" % (band, info["conv_frames"], suffix))
    print("  overall  %4d" % rf["overall_conv_frames"])
    if args.input is not None:
        # the probe sees exactly the input separate gives the model
        clip = read_wav(args.input)
        norms, lstm_channel = feature_map_norms(
            model, args.slot, lambda: separate_track({"probe": model}, clip, wiener=False))
        print("feature-map RMS at %s:" % args.slot)
        for i, v in enumerate(norms):
            tag = "  <- lstm map" if lstm_channel == i else ""
            print("  ch%-3d %.6g%s" % (i, v, tag))
    return 0


def cmd_synth_data(args):
    tracks = make_toy_dataset(args.out, seed=args.seed, n_tracks=args.tracks,
                              duration_s=args.duration,
                              sample_rate=args.sample_rate)
    for t in tracks:
        print("wrote %s" % t)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stemsep",
        description="Spectrogram-masking music source separation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one source model on a dataset")
    p.add_argument("dataset", help="MUSDB-style dataset directory")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--arch", help="architecture config file (default: built-in)")
    p.add_argument("--source", default="vocals", choices=SOURCE_NAMES)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--steps", type=int, default=8, help="optimizer steps per epoch")
    p.add_argument("--batch", type=int, default=1, help="excerpts per step")
    p.add_argument("--frames", type=int, default=256, help="frames per excerpt")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--augment", action="store_true")
    p.add_argument("--log", help="CSV loss-trace path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("separate", help="separate a mixture WAV into stems")
    p.add_argument("input", help="mixture WAV file")
    p.add_argument("--checkpoints", required=True,
                   help="checkpoint file or directory of <source>.ckpt files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--wiener", choices=("on", "off"), default="on")
    p.add_argument("--blend-with", help="second checkpoint set to blend with")
    p.add_argument("--blend-weight", type=float, default=0.5,
                   help="weight of the primary checkpoints in the blend")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("evaluate", help="score estimates against references")
    p.add_argument("--estimates", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--out", required=True, help="JSON scores file")
    p.add_argument("--filter-len", type=int,
                   default=evaluation.DEFAULT_FILTER_LEN)
    p.add_argument("--window", type=float, default=evaluation.DEFAULT_WINDOW_S,
                   help="scoring window in seconds")
    p.add_argument("--hop", type=float, default=evaluation.DEFAULT_HOP_S,
                   help="scoring hop in seconds")
    p.add_argument("--jobs", type=int, default=1, help="parallel tracks")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="report model structure and counts")
    p.add_argument("--checkpoint", help="checkpoint to inspect")
    p.add_argument("--arch", help="architecture config to inspect")
    p.add_argument("--input", help="WAV to probe feature-map norms with")
    p.add_argument("--slot", help="slot to probe, e.g. band1/d4")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("synth-data", help="generate a toy MUSDB-style dataset")
    p.add_argument("out", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tracks", type=int, default=3)
    p.add_argument("--duration", type=float, default=train_mod.TOY_DURATION_S,
                   help="seconds per track")
    p.add_argument("--sample-rate", type=int, default=44100)
    p.set_defaults(func=cmd_synth_data)
    return parser


_ERROR_CODES = (
    ((UsageError,), "usage", 2),
    ((FileNotFoundError, NotADirectoryError, InputError), "input", 3),
    ((ConfigError, CheckpointError, TrainError), "config", 4),
    ((SeparationError, evaluation.EvalError, KeyError, ValueError,
      ArithmeticError), "data", 5),
)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _echo_config(args)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - map to documented exit codes
        for types, category, code in _ERROR_CODES:
            if isinstance(exc, types):
                print("error (%s): %s" % (category, exc), file=sys.stderr)
                return code
        print("error (internal): %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
