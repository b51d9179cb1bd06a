"""Per-layer tracer that wraps stemsep's public functions from outside.

A module that binds a function with ``from .dsp import stft`` holds its
own reference, so patching ``dsp.stft`` alone would miss its calls.
``rebind`` therefore replaces every binding of the function in every
loaded stemsep module. Modules are timed through whichever of
``forward`` or ``__call__`` their class defines, so the tracer keeps
working when modules move their body from ``__call__`` to ``forward``.

Times are inclusive: a span covers the layers it calls. Totals are kept
in memory; ``Tracer.metrics()`` returns them at exit.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

AUTODIFF_OPS = (
    "conv2d", "conv_transpose2", "batch_norm_eval", "batch_norm_train",
    "relu", "concat", "avg_pool2", "affine", "sigmoid", "tanh", "mul",
    "add", "getitem",
)
MODEL_PARTS = ("band1", "band2", "band3", "bandfull", "final")
MIB = float(1 << 20)  # byte totals divided by this stay exact

# metric name -> unit, in report order
PER_LAYER = {}
for _op in AUTODIFF_OPS:
    PER_LAYER.update({
        "autodiff.%s.fwd_s" % _op: "s",
        "autodiff.%s.bwd_s" % _op: "s",
        "autodiff.%s.calls" % _op: "count",
        "autodiff.%s.out_mb" % _op: "MiB",
    })
PER_LAYER.update({
    "autodiff.backward_s": "s",
    "layers.BiLSTM_s": "s",
    "model.forward_s": "s",
    **{"model.%s_s" % part: "s" for part in MODEL_PARTS},
    "model.build_s": "s",
    "model.load_checkpoint_s": "s",
    "separation.estimate_magnitudes_s": "s",
    "separation.wiener_s": "s",
    "separation.separate_spectrogram_s": "s",
    "dsp.stft_s": "s",
    "dsp.istft_s": "s",
    "dsp.read_wav_s": "s",
    "dsp.write_wav_s": "s",
    "dsp.stft_calls": "count",
    "dsp.wav_mb": "MiB",
    "evaluation.evaluate_track_s": "s",
    "evaluation.bss_project_s": "s",
    "evaluation.solve_s": "s",
    "evaluation.fftconvolve_s": "s",
    "evaluation.bss_project_calls": "count",
    "evaluation.solve_calls": "count",
    "evaluation.fftconvolve_calls": "count",
    "train.step_s": "s",
    "train.data_s": "s",
    "train.adam_s": "s",
    "train.load_track_calls": "count",
    "train.excerpts": "count",
    "arch.parse_s": "s",
    # traced minus untraced rtf; the runner fills it in
    "trace.overhead_rtf": "s/s",
})


def rebind(original, replacement):
    """Point every binding of ``original`` in a stemsep module at
    ``replacement``. Raises LookupError when there is none, so a renamed
    layer fails the trace instead of reading as zero."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "stemsep":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    if not count:
        raise LookupError("no stemsep module binds %r" % (original,))


def entry_method(cls):
    """The name of the method that a call on a module of class cls runs."""
    for klass in cls.__mro__:
        for name in ("forward", "__call__"):
            if name in vars(klass):
                return name
    raise LookupError("%s defines neither forward nor __call__" % cls.__name__)


def _is_input(out, args):
    return any(out is arg or (isinstance(arg, (list, tuple)) and any(out is a for a in arg))
               for arg in args)


class Tracer:
    def __init__(self):
        self.values = defaultdict(float)  # metric name -> running total
        self._parts = {}  # id(model part) -> metric name
        self._dispatching = set()  # classes whose parts are timed

    def timed(self, key, fn, calls=None, after=None):
        """Wrap fn so that its time adds to ``key`` and each call to
        ``calls``; after(args, result) adds further counts."""
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                values[key] += perf_counter() - start
            if calls:
                values[calls] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def op(self, name, fn):
        """Wrap an autodiff op: forward time, calls, output bytes, and the
        time of the backward closure it attaches to its output."""
        prefix = "autodiff.%s." % name
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            values[prefix + "fwd_s"] += perf_counter() - start
            values[prefix + "calls"] += 1
            out = result[0] if isinstance(result, tuple) else result
            # concat of one tensor returns its input, whose bytes and
            # backward belong to the op that made it
            if not _is_input(out, args):
                values[prefix + "out_mb"] += out.data.nbytes / MIB
                if out._backward is not None:
                    out._backward = self.timed(prefix + "bwd_s", out._backward)
            return result

        return wrapper

    def _time_parts_of(self, cls):
        """Time the calls on registered model parts of class cls."""
        if cls in self._dispatching:
            return
        self._dispatching.add(cls)
        name = entry_method(cls)
        fn = getattr(cls, name)
        parts, values = self._parts, self.values

        @functools.wraps(fn)
        def wrapper(module, *args, **kwargs):
            key = parts.get(id(module))
            if key is None:
                return fn(module, *args, **kwargs)
            start = perf_counter()
            try:
                return fn(module, *args, **kwargs)
            finally:
                values[key] += perf_counter() - start

        setattr(cls, name, wrapper)

    def _model_entry(self, fn):
        """Wrap the model's entry: register its parts, then time it."""
        timed = self.timed("model.forward_s", fn)

        @functools.wraps(fn)
        def wrapper(model, *args, **kwargs):
            for part in MODEL_PARTS:
                child = model._children.get(part)
                if child is not None and id(child) not in self._parts:
                    self._parts[id(child)] = "model.%s_s" % part
                    self._time_parts_of(type(child))
            return timed(model, *args, **kwargs)

        return wrapper

    def install(self):
        from stemsep import (arch, autodiff, dsp, evaluation, layers, model,
                             separation, train)

        for name in AUTODIFF_OPS:
            fn = getattr(autodiff, name)
            rebind(fn, self.op(name, fn))
        autodiff.Tensor.backward = self.timed("autodiff.backward_s",
                                              autodiff.Tensor.backward)
        for cls, wrap in ((layers.BiLSTM, functools.partial(self.timed, "layers.BiLSTM_s")),
                          (model.SeparationModel, self._model_entry)):
            name = entry_method(cls)
            setattr(cls, name, wrap(getattr(cls, name)))

        def wav_mb(args, result):
            self.values["dsp.wav_mb"] += os.path.getsize(args[0]) / MIB

        def excerpts(args, result):
            self.values["train.excerpts"] += len(args[1])

        for fn, key, calls, after in (
            (model.build_model, "model.build_s", None, None),
            (model.load_checkpoint, "model.load_checkpoint_s", None, None),
            (separation.estimate_magnitudes, "separation.estimate_magnitudes_s", None, None),
            (separation.multichannel_wiener, "separation.wiener_s", None, None),
            (separation.separate_spectrogram, "separation.separate_spectrogram_s", None, None),
            (dsp.stft, "dsp.stft_s", "dsp.stft_calls", None),
            (dsp.istft, "dsp.istft_s", None, None),
            (dsp.read_wav, "dsp.read_wav_s", None, wav_mb),
            (dsp.write_wav, "dsp.write_wav_s", None, wav_mb),
            (evaluation.evaluate_track, "evaluation.evaluate_track_s", None, None),
            (evaluation.bss_project, "evaluation.bss_project_s",
             "evaluation.bss_project_calls", None),
            (evaluation.solve, "evaluation.solve_s", "evaluation.solve_calls", None),
            (evaluation.fftconvolve, "evaluation.fftconvolve_s",
             "evaluation.fftconvolve_calls", None),
            (train.train, "train.train_s", None, None),
            (train.train_step, "train.step_s", None, excerpts),
            (train.adam_step, "train.adam_s", None, None),
            (train.load_track, "train.load_track_s", "train.load_track_calls", None),
            (arch.parse_arch_text, "arch.parse_s", None, None),
        ):
            rebind(fn, self.timed(key, fn, calls, after))

    def metrics(self):
        """Every per-layer metric but the overhead; counts as ints."""
        values = dict(self.values)
        # the time train() spends outside its steps is the steps' wait for data
        values["train.data_s"] = (values.get("train.train_s", 0.0)
                                  - values.get("train.step_s", 0.0))
        return {name: (int(values.get(name, 0)) if unit == "count"
                       else values.get(name, 0.0))
                for name, unit in PER_LAYER.items() if name != "trace.overhead_rtf"}
