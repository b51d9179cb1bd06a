"""Model assembly: per-band multi-scale dense/LSTM networks plus a
full-band network, merged along frequency and fused by a final dense
block.

Conventions:
  * all feature maps are (channels, frequency, time)
  * modules run through forward: calling a module runs its forward, so
    shadowing forward on one instance observes that module alone
    (feature_map_norms records a slot's output this way)
  * a dense block's output is the concatenation of its layer outputs
    (l * growth channels); the block input is not re-emitted
  * a dense block takes its input as a list of channel parts (the
    up-conv output and the skip on the up path, the band outputs and
    the full band's for the final block, the slot input and the LSTM
    map in an Sb slot) and never concatenates or copies them; its one
    (l * growth, f, t) channel buffer holds only the layer outputs. Each
    layer's conv writes its output straight into its own slot, and layer
    j reads the block's parts plus the j earlier outputs as its parts
    (Pleiss et al. 2017, arXiv:1707.06990). The block returns the whole
    buffer. Training and inference share this path
  * a dense layer's BN, ReLU and conv are one op in every mode: it
    writes the BN+ReLU map one block of frequency rows at a time into
    the conv's reused row tile (zero rows above and below, no zero
    columns), and its backward recomputes that map from the layer
    input, so no layer's full-size BN+ReLU map exists outside a backward
  * an LSTM block produces a single feature map; the combination mode
    decides where it is concatenated (Sa: after the dense block, Sb:
    onto the slot input before the dense block, P: next to the dense
    output)
  * the up path hands its slot the upsampled features and the
    same-scale down-path slot output (skip connection) as two channel
    parts
"""

from __future__ import annotations

import json

import numpy as np

from . import autodiff as ad
from .arch import ArchSpec, BandPlan, ConfigError, ScaleSlot
from .layers import BiLSTM, BatchNorm2d, Conv2d, ConvTranspose2x2, Linear, Module


class DenseLayer(Module):
    """BN -> ReLU -> same-padded 3x3 conv with `growth` output maps, as
    one op (autodiff.batch_norm_relu_conv2d) in every mode. It builds the
    BN+ReLU map one row block at a time and never whole, and its graph
    keeps no full-size map. In training it normalizes with the batch
    statistics and folds them into BN's running ones. x is the input
    map or a list of its channel parts; out, when given, is the array
    the conv writes its output into.
    """

    def __init__(self, c_in, growth, rng):
        super().__init__()
        self.bn = self.add_child("bn", BatchNorm2d(c_in))
        self.conv = self.add_child("conv", Conv2d(c_in, growth, 3, 3, rng))

    def forward(self, x, out=None):
        bn = self.bn
        stats = bn._buffers["running_mean"], bn._buffers["running_var"]
        y, mean, var = ad.batch_norm_relu_conv2d(
            x, bn.gamma, bn.beta, self.conv.weight, self.conv.bias,
            None if self.training else stats, out)
        if self.training:
            for running, batch in zip(stats, (mean, var)):
                running *= 1.0 - bn.momentum
                running += bn.momentum * batch
        return y


class DenseBlock(Module):
    """Densely connected stack: layer j consumes the block input plus
    every earlier layer output; the block emits the layer outputs.

    The block input is a map or a list of its channel parts, which every
    layer reads where they are. The layer outputs live in one
    (layers * growth, f, t) channel buffer: layer j writes channels
    [j * growth, (j + 1) * growth) and reads the block's parts plus each
    earlier output as its channel parts; the block returns the buffer.
    """

    def __init__(self, c_in, layers, growth, rng):
        super().__init__()
        self.c_in = c_in
        self.layers = layers
        self.growth = growth
        for j in range(layers):
            self.add_child("layer%d" % j, DenseLayer(c_in + j * growth, growth, rng))

    @property
    def out_channels(self):
        return self.layers * self.growth if self.layers else self.c_in

    def forward(self, x):
        parts = [x] if isinstance(x, ad.Tensor) else list(x)
        if not self.layers:
            return ad.concat(parts, axis=0)
        k = self.growth
        buf = np.empty((self.layers * k,) + parts[0].shape[1:], dtype=parts[0].data.dtype)
        outputs = []
        for j in range(self.layers):
            layer = self._children["layer%d" % j]
            outputs.append(layer(parts + outputs, out=buf[j * k:(j + 1) * k]))
        return ad.concat_view(buf, outputs, axis=0)


class LstmBlock(Module):
    """1x1 conv to one map, bidirectional LSTM along time, linear map
    back to the scale's frequency dimension. Emits a (1, f, t) map."""

    def __init__(self, c_in, freq_dim, units, rng):
        super().__init__()
        self.freq_dim = freq_dim
        self.units = units
        self.reduce = self.add_child("reduce", Conv2d(c_in, 1, 1, 1, rng))
        self.lstm = self.add_child("lstm", BiLSTM(freq_dim, units, rng))
        self.expand = self.add_child("expand", Linear(2 * units, freq_dim, rng))

    def forward(self, x):
        if x.shape[1] != self.freq_dim:
            raise ad.ShapeError(
                "LstmBlock built for f=%d got map with f=%d" % (self.freq_dim, x.shape[1])
            )
        m = self.reduce(x)  # (1, f, t)
        seq = ad.transpose2d(ad.reshape(m, (m.shape[1], m.shape[2])))  # (t, f)
        h = self.lstm(seq)  # (t, 2m)
        y = self.expand(h)  # (t, f)
        return ad.reshape(ad.transpose2d(y), (1, x.shape[1], x.shape[2]))


class Slot(Module):
    """One scale position: dense block and/or LSTM block combined per
    the configured mode, the dense block at the band's growth rate.

    The LSTM map is the slot's last output channel unless an Sb dense
    block consumes it.
    """

    def __init__(self, spec_slot: ScaleSlot, mode, c_in, freq_dim, growth, rng):
        super().__init__()
        self.position = spec_slot.position
        self.mode = mode
        self.c_in = c_in
        has_lstm = spec_slot.units is not None
        self.dense = self.lstm = None
        if spec_slot.layers is not None:
            dense_in = c_in + (mode == "Sb" and has_lstm)
            self.dense = self.add_child(
                "dense", DenseBlock(dense_in, spec_slot.layers, growth, rng)
            )
        if has_lstm:
            lstm_in = self.dense.out_channels if self.dense and mode == "Sa" else c_in
            self.lstm = self.add_child(
                "lstm", LstmBlock(lstm_in, freq_dim, spec_slot.units, rng)
            )
        map_out = has_lstm and not (self.dense and mode == "Sb")
        base = self.dense.out_channels if self.dense else (0 if mode == "P" else c_in)
        self.out_channels = base + map_out
        self.lstm_channel = self.out_channels - 1 if map_out else None

    def forward(self, x):
        """x is the slot input or a list of its channel parts; only the
        dense block reads the parts where they are."""
        parts = [x] if isinstance(x, ad.Tensor) else list(x)
        if self.mode == "Sa":
            y = self.dense(parts) if self.dense else ad.concat(parts, axis=0)
            if self.lstm:
                y = ad.concat([y, self.lstm(y)], axis=0)
            return y
        maps = [self.lstm(ad.concat(parts, axis=0))] if self.lstm else []
        if self.mode == "Sb":
            parts += maps
            return self.dense(parts) if self.dense else ad.concat(parts, axis=0)
        return ad.concat(([self.dense(parts)] if self.dense else []) + maps, axis=0)


class BandNet(Module):
    """Multi-scale network for one band: stem conv, downsampling path,
    bottleneck, upsampling path with same-scale skip concatenation."""

    def __init__(self, plan: BandPlan, mode, c_in, freq_bins, rng):
        super().__init__()
        self.plan = plan
        self.freq_bins = freq_bins
        if freq_bins % plan.pad_multiple:
            raise ad.ShapeError(
                "band %s: %d bins not a multiple of %d"
                % (plan.name, freq_bins, plan.pad_multiple)
            )
        self.stem = self.add_child("stem", Conv2d(c_in, plan.growth, 3, 3, rng))
        c = plan.growth
        self.down_channels = []
        for slot_spec in plan.down_slots:
            f_s = freq_bins // (2 ** (slot_spec.scale - 1))
            slot = self.add_child(
                slot_spec.position, Slot(slot_spec, mode, c, f_s, plan.growth, rng)
            )
            c = slot.out_channels
            self.down_channels.append(c)
        for slot_spec in plan.up_slots:
            s = slot_spec.scale
            f_s = freq_bins // (2 ** (s - 1))
            up = self.add_child("up%d" % s, ConvTranspose2x2(c, c, rng))
            c = up.c_out + self.down_channels[s - 1]
            slot = self.add_child(
                slot_spec.position, Slot(slot_spec, mode, c, f_s, plan.growth, rng)
            )
            c = slot.out_channels
        self.out_channels = c

    def forward(self, x):
        if x.shape[1] != self.freq_bins:
            raise ad.ShapeError(
                "band %s expects %d bins, got %d" % (self.plan.name, self.freq_bins, x.shape[1])
            )
        y = self.stem(x)
        skips = []
        down = self.plan.down_slots
        for i, slot_spec in enumerate(down):
            y = self._children[slot_spec.position](y)
            if i < len(down) - 1:
                skips.append(y)
                y = ad.avg_pool2(y)
        # up slots run u(N-1)..u1, so each pops its own scale's skip and
        # reads it, next to the upsampled map, as a channel part
        for slot_spec in self.plan.up_slots:
            y = self._children["up%d" % slot_spec.scale](y)
            y = self._children[slot_spec.position]([y, skips.pop()])
        return y


def _pad_axis(x, axis, target):
    """Pad up to `target` along axis by reflection (a single sample
    repeats)."""
    need = target - x.shape[axis]
    if need < 0:
        raise ad.ShapeError("cannot pad axis %d of %r down to %d" % (axis, x.shape, target))
    if need == 0:
        return x  # np.pad copies a non-contiguous input even with zero width
    width = [(0, 0)] * x.ndim
    width[axis] = (0, need)
    return np.pad(x, width, mode="reflect")


class SeparationModel(Module):
    """Full multi-band model mapping a mixture magnitude map to one
    source's magnitude map of the same shape."""

    def __init__(self, spec: ArchSpec, seed=0):
        super().__init__()
        self.spec = spec
        rng = np.random.default_rng(seed)
        self.band_nets = []
        for plan in spec.bands:
            net = self.add_child(
                "band%s" % plan.name,
                BandNet(plan, spec.mode, spec.io_channels, spec.band_padded_bins(plan), rng),
            )
            self.add_child(
                "align%s" % plan.name,
                Conv2d(net.out_channels, spec.merge_channels, 1, 1, rng),
            )
            self.band_nets.append(net)
        self.full_net = self.add_child(
            "bandfull",
            BandNet(
                spec.full_band,
                spec.mode,
                spec.io_channels,
                spec.band_padded_bins(spec.full_band),
                rng,
            ),
        )
        fuse_in = spec.merge_channels + self.full_net.out_channels
        self.final = self.add_child(
            "final", DenseBlock(fuse_in, spec.final_layers, spec.final_growth, rng)
        )
        self.head = self.add_child(
            "head", Conv2d(self.final.out_channels, spec.io_channels, 1, 1, rng)
        )

    @property
    def dtype(self):
        return self.head.weight.data.dtype

    def forward(self, mag):
        """mag is a (io_channels, num_bins, t) numpy array; returns a
        Tensor of the same shape (non-negative)."""
        mag = np.asarray(mag)
        spec = self.spec
        if mag.ndim != 3 or mag.shape[0] != spec.io_channels or mag.shape[1] != spec.num_bins:
            raise ad.ShapeError(
                "expected (%d, %d, t) input, got %r"
                % (spec.io_channels, spec.num_bins, mag.shape)
            )
        if mag.shape[2] < 1:
            raise ad.ShapeError("need at least one time frame")
        if not np.all(np.isfinite(mag)):
            raise ad.NumericError("non-finite values in model input")
        mag = mag.astype(self.dtype, copy=False)

        t = mag.shape[2]
        m = spec.time_pad_multiple
        t_pad = ((t + m - 1) // m) * m
        x = _pad_axis(mag, 2, t_pad)

        # the full band, the largest net, runs first, so that no band
        # output is held through it and its peak meets a small heap
        xf = _pad_axis(x, 1, self.full_net.freq_bins)
        yf = self.full_net(ad.constant(xf))
        if yf.shape[1] != spec.num_bins:
            yf = yf[:, : spec.num_bins, :]
        del xf

        layout = spec.band_layout()
        band_outputs = []
        for plan, net, (lo, hi) in zip(spec.bands, self.band_nets, layout.ranges):
            xa = _pad_axis(x[:, lo:hi, :], 1, net.freq_bins)
            y = net(ad.constant(xa))
            y = self._children["align%s" % plan.name](y)
            if y.shape[1] != hi - lo:
                y = y[:, : hi - lo, :]
            band_outputs.append(y)
        merged = ad.concat(band_outputs, axis=1)
        del band_outputs, xa, y  # merged holds a copy

        # the final block reads merged and yf (a view of the full band's
        # last output buffer) as its channel parts; without a graph they
        # are freed before the head
        y = self.final([merged, yf])
        del merged, yf
        y = ad.relu(self.head(y))
        if t_pad != t:
            y = y[:, :, :t]
        return y


def build_model(spec: ArchSpec, seed=0) -> SeparationModel:
    return SeparationModel(spec, seed=seed)


# ---------------------------------------------------------------------------
# parameter audits


def count_params(model: SeparationModel):
    """Exact parameter count, itemized by top-level module path."""
    itemized = {}
    total = 0
    for name, p in model.named_params():
        group = name.split(".", 2)
        key = ".".join(group[:2]) if len(group) > 1 else group[0]
        itemized[key] = itemized.get(key, 0) + p.size
        total += p.size
    return total, itemized


def named_slots(model: SeparationModel):
    """Slot name (e.g. 'band1/d4') -> slot module, for every slot."""
    return {
        "band%s/%s" % (net.plan.name, s.position): net._children[s.position]
        for net in model.band_nets + [model.full_net] for s in net.plan.slots
    }


def feature_map_norms(model: SeparationModel, slot_name, run):
    """Per-channel root-mean-square activation norms at a named slot
    (e.g. 'band1/d4') in the first model forward that run() makes.
    Returns (norms, lstm_channel_index_or_None).

    The slot's forward is shadowed on that one instance while run()
    runs, under no_grad, to record its output.
    """
    slots = named_slots(model)
    if slot_name not in slots:
        raise KeyError("unknown slot %r; available: %s" % (slot_name, sorted(slots)))
    slot = slots[slot_name]
    forward = slot.forward
    outputs = []

    def record(x):
        outputs.append(forward(x))
        return outputs[-1]

    slot.forward = record
    try:
        with ad.no_grad():
            run()
    finally:
        del slot.forward
    act = outputs[0].data
    norms = np.sqrt((act * act).mean(axis=(1, 2)))
    return norms, slot.lstm_channel


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_MAGIC = b"STEMSEP1"
_DTYPE_TAGS = {"float64": "<f8", "float32": "<f4"}


def save_checkpoint(path, model: SeparationModel, extra=None):
    """Manifest + raw little-endian payload; round trips bit-exactly."""
    entries = []
    blobs = []
    offset = 0
    for kind, items in (
        ("param", [(n, p.data) for n, p in model.named_params()]),
        ("buffer", list(model.named_buffers())),
    ):
        for name, arr in items:
            tag = _DTYPE_TAGS[str(arr.dtype)]
            blob = np.ascontiguousarray(arr, dtype=tag).tobytes()
            entries.append(
                {
                    "name": name,
                    "kind": kind,
                    "shape": list(arr.shape),
                    "dtype": str(arr.dtype),
                    "offset": offset,
                    "nbytes": len(blob),
                }
            )
            blobs.append(blob)
            offset += len(blob)
    header = {
        "format": "stemsep-checkpoint-v1",
        "endianness": "little",
        "arch_sha256": model.spec.content_hash(),
        "arch_text": model.spec.source_text,
        "entries": entries,
    }
    if extra:
        header["extra"] = extra
    hdr = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(hdr).to_bytes(8, "little"))
        fh.write(hdr)
        for blob in blobs:
            fh.write(blob)


class CheckpointError(RuntimeError):
    pass


# the header's and each entry's fields that the loaders read, with their types
_HEADER_FIELDS = {"arch_sha256": str, "arch_text": str, "entries": list}
_ENTRY_FIELDS = {"name": str, "kind": str, "shape": list, "dtype": str, "offset": int, "nbytes": int}


def _missing_fields(obj, fields):
    """The keys of fields that obj lacks or holds a value of another type under."""
    return [key for key, kind in fields.items()
            if not isinstance(obj, dict) or not isinstance(obj.get(key), kind)]


def read_checkpoint_header(path):
    """(header, payload offset) of a checkpoint. Raises CheckpointError
    naming the path when the header is cut short, not JSON, or lacks a
    field the loaders read (or has one of another type), or when an entry
    does, names a dtype save_checkpoint does not write, or has a negative
    offset or size."""
    with open(path, "rb") as fh:
        if fh.read(8) != CHECKPOINT_MAGIC:
            raise CheckpointError("%s: not a stemsep checkpoint" % path)
        n = int.from_bytes(fh.read(8), "little")
        try:
            header = json.loads(fh.read(n).decode())
        except ValueError as exc:  # a cut or garbled header
            raise CheckpointError("%s: unreadable checkpoint header: %s" % (path, exc)) from exc
        missing = _missing_fields(header, _HEADER_FIELDS)
        if missing:
            raise CheckpointError("%s: checkpoint header lacks %s" % (path, ", ".join(missing)))
        for i, entry in enumerate(header["entries"]):
            missing = _missing_fields(entry, _ENTRY_FIELDS)
            if missing:
                raise CheckpointError("%s: checkpoint entry %d lacks %s"
                                      % (path, i, ", ".join(missing)))
            if entry["dtype"] not in _DTYPE_TAGS:
                raise CheckpointError("%s: checkpoint entry %r has dtype %r, not one of %s"
                                      % (path, entry["name"], entry["dtype"], ", ".join(_DTYPE_TAGS)))
            if entry["offset"] < 0 or entry["nbytes"] < 0:  # would slice from the payload's end
                raise CheckpointError("%s: checkpoint entry %r has a negative offset or size"
                                      % (path, entry["name"]))
        return header, fh.tell()


def load_checkpoint(path, model: SeparationModel):
    header, payload_start = read_checkpoint_header(path)
    if header["arch_sha256"] != model.spec.content_hash():
        raise CheckpointError(
            "%s: checkpoint architecture hash does not match this model" % path
        )
    targets = {("param", n): p for n, p in model.named_params()}
    targets.update((("buffer", n), b) for n, b in model.named_buffers())
    with open(path, "rb") as fh:
        fh.seek(payload_start)
        payload = fh.read()
    loaded = []
    for entry in header["entries"]:
        kind, name = entry["kind"], entry["name"]
        if (kind, name) not in targets:
            raise CheckpointError("%s: unknown %s %r" % (path, kind, name))
        target = targets[kind, name]
        if tuple(target.shape) != tuple(entry["shape"]):
            raise CheckpointError("%s: shape mismatch for %r" % (path, name))
        raw = payload[entry["offset"]:entry["offset"] + entry["nbytes"]]
        try:
            arr = np.frombuffer(raw, dtype=_DTYPE_TAGS[entry["dtype"]]).reshape(entry["shape"])
        except ValueError as exc:  # the payload ends before the entry does
            raise CheckpointError("%s: payload does not hold %s %r" % (path, kind, name)) from exc
        loaded.append((kind, target, arr.astype(entry["dtype"])))
    given = {(entry["kind"], entry["name"]) for entry in header["entries"]}
    missing = ["%s %r" % key for key in targets if key not in given]
    if missing:
        raise CheckpointError("%s: checkpoint lacks %s" % (path, ", ".join(missing)))
    # every entry has passed its checks: only now is the model written
    for kind, target, arr in loaded:
        if kind == "param":
            target.data = arr
        else:
            target[...] = arr  # a buffer keeps its array: BN updates it in place
    return header


def load_checkpoint_model(path) -> SeparationModel:
    """Rebuild the model from the arch text embedded in the checkpoint."""
    from .arch import parse_arch_text

    header, _ = read_checkpoint_header(path)
    try:
        spec = parse_arch_text(header["arch_text"])
    except ConfigError as exc:
        raise CheckpointError("%s: checkpoint arch_text: %s" % (path, exc)) from exc
    model = build_model(spec)
    if header["entries"] and header["entries"][0]["dtype"] == "float32":
        model.astype(np.float32)
    load_checkpoint(path, model)
    return model
