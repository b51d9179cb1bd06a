"""Architecture description: band plans, scale slots, config file parsing.

The plain-text config format mirrors the shipped default (configs/
full44k.cfg): global keys, then one `band` stanza per sub-network with a
slot line per scale. Slot positions are d1..dN on the downsampling path
and u(N-1)..u1 on the upsampling path; the deepest d-slot is the
bottleneck. A slot may carry a dense block (l, growth from the band), an
LSTM block (m units), or both.
"""

from __future__ import annotations

import hashlib
import importlib.resources
from dataclasses import dataclass, replace

from .dsp import BandLayout, InputError

VALID_MODES = ("Sa", "Sb", "P")


class ConfigError(ValueError):
    """Malformed architecture configuration."""


@dataclass(frozen=True)
class ScaleSlot:
    """One scale of a band: a dense block of `layers` layers at the
    band's growth rate, a BiLSTM block of `units` units, or both."""

    position: str  # e.g. "d1", "u2"
    layers: int | None = None
    units: int | None = None

    def __post_init__(self):
        if self.position[0] not in "du" or not self.position[1:].isdigit():
            raise ConfigError("bad slot position %r" % (self.position,))
        if self.layers is None and self.units is None:
            raise ConfigError("slot %s has neither dense nor LSTM block" % self.position)
        if self.layers is not None and self.layers < 0:
            raise ConfigError("slot %s: dense block needs layers >= 0" % self.position)
        if self.units is not None and self.units < 1:
            raise ConfigError("slot %s: LSTM block needs at least one unit" % self.position)

    @property
    def scale(self):
        return int(self.position[1:])


@dataclass(frozen=True)
class BandPlan:
    name: str  # "1", "2", ... or "full"
    growth: int
    slots: tuple

    def __post_init__(self):
        if self.growth < 1:
            raise ConfigError("band %s: growth must be at least 1, got %r"
                              % (self.name, self.growth))
        down = [s for s in self.slots if s.position[0] == "d"]
        up = [s for s in self.slots if s.position[0] == "u"]
        if [s.scale for s in down] != list(range(1, len(down) + 1)):
            raise ConfigError("band %s: down slots must be d1..dN" % self.name)
        if [s.scale for s in up] != list(range(len(down) - 1, 0, -1)):
            raise ConfigError(
                "band %s: up slots must be u%d..u1" % (self.name, len(down) - 1)
            )

    @property
    def down_slots(self):
        return tuple(s for s in self.slots if s.position[0] == "d")

    @property
    def up_slots(self):
        return tuple(s for s in self.slots if s.position[0] == "u")

    @property
    def depth(self):
        return len(self.down_slots)

    @property
    def pad_multiple(self):
        return 2 ** (self.depth - 1)


@dataclass(frozen=True)
class ArchSpec:
    bands: tuple  # dedicated BandPlans, low band first
    full_band: BandPlan
    mode: str = "Sa"
    final_layers: int = 3
    final_growth: int = 12
    io_channels: int = 2
    fft_size: int = 4096
    sample_rate: int = 44100
    band_edges_hz: tuple = (4100, 11000)
    merge_channels: int = 8

    def __post_init__(self):
        if self.mode not in VALID_MODES:
            raise ConfigError("combination mode must be one of %r" % (VALID_MODES,))
        names = [b.name for b in self.all_plans()]
        if names[-1] != "full" or len(set(names)) < len(names):
            raise ConfigError("band names must be distinct, with 'full' only last: %r" % names)
        # fft_size 4 is the least with a nonzero hop
        for key, low in (("fft_size", 4), ("sample_rate", 1), ("io_channels", 1),
                         ("merge_channels", 1), ("final_growth", 1), ("final_layers", 0)):
            if getattr(self, key) < low:
                raise ConfigError("%s must be at least %d, got %r"
                                  % (key, low, getattr(self, key)))
        if len(self.band_edges_hz) != len(self.bands) - 1:
            raise ConfigError(
                "%d band edges cannot partition the spectrum into %d bands"
                % (len(self.band_edges_hz), len(self.bands))
            )
        if any(float("%g" % e) != e for e in self.band_edges_hz):  # as canonical_text writes
            raise ConfigError("band edges need at most 6 significant digits, got %r"
                              % (self.band_edges_hz,))
        try:
            self.band_layout()
        except InputError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def num_bins(self):
        return self.fft_size // 2 + 1

    def band_layout(self):
        return BandLayout(self.band_edges_hz, self.fft_size, self.sample_rate)

    def all_plans(self):
        return tuple(self.bands) + (self.full_band,)

    @property
    def time_pad_multiple(self):
        return max(p.pad_multiple for p in self.all_plans())

    def band_padded_bins(self, plan):
        """Frequency extent each band net actually runs on (padded up)."""
        if plan.name == "full":
            width = self.num_bins
        else:
            layout = self.band_layout()
            lo, hi = layout.ranges[[b.name for b in self.bands].index(plan.name)]
            width = hi - lo
        m = plan.pad_multiple
        return ((width + m - 1) // m) * m

    @property
    def source_text(self):
        """The config text of this spec: derived, so it cannot go stale."""
        return canonical_text(self)

    def content_hash(self):
        return hashlib.sha256(canonical_text(self).encode()).hexdigest()


# ---------------------------------------------------------------------------
# config serialization


def canonical_text(spec: ArchSpec) -> str:
    lines = [
        "mode %s" % spec.mode,
        "fft_size %d" % spec.fft_size,
        "sample_rate %d" % spec.sample_rate,
        "band_edges_hz %s" % " ".join("%g" % e for e in spec.band_edges_hz),
        "io_channels %d" % spec.io_channels,
        "merge_channels %d" % spec.merge_channels,
        "final_dense layers=%d growth=%d" % (spec.final_layers, spec.final_growth),
    ]
    for plan in spec.all_plans():
        lines.append("")
        lines.append("band %s growth=%d" % (plan.name, plan.growth))
        for slot in plan.slots:
            parts = ["  " + slot.position]
            if slot.layers is not None:
                parts.append("l=%d" % slot.layers)
            if slot.units is not None:
                parts.append("m=%d" % slot.units)
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _key_values(tokens, keys):
    """k=v tokens as {k: int(v)}, each k one of `keys` and given once."""
    kv = {}
    for token in tokens:
        key, value = token.split("=", 1)
        if key not in keys or key in kv:
            raise ConfigError("%s key %r" % ("repeated" if key in kv else "unknown", key))
        kv[key] = int(value)
    return kv


def parse_arch_text(text: str) -> ArchSpec:
    globals_ = {}
    plans = []
    given = set()  # global keys and "band NAME"s: each may appear once
    current = None  # (name, growth, [slots])

    def finish():
        if current is not None:
            name, growth, slots = current
            plans.append(BandPlan(name=name, growth=growth, slots=tuple(slots)))

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key == "band":
            finish()  # errors in the finished band name the band, not this line
        try:
            if key[0] in "du" and key[1:].isdigit():
                if current is None:
                    raise ConfigError("slot line outside a band stanza")
                kv = _key_values(tokens[1:], ("l", "m"))
                current[2].append(ScaleSlot(key, kv.get("l"), kv.get("m")))
                continue
            once = " ".join(tokens[:2]) if key == "band" else key
            if once in given:
                raise ConfigError("%s given twice" % once)
            given.add(once)
            if key == "band":
                current = (tokens[1], _key_values(tokens[2:], ("growth",))["growth"], [])
            elif key == "final_dense":
                kv = _key_values(tokens[1:], ("layers", "growth"))
                globals_["final_layers"] = kv["layers"]
                globals_["final_growth"] = kv["growth"]
            elif key == "band_edges_hz":
                globals_["band_edges_hz"] = tuple(float(t) for t in tokens[1:])
            elif key in ("mode", "fft_size", "sample_rate", "io_channels", "merge_channels"):
                (value,) = tokens[1:]
                globals_[key] = value if key == "mode" else int(value)
            else:
                raise ConfigError("unknown key %r" % key)
        except (IndexError, KeyError, ValueError) as exc:
            detail = exc if isinstance(exc, ConfigError) else "cannot parse %r (%s)" % (raw, exc)
            raise ConfigError("line %d: %s" % (lineno, detail)) from None
    finish()

    named = {p.name: p for p in plans}
    if "full" not in named:
        raise ConfigError("config must define a 'full' band")
    dedicated = tuple(p for p in plans if p.name != "full")
    return ArchSpec(bands=dedicated, full_band=named["full"], **globals_)


def load_arch_file(path) -> ArchSpec:
    with open(path) as fh:
        return parse_arch_text(fh.read())


def default_arch() -> ArchSpec:
    """The shipped three-band-plus-full default configuration."""
    text = (
        importlib.resources.files("stemsep")
        .joinpath("configs/full44k.cfg")
        .read_text()
    )
    return parse_arch_text(text)


# ---------------------------------------------------------------------------
# reductions for desk-scale runs


def reduce_spec(spec: ArchSpec) -> ArchSpec:
    """Shrink for desk-scale tests: growth halved, one scale fewer.

    The deepest down-slot of every band is dropped (its LSTM, if any,
    moves to the new bottleneck) along with the matching up-slot; LSTM
    units are halved.
    """

    def shrink(plan: BandPlan) -> BandPlan:
        growth = max(1, plan.growth // 2)
        down = list(plan.down_slots)
        up = list(plan.up_slots)
        if len(down) > 1:
            dropped = down.pop()
            up = up[1:]
            if dropped.units is not None and down[-1].units is None:
                down[-1] = replace(down[-1], units=dropped.units)

        def adjust(slot):
            if slot.units is None:
                return slot
            return replace(slot, units=max(1, slot.units // 2))

        return BandPlan(plan.name, growth, tuple(adjust(s) for s in down + up))

    return replace(
        spec,
        bands=tuple(shrink(b) for b in spec.bands),
        full_band=shrink(spec.full_band),
    )


def toy_arch(fft_size=256, sample_rate=8000) -> ArchSpec:
    """A tiny three-band spec for fast structural and gradient tests."""
    return ArchSpec(
        bands=(
            BandPlan("1", 3, (ScaleSlot("d1", 2), ScaleSlot("d2", 2, 4), ScaleSlot("u1", 2))),
            BandPlan("2", 2, (ScaleSlot("d1", 1), ScaleSlot("d2", 1), ScaleSlot("u1", 1))),
            BandPlan("3", 2, (ScaleSlot("d1", 1), ScaleSlot("d2", units=3), ScaleSlot("u1", 1))),
        ),
        full_band=BandPlan(
            "full", 2, (ScaleSlot("d1", 1), ScaleSlot("d2", 2, 4), ScaleSlot("u1", 1))
        ),
        mode="Sa",
        final_layers=2,
        final_growth=3,
        fft_size=fft_size,
        sample_rate=sample_rate,
        band_edges_hz=(800, 2200),
        merge_channels=4,
    )


# ---------------------------------------------------------------------------
# receptive field along the time axis (convolutional path only)


def _plan_receptive_field(plan: BandPlan, stem=True):
    rf = 1
    jump = 1
    if stem:
        rf += 2 * jump  # 3x3 stem conv
    down = plan.down_slots
    for i, slot in enumerate(down):
        if slot.layers:
            rf += 2 * slot.layers * jump
        if i < len(down) - 1:
            rf += jump  # 2x2 average pool
            jump *= 2
    for slot in plan.up_slots:
        jump //= 2  # non-overlapping stride-2 upsampler adds no context
        if slot.layers:
            rf += 2 * slot.layers * jump
    return rf


def receptive_field(spec: ArchSpec):
    """Analytic time-axis receptive field per band and overall.

    LSTM blocks see the whole padded input along time, so the
    convolutional figure below is a lower bound wherever a band has an
    LSTM block; `has_lstm` flags those bands.
    """
    final = 2 * spec.final_layers  # final 3x3 dense block at full resolution
    per_band = {}
    for plan in spec.all_plans():
        per_band[plan.name] = {
            "conv_frames": _plan_receptive_field(plan) + final,
            "has_lstm": any(s.units is not None for s in plan.slots),
        }
    overall = max(b["conv_frames"] for b in per_band.values())
    return {"per_band": per_band, "overall_conv_frames": overall}
