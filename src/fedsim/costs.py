"""Calibrated resource model.

Maps (architecture, resolution, batch) to training time, peak GPU memory,
power and utilization ranges, using measured values shipped in
``data/cost_calibration.json``.  Values the calibration does not cover are
derived (scaled or interpolated) and flagged as estimated.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from importlib import resources
from itertools import chain

import numpy as np

from . import streams
from .errors import ConfigError

ARCHITECTURES = ("v5", "v8", "v11")
RESOLUTIONS = (320, 640, 960)
BATCHES = (4, 8, 16, 32)

# Memory of the default client device, MiB; the calibration file states
# the same figure as default_device_mem_capacity_mib.
DEFAULT_MEM_CAPACITY_MIB = 49140.0


@dataclass(frozen=True)
class CostEntry:
    resolution: int
    batch: int
    train_time_s: float  # per reference 10-round run at full data
    peak_mem_mib: float
    power_w_range: tuple[float, float]
    util_pct_range: tuple[float, float]
    estimated: bool = False  # True when any field is derived, not measured

    def __post_init__(self):
        if self.train_time_s <= 0 or self.peak_mem_mib <= 0:
            raise ConfigError("time and memory must be strictly positive")
        for low, high in (self.power_w_range, self.util_pct_range):
            if low > high:
                raise ConfigError("range low must not exceed high")


@dataclass(frozen=True)
class CostProfile:
    architecture: str
    entries: dict[tuple[int, int], CostEntry]


@dataclass(frozen=True)
class DeviceSpec:
    mem_capacity_mib: float = DEFAULT_MEM_CAPACITY_MIB
    speed_factor: float = 1.0

    def __post_init__(self):
        # Written so that NaN fails them too.
        if not self.mem_capacity_mib > 0:
            raise ConfigError("memory capacity must be positive")
        if not self.speed_factor > 0:
            raise ConfigError("speed factor must be positive")


@dataclass(frozen=True)
class Calibration:
    profiles: dict[str, CostProfile]
    fedprox_time_factor: float
    idle_power_w: float
    idle_util_pct_range: tuple[float, float]

    def profile(self, architecture: str) -> CostProfile:
        try:
            return self.profiles[architecture]
        except KeyError:
            raise ConfigError(
                f"unknown architecture {architecture!r}; "
                f"expected one of {', '.join(ARCHITECTURES)}"
            ) from None


_CACHED: Calibration | None = None


def load_calibration(path: str | None = None) -> Calibration:
    """Load the shipped calibration tables, or an override file; a file
    that is missing, is not JSON, or lacks or mistypes a field is a
    `ConfigError`."""
    global _CACHED
    if path is None and _CACHED is not None:
        return _CACHED
    if path is None:
        text = (
            resources.files("fedsim.data").joinpath("cost_calibration.json").read_text()
        )
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except FileNotFoundError:
            raise ConfigError(f"calibration file not found: {path}") from None
    try:
        cal = _build_calibration(json.loads(text))
    except (ConfigError, AttributeError, KeyError, TypeError, ValueError) as exc:
        problem = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigError(f"calibration file {path or 'cost_calibration.json'} is malformed: "
                          f"{problem}") from None
    if path is None:
        _CACHED = cal
    return cal


def _range(value) -> tuple:
    """A JSON [low, high] pair of finite numbers, as read."""
    if not (type(value) is list and len(value) == 2
            and all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in value)):
        raise TypeError(f"expected a [low, high] pair of finite numbers, got {value!r}")
    return tuple(value)


def _build_calibration(doc: dict) -> Calibration:
    profiles = {}
    archs = doc["architectures"]
    v8_times = {
        key: spec["train_time_s"]
        for key, spec in archs["v8"]["entries"].items()
        if "train_time_s" in spec
    }
    for arch, arch_doc in archs.items():
        power = _range(arch_doc["power_w_range"])
        util = _range(arch_doc["util_pct_range"])
        entries = {}
        # Architectures without a full time series get v8's shape scaled by
        # the measured 640x32 ratio; those times are flagged estimated.
        own_ref = arch_doc["entries"]["640x32"].get("train_time_s")
        v8_ref = v8_times["640x32"]
        for key, spec in arch_doc["entries"].items():
            res_s, batch_s = key.split("x")
            res, batch = int(res_s), int(batch_s)
            time = spec.get("train_time_s")
            estimated = False
            if time is None:
                time = v8_times[key] * (own_ref / v8_ref)
                estimated = True
            entries[(res, batch)] = CostEntry(
                resolution=res,
                batch=batch,
                train_time_s=float(time),
                peak_mem_mib=float(spec["peak_mem_mib"]),
                power_w_range=power,
                util_pct_range=util,
                estimated=estimated,
            )
        profiles[arch] = CostProfile(arch, entries)
    return Calibration(
        profiles=profiles,
        fedprox_time_factor=float(doc["fedprox_time_factor"]),
        idle_power_w=float(doc["idle_power_w"]),
        idle_util_pct_range=_range(doc["idle_util_pct_range"]),
    )


def lookup(
    profile: CostProfile,
    resolution: int,
    batch: int,
    allow_extrapolation: bool = False,
) -> CostEntry:
    """Exact entry for calibrated keys; log-linear batch interpolation
    otherwise.

    Keys outside the calibrated hull at the requested resolution raise
    unless extrapolation is explicitly allowed, in which case the batch
    shape measured at 960 is applied multiplicatively and flagged
    estimated.
    """
    key = (resolution, batch)
    if key in profile.entries:
        return profile.entries[key]
    at_res = sorted(b for (r, b) in profile.entries if r == resolution)
    if not at_res:
        raise ConfigError(
            f"resolution {resolution} is not calibrated for {profile.architecture}"
        )
    below = [b for b in at_res if b < batch]
    above = [b for b in at_res if b > batch]
    if below and above:
        b0, b1 = below[-1], above[0]
        e0, e1 = profile.entries[(resolution, b0)], profile.entries[(resolution, b1)]
        t = (math.log(batch) - math.log(b0)) / (math.log(b1) - math.log(b0))

        def mix(a: float, b: float) -> float:
            return math.exp((1 - t) * math.log(a) + t * math.log(b))

        return CostEntry(
            resolution=resolution,
            batch=batch,
            train_time_s=mix(e0.train_time_s, e1.train_time_s),
            peak_mem_mib=mix(e0.peak_mem_mib, e1.peak_mem_mib),
            power_w_range=e0.power_w_range,
            util_pct_range=e0.util_pct_range,
            estimated=True,
        )
    if not allow_extrapolation:
        raise ConfigError(
            f"({resolution}, {batch}) lies outside the calibrated hull for "
            f"{profile.architecture}; pass allow_extrapolation to estimate it"
        )
    # Apply the batch-size shape measured at 960 to this resolution's
    # batch-32 anchor.
    anchor = profile.entries[(resolution, 32)]
    shape_src = profile.entries.get((960, batch))
    shape_ref = profile.entries.get((960, 32))
    if shape_src is None or shape_ref is None:
        raise ConfigError(f"no batch shape available for batch {batch}")
    return replace(
        anchor,
        batch=batch,
        train_time_s=anchor.train_time_s * shape_src.train_time_s / shape_ref.train_time_s,
        peak_mem_mib=anchor.peak_mem_mib * shape_src.peak_mem_mib / shape_ref.peak_mem_mib,
        estimated=True,
    )


def client_round_time(
    entry: CostEntry,
    data_fraction: float,
    device: DeviceSpec,
    strategy: str,
    fedprox_factor: float,
) -> float:
    """Modeled wall time for one client's local training window.

    Scales linearly with data volume, inversely with device speed, with a
    uniform multiplicative overhead for proximal training (the calibration's
    `fedprox_time_factor`).
    """
    if data_fraction <= 0:
        raise ConfigError("data_fraction must be positive")
    overhead = fedprox_factor if strategy == "fedprox" else 1.0
    return entry.train_time_s * data_fraction / device.speed_factor * overhead


def check_memory(entry: CostEntry, device: DeviceSpec) -> bool:
    """True when the configuration fits the device (<= capacity passes)."""
    return entry.peak_mem_mib <= device.mem_capacity_mib


def sample_power_and_util(entries: list[CostEntry], head, *parts) -> list[tuple[float, float]]:
    """Seeded draws of (watts, utilization %) for training windows, one per
    entry, uniform within its measured ranges.  Window i draws from key i of
    `streams.derive(head, *parts)`, as `rng.uniform` twice on
    `default_rng(key)` would: power from the first double, utilization from
    the second."""
    u = streams.uniforms(2, head, *parts)
    ranges = np.fromiter(chain.from_iterable(e.power_w_range + e.util_pct_range for e in entries),
                         float, 4 * len(entries)).reshape(-1, 4)
    low = ranges[:, ::2]
    return list(zip(*(low + (ranges[:, 1::2] - low) * u).T.tolist()))


def sample_idle_power_and_util(
    seed, calibration: Calibration | None = None
) -> tuple[float, float]:
    """Seeded (watts, utilization %) for the idle aggregation phase: the
    fixed idle power floor and a uniform draw from the observed 0-10%
    utilization band."""
    cal = calibration or load_calibration()
    util = float(np.random.default_rng(seed).uniform(*cal.idle_util_pct_range))
    return cal.idle_power_w, util


def validate_calibration(cal: Calibration) -> list[str]:
    """Check the measured monotonicity properties; return violations."""
    problems = []
    needed = {(r, 32) for r in RESOLUTIONS} | {(960, b) for b in BATCHES}
    for arch, profile in cal.profiles.items():
        missing = sorted(needed - profile.entries.keys())
        if missing:
            problems.append(f"{arch}: no entry for {', '.join(f'{r}x{b}' for r, b in missing)}")
            continue
        mem32 = [profile.entries[(r, 32)].peak_mem_mib for r in RESOLUTIONS]
        if not (mem32[0] < mem32[1] < mem32[2]):
            problems.append(f"{arch}: memory not increasing with resolution at batch 32")
        t32 = [profile.entries[(r, 32)].train_time_s for r in RESOLUTIONS]
        if not (t32[0] < t32[1] < t32[2]):
            problems.append(f"{arch}: time not increasing with resolution at batch 32")
        mem960 = [profile.entries[(960, b)].peak_mem_mib for b in BATCHES]
        if not all(a < b for a, b in zip(mem960, mem960[1:])):
            problems.append(f"{arch}: memory not increasing with batch at 960")
        t960 = [profile.entries[(960, b)].train_time_s for b in BATCHES]
        if not all(a > b for a, b in zip(t960, t960[1:])):
            problems.append(f"{arch}: time not decreasing with batch at 960")
    return problems
