"""Declarative experiment configuration: strict loading, defaults, presets.

Configs are YAML (or JSON) mappings mirroring the dataclasses below.  Unknown
keys are rejected, and every range is checked when a config is built,
``dataclasses.replace`` included.  Named presets reproduce the standard setups.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import math
import sys
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np

from .channel import (GeometryError, Luminaire, PhotoDetector, RoomLayout,
                      distance_gain_prefactor, square_grid_layout)
from .csi import error_bound
from .precoding import MAX_ENUMERATED_LINKS

__all__ = [
    "ConfigError",
    "DetectorConfig",
    "LayoutConfig",
    "NoiseConfig",
    "SweepConfig",
    "CsiConfig",
    "MobilityConfig",
    "MonteCarloConfig",
    "ExperimentConfig",
    "load_config",
    "config_from_dict",
    "preset",
    "PRESET_NAMES",
]


# Gain-map cells a config may ask for: a 2 mm raster of the default 4 m room.
MAX_RASTER_CELLS = 4_000_000
# SNR grid limits; at 6000 dB, 10^(-SNR/20) = 1e-300 keeps every z and rate finite.
MAX_SNR_DB, MAX_SNR_POINTS = 6000.0, 10_000


class ConfigError(ValueError):
    """Invalid or unparsable experiment configuration."""


def _conforms(value, hint) -> bool:
    """Whether ``value`` is of the type ``hint`` names, numbers finite.

    A float field takes any finite int or float, an int field only an int, a
    tuple field a tuple or list of the declared length, a ``Literal`` field
    one of its values.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) is types.UnionType:
        return any(_conforms(value, arg) for arg in args)
    if typing.get_origin(hint) is Literal:
        return any(type(value) is type(arg) and value == arg for arg in args)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (tuple, list)):
            return False
        args = args[:1] * len(value) if args[-1] is Ellipsis else args
        return len(args) == len(value) and all(map(_conforms, value, args))
    if hint is float:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
    return type(value) is hint


def _config(cls):
    """Frozen dataclass whose every field must conform to its type hint.

    Checked on construction and on ``dataclasses.replace`` alike, before the
    class's own ``__post_init__`` checks ranges.
    """
    hints, check_ranges = typing.get_type_hints(cls), getattr(cls, "__post_init__", None)

    def __post_init__(self):
        for name, hint in hints.items():
            value = getattr(self, name)
            if not _conforms(value, hint):
                kind = hint.__name__ if isinstance(hint, type) else str(hint)
                raise ConfigError(f"{cls.__name__}.{name}: {value!r} is not of type "
                                  f"{kind.replace('typing.', '')} (numbers must be finite)")
        if check_ranges is not None:
            check_ranges(self)

    cls.__post_init__ = __post_init__
    return dataclass(frozen=True)(cls)


@_config
class DetectorConfig:
    area_m2: float = 1e-4
    fov_deg: float = 60.0
    responsivity_a_per_w: float = 1.0
    refractive_index: float = 1.5
    filter_gain: float = 1.0


@_config
class LayoutConfig:
    room_x_m: float = 4.0
    room_y_m: float = 4.0
    room_z_m: float = 3.0
    receiver_plane_z_m: float = 0.75
    luminaire_z_m: float | None = None
    n_links: int = 4
    spacing_m: float = 1.0
    semi_angle_deg: float = 15.0
    leds_per_luminaire: int = 3600
    power_per_led_w: float = 0.010
    detector: DetectorConfig = field(default_factory=DetectorConfig)


@_config
class NoiseConfig:
    """Receiver noise: a transmit-SNR axis, or these device values (``noise.physical_sigma``)."""

    mode: Literal["swept", "physical"] = "swept"
    bandwidth_hz: float = 100e6
    background_current_a: float = 100e-6
    noise_bandwidth_factor_i2: float = 0.562
    noise_bandwidth_factor_i3: float = 0.0868
    temperature_k: float = 295.0
    open_loop_gain: float = 10.0
    capacitance_per_area_f_m2: float = 1.12e-6
    fet_noise_factor: float = 1.5
    fet_transconductance_s: float = 30e-3

    def __post_init__(self):
        for name, value in vars(self).items():
            if name != "mode" and not value > 0.0:
                raise ConfigError(f"noise.{name} must be positive, got {value!r}")


@_config
class SweepConfig:
    snr_start_db: float = 70.0
    snr_stop_db: float = 130.0
    snr_step_db: float = 2.0

    def __post_init__(self):
        if self.snr_step_db <= 0.0:
            raise ConfigError("sweep.snr_step_db must be positive")
        if self.snr_stop_db < self.snr_start_db:
            raise ConfigError("sweep.snr_stop_db must be >= snr_start_db")
        if self.snr_stop_db > MAX_SNR_DB or len(self.points()) > MAX_SNR_POINTS:
            raise ConfigError(f"sweep points must lie at or below {MAX_SNR_DB} dB and "
                              f"number at most {MAX_SNR_POINTS}")

    def points(self) -> tuple[float, ...]:
        """The grid as floats, up to the last point not above the stop.

        Steps within 1e-9 of a whole count reach the stop, so exact grids keep
        their count and end at it.  Counted first, so it stops one point past
        the cap.
        """
        start, stop, step = self.snr_start_db, self.snr_stop_db, self.snr_step_db
        n = math.floor(min((stop - start) / step, MAX_SNR_POINTS) + 1e-9) + 1
        return tuple(float(min(start + i * step, stop)) for i in range(n))


@_config
class CsiConfig:
    mode: Literal["perfect", "outdated"] = "perfect"
    model: Literal["uniform", "worst_case"] = "uniform"
    mobile_user: int = 0
    worst_case_sign: Literal["pessimistic", "plus", "minus"] = "pessimistic"

    def __post_init__(self):
        if self.mobile_user < 0:
            raise ConfigError("csi.mobile_user must be >= 0")


@_config
class MobilityConfig:
    """Horizontal move of the mobile user relative to its luminaire axis."""

    start_xy_m: tuple[float, float] = (0.0, 0.0)
    speed_mps: float = 1.0
    direction: tuple[float, float] = (1.0, 0.0)
    elapsed_times_s: tuple[float, ...] = (0.02, 0.1, 0.3)

    def __post_init__(self):
        if self.speed_mps < 0.0:
            raise ConfigError("mobility.speed_mps must be nonnegative")
        if any(t <= 0.0 for t in self.elapsed_times_s):
            raise ConfigError("mobility.elapsed_times_s must be positive")
        if len(set(self.elapsed_times_s)) != len(self.elapsed_times_s):
            raise ConfigError(f"mobility.elapsed_times_s {list(self.elapsed_times_s)} "
                              "repeat an entry")
        if not any(self.direction):
            raise ConfigError("mobility.direction must be a nonzero vector")
        object.__setattr__(self, "start_xy_m", tuple(float(c) for c in self.start_xy_m))
        norm = float(np.hypot(*self.direction))
        object.__setattr__(self, "direction",
                           tuple(float(c) / norm for c in self.direction))
        object.__setattr__(self, "elapsed_times_s",
                           tuple(float(t) for t in self.elapsed_times_s))

    def end_xy(self, elapsed_s: float) -> tuple[float, float]:
        dist = self.speed_mps * elapsed_s
        return (self.start_xy_m[0] + dist * self.direction[0],
                self.start_xy_m[1] + dist * self.direction[1])


@_config
class MonteCarloConfig:
    n_symbols: int = 2_000_000
    block_size: int = 65536

    def __post_init__(self):
        if self.n_symbols < 1:
            raise ConfigError("montecarlo.n_symbols must be >= 1")
        if self.block_size < 1:
            raise ConfigError("montecarlo.block_size must be >= 1")


@_config
class ExperimentConfig:
    """A whole experiment, checked when built, ``dataclasses.replace`` included.

    After the field checks, the geometry is built once and kept for the
    recipes: each variant's layout (``layouts``) and gain-error bounds
    (``error_bounds``).  Link counts are capped by the word enumeration,
    gain-map cells by ``MAX_RASTER_CELLS``, and the mobile user must be a
    link of every variant's array.  Every bound must be finite whatever
    ``csi.mode`` says, as ``mobility`` runs outdated knowledge, and so must
    the transmit amplitude.  Swept noise must give a positive finite deviation
    at both ends of the SNR grid; physical noise a finite thermal variance.
    """

    name: str = "experiment"
    seed: int = 20260810
    schemes: tuple[Literal["ci", "oap"], ...] = ("ci", "oap")
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    csi: CsiConfig = field(default_factory=CsiConfig)
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    montecarlo: MonteCarloConfig = field(default_factory=MonteCarloConfig)
    spacings_m: tuple[float, ...] | None = None
    semi_angles_deg: tuple[float, ...] | None = None
    mimo_orders: tuple[int, ...] | None = None
    map_resolution_m: float = 0.05
    renormalize_oap: bool = False

    def __post_init__(self):
        # The name prefixes every output file, so it must not leave --out.
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\\0"):
            raise ConfigError(f"name {self.name!r} must be a plain file name, not a path")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed!r}")
        if not self.schemes:
            raise ConfigError("at least one scheme is required")
        if self.map_resolution_m <= 0.0:
            raise ConfigError("map_resolution_m must be positive")
        for axis in ("spacings_m", "semi_angles_deg", "mimo_orders"):
            if getattr(self, axis) is not None and not getattr(self, axis):
                raise ConfigError(f"{axis} is empty; omit it to run the layout's own value")
        for axis in ("schemes", "spacings_m", "semi_angles_deg", "mimo_orders"):
            values = getattr(self, axis) or ()
            if len(set(values)) != len(values):
                raise ConfigError(f"{axis} {list(values)} repeat an entry")
        object.__setattr__(self, "schemes", tuple(self.schemes))
        sizes = sorted({n for n, _, _ in self.variants()})
        if max(sizes) > MAX_ENUMERATED_LINKS:
            raise ConfigError(f"link counts {sizes} exceed the limit of "
                              f"{MAX_ENUMERATED_LINKS} enumerated links")
        layouts = list(self.layouts.values())     # built and kept here; the recipes read them
        cells = math.prod(math.ceil(min(side / self.map_resolution_m, MAX_RASTER_CELLS + 1))
                          for side in (self.layout.room_x_m, self.layout.room_y_m))
        if cells > MAX_RASTER_CELLS:
            raise ConfigError(f"map_resolution_m {self.map_resolution_m} makes more than "
                              f"{MAX_RASTER_CELLS} gain-map cells")
        if self.csi.mode == "outdated" and not self.mobility.elapsed_times_s:
            raise ConfigError("csi.mode outdated needs at least one mobility.elapsed_times_s")
        if self.csi.mobile_user >= min(sizes):
            raise ConfigError(f"csi.mobile_user {self.csi.mobile_user} is not a link of "
                              f"the smallest array in use ({min(sizes)} links)")
        self.error_bounds           # likewise; each bound is checked as it is built
        # Imported here, as noise imports this module.
        from .noise import sigma_from_transmit_snr, thermal_variance
        # The variants share the luminaire power and the detector.
        lum, det = layouts[0].luminaire, layouts[0].detector
        try:
            amplitude = det.responsivity * lum.total_power
        except OverflowError:       # an integer LED count past the float range
            amplitude = math.inf
        if not math.isfinite(amplitude):
            raise ConfigError(f"layout.detector.responsivity_a_per_w x layout.leds_per_luminaire "
                              f"x layout.power_per_led_w gives the transmit amplitude "
                              f"{amplitude!r}; it must be finite")
        if self.noise.mode == "swept":
            points = self.sweep.points()
            for snr in (points[0], points[-1]):
                try:
                    sigma = sigma_from_transmit_snr(snr, det.responsivity, lum.total_power)
                except OverflowError:
                    sigma = math.inf
                if not 0.0 < sigma < math.inf:
                    raise ConfigError(f"sweep point {snr!r} dB gives the noise deviation "
                                      f"{sigma!r}; it must be positive and finite")
        else:
            try:
                thermal = thermal_variance(det.area, self.noise)
            except OverflowError:
                thermal = math.inf
            if not math.isfinite(thermal):
                raise ConfigError(f"noise gives the thermal variance {thermal!r}; "
                                  "noise.bandwidth_hz and the front-end values must keep "
                                  "it finite")

    def variants(self):
        """Cartesian product of the configured sweep axes (order, spacing, angle)."""
        orders = self.mimo_orders or (self.layout.n_links,)
        spacings = self.spacings_m or (self.layout.spacing_m,)
        angles = self.semi_angles_deg or (self.layout.semi_angle_deg,)
        for n in orders:
            for sp in spacings:
                for ang in angles:
                    yield int(n), float(sp), float(ang)

    @functools.cached_property
    def layouts(self) -> types.MappingProxyType:
        """Each variant's ``RoomLayout``, keyed by its ``variants()`` tuple, in that order.

        One ``PhotoDetector`` serves every variant, and each has its own ``Luminaire``
        (the semi-angle is a variant axis).  A refused geometry raises ``ConfigError``.
        """
        lay, det = self.layout, self.layout.detector
        try:
            detector = PhotoDetector(det.area_m2, det.fov_deg, det.responsivity_a_per_w,
                                     det.refractive_index, det.filter_gain)
            return types.MappingProxyType({
                (n, sp, ang): square_grid_layout(
                    n, sp, Luminaire(ang, lay.leds_per_luminaire, lay.power_per_led_w),
                    detector, room=(lay.room_x_m, lay.room_y_m, lay.room_z_m),
                    receiver_plane_z=lay.receiver_plane_z_m, luminaire_z=lay.luminaire_z_m)
                for n, sp, ang in self.variants()})
        except GeometryError as exc:
            raise ConfigError(str(exc)) from exc

    @functools.cached_property
    def error_bounds(self) -> types.MappingProxyType:
        """Each variant's gain-error bound per ``mobility`` elapsed time, keyed as ``layouts``."""
        return types.MappingProxyType({
            key: tuple(self._bound_after(layout, elapsed)
                       for elapsed in self.mobility.elapsed_times_s)
            for key, layout in self.layouts.items()})

    def _bound_after(self, layout: RoomLayout, elapsed_s: float) -> float:
        """The mobile user's ``csi.error_bound`` in ``layout`` after ``elapsed_s``.

        An end point or a bound that is not finite raises ``ConfigError``,
        naming the ``mobility`` or ``layout`` key.
        """
        det = layout.detector
        z = float(layout.luminaire_positions[self.csi.mobile_user, 2]) - layout.receiver_plane_z
        end_xy = self.mobility.end_xy(elapsed_s)
        if not all(map(math.isfinite, end_xy)):
            raise ConfigError(f"mobility.speed_mps {self.mobility.speed_mps!r} over "
                              f"{elapsed_s!r} s moves the user to {end_xy}; it must stay finite")
        m = layout.luminaire.lambertian_order
        try:
            varpi = distance_gain_prefactor(det.area, det.filter_gain, det.concentrator_gain, m,
                                            plane_separation=z)
            bound = error_bound(self.mobility.start_xy_m, end_xy, z, varpi, m)
        except OverflowError:
            bound = math.inf
        if not math.isfinite(bound):
            raise ConfigError(f"the gain-error bound after {elapsed_s!r} s is {bound!r}; "
                              "layout.semi_angle_deg and layout.detector must keep it finite")
        return bound

    def __reduce__(self):
        """Pickled and copied as its fields, so a copy is built and checked anew."""
        return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    def validate(self):
        """``self``, as a built config is checked; perfbench's ``Workload.configs`` calls it."""
        return self

    def resolved(self) -> dict:
        """Every parameter, defaults included, as a plain JSON-safe mapping."""
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        return _resolved_hash(self.resolved())


def _resolved_hash(resolved: dict) -> str:
    """Short digest of a resolved config, stable across key order."""
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _from_dict(cls, data, path):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}; valid keys: {sorted(names)}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        target = hints.get(f.name)
        if dataclasses.is_dataclass(target):
            kwargs[f.name] = _from_dict(target, value, f"{path}.{f.name}")
        elif isinstance(value, list):
            kwargs[f.name] = tuple(value)
        else:
            kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    return _from_dict(ExperimentConfig, data, "config")


def _json_object(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key raises ``ValueError`` naming it."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r}")
        data[key] = value
    return data


def _yaml_data(text: str):
    """Parse YAML ``text``; a parse error or a repeated key raises ``ValueError``.

    A mapping's own keys are checked before ``<<:`` merges, so a key may
    override a merged one.
    """
    import yaml     # here, so that presets, JSON and library callers never load it

    class UniqueKeyLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _ in node.value:
                if (isinstance(key_node, yaml.ScalarNode)
                        and key_node.tag != "tag:yaml.org,2002:merge"):
                    key = self.construct_object(key_node)
                    if key in seen:
                        raise yaml.constructor.ConstructorError(
                            "while constructing a mapping", node.start_mark,
                            f"found repeated key {key!r}", key_node.start_mark)
                    seen.add(key)
            return super().construct_mapping(node, deep)

    try:
        return yaml.load(text, Loader=UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ValueError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    """Load a YAML or JSON experiment config from disk.

    A file that is not UTF-8, does not parse, or repeats a key within one
    mapping raises ``ConfigError`` naming the file.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
        if p.suffix.lower() == ".json":
            data = json.loads(text, object_pairs_hook=_json_object)
        else:
            data = _yaml_data(text)
    except ValueError as exc:     # UnicodeDecodeError is a ValueError
        raise ConfigError(f"{p}: cannot parse: {exc}") from exc
    if data is None:
        data = {}
    return config_from_dict(data)


# Named experiment presets.  The channel-map presets keep a narrow-field
# concentrator that shows the per-luminaire coverage lobes; the link
# experiments use a wide-field detector so that neighboring luminaires stay
# inside the field of view and inter-channel coupling is present at every
# configured spacing.
_BER_DETECTOR = {"fov_deg": 60.0}
_MAP_DETECTOR = {"fov_deg": 15.0}

_PRESETS: dict[str, dict] = {
    "fig3a": {
        "name": "fig3a",
        "layout": {"n_links": 4, "spacing_m": 0.5, "detector": _MAP_DETECTOR},
        "map_resolution_m": 0.05,
    },
    "fig3b": {
        "name": "fig3b",
        "layout": {"n_links": 4, "spacing_m": 1.0, "detector": _MAP_DETECTOR},
        "map_resolution_m": 0.05,
    },
    "fig3c": {
        "name": "fig3c",
        "layout": {"n_links": 4, "spacing_m": 2.0, "detector": _MAP_DETECTOR},
        "map_resolution_m": 0.05,
    },
    "fig4": {
        "name": "fig4",
        "layout": {"n_links": 4, "detector": _BER_DETECTOR},
        "spacings_m": [0.25, 0.5, 1.0],
        "sweep": {"snr_start_db": 70.0, "snr_stop_db": 130.0, "snr_step_db": 2.0},
    },
    "fig5": {
        "name": "fig5",
        "layout": {"n_links": 4, "spacing_m": 1.0, "detector": _BER_DETECTOR},
        "semi_angles_deg": [15.0, 30.0, 45.0],
        "sweep": {"snr_start_db": 70.0, "snr_stop_db": 140.0, "snr_step_db": 2.0},
    },
    "fig6": {
        "name": "fig6",
        "layout": {"n_links": 4, "spacing_m": 1.0, "detector": _BER_DETECTOR},
        "csi": {"mode": "outdated", "model": "uniform", "mobile_user": 0},
        "mobility": {"speed_mps": 1.0, "elapsed_times_s": [0.02, 0.1, 0.3]},
        "sweep": {"snr_start_db": 70.0, "snr_stop_db": 110.0, "snr_step_db": 2.0},
    },
    "fig7": {
        "name": "fig7",
        "layout": {"n_links": 4, "spacing_m": 0.25, "detector": _BER_DETECTOR},
        "mimo_orders": [2, 4, 8],
        "sweep": {"snr_start_db": 80.0, "snr_stop_db": 150.0, "snr_step_db": 2.0},
    },
    "fig8": {
        "name": "fig8",
        "layout": {"n_links": 4, "spacing_m": 0.25, "detector": _BER_DETECTOR},
        "mimo_orders": [2, 4, 8],
        "sweep": {"snr_start_db": 60.0, "snr_stop_db": 120.0, "snr_step_db": 5.0},
    },
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str) -> ExperimentConfig:
    """Named experiment setup; see PRESET_NAMES."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return config_from_dict(copy.deepcopy(_PRESETS[name]))
