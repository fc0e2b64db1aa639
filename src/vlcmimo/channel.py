"""Line-of-sight optical channel: room geometry, Lambertian gains, gain fields.

All angles are degrees at the API boundary and radians internally.  Gains are
dimensionless optical path gains; transmit power and detector responsivity are
applied by the signal model, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

__all__ = [
    "GeometryError",
    "Luminaire",
    "PhotoDetector",
    "RoomLayout",
    "ChannelMatrix",
    "GainMap",
    "build_channel_matrix",
    "gain_map",
    "distance_gain_prefactor",
    "square_grid_layout",
]


class GeometryError(ValueError):
    """Physically impossible geometry or device parameter."""


@dataclass(frozen=True)
class Luminaire:
    """The ceiling luminaire of a layout, a single point source facing straight down.

    The individual emitters are aggregated: total radiated power is
    ``leds_per_luminaire * power_per_led``.  The radiation lobe is Lambertian;
    its order m = -ln 2 / ln cos(semi-angle) is computed when the spec is built.
    """

    semi_angle_half_power: float = 15.0   # degrees
    leds_per_luminaire: int = 3600
    power_per_led: float = 0.010          # watts
    lambertian_order: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.semi_angle_half_power < 90.0:
            raise GeometryError(
                f"half-power semi-angle must be in (0, 90) deg, got {self.semi_angle_half_power}")
        if self.leds_per_luminaire < 1:
            raise GeometryError("leds_per_luminaire must be >= 1")
        if self.power_per_led <= 0.0:
            raise GeometryError("power_per_led must be positive")
        object.__setattr__(self, "lambertian_order", _lambertian_order(self.semi_angle_half_power))

    @property
    def total_power(self) -> float:
        """Aggregate optical power of the luminaire in watts."""
        return self.leds_per_luminaire * self.power_per_led


@dataclass(frozen=True)
class PhotoDetector:
    """The detector of a layout: an upward-facing photodiode with a band filter and an ideal
    optical concentrator, whose gain n^2/sin^2(fov) is computed when the spec is built."""

    area: float = 1e-4                    # m^2
    fov: float = 60.0                     # degrees, incidence beyond it gives zero gain
    responsivity: float = 1.0             # A/W
    refractive_index: float = 1.5
    filter_gain: float = 1.0
    concentrator_gain: float = field(init=False)

    def __post_init__(self):
        if self.area <= 0.0:
            raise GeometryError("detector area must be positive")
        if not 0.0 < self.fov <= 90.0:
            raise GeometryError(f"field of view must be in (0, 90] deg, got {self.fov}")
        if self.responsivity <= 0.0:
            raise GeometryError("responsivity must be positive")
        if self.refractive_index < 1.0:
            raise GeometryError("refractive index must be >= 1")
        if not 0.0 < self.filter_gain <= 1.0:
            raise GeometryError("filter gain must be in (0, 1]")
        try:
            gain = self.refractive_index**2 / math.sin(math.radians(self.fov)) ** 2
        except (OverflowError, ZeroDivisionError):
            gain = math.inf
        if not math.isfinite(gain):
            raise GeometryError(f"field of view {self.fov} deg and refractive index "
                                f"{self.refractive_index} give a concentrator gain "
                                "n^2/sin^2(fov) that is not finite")
        object.__setattr__(self, "concentrator_gain", gain)


@dataclass(frozen=True)
class RoomLayout:
    """Rectangular room with identical luminaires above a horizontal receiver plane.

    ``luminaire`` sits at each row of ``luminaire_positions`` and ``detector``
    at each row of ``detector_positions``; each becomes a read-only (n, 3)
    float array, n >= 1.
    """

    room_x: float
    room_y: float
    room_z: float
    receiver_plane_z: float
    luminaire: Luminaire
    detector: PhotoDetector
    luminaire_positions: np.ndarray
    detector_positions: np.ndarray

    def __post_init__(self):
        if min(self.room_x, self.room_y, self.room_z) <= 0.0:
            raise GeometryError("room dimensions must be positive")
        bounds = (self.room_x, self.room_y, self.room_z)
        for what in ("luminaire", "detector"):
            pos = np.array(getattr(self, f"{what}_positions"), dtype=float)
            if pos.ndim != 2 or pos.shape[1] != 3 or not len(pos):
                raise GeometryError(f"{what} positions must form a nonempty (n, 3) array, "
                                    f"got shape {pos.shape}")
            _refuse_any(pos, ~np.all((pos >= 0.0) & (pos <= bounds), axis=1),
                        f"{what} position {{}} outside room bounds {bounds}")
            pos.setflags(write=False)
            object.__setattr__(self, f"{what}_positions", pos)
        _refuse_any(self.luminaire_positions,
                    self.luminaire_positions[:, 2] <= self.receiver_plane_z,
                    f"luminaire position {{}} is not above the receiver plane "
                    f"z = {self.receiver_plane_z}")
        if not 0.0 <= self.receiver_plane_z < self.room_z:
            raise GeometryError("receiver plane must lie inside the room")
        # On-axis gain under the lowest luminaire in ``_los_gains``' order, once per luminaire:
        # no gain the kernel forms on the receiver plane, nor the raster's sum, is larger.
        det, m = self.detector, self.luminaire.lambertian_order
        z = float(self.luminaire_positions[:, 2].min()) - self.receiver_plane_z
        try:
            peak = len(self.luminaire_positions) * ((det.area / (z * z)) * (
                (m + 1.0) / (2.0 * math.pi)) * det.filter_gain * det.concentrator_gain)
        except ZeroDivisionError:       # z * z underflows to 0
            peak = math.inf
        if not math.isfinite(peak):
            raise GeometryError(f"detector area {det.area}, filter gain {det.filter_gain} and "
                                f"concentrator gain {det.concentrator_gain} give a peak "
                                f"line-of-sight gain {peak} that is not finite")


def _refuse_any(positions: np.ndarray, bad: np.ndarray, message: str):
    """Raise ``GeometryError``, ``message`` naming the first position where ``bad``."""
    if bad.any():
        raise GeometryError(message.format(tuple(positions[bad.argmax()].tolist())))


@dataclass(frozen=True)
class ChannelMatrix:
    """Nonnegative N_R x N_T matrix of optical path gains.

    Carries the uniform per-luminaire power, detector responsivity and
    detector area so downstream signal/noise models need no layout access.
    """

    gains: np.ndarray
    power: float = 1.0               # watts per luminaire
    responsivity: float = 1.0        # A/W
    detector_area: float = 1e-4      # m^2

    def __post_init__(self):
        arr = np.array(self.gains, dtype=float)
        if arr.ndim != 2:
            raise GeometryError("channel gains must form a 2-D matrix")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise GeometryError("channel gains must be finite and nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "gains", arr)


@dataclass(frozen=True)
class GainMap:
    """Total-gain raster over the receiver plane (values indexed [y, x])."""

    x_centers: np.ndarray
    y_centers: np.ndarray
    values: np.ndarray


# pi to 50 decimal places, for the extended-precision cosine of _lambertian_order.
_PI = Decimal("3.14159265358979323846264338327950288419716939937510")


@lru_cache(maxsize=256)
def _lambertian_order(semi_angle_half_power: float) -> float:
    """Lambertian lobe order m = -ln 2 / ln cos(half-power semi-angle in (0, 90) deg).

    Evaluated with 50-digit decimals (a Taylor cosine) and rounded once, so exact half-power
    geometries stay exact (60 deg -> m == 1.0); a cosine of 1 raises ``GeometryError``.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(semi_angle_half_power) * _PI / 180
        cos = term = Decimal(1)
        n = 0
        while cos + term != cos:
            n += 2
            term *= -x * x / (n * (n - 1))
            cos += term
        if cos == 1:
            raise GeometryError(f"half-power semi-angle {semi_angle_half_power} deg has a "
                                "cosine of 1 to 50 digits, so no finite Lambertian order")
        return float(-Decimal(2).ln() / cos.ln())


def _los_gains(layout: RoomLayout, x, y, z) -> np.ndarray:
    """Line-of-sight gains [point, luminaire] of ``layout`` at the receive points (x, y, z).

    Luminaires face down and the detector up, so the emergence and incidence
    angles share one cosine, the drop over the distance.
    """
    det, m = layout.detector, layout.luminaire.lambertian_order
    vx, vy, vz = (np.asarray(c, dtype=float)[..., None] - lc
                  for c, lc in zip((x, y, z), layout.luminaire_positions.T))
    d = np.sqrt(vx * vx + vy * vy + vz * vz)
    if np.any(d == 0.0):
        raise GeometryError("luminaire and detector positions coincide")
    cos = -vz / d
    # No backward emission: clamp at the transmitter plane.  np.power, not **,
    # so that no exponent (m == 1 or 2) takes another path than the ufunc's.
    intensity = (m + 1.0) / (2.0 * math.pi) * np.power(np.maximum(cos, 0.0), m)
    gains = (det.area / d**2) * intensity * det.filter_gain * det.concentrator_gain * cos
    return np.where((cos < math.cos(math.radians(det.fov))) | (cos <= 0.0), 0.0, gains)


def build_channel_matrix(layout: RoomLayout) -> ChannelMatrix:
    """Assemble gains[i][j], the line-of-sight gain from luminaire j to detector i."""
    return ChannelMatrix(gains=_los_gains(layout, *layout.detector_positions.T),
                         power=layout.luminaire.total_power,
                         responsivity=layout.detector.responsivity,
                         detector_area=layout.detector.area)


# Receive points per kernel call in ``gain_map``.
_MAP_BLOCK_CELLS = 2**16


def gain_map(layout: RoomLayout, grid_resolution: float) -> GainMap:
    """Raster of total gain from all luminaires over the receiver plane.

    The layout's detector is swept over the cell centers of a
    ceil(room/resolution) grid.
    """
    if grid_resolution <= 0.0:
        raise GeometryError("grid resolution must be positive")
    nx = math.ceil(layout.room_x / grid_resolution)
    ny = math.ceil(layout.room_y / grid_resolution)
    xs = (np.arange(nx) + 0.5) * grid_resolution
    ys = (np.arange(ny) + 0.5) * grid_resolution
    values = np.empty((ny, nx))
    # Blocks of whole rows keep temporaries small; terms add up in layout order.
    rows = max(1, _MAP_BLOCK_CELLS // nx)
    for start in range(0, ny, rows):
        g = _los_gains(layout, xs, ys[start:start + rows, None], layout.receiver_plane_z)
        values[start:start + rows] = sum(np.moveaxis(g, -1, 0))
    return GainMap(x_centers=xs, y_centers=ys, values=values)


def distance_gain_prefactor(area: float, filter_gain: float, concentrator: float,
                            m: float, plane_separation: float = 1.0) -> float:
    """Prefactor varpi of the distance-only gain model ``varpi / d^(m+3)``.

    ``(m+1) A T g / (2 pi)`` times ``plane_separation**(m+1)``; the latter
    factor makes the model agree exactly with the line-of-sight gain for
    vertically aligned transmitter/receiver axes separated by that height.
    With ``plane_separation=1`` this reduces to the bare lobe prefactor.
    """
    return (m + 1.0) * area * filter_gain * concentrator / (2.0 * math.pi) \
        * plane_separation ** (m + 1.0)


def square_grid_layout(n_links: int,
                       spacing: float,
                       luminaire: Luminaire = Luminaire(),
                       detector: PhotoDetector = PhotoDetector(),
                       room: tuple[float, float, float] = (4.0, 4.0, 3.0),
                       receiver_plane_z: float = 0.75,
                       luminaire_z: float | None = None) -> RoomLayout:
    """Square-ish grid of ``luminaire`` centered in the room, ``detector`` under each.

    The grid uses the largest row count not exceeding sqrt(n) that divides n,
    so 2 -> 1x2, 4 -> 2x2, 8 -> 2x4, 9 -> 3x3.
    """
    if n_links < 1:
        raise GeometryError("need at least one link")
    if spacing <= 0.0:
        raise GeometryError("spacing must be positive")
    rows = int(math.floor(math.sqrt(n_links)))
    while n_links % rows:
        rows -= 1
    cols = n_links // rows
    room_x, room_y, room_z = room
    xs = (np.arange(cols) - (cols - 1) / 2.0) * spacing + room_x / 2.0
    ys = (np.arange(rows) - (rows - 1) / 2.0) * spacing + room_y / 2.0
    xy = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)   # row by row
    return RoomLayout(
        room_x=room_x, room_y=room_y, room_z=room_z,
        receiver_plane_z=receiver_plane_z,
        luminaire=luminaire, detector=detector,
        luminaire_positions=np.column_stack(
            [xy, np.full(n_links, room_z if luminaire_z is None else luminaire_z)]),
        detector_positions=np.column_stack([xy, np.full(n_links, receiver_plane_z)]),
    )
