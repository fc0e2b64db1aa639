"""Line-of-sight optical channel: room geometry, Lambertian gains, gain fields.

All angles are degrees at the API boundary and radians internally.  Gains are
dimensionless optical path gains; transmit power and detector responsivity are
applied by the signal model, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "lambertian_order",
    "concentrator_gain",
    "build_channel_matrix",
    "gain_map",
    "distance_gain_prefactor",
    "square_grid_layout",
]


class GeometryError(ValueError):
    """Physically impossible geometry or device parameter."""


def _unit(v, what):
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise GeometryError(f"{what} must be a 3-vector, got shape {arr.shape}")
    norm = float(np.linalg.norm(arr))
    if not math.isfinite(norm) or norm == 0.0:
        raise GeometryError(f"{what} must be a nonzero finite vector")
    return tuple(arr / norm)


@dataclass(frozen=True)
class Luminaire:
    """A ceiling luminaire treated as a single point source.

    The individual emitters are aggregated: total radiated power is
    ``leds_per_luminaire * power_per_led``.  The radiation lobe is Lambertian
    with order set by the half-power semi-angle.
    """

    position: tuple[float, float, float]
    semi_angle_half_power: float = 15.0   # degrees
    leds_per_luminaire: int = 3600
    power_per_led: float = 0.010          # watts
    orientation: tuple[float, float, float] = (0.0, 0.0, -1.0)

    def __post_init__(self):
        if not 0.0 < self.semi_angle_half_power < 90.0:
            raise GeometryError(
                f"half-power semi-angle must be in (0, 90) deg, got {self.semi_angle_half_power}")
        if self.leds_per_luminaire < 1:
            raise GeometryError("leds_per_luminaire must be >= 1")
        if self.power_per_led <= 0.0:
            raise GeometryError("power_per_led must be positive")
        object.__setattr__(self, "position", tuple(float(c) for c in self.position))
        object.__setattr__(self, "orientation", _unit(self.orientation, "luminaire orientation"))

    @property
    def total_power(self) -> float:
        """Aggregate optical power of the luminaire in watts."""
        return self.leds_per_luminaire * self.power_per_led


@dataclass(frozen=True)
class PhotoDetector:
    """Photodiode with an ideal optical concentrator and band filter."""

    position: tuple[float, float, float]
    area: float = 1e-4                    # m^2
    fov: float = 60.0                     # degrees, incidence beyond it gives zero gain
    responsivity: float = 1.0             # A/W
    refractive_index: float = 1.5
    filter_gain: float = 1.0
    orientation: tuple[float, float, float] = (0.0, 0.0, 1.0)

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
        object.__setattr__(self, "position", tuple(float(c) for c in self.position))
        object.__setattr__(self, "orientation", _unit(self.orientation, "detector orientation"))


@dataclass(frozen=True)
class RoomLayout:
    """Rectangular room with luminaires above a horizontal receiver plane."""

    room_x: float
    room_y: float
    room_z: float
    receiver_plane_z: float
    luminaires: tuple[Luminaire, ...]
    detectors: tuple[PhotoDetector, ...]

    def __post_init__(self):
        if min(self.room_x, self.room_y, self.room_z) <= 0.0:
            raise GeometryError("room dimensions must be positive")
        if not 0.0 <= self.receiver_plane_z < self.room_z:
            raise GeometryError("receiver plane must lie inside the room")
        object.__setattr__(self, "luminaires", tuple(self.luminaires))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        bounds = (self.room_x, self.room_y, self.room_z)
        for lum in self.luminaires:
            self._check_inside(lum.position, bounds, "luminaire")
            if lum.position[2] <= self.receiver_plane_z:
                raise GeometryError("luminaires must sit above the receiver plane")
        for det in self.detectors:
            self._check_inside(det.position, bounds, "detector")

    @staticmethod
    def _check_inside(pos, bounds, what):
        for c, b in zip(pos, bounds):
            if not 0.0 <= c <= b:
                raise GeometryError(f"{what} position {pos} outside room bounds {bounds}")


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

    @property
    def n_r(self) -> int:
        return self.gains.shape[0]

    @property
    def n_t(self) -> int:
        return self.gains.shape[1]


@dataclass(frozen=True)
class GainMap:
    """Total-gain raster over the receiver plane (values indexed [y, x])."""

    x_centers: np.ndarray
    y_centers: np.ndarray
    values: np.ndarray


# pi to 50 decimal places, for the extended-precision cosine of lambertian_order.
_PI = Decimal("3.14159265358979323846264338327950288419716939937510")


@lru_cache(maxsize=256)
def lambertian_order(semi_angle_half_power: float) -> float:
    """Lambertian lobe order m = -ln 2 / ln cos(half-power semi-angle).

    Evaluated with 50-digit decimals (a Taylor cosine) and rounded once, so
    exact half-power geometries stay exact (60 deg -> m == 1.0).
    """
    if not 0.0 < semi_angle_half_power < 90.0:
        raise GeometryError(
            f"half-power semi-angle must be in (0, 90) deg, got {semi_angle_half_power}")
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(semi_angle_half_power) * _PI / 180
        cos = term = Decimal(1)
        n = 0
        while cos + term != cos:
            n += 2
            term *= -x * x / (n * (n - 1))
            cos += term
        return float(-Decimal(2).ln() / cos.ln())


def concentrator_gain(incidence_angle: float, fov: float, refractive_index: float = 1.5) -> float:
    """Ideal non-imaging concentrator gain: n^2 / sin^2(fov) inside the field of view."""
    if refractive_index < 1.0:
        raise GeometryError("refractive index must be >= 1")
    if not 0.0 < fov <= 90.0:
        raise GeometryError(f"field of view must be in (0, 90] deg, got {fov}")
    if incidence_angle > fov:
        return 0.0
    return refractive_index**2 / math.sin(math.radians(fov)) ** 2


def _los_gains(x, y, z, detectors, luminaires) -> np.ndarray:
    """Line-of-sight gains [point, luminaire] at the receive points (x, y, z).

    ``detectors``, one per point or one for all, give optics and orientation.
    """
    lx, ly, lz, ox, oy, oz, m = np.array([
        (*lum.position, *lum.orientation, lambertian_order(lum.semi_angle_half_power))
        for lum in luminaires]).reshape(-1, 7).T[:, None, :]
    px, py, pz, cos_fov, area, filter_gain, g = np.array([
        (*det.orientation, math.cos(math.radians(det.fov)), det.area, det.filter_gain,
         concentrator_gain(0.0, det.fov, det.refractive_index)) for det in detectors]).T[..., None]
    vx, vy, vz = (np.asarray(c, dtype=float)[..., None] - lc
                  for c, lc in zip((x, y, z), (lx, ly, lz)))
    d = np.sqrt(vx * vx + vy * vy + vz * vz)
    if np.any(d == 0.0):
        raise GeometryError("luminaire and detector positions coincide")
    cos_emergence = (vx * ox + vy * oy + vz * oz) / d
    cos_incidence = -(vx * px + vy * py + vz * pz) / d
    # No backward emission: clamp at the transmitter plane.
    intensity = (m + 1.0) / (2.0 * math.pi) * np.maximum(cos_emergence, 0.0) ** m
    gains = (area / d**2) * intensity * filter_gain * g * cos_incidence
    return np.where((cos_incidence < cos_fov) | (cos_incidence <= 0.0), 0.0, gains)


def build_channel_matrix(layout: RoomLayout) -> ChannelMatrix:
    """Assemble gains[i][j], the line-of-sight gain from luminaire j to detector i."""
    if not layout.luminaires or not layout.detectors:
        raise GeometryError("layout needs at least one luminaire and one detector")
    powers = {lum.total_power for lum in layout.luminaires}
    if len(powers) != 1:
        raise GeometryError("mixed luminaire powers are not supported")
    responsivities = {det.responsivity for det in layout.detectors}
    areas = {det.area for det in layout.detectors}
    if len(responsivities) != 1 or len(areas) != 1:
        raise GeometryError("mixed detector parameters are not supported")
    x, y, z = zip(*(det.position for det in layout.detectors))
    return ChannelMatrix(
        gains=_los_gains(x, y, z, layout.detectors, layout.luminaires),
        power=powers.pop(),
        responsivity=responsivities.pop(),
        detector_area=areas.pop(),
    )


# Receive points per kernel call in ``gain_map``.
_MAP_BLOCK_CELLS = 2**16


def gain_map(layout: RoomLayout, grid_resolution: float) -> GainMap:
    """Raster of total gain from all luminaires over the receiver plane.

    The layout's first detector (a default one if it has none) is swept over
    the cell centers of a ceil(room/resolution) grid.
    """
    if grid_resolution <= 0.0:
        raise GeometryError("grid resolution must be positive")
    probe = layout.detectors[:1] or (PhotoDetector(position=(0.0, 0.0, 0.0)),)
    nx = math.ceil(layout.room_x / grid_resolution)
    ny = math.ceil(layout.room_y / grid_resolution)
    xs = (np.arange(nx) + 0.5) * grid_resolution
    ys = (np.arange(ny) + 0.5) * grid_resolution
    values = np.empty((ny, nx))
    # Blocks of whole rows keep temporaries small; terms add up in layout order.
    rows = max(1, _MAP_BLOCK_CELLS // nx)
    for start in range(0, ny, rows):
        g = _los_gains(xs, ys[start:start + rows, None], layout.receiver_plane_z, probe,
                       layout.luminaires)
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
                       room: tuple[float, float, float] = (4.0, 4.0, 3.0),
                       receiver_plane_z: float = 0.75,
                       luminaire_z: float | None = None,
                       semi_angle_half_power: float = 15.0,
                       leds_per_luminaire: int = 3600,
                       power_per_led: float = 0.010,
                       detector_area: float = 1e-4,
                       fov: float = 60.0,
                       responsivity: float = 1.0,
                       refractive_index: float = 1.5,
                       filter_gain: float = 1.0) -> RoomLayout:
    """Square-ish grid of luminaires centered in the room, one detector under each.

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
    if luminaire_z is None:
        luminaire_z = room_z
    cx, cy = room_x / 2.0, room_y / 2.0
    xs = [(c - (cols - 1) / 2.0) * spacing + cx for c in range(cols)]
    ys = [(r - (rows - 1) / 2.0) * spacing + cy for r in range(rows)]
    luminaires = []
    detectors = []
    for y in ys:
        for x in xs:
            luminaires.append(Luminaire(
                position=(x, y, luminaire_z),
                semi_angle_half_power=semi_angle_half_power,
                leds_per_luminaire=leds_per_luminaire,
                power_per_led=power_per_led,
            ))
            detectors.append(PhotoDetector(
                position=(x, y, receiver_plane_z),
                area=detector_area,
                fov=fov,
                responsivity=responsivity,
                refractive_index=refractive_index,
                filter_gain=filter_gain,
            ))
    return RoomLayout(
        room_x=room_x, room_y=room_y, room_z=room_z,
        receiver_plane_z=receiver_plane_z,
        luminaires=tuple(luminaires),
        detectors=tuple(detectors),
    )
