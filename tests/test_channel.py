"""Channel geometry and Lambertian gain tests.

Frozen expected values were computed with a 50-digit arbitrary-precision
evaluation of the defining formulas (see inline notes).
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcmimo.channel import (ChannelMatrix, GeometryError, Luminaire,
                             PhotoDetector, RoomLayout, build_channel_matrix,
                             concentrator_gain, distance_gain_prefactor, gain_map,
                             lambertian_order, square_grid_layout)
from vlcmimo.config import preset

import oracle

# 50-digit oracle values
M15 = 19.993727358517100661
M45 = 2.0
G15 = 33.588457268119895642
H_ALIGNED = 0.0022168418175541076


def aligned_pair(z=2.25, semi=15.0, fov=15.0, n=1.5, area=1e-4, ts=1.0):
    led = Luminaire(position=(2.0, 2.0, 3.0), semi_angle_half_power=semi)
    pd = PhotoDetector(position=(2.0, 2.0, 3.0 - z), area=area, fov=fov,
                       refractive_index=n, filter_gain=ts)
    return led, pd


class TestLambertianOrder:
    def test_60_degrees_is_exactly_one(self):
        assert lambertian_order(60.0) == 1.0

    def test_15_degrees(self):
        assert lambertian_order(15.0) == pytest.approx(M15, rel=1e-14)

    def test_45_degrees_is_two(self):
        assert lambertian_order(45.0) == pytest.approx(M45, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, 90.0, -5.0, 120.0])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(GeometryError):
            lambertian_order(bad)

    def test_equals_40_digit_mpmath_on_a_grid(self):
        # the decimal evaluation rounds to the same double as mpmath at 40 digits
        angles = [15.0, 30.0, 45.0, 60.0, 0.01, 0.5, 89.5, 89.99,
                  *np.linspace(0.05, 89.95, 400).tolist()]
        for angle in angles:
            with mpmath.workdps(40):
                cos = mpmath.cos(mpmath.radians(angle))
                want = float(-mpmath.log(2) / mpmath.log(cos))
            assert lambertian_order.__wrapped__(angle) == want, angle


class TestConcentratorGain:
    def test_on_axis_narrow_field(self):
        assert concentrator_gain(0.0, 15.0, 1.5) == pytest.approx(G15, rel=1e-12)

    def test_beyond_field_of_view_is_zero(self):
        assert concentrator_gain(20.0, 15.0, 1.5) == 0.0

    def test_hemispherical_unity(self):
        assert concentrator_gain(0.0, 90.0, 1.0) == pytest.approx(1.0, rel=1e-15)


class TestChannelGain:
    def test_aligned_pair_closed_form(self):
        # spreadsheet-style composition: (A/z^2) R_o(0) T_s g(0)
        led, pd = aligned_pair()
        m = lambertian_order(15.0)
        expected = (1e-4 / 2.25**2) * ((m + 1) / (2 * math.pi)) * G15
        got = oracle.los_gain(led, pd)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(H_ALIGNED, rel=1e-12)
        assert got == pytest.approx(2.22e-3, rel=5e-3)

    def test_fov_cutoff_exactly_zero(self):
        led = Luminaire(position=(2.0, 2.0, 3.0))
        # incidence angle atan(1/2.25) = 23.96 deg > 15 deg field of view
        pd = PhotoDetector(position=(3.0, 2.0, 0.75), fov=15.0)
        assert oracle.los_gain(led, pd) == 0.0

    def test_coincident_positions_rejected(self):
        led = Luminaire(position=(1.0, 1.0, 2.0))
        pd = PhotoDetector(position=(1.0, 1.0, 2.0))
        with pytest.raises(GeometryError):
            oracle.los_gain(led, pd)

    def test_strictly_decreasing_along_boresight(self):
        led = Luminaire(position=(2.0, 2.0, 3.0))
        gains = [oracle.los_gain(led, PhotoDetector(position=(2.0, 2.0, 3.0 - z), fov=60.0))
                 for z in (0.5, 1.0, 1.5, 2.0, 2.5)]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    @given(dx=st.floats(-0.5, 0.5), dy=st.floats(-0.5, 0.5),
           z=st.floats(1.0, 2.5), semi=st.floats(10.0, 80.0))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_finite(self, dx, dy, z, semi):
        led = Luminaire(position=(2.0, 2.0, 3.0), semi_angle_half_power=semi)
        pd = PhotoDetector(position=(2.0 + dx, 2.0 + dy, 3.0 - z), fov=45.0)
        g = oracle.los_gain(led, pd)
        assert np.isfinite(g) and g >= 0.0


class TestSimplifiedGain:
    """The distance-only model ``varpi / d^(m+3)``, varpi from ``distance_gain_prefactor``."""

    @given(dx=st.floats(0.0, 0.55), z=st.floats(1.5, 2.5))
    @settings(max_examples=60, deadline=None)
    def test_equals_full_gain_for_vertical_axes(self, dx, z):
        # cos(angle) = z/d holds exactly when both axes are vertical
        led = Luminaire(position=(2.0, 2.0, 3.0), semi_angle_half_power=15.0)
        pd = PhotoDetector(position=(2.0 + dx, 2.0, 3.0 - z), fov=45.0)
        d = math.hypot(dx, z)
        if math.degrees(math.atan2(dx, z)) > pd.fov - 1e-6:
            return
        m = lambertian_order(15.0)
        g = concentrator_gain(0.0, pd.fov, pd.refractive_index)
        varpi = distance_gain_prefactor(pd.area, pd.filter_gain, g, m,
                                        plane_separation=z)
        assert varpi / d ** (m + 3.0) == pytest.approx(oracle.los_gain(led, pd), rel=1e-12)


class TestChannelMatrix:
    def test_wide_spacing_narrow_fov_is_diagonal(self):
        layout = square_grid_layout(4, 1.0, fov=15.0)
        h = build_channel_matrix(layout).gains
        off = h[~np.eye(4, dtype=bool)]
        assert np.all(off == 0.0)
        assert np.all(np.diag(h) > 0.0)

    def test_symmetric_layout_symmetry(self):
        layout = square_grid_layout(4, 0.5, fov=60.0)
        h = build_channel_matrix(layout).gains
        assert np.allclose(np.diag(h), h[0, 0], rtol=1e-12)
        # four corner links: nearest-neighbor couplings all equal
        near = [h[0, 1], h[0, 2], h[1, 3], h[2, 3], h[1, 0], h[3, 1]]
        assert np.allclose(near, near[0], rtol=1e-12)

    def test_diagonally_dominant_at_wide_spacing(self):
        layout = square_grid_layout(4, 1.0, fov=60.0)
        h = build_channel_matrix(layout).gains
        for i in range(4):
            assert h[i, i] > h[i].sum() - h[i, i]

    def test_matches_per_entry_gain(self):
        layout = square_grid_layout(4, 0.5, fov=60.0)
        h = build_channel_matrix(layout).gains
        for i, det in enumerate(layout.detectors):
            for j, lum in enumerate(layout.luminaires):
                assert h[i, j] == oracle.los_gain(lum, det)

    def test_rejects_negative_gains(self):
        with pytest.raises(GeometryError):
            ChannelMatrix(gains=np.array([[1.0, -0.1], [0.0, 1.0]]))

    def test_immutable(self):
        h = build_channel_matrix(square_grid_layout(2, 1.0))
        with pytest.raises(ValueError):
            h.gains[0, 0] = 5.0


class TestGainMap:
    def test_peak_under_single_luminaire(self):
        led = Luminaire(position=(1.0, 3.0, 3.0))
        pd = PhotoDetector(position=(1.0, 3.0, 0.75), fov=30.0)
        layout = RoomLayout(room_x=4.0, room_y=4.0, room_z=3.0,
                            receiver_plane_z=0.75, luminaires=(led,), detectors=(pd,))
        field = gain_map(layout, 0.1)
        iy, ix = np.unravel_index(np.argmax(field.values), field.values.shape)
        assert abs(field.x_centers[ix] - 1.0) <= 0.06
        assert abs(field.y_centers[iy] - 3.0) <= 0.06

    def test_zero_outside_fov_footprints(self):
        layout = square_grid_layout(4, 1.0, fov=15.0)
        field = gain_map(layout, 0.1)
        radius = 2.25 * math.tan(math.radians(15.0))
        led_xy = [(l.position[0], l.position[1]) for l in layout.luminaires]
        for iy, y in enumerate(field.y_centers):
            for ix, x in enumerate(field.x_centers):
                inside = any(math.hypot(x - lx, y - ly) <= radius for lx, ly in led_xy)
                if not inside:
                    assert field.values[iy, ix] == 0.0

    def test_spacing_progression_of_lobe_structure(self):
        from scipy import ndimage

        def field_at(spacing):
            layout = square_grid_layout(4, spacing, fov=15.0)
            return layout, gain_map(layout, 0.05)

        def value_at(field, x, y):
            ix = np.argmin(np.abs(field.x_centers - x))
            iy = np.argmin(np.abs(field.y_centers - y))
            return field.values[iy, ix]

        # tight spacing: lobes blend into one bright pool over the array
        _, tight = field_at(0.5)
        assert value_at(tight, 2.0, 2.0) > 0.9 * tight.values.max()
        _, n_tight = ndimage.label(tight.values > 0)
        assert n_tight == 1

        # one-meter spacing: dark gap in the room center, energy around
        # every luminaire, footprint still connected through the bridges
        layout, mid = field_at(1.0)
        assert value_at(mid, 2.0, 2.0) == 0.0
        for lum in layout.luminaires:
            v = value_at(mid, lum.position[0], lum.position[1])
            assert v > 0.8 * value_at(mid, layout.luminaires[0].position[0],
                                      layout.luminaires[0].position[1])
            assert v > 0.0

        # wide spacing: four fully disjoint footprints
        _, wide = field_at(2.0)
        _, n_wide = ndimage.label(wide.values > 0)
        assert n_wide == 4

    def test_mirror_symmetry(self):
        layout = square_grid_layout(4, 1.0, fov=60.0)
        field = gain_map(layout, 0.25)
        vals = field.values
        assert np.allclose(vals, vals[::-1, :], rtol=1e-12, atol=1e-300)
        assert np.allclose(vals, vals[:, ::-1], rtol=1e-12, atol=1e-300)

    def test_grid_dimensions(self):
        layout = square_grid_layout(4, 1.0)
        field = gain_map(layout, 0.3)
        assert field.values.shape == (math.ceil(4.0 / 0.3), math.ceil(4.0 / 0.3))


class TestLayoutValidation:
    def test_plane_above_luminaire_rejected(self):
        led = Luminaire(position=(2.0, 2.0, 1.0))
        pd = PhotoDetector(position=(2.0, 2.0, 0.5))
        with pytest.raises(GeometryError):
            RoomLayout(room_x=4.0, room_y=4.0, room_z=3.0, receiver_plane_z=2.0,
                       luminaires=(led,), detectors=(pd,))

    def test_out_of_bounds_position_rejected(self):
        led = Luminaire(position=(5.0, 2.0, 3.0))
        with pytest.raises(GeometryError):
            RoomLayout(room_x=4.0, room_y=4.0, room_z=3.0, receiver_plane_z=0.75,
                       luminaires=(led,), detectors=())

    def test_grid_shapes(self):
        assert len(square_grid_layout(2, 1.0).luminaires) == 2
        assert len(square_grid_layout(8, 0.5).luminaires) == 8
        lay9 = square_grid_layout(9, 0.5)
        xs = sorted({l.position[0] for l in lay9.luminaires})
        assert len(xs) == 3  # 3x3 grid


def reference_gain(lum, det, position):
    """Literal Lambertian line-of-sight gain in math and Python floats."""
    v = [p - q for p, q in zip(position, lum.position)]
    d = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    cos_e = (v[0] * lum.orientation[0] + v[1] * lum.orientation[1]
             + v[2] * lum.orientation[2]) / d
    cos_i = -(v[0] * det.orientation[0] + v[1] * det.orientation[1]
              + v[2] * det.orientation[2]) / d
    if cos_i < math.cos(math.radians(det.fov)) or cos_i <= 0.0:
        return 0.0
    m = lambertian_order(lum.semi_angle_half_power)
    intensity = (m + 1.0) / (2.0 * math.pi) * max(cos_e, 0.0) ** m
    g = det.refractive_index**2 / math.sin(math.radians(det.fov)) ** 2
    return (det.area / d**2) * intensity * det.filter_gain * g * cos_i


def assert_matches_reference(got, ref):
    # numpy's vectorised pow differs from libm's by an ulp on some inputs, and
    # numpy squares d where Python calls pow; zeros must agree exactly.
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.array_equal(got == 0.0, ref == 0.0)
    assert np.all(np.abs(got - ref) <= 1e-14 * ref)


class TestGainKernel:
    @pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c"])
    def test_gain_map_matches_per_cell_reference(self, name):
        cfg = preset(name)
        layout = cfg.build_layout()
        field = gain_map(layout, cfg.map_resolution_m)
        probe, z = layout.detectors[0], layout.receiver_plane_z
        ref = [[sum(reference_gain(lum, probe, (float(x), float(y), z))
                    for lum in layout.luminaires)
                for x in field.x_centers] for y in field.y_centers]
        assert 0 < np.count_nonzero(field.values) < field.values.size
        assert_matches_reference(field.values, ref)

    def test_channel_matrix_matches_reference_on_tilted_mixed_layout(self):
        luminaires = (
            Luminaire(position=(1.0, 1.0, 3.0), semi_angle_half_power=15.0),
            Luminaire(position=(2.5, 1.5, 2.9), semi_angle_half_power=30.0,
                      orientation=(0.3, -0.2, -1.0)),
            Luminaire(position=(3.2, 3.0, 3.0), semi_angle_half_power=60.0,
                      orientation=(-0.5, 0.1, -0.8)),
        )
        detectors = (
            PhotoDetector(position=(1.1, 0.9, 0.75), fov=60.0),
            PhotoDetector(position=(2.7, 1.2, 0.8), fov=30.0, refractive_index=1.2,
                          filter_gain=0.7, orientation=(0.1, 0.2, 1.0)),
            PhotoDetector(position=(3.0, 3.3, 0.75), fov=90.0, refractive_index=1.0,
                          orientation=(-0.4, 0.0, 1.0)),
            PhotoDetector(position=(1.9, 2.2, 0.7), fov=45.0, filter_gain=0.9,
                          orientation=(0.2, -0.3, 0.9)),
        )
        layout = RoomLayout(room_x=4.0, room_y=4.0, room_z=3.0, receiver_plane_z=0.75,
                            luminaires=luminaires, detectors=detectors)
        h = build_channel_matrix(layout).gains
        ref = [[reference_gain(lum, det, det.position) for lum in luminaires]
               for det in detectors]
        assert 0 < np.count_nonzero(h) < h.size
        assert_matches_reference(h, ref)
        for i, det in enumerate(detectors):
            for j, lum in enumerate(luminaires):
                assert h[i, j] == oracle.los_gain(lum, det)
