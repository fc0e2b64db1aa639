"""Channel geometry and Lambertian gain tests.

Frozen expected values were computed with a 50-digit arbitrary-precision
evaluation of the defining formulas (see inline notes).
"""

import dataclasses
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcmimo.channel import (ChannelMatrix, GeometryError, Luminaire,
                             PhotoDetector, RoomLayout, build_channel_matrix,
                             distance_gain_prefactor, gain_map, square_grid_layout)
from vlcmimo.config import preset

import oracle

# Any positive finite float.
POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)

# 50-digit oracle values
M15 = 19.993727358517100661
M45 = 2.0
G15 = 33.588457268119895642
H_ALIGNED = 0.0022168418175541076


def room(luminaire_positions, detector_positions, luminaire=Luminaire(),
         detector=PhotoDetector(), receiver_plane_z=0.75):
    """``luminaire`` and ``detector`` at the given positions in the 4 x 4 x 3 m room."""
    return RoomLayout(room_x=4.0, room_y=4.0, room_z=3.0, receiver_plane_z=receiver_plane_z,
                      luminaire=luminaire, detector=detector,
                      luminaire_positions=luminaire_positions,
                      detector_positions=detector_positions)


class TestLambertianOrder:
    def test_60_degrees_is_exactly_one(self):
        assert Luminaire(60.0).lambertian_order == 1.0

    def test_15_degrees(self):
        assert Luminaire(15.0).lambertian_order == pytest.approx(M15, rel=1e-14)

    def test_45_degrees_is_two(self):
        assert Luminaire(45.0).lambertian_order == pytest.approx(M45, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, 90.0, -5.0, 120.0])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(GeometryError):
            Luminaire(bad)

    def test_equals_40_digit_mpmath_on_a_grid(self):
        # the decimal evaluation rounds to the same double as mpmath at 40 digits
        angles = [15.0, 30.0, 45.0, 60.0, 0.01, 0.5, 89.5, 89.99,
                  *np.linspace(0.05, 89.95, 400).tolist()]
        for angle in angles:
            with mpmath.workdps(40):
                cos = mpmath.cos(mpmath.radians(angle))
                want = float(-mpmath.log(2) / mpmath.log(cos))
            assert Luminaire(angle).lambertian_order == want, angle

    @pytest.mark.parametrize("tiny", [1e-30, 1e-300, 5e-324])
    def test_semi_angle_whose_cosine_rounds_to_one_rejected(self, tiny):
        with pytest.raises(GeometryError, match=re.escape(
                f"half-power semi-angle {tiny} deg has a cosine of 1 to 50 digits")):
            Luminaire(tiny)

    def test_narrowest_lobe_has_a_finite_order(self):
        # 1e-20 deg: 1 - cos is about 1.5e-44, still inside the 50 digits
        assert 4e43 < Luminaire(1e-20).lambertian_order < 5e43


class TestConcentratorGain:
    def test_on_axis_narrow_field(self):
        assert PhotoDetector(fov=15.0, refractive_index=1.5).concentrator_gain == pytest.approx(
            G15, rel=1e-12)

    def test_hemispherical_unity(self):
        assert PhotoDetector(fov=90.0, refractive_index=1.0).concentrator_gain == pytest.approx(
            1.0, rel=1e-15)

    @pytest.mark.parametrize("fov, n", [(1e-300, 1.5), (60.0, 1e200), (1e-100, 1e154)],
                             ids=["sin_underflows", "n_squared_overflows", "ratio_overflows"])
    def test_gain_that_is_not_finite_raises(self, fov, n):
        with pytest.raises(GeometryError, match=re.escape(
                f"field of view {fov} deg and refractive index {n} give")):
            PhotoDetector(fov=fov, refractive_index=n)


class TestDeviceOptics:
    """The specs compute their Lambertian order and concentrator gain once, when built."""

    def test_replace_recomputes(self):
        assert dataclasses.replace(Luminaire(), semi_angle_half_power=60.0).lambertian_order == 1.0
        assert dataclasses.replace(PhotoDetector(), fov=15.0).concentrator_gain == pytest.approx(
            G15, rel=1e-12)

    def test_fields_are_read_only_and_not_arguments(self):
        lum, det = Luminaire(), PhotoDetector()
        with pytest.raises(dataclasses.FrozenInstanceError):
            lum.lambertian_order = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            det.concentrator_gain = 1.0
        with pytest.raises(TypeError):
            Luminaire(lambertian_order=1.0)
        with pytest.raises(TypeError):
            PhotoDetector(concentrator_gain=1.0)

    @given(semi=st.floats(0.0, 90.0, exclude_min=True, exclude_max=True),
           fov=st.one_of(st.floats(0.0, 90.0, exclude_min=True), POSITIVE),
           n=st.one_of(st.floats(1.0, 1e160), POSITIVE),
           area=POSITIVE,
           filter_gain=st.one_of(st.floats(0.0, 1.0, exclude_min=True), POSITIVE))
    @settings(max_examples=300, deadline=None)
    def test_built_specs_give_finite_gains(self, semi, fov, n, area, filter_gain):
        try:
            lum = Luminaire(semi)
            det = PhotoDetector(area=area, fov=fov, refractive_index=n, filter_gain=filter_gain)
        except GeometryError:
            return
        m, g = lum.lambertian_order, det.concentrator_gain
        assert 0.0 < m < math.inf and 1.0 <= g < math.inf
        try:
            layout = square_grid_layout(4, 0.5, luminaire=lum, detector=det)
        except GeometryError as exc:
            assert "peak line-of-sight gain inf" in str(exc)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(build_channel_matrix(layout).gains))
            assert np.all(np.isfinite(gain_map(layout, 0.5).values))


class TestPeakGain:
    """A layout whose on-axis gain, summed over its luminaires, is not finite is refused."""

    def test_names_the_detector_gains(self):
        with pytest.raises(GeometryError, match=re.escape(
                "detector area 1.7976931348623157e+308, filter gain 1.0 and concentrator gain "
                "3.0000000000000004 give a peak line-of-sight gain inf that is not finite")):
            square_grid_layout(4, 1.0, detector=PhotoDetector(area=1.7976931348623157e308))

    def test_counts_every_luminaire(self):
        # 5e307 m^2 under one luminaire peaks at 9.9e307; the raster sums two to inf
        det = PhotoDetector(area=5e307)
        one = square_grid_layout(1, 0.5, detector=det)
        assert 9e307 < gain_map(one, 0.05).values.max() < np.finfo(float).max
        with pytest.raises(GeometryError, match="peak line-of-sight gain inf"):
            square_grid_layout(2, 0.5, detector=det)

    def test_luminaire_just_above_the_plane_is_refused(self):
        # z^2 underflows to 0, which the kernel would divide by
        with pytest.raises(GeometryError, match="peak line-of-sight gain inf"):
            room([(2.0, 2.0, 1e-200)], [(2.0, 2.0, 0.0)], receiver_plane_z=0.0)

    def test_detector_above_the_plane_is_left_to_the_channel_check(self):
        # the plane's peak, 2e303, is finite; 1 mm below the luminaire the gain overflows
        layout = room([(2.0, 2.0, 3.0)], [(2.0, 2.0, 2.999)], detector=PhotoDetector(area=1e303))
        with np.errstate(over="ignore"), pytest.raises(GeometryError, match="finite"):
            build_channel_matrix(layout)


class TestChannelGain:
    def test_aligned_pair_closed_form(self):
        # spreadsheet-style composition: (A/z^2) R_o(0) T_s g(0)
        layout = room([(2.0, 2.0, 3.0)], [(2.0, 2.0, 0.75)], detector=PhotoDetector(fov=15.0))
        m = Luminaire(15.0).lambertian_order
        expected = (1e-4 / 2.25**2) * ((m + 1) / (2 * math.pi)) * G15
        got = oracle.los_gain(layout)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(H_ALIGNED, rel=1e-12)
        assert got == pytest.approx(2.22e-3, rel=5e-3)

    def test_fov_cutoff_exactly_zero(self):
        # incidence angle atan(1/2.25) = 23.96 deg > 15 deg field of view
        layout = room([(2.0, 2.0, 3.0)], [(3.0, 2.0, 0.75)], detector=PhotoDetector(fov=15.0))
        assert oracle.los_gain(layout) == 0.0

    def test_coincident_positions_rejected(self):
        layout = room([(1.0, 1.0, 2.0)], [(1.0, 1.0, 2.0)])
        with pytest.raises(GeometryError, match="coincide"):
            oracle.los_gain(layout)

    def test_strictly_decreasing_along_boresight(self):
        gains = [oracle.los_gain(room([(2.0, 2.0, 3.0)], [(2.0, 2.0, 3.0 - z)]))
                 for z in (0.5, 1.0, 1.5, 2.0, 2.5)]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    @given(dx=st.floats(-0.5, 0.5), dy=st.floats(-0.5, 0.5),
           z=st.floats(1.0, 2.5), semi=st.floats(10.0, 80.0))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_finite(self, dx, dy, z, semi):
        g = oracle.los_gain(room([(2.0, 2.0, 3.0)], [(2.0 + dx, 2.0 + dy, 3.0 - z)],
                                 Luminaire(semi_angle_half_power=semi), PhotoDetector(fov=45.0)))
        assert np.isfinite(g) and g >= 0.0


class TestSimplifiedGain:
    """The distance-only model ``varpi / d^(m+3)``, varpi from ``distance_gain_prefactor``."""

    @given(dx=st.floats(0.0, 0.55), z=st.floats(1.5, 2.5))
    @settings(max_examples=60, deadline=None)
    def test_equals_full_gain_for_vertical_axes(self, dx, z):
        # cos(angle) = z/d holds exactly when both axes are vertical
        layout = room([(2.0, 2.0, 3.0)], [(2.0 + dx, 2.0, 3.0 - z)],
                      detector=PhotoDetector(fov=45.0))
        pd = layout.detector
        d = math.hypot(dx, z)
        if math.degrees(math.atan2(dx, z)) > pd.fov - 1e-6:
            return
        m = Luminaire(15.0).lambertian_order
        varpi = distance_gain_prefactor(pd.area, pd.filter_gain, pd.concentrator_gain, m,
                                        plane_separation=z)
        assert varpi / d ** (m + 3.0) == pytest.approx(oracle.los_gain(layout), rel=1e-12)


class TestChannelMatrix:
    def test_wide_spacing_narrow_fov_is_diagonal(self):
        layout = square_grid_layout(4, 1.0, detector=PhotoDetector(fov=15.0))
        h = build_channel_matrix(layout).gains
        off = h[~np.eye(4, dtype=bool)]
        assert np.all(off == 0.0)
        assert np.all(np.diag(h) > 0.0)

    def test_symmetric_layout_symmetry(self):
        layout = square_grid_layout(4, 0.5, detector=PhotoDetector(fov=60.0))
        h = build_channel_matrix(layout).gains
        assert np.allclose(np.diag(h), h[0, 0], rtol=1e-12)
        # four corner links: nearest-neighbor couplings all equal
        near = [h[0, 1], h[0, 2], h[1, 3], h[2, 3], h[1, 0], h[3, 1]]
        assert np.allclose(near, near[0], rtol=1e-12)

    def test_diagonally_dominant_at_wide_spacing(self):
        layout = square_grid_layout(4, 1.0, detector=PhotoDetector(fov=60.0))
        h = build_channel_matrix(layout).gains
        for i in range(4):
            assert h[i, i] > h[i].sum() - h[i, i]

    def test_matches_per_entry_gain(self):
        layout = square_grid_layout(4, 0.5, detector=PhotoDetector(fov=60.0))
        h = build_channel_matrix(layout).gains
        for i in range(4):
            for j in range(4):
                assert h[i, j] == oracle.los_gain(layout, i, j)

    def test_rejects_negative_gains(self):
        with pytest.raises(GeometryError):
            ChannelMatrix(gains=np.array([[1.0, -0.1], [0.0, 1.0]]))

    def test_immutable(self):
        h = build_channel_matrix(square_grid_layout(2, 1.0))
        with pytest.raises(ValueError):
            h.gains[0, 0] = 5.0


class TestGainMap:
    def test_peak_under_single_luminaire(self):
        layout = room([(1.0, 3.0, 3.0)], [(1.0, 3.0, 0.75)], detector=PhotoDetector(fov=30.0))
        field = gain_map(layout, 0.1)
        iy, ix = np.unravel_index(np.argmax(field.values), field.values.shape)
        assert abs(field.x_centers[ix] - 1.0) <= 0.06
        assert abs(field.y_centers[iy] - 3.0) <= 0.06

    def test_zero_outside_fov_footprints(self):
        layout = square_grid_layout(4, 1.0, detector=PhotoDetector(fov=15.0))
        field = gain_map(layout, 0.1)
        radius = 2.25 * math.tan(math.radians(15.0))
        led_xy = layout.luminaire_positions[:, :2]
        for iy, y in enumerate(field.y_centers):
            for ix, x in enumerate(field.x_centers):
                inside = any(math.hypot(x - lx, y - ly) <= radius for lx, ly in led_xy)
                if not inside:
                    assert field.values[iy, ix] == 0.0

    def test_spacing_progression_of_lobe_structure(self):
        from scipy import ndimage

        def field_at(spacing):
            layout = square_grid_layout(4, spacing, detector=PhotoDetector(fov=15.0))
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
        for lx, ly, _ in layout.luminaire_positions:
            v = value_at(mid, lx, ly)
            assert v > 0.8 * value_at(mid, *layout.luminaire_positions[0, :2])
            assert v > 0.0

        # wide spacing: four fully disjoint footprints
        _, wide = field_at(2.0)
        _, n_wide = ndimage.label(wide.values > 0)
        assert n_wide == 4

    def test_mirror_symmetry(self):
        layout = square_grid_layout(4, 1.0, detector=PhotoDetector(fov=60.0))
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
        with pytest.raises(GeometryError, match=re.escape(
                "luminaire position (2.0, 2.0, 1.0) is not above the receiver plane z = 2.0")):
            room([(1.0, 1.0, 3.0), (2.0, 2.0, 1.0)], [(2.0, 2.0, 0.5)], receiver_plane_z=2.0)

    @pytest.mark.parametrize("what, luminaires, detectors, bad", [
        ("luminaire", [(1.0, 1.0, 3.0), (5.0, 2.0, 3.0), (-1.0, 1.0, 3.0)], [(2.0, 2.0, 0.75)],
         (5.0, 2.0, 3.0)),
        ("detector", [(1.0, 1.0, 3.0)], [(2.0, 2.0, 0.75), (2.0, 2.0, -0.5)],
         (2.0, 2.0, -0.5)),
        ("detector", [(1.0, 1.0, 3.0)], [(2.0, float("nan"), 0.75)], (2.0, float("nan"), 0.75)),
    ], ids=["luminaire", "detector", "nan"])
    def test_first_position_outside_the_room_named(self, what, luminaires, detectors, bad):
        with pytest.raises(GeometryError, match=re.escape(
                f"{what} position {bad} outside room bounds (4.0, 4.0, 3.0)")):
            room(luminaires, detectors)

    @pytest.mark.parametrize("luminaires, detectors", [
        ([], [(2.0, 2.0, 0.75)]), ([(1.0, 1.0, 3.0)], [(2.0, 2.0)]),
        ([(1.0, 1.0, 3.0)], (2.0, 2.0, 0.75))], ids=["no_luminaire", "xy_only", "flat"])
    def test_positions_must_be_a_nonempty_n_by_3_array(self, luminaires, detectors):
        with pytest.raises(GeometryError, match=r"positions must form a nonempty \(n, 3\)"):
            room(luminaires, detectors)

    def test_positions_are_read_only_float_arrays(self):
        source = [[1, 1, 3]]
        layout = room(source, [(2.0, 2.0, 0.75)])
        assert layout.luminaire_positions.dtype == float
        source[0][0] = 2
        assert layout.luminaire_positions[0, 0] == 1.0
        with pytest.raises(ValueError):
            layout.detector_positions[0, 0] = 0.0

    def test_grid_shapes(self):
        assert square_grid_layout(2, 1.0).luminaire_positions.shape == (2, 3)
        assert square_grid_layout(8, 0.5).detector_positions.shape == (8, 3)
        lay9 = square_grid_layout(9, 0.5)
        assert len(np.unique(lay9.luminaire_positions[:, 0])) == 3  # 3x3 grid
        # row by row, each detector under its luminaire on the receiver plane
        assert lay9.luminaire_positions[:3, 1].tolist() == [1.5] * 3
        assert np.array_equal(lay9.detector_positions[:, :2], lay9.luminaire_positions[:, :2])
        assert set(lay9.detector_positions[:, 2]) == {0.75}


def reference_gain(layout, j, position):
    """Literal Lambertian line-of-sight gain from luminaire ``j`` of ``layout`` to
    its detector at ``position``, in math and Python floats.

    The luminaire faces down and the detector up, so both angles have the
    cosine of the drop over the distance.
    """
    det = layout.detector
    v = [p - q for p, q in zip(position, layout.luminaire_positions[j].tolist())]
    d = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    cos = -v[2] / d
    if cos < math.cos(math.radians(det.fov)) or cos <= 0.0:
        return 0.0
    m = layout.luminaire.lambertian_order
    intensity = (m + 1.0) / (2.0 * math.pi) * cos**m
    g = det.refractive_index**2 / math.sin(math.radians(det.fov)) ** 2
    return (det.area / d**2) * intensity * det.filter_gain * g * cos


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
        (layout,) = cfg.layouts.values()
        field = gain_map(layout, cfg.map_resolution_m)
        z, n = layout.receiver_plane_z, len(layout.luminaire_positions)
        ref = [[sum(reference_gain(layout, j, (float(x), float(y), z)) for j in range(n))
                for x in field.x_centers] for y in field.y_centers]
        assert 0 < np.count_nonzero(field.values) < field.values.size
        assert_matches_reference(field.values, ref)

    def test_channel_matrix_matches_reference_on_mixed_positions(self):
        luminaire_positions = [(1.0, 1.0, 3.0), (2.5, 1.5, 2.9), (3.2, 3.0, 3.0)]
        detector_positions = [(1.1, 0.9, 0.75), (2.7, 1.2, 0.8), (3.0, 3.3, 0.75),
                              (1.9, 2.2, 0.7),
                              (2.6, 1.6, 2.95)]    # above the second luminaire, below the others
        layout = room(luminaire_positions, detector_positions,
                      Luminaire(semi_angle_half_power=30.0),
                      PhotoDetector(fov=90.0, refractive_index=1.2, filter_gain=0.7))
        h = build_channel_matrix(layout).gains
        ref = [[reference_gain(layout, j, det) for j in range(3)] for det in detector_positions]
        assert 0 < np.count_nonzero(h) < h.size
        assert_matches_reference(h, ref)
        for i in range(5):
            for j in range(3):
                assert h[i, j] == oracle.los_gain(layout, i, j)
        assert h[4, 1] == 0.0 and h[4, 0] > 0.0 and h[4, 2] > 0.0
