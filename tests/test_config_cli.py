"""Config loading/validation and command-line interface tests."""

import copy
import dataclasses
import json
import os
import pickle
import re
import resource
import runpy
import subprocess
import sys
import types
import typing
from pathlib import Path

import numpy as np
import pytest
import yaml

from vlcmimo import channel, config, runner
from vlcmimo.channel import (GainMap, Luminaire, PhotoDetector, build_channel_matrix,
                             distance_gain_prefactor, gain_map)
from vlcmimo.cli import main
from vlcmimo.config import (MAX_SNR_POINTS, PRESET_NAMES, ConfigError, CsiConfig,
                            ExperimentConfig, MobilityConfig, NoiseConfig, config_from_dict,
                            load_config, preset)
from vlcmimo.csi import error_bound
from vlcmimo.noise import physical_sigma
from vlcmimo.precoding import ci_precoder, word_table


def write_yaml(path: Path, data: dict) -> Path:
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


SMALL = {
    "name": "small",
    "layout": {"n_links": 2, "spacing_m": 0.5, "detector": {"fov_deg": 60.0}},
    "sweep": {"snr_start_db": 80.0, "snr_stop_db": 84.0, "snr_step_db": 2.0},
    "montecarlo": {"n_symbols": 20_000},
    "seed": 7,
}


def with_layout(**changes):
    return {"layout": {**SMALL["layout"], **changes}}


def with_detector(**changes):
    return with_layout(detector={**SMALL["layout"]["detector"], **changes})


# Configs, each merged into SMALL, that every command refuses with exit 2.
BAD_CONFIGS = {
    "negative_links": {"layout": {"n_links": -1}},
    "too_many_links": {"layout": {"n_links": 20}},
    "too_many_orders": {"mimo_orders": [2, 20]},
    "mobile_user": {"csi": {"mode": "outdated", "mobile_user": 2}},
    "no_elapsed_time": {"csi": {"mode": "outdated"}, "mobility": {"elapsed_times_s": []}},
    "negative_seed": {"seed": -1},
    "fractional_seed": {"seed": 1.5},
    "nan_step": {"sweep": {"snr_start_db": 80.0, "snr_stop_db": 84.0,
                           "snr_step_db": float("nan")}},
    "infinite_stop": {"sweep": {"snr_start_db": 80.0, "snr_stop_db": float("inf"),
                                "snr_step_db": 2.0}},
    "fractional_symbols": {"montecarlo": {"n_symbols": 1.5}},
    "fractional_block": {"montecarlo": {"n_symbols": 20_000, "block_size": 100.5}},
    "nan_map_resolution": {"map_resolution_m": float("nan")},
    "infinite_map_resolution": {"map_resolution_m": float("inf")},
    "nan_speed": {"csi": {"mode": "outdated"}, "mobility": {"speed_mps": float("nan")}},
    "nan_elapsed_time": {"csi": {"mode": "outdated"},
                         "mobility": {"elapsed_times_s": [float("nan")]}},
    "short_start_xy": {"csi": {"mode": "outdated"}, "mobility": {"start_xy_m": [1.0]}},
    "fractional_links": {"layout": {"n_links": 2.5, "spacing_m": 0.5,
                                    "detector": {"fov_deg": 60.0}}},
    "fractional_order": {"mimo_orders": [2.5]},
    "fractional_mobile_user": {"csi": {"mode": "outdated", "mobile_user": 0.5}},
    "nan_responsivity": with_detector(responsivity_a_per_w=float("nan")),
    "infinite_responsivity": with_detector(responsivity_a_per_w=float("inf")),
    "infinite_led_power": with_layout(power_per_led_w=float("inf")),
    "infinite_bandwidth": {"noise": {"mode": "physical", "bandwidth_hz": float("inf")}},
    "fractional_leds": with_layout(leds_per_luminaire=2.5),
    "nan_area": with_detector(area_m2=float("nan")),
    "infinite_area": with_detector(area_m2=float("inf")),
    "nan_refractive_index": with_detector(refractive_index=float("nan")),
    "infinite_refractive_index": with_detector(refractive_index=float("inf")),
    "infinite_room": with_layout(room_x_m=float("inf")),
    "nan_led_power": with_layout(power_per_led_w=float("nan")),
    "parent_dir_name": {"name": "../escaped"},
    "nested_name": {"name": "sub/x"},
    "empty_name": {"name": ""},
    "repeated_scheme": {"schemes": ["ci", "ci"]},
    "huge_raster": {"map_resolution_m": 0.00001},
    "raster_over_cap": {"map_resolution_m": 0.0019},
    "repeated_spacing": {"spacings_m": [0.5, 0.5]},
    "repeated_angle": {"semi_angles_deg": [15.0, 15.0]},
    "repeated_order": {"mimo_orders": [2, 2]},
    "repeated_elapsed_time": {"csi": {"mode": "outdated"},
                              "mobility": {"elapsed_times_s": [0.1, 0.1]}},
    "removed_early_stop": {"montecarlo": {"n_symbols": 20_000, "early_stop_errors": 1000}},
}


# SNR grids (start, stop, step) whose noise deviation leaves its range or that pass a cap.
BAD_GRIDS = [(-7000.0, -6996.0, 2.0), (7000.0, 7004.0, 2.0), (80.0, 7000.0, 2.0),
             (6300.0, 6310.0, 2.0), (80.0, 90.0, 1e-300), (80.0, 1080.0, 0.1)]

# Configs whose transmit amplitude, responsivity x LEDs x power per LED, is not
# finite, in both noise modes.
AMPLITUDE_REFUSALS = {
    f"{case}_{mode}": dict(SMALL, **changes, noise={"mode": mode})
    for case, changes in {
        "huge_led_power": with_layout(power_per_led_w=1e308),
        "huge_led_count": with_layout(leds_per_luminaire=10**400),
        "huge_responsivity": with_detector(responsivity_a_per_w=1e307)}.items()
    for mode in ("swept", "physical")}

# Every config that an exit-2 test below refuses, whole; no command takes any of them.
CONFIG_REFUSALS = {
    **{case: {**SMALL, **bad} for case, bad in BAD_CONFIGS.items()},
    **{f"grid{i}": dict(SMALL, sweep=dict(zip(("snr_start_db", "snr_stop_db", "snr_step_db"),
                                                grid)))
       for i, grid in enumerate(BAD_GRIDS)},
    "empty_variant_axes": dict(SMALL, spacings_m=[], mimo_orders=[]),
    "no_links": {"layout": {"n_links": 0}},
    "infinite_thermal_variance": dict(SMALL, noise={"mode": "physical", "bandwidth_hz": 1e300}),
    "perfect_csi_end_point": dict(SMALL, mobility={"speed_mps": 1e300, "elapsed_times_s": [1e10]}),
    "outdated_end_point": dict(SMALL, csi={"mode": "outdated"},
                               mobility={"speed_mps": 1e300, "elapsed_times_s": [1e10]}),
    "tiny_angle": with_layout(semi_angle_deg=1e-9),
    "huge_area": with_detector(area_m2=1e300),
    "tiny_field_of_view": with_detector(fov_deg=1e-300),
    "huge_refractive_index": with_detector(refractive_index=1e200),
    # Device refusals that every layout makes, with or without a gain-error bound.
    **{f"vanishing_angle_{angle}": {**SMALL, **with_layout(semi_angle_deg=angle)}
       for angle in (1e-30, 1e-300, 5e-324)},
    **{f"{case}_without_elapsed_time": dict(SMALL, **changes, mobility={"elapsed_times_s": []})
       for case, changes in {
           "tiny_field_of_view": with_detector(fov_deg=1e-300),
           "huge_refractive_index": with_detector(refractive_index=1e200),
           "largest_area": with_detector(area_m2=1.7976931348623157e308)}.items()},
    **{case: {**SMALL, **with_layout(**changes)} for case, changes in {
        "grid_wider_than_room": {"n_links": 4, "spacing_m": 5.0},
        "receiver_plane_at_ceiling": {"receiver_plane_z_m": 3.0},
        "luminaire_below_receiver_plane": {"luminaire_z_m": 0.5},
        "luminaire_above_ceiling": {"luminaire_z_m": 3.5}}.items()},
    **AMPLITUDE_REFUSALS,
}

# The layout refusals above and the first position each names.
POSITION_REFUSALS = {
    "grid_wider_than_room": "luminaire position (-0.5, -0.5, 3.0) outside room bounds "
                            "(4.0, 4.0, 3.0)",
    "receiver_plane_at_ceiling": "luminaire position (1.75, 2.0, 3.0) is not above the "
                                 "receiver plane z = 3.0",
    "luminaire_below_receiver_plane": "luminaire position (1.75, 2.0, 0.5) is not above the "
                                      "receiver plane z = 0.75",
    "luminaire_above_ceiling": "luminaire position (1.75, 2.0, 3.5) outside room bounds "
                               "(4.0, 4.0, 3.0)",
}

# Configs that ``validate`` accepts and the named commands refuse: checks of
# what a command runs, not of the config.
COMMAND_REFUSALS = {
    "mobility_without_elapsed_time": (dict(SMALL, mobility={"elapsed_times_s": []}),
                                      ["mobility"]),
    "outdated_throughput": (dict(SMALL, csi={"mode": "outdated"}), ["throughput-sweep"]),
    "variant_axis_of_one_layout": (dict(SMALL, spacings_m=[0.25, 0.5]),
                                   ["mobility", "channel-map"]),
}


def leaf_fields(cls, path=()):
    """(dotted path, type hint) of every field, nested config sections expanded."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from leaf_fields(hints[f.name], path + (f.name,))
        else:
            yield path + (f.name,), hints[f.name]


def bad_field_values():
    """One malformed value per case for every numeric and bool config field.

    Non-finite values for every number, a fraction for every integer, a
    string for the flag; tuple fields get the bad value in every slot.
    """
    for path, hint in leaf_fields(ExperimentConfig):
        if typing.get_origin(hint) is types.UnionType:         # optional field
            (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
        size = None                                           # a scalar field
        if typing.get_origin(hint) is tuple:
            args = typing.get_args(hint)
            hint, size = args[0], 1 if args[-1] is Ellipsis else len(args)
        if hint is bool:
            values = ["yes"]
        elif hint in (int, float):
            values = [float("nan"), float("inf"), float("-inf")]
            if hint is int:
                values.append(2.5)
        else:
            continue
        for value in values:
            data = value if size is None else [value] * size
            for key in reversed(path):
                data = {key: data}
            yield pytest.param(data, id=f"{'.'.join(path)}={value}")


class TestConfigLoading:
    def test_defaults_round_trip(self):
        cfg = config_from_dict({})
        assert cfg.layout.n_links == 4
        assert cfg.schemes == ("ci", "oap")
        assert cfg.noise.mode == "swept"

    def test_yaml_and_json_equivalent(self, tmp_path):
        ypath = write_yaml(tmp_path / "c.yaml", SMALL)
        jpath = tmp_path / "c.json"
        jpath.write_text(json.dumps(SMALL), encoding="utf-8")
        a = load_config(ypath)
        b = load_config(jpath)
        assert a == b
        assert a.config_hash() == b.config_hash()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"layot": {}})
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"layout": {"n_leds": 4}})

    def test_physically_impossible_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"layout": {"semi_angle_deg": 120.0}})
        with pytest.raises(ConfigError):
            config_from_dict({"layout": {"receiver_plane_z_m": 5.0}})
        with pytest.raises(ConfigError):
            config_from_dict({"sweep": {"snr_step_db": -1.0}})
        with pytest.raises(ConfigError):
            config_from_dict({"schemes": ["zf"]})

    def test_oversized_grid_rejected(self):
        # 8 links at 2 m spacing do not fit a 4 m room
        with pytest.raises(ConfigError):
            config_from_dict({"layout": {"n_links": 8, "spacing_m": 2.0}})

    @pytest.mark.parametrize("data", [
        {"layout": {"n_links": 2}, "mimo_orders": [4], "csi": {"mobile_user": 3}},
        {"layout": {"n_links": 17}, "mimo_orders": [4]},
    ], ids=["mobile_user_of_the_order", "unused_layout_links"])
    def test_link_counts_are_the_variants(self, data):
        """Checks read the link counts that run: ``mimo_orders`` replaces ``layout.n_links``."""
        assert [n for n, _, _ in config_from_dict(data).variants()] == [4]

    @pytest.mark.parametrize("changes", [
        {"mimo_orders": (17,)},
        {"csi": CsiConfig(mobile_user=4)},
        {"map_resolution_m": 1e-4},
        {"mobility": MobilityConfig(speed_mps=1e300, elapsed_times_s=(1e10,))},
    ], ids=["too_many_links", "mobile_user_outside_the_array", "huge_raster",
            "perfect_csi_end_point"])
    def test_replace_checks_the_whole_config(self, changes):
        """``dataclasses.replace`` builds the config anew, so every check runs."""
        with pytest.raises(ConfigError):
            dataclasses.replace(preset("fig4"), **changes)

    def test_raster_cap_admits_two_millimetre_map(self):
        # 2000 x 2000 cells of the 4 m room: exactly MAX_RASTER_CELLS
        assert config_from_dict({"map_resolution_m": 0.002}).map_resolution_m == 0.002

    def test_hash_changes_with_content(self):
        a = config_from_dict({})
        b = config_from_dict({"seed": 1})
        assert a.config_hash() != b.config_hash()

    def test_presets_all_valid(self):
        for name in PRESET_NAMES:
            cfg = preset(name)
            assert cfg.name == name

    def test_variant_axes(self):
        cfg = preset("fig4")
        variants = list(cfg.variants())
        assert len(variants) == 3
        assert {sp for _, sp, _ in variants} == {0.25, 0.5, 1.0}


class TestGeometryBuiltOnce:
    """A config builds its layouts and bounds once, and the recipes read them."""

    RECIPES = {
        runner.run_ber_sweep: dict(SMALL, spacings_m=[0.5, 1.0], csi={"mode": "outdated"}),
        runner.run_throughput_sweep: dict(SMALL, semi_angles_deg=[15.0, 30.0]),
        runner.run_mobility: dict(SMALL, csi={"mode": "outdated"}),
        runner.run_channel_map: dict(SMALL, map_resolution_m=0.5),
    }

    def test_recipes_build_no_geometry(self, tmp_path, monkeypatch):
        calls = []

        def spy(fn):
            def counted(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(config, "square_grid_layout", spy(config.square_grid_layout))
        monkeypatch.setattr(ExperimentConfig, "_bound_after",
                            spy(ExperimentConfig._bound_after))
        cfgs = {recipe: config_from_dict(data) for recipe, data in self.RECIPES.items()}
        assert {"square_grid_layout", "_bound_after"} <= set(calls)     # the spies see builds
        calls.clear()
        for recipe, cfg in cfgs.items():
            recipe(cfg, tmp_path / recipe.__name__)
        assert calls == []

    def test_recipes_compute_no_lambertian_order(self, tmp_path, monkeypatch):
        calls, order = [], channel._lambertian_order

        def counted(angle):
            calls.append(angle)
            return order(angle)

        monkeypatch.setattr(channel, "_lambertian_order", counted)
        recipes = (runner.run_ber_sweep, runner.run_channel_map)
        cfgs = {recipe: config_from_dict(self.RECIPES[recipe]) for recipe in recipes}
        assert calls            # the spy sees the configs' own builds
        calls.clear()
        for recipe, cfg in cfgs.items():
            recipe(cfg, tmp_path / recipe.__name__)
        assert calls == []

    def test_replace_builds_its_own_geometry(self):
        cfg = config_from_dict(dict(SMALL, csi={"mode": "outdated"}))
        wide = dataclasses.replace(cfg, spacings_m=(1.0, 2.0))
        assert list(cfg.layouts) == list(cfg.error_bounds) == [(2, 0.5, 15.0)]
        assert list(wide.layouts) == list(wide.error_bounds) == [(2, 1.0, 15.0), (2, 2.0, 15.0)]
        for (_, sp, _), layout in wide.layouts.items():
            assert np.diff(layout.luminaire_positions[:, 0]).tolist() == [sp]
        assert wide.error_bounds[2, 1.0, 15.0] == cfg.error_bounds[2, 0.5, 15.0]
        assert wide.layouts[2, 1.0, 15.0].detector is wide.layouts[2, 2.0, 15.0].detector

    def test_geometry_is_no_field(self):
        cfg = config_from_dict(SMALL)
        same = dataclasses.replace(cfg)
        assert same == cfg and hash(same) == hash(cfg)
        assert same.layouts is not cfg.layouts
        assert {"layouts", "error_bounds"}.isdisjoint(cfg.resolved())
        assert same.config_hash() == cfg.config_hash()

    def test_copies_build_their_own_geometry(self):
        cfg = preset("fig6")
        for twin in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            assert twin == cfg and twin.layouts is not cfg.layouts
            assert twin.error_bounds == cfg.error_bounds

    def test_geometry_is_read_only(self):
        cfg = config_from_dict(SMALL)
        key = next(cfg.variants())
        for name in ("layouts", "error_bounds"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, {})
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(cfg, name)
            with pytest.raises(TypeError):
                getattr(cfg, name)[key] = None
        with pytest.raises(TypeError):
            cfg.error_bounds[key][0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.layouts[key].room_x = 1.0
        with pytest.raises(ValueError, match="read-only"):
            cfg.layouts[key].luminaire_positions[0, 0] = 0.0


class TestCli:
    def test_validate_preset(self, capsys):
        assert main(["validate", "--preset", "fig4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "config_hash" in out
        assert out["resolved_config"]["name"] == "fig4"

    @staticmethod
    def assert_refused(tmp_path, capsys, command, case):
        """``command`` on ``CONFIG_REFUSALS[case]`` exits 2 with no warning and writes
        nothing; gives what it printed to stderr."""
        path = write_yaml(tmp_path / "c.yaml", CONFIG_REFUSALS[case])
        out = tmp_path / "results"
        assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not out.exists()
        return err

    @pytest.mark.parametrize("case", list(CONFIG_REFUSALS))
    def test_bad_config_exit_code(self, tmp_path, capsys, case):
        self.assert_refused(tmp_path, capsys, "ber-sweep", case)

    @pytest.mark.parametrize("command", ["validate", "ber-sweep", "throughput-sweep",
                                         "mobility", "channel-map"])
    @pytest.mark.parametrize("case", list(POSITION_REFUSALS))
    def test_layout_refusal_names_the_position(self, tmp_path, capsys, command, case):
        err = self.assert_refused(tmp_path, capsys, command, case)
        assert err == f"config error: {POSITION_REFUSALS[case]}\n"

    @pytest.mark.parametrize("command", ["validate", "ber-sweep", "mobility"])
    @pytest.mark.parametrize("case", list(AMPLITUDE_REFUSALS))
    def test_transmit_amplitude_refusal_names_its_keys(self, tmp_path, capsys, command, case):
        err = self.assert_refused(tmp_path, capsys, command, case)
        assert ("layout.detector.responsivity_a_per_w x layout.leds_per_luminaire x "
                "layout.power_per_led_w gives the transmit amplitude inf") in err

    @pytest.mark.parametrize("command", ["validate", "throughput-sweep", "mobility",
                                         "channel-map"])
    @pytest.mark.parametrize("case", list(CONFIG_REFUSALS))
    def test_config_refusal_exits_2_from_every_command(self, tmp_path, capsys, command, case):
        """A config is checked when it is built, so every command refuses it as
        ``ber-sweep`` does (``test_bad_config_exit_code``)."""
        self.assert_refused(tmp_path, capsys, command, case)

    @pytest.mark.parametrize("case, command", [
        (case, command) for case, (_, commands) in COMMAND_REFUSALS.items()
        for command in commands])
    def test_command_refusal_exits_2_from_its_command_only(self, tmp_path, capsys, case,
                                                          command):
        """``validate`` accepts the config; the command that cannot run it exits 2."""
        path = write_yaml(tmp_path / "c.yaml", COMMAND_REFUSALS[case][0])
        out = tmp_path / "results"
        assert main(["validate", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "ber-sweep", "throughput-sweep", "mobility"])
    @pytest.mark.parametrize("grid", BAD_GRIDS)
    def test_snr_grid_outside_sigma_range_exits_2(self, tmp_path, capsys, command, grid):
        """A grid is refused, with no warning, when it leaves sigma's range or the caps.

        That is when the noise deviation at an end overflows or underflows to
        0, the grid ends above ``MAX_SNR_DB``, or it has more than
        ``MAX_SNR_POINTS`` points, which is found before the grid is built.
        """
        sweep = dict(zip(("snr_start_db", "snr_stop_db", "snr_step_db"), grid))
        path = write_yaml(tmp_path / "c.yaml", dict(SMALL, sweep=sweep))
        out = tmp_path / "results"
        assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error: sweep point" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ber-sweep", "throughput-sweep"])
    def test_snr_grid_at_ceiling_stays_finite(self, tmp_path, command):
        """At 6000 dB every threshold and rate is finite, with no warning."""
        sweep = {"snr_start_db": 5996.0, "snr_stop_db": 6000.0, "snr_step_db": 2.0}
        path = write_yaml(tmp_path / "c.yaml", dict(SMALL, sweep=sweep))
        assert main([command, "--config", str(path), "--out", str(tmp_path),
                     "--quiet"]) == 0
        csv_path = next(tmp_path.glob("*.csv"))
        header, *rows = [line.split(",") for line in csv_path.read_text().splitlines()
                         if not line.startswith("#")]
        cells = [float(row[i]) for row in rows for i, name in enumerate(header)
                 if name in ("analytic_avg_ber", "throughput_bits_per_hz")]
        assert len(cells) == 6 and np.all(np.isfinite(cells))

    @pytest.mark.parametrize("command", ["ber-sweep", "mobility"])
    def test_physical_noise_at_huge_power_reads_zero(self, tmp_path, command):
        """At 1e300 W per LED each z = gp * margin / sigma overflows to its exact
        limit, +-inf, with no warning: every rate reads 0."""
        data = dict(SMALL, noise={"mode": "physical"}, **with_layout(power_per_led_w=1e300))
        path = write_yaml(tmp_path / "c.yaml", data)
        assert main([command, "--config", str(path), "--out", str(tmp_path),
                     "--quiet"]) == 0
        csv_path = next(tmp_path.glob("*.csv"))
        header, *rows = [line.split(",") for line in csv_path.read_text().splitlines()
                         if not line.startswith("#")]
        cells = [float(c) for row in rows for name, cell in zip(header, row)
                 if name.startswith(("analytic_", "mc_")) for c in cell.split("|")]
        assert len(rows) == {"ber-sweep": 2, "mobility": 6}[command]
        assert len(cells) == 5 * len(rows) and set(cells) == {0.0}

    def test_snr_point_cap_admits_its_own_count(self):
        sweep = config_from_dict({"sweep": {"snr_start_db": 80.0, "snr_stop_db": 1079.9,
                                            "snr_step_db": 0.1}}).sweep
        assert len(sweep.points()) == MAX_SNR_POINTS

    @pytest.mark.parametrize("start, stop, step, want", [
        (70.0, 75.0, 3.0, (70.0, 73.0)),
        (5999.0, 6000.0, 0.6, (5999.0, 5999.6))])
    def test_grid_ends_at_its_last_point_not_above_the_stop(self, start, stop, step, want):
        """A stop between grid points ends the grid below it, so never above 6000 dB."""
        sweep = config_from_dict({"sweep": {"snr_start_db": start, "snr_stop_db": stop,
                                            "snr_step_db": step}}).sweep
        assert sweep.points() == want

    def test_exact_grid_keeps_its_count(self):
        """Steps that reach the stop up to rounding keep their last point, the stop."""
        sweep = config_from_dict({"sweep": {"snr_start_db": 70.0, "snr_stop_db": 130.0,
                                            "snr_step_db": 0.1}}).sweep
        points = sweep.points()
        assert len(points) == 601 and points[-1] == 130.0

    def test_integer_grid_writes_one_snr_text(self, tmp_path):
        """A YAML grid of integers gives the same snr_db cells in the ber and throughput CSVs."""
        sweep = {"snr_start_db": 80, "snr_stop_db": 84, "snr_step_db": 2}
        path = write_yaml(tmp_path / "c.yaml", dict(SMALL, sweep=sweep))
        cells = []
        for command, kind in (("ber-sweep", "ber"), ("throughput-sweep", "throughput")):
            assert main([command, "--config", str(path), "--out", str(tmp_path),
                         "--quiet"]) == 0
            lines = (tmp_path / f"small_{kind}.csv").read_text().splitlines()[4:]
            cells.append([line.split(",")[0] for line in lines])
        assert cells[0] == cells[1] == ["80.0", "82.0", "84.0"] * 2

    @staticmethod
    def run_all_figures(monkeypatch, *argv):
        """``scripts/run_all_figures.py`` run in this process with ``argv``."""
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_all_figures.py"
        run_all = runpy.run_path(str(script))["main"]
        monkeypatch.setattr(sys, "argv", ["run_all_figures.py", *argv])
        return run_all()

    def test_run_all_figures_summary_gives_time_and_peak_memory(self, tmp_path, capsys,
                                                                 monkeypatch):
        out = tmp_path / "results"
        assert self.run_all_figures(monkeypatch, "--out", str(out), "--only", "fig8") == 0
        (line,) = capsys.readouterr().out.splitlines()
        summary = re.fullmatch(r"fig8: (\d+\.\d)s, peak (\d+\.\d) MB -> (.*)", line)
        assert summary is not None, line
        peak_mb = float(summary[2])
        # the peak so far, printed to 0.1 MB, never passes the peak now
        now_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert 10.0 < peak_mb <= round(now_mb, 1)
        assert summary[3] == ", ".join(str(out / f"fig8_throughput{suffix}")
                                       for suffix in (".csv", "_meta.json"))

    def test_adaptive_gain_study_prints_a_gap_row(self):
        """A 4-link array at 1 m: the SNR of each scheme at the target rate and their gap."""
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "adaptive_gain_study.py"),
             "--orders", "4", "--spacings", "1.0"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=120)
        assert done.returncode == 0, done.stderr
        *_, row = done.stdout.splitlines()
        found = re.fullmatch(r" +4 +1\.00 +\S+ +(\d+\.\d\d) +(\d+\.\d\d) +(-?\d+\.\d\d)", row)
        assert found is not None, row
        ci, oap, gap = map(float, found.groups())
        assert 0.0 < gap == pytest.approx(ci - oap, abs=0.011)

    def test_adaptive_gain_study_skips_a_layout_outside_the_room(self):
        """An 8-link array at 1.5 m does not fit the 4 m room: one skipped row, exit 0."""
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "adaptive_gain_study.py"),
             "--orders", "8", "--spacings", "1.5"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stdout + done.stderr
        *_, row = done.stdout.splitlines()
        assert re.fullmatch(r" +8 +1\.50 skipped: luminaire position .* outside room bounds .*",
                            row), row

    def test_malformed_yaml_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("a: [1,\n", encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    UNREADABLE = {
        "not-utf8": ("c.yaml", b"name: \xff\xfe\n", "codec can't decode"),
        "yaml-top": ("c.yaml", b"seed: 1\nseed: 2\n", "repeated key 'seed'"),
        "yaml-nested": ("c.yaml", b"layout:\n  n_links: 2\n  n_links: 3\n",
                        "repeated key 'n_links'"),
        "json-top": ("c.json", b'{"seed": 1, "seed": 2}', "repeated key 'seed'"),
        "json-nested": ("c.json", b'{"layout": {"n_links": 2, "n_links": 3}}',
                        "repeated key 'n_links'"),
        "yaml-bad-date": ("c.yaml", b"seed: 2020-13-45\n", "month must be in 1..12"),
        "yaml-syntax": ("c.yaml", b"a: [1,\n", "expected the node content"),
        "json-syntax": ("c.json", b'{"seed": 1,', "Expecting property name"),
    }

    @pytest.mark.parametrize("command", ["validate", "ber-sweep"])
    @pytest.mark.parametrize("case", list(UNREADABLE))
    def test_unreadable_config_exits_2_and_writes_nothing(self, tmp_path, capsys, command,
                                                          case):
        """A file that is not UTF-8, repeats a key (at the top or nested) or holds an
        impossible YAML date is a config error."""
        name, data, why = self.UNREADABLE[case]
        path = tmp_path / name
        path.write_bytes(data)
        out = tmp_path / "results"
        assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: cannot parse") and why in err
        assert not out.exists()

    def test_yaml_merge_key_may_be_overridden(self, tmp_path):
        """A mapping's own key overrides one merged in by ``<<:``; it is not a repeat."""
        path = tmp_path / "c.yaml"
        path.write_text("layout:\n  <<: {n_links: 2, spacing_m: 0.25}\n  n_links: 3\n",
                        encoding="utf-8")
        layout = load_config(path).layout
        assert (layout.n_links, layout.spacing_m) == (3, 0.25)

    @pytest.mark.parametrize("bad", bad_field_values())
    def test_every_field_rejects_bad_value(self, tmp_path, capsys, bad):
        path = write_yaml(tmp_path / "bad.yaml", bad)
        assert main(["validate", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    NOISE_VALUES = [f.name for f in dataclasses.fields(NoiseConfig) if f.name != "mode"]

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("key", NOISE_VALUES)
    def test_nonpositive_noise_value_rejected(self, tmp_path, capsys, key, value):
        """Each device value of the noise model must be positive, in either noise mode."""
        assert len(self.NOISE_VALUES) == 9
        path = write_yaml(tmp_path / "bad.yaml", {"noise": {key: value}})
        with pytest.raises(ConfigError, match=rf"^noise\.{key} must be positive"):
            load_config(path)
        assert main(["validate", "--config", str(path)]) == 2
        assert f"config error: noise.{key} must be positive" in capsys.readouterr().err

    def test_ber_sweep_end_to_end(self, tmp_path):
        path = write_yaml(tmp_path / "c.yaml", SMALL)
        out = tmp_path / "results"
        code = main(["ber-sweep", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 0
        csv_path = out / "small_ber.csv"
        meta_path = out / "small_ber_meta.json"
        assert csv_path.exists() and meta_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "# seed=7"
        header = lines[3].split(",")
        assert header[0] == "snr_db" and "mc_avg_ber" in header
        # 3 SNR points x 2 schemes
        assert len(lines) == 4 + 6
        meta = json.loads(meta_path.read_text())
        assert meta["seed"] == 7
        assert meta["resolved_config"]["montecarlo"]["n_symbols"] == 20_000

    def test_symbol_and_seed_overrides(self, tmp_path):
        path = write_yaml(tmp_path / "c.yaml", SMALL)
        out = tmp_path / "o"
        assert main(["ber-sweep", "--config", str(path), "--out", str(out),
                     "--seed", "123", "--symbols", "5000", "--quiet"]) == 0
        meta = json.loads((out / "small_ber_meta.json").read_text())
        assert meta["seed"] == 123
        assert meta["resolved_config"]["montecarlo"]["n_symbols"] == 5000

    def test_channel_map_grid(self, tmp_path):
        cfgd = {"name": "map", "layout": {"n_links": 4, "spacing_m": 1.0,
                                          "detector": {"fov_deg": 15.0}},
                "map_resolution_m": 0.5}
        path = write_yaml(tmp_path / "m.yaml", cfgd)
        out = tmp_path / "maps"
        assert main(["channel-map", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        lines = (out / "map_gain_map.csv").read_text().splitlines()
        header = lines[3].split(",")
        assert header[0] == "y_m"
        assert len(header) == 1 + 8      # ceil(4.0 / 0.5) columns
        assert len(lines) == 4 + 8       # 8 rows of y

    @staticmethod
    def per_cell_lines(field) -> list[str]:
        """Header and rows of a gain-map CSV with ``repr`` run on every cell."""
        return [",".join(["y_m", *(repr(float(x)) for x in field.x_centers)])] + [
            ",".join(repr(float(v)) for v in (y, *values))
            for y, values in zip(field.y_centers, field.values)]

    @pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c"])
    def test_channel_map_bytes_equal_per_cell_repr(self, tmp_path, name):
        cfg = preset(name)
        csv_path, _ = runner.run_channel_map(cfg, tmp_path)
        field = gain_map(*cfg.layouts.values(), cfg.map_resolution_m)
        assert len(np.unique(field.values)) < field.values.size // 10   # texts are shared
        assert csv_path.read_text().splitlines()[3:] == self.per_cell_lines(field)

    def test_channel_map_keeps_every_bit_pattern_apart(self, tmp_path, monkeypatch):
        """Signed zeros, NaN payloads, infinities, subnormals and one-ulp neighbours."""
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000],
                        dtype=np.int64).view(np.float64)
        a = 0.1 + 0.2
        cells = [0.0, -0.0, *nans, np.inf, -np.inf, 5e-324, 1e-300, a, np.nextafter(a, 1.0)]
        values = np.array([cells, cells[::-1]])
        field = GainMap(x_centers=np.arange(len(cells)) * 0.5 + 0.25,
                        y_centers=np.array([0.25, 0.75]), values=values)
        monkeypatch.setattr(runner, "gain_map", lambda layout, resolution: field)
        csv_path, _ = runner.run_channel_map(preset("fig3a"), tmp_path)
        lines = csv_path.read_text().splitlines()[3:]
        assert lines == self.per_cell_lines(field)
        assert {"0.0", "-0.0", "nan", "inf", "-inf", "5e-324", "1e-300", "0.30000000000000004",
                "0.3000000000000001"} == {c for line in lines[1:] for c in line.split(",")[1:]}

    def test_channel_map_empty_luminaires_rejected(self, tmp_path):
        path = write_yaml(tmp_path / "bad.yaml", {"layout": {"n_links": 0}})
        assert main(["channel-map", "--config", str(path), "--out",
                     str(tmp_path / "x")]) == 2

    def test_failed_rename_exits_4_and_leaves_no_temporary(self, tmp_path, capsys, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")
        monkeypatch.setattr(runner.os, "replace", refuse)
        out = tmp_path / "maps"
        assert main(["channel-map", "--preset", "fig3a", "--out", str(out), "--quiet"]) == 4
        assert "i/o error: cannot replace" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_throughput_sweep(self, tmp_path):
        cfgd = dict(SMALL, name="tput")
        path = write_yaml(tmp_path / "t.yaml", cfgd)
        out = tmp_path / "tp"
        assert main(["throughput-sweep", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        lines = (out / "tput_throughput.csv").read_text().splitlines()
        assert "throughput_bits_per_hz" in lines[3]
        assert len(lines) == 4 + 6

    def test_mobility_run(self, tmp_path):
        cfgd = dict(SMALL, name="mob",
                    csi={"mode": "outdated", "model": "uniform"},
                    mobility={"speed_mps": 1.0, "elapsed_times_s": [0.05, 0.2]})
        path = write_yaml(tmp_path / "m.yaml", cfgd)
        out = tmp_path / "mob"
        assert main(["mobility", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        lines = (out / "mob_mobility.csv").read_text().splitlines()
        header = lines[3].split(",")
        assert "error_bound" in header and "elapsed_s" in header
        # 2 intervals x 2 schemes x 3 points
        assert len(lines) == 4 + 12
        # larger elapsed time must carry a larger error bound
        meta = json.loads((out / "mob_mobility_meta.json").read_text())
        bounds = meta["error_bounds"]
        assert bounds[repr(0.2)] > bounds[repr(0.05)]

    def test_mobility_without_elapsed_times_exits_2(self, tmp_path, capsys):
        path = write_yaml(tmp_path / "e.yaml", dict(SMALL, mobility={"elapsed_times_s": []}))
        out = tmp_path / "results"
        assert main(["mobility", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error: mobility needs" in err and "Traceback" not in err
        assert not out.exists()
        # the perfect-CSI sweeps of the same config need no elapsed time
        for command in ("ber-sweep", "throughput-sweep"):
            assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 0

    def test_outdated_throughput_sweep_exits_2_before_writing(self, tmp_path):
        """Throughput is of the perfect-CSI table, so an outdated-CSI config is refused."""
        root = Path(__file__).resolve().parents[1]
        cfgd = dict(SMALL, csi={"mode": "outdated"},
                    mobility={"speed_mps": 5.0, "elapsed_times_s": [0.3]})
        path = write_yaml(tmp_path / "o.yaml", cfgd)
        out = tmp_path / "results"
        done = subprocess.run(
            [sys.executable, "-m", "vlcmimo.cli", "throughput-sweep", "--config", str(path),
             "--out", str(out), "--quiet"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=120)
        assert done.returncode == 2, done.stderr
        assert "config error:" in done.stderr and "csi.mode" in done.stderr
        assert "Traceback" not in done.stderr
        assert not out.exists()
        perfect = write_yaml(tmp_path / "p.yaml", dict(cfgd, csi={"mode": "perfect"}))
        assert main(["throughput-sweep", "--config", str(perfect), "--out", str(out),
                     "--quiet"]) == 0

    @pytest.mark.parametrize("command, name", [("mobility", "fig4"), ("channel-map", "fig7")])
    def test_single_layout_recipe_refuses_variant_axes(self, tmp_path, capsys, command, name):
        # fig4 sweeps spacings_m and fig7 mimo_orders; these recipes run one layout
        out = tmp_path / "results"
        argv = ["--preset", name, "--out", str(out), "--symbols", "2000", "--quiet"]
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        axis = "spacings_m" if name == "fig4" else "mimo_orders"
        assert "config error:" in err and axis in err and "Traceback" not in err
        assert not out.exists()
        for variants in ("ber-sweep", "throughput-sweep"):
            assert main([variants, *argv]) == 0

    def test_empty_variant_axis_exits_2(self, tmp_path, capsys):
        path = write_yaml(tmp_path / "e.yaml", dict(SMALL, spacings_m=[], mimo_orders=[]))
        out = tmp_path / "results"
        assert main(["ber-sweep", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "is empty" in err and "Traceback" not in err
        assert not out.exists()

    def test_outdated_ber_sweep_records_elapsed_time(self, tmp_path):
        # only the first mobility interval feeds the stale estimate
        cfgd = dict(SMALL, name="stale", csi={"mode": "outdated"},
                    mobility={"speed_mps": 1.0, "elapsed_times_s": [0.05, 0.2]})
        path = write_yaml(tmp_path / "s.yaml", cfgd)
        out = tmp_path / "stale"
        assert main(["ber-sweep", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        meta = json.loads((out / "stale_ber_meta.json").read_text())
        assert meta["error_bound_elapsed_s"] == 0.05
        assert meta["error_bounds"].keys() == meta["channel_condition_numbers"].keys()
        assert all(bound > 0.0 for bound in meta["error_bounds"].values())

    def test_outdated_ber_sweep_bounds_each_variant_by_its_own_layout(self, tmp_path):
        """A semi-angle variant's stale estimate uses its own Lambertian order.

        Its bound is the distance-model error of that angle's lobe, and its
        rows are those of a run with that angle as the only layout.
        """
        cfgd = dict(SMALL, name="angles", csi={"mode": "outdated"}, semi_angles_deg=[15.0, 45.0],
                    mobility={"speed_mps": 1.0, "elapsed_times_s": [0.1]})
        out = tmp_path / "angles"
        assert main(["ber-sweep", "--config", str(write_yaml(tmp_path / "a.yaml", cfgd)),
                     "--out", str(out), "--quiet"]) == 0
        meta = json.loads((out / "angles_ber_meta.json").read_text())
        cfg = config_from_dict(cfgd)
        lay, det = cfg.layout, cfg.layout.detector
        z = lay.room_z_m - lay.receiver_plane_z_m
        for angle in (15.0, 45.0):
            m = Luminaire(angle).lambertian_order
            varpi = distance_gain_prefactor(
                det.area_m2, det.filter_gain,
                PhotoDetector(fov=det.fov_deg,
                              refractive_index=det.refractive_index).concentrator_gain, m,
                plane_separation=z)
            assert meta["error_bounds"][f"2x2@0.5m/{angle}deg"] == error_bound(
                (0.0, 0.0), (0.1, 0.0), z, varpi, m)

        alone = dict(cfgd, name="alone", semi_angles_deg=None,
                     layout=dict(SMALL["layout"], semi_angle_deg=45.0))
        out_alone = tmp_path / "alone"
        assert main(["ber-sweep", "--config", str(write_yaml(tmp_path / "b.yaml", alone)),
                     "--out", str(out_alone), "--quiet"]) == 0
        rows = [line for line in (out / "angles_ber.csv").read_text().splitlines()
                if ",45.0," in line]
        want = (out_alone / "alone_ber.csv").read_text().splitlines()[4:]
        assert rows == want and len(rows) == 6

    @pytest.mark.parametrize("command, changes, key", [
        ("mobility", {"mobility": {"speed_mps": 1e300, "elapsed_times_s": [1e10]}},
         "mobility.speed_mps"),
        ("ber-sweep", {"csi": {"mode": "outdated"},
                       "mobility": {"speed_mps": 1e300, "elapsed_times_s": [1e10]}},
         "mobility.speed_mps"),
        ("mobility", {"layout": {"detector": {"area_m2": 1e300}}}, "layout.detector"),
        ("mobility", {"layout": {"semi_angle_deg": 1e-9}}, "layout.semi_angle_deg"),
    ], ids=["mobility_end_point", "outdated_ber_sweep_end_point", "huge_area", "tiny_angle"])
    def test_overflowing_mobility_bound_exits_2_before_writing(self, tmp_path, capsys,
                                                               command, changes, key):
        """An end point or gain-error bound that is not finite is refused, naming its key.

        On the default 4-link layout: a move of 1e310 m ends at (inf, nan), a
        huge detector makes the bound's prefactor inf, and a 1e-9 deg lobe a
        Lambertian order whose power overflows.
        """
        path = write_yaml(tmp_path / "o.yaml",
                          {"name": "o", "montecarlo": {"n_symbols": 2000}, **changes})
        out = tmp_path / "results"
        assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and key in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "ber-sweep", "mobility"])
    @pytest.mark.parametrize("changes, key", [
        ({"mobility": {"speed_mps": 1e300, "elapsed_times_s": [1e10]}}, "mobility.speed_mps"),
        ({"layout": {"semi_angle_deg": 1e-9}}, "layout.semi_angle_deg"),
        ({"layout": {"detector": {"area_m2": 1e300}}}, "layout.detector"),
    ], ids=["end_point", "tiny_angle", "huge_area"])
    def test_outdated_config_with_overflowing_bound_exits_2(self, tmp_path, capsys, command,
                                                            changes, key):
        """``validate`` checks the gain-error bound the outdated-CSI recipes would compute.

        JSON, as YAML reads ``1.0e300`` as a string.
        """
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"name": "o", "montecarlo": {"n_symbols": 2000},
                                    "csi": {"mode": "outdated"}, **changes}))
        out = tmp_path / "results"
        assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and key in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ber-sweep", "throughput-sweep", "mobility"])
    def test_gains_too_large_for_the_scaling_exit_3(self, tmp_path, capsys, command):
        """A detector of 1e300 m^2 makes the transmit scaling overflow: no nan or inf is written.

        At 60 deg (m = 1) its gain-error bound stays finite, so the config is valid.
        """
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"name": "h", "montecarlo": {"n_symbols": 2000},
                                    "layout": {"semi_angle_deg": 60.0,
                                               "detector": {"area_m2": 1e300}}}))
        out = tmp_path / "results"
        assert main(["validate", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "numerical error:" in err and "transmit scaling" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not out.exists()

    def test_huge_finite_peak_gain_without_elapsed_time_is_valid(self, tmp_path, capsys):
        """A detector of 1e300 m^2 peaks at about 8e300: with no bound to check, the
        config is valid, its gain map is written, and the error-rate runs exit 3."""
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"name": "h", "montecarlo": {"n_symbols": 2000},
                                    "mobility": {"elapsed_times_s": []},
                                    "layout": {"detector": {"area_m2": 1e300}}}))
        assert main(["validate", "--config", str(path)]) == 0
        assert main(["channel-map", "--config", str(path), "--out", str(tmp_path / "map"),
                     "--quiet"]) == 0
        body = (tmp_path / "map" / "h_gain_map.csv").read_text()
        assert "inf" not in body and "nan" not in body
        capsys.readouterr()
        assert main(["ber-sweep", "--config", str(path), "--out", str(tmp_path / "ber"),
                     "--quiet"]) == 3
        assert "numerical error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ber-sweep", "throughput-sweep", "mobility"])
    def test_gains_too_small_for_the_precoder_exit_3(self, tmp_path, capsys, command):
        """A detector of 1e-320 m^2 gives subnormal gains whose inverse is not finite.

        The config is valid and its gain map is written; the runs that invert
        the channel exit 3 with no warning and write nothing.
        """
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"name": "s", "montecarlo": {"n_symbols": 2000},
                                    "layout": {"detector": {"area_m2": 1e-320}}}))
        out = tmp_path / "results"
        assert main(["validate", "--config", str(path)]) == 0
        assert main(["channel-map", "--config", str(path), "--out", str(tmp_path / "map"),
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "numerical error:" in err and "precoder is not finite" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "ber-sweep", "throughput-sweep", "mobility"])
    def test_physical_noise_with_infinite_thermal_variance_exits_2(self, tmp_path, capsys,
                                                                   command):
        """A bandwidth whose square overflows is refused before anything is written."""
        path = write_yaml(tmp_path / "n.yaml",
                          dict(SMALL, noise={"mode": "physical", "bandwidth_hz": 1e300}))
        out = tmp_path / "results"
        assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "noise.bandwidth_hz" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_diagonal_move_reports_configured_speed_and_bound(self, tmp_path):
        """Off the luminaire axis and diagonal, each row's velocity is the configured speed.

        Each interval's bound is ``error_bound`` of the configured start and
        end points, bit for bit.
        """
        cfgd = dict(SMALL, name="diag", csi={"mode": "outdated"},
                    mobility={"start_xy_m": [0.3, 0.1], "direction": [1, 1],
                              "speed_mps": 1.0, "elapsed_times_s": [0.02, 0.3]})
        out = tmp_path / "diag"
        assert main(["mobility", "--config", str(write_yaml(tmp_path / "d.yaml", cfgd)),
                     "--out", str(out), "--quiet"]) == 0
        lines = (out / "diag_mobility.csv").read_text().splitlines()
        column = lines[3].split(",").index("velocity_mps")
        assert [line.split(",")[column] for line in lines[4:]] == ["1.0"] * 12
        meta = json.loads((out / "diag_mobility_meta.json").read_text())
        cfg = config_from_dict(cfgd)
        lay, det = cfg.layout, cfg.layout.detector
        z = lay.room_z_m - lay.receiver_plane_z_m
        m = Luminaire(lay.semi_angle_deg).lambertian_order
        g = PhotoDetector(fov=det.fov_deg, refractive_index=det.refractive_index).concentrator_gain
        varpi = distance_gain_prefactor(det.area_m2, det.filter_gain, g, m, plane_separation=z)
        assert meta["error_bounds"] == {
            repr(t): error_bound(cfg.mobility.start_xy_m, cfg.mobility.end_xy(t), z, varpi, m)
            for t in (0.02, 0.3)}

    def test_condition_numbers_are_of_the_inverted_gains(self, tmp_path):
        """Perfect knowledge records the channel's condition number, outdated the estimate's."""
        cfgd = dict(SMALL, mobility={"speed_mps": 5.0, "elapsed_times_s": [0.3]})
        conditions = {}
        for mode in ("perfect", "outdated"):
            out = tmp_path / mode
            path = write_yaml(tmp_path / f"{mode}.yaml", dict(cfgd, name=mode, csi={"mode": mode}))
            assert main(["ber-sweep", "--config", str(path), "--out", str(out), "--quiet"]) == 0
            meta = json.loads((out / f"{mode}_ber_meta.json").read_text())
            conditions[mode] = meta["channel_condition_numbers"]["2x2@0.5m/15.0deg"]
        cfg = config_from_dict(dict(cfgd, csi={"mode": "outdated"}))
        h = build_channel_matrix(*cfg.layouts.values())
        ((bound,),) = cfg.error_bounds.values()
        h_hat = runner._stale_estimate(cfg, h, bound)
        assert conditions["perfect"] == ci_precoder(h.gains).condition_number
        assert conditions["outdated"] == ci_precoder(h_hat).condition_number
        assert conditions["outdated"] != conditions["perfect"]

    def test_physical_noise_mode_single_point(self, tmp_path):
        # device-level noise has no SNR axis: one row per scheme
        cfgd = dict(SMALL, name="phys", noise={"mode": "physical"},
                    layout={"n_links": 2, "spacing_m": 0.5,
                            "power_per_led_w": 1e-7,
                            "detector": {"fov_deg": 60.0}})
        path = write_yaml(tmp_path / "p.yaml", cfgd)
        out = tmp_path / "phys"
        assert main(["ber-sweep", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        lines = (out / "phys_ber.csv").read_text().splitlines()
        assert len(lines) == 4 + 2    # one row per scheme
        assert lines[4].startswith("nan,")
        meta = json.loads((out / "phys_ber_meta.json").read_text())
        assert meta["noise_mode"] == "physical"

    def test_physical_noise_throughput_sweep_single_point(self, tmp_path):
        """Device noise: one row per scheme, each the word mean under each word's deviation."""
        rows = {}
        for mode in ("swept", "physical"):
            path = write_yaml(tmp_path / f"{mode}.yaml", dict(SMALL, name=mode,
                                                             noise={"mode": mode}))
            out = tmp_path / mode
            assert main(["throughput-sweep", "--config", str(path), "--out", str(out),
                         "--quiet"]) == 0
            rows[mode] = [line.split(",") for line in
                          (out / f"{mode}_throughput.csv").read_text().splitlines()[4:]]
        meta = json.loads((tmp_path / "physical" / "physical_throughput_meta.json").read_text())
        assert meta["noise_mode"] == "physical" and meta["snr_points_db"] == []
        assert len(rows["physical"]) == 2       # one row per scheme
        cfg = config_from_dict(dict(SMALL, noise={"mode": "physical"}))
        h = build_channel_matrix(*cfg.layouts.values())
        gp = h.responsivity * h.power
        for snr, scheme, *_, value in rows["physical"]:
            assert snr == "nan"
            table = word_table(h.gains, ci_precoder(h.gains), scheme)
            sig = physical_sigma(h.gains, h.power * table.transmit, h.detector_area,
                                 h.responsivity, cfg.noise)
            on = table.words if scheme == "oap" else table.words.any(axis=1, keepdims=True)
            want = np.mean(np.log2(1.0 + gp * table.slicer * on / (2.0 * sig)).sum(axis=1))
            assert float(value) == pytest.approx(want, rel=1e-14, abs=0.0)
        assert len(rows["swept"]) == 6
        assert not {row[-1] for row in rows["swept"]} & {row[-1] for row in rows["physical"]}

    def test_physical_noise_mode_mobility_single_point(self, tmp_path):
        # physical noise in mobility: one row per interval and scheme, no SNR grid
        cfgd = dict(SMALL, name="physmob", noise={"mode": "physical"},
                    csi={"mode": "outdated"},
                    mobility={"speed_mps": 1.0, "elapsed_times_s": [0.05, 0.2]},
                    layout={"n_links": 4, "spacing_m": 0.5,
                            "power_per_led_w": 1e-7,
                            "detector": {"fov_deg": 60.0}})
        path = write_yaml(tmp_path / "p.yaml", cfgd)
        out = tmp_path / "physmob"
        assert main(["mobility", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        lines = (out / "physmob_mobility.csv").read_text().splitlines()
        assert len(lines) == 4 + 2 * 2    # 2 intervals x 2 schemes
        assert all(line.startswith("nan,") for line in lines[4:])
        meta = json.loads((out / "physmob_mobility_meta.json").read_text())
        assert meta["snr_points_db"] == []

    def test_mobility_zero_speed_matches_perfect(self, tmp_path):
        base = dict(SMALL, name="still",
                    csi={"mode": "outdated", "model": "uniform"},
                    mobility={"speed_mps": 0.0, "elapsed_times_s": [0.1]})
        path = write_yaml(tmp_path / "s.yaml", base)
        out = tmp_path / "still"
        assert main(["mobility", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        import csv as csvmod
        with open(out / "still_mobility.csv") as fh:
            rows = [r for r in csvmod.reader(line for line in fh
                                             if not line.startswith("#"))]
        header, data = rows[0], rows[1:]
        assert all(float(r[header.index("error_bound")]) == 0.0 for r in data)
