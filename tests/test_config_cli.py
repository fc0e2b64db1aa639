"""Config loading/validation and command-line interface tests."""

import dataclasses
import json
import types
import typing
from pathlib import Path

import numpy as np
import pytest
import yaml

from vlcmimo.cli import main
from vlcmimo.config import (PRESET_NAMES, ConfigError, ExperimentConfig,
                            config_from_dict, load_config, preset)


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
            if hint is int:      # 2.5 would fail the range check of early_stop_errors
                values.append(150.5 if path[-1] == "early_stop_errors" else 2.5)
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
        with pytest.raises(ConfigError):
            config_from_dict({"montecarlo": {"early_stop_errors": 10}})

    def test_oversized_grid_rejected(self):
        # 8 links at 2 m spacing do not fit a 4 m room
        with pytest.raises(ConfigError):
            config_from_dict({"layout": {"n_links": 8, "spacing_m": 2.0}})

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


class TestCli:
    def test_validate_preset(self, capsys):
        assert main(["validate", "--preset", "fig4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "config_hash" in out
        assert out["resolved_config"]["name"] == "fig4"

    @pytest.mark.parametrize("bad", [
        {"layout": {"n_links": -1}},
        {"layout": {"n_links": 20}},
        {"mimo_orders": [2, 20]},
        {"csi": {"mode": "outdated", "mobile_user": 2}},
        {"csi": {"mode": "outdated"}, "mobility": {"elapsed_times_s": []}},
        {"seed": -1},
        {"seed": 1.5},
        {"sweep": {"snr_start_db": 80.0, "snr_stop_db": 84.0, "snr_step_db": float("nan")}},
        {"sweep": {"snr_start_db": 80.0, "snr_stop_db": float("inf"), "snr_step_db": 2.0}},
        {"montecarlo": {"n_symbols": 1.5}},
        {"montecarlo": {"n_symbols": 20_000, "block_size": 100.5}},
        {"map_resolution_m": float("nan")},
        {"map_resolution_m": float("inf")},
        {"csi": {"mode": "outdated"}, "mobility": {"speed_mps": float("nan")}},
        {"csi": {"mode": "outdated"}, "mobility": {"elapsed_times_s": [float("nan")]}},
        {"csi": {"mode": "outdated"}, "mobility": {"start_xy_m": [1.0]}},
        {"layout": {"n_links": 2.5, "spacing_m": 0.5, "detector": {"fov_deg": 60.0}}},
        {"mimo_orders": [2.5]},
        {"csi": {"mode": "outdated", "mobile_user": 0.5}},
        with_detector(responsivity_a_per_w=float("nan")),
        with_detector(responsivity_a_per_w=float("inf")),
        with_layout(power_per_led_w=float("inf")),
        {"noise": {"mode": "physical", "bandwidth_hz": float("inf")}},
        with_layout(leds_per_luminaire=2.5),
        with_detector(area_m2=float("nan")),
        with_detector(area_m2=float("inf")),
        with_detector(refractive_index=float("nan")),
        with_detector(refractive_index=float("inf")),
        with_layout(room_x_m=float("inf")),
        with_layout(power_per_led_w=float("nan")),
        {"name": "../escaped"},
        {"name": "sub/x"},
        {"name": ""},
        {"schemes": ["ci", "ci"]},
        {"map_resolution_m": 0.00001},
        {"map_resolution_m": 0.0019},
    ], ids=["negative_links", "too_many_links", "too_many_orders", "mobile_user",
            "no_elapsed_time", "negative_seed", "fractional_seed", "nan_step",
            "infinite_stop", "fractional_symbols", "fractional_block",
            "nan_map_resolution", "infinite_map_resolution", "nan_speed",
            "nan_elapsed_time", "short_start_xy", "fractional_links",
            "fractional_order", "fractional_mobile_user", "nan_responsivity",
            "infinite_responsivity", "infinite_led_power", "infinite_bandwidth",
            "fractional_leds", "nan_area", "infinite_area", "nan_refractive_index",
            "infinite_refractive_index", "infinite_room", "nan_led_power",
            "parent_dir_name", "nested_name", "empty_name", "repeated_scheme",
            "huge_raster", "raster_over_cap"])
    def test_bad_config_exit_code(self, tmp_path, capsys, bad):
        path = write_yaml(tmp_path / "bad.yaml", {**SMALL, **bad})
        out = tmp_path / "results"
        assert main(["ber-sweep", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        path = write_yaml(tmp_path / "c.yaml", SMALL)
        out = tmp_path / "results"
        assert main(["ber-sweep", "--config", str(path), "--out", str(out), "--quiet",
                     "--threads", threads]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_yaml_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("a: [1,\n", encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", bad_field_values())
    def test_every_field_rejects_bad_value(self, tmp_path, capsys, bad):
        path = write_yaml(tmp_path / "bad.yaml", bad)
        assert main(["validate", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

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

    def test_reproducible_across_threads(self, tmp_path):
        path = write_yaml(tmp_path / "c.yaml", SMALL)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["ber-sweep", "--config", str(path), "--out", str(out1),
                     "--threads", "1", "--quiet"]) == 0
        assert main(["ber-sweep", "--config", str(path), "--out", str(out2),
                     "--threads", "4", "--quiet"]) == 0
        a = (out1 / "small_ber.csv").read_bytes()
        b = (out2 / "small_ber.csv").read_bytes()
        assert a == b

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

    def test_channel_map_empty_luminaires_rejected(self, tmp_path):
        path = write_yaml(tmp_path / "bad.yaml", {"layout": {"n_links": 0}})
        assert main(["channel-map", "--config", str(path), "--out",
                     str(tmp_path / "x")]) == 2

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
        assert meta["error_bound"] > 0.0

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
