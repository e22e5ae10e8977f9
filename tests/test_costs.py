"""Cost model: calibration tables, lookup, feasibility, power sampling."""

import json
import math
from importlib import resources

import pytest

from fedsim.costs import (
    BATCHES,
    DEFAULT_MEM_CAPACITY_MIB,
    RESOLUTIONS,
    Calibration,
    CostEntry,
    DeviceSpec,
    check_memory,
    client_round_time,
    load_calibration,
    lookup,
    sample_idle_power_and_util,
    sample_power_and_util,
    validate_calibration,
)
from fedsim.errors import ConfigError

CALIBRATION_JSON = (
    resources.files("fedsim.data").joinpath("cost_calibration.json").read_text()
)

# Measured values embedded in the shipped calibration; these are golden
# data and must match exactly.
V8_TIME_BY_RES_B32 = {320: 468.0, 640: 936.0, 960: 1764.0}
V8_TIME_960_BY_BATCH = {4: 2488.0, 8: 2052.0, 16: 1872.0, 32: 1764.0}
MEM_B32 = {
    ("v5", 320): 9113, ("v5", 640): 27750, ("v5", 960): 58675,
    ("v8", 320): 7680, ("v8", 640): 23552, ("v8", 960): 50892,
    ("v11", 320): 10340, ("v11", 640): 30617, ("v11", 960): 67379,
}
MEM_960_BY_BATCH = {
    ("v5", 4): 11090, ("v5", 8): 17920, ("v5", 16): 31436,
    ("v8", 4): 8294, ("v8", 8): 16290, ("v8", 16): 26726,
    ("v11", 4): 10035, ("v11", 8): 18841, ("v11", 16): 35635.2,
}
TIME_640_B32 = {"v5": 1019.58, "v8": 936.0, "v11": 969.42}
FEDPROX_TIME_640_B32 = {"v5": 1194.05, "v8": 1076.40, "v11": 1147.12}
POWER_RANGES = {"v5": (335.0, 360.0), "v8": (350.0, 375.0), "v11": (325.0, 350.0)}


@pytest.fixture(scope="module")
def cal():
    return load_calibration()


class TestGoldenTables:
    def test_v8_time_by_resolution(self, cal):
        p = cal.profile("v8")
        for res, t in V8_TIME_BY_RES_B32.items():
            entry = p.entries[(res, 32)]
            assert entry.train_time_s == t
            assert entry.estimated is False

    def test_v8_time_by_batch_at_960(self, cal):
        p = cal.profile("v8")
        for batch, t in V8_TIME_960_BY_BATCH.items():
            assert p.entries[(960, batch)].train_time_s == t

    def test_memory_at_batch_32(self, cal):
        for (arch, res), mem in MEM_B32.items():
            assert cal.profile(arch).entries[(res, 32)].peak_mem_mib == mem

    def test_memory_at_960_by_batch(self, cal):
        for (arch, batch), mem in MEM_960_BY_BATCH.items():
            assert cal.profile(arch).entries[(960, batch)].peak_mem_mib == mem

    def test_measured_640_times(self, cal):
        for arch, t in TIME_640_B32.items():
            entry = cal.profile(arch).entries[(640, 32)]
            assert entry.train_time_s == t
            assert entry.estimated is False

    def test_power_and_util_ranges(self, cal):
        archs = json.loads(CALIBRATION_JSON)["architectures"]
        for arch, rng in POWER_RANGES.items():
            assert tuple(archs[arch]["power_w_range"]) == rng
            assert tuple(archs[arch]["util_pct_range"]) == (85.0, 95.0)
            for entry in cal.profile(arch).entries.values():
                assert entry.power_w_range == rng
                assert entry.util_pct_range == (85.0, 95.0)

    def test_idle_values(self, cal):
        assert cal.idle_power_w == 60.0
        assert cal.idle_util_pct_range == (0.0, 10.0)
        assert json.loads(CALIBRATION_JSON)["idle_power_estimated"] is True

    def test_inference_tables(self):
        inference = json.loads(CALIBRATION_JSON)["inference_ms"]
        assert inference["kitti"]["960"]["v8"] == 1.9
        assert inference["bdd"]["640"]["v11"] == 1.7
        assert inference["kitti"]["320"]["v5"] == 0.4

    def test_default_capacity(self):
        assert json.loads(CALIBRATION_JSON)["default_device_mem_capacity_mib"] == 49140.0

    def test_default_device_capacity_is_the_calibrated_one(self):
        calibrated = json.loads(CALIBRATION_JSON)["default_device_mem_capacity_mib"]
        assert DEFAULT_MEM_CAPACITY_MIB == calibrated
        assert DeviceSpec().mem_capacity_mib == DEFAULT_MEM_CAPACITY_MIB

    def test_fedprox_factor_consistent_with_measurements(self, cal):
        assert cal.fedprox_time_factor == 1.15
        # the factor is calibrated on v8 (within 0.5%) and stays within a
        # few percent of the other measured proximal times
        assert 936.0 * 1.15 == pytest.approx(FEDPROX_TIME_640_B32["v8"], rel=5e-3)
        for arch, t in FEDPROX_TIME_640_B32.items():
            base = cal.profile(arch).entries[(640, 32)].train_time_s
            assert base * 1.15 == pytest.approx(t, rel=0.04)

    def test_derived_times_flagged_estimated(self, cal):
        # v5 and v11 ship only the 640x32 measured time; the rest of their
        # series is scaled from v8's shape and must be flagged.
        for arch in ("v5", "v11"):
            p = cal.profile(arch)
            assert p.entries[(640, 32)].estimated is False
            for key in ((320, 32), (960, 32), (960, 4), (960, 8), (960, 16)):
                assert p.entries[key].estimated is True

    def test_derived_time_scaling_rule(self, cal):
        # scaled by the measured 640x32 ratio against v8
        ratio = TIME_640_B32["v5"] / TIME_640_B32["v8"]
        got = cal.profile("v5").entries[(960, 8)].train_time_s
        assert got == pytest.approx(2052.0 * ratio)

    def test_monotonicity_validation_clean(self, cal):
        assert validate_calibration(cal) == []


class TestLookup:
    def test_exact_keys_returned_verbatim(self, cal):
        entry = lookup(cal.profile("v8"), 960, 8)
        assert entry.train_time_s == 2052.0
        assert entry.peak_mem_mib == 16290.0
        assert entry.estimated is False

    def test_log_linear_interpolation_oracle(self, cal):
        entry = lookup(cal.profile("v8"), 960, 12)
        t = (math.log(12) - math.log(8)) / (math.log(16) - math.log(8))

        def mix(a, b):
            return math.exp((1 - t) * math.log(a) + t * math.log(b))

        assert entry.train_time_s == pytest.approx(mix(2052.0, 1872.0))
        assert entry.peak_mem_mib == pytest.approx(mix(16290.0, 26726.0))
        assert entry.estimated is True

    def test_interpolation_bounded_by_neighbours(self, cal):
        for batch in (5, 6, 10, 20, 24):
            entry = lookup(cal.profile("v8"), 960, batch)
            below = max(b for b in BATCHES if b < batch)
            above = min(b for b in BATCHES if b > batch)
            lo_t = cal.profile("v8").entries[(960, above)].train_time_s
            hi_t = cal.profile("v8").entries[(960, below)].train_time_s
            assert lo_t <= entry.train_time_s <= hi_t

    def test_outside_hull_requires_flag(self, cal):
        with pytest.raises(ConfigError):
            lookup(cal.profile("v8"), 640, 8)

    def test_extrapolation_uses_batch_shape(self, cal):
        entry = lookup(cal.profile("v8"), 640, 8, allow_extrapolation=True)
        assert entry.estimated is True
        assert entry.train_time_s == pytest.approx(936.0 * 2052.0 / 1764.0)
        assert entry.peak_mem_mib == pytest.approx(23552.0 * 16290.0 / 50892.0)

    def test_unknown_resolution_rejected(self, cal):
        with pytest.raises(ConfigError):
            lookup(cal.profile("v8"), 1280, 32)

    def test_unknown_architecture_rejected(self, cal):
        with pytest.raises(ConfigError):
            cal.profile("v99")


class TestClientRoundTime:
    def test_linear_in_data_and_speed(self, cal):
        entry = cal.profile("v8").entries[(640, 32)]
        base = client_round_time(entry, 0.5, DeviceSpec(), "fedavg", cal.fedprox_time_factor)
        assert base == pytest.approx(936.0 * 0.5)
        fast = client_round_time(
            entry, 0.5, DeviceSpec(speed_factor=4.0), "fedavg", cal.fedprox_time_factor
        )
        assert fast == pytest.approx(base / 4.0)

    def test_fedprox_overhead(self, cal):
        entry = cal.profile("v8").entries[(640, 32)]
        avg = client_round_time(entry, 1.0, DeviceSpec(), "fedavg", cal.fedprox_time_factor)
        prox = client_round_time(
            entry, 1.0, DeviceSpec(), "fedprox", cal.fedprox_time_factor
        )
        assert prox == pytest.approx(avg * 1.15)
        assert prox == pytest.approx(1076.40, rel=5e-3)

    def test_rejects_nonpositive_fraction(self, cal):
        entry = cal.profile("v8").entries[(640, 32)]
        with pytest.raises(ConfigError):
            client_round_time(entry, 0.0, DeviceSpec(), "fedavg", cal.fedprox_time_factor)


class TestFeasibility:
    def test_default_device_fits_640_not_960(self, cal):
        device = DeviceSpec()
        assert check_memory(cal.profile("v8").entries[(640, 32)], device)
        assert not check_memory(cal.profile("v8").entries[(960, 32)], device)
        # exact capacity passes
        tight = DeviceSpec(mem_capacity_mib=50892.0)
        assert check_memory(cal.profile("v8").entries[(960, 32)], tight)

    def test_device_validation(self):
        with pytest.raises(ConfigError):
            DeviceSpec(mem_capacity_mib=0)
        with pytest.raises(ConfigError):
            DeviceSpec(speed_factor=0)


class TestPowerSampling:
    def test_training_draw_in_range_and_deterministic(self, cal):
        entry = cal.profile("v11").entries[(640, 32)]
        for seed in range(20):
            [(power, util)] = sample_power_and_util([entry], [seed])
            assert 325.0 <= power <= 350.0
            assert 85.0 <= util <= 95.0
        a = sample_power_and_util([entry], [5])
        b = sample_power_and_util([entry], [5])
        assert a == b

    def test_idle_draw(self, cal):
        for seed in range(10):
            power, util = sample_idle_power_and_util(seed, cal)
            assert power == 60.0
            assert 0.0 <= util <= 10.0
            assert (power, util) == sample_idle_power_and_util(seed, cal)


class TestOverrideFile:
    def test_override_calibration_loads(self, tmp_path):
        doc = json.loads(CALIBRATION_JSON)
        doc["architectures"]["v8"]["entries"]["640x32"]["train_time_s"] = 1000.0
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(doc))
        override = load_calibration(str(path))
        assert override.profile("v8").entries[(640, 32)].train_time_s == 1000.0
        # the shipped tables are untouched
        assert load_calibration().profile("v8").entries[(640, 32)].train_time_s == 936.0

    def test_validation_catches_broken_monotonicity(self, tmp_path):
        doc = json.loads(CALIBRATION_JSON)
        doc["architectures"]["v8"]["entries"]["960x32"]["peak_mem_mib"] = 1.0
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(doc))
        problems = validate_calibration(load_calibration(str(path)))
        assert problems and any("memory" in p for p in problems)

    def test_validation_reports_missing_entries(self, tmp_path):
        doc = json.loads(CALIBRATION_JSON)
        for arch_doc in doc["architectures"].values():
            del arch_doc["entries"]["320x32"]
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(doc))
        assert validate_calibration(load_calibration(str(path))) == [
            f"{arch}: no entry for 320x32" for arch in doc["architectures"]
        ]


class TestCalibrationRanges:
    """Each calibrated figure lies in its physical range, wherever the
    calibration comes from."""

    @pytest.mark.parametrize("fields", [
        {"power_w_range": (-5.0, 10.0)}, {"power_w_range": (10.0, 5.0)},
        {"util_pct_range": (-1.0, 50.0)}, {"util_pct_range": (50.0, 101.0)},
        {"util_pct_range": (60.0, 50.0)}, {"util_pct_range": (math.nan, 50.0)},
    ], ids=["negative-power", "reversed-power", "negative-util", "util-past-100",
            "reversed-util", "nan-util"])
    def test_cost_entry_refuses(self, fields):
        good = {"resolution": 640, "batch": 32, "train_time_s": 1.0, "peak_mem_mib": 1.0,
                "power_w_range": (300.0, 350.0), "util_pct_range": (85.0, 95.0)}
        CostEntry(**good)
        with pytest.raises(ConfigError, match="range within"):
            CostEntry(**{**good, **fields})

    @pytest.mark.parametrize("fields, message", [
        ({"fedprox_time_factor": 0.0}, "fedprox_time_factor must be positive"),
        ({"fedprox_time_factor": -2.0}, "fedprox_time_factor must be positive"),
        ({"fedprox_time_factor": math.nan}, "fedprox_time_factor must be positive"),
        ({"idle_power_w": -1.0}, "idle_power_w must be nonnegative"),
        ({"idle_util_pct_range": (10.0, 0.0)}, "idle_util_pct_range"),
        ({"idle_util_pct_range": (-1.0, 10.0)}, "idle_util_pct_range"),
        ({"idle_util_pct_range": (0.0, 100.5)}, "idle_util_pct_range"),
    ], ids=["zero-factor", "negative-factor", "nan-factor", "negative-idle-power",
            "reversed-idle-util", "negative-idle-util", "idle-util-past-100"])
    def test_calibration_refuses(self, cal, fields, message):
        good = {"profiles": cal.profiles, "fedprox_time_factor": 1.15, "idle_power_w": 0.0,
                "idle_util_pct_range": (0.0, 100.0)}
        Calibration(**good)
        with pytest.raises(ConfigError, match=message):
            Calibration(**{**good, **fields})
