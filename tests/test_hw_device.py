"""Tests for repro.hardware.device."""

import dataclasses

import pytest

from repro.hardware.cost_model import AnalyticalGpuModel
from repro.hardware.device import (
    DEVICE_PRESETS,
    GTX_1080_TI,
    JETSON_TX2,
    TESLA_V100,
    TITAN_V,
    XEON_GOLD_6130,
    GpuDevice,
    device_preset,
    normalize_device_name,
)
from repro.hardware.resources import ResourceError
from repro.nn.workloads import Conv2DWorkload

#: every strictly-positive numeric field of the device model
NUMERIC_FIELDS = (
    "num_sms",
    "peak_gflops",
    "mem_bandwidth_gbs",
    "max_threads_per_sm",
    "max_threads_per_block",
    "max_blocks_per_sm",
    "shared_mem_per_sm",
    "shared_mem_per_block",
    "registers_per_sm",
    "max_registers_per_thread",
    "warp_size",
    "launch_overhead_s",
)


class TestPresets:
    def test_gtx_1080_ti_spec(self):
        assert GTX_1080_TI.num_sms == 28
        assert GTX_1080_TI.peak_gflops == pytest.approx(11340.0)
        assert GTX_1080_TI.mem_bandwidth_gbs == pytest.approx(484.0)
        assert GTX_1080_TI.warp_size == 32

    def test_derived_quantities(self):
        assert GTX_1080_TI.max_warps_per_sm == 64
        assert GTX_1080_TI.peak_flops == pytest.approx(11.34e12)
        assert GTX_1080_TI.mem_bandwidth == pytest.approx(484e9)

    def test_device_ordering_makes_sense(self):
        assert JETSON_TX2.peak_gflops < GTX_1080_TI.peak_gflops
        assert GTX_1080_TI.peak_gflops < TESLA_V100.peak_gflops

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            GTX_1080_TI.num_sms = 1


class TestValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GpuDevice(name="bad", num_sms=0, peak_gflops=1.0,
                      mem_bandwidth_gbs=1.0)

    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_each_nonpositive_field(self, field, bad):
        kwargs = {f: getattr(GTX_1080_TI, f) for f in NUMERIC_FIELDS}
        kwargs[field] = bad
        with pytest.raises(ValueError, match=field):
            GpuDevice(name="bad", **kwargs)

    def test_rejects_bad_cache_factor(self):
        with pytest.raises(ValueError):
            GpuDevice(
                name="bad",
                num_sms=1,
                peak_gflops=1.0,
                mem_bandwidth_gbs=1.0,
                cache_factor=1.5,
            )

    def test_rejects_zero_cache_factor(self):
        with pytest.raises(ValueError):
            GpuDevice(name="bad", num_sms=1, peak_gflops=1.0,
                      mem_bandwidth_gbs=1.0, cache_factor=0.0)


class TestTitanV:
    def test_spec(self):
        assert TITAN_V.num_sms == 80
        assert TITAN_V.peak_gflops == pytest.approx(14900.0)
        assert TITAN_V.mem_bandwidth_gbs == pytest.approx(652.8)

    def test_sits_between_1080ti_and_nothing(self):
        assert TITAN_V.peak_gflops > GTX_1080_TI.peak_gflops
        assert TITAN_V.mem_bandwidth_gbs > GTX_1080_TI.mem_bandwidth_gbs

    def test_distinct_from_1080ti_beyond_throughput(self):
        # the zoo is only heterogeneous if presets differ in the knobs
        # that shape the optimum, not just in peak rates
        assert TITAN_V.cache_factor < GTX_1080_TI.cache_factor
        assert TITAN_V.launch_overhead_s < GTX_1080_TI.launch_overhead_s
        assert TITAN_V.shared_mem_per_block > GTX_1080_TI.shared_mem_per_block


class TestJetsonTx2:
    def test_embedded_penalties(self):
        assert JETSON_TX2.launch_overhead_s > GTX_1080_TI.launch_overhead_s
        assert JETSON_TX2.cache_factor > GTX_1080_TI.cache_factor
        assert JETSON_TX2.max_blocks_per_sm < GTX_1080_TI.max_blocks_per_sm


class TestXeonGold:
    def test_cpu_shape(self):
        assert XEON_GOLD_6130.warp_size == 8
        assert XEON_GOLD_6130.max_threads_per_block == 256
        assert XEON_GOLD_6130.max_threads_per_sm == 256
        assert XEON_GOLD_6130.num_sms == 16

    def test_cpu_handles(self):
        assert device_preset("cpu") is XEON_GOLD_6130
        assert device_preset("xeongold6130") is XEON_GOLD_6130
        assert device_preset("Xeon Gold 6130") is XEON_GOLD_6130


class TestNormalizeDeviceName:
    def test_public_helper(self):
        assert normalize_device_name("GeForce GTX 1080 Ti") == "geforcegtx1080ti"
        assert normalize_device_name("Titan V") == "titanv"
        assert normalize_device_name("Xeon Gold 6130") == "xeongold6130"


class TestPresetRegistry:
    def test_known_handles(self):
        assert device_preset("gtx1080ti") is GTX_1080_TI
        assert device_preset("titanv") is TITAN_V
        assert device_preset("v100") is TESLA_V100
        assert device_preset("tx2") is JETSON_TX2

    def test_normalization(self):
        assert device_preset("GTX-1080-Ti") is GTX_1080_TI
        assert device_preset("Titan V") is TITAN_V

    def test_full_name_lookup(self):
        assert device_preset("GeForce GTX 1080 Ti") is GTX_1080_TI
        assert device_preset("Tesla V100") is TESLA_V100

    def test_unknown_raises_with_known_list(self):
        with pytest.raises(ValueError, match="gtx1080ti"):
            device_preset("gtx9999")

    def test_registry_values_are_valid_devices(self):
        for handle, dev in DEVICE_PRESETS.items():
            assert isinstance(dev, GpuDevice), handle


class TestHeterogeneousCostModelPinning:
    """Pin the analytical model's throughput on each preset.

    A fleet mixes presets, so drift in any preset's simulated
    throughput silently changes heterogeneous experiments; these values
    were recorded from the released model (6 decimals) and must only
    change with a deliberate model revision.
    """

    WORKLOAD = Conv2DWorkload(1, 64, 64, 56, 56, 3, 3, pad_h=1, pad_w=1)
    #: a fat 896-thread block — great on the 1080 Ti, infeasible on the
    #: CPU profile (256-thread block ceiling)
    CONFIG = {
        "tile_f": (2, 2, 16, 1),
        "tile_y": (4, 1, 7, 2),
        "tile_x": (7, 1, 8, 1),
        "tile_rc": (8, 8),
        "tile_ry": (1, 3),
        "tile_rx": (1, 3),
        "auto_unroll_max_step": 512,
        "unroll_explicit": 1,
    }
    #: a slim 128-thread block — feasible everywhere, and the faster of
    #: the two on the high-occupancy Volta parts
    SMALL_CONFIG = {
        "tile_f": (8, 2, 4, 1),
        "tile_y": (14, 1, 4, 1),
        "tile_x": (7, 1, 8, 1),
        "tile_rc": (8, 8),
        "tile_ry": (1, 3),
        "tile_rx": (1, 3),
        "auto_unroll_max_step": 512,
        "unroll_explicit": 1,
    }
    #: jetsontx2/titanv values revised with the device-zoo rework
    #: (distinct launch overhead / cache factor / residency limits)
    PINNED_GFLOPS = {
        "gtx1080ti": 7676.98779,
        "teslav100": 5084.082529,
        "jetsontx2": 512.143826,
        "titanv": 5413.932454,
    }
    PINNED_SMALL_GFLOPS = {
        "gtx1080ti": 5784.893499,
        "teslav100": 8483.285811,
        "jetsontx2": 503.855873,
        "titanv": 8927.191632,
        "xeongold6130": 1460.697893,
    }

    @pytest.mark.parametrize("handle", sorted(PINNED_GFLOPS))
    def test_pinned_throughput(self, handle):
        model = AnalyticalGpuModel(device_preset(handle))
        profile = model.profile(self.WORKLOAD, self.CONFIG)
        assert profile.gflops == pytest.approx(
            self.PINNED_GFLOPS[handle], abs=1e-6
        )

    @pytest.mark.parametrize("handle", sorted(PINNED_SMALL_GFLOPS))
    def test_pinned_small_block_throughput(self, handle):
        model = AnalyticalGpuModel(device_preset(handle))
        profile = model.profile(self.WORKLOAD, self.SMALL_CONFIG)
        assert profile.gflops == pytest.approx(
            self.PINNED_SMALL_GFLOPS[handle], abs=1e-6
        )

    def test_cpu_rejects_fat_blocks(self):
        model = AnalyticalGpuModel(XEON_GOLD_6130)
        with pytest.raises(ResourceError, match="exceeds device limit"):
            model.profile(self.WORKLOAD, self.CONFIG)

    def test_optimal_config_depends_on_device(self):
        # the zoo is real: the same two candidates rank differently
        # across device classes, so per-device tuning finds different
        # winners (the premise of the crossdevice experiment)
        def ranks(handle):
            model = AnalyticalGpuModel(device_preset(handle))
            big = model.profile(self.WORKLOAD, self.CONFIG).gflops
            small = model.profile(self.WORKLOAD, self.SMALL_CONFIG).gflops
            return big > small

        assert ranks("gtx1080ti") is True
        assert ranks("titanv") is False
        assert ranks("teslav100") is False
