"""GPU device descriptions.

A :class:`GpuDevice` captures the architectural parameters the cost
model needs: compute throughput, memory bandwidth, and the per-SM
resource limits that determine occupancy.  The default device is the
Nvidia GeForce GTX 1080 Ti used in the paper's evaluation; further
presets demonstrate portability of the framework across targets.

:data:`DEVICE_PRESETS` names every preset with a short, normalized
handle (``gtx1080ti``, ``titanv``, ...) so CLI flags and fleet specs
can refer to devices without importing this module; resolve handles
with :func:`device_preset`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class GpuDevice:
    """Architectural description of a CUDA-like accelerator.

    CPU-class targets reuse the same schema: ``num_sms`` maps to
    physical cores, ``warp_size`` to the SIMD width, and the shared
    memory pools to the per-core cache hierarchy.
    """

    name: str
    #: number of streaming multiprocessors
    num_sms: int
    #: peak single-precision throughput in GFLOP/s
    peak_gflops: float
    #: effective DRAM bandwidth in GB/s
    mem_bandwidth_gbs: float
    #: maximum resident threads per SM
    max_threads_per_sm: int = 2048
    #: maximum threads per block
    max_threads_per_block: int = 1024
    #: maximum resident blocks per SM
    max_blocks_per_sm: int = 32
    #: shared memory per SM, bytes
    shared_mem_per_sm: int = 96 * 1024
    #: shared memory limit per block, bytes
    shared_mem_per_block: int = 48 * 1024
    #: 32-bit registers per SM
    registers_per_sm: int = 65536
    #: maximum registers per thread before spilling
    max_registers_per_thread: int = 255
    #: threads per warp
    warp_size: int = 32
    #: fixed kernel launch overhead, seconds
    launch_overhead_s: float = 4.0e-6
    #: L2-cache effectiveness factor applied to redundant global reads
    cache_factor: float = 0.55

    def __post_init__(self) -> None:
        numeric_fields = (
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
        for field_name in numeric_fields:
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if not 0.0 < self.cache_factor <= 1.0:
            raise ValueError("cache_factor must be in (0, 1]")

    @property
    def max_warps_per_sm(self) -> int:
        return self.max_threads_per_sm // self.warp_size

    @property
    def peak_flops(self) -> float:
        """Peak throughput in FLOP/s."""
        return self.peak_gflops * 1e9

    @property
    def mem_bandwidth(self) -> float:
        """Bandwidth in bytes/s."""
        return self.mem_bandwidth_gbs * 1e9


#: the paper's evaluation platform (Sec. V)
GTX_1080_TI = GpuDevice(
    name="GeForce GTX 1080 Ti",
    num_sms=28,
    peak_gflops=11340.0,
    mem_bandwidth_gbs=484.0,
)

#: a datacenter-class target, for portability experiments
TESLA_V100 = GpuDevice(
    name="Tesla V100",
    num_sms=80,
    peak_gflops=14130.0,
    mem_bandwidth_gbs=900.0,
)

#: an embedded-class target: two Pascal SMs behind a narrow LPDDR4
#: interface, a small L2 (hence the weak cache factor), and a slow
#: kernel-launch path — favours fat blocks that amortize the launch
JETSON_TX2 = GpuDevice(
    name="Jetson TX2",
    num_sms=2,
    peak_gflops=665.0,
    mem_bandwidth_gbs=59.7,
    max_threads_per_sm=2048,
    max_blocks_per_sm=16,
    shared_mem_per_sm=64 * 1024,
    launch_overhead_s=1.5e-5,
    cache_factor=0.7,
)

#: a Volta workstation target: 80 SMs, HBM2, a 4.5 MB L2 that absorbs
#: most redundant traffic, and Volta's configurable 96 KB smem carve-out
TITAN_V = GpuDevice(
    name="Titan V",
    num_sms=80,
    peak_gflops=14900.0,
    mem_bandwidth_gbs=652.8,
    shared_mem_per_block=96 * 1024,
    launch_overhead_s=3.2e-6,
    cache_factor=0.45,
)

#: a CPU-class target for heterogeneous-fleet experiments: 16 cores
#: ("SMs") of AVX-512 lanes ("warps" of 8), shallow thread residency,
#: big per-core caches, and a near-free dispatch path — optimal
#: schedules here use few, small blocks, unlike any GPU preset
XEON_GOLD_6130 = GpuDevice(
    name="Xeon Gold 6130",
    num_sms=16,
    peak_gflops=1740.8,
    mem_bandwidth_gbs=85.0,
    max_threads_per_sm=256,
    max_threads_per_block=256,
    max_blocks_per_sm=8,
    shared_mem_per_sm=1024 * 1024,
    shared_mem_per_block=512 * 1024,
    warp_size=8,
    launch_overhead_s=2.0e-7,
    cache_factor=0.25,
)


def normalize_device_name(name: str) -> str:
    """Lower-case alphanumeric handle of a device name.

    The handle is the canonical *device class*: fleet labels, tuning-log
    signatures, and checkpoint directory names all key on it.
    """
    return re.sub(r"[^a-z0-9]+", "", name.lower())


#: preset handle -> device; keys are normalized (:func:`device_preset`
#: also accepts raw marketing names like "GeForce GTX 1080 Ti")
DEVICE_PRESETS: Dict[str, GpuDevice] = {
    "gtx1080ti": GTX_1080_TI,
    "teslav100": TESLA_V100,
    "v100": TESLA_V100,
    "jetsontx2": JETSON_TX2,
    "tx2": JETSON_TX2,
    "titanv": TITAN_V,
    "xeongold6130": XEON_GOLD_6130,
    "cpu": XEON_GOLD_6130,
}


def device_preset(name: str) -> GpuDevice:
    """Resolve a device handle or full name against the preset table."""
    key = normalize_device_name(name)
    if key in DEVICE_PRESETS:
        return DEVICE_PRESETS[key]
    for device in DEVICE_PRESETS.values():
        if normalize_device_name(device.name) == key:
            return device
    raise ValueError(
        f"unknown device {name!r}; known presets: "
        f"{sorted(set(DEVICE_PRESETS))}"
    )
