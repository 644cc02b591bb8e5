"""Analytical GPU kernel cost model.

Maps (workload, schedule configuration) to predicted kernel throughput
using the mechanics that govern real CUDA performance:

* resource validation and occupancy (via :mod:`repro.hardware.resources`),
* a roofline of compute time vs. global-memory time, where the tiling
  knobs set the data-reuse factors (bigger output tiles reuse weights
  and input patches more, but launch fewer / heavier blocks),
* second-order effects: warp-granularity slack, latency hiding as a
  function of occupancy and per-thread ILP, register spilling, memory
  coalescing of the innermost axis, unrolling gains, and tail waves.

The model is deterministic and noise-free; measurement noise and the
task-specific rugged terrain are layered on top by
:mod:`repro.hardware.measure`.  Absolute numbers are *plausible* rather
than silicon-accurate — the reproduction targets relative behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.hardware.device import GTX_1080_TI, GpuDevice
from repro.hardware.resources import BlockRequirements, compute_occupancy
from repro.nn.workloads import (
    Conv2DWorkload,
    DenseWorkload,
    DepthwiseConv2DWorkload,
    Workload,
)
from repro.utils.mathx import ceil_div


@dataclass(frozen=True)
class KernelProfile:
    """Full diagnostic output of the cost model for one configuration."""

    gflops: float
    time_s: float
    compute_time_s: float
    mem_time_s: float
    threads_per_block: int
    num_blocks: int
    registers_per_thread: int
    shared_mem_bytes: int
    blocks_per_sm: int
    warp_occupancy: float
    occupancy_limiter: str
    sm_utilization: float
    coalescing: float
    efficiency: float
    #: relative (multiplicative) std-dev of repeated on-chip timings
    noise_sigma_rel: float

    @property
    def is_memory_bound(self) -> bool:
        return self.mem_time_s > self.compute_time_s


def _get_split(values: Mapping[str, object], name: str) -> Tuple[int, ...]:
    try:
        split = values[name]
    except KeyError as exc:
        raise KeyError(f"configuration is missing split knob {name!r}") from exc
    return tuple(int(v) for v in split)  # type: ignore[arg-type]


class AnalyticalGpuModel:
    """Deterministic analytical performance model for a CUDA-like GPU."""

    #: achievable fraction of peak FLOPs for a perfectly tuned kernel
    BASE_COMPUTE_EFFICIENCY = 0.86

    def __init__(self, device: GpuDevice = GTX_1080_TI):
        self.device = device

    # ------------------------------------------------------------------
    # public API

    def profile(
        self,
        workload: Workload,
        values: Mapping[str, object],
        template: str = "direct",
    ) -> KernelProfile:
        """Profile one configuration.

        ``template`` must match the template whose space produced
        ``values`` ('direct' or 'winograd').  Raises
        :class:`~repro.hardware.resources.ResourceError` when the
        configuration cannot launch (too many threads, shared-memory or
        register-file overflow) — the simulated equivalent of a CUDA
        launch failure that AutoTVM logs as an errored measurement.
        """
        if template == "winograd":
            if not isinstance(workload, Conv2DWorkload):
                raise TypeError("winograd template applies to conv2d only")
            return self._profile_conv2d_winograd(workload, values)
        if template != "direct":
            raise ValueError(f"unknown template {template!r}")
        if isinstance(workload, Conv2DWorkload):
            return self._profile_conv2d(workload, values)
        if isinstance(workload, DepthwiseConv2DWorkload):
            return self._profile_depthwise(workload, values)
        if isinstance(workload, DenseWorkload):
            return self._profile_dense(workload, values)
        raise TypeError(f"no cost model for workload {workload!r}")

    # ------------------------------------------------------------------
    # shared machinery

    def _unroll_params(
        self, values: Mapping[str, object], inner_steps: int
    ) -> Tuple[float, int]:
        """Return (unroll gain, extra registers) for the pragma knobs."""
        max_step = int(values.get("auto_unroll_max_step", 0))  # type: ignore[arg-type]
        explicit = int(values.get("unroll_explicit", 0))  # type: ignore[arg-type]
        if max_step <= 0:
            return 1.0, 0
        covered = min(inner_steps, max_step)
        gain = 1.0 + 0.10 * (covered / (covered + 24.0))
        if explicit:
            gain *= 1.03
        extra_regs = int(2 + 3 * math.log2(1 + covered))
        return gain, extra_regs

    def _latency_hiding(self, warp_occupancy: float, ilp: float) -> float:
        """Fraction of issue slots kept busy by warps + instruction ILP."""
        capacity = warp_occupancy * (1.0 + 0.18 * min(ilp, 16.0))
        return 1.0 - math.exp(-2.6 * capacity)

    def _warp_efficiency(self, threads: int) -> float:
        """Slack from a block size that is not a multiple of the warp."""
        warp = self.device.warp_size
        return threads / (ceil_div(threads, warp) * warp)

    def _finish(
        self,
        workload: Workload,
        *,
        threads: int,
        num_blocks: int,
        regs: int,
        smem: int,
        traffic_bytes: float,
        coalescing: float,
        ilp: float,
        unroll_gain: float,
        exec_flops: Optional[float] = None,
    ) -> KernelProfile:
        """Common occupancy/roofline tail shared by all kernels.

        ``exec_flops`` overrides the operation count actually executed
        (Winograd executes fewer multiplies than the nominal workload);
        the reported GFLOPS stays normalized to the *nominal* workload
        FLOPs, as AutoTVM reports it — so an efficient Winograd kernel
        can legitimately exceed the direct-convolution rate.
        """
        device = self.device
        spill_penalty = 1.0
        if regs > device.max_registers_per_thread:
            # local-memory spilling: legal but slow
            overflow = regs - device.max_registers_per_thread
            spill_penalty = 1.0 / (1.0 + 0.02 * overflow)
            regs = device.max_registers_per_thread

        req = BlockRequirements(
            threads=threads, shared_mem_bytes=smem, registers_per_thread=regs
        )
        from repro.hardware.resources import validate_block

        validate_block(device, req)
        occ = compute_occupancy(device, req)

        waves = ceil_div(num_blocks, occ.blocks_per_sm * device.num_sms)
        sm_util = num_blocks / float(
            waves * occ.blocks_per_sm * device.num_sms
        )
        # very small grids cannot even cover the SMs once
        grid_coverage = min(1.0, num_blocks / float(device.num_sms))

        warp_eff = self._warp_efficiency(threads)
        hiding = self._latency_hiding(occ.warp_occupancy, ilp)
        efficiency = (
            self.BASE_COMPUTE_EFFICIENCY
            * warp_eff
            * hiding
            * spill_penalty
            * unroll_gain
            * sm_util
            * grid_coverage
        )
        efficiency = max(efficiency, 1e-4)

        flops_executed = exec_flops if exec_flops is not None else workload.flops
        compute_time = flops_executed / (device.peak_flops * efficiency)
        mem_time = traffic_bytes / (device.mem_bandwidth * coalescing)
        # imperfect overlap between the two pipelines
        time = (
            max(compute_time, mem_time)
            + 0.12 * min(compute_time, mem_time)
            + device.launch_overhead_s
        )
        gflops = workload.flops / time / 1e9

        mem_bound_ratio = mem_time / (compute_time + mem_time)
        noise_sigma = (
            0.006
            + 0.055 * (1.0 - occ.warp_occupancy) ** 2
            + 0.030 * (1.0 - sm_util)
            + 0.018 * mem_bound_ratio
            + 0.020 * (1.0 - warp_eff)
        )

        return KernelProfile(
            gflops=gflops,
            time_s=time,
            compute_time_s=compute_time,
            mem_time_s=mem_time,
            threads_per_block=threads,
            num_blocks=num_blocks,
            registers_per_thread=regs,
            shared_mem_bytes=smem,
            blocks_per_sm=occ.blocks_per_sm,
            warp_occupancy=occ.warp_occupancy,
            occupancy_limiter=occ.limiter,
            sm_utilization=sm_util,
            coalescing=coalescing,
            efficiency=efficiency,
            noise_sigma_rel=noise_sigma,
        )

    # ------------------------------------------------------------------
    # conv2d

    def _profile_conv2d(
        self, wl: Conv2DWorkload, values: Mapping[str, object]
    ) -> KernelProfile:
        bf, vf, tf, fi = _get_split(values, "tile_f")
        by, vy, ty, yi = _get_split(values, "tile_y")
        bx, vx, tx, xi = _get_split(values, "tile_x")
        rco, rci = _get_split(values, "tile_rc")
        ryo, ryi = _get_split(values, "tile_ry")
        rxo, rxi = _get_split(values, "tile_rx")

        threads = tf * ty * tx
        num_blocks = bf * by * bx * wl.batch

        f_tile = vf * tf * fi
        y_tile = vy * ty * yi
        x_tile = vx * tx * xi
        outputs_per_thread = vf * fi * vy * yi * vx * xi

        # shared-memory staging: one rc-chunk of the input patch + the
        # weight slice for this block's channels
        patch_h = (y_tile - 1) * wl.stride_h + wl.kernel_h
        patch_w = (x_tile - 1) * wl.stride_w + wl.kernel_w
        smem_input = rci * patch_h * patch_w * 4
        smem_weight = f_tile * rci * ryi * rxi * 4
        smem = smem_input + smem_weight

        inner_steps = rci * ryi * rxi
        unroll_gain, unroll_regs = self._unroll_params(values, inner_steps)
        regs = 22 + outputs_per_thread + max(fi, xi) + unroll_regs

        # global traffic with inter-block redundancy: every channel-block
        # re-reads the same input patch; every spatial block re-reads the
        # same weights.  The L2 absorbs part of the redundancy.
        channels = wl.in_channels // wl.groups
        patch_bytes = channels * patch_h * patch_w * 4.0
        input_first = wl.batch * wl.in_channels * wl.height * wl.width * 4.0
        # every block stages its own input patch: spatial blocks cover the
        # image, channel blocks (bf) re-read the same patches
        input_total = num_blocks * patch_bytes
        weight_bytes = wl.weight_count * 4.0
        weight_total = weight_bytes * (by * bx * wl.batch)
        redundant = max(input_total - input_first, 0.0) + max(
            weight_total - weight_bytes, 0.0
        )
        traffic = (
            input_first
            + weight_bytes
            + self.device.cache_factor * redundant
            + wl.output_bytes
        )

        # coalescing: adjacent tx threads read adjacent x only when the
        # per-thread inner x extent is 1
        stride_x = xi * vx
        coalescing = 1.0 / (1.0 + 0.38 * math.log2(stride_x))
        ilp = float(outputs_per_thread)

        return self._finish(
            wl,
            threads=threads,
            num_blocks=num_blocks,
            regs=regs,
            smem=smem,
            traffic_bytes=traffic,
            coalescing=coalescing,
            ilp=ilp,
            unroll_gain=unroll_gain,
        )

    # ------------------------------------------------------------------
    # conv2d, Winograd F(2x2, 3x3) template

    def _profile_conv2d_winograd(
        self, wl: Conv2DWorkload, values: Mapping[str, object]
    ) -> KernelProfile:
        from repro.utils.mathx import ceil_div

        alpha2 = 16  # (m + r - 1)^2 with m = 2, r = 3
        p_tiles = (
            wl.batch
            * ceil_div(wl.out_height, 2)
            * ceil_div(wl.out_width, 2)
        )

        bk, vk, tk, ki = _get_split(values, "tile_k")
        bp, vp, tp, pi = _get_split(values, "tile_p")
        rco, rci = _get_split(values, "tile_rc")

        threads = tk * tp
        # one grid dimension batches the alpha^2 independent GEMMs
        num_blocks = bk * bp * alpha2

        k_tile = vk * tk * ki
        p_tile = vp * tp * pi
        outputs_per_thread = vk * ki * vp * pi

        smem = (k_tile + p_tile) * rci * 4

        unroll_gain, unroll_regs = self._unroll_params(values, rci)
        regs = 20 + outputs_per_thread + unroll_regs

        # executed operations: batched GEMMs + input/output transforms
        # (weights are pre-transformed offline)
        gemm_flops = 2.0 * alpha2 * wl.out_channels * wl.in_channels * p_tiles
        transform_flops = p_tiles * (
            64.0 * wl.in_channels + 48.0 * wl.out_channels
        )
        exec_flops = gemm_flops + transform_flops

        # traffic: the transformed activations V (alpha^2 * C * P) are
        # materialized then re-read by every k-block; the transformed
        # weights U (alpha^2 * K * C) are re-read by every p-block
        v_bytes = alpha2 * wl.in_channels * p_tiles * 4.0
        u_bytes = alpha2 * wl.out_channels * wl.in_channels * 4.0
        m_bytes = alpha2 * wl.out_channels * p_tiles * 4.0
        input_bytes = wl.batch * wl.in_channels * wl.height * wl.width * 4.0
        first_pass = input_bytes + v_bytes * 2 + u_bytes + m_bytes * 2
        redundant = v_bytes * max(bk - 1, 0) + u_bytes * max(bp - 1, 0)
        traffic = (
            first_pass
            + self.device.cache_factor * redundant
            + wl.output_bytes
        )

        stride_p = pi * vp
        coalescing = 1.0 / (1.0 + 0.38 * math.log2(stride_p))
        ilp = float(outputs_per_thread)

        return self._finish(
            wl,
            threads=threads,
            num_blocks=num_blocks,
            regs=regs,
            smem=smem,
            traffic_bytes=traffic,
            coalescing=coalescing,
            ilp=ilp,
            unroll_gain=unroll_gain,
            exec_flops=exec_flops,
        )

    # ------------------------------------------------------------------
    # depthwise conv2d

    def _profile_depthwise(
        self, wl: DepthwiseConv2DWorkload, values: Mapping[str, object]
    ) -> KernelProfile:
        bf, vf, tf, fi = _get_split(values, "tile_f")
        by, vy, ty, yi = _get_split(values, "tile_y")
        bx, vx, tx, xi = _get_split(values, "tile_x")

        threads = tf * ty * tx
        num_blocks = bf * by * bx * wl.batch

        f_tile = vf * tf * fi
        y_tile = vy * ty * yi
        x_tile = vx * tx * xi
        outputs_per_thread = vf * fi * vy * yi * vx * xi

        patch_h = (y_tile - 1) * wl.stride_h + wl.kernel_h
        patch_w = (x_tile - 1) * wl.stride_w + wl.kernel_w
        smem_input = f_tile * patch_h * patch_w * 4
        smem_weight = f_tile * wl.kernel_h * wl.kernel_w * 4
        smem = smem_input + smem_weight

        inner_steps = wl.kernel_h * wl.kernel_w
        unroll_gain, unroll_regs = self._unroll_params(values, inner_steps)
        regs = 18 + outputs_per_thread + unroll_regs

        # channels are partitioned across blocks, so input redundancy
        # comes only from spatial halos; weights are re-read per spatial
        # block but are tiny
        halo = (patch_h * patch_w) / float(max(y_tile * x_tile, 1))
        input_bytes = wl.batch * wl.channels * wl.height * wl.width * 4.0
        input_total = input_bytes * halo
        weight_bytes = wl.weight_count * 4.0
        weight_total = weight_bytes * (by * bx * wl.batch)
        redundant = max(input_total - input_bytes, 0.0) + max(
            weight_total - weight_bytes, 0.0
        )
        traffic = (
            input_bytes
            + weight_bytes
            + self.device.cache_factor * redundant
            + wl.output_bytes
        )

        stride_x = xi * vx
        coalescing = 1.0 / (1.0 + 0.38 * math.log2(stride_x))
        ilp = float(outputs_per_thread)

        return self._finish(
            wl,
            threads=threads,
            num_blocks=num_blocks,
            regs=regs,
            smem=smem,
            traffic_bytes=traffic,
            coalescing=coalescing,
            ilp=ilp,
            unroll_gain=unroll_gain,
        )

    # ------------------------------------------------------------------
    # dense

    def _profile_dense(
        self, wl: DenseWorkload, values: Mapping[str, object]
    ) -> KernelProfile:
        bx, vx, tx, xi = _get_split(values, "tile_x")
        ko, ki = _get_split(values, "tile_k")

        threads = tx
        num_blocks = bx * wl.batch

        outputs_per_thread = vx * xi
        smem_input = ki * 4
        smem_weight = vx * tx * xi * ki * 4
        smem = smem_input + smem_weight

        unroll_gain, unroll_regs = self._unroll_params(values, ki)
        regs = 16 + outputs_per_thread + unroll_regs

        # each weight is read exactly once (no reuse in GEMV); the input
        # vector is re-read by every block
        weight_bytes = wl.weight_count * 4.0
        input_bytes = wl.batch * wl.in_features * 4.0
        redundant = input_bytes * max(bx - 1, 0)
        traffic = (
            weight_bytes
            + input_bytes
            + self.device.cache_factor * redundant
            + wl.output_bytes
        )

        coalescing = 1.0 / (1.0 + 0.38 * math.log2(xi * vx))
        ilp = float(outputs_per_thread)

        return self._finish(
            wl,
            threads=threads,
            num_blocks=num_blocks,
            regs=regs,
            smem=smem,
            traffic_bytes=traffic,
            coalescing=coalescing,
            ilp=ilp,
            unroll_gain=unroll_gain,
        )
