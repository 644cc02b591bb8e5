"""Simulated GPU hardware: the stand-in for the paper's GTX 1080 Ti.

The search algorithms need an expensive, noisy, partially-infeasible
black box; this package provides one with the *mechanics* of a real
CUDA GPU: resource limits and occupancy (:mod:`repro.hardware.resources`),
an analytical roofline-style kernel cost model
(:mod:`repro.hardware.cost_model`), task-specific rugged terrain and
heteroscedastic measurement noise (:mod:`repro.hardware.noise`), and an
AutoTVM-style measurement harness (:mod:`repro.hardware.measure`).
"""

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
from repro.hardware.cost_model import AnalyticalGpuModel, KernelProfile
from repro.hardware.measure import (
    Measurer,
    MeasureResult,
    MeasureErrorKind,
    SimulatedTask,
)
from repro.hardware.executor import (
    BuildStage,
    FaultInjectingExecutor,
    MeasureExecutor,
    SerialExecutor,
    build_executor,
)
from repro.hardware.faults import (
    FaultKind,
    FaultModel,
    FaultOutcome,
    RetryPolicy,
)

__all__ = [
    "GpuDevice",
    "GTX_1080_TI",
    "TESLA_V100",
    "JETSON_TX2",
    "TITAN_V",
    "XEON_GOLD_6130",
    "DEVICE_PRESETS",
    "device_preset",
    "normalize_device_name",
    "AnalyticalGpuModel",
    "KernelProfile",
    "Measurer",
    "MeasureResult",
    "MeasureErrorKind",
    "SimulatedTask",
    "MeasureExecutor",
    "SerialExecutor",
    "BuildStage",
    "FaultInjectingExecutor",
    "build_executor",
    "FaultKind",
    "FaultModel",
    "FaultOutcome",
    "RetryPolicy",
]
