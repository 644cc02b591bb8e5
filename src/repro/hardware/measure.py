"""Measurement harness: the tuner-facing interface to the (simulated) GPU.

:class:`SimulatedTask` binds one tunable workload to its configuration
space, a device, and a task-specific terrain — it *is* the black-box
optimization problem of Problem 1 in the paper.  :class:`Measurer`
deploys configurations on the simulated hardware, returning GFLOPS with
measurement noise, or an errored result for infeasible configurations
(exactly the contract AutoTVM's ``measure_batch`` provides).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.hardware.cost_model import AnalyticalGpuModel, KernelProfile
from repro.hardware.device import GTX_1080_TI, GpuDevice
from repro.hardware.noise import MeasurementNoise, TaskTerrain
from repro.hardware.resources import ResourceError
from repro.nn.workloads import Workload
from repro.space.space import ConfigSpace
from repro.space.templates import build_space
from repro.utils.rng import derive_seed


class MeasureErrorKind(enum.Enum):
    """Outcome categories of one on-chip measurement.

    The first three come from the simulated device itself; the last two
    are injected by :class:`repro.hardware.faults.FaultModel` when a
    transient fault exhausts its retry budget (AutoTVM's
    ``MeasureErrorNo`` categories for flaky real hardware).
    """

    NO_ERROR = 0
    RESOURCE_ERROR = 1
    TIMEOUT = 2
    BUILD_ERROR = 3
    DEVICE_LOST = 4


@dataclass(frozen=True)
class MeasureResult:
    """Result of deploying one configuration on hardware."""

    config_index: int
    gflops: float
    mean_time_s: float
    error_kind: MeasureErrorKind
    error_msg: str = ""
    profile: Optional[KernelProfile] = None

    @property
    def ok(self) -> bool:
        return self.error_kind is MeasureErrorKind.NO_ERROR


class SimulatedTask:
    """One node-wise tuning task: workload + config space + environment.

    The ground-truth value of a configuration is
    ``cost_model_gflops * terrain_factor``; repeated measurements jitter
    around it with the profile's noise sigma.  The terrain seed derives
    deterministically from ``(workload, seed)``, so a task is a pure
    function of its constructor arguments and :attr:`fingerprint`
    identifies the environment across processes (checkpoints check it
    on resume).
    """

    def __init__(
        self,
        workload: Workload,
        device: GpuDevice = GTX_1080_TI,
        seed: int = 0,
        space: Optional[ConfigSpace] = None,
        terrain_amplitude: float = 0.15,
        template: str = "direct",
    ):
        self.workload = workload
        self.device = device
        self.seed = int(seed)
        self.template = template
        self.space = (
            space if space is not None else build_space(workload, template)
        )
        self.model = AnalyticalGpuModel(device)
        terrain_seed = derive_seed(
            self.seed, "terrain", workload, device.name, template
        )
        self.terrain = TaskTerrain(
            self.space.feature_dim,
            seed=terrain_seed,
            amplitude=terrain_amplitude,
        )

    @property
    def name(self) -> str:
        return f"{self.workload.kind}@{self.space.name}"

    @property
    def fingerprint(self) -> str:
        """Stable identity of this environment across processes.

        Two tasks share a fingerprint exactly when they present the same
        optimization problem: same workload, device, template, space and
        environment seed.  Tuning checkpoints store it, and resuming
        rejects a checkpoint written for another task.
        """
        return (
            f"{self.workload!r}|{self.device.name}|{self.template}"
            f"|{self.space.name}|seed={self.seed}"
            f"|amp={self.terrain.amplitude}"
        )

    # ------------------------------------------------------------------
    # ground truth (used by the measurer, oracles, and tests)

    def profile_of(self, config_index: int) -> KernelProfile:
        """Noise-free cost-model profile (may raise ResourceError)."""
        entity = self.space.get(config_index)
        return self.model.profile(
            self.workload, entity.values, template=self.template
        )

    def true_gflops(self, config_index: int) -> float:
        """Noise-free ground-truth GFLOPS including terrain (0 if invalid)."""
        try:
            profile = self.profile_of(config_index)
        except ResourceError:
            return 0.0
        factor = self.terrain.factor(self.space.features_of(config_index))
        return profile.gflops * factor

    def true_time_s(self, config_index: int) -> float:
        """Noise-free ground-truth kernel time (inf if invalid)."""
        gflops = self.true_gflops(config_index)
        if gflops <= 0.0:
            return float("inf")
        return self.workload.flops / (gflops * 1e9)

    def noise_sigma(self, config_index: int) -> float:
        """Relative measurement-noise std-dev of a config (0 if invalid)."""
        try:
            return self.profile_of(config_index).noise_sigma_rel
        except ResourceError:
            return 0.0

    def __repr__(self) -> str:
        return (
            f"SimulatedTask({self.workload}, device={self.device.name!r}, "
            f"|space|={len(self.space)})"
        )


class Measurer:
    """Deploys configurations on the simulated device.

    Mirrors AutoTVM's measurement options: ``repeats`` timed runs are
    averaged per configuration, kernels slower than ``timeout_s`` abort
    as timeouts, and infeasible launches return
    :attr:`MeasureErrorKind.RESOURCE_ERROR` with 0 GFLOPS.

    The measurer counts every deployed configuration in
    :attr:`num_measurements` — the x-axis of the paper's Fig. 4 and
    Fig. 5(a).

    Measurement noise is a pure function of
    ``(measurer seed, measurement ordinal, config index)``: the ordinal
    is the position of the measurement in the run's global sequence.
    That purity is what makes resume and speculation exact: a resumed
    run continues the stream from its restored ordinal
    (:meth:`repro.hardware.executor.MeasureExecutor.sync_ordinal`), and
    the speculating tuner predicts a batch's results on a second
    measurer set to the same pre-batch ordinal.
    """

    def __init__(
        self,
        task: SimulatedTask,
        seed: int = 0,
        repeats: int = 3,
        timeout_s: float = 0.5,
    ):
        if repeats <= 0:
            raise ValueError("repeats must be positive")
        self.task = task
        self.repeats = repeats
        self.timeout_s = timeout_s
        self._noise_seed = derive_seed(seed, "measure", task.name)
        self._noise = MeasurementNoise(seed=self._noise_seed)
        self.num_measurements = 0

    def measure_one(self, config_index: int) -> MeasureResult:
        """Deploy one configuration and time it (advances the ordinal)."""
        ordinal = self.num_measurements
        self.num_measurements += 1
        return self.measure_at(ordinal, config_index)

    def build(self, config_index: int) -> Optional[MeasureResult]:
        """Check that a configuration launches, without deploying it.

        Returns ``None`` for a launchable configuration and otherwise
        the ``RESOURCE_ERROR`` result :meth:`measure_at` returns for it
        at any ordinal: like AutoTVM's builder, the host rejects a
        schedule that exceeds the device's thread, shared-memory or
        register limits before it costs board time.
        """
        built = self._build(config_index)
        return built if isinstance(built, MeasureResult) else None

    def _build(self, config_index: int) -> Union[KernelProfile, MeasureResult]:
        """The configuration's profile, or its ``RESOURCE_ERROR`` result."""
        try:
            return self.task.profile_of(config_index)
        except ResourceError as exc:
            return MeasureResult(
                config_index=config_index,
                gflops=0.0,
                mean_time_s=float("inf"),
                error_kind=MeasureErrorKind.RESOURCE_ERROR,
                error_msg=str(exc),
            )

    def measure_at(self, ordinal: int, config_index: int) -> MeasureResult:
        """Deploy one configuration at an explicit sequence position.

        Pure with respect to measurer state: the same ``(ordinal,
        config_index)`` always yields the same result, so any measurer
        of the same task and seed reproduces the measurement stream bit
        for bit from a given ordinal.
        """
        task = self.task
        profile = self._build(config_index)
        if isinstance(profile, MeasureResult):
            return profile

        factor = task.terrain.factor(task.space.features_of(config_index))
        true_time = profile.time_s / max(factor, 1e-9)
        if true_time > self.timeout_s:
            return MeasureResult(
                config_index=config_index,
                gflops=0.0,
                mean_time_s=float("inf"),
                error_kind=MeasureErrorKind.TIMEOUT,
                error_msg=f"kernel exceeded {self.timeout_s:.3f}s timeout",
                profile=profile,
            )

        rng = np.random.default_rng(
            derive_seed(self._noise_seed, "jitter", ordinal, config_index)
        )
        jitter = self._noise.sample_time_factors(
            profile.noise_sigma_rel, n=self.repeats, rng=rng
        )
        mean_time = float(true_time * jitter.mean())
        gflops = task.workload.flops / mean_time / 1e9
        return MeasureResult(
            config_index=config_index,
            gflops=gflops,
            mean_time_s=mean_time,
            error_kind=MeasureErrorKind.NO_ERROR,
            profile=profile,
        )

    def measure_batch(
        self, config_indices: Sequence[int]
    ) -> List[MeasureResult]:
        """Deploy a batch of configurations (in order)."""
        return [self.measure_one(int(idx)) for idx in config_indices]
