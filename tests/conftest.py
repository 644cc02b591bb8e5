"""Shared fixtures: small workloads/tasks that keep tests fast.

Markers (registered in ``pyproject.toml``):

* ``slow`` — the long-running conformance and experiment tests (full
  fleet conformance sweeps, the adaptive-arm study, integration-scale
  tunes).  The tier-1 suite runs everything; skip them locally with
  ``-m 'not slow'`` for a fast edit loop.  CI's test job fans the full
  suite over all cores with ``pytest-xdist`` (``-n auto``) — the slow
  tests dominate its wall-clock, which is exactly what xdist absorbs.
  ``pytest-xdist`` is a CI-only dependency: nothing in the suite
  imports it, so a plain ``python -m pytest -x -q`` works anywhere.
"""

import numpy as np
import pytest

from repro.hardware.measure import SimulatedTask
from repro.nn.workloads import (
    Conv2DWorkload,
    DenseWorkload,
    DepthwiseConv2DWorkload,
)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the golden-trace fixtures under tests/golden/ "
        "instead of comparing against them",
    )


@pytest.fixture
def update_golden(request) -> bool:
    """True when the run should rewrite golden fixtures."""
    return request.config.getoption("--update-golden")


@pytest.fixture
def small_conv_workload() -> Conv2DWorkload:
    """A small conv2d whose space has a few hundred thousand points."""
    return Conv2DWorkload(
        batch=1,
        in_channels=8,
        out_channels=16,
        height=14,
        width=14,
        kernel_h=3,
        kernel_w=3,
        pad_h=1,
        pad_w=1,
    )


@pytest.fixture
def dense_workload() -> DenseWorkload:
    """A dense workload with a small, cheap space."""
    return DenseWorkload(batch=1, in_features=64, out_features=48)


@pytest.fixture
def depthwise_workload() -> DepthwiseConv2DWorkload:
    return DepthwiseConv2DWorkload(
        batch=1,
        channels=16,
        height=14,
        width=14,
        kernel_h=3,
        kernel_w=3,
        pad_h=1,
        pad_w=1,
    )


@pytest.fixture
def small_task(small_conv_workload) -> SimulatedTask:
    return SimulatedTask(small_conv_workload, seed=7)


@pytest.fixture
def dense_task(dense_workload) -> SimulatedTask:
    return SimulatedTask(dense_workload, seed=7)


@pytest.fixture(params=["negative", "nan", "inf", "all-zero"])
def bad_weights(request):
    """``make(n)``: per-row weights every learner's fit must reject."""

    def make(n: int):
        weights = np.ones(n)
        if request.param == "negative":
            weights[1] = -0.5
        elif request.param == "nan":
            weights[1] = np.nan
        elif request.param == "inf":
            weights[1] = np.inf
        else:
            weights[:] = 0.0
        return weights

    return make
