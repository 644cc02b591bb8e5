"""repro — reproduction of "Deep Neural Network Hardware Deployment
Optimization via Advanced Active Learning" (Sun, Bai, Geng & Yu,
DATE 2021).

The package implements the paper's advanced active-learning framework
(BTED initialization + Bootstrap-guided adaptive optimization) together
with every substrate it depends on: an AutoTVM-style schedule
configuration space, an XGBoost-style cost model with simulated
annealing, a simulated CUDA GPU measurement environment, the five-model
DNN zoo of the evaluation, and the end-to-end deployment pipeline.

Quickstart::

    from repro import SimulatedTask, make_tuner
    from repro.nn.workloads import Conv2DWorkload

    workload = Conv2DWorkload(1, 64, 64, 56, 56, 3, 3, pad_h=1, pad_w=1)
    task = SimulatedTask(workload, seed=0)
    tuner = make_tuner("bted+bao", task, seed=0)
    result = tuner.tune(n_trial=256, early_stopping=100)
    print(result.best_gflops)
"""

from repro.core import (
    AutoTVMTuner,
    BTEDBAOTuner,
    BTEDTuner,
    BaoSettings,
    DropletTuner,
    EventLog,
    GridTuner,
    RandomTuner,
    TUNER_REGISTRY,
    Tuner,
    TuningEvent,
    TuningResult,
    bted_select,
    make_tuner,
    ted_select,
)
from repro.hardware import (
    GTX_1080_TI,
    GpuDevice,
    Measurer,
    SerialExecutor,
    SimulatedTask,
)
from repro.nn.zoo import PAPER_MODELS, build_model
from repro.pipeline import DeploymentCompiler, RecordStore
from repro.space import ConfigSpace, build_space

__version__ = "1.0.0"

__all__ = [
    "AutoTVMTuner",
    "BTEDBAOTuner",
    "BTEDTuner",
    "BaoSettings",
    "DropletTuner",
    "GridTuner",
    "RandomTuner",
    "TUNER_REGISTRY",
    "Tuner",
    "TuningResult",
    "bted_select",
    "make_tuner",
    "ted_select",
    "EventLog",
    "TuningEvent",
    "GTX_1080_TI",
    "GpuDevice",
    "Measurer",
    "SerialExecutor",
    "SimulatedTask",
    "PAPER_MODELS",
    "build_model",
    "DeploymentCompiler",
    "RecordStore",
    "ConfigSpace",
    "build_space",
    "__version__",
]
