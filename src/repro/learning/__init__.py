"""Machine-learning substrate for the active-learning loop.

Implements, from scratch on numpy, the three ML components AutoTVM
integrates (Sec. I of the paper): an XGBoost-style gradient-boosted-tree
evaluation function (:mod:`repro.learning.gbt`), model-guided parallel
simulated annealing (:mod:`repro.learning.sa`), and transfer learning
from tuning history (:mod:`repro.learning.transfer`).
"""

from repro.learning.tree import BinnedRegressionTree, bin_features, apply_bins
from repro.learning.gbt import GradientBoostedTrees
from repro.learning.mlp import MlpRegressor
from repro.learning.rank import RankGradientBoostedTrees
from repro.learning.metrics import rmse, rank_accuracy, top_k_recall
from repro.learning.sa import simulated_annealing_search
from repro.learning.transfer import TransferHistory

__all__ = [
    "BinnedRegressionTree",
    "bin_features",
    "apply_bins",
    "GradientBoostedTrees",
    "MlpRegressor",
    "RankGradientBoostedTrees",
    "rmse",
    "rank_accuracy",
    "top_k_recall",
    "simulated_annealing_search",
    "TransferHistory",
]
