"""The per-node tree walk, kept as the oracle for ``RegressionTree.predict``.

:meth:`repro.learning.tree.RegressionTree.predict` routes every row
level by level over flat node arrays.  This is the loop it replaced:
for each distinct active node, route that node's rows one step, until
every row sits in a leaf.  The two must agree element-wise, so the
equivalence tests and ``benchmarks/hotpaths.py`` compare against it.
"""

import numpy as np

from repro.learning.tree import RegressionTree


def predict(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """Predict with ``tree`` by walking its node list one node at a time."""
    if not tree._nodes:
        raise RuntimeError("tree is not fitted")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    out = np.empty(X.shape[0])
    active = np.zeros(X.shape[0], dtype=np.int64)  # current node per row
    done = np.zeros(X.shape[0], dtype=bool)
    while not done.all():
        for node_id in np.unique(active[~done]):
            node = tree._nodes[node_id]
            rows = np.nonzero((active == node_id) & ~done)[0]
            if node.is_leaf:
                out[rows] = node.value
                done[rows] = True
            else:
                go_left = X[rows, node.feature] <= node.threshold
                active[rows[go_left]] = node.left
                active[rows[~go_left]] = node.right
    return out
