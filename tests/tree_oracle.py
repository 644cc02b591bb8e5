"""Per-tree reference loops, kept as oracles for :mod:`repro.learning.tree`.

:meth:`repro.learning.tree.RegressionTree.predict` routes every row
level by level over flat node arrays; :func:`predict` is the per-node
walk it replaced: for each distinct active node, route that node's rows
one step, until every row sits in a leaf.

:func:`repro.learning.tree.grow_binned` grows one histogram tree per
ensemble member in one level-wise pass; :func:`fit_binned` is the
single-tree level loop it replaced.  :func:`bin_features` takes each
column's quantiles with its own call, where the library takes them
all in one.  Each pair must agree bit for bit, so the equivalence tests
and ``benchmarks/hotpaths.py`` compare against them.
"""

from typing import Optional

import numpy as np

from repro.learning.tree import BinnedRegressionTree, RegressionTree


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


def fit_binned(
    tree: BinnedRegressionTree,
    codes: np.ndarray,
    y: np.ndarray,
    sample_weight: Optional[np.ndarray] = None,
) -> BinnedRegressionTree:
    """Fit ``tree`` with the single-tree level loop; returns ``tree``.

    One flattened ``bincount`` per level accumulates the (node, feature,
    bin) histograms of this tree's frontier; a Python loop registers the
    children of every split node.
    """
    codes = np.asarray(codes)
    y = np.asarray(y, dtype=np.float64)
    n, d = codes.shape
    w = (
        np.ones(n)
        if sample_weight is None
        else np.asarray(sample_weight, dtype=np.float64)
    )

    nb = tree.n_bins
    codes = codes.astype(np.int64, copy=False)
    feat_offsets = np.arange(d, dtype=np.int64) * nb
    flat = codes + feat_offsets[None, :]
    wy = w * y

    # growable node arrays
    feature = [-1]
    threshold = [0.0]
    left = [-1]
    right = [-1]
    value = [0.0]

    node_of_row = np.zeros(n, dtype=np.int64)
    frontier = [0]

    for depth in range(tree.max_depth + 1):
        if not frontier:
            break
        n_slots = len(frontier)
        slot_map = np.full(len(feature), -1, dtype=np.int64)
        slot_map[np.asarray(frontier)] = np.arange(n_slots)
        slot_of_row = slot_map[node_of_row]
        rows = np.nonzero(slot_of_row >= 0)[0]
        if len(rows) == 0:
            break
        slot_r = slot_of_row[rows]

        combined = slot_r[:, None] * (d * nb) + flat[rows]
        size = n_slots * d * nb
        rep_wy = np.repeat(wy[rows], d)
        rep_w = np.repeat(w[rows], d)
        cflat = combined.ravel()
        hist_wy = np.bincount(cflat, weights=rep_wy, minlength=size)
        hist_w = np.bincount(cflat, weights=rep_w, minlength=size)
        hist_n = np.bincount(cflat, minlength=size)
        hist_wy = hist_wy.reshape(n_slots, d, nb)
        hist_w = hist_w.reshape(n_slots, d, nb)
        hist_n = hist_n.reshape(n_slots, d, nb)

        total_wy = hist_wy[:, 0, :].sum(axis=1)
        total_w = hist_w[:, 0, :].sum(axis=1)
        total_n = hist_n[:, 0, :].sum(axis=1)

        # node values (weighted means) for every frontier node
        for s, node_id in enumerate(frontier):
            value[node_id] = float(total_wy[s] / total_w[s])

        if depth >= tree.max_depth:
            break

        cum_wy = hist_wy.cumsum(axis=2)[:, :, :-1]
        cum_w = hist_w.cumsum(axis=2)[:, :, :-1]
        cum_n = hist_n.cumsum(axis=2)[:, :, :-1]
        right_wy = total_wy[:, None, None] - cum_wy
        right_w = total_w[:, None, None] - cum_w
        right_n = total_n[:, None, None] - cum_n

        valid = (
            (cum_n >= tree.min_samples_leaf)
            & (right_n >= tree.min_samples_leaf)
            & (cum_w > 0)
            & (right_w > 0)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = (
                cum_wy * cum_wy / cum_w
                + right_wy * right_wy / right_w
                - (total_wy * total_wy / total_w)[:, None, None]
            )
        gains = np.where(valid, gains, -np.inf)
        flat_gains = gains.reshape(n_slots, d * (nb - 1))
        best_pos = np.argmax(flat_gains, axis=1)
        best_gain = flat_gains[np.arange(n_slots), best_pos]

        split_mask = np.isfinite(best_gain) & (
            best_gain > tree.min_impurity_decrease
        )
        if not split_mask.any():
            break

        # register children for split slots
        slot_feature = np.full(n_slots, -1, dtype=np.int64)
        slot_threshold = np.zeros(n_slots)
        slot_left = np.full(n_slots, -1, dtype=np.int64)
        slot_right = np.full(n_slots, -1, dtype=np.int64)
        new_frontier = []
        for s, node_id in enumerate(frontier):
            if not split_mask[s]:
                continue
            f, t = divmod(int(best_pos[s]), nb - 1)
            left_id = len(feature)
            right_id = left_id + 1
            feature.extend([-1, -1])
            threshold.extend([0.0, 0.0])
            left.extend([-1, -1])
            right.extend([-1, -1])
            value.extend([value[node_id], value[node_id]])
            feature[node_id] = f
            threshold[node_id] = float(t)
            left[node_id] = left_id
            right[node_id] = right_id
            slot_feature[s] = f
            slot_threshold[s] = t
            slot_left[s] = left_id
            slot_right[s] = right_id
            new_frontier.extend([left_id, right_id])

        # route rows of split slots to their children
        routed = split_mask[slot_r]
        r_rows = rows[routed]
        r_slots = slot_r[routed]
        go_left = (
            codes[r_rows, slot_feature[r_slots]]
            <= slot_threshold[r_slots]
        )
        node_of_row[r_rows] = np.where(
            go_left, slot_left[r_slots], slot_right[r_slots]
        )
        frontier = new_frontier

    tree._feature = np.asarray(feature, dtype=np.int64)
    tree._threshold = np.asarray(threshold)
    tree._left = np.asarray(left, dtype=np.int64)
    tree._right = np.asarray(right, dtype=np.int64)
    tree._value = np.asarray(value)
    return tree


def bin_features(X: np.ndarray, n_bins: int = 32):
    """Quantile-bin ``X`` one column at a time (one ``quantile`` each)."""
    X = np.asarray(X, dtype=np.float64)
    edges = []
    codes = np.empty(X.shape, dtype=np.int64)
    quantiles = np.linspace(0, 1, n_bins + 1)[1:-1]
    for f in range(X.shape[1]):
        col = X[:, f]
        edge = np.unique(np.quantile(col, quantiles))
        edges.append(edge)
        codes[:, f] = np.searchsorted(edge, col, side="left")
    return codes, edges
