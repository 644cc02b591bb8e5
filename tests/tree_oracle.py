"""Reference trees and loops, kept as oracles for :mod:`repro.learning.tree`.

:class:`RegressionTree` is exact greedy CART, the split search that
histogram trees approximate: on data that is already bin codes both
must reach the same training error.  :func:`predict` is the per-node
walk that the vectorized routing of
:meth:`repro.learning.tree.BinnedRegressionTree.predict` replaced: for
each distinct active node, route that node's rows one step, until
every row sits in a leaf.  It reads the flat node arrays both tree
classes share.

:func:`repro.learning.tree.grow_binned` grows one histogram tree per
ensemble member in one level-wise pass; :func:`fit_binned` is the
single-tree level loop it replaced.  :func:`bin_features` takes each
column's quantiles with its own call, where the library takes them
all in one.  Each pair must agree bit for bit, so the equivalence tests
and ``benchmarks/hotpaths.py`` compare against them.
"""

from typing import Optional

import numpy as np

from repro.learning.tree import BinnedRegressionTree


class RegressionTree:
    """A binary regression tree fit by exact greedy SSE minimization."""

    def __init__(self, max_depth=6, min_samples_leaf=2,
                 min_impurity_decrease=1e-12):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self._feature = None

    def fit(self, X, y, sample_weight=None):
        """Grow the tree depth first, one node at a time; returns ``self``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        w = (
            np.ones(len(y))
            if sample_weight is None
            else np.asarray(sample_weight, dtype=np.float64)
        )
        nodes = []  # [feature, threshold, left, right, value] per node

        def build(idx, depth):
            node = len(nodes)
            mean = np.dot(w[idx], y[idx]) / w[idx].sum()
            nodes.append([-1, 0.0, -1, -1, mean])
            if depth >= self.max_depth or len(idx) < 2 * self.min_samples_leaf:
                return node
            split = self._best_split(X, y, w, idx)
            if split is not None:
                mask = X[idx, split[0]] <= split[1]
                left = build(idx[mask], depth + 1)
                right = build(idx[~mask], depth + 1)
                nodes[node][:4] = [*split, left, right]
            return node

        build(np.arange(len(y)), 0)
        feature, threshold, left, right, value = zip(*nodes)
        self._feature = np.array(feature, dtype=np.int64)
        self._threshold = np.array(threshold, dtype=np.float64)
        self._left = np.array(left, dtype=np.int64)
        self._right = np.array(right, dtype=np.int64)
        self._value = np.array(value, dtype=np.float64)
        return self

    def _best_split(self, X, y, w, idx):
        """The (feature, threshold) of largest SSE gain, or ``None``."""
        total_wy = np.dot(w[idx], y[idx])
        total_w = w[idx].sum()
        best_gain = self.min_impurity_decrease
        best = None
        for feature in range(X.shape[1]):
            order = idx[np.argsort(X[idx, feature], kind="stable")]
            v = X[order, feature]
            cum_wy = np.cumsum(w[order] * y[order])
            cum_w = np.cumsum(w[order])
            # split after position p: the value changes and both
            # sides keep min_samples_leaf rows
            p = np.nonzero(v[1:] != v[:-1])[0]
            p = p[(p + 1 >= self.min_samples_leaf)
                  & (len(idx) - p - 1 >= self.min_samples_leaf)]
            if len(p) == 0:
                continue
            right_wy = total_wy - cum_wy[p]
            gains = (cum_wy[p] ** 2 / cum_w[p]
                     + right_wy ** 2 / (total_w - cum_w[p])
                     - total_wy ** 2 / total_w)
            arg = int(np.argmax(gains))
            if gains[arg] > best_gain:
                best_gain = gains[arg]
                best = (feature, 0.5 * (v[p[arg]] + v[p[arg] + 1]))
        return best

    def predict(self, X):
        """Predict with the per-node walk."""
        return predict(self, X)


def predict(tree, data: np.ndarray) -> np.ndarray:
    """Predict with ``tree`` by walking its nodes one node at a time."""
    if tree._feature is None:
        raise RuntimeError("tree is not fitted")
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError("data must be 2-D")
    out = np.empty(data.shape[0])
    active = np.zeros(data.shape[0], dtype=np.int64)  # current node per row
    done = np.zeros(data.shape[0], dtype=bool)
    while not done.all():
        for node in np.unique(active[~done]):
            rows = np.nonzero((active == node) & ~done)[0]
            feature = tree._feature[node]
            if feature < 0:
                out[rows] = tree._value[node]
                done[rows] = True
            else:
                go_left = data[rows, feature] <= tree._threshold[node]
                active[rows[go_left]] = tree._left[node]
                active[rows[~go_left]] = tree._right[node]
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
