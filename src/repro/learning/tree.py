"""Histogram regression trees (the weak learner under the boosted ensemble).

:class:`BinnedRegressionTree` splits on histograms of pre-binned
feature codes.  :func:`grow_binned` is its one grower: it grows one
such tree per ensemble member in a single level-wise pass.  Exact
greedy CART is the reference these trees are tested against
(``tests/tree_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


def check_sample_weight(
    sample_weight: Optional[np.ndarray], n: int
) -> np.ndarray:
    """Validated per-row weights as float64 (all ones when ``None``).

    Weights must match the ``n`` rows, be finite and non-negative, and
    have a positive sum; anything else would fit NaN or garbage, so it
    raises :class:`ValueError` instead.
    """
    if sample_weight is None:
        return np.ones(n)
    w = np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError("sample_weight must match y")
    if not np.isfinite(w).all():
        raise ValueError("sample weights must be finite")
    if (w < 0).any():
        raise ValueError("sample weights must be non-negative")
    if not w.sum() > 0:
        raise ValueError("sample weights must have a positive sum")
    return w


class BinnedRegressionTree:
    """Histogram-based regression tree on pre-binned integer features.

    Works on feature *codes* in ``[0, n_bins)`` (see
    :func:`bin_features`) and grows **level-wise** through
    :func:`grow_binned`: one flattened ``bincount`` per level
    accumulates the (node, feature, bin) weight/target histograms for
    every frontier node at once, and prefix sums yield all candidate
    splits' SSE gains simultaneously.  This is the LightGBM-style
    strategy that makes boosted ensembles fast enough for a
    per-iteration refit inside BAO.
    """

    def __init__(
        self,
        n_bins: int,
        max_depth: int = 5,
        min_samples_leaf: int = 2,
        min_impurity_decrease: float = 1e-12,
    ):
        if n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.n_bins = n_bins
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        # flat node arrays (filled by fit)
        self._feature: Optional[np.ndarray] = None
        self._threshold: Optional[np.ndarray] = None
        self._left: Optional[np.ndarray] = None
        self._right: Optional[np.ndarray] = None
        self._value: Optional[np.ndarray] = None

    def fit(
        self,
        codes: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "BinnedRegressionTree":
        """Fit on integer feature codes; returns ``self``."""
        codes = np.asarray(codes)
        y = np.asarray(y, dtype=np.float64)
        if codes.ndim != 2 or y.shape != (codes.shape[0],):
            raise ValueError("codes must be (n, d) and y (n,)")
        n = codes.shape[0]
        if n == 0:
            raise ValueError("cannot fit on an empty dataset")
        if codes.min(initial=0) < 0 or codes.max(initial=0) >= self.n_bins:
            raise ValueError(f"codes must lie in [0, {self.n_bins})")
        w = check_sample_weight(sample_weight, n)
        codes = codes.astype(np.int64, copy=False)
        grow_binned([self], codes, y, w, np.array([0, n]))
        return self

    def predict(self, codes: np.ndarray) -> np.ndarray:
        """Predict for integer feature codes (same binning as fit).

        Routes every row level by level (:func:`_route`), bit-identical
        to the per-node walk in ``tests/tree_oracle.py``.
        """
        if self._feature is None:
            raise RuntimeError("tree is not fitted")
        codes = np.asarray(codes)
        if codes.ndim != 2:
            raise ValueError("codes must be 2-D")
        return _route(self, codes)

    @property
    def node_count(self) -> int:
        if self._feature is None:
            raise RuntimeError("tree is not fitted")
        return len(self._feature)


def _route(tree, data: np.ndarray) -> np.ndarray:
    """Leaf value of every row of ``data`` under a fitted tree.

    Depth-bounded vectorized traversal over the tree's flat node
    arrays: each pass advances every not-yet-settled row one level, so
    the cost is O(depth * n) array ops with no per-node Python loop.
    """
    active = np.zeros(data.shape[0], dtype=np.int64)  # current node per row
    rows = np.arange(data.shape[0])
    for _ in range(tree.max_depth + 1):
        feats = tree._feature[active]
        internal = feats >= 0
        if not internal.any():
            break
        sub = rows[internal]
        act = active[internal]
        go_left = data[sub, feats[internal]] <= tree._threshold[act]
        active[sub] = np.where(go_left, tree._left[act], tree._right[act])
    return tree._value[active]


def grow_binned(
    trees: Sequence[BinnedRegressionTree],
    codes: np.ndarray,
    y: np.ndarray,
    weight: np.ndarray,
    bounds: np.ndarray,
    fit_rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Grow ``trees[m]`` on member ``m``'s rows, all in one level-wise pass.

    The rows of every member are stacked: member ``m`` owns rows
    ``bounds[m]:bounds[m + 1]`` of ``codes`` (int64), ``y`` and
    ``weight``.  ``fit_rows`` (member-major, default every row) picks
    the rows whose histograms grow the trees; the other rows are only
    routed.  Each level runs one ``bincount`` per statistic whose slot
    axis is every member's frontier nodes, so a bin sums its own
    member's rows in the same order as a single-tree fit does, and each
    tree is bit-identical to fitting it alone on its member's
    ``fit_rows``.

    The trees must share their settings.  Returns every stacked row's
    leaf value — each tree's ``predict`` on its member's rows.
    """
    settings = {
        (t.n_bins, t.max_depth, t.min_samples_leaf, t.min_impurity_decrease)
        for t in trees
    }
    if len(settings) != 1:
        raise ValueError("trees grown together must share settings")
    ((nb, max_depth, min_leaf, min_gain),) = settings
    n_members = len(trees)
    d = codes.shape[1]
    stride = d * nb
    member_of_row = np.repeat(np.arange(n_members), np.diff(bounds))
    if fit_rows is None:
        fit_rows = np.arange(len(codes))
    fit_codes = codes[fit_rows]
    fit_flat = fit_codes + np.arange(d, dtype=np.int64) * nb
    fit_w = weight[fit_rows]
    fit_wy = fit_w * y[fit_rows]
    rep_wy = np.repeat(fit_wy, d)
    rep_w = np.repeat(fit_w, d)
    # with unit weights a bin's weight is its exact row count, so the
    # weight histogram doubles as the count histogram
    unit = bool((fit_w == 1.0).all())

    # every leaf holds a fit row, so a tree has at most 2F - 1 nodes
    most_rows = int(np.bincount(member_of_row[fit_rows]).max())
    cap = min(2 ** (max_depth + 1) - 1, 2 * most_rows - 1)
    size = n_members * cap  # member m's nodes live at m * cap + local id
    feature = np.full(size, -1, dtype=np.int64)
    threshold = np.zeros(size)
    left = np.full(size, -1, dtype=np.int64)
    value = np.zeros(size)
    count = np.ones(n_members, dtype=np.int64)
    frontier = np.arange(n_members, dtype=np.int64) * cap
    node_of_row = frontier[member_of_row]

    for depth in range(max_depth + 1):
        # fit rows off the frontier (in leaves that stopped) go to a
        # dump slot past the real ones, whose bins are never read
        n_slots = len(frontier)
        slot_map = np.full(size, n_slots, dtype=np.int64)
        slot_map[frontier] = np.arange(n_slots)
        slot = slot_map[node_of_row[fit_rows]]

        if depth == max_depth:
            # the last level only sets node values: feature 0 suffices
            cells = slot * nb + fit_codes[:, 0]
            hsize = (n_slots + 1) * nb
            total_wy = np.bincount(cells, weights=fit_wy, minlength=hsize)
            total_w = np.bincount(cells, weights=fit_w, minlength=hsize)
            value[frontier] = (
                total_wy.reshape(-1, nb)[:n_slots].sum(axis=1)
                / total_w.reshape(-1, nb)[:n_slots].sum(axis=1)
            )
            break

        cells = (slot[:, None] * stride + fit_flat).ravel()
        hsize = (n_slots + 1) * stride
        shape = (n_slots + 1, d, nb)
        hist_wy = np.bincount(cells, weights=rep_wy, minlength=hsize)
        hist_wy = hist_wy.reshape(shape)[:n_slots]
        hist_w = np.bincount(cells, weights=rep_w, minlength=hsize)
        hist_w = hist_w.reshape(shape)[:n_slots]
        total_wy = hist_wy[:, 0, :].sum(axis=1)
        total_w = hist_w[:, 0, :].sum(axis=1)
        # node values (weighted means) for every frontier node
        value[frontier] = total_wy / total_w

        cum_wy = hist_wy.cumsum(axis=2)[:, :, :-1]
        cum_w = hist_w.cumsum(axis=2)[:, :, :-1]
        right_wy = total_wy[:, None, None] - cum_wy
        right_w = total_w[:, None, None] - cum_w
        if unit:
            # both sides hold min_leaf rows and a positive weight
            fewest = max(min_leaf, 1)
            valid = (cum_w >= fewest) & (right_w >= fewest)
        else:
            hist_n = np.bincount(cells, minlength=hsize)
            hist_n = hist_n.reshape(shape)[:n_slots]
            cum_n = hist_n.cumsum(axis=2)[:, :, :-1]
            right_n = hist_n[:, 0, :].sum(axis=1)[:, None, None] - cum_n
            valid = (
                (cum_n >= min_leaf)
                & (right_n >= min_leaf)
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
        split = np.nonzero(
            np.isfinite(best_gain) & (best_gain > min_gain)
        )[0]
        if len(split) == 0:
            break

        # children of a member's k-th split node get local ids
        # count + 2k and count + 2k + 1, in frontier order
        parents = frontier[split]
        member = parents // cap
        rank = np.arange(len(split)) - np.searchsorted(member, member)
        children = member * cap + count[member] + 2 * rank
        count += 2 * np.bincount(member, minlength=n_members)
        feature[parents], threshold[parents] = np.divmod(
            best_pos[split], nb - 1
        )
        left[parents] = children

        # route every row (fit or not) that sits at a node split just now
        feats = feature[node_of_row]
        moving = np.nonzero(feats >= 0)[0]
        at = node_of_row[moving]
        go_right = codes[moving, feats[moving]] > threshold[at]
        node_of_row[moving] = left[at] + go_right
        # a split node's children sit side by side: left, then right
        frontier = (children[:, None] + np.arange(2)).ravel()

    for m, tree in enumerate(trees):
        lo = m * cap
        hi = lo + int(count[m])
        kids = left[lo:hi]
        tree._feature = feature[lo:hi].copy()
        tree._threshold = threshold[lo:hi].copy()
        tree._left = np.where(kids >= 0, kids - lo, -1)
        tree._right = np.where(kids >= 0, kids - lo + 1, -1)
        tree._value = value[lo:hi].copy()
    return value[node_of_row]


@dataclass
class StackedTrees:
    """Flat node arrays of several fitted trees padded into 2-D stacks.

    Row ``t`` holds tree ``t``'s parallel node arrays (padded with leaf
    sentinels), so :func:`predict_stacked` can route *all trees × all
    rows* level-synchronously in a handful of array ops instead of one
    Python-level traversal per tree.
    """

    feature: np.ndarray  # (n_trees, max_nodes) int64; -1 marks leaves/padding
    threshold: np.ndarray  # (n_trees, max_nodes) float64
    left: np.ndarray  # (n_trees, max_nodes) int64
    right: np.ndarray  # (n_trees, max_nodes) int64
    value: np.ndarray  # (n_trees, max_nodes) float64
    max_depth: int

    @property
    def n_trees(self) -> int:
        return self.feature.shape[0]


def stack_trees(trees) -> StackedTrees:
    """Pad fitted trees' flat node arrays into a :class:`StackedTrees`."""
    if not trees:
        raise ValueError("cannot stack zero trees")
    for tree in trees:
        if tree._feature is None:
            raise RuntimeError("all trees must be fitted before stacking")
    count = len(trees)
    width = max(tree._feature.size for tree in trees)
    feature = np.full((count, width), -1, dtype=np.int64)
    threshold = np.zeros((count, width))
    left = np.zeros((count, width), dtype=np.int64)
    right = np.zeros((count, width), dtype=np.int64)
    value = np.zeros((count, width))
    for t, tree in enumerate(trees):
        size = tree._feature.size
        feature[t, :size] = tree._feature
        threshold[t, :size] = tree._threshold
        left[t, :size] = tree._left
        right[t, :size] = tree._right
        value[t, :size] = tree._value
    depth = max(tree.max_depth for tree in trees)
    return StackedTrees(feature, threshold, left, right, value, depth)


def predict_stacked(stacked: StackedTrees, data: np.ndarray) -> np.ndarray:
    """Per-tree predictions for ``data``, shape ``(n_trees, n_rows)``.

    Routes every (tree, row) pair one level per pass over the stacked
    arrays; each output row is bit-identical to the corresponding
    tree's own :meth:`predict` (same comparisons, same leaf values).
    ``data`` holds the trees' integer codes.
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError("data must be 2-D")
    n = data.shape[0]
    active = np.zeros((stacked.n_trees, n), dtype=np.int64)
    col = np.arange(n)[None, :]
    for _ in range(stacked.max_depth + 1):
        feats = np.take_along_axis(stacked.feature, active, axis=1)
        internal = feats >= 0
        if not internal.any():
            break
        # feats == -1 wraps to the last column, but those lanes are
        # masked out of the routing update below
        xv = data[col, feats]
        thr = np.take_along_axis(stacked.threshold, active, axis=1)
        go_left = xv <= thr
        nxt = np.where(
            go_left,
            np.take_along_axis(stacked.left, active, axis=1),
            np.take_along_axis(stacked.right, active, axis=1),
        )
        active = np.where(internal, nxt, active)
    return np.take_along_axis(stacked.value, active, axis=1)


def bin_features(
    X: np.ndarray, n_bins: int = 32
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Quantile-bin a float feature matrix into integer codes.

    Returns ``(codes, edges)`` where ``codes[i, f]`` is the bin of
    ``X[i, f]`` and ``edges[f]`` are the f-th feature's inner bin edges
    (usable with :func:`apply_bins` on new data).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    edges: list[np.ndarray] = []
    codes = np.empty(X.shape, dtype=np.int64)
    quantiles = np.linspace(0, 1, n_bins + 1)[1:-1]
    # one call for every column: the same values as column by column
    inner = np.quantile(X, quantiles, axis=0)
    for f in range(X.shape[1]):
        col = X[:, f]
        edge = np.unique(inner[:, f])
        edges.append(edge)
        codes[:, f] = np.searchsorted(edge, col, side="left")
    return codes, edges


def apply_bins(X: np.ndarray, edges: list[np.ndarray]) -> np.ndarray:
    """Bin new data with edges produced by :func:`bin_features`."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(edges):
        raise ValueError(f"X must be (n, {len(edges)})")
    codes = np.empty(X.shape, dtype=np.int64)
    for f, edge in enumerate(edges):
        codes[:, f] = np.searchsorted(edge, X[:, f], side="left")
    return codes
