"""CART regression trees (the weak learner under the boosted ensemble).

:class:`RegressionTree` splits exactly and greedily on squared error
with optional per-sample weights, depth and leaf-size limits, and
feature subsampling.  It is vectorized per node: candidate thresholds
are scanned with prefix sums, giving O(d · n log n) per node.

:class:`BinnedRegressionTree` splits on histograms of pre-binned
feature codes.  :func:`grow_binned` is its one grower: it grows one
such tree per ensemble member in a single level-wise pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.utils.rng import SeedLike, as_generator


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


@dataclass
class _TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


class RegressionTree:
    """A binary regression tree fit by exact greedy SSE minimization.

    After :meth:`fit` the node list is flattened into parallel NumPy
    arrays (feature/threshold/left/right/value), so :meth:`predict`
    routes all rows level by level with pure array ops instead of a
    per-node Python loop.  The per-node traversal it replaced is the
    oracle in ``tests/tree_oracle.py``, which the equivalence tests and
    the hot-path benchmark compare against.
    """

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_leaf: int = 2,
        min_impurity_decrease: float = 1e-12,
        max_features: Optional[float] = None,
        seed: SeedLike = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if max_features is not None and not 0.0 < max_features <= 1.0:
            raise ValueError("max_features must be in (0, 1]")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self._rng = as_generator(seed)
        self._nodes: list[_TreeNode] = []
        # flat node arrays (filled by _finalize after fit)
        self._feature: Optional[np.ndarray] = None
        self._threshold: Optional[np.ndarray] = None
        self._left: Optional[np.ndarray] = None
        self._right: Optional[np.ndarray] = None
        self._value: Optional[np.ndarray] = None

    # ------------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "RegressionTree":
        """Fit the tree; returns ``self``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if y.shape != (X.shape[0],):
            raise ValueError("y must be 1-D and match X rows")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        w = check_sample_weight(sample_weight, X.shape[0])

        self._nodes = []
        self._build(X, y, w, np.arange(X.shape[0]), depth=0)
        self._finalize()
        return self

    def _finalize(self) -> None:
        """Flatten the node list into parallel arrays for fast predict."""
        nodes = self._nodes
        count = len(nodes)
        self._feature = np.fromiter(
            (n.feature for n in nodes), dtype=np.int64, count=count
        )
        self._threshold = np.fromiter(
            (n.threshold for n in nodes), dtype=np.float64, count=count
        )
        self._left = np.fromiter(
            (n.left for n in nodes), dtype=np.int64, count=count
        )
        self._right = np.fromiter(
            (n.right for n in nodes), dtype=np.int64, count=count
        )
        self._value = np.fromiter(
            (n.value for n in nodes), dtype=np.float64, count=count
        )

    def _new_node(self) -> int:
        self._nodes.append(_TreeNode())
        return len(self._nodes) - 1

    def _build(
        self,
        X: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        idx: np.ndarray,
        depth: int,
    ) -> int:
        node_id = self._new_node()
        node = self._nodes[node_id]
        w_sub = w[idx]
        y_sub = y[idx]
        total_w = w_sub.sum()
        node.value = float(np.dot(w_sub, y_sub) / total_w)

        if depth >= self.max_depth or len(idx) < 2 * self.min_samples_leaf:
            return node_id
        split = self._best_split(X, y, w, idx)
        if split is None:
            return node_id

        feature, threshold = split
        mask = X[idx, feature] <= threshold
        left_idx = idx[mask]
        right_idx = idx[~mask]
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X, y, w, left_idx, depth + 1)
        node.right = self._build(X, y, w, right_idx, depth + 1)
        return node_id

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        idx: np.ndarray,
    ) -> Optional[tuple[int, float]]:
        n_features = X.shape[1]
        if self.max_features is not None:
            k = max(1, int(round(self.max_features * n_features)))
            features = self._rng.choice(n_features, size=k, replace=False)
        else:
            features = np.arange(n_features)

        y_sub = y[idx]
        w_sub = w[idx]
        total_w = w_sub.sum()
        total_wy = np.dot(w_sub, y_sub)
        parent_score = total_wy * total_wy / total_w

        best_gain = self.min_impurity_decrease
        best: Optional[tuple[int, float]] = None
        min_leaf = self.min_samples_leaf

        for feature in features:
            values = X[idx, feature]
            order = np.argsort(values, kind="stable")
            v_sorted = values[order]
            # skip constant features
            if v_sorted[0] == v_sorted[-1]:
                continue
            wy = (w_sub * y_sub)[order]
            ww = w_sub[order]
            cum_wy = np.cumsum(wy)
            cum_w = np.cumsum(ww)
            # candidate split after position i (1-based prefix)
            # valid when the value actually changes and leaves are big enough
            diffs = v_sorted[1:] != v_sorted[:-1]
            positions = np.nonzero(diffs)[0]
            if min_leaf > 1:
                positions = positions[
                    (positions + 1 >= min_leaf)
                    & (len(idx) - positions - 1 >= min_leaf)
                ]
            if len(positions) == 0:
                continue
            left_wy = cum_wy[positions]
            left_w = cum_w[positions]
            right_wy = total_wy - left_wy
            right_w = total_w - left_w
            gains = (
                left_wy * left_wy / left_w
                + right_wy * right_wy / right_w
                - parent_score
            )
            arg = int(np.argmax(gains))
            if gains[arg] > best_gain:
                best_gain = float(gains[arg])
                pos = positions[arg]
                threshold = 0.5 * (v_sorted[pos] + v_sorted[pos + 1])
                best = (int(feature), float(threshold))
        return best

    # ------------------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for rows of ``X`` (level by level: :func:`_route`).

        Bit-identical to the per-node routing loop it replaced.
        """
        if not self._nodes:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        return _route(self, X)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree (0 for a stump leaf).

        Computed by an iterative frontier walk over the flat arrays, so
        arbitrarily deep trees cannot hit the Python recursion limit.
        """
        if not self._nodes:
            raise RuntimeError("tree is not fitted")
        assert self._feature is not None
        depth = 0
        frontier = np.zeros(1, dtype=np.int64)
        while True:
            internal = frontier[self._feature[frontier] >= 0]
            if internal.size == 0:
                return depth
            frontier = np.concatenate(
                (self._left[internal], self._right[internal])
            )
            depth += 1


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
        """Predict for integer feature codes (same binning as fit)."""
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
    Python-level traversal per tree.  Works for both
    :class:`RegressionTree` and :class:`BinnedRegressionTree` — they
    share the same flat layout.
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
    ``data`` is the tree family's native input: float features for
    :class:`RegressionTree`, integer codes for
    :class:`BinnedRegressionTree`.
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
