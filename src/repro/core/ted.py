"""Transductive experimental design — Algorithm 1 of the paper.

Given an un-sampled candidate set ``V`` (as feature vectors), TED
greedily selects the ``m`` configurations most contributive to
initializing an evaluation function: each step picks

    x = argmax_v ||K_v||^2 / (k(v, v) + mu)

and deflates the kernel matrix ``K <- K - K_x K_x^T / (k(x,x) + mu)``,
so subsequent picks are pushed away from already-selected points — the
selected set scatters across the input design space.

The paper states the matrix entries are "computed as Euclidean
distance"; a raw distance matrix would make ``k(v, v) = 0`` and the
selection degenerate, so — following the original TED formulation of
Yu, Bi & Tresp (ICML'06) that the paper cites — we use an RBF kernel
*derived from* the Euclidean distances, with the bandwidth set to the
median pairwise distance (a standard self-tuning choice).  This keeps
the algorithm parameter-free apart from ``mu``.

The deflation is applied implicitly: ``K`` is never rewritten.
Deflation vectors are accumulated in a matrix ``V`` (so the deflated
kernel is ``K - V V^T``) and the column norms and diagonal are kept up
to date by rank-1 updates, so each pick costs one BLAS matrix-vector
product against the original kernel.  This is algebraically the
in-place deflation above; only floating-point reassociation differs,
which can flip an argmax only between picks whose scores tie to about
1e-9 relative.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.utils.mathx import pairwise_sq_dists


def rbf_kernel(
    features: np.ndarray, bandwidth: Optional[float] = None
) -> np.ndarray:
    """RBF kernel matrix of a set of feature vectors.

    ``bandwidth`` defaults to the median non-zero pairwise Euclidean
    distance (self-tuning heuristic).  Degenerate inputs (a single
    point, or all points identical) fall back to bandwidth 1.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    sq = pairwise_sq_dists(features, features)
    if bandwidth is None:
        # strict-upper-triangle mask via broadcast comparison: same
        # multiset of distances as np.triu_indices(k=1) but without
        # materializing two O(n^2) int64 index arrays
        n = len(sq)
        upper = np.arange(n)[None, :] > np.arange(n)[:, None]
        positive = sq[upper & (sq > 0)]
        if len(positive) == 0:
            bandwidth = 1.0
        else:
            bandwidth = float(np.sqrt(np.median(positive)))
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return np.exp(-sq / (2.0 * bandwidth * bandwidth))


def ted_select(
    features: np.ndarray,
    m: int,
    mu: float = 0.1,
    bandwidth: Optional[float] = None,
) -> List[int]:
    """Select ``m`` diverse, representative rows of ``features``.

    Returns the selected row indices in pick order.  This is Algorithm 1
    (``TED(V, mu, m)``) with the kernel built by :func:`rbf_kernel`.

    ``m`` is clipped to ``len(features)``; ``mu`` is the regularization
    coefficient (paper uses 0.1) and must be positive: it keeps the
    deflation's denominator ``k(x, x) + mu`` away from zero once a
    duplicate of a picked row has been deflated to nothing.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    n = len(features)
    if n == 0:
        return []
    if m <= 0:
        raise ValueError("m must be positive")
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    m = min(m, n)

    # K' = K - V V^T, where the t-th column of V is
    # kx_t / sqrt(kx_t[x_t] + mu).  The score numerator (squared column
    # norms) and denominator (diagonal) are updated in O(n) per pick:
    #
    #     ||K'_j||^2 = ||K_j||^2 - (2/c) kx_j (K kx)_j
    #                  + (kx_j^2 / c^2) ||kx||^2
    #     K'_jj      = K_jj - kx_j^2 / c
    #
    # with (K kx) the only O(n^2) term: one BLAS gemv against the
    # original kernel plus O(n t) corrections through V.
    K = rbf_kernel(features, bandwidth=bandwidth)
    col_norms = np.einsum("ij,ij->j", K, K)
    diag = np.diag(K).astype(np.float64, copy=True)
    V = np.empty((n, m))
    selected: List[int] = []
    available = np.ones(n, dtype=bool)
    for t in range(m):
        scores = col_norms / (diag + mu)
        scores[~available] = -np.inf
        x = int(np.argmax(scores))
        selected.append(x)
        available[x] = False
        if t == m - 1:
            break  # the last pick needs no further deflation
        Vt = V[:, :t]
        kx = K[:, x] - Vt @ Vt[x]  # deflated column of the current step
        c = kx[x] + mu
        t_vec = K @ kx - Vt @ (Vt.T @ kx)  # current-kernel matvec
        kx_sq = kx * kx
        col_norms -= (2.0 / c) * (kx * t_vec) - (
            float(kx @ kx) / (c * c)
        ) * kx_sq
        diag -= kx_sq / c
        V[:, t] = kx / np.sqrt(c)
    return selected
