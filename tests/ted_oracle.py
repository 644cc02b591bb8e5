"""The in-place TED loop, kept as the oracle for :mod:`repro.core.ted`.

``repro.core.ted.ted_select`` applies each pick's kernel deflation
implicitly, through rank-1 updates of the column norms and diagonal.
This is the loop it replaced: every pick recomputes all column norms
with a full ``einsum`` over ``K`` and rewrites ``K`` in place.  The
two are algebraically the same selection, so the equivalence tests,
the BTED pick pins and ``benchmarks/hotpaths.py`` compare against it.

Tests substitute it for the library's TED by monkeypatching
:func:`ted_select` over ``repro.core.bted.ted_select``.
"""

from typing import List, Optional

import numpy as np

from repro.core.ted import rbf_kernel


def ted_select(
    features: np.ndarray,
    m: int,
    mu: float = 0.1,
    bandwidth: Optional[float] = None,
) -> List[int]:
    """Drop-in for :func:`repro.core.ted.ted_select` on the in-place loop."""
    features = np.asarray(features, dtype=np.float64)
    if len(features) == 0:
        return []
    K = rbf_kernel(features, bandwidth=bandwidth)
    return select_by_deflation(K, min(m, len(K)), mu)


def select_by_deflation(K: np.ndarray, m: int, mu: float) -> List[int]:
    """The pre-optimization greedy loop (reference implementation)."""
    n = len(K)
    selected: List[int] = []
    available = np.ones(n, dtype=bool)
    for _ in range(m):
        col_norms = np.einsum("ij,ij->j", K, K)
        scores = col_norms / (np.diag(K) + mu)
        scores = np.where(available, scores, -np.inf)
        x = int(np.argmax(scores))
        selected.append(x)
        available[x] = False
        kx = K[:, x].copy()
        K -= np.outer(kx, kx) / (kx[x] + mu)
    return selected
