"""Batch transductive experimental design — Algorithm 2 of the paper.

BTED makes TED scale to spaces with tens of millions of configurations:
``B`` batches of ``M`` random candidates are each reduced to ``m``
points by TED; the union (up to ``B * m`` points) is reduced by TED
again to the final ``m``-point initialization set.  Randomness bounds
the kernel computations at ``M x M`` while the batch mechanism enlarges
the random space actually examined (``B * M`` points in total).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.ted import ted_select
from repro.space.space import ConfigSpace
from repro.utils.rng import SeedLike, as_generator, derive_seed


def bted_select(
    space: ConfigSpace,
    m: int = 64,
    mu: float = 0.1,
    batch_candidates: int = 500,
    num_batches: int = 10,
    seed: SeedLike = None,
) -> List[int]:
    """Select an ``m``-point diverse initialization set from ``space``.

    This is ``BTED(V=D, mu, M=batch_candidates, m, B=num_batches)``.
    The paper's experimental settings (Sec. V-A) are the defaults:
    ``mu=0.1, M=500, m=64, B=10`` — each batch samples 500 random
    configurations, TED keeps 64, the union holds up to 640, and a
    final TED pass returns 64.

    Returns config *indices* into ``space``, deduplicated (batches are
    sampled independently, so their unions may overlap).  Each TED pass,
    per batch and over the union, is :func:`~repro.core.ted.ted_select`,
    which costs one kernel matrix-vector product per pick.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    if batch_candidates < m:
        raise ValueError(
            f"batch_candidates ({batch_candidates}) must be >= m ({m})"
        )
    if num_batches <= 0:
        raise ValueError("num_batches must be positive")
    rng = as_generator(seed)
    root = int(rng.integers(0, 2**62))

    union: dict[int, None] = {}
    for b in range(num_batches):
        batch_seed = derive_seed(root, "bted-batch", b)
        candidates = space.sample(batch_candidates, seed=batch_seed)
        feats = space.feature_matrix(candidates)
        picked = ted_select(feats, m=m, mu=mu)
        for row in picked:
            union.setdefault(int(candidates[row]), None)

    union_indices = np.fromiter(union.keys(), dtype=np.int64, count=len(union))
    if len(union_indices) <= m:
        return union_indices.tolist()
    union_feats = space.feature_matrix(union_indices)
    final_rows = ted_select(union_feats, m=m, mu=mu)
    return [int(union_indices[row]) for row in final_rows]
