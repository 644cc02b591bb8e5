"""Neighborhood queries over a config space.

BAO (Alg. 4) restricts each optimization step to ``C_t``, the
neighborhood of the incumbent with radius ``R`` — "the Euclidean
distance between points" (Sec. V-A).  Two metrics are supported:

* ``metric="feature"`` (default) — Euclidean distance between config
  *feature vectors* (log-scale tile factors etc.).  This is the metric
  in which kernel performance is locally smooth, which is precisely the
  assumption BAO's neighborhood search relies on (Sec. III-B).
* ``metric="index"`` — Euclidean distance between per-knob candidate
  indices.  Kept for ablation: lexicographic candidate order is only
  weakly performance-local, and the ablation benchmark quantifies how
  much the metric choice matters.

Spaces are far too large to filter exhaustively, so neighborhoods are
*sampled*: all single-knob ±1 lattice steps are always included, and
random multi-knob redraws fill the rest, rejection-tested against the
radius.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.space.space import ConfigSpace
from repro.utils.rng import SeedLike, as_generator


def neighbors_within(
    space: ConfigSpace, center: int, radius: float
) -> List[int]:
    """Exhaustively enumerate lattice neighbors within ``radius``.

    Uses the *index* metric and a breadth-first walk over knob-index
    space, so its cost grows with the ball volume — intended for small
    radii and unit tests.  The center itself is excluded.
    """
    if radius <= 0:
        return []
    center_digits = np.array(space.decode(center), dtype=np.int64)
    sizes = space.knob_sizes
    r2 = radius * radius

    found = set()
    frontier = [tuple(center_digits)]
    visited = {tuple(center_digits)}
    while frontier:
        new_frontier = []
        for digits in frontier:
            arr = np.array(digits, dtype=np.int64)
            for k in range(len(sizes)):
                for step in (-1, 1):
                    cand = arr.copy()
                    cand[k] += step
                    if not 0 <= cand[k] < sizes[k]:
                        continue
                    key = tuple(cand)
                    if key in visited:
                        continue
                    visited.add(key)
                    dist2 = float(np.sum((cand - center_digits) ** 2))
                    if dist2 <= r2:
                        found.add(space.encode(cand))
                        new_frontier.append(key)
        frontier = new_frontier
    return sorted(found)


def axis_steps(
    space: ConfigSpace, center: int, step: int
) -> np.ndarray:
    """All single-knob moves of ``±step`` from ``center``, clamped.

    The coordinate-descent exploit arm (Droplet-style line search)
    probes each knob axis independently: for every knob the candidate
    digit is ``center ± step`` clamped into ``[0, size)``, so a step
    that overshoots a boundary still probes the boundary value itself.
    Moves that collapse back onto the center digit (already at a
    boundary) are dropped, as are duplicate configs produced by two
    clamped moves landing on the same point.

    Deterministic order: knob 0 ``-step``, knob 0 ``+step``, knob 1
    ``-step``, ... — no RNG involved.  The center is never returned.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    center_digits = np.asarray(space.decode(center), dtype=np.int64)
    sizes = np.asarray(space.knob_sizes, dtype=np.int64)
    n_knobs = len(sizes)

    deltas = np.zeros((2 * n_knobs, n_knobs), dtype=np.int64)
    rows = np.arange(n_knobs)
    deltas[2 * rows, rows] = -step
    deltas[2 * rows + 1, rows] = step
    candidates = np.clip(
        center_digits[None, :] + deltas, 0, (sizes - 1)[None, :]
    )
    moved = np.any(candidates != center_digits[None, :], axis=1)
    if not moved.any():
        return np.empty(0, dtype=np.int64)
    chosen: dict[int, None] = {}
    for idx in space.encode_batch(candidates[moved]):
        chosen.setdefault(int(idx), None)
    return np.fromiter(chosen, dtype=np.int64, count=len(chosen))


def sample_neighborhood(
    space: ConfigSpace,
    center: int,
    radius: float,
    max_points: int,
    seed: SeedLike = None,
    metric: str = "feature",
) -> np.ndarray:
    """Sample up to ``max_points`` distinct configs within ``radius``.

    Deterministic given ``seed``.  The single-step lattice neighbors
    are always included (they anchor the local search even when the
    radius rejects most random proposals); random redraws fill the
    remainder, filtered by the chosen metric.  A proposal picks each
    knob independently with probability ``2 / n_knobs`` (about two
    knobs; every knob when there are two or fewer), picks one knob
    uniformly when that picked none, and redraws each picked knob
    uniformly over its candidates.  The center is never returned.

    Both metrics separate by knob, so a proposal's squared distance is
    the sum of one table entry per knob: each knob's candidates'
    squared distances to the center's candidate, built once per call.
    """
    if metric not in ("feature", "index"):
        raise ValueError("metric must be 'feature' or 'index'")
    if radius <= 0 or max_points <= 0:
        return np.empty(0, dtype=np.int64)
    rng = as_generator(seed)
    center_digits = np.asarray(space.decode(center), dtype=np.int64)
    sizes = np.asarray(space.knob_sizes, dtype=np.int64)
    n_knobs = len(sizes)
    r2 = radius * radius

    chosen: dict[int, None] = {}

    # deterministic core: all valid +-1 single-knob lattice steps
    steps = np.concatenate(
        [np.eye(n_knobs, dtype=np.int64), -np.eye(n_knobs, dtype=np.int64)]
    )
    lattice = center_digits[None, :] + steps
    in_range = np.all((lattice >= 0) & (lattice < sizes[None, :]), axis=1)
    steps_taken = space.encode_batch(lattice[in_range])
    chosen.update(dict.fromkeys(steps_taken.tolist()))

    # the per-knob tables, end to end: candidate j of knob k sits at
    # offsets[k] + j
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    table = np.concatenate([
        _squared_distances(space, k, int(c), metric)
        for k, c in enumerate(center_digits)
    ])
    # a table sum adds a row's squares in another order than one
    # einsum over the row; rows this close to r2 take the einsum, so
    # every accept/reject decision is the einsum's
    band = 1e-9 * r2
    center_row = center_digits[None, :]

    # random fill: redraw ~2 knobs, rejection-test against the ball
    attempts = 0
    max_attempts = 200 * max_points
    while len(chosen) < max_points and attempts < max_attempts:
        batch = max(256, 2 * (max_points - len(chosen)))
        attempts += batch
        # choose which knobs to redraw: ~2 knobs per proposal on average
        mutate = rng.random((batch, n_knobs)) < (2.0 / n_knobs)
        none_selected = ~mutate.any(axis=1)
        if none_selected.any():
            forced = rng.integers(0, n_knobs, size=int(none_selected.sum()))
            mutate[np.nonzero(none_selected)[0], forced] = True
        redraws = rng.integers(0, sizes[None, :], size=(batch, n_knobs))
        candidates = np.where(mutate, redraws, center_row)

        norms = table[candidates + offsets].sum(axis=1)
        near = np.abs(norms - r2) <= band
        if near.any():
            norms[near] = _einsum_norms(
                space, candidates[near], center_row, metric
            )
        inside = norms <= r2
        if not inside.any():
            continue
        hits = space.encode_batch(candidates[inside])
        # redraws that reproduce the center are not neighbours
        chosen.update(dict.fromkeys(hits[hits != center].tolist()))
    count = min(len(chosen), max_points)
    return np.fromiter(chosen, dtype=np.int64, count=count)


def _squared_distances(
    space: ConfigSpace, knob: int, digit: int, metric: str
) -> np.ndarray:
    """Squared distance of each of ``knob``'s candidates to ``digit``."""
    if metric == "feature":
        features = space.knobs[knob].feature_table()
        delta = features - features[digit]
        return np.einsum("ij,ij->i", delta, delta)
    offs = np.arange(space.knob_sizes[knob], dtype=np.float64) - digit
    return offs * offs


def _einsum_norms(
    space: ConfigSpace, candidates: np.ndarray, center: np.ndarray, metric: str
) -> np.ndarray:
    """Squared distances of whole candidate rows to ``center`` (one row)."""
    if metric == "feature":
        rows = space.features_from_digits(candidates)
        delta = rows - space.features_from_digits(center)
    else:
        delta = (candidates - center).astype(np.float64)
    return np.einsum("ij,ij->i", delta, delta)
