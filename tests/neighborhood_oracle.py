"""The per-batch feature stack, kept as the oracle for the BAO neighbourhood.

:func:`repro.space.neighborhood.sample_neighborhood` tests each random
candidate against the radius by summing per-knob squared-distance
tables.  This is the function it replaced: every batch builds the
candidates' full feature rows and takes each row's squared distance to
the centre with one ``einsum``.  Both draw the same random numbers and
must return the same configs in the same order, so the equivalence
tests compare against it.
"""

import numpy as np

from repro.space.space import ConfigSpace
from repro.utils.rng import SeedLike, as_generator


def sample_neighborhood(
    space: ConfigSpace,
    center: int,
    radius: float,
    max_points: int,
    seed: SeedLike = None,
    metric: str = "feature",
) -> np.ndarray:
    """Drop-in for :func:`repro.space.neighborhood.sample_neighborhood`."""
    if metric not in ("feature", "index"):
        raise ValueError("metric must be 'feature' or 'index'")
    if radius <= 0 or max_points <= 0:
        return np.empty(0, dtype=np.int64)
    rng = as_generator(seed)
    center_digits = np.asarray(space.decode(center), dtype=np.int64)
    sizes = np.asarray(space.knob_sizes, dtype=np.int64)
    n_knobs = len(sizes)
    r2 = radius * radius
    center_feat = space.features_of(center)

    chosen: dict[int, None] = {}

    # deterministic core: all valid +-1 single-knob lattice steps
    steps = np.concatenate(
        [np.eye(n_knobs, dtype=np.int64), -np.eye(n_knobs, dtype=np.int64)]
    )
    lattice = center_digits[None, :] + steps
    in_range = np.all((lattice >= 0) & (lattice < sizes[None, :]), axis=1)
    for idx in space.encode_batch(lattice[in_range]):
        chosen.setdefault(int(idx), None)
        if len(chosen) >= max_points:
            return np.fromiter(chosen, dtype=np.int64, count=len(chosen))

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
        candidates = np.where(mutate, redraws, center_digits[None, :])
        changed = np.any(candidates != center_digits[None, :], axis=1)

        if metric == "feature":
            feats = space.features_from_digits(candidates)
            delta = feats - center_feat[None, :]
            norms = np.einsum("ij,ij->i", delta, delta)
        else:
            offs = (candidates - center_digits[None, :]).astype(np.float64)
            norms = np.einsum("ij,ij->i", offs, offs)
        valid = changed & (norms <= r2)
        if not valid.any():
            continue
        for idx in space.encode_batch(candidates[valid]):
            chosen.setdefault(int(idx), None)
            if len(chosen) >= max_points:
                break
    return np.fromiter(chosen, dtype=np.int64, count=len(chosen))
