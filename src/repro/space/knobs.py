"""Tuning knobs: the per-dimension candidate lists of a config space.

Knob types mirror AutoTVM's ``define_split`` / ``define_knob`` /
``define_reorder`` / ``define_annotate``:

* :class:`SplitKnob` — split a loop of extent ``n`` into ``k`` nested
  loops; candidates are all ordered factorizations of ``n``.
* :class:`OtherKnob` — an explicit list of numeric candidates (e.g. the
  ``auto_unroll_max_step`` values ``[0, 512, 1500]``).
* :class:`BoolKnob` — a two-valued flag (e.g. ``unroll_explicit``).
* :class:`ReorderKnob` — a capped list of loop-order permutations.

Every knob exposes ``features(i)``: a fixed-width numeric embedding of
its ``i``-th candidate used for distance computations (TED, BAO
neighborhoods) and as cost-model input; ``feature_table()`` returns
all of them at once.

Knobs also expose ``signature()``: a canonical, JSON-serializable
description of the knob *definition* (not any chosen value).  Signatures
feed the content hash of a :class:`~repro.space.space.ConfigSpace`,
which in turn keys the cross-run tuning-log database — so they must be
stable across processes, Python versions, and insertion order of
unrelated knobs.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.utils.mathx import all_factorizations


class Knob:
    """Base class: a named, ordered list of candidate values.

    Subclasses fill ``_features``, the ``(len(self), feature_dim)``
    embedding table of their candidates, at construction.
    """

    _features: np.ndarray

    def __init__(self, name: str):
        if not name:
            raise ValueError("knob name must be non-empty")
        self.name = name

    def __len__(self) -> int:
        raise NotImplementedError

    def value(self, index: int):
        """The candidate value at position ``index``."""
        raise NotImplementedError

    @property
    def feature_dim(self) -> int:
        """Width of the feature embedding for this knob."""
        raise NotImplementedError

    def features(self, index: int) -> np.ndarray:
        """Feature embedding of candidate ``index`` (length feature_dim)."""
        return self._features[self._check_index(index)]

    def feature_table(self) -> np.ndarray:
        """Feature embeddings of every candidate, one row per index.

        The knob's own table, not a copy: callers must not write to it.
        """
        return self._features

    def signature(self) -> dict:
        """Canonical JSON-serializable description of this knob."""
        raise NotImplementedError

    def _check_index(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < len(self):
            raise IndexError(
                f"knob {self.name!r}: index {index} out of range [0, {len(self)})"
            )
        return index

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {len(self)} candidates)"


class SplitKnob(Knob):
    """Split a loop of extent ``extent`` into ``num_outputs`` factors.

    Candidates are all ordered factorizations; features are the log2 of
    each factor, so nearby feature vectors correspond to similar tilings.
    """

    def __init__(self, name: str, extent: int, num_outputs: int):
        super().__init__(name)
        if extent <= 0:
            raise ValueError(f"split {name!r}: extent must be positive")
        if num_outputs < 2:
            raise ValueError(f"split {name!r}: need at least 2 outputs")
        self.extent = int(extent)
        self.num_outputs = int(num_outputs)
        self._candidates: Tuple[Tuple[int, ...], ...] = all_factorizations(
            self.extent, self.num_outputs
        )
        self._features = np.log2(
            np.asarray(self._candidates, dtype=np.float64)
        )

    def __len__(self) -> int:
        return len(self._candidates)

    def value(self, index: int) -> Tuple[int, ...]:
        return self._candidates[self._check_index(index)]

    @property
    def feature_dim(self) -> int:
        return self.num_outputs

    def signature(self) -> dict:
        return {
            "type": "split",
            "name": self.name,
            "extent": self.extent,
            "num_outputs": self.num_outputs,
        }


class OtherKnob(Knob):
    """An explicit list of numeric candidate values."""

    def __init__(self, name: str, candidates: Sequence[float]):
        super().__init__(name)
        if not candidates:
            raise ValueError(f"knob {name!r}: empty candidate list")
        self._candidates = list(candidates)
        self._features = np.array(
            [[math.log2(1.0 + abs(v))] for v in self._candidates],
            dtype=np.float64,
        )

    def __len__(self) -> int:
        return len(self._candidates)

    def value(self, index: int):
        return self._candidates[self._check_index(index)]

    @property
    def feature_dim(self) -> int:
        return 1

    def signature(self) -> dict:
        return {
            "type": "other",
            "name": self.name,
            "candidates": list(self._candidates),
        }


class BoolKnob(OtherKnob):
    """A two-valued flag knob (candidates ``[0, 1]``)."""

    def __init__(self, name: str):
        super().__init__(name, [0, 1])


class ReorderKnob(Knob):
    """Loop-order permutations of ``axes`` (capped at ``max_candidates``).

    Features embed each permutation as the per-axis position, normalized
    to [0, 1], so similar orders are close in feature space.
    """

    def __init__(
        self,
        name: str,
        axes: Sequence[str],
        max_candidates: int = 24,
    ):
        super().__init__(name)
        axes = list(axes)
        if len(axes) < 2:
            raise ValueError(f"reorder {name!r}: need at least 2 axes")
        if len(set(axes)) != len(axes):
            raise ValueError(f"reorder {name!r}: duplicate axes")
        self.axes = axes
        perms = list(itertools.permutations(range(len(axes))))
        self._perms: List[Tuple[int, ...]] = perms[:max_candidates]
        denom = float(len(axes) - 1)
        feats = np.empty((len(self._perms), len(axes)), dtype=np.float64)
        for i, perm in enumerate(self._perms):
            position = np.empty(len(axes))
            for pos, axis in enumerate(perm):
                position[axis] = pos
            feats[i] = position / denom
        self._features = feats

    def __len__(self) -> int:
        return len(self._perms)

    def value(self, index: int) -> Tuple[str, ...]:
        perm = self._perms[self._check_index(index)]
        return tuple(self.axes[i] for i in perm)

    @property
    def feature_dim(self) -> int:
        return len(self.axes)

    def signature(self) -> dict:
        return {
            "type": "reorder",
            "name": self.name,
            "axes": list(self.axes),
            "num_candidates": len(self._perms),
        }
