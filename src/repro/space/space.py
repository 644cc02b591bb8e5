"""The indexable configuration space.

A :class:`ConfigSpace` is an ordered product of knobs.  Configurations
are addressed by a single flat integer index (mixed-radix over the
per-knob candidate counts), exactly like AutoTVM — spaces routinely hold
tens of millions of points and are never materialized.

The space also owns the *feature encoding*: each config maps to a fixed-
width numeric vector (concatenated knob embeddings) used by the TED
initializer, the cost models, and the BAO neighborhood metric.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.space.knobs import Knob
from repro.utils.rng import SeedLike, as_generator


class ConfigEntity:
    """One point of a :class:`ConfigSpace`: a flat index plus views.

    Entities are cheap handles; values and features are computed from
    the space on demand and cached.
    """

    __slots__ = ("space", "index", "_knob_indices", "_values")

    def __init__(self, space: "ConfigSpace", index: int):
        self.space = space
        self.index = int(index)
        self._knob_indices: Optional[Tuple[int, ...]] = None
        self._values: Optional[Dict[str, object]] = None

    @property
    def knob_indices(self) -> Tuple[int, ...]:
        """Per-knob candidate indices (mixed-radix digits of ``index``)."""
        if self._knob_indices is None:
            self._knob_indices = self.space.decode(self.index)
        return self._knob_indices

    @property
    def values(self) -> Dict[str, object]:
        """Mapping of knob name to the selected candidate value."""
        if self._values is None:
            self._values = {
                knob.name: knob.value(i)
                for knob, i in zip(self.space.knobs, self.knob_indices)
            }
        return self._values

    def __getitem__(self, knob_name: str):
        return self.values[knob_name]

    @property
    def features(self) -> np.ndarray:
        """Feature embedding of this config (length ``space.feature_dim``)."""
        return self.space.features_of(self.index)

    def __eq__(self, other: object) -> bool:
        """Equal when the flat index matches and the spaces have equal
        *content* (same knob definitions) — two ConfigSpace instances
        built from the same workload/template compare equal points even
        across processes."""
        if not isinstance(other, ConfigEntity):
            return NotImplemented
        if other.index != self.index:
            return False
        if other.space is self.space:
            return True
        return other.space.content_hash() == self.space.content_hash()

    def __hash__(self) -> int:
        # content-based, stable across processes (was: id(self.space))
        return hash((self.space.content_hash(), self.index))

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.values.items())
        return f"Config[{self.index}]({parts})"


class ConfigSpace:
    """Ordered product of knobs with flat-index addressing."""

    def __init__(self, name: str = "space"):
        self.name = name
        self.knobs: List[Knob] = []
        self._knob_by_name: Dict[str, Knob] = {}
        self._radix: List[int] = []
        self._feature_tables: List[np.ndarray] = []
        self._content_hash: Optional[str] = None

    # ------------------------------------------------------------------
    # construction

    def add_knob(self, knob: Knob) -> Knob:
        """Append a knob (names must be unique)."""
        if knob.name in self._knob_by_name:
            raise ValueError(f"duplicate knob name {knob.name!r}")
        if len(knob) == 0:
            raise ValueError(f"knob {knob.name!r} has no candidates")
        self.knobs.append(knob)
        self._knob_by_name[knob.name] = knob
        self._radix.append(len(knob))
        self._feature_tables.append(knob.feature_table().copy())
        self._content_hash = None
        return knob

    def __getstate__(self) -> dict:
        # the cached digest is derived state: leaving it out keeps a
        # pickled space (and so a checkpoint holding one) the same bytes
        # whether or not something hashed the space first
        state = self.__dict__.copy()
        state["_content_hash"] = None
        return state

    def signature_dict(self) -> dict:
        """Canonical description of the knob definitions (order matters).

        Deliberately excludes :attr:`name` — the space name encodes the
        workload, which the tuning-log signature tracks separately.
        """
        return {"knobs": [knob.signature() for knob in self.knobs]}

    def content_hash(self) -> str:
        """Stable SHA-256 hex digest of the knob definitions.

        Two spaces built from the same workload/template hash equal in
        any process; the digest keys cross-run artifacts (the tuning-log
        database) and the content-based :class:`ConfigEntity` hash.
        Cached; invalidated by :meth:`add_knob`.
        """
        if self._content_hash is None:
            payload = json.dumps(
                self.signature_dict(), sort_keys=True, separators=(",", ":")
            )
            self._content_hash = hashlib.sha256(
                payload.encode("utf-8")
            ).hexdigest()
        return self._content_hash

    def knob(self, name: str) -> Knob:
        """Look a knob up by name."""
        if name not in self._knob_by_name:
            raise KeyError(f"no knob named {name!r} in space {self.name!r}")
        return self._knob_by_name[name]

    # ------------------------------------------------------------------
    # addressing

    def __len__(self) -> int:
        size = 1
        for r in self._radix:
            size *= r
        return size

    @property
    def knob_sizes(self) -> Tuple[int, ...]:
        return tuple(self._radix)

    def decode(self, index: int) -> Tuple[int, ...]:
        """Flat index -> per-knob candidate indices."""
        index = int(index)
        if not 0 <= index < len(self):
            raise IndexError(
                f"config index {index} out of range [0, {len(self)})"
            )
        digits = []
        for r in self._radix:
            digits.append(index % r)
            index //= r
        return tuple(digits)

    def encode(self, knob_indices: Sequence[int]) -> int:
        """Per-knob candidate indices -> flat index."""
        if len(knob_indices) != len(self._radix):
            raise ValueError(
                f"expected {len(self._radix)} knob indices, "
                f"got {len(knob_indices)}"
            )
        index = 0
        for digit, r in zip(reversed(knob_indices), reversed(self._radix)):
            digit = int(digit)
            if not 0 <= digit < r:
                raise IndexError(f"knob index {digit} out of range [0, {r})")
            index = index * r + digit
        return index

    def get(self, index: int) -> ConfigEntity:
        """The :class:`ConfigEntity` at flat index ``index``."""
        return ConfigEntity(self, index)

    def __iter__(self) -> Iterable[ConfigEntity]:
        if len(self) > 10_000_000:
            raise RuntimeError(
                f"refusing to iterate a space of size {len(self)}; sample it"
            )
        return (self.get(i) for i in range(len(self)))

    # ------------------------------------------------------------------
    # features

    @property
    def feature_dim(self) -> int:
        return sum(knob.feature_dim for knob in self.knobs)

    def features_of(self, index: int) -> np.ndarray:
        """Feature vector of the config at ``index``."""
        digits = self.decode(index)
        parts = [
            knob.features(digit) for knob, digit in zip(self.knobs, digits)
        ]
        return np.concatenate(parts)

    def decode_batch(self, indices: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`decode`: ``(n,)`` indices -> ``(n, n_knobs)``."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1:
            raise ValueError("indices must be a 1-D array")
        if len(indices) and (
            indices.min() < 0 or int(indices.max()) >= len(self)
        ):
            raise IndexError("config index out of range")
        out = np.empty((len(indices), len(self._radix)), dtype=np.int64)
        rest = indices.copy()
        for k, r in enumerate(self._radix):
            out[:, k] = rest % r
            rest //= r
        return out

    def encode_batch(self, digit_matrix: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`encode`: ``(n, n_knobs)`` -> ``(n,)`` indices."""
        digits = np.asarray(digit_matrix, dtype=np.int64)
        if digits.ndim != 2 or digits.shape[1] != len(self._radix):
            raise ValueError(f"expected (n, {len(self._radix)}) digits")
        radix = np.asarray(self._radix, dtype=np.int64)
        if len(digits) and (
            np.any(digits < 0) or np.any(digits >= radix[None, :])
        ):
            raise IndexError("knob index out of range")
        # mixed-radix place values: 1, r0, r0 * r1, ...
        place = np.ones_like(radix)
        np.cumprod(radix[:-1], out=place[1:])
        return digits @ place

    def feature_matrix(self, indices: Sequence[int]) -> np.ndarray:
        """Stacked feature vectors, shape ``(len(indices), feature_dim)``."""
        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) == 0:
            return np.empty((0, self.feature_dim))
        return self.features_from_digits(self.decode_batch(indices))

    def features_from_digits(self, digit_matrix: np.ndarray) -> np.ndarray:
        """Feature matrix straight from per-knob indices (no decode)."""
        digits = np.asarray(digit_matrix, dtype=np.int64)
        if digits.ndim != 2 or digits.shape[1] != len(self.knobs):
            raise ValueError(f"expected (n, {len(self.knobs)}) digits")
        parts = [
            table[digits[:, k]] for k, table in enumerate(self._feature_tables)
        ]
        return np.concatenate(parts, axis=1)

    def knob_index_matrix(self, indices: Sequence[int]) -> np.ndarray:
        """Per-knob candidate indices as a float matrix (for L2 radii)."""
        if len(indices) == 0:
            return np.empty((0, len(self.knobs)))
        return self.decode_batch(indices).astype(np.float64)

    # ------------------------------------------------------------------
    # sampling

    def sample(self, n: int, seed: SeedLike = None) -> np.ndarray:
        """Sample ``n`` distinct config indices uniformly at random.

        For spaces smaller than ``n`` the whole space is returned.  For
        large spaces sampling uses draw-and-dedupe, which is effectively
        collision-free at the paper's scales (n << |space|).
        """
        rng = as_generator(seed)
        size = len(self)
        if n >= size:
            return np.arange(size, dtype=np.int64)
        if size <= 4 * n:
            return rng.choice(size, size=n, replace=False).astype(np.int64)
        chosen: Dict[int, None] = {}
        while len(chosen) < n:
            draw = rng.integers(0, size, size=n - len(chosen))
            for idx in draw:
                chosen.setdefault(int(idx), None)
        return np.fromiter(chosen.keys(), dtype=np.int64, count=n)

    def random_walk(self, index: int, seed: SeedLike = None) -> int:
        """One SA mutation: re-draw a single random knob of ``index``."""
        rng = as_generator(seed)
        digits = list(self.decode(index))
        mutable = [k for k, r in enumerate(self._radix) if r > 1]
        if not mutable:
            return index
        k = mutable[int(rng.integers(0, len(mutable)))]
        old = digits[k]
        while digits[k] == old:
            digits[k] = int(rng.integers(0, self._radix[k]))
        return self.encode(digits)

    def __repr__(self) -> str:
        knobs = ", ".join(f"{k.name}({len(k)})" for k in self.knobs)
        return f"ConfigSpace({self.name!r}, size={len(self)}, knobs=[{knobs}])"


class FeatureCache:
    """Incrementally grown feature matrix for a measured config set.

    The tuning loop's measured set only ever *appends*; rebuilding its
    feature matrix from scratch on every BAO step (a ``np.stack`` over a
    Python list, plus per-config ``features_of`` calls) is O(n·d) work
    per access.  This cache keeps the rows in one preallocated buffer
    with amortized-doubling growth: appends are a single batched
    ``feature_matrix`` call, and :attr:`matrix` is a zero-copy
    read-only view.

    Row values are bit-identical to ``space.features_of`` (both read
    from the same per-knob feature tables), so swapping the cache in
    cannot perturb model fits or golden traces.
    """

    def __init__(self, space: ConfigSpace, capacity: int = 64):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.space = space
        self._buf = np.empty((capacity, space.feature_dim))
        self._count = 0
        self._indices: List[int] = []

    def __len__(self) -> int:
        return self._count

    @property
    def indices(self) -> List[int]:
        """Config indices of the cached rows, in append order."""
        return list(self._indices)

    def __getstate__(self) -> dict:
        # pickle the filled rows only: the tail past them is
        # uninitialised memory, which would make checkpoints (and
        # speculation rollback snapshots) differ byte for byte between
        # identical runs
        return dict(self.__dict__, _buf=self._buf[: self._count])

    def _grow_to(self, needed: int) -> None:
        capacity = len(self._buf)
        if needed <= capacity:
            return
        # a cache restored with no rows has capacity 0: start at 1
        capacity = max(capacity, 1)
        while capacity < needed:
            capacity *= 2
        buf = np.empty((capacity, self._buf.shape[1]))
        buf[: self._count] = self._buf[: self._count]
        self._buf = buf

    def extend(self, indices: Sequence[int]) -> None:
        """Append the feature rows of ``indices`` (one batched decode)."""
        indices = [int(i) for i in indices]
        if not indices:
            return
        self._grow_to(self._count + len(indices))
        rows = self.space.feature_matrix(indices)
        self._buf[self._count: self._count + len(indices)] = rows
        self._count += len(indices)
        self._indices.extend(indices)

    def append(self, index: int) -> None:
        """Append one config's feature row."""
        self.extend([index])

    @property
    def matrix(self) -> np.ndarray:
        """Read-only ``(len(self), feature_dim)`` view of the cached rows."""
        view = self._buf[: self._count]
        view.flags.writeable = False
        return view
