"""Tests for repro.space.neighborhood."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space.knobs import OtherKnob, SplitKnob
from repro.space.neighborhood import (
    axis_steps,
    neighbors_within,
    sample_neighborhood,
)
from repro.space.space import ConfigSpace
from repro.utils.rng import derive_seed
from tests import neighborhood_oracle
from tests.test_space_space import zoo_spaces


def lattice_space(sizes=(5, 5, 5)) -> ConfigSpace:
    """A space whose knob indices form a plain integer lattice."""
    space = ConfigSpace("lattice")
    for i, size in enumerate(sizes):
        space.add_knob(OtherKnob(f"k{i}", list(range(size))))
    return space


class TestNeighborsWithin:
    def test_radius_one_gives_unit_steps(self):
        space = lattice_space()
        center = space.encode([2, 2, 2])
        neighbors = neighbors_within(space, center, radius=1.0)
        assert len(neighbors) == 6  # +-1 per knob

    def test_radius_counts_in_ball(self):
        space = lattice_space()
        center = space.encode([2, 2, 2])
        neighbors = neighbors_within(space, center, radius=1.5)
        # {offsets with norm <= 1.5}: 6 units + 12 diagonal pairs = 18
        assert len(neighbors) == 18

    def test_boundary_clipping(self):
        space = lattice_space()
        corner = space.encode([0, 0, 0])
        neighbors = neighbors_within(space, corner, radius=1.0)
        assert len(neighbors) == 3

    def test_center_excluded(self):
        space = lattice_space()
        center = space.encode([2, 2, 2])
        assert center not in neighbors_within(space, center, radius=2.0)

    def test_zero_radius(self):
        space = lattice_space()
        assert neighbors_within(space, 0, radius=0.0) == []


#: (knob sizes, center digits) with the center in range per knob
lattice_centers = st.lists(
    st.integers(1, 9), min_size=1, max_size=4
).flatmap(
    lambda sizes: st.tuples(
        st.just(tuple(sizes)),
        st.tuples(*[st.integers(0, s - 1) for s in sizes]),
    )
)


class TestAxisSteps:
    def test_interior_center_both_directions(self):
        space = lattice_space((5, 5, 5))
        center = space.encode([2, 2, 2])
        out = axis_steps(space, center, step=1)
        assert len(out) == 6
        digits = space.decode_batch(out)
        deltas = digits - np.array([2, 2, 2])[None, :]
        assert (np.abs(deltas).sum(axis=1) == 1).all()

    def test_overshoot_clamps_to_boundary(self):
        space = lattice_space((5,))
        center = space.encode([2])
        out = axis_steps(space, center, step=10)
        # -10 clamps to 0, +10 clamps to 4
        assert sorted(space.decode(int(i))[0] for i in out) == [0, 4]

    def test_corner_center_drops_collapsed_moves(self):
        space = lattice_space((5, 5))
        corner = space.encode([0, 0])
        out = axis_steps(space, corner, step=1)
        # the -1 moves clamp back onto the corner and are dropped
        assert sorted(
            list(space.decode(int(i))) for i in out
        ) == [[0, 1], [1, 0]]

    def test_size_one_knobs_yield_nothing(self):
        space = lattice_space((1, 1))
        assert len(axis_steps(space, 0, step=3)) == 0

    def test_step_must_be_positive(self):
        space = lattice_space()
        with pytest.raises(ValueError):
            axis_steps(space, 0, step=0)

    def test_deterministic_order(self):
        space = lattice_space((7, 7, 7))
        center = space.encode([3, 1, 6])
        a = axis_steps(space, center, step=2)
        b = axis_steps(space, center, step=2)
        assert (a == b).all()

    @settings(max_examples=60, deadline=None)
    @given(lattice_centers, st.integers(1, 12))
    def test_property_single_axis_clamped_moves(self, sc, step):
        sizes, center_digits = sc
        space = lattice_space(sizes)
        center = space.encode(list(center_digits))
        out = axis_steps(space, center, step)
        assert len(set(out.tolist())) == len(out)
        assert center not in set(out.tolist())
        for idx in out:
            assert 0 <= int(idx) < len(space)
            digits = np.array(space.decode(int(idx)))
            deltas = digits - np.array(center_digits)
            changed = np.nonzero(deltas)[0]
            # exactly one knob moved, by at most `step`
            assert len(changed) == 1
            k = int(changed[0])
            assert abs(int(deltas[k])) <= step
            # a shorter-than-step move means the knob hit a boundary
            if abs(int(deltas[k])) < step:
                assert digits[k] in (0, sizes[k] - 1)

    @settings(max_examples=40, deadline=None)
    @given(lattice_centers, st.integers(1, 12))
    def test_property_every_reachable_axis_point_found(self, sc, step):
        """Each knob contributes its clamped ±step targets exactly."""
        sizes, center_digits = sc
        space = lattice_space(sizes)
        center = space.encode(list(center_digits))
        expected = set()
        for k, size in enumerate(sizes):
            for target in (
                max(0, center_digits[k] - step),
                min(size - 1, center_digits[k] + step),
            ):
                if target != center_digits[k]:
                    cand = list(center_digits)
                    cand[k] = target
                    expected.add(space.encode(cand))
        out = axis_steps(space, center, step)
        assert set(out.tolist()) == expected


class TestSampleNeighborhood:
    def test_respects_index_radius(self):
        space = lattice_space((9, 9, 9))
        center = space.encode([4, 4, 4])
        sampled = sample_neighborhood(
            space, center, radius=2.0, max_points=100, seed=0, metric="index"
        )
        center_digits = np.array([4, 4, 4])
        for idx in sampled:
            offset = np.array(space.decode(int(idx))) - center_digits
            assert np.sum(offset**2) <= 4.0 + 1e-9

    def test_respects_feature_radius(self):
        space = ConfigSpace("feat")
        space.add_knob(SplitKnob("tile", 64, 3))
        space.add_knob(OtherKnob("u", [0, 512, 1500]))
        center = 10
        radius = 2.5
        sampled = sample_neighborhood(
            space, center, radius=radius, max_points=64, seed=0,
            metric="feature",
        )
        center_feat = space.features_of(center)
        feats = space.feature_matrix(sampled)
        dists = np.linalg.norm(feats - center_feat, axis=1)
        # lattice +-1 steps are always included and may exceed the radius;
        # every *other* point must be inside the ball
        lattice = set()
        digits = np.array(space.decode(center))
        for k, size in enumerate(space.knob_sizes):
            for step in (-1, 1):
                cand = digits.copy()
                cand[k] += step
                if 0 <= cand[k] < size:
                    lattice.add(space.encode(cand))
        for idx, dist in zip(sampled, dists):
            if int(idx) not in lattice:
                assert dist <= radius + 1e-9

    def test_center_never_returned(self):
        space = lattice_space()
        center = space.encode([2, 2, 2])
        sampled = sample_neighborhood(space, center, 2.0, 50, seed=1)
        assert center not in set(sampled.tolist())

    def test_distinct(self):
        space = lattice_space((7, 7, 7))
        sampled = sample_neighborhood(space, space.encode([3, 3, 3]), 3.0,
                                      200, seed=2)
        assert len(set(sampled.tolist())) == len(sampled)

    def test_max_points_cap(self):
        space = lattice_space((9, 9, 9))
        sampled = sample_neighborhood(space, space.encode([4, 4, 4]), 4.0,
                                      10, seed=3)
        assert len(sampled) <= 10

    def test_deterministic(self):
        space = lattice_space((9, 9, 9))
        a = sample_neighborhood(space, 0, 3.0, 40, seed=9)
        b = sample_neighborhood(space, 0, 3.0, 40, seed=9)
        assert (a == b).all()

    def test_zero_radius_empty(self):
        space = lattice_space()
        assert len(sample_neighborhood(space, 0, 0.0, 10, seed=0)) == 0

    def test_invalid_metric(self):
        space = lattice_space()
        with pytest.raises(ValueError):
            sample_neighborhood(space, 0, 1.0, 10, seed=0, metric="cosine")

    def test_real_template_space(self, small_task):
        space = small_task.space
        center = int(space.sample(1, seed=5)[0])
        sampled = sample_neighborhood(space, center, 3.0, 128, seed=4)
        assert len(sampled) > 10
        assert center not in set(sampled.tolist())


class _TableKnob(OtherKnob):
    """A knob whose candidates embed as the given feature rows."""

    def __init__(self, name, table):
        super().__init__(name, list(range(len(table))))
        self._features = np.asarray(table, dtype=np.float64)

    @property
    def feature_dim(self) -> int:
        return self._features.shape[1]


class TestMatchesOracle:
    """Per-knob distance tables accept exactly what the einsum accepts."""

    def test_every_zoo_task(self):
        checked = 0
        for key, space in zoo_spaces():
            for metric in ("feature", "index"):
                for radius in (3.0, 4.5):
                    seed = derive_seed(16, key, metric, radius)
                    center = int(space.sample(1, seed=seed)[0])
                    args = (space, center, radius, 128)
                    got = sample_neighborhood(*args, seed=seed, metric=metric)
                    ref = neighborhood_oracle.sample_neighborhood(
                        *args, seed=seed, metric=metric
                    )
                    assert got.dtype == ref.dtype
                    assert got.tolist() == ref.tolist(), (key, metric, radius)
                    checked += 1
        assert checked == 4 * 145

    @pytest.mark.parametrize("metric", ["feature", "index"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bao_sized_neighbourhoods(self, small_task, metric, seed):
        space = small_task.space
        for center in space.sample(4, seed=seed):
            for radius in (3.0, 4.5):
                args = (space, int(center), radius, 512)
                got = sample_neighborhood(*args, seed=seed, metric=metric)
                ref = neighborhood_oracle.sample_neighborhood(
                    *args, seed=seed, metric=metric
                )
                assert got.tolist() == ref.tolist()

    def test_radius_on_an_attainable_distance_takes_the_einsum(self):
        # candidate (1, 1) sits exactly on the radius for the einsum,
        # which adds 1 + 1e-16 + 1e-16 left to right and gets 1.0; the
        # per-knob tables add 1 + (1e-16 + 1e-16) = 1 + 2**-52 and
        # would reject it without the recheck band
        space = ConfigSpace("on-the-radius")
        space.add_knob(_TableKnob("a", [[0.0], [1.0]]))
        space.add_knob(_TableKnob("b", [[0.0, 0.0], [1e-8, 1e-8]]))
        corner = space.encode([1, 1])
        delta = space.feature_matrix([corner]) - space.feature_matrix([0])
        assert np.einsum("ij,ij->i", delta, delta)[0] == 1.0
        tables = [1.0, float(np.einsum("i,i->", delta[0, 1:], delta[0, 1:]))]
        assert np.sum(tables) > 1.0

        got = sample_neighborhood(space, 0, 1.0, 3, seed=0)
        ref = neighborhood_oracle.sample_neighborhood(space, 0, 1.0, 3, seed=0)
        assert got.tolist() == ref.tolist()
        assert corner in got.tolist()
