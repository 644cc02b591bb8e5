"""Tests for repro.space.space: addressing, features, sampling."""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.zoo import MODEL_BUILDERS, build_model
from repro.pipeline.tasks import extract_tasks
from repro.space.knobs import BoolKnob, OtherKnob, ReorderKnob, SplitKnob
from repro.space.space import ConfigSpace
from repro.space.templates import build_space

#: content hash of every zoo task's space, winograd tasks included
SPACE_HASHES = Path(__file__).parent / "golden" / "space-hashes.json"


def make_space() -> ConfigSpace:
    space = ConfigSpace("test")
    space.add_knob(SplitKnob("tile_a", 8, 2))  # 4 candidates
    space.add_knob(OtherKnob("unroll", [0, 512, 1500]))  # 3
    space.add_knob(BoolKnob("flag"))  # 2
    return space


class TestAddressing:
    def test_size(self):
        assert len(make_space()) == 4 * 3 * 2

    def test_decode_encode_roundtrip_all(self):
        space = make_space()
        for i in range(len(space)):
            assert space.encode(space.decode(i)) == i

    def test_decode_out_of_range(self):
        space = make_space()
        with pytest.raises(IndexError):
            space.decode(len(space))
        with pytest.raises(IndexError):
            space.decode(-1)

    def test_encode_validates_digits(self):
        space = make_space()
        with pytest.raises(IndexError):
            space.encode([4, 0, 0])
        with pytest.raises(ValueError):
            space.encode([0, 0])

    def test_batch_matches_scalar(self):
        space = make_space()
        indices = np.arange(len(space))
        digits = space.decode_batch(indices)
        for i in indices:
            assert tuple(digits[i]) == space.decode(int(i))
        assert (space.encode_batch(digits) == indices).all()

    def test_duplicate_knob_rejected(self):
        space = make_space()
        with pytest.raises(ValueError):
            space.add_knob(BoolKnob("flag"))

    def test_knob_lookup(self):
        space = make_space()
        assert space.knob("unroll").value(2) == 1500
        with pytest.raises(KeyError):
            space.knob("missing")


class TestEntities:
    def test_values(self):
        space = make_space()
        entity = space.get(0)
        assert entity["tile_a"] == (1, 8)
        assert entity["unroll"] == 0
        assert entity["flag"] == 0

    def test_equality_and_hash(self):
        space = make_space()
        assert space.get(3) == space.get(3)
        assert space.get(3) != space.get(4)
        assert len({space.get(3), space.get(3)}) == 1

    def test_repr(self):
        assert "tile_a" in repr(make_space().get(0))

    def test_iteration_guard(self):
        space = make_space()
        assert len(list(space)) == len(space)

    def test_equality_and_hash_across_space_instances(self):
        # content-based identity: equal knob definitions, equal entities
        a, b = make_space(), make_space()
        assert a.get(3) == b.get(3)
        assert hash(a.get(3)) == hash(b.get(3))
        assert len({a.get(3), b.get(3), a.get(4)}) == 2

    def test_inequality_across_different_spaces(self):
        other = ConfigSpace("test")
        other.add_knob(SplitKnob("tile_a", 16, 2))
        other.add_knob(OtherKnob("unroll", [0, 512, 1500]))
        other.add_knob(BoolKnob("flag"))
        assert make_space().get(3) != other.get(3)

    def test_non_entity_comparison(self):
        assert make_space().get(0) != "config-0"


class TestContentHash:
    def test_stable_across_instances(self):
        assert make_space().content_hash() == make_space().content_hash()

    def test_name_excluded(self):
        renamed = ConfigSpace("other-name")
        renamed.add_knob(SplitKnob("tile_a", 8, 2))
        renamed.add_knob(OtherKnob("unroll", [0, 512, 1500]))
        renamed.add_knob(BoolKnob("flag"))
        assert renamed.content_hash() == make_space().content_hash()

    def test_knob_change_invalidates(self):
        space = make_space()
        before = space.content_hash()
        space.add_knob(BoolKnob("late"))
        assert space.content_hash() != before

    def test_knob_order_matters(self):
        a = ConfigSpace("a")
        a.add_knob(BoolKnob("x"))
        a.add_knob(OtherKnob("y", [0, 1, 2]))
        b = ConfigSpace("b")
        b.add_knob(OtherKnob("y", [0, 1, 2]))
        b.add_knob(BoolKnob("x"))
        assert a.content_hash() != b.content_hash()


class TestFeatures:
    def test_feature_dim(self):
        assert make_space().feature_dim == 2 + 1 + 1

    def test_feature_matrix_matches_scalar(self):
        space = make_space()
        indices = [0, 5, 11, 23]
        matrix = space.feature_matrix(indices)
        for row, idx in zip(matrix, indices):
            assert np.allclose(row, space.features_of(idx))

    def test_empty_feature_matrix(self):
        space = make_space()
        assert space.feature_matrix([]).shape == (0, space.feature_dim)

    def test_features_from_digits(self):
        space = make_space()
        digits = space.decode_batch(np.array([7, 13]))
        feats = space.features_from_digits(digits)
        assert np.allclose(feats, space.feature_matrix([7, 13]))

    def test_distinct_configs_distinct_features(self):
        # the three knobs chosen here embed injectively
        space = make_space()
        matrix = space.feature_matrix(list(range(len(space))))
        unique_rows = np.unique(matrix, axis=0)
        assert len(unique_rows) == len(space)


def zoo_spaces():
    """``(key, space)`` for every task of every zoo model, winograd too."""
    for name in MODEL_BUILDERS:
        for spec in extract_tasks(build_model(name), include_winograd=True):
            key = f"{name}/T{spec.task_id + 1}/{spec.template}"
            yield key, build_space(spec.workload, spec.template)


def stacked_tables(space):
    """The per-candidate oracle: one ``knob.features(i)`` call per row."""
    return [
        np.stack([knob.features(i) for i in range(len(knob))])
        for knob in space.knobs
    ]


class TestFeatureTables:
    """``add_knob`` takes each knob's whole table in one call."""

    def test_zoo_tables_equal_the_per_candidate_stack(self):
        checked = 0
        for key, space in zoo_spaces():
            for knob, table, oracle in zip(
                space.knobs, space._feature_tables, stacked_tables(space)
            ):
                assert table.dtype == oracle.dtype, key
                assert table.shape == oracle.shape, key
                assert np.array_equal(table, oracle), (key, knob.name)
                # the space owns its table: writing to it cannot reach
                # the knob
                assert not np.shares_memory(table, knob.feature_table())
            # and a pickled space (checkpoints hold one) is the same
            # bytes as a space built from the stacked tables
            reference = ConfigSpace.__new__(ConfigSpace)
            reference.__dict__.update(space.__dict__)
            reference._feature_tables = stacked_tables(space)
            assert pickle.dumps(space) == pickle.dumps(reference), key
            checked += 1
        assert checked == sum(
            len(extract_tasks(build_model(name), include_winograd=True))
            for name in MODEL_BUILDERS
        )

    def test_zoo_content_hashes_match_the_fixture(self, update_golden):
        hashes = {key: space.content_hash() for key, space in zoo_spaces()}
        assert any(key.endswith("/winograd") for key in hashes)
        if update_golden:
            SPACE_HASHES.write_text(
                json.dumps(hashes, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            pytest.skip(f"updated golden fixture {SPACE_HASHES.name}")
        assert hashes == json.loads(SPACE_HASHES.read_text(encoding="utf-8"))

    def test_reorder_knob_table(self):
        knob = ReorderKnob("order", ["a", "b", "c"])
        space = ConfigSpace("reorder")
        space.add_knob(knob)
        oracle = np.stack([knob.features(i) for i in range(len(knob))])
        assert np.array_equal(space._feature_tables[0], oracle)
        assert np.array_equal(knob.feature_table(), oracle)

    def test_pickle_leaves_out_the_cached_hash(self):
        fresh = pickle.dumps(make_space())
        hashed = make_space()
        digest = hashed.content_hash()
        assert pickle.dumps(hashed) == fresh
        assert hashed.content_hash() == digest  # the live cache stays
        assert pickle.loads(fresh).content_hash() == digest


class TestSampling:
    def test_sample_distinct(self):
        space = make_space()
        indices = space.sample(10, seed=0)
        assert len(set(indices.tolist())) == 10

    def test_sample_more_than_space(self):
        space = make_space()
        indices = space.sample(1000, seed=0)
        assert sorted(indices.tolist()) == list(range(len(space)))

    def test_sample_deterministic(self):
        space = make_space()
        a = space.sample(8, seed=3)
        b = space.sample(8, seed=3)
        assert (a == b).all()

    def test_sample_large_space_distinct(self, small_task):
        indices = small_task.space.sample(500, seed=1)
        assert len(set(indices.tolist())) == 500

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_walk_changes_one_knob(self, seed):
        space = make_space()
        start = int(np.random.default_rng(seed).integers(0, len(space)))
        moved = space.random_walk(start, seed=seed)
        a = space.decode(start)
        b = space.decode(moved)
        assert sum(x != y for x, y in zip(a, b)) == 1

    def test_random_walk_on_singleton_space(self):
        space = ConfigSpace()
        space.add_knob(OtherKnob("only", [42]))
        assert space.random_walk(0, seed=0) == 0

    def test_repr(self):
        assert "ConfigSpace" in repr(make_space())
