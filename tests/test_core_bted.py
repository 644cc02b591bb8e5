"""Tests for repro.core.bted (Algorithm 2)."""

import numpy as np
import pytest

from repro.core import bted
from repro.core.bted import bted_select
from repro.nn.zoo import MODEL_BUILDERS, build_model
from repro.pipeline.tasks import extract_tasks
from repro.space.templates import build_space
from repro.utils.mathx import pairwise_sq_dists
from tests import ted_oracle


class TestBtedSelect:
    def test_returns_m_distinct_indices(self, small_task):
        picked = bted_select(
            small_task.space, m=16, batch_candidates=100, num_batches=3,
            seed=0,
        )
        assert len(picked) == 16
        assert len(set(picked)) == 16
        assert all(0 <= i < len(small_task.space) for i in picked)

    def test_deterministic(self, small_task):
        a = bted_select(small_task.space, m=8, batch_candidates=64,
                        num_batches=2, seed=5)
        b = bted_select(small_task.space, m=8, batch_candidates=64,
                        num_batches=2, seed=5)
        assert a == b

    def test_seed_changes_selection(self, small_task):
        a = bted_select(small_task.space, m=8, batch_candidates=64,
                        num_batches=2, seed=5)
        b = bted_select(small_task.space, m=8, batch_candidates=64,
                        num_batches=2, seed=6)
        assert a != b

    def test_more_dispersed_than_random(self, small_task):
        space = small_task.space
        m = 32
        picked = bted_select(space, m=m, batch_candidates=200,
                             num_batches=4, seed=1)
        bted_spread = _mean_nn_distance(space.feature_matrix(picked))
        random_spreads = []
        for seed in range(5):
            rows = space.sample(m, seed=100 + seed)
            random_spreads.append(
                _mean_nn_distance(space.feature_matrix(rows))
            )
        assert bted_spread > np.mean(random_spreads)

    def test_small_space_returns_everything(self):
        from repro.space.knobs import OtherKnob
        from repro.space.space import ConfigSpace

        space = ConfigSpace("tiny")
        space.add_knob(OtherKnob("k", [0, 1, 2, 3]))
        picked = bted_select(space, m=4, batch_candidates=4, num_batches=2,
                             seed=0)
        assert sorted(picked) == [0, 1, 2, 3]

    def test_bad_args(self, small_task):
        with pytest.raises(ValueError):
            bted_select(small_task.space, m=0)
        with pytest.raises(ValueError):
            bted_select(small_task.space, m=64, batch_candidates=32)
        with pytest.raises(ValueError):
            bted_select(small_task.space, m=4, batch_candidates=8,
                        num_batches=0)

    def test_paper_settings_shape(self, small_task):
        """The exact Sec. V-A configuration: B=10 batches of M=500, m=64."""
        picked = bted_select(
            small_task.space,
            m=64,
            mu=0.1,
            batch_candidates=500,
            num_batches=10,
            seed=3,
        )
        assert len(picked) == 64


@pytest.mark.slow
class TestOraclePicks:
    """BTED at the paper's settings picks what the in-place TED loop picks."""

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_first_task_matches_oracle(self, model, monkeypatch):
        spec = extract_tasks(build_model(model))[0]
        space = build_space(spec.workload, spec.template)
        picked = bted_select(space, seed=0)
        monkeypatch.setattr(bted, "ted_select", ted_oracle.ted_select)
        assert picked == bted_select(space, seed=0)


def _mean_nn_distance(features: np.ndarray) -> float:
    sq = pairwise_sq_dists(features, features)
    np.fill_diagonal(sq, np.inf)
    return float(np.sqrt(sq.min(axis=1)).mean())
