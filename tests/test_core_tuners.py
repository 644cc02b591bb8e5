"""Tests for the concrete tuner arms (random/grid/autotvm/bted/bted+bao)."""

import numpy as np
import pytest

from repro.core import TUNER_REGISTRY, make_tuner
from repro.core.bao import BaoSettings
from repro.core.tuners.autotvm import AutoTVMTuner
from repro.core.tuners.bted import BTEDTuner
from repro.core.tuners.btedbao import BTEDBAOTuner
from repro.core.tuners.grid import GridTuner
from repro.learning.transfer import TransferHistory


class TestRegistry:
    def test_all_arms_present(self):
        assert set(TUNER_REGISTRY) == {
            "random",
            "grid",
            "ga",
            "autotvm",
            "bted",
            "bted+as",
            "bted+bao",
            "bted+bao+as",
            "bted+bao+droplet",
            "droplet",
        }

    def test_make_tuner(self, small_task):
        tuner = make_tuner("AutoTVM", small_task, seed=1)
        assert isinstance(tuner, AutoTVMTuner)

    def test_unknown_arm(self, small_task):
        with pytest.raises(KeyError):
            make_tuner("bayesopt", small_task)


class TestGridTuner:
    def test_covers_space_evenly(self, dense_task):
        tuner = GridTuner(dense_task, batch_size=32, planned_trials=64)
        result = tuner.tune(n_trial=64, early_stopping=None)
        indices = sorted(r.config_index for r in result.records)
        strides = np.diff(indices)
        assert len(set(strides.tolist())) == 1  # constant stride

    def test_deterministic(self, dense_task):
        a = GridTuner(dense_task, planned_trials=50).tune(
            n_trial=20, early_stopping=None
        )
        b = GridTuner(dense_task, planned_trials=50).tune(
            n_trial=20, early_stopping=None
        )
        assert [r.config_index for r in a.records] == [
            r.config_index for r in b.records
        ]


class TestAutoTVMTuner:
    def test_initializes_with_init_size(self, small_task):
        tuner = AutoTVMTuner(small_task, seed=0, init_size=24, batch_size=8)
        result = tuner.tune(n_trial=24, early_stopping=None)
        assert result.num_measurements == 24

    def test_improves_over_random(self, small_task):
        budget = 160
        random_best = make_tuner("random", small_task, seed=3).tune(
            n_trial=budget, early_stopping=None
        ).best_gflops
        autotvm_best = make_tuner("autotvm", small_task, seed=3).tune(
            n_trial=budget, early_stopping=None
        ).best_gflops
        assert autotvm_best >= 0.95 * random_best

    def test_epsilon_greedy_validation(self, small_task):
        with pytest.raises(ValueError):
            AutoTVMTuner(small_task, epsilon_greedy=1.0)

    def test_transfer_roundtrip(self, small_task):
        history = TransferHistory()
        tuner = AutoTVMTuner(small_task, seed=0, transfer=history)
        tuner.tune(n_trial=96, early_stopping=None)
        tuner.export_history()
        assert len(history) == 1
        assert history.num_samples > 0

    def test_export_without_history_raises(self, small_task):
        tuner = AutoTVMTuner(small_task, seed=0)
        with pytest.raises(RuntimeError):
            tuner.export_history()


class TestBTEDTuner:
    def test_init_is_bted_selection(self, small_task):
        from repro.core.bted import bted_select

        tuner = BTEDTuner(
            small_task, seed=0, init_size=16, batch_candidates=100,
            num_batches=2,
        )
        expected = bted_select(
            small_task.space,
            m=16,
            mu=0.1,
            batch_candidates=100,
            num_batches=2,
            seed=tuner.rng_pool.seed_for("bted-init"),
        )
        assert tuner._generate_initial() == expected

    def test_runs_to_budget(self, small_task):
        tuner = BTEDTuner(
            small_task, seed=0, init_size=16, batch_size=16,
            batch_candidates=64, num_batches=2,
        )
        result = tuner.tune(n_trial=48, early_stopping=None)
        assert result.num_measurements == 48


@pytest.mark.parametrize(
    "arm", ["bted", "bted+as", "bted+bao", "bted+bao+as", "bted+bao+droplet"]
)
@pytest.mark.parametrize("mu", [0.0, -0.1])
def test_bted_arms_reject_nonpositive_mu(small_task, arm, mu):
    with pytest.raises(ValueError, match="mu"):
        make_tuner(arm, small_task, seed=0, mu=mu)


@pytest.mark.slow
class TestBTEDBAOTuner:
    def make(self, task, **bao_kwargs):
        return BTEDBAOTuner(
            task,
            seed=0,
            init_size=16,
            batch_candidates=64,
            num_batches=2,
            bao_settings=BaoSettings(
                neighborhood_size=64, **bao_kwargs
            ),
        )

    def test_batch_size_is_one_after_init(self, small_task):
        tuner = self.make(small_task)
        result = tuner.tune(n_trial=24, early_stopping=None)
        # 16 init + 8 single-point BAO iterations
        assert result.num_measurements == 24
        assert tuner.batch_size == 1

    def test_radius_adapts_during_run(self, small_task):
        tuner = self.make(small_task)
        tuner.tune(n_trial=40, early_stopping=None)
        assert tuner.bao.last_radius in (
            pytest.approx(3.0),
            pytest.approx(4.5),
        )

    def test_finds_good_config(self, small_task):
        budget = 160
        bao_best = self.make(small_task).tune(
            n_trial=budget, early_stopping=None
        ).best_gflops
        random_best = make_tuner("random", small_task, seed=0).tune(
            n_trial=budget, early_stopping=None
        ).best_gflops
        assert bao_best > 0.9 * random_best

    def test_no_duplicates(self, small_task):
        tuner = self.make(small_task)
        result = tuner.tune(n_trial=48, early_stopping=None)
        indices = [r.config_index for r in result.records]
        assert len(set(indices)) == len(indices)

    def test_invalid_init_size(self, small_task):
        with pytest.raises(ValueError):
            BTEDBAOTuner(small_task, init_size=0)
