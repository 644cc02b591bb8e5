"""Measurement executors: the serial backend, spec resolution, caching.

The executor contract (``docs/EXECUTION.md``) promises that every
executor composition produces the measurement stream the serial path
would have produced, because noise is a pure function of the
measurement ordinal.  These tests pin that promise for the factory
spec, plus the cache semantics: hits return the original result
unchanged, keys keep different task environments apart, and the store
round-trips through disk.
"""

import pickle

import pytest

from repro.core import make_tuner
from repro.hardware.executor import (
    CachingExecutor,
    MeasureCache,
    MeasureExecutor,
    SerialExecutor,
    build_executor,
)
from repro.hardware.measure import Measurer


def _signature(results):
    """Comparable projection of a list of MeasureResults."""
    return [
        (r.config_index, r.gflops, r.mean_time_s, r.error_kind, r.error_msg)
        for r in results
    ]


def _caching_factory(measurer):
    """Executor factory used by determinism tests (module-level: picklable)."""
    return CachingExecutor(SerialExecutor(measurer))


class TestSerialExecutor:
    def test_matches_direct_measurer(self, dense_task):
        direct = Measurer(dense_task, seed=3)
        wrapped = SerialExecutor(Measurer(dense_task, seed=3))
        batch = [0, 5, 9, 5]
        assert _signature(wrapped.measure_batch(batch)) == _signature(
            direct.measure_batch(batch)
        )
        assert wrapped.num_measurements == len(batch)

    def test_context_manager(self, dense_task):
        with SerialExecutor(Measurer(dense_task, seed=3)) as ex:
            assert ex.measure_batch([1])[0].config_index == 1


class TestCachingExecutor:
    def test_hits_return_identical_results(self, dense_task):
        ex = CachingExecutor(SerialExecutor(Measurer(dense_task, seed=3)))
        first = ex.measure_batch([2, 8, 2, 13])
        # duplicates inside one batch are scanned before any measuring,
        # so both count as misses (matching serial re-measurement)
        assert ex.hits == 0 and ex.misses == 4
        again = ex.measure_batch([13, 8, 2])
        assert ex.hits == 3
        by_index = {r.config_index: r for r in first}
        assert _signature(again) == _signature(
            [by_index[13], by_index[8], by_index[2]]
        )

    def test_misses_keep_relative_order(self, dense_task):
        ex = CachingExecutor(SerialExecutor(Measurer(dense_task, seed=3)))
        ex.measure_batch([5])
        mixed = ex.measure_batch([1, 5, 2])
        assert [r.config_index for r in mixed] == [1, 5, 2]
        assert ex.misses == 3 and ex.hits == 1

    def test_keys_distinguish_tasks(self, small_task, dense_task):
        """Two environments share one cache without colliding."""
        cache = MeasureCache()
        ex_a = CachingExecutor(
            SerialExecutor(Measurer(small_task, seed=3)), cache=cache
        )
        ex_b = CachingExecutor(
            SerialExecutor(Measurer(dense_task, seed=3)), cache=cache
        )
        res_a = ex_a.measure_batch([0, 1])
        res_b = ex_b.measure_batch([0, 1])
        assert ex_b.hits == 0, "cross-task cache hit"
        assert len(cache) == 4
        assert _signature(res_a) != _signature(res_b)

    def test_disk_round_trip(self, dense_task, tmp_path):
        path = str(tmp_path / "measure.cache")
        cache = MeasureCache(path=path)
        ex = CachingExecutor(
            SerialExecutor(Measurer(dense_task, seed=3)), cache=cache
        )
        original = ex.measure_batch([4, 9, 11])
        ex.close()  # close() persists when the cache has a path

        reloaded = MeasureCache(path=path)
        assert len(reloaded) == 3
        ex2 = CachingExecutor(
            SerialExecutor(Measurer(dense_task, seed=3)), cache=reloaded
        )
        served = ex2.measure_batch([4, 9, 11])
        assert ex2.hits == 3 and ex2.misses == 0
        assert _signature(served) == _signature(original)

    def test_save_requires_a_path(self):
        with pytest.raises(ValueError):
            MeasureCache().save()

    def test_results_are_picklable(self, dense_task):
        ex = SerialExecutor(Measurer(dense_task, seed=3))
        results = ex.measure_batch([0, 1, 2])
        assert _signature(pickle.loads(pickle.dumps(results))) == _signature(
            results
        )


class TestBuildExecutor:
    def test_spec_resolution(self, dense_task):
        measurer = Measurer(dense_task, seed=3)
        assert isinstance(build_executor(measurer), SerialExecutor)
        ready = SerialExecutor(measurer)
        assert build_executor(measurer, ready) is ready
        built = build_executor(measurer, _caching_factory)
        assert isinstance(built, CachingExecutor)
        assert isinstance(built.inner, SerialExecutor)
        assert built.measurer is measurer

    def test_cache_wrapping(self, dense_task):
        measurer = Measurer(dense_task, seed=3)
        cache = MeasureCache()
        ex = build_executor(measurer, None, cache=cache)
        assert isinstance(ex, CachingExecutor)
        assert ex.cache is cache
        # an executor that already caches is not double-wrapped
        assert build_executor(measurer, ex, cache=cache) is ex

    def test_unknown_spec_raises(self, dense_task):
        # the retired string specs are unknown too, also to tuners
        for spec in ("threads", "serial", "parallel"):
            with pytest.raises(ValueError, match="unknown executor spec"):
                build_executor(Measurer(dense_task, seed=3), spec)
            with pytest.raises(ValueError, match="unknown executor spec"):
                make_tuner("random", dense_task, executor=spec)

    def test_base_class_is_abstract(self, dense_task):
        base = MeasureExecutor()
        with pytest.raises(NotImplementedError):
            base.measure_batch([0])


class TestTunerParallelDeterminism:
    """Same seed => identical TrialRecord sequences, default vs factory spec."""

    @pytest.mark.parametrize("arm", ["autotvm", "bted", "bted+bao"])
    def test_records_identical_across_backends(
        self, arm, small_task, dense_task
    ):
        kwargs = {
            "autotvm": {"init_size": 8, "sa_chains": 16, "sa_steps": 10},
            "bted": {"init_size": 8, "batch_candidates": 32, "num_batches": 2},
            "bted+bao": {
                "init_size": 8,
                "batch_candidates": 32,
                "num_batches": 2,
            },
        }[arm]
        for task in (small_task, dense_task):
            runs = []
            for spec in (None, _caching_factory):
                tuner = make_tuner(
                    arm, task, seed=11, executor=spec, **kwargs
                )
                try:
                    result = tuner.tune(n_trial=20, early_stopping=None)
                finally:
                    tuner.shutdown()
                runs.append(result.records)
            assert runs[0] == runs[1], (arm, task.name)
