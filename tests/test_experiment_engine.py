"""The experiment engine's one cell path, inline and on the process pool.

``ExperimentEngine.run_cells`` loads finished ``.done`` files and maps
one module-level cell function over the rest: inline at ``jobs=1``, on
a process pool otherwise.  Both run the same function on the same
inputs, so the pool must reproduce the inline records and summary
files, and a rerun on the same ``checkpoint_dir`` must load what is
there and recompute only what is missing.
"""

import json

import pytest

from repro.experiments.engine import ExperimentCell, ExperimentEngine
from repro.experiments.settings import ExperimentSettings
from repro.hardware.measure import SimulatedTask
from repro.nn.workloads import DenseWorkload
from repro.obs import DURATION_FIELDS, write_summary_json

SETTINGS = ExperimentSettings(
    init_size=6, batch_size=8, batch_candidates=24, early_stopping=None
)


def _cells():
    task = SimulatedTask(
        DenseWorkload(batch=1, in_features=64, out_features=48), seed=7
    )
    return [
        ExperimentCell(
            arm=arm, task=task, trial=trial, n_trial=12, key=(arm, trial)
        )
        for arm in ("random", "bted")
        for trial in (0, 1)
    ]


def _traces(results):
    return [
        [(r.step, r.config_index, r.gflops, r.error) for r in res.records]
        for res in results
    ]


def _deterministic(path):
    """A summary file without its wall-clock fields."""
    data = json.loads(path.read_text())
    for name in DURATION_FIELDS:
        data.pop(name, None)
    for arm in data.get("by_arm", {}).values():
        arm.pop("wall_s")
    return data


def _run(jobs, checkpoint_dir=None, summary_dir=None):
    with ExperimentEngine(
        SETTINGS,
        jobs=jobs,
        checkpoint_dir=None if checkpoint_dir is None else str(checkpoint_dir),
        summary_dir=None if summary_dir is None else str(summary_dir),
    ) as engine:
        return engine.run_cells(_cells())


def _identity(paths):
    """(inode, mtime) per file: an atomic rewrite changes the inode."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in paths}


@pytest.mark.slow
class TestEngineJobs:
    def test_pool_equals_inline(self, tmp_path):
        inline = _run(1, summary_dir=tmp_path / "inline")
        pooled = _run(2, summary_dir=tmp_path / "pool")
        assert _traces(pooled) == _traces(inline)
        names = sorted(p.name for p in (tmp_path / "inline").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "pool").iterdir())
        assert len(names) == len(_cells()) + 1  # cells + summary.json
        # per-cell files and the aggregate match apart from wall clock
        for name in names:
            assert _deterministic(tmp_path / "pool" / name) == (
                _deterministic(tmp_path / "inline" / name)
            ), name
        aggregate = json.loads((tmp_path / "pool" / "summary.json").read_text())
        assert aggregate["cells"] == aggregate["runs"] == len(_cells())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rerun_loads_every_cell(self, tmp_path, jobs):
        ckpt, summaries = tmp_path / "ckpt", tmp_path / "summaries"
        first = _run(jobs, ckpt, summaries)
        done = sorted(ckpt.glob("*.done"))
        assert len(done) == len(_cells())
        assert sorted(p.name for p in ckpt.iterdir()) == [
            p.name for p in done
        ]
        mtimes = {p: p.stat().st_mtime_ns for p in done}
        cell_files = sorted(summaries.glob("cell-*.summary.json"))
        before = _identity(cell_files)
        second = _run(jobs, ckpt, summaries)
        assert _traces(second) == _traces(first)
        assert {p: p.stat().st_mtime_ns for p in done} == mtimes
        # no cell ran, so no cell rewrote its summary
        assert _identity(cell_files) == before

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rerun_recomputes_deleted_cells(self, tmp_path, jobs):
        ckpt, summaries = tmp_path / "ckpt", tmp_path / "summaries"
        first = _run(jobs, ckpt, summaries)
        done = sorted(ckpt.glob("*.done"))
        deleted, kept = done[1:3], done[:1] + done[3:]
        for path in deleted:
            path.unlink()
        kept_mtimes = {p: p.stat().st_mtime_ns for p in kept}
        cell_files = sorted(summaries.glob("cell-*.summary.json"))
        before = _identity(cell_files)
        second = _run(jobs, ckpt, summaries)
        assert _traces(second) == _traces(first)
        assert all(p.exists() for p in deleted)
        assert {p: p.stat().st_mtime_ns for p in kept} == kept_mtimes
        # exactly the two deleted cells ran again and rewrote summaries
        after = _identity(cell_files)
        rewritten = sorted(n for n in before if after[n] != before[n])
        assert rewritten == sorted(
            p.name.replace(".done", ".summary.json") for p in deleted
        )

    def test_map_keeps_submission_order_on_the_pool(self):
        with ExperimentEngine(SETTINGS, jobs=2) as engine:
            out = engine.map(abs, [-i for i in range(11)])
        assert out == list(range(11))


class TestCellFileNames:
    """Both grids name a cell's files through one slug rule."""

    def test_engine_grid(self, tmp_path):
        ckpt, summaries = tmp_path / "ckpt", tmp_path / "summaries"
        _run(1, ckpt, summaries)
        # the task is named "dense@dense_48": "@" is not kept
        slugs = [
            f"{arm}-dense_dense_48-t{trial}"
            for arm in ("bted", "random")
            for trial in (0, 1)
        ]
        assert sorted(p.name for p in ckpt.iterdir()) == [
            f"cell-{slug}.done" for slug in slugs
        ]
        assert sorted(p.name for p in summaries.iterdir()) == [
            f"cell-{slug}.summary.json" for slug in slugs
        ] + ["summary.json"]

    def test_table1_grid(self, tmp_path, monkeypatch):
        import repro.experiments.table1 as table1

        def cell(payload):
            model, arm, trial, _settings, _device, summary_path = payload
            write_summary_json(
                summary_path,
                {"model": model, "arm": arm, "trial": trial, "tasks": []},
            )
            return 1.0, 0.1

        monkeypatch.setattr(table1, "_table1_cell", cell)
        table1.run_table1(
            models=("resnet-18", "my net/v2"),
            arms=("autotvm", "bted+bao"),
            num_trials=2,
            summary_dir=str(tmp_path),
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"cell-{model}-{arm}-t{trial}.summary.json"
            for model in ("resnet-18", "my_net_v2")
            for arm in ("autotvm", "bted+bao")
            for trial in (0, 1)
        ) + ["summary.json"]
