"""Tests for repro.tlog: signatures, the database, and warm plans."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.hardware.device import GTX_1080_TI, TITAN_V
from repro.nn.workloads import Conv2DWorkload, DenseWorkload
from repro.space.space import ConfigEntity
from repro.space.templates import build_space
from repro.tlog import (
    TLOG_VERSION,
    TaskSignature,
    TlogRecord,
    TuningLogDB,
    build_warm_start,
    shape_distance,
)
from repro.tlog.db import TlogVersionError
from repro.tlog.warm import project_records


class _Killed(Exception):
    """Stands in for the process dying at the patched point."""


def conv(channels=64, size=28):
    return Conv2DWorkload(
        batch=1, in_channels=channels, out_channels=channels,
        height=size, width=size, kernel_h=3, kernel_w=3,
        pad_h=1, pad_w=1,
    )


def sig_of(workload, device=GTX_1080_TI, template="direct"):
    return TaskSignature.of(
        workload, build_space(workload, template), device, template=template
    )


def records_for(space, n=8, base=100.0):
    """n valid records over the first n configs of ``space``."""
    digits = space.decode_batch(np.arange(n))
    return [
        TlogRecord(
            config_index=i,
            knob_indices=tuple(int(d) for d in digits[i]),
            gflops=base + i,
            tuner="test",
        )
        for i in range(n)
    ]


class TestSignature:
    def test_stable_across_instances(self):
        a, b = sig_of(conv()), sig_of(conv())
        assert a == b
        assert a.key == b.key

    def test_key_varies_with_shape(self):
        assert sig_of(conv(64)).key != sig_of(conv(128)).key

    def test_key_varies_with_device(self):
        assert sig_of(conv()).key != sig_of(conv(), device=TITAN_V).key

    def test_transferable_same_kind(self):
        assert sig_of(conv(64)).transferable_to(sig_of(conv(128)))

    def test_not_transferable_across_kinds(self):
        dense = DenseWorkload(1, 512, 1000)
        assert not sig_of(dense).transferable_to(sig_of(conv()))

    def test_roundtrip_dict(self):
        sig = sig_of(conv())
        assert TaskSignature.from_dict(sig.to_dict()) == sig

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ValueError):
            TaskSignature.from_dict({"kind": "conv2d"})

    def test_shape_distance(self):
        a, b = sig_of(conv(64)), sig_of(conv(64))
        assert shape_distance(a, b) == 0.0
        far = sig_of(conv(128))
        near = sig_of(conv(96))
        assert 0 < shape_distance(a, near) < shape_distance(a, far)

    def test_shape_distance_infinite_across_field_sets(self):
        dense = sig_of(DenseWorkload(1, 512, 1000))
        assert shape_distance(dense, sig_of(conv())) == float("inf")


class TestContentHash:
    def test_config_entity_hash_across_space_instances(self):
        w = conv()
        s1, s2 = build_space(w), build_space(w)
        assert hash(ConfigEntity(s1, 7)) == hash(ConfigEntity(s2, 7))
        assert ConfigEntity(s1, 7) == ConfigEntity(s2, 7)
        assert ConfigEntity(s1, 7) != ConfigEntity(s2, 8)

    def test_different_workloads_differ(self):
        assert (
            build_space(conv(64)).content_hash()
            != build_space(conv(128)).content_hash()
        )


class TestDB:
    def test_roundtrip(self, tmp_path):
        sig = sig_of(conv())
        space = build_space(conv())
        db = TuningLogDB(tmp_path / "db")
        recs = records_for(space)
        assert db.record_task(sig, recs) == len(recs)
        again = TuningLogDB.load(tmp_path / "db")
        assert again.lookup_exact(sig) == recs
        assert again.best_exact(sig).gflops == recs[-1].gflops

    def test_lookup_missing_is_none(self, tmp_path):
        db = TuningLogDB(tmp_path / "db")
        assert db.lookup_exact(sig_of(conv())) is None
        assert db.best_exact(sig_of(conv())) is None

    def test_load_requires_index(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TuningLogDB.load(tmp_path / "nope")

    def test_run_key_idempotent(self, tmp_path):
        sig = sig_of(conv())
        space = build_space(conv())
        db = TuningLogDB(tmp_path / "db")
        recs = records_for(space)
        assert db.record_task(sig, recs, run_key="r1") == len(recs)
        assert db.record_task(sig, recs, run_key="r1") == 0
        assert len(db.lookup_exact(sig)) == len(recs)
        # idempotency survives reopening
        again = TuningLogDB.load(tmp_path / "db")
        assert again.record_task(sig, recs, run_key="r1") == 0

    def test_rejects_future_version(self, tmp_path):
        db = TuningLogDB(tmp_path / "db")
        db.record_task(sig_of(conv()), records_for(build_space(conv())))
        index = tmp_path / "db" / "index.json"
        doc = json.loads(index.read_text())
        doc["version"] = TLOG_VERSION + 1
        index.write_text(json.dumps(doc))
        with pytest.raises(TlogVersionError, match="not readable"):
            TuningLogDB.load(tmp_path / "db")

    def test_torn_final_line_dropped(self, tmp_path):
        sig = sig_of(conv())
        space = build_space(conv())
        db = TuningLogDB(tmp_path / "db")
        recs = records_for(space, n=4)
        db.record_task(sig, recs)
        seg = next((tmp_path / "db" / "segments").glob("*.jsonl"))
        with seg.open("a") as fh:
            fh.write('{"config_index": 3, "gf')  # torn mid-append
        assert TuningLogDB.load(tmp_path / "db").lookup_exact(sig) == recs

    def test_crash_between_append_and_index_rewrite(
        self, tmp_path, monkeypatch
    ):
        # the index is the commit record: an append whose index rewrite
        # never happened is invisible, and contributing again under the
        # same run key stores each record once
        committed = records_for(build_space(conv()), n=4)
        sig = sig_of(conv())
        db = TuningLogDB(tmp_path / "db")
        db.record_task(sig, committed, run_key="earlier")
        recs = records_for(build_space(conv()), n=10, base=200.0)

        def killed(self):
            raise _Killed

        monkeypatch.setattr(TuningLogDB, "flush", killed)
        with pytest.raises(_Killed):
            db.record_task(sig, recs, run_key="run")
        monkeypatch.undo()
        reopened = TuningLogDB.load(tmp_path / "db")
        assert reopened.lookup_exact(sig) == committed
        assert reopened.record_task(sig, recs, run_key="run") == len(recs)
        assert reopened.lookup_exact(sig) == committed + recs
        again = TuningLogDB.load(tmp_path / "db")
        assert again.lookup_exact(sig) == committed + recs
        assert again.top_k_similar(sig, k=1)[0][1] == committed + recs
        assert again.record_task(sig, recs, run_key="run") == 0

    def test_crash_before_a_new_segment_is_indexed(
        self, tmp_path, monkeypatch
    ):
        sig = sig_of(conv())
        recs = records_for(build_space(conv()), n=10)
        db = TuningLogDB(tmp_path / "db")
        monkeypatch.setattr(TuningLogDB, "flush", lambda self: None)
        db.record_task(sig, recs, run_key="run")
        monkeypatch.undo()
        reopened = TuningLogDB(tmp_path / "db")
        assert reopened.lookup_exact(sig) is None
        assert reopened.record_task(sig, recs, run_key="run") == len(recs)
        assert TuningLogDB.load(tmp_path / "db").lookup_exact(sig) == recs

    def test_index_without_byte_lengths_still_loads(
        self, tmp_path, monkeypatch
    ):
        # an index written before byte lengths were kept (indented, as
        # it used to be) commits each segment's first ``count`` lines,
        # and loading it reads no segment
        sig = sig_of(conv())
        recs = records_for(build_space(conv()), n=6)
        db = TuningLogDB(tmp_path / "db")
        db.record_task(sig, recs[:4], run_key="old")
        index = tmp_path / "db" / "index.json"
        doc = json.loads(index.read_text())
        for entry in doc["segments"].values():
            del entry["bytes"]
        index.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        seg = next((tmp_path / "db" / "segments").glob("*.jsonl"))
        with seg.open("a") as fh:
            fh.write(recs[5].to_json() + "\n")  # appended, never indexed
        opened = []
        real_open = Path.open

        def tracking_open(path, *args, **kwargs):
            opened.append(path.name)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", tracking_open)
        old = TuningLogDB.load(tmp_path / "db")
        assert seg.name not in opened
        assert old.lookup_exact(sig) == recs[:4]
        assert opened.count(seg.name) == 2  # measured once, then read
        monkeypatch.undo()
        assert old.record_task(sig, recs[4:], run_key="new") == 2
        assert TuningLogDB.load(tmp_path / "db").lookup_exact(sig) == recs

    def test_index_is_written_compactly(self, tmp_path):
        db = TuningLogDB(tmp_path / "db")
        db.record_task(sig_of(conv()), records_for(build_space(conv())))
        text = (tmp_path / "db" / "index.json").read_text()
        assert text.count("\n") == 1
        doc = json.loads(text)
        assert json.dumps(doc, sort_keys=True) + "\n" == text

    def test_malformed_interior_line_raises(self, tmp_path):
        sig = sig_of(conv())
        db = TuningLogDB(tmp_path / "db")
        db.record_task(sig, records_for(build_space(conv()), n=2))
        seg = next((tmp_path / "db" / "segments").glob("*.jsonl"))
        lines = seg.read_text().splitlines()
        lines.insert(1, "not json {")
        seg.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":2"):
            TuningLogDB.load(tmp_path / "db").lookup_exact(sig)

    def test_top_k_similar_orders_by_shape(self, tmp_path):
        db = TuningLogDB(tmp_path / "db")
        for channels in (64, 96, 256):
            w = conv(channels)
            db.record_task(sig_of(w), records_for(build_space(w), n=3))
        target = sig_of(conv(80))
        hits = db.top_k_similar(target, k=2)
        # log2 distance: 96 is nearer to 80 than 64; 256 misses the cut
        assert [dict(s.shape)["in_channels"] for s, _ in hits] == [96, 64]

    def test_top_k_similar_exact_first(self, tmp_path):
        db = TuningLogDB(tmp_path / "db")
        for channels in (64, 96):
            w = conv(channels)
            db.record_task(sig_of(w), records_for(build_space(w), n=3))
        hits = db.top_k_similar(sig_of(conv(64)), k=2)
        assert hits[0][0] == sig_of(conv(64))
        without = db.top_k_similar(
            sig_of(conv(64)), k=2, include_exact=False
        )
        assert all(s != sig_of(conv(64)) for s, _ in without)

    def test_top_k_same_device_filter(self, tmp_path):
        db = TuningLogDB(tmp_path / "db")
        w = conv()
        db.record_task(
            sig_of(w, device=TITAN_V), records_for(build_space(w), n=3)
        )
        target = sig_of(w, device=GTX_1080_TI)
        assert db.top_k_similar(target, k=4)  # cross-device by default
        assert not db.top_k_similar(target, k=4, same_device=True)

    def test_top_k_cross_device_filter(self, tmp_path):
        db = TuningLogDB(tmp_path / "db")
        w = conv()
        db.record_task(
            sig_of(w, device=GTX_1080_TI), records_for(build_space(w), n=3)
        )
        db.record_task(
            sig_of(w, device=TITAN_V), records_for(build_space(w), n=3)
        )
        target = sig_of(w, device=GTX_1080_TI)
        foreign = db.top_k_similar(target, k=4, cross_device=True)
        assert foreign
        assert all(
            s.device_class != target.device_class for s, _ in foreign
        )

    def test_top_k_device_filters_are_exclusive(self, tmp_path):
        db = TuningLogDB(tmp_path / "db")
        with pytest.raises(ValueError, match="mutually exclusive"):
            db.top_k_similar(
                sig_of(conv()), k=4, same_device=True, cross_device=True
            )


class TestWarmPlan:
    def test_projection_clamps_digits(self):
        small, large = conv(64, 14), conv(64, 56)
        sspace, lspace = build_space(small), build_space(large)
        recs = records_for(lspace, n=16)
        indices, scores = project_records(recs, sspace)
        assert len(indices) == len(scores) == 16
        assert all(0 <= i < len(sspace) for i in indices)
        sizes = np.asarray(sspace.knob_sizes)
        assert (sspace.decode_batch(indices) < sizes[None, :]).all()

    def test_projection_drops_bad_records(self):
        space = build_space(conv())
        bad = TlogRecord(0, (0,), 100.0)  # wrong digit count
        err = TlogRecord(
            1, tuple([0] * len(space.knob_sizes)), 0.0, error="boom"
        )
        indices, _ = project_records([bad, err], space)
        assert len(indices) == 0

    def test_exact_plan(self, tmp_path):
        w = conv()
        space = build_space(w)
        db = TuningLogDB(tmp_path / "db")
        db.record_task(sig_of(w), records_for(space, n=12))
        plan = build_warm_start(db, sig_of(w), space, k=4)
        assert plan.source == "exact"
        assert len(plan.configs) == 4
        # best stored config (highest gflops = last record) leads
        assert plan.configs[0] == 11
        assert plan.history is not None and plan.history_samples == 12

    def test_similar_plan(self, tmp_path):
        src, dst = conv(64), conv(96)
        db = TuningLogDB(tmp_path / "db")
        db.record_task(sig_of(src), records_for(build_space(src), n=6))
        plan = build_warm_start(db, sig_of(dst), build_space(dst), k=4)
        assert plan is not None and plan.source == "similar"

    def test_empty_db_returns_none(self, tmp_path):
        w = conv()
        db = TuningLogDB(tmp_path / "db")
        assert build_warm_start(db, sig_of(w), build_space(w)) is None

    def test_deterministic(self, tmp_path):
        w = conv()
        space = build_space(w)
        db = TuningLogDB(tmp_path / "db")
        db.record_task(sig_of(w), records_for(space, n=12))
        a = build_warm_start(db, sig_of(w), space, k=4)
        b = build_warm_start(
            TuningLogDB.load(tmp_path / "db"), sig_of(w), space, k=4
        )
        assert a.configs == b.configs
        assert a.history_samples == b.history_samples

    def test_device_filtered_plans(self, tmp_path):
        w = conv()
        space = build_space(w)
        db = TuningLogDB(tmp_path / "db")
        db.record_task(sig_of(w, device=TITAN_V), records_for(space, n=6))
        target = sig_of(w, device=GTX_1080_TI)
        # same-class sources only: nothing to warm-start from
        assert build_warm_start(db, target, space, device="same") is None
        # cross-class sources only: the titanv history qualifies, and
        # the plan counts its foreign segments
        plan = build_warm_start(db, target, space, device="cross")
        assert plan is not None
        assert plan.cross_sources == 1
        # a same-class plan carries no foreign sources
        own = build_warm_start(db, sig_of(w, device=TITAN_V), space)
        assert own.cross_sources == 0

    def test_bad_device_mode_rejected(self, tmp_path):
        w = conv()
        db = TuningLogDB(tmp_path / "db")
        with pytest.raises(ValueError, match="device"):
            build_warm_start(db, sig_of(w), build_space(w), device="near")
