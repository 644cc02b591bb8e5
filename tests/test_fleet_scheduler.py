"""Unit tests for the fleet layer: devices, scheduler, reporting.

The work-stealing schedule itself is only deterministic for one worker
thread, so the exact-order assertions here pin the ``jobs=1`` drain;
the multi-threaded runs assert the schedule-independent facts (every
task executed exactly once, results correct, accounting consistent).
"""

import json

import pytest

from repro.fleet import (
    DeviceReport,
    Fleet,
    FleetDevice,
    FleetError,
    FleetRunResult,
    FleetScheduler,
    FleetTask,
    StealRecord,
    device_ordinal_spans,
    fleet_report_dict,
    parse_device,
    parse_fleet,
    write_device_summaries,
    write_fleet_report,
)
from repro.hardware.device import GTX_1080_TI, TITAN_V
from repro.hardware.faults import FaultModel
from repro.obs import RunSummary


def _tasks(n):
    return [FleetTask(key=f"t{i:02d}", seq=i) for i in range(n)]


class TestFleetDevice:
    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            FleetDevice(index=-1)

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 2.0])
    def test_rejects_bad_fault_rate(self, rate):
        with pytest.raises(ValueError):
            FleetDevice(index=0, fault_rate=rate)

    def test_dirname_and_label(self):
        dev = FleetDevice(index=3, device=TITAN_V)
        assert dev.dirname == "device-03"
        assert dev.label == "titanv"

    def test_fault_model_inherits_default(self):
        default = FaultModel(rate=0.2, seed=9)
        assert FleetDevice(index=0).fault_model(default) is default

    def test_fault_model_override_keeps_default_seed(self):
        default = FaultModel(rate=0.2, seed=9)
        model = FleetDevice(index=0, fault_rate=0.5).fault_model(default)
        assert model.rate == 0.5
        assert model.seed == 9

    def test_fault_model_own_seed_wins(self):
        model = FleetDevice(
            index=0, fault_rate=0.5, fault_seed=3
        ).fault_model(FaultModel(rate=0.2, seed=9))
        assert model.seed == 3

    def test_fault_model_explicit_zero_disables(self):
        default = FaultModel(rate=0.2, seed=9)
        assert FleetDevice(index=0, fault_rate=0.0).fault_model(default) is None


class TestFleet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Fleet(devices=())

    def test_rejects_index_mismatch(self):
        with pytest.raises(ValueError):
            Fleet(devices=(FleetDevice(index=1),))

    def test_home_of_round_robin(self):
        fleet = Fleet.build(["gtx1080ti", "titanv"])
        assert [fleet.home_of(i).index for i in range(5)] == [0, 1, 0, 1, 0]
        with pytest.raises(ValueError):
            fleet.home_of(-1)

    def test_build_accepts_mixed_items(self):
        fleet = Fleet.build(
            ["titanv", GTX_1080_TI, FleetDevice(index=0, fault_rate=0.1)]
        )
        assert len(fleet) == 3
        assert fleet[0].device is TITAN_V
        assert fleet[1].device is GTX_1080_TI
        # prepared slots are re-indexed to their position
        assert fleet[2].index == 2
        assert fleet[2].fault_rate == 0.1

    def test_from_spec_passthrough_and_errors(self):
        fleet = Fleet.build(["gtx1080ti"])
        assert Fleet.from_spec(fleet) is fleet
        assert len(Fleet.from_spec("gtx1080ti,titanv")) == 2
        with pytest.raises(TypeError):
            Fleet.from_spec(7)


class TestParsing:
    def test_parse_fleet_with_rates(self):
        fleet = parse_fleet("gtx1080ti, gtx1080ti:0.1 ,titanv")
        assert [d.label for d in fleet] == [
            "geforcegtx1080ti", "geforcegtx1080ti", "titanv",
        ]
        assert [d.fault_rate for d in fleet] == [None, 0.1, None]

    def test_parse_device_bad_rate(self):
        with pytest.raises(ValueError):
            parse_device("gtx1080ti:fast", 0)

    def test_parse_fleet_empty(self):
        with pytest.raises(ValueError):
            parse_fleet(" , ")

    def test_parse_unknown_device(self):
        with pytest.raises(ValueError):
            parse_fleet("gtx9999")


class TestSchedulerSerial:
    def test_jobs_one_steal_schedule_is_deterministic(self):
        fleet = Fleet.build(["gtx1080ti"] * 3)
        executed = []
        scheduler = FleetScheduler(
            fleet, lambda t, d: executed.append((t.key, d.index)) or t.key,
            jobs=1,
        )
        result = scheduler.run(_tasks(7))
        # worker 0 drains its own queue FIFO, then steals LIFO from the
        # longest queue (ties -> lowest device index)
        assert [key for key, _ in executed] == [
            "t00", "t03", "t06", "t04", "t05", "t01", "t02",
        ]
        assert all(index == 0 for _, index in executed)
        assert result.steals == [
            StealRecord(key="t04", victim=1, thief=0),
            StealRecord(key="t05", victim=2, thief=0),
            StealRecord(key="t01", victim=1, thief=0),
            StealRecord(key="t02", victim=2, thief=0),
        ]
        assert result.reports[0].stolen_in == 4
        assert result.reports[1].stolen_out == 2
        assert result.reports[2].stolen_out == 2

    def test_homed_partition_and_assignments(self):
        fleet = Fleet.build(["gtx1080ti", "titanv"])
        scheduler = FleetScheduler(fleet, lambda t, d: t.seq, jobs=1)
        result = scheduler.run(_tasks(5))
        assert result.reports[0].homed == ["t00", "t02", "t04"]
        assert result.reports[1].homed == ["t01", "t03"]
        assert result.assignments == {
            "t00": 0, "t01": 1, "t02": 0, "t03": 1, "t04": 0,
        }

    def test_duplicate_keys_rejected(self):
        scheduler = FleetScheduler(
            Fleet.build(["gtx1080ti"]), lambda t, d: None
        )
        with pytest.raises(ValueError):
            scheduler.run(
                [FleetTask(key="a", seq=0), FleetTask(key="a", seq=1)]
            )

    def test_empty_run(self):
        scheduler = FleetScheduler(
            Fleet.build(["gtx1080ti"] * 2), lambda t, d: None
        )
        result = scheduler.run([])
        assert result.results == {}
        assert result.steals == []

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            FleetScheduler(Fleet.build(["gtx1080ti"]), lambda t, d: None,
                           jobs=0)

    def test_failure_raises_with_partial_results(self):
        fleet = Fleet.build(["gtx1080ti"] * 2)

        def run_task(task, _device):
            if task.key == "t02":
                raise RuntimeError("boom")
            return task.seq

        scheduler = FleetScheduler(fleet, run_task, jobs=1)
        with pytest.raises(FleetError) as excinfo:
            scheduler.run(_tasks(4))
        err = excinfo.value
        assert set(err.failures) == {"t02"}
        assert isinstance(err.failures["t02"], RuntimeError)
        assert "t02: RuntimeError: boom" in str(err)
        # worker 0 ran t00 before reaching t02; nothing after the abort
        assert err.partial.results == {"t00": 0}


class TestSchedulerThreaded:
    @pytest.mark.parametrize("jobs", [2, 3, 8])
    def test_all_tasks_execute_exactly_once(self, jobs):
        fleet = Fleet.build(["gtx1080ti", "gtx1080ti", "titanv"])
        scheduler = FleetScheduler(fleet, lambda t, d: t.seq * 2, jobs=jobs)
        result = scheduler.run(_tasks(20))
        assert result.results == {f"t{i:02d}": i * 2 for i in range(20)}
        executed = [k for r in result.reports for k in r.executed]
        assert sorted(executed) == sorted(result.results)
        assert len(result.steals) == sum(
            r.stolen_in for r in result.reports
        )
        assert sum(r.stolen_in for r in result.reports) == sum(
            r.stolen_out for r in result.reports
        )

    def test_threaded_failure_still_raises(self):
        fleet = Fleet.build(["gtx1080ti"] * 4)

        def run_task(task, _device):
            if task.seq == 5:
                raise ValueError("bad cell")
            return task.key

        with pytest.raises(FleetError):
            FleetScheduler(fleet, run_task, jobs=4).run(_tasks(12))


class TestReporting:
    def _result(self):
        fleet = Fleet.build(["gtx1080ti", "titanv"])
        scheduler = FleetScheduler(fleet, lambda t, d: t.seq, jobs=1)
        return scheduler.run(_tasks(4))

    def test_device_ordinal_spans_concatenate(self):
        result = self._result()
        spans = device_ordinal_spans(
            result, {"t00": 10, "t01": 7, "t02": 5, "t03": 3}
        )
        assert spans[0] == [("t00", 0, 10), ("t02", 10, 15)]
        assert spans[1] == [("t01", 0, 7), ("t03", 7, 10)]
        assert result.reports[0].measurements == 15
        assert result.reports[1].measurements == 10

    def test_report_dict_shape(self):
        result = self._result()
        report = fleet_report_dict(result, {f"t{i:02d}": 4 for i in range(4)})
        assert report["tasks"] == 4
        assert [d["index"] for d in report["devices"]] == [0, 1]
        assert report["assignments"]["t03"] == 1
        assert report["devices"][0]["ordinal_spans"] == [
            ["t00", 0, 4], ["t02", 4, 8],
        ]

    def test_write_fleet_report_round_trips(self, tmp_path):
        result = self._result()
        path = tmp_path / "fleet.json"
        write_fleet_report(path, result, {f"t{i:02d}": 1 for i in range(4)})
        assert json.loads(path.read_text()) == fleet_report_dict(
            result, {f"t{i:02d}": 1 for i in range(4)}
        )

    def test_write_device_summaries_aggregates(self, tmp_path):
        result = self._result()
        summaries = {
            f"t{i:02d}": RunSummary(
                task=f"t{i:02d}", arm="random", num_measurements=4,
                best_gflops=float(i),
            )
            for i in range(4)
        }
        aggregate = write_device_summaries(tmp_path, result, summaries)
        files = sorted(p.name for p in tmp_path.glob("cell-*.summary.json"))
        assert files == [
            "cell-00-device.summary.json", "cell-01-device.summary.json",
        ]
        per_device = json.loads((tmp_path / files[0]).read_text())
        assert per_device["device"] == "GeForce GTX 1080 Ti"
        assert [t["task"] for t in per_device["tasks"]] == ["t00", "t02"]
        assert aggregate["runs"] == 4
        assert aggregate["num_measurements"] == 16
        assert json.loads(
            (tmp_path / "summary.json").read_text()
        ) == aggregate
