"""Fleet scheduling: shard tuning tasks across a simulated device pool.

The paper tunes on a single GTX 1080 Ti; this package supplies the
scaling step — a work-stealing scheduler (:class:`FleetScheduler`)
that shards the per-task tuning runs of a deployment compile across
a pool of named devices (:class:`Fleet` / :class:`FleetDevice`), while
keeping every task's records bit-identical to a serial single-device
run.  See ``docs/EXECUTION.md`` ("Fleet scheduling") for the
determinism contract and the CLI quickstart.
"""

from repro.fleet.devices import (
    Fleet,
    FleetDevice,
    FleetSpec,
    parse_device,
    parse_fleet,
)
from repro.fleet.reporting import (
    device_ordinal_spans,
    fleet_report_dict,
    write_device_summaries,
    write_fleet_report,
)
from repro.fleet.scheduler import (
    DeviceReport,
    FleetError,
    FleetRunResult,
    FleetScheduler,
    FleetTask,
    StealRecord,
)

__all__ = [
    "DeviceReport",
    "Fleet",
    "FleetDevice",
    "FleetError",
    "FleetRunResult",
    "FleetScheduler",
    "FleetSpec",
    "FleetTask",
    "StealRecord",
    "device_ordinal_spans",
    "fleet_report_dict",
    "parse_device",
    "parse_fleet",
    "write_device_summaries",
    "write_fleet_report",
]
