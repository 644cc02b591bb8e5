"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune", "--model", "alexnet"])
        args.func  # bound
        assert args.arm == "bted+bao"
        assert args.budget == 256

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--model", "lenet"])

    def test_tune_has_no_measurement_backend_flags(self, capsys):
        # measurements run in parallel across tasks: `--devices --jobs`
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["tune", "--model", "alexnet", "--executor", "parallel"]
            )
        assert main(["tune", "--model", "alexnet", "--jobs", "2"]) == 2
        assert "--jobs requires --devices" in capsys.readouterr().err

    def test_fleet_command_is_gone(self, capsys):
        # a compile on a device pool is `tune --devices`
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fleet", "--model", "alexnet"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'fleet'" in capsys.readouterr().err

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig9"])

    def test_pipeline_flag_is_gone(self, capsys):
        # speculation follows from measuring through an executor
        for argv in (
            ["tune", "--model", "alexnet", "--pipeline"],
            ["tune", "--model", "alexnet", "--devices", "gtx1080ti",
             "--pipeline"],
            ["serve", "--data-dir", "d", "--pipeline"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "mobilenet-v1" in out
        assert "vgg-16" in out

    def test_tasks(self, capsys):
        assert main(["tasks", "--model", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "5 tuning tasks" in out
        assert "T1" in out

    def test_tune_small(self, capsys, tmp_path):
        records = tmp_path / "records.jsonl"
        code = main([
            "tune",
            "--model", "squeezenet-v1.1",
            "--arm", "random",
            "--budget", "8",
            "--runs", "50",
            "--records", str(records),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "latency" in out
        assert records.exists()

    @pytest.mark.parametrize(
        "pool", [[], ["--devices", "gtx1080ti,gtx1080ti"]],
        ids=["tune", "fleet"],
    )
    def test_records_survive_a_failing_latency_step(
        self, capsys, tmp_path, monkeypatch, pool
    ):
        from repro.nn.zoo import build_model
        from repro.pipeline.compiler import CompiledModel, DeploymentCompiler

        def broken(self, *args, **kwargs):
            raise RuntimeError("latency step failed")

        monkeypatch.setattr(CompiledModel, "measure_latency", broken)
        records = tmp_path / "records.jsonl"
        with pytest.raises(RuntimeError, match="latency step failed"):
            main([
                "tune", *pool,
                "--model", "squeezenet-v1.1",
                "--arm", "random",
                "--budget", "8",
                "--records", str(records),
            ])
        lines = records.read_text().splitlines()
        tasks = DeploymentCompiler(build_model("squeezenet-v1.1")).tasks
        assert len(lines) == 8 * len(tasks)
        assert all(json.loads(line)["tuner"] == "random" for line in lines)

    def test_tune_resume_requires_checkpoint_dir(self, capsys):
        code = main([
            "tune",
            "--model", "squeezenet-v1.1",
            "--arm", "random",
            "--budget", "8",
            "--resume",
        ])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_tune_checkpoint_resume_and_faults(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt"
        argv = [
            "tune",
            "--model", "squeezenet-v1.1",
            "--arm", "random",
            "--budget", "8",
            "--runs", "50",
            "--fault-rate", "0.3",
            "--max-retries", "1",
            "--checkpoint-dir", str(ckpt),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert list(ckpt.glob("task-*.done")), "per-task results persisted"
        # the resumed run loads every completed task and reports the
        # same deployment latency
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert first.splitlines()[-2:] == second.splitlines()[-2:]

    def test_tune_observability_outputs(self, capsys, tmp_path):
        import json

        metrics = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.jsonl"
        summary = tmp_path / "summary.json"
        code = main([
            "tune",
            "--model", "squeezenet-v1.1",
            "--arm", "random",
            "--budget", "8",
            "--runs", "50",
            "--metrics-out", str(metrics),
            "--trace-out", str(trace),
            "--summary", str(summary),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics" in out and "trace" in out and "summary" in out
        assert "repro_measurements_total" in metrics.read_text()
        spans = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert {s["name"] for s in spans} >= {"tune", "step", "measure"}
        payload = json.loads(summary.read_text())
        assert payload["runs"] == len(payload["tasks"]) >= 1
        assert payload["num_measurements"] > 0

    def test_tune_resumed_observability_matches(self, capsys, tmp_path):
        import json

        from repro.obs.summary import DURATION_FIELDS
        from repro.obs.trace import read_jsonl, skeletons_of

        ckpt = tmp_path / "ckpt"

        def run(tag, extra=()):
            trace = tmp_path / f"{tag}.jsonl"
            summary = tmp_path / f"{tag}.json"
            assert main([
                "tune",
                "--model", "squeezenet-v1.1",
                "--arm", "random",
                "--budget", "8",
                "--runs", "50",
                "--checkpoint-dir", str(ckpt),
                "--trace-out", str(trace),
                "--summary", str(summary),
                *extra,
            ]) == 0
            capsys.readouterr()
            skels = skeletons_of(read_jsonl(str(trace)))
            tasks = [
                {
                    k: v
                    for k, v in t.items()
                    if k not in DURATION_FIELDS and k != "resumed"
                }
                for t in json.loads(summary.read_text())["tasks"]
            ]
            return skels, tasks

        first = run("fresh")
        # every task is checkpointed .done; --resume reloads results
        # AND per-task observer state, so the observability outputs of
        # the resumed run match the original run exactly
        resumed = run("resumed", extra=["--resume"])
        assert resumed == first

    def test_tune_droplet_arm(self, capsys):
        code = main([
            "tune",
            "--model", "squeezenet-v1.1",
            "--arm", "droplet",
            "--budget", "24",
            "--runs", "50",
        ])
        assert code == 0
        assert "via droplet" in capsys.readouterr().out

    def test_compile_round_trips_a_tuned_tlog(self, capsys, tmp_path):
        tlog = tmp_path / "tlog"
        assert main([
            "tune",
            "--model", "squeezenet-v1.1",
            "--arm", "random",
            "--budget", "8",
            "--runs", "50",
            "--seed", "0",
            "--tlog-dir", str(tlog),
        ]) == 0
        tuned = capsys.readouterr().out
        assert main([
            "compile",
            "--model", "squeezenet-v1.1",
            "--tlog-dir", str(tlog),
            "--runs", "50",
            "--seed", "0",
        ]) == 0
        compiled = capsys.readouterr().out
        # every task replays from the log with its tuned schedule, so
        # the deployed latency matches the tuning run exactly
        assert "0 default schedule" in compiled

        def latency(out):
            return next(
                line for line in out.splitlines() if "latency" in line
            )

        assert latency(compiled) == latency(tuned)

    def test_experiment_arms_flag_rejects_unknown(self):
        with pytest.raises(SystemExit, match="unknown arm"):
            main(["experiment", "fig4", "--arms", "bted,warp-drive"])

    def test_experiment_adaptive_needs_arm_pair(self):
        with pytest.raises(SystemExit, match="baseline,adaptive"):
            main([
                "experiment", "adaptive", "--arms", "bted",
                "--scale", "0.05",
            ])

    def test_experiment_fig4_arms_passthrough(self, capsys, monkeypatch):
        import repro.experiments.fig4 as fig4

        captured = {}

        def fake_run_fig4(**kwargs):
            captured.update(kwargs)

            class Fake:
                def report(self, checkpoints=None):
                    return "Fig. 4 — fake"

            return Fake()

        monkeypatch.setattr(fig4, "run_fig4", fake_run_fig4)
        assert main([
            "experiment", "fig4", "--scale", "0.05",
            "--arms", "bted,droplet,bted+as",
        ]) == 0
        assert captured["arms"] == ("bted", "droplet", "bted+as")

    def test_experiment_fig4_smoke(self, capsys, monkeypatch):
        import repro.cli as cli

        def fake_run_fig4(**kwargs):
            class Fake:
                def report(self, checkpoints=None):
                    return "Fig. 4 — fake"

            return Fake()

        import repro.experiments.fig4 as fig4

        monkeypatch.setattr(fig4, "run_fig4", fake_run_fig4)
        assert main(["experiment", "fig4", "--scale", "0.05"]) == 0
        assert "Fig. 4" in capsys.readouterr().out


class TestFleetCommand:
    """``tune --devices``: a compile on a simulated device pool."""

    def test_fleet_defaults(self):
        args = build_parser().parse_args(
            ["tune", "--model", "squeezenet-v1.1"]
        )
        # no pool: the compile runs on the compiler's own device
        assert args.devices is None
        assert args.jobs is None
        assert args.report is None and args.summary_dir is None

    def test_fleet_resume_requires_checkpoint_dir(self, capsys):
        code = main([
            "tune", "--model", "squeezenet-v1.1",
            "--devices", "gtx1080ti,gtx1080ti", "--resume",
        ])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_fleet_bad_device_spec(self, capsys):
        with pytest.raises(ValueError):
            main([
                "tune", "--model", "squeezenet-v1.1",
                "--devices", "gtx9999",
            ])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--jobs", "2"],
            ["--report", "fleet.json"],
            ["--summary-dir", "summaries"],
        ],
        ids=["jobs", "report", "summary-dir"],
    )
    def test_pool_flags_require_devices(
        self, capsys, monkeypatch, tmp_path, flags
    ):
        import repro.cli

        monkeypatch.setattr(repro.cli, "build_model", _no_work)
        monkeypatch.chdir(tmp_path)
        assert main(["tune", "--model", "squeezenet-v1.1", *flags]) == 2
        assert f"{flags[0]} requires --devices" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_uniform_pool_writes_the_records_of_a_tune(self, capsys, tmp_path):
        # a pool of the compiler's own device class measures every task
        # as a compile without a pool does
        argv = [
            "--model", "squeezenet-v1.1", "--arm", "random",
            "--budget", "8", "--runs", "50", "--seed", "1",
        ]
        pooled, alone = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main([
            "tune", *argv, "--devices", "gtx1080ti,gtx1080ti",
            "--records", str(pooled),
        ]) == 0
        assert main(["tune", *argv, "--records", str(alone)]) == 0
        capsys.readouterr()
        assert pooled.read_text() == alone.read_text()

    def test_fleet_small_run_matches_serial_tune(self, capsys, tmp_path):
        # a uniform pool of the compiler's own device class reproduces
        # the serial record stream bit for bit (a mixed pool would not:
        # each task is measured on its home device)
        fleet_records = tmp_path / "fleet.jsonl"
        serial_records = tmp_path / "serial.jsonl"
        argv = [
            "--model", "squeezenet-v1.1", "--arm", "random",
            "--budget", "8", "--runs", "50", "--seed", "3",
        ]
        code = main([
            "tune", *argv,
            "--devices", "gtx1080ti,gtx1080ti,gtx1080ti",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--report", str(tmp_path / "fleet.json"),
            "--summary-dir", str(tmp_path / "summaries"),
            "--records", str(fleet_records),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet of 3" in out
        assert "device" in out
        assert main(["tune", *argv, "--records", str(serial_records)]) == 0
        # the tuning record stream is bit-identical to the serial run
        assert fleet_records.read_text() == serial_records.read_text()
        assert (tmp_path / "fleet.json").exists()
        assert (tmp_path / "summaries" / "summary.json").exists()
        assert sorted(
            p.name for p in (tmp_path / "ckpt").iterdir()
        ) == ["device-00", "device-01", "device-02"]

    def test_fleet_mixed_devices_smoke(self, capsys, tmp_path):
        # heterogeneous pool: runs end to end, and the scheduling
        # report carries the per-class rollup
        code = main([
            "tune", "--model", "squeezenet-v1.1", "--arm", "random",
            "--budget", "8", "--runs", "50", "--seed", "3",
            "--devices", "gtx1080ti,titanv,jetsontx2",
            "--report", str(tmp_path / "fleet.json"),
        ])
        assert code == 0
        assert "fleet of 3" in capsys.readouterr().out
        report = json.loads((tmp_path / "fleet.json").read_text())
        assert sorted(report["by_class"]) == [
            "geforcegtx1080ti", "jetsontx2", "titanv",
        ]
        for entry in report["by_class"].values():
            assert entry["measurements"] > 0
        assert sum(
            entry["utilization"] for entry in report["by_class"].values()
        ) == pytest.approx(1.0, abs=1e-4)

    def test_failed_pool_exits_1_with_the_resume_hint(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.pipeline.compiler import DeploymentCompiler

        tune_one = DeploymentCompiler._tune_one

        def failing(compiler, spec, *args):
            if spec.task_id == 1:
                raise RuntimeError("board unplugged")
            return tune_one(compiler, spec, *args)

        monkeypatch.setattr(DeploymentCompiler, "_tune_one", failing)
        assert main([
            "tune", "--model", "squeezenet-v1.1", "--arm", "random",
            "--budget", "8", "--devices", "gtx1080ti,gtx1080ti",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ]) == 1
        err = capsys.readouterr().err
        assert "fleet aborted" in err and "board unplugged" in err
        assert "rerun with --resume" in err

    def test_pool_takes_every_tune_output(self, capsys, tmp_path):
        # Winograd templates and the observability exports work on a
        # pool too
        metrics = tmp_path / "metrics.prom"
        trace = tmp_path / "trace.jsonl"
        summary = tmp_path / "summary.json"
        assert main([
            "tune", "--model", "squeezenet-v1.1", "--arm", "random",
            "--budget", "8", "--runs", "50", "--winograd",
            "--devices", "gtx1080ti,titanv",
            "--metrics-out", str(metrics),
            "--trace-out", str(trace),
            "--summary", str(summary),
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet of 2" in out and "summary  :" in out
        assert "winograd" in out
        assert "repro_measurements_total" in metrics.read_text()
        assert trace.read_text()
        payload = json.loads(summary.read_text())
        assert payload["runs"] == len(payload["tasks"]) >= 1


def _no_work(*_args, **_kwargs):
    raise AssertionError("a bad number reached the command")


#: (argv, the flag the parser must name); every one exits 2 with usage
BAD_NUMBERS = [
    (["tune", "--model", "squeezenet-v1.1", "--runs", "1"], "--runs"),
    (["tune", "--model", "squeezenet-v1.1", "--budget", "0"], "--budget"),
    (["tune", "--devices", "titanv", "--runs", "1", "--model", "alexnet"],
     "--runs"),
    (["tune", "--devices", "titanv", "--budget", "-3", "--model", "alexnet"],
     "--budget"),
    (["tune", "--devices", "titanv", "--jobs", "0", "--model", "alexnet"],
     "--jobs"),
    (
        ["compile", "--model", "squeezenet-v1.1", "--tlog-dir", "db",
         "--runs", "1"],
        "--runs",
    ),
    (["experiment", "fig4", "--jobs", "0"], "--jobs"),
    (["experiment", "fig4", "--scale", "0"], "--scale"),
    (["experiment", "fig4", "--scale", "1.5"], "--scale"),
    (["experiment", "fig5", "--scale", "nan"], "--scale"),
    (["serve", "--data-dir", "svc", "--jobs", "0"], "--jobs"),
]


class TestBadNumbers:
    @pytest.fixture(autouse=True)
    def _forbid_work(self, monkeypatch, tmp_path):
        import repro.cli
        import repro.experiments.fig4
        import repro.experiments.fig5
        import repro.service

        monkeypatch.setattr(repro.cli, "build_model", _no_work)
        monkeypatch.setattr(repro.experiments.fig4, "build_model", _no_work)
        monkeypatch.setattr(repro.experiments.fig5, "build_model", _no_work)
        monkeypatch.setattr(repro.service, "TuningService", _no_work)
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize(
        "argv,flag", BAD_NUMBERS, ids=[" ".join(a) for a, _ in BAD_NUMBERS]
    )
    def test_rejected_by_the_parser(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert f"argument {flag}: " in err

    def test_smallest_good_numbers_parse(self):
        parse = build_parser().parse_args
        tune = parse(["tune", "--model", "alexnet", "--runs", "2",
                      "--budget", "1"])
        assert (tune.runs, tune.budget) == (2, 1)
        fleet = parse(["tune", "--model", "alexnet", "--devices",
                       "gtx1080ti", "--jobs", "1"])
        assert fleet.jobs == 1
        exp = parse(["experiment", "fig4", "--scale", "1", "--jobs", "1"])
        assert (exp.scale, exp.jobs) == (1.0, 1)
        assert parse(["serve", "--data-dir", "d", "--jobs", "1"]).jobs == 1

    def test_removed_flags_are_gone(self, capsys):
        for argv in (
            ["tune", "--model", "alexnet", "--measure-cache", "c.pkl"],
            ["experiment", "fig4", "--measure-cache", "c.pkl"],
            ["experiment", "fig4", "--fleet", "gtx1080ti,titanv"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
