"""CLI smoke tests: ``--jobs``, ``--metrics-out``, and subcommand exit
codes / output shape (the per-command behaviours are covered in
``tests/eval/test_cli.py``; this file exercises the runner flags)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.sim.runner import SCHEMES


class TestRunnerFlags:
    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.jobs == 1
        assert args.metrics_out is None

    def test_figure_accepts_runner_flags(self):
        args = build_parser().parse_args(
            ["figure", "5", "--jobs", "3", "--metrics-out", "m.json"]
        )
        assert args.jobs == 3
        assert args.metrics_out == "m.json"

    def test_jobs_requires_integer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--jobs", "many"])


class TestSimulateSmoke:
    def test_simulate_exit_code_and_table_shape(self, capsys):
        assert main(["simulate", "--model", "mlp"]) == 0
        out = capsys.readouterr().out
        assert "MLP @ ratio 50% on GTX480" in out
        for scheme in SCHEMES:
            assert scheme in out
        for header in ("IPC", "norm IPC", "norm latency", "latency (ms)"):
            assert header in out

    def test_simulate_with_jobs_pool(self, capsys):
        assert main(["simulate", "--model", "mlp", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        for scheme in SCHEMES:
            assert scheme in out

    def test_simulate_unknown_scheme_exits_2(self, capsys):
        code = main(["simulate", "--model", "mlp", "--schemes", "Baseline,XTS"])
        assert code == 2
        assert "XTS" in capsys.readouterr().err

    def test_metrics_out_writes_schema_v1(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        code = main(
            [
                "simulate",
                "--model",
                "mlp",
                "--schemes",
                "Baseline,SEAL-D",
                "--jobs",
                "2",
                "--metrics-out",
                str(path),
            ]
        )
        assert code == 0
        assert "metrics written to" in capsys.readouterr().out
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.metrics/v1"
        assert document["counters"]["sim.kernel_runs"] > 0
        assert document["counters"]["parallel.units"] > 0
        assert "sim.cache.hits" in document["counters"]
        assert "sim.cache.misses" in document["counters"]
        assert 0.0 <= document["derived"]["cache_hit_rate"] <= 1.0
        assert document["timers"]["parallel.compute"]["count"] >= 1


def _sweep_args(*extra):
    """Tiny-MLP security-sweep invocation (~seconds, every adversary)."""
    return [
        "security-sweep",
        "--models", "mlp",
        "--ratios", "0.5",
        "--width-scale", "0.25",
        "--train-size", "160",
        "--test-size", "64",
        "--victim-epochs", "2",
        "--substitute-epochs", "1",
        "--augmentation-rounds", "1",
        "--max-samples", "128",
        "--transfer-examples", "16",
        *extra,
    ]


class TestSecuritySweep:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["security-sweep"])
        assert args.models == "vgg16"
        assert args.ratios == "0.8,0.5,0.2"
        assert args.variants == "init-only"
        assert args.jobs == 1
        assert args.checkpoint_dir is None
        assert not args.resume

    def test_unknown_model_exits_2(self, capsys):
        assert main(["security-sweep", "--models", "alexnet"]) == 2
        assert "alexnet" in capsys.readouterr().err

    def test_bad_ratios_exit_2(self, capsys):
        assert main(["security-sweep", "--ratios", "half"]) == 2
        assert "comma-separated floats" in capsys.readouterr().err

    def test_unknown_variant_exits_2(self, capsys):
        assert main(["security-sweep", "--variants", "thawed"]) == 2
        assert "thawed" in capsys.readouterr().err

    def test_sweep_smoke_tables(self, capsys):
        assert main(_sweep_args()) == 0
        out = capsys.readouterr().out
        assert "Fig 3: substitute accuracy" in out
        assert "Fig 4: transferability" in out
        for label in ("white-box", "black-box", "seal@0.50"):
            assert label in out

    def test_sweep_checkpoint_then_resume(self, tmp_path, capsys):
        checkpoints = tmp_path / "ckpt"
        code = main(
            _sweep_args(
                "--jobs", "2",
                "--checkpoint-dir", str(checkpoints),
                "--metrics-out", str(tmp_path / "metrics.json"),
            )
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 total, 0 resumed, 3 computed" in out
        assert len(list(checkpoints.glob("*.json"))) == 3
        document = json.loads((tmp_path / "metrics.json").read_text())
        assert document["schema"] == "repro.metrics/v1"
        assert document["counters"]["sweep.checkpoints.written"] == 3
        assert document["counters"]["attack.queries"] > 0
        assert document["timers"]["sweep.cell"]["count"] == 3
        assert document["derived"]["mean_cell_seconds"] > 0

        code = main(
            _sweep_args("--checkpoint-dir", str(checkpoints), "--resume")
        )
        assert code == 0
        assert "3 total, 3 resumed, 0 computed" in capsys.readouterr().out

    def test_no_transfer_skips_fig4(self, capsys):
        assert main(_sweep_args("--no-transfer")) == 0
        out = capsys.readouterr().out
        assert "Fig 3: substitute accuracy" in out
        assert "Fig 4" not in out


class TestTraceFlags:
    @pytest.fixture(autouse=True)
    def _fresh_run_state(self):
        """Traces only cover *computed* work and reports cross-check the
        process-global metrics registry, so clear both the shared unit
        cache and the registry that earlier CLI tests populated."""
        from repro.obs.metrics import reset_metrics
        from repro.sim.parallel import clear_default_cache

        clear_default_cache()
        reset_metrics()
        yield
        clear_default_cache()
        reset_metrics()

    def test_trace_out_writes_schema_v1(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        code = main(
            ["simulate", "--model", "mlp", "--schemes", "Baseline",
             "--trace-out", str(path)]
        )
        assert code == 0
        assert "trace written to" in capsys.readouterr().out
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.trace/v1"
        names = {span["name"] for span in document["spans"]}
        assert {"runner.compare_schemes", "sim.unit", "sim.kernel"} <= names

    def test_run_alias_chrome_format_with_pool(self, tmp_path, capsys):
        """``repro run --jobs 2 --format chrome`` yields a Perfetto-loadable
        file with one process row per worker, re-rooted under dispatch."""
        trace_path = tmp_path / "trace.json"
        code = main(
            ["run", "--model", "mlp", "--schemes", "Baseline,SEAL-C",
             "--jobs", "2", "--trace-out", str(trace_path),
             "--format", "chrome"]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(trace_path.read_text())
        events = payload["traceEvents"]
        process_names = {
            event["args"]["name"]
            for event in events
            if event.get("name") == "process_name"
        }
        assert "main" in process_names
        assert any(name.startswith("worker-") for name in process_names)
        complete = [event for event in events if event["ph"] == "X"]
        assert {"sim.unit", "parallel.compute"} <= {
            event["name"] for event in complete
        }

    def test_trace_wrapper_subcommand(self, tmp_path, capsys):
        path = tmp_path / "wrapped.json"
        code = main(
            ["trace", "--out", str(path), "simulate", "--model", "mlp",
             "--schemes", "Baseline"]
        )
        assert code == 0
        assert "trace written to" in capsys.readouterr().out
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.trace/v1"
        assert any(s["name"] == "sim.kernel" for s in document["spans"])

    def test_trace_wrapper_requires_a_command(self, capsys):
        assert main(["trace", "--out", "t.json"]) == 2
        assert "command" in capsys.readouterr().err

    def test_report_from_paired_run(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        assert main(
            ["simulate", "--model", "mlp", "--schemes", "Baseline,SEAL-C",
             "--metrics-out", str(metrics_path),
             "--trace-out", str(trace_path)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["report", "--metrics", str(metrics_path),
             "--trace", str(trace_path), "--top", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "run report" in out
        assert "top 5 spans by self-time" in out
        assert "sim.kernel" in out
        metrics = json.loads(metrics_path.read_text())
        runs = metrics["counters"]["sim.kernel_runs"]
        assert f"sim.kernel spans {runs} vs sim.kernel_runs {runs}: ok" in out

    def test_report_rejects_wrong_schema_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "other/v1"}))
        assert main(["report", "--trace", str(bogus)]) == 2
        assert "repro.trace/v1" in capsys.readouterr().err


class TestOtherSubcommandsSmoke:
    def test_plan_exit_code(self, capsys):
        assert main(["plan", "--model", "mlp"]) == 0
        assert "SEAL plan" in capsys.readouterr().out

    def test_table1_exit_code(self, capsys):
        assert main(["table1"]) == 0
        assert "Throughput" in capsys.readouterr().out

    def test_snoop_exit_code(self, capsys):
        assert main(["snoop", "--model", "mlp"]) == 0
        assert "plaintext" in capsys.readouterr().out

    def test_figure_unsupported_number_rejected(self, capsys):
        # Figure 3 runs via `repro security-sweep`; argparse
        # rejects it at the choices gate.
        with pytest.raises(SystemExit):
            main(["figure", "3"])
        assert "invalid choice" in capsys.readouterr().err

    def test_figure_help_points_at_security_sweep(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "--help"])
        assert "security-sweep" in capsys.readouterr().out


class TestTopSubcommand:
    def _write_frame(self, path):
        from repro.obs.live import TelemetryHub
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.count("serve.requests.total", 5)
        registry.observe("serve.request", 0.01)
        hub = TelemetryHub(registry=registry)
        hub.write_frame(
            path,
            gauges={"server": {"status": "ok", "scheme": "seal-se"}},
        )

    def test_parser_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.host == "127.0.0.1"
        assert args.port == 7700
        assert args.file is None
        assert args.interval == 1.0
        assert args.once is False

    def test_once_from_file(self, tmp_path, capsys):
        path = tmp_path / "telemetry.json"
        self._write_frame(path)
        assert main(["top", "--once", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "status ok" in out
        assert "scheme seal-se" in out
        assert "\x1b[" not in out  # --once is plain text, CI-safe

    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["top", "--once", "--file", str(missing)]) == 2
        assert "top:" in capsys.readouterr().err

    def test_wrong_schema_file_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "other/v1"}))
        assert main(["top", "--once", "--file", str(bogus)]) == 2
        assert "repro.telemetry/v1" in capsys.readouterr().err

    def test_unreachable_server_exits_2(self, capsys):
        # Port 1 on loopback: nothing listens there.
        assert main(["top", "--once", "--host", "127.0.0.1", "--port", "1"]) == 2
        assert "top:" in capsys.readouterr().err


class TestServeTelemetryFlags:
    def test_parser_accepts_telemetry_flags(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--telemetry-out", "t.json",
                "--telemetry-interval", "0.5",
                "--events-out", "e.ndjson",
                "--slo-window", "30",
                "--slo-availability", "0.99",
                "--slo-p99", "0.1",
            ]
        )
        assert args.telemetry_out == "t.json"
        assert args.telemetry_interval == 0.5
        assert args.events_out == "e.ndjson"
        assert args.slo_window == 30.0
        assert args.slo_availability == 0.99
        assert args.slo_p99 == 0.1

    def test_defaults_leave_telemetry_off(self):
        args = build_parser().parse_args(["serve"])
        assert args.telemetry_out is None
        assert args.events_out is None
        assert args.telemetry_interval == 2.0
