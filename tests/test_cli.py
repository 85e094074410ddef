"""Command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_reproduce_defaults(self):
        args = build_parser().parse_args(["reproduce"])
        assert args.exhibit == "all"
        assert args.window == 1_500

    def test_reproduce_exhibit_choices(self):
        args = build_parser().parse_args(["reproduce", "figure5"])
        assert args.exhibit == "figure5"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "figure99"])

    def test_detect_arguments(self):
        args = build_parser().parse_args(
            ["detect", "readings.txt", "--radius", "0.02"])
        assert args.path == "readings.txt"
        assert args.radius == 0.02

    def test_bench_subcommands_share_run_options(self):
        # Every benchmark-style subcommand exposes the same --seed,
        # --json-out and --metrics-out flags, each with its own default.
        for command, seed, json_out in (
                (["bench-resilience"], 7, "BENCH_resilience.json"),
                (["bench-recovery"], 7, "BENCH_recovery.json"),
                (["trace", "d3"], 7, None)):
            args = build_parser().parse_args(command)
            assert args.seed == seed, command
            assert args.json_out == json_out, command
            assert args.metrics_out is None, command
            args = build_parser().parse_args(
                command + ["--seed", "99", "--json-out", "out.json",
                           "--metrics-out", "metrics.prom"])
            assert args.seed == 99
            assert args.json_out == "out.json"
            assert args.metrics_out == "metrics.prom"

    def test_export_metrics_arguments(self):
        args = build_parser().parse_args(["export-metrics"])
        assert args.experiment == "d3"
        assert args.out == "metrics.prom"
        assert args.health_every == 25
        args = build_parser().parse_args(
            ["export-metrics", "mgdd", "--dataset", "drift",
             "--format", "jsonl", "--out", "m.jsonl"])
        assert args.experiment == "mgdd"
        assert args.dataset == "drift"
        assert args.format == "jsonl"

    def test_top_arguments(self):
        args = build_parser().parse_args(["top"])
        assert args.refresh == 50
        assert args.clear is True
        args = build_parser().parse_args(
            ["top", "--no-clear", "--interval", "0", "--ticks", "100"])
        assert args.clear is False
        assert args.interval == 0.0
        assert args.ticks == 100

    def test_bench_latency_arguments(self):
        args = build_parser().parse_args(["bench-latency"])
        assert args.seed == 7
        assert args.json_out == "BENCH_latency.json"
        assert args.loss_rates == [0.0, 0.25]
        assert args.staleness_horizons == [30, 90]
        args = build_parser().parse_args(
            ["bench-latency", "--loss-rates", "0.1", "0.2",
             "--staleness-horizons", "40"])
        assert args.loss_rates == [0.1, 0.2]
        assert args.staleness_horizons == [40]

    def test_explain_arguments(self):
        args = build_parser().parse_args(
            ["explain", "--trace", "t.jsonl"])
        assert args.detection == "last"
        assert args.json is False
        args = build_parser().parse_args(
            ["explain", "12:340", "--trace", "t.jsonl", "--json"])
        assert args.detection == "12:340"
        assert args.json is True
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain"])   # --trace is required

    def test_output_is_an_alias_for_json_out(self):
        args = build_parser().parse_args(
            ["bench-resilience", "--output", "custom.json"])
        assert args.json_out == "custom.json"

    def test_trace_arguments(self):
        args = build_parser().parse_args(
            ["trace", "mgdd", "--loss-rate", "0.3", "--crash-fraction", "0"])
        assert args.experiment == "mgdd"
        assert args.loss_rate == 0.3
        assert args.crash_fraction == 0.0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "unknown"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro 1.0.0" in out
        assert "figure11" in out

    @pytest.mark.parametrize("argv", [
        ["bench-resilience", "--window", "-5"],
        ["trace", "d3", "--leaves", "0"],
    ])
    def test_bad_parameter_reported_like_argparse(self, argv, tmp_path,
                                                  monkeypatch, capsys):
        # A value outside its domain is a usage error: one
        # "repro <cmd>: error: ..." line and exit 2, not a traceback.
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: error: ")
        assert "must be >= 1" in err

    def test_reproduce_figure5(self, capsys):
        assert main(["reproduce", "figure5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "Engine" in out

    def test_reproduce_memory(self, capsys):
        assert main(["reproduce", "memory"]) == 0
        assert "variance-sketch memory" in capsys.readouterr().out

    def test_detect_flags_planted_outliers(self, tmp_path, capsys, rng):
        values = rng.normal(0.4, 0.02, 1_500)
        values[1_200] = 0.9
        values[1_300] = 0.95
        path = tmp_path / "readings.txt"
        path.write_text("\n".join(f"{v:.6f}" for v in values))
        assert main(["detect", str(path), "--window", "1000",
                     "--sample", "64", "--threshold", "5"]) == 0
        captured = capsys.readouterr()
        assert "line 1200" in captured.out
        assert "line 1300" in captured.out
        assert "flagged" in captured.err

    def test_detect_handles_csv_and_blank_lines(self, tmp_path, capsys, rng):
        lines = [f"{v:.4f},extra" for v in rng.normal(0.4, 0.02, 50)]
        lines.insert(10, "")
        path = tmp_path / "readings.csv"
        path.write_text("\n".join(lines))
        assert main(["detect", str(path), "--window", "30",
                     "--sample", "8"]) == 0

    def test_trace_writes_valid_jsonl_and_summary(self, tmp_path, capsys):
        import json

        trace_out = tmp_path / "trace.jsonl"
        json_out = tmp_path / "obs.json"
        assert main(["trace", "d3", "--leaves", "4", "--window", "60",
                     "--measure", "40", "--trace-out", str(trace_out),
                     "--json-out", str(json_out)]) == 0
        captured = capsys.readouterr()
        assert "SCHEMA VIOLATION" not in captured.err
        assert "message kind" in captured.out
        events = [json.loads(line)
                  for line in trace_out.read_text().splitlines()]
        assert events
        assert all("event" in event for event in events)
        snapshot = json.loads(json_out.read_text())
        assert snapshot["n_events"] == len(events)

    def test_export_metrics_writes_parseable_prometheus(self, tmp_path,
                                                        capsys):
        from repro.obs.export import parse_prometheus

        out = tmp_path / "metrics.prom"
        assert main(["export-metrics", "d3", "--dataset", "drift",
                     "--leaves", "4", "--window", "120",
                     "--measure", "160", "--health-every", "20",
                     "--out", str(out)]) == 0
        names = parse_prometheus(out.read_text())
        assert any(name.startswith("repro_health_node_") for name in names)
        captured = capsys.readouterr()
        assert "health" in captured.out

    def test_trace_metrics_out(self, tmp_path):
        from repro.obs.export import parse_prometheus

        metrics_out = tmp_path / "trace.prom"
        assert main(["trace", "d3", "--leaves", "4", "--window", "60",
                     "--measure", "40",
                     "--trace-out", str(tmp_path / "trace.jsonl"),
                     "--metrics-out", str(metrics_out)]) == 0
        assert parse_prometheus(metrics_out.read_text())

    def test_bench_recovery_metrics_out(self, tmp_path):
        import json

        from repro.obs.export import parse_prometheus

        json_out = tmp_path / "recovery.json"
        metrics_out = tmp_path / "recovery.prom"
        assert main(["bench-recovery", "--streams", "2", "--ticks", "80",
                     "--crash-rates", "0.02",
                     "--checkpoint-cadences", "16",
                     "--json-out", str(json_out),
                     "--metrics-out", str(metrics_out)]) == 0
        # The full pipeline: the JSON artifact exists and the exported
        # metrics file is parseable Prometheus text exposition.
        assert json.loads(json_out.read_text())["benchmark"] == "recovery"
        names = parse_prometheus(metrics_out.read_text())
        assert names
        assert any("bench_recovery" in name for name in names)

    def test_bench_latency_and_explain_round_trip(self, tmp_path, capsys):
        import json

        json_out = tmp_path / "latency.json"
        assert main(["bench-latency", "--leaves", "4", "--branching", "2",
                     "--window", "60", "--measure", "60",
                     "--loss-rates", "0", "0.25",
                     "--staleness-horizons", "30",
                     "--json-out", str(json_out)]) == 0
        out = capsys.readouterr().out
        assert "words/flag" in out
        doc = json.loads(json_out.read_text())
        assert doc["benchmark"] == "latency"
        assert len(doc["cells"]) == 4   # 2 algorithms x 2 loss rates x 1

        trace_out = tmp_path / "trace.jsonl"
        assert main(["trace", "d3", "--leaves", "4", "--window", "60",
                     "--measure", "60", "--loss-rate", "0.2",
                     "--trace-out", str(trace_out)]) == 0
        capsys.readouterr()
        assert main(["explain", "last", "--trace", str(trace_out)]) == 0
        captured = capsys.readouterr()
        assert "flagged by node" in captured.out
        assert "lineage:      complete" in captured.out
        assert main(["explain", "last", "--trace", str(trace_out),
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["complete"] is True
        assert record["latency"] == record["flag_tick"] \
            - record["reading_tick"]
        assert main(["explain", "nonsense", "--trace",
                     str(trace_out)]) == 2

    def test_top_headless(self, tmp_path, capsys):
        assert main(["top", "--leaves", "2", "--window", "40",
                     "--ticks", "60", "--refresh", "20",
                     "--interval", "0", "--no-clear"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("repro top") == 3
        assert "frame(s)" in captured.err


class TestFleetParser:
    def test_bench_fleet_arguments(self):
        args = build_parser().parse_args(["bench-fleet"])
        assert args.workers == [2, 4]
        assert args.loss_rates == [0.0, 0.25]
        assert args.seed == 7
        assert args.json_out == "BENCH_fleet.json"
        assert args.processes is True
        args = build_parser().parse_args(
            ["bench-fleet", "--workers", "2", "--loss-rates", "0.1",
             "--in-process", "--run-dir", "runs/x"])
        assert args.workers == [2]
        assert args.processes is False
        assert args.run_dir == "runs/x"

    def test_merge_trace_arguments(self):
        args = build_parser().parse_args(
            ["merge-trace", "a.spool.jsonl", "b.spool.jsonl",
             "--validate"])
        assert args.inputs == ["a.spool.jsonl", "b.spool.jsonl"]
        assert args.out == "TRACE_merged.jsonl"
        assert args.validate is True
        with pytest.raises(SystemExit):
            build_parser().parse_args(["merge-trace"])

    def test_export_metrics_in_snapshots(self):
        args = build_parser().parse_args(
            ["export-metrics", "--in", "a.json", "--in", "b.json"])
        assert args.inputs == ["a.json", "b.json"]
        assert build_parser().parse_args(
            ["export-metrics"]).inputs is None

    def test_top_trace_argument(self):
        args = build_parser().parse_args(["top", "--trace", "run/"])
        assert args.trace == "run/"
        assert build_parser().parse_args(["top"]).trace is None


class TestFleetCommands:
    def test_bench_fleet_merge_explain_export_top_round_trip(
            self, tmp_path, capsys):
        import json

        from repro.obs.export import parse_prometheus

        # One in-process pilot cell with loss, artifacts kept.
        run_dir = tmp_path / "fleet"
        json_out = tmp_path / "fleet.json"
        assert main(["bench-fleet", "--in-process", "--workers", "2",
                     "--loss-rates", "0.25", "--streams", "4",
                     "--ticks", "120", "--window", "60",
                     "--sample", "24", "--batch", "40",
                     "--checkpoint-every", "60",
                     "--run-dir", str(run_dir),
                     "--json-out", str(json_out)]) == 0
        out = capsys.readouterr().out
        assert "xworker" in out
        doc = json.loads(json_out.read_text())
        assert doc["benchmark"] == "fleet"
        cell_dir = run_dir / "cell-0"

        # merge-trace over the spool directory, schema-validated.
        merged = tmp_path / "merged.jsonl"
        assert main(["merge-trace", str(cell_dir), "--out", str(merged),
                     "--validate"]) == 0
        captured = capsys.readouterr()
        assert "schema valid; conservation holds" in captured.err
        assert merged.exists()

        # explain reads the merged trace and the spool dir alike; the
        # lineage must span the worker and the coordinator.
        assert main(["explain", "last", "--trace", str(merged),
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["complete"] is True
        workers = {hop.get("worker_id") for hop in record["hops"]}
        assert len(workers) >= 2
        assert main(["explain", "last", "--trace", str(cell_dir)]) == 0
        assert "flagged by node" in capsys.readouterr().out

        # export-metrics --in merges the per-worker snapshots.
        prom = tmp_path / "fleet.prom"
        assert main(["export-metrics", "--in", str(cell_dir),
                     "--out", str(prom)]) == 0
        capsys.readouterr()
        names = parse_prometheus(prom.read_text())
        assert any("fleet_flags" in name for name in names)

        # top --trace replays the merged trace headless.
        assert main(["top", "--trace", str(cell_dir), "--refresh", "40",
                     "--interval", "0", "--no-clear"]) == 0
        captured = capsys.readouterr()
        assert "repro top (replay)" in captured.out
        assert "workers" in captured.out

    def test_merge_trace_rejects_non_spools(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text("{not json}\n")
        assert main(["merge-trace", str(bogus)]) == 2
        assert "merge-trace:" in capsys.readouterr().err
