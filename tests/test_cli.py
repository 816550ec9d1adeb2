"""Tests for the command-line experiment runner."""

import json
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("fig2", "eq2", "comm", "rco", "regrind",
                        "deterrence", "demo", "population", "serve",
                        "loadgen"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_service_subcommands_default_to_threads_engine(self):
        parser = build_parser()
        for command in ("serve", "loadgen"):
            assert parser.parse_args([command]).engine == "threads"

    def test_worker_subcommand_registered(self):
        args = build_parser().parse_args(["worker", "--port", "7641"])
        assert args.command == "worker"
        assert args.port == 7641
        assert args.engine == "serial"

    def test_cluster_engine_and_workers_accepted(self):
        args = build_parser().parse_args(
            ["population", "--engine", "cluster", "--cluster-workers", "3"]
        )
        assert args.engine == "cluster"
        assert args.cluster_workers == 3


class TestSecurityFlagRouting:
    """Which plane each --secret-file/--tls-* flag reaches."""

    def parse(self, *argv):
        return build_parser().parse_args(list(argv))

    def test_engine_options_carry_security_for_cluster(self):
        from repro.cli import _engine_options

        args = self.parse(
            "population", "--engine", "cluster",
            "--secret-file", "s", "--tls-cert", "c", "--tls-key", "k",
        )
        options = _engine_options(args)
        assert options["secret_file"] == "s"
        assert options["tls_cert"] == "c" and options["tls_key"] == "k"

    def test_service_plane_keeps_security_off_inprocess_engines(self):
        from repro.cli import _engine_options

        args = self.parse("serve", "--secret-file", "s", "--tls-cert", "c",
                          "--tls-key", "k")
        assert _engine_options(args, service_plane=True) == {}

    def test_cluster_secret_file_wins_for_the_cluster_plane(self):
        from repro.cli import _engine_options

        args = self.parse(
            "serve", "--engine", "cluster",
            "--secret-file", "service-secret",
            "--cluster-secret-file", "cluster-secret",
        )
        options = _engine_options(args, service_plane=True)
        assert options["secret_file"] == "cluster-secret"

    def test_cluster_secret_help_claims_no_code_execution(self):
        # Jobs are typed data (registered names + schema-checked
        # arguments): the secret buys CPU on the workers, not code.
        import argparse

        (subcommands,) = (
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for command in ("population", "serve", "loadgen"):
            (flag,) = (
                action for action in subcommands.choices[command]._actions
                if "--cluster-secret-file" in action.option_strings
            )
            assert "burn worker CPU" in flag.help
            assert "pickl" not in flag.help and "code" not in flag.help

    def test_misconfigured_security_exits_2_not_traceback(self):
        assert main(["serve", "--secret-file", "/nonexistent"]) == 2
        assert main(["population", "--n", "64", "--participants", "2",
                     "--engine", "serial", "--secret-file", "s"]) == 2


class TestFig2:
    def test_prints_paper_values(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "0.5" in out
        assert "33" in out and "14" in out

    def test_custom_epsilon(self, capsys):
        assert main(["fig2", "--epsilon", "0.01"]) == 0
        assert "0.01" in capsys.readouterr().out


class TestEq2:
    def test_runs_and_reports(self, capsys):
        assert main(["eq2", "--n", "100", "--trials", "40"]) == 0
        out = capsys.readouterr().out
        assert "analytic" in out and "measured" in out


class TestComm:
    def test_reduction_grows(self, capsys):
        assert main(["comm", "--m", "20", "--max-exp", "12"]) == 0
        out = capsys.readouterr().out
        assert "2^8" in out and "2^12" in out


class TestRco:
    def test_table_matches_formula(self, capsys):
        assert main(["rco", "--n", "256", "--m", "4"]) == 0
        out = capsys.readouterr().out
        assert "paper_rco" in out


class TestRegrind:
    def test_economics_table(self, capsys):
        code = main(
            ["regrind", "--n", "128", "--m", "4", "--r", "0.75", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profitable" in out
        assert "expected attempts" in out


class TestDeterrence:
    def test_reports_m_star(self, capsys):
        assert main(["deterrence", "--q", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "deterrent" in out

    def test_undeterrable_exits_nonzero(self, capsys):
        assert main(["deterrence", "--q", "1.0"]) == 1


class TestDemo:
    def test_honest_and_cheater_rows(self, capsys):
        assert main(["demo", "--n", "512", "--m", "15"]) == 0
        out = capsys.readouterr().out
        assert "honest" in out and "cheater" in out
        assert "exposed at sample" in out


class TestLoadgen:
    def test_self_contained_run_with_check(self, capsys):
        code = main([
            "loadgen", "--n", "256", "--participants", "8",
            "--m", "16", "--check",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "submissions_per_s" in out
        assert "loadgen --check passed" in out

    def test_cbs_protocol_round_trip(self, capsys):
        code = main([
            "loadgen", "--n", "256", "--participants", "4",
            "--m", "16", "--protocol", "cbs", "--check",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "service:cbs(m=16)" in out

    def test_host_without_port_is_usage_error(self, capsys):
        assert main(["loadgen", "--host", "127.0.0.1"]) == 2

    def test_json_output_lands_on_disk(self, capsys, tmp_path):
        out_path = tmp_path / "loadgen.json"
        code = main([
            "loadgen", "--n", "256", "--participants", "4",
            "--m", "16", "--json", str(out_path),
        ])
        assert code == 0, capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["bench"] == "loadgen"
        assert payload["mode"] == "self-hosted"
        assert payload["report"]["participants"] == 4
        assert payload["stats"]["completed"] == 4
        assert payload["stats"]["submissions_per_s"] > 0


class TestPopulationCluster:
    def test_cluster_engine_end_to_end(self, capsys):
        code = main([
            "population", "--n", "512", "--participants", "4", "--m", "8",
            "--engine", "cluster", "--cluster-workers", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "cluster" in out


class TestServeShutdown:
    def test_sigterm_shuts_down_gracefully(self):
        """SIGINT/SIGTERM must drain and exit 0 — no KeyboardInterrupt
        traceback from a long-running supervisor."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--n", "256",
             "--participants", "4", "--m", "8", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "supervisor listening" in banner
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        assert proc.returncode == 0, out
        assert "supervisor stopped" in out
        assert "Traceback" not in out

    def test_stats_interval_logs_snapshots_until_shutdown(self):
        """--stats-interval reads the registry on a timer; the task
        must survive its first tick and not poison the shutdown path."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--n", "256",
             "--participants", "4", "--m", "8", "--port", "0",
             "--stats-interval", "0.05"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "supervisor listening" in banner
            time.sleep(1.0)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        assert proc.returncode == 0, out
        assert out.count("event=stats_snapshot") >= 2, out
        assert "connections=0 verifications=0" in out
        assert "supervisor stopped" in out
        assert "Traceback" not in out


class TestWorkerCommand:
    def test_unreachable_coordinator_fails_cleanly(self, capsys):
        # Nothing listens on the probed port: the daemon must report
        # and exit nonzero, not stack-trace.
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["worker", "--port", str(port)]) == 1
        assert "cluster worker failed" in capsys.readouterr().err
