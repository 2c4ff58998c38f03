"""Tests for the repro-spreading CLI."""

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.service import execute_sweep


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.n == 1024
        assert args.protocol == "sf"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "bogus"])


class TestCommands:
    def test_run_sf(self, capsys):
        assert main(["run", "--protocol", "sf", "--n", "128", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "SF:" in out and "converged=True" in out

    def test_run_ssf(self, capsys):
        assert main(["run", "--protocol", "ssf", "--n", "128", "--seed", "0",
                     "--delta", "0.1"]) == 0
        assert "SSF:" in capsys.readouterr().out

    def test_run_voter(self, capsys):
        assert main(["run", "--protocol", "voter", "--n", "64", "--seed", "0"]) == 0
        assert "voter:" in capsys.readouterr().out

    def test_run_majority(self, capsys):
        assert main(["run", "--protocol", "majority", "--n", "64", "--seed", "0"]) == 0
        assert "majority:" in capsys.readouterr().out

    def test_figure1(self, capsys):
        assert main(["figure1", "--points", "5"]) == 0
        out = capsys.readouterr().out
        assert "f(delta) d=2" in out and "f(delta) d=4" in out

    def test_reduce(self, capsys):
        assert main(["reduce", "--d", "4", "--delta", "0.1", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "artificial P" in out and "uniform" in out

    def test_regime(self, capsys):
        assert main(["regime", "--n", "1024", "--delta", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "dominated" in out
        assert "budget terms" in out

    def test_transport(self, capsys):
        assert main(["transport", "--n", "128", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "aligned=" in out
        assert "load position" in out

    def test_experiment_single(self, capsys):
        assert main(["experiment", "FIG1", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "FIG1" in out and "[PASS]" in out
        assert "passed" in out

    def test_experiment_unknown_id(self):
        with pytest.raises(KeyError):
            main(["experiment", "E99"])

    def test_experiment_json_export(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        assert (
            main(["experiment", "FIG1", "--scale", "quick", "--json", str(target)])
            == 0
        )
        import json

        data = json.loads(target.read_text())
        assert data["experiment_id"] == "FIG1"
        assert data["passed"] is True

    def test_suite_only(self, capsys, tmp_path):
        target = tmp_path / "suite"
        assert (
            main(
                ["suite", "--only", "FIG1", "E8", "--save", str(target)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Experiment suite summary" in out
        assert (target / "summary.csv").exists()
        assert (target / "FIG1.json").exists()

    def test_report(self, capsys):
        assert main(["report", "--n", "256", "--delta", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "# Instance report" in out
        assert "Theorem 4" in out

    def test_sweep_small(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--protocol",
                    "sf",
                    "--min-exp",
                    "6",
                    "--max-exp",
                    "7",
                    "--trials",
                    "2",
                    "--seed",
                    "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "scaling sweep" in out
        assert "64" in out and "128" in out


class TestSweepMatchesTheService:
    @pytest.mark.parametrize("protocol", ["sf", "ssf"])
    def test_rows_equal_execute_sweep_rows(self, monkeypatch, protocol):
        printed = []
        monkeypatch.setattr(
            repro.cli, "format_table", lambda rows, title: printed.append(rows)
        )
        assert main(
            ["sweep", "--protocol", protocol, "--min-exp", "5", "--max-exp",
             "6", "--trials", "2", "--seed", "5", "--s1", "2", "--delta", "0.1"]
        ) == 0
        rows = execute_sweep(
            {"protocol": protocol, "s1": 2, "delta": 0.1, "seed": 5,
             "trials": 2, "min_exp": 5, "max_exp": 6}
        )["rows"]
        assert printed == [rows]
