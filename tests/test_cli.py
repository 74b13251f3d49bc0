"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_no_command_prints_usage_and_exits_zero(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "usage:" in out

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.algorithm == "rbma"
        assert args.workload == "facebook-database"
        assert args.b == 12


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "rbma" in out and "facebook-database" in out and "fat-tree" in out

    def test_simulate_small(self, capsys):
        code = main([
            "simulate", "--workload", "zipf", "--nodes", "10", "--requests", "300",
            "--b", "2", "--algorithm", "rbma", "--checkpoints", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "final routing cost" in out
        assert "rbma" in out

    def test_compare_with_plot(self, capsys):
        code = main([
            "compare", "--workload", "zipf", "--nodes", "10", "--requests", "300",
            "--b", "2", "--algorithms", "rbma", "oblivious", "--checkpoints", "4", "--plot",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "reduction vs oblivious" in out
        assert "legend:" in out

    def test_generate_and_analyze_trace(self, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        assert main([
            "generate-trace", "--workload", "uniform", "--nodes", "8",
            "--requests", "200", "--out", str(out_path),
        ]) == 0
        assert out_path.exists()
        assert main(["analyze-trace", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "rereference_rate" in out

    def test_analyze_missing_file_returns_error_code(self, tmp_path, capsys):
        code = main(["analyze-trace", str(tmp_path / "missing.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_algorithm_returns_error_code(self, capsys):
        code = main([
            "simulate", "--workload", "zipf", "--nodes", "8", "--requests", "100",
            "--algorithm", "does-not-exist",
        ])
        assert code == 2

    def test_typo_error_message_suggests_correction(self, capsys):
        code = main([
            "simulate", "--workload", "zipf", "--nodes", "8", "--requests", "100",
            "--algorithm", "rmba",
        ])
        assert code == 2
        assert "did you mean 'rbma'" in capsys.readouterr().err

    def test_sweep(self, capsys):
        code = main([
            "sweep", "--workload", "zipf", "--nodes", "10", "--requests", "200",
            "--b-values", "1", "2", "--algorithms", "rbma", "oblivious",
            "--checkpoints", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rbma (b: 2)" in out
        assert "reduction vs oblivious" in out

    def test_sweep_with_multiple_alphas_keeps_every_row(self, capsys):
        code = main([
            "sweep", "--workload", "zipf", "--nodes", "10", "--requests", "200",
            "--b-values", "2", "--alpha-values", "4", "8", "--algorithms", "rbma",
            "--checkpoints", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rbma (b: 2, alpha: 4)" in out
        assert "rbma (b: 2, alpha: 8)" in out

    def test_list_includes_paging_policies(self, capsys):
        assert main(["list"]) == 0
        assert "marking" in capsys.readouterr().out


class TestRunSpecFile:
    def _write_spec(self, path, **overrides):
        import json

        data = {
            "algorithm": {"name": "rbma", "b": 2, "alpha": 4},
            "traffic": {"name": "zipf",
                        "params": {"n_nodes": 10, "n_requests": 250, "exponent": 1.3}},
            "simulation": {"checkpoints": 4},
            "seed": 11,
        }
        data.update(overrides)
        path.write_text(json.dumps(data))
        return data

    @pytest.mark.parametrize("section, key, value, message", [
        ("simulation", "matching_backend", "numba",
         "unknown matching_backend 'numba' (available: fast, reference)"),
        ("algorithm", "solver_backend", "numba",
         "unknown solver backend 'numba' (available: array, nx)"),
        ("algorithm", "rng_mode", "counter",
         "unknown AlgorithmSpec keys: rng_mode (allowed: "),
    ])
    def test_removed_names_are_configuration_errors(
        self, tmp_path, capsys, section, key, value, message
    ):
        """Retired backend names and the retired ``rng_mode`` key fail with
        the registry / unknown-key error listing the valid names, both when
        loading the spec and through ``repro run``."""
        import json

        from repro.errors import ConfigurationError
        from repro.experiments import ExperimentSpec

        spec_path = tmp_path / "spec.json"
        data = self._write_spec(spec_path)
        data.setdefault(section, {})[key] = value
        spec_path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError) as excinfo:
            ExperimentSpec.from_dict(data)
        assert message in str(excinfo.value)
        assert main(["run", str(spec_path)]) == 2
        assert message in capsys.readouterr().err

    def test_run_spec_json(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        self._write_spec(spec_path)
        assert main(["run", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "final routing cost" in out
        assert "rbma (b: 2)" in out

    def test_run_reproduces_hand_constructed_simulation(self, tmp_path, capsys):
        """Acceptance: a pure-JSON experiment equals the imperative API call."""
        import json

        from repro import ExperimentSpec, MatchingConfig, run_simulation
        from repro.core import RBMA
        from repro.topology import FatTreeTopology
        from repro.traffic import zipf_pair_trace

        spec_path, out_path = tmp_path / "spec.json", tmp_path / "results.json"
        self._write_spec(spec_path)
        assert main(["run", str(spec_path), "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())

        spec = ExperimentSpec.load_json(spec_path)
        run_seed = spec.repetition_seeds()[0]
        trace_seed, algo_seed = spec.with_seed(run_seed).run_seeds()
        trace = zipf_pair_trace(n_nodes=10, n_requests=250, exponent=1.3, seed=trace_seed)
        algo = RBMA(FatTreeTopology(n_racks=10), MatchingConfig(b=2, alpha=4),
                    rng=algo_seed)
        expected = run_simulation(algo, trace)
        assert payload["runs"][0]["total_routing_cost"] == expected.total_routing_cost
        assert payload["aggregate"]["routing_cost_mean"] == expected.total_routing_cost
        assert payload["spec"] == spec.to_dict()

    def test_run_with_repeats_and_progress(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        self._write_spec(spec_path)
        assert main(["run", str(spec_path), "--repeats", "2", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "final routing cost" in captured.out
        assert "[repro]" in captured.err  # progress observer output

    def test_run_missing_file_returns_error_code(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_run_invalid_spec_returns_error_code(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        self._write_spec(spec_path, algorithm={"name": "rmba", "b": 2})
        code = main(["run", str(spec_path)])
        assert code == 2
        assert "did you mean 'rbma'" in capsys.readouterr().err

    def test_run_malformed_json_returns_error_code(self, tmp_path, capsys):
        """Regression: a syntactically broken spec file must not traceback."""
        spec_path = tmp_path / "broken.json"
        spec_path.write_text("{this is not json")
        assert main(["run", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "JSON" in err

    def test_run_wrongly_typed_spec_returns_error_code(self, tmp_path, capsys):
        """Regression: valid JSON with wrong value shapes used to traceback.

        ``"seed": "abc"`` survives JSON parsing and key validation, then
        exploded as a raw ValueError inside int(); the CLI must turn it
        into its usual one-line error instead.
        """
        spec_path = tmp_path / "spec.json"
        self._write_spec(spec_path, seed="abc")
        assert main(["run", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "does not describe a valid experiment" in err
        assert len(err.strip().splitlines()) == 1

    def test_run_non_object_spec_returns_error_code(self, tmp_path, capsys):
        spec_path = tmp_path / "list.json"
        spec_path.write_text("[1, 2, 3]")
        assert main(["run", str(spec_path)]) == 2
        assert "must be an object" in capsys.readouterr().err
