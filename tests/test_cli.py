import json
import os
import re

import numpy as np
import pytest

from graphon_games import io, lab
from graphon_games.cli import main
from graphon_games.core import GridSpec, SeparablePowerGraphon, StepProfile
from graphon_games.lq import LQParams, SourceFunction, equilibrium_from_source


def assert_input_error(capsys, match, argv):
    """main exits 2 and reports the error as one stderr line, without a traceback."""
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert re.search(match, err), err


@pytest.fixture
def workspace(tmp_path):
    io.save_json(tmp_path / "graphon.json",
                 {"family": "separable_power", "params": {"alpha": 0.5}})
    io.save_json(tmp_path / "game.json", {
        "graphon": {"family": "separable_power", "params": {"alpha": 0.5}},
        "utility": {"family": "plateau_lq", "params": {"lambda": 0.5}},
        "L": 4.0,
        "grid_n": 64,
    })
    return tmp_path


class TestLQSolveCommand:
    def test_writes_equilibrium_profile(self, workspace, capsys):
        out = workspace / "s.csv"
        code = main([
            "lq", "solve", "--graphon", str(workspace / "graphon.json"),
            "--lambda", "0.5", "--L", "4.0", "--g", "const:1.0",
            "--n", "64", "--tol", "1e-8", "--out", str(out),
        ])
        assert code == 0
        assert "certified=True" in capsys.readouterr().out
        profile = io.load_profile_csv(out)
        expected = equilibrium_from_source(
            SeparablePowerGraphon(0.5), LQParams(0.5, 4.0),
            SourceFunction.constant(1.0, GridSpec(64)),
        )
        np.testing.assert_allclose(profile.values, expected.values, atol=1e-12)

    def test_csv_source(self, workspace):
        g_path = workspace / "g.csv"
        io.save_profile_csv(g_path, StepProfile.constant(0.5, GridSpec(32)))
        out = workspace / "s.csv"
        code = main([
            "lq", "solve", "--graphon", str(workspace / "graphon.json"),
            "--lambda", "0.5", "--L", "4.0", "--g", str(g_path), "--out", str(out),
        ])
        assert code == 0
        assert io.load_profile_csv(out).grid.n_cells == 32

    def test_incommensurate_step_grid_writes_nothing(self, workspace, capsys):
        io.save_json(workspace / "step3.json",
                     {"family": "step", "params": {"n": 3, "values": [[0.5] * 3] * 3}})
        out = workspace / "s4.csv"
        assert_input_error(capsys, "must divide the game grid", [
            "lq", "solve", "--graphon", str(workspace / "step3.json"),
            "--lambda", "0.5", "--L", "4.0", "--n", "4", "--out", str(out),
        ])
        assert not out.exists()

    def test_oversized_grid_is_refused_before_it_allocates(self, workspace, capsys):
        # the step approximation on 8193 cells would be a 512 MiB N x N matrix
        out = workspace / "s.csv"
        assert_input_error(capsys, "8193 x 8193 kernel matrix exceeds the cap", [
            "lq", "solve", "--graphon", str(workspace / "graphon.json"),
            "--lambda", "0.5", "--L", "4.0", "--n", "8193", "--g", "const:1", "--out", str(out),
        ])
        assert not out.exists()

    def test_contraction_violation_is_an_input_error(self, workspace, capsys):
        io.save_json(workspace / "c1.json", {"family": "constant", "params": {"c": 1.0}})
        out = workspace / "s.csv"
        assert_input_error(capsys, "contraction violated", [
            "lq", "solve", "--graphon", str(workspace / "c1.json"),
            "--lambda", "1.5", "--L", "4.0", "--n", "8", "--out", str(out),
        ])
        assert not out.exists()

    @pytest.mark.parametrize("c", [True, "0.5"])
    def test_descriptor_number_must_be_a_number(self, workspace, capsys, c):
        # float() would read true as 1 and "0.5" as 0.5
        io.save_json(workspace / "c.json", {"family": "constant", "params": {"c": c}})
        out = workspace / "s.csv"
        assert_input_error(capsys, f"parameter c must be a number, got {c!r}", [
            "lq", "solve", "--graphon", str(workspace / "c.json"),
            "--lambda", "0.5", "--L", "4.0", "--n", "8", "--out", str(out),
        ])
        assert not out.exists()

    @pytest.mark.parametrize("params", [
        {"values": [[True, 0.5], [0.5, "0.25"]]},
        {"n": 2, "values": [True, 0, 0, "1"]},
    ], ids=["nested", "flat"])
    def test_step_kernel_values_must_be_numbers(self, workspace, capsys, params):
        # the float cast would read true as 1 and "0.25" as 0.25
        io.save_json(workspace / "w.json", {"family": "step", "params": params})
        out = workspace / "s.csv"
        assert_input_error(capsys, "step graphon values must be numbers, got bool, str", [
            "lq", "solve", "--graphon", str(workspace / "w.json"),
            "--lambda", "0.5", "--L", "4.0", "--n", "8", "--out", str(out),
        ])
        assert not out.exists()

    def test_integer_step_kernel_still_reads(self, workspace):
        io.save_json(workspace / "w.json", {"family": "step", "params": {"values": [[0, 1], [1, 0]]}})
        out = workspace / "s.csv"
        assert main([
            "lq", "solve", "--graphon", str(workspace / "w.json"),
            "--lambda", "0.5", "--L", "4.0", "--n", "8", "--out", str(out),
        ]) == 0
        assert io.load_profile_csv(out).grid.n_cells == 8

    def test_infinite_tolerance_is_an_input_error(self, workspace, capsys):
        # an infinite tolerance would truncate the resolvent at order 1 and pass
        # the residual bound against 10 * inf
        out = workspace / "s.csv"
        assert_input_error(capsys, "tolerance must be finite and > 0, got inf", [
            "lq", "solve", "--graphon", str(workspace / "graphon.json"),
            "--lambda", "0.5", "--L", "4.0", "--n", "64", "--tol", "inf", "--out", str(out),
        ])
        assert not out.exists()

    def test_failed_certificate_exits_1_without_a_traceback(self, workspace, capsys):
        # no double-precision residual is within 10 * 1e-20
        out = workspace / "s.csv"
        capsys.readouterr()
        assert main([
            "lq", "solve", "--graphon", str(workspace / "graphon.json"),
            "--lambda", "0.5", "--L", "4.0", "--n", "64", "--tol", "1e-20", "--out", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "misses the Fredholm equation" in err
        assert not out.exists()


class TestLQVerifyCommand:
    def test_certifies_constructed_equilibrium(self, workspace, capsys):
        out = workspace / "s.csv"
        main([
            "lq", "solve", "--graphon", str(workspace / "graphon.json"),
            "--lambda", "0.5", "--L", "4.0", "--g", "const:1.0",
            "--n", "64", "--out", str(out),
        ])
        report = workspace / "report.csv"
        code = main([
            "lq", "verify", "--game", str(workspace / "game.json"),
            "--profile", str(out), "--out", str(report),
        ])
        assert code == 0
        assert "certified    = True" in capsys.readouterr().out
        assert report.read_text().startswith("# epsilon_star,")

    def test_rejects_non_equilibrium(self, workspace):
        bad = workspace / "bad.csv"
        io.save_profile_csv(bad, StepProfile.constant(4.0, GridSpec(64)))
        code = main([
            "lq", "verify", "--game", str(workspace / "game.json"), "--profile", str(bad),
        ])
        assert code == 1

    def test_profile_above_the_cap_is_an_input_error(self, workspace, capsys):
        # beyond [0, L] by more than 1e-12, regret_profile refuses the profile, so
        # in_interval never reports it at the default tolerance
        values = np.ones(64)
        values[5] = 4.0 + 1.0
        io.save_profile_csv(workspace / "p.csv", StepProfile(GridSpec(64), values))
        assert_input_error(capsys, r"profile leaves the strategy interval \[0, 4.0\]", [
            "lq", "verify", "--game", str(workspace / "game.json"),
            "--profile", str(workspace / "p.csv"),
        ])

    def test_grid_mismatch_is_an_error(self, workspace):
        bad = workspace / "bad.csv"
        io.save_profile_csv(bad, StepProfile.constant(0.0, GridSpec(8)))
        code = main([
            "lq", "verify", "--game", str(workspace / "game.json"), "--profile", str(bad),
        ])
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, workspace, capsys, tol):
        profile = workspace / "p.csv"
        io.save_profile_csv(profile, StepProfile.constant(1.0, GridSpec(64)))
        assert_input_error(capsys, "tolerance must be finite and > 0", [
            "lq", "verify", "--game", str(workspace / "game.json"),
            "--profile", str(profile), "--tol", tol,
        ])

    def test_quadratic_game_is_an_input_error(self, workspace, capsys):
        io.save_json(workspace / "quadratic.json", {
            "graphon": {"family": "constant", "params": {"c": 0.5}},
            "utility": {"family": "quadratic", "params": {"beta": 1.0, "delta": 0.5}},
            "L": 4.0,
            "grid_n": 8,
        })
        profile = workspace / "p.csv"
        io.save_profile_csv(profile, StepProfile.constant(1.0, GridSpec(8)))
        assert_input_error(capsys, "needs a plateau_lq utility, got quadratic", [
            "lq", "verify", "--game", str(workspace / "quadratic.json"),
            "--profile", str(profile),
        ])


class TestSolveCommand:
    def test_solves_and_writes_trace(self, workspace, capsys):
        out = workspace / "f.csv"
        trace = workspace / "trace.csv"
        config = workspace / "solver.json"
        io.save_json(config, {"damping": 0.5, "regret_target": 1e-8})
        code = main([
            "solve", "--game", str(workspace / "game.json"),
            "--init", "const:L", "--config", str(config),
            "--out", str(out), "--trace", str(trace),
        ])
        assert code == 0
        assert "converged=True" in capsys.readouterr().out
        lines = trace.read_text().splitlines()
        assert lines[0] == "iteration,step_size"
        assert len(lines) > 1
        profile = io.load_profile_csv(out)
        assert profile.grid.n_cells == 64


    def test_wrong_typed_config_value_is_an_input_error(self, workspace, capsys):
        io.save_json(workspace / "solver.json", {"damping": "0.5"})
        assert_input_error(capsys, "damping must be a number, got '0.5'", [
            "solve", "--game", str(workspace / "game.json"),
            "--config", str(workspace / "solver.json"), "--out", str(workspace / "f.csv"),
        ])
        assert not (workspace / "f.csv").exists()

    def test_unknown_config_key_is_an_input_error(self, workspace, capsys):
        io.save_json(workspace / "solver.json", {"dampening": 0.5})
        assert_input_error(capsys, r"solver config has unknown keys \['dampening'\]", [
            "solve", "--game", str(workspace / "game.json"),
            "--config", str(workspace / "solver.json"), "--out", str(workspace / "f.csv"),
        ])
        assert not (workspace / "f.csv").exists()

    def test_best_response_tolerance_is_not_a_config_key(self, workspace, capsys):
        # best responses are closed forms: there is no search tolerance to set
        io.save_json(workspace / "solver.json", {"best_response_tolerance": 1e-10})
        assert_input_error(
            capsys,
            r"solver config has unknown keys \['best_response_tolerance'\]; it takes "
            r"\['damping', 'max_iters', 'regret_target', 'selection_rule', 'step_tolerance'\]",
            ["solve", "--game", str(workspace / "game.json"),
             "--config", str(workspace / "solver.json"), "--out", str(workspace / "f.csv")])
        assert not (workspace / "f.csv").exists()

    @pytest.mark.parametrize("key, value, match", [
        ("L", "4", "L must be a number, got '4'"),
        ("lambda", True, "parameter lambda must be a number or a list of numbers, got True"),
        ("lambda", "0.5", "parameter lambda must be a number or a list of numbers, got '0.5'"),
        ("lambda", [True, 0.5], r"got \[True, 0.5\]"),
    ])
    def test_game_numbers_must_be_numbers(self, workspace, capsys, key, value, match):
        # float() would read true as 1 and "0.5" as 0.5
        game = {"graphon": {"family": "constant", "params": {"c": 0.5}},
                "utility": {"family": "plateau_lq", "params": {"lambda": 0.5}},
                "L": 4.0, "grid_n": 2}
        (game["utility"]["params"] if key == "lambda" else game)[key] = value
        io.save_json(workspace / "two.json", game)
        assert_input_error(capsys, match, [
            "solve", "--game", str(workspace / "two.json"), "--out", str(workspace / "f.csv"),
        ])
        assert not (workspace / "f.csv").exists()

    def test_unknown_utility_parameter_is_an_input_error(self, workspace, capsys):
        game = json.loads((workspace / "game.json").read_text())
        game["utility"]["params"]["lam"] = 0.5
        io.save_json(workspace / "game.json", game)
        assert_input_error(capsys, r"'plateau_lq' needs parameters \['lambda'\]", [
            "solve", "--game", str(workspace / "game.json"), "--out", str(workspace / "f.csv"),
        ])

    def test_missing_game_key_is_an_input_error(self, workspace, capsys):
        game = json.loads((workspace / "game.json").read_text())
        del game["L"]
        io.save_json(workspace / "game.json", game)
        assert_input_error(capsys, r"game descriptor is missing keys \['L'\]", [
            "solve", "--game", str(workspace / "game.json"), "--out", str(workspace / "f.csv"),
        ])


class TestLabRunCommand:
    def run_plan_with(self, workspace, capsys, match, **keys):
        plan = {
            "experiment": "coarsened",
            "game": json.loads((workspace / "game.json").read_text()),
            "n_list": [8, 16, 32, 64],
            **keys,
        }
        io.save_json(workspace / "plan.json", plan)
        assert_input_error(capsys, match, [
            "lab", "run", "--plan", str(workspace / "plan.json"),
            "--out", str(workspace / "results"),
        ])
        assert not (workspace / "results").exists()

    def test_solver_init_is_relative_to_the_plan(self, workspace, monkeypatch):
        plan_dir = workspace / "plans"
        plan_dir.mkdir()
        io.save_profile_csv(plan_dir / "init.csv", StepProfile.constant(4.0, GridSpec(64)))
        io.save_json(plan_dir / "plan.json", {
            "experiment": "coarsened",
            "game": json.loads((workspace / "game.json").read_text()),
            "n_list": [8, 16, 32, 64],
            "equilibrium_source": "solver",
            "solver_init": "init.csv",
        })
        monkeypatch.chdir(workspace)
        assert main(["lab", "run", "--plan", "plans/plan.json", "--out", "results"]) == 0
        assert json.loads((workspace / "results" / "summary.json").read_text())["passed"]

    def test_csv_solver_init_is_averaged_onto_each_network(self, workspace):
        # the limit experiment starts every network from the 64-cell CSV averaged
        # onto its own grid
        io.save_profile_csv(workspace / "init.csv", StepProfile.constant(4.0, GridSpec(64)))
        io.save_json(workspace / "plan.json", {
            "experiment": "limit",
            "game": json.loads((workspace / "game.json").read_text()),
            "n_list": [8, 16, 32, 64],
            "solver_init": "init.csv",
        })
        assert main(["lab", "run", "--plan", str(workspace / "plan.json"),
                     "--out", str(workspace / "results")]) == 0
        assert json.loads((workspace / "results" / "summary.json").read_text())["passed"]

    def test_csv_solver_init_on_a_different_alternate_grid(self, workspace):
        # the CSV is a profile on the 64-cell target grid; the alternate plan on 96
        # cells starts its reference and its networks from the CSV's averages
        io.save_profile_csv(workspace / "init.csv", StepProfile.constant(4.0, GridSpec(64)))
        io.save_json(workspace / "plan.json", {
            "experiment": "characterization",
            "game": json.loads((workspace / "game.json").read_text()),
            "n_list": [8, 16, 32, 64],
            "alt_n_list": [12, 24, 48, 96],
            "alt_grid": 96,
            "equilibrium_source": "solver",
            "solver_init": "init.csv",
        })
        assert main(["lab", "run", "--plan", str(workspace / "plan.json"),
                     "--out", str(workspace / "results")]) == 0
        assert json.loads((workspace / "results" / "summary.json").read_text())["passed"]

    def test_each_profile_file_is_read_once(self, workspace, monkeypatch):
        # both references, both limit experiments and the alternate plan on 96
        # cells use the two CSVs; each is read once, when the plan is parsed
        io.save_profile_csv(workspace / "g.csv", StepProfile.constant(1.0, GridSpec(64)))
        io.save_profile_csv(workspace / "init.csv", StepProfile.constant(4.0, GridSpec(64)))
        io.save_json(workspace / "plan.json", {
            "experiment": "characterization",
            "game": json.loads((workspace / "game.json").read_text()),
            "n_list": [8, 16, 32, 64],
            "alt_n_list": [12, 24, 48, 96],
            "alt_grid": 96,
            "source_g": "g.csv",
            "solver_init": "init.csv",
        })
        reads = []

        def counting(path):
            reads.append(os.path.basename(path))
            return load_profile_csv(path)

        load_profile_csv = io.load_profile_csv
        monkeypatch.setattr(io, "load_profile_csv", counting)
        assert main(["lab", "run", "--plan", str(workspace / "plan.json"),
                     "--out", str(workspace / "results")]) == 0
        assert sorted(reads) == ["g.csv", "init.csv"]

    def test_uncertified_reference_exits_1_without_a_traceback(self, workspace, capsys):
        io.save_json(workspace / "plan.json", {
            "experiment": "coarsened",
            "game": json.loads((workspace / "game.json").read_text()),
            "n_list": [8, 16, 32, 64],
            "equilibrium_source": "solver",
            "solver": {"max_iters": 1},
        })
        capsys.readouterr()
        assert main(["lab", "run", "--plan", str(workspace / "plan.json"),
                     "--out", str(workspace / "results")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "solver source did not converge" in err

    def test_missing_key_of_the_plan_game_is_an_input_error(self, workspace, capsys):
        game = json.loads((workspace / "game.json").read_text())
        del game["L"]
        self.run_plan_with(workspace, capsys, r"game descriptor is missing keys \['L'\]",
                           game=game)

    def test_csv_solver_init_off_the_game_grid_is_an_input_error(self, workspace, capsys):
        io.save_profile_csv(workspace / "init.csv", StepProfile.constant(4.0, GridSpec(32)))
        self.run_plan_with(workspace, capsys, r"solver_init has 32 cells, expected 64",
                           equilibrium_source="solver", solver_init="init.csv")

    def test_misspelled_plan_key_is_an_input_error(self, workspace, capsys):
        self.run_plan_with(workspace, capsys, r"plan file has unknown keys \['eps_tolerence'\]",
                           eps_tolerence=-1.0)

    def test_unknown_plan_solver_key_is_an_input_error(self, workspace, capsys):
        self.run_plan_with(workspace, capsys, r"solver config has unknown keys \['iters'\]",
                           solver={"iters": 10})

    @pytest.mark.parametrize("keys, match", [
        ({"eps_tolerance": "abc"}, "eps_tolerance must be a number, got 'abc'"),
        ({"eps_tolerance": True}, "eps_tolerance must be a number, got True"),
        ({"eps_tolerance": float("nan")}, "eps_tolerance must be finite and >= 0, got nan"),
        ({"eps_tolerance": -1}, "eps_tolerance must be finite and >= 0, got -1"),
        ({"certification_tol": float("nan")}, "certification_tol must be finite and >= 0"),
        ({"resolvent_tol": "x"}, "resolvent_tol must be a number"),
        ({"resolvent_tol": 0}, "resolvent_tol must be finite and > 0"),
        ({"exceed_delta": "q"}, "exceed_delta must be a number"),
        ({"solver_init": 3}, "solver_init must be const:v or a CSV path, got 3"),
        ({"source_g": [1, 2]}, r"source_g must be a number, got \[1, 2\]"),
        ({"solver": {"damping": "0.5"}}, "damping must be a number, got '0.5'"),
        ({"solver": {"max_iters": 2.5}}, "max_iters must be an integer >= 1, got 2.5"),
        ({"solver": {"regret_target": None}}, "regret_target must be a number, got None"),
        ({"n_list": [8.5, 16]}, "n_list must be an integer, got 8.5"),
        ({"n_list": 8}, "n_list must be a list of sizes, got 8"),
        ({"game": 3}, "game descriptor must be a JSON object, got 3"),
        ({"alt_n_list": [12, True]}, "alt_n_list must be an integer, got True"),
        ({"alt_grid": 96.5}, "alt_grid must be an integer, got 96.5"),
        # a solver-sourced plan would ignore the resolvent's keys
        ({"equilibrium_source": "solver", "source_g": "const:1"},
         r"plan file has keys \['source_g'\] that a solver-sourced plan does not use"),
        ({"equilibrium_source": "solver", "resolvent_tol": 1e-8},
         r"plan file has keys \['resolvent_tol'\] that a solver-sourced plan does not use"),
        ({"equilibrium_source": "solver", "source_g": 1.0, "resolvent_tol": 1e-8},
         r"has keys \['resolvent_tol', 'source_g'\] that"),
    ])
    def test_wrong_typed_or_out_of_range_numbers_are_input_errors(self, workspace, capsys,
                                                                  keys, match):
        self.run_plan_with(workspace, capsys, match, **keys)

    @pytest.mark.parametrize("field, value, match", [
        ("grid_n", 8.7, "grid_n must be an integer, got 8.7"),
        ("graphon", {"family": "step", "params": {"n": 1.5, "values": [0.5]}},
         "step graphon n must be an integer, got 1.5"),
        ("utility", 3, "utility descriptor must be a JSON object, got 3"),
    ])
    def test_malformed_game_values_are_input_errors(self, workspace, capsys, field, value, match):
        game = json.loads((workspace / "game.json").read_text())
        game[field] = value
        self.run_plan_with(workspace, capsys, match, game=game)

    def test_unknown_experiment_is_an_input_error(self, workspace, capsys):
        self.run_plan_with(workspace, capsys, "unknown experiment 'mystery'",
                           experiment="mystery")

    def test_runs_plan_and_writes_summary(self, workspace, capsys):
        plan = {
            "experiment": "coarsened",
            "game": json.loads((workspace / "game.json").read_text()),
            "n_list": [8, 16, 32, 64],
        }
        io.save_json(workspace / "plan.json", plan)
        outdir = workspace / "results"
        code = main(["lab", "run", "--plan", str(workspace / "plan.json"),
                     "--out", str(outdir)])
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["passed"] is True
        assert (outdir / "coarsened_equilibrium.csv").exists()

    def test_summary_is_built_once_and_written_as_printed(self, workspace, capsys, monkeypatch):
        calls = []

        class Result:
            def summary(self):
                calls.append(1)
                return {"experiment": "stub", "skipped": [], "passed": True}

        monkeypatch.setattr(lab, "run_plan", lambda plan, experiment: Result())
        io.save_json(workspace / "plan.json", {
            "experiment": "coarsened",
            "game": json.loads((workspace / "game.json").read_text()),
            "n_list": [8, 16],
        })
        outdir = workspace / "results"
        capsys.readouterr()
        assert main(["lab", "run", "--plan", str(workspace / "plan.json"),
                     "--out", str(outdir)]) == 0
        assert len(calls) == 1
        assert (outdir / "summary.json").read_text() == (
            '{\n  "experiment": "stub",\n  "skipped": [],\n  "passed": true\n}\n')
        assert capsys.readouterr().out == (
            f"experiment stub: passed=True\nwrote {outdir}/summary.json\n")

    def test_failed_threshold_gives_nonzero_exit(self, workspace):
        plan = {
            "experiment": "coarsened",
            "game": json.loads((workspace / "game.json").read_text()),
            # a valid tolerance that only an exact equilibrium meets: the 16-player
            # coarsening of the 64-cell reference has regret about 6e-10
            "n_list": [8, 16],
            "eps_tolerance": 0.0,
        }
        io.save_json(workspace / "plan.json", plan)
        code = main(["lab", "run", "--plan", str(workspace / "plan.json"),
                     "--out", str(workspace / "results")])
        assert code == 1
