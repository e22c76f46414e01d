import json

import numpy as np
import pytest

from graphon_games import io
from graphon_games.cli import main
from graphon_games.core import GridSpec, SeparablePowerGraphon, StepProfile
from graphon_games.lq import LQParams, SourceFunction, equilibrium_from_source


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


    def test_incommensurate_step_grid_writes_nothing(self, workspace):
        io.save_json(workspace / "step3.json",
                     {"family": "step", "params": {"n": 3, "values": [[0.5] * 3] * 3}})
        out = workspace / "s4.csv"
        with pytest.raises(ValueError, match="must divide the game grid"):
            main([
                "lq", "solve", "--graphon", str(workspace / "step3.json"),
                "--lambda", "0.5", "--L", "4.0", "--n", "4", "--out", str(out),
            ])
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

    def test_grid_mismatch_is_an_error(self, workspace):
        bad = workspace / "bad.csv"
        io.save_profile_csv(bad, StepProfile.constant(0.0, GridSpec(8)))
        code = main([
            "lq", "verify", "--game", str(workspace / "game.json"), "--profile", str(bad),
        ])
        assert code == 2


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


class TestLabRunCommand:
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

    def test_failed_threshold_gives_nonzero_exit(self, workspace):
        plan = {
            "experiment": "coarsened",
            "game": json.loads((workspace / "game.json").read_text()),
            "n_list": [8, 16, 32, 64],
            "eps_tolerance": -1.0,
        }
        io.save_json(workspace / "plan.json", plan)
        code = main(["lab", "run", "--plan", str(workspace / "plan.json"),
                     "--out", str(workspace / "results")])
        assert code == 1
