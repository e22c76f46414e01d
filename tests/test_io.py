import numpy as np
import pytest

from graphon_games import io, lab
from graphon_games.core import (
    ConstantGraphon,
    GridSpec,
    ProductGraphon,
    SeparablePowerGraphon,
    StepGraphon,
    StepProfile,
)
from graphon_games.games import PlateauUtility, QuadraticUtility, regret_profile
from graphon_games.lq import LQParams, lq_game


class TestProfileRoundTrips:
    def test_csv(self, tmp_path):
        path = tmp_path / "profile.csv"
        profile = StepProfile(GridSpec(5), [0.1, 0.2, 0.3, 0.4, 0.5])
        io.save_profile_csv(path, profile)
        back = io.load_profile_csv(path)
        np.testing.assert_array_equal(back.values, profile.values)
        # one value per line
        assert len(path.read_text().splitlines()) == 5

    def test_single_value_csv(self, tmp_path):
        path = tmp_path / "one.csv"
        io.save_profile_csv(path, StepProfile.constant(2.0, GridSpec(1)))
        assert io.load_profile_csv(path).grid.n_cells == 1

    def test_json_envelope(self):
        profile = StepProfile(GridSpec(3), [1.0, 2.0, 3.0])
        env = io.profile_to_envelope(profile)
        assert env == {"n": 3, "values": [1.0, 2.0, 3.0]}
        back = io.profile_from_envelope(env)
        np.testing.assert_array_equal(back.values, profile.values)


class TestStepGraphonRoundTrips:
    def test_matrix_csv(self, tmp_path):
        path = tmp_path / "w.csv"
        rng = np.random.default_rng(50)
        values = rng.random((4, 4))
        io.save_matrix_csv(path, values)
        np.testing.assert_array_equal(io.load_matrix_csv(path), values)

    def test_json_envelope_flat_and_nested(self):
        W = StepGraphon([[0.0, 1.0], [0.5, 0.25]])
        env = io.step_graphon_to_envelope(W)
        assert env["n"] == 2 and env["values"] == [0.0, 1.0, 0.5, 0.25]
        np.testing.assert_array_equal(io.step_graphon_from_envelope(env).values, W.values)
        nested = {"n": 2, "values": [[0.0, 1.0], [0.5, 0.25]]}
        np.testing.assert_array_equal(io.step_graphon_from_envelope(nested).values, W.values)


class TestGraphonDescriptors:
    @pytest.mark.parametrize("W", [
        ConstantGraphon(0.3),
        ProductGraphon(),
        SeparablePowerGraphon(0.25),
        StepGraphon([[0.1, 0.9], [0.4, 0.6]]),
    ])
    def test_round_trip(self, W):
        back = io.graphon_from_descriptor(io.graphon_to_descriptor(W))
        assert type(back) is type(W)
        pts = np.array([0.2, 0.7])
        np.testing.assert_array_equal(
            np.asarray(back.evaluate(pts[:, None], pts[None, :]), float),
            np.asarray(W.evaluate(pts[:, None], pts[None, :]), float),
        )

    def test_block_alias(self):
        W = io.graphon_from_descriptor(
            {"family": "block", "params": {"values": [[0.9, 0.1], [0.1, 0.9]]}}
        )
        assert isinstance(W, StepGraphon)
        assert W.evaluate(0.1, 0.1) == 0.9

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            io.graphon_from_descriptor({"family": "mystery", "params": {}})

    def test_unknown_analytic_parameter(self):
        with pytest.raises(ValueError, match=r"'constant' needs parameters \['c'\]"):
            io.graphon_from_descriptor({"family": "constant", "params": {"alpha": 0.5}})

    def test_missing_analytic_parameter(self):
        with pytest.raises(ValueError, match=r"'separable_power' needs parameters \['alpha'\]"):
            io.graphon_from_descriptor({"family": "separable_power", "params": {}})


    def test_step_descriptor_reads_the_envelope(self):
        W = io.graphon_from_descriptor(
            {"family": "step", "params": {"n": 2, "values": [0.1, 0.2, 0.3, 0.4]}})
        np.testing.assert_array_equal(W.values, [[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(ValueError, match=r"step graphon has unknown keys \['rows'\]"):
            io.graphon_from_descriptor({"family": "step", "params": {"rows": [[0.5]]}})


class TestUnknownKeys:
    GAME = {
        "graphon": {"family": "constant", "params": {"c": 0.5}},
        "utility": {"family": "plateau_lq", "params": {"lambda": 0.5}},
        "L": 4.0,
        "grid_n": 4,
    }

    @pytest.mark.parametrize("read, d, what", [
        (io.graphon_from_descriptor, {"family": "product", "param": {}}, "graphon descriptor"),
        (lambda d: io.utility_from_descriptor(d, GridSpec(2)),
         {"family": "plateau_lq", "params": {"lambda": 0.5}, "L": 4.0}, "utility descriptor"),
        (io.game_from_descriptor, {**GAME, "grid": 4}, "game descriptor"),
        (io.network_game_from_descriptor, {**GAME, "adjacency": [[0.5]]},
         "network game descriptor"),
        (io.profile_from_envelope, {"n": 1, "values": [1.0], "grid": 1}, "profile envelope"),
        (io.solver_config_from_descriptor, {"damping": 0.5, "tol": 1e-9}, "solver config"),
    ])
    def test_reader_rejects_unknown_key(self, read, d, what):
        with pytest.raises(ValueError, match=f"^{what} has unknown keys"):
            read(d)

    @pytest.mark.parametrize("read, d, what, key", [
        (io.graphon_from_descriptor, {"params": {}}, "graphon descriptor", "family"),
        (lambda d: io.utility_from_descriptor(d, GridSpec(2)),
         {"params": {"lambda": 0.5}}, "utility descriptor", "family"),
        (io.game_from_descriptor, {k: v for k, v in GAME.items() if k != "L"},
         "game descriptor", "L"),
        (io.network_game_from_descriptor, {"adjacency": [[0.5]], "L": 4.0},
         "network game descriptor", "utility"),
        (io.profile_from_envelope, {"values": [1.0]}, "profile envelope", "n"),
        (io.step_graphon_from_envelope, {"n": 1}, "step graphon", "values"),
        (io.step_graphon_from_envelope, {"values": [0.5]}, "step graphon with flat values", "n"),
        (lambda d: lab.plan_from_descriptor(d), {"n_list": [1]}, "plan file", "game"),
    ])
    def test_reader_names_a_missing_key(self, read, d, what, key):
        with pytest.raises(ValueError, match=rf"^{what} is missing keys \['{key}'\]"):
            read(d)

    def test_lam_is_not_a_spelling_of_lambda(self):
        with pytest.raises(ValueError, match=r"needs parameters \['lambda'\], got \['lam'\]"):
            io.utility_from_descriptor({"family": "plateau_lq", "params": {"lam": 0.5}},
                                       GridSpec(2))


class TestUtilityDescriptors:
    def test_scalar_lambda_round_trip(self):
        grid = GridSpec(4)
        spec = io.utility_from_descriptor(
            {"family": "plateau_lq", "params": {"lambda": 0.5}}, grid
        )
        assert isinstance(spec, PlateauUtility)
        np.testing.assert_array_equal(spec.lam, 0.5)
        assert io.utility_to_descriptor(spec) == {"family": "plateau_lq",
                                                  "params": {"lambda": 0.5}}

    def test_vector_parameters(self):
        grid = GridSpec(2)
        spec = io.utility_from_descriptor(
            {"family": "quadratic", "params": {"beta": [1.0, 2.0], "delta": 0.5}}, grid
        )
        assert isinstance(spec, QuadraticUtility)
        desc = io.utility_to_descriptor(spec)
        assert desc["params"]["beta"] == [1.0, 2.0]
        assert desc["params"]["delta"] == 0.5

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="lambda"):
            io.utility_from_descriptor({"family": "plateau_lq", "params": {}}, GridSpec(2))


class TestGameDescriptors:
    DESCRIPTOR = {
        "graphon": {"family": "separable_power", "params": {"alpha": 0.5}},
        "utility": {"family": "plateau_lq", "params": {"lambda": 0.5}},
        "L": 4.0,
        "grid_n": 16,
    }

    def test_graphon_game_round_trip(self):
        game = io.game_from_descriptor(self.DESCRIPTOR)
        assert game.cap == 4.0 and game.grid.n_cells == 16
        assert io.game_to_descriptor(game) == self.DESCRIPTOR

    def test_network_game_inline_adjacency(self):
        net = io.network_game_from_descriptor({
            "adjacency": [[0.0, 1.0], [1.0, 0.0]],
            "utility": {"family": "plateau_lq", "params": {"lambda": 0.5}},
            "L": 4.0,
        })
        assert net.n_players == 2

    def test_network_game_adjacency_csv(self, tmp_path):
        io.save_matrix_csv(tmp_path / "adj.csv", np.eye(3) * 0.5)
        net = io.network_game_from_descriptor(
            {
                "adjacency_csv": "adj.csv",
                "utility": {"family": "quadratic", "params": {"beta": 1.0, "delta": 0.0}},
                "L": 2.0,
            },
            base_dir=str(tmp_path),
        )
        assert net.n_players == 3
        with pytest.raises(ValueError):
            io.network_game_from_descriptor({"utility": {}, "L": 1.0})


class TestReportTables:
    def test_regret_csv_layout(self, tmp_path):
        grid = GridSpec(4)
        game = lq_game(ConstantGraphon(0.5), LQParams(0.5, 4.0), grid)
        report = regret_profile(game, StepProfile.constant(0.5, grid))
        path = tmp_path / "report.csv"
        io.write_regret_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# epsilon_star,")
        assert lines[1] == "cell_index,midpoint,strategy,aggregate,regret"
        assert len(lines) == 6
        first = lines[2].split(",")
        assert first[0] == "1" and float(first[1]) == 0.125 and float(first[2]) == 0.5

    def test_generic_table(self, tmp_path):
        path = tmp_path / "table.csv"
        io.write_table_csv(path, ("a", "b"), [(1, 0.5), (2, True)])
        assert path.read_text() == "a,b\n1,0.5\n2,true\n"


class TestProfileSourceParsing:
    def test_const(self):
        profile = io.parse_profile_source("const:1.5", GridSpec(4))
        np.testing.assert_array_equal(profile.values, 1.5)

    def test_const_cap_token(self):
        profile = io.parse_profile_source("const:L", GridSpec(2), cap=3.0)
        np.testing.assert_array_equal(profile.values, 3.0)

    def test_const_needs_grid(self):
        with pytest.raises(ValueError):
            io.parse_profile_source("const:1.0")

    def test_csv_with_grid_check(self, tmp_path):
        path = tmp_path / "p.csv"
        io.save_profile_csv(path, StepProfile.constant(0.5, GridSpec(3)))
        profile = io.parse_profile_source(str(path), GridSpec(3))
        assert profile.grid.n_cells == 3
        with pytest.raises(ValueError):
            io.parse_profile_source(str(path), GridSpec(4))
