import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_games import io, lab
from graphon_games.core import (
    ConstantGraphon,
    GridSpec,
    ProductGraphon,
    SeparablePowerGraphon,
    StepGraphon,
    StepProfile,
)
from graphon_games.games import (
    UTILITY_FAMILIES,
    NetworkGame,
    PlateauUtility,
    QuadraticUtility,
    embed_network,
    regret_profile,
)
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


class TestStepGraphonRoundTrips:
    def test_json_envelope_flat_and_nested(self):
        W = StepGraphon([[0.0, 1.0], [0.5, 0.25]])
        flat = {"n": 2, "values": [0.0, 1.0, 0.5, 0.25]}
        np.testing.assert_array_equal(io.step_graphon_from_envelope(flat).values, W.values)
        nested = {"n": 2, "values": [[0.0, 1.0], [0.5, 0.25]]}
        np.testing.assert_array_equal(io.step_graphon_from_envelope(nested).values, W.values)
        assert W.descriptor()["params"] == nested

    def test_ragged_envelope_is_refused(self):
        with pytest.raises(ValueError, match="a list of numbers or of rows of numbers"):
            io.step_graphon_from_envelope({"values": [[0.5, 0.5], 0.5]})


class TestGraphonDescriptors:
    @pytest.mark.parametrize("W", [
        ConstantGraphon(0.3),
        ProductGraphon(),
        SeparablePowerGraphon(0.25),
        StepGraphon([[0.1, 0.9], [0.4, 0.6]]),
    ])
    def test_round_trip(self, W):
        back = io.graphon_from_descriptor(W.descriptor())
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
        (io.step_graphon_from_envelope, {"n": 1, "values": [0.5], "rows": 1}, "step graphon"),
        (lambda d: lab.plan_from_descriptor(d), {"game": GAME, "eps_tolerence": 1.0},
         "plan file"),
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
        (io.game_from_descriptor, {k: v for k, v in GAME.items() if k != "grid_n"},
         "game descriptor", "grid_n"),
        (io.graphon_from_descriptor, {"family": "block", "params": {"n": 1}},
         "step graphon", "values"),
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
        assert spec.descriptor() == {"family": "plateau_lq", "params": {"lambda": 0.5}}

    def test_vector_parameters(self):
        grid = GridSpec(2)
        spec = io.utility_from_descriptor(
            {"family": "quadratic", "params": {"beta": [1.0, 2.0], "delta": 0.5}}, grid
        )
        assert isinstance(spec, QuadraticUtility)
        desc = spec.descriptor()
        assert desc["params"]["beta"] == [1.0, 2.0]
        assert desc["params"]["delta"] == 0.5

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="lambda"):
            io.utility_from_descriptor({"family": "plateau_lq", "params": {}}, GridSpec(2))

    @pytest.mark.parametrize("beta", [True, "1.0", [1.0, False], [1.0, "2"], None])
    def test_parameter_values_must_be_numbers(self, beta):
        # float() would read true as 1 and "1.0" as 1.0
        with pytest.raises(ValueError, match="quadratic utility parameter beta must be a number"):
            io.utility_from_descriptor(
                {"family": "quadratic", "params": {"beta": beta, "delta": 0.5}}, GridSpec(2))

    def test_parameters_may_be_negative(self):
        spec = io.utility_from_descriptor(
            {"family": "quadratic", "params": {"beta": [-1.0, 2], "delta": -0.5}}, GridSpec(2))
        np.testing.assert_array_equal(spec.params["beta"].values, [-1.0, 2.0])

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(sorted(UTILITY_FAMILIES)), n=st.integers(1, 8),
           data=st.data())
    def test_descriptor_reads_back(self, family, n, data):
        # each parameter is one number for all agents, or one number per agent
        value = st.floats(-10.0, 10.0)
        cls = UTILITY_FAMILIES[family]
        spec = cls.from_values(GridSpec(n), **{
            name: data.draw(st.one_of(value, st.lists(value, min_size=n, max_size=n)),
                            label=name)
            for name in cls.param_names
        })
        desc = json.loads(json.dumps(spec.descriptor()))
        back = io.utility_from_descriptor(desc, GridSpec(n))
        assert type(back) is cls and back.descriptor() == desc
        for name in cls.param_names:
            np.testing.assert_array_equal(back.params[name].values, spec.params[name].values)


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
        # a network game is written as the step-game descriptor of its embedding,
        # its adjacency inline as the step kernel's values
        net = NetworkGame([[0.0, 1.0], [1.0, 0.0]],
                          PlateauUtility.from_values(GridSpec(2), lam=0.5), 4.0)
        desc = io.game_to_descriptor(embed_network(net))
        assert desc == {
            "graphon": {"family": "step", "params": {"n": 2, "values": [[0.0, 1.0], [1.0, 0.0]]}},
            "utility": {"family": "plateau_lq", "params": {"lambda": 0.5}},
            "L": 4.0,
            "grid_n": 2,
        }
        game = io.game_from_descriptor(json.loads(json.dumps(desc)))
        s = np.array([1.5, 3.0])
        np.testing.assert_array_equal(regret_profile(game, s).regrets.values,
                                      regret_profile(net, s).regrets.values)


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
