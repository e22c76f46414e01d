import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphon_games import io, lab
from graphon_games.cli import main
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

    @pytest.mark.parametrize("d, match", [
        ({"n": 0, "values": []}, r"^step graphon n must be at least 1, got 0$"),
        ({"n": -1, "values": [0.5]}, r"^step graphon n must be at least 1, got -1$"),
        ({"n": 2, "values": [0.5] * 3},
         r"^step graphon with n = 2 needs n \* n = 4 flat values, got 3$"),
        ({"values": [[0.5, 0.5], [0.5]]},
         r"^step graphon has 2 rows, so each needs 2 values; got rows of lengths \[1, 2\]$"),
        ({"n": 3, "values": [[0.5, 0.5], [0.5, 0.5]]},
         r"^step graphon n = 3 does not match its 2 rows$"),
    ], ids=["n=0", "n=-1", "short", "ragged", "n-vs-rows"])
    def test_shape_errors_name_the_problem(self, d, match):
        with pytest.raises(ValueError, match=match):
            io.step_graphon_from_envelope(d)

    def test_empty_matrix_is_refused_by_name(self):
        with pytest.raises(ValueError, match=r"^step graphon must have at least one entry"):
            StepGraphon(np.zeros((0, 0)))


def write_text(path, text):
    path.write_text(text)
    return path


def same_json(a, b):
    """Equal, with the same type at every place (json.load's 1 is an int, not 1.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_json, a, b))
    return a == b or a != a and b != b


@st.composite
def number_spellings(draw):
    """A JSON number in [0, 1] as some writer might spell it, and its float."""
    x = draw(st.one_of(st.integers(0, 1), st.floats(0.0, 1.0)))
    spellings = [json.dumps(x)]
    if isinstance(x, int):
        spellings += [f"{x}e0", f"{x}E+00", f"{x}.0", f"{x * 1000}E-3"]
    else:
        spellings += [f"{x:.17g}", f"{x:.3e}", f"{x:.6E}".replace("E-0", "E-"), repr(x)]
        if x == 0.0:
            spellings += ["-0.0", "-0", "0e+00", "-0E-3"]
    return draw(st.sampled_from(spellings))


BLANK = st.text(" \t\n\r", max_size=3)


class TestStepValuesDecoder:
    """load_json reads a step kernel's values as float arrays, and all else as json.load."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 6), nested=st.booleans(), chunk=st.integers(1, 12), data=st.data())
    def test_values_are_json_loads_floats(self, tmp_path, monkeypatch, n, nested, chunk, data):
        monkeypatch.setattr(io, "_CHUNK_CHARS", chunk)  # cross chunk boundaries
        entries = data.draw(st.lists(number_spellings(), min_size=n * n, max_size=n * n))

        def sep(s):
            return data.draw(BLANK) + s + data.draw(BLANK)

        def array(items):
            return "[" + sep(sep(",").join(items)) + "]"

        values = (array([array(entries[i * n:(i + 1) * n]) for i in range(n)]) if nested
                  else array(entries))
        text = '{"family": "step", "params": {' + sep('"n": ' + str(n) + ",") + \
            '"values":' + sep(values) + "}}"
        path = write_text(tmp_path / "w.json", text)
        expected = np.array(json.loads(text)["params"]["values"], dtype=float).reshape(n, n)
        got = io.graphon_from_descriptor(io.load_json(path)).values
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 5), chunk=st.integers(1, 40), data=st.data())
    def test_saved_game_reads_back(self, tmp_path, monkeypatch, n, chunk, data):
        # save_json's indent=2 layout: one number per line
        monkeypatch.setattr(io, "_CHUNK_CHARS", chunk)
        adjacency = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 0.25, 1e-3]),
                                                min_size=n * n, max_size=n * n))).reshape(n, n)
        net = NetworkGame(adjacency, PlateauUtility.from_values(GridSpec(n), lam=0.5), 4.0)
        desc = io.game_to_descriptor(embed_network(net))
        io.save_json(tmp_path / "game.json", desc)
        loaded = io.load_json(tmp_path / "game.json")
        rows = loaded["graphon"]["params"]["values"]
        assert all(isinstance(row, np.ndarray) and not row.flags.writeable for row in rows)
        loaded["graphon"]["params"]["values"] = [row.tolist() for row in rows]
        assert same_json(loaded, desc)
        game = io.game_from_descriptor(io.load_json(tmp_path / "game.json"))
        assert game.graphon.values.tobytes() == adjacency.tobytes()

    def test_flat_values_are_adopted_without_a_copy(self, tmp_path):
        path = write_text(tmp_path / "w.json", '{"n": 2, "values": [0, 1, 0.5, 0.25]}')
        d = io.load_json(path)
        W = io.step_graphon_from_envelope(d)
        assert W.values.base is d["values"] and not d["values"].flags.writeable
        np.testing.assert_array_equal(W.values, [[0.0, 1.0], [0.5, 0.25]])

    def test_number_arrays_elsewhere_are_json_loads_lists(self, tmp_path):
        plan = {
            "experiment": "characterization",
            "game": {"graphon": {"family": "constant", "params": {"c": 0.5}},
                     "utility": {"family": "quadratic",
                                 "params": {"beta": [1, 2.5, -0.0, 1e-3], "delta": 0}},
                     "L": 4, "grid_n": 4},
            "n_list": [1, 2, 4], "alt_n_list": [[1, 2], [], [3]], "empty": [],
            "values": [1, 2], "mixed": [1, True, None, "2", [0.5, [1]]],
            "nested": {"values": [0, 1], "rows": 2},
        }
        text = json.dumps(plan, indent=2)
        path = write_text(tmp_path / "plan.json", text)
        assert same_json(io.load_json(path), json.loads(text))
        assert same_json(io.load_json(write_text(tmp_path / "n.json", "[1, 2.0, -0]")),
                         [1, 2.0, 0])
        assert io.load_json(write_text(tmp_path / "big.json", "[" + "9" * 400 + "]")) == [
            int("9" * 400)]

    @pytest.mark.parametrize("text", [
        "[+1]", "[.5]", "[01]", "[1.]", "[1e]", "[1,,2]", "[1, 2,]", "[,1]", "[-]", "[1 2]",
        '{"n": 2, "values": [0.5, 0.5,\n 0.5,,\n 0.5]}',
        '{"values": [[0.5, 0.5], [0.5, 0.5,]]}',
        '{"values": [0.5,, 0.5], "n": }',  # the first error in the text is the one reported
        "[1, 2] 3", '{"n": 1, "values": [0.5]', '{"a": [1, 2}', "\ufeff[1]",
        pytest.param("[" + "0.25, " * 200 + "0.25,, 0.5]", id="empty-slot-after-many"),
    ])
    @pytest.mark.parametrize("chunk", [3, 1 << 18])
    def test_errors_are_json_loads_errors(self, tmp_path, monkeypatch, text, chunk):
        monkeypatch.setattr(io, "_CHUNK_CHARS", chunk)
        path = write_text(tmp_path / "bad.json", text)
        with pytest.raises(json.JSONDecodeError) as expected:
            with open(path) as fh:
                json.load(fh)
        with pytest.raises(json.JSONDecodeError, match=f"^{re.escape(str(expected.value))}$"):
            io.load_json(path)

    @pytest.mark.parametrize("values, match", [
        ("[true, 0.5, 0.5, 0.5]", "step graphon values must be numbers, got bool"),
        ('[0.5, "0.25", 0.5, 0.5]', "step graphon values must be numbers, got str"),
        ("[NaN, 0.5, 0.5, 0.5]", "step graphon entries must be finite"),
        ("[[0.5, 0.5], [null, 0.5]]", "step graphon values must be numbers, got NoneType"),
    ])
    def test_values_that_are_not_numbers_keep_their_errors(self, tmp_path, values, match):
        path = write_text(tmp_path / "w.json",
                          '{"family": "step", "params": {"n": 2, "values": ' + values + "}}")
        with pytest.raises(ValueError, match=match):
            io.graphon_from_descriptor(io.load_json(path))

    def test_lq_solve_reports_a_malformed_number(self, tmp_path, capsys):
        path = write_text(tmp_path / "w.json",
                          '{"family": "step", "params": {"n": 2, "values": [0.5, .5, 0.5, 0.5]}}')
        capsys.readouterr()
        assert main(["lq", "solve", "--graphon", str(path), "--lambda", "0.5", "--L", "4",
                     "--n", "8", "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "graphon-games: Expecting value: line 1 column 55 (char 54)\n"

    def test_read_holds_the_text_and_the_matrix(self, tmp_path):
        # 8 MiB of float64 from about 5 MiB of text, never a list of a million floats
        n = 1024
        adjacency = np.random.default_rng(0).random(n * n) < 0.3
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"family": "step", "params": {
            "n": n, "values": adjacency.astype(float).tolist()}}))
        tracemalloc.start()
        try:
            W = io.graphon_from_descriptor(io.load_json(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert W.n == n and np.array_equal(W.values.ravel(), adjacency)
        assert peak <= 20 * 2 ** 20, peak / 2 ** 20


JSON_SCALARS = (st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
                | st.floats() | st.text(max_size=4))
JSON_KEYS = st.text(max_size=4) | st.integers(-9, 9) | st.booleans() | st.none() | st.floats()
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: (st.lists(kids, max_size=4) | st.tuples(kids, kids)
                  | st.dictionaries(JSON_KEYS, kids, max_size=4)),
    max_leaves=24)


def has_number_array(value) -> bool:
    """Whether ``value`` holds a non-empty array of only ints and floats."""
    if isinstance(value, dict):
        return any(map(has_number_array, value.values()))
    if isinstance(value, (list, tuple)):
        return (bool(value) and all(type(x) in (int, float) for x in value)
                or any(map(has_number_array, value)))
    return False


class TestSaveJson:
    """save_json indents objects as json.dump(indent=2) does, but puts each
    array of only numbers on one line; the values read back are the same."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=JSON_VALUES)
    def test_same_values_and_indented_layout(self, tmp_path, value):
        path = tmp_path / "v.json"
        io.save_json(path, value)
        indented = json.dumps(value, indent=2) + "\n"
        assert same_json(json.loads(path.read_text()), json.loads(indented))
        if not has_number_array(value):
            assert path.read_text() == indented

    def test_rows_go_on_one_line_each(self, tmp_path):
        path = tmp_path / "w.json"
        io.save_json(path, {"family": "step",
                            "params": {"n": 2, "values": [[0, 1.5], [-0.0, 1e-300]]},
                            "skipped": [], "mixed": [1, True]})
        assert path.read_text() == (
            '{\n  "family": "step",\n  "params": {\n    "n": 2,\n    "values": [\n'
            '      [0, 1.5],\n      [-0.0, 1e-300]\n    ]\n  },\n  "skipped": [],\n'
            '  "mixed": [\n    1,\n    true\n  ]\n}\n')

    def test_keys_json_refuses_are_refused(self, tmp_path):
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            io.save_json(tmp_path / "k.json", {(1, 2): 0})

    def test_network_game_reads_back_as_the_indented_file_did(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 16
        net = NetworkGame((rng.random((n, n)) < 0.3) * rng.random((n, n)),
                          QuadraticUtility.from_values(GridSpec(n), beta=rng.random(n),
                                                       delta=-rng.random(n)), 4.0)
        desc = io.game_to_descriptor(embed_network(net))
        io.save_json(tmp_path / "new.json", desc)
        with open(tmp_path / "old.json", "w") as fh:
            json.dump(desc, fh, indent=2)
        new, old = io.load_json(tmp_path / "new.json"), io.load_json(tmp_path / "old.json")
        rows = [d["graphon"]["params"].pop("values") for d in (new, old)]
        assert [row.tobytes() for row in rows[0]] == [row.tobytes() for row in rows[1]]
        assert same_json(new, old)
        lines = {line.strip().rstrip(",") for line in (tmp_path / "new.json").open()}
        assert all(json.dumps(row) in lines for row in desc["graphon"]["params"]["values"])


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
