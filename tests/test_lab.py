import numpy as np
import pytest

from graphon_games import io, lab
from graphon_games.core import (
    ConstantGraphon,
    GridCompatibilityError,
    GridSpec,
    ProductGraphon,
    SeparablePowerGraphon,
    StepGraphon,
    StepProfile,
    graphon_l1_distance,
)
from graphon_games.games import PlateauUtility, embed_strategy
from graphon_games.lab import (
    CertificationError,
    ExperimentPlan,
    approximate_profile,
    build_network_sequence,
    plan_from_descriptor,
    regrid_game,
    run_characterization_suite,
    run_coarsened_equilibrium_experiment,
    run_limit_equilibrium_experiment,
    run_plan,
)
from graphon_games.lq import LQParams, SourceFunction, equilibrium_from_source, lq_game
from graphon_games.solver import SolverConfig, profile_distance, solve


def reference_game(n_ref=48, lam=0.5, cap=4.0, alpha=0.5):
    return lq_game(SeparablePowerGraphon(alpha), LQParams(lam, cap), GridSpec(n_ref))


class TestBuildNetworkSequence:
    def test_step_graphon_reproduced_exactly(self):
        rng = np.random.default_rng(40)
        values = rng.random((8, 8))
        grid = GridSpec(8)
        game = lq_game(StepGraphon(values), LQParams(0.3, 4.0), grid)
        net = build_network_sequence(game, [8])[0]
        np.testing.assert_array_equal(net.adjacency, values)

    def test_product_kernel_error_strictly_decreasing(self):
        game = lq_game(ProductGraphon(), LQParams(0.5, 4.0), GridSpec(64))
        nets = build_network_sequence(game, [8, 16, 32, 64])
        errors = [graphon_l1_distance(game.graphon, StepGraphon(net.adjacency),
                                      resolution=1024) for net in nets]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_constant_parameters_pass_through(self):
        game = reference_game()
        for net in build_network_sequence(game, [6, 12]):
            np.testing.assert_array_equal(net.utilities.params["lam"].values, 0.5)
            assert net.cap == game.cap

    def test_kernel_error_nonincreasing_for_every_builtin_family(self):
        rng = np.random.default_rng(44)
        kernels = [
            ConstantGraphon(0.7),
            ProductGraphon(),
            SeparablePowerGraphon(0.3),
            StepGraphon(rng.random((2, 2))),  # dyadic block kernel
        ]
        for W in kernels:
            game = lq_game(W, LQParams(0.4, 4.0), GridSpec(64))
            errors = [
                graphon_l1_distance(W, StepGraphon(net.adjacency), resolution=1024)
                for net in build_network_sequence(game, [8, 16, 32, 64])
            ]
            assert all(b <= a + 1e-14 for a, b in zip(errors, errors[1:])), W.family


class TestApproximateProfile:
    def test_constant_stays_constant(self):
        f = StepProfile.constant(1.7, GridSpec(64))
        np.testing.assert_array_equal(approximate_profile(f, 8), 1.7)

    def test_averages_of_the_closed_form_equilibrium(self):
        # oracle: the average of 1 + (4/9) sqrt(t) over (a, b] is
        # 1 + (4/9) * (2/3) * (b^1.5 - a^1.5) / (b - a)
        grid = GridSpec(512)
        f = equilibrium_from_source(SeparablePowerGraphon(0.5), LQParams(0.5, 4.0),
                                    SourceFunction.constant(1.0, grid))
        s = approximate_profile(f, 2)
        expected = [
            1.0 + (4.0 / 9.0) * (2.0 / 3.0) * 0.5 ** 1.5 / 0.5,
            1.0 + (4.0 / 9.0) * (2.0 / 3.0) * (1.0 - 0.5 ** 1.5) / 0.5,
        ]
        np.testing.assert_allclose(s, expected, atol=2e-3)

    def test_tower_property(self):
        rng = np.random.default_rng(41)
        f = StepProfile(GridSpec(24), rng.random(24))
        direct = approximate_profile(f, 4)
        via = approximate_profile(embed_strategy(approximate_profile(f, 12)), 4)
        np.testing.assert_allclose(via, direct, atol=1e-15)

    def test_values_stay_in_the_interval(self):
        rng = np.random.default_rng(42)
        f = StepProfile(GridSpec(32), rng.uniform(0, 4, 32))
        s = approximate_profile(f, 8)
        assert s.min() >= 0 and s.max() <= 4

    def test_divisibility_enforced(self):
        f = StepProfile.constant(0.0, GridSpec(10))
        with pytest.raises(GridCompatibilityError):
            approximate_profile(f, 3)


class TestExperimentPlan:
    def test_sizes_must_divide_reference(self):
        with pytest.raises(GridCompatibilityError):
            ExperimentPlan(reference_game(48), n_list=(5, 10))

    def test_sizes_must_increase(self):
        with pytest.raises(ValueError):
            ExperimentPlan(reference_game(48), n_list=(12, 12))

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            ExperimentPlan(reference_game(48), n_list=(12,), equilibrium_source="guess")


class TestCoarsenedExperiment:
    def test_full_resolution_row_reproduces_certification_exactly(self):
        plan = ExperimentPlan(reference_game(64), n_list=(32, 64))
        result = run_coarsened_equilibrium_experiment(plan)
        assert result.rows[-1].epsilon_n == result.reference_epsilon
        assert result.rows[-1].profile_l1 == 0.0

    def test_step_kernel_and_step_profile_are_exact(self):
        rng = np.random.default_rng(43)
        game = lq_game(StepGraphon(rng.random((8, 8)) * 0.9), LQParams(0.4, 6.0), GridSpec(8))
        result = run_coarsened_equilibrium_experiment(ExperimentPlan(game, n_list=(8,)))
        assert result.rows[0].w_l1_error == 0.0
        assert result.rows[0].epsilon_n == result.reference_epsilon

    def test_zero_kernel_has_zero_epsilon_everywhere(self):
        game = lq_game(ConstantGraphon(0.0), LQParams(0.5, 2.0), GridSpec(32))
        result = run_coarsened_equilibrium_experiment(ExperimentPlan(game, n_list=(4, 8, 16, 32)))
        assert all(row.epsilon_n == 0.0 for row in result.rows)
        assert result.passed and result.trend_ok

    def test_reference_run_passes_and_writes_tables(self, tmp_path):
        plan = ExperimentPlan(reference_game(64), n_list=(8, 16, 32, 64),
                              out_dir=str(tmp_path))
        result = run_coarsened_equilibrium_experiment(plan)
        assert result.passed
        assert result.epsilon_at_max_n <= plan.eps_tolerance
        assert result.trend_ok
        table = (tmp_path / "coarsened_equilibrium.csv").read_text().splitlines()
        assert table[0].startswith("n,")
        assert len(table) == 5
        assert (tmp_path / "reference_profile.csv").exists()

    def test_unconverged_solver_source_raises(self):
        plan = ExperimentPlan(
            reference_game(48), n_list=(12,), equilibrium_source="solver",
            solver=SolverConfig(max_iters=1, step_tolerance=1e-18, regret_target=1e-18),
        )
        with pytest.raises(CertificationError):
            run_coarsened_equilibrium_experiment(plan)

    def test_uncertified_solver_source_raises(self):
        # a huge step tolerance stops the solver immediately, far from equilibrium
        plan = ExperimentPlan(
            reference_game(48), n_list=(12,), equilibrium_source="solver",
            solver=SolverConfig(step_tolerance=5.0, regret_target=1e-18),
        )
        with pytest.raises(CertificationError, match="epsilon"):
            run_coarsened_equilibrium_experiment(plan)


class TestLimitExperiment:
    def test_static_game_limit_matches_the_static_optimum(self):
        game = lq_game(ConstantGraphon(0.5), LQParams(0.0, 2.0), GridSpec(32))
        plan = ExperimentPlan(game, n_list=(4, 8, 16, 32))
        result = run_limit_equilibrium_experiment(plan)
        assert result.passed and result.converging
        # the zero-lam best response keeps every aggregate irrelevant, so the limit
        # sits at the top of the static plateau [0, 1]
        assert np.abs(result.limit_profile.values - 1.0).max() <= 1e-3
        assert result.l1_to_reference <= 1e-3

    def test_single_player_sequence(self):
        game = lq_game(ConstantGraphon(0.5), LQParams(0.5, 4.0), GridSpec(4))
        result = run_limit_equilibrium_experiment(ExperimentPlan(game, n_list=(1,)))
        assert result.epsilon_star_in_target <= 0.02

    def test_reference_sequence_converges_to_the_closed_form(self):
        plan = ExperimentPlan(reference_game(128), n_list=(8, 16, 32, 64))
        result = run_limit_equilibrium_experiment(plan)
        assert result.passed
        assert result.converging
        assert result.l1_to_reference <= 1e-2
        assert result.epsilon_star_in_target <= 0.02
        assert result.skipped == []

    def test_all_skipped_raises(self):
        plan = ExperimentPlan(
            reference_game(48), n_list=(6, 12),
            solver=SolverConfig(max_iters=2, step_tolerance=1e-16, regret_target=1e-16),
        )
        with pytest.raises(CertificationError):
            run_limit_equilibrium_experiment(plan)

    def test_writes_tables_and_limit_profile(self, tmp_path):
        plan = ExperimentPlan(reference_game(48), n_list=(6, 12, 24, 48),
                              out_dir=str(tmp_path))
        result = run_limit_equilibrium_experiment(plan)
        assert result.passed
        lines = (tmp_path / "limit_equilibrium.csv").read_text().splitlines()
        assert lines[0].startswith("n,") and len(lines) == 5
        limit = (tmp_path / "limit_profile.csv").read_text().splitlines()
        assert len(limit) == 48
        summary = result.summary()
        assert summary["l1_within_tolerance"] and summary["passed"]


class TestCharacterizationSuite:
    def test_reference_suite_passes(self, tmp_path):
        plan = ExperimentPlan(
            reference_game(48), n_list=(6, 12, 24, 48),
            alt_n_list=(6, 12, 18, 36), alt_grid=36, out_dir=str(tmp_path),
        )
        report = run_characterization_suite(plan)
        assert report.passed
        assert report.cross_l1 <= plan.cross_l1_tolerance
        for name in ("primary_coarsened.csv", "alt_coarsened.csv",
                     "primary_limit.csv", "alt_limit.csv", "primary_limit_profile.csv",
                     "alt_limit_profile.csv"):
            assert (tmp_path / name).exists()
        summary = report.summary()
        assert summary["passed"] and summary["experiment"] == "characterization"

    def test_reference_equilibrium_solved_once_per_sequence(self, monkeypatch):
        # both experiments on one sequence share that sequence's plan, so the
        # suite makes one reference solve for the primary and one for the alternate
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2].grid.n_cells)
            return equilibrium_from_source(*args, **kwargs)

        monkeypatch.setattr(lab, "equilibrium_from_source", counting)
        plan = ExperimentPlan(reference_game(48), n_list=(6, 12, 24, 48),
                              alt_n_list=(6, 12, 18, 36), alt_grid=36)
        assert run_characterization_suite(plan).passed
        assert sorted(calls) == [36, 48]

    def test_same_grid_alternate_shares_the_reference(self, monkeypatch):
        # re-gridding onto the game grid is the identity, so one solve serves both
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2].grid.n_cells)
            return equilibrium_from_source(*args, **kwargs)

        monkeypatch.setattr(lab, "equilibrium_from_source", counting)
        plan = ExperimentPlan(reference_game(48), n_list=(6, 12, 24, 48),
                              alt_n_list=(12, 24, 48), alt_grid=48)
        assert run_characterization_suite(plan).passed
        assert calls == [48]

    def test_same_grid_solver_source_solves_the_target_once(self, monkeypatch):
        target_calls = []

        def counting(game, f0, config):
            if game.graphon is plan.game.graphon:  # not an embedded network game
                target_calls.append(game.grid.n_cells)
            return solve(game, f0, config)

        monkeypatch.setattr(lab, "solve", counting)
        plan = ExperimentPlan(reference_game(48), n_list=(6, 12, 24, 48),
                              equilibrium_source="solver",
                              alt_n_list=(12, 24, 48), alt_grid=48)
        assert run_characterization_suite(plan).passed
        assert target_calls == [48]

    def test_each_network_kernel_error_computed_once(self, monkeypatch):
        # the demo plan: both experiments on a sequence share its networks and errors
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].n)
            return graphon_l1_distance(*args, **kwargs)

        monkeypatch.setattr(lab, "graphon_l1_distance", counting)
        plan = ExperimentPlan(reference_game(768), n_list=(8, 16, 32, 64, 128, 256),
                              alt_n_list=(12, 24, 48, 96, 192), alt_grid=768)
        assert run_characterization_suite(plan).passed
        assert sorted(calls) == sorted(plan.n_list + plan.alt_n_list)

    def test_distinct_sources_give_distinct_certified_equilibria(self):
        game = reference_game(48)
        plan1 = ExperimentPlan(game, n_list=(6, 12, 24, 48), source=1.0)
        plan2 = ExperimentPlan(game, n_list=(6, 12, 24, 48), source=0.2)
        r1 = run_coarsened_equilibrium_experiment(plan1)
        r2 = run_coarsened_equilibrium_experiment(plan2)
        assert r1.passed and r2.passed
        separation = profile_distance(r1.reference, r2.reference, "l1")
        assert separation >= 0.8 / (1.0 + 0.5)  # injection bound for |g1-g2| = 0.8

    def test_alt_sizes_validated(self):
        plan = ExperimentPlan(reference_game(48), n_list=(6, 12),
                              alt_n_list=(5, 10), alt_grid=36)
        with pytest.raises(GridCompatibilityError):
            run_characterization_suite(plan)


class TestRegridGame:
    def test_constant_parameters_regrid_exactly(self):
        game = reference_game(48)
        regridded = regrid_game(game, 36)
        assert regridded.grid.n_cells == 36
        np.testing.assert_array_equal(regridded.utilities.params["lam"].values, 0.5)

    def test_heterogeneous_parameters_average_through_common_refinement(self):
        grid = GridSpec(4)
        util = PlateauUtility.from_values(grid, lam=[0.0, 0.2, 0.4, 0.6])
        game = lq_game(ConstantGraphon(0.5), LQParams(0.3, 4.0), grid)
        game = type(game)(game.graphon, util, game.cap, grid)
        out = regrid_game(game, 2)
        np.testing.assert_allclose(out.utilities.params["lam"].values, [0.1, 0.5])


class TestPlanParsing:
    DESCRIPTOR = {
        "experiment": "coarsened",
        "game": {
            "graphon": {"family": "separable_power", "params": {"alpha": 0.5}},
            "utility": {"family": "plateau_lq", "params": {"lambda": 0.5}},
            "L": 4.0,
            "grid_n": 64,
        },
        "n_list": [8, 16, 32, 64],
        "source_g": "const:1.0",
        "eps_tolerance": 0.04,
        "solver": {"max_iters": 500, "damping": 0.4},
    }

    def test_parse_and_run(self):
        plan, experiment = plan_from_descriptor(self.DESCRIPTOR)
        assert experiment == "coarsened"
        assert plan.n_list == (8, 16, 32, 64)
        assert plan.eps_tolerance == 0.04
        assert plan.solver.max_iters == 500 and plan.solver.damping == 0.4
        result = run_plan(plan, experiment)
        assert result.passed

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match=r"plan file has unknown keys \['eps_tolerence'\]"):
            plan_from_descriptor({**self.DESCRIPTOR, "eps_tolerence": -1.0})

    @pytest.mark.parametrize("key", ["out_dir", "source"])
    def test_fields_set_elsewhere_are_not_plan_keys(self, key):
        with pytest.raises(ValueError, match=f"unknown keys \\['{key}'\\]"):
            plan_from_descriptor({**self.DESCRIPTOR, key: 1.0})

    def test_source_path_resolves_against_the_plan_directory(self, tmp_path, monkeypatch):
        io.save_profile_csv(tmp_path / "g.csv", StepProfile.constant(1.0, GridSpec(64)))
        monkeypatch.chdir(tmp_path.parent)
        plan, _ = plan_from_descriptor({**self.DESCRIPTOR, "source_g": "g.csv"}, tmp_path.name)
        np.testing.assert_array_equal(plan.source.values, 1.0)
        assert run_plan(plan, "coarsened").passed

    def test_solver_init_path_resolves_against_the_plan_directory(self, tmp_path, monkeypatch):
        io.save_profile_csv(tmp_path / "init.csv", StepProfile.constant(4.0, GridSpec(64)))
        monkeypatch.chdir(tmp_path.parent)
        # a solver-sourced plan refuses source_g, which only the resolvent uses
        descriptor = {key: value for key, value in self.DESCRIPTOR.items() if key != "source_g"}
        plan, _ = plan_from_descriptor(
            {**descriptor, "solver_init": "init.csv", "equilibrium_source": "solver"},
            tmp_path.name,
        )
        np.testing.assert_array_equal(plan.solver_init.values, 4.0)
        assert run_plan(plan, "coarsened").passed

    def test_unknown_experiment(self):
        plan, _ = plan_from_descriptor(self.DESCRIPTOR)
        with pytest.raises(ValueError):
            run_plan(plan, "mystery")
