import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_games import core
from graphon_games.core import (
    ConstantGraphon,
    GridCompatibilityError,
    GridSpec,
    SeparablePowerGraphon,
    StepGraphon,
    StepProfile,
)
from graphon_games.games import (
    GraphonGame,
    NetworkGame,
    PlateauUtility,
    QuadraticUtility,
    epsilon_star,
    regret_profile,
)
from graphon_games.lq import LQParams, SourceFunction, equilibrium_from_source, lq_game, verify_equilibrium
from graphon_games.solver import (
    SELECTION_RULES,
    SolverConfig,
    _meets_target,
    best_response_map,
    profile_distance,
    solve,
)

from closed_form_oracle import assert_same_bits, oracle_regrets


def two_player_plateau(cap=10.0, lam=0.5):
    grid = GridSpec(2)
    util = PlateauUtility.from_values(grid, lam=lam)
    return GraphonGame(StepGraphon([[0.0, 1.0], [1.0, 0.0]]), util, cap, grid)


def reference_select(rule, f, lo, hi):
    """The point of [lo, hi] that a selection rule picks for the strategy f."""
    return {"nearest-point": lambda: np.clip(f, lo, hi),
            "interval-midpoint": lambda: 0.5 * (lo + hi),
            "lower-endpoint": lambda: np.array(lo, dtype=float)}[rule]()


def reference_solve(game, f0, config):
    """The damped best-response loop written out with the separate closed forms
    and the sorted epsilon*: (profile, iterations, steps, final report, converged),
    the report as (regrets, strategy, aggregate, epsilon*)."""
    f = f0.values.copy()
    steps, report, converged, iterations = [], None, False, 0
    for _ in range(config.max_iters):
        iterations += 1
        agg = game.operator.apply(f)
        (lo, hi), regrets = oracle_regrets(game.utilities, f, agg, game.cap)
        eps = epsilon_star(regrets)
        if eps <= config.regret_target:
            converged = True
            report = (regrets, f, agg, eps)
            break
        update = reference_select(config.selection_rule, f, lo, hi)
        f_next = (1.0 - config.damping) * f + config.damping * update
        steps.append(float(np.abs(f_next - f).max()))
        f = f_next
        if steps[-1] <= config.step_tolerance:
            converged = True
            break
    if report is None:
        agg = game.operator.apply(f)
        _, regrets = oracle_regrets(game.utilities, f, agg, game.cap)
        report = (regrets, f, agg, epsilon_star(regrets))
    return f, iterations, np.asarray(steps), report, converged


def random_small_game(rng, kind, family):
    """A random game on at most 24 cells whose operator is of the given kind."""
    k = int(rng.integers(1, 5))
    n = k * int(rng.integers(2, 7)) if kind == "block" else int(rng.integers(4, 25))
    grid = GridSpec(n)
    W = {"rank-1": lambda: SeparablePowerGraphon(rng.uniform(0.05, 0.95)),
         "block": lambda: StepGraphon(rng.random((k, k))),
         "dense": lambda: StepGraphon(rng.random((n, n)))}[kind]()
    cap = rng.uniform(1.0, 6.0)
    if family == "plateau_lq":
        util = PlateauUtility.from_values(grid, lam=rng.uniform(0.0, 1.5, n))
    else:
        util = QuadraticUtility.from_values(grid, beta=rng.uniform(-1.0, cap + 1.0, n),
                                            delta=rng.uniform(-1.5, 1.5, n))
    game = GraphonGame(W, util, cap, grid)
    assert game.operator.kind == kind
    return game, StepProfile(grid, rng.uniform(0.0, cap, n))


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.max_iters == 10000
        assert cfg.damping == 0.5
        assert cfg.step_tolerance == 1e-9
        assert cfg.regret_target == 1e-7
        assert cfg.selection_rule == "nearest-point"

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(damping=0.0)
        with pytest.raises(ValueError):
            SolverConfig(damping=1.5)
        with pytest.raises(ValueError):
            SolverConfig(selection_rule="random")
        with pytest.raises(ValueError):
            SolverConfig(step_tolerance=0.0)

    def test_tolerances_fail_closed(self):
        # NaN compares false against every bound
        for bad in (0.0, np.nan):
            with pytest.raises(ValueError):
                SolverConfig(step_tolerance=bad)
            with pytest.raises(ValueError):
                SolverConfig(regret_target=bad)


class TestBestResponseMap:
    def test_nearest_point_keeps_strategy_inside_the_plateau(self):
        # e(1) = f(2)/2 = 2, so the response set is [1, 2] and 1.7 projects to itself;
        # e(2) = f(1)/2 = 0.85 gives [0.425, 1.425] and 4.0 projects to 1.425
        game = two_player_plateau()
        f = StepProfile(GridSpec(2), [1.7, 4.0])
        out = best_response_map(game, f)
        np.testing.assert_allclose(out.values, [1.7, 1.425])

    def test_nearest_point_projects_from_below(self):
        game = two_player_plateau()
        out = best_response_map(game, StepProfile(GridSpec(2), [0.2, 4.0]))
        assert out.values[0] == pytest.approx(1.0)

    def test_midpoint_and_lower_endpoint_rules(self):
        game = two_player_plateau()
        f = StepProfile(GridSpec(2), [0.2, 4.0])
        mid = best_response_map(game, f, rule="interval-midpoint")
        assert mid.values[0] == pytest.approx(1.5)
        low = best_response_map(game, f, rule="lower-endpoint")
        assert low.values[0] == pytest.approx(1.0)

    def test_no_externality_reaches_fixed_point_in_one_step(self):
        grid = GridSpec(4)
        game = GraphonGame(ConstantGraphon(0.0), PlateauUtility.from_values(grid, lam=0.9),
                           5.0, grid)
        f = StepProfile(grid, [0.0, 0.5, 2.0, 5.0])
        once = best_response_map(game, f)
        twice = best_response_map(game, once)
        np.testing.assert_array_equal(once.values, twice.values)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1),
           lam_max=st.floats(0.0, 1.5), cap=st.floats(0.5, 8.0))
    def test_selection_always_in_the_response_set(self, n, seed, lam_max, cap):
        # lam * e may exceed the cap, so the response set can be the single point {cap}
        rng = np.random.default_rng(seed)
        grid = GridSpec(n)
        game = GraphonGame(StepGraphon(rng.random((n, n))),
                           PlateauUtility.from_values(grid, lam=rng.uniform(0, lam_max, n)),
                           cap, grid)
        f = StepProfile(grid, rng.uniform(0, cap, n))
        agg = regret_profile(game, f).aggregate.values
        (lo, hi), _ = oracle_regrets(game.utilities, f.values, agg, game.cap)
        for rule in ("nearest-point", "interval-midpoint", "lower-endpoint"):
            out = best_response_map(game, f, rule=rule)
            assert np.all(out.values >= lo - 1e-12)
            assert np.all(out.values <= hi + 1e-12)

    @pytest.mark.parametrize("rule", SELECTION_RULES)
    @pytest.mark.parametrize("family", ["plateau_lq", "quadratic"])
    @pytest.mark.parametrize("kind", ["rank-1", "block", "dense"])
    def test_bit_identical_to_the_oracle_interval(self, kind, family, rule):
        rng = np.random.default_rng([5, len(kind), len(family), len(rule)])
        for _ in range(4):
            game, f = random_small_game(rng, kind, family)
            agg = game.operator.apply(f.values)
            (lo, hi), _ = oracle_regrets(game.utilities, f.values, agg, game.cap)
            assert_same_bits(best_response_map(game, f, rule).values,
                             reference_select(rule, f.values, lo, hi))


class TestSolve:
    def test_zero_start_is_the_zero_source_equilibrium(self):
        grid = GridSpec(64)
        params = LQParams(0.5, 4.0)
        game = lq_game(SeparablePowerGraphon(0.5), params, grid)
        prof, trace = solve(game, StepProfile.constant(0.0, grid))
        assert trace.converged
        cert = verify_equilibrium(SeparablePowerGraphon(0.5), params, prof)
        assert cert.certified and cert.report.epsilon_star <= 1e-6
        anchor = params.lam * cert.report.aggregate.values
        assert np.all(prof.values >= anchor - 1e-9)
        assert np.all(prof.values <= anchor + 1.0 + 1e-9)

    def test_cap_start_reaches_the_unit_source_equilibrium(self):
        grid = GridSpec(64)
        params = LQParams(0.5, 4.0)
        game = lq_game(SeparablePowerGraphon(0.5), params, grid)
        prof, trace = solve(game, StepProfile.constant(4.0, grid))
        assert trace.converged
        ref = equilibrium_from_source(SeparablePowerGraphon(0.5), params,
                                      SourceFunction.constant(1.0, grid))
        assert np.abs(prof.values - ref.values).max() <= 1e-3

    @pytest.mark.parametrize("family", ["plateau_lq", "quadratic"])
    def test_network_game_solves_as_its_hand_built_step_game(self, family):
        # a network game is the n-step graphon game on n cells: same profile bits,
        # same iteration count as that game built by hand from the same matrix
        n, cap = 48, 4.0
        rng = np.random.default_rng(31)
        adjacency = (rng.random((n, n)) < 0.3) * rng.random((n, n))
        grid = GridSpec(n)
        if family == "plateau_lq":
            util = PlateauUtility.from_values(grid, lam=0.5)
        else:
            util = QuadraticUtility.from_values(grid, beta=rng.random(n), delta=rng.random(n))
        f0 = StepProfile.constant(cap, grid)
        by_net, net_trace = solve(NetworkGame(adjacency, util, cap), f0)
        by_hand, hand_trace = solve(GraphonGame(StepGraphon(adjacency), util, cap, grid), f0)
        assert net_trace.converged and hand_trace.converged
        assert net_trace.iterations == hand_trace.iterations
        np.testing.assert_array_equal(by_net.values, by_hand.values)
        np.testing.assert_array_equal(net_trace.final_report.regrets.values,
                                      hand_trace.final_report.regrets.values)

    def test_separable_kernel_is_never_discretized(self, monkeypatch):
        # the rank-1 aggregate comes from the factor averages, never the N x N matrix
        calls = []
        real = core.step_approximation

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(core, "step_approximation", counting)
        grid = GridSpec(64)
        game = lq_game(SeparablePowerGraphon(0.5), LQParams(0.5, 4.0), grid)
        prof, trace = solve(game, StepProfile.constant(4.0, grid))
        best_response_map(game, prof)
        regret_profile(game, prof)
        assert trace.converged and trace.iterations > 1
        assert calls == []

    def test_kernel_discretized_once_per_game(self, monkeypatch):
        calls = []
        real = core._factor_averages

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(core, "_factor_averages", counting)
        grid = GridSpec(64)
        game = lq_game(SeparablePowerGraphon(0.5), LQParams(0.5, 4.0), grid)
        prof, trace = solve(game, StepProfile.constant(4.0, grid))
        best_response_map(game, prof)
        regret_profile(game, prof)
        assert trace.iterations > 1
        assert calls == [64]

    def test_regret_target_exit_reports_its_last_iteration(self, monkeypatch):
        applied = []
        real = core.KernelOperator.apply

        def counting(self, values):
            applied.append(1)
            return real(self, values)

        monkeypatch.setattr(core.KernelOperator, "apply", counting)
        grid = GridSpec(64)
        game = lq_game(SeparablePowerGraphon(0.5), LQParams(0.5, 4.0), grid)
        config = SolverConfig(step_tolerance=1e-300)  # only the regret target can stop it
        prof, trace = solve(game, StepProfile.constant(4.0, grid), config)
        assert trace.converged and trace.final_report.epsilon_star <= config.regret_target
        assert trace.iterations > 1 and len(applied) == trace.iterations
        assert trace.step_sizes.size == trace.iterations - 1
        # the same report regret_profile computes for the returned profile, bit for bit
        again = regret_profile(game, prof)
        assert trace.final_report.epsilon_star == again.epsilon_star
        for name in ("regrets", "strategy", "aggregate"):
            np.testing.assert_array_equal(getattr(trace.final_report, name).values,
                                          getattr(again, name).values)

    def test_block_solve_never_forms_an_n_by_n_matrix(self):
        # one 8192 x 8192 float matrix is 512 MiB
        grid = GridSpec(8192)
        game = lq_game(StepGraphon([[0.9, 0.1], [0.1, 0.4]]), LQParams(0.5, 4.0), grid)
        tracemalloc.start()
        try:
            prof, trace = solve(game, StepProfile.constant(4.0, grid))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert game.operator.kind == "block"
        assert trace.converged and trace.iterations > 1
        assert trace.final_report.epsilon_star <= 1e-7
        assert peak < 64 * 2 ** 20

    def test_undamped_static_game_converges_in_two_iterations(self):
        grid = GridSpec(8)
        game = GraphonGame(ConstantGraphon(0.5), PlateauUtility.from_values(grid, lam=0.0),
                           4.0, grid)
        cfg = SolverConfig(damping=1.0)
        prof, trace = solve(game, StepProfile.constant(3.0, grid), cfg)
        assert trace.converged
        assert trace.iterations <= 2
        assert np.all((prof.values >= 0) & (prof.values <= 1))

    def test_complete_graphon_aggregate_is_constant(self):
        rng = np.random.default_rng(31)
        grid = GridSpec(32)
        game = GraphonGame(ConstantGraphon(1.0), PlateauUtility.from_values(grid, lam=0.6),
                           4.0, grid)
        prof, trace = solve(game, StepProfile(grid, rng.uniform(0, 4, 32)))
        assert trace.converged
        agg = regret_profile(game, prof).aggregate.values
        assert np.ptp(agg) <= 1e-12

    def test_iterates_stay_feasible_and_certified_when_converged(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            n = 16
            grid = GridSpec(n)
            game = GraphonGame(StepGraphon(rng.random((n, n))),
                               PlateauUtility.from_values(grid, lam=0.5), 4.0, grid)
            prof, trace = solve(game, StepProfile(grid, rng.uniform(0, 4, n)))
            assert prof.values.min() >= -1e-12
            assert prof.values.max() <= 4.0 + 1e-12
            if trace.converged and trace.final_report.epsilon_star <= 1e-7:
                assert regret_profile(game, prof).epsilon_star <= 1e-7

    def test_contraction_regime_random_step_graphons(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = 16
            W = StepGraphon(rng.random((n, n)))
            lam = rng.uniform(0.2, 0.8) / W.sup_norm()
            params = LQParams(lam, 6.0)
            grid = GridSpec(n)
            game = lq_game(W, params, grid)
            prof, trace = solve(game, StepProfile.constant(0.0, grid))
            assert trace.converged
            assert verify_equilibrium(W, params, prof).certified

    def test_quadratic_family_converges_to_the_linear_fixed_point(self):
        # best response beta + delta*e is a contraction for |delta| * ||W|| < 1;
        # oracle: solve the linear system (I - delta*A/n) x = beta directly
        rng = np.random.default_rng(34)
        n = 12
        grid = GridSpec(n)
        A = rng.random((n, n))
        beta = rng.uniform(0.5, 1.5, n)
        game = GraphonGame(StepGraphon(A), QuadraticUtility.from_values(grid, beta=beta, delta=0.6),
                           8.0, grid)
        # regret scales like distance^2/2, so a tight target pins the fixed point
        cfg = SolverConfig(regret_target=1e-16, step_tolerance=1e-12)
        prof, trace = solve(game, StepProfile.constant(0.0, grid), cfg)
        assert trace.converged
        expected = np.linalg.solve(np.eye(n) - 0.6 * A / n, beta)
        np.testing.assert_allclose(prof.values, expected, atol=1e-8)

    def test_non_convergence_is_reported_not_raised(self):
        grid = GridSpec(4)
        game = GraphonGame(ConstantGraphon(1.0), PlateauUtility.from_values(grid, lam=0.9),
                           20.0, grid)
        cfg = SolverConfig(max_iters=2, step_tolerance=1e-15, regret_target=1e-15)
        prof, trace = solve(game, StepProfile.constant(20.0, grid), cfg)
        assert not trace.converged
        assert trace.iterations == 2

    def test_initial_profile_validated(self):
        game = two_player_plateau(cap=1.0)
        with pytest.raises(ValueError):
            solve(game, StepProfile(GridSpec(2), [0.5, 2.0]))
        with pytest.raises(ValueError):
            solve(game, StepProfile(GridSpec(4), [0.5] * 4))

    def test_every_damped_iterate_stays_feasible(self):
        # replay the damped recursion through best_response_map and check each step
        rng = np.random.default_rng(35)
        n, cap, damping = 12, 4.0, 0.7
        grid = GridSpec(n)
        game = GraphonGame(StepGraphon(rng.random((n, n))),
                           PlateauUtility.from_values(grid, lam=0.8), cap, grid)
        f = StepProfile(grid, rng.uniform(0, cap, n))
        for _ in range(50):
            update = best_response_map(game, f)
            f = StepProfile(grid, (1 - damping) * f.values + damping * update.values)
            assert f.values.min() >= -1e-12
            assert f.values.max() <= cap + 1e-12


class TestStopTest:
    """The per-iteration stop test: a count of the regrets above the target."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1e-3, 0.1, 1.0]))
    def test_count_agrees_with_the_sorted_epsilon_star(self, n, seed, scale):
        # regrets with ties and zeros, some exactly k/N; targets at every k/N,
        # at every regret value, at epsilon* itself, and one ulp to either side
        rng = np.random.default_rng(seed)
        pool = np.concatenate([[0.0], rng.random(3) * scale, rng.integers(0, n + 1, 3) / n])
        regrets = rng.choice(pool, n)
        eps = epsilon_star(regrets)
        centres = np.concatenate([np.arange(n + 1) / n, pool, [eps]])
        for t in np.concatenate([centres, np.nextafter(centres, np.inf),
                                 np.nextafter(centres, -np.inf)]):
            if t >= 0:
                assert _meets_target(regrets, float(t)) == (eps <= t), (t, eps)

    def test_non_finite_regret_raises_like_epsilon_star(self):
        for bad in (np.nan, np.inf):
            regrets = np.array([0.0, bad, 0.1])
            with pytest.raises(ValueError, match="regrets must be finite"):
                epsilon_star(regrets)
            with pytest.raises(ValueError, match="regrets must be finite"):
                _meets_target(regrets, 0.5)


class TestSolveAgainstReferenceLoop:
    """solve gives, bit for bit, what the loop with separate closed forms and a
    sorted epsilon* gives: profile, iterations, steps and final report."""

    EXITS = {
        # only the regret target can stop it
        "regret-target": SolverConfig(damping=0.6, step_tolerance=1e-300),
        # the regret target is out of reach, and every step is below a tolerance
        # above the cap (a plateau game under the midpoint or lower-endpoint rule
        # reaches regret 0 before its steps shrink)
        "step-tolerance": SolverConfig(damping=0.6, regret_target=1e-300, step_tolerance=10.0),
        # slow damping, so no regret reaches 0 within the iteration cap
        "max-iters": SolverConfig(max_iters=4, damping=0.1, regret_target=1e-300,
                                  step_tolerance=1e-300),
    }

    @pytest.mark.parametrize("exit_by", list(EXITS))
    @pytest.mark.parametrize("rule", ["nearest-point", "interval-midpoint", "lower-endpoint"])
    @pytest.mark.parametrize("family", ["plateau_lq", "quadratic"])
    @pytest.mark.parametrize("kind", ["rank-1", "block", "dense"])
    def test_bit_identical_to_the_reference_loop(self, kind, family, rule, exit_by):
        config = dataclasses.replace(self.EXITS[exit_by], selection_rule=rule)
        rng = np.random.default_rng([3, len(kind), len(family), len(rule), len(exit_by)])
        exits = set()
        for _ in range(4):
            game, f0 = random_small_game(rng, kind, family)
            profile, trace = solve(game, f0, config)
            f, iterations, steps, (regrets, strategy, agg, eps), converged = \
                reference_solve(game, f0, config)
            assert_same_bits(profile.values, f)
            assert trace.iterations == iterations
            assert_same_bits(trace.step_sizes, steps)
            assert trace.converged == converged
            report = trace.final_report
            assert_same_bits(report.regrets.values, regrets)
            assert_same_bits(report.strategy.values, strategy)
            assert_same_bits(report.aggregate.values, agg)
            assert report.epsilon_star == eps
            if not converged:
                exits.add("max-iters")
            elif steps.size == iterations:
                exits.add("step-tolerance")
            else:
                exits.add("regret-target")
        assert exit_by in exits

    @pytest.mark.parametrize("start", ["cap", "zero"])
    def test_rank1_plateau_games_from_a_constant_start(self, start):
        # from the cap every cell starts above its plateau, from 0 on it; the
        # reference game (separable_power(0.5), lambda = 0.5, L = 4) comes first
        rng = np.random.default_rng([5, len(start)])
        games = [GraphonGame(SeparablePowerGraphon(0.5),
                             PlateauUtility.from_values(GridSpec(1024), lam=0.5), 4.0,
                             GridSpec(1024))]
        for _ in range(4):
            grid = GridSpec(int(rng.integers(4, 65)))
            games.append(GraphonGame(SeparablePowerGraphon(rng.uniform(0.05, 0.95)),
                                     PlateauUtility.from_values(
                                         grid, lam=rng.uniform(0.0, 1.5, grid.n_cells)),
                                     rng.uniform(1.0, 6.0), grid))
        for game in games:
            f0 = StepProfile.constant(game.cap if start == "cap" else 0.0, game.grid)
            profile, trace = solve(game, f0)
            f, iterations, steps, (regrets, strategy, agg, eps), converged = \
                reference_solve(game, f0, SolverConfig())
            assert_same_bits(profile.values, f)
            assert (trace.iterations, trace.converged) == (iterations, converged)
            assert_same_bits(trace.step_sizes, steps)
            report = trace.final_report
            for got, ref in ((report.regrets.values, regrets),
                             (report.strategy.values, strategy),
                             (report.aggregate.values, agg)):
                assert_same_bits(got, ref)
            assert report.epsilon_star == eps

    def test_non_finite_regret_raises_in_both(self):
        # lam * e overflows to inf, so best - current is inf - inf
        grid = GridSpec(4)
        game = GraphonGame(ConstantGraphon(1.0), PlateauUtility.from_values(grid, lam=1e308),
                           4.0, grid)
        f0 = StepProfile.constant(4.0, grid)
        with np.errstate(all="ignore"):
            for run in (solve, reference_solve):
                with pytest.raises(ValueError, match="regrets must be finite"):
                    run(game, f0, SolverConfig())


class TestProfileDistance:
    def test_identical(self):
        f = StepProfile(GridSpec(4), [1.0, 2.0, 3.0, 4.0])
        for mode in ("l1", "exceed-fraction"):
            assert profile_distance(f, f, mode) == 0.0

    def test_unit_gap(self):
        f1 = StepProfile.constant(1.0, GridSpec(10))
        f2 = StepProfile.constant(0.0, GridSpec(10))
        assert profile_distance(f1, f2, "l1") == 1.0
        assert profile_distance(f1, f2, "exceed-fraction", delta=0.5) == 1.0

    def test_single_cell_perturbation(self):
        values = np.full(100, 0.2)
        bumped = values.copy()
        bumped[17] += 0.3
        f1 = StepProfile(GridSpec(100), values)
        f2 = StepProfile(GridSpec(100), bumped)
        assert profile_distance(f1, f2, "exceed-fraction", delta=0.1) == pytest.approx(0.01)
        assert profile_distance(f1, f2, "l1") == pytest.approx(0.003)

    def test_common_refinement(self):
        f1 = StepProfile(GridSpec(2), [0.0, 1.0])
        f2 = StepProfile.constant(0.5, GridSpec(3))
        assert profile_distance(f1, f2, "l1") == pytest.approx(0.5)

    def test_incompatible_grids(self):
        with pytest.raises(GridCompatibilityError):
            profile_distance(StepProfile.constant(0, GridSpec(4999)),
                             StepProfile.constant(0, GridSpec(5000)))

    def test_unknown_mode(self):
        f = StepProfile.constant(0.0, GridSpec(2))
        with pytest.raises(ValueError):
            profile_distance(f, f, "l2")

    def test_delta_must_be_a_finite_number(self):
        # a NaN or infinite delta would read 0.0, a negative one 1.0, True 0.25
        f1 = StepProfile(GridSpec(4), [0.0, 0.5, 1.0, 1.5])
        f2 = StepProfile.constant(0.0, GridSpec(4))
        for bad in (np.nan, np.inf, -1.0, True, "0.1"):
            with pytest.raises(ValueError, match="delta"):
                profile_distance(f1, f2, "exceed-fraction", bad)
        assert profile_distance(f1, f2, "exceed-fraction", 0.0) == 0.75
