import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_games import core, lab, lq
from graphon_games.core import (
    ConstantGraphon,
    ContractionError,
    GridSpec,
    SeparablePowerGraphon,
    StepGraphon,
    StepProfile,
    local_aggregate,
    resolvent,
    step_approximation,
)
from graphon_games.games import PlateauUtility
from graphon_games.lq import (
    LQParams,
    SourceFunction,
    equilibrium_from_source,
    injection_check,
    verify_equilibrium,
)


def plateau_utility(a, e, lam):
    """u(a, e) of one agent of the plateau family with this lam."""
    return PlateauUtility.from_values(GridSpec(1), lam=lam).evaluate(a, e).item()


def plateau_response(e, lam, cap):
    """The best-response interval (lo, hi) of one agent of the plateau family."""
    (lo, hi), _ = PlateauUtility.from_values(GridSpec(1), lam=lam).response_regrets(0.0, e, cap)
    return lo.item(), hi.item()


def random_setup(rng, n=32, tight=0.9):
    """Random step graphon with an admissible (lam, cap) pair and two sources."""
    W = StepGraphon(rng.random((n, n)))
    lam = rng.uniform(0.1, tight) / W.sup_norm()
    params = LQParams(lam, cap=LQParams(lam, 1.0).min_admissible_cap(W.sup_norm()) + 1.0)
    grid = GridSpec(n)
    g1 = SourceFunction(StepProfile(grid, rng.random(n)))
    g2 = SourceFunction(StepProfile(grid, rng.random(n)))
    return W, params, g1, g2


class TestLQParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LQParams(-0.1, 4.0)
        with pytest.raises(ValueError):
            LQParams(0.5, 0.0)

    def test_min_admissible_cap(self):
        # lam = 0.5, sup = 1: both bounds give 1/(1 - 0.5) = 2 and 0.5/0.5 + 1 = 2
        assert LQParams(0.5, 4.0).min_admissible_cap(1.0) == pytest.approx(2.0)
        # sup < 1 makes the second bound the binding one
        p = LQParams(0.9, 2.0)
        assert p.min_admissible_cap(0.5) == pytest.approx(0.9 / 0.55 + 1.0)

    def test_contraction_reported(self):
        with pytest.raises(ContractionError):
            LQParams(1.5, 4.0).validate_for_equilibrium(1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True, "4"])
    def test_non_finite_inputs_fail_closed(self, bad):
        with pytest.raises(ContractionError):
            LQParams(0.5, 4.0).min_admissible_cap(float("nan"))
        with pytest.raises(ValueError, match="lam"):
            LQParams(bad, 4.0)
        with pytest.raises(ValueError, match="cap"):
            LQParams(0.5, bad)

    def test_cap_bounds_reported_with_required_minimum(self):
        with pytest.raises(ValueError, match="2.5"):
            LQParams(0.6, 2.0).validate_for_equilibrium(1.0)  # needs 1/0.4 = 2.5
        with pytest.raises(ValueError, match="2.63"):
            LQParams(0.9, 2.0).validate_for_equilibrium(0.5)  # needs 0.9/0.55 + 1


class TestSourceFunction:
    def test_range_validated(self):
        with pytest.raises(ValueError):
            SourceFunction(StepProfile(GridSpec(2), [0.5, 1.2]))
        g = SourceFunction.constant(1.0, GridSpec(4))
        assert np.all(g.values == 1.0)


class TestLQUtility:
    def test_origin(self):
        assert plateau_utility(0.0, 0.0, 0.9) == 0.0

    def test_flat_branch_value(self):
        # lam*e = 1 <= a = 1.5 <= 2, so the value is (lam*e)^2 / 2 = 0.5
        assert plateau_utility(1.5, 2.0, 0.5) == pytest.approx(0.5)

    def test_upper_branch_value(self):
        # a = 3 > lam*e + 1 = 2: -(3-1)^2/2 + 1*(3-1) = 0
        assert plateau_utility(3.0, 2.0, 0.5) == pytest.approx(0.0)

    def test_continuity_at_branch_boundaries(self):
        rng = np.random.default_rng(20)
        for _ in range(1000):
            lam, e = rng.uniform(0, 2), rng.uniform(0, 3)
            anchor = lam * e
            below = -0.5 * anchor ** 2 + anchor * anchor
            flat = 0.5 * anchor ** 2
            above = -0.5 * anchor ** 2 + anchor * anchor
            assert abs(below - flat) <= 1e-12
            assert abs(flat - above) <= 1e-12
            # the implementation agrees with the flat value at both boundaries
            assert abs(plateau_utility(anchor, e, lam) - flat) <= 1e-12
            assert abs(plateau_utility(anchor + 1.0, e, lam) - flat) <= 1e-12


class TestLQBestResponse:
    def test_plateau(self):
        assert plateau_response(2.0, 0.5, 10.0) == (1.0, 2.0)

    def test_zero_aggregate(self):
        assert plateau_response(0.0, 0.7, 5.0) == (0.0, 1.0)

    def test_cap_binds(self):
        assert plateau_response(30.0, 0.5, 10.0) == (10.0, 10.0)


class TestEquilibriumFromSource:
    def test_lambda_zero_returns_source(self):
        grid = GridSpec(16)
        g = SourceFunction(StepProfile(grid, np.linspace(0, 1, 16)))
        s = equilibrium_from_source(ConstantGraphon(0.7), LQParams(0.0, 2.0), g)
        np.testing.assert_array_equal(s.values, g.values)

    def test_separable_power_closed_form(self):
        # s_g(t) = 1 + 2*lam/((2-lam)(2-alpha)) t^alpha = 1 + (4/9) sqrt(t)
        grid = GridSpec(256)
        s = equilibrium_from_source(
            SeparablePowerGraphon(0.5), LQParams(0.5, 4.0),
            SourceFunction.constant(1.0, grid),
        )
        expected = 1.0 + (4.0 / 9.0) * np.sqrt(grid.midpoints())
        assert np.abs(s.values - expected).max() <= 2e-3
        assert s.values[-1] == pytest.approx(13.0 / 9.0, abs=2e-3)

    def test_constant_kernel_fixed_point(self):
        # oracle: the scalar fixed point s = lam*c*s + 1, i.e. s = 1/(1 - lam*c)
        c, lam = 0.5, 0.8
        grid = GridSpec(64)
        s = equilibrium_from_source(ConstantGraphon(c), LQParams(lam, 10.0),
                                    SourceFunction.constant(1.0, grid))
        np.testing.assert_allclose(s.values, 1.0 / (1.0 - lam * c), atol=1e-7)

    def test_rejects_bad_parameters(self):
        grid = GridSpec(8)
        g = SourceFunction.constant(1.0, grid)
        with pytest.raises(ContractionError):
            equilibrium_from_source(ConstantGraphon(1.0), LQParams(1.1, 10.0), g)
        with pytest.raises(ValueError, match="need cap >="):
            equilibrium_from_source(ConstantGraphon(1.0), LQParams(0.5, 1.5), g)

    def test_fixed_point_relation_and_bound(self):
        rng = np.random.default_rng(22)
        tol = 1e-8
        for _ in range(20):
            W, params, g, _ = random_setup(rng)
            s = equilibrium_from_source(W, params, g, tol)
            e = local_aggregate(W, s)
            residual = np.abs(s.values - params.lam * e.values - g.values).max()
            assert residual <= 10 * tol
            assert s.values.max() <= 1.0 / (1.0 - params.lam * W.sup_norm()) + 10 * tol
            assert s.values.min() >= -10 * tol


    def test_nan_source_value_rejected(self):
        # a NaN source used to give four NaN "equilibrium" values
        with pytest.raises(ValueError, match="finite"):
            SourceFunction(StepProfile(GridSpec(4), [np.nan, 1.0, 1.0, 1.0]))

    def test_truncated_resolvent_fails_the_residual_certificate(self, monkeypatch):
        # Gamma cut to its first term W_1 misses the Fredholm equation by about
        # lam^2 * c^2, far above 10 * tol
        def first_term_only(W, lam, grid, tol):
            full = resolvent(W, lam, grid, tol)
            return dataclasses.replace(full, gamma=step_approximation(W, grid.n_cells).values)

        monkeypatch.setattr(lq, "resolvent", first_term_only)
        with pytest.raises(ArithmeticError, match="residual"):
            equilibrium_from_source(ConstantGraphon(0.5), LQParams(0.5, 4.0),
                                    SourceFunction.constant(1.0, GridSpec(16)))

    def test_nan_residual_fails_closed(self, monkeypatch):
        # a NaN answer passes every "<" range check; the certificate must catch it
        class NanKernel:
            def apply(self, f):
                return SimpleNamespace(values=np.full(np.shape(f), np.nan))

        monkeypatch.setattr(lq, "resolvent", lambda *args, **kwargs: NanKernel())
        with pytest.raises(ArithmeticError, match="residual"):
            equilibrium_from_source(ConstantGraphon(0.5), LQParams(0.5, 4.0),
                                    SourceFunction.constant(1.0, GridSpec(16)))

    def test_certificate_failure_is_a_certification_error(self):
        # the error the CLI reports as exit 1, shared with the lab
        assert issubclass(lq.CertificationError, ArithmeticError)
        assert lab.CertificationError is lq.CertificationError
        with pytest.raises(lq.CertificationError, match="residual"):  # no residual is 1e-19
            equilibrium_from_source(SeparablePowerGraphon(0.5), LQParams(0.5, 4.0),
                                    SourceFunction.constant(1.0, GridSpec(64)), tol=1e-20)

    def test_step_resolution_must_divide_the_grid(self):
        # a 3-step kernel has no local aggregate on a 4-cell grid, as in a game
        W = StepGraphon(np.full((3, 3), 0.5))
        with pytest.raises(ValueError, match="resolution 3 must divide the game grid 4"):
            equilibrium_from_source(W, LQParams(0.5, 4.0), SourceFunction.constant(1.0, GridSpec(4)))

    def test_kernel_discretized_once(self, monkeypatch):
        # the resolvent discretizes the kernel; the residual certificate does not
        calls = []

        def counting(W, n, m=4):
            calls.append(n)
            return step_approximation(W, n, m)

        monkeypatch.setattr(core, "step_approximation", counting)
        monkeypatch.setattr(lq, "step_approximation", counting, raising=False)
        equilibrium_from_source(SeparablePowerGraphon(0.5), LQParams(0.5, 4.0),
                                SourceFunction.constant(1.0, GridSpec(64)))
        assert calls == [64]

    def test_large_lambda_meets_its_certificate(self):
        # lam = 25 on a sparse kernel: a kernel tail of tol alone gives an error
        # of lam * tail * g, over 10 * tol
        W = StepGraphon([[0.02]])
        params = LQParams(25.0, LQParams(25.0, 1.0).min_admissible_cap(0.02) + 1.0)
        g = SourceFunction(StepProfile(GridSpec(1), [0.7]))
        s = equilibrium_from_source(W, params, g, 1e-4)
        np.testing.assert_allclose(s.values, 0.7 / (1.0 - 25.0 * 0.02), rtol=0, atol=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 120), seed=st.integers(0, 2 ** 32 - 1),
           tight=st.floats(0.05, 0.95), log_tol=st.floats(-12.0, -4.0))
    def test_agrees_with_a_dense_solve(self, n, seed, tight, log_tol):
        # oracle: the discretized system (I - lam * W / n) s = g solved densely
        rng = np.random.default_rng(seed)
        W = StepGraphon(rng.random((n, n)))
        sup = W.sup_norm()
        lam = tight / sup if sup > 0 else tight
        params = LQParams(lam, LQParams(lam, 1.0).min_admissible_cap(sup) + 1.0)
        g = SourceFunction(StepProfile(GridSpec(n), rng.random(n)))
        tol = 10.0 ** log_tol
        s = equilibrium_from_source(W, params, g, tol)
        direct = np.linalg.solve(np.eye(n) - lam * W.values / n, g.values)
        assert np.abs(s.values - direct).max() <= 10.0 * tol


class TestVerifyEquilibrium:
    def test_constructed_equilibrium_certifies(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            W, params, g, _ = random_setup(rng)
            s = equilibrium_from_source(W, params, g)
            cert = verify_equilibrium(W, params, s)
            assert cert.certified
            assert cert.report.epsilon_star <= 1e-6
            assert cert.report.regrets.values.max() <= 1e-6

    def test_zero_profile_certifies(self):
        grid = GridSpec(8)
        params = LQParams(0.5, 4.0)
        cert = verify_equilibrium(ConstantGraphon(0.9), params,
                                  StepProfile.constant(0.0, grid))
        assert cert.certified

    def test_cap_profile_fails_plateau_containment(self):
        grid = GridSpec(8)
        params = LQParams(0.5, 4.0)
        cert = verify_equilibrium(ConstantGraphon(0.0), params,
                                  StepProfile.constant(4.0, grid))
        assert not cert.certified
        assert cert.in_interval.all()
        assert cert.plateau_fits.all()
        assert not cert.on_plateau.any()
        assert cert.violating_cells()["on_plateau"].size == 8


class TestInjectionCheck:
    def test_identical_sources(self):
        grid = GridSpec(16)
        g = SourceFunction.constant(0.5, grid)
        passed, distance = injection_check(ConstantGraphon(0.5), LQParams(0.5, 4.0), g, g)
        assert passed and distance == 0.0

    def test_lambda_zero_distance_is_source_distance(self):
        grid = GridSpec(16)
        rng = np.random.default_rng(24)
        g1 = SourceFunction(StepProfile(grid, rng.random(16)))
        g2 = SourceFunction(StepProfile(grid, rng.random(16)))
        passed, distance = injection_check(ConstantGraphon(0.5), LQParams(0.0, 2.0), g1, g2)
        assert passed
        assert distance == pytest.approx(np.abs(g1.values - g2.values).mean(), abs=1e-15)

    def test_constant_kernel_unit_sources(self):
        # s_{g=1} = 1/(1 - lam*c) and s_{g=0} = 0, so the distance is 1/(1 - lam*c),
        # comfortably above the bound 1/(1 + lam*c)
        c, lam = 0.6, 0.9
        grid = GridSpec(32)
        passed, distance = injection_check(
            ConstantGraphon(c), LQParams(lam, 10.0),
            SourceFunction.constant(1.0, grid), SourceFunction.constant(0.0, grid),
        )
        assert passed
        assert distance == pytest.approx(1.0 / (1.0 - lam * c), abs=1e-7)
        assert distance >= 1.0 / (1.0 + lam * c)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 48), seed=st.integers(0, 2 ** 32 - 1), tight=st.floats(0.15, 0.95))
    def test_lower_bound_on_random_setups(self, n, seed, tight):
        W, params, g1, g2 = random_setup(np.random.default_rng(seed), n, tight)
        passed, distance = injection_check(W, params, g1, g2)
        assert passed
        bound = np.abs(g1.values - g2.values).mean() / (1 + params.lam * W.sup_norm())
        assert distance >= bound - 1e-6

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-6, True, "4"])
    def test_slack_must_be_a_finite_number(self, bad):
        g = SourceFunction.constant(0.5, GridSpec(4))
        with pytest.raises(ValueError, match="slack"):
            injection_check(ConstantGraphon(0.5), LQParams(0.5, 4.0), g, g, slack=bad)

    def test_grid_mismatch_rejected(self):
        g1 = SourceFunction.constant(1.0, GridSpec(8))
        g2 = SourceFunction.constant(0.0, GridSpec(16))
        with pytest.raises(ValueError):
            injection_check(ConstantGraphon(0.5), LQParams(0.5, 4.0), g1, g2)
