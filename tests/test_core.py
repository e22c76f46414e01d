import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_games import io
from graphon_games.core import (
    ConstantGraphon,
    ContractionError,
    Graphon,
    GridCompatibilityError,
    GridSpec,
    KernelOperator,
    MAX_GRID_CELLS,
    SAMPLE_CHUNK,
    ProductGraphon,
    SeparableGraphon,
    SeparablePowerGraphon,
    StepGraphon,
    StepProfile,
    _factor_averages,
    common_grid,
    graphon_l1_distance,
    iterated_kernel,
    local_aggregate,
    resolvent,
    step_approximation,
)


class TestGridSpec:
    def test_partition_is_exact(self):
        # cell measures sum to one exactly, checked in rational arithmetic
        for n in (1, 3, 7, 49, 1024):
            assert sum([Fraction(1, n)] * n) == 1
            grid = GridSpec(n)
            mids = grid.midpoints()
            assert mids.shape == (n,)
            assert np.all((mids > 0) & (mids < 1))

    def test_cell_index_half_open(self):
        grid = GridSpec(4)
        # right endpoints belong to the cell, left endpoints to the previous one
        assert grid.cell_index(0.25) == 0
        assert grid.cell_index(0.2500001) == 1
        assert grid.cell_index(1.0) == 3
        np.testing.assert_array_equal(grid.cell_index([0.1, 0.5, 0.51]), [0, 1, 2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GridSpec(0)

    def test_rejects_a_bool(self):
        # True is an int, but not a cell count
        for flag in (True, False, np.True_):
            with pytest.raises(ValueError, match="positive integer cell count"):
                GridSpec(flag)


class TestStepProfile:
    def test_constant_and_at(self):
        p = StepProfile.constant(2.5, GridSpec(8))
        assert np.all(p.values == 2.5)

    @pytest.mark.parametrize("bad", ["1", True, np.True_])
    def test_constant_refuses_a_bool_or_a_string(self, bad):
        with pytest.raises(ValueError, match="profile constant must be a number"):
            StepProfile.constant(bad, GridSpec(4))

    def test_average_to_a_multiple_repeats_exactly(self):
        p = StepProfile(GridSpec(2), [1.0, 3.0])
        r = p.average_to(6)
        assert r.grid == GridSpec(6)
        np.testing.assert_array_equal(r.values, [1, 1, 1, 3, 3, 3])

    def test_average_to_is_exact_block_mean(self):
        p = StepProfile(GridSpec(4), [1.0, 3.0, 5.0, 7.0])
        np.testing.assert_array_equal(p.average_to(2).values, [2.0, 6.0])
        # incommensurate grids go through the common refinement
        q = StepProfile(GridSpec(2), [0.0, 1.0]).average_to(3)
        np.testing.assert_allclose(q.values, [0.0, 0.5, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=24),
           k=st.integers(1, 8), m=st.integers(1, 48))
    def test_average_to_round_trips(self, values, k, m):
        p = StepProfile(GridSpec(len(values)), values)
        n = p.grid.n_cells
        fine = p.average_to(n * k)
        # averaging onto a multiple of the grid repeats each value, bit for bit
        np.testing.assert_array_equal(fine.values, np.repeat(p.values, k))
        # averaging back takes means of k equal values, so it recovers the profile
        np.testing.assert_allclose(fine.average_to(n).values, p.values, rtol=1e-14, atol=0)
        # averaging onto any grid keeps the integral
        assert p.average_to(m).values.mean() == pytest.approx(p.values.mean(), rel=1e-12,
                                                               abs=1e-9)

    def test_length_validated(self):
        with pytest.raises(ValueError):
            StepProfile(GridSpec(3), [1.0, 2.0])

    def test_rejects_non_finite_values(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                StepProfile(GridSpec(4), [bad, 1.0, 1.0, 1.0])

    def test_records_do_not_alias_caller_arrays(self):
        arr = np.array([0.1, 0.2])
        p = StepProfile(GridSpec(2), arr)
        arr[0] = 9.0
        assert p.values[0] == 0.1
        mat = np.array([[0.1, 0.2], [0.3, 0.4]])
        W = StepGraphon(mat)
        mat[0, 0] = 0.9
        assert W.values[0, 0] == 0.1

    def test_common_grid(self):
        f = StepProfile(GridSpec(2), [0.0, 1.0])
        g = StepProfile(GridSpec(3), [0.5, 0.5, 0.5])
        v1, v2, grid = common_grid(f, g)
        assert grid.n_cells == 6
        np.testing.assert_array_equal(v1, [0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(v2, [0.5] * 6)
        with pytest.raises(GridCompatibilityError):
            common_grid(StepProfile.constant(0, GridSpec(5000)),
                        StepProfile.constant(0, GridSpec(4999)))


class TestGraphonFamilies:
    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(1e-9, 1, 200)
        s = rng.uniform(1e-9, 1, 200)
        for W in (ConstantGraphon(0.7), ProductGraphon(), SeparablePowerGraphon(0.3),
                  StepGraphon(rng.random((5, 5)))):
            vals = np.asarray(W.evaluate(t, s), float)
            assert vals.min() >= -1e-12 and vals.max() <= 1 + 1e-12
            assert W.sup_norm() <= 1 + 1e-12

    def test_separable_power_is_asymmetric(self):
        W = SeparablePowerGraphon(0.3)
        assert W.evaluate(0.2, 0.9) != W.evaluate(0.9, 0.2)

    def test_step_lookup(self):
        W = StepGraphon([[0.0, 1.0], [0.5, 0.25]])
        assert W.evaluate(0.3, 0.8) == 1.0
        assert W.evaluate(0.8, 0.3) == 0.5
        assert W.sup_norm() == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantGraphon(1.2)
        with pytest.raises(ValueError):
            StepGraphon([[0.5, 1.5], [0.0, 0.0]])
        with pytest.raises(ValueError):
            StepGraphon(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1, 1.2, True, "0.5"])
    def test_constant_value_must_be_a_number_in_unit_interval(self, bad):
        with pytest.raises(ValueError, match="constant graphon value"):
            ConstantGraphon(bad)

    @pytest.mark.parametrize("bad", [0.0, 1.0, float("nan"), -0.1, True, "0.5", None])
    def test_power_alpha_must_be_a_number_in_the_open_unit_interval(self, bad):
        with pytest.raises(ValueError, match="alpha must"):
            SeparablePowerGraphon(bad)

    def test_step_rejects_non_finite_entries(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                StepGraphon([[bad, 0.2], [0.1, 0.3]])

    def test_analytic_families_are_one_separable_class(self):
        kernels = (ConstantGraphon(0.7), ProductGraphon(), SeparablePowerGraphon(0.3))
        assert all(type(W) is SeparableGraphon for W in kernels)
        assert [W.family for W in kernels] == ["constant", "product", "separable_power"]
        # equality and hashing follow the JSON description, not the factor objects
        assert ConstantGraphon(0.7) == ConstantGraphon(0.7) != ConstantGraphon(0.6)
        assert ProductGraphon() != ConstantGraphon(1.0)
        assert len({SeparablePowerGraphon(0.3), SeparablePowerGraphon(0.3)}) == 1


class TestStepApproximation:
    def test_constant_kernel(self):
        out = step_approximation(ConstantGraphon(0.42), 4)
        np.testing.assert_allclose(out.values, 0.42, rtol=0, atol=1e-15)

    def test_product_kernel_first_entry(self):
        # oracle: average of t*s over (0, 1/2]^2 = (∫_0^{1/2} t dt / (1/2))^2 = (1/4)^2,
        # reproduced exactly because the midpoint rule is exact for linear factors
        out = step_approximation(ProductGraphon(), 2)
        assert out.values[0, 0] == pytest.approx(0.0625, abs=1e-15)

    def test_idempotent_on_matching_step_graphon(self):
        rng = np.random.default_rng(1)
        W = StepGraphon(rng.random((3, 3)))
        out = step_approximation(W, 3)
        np.testing.assert_array_equal(out.values, W.values)

    def test_matching_step_graphon_is_returned_as_is(self):
        W = StepGraphon([[0.0, 1.0], [0.5, 0.25]])
        assert step_approximation(W, 2) is W
        # the shared array is read-only, so neither name can change the other
        with pytest.raises(ValueError):
            W.values[0, 0] = 0.75

    def test_analytic_result_is_the_only_n_by_n_allocation(self):
        # clipped in place and adopted by the StepGraphon: no second 32 MiB matrix
        tracemalloc.start()
        try:
            W = step_approximation(SeparablePowerGraphon(0.5), 2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert W.values.nbytes == 32 * 2 ** 20
        assert peak <= 1.1 * W.values.nbytes

    def test_package_matrices_are_shared_not_copied(self):
        W = step_approximation(ProductGraphon(), 8)
        assert StepGraphon(W.values).values is W.values
        refined = step_approximation(StepGraphon([[0.0, 1.0], [0.5, 0.25]]), 4)
        assert StepGraphon(refined.values).values is refined.values

    def test_caller_arrays_are_copied_once(self):
        base = np.array([[0.0, 1.0], [0.5, 0.25]])
        locked = base.view()
        locked.flags.writeable = False
        row = np.array([0.5, 0.25])
        for values, source in ((base, base), (locked, base),
                               (np.broadcast_to(row, (2, 2)), row)):
            before = np.array(values)
            W = StepGraphon(values)
            assert not np.shares_memory(W.values, source)
            assert not W.values.flags.writeable
            source[...] = 0.75
            np.testing.assert_array_equal(W.values, before)
            source[...] = before if source is base else before[0]

    @pytest.mark.parametrize("W, n, m, match", [
        (SeparablePowerGraphon(0.5), 2.0, 4, r"^n must be an integer >= 1, got 2\.0$"),
        (SeparablePowerGraphon(0.5), True, 4, r"^n must be an integer >= 1, got True$"),
        (StepGraphon(np.eye(2)), 2.0, 4, r"^n must be an integer >= 1, got 2\.0$"),
        (ProductGraphon(), 0, 4, r"^n must be an integer >= 1, got 0$"),
        (ProductGraphon(), 4, 1.5, r"^m must be an integer >= 1, got 1\.5$"),
        (ProductGraphon(), 4, False, r"^m must be an integer >= 1, got False$"),
        (StepGraphon(np.eye(2)), 2, 0, r"^m must be an integer >= 1, got 0$"),
    ], ids=["float-n", "bool-n", "float-n-matching-step", "zero-n", "float-m", "bool-m",
            "zero-m-matching-step"])
    def test_sizes_must_be_counts(self, W, n, m, match):
        with pytest.raises(ValueError, match=match):
            step_approximation(W, n, m)

    def test_numpy_integer_sizes_are_counts(self):
        W = step_approximation(ProductGraphon(), np.int64(4), np.int32(2))
        np.testing.assert_array_equal(W.values, step_approximation(ProductGraphon(), 4, 2).values)

    def test_step_refinement_and_coarsening_exact(self):
        W = StepGraphon([[0.0, 1.0], [0.5, 0.25]])
        fine = step_approximation(W, 4)
        np.testing.assert_array_equal(fine.values, np.repeat(np.repeat(W.values, 2, 0), 2, 1))
        back = step_approximation(fine, 2)
        np.testing.assert_allclose(back.values, W.values, atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(p=st.integers(1, 12), n=st.integers(1, 36), seed=st.integers(0, 2 ** 32 - 1))
    def test_incommensurate_step_average_matches_fine_sampling(self, p, n, seed):
        W = StepGraphon(np.random.default_rng(seed).random((p, p)))
        out = step_approximation(W, n)
        # oracle: brute-force averaging on the common refinement
        common = math.lcm(p, n)
        mids = (np.arange(common) + 0.5) / common
        fine = W.evaluate(mids[:, None], mids[None, :])
        k = common // n
        expected = fine.reshape(n, k, n, k).mean(axis=(1, 3))
        np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-14)
        if n % p == 0:  # a refinement repeats each entry, bit for bit
            r = n // p
            np.testing.assert_array_equal(out.values, np.repeat(np.repeat(W.values, r, 0), r, 1))

    def test_step_refinement_holds_little_beyond_its_result(self):
        # one axis at a time: the 2048 x 512 half-refined matrix is the only temporary
        W = StepGraphon(np.random.default_rng(3).random((512, 512)))
        tracemalloc.start()
        try:
            out = step_approximation(W, 2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.values.nbytes == 32 * 2 ** 20
        assert peak <= 1.3 * out.values.nbytes

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            step_approximation(ProductGraphon(), 0)
        with pytest.raises(ValueError):
            step_approximation(ProductGraphon(), 4, m=0)

    def test_only_step_and_separable_kernels_are_discretized(self):
        class Pointwise(Graphon):
            def evaluate(self, t, s):
                return np.minimum(t, s)

        with pytest.raises(TypeError):
            step_approximation(Pointwise(), 4)
        with pytest.raises(TypeError):
            local_aggregate(Pointwise(), StepProfile.constant(1.0, GridSpec(4)))

    def test_l1_convergence_for_product_kernel(self):
        # nonincreasing L1 error along dyadic refinement, small by n = 256
        W = ProductGraphon()
        errors = [graphon_l1_distance(W, step_approximation(W, n), resolution=1024)
                  for n in (2, 4, 8, 16, 32, 64, 128, 256)]
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= 0.01


class TestLocalAggregate:
    def test_total_mass(self):
        f = StepProfile.constant(3.0, GridSpec(16))
        e = local_aggregate(ConstantGraphon(1.0), f)
        np.testing.assert_allclose(e.values, 3.0, atol=1e-13)

    def test_zero_kernel(self):
        f = StepProfile(GridSpec(8), np.linspace(0, 1, 8))
        e = local_aggregate(ConstantGraphon(0.0), f)
        np.testing.assert_array_equal(e.values, 0.0)

    def test_separable_kernel_against_analytic_integral(self):
        # oracle: ∫_0^1 sqrt(s) ds = 2/3, so e(t) = (2/3) sqrt(t)
        grid = GridSpec(1024)
        e = local_aggregate(SeparablePowerGraphon(0.5), StepProfile.constant(1.0, grid))
        expected = (2.0 / 3.0) * np.sqrt(grid.midpoints())
        assert np.abs(e.values - expected).max() <= 5e-3

    def test_step_same_resolution_is_exact_matrix_vector(self):
        rng = np.random.default_rng(3)
        V = rng.random((6, 6))
        fvals = rng.random(6)
        e = local_aggregate(StepGraphon(V), StepProfile(GridSpec(6), fvals))
        np.testing.assert_array_equal(e.values, V @ fvals / 6)

    def test_step_resolution_must_divide_the_profile_grid(self):
        # as in a game, a 2-step kernel has no aggregate on the 3-cell grid
        W = StepGraphon([[0.0, 1.0], [0.5, 0.25]])
        with pytest.raises(GridCompatibilityError, match="resolution 2 must divide the game grid 3"):
            local_aggregate(W, StepProfile(GridSpec(3), [1.0, 2.0, 3.0]))

    def test_refinement_cap(self):
        W = StepGraphon(np.zeros((4999, 4999)))
        f = StepProfile.constant(0.0, GridSpec(5000))
        with pytest.raises(GridCompatibilityError):
            local_aggregate(W, f)


class TestIteratedKernel:
    def test_base_case_is_step_approximation(self):
        grid = GridSpec(32)
        k1 = iterated_kernel(ProductGraphon(), 1, grid)
        np.testing.assert_array_equal(k1.values, step_approximation(ProductGraphon(), 32).values)

    @pytest.mark.parametrize("n", [True, 2.0, 0], ids=["bool", "float", "zero"])
    def test_order_must_be_a_count(self, n):
        with pytest.raises(ValueError, match=rf"^n must be an integer >= 1, got {n!r}$"):
            iterated_kernel(ProductGraphon(), n, GridSpec(4))

    def test_constant_kernel_squares(self):
        grid = GridSpec(64)
        k2 = iterated_kernel(ConstantGraphon(0.6), 2, grid)
        np.testing.assert_allclose(k2.values, 0.36, atol=1e-13)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_separable_power_halving_law(self, alpha):
        # composition of t^a s^(1-a) integrates x^(1-a) * x^a = x, so each extra
        # kernel contributes a factor 1/2; with midpoint sampling this is exact
        grid = GridSpec(128)
        mids = grid.midpoints()
        for n in (2, 3, 4):
            kn = iterated_kernel(SeparablePowerGraphon(alpha), n, grid, m=1)
            expected = mids[:, None] ** alpha * mids[None, :] ** (1 - alpha) / 2 ** (n - 1)
            np.testing.assert_allclose(kn.values, expected, rtol=1e-12)

    def test_separable_power_halving_law_default_quadrature_interior(self):
        # cell averaging differs from the midpoint value near the t = 0 corner of
        # square-root kernels, so the default quadrature is checked away from it
        grid = GridSpec(128)
        mids = grid.midpoints()
        k3 = iterated_kernel(SeparablePowerGraphon(0.5), 3, grid)
        expected = 0.25 * np.sqrt(mids[:, None] * mids[None, :])
        interior = mids >= 0.25
        rel = np.abs(k3.values - expected) / expected
        assert rel[np.ix_(interior, interior)].max() <= 1e-2

    def test_positivity_and_sup_bound(self):
        rng = np.random.default_rng(4)
        grid = GridSpec(32)
        for W in (StepGraphon(rng.random((8, 8))), SeparablePowerGraphon(0.4),
                  ConstantGraphon(0.9)):
            c = W.sup_norm()
            for n in (1, 2, 3, 5):
                kn = iterated_kernel(W, n, grid).values
                assert kn.min() >= -1e-12
                assert kn.max() <= c ** n + 1e-12


class TestResolvent:
    def test_lambda_zero_keeps_only_first_kernel(self):
        grid = GridSpec(16)
        kernel = resolvent(ProductGraphon(), 0.0, grid, tol=1e-10)
        assert kernel.truncation_order == 1
        assert kernel.tail_bound == 0.0
        np.testing.assert_array_equal(
            kernel.gamma, step_approximation(ProductGraphon(), 16).values
        )

    def test_gamma_is_read_only(self):
        grid = GridSpec(8)
        kernel = resolvent(ProductGraphon(), 0.5, grid, tol=1e-10)
        before = kernel.apply(np.ones(8)).values
        with pytest.raises(ValueError):
            kernel.gamma[0, 0] = 1.0
        np.testing.assert_array_equal(kernel.apply(np.ones(8)).values, before)

    def test_constant_kernel_geometric_series(self):
        # oracle: the scalar fixed point gamma = c + lam*c*gamma, i.e. c/(1 - lam*c)
        c, lam = 0.6, 0.9
        kernel = resolvent(ConstantGraphon(c), lam, GridSpec(64), tol=1e-10)
        np.testing.assert_allclose(kernel.gamma, c / (1 - lam * c), atol=1e-9)

    def test_separable_power_closed_form_kernel(self):
        # on the grid, the rank-1 step kernel ā b̄ᵀ has the geometric resolvent
        # ā b̄ᵀ / (1 - lam <b̄, ā> / N), up to the truncation tail
        W, lam, n = SeparablePowerGraphon(0.5), 0.5, 128
        kernel = resolvent(W, lam, GridSpec(n), tol=1e-10)
        abar, bbar = _factor_averages(W, n)
        expected = np.outer(abar, bbar) / (1.0 - lam * (bbar @ abar) / n)
        np.testing.assert_allclose(kernel.gamma, expected, rtol=0, atol=1e-10)
        # and away from the t = 0 corner it is the continuum kernel
        # Gamma = (2 / (2 - lam)) t^a s^(1-a)
        mids = GridSpec(n).midpoints()
        continuum = (2.0 / (2.0 - lam)) * np.sqrt(mids[:, None] * mids[None, :])
        interior = np.ix_(mids >= 0.25, mids >= 0.25)
        assert (np.abs(kernel.gamma - continuum) / continuum)[interior].max() <= 1e-2

    def test_contraction_rejected_with_diagnostic(self):
        with pytest.raises(ContractionError, match="1.2"):
            resolvent(ConstantGraphon(0.8), 1.5, GridSpec(8), tol=1e-8)
        with pytest.raises(ValueError):
            resolvent(ConstantGraphon(0.5), 0.5, GridSpec(8), tol=0.0)

    def test_non_finite_inputs_fail_closed(self):
        # a NaN sup must not pass the contraction check as "not >= 1"
        nan_sup = dataclasses.replace(ConstantGraphon(0.5), sup=float("nan"))
        with pytest.raises(ContractionError):
            resolvent(nan_sup, 0.5, GridSpec(8), tol=1e-8)
        with pytest.raises(ValueError):
            resolvent(ConstantGraphon(0.5), float("nan"), GridSpec(8), tol=1e-8)
        with pytest.raises(ValueError):
            resolvent(ConstantGraphon(0.5), 0.5, GridSpec(8), tol=float("nan"))

    def test_infinite_tolerance_and_lambda_are_refused(self):
        # an infinite tolerance would stop the Neumann series at order 1
        with pytest.raises(ValueError, match="tolerance must be finite and > 0, got inf"):
            resolvent(ConstantGraphon(0.5), 0.5, GridSpec(8), tol=float("inf"))
        with pytest.raises(ValueError, match="lambda must be finite and >= 0, got inf"):
            resolvent(ConstantGraphon(0.5), float("inf"), GridSpec(8), tol=1e-8)

    def test_entry_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            W = StepGraphon(rng.random((16, 16)))
            lam = rng.uniform(0.1, 0.9) / W.sup_norm()
            kernel = resolvent(W, lam, GridSpec(16), tol=1e-8)
            assert kernel.gamma.min() >= -1e-12
            c = W.sup_norm()
            assert kernel.gamma.max() <= c / (1.0 - lam * c) + 1e-8

    def test_resolvent_identity_on_random_step_graphons(self):
        # (I - lam*K)(g + lam*Gamma g) = g up to the recorded tail
        rng = np.random.default_rng(6)
        tol = 1e-8
        for _ in range(10):
            n = 64
            W = StepGraphon(rng.random((n, n)))
            lam = rng.uniform(0.1, 0.9) / W.sup_norm()
            g = rng.random(n)
            kernel = resolvent(W, lam, GridSpec(n), tol=tol)
            s = g + lam * kernel.apply(g).values
            residual = s - lam * (W.values @ s / n) - g
            assert np.abs(residual).max() <= 2 * tol

    def test_apply_shape_check(self):
        kernel = resolvent(ConstantGraphon(0.5), 0.5, GridSpec(8), tol=1e-8)
        with pytest.raises(ValueError):
            kernel.apply(np.ones(9))

    def test_gamma_is_the_weighted_sum_of_iterated_kernels(self):
        rng = np.random.default_rng(7)
        grid = GridSpec(8)
        W = StepGraphon(rng.random((8, 8)))
        lam = 0.4 / W.sup_norm()
        kernel = resolvent(W, lam, grid, tol=1e-12)
        manual = sum(
            lam ** (k - 1) * iterated_kernel(W, k, grid).values
            for k in range(1, kernel.truncation_order + 1)
        )
        np.testing.assert_allclose(kernel.gamma, manual, atol=1e-12)


class TestMatrixSizeCap:
    def test_resolvent_is_refused_before_it_allocates(self):
        tracemalloc.start()
        try:
            with pytest.raises(GridCompatibilityError, match="8193 x 8193"):
                resolvent(SeparablePowerGraphon(0.5), 0.5, GridSpec(8193), 1e-8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_incommensurate_common_refinement_is_refused_before_it_allocates(self):
        # 97 and 101 cells share a 9797-cell refinement, above the cap
        W = StepGraphon(np.full((97, 97), 0.5))
        tracemalloc.start()
        try:
            with pytest.raises(GridCompatibilityError, match="9797 cells in common"):
                step_approximation(W, 101)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_every_n_by_n_matrix_is_capped(self):
        n = MAX_GRID_CELLS + 1
        refused = [
            lambda: step_approximation(StepGraphon([[0.5]]), n),
            lambda: KernelOperator(ProductGraphon(), GridSpec(n)).dense(),
            lambda: iterated_kernel(ConstantGraphon(0.5), 2, GridSpec(n)),
            lambda: graphon_l1_distance(ProductGraphon(), ConstantGraphon(0.5), resolution=n),
        ]
        for call in refused:
            with pytest.raises(GridCompatibilityError, match=f"cap of {MAX_GRID_CELLS} cells"):
                call()
        # the operator itself needs no N x N matrix, so it is not capped
        e = KernelOperator(ProductGraphon(), GridSpec(n)).apply(np.ones(n))
        assert e.shape == (n,)
        # nor is a block kernel: the grid it refines to is the operator's own
        big = 2 * MAX_GRID_CELLS
        block = KernelOperator(StepGraphon([[0.5, 0.25], [0.25, 0.5]]), GridSpec(big))
        np.testing.assert_array_equal(block.apply(np.ones(big)), np.full(big, 0.375))


class TestWorkingSets:
    # N x N arrays held at the peak, at N = 512 (2 MiB each), with 1 MiB to spare
    N = 512
    MATRIX = N * N * 8

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_analytic_resolvent_holds_its_kernel_and_two_buffers(self):
        grid = GridSpec(self.N)
        peak = self._peak(lambda: resolvent(SeparablePowerGraphon(0.5), 0.5, grid, 1e-8))
        assert peak <= 3 * self.MATRIX + 2 ** 20

    def test_step_resolvent_holds_two_buffers(self):
        # the N-step kernel's own matrix is shared, not copied
        W = StepGraphon(np.random.default_rng(8).random((self.N, self.N)))
        peak = self._peak(lambda: resolvent(W, 0.5, GridSpec(self.N), 1e-8))
        assert peak <= 2 * self.MATRIX + 2 ** 20

    def test_l1_distance_holds_one_sample_matrix_and_a_chunk(self):
        W = StepGraphon(np.random.default_rng(9).random((128, 128)))
        peak = self._peak(lambda: graphon_l1_distance(SeparablePowerGraphon(0.5), W,
                                                      resolution=self.N))
        assert peak <= self.MATRIX + 8 * SAMPLE_CHUNK + 2 ** 20


class TestGraphonL1Distance:
    def test_identical_is_zero(self):
        assert graphon_l1_distance(ProductGraphon(), ProductGraphon()) == 0.0

    def test_constant_gap(self):
        d = graphon_l1_distance(ConstantGraphon(0.9), ConstantGraphon(0.4))
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_exact_between_step_graphons(self):
        W1 = StepGraphon([[0.0, 1.0], [1.0, 0.0]])
        W2 = StepGraphon([[0.0, 0.0], [0.0, 0.0]])
        assert graphon_l1_distance(W1, W2) == pytest.approx(0.5, abs=1e-15)

    def test_incommensurate_step_sizes_capped(self):
        W1 = StepGraphon(np.zeros((127, 127)))
        W2 = StepGraphon(np.zeros((128, 128)))
        with pytest.raises(GridCompatibilityError):
            graphon_l1_distance(W1, W2)  # exact grid would need lcm = 16256 cells
        assert graphon_l1_distance(W1, W2, resolution=512) == 0.0

    def test_non_finite_samples_raise(self):
        class Pointwise(Graphon):
            def evaluate(self, t, s):
                return np.where(t < 0.5, np.nan, s)

        nan_factor = SeparableGraphon("nan_factor", (), lambda x: np.full(np.shape(x), np.nan),
                                      np.asarray, 1.0)
        for W in (Pointwise(), nan_factor):
            for pair in ((W, ProductGraphon()), (ProductGraphon(), W)):
                with pytest.raises(ValueError, match="must be finite"):
                    graphon_l1_distance(*pair, resolution=16)

    @pytest.mark.parametrize("resolution", [8.5, True, -3, 0, "8"])
    def test_explicit_resolution_must_be_a_positive_integer(self, resolution):
        # 8.5 would sample 9 midpoints off any grid, True would run at resolution 1
        with pytest.raises(ValueError, match=f"integer >= 1, got {resolution!r}"):
            graphon_l1_distance(ProductGraphon(), ConstantGraphon(0.5), resolution=resolution)
        assert graphon_l1_distance(ProductGraphon(), ProductGraphon(),
                                   resolution=np.int64(8)) == 0.0


separable_kernels = st.one_of(
    st.floats(0.0, 1.0).map(ConstantGraphon),
    st.just(ProductGraphon()),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(SeparablePowerGraphon),
)


class TestGraphonL1Sampling:
    @settings(max_examples=80, deadline=None)
    @given(pair=st.sampled_from(["step/step", "step/separable", "separable/separable"]),
           multiple=st.integers(1, 3), off_grid=st.booleans(), data=st.data())
    def test_equals_pointwise_evaluation(self, pair, multiple, off_grid, data):
        # oracle: both kernels evaluated on the broadcast midpoint grid; off_grid
        # adds one cell, which no step size >= 2 divides (the evaluate fallback)
        kernels = []
        for kind in pair.split("/"):
            if kind == "step":
                n = data.draw(st.integers(2, 12), label="n")
                seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
                kernels.append(StepGraphon(np.random.default_rng(seed).random((n, n))))
            else:
                kernels.append(data.draw(separable_kernels, label="separable"))
        W1, W2 = kernels
        steps = [W.n for W in kernels if isinstance(W, StepGraphon)]
        resolution = math.lcm(1, *steps) * multiple + int(off_grid)
        mids = (np.arange(resolution) + 0.5) / resolution
        t, s = mids[:, None], mids[None, :]
        expected = float(np.abs(np.asarray(W1.evaluate(t, s), dtype=float)
                                - np.asarray(W2.evaluate(t, s), dtype=float)).mean())
        assert graphon_l1_distance(W1, W2, resolution=resolution) == expected

    def test_other_kernels_are_sampled_pointwise(self):
        class Pointwise(Graphon):
            def evaluate(self, t, s):
                return np.minimum(t, s)

        mids = (np.arange(24) + 0.5) / 24
        expected = float(np.abs(np.minimum(mids[:, None], mids[None, :]) - 0.25).mean())
        assert graphon_l1_distance(Pointwise(), ConstantGraphon(0.25), resolution=24) == expected

    def test_samples_are_clipped_as_the_step_approximation(self):
        # step entries within 1e-12 outside [0, 1] are clipped once refined and
        # kept as they are on the kernel's own grid; a product above 1 is clipped
        V = StepGraphon([[1.0 + 1e-13, 0.5], [-1e-13, 0.25]])
        doubled = SeparableGraphon("doubled", (), lambda x: 2.0 * np.asarray(x), np.asarray, 1.0)
        for W, resolution in ((V, 2), (V, 6), (doubled, 6)):
            gap = np.abs(step_approximation(W, resolution, m=1).values - 0.5)
            expected = float(gap.mean())
            for pair in ((W, ConstantGraphon(0.5)), (ConstantGraphon(0.5), W)):
                assert graphon_l1_distance(*pair, resolution=resolution) == expected

    def test_factored_kernels_are_not_evaluated_pointwise(self, monkeypatch):
        def no_gather(self, t, s):
            raise AssertionError("evaluate called")

        monkeypatch.setattr(StepGraphon, "evaluate", no_gather)
        monkeypatch.setattr(SeparableGraphon, "evaluate", no_gather)
        W = StepGraphon(np.eye(4))
        assert graphon_l1_distance(W, ProductGraphon(), resolution=16) > 0
        with pytest.raises(AssertionError):  # 4 does not divide 10
            graphon_l1_distance(W, ProductGraphon(), resolution=10)


def _ascending_neumann_sum(wbar: np.ndarray, lam: float, order: int) -> np.ndarray:
    """sum_{k=1}^{order} lam^(k-1) W_k, term by term, W_k = W̄ @ W_{k-1} / N."""
    n = wbar.shape[0]
    term, total = wbar, wbar.copy()
    for _ in range(order - 1):
        term = lam * (wbar @ term) / n
        total = total + term
    return total


class TestResolventNeumannSum:
    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["step", "separable"]), cells=st.integers(8, 96),
           contraction=st.floats(0.0, 0.95, exclude_max=True),
           tol=st.floats(1e-12, 1e-3), data=st.data())
    def test_horner_form_equals_the_ascending_sum(self, kind, cells, contraction, tol, data):
        if kind == "step":
            n = data.draw(st.integers(2, 24), label="n")
            seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
            W = StepGraphon(np.random.default_rng(seed).random((n, n)))
        else:
            W = data.draw(separable_kernels, label="separable")
        c = W.sup_norm()
        lam = contraction / c if c >= 1e-6 else contraction
        kernel = resolvent(W, lam, GridSpec(cells), tol)
        # the smallest order whose geometric tail c rho^K / (1 - rho) is within tol
        rho = lam * c
        order = next(k for k in range(1, 10 ** 4) if c * rho ** k / (1.0 - rho) <= tol)
        assert kernel.truncation_order == order
        assert kernel.tail_bound == c * rho ** order / (1.0 - rho)
        assert kernel.sup_norm == c
        expected = _ascending_neumann_sum(step_approximation(W, cells).values, lam, order)
        np.testing.assert_allclose(kernel.gamma, expected, rtol=1e-13, atol=0)


class TestSeparableGraphonProperties:
    @settings(max_examples=60, deadline=None)
    @given(W=separable_kernels, n=st.integers(1, 300), m=st.integers(1, 6))
    def test_factored_average_equals_dense_midpoint_average(self, W, n, m):
        # oracle: the m x m midpoint average of pointwise values in every cell
        pts = (np.arange(n * m) + 0.5) / (n * m)
        samples = np.asarray(W.evaluate(pts[:, None], pts[None, :]), dtype=float)
        dense = samples.reshape(n, m, n, m).mean(axis=(1, 3))
        np.testing.assert_allclose(step_approximation(W, n, m).values, dense,
                                   rtol=0, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(W=separable_kernels, n=st.integers(1, 300), data=st.data())
    def test_factored_aggregate_equals_dense_step_product(self, W, n, data):
        # oracle: the dense N x N step approximation applied to f
        f = np.array(data.draw(st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n)))
        dense = step_approximation(W, n).values @ f / n
        # atol only absorbs underflow of products of subnormal factors
        np.testing.assert_allclose(local_aggregate(W, StepProfile(GridSpec(n), f)).values,
                                   dense, rtol=1e-12, atol=1e-300)

    @given(W=separable_kernels)
    def test_descriptor_round_trip(self, W):
        back = io.graphon_from_descriptor(W.descriptor())
        assert back == W
        assert back.descriptor() == W.descriptor()
        assert back.sup_norm() == W.sup_norm()


class TestKernelOperator:
    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["dense", "block", "rank-1"]), data=st.data())
    def test_apply_equals_the_dense_oracle(self, kind, data):
        # oracle: the N x N step approximation applied to f
        if kind == "rank-1":
            W = data.draw(separable_kernels, label="W")
            n = data.draw(st.integers(1, 300), label="n")
        else:
            k = data.draw(st.integers(1, 12), label="k")
            seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
            W = StepGraphon(np.random.default_rng(seed).random((k, k)))
            n = k * (1 if kind == "dense" else data.draw(st.integers(2, 24), label="N/k"))
        f = np.array(data.draw(st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n)))
        op = KernelOperator(W, GridSpec(n))
        assert op.kind == kind
        e = op.apply(f)
        dense = step_approximation(W, n).values @ f / n
        if kind == "dense":
            np.testing.assert_array_equal(e, dense)
        elif kind == "block":
            np.testing.assert_allclose(e, dense, rtol=1e-12, atol=0)
        else:
            # a(t)b(s) summed in factored order rounds differently from the dense
            # product; it is bit for bit the factored local aggregate ā (b̄ · f) / N
            abar, bbar = _factor_averages(W, n)
            np.testing.assert_array_equal(e, abar * (bbar @ f) / n)
            # atol only absorbs underflow of products of subnormal factors
            np.testing.assert_allclose(e, dense, rtol=1e-12, atol=1e-300)

    def test_sup_dense_matrix_and_grid_checks(self):
        W = StepGraphon([[0.9, 0.1], [0.1, 0.4]])
        op = KernelOperator(W, GridSpec(6))
        assert op.sup == 0.9
        np.testing.assert_array_equal(op.dense(), np.repeat(np.repeat(W.values, 3, 0), 3, 1))
        rank1 = KernelOperator(ProductGraphon(), GridSpec(5))
        np.testing.assert_array_equal(rank1.dense(),
                                      step_approximation(ProductGraphon(), 5).values)
        with pytest.raises(ValueError, match="must divide the game grid"):
            KernelOperator(W, GridSpec(3))
        with pytest.raises(ValueError, match="expected 6 values"):
            op.apply(np.ones(3))

    def test_local_aggregate_applies_the_operator(self):
        rng = np.random.default_rng(4)
        W = StepGraphon(rng.random((3, 3)))
        f = StepProfile(GridSpec(12), rng.random(12))
        e = local_aggregate(W, f)
        assert e.grid == f.grid
        np.testing.assert_array_equal(e.values, KernelOperator(W, f.grid).apply(f.values))
