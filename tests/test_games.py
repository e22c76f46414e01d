import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_games.core import ConstantGraphon, GridSpec, StepGraphon, StepProfile
from graphon_games.games import (
    UTILITY_FAMILIES,
    GraphonGame,
    NetworkGame,
    PlateauUtility,
    QuadraticUtility,
    UtilitySpec,
    embed_network,
    embed_strategy,
    epsilon_star,
    regret_profile,
)
from graphon_games.lq import LQParams, lq_game
from graphon_games.solver import SolverConfig, best_response_map, solve

from closed_form_oracle import assert_same_bits, oracle_regrets


def eps_star_oracle(regrets, step=1e-4):
    """Brute-force infimum over the eps grid: first eps with enough cells under it."""
    r = np.sort(np.asarray(regrets, float))
    grid = np.arange(0.0, max(1.0, r[-1]) + 2 * step, step)
    # fraction of cells with regret <= eps, at every grid point at once
    enough = np.searchsorted(r, grid, side="right") / r.size >= 1.0 - grid
    if not enough.any():
        raise AssertionError("unreachable: eps = max regret always satisfies the condition")
    return grid[np.argmax(enough)]


def random_network(rng, n=None, family="plateau_lq", cap=4.0):
    n = n or int(rng.integers(2, 33))
    grid = GridSpec(n)
    if family == "plateau_lq":
        util = PlateauUtility.from_values(grid, lam=rng.uniform(0, 1.5, n))
    else:
        util = QuadraticUtility.from_values(grid, beta=rng.uniform(0, cap, n),
                                            delta=rng.uniform(-1, 1, n))
    return NetworkGame(rng.random((n, n)), util, cap)


class TestUtilityFamilies:
    def test_plateau_flat_top(self):
        u = PlateauUtility.from_values(GridSpec(1), lam=0.5)
        e = np.array([2.0])
        inside = [u.evaluate(np.array([a]), e)[0] for a in (1.0, 1.3, 2.0)]
        assert inside == [0.5, 0.5, 0.5]
        (lo, hi), h = u.response_regrets(np.array([0.0]), e, 10.0)
        assert (lo[0], hi[0]) == (1.0, 2.0)
        assert h[0] == 0.5  # u(0, e) = 0 gives up the whole plateau height

    def test_plateau_capped(self):
        u = PlateauUtility.from_values(GridSpec(1), lam=0.5)
        (lo, hi), h = u.response_regrets(np.array([0.0]), np.array([30.0]), 10.0)
        assert (lo[0], hi[0]) == (10.0, 10.0)
        # best value at the cap: u(L, e) on the increasing branch, against u(0, e) = 0
        assert h[0] == pytest.approx(10 * (15 - 5))

    def test_quadratic_peak(self):
        u = QuadraticUtility.from_values(GridSpec(2), beta=[0.5, 3.0], delta=[1.0, 0.0])
        e = np.array([0.25, 0.0])
        (lo, hi), h = u.response_regrets(np.array([0.75, 0.0]), e, 2.0)
        np.testing.assert_allclose(lo, [0.75, 2.0])  # second peak clipped at the cap
        np.testing.assert_allclose(hi, lo)
        # best values 0 and u(2, 0) = -0.5, against u = 0 and u(0, 0) = -4.5
        np.testing.assert_allclose(h, [0.0, 4.0])

    def test_regrid_averages_parameters(self):
        u = PlateauUtility.from_values(GridSpec(4), lam=[0.0, 1.0, 0.5, 0.5])
        coarse = u.regrid(2)
        np.testing.assert_array_equal(coarse.params["lam"].values, [0.5, 0.5])

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PlateauUtility({"wrong": StepProfile.constant(0.5, GridSpec(2))})
        with pytest.raises(ValueError):
            QuadraticUtility({
                "beta": StepProfile.constant(0.5, GridSpec(2)),
                "delta": StepProfile.constant(0.5, GridSpec(3)),
            })

    def test_plateau_rejects_non_finite_lambda(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                PlateauUtility.from_values(GridSpec(2), lam=bad)

    @pytest.mark.parametrize("family", ["plateau_lq", "quadratic"])
    def test_closed_forms_match_a_dense_search(self, family):
        # an independent oracle: the utility sampled on 20001 points of [0, cap]
        rng = np.random.default_rng(11)
        n, cap = 64, 4.0
        u = random_network(rng, n=n, family=family, cap=cap).utilities
        e = rng.uniform(-cap, 2.0 * cap, n)  # every branch: below 0, interior, above cap
        a = np.linspace(0.0, cap, 20001)
        sampled = u.evaluate(a[:, None], e[None, :])
        (lo, hi), _ = u.response_regrets(np.zeros(n), e, cap)
        best = u.evaluate(lo, e)
        assert np.all(sampled <= best + 1e-12)
        np.testing.assert_allclose(u.evaluate(hi, e), best, rtol=0, atol=1e-12)
        assert np.all((0.0 <= lo) & (lo <= hi) & (hi <= cap))
        argmax = a[np.argmax(sampled, axis=0)]
        step = a[1] - a[0]
        assert np.all((lo - step <= argmax) & (argmax <= hi + step))
        # the regret of a strategy is the utility it gives up against the interval
        for played in [lo, hi] + [np.full(n, x) for x in a[::100]]:
            _, h = u.response_regrets(played, e, cap)
            np.testing.assert_allclose(h, best - u.evaluate(played, e), rtol=0, atol=1e-12)


# where the anchor lam*e (plateau) or the target beta + delta*e (quadratic) falls
BRANCHES = ("below", "inside", "above", "edge")


# where a plateau utility's strategy a falls: below lam*e, on [lam*e, lam*e + 1], above
PIECES = ("below", "on", "above")


@st.composite
def fused_regret_case(draw, family, piece=None):
    """A utility with per-agent parameters, an aggregate e that puts each agent on
    a drawn branch of its closed forms, a cap, and a strategy a in [0, cap] that
    is often exactly an end of the best-response interval.

    With a ``piece`` of PIECES (plateau family only), every agent's strategy lies
    on that piece of its utility instead, and the plateaus either all fit in
    [0, cap] or are placed on the drawn branches, so that some leave it.
    """
    n = draw(st.integers(1, 16))
    fit = piece is not None and draw(st.booleans())
    cap = draw(st.floats(1.0, 10.0) if fit else st.floats(0.05, 10.0))
    names = ("lam",) if family == "plateau_lq" else ("beta", "delta")
    params = {name: np.empty(n) for name in names}
    e = np.empty(n)
    for i in range(n):
        branch = draw(st.sampled_from(BRANCHES))
        if fit:                  # the plateau [point, point + 1] inside [0, cap]
            point = draw(st.floats(0.0, cap - 1.0))
        elif branch == "below":    # plateau: lam*e + 1 < 0; quadratic: target < 0
            point = (-1.0 if family == "plateau_lq" else 0.0) - draw(st.floats(1e-9, 5.0))
        elif branch == "inside":
            point = draw(st.floats(-1.0 if family == "plateau_lq" else 0.0, cap))
        elif branch == "above":  # past the cap
            point = cap + draw(st.floats(1e-9, 5.0))
        else:                    # exactly on a boundary of the branches
            point = draw(st.sampled_from([-1.0, 0.0, -0.0, cap]))
        if family == "plateau_lq":
            # lam is 0 or at least 1e-3, so point / lam stays finite
            lam = 1.0 if branch == "edge" else draw(st.sampled_from([0.0, 0.5])
                                                    | st.floats(1e-3, 2.0))
            params["lam"][i] = lam
            e[i] = point / lam if lam > 0 else draw(st.floats(-10.0, 10.0))
        else:
            delta = draw(st.sampled_from([0.0, -0.0])
                         | st.builds(lambda sign, size: sign * size,
                                     st.sampled_from([1.0, -1.0]), st.floats(1e-3, 2.0)))
            if branch == "edge" or delta == 0:
                # delta is +-0, so the target is beta + (+-0)
                params["beta"][i], params["delta"][i] = point, 0.0 * delta
                e[i] = draw(st.floats(-10.0, 10.0))
            else:
                beta = draw(st.floats(-3.0, 6.0))
                params["beta"][i], params["delta"][i] = beta, delta
                e[i] = (point - beta) / delta
    utilities = UTILITY_FAMILIES[family].from_values(GridSpec(n), **params)
    if piece is not None:
        anchor = utilities.lam * e  # the plateau's lower end, as the utility forms it
        a = np.array([draw_on_piece(draw, piece, x) for x in anchor])
        return utilities, a, e, cap
    (lo, hi), _ = oracle_regrets(utilities, np.zeros(n), e, cap)
    a = np.array([draw(st.sampled_from([lo[i], hi[i], 0.0, cap]) | st.floats(0.0, cap))
                  for i in range(n)])
    return utilities, a, e, cap


def draw_on_piece(draw, piece, anchor):
    """A strategy on the given piece of a plateau utility whose plateau starts at anchor."""
    top = anchor + 1.0
    if piece == "below":
        return anchor - draw(st.floats(1e-9, 5.0))
    if piece == "above":
        return top + draw(st.floats(1e-9, 5.0))
    return draw(st.sampled_from([anchor, top]) | st.floats(anchor, top))


class TestResponseRegrets:
    """The fused closed-form pass gives, bit for bit, what the separate closed forms give."""

    @pytest.mark.parametrize("family", ["plateau_lq", "quadratic"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_the_separate_closed_forms(self, family, data):
        u, a, e, cap = data.draw(fused_regret_case(family))
        (lo, hi), h = u.response_regrets(a, e, cap)
        (lo_ref, hi_ref), h_ref = oracle_regrets(u, a, e, cap)
        assert_same_bits(lo, lo_ref)
        assert_same_bits(hi, hi_ref)
        assert_same_bits(h, h_ref)

    @pytest.mark.parametrize("piece", PIECES)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_cell_on_one_piece(self, piece, data):
        # the passes that evaluate only the pieces some cell is on, with plateaus
        # that all fit in [0, cap] (the best value is the plateau height) or not
        u, a, e, cap = data.draw(fused_regret_case("plateau_lq", piece))
        anchor = u.lam * e
        on_piece = {"below": a < anchor,
                    "on": (anchor <= a) & (a <= anchor + 1.0),
                    "above": a > anchor + 1.0}[piece]
        assert on_piece.all()
        (lo, hi), h = u.response_regrets(a, e, cap)
        (lo_ref, hi_ref), h_ref = oracle_regrets(u, a, e, cap)
        for got, ref in ((lo, lo_ref), (hi, hi_ref), (h, h_ref)):
            assert_same_bits(got, ref)


class TestGameRecords:
    def test_graphon_game_validation(self):
        grid = GridSpec(4)
        util = PlateauUtility.from_values(grid, lam=0.5)
        with pytest.raises(ValueError):
            GraphonGame(ConstantGraphon(0.5), util, 0.0, grid)
        with pytest.raises(ValueError):
            GraphonGame(ConstantGraphon(0.5), util, 4.0, GridSpec(8))
        with pytest.raises(ValueError):  # step resolution must divide the grid
            GraphonGame(StepGraphon(np.zeros((3, 3))), util, 4.0, grid)
        GraphonGame(ConstantGraphon(0.5), util, 4.0, grid)  # a valid game builds

    def test_network_game_validation(self):
        util = PlateauUtility.from_values(GridSpec(2), lam=0.5)
        with pytest.raises(ValueError):
            NetworkGame(np.array([[0.5, 1.5], [0.0, 0.0]]), util, 4.0)
        with pytest.raises(ValueError):
            NetworkGame(np.zeros((3, 3)), util, 4.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 0.0, True, "4"])
    def test_cap_must_be_finite_and_positive(self, bad):
        grid = GridSpec(2)
        util = PlateauUtility.from_values(grid, lam=0.5)
        with pytest.raises(ValueError, match="cap"):
            GraphonGame(ConstantGraphon(0.5), util, bad, grid)
        with pytest.raises(ValueError, match="cap"):
            NetworkGame(np.zeros((2, 2)), util, bad)

    def test_network_game_rejects_non_finite_adjacency(self):
        util = PlateauUtility.from_values(GridSpec(2), lam=0.5)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                NetworkGame(np.array([[bad, 0.2], [0.1, 0.3]]), util, 4.0)

    def test_adjacency_is_read_only(self):
        util = PlateauUtility.from_values(GridSpec(2), lam=0.5)
        net = NetworkGame(np.array([[0.0, 1.0], [0.5, 0.25]]), util, 4.0)
        for bad in (0.9, np.nan):
            with pytest.raises(ValueError):
                net.adjacency[0, 0] = bad
        np.testing.assert_array_equal(net.adjacency, [[0.0, 1.0], [0.5, 0.25]])
        np.testing.assert_array_equal(embed_network(net).graphon.values, net.adjacency)

    def test_replace_makes_a_game_on_the_same_adjacency(self):
        util = PlateauUtility.from_values(GridSpec(2), lam=0.5)
        net = NetworkGame(np.array([[0.0, 1.0], [0.5, 0.25]]), util, 4.0)
        capped = dataclasses.replace(net, cap=5.0)
        assert type(capped) is NetworkGame and capped.cap == 5.0
        assert capped.graphon is net.graphon and capped.adjacency is net.adjacency
        assert capped.grid == net.grid and capped.utilities is net.utilities
        with pytest.raises(ValueError, match="cap"):
            dataclasses.replace(net, cap=-1.0)

    def test_caller_adjacency_is_copied_once(self):
        util = PlateauUtility.from_values(GridSpec(2), lam=0.5)
        base = np.array([[0.0, 1.0], [0.5, 0.25]])
        locked = base.view()
        locked.flags.writeable = False
        row = np.array([0.5, 0.25])
        for adjacency, source in ((base, base), (locked, base),
                                  (np.broadcast_to(row, (2, 2)), row)):
            before = np.array(adjacency)
            net = NetworkGame(adjacency, util, 4.0)
            assert not np.shares_memory(net.adjacency, source)
            source[...] = 0.75
            np.testing.assert_array_equal(net.adjacency, before)
            np.testing.assert_array_equal(embed_network(net).graphon.values, before)
            source[...] = before if source is base else before[0]


ENTRIES = (0.0, -0.0, 0.25, 1.0)


def build_on(values, as_network: bool):
    """The frozen matrix of a game or a step kernel built on ``values``."""
    if as_network:
        util = PlateauUtility.from_values(GridSpec(len(values)), lam=0.5)
        return NetworkGame(values, util, 4.0).adjacency
    return StepGraphon(values).values


class TestCallerMatrixSharing:
    """Games built on one caller float64 matrix share one frozen copy while its bits hold."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 5), layout=st.sampled_from(["c", "sliced", "read-only", "broadcast"]),
           builds=st.tuples(st.booleans(), st.booleans()), data=st.data())
    def test_copy_is_reused_exactly_when_bits_are_unchanged(self, n, layout, builds, data):
        entries = st.sampled_from(ENTRIES)
        if layout == "broadcast":
            source = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)))
            values = np.broadcast_to(source, (n, n))
        else:
            cols = 2 * n if layout == "sliced" else n
            flat = data.draw(st.lists(entries, min_size=n * cols, max_size=n * cols))
            source = np.array(flat).reshape(n, cols)
            values = source[:, ::2] if layout == "sliced" else source.view()
            values.flags.writeable = layout != "read-only"
        bits = [np.array(values).view(np.int64)]
        first = build_on(values, builds[0])
        if data.draw(st.booleans(), label="change one entry"):
            at = data.draw(st.integers(0, source.size - 1), label="index")
            source.flat[at] = data.draw(entries, label="new entry")
        bits.append(np.array(values).view(np.int64))
        second = build_on(values, builds[1])
        assert (second is first) == np.array_equal(bits[0], bits[1])
        for matrix, want in zip((first, second), bits):
            np.testing.assert_array_equal(matrix.view(np.int64), want)
            assert not matrix.flags.writeable and not np.shares_memory(matrix, source)

    def test_zero_turned_negative_gets_a_fresh_copy(self):
        adjacency = np.zeros((2, 2))
        first = build_on(adjacency, True)
        adjacency[0, 1] = -0.0  # == 0.0, but other bits
        second = build_on(adjacency, True)
        assert second is not first
        assert np.signbit(second[0, 1]) and not np.signbit(first[0, 1])
        assert build_on(adjacency, False) is second

    @pytest.mark.parametrize("values", [
        np.eye(3, dtype=int), np.eye(3, dtype=bool), np.eye(3, dtype=np.float32),
        np.eye(3).astype(">f8"), np.eye(3).tolist(),
    ], ids=["int", "bool", "float32", "big-endian", "list"])
    def test_other_callers_are_always_copied(self, values):
        first, second = build_on(values, True), build_on(values, False)
        assert second is not first
        np.testing.assert_array_equal(first, np.eye(3))
        np.testing.assert_array_equal(second, np.eye(3))

    def test_two_games_and_a_kernel_hold_one_copy(self):
        n = 1024
        adjacency = (np.random.default_rng(7).random((n, n)) < 0.3).astype(float)
        grid = GridSpec(n)
        plateau = PlateauUtility.from_values(grid, lam=0.5)
        quadratic = QuadraticUtility.from_values(grid, beta=0.5, delta=0.25)
        tracemalloc.start()
        try:
            games = (NetworkGame(adjacency, plateau, 4.0), NetworkGame(adjacency, quadratic, 4.0))
            kernel = StepGraphon(adjacency)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the copy and the bool result of one bit comparison, not three copies
        assert peak <= 1.15 * adjacency.nbytes
        assert games[0].adjacency is games[1].adjacency is kernel.values

    def test_shared_copy_dies_with_its_games(self):
        adjacency = np.full((4, 4), 0.5)
        games = [NetworkGame(adjacency, PlateauUtility.from_values(GridSpec(4), lam=0.5), 4.0),
                 StepGraphon(adjacency)]
        copy = weakref.ref(games[0].adjacency)
        assert games[1].values is copy()
        del games
        gc.collect()
        assert copy() is None


class TestEmbeddings:
    def test_embed_network_step_kernel(self):
        util = PlateauUtility.from_values(GridSpec(2), lam=0.5)
        net = NetworkGame(np.array([[0.0, 1.0], [1.0, 0.0]]), util, 4.0)
        game = embed_network(net)
        assert game.graphon.evaluate(0.3, 0.8) == 1.0
        assert game.cap == 4.0

    def test_embed_network_returns_the_game_itself(self):
        net = random_network(np.random.default_rng(5), n=6)
        assert embed_network(net) is net
        assert isinstance(net, GraphonGame) and net.grid == GridSpec(6)
        assert net.graphon.values is net.adjacency and net.operator.kind == "dense"

    def test_embedding_shares_the_adjacency(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, n=16)
        assert np.shares_memory(embed_network(net).graphon.values, net.adjacency)

    def test_embed_single_node(self):
        util = PlateauUtility.from_values(GridSpec(1), lam=0.0)
        game = embed_network(NetworkGame(np.array([[0.7]]), util, 1.0))
        assert game.graphon.evaluate(0.5, 0.99) == 0.7

    def test_distinct_utilities_embed_as_two_step_profile(self):
        util = QuadraticUtility.from_values(GridSpec(2), beta=[1.0, 2.0], delta=[0.0, 0.0])
        game = embed_network(NetworkGame(np.zeros((2, 2)), util, 4.0))
        beta = game.utilities.params["beta"]
        np.testing.assert_array_equal(beta.values, [1.0, 2.0])

    def test_embed_strategy(self):
        z = embed_strategy(np.zeros(5))
        assert np.all(z.values == 0) and z.grid.n_cells == 5
        np.testing.assert_array_equal(embed_strategy([0.5, 0.25]).values, [0.5, 0.25])
        with pytest.raises(ValueError):
            embed_strategy(np.ones((2, 2)))


class TestNetworkAggregate:
    def test_two_player_example(self):
        # oracle: e = ((0*2 + 1*4)/2, (1*2 + 0*4)/2) = (2, 1)
        util = PlateauUtility.from_values(GridSpec(2), lam=0.5)
        net = NetworkGame(np.array([[0.0, 1.0], [1.0, 0.0]]), util, 10.0)
        np.testing.assert_array_equal(regret_profile(net, [2.0, 4.0]).aggregate.values,
                                      [2.0, 1.0])

    def test_aggregate_is_the_scaled_adjacency_product_bitwise(self):
        # oracle: e = A @ s / n, formed here from the caller's matrix
        rng = np.random.default_rng(12)
        for trial in range(20):
            n = int(rng.integers(1, 33))
            adjacency = (rng.random((n, n)) < 0.5) * rng.random((n, n))
            s = rng.uniform(0, 4.0, n)
            util = (PlateauUtility.from_values(GridSpec(n), lam=0.5) if trial % 2
                    else QuadraticUtility.from_values(GridSpec(n), beta=1.0, delta=0.5))
            net = NetworkGame(adjacency, util, 4.0)
            np.testing.assert_array_equal(regret_profile(net, s).aggregate.values,
                                          adjacency @ s / n)


class TestRegretProfile:
    def test_zero_lam_plateau_has_zero_regret_on_unit_interval(self):
        grid = GridSpec(6)
        game = GraphonGame(ConstantGraphon(0.5), PlateauUtility.from_values(grid, lam=0.0),
                           4.0, grid)
        f = StepProfile(grid, np.linspace(0, 1, 6))
        rep = regret_profile(game, f)
        np.testing.assert_array_equal(rep.regrets.values, 0.0)
        assert rep.epsilon_star == 0.0

    def test_single_agent_quadratic(self):
        # W = 0 so e = 0; regret is u(beta, 0) - u(f, 0) = (f - beta)^2 / 2
        grid = GridSpec(1)
        game = GraphonGame(ConstantGraphon(0.0),
                           QuadraticUtility.from_values(grid, beta=0.7, delta=0.0),
                           2.0, grid)
        rep = regret_profile(game, StepProfile(grid, [0.2]))
        assert rep.regrets.values[0] == pytest.approx(0.5 * 0.5 ** 2, abs=1e-15)

    def test_out_of_interval_profile_rejected(self):
        grid = GridSpec(2)
        game = GraphonGame(ConstantGraphon(0.0), PlateauUtility.from_values(grid, lam=0.5),
                           1.0, grid)
        with pytest.raises(ValueError):
            regret_profile(game, StepProfile(grid, [0.5, 1.5]))

    def test_family_without_closed_forms_raises(self):
        # a search's located maximum under-states regret, so there is no fallback
        class NoClosedForms(UtilitySpec):
            family = "no_closed_forms"
            param_names = ("beta",)

            def evaluate(self, a, e):
                return -0.5 * (np.asarray(a, float) - self.params["beta"].values) ** 2

        grid = GridSpec(4)
        game = GraphonGame(ConstantGraphon(0.5), NoClosedForms.from_values(grid, beta=1.0),
                           2.0, grid)
        f = StepProfile.constant(0.5, grid)
        with pytest.raises(NotImplementedError):
            regret_profile(game, f)
        with pytest.raises(NotImplementedError):
            solve(game, f)
        with pytest.raises(NotImplementedError):
            best_response_map(game, f)

    def test_family_of_the_two_contract_methods_solves(self):
        # evaluate and response_regrets are all that solve, regret_profile and
        # best_response_map call
        class Absolute(UtilitySpec):
            """u(a, e) = -|a - (beta + e/2)|: its best response is the target clipped."""
            family = "absolute"
            param_names = ("beta",)

            def _target(self, e):
                return self.params["beta"].values + 0.5 * np.asarray(e, float)

            def evaluate(self, a, e):
                return -np.abs(np.asarray(a, float) - self._target(e))

            def response_regrets(self, a, e, cap):
                point = np.clip(self._target(e), 0.0, cap)
                h = np.maximum(self.evaluate(point, e) - self.evaluate(a, e), 0.0)
                return (point, point), h

        grid = GridSpec(16)
        util = Absolute.from_values(grid, beta=np.linspace(0.0, 2.0, 16))
        game = GraphonGame(ConstantGraphon(0.5), util, 4.0, grid)
        profile, trace = solve(game, StepProfile.constant(4.0, grid))
        assert trace.converged and trace.iterations > 1
        report = regret_profile(game, profile)
        assert report.epsilon_star <= SolverConfig().regret_target
        np.testing.assert_array_equal(report.regrets.values, trace.final_report.regrets.values)
        # beta + e/2 stays inside [0, 4], so the profile is its own best response
        step = best_response_map(game, profile).values - profile.values
        assert np.abs(step).max() <= SolverConfig().regret_target

    def test_report_carries_strategy_and_aggregate(self):
        rng = np.random.default_rng(14)
        net = random_network(rng, n=5)
        s = rng.uniform(0, net.cap, 5)
        rep = regret_profile(net, s)
        np.testing.assert_array_equal(rep.strategy.values, s)
        np.testing.assert_array_equal(rep.aggregate.values, net.adjacency @ s / 5)


class TestEpsilonStar:
    def test_all_zero(self):
        assert epsilon_star(np.zeros(7)) == 0.0

    def test_one_large_violator(self):
        # oracle (brute force over the eps grid): allowing 1 of 4 violators gives
        # max(1/4, 0) = 0.25, allowing none gives 0.5
        assert eps_star_oracle([0.5, 0, 0, 0]) == pytest.approx(0.25, abs=1e-4)
        assert epsilon_star([0.5, 0, 0, 0]) == 0.25

    def test_two_small_regrets(self):
        assert eps_star_oracle([0.1, 0.1]) == pytest.approx(0.1, abs=1e-4)
        assert epsilon_star([0.1, 0.1]) == pytest.approx(0.1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            epsilon_star([0.1, -0.2])

    def test_non_finite_rejected(self):
        # a NaN epsilon* would pass every "epsilon* > tolerance" failure test
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                epsilon_star([bad, 0.1])

    def test_vectorized_oracle_matches_loop_oracle(self):
        def loop_oracle(regrets, step=1e-4):
            r = np.asarray(regrets, float)
            for eps in np.arange(0.0, max(1.0, r.max()) + 2 * step, step):
                if np.mean(r <= eps) >= 1.0 - eps:
                    return eps

        rng = np.random.default_rng(20)
        cases = [[0.5, 0, 0, 0], [0.1, 0.1], [2.5, 0.0]]
        cases += [rng.random(int(rng.integers(1, 17))) * scale for scale in (0.01, 1.0, 3.0)
                  for _ in range(5)]
        for r in cases:
            assert eps_star_oracle(r) == loop_oracle(r)

    @settings(max_examples=200, deadline=None)
    @given(r=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=16))
    def test_matches_brute_force_oracle(self, r):
        # the oracle scans eps on a 1e-4 grid, so it lands at most one step above
        fast = epsilon_star(r)
        slow = eps_star_oracle(r)
        assert fast <= slow + 1e-12
        assert slow <= fast + 1e-4 + 1e-12

    def test_monotone_under_regret_decrease(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            r = rng.random(8)
            before = epsilon_star(r)
            i = rng.integers(0, 8)
            r2 = r.copy()
            r2[i] *= rng.random()
            assert epsilon_star(r2) <= before + 1e-15

    def test_guarantee_fraction_above_is_small(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            r = rng.random(12)
            eps = epsilon_star(r)
            assert np.mean(r > eps) <= eps + 1e-12


class TestIsEpsilonNash:
    """The epsilon-Nash condition, read off the certified epsilon* of the regrets."""

    @staticmethod
    def game_with_regrets():
        # quadratic peaks at beta with W = 0; playing f = 0 gives regrets beta^2/2,
        # so beta = (1, 0, 0, 0) realizes regrets (0.5, 0, 0, 0)
        grid = GridSpec(4)
        game = GraphonGame(ConstantGraphon(0.0),
                           QuadraticUtility.from_values(grid, beta=[1.0, 0, 0, 0], delta=0.0),
                           2.0, grid)
        return game, StepProfile.constant(0.0, grid)

    def test_exact_equilibrium_at_eps_zero(self):
        grid = GridSpec(4)
        game = GraphonGame(ConstantGraphon(0.0),
                           QuadraticUtility.from_values(grid, beta=0.5, delta=0.0), 2.0, grid)
        assert regret_profile(game, StepProfile.constant(0.5, grid)).epsilon_star == 0.0

    def test_threshold_against_eps_star(self):
        # one violator in four agents: eps* = max(1/4, 0) beats max(0, 0.5)
        game, f = self.game_with_regrets()
        assert regret_profile(game, f).epsilon_star == 0.25

    def test_eps_one_always_true(self):
        game, f = self.game_with_regrets()
        assert regret_profile(game, f).epsilon_star <= 1.0

    def test_consistency_with_eps_star(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            net = random_network(rng, n=10)
            s = rng.uniform(0, net.cap, 10)
            rep = regret_profile(net, s)
            r = rep.regrets.values

            def eps_nash(eps):
                # at least a (1 - eps) fraction of agents has regret <= eps
                return np.mean(r <= eps) >= 1.0 - eps

            assert eps_nash(rep.epsilon_star)
            lower = rep.epsilon_star - 1.0 / 10 - 1e-9
            if lower >= 0:
                assert not eps_nash(lower)

    def test_nan_eps_fails_closed(self):
        # the profile ≡ 1 is an exact equilibrium of this game (regret 0 everywhere)
        grid = GridSpec(4)
        game = lq_game(ConstantGraphon(0.5), LQParams(0.5, 4.0), grid)
        rep = regret_profile(game, StepProfile.constant(1.0, grid))
        assert rep.epsilon_star == 0.0
        # a NaN regret certifies no epsilon: epsilon* refuses it rather than reading 0
        regrets = rep.regrets.values.copy()
        regrets[0] = float("nan")
        with pytest.raises(ValueError):
            epsilon_star(regrets)


class TestEmbeddingExactness:
    def test_network_regrets_equal_embedded_regrets_bitwise(self):
        rng = np.random.default_rng(19)
        for trial in range(25):
            family = "plateau_lq" if trial % 2 else "quadratic"
            net = random_network(rng, family=family)
            s = rng.uniform(0, net.cap, net.n_players)
            rep_net = regret_profile(net, s)
            rep_emb = regret_profile(embed_network(net), embed_strategy(s))
            np.testing.assert_array_equal(rep_net.regrets.values, rep_emb.regrets.values)
            assert rep_net.epsilon_star == rep_emb.epsilon_star

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["plateau_lq", "quadratic"]), n=st.integers(1, 64),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_embedding_exactness_property(self, family, n, seed):
        # random adjacency, utilities and strategies: the embedded game's dense
        # operator reproduces the network's regrets bit for bit
        rng = np.random.default_rng(seed)
        net = random_network(rng, n=n, family=family)
        s = rng.uniform(0, net.cap, n)
        embedded = embed_network(net)
        rep_net = regret_profile(net, s)
        rep_emb = regret_profile(embedded, embed_strategy(s))
        assert embedded.operator.kind == "dense"
        np.testing.assert_array_equal(rep_net.aggregate.values, rep_emb.aggregate.values)
        np.testing.assert_array_equal(rep_net.regrets.values, rep_emb.regrets.values)
        assert rep_net.epsilon_star == rep_emb.epsilon_star
