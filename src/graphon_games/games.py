"""Game records for graphon games and the network games that are their step
games, and the epsilon-Nash certifier built on the per-agent regret profile."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    GridSpec,
    KernelOperator,
    StepProfile,
    Graphon,
    StepGraphon,
    check_step_resolution,
    check_threshold,
)

# utility parameter names in descriptor files, where they differ from the code's
PARAM_FILE_KEYS = {"lam": "lambda"}


class UtilitySpec:
    """Per-agent utility family: a tag plus one step profile per scalar parameter.

    Contract: u(a, e) is continuous in (a, e) and quasi-concave in a on the
    strategy interval.  A family implements two methods, which raise
    NotImplementedError here: evaluate, the utility, and response_regrets,
    which returns the best-response interval and the regret
    max(best value - u, 0) in one closed-form pass, so every regret and
    epsilon* is exact; solve, best_response_map and regret_profile call it.  A
    later family without closed forms must bring a sound upper bound on the
    best value (say, the located value plus a Lipschitz constant times the
    final bracket); a search's located value is at most the true maximum, so
    it under-states regret and certifies nothing.
    """

    family: str = "abstract"
    param_names: tuple[str, ...] = ()

    def __init__(self, params: dict[str, StepProfile]):
        if set(params) != set(self.param_names):
            raise ValueError(
                f"{self.family} utility needs parameters {self.param_names}, got {sorted(params)}"
            )
        sizes = {p.grid.n_cells for p in params.values()}
        if len(sizes) != 1:
            raise ValueError(f"parameter profiles must share one grid, got sizes {sorted(sizes)}")
        self.params = dict(params)
        self.grid = next(iter(params.values())).grid

    @classmethod
    def from_values(cls, grid: GridSpec, **values) -> "UtilitySpec":
        """Build from scalars (constant across agents) or per-agent vectors."""
        params = {}
        for name in cls.param_names:
            v = values[name]
            # a bool or a string is not a number, though float() would take it
            if isinstance(v, np.ndarray):
                numeric = v.dtype.kind in "fiu"
            else:
                numeric = all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                              for x in ([v] if np.ndim(v) == 0 else v))
            if not numeric:
                key = PARAM_FILE_KEYS.get(name, name)
                raise ValueError(f"{cls.family} utility parameter {key} must be a number "
                                 f"or a list of numbers, got {v!r}")
            if np.isscalar(v):
                params[name] = StepProfile.constant(float(v), grid)
            else:
                params[name] = StepProfile(grid, np.asarray(v, float))
        return cls(params)

    def evaluate(self, a, e):
        """Utility of each agent playing a under aggregate e (arrays aligned with cells)."""
        raise NotImplementedError

    def response_regrets(self, a, e, cap):
        """Closed-form best-response interval (lo, hi) per cell over [0, cap]
        under aggregate e, and the regret h = max(max_b u(b, e) - u(a, e), 0) of
        playing a there, in one pass."""
        raise NotImplementedError

    def regrid(self, n_cells: int) -> "UtilitySpec":
        """Exact interval averages of every parameter profile on the n-cell grid."""
        return type(self)({k: p.average_to(n_cells) for k, p in self.params.items()})

    def descriptor(self) -> dict:
        """JSON-style {"family": ..., "params": ...} under the file's parameter names;
        a parameter constant across agents is written as one number."""
        out = {}
        for name, prof in self.params.items():
            vals = prof.values
            out[PARAM_FILE_KEYS.get(name, name)] = (float(vals[0]) if np.ptp(vals) == 0
                                                    else vals.tolist())
        return {"family": self.family, "params": out}


def _where(cond, if_true, if_false):
    """np.where(cond, if_true(), if_false()) bit for bit, calling a branch only
    when some cell takes it: one count of cond decides, so a cell with a NaN
    condition takes if_false, as under np.where."""
    taken = np.count_nonzero(cond)
    if 0 < taken < cond.size:
        return np.where(cond, if_true(), if_false())
    value = if_true() if taken else if_false()
    return value if value.shape == cond.shape else np.broadcast_to(value, cond.shape).copy()


class PlateauUtility(UtilitySpec):
    """Linear-quadratic utility whose best response is a unit-length plateau.

    u(a, e) is quadratic below lam*e, flat on [lam*e, lam*e + 1], and quadratic
    above, so the best-response correspondence is interval-valued.
    """

    family = "plateau_lq"
    param_names = ("lam",)

    @property
    def lam(self) -> np.ndarray:
        return self.params["lam"].values

    def plateau(self, e):
        """The plateau under aggregate e: its ends anchor = lam*e and anchor + 1,
        and its height anchor^2 / 2."""
        anchor = self.lam * np.asarray(e, float)
        return anchor, anchor + 1.0, 0.5 * anchor ** 2

    @staticmethod
    def _fits(anchor, top, cap) -> bool:
        """Whether every plateau lies in [0, cap]; False when any end is NaN."""
        return anchor.min() >= 0.0 and top.max() <= cap

    @staticmethod
    def _value(a, anchor, top, flat):
        def below():
            return -0.5 * a ** 2 + anchor * a

        def above():
            shifted = a - 1.0
            return -0.5 * shifted ** 2 + anchor * shifted

        # a cell below the plateau (a < anchor) is also within it (a <= top), as
        # top = anchor + 1 >= anchor, so no comparison with anchor is made when
        # every cell is above it
        return _where(a <= top, lambda: _where(a < anchor, below, lambda: flat), above)

    @staticmethod
    def _interval(anchor, top, cap, fits):
        """The correspondence {0} / {cap} / [anchor, top] ∩ [0, cap] as (lo, hi)."""
        if fits:
            # only clipping anchor = -0.0 to 0.0 changes a bit
            return np.maximum(anchor, 0.0), top
        return np.minimum(np.maximum(anchor, 0.0), cap), np.minimum(np.maximum(top, 0.0), cap)

    @staticmethod
    def _best(anchor, top, flat, cap, fits):
        # plateau value when reachable; otherwise the boundary a = cap (resp. 0)
        if fits:
            return flat
        return _where(top < 0.0, lambda: -0.5 - anchor,
                      lambda: _where(anchor <= cap, lambda: flat,
                                     lambda: cap * (anchor - 0.5 * cap)))

    def evaluate(self, a, e):
        return self._value(np.asarray(a, float), *self.plateau(e))

    def response_regrets(self, a, e, cap):
        anchor, top, flat = self.plateau(e)
        fits = self._fits(anchor, top, cap)
        best = self._best(anchor, top, flat, cap, fits)
        current = self._value(np.asarray(a, float), anchor, top, flat)
        return self._interval(anchor, top, cap, fits), np.maximum(best - current, 0.0)


class QuadraticUtility(UtilitySpec):
    """Strictly concave single-peaked utility u(a, e) = -(a - beta - delta*e)^2 / 2."""

    family = "quadratic"
    param_names = ("beta", "delta")

    def _target(self, e):
        return self.params["beta"].values + self.params["delta"].values * np.asarray(e, float)

    @staticmethod
    def _value(a, target):
        return -0.5 * (a - target) ** 2

    @staticmethod
    def _point(target, cap):
        # the peak clipped to [0, cap]; np.maximum returns its second argument on a
        # tie, so a target of -0.0 stays -0.0, as it does under np.clip
        return np.minimum(np.maximum(0.0, target), cap)

    def evaluate(self, a, e):
        return self._value(np.asarray(a, float), self._target(e))

    def response_regrets(self, a, e, cap):
        target = self._target(e)
        point = self._point(target, cap)
        best = self._value(point, target)
        current = self._value(np.asarray(a, float), target)
        return (point, point), np.maximum(best - current, 0.0)


UTILITY_FAMILIES = {
    PlateauUtility.family: PlateauUtility,
    QuadraticUtility.family: QuadraticUtility,
}


@dataclass(frozen=True, eq=False)
class GraphonGame:
    """Continuum game: kernel, per-agent utilities, and the common interval [0, cap]."""

    graphon: Graphon
    utilities: UtilitySpec
    cap: float
    grid: GridSpec

    def __post_init__(self):
        check_threshold(self.cap, "strategy cap", positive=True)
        if self.utilities.grid != self.grid:
            raise ValueError("utility profiles must live on the game grid")
        check_step_resolution(self.graphon, self.grid)

    @cached_property
    def operator(self) -> KernelOperator:
        """The kernel's local-aggregate operator on the game grid, built once per game."""
        return KernelOperator(self.graphon, self.grid)


@dataclass(frozen=True, eq=False)
class NetworkGame(GraphonGame):
    """Finite game on a weighted directed network with local-aggregate externalities.

    It is the n-step graphon game it embeds as: the adjacency matrix is its step
    kernel, each player is one of n cells, and its aggregate (1/n) * A @ s is the
    dense kind of the game's operator.  Build it as ``NetworkGame(adjacency,
    utilities, cap)``; the grid follows from the adjacency, and a kernel that
    already is a ``StepGraphon`` is kept as is, so ``dataclasses.replace``
    makes a game on the same frozen adjacency.
    """

    grid: GridSpec = field(init=False)

    def __post_init__(self):
        if not isinstance(self.graphon, StepGraphon):
            object.__setattr__(self, "graphon", StepGraphon(self.graphon))
        object.__setattr__(self, "grid", GridSpec(self.graphon.n))
        super().__post_init__()

    @property
    def adjacency(self) -> np.ndarray:
        return self.graphon.values

    @property
    def n_players(self) -> int:
        return self.grid.n_cells


def embed_network(game: NetworkGame) -> GraphonGame:
    """Step embedding of an n-player game as a graphon game on n cells: a network
    game already is that game, so it is returned as is."""
    return game


def embed_strategy(s) -> StepProfile:
    """The n-step profile taking value s[i] on cell i, for n = len(s)."""
    s = np.asarray(s, dtype=float)
    return StepProfile(GridSpec(s.size), s)


@dataclass(frozen=True, eq=False)
class RegretReport:
    """Per-agent regrets h >= 0 with the certified epsilon* of the profile.

    strategy and aggregate record the inputs the regrets were computed from
    (they are what the report CSV tabulates).
    """

    regrets: StepProfile
    epsilon_star: float
    strategy: StepProfile
    aggregate: StepProfile


def epsilon_star(regrets) -> float:
    """Smallest eps such that at least a (1 - eps) fraction of cells has regret <= eps.

    Equals min over k of max(k/N, r_(k+1)) where r_(1) >= ... >= r_(N) is the
    descending sort and r_(N+1) = 0: allow the k worst cells to violate, and eps
    must cover both that fraction and the next-largest regret.
    """
    r = np.asarray(regrets, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ValueError(f"regrets must be a nonempty vector, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("regrets must be finite")
    if r.min() < 0:
        raise ValueError(f"negative regret {r.min()} in input")
    n = r.size
    thresholds = np.concatenate([np.sort(r)[::-1], [0.0]])
    return float(np.min(np.maximum(np.arange(n + 1) / n, thresholds)))


def _regret_report(grid: GridSpec, values, agg, regrets) -> RegretReport:
    """The report of regrets computed for the strategies values under aggregate agg."""
    return RegretReport(
        regrets=StepProfile(grid, regrets),
        epsilon_star=epsilon_star(regrets),
        strategy=StepProfile(grid, values),
        aggregate=StepProfile(grid, np.asarray(agg, float)),
    )


def regret_profile(game: GraphonGame, profile) -> RegretReport:
    """Regret h(i) = max_a u_i(a, e_i) - u_i(f_i, e_i) per cell, plus epsilon*.

    Accepts a step profile, or a strategy vector with one value per cell (per
    player of a network game).  The inner maximum is the family's closed-form
    best value.
    """
    f = profile if isinstance(profile, StepProfile) else StepProfile(game.grid, profile)
    if f.grid != game.grid:
        raise ValueError(
            f"profile grid {f.grid.n_cells} does not match game grid {game.grid.n_cells}"
        )
    values = f.values
    agg = game.operator.apply(values)
    if values.min() < -1e-12 or values.max() > game.cap + 1e-12:
        raise ValueError(f"profile leaves the strategy interval [0, {game.cap}]")

    _, h = game.utilities.response_regrets(values, agg, game.cap)
    return _regret_report(game.grid, values, agg, h)

