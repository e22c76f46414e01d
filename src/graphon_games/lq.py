"""The plateau linear-quadratic game: its parameters, the resolvent equilibrium
constructor s_g, its certification, and the injection (multiplicity) check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ContractionError,
    Graphon,
    GridSpec,
    StepProfile,
    check_threshold,
    resolvent,
)
from .games import (
    GraphonGame,
    PlateauUtility,
    RegretReport,
    regret_profile,
)


class CertificationError(ArithmeticError):
    """An equilibrium, or an experiment's prerequisite one, failed certification."""


@dataclass(frozen=True)
class LQParams:
    """Network-effect strength lam >= 0 and strategy cap > 0 of the plateau game."""

    lam: float
    cap: float

    def __post_init__(self):
        check_threshold(self.lam, "lam")
        check_threshold(self.cap, "cap", positive=True)

    def min_admissible_cap(self, sup_norm: float) -> float:
        """Smallest cap for which both sufficiency bounds hold at this lam."""
        margin = 1.0 - self.lam * sup_norm
        if not (margin > 0):
            raise ContractionError(
                f"contraction violated: lam * ||W||_inf = {self.lam * sup_norm:.6g} is not < 1"
            )
        return max(1.0 / margin, self.lam / margin + 1.0)

    def validate_for_equilibrium(self, sup_norm: float) -> None:
        """Check lam*||W|| < 1 and both cap bounds, reporting the required minimum."""
        needed = self.min_admissible_cap(sup_norm)  # raises on contraction failure
        if needed > self.cap:
            raise ValueError(f"cap {self.cap} fails a sufficiency bound; need cap >= {needed:.6g}")


@dataclass(frozen=True, eq=False)
class SourceFunction:
    """Source profile g with values in [0, 1]; each one generates its own equilibrium."""

    profile: StepProfile

    def __post_init__(self):
        v = self.profile.values
        if v.min() < -1e-12 or v.max() > 1.0 + 1e-12:
            raise ValueError("source values must lie in [0, 1]")

    @classmethod
    def constant(cls, value: float, grid: GridSpec) -> "SourceFunction":
        return cls(StepProfile.constant(value, grid))

    @property
    def values(self) -> np.ndarray:
        return self.profile.values

    @property
    def grid(self) -> GridSpec:
        return self.profile.grid


def plateau_params(game: GraphonGame) -> LQParams:
    """The parameters of a plateau game whose lam is the same for every agent."""
    if not isinstance(game.utilities, PlateauUtility):
        raise ValueError(
            f"the plateau game needs a plateau_lq utility, got {game.utilities.family}")
    lam = game.utilities.lam
    if np.ptp(lam) != 0:
        raise ValueError("the plateau game needs a uniform lambda")
    return LQParams(float(lam[0]), game.cap)


def lq_game(W: Graphon, params: LQParams, grid: GridSpec) -> GraphonGame:
    """The graphon game with the plateau utility at these parameters."""
    return GraphonGame(W, PlateauUtility.from_values(grid, lam=params.lam), params.cap, grid)


def equilibrium_from_source(W: Graphon, params: LQParams, g: SourceFunction,
                            tol: float = 1e-8) -> StepProfile:
    """Equilibrium s_g = g + lam * (Gamma g) from a source g with values in [0, 1].

    Gamma is the truncated Neumann-series resolvent; s_g solves the second-kind
    Fredholm equation s = lam * (K s) + g.  The answer is certified by its
    residual r = s - lam * (K s) - g on the grid: since the grid operator K has
    sup-norm at most ||W||_inf, ||s - s*||_inf <= ||r||_inf / (1 - lam*||W||_inf)
    for the exact discrete solution s*, and that bound must be within 10 * tol.
    The returned profile also obeys the a priori bound 0 <= s_g <= 1/(1 - lam*||W||).

    Requires lam * ||W||_inf < 1, a cap passing both sufficiency bounds, and a
    step kernel's resolution to divide the grid of g (as a game on that grid does).
    """
    grid = g.grid
    game = lq_game(W, params, grid)  # a step kernel must divide the grid, so K s lands on it
    c = W.sup_norm()
    params.validate_for_equilibrium(c)
    margin = 1.0 - params.lam * c
    # s misses s* by lam * (Gamma tail) * ||g||_inf with ||g||_inf <= 1, so for
    # lam > 1 the kernel tail must be within tol / lam for the certificate to hold
    kernel = resolvent(W, params.lam, grid, tol / max(1.0, params.lam))
    series = g.values + params.lam * kernel.apply(g.values).values
    if not np.isfinite(series).all():
        raise CertificationError(
            "Neumann-series solution is not finite: it has no residual bound")

    # s = lam * (K s) + g puts s at g above the plateau's lower end lam * (K s)
    anchor, _, _ = game.utilities.plateau(game.operator.apply(series))
    residual = series - anchor - g.values
    bound = float(np.abs(residual).max()) / margin
    if not (bound <= 10.0 * tol):
        raise CertificationError(
            f"Neumann-series solution misses the Fredholm equation: error bound "
            f"{bound:.3g} from its residual (> 10*tol = {10 * tol:.3g})"
        )

    upper = 1.0 / margin
    if series.min() < -10.0 * tol or series.max() > upper + 10.0 * tol:
        raise CertificationError(
            f"solution leaves the a priori range [0, {upper:.6g}]: "
            f"min {series.min():.6g}, max {series.max():.6g}"
        )
    return StepProfile(grid, series)


@dataclass(frozen=True, eq=False)
class CertificationReport:
    """Outcome of the three plateau containments plus the regret certification.

    The boolean arrays flag, per cell: (i) s in [0, cap]; (ii) the plateau
    [lam*e, lam*e + 1] fits inside [0, cap]; (iii) s sits on the plateau.
    """

    report: RegretReport
    in_interval: np.ndarray
    plateau_fits: np.ndarray
    on_plateau: np.ndarray
    certified: bool
    tolerance: float

    def violating_cells(self) -> dict[str, np.ndarray]:
        return {
            "in_interval": np.flatnonzero(~self.in_interval),
            "plateau_fits": np.flatnonzero(~self.plateau_fits),
            "on_plateau": np.flatnonzero(~self.on_plateau),
        }


def verify_equilibrium(W: Graphon, params: LQParams, s: StepProfile,
                       tol: float = 1e-6) -> CertificationReport:
    """Certify a candidate equilibrium of the plateau game.

    Checks cellwise, with e the local aggregate of s: (i) s(i) in [0, cap];
    (ii) 0 <= lam*e(i) <= lam*e(i) + 1 <= cap; (iii) s(i) in [lam*e(i), lam*e(i)+1];
    and computes the regret report.  Certified iff all three hold up to tol and
    epsilon* <= tol.  A cell off its plateau, or a plateau that leaves [0, cap],
    is reported, not raised.  A value more than 1e-12 outside [0, cap] is a
    ValueError, raised by regret_profile, so (i) flags a cell only when
    tol < 1e-12.  A tolerance that is not finite and > 0 is a ValueError too.
    """
    check_threshold(tol, "tolerance", positive=True)
    game = lq_game(W, params, s.grid)
    rep = regret_profile(game, s)
    anchor, top, _ = game.utilities.plateau(rep.aggregate.values)
    in_interval = (s.values >= -tol) & (s.values <= params.cap + tol)
    plateau_fits = (anchor >= -tol) & (top <= params.cap + tol)
    on_plateau = (s.values >= anchor - tol) & (s.values <= top + tol)
    certified = bool(
        in_interval.all() and plateau_fits.all() and on_plateau.all()
        and rep.epsilon_star <= tol
    )
    return CertificationReport(rep, in_interval, plateau_fits, on_plateau, certified, tol)


def injection_check(W: Graphon, params: LQParams, g1: SourceFunction, g2: SourceFunction,
                    tol: float = 1e-8, slack: float = 1e-6) -> tuple[bool, float]:
    """Distinct sources generate separated equilibria; returns (passed, L1 distance).

    Since g = (I - lam*K) s_g and the operator I - lam*K has L1 norm at most
    1 + lam*||W||, the equilibria satisfy
    ||s_g1 - s_g2||_1 >= ||g1 - g2||_1 / (1 + lam*||W||); passed is that bound
    up to numerical slack.
    """
    check_threshold(slack, "slack")
    if g1.grid != g2.grid:
        raise ValueError("sources must share a grid")
    s1 = equilibrium_from_source(W, params, g1, tol)
    s2 = equilibrium_from_source(W, params, g2, tol)
    distance = float(np.abs(s1.values - s2.values).mean())
    source_distance = float(np.abs(g1.values - g2.values).mean())
    bound = source_distance / (1.0 + params.lam * W.sup_norm())
    return distance >= bound - slack, distance
