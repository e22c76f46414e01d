"""Damped best-response iteration for discretized games with quasi-concave
scalar utilities, plus profile distances used as convergence diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import StepProfile, check_count, check_threshold, common_grid
from .games import GraphonGame, RegretReport, _regret_report, regret_profile

SELECTION_RULES = ("nearest-point", "interval-midpoint", "lower-endpoint")


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 10000
    damping: float = 0.5
    step_tolerance: float = 1e-9
    regret_target: float = 1e-7
    selection_rule: str = "nearest-point"

    def __post_init__(self):
        for name in ("damping", "step_tolerance", "regret_target"):
            check_threshold(getattr(self, name), name, positive=True)
        if not self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        check_count(self.max_iters, "max_iters")
        if self.selection_rule not in SELECTION_RULES:
            raise ValueError(
                f"unknown selection rule {self.selection_rule!r}; choose from {SELECTION_RULES}"
            )


@dataclass(eq=False)
class SolveTrace:
    """Iteration diagnostics: converged implies the final epsilon* met the regret
    target or the last sup-norm step was at most step_tolerance."""

    iterations: int
    step_sizes: np.ndarray
    final_report: RegretReport
    converged: bool


def _meets_target(regrets: np.ndarray, target: float) -> bool:
    """Whether epsilon_star(regrets) <= target, by one O(N) count and no sort.

    Exact for regrets >= 0 and target >= 0.  Let c be the number of cells with
    regret > target.  epsilon* = min_k max(k/N, r_(k+1)) over the descending
    sort, so epsilon* <= target iff some k has fl(k/N) <= target and
    r_(k+1) <= target.  The second holds iff k >= c, and fl(k/N) is
    nondecreasing in k, so the test is fl(c/N) <= target: the same IEEE
    division as epsilon_star's np.arange(N + 1) / N.  A non-finite regret
    raises epsilon_star's ValueError (the max propagates NaN).
    """
    if not math.isfinite(regrets.max()):
        raise ValueError("regrets must be finite")
    return np.count_nonzero(regrets > target) / regrets.size <= target


def _select(lo: np.ndarray, hi: np.ndarray, current: np.ndarray, rule: str) -> np.ndarray:
    if rule == "nearest-point":
        # np.clip(current, lo, hi), as lo <= hi, without np.clip's call overhead
        return np.minimum(np.maximum(current, lo), hi)
    if rule == "interval-midpoint":
        return 0.5 * (lo + hi)
    if rule == "lower-endpoint":
        return np.array(lo, dtype=float)
    raise ValueError(f"unknown selection rule {rule!r}")


def best_response_map(game: GraphonGame, f: StepProfile,
                      rule: str = "nearest-point") -> StepProfile:
    """One synchronous best response: per cell, compute the best-response set and
    select a point by the rule (nearest-point projects the current strategy
    onto the set, so fixed points are exactly the equilibria)."""
    agg = game.operator.apply(f.values)
    (lo, hi), _ = game.utilities.response_regrets(f.values, agg, game.cap)
    return StepProfile(f.grid, _select(lo, hi, f.values, rule))


def solve(game: GraphonGame, f0: StepProfile,
          config: SolverConfig = SolverConfig()) -> tuple[StepProfile, SolveTrace]:
    """Damped best-response iteration f <- (1 - d) f + d * B(f).

    Stops when the certified epsilon* meets the regret target, the sup-norm step
    falls below step_tolerance, or max_iters runs out.  The regret target is
    tested by an exact O(N) count; epsilon* is sorted once, for the report.
    No general convergence guarantee exists; non-convergence is reported
    through converged=False, not raised.  The kernel is discretized once, as
    the game's operator; a stop on the regret target reports the regrets its
    last iteration computed.
    """
    if f0.grid != game.grid:
        raise ValueError("initial profile must live on the game grid")
    if f0.values.min() < -1e-12 or f0.values.max() > game.cap + 1e-12:
        raise ValueError(f"initial profile leaves [0, {game.cap}]")

    f = f0.values.copy()
    steps = []
    converged = False
    final_report = None
    iterations = 0
    for _ in range(config.max_iters):
        iterations += 1
        agg = game.operator.apply(f)
        (lo, hi), regrets = game.utilities.response_regrets(f, agg, game.cap)
        if _meets_target(regrets, config.regret_target):
            converged = True
            final_report = _regret_report(game.grid, f, agg, regrets)
            break
        update = _select(lo, hi, f, config.selection_rule)
        f_next = (1.0 - config.damping) * f + config.damping * update
        step = float(np.abs(f_next - f).max())
        steps.append(step)
        f = f_next
        if step <= config.step_tolerance:
            converged = True
            break

    profile = StepProfile(game.grid, f)
    if final_report is None:
        final_report = regret_profile(game, profile)
    return profile, SolveTrace(iterations, np.asarray(steps), final_report, converged)


def profile_distance(f1: StepProfile, f2: StepProfile, mode: str = "l1",
                     delta: float = 1e-2) -> float:
    """Distance between step profiles, computed on their common refinement.

    Modes: "l1" is ∫|f1 - f2|; "exceed-fraction" the measure of cells differing
    by more than delta (the a.e.-convergence surrogate).
    """
    v1, v2, _ = common_grid(f1, f2)
    gap = np.abs(v1 - v2)
    if mode == "l1":
        return float(gap.mean())
    if mode == "exceed-fraction":
        check_threshold(delta, "delta")
        return float(np.mean(gap > delta))
    raise ValueError(f"unknown distance mode {mode!r}")
