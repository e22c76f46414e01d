"""Damped best-response iteration on a two-community block-model game.

Agents in a dense home community and a sparse away community face different
aggregates, so the equilibrium profile is piecewise constant.  The plateau
best response is interval-valued; the nearest-point selection projects the
current strategy onto the response set, which stabilizes the iteration.
"""

import numpy as np

from graphon_games import (
    GraphonGame,
    GridSpec,
    PlateauUtility,
    SolverConfig,
    StepGraphon,
    StepProfile,
    profile_distance,
    regret_profile,
    solve,
)

N = 128
grid = GridSpec(N)
blocks = StepGraphon([[0.9, 0.1], [0.1, 0.4]])
game = GraphonGame(blocks, PlateauUtility.from_values(grid, lam=0.8), 6.0, grid)

print("== solving from the top of the strategy interval ==")
f0 = StepProfile.constant(6.0, grid)
profile, trace = solve(game, f0, SolverConfig(damping=0.5))
print(f"converged: {trace.converged} after {trace.iterations} iterations")
print(f"final epsilon* = {trace.final_report.epsilon_star:.2e}")
print(f"community strategies: {profile.values[0]:.4f} (dense) "
      f"and {profile.values[-1]:.4f} (sparse)")

print()
print("== sup-norm step sizes ==")
for i in (0, 1, 2, len(trace.step_sizes) - 1):
    print(f"iteration {i + 1:3d}: sup-norm step {trace.step_sizes[i]:.3e}")

print()
print("== selection rules pick different equilibria ==")
for rule in ("nearest-point", "interval-midpoint", "lower-endpoint"):
    prof_rule, trace_rule = solve(game, f0, SolverConfig(selection_rule=rule))
    report = regret_profile(game, prof_rule)
    print(f"{rule:17s} converged={trace_rule.converged}  "
          f"profile head {prof_rule.values[0]:.4f}  epsilon* {report.epsilon_star:.1e}")

print()
print("== different starts, different equilibria (the plateau is wide) ==")
low, _ = solve(game, StepProfile.constant(0.0, grid))
gap = profile_distance(profile, low, "l1")
print(f"L1 distance between the top-start and bottom-start equilibria: {gap:.4f}")
