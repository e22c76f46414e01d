"""Convergence experiments: build network-game sequences that converge to a
graphon game, push equilibria across the embedding in both directions, and
emit convergence tables.

Two experiment directions are implemented.  The coarsened-equilibrium run takes
a certified equilibrium of the target graphon game, interval-averages it onto
each finite game of the sequence, and certifies the epsilon_n of the coarsened
profile there: the epsilon_n should shrink along the sequence.  The
limit-equilibrium run goes the other way: it solves each finite game
independently, checks the solutions settle toward a limit profile, and
certifies that limit in the target graphon game.  The characterization suite
composes both directions on two differently built sequences.
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import io
from .core import (
    GridCompatibilityError,
    GridSpec,
    StepProfile,
    check_threshold,
    graphon_l1_distance,
    step_approximation,
)
from .games import (
    GraphonGame,
    NetworkGame,
    RegretReport,
    UtilitySpec,
    embed_strategy,
    regret_profile,
)
from .lq import CertificationError, SourceFunction, equilibrium_from_source, plateau_params
from .solver import SolverConfig, profile_distance, solve


@dataclass(frozen=True)
class ExperimentPlan:
    """Target game, the sequence sizes, where its equilibrium comes from, and the
    tolerances every threshold is checked against (never hard-coded downstream).

    ``source`` is the resolvent source g: a number for a constant, or a profile,
    averaged onto the grid of the game that uses it.  ``solver_init`` is the
    solver's start: a number, a profile on the game grid, or None for the cap.
    """

    game: GraphonGame
    n_list: tuple[int, ...] = (8, 16, 32, 64, 128, 256)
    equilibrium_source: str = "resolvent"  # or "solver"
    source: float | StepProfile = 1.0
    resolvent_tol: float = 1e-8
    certification_tol: float = 1e-6
    eps_tolerance: float = 0.05
    limit_l1_tolerance: float = 1e-2
    limit_eps_tolerance: float = 0.02
    exceed_delta: float = 1e-2
    solver: SolverConfig = field(default_factory=SolverConfig)
    solver_init: float | StepProfile | None = None
    alt_n_list: tuple[int, ...] = (12, 24, 48, 96, 192)
    alt_grid: int = 768
    cross_l1_tolerance: float = 2e-2
    out_dir: str | None = None

    def __post_init__(self):
        _check_sizes(self.n_list, self.game.grid.n_cells)
        if self.equilibrium_source not in ("resolvent", "solver"):
            raise ValueError(f"unknown equilibrium source {self.equilibrium_source!r}")
        check_threshold(self.resolvent_tol, "resolvent_tol", positive=True)
        for name in ("certification_tol", "eps_tolerance", "limit_l1_tolerance",
                     "limit_eps_tolerance", "exceed_delta", "cross_l1_tolerance"):
            check_threshold(getattr(self, name), name)
        if not isinstance(self.source, StepProfile):
            check_threshold(self.source, "source_g")
        init, n = self.solver_init, self.game.grid.n_cells
        if isinstance(init, StepProfile) and init.grid.n_cells != n:
            raise ValueError(f"solver_init has {init.grid.n_cells} cells, expected {n}")
        if init is not None and not isinstance(init, StepProfile):
            check_threshold(init, "solver_init")

    @cached_property
    def reference(self) -> tuple[StepProfile, RegretReport]:
        """The target game's equilibrium per the plan's source, certified.

        Computed once per plan: the plan is frozen, and ``replace`` makes a new
        plan that computes its own.
        """
        return _certified_reference(self)

    @cached_property
    def sequence(self) -> list[tuple[NetworkGame, tuple[float, float]]]:
        """Each network game of the sequence with its (kernel, utility) L1 errors
        to the target game; built once per plan, like ``reference``."""
        return [
            (net, (graphon_l1_distance(self.game.graphon, net.graphon,
                                       resolution=self.game.grid.n_cells),
                   _utility_l1_error(self.game.utilities, net.utilities)))
            for net in build_network_sequence(self.game, self.n_list)
        ]


def _on_grid(value: float | StepProfile | None, grid: GridSpec,
             cap: float | None = None) -> StepProfile:
    """A plan input on ``grid``: a profile as its averages there, a number (None:
    the cap) as a constant.  A constant is never averaged, so it stays exact."""
    if isinstance(value, StepProfile):
        return value.average_to(grid.n_cells)
    return StepProfile.constant(cap if value is None else value, grid)


def _averaged(value, n_cells: int):
    """A profile input averaged onto n_cells cells; a number or None as is."""
    return value.average_to(n_cells) if isinstance(value, StepProfile) else value


def _certified_reference(plan: ExperimentPlan) -> tuple[StepProfile, RegretReport]:
    game = plan.game
    if plan.equilibrium_source == "resolvent":
        g = SourceFunction(_on_grid(plan.source, game.grid))
        profile = equilibrium_from_source(game.graphon, plateau_params(game), g,
                                          plan.resolvent_tol)
    else:
        start = _on_grid(plan.solver_init, game.grid, game.cap)
        profile, trace = solve(game, start, plan.solver)
        if not trace.converged:
            raise CertificationError("solver source did not converge on the target game")
    report = regret_profile(game, profile)
    if not (report.epsilon_star <= plan.certification_tol):
        raise CertificationError(
            f"target equilibrium failed certification: epsilon* = "
            f"{report.epsilon_star:.3g} > {plan.certification_tol:.3g}"
        )
    return profile, report


def _check_sizes(n_list, n_ref: int) -> None:
    if not n_list:
        raise ValueError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly increasing, got {n_list}")
    bad = [n for n in n_list if n < 1 or n_ref % n]
    if bad:
        raise GridCompatibilityError(
            f"sizes {bad} do not divide the reference grid {n_ref}, so averaging "
            "would not be exact"
        )


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    w_l1_error: float
    u_l1_error: float
    profile_l1: float
    profile_exceed_fraction: float
    epsilon_n: float


def build_network_sequence(game: GraphonGame, n_list) -> list[NetworkGame]:
    """One n-player game per size: adjacency = rectangle averages of the kernel,
    per-player parameters = interval averages of the parameter profiles, and the
    strategy interval carries over."""
    games = []
    for n in n_list:
        adjacency = step_approximation(game.graphon, n).values
        utilities = game.utilities.regrid(n)
        games.append(NetworkGame(adjacency, utilities, game.cap))
    return games


def approximate_profile(f: StepProfile, n: int) -> np.ndarray:
    """Strategy vector of interval averages of f over the n-cell partition.

    Averaging is convex, so values stay inside the strategy interval.
    """
    n_ref = f.grid.n_cells
    if n < 1 or n_ref % n:
        raise GridCompatibilityError(f"{n} does not divide the reference grid {n_ref}")
    return f.average_to(n).values


def regrid_game(game: GraphonGame, n_cells: int) -> GraphonGame:
    """The same game expressed on another uniform grid (exact for its step data)."""
    return GraphonGame(game.graphon, game.utilities.regrid(n_cells), game.cap,
                       GridSpec(n_cells))


def _utility_l1_error(target: UtilitySpec, coarse: UtilitySpec) -> float:
    return sum(
        profile_distance(target.params[name], coarse.params[name], "l1")
        for name in target.param_names
    )


def _row(plan: ExperimentPlan, net: NetworkGame, errors: tuple[float, float],
         profile_n: StepProfile, reference: StepProfile, eps_n: float) -> ConvergenceRow:
    w_l1, u_l1 = errors
    return ConvergenceRow(
        n=net.n_players,
        w_l1_error=w_l1,
        u_l1_error=u_l1,
        profile_l1=profile_distance(profile_n, reference, "l1"),
        profile_exceed_fraction=profile_distance(
            profile_n, reference, "exceed-fraction", plan.exceed_delta
        ),
        epsilon_n=eps_n,
    )


@dataclass(frozen=True, eq=False)
class CoarsenedResult:
    rows: list[ConvergenceRow]
    reference: StepProfile
    reference_epsilon: float
    epsilon_at_max_n: float
    eps_tolerance: float
    trend_ok: bool
    passed: bool

    def summary(self) -> dict:
        return {
            "experiment": "coarsened_equilibrium",
            "reference_epsilon": self.reference_epsilon,
            "epsilon_at_max_n": self.epsilon_at_max_n,
            "eps_tolerance": self.eps_tolerance,
            "trend_ok": self.trend_ok,
            "passed": self.passed,
        }


def run_coarsened_equilibrium_experiment(plan: ExperimentPlan) -> CoarsenedResult:
    """Interval-average the certified equilibrium onto each finite game and
    certify its epsilon_n there; passes when epsilon_n at the largest size is
    below the plan tolerance (the trend across sizes is also recorded)."""
    result = _coarsened(plan, plan.reference)
    _write(plan.out_dir, {"coarsened_equilibrium.csv": result.rows},
           {"reference_profile.csv": result.reference})
    return result


def _coarsened(plan: ExperimentPlan,
               certified: tuple[StepProfile, RegretReport]) -> CoarsenedResult:
    reference, ref_report = certified
    rows = []
    for net, errors in plan.sequence:
        s_n = approximate_profile(reference, net.n_players)
        eps_n = regret_profile(net, s_n).epsilon_star
        rows.append(_row(plan, net, errors, embed_strategy(s_n), reference, eps_n))
    eps_last = rows[-1].epsilon_n
    return CoarsenedResult(
        rows=rows,
        reference=reference,
        reference_epsilon=ref_report.epsilon_star,
        epsilon_at_max_n=eps_last,
        eps_tolerance=plan.eps_tolerance,
        trend_ok=rows[0].epsilon_n >= eps_last,
        passed=eps_last <= plan.eps_tolerance,
    )


@dataclass(frozen=True, eq=False)
class LimitResult:
    rows: list[ConvergenceRow]
    skipped: list[int]
    limit_profile: StepProfile
    converging: bool
    l1_to_reference: float
    l1_tolerance: float
    epsilon_star_in_target: float
    eps_tolerance: float
    passed: bool

    def summary(self) -> dict:
        return {
            "experiment": "limit_equilibrium",
            "skipped": self.skipped,
            "converging": self.converging,
            "l1_to_reference": self.l1_to_reference,
            "l1_within_tolerance": self.l1_to_reference <= self.l1_tolerance,
            "epsilon_star_in_target": self.epsilon_star_in_target,
            "eps_tolerance": self.eps_tolerance,
            "passed": self.passed,
        }


def run_limit_equilibrium_experiment(plan: ExperimentPlan) -> LimitResult:
    """Solve each finite game of the sequence independently, check the solved
    profiles settle toward the largest game's profile (refined to the reference
    grid), and certify that limit in the target graphon game."""
    result = _limit(plan, plan.reference[0])
    _write(plan.out_dir, {"limit_equilibrium.csv": result.rows},
           {"limit_profile.csv": result.limit_profile})
    return result


def _limit(plan: ExperimentPlan, reference: StepProfile) -> LimitResult:
    # a profile start lies on the target grid and is averaged onto each network
    solved = []
    skipped = []
    for net, errors in plan.sequence:
        profile, trace = solve(net, _on_grid(plan.solver_init, net.grid, net.cap), plan.solver)
        if not trace.converged:
            skipped.append(net.n_players)
            continue
        solved.append((net, errors, profile, trace))
    if not solved:
        raise CertificationError("no game in the sequence produced a converged solve")

    limit = solved[-1][2].average_to(plan.game.grid.n_cells)  # a repeat: sizes divide the grid
    rows, d_l1, d_exceed = [], [], []
    for net, errors, profile, trace in solved:
        rows.append(_row(plan, net, errors, profile, reference, trace.final_report.epsilon_star))
        d_l1.append(profile_distance(profile, limit, "l1"))
        d_exceed.append(profile_distance(profile, limit, "exceed-fraction", plan.exceed_delta))
    converging = _nonincreasing(d_l1) and _nonincreasing(d_exceed)
    target_report = regret_profile(plan.game, limit)
    l1_ref = profile_distance(limit, reference, "l1")
    return LimitResult(
        rows=rows,
        skipped=skipped,
        limit_profile=limit,
        converging=converging,
        l1_to_reference=l1_ref,
        l1_tolerance=plan.limit_l1_tolerance,
        epsilon_star_in_target=target_report.epsilon_star,
        eps_tolerance=plan.limit_eps_tolerance,
        passed=converging and target_report.epsilon_star <= plan.limit_eps_tolerance,
    )


def _nonincreasing(seq, slack: float = 1e-12) -> bool:
    return all(b <= a + slack for a, b in zip(seq, seq[1:]))


@dataclass(frozen=True, eq=False)
class CharacterizationReport:
    primary_coarsened: CoarsenedResult
    alt_coarsened: CoarsenedResult
    primary_limit: LimitResult
    alt_limit: LimitResult
    cross_l1: float
    cross_l1_tolerance: float
    passed: bool

    def summary(self) -> dict:
        return {
            "experiment": "characterization",
            "primary_coarsened": self.primary_coarsened.summary(),
            "alt_coarsened": self.alt_coarsened.summary(),
            "primary_limit": self.primary_limit.summary(),
            "alt_limit": self.alt_limit.summary(),
            "cross_l1": self.cross_l1,
            "cross_l1_within_tolerance": self.cross_l1 <= self.cross_l1_tolerance,
            "passed": self.passed,
        }


def run_characterization_suite(plan: ExperimentPlan) -> CharacterizationReport:
    """Both experiment directions on two differently built converging sequences.

    The primary sequence uses the plan as given; the alternate sequence uses the
    plan's alt sizes on a re-gridded copy of the game (so incommensurate sizes,
    e.g. multiples of 3, still average exactly).  Coarsened equilibria must pass
    on both sequences, each sequence's independently solved limit must certify
    in the target game, and the two limits must agree in L1.  When the alt grid
    is the game grid, re-gridding is the identity, so the alternate sequence
    shares the target game and its certified reference (one reference solve).
    Profile inputs (``source``, ``solver_init``) lie on the target grid; the
    alternate plan holds their averages on the alternate grid.
    """
    _check_sizes(plan.alt_n_list, plan.alt_grid)
    reference = plan.reference
    if plan.alt_grid == plan.game.grid.n_cells:
        alt_plan = replace(plan, n_list=plan.alt_n_list)
        alt_reference = reference
    else:
        alt_plan = replace(
            plan,
            game=regrid_game(plan.game, plan.alt_grid),
            n_list=plan.alt_n_list,
            source=_averaged(plan.source, plan.alt_grid),
            solver_init=_averaged(plan.solver_init, plan.alt_grid),
        )
        alt_reference = alt_plan.reference
    primary_coarsened = _coarsened(plan, reference)
    alt_coarsened = _coarsened(alt_plan, alt_reference)
    primary_limit = _limit(plan, reference[0])
    alt_limit = _limit(alt_plan, alt_reference[0])
    cross_l1 = profile_distance(primary_limit.limit_profile, alt_limit.limit_profile, "l1")
    passed = (
        primary_coarsened.passed and alt_coarsened.passed
        and primary_limit.passed and alt_limit.passed
        and cross_l1 <= plan.cross_l1_tolerance
    )
    report = CharacterizationReport(
        primary_coarsened, alt_coarsened, primary_limit, alt_limit,
        cross_l1, plan.cross_l1_tolerance, passed,
    )
    _write(plan.out_dir,
           {"primary_coarsened.csv": primary_coarsened.rows,
            "alt_coarsened.csv": alt_coarsened.rows,
            "primary_limit.csv": primary_limit.rows,
            "alt_limit.csv": alt_limit.rows},
           {"primary_limit_profile.csv": primary_limit.limit_profile,
            "alt_limit_profile.csv": alt_limit.limit_profile})
    return report


def _write(out_dir: str | None, tables: dict[str, list[ConvergenceRow]],
           profiles: dict[str, StepProfile]) -> None:
    """Each table as a CSV of convergence rows and each profile as a profile CSV,
    by file name under ``out_dir``; nothing without an ``out_dir``."""
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    header = [f.name for f in fields(ConvergenceRow)]
    for name, rows in tables.items():
        io.write_table_csv(os.path.join(out_dir, name), header, [astuple(row) for row in rows])
    for name, profile in profiles.items():
        io.save_profile_csv(os.path.join(out_dir, name), profile)


def plan_from_descriptor(d: dict, base_dir: str = ".") -> tuple[ExperimentPlan, str]:
    """Parse a plan file into (plan, experiment name).

    The experiment name is one of "coarsened", "limit", or "characterization"
    (default).  Every other key but "source_g" names an ``ExperimentPlan`` field;
    a plan whose equilibrium_source is "solver" refuses the resolvent's keys,
    "source_g" and "resolvent_tol", which it would ignore.
    Thresholds absent from the file fall back to the plan defaults and are echoed
    back in summaries.  Profile paths (``source_g``, a CSV ``solver_init``) are
    relative to base_dir.
    """
    names = {f.name for f in fields(ExperimentPlan)}
    names -= {"source", "out_dir"}  # set by "source_g" and the caller
    io.check_keys(d, names | {"experiment", "source_g"}, "plan file", required=("game",))
    unused = sorted({"source_g", "resolvent_tol"} & d.keys())
    if unused and d.get("equilibrium_source") == "solver":
        raise ValueError(f"plan file has keys {unused} that a solver-sourced plan does not use")
    kwargs = {key: d[key] for key in names & d.keys()}
    kwargs["game"] = io.game_from_descriptor(d["game"])
    for key in ("n_list", "alt_n_list"):
        if key in d:
            if not isinstance(d[key], list):
                raise ValueError(f"{key} must be a list of sizes, got {d[key]!r}")
            kwargs[key] = tuple(io.integral_size(n, key) for n in d[key])
    if "alt_grid" in d:
        kwargs["alt_grid"] = io.integral_size(d["alt_grid"], "alt_grid")
    if "solver" in d:
        kwargs["solver"] = io.solver_config_from_descriptor(d["solver"])

    def profile_arg(text: str, cap: float | None = None) -> float | StepProfile:
        if not text.startswith("const:"):
            text = os.path.join(base_dir, text)
        return io.parse_profile_arg(text, cap)

    if "solver_init" in d:
        init = d["solver_init"]
        if not isinstance(init, str):
            raise ValueError(f"solver_init must be const:v or a CSV path, got {init!r}")
        kwargs["solver_init"] = profile_arg(init, kwargs["game"].cap)
    source = d.get("source_g")
    if isinstance(source, str):
        kwargs["source"] = profile_arg(source)
    elif source is not None:
        kwargs["source"] = source  # checked as a number by the plan
    plan = ExperimentPlan(**kwargs)
    return plan, d.get("experiment", "characterization")


def run_plan(plan: ExperimentPlan, experiment: str):
    """Dispatch an experiment by name; returns the experiment's result object."""
    if experiment in ("coarsened", "coarsened_equilibrium"):
        return run_coarsened_equilibrium_experiment(plan)
    if experiment in ("limit", "limit_equilibrium"):
        return run_limit_equilibrium_experiment(plan)
    if experiment == "characterization":
        return run_characterization_suite(plan)
    raise ValueError(f"unknown experiment {experiment!r}")
