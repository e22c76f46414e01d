"""Command-line entry points.

Subcommands: ``lq solve`` / ``lq verify`` for the plateau game, ``solve`` for
the generic best-response solver, and ``lab run`` for the convergence
experiments.  Exit codes: 0 on success, 1 if not certified or a plan threshold
fails, 2 on an input error, 3 if ``solve`` does not converge.  ``main`` reports
an input error, and an equilibrium that fails certification, as one stderr
line.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import io, lab
from .core import GridSpec
from .lq import LQParams, SourceFunction, equilibrium_from_source, plateau_params, verify_equilibrium
from .solver import solve


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphon-games",
        description="Nash equilibria of graphon games and their network-game limits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lq = sub.add_parser("lq", help="plateau linear-quadratic game")
    lq_sub = lq.add_subparsers(dest="lq_command", required=True)

    lq_solve = lq_sub.add_parser("solve", help="construct the equilibrium generated by a source")
    lq_solve.add_argument("--graphon", required=True, help="graphon descriptor JSON")
    lq_solve.add_argument("--lambda", dest="lam", type=float, required=True)
    lq_solve.add_argument("--L", dest="cap", type=float, required=True)
    lq_solve.add_argument("--g", default="const:1.0", help="source: const:v or profile CSV")
    lq_solve.add_argument("--n", type=int, default=None, help="grid size (required for const sources)")
    lq_solve.add_argument("--tol", type=float, default=1e-8)
    lq_solve.add_argument("--out", required=True, help="output profile CSV")

    lq_verify = lq_sub.add_parser("verify", help="certify a candidate equilibrium profile")
    lq_verify.add_argument("--game", required=True, help="game descriptor JSON (plateau_lq utility)")
    lq_verify.add_argument("--profile", required=True, help="profile CSV")
    lq_verify.add_argument("--tol", type=float, default=1e-6)
    lq_verify.add_argument("--out", default=None, help="optional regret report CSV")

    solve_cmd = sub.add_parser("solve", help="damped best-response iteration on a game")
    solve_cmd.add_argument("--game", required=True, help="game descriptor JSON")
    solve_cmd.add_argument("--init", default="const:0.0", help="initial profile: const:v or CSV")
    solve_cmd.add_argument("--config", default=None, help="solver config JSON")
    solve_cmd.add_argument("--out", required=True, help="output profile CSV")
    solve_cmd.add_argument("--trace", default=None, help="optional per-iteration step CSV")

    lab_cmd = sub.add_parser("lab", help="convergence experiments")
    lab_sub = lab_cmd.add_subparsers(dest="lab_command", required=True)
    lab_run = lab_sub.add_parser("run", help="run the experiment named in a plan file")
    lab_run.add_argument("--plan", required=True, help="experiment plan JSON")
    lab_run.add_argument("--out", required=True, help="output directory")

    return parser


def _cmd_lq_solve(args) -> int:
    graphon = io.graphon_from_descriptor(io.load_json(args.graphon))
    grid = GridSpec(args.n) if args.n is not None else None
    g = SourceFunction(io.parse_profile_source(args.g, grid))
    params = LQParams(args.lam, args.cap)
    profile = equilibrium_from_source(graphon, params, g, args.tol)
    io.save_profile_csv(args.out, profile)
    cert = verify_equilibrium(graphon, params, profile)
    print(
        f"wrote {args.out}: n={profile.grid.n_cells} lambda={args.lam} L={args.cap} "
        f"epsilon_star={cert.report.epsilon_star:.3g} certified={cert.certified}"
    )
    return 0


def _cmd_lq_verify(args) -> int:
    game = io.game_from_descriptor(io.load_json(args.game))
    params = plateau_params(game)
    profile = io.parse_profile_source(args.profile, game.grid, game.cap)
    cert = verify_equilibrium(game.graphon, params, profile, tol=args.tol)
    violations = cert.violating_cells()
    print(f"epsilon_star = {cert.report.epsilon_star:.6g}")
    print(f"max regret   = {cert.report.regrets.values.max():.6g}")
    for name in ("in_interval", "plateau_fits", "on_plateau"):
        bad = violations[name]
        status = "ok" if bad.size == 0 else f"{bad.size} violating cells: {bad[:10].tolist()}"
        print(f"{name:13s} {status}")
    print(f"certified    = {cert.certified} (tolerance {cert.tolerance:g})")
    if args.out:
        io.write_regret_csv(args.out, cert.report)
        print(f"wrote {args.out}")
    return 0 if cert.certified else 1


def _cmd_solve(args) -> int:
    game = io.game_from_descriptor(io.load_json(args.game))
    f0 = io.parse_profile_source(args.init, game.grid, game.cap)
    config = io.solver_config_from_descriptor(io.load_json(args.config) if args.config else {})
    profile, trace = solve(game, f0, config)
    io.save_profile_csv(args.out, profile)
    if args.trace:
        io.write_table_csv(
            args.trace, ("iteration", "step_size"),
            [(i + 1, s) for i, s in enumerate(trace.step_sizes)],
        )
    print(
        f"converged={trace.converged} iterations={trace.iterations} "
        f"epsilon_star={trace.final_report.epsilon_star:.6g}; wrote {args.out}"
    )
    return 0 if trace.converged else 3


def _cmd_lab_run(args) -> int:
    descriptor = io.load_json(args.plan)
    plan, experiment = lab.plan_from_descriptor(descriptor, os.path.dirname(args.plan) or ".")
    plan = dataclasses.replace(plan, out_dir=args.out)
    result = lab.run_plan(plan, experiment)
    os.makedirs(args.out, exist_ok=True)
    summary = result.summary()
    io.save_json(os.path.join(args.out, "summary.json"), summary)
    print(f"experiment {summary['experiment']}: passed={summary['passed']}")
    print(f"wrote {args.out}/summary.json")
    return 0 if summary["passed"] else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "lq":
        handler = _cmd_lq_solve if args.lq_command == "solve" else _cmd_lq_verify
    elif args.command == "solve":
        handler = _cmd_solve
    else:
        handler = _cmd_lab_run
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"graphon-games: {exc}", file=sys.stderr)
        return 2
    except lab.CertificationError as exc:
        print(f"graphon-games: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
