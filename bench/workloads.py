"""The benchmark's workloads: set-up and one pass of requests for each.

A set-up builds a workload's kernels, games and plan from the seed and writes
the input files its command-line request reads.  A pass is a closed loop: the
requests run one after another in this process, each waiting for the previous
one, and every request checks its own answer.  In a traced pass the
package's functions are wrapped from outside (``Recorder.instrument``), so no
call made here needs a span of its own; ``count_work`` reads the per-pass work
counters off the traced calls.
"""

from __future__ import annotations

import contextlib
import inspect
import io as _stdio
import json
import os
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from harness import require

LAM = 0.5                # network-effect strength of the reference game
CAP = 4.0                # strategy cap L of the reference game
ALPHA = 0.5              # SeparablePowerGraphon exponent of the reference game
CERT_TOL = 1e-6          # verify_equilibrium tolerance, and the epsilon* gate
CLOSED_FORM_TOL = 5e-3   # acceptance criterion 1: s = 1 + (4/9) sqrt(t)
RESOLVENT_TOL = 1e-8     # Neumann truncation tolerance (the library default)
COARSE_EPS_TOL = 0.05    # ExperimentPlan's default eps_tolerance
EDGE_PROBABILITY = 0.3   # Erdos-Renyi density of the network-step adjacencies


def rank1_factors(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point midpoint cell averages of t**ALPHA and of s**(1 - ALPHA) on the n-grid.

    The reference kernel t**a * s**(1-a) is rank 1, so its step approximation
    is exactly the outer product of these two vectors; the checks below use
    that as an implementation-independent answer.
    """
    pts = (np.arange(n * m) + 0.5) / (n * m)
    return ((pts ** ALPHA).reshape(n, m).mean(axis=1),
            (pts ** (1.0 - ALPHA)).reshape(n, m).mean(axis=1))


def closed_form(n: int) -> np.ndarray:
    """Equilibrium from g = 1 on the reference game, at the cell midpoints."""
    return 1.0 + (4.0 / 9.0) * np.sqrt((np.arange(n) + 0.5) / n)


def count_work(rec, name, fn, args, kwargs, result) -> None:
    """Per-pass work counters, read off the arguments and results of traced calls."""
    if name == "core.step_approximation":
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        # an analytic kernel is sampled m x m times per cell; a step kernel once
        step_kernel = isinstance(bound.arguments["W"], fn.__globals__["StepGraphon"])
        m = 1 if step_kernel else bound.arguments["m"]
        rec.count("core.step_approximation.bytes_computed", result.values.nbytes * m * m)
    elif name == "core.resolvent":
        order, n = result.truncation_order, result.grid.n_cells
        rec.count("core.resolvent.order", order, combine=max)
        rec.count("core.resolvent.flops_computed", 2 * (order - 1) * n ** 3)
    elif name == "solver.solve":
        rec.count("solver.solve.iterations", result[1].iterations)


def run_cli(pkg, argv: list[str]) -> tuple[int, str]:
    """``graphon-games <argv>`` in-process; returns (exit code, its stdout)."""
    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = pkg.cli.main(argv)
    return code, out.getvalue()


def lq_solve_cli(pkg, st):
    """``graphon-games lq solve`` on the workload's graphon and source files;
    the request fails unless it exits 0 and reports a certified
    equilibrium.  Returns the profile it wrote."""
    out = os.path.join(st.workdir, "lq_solve.csv")
    code, text = run_cli(pkg, [
        "lq", "solve", "--graphon", st.graphon_path, "--lambda", str(LAM), "--L", str(CAP),
        "--g", st.source_path, "--tol", str(RESOLVENT_TOL), "--out", out,
    ])
    require(code == 0 and "certified=True" in text, f"lq solve exit {code}: {text!r}")
    return pkg.io.load_profile_csv(out)


def certify(pkg, W, params, g):
    """equilibrium_from_source then verify_equilibrium; the request fails unless
    the profile is certified with epsilon* <= CERT_TOL."""
    s = pkg.lq.equilibrium_from_source(W, params, g, RESOLVENT_TOL)
    cert = pkg.lq.verify_equilibrium(W, params, s, tol=CERT_TOL)
    eps = cert.report.epsilon_star
    require(cert.certified and eps <= CERT_TOL,
            f"not certified (certified={cert.certified}, epsilon*={eps:.3g})")
    return s


def solve_from_cap(pkg, game):
    """Damped best response from const:L; the request fails unless it converges
    to a profile with epsilon* <= CERT_TOL."""
    f0 = pkg.core.StepProfile.constant(game.cap, game.grid)
    f, trace = pkg.solver.solve(game, f0)
    eps = trace.final_report.epsilon_star
    require(trace.converged and eps <= CERT_TOL,
            f"solve: converged={trace.converged} epsilon*={eps:.3g}")
    return f


# ---------------------------------------------------------------- lq-analytic

@dataclass(frozen=True)
class LQSizes:
    # N = 2048 only in the quadrature: it sets the peak memory (537 MB of
    # samples), and a certified equilibrium there takes about 14 s, which
    # would leave one sample per run.
    step: tuple[int, ...] = (1024, 2048)
    eq: int = 1024      # g = 1 (closed form) and a seeded g in [0, 1]; also
                        # local_aggregate, solve and best_response_map
    coarse: int = 256
    cli: int = 512


def setup_lq(pkg, seed: int, sizes: LQSizes, workdir: str):
    core, lq = pkg.core, pkg.lq
    rng = np.random.default_rng(seed)
    W = core.SeparablePowerGraphon(ALPHA)
    params = lq.LQParams(LAM, CAP)
    grid = core.GridSpec(sizes.eq)
    graphon_path = os.path.join(workdir, "graphon.json")
    source_path = os.path.join(workdir, "source.csv")
    cli_source = core.StepProfile(core.GridSpec(sizes.cli), rng.random(sizes.cli))
    pkg.io.save_json(graphon_path, W.descriptor())
    pkg.io.save_profile_csv(source_path, cli_source)
    return SimpleNamespace(
        pkg=pkg, sizes=sizes, workdir=workdir, W=W, params=params,
        game=lq.lq_game(W, params, grid),
        one=lq.SourceFunction.constant(1.0, grid),
        random_source=lq.SourceFunction(core.StepProfile(grid, rng.random(sizes.eq))),
        aggregate_input=core.StepProfile(grid, rng.uniform(0.0, CAP, sizes.eq)),
        cli_source=cli_source.values,
        graphon_path=graphon_path,
        source_path=source_path,
    )


def pass_lq(st, rec) -> None:
    pkg, sizes, W, params = st.pkg, st.sizes, st.W, st.params
    core = pkg.core
    m = core.DEFAULT_QUADRATURE

    for n in sizes.step:
        with rec.request("step_approximation", n):
            wbar = core.step_approximation(W, n)
            a, b = rank1_factors(n, m)
            gap = np.abs(wbar.values - np.outer(a, b)).max()
            require(gap <= 1e-12, f"step approximation off the rank-1 averages by {gap:.3g}")

    n = sizes.eq
    a, b = rank1_factors(n, m)
    with rec.request("local_aggregate", n):
        f = st.aggregate_input
        e = core.local_aggregate(W, f)
        gap = np.abs(e.values - a * (b @ f.values) / n).max()
        require(gap <= 1e-12, f"aggregate off the rank-1 closed form by {gap:.3g}")

    with rec.request("eq_cert", n):
        s = certify(pkg, W, params, st.one)
        gap = np.abs(s.values - closed_form(n)).max()
        require(gap <= CLOSED_FORM_TOL, f"closed-form miss {gap:.3g}")
    with rec.request("eq_cert", n):
        certify(pkg, W, params, st.random_source)

    c = sizes.coarse
    with rec.request("coarsen", c):
        (net,) = pkg.lab.build_network_sequence(st.game, (c,))
        s_c = pkg.lab.approximate_profile(s, c)
        eps = pkg.games.regret_profile(net, s_c).epsilon_star
        require(eps <= COARSE_EPS_TOL, f"coarsened epsilon_n {eps:.3g}")

    with rec.request("br_solve", n):
        solve_from_cap(pkg, st.game)

    with rec.request("best_response_map", n):
        f0 = core.StepProfile.constant(CAP, st.game.grid)
        br = pkg.solver.best_response_map(st.game, f0)
        # from f = L the nearest point of the plateau [lam*e, lam*e + 1] is its top
        expected = LAM * a * (b.sum() * CAP) / n + 1.0
        gap = np.abs(br.values - expected).max()
        require(gap <= 1e-12, f"best response off the plateau top by {gap:.3g}")

    n = sizes.cli
    with rec.request("cli", n):
        s = lq_solve_cli(pkg, st).values
        # s solves s = g + lam * (Wbar s) / n, and Wbar is the rank-1 outer(a, b)
        a, b = rank1_factors(n, m)
        residual = np.abs(s - LAM * a * (b @ s) / n - st.cli_source).max()
        require(residual <= 10 * RESOLVENT_TOL, f"lq solve Fredholm residual {residual:.3g}")


# --------------------------------------------------------------- network-step

@dataclass(frozen=True)
class NetworkSizes:
    players: tuple[int, ...] = (256, 1024)
    coarse: int = 256
    cli: int = 1024


def setup_network(pkg, seed: int, sizes: NetworkSizes, workdir: str):
    core, games, lq = pkg.core, pkg.games, pkg.lq
    rng = np.random.default_rng(seed)
    nets = {}
    for n in sizes.players:
        grid = core.GridSpec(n)
        adjacency = (rng.random((n, n)) < EDGE_PROBABILITY).astype(float)
        nets[n] = SimpleNamespace(
            grid=grid,
            adjacency=adjacency,
            plateau=games.NetworkGame(
                adjacency, games.PlateauUtility.from_values(grid, lam=LAM), CAP),
            quadratic=games.NetworkGame(
                adjacency,
                games.QuadraticUtility.from_values(grid, beta=rng.random(n), delta=rng.random(n)),
                CAP),
            source=lq.SourceFunction(core.StepProfile(grid, rng.random(n))),
            strategy=rng.uniform(0.0, CAP, n),
        )
    cli_net = nets[sizes.cli]
    graphon_path = os.path.join(workdir, "network.json")
    source_path = os.path.join(workdir, "source.csv")
    with open(graphon_path, "w") as fh:
        fh.write(json.dumps({"family": "step", "params": {
            "n": sizes.cli, "values": cli_net.adjacency.ravel().tolist()}}))
    pkg.io.save_profile_csv(source_path, cli_net.source.profile)
    return SimpleNamespace(pkg=pkg, sizes=sizes, workdir=workdir, nets=nets,
                           params=lq.LQParams(LAM, CAP),
                           graphon_path=graphon_path, source_path=source_path)


def pass_network(st, rec) -> None:
    pkg, sizes = st.pkg, st.sizes
    core, games = pkg.core, pkg.games
    equilibria, plateau_games = {}, {}

    for n in sizes.players:
        net = st.nets[n]
        with rec.request("embed_network", n):
            embedded = {"plateau": games.embed_network(net.plateau),
                        "quadratic": games.embed_network(net.quadratic)}
            require(all(np.array_equal(g.graphon.values, net.adjacency)
                        for g in embedded.values()), "embedding changed the adjacency")
        plateau_games[n] = embedded["plateau"]

        with rec.request("regret_match", n):
            for kind, emb in embedded.items():
                on_network = games.regret_profile(getattr(net, kind), net.strategy)
                on_graphon = games.regret_profile(emb, games.embed_strategy(net.strategy))
                require(np.array_equal(on_network.regrets.values, on_graphon.regrets.values)
                        and on_network.epsilon_star == on_graphon.epsilon_star,
                        f"{kind}: network and embedded regrets differ")

        W = embedded["plateau"].graphon
        with rec.request("step_approximation", n):
            wbar = core.step_approximation(W, n)
            require(np.array_equal(wbar.values, net.adjacency), "n-step kernel changed")

        with rec.request("resolvent", n):
            kernel = core.resolvent(W, LAM, net.grid, RESOLVENT_TOL)
            require(kernel.tail_bound <= RESOLVENT_TOL, f"tail bound {kernel.tail_bound:.3g}")
            g = net.source.values
            s = g + LAM * kernel.apply(g).values
            residual = np.abs(s - LAM * net.adjacency @ s / n - g).max()
            require(residual <= 10 * RESOLVENT_TOL, f"Fredholm residual {residual:.3g}")

        with rec.request("eq_cert", n):
            equilibria[n] = certify(pkg, W, st.params, net.source)

        for emb in embedded.values():
            with rec.request("br_solve", n):
                solve_from_cap(pkg, emb)

    n, c = max(sizes.players), sizes.coarse
    with rec.request("coarsen", c):
        (coarse,) = pkg.lab.build_network_sequence(plateau_games[n], (c,))
        blocks = st.nets[n].adjacency.reshape(c, n // c, c, n // c).mean(axis=(1, 3))
        gap = np.abs(coarse.adjacency - blocks).max()
        require(gap <= 1e-12, f"coarsened adjacency off the block means by {gap:.3g}")
        s_c = pkg.lab.approximate_profile(equilibria[n], c)
        eps = games.regret_profile(coarse, s_c).epsilon_star
        require(eps <= COARSE_EPS_TOL, f"coarsened epsilon_n {eps:.3g}")

    n = sizes.cli
    with rec.request("cli", n):
        s = lq_solve_cli(pkg, st)
        gap = np.abs(s.values - equilibria[n].values).max()
        require(gap <= 1e-12, f"lq solve differs from the in-process equilibrium by {gap:.3g}")


# ------------------------------------------------------- lab-characterization

@dataclass(frozen=True)
class LabSizes:
    grid: int = 768
    n_list: tuple[int, ...] = (8, 16, 32, 64, 128, 256)
    alt_n_list: tuple[int, ...] = (12, 24, 48, 96, 192)


def setup_lab(pkg, seed: int, sizes: LabSizes, workdir: str):
    """The plan of demos/network_convergence.py, plus a seeded source in [0, 1]
    for a second certified equilibrium of its target game."""
    descriptor = {
        "experiment": "characterization",
        "game": {
            "graphon": {"family": "separable_power", "params": {"alpha": ALPHA}},
            "utility": {"family": "plateau_lq", "params": {"lambda": LAM}},
            "L": CAP,
            "grid_n": sizes.grid,
        },
        "n_list": list(sizes.n_list),
        "alt_n_list": list(sizes.alt_n_list),
        "alt_grid": sizes.grid,
    }
    plan_path = os.path.join(workdir, "plan.json")
    pkg.io.save_json(plan_path, descriptor)
    plan, _ = pkg.lab.plan_from_descriptor(descriptor, workdir)
    grid = plan.game.grid
    random_source = pkg.lq.SourceFunction(
        pkg.core.StepProfile(grid, np.random.default_rng(seed).random(grid.n_cells)))
    return SimpleNamespace(pkg=pkg, sizes=sizes, workdir=workdir, plan=plan,
                           random_source=random_source,
                           params=pkg.lq.LQParams(LAM, CAP), plan_path=plan_path,
                           out_dir=os.path.join(workdir, "lab_out"))


def pass_lab(st, rec) -> None:
    pkg, plan = st.pkg, st.plan
    core, games, lab = pkg.core, pkg.games, pkg.lab
    game = plan.game
    n = game.grid.n_cells

    with rec.request("eq_cert", n):
        g = pkg.lq.SourceFunction.constant(1.0, game.grid)
        reference = certify(pkg, game.graphon, st.params, g)
        gap = np.abs(reference.values - closed_form(n)).max()
        require(gap <= CLOSED_FORM_TOL, f"closed-form miss {gap:.3g}")
    with rec.request("eq_cert", n):
        certify(pkg, game.graphon, st.params, st.random_source)

    with rec.request("br_solve", n):
        solve_from_cap(pkg, game)

    with rec.request("sequence", n):
        nets = lab.build_network_sequence(game, plan.n_list)
        errors = [core.graphon_l1_distance(game.graphon, core.StepGraphon(net.adjacency),
                                           resolution=n)
                  for net in nets]
        require(all(b < a for a, b in zip(errors, errors[1:])),
                f"kernel L1 errors do not shrink: {errors}")
        top = nets[-1]
        s_top = lab.approximate_profile(reference, top.n_players)
        on_network = games.regret_profile(top, s_top)
        on_graphon = games.regret_profile(games.embed_network(top), games.embed_strategy(s_top))
        require(np.array_equal(on_network.regrets.values, on_graphon.regrets.values),
                "network and embedded regrets differ")
        require(on_network.epsilon_star <= plan.eps_tolerance,
                f"coarsened epsilon_n {on_network.epsilon_star:.3g}")

    # runs both experiments on both sequences (the characterization suite);
    # a traced pass times each of them inside this request
    with rec.request("cli", n):
        code, text = run_cli(pkg, ["lab", "run", "--plan", st.plan_path, "--out", st.out_dir])
        summary = pkg.io.load_json(os.path.join(st.out_dir, "summary.json"))
        require(code == 0 and summary["passed"] is True, f"lab run exit {code}: {text!r}")


# ------------------------------------------------------------------ registry

@dataclass(frozen=True)
class Workload:
    """Why each workload is in the benchmark is recorded in BENCHMARK.json."""

    name: str
    setup: Callable
    run_pass: Callable
    full: object
    tiny: object
    # end-to-end metric -> (request kind, size) whose median it reports
    headline: Callable[[object], dict[str, tuple[str, int]]]


WORKLOADS = {w.name: w for w in (
    Workload(
        "lq-analytic",
        setup_lq, pass_lq, LQSizes(),
        LQSizes(step=(16, 32), eq=16, coarse=8, cli=8),
        lambda s: {"eq_cert_s": ("eq_cert", s.eq),
                   "br_solve_s": ("br_solve", s.eq),
                   "cli_s": ("cli", s.cli)},
    ),
    Workload(
        "network-step",
        setup_network, pass_network, NetworkSizes(),
        NetworkSizes(players=(8, 16), coarse=8, cli=16),
        lambda s: {"eq_cert_s": ("eq_cert", max(s.players)),
                   "br_solve_s": ("br_solve", max(s.players)),
                   "cli_s": ("cli", s.cli)},
    ),
    Workload(
        "lab-characterization",
        setup_lab, pass_lab, LabSizes(),
        LabSizes(grid=96, n_list=(8, 16, 32), alt_n_list=(12, 24, 48)),
        lambda s: {"eq_cert_s": ("eq_cert", s.grid),
                   "br_solve_s": ("br_solve", s.grid),
                   "cli_s": ("cli", s.grid)},
    ),
)}
