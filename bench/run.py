"""Benchmark of the graphon-games package: one workload, one seed, one process.

    python3 bench/run.py --workload lq-analytic --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``.
The run repeats whole passes of the workload's requests until they have taken
up to ``--seconds`` (at least one pass; none starts that would end past that at
the last pass's pace), and before each pass it times the workload's set-up in
fresh processes (``setup_s``).  Every request checks its answer.  The
next-to-last line of stdout is a JSON detail record (environment, medians with tail percentiles and sample
counts, per-call timings, failures); the last line is
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 1`` each pass runs once untraced and once traced, the metrics
are the per-layer ones, and the spans are written to ``bench/out/``.  A traced
pass wraps the package's public functions, so spans nest as the calls do.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
# Set-up is timed in fresh interpreters, this many before each pass.  On a
# shared 2-vCPU machine the set-up times of successive processes fall near one
# of two values about 40% apart, roughly half at each, and the machine's load
# shifts over seconds; so setup_s is the median, over the passes, of the mean
# of each pass's set-ups, which spreads its samples over the run as the passes'
# samples are spread, and no single median jumps between the two values.
SETUPS_PER_PASS = 5
MODULES = ("core", "games", "lq", "solver", "lab", "io", "cli")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "eq_cert_s": "s",
    "br_solve_s": "s",
    "cli_s": "s",
}
LAYERS = ("core", "games", "lq", "solver", "lab", "io", "cli", "bench")
COUNTS = {
    "core.step_approximation.bytes_computed": "B",
    "core.resolvent.order": "count",
    "core.resolvent.flops_computed": "flop",
    "solver.solve.iterations": "count",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    **COUNTS,
}


def pin_blas_threads() -> dict:
    """Hold BLAS to one thread; must run before numpy is imported."""
    inherited = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    numpy_was_loaded = "numpy" in sys.modules
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {
        "pinned": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "inherited": inherited,
        # pins set after numpy is loaded may not reach the BLAS pool
        "missing": numpy_was_loaded,
    }


def package_present() -> bool:
    return (SRC / "graphon_games" / "__init__.py").is_file()


def fresh_import() -> SimpleNamespace:
    """Import the package from src/ anew (dropping any loaded copy), so each
    set-up repetition pays the import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "graphon_games" or m.startswith("graphon_games.")]:
        del sys.modules[name]
    pkg = importlib.import_module("graphon_games")
    if Path(pkg.__file__).resolve().parent != (SRC / "graphon_games").resolve():
        raise ImportError(f"graphon_games resolved to {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"graphon_games.{m}") for m in MODULES})


def git_commit() -> str:
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    return "unknown (not a git checkout)"


def environment(blas: dict, seed: int) -> dict:
    import numpy as np

    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "blas_threads": blas,
        "numpy": np.__version__,
        "blas": blas_version,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def timed_setup(name: str, seed: int, tiny: bool, workdir: str) -> float:
    """Seconds to import the package and set the workload up, in this process.
    Meant for a fresh interpreter: numpy is loaded before the clock starts."""
    import workloads

    workload = workloads.WORKLOADS[name]
    start = time.perf_counter()
    workload.setup(fresh_import(), seed, workload.tiny if tiny else workload.full, workdir)
    return time.perf_counter() - start


def setup_in_child(name: str, seed: int, tiny: bool, workdir: str) -> float:
    """``timed_setup`` in a fresh interpreter, waited for; returns its seconds."""
    code = ("import sys, run; run.pin_blas_threads(); "
            "print(run.timed_setup(sys.argv[1], int(sys.argv[2]), sys.argv[3] == '1', sys.argv[4]))")
    child = subprocess.run(
        [sys.executable, "-c", code, name, str(seed), "1" if tiny else "0", workdir],
        cwd=BENCH_DIR, capture_output=True, text=True, timeout=120,
    )
    if child.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed in a child process:\n{child.stderr}")
    return float(child.stdout.strip().splitlines()[-1])


def measure(workload, tiny: bool, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """Set up, run passes for `seconds`, and summarize; shared with the self-test."""
    import workloads
    from harness import Recorder, tail_summary

    os.makedirs(workdir, exist_ok=True)
    sizes = workload.tiny if tiny else workload.full
    state = workload.setup(fresh_import(), seed, sizes, workdir)

    rec = Recorder(run_id=f"{workload.name}-seed{seed}")
    modules = [getattr(state.pkg, m) for m in MODULES]
    walls: dict[bool, list[float]] = {False: [], True: []}
    traced_passes = []
    setup_groups: list[list[float]] = []
    modes = (False, True) if trace else (False,)
    measured = 0.0
    while True:
        setup_groups.append([setup_in_child(workload.name, seed, tiny, workdir)
                             for _ in range(SETUPS_PER_PASS)])
        cycle = 0.0
        for traced in modes:
            rec.tracing = traced
            start = time.perf_counter()
            with rec.instrument(modules, workloads.count_work) if traced else nullcontext():
                workload.run_pass(state, rec)
            walls[traced].append(time.perf_counter() - start)
            cycle += walls[traced][-1]
            if traced:
                traced_passes.append(rec.pass_index)
            rec.pass_index += 1
        measured += cycle
        # stop before a cycle that would end past the deadline (one cycle at least)
        if measured + cycle > seconds:
            break
    rec.tracing = False

    headline = workload.headline(sizes)
    samples = {
        "setup_s": [t for group in setup_groups for t in group],
        "wall_s": walls[False],
        **{name: rec.request_seconds(kind, n) for name, (kind, n) in headline.items()},
    }
    requests = {f"{kind}_s.n{n}": tail_summary(rec.request_seconds(kind, n))
                for kind, n in dict.fromkeys((r.kind, r.n) for r in rec.requests)}

    detail = {
        "workload": workload.name,
        "passes": len(walls[False]) + len(walls[True]),
        "end_to_end": {name: tail_summary(values) for name, values in samples.items()},
        "requests": requests,
        "failures": rec.failures,
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["setup_s"] = statistics.median(statistics.fmean(g) for g in setup_groups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail["peak_rss_mb"] = metrics["peak_rss_mb"]

    if trace:
        per_pass = [rec.self_seconds_by_layer(i) for i in traced_passes]
        layer_metrics = {f"{layer}.self_s": statistics.median(p.get(layer, 0.0) for p in per_pass)
                         for layer in LAYERS}
        layer_metrics["trace.overhead_s"] = (
            statistics.median(walls[True]) - statistics.median(walls[False]))
        counts = rec.pass_counts()
        for name in COUNTS:  # a counter no traced call reached reads 0; the self-test rejects it
            layer_metrics[name] = statistics.median(counts.get(name, [0]))
        detail["per_layer"] = layer_metrics
        detail["spans"] = {k: tail_summary(v) for k, v in sorted(rec.span_seconds().items())}
        detail["counts"] = {k: statistics.median(v) for k, v in counts.items()}
        metrics = layer_metrics

    return {"recorder": rec, "detail": detail, "metrics": metrics}


def write_trace(rec, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = [{"id": s.id, "parent": s.parent, "name": s.name, "layer": s.layer,
              "pass": s.pass_index, "request": s.request, "request_kind": s.kind,
              "request_n": s.n, "start": s.start, "end": s.end}
             for s in rec.spans]
    path.write_text(json.dumps({"run_id": rec.run_id, "spans": spans}) + "\n")


def result_line(rec, metrics: dict, units: dict) -> dict:
    return {
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas = pin_blas_threads()
    if not package_present():
        print(f"error: no graphon_games package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = measure(workload, False, args.seed, args.seconds, bool(args.trace), str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rec, detail = run["recorder"], run["detail"]
    detail["env"] = environment(blas, args.seed)
    if args.trace:
        trace_path = BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(rec, trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result_line(rec, run["metrics"], PER_LAYER if args.trace else END_TO_END)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
