"""CSV and JSON serialization: profiles, kernel and game descriptors, and
report tables."""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import json

import numpy as np

from .core import (
    SEPARABLE_FAMILIES,
    Graphon,
    GridSpec,
    StepGraphon,
    StepProfile,
    _freeze,
    check_threshold,
)
from .games import PARAM_FILE_KEYS, UTILITY_FAMILIES, GraphonGame, RegretReport, UtilitySpec
from .solver import SolverConfig


def check_keys(d: dict, allowed, what: str, required=(), exact: bool = False) -> None:
    """Reject a key of ``d`` outside ``allowed`` or a missing one of ``required``
    (with ``exact``, a missing one of ``allowed``)."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    allowed, unknown = sorted(allowed), sorted(set(d) - set(allowed))
    if exact and sorted(d) != allowed:
        raise ValueError(f"{what} needs parameters {allowed}, got {sorted(d)}")
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}; it takes {allowed}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ValueError(f"{what} is missing keys {missing}; it needs {sorted(required)}")


def integral_size(x, what: str) -> int:
    """A size read from JSON: an integral number, never a bool, a string or a fraction."""
    if isinstance(x, bool) or not (isinstance(x, (int, np.integer))
                                   or isinstance(x, float) and x.is_integer()):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def save_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def save_profile_csv(path, profile: StepProfile) -> None:
    """One value per line."""
    np.savetxt(path, profile.values, fmt="%.17g")


def load_profile_csv(path) -> StepProfile:
    values = np.atleast_1d(np.loadtxt(path, dtype=float))
    return StepProfile(GridSpec(values.size), values)


def step_graphon_from_envelope(d: dict) -> StepGraphon:
    """{"values": nested rows} or {"n": n, "values": flat row-major}."""
    check_keys(d, ("n", "values"), "step graphon", required=("values",))
    raw = d["values"]
    rows = raw if isinstance(raw, list) and raw and isinstance(raw[0], list) else [raw]
    if not all(isinstance(row, list) for row in rows):
        raise ValueError("step graphon values must be a list of numbers or of rows of numbers")
    # a bool or a numeric string is not a number, though the float cast would take it
    kinds = set(map(type, itertools.chain.from_iterable(rows))) - {int, float}
    if kinds:
        raise ValueError(f"step graphon values must be numbers, got "
                         f"{', '.join(sorted(k.__name__ for k in kinds))}")
    values = np.array(raw, dtype=float)  # a new array, so the graphon adopts it
    if values.ndim == 1:
        check_keys(d, ("n", "values"), "step graphon with flat values", required=("n", "values"))
        values = values.reshape((integral_size(d["n"], "step graphon n"),) * 2)
    return StepGraphon(_freeze(values))


def graphon_from_descriptor(d: dict) -> Graphon:
    """Build a kernel from {"family": ..., "params": {...}}; "block" is an alias
    for a uniform-block step graphon."""
    check_keys(d, ("family", "params"), "graphon descriptor", required=("family",))
    family = d["family"]
    params = d.get("params", {})
    if family in SEPARABLE_FAMILIES:
        make = SEPARABLE_FAMILIES[family]
        what = f"graphon family {family!r}"
        check_keys(params, inspect.signature(make).parameters, what, exact=True)
        for k, v in params.items():
            check_threshold(v, f"{what} parameter {k}")
        return make(**{k: float(v) for k, v in params.items()})
    if family in ("step", "block"):
        return step_graphon_from_envelope(params)
    raise ValueError(f"unknown graphon family {family!r}")


def utility_from_descriptor(d: dict, grid: GridSpec) -> UtilitySpec:
    check_keys(d, ("family", "params"), "utility descriptor", required=("family",))
    family = d["family"]
    if family not in UTILITY_FAMILIES:
        raise ValueError(f"unknown utility family {family!r}; have {sorted(UTILITY_FAMILIES)}")
    cls = UTILITY_FAMILIES[family]
    names = {PARAM_FILE_KEYS.get(name, name): name for name in cls.param_names}
    raw = d.get("params", {})
    check_keys(raw, names, f"utility family {family!r}", exact=True)
    return cls.from_values(grid, **{names[key]: v for key, v in raw.items()})


def game_from_descriptor(d: dict) -> GraphonGame:
    """{"graphon": {...}, "utility": {"family": ..., "params": {...}}, "L": ..., "grid_n": ...}"""
    keys = ("graphon", "utility", "L", "grid_n")
    check_keys(d, keys, "game descriptor", required=keys)
    grid = GridSpec(integral_size(d["grid_n"], "grid_n"))
    graphon = graphon_from_descriptor(d["graphon"])
    utilities = utility_from_descriptor(d["utility"], grid)
    check_threshold(d["L"], "L", positive=True)
    return GraphonGame(graphon, utilities, float(d["L"]), grid)


def game_to_descriptor(game: GraphonGame) -> dict:
    return {
        "graphon": game.graphon.descriptor(),
        "utility": game.utilities.descriptor(),
        "L": game.cap,
        "grid_n": game.grid.n_cells,
    }


def solver_config_from_descriptor(d: dict) -> SolverConfig:
    check_keys(d, [f.name for f in dataclasses.fields(SolverConfig)], "solver config")
    return SolverConfig(**d)


def write_regret_csv(path, report: RegretReport) -> None:
    """Summary line, then (cell_index, midpoint, strategy, aggregate, regret) rows."""
    grid = report.regrets.grid
    mids = grid.midpoints()
    with open(path, "w") as fh:
        fh.write(f"# epsilon_star,{report.epsilon_star:.17g}\n")
        fh.write("cell_index,midpoint,strategy,aggregate,regret\n")
        for i in range(grid.n_cells):
            fh.write(
                f"{i + 1},{mids[i]:.17g},{report.strategy.values[i]:.17g},"
                f"{report.aggregate.values[i]:.17g},{report.regrets.values[i]:.17g}\n"
            )


def write_table_csv(path, header, rows) -> None:
    """Plain CSV table from an iterable of row tuples."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_field(x) for x in row) + "\n")


def _format_field(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def parse_profile_source(text: str, grid: GridSpec | None = None,
                         cap: float | None = None) -> StepProfile:
    """Resolve a CLI profile argument: "const:v" (needs a grid) or a CSV path."""
    if text.startswith("const:"):
        raw = text.split(":", 1)[1]
        value = cap if raw == "L" and cap is not None else float(raw)
        if grid is None:
            raise ValueError("constant profiles need an explicit grid size")
        return StepProfile.constant(value, grid)
    profile = load_profile_csv(text)
    if grid is not None and profile.grid != grid:
        raise ValueError(
            f"profile {text} has {profile.grid.n_cells} cells, expected {grid.n_cells}"
        )
    return profile
