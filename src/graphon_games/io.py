"""CSV and JSON serialization: profiles, kernel and game descriptors, and
report tables."""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import json
import json.decoder
import json.scanner
import re
from typing import NamedTuple

import numpy as np

from .core import (
    SEPARABLE_FAMILIES,
    Graphon,
    GridSpec,
    StepGraphon,
    StepProfile,
    _freeze,
    _shared,
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
    """Write ``obj`` as ``json.dump(obj, indent=2)`` lays it out, except that an
    array of only numbers goes on one line, encoded by json's C encoder: a
    kernel's rows are one line each.  ``load_json`` reads back the same values."""
    with open(path, "w") as fh:
        fh.write(_json_text(obj))
        fh.write("\n")


def _json_text(value, pad: str = "") -> str:
    """``value`` as JSON text, objects and arrays indented by two spaces a
    level from ``pad``, but arrays of only numbers (and empty ones) inline."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = (f"{inner}{_json_key(key)}: {_json_text(item, inner)}"
                 for key, item in value.items())
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)) and not set(map(type, value)) <= {int, float}:
        return "[\n" + ",\n".join(inner + _json_text(item, inner) for item in value) + f"\n{pad}]"
    return json.dumps(value)


def _json_key(key) -> str:
    """An object key as json writes it: a number, bool or null key as its JSON text."""
    if not isinstance(key, (str, int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return json.dumps(key if isinstance(key, str) else json.dumps(key))


# characters of a JSON array that is only numbers, and of its blank space
_NUMBER_TEXT = re.compile(r"[0-9+\-.eE, \t\n\r]*")
_BLANK = re.compile(r"[ \t\n\r]*")
# characters of array text handed to json at a time: one chunk of Python floats at most
_CHUNK_CHARS = 1 << 18


def _strict_scan(text: str, at: int):
    """The value json.load reads at ``text[at]``, or json's own error there."""
    return json.JSONDecoder().scan_once(text, at)[0]


def _decode_numbers(text: str, begin: int, end: int) -> np.ndarray:
    """The numbers of ``text[begin:end]``, an array's text between its brackets,
    as float64: each chunk, cut at a comma, is parsed by json and copied over."""
    out = np.empty(text.count(",", begin, end) + 1)
    done, a = 0, begin
    while a <= end:
        cut = text.find(",", min(a + _CHUNK_CHARS, end), end)
        cut = end if cut < 0 else cut
        try:
            chunk = json.loads("[" + text[a:cut] + "]")
        except json.JSONDecodeError:
            chunk = []
        if not chunk:  # a malformed number or an empty slot: json says where
            _strict_scan(text, begin - 1)
            raise AssertionError("json read a malformed number array")
        out[done:done + len(chunk)] = chunk
        done, a = done + len(chunk), cut + 1
    return _freeze(out)


class _NumberArray(NamedTuple):
    """An array of JSON numbers, read as float64; ``text[start]`` is its ``[``."""

    floats: np.ndarray
    text: str
    start: int

    def as_json(self) -> list:
        return _strict_scan(self.text, self.start)


def _resolve(value, floats: bool = False):
    """``value`` with each number array as json.load reads it, or, with
    ``floats``, as float arrays: one flat array, or one per row."""
    if isinstance(value, _NumberArray):
        return value.floats if floats else value.as_json()
    if isinstance(value, list):
        if floats and value and all(isinstance(row, _NumberArray) for row in value):
            return [row.floats for row in value]
        value[:] = map(_resolve, value)
    return value


def _resolve_pairs(pairs) -> dict:
    """An object as json.load reads it, but a step kernel's values as floats."""
    envelope = {key for key, _ in pairs} in ({"values"}, {"n", "values"})
    return {key: _resolve(value, envelope and key == "values") for key, value in pairs}


class _StepValuesDecoder(json.JSONDecoder):
    """json's own Python scanner, but an array of only numbers is read straight
    into float64, a chunk at a time, and turned back into json's list
    wherever it is not a step kernel's values."""

    def __init__(self):
        super().__init__(object_pairs_hook=_resolve_pairs)
        self.parse_array = self._parse_array
        self.scan_once = json.scanner.py_make_scanner(self)

    @staticmethod
    def _parse_array(text_and_begin, scan_once):
        text, begin = text_and_begin
        end = _NUMBER_TEXT.match(text, begin).end()
        if text.startswith("]", end) and _BLANK.match(text, begin).end() < end:
            try:
                return _NumberArray(_decode_numbers(text, begin, end), text, begin - 1), end + 1
            except OverflowError:  # an integer beyond float range: json's list keeps it
                pass
        return json.decoder.JSONArray(text_and_begin, scan_once)

    def decode(self, s, *args, **kwargs):
        return _resolve(super().decode(s, *args, **kwargs))


def load_json(path):
    """The JSON value in ``path``, as ``json.load`` reads it, except that the
    values of a step kernel (an object with keys ``values`` and maybe ``n``)
    that are only numbers come as read-only float64 arrays: one flat array, or
    one per row.  They are read a chunk at a time, so the read holds the text,
    the float arrays and one chunk of Python floats; the floats are json's own,
    and so is every error.  A text that is not all ASCII is read by
    ``json.loads`` itself, since the Python scanner takes non-ASCII digits."""
    with open(path) as fh:
        text = fh.read()
    return json.loads(text, cls=_StepValuesDecoder if text.isascii() else None)


def save_profile_csv(path, profile: StepProfile) -> None:
    """One value per line."""
    np.savetxt(path, profile.values, fmt="%.17g")


def load_profile_csv(path) -> StepProfile:
    values = np.atleast_1d(np.loadtxt(path, dtype=float))
    return StepProfile(GridSpec(values.size), values)


def step_graphon_from_envelope(d: dict) -> StepGraphon:
    """{"values": nested rows} or {"n": n, "values": flat row-major}.

    The values are lists of numbers, or the float arrays ``load_json`` reads
    them into: a flat array becomes the kernel's matrix where it is, and rows
    are stacked once.
    """
    check_keys(d, ("n", "values"), "step graphon", required=("values",))
    raw = d["values"]
    nested = isinstance(raw, list) and bool(raw) and isinstance(raw[0], (list, np.ndarray))
    rows = raw if nested else [raw]
    if not all(isinstance(row, list) or isinstance(row, np.ndarray) and row.ndim == 1
               and row.dtype == float for row in rows):
        raise ValueError("step graphon values must be a list of numbers or of rows of numbers")
    # a bool or a numeric string is not a number, though the float cast would take it
    lists = (row for row in rows if isinstance(row, list))
    kinds = set(map(type, itertools.chain.from_iterable(lists))) - {int, float}
    if kinds:
        raise ValueError(f"step graphon values must be numbers, got "
                         f"{', '.join(sorted(k.__name__ for k in kinds))}")
    if nested:
        lengths = sorted({len(row) for row in rows})
        if lengths != [len(rows)]:
            raise ValueError(f"step graphon has {len(rows)} rows, so each needs "
                             f"{len(rows)} values; got rows of lengths {lengths}")
        if "n" in d and integral_size(d["n"], "step graphon n") != len(rows):
            raise ValueError(f"step graphon n = {d['n']} does not match its {len(rows)} rows")
        return StepGraphon(_freeze(np.array(rows, dtype=float)))
    check_keys(d, ("n", "values"), "step graphon with flat values", required=("n", "values"))
    n = integral_size(d["n"], "step graphon n")
    if n < 1:
        raise ValueError(f"step graphon n must be at least 1, got {n}")
    if len(raw) != n * n:
        raise ValueError(f"step graphon with n = {n} needs n * n = {n * n} flat values, "
                         f"got {len(raw)}")
    return StepGraphon(_freeze(_shared(raw).reshape(n, n)))


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


def parse_profile_arg(text: str, cap: float | None = None) -> float | StepProfile:
    """A profile argument as written: "const:v" is the number v ("const:L" the
    cap, when one is given), and anything else a CSV path, read as a profile."""
    if text.startswith("const:"):
        raw = text.split(":", 1)[1]
        return cap if raw == "L" and cap is not None else float(raw)
    return load_profile_csv(text)


def parse_profile_source(text: str, grid: GridSpec | None = None,
                         cap: float | None = None) -> StepProfile:
    """Resolve a CLI profile argument: "const:v" (needs a grid) or a CSV path."""
    value = parse_profile_arg(text, cap)
    if not isinstance(value, StepProfile):
        if grid is None:
            raise ValueError("constant profiles need an explicit grid size")
        return StepProfile.constant(value, grid)
    if grid is not None and value.grid != grid:
        raise ValueError(
            f"profile {text} has {value.grid.n_cells} cells, expected {grid.n_cells}"
        )
    return value
