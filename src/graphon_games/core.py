"""Grids, graphon kernels, quadrature, iterated kernels, and the Neumann-series resolvent.

The agent space (0,1] is modeled by a uniform grid of half-open cells, so every
step graphon / step profile is represented exactly and all integrals reduce to
cell-average quadratures.
"""

from __future__ import annotations

import math
import numbers
import operator
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

DEFAULT_QUADRATURE = 4  # sub-samples per axis when averaging analytic kernels
MAX_GRID_CELLS = 8192   # cap on the cells per axis of an N x N matrix or a common refinement
SAMPLE_CHUNK = 2 ** 16  # kernel samples taken at a time by graphon_l1_distance (512 KiB)


# Frozen N x N arrays by id, held weakly: each array the package built and froze
# itself under its own id, and the frozen copy of a caller's float64 array under
# the caller's id, so the next game built on the same caller array can share it
_FROZEN: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Make a float array the package just built read-only and record it as shareable."""
    arr.flags.writeable = False
    _FROZEN[id(arr)] = arr
    return arr


def _shared(values) -> np.ndarray:
    """A read-only float array the package may share by reference.

    An array the package froze itself is returned as is.  Anything else is
    copied and frozen, read-only caller arrays included: a locked view of a
    writable base (``np.broadcast_to`` of a writable row, say) still changes
    under its base.  The copy of a native float64 ndarray is recorded under
    the caller's id and returned again while the caller's bits equal it, so
    games built on one caller matrix share one copy; a changed array (even
    ``0.0`` to ``-0.0``), or a new one that reuses a dead array's id with
    other bits, gets a fresh copy.
    """
    if not isinstance(values, np.ndarray):
        return _freeze(np.array(values, dtype=float))
    known = _FROZEN.get(id(values))
    if known is values:
        return values
    reusable = type(values) is np.ndarray and values.dtype == np.float64  # native order
    if (reusable and known is not None and known.shape == values.shape
            and np.array_equal(known.view(np.int64), values.view(np.int64))):
        return known
    copy = _freeze(np.array(values, dtype=float))
    if reusable:
        _FROZEN[id(values)] = copy
    return copy


def _check_unit_matrix(vals: np.ndarray, what: str) -> None:
    """Reject an empty or non-square matrix or an entry that is not finite or not
    in [0, 1], with no temporary as large as the matrix (min and max propagate NaN)."""
    if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
        raise ValueError(f"{what} must be square, got shape {vals.shape}")
    if vals.size == 0:
        raise ValueError(f"{what} must have at least one entry, got shape {vals.shape}")
    lo, hi = vals.min(), vals.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{what} entries must be finite")
    if lo < -1e-12 or hi > 1.0 + 1e-12:
        raise ValueError(f"{what} entries must lie in [0, 1]")


def check_threshold(value, what: str, positive: bool = False) -> None:
    """Reject a tolerance or threshold that is not a finite real number >= 0
    (> 0 with ``positive``); a bool or a string is not a number, and NaN fails."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if not ((value > 0 if positive else value >= 0) and math.isfinite(value)):
        raise ValueError(f"{what} must be finite and {'> 0' if positive else '>= 0'}, "
                         f"got {value!r}")


def check_count(value, what: str) -> None:
    """Reject a count that is not an integer >= 1; a bool or a float is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {value!r}")


class GridCompatibilityError(ValueError):
    """A step resolution does not fit a grid, or a grid exceeds the size cap."""


class ContractionError(ValueError):
    """The Neumann series diverges because lambda * ||W||_inf is not < 1."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform partition of (0,1] into N half-open cells ((i-1)/N, i/N]."""

    n_cells: int

    def __post_init__(self):
        # a bool is an int, but True is not a cell count
        if (isinstance(self.n_cells, bool) or not isinstance(self.n_cells, (int, np.integer))
                or self.n_cells < 1):
            raise ValueError(f"grid needs a positive integer cell count, got {self.n_cells!r}")
        object.__setattr__(self, "n_cells", int(self.n_cells))

    def midpoints(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) / self.n_cells

    def cell_index(self, t):
        """0-based index of the cell containing t, for t in (0,1]."""
        idx = np.ceil(np.asarray(t) * self.n_cells).astype(int) - 1
        return np.clip(idx, 0, self.n_cells - 1)


@dataclass(frozen=True, eq=False)
class StepProfile:
    """Piecewise-constant function on the uniform grid, one value per cell.

    Represents strategy profiles, source functions, and per-agent parameters.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        # stored as a private copy so profiles are safe to share across threads
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.n_cells,):
            raise ValueError(
                f"profile needs {self.grid.n_cells} values, got shape {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("profile values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, value: float, grid: GridSpec) -> "StepProfile":
        if isinstance(value, (bool, np.bool_, str)):
            raise ValueError(f"profile constant must be a number, got {value!r}")
        return cls(grid, np.full(grid.n_cells, float(value)))

    def average_to(self, n_cells: int) -> "StepProfile":
        """Exact cell averages on another uniform grid, via the common refinement."""
        return StepProfile(GridSpec(n_cells), regrid_step_values(self.values, n_cells))


def _common_cells(n1: int, n2: int) -> int:
    """Size of the common refinement of an n1- and an n2-cell grid.  One finer
    than both grids is refused above the cap; when one grid divides the other,
    the refinement is the finer of the two, which the data already spans."""
    common = math.lcm(n1, n2)
    if common > max(n1, n2, MAX_GRID_CELLS):
        raise GridCompatibilityError(
            f"grids {n1} and {n2} need {common} cells in common (cap {MAX_GRID_CELLS})"
        )
    return common


def regrid_step_values(values: np.ndarray, n_cells: int, axis: int = 0) -> np.ndarray:
    """Exact cell averages of step data on another uniform grid, along one axis.

    Each cell is repeated onto the common refinement, which then takes block
    means; a refinement is the repeat alone and a coarsening the block means
    alone.  Data already on the grid comes back unchanged.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    if n_cells == n:
        return values
    common = _common_cells(n, n_cells)
    if common > n:
        values = np.repeat(values, common // n, axis=axis)
    if common == n_cells:
        return values
    blocks = values.shape[:axis] + (n_cells, common // n_cells) + values.shape[axis + 1:]
    return values.reshape(blocks).mean(axis=axis + 1)


def common_grid(f: "StepProfile", g: "StepProfile"):
    """Values of both profiles on their common refinement, plus that grid."""
    if f.grid == g.grid:
        return f.values, g.values, f.grid
    common = _common_cells(f.grid.n_cells, g.grid.n_cells)
    return (regrid_step_values(f.values, common), regrid_step_values(g.values, common),
            GridSpec(common))


class Graphon:
    """Interaction kernel W on (0,1]^2 with values in [0,1]; symmetry is not assumed."""

    family: str = "graphon"

    def evaluate(self, t, s):
        """Pointwise kernel values; broadcasts over numpy arrays."""
        raise NotImplementedError

    def sup_norm(self) -> float:
        """Exact sup of the kernel: analytic for built-in families, max entry for steps."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        """JSON-style {"family": ..., "params": ...} description."""
        raise NotImplementedError


@dataclass(frozen=True)
class SeparableGraphon(Graphon):
    """Rank-1 kernel W(t, s) = a(t) * b(s), the form of every built-in analytic family.

    ``family`` and ``params`` are the JSON description (and decide equality);
    ``a`` and ``b`` are the factor functions and ``sup`` the exact analytic sup.
    Build instances with ``ConstantGraphon``, ``ProductGraphon`` or
    ``SeparablePowerGraphon``.
    """

    family: str = field()  # an instance field; field() drops Graphon's class default
    params: tuple[tuple[str, float], ...]
    a: Callable = field(compare=False, repr=False)
    b: Callable = field(compare=False, repr=False)
    sup: float = field(compare=False, repr=False)

    def evaluate(self, t, s):
        return np.asarray(self.a(t), dtype=float) * np.asarray(self.b(s), dtype=float)

    def sup_norm(self) -> float:
        return self.sup

    def descriptor(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}


def _constant(c: float, x):
    return np.full(np.shape(x), c)


def _power(p: float, x):
    return np.asarray(x, dtype=float) ** p


def _identity(x):
    return np.asarray(x, dtype=float)


def ConstantGraphon(c: float) -> SeparableGraphon:
    """W(t, s) = c with c in [0, 1]."""
    check_threshold(c, "constant graphon value")
    if c > 1.0:
        raise ValueError(f"constant graphon value {c} outside [0, 1]")
    c = float(c)
    return SeparableGraphon("constant", (("c", c),), partial(_constant, c),
                            partial(_constant, 1.0), c)


def ProductGraphon() -> SeparableGraphon:
    """W(t, s) = t * s."""
    return SeparableGraphon("product", (), _identity, _identity, 1.0)


def SeparablePowerGraphon(alpha: float) -> SeparableGraphon:
    """W(t, s) = t^alpha * s^(1-alpha) with alpha in (0, 1); not symmetric."""
    check_threshold(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    alpha = float(alpha)
    return SeparableGraphon("separable_power", (("alpha", alpha),), partial(_power, alpha),
                            partial(_power, 1.0 - alpha), 1.0)


# JSON family name -> constructor taking the descriptor's params as keywords
SEPARABLE_FAMILIES = {
    "constant": ConstantGraphon,
    "product": ProductGraphon,
    "separable_power": SeparablePowerGraphon,
}


@dataclass(frozen=True, eq=False)
class StepGraphon(Graphon):
    """Graphon constant on each rectangle of the uniform n x n grid.

    Entry (i, j) is the value on cell(i) x cell(j); this is the exact embedding
    of an n-player adjacency matrix.
    """

    values: np.ndarray
    family = "step"

    def __post_init__(self):
        vals = _shared(self.values)  # step_approximation(W, W.n) returns W itself
        _check_unit_matrix(vals, "step graphon")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def evaluate(self, t, s):
        grid = GridSpec(self.n)
        return self.values[grid.cell_index(t), grid.cell_index(s)]

    def sup_norm(self) -> float:
        return float(self.values.max())

    def descriptor(self) -> dict:
        return {"family": "step", "params": {"n": self.n, "values": self.values.tolist()}}


def check_step_resolution(W: Graphon, grid: GridSpec) -> None:
    """Reject a step kernel whose resolution does not divide the grid, so that its
    local aggregates of profiles on the grid land on that grid."""
    if isinstance(W, StepGraphon) and grid.n_cells % W.n:
        raise GridCompatibilityError(
            f"step graphon resolution {W.n} must divide the game grid {grid.n_cells}"
        )


def _check_matrix_cells(n: int) -> None:
    """Refuse an n x n matrix above the size cap before it is allocated."""
    if n > MAX_GRID_CELLS:
        raise GridCompatibilityError(
            f"an {n} x {n} kernel matrix exceeds the cap of {MAX_GRID_CELLS} cells per axis"
        )


def step_approximation(W: Graphon, n: int, m: int = DEFAULT_QUADRATURE) -> StepGraphon:
    """Project a graphon onto the n-step grid by per-rectangle averaging.

    Step graphons are averaged exactly by ``regrid_step_values`` along each
    axis, so an input that is already n-step comes back unchanged.  A separable
    kernel a(t)b(s) is averaged with the m x m midpoint rule per cell (m = 1
    evaluates at the cell midpoint); that average factors exactly into the outer
    product of the m-point cell averages of a and of b, so only n * m samples
    are taken.  Any other result is an n x n matrix, refused above
    ``MAX_GRID_CELLS``, as is a common refinement of two step grids.
    """
    check_count(n, "n")
    check_count(m, "m")
    if isinstance(W, StepGraphon) and W.n == n:
        return W
    _check_matrix_cells(n)
    if isinstance(W, StepGraphon):
        values = regrid_step_values(regrid_step_values(W.values, n, 0), n, 1)
    else:
        abar, bbar = _factor_averages(W, n, m)
        values = np.outer(abar, bbar)
    return StepGraphon(_freeze(np.clip(values, 0.0, 1.0, out=values)))


def _factor_averages(W: Graphon, n: int, m: int = DEFAULT_QUADRATURE):
    """m-point midpoint cell averages (ā, b̄) of the factors a and b on the n-grid."""
    if not isinstance(W, SeparableGraphon):
        raise TypeError(f"{type(W).__name__} is neither a step nor a separable kernel")
    pts = (np.arange(n * m) + 0.5) / (n * m)
    abar = np.asarray(W.a(pts), dtype=float).reshape(n, m).mean(axis=1)
    bbar = np.asarray(W.b(pts), dtype=float).reshape(n, m).mean(axis=1)
    return abar, bbar


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """The local aggregate f ↦ ∫ W(·, s) f(s) ds of one kernel on one grid,
    discretized once, in one of three kinds:

    - "dense": a step kernel with k = N cells, e = V @ f / N;
    - "block": a step kernel with k | N and k < N, e = V @ f_k / k regridded to N,
      with f_k the cell averages of f on the k-grid, so no N x N matrix is formed;
    - "rank-1": a separable kernel a(t)b(s), e = ā (b̄ · f) / N from the factor
      averages of its step approximation, again with no N x N matrix.

    ``dense()`` materializes the step approximation's N x N matrix on demand.
    """

    kernel: Graphon
    grid: GridSpec
    kind: str = field(init=False)
    _factors: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        n = self.grid.n_cells
        if isinstance(self.kernel, StepGraphon):
            check_step_resolution(self.kernel, self.grid)
            kind, factors = ("dense" if self.kernel.n == n else "block"), (self.kernel.values,)
        else:
            kind, factors = "rank-1", _factor_averages(self.kernel, n)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_factors", factors)

    @property
    def sup(self) -> float:
        """The kernel sup, which bounds the operator's sup-norm."""
        return self.kernel.sup_norm()

    def apply(self, values) -> np.ndarray:
        """Aggregate of the step profile with these cell values, on the same grid."""
        n = self.grid.n_cells
        if np.shape(values) != (n,):
            raise ValueError(f"expected {n} values, got shape {np.shape(values)}")
        if self.kind == "rank-1":
            abar, bbar = self._factors
            return abar * (bbar @ values) / n
        (matrix,) = self._factors
        k = matrix.shape[0]  # k = N: both regrids return their input, e = V @ f / N
        return regrid_step_values(matrix @ regrid_step_values(values, k) / k, n)

    def dense(self) -> np.ndarray:
        """The N x N matrix of the kernel's step approximation on the grid."""
        return step_approximation(self.kernel, self.grid.n_cells).values


def local_aggregate(W: Graphon, f: StepProfile) -> StepProfile:
    """Cell-average quadrature of the externality integral e(t) = ∫ W(t,s) f(s) ds,
    by ``KernelOperator(W, f.grid)``: a step kernel must divide the profile's grid."""
    return StepProfile(f.grid, KernelOperator(W, f.grid).apply(f.values))


def iterated_kernel(W: Graphon, n: int, grid: GridSpec,
                    m: int = DEFAULT_QUADRATURE) -> StepGraphon:
    """n-fold integral composition of the kernel, W_n(t,s) = ∫ W(t,x) W_{n-1}(x,s) dx,
    at grid resolution: W_1 is the step approximation and each composition is a
    matrix product scaled by the cell measure."""
    check_count(n, "n")
    wbar = step_approximation(W, grid.n_cells, m).values
    kernel = wbar.copy() if n == 1 else wbar  # clipped in place below; wbar is shared
    for _ in range(n - 1):
        kernel = wbar @ kernel / grid.n_cells
    return StepGraphon(_freeze(np.clip(kernel, 0.0, 1.0, out=kernel)))


@dataclass(frozen=True, eq=False)
class ResolventKernel:
    """Truncated Neumann-series kernel Gamma(t,s,lambda) on a grid.

    gamma[i, j] approximates Gamma at cell pairs; tail_bound is the geometric
    bound on the dropped series tail at truncation_order terms, and sup_norm is
    the kernel sup used to compute it.
    """

    grid: GridSpec
    gamma: np.ndarray
    lam: float
    truncation_order: int
    tail_bound: float
    sup_norm: float

    def apply(self, f) -> StepProfile:
        """Cell quadrature of ∫ Gamma(t,s) f(s) ds."""
        vals = f.values if isinstance(f, StepProfile) else np.asarray(f, dtype=float)
        if vals.shape != (self.grid.n_cells,):
            raise ValueError(f"expected {self.grid.n_cells} values, got shape {vals.shape}")
        return StepProfile(self.grid, self.gamma @ vals / self.grid.n_cells)


def resolvent(W: Graphon, lam: float, grid: GridSpec, tol: float) -> ResolventKernel:
    """Truncated Neumann series Gamma = sum_{k=1}^{K} lambda^(k-1) W_k.

    K is the smallest order whose geometric tail sum_{k>K} lambda^(k-1) c^k is
    <= tol, with c the kernel sup.  Requires the contraction condition
    lambda * c < 1; with it, (I - lambda*K)^(-1) = I + lambda*Gamma holds on the
    grid up to the recorded tail bound.

    The sum is formed by Horner's rule, Gamma_1 = W̄ and
    Gamma_{j+1} = W̄ + lambda (W̄ @ Gamma_j) / N with W̄ the step approximation:
    the same K - 1 matrix products as the ascending sum.  Each product is
    written into whichever of two N x N buffers does not hold Gamma_j and
    finished in place, so W̄ and the two buffers are all that is held (W̄ is
    the kernel's own matrix for an N-step kernel).  At order 1, Gamma is W̄.
    """
    check_threshold(tol, "tolerance", positive=True)
    check_threshold(lam, "lambda")
    c = W.sup_norm()
    rho = lam * c
    if not (rho < 1.0):
        raise ContractionError(
            f"contraction violated: lambda * ||W||_inf = {rho:.6g} is not < 1"
        )

    def tail(k: int) -> float:
        return c * rho ** k / (1.0 - rho)

    order = 1
    while tail(order) > tol:
        order += 1

    n = grid.n_cells
    wbar = step_approximation(W, n).values
    gamma, spare = wbar, None
    for _ in range(order - 1):
        product = np.matmul(wbar, gamma, out=spare)
        product *= lam
        product /= n
        product += wbar
        gamma, spare = product, (None if gamma is wbar else gamma)
    return ResolventKernel(grid, _freeze(gamma), lam, order, tail(order), c)


def graphon_l1_distance(W1: Graphon, W2: Graphon, resolution: int | None = None) -> float:
    """L1 distance ∫∫ |W1 - W2| estimated by midpoint sampling.

    The default sampling grid refines every step resolution involved (making the
    distance exact between step graphons) and is at least 1024 cells per axis
    when an analytic kernel is present.  An explicit resolution must be an
    integer >= 1.  No sampling grid may exceed ``MAX_GRID_CELLS`` cells per
    axis.  W1's samples are written once into one N x N array and W2's are
    subtracted from it in place, ``SAMPLE_CHUNK`` cells at a time where a kernel
    factors, so one N x N array and a chunk are held, besides the temporary of
    evaluating a kernel that does not factor.  A distance that is not finite
    (a kernel sample that is NaN or infinite) raises ``ValueError``.
    """
    base = 1
    analytic = False
    for W in (W1, W2):
        if isinstance(W, StepGraphon):
            base = math.lcm(base, W.n)
        else:
            analytic = True
    if resolution is None:
        resolution = base
        if analytic:
            resolution = base * math.ceil(1024 / base)
            if resolution > MAX_GRID_CELLS:
                resolution = base
        if resolution > MAX_GRID_CELLS:
            raise GridCompatibilityError(
                f"exact sampling of step resolutions needs {resolution} cells "
                f"(cap {MAX_GRID_CELLS}); pass an explicit resolution to approximate"
            )
    else:
        check_count(resolution, "resolution")
    _check_matrix_cells(resolution)
    mids = (np.arange(resolution) + 0.5) / resolution
    diff = np.empty((resolution, resolution))
    _sample_into(diff, W1, mids, np.copyto)
    _sample_into(diff, W2, mids, operator.isub)
    distance = float(np.abs(diff, out=diff).mean())
    if not math.isfinite(distance):
        raise ValueError(f"kernel samples must be finite, got an L1 distance of {distance}")
    return distance


def _sample_into(out: np.ndarray, W: Graphon, mids: np.ndarray, op: Callable) -> None:
    """op(target, samples) over ``out`` with the samples W(mids[i], mids[j]).

    A separable kernel, or a step kernel whose resolution k divides the R-cell
    sampling grid, is sampled as its one-point step approximation
    ``step_approximation(W, R, m=1)`` on that grid, without gathering points:
    the outer product of its factor samples, or its entries broadcast over the
    (k, R/k, k, R/k) blocks of ``out``, taken ``SAMPLE_CHUNK`` cells at a time
    and clipped to [0, 1] as that step approximation clips them (an R-step
    kernel is its own approximation, unclipped).  Both equal ``evaluate`` on
    the broadcast grid bit for bit.  Any other kernel is evaluated there.
    """
    n = mids.size
    if isinstance(W, StepGraphon) and n % W.n == 0:
        k = W.n
        blocks = out.reshape(k, n // k, k, n // k)
        rows = max(1, SAMPLE_CHUNK // k)
        for i in range(0, k, rows):
            chunk = W.values[i:i + rows]
            if k < n:
                chunk = np.clip(chunk, 0.0, 1.0)
            op(blocks[i:i + rows], chunk[:, None, :, None])
    elif isinstance(W, SeparableGraphon):
        abar, bbar = _factor_averages(W, n, m=1)
        rows = max(1, SAMPLE_CHUNK // n)
        for i in range(0, n, rows):
            chunk = np.outer(abar[i:i + rows], bbar)
            op(out[i:i + rows], np.clip(chunk, 0.0, 1.0, out=chunk))
    else:
        op(out, np.asarray(W.evaluate(mids[:, None], mids[None, :]), dtype=float))
