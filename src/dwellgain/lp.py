"""Linear programs: construction, solving, LP-format dump.

The solver contract is the interface; the implementation hands each program
straight to the HiGHS binding that SciPy bundles, with the options
``linprog(method="highs")`` uses, and checks the answer as ``linprog`` did.
The binding is loaded directly from its extension file, so importing this
module never runs ``scipy.optimize`` (nor ``scipy.linalg`` or
``scipy.sparse``, which that package loads).
Rows are normalized to unit infinity-norm before solving because
interval-certificate bases are badly scaled at high order.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple, Optional

import numpy as np

from .errors import NumericalFailure


def _load_highs_core():
    """SciPy's HiGHS extension module, loaded from its file.

    Importing it as ``scipy.optimize._highspy._core`` would first run
    ``scipy/optimize/__init__.py``, which loads all of ``scipy.optimize``,
    ``scipy.linalg`` and ``scipy.sparse``; none of them is used here.
    """
    name = "scipy.optimize._highspy._core"
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("SciPy is not installed")
    directory = os.path.join(os.path.dirname(scipy_spec.origin), "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_core" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(name, path, loader=loader)
            )
            loader.exec_module(module)
            return module
    raise ImportError(f"no {name} extension module in {directory}")


try:
    _highs = _load_highs_core()
except ImportError as exc:  # SciPy too old to bundle the binding
    import scipy

    raise ImportError(
        "dwellgain needs SciPy >= 1.17, whose scipy.optimize._highspy._core "
        f"HiGHS binding it solves LPs with; SciPy {scipy.__version__} is installed"
    ) from exc

__all__ = [
    "LinearProgram",
    "LpSolution",
    "lp_solve",
    "dump_lp",
]

_REL_LE = "<="
_REL_EQ = "="


@dataclass
class LinearProgram:
    """Sparse LP: minimize objective subject to <=/= rows and variable bounds."""

    num_vars: int = 0
    objective: dict[int, float] = field(default_factory=dict)
    rows: list[tuple[dict[int, float], str, float]] = field(default_factory=list)
    bounds: dict[int, tuple[Optional[float], Optional[float]]] = field(default_factory=dict)
    names: dict[int, str] = field(default_factory=dict)

    def new_var(self, lo: Optional[float] = None, hi: Optional[float] = None, name: str = "") -> int:
        v = self.num_vars
        self.num_vars += 1
        if lo is not None or hi is not None:
            self.bounds[v] = (lo, hi)
        if name:
            self.names[v] = name
        return v

    def set_bounds(self, v: int, lo: Optional[float], hi: Optional[float]) -> None:
        self.bounds[v] = (lo, hi)

    def set_objective(self, coeffs: dict[int, float]) -> None:
        self.objective = dict(coeffs)

    def _check(self, coeffs: dict[int, float], sign: float = 1.0) -> dict[int, float]:
        """A fresh copy of the row, times `sign`, with zero coefficients dropped."""
        n = self.num_vars
        out = {}
        for v, c in coeffs.items():
            if not 0 <= v < n:
                raise ValueError(f"row references unknown variable {v}")
            if c != 0.0:
                out[v] = sign * float(c)
        return out

    def add_le(self, coeffs: dict[int, float], rhs: float) -> None:
        self.rows.append((self._check(coeffs), _REL_LE, float(rhs)))

    def add_ge(self, coeffs: dict[int, float], rhs: float) -> None:
        self.rows.append((self._check(coeffs, -1.0), _REL_LE, -float(rhs)))

    def add_eq(self, coeffs: dict[int, float], rhs: float) -> None:
        self.rows.append((self._check(coeffs), _REL_EQ, float(rhs)))

    def add_ge_block(self, cols: list[int], block: np.ndarray, rhs: np.ndarray) -> None:
        """One row block[s] . x[cols] >= rhs[s] per s, as add_ge stores it."""
        if cols and not (0 <= min(cols) and max(cols) < self.num_vars):
            raise ValueError("row references unknown variable")
        for row, r in zip((-block).tolist(), rhs.tolist()):
            coeffs = dict(zip(cols, row))
            if 0.0 in row:
                coeffs = {v: c for v, c in coeffs.items() if c != 0.0}
            self.rows.append((coeffs, _REL_LE, -r))


@dataclass
class LpSolution:
    status: str  # Optimal | Infeasible | Unbounded
    x: np.ndarray
    objective_value: float


class _Assembled(NamedTuple):
    """A program in HiGHS's row-wise form: <= rows first, then = rows."""

    c: np.ndarray
    col_lower: np.ndarray  # -inf where unbounded
    col_upper: np.ndarray  # +inf where unbounded
    start: np.ndarray  # row r holds entries start[r]:start[r + 1]
    index: np.ndarray  # column of each entry, ascending within a row
    value: np.ndarray
    rhs: np.ndarray
    num_le: int  # rows [0, num_le) are <= rows, the rest = rows


def _assemble(lp: LinearProgram) -> _Assembled:
    c = np.zeros(lp.num_vars)
    for v, coef in lp.objective.items():
        c[v] = coef
    # <= rows keep their order ahead of = rows
    rows = [r for r in lp.rows if r[1] != _REL_EQ]
    num_le = len(rows)
    rows += [r for r in lp.rows if r[1] == _REL_EQ]
    n = len(rows)
    sizes = np.fromiter((len(coeffs) for coeffs, _, _ in rows), np.int64, n)
    nnz = int(sizes.sum())
    cols = np.fromiter(chain.from_iterable(coeffs for coeffs, _, _ in rows), np.int64, nnz)
    vals = np.fromiter(chain.from_iterable(coeffs.values() for coeffs, _, _ in rows), float, nnz)
    rhs = np.fromiter((r for _, _, r in rows), float, n)
    # checked before scaling, which an infinite entry would turn into nan
    if not (np.isfinite(vals).all() and np.isfinite(rhs).all()):
        raise ValueError("LP rows must have finite coefficients and right-hand sides")
    # each row divided by its largest magnitude (empty rows by 1)
    row_of = np.repeat(np.arange(n), sizes)
    scale = np.zeros(n)
    if nnz:
        filled = sizes > 0
        scale[filled] = np.maximum.reduceat(np.abs(vals), (np.cumsum(sizes) - sizes)[filled])
    scale[scale == 0.0] = 1.0
    vals = vals / scale[row_of]
    # a row of subnormal coefficients scales its bound past the float range;
    # lp_solve refuses that inf with the other bounds beyond HiGHS's infinity
    with np.errstate(over="ignore"):
        rhs = rhs / scale
    # explicit zeros (underflow of the scaling) dropped, entries sorted by
    # column within each row
    keep = vals != 0.0
    row_of, cols, vals = row_of[keep], cols[keep], vals[keep]
    order = np.lexsort((cols, row_of))
    start = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(row_of, minlength=n), out=start[1:])
    # None reads as nan, which means unbounded, as in linprog
    lower, upper = np.array(
        [lp.bounds.get(v, (None, None)) for v in range(lp.num_vars)], dtype=float
    ).reshape(-1, 2).T
    lower[np.isnan(lower)] = -np.inf
    upper[np.isnan(upper)] = np.inf
    return _Assembled(c, lower, upper, start, cols[order], vals[order], rhs, num_le)


def _highs_options():
    """The options linprog(method="highs") sets: presolve, dual simplex, silent."""
    opts = _highs.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.log_to_console = False
    opts.output_flag = False
    return opts


_OPTIONS = _highs_options()
_STATUS = _highs.HighsModelStatus
# linprog's _check_result tolerance at its default tol=1e-9
_RESULT_TOL = math.sqrt(1e-9) * 10


def _highs_lp(a: _Assembled):
    m = _highs.HighsLp()
    m.num_col_ = m.a_matrix_.num_col_ = len(a.c)
    m.num_row_ = m.a_matrix_.num_row_ = len(a.rhs)
    m.col_cost_ = a.c
    m.col_lower_ = a.col_lower
    m.col_upper_ = a.col_upper
    m.row_lower_ = np.concatenate((np.full(a.num_le, -np.inf), a.rhs[a.num_le:]))
    m.row_upper_ = a.rhs
    m.a_matrix_.format_ = _highs.MatrixFormat.kRowwise
    m.a_matrix_.start_ = a.start
    m.a_matrix_.index_ = a.index
    m.a_matrix_.value_ = a.value
    return m


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve; Optimal solutions are re-checked for feasibility within 1e-7."""
    a = _assemble(lp)
    if lp.num_vars == 0:
        raise ValueError("LP has no variables")
    if not np.isfinite(a.c).all():
        raise ValueError("LP objective must be finite")
    # HiGHS reads a cost at or beyond its infinite_cost (1e20), and a finite
    # bound at or beyond its infinite_bound (1e20), as infinite
    big = np.flatnonzero(np.abs(a.c) >= _OPTIONS.infinite_cost)
    if big.size:
        v = int(big[0])
        raise NumericalFailure(
            f"column {lp.names.get(v, f'x{v}')} has cost {a.c[v]:.6g}, beyond {_OPTIONS.infinite_cost:g}"
        )
    inf = _OPTIONS.infinite_bound
    big = np.flatnonzero(np.abs(a.rhs) >= inf)
    if big.size:
        k = int(big[0])
        i = sorted(range(len(lp.rows)), key=lambda r: lp.rows[r][1] == _REL_EQ)[k]  # as assembled
        raise NumericalFailure(f"row c{i} scaled to unit norm has bound {a.rhs[k]:.6g}, beyond {inf:g}")
    for side, bound in (("lower", a.col_lower), ("upper", a.col_upper)):
        big = np.flatnonzero(np.isfinite(bound) & (np.abs(bound) >= inf))
        if big.size:
            v = int(big[0])
            raise NumericalFailure(f"column {lp.names.get(v, f'x{v}')} has {side} bound {bound[v]:.6g}, beyond {inf:g}")
    highs = _highs._Highs()
    solved = False
    if highs.passOptions(_OPTIONS) == _highs.HighsStatus.kError:
        status = _STATUS.kNotset
    elif highs.passModel(_highs_lp(a)) == _highs.HighsStatus.kError:
        status = _STATUS.kModelError
    else:
        solved = highs.run() != _highs.HighsStatus.kError
        status = highs.getModelStatus()
    if status == _STATUS.kInfeasible:
        return LpSolution("Infeasible", np.zeros(lp.num_vars), np.inf)
    if status == _STATUS.kUnbounded:
        return LpSolution("Unbounded", np.zeros(lp.num_vars), -np.inf)
    if status != _STATUS.kOptimal or not solved:
        raise NumericalFailure(
            f"LP solver did not converge: HiGHS model status {highs.modelStatusToString(status)}"
        )
    solution = highs.getSolution()
    x = np.array(solution.col_value, dtype=float)
    fun = float(highs.getInfo().objective_function_value)
    # slack of <= rows, residual of = rows, from HiGHS's row values
    resid = a.rhs - np.array(solution.row_value, dtype=float)
    tol = _RESULT_TOL
    if (
        np.isnan(x).any()
        or math.isnan(fun)
        or np.isnan(resid).any()
        or not np.all((x >= a.col_lower - tol) & (x <= a.col_upper + tol))
        or (resid[: a.num_le] < -tol).any()
        or (np.abs(resid[a.num_le :]) > tol).any()
    ):
        raise NumericalFailure("LP solution from HiGHS fails its bounds or rows")
    # each row summed entry by entry in column order, as a CSR product does
    sizes = np.diff(a.start)
    Ax = np.bincount(
        np.repeat(np.arange(len(sizes)), sizes), weights=a.value * x[a.index], minlength=len(sizes)
    )
    viol = max(
        float(np.max(Ax[: a.num_le] - a.rhs[: a.num_le], initial=0.0)),
        float(np.max(np.abs(Ax[a.num_le :] - a.rhs[a.num_le :]), initial=0.0)),
    )
    if viol > 1e-7:
        raise NumericalFailure(f"solution violates constraints by {viol:.2e}")
    return LpSolution("Optimal", x, fun)


def dump_lp(lp: LinearProgram, path: str) -> None:
    """Write the program in CPLEX LP format for external cross-checking."""

    def var(v: int) -> str:
        return lp.names.get(v, f"x{v}")

    def terms(coeffs: dict[int, float]) -> str:
        parts = []
        for v in sorted(coeffs):
            coef = coeffs[v]
            sign = "-" if coef < 0 else "+"
            parts.append(f"{sign} {abs(coef):.17g} {var(v)}")
        s = " ".join(parts) if parts else "0 x0"
        return s[2:] if s.startswith("+ ") else s

    lines = ["Minimize", " obj: " + terms(lp.objective), "Subject To"]
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        op = "<=" if rel == _REL_LE else "="
        lines.append(f" c{i}: {terms(coeffs)} {op} {rhs:.17g}")
    lines.append("Bounds")
    for v in range(lp.num_vars):
        lo, hi = lp.bounds.get(v, (None, None))
        lo_s = "-inf" if lo is None else f"{lo:.17g}"
        hi_s = "+inf" if hi is None else f"{hi:.17g}"
        lines.append(f" {lo_s} <= {var(v)} <= {hi_s}")
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

