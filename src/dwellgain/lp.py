"""Linear programs: construction, solving, LP-format dump.

A program holds its rows as blocks in CSR form (`RowBlock`), each of one
relation, and its columns one by one or as ranges of like columns, whose
names are made only when read.  The encoders write each run of like rows as
one block; `rows`, `bounds` and `names` read a program row by row.

The solver contract is the interface; the implementation concatenates the
blocks (`_assemble`) and passes the arrays straight to the HiGHS binding
that SciPy bundles, with the options ``linprog(method="highs")`` uses but
presolve, which each program sets (`LinearProgram.presolve`: the analyses'
Bernstein programs are solved without it, the designs with it), and checks
the answer as ``linprog`` did.  Each thread keeps one HiGHS object and hands
it every program it solves.  The binding is loaded directly from
its extension file, so importing this module never runs ``scipy.optimize``
(nor ``scipy.linalg`` or ``scipy.sparse``, which that package loads).
Rows are normalized to unit infinity-norm before solving because
interval-certificate bases are badly scaled at high order.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

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
    "RowBlock",
    "LpSolution",
    "lp_solve",
    "dump_lp",
]

_REL_LE = "<="
_REL_EQ = "="


class RowBlock(NamedTuple):
    """Rows of one relation, "<=" or "=", in CSR form: row r is the sum of
    values[e] x[indices[e]] over e in indptr[r]:indptr[r + 1], related to
    rhs[r], with its columns ascending and its values nonzero."""

    rel: str
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    rhs: np.ndarray


class _ColumnRange(NamedTuple):
    """len(prefixes) * len(suffixes) columns from start on, each bounded by
    (lo, hi); column start + p * len(suffixes) + s is named prefixes[p] +
    suffixes[s]."""

    start: int
    lo: Optional[float]
    hi: Optional[float]
    prefixes: Sequence[str]
    suffixes: Sequence[str]

    @property
    def stop(self) -> int:
        return self.start + len(self.prefixes) * len(self.suffixes)


class LinearProgram:
    """Sparse LP: minimize objective subject to blocks of <=/= rows, in the
    order added, and column bounds (None: unbounded).  Columns come one by
    one (`new_var`) or as ranges of like columns (`add_columns`), one bound
    pair each and names made only when read.  `rows`, `bounds` and `names`
    read the program row by row and column by column, each built anew.
    presolve says whether HiGHS presolves the program (on by default)."""

    presolve = True

    def __init__(self, num_vars: int = 0, objective: Optional[dict[int, float]] = None,
                 bounds: Optional[dict] = None, names: Optional[dict[int, str]] = None):
        self.num_vars = num_vars
        self.objective = {} if objective is None else objective
        self.blocks: list[RowBlock] = []
        self._bounds = {} if bounds is None else bounds  # of single columns
        self._names = {} if names is None else names
        self._ranges: list[_ColumnRange] = []

    def copy(self) -> "LinearProgram":
        """A program with these columns, objective and blocks, to add to apart from this one."""
        lp = LinearProgram(self.num_vars, dict(self.objective), dict(self._bounds), dict(self._names))
        lp.blocks, lp._ranges, lp.presolve = list(self.blocks), list(self._ranges), self.presolve
        return lp

    def new_var(self, lo: Optional[float] = None, hi: Optional[float] = None, name: str = "") -> int:
        v = self.num_vars
        self.num_vars += 1
        if lo is not None or hi is not None:
            self._bounds[v] = (lo, hi)
        if name:
            self._names[v] = name
        return v

    def add_columns(self, lo: Optional[float], hi: Optional[float], prefixes: Sequence[str],
                    suffixes: Sequence[str]) -> int:
        """len(prefixes) * len(suffixes) new columns bounded by (lo, hi),
        column p * len(suffixes) + s of them named prefixes[p] + suffixes[s];
        returns the first one's index."""
        r = _ColumnRange(self.num_vars, lo, hi, prefixes, suffixes)
        self._ranges.append(r)
        self.num_vars = r.stop
        return r.start

    def add_rows(self, rel: str, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray,
                 rhs: np.ndarray) -> None:
        """Append the RowBlock (rel, indptr, indices, values, rhs)."""
        if rel not in (_REL_LE, _REL_EQ):
            raise ValueError(f"unknown row relation {rel!r}")
        if indices.size and not (0 <= indices.min() and indices.max() < self.num_vars):
            v = indices[(indices < 0) | (indices >= self.num_vars)][0]
            raise ValueError(f"row references unknown variable {v}")
        self.blocks.append(RowBlock(rel, indptr, indices, values, rhs))

    @property
    def rows(self) -> list[tuple[dict[int, float], str, float]]:
        """Every row as ({column: coefficient}, relation, rhs), in order; built on each read."""
        out = []
        for b in self.blocks:
            ptr, idx, val = b.indptr.tolist(), b.indices.tolist(), b.values.tolist()
            out += [(dict(zip(idx[s:e], val[s:e])), b.rel, r) for s, e, r in zip(ptr, ptr[1:], b.rhs.tolist())]
        return out

    @property
    def bounds(self) -> dict[int, tuple[Optional[float], Optional[float]]]:
        """{column: (lo, hi)} of every column with a bound; built on each read."""
        out = dict(self._bounds)
        for r in self._ranges:
            out.update(dict.fromkeys(range(r.start, r.stop), (r.lo, r.hi)))
        return out

    @property
    def names(self) -> dict[int, str]:
        """{column: name} of every named column; built on each read."""
        out = dict(self._names)
        for r in self._ranges:
            out.update(zip(range(r.start, r.stop), (p + s for p in r.prefixes for s in r.suffixes)))
        return out


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
    # <= blocks keep their order ahead of = blocks
    blocks = [b for b in lp.blocks if b.rel != _REL_EQ]
    num_le = sum(len(b.rhs) for b in blocks)
    blocks += [b for b in lp.blocks if b.rel == _REL_EQ]
    sizes = np.concatenate([np.diff(b.indptr) for b in blocks] + [np.zeros(0, np.int64)])
    n, nnz = len(sizes), int(sizes.sum())
    # indices as HiGHS's 32-bit HighsInt
    cols = np.concatenate([b.indices for b in blocks] + [np.zeros(0, np.int32)], dtype=np.int32)
    vals = np.concatenate([b.values for b in blocks] + [np.zeros(0)])
    rhs = np.concatenate([b.rhs for b in blocks] + [np.zeros(0)])
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
    # explicit zeros (underflow of the scaling) dropped; the blocks hold each
    # row's entries in column order already
    keep = vals != 0.0
    start = np.zeros(n + 1, np.int32)
    np.cumsum(np.bincount(row_of[keep], minlength=n), out=start[1:])
    lower, upper = np.full(lp.num_vars, -np.inf), np.full(lp.num_vars, np.inf)
    for v, (lo, hi) in lp._bounds.items():
        lower[v] = -np.inf if lo is None else lo
        upper[v] = np.inf if hi is None else hi
    for r in lp._ranges:
        lower[r.start : r.stop] = -np.inf if r.lo is None else r.lo
        upper[r.start : r.stop] = np.inf if r.hi is None else r.hi
    return _Assembled(c, lower, upper, start, cols[keep], vals[keep], rhs, num_le)


def _highs_options():
    """The options linprog(method="highs") sets: presolve, dual simplex,
    silent.  Presolve is set again for each solve from the program
    (`LinearProgram.presolve`)."""
    opts = _highs.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.log_to_console = False
    opts.output_flag = False
    return opts


_OPTIONS = _highs_options()
_THREAD = threading.local()  # .highs: the thread's solver object (`_solver`)
_STATUS = _highs.HighsModelStatus
_ROWWISE = int(_highs.MatrixFormat.kRowwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)
# linprog's _check_result tolerance at its default tol=1e-9
_RESULT_TOL = math.sqrt(1e-9) * 10


def _solver():
    """(This thread's HiGHS object, whether HiGHS accepted _OPTIONS): the
    object is made on the thread's first solve and kept for every later one
    only once its options are accepted."""
    highs = getattr(_THREAD, "highs", None)
    if highs is not None:
        return highs, True
    highs = _highs._Highs()
    if highs.passOptions(_OPTIONS) == _highs.HighsStatus.kError:
        return highs, False
    _THREAD.highs = highs
    return highs, True


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve with presolve as lp.presolve says, handing the assembled arrays
    to this thread's HiGHS object (`_solver`), whose passModel replaces the
    previous program; Optimal solutions are re-checked for feasibility
    within 1e-7."""
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
        rels = [rel for _, rel, _ in lp.rows]
        i = sorted(range(len(rels)), key=lambda r: rels[r] == _REL_EQ)[k]  # as assembled
        raise NumericalFailure(f"row c{i} scaled to unit norm has bound {a.rhs[k]:.6g}, beyond {inf:g}")
    for side, bound in (("lower", a.col_lower), ("upper", a.col_upper)):
        big = np.flatnonzero(np.isfinite(bound) & (np.abs(bound) >= inf))
        if big.size:
            v = int(big[0])
            raise NumericalFailure(f"column {lp.names.get(v, f'x{v}')} has {side} bound {bound[v]:.6g}, beyond {inf:g}")
    highs, accepted = _solver()
    solved = False
    if not accepted or highs.setOptionValue("presolve", "on" if lp.presolve else "off") == _highs.HighsStatus.kError:
        status = _STATUS.kNotset
    elif highs.passModel(
        len(a.c), len(a.rhs), len(a.value), _ROWWISE, _MINIMIZE, 0.0, a.c, a.col_lower, a.col_upper,
        np.concatenate((np.full(a.num_le, -np.inf), a.rhs[a.num_le :])), a.rhs, a.start, a.index, a.value,
        np.zeros(len(a.c), np.int32),  # every column continuous; an empty array is a model error
    ) == _highs.HighsStatus.kError:
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

    names, bounds = lp.names, lp.bounds

    def var(v: int) -> str:
        return names.get(v, f"x{v}")

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
        lo, hi = bounds.get(v, (None, None))
        lo_s = "-inf" if lo is None else f"{lo:.17g}"
        hi_s = "+inf" if hi is None else f"{hi:.17g}"
        lines.append(f" {lo_s} <= {var(v)} <= {hi_s}")
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

