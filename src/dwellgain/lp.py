"""Linear programs: construction, solving, bisection referee, LP-format dump.

The solver contract is the interface; the implementation hands each program
straight to the HiGHS binding that SciPy bundles, with the options
``linprog(method="highs")`` uses, and checks the answer as ``linprog`` did.
Rows are normalized to unit infinity-norm before solving because
interval-certificate bases are badly scaled at high order.

Also provides LinExpr/PolyExpr, affine expressions over LP variables that the
analysis and synthesis encoders assemble their constraint polynomials from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import Infeasible, NumericalFailure

try:
    from scipy.optimize._highspy import _core as _highs
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
    "lp_bisect_feasibility",
    "dump_lp",
    "LinExpr",
    "PolyExpr",
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


def lp_bisect_feasibility(
    builder: Callable[[float], LinearProgram],
    gamma_lo: float,
    gamma_hi: float,
    tol: float = 1e-4,
) -> float:
    """Smallest feasible gamma in [gamma_lo, gamma_hi] for a monotone builder.

    Debugging referee for direct minimization; raises Infeasible when even
    gamma_hi fails.
    """
    if not gamma_lo < gamma_hi:
        raise ValueError("need gamma_lo < gamma_hi")

    def feasible(g: float) -> bool:
        return lp_solve(builder(g)).status == "Optimal"

    if not feasible(gamma_hi):
        raise Infeasible(f"builder infeasible at gamma_hi={gamma_hi}")
    if feasible(gamma_lo):
        return gamma_lo
    lo, hi = gamma_lo, gamma_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


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


class LinExpr:
    """Affine expression c0 + sum coeff[v] * x[v] over LP variables."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[dict[int, float]] = None, const: float = 0.0):
        self.coeffs = dict(coeffs) if coeffs else {}
        self.const = float(const)

    @staticmethod
    def variable(v: int) -> "LinExpr":
        return LinExpr({v: 1.0})

    @staticmethod
    def constant(c: float) -> "LinExpr":
        return LinExpr(None, c)

    def copy(self) -> "LinExpr":
        return LinExpr(self.coeffs, self.const)

    def scaled(self, s: float) -> "LinExpr":
        if s == 0.0:
            return LinExpr()
        return LinExpr({v: s * c for v, c in self.coeffs.items()}, s * self.const)

    def add_inplace(self, other: "LinExpr", scale: float = 1.0) -> None:
        if scale == 0.0:
            return
        for v, c in other.coeffs.items():
            self.coeffs[v] = self.coeffs.get(v, 0.0) + scale * c
        self.const += scale * other.const

    def __add__(self, other):
        out = self.copy()
        if isinstance(other, LinExpr):
            out.add_inplace(other)
        else:
            out.const += float(other)
        return out

    def __sub__(self, other):
        other = other if isinstance(other, LinExpr) else LinExpr.constant(float(other))
        return self + other.scaled(-1.0)

    def __neg__(self):
        return self.scaled(-1.0)

    @property
    def is_zero(self) -> bool:
        return self.const == 0.0 and not any(self.coeffs.values())

    def value(self, x: np.ndarray) -> float:
        return self.const + sum(c * x[v] for v, c in self.coeffs.items())


class PolyExpr:
    """Polynomial whose coefficients are LinExpr (affine in LP variables)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[LinExpr]):
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1].is_zero:
            cs.pop()
        self.coeffs = cs if cs else [LinExpr()]

    @staticmethod
    def from_vars(var_ids: Sequence[int]) -> "PolyExpr":
        return PolyExpr([LinExpr.variable(v) for v in var_ids])

    @staticmethod
    def from_poly(coeffs: Sequence[float]) -> "PolyExpr":
        return PolyExpr([LinExpr.constant(c) for c in coeffs])

    @staticmethod
    def zero() -> "PolyExpr":
        return PolyExpr([LinExpr()])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "PolyExpr") -> "PolyExpr":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [LinExpr() for _ in range(n)]
        for k, c in enumerate(self.coeffs):
            out[k].add_inplace(c)
        for k, c in enumerate(other.coeffs):
            out[k].add_inplace(c)
        return PolyExpr(out)

    def __sub__(self, other: "PolyExpr") -> "PolyExpr":
        return self + other.scaled(-1.0)

    def __neg__(self) -> "PolyExpr":
        return self.scaled(-1.0)

    def scaled(self, s: float) -> "PolyExpr":
        return PolyExpr([c.scaled(s) for c in self.coeffs])

    def mul_poly(self, data: Sequence[float]) -> "PolyExpr":
        """Multiply by a constant-coefficient polynomial (convolution)."""
        out = [LinExpr() for _ in range(len(self.coeffs) + len(data) - 1)]
        for j, d in enumerate(data):
            if d == 0.0:
                continue
            for k, c in enumerate(self.coeffs):
                out[j + k].add_inplace(c, d)
        return PolyExpr(out)

    def deriv(self) -> "PolyExpr":
        if len(self.coeffs) == 1:
            return PolyExpr.zero()
        return PolyExpr([c.scaled(float(k)) for k, c in enumerate(self.coeffs) if k > 0])

    def eval_at(self, t: float) -> LinExpr:
        out = LinExpr()
        tk = 1.0
        for c in self.coeffs:
            out.add_inplace(c, tk)
            tk *= t
        return out

    def eval_grid(self, ts: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
        """eval_at at every t in ts in one pass: (cols, block, const) with
        eval_at(ts[s]) = block[s] . x[cols] + const[s].  The powers are the
        running products eval_at takes and coefficient k is added after
        coefficient k - 1, so every finite value is bit-equal to eval_at's
        (the zero terms it skips change no sum)."""
        cols = sorted(set(chain.from_iterable(c.coeffs for c in self.coeffs)))
        pos = {v: j for j, v in enumerate(cols)}
        coef = np.zeros((len(self.coeffs), len(cols) + 1))  # last column: the constant
        for k, c in enumerate(self.coeffs):
            coef[k, [pos[v] for v in c.coeffs]] = list(c.coeffs.values())
            coef[k, -1] = c.const
        powers = np.cumprod(np.column_stack([np.ones(len(ts))] + [ts] * self.degree), axis=1)
        acc = np.zeros((len(ts), len(cols) + 1))
        for k in range(len(self.coeffs)):
            acc += powers[:, k, None] * coef[k]
        return cols, acc[:, :-1], acc[:, -1]

    def shift_scale_arg(self, a: float, h: float) -> "PolyExpr":
        """PolyExpr q with q(s) = p(a + h*s)."""
        n = len(self.coeffs)
        out = []
        for k in range(n):
            acc = LinExpr()
            for j in range(k, n):
                acc.add_inplace(self.coeffs[j], math.comb(j, k) * a ** (j - k))
            out.append(acc.scaled(h**k))
        return PolyExpr(out)

    def value(self, x: np.ndarray):
        """Substitute a solution vector, yielding a concrete Poly."""
        from .poly import Poly

        return Poly(tuple(c.value(x) for c in self.coeffs))
