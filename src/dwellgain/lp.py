"""Linear programs: construction, solving, bisection referee, LP-format dump.

The solver contract is the interface; the implementation delegates to the
HiGHS backend behind it.  Rows are normalized to unit infinity-norm before
solving because interval-certificate bases are badly scaled at high order.

Also provides LinExpr/PolyExpr, affine expressions over LP variables that the
analysis and synthesis encoders assemble their constraint polynomials from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import Infeasible, NumericalFailure

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

    def _check(self, coeffs: dict[int, float]) -> dict[int, float]:
        for v in coeffs:
            if not 0 <= v < self.num_vars:
                raise ValueError(f"row references unknown variable {v}")
        return {v: float(c) for v, c in coeffs.items() if c != 0.0}

    def add_le(self, coeffs: dict[int, float], rhs: float) -> None:
        self.rows.append((self._check(coeffs), _REL_LE, float(rhs)))

    def add_ge(self, coeffs: dict[int, float], rhs: float) -> None:
        self.rows.append(({v: -c for v, c in self._check(coeffs).items()}, _REL_LE, -float(rhs)))

    def add_eq(self, coeffs: dict[int, float], rhs: float) -> None:
        self.rows.append((self._check(coeffs), _REL_EQ, float(rhs)))


@dataclass
class LpSolution:
    status: str  # Optimal | Infeasible | Unbounded
    x: np.ndarray
    objective_value: float


def _assemble(lp: LinearProgram):
    c = np.zeros(lp.num_vars)
    for v, coef in lp.objective.items():
        c[v] = coef
    n = len(lp.rows)
    sizes = np.fromiter((len(coeffs) for coeffs, _, _ in lp.rows), np.int64, n)
    nnz = int(sizes.sum())
    cols = np.fromiter(chain.from_iterable(coeffs for coeffs, _, _ in lp.rows), np.int64, nnz)
    vals = np.fromiter(chain.from_iterable(coeffs.values() for coeffs, _, _ in lp.rows), float, nnz)
    rhs = np.fromiter((r for _, _, r in lp.rows), float, n)
    is_eq = np.fromiter((rel == _REL_EQ for _, rel, _ in lp.rows), bool, n)
    # each row divided by its largest magnitude (empty rows by 1)
    row_of = np.repeat(np.arange(n), sizes)
    scale = np.zeros(n)
    if nnz:
        filled = sizes > 0
        scale[filled] = np.maximum.reduceat(np.abs(vals), (np.cumsum(sizes) - sizes)[filled])
    scale[scale == 0.0] = 1.0
    vals = vals / scale[row_of]
    rhs = rhs / scale

    def to_csr(select):
        local = np.cumsum(select) - 1  # row index within its block
        keep = select[row_of] & (vals != 0.0)
        shape = (int(select.sum()), lp.num_vars)
        return sp.csr_matrix((vals[keep], (local[row_of[keep]], cols[keep])), shape=shape)

    bounds = [lp.bounds.get(v, (None, None)) for v in range(lp.num_vars)]
    return c, to_csr(~is_eq), rhs[~is_eq], to_csr(is_eq), rhs[is_eq], bounds


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve; Optimal solutions are re-checked for feasibility within 1e-7."""
    c, A_ub, b_ub, A_eq, b_eq, bounds = _assemble(lp)
    res = linprog(
        c,
        A_ub=A_ub if A_ub.shape[0] else None,
        b_ub=b_ub if A_ub.shape[0] else None,
        A_eq=A_eq if A_eq.shape[0] else None,
        b_eq=b_eq if A_eq.shape[0] else None,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        return LpSolution("Infeasible", np.zeros(lp.num_vars), np.inf)
    if res.status == 3:
        return LpSolution("Unbounded", np.zeros(lp.num_vars), -np.inf)
    if res.status != 0:
        raise NumericalFailure(f"LP solver did not converge: {res.message}")
    x = np.asarray(res.x, dtype=float)
    viol = 0.0
    if A_ub.shape[0]:
        viol = max(viol, float(np.max(A_ub @ x - b_ub, initial=0.0)))
    if A_eq.shape[0]:
        viol = max(viol, float(np.max(np.abs(A_eq @ x - b_eq), initial=0.0)))
    if viol > 1e-7:
        raise NumericalFailure(f"solution violates constraints by {viol:.2e}")
    return LpSolution("Optimal", x, float(res.fun))


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
