"""State-feedback synthesis through the diagonal change of variables.

The decision variables are a diagonal polynomial matrix X(tau) and numerator
gains U; the closed-loop positivity and performance rows are affine in them,
so gain minimization stays a linear program.  Controllers are recovered as
rational gains Kc(tau) = Uc(tau) X(tau)^{-1} and never expanded symbolically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence, Union

import numpy as np

from .analysis import (
    DEFAULT_MARGIN,
    RELAX_SCHEDULE,
    Certificate,
    _Program,
    _row_ones,
    _solve_with_escalation,
)
from .errors import DimensionMismatch, IllPosed, ParseError
from .lp import LinExpr, PolyExpr
from .model import DwellTimeSpec, ImpulsiveSystem, PolyMatrix, SwitchedSystem
from .poly import Poly

__all__ = [
    "ControllerRealization",
    "synthesize",
    "synthesize_switched",
    "realize_gain",
    "closed_loop",
    "certificate_from",
    "ClosedLoopView",
]

_X_MIN = 1e-3
_X_CAP = 1e6
_ALPHA_CAP = 1e9


def _poly_rows(rows: Sequence[Sequence[Poly]]) -> list[list[list[float]]]:
    return [[list(p.coeffs) for p in row] for row in rows]


def _rows_from_json(data) -> list[list[Poly]]:
    return [[Poly.from_json(p) for p in row] for row in data]


@dataclass
class ControllerRealization:
    """Diagonal denominator X, numerator gains, and the certified gain level."""

    kind: str  # ArbitraryDT | ConstantDT | RangeDT | RangeDT_FixedKd | MinimumDT | SwitchedMinDT
    dwell: DwellTimeSpec
    gamma: float
    degree: int
    margin: float
    X: Union[list[Poly], list[list[Poly]]]
    Uc: Union[list[list[Poly]], list[list[list[Poly]]]]
    Ud: Union[np.ndarray, list[list[Poly]], None] = None
    M: Optional[np.ndarray] = None

    @property
    def per_mode(self) -> bool:
        return self.kind == "SwitchedMinDT"

    @property
    def clamp(self) -> Optional[float]:
        return self.dwell.clamp

    def _x_mode(self, mode) -> list[Poly]:
        return self.X[mode] if self.per_mode else self.X

    def _uc_mode(self, mode) -> list[list[Poly]]:
        return self.Uc[mode] if self.per_mode else self.Uc

    def x_values(self, taus: np.ndarray, mode=None) -> np.ndarray:
        t = np.minimum(taus, self.clamp) if self.clamp is not None else taus
        return np.stack([p.eval(t) for p in self._x_mode(mode)], axis=1)

    def kc_mesh(self, taus: np.ndarray, mode=None) -> np.ndarray:
        """K_c on a mesh: (len(taus), mc, n); clamped for minimum dwell-time."""
        taus = np.asarray(taus, dtype=float)
        t = np.minimum(taus, self.clamp) if self.clamp is not None else taus
        xv = self.x_values(t, mode)
        if np.min(xv) <= 0.0:
            raise IllPosed("denominator X(tau) not positive on the requested mesh")
        uc = self._uc_mode(mode)
        mc = len(uc)
        n = len(self._x_mode(mode))
        out = np.empty((len(t), mc, n))
        for i in range(mc):
            for j in range(n):
                out[:, i, j] = uc[i][j].eval(t) / xv[:, j]
        return out

    def kc(self, tau: float, mode=None) -> np.ndarray:
        return self.kc_mesh(np.array([float(tau)]), mode=mode)[0]

    @property
    def _ud_poly(self) -> bool:
        """Ud holds polynomial rows in theta (a genuine range design); else
        it is a constant array (a degenerate range [T, T] included)."""
        return self.Ud is not None and not isinstance(self.Ud, np.ndarray)

    def kd(self, theta: Optional[float] = None, mode=None) -> np.ndarray:
        """Discrete gain K_d = U_d X(.)^{-1} at the proper evaluation point."""
        if self.Ud is None:
            n = len(self.X[0]) if self.per_mode else len(self.X)
            return np.zeros((0, n))
        if self.kind == "RangeDT_FixedKd":
            return np.asarray(self.Ud) / np.asarray(self.M)[None, :]
        if self.kind == "RangeDT":
            if theta is None:
                raise ValueError("range dwell-time controller needs theta")
            at = float(np.clip(theta, self.dwell.Tmin, self.dwell.Tmax))
        elif self.kind in ("ConstantDT", "MinimumDT"):
            at = self.dwell.T
        else:  # ArbitraryDT
            at = 0.0
        xv = np.array([p.eval(at) for p in self.X])
        if np.min(xv) <= 0.0:
            raise IllPosed("denominator X not positive at the jump evaluation point")
        ud = np.array([[p.eval(at) for p in row] for row in self.Ud]) if self._ud_poly else np.asarray(self.Ud)
        return ud / xv[None, :]

    def to_json(self) -> dict:
        data = {
            "type": "controller",
            "kind": self.kind,
            "dwell": str(self.dwell),
            "gamma": self.gamma,
            "degree": self.degree,
            "margin": self.margin,
        }
        if self.per_mode:
            data["X"] = [[list(p.coeffs) for p in mode] for mode in self.X]
            data["Uc"] = [_poly_rows(mode) for mode in self.Uc]
        else:
            data["X"] = [list(p.coeffs) for p in self.X]
            data["Uc"] = _poly_rows(self.Uc)
        if self.Ud is not None:
            if self._ud_poly:
                data["Ud_poly"] = _poly_rows(self.Ud)
            else:
                data["Ud"] = np.asarray(self.Ud).tolist()
        if self.M is not None:
            data["M"] = np.asarray(self.M).tolist()
        return data

    @staticmethod
    def from_json(data: dict) -> "ControllerRealization":
        try:
            kind = data["kind"]
            per_mode = kind == "SwitchedMinDT"
            X = (
                [[Poly.from_json(p) for p in mode] for mode in data["X"]]
                if per_mode
                else [Poly.from_json(p) for p in data["X"]]
            )
            Uc = (
                [_rows_from_json(mode) for mode in data["Uc"]]
                if per_mode
                else _rows_from_json(data["Uc"])
            )
            Ud = None
            if "Ud_poly" in data:
                Ud = _rows_from_json(data["Ud_poly"])
            elif "Ud" in data:
                Ud = np.asarray(data["Ud"], dtype=float)
            M = np.asarray(data["M"], dtype=float) if "M" in data else None
            return ControllerRealization(
                kind=kind,
                dwell=DwellTimeSpec.parse(data["dwell"]),
                gamma=float(data["gamma"]),
                degree=int(data["degree"]),
                margin=float(data["margin"]),
                X=X,
                Uc=Uc,
                Ud=Ud,
                M=M,
            )
        except KeyError as exc:
            raise ParseError(f"controller file missing field {exc.args[0]!r}") from exc

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path: str) -> "ControllerRealization":
        with open(path) as fh:
            return ControllerRealization.from_json(json.load(fh))


def realize_gain(ctrl: ControllerRealization, tau: float, mode: Optional[int] = None) -> np.ndarray:
    """Continuous gain K_c(tau) = U_c(tau) diag(X(tau))^{-1} (clamped timer)."""
    return ctrl.kc(tau, mode=mode)


def _bilinear_entry(A_pm: PolyMatrix, X: list[PolyExpr], B_pm: PolyMatrix,
                    U: list[list[PolyExpr]], i: int, j: int) -> PolyExpr:
    """(A(tau) X(tau) + B(tau) U(tau))_{ij} as a PolyExpr (X diagonal)."""
    expr = X[j].mul_poly(A_pm.entry(i, j).coeffs)
    for l in range(len(U)):
        b = B_pm.entry(i, l)
        if not b.is_zero:
            expr = expr + U[l][j].mul_poly(b.coeffs)
    return expr


def _sum_entries(exprs: Sequence[PolyExpr]) -> PolyExpr:
    out = PolyExpr.zero()
    for e in exprs:
        out = out + e
    return out


class _Mode:
    """One mode's closed loop in the decision variables (X, U) on the timer
    interval (0, Tend), mats = (A, B, E, C, D, F).  Each entry of A X + B U and
    C X + D U is built once and feeds the positivity, performance and
    denominator rows; families carry `tag` as a suffix.  Tend = 0 (arbitrary
    dwell-time) turns every interval row into a point row at tau = 0."""

    def __init__(self, prog: _Program, mats: tuple, X: list[PolyExpr],
                 U: list[list[PolyExpr]], Tend: float, tag: str = ""):
        A, B, self.E, C, D, self.F = mats
        self.prog, self.X, self.U, self.tag = prog, X, U, tag
        self.iv = (0.0, Tend)
        n = len(X)
        self.flow = [[_bilinear_entry(A, X, B, U, i, j) for j in range(n)] for i in range(n)]
        self.out = [[_bilinear_entry(C, X, D, U, i, j) for j in range(n)] for i in range(C.shape[0])]

    def positivity(self, alpha: int) -> None:
        """Metzler rows (A X + B U)_{ij} + alpha [i=j] >= 0, output rows (C X + D U)_{ij} >= 0."""
        al = PolyExpr([LinExpr.variable(alpha)])
        flow = [[e + al if i == j else e for j, e in enumerate(row)] for i, row in enumerate(self.flow)]
        for family, entries in (("pos_flow", flow), ("pos_out_c", self.out)):
            for idx, expr in enumerate(chain.from_iterable(entries)):
                self.prog.add_interval_ge(f"{family}{self.tag}", idx, expr, self.iv, 0.0)

    def performance(self, gamma: int, margin: float, stat_at: Optional[float] = None) -> None:
        """The analysis flow and output rows under zeta = X*1,
        X'*1 - [A X + B U]*1 - E*1 >= margin and gamma - [C X + D U]*1 - F*1 >= margin,
        plus their stationary rows at tau = stat_at (minimum dwell-time)."""
        prog, tag = self.prog, self.tag
        flow = [_sum_entries(row) for row in self.flow]
        out = [_sum_entries(row) for row in self.out]
        gam = PolyExpr([LinExpr.variable(gamma)])
        for i, row in enumerate(flow):
            expr = -row - PolyExpr.from_poly(_row_ones(self.E, i).coeffs)
            prog.add_interval_ge(f"perf_flow{tag}", i, self.X[i].deriv() + expr, self.iv, margin)
        for i, row in enumerate(out):
            expr = gam - row - PolyExpr.from_poly(_row_ones(self.F, i).coeffs)
            prog.add_interval_ge(f"perf_out_c{tag}", i, expr, self.iv, margin)
        if stat_at is None:
            return
        E_T, F_T = self.E(stat_at), self.F(stat_at)
        for i, row in enumerate(flow):
            expr = (-row).eval_at(stat_at) - float(E_T[i].sum())
            prog.add_point_ge(f"stat_flow{tag}", i, expr, margin)
        for i, row in enumerate(out):
            expr = LinExpr.variable(gamma) - row.eval_at(stat_at) - float(F_T[i].sum())
            prog.add_point_ge(f"stat_out{tag}", i, expr, margin)

    def denominator(self, x_min: float, gain_cap: Optional[float]) -> None:
        """X >= x_min, X(0) <= _X_CAP, and implementable gains |U_lj| <= cap * X_j."""
        prog, tag = self.prog, self.tag
        for j, x in enumerate(self.X):
            prog.add_interval_ge(f"x_pos{tag}", j, x - PolyExpr.from_poly([x_min]), self.iv, 0.0)
            prog.add_point_ge(f"x_cap{tag}", j, LinExpr.constant(_X_CAP) - x.eval_at(0.0), 0.0)
        if gain_cap is None:
            return
        idx = 0
        for row in self.U:
            for x, u in zip(self.X, row):
                for sgn in (1.0, -1.0):
                    prog.add_interval_ge(f"gain_cap{tag}", idx, x.scaled(gain_cap) + u.scaled(sgn), self.iv, 0.0)
                    idx += 1

    def regularize(self, extra_obj: dict[int, float], reg: float) -> None:
        """Add reg * the integral of X over (0, Tend) (reg * X(0) when Tend = 0)."""
        Tend = self.iv[1]
        for x in self.X:
            for k, le in enumerate(x.coeffs):
                w = reg * (Tend ** (k + 1) / (k + 1)) if Tend > 0 else (reg if k == 0 else 0.0)
                for v, c in le.coeffs.items():
                    extra_obj[v] = extra_obj.get(v, 0.0) + c * w


def synthesize(
    sys: ImpulsiveSystem,
    dwell: DwellTimeSpec,
    degree: int = 2,
    margin: float = DEFAULT_MARGIN,
    fixed_kd: bool = False,
    x_min: float = _X_MIN,
    reg: float = 1e-6,
    gain_cap: float = 100.0,
    relax_schedule=RELAX_SCHEDULE,
    dump_lp=None,
) -> ControllerRealization:
    """Minimize the closed-loop hybrid gain over timer-dependent state feedback.

    fixed_kd selects the dwell-time-independent discrete gain variant of the
    range dwell-time design (dominating constant diagonal M).  `reg` adds a tiny
    integral-of-X term to the objective so the solver picks a well-scaled vertex
    among gain-equivalent optima; `gain_cap` bounds |U| <= cap * X entrywise so
    the recovered rational gains stay implementable (degenerate optima otherwise
    drive X to its floor and the gains to the LP bounds)."""
    if len(sys.jumps) != 1:
        raise DimensionMismatch("synthesis expects a single jump map (lift switched systems separately)")
    if fixed_kd and dwell.kind != "range":
        raise ValueError("fixed_kd is a range dwell-time variant")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    n, mc = sys.n, sys.mc
    jm = sys.jump
    md_, qd = sys.md, sys.qd
    Ed1 = jm.Ed.sum(axis=1)
    Fd1 = jm.Fd.sum(axis=1)
    kind = {
        "arbitrary": "ArbitraryDT",
        "constant": "ConstantDT",
        "minimum": "MinimumDT",
        "range": "RangeDT_FixedKd" if fixed_kd else "RangeDT",
    }[dwell.kind]
    if dwell.kind == "arbitrary" and not sys.is_constant():
        raise DimensionMismatch("arbitrary dwell-time synthesis needs constant matrices")

    x_degree = 0 if dwell.kind == "arbitrary" else degree
    Tend = 0.0 if dwell.kind == "arbitrary" else dwell.horizon_tau()
    genuine_range = dwell.kind == "range" and dwell.Tmax - dwell.Tmin > 1e-12
    # the jump rows are polynomials in theta for a genuine range design with
    # theta-dependent Ud; otherwise they are point rows at jump_eval (or in M)
    theta_poly = genuine_range and not fixed_kd
    theta_iv = (dwell.Tmin, dwell.Tmax) if dwell.kind == "range" else None
    if dwell.kind in ("constant", "minimum"):
        jump_eval = dwell.T
    elif dwell.kind == "arbitrary":
        jump_eval = 0.0
    else:
        jump_eval = None if genuine_range else dwell.Tmin

    def build(relax: int):
        prog = _Program(relax)
        X = prog.poly_vec(n, x_degree, "X")
        Uc = [prog.poly_vec(n, x_degree, f"U{l}") for l in range(mc)]
        gamma = prog.scalar(lo=0.0, name="gamma")
        alpha = prog.scalar(lo=0.0, hi=_ALPHA_CAP, name="alpha")
        Ud_poly = Ud_const = M = None
        if md_:
            if theta_poly:
                Ud_poly = [prog.poly_vec(n, x_degree, f"Ud{l}") for l in range(md_)]
            else:
                Ud_const = [
                    [prog.lp.new_var(name=f"Ud{l}{j}") for j in range(n)] for l in range(md_)
                ]
        if fixed_kd:
            M = [prog.scalar(lo=x_min, hi=_X_CAP, name=f"M{j}") for j in range(n)]
        mode = _Mode(prog, (sys.A, sys.Bc, sys.Ec, sys.Cc, sys.Dc, sys.Fc), X, Uc, Tend)
        mode.positivity(alpha)

        def map_entry(P, Q, i: int, j: int, where: Optional[float] = None):
            """(P X + Q Ud)_{ij} as PolyExpr in theta (theta_poly) or as LinExpr
            at `where` (default jump_eval), for the jump pair (J, Bd) or the
            discrete-output pair (Cd, Dd)."""
            if fixed_kd:
                e = LinExpr.variable(M[j]).scaled(P[i, j])
                for l in range(md_):
                    e.add_inplace(LinExpr.variable(Ud_const[l][j]), float(Q[i, l]))
                return e
            if theta_poly:
                expr = X[j].scaled(P[i, j])
                for l in range(md_):
                    expr = expr + Ud_poly[l][j].scaled(float(Q[i, l]))
                return expr
            e = X[j].eval_at(jump_eval if where is None else where).scaled(P[i, j])
            if Ud_const is not None:
                for l in range(md_):
                    e.add_inplace(LinExpr.variable(Ud_const[l][j]), float(Q[i, l]))
            return e

        # jump/discrete-output positivity rows: (J X + Bd Ud) >= 0, (Cd X + Dd Ud) >= 0.
        # Minimum dwell-time imposes them at both timer endpoints: the jump fires
        # at a frozen X(T) (sound gain recovery) while the reference condition
        # evaluates at X(0); the intersection keeps both readings valid.
        jump_points = [0.0, dwell.T] if dwell.kind == "minimum" else [None]
        for family, P, Q in (("pos_jump", jm.J, jm.Bd), ("pos_out_d", jm.Cd, jm.Dd)):
            idx = 0
            for i in range(P.shape[0]):
                for j in range(n):
                    if theta_poly:
                        prog.add_interval_ge(family, idx, map_entry(P, Q, i, j), theta_iv, 0.0)
                        idx += 1
                    else:
                        for pt in jump_points:
                            prog.add_point_ge(family, idx, map_entry(P, Q, i, j, pt), 0.0)
                            idx += 1

        mode.performance(gamma, margin, dwell.T if dwell.kind == "minimum" else None)
        # jump performance rows: X_i(0) - [J X + Bd Ud](1)_i - Ed1_i >= margin
        gam = PolyExpr([LinExpr.variable(gamma)])
        for i in range(n):
            if theta_poly:
                row = _sum_entries([map_entry(jm.J, jm.Bd, i, j) for j in range(n)])
                expr = PolyExpr([X[i].eval_at(0.0)]) - row - PolyExpr.from_poly([Ed1[i]])
                prog.add_interval_ge("perf_jump", i, expr, theta_iv, margin)
            else:
                e = X[i].eval_at(0.0)
                for j in range(n):
                    e = e - map_entry(jm.J, jm.Bd, i, j)
                prog.add_point_ge("perf_jump", i, e - Ed1[i], margin)
        for i in range(qd):
            if theta_poly:
                row = _sum_entries([map_entry(jm.Cd, jm.Dd, i, j) for j in range(n)])
                expr = gam - row - PolyExpr.from_poly([Fd1[i]])
                prog.add_interval_ge("perf_out_d", i, expr, theta_iv, margin)
            else:
                e = LinExpr.variable(gamma) - Fd1[i]
                for j in range(n):
                    e = e - map_entry(jm.Cd, jm.Dd, i, j)
                prog.add_point_ge("perf_out_d", i, e, margin)
        if fixed_kd:
            for j in range(n):
                expr = PolyExpr([LinExpr.variable(M[j])]) - X[j]
                prog.add_interval_ge("x_below_M", j, expr, theta_iv, 0.0)

        mode.denominator(x_min, gain_cap)
        # implementable discrete gains: |Ud_lj| <= cap * X_j (or cap * M_j)
        if gain_cap is not None:
            idx = 2 * mc * n  # numbered on from the continuous gain_cap rows
            for l in range(md_):
                for j in range(n):
                    for sgn in (1.0, -1.0):
                        if Ud_poly is not None:
                            expr = X[j].scaled(gain_cap) + Ud_poly[l][j].scaled(sgn)
                            prog.add_interval_ge("gain_cap_d", idx, expr, theta_iv, 0.0)
                        else:
                            base = (
                                LinExpr.variable(M[j]).scaled(gain_cap)
                                if fixed_kd
                                else X[j].eval_at(jump_eval).scaled(gain_cap)
                            )
                            base.add_inplace(LinExpr.variable(Ud_const[l][j]), sgn)
                            prog.add_point_ge("gain_cap_d", idx, base, 0.0)
                        idx += 1

        def finalize(prog, sol, relax):
            Xp = [x.value(sol.x) for x in X]
            Ucp = [[Uc[l][j].value(sol.x) for j in range(n)] for l in range(mc)]
            Ud_out = None
            if Ud_poly is not None:
                Ud_out = [[Ud_poly[l][j].value(sol.x) for j in range(n)] for l in range(md_)]
            elif Ud_const is not None:
                Ud_out = np.array([[sol.x[Ud_const[l][j]] for j in range(n)] for l in range(md_)])
            M_out = np.array([sol.x[v] for v in M]) if fixed_kd else None
            ctrl = ControllerRealization(
                kind=kind,
                dwell=dwell,
                gamma=float(sol.x[gamma]),
                degree=x_degree,
                margin=margin,
                X=Xp,
                Uc=Ucp,
                Ud=Ud_out,
                M=M_out,
            )
            _check_denominator(ctrl)
            return ctrl

        extra_obj: dict[int, float] = {}
        mode.regularize(extra_obj, reg)
        if fixed_kd:
            for v in M:
                extra_obj[v] = extra_obj.get(v, 0.0) + reg * max(Tend, 1.0)
        return prog, gamma, finalize, extra_obj

    return _solve_with_escalation(build, degree, relax_schedule, dump_lp=dump_lp)


def _check_denominator(ctrl: ControllerRealization) -> None:
    Tend = 0.0 if ctrl.dwell.kind == "arbitrary" else ctrl.dwell.horizon_tau()
    taus = np.linspace(0.0, max(Tend, 1e-9), 512)
    modes = range(len(ctrl.X)) if ctrl.per_mode else [None]
    for mode in modes:
        if np.min(ctrl.x_values(taus, mode)) <= 0.0:
            raise IllPosed("denominator X(tau) not positive on the working interval")


def synthesize_switched(
    sw: SwitchedSystem,
    T: float,
    degree: int = 2,
    margin: float = DEFAULT_MARGIN,
    x_min: float = _X_MIN,
    reg: float = 1e-6,
    gain_cap: float = 100.0,
    relax_schedule=RELAX_SCHEDULE,
    dump_lp=None,
) -> ControllerRealization:
    """Per-mode state feedback under minimum dwell-time with coupled diagonals."""
    if sw.N < 2:
        raise DimensionMismatch("switched synthesis needs at least two modes; use synthesize")
    if T <= 0:
        raise ValueError("T must be positive")
    n, m = sw.n, sw.m

    def build(relax: int):
        prog = _Program(relax)
        Xs = [prog.poly_vec(n, degree, f"X{i}_") for i in range(sw.N)]
        Us = [[prog.poly_vec(n, degree, f"U{i}_{l}") for l in range(m)] for i in range(sw.N)]
        gamma = prog.scalar(lo=0.0, name="gamma")
        alpha = prog.scalar(lo=0.0, hi=_ALPHA_CAP, name="alpha")
        modes = [
            _Mode(prog, tuple(md[k] for k in ("A", "B", "E", "C", "D", "F")), Xs[i], Us[i], T, f"[{i}]")
            for i, md in enumerate(sw.modes)
        ]
        for mode in modes:
            mode.positivity(alpha)
            mode.performance(gamma, margin, T)
            mode.denominator(x_min, gain_cap)
        for i in range(sw.N):
            for j in range(sw.N):
                if i == j:
                    continue
                for r in range(n):
                    prog.add_point_ge(
                        f"couple[{i}->{j}]",
                        r,
                        Xs[j][r].eval_at(0.0) - Xs[i][r].eval_at(T),
                        0.0,
                    )

        def finalize(prog, sol, relax):
            ctrl = ControllerRealization(
                kind="SwitchedMinDT",
                dwell=DwellTimeSpec.minimum(T),
                gamma=float(sol.x[gamma]),
                degree=degree,
                margin=margin,
                X=[[x.value(sol.x) for x in X] for X in Xs],
                Uc=[[[u.value(sol.x) for u in row] for row in U] for U in Us],
                Ud=None,
            )
            _check_denominator(ctrl)
            return ctrl

        extra_obj: dict[int, float] = {}
        for mode in modes:
            mode.regularize(extra_obj, reg)
        return prog, gamma, finalize, extra_obj

    return _solve_with_escalation(build, degree, relax_schedule, dump_lp=dump_lp)


class ClosedLoopView:
    """Numeric closed-loop evaluation for grid verification and certificates."""

    def __init__(self, sys: Union[ImpulsiveSystem, SwitchedSystem], ctrl: ControllerRealization):
        self.sys = sys
        self.ctrl = ctrl
        self.switched = isinstance(sys, SwitchedSystem)

    def cont_mesh(self, taus: np.ndarray, mode=None):
        taus = np.asarray(taus, dtype=float)
        clamp = self.ctrl.clamp
        if self.switched:
            md = self.sys.modes[mode if mode is not None else 0]
            A_pm, B_pm, E_pm, C_pm, D_pm, F_pm = (md[k] for k in ("A", "B", "E", "C", "D", "F"))
        else:
            A_pm, B_pm, E_pm, C_pm, D_pm, F_pm = (
                self.sys.A,
                self.sys.Bc,
                self.sys.Ec,
                self.sys.Cc,
                self.sys.Dc,
                self.sys.Fc,
            )
        K = self.ctrl.kc_mesh(taus, mode=mode)
        A_m = A_pm.eval_mesh(taus, clamp) + np.einsum("mij,mjk->mik", B_pm.eval_mesh(taus, clamp), K)
        C_m = C_pm.eval_mesh(taus, clamp) + np.einsum("mij,mjk->mik", D_pm.eval_mesh(taus, clamp), K)
        Ec1 = E_pm.eval_mesh(taus, clamp).sum(axis=2)
        Fc1 = F_pm.eval_mesh(taus, clamp).sum(axis=2)
        return A_m, Ec1, C_m, Fc1

    def jumps_at(self, theta: float):
        if self.switched:
            return []
        out = []
        for jm in self.sys.jumps:
            Kd = self.ctrl.kd(theta=theta)
            J_cl = jm.J + jm.Bd @ Kd
            Cd_cl = jm.Cd + jm.Dd @ Kd
            out.append((J_cl, jm.Ed.sum(axis=1), Cd_cl, jm.Fd.sum(axis=1)))
        return out


def closed_loop(sys, ctrl: ControllerRealization) -> ClosedLoopView:
    return ClosedLoopView(sys, ctrl)


def certificate_from(ctrl: ControllerRealization) -> Certificate:
    """The copositive certificate zeta = X * 1 transferred to the closed loop."""
    kind = "SwitchedMinDT" if ctrl.per_mode else {
        "ArbitraryDT": "ArbitraryDT",
        "ConstantDT": "ConstantDT",
        "MinimumDT": "MinimumDT",
        "RangeDT": "RangeDT",
        "RangeDT_FixedKd": "RangeDT",
    }[ctrl.kind]
    return Certificate(
        kind=kind,
        gamma=ctrl.gamma,
        zeta=ctrl.X,
        dwell=ctrl.dwell,
        margin=ctrl.margin,
        jump_margin=ctrl.margin,
        degree=ctrl.degree,
        rows=[],
    )
