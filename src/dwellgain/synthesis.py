"""State-feedback synthesis through the diagonal change of variables.

The decision variables are a diagonal polynomial matrix X(tau) and numerator
gains U; the closed-loop positivity and performance rows are affine in them,
so gain minimization stays a linear program.  The performance rows are the
analysis theorem rows under zeta = X 1, written by the analysis builders
(`analysis._Mode`, `analysis._jump_rows`); this module adds the positivity,
denominator and gain-cap rows (`_DesignMode`).  Controllers are recovered as
rational gains Kc(tau) = Uc(tau) X(tau)^{-1} and never expanded symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Union

import numpy as np

from .analysis import (
    _KIND,
    DEFAULT_MARGIN,
    RELAX_SCHEDULE,
    Certificate,
    _const_entries,
    _coupling_rows,
    _jump_rows,
    _jump_timers,
    _Mode,
    _Program,
    _solve_with_escalation,
    _timer_end,
)
from .errors import DimensionMismatch, IllPosed, NoCertificate, ParseError
from .lp import LinExpr, PolyExpr
from .model import (DwellTimeSpec, ImpulsiveSystem, SwitchedSystem, polys_from_json, polys_to_json, read_json,
                    require_forward_time, write_json)
from .poly import Poly, certify_nonneg, product_basis

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
# weight of the integral of X added to the objective, so that the solver picks
# a well-scaled vertex among gain-equivalent optima
_REG = 1e-6
# |U| <= _GAIN_CAP * X entrywise keeps the recovered rational gains
# implementable: degenerate optima otherwise drive X to its floor and the
# gains to the LP bounds
_GAIN_CAP = 100.0
_ALPHA_CAP = 1e9


class _DesignProgram(_Program):
    """A design LP: its interval rows keep the product-basis cone, the
    Bernstein cone of `_Program` spanned by (D + 1)(D + 2) / 2 columns instead
    of D + 1.  The designs, their `--dump-lp` texts and the closed-loop
    Monte-Carlo values recorded for them were all made with this encoding."""

    def _cone_rows(self, name: str, q: PolyExpr, order: int, margin: float) -> None:
        """q - margin = sum_ij c_ij s^i (1 - s)^j, i + j <= order, with one cone
        column c_ij >= 0 each, matched coefficient by coefficient of s^k."""
        pairs, terms = product_basis(order)
        cone = [self.lp.new_var(0.0, None, name=f"{name}_h{i}_{j}") for i, j in pairs]
        for k, basis_k in enumerate(terms):
            row: dict[int, float] = {}
            const = 0.0
            if k <= q.degree:
                row.update(q.coeffs[k].coeffs)
                const = q.coeffs[k].const
            for p, c in basis_k:
                row[cone[p]] = -c
            self.lp.add_eq(row, (margin if k == 0 else 0.0) - const)


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

    def kc_mesh(self, taus: np.ndarray, mode=None) -> np.ndarray:
        """K_c on a mesh as a C-contiguous (mc, n, len(taus)); clamped for
        minimum dwell-time."""
        taus = np.asarray(taus, dtype=float)
        t = np.minimum(taus, self.clamp) if self.clamp is not None else taus
        xv = np.stack([p.eval(t) for p in self._x_mode(mode)], axis=1)
        if np.min(xv) <= 0.0:
            raise IllPosed("denominator X(tau) not positive on the requested mesh")
        uc = self._uc_mode(mode)
        mc = len(uc)
        n = len(self._x_mode(mode))
        out = np.empty((mc, n, len(t)))
        for i in range(mc):
            for j in range(n):
                out[i, j] = uc[i][j].eval(t) / xv[:, j]
        return out

    def kc(self, tau: float, mode=None) -> np.ndarray:
        return self.kc_mesh(np.array([float(tau)]), mode=mode)[..., 0]

    @property
    def _ud_poly(self) -> bool:
        """Ud holds polynomial rows in theta (a genuine range design); else
        it is a constant array (a degenerate range [T, T] included)."""
        return self.Ud is not None and not isinstance(self.Ud, np.ndarray)

    def kd_mesh(self, thetas) -> np.ndarray:
        """K_d = U_d X(.)^{-1} for the dwells `thetas`, a C-contiguous
        (md, n, len(thetas)).  A RangeDT design evaluates at each clipped
        theta in one vectorized pass; the others evaluate K_d once: from M
        (RangeDT_FixedKd), at T (ConstantDT, MinimumDT) or at 0 (ArbitraryDT)."""
        k = len(thetas)
        if self.Ud is None:
            n = len(self.X[0]) if self.per_mode else len(self.X)
            return np.zeros((0, n, k))
        if self.kind == "RangeDT_FixedKd":
            K = (np.asarray(self.Ud) / np.asarray(self.M)[None, :])[:, :, None]
        else:
            at = (np.clip(np.asarray(thetas, dtype=float), self.dwell.Tmin, self.dwell.Tmax)
                  if self.kind == "RangeDT" else np.array([self.dwell.T or 0.0]))
            xv = np.stack([p.eval(at) for p in self.X])
            if (xv <= 0.0).any():
                raise IllPosed("denominator X not positive at the jump evaluation point")
            ud = (np.array([[p.eval(at) for p in row] for row in self.Ud]) if self._ud_poly
                  else np.asarray(self.Ud)[:, :, None])
            K = ud / xv[None]
        return K if K.shape[2] == k else np.repeat(K, k, axis=2)

    def kd(self, theta: Optional[float] = None, mode=None) -> np.ndarray:
        """K_d at one dwell theta, the single-point case of kd_mesh; a design
        whose U_d is polynomial in theta needs theta."""
        if theta is None and self._ud_poly:
            raise ValueError("range dwell-time controller needs theta")
        return self.kd_mesh([0.0 if theta is None else theta])[..., 0]

    def to_json(self) -> dict:
        data = {
            "type": "controller",
            "kind": self.kind,
            "dwell": self.dwell.to_json(),
            "gamma": self.gamma,
            "degree": self.degree,
            "margin": self.margin,
            "X": polys_to_json(self.X),
            "Uc": polys_to_json(self.Uc),
        }
        if self._ud_poly:
            data["Ud_poly"] = polys_to_json(self.Ud)
        elif self.Ud is not None:
            data["Ud"] = np.asarray(self.Ud).tolist()
        if self.M is not None:
            data["M"] = np.asarray(self.M).tolist()
        return data

    @staticmethod
    def from_json(data: dict) -> "ControllerRealization":
        try:
            kind = data["kind"]
            depth = 1 + (kind == "SwitchedMinDT")
            Ud = (polys_from_json(data["Ud_poly"], 2) if "Ud_poly" in data
                  else np.asarray(data["Ud"], dtype=float) if "Ud" in data else None)
            return ControllerRealization(
                kind=kind,
                dwell=DwellTimeSpec.parse(data["dwell"]),
                gamma=float(data["gamma"]),
                degree=int(data["degree"]),
                margin=float(data["margin"]),
                X=polys_from_json(data["X"], depth),
                Uc=polys_from_json(data["Uc"], depth + 1),
                Ud=Ud,
                M=np.asarray(data["M"], dtype=float) if "M" in data else None,
            )
        except KeyError as exc:
            raise ParseError(f"controller file missing field {exc.args[0]!r}") from exc

    def save(self, path: str) -> None:
        write_json(self.to_json(), path)

    @staticmethod
    def load(path: str) -> "ControllerRealization":
        return read_json(path, ControllerRealization.from_json)


def realize_gain(ctrl: ControllerRealization, tau: float, mode: Optional[int] = None) -> np.ndarray:
    """Continuous gain K_c(tau) = U_c(tau) diag(X(tau))^{-1} (clamped timer)."""
    return ctrl.kc(tau, mode=mode)


class _DesignMode(_Mode):
    """A design's mode (`analysis._Mode`): its theorem rows plus the
    closed-loop positivity, denominator and regularizer rows, all read from
    the same entries of A X + B U and C X + D U."""

    def positivity(self, alpha: int) -> None:
        """Metzler rows (A X + B U)_{ij} + alpha [i=j] >= 0, output rows (C X + D U)_{ij} >= 0."""
        al = PolyExpr([LinExpr.variable(alpha)])
        flow = [[e + al if i == j else e for j, e in enumerate(row)] for i, row in enumerate(self.flow)]
        for family, entries in (("pos_flow", flow), ("pos_out_c", self.out)):
            for idx, expr in enumerate(chain.from_iterable(entries)):
                self.prog.add_interval_ge(f"{family}{self.tag}", idx, expr, self.iv, 0.0)

    def denominator(self) -> None:
        """X >= _X_MIN, X(0) <= _X_CAP, and implementable gains |U_lj| <= _GAIN_CAP * X_j."""
        prog, tag = self.prog, self.tag
        for j, x in enumerate(self.X):
            prog.add_interval_ge(f"x_pos{tag}", j, x - PolyExpr.from_poly([_X_MIN]), self.iv, 0.0)
            prog.add_point_ge(f"x_cap{tag}", j, LinExpr.constant(_X_CAP) - x.eval_at(0.0), 0.0)
        _gain_cap_rows(prog, f"gain_cap{tag}", 0, self.X, self.U, _GAIN_CAP, self.iv)

    def regularize(self, extra_obj: dict[int, float]) -> None:
        """Add _REG * the integral of X over (0, Tend) (_REG * X(0) when Tend = 0)."""
        Tend = self.iv[1]
        for x in self.X:
            for k, le in enumerate(x.coeffs):
                w = _REG * (Tend ** (k + 1) / (k + 1)) if Tend > 0 else (_REG if k == 0 else 0.0)
                for v, c in le.coeffs.items():
                    extra_obj[v] = extra_obj.get(v, 0.0) + c * w


def _gain_cap_rows(prog: _Program, family: str, idx: int, X: list, U: list, cap: float, interval) -> None:
    """Implementable gains |U_lj| <= cap * X_j on interval, numbered from idx on."""
    for row in U:
        for x, u in zip(X, row):
            for sgn in (1.0, -1.0):
                prog.add_interval_ge(family, idx, x.scaled(cap) + u.scaled(sgn), interval, 0.0)
                idx += 1


def synthesize(
    sys: ImpulsiveSystem,
    dwell: DwellTimeSpec,
    degree: int = 2,
    margin: float = DEFAULT_MARGIN,
    fixed_kd: bool = False,
    relax_schedule=RELAX_SCHEDULE,
    dump_lp=None,
) -> ControllerRealization:
    """Minimize the closed-loop hybrid gain over timer-dependent state feedback.

    fixed_kd selects the dwell-time-independent discrete gain variant of the
    range dwell-time design (dominating constant diagonal M).  Two constants
    shape every design: _REG weights a tiny integral-of-X term in the objective,
    and _GAIN_CAP bounds |U| <= _GAIN_CAP * X entrywise (X >= _X_MIN).

    The jump rows hold at the dwells [lo, hi] of `_jump_timers`, a single
    point unless the range is genuine: with X(theta) and a U_d polynomial in
    theta on [lo, hi], else with a constant U_d and X at the point, or with M
    in place of X (fixed_kd), whatever theta."""
    require_forward_time(sys, "synthesis")
    if len(sys.jumps) != 1:
        raise DimensionMismatch("synthesis expects a single jump map (lift switched systems separately)")
    if fixed_kd and dwell.kind != "range":
        raise ValueError("fixed_kd is a range dwell-time variant")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    n, mc, md = sys.n, sys.mc, sys.md
    jm = sys.jump
    kind = _KIND[dwell.kind] + ("_FixedKd" if fixed_kd else "")
    if dwell.kind == "arbitrary" and not sys.is_constant():
        raise DimensionMismatch("arbitrary dwell-time synthesis needs constant matrices")

    x_degree = 0 if dwell.kind == "arbitrary" else degree
    Tend = _timer_end(dwell)
    lo, hi = _jump_timers(dwell)
    theta_poly = lo < hi and not fixed_kd

    def build(relax: int):
        prog = _DesignProgram(relax)
        X = prog.poly_vec(n, x_degree, "X")
        Uc = [prog.poly_vec(n, x_degree, f"U{l}") for l in range(mc)]
        gamma = prog.scalar(lo=0.0, name="gamma")
        alpha = prog.scalar(lo=0.0, hi=_ALPHA_CAP, name="alpha")
        if theta_poly:
            Ud = [prog.poly_vec(n, x_degree, f"Ud{l}") for l in range(md)]
        else:
            Ud = [[LinExpr.variable(prog.lp.new_var(name=f"Ud{l}{j}")) for j in range(n)] for l in range(md)]
        M = [prog.scalar(lo=_X_MIN, hi=_X_CAP, name=f"M{j}") for j in range(n)] if fixed_kd else []
        mode = _DesignMode(prog, (sys.A, sys.Bc, sys.Ec, sys.Cc, sys.Dc, sys.Fc), X, Uc, Tend)
        mode.positivity(alpha)

        # the sides X is read on at the jump, each with the dwells its rows
        # hold at: X(theta) on [lo, hi], M (constant in theta, so point rows)
        # or X at a point.  Minimum dwell-time imposes
        # the positivity rows at both timer endpoints: the jump fires at a
        # frozen X(T) (sound gain recovery) while the reference condition
        # evaluates at X(0); the intersection keeps both readings valid.  The
        # last side carries the jump[0], out_d[0] and gain-cap rows.
        if theta_poly:
            sides = [(X, (lo, hi))]
        elif fixed_kd:
            sides = [([LinExpr.variable(v) for v in M], (lo, lo))]
        else:
            sides = [([x.eval_at(t) for x in X], (t, t)) for t in ((0.0, lo) if dwell.kind == "minimum" else (lo,))]
        entries = [[_const_entries(x_at, Ud, P, Q) for P, Q in ((jm.J, jm.Bd), (jm.Cd, jm.Dd))] for x_at, _ in sides]
        # positivity rows (J X + Bd Ud)_{ij} >= 0, (Cd X + Dd Ud)_{ij} >= 0, side by side
        for k, family in enumerate(("pos_jump", "pos_out_d")):
            idx = 0
            for cells in zip(*(chain.from_iterable(e[k]) for e in entries)):
                for e, (_, dwells) in zip(cells, sides):
                    prog.add_interval_ge(family, idx, e, dwells, 0.0)
                    idx += 1

        mode.theorem_rows(gamma, margin, dwell.T if dwell.kind == "minimum" else None)
        x_at, dwells = sides[-1]
        _jump_rows(prog, sys.jumps, entries[-1:], [x.eval_at(0.0) for x in X], gamma, dwells, margin, margin)
        for j, (m, x) in enumerate(zip(M, X)):
            prog.add_interval_ge("x_below_M", j, PolyExpr([LinExpr.variable(m)]) - x, (dwell.Tmin, dwell.Tmax), 0.0)

        mode.denominator()
        # numbered on from the continuous gain_cap rows
        _gain_cap_rows(prog, "gain_cap_d", 2 * mc * n, x_at, Ud, _GAIN_CAP, dwells)

        def finalize(prog, sol, relax):
            Ud_out = None
            if Ud and theta_poly:
                Ud_out = [[u.value(sol.x) for u in row] for row in Ud]
            elif Ud:
                # read from sol.x, as LinExpr.value would turn a -0.0 into 0.0
                Ud_out = np.array([[sol.x[v] for u in row for v in u.coeffs] for row in Ud])
            ctrl = ControllerRealization(
                kind=kind,
                dwell=dwell,
                gamma=float(sol.x[gamma]),
                degree=x_degree,
                margin=margin,
                X=[x.value(sol.x) for x in X],
                Uc=[[u.value(sol.x) for u in row] for row in Uc],
                Ud=Ud_out,
                M=np.array([sol.x[v] for v in M]) if fixed_kd else None,
            )
            _check_denominator(ctrl)
            return ctrl

        extra_obj: dict[int, float] = {}
        mode.regularize(extra_obj)
        for v in M:
            extra_obj[v] = extra_obj.get(v, 0.0) + _REG * max(Tend, 1.0)
        return prog, gamma, finalize, extra_obj

    return _solve_with_escalation(build, relax_schedule, dump_lp=dump_lp)


def _check_denominator(ctrl: ControllerRealization) -> None:
    """X > 0 on [0, tau_end] in every mode, decided as check_positive decides
    an entry, its Bernstein coefficients at certify_nonneg's order all > 0
    (X(0) > 0 where tau_end = 0)."""
    tau_end = _timer_end(ctrl.dwell)
    for x in chain.from_iterable(ctrl.X if ctrl.per_mode else [ctrl.X]):
        try:
            ok = certify_nonneg(x, (0.0, tau_end)).min_coefficient(x) > 0 if tau_end else x.coeffs[0] > 0.0
        except NoCertificate:
            ok = False
        if not ok:
            raise IllPosed("denominator X(tau) not positive on the working interval")


def synthesize_switched(
    sw: SwitchedSystem,
    T: float,
    degree: int = 2,
    margin: float = DEFAULT_MARGIN,
    relax_schedule=RELAX_SCHEDULE,
    dump_lp=None,
) -> ControllerRealization:
    """Per-mode state feedback under minimum dwell-time with coupled diagonals."""
    if sw.N < 2:
        raise DimensionMismatch("switched synthesis needs at least two modes; use synthesize")
    if T <= 0:
        raise ValueError("T must be positive")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    n, m = sw.n, sw.m

    def build(relax: int):
        prog = _DesignProgram(relax)
        Xs = [prog.poly_vec(n, degree, f"X{i}_") for i in range(sw.N)]
        Us = [[prog.poly_vec(n, degree, f"U{i}_{l}") for l in range(m)] for i in range(sw.N)]
        gamma = prog.scalar(lo=0.0, name="gamma")
        alpha = prog.scalar(lo=0.0, hi=_ALPHA_CAP, name="alpha")
        modes = [
            _DesignMode(prog, tuple(md[k] for k in "ABECDF"), Xs[i], Us[i], T, f"[{i}]")
            for i, md in enumerate(sw.modes)
        ]
        for mode in modes:
            mode.positivity(alpha)
            mode.theorem_rows(gamma, margin, T)
            mode.denominator()
        _coupling_rows(prog, Xs, T)

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
            mode.regularize(extra_obj)
        return prog, gamma, finalize, extra_obj

    return _solve_with_escalation(build, relax_schedule, dump_lp=dump_lp)


@dataclass(frozen=True)
class ClosedLoopView:
    """A plant under a synthesized controller.  cert.verify unpacks it to
    (plant, controller) and evaluates A + B K_c, C + D K_c and J + B_d K_d
    with the simulator's evaluators, as a simulation with `controller` does."""

    sys: Union[ImpulsiveSystem, SwitchedSystem]
    ctrl: ControllerRealization


def closed_loop(sys, ctrl: ControllerRealization) -> ClosedLoopView:
    return ClosedLoopView(sys, ctrl)


def certificate_from(ctrl: ControllerRealization) -> Certificate:
    """The copositive certificate zeta = X * 1 transferred to the closed loop."""
    return Certificate(
        kind=ctrl.kind.removesuffix("_FixedKd"),
        gamma=ctrl.gamma,
        zeta=ctrl.X,
        dwell=ctrl.dwell,
        margin=ctrl.margin,
        jump_margin=ctrl.margin,
        degree=ctrl.degree,
    )
