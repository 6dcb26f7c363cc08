"""State-feedback synthesis through the diagonal change of variables.

The decision variables are a diagonal polynomial matrix X(tau) and numerator
gains U; the closed-loop positivity and performance rows are affine in them,
so gain minimization stays a linear program.  The performance rows are the
analysis theorem rows under zeta = X 1, written by the analysis builders
(`analysis._Mode`, `analysis._jump_rows`); this module adds the positivity,
denominator and gain-cap rows (`_DesignMode`).  A design's program is an
analysis `_Program` whose relaxation orders impose the interval rows in the
product-basis cone (`analysis._product_cone`).  There is one design program
(`_solve_design`): a switched design, under any dwell class, is that of its
lift (`model.lift_switched`) with U block-diagonal, whose jump rows are the
coupling rows X_i(0) - X_j(theta) >= 0.  Controllers are recovered as rational
gains Kc(tau) = Uc(tau) X(tau)^{-1} and never expanded symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Optional, Union

import numpy as np

from .analysis import (
    _KIND,
    _SWITCHED_KIND,
    DEFAULT_MARGIN,
    RELAX_SCHEDULE,
    Certificate,
    _check_kind,
    _check_margins,
    _entries,
    _jump_rows,
    _jump_timers,
    _Mode,
    _per_mode,
    _Program,
    _product_cone,
    _add,
    _const,
    _eval_at,
    _poly,
    _power,
    _scale,
    _solve_with_escalation,
    _terms,
    _timer_end,
    _value,
    _var,
)
from .errors import DimensionMismatch, IllPosed, NotConstant, ParseError, Unsupported
from .model import (DwellTimeSpec, ImpulsiveSystem, SwitchedSystem, finite_float, lift_switched, mode_mats,
                    polys_from_json, polys_to_json, read_field, read_json, require_forward_time,
                    require_positive_design, text, write_json)
from .poly import Poly, decide_nonneg

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


@dataclass
class ControllerRealization:
    """Diagonal denominator X, numerator gains, and the certified gain level."""

    kind: str  # ArbitraryDT | ConstantDT | RangeDT | RangeDT_FixedKd | MinimumDT, or Switched<kind>
    dwell: DwellTimeSpec
    gamma: float
    degree: int
    margin: float
    X: Union[list[Poly], list[list[Poly]]]
    Uc: Union[list[list[Poly]], list[list[list[Poly]]]]
    Ud: Optional[list[list[Poly]]] = None  # rows of polynomials in theta
    M: Optional[np.ndarray] = None

    @property
    def per_mode(self) -> bool:
        return self.kind.startswith("Switched")

    @property
    def clamp(self) -> Optional[float]:
        return self.dwell.clamp

    def lifted(self) -> "ControllerRealization":
        """A switched controller as that of `model.lift_switched`: X stacked,
        U_c block-diagonal with zero polynomials off the blocks."""
        N, n, zero = len(self.X), len(self.X[0]), Poly.const(0.0)
        return replace(self, kind=_KIND[self.dwell.kind], X=[x for xs in self.X for x in xs],
                       Uc=[[zero] * (i * n) + row + [zero] * ((N - 1 - i) * n)
                           for i, rows in enumerate(self.Uc) for row in rows])

    def unlifted(self, N: int) -> "ControllerRealization":
        """The inverse of `lifted`, for N modes: off the blocks U_c is dropped."""
        n, m, X = len(self.X) // N, len(self.Uc) // N, self.X
        return replace(self, kind=_SWITCHED_KIND[self.dwell.kind], X=[X[i * n : (i + 1) * n] for i in range(N)],
                       Uc=[[row[i * n : (i + 1) * n] for row in self.Uc[i * m : (i + 1) * m]] for i in range(N)])

    def kc_mesh(self, taus: np.ndarray, mode=None) -> np.ndarray:
        """K_c (of mode `mode` of a switched controller) on a mesh as a
        C-contiguous (mc, n, len(taus)); clamped for minimum dwell-time."""
        taus = np.asarray(taus, dtype=float)
        t = np.minimum(taus, self.clamp) if self.clamp is not None else taus
        X, uc = (self.X[mode], self.Uc[mode]) if self.per_mode else (self.X, self.Uc)
        xv = np.stack([p.eval(t) for p in X], axis=1)
        if np.min(xv) <= 0.0:
            raise IllPosed("denominator X(tau) not positive on the requested mesh")
        mc, n = len(uc), len(X)
        out = np.empty((mc, n, len(t)))
        for i in range(mc):
            for j in range(n):
                out[i, j] = uc[i][j].eval(t) / xv[:, j]
        return out

    def kc(self, tau: float, mode=None) -> np.ndarray:
        return self.kc_mesh(np.array([float(tau)]), mode=mode)[..., 0]

    @property
    def _ud_poly(self) -> bool:
        """U_d varies with theta, as `_solve_design` decides: its jump dwells
        (`analysis._jump_timers`) are an interval and K_d is not fixed."""
        lo, hi = _jump_timers(self.dwell)
        return lo < hi and self.M is None

    def kd_mesh(self, thetas) -> np.ndarray:
        """K_d = U_d(theta) X(theta)^{-1}, or U_d M^{-1} under a fixed K_d,
        a C-contiguous (md, n, len(thetas)), each theta clipped to the jump
        dwells: [Tmin, Tmax], T, or 0 under arbitrary dwell."""
        if not self.Ud:
            return np.zeros((0, len(self.X[0]) if self.per_mode else len(self.X), len(thetas)))
        d = self.dwell
        at = np.clip(np.asarray(thetas, dtype=float), *((d.Tmin, d.Tmax) if d.kind == "range" else [d.T or 0.0] * 2))
        xv = self.M[:, None] if self.M is not None else np.stack([p.eval(at) for p in self.X])
        if (xv <= 0.0).any():
            raise IllPosed("denominator X not positive at the jump dwells")
        return np.array([[p.eval(at) for p in row] for row in self.Ud]) / xv[None]

    def kd(self, theta: Optional[float] = None) -> np.ndarray:
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
        if self.Ud is not None and self._ud_poly:
            data["Ud_poly"] = polys_to_json(self.Ud)
        elif self.Ud is not None:
            data["Ud"] = [[p.coeffs[0] for p in row] for row in self.Ud]
        if self.M is not None:
            data["M"] = np.asarray(self.M).tolist()
        return data

    @staticmethod
    def from_json(data: dict) -> "ControllerRealization":
        try:
            kind = read_field(data, "kind", text)
            depth = 1 + _per_mode(data["X"])
            X = read_field(data, "X", lambda v: polys_from_json(v, depth))
            rows = lambda v: [_sized(row, X) for row in polys_from_json(v, 2)]
            ctrl = ControllerRealization(
                kind=kind,
                dwell=read_field(data, "dwell", DwellTimeSpec.parse),
                gamma=read_field(data, "gamma", finite_float),
                degree=read_field(data, "degree", int),
                margin=read_field(data, "margin", finite_float),
                X=X,
                Uc=read_field(data, "Uc", lambda v: polys_from_json(v, depth + 1)),
                Ud=(read_field(data, "Ud_poly", rows) if "Ud_poly" in data else
                    read_field(data, "Ud", lambda v: rows([[[x] for x in r] for r in v])) if "Ud" in data else None),
                M=read_field(data, "M", lambda v: np.array(_sized([finite_float(x) for x in v], X)))
                if "M" in data else None,
            )
        except KeyError as exc:
            raise ParseError(f"controller file missing field {exc.args[0]!r}") from exc
        if "Ud_poly" in data and not ctrl._ud_poly:  # to_json writes such a U_d as constants
            raise ParseError(f"bad field 'Ud_poly': U_d is constant in a {ctrl.kind} controller under {ctrl.dwell}")
        _check_kind(ctrl.kind, ctrl.dwell, depth == 2, "_FixedKd" if ctrl.M is not None else "")
        return ctrl

    def save(self, path: str) -> None:
        write_json(self.to_json(), path)

    @staticmethod
    def load(path: str) -> "ControllerRealization":
        return read_json(path, ControllerRealization.from_json)


def _sized(items: list, X: list) -> list:
    """items, for a controller file's decoder: one per entry of X, else a ValueError."""
    if len(items) != len(X):
        raise ValueError(f"{len(items)} entries where X has {len(X)}")
    return items


def realize_gain(ctrl: ControllerRealization, tau: float, mode: Optional[int] = None) -> np.ndarray:
    """Continuous gain K_c(tau) = U_c(tau) diag(X(tau))^{-1} (clamped timer)."""
    return ctrl.kc(tau, mode=mode)


class _DesignMode(_Mode):
    """A design's mode (`analysis._Mode`): its theorem rows plus the
    closed-loop positivity, denominator and regularizer rows, all read from
    the same entries of A X + B U and C X + D U."""

    def positivity(self, alpha: int, blocks: int) -> None:
        """Metzler rows (A X + B U)_{ij} + alpha [i=j] >= 0, output rows
        (C X + D U)_{ij} >= 0, for the entries inside the `blocks` diagonal
        blocks only: off them, the entries of a lift are zero."""
        al = _var(alpha)[None]
        flow = [[_add(e, al) if i == j else e for j, e in enumerate(row)] for i, row in enumerate(self.flow)]
        n = len(self.X)
        for family, entries in (("pos_flow", flow), ("pos_out_c", self.out)):
            for i, row in enumerate(entries):
                for j, expr in enumerate(row):
                    if i * blocks // len(entries) == j * blocks // n:
                        self.prog.add_interval_ge(family, i * n + j, expr, self.iv, 0.0)

    def denominator(self) -> None:
        """X >= _X_MIN, X(0) <= _X_CAP, and implementable gains |U_lj| <= _GAIN_CAP * X_j."""
        prog = self.prog
        for j, x in enumerate(self.X):
            prog.add_interval_ge("x_pos", j, _add(x, _poly([_X_MIN]), -1.0), self.iv, 0.0)
            prog.add_point_ge("x_cap", j, _add(_const(_X_CAP), _eval_at(x, 0.0), -1.0), 0.0)
        _gain_cap_rows(prog, "gain_cap", 0, self.X, self.U, _GAIN_CAP, self.iv)

    def regularize(self, extra_obj: dict[int, float]) -> None:
        """Add _REG * the integral of X over (0, Tend) (_REG * X(0) when Tend = 0)."""
        Tend = self.iv[1]
        for x in self.X:
            for k, le in enumerate(x):
                w = _REG * (_power(Tend, k + 1, self.iv) / (k + 1)) if Tend > 0 else (_REG if k == 0 else 0.0)
                for v, c in _terms(le).items():
                    extra_obj[v] = extra_obj.get(v, 0.0) + c * w


def _gain_cap_rows(prog: _Program, family: str, idx: int, X: list, U: list, cap: float, interval) -> None:
    """Implementable gains |U_lj| <= cap * X_j on interval, numbered from idx
    on; a structural zero U_lj has no row."""
    for row in U:
        for x, u in zip(X, row):
            if u.any():
                for sgn in (1.0, -1.0):
                    prog.add_interval_ge(family, idx, _add(_scale(x, cap), u, sgn), interval, 0.0)
                    idx += 1


def synthesize(
    sys: Union[ImpulsiveSystem, SwitchedSystem],
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
    A plant whose Ec, Fc, Ed or Fd is not nonnegative is refused
    (`model.require_positive_design`), and a switched system is designed as
    its lift (`_design`)."""
    return _design(sys, dwell, degree, margin, fixed_kd, relax_schedule, dump_lp)


def _design(sys, dwell: DwellTimeSpec, degree: int, margin: float, fixed_kd: bool, relax_schedule, dump_lp):
    """synthesize's gates, then `_solve_design`.  A switched system, its E and
    F checked before the lift so that a note names modes[k].X, is designed as
    its lift with jump margin 0 and U block-diagonal, reported per mode
    (`ControllerRealization.unlifted`); fixed_kd is refused for it."""
    require_forward_time(sys, "synthesis")
    switched = isinstance(sys, SwitchedSystem)
    if switched and fixed_kd:
        raise Unsupported("fixed_kd acts on an impulsive system's discrete gain; a switched system has none")
    if not switched and len(sys.jumps) != 1:
        raise DimensionMismatch("synthesis expects a single jump map (pass a switched system as a SwitchedSystem)")
    if fixed_kd and dwell.kind != "range":
        raise ValueError("fixed_kd is a range dwell-time variant")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    _check_margins(margin=margin)
    if dwell.kind == "arbitrary" and not sys.is_constant():
        raise NotConstant("arbitrary dwell-time synthesis needs constant matrices")
    require_positive_design(sys, _timer_end(dwell))
    if switched:
        ctrl = _solve_design(lift_switched(sys), dwell, degree, margin, 0.0, False, relax_schedule, dump_lp, sys.N)
        return ctrl.unlifted(sys.N)
    return _solve_design(sys, dwell, degree, margin, margin, fixed_kd, relax_schedule, dump_lp)


def _solve_design(sys: ImpulsiveSystem, dwell: DwellTimeSpec, degree: int, margin: float, jump_margin: float,
                  fixed_kd: bool, relax_schedule, dump_lp=None, blocks: int = 1) -> ControllerRealization:
    """The design program of sys under dwell, minimized, once sys has passed
    its gates (`_design`).  U is block-diagonal on `blocks` equal blocks of
    states and inputs: U_lj is a zero without columns unless input l and
    state j share a block, and the positivity rows are written inside the
    blocks.  With blocks > 1, sys is a lift, whose selector jumps are
    nonnegative and have no input: no jump positivity rows.  The jump rows
    hold at the dwells [lo, hi] of `_jump_timers`, a single point unless the
    range is genuine: with X(theta) and a U_d polynomial in theta on [lo,
    hi], else with a constant U_d and X at the point, or with M in place of
    X (fixed_kd), whatever theta."""
    n, mc, md = sys.n, sys.mc, sys.md
    kind = _KIND[dwell.kind] + ("_FixedKd" if fixed_kd else "")
    x_degree = 0 if dwell.kind == "arbitrary" else degree
    Tend = _timer_end(dwell)
    lo, hi = _jump_timers(dwell)
    theta_poly = lo < hi and not fixed_kd

    prog = _Program(_product_cone)
    X = prog.poly_vec(n, x_degree, "X")
    nb, mb, zero = n // blocks, mc // blocks, np.zeros((1, 1))
    # the rows of the inputs b * mb + l of block b, zero off its states
    Uc = [[zero] * (b * nb) + prog.poly_vec(nb, x_degree, f"U{b * mb + l}") + [zero] * (n - (b + 1) * nb)
          for b in range(blocks) for l in range(mb)]
    gamma = prog.scalar(lo=0.0, name="gamma")
    alpha = prog.scalar(lo=0.0, hi=_ALPHA_CAP, name="alpha")
    if theta_poly:
        Ud = [prog.poly_vec(n, x_degree, f"Ud{l}") for l in range(md)]
    else:
        Ud = [[_var(prog.scalar(name=f"Ud{l}{j}")) for j in range(n)] for l in range(md)]
    M = [prog.scalar(lo=_X_MIN, hi=_X_CAP, name=f"M{j}") for j in range(n)] if fixed_kd else []
    mode = _DesignMode(prog, mode_mats(sys), X, Uc, Tend)
    mode.positivity(alpha, blocks)

    # the sides X is read on at the jump, each with the dwells its rows
    # hold at: X(theta) on [lo, hi], M (constant in theta, so point rows)
    # or X at a point.  Minimum dwell-time imposes
    # the positivity rows at both timer endpoints: the jump fires at a
    # frozen X(T) (sound gain recovery) while the reference condition
    # evaluates at X(0); the intersection keeps both readings valid.  The
    # last side carries the jump[k], out_d[k] and gain-cap rows.
    if theta_poly:
        sides = [(X, (lo, hi))]
    elif fixed_kd:
        sides = [([_var(v) for v in M], (lo, lo))]
    else:
        sides = [([_eval_at(x, t) for x in X], (t, t)) for t in ((0.0, lo) if dwell.kind == "minimum" else (lo,))]
    # per side, (J_k X + Bd_k Ud, Cd_k X + Dd_k Ud) for each jump map k; a
    # lift's are read on the last side only, as it has no positivity rows
    entries = [[[_entries(P[..., None], x_at, Q[..., None], Ud) for P, Q in ((jm.J, jm.Bd), (jm.Cd, jm.Dd))]
                for jm in sys.jumps] for x_at, _ in (sides if blocks == 1 else sides[-1:])]
    # positivity rows (J X + Bd Ud)_{ij} >= 0, (Cd X + Dd Ud)_{ij} >= 0, side by side
    for k, family in enumerate(("pos_jump", "pos_out_d") if blocks == 1 else ()):
        idx = 0
        for cells in zip(*(chain.from_iterable(e[0][k]) for e in entries)):
            for e, (_, dwells) in zip(cells, sides):
                prog.add_interval_ge(family, idx, e, dwells, 0.0)
                idx += 1

    mode.theorem_rows(gamma, margin, dwell.T if dwell.kind == "minimum" else None)
    x_at, dwells = sides[-1]
    _jump_rows(prog, sys.jumps, entries[-1], [_eval_at(x, 0.0) for x in X], gamma, dwells, margin, jump_margin)
    for j, (m, x) in enumerate(zip(M, X)):
        prog.add_interval_ge("x_below_M", j, _add(_var(m)[None], x, -1.0), (dwell.Tmin, dwell.Tmax), 0.0)

    mode.denominator()
    # numbered on from the continuous gain_cap rows
    _gain_cap_rows(prog, "gain_cap_d", 2 * mc * n, x_at, Ud, _GAIN_CAP, dwells)

    def finalize(sol, relax):
        ctrl = ControllerRealization(
            kind=kind,
            dwell=dwell,
            gamma=float(sol.x[gamma]),
            degree=x_degree,
            margin=margin,
            X=[_value(x, sol.x) for x in X],
            Uc=[[_value(u, sol.x) for u in row] for row in Uc],
            # a point design's U_d is read raw from sol.x, where _value would turn a -0.0 into 0.0
            Ud=[[_value(u, sol.x) if theta_poly else Poly.const(*[sol.x[v] for v in _terms(u)]) for u in row]
                for row in Ud] or None,
            M=np.array([sol.x[v] for v in M]) if fixed_kd else None,
        )
        _check_denominator(ctrl)
        return ctrl

    extra_obj: dict[int, float] = {}
    mode.regularize(extra_obj)
    for v in M:
        extra_obj[v] = extra_obj.get(v, 0.0) + _REG * max(Tend, 1.0)

    return _solve_with_escalation(prog, gamma, finalize, extra_obj, relax_schedule, dump_lp)


def _check_denominator(ctrl: ControllerRealization) -> None:
    """X > 0 on [0, tau_end] in every mode: the smallest Bernstein coefficient
    at the first order that proves X >= 0 (`poly.decide_nonneg`) is > 0;
    X(0) > 0 where tau_end = 0."""
    tau_end = _timer_end(ctrl.dwell)
    for x in chain.from_iterable(ctrl.X if ctrl.per_mode else [ctrl.X]):
        if not decide_nonneg(x, (0.0, tau_end) if tau_end else 0.0)[2] > 0:
            raise IllPosed("denominator X(tau) not positive on the working interval")


def synthesize_switched(
    sw: SwitchedSystem,
    T: float,
    degree: int = 2,
    margin: float = DEFAULT_MARGIN,
    relax_schedule=RELAX_SCHEDULE,
    dump_lp=None,
) -> ControllerRealization:
    """Per-mode state feedback under minimum dwell-time,
    synthesize(sw, DwellTimeSpec.minimum(T), degree) (`_design`)."""
    return _design(sw, DwellTimeSpec.minimum(T), degree, margin, False, relax_schedule, dump_lp)


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
