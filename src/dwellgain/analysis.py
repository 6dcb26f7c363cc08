"""Gain analysis: build and minimize the linear programs behind each
dwell-time stability/performance condition and return a checkable Certificate.

Every strict theorem inequality "expr < 0" is encoded as "-expr >= margin";
interval-valued rows are imposed through their Bernstein coefficients, one
equality row and one nonnegative slack column each; point rows are plain LP
rows.  gamma enters every encoding affinely and is minimized directly.

The theorem rows have one builder for analyses and designs: a design reads
zeta = X 1 (X diagonal) with numerators U = K X, so an analysis is the
design with U = 0.  `_Mode` (flow, output, stationary rows) and `_jump_rows`
write each as lead - sum_j (P X + Q U)_ij >= margin (`_theorem_row`).

Every analysis first refuses a system that `model.check_positive` does not
prove positive (`require_positive`, NotPositive): the theorems hold for
positive systems only.  Infeasible is proved in one of two ways.  Before the
LPs of the constant, minimum or range conditions are built,
`_unstable_orbit` looks for an admissible periodic orbit that is unstable,
rho(J Phi(theta)) > 1, or under minimum dwell an A(T) that is not Hurwitz;
either rules out every order.  Otherwise the sampled referee of the first
order that ends Infeasible decides (`_solve_with_escalation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    Infeasible,
    NotConstant,
    NumericalFailure,
    ParseError,
    RelaxationLimit,
)
from .lp import LinearProgram, LinExpr, PolyExpr, lp_solve
from .model import (DwellTimeSpec, ImpulsiveSystem, PolyMatrix, SwitchedSystem, polys_from_json, polys_to_json,
                    read_json, require_forward_time, require_positive, write_json)
from .poly import Poly

__all__ = [
    "Certificate",
    "analyze_arbitrary",
    "analyze_constant",
    "analyze_minimum",
    "analyze_range",
    "analyze_switched_min",
    "analyze_switched_blanchini",
    "analyze_lti",
    "DEFAULT_MARGIN",
    "DEFAULT_JUMP_MARGIN",
    "RELAX_SCHEDULE",
]

DEFAULT_MARGIN = 1e-6
# Strictness offset on the jump rows.  The reference results for this family of
# conditions embed a 0.01 closure of the discrete-time inequality; keeping it as
# the default makes certified gains reproduce those values (it only strengthens
# the certificate, so soundness is unaffected).
DEFAULT_JUMP_MARGIN = 1e-2
RELAX_SCHEDULE = (4, 6, 8, 10)
_ZETA_PIN = 1e6  # upper bound on zeta(0) fixing the free scaling
_REFEREE_SAMPLES = 51
# the unstable-orbit test (_unstable_orbit): mesh step bounds, mesh cap, tolerance
_ORBIT_STEP = 0.01
_ORBIT_HL = 0.25
_ORBIT_MAX_STEPS = 8192
_ORBIT_TOL = 1e-6
# dwell kind -> certificate kind
_KIND = {"arbitrary": "ArbitraryDT", "constant": "ConstantDT", "minimum": "MinimumDT", "range": "RangeDT"}


@dataclass
class Certificate:
    """Sufficient proof object for one analysis theorem."""

    kind: str
    gamma: float
    zeta: Union[list[Poly], list[list[Poly]]]
    dwell: DwellTimeSpec
    margin: float
    jump_margin: float
    degree: int
    aux: dict = field(default_factory=dict)
    relax: int = 0

    @property
    def per_mode(self) -> bool:
        return self.kind == "SwitchedMinDT"

    def zeta_vectors(self) -> list[list[Poly]]:
        return self.zeta if self.per_mode else [self.zeta]

    def to_json(self) -> dict:
        return {
            "type": "certificate",
            "kind": self.kind,
            "gamma": self.gamma,
            "dwell": self.dwell.to_json(),
            "margin": self.margin,
            "jump_margin": self.jump_margin,
            "degree": self.degree,
            "relax": self.relax,
            "zeta": polys_to_json(self.zeta),
            "aux": {k: polys_to_json(v) if k == "mu" else v for k, v in self.aux.items()},
        }

    @staticmethod
    def from_json(data: dict) -> "Certificate":
        try:
            kind = data["kind"]
            return Certificate(
                kind=kind,
                gamma=float(data["gamma"]),
                zeta=polys_from_json(data["zeta"], 1 + (kind == "SwitchedMinDT")),
                dwell=DwellTimeSpec.parse(data["dwell"]),
                margin=float(data["margin"]),
                jump_margin=float(data.get("jump_margin", data["margin"])),
                degree=int(data["degree"]),
                aux={k: polys_from_json(v, 1) if k == "mu" else v for k, v in data.get("aux", {}).items()},
                relax=int(data.get("relax", 0)),
            )
        except KeyError as exc:
            raise ParseError(f"certificate file missing field {exc.args[0]!r}") from exc

    def save(self, path: str) -> None:
        write_json(self.to_json(), path)

    @staticmethod
    def load(path: str) -> "Certificate":
        return read_json(path, Certificate.from_json)


def _row_ones(pm: PolyMatrix, i: int) -> Poly:
    """Sum of row i's entries: (M(tau) * ones)_i as a polynomial."""
    out = Poly.const(0.0)
    for j in range(pm.shape[1]):
        out = out + pm.entry(i, j)
    return out


@lru_cache(maxsize=None)
def _bernstein_weights(order: int) -> tuple[tuple[float, ...], ...]:
    """Row i holds C(i, k) / C(order, k), k <= i: the degree-`order` Bernstein
    coefficient b_i of q on [0, 1] is sum_k row_i[k] q_k."""
    return tuple(
        tuple(math.comb(i, k) / math.comb(order, k) for k in range(i + 1)) for i in range(order + 1)
    )


class _Program:
    """LP under construction plus the records of its rows, which its sampled referee reads."""

    def __init__(self, relax: int):
        self.lp = LinearProgram()
        self.relax = relax
        self.interval_records: list[dict] = []
        self.point_records: list[dict] = []

    def scalar(self, lo=None, hi=None, name="") -> int:
        return self.lp.new_var(lo, hi, name)

    def poly_vec(self, n: int, degree: int, name: str) -> list[PolyExpr]:
        out = []
        for i in range(n):
            ids = [self.lp.new_var(name=f"{name}{i}_c{k}") for k in range(degree + 1)]
            out.append(PolyExpr.from_vars(ids))
        return out

    def add_point_ge(self, family: str, index: int, expr: LinExpr, margin: float) -> None:
        # expr >= margin
        self.lp.add_ge(expr.coeffs, margin - expr.const)
        self.point_records.append({"family": family, "index": index, "expr": expr, "margin": margin})

    def add_interval_ge(
        self,
        family: str,
        index: int,
        pexpr: Union[PolyExpr, LinExpr],
        interval: tuple[float, float],
        margin: float,
    ) -> None:
        """pexpr(t) >= margin on [a, b] at order D = degree + relax, imposed by
        _cone_rows on q(s) = pexpr(a + h s), h = b - a, s in [0, 1].  A
        degenerate interval a = b is one point row, pexpr(a), or pexpr itself
        if it is a LinExpr already."""
        a, b = interval
        if not a < b:
            self.add_point_ge(family, index, pexpr if isinstance(pexpr, LinExpr) else pexpr.eval_at(a), margin)
            return
        order = pexpr.degree + self.relax
        self._cone_rows(f"{family}{index}", pexpr.shift_scale_arg(a, b - a), order, margin)
        self.interval_records.append(
            {"family": family, "index": index, "pexpr": pexpr, "interval": (a, b), "order": order, "margin": margin}
        )

    def _cone_rows(self, name: str, q: PolyExpr, order: int, margin: float) -> None:
        """q - margin in the degree-`order` Bernstein cone on [0, 1], the span
        of s^i (1 - s)^j, i + j <= D: each coefficient b_i(q) = sum_{k <= i}
        C(i, k) / C(D, k) q_k is one row b_i(q) - s_i = margin with a slack
        column s_i >= 0.  The slack's bound holds the sign to the solver's
        absolute tolerance; a >= row is checked only after scaling to unit
        norm, which let a coefficient of a range analysis end at -2e-5."""
        for i, weights in enumerate(_bernstein_weights(order)):
            slack = self.lp.new_var(0.0, None, name=f"{name}_b{i}")
            row = {slack: -1.0}
            const = 0.0
            for qk, w in zip(q.coeffs, weights):
                for v, c in qk.coeffs.items():
                    row[v] = row.get(v, 0.0) + w * c
                const += w * qk.const
            self.lp.add_eq(row, margin - const)

    def solve_min(self, gamma: int, extra_obj: Optional[dict[int, float]] = None):
        obj = {gamma: 1.0}
        if extra_obj:
            for v, c in extra_obj.items():
                obj[v] = obj.get(v, 0.0) + c
        self.lp.set_objective(obj)
        return lp_solve(self.lp)

    def sampled_referee(self) -> LinearProgram:
        """Same program with interval rows imposed on a finite grid only.

        This relaxation is necessary for the true semi-infinite program, so its
        infeasibility proves genuine infeasibility (vs. a relaxation limit).
        Its rows do not depend on the relaxation order; the slack (or cone)
        columns of the interval rows stay as empty columns.
        """
        lp = LinearProgram()
        lp.num_vars = self.lp.num_vars
        lp.bounds = dict(self.lp.bounds)
        lp.objective = dict(self.lp.objective)
        for rec in self.point_records:
            expr, margin = rec["expr"], rec["margin"]
            lp.add_ge(expr.coeffs, margin - expr.const)
        for rec in self.interval_records:
            cols, block, const = rec["pexpr"].eval_grid(np.linspace(*rec["interval"], _REFEREE_SAMPLES))
            lp.add_ge_block(cols, block, rec["margin"] - const)
        return lp


def _bilinear_entry(A_pm: PolyMatrix, X: list[PolyExpr], B_pm: PolyMatrix,
                    U: list[list[PolyExpr]], i: int, j: int) -> PolyExpr:
    """(A(tau) X(tau) + B(tau) U(tau))_{ij} as a PolyExpr (X diagonal)."""
    expr = X[j].mul_poly(A_pm.entry(i, j).coeffs)
    for l in range(len(U)):
        b = B_pm.entry(i, l)
        if not b.is_zero:
            expr = expr + U[l][j].mul_poly(b.coeffs)
    return expr


def _const_entries(x_at: list, U: list, P: np.ndarray, Q: Optional[np.ndarray]) -> list[list]:
    """(P X + Q U)_{ij} for constant matrices P and Q, X read on one side
    x_at: X(theta), X at a point, or M.  The entries are PolyExprs in theta or
    LinExprs, as x_at and U hold; Q is not read when U = []."""
    def entry(i: int, j: int):
        e = x_at[j].scaled(float(P[i, j]))
        for l, u in enumerate(U):
            e = e + u[j].scaled(float(Q[i, l]))
        return e

    return [[entry(i, j) for j in range(len(x_at))] for i in range(P.shape[0])]


def _theorem_row(prog: _Program, family: str, index: int, lead: Union[LinExpr, PolyExpr], entries: Sequence,
                 where: tuple[float, float], margin: float) -> None:
    """lead - sum(entries) >= margin at every timer value in where = (lo, hi),
    the one form of every theorem row.  The entries are PolyExprs in the
    timer, or LinExprs when lo = hi (one point row); a LinExpr lead over
    PolyExpr entries is the constant polynomial."""
    expr = PolyExpr([lead]) if isinstance(lead, LinExpr) and where[0] < where[1] else lead
    for e in entries:
        expr = expr - e
    prog.add_interval_ge(family, index, expr, where, margin)


class _Mode:
    """One mode's flow in the decision variables X(tau), the diagonal as a
    vector, and U(tau) on the timer interval (0, tau_end), mats = (A, B, E,
    C, D, F).  Each entry of A X + B U and C X + D U is built once.  A design
    (`synthesis._DesignMode`) adds its positivity and denominator rows from
    them; an analysis is the case X = zeta and U = [], where B and D are
    never read.  tau_end = 0 (arbitrary dwell-time) turns every interval row
    into a point row at tau = 0; families carry `tag` as a suffix."""

    def __init__(self, prog: _Program, mats: tuple, X: list[PolyExpr],
                 U: list[list[PolyExpr]], tau_end: float, tag: str = ""):
        A, B, _, C, D, _ = self.mats = mats
        self.prog, self.X, self.U, self.tag = prog, X, U, tag
        self.iv = (0.0, tau_end)
        n = len(X)
        self.flow = [[_bilinear_entry(A, X, B, U, i, j) for j in range(n)] for i in range(n)]
        self.out = [[_bilinear_entry(C, X, D, U, i, j) for j in range(n)] for i in range(C.shape[0])]

    def theorem_rows(self, gamma: int, margin: float, stat_at: Optional[float] = None) -> None:
        """flow: X_i' - E_i 1 - (A X + B U)_i 1 >= margin and out_c: gamma -
        F_i 1 - (C X + D U)_i 1 >= margin on (0, tau_end), the analysis rows
        under zeta = X 1; with stat_at = T (minimum dwell-time) also their
        stationary rows at tau = T, without X', from the matrices at T times
        X(T) and U(T)."""
        prog, tag = self.prog, self.tag
        A, B, E, C, D, F = self.mats
        gam = LinExpr.variable(gamma)
        for i, row in enumerate(self.flow):
            lead = self.X[i].deriv() - PolyExpr.from_poly(_row_ones(E, i).coeffs)
            _theorem_row(prog, f"flow{tag}", i, lead, row, self.iv, margin)
        for i, row in enumerate(self.out):
            lead = PolyExpr([gam]) - PolyExpr.from_poly(_row_ones(F, i).coeffs)
            _theorem_row(prog, f"out_c{tag}", i, lead, row, self.iv, margin)
        if stat_at is None:
            return
        T = stat_at
        X_T = [x.eval_at(T) for x in self.X]
        U_T = [[u.eval_at(T) for u in row] for row in self.U]
        for family, P, Q, leads in (
            ("stat_flow", A, B, [LinExpr.constant(-e) for e in E(T).sum(axis=1)]),
            ("stat_out", C, D, [gam - f for f in F(T).sum(axis=1)]),
        ):
            for i, row in enumerate(_const_entries(X_T, U_T, P(T), Q(T) if U_T else None)):
                _theorem_row(prog, f"{family}{tag}", i, leads[i], row, (T, T), margin)


def _jump_rows(prog: _Program, jumps: Sequence, entries: Sequence, x0: list[LinExpr], gamma: int,
               dwells: tuple[float, float], margin: float, jump_margin: float) -> None:
    """Per jump map k, with entries[k] = (J_k X + Bd_k U, Cd_k X + Dd_k U) read
    on one side (`_const_entries`): jump[k], X_i(0) - Ed_k,i 1 - (J_k X +
    Bd_k U)_i 1 >= jump_margin, and out_d[k], gamma - Fd_k,i 1 - (Cd_k X +
    Dd_k U)_i 1 >= margin, at every dwell in dwells = (lo, hi); x0 = X(0)."""
    for k, (jm, (jump, out_d)) in enumerate(zip(jumps, entries)):
        for i, (row, ed) in enumerate(zip(jump, jm.Ed.sum(axis=1))):
            _theorem_row(prog, f"jump[{k}]", i, x0[i] - ed, row, dwells, jump_margin)
        for i, (row, fd) in enumerate(zip(out_d, jm.Fd.sum(axis=1))):
            _theorem_row(prog, f"out_d[{k}]", i, LinExpr.variable(gamma) - fd, row, dwells, margin)


def _gain_rows_constant_like(
    prog: _Program, mats: tuple, jumps: Sequence, zeta: list[PolyExpr], gamma: int, tau_end: float,
    jump_dwells: tuple[float, float], margin: float, jump_margin: float, stationary_at: Optional[float] = None,
    mu: Optional[list[PolyExpr]] = None, tag: str = "",
) -> None:
    """The rows of the constant/minimum/range conditions, mats = (A, Bc, Ec,
    Cc, Dc, Fc) with the jump maps `jumps`, and of one switched mode, mats =
    (A, B, E, C, D, F) with jumps = (), tag suffixing its families.

    The theorem rows are a design's with X = zeta and U = []: flow and out_c
    on (0, tau_end) and the stationary rows at stationary_at (`_Mode`), and
    jump[k] and out_d[k] (`_jump_rows`) at every dwell theta in jump_dwells
    = (lo, hi) (`_jump_timers`), with mu(theta) in place of zeta(theta) when
    mu is given: polynomial rows in theta on [lo, hi], or point rows at
    theta = lo when lo == hi.  The mu domination and pin rows follow.
    """
    _Mode(prog, mats, zeta, [], tau_end, tag).theorem_rows(gamma, margin, stationary_at)
    lo, hi = jump_dwells
    target = zeta if mu is None else mu
    if not lo < hi:
        target = [t.eval_at(lo) for t in target]
    zeta0 = [z.eval_at(0.0) for z in zeta]
    entries = [[_const_entries(target, [], P, None) for P in (jm.J, jm.Cd)] for jm in jumps]
    _jump_rows(prog, jumps, entries, zeta0, gamma, jump_dwells, margin, jump_margin)

    # mu domination rows: mu(theta) - zeta(theta) >= 0 on [lo, hi]
    if mu is not None:
        for i in range(len(zeta)):
            prog.add_interval_ge("mu_dom", i, mu[i] - zeta[i], jump_dwells, 0.0)

    # scaling pin: margin <= zeta_i(0) <= PIN
    for i, z0 in enumerate(zeta0):
        prog.add_point_ge(f"pin_lo{tag}", i, z0, margin)
        prog.add_point_ge(f"pin_hi{tag}", i, LinExpr.constant(_ZETA_PIN) - z0, 0.0)


def _solve_with_escalation(build, relax_schedule=RELAX_SCHEDULE, dump_lp=None):
    """build(relax) -> (_Program, gamma var, finalize[, extra_obj]); escalate the
    relaxation order on infeasibility or numerical failure.

    Analyses of an unstable periodic orbit never get here: `_analyze_hybrid`
    raises Infeasible from `_unstable_orbit` first.  Otherwise the first
    order that ends Infeasible is followed by one solve of its sampled
    referee.  The referee relaxes the semi-infinite program (interval
    rows at finitely many points) while every order's LP restricts it (a
    Bernstein cone inside the nonnegative polynomials), so an infeasible
    referee proves that no order can succeed: Infeasible is raised at once.  A
    feasible referee lets the escalation go on, ending in RelaxationLimit if
    every order fails; a referee that fails numerically is recorded and
    escalation goes on, ending in NumericalFailure.  If no order ends
    Infeasible, the referee is solved after the last order.  Error messages
    list each outcome in the order it happened.
    """
    tried = []  # (what, LP status or NumericalFailure message)
    referee = None  # the referee's outcome (see _solve_referee) once solved
    for relax in relax_schedule:
        prog, gamma, finalize, *extra_obj = build(relax)
        try:
            sol = prog.solve_min(gamma, *extra_obj)
        except NumericalFailure as exc:
            tried.append((f"order +{relax}", f"NumericalFailure ({exc})"))
            continue
        if sol.status == "Optimal":
            if dump_lp:
                from .lp import dump_lp as _dump

                _dump(prog.lp, dump_lp)
            return finalize(prog, sol, relax)
        if sol.status == "Unbounded":
            raise NumericalFailure("gain LP unbounded; encoding error")
        if not prog.interval_records:
            raise Infeasible("conditions infeasible (finite LP)")
        tried.append((f"order +{relax}", sol.status))
        if referee is None:
            referee = _solve_referee(prog, tried)
            if referee == "Infeasible":
                break
    if referee is None:
        referee = _solve_referee(prog, tried)
    history = "; ".join(f"{what}: {status}" for what, status in tried)
    if referee == "Optimal":
        raise RelaxationLimit(
            f"interval relaxation exhausted at order +{relax_schedule[-1]} "
            f"while the sampled referee stays feasible [{history}]"
        )
    if referee == "NumericalFailure":
        raise NumericalFailure(f"sampled referee failed numerically [{history}]")
    raise Infeasible(f"conditions infeasible (sampled referee LP infeasible) [{history}]")


def _solve_referee(prog: _Program, tried: list) -> str:
    """Solve prog's sampled referee: "Optimal", "Infeasible" (any other LP
    status) or "NumericalFailure", whose message is appended to tried."""
    try:
        return "Optimal" if lp_solve(prog.sampled_referee()).status == "Optimal" else "Infeasible"
    except NumericalFailure as exc:
        tried.append(("referee", f"NumericalFailure ({exc})"))
        return "NumericalFailure"


def _timer_end(dwell: DwellTimeSpec) -> float:
    """The right end of the timer interval [0, tau_end] on which the flow rows
    hold: 0 under arbitrary dwell, where every row is a point row at tau = 0,
    else the dwell's horizon."""
    return 0.0 if dwell.kind == "arbitrary" else dwell.horizon_tau()


def _jump_timers(dwell: DwellTimeSpec) -> tuple[float, float]:
    """The dwell times [lo, hi] at which the jump rows are imposed: [Tmin,
    Tmax] for a range, collapsed to the one point Tmin when narrower than
    1e-12, else the one point _timer_end: 0 (arbitrary) or T (constant,
    minimum).  Constant dwell is the range [T, T]."""
    hi = _timer_end(dwell)
    lo = dwell.Tmin if dwell.kind == "range" else hi
    return lo, (hi if hi - lo > 1e-12 else lo)


def _radius_bound(M: np.ndarray) -> np.ndarray:
    """Collatz-Wielandt lower bounds on the spectral radii of the nonnegative
    matrices M (..., n, n): M v >= r v with v >= 0, v != 0 gives rho(M) >= r,
    so r = min (M v)_i / v_i over the support of v.  v is M^1024 1, by ten
    normalized squarings, with entries below 1e-12 of its largest set to 0:
    near the Perron vector, r is rho(M) to rounding where the Perron root is
    dominant, and lower where it is not.  A zero v gives 0."""
    P = M
    for _ in range(10):
        P = np.einsum("...ij,...jk->...ik", P, P)
        P /= np.maximum(np.abs(P).max(axis=(-2, -1), keepdims=True), 1e-300)
    v = P.sum(axis=-1)
    v = np.where(v > 1e-12 * v.max(axis=-1, keepdims=True), v, 0.0)
    on = v > 0.0
    r = np.where(on, np.einsum("...ij,...j->...i", M, v) / np.where(on, v, 1.0), np.inf).min(axis=-1)
    return np.where(np.isinf(r), 0.0, r)


def _unstable_orbit(
    sys: ImpulsiveSystem, dwell: DwellTimeSpec, margin: float, jump_margin: float
) -> Optional[str]:
    """Why no relaxation order of the constant, minimum or range conditions
    can be feasible, or None if this test finds no reason.

    Let margin > 0 and jump_margin >= 0, and let the system be positive on
    [0, hi], which `_analyze_hybrid` has proved (`require_positive`): A
    Metzler, Ec >= 0 and every J_k, Ed_k >= 0, where the jump rows hold at
    the dwell times [lo, hi] (`_jump_timers`).  Any order's zeta satisfies the
    theorem rows, so zeta(0) >= margin > 0 (pin rows), zeta' >= A zeta on
    [0, theta], hence zeta(theta) >= Phi(theta) zeta(0) by comparison with
    the flow, Phi(theta) >= 0, and the jump rows give zeta(0) >=
    J_k zeta(theta) >= J_k Phi(theta) zeta(0) for theta in [lo, hi].  By
    Collatz-Wielandt, rho(J_k Phi(theta)) <= 1 then, for every k.  Under
    minimum dwell the stationary rows give A(T) zeta(T) < 0 with
    zeta(T) >= Phi(T) zeta(0) > 0, so the Metzler A(T) is Hurwitz.

    Reported are a lower bound (`_radius_bound`) on the spectral abscissa of
    A(T) above _ORBIT_TOL times the size of A(T), or one on
    rho(J_k Phi(theta)) above 1 + _ORBIT_TOL at a mesh point theta in
    [lo, hi].  Phi comes from `cert.flow_grid` at a step of at most
    _ORBIT_STEP and _ORBIT_HL over a bound on |A(tau)|; the largest rho is
    recomputed on the half-step mesh and must still exceed 1 + _ORBIT_TOL by
    more than the two values differ, so the RK4 error cannot make it fire.
    A mesh longer than _ORBIT_MAX_STEPS skips the test."""
    if dwell.kind == "arbitrary" or not (margin > 0.0 and jump_margin >= 0.0):
        return None
    lo, hi = _jump_timers(dwell)
    if dwell.kind == "minimum":
        # the spectral abscissa of a Metzler matrix is rho(A(T) + s I) - s
        A_T = sys.A(dwell.T)
        shift = max(0.0, -A_T.diagonal().min())
        alpha = float(_radius_bound(A_T + shift * np.eye(sys.n))) - shift
        if alpha > _ORBIT_TOL * (1.0 + np.abs(A_T).max()):
            return f"A(T) is not Hurwitz at T = {dwell.T:.6g}: spectral abscissa >= {alpha:.4g}"
    from .cert import flow_grid

    # |A(tau)| <= the largest row sum of |coefficient| * hi^degree on [0, hi]
    A = sys.A.coeffs
    size = (np.abs(A) * hi ** np.arange(A.shape[2])).sum(axis=(1, 2)).max()
    m = max(1, math.ceil(hi / min(_ORBIT_STEP, _ORBIT_HL / max(size, 1e-300))))
    if 2 * m > _ORBIT_MAX_STEPS:
        return None

    def flow(steps: int) -> np.ndarray:
        return flow_grid(sys, np.linspace(0.0, hi, steps + 1))[0]

    taus = np.linspace(0.0, hi, m + 1)
    at = np.flatnonzero(taus >= lo)
    Js = np.stack([jm.J for jm in sys.jumps])
    # skip the flow where |J_k| exp(int_0^theta mu) <= 1 bounds every rho, mu
    # the infinity log-norm of A (its largest row sum, A being Metzler),
    # integrated by the trapezoid rule: an estimate suffices, as skipping
    # only leaves the decision to the LPs
    mu = sys.A.eval_mesh(taus).sum(axis=1).max(axis=0)
    growth = np.concatenate([[0.0], np.cumsum(0.5 * (mu[1:] + mu[:-1]) * (hi / m))])
    if Js.sum(axis=-1).max() * np.exp(growth[at].max()) <= 1.0 + _ORBIT_TOL:
        return None
    rho = _radius_bound(np.einsum("kij,jlt->ktil", Js, flow(m)[..., at]))
    k, t = np.unravel_index(np.argmax(rho), rho.shape)
    if rho[k, t] <= 1.0 + _ORBIT_TOL:
        return None
    fine = float(_radius_bound(np.einsum("ij,jl->il", Js[k], flow(2 * m)[..., 2 * at[t]])))
    if fine - abs(fine - rho[k, t]) <= 1.0 + _ORBIT_TOL:
        return None
    J = f"J[{k}]" if len(sys.jumps) > 1 else "J"
    return f"rho({J} Phi(theta)) >= {fine:.4g} at theta = {taus[at[t]]:.6g}"


def analyze_arbitrary(
    sys: ImpulsiveSystem,
    margin: float = DEFAULT_MARGIN,
    jump_margin: float = DEFAULT_JUMP_MARGIN,
) -> Certificate:
    """Arbitrary dwell-time gain bound for constant-matrix systems (plain LP):
    the hybrid rows with a constant zeta at the single timer value 0."""
    require_forward_time(sys, "arbitrary dwell-time analysis")
    if not sys.is_constant():
        raise NotConstant("arbitrary dwell-time analysis needs constant matrices")
    return _analyze_hybrid(sys, DwellTimeSpec.arbitrary(), 0, margin, jump_margin, (0,))


def _analyze_hybrid(
    sys: ImpulsiveSystem,
    dwell: DwellTimeSpec,
    degree: int,
    margin: float,
    jump_margin: float,
    relax_schedule,
    mu_variant: bool = False,
    dump_lp=None,
) -> Certificate:
    require_forward_time(sys, f"{dwell.kind} dwell-time analysis")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    require_positive(sys, _timer_end(dwell))
    lo, hi = _jump_timers(dwell)
    stationary_at = dwell.T if dwell.kind == "minimum" else None
    reason = _unstable_orbit(sys, dwell, margin, jump_margin)
    if reason:
        raise Infeasible(f"conditions infeasible ({reason})")

    def build(relax: int):
        prog = _Program(relax)
        zeta = prog.poly_vec(sys.n, degree, "zeta")
        gamma = prog.scalar(lo=0.0, name="gamma")
        mu = prog.poly_vec(sys.n, degree, "mu") if mu_variant and lo < hi else None
        _gain_rows_constant_like(
            prog,
            (sys.A, sys.Bc, sys.Ec, sys.Cc, sys.Dc, sys.Fc),
            sys.jumps,
            zeta,
            gamma,
            _timer_end(dwell),
            (lo, hi),
            margin,
            jump_margin,
            stationary_at=stationary_at,
            mu=mu,
        )

        def finalize(prog, sol, relax):
            zp = [z.value(sol.x) for z in zeta]
            aux = {}
            if mu is not None:
                aux["mu"] = [m.value(sol.x) for m in mu]
            return Certificate(
                kind=_KIND[dwell.kind],
                gamma=float(sol.x[gamma]),
                zeta=zp,
                dwell=dwell,
                margin=margin,
                jump_margin=jump_margin,
                degree=degree,
                aux=aux,
                relax=relax,
            )

        return prog, gamma, finalize

    return _solve_with_escalation(build, relax_schedule, dump_lp=dump_lp)


def analyze_constant(
    sys: ImpulsiveSystem,
    T: float,
    degree: int,
    margin: float = DEFAULT_MARGIN,
    jump_margin: float = DEFAULT_JUMP_MARGIN,
    relax_schedule=RELAX_SCHEDULE,
    dump_lp=None,
) -> Certificate:
    """Constant dwell-time hybrid-gain bound via a timer-polynomial vector."""
    return _analyze_hybrid(
        sys, DwellTimeSpec.constant(T), degree, margin, jump_margin, relax_schedule,
        dump_lp=dump_lp,
    )


def analyze_minimum(
    sys: ImpulsiveSystem,
    T: float,
    degree: int,
    margin: float = DEFAULT_MARGIN,
    jump_margin: float = DEFAULT_JUMP_MARGIN,
    relax_schedule=RELAX_SCHEDULE,
    dump_lp=None,
) -> Certificate:
    """Minimum dwell-time bound: constant-dwell rows plus stationarity at T.

    Timer clamping (matrices frozen at T for tau >= T) is part of the system
    semantics downstream (simulation/verification)."""
    return _analyze_hybrid(
        sys, DwellTimeSpec.minimum(T), degree, margin, jump_margin, relax_schedule,
        dump_lp=dump_lp,
    )


def analyze_range(
    sys: ImpulsiveSystem,
    Tmin: float,
    Tmax: float,
    degree: int,
    mode: str = "direct",
    margin: float = DEFAULT_MARGIN,
    jump_margin: float = DEFAULT_JUMP_MARGIN,
    relax_schedule=RELAX_SCHEDULE,
    dump_lp=None,
) -> Certificate:
    """Range dwell-time bound; jump rows become polynomials in the dwell theta.

    mode="mu_variant" adds the dominating vector used by dwell-time-independent
    synthesis (zeta(theta) <= mu(theta))."""
    if mode not in ("direct", "mu_variant"):
        raise ValueError(f"unknown mode {mode!r}")
    return _analyze_hybrid(
        sys,
        DwellTimeSpec.range(Tmin, Tmax),
        degree,
        margin,
        jump_margin,
        relax_schedule,
        mu_variant=(mode == "mu_variant"),
        dump_lp=dump_lp,
    )


def _coupling_rows(prog: _Program, zetas: Sequence[list[PolyExpr]], T: float) -> None:
    """couple[j->i]: zeta_i(0) - zeta_j(T) >= 0 for every switch j -> i,
    i != j, a closed inequality; zetas[i] is mode i's vector (X under a
    design)."""
    for i, zi in enumerate(zetas):
        for j, zj in enumerate(zetas):
            if i != j:
                for r, (a, b) in enumerate(zip(zi, zj)):
                    prog.add_point_ge(f"couple[{j}->{i}]", r, a.eval_at(0.0) - b.eval_at(T), 0.0)


def analyze_switched_min(
    sw: SwitchedSystem,
    T: float,
    degree: int,
    margin: float = DEFAULT_MARGIN,
    relax_schedule=RELAX_SCHEDULE,
    dump_lp=None,
) -> Certificate:
    """Minimum dwell-time L-infinity bound for switched systems: one polynomial
    vector per mode, coupled at the switch (nonstrict coupling rows)."""
    if sw.N < 2:
        raise DimensionMismatch("switched analysis needs at least two modes")
    if T <= 0:
        raise ValueError("T must be positive")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    require_positive(sw, T)
    n = sw.n

    def build(relax: int):
        prog = _Program(relax)
        zetas = [prog.poly_vec(n, degree, f"zeta{i}_") for i in range(sw.N)]
        gamma = prog.scalar(lo=0.0, name="gamma")
        for i, md in enumerate(sw.modes):
            _gain_rows_constant_like(
                prog, tuple(md[k] for k in "ABECDF"), (), zetas[i], gamma, T,
                jump_dwells=(T, T), margin=margin, jump_margin=0.0, stationary_at=T, tag=f"[{i}]",
            )
        _coupling_rows(prog, zetas, T)

        def finalize(prog, sol, relax):
            return Certificate(
                kind="SwitchedMinDT",
                gamma=float(sol.x[gamma]),
                zeta=[[z.value(sol.x) for z in zeta] for zeta in zetas],
                dwell=DwellTimeSpec.minimum(T),
                margin=margin,
                jump_margin=0.0,
                degree=degree,
                relax=relax,
            )

        return prog, gamma, finalize

    return _solve_with_escalation(build, relax_schedule, dump_lp=dump_lp)


def analyze_switched_blanchini(
    sw: SwitchedSystem,
    T: float,
    grid_points: int = 101,
    margin: float = DEFAULT_MARGIN,
) -> float:
    """Reference bound from the classical per-mode vector conditions, with the
    output coupling row sampled on a timer grid (necessary-only gridding)."""
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    for md in sw.modes:
        if any(not md[k].is_constant for k in ("A", "E", "C", "F")):
            raise NotConstant("this comparison bound needs timer-independent modes")
    require_positive(sw, T)
    from .cert import flow_grid

    n, q, N = sw.n, sw.q, sw.N
    taus = np.linspace(0.0, T, grid_points)
    Phis, forced = zip(*(flow_grid(sw, taus, mode=i)[:2] for i in range(N)))

    lp = LinearProgram()
    lam = [[lp.new_var(name=f"lam{i}_{r}") for r in range(n)] for i in range(N)]
    gamma = lp.new_var(lo=0.0, name="gamma")
    for i, md in enumerate(sw.modes):
        A = md["A"].const()
        E1 = md["E"].const().sum(axis=1)
        for r in range(n):
            lp.add_le({lam[i][c]: A[r, c] for c in range(n)}, -E1[r] - margin)
    for i in range(N):
        eAT = Phis[i][..., -1]
        integ = forced[i][:, -1]
        for j in range(N):
            if i == j:
                continue
            for r in range(n):
                row = {lam[j][c]: eAT[r, c] for c in range(n)}
                row[lam[i][r]] = row.get(lam[i][r], 0.0) - 1.0
                lp.add_le(row, -integ[r] - margin)
    for i, md in enumerate(sw.modes):
        C = md["C"].const()
        F1 = md["F"].const().sum(axis=1)
        for j in range(N):
            if i == j:
                continue
            for Ph in Phis[i].transpose(2, 0, 1):
                CP = C @ Ph
                CmCP = C - CP
                for r in range(q):
                    row = {lam[i][c]: CmCP[r, c] for c in range(n)}
                    for c in range(n):
                        row[lam[j][c]] = row.get(lam[j][c], 0.0) + CP[r, c]
                    row[gamma] = -1.0
                    lp.add_le(row, -F1[r] - margin)
    for i in range(N):
        for r in range(n):
            lp.add_ge({lam[i][r]: 1.0}, margin)
    lp.set_objective({gamma: 1.0})
    sol = lp_solve(lp)
    if sol.status != "Optimal":
        raise Infeasible("per-mode vector conditions infeasible at this dwell-time")
    return float(sol.objective_value)


def analyze_lti(
    sys: ImpulsiveSystem,
    norm: str = "Linf",
    time: str = "continuous",
    margin: float = 0.0,
) -> tuple[float, np.ndarray]:
    """LTI gain corollaries: minimal gamma plus the witness vector.

    continuous uses (A, Ec, Cc, Fc); discrete uses the jump tuple (J, Ed, Cd, Fd)
    as the one-step system."""
    if norm not in ("Linf", "L1") or time not in ("continuous", "discrete"):
        raise ValueError("norm must be Linf|L1 and time continuous|discrete")
    if not sys.is_constant():
        raise NotConstant("LTI analysis needs constant matrices")
    require_positive(sys, 0.0)
    if time == "continuous":
        A = sys.A.const()
        E = sys.Ec.const()
        C = sys.Cc.const()
        F = sys.Fc.const()
    else:
        jm = sys.jump
        A, E, C, F = jm.J, jm.Ed, jm.Cd, jm.Fd
    n = A.shape[0]
    q, p = C.shape[0], E.shape[1]

    lp = LinearProgram()
    v = [lp.new_var(lo=1e-12, name=f"v{i}") for i in range(n)]
    gamma = lp.new_var(lo=0.0, name="gamma")
    if norm == "Linf":
        Aeff = A if time == "continuous" else A - np.eye(n)
        for i in range(n):
            lp.add_le({v[j]: Aeff[i, j] for j in range(n)}, -float(E[i].sum()) - margin)
        for i in range(q):
            row = {v[j]: C[i, j] for j in range(n)}
            row[gamma] = -1.0
            lp.add_le(row, -float(F[i].sum()) - margin)
    else:
        Aeff = A if time == "continuous" else A - np.eye(n)
        ones_q = np.ones(q)
        for j in range(n):
            lp.add_le({v[i]: Aeff[i, j] for i in range(n)}, -float(ones_q @ C[:, j]) - margin)
        for j in range(p):
            row = {v[i]: E[i, j] for i in range(n)}
            row[gamma] = -1.0
            lp.add_le(row, -float(ones_q @ F[:, j]) - margin)
    lp.set_objective({gamma: 1.0})
    sol = lp_solve(lp)
    if sol.status != "Optimal":
        raise Infeasible("system not certifiably stable (LTI vector conditions)")
    return float(sol.x[gamma]), np.array([sol.x[i] for i in v])
