"""Independent certificate verification.

Re-derives every theorem row from the certificate vector and the system data,
proves it exactly in dyadic integers (Bernstein coefficients on an interval),
re-evaluates it on dense grids, and cross-checks the equivalent
state-transition (integral form) conditions by integrating the forced flow.
Both read the system through the simulator's evaluator, `sim._fields` for the
flow and outputs and `sim._jump_maps` for the jumps, so a plant, a closed loop
under a synthesized controller and a simulation are evaluated by the same
code.  A switched system, with its certificate or controller, is checked as
the impulsive one of its lift `model.lift_switched`, as the switched
analysis and design solve the lift's program.  Nothing here reuses the LP
encoders.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import Mismatch, NotPositive, Unsupported
from .model import (ImpulsiveSystem, SwitchedSystem, lift_switched, mode_mats, require_forward_time,
                    require_positive, require_positive_design)
from .poly import Poly, _Exact, decide_nonneg
from .sim import _fields, _flow_tables, _jump_maps, _mv
from .synthesis import ClosedLoopView

__all__ = [
    "VerificationReport",
    "verify",
    "transition_matrix",
    "flow_grid",
    "cross_check_discrete",
]

_SLACK_TOL = 1e-8  # per unit of the size of a row's own terms


@dataclass
class VerificationReport:
    passed: bool
    worst_slack: dict[str, float] = field(default_factory=dict)
    grid_density: int = 0
    phi_residual: Optional[float] = None
    handelman_ok: Optional[bool] = None
    notes: list[str] = field(default_factory=list)

    def table(self) -> str:
        lines = [f"{'row family':<18} {'worst slack':>14}"]
        for fam in sorted(self.worst_slack):
            lines.append(f"{fam:<18} {self.worst_slack[fam]:>14.3e}")
        if self.phi_residual is not None:
            lines.append(f"{'phi residual':<18} {self.phi_residual:>14.3e}")
        if self.handelman_ok is not None:
            lines.append(f"{'rows proved':<18} {str(self.handelman_ok):>14}")
        lines.append(f"{'passed':<18} {str(self.passed):>14}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return asdict(self)


# --- state-transition machinery ----------------------------------------------


def _unpack(sys):
    """(plant, controller) of a plant or of a synthesis.ClosedLoopView."""
    return (sys.sys, sys.ctrl) if isinstance(sys, ClosedLoopView) else (sys, None)


def _lifted(cert, plant, ctrl):
    """The certificate, plant and controller, a switched system's as those of
    `model.lift_switched`, once the certificate is seen to fit the plant."""
    switched = isinstance(plant, SwitchedSystem)
    if switched != cert.per_mode:
        raise Mismatch(f"{cert.kind} certificate cannot verify a switched system" if switched
                       else "switched certificate needs the switched system")
    count, what = (plant.N, "mode vectors") if switched else (plant.n, "state rows")
    if len(cert.zeta) != count:
        raise Mismatch(f"certificate has {len(cert.zeta)} {what}, system has {count}")
    return (cert.lifted(), lift_switched(plant), ctrl and ctrl.lifted()) if switched else (cert, plant, ctrl)


def flow_grid(sys, taus: np.ndarray, clamp: Optional[float] = None, mode: Optional[int] = None):
    """(Phi, r, C, z) on a uniform grid, C-contiguous and component-major:
    Phi(tau_i, tau_0) is Phi[..., i] (n, n, len), r (n, len) the unit-input
    forced response from r(tau_0) = 0, and C (+D K_c) (q, n, len) and F * 1
    (q, len) the output terms on the grid points.

    `sys` is a plant (a SwitchedSystem with its `mode`) or a
    synthesis.ClosedLoopView, unpacked as `verify` does.  The tables are the
    simulator's `_flow_tables` with unit inputs, so dPhi/dtau = A Phi and
    dr/dtau = A r + E * 1 are integrated by the RK4 maps and prefix scan that
    a simulation integrates them with."""
    plant, ctrl = _unpack(sys)
    taus = np.asarray(taus, dtype=float)
    m = len(taus) - 1
    if m and not np.allclose(np.diff(taus), taus[1] - taus[0], atol=0.0):  # relative to the step alone
        raise ValueError("flow_grid needs a uniform grid")
    return _flow_tables(plant, ctrl, mode, clamp, taus, np.ones(2 * m + 1))


def transition_matrix(
    sys: ImpulsiveSystem,
    frm: float,
    to: float,
    jumps_in_between: Sequence[float] = (),
    step: float = 1e-3,
    clamp: Optional[float] = None,
    timer_origin: Optional[float] = None,
) -> np.ndarray:
    """State-transition matrix from `frm` to `to` with jump maps applied at the
    listed instants; the timer is zero at `timer_origin` (default `frm`) and
    resets at every jump.  `sys` is an impulsive plant or a ClosedLoopView of
    one, whose jumps map by J + B_d K_d(theta), theta the dwell before the jump."""
    if not 0 < step < np.inf:
        raise ValueError(f"step must be finite and positive, got {step}")
    for name, value in (("frm", frm), ("to", to), ("timer_origin", frm if timer_origin is None else timer_origin)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if np.isnan(jumps_in_between).any():  # a NaN instant compares false, so it would be dropped silently
        raise ValueError(f"jumps_in_between must not hold NaN, got {list(jumps_in_between)}")
    if frm > to:
        raise ValueError("need frm <= to")
    plant, ctrl = _unpack(sys)
    if isinstance(plant, SwitchedSystem):
        raise Unsupported("transition_matrix needs an impulsive system: a switched one has no jump maps and no mode")
    if len(plant.jumps) != 1 and jumps_in_between:
        raise Unsupported("transition through jumps needs a single jump map")
    Phi = np.eye(plant.n)
    t_origin = frm if timer_origin is None else timer_origin
    t = frm
    events = sorted(tk for tk in jumps_in_between if frm < tk <= to)
    for tk in events + [to]:
        seg = tk - t
        if seg > 1e-15:
            m = max(1, int(np.ceil(seg / step)))
            taus = (t - t_origin) + np.arange(m + 1) * (seg / m)
            Phi = _flow_tables(plant, ctrl, None, clamp, taus)[0][..., -1] @ Phi
        if tk in events:
            Phi = _jump_maps(plant, ctrl, [0], [tk - t_origin], [0.0])[0][..., 0] @ Phi
            t_origin = tk
        t = tk
    return Phi


# --- theorem-row re-derivation ------------------------------------------------

ZERO, ONE = _Exact((0,)), _Exact((1,))


def _affine(pairs, R: float):
    """Per row i, sum_j M_ij V_j over the (M, V) pairs, exactly, and the size
    sum_j |M_ij|(R) |V_j|(R) of its terms; M holds coefficient arrays (r, c, k)
    or constants (r, c), V exact polynomials."""
    rows, sizes = [ZERO] * len(pairs[0][0]), [0.0] * len(pairs[0][0])
    for M, V in pairs:
        vs = [v.size(R) for v in V]
        for i, row in enumerate(np.atleast_3d(M).tolist()):
            for m, v, size in zip(row, V, vs):
                if any(m):
                    rows[i] += _Exact.of(m) * v
                    sizes[i] += sum(abs(c) * R**k for k, c in enumerate(m)) * size
    return rows, sizes


def _inputs(U, X: list[Poly], zs: list[Poly]) -> list[_Exact]:
    """(U X^-1 zeta)_l for a diagonal X: sum_j U_lj, exact for the
    controller's own certificate zeta = X (an entry U_lj = 0 drops out)."""
    if any(not u.is_zero and x != z for row in U for u, x, z in zip(row, X, zs)):
        raise Mismatch("a closed loop is verified for its controller's certificate zeta = X")
    return [sum((_Exact.of(u.coeffs) for u in row), ZERO) for row in U]


def _positivity_notes(what: str, P, X: list[_Exact], Q, U: list[list[_Exact]], domain, R: float,
                      metzler: bool = False) -> list[str]:
    """A note for each entry (P X + Q U)_ij >= 0 of a design's positivity rows
    (off the diagonal when metzler), X diagonal, that is not proved on domain
    as a theorem row is; P and Q as in `_affine`."""
    notes = []
    for j, x in enumerate(X):
        rows, sizes = _affine([(np.atleast_3d(P)[:, j:j + 1], [x]), (Q, [u[j] for u in U])], R)
        for i, (row, size) in enumerate(zip(rows, sizes)):
            if row is ZERO or metzler and i == j:
                continue
            proved, d, least = decide_nonneg(row, domain, _SLACK_TOL * size)
            if not proved:
                notes.append(f"closed loop not positive: {what}[{i}, {j}] {_smallest(domain, d, float(least))}")
    return notes


def _smallest(domain, d: int, value: float) -> str:
    """The words that name a row's smallest order-d Bernstein coefficient on an
    interval domain, or its value at a point domain, and that number."""
    where = f"at order {d}: smallest Bernstein coefficient" if isinstance(domain, tuple) else f"at {domain:g}: value"
    return f"{where} {value:.3e}"


def verify(cert, sys, grid: int = 1000) -> VerificationReport:
    """Prove every row of the certificate's theorem exactly, and re-evaluate
    it on a dense grid as the independent referee of that proof.

    `sys` is an ImpulsiveSystem, a SwitchedSystem, or a
    synthesis.ClosedLoopView of one under a controller, which is unpacked to
    (plant, controller).  A switched system is verified as its lift, with
    the certificate and controller lifted (`_lifted`), so its coupling rows
    zeta_i(0) - zeta_j(theta) >= 0 are the rows of jump[k], k indexing the
    lift's jumps; a jump row with no term, zeta_i(0) >= 0 of a lift's
    inactive block, is pin_lo's row and proved once, there.  The proof
    re-derives each row from zeta, mu, gamma and the plant data in exact
    dyadic integers; a closed loop's zeta is X, so (A + B K_c) zeta =
    (A X + B U_c) 1 and the jump rows (J X + B_d U_d) 1 are polynomials (a
    fixed-K_d row is proved times prod M).  A row is
    decided by `poly.decide_nonneg`: on an interval by its Bernstein
    coefficients at the first of its degree + RELAX_SCHEDULE that proves it,
    at a point by its value.  The grid reads the flow and output data from
    the simulator's `_fields` with unit inputs and the jump rows of every
    theta at once from its `_jump_maps`.  Either way a row passes at
    >= -_SLACK_TOL times the size of its own terms, sum |c_k| R^k over their
    coefficients with R the far end of the row's domain.  The positivity
    hypothesis is proved too, a failure being a note: a plant's by
    `model.require_positive`, a closed loop's by `model.require_positive_design`
    for the matrices no feedback changes and from its design's positivity
    rows (`_positivity_notes`) on the channels with an input, as the theorem
    rows are; a switched system's before the lift."""
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    given, ctrl = _unpack(sys)
    require_forward_time(given, "verification")
    cert, plant, ctrl = _lifted(cert, given, ctrl)
    dwell, gamma = cert.dwell, cert.gamma
    if dwell.kind == "arbitrary" and not plant.is_constant():
        raise Mismatch("arbitrary-dwell certificate applies to constant systems")
    if dwell.kind == "arbitrary":
        taus = np.array([0.0])
    else:
        taus = np.linspace(0.0, dwell.horizon_tau(), grid + 2)
        if dwell.clamp is not None:
            taus = np.minimum(taus, dwell.clamp)
    R = float(taus[-1])
    where = (0.0, R) if R > 0 else 0.0
    gam = _Exact.of((gamma,))
    positivity = []  # notes: the entries of the positivity hypothesis not proved
    try:
        (require_positive if ctrl is None else require_positive_design)(given, R)
    except NotPositive as exc:
        positivity.append(str(exc))
    # the theorem's vector under an arbitrary dwell is the constant lambda = zeta(0)
    zs = [Poly.const(z.eval(0.0)) for z in cert.zeta] if dwell.kind == "arbitrary" else cert.zeta
    rows: dict[str, list] = {}  # per family: (grid minimum, exact row, domain, size, weight) per row
    own = lambda polys, end: (polys, [p.size(end) for p in polys])  # exact polynomials, with their sizes

    def add(family, values, lead, y, domain, weight=1.0, bare=True):
        """Rows lead - y: their grid minima, and exactly with the sizes of
        their terms; unless bare, a row whose y has no term is left out."""
        lows = np.asarray(values, dtype=float).reshape(len(lead[0]), -1).min(axis=1)
        for low, a, sa, b, sb in zip(lows, *lead, *y):
            if bare or b is not ZERO:
                rows.setdefault(family, []).append((low, a - b, domain, sa + sb, weight))

    # taus are clamped already; a controller clamps its own gains
    A, Ew, C, Fw = _fields(plant, ctrl, None, None, taus, np.ones(len(taus)), len(taus))
    zv = np.stack([z.eval(taus) for z in zs])
    zdv = np.stack([z.deriv().eval(taus) for z in zs])
    Az = _mv(A, zv) + Ew
    Z = [_Exact.of(z.coeffs) for z in zs]
    A_, B_, E_, C_, D_, F_ = mode_mats(plant)
    u = [] if ctrl is None else _inputs(ctrl.Uc, ctrl.X, zs)
    if ctrl is not None and plant.mc:
        X = [_Exact.of(x.coeffs) for x in ctrl.X]
        Uc = [[_Exact.of(p.coeffs) for p in row] for row in ctrl.Uc]
        positivity += _positivity_notes("A X + B U_c", A_.coeffs, X, B_.coeffs, Uc, where, R, True)
        positivity += _positivity_notes("C X + D U_c", C_.coeffs, X, D_.coeffs, Uc, where, R)
    drift = _affine([(A_.coeffs, Z), (B_.coeffs, u), (E_.coeffs, [ONE] * E_.shape[1])], R)
    y = _affine([(C_.coeffs, Z), (D_.coeffs, u), (F_.coeffs, [ONE] * F_.shape[1])], R)
    add("flow", zdv - Az, own([z.deriv() for z in Z], R), drift, where)
    out = gamma - (_mv(C, zv) + Fw)
    if len(out):
        add("out_c", out, own([gam] * len(out), R), y, where)
    if dwell.kind == "minimum":
        # the mesh ends at tau = T, where the clamped flow is stationary
        add("stat_flow", -Az[:, -1], own([ZERO] * len(Z), R), drift, R)
        if len(out):
            add("stat_out", out[:, -1], own([gam] * len(out), R), y, R)
    add("pin_lo", zv[:, 0], own(Z, 0.0), own([ZERO] * len(Z), 0.0), 0.0)
    if dwell.kind == "range":
        thetas = np.linspace(dwell.Tmin, dwell.Tmax, min(grid, 301))
        at = (dwell.Tmin, dwell.Tmax) if dwell.Tmin < dwell.Tmax else dwell.Tmin
    else:
        thetas = np.array([dwell.T or 0.0])  # an arbitrary dwell has no T
        at = float(thetas[0])
    Rt = float(thetas[-1])
    mu = cert.aux.get("mu")
    # jump targets and jump maps for every theta at once, one column per theta
    target = np.stack([p.eval(thetas) for p in (mu or zs)])
    goal = [_Exact.of(p.coeffs) for p in mu] if mu else Z
    w, v = ONE, []  # the jump rows times the weight w, and w (K_d target)_l
    if ctrl is not None and plant.md:
        fixed = ctrl.M is not None
        # K_d = U_d X^-1 at the jump dwells, or U_d M^-1 under a fixed K_d
        Xd = [_Exact.of((x,)) for x in ctrl.M] if fixed else [_Exact.of(x.coeffs) for x in ctrl.X]
        Ue = [[_Exact.of(p.coeffs) for p in row] for row in ctrl.Ud]
        for jk, jm in enumerate(plant.jumps):
            of = f"jumps[{jk}]: " if len(plant.jumps) > 1 else ""
            positivity += _positivity_notes(of + "J X + B_d U_d", jm.J, Xd, jm.Bd, Ue, at, Rt)
            positivity += _positivity_notes(of + "C_d X + D_d U_d", jm.Cd, Xd, jm.Dd, Ue, at, Rt)
        if fixed:  # the rows times prod M are exact
            w = math.prod(Xd, start=ONE)
            v = [sum((u * math.prod(Xd[:j] + Xd[j + 1:], start=ONE) * g
                      for j, (u, g) in enumerate(zip(row, goal))), ZERO) for row in Ue]
        else:
            v = _inputs(ctrl.Ud, ctrl.X, mu or zs)
    wgoal, ones, weight = [w * g for g in goal], [w] * plant.pd, w.size(0.0)
    for jk, jm in enumerate(plant.jumps):
        J, Ed1, Cd, Fd1 = _jump_maps(plant, ctrl, np.full(len(thetas), jk), thetas, np.ones(len(thetas)))
        y = _affine([(jm.J, wgoal), (jm.Bd, v), (jm.Ed, ones)], Rt)
        add(f"jump[{jk}]", zv[:, :1] - (_mv(J, target) + Ed1), own([w * z.at(0.0) for z in Z], 0.0), y, at, weight,
            bare=w is not ONE)  # a row with no term is pin_lo's, unless weighted
        if len(Cd):
            y = _affine([(jm.Cd, wgoal), (jm.Dd, v), (jm.Fd, ones)], Rt)
            add(f"out_d[{jk}]", gamma - (_mv(Cd, target) + Fd1), own([w * gam] * len(Cd), 0.0), y, at, weight)
    if mu:
        add("mu_dom", target - np.stack([z.eval(thetas) for z in zs]), own(goal, Rt), own(Z, Rt), at)
    return _report(rows, grid, positivity)


def _report(rows: dict, grid: int, positivity: list[str]) -> VerificationReport:
    """The verdict: each row proved exactly, and its grid minimum, at >= -_SLACK_TOL times the
    size of its own terms; a row proved times a weight w has that size divided by w on the grid.
    The positivity notes come first, and any of them fails the report."""
    notes, bad = [], []
    for family, parts in rows.items():
        for k, (low, row, domain, size, w) in enumerate(parts):
            proved, d, least = decide_nonneg(row, domain, _SLACK_TOL * size)
            if not proved:
                notes.append(f"row {family}[{k}] not proved {_smallest(domain, d, float(least) / w)}")
        if not all(low >= -_SLACK_TOL * size / w for low, _, _, size, w in parts):
            bad.append(family)
    proved = not notes
    notes = positivity + notes + (["violated rows: " + ", ".join(sorted(bad))] if bad else [])
    worst = {family: min(float(p[0]) for p in parts) for family, parts in rows.items()}
    return VerificationReport(proved and not bad and not positivity, worst, grid, handelman_ok=proved, notes=notes)


def cross_check_discrete(cert, sys, theta_points: int = 101, grid: int = 400) -> VerificationReport:
    """Check the equivalent state-transition (integral-form) conditions with
    lambda = zeta(0) by integrating the forced flow; referee for the
    statement equivalences.

    `sys` is a plant or a synthesis.ClosedLoopView, unpacked and, for a
    switched system, lifted as `verify` does.  The flow and outputs come
    from the simulator's `_flow_tables` (as `flow_grid` gives them), the
    stationary rows from its `_fields` at T and the jump rows of every theta
    at once from its `_jump_maps`, so a closed loop is integrated with
    A + B K_c and jumps with J + B_d K_d(theta), as a simulation does.  Each
    dwell theta reads the state at the first grid point at or after it, a
    dwell the certificate covers.  A row passes at >= -_SLACK_TOL times the
    size of its own terms at each point."""
    if theta_points < 1 or grid < 1:
        raise ValueError(f"theta_points and grid must be >= 1, got theta_points={theta_points}, grid={grid}")
    plant, ctrl = _unpack(sys)
    require_forward_time(plant, "the state-transition cross-check")
    cert, plant, ctrl = _lifted(cert, plant, ctrl)
    dwell = cert.dwell
    gamma = cert.gamma
    slacks, bad = {}, set()  # per family, the worst slack; the families with a row below its tolerance

    def row(family, lead, M, x, c):
        """The row lead - (M x + c), judged against the size |lead| + |M| |x| + |c|."""
        value = lead - (_mv(M, x) + c)
        slacks[family] = min(slacks.get(family, np.inf), float(np.min(value)))
        if not np.all(value >= -_SLACK_TOL * (np.abs(lead) + _mv(np.abs(M), np.abs(x)) + np.abs(c))):
            bad.add(family)

    def at(t: float):
        """A (+B K_c), E * 1, C (+D K_c) and F * 1 at the timer value t."""
        return tuple(f[..., 0] for f in _fields(plant, ctrl, None, None, np.array([t]), np.ones(1), 1))

    lam = np.array([z.eval(0.0) for z in cert.zeta])
    if dwell.kind == "arbitrary":  # a constant flow, whose decay rate sets the horizon
        decay = -float(np.max(np.real(np.linalg.eigvals(at(0.0)[0]))))
        lo, hi = 0.0, float(np.clip(10.0 / max(decay, 1e-3), 1.0, 100.0))
    else:
        lo, hi = (dwell.Tmin, dwell.Tmax) if dwell.kind == "range" else (dwell.T, dwell.T)
        hi = 3.0 * dwell.T + 1.0 if dwell.kind == "minimum" else hi
    thetas = np.linspace(lo, hi, 1 if dwell.kind == "constant" else theta_points)
    m = max(grid, theta_points * 4)
    taus = np.linspace(0.0, hi, m + 1)
    h = taus[1] - taus[0]
    Phis, rs, C, z1 = _flow_tables(plant, ctrl, None, dwell.clamp, taus, np.ones(2 * m + 1))
    r_of = _mv(Phis, lam) + rs
    if len(C):
        row("out_c", gamma, C, r_of, z1)
    if dwell.kind == "minimum" and len(C):
        # only rows with nonnegative multipliers are consequences of the hybrid
        # certificate at lambda = zeta(0); the A(T)-weighted stationarity row is
        # not (A is Metzler, not nonnegative), so it is not a referee row here
        _, _, C_T, F1_T = at(dwell.T)
        row("stat_out", gamma, C_T, r_of[:, min(int(round(dwell.T / h)), m)], F1_T)
    # the states and jump maps at every theta at once, one column per theta
    r_th = r_of[:, np.minimum(np.ceil(thetas / h).astype(int), m)]
    for jk in range(len(plant.jumps)):
        J, Ed1, Cd, Fd1 = _jump_maps(plant, ctrl, np.full(len(thetas), jk), thetas, np.ones(len(thetas)))
        row(f"jump[{jk}]", lam[:, None], J, r_th, Ed1)
        if len(Cd):
            row(f"out_d[{jk}]", gamma, Cd, r_th, Fd1)
    return _referee_report(slacks, bad, m)


def _referee_report(slacks: dict[str, float], bad: set, grid: int) -> VerificationReport:
    resid = min(slacks.values()) if slacks else np.inf
    return VerificationReport(
        passed=not bad,
        worst_slack=slacks,
        grid_density=grid,
        phi_residual=float(resid),
    )
