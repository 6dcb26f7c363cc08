"""Independent certificate verification.

Re-derives every theorem row from the certificate vector and the system data,
re-evaluates it on dense grids, proves each stored interval row nonnegative by
its exact Bernstein coefficients, and cross-checks the equivalent
state-transition (integral form) conditions by integrating the forced flow.
Both read the system through the simulator's evaluator, `sim._fields` for the
flow and outputs and `sim._jump_maps` for the jumps, so a plant, a closed loop
under a synthesized controller and a simulation are evaluated by the same
code.  Nothing here reuses the LP encoders.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import Mismatch, Unsupported
from .model import ImpulsiveSystem, SwitchedSystem, require_forward_time
from .poly import Poly
from .sim import _block_prefix, _fields, _jump_maps, _mv, _rk4_stage, _scan
from .synthesis import ClosedLoopView

__all__ = [
    "VerificationReport",
    "verify",
    "transition_matrix",
    "flow_grid",
    "cross_check_discrete",
]

_SLACK_TOL = 1e-8  # per unit of row scale


@dataclass
class VerificationReport:
    passed: bool
    worst_slack: dict[str, float] = field(default_factory=dict)
    grid_density: int = 0
    phi_residual: Optional[float] = None
    handelman_ok: Optional[bool] = None
    notes: list[str] = field(default_factory=list)

    def minimum_slack(self) -> float:
        return min(self.worst_slack.values()) if self.worst_slack else np.inf

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


def flow_grid(sys, taus: np.ndarray, clamp: Optional[float] = None, mode: Optional[int] = None):
    """(Phi, r, C, z) on a uniform grid, C-contiguous and component-major:
    Phi(tau_i, tau_0) is Phi[..., i] (n, n, len), r (n, len) the unit-input
    forced response from r(tau_0) = 0, and C (+D K_c) (q, n, len) and F * 1
    (q, len) the output terms on the grid points.

    `sys` is a plant (a SwitchedSystem with its `mode`) or a
    synthesis.ClosedLoopView, unpacked as `verify` does.  The data come from
    one `sim._fields` call with unit inputs on the points, then the cell
    midpoints; dPhi/dtau = A Phi and dr/dtau = A r + E * 1 are integrated by
    the simulator's RK4 maps and prefix scan, as a simulation integrates them."""
    plant, ctrl = _unpack(sys)
    taus = np.asarray(taus, dtype=float)
    m = len(taus) - 1
    h = taus[1] - taus[0] if m else 0.0
    if m and not np.allclose(np.diff(taus), h):
        raise ValueError("flow_grid needs a uniform grid")
    grid = np.concatenate([taus, taus[:-1] + 0.5 * h])
    A, b, C, z = _fields(plant, ctrl, mode, clamp, grid, np.ones(len(grid)), m + 1)
    n = plant.n
    if m < 1:
        return np.eye(n)[:, :, None], np.zeros((n, 1)), C, z
    R, s = _rk4_stage(A, b, slice(0, m), slice(m + 1, 2 * m + 1), slice(1, m + 1), h)
    tables = _block_prefix(R, s)
    return _scan(tables, np.eye(n), m, forced=False), _scan(tables, np.zeros(n), m), C, z


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
    resets at every jump."""
    if frm > to:
        raise ValueError("need frm <= to")
    if len(sys.jumps) != 1 and jumps_in_between:
        raise Unsupported("transition through jumps needs a single jump map")
    Phi = np.eye(sys.n)
    t_origin = frm if timer_origin is None else timer_origin
    t = frm
    events = sorted(tk for tk in jumps_in_between if frm < tk <= to)
    for tk in events + [to]:
        seg = tk - t
        if seg > 1e-15:
            m = max(1, int(np.ceil(seg / step)))
            taus = (t - t_origin) + np.arange(m + 1) * (seg / m)
            Phi = flow_grid(sys, taus, clamp)[0][..., -1] @ Phi
        if tk in events:
            Phi = sys.jump.J @ Phi
            t_origin = tk
        t = tk
    return Phi


# --- theorem-row re-derivation ------------------------------------------------


def _record(slacks: dict, family: str, value: float) -> None:
    slacks[family] = min(slacks.get(family, np.inf), float(value))


def _finish_report(cert, slacks: dict[str, float], grid: int) -> VerificationReport:
    scale = 1.0 + abs(cert.gamma)
    for zv in cert.zeta_vectors():
        for z in zv:
            scale = max(scale, z.max_abs_coeff())
    tol = _SLACK_TOL * scale
    # the theorem row p >= 0 (the LP's margin is not subtracted, as on the grid)
    notes = [
        f"row {row.family}[{row.index}] not proved at order {row.handelman.order}: "
        f"smallest Bernstein coefficient {float(row.handelman.min_coefficient(row.poly)):.3e}"
        for row in cert.rows
        if row.handelman is not None and not row.handelman.validate(row.poly, tol=tol)
    ]
    handelman_ok = not notes if cert.rows else None
    passed = all(v >= -tol for v in slacks.values()) and handelman_ok is not False
    bad = [f for f, v in slacks.items() if v < -tol]
    if bad:
        notes.append("violated rows: " + ", ".join(sorted(bad)))
    return VerificationReport(
        passed=passed,
        worst_slack=slacks,
        grid_density=grid,
        handelman_ok=handelman_ok,
        notes=notes,
    )


def verify(cert, sys, grid: int = 1000) -> VerificationReport:
    """Re-evaluate every row of the certificate's theorem on a dense grid and
    prove each stored interval row by its exact Bernstein coefficients.

    `sys` is an ImpulsiveSystem, a SwitchedSystem, or a
    synthesis.ClosedLoopView of one under a controller, which is unpacked to
    (plant, controller).  The flow and output data on the tau mesh come from
    the simulator's `_fields` with unit inputs and the jump rows of every theta
    at once from its `_jump_maps`, so a closed loop is read by the same
    evaluator as an open loop and as a simulation."""
    plant, ctrl = _unpack(sys)
    require_forward_time(plant, "verification")
    dwell = cert.dwell
    gamma = cert.gamma
    per_mode = cert.per_mode
    if isinstance(plant, SwitchedSystem):
        if not per_mode:
            raise Mismatch(f"{cert.kind} certificate cannot verify a switched system")
        if len(cert.zeta) != plant.N:
            raise Mismatch(f"certificate has {len(cert.zeta)} mode vectors, system has {plant.N}")
    else:
        if per_mode:
            raise Mismatch("switched certificate needs the switched system")
        if len(cert.zeta) != plant.n:
            raise Mismatch(f"certificate has {len(cert.zeta)} state rows, system has {plant.n}")
        if dwell.kind == "arbitrary" and not plant.is_constant():
            raise Mismatch("arbitrary-dwell certificate applies to constant systems")
    zsets = cert.zeta_vectors()
    if dwell.kind == "arbitrary":
        # the theorem's vector is the constant lambda = zeta(0)
        zsets = [[Poly.const(z.eval(0.0)) for z in zs] for zs in zsets]
        taus = np.array([0.0])
    else:
        taus = np.linspace(0.0, dwell.horizon_tau(), grid + 2)
        if dwell.clamp is not None:
            taus = np.minimum(taus, dwell.clamp)
    slacks: dict[str, float] = {}
    ends = []  # per mode: zeta at tau = 0 and at the end of the mesh
    for mode, zs in enumerate(zsets):
        tag = f"[{mode}]" if per_mode else ""
        # taus are clamped already; a controller clamps its own gains
        A, Ew, C, Fw = _fields(plant, ctrl, mode if per_mode else None, None, taus, np.ones(len(taus)), len(taus))
        zv = np.stack([z.eval(taus) for z in zs])
        zdv = np.stack([z.deriv().eval(taus) for z in zs])
        Az = _mv(A, zv) + Ew
        _record(slacks, "flow" + tag, np.min(zdv - Az))
        out = gamma - (_mv(C, zv) + Fw)
        if len(out):
            _record(slacks, "out_c" + tag, np.min(out))
        if dwell.kind == "minimum":
            # the mesh ends at tau = T, where the clamped flow is stationary
            _record(slacks, "stat_flow" + tag, np.min(-Az[:, -1]))
            if len(out):
                _record(slacks, "stat_out" + tag, np.min(out[:, -1]))
        _record(slacks, "pin_lo" + tag, np.min(zv[:, 0]))
        ends.append((zv[:, 0], zv[:, -1]))
    if per_mode:
        # a switch from mode j, its timer clamped at T, to mode i: zeta_i(0) >= zeta_j(T)
        for i, (z0, _) in enumerate(ends):
            for j, (_, zT) in enumerate(ends):
                if i != j:
                    _record(slacks, "couple", np.min(z0 - zT))
        return _finish_report(cert, slacks, grid)
    zs = zsets[0]
    z0 = ends[0][0][:, None]
    if dwell.kind == "range":
        thetas = np.linspace(dwell.Tmin, dwell.Tmax, min(grid, 301))
    else:
        thetas = np.array([dwell.T or 0.0])  # an arbitrary dwell has no T
    mu = cert.aux.get("mu")
    # jump targets and jump maps for every theta at once, one column per theta
    target = np.stack([p.eval(thetas) for p in (mu or zs)])
    ones = np.ones(len(thetas))
    for jk in range(len(plant.jumps)):
        J, Ed1, Cd, Fd1 = _jump_maps(plant, ctrl, np.full(len(thetas), jk), thetas, ones)
        _record(slacks, f"jump[{jk}]", np.min(z0 - (_mv(J, target) + Ed1)))
        if len(Cd):
            _record(slacks, f"out_d[{jk}]", np.min(gamma - (_mv(Cd, target) + Fd1)))
    if mu:
        _record(slacks, "mu_dom", np.min(target - np.stack([z.eval(thetas) for z in zs])))
    return _finish_report(cert, slacks, grid)


def cross_check_discrete(cert, sys, theta_points: int = 101, grid: int = 400) -> VerificationReport:
    """Check the equivalent state-transition (integral-form) conditions with
    lambda = zeta(0) by integrating the forced flow; referee for the
    statement equivalences.

    `sys` is a plant or a synthesis.ClosedLoopView, unpacked as `verify`
    does.  The flow and outputs come from `flow_grid`, the stationary rows
    from the simulator's `_fields` at T and the jump rows of every theta at
    once from its `_jump_maps`, so a closed loop is integrated with
    A + B K_c and jumps with J + B_d K_d(theta), as a simulation does."""
    plant, ctrl = _unpack(sys)
    require_forward_time(plant, "the state-transition cross-check")
    dwell = cert.dwell
    gamma = cert.gamma
    slacks: dict[str, float] = {}

    def at(t: float, mode=None):
        """A (+B K_c), E * 1, C (+D K_c) and F * 1 at the timer value t."""
        return tuple(f[..., 0] for f in _fields(plant, ctrl, mode, None, np.array([t]), np.ones(1), 1))

    if cert.per_mode:
        T = dwell.T
        taus = np.linspace(0.0, T, grid + 1)
        # integral-form vectors are the end-of-dwell values: a mode-i dwell is
        # entered from the predecessor's vector and must land below lambda_i
        lam = [np.array([z.eval(T) for z in zs]) for zs in cert.zeta]
        for i in range(plant.N):
            Phis, rs, C, z1 = flow_grid(sys, taus, mode=i)
            A_T, E1_T, C_T, F1_T = at(T, i)
            _record(slacks, f"stat_flow[{i}]", np.min(-(_mv(A_T, lam[i]) + E1_T)))
            _record(slacks, f"stat_out[{i}]", np.min(gamma - (_mv(C_T, lam[i]) + F1_T)))
            for j in range(plant.N):
                if i != j:
                    r_ij = _mv(Phis, lam[j]) + rs
                    _record(slacks, f"couple[{j}->{i}]", np.min(lam[i] - r_ij[:, -1]))
                    _record(slacks, f"out[{i},{j}]", gamma - np.max(_mv(C, r_ij) + z1))
        return _referee_report(slacks, gamma, grid)

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
    Phis, rs, C, z1 = flow_grid(sys, taus, clamp=dwell.clamp)
    r_of = _mv(Phis, lam) + rs
    if len(C):
        _record(slacks, "out_c", gamma - np.max(_mv(C, r_of) + z1))
    if dwell.kind == "minimum" and len(C):
        # only rows with nonnegative multipliers are consequences of the hybrid
        # certificate at lambda = zeta(0); the A(T)-weighted stationarity row is
        # not (A is Metzler, not nonnegative), so it is not a referee row here
        rT = r_of[:, min(int(round(dwell.T / h)), m)]
        _, _, C_T, F1_T = at(dwell.T)
        _record(slacks, "stat_out", np.min(gamma - (_mv(C_T, rT) + F1_T)))
    # the states and jump maps at every theta at once, one column per theta
    r_th = r_of[:, np.minimum(np.round(thetas / h).astype(int), m)]
    for jk in range(len(plant.jumps)):
        J, Ed1, Cd, Fd1 = _jump_maps(plant, ctrl, np.full(len(thetas), jk), thetas, np.ones(len(thetas)))
        _record(slacks, f"jump[{jk}]", np.min(lam[:, None] - (_mv(J, r_th) + Ed1)))
        if len(Cd):
            _record(slacks, f"out_d[{jk}]", np.min(gamma - (_mv(Cd, r_th) + Fd1)))
    return _referee_report(slacks, gamma, m)


def _referee_report(slacks: dict[str, float], gamma: float, grid: int) -> VerificationReport:
    resid = min(slacks.values()) if slacks else np.inf
    return VerificationReport(
        passed=resid >= -_SLACK_TOL * (1.0 + abs(gamma)),
        worst_slack=slacks,
        grid_density=grid,
        phi_residual=float(resid),
    )
