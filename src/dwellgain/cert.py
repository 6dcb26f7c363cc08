"""Independent certificate verification.

Re-derives every theorem row from the certificate vector and the system data,
re-evaluates it on dense grids, re-validates the interval-certificate weights,
and cross-checks the equivalent state-transition (integral form) conditions by
integrating the forced flow.  Nothing here reuses the LP encoders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import Mismatch, Unsupported
from .model import ImpulsiveSystem, PolyMatrix, SwitchedSystem
from .poly import Poly
from .sim import _block_prefix, _rk4_maps, _scan

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
            lines.append(f"{'weights valid':<18} {str(self.handelman_ok):>14}")
        lines.append(f"{'passed':<18} {str(self.passed):>14}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "worst_slack": dict(self.worst_slack),
            "grid_density": self.grid_density,
            "phi_residual": self.phi_residual,
            "handelman_ok": self.handelman_ok,
            "notes": list(self.notes),
        }


# --- state-transition machinery ----------------------------------------------


def flow_grid(
    A_pm: PolyMatrix,
    E_pm: Optional[PolyMatrix],
    taus: np.ndarray,
    clamp: Optional[float] = None,
):
    """Phi(tau_i, 0) and the unit-input forced response on a uniform grid.

    Integrates dPhi/dtau = A(tau) Phi and dr/dtau = A(tau) r + E(tau) * 1 with
    the fixed-step RK4 machinery; taus must be uniform starting at 0."""
    taus = np.asarray(taus, dtype=float)
    m = len(taus) - 1
    if m < 1:
        n = A_pm.shape[0]
        return np.eye(n)[None, :, :], np.zeros((1, n))
    h = taus[1] - taus[0]
    if not np.allclose(np.diff(taus), h):
        raise ValueError("flow_grid needs a uniform grid")
    n = A_pm.shape[0]

    def A_of(ts):
        return A_pm.eval_mesh(ts, clamp)

    if E_pm is None:
        b_of = lambda ts: np.zeros((len(ts), n))
    else:
        b_of = lambda ts: E_pm.eval_mesh(ts, clamp).sum(axis=2)

    _, R, s = _rk4_maps(A_of, b_of, h, m)
    P, q = _block_prefix(R, s)
    return _scan(P, None, np.eye(n), m), _scan(P, q, np.zeros(n), m)


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
    n = sys.n
    Phi = np.eye(n)
    t_origin = frm if timer_origin is None else timer_origin
    t = frm
    events = sorted(tk for tk in jumps_in_between if frm < tk <= to)
    for tk in events + [to]:
        seg = tk - t
        if seg > 1e-15:
            m = max(1, int(np.ceil(seg / step)))
            h = seg / m
            off = t - t_origin

            def A_of(ts):
                return sys.A.eval_mesh(ts + off, clamp)

            b_of = lambda ts: np.zeros((len(ts), n))
            _, R, s = _rk4_maps(A_of, b_of, h, m)
            Phi = _scan(_block_prefix(R, s)[0], None, Phi, m)[-1]
        if tk < to or (tk == to and tk in events):
            if tk in events:
                Phi = sys.jump.J @ Phi
                t_origin = tk
        t = tk
    return Phi


# --- theorem-row re-derivation ------------------------------------------------


def _zeta_rows_symbolic(A: PolyMatrix, Ec: PolyMatrix, Cc: PolyMatrix, Fc: PolyMatrix,
                        zeta: list[Poly], gamma: float):
    """Flow/output row polynomials in tau derived with plain Poly arithmetic."""
    n, qc = A.shape[0], Cc.shape[0]
    flow, out_c = [], []
    for i in range(n):
        expr = zeta[i].deriv()
        for j in range(n):
            expr = expr - A.entry(i, j) * zeta[j]
        for j in range(Ec.shape[1]):
            expr = expr - Ec.entry(i, j)
        flow.append(expr)
    for i in range(qc):
        expr = Poly.const(gamma)
        for j in range(n):
            expr = expr - Cc.entry(i, j) * zeta[j]
        for j in range(Fc.shape[1]):
            expr = expr - Fc.entry(i, j)
        out_c.append(expr)
    return flow, out_c


def _grid_min(p: Poly, interval, grid: int, clamp: Optional[float] = None) -> float:
    a, b = interval
    taus = np.linspace(a, b, grid + 2)
    if clamp is not None:
        taus = np.minimum(taus, clamp)
    return float(np.min(p.eval(taus)))


def _record(slacks: dict, family: str, value: float) -> None:
    slacks[family] = min(slacks.get(family, np.inf), float(value))


def _verify_impulsive(cert, sys: ImpulsiveSystem, grid: int) -> VerificationReport:
    zeta = cert.zeta
    gamma = cert.gamma
    n = sys.n
    if len(zeta) != n:
        raise Mismatch(f"certificate has {len(zeta)} state rows, system has {n}")
    dwell = cert.dwell
    clamp = dwell.clamp
    slacks: dict[str, float] = {}
    if dwell.kind == "arbitrary":
        if not sys.is_constant():
            raise Mismatch("arbitrary-dwell certificate applies to constant systems")
        lam = np.array([z.eval(0.0) for z in zeta])
        A = sys.A.const()
        _record(slacks, "flow", float(np.min(-(A @ lam + sys.Ec.const().sum(axis=1)))))
        if sys.qc:
            _record(
                slacks,
                "out_c",
                float(np.min(gamma - (sys.Cc.const() @ lam + sys.Fc.const().sum(axis=1)))),
            )
        for jk, jm in enumerate(sys.jumps):
            _record(slacks, f"jump[{jk}]", float(np.min(-(jm.J @ lam - lam + jm.Ed.sum(axis=1)))))
            if jm.Cd.shape[0]:
                _record(
                    slacks,
                    f"out_d[{jk}]",
                    float(np.min(gamma - (jm.Cd @ lam + jm.Fd.sum(axis=1)))),
                )
        _record(slacks, "pin_lo", float(np.min(lam)))
    else:
        Tend = dwell.horizon_tau()
        flow_rows, out_rows = _zeta_rows_symbolic(sys.A, sys.Ec, sys.Cc, sys.Fc, zeta, gamma)
        for i, p in enumerate(flow_rows):
            _record(slacks, "flow", _grid_min(p, (0.0, Tend), grid, clamp))
        for i, p in enumerate(out_rows):
            _record(slacks, "out_c", _grid_min(p, (0.0, Tend), grid, clamp))
        if dwell.kind == "minimum":
            T = dwell.T
            zT = np.array([z.eval(T) for z in zeta])
            _record(slacks, "stat_flow", float(np.min(-(sys.A(T) @ zT + sys.Ec(T).sum(axis=1)))))
            if sys.qc:
                _record(
                    slacks,
                    "stat_out",
                    float(np.min(gamma - (sys.Cc(T) @ zT + sys.Fc(T).sum(axis=1)))),
                )
        if dwell.kind == "range":
            thetas = np.linspace(dwell.Tmin, dwell.Tmax, min(grid, 301))
        else:
            thetas = np.array([dwell.T])
        z0 = np.array([z.eval(0.0) for z in zeta])
        mu = cert.aux.get("mu")
        for jk, jm in enumerate(sys.jumps):
            for th in thetas:
                target = np.array(
                    [m.eval(th) for m in mu] if mu else [z.eval(th) for z in zeta]
                )
                _record(
                    slacks, f"jump[{jk}]", float(np.min(z0 - (jm.J @ target + jm.Ed.sum(axis=1))))
                )
                if jm.Cd.shape[0]:
                    _record(
                        slacks,
                        f"out_d[{jk}]",
                        float(np.min(gamma - (jm.Cd @ target + jm.Fd.sum(axis=1)))),
                    )
        if mu:
            for th in thetas:
                _record(
                    slacks,
                    "mu_dom",
                    float(min(m.eval(th) - z.eval(th) for m, z in zip(mu, zeta))),
                )
        _record(slacks, "pin_lo", float(np.min(z0)))
    return _finish_report(cert, sys, slacks, grid)


def _verify_switched(cert, sw: SwitchedSystem, grid: int) -> VerificationReport:
    if len(cert.zeta) != sw.N:
        raise Mismatch(f"certificate has {len(cert.zeta)} mode vectors, system has {sw.N}")
    T = cert.dwell.T
    gamma = cert.gamma
    slacks: dict[str, float] = {}
    for i, md in enumerate(sw.modes):
        zeta = cert.zeta[i]
        flow_rows, out_rows = _zeta_rows_symbolic(md["A"], md["E"], md["C"], md["F"], zeta, gamma)
        for p in flow_rows:
            _record(slacks, f"flow[{i}]", _grid_min(p, (0.0, T), grid))
        for p in out_rows:
            _record(slacks, f"out_c[{i}]", _grid_min(p, (0.0, T), grid))
        zT = np.array([z.eval(T) for z in zeta])
        _record(slacks, f"stat_flow[{i}]", float(np.min(-(md["A"](T) @ zT + md["E"](T).sum(axis=1)))))
        _record(
            slacks,
            f"stat_out[{i}]",
            float(np.min(gamma - (md["C"](T) @ zT + md["F"](T).sum(axis=1)))),
        )
        _record(slacks, f"pin_lo[{i}]", float(min(z.eval(0.0) for z in zeta)))
    for i in range(sw.N):
        for j in range(sw.N):
            if i == j:
                continue
            c = min(
                cert.zeta[i][r].eval(0.0) - cert.zeta[j][r].eval(T) for r in range(sw.n)
            )
            _record(slacks, "couple", float(c))
    return _finish_report(cert, sw, slacks, grid)


def _finish_report(cert, sys, slacks: dict[str, float], grid: int) -> VerificationReport:
    scale = 1.0 + abs(cert.gamma)
    for zv in cert.zeta_vectors():
        for z in zv:
            scale = max(scale, z.max_abs_coeff())
    handelman_ok = None
    notes = []
    if cert.rows:
        handelman_ok = True
        for row in cert.rows:
            if row.handelman is None:
                continue
            target = row.poly - Poly.const(row.margin)
            if not row.handelman.validate(target, tol=1e-9):
                handelman_ok = False
                notes.append(f"weights of {row.family}[{row.index}] fail reconstruction")
    tol = -_SLACK_TOL * scale
    passed = all(v >= tol for v in slacks.values()) and handelman_ok is not False
    bad = [f for f, v in slacks.items() if v < tol]
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
    re-validate the interval-certificate weights."""
    if isinstance(sys, SwitchedSystem):
        if cert.kind != "SwitchedMinDT":
            raise Mismatch(f"{cert.kind} certificate cannot verify a switched system")
        return _verify_switched(cert, sys, grid)
    if isinstance(sys, ImpulsiveSystem):
        if cert.kind == "SwitchedMinDT":
            raise Mismatch("switched certificate needs the switched system")
        return _verify_impulsive(cert, sys, grid)
    # numeric closed-loop adapter (duck-typed, provided by the synthesis module)
    return _verify_numeric(cert, sys, grid)


def _verify_numeric(cert, view, grid: int) -> VerificationReport:
    """Grid verification against a numeric system view (rational closed loop)."""
    zeta = cert.zeta
    gamma = cert.gamma
    dwell = cert.dwell
    slacks: dict[str, float] = {}
    Tend = dwell.horizon_tau() if dwell.kind != "arbitrary" else 0.0
    taus = np.linspace(0.0, Tend, grid + 2) if Tend > 0 else np.array([0.0])
    if dwell.clamp is not None:
        taus = np.minimum(taus, dwell.clamp)
    per_mode = cert.per_mode
    zsets = cert.zeta_vectors()
    n = len(zsets[0])
    for mode, zs in enumerate(zsets):
        A_m, Ec1_m, Cc_m, Fc1_m = view.cont_mesh(taus, mode=mode if per_mode else None)
        zv = np.stack([z.eval(taus) for z in zs], axis=1)
        zdv = np.stack([z.deriv().eval(taus) for z in zs], axis=1)
        flow = zdv - np.einsum("mij,mj->mi", A_m, zv) - Ec1_m
        fam = f"flow[{mode}]" if per_mode else "flow"
        _record(slacks, fam, float(np.min(flow)))
        if Cc_m.shape[1]:
            outc = gamma - (np.einsum("mij,mj->mi", Cc_m, zv) + Fc1_m)
            fam = f"out_c[{mode}]" if per_mode else "out_c"
            _record(slacks, fam, float(np.min(outc)))
        if dwell.kind == "minimum":
            T = dwell.T
            A_T, Ec1_T, Cc_T, Fc1_T = (arr[-1] for arr in view.cont_mesh(np.array([T]), mode=mode if per_mode else None))
            zT = np.array([z.eval(T) for z in zs])
            _record(slacks, f"stat_flow[{mode}]" if per_mode else "stat_flow", float(np.min(-(A_T @ zT + Ec1_T))))
            if Cc_T.shape[0]:
                _record(slacks, f"stat_out[{mode}]" if per_mode else "stat_out", float(np.min(gamma - (Cc_T @ zT + Fc1_T))))
    if not per_mode:
        zs = zsets[0]
        z0 = np.array([z.eval(0.0) for z in zs])
        if dwell.kind == "range":
            thetas = np.linspace(dwell.Tmin, dwell.Tmax, min(grid, 301))
        elif dwell.kind == "arbitrary":
            thetas = np.array([0.0])
        else:
            thetas = np.array([dwell.T])
        for th in thetas:
            for jk, (J_cl, Ed1, Cd_cl, Fd1) in enumerate(view.jumps_at(float(th))):
                target = np.array([z.eval(min(th, dwell.clamp) if dwell.clamp else th) for z in zs])
                _record(slacks, f"jump[{jk}]", float(np.min(z0 - (J_cl @ target + Ed1))))
                if Cd_cl.shape[0]:
                    _record(slacks, f"out_d[{jk}]", float(np.min(gamma - (Cd_cl @ target + Fd1))))
        _record(slacks, "pin_lo", float(np.min(z0)))
    else:
        T = dwell.T
        for i in range(len(zsets)):
            for j in range(len(zsets)):
                if i == j:
                    continue
                c = min(zsets[i][r].eval(0.0) - zsets[j][r].eval(T) for r in range(n))
                _record(slacks, "couple", float(c))
        _record(slacks, "pin_lo", float(min(z.eval(0.0) for zs in zsets for z in zs)))
    return _finish_report(cert, view, slacks, grid)


def cross_check_discrete(cert, sys, theta_points: int = 101, grid: int = 400) -> VerificationReport:
    """Check the equivalent state-transition (integral-form) conditions with
    lambda = zeta(0) by integrating the forced flow; referee for the
    statement equivalences."""
    dwell = cert.dwell
    gamma = cert.gamma
    slacks: dict[str, float] = {}

    if cert.kind == "SwitchedMinDT":
        sw: SwitchedSystem = sys
        T = dwell.T
        taus = np.linspace(0.0, T, grid + 1)
        # integral-form vectors are the end-of-dwell values: a mode-i dwell is
        # entered from the predecessor's vector and must land below lambda_i
        lam = [np.array([z.eval(T) for z in zs]) for zs in cert.zeta]
        for i, md in enumerate(sw.modes):
            Phis, rs = flow_grid(md["A"], md["E"], taus)
            C_m = md["C"].eval_mesh(taus)
            F1_m = md["F"].eval_mesh(taus).sum(axis=2)
            A_T = md["A"](T)
            E1_T = md["E"](T).sum(axis=1)
            _record(slacks, f"stat_flow[{i}]", float(np.min(-(A_T @ lam[i] + E1_T))))
            _record(
                slacks,
                f"stat_out[{i}]",
                float(np.min(gamma - (md["C"](T) @ lam[i] + md["F"](T).sum(axis=1)))),
            )
            for j in range(sw.N):
                if i == j:
                    continue
                r_ij = np.einsum("mij,j->mi", Phis, lam[j]) + rs
                _record(slacks, f"couple[{j}->{i}]", float(np.min(lam[i] - r_ij[-1])))
                z = np.einsum("mij,mj->mi", C_m, r_ij) + F1_m
                _record(slacks, f"out[{i},{j}]", float(gamma - np.max(z)))
        resid = min(slacks.values())
        scale = 1.0 + abs(gamma)
        return VerificationReport(
            passed=resid >= -_SLACK_TOL * scale,
            worst_slack=slacks,
            grid_density=grid,
            phi_residual=float(resid),
        )

    zeta = cert.zeta
    lam = np.array([z.eval(0.0) for z in zeta])
    clamp = dwell.clamp
    if dwell.kind == "constant":
        theta_hi = dwell.T
        thetas = np.array([dwell.T])
    elif dwell.kind == "minimum":
        theta_hi = 3.0 * dwell.T + 1.0
        thetas = np.linspace(dwell.T, theta_hi, theta_points)
        clamp = dwell.T
    elif dwell.kind == "range":
        theta_hi = dwell.Tmax
        thetas = np.linspace(dwell.Tmin, dwell.Tmax, theta_points)
    else:  # arbitrary
        A = sys.A.const()
        decay = -float(np.max(np.real(np.linalg.eigvals(A))))
        theta_hi = float(np.clip(10.0 / max(decay, 1e-3), 1.0, 100.0))
        thetas = np.linspace(0.0, theta_hi, theta_points)
    m = max(grid, theta_points * 4)
    taus = np.linspace(0.0, theta_hi, m + 1)
    Phis, rs = flow_grid(sys.A, sys.Ec, taus, clamp=clamp)
    r_of = np.einsum("mij,j->mi", Phis, lam) + rs

    C_m = sys.Cc.eval_mesh(taus, clamp)
    F1_m = sys.Fc.eval_mesh(taus, clamp).sum(axis=2)
    if sys.qc:
        z = np.einsum("mij,mj->mi", C_m, r_of) + F1_m
        _record(slacks, "out_c", float(gamma - np.max(z)))
    if dwell.kind == "minimum":
        # only rows with nonnegative multipliers are consequences of the hybrid
        # certificate at lambda = zeta(0); the A(T)-weighted stationarity row is
        # not (A is Metzler, not nonnegative), so it is not a referee row here
        T = dwell.T
        iT = int(round(T / (taus[1] - taus[0])))
        rT = r_of[min(iT, m)]
        if sys.qc:
            _record(slacks, "stat_out", float(np.min(gamma - (sys.Cc(T) @ rT + sys.Fc(T).sum(axis=1)))))
    idx = np.minimum(np.round(thetas / (taus[1] - taus[0])).astype(int), m)
    for jk, jm in enumerate(sys.jumps):
        for ii in idx:
            r_th = r_of[ii]
            _record(slacks, f"jump[{jk}]", float(np.min(lam - (jm.J @ r_th + jm.Ed.sum(axis=1)))))
            if jm.Cd.shape[0]:
                _record(
                    slacks,
                    f"out_d[{jk}]",
                    float(np.min(gamma - (jm.Cd @ r_th + jm.Fd.sum(axis=1)))),
                )
    resid = min(slacks.values()) if slacks else np.inf
    scale = 1.0 + abs(gamma)
    return VerificationReport(
        passed=resid >= -_SLACK_TOL * scale,
        worst_slack=slacks,
        grid_density=m,
        phi_residual=float(resid),
    )
