"""Hybrid trajectory simulation, dwell-time sequence and input generation,
hybrid sup-norm bookkeeping, and Monte-Carlo gain lower bounds.

The flow between jumps is linear in the state, so the classical fixed-step
RK4 update is precomputed per mesh cell as an affine map x -> R x + s with
all mesh evaluations vectorized.  The maps are composed by a blocked prefix
scan, so a segment of m cells costs about m/32 serial steps; a segment whose
mode, mesh and input values repeat those of the mode's previous segment
reuses its tables.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import DimensionMismatch, StepTooLarge
from .model import DwellTimeSpec, ImpulsiveSystem, SwitchedSystem

__all__ = [
    "SequenceGen",
    "InputSignal",
    "generate_inputs",
    "combine_inputs",
    "Trajectory",
    "simulate",
    "estimate_gain",
    "export_trajectory",
]

_LT_TOL = 1e-4  # relative local-truncation tolerance for the halve-step self-check


@dataclass(frozen=True)
class SequenceGen:
    """Seeded generator of admissible dwell-time sequences."""

    kind: str  # exact | uniform_range | min_plus_exp
    T: Optional[float] = None
    Tmin: Optional[float] = None
    Tmax: Optional[float] = None
    rate: Optional[float] = None
    seed: int = 0

    @staticmethod
    def exact(T: float, seed: int = 0) -> "SequenceGen":
        return SequenceGen("exact", T=float(T), seed=seed)

    @staticmethod
    def uniform_range(Tmin: float, Tmax: float, seed: int = 0) -> "SequenceGen":
        return SequenceGen("uniform_range", Tmin=float(Tmin), Tmax=float(Tmax), seed=seed)

    @staticmethod
    def min_plus_exp(T: float, rate: Optional[float] = None, seed: int = 0) -> "SequenceGen":
        return SequenceGen("min_plus_exp", T=float(T), rate=rate, seed=seed)

    @staticmethod
    def for_spec(dwell: DwellTimeSpec, seed: int = 0) -> "SequenceGen":
        if dwell.kind == "constant":
            return SequenceGen.exact(dwell.T, seed)
        if dwell.kind == "minimum":
            return SequenceGen.min_plus_exp(dwell.T, seed=seed)
        if dwell.kind == "range":
            return SequenceGen.uniform_range(dwell.Tmin, dwell.Tmax, seed)
        # arbitrary: any positive dwell admissible; a documented default law
        return SequenceGen.uniform_range(0.05, 2.0, seed)

    @property
    def shortest(self) -> float:
        if self.kind == "exact" or self.kind == "min_plus_exp":
            return float(self.T)
        return float(self.Tmin)

    def dwells(self, horizon: float, rng: np.random.Generator) -> np.ndarray:
        """Consecutive dwell lengths covering [0, horizon] (last one clipped later)."""
        out = []
        total = 0.0
        while total < horizon:
            if self.kind == "exact":
                d = self.T
            elif self.kind == "uniform_range":
                d = float(rng.uniform(self.Tmin, self.Tmax))
            elif self.kind == "min_plus_exp":
                rate = self.rate if self.rate is not None else 1.0 / self.T
                d = min(self.T + float(rng.exponential(1.0 / rate)), 10.0 * self.T)
            else:
                raise ValueError(f"unknown sequence kind {self.kind!r}")
            out.append(d)
            total += d
        return np.asarray(out)


@dataclass(frozen=True)
class InputSignal:
    """Exogenous inputs: wc(t) vectorized over time, wd(k) per jump index.

    Scalar-valued; the simulator broadcasts across input channels.
    """

    wc: Callable[[np.ndarray], np.ndarray]
    wd: Callable[[int], float]
    label: str = ""


def generate_inputs(kind: str, seed: int = 0) -> InputSignal:
    """const_unit: w = 1; sine: (1 + sin t)/2; uniform_random: i.i.d. U(0,1) per jump."""
    if kind == "const_unit":
        return InputSignal(lambda t: np.ones_like(np.asarray(t, dtype=float)), lambda k: 1.0, kind)
    if kind == "sine":
        return InputSignal(lambda t: 0.5 * (1.0 + np.sin(np.asarray(t, dtype=float))), lambda k: 1.0, kind)
    if kind == "uniform_random":

        def wd(k: int) -> float:
            return float(np.random.default_rng((seed, int(k))).uniform())

        return InputSignal(lambda t: np.ones_like(np.asarray(t, dtype=float)), wd, kind)
    raise ValueError(f"unknown input kind {kind!r}")


def combine_inputs(continuous: InputSignal, discrete: InputSignal) -> InputSignal:
    return InputSignal(continuous.wc, discrete.wd, f"{continuous.label}+{discrete.label}")


@dataclass
class Trajectory:
    """Sampled hybrid trajectory; jump instants carry a left and a right sample."""

    times: np.ndarray
    states: np.ndarray
    zc: np.ndarray
    jump_times: np.ndarray
    jump_count: np.ndarray
    zd: np.ndarray
    pre_jump_states: np.ndarray
    post_jump_states: np.ndarray
    modes: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def sup_zc(self) -> float:
        return float(np.max(np.abs(self.zc))) if self.zc.size else 0.0

    def sup_zd(self) -> float:
        return float(np.max(np.abs(self.zd))) if self.zd.size else 0.0

    def sup_hybrid(self) -> float:
        return max(self.sup_zc(), self.sup_zd())

    def min_state(self) -> float:
        return float(np.min(self.states)) if self.states.size else 0.0


_BLOCK = 32  # cells per prefix-scan block: no product of maps spans more than this


def _rk4_stage(A1, A2, A4, b1, b2, b4, h: float):
    """Classical RK4 step of x' = A x + b as an affine map x -> R x + s, per cell.

    A1, A2, A4 (m, n, n) and b1, b2, b4 (m, n) are the data at the start,
    midpoint and end of each of m cells of width h.
    """
    M2 = A2 + 0.5 * h * (A2 @ A1)
    M3 = A2 + 0.5 * h * (A2 @ M2)
    M4 = A4 + h * (A4 @ M3)
    R = np.eye(A1.shape[1]) + (h / 6.0) * (A1 + 2.0 * M2 + 2.0 * M3 + M4)
    v2 = 0.5 * h * (A2 @ b1[:, :, None])[:, :, 0] + b2
    v3 = 0.5 * h * (A2 @ v2[:, :, None])[:, :, 0] + b2
    v4 = h * (A4 @ v3[:, :, None])[:, :, 0] + b4
    s = (h / 6.0) * (b1 + 2.0 * v2 + 2.0 * v3 + v4)
    return R, s


def _mesh(m: int, h: float, quarters: bool = False) -> np.ndarray:
    """The m+1 cell ends, then the m midpoints, then optionally the 2m quarter
    points the half-step referee needs."""
    taus = np.arange(m + 1) * h
    parts = [taus, taus[:-1] + 0.5 * h]
    if quarters:
        parts += [taus[:-1] + 0.25 * h, taus[:-1] + 0.75 * h]
    return np.concatenate(parts)


def _rk4_maps(A_of, b_of, h: float, m: int):
    """Affine one-step maps over a uniform mesh: x_{i+1} = R[i] x_i + s[i].

    A_of(taus) -> (len, n, n); b_of(taus) -> (len, n), both vectorized.
    """
    grid = _mesh(m, h)
    A, b = A_of(grid), b_of(grid)
    R, s = _rk4_stage(A[:m], A[m + 1:], A[1:m + 1], b[:m], b[m + 1:], b[1:m + 1], h)
    return grid[: m + 1], R, s


def _block_prefix(R: np.ndarray, s: np.ndarray):
    """Inclusive prefix compositions of x -> R[i] x + s[i] within blocks of cells.

    Returns P (nb, B, n, n) and q (nb, B, n, 1) with x_{bB+j+1} = P[b, j] x_{bB}
    + q[b, j], B = min(_BLOCK, m); the last block is padded with identity maps.
    Built by log-doubling, so the Python work is log2(B) batched products.
    """
    m, n = s.shape
    B = min(_BLOCK, m)
    nb = -(-m // B)
    pad = nb * B - m
    if pad:
        R = np.concatenate([R, np.broadcast_to(np.eye(n), (pad, n, n))])
        s = np.concatenate([s, np.zeros((pad, n))])
    P = R.reshape(nb, B, n, n)
    q = s.reshape(nb, B, n, 1)
    d = 1
    while d < B:
        P, q = (
            np.concatenate([P[:, :d], P[:, d:] @ P[:, :-d]], axis=1),
            np.concatenate([q[:, :d], P[:, d:] @ q[:, :-d] + q[:, d:]], axis=1),
        )
        d *= 2
    return P, q


def _scan(P: np.ndarray, q: Optional[np.ndarray], x0: np.ndarray, m: int) -> np.ndarray:
    """States x_0..x_m from the block prefix tables of `_block_prefix`.

    x0 is a vector (n,) or a matrix (n, k) whose columns are marched alike;
    q=None drops the forced part.  Only the block ends are chained serially.
    """
    nb, _, n, _ = P.shape
    Y = np.empty((nb, n, x0.size // n))
    Y[0] = x0.reshape(n, -1)
    for b in range(nb - 1):
        Y[b + 1] = P[b, -1] @ Y[b] if q is None else P[b, -1] @ Y[b] + q[b, -1]
    X = P @ Y[:, None]
    if q is not None:
        X += q
    xs = np.concatenate([Y[:1], X.reshape(-1, n, Y.shape[2])[:m]])
    return xs.reshape((m + 1,) + x0.shape)


@dataclass
class _Flow:
    """One segment's flow on its mesh: prefix tables, output terms and the
    half-step maps of the step referee.  Everything here is a function of the
    mode, (m, h) and the continuous input on the mesh, which form its key."""

    m: int
    h: float
    w: np.ndarray
    P: np.ndarray
    q: np.ndarray
    C: np.ndarray
    z_off: np.ndarray
    halves: Optional[tuple] = None

    def matches(self, m: int, h: float, w: np.ndarray) -> bool:
        return self.m == m and self.h == h and np.array_equal(self.w, w)


def _flow(mats, controller, mode, clamp, m: int, h: float, grid: np.ndarray, w: np.ndarray) -> _Flow:
    A_pm, B_pm, E_pm, C_pm, D_pm, F_pm = mats
    ends = grid[: m + 1]
    A = A_pm.eval_mesh(grid, clamp)
    C = C_pm.eval_mesh(ends, clamp)
    if controller is not None:
        K = controller.kc_mesh(grid, mode=mode)
        A = A + B_pm.eval_mesh(grid, clamp) @ K
        C = C + D_pm.eval_mesh(ends, clamp) @ K[: m + 1]
    b = E_pm.eval_mesh(grid, clamp).sum(axis=2) * w[:, None]
    z_off = F_pm.eval_mesh(ends, clamp).sum(axis=2) * w[: m + 1, None]
    start, mid, end = slice(0, m), slice(m + 1, 2 * m + 1), slice(1, m + 1)
    R, s = _rk4_stage(A[start], A[mid], A[end], b[start], b[mid], b[end], h)
    P, q = _block_prefix(R, s)
    halves = None
    if len(grid) > 2 * m + 1:  # quarter points: the step referee runs
        q1, q3 = slice(2 * m + 1, 3 * m + 1), slice(3 * m + 1, 4 * m + 1)
        halves = (
            _rk4_stage(A[start], A[q1], A[mid], b[start], b[q1], b[mid], 0.5 * h),
            _rk4_stage(A[mid], A[q3], A[end], b[mid], b[q3], b[end], 0.5 * h),
        )
    return _Flow(m, h, w, P, q, C, z_off, halves)


def _halfstep_error(xs: np.ndarray, halves) -> float:
    """Max relative gap between one h-step and two h/2-steps along the trajectory.

    The one-step result from xs[i] is xs[i+1] itself: the scan applies the
    same maps, so the two differ only by rounding."""
    (R1, s1), (R2, s2) = halves
    x_half = (R1 @ xs[:-1, :, None])[:, :, 0] + s1
    x_two = (R2 @ x_half[:, :, None])[:, :, 0] + s2
    num = np.max(np.abs(x_two - xs[1:]), axis=1)
    den = 1.0 + np.max(np.abs(xs[1:]), axis=1)
    return float(np.max(num / den)) if num.size else 0.0


def _default_step(gen: SequenceGen) -> float:
    return min(1e-3, gen.shortest / 50.0)


def simulate(
    sys: Union[ImpulsiveSystem, SwitchedSystem],
    dwell_gen: SequenceGen,
    inputs: InputSignal,
    x0,
    horizon: float,
    step: Optional[float] = None,
    controller=None,
    clamp: Optional[float] = None,
    check_step: bool = False,
    rng: Optional[np.random.Generator] = None,
    start_mode: Optional[int] = None,
) -> Trajectory:
    """Integrate the hybrid system over [0, horizon] under one sampled sequence.

    Between jumps the flow is integrated with fixed-step RK4, subdividing so a
    sample lands exactly on every jump instant; jump maps are applied to the
    pre-jump state and z_d is computed from it.  `clamp` freezes the timer for
    minimum-dwell-time semantics.  With check_step=True a halve-step referee
    raises StepTooLarge when the local truncation estimate exceeds 1e-4.
    """
    if horizon <= 0 or (step is not None and step <= 0):
        raise DimensionMismatch("horizon and step must be positive")
    if rng is None:
        rng = np.random.default_rng(dwell_gen.seed)
    if step is None:
        step = _default_step(dwell_gen)
    x0 = np.asarray(x0, dtype=float)

    switched = isinstance(sys, SwitchedSystem)
    if switched:
        n = sys.n
        mode = int(start_mode) if start_mode is not None else int(rng.integers(sys.N))
    else:
        n = sys.n
        mode = start_mode
    if x0.shape != (n,):
        raise DimensionMismatch(f"x0 must have length {n}")

    dwells = dwell_gen.dwells(horizon, rng)
    times_parts, states_parts, zc_parts, kappa_parts = [], [], [], []
    jump_times, zd_rows, pre_states, post_states, mode_parts = [], [], [], [], []

    x = x0.copy()
    t0 = 0.0
    worst_lt = 0.0
    k = 0  # jumps applied so far
    flows: dict = {}  # mode -> its latest _Flow; one entry per mode bounds the memory

    for dwell_len in dwells:
        seg = min(dwell_len, horizon - t0)
        last = t0 + dwell_len >= horizon - 1e-12
        if seg <= 0:
            break
        m = max(1, int(np.ceil(seg / step)))
        h = seg / m

        grid = _mesh(m, h, check_step)
        w = np.broadcast_to(inputs.wc(t0 + grid), grid.shape).astype(float)
        flow = flows.get(mode)
        if flow is None or not flow.matches(m, h, w):
            if switched:
                md = sys.modes[mode]
                mats = tuple(md[kk] for kk in ("A", "B", "E", "C", "D", "F"))
            else:
                mats = (sys.A, sys.Bc, sys.Ec, sys.Cc, sys.Dc, sys.Fc)
            flow = flows[mode] = _flow(mats, controller, mode, clamp, m, h, grid, w)

        xs = _scan(flow.P, flow.q, x, m)
        if not np.isfinite(xs).all():
            raise StepTooLarge("state overflow while integrating; reduce the step")
        if check_step:
            worst_lt = max(worst_lt, _halfstep_error(xs, flow.halves))

        # outputs on this segment's mesh (pre-jump convention at the right end)
        zc = (flow.C @ xs[:, :, None])[:, :, 0] + flow.z_off

        times_parts.append(t0 + grid[: m + 1])
        states_parts.append(xs)
        zc_parts.append(zc)
        kappa_parts.append(np.full(m + 1, k))
        if switched:
            mode_parts.append(np.full(m + 1, mode))

        t0 += seg
        x = xs[-1]
        if last or t0 >= horizon - 1e-12:
            break

        # jump at t0
        k += 1
        pre_states.append(x.copy())
        jump_times.append(t0)
        if switched:
            j = int(rng.integers(sys.N - 1))
            mode = j if j < mode else j + 1
            post_states.append(x.copy())
        else:
            jm = _pick_jump(sys, mode, rng)
            if jm.tag is not None:
                mode = jm.tag[1]
            wd_k = inputs.wd(k)
            ud = np.zeros(jm.Bd.shape[1])
            if controller is not None and jm.Bd.shape[1]:
                ud = controller.kd(theta=dwell_len) @ x
            if jm.Cd.shape[0]:
                zd_rows.append(jm.Cd @ x + jm.Dd @ ud + jm.Fd @ (wd_k * np.ones(jm.Fd.shape[1])))
            x = jm.J @ x + jm.Bd @ ud + jm.Ed @ (wd_k * np.ones(jm.Ed.shape[1]))
            post_states.append(x.copy())

    if check_step and worst_lt > _LT_TOL:
        raise StepTooLarge(f"local truncation estimate {worst_lt:.2e} exceeds {_LT_TOL:.0e}")

    traj = Trajectory(
        times=np.concatenate(times_parts),
        states=np.vstack(states_parts),
        zc=np.vstack(zc_parts) if zc_parts else np.zeros((0, 0)),
        jump_times=np.asarray(jump_times),
        jump_count=np.concatenate(kappa_parts),
        zd=np.vstack(zd_rows) if zd_rows else np.zeros((0, 0)),
        pre_jump_states=np.vstack(pre_states) if pre_states else np.zeros((0, n)),
        post_jump_states=np.vstack(post_states) if post_states else np.zeros((0, n)),
        modes=np.concatenate(mode_parts) if mode_parts else None,
        meta={
            "seed": dwell_gen.seed,
            "step": step,
            "horizon": horizon,
            "clamp": clamp,
            "inputs": inputs.label,
            "worst_local_truncation": worst_lt,
        },
    )
    return traj


def _pick_jump(sys: ImpulsiveSystem, mode: Optional[int], rng: np.random.Generator):
    if len(sys.jumps) == 1:
        return sys.jumps[0]
    tagged = [jm for jm in sys.jumps if jm.tag is not None]
    if tagged and mode is not None:
        options = [jm for jm in tagged if jm.tag[0] == mode]
        if not options:
            raise DimensionMismatch(f"no jump map leaves mode {mode}")
        return options[int(rng.integers(len(options)))]
    return sys.jumps[int(rng.integers(len(sys.jumps)))]


def _gain_run(payload) -> float:
    sys, dwell_gen, horizon, step, controller, clamp, r = payload
    rng = np.random.default_rng((dwell_gen.seed, r))
    traj = simulate(
        sys,
        dwell_gen,
        generate_inputs("const_unit"),
        x0=np.zeros(sys.n),
        horizon=horizon,
        step=step,
        controller=controller,
        clamp=clamp,
        check_step=False,
        rng=rng,
    )
    return traj.sup_hybrid()


def estimate_gain(
    sys: Union[ImpulsiveSystem, SwitchedSystem],
    dwell_gen: SequenceGen,
    runs: int = 100,
    horizon: float = 30.0,
    norm: str = "LinfXlinf",
    step: Optional[float] = None,
    controller=None,
    clamp: Optional[float] = None,
    jobs: int = 1,
) -> float:
    """Monte-Carlo lower bound on the hybrid gain.

    Protocol: x0 = 0, unit constant inputs on both channels, `runs` sampled
    admissible sequences; returns the largest observed hybrid output sup-norm.
    Runs are independent per seed, so jobs > 1 fans them out over processes
    without changing the result.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if norm != "LinfXlinf":
        raise ValueError(f"unsupported norm {norm!r}")
    if dwell_gen.kind == "exact":
        runs = 1  # deterministic sequence: all runs identical
    payloads = [(sys, dwell_gen, horizon, step, controller, clamp, r) for r in range(runs)]
    if jobs > 1 and runs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            sups = list(pool.map(_gain_run, payloads))
    else:
        sups = [_gain_run(p) for p in payloads]
    return max(sups)


def export_trajectory(traj: Trajectory, prefix: str, sidecar: Optional[dict] = None) -> None:
    """Write `<prefix>_states.csv`, `<prefix>_jumps.csv`, and a JSON sidecar
    echoing seeds/settings; floats are round-trippable reprs."""

    def fmt(x) -> str:
        return repr(float(x))

    n = traj.states.shape[1]
    qc = traj.zc.shape[1] if traj.zc.size else 0
    header = ["t"] + [f"x_{i+1}" for i in range(n)] + [f"zc_{i+1}" for i in range(qc)]
    lines = [",".join(header)]
    for k in range(len(traj.times)):
        row = [fmt(traj.times[k])] + [fmt(v) for v in traj.states[k]]
        if qc:
            row += [fmt(v) for v in traj.zc[k]]
        lines.append(",".join(row))
    with open(prefix + "_states.csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")

    qd = traj.zd.shape[1] if traj.zd.size else 0
    header = ["k", "t_k"] + [f"zd_{i+1}" for i in range(qd)]
    lines = [",".join(header)]
    for k, tk in enumerate(traj.jump_times):
        row = [str(k + 1), fmt(tk)]
        if qd and k < traj.zd.shape[0]:
            row += [fmt(v) for v in traj.zd[k]]
        lines.append(",".join(row))
    with open(prefix + "_jumps.csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")

    meta = dict(traj.meta)
    if sidecar:
        meta.update(sidecar)
    with open(prefix + "_meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
