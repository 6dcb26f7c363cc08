"""Hybrid trajectory simulation, dwell-time sequence and input generation,
hybrid sup-norm bookkeeping, and Monte-Carlo gain lower bounds.

The flow between jumps is linear in the state, so the classical fixed-step
RK4 update is an affine map x -> R x + s per mesh cell, and a jump is an
affine map too.  A run first draws its whole schedule (dwells, meshes,
modes, jump maps and K_d), then lays the mesh points of all its segments on
one flat axis, where the map between consecutive points is an RK4 cell or,
at a segment's end, the jump.  The march takes this axis in chunks of
_CHUNK maps: a chunk's mesh data are evaluated in one vectorized pass per
mode, its maps are built at once as component-major (n, n, L) and (n, L)
tables, so each batched 2x2 product is a few vector operations, and they
are composed by a two-level log-doubling prefix scan (Blelloch 1990),
within blocks of 32 cells and then over the block ends.  No Python loop
runs over cells, blocks or segments; only the schedule draw is per segment.
The half-step referee reads the marched states afterwards, so the states
never depend on whether it runs.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import DimensionMismatch, StepTooLarge
from .model import DwellTimeSpec, ImpulsiveSystem, SwitchedSystem, require_forward_time, write_json

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
_CHUNK = 8192  # maps per march chunk: bounds the working tables whatever the run's length


def _mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Cellwise products of component-major matrix stacks: (r, k, ...) times (k, c, ...) is (r, c, ...)."""
    return np.einsum("ik...,kj...->ij...", A, B)


def _mv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cellwise products of a component-major matrix stack (r, k, ...) and vectors (k, ...)."""
    return np.einsum("ik...,k...->i...", A, x)


def _rk4_stage(A: np.ndarray, b: np.ndarray, start: slice, mid: slice, end: slice, h):
    """Classical RK4 step of x' = A x + b as an affine map x -> R x + s, per cell.

    A (n, n, len) and b (n, len) hold the data on a mesh; the slices pick the
    start, midpoint and end of each of m cells, whose widths h are one float
    or an (m,) array.  R is (n, n, m) and s (n, m).
    """
    A1, A2, A4 = A[..., start], A[..., mid], A[..., end]
    b1, b2, b4 = b[..., start], b[..., mid], b[..., end]
    # M2 = A2 + h/2 A2 A1, M3 = A2 + h/2 A2 M2, M4 = A4 + h A4 M3 and
    # R = I + h/6 (A1 + 2 M2 + 2 M3 + M4), evaluated in place: the same
    # floating-point operations in the same order, with fewer temporaries
    M2 = _mm(A2, A1)
    M2 *= 0.5 * h
    M2 += A2
    M3 = _mm(A2, M2)
    M3 *= 0.5 * h
    M3 += A2
    M4 = _mm(A4, M3)
    M4 *= h
    M4 += A4
    R = M2
    R *= 2.0
    R += A1
    M3 *= 2.0
    R += M3
    R += M4
    R *= h / 6.0
    R += np.eye(A1.shape[0])[:, :, None]
    v2 = 0.5 * h * _mv(A2, b1) + b2
    v3 = 0.5 * h * _mv(A2, v2) + b2
    v4 = h * _mv(A4, v3) + b4
    s = (h / 6.0) * (b1 + 2.0 * v2 + 2.0 * v3 + v4)
    return R, s


def _prefix(P: np.ndarray, q: np.ndarray):
    """Inclusive prefix compositions of the affine maps x -> P[..., i] x + q[..., i]
    along the last axis: on return, P[..., i] x + q[..., i] applies maps 0..i
    in order.  P is (n, n, ..., L) and q (n, ..., L).  Log-doubling, so the
    Python work is log2(L) batched products."""
    P, q = P.copy(), q.copy()
    d, L = 1, P.shape[-1]
    while d < L:  # each right-hand side is computed in full before it is stored
        q[..., d:] += _mv(P[..., d:], q[..., :-d])
        P[..., d:] = _mm(P[..., d:], P[..., :-d])
        d *= 2
    return P, q


def _block_prefix(R: np.ndarray, s: np.ndarray):
    """Prefix tables of the one-step maps x_{i+1} = R[..., i] x_i + s[..., i].

    R is (n, n, m) and s (n, m).  The m cells form nb blocks of B = min(_BLOCK, m),
    the last padded with identity maps.  Returns (P, q, S, r):
    - P (n, n, nb, B) and q (n, nb, B) compose within each block:
      x_{bB+j+1} = P[..., b, j] x_{bB} + q[..., b, j];
    - S (n, n, nb) and r (n, nb) map x_0 to each block's start:
      x_{bB} = S[..., b] x_0 + r[..., b].
    Both levels come from `_prefix`, the second over the block-end maps, so
    no Python loop runs over cells or blocks.
    """
    n, m = s.shape
    B = min(_BLOCK, m)
    nb = -(-m // B)
    pad = nb * B - m
    if pad:
        R = np.concatenate([R, np.broadcast_to(np.eye(n)[:, :, None], (n, n, pad))], axis=2)
        s = np.concatenate([s, np.zeros((n, pad))], axis=1)
    P, q = _prefix(R.reshape(n, n, nb, B), s.reshape(n, nb, B))
    S, r = _prefix(P[..., :-1, -1], q[..., :-1, -1])
    S = np.concatenate([np.eye(n)[:, :, None], S], axis=2)
    r = np.concatenate([np.zeros((n, 1)), r], axis=1)
    return P, q, S, r


def _scan(tables, x0: np.ndarray, m: int, forced: bool = True) -> np.ndarray:
    """States x_0..x_m from the tables of `_block_prefix`, component-major.

    x0 is a vector (n,) or a matrix (n, k) whose columns are marched alike;
    the result is (n, m+1) or (n, k, m+1).  forced=False drops the forced
    parts q and r.
    """
    P, q, S, r = tables
    n, nb, B = q.shape
    X0 = x0.reshape(n, -1)
    Y = np.einsum("ilb,lc->icb", S, X0)  # block starts
    if forced:
        Y += r[:, None]
    X = np.einsum("ilbj,lcb->icbj", P, Y)
    if forced:
        X += q[:, None]
    xs = np.concatenate([X0[:, :, None], X.reshape(n, -1, nb * B)[:, :, :m]], axis=2)
    return xs.reshape(x0.shape + (m + 1,))


def _mats(sys, mode):
    """The flow and output data (A, B, E, C, D, F) of `mode`."""
    if isinstance(sys, SwitchedSystem):
        return tuple(sys.modes[mode][key] for key in ("A", "B", "E", "C", "D", "F"))
    return (sys.A, sys.Bc, sys.Ec, sys.Cc, sys.Dc, sys.Fc)


def _fields(sys, controller, mode, clamp, grid: np.ndarray, w: np.ndarray, npts: int):
    """A (+B K_c) and the forcing E w on the timer values `grid`, and the
    output terms C (+D K_c) and F w on its first npts entries, the mesh
    points; all component-major.  w holds the continuous input on grid;
    cert.verify reads its rows from here with w = 1."""
    A_pm, B_pm, E_pm, C_pm, D_pm, F_pm = _mats(sys, mode)
    pts = grid[:npts]
    A = A_pm.eval_mesh(grid, clamp)
    C = C_pm.eval_mesh(pts, clamp)
    if controller is not None:
        K = controller.kc_mesh(grid, mode=mode)
        A += _mm(B_pm.eval_mesh(grid, clamp), K)
        C += _mm(D_pm.eval_mesh(pts, clamp), K[..., :npts])
    b = E_pm.eval_mesh(grid, clamp).sum(axis=1)
    b *= w
    z = F_pm.eval_mesh(pts, clamp).sum(axis=1)
    z *= w[:npts]
    return A, b, C, z


@dataclass
class _FlatAxis:
    """The mesh points of all the segments of one run on one axis.

    Point i has timer value taus[i] and time origin[i] + taus[i], and
    codes[i] (None: all alike) indexes `modes`; map i takes point i to point
    i+1 and is an RK4 cell of width widths[i], or at a segment's last point
    the jump, a cell of zero width whose mesh collapses onto that point.
    The methods work on the stretch of points a..b, maps a..b-1."""

    sys: Union[ImpulsiveSystem, SwitchedSystem]
    controller: object
    clamp: Optional[float]
    inputs: InputSignal
    modes: list
    codes: Optional[np.ndarray]
    taus: np.ndarray
    origin: np.ndarray
    widths: np.ndarray

    def fields(self, a: int, b: int, quarters: bool):
        """A (+B K_c) and E w on the stretch's mesh -- its points, then the
        cell midpoints, then with quarters the quarter points -- and
        C (+D K_c), F w on its points."""
        taus, origin, widths = self.taus[a : b + 1], self.origin[a : b + 1], self.widths[a:b]
        npts, cells = len(taus), taus[:-1]
        parts = [taus, cells + 0.5 * widths]
        if quarters:
            parts += [cells + 0.25 * widths, cells + 0.75 * widths]
        grid = np.concatenate(parts)
        t = np.concatenate([origin] + [origin[:-1]] * (len(parts) - 1)) + grid
        w = np.broadcast_to(self.inputs.wc(t), grid.shape).astype(float)
        sys, ctrl, clamp = self.sys, self.controller, self.clamp
        if self.codes is None:
            return _fields(sys, ctrl, self.modes[0], clamp, grid, w, npts)
        codes = self.codes[a : b + 1]
        code = np.concatenate([codes] + [codes[:-1]] * (len(parts) - 1))
        n, qc = sys.n, _mats(sys, self.modes[0])[3].shape[0]
        A, bw = np.empty((n, n, len(grid))), np.empty((n, len(grid)))
        C, z = np.empty((qc, n, npts)), np.empty((qc, npts))
        for c, md in enumerate(self.modes):
            sel = code == c
            if sel.any():
                pts = sel[:npts]
                A[..., sel], bw[..., sel], C[..., pts], z[..., pts] = _fields(
                    sys, ctrl, md, clamp, grid[sel], w[sel], int(pts.sum()))
        return A, bw, C, z

    def maps(self, a: int, b: int):
        """The stretch's one-step maps x_{i+1} = R[..., i] x_i + s[..., i]
        (jumps still as identity cells) and the output terms C, z at its
        points."""
        A, bw, C, z = self.fields(a, b, quarters=False)
        L = b - a
        R, s = _rk4_stage(A, bw, slice(0, L), slice(L + 1, 2 * L + 1), slice(1, L + 1), self.widths[a:b])
        return R, s, C, z

    def halfstep_error(self, a: int, b: int, xs: np.ndarray) -> np.ndarray:
        """Relative gap between one h-step and two h/2-steps per map of the
        stretch, along its states xs (n, b-a+1).

        The one-step result from xs[:, i] is xs[:, i+1] itself: the march
        applied the same maps, so the two differ only by rounding."""
        A, bw, _, _ = self.fields(a, b, quarters=True)
        L, h = b - a, self.widths[a:b]
        start, mid, end = slice(0, L), slice(L + 1, 2 * L + 1), slice(1, L + 1)
        R1, s1 = _rk4_stage(A, bw, start, slice(2 * L + 1, 3 * L + 1), mid, 0.5 * h)
        R2, s2 = _rk4_stage(A, bw, mid, slice(3 * L + 1, 4 * L + 1), end, 0.5 * h)
        x_two = _mv(R2, _mv(R1, xs[:, :-1]) + s1) + s2
        num = np.max(np.abs(x_two - xs[:, 1:]), axis=0)
        den = 1.0 + np.max(np.abs(xs[:, 1:]), axis=0)
        return num / den


def _jump_maps(sys: ImpulsiveSystem, controller, picks: list, thetas: list, wds: list):
    """Jump k as an affine map x+ = R[..., k] x + s[..., k] with output
    z_d = Cz[..., k] x + zs[..., k], K_d(theta_k) folded in; component-major.
    picks index sys.jumps, thetas are the dwells before the jumps and wds
    their discrete inputs; cert.verify reads its jump rows from here."""
    picks = np.asarray(picks, dtype=int)

    def take(key):
        return np.take(np.stack([getattr(jm, key) for jm in sys.jumps], axis=-1), picks, axis=-1)

    R, Cz = take("J"), take("Cd")
    if controller is not None and sys.md:
        Kd = controller.kd_mesh(thetas)
        R = R + _mm(take("Bd"), Kd)
        Cz = Cz + _mm(take("Dd"), Kd)
    w = np.broadcast_to(np.asarray(wds, dtype=float), (sys.pd, len(picks)))
    return R, _mv(take("Ed"), w), Cz, _mv(take("Fd"), w)


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
    require_forward_time(sys, "simulation")
    if horizon <= 0 or (step is not None and step <= 0):
        raise DimensionMismatch("horizon and step must be positive")
    if rng is None:
        rng = np.random.default_rng(dwell_gen.seed)
    if step is None:
        step = _default_step(dwell_gen)
    x0 = np.asarray(x0, dtype=float)

    switched = isinstance(sys, SwitchedSystem)
    n = sys.n
    if switched:
        mode = int(start_mode) if start_mode is not None else int(rng.integers(sys.N))
    else:
        mode = start_mode
    if x0.shape != (n,):
        raise DimensionMismatch(f"x0 must have length {n}")

    # Plan: the whole schedule first.  No draw depends on the state, so the
    # draws come in the order a segment-by-segment march would make them.
    seg_t0, seg_m, seg_h, seg_mode = [], [], [], []
    picks, thetas, wds = [], [], []  # per jump of an impulsive system
    t0 = 0.0
    for dwell_len in dwell_gen.dwells(horizon, rng):
        seg = min(dwell_len, horizon - t0)
        last = t0 + dwell_len >= horizon - 1e-12
        if seg <= 0:
            break
        m = max(1, int(np.ceil(seg / step)))
        seg_t0.append(t0)
        seg_m.append(m)
        seg_h.append(seg / m)
        seg_mode.append(mode)
        t0 += seg
        if last or t0 >= horizon - 1e-12:
            break
        if switched:
            j = int(rng.integers(sys.N - 1))
            mode = j if j < mode else j + 1
        else:
            picks.append(_pick_jump(sys, mode, rng))
            if sys.jumps[picks[-1]].tag is not None:
                mode = sys.jumps[picks[-1]].tag[1]
            wds.append(inputs.wd(len(picks)))
            thetas.append(dwell_len)

    # Flat point axis: segment k contributes its m_k+1 mesh points; the jump
    # after it is its last map, replaced by the jump map before the scan.
    t0s, hs = np.asarray(seg_t0), np.asarray(seg_h)
    counts = np.asarray(seg_m) + 1
    seg_of = np.repeat(np.arange(len(counts)), counts)
    firsts = np.cumsum(counts) - counts
    jumps_at = firsts[1:] - 1  # map index of each jump
    widths = hs[seg_of[:-1]]
    widths[jumps_at] = 0.0
    modes = list(dict.fromkeys(seg_mode))
    axis = _FlatAxis(
        sys, controller, clamp, inputs, modes,
        codes=np.repeat([modes.index(md) for md in seg_mode], counts) if len(modes) > 1 else None,
        taus=(np.arange(len(seg_of)) - firsts[seg_of]) * hs[seg_of],
        origin=t0s[seg_of],
        widths=widths,
    )
    if switched:
        jR = np.broadcast_to(np.eye(n)[:, :, None], (n, n, len(jumps_at)))
        js = np.zeros((n, len(jumps_at)))
    else:
        jR, js, jCz, jzs = _jump_maps(sys, controller, picks, thetas, wds)

    # 8 MiB taken and given back, more than a chunk's tables up to n = 8: glibc
    # raises its mmap and trim thresholds to the largest mapped block freed, so
    # the tables come from a heap it no longer trims and re-faults every chunk.
    np.empty(1 << 23, np.uint8)

    # March: chunk by chunk from the state the previous chunk ended in.
    qc = _mats(sys, modes[0])[3].shape[0]
    states = np.empty((len(seg_of), n))
    zc = np.empty((len(seg_of), qc))
    x = x0
    for a in range(0, len(widths), _CHUNK):
        b = min(a + _CHUNK, len(widths))
        R, s, C, z = axis.maps(a, b)
        lo, hi = np.searchsorted(jumps_at, [a, b])
        at = jumps_at[lo:hi] - a
        R[..., at], s[..., at] = jR[..., lo:hi], js[..., lo:hi]
        xs = _scan(_block_prefix(R, s), x, b - a)
        if switched:  # the state is continuous: copy it rather than round it through the identity
            xs[:, at + 1] = xs[:, at]
        if not np.isfinite(xs).all():
            raise StepTooLarge("state overflow while integrating; reduce the step")
        # outputs on the mesh (pre-jump convention at a segment's right end)
        states[a : b + 1] = xs.T
        zc[a : b + 1] = (_mv(C, xs) + z).T
        x = xs[:, -1]

    # Half-step referee over the marched states.  Its quarter points and two
    # half-step tables more than double the working set per map, so it takes
    # a quarter of a chunk at a time; the march itself never depends on it.
    worst_lt = 0.0
    if check_step:
        for a in range(0, len(widths), _CHUNK // 4):
            b = min(a + _CHUNK // 4, len(widths))
            err = axis.halfstep_error(a, b, states[a : b + 1].T)
            lo, hi = np.searchsorted(jumps_at, [a, b])
            err[jumps_at[lo:hi] - a] = 0.0  # jumps are not RK4 steps
            worst_lt = max(worst_lt, float(np.max(err)))
        if worst_lt > _LT_TOL:
            raise StepTooLarge(f"local truncation estimate {worst_lt:.2e} exceeds {_LT_TOL:.0e}")

    pre, post = states[jumps_at], states[jumps_at + 1]
    zd = np.zeros((0, 0))
    if not switched and len(jumps_at) and jCz.shape[0]:
        zd = (_mv(jCz, pre.T) + jzs).T
    return Trajectory(
        times=axis.origin + axis.taus,
        states=states,
        zc=zc,
        jump_times=t0s[1:],
        jump_count=seg_of,
        zd=zd,
        pre_jump_states=pre,
        post_jump_states=post,
        modes=np.repeat(seg_mode, counts) if switched else None,
        meta={
            "seed": dwell_gen.seed,
            "step": step,
            "horizon": horizon,
            "clamp": clamp,
            "inputs": inputs.label,
            "worst_local_truncation": worst_lt,
        },
    )


def _pick_jump(sys: ImpulsiveSystem, mode: Optional[int], rng: np.random.Generator) -> int:
    """The index in sys.jumps of the jump taken from `mode`."""
    if len(sys.jumps) == 1:
        return 0
    tagged = [i for i, jm in enumerate(sys.jumps) if jm.tag is not None]
    if tagged and mode is not None:
        options = [i for i in tagged if sys.jumps[i].tag[0] == mode]
        if not options:
            raise DimensionMismatch(f"no jump map leaves mode {mode}")
        return options[int(rng.integers(len(options)))]
    return int(rng.integers(len(sys.jumps)))


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
    return _max_sup(sys, dwell_gen, runs, horizon, norm, step, controller, clamp, jobs)


def _max_sup(sys, dwell_gen, runs, horizon, norm, step, controller, clamp, jobs, sup0=None) -> float:
    """The body of estimate_gain.  sup0, when given, is the sup of run 0 (the
    sequence drawn from default_rng((seed, 0))) that the caller has already
    integrated, so only runs 1.. are simulated here."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if norm != "LinfXlinf":
        raise ValueError(f"unsupported norm {norm!r}")
    if dwell_gen.kind == "exact":
        runs = 1  # deterministic sequence: all runs identical
    sups = [] if sup0 is None else [sup0]
    payloads = [(sys, dwell_gen, horizon, step, controller, clamp, r) for r in range(len(sups), runs)]
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            sups += pool.map(_gain_run, payloads)
    else:
        sups += [_gain_run(p) for p in payloads]
    return max(sups)


def export_trajectory(traj: Trajectory, prefix: str, sidecar: Optional[dict] = None) -> None:
    """Write `<prefix>_states.csv`, `<prefix>_jumps.csv`, and a JSON sidecar
    echoing seeds/settings; floats are round-trippable reprs."""
    n = traj.states.shape[1]
    qc = traj.zc.shape[1] if traj.zc.size else 0
    header = ["t"] + [f"x_{i+1}" for i in range(n)] + [f"zc_{i+1}" for i in range(qc)]
    lines = [",".join(header)]
    # tolist() yields the Python floats whose repr the rows carry
    cols = [traj.times[:, None], traj.states] + ([traj.zc] if qc else [])
    lines += [",".join(map(repr, row)) for row in np.hstack(cols).tolist()]
    with open(prefix + "_states.csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")

    qd = traj.zd.shape[1] if traj.zd.size else 0
    header = ["k", "t_k"] + [f"zd_{i+1}" for i in range(qd)]
    lines = [",".join(header)]
    zd = traj.zd.tolist() if qd else []
    for k, tk in enumerate(traj.jump_times.tolist()):
        row = [str(k + 1), repr(tk)]
        if k < len(zd):
            row += map(repr, zd[k])
        lines.append(",".join(row))
    with open(prefix + "_jumps.csv", "w") as fh:
        fh.write("\n".join(lines) + "\n")

    meta = dict(traj.meta)
    if sidecar:
        meta.update(sidecar)
    write_json(meta, prefix + "_meta.json")
