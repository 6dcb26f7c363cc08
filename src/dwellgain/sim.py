"""Hybrid trajectory simulation, dwell-time sequence and input generation,
hybrid sup-norm bookkeeping, and Monte-Carlo gain lower bounds.

The flow between jumps is linear in the state, so the classical fixed-step
RK4 update is an affine map x -> R x + s per mesh cell, and a jump is an
affine map too.  A run first draws its whole schedule (dwells, modes, jump
maps and K_d).  Every segment's mesh starts at tau = 0 in whole steps h:
segment k has the points tau = 0, h, ..., (m_k - 1) h and its length theta_k,
so its first m_k - 1 cells are those of every other segment of its mode,
and only its last one, never narrower than about 1e-9 h, is its own.

One march serves every run.  The segments that share a table form a
group: those of one mode when the input declares its continuous part
constant (`InputSignal.wc_value`), whatever the dwell, else each segment
alone.  A group's table (`_mode_table`, over its longest segment,
under the input along it) holds the transition Phi_j, the forced response
r_j and the outputs at each tau = jh.  The last, partial cells are batched
per mode, the segment starts are marched through the jumps by a prefix
scan over the segments (Blelloch 1990), and each segment is filled from its
start by one product with its table, one for a run of like segments.  A
table whose data A (+B K_c) and forcing take one value on its mesh, as a
time-invariant mode's or a chunk past the clamp, has one RK4 map and one
block's prefix, shared by all its blocks.  A gain run (`estimate_gain`, and
CLI simulate's runs after the first) fills z_c alone, reads z_d at the
segment ends and returns its hybrid sup with no Trajectory or mesh arrays
(times, timers, origins).  An input with no declared value gets one table
per segment, constant or not: a constant user input should declare it.

Under check_step the march also runs the referee, by step doubling (Hairer,
Norsett & Wanner 1993, II.4): it walks each group's table one chunk at a
time, applying the chunk's two half-step RK4 maps to the filled states of
all the group's segments, and checks the last cells from the fields it
marched them with.  The states never depend on whether it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import DimensionMismatch, StepTooLarge
from .model import DwellTimeSpec, ImpulsiveSystem, SwitchedSystem, mode_mats, require_forward_time, write_json

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
    seed: int = 0

    def __post_init__(self):
        """Refuse a law that cannot draw: a dwell of zero or less never reaches the horizon."""
        if self.kind == "uniform_range":
            if not (self.Tmin is not None and 0 < self.Tmin < np.inf):
                raise ValueError(f"uniform_range needs 0 < Tmin < inf, got Tmin={self.Tmin}")
            if not (self.Tmax is not None and self.Tmin <= self.Tmax < np.inf):
                raise ValueError(f"uniform_range needs Tmin <= Tmax < inf, got Tmax={self.Tmax} with Tmin={self.Tmin}")
        elif self.kind in ("exact", "min_plus_exp"):
            if not (self.T is not None and 0 < self.T < np.inf):
                raise ValueError(f"{self.kind} needs 0 < T < inf, got T={self.T}")
        else:
            raise ValueError(f"unknown sequence kind {self.kind!r}")

    @staticmethod
    def exact(T: float, seed: int = 0) -> "SequenceGen":
        return SequenceGen("exact", T=float(T), seed=seed)

    @staticmethod
    def uniform_range(Tmin: float, Tmax: float, seed: int = 0) -> "SequenceGen":
        return SequenceGen("uniform_range", Tmin=float(Tmin), Tmax=float(Tmax), seed=seed)

    @staticmethod
    def min_plus_exp(T: float, seed: int = 0) -> "SequenceGen":
        return SequenceGen("min_plus_exp", T=float(T), seed=seed)

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
            else:  # min_plus_exp: T plus an exponential of rate 1/T, whose scale 1/rate is rounded twice
                d = min(self.T + float(rng.exponential(1.0 / (1.0 / self.T))), 10.0 * self.T)
            out.append(d)
            total += d
        return np.asarray(out)


@dataclass(frozen=True)
class InputSignal:
    """Exogenous inputs: wc(t) vectorized over time, wd(k) per jump index.

    Scalar-valued; the simulator broadcasts across input channels.
    wc_value, when set, declares wc to be that one constant: the simulator
    then takes w from it, never calls wc and builds one table per mode.
    Left None, each segment gets a table of its own under wc, even when wc
    is constant, so a constant input should declare its value.  Under a
    constant input, a time-invariant mode's table is built from one block.
    """

    wc: Callable[[np.ndarray], np.ndarray]
    wd: Callable[[int], float]
    label: str = ""
    wc_value: Optional[float] = None


def generate_inputs(kind: str, seed: int = 0) -> InputSignal:
    """const_unit: w = 1; sine: (1 + sin t)/2; uniform_random: i.i.d. U(0,1)
    per jump.  const_unit and uniform_random declare w_c = 1 (wc_value): no
    run calls their wc, their segments share one table per mode, and a
    time-invariant mode's table is built from one block.  sine declares
    nothing, so each of its segments gets its own table."""
    if kind == "const_unit":
        return InputSignal(lambda t: np.ones_like(np.asarray(t, dtype=float)), lambda k: 1.0, kind, 1.0)
    if kind == "sine":
        return InputSignal(lambda t: 0.5 * (1.0 + np.sin(np.asarray(t, dtype=float))), lambda k: 1.0, kind)
    if kind == "uniform_random":

        def wd(k: int) -> float:
            return float(np.random.default_rng((seed, int(k))).uniform())

        return InputSignal(lambda t: np.ones_like(np.asarray(t, dtype=float)), wd, kind, 1.0)
    raise ValueError(f"unknown input kind {kind!r}")


def combine_inputs(continuous: InputSignal, discrete: InputSignal) -> InputSignal:
    return InputSignal(continuous.wc, discrete.wd, f"{continuous.label}+{discrete.label}", continuous.wc_value)


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
        return _sup(self.zc)

    def sup_zd(self) -> float:
        return _sup(self.zd)

    def sup_hybrid(self) -> float:
        return max(self.sup_zc(), self.sup_zd())

    def min_state(self) -> float:
        return float(np.min(self.states)) if self.states.size else 0.0


def _sup(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


_BLOCK = 32  # cells per prefix-scan block: no product of maps spans more than this
_CHUNK = 8192  # cells per table chunk: bounds a table's working set whatever its length
_SLIVER = 1e-9  # the narrowest last cell of a segment, in steps


def _mm(A: np.ndarray, B: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Cellwise products of component-major matrix stacks: (r, k, ...) times (k, c, ...) is (r, c, ...)."""
    return np.einsum("ik...,kj...->ij...", A, B, out=out)


def _mv(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cellwise products of a component-major matrix stack (r, k, ...) and vectors (k, ...)."""
    return np.einsum("ik...,k...->i...", A, x)


def _rk4_stage(A: np.ndarray, b: np.ndarray, start: slice, mid: slice, end: slice, h):
    """Classical RK4 step of x' = A x + b as an affine map x -> R x + s, per cell.

    A (n, n, len) and b (n, len) hold the data on a mesh; the slices pick the
    start, midpoint and end of each of m cells, whose widths h are one float
    or an (m,) array.  R is (n, n, m) and s (n, m); b None builds R alone
    and s is None.
    """
    A1, A2, A4 = A[..., start], A[..., mid], A[..., end]
    # M2 = A2 + h/2 A2 A1, M3 = A2 + h/2 A2 M2, M4 = A4 + h A4 M3 and
    # R = I + h/6 (A1 + 2 M2 + 2 M3 + M4), evaluated in place: the same
    # floating-point operations in the same order, with fewer temporaries;
    # likewise v2, v3, v4 and s = h/6 (b1 + 2 v2 + 2 v3 + v4)
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
    if b is None:
        return R, None
    b1, b2, b4 = b[..., start], b[..., mid], b[..., end]
    v2 = _mv(A2, b1)
    v2 *= 0.5 * h
    v2 += b2
    v3 = _mv(A2, v2)
    v3 *= 0.5 * h
    v3 += b2
    v4 = _mv(A4, v3)
    v4 *= h
    v4 += b4
    s = v2
    s *= 2.0
    s += b1
    v3 *= 2.0
    s += v3
    s += v4
    s *= h / 6.0
    return R, s


def _prefix(T: np.ndarray, T2: np.ndarray) -> np.ndarray:
    """Inclusive prefix compositions of affine maps x -> P x + q stored as
    T[:, :, i] = [P | q], one (n, n+1) table per entry i of axis 2; the axes
    after it index sequences of their own.  On return, entry i applies maps
    0..i in order.  T2 is a buffer of T's shape.  Log-doubling, so the Python
    work is log2(L) batched products: each step writes P_i [P_{i-d} | q_{i-d}]
    + [0 | q_i] from one buffer into the other, both parts in one product.
    Tables of n columns hold P alone.  Both buffers are overwritten, and the
    one holding the result is returned."""
    n, L = T.shape[0], T.shape[2]
    forced = T.shape[1] > n
    d = 1
    while d < L:
        T2[:, :, :d] = T[:, :, :d]
        _mm(T[:, :n, d:], T[:, :, :-d], out=T2[:, :, d:])
        if forced:
            T2[:, n, d:] += T[:, n, d:]
        T, T2 = T2, T
        d *= 2
    return T


def _block_prefix(R: np.ndarray, s: Optional[np.ndarray], m: Optional[int] = None):
    """Prefix tables of the one-step maps x_{i+1} = R[..., i] x_i + s[..., i].

    R is (n, n, m) and s (n, m).  The m cells form nb blocks of B = min(_BLOCK, m),
    the last padded with identity maps; cell bB + j is entry [..., j, b] of
    the block-inner-major tables, so each log-doubling step of `_prefix`
    reads and writes whole (n, n+1, nb) slabs.  Returns (T, U), each holding
    maps [P | q] as in `_prefix`:
    - T (n, n+1, B, nb) composes within each block:
      x_{bB+j+1} = T[:, :n, j, b] x_{bB} + T[:, n, j, b];
    - U (n, n+1, nb-1) maps x_0 to the starts of blocks 1..nb-1:
      x_{(b+1)B} = U[:, :n, b] x_0 + U[:, n, b].
    Both levels come from `_prefix`, the second over the block-end maps, so
    no Python loop runs over cells or blocks.  With s None the tables hold
    P alone, (n, n, B, nb) and (n, n, nb-1).

    With m, R (n, n, 1) and s (n, 1) hold the one map of all m cells: one
    block's prefix is built and T is a broadcast of it, and U scans nb - 1
    copies of its end map.  A block's entries depend on its own maps alone,
    so these are the floats the m maps would give.
    """
    if m is not None:
        B = min(_BLOCK, m)
        nb = -(-m // B)
        T, _ = _block_prefix(*(None if a is None else np.broadcast_to(a, a.shape[:-1] + (B,)) for a in (R, s)))
        U = np.repeat(T[:, :, -1], nb - 1, axis=-1)
        return np.broadcast_to(T, T.shape[:3] + (nb,)), _prefix(U, np.empty_like(U))
    n, m = R.shape[1:]
    B = min(_BLOCK, m)
    nb, full = -(-m // B), m // B
    t = m - full * B  # cells of a last, partial block
    cols = n + (s is not None)
    T, T2, U, U2 = map(np.empty, [(n, cols, B, nb)] * 2 + [(n, cols, nb - 1)] * 2)
    for part, maps in [(T2[:, :n], R)] + ([(T2[:, n], s)] if s is not None else []):
        part[..., :full] = maps[..., : full * B].reshape(maps.shape[:-1] + (full, B)).swapaxes(-1, -2)
        if t:
            part[..., :t, -1] = maps[..., full * B :]
    if t:  # the last block ends in identity maps
        T2[:, :n, t:, -1] = np.eye(n)[:, :, None]
        T2[:, n:, t:, -1] = 0.0
    T = _prefix(T2, T)
    U[...] = T[:, :, -1, :-1]
    return T, _prefix(U, U2)


def _scan(tables, x0: np.ndarray, m: int, forced: bool = True) -> np.ndarray:
    """States x_0..x_m from the tables of `_block_prefix`, component-major.

    x0 is a vector (n,) or a matrix (n, k) whose columns are marched alike;
    the result is (n, m+1) or (n, k, m+1), in the natural order of the
    cells.  forced=False drops the forced parts, the last columns q.
    """
    T, U = tables
    n, _, B, nb = T.shape
    X0 = x0.reshape(n, -1)
    Y = np.empty((n, X0.shape[1], nb))  # block starts
    Y[:, :, 0] = X0
    np.einsum("ilb,lc->icb", U[:, :n], X0, out=Y[:, :, 1:])
    if forced:
        Y[:, :, 1:] += U[:, n, None]
    X = np.einsum("iljb,lcb->icjb", T[:, :n], Y)
    if forced:
        X += T[:, n, None]
    xs = np.empty(Y.shape[:2] + (nb * B + 1,))
    xs[:, :, 0] = X0
    xs[:, :, 1:].reshape(Y.shape[:2] + (nb, B))[...] = X.transpose(0, 1, 3, 2)
    return xs[..., : m + 1].reshape(x0.shape + (m + 1,))


def _fields(sys, controller, mode, clamp, grid: np.ndarray, w: Optional[np.ndarray], npts: int):
    """A (+B K_c) and the forcing E w on the timer values `grid`, and the
    output terms C (+D K_c) and F w on its first npts entries, the mesh
    points; all component-major.  w holds the continuous input on grid;
    cert.verify reads its rows from here with w = 1.  With w None only
    A (+B K_c) is evaluated, and the other three are None."""
    A_pm, B_pm, E_pm, C_pm, D_pm, F_pm = mode_mats(sys, mode)
    pts = grid[:npts]
    A = A_pm.eval_mesh(grid, clamp)
    C = None if w is None else C_pm.eval_mesh(pts, clamp)
    if controller is not None:
        K = controller.kc_mesh(grid, mode=mode)
        A += _mm(B_pm.eval_mesh(grid, clamp), K)
        if w is not None:
            C += _mm(D_pm.eval_mesh(pts, clamp), K[..., :npts])
    if w is None:
        return A, None, None, None
    b = E_pm.eval_mesh(grid, clamp).sum(axis=1)
    b *= w
    z = F_pm.eval_mesh(pts, clamp).sum(axis=1)
    z *= w[:npts]
    return A, b, C, z


def _time_invariant(A: np.ndarray, b: Optional[np.ndarray]) -> bool:
    """Whether the flow data A (n, n, len) and forcing b (n, len) or None
    take one value on the whole mesh, so that every RK4 cell has one map:
    time-invariant data, or a timer clamped before the mesh starts."""
    return bool((A == A[..., :1]).all() and (b is None or (b == b[..., :1]).all()))


def _flow_tables(sys, controller, mode, clamp, taus: np.ndarray, w: Optional[np.ndarray] = None,
                 h: Optional[float] = None, start: Optional[np.ndarray] = None):
    """The flow across the uniform grid `taus`, integrated by the march's RK4
    maps and prefix scan: Phi(tau_i, tau_0) is Phi[..., i] (n, n, len).
    With w, the continuous input on the grid's points and then its cell
    midpoints, also the forced response r (n, len) from r(tau_0) = 0 and the
    output terms C (+D K_c) (q, n, len) and F w (q, len) on the points, as
    `_fields` gives them; without it nothing forced is evaluated or scanned,
    and these three are None.  The cells are h wide, taus[1] - taus[0]
    unless given; start = [Phi_0 | r_0] (n, n+1), when given, replaces
    [I | 0] as the tables' value at tau_0."""
    m = len(taus) - 1
    if h is None:
        h = taus[1] - taus[0] if m else 0.0
    grid = np.concatenate([taus, taus[:-1] + 0.5 * h])
    A, b, C, z = _fields(sys, controller, mode, clamp, grid, w, m + 1)
    n = sys.n
    Phi0, r0 = (np.eye(n), np.zeros(n)) if start is None else (start[:, :n], start[:, n])
    if m < 1:
        return Phi0[:, :, None].copy(), None if w is None else r0[:, None].copy(), C, z
    if _time_invariant(A, b):
        R, s = _rk4_stage(A, b, slice(0, 1), slice(0, 1), slice(0, 1), h)
        tables = _block_prefix(R, s, m)
    else:
        R, s = _rk4_stage(A, b, slice(0, m), slice(m + 1, 2 * m + 1), slice(1, m + 1), h)
        tables = _block_prefix(R, s)
    return _scan(tables, Phi0, m, forced=False), None if w is None else _scan(tables, r0, m), C, z


@dataclass
class _Plan:
    """A run's segments as `_run` draws them.  Segment k starts at time
    t0s[k] in mode modes[codes[k]], has the points tau = j h, j < ms[k], and
    ends at tau = lens[k]; its first point is row firsts[k] of the run's
    arrays.  Each entry (k, ks) of groups lists the segments ks that share
    one table, those of a mode when inputs declares its continuous part
    constant, else each alone, and k, the first of the longest: the table
    spans its mesh."""

    sys: Union[ImpulsiveSystem, SwitchedSystem]
    controller: object
    clamp: Optional[float]
    inputs: InputSignal
    h: float
    modes: list
    codes: np.ndarray
    t0s: np.ndarray
    ms: np.ndarray
    lens: np.ndarray
    firsts: np.ndarray
    groups: list

    def input(self, t0, grid: np.ndarray) -> np.ndarray:
        """The continuous input at the times t0 + grid, as floats of grid's shape."""
        if self.inputs.wc_value is not None:
            return np.full(grid.shape, self.inputs.wc_value)
        return np.asarray(np.broadcast_to(self.inputs.wc(t0 + grid), grid.shape), dtype=float)

    def fields(self, c: int, t0, grid: np.ndarray, npts: int):
        """`_fields` of mode modes[c] on the timer values grid, under the input at t0 + grid."""
        return _fields(self.sys, self.controller, self.modes[c], self.clamp, grid, self.input(t0, grid), npts)

    def last_cells(self, c: int, quarters: bool):
        """The segments ks of mode modes[c], the widths of their last cells,
        and `fields` on those cells' ends (where the outputs are read),
        starts, midpoints and with quarters quarter points, len(ks) each."""
        ks = np.flatnonzero(self.codes == c)
        cell = (self.ms[ks] - 1) * self.h
        width = self.lens[ks] - cell
        parts = [self.lens[ks], cell] + [cell + f * width for f in ((0.5, 0.25, 0.75) if quarters else (0.5,))]
        return ks, width, self.fields(c, np.concatenate([self.t0s[ks]] * len(parts)), np.concatenate(parts), len(ks))


def _mode_table(plan: _Plan, k: int, cols: np.ndarray, full: bool):
    """The flow of segment k's mode from tau = 0 to each tau = jh, j < m_k,
    under the continuous input along segment k, as the affine maps
    x(0) -> (x(jh), z_c(jh)) in the layout the fill reads, (n+1, m_k, n+q):
    T[:n, j] is [Phi_j | C_j Phi_j] transposed and T[n, j] is
    [r_j | C_j r_j + z_j], from `_flow_tables`; without full, the z_c part
    alone.  Also returns [Phi_j | r_j] (n, n+1, len(cols)) at the columns
    cols.  It is built _CHUNK cells at a time, each chunk from the previous
    one's last column, so its working set stays a chunk's."""
    sys, n, h, points, t0 = plan.sys, plan.sys.n, plan.h, int(plan.ms[k]), plan.t0s[k]
    mode = plan.modes[plan.codes[k]]
    qc = mode_mats(sys, mode)[3].shape[0]
    taus = np.arange(points) * h
    table, at = np.empty((n + 1, points, n * full + qc)), np.empty((n, n + 1, len(cols)))
    start = None  # [Phi | r] at the chunk's first point, [I | 0] at tau = 0
    for a in range(0, max(points - 1, 1), _CHUNK):
        b = min(a + _CHUNK, points - 1)
        t = taus[a : b + 1]
        w = plan.input(t0, np.concatenate([t, t[:-1] + 0.5 * h]))
        Phi, r, C, z = _flow_tables(sys, plan.controller, mode, plan.clamp, t, w, h, start)
        top = np.concatenate([Phi, r[:, None]], axis=1)  # [Phi_j | r_j]
        bottom = _mm(C, top)
        bottom[:, n] += z
        if full:
            table[:, a : b + 1, :n] = top.transpose(1, 2, 0)
        table[:, a : b + 1, n * full :] = bottom.transpose(1, 2, 0)
        hit = (a <= cols) & (cols <= b)
        at[..., hit] = top[..., cols[hit] - a]
        start = top[..., -1]
    return table, at


def _march_tables(plan: _Plan, jR, js, x0: np.ndarray, switched: bool, out: np.ndarray, full: bool,
                  check_step: bool):
    """Fill the states and z_c of a run, side by side in out (npts, n+q),
    from its groups' tables; without full, z_c alone in out (npts, q).
    Returns the states at the segment ends, (n, K), and the half-step
    referee's value, 0.0 without check_step (which needs full).

    A group's table maps the start x_k of each of its segments to the
    segment's first m_k points.  The last cells of a mode's segments are one
    batch of RK4 maps, each composed with its table's column m_k - 1 into
    the map [E_k | e_k] from x_k to the segment's end.  The starts follow
    x_{k+1} = J_k (E_k x_k + e_k) + s_k by the prefix scan over the
    segments.  Each segment is filled by one product of [x_k | 1] with its
    table, whose columns are those of out, and a run of segments alike in
    table and cell count, as under a constant dwell, shares one product.

    The referee is the largest relative gap between one h-step and two
    h/2-steps over the cells, along the filled states: per group, a chunk's
    half-step maps at a time, applied to its segments' states padded to (n,
    segments, cells), so many segments at once that one gather holds at most
    _CHUNK cells; per mode, from the last cells' own fields.  Jumps are not read."""
    n, ms, K, firsts, h = plan.sys.n, plan.ms, len(plan.ms), plan.firsts, plan.h
    ends = firsts + ms
    qc = out.shape[1] - n * full
    R, s, Cend, zend = np.empty((n, n, K)), np.empty((n, K)), np.empty((qc, n, K)), np.empty((qc, K))
    lasts = []  # per mode, the last cells' segments, widths and fields, for the referee
    for c in range(len(plan.modes)):  # the partial cells, and the outputs at their ends
        ks, width, (A, bw, Cend[..., ks], zend[..., ks]) = plan.last_cells(c, quarters=check_step)
        L = len(ks)
        R[..., ks], s[..., ks] = _rk4_stage(A, bw, slice(L, 2 * L), slice(2 * L, 3 * L), slice(0, L), width)
        lasts.append((ks, width, A, bw))
    tables, at, gid = [], np.empty((n, n + 1, K)), np.empty(K, dtype=int)
    for g, (k, ks) in enumerate(plan.groups):
        table, at[..., ks] = _mode_table(plan, k, ms[ks] - 1, full)
        tables.append(table)
        gid[ks] = g
    to_end = _mm(R, at)
    to_end[:, n] += s
    starts = x0[:, None]  # a run of one segment has no jump to scan over
    if K > 1:
        maps = _mm(jR, to_end[..., :-1])
        maps[:, n] += js
        starts = _scan(_block_prefix(maps[:, :n], maps[:, n]), x0, K - 1)
    x_end = _mv(to_end[:, :n], starts)
    x_end += to_end[:, n]
    if full:
        out[ends, :n] = x_end.T
    out[ends, n * full :] = (_mv(Cend, x_end) + zend).T

    starts1 = np.concatenate([starts, np.ones((1, K))]).T  # the rows [x_k | 1]
    cuts = np.flatnonzero(np.diff(gid) | np.diff(ms)) + 1
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), K]):  # a run of like segments: one strided view
        part = tables[gid[a]][:, : ms[a]].reshape(n + 1, -1)
        rows = out[firsts[a] : ends[b - 1] + 1].reshape(b - a, -1)[:, : part.shape[1]]
        # einsum, not a BLAS product: BLAS would allocate work buffers of its own
        np.einsum("kl,lj->kj", starts1[a:b], part, out=rows)
    if switched and full:  # the state is continuous: a post-jump state is the pre-jump one
        out[firsts[1:], :n] = out[ends[:-1], :n]
    # without the states, an overflow shows in x_end or as an infinite or NaN z_c
    if not (np.isfinite(x_end).all() and np.isfinite(out[:, :n] if full else out).all()):
        raise StepTooLarge("state overflow while integrating; reduce the step")
    if not check_step:
        return x_end, 0.0

    def gap(A, bw, L, start, end, mid, x, y, half):
        """The gaps from x to y (n, ..., L) of L cells whose fields begin at the
        entries start (starts), end (ends) and mid (midpoints, then quarter points)."""
        a, b, q1, q3, e = (slice(o, o + L) for o in (start, mid, mid + L, mid + 2 * L, end))
        R1, s1 = _rk4_stage(A, bw, a, q1, b, half)
        R2, s2 = _rk4_stage(A, bw, b, q3, e, half)
        x = np.einsum("ijc,jsc->isc", R1, x) + s1[:, None]
        x = np.einsum("ijc,jsc->isc", R2, x) + s2[:, None]
        return np.max(np.abs(x - y), axis=0) / (1.0 + np.max(np.abs(y), axis=0))

    states, worst = out[:, :n], 0.0
    for k, ks in plan.groups:  # the table's full cells, a chunk at a time
        for a in range(0, ms[k] - 1, _CHUNK):
            j = np.arange(a, min(a + _CHUNK, ms[k] - 1) + 1)  # the chunk's points
            t, L = j * h, len(j) - 1
            grid = np.concatenate([t, t[:-1] + 0.5 * h, t[:-1] + 0.25 * h, t[:-1] + 0.75 * h])
            A, bw, _, _ = plan.fields(plan.codes[k], plan.t0s[k], grid, 0)
            batch = max(1, _CHUNK // L)  # segments per gather, so that one holds at most _CHUNK cells
            for part in (ks[i : i + batch] for i in range(0, len(ks), batch)):
                # each segment's points, its last one repeated past them, and the cells within it
                X = states[firsts[part, None] + np.minimum(j, ms[part, None] - 1)].transpose(2, 0, 1)
                err = gap(A, bw, L, 0, 1, L + 1, X[..., :-1], X[..., 1:], 0.5 * h)
                worst = max(worst, float(np.max(err, where=j[:-1] < ms[part, None] - 1, initial=0.0)))
    for ks, width, A, bw in lasts:
        x, y = states[ends[ks] - 1].T[:, None], states[ends[ks]].T[:, None]
        worst = max(worst, float(np.max(gap(A, bw, len(ks), len(ks), 0, 2 * len(ks), x, y, 0.5 * width))))
    return x_end, worst


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

    Every segment's mesh starts at tau = 0 in cells of the step, and its
    last cell ends on the jump.  One march, which also runs the referee,
    serves every run: the segments of a mode share one table under an input
    that declares its continuous part constant, and otherwise each has its
    own.
    """
    return _run(sys, dwell_gen, inputs, x0, horizon, step, controller, clamp, check_step, rng, start_mode, False)


def _run(sys, dwell_gen, inputs, x0, horizon, step, controller, clamp, check_step, rng, start_mode, sup: bool):
    """simulate's body.  With sup it returns the run's hybrid sup, what
    Trajectory.sup_hybrid would read, builds no Trajectory and fills z_c
    alone.  A gain run fills no states, so it has no referee."""
    if sup and check_step:
        raise ValueError("check_step needs the states, which a gain run (sup) does not fill")
    require_forward_time(sys, "simulation")
    if not (0 < horizon < np.inf and (step is None or 0 < step < np.inf)):
        raise DimensionMismatch("horizon and step must be finite and positive")
    if rng is None:
        rng = np.random.default_rng(dwell_gen.seed)
    if step is None:
        step = _default_step(dwell_gen)
    x0 = np.asarray(x0, dtype=float)
    if not np.isfinite(x0).all():
        raise DimensionMismatch(f"x0 must be finite, got {x0.tolist()}")

    switched = isinstance(sys, SwitchedSystem)
    n = sys.n
    if switched:
        mode = int(start_mode) if start_mode is not None else int(rng.integers(sys.N))
        if not 0 <= mode < sys.N:
            raise DimensionMismatch(f"start_mode must be in [0, {sys.N}), got {start_mode}")
    else:
        mode = start_mode
    if x0.shape != (n,):
        raise DimensionMismatch(f"x0 must have length {n}")

    # Plan: the whole schedule first.  No draw depends on the state, so the
    # draws come in the order a segment-by-segment march would make them:
    # the dwells, then the jumps.  The run ends in segment K, the first
    # whose dwell takes the time to the horizon, cut there.
    dwells = dwell_gen.dwells(horizon, rng)
    ends_t = np.cumsum(dwells)
    K = int(np.argmax(ends_t >= horizon - 1e-12))
    t0s = np.concatenate(([0.0], ends_t[:K]))
    lens = np.append(dwells[:K], min(dwells[K], horizon - t0s[K]))
    seg_mode = [mode if switched else None]  # an impulsive system has one flow
    picks = []  # per jump of an impulsive system
    for _ in range(K):
        if switched:
            j = int(rng.integers(sys.N - 1))
            mode = j if j < mode else j + 1
        else:
            picks.append(_pick_jump(sys, mode, rng))
            if sys.jumps[picks[-1]].tag is not None:
                mode = sys.jumps[picks[-1]].tag[1]
        seg_mode.append(mode if switched else None)

    # Segment k has the points tau = j step, j < m_k, of one grid, and its
    # end lens[k]: its first m_k - 1 cells are those of every other segment,
    # and its last one is never narrower than _SLIVER steps.  The run's
    # arrays hold its m_k + 1 points, the last one at ends[k].
    ms = np.maximum(np.ceil(lens / step - _SLIVER), 1).astype(int)
    counts = ms + 1
    ends = np.cumsum(counts) - 1
    jumps_at = ends[:-1]
    code_of = {md: c for c, md in enumerate(dict.fromkeys(seg_mode))}
    modes, codes = list(code_of), np.array([code_of[md] for md in seg_mode])
    if switched:
        jR = np.broadcast_to(np.eye(n)[:, :, None], (n, n, len(jumps_at)))
        js = np.zeros((n, len(jumps_at)))
    else:
        wds = [inputs.wd(k + 1) for k in range(K)]
        jR, js, jCz, jzs = _jump_maps(sys, controller, picks, dwells[:K], wds)

    # 8 MiB taken and given back, more than a chunk's tables up to n = 8 and
    # a run's mesh arrays: glibc raises its mmap and trim thresholds to the
    # largest mapped block freed, so the arrays of the march and the referee
    # come from a heap it no longer trims and re-faults on every run.
    np.empty(1 << 23, np.uint8)

    # the segments of a mode share one table under a declared constant
    # continuous input, else each has its own
    members = ([np.flatnonzero(codes == c) for c in range(len(modes))] if inputs.wc_value is not None
               else np.arange(len(ms))[:, None])
    groups = [(int(ks[np.argmax(ms[ks])]), ks) for ks in members]
    plan = _Plan(sys, controller, clamp, inputs, step, modes, codes, t0s, ms, lens, ends - ms, groups)
    full = not sup  # a gain run fills z_c alone
    out = np.empty((ends[-1] + 1, n * full + mode_mats(sys, modes[0])[3].shape[0]))
    states, zc = out[:, :n], out[:, n * full :]
    # the referee reads the filled states: they never depend on whether it runs
    x_end, worst_lt = _march_tables(plan, jR, js, x0, switched, out, full, check_step)
    if worst_lt > _LT_TOL:
        raise StepTooLarge(f"local truncation estimate {worst_lt:.2e} exceeds {_LT_TOL:.0e}")

    pre = x_end[:, :-1].T
    zd = np.zeros((0, 0))
    if not switched and len(jumps_at) and jCz.shape[0]:
        zd = (_mv(jCz, pre.T) + jzs).T
    if sup:
        return max(_sup(zc), _sup(zd))
    taus = (np.arange(ends[-1] + 1) - np.repeat(ends - ms, counts)) * step
    taus[ends] = lens
    return Trajectory(
        times=np.repeat(t0s, counts) + taus,
        states=states,
        zc=zc,
        jump_times=t0s[1:],
        jump_count=np.repeat(np.arange(len(ms)), counts),
        zd=zd,
        pre_jump_states=pre,
        post_jump_states=states[jumps_at + 1],
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
    """The hybrid sup of run r of estimate_gain, marched as simulate marches
    it with the sequence drawn from default_rng((seed, r))."""
    sys, dwell_gen, horizon, step, controller, clamp, r = payload
    return _run(sys, dwell_gen, generate_inputs("const_unit"), np.zeros(sys.n), horizon, step, controller, clamp,
                False, np.random.default_rng((dwell_gen.seed, r)), None, True)


def estimate_gain(
    sys: Union[ImpulsiveSystem, SwitchedSystem],
    dwell_gen: SequenceGen,
    runs: int = 100,
    horizon: float = 30.0,
    step: Optional[float] = None,
    controller=None,
    clamp: Optional[float] = None,
    jobs: int = 1,
) -> float:
    """Monte-Carlo lower bound on the hybrid gain.

    Protocol: x0 = 0, unit constant inputs on both channels, `runs` sampled
    admissible sequences; returns the largest observed hybrid output sup-norm.
    Runs are independent per seed, so jobs > 1 fans them out over processes
    without changing the result.  An exact dwell on an impulsive system with
    one jump map draws nothing, so it is run once.
    """
    return _max_sup(sys, dwell_gen, runs, horizon, step, controller, clamp, jobs)


def _max_sup(sys, dwell_gen, runs, horizon, step, controller, clamp, jobs, sup0=None) -> float:
    """The body of estimate_gain.  sup0, when given, is the sup of run 0 (the
    sequence drawn from default_rng((seed, 0))) that the caller has already
    integrated, so only runs 1.. are simulated here."""
    if runs < 1 or jobs < 1:
        raise ValueError(f"runs and jobs must be >= 1, got runs={runs}, jobs={jobs}")
    if dwell_gen.kind == "exact" and isinstance(sys, ImpulsiveSystem) and len(sys.jumps) == 1:
        runs = 1  # no draw at all: every run is run 0
    sups = [] if sup0 is None else [sup0]
    payloads = [(sys, dwell_gen, horizon, step, controller, clamp, r) for r in range(len(sups), runs)]
    if jobs > 1 and len(payloads) > 1:
        # imported here: the pool loads multiprocessing, which one job never needs
        from concurrent.futures import ProcessPoolExecutor

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
