"""Hybrid trajectory simulation, dwell-time sequence and input generation,
hybrid sup-norm bookkeeping, and Monte-Carlo gain lower bounds.

The flow between jumps is linear in the state, so the classical fixed-step
RK4 update is an affine map x -> R x + s per mesh cell, and a jump is an
affine map too.  A run first draws its whole schedule (dwells, modes, jump
maps and K_d).  Every segment's mesh starts at tau = 0 in whole steps h:
segment k has the points tau = 0, h, ..., (m_k - 1) h and its length theta_k,
so its first m_k - 1 cells are those of every other segment of its mode,
and only its last one, never narrower than about 1e-9 h, is its own.

When the continuous input is constant on the run's mesh, the segments of
one mode share one table (`_mode_table`, built by `_flow_tables` over the
mode's longest segment): the transition Phi_j and the forced response r_j
from tau = 0 to each tau = jh, and the outputs there.  Each segment's last,
partial cell is one RK4 map, batched over all segments.  The segment starts
are marched through the jumps by a prefix scan over the segments, and the
states and outputs of each segment are filled from its start by one
product with the first m_k columns of its table, one product for a run of
like segments, as under a constant dwell.  A random dwell is thus marched
as a constant one is.

Otherwise -- a time-varying input, a single segment, or tables that would
not serve two segments on average -- the run lays the mesh points of all
its segments on one flat axis, where the map between consecutive points is
an RK4 cell or, at a segment's end, the jump.  The march takes this axis
in chunks of _CHUNK maps: a chunk's mesh data are evaluated in one
vectorized pass per mode, its maps are built at once as component-major
(n, n, L) and (n, L) tables, so each batched 2x2 product is a few vector
operations, and they are composed by a two-level log-doubling prefix scan
(Blelloch 1990), within blocks of 32 cells and then over the block ends.
The tables hold each map as one (n, n+1) block [P | q]; the in-block ones
are block-inner-major, (n, n+1, 32, L/32), so that every doubling step is
one batched product over contiguous slabs.  No Python loop runs over its
cells, blocks or segments.

The half-step referee reads the marched states afterwards, along the flat
axis, so the states never depend on whether it runs.
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
            elif self.kind == "min_plus_exp":
                # T plus an exponential of rate 1/T, whose scale 1/rate is rounded twice
                d = min(self.T + float(rng.exponential(1.0 / (1.0 / self.T))), 10.0 * self.T)
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


def _block_prefix(R: np.ndarray, s: Optional[np.ndarray]):
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
    """
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
    R, s = _rk4_stage(A, b, slice(0, m), slice(m + 1, 2 * m + 1), slice(1, m + 1), h)
    tables = _block_prefix(R, s)
    return _scan(tables, Phi0, m, forced=False), None if w is None else _scan(tables, r0, m), C, z


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
        w = self.inputs.wc(np.concatenate([origin] + [origin[:-1]] * (len(parts) - 1)) + grid)
        w = np.asarray(np.broadcast_to(w, grid.shape), dtype=float)
        sys, ctrl, clamp = self.sys, self.controller, self.clamp
        if self.codes is None:
            return _fields(sys, ctrl, self.modes[0], clamp, grid, w, npts)
        # Each mode's entries of the mesh, gathered by index: a stable sort of
        # their codes lists mode 0's points, then its other entries, then
        # mode 1's, ...  Each mode's data fill their stretch of arrays laid
        # out in that order, which one gather per array takes to mesh order.
        codes = self.codes[a : b + 1]
        order = np.argsort(np.concatenate([codes] + [codes[:-1]] * (len(parts) - 1)), kind="stable")
        points = np.argsort(codes, kind="stable")  # the points alone, in the same order
        counts = np.bincount(codes, minlength=len(self.modes))
        sizes = counts + np.bincount(codes[:-1], minlength=len(self.modes)) * (len(parts) - 1)
        n, qc = sys.n, mode_mats(sys, self.modes[0])[3].shape[0]
        A, bw = np.empty((n, n, len(grid))), np.empty((n, len(grid)))
        C, z = np.empty((qc, n, npts)), np.empty((qc, npts))
        lo = at = 0
        for md, k, size in zip(self.modes, counts, sizes):
            if k:
                sel, hi = order[lo : lo + size], lo + size
                A[..., lo:hi], bw[..., lo:hi], C[..., at : at + k], z[..., at : at + k] = _fields(
                    sys, ctrl, md, clamp, grid[sel], w[sel], k)
            lo, at = lo + size, at + k
        data = [A, bw, C, z]
        del A, bw, C, z  # each laid-out array is freed once gathered
        for i, perm in enumerate((order, order, points, points)):
            back = np.empty_like(perm)
            back[perm] = np.arange(len(perm))
            data[i] = data[i].take(back, axis=-1)
        return tuple(data)

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


def _flat_axis(sys, controller, clamp, inputs: InputSignal, modes: list, codes: np.ndarray, counts: np.ndarray,
               ms: np.ndarray, lens: np.ndarray, h: float, taus: np.ndarray, origin: np.ndarray) -> _FlatAxis:
    """The run's points on one axis: segment k's counts[k] points have the
    timer values taus and the time origin; its first m_k - 1 cells are h
    wide, its last one ends at lens[k], and the jump after it is a cell of
    zero width."""
    ends = np.cumsum(counts) - 1
    widths = np.full(len(taus) - 1, h)
    widths[ends - 1] = lens - (ms - 1) * h
    widths[ends[:-1]] = 0.0
    return _FlatAxis(sys, controller, clamp, inputs, modes,
                     codes=np.repeat(codes, counts) if len(modes) > 1 else None,
                     taus=taus, origin=origin, widths=widths)


def _constant_input(inputs: InputSignal, times: np.ndarray) -> Optional[float]:
    """The continuous input's value when it takes one value on every point
    and cell midpoint of the run's mesh, the time points `times`; else None."""
    t = np.concatenate([times, 0.5 * (times[:-1] + times[1:])])
    w = np.broadcast_to(inputs.wc(t), t.shape)
    return float(w[0]) if (w == w[0]).all() else None


def _mode_table(sys, controller, mode, clamp, points: int, h: float, w: float) -> np.ndarray:
    """The flow of `mode` from tau = 0 to each tau = jh, j < points, under the
    constant continuous input w, as the affine maps x(0) -> (x(jh), z_c(jh))
    in the layout the fill reads, (n+1, points, n+q): T[:n, j] is
    [Phi_j | C_j Phi_j] transposed and T[n, j] is [r_j | C_j r_j + z_j], with
    Phi_j, r_j and the output terms C_j, z_j from `_flow_tables`.  A table
    of more than _CHUNK cells is built one chunk at a time, each chunk from
    the previous one's last column, so its working set stays a chunk's."""
    n, qc = sys.n, mode_mats(sys, mode)[3].shape[0]
    taus = np.arange(points) * h
    table = np.empty((n + 1, points, n + qc))
    start = None  # [Phi | r] at the chunk's first point, [I | 0] at tau = 0
    for a in range(0, max(points - 1, 1), _CHUNK):
        b = min(a + _CHUNK, points - 1)
        Phi, r, C, z = _flow_tables(sys, controller, mode, clamp, taus[a : b + 1], np.full(2 * (b - a) + 1, w), h,
                                    start)
        top = np.concatenate([Phi, r[:, None]], axis=1)  # [Phi_j | r_j]
        bottom = _mm(C, top)
        bottom[:, n] += z
        table[:, a : b + 1, :n] = top.transpose(1, 2, 0)
        table[:, a : b + 1, n:] = bottom.transpose(1, 2, 0)
        start = top[..., -1]
    return table


def _march_tables(sys, controller, clamp, modes: list, codes: np.ndarray, ms: np.ndarray, lens: np.ndarray,
                  h: float, w: float, jR, js, x0: np.ndarray, switched: bool, out: np.ndarray) -> None:
    """Fill the states and z_c, side by side in out (npts, n+q), of a run
    under the constant continuous input w from one table per mode.

    Segment k, in mode modes[codes[k]], has the points tau = jh, j < m_k =
    ms[k], and its end lens[k].  Its mode's table (`_mode_table`, over the
    mode's longest segment) maps the segment's start x_k to its first m_k
    points.  The last, partial cells of all the mode's segments are one
    batch of RK4 maps, each composed with the table's column m_k - 1 into
    the map [E_k | e_k] from x_k to the segment's end.  The starts follow
    x_{k+1} = J_k (E_k x_k + e_k) + s_k, the jump maps J_k, s_k as in the
    flat march, by the prefix scan over the segments.  Then each segment's
    points are filled by one product of [x_k | 1] with its table; a run of
    segments alike in mode and cell count, as under a constant dwell,
    shares one product."""
    n, K = sys.n, len(ms)
    counts = ms + 1
    firsts = np.cumsum(counts) - counts
    ends = firsts + ms
    qc = out.shape[1] - n
    tables = []
    to_end, Cend, zend = np.empty((n, n + 1, K)), np.empty((qc, n, K)), np.empty((qc, K))
    for c, mode in enumerate(modes):
        ks = np.flatnonzero(codes == c)
        table = _mode_table(sys, controller, mode, clamp, int(ms[ks].max()), h, w)
        tables.append(table)
        # the partial cells, from (m_k - 1) h to lens[k], and the outputs at their ends
        L, cell = len(ks), (ms[ks] - 1) * h
        width = lens[ks] - cell
        grid = np.concatenate([lens[ks], cell, cell + 0.5 * width])
        A, bw, Cend[..., ks], zend[..., ks] = _fields(sys, controller, mode, clamp, grid, np.full(3 * L, w), L)
        R, s = _rk4_stage(A, bw, slice(L, 2 * L), slice(2 * L, 3 * L), slice(0, L), width)
        E = _mm(R, table[:, ms[ks] - 1, :n].transpose(2, 0, 1))
        E[:, n] += s
        to_end[..., ks] = E
    maps = _mm(jR, to_end[..., :-1])
    maps[:, n] += js
    starts = _scan(_block_prefix(maps[:, :n], maps[:, n]), x0, K - 1)
    x_end = _mv(to_end[:, :n], starts)
    x_end += to_end[:, n]
    out[ends, :n] = x_end.T
    out[ends, n:] = (_mv(Cend, x_end) + zend).T

    starts1 = np.concatenate([starts, np.ones((1, K))]).T  # the rows [x_k | 1]
    cuts = np.flatnonzero(np.diff(codes) | np.diff(ms)) + 1
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), K]):  # a run of like segments: one strided view
        part = tables[codes[a]][:, : ms[a]].reshape(n + 1, -1)
        rows = out[firsts[a] : ends[b - 1] + 1].reshape(b - a, -1)[:, : part.shape[1]]
        # einsum, not a BLAS product: BLAS would allocate work buffers of its own
        np.einsum("kl,lj->kj", starts1[a:b], part, out=rows)
    if switched:  # the state is continuous: a post-jump state is the pre-jump one
        out[firsts[1:], :n] = out[ends[:-1], :n]
    if not np.isfinite(out[:, :n]).all():
        raise StepTooLarge("state overflow while integrating; reduce the step")


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


def _march_flat(axis: _FlatAxis, jR, js, jumps_at: np.ndarray, x0: np.ndarray, switched: bool, states: np.ndarray,
                zc: np.ndarray) -> None:
    """Fill the states and z_c of the whole flat axis, marched chunk by
    chunk from the state the previous chunk ended in."""
    x = x0
    for a in range(0, len(axis.widths), _CHUNK):
        b = min(a + _CHUNK, len(axis.widths))
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
    last cell ends on the jump.  Under a continuous input constant on the
    mesh, the segments of each mode share one transition table over the
    mode's longest segment, whatever the dwell; a time-varying input, a
    single segment, or tables that would not serve two segments on average
    take the march along one flat axis of all the mesh points (see the
    module docstring).  The two agree to rounding.
    """
    require_forward_time(sys, "simulation")
    if not (0 < horizon < np.inf and (step is None or 0 < step < np.inf)):
        raise DimensionMismatch("horizon and step must be finite and positive")
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
    seg_t0, seg_len, seg_mode = [], [], []
    picks, thetas, wds = [], [], []  # per jump of an impulsive system
    t0 = 0.0
    for dwell_len in dwell_gen.dwells(horizon, rng):
        seg = min(dwell_len, horizon - t0)
        last = t0 + dwell_len >= horizon - 1e-12
        if seg <= 0:
            break
        seg_t0.append(t0)
        seg_len.append(seg)
        seg_mode.append(mode if switched else None)  # an impulsive system has one flow
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

    # Segment k has the points tau = j step, j < m_k, of one grid, and its
    # end lens[k]: its first m_k - 1 cells are those of every other segment,
    # and its last one is never narrower than _SLIVER steps.  On the run's
    # point axis it contributes these m_k + 1 points, and the jump after it
    # is map ends[k].
    t0s, lens = np.asarray(seg_t0), np.asarray(seg_len)
    ms = np.maximum(np.ceil(lens / step - _SLIVER), 1).astype(int)
    counts = ms + 1
    ends = np.cumsum(counts) - 1
    jumps_at = ends[:-1]
    grid = np.arange(ms.max() + 1) * step
    taus = np.concatenate([grid[: m + 1] for m in ms.tolist()])
    taus[ends] = lens
    origin = np.repeat(t0s, counts)
    times = origin + taus
    modes = list(dict.fromkeys(seg_mode))
    codes = np.array([modes.index(md) for md in seg_mode])
    if switched:
        jR = np.broadcast_to(np.eye(n)[:, :, None], (n, n, len(jumps_at)))
        js = np.zeros((n, len(jumps_at)))
    else:
        jR, js, jCz, jzs = _jump_maps(sys, controller, picks, thetas, wds)

    # 8 MiB taken and given back, more than a chunk's tables up to n = 8 and
    # a run's mesh arrays: glibc raises its mmap and trim thresholds to the
    # largest mapped block freed, so the arrays of either march come from a
    # heap it no longer trims and re-faults on every run.
    np.empty(1 << 23, np.uint8)

    # March: from one table per mode when the continuous input is constant
    # on the run's points and cell midpoints and the tables, over each mode's
    # longest segment, hold at most half of the run's maps, so that a table
    # serves two segments on average; else chunk by chunk along the flat axis.
    qc = mode_mats(sys, modes[0])[3].shape[0]
    out = np.empty((len(times), n + qc))
    states, zc = out[:, :n], out[:, n:]
    w = None
    if len(ms) > 1 and 2 * sum(ms[codes == c].max() for c in range(len(modes))) <= ms.sum():
        w = _constant_input(inputs, times)
    axis = None  # the flat axis, made for the flat march and the referee alone
    if w is None or check_step:
        axis = _flat_axis(sys, controller, clamp, inputs, modes, codes, counts, ms, lens, step, taus, origin)
    if w is not None:
        _march_tables(sys, controller, clamp, modes, codes, ms, lens, step, w, jR, js, x0, switched, out)
    else:
        _march_flat(axis, jR, js, jumps_at, x0, switched, states, zc)

    # Half-step referee over the marched states.  Its quarter points and two
    # half-step tables more than double the working set per map, so it takes
    # a quarter of a chunk at a time; the march itself never depends on it.
    worst_lt = 0.0
    if check_step:
        for a in range(0, len(axis.widths), _CHUNK // 4):
            b = min(a + _CHUNK // 4, len(axis.widths))
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
        times=times,
        states=states,
        zc=zc,
        jump_times=t0s[1:],
        jump_count=np.repeat(np.arange(len(ms)), counts),
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
