"""Hybrid trajectory simulation, dwell-time sequence and input generation,
hybrid sup-norm bookkeeping, and Monte-Carlo gain lower bounds.

The flow between jumps is linear in the state, so the classical fixed-step
RK4 update is an affine map x -> R x + s per mesh cell, and a jump is an
affine map too.  A run first draws its whole schedule (dwells, meshes,
modes, jump maps and K_d) and groups its segments by shape: mode, cell
count and width.

When the shapes repeat and the segments of each shape see one continuous
input on their mesh, as under a constant dwell with a constant input,
where the impulsive system is periodic and every segment has the same
transition Phi(T), each shape gets one table (`_flow_tables`): the
transition and the forced response from a segment's start to each of its
points, and the outputs there.  The segment starts are marched through the
jumps by a prefix scan over the segments, and every state and output of
the run is filled from its segment's start by one batched product per
shape.

Otherwise, as under a random dwell or a time-varying input, the run lays
the mesh points of all its segments on one flat axis, where the map
between consecutive points is an RK4 cell or, at a segment's end, the
jump.  The march takes this axis in chunks of _CHUNK maps: a chunk's mesh
data are evaluated in one vectorized pass per mode, its maps are built at
once as component-major (n, n, L) and (n, L) tables, so each batched 2x2
product is a few vector operations, and they are composed by a two-level
log-doubling prefix scan (Blelloch 1990), within blocks of 32 cells and
then over the block ends.  The tables hold each map as one (n, n+1) block
[P | q]; the in-block ones are block-inner-major, (n, n+1, 32, L/32), so
that every doubling step is one batched product over contiguous slabs, and
they live in buffers allocated once per run.

Either way no Python loop runs over cells, blocks or segments; only the
schedule draw and its grouping are per segment.  The half-step referee
reads the marched states afterwards, so the states never depend on
whether it runs.
"""

from __future__ import annotations

import math
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


def _mm(A: np.ndarray, B: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Cellwise products of component-major matrix stacks: (r, k, ...) times (k, c, ...) is (r, c, ...)."""
    return np.einsum("ik...,kj...->ij...", A, B, out=out)


def _mv(A: np.ndarray, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Cellwise products of a component-major matrix stack (r, k, ...) and vectors (k, ...)."""
    return np.einsum("ik...,k...->i...", A, x, out=out)


def _rk4_stage(A: np.ndarray, b: np.ndarray, start: slice, mid: slice, end: slice, h, out=(None,) * 4):
    """Classical RK4 step of x' = A x + b as an affine map x -> R x + s, per cell.

    A (n, n, len) and b (n, len) hold the data on a mesh; the slices pick the
    start, midpoint and end of each of m cells, whose widths h are one float
    or an (m,) array.  R is (n, n, m) and s (n, m); b None builds R alone
    and s is None.  `out`, when given, is the arrays R, s are written to,
    then one scratch array of each shape.
    """
    A1, A2, A4 = A[..., start], A[..., mid], A[..., end]
    # M2 = A2 + h/2 A2 A1, M3 = A2 + h/2 A2 M2, M4 = A4 + h A4 M3 and
    # R = I + h/6 (A1 + 2 M2 + 2 M3 + M4), evaluated in place: the same
    # floating-point operations in the same order, with fewer temporaries;
    # likewise v2, v3, v4 and s = h/6 (b1 + 2 v2 + 2 v3 + v4)
    R_out, s_out, M3_out, v3_out = out
    M2 = _mm(A2, A1, out=R_out)
    M2 *= 0.5 * h
    M2 += A2
    M3 = _mm(A2, M2, out=M3_out)
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
    v2 = _mv(A2, b1, out=s_out)
    v2 *= 0.5 * h
    v2 += b2
    v3 = _mv(A2, v2, out=v3_out)
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


def _buffers(n: int, m: int) -> list:
    """Flat buffers for the tables of `_block_prefix` over up to m maps of
    size n: two for the in-block tables, then two for the block-end ones."""
    B = min(_BLOCK, m)
    nb = -(-m // B)
    return [np.empty(size) for size in (n * (n + 1) * B * nb,) * 2 + (n * (n + 1) * nb,) * 2]


def _view(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading entries of the flat buffer `buf` as a C-contiguous array of `shape`."""
    return buf[: math.prod(shape)].reshape(shape)


def _block_prefix(R: np.ndarray, s: Optional[np.ndarray], buffers: Optional[list] = None):
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
    P alone, (n, n, B, nb) and (n, n, nb-1).  The tables are views into
    `buffers` (from `_buffers`, for m maps or more), which a march reuses
    chunk after chunk; without them they are allocated for this call.  R
    and s may lie in the first buffer: they are copied into the second
    before the first is written.
    """
    n, m = R.shape[1:]
    B = min(_BLOCK, m)
    nb, full = -(-m // B), m // B
    t = m - full * B  # cells of a last, partial block
    cols = n + (s is not None)
    shapes = [(n, cols, B, nb)] * 2 + [(n, cols, nb - 1)] * 2
    T, T2, U, U2 = map(_view, buffers, shapes) if buffers else map(np.empty, shapes)
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


def _flow_tables(sys, controller, mode, clamp, taus: np.ndarray, w: Optional[np.ndarray] = None):
    """The flow across the uniform grid `taus`, integrated by the march's RK4
    maps and prefix scan: Phi(tau_i, tau_0) is Phi[..., i] (n, n, len).
    With w, the continuous input on the grid's points and then its cell
    midpoints, also the forced response r (n, len) from r(tau_0) = 0 and the
    output terms C (+D K_c) (q, n, len) and F w (q, len) on the points, as
    `_fields` gives them; without it nothing forced is evaluated or scanned,
    and these three are None."""
    m = len(taus) - 1
    h = taus[1] - taus[0] if m else 0.0
    grid = np.concatenate([taus, taus[:-1] + 0.5 * h])
    A, b, C, z = _fields(sys, controller, mode, clamp, grid, w, m + 1)
    n = sys.n
    if m < 1:
        return np.eye(n)[:, :, None], None if w is None else np.zeros((n, 1)), C, z
    R, s = _rk4_stage(A, b, slice(0, m), slice(m + 1, 2 * m + 1), slice(1, m + 1), h)
    tables = _block_prefix(R, s)
    return _scan(tables, np.eye(n), m, forced=False), None if w is None else _scan(tables, np.zeros(n), m), C, z


@dataclass
class _FlatAxis:
    """The mesh points of all the segments of one run on one axis.

    Point i has timer value taus[i] and time origin[i] + taus[i], and
    codes[i] (None: all alike) indexes `modes`; map i takes point i to point
    i+1 and is an RK4 cell of width widths[i], or at a segment's last point
    the jump, a cell of zero width whose mesh collapses onto that point.
    The methods work on the stretch of points a..b, maps a..b-1.  `buffers`
    holds the march's tables (see `_buffers`) from the first `maps` call on,
    made once that call's mesh data exist so that a one-chunk run never
    holds both."""

    sys: Union[ImpulsiveSystem, SwitchedSystem]
    controller: object
    clamp: Optional[float]
    inputs: InputSignal
    modes: list
    codes: Optional[np.ndarray]
    taus: np.ndarray
    origin: np.ndarray
    widths: np.ndarray
    buffers: list = field(default_factory=list)

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
        points.  R and s lie in the first of `buffers`, as one table [R | s]."""
        A, bw, C, z = self.fields(a, b, quarters=False)
        L, n = b - a, len(bw)
        if not self.buffers:
            self.buffers = _buffers(n, min(_CHUNK, len(self.widths)))
        T, T2 = (_view(buf, (n, n + 1, L)) for buf in self.buffers[:2])
        R, s = _rk4_stage(A, bw, slice(0, L), slice(L + 1, 2 * L + 1), slice(1, L + 1), self.widths[a:b],
                          (T[:, :n], T[:, n], T2[:, :n], T2[:, n]))
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


def _segment_shapes(inputs: InputSignal, seg_mode: list, seg_m: list, hs: np.ndarray, t0s: np.ndarray):
    """The run's segments grouped by shape: mode, cell count m and width h,
    with the same continuous input on every segment's mesh.  Returns (mode,
    m, h, the input on the mesh, the segments) per shape, or None unless the
    shapes repeat: each fits in one chunk, and their tables hold at most half
    of the run's maps, so a table serves two segments on average.  The input
    is evaluated only when mode, m and h alone repeat that much, so a random
    dwell evaluates nothing here; a group whose segments see different
    inputs gives None too."""
    groups: dict = {}
    for k, key in enumerate(zip(seg_mode, seg_m, hs.tolist())):
        groups.setdefault(key, []).append(k)
    if max(seg_m) > _CHUNK or 2 * sum(m for _, m, _ in groups) > sum(seg_m):
        return None
    shapes = []
    for (mode, m, h), ks in groups.items():
        taus = np.arange(m + 1) * h
        t = t0s[ks][:, None] + np.concatenate([taus, taus[:-1] + 0.5 * h])
        w = np.asarray(np.broadcast_to(inputs.wc(t.ravel()), (t.size,)), dtype=float).reshape(t.shape)
        if not (w == w[0]).all():  # a time-varying input
            return None
        shapes.append((mode, m, h, w[0].copy(), np.asarray(ks)))
    return shapes


def _march_shapes(sys, controller, clamp, shapes: list, jR, js, x0: np.ndarray, firsts: np.ndarray, switched: bool,
                  states: np.ndarray, zc: np.ndarray) -> None:
    """Fill the states (npts, n) and z_c (npts, q) of a run whose segments
    repeat their shapes (see `_segment_shapes`); firsts are the segments'
    first points.

    One table per shape maps a segment's start x_k to every point j of the
    segment, the state by [Phi_j | r_j] and z_c by [C_j Phi_j | C_j r_j + z_j],
    from `_flow_tables`.  The segment starts follow x_{k+1} = J_k (Phi_m x_k
    + r_m) + s_k, the jump maps J_k, s_k as in the flat march, by the prefix
    scan over the segments; then each shape fills the states of all its
    segments with one matrix product, and their z_c with another."""
    n = sys.n
    tables, of = [], np.empty(len(firsts), dtype=int)
    for i, (mode, m, h, w, ks) in enumerate(shapes):
        Phi, r, C, z = _flow_tables(sys, controller, mode, clamp, np.arange(m + 1) * h, w)
        top = np.concatenate([Phi, r[:, None]], axis=1)  # [Phi_j | r_j]
        bottom = _mm(C, top)
        bottom[:, n] += z
        tables.append(np.concatenate([top, bottom]))
        of[ks] = i
    ends = np.stack([table[:n, :, -1] for table in tables], axis=-1)[..., of[:-1]]
    maps = _mm(jR, ends)
    maps[:, n] += js
    starts = _scan(_block_prefix(maps[:, :n], maps[:, n]), x0, len(firsts) - 1)
    for (_, m, _, _, ks), table in zip(shapes, tables):
        x = starts[:, ks].T
        stretch = ks[-1] - ks[0] == len(ks) - 1  # consecutive segments: their points are one stretch
        rows = (slice(firsts[ks[0]], firsts[ks[0]] + len(ks) * (m + 1)) if stretch
                else (firsts[ks][:, None] + np.arange(m + 1)).ravel())
        for out, part in ((states, table[:n]), (zc, table[n:])):
            shape = (len(ks), (m + 1) * len(part))  # the points of a segment, then their components
            # einsum, not a BLAS product: BLAS would allocate work buffers of its own
            vals = np.einsum("kl,lj->kj", x, part[:, :n].transpose(1, 2, 0).reshape(n, -1),
                             out=out[rows].reshape(shape) if stretch else None)
            vals += part[:, n].T.ravel()
            if not stretch:
                out[rows] = vals.reshape(-1, len(part))
    if switched:  # the state is continuous: a post-jump state is the pre-jump one
        states[firsts[1:]] = states[firsts[1:] - 1]
    if not np.isfinite(states).all():
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
    chunk from the state the previous chunk ended in, the prefix tables of
    every chunk in the same buffers; these are freed on return, before the
    referee's own working set is built."""
    x = x0
    for a in range(0, len(axis.widths), _CHUNK):
        b = min(a + _CHUNK, len(axis.widths))
        R, s, C, z = axis.maps(a, b)
        lo, hi = np.searchsorted(jumps_at, [a, b])
        at = jumps_at[lo:hi] - a
        R[..., at], s[..., at] = jR[..., lo:hi], js[..., lo:hi]
        xs = _scan(_block_prefix(R, s, axis.buffers), x, b - a)
        if switched:  # the state is continuous: copy it rather than round it through the identity
            xs[:, at + 1] = xs[:, at]
        if not np.isfinite(xs).all():
            raise StepTooLarge("state overflow while integrating; reduce the step")
        # outputs on the mesh (pre-jump convention at a segment's right end)
        states[a : b + 1] = xs.T
        zc[a : b + 1] = (_mv(C, xs) + z).T
        x = xs[:, -1]
    axis.buffers = []


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

    Segments of one shape (mode, cells and width) share one transition
    table when the shapes repeat and each shape's segments see one
    continuous input, as under a constant dwell with a constant input;
    otherwise the run is marched along one flat axis of all its mesh points
    (see the module docstring).  The two agree to rounding; a random dwell,
    whose segments differ, and a time-varying input take the flat march.
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

    # March: from one table per segment shape when the shapes repeat, else
    # chunk by chunk along the flat axis.
    qc = mode_mats(sys, modes[0])[3].shape[0]
    states = np.empty((len(seg_of), n))
    zc = np.empty((len(seg_of), qc))
    shapes = _segment_shapes(inputs, seg_mode, seg_m, hs, t0s)
    if shapes is not None:
        _march_shapes(sys, controller, clamp, shapes, jR, js, x0, firsts, switched, states, zc)
    else:
        _march_flat(axis, jR, js, jumps_at, x0, switched, states, zc)

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
