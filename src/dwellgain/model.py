"""System data model: timer-dependent impulsive systems, switched systems,
dwell-time families, positivity checking, adjoint construction, JSON I/O.

A flow, a jump map and a switched system's mode share one shape rule for
their six matrices: every constructor, `validate`, `lift_switched` and
`adjoint` read them by `_six` and hold them to it by `_check_six`."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDomain,
    NotPositive,
    ParseError,
    Unsupported,
)
from .poly import Poly, decide_nonneg, falsify_nonneg

__all__ = [
    "PolyMatrix",
    "JumpMap",
    "ImpulsiveSystem",
    "SwitchedSystem",
    "DwellTimeSpec",
    "PositivityReport",
    "check_positive",
    "require_positive",
    "require_positive_design",
    "read_field",
    "lift_switched",
    "mode_mats",
    "adjoint",
    "load_system",
    "save_system",
    "read_json",
    "write_json",
]


class PolyMatrix:
    """Matrix of univariate polynomials, stored as an (r, c, d+1) coefficient array."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: np.ndarray):
        arr = np.asarray(coeffs, dtype=float)
        if arr.ndim != 3:
            raise DimensionMismatch(f"PolyMatrix needs a 3-D coefficient array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix coefficients must be finite")
        # canonical: drop all-zero leading-degree slabs
        while arr.shape[2] > 1 and not arr[:, :, -1].any():
            arr = arr[:, :, :-1]
        self.coeffs = arr

    @staticmethod
    def from_const(mat) -> "PolyMatrix":
        m = np.asarray(mat, dtype=float)
        if m.ndim != 2:
            raise DimensionMismatch(f"expected 2-D matrix, got shape {m.shape}")
        return PolyMatrix(m[:, :, None])

    @staticmethod
    def from_entries(entries: Sequence[Sequence[Sequence[float]]]) -> "PolyMatrix":
        """Build from nested lists: entries[i][j] is an ascending coefficient list."""
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        dmax = 1
        for row in entries:
            if len(row) != cols:
                raise DimensionMismatch("ragged entry rows")
            for e in row:
                dmax = max(dmax, len(list(e)))
        arr = np.zeros((rows, cols, dmax))
        for i, row in enumerate(entries):
            for j, e in enumerate(row):
                cs = [float(c) for c in e]
                arr[i, j, : len(cs)] = cs
        return PolyMatrix(arr)

    @staticmethod
    def zeros(r: int, c: int) -> "PolyMatrix":
        return PolyMatrix(np.zeros((r, c, 1)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.coeffs.shape[0], self.coeffs.shape[1]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[2] - 1

    @property
    def is_constant(self) -> bool:
        return self.degree == 0

    def const(self) -> np.ndarray:
        if not self.is_constant:
            raise DimensionMismatch("matrix is timer-dependent")
        return self.coeffs[:, :, 0].copy()

    def entry(self, i: int, j: int) -> Poly:
        return Poly(tuple(self.coeffs[i, j]))

    def __call__(self, tau: float, clamp: Optional[float] = None) -> np.ndarray:
        return self.eval_mesh(np.array([tau], dtype=float), clamp)[..., 0]

    def eval_mesh(self, taus: np.ndarray, clamp: Optional[float] = None) -> np.ndarray:
        """Evaluate on a mesh as a C-contiguous (r, c, len(taus)) array, the
        component-major layout every batched product runs on."""
        t = np.minimum(taus, clamp) if clamp is not None else np.asarray(taus, dtype=float)
        cs = self.coeffs.transpose(2, 0, 1)[..., None]  # cs[k] is the degree-k slab
        out = np.empty(self.shape + (len(t),))
        out[...] = cs[-1]
        for c in cs[-2::-1]:  # in place: one mesh-sized array however high the degree
            out *= t
            out += c
        return out

    @property
    def T(self) -> "PolyMatrix":
        return PolyMatrix(self.coeffs.transpose(1, 0, 2))

    def deriv(self) -> "PolyMatrix":
        d = self.coeffs.shape[2]
        if d == 1:
            return PolyMatrix.zeros(*self.shape)
        ks = np.arange(1, d)
        return PolyMatrix(self.coeffs[:, :, 1:] * ks[None, None, :])

    def to_json(self) -> list:
        r, c = self.shape
        return [[self.entry(i, j).to_json() for j in range(c)] for i in range(r)]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.coeffs.shape == other.coeffs.shape
            and np.array_equal(self.coeffs, other.coeffs)
        )


def _is_empty_listing(data) -> bool:
    if isinstance(data, (list, tuple)):
        return len(data) == 0 or all(isinstance(r, (list, tuple)) and len(r) == 0 for r in data)
    if isinstance(data, np.ndarray):
        return data.size == 0
    return False


def _as_polymatrix(data, rows: Optional[int] = None, cols: Optional[int] = None) -> PolyMatrix:
    """Coerce constant arrays / nested coefficient lists / PolyMatrix; None means zeros."""
    if data is None or _is_empty_listing(data):
        if rows is None or cols is None:
            raise DimensionMismatch("cannot infer shape of omitted matrix")
        return PolyMatrix.zeros(rows, cols)
    if isinstance(data, PolyMatrix):
        return data
    arr = np.asarray(data, dtype=object)
    if arr.ndim == 2 and all(np.isscalar(x) or isinstance(x, (int, float)) for x in arr.ravel()):
        return PolyMatrix.from_const(np.asarray(data, dtype=float))
    if arr.ndim == 0:
        return PolyMatrix.from_const([[float(data)]])
    return PolyMatrix.from_entries(data)


def _as_matrix(data, rows: Optional[int] = None, cols: Optional[int] = None) -> np.ndarray:
    if data is None or _is_empty_listing(data):
        if rows is None or cols is None:
            raise DimensionMismatch("cannot infer shape of omitted matrix")
        return np.zeros((rows, cols))
    m = np.asarray(data, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


# the names of the six matrices of a flow and of a jump map; a mode's are "ABECDF"
_CONT_KEYS = ("A", "Bc", "Ec", "Cc", "Dc", "Fc")
_DISC_KEYS = ("J", "Bd", "Ed", "Cd", "Dd", "Fd")


def _six(coerce, data: dict, key) -> tuple:
    """The six matrices (A, B, E, C, D, F) of a flow, a jump map or a mode,
    data[key[i]] each, through coerce (`_as_polymatrix` or `_as_matrix`).
    An omitted B, E, C, D or F is the zero matrix of the shape A's rows, B's
    and E's columns and C's rows fix; a missing A is a KeyError."""
    a, b, e, c, d, f = key
    A = coerce(data[a])
    n = A.shape[0]
    B = coerce(data.get(b), n, 0)
    E = coerce(data.get(e), n, 0)
    C = coerce(data.get(c), 0, n)
    q = C.shape[0]
    return A, B, E, C, coerce(data.get(d), q, B.shape[1]), coerce(data.get(f), q, E.shape[1])


def _check_six(names, six, dims) -> None:
    """The one shape rule: with dims = (n, m, p, q), the six matrices (A, B,
    E, C, D, F) are (n, n), (n, m), (n, p), (q, n), (q, m) and (q, p).
    DimensionMismatch names the first that is not."""
    n, m, p, q = dims
    for name, mat, want in zip(names, six, ((n, n), (n, m), (n, p), (q, n), (q, m), (q, p))):
        if mat.shape != want:
            raise DimensionMismatch(f"{name}: expected shape {want}, got {mat.shape}")


@dataclass(frozen=True)
class JumpMap:
    """One discrete transition: x+ = J x + Bd ud + Ed wd, zd = Cd x + Dd ud + Fd wd."""

    J: np.ndarray
    Bd: np.ndarray
    Ed: np.ndarray
    Cd: np.ndarray
    Dd: np.ndarray
    Fd: np.ndarray
    tag: Optional[tuple[int, int]] = None  # (source mode, target mode) for lifted systems


@dataclass(frozen=True)
class ImpulsiveSystem:
    """Timer-dependent linear impulsive system with one or more jump maps."""

    A: PolyMatrix
    Bc: PolyMatrix
    Ec: PolyMatrix
    Cc: PolyMatrix
    Dc: PolyMatrix
    Fc: PolyMatrix
    jumps: tuple[JumpMap, ...]
    time_reversed: bool = False  # adjoint semantics run backward in time

    @staticmethod
    def from_arrays(
        A,
        J,
        Ec=None,
        Cc=None,
        Fc=None,
        Ed=None,
        Cd=None,
        Fd=None,
        Bc=None,
        Dc=None,
        Bd=None,
        Dd=None,
        tag=None,
        extra_jumps: Sequence[dict] = (),
    ) -> "ImpulsiveSystem":
        """The first jump map is given by J, ..., tag; each further one by a
        dict with the same keys, J required."""
        flow = _six(_as_polymatrix, {"A": A, "Bc": Bc, "Ec": Ec, "Cc": Cc, "Dc": Dc, "Fc": Fc}, _CONT_KEYS)
        first = {"J": J, "Bd": Bd, "Ed": Ed, "Cd": Cd, "Dd": Dd, "Fd": Fd, "tag": tag}
        jumps = tuple(JumpMap(*_six(_as_matrix, jm, _DISC_KEYS), None if jm.get("tag") is None else tuple(jm["tag"]))
                      for jm in (first, *extra_jumps))
        sys = ImpulsiveSystem(*flow, jumps)
        sys.validate()
        return sys

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def mc(self) -> int:
        return self.Bc.shape[1]

    @property
    def pc(self) -> int:
        return self.Ec.shape[1]

    @property
    def qc(self) -> int:
        return self.Cc.shape[0]

    @property
    def md(self) -> int:
        return self.jumps[0].Bd.shape[1]

    @property
    def pd(self) -> int:
        return self.jumps[0].Ed.shape[1]

    @property
    def qd(self) -> int:
        return self.jumps[0].Cd.shape[0]

    @property
    def jump(self) -> JumpMap:
        return self.jumps[0]

    def validate(self) -> None:
        """The flow, then each jump map against the first one's channels, by `_check_six`."""
        n = self.n
        _check_six(_CONT_KEYS, mode_mats(self), (n, self.mc, self.pc, self.qc))
        dims = (n, self.md, self.pd, self.qd)
        for k, jm in enumerate(self.jumps):
            _check_six([f"jumps[{k}].{x}" for x in _DISC_KEYS], (jm.J, jm.Bd, jm.Ed, jm.Cd, jm.Dd, jm.Fd), dims)

    def is_constant(self) -> bool:
        return all(m.is_constant for m in mode_mats(self))


@dataclass(frozen=True)
class SwitchedSystem:
    """Timer-dependent switched system: N modes sharing dimensions (n, m, p, q)."""

    modes: tuple[dict, ...]  # each: A, B, E, C, D, F as PolyMatrix

    @staticmethod
    def from_arrays(modes: Sequence[dict]) -> "SwitchedSystem":
        """Each mode a dict of A, B, E, C, D, F, A required, in the shapes
        mode 0 fixes (`_check_six`)."""
        if len(modes) < 1:
            raise DimensionMismatch("need at least one mode")
        sw = SwitchedSystem(tuple(dict(zip("ABECDF", _six(_as_polymatrix, md, "ABECDF"))) for md in modes))
        dims = (sw.n, sw.m, sw.p, sw.q)
        for k in range(sw.N):
            _check_six([f"modes[{k}].{x}" for x in "ABECDF"], mode_mats(sw, k), dims)
        return sw

    @property
    def N(self) -> int:
        return len(self.modes)

    @property
    def n(self) -> int:
        return self.modes[0]["A"].shape[0]

    @property
    def m(self) -> int:
        return self.modes[0]["B"].shape[1]

    @property
    def p(self) -> int:
        return self.modes[0]["E"].shape[1]

    @property
    def q(self) -> int:
        return self.modes[0]["C"].shape[0]

    def is_constant(self) -> bool:
        return all(m.is_constant for md in self.modes for m in md.values())


def mode_mats(sys: Union[ImpulsiveSystem, SwitchedSystem], mode: Optional[int] = None) -> tuple[PolyMatrix, ...]:
    """The flow and output data (A, B, E, C, D, F) of an impulsive system, or
    of mode `mode` of a switched one, which must be given."""
    if isinstance(sys, SwitchedSystem):
        if mode is None:
            raise Unsupported("the flow data of a switched system need a mode")
        return tuple(sys.modes[mode][key] for key in "ABECDF")
    return (sys.A, sys.Bc, sys.Ec, sys.Cc, sys.Dc, sys.Fc)


@dataclass(frozen=True)
class DwellTimeSpec:
    """Admissible dwell-time family: arbitrary | constant(T) | minimum(T) | range(Tmin, Tmax)."""

    kind: str
    T: Optional[float] = None
    Tmin: Optional[float] = None
    Tmax: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("arbitrary", "constant", "minimum", "range"):
            raise ParseError(f"unknown dwell kind {self.kind!r}")
        if self.kind in ("constant", "minimum"):
            if self.T is None or not (0 < self.T < np.inf):
                raise ParseError(f"{self.kind} dwell-time needs 0 < T < inf, got {self.T}")
        if self.kind == "range":
            ok = (
                self.Tmin is not None
                and self.Tmax is not None
                and 0 < self.Tmin <= self.Tmax < np.inf
            )
            if not ok:
                raise ParseError(f"range dwell-time needs 0 < Tmin <= Tmax < inf, got [{self.Tmin}, {self.Tmax}]")

    @staticmethod
    def arbitrary() -> "DwellTimeSpec":
        return DwellTimeSpec("arbitrary")

    @staticmethod
    def constant(T: float) -> "DwellTimeSpec":
        return DwellTimeSpec("constant", T=float(T))

    @staticmethod
    def minimum(T: float) -> "DwellTimeSpec":
        return DwellTimeSpec("minimum", T=float(T))

    @staticmethod
    def range(Tmin: float, Tmax: float) -> "DwellTimeSpec":
        return DwellTimeSpec("range", Tmin=float(Tmin), Tmax=float(Tmax))

    @staticmethod
    def parse(text: str) -> "DwellTimeSpec":
        parts = text.strip().split(":")
        try:
            if parts[0] == "arbitrary" and len(parts) == 1:
                return DwellTimeSpec.arbitrary()
            if parts[0] == "constant" and len(parts) == 2:
                return DwellTimeSpec.constant(float(parts[1]))
            if parts[0] == "minimum" and len(parts) == 2:
                return DwellTimeSpec.minimum(float(parts[1]))
            if parts[0] == "range" and len(parts) == 3:
                return DwellTimeSpec.range(float(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise ParseError(f"bad dwell spec {text!r}: {exc}") from exc
        raise ParseError(f"bad dwell spec {text!r}")

    def _text(self, num) -> str:
        if self.kind == "arbitrary":
            return "arbitrary"
        if self.kind == "range":
            return f"range:{num(self.Tmin)}:{num(self.Tmax)}"
        return f"{self.kind}:{num(self.T)}"

    def __str__(self) -> str:
        return self._text(lambda x: f"{x:g}")

    def to_json(self) -> str:
        """The text certificate and controller files store: as str(), but a
        time that six significant digits would round is written in full, so
        parse reads back the same floats (0.3 stays "0.3", 1/3 becomes
        "0.3333333333333333")."""
        return self._text(lambda x: f"{x:g}" if float(f"{x:g}") == x else repr(x))

    @property
    def clamp(self) -> Optional[float]:
        """Timer clamp point: matrices are evaluated at min(tau, clamp) when set."""
        return self.T if self.kind == "minimum" else None

    def horizon_tau(self) -> float:
        """Right end of the timer interval the certificates must cover."""
        if self.kind in ("constant", "minimum"):
            return float(self.T)
        if self.kind == "range":
            return float(self.Tmax)
        raise InvalidDomain("arbitrary dwell-time has no timer interval")

    @property
    def timer_end(self) -> float:
        """The end of the timer interval [0, timer_end] of the flow rows: 0
        under arbitrary dwell, where they are point rows, else the horizon."""
        return 0.0 if self.kind == "arbitrary" else self.horizon_tau()

    @property
    def jump_dwells(self) -> tuple[float, float]:
        """The dwells [lo, hi] at which the jump rows hold: [Tmin, Tmax] for a
        range, else the one point timer_end, 0 or T."""
        if self.kind == "range":
            return float(self.Tmin), float(self.Tmax)
        return self.timer_end, self.timer_end


@dataclass
class PositivityReport:
    """Entrywise internal-positivity audit of an impulsive or switched system."""

    positive: bool
    violations: list[tuple[str, tuple[int, int], Optional[float], float]] = field(default_factory=list)
    unverified: list[tuple[str, tuple[int, int]]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.positive


def _check_entry_nonneg(report: PositivityReport, entry: tuple, p: Poly, hi: float):
    """p >= 0 on [0, hi]: a constant by its sign, p with no negative
    coefficient at once, any other p by `poly.decide_nonneg`; only where
    that refuses p does the grid falsifier file it under violations, with its
    witness, or unverified."""
    if p.degree == 0:
        if p.coeffs[0] < 0:
            report.violations.append((*entry, None, p.coeffs[0]))
    elif not all(c >= 0.0 for c in p.coeffs) and not decide_nonneg(p, (0.0, hi))[0]:
        wit = falsify_nonneg(p, (0.0, hi), 10_000)
        if wit is None:
            report.unverified.append(entry)
        else:
            report.violations.append((*entry, wit.tau, wit.value))


def check_positive(sys: Union[ImpulsiveSystem, SwitchedSystem], domain: tuple[float, float]) -> PositivityReport:
    """Audit internal positivity on tau in [0, T]: A Metzler, everything else
    nonnegative, each mode of a switched system.  This is the one positivity
    decision: the analyses (`require_positive`), the designs
    (`require_positive_design`) and `cert.verify` read it too.  `positive`
    only when every entry is proved (`_check_entry_nonneg`).
    """
    lo, hi = float(domain[0]), float(domain[1])
    if hi <= 0 or lo != 0.0:
        raise InvalidDomain(f"domain must be [0, T] with T > 0, got [{lo}, {hi}]")
    return _audit(sys, hi)


def _audit(sys: Union[ImpulsiveSystem, SwitchedSystem], hi: float, names=None) -> PositivityReport:
    """check_positive's report on [0, hi], of the matrices whose name, or own
    name after any "modes[k]." or "jumps[k]." prefix, is in names when given."""
    if isinstance(sys, SwitchedSystem):
        mats = {f"modes[{k}].{x}": md[x] for k, md in enumerate(sys.modes) for x in "AECF"}
    else:
        mats = {"A": sys.A, "Ec": sys.Ec, "Cc": sys.Cc, "Fc": sys.Fc}
        mats.update({f"jumps[{k}].{x}": PolyMatrix.from_const(getattr(jm, x))
                     for k, jm in enumerate(sys.jumps) for x in ("J", "Ed", "Cd", "Fd")})
    report = PositivityReport(positive=True)
    for name, mat in mats.items():
        if names is not None and name not in names and name.rsplit(".", 1)[-1] not in names:
            continue
        r, c = mat.shape
        for i in range(r):
            for j in range(c):
                if i != j or not name.endswith("A"):  # A is read off its diagonal only
                    _check_entry_nonneg(report, (name, (i, j)), mat.entry(i, j), hi)
    report.positive = not report.violations and not report.unverified
    return report


def lift_switched(sw: SwitchedSystem) -> ImpulsiveSystem:
    """Rewrite an N-mode switched system as an Nn-state impulsive system whose
    jump maps select the active diagonal block."""
    if sw.N < 2:
        raise DimensionMismatch("lifting requires at least two modes")
    N, n = sw.N, sw.n
    dmax = 1 + max(mat.degree for i in range(N) for mat in mode_mats(sw, i))

    def lifted(key):
        """Mode i's matrix `key` in block row i: in block column i, or in the
        one column block of E and F, which every mode's input shares."""
        rows, cols = sw.modes[0][key].shape
        stacked = key in "EF"
        arr = np.zeros((N * rows, (1 if stacked else N) * cols, dmax))
        for i, md in enumerate(sw.modes):
            c = md[key].coeffs
            j = 0 if stacked else i
            arr[i * rows : (i + 1) * rows, j * cols : (j + 1) * cols, : c.shape[2]] = c
        return PolyMatrix(arr)

    maps = []  # the selector e_dst e_src' kron I of each ordered pair of modes
    for dst in range(N):
        for src in range(N):
            if dst != src:
                J = np.zeros((N * n, N * n))
                J[dst * n : (dst + 1) * n, src * n : (src + 1) * n] = np.eye(n)
                maps.append({"J": J, "tag": (src, dst)})
    A, B, E, C, D, F = map(lifted, "ABECDF")
    first, *extra = maps
    return ImpulsiveSystem.from_arrays(A, Bc=B, Ec=E, Cc=C, Dc=D, Fc=F, **first, extra_jumps=extra)


def adjoint(sys: ImpulsiveSystem) -> ImpulsiveSystem:
    """Adjoint realization: transposed matrices with input/output roles swapped.

    Semantics run backward in time (recorded in `time_reversed`); defined only
    for single-jump systems without control channels.
    """
    if len(sys.jumps) != 1:
        raise Unsupported("adjoint is defined only for single-jump-map systems")
    if sys.mc != 0 or sys.md != 0:
        raise Unsupported("adjoint is defined for systems without control channels")
    jm = sys.jump
    out = ImpulsiveSystem.from_arrays(sys.A.T, jm.J.T.copy(), Ec=sys.Cc.T, Cc=sys.Ec.T, Fc=sys.Fc.T,
                                      Ed=jm.Cd.T.copy(), Cd=jm.Ed.T.copy(), Fd=jm.Fd.T.copy())
    return replace(out, time_reversed=not sys.time_reversed)


def require_forward_time(sys, operation: str) -> None:
    """Refuse a time-reversed system: `operation` would read it as running
    forward in time.  Only analyze_lti, whose LTI gains are the same in either
    direction, accepts the adjoint."""
    if getattr(sys, "time_reversed", False):
        raise Unsupported(f"{operation} is not defined for a time-reversed (adjoint) system")


def _refuse(report: PositivityReport, tau_end: float) -> None:
    if not report:
        bad = [f"{name}[{i}, {j}]" for name, (i, j), *_ in report.violations]
        bad += [f"{name}[{i}, {j}] (unverified)" for name, (i, j) in report.unverified]
        raise NotPositive(f"not positive {f'on [0, {tau_end:g}]' if tau_end else 'at tau = 0'}: {', '.join(bad)}")


def require_positive(sys: Union[ImpulsiveSystem, SwitchedSystem], tau_end: float, names=None) -> None:
    """Raise NotPositive, naming the entries, for a system that
    `check_positive` does not prove positive on [0, tau_end]: the theorems
    hold for positive systems only.  tau_end = 0 (arbitrary dwell, LTI) comes
    with constant matrices, whose report no domain changes.  `names`, when
    given, are the only matrices checked (see `_audit`): those an analysis
    reads."""
    _refuse(_audit(sys, tau_end or 1.0, names), tau_end)


def require_positive_design(sys: Union[ImpulsiveSystem, SwitchedSystem], tau_end: float) -> None:
    """As require_positive, for the plant of a state-feedback design: the
    matrices no feedback changes, E and F, A and C with no continuous input,
    J and C_d with no discrete one.  The design's positivity rows impose the
    rest: A + B K_c Metzler, C + D K_c, J + B_d K_d and C_d + D_d K_d >= 0."""
    mc, md = (sys.m, 0) if isinstance(sys, SwitchedSystem) else (sys.mc, sys.md)
    require_positive(sys, tau_end, ("Ec", "Fc", "Ed", "Fd", "E", "F") + ("A", "Cc", "C") * (not mc)
                     + ("J", "Cd") * (not md))


# --- JSON round-trip ---------------------------------------------------------

def _jump_to_json(jm: JumpMap) -> dict:
    out = {k: getattr(jm, k).tolist() for k in _DISC_KEYS if getattr(jm, k).size}
    if jm.tag is not None:
        out["tag"] = list(jm.tag)
    return out


def system_to_json(sys: Union[ImpulsiveSystem, SwitchedSystem]) -> dict:
    if isinstance(sys, SwitchedSystem):
        return {
            "kind": "switched",
            "n": sys.n,
            "m": sys.m,
            "p": sys.p,
            "q": sys.q,
            "modes": [
                {k: md[k].to_json() for k in ("A", "B", "E", "C", "D", "F") if md[k].coeffs.size}
                for md in sys.modes
            ],
        }
    data = {
        "kind": "impulsive",
        "n": sys.n,
        "mc": sys.mc,
        "pc": sys.pc,
        "md": sys.md,
        "pd": sys.pd,
        "qc": sys.qc,
        "qd": sys.qd,
        "time_reversed": sys.time_reversed,
    }
    for k in _CONT_KEYS:
        m = getattr(sys, k)
        if m.coeffs.size:
            data[k] = m.to_json()
    if len(sys.jumps) == 1:
        data.update(_jump_to_json(sys.jump))
    else:
        data["jump_maps"] = [_jump_to_json(jm) for jm in sys.jumps]
    return data


def read_field(data: dict, key: str, decode):
    """decode(data[key]) for a file's decoder.  A missing key stays a KeyError,
    which the decoder names with its kind of file; a value of the wrong type
    or shape (a TypeError, ValueError, IndexError or AttributeError of decode)
    is a ParseError naming the field."""
    value = data[key]
    try:
        return decode(value)
    except (TypeError, ValueError, IndexError, AttributeError) as exc:
        raise ParseError(f"bad field {key!r}: {exc}") from exc


def text(value) -> str:
    """value for a file's decoder when it is a string, else a TypeError,
    which read_field names with its field."""
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def integer(value) -> int:
    """value for a file's decoder when it is a JSON integer, else a
    TypeError, which read_field names with its field: 3.7, true and "4" are
    not integers."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def finite_float(value) -> float:
    """float(value) for a file's decoder: NaN and the infinities are a
    ValueError, which read_field names with its field."""
    x = float(value)
    if not np.isfinite(x):
        raise ValueError(f"{x} is not finite")
    return x


def _tag(value) -> tuple[int, int]:
    """A jump map's tag for a file's decoder: a list of two integers, its
    source and target modes, else a TypeError or ValueError."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{value!r} is not a list of two modes")
    return integer(value[0]), integer(value[1])


def _jumps_from_json(maps: list) -> list[dict]:
    """The jump maps of a system file, one at least, as from_arrays' keywords."""
    if not maps:
        raise ValueError("a system needs one jump map at least")
    matrix = lambda v: v if _is_empty_listing(v) else _as_matrix(v)  # an empty matrix stands for zeros
    return [{k: read_field(jm, k, _tag if k == "tag" else matrix) for k in (*_DISC_KEYS, "tag")
             if k == "J" or jm.get(k) is not None} for jm in maps]


def system_from_json(data: dict) -> Union[ImpulsiveSystem, SwitchedSystem]:
    """The system of a file; a declared dimension (n, m, p, q of a switched
    file, n, mc, pc, md, pd, qc, qd of an impulsive one) is a JSON integer
    (`integer`), and one that the matrices contradict is a DimensionMismatch."""
    try:
        if data.get("kind") == "switched" or "modes" in data:
            sys = read_field(data, "modes", lambda modes: SwitchedSystem.from_arrays(
                [{k: read_field(md, k, PolyMatrix.from_entries) for k in "ABECDF" if k in md} for md in modes]))
            dims = ("n", "m", "p", "q")
        else:
            cont = {k: read_field(data, k, PolyMatrix.from_entries) for k in _CONT_KEYS if k in data}
            A = cont.pop("A")
            maps = read_field(data, "jump_maps", _jumps_from_json) if "jump_maps" in data else _jumps_from_json([data])
            first, *extra = maps
            sys = ImpulsiveSystem.from_arrays(A, **cont, **first, extra_jumps=extra)
            if data.get("time_reversed"):
                sys = replace(sys, time_reversed=True)
            dims = ("n", "mc", "pc", "md", "pd", "qc", "qd")
        for k in dims:
            if k in data and getattr(sys, k) != read_field(data, k, integer):
                raise DimensionMismatch(f"declared {k}={data[k]} but matrices give {getattr(sys, k)}")
        return sys
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r} in system file") from exc


def write_json(data: dict, path: str) -> None:
    """The one writer of every dwellgain JSON file: sorted keys, indent 1 and
    a final newline, so that equal data give equal bytes."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_json(path: str, decode):
    """The one reader of every dwellgain JSON file: decode(the object in
    `path`).  A malformed file, a top level that is not an object and a
    ParseError of decode raise ParseError naming the file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: the top level is a JSON {type(data).__name__}, not an object")
    try:
        return decode(data)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def polys_to_json(x):
    """A Poly, or nested lists of them, as nested ascending coefficient lists."""
    return x.to_json() if isinstance(x, Poly) else [polys_to_json(v) for v in x]


def polys_from_json(data, depth: int):
    """The inverse of polys_to_json for `depth` levels of lists around each
    Poly, whose coefficients must be finite."""
    return Poly.from_json(map(finite_float, data)) if depth == 0 else [polys_from_json(v, depth - 1) for v in data]


def save_system(sys: Union[ImpulsiveSystem, SwitchedSystem], path: str) -> None:
    write_json(system_to_json(sys), path)


def load_system(path: str) -> Union[ImpulsiveSystem, SwitchedSystem]:
    return read_json(path, system_from_json)
