"""System data model: timer-dependent impulsive systems, switched systems,
dwell-time families, positivity checking, adjoint construction, JSON I/O."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDomain,
    NoCertificate,
    NotPositive,
    ParseError,
    Unsupported,
)
from .poly import Poly, certify_nonneg, falsify_nonneg

__all__ = [
    "PolyMatrix",
    "JumpMap",
    "ImpulsiveSystem",
    "SwitchedSystem",
    "DwellTimeSpec",
    "PositivityReport",
    "check_positive",
    "require_positive",
    "lift_switched",
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
        t = min(tau, clamp) if clamp is not None else tau
        out = self.coeffs[:, :, -1].copy()
        for k in range(self.coeffs.shape[2] - 2, -1, -1):
            out = out * t + self.coeffs[:, :, k]
        return out

    def eval_mesh(self, taus: np.ndarray, clamp: Optional[float] = None) -> np.ndarray:
        """Evaluate on a mesh as a C-contiguous (r, c, len(taus)) array, the
        component-major layout every batched product runs on."""
        t = np.minimum(taus, clamp) if clamp is not None else np.asarray(taus, dtype=float)
        cs = self.coeffs.transpose(2, 0, 1)[..., None]  # cs[k] is the degree-k slab
        out = np.broadcast_to(cs[-1], self.shape + (len(t),)).copy()
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
    return m


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
        Apm = _as_polymatrix(A)
        n = Apm.shape[0]
        if Apm.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {Apm.shape}")
        Ecpm = _as_polymatrix(Ec, n, 0)
        pc = Ecpm.shape[1]
        Ccpm = _as_polymatrix(Cc, 0, n)
        qc = Ccpm.shape[0]
        Fcpm = _as_polymatrix(Fc, qc, pc)
        Bcpm = _as_polymatrix(Bc, n, 0)
        mc = Bcpm.shape[1]
        Dcpm = _as_polymatrix(Dc, qc, mc)

        def one_jump(jm: dict) -> JumpMap:
            Jm = _as_matrix(jm["J"])
            Edm = _as_matrix(jm.get("Ed"), n, 0)
            pd = Edm.shape[1]
            Cdm = _as_matrix(jm.get("Cd"), 0, n)
            qd = Cdm.shape[0]
            Fdm = _as_matrix(jm.get("Fd"), qd, pd)
            Bdm = _as_matrix(jm.get("Bd"), n, 0)
            md = Bdm.shape[1]
            Ddm = _as_matrix(jm.get("Dd"), qd, md)
            tag = jm.get("tag")
            return JumpMap(Jm, Bdm, Edm, Cdm, Ddm, Fdm, None if tag is None else tuple(tag))

        first = {"J": J, "Bd": Bd, "Ed": Ed, "Cd": Cd, "Dd": Dd, "Fd": Fd, "tag": tag}
        jumps = [one_jump(jm) for jm in (first, *extra_jumps)]
        sys = ImpulsiveSystem(Apm, Bcpm, Ecpm, Ccpm, Dcpm, Fcpm, tuple(jumps))
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
        n, mc, pc, qc = self.n, self.mc, self.pc, self.qc
        checks = [
            ("A", self.A.shape, (n, n)),
            ("Bc", self.Bc.shape, (n, mc)),
            ("Ec", self.Ec.shape, (n, pc)),
            ("Cc", self.Cc.shape, (qc, n)),
            ("Dc", self.Dc.shape, (qc, mc)),
            ("Fc", self.Fc.shape, (qc, pc)),
        ]
        md, pd, qd = self.md, self.pd, self.qd
        for k, jm in enumerate(self.jumps):
            checks += [
                (f"jumps[{k}].J", jm.J.shape, (n, n)),
                (f"jumps[{k}].Bd", jm.Bd.shape, (n, md)),
                (f"jumps[{k}].Ed", jm.Ed.shape, (n, pd)),
                (f"jumps[{k}].Cd", jm.Cd.shape, (qd, n)),
                (f"jumps[{k}].Dd", jm.Dd.shape, (qd, md)),
                (f"jumps[{k}].Fd", jm.Fd.shape, (qd, pd)),
            ]
        for name, got, want in checks:
            if got != want:
                raise DimensionMismatch(f"{name}: expected shape {want}, got {got}")

    def is_constant(self) -> bool:
        return all(m.is_constant for m in (self.A, self.Bc, self.Ec, self.Cc, self.Dc, self.Fc))


@dataclass(frozen=True)
class SwitchedSystem:
    """Timer-dependent switched system: N modes sharing dimensions (n, m, p, q)."""

    modes: tuple[dict, ...]  # each: A, B, E, C, D, F as PolyMatrix

    @staticmethod
    def from_arrays(modes: Sequence[dict]) -> "SwitchedSystem":
        if len(modes) < 1:
            raise DimensionMismatch("need at least one mode")
        built = []
        for md in modes:
            A = _as_polymatrix(md["A"])
            n = A.shape[0]
            E = _as_polymatrix(md.get("E"), n, 0)
            C = _as_polymatrix(md.get("C"), 0, n)
            q = C.shape[0]
            p = E.shape[1]
            F = _as_polymatrix(md.get("F"), q, p)
            B = _as_polymatrix(md.get("B"), n, 0)
            D = _as_polymatrix(md.get("D"), q, B.shape[1])
            built.append({"A": A, "B": B, "E": E, "C": C, "D": D, "F": F})
        dims = {(m["A"].shape[0], m["B"].shape[1], m["E"].shape[1], m["C"].shape[0]) for m in built}
        if len(dims) != 1:
            raise DimensionMismatch(f"modes disagree on dimensions: {sorted(dims)}")
        return SwitchedSystem(tuple(built))

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
    coefficient at once, any other p by certify_nonneg's exact Bernstein
    escalation; only where that refuses p does the grid falsifier file it
    under violations, with its witness, or unverified."""
    if p.degree == 0:
        if p.coeffs[0] < 0:
            report.violations.append((*entry, None, p.coeffs[0]))
    elif not all(0.0 <= c < np.inf for c in p.coeffs):
        try:
            certify_nonneg(p, (0.0, hi))
        except NoCertificate:
            wit = falsify_nonneg(p, (0.0, hi), 10_000)
            if wit is None:
                report.unverified.append(entry)
            else:
                report.violations.append((*entry, wit.tau, wit.value))


def check_positive(sys: Union[ImpulsiveSystem, SwitchedSystem], domain: tuple[float, float]) -> PositivityReport:
    """Audit internal positivity on tau in [0, T]: A Metzler, everything else
    nonnegative, each mode of a switched system.  This is the one positivity
    decision: the analyses (`require_positive`) and `cert.verify` read it
    too.  `positive` only when every entry is proved (`_check_entry_nonneg`).
    """
    lo, hi = float(domain[0]), float(domain[1])
    if hi <= 0 or lo != 0.0:
        raise InvalidDomain(f"domain must be [0, T] with T > 0, got [{lo}, {hi}]")
    if isinstance(sys, SwitchedSystem):
        mats = {f"modes[{k}].{x}": md[x] for k, md in enumerate(sys.modes) for x in "AECF"}
    else:
        mats = {"A": sys.A, "Ec": sys.Ec, "Cc": sys.Cc, "Fc": sys.Fc}
        mats.update({f"jumps[{k}].{x}": PolyMatrix.from_const(getattr(jm, x))
                     for k, jm in enumerate(sys.jumps) for x in ("J", "Ed", "Cd", "Fd")})
    report = PositivityReport(positive=True)
    for name, mat in mats.items():
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
    N, n, m, p, q = sw.N, sw.n, sw.m, sw.p, sw.q
    dmax = 1 + max(max(md[k].degree for k in "ABECDF") for md in sw.modes)

    def blkdiag(key, rows, cols):
        arr = np.zeros((N * rows, N * cols, dmax))
        for i, md in enumerate(sw.modes):
            c = md[key].coeffs
            arr[i * rows : (i + 1) * rows, i * cols : (i + 1) * cols, : c.shape[2]] = c
        return PolyMatrix(arr)

    def colstack(key, rows, cols):
        arr = np.zeros((N * rows, cols, dmax))
        for i, md in enumerate(sw.modes):
            c = md[key].coeffs
            arr[i * rows : (i + 1) * rows, :, : c.shape[2]] = c
        return PolyMatrix(arr)

    A = blkdiag("A", n, n)
    B = blkdiag("B", n, m)
    E = colstack("E", n, p)
    C = blkdiag("C", q, n)
    D = blkdiag("D", q, m)
    F = colstack("F", q, p)

    jumps = []
    for dst in range(N):
        for src in range(N):
            if dst == src:
                continue
            sel = np.zeros((N, N))
            sel[dst, src] = 1.0
            jumps.append(
                JumpMap(
                    J=np.kron(sel, np.eye(n)),
                    Bd=np.zeros((N * n, 0)),
                    Ed=np.zeros((N * n, 0)),
                    Cd=np.zeros((0, N * n)),
                    Dd=np.zeros((0, 0)),
                    Fd=np.zeros((0, 0)),
                    tag=(src, dst),
                )
            )
    sys = ImpulsiveSystem(A, B, E, C, D, F, tuple(jumps))
    sys.validate()
    return sys


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
    out = ImpulsiveSystem(
        A=sys.A.T,
        Bc=PolyMatrix.zeros(sys.n, 0),
        Ec=sys.Cc.T,
        Cc=sys.Ec.T,
        Dc=PolyMatrix.zeros(sys.pc, 0),
        Fc=sys.Fc.T,
        jumps=(
            JumpMap(
                J=jm.J.T.copy(),
                Bd=np.zeros((sys.n, 0)),
                Ed=jm.Cd.T.copy(),
                Cd=jm.Ed.T.copy(),
                Dd=np.zeros((sys.pd, 0)),
                Fd=jm.Fd.T.copy(),
            ),
        ),
        time_reversed=not sys.time_reversed,
    )
    out.validate()
    return out


def require_forward_time(sys, operation: str) -> None:
    """Refuse a time-reversed system: `operation` would read it as running
    forward in time.  Only analyze_lti, whose LTI gains are the same in either
    direction, accepts the adjoint."""
    if getattr(sys, "time_reversed", False):
        raise Unsupported(f"{operation} is not defined for a time-reversed (adjoint) system")


def require_positive(sys: Union[ImpulsiveSystem, SwitchedSystem], tau_end: float) -> None:
    """Raise NotPositive, naming the entries, for a system that
    `check_positive` does not prove positive on [0, tau_end]: the theorems
    hold for positive systems only.  tau_end = 0 (arbitrary dwell, LTI) comes
    with constant matrices, whose report no domain changes."""
    report = check_positive(sys, (0.0, tau_end or 1.0))
    if not report:
        bad = [f"{name}[{i}, {j}]" for name, (i, j), *_ in report.violations]
        bad += [f"{name}[{i}, {j}] (unverified)" for name, (i, j) in report.unverified]
        raise NotPositive(f"not positive {f'on [0, {tau_end:g}]' if tau_end else 'at tau = 0'}: {', '.join(bad)}")


# --- JSON round-trip ---------------------------------------------------------

_CONT_KEYS = ("A", "Bc", "Ec", "Cc", "Dc", "Fc")
_DISC_KEYS = ("J", "Bd", "Ed", "Cd", "Dd", "Fd")


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


def system_from_json(data: dict) -> Union[ImpulsiveSystem, SwitchedSystem]:
    try:
        if data.get("kind") == "switched" or "modes" in data:
            return SwitchedSystem.from_arrays(
                [{k: PolyMatrix.from_entries(md[k]) for k in "ABECDF" if k in md} for md in data["modes"]]
            )
        cont = {k: PolyMatrix.from_entries(data[k]) for k in _CONT_KEYS if k in data}
        first, *extra = data["jump_maps"] if "jump_maps" in data else [data]
        sys = ImpulsiveSystem.from_arrays(cont.pop("A"), first["J"], **cont, extra_jumps=extra,
                                          **{k: first.get(k) for k in (*_DISC_KEYS[1:], "tag")})
        if data.get("time_reversed"):
            sys = replace(sys, time_reversed=True)
        declared = {k: data[k] for k in ("n", "mc", "pc", "md", "pd", "qc", "qd") if k in data}
        for k, v in declared.items():
            if getattr(sys, k) != v:
                raise DimensionMismatch(f"declared {k}={v} but matrices give {getattr(sys, k)}")
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
    """The inverse of polys_to_json for `depth` levels of lists around each Poly."""
    return Poly.from_json(data) if depth == 0 else [polys_from_json(v, depth - 1) for v in data]


def save_system(sys: Union[ImpulsiveSystem, SwitchedSystem], path: str) -> None:
    write_json(system_to_json(sys), path)


def load_system(path: str) -> Union[ImpulsiveSystem, SwitchedSystem]:
    return read_json(path, system_from_json)
