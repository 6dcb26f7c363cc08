"""Gain analysis: build and minimize the linear programs behind each
dwell-time stability/performance condition and return a checkable Certificate.

Every strict theorem inequality "expr < 0" is written as "-expr >= margin",
at a point or at every timer value of an interval, into one `_Program` per
theorem, which every LP of this package encodes: a relaxation order imposes
the interval rows through their Bernstein coefficients, one equality row and
one nonnegative slack column each, and the sampled referee at finitely many
points; point rows are plain LP rows.  gamma enters every encoding affinely
and is minimized directly.

The theorem rows have one builder for analyses and designs: a design reads
zeta = X 1 (X diagonal) with numerators U = K X, so an analysis is the
design with U = 0.  `_Mode` (flow, output, stationary rows) and `_jump_rows`
write each as lead - sum_j (P X + Q U)_ij >= margin (`_theorem_row`).

Every analysis first refuses a system that `model.check_positive` does not
prove positive (`require_positive`, NotPositive): the theorems hold for
positive systems only.  Infeasible is proved in one of two ways.  Before the
LPs of the constant, minimum or range conditions are built,
`_unstable_orbit` looks for an admissible periodic orbit that is unstable,
rho(J Phi(theta)) > 1, or under minimum dwell an A(T) that is not Hurwitz;
either rules out every order.  Otherwise the sampled referee of the first
order that ends Infeasible decides (`_solve_with_escalation`).

A switched system takes every analysis entry point under every dwell class:
it is solved as its lift `model.lift_switched` with jump margin 0, so the
jump_margin argument is not read for it (`_analyze_hybrid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import groupby
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    Infeasible,
    NotConstant,
    NumericalFailure,
    ParseError,
    RelaxationLimit,
)
from .lp import LinearProgram, RowBlock, lp_solve
from .model import (DwellTimeSpec, ImpulsiveSystem, PolyMatrix, SwitchedSystem, finite_float, lift_switched,
                    mode_mats, polys_from_json, polys_to_json, read_field, read_json, require_forward_time,
                    require_positive, text, write_json)
from .poly import RELAX_SCHEDULE, Poly

__all__ = [
    "Certificate",
    "analyze_arbitrary",
    "analyze_constant",
    "analyze_minimum",
    "analyze_range",
    "analyze_switched_min",
    "analyze_switched_blanchini",
    "analyze_lti",
    "DEFAULT_MARGIN",
    "DEFAULT_JUMP_MARGIN",
    "RELAX_SCHEDULE",
]

DEFAULT_MARGIN = 1e-6
# Strictness offset on the jump rows.  The reference results for this family of
# conditions embed a 0.01 closure of the discrete-time inequality; keeping it as
# the default makes certified gains reproduce those values (it only strengthens
# the certificate, so soundness is unaffected).
DEFAULT_JUMP_MARGIN = 1e-2
_ZETA_PIN = 1e6  # upper bound on zeta(0) fixing the free scaling
_REFEREE_SAMPLES = 51
# the unstable-orbit test (_unstable_orbit): mesh step bounds, mesh cap, tolerance
_ORBIT_STEP = 0.01
_ORBIT_HL = 0.25
_ORBIT_MAX_STEPS = 8192
_ORBIT_TOL = 1e-6
# dwell kind -> certificate kind, of an impulsive and of a switched system
_KIND = {"arbitrary": "ArbitraryDT", "constant": "ConstantDT", "minimum": "MinimumDT", "range": "RangeDT"}
_SWITCHED_KIND = {"arbitrary": "SwitchedArbitraryDT", "constant": "SwitchedConstantDT", "minimum": "SwitchedMinDT",
                  "range": "SwitchedRangeDT"}


def _per_mode(listing) -> bool:
    """Whether a file's zeta or X listing is one list per mode, as in a
    switched file: its first entry's first entry is a list, not a coefficient."""
    first = listing[0] if isinstance(listing, list) and listing else None
    return isinstance(first, list) and bool(first) and isinstance(first[0], list)


def _check_kind(kind: str, dwell: DwellTimeSpec, per_mode: bool, suffix: str = "") -> None:
    """A file's kind must be the one its dwell and the nesting of its listing
    imply, with `suffix`; else a ParseError naming the field."""
    implied = (_SWITCHED_KIND if per_mode else _KIND)[dwell.kind] + suffix
    if kind != implied:
        raise ParseError(f"bad field 'kind': {kind!r} where the dwell {dwell} and the nesting imply {implied!r}")


@dataclass
class Certificate:
    """Sufficient proof object for one analysis theorem."""

    kind: str
    gamma: float
    zeta: Union[list[Poly], list[list[Poly]]]
    dwell: DwellTimeSpec
    margin: float
    jump_margin: float
    degree: int
    relax: int = 0

    @property
    def per_mode(self) -> bool:
        return self.kind.startswith("Switched")

    def lifted(self) -> "Certificate":
        """A switched certificate as that of `model.lift_switched`: zeta stacked."""
        return replace(self, kind=_KIND[self.dwell.kind], zeta=[z for zs in self.zeta for z in zs])

    def unlifted(self, N: int) -> "Certificate":
        """The inverse of `lifted`, for N modes."""
        n, zs = len(self.zeta) // N, self.zeta
        return replace(self, kind=_SWITCHED_KIND[self.dwell.kind], zeta=[zs[i * n : (i + 1) * n] for i in range(N)])

    def to_json(self) -> dict:
        return {
            "type": "certificate",
            "kind": self.kind,
            "gamma": self.gamma,
            "dwell": self.dwell.to_json(),
            "margin": self.margin,
            "jump_margin": self.jump_margin,
            "degree": self.degree,
            "relax": self.relax,
            "zeta": polys_to_json(self.zeta),
            "aux": {},
        }

    @staticmethod
    def from_json(data: dict) -> "Certificate":
        try:
            per_mode = _per_mode(data["zeta"])
            cert = Certificate(
                kind=read_field(data, "kind", text),
                gamma=read_field(data, "gamma", finite_float),
                zeta=read_field(data, "zeta", lambda v: polys_from_json(v, 1 + per_mode)),
                dwell=read_field(data, "dwell", DwellTimeSpec.parse),
                margin=read_field(data, "margin", finite_float),
                jump_margin=read_field(data, "jump_margin" if "jump_margin" in data else "margin", finite_float),
                degree=read_field(data, "degree", int),
                relax=read_field(data, "relax", int) if "relax" in data else 0,
            )
        except KeyError as exc:
            raise ParseError(f"certificate file missing field {exc.args[0]!r}") from exc
        if data.get("aux", {}) != {}:  # an old mu-variant range certificate held aux.mu
            raise ParseError("bad field 'aux': must be {}; a mu-variant range certificate is not read")
        _check_kind(cert.kind, cert.dwell, per_mode)
        return cert

    def save(self, path: str) -> None:
        write_json(self.to_json(), path)

    @staticmethod
    def load(path: str) -> "Certificate":
        return read_json(path, Certificate.from_json)


def _row_ones(pm: PolyMatrix, i: int) -> Poly:
    """Sum of row i's entries: (M(tau) * ones)_i as a polynomial."""
    out = Poly.const(0.0)
    for j in range(pm.shape[1]):
        out = out + pm.entry(i, j)
    return out


class _Cone(NamedTuple):
    """How a relaxation order writes q(s) >= margin on [0, 1], q of degree
    at most D: coefficient row i of the D + 1 is sum_k weights[i, k] q_k
    (q's own coefficients where weights is None) plus matrix[i] . c, = margin
    where on[i], else 0, over cone columns c >= 0 of their own for each row
    of q, named by the row's family and index and by suffixes."""

    weights: Optional[np.ndarray]
    on: np.ndarray
    matrix: np.ndarray
    suffixes: tuple[str, ...]


@lru_cache(maxsize=None)
def _bernstein_cone(order: int) -> _Cone:
    """The degree-`order` Bernstein cone on [0, 1], the span of s^i (1 - s)^j,
    i + j <= D: each Bernstein coefficient b_i(q) = sum_{k <= i} W[i, k] q_k,
    W[i, k] = C(i, k) / C(D, k), is one row b_i(q) - s_i = margin with a slack
    column s_i >= 0.  The slack's bound holds the sign to the solver's
    absolute tolerance; a >= row is checked only after scaling to unit norm,
    which let a coefficient of a range analysis end at -2e-5.  Cached, so
    read-only."""
    W = np.zeros((order + 1, order + 1))
    for i in range(order + 1):
        W[i, : i + 1] = [math.comb(i, k) / math.comb(order, k) for k in range(i + 1)]
    W.setflags(write=False)
    return _Cone(W, np.ones(order + 1, bool), -np.eye(order + 1), tuple(f"_b{i}" for i in range(order + 1)))


@lru_cache(maxsize=None)
def _product_cone(order: int) -> _Cone:
    """The cone of `_bernstein_cone` spanned by s^i (1 - s)^j, i + j <= D,
    one column c_ij >= 0 each: column (i, j) holds -(-1)^m C(j, m), minus
    the coefficient of s^(i + m), at row i + m.  The designs, their `--dump-lp`
    texts and the closed-loop Monte-Carlo values recorded for them were all
    made with this encoding.  Cached, so read-only."""
    pairs = [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]
    matrix = np.zeros((order + 1, len(pairs)))
    for p, (i, j) in enumerate(pairs):
        matrix[i : i + j + 1, p] = [-((-1) ** m) * math.comb(j, m) for m in range(j + 1)]
    matrix.setflags(write=False)
    return _Cone(None, np.arange(order + 1) == 0, matrix, tuple(f"_h{i}_{j}" for i, j in pairs))


def _csr(dense: np.ndarray, colmap: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, values) of the nonzeros of dense (rows, ..., k), one
    LP row per index but the last, entry [r, ..., j] in LP column colmap[r, j]
    (colmap (rows, k), or (k,) for every r), ascending in j."""
    mask = dense != 0.0
    nz = np.nonzero(mask)
    indptr = np.zeros(math.prod(dense.shape[:-1]) + 1, np.int64)
    mask.sum(axis=-1).cumsum(out=indptr[1:])
    return indptr, colmap[nz[-1]] if colmap.ndim == 1 else colmap[nz[0], nz[-1]], dense[nz]


# Every row is affine in the LP's decision columns.  An affine expression is a
# 1-D float array e: e[0] is its constant and e[1 + v] the coefficient of
# column v.  An affine polynomial in a timer is a 2-D array whose row t is the
# expression multiplying tau^t, with no trailing zero row past row 0
# (`_trim`), so that len(p) - 1 is its degree.  Widths differ; a missing
# column is a zero.  Each coefficient is summed term by term in a fixed order
# (data term j after j - 1, power k after k - 1), never by a matrix product,
# whose order would move the LP texts and gammas by ulps.

def _var(v: int) -> np.ndarray:
    e = np.zeros(v + 2)
    e[v + 1] = 1.0
    return e


def _const(c: float) -> np.ndarray:
    return np.array([c], dtype=float)


def _poly(coeffs: Sequence[float]) -> np.ndarray:
    """The constant polynomial with these coefficients."""
    return _trim(np.array(coeffs, dtype=float)[:, None])


def _trim(p: np.ndarray) -> np.ndarray:
    k = len(p)
    while k > 1 and not np.count_nonzero(p[k - 1]):
        k -= 1
    return p[:k]


def _terms(e: np.ndarray) -> dict[int, float]:
    """The nonzero coefficients {column: value} of an expression."""
    return {v: c for v, c in enumerate(e[1:].tolist()) if c != 0.0}


def _add(p: np.ndarray, q: np.ndarray, s: float = 1.0) -> np.ndarray:
    """p + s q for two expressions or two polynomials.  An expression's sum
    starts from p, so a -0.0 constant, which a point row's bound can show,
    stays -0.0; a polynomial's starts from zero."""
    out = np.zeros(tuple(map(max, p.shape, q.shape)))
    if p.ndim == 1:
        out[: len(p)] = p
        out[: len(q)] += s * q
        return out
    out[: len(p), : p.shape[1]] += p
    out[: len(q), : q.shape[1]] += s * q
    return _trim(out)


def _scale(p: np.ndarray, s: float) -> np.ndarray:
    if s == 0.0:
        return np.zeros((1,) * p.ndim)
    return s * p if p.ndim == 1 else _trim(s * p)


def _mul_poly(p: np.ndarray, data: Sequence[float]) -> np.ndarray:
    """p times a polynomial with constant coefficients `data`; an expression
    p meets constant data only, data[0]."""
    if p.ndim == 1:
        return data[0] * p
    out = np.zeros((len(p) + len(data) - 1, p.shape[1]))
    for j, d in enumerate(data):
        if d != 0.0:
            out[j : j + len(p)] += d * p
    return _trim(out)


def _deriv(p: np.ndarray) -> np.ndarray:
    if len(p) == 1:
        return np.zeros((1, 1))
    return _trim(p[1:] * np.arange(1, len(p))[:, None])


def _eval_at(p: np.ndarray, t: float) -> np.ndarray:
    """The expression p(t), by running powers of t; a zero power adds nothing,
    and one that overflows a float is `_overflow` of the timer's [0, t]."""
    out = np.zeros(p.shape[1])
    tk = 1.0
    for c in p:
        if math.isinf(tk):
            raise _overflow((0.0, t))
        if tk != 0.0:
            out += tk * c
        tk *= t
    return out


def _eval_grid(p: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """_eval_at at every t in ts in one pass, for a stack p (..., n, width) of
    polynomials of n coefficients: out[..., s, :] = _eval_at(p[...], ts[s]).
    The powers are the running products _eval_at takes and coefficient k is
    added after coefficient k - 1, so every finite value is bit-equal to
    _eval_at's (the zero terms it skips change no sum)."""
    n = p.shape[-2]
    powers = np.cumprod(np.column_stack([np.ones(len(ts))] + [ts] * (n - 1)), axis=1)
    acc = np.zeros(p.shape[:-2] + (len(ts), p.shape[-1]))
    for k in range(n):
        acc += powers[:, k, None] * p[..., k, None, :]
    return acc


def _overflow(interval: tuple[float, float]) -> NumericalFailure:
    """The failure of a program whose polynomials on interval overflow a
    float: no LP can hold them."""
    return NumericalFailure(f"the polynomials on [{interval[0]:g}, {interval[1]:g}] overflow a float")


def _power(x: float, k: int, interval: tuple[float, float]) -> float:
    """x ** k, a power of the timer on interval; one that overflows a float
    is `_overflow`."""
    try:
        return x**k
    except OverflowError:
        raise _overflow(interval) from None


def _shift_scale_arg(p: np.ndarray, a: float, h: float) -> np.ndarray:
    """The polynomials q with q(s) = p(a + h*s), for a stack p (..., n, width)
    of polynomials of n coefficients, not trimmed: q_k is h^k sum_{j >= k}
    C(j, k) a^(j - k) p_j, summed in j from zero (the zero weights of j < k
    change no sum, and at a = 0 the sum is p_k alone), and zero where h^k is.
    A power or a q_k that overflows a float is `_overflow` of [a, a + h]."""
    n = p.shape[-2]
    interval = (a, a + h)
    hk = np.array([_power(h, k, interval) for k in range(n)])[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # a q that is not finite is refused below
        if a == 0.0:
            out = 0.0 + p
        else:
            out = np.zeros(p.shape)
            w = np.array([[math.comb(j, k) * _power(a, j - k, interval) if k <= j else 0.0 for k in range(n)]
                          for j in range(n)])
            for j in range(n):
                out += w[j, :, None] * p[..., j, None, :]
        q = np.where(hk != 0.0, hk * out, 0.0)
    if not np.isfinite(q).all():
        raise _overflow(interval)
    return q


def _value(p: np.ndarray, x: np.ndarray) -> Poly:
    """The polynomial p takes at the LP solution x: each coefficient its
    constant plus its terms, so a -0.0 reads as 0.0."""
    return Poly(tuple(c[0] + sum(a * x[v] for v, a in _terms(c).items()) for c in p))


class _IntervalRun(NamedTuple):
    """Consecutive interval rows on one interval (a, b) with polynomials of
    n coefficients: p (rows, n, 1 + len(cols)) holds each row's constant and
    its coefficients of the columns cols, q the same for q(s) = p(a + h s)."""

    interval: tuple[float, float]
    names: list[str]
    cols: np.ndarray
    p: np.ndarray
    q: np.ndarray
    margins: np.ndarray


class _Program:
    """A theorem's program: its decision columns and one ordered list of
    rows (family, index, e, interval, margin), each e >= margin, at a point
    (interval None, e an expression) or at every t in interval = (a, b),
    a < b (e a polynomial).  Two encoders make LPs of it: one relaxation
    order (`relaxation`), in the table cone(order), and the sampled referee
    (`sampled_referee`).  Both write each run of consecutive rows of one
    shape, point rows or interval rows on one interval with one length, as
    one row block; what no order changes is encoded once per program (`_runs`)."""

    def __init__(self, cone=_bernstein_cone):
        self.cone = cone
        self.columns = LinearProgram()  # the decision columns, no rows
        self.rows: list[tuple] = []
        self._cut = (0, [])  # (rows cut, their runs)

    def scalar(self, lo=None, hi=None, name="") -> int:
        return self.columns.new_var(lo, hi, name)

    def poly_vec(self, n: int, degree: int, name: str) -> list[np.ndarray]:
        out = []
        for i in range(n):
            ids = [self.scalar(name=f"{name}{i}_c{k}") for k in range(degree + 1)]
            p = np.zeros((degree + 1, ids[-1] + 2))
            p[range(degree + 1), [v + 1 for v in ids]] = 1.0
            out.append(p)
        return out

    def add_point_ge(self, family: str, index: int, expr: np.ndarray, margin: float) -> None:
        self.rows.append((family, index, expr, None, margin))

    def add_interval_ge(self, family: str, index: int, p: np.ndarray, interval: tuple[float, float],
                        margin: float) -> None:
        """p(t) >= margin on [a, b].  A degenerate interval a = b is one point
        row, p(a), or p itself if it is an expression already."""
        a, b = interval
        if not a < b:
            self.add_point_ge(family, index, p if p.ndim == 1 else _eval_at(p, a), margin)
            return
        self.rows.append((family, index, p, (a, b), margin))

    def _runs(self) -> list:
        """The rows as runs of one shape, cut again only when rows were
        added: point rows e >= margin as their block -e[1:] . x <= -(margin -
        e[0]), interval rows as an `_IntervalRun`."""
        if self._cut[0] != len(self.rows):
            runs = []
            # a run's shape: None for point rows, else (interval, length)
            for shape, group in groupby(self.rows, key=lambda row: row[3] and (row[3], len(row[2]))):
                group = list(group)
                margins = np.array([row[4] for row in group], dtype=float)
                # the rows stacked, zero padded to the widest, then cut to the columns in use
                e = np.zeros((len(group),) + group[0][2].shape[:-1] + (max(row[2].shape[-1] for row in group),))
                for r, row in enumerate(group):
                    e[r, ..., : row[2].shape[-1]] = row[2]
                cols = np.flatnonzero(e[..., 1:].any(axis=tuple(range(e.ndim - 1))))
                e = e[..., np.concatenate(([0], 1 + cols))]
                if shape is None:
                    runs.append(RowBlock("<=", *_csr(-e[:, 1:], cols), -(margins - e[:, 0])))
                else:
                    interval = (a, b) = shape[0]
                    runs.append(_IntervalRun(interval, [f"{f}{i}" for f, i, *_ in group], cols, e,
                                             _shift_scale_arg(e, a, b - a), margins))
            self._cut = (len(self.rows), runs)
        return self._cut[1]

    def _lp(self, objective: dict[int, float]) -> LinearProgram:
        """A new LP on the decision columns that minimizes objective."""
        lp = self.columns.copy()
        lp.objective = dict(objective)
        return lp

    def relaxation(self, relax: int, objective: dict[int, float]) -> LinearProgram:
        """The LP at relaxation order relax: each point row one >= row, each
        interval row p >= margin on [a, b] the rows of `_cone_rows` at order
        D = degree + relax on q(s) = p(a + h s), h = b - a, s in [0, 1].
        Each run of `_runs` is one row block, in the order of the rows; only
        the cone rows are computed for each order."""
        lp = self._lp(objective)
        for run in self._runs():
            if isinstance(run, RowBlock):
                lp.add_rows(*run)
            else:
                self._cone_rows(lp, run.q.shape[1] - 1 + relax, run.names, run.cols, run.q, run.margins)
        return lp

    def _cone_rows(self, lp: LinearProgram, order: int, names: list[str], cols: np.ndarray, q: np.ndarray,
                   margins: np.ndarray) -> None:
        """q[r] - margins[r] in the degree-`order` cone of `cone` on [0, 1],
        for the stack q (rows, n, 1 + len(cols)): one = row block, and the
        cone columns of each row of q in turn, named by names[r]."""
        cone = self.cone(order)
        rows, n = q.shape[:2]
        b = np.zeros((rows, order + 1, q.shape[2]))
        if cone.weights is None:
            b[:, :n] = q
        else:
            for k in range(n):
                b[:, k:] += cone.weights[k:, k, None] * q[:, k, None, :]
        # row r of q in LP columns cols and then in its own cone columns
        m, width = len(cols), len(cone.suffixes)
        dense = np.empty((rows, order + 1, m + width))
        dense[..., :m], dense[..., m:] = b[..., 1:], cone.matrix
        colmap = np.empty((rows, m + width), np.int64)
        colmap[:, :m] = cols
        colmap[:, m:] = lp.add_columns(0.0, None, names, cone.suffixes) + np.arange(rows * width).reshape(rows, -1)
        lp.add_rows("=", *_csr(dense, colmap), (np.where(cone.on, margins[:, None], 0.0) - b[..., 0]).ravel())

    def sampled_referee(self, objective: dict[int, float]) -> LinearProgram:
        """The point rows, then every interval row imposed at _REFEREE_SAMPLES
        points only.

        This relaxation is necessary for the true semi-infinite program, so its
        infeasibility proves genuine infeasibility (vs. a relaxation limit).
        It does not depend on the relaxation order.
        """
        lp = self._lp(objective)
        runs = self._runs()
        for run in runs:
            if isinstance(run, RowBlock):
                lp.add_rows(*run)
        for run in runs:
            if isinstance(run, _IntervalRun):
                acc = _eval_grid(run.p, np.linspace(*run.interval, _REFEREE_SAMPLES))
                rhs = -(run.margins[:, None] - acc[..., 0]).ravel()
                lp.add_rows("<=", *_csr(-acc[..., 1:], run.cols), rhs)
        return lp


def _entries(P: np.ndarray, X: list, Q: Optional[np.ndarray], U: list) -> list[list]:
    """(P X + Q U)_{ij} (X diagonal) for the coefficient arrays P (r, n, k)
    and Q (r, m, k') in the timer, constant data as P[..., None]; X and U
    hold polynomials, or expressions, which meet constant data only.  A zero
    P_ij gives a zero entry, cheap for a lift's selector maps, and a zero
    Q_il or U_lj adds no term; Q is not read when U = []."""
    # the nonzero masks read once: an any() call costs about 2 us, and a lift has hundreds of entries
    p_on, q_on = P.any(axis=-1).tolist(), U and Q.any(axis=-1).tolist()

    def entry(i: int, j: int) -> np.ndarray:
        e = _mul_poly(X[j], P[i, j]) if p_on[i][j] else np.zeros((1,) * X[j].ndim)
        for l, u in enumerate(U):
            if q_on[i][l] and np.count_nonzero(u[j]):
                e = _add(e, _mul_poly(u[j], Q[i, l]))
        return e

    return [[entry(i, j) for j in range(len(X))] for i in range(P.shape[0])]


def _theorem_row(prog: _Program, family: str, index: int, lead: np.ndarray, entries: Sequence,
                 where: tuple[float, float], margin: float) -> None:
    """lead - sum(entries) >= margin at every timer value in where = (lo, hi),
    the one form of every theorem row.  The entries are polynomials in the
    timer, or expressions when lo = hi (one point row); an expression lead
    over polynomial entries is the constant polynomial.  An entry that is
    zero throughout, off the blocks of a lift, adds nothing and is skipped."""
    expr = lead[None] if lead.ndim == 1 and where[0] < where[1] else lead
    for e in entries:
        if np.count_nonzero(e):
            expr = _add(expr, e, -1.0)
    prog.add_interval_ge(family, index, expr, where, margin)


class _Mode:
    """One mode's flow in the decision variables X(tau), the diagonal as a
    vector, and U(tau) on the timer interval (0, tau_end), mats = (A, B, E,
    C, D, F).  Each entry of A X + B U and C X + D U is built once.  A design
    (`synthesis._DesignMode`) adds its positivity and denominator rows from
    them; an analysis is the case X = zeta and U = [], where B and D are
    never read.  tau_end = 0 (arbitrary dwell-time) turns every interval row
    into a point row at tau = 0."""

    def __init__(self, prog: _Program, mats: tuple, X: list[np.ndarray],
                 U: list[list[np.ndarray]], tau_end: float):
        A, B, _, C, D, _ = self.mats = mats
        self.prog, self.X, self.U = prog, X, U
        self.iv = (0.0, tau_end)
        self.flow = _entries(A.coeffs, X, B.coeffs if U else None, U)
        self.out = _entries(C.coeffs, X, D.coeffs if U else None, U)

    def theorem_rows(self, gamma: int, margin: float, stat_at: Optional[float] = None) -> None:
        """flow: X_i' - E_i 1 - (A X + B U)_i 1 >= margin and out_c: gamma -
        F_i 1 - (C X + D U)_i 1 >= margin on (0, tau_end), the analysis rows
        under zeta = X 1; with stat_at = T (minimum dwell-time) also their
        stationary rows at tau = T, without X', from the matrices at T times
        X(T) and U(T)."""
        prog = self.prog
        A, B, E, C, D, F = self.mats
        gam = _var(gamma)
        for i, row in enumerate(self.flow):
            lead = _add(_deriv(self.X[i]), _poly(_row_ones(E, i).coeffs), -1.0)
            _theorem_row(prog, "flow", i, lead, row, self.iv, margin)
        for i, row in enumerate(self.out):
            lead = _add(gam[None], _poly(_row_ones(F, i).coeffs), -1.0)
            _theorem_row(prog, "out_c", i, lead, row, self.iv, margin)
        if stat_at is None:
            return
        T = stat_at
        X_T = [_eval_at(x, T) for x in self.X]
        U_T = [[_eval_at(u, T) for u in row] for row in self.U]
        for family, P, Q, leads in (
            ("stat_flow", A, B, [_const(-e) for e in E(T).sum(axis=1)]),
            ("stat_out", C, D, [_add(gam, _const(f), -1.0) for f in F(T).sum(axis=1)]),
        ):
            for i, row in enumerate(_entries(P(T)[..., None], X_T, Q(T)[..., None] if U_T else None, U_T)):
                _theorem_row(prog, family, i, leads[i], row, (T, T), margin)


def _jump_rows(prog: _Program, jumps: Sequence, entries: Sequence, x0: list[np.ndarray], gamma: int,
               dwells: tuple[float, float], margin: float, jump_margin: float) -> None:
    """Per jump map k, with entries[k] = (J_k X + Bd_k U, Cd_k X + Dd_k U) read
    on one side (`_entries`): jump[k], X_i(0) - Ed_k,i 1 - (J_k X +
    Bd_k U)_i 1 >= jump_margin, and out_d[k], gamma - Fd_k,i 1 - (Cd_k X +
    Dd_k U)_i 1 >= margin, at every dwell in dwells = (lo, hi); x0 = X(0).
    A jump row with no term under jump_margin 0, X_i(0) >= 0, as of a lift's
    inactive block, is left out: the pin rows (a design's x_pos) give it."""
    for k, (jm, (jump, out_d)) in enumerate(zip(jumps, entries)):
        for i, (row, ed) in enumerate(zip(jump, jm.Ed.sum(axis=1))):
            if jump_margin or ed or any(np.count_nonzero(e) for e in row):
                _theorem_row(prog, f"jump[{k}]", i, _add(x0[i], _const(ed), -1.0), row, dwells, jump_margin)
        for i, (row, fd) in enumerate(zip(out_d, jm.Fd.sum(axis=1))):
            _theorem_row(prog, f"out_d[{k}]", i, _add(_var(gamma), _const(fd), -1.0), row, dwells, margin)


def _gain_rows_constant_like(
    prog: _Program, mats: tuple, jumps: Sequence, zeta: list[np.ndarray], gamma: int, tau_end: float,
    jump_dwells: tuple[float, float], margin: float, jump_margin: float, stationary_at: Optional[float] = None,
) -> None:
    """The rows of the constant/minimum/range conditions, mats = (A, Bc, Ec,
    Cc, Dc, Fc) with the jump maps `jumps`; a switched system's are those of
    its lift (`_analyze_hybrid`).

    The theorem rows are a design's with X = zeta and U = []: flow and out_c
    on (0, tau_end) and the stationary rows at stationary_at (`_Mode`), and
    jump[k] and out_d[k] (`_jump_rows`) at every dwell theta in jump_dwells
    = (lo, hi) (`_jump_timers`): polynomial rows in theta on [lo, hi], or
    point rows at theta = lo when lo == hi.  The pin rows follow.
    """
    _Mode(prog, mats, zeta, [], tau_end).theorem_rows(gamma, margin, stationary_at)
    lo, hi = jump_dwells
    target = zeta if lo < hi else [_eval_at(z, lo) for z in zeta]
    zeta0 = [_eval_at(z, 0.0) for z in zeta]
    entries = [[_entries(P[..., None], target, None, []) for P in (jm.J, jm.Cd)] for jm in jumps]
    _jump_rows(prog, jumps, entries, zeta0, gamma, jump_dwells, margin, jump_margin)

    # scaling pin: margin <= zeta_i(0) <= PIN
    for i, z0 in enumerate(zeta0):
        prog.add_point_ge("pin_lo", i, z0, margin)
        prog.add_point_ge("pin_hi", i, _add(_const(_ZETA_PIN), z0, -1.0), 0.0)


def _solve_with_escalation(prog: _Program, gamma: int, finalize, extra_obj: Optional[dict[int, float]] = None,
                           relax_schedule=RELAX_SCHEDULE, dump_lp=None):
    """Minimize gamma (plus extra_obj) over prog, encoded at each order of
    relax_schedule in turn until one solves: finalize(solution, order).
    An order goes on to the next on infeasibility or numerical failure.

    Analyses of an unstable periodic orbit never get here: `_analyze_hybrid`
    raises Infeasible from `_unstable_orbit` first.  Otherwise the first
    order that ends Infeasible is followed by one solve of the sampled
    referee.  The referee relaxes the semi-infinite program (interval
    rows at finitely many points) while every order's LP restricts it (a
    Bernstein cone inside the nonnegative polynomials), so an infeasible
    referee proves that no order can succeed: Infeasible is raised at once.  A
    feasible referee lets the escalation go on, ending in RelaxationLimit if
    every order fails; a referee that fails numerically is recorded and
    escalation goes on, ending in NumericalFailure.  If no order ends
    Infeasible, the referee is solved after the last order.  Error messages
    list each outcome in the order it happened.
    """
    objective = {gamma: 1.0}
    for v, c in (extra_obj or {}).items():
        objective[v] = objective.get(v, 0.0) + c
    tried = []  # (what, LP status or NumericalFailure message)
    referee = None  # the referee's outcome (see _solve_referee) once solved
    for relax in relax_schedule:
        lp = prog.relaxation(relax, objective)
        try:
            sol = lp_solve(lp)
        except NumericalFailure as exc:
            tried.append((f"order +{relax}", f"NumericalFailure ({exc})"))
            continue
        if sol.status == "Optimal":
            if dump_lp:
                from .lp import dump_lp as _dump

                _dump(lp, dump_lp)
            return finalize(sol, relax)
        if sol.status == "Unbounded":
            raise NumericalFailure("gain LP unbounded; encoding error")
        if all(interval is None for _, _, _, interval, _ in prog.rows):
            raise Infeasible("conditions infeasible (finite LP)")
        tried.append((f"order +{relax}", sol.status))
        if referee is None:
            referee = _solve_referee(prog, objective, tried)
            if referee == "Infeasible":
                break
    if referee is None:
        referee = _solve_referee(prog, objective, tried)
    history = "; ".join(f"{what}: {status}" for what, status in tried)
    if referee == "Optimal":
        raise RelaxationLimit(
            f"interval relaxation exhausted at order +{relax_schedule[-1]} "
            f"while the sampled referee stays feasible [{history}]"
        )
    if referee == "NumericalFailure":
        raise NumericalFailure(f"sampled referee failed numerically [{history}]")
    raise Infeasible(f"conditions infeasible (sampled referee LP infeasible) [{history}]")


def _solve_referee(prog: _Program, objective: dict[int, float], tried: list) -> str:
    """Solve prog's sampled referee: "Optimal", "Infeasible" (any other LP
    status) or "NumericalFailure", whose message is appended to tried."""
    try:
        return "Optimal" if lp_solve(prog.sampled_referee(objective)).status == "Optimal" else "Infeasible"
    except NumericalFailure as exc:
        tried.append(("referee", f"NumericalFailure ({exc})"))
        return "NumericalFailure"


def _timer_end(dwell: DwellTimeSpec) -> float:
    """The right end of the timer interval [0, tau_end] on which the flow rows
    hold: 0 under arbitrary dwell, where every row is a point row at tau = 0,
    else the dwell's horizon."""
    return 0.0 if dwell.kind == "arbitrary" else dwell.horizon_tau()


def _jump_timers(dwell: DwellTimeSpec) -> tuple[float, float]:
    """The dwell times [lo, hi] at which the jump rows are imposed: [Tmin,
    Tmax] for a range, collapsed to the one point Tmin when narrower than
    1e-12, else the one point _timer_end: 0 (arbitrary) or T (constant,
    minimum).  Constant dwell is the range [T, T]."""
    hi = _timer_end(dwell)
    lo = dwell.Tmin if dwell.kind == "range" else hi
    return lo, (hi if hi - lo > 1e-12 else lo)


def _radius_bound(M: np.ndarray) -> np.ndarray:
    """Collatz-Wielandt lower bounds on the spectral radii of the nonnegative
    matrices M (..., n, n): M v >= r v with v >= 0, v != 0 gives rho(M) >= r,
    so r = min (M v)_i / v_i over the support of v.  v is M^1024 1, by ten
    normalized squarings, with entries below 1e-12 of its largest set to 0:
    near the Perron vector, r is rho(M) to rounding where the Perron root is
    dominant, and lower where it is not.  A zero v gives 0."""
    P = M
    for _ in range(10):
        P = np.einsum("...ij,...jk->...ik", P, P)
        P /= np.maximum(np.abs(P).max(axis=(-2, -1), keepdims=True), 1e-300)
    v = P.sum(axis=-1)
    v = np.where(v > 1e-12 * v.max(axis=-1, keepdims=True), v, 0.0)
    on = v > 0.0
    r = np.where(on, np.einsum("...ij,...j->...i", M, v) / np.where(on, v, 1.0), np.inf).min(axis=-1)
    return np.where(np.isinf(r), 0.0, r)


def _unstable_orbit(
    sys: ImpulsiveSystem, dwell: DwellTimeSpec, margin: float, jump_margin: float
) -> Optional[str]:
    """Why no relaxation order of the constant, minimum or range conditions
    can be feasible, or None if this test finds no reason.

    Let margin > 0 and jump_margin >= 0, and let the system be positive on
    [0, hi], which `_analyze_hybrid` has proved (`require_positive`): A
    Metzler, Ec >= 0 and every J_k, Ed_k >= 0, where the jump rows hold at
    the dwell times [lo, hi] (`_jump_timers`).  Any order's zeta satisfies the
    theorem rows, so zeta(0) >= margin > 0 (pin rows), zeta' >= A zeta on
    [0, theta], hence zeta(theta) >= Phi(theta) zeta(0) by comparison with
    the flow, Phi(theta) >= 0, and the jump rows give zeta(0) >=
    J_k zeta(theta) >= J_k Phi(theta) zeta(0) for theta in [lo, hi].  By
    Collatz-Wielandt, rho(J_k Phi(theta)) <= 1 then, for every k.  Under
    minimum dwell the stationary rows give A(T) zeta(T) < 0 with
    zeta(T) >= Phi(T) zeta(0) > 0, so the Metzler A(T) is Hurwitz.

    Reported are a lower bound (`_radius_bound`) on the spectral abscissa of
    A(T) above _ORBIT_TOL times the size of A(T), or one on
    rho(J_k Phi(theta)) above 1 + _ORBIT_TOL at a mesh point theta in
    [lo, hi].  Phi comes from `sim._flow_tables` without inputs, the flow
    alone, at a step of at most _ORBIT_STEP and _ORBIT_HL over a bound on
    |A(tau)|; the largest rho is recomputed on the half-step mesh and must
    still exceed 1 + _ORBIT_TOL by more than the two values differ, so the
    RK4 error cannot make it fire.  A mesh longer than _ORBIT_MAX_STEPS
    skips the test."""
    if dwell.kind == "arbitrary" or not (margin > 0.0 and jump_margin >= 0.0):
        return None
    lo, hi = _jump_timers(dwell)
    if dwell.kind == "minimum":
        # the spectral abscissa of a Metzler matrix is rho(A(T) + s I) - s
        A_T = sys.A(dwell.T)
        shift = max(0.0, -A_T.diagonal().min())
        alpha = float(_radius_bound(A_T + shift * np.eye(sys.n))) - shift
        if alpha > _ORBIT_TOL * (1.0 + np.abs(A_T).max()):
            return f"A(T) is not Hurwitz at T = {dwell.T:.6g}: spectral abscissa >= {alpha:.4g}"
    from .sim import _flow_tables

    # |A(tau)| <= the largest row sum of |coefficient| * hi^degree on [0, hi]
    A = sys.A.coeffs
    size = (np.abs(A) * hi ** np.arange(A.shape[2])).sum(axis=(1, 2)).max()
    # capped first: a mesh of more steps is skipped, and one of inf steps has no ceiling
    m = max(1, math.ceil(min(hi / min(_ORBIT_STEP, _ORBIT_HL / max(size, 1e-300)), _ORBIT_MAX_STEPS)))
    if 2 * m > _ORBIT_MAX_STEPS:
        return None

    def flow(steps: int) -> np.ndarray:
        return _flow_tables(sys, None, None, None, np.linspace(0.0, hi, steps + 1))[0]

    taus = np.linspace(0.0, hi, m + 1)
    at = np.flatnonzero(taus >= lo)
    Js = np.stack([jm.J for jm in sys.jumps])
    # skip the flow where |J_k| exp(int_0^theta mu) <= 1 bounds every rho, mu
    # the infinity log-norm of A (its largest row sum, A being Metzler),
    # integrated by the trapezoid rule: an estimate suffices, as skipping
    # only leaves the decision to the LPs
    mu = sys.A.eval_mesh(taus).sum(axis=1).max(axis=0)
    growth = np.concatenate([[0.0], np.cumsum(0.5 * (mu[1:] + mu[:-1]) * (hi / m))])
    if Js.sum(axis=-1).max() * np.exp(growth[at].max()) <= 1.0 + _ORBIT_TOL:
        return None
    rho = _radius_bound(np.einsum("kij,jlt->ktil", Js, flow(m)[..., at]))
    k, t = np.unravel_index(np.argmax(rho), rho.shape)
    if rho[k, t] <= 1.0 + _ORBIT_TOL:
        return None
    fine = float(_radius_bound(np.einsum("ij,jl->il", Js[k], flow(2 * m)[..., 2 * at[t]])))
    if fine - abs(fine - rho[k, t]) <= 1.0 + _ORBIT_TOL:
        return None
    J = f"J[{k}]" if len(sys.jumps) > 1 else "J"
    return f"rho({J} Phi(theta)) >= {fine:.4g} at theta = {taus[at[t]]:.6g}"


def analyze_arbitrary(
    sys: Union[ImpulsiveSystem, SwitchedSystem],
    margin: float = DEFAULT_MARGIN,
    jump_margin: float = DEFAULT_JUMP_MARGIN,
) -> Certificate:
    """Arbitrary dwell-time gain bound for constant-matrix systems (plain LP):
    the hybrid rows with a constant zeta at the single timer value 0."""
    return _analyze_hybrid(sys, DwellTimeSpec.arbitrary(), 0, margin, jump_margin, (0,))


def _check_margins(**margins: float) -> None:
    """A ValueError naming the first margin that is not >= 0: a negative
    margin turns each strict theorem row into a slack one, and its gamma
    bounds nothing."""
    for name, value in margins.items():
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def _analyze_hybrid(
    sys: Union[ImpulsiveSystem, SwitchedSystem],
    dwell: DwellTimeSpec,
    degree: int,
    margin: float,
    jump_margin: float,
    relax_schedule,
    dump_lp=None,
) -> Certificate:
    """The gates of every hybrid analysis (forward time, constant matrices
    under arbitrary dwell, degree, margins, positivity and
    `_unstable_orbit`), then its program (`_solve_hybrid`).  A switched system is gated on its own
    data, so a note names modes[k].X, and solved as its lift with jump
    margin 0, jump_margin unread, reported per mode (`Certificate.unlifted`):
    the lift's jump maps kron(e_i e_j', I) make its jump rows the coupling
    rows zeta_i(0) - zeta_j(theta) >= 0 of each switch j -> i, and
    `_unstable_orbit` is not run, J Phi(theta) being nilpotent."""
    require_forward_time(sys, f"{dwell.kind} dwell-time analysis")
    if dwell.kind == "arbitrary" and not sys.is_constant():
        raise NotConstant("arbitrary dwell-time analysis needs constant matrices")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    _check_margins(margin=margin, jump_margin=jump_margin)
    require_positive(sys, _timer_end(dwell))
    if isinstance(sys, SwitchedSystem):
        cert = _solve_hybrid(lift_switched(sys), dwell, degree, margin, 0.0, relax_schedule, dump_lp=dump_lp)
        return cert.unlifted(sys.N)
    reason = _unstable_orbit(sys, dwell, margin, jump_margin)
    if reason:
        raise Infeasible(f"conditions infeasible ({reason})")
    return _solve_hybrid(sys, dwell, degree, margin, jump_margin, relax_schedule, dump_lp)


def _solve_hybrid(sys: ImpulsiveSystem, dwell: DwellTimeSpec, degree: int, margin: float, jump_margin: float,
                  relax_schedule, dump_lp=None) -> Certificate:
    """The hybrid program of sys under dwell, minimized: zeta, gamma and the
    rows of `_gain_rows_constant_like`.  sys must have passed its gates (`_analyze_hybrid`)."""
    lo, hi = _jump_timers(dwell)
    stationary_at = dwell.T if dwell.kind == "minimum" else None
    prog = _Program()
    zeta = prog.poly_vec(sys.n, degree, "zeta")
    gamma = prog.scalar(lo=0.0, name="gamma")
    _gain_rows_constant_like(prog, mode_mats(sys), sys.jumps, zeta, gamma, _timer_end(dwell), (lo, hi), margin,
                             jump_margin, stationary_at=stationary_at)

    def finalize(sol, relax):
        return Certificate(
            kind=_KIND[dwell.kind],
            gamma=float(sol.x[gamma]),
            zeta=[_value(z, sol.x) for z in zeta],
            dwell=dwell,
            margin=margin,
            jump_margin=jump_margin,
            degree=degree,
            relax=relax,
        )

    return _solve_with_escalation(prog, gamma, finalize, relax_schedule=relax_schedule, dump_lp=dump_lp)


def analyze_constant(
    sys: Union[ImpulsiveSystem, SwitchedSystem],
    T: float,
    degree: int,
    margin: float = DEFAULT_MARGIN,
    jump_margin: float = DEFAULT_JUMP_MARGIN,
    relax_schedule=RELAX_SCHEDULE,
    dump_lp=None,
) -> Certificate:
    """Constant dwell-time hybrid-gain bound via a timer-polynomial vector."""
    return _analyze_hybrid(sys, DwellTimeSpec.constant(T), degree, margin, jump_margin, relax_schedule, dump_lp=dump_lp)


def analyze_minimum(
    sys: Union[ImpulsiveSystem, SwitchedSystem],
    T: float,
    degree: int,
    margin: float = DEFAULT_MARGIN,
    jump_margin: float = DEFAULT_JUMP_MARGIN,
    relax_schedule=RELAX_SCHEDULE,
    dump_lp=None,
) -> Certificate:
    """Minimum dwell-time bound: constant-dwell rows plus stationarity at T.

    Timer clamping (matrices frozen at T for tau >= T) is part of the system
    semantics downstream (simulation/verification)."""
    return _analyze_hybrid(sys, DwellTimeSpec.minimum(T), degree, margin, jump_margin, relax_schedule, dump_lp=dump_lp)


def analyze_range(
    sys: Union[ImpulsiveSystem, SwitchedSystem],
    Tmin: float,
    Tmax: float,
    degree: int,
    margin: float = DEFAULT_MARGIN,
    jump_margin: float = DEFAULT_JUMP_MARGIN,
    relax_schedule=RELAX_SCHEDULE,
    dump_lp=None,
) -> Certificate:
    """Range dwell-time bound; jump rows become polynomials in the dwell theta."""
    return _analyze_hybrid(sys, DwellTimeSpec.range(Tmin, Tmax), degree, margin, jump_margin, relax_schedule,
                           dump_lp=dump_lp)


def analyze_switched_min(
    sw: SwitchedSystem,
    T: float,
    degree: int,
    margin: float = DEFAULT_MARGIN,
    relax_schedule=RELAX_SCHEDULE,
    dump_lp=None,
) -> Certificate:
    """Minimum dwell-time bound for switched systems, analyze_minimum(sw, T,
    degree): the lift's program with jump margin 0 (`_analyze_hybrid`)."""
    return _analyze_hybrid(sw, DwellTimeSpec.minimum(T), degree, margin, 0.0, relax_schedule, dump_lp=dump_lp)


def analyze_switched_blanchini(
    sw: SwitchedSystem,
    T: float,
    grid_points: int = 101,
    margin: float = DEFAULT_MARGIN,
) -> float:
    """Reference bound from the classical per-mode vector conditions, with the
    output coupling row sampled on a timer grid (necessary-only gridding)."""
    DwellTimeSpec.minimum(T)  # refuses T outside (0, inf)
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    _check_margins(margin=margin)
    for md in sw.modes:
        if any(not md[k].is_constant for k in ("A", "E", "C", "F")):
            raise NotConstant("this comparison bound needs timer-independent modes")
    require_positive(sw, T)
    from .cert import flow_grid

    n, N = sw.n, sw.N
    taus = np.linspace(0.0, T, grid_points)
    Phis, forced = zip(*(flow_grid(sw, taus, mode=i)[:2] for i in range(N)))

    prog = _Program()
    cols = [[prog.scalar(name=f"lam{i}_{r}") for r in range(n)] for i in range(N)]
    gamma = prog.scalar(lo=0.0, name="gamma")
    # lam[i][r] is column cols[i][r] as an expression; a product with these
    # unit rows adds only exact zeros
    lam = np.eye(gamma + 2)[1 + np.array(cols)]

    def rows(family: str, exprs: np.ndarray, const: np.ndarray) -> None:
        for r, e in enumerate(exprs):
            prog.add_point_ge(family, r, _add(e, _const(const[r]), -1.0), margin)

    # -A_i lam_i - E_i 1, lam_i - e^(A_i T) lam_j - int_0^T e^(A_i s) E_i 1 ds,
    # gamma - (C_i - C_i Phi_i(tau)) lam_i - C_i Phi_i(tau) lam_j - F_i 1 on
    # the grid, and lam_i, each >= margin
    for i, md in enumerate(sw.modes):
        rows(f"flow[{i}]", -(md["A"].const() @ lam[i]), md["E"].const().sum(axis=1))
    for i in range(N):
        for j in range(N):
            if i != j:
                rows(f"couple[{j}->{i}]", lam[i] - Phis[i][..., -1] @ lam[j], forced[i][:, -1])
    for i, md in enumerate(sw.modes):
        C, F1 = md["C"].const(), md["F"].const().sum(axis=1)
        for j in range(N):
            if i != j:
                for Ph in Phis[i].transpose(2, 0, 1):
                    CP = C @ Ph
                    rows(f"out_c[{j}->{i}]", _var(gamma) - (C - CP) @ lam[i] - CP @ lam[j], F1)
    for i in range(N):
        rows(f"lam[{i}]", lam[i], np.zeros(n))
    sol = lp_solve(prog.relaxation(0, {gamma: 1.0}))
    if sol.status != "Optimal":
        raise Infeasible("per-mode vector conditions infeasible at this dwell-time")
    return float(sol.objective_value)


def analyze_lti(
    sys: ImpulsiveSystem,
    norm: str = "Linf",
    time: str = "continuous",
    margin: float = 0.0,
) -> tuple[float, np.ndarray]:
    """LTI gain corollaries: minimal gamma plus the witness vector v, from the
    flow and out_c rows of `_Mode` at tau_end = 0 on a constant v.
    continuous uses (A, Ec, Cc, Fc); discrete the jump tuple (J, Ed, Cd, Fd)
    as the one-step system, A := J - I, as v >= J v + Ed 1 + margin; only
    the data read are checked for positivity.  L1 is
    the L-infinity gain of the transposed data (A', C', E', F'), so
    analyze_lti(adjoint(s), "L1") solves the LP of analyze_lti(s)."""
    if norm not in ("Linf", "L1") or time not in ("continuous", "discrete"):
        raise ValueError("norm must be Linf|L1 and time continuous|discrete")
    if not sys.is_constant():
        raise NotConstant("LTI analysis needs constant matrices")
    if time == "continuous":
        require_positive(sys, 0.0, ("A", "Ec", "Cc", "Fc"))
        A, E, C, F = sys.A, sys.Ec, sys.Cc, sys.Fc
    else:
        require_positive(sys, 0.0, tuple(f"jumps[0].{x}" for x in ("J", "Ed", "Cd", "Fd")))
        jm = sys.jump
        A, E, C, F = (PolyMatrix.from_const(m) for m in (jm.J - np.eye(sys.n), jm.Ed, jm.Cd, jm.Fd))
    if norm == "L1":
        A, E, C, F = A.T, C.T, E.T, F.T
    prog = _Program()
    v = [_var(prog.scalar(lo=1e-12, name=f"v{i}"))[None] for i in range(sys.n)]
    gamma = prog.scalar(lo=0.0, name="gamma")
    _Mode(prog, (A, None, E, C, None, F), v, [], 0.0).theorem_rows(gamma, margin)
    sol = lp_solve(prog.relaxation(0, {gamma: 1.0}))
    if sol.status != "Optimal":
        raise Infeasible("system not certifiably stable (LTI vector conditions)")
    return float(sol.x[gamma]), sol.x[: sys.n].copy()  # v: the first n columns
