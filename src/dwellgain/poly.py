"""Univariate polynomial arithmetic and the one interval nonnegativity decision.

Polynomials are real, univariate in the timer variable and stored as ascending
coefficient tuples.  Nonnegativity of p on a compact interval [a, b] is
certified by expressing p as a nonnegative combination of the products
(t - a)^i (b - t)^j with i + j <= D, the degree-D Bernstein cone on [a, b].
For a known p, `decide_nonneg` decides this exactly from its Bernstein
coefficients in integers.  The analysis LPs impose the cone through one row
per Bernstein coefficient; the design LPs span it with the product basis,
whose table `product_basis` holds.  A uniform-grid falsifier finds a witness
for a polynomial the exact test refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "RELAX_SCHEDULE",
    "Poly",
    "Witness",
    "product_basis",
    "decide_nonneg",
    "falsify_nonneg",
]

# the orders above a polynomial's degree that decide_nonneg and the analysis LPs try in turn
RELAX_SCHEDULE = (4, 6, 8, 10)


def _trim(coeffs: Sequence[float]) -> tuple[float, ...]:
    cs = [float(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0.0:
        cs.pop()
    if not cs:
        cs = [0.0]
    return tuple(cs)


@dataclass(frozen=True)
class Poly:
    """Immutable polynomial, coeffs[k] multiplies t**k."""

    coeffs: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @staticmethod
    def const(c: float) -> "Poly":
        return Poly((float(c),))

    @property
    def degree(self) -> int:
        """Degree; 0 for constants including the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def eval(self, t):
        """Horner evaluation; accepts scalars or numpy arrays."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    __call__ = eval

    def deriv(self) -> "Poly":
        if self.degree == 0:
            return Poly.const(0.0)
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def scale(self, s: float) -> "Poly":
        return Poly(tuple(s * c for c in self.coeffs))

    def shift_scale_arg(self, a: float, h: float) -> "Poly":
        """Return q with q(s) = p(a + h*s)."""
        q = [0.0] * (self.degree + 1)
        for k in range(self.degree + 1):
            acc = 0.0
            for j in range(k, self.degree + 1):
                acc += self.coeffs[j] * math.comb(j, k) * a ** (j - k)
            q[k] = acc * h**k
        return Poly(tuple(q))

    def __add__(self, other):
        other = other if isinstance(other, Poly) else Poly.const(other)
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [0.0] * n
        for k, c in enumerate(self.coeffs):
            cs[k] += c
        for k, c in enumerate(other.coeffs):
            cs[k] += c
        return Poly(tuple(cs))

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        other = other if isinstance(other, Poly) else Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        cs = np.convolve(np.asarray(self.coeffs), np.asarray(other.coeffs))
        return Poly(tuple(cs))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = Poly.const(1.0)
        for _ in range(int(k)):
            out = out * self
        return out

    def max_abs_coeff(self) -> float:
        return max(abs(c) for c in self.coeffs)

    def to_json(self) -> list:
        return list(self.coeffs)

    @staticmethod
    def from_json(data: Iterable[float]) -> "Poly":
        return Poly(tuple(float(c) for c in data))


@dataclass(frozen=True)
class Witness:
    """Grid point where the polynomial goes negative."""

    tau: float
    value: float


def decide_nonneg(p, domain, tol: float = 0.0):
    """The one decision of p >= -tol for a known p, a Poly (or an _Exact):
    (proved, d, least), d the first order of p's degree + RELAX_SCHEDULE
    whose exact Bernstein coefficients on the interval domain (a, b) are all
    >= -tol, else the last, and least the smallest of them, a Fraction.
    The interval is the set between its ends, so (b, a) gets the verdict of
    (a, b), and (a, a) that of the point a.  A point domain, a float t, is
    decided by p(t), as order 0.  Each coefficient after degree elevation is
    a convex combination of those before, so stopping at the first order
    that proves p gives the verdict of the last.  A coefficient, domain end
    or tol that is not finite raises a ValueError that names it."""
    exact = p if isinstance(p, _Exact) else _Exact.of(p.coeffs)
    orders = [len(exact.C) - 1 + r for r in RELAX_SCHEDULE]
    if not isinstance(domain, tuple):
        exact, domain, orders = exact.at(domain), (domain, domain), (0,)
    (num,), e = _dyadic((tol,), "tol")
    den = 1 << e
    for d in orders:
        N, S = _bernstein(exact, domain, d)
        L = math.lcm(*(math.comb(d, i) for i in range(d + 1)))
        least = min(v * (L // math.comb(d, i)) for i, v in enumerate(N))  # L S times the smallest b_i
        proved = least * den >= -num * L * S
        if proved:
            break
    return proved, d, Fraction(least, L * S)


def _bernstein(p, interval: tuple[float, float], d: int, margin: float = 0.0):
    """Exact degree-d Bernstein coefficients b_i of q(s) = (p - margin)(a + h s),
    h = b - a, on s in [0, 1], as integers N_i and a power of two S with
    b_i = N_i / (C(d, i) S); p is a Poly or an _Exact polynomial, and d must
    be at least its degree.

    Floats are dyadic rationals, so with a, b counted in units of 2^-e and the
    coefficients in units of 2^-f, S = 2^(e deg p + f) makes every S q_k an
    integer Q_k, and C(d, i) b_i = sum_k C(d - k, i - k) q_k."""
    exact = (p if isinstance(p, _Exact) else _Exact.of(p.coeffs)) - _Exact.of((margin,))
    C, f = exact.C, exact.e
    (A, B), e = _dyadic(interval, "domain")
    n, H = len(C) - 1, B - A
    Q = [
        H**k * sum(C[j] * math.comb(j, k) * A ** (j - k) << (e * (n - j)) for j in range(k, n + 1))
        for k in range(n + 1)
    ]
    N = [sum(math.comb(d - k, i - k) * Q[k] for k in range(min(i, n) + 1)) for i in range(d + 1)]
    return N, 1 << (e * n + f)


def _dyadic(xs, what: str = "coefficient") -> tuple[list[int], int]:
    """Integers X and the least e >= 0 with X / 2^e equal to each float x; a
    ValueError names `what` if some x is not finite."""
    try:
        ratios = [float(x).as_integer_ratio() for x in xs]
    except (OverflowError, ValueError):
        raise ValueError(f"{what} must be finite, got {[float(x) for x in xs]}") from None
    e = max(den.bit_length() - 1 for _, den in ratios)
    return [num << (e - den.bit_length() + 1) for num, den in ratios], e


@dataclass(frozen=True)
class _Exact:
    """Polynomial with the exact dyadic coefficients C[k] / 2^e: floats, and
    their sums, products and derivatives, without rounding."""

    C: tuple[int, ...]
    e: int = 0

    @staticmethod
    def of(coeffs: Iterable[float]) -> "_Exact":
        C, e = _dyadic(coeffs)
        return _Exact(tuple(C), e)

    def __add__(self, other: "_Exact", sign: int = 1) -> "_Exact":
        e = max(self.e, other.e)
        a, b = ([c << e - p.e for c in p.C] for p in (self, other))
        return _Exact(tuple(x + sign * y for x, y in zip_longest(a, b, fillvalue=0)), e)

    def __sub__(self, other: "_Exact") -> "_Exact":
        return self.__add__(other, -1)

    def __mul__(self, other: "_Exact") -> "_Exact":
        out = [0] * (len(self.C) + len(other.C) - 1)
        for i, a in enumerate(self.C):
            for j, b in enumerate(other.C):
                out[i + j] += a * b
        return _Exact(tuple(out), self.e + other.e)

    def deriv(self) -> "_Exact":
        return _Exact(tuple(k * c for k, c in enumerate(self.C))[1:] or (0,), self.e)

    def at(self, t: float) -> "_Exact":
        """The value at t, as a constant."""
        (T,), g = _dyadic((t,), "domain")
        n = len(self.C) - 1
        return _Exact((sum(c * T**k << g * (n - k) for k, c in enumerate(self.C)),), self.e + g * n)

    def size(self, R: float) -> float:
        """sum_k |C_k| R^k / 2^e, a bound on |p| over [-R, R]."""
        return sum(abs(c) / (1 << self.e) * R**k for k, c in enumerate(self.C))


@lru_cache(maxsize=None)
def product_basis(order: int):
    """Coefficient table of the normalized product basis s^i (1 - s)^j,
    i + j <= order, on s in [0, 1].

    Returns (pairs, terms): pairs lists the (i, j) in cone-column order, and
    terms[k] holds the (pair index, coefficient of s^k) of every product whose
    s^k coefficient is nonzero, in pair order.  It depends on the order alone,
    so each order is expanded once per process.
    """
    pairs = tuple((i, j) for i in range(order + 1) for j in range(order + 1 - i))
    # s^i (1 - s)^j has coefficient (-1)^(k - i) C(j, k - i) at s^k, i <= k <= i + j
    terms = tuple(
        tuple(
            (p, float((-1) ** (k - i) * math.comb(j, k - i)))
            for p, (i, j) in enumerate(pairs)
            if i <= k <= i + j
        )
        for k in range(order + 1)
    )
    return pairs, terms


def falsify_nonneg(
    p: Poly, interval: tuple[float, float], grid_points: int = 10_000
) -> Optional[Witness]:
    """Uniform-grid referee: a Witness where p < 0, or None if the grid minimum is >= 0."""
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    a, b = float(interval[0]), float(interval[1])
    taus = np.linspace(a, b, grid_points)
    vals = p.eval(taus)
    k = int(np.argmin(vals))
    if vals[k] < 0.0:
        return Witness(tau=float(taus[k]), value=float(vals[k]))
    return None
