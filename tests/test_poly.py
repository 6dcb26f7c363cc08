import importlib
import math
import pkgutil
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dwellgain
from conftest import CERTIFY_GRID_T, bernstein_oracle, per_row_certify_at_order
from dwellgain import benchmarks
from dwellgain import lp as lp_mod
from dwellgain.model import lift_switched
from dwellgain.poly import RELAX_SCHEDULE, Poly, _bernstein, decide_nonneg, falsify_nonneg, product_basis

coeff_lists = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=1, max_size=7
)


class TestEval:
    def test_constant_term(self):
        assert Poly((1.0, 2.0, 3.0)).eval(0.0) == 1.0

    def test_identity(self):
        assert Poly((0.0, 1.0)).eval(7.5) == 7.5

    def test_square_root_point(self):
        # (1 - t/2)^2 expanded by hand: 1 - t + t^2/4, zero at t = 2
        p = Poly((1.0, -1.0, 0.25))
        assert p.eval(2.0) == pytest.approx(0.0, abs=1e-15)
        assert p.eval(2.0) == pytest.approx((1.0 - 2.0 / 2.0) ** 2)

    def test_vectorized_matches_scalar(self):
        p = Poly((0.3, -1.2, 0.0, 2.0))
        ts = np.linspace(-2, 2, 17)
        assert np.allclose(p.eval(ts), [p.eval(float(t)) for t in ts])


class TestArithmetic:
    def test_mul_identity_squared(self):
        assert (Poly((0.0, 1.0)) * Poly((0.0, 1.0))).coeffs == (0.0, 0.0, 1.0)

    def test_derivative_power_rule(self):
        assert Poly((1.0, 2.0, 3.0)).deriv().coeffs == (2.0, 6.0)

    def test_add_cancellation_is_zero(self):
        p = Poly((1.0, -2.0, 0.5))
        assert (p + p.scale(-1.0)).is_zero

    def test_canonical_trailing(self):
        assert Poly((1.0, 0.0, 0.0)).coeffs == (1.0,)
        assert Poly((0.0, 0.0)).coeffs == (0.0,)

    def test_mul_eval_consistency_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = Poly(tuple(rng.uniform(-1, 1, size=rng.integers(1, 8))))
            q = Poly(tuple(rng.uniform(-1, 1, size=rng.integers(1, 8))))
            for t in rng.uniform(-2, 2, size=10):
                lhs = (p * q).eval(float(t))
                rhs = p.eval(float(t)) * q.eval(float(t))
                assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))

    def test_derivative_against_central_difference(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(25):
            p = Poly(tuple(rng.uniform(-1, 1, size=rng.integers(2, 8))))
            d = p.deriv()
            for t in rng.uniform(-1.5, 1.5, size=5):
                fd = (p.eval(t + h) - p.eval(t - h)) / (2 * h)
                assert abs(fd - d.eval(float(t))) <= 1e-6

    def test_shift_scale_arg(self):
        p = Poly((1.0, -3.0, 2.0, 0.5))
        q = p.shift_scale_arg(0.3, 0.2)
        for s in np.linspace(0, 1, 7):
            assert q.eval(float(s)) == pytest.approx(p.eval(0.3 + 0.2 * float(s)), abs=1e-12)

    def test_json_round_trip(self):
        p = Poly((1.0, 2.5))
        assert Poly.from_json(p.to_json()) == p

    @given(coeff_lists, coeff_lists, st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    @settings(max_examples=120, deadline=None)
    def test_ring_laws_pointwise(self, a, b, t):
        p, q = Poly(tuple(a)), Poly(tuple(b))
        scale = 1.0 + abs(p.eval(t)) + abs(q.eval(t))
        assert abs((p + q).eval(t) - (p.eval(t) + q.eval(t))) <= 1e-10 * scale
        prod = p.eval(t) * q.eval(t)
        assert abs((p * q).eval(t) - prod) <= 1e-10 * (1.0 + abs(prod))

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=60, deadline=None)
    def test_derivative_is_linear_and_leibniz(self, a, b):
        p, q = Poly(tuple(a)), Poly(tuple(b))
        lhs = (p * q).deriv()
        rhs = p.deriv() * q + p * q.deriv()
        diff = lhs - rhs
        assert diff.max_abs_coeff() <= 1e-9 * (1.0 + p.max_abs_coeff() * q.max_abs_coeff())


def least_at(p, interval, d, margin=0.0):
    """The smallest exact degree-d Bernstein coefficient of p - margin on the
    interval, a Fraction: one order pinned through poly._bernstein."""
    N, S = _bernstein(p, interval, d, margin)
    return min(Fraction(v, math.comb(d, i) * S) for i, v in enumerate(N))


class TestCertify:
    def test_constant_order_zero(self):
        assert least_at(Poly((1.0,)), (0.0, 1.0), 0) == 1
        assert decide_nonneg(Poly((1.0,)), (0.0, 1.0)) == (True, 4, 1)

    def test_basis_element_itself(self):
        p = Poly((0.0, 1.0, -1.0))  # t (1 - t)
        # Bernstein coefficients (0, 1/2, 0): p is 1 times the basis element,
        # so no multiple above 1 of it fits under p
        assert least_at(p, (0.0, 1.0), 2) == 0
        assert least_at(p - p.scale(1.0 + 2.0**-20), (0.0, 1.0), 2) == -Fraction(1, 2**21)
        assert decide_nonneg(p, (0.0, 1.0)) == (True, 6, 0)

    def test_offset_parabola_needs_high_order(self):
        # (t - 0.5)^2 + 0.01: representable only once the order covers the
        # coefficient undershoot (~0.25/order); refused at order 8, proved at 26
        p = Poly((0.26, -1.0, 1.0))
        assert least_at(p, (0.0, 1.0), 8) < 0
        proved, d, least = decide_nonneg(p, (0.0, 1.0))
        assert not proved and d == 12 and least < 0  # the schedule stops at degree + 10
        assert least_at(p, (0.0, 1.0), 26) >= 0
        assert falsify_nonneg(p, (0.0, 1.0)) is None

    def test_margin_shifts_constant(self):
        # p >= margin is p >= -tol at tol = -margin; least is p's own coefficient
        assert least_at(Poly((2.0,)), (0.0, 1.0), 0, margin=0.5) == Fraction(3, 2)
        assert decide_nonneg(Poly((2.0,)), (0.0, 1.0), tol=-0.5) == (True, 4, 2)
        assert not decide_nonneg(Poly((2.0,)), (0.0, 1.0), tol=-2.5)[0]

    def test_degenerate_interval(self):
        # (a, a) is decided at the point a: the same verdict and least
        for p in (Poly((1.0,)), Poly((0.5, -1.0, 0.25)), Poly((-0.25, 0.0, 1.0))):
            for a in (0.0, 0.5, 1.0):
                proved, _, least = decide_nonneg(p, (a, a))
                assert (proved, least) == decide_nonneg(p, a)[::2]
                assert least == Fraction(p(a))

    def test_reversed_interval(self):
        # (b, a) denotes the set between its ends, as (a, b) does
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = Poly(tuple(rng.uniform(-1, 1, size=rng.integers(1, 5))))
            a, b = sorted(rng.uniform(-1, 2, size=2))
            assert decide_nonneg(p, (b, a)) == decide_nonneg(p, (a, b))
        assert decide_nonneg(Poly((-0.5, 1.0)), (1.0, 0.6))[0]
        assert not decide_nonneg(Poly((-0.5, 1.0)), (1.0, 0.4))[0]

    def test_nonconstant_interval(self):
        p = Poly((0.06, 0.1, 1.0))  # strictly positive on [0.3, 0.5]... on [-1,1] too
        assert decide_nonneg(p, (0.3, 0.5))[0]

    def test_order_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            r1, r2 = sorted(rng.uniform(-0.5, 1.5, size=2))
            p = Poly((-r1, 1.0)) * Poly((-r2, 1.0)) + Poly((0.3,))
            schedule = [p.degree + r for r in RELAX_SCHEDULE]
            orders = range(p.degree, schedule[-1] + 1)
            proving = [d for d in orders if least_at(p, (0.0, 1.0), d) >= 0]
            if not proving:
                continue
            first = proving[0]
            assert proving == list(range(first, orders[-1] + 1))  # a higher order never loses it
            # decide_nonneg stops at the first order of its schedule at or above it
            assert decide_nonneg(p, (0.0, 1.0))[:2] == (True, min(d for d in schedule if d >= first))

    def test_soundness_vs_falsifier(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            q = Poly(tuple(rng.uniform(-1, 1, size=4)))
            p = q * q + Poly((float(rng.uniform(0.05, 0.5)),))
            proved, _, least = decide_nonneg(p, (0.0, 1.0))
            if not proved:
                continue
            assert least >= 0
            assert falsify_nonneg(p, (0.0, 1.0)) is None
            grid_min = float(np.min(p.eval(np.linspace(0, 1, 10_000))))
            assert grid_min >= -1e-8 * (1 + p.max_abs_coeff())


def _cone_bernstein(weights, interval, d):
    """Degree-d Bernstein coefficients, in s on [0, 1], of the oracle's cone
    element sum_ij w_ij (t - a)^i (b - t)^j, in exact arithmetic."""
    a, b = interval
    h = Fraction(b) - Fraction(a)
    mono = [Fraction(0)] * (d + 1)  # (t - a)^i (b - t)^j = h^(i+j) s^i (1 - s)^j
    for (i, j), w in weights.items():
        scale = Fraction(w) * h ** (i + j)
        for m in range(j + 1):
            mono[i + m] += scale * (-1) ** m * math.comb(j, m)
    return [
        sum(Fraction(math.comb(i, k), math.comb(d, k)) * c for k, c in enumerate(mono[: i + 1]))
        for i in range(d + 1)
    ]


def assert_exact_matches_lp_oracle(p, interval, margin=0.0):
    """At every order of the default schedule, the exact decision equals the
    product-basis LP's Optimal / not Optimal, or the disagreement is the LP's.

    LP accepts, exact rejects: the smallest Bernstein coefficient b(q) is
    negative, and no lower than -max |b_i(r)|, r = q - c the oracle's residual
    against its own cone element c (b(c) >= 0 term by term, so b(q) >= b(r)).
    Exact accepts, LP rejects: min b(q) is within the LP's 1e-7 tolerance
    (times scale) of 0."""
    a, b = interval
    for d in (p.degree + r for r in (4, 6, 8, 10)):
        exact = least_at(p, interval, d, margin) >= 0
        weights = per_row_certify_at_order(p, a, b, d, margin)
        if exact == (weights is not None):
            continue
        bern = bernstein_oracle(p, interval, d, margin)
        if weights is not None:
            residual = max(abs(x - y) for x, y in zip(bern, _cone_bernstein(weights, interval, d)))
            assert -residual <= min(bern) < 0, (p, interval, d)
        else:
            q = (p - Poly.const(margin)).shift_scale_arg(a, b - a).coeffs
            assert abs(min(bern)) <= 1e-7 * max(1.0, max(map(abs, q))), (p, interval, d)


def _positivity_entries():
    """Every nonconstant entry check_positive reads, on every certify-grid domain."""
    systems = [getattr(benchmarks, name)() for name in (
        "lti_jump_bench", "timer_growth_bench", "timer_stable_bench",
        "unstable_chain_plant", "unstable_pair_plant",
    )]
    systems.append(lift_switched(benchmarks.two_mode_switched_bench()))
    polys = set()
    for s in systems:
        polys |= {s.A.entry(i, j) for i in range(s.n) for j in range(s.n) if i != j}
        for mat in (s.Ec, s.Cc, s.Fc):
            polys |= {mat.entry(i, j) for i in range(mat.shape[0]) for j in range(mat.shape[1])}
    horizons = sorted(set(CERTIFY_GRID_T) | {float(f"{1.5 * T:.5g}") for T in CERTIFY_GRID_T})
    return [(p, (0.0, T)) for p in sorted(polys, key=lambda p: p.coeffs) if p.degree > 0
            for T in horizons]


class TestExactDecision:
    """decide_nonneg decides by exact Bernstein coefficients, without an LP."""

    def test_matches_lp_oracle_on_positivity_entries(self):
        entries = _positivity_entries()
        assert len(entries) >= 12
        for p, interval in entries:
            assert_exact_matches_lp_oracle(p, interval)

    @settings(max_examples=60, deadline=None)
    @example(q=[-1e-5, 0.0, 0.25], offset=1e-9, interval=(0.0, 1.0))
    @given(
        q=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
        offset=st.sampled_from([1e-9, 1e-7, 1e-5, 1e-3, 0.05, 0.3]),
        interval=st.sampled_from([(0.0, 1.0), (0.0, 3.0), (0.3, 0.5), (-0.25, 1.5)]),
    )
    def test_matches_lp_oracle_on_squares(self, q, offset, interval):
        root = Poly(tuple(q))
        assert_exact_matches_lp_oracle(root * root + Poly((offset,)), interval)

    def test_constant_at_its_margin(self):
        # 1 >= margin 1 holds exactly, 1 >= the next float above 1 does not
        assert decide_nonneg(Poly((1.0,)), (0.0, 1.0), tol=-1.0) == (True, 4, 1)
        assert not decide_nonneg(Poly((1.0,)), (0.0, 1.0), tol=-math.nextafter(1.0, 2.0))[0]

    def test_zero_bernstein_coefficient_is_accepted(self):
        # t^2 on [0, 1]: b_0 = 0 at every order
        assert decide_nonneg(Poly((0.0, 0.0, 1.0)), (0.0, 1.0)) == (True, 6, 0)

    def test_min_coefficient_is_smallest_bernstein_coefficient(self):
        # 1 + t on [1, 3] at order 1: q(s) = 2 + 2s, b = (2, 4), h = 2
        assert least_at(Poly((1.0, 1.0)), (1.0, 3.0), 1) == 2
        assert decide_nonneg(Poly((1.0, 1.0)), (1.0, 3.0)) == (True, 5, 2)
        # t - 5 on [1, 3]: q(s) = -4 + 2s, b = (-4, -2); every order ends at -4
        assert least_at(Poly((-5.0, 1.0)), (1.0, 3.0), 1) == -4
        assert decide_nonneg(Poly((-5.0, 1.0)), (1.0, 3.0)) == (False, 11, -4)

    def test_solves_no_lp(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("decide_nonneg must not build or solve an LP")

        monkeypatch.setattr(lp_mod, "lp_solve", forbidden)
        monkeypatch.setattr(lp_mod, "LinearProgram", forbidden)
        assert decide_nonneg(Poly((1.0, -1.0, 0.27)), (0.0, 3.0))[:2] == (True, 10)
        assert not decide_nonneg(Poly((0.26, -1.0, 1.0)), (0.0, 1.0))[0]

    @pytest.mark.parametrize("interval, tol, coeffs", [
        ((0.0, math.inf), 0.0, (1.0, 1.0)),
        ((-math.inf, 0.0), 0.0, (1.0,)),
        ((0.0, 1.0), math.inf, (1.0,)),
        ((0.0, 1.0), 0.0, (1.0, math.nan)),
    ])
    def test_non_finite_input(self, interval, tol, coeffs):
        what = "domain" if not all(map(math.isfinite, interval)) else "tol" if tol else "coefficient"
        with pytest.raises(ValueError, match=f"^{what} must be finite"):
            decide_nonneg(Poly(coeffs), interval, tol)

    @pytest.mark.parametrize("point, tol", [(math.nan, 0.0), (math.inf, 0.0), (0.5, math.nan), (0.5, -math.inf)])
    def test_non_finite_point_or_tol(self, point, tol):
        with pytest.raises(ValueError, match="^(domain|tol) must be finite"):
            decide_nonneg(Poly((1.0, 1.0)), point, tol)


# nonzero coefficients from 1e-9 to 1e3 in magnitude, either sign
magnitudes = st.builds(
    lambda m, neg: -m if neg else m, st.floats(1e-9, 1e3), st.booleans()
)


class TestBernstein:
    """_bernstein's integers against the Fraction oracle, and the row proof."""

    @settings(max_examples=150, deadline=None)
    @given(
        coeffs=st.lists(magnitudes, min_size=1, max_size=9),
        extra=st.integers(0, 10),
        a=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
        width=st.floats(1e-3, 5.0),
        margin=st.sampled_from([0.0, 1e-6, 1e-2, 0.3]),
    )
    def test_matches_fraction_oracle(self, coeffs, extra, a, width, margin):
        p = Poly(tuple(coeffs))
        interval = (a, a + width)
        d = p.degree + extra
        N, S = _bernstein(p, interval, d, margin)
        assert S & (S - 1) == 0
        got = [Fraction(v, math.comb(d, i) * S) for i, v in enumerate(N)]
        assert got == bernstein_oracle(p, interval, d, margin)

    def test_exact_boundary(self):
        # t^2 on [0, 1] at order 2 has Bernstein coefficients (0, 0, 1)
        assert least_at(Poly((0.0, 0.0, 1.0)), (0.0, 1.0), 2) == 0
        assert least_at(Poly((-(2.0**-60), 0.0, 1.0)), (0.0, 1.0), 2) == -Fraction(1, 2**60)
        assert decide_nonneg(Poly((0.0, 0.0, 1.0)), (0.0, 1.0))[0]
        assert not decide_nonneg(Poly((-(2.0**-60), 0.0, 1.0)), (0.0, 1.0))[0]

    def test_tol_boundary(self):
        # -0.375 + 0.5 t is -0.125 at t = 0.5, its smallest Bernstein coefficient on [0.5, 2]
        assert decide_nonneg(Poly((1.0, -1.0, 0.5)), (0.5, 2.0))[0]
        assert decide_nonneg(Poly((-0.375, 0.5)), (0.5, 2.0), tol=0.125) == (True, 5, Fraction(-1, 8))
        assert not decide_nonneg(Poly((-0.375, 0.5)), (0.5, 2.0), tol=math.nextafter(0.125, 0.0))[0]

    def test_unprovable_targets(self):
        # negative somewhere: no order proves it, and the last one is reported
        for p, interval in ((Poly((1.0, 0.0, 0.0, -1.0)), (0.0, 1.5)), (Poly((0.2, -1.0, 1.0)), (0.0, 1.0))):
            proved, d, least = decide_nonneg(p, interval)
            assert not proved and d == p.degree + 10 and least < 0
            assert falsify_nonneg(p, interval) is not None
        # a point where p is negative
        assert decide_nonneg(Poly((0.2, -1.0, 1.0)), 0.5) == (False, 0, Fraction(0.2) - Fraction(1, 4))


class TestFalsify:
    def test_linear_negative_left(self):
        w = falsify_nonneg(Poly((-0.5, 1.0)), (0.0, 1.0), 1001)
        assert w is not None
        assert w.tau == pytest.approx(0.0)
        assert w.value == pytest.approx(-0.5)

    def test_positive_constant(self):
        assert falsify_nonneg(Poly((1.0,)), (0.0, 1.0)) is None

    def test_parabola_below_level(self):
        # max of t(1-t) on [0,1] is 0.25 < 0.3 (vertex of the parabola)
        w = falsify_nonneg(Poly((-0.3, 1.0, -1.0)), (0.0, 1.0), 1001)
        assert w is not None and w.value < 0

    def test_grid_points_validation(self):
        with pytest.raises(ValueError):
            falsify_nonneg(Poly((1.0,)), (0.0, 1.0), 1)


@pytest.mark.parametrize("order", range(15))
def test_product_basis_table_matches_expansion(order):
    pairs = [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]
    coeffs = [((Poly((0.0, 1.0)) ** i) * (Poly((1.0, -1.0)) ** j)).coeffs for i, j in pairs]
    table_pairs, terms = product_basis(order)
    assert list(table_pairs) == pairs and len(terms) == order + 1
    for k, basis_k in enumerate(terms):
        want = [(p, bc[k]) for p, bc in enumerate(coeffs) if k < len(bc) and bc[k] != 0.0]
        assert list(basis_k) == want



@pytest.mark.parametrize("name", ["dwellgain"] + [f"dwellgain.{m.name}" for m in pkgutil.iter_modules(dwellgain.__path__)])
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.__all__ lists {attr}, which it does not define"
