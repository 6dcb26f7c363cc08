import numpy as np
import pytest

from conftest import assert_same_assembly, lil_assemble
from dwellgain.analysis import analyze_arbitrary
from dwellgain.errors import Infeasible
from dwellgain.lp import (
    LinearProgram,
    LinExpr,
    PolyExpr,
    _assemble,
    dump_lp,
    lp_bisect_feasibility,
    lp_solve,
)


def test_minimize_bounded_scalar():
    lp = LinearProgram()
    g = lp.new_var(lo=0.0)
    lp.add_ge({g: 1.0}, 3.0)
    lp.set_objective({g: 1.0})
    sol = lp_solve(lp)
    assert sol.status == "Optimal"
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)


def test_infeasible_box():
    lp = LinearProgram()
    x = lp.new_var()
    lp.add_ge({x: 1.0}, 1.0)
    lp.add_le({x: 1.0}, 0.0)
    assert lp_solve(lp).status == "Infeasible"


def test_two_var_vertex():
    # vertices of {x + 2y >= 2, x,y >= 0}: (2,0) value 2 and (0,1) value 1
    lp = LinearProgram()
    x = lp.new_var(lo=0.0)
    y = lp.new_var(lo=0.0)
    lp.add_ge({x: 1.0, y: 2.0}, 2.0)
    lp.set_objective({x: 1.0, y: 1.0})
    sol = lp_solve(lp)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    assert sol.x == pytest.approx([0.0, 1.0], abs=1e-8)


def test_optimal_solutions_feasible_within_tolerance():
    rng = np.random.default_rng(1)
    lp = LinearProgram()
    xs = [lp.new_var(lo=0.0, hi=10.0) for _ in range(6)]
    rows = []
    for _ in range(8):
        coeffs = {v: float(rng.normal()) for v in xs}
        rhs = float(rng.uniform(1, 3))
        lp.add_le(coeffs, rhs)
        rows.append((coeffs, rhs))
    lp.set_objective({xs[0]: -1.0})
    sol = lp_solve(lp)
    assert sol.status == "Optimal"
    for coeffs, rhs in rows:
        assert sum(c * sol.x[v] for v, c in coeffs.items()) <= rhs + 1e-7


def test_bisect_synthetic():
    def builder(g):
        lp = LinearProgram()
        v = lp.new_var()
        lp.add_ge({v: 0.0}, 2.0 - g)  # feasible iff g >= 2
        return lp

    g = lp_bisect_feasibility(builder, 0.0, 10.0, tol=1e-3)
    assert 2.0 <= g <= 2.001 + 1e-12


def test_bisect_never_feasible():
    def builder(g):
        lp = LinearProgram()
        v = lp.new_var()
        lp.add_ge({v: 0.0}, 1.0)  # 0 >= 1: never feasible
        return lp

    with pytest.raises(Infeasible):
        lp_bisect_feasibility(builder, 0.0, 5.0)


def test_bisect_agrees_with_direct_minimization(bench_lti):
    """Bisection referee on the arbitrary dwell-time program."""
    direct = analyze_arbitrary(bench_lti).gamma

    A = bench_lti.A.const()
    Ec1 = bench_lti.Ec.const().sum(axis=1)
    Cc = bench_lti.Cc.const()
    Fc1 = bench_lti.Fc.const().sum(axis=1)
    jm = bench_lti.jump
    n = 2

    def builder(g):
        lp = LinearProgram()
        lam = [lp.new_var(lo=1e-9) for _ in range(n)]
        for i in range(n):
            lp.add_le({lam[j]: A[i, j] for j in range(n)}, -Ec1[i] - 1e-6)
        for i in range(Cc.shape[0]):
            lp.add_le({lam[j]: Cc[i, j] for j in range(n)}, g - Fc1[i] - 1e-6)
        JmI = jm.J - np.eye(n)
        for i in range(n):
            lp.add_le({lam[j]: JmI[i, j] for j in range(n)}, -jm.Ed.sum(axis=1)[i] - 1e-2)
        for i in range(jm.Cd.shape[0]):
            lp.add_le({lam[j]: jm.Cd[i, j] for j in range(n)}, g - jm.Fd.sum(axis=1)[i] - 1e-6)
        return lp

    g_bisect = lp_bisect_feasibility(builder, 0.0, 10.0, tol=1e-4)
    assert g_bisect == pytest.approx(direct, abs=2e-4)
    assert g_bisect == pytest.approx(1.925, rel=1e-3)


def test_dump_lp(tmp_path):
    lp = LinearProgram()
    x = lp.new_var(lo=0.0, name="x")
    lp.add_ge({x: 1.0}, 1.0)
    lp.set_objective({x: 1.0})
    path = tmp_path / "prog.lp"
    dump_lp(lp, str(path))
    text = path.read_text()
    assert "Minimize" in text and "Subject To" in text and "x" in text


class TestAssembly:
    """The COO assembly against the lil_matrix oracle, edge cases included."""

    @staticmethod
    def _program(le_rows, eq_rows, num_vars=4):
        lp = LinearProgram(num_vars=num_vars)
        lp.set_objective({0: 1.0, 2: -3.0})
        lp.set_bounds(1, 0.0, None)
        for coeffs, rhs in le_rows:
            lp.add_le(coeffs, rhs)
        for coeffs, rhs in eq_rows:
            lp.add_eq(coeffs, rhs)
        return lp

    @pytest.mark.parametrize(
        "le_rows, eq_rows",
        [
            ([({0: 2.0, 3: -8.0}, 1.0), ({1: 0.5}, -2.0)], [({2: 3.0, 0: -1.5}, 0.25)]),
            ([], [({3: 1e-3, 1: 7.0}, 3.0), ({0: -2.0}, 1.0)]),  # no <= rows
            ([({2: 5.0, 1: -5.0}, 0.5)], []),  # no = rows
            ([({}, 1.0), ({0: 4.0}, 2.0)], [({}, 0.0), ({1: -1.0}, 0.5)]),  # empty row dicts
            ([], []),
            # 1e-300 / 1e300 underflows to 0.0 after scaling; the entry is dropped
            ([({0: 1e300, 1: 1e-300}, 1.0)], [({2: 1e-300, 3: -1e300}, 2.0)]),
        ],
    )
    def test_matches_lil_oracle(self, le_rows, eq_rows):
        lp = self._program(le_rows, eq_rows)
        assert_same_assembly(_assemble(lp), lil_assemble(lp))

    def test_interleaved_rows_keep_their_order(self):
        rng = np.random.default_rng(3)
        lp = LinearProgram(num_vars=30)
        for r in range(200):
            cols = rng.choice(30, size=int(rng.integers(0, 8)), replace=False)
            coeffs = {int(v): float(rng.normal() * 10.0 ** rng.integers(-6, 6)) for v in cols}
            (lp.add_eq if r % 3 == 0 else lp.add_ge)(coeffs, float(rng.normal()))
        assert_same_assembly(_assemble(lp), lil_assemble(lp))


class TestAffineExpressions:
    def test_linexpr_value(self):
        e = LinExpr({0: 2.0, 3: -1.0}, 0.5)
        x = np.array([1.0, 0.0, 0.0, 4.0])
        assert e.value(x) == pytest.approx(2.0 - 4.0 + 0.5)

    def test_polyexpr_mul_eval(self):
        # vars as coefficients: p(t) = x0 + x1 t; data poly d(t) = 1 + 2t
        p = PolyExpr.from_vars([0, 1])
        q = p.mul_poly([1.0, 2.0])
        x = np.array([3.0, -1.0])
        concrete = q.value(x)
        for t in (0.0, 0.7, 2.0):
            assert concrete.eval(t) == pytest.approx((3.0 - t) * (1.0 + 2.0 * t))

    def test_polyexpr_deriv_and_shift(self):
        p = PolyExpr.from_vars([0, 1, 2])
        x = np.array([1.0, -2.0, 0.5])
        assert p.deriv().value(x).coeffs == pytest.approx((-2.0, 1.0))
        shifted = p.shift_scale_arg(0.5, 2.0).value(x)
        base = p.value(x)
        for s in (0.0, 0.3, 1.0):
            assert shifted.eval(s) == pytest.approx(base.eval(0.5 + 2.0 * s))
