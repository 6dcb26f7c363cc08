import importlib.machinery
import importlib.util
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import (
    add_eq,
    add_ge,
    add_le,
    assert_same_assembly,
    assert_same_outcome,
    csr_assemble,
    lil_assemble,
    linprog_solve,
    solve_outcome,
    spy_relaxations,
)
from dwellgain import analysis as analysis_mod
from dwellgain import lp as lp_mod
from dwellgain.analysis import (
    RELAX_SCHEDULE,
    analyze_constant,
    analyze_minimum,
    analyze_range,
    analyze_switched_min,
)
from dwellgain.errors import DwellgainError, Infeasible, NumericalFailure, RelaxationLimit
from dwellgain.lp import (
    LinearProgram,
    _assemble,
    dump_lp,
    lp_solve,
)
from dwellgain.model import DwellTimeSpec
from dwellgain.synthesis import synthesize


def test_minimize_bounded_scalar():
    lp = LinearProgram()
    g = lp.new_var(lo=0.0)
    add_ge(lp, {g: 1.0}, 3.0)
    lp.objective = {g: 1.0}
    sol = lp_solve(lp)
    assert sol.status == "Optimal"
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)


def test_infeasible_box():
    lp = LinearProgram()
    x = lp.new_var()
    add_ge(lp, {x: 1.0}, 1.0)
    add_le(lp, {x: 1.0}, 0.0)
    assert lp_solve(lp).status == "Infeasible"


def test_two_var_vertex():
    # vertices of {x + 2y >= 2, x,y >= 0}: (2,0) value 2 and (0,1) value 1
    lp = LinearProgram()
    x = lp.new_var(lo=0.0)
    y = lp.new_var(lo=0.0)
    add_ge(lp, {x: 1.0, y: 2.0}, 2.0)
    lp.objective = {x: 1.0, y: 1.0}
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
        add_le(lp, coeffs, rhs)
        rows.append((coeffs, rhs))
    lp.objective = {xs[0]: -1.0}
    sol = lp_solve(lp)
    assert sol.status == "Optimal"
    for coeffs, rhs in rows:
        assert sum(c * sol.x[v] for v, c in coeffs.items()) <= rhs + 1e-7


def test_dump_lp(tmp_path):
    lp = LinearProgram()
    x = lp.new_var(lo=0.0, name="x")
    add_ge(lp, {x: 1.0}, 1.0)
    lp.objective = {x: 1.0}
    path = tmp_path / "prog.lp"
    dump_lp(lp, str(path))
    text = path.read_text()
    assert "Minimize" in text and "Subject To" in text and "x" in text


class TestAssembly:
    """The COO assembly against the lil_matrix oracle, edge cases included."""

    @staticmethod
    def _program(le_rows, eq_rows, num_vars=4):
        lp = LinearProgram(num_vars=num_vars, objective={0: 1.0, 2: -3.0}, bounds={1: (0.0, None)})
        for coeffs, rhs in le_rows:
            add_le(lp, coeffs, rhs)
        for coeffs, rhs in eq_rows:
            add_eq(lp, coeffs, rhs)
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
        assert_same_outcome(solve_outcome(lp_solve, lp), solve_outcome(linprog_solve, lp))

    def test_interleaved_rows_keep_their_order(self):
        rng = np.random.default_rng(3)
        lp = LinearProgram(num_vars=30)
        for r in range(200):
            cols = rng.choice(30, size=int(rng.integers(0, 8)), replace=False)
            coeffs = {int(v): float(rng.normal() * 10.0 ** rng.integers(-6, 6)) for v in cols}
            (add_eq if r % 3 == 0 else add_ge)(lp, coeffs, float(rng.normal()))
        assert_same_assembly(_assemble(lp), lil_assemble(lp))
        assert_same_outcome(solve_outcome(lp_solve, lp), solve_outcome(linprog_solve, lp))


class TestRowChecks:
    @pytest.mark.parametrize("add", ["add_le", "add_ge", "add_eq"])
    @pytest.mark.parametrize("v", [-1, 3])
    def test_unknown_variable(self, add, v):
        # the one-row block each of conftest.add_le/add_ge/add_eq hands over
        rel, sign = {"add_le": ("<=", 1.0), "add_ge": ("<=", -1.0), "add_eq": ("=", 1.0)}[add]
        lp = LinearProgram(num_vars=3)
        with pytest.raises(ValueError, match=f"unknown variable {v}"):
            lp.add_rows(rel, np.array([0, 2]), np.array(sorted([0, v])), np.array([sign, 2.0 * sign]),
                        np.array([sign]))
        assert lp.rows == []

    def test_unknown_relation(self):
        lp = LinearProgram(num_vars=3)
        with pytest.raises(ValueError, match="unknown row relation '>='"):
            lp.add_rows(">=", np.array([0, 1]), np.array([0]), np.array([1.0]), np.array([1.0]))
        assert lp.rows == []

    def test_rows_keep_order_and_drop_zeros(self):
        # the one-row blocks of conftest.add_le/add_ge/add_eq read back in
        # the order added, each row's columns in ascending order
        lp = LinearProgram(num_vars=4)
        coeffs = {3: np.float64(2.5), 0: 0.0, 1: 4, 2: -0.0}
        add_le(lp, coeffs, 1)
        add_ge(lp, coeffs, 1)
        add_eq(lp, coeffs, 1)
        for row, rel, sign in zip(lp.rows, ("<=", "<=", "="), (1.0, -1.0, 1.0)):
            assert row[1] == rel and row[2] == sign
            assert list(row[0].items()) == [(1, sign * 4.0), (3, sign * 2.5)]
            assert all(type(c) is float for c in row[0].values())

    def test_blocks_read_back_row_by_row(self):
        """rows, bounds and names read a program of blocks and column
        ranges as they read one built row by row and column by column."""
        lp = LinearProgram(num_vars=2, objective={0: 1.0}, bounds={1: (None, 3.0)}, names={0: "g"})
        start = lp.add_columns(0.0, None, ["f0", "f1"], ("_b0", "_b1", "_b2"))
        assert (start, lp.num_vars) == (2, 8)
        lp.add_rows("<=", np.array([0, 1, 1]), np.array([1]), np.array([-2.0]), np.array([-0.0, 5.0]))
        lp.add_rows("=", np.array([0, 2]), np.array([0, 7]), np.array([0.5, -1.0]), np.array([1e-6]))
        rows = lp.rows
        assert rows == [({1: -2.0}, "<=", -0.0), ({}, "<=", 5.0), ({0: 0.5, 7: -1.0}, "=", 1e-6)]
        assert math.copysign(1.0, rows[0][2]) == -1.0
        assert dict(lp.bounds) == {1: (None, 3.0), **{v: (0.0, None) for v in range(2, 8)}}
        assert dict(lp.names) == {0: "g", 2: "f0_b0", 3: "f0_b1", 4: "f0_b2", 5: "f1_b0", 6: "f1_b1", 7: "f1_b2"}
        assert lp.names.get(1, "x1") == "x1" and 8 not in lp.bounds
        copy = lp.copy()
        copy.new_var(name="extra")
        add_le(copy, {8: 1.0}, 0.0)
        assert lp.num_vars == 8 and len(lp.rows) == 3 and 8 not in lp.names


@pytest.fixture
def oracle_pairs(monkeypatch):
    """(lp_solve outcome, linprog oracle outcome) of every LP solved while
    the fixture is active, through analysis and poly alike."""
    pairs = []
    real = lp_mod.lp_solve

    def spy(prog):
        want = solve_outcome(linprog_solve, prog)
        try:
            sol = real(prog)
        except (ValueError, NumericalFailure) as exc:
            pairs.append((type(exc), want))
            raise
        pairs.append(((sol.status, sol.x, sol.objective_value), want))
        return sol

    monkeypatch.setattr(lp_mod, "lp_solve", spy)
    monkeypatch.setattr(analysis_mod, "lp_solve", spy)
    return pairs


def _outcome_classes(pairs):
    return {got if isinstance(got, type) else got[0] for got, _ in pairs}


def _tiny_rows(lp):
    # 3.5e-28 x <= 1 and 3.5e-28 x >= 1.5: infeasible, scaled bounds ~3e27
    x = lp.new_var()
    add_le(lp, {x: 3.5e-28}, 1.0)
    add_ge(lp, {x: 3.5e-28}, 1.5)


def _huge_row(lp):
    # min -x s.t. 1e-28 x <= 1, x >= 1e19: optimum x = 1e28, but HiGHS
    # would read the scaled bound 1e28 as infinite and answer Unbounded
    x = lp.new_var(lo=1e19)
    lp.objective = {x: -1.0}
    add_le(lp, {x: 1e-28}, 1.0)


def _huge_column(lp):
    # the same program with the upper bound as the column bound 1e30
    x = lp.new_var(lo=1e19, hi=1e30)
    lp.objective = {x: -1.0}


def _huge_eq_row_after_le_row(lp):
    # = row c0 is assembled after <= row c1, and is named c0 all the same
    x = lp.new_var()
    add_eq(lp, {x: 1e-25}, 1.0)
    add_le(lp, {x: 1.0}, 3.0)


class TestLinprogOracle:
    """lp_solve against scipy's linprog(method="highs") with the same checks:
    the same status or error class, a bit-equal x and an equal objective."""

    @staticmethod
    def _assert_all_same(pairs):
        assert pairs
        for got, want in pairs:
            assert_same_outcome(got, want)

    @staticmethod
    def _analyze(s, kind, T, degree):
        if kind == "range":
            return analyze_range(s, T, 1.5 * T, degree)
        if kind == "constant":
            return analyze_constant(s, T, degree)
        return analyze_minimum(s, T, degree)

    # with the unstable-orbit test on, every timer_growth minimum analysis
    # below is refused before any LP is built (test_orbit_test_refuses_inputs)
    @pytest.mark.usefixtures("orbit_test_off")
    @pytest.mark.parametrize("degree", [2, 4])
    @pytest.mark.parametrize("kind", ["constant", "minimum", "range"])
    @pytest.mark.parametrize("bench", ["bench_timer_growth", "bench_timer_stable"])
    def test_analyses(self, request, oracle_pairs, bench, kind, degree):
        s = request.getfixturevalue(bench)
        for T in (0.12, 0.5, 1.9):
            try:
                self._analyze(s, kind, T, degree)
            except DwellgainError:
                pass
        self._assert_all_same(oracle_pairs)

    @pytest.mark.usefixtures("orbit_test_off")
    @pytest.mark.parametrize("T, relax, error, message", [
        (0.2, 10, RelaxationLimit, r"^interval relaxation exhausted at order \+10 while the sampled referee stays "
                                   r"feasible \[order \+10: NumericalFailure \(solution violates constraints by "),
        (0.12, 4, NumericalFailure, r"^sampled referee failed numerically \[order \+4: NumericalFailure \(solution "
                                    r"violates constraints by .*; referee: NumericalFailure \("),
    ], ids=["relaxation-limit", "referee-fails"])
    def test_escalation_failures(self, oracle_pairs, bench_timer_growth, bench_timer_stable, T, relax, error, message):
        # each order of the default schedule alone ends Infeasible, its referee
        # infeasible too; the degree-8 timer_growth analysis at dwell T fails
        # the 1e-7 recheck at its one order, and then its referee stays
        # feasible (relaxation-limit) or fails the recheck too (referee-fails).
        # A second LP phase after a failed recheck or a scale-aware acceptance
        # test (ROADMAP items 1 and 3) changes which answers fail the recheck,
        # and so which inputs reach these ends.  With the unstable-orbit test
        # on, the timer_stable inputs are refused before any LP is built
        # (test_orbit_test_refuses_inputs)
        for order in RELAX_SCHEDULE:
            with pytest.raises(Infeasible):
                analyze_constant(bench_timer_stable, 0.12, 8, relax_schedule=(order,))
        with pytest.raises(error, match=message):
            analyze_constant(bench_timer_growth, T, 8, relax_schedule=(relax,))
        assert {NumericalFailure, "Infeasible"} <= _outcome_classes(oracle_pairs)
        self._assert_all_same(oracle_pairs)

    @pytest.mark.parametrize("degree", [2, 4, 6])
    def test_orbit_test_refuses_inputs(self, oracle_pairs, bench_timer_growth, bench_timer_stable, degree):
        """The inputs above that lose their LPs to the unstable-orbit test
        raise its Infeasible, with no LP solved."""
        for T in (0.12, 0.5, 1.9):
            with pytest.raises(Infeasible, match=r"^conditions infeasible \(A\(T\) is not Hurwitz at T = "):
                self._analyze(bench_timer_growth, "minimum", T, degree)
        for relax in RELAX_SCHEDULE:
            with pytest.raises(Infeasible, match=r"^conditions infeasible \(rho\(J Phi\(theta\)\) >= 3\.122 at theta = 0\.12\)$"):
                analyze_constant(bench_timer_stable, 0.12, degree, relax_schedule=(relax,))
        with pytest.raises(Infeasible, match=r"^conditions infeasible \(rho\(J Phi\(theta\)\) >= 2\.043 at theta = 0\.5\)$"):
            analyze_range(bench_timer_stable, 0.5, 0.75, degree, relax_schedule=(10,))
        assert oracle_pairs == []

    def test_switched_min(self, oracle_pairs, bench_switched):
        for T in (0.3, 1.0):
            analyze_switched_min(bench_switched, T, 4)
        self._assert_all_same(oracle_pairs)

    def test_synthesize(self, oracle_pairs, bench_chain_plant):
        # three relaxation orders fail the 1e-7 recheck before one certifies
        synthesize(bench_chain_plant, DwellTimeSpec.constant(0.1), 2)
        assert {NumericalFailure, "Optimal"} <= _outcome_classes(oracle_pairs)
        self._assert_all_same(oracle_pairs)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_programs(self, data):
        n = data.draw(st.integers(1, 5))
        coef = st.sampled_from([0.0, 1.0, -1.0, 2.0, -0.5]) | st.floats(-4.0, 4.0)
        # a point x0 inside every bound makes the rows feasible; a clashing
        # pair of rows makes them infeasible; free columns may leave it unbounded
        x0 = [data.draw(st.floats(-3.0, 3.0)) for _ in range(n)]
        lp = LinearProgram()
        for v in range(n):
            kind = data.draw(st.sampled_from(["free", "lower", "upper", "boxed"]))
            lo = x0[v] - data.draw(st.floats(0.0, 2.0))
            hi = x0[v] + data.draw(st.floats(0.0, 2.0))
            lp.new_var(
                lo=lo if kind in ("lower", "boxed") else None,
                hi=hi if kind in ("upper", "boxed") else None,
            )
        lp.objective = {v: data.draw(coef) for v in range(n)}
        for _ in range(data.draw(st.integers(0, 5))):
            row = {v: data.draw(coef) for v in data.draw(st.sets(st.integers(0, n - 1)))}
            at_x0 = sum(c * x0[v] for v, c in row.items())
            rel = data.draw(st.sampled_from(["le", "ge", "eq"]))
            if rel == "eq":
                add_eq(lp, row, at_x0)
            else:
                gap = data.draw(st.floats(0.0, 2.0))
                (add_le if rel == "le" else add_ge)(lp, row, at_x0 + gap if rel == "le" else at_x0 - gap)
        if data.draw(st.booleans()):
            row = {v: data.draw(coef) for v in range(n)}
            add_le(lp, row, 1.0)
            add_ge(lp, row, 1.5)
        assert_same_outcome(solve_outcome(lp_solve, lp), solve_outcome(linprog_solve, lp))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["coefficient", "rhs", "objective"])
    def test_non_finite_input(self, where, bad):
        lp = LinearProgram()
        x = lp.new_var(lo=0.0)
        y = lp.new_var()
        lp.objective = {x: bad if where == "objective" else 1.0}
        add_ge(lp, {x: 1.0, y: bad if where == "coefficient" else 1.0}, bad if where == "rhs" else 1.0)
        with pytest.raises(ValueError):
            lp_solve(lp)
        assert solve_outcome(linprog_solve, lp) is ValueError

    def test_model_error_is_not_infeasible(self):
        # min x over x <= -1e28, unbounded: the scaled row bound lies beyond
        # HiGHS's infinite bound, HiGHS rejects the model, and linprog used
        # to call the program infeasible
        lp = LinearProgram()
        x = lp.new_var()
        lp.objective = {x: 1.0}
        add_le(lp, {x: 1e-28}, -1.0)
        with pytest.raises(NumericalFailure, match=r"row c0 scaled to unit norm has bound -1e\+28"):
            lp_solve(lp)
        c, A_ub, b_ub, _, _, bounds = csr_assemble(lp)
        assert linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs").status == 2

    @pytest.mark.parametrize("build, message, linprog_status", [
        (_tiny_rows, r"row c0 scaled to unit norm has bound 2\.85714e\+27, beyond 1e\+20", 2),
        (_huge_row, r"row c0 scaled to unit norm has bound 1e\+28, beyond 1e\+20", 3),
        (_huge_column, r"column x0 has upper bound 1e\+30, beyond 1e\+20", 3),
        (_huge_eq_row_after_le_row, r"row c0 scaled to unit norm has bound 1e\+25", 2),
    ])
    def test_bound_beyond_highs_infinity_is_refused(self, build, message, linprog_status):
        lp = LinearProgram()
        build(lp)
        with pytest.raises(NumericalFailure, match=message):
            lp_solve(lp)
        assert solve_outcome(linprog_solve, lp) is NumericalFailure
        # what HiGHS makes of the program when it is handed over as it is
        c, A_ub, b_ub, A_eq, b_eq, bounds = csr_assemble(lp)
        res = linprog(
            c,
            A_ub=A_ub if A_ub.shape[0] else None,
            b_ub=b_ub if A_ub.shape[0] else None,
            A_eq=A_eq if A_eq.shape[0] else None,
            b_eq=b_eq if A_eq.shape[0] else None,
            bounds=bounds,
            method="highs",
        )
        assert res.status == linprog_status

    def test_subnormal_row_bound_overflow_is_refused(self):
        # the rows of _tiny_rows with a subnormal coefficient: scaling sends
        # both bounds past the float range, with no RuntimeWarning
        lp = LinearProgram()
        x = lp.new_var()
        add_le(lp, {x: 2.2250738585e-313}, 1.0)
        add_ge(lp, {x: 2.2250738585e-313}, 1.5)
        with pytest.raises(NumericalFailure, match=r"row c0 scaled to unit norm has bound inf, beyond 1e\+20"):
            lp_solve(lp)
        assert solve_outcome(linprog_solve, lp) is NumericalFailure

    @pytest.mark.parametrize("cost", [1e25, -1e25])
    def test_cost_beyond_highs_infinity_is_refused(self, cost):
        # min cost * x over 1 <= x <= 2: HiGHS reads the cost as infinite
        lp = LinearProgram()
        x = lp.new_var(lo=1.0, hi=2.0, name="gamma")
        lp.objective = {x: cost}
        with pytest.raises(NumericalFailure, match=re.escape(f"column gamma has cost {cost:g}, beyond 1e+20")):
            lp_solve(lp)
        assert solve_outcome(linprog_solve, lp) is NumericalFailure
        # linprog calls it Optimal, with an infinite objective
        c, _, _, _, _, bounds = csr_assemble(lp)
        res = linprog(c, bounds=bounds, method="highs")
        assert res.status == 0 and res.fun == math.copysign(math.inf, cost)

    def test_no_variables(self):
        lp = LinearProgram()
        add_le(lp, {}, 1.0)
        with pytest.raises(ValueError, match="no variables"):
            lp_solve(lp)
        assert solve_outcome(linprog_solve, lp) is ValueError


class _TamperedHighs:
    """The binding's solver, with its answer or status altered after the run."""

    col_shift: dict = {}
    row_shift: dict = {}
    status = None
    reject_options = False

    def __init__(self):
        self._highs = _REAL_HIGHS()

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def passOptions(self, options):
        status = self._highs.passOptions(options)
        return lp_mod._highs.HighsStatus.kError if self.reject_options else status

    def getModelStatus(self):
        return self.status if self.status is not None else self._highs.getModelStatus()

    def getSolution(self):
        sol = self._highs.getSolution()
        sol.col_value = [x + self.col_shift.get(v, 0.0) for v, x in enumerate(sol.col_value)]
        sol.row_value = [r + self.row_shift.get(i, 0.0) for i, r in enumerate(sol.row_value)]
        return sol


_REAL_HIGHS = lp_mod._highs._Highs


class _HighsLpHandOff:
    """A _Highs whose passModel hands the arrays lp_solve passes over as one
    HighsLp, the way lp_solve handed programs to HiGHS before."""

    def __init__(self):
        self._highs = _REAL_HIGHS()

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def passModel(self, num_col, num_row, num_nz, a_format, sense, offset, cost, col_lower, col_upper,
                  row_lower, row_upper, start, index, value, integrality):
        core = lp_mod._highs
        assert (a_format, sense, offset) == (int(core.MatrixFormat.kRowwise), int(core.ObjSense.kMinimize), 0.0)
        assert num_nz == len(value) == len(index) == start[-1] and len(start) == num_row + 1
        assert integrality.dtype == np.int32 and len(integrality) == num_col and not integrality.any()
        m = core.HighsLp()
        m.num_col_ = m.a_matrix_.num_col_ = num_col
        m.num_row_ = m.a_matrix_.num_row_ = num_row
        m.col_cost_ = cost
        m.col_lower_ = col_lower
        m.col_upper_ = col_upper
        m.row_lower_ = row_lower
        m.row_upper_ = row_upper
        m.a_matrix_.format_ = core.MatrixFormat.kRowwise
        m.a_matrix_.start_ = start
        m.a_matrix_.index_ = index
        m.a_matrix_.value_ = value
        return self._highs.passModel(m)


class TestArrayHandOff:
    """lp_solve passes HiGHS the assembled arrays; handed over as a HighsLp
    instead, every LP gets the same outcome, with a bit-equal x: each LP of
    an Infeasible analysis and of a design whose orders +4, +6 and +8 fail
    the recheck (NumericalFailure) before +10 solves, in turn, then an
    analysis that certifies."""

    def test_same_outcomes(self, monkeypatch, bench_timer_growth, bench_chain_plant):
        lps = []
        with monkeypatch.context() as m:
            real = analysis_mod.lp_solve
            m.setattr(analysis_mod, "lp_solve", lambda lp: real(lps.append(lp) or lp))
            with pytest.raises(Infeasible):
                analyze_constant(bench_timer_growth, 1.2, 2)
            assert synthesize(bench_chain_plant, DwellTimeSpec.constant(0.1), 2).to_json()
            analyze_constant(bench_timer_growth, 0.3, 4)

        def outcomes():
            out = []
            for lp in lps:
                try:
                    sol = lp_solve(lp)
                    out.append((sol.status, sol.x.tobytes(), sol.objective_value))
                except NumericalFailure as exc:
                    out.append(("NumericalFailure", str(exc)))
            return out

        arrays = outcomes()
        assert [o[0] for o in arrays] == ["Infeasible", "Infeasible"] + ["NumericalFailure"] * 3 + ["Optimal"] * 2
        monkeypatch.setattr(lp_mod._highs, "_Highs", _HighsLpHandOff)
        assert outcomes() == arrays


class TestResultChecks:
    """Every check lp_solve makes on what HiGHS returns, tripped one at a time.

    The program: minimize x + y over x in [0, 1], y >= 0, x + y >= 1 (the
    only <= row) and y - x = 0 (the = row); the optimum is x = y = 0.5.
    """

    @staticmethod
    def _program():
        lp = LinearProgram()
        x = lp.new_var(lo=0.0, hi=1.0)
        y = lp.new_var(lo=0.0)
        add_ge(lp, {x: 1.0, y: 1.0}, 1.0)
        add_eq(lp, {y: 1.0, x: -1.0}, 0.0)
        lp.objective = {x: 1.0, y: 1.0}
        return lp

    def _solve(self, monkeypatch, **tamper):
        fake = type("Fake", (_TamperedHighs,), tamper)
        monkeypatch.setattr(lp_mod._highs, "_Highs", fake)
        return lp_solve(self._program())

    def test_untampered(self, monkeypatch):
        sol = self._solve(monkeypatch)
        assert sol.status == "Optimal" and np.array_equal(sol.x, [0.5, 0.5])

    @pytest.mark.parametrize("shift", [0.5 + 1e-3, -0.5 - 1e-3])
    def test_bound_violated_beyond_tol(self, monkeypatch, shift):
        # x = 0.5 moved outside [0, 1] by 1e-3 > sqrt(1e-9) * 10
        with pytest.raises(NumericalFailure, match="bounds or rows"):
            self._solve(monkeypatch, col_shift={0: shift})

    def test_bound_violated_within_tol_and_rows_held(self, monkeypatch):
        # x = 1 + 1e-4 passes the bound check; rows then fail the 1e-7 recheck
        with pytest.raises(NumericalFailure, match="violates constraints"):
            self._solve(monkeypatch, col_shift={0: 0.5 + 1e-4})

    def test_le_slack_from_highs_row_values(self, monkeypatch):
        # HiGHS's own row value of x + y >= 1 (the scaled row -x - y <= -1)
        with pytest.raises(NumericalFailure, match="bounds or rows"):
            self._solve(monkeypatch, row_shift={0: 1e-3})

    def test_eq_residual_from_highs_row_values(self, monkeypatch):
        with pytest.raises(NumericalFailure, match="bounds or rows"):
            self._solve(monkeypatch, row_shift={1: -1e-3})

    def test_small_row_value_drift_is_accepted(self, monkeypatch):
        sol = self._solve(monkeypatch, row_shift={0: 1e-4, 1: 1e-4})
        assert sol.status == "Optimal" and np.array_equal(sol.x, [0.5, 0.5])

    def test_recheck_uses_the_programs_rows(self, monkeypatch):
        # y off by 1e-6 breaks y - x = 0; HiGHS's row values are untouched
        with pytest.raises(NumericalFailure, match="violates constraints by 1.00e-06"):
            self._solve(monkeypatch, col_shift={1: 1e-6})

    def test_nan_in_solution(self, monkeypatch):
        with pytest.raises(NumericalFailure, match="bounds or rows"):
            self._solve(monkeypatch, col_shift={1: math.nan})

    @pytest.mark.parametrize("status, text", [("kUnknown", "Unknown"), ("kIterationLimit", "limit")])
    def test_other_status(self, monkeypatch, status, text):
        with pytest.raises(NumericalFailure, match=text):
            self._solve(monkeypatch, status=getattr(lp_mod._highs.HighsModelStatus, status))



    def test_options_rejected(self, monkeypatch):
        with pytest.raises(NumericalFailure, match="Not Set"):
            self._solve(monkeypatch, reject_options=True)


class TestHighsBinding:
    def test_binding_has_what_lp_uses(self):
        core = lp_mod._highs
        for name in ("HighsLp", "_Highs", "HighsOptions", "HighsModelStatus", "HighsStatus",
                     "HighsDebugLevel", "MatrixFormat", "ObjSense", "simplex_constants"):
            assert hasattr(core, name), name
        for name in ("passOptions", "passModel", "run", "getModelStatus", "modelStatusToString",
                     "getSolution", "getInfo"):
            assert hasattr(core._Highs, name), name
        m = core.HighsLp()
        for name in ("num_col_", "num_row_", "col_cost_", "col_lower_", "col_upper_", "row_lower_",
                     "row_upper_"):
            assert hasattr(m, name), name
        for name in ("format_", "start_", "index_", "value_", "num_col_", "num_row_"):
            assert hasattr(m.a_matrix_, name), name
        for name in ("kOptimal", "kInfeasible", "kUnbounded", "kModelError"):
            assert hasattr(core.HighsModelStatus, name), name
        opts = lp_mod._OPTIONS
        assert opts.presolve == "on"
        assert opts.simplex_strategy == int(
            core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        )
        assert opts.highs_debug_level == int(core.HighsDebugLevel.kHighsDebugLevelNone)
        assert opts.log_to_console is False and opts.output_flag is False
        assert opts.infinite_bound == 1e20

    def test_missing_binding_names_the_scipy_version(self, monkeypatch):
        # no _core file carries this suffix, as when SciPy bundles no binding
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".no-such-abi.so"])
        spec = importlib.util.spec_from_file_location("dwellgain._lp_without_binding", lp_mod.__file__)
        with pytest.raises(ImportError, match=r"SciPy >= 1\.17"):
            spec.loader.exec_module(importlib.util.module_from_spec(spec))

    @staticmethod
    def _fresh_python(code):
        """Run `code` in a new interpreter that imports dwellgain from this tree."""
        src = os.path.dirname(os.path.dirname(lp_mod.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        ))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        return r.stdout

    def test_import_leaves_scipy_optimize_unloaded(self):
        out = self._fresh_python(
            "import sys, dwellgain, dwellgain.cli\n"
            "print(sorted({'scipy.optimize', 'scipy.linalg', 'scipy.sparse'} & set(sys.modules)))"
        )
        assert out.strip() == "[]"

    def test_binding_is_the_module_scipy_optimize_loads(self):
        out = self._fresh_python(
            "import dwellgain.lp as lp\n"
            "import scipy.optimize\n"
            "print(scipy.optimize._highspy._core is lp._highs)\n"
            "print(scipy.optimize.linprog([1.0], bounds=[(1.0, 2.0)]).x[0])\n"
            "prog = lp.LinearProgram()\n"
            "x = prog.new_var(lo=1.0, hi=2.0)\n"
            "prog.objective = {x: 1.0}\n"
            "sol = lp.lp_solve(prog)\n"
            "print(sol.status, sol.x[0])\n"
        )
        assert out.split("\n")[:3] == ["True", "1.0", "Optimal 1.0"]


def _poly_of_vars(vs):
    """The polynomial row array sum_t x[vs[t]] tau^t."""
    p = np.zeros((len(vs), max(vs) + 2))
    p[range(len(vs)), [1 + v for v in vs]] = 1.0
    return p


class TestAffineExpressions:
    """Polynomial rows in the LP columns, read back at a solution."""

    def test_polyexpr_mul_eval(self):
        # vars as coefficients: p(t) = x0 + x1 t; data poly d(t) = 1 + 2t
        q = analysis_mod._mul_poly(_poly_of_vars([0, 1]), [1.0, 2.0])
        x = np.array([3.0, -1.0])
        concrete = analysis_mod._value(q, x)
        for t in (0.0, 0.7, 2.0):
            assert concrete.eval(t) == pytest.approx((3.0 - t) * (1.0 + 2.0 * t))
            assert analysis_mod._value(analysis_mod._eval_at(q, t)[None], x).coeffs[0] == pytest.approx(
                concrete.eval(t))

    def test_polyexpr_deriv_and_shift(self):
        p = _poly_of_vars([0, 1, 2])
        x = np.array([1.0, -2.0, 0.5])
        assert analysis_mod._value(analysis_mod._deriv(p), x).coeffs == pytest.approx((-2.0, 1.0))
        shifted = analysis_mod._value(analysis_mod._shift_scale_arg(p, 0.5, 2.0), x)
        base = analysis_mod._value(p, x)
        for s in (0.0, 0.3, 1.0):
            assert shifted.eval(s) == pytest.approx(base.eval(0.5 + 2.0 * s))


class TestRowsContract:
    """The LinearProgram fields that the benchmark's LP census reads
    (perfbench/layertrace.py, _lp_note) on an analysis LP and a design LP:
    rows as (dict[int, float], "<=" | "=", float) triples, whose stored
    entries are the nonzeros _assemble hands to HiGHS."""

    @pytest.mark.parametrize("run", ["analysis", "design"])
    def test_rows(self, monkeypatch, bench_timer_growth, bench_chain_plant, run):
        encoded = spy_relaxations(monkeypatch)
        if run == "analysis":
            analyze_constant(bench_timer_growth, 0.3, 2)
        else:
            synthesize(bench_chain_plant, DwellTimeSpec.constant(0.1), 2)
        lp = encoded[0][2]
        assert {rel for _, rel, _ in lp.rows} == {"<=", "="}
        for coeffs, rel, rhs in lp.rows:
            assert type(coeffs) is dict and type(rhs) is float
            assert all(type(v) is int and type(c) is float for v, c in coeffs.items())
        assert sum(len(coeffs) for coeffs, _, _ in lp.rows) == len(_assemble(lp).value)
