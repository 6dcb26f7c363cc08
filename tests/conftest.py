import dataclasses
import math
from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.optimize import linprog

from dwellgain import analysis as analysis_mod
from dwellgain import benchmarks
from dwellgain import sim as sim_mod
from dwellgain import synthesis as synthesis_mod
from dwellgain.analysis import (
    _REFEREE_SAMPLES,
    DEFAULT_JUMP_MARGIN,
    DEFAULT_MARGIN,
    RELAX_SCHEDULE,
    _ZETA_PIN,
    Certificate,
    _Program,
    _product_cone,
    _row_ones,
    _solve_with_escalation,
    analyze_constant,
    analyze_minimum,
    analyze_range,
)
from dwellgain.cert import _SLACK_TOL, VerificationReport, verify
from dwellgain.errors import (
    DimensionMismatch,
    Infeasible,
    InvalidDomain,
    Mismatch,
    NotConstant,
    NumericalFailure,
    RelaxationLimit,
)
from dwellgain.lp import LinearProgram, LpSolution, lp_solve
from dwellgain.model import (DwellTimeSpec, ImpulsiveSystem, PositivityReport, SwitchedSystem, lift_switched,
                             require_forward_time)
from dwellgain.poly import Poly, decide_nonneg, falsify_nonneg
from dwellgain.synthesis import ControllerRealization


# the certify-grid benchmark's dwell times and (design spec, fixed Kd) pairs
CERTIFY_GRID_T = (0.12, 0.2, 0.33, 0.5, 1.9, 2.7)
CERTIFY_GRID_DESIGNS = (
    (DwellTimeSpec.constant(0.1), False),
    (DwellTimeSpec.range(0.1, 0.3), False),
    (DwellTimeSpec.range(0.1, 0.3), True),
    (DwellTimeSpec.minimum(0.2), False),
)


@pytest.fixture(scope="session")
def bench_lti():
    return benchmarks.lti_jump_bench()


@pytest.fixture(scope="session")
def bench_timer_growth():
    return benchmarks.timer_growth_bench()


@pytest.fixture(scope="session")
def bench_timer_stable():
    return benchmarks.timer_stable_bench()


@pytest.fixture(scope="session")
def bench_chain_plant():
    return benchmarks.unstable_chain_plant()


@pytest.fixture(scope="session")
def bench_pair_plant():
    return benchmarks.unstable_pair_plant()


@pytest.fixture(scope="session")
def bench_switched():
    return benchmarks.two_mode_switched_bench()


@pytest.fixture(scope="session")
def bench_three_mode():
    """two_mode_switched_bench with a third mode: its lift has N (N - 1) = 6
    selector jump maps."""
    modes = [{k: md[k] for k in "ABECDF"} for md in benchmarks.two_mode_switched_bench().modes]
    modes.append({"A": [[-1.5, 0.2], [0.3, -1.0]], "E": [[0.2], [0.05]], "C": [[0.5, 0.5]], "F": [[0.0]]})
    return SwitchedSystem.from_arrays(modes)


def stabilizable_two_mode():
    """Two modes with one input each, each mode's unstable state driven by
    its own input; the open loop is not stable."""
    return SwitchedSystem.from_arrays(
        [
            {"A": [[1.0, 1.0], [0.0, -2.0]], "B": [[1.0], [0.0]], "E": [[0.2], [0.3]], "C": [[0.0, 1.0]], "F": [[0.1]]},
            {"A": [[-2.0, 0.0], [1.0, 1.0]], "B": [[0.0], [1.0]], "E": [[0.3], [0.2]], "C": [[1.0, 0.0]], "F": [[0.1]]},
        ]
    )


@pytest.fixture(scope="session")
def nonpositive_rotation():
    """A stable flow that is not positive, A[0, 1] = -3, with J = I: its
    hybrid gain under constant dwell 1 is its LTI L-infinity gain, 0.6244,
    while the theorem rows certify 0.309 when positivity goes unchecked."""
    return ImpulsiveSystem.from_arrays(A=[[-1.0, -3.0], [3.0, -1.0]], Ec=[[1.0], [0.0]], Cc=[[0.0, 1.0]], J=np.eye(2))


@pytest.fixture(scope="session")
def negative_input_plant():
    """unstable_chain_plant with Ec = [[0.2], [-0.3]], Fc = [[-0.1]] and
    Ed = [[0.3], [-0.3]], entries no state feedback changes: no design makes
    its closed loop positive.  The constant:0.1 degree-2 design made for it
    when designs did not check them (data/negative_input_design.json)
    certifies gamma 0.101, while one simulated run reaches 0.508."""
    c = benchmarks.unstable_chain_plant()
    jm = c.jump
    return ImpulsiveSystem.from_arrays(A=c.A, Bc=c.Bc, Ec=[[0.2], [-0.3]], Cc=c.Cc, Fc=[[-0.1]],
                                       J=jm.J, Bd=jm.Bd, Ed=[[0.3], [-0.3]], Cd=jm.Cd, Fd=jm.Fd)


def reference_check_positive(sys, domain):
    """Oracle for model.check_positive on an impulsive system: its body when
    the 10,000-point grid falsifier ran first on every nonconstant entry and
    the exact decision only on the entries the grid passed."""
    lo, hi = float(domain[0]), float(domain[1])
    if hi <= 0 or lo != 0.0:
        raise InvalidDomain(f"domain must be [0, T] with T > 0, got [{lo}, {hi}]")
    report = PositivityReport(positive=True)

    def entry_nonneg(entry, p):
        if p.is_zero:
            return
        if p.degree == 0:
            if p.coeffs[0] < 0:
                report.violations.append((*entry, None, p.coeffs[0]))
            return
        wit = falsify_nonneg(p, (lo, hi), 10_000)
        if wit is not None:
            report.violations.append((*entry, wit.tau, wit.value))
            return
        if not decide_nonneg(p, (lo, hi))[0]:
            report.unverified.append(entry)

    n = sys.n
    for i in range(n):
        for j in range(n):
            if i != j:
                entry_nonneg(("A", (i, j)), sys.A.entry(i, j))
    for name, mat in (("Ec", sys.Ec), ("Cc", sys.Cc), ("Fc", sys.Fc)):
        r, c = mat.shape
        for i in range(r):
            for j in range(c):
                entry_nonneg((name, (i, j)), mat.entry(i, j))
    for k, jm in enumerate(sys.jumps):
        for name, m in (("J", jm.J), ("Ed", jm.Ed), ("Cd", jm.Cd), ("Fd", jm.Fd)):
            for i, j in np.argwhere(m < 0.0):
                report.violations.append((f"jumps[{k}].{name}", (int(i), int(j)), None, float(m[i, j])))
    report.positive = not report.violations and not report.unverified
    return report


@pytest.fixture(scope="session")
def certify_grid_analyses():
    """analyses(bench) -> [(kind, certificate)] for every feasible certify-grid
    analysis of an impulsive benchmark: each kind at each CERTIFY_GRID_T and
    degree 2, 4 and 6, a range dwell being [T, 1.5 T]; computed once per bench."""
    cache = {}

    def analyses(bench):
        if bench not in cache:
            s = getattr(benchmarks, bench)()
            run = {
                "constant": lambda T, degree: analyze_constant(s, T, degree),
                "minimum": lambda T, degree: analyze_minimum(s, T, degree),
                "range": lambda T, degree: analyze_range(s, T, float(f"{1.5 * T:.5g}"), degree),
            }
            cache[bench] = []
            for kind, analyze in run.items():
                for T in CERTIFY_GRID_T:
                    for degree in (2, 4, 6):
                        try:
                            cache[bench].append((kind, analyze(T, degree)))
                        except Infeasible:
                            continue
        return cache[bench]

    return analyses


@pytest.fixture
def orbit_test_off(monkeypatch):
    """Switch off analysis._unstable_orbit, so every analysis builds and
    solves its LPs even where the test would refuse it first."""
    monkeypatch.setattr(analysis_mod, "_unstable_orbit", lambda *args: None)


def random_stable_metzler(rng: np.random.Generator, n: int = 3, p: int = 2, q: int = 2):
    """Random internally positive, Hurwitz-stable continuous LTI system."""
    A = rng.uniform(0.0, 0.5, size=(n, n))
    np.fill_diagonal(A, 0.0)
    diag = -(A.sum(axis=1) + rng.uniform(0.5, 1.5, size=n))
    A[np.arange(n), np.arange(n)] = diag
    E = rng.uniform(0.0, 1.0, size=(n, p))
    C = rng.uniform(0.0, 1.0, size=(q, n))
    F = rng.uniform(0.0, 0.5, size=(q, p))
    return A, E, C, F


def lti_linf_closed_form(A, E, C, F) -> float:
    """Independent oracle: max row sum of -C A^{-1} E + F (dense solve)."""
    G = -C @ np.linalg.solve(A, E) + F
    return float(np.max(G.sum(axis=1)))


def isolated_jump_peak(A, Ec, Cc, Fc, J, Ed, tau_max: float = 20.0, step: float = 1e-3) -> float:
    """Independent oracle: peak continuous output after one isolated jump.

    Unit inputs on both channels.  The flow starts at its equilibrium
    x_ss = -A^{-1} Ec 1 (the limit of an arbitrarily long first dwell), jumps
    once to x+ = J x_ss + Ed 1 and then decays as x_ss + e^{A tau}(x+ - x_ss),
    sampled on a uniform tau grid over [0, tau_max] by powers of expm(A step).
    Returns the largest entry of Cc x + Fc 1 on that grid, so every dwell-time
    family that admits arbitrarily long dwells has a hybrid gain at least this.
    """
    w_c = np.ones(Ec.shape[1])
    x_ss = -np.linalg.solve(A, Ec @ w_c)
    d = J @ x_ss + Ed @ np.ones(Ed.shape[1]) - x_ss
    P = expm(A * step)
    ds = np.empty((int(round(tau_max / step)) + 1, A.shape[0]))
    for i in range(len(ds)):
        ds[i] = d
        d = P @ d
    z = ds @ Cc.T + (Cc @ x_ss + Fc @ w_c)
    return float(np.max(z))


def add_row(lp, coeffs, rel, rhs, sign=1.0):
    """sign * (sum_v coeffs[v] x_v) rel sign * rhs appended as a one-row
    block, as LinearProgram.add_le, add_ge and add_eq stored a row before
    rows became blocks: every column checked, each coefficient a float and
    the zeros dropped."""
    for v in coeffs:
        if not 0 <= v < lp.num_vars:
            raise ValueError(f"row references unknown variable {v}")
    row = {v: sign * float(c) for v, c in sorted(coeffs.items()) if c != 0.0}
    lp.add_rows(rel, np.array([0, len(row)]), np.array(list(row), dtype=np.int64),
                np.array(list(row.values()), dtype=float), np.array([sign * float(rhs)]))


def add_le(lp, coeffs, rhs):
    add_row(lp, coeffs, "<=", rhs)


def add_ge(lp, coeffs, rhs):
    """The >= row stored as its negated <= row."""
    add_row(lp, coeffs, "<=", rhs, -1.0)


def add_eq(lp, coeffs, rhs):
    add_row(lp, coeffs, "=", rhs)


def lil_assemble(lp):
    """Oracle for lp._assemble: every row scaled to unit infinity-norm and
    written entry by entry into lil_matrix blocks, split into <= and = rows."""
    c = np.zeros(lp.num_vars)
    for v, coef in lp.objective.items():
        c[v] = coef
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for coeffs, rel, rhs in lp.rows:
        scale = max((abs(v) for v in coeffs.values()), default=0.0)
        if scale == 0.0:
            scale = 1.0
        row = {v: coef / scale for v, coef in coeffs.items()}
        if rel == "<=":
            ub_rows.append(row)
            ub_rhs.append(rhs / scale)
        else:
            eq_rows.append(row)
            eq_rhs.append(rhs / scale)

    def to_csr(rows):
        m = sp.lil_matrix((len(rows), lp.num_vars))
        for i, row in enumerate(rows):
            for v, coef in row.items():
                m[i, v] = coef
        return m.tocsr()

    col_bounds = lp.bounds  # built on each read
    bounds = [col_bounds.get(v, (None, None)) for v in range(lp.num_vars)]
    return c, to_csr(ub_rows), np.array(ub_rhs), to_csr(eq_rows), np.array(eq_rhs), bounds


def assert_same_assembly(got, want):
    """lp._assemble's row-wise arrays equal the oracle's: c, the <= block
    stacked on the = block as canonical CSR (indptr, indices, data), both
    right-hand sides in that order, and the bounds with None read as -inf/+inf."""
    c_r, A_ub_r, b_ub_r, A_eq_r, b_eq_r, bounds_r = want
    A_r = sp.vstack((A_ub_r, A_eq_r), format="csr")
    A_r.sum_duplicates()
    assert np.array_equal(got.c, c_r)
    assert got.num_le == A_ub_r.shape[0]
    assert len(got.start) == A_r.shape[0] + 1
    assert np.array_equal(got.start, A_r.indptr)
    assert np.array_equal(got.index, A_r.indices)
    assert np.array_equal(got.value, A_r.data)
    assert np.array_equal(got.rhs, np.concatenate((b_ub_r, b_eq_r)))
    assert np.array_equal(got.col_lower, [-np.inf if lo is None else lo for lo, _ in bounds_r])
    assert np.array_equal(got.col_upper, [np.inf if hi is None else hi for _, hi in bounds_r])


def csr_assemble(lp):
    """lp._assemble as it was before the direct HiGHS hand-off: rows scaled to
    unit infinity-norm, COO arrays converted to one CSR block per relation."""
    c = np.zeros(lp.num_vars)
    for v, coef in lp.objective.items():
        c[v] = coef
    n = len(lp.rows)
    sizes = np.fromiter((len(coeffs) for coeffs, _, _ in lp.rows), np.int64, n)
    nnz = int(sizes.sum())
    cols = np.fromiter(chain.from_iterable(coeffs for coeffs, _, _ in lp.rows), np.int64, nnz)
    vals = np.fromiter(chain.from_iterable(coeffs.values() for coeffs, _, _ in lp.rows), float, nnz)
    rhs = np.fromiter((r for _, _, r in lp.rows), float, n)
    is_eq = np.fromiter((rel == "=" for _, rel, _ in lp.rows), bool, n)
    row_of = np.repeat(np.arange(n), sizes)
    scale = np.zeros(n)
    if nnz:
        filled = sizes > 0
        scale[filled] = np.maximum.reduceat(np.abs(vals), (np.cumsum(sizes) - sizes)[filled])
    scale[scale == 0.0] = 1.0
    # an infinite coefficient scales to nan, which linprog refuses with
    # ValueError; a row of subnormal coefficients may scale its bound to inf
    with np.errstate(invalid="ignore", over="ignore"):
        vals = vals / scale[row_of]
        rhs = rhs / scale

    def to_csr(select):
        local = np.cumsum(select) - 1
        keep = select[row_of] & (vals != 0.0)
        shape = (int(select.sum()), lp.num_vars)
        return sp.csr_matrix((vals[keep], (local[row_of[keep]], cols[keep])), shape=shape)

    col_bounds = lp.bounds  # built on each read
    bounds = [col_bounds.get(v, (None, None)) for v in range(lp.num_vars)]
    return c, to_csr(~is_eq), rhs[~is_eq], to_csr(is_eq), rhs[is_eq], bounds


def linprog_solve(lp) -> LpSolution:
    """Oracle for lp.lp_solve: scipy.optimize.linprog(method="highs") on the
    CSR assembly, presolved as lp.presolve says, with the same 1e-7
    feasibility recheck of Optimal answers."""
    c, A_ub, b_ub, A_eq, b_eq, bounds = csr_assemble(lp)
    finite_rows = all(np.isfinite([r, *coeffs.values()]).all() for coeffs, _, r in lp.rows)
    if finite_rows and not np.isfinite([*b_ub, *b_eq]).all():
        # the second intended difference (below) where a finite row's scaled
        # bound overflows to inf, which linprog refuses with ValueError
        raise NumericalFailure("scaled row bound overflows")
    res = linprog(
        c,
        A_ub=A_ub if A_ub.shape[0] else None,
        b_ub=b_ub if A_ub.shape[0] else None,
        A_eq=A_eq if A_eq.shape[0] else None,
        b_eq=b_eq if A_eq.shape[0] else None,
        bounds=bounds,
        method="highs",
        options={"presolve": lp.presolve},
    )
    if (np.abs(c) >= 1e20).any():
        # the third intended difference: lp_solve refuses an objective cost at
        # or beyond HiGHS's infinite cost 1e20, for which linprog reports an
        # Optimal answer with an infinite objective
        raise NumericalFailure("cost beyond 1e20")
    values = (*b_ub, *b_eq, *chain.from_iterable(bounds))
    big = [v for v in values if v is not None and np.isfinite(v) and abs(v) >= 1e20]
    if big:
        # the second intended difference: lp_solve refuses a scaled row bound
        # or column bound at or beyond HiGHS's infinite bound 1e20, which HiGHS
        # (and so linprog) would read as infinite, dropping the row or bound
        raise NumericalFailure(f"bound {big[0]:.6g} beyond 1e20")
    if res.status == 2 and "Model error" in res.message:
        # the one intended difference: linprog reports HiGHS's model error
        # (such as a row bound beyond its infinite bound 1e20) as infeasible
        raise NumericalFailure(f"LP solver did not converge: {res.message}")
    if res.status == 2:
        return LpSolution("Infeasible", np.zeros(lp.num_vars), np.inf)
    if res.status == 3:
        return LpSolution("Unbounded", np.zeros(lp.num_vars), -np.inf)
    if res.status != 0:
        raise NumericalFailure(f"LP solver did not converge: {res.message}")
    x = np.asarray(res.x, dtype=float)
    viol = 0.0
    if A_ub.shape[0]:
        viol = max(viol, float(np.max(A_ub @ x - b_ub, initial=0.0)))
    if A_eq.shape[0]:
        viol = max(viol, float(np.max(np.abs(A_eq @ x - b_eq), initial=0.0)))
    if viol > 1e-7:
        raise NumericalFailure(f"solution violates constraints by {viol:.2e}")
    return LpSolution("Optimal", x, float(res.fun))


def solve_outcome(solve, lp):
    """(status, x, objective) of a solve, or the class of the error it raised."""
    try:
        sol = solve(lp)
    except (ValueError, NumericalFailure) as exc:
        return type(exc)
    return sol.status, sol.x, sol.objective_value


def assert_same_outcome(got, want):
    """Same status or error class, bit-equal x and an equal objective."""
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


def _record(slacks, family, value):
    slacks[family] = min(slacks.get(family, np.inf), float(value))


def _zeta_rows_symbolic(A, Ec, Cc, Fc, zeta, gamma, B=None, D=None, U=()):
    """Flow/output rows in tau as lists of Poly terms derived with plain Poly
    arithmetic: zeta' - A zeta - B U 1 - Ec 1 and gamma - Cc zeta - D U 1 - Fc 1,
    U the numerators U_c of a closed loop whose zeta is X."""

    def terms(lead, M, N, W, i):
        out = [lead] + [-(M.entry(i, j) * z) for j, z in enumerate(zeta)]
        out += [-(N.entry(i, l) * u) for l, row in enumerate(U) for u in row]
        return out + [-W.entry(i, j) for j in range(W.shape[1])]

    flow = [terms(zeta[i].deriv(), A, B, Ec, i) for i in range(A.shape[0])]
    out_c = [terms(Poly.const(gamma), Cc, D, Fc, i) for i in range(Cc.shape[0])]
    return flow, out_c


def zeta_vectors(cert):
    """The certificate's zeta per mode: N vectors of a switched one, else one."""
    return cert.zeta if cert.per_mode else [cert.zeta]


def _summed(rows):
    return [sum(terms[1:], terms[0]) for terms in rows]


def oracle_rows(cert, sys):
    """Every theorem row of the certificate as (family, Poly terms, domain),
    derived with plain Poly arithmetic: the row is the sum of its terms on
    the interval or at the point `domain`.  A closed loop's rows read zeta = X:
    (A X + B U_c) 1 and (J X + B_d U_d) 1, or B_d U_d M^-1 X for a fixed K_d."""
    plant, ctrl = (sys.sys, sys.ctrl) if isinstance(sys, synthesis_mod.ClosedLoopView) else (sys, None)
    dwell, gamma = cert.dwell, cert.gamma
    arbitrary = dwell.kind == "arbitrary"
    Tend = 0.0 if arbitrary else dwell.horizon_tau()
    tdom = (0.0, Tend) if Tend > 0 else 0.0
    zsets = [[Poly.const(z.eval(0.0)) for z in zs] if arbitrary else zs for zs in zeta_vectors(cert)]
    rows = []
    for mode, zs in enumerate(zsets):
        if isinstance(plant, SwitchedSystem):
            mats, tag = [plant.modes[mode][k] for k in "ABECDF"], f"[{mode}]"
        else:
            mats, tag = [plant.A, plant.Bc, plant.Ec, plant.Cc, plant.Dc, plant.Fc], ""
        A, B, E, C, D, F = mats
        U = [] if ctrl is None else (ctrl.Uc[mode] if cert.per_mode else ctrl.Uc)
        flow, out_c = _zeta_rows_symbolic(A, E, C, F, zs, gamma, B, D, U)
        rows += [("flow" + tag, t, tdom) for t in flow] + [("out_c" + tag, t, tdom) for t in out_c]
        if dwell.kind == "minimum":
            rows += [("stat_flow" + tag, t[1:], dwell.T) for t in flow]
            rows += [("stat_out" + tag, t, dwell.T) for t in out_c]
        # the closed-loop path keeps one pin_lo family for every mode
        rows += [("pin_lo" + (tag if ctrl is None else ""), [z], 0.0) for z in zs]
    if cert.per_mode:
        for i, zi in enumerate(zsets):
            for j, zj in enumerate(zsets):
                if i != j:
                    rows += [("couple", [Poly.const(a.eval(0.0)), Poly.const(-b.eval(dwell.T))], 0.0)
                             for a, b in zip(zi, zj)]
        return rows
    zs = zsets[0]
    if dwell.kind == "range":
        th = (dwell.Tmin, dwell.Tmax) if dwell.Tmin < dwell.Tmax else dwell.Tmin
    else:
        th = dwell.T or 0.0
    V = []  # per discrete input, its terms: (K_d zeta)_l with zeta = X
    if ctrl is not None and plant.md:
        if ctrl.kind == "RangeDT_FixedKd":
            V = [[zs[j] * (u.coeffs[0] / m) for j, (u, m) in enumerate(zip(row, ctrl.M))] for row in ctrl.Ud]
        else:
            V = ctrl.Ud
    for jk, jm in enumerate(plant.jumps):
        for family, lead, M, N, W in ((f"jump[{jk}]", None, jm.J, jm.Bd, jm.Ed),
                                      (f"out_d[{jk}]", gamma, jm.Cd, jm.Dd, jm.Fd)):
            for i in range(M.shape[0]):
                terms = [Poly.const(zs[i].eval(0.0) if lead is None else lead)]
                terms += [-(z * M[i, j]) for j, z in enumerate(zs)]
                terms += [-(v * N[i, l]) for l, vs in enumerate(V) for v in vs]
                rows.append((family, terms + [Poly.const(-w) for w in W[i]], th))
    return rows


def _oracle_report(cert, sys, slacks, grid):
    """The three paths' verdict: each oracle_rows row proved >= -_SLACK_TOL
    times the size sum |c_k| R^k of its terms (R the far end of its domain),
    by bernstein_oracle at its degree + RELAX_SCHEDULE[-1] on an interval and
    by its exact value at a point, and each family's grid minimum at >= minus
    the smallest such tolerance of its rows."""
    tols, unproved = {}, []
    for family, terms, domain in oracle_rows(cert, sys):
        p = sum(terms[1:], terms[0])
        R = domain[1] if isinstance(domain, tuple) else domain
        tol = _SLACK_TOL * sum(sum(abs(c) * R**k for k, c in enumerate(t.coeffs)) for t in terms)
        tols[family] = min(tols.get(family, math.inf), tol)
        if isinstance(domain, tuple):
            least = min(bernstein_oracle(p, domain, p.degree + RELAX_SCHEDULE[-1]))
        else:
            least = sum(Fraction(c) * Fraction(domain) ** k for k, c in enumerate(p.coeffs))
        if least < -Fraction(tol):
            unproved.append(family)
    proved = not unproved
    return VerificationReport(
        passed=proved and all(v >= -tols[f] for f, v in slacks.items()),
        worst_slack=slacks,
        grid_density=grid,
        handelman_ok=proved,
        notes=unproved,
    )


def _grid_min(p, interval, grid, clamp=None):
    a, b = interval
    taus = np.linspace(a, b, grid + 2)
    if clamp is not None:
        taus = np.minimum(taus, clamp)
    return float(np.min(p.eval(taus)))


def _verify_impulsive(cert, sys, grid):
    zeta = cert.zeta
    gamma = cert.gamma
    n = sys.n
    if len(zeta) != n:
        raise Mismatch(f"certificate has {len(zeta)} state rows, system has {n}")
    dwell = cert.dwell
    clamp = dwell.clamp
    slacks = {}
    if dwell.kind == "arbitrary":
        if not sys.is_constant():
            raise Mismatch("arbitrary-dwell certificate applies to constant systems")
        lam = np.array([z.eval(0.0) for z in zeta])
        A = sys.A.const()
        _record(slacks, "flow", float(np.min(-(A @ lam + sys.Ec.const().sum(axis=1)))))
        if sys.qc:
            _record(slacks, "out_c",
                    float(np.min(gamma - (sys.Cc.const() @ lam + sys.Fc.const().sum(axis=1)))))
        for jk, jm in enumerate(sys.jumps):
            _record(slacks, f"jump[{jk}]", float(np.min(-(jm.J @ lam - lam + jm.Ed.sum(axis=1)))))
            if jm.Cd.shape[0]:
                _record(slacks, f"out_d[{jk}]", float(np.min(gamma - (jm.Cd @ lam + jm.Fd.sum(axis=1)))))
        _record(slacks, "pin_lo", float(np.min(lam)))
    else:
        Tend = dwell.horizon_tau()
        flow_rows, out_rows = map(_summed, _zeta_rows_symbolic(sys.A, sys.Ec, sys.Cc, sys.Fc, zeta, gamma))
        for p in flow_rows:
            _record(slacks, "flow", _grid_min(p, (0.0, Tend), grid, clamp))
        for p in out_rows:
            _record(slacks, "out_c", _grid_min(p, (0.0, Tend), grid, clamp))
        if dwell.kind == "minimum":
            T = dwell.T
            zT = np.array([z.eval(T) for z in zeta])
            _record(slacks, "stat_flow", float(np.min(-(sys.A(T) @ zT + sys.Ec(T).sum(axis=1)))))
            if sys.qc:
                _record(slacks, "stat_out", float(np.min(gamma - (sys.Cc(T) @ zT + sys.Fc(T).sum(axis=1)))))
        if dwell.kind == "range":
            thetas = np.linspace(dwell.Tmin, dwell.Tmax, min(grid, 301))
        else:
            thetas = np.array([dwell.T])
        z0 = np.array([z.eval(0.0) for z in zeta])
        for jk, jm in enumerate(sys.jumps):
            for th in thetas:
                target = np.array([z.eval(th) for z in zeta])
                _record(slacks, f"jump[{jk}]", float(np.min(z0 - (jm.J @ target + jm.Ed.sum(axis=1)))))
                if jm.Cd.shape[0]:
                    _record(slacks, f"out_d[{jk}]",
                            float(np.min(gamma - (jm.Cd @ target + jm.Fd.sum(axis=1)))))
        _record(slacks, "pin_lo", float(np.min(z0)))
    return _oracle_report(cert, sys, slacks, grid)


def _verify_switched(cert, sw, grid):
    if len(cert.zeta) != sw.N:
        raise Mismatch(f"certificate has {len(cert.zeta)} mode vectors, system has {sw.N}")
    T = cert.dwell.T
    gamma = cert.gamma
    slacks = {}
    for i, md in enumerate(sw.modes):
        zeta = cert.zeta[i]
        flow_rows, out_rows = map(_summed, _zeta_rows_symbolic(md["A"], md["E"], md["C"], md["F"], zeta, gamma))
        for p in flow_rows:
            _record(slacks, f"flow[{i}]", _grid_min(p, (0.0, T), grid))
        for p in out_rows:
            _record(slacks, f"out_c[{i}]", _grid_min(p, (0.0, T), grid))
        zT = np.array([z.eval(T) for z in zeta])
        _record(slacks, f"stat_flow[{i}]", float(np.min(-(md["A"](T) @ zT + md["E"](T).sum(axis=1)))))
        _record(slacks, f"stat_out[{i}]", float(np.min(gamma - (md["C"](T) @ zT + md["F"](T).sum(axis=1)))))
        _record(slacks, f"pin_lo[{i}]", float(min(z.eval(0.0) for z in zeta)))
    for i in range(sw.N):
        for j in range(sw.N):
            if i != j:
                c = min(cert.zeta[i][r].eval(0.0) - cert.zeta[j][r].eval(T) for r in range(sw.n))
                _record(slacks, "couple", float(c))
    return _oracle_report(cert, sw, slacks, grid)


def oracle_export_rows(jump_count: list, every: int) -> list:
    """The rows CLI simulate writes, found row by row: a row is kept when it
    lies a multiple of `every` rows after its segment's first row, or is its
    segment's last row."""
    keep, start = [], 0
    for i, seg in enumerate(jump_count):
        if i and seg != jump_count[i - 1]:
            start = i
        if (i - start) % every == 0 or i + 1 == len(jump_count) or jump_count[i + 1] != seg:
            keep.append(i)
    return keep


def cell_mesh(pm, taus, clamp=None):
    """PolyMatrix.eval_mesh transposed to the oracles' cell-major (len, r, c)."""
    return pm.eval_mesh(taus, clamp).transpose(2, 0, 1)


def oracle_kc(ctrl, taus, mode=None):
    """K_c(tau) = U_c(tau) X(tau)^{-1} entry by entry from the stored
    polynomials, cell-major (len, mc, n); the timer is clamped as the design's."""
    t = np.minimum(taus, ctrl.clamp) if ctrl.clamp is not None else taus
    X = ctrl.X[mode] if ctrl.per_mode else ctrl.X
    Uc = ctrl.Uc[mode] if ctrl.per_mode else ctrl.Uc
    K = [[u.eval(t) / x.eval(t) for u, x in zip(row, X)] for row in Uc]
    return np.array(K).reshape(len(Uc), len(X), len(t)).transpose(2, 0, 1)


def oracle_kd(ctrl, theta):
    """K_d = U_d X^{-1} entry by entry from the stored U_d and X (or M), at the
    design's evaluation point: the clipped theta (range), T, or 0 (arbitrary)."""
    if ctrl.Ud is None:
        return np.zeros((0, len(ctrl.X)))
    if ctrl.kind == "RangeDT_FixedKd":
        return np.array([[u.eval(theta) / m for u, m in zip(row, ctrl.M)] for row in ctrl.Ud])
    dwell = ctrl.dwell
    if ctrl.kind == "RangeDT":
        at = min(max(theta, dwell.Tmin), dwell.Tmax)
    else:
        at = 0.0 if ctrl.kind == "ArbitraryDT" else dwell.T
    return np.array([[u.eval(at) / x.eval(at) for u, x in zip(row, ctrl.X)] for row in ctrl.Ud])


def _closed_loop_mesh(view, taus, mode):
    """A + B K_c, E*1, C + D K_c and F*1 of a closed-loop view on taus,
    cell-major, with K_c from oracle_kc."""
    plant, ctrl = view.sys, view.ctrl
    if mode is None:
        pms = (plant.A, plant.Bc, plant.Ec, plant.Cc, plant.Dc, plant.Fc)
    else:
        pms = tuple(plant.modes[mode][k] for k in ("A", "B", "E", "C", "D", "F"))
    A, B, E, C, D, F = (cell_mesh(pm, taus, ctrl.clamp) for pm in pms)
    K = oracle_kc(ctrl, taus, mode)
    return A + B @ K, E.sum(axis=2), C + D @ K, F.sum(axis=2)


def _verify_numeric(cert, view, grid):
    zeta = cert.zeta
    gamma = cert.gamma
    dwell = cert.dwell
    slacks = {}
    Tend = dwell.horizon_tau() if dwell.kind != "arbitrary" else 0.0
    taus = np.linspace(0.0, Tend, grid + 2) if Tend > 0 else np.array([0.0])
    if dwell.clamp is not None:
        taus = np.minimum(taus, dwell.clamp)
    per_mode = cert.per_mode
    zsets = zeta_vectors(cert)
    n = len(zsets[0])
    for mode, zs in enumerate(zsets):
        m_arg = mode if per_mode else None
        A_m, Ec1_m, Cc_m, Fc1_m = _closed_loop_mesh(view, taus, m_arg)
        zv = np.stack([z.eval(taus) for z in zs], axis=1)
        zdv = np.stack([z.deriv().eval(taus) for z in zs], axis=1)
        flow = zdv - np.einsum("mij,mj->mi", A_m, zv) - Ec1_m
        _record(slacks, f"flow[{mode}]" if per_mode else "flow", float(np.min(flow)))
        if Cc_m.shape[1]:
            outc = gamma - (np.einsum("mij,mj->mi", Cc_m, zv) + Fc1_m)
            _record(slacks, f"out_c[{mode}]" if per_mode else "out_c", float(np.min(outc)))
        if dwell.kind == "minimum":
            T = dwell.T
            A_T, Ec1_T, Cc_T, Fc1_T = (arr[-1] for arr in _closed_loop_mesh(view, np.array([T]), m_arg))
            zT = np.array([z.eval(T) for z in zs])
            _record(slacks, f"stat_flow[{mode}]" if per_mode else "stat_flow",
                    float(np.min(-(A_T @ zT + Ec1_T))))
            if Cc_T.shape[0]:
                _record(slacks, f"stat_out[{mode}]" if per_mode else "stat_out",
                        float(np.min(gamma - (Cc_T @ zT + Fc1_T))))
    if not per_mode:
        zs = zsets[0]
        z0 = np.array([z.eval(0.0) for z in zs])
        if dwell.kind == "range":
            thetas = np.linspace(dwell.Tmin, dwell.Tmax, min(grid, 301))
        elif dwell.kind == "arbitrary":
            thetas = np.array([0.0])
        else:
            thetas = np.array([dwell.T])
        for th in thetas:
            Kd = oracle_kd(view.ctrl, float(th))
            for jk, jm in enumerate(view.sys.jumps):
                J_cl, Ed1 = jm.J + jm.Bd @ Kd, jm.Ed.sum(axis=1)
                Cd_cl, Fd1 = jm.Cd + jm.Dd @ Kd, jm.Fd.sum(axis=1)
                target = np.array([z.eval(min(th, dwell.clamp) if dwell.clamp else th) for z in zs])
                _record(slacks, f"jump[{jk}]", float(np.min(z0 - (J_cl @ target + Ed1))))
                if Cd_cl.shape[0]:
                    _record(slacks, f"out_d[{jk}]", float(np.min(gamma - (Cd_cl @ target + Fd1))))
        _record(slacks, "pin_lo", float(np.min(z0)))
    else:
        T = dwell.T
        for i in range(len(zsets)):
            for j in range(len(zsets)):
                if i != j:
                    c = min(zsets[i][r].eval(0.0) - zsets[j][r].eval(T) for r in range(n))
                    _record(slacks, "couple", float(c))
        _record(slacks, "pin_lo", float(min(z.eval(0.0) for zs in zsets for z in zs)))
    return _oracle_report(cert, view, slacks, grid)


def three_path_verify(cert, sys, grid=1000):
    """Oracle for cert.verify: the three row evaluators it replaced -- symbolic
    Poly rows for impulsive and for switched systems, mesh rows for closed-loop
    views -- chosen by the type of `sys`, with the same Mismatch guards; the
    proof verdict comes from bernstein_oracle over oracle_rows."""
    if isinstance(sys, SwitchedSystem):
        if cert.kind != "SwitchedMinDT":
            raise Mismatch(f"{cert.kind} certificate cannot verify a switched system")
        return _verify_switched(cert, sys, grid)
    if isinstance(sys, ImpulsiveSystem):
        if cert.kind == "SwitchedMinDT":
            raise Mismatch("switched certificate needs the switched system")
        return _verify_impulsive(cert, sys, grid)
    return _verify_numeric(cert, sys, grid)


def _shrink(x):
    """Polynomials, arrays and nested lists of them scaled by 0.97."""
    if x is None or isinstance(x, (Poly, np.ndarray)):
        return x if x is None else 0.97 * x
    return [_shrink(y) for y in x]


def _mutations(cert, target):
    """(certificate, target) pairs: the certificate, its gain cut to 0.9 gamma,
    and its zeta(0) cut to 0.97 zeta(0).  A closed loop's certificate is its
    controller's, zeta = X, so there X, U_c, U_d and M are cut to 0.97 of
    themselves instead, which keeps the gains K_c and K_d."""
    if isinstance(target, synthesis_mod.ClosedLoopView):
        ctrl = target.ctrl
        ctrl = dataclasses.replace(ctrl, **{k: _shrink(getattr(ctrl, k)) for k in ("X", "Uc", "Ud", "M")})
        moved = (synthesis_mod.certificate_from(ctrl), synthesis_mod.closed_loop(target.sys, ctrl))
    else:
        cut = lambda z: Poly((0.97 * z.coeffs[0],) + z.coeffs[1:])
        zeta = [[cut(z) for z in zs] for zs in cert.zeta] if cert.per_mode else [cut(z) for z in cert.zeta]
        moved = (dataclasses.replace(cert, zeta=zeta), target)
    return [(cert, target), (dataclasses.replace(cert, gamma=0.9 * cert.gamma), target), moved]


def lifted(cert, target):
    """A switched certificate and its system, or closed loop, as those of the
    lift `lift_switched`, built here apart from `Certificate.lifted` and
    `ControllerRealization.lifted`: zeta and X stacked, U_c block-diagonal
    with zero polynomials off the blocks.  Any other pair as it is."""
    if not cert.per_mode:
        return cert, target
    stack = lambda vectors: [v for vs in vectors for v in vs]
    c = dataclasses.replace(cert, zeta=stack(cert.zeta))
    if not isinstance(target, synthesis_mod.ClosedLoopView):
        return c, lift_switched(target)
    ctrl = target.ctrl
    N, n, zero = len(ctrl.X), len(ctrl.X[0]), Poly.const(0.0)
    Uc = [[zero] * (i * n) + row + [zero] * ((N - 1 - i) * n) for i, rows in enumerate(ctrl.Uc) for row in rows]
    ctrl = dataclasses.replace(ctrl, X=stack(ctrl.X), Uc=Uc)
    return c, synthesis_mod.closed_loop(lift_switched(target.sys), ctrl)


def merged_minima(slacks):
    """Each family's worst slack with the mode and jump indices dropped, and
    the couple, jump and pin_lo families as one: the lift's jump rows are the
    coupling rows and zeta_k(0) >= 0, so the per-mode and the lifted reports
    of one certificate give the same minima."""
    out = {}
    for family, slack in slacks.items():
        base = family.split("[")[0]
        key = "couple|jump|pin_lo" if base in ("couple", "jump", "pin_lo") else base
        out[key] = min(out.get(key, math.inf), slack)
    return out


def assert_slacks_match(got, want, scale):
    """The same families, each worst slack within 1e-12 times scale."""
    assert got.keys() == want.keys()
    for fam, v in got.items():
        assert abs(v - want[fam]) <= 1e-12 * scale, fam


def assert_matches_three_paths(cert, target):
    """verify gives the three-path oracle's verdicts, row families and slacks
    (to 1e-12 per unit of row scale) on the certificate and its mutations.
    A switched certificate is verified as the lift's: its report has the
    families and slacks of the oracle's impulsive path on the lift, and the
    verdicts and merged minima (`merged_minima`) of its per-mode path."""
    for c, t in _mutations(cert, target):
        got, want = verify(c, t), three_path_verify(*lifted(c, t))
        assert got.passed == want.passed
        assert got.handelman_ok == want.handelman_ok
        scale = max([1.0 + abs(c.gamma)] + [z.max_abs_coeff() for zs in zeta_vectors(c) for z in zs])
        assert_slacks_match(got.worst_slack, want.worst_slack, scale)
        if c.per_mode:
            per_mode = three_path_verify(c, t)
            assert (got.passed, got.handelman_ok) == (per_mode.passed, per_mode.handelman_ok)
            assert_slacks_match(merged_minima(got.worst_slack), merged_minima(per_mode.worst_slack), scale)


def bernstein_oracle(p, interval, d, margin=0.0):
    """Oracle for poly._bernstein: the degree-d Bernstein coefficients of
    (p - margin)(a + h s) on s in [0, 1], h = b - a, in Fractions, as
    poly computed them before the integer routine."""
    a, b = interval
    fa, h = Fraction(a), Fraction(b) - Fraction(a)
    cs = [Fraction(c) for c in p.coeffs]
    cs[0] -= Fraction(margin)
    q = [
        h**k * sum(c * math.comb(j, k) * fa ** (j - k) for j, c in enumerate(cs) if j >= k)
        for k in range(len(cs))
    ]
    return [
        sum(Fraction(math.comb(i, k), math.comb(d, k)) * c for k, c in enumerate(q[: i + 1]))
        for i in range(d + 1)
    ]


def per_row_certify_at_order(p, a, b, order, margin):
    """LP oracle for the nonnegativity decision at one order, as poly made it before the
    exact Bernstein test: the product-basis cone, with every basis polynomial
    expanded by Poly.__pow__, solved by lp_solve.  The weights c_ij of
    (t - a)^i (b - t)^j, or None when not Optimal."""
    h = b - a
    q = (p - Poly.const(margin)).shift_scale_arg(a, h)
    pairs = [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]
    basis = {ij: (Poly((0.0, 1.0)) ** ij[0]) * (Poly((1.0, -1.0)) ** ij[1]) for ij in pairs}
    lp = LinearProgram(num_vars=len(pairs), bounds={v: (0.0, None) for v in range(len(pairs))})
    for k in range(order + 1):
        row = {}
        for v, ij in enumerate(pairs):
            bc = basis[ij].coeffs
            if k < len(bc) and bc[k] != 0.0:
                row[v] = bc[k]
        add_eq(lp, row, q.coeffs[k] if k < len(q.coeffs) else 0.0)
    try:
        sol = lp_solve(lp)
    except NumericalFailure:
        return None
    if sol.status != "Optimal":
        return None
    weights = {}
    for v, (i, j) in enumerate(pairs):
        c = max(sol.x[v], 0.0) / h ** (i + j)
        if c != 0.0:
            weights[(i, j)] = c
    return weights


def _reference_flow_grid(A_pm, E_pm, taus, clamp=None):
    """Phi(tau_i, 0) as (n, n, len) and the unit-input forced response as
    (n, len) of the bare PolyMatrix data (A, E) on a uniform grid from 0, by
    the simulator's RK4 maps and prefix scan; the cell ends are i * h."""
    taus = np.asarray(taus, dtype=float)
    m, n = len(taus) - 1, A_pm.shape[0]
    if m < 1:
        return np.eye(n)[:, :, None], np.zeros((n, 1))
    h = taus[1] - taus[0]
    ends = np.arange(m + 1) * h
    grid = np.concatenate([ends, ends[:-1] + 0.5 * h])
    R, s = sim_mod._rk4_stage(A_pm.eval_mesh(grid, clamp), E_pm.eval_mesh(grid, clamp).sum(axis=1),
                              slice(0, m), slice(m + 1, 2 * m + 1), slice(1, m + 1), h)
    tables = sim_mod._block_prefix(R, s)
    return sim_mod._scan(tables, np.eye(n), m, forced=False), sim_mod._scan(tables, np.zeros(n), m)


def _referee_row(slacks, bad, family, lead, M, x, c):
    """One row lead - (M x + c) of the reference cross-check: its worst slack,
    and its family marked bad where it is below -_SLACK_TOL times the size
    |lead| + |M| |x| + |c| of its terms."""
    value = lead - (sim_mod._mv(M, x) + c)
    _record(slacks, family, float(np.min(value)))
    if not np.all(value >= -_SLACK_TOL * (np.abs(lead) + sim_mod._mv(np.abs(M), np.abs(x)) + np.abs(c))):
        bad.add(family)


def reference_cross_check(cert, sys, theta_points=101, grid=400):
    """Oracle for cross_check_discrete of a plant: its body before it read the
    simulator's evaluator, integrating the plant's PolyMatrix data itself,
    evaluating the outputs and the stationary rows itself and the jump rows
    one theta at a time, each at the first grid point at or after theta."""
    dwell = cert.dwell
    gamma = cert.gamma
    slacks, bad = {}, set()

    def report(m):
        return VerificationReport(passed=not bad, worst_slack=slacks, grid_density=m,
                                  phi_residual=float(min(slacks.values())))

    if cert.kind == "SwitchedMinDT":
        T = dwell.T
        taus = np.linspace(0.0, T, grid + 1)
        lam = [np.array([z.eval(T) for z in zs]) for zs in cert.zeta]
        for i, md in enumerate(sys.modes):
            Phis, rs = _reference_flow_grid(md["A"], md["E"], taus)
            C_m = md["C"].eval_mesh(taus)
            F1_m = md["F"].eval_mesh(taus).sum(axis=1)
            _referee_row(slacks, bad, f"stat_flow[{i}]", 0.0, md["A"](T), lam[i], md["E"](T).sum(axis=1))
            _referee_row(slacks, bad, f"stat_out[{i}]", gamma, md["C"](T), lam[i], md["F"](T).sum(axis=1))
            for j in range(sys.N):
                if i == j:
                    continue
                r_ij = sim_mod._mv(Phis, lam[j]) + rs
                _referee_row(slacks, bad, f"couple[{j}->{i}]", lam[i], Phis[..., -1], lam[j], rs[:, -1])
                _referee_row(slacks, bad, f"out[{i},{j}]", gamma, C_m, r_ij, F1_m)
        return report(grid)

    lam = np.array([z.eval(0.0) for z in cert.zeta])
    clamp = dwell.clamp
    if dwell.kind == "constant":
        theta_hi = dwell.T
        thetas = np.array([dwell.T])
    elif dwell.kind == "minimum":
        theta_hi = 3.0 * dwell.T + 1.0
        thetas = np.linspace(dwell.T, theta_hi, theta_points)
        clamp = dwell.T
    elif dwell.kind == "range":
        theta_hi = dwell.Tmax
        thetas = np.linspace(dwell.Tmin, dwell.Tmax, theta_points)
    else:
        decay = -float(np.max(np.real(np.linalg.eigvals(sys.A.const()))))
        theta_hi = float(np.clip(10.0 / max(decay, 1e-3), 1.0, 100.0))
        thetas = np.linspace(0.0, theta_hi, theta_points)
    m = max(grid, theta_points * 4)
    taus = np.linspace(0.0, theta_hi, m + 1)
    Phis, rs = _reference_flow_grid(sys.A, sys.Ec, taus, clamp=clamp)
    r_of = sim_mod._mv(Phis, lam) + rs

    C_m = sys.Cc.eval_mesh(taus, clamp)
    F1_m = sys.Fc.eval_mesh(taus, clamp).sum(axis=1)
    if sys.qc:
        _referee_row(slacks, bad, "out_c", gamma, C_m, r_of, F1_m)
    if dwell.kind == "minimum":
        T = dwell.T
        iT = int(round(T / (taus[1] - taus[0])))
        rT = r_of[:, min(iT, m)]
        if sys.qc:
            _referee_row(slacks, bad, "stat_out", gamma, sys.Cc(T), rT, sys.Fc(T).sum(axis=1))
    idx = np.minimum(np.ceil(thetas / (taus[1] - taus[0])).astype(int), m)
    for jk, jm in enumerate(sys.jumps):
        for ii in idx:
            r_th = r_of[:, ii]
            _referee_row(slacks, bad, f"jump[{jk}]", lam, jm.J, r_th, jm.Ed.sum(axis=1))
            if jm.Cd.shape[0]:
                _referee_row(slacks, bad, f"out_d[{jk}]", gamma, jm.Cd, r_th, jm.Fd.sum(axis=1))
    return report(m)


# The reference expressions the row oracles below build with: lp.LinExpr and
# lp.PolyExpr as they were before the analyses built their rows from
# coefficient arrays.


class LinExpr:
    """Affine expression c0 + sum coeff[v] * x[v] over LP variables."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[dict[int, float]] = None, const: float = 0.0):
        self.coeffs = dict(coeffs) if coeffs else {}
        self.const = float(const)

    @staticmethod
    def variable(v: int) -> "LinExpr":
        return LinExpr({v: 1.0})

    @staticmethod
    def constant(c: float) -> "LinExpr":
        return LinExpr(None, c)

    def copy(self) -> "LinExpr":
        return LinExpr(self.coeffs, self.const)

    def scaled(self, s: float) -> "LinExpr":
        if s == 0.0:
            return LinExpr()
        return LinExpr({v: s * c for v, c in self.coeffs.items()}, s * self.const)

    def add_inplace(self, other: "LinExpr", scale: float = 1.0) -> None:
        if scale == 0.0:
            return
        for v, c in other.coeffs.items():
            self.coeffs[v] = self.coeffs.get(v, 0.0) + scale * c
        self.const += scale * other.const

    def __add__(self, other):
        out = self.copy()
        if isinstance(other, LinExpr):
            out.add_inplace(other)
        else:
            out.const += float(other)
        return out

    def __sub__(self, other):
        other = other if isinstance(other, LinExpr) else LinExpr.constant(float(other))
        return self + other.scaled(-1.0)

    def __neg__(self):
        return self.scaled(-1.0)

    @property
    def is_zero(self) -> bool:
        return self.const == 0.0 and not any(self.coeffs.values())

    def value(self, x: np.ndarray) -> float:
        return self.const + sum(c * x[v] for v, c in self.coeffs.items())


class PolyExpr:
    """Polynomial whose coefficients are LinExpr (affine in LP variables)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[LinExpr]):
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1].is_zero:
            cs.pop()
        self.coeffs = cs if cs else [LinExpr()]

    @staticmethod
    def from_vars(var_ids: Sequence[int]) -> "PolyExpr":
        return PolyExpr([LinExpr.variable(v) for v in var_ids])

    @staticmethod
    def from_poly(coeffs: Sequence[float]) -> "PolyExpr":
        return PolyExpr([LinExpr.constant(c) for c in coeffs])

    @staticmethod
    def zero() -> "PolyExpr":
        return PolyExpr([LinExpr()])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "PolyExpr") -> "PolyExpr":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [LinExpr() for _ in range(n)]
        for k, c in enumerate(self.coeffs):
            out[k].add_inplace(c)
        for k, c in enumerate(other.coeffs):
            out[k].add_inplace(c)
        return PolyExpr(out)

    def __sub__(self, other: "PolyExpr") -> "PolyExpr":
        return self + other.scaled(-1.0)

    def __neg__(self) -> "PolyExpr":
        return self.scaled(-1.0)

    def scaled(self, s: float) -> "PolyExpr":
        return PolyExpr([c.scaled(s) for c in self.coeffs])

    def mul_poly(self, data: Sequence[float]) -> "PolyExpr":
        """Multiply by a constant-coefficient polynomial (convolution)."""
        out = [LinExpr() for _ in range(len(self.coeffs) + len(data) - 1)]
        for j, d in enumerate(data):
            if d == 0.0:
                continue
            for k, c in enumerate(self.coeffs):
                out[j + k].add_inplace(c, d)
        return PolyExpr(out)

    def deriv(self) -> "PolyExpr":
        if len(self.coeffs) == 1:
            return PolyExpr.zero()
        return PolyExpr([c.scaled(float(k)) for k, c in enumerate(self.coeffs) if k > 0])

    def eval_at(self, t: float) -> LinExpr:
        out = LinExpr()
        tk = 1.0
        for c in self.coeffs:
            out.add_inplace(c, tk)
            tk *= t
        return out

    def eval_grid(self, ts: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
        """eval_at at every t in ts in one pass: (cols, block, const) with
        eval_at(ts[s]) = block[s] . x[cols] + const[s].  The powers are the
        running products eval_at takes and coefficient k is added after
        coefficient k - 1, so every finite value is bit-equal to eval_at's
        (the zero terms it skips change no sum)."""
        cols = sorted(set(chain.from_iterable(c.coeffs for c in self.coeffs)))
        pos = {v: j for j, v in enumerate(cols)}
        coef = np.zeros((len(self.coeffs), len(cols) + 1))  # last column: the constant
        for k, c in enumerate(self.coeffs):
            coef[k, [pos[v] for v in c.coeffs]] = list(c.coeffs.values())
            coef[k, -1] = c.const
        powers = np.cumprod(np.column_stack([np.ones(len(ts))] + [ts] * self.degree), axis=1)
        acc = np.zeros((len(ts), len(cols) + 1))
        for k in range(len(self.coeffs)):
            acc += powers[:, k, None] * coef[k]
        return cols, acc[:, :-1], acc[:, -1]

    def shift_scale_arg(self, a: float, h: float) -> "PolyExpr":
        """PolyExpr q with q(s) = p(a + h*s)."""
        n = len(self.coeffs)
        out = []
        for k in range(n):
            acc = LinExpr()
            for j in range(k, n):
                acc.add_inplace(self.coeffs[j], math.comb(j, k) * a ** (j - k))
            out.append(acc.scaled(h**k))
        return PolyExpr(out)

    def value(self, x: np.ndarray):
        """Substitute a solution vector, yielding a concrete Poly."""
        return Poly(tuple(c.value(x) for c in self.coeffs))


def row_terms(e: np.ndarray) -> tuple[dict[int, float], float]:
    """A row array of analysis (an expression: entry 0 the constant, entry
    1 + v the coefficient of column v) as (its nonzero coefficients, its
    constant)."""
    cols = np.flatnonzero(e[1:])
    return {int(v): float(e[1 + v]) for v in cols}, float(e[0])


def ref_expr(a: np.ndarray):
    """An analysis row array as the reference expression: a LinExpr (1-D) or
    a PolyExpr with one LinExpr per power (2-D)."""
    if a.ndim == 1:
        return LinExpr(*row_terms(a))
    return PolyExpr([LinExpr(*row_terms(c)) for c in a])


def array_of(e) -> np.ndarray:
    """A reference LinExpr or PolyExpr as an analysis row array."""
    if isinstance(e, LinExpr):
        out = np.zeros(2 + max(e.coeffs, default=-1))
        out[0] = e.const
        for v, c in e.coeffs.items():
            out[1 + v] = c
        return out
    rows = [array_of(c) for c in e.coeffs]
    width = max(len(r) for r in rows)
    return np.array([np.pad(r, (0, width - len(r))) for r in rows])


class ReferenceRows:
    """A program seen through the reference expressions: poly_vec hands out
    PolyExprs and add_point_ge and add_interval_ge take LinExpr and PolyExpr
    rows, which reach the program as arrays; all else is the program's."""

    def __init__(self, prog):
        self.prog = prog

    def __getattr__(self, name):
        return getattr(self.prog, name)

    def poly_vec(self, n, degree, name):
        return [ref_expr(p) for p in self.prog.poly_vec(n, degree, name)]

    def add_point_ge(self, family, index, expr, margin):
        self.prog.add_point_ge(family, index, array_of(expr), margin)

    def add_interval_ge(self, family, index, pexpr, interval, margin):
        self.prog.add_interval_ge(family, index, array_of(pexpr), interval, margin)


def _matvec_row(pm, i, zeta):
    """(M(tau) zeta(tau))_i as a PolyExpr: the flow-row product the analyses
    used before their theorem rows went through analysis._Mode."""
    out = PolyExpr.zero()
    for j, z in enumerate(zeta):
        entry = pm.entry(i, j)
        if not entry.is_zero:
            out = out + z.mul_poly(entry.coeffs)
    return out


def _const_matvec_row(mat, i, vals):
    """(M zeta)_i for a constant M and LinExprs zeta, as the analyses built it
    before their theorem rows went through analysis._Mode."""
    out = LinExpr()
    for j, v in enumerate(vals):
        out.add_inplace(v, float(mat[i, j]))
    return out


def _reference_entry(A_pm, X, B_pm, U, i, j):
    """(A(tau) X(tau) + B(tau) U(tau))_{ij} as a PolyExpr (X diagonal), as
    synthesis built it before the entry moved to analysis."""
    expr = X[j].mul_poly(A_pm.entry(i, j).coeffs)
    for l in range(len(U)):
        b = B_pm.entry(i, l)
        if not b.is_zero:
            expr = expr + U[l][j].mul_poly(b.coeffs)
    return expr


def _sum_entries(exprs):
    out = PolyExpr.zero()
    for e in exprs:
        out = out + e
    return out


class ReferenceMode:
    """synthesis._Mode before the theorem rows moved to analysis._Mode: its
    own performance rows (families perf_flow and perf_out_c), with the
    stationary rows evaluated from the polynomial row at tau = stat_at."""

    def __init__(self, prog, mats, X, U, Tend, tag=""):
        A, B, self.E, C, D, self.F = mats
        self.prog, self.X, self.U, self.tag = prog, X, U, tag
        self.iv = (0.0, Tend)
        n = len(X)
        self.flow = [[_reference_entry(A, X, B, U, i, j) for j in range(n)] for i in range(n)]
        self.out = [[_reference_entry(C, X, D, U, i, j) for j in range(n)] for i in range(C.shape[0])]

    def positivity(self, alpha):
        al = PolyExpr([LinExpr.variable(alpha)])
        flow = [[e + al if i == j else e for j, e in enumerate(row)] for i, row in enumerate(self.flow)]
        for family, entries in (("pos_flow", flow), ("pos_out_c", self.out)):
            for idx, expr in enumerate(chain.from_iterable(entries)):
                self.prog.add_interval_ge(f"{family}{self.tag}", idx, expr, self.iv, 0.0)

    def performance(self, gamma, margin, stat_at=None):
        prog, tag = self.prog, self.tag
        flow = [_sum_entries(row) for row in self.flow]
        out = [_sum_entries(row) for row in self.out]
        gam = PolyExpr([LinExpr.variable(gamma)])
        for i, row in enumerate(flow):
            expr = -row - PolyExpr.from_poly(_row_ones(self.E, i).coeffs)
            prog.add_interval_ge(f"perf_flow{tag}", i, self.X[i].deriv() + expr, self.iv, margin)
        for i, row in enumerate(out):
            expr = gam - row - PolyExpr.from_poly(_row_ones(self.F, i).coeffs)
            prog.add_interval_ge(f"perf_out_c{tag}", i, expr, self.iv, margin)
        if stat_at is None:
            return
        E_T, F_T = self.E(stat_at), self.F(stat_at)
        for i, row in enumerate(flow):
            expr = (-row).eval_at(stat_at) - float(E_T[i].sum())
            prog.add_point_ge(f"stat_flow{tag}", i, expr, margin)
        for i, row in enumerate(out):
            expr = LinExpr.variable(gamma) - row.eval_at(stat_at) - float(F_T[i].sum())
            prog.add_point_ge(f"stat_out{tag}", i, expr, margin)

    def denominator(self, x_min, gain_cap):
        prog, tag = self.prog, self.tag
        for j, x in enumerate(self.X):
            prog.add_interval_ge(f"x_pos{tag}", j, x - PolyExpr.from_poly([x_min]), self.iv, 0.0)
            prog.add_point_ge(f"x_cap{tag}", j, LinExpr.constant(synthesis_mod._X_CAP) - x.eval_at(0.0), 0.0)
        if gain_cap is not None:
            synthesis_mod._gain_cap_rows(prog.prog, f"gain_cap{tag}", 0, [array_of(x) for x in self.X],
                                         [[array_of(u) for u in row] for row in self.U], gain_cap, self.iv)

    def regularize(self, extra_obj, reg):
        Tend = self.iv[1]
        for x in self.X:
            for k, le in enumerate(x.coeffs):
                w = reg * (Tend ** (k + 1) / (k + 1)) if Tend > 0 else (reg if k == 0 else 0.0)
                for v, c in le.coeffs.items():
                    extra_obj[v] = extra_obj.get(v, 0.0) + c * w


def reference_analyze_arbitrary(sys, margin=DEFAULT_MARGIN, jump_margin=DEFAULT_JUMP_MARGIN):
    """Oracle for analyze_arbitrary: its body before it went through
    _analyze_hybrid, with its own flow, out_c, jump, out_d and pin loops.
    A jump row with no term under jump margin 0, lam_i >= 0, is left out,
    as analysis._jump_rows leaves it out: pin_lo gives it."""
    if not sys.is_constant():
        raise NotConstant("arbitrary dwell-time analysis needs constant matrices")
    A = sys.A.const()
    Ec1 = sys.Ec.const().sum(axis=1)
    Cc = sys.Cc.const()
    Fc1 = sys.Fc.const().sum(axis=1)
    n, qc = sys.n, sys.qc

    prog = ReferenceRows(_Program())
    lam = [prog.scalar(name=f"lam{i}") for i in range(n)]
    gamma = prog.scalar(lo=0.0, name="gamma")
    lam_e = [LinExpr.variable(v) for v in lam]
    for i in range(n):
        prog.add_point_ge("flow", i, -_const_matvec_row(A, i, lam_e) - Ec1[i], margin)
    for i in range(qc):
        prog.add_point_ge(
            "out_c", i, LinExpr.variable(gamma) - _const_matvec_row(Cc, i, lam_e) - Fc1[i], margin
        )
    for jk, jm in enumerate(sys.jumps):
        JmI = jm.J - np.eye(n)
        Ed1 = jm.Ed.sum(axis=1)
        Fd1 = jm.Fd.sum(axis=1)
        for i in range(n):
            if jump_margin or Ed1[i] or jm.J[i].any():
                prog.add_point_ge(
                    f"jump[{jk}]", i, -_const_matvec_row(JmI, i, lam_e) - Ed1[i], jump_margin
                )
        for i in range(jm.Cd.shape[0]):
            prog.add_point_ge(
                f"out_d[{jk}]",
                i,
                LinExpr.variable(gamma) - _const_matvec_row(jm.Cd, i, lam_e) - Fd1[i],
                margin,
            )
    for i in range(n):
        prog.add_point_ge("pin_lo", i, lam_e[i], margin)
        prog.add_point_ge("pin_hi", i, LinExpr.constant(_ZETA_PIN) - lam_e[i], 0.0)
    sol = analysis_mod.lp_solve(prog.relaxation(0, {gamma: 1.0}))
    if sol.status != "Optimal":
        raise Infeasible("no positive vector satisfies the arbitrary dwell-time conditions")
    return Certificate(
        gamma=float(sol.x[gamma]),
        zeta=[Poly.const(sol.x[v]) for v in lam],
        dwell=DwellTimeSpec.arbitrary(),
        margin=margin,
        jump_margin=jump_margin,
        degree=0,
    )


def reference_switched_min(sw, T, degree, margin=DEFAULT_MARGIN, relax_schedule=RELAX_SCHEDULE):
    """Oracle for analyze_switched_min: its body before the per-mode rows went
    through _gain_rows_constant_like, with its own flow, out_c, stat and pin loops."""
    n, q = sw.n, sw.q

    prog = ReferenceRows(_Program())
    zetas = [prog.poly_vec(n, degree, f"zeta{i}_") for i in range(sw.N)]
    gamma = prog.scalar(lo=0.0, name="gamma")
    gam = PolyExpr([LinExpr.variable(gamma)])
    # each family for every mode in turn, in the order the lift's program has them
    for i, md in enumerate(sw.modes):
        zeta = zetas[i]
        for r in range(n):
            expr = zeta[r].deriv() - _matvec_row(md["A"], r, zeta) - PolyExpr.from_poly(
                _row_ones(md["E"], r).coeffs
            )
            prog.add_interval_ge(f"flow[{i}]", r, expr, (0.0, T), margin)
    for i, md in enumerate(sw.modes):
        zeta = zetas[i]
        for r in range(q):
            expr = gam - _matvec_row(md["C"], r, zeta) - PolyExpr.from_poly(
                _row_ones(md["F"], r).coeffs
            )
            prog.add_interval_ge(f"out_c[{i}]", r, expr, (0.0, T), margin)
    for i, md in enumerate(sw.modes):
        zT = [z.eval_at(T) for z in zetas[i]]
        A_T = md["A"](T)
        E_T = md["E"](T).sum(axis=1)
        for r in range(n):
            prog.add_point_ge(f"stat_flow[{i}]", r, -_const_matvec_row(A_T, r, zT) - E_T[r], margin)
    for i, md in enumerate(sw.modes):
        zT = [z.eval_at(T) for z in zetas[i]]
        C_T = md["C"](T)
        F_T = md["F"](T).sum(axis=1)
        for r in range(q):
            prog.add_point_ge(
                f"stat_out[{i}]",
                r,
                LinExpr.variable(gamma) - _const_matvec_row(C_T, r, zT) - F_T[r],
                margin,
            )
    for i in range(sw.N):
        for j in range(sw.N):
            if i == j:
                continue
            zi0 = [z.eval_at(0.0) for z in zetas[i]]
            zjT = [z.eval_at(T) for z in zetas[j]]
            for r in range(n):
                prog.add_point_ge(f"couple[{j}->{i}]", r, zi0[r] - zjT[r], 0.0)
    for i in range(sw.N):
        z0 = [z.eval_at(0.0) for z in zetas[i]]
        for r in range(n):
            prog.add_point_ge(f"pin_lo[{i}]", r, z0[r], margin)
            prog.add_point_ge(f"pin_hi[{i}]", r, LinExpr.constant(_ZETA_PIN) - z0[r], 0.0)

    def finalize(sol, relax):
        return Certificate(
            gamma=float(sol.x[gamma]),
            zeta=[[z.value(sol.x) for z in zeta] for zeta in zetas],
            dwell=DwellTimeSpec.minimum(T),
            margin=margin,
            jump_margin=0.0,
            degree=degree,
                    relax=relax,
        )

    return _solve_with_escalation(prog.prog, gamma, finalize, relax_schedule=relax_schedule)


def reference_synthesize_switched(sw, T, degree, margin=DEFAULT_MARGIN, x_min=1e-3, reg=1e-6,
                                  gain_cap=100.0, relax_schedule=RELAX_SCHEDULE):
    """Oracle for synthesize_switched: its body before the per-mode rows went
    through synthesis._Mode, with its own positivity, performance, stationary,
    denominator and regularizer loops (families pos_out[i] and perf_out[i])."""
    n, m, q = sw.n, sw.m, sw.q

    prog = ReferenceRows(_Program(_product_cone))
    Xs = [prog.poly_vec(n, degree, f"X{i}_") for i in range(sw.N)]
    Us = [
        [
            [
                PolyExpr.from_vars(
                    [prog.scalar(name=f"U{i}_{l}{j}_c{k}") for k in range(degree + 1)]
                )
                for j in range(n)
            ]
            for l in range(m)
        ]
        for i in range(sw.N)
    ]
    gamma = prog.scalar(lo=0.0, name="gamma")
    alpha = prog.scalar(lo=0.0, hi=synthesis_mod._ALPHA_CAP, name="alpha")
    gam = PolyExpr([LinExpr.variable(gamma)])
    # each family for every mode in turn, in the order the lift's program has them
    modes = list(zip(sw.modes, Xs, Us))
    flows = [[_sum_entries([_reference_entry(md["A"], X, md["B"], U, r, c) for c in range(n)]) for r in range(n)]
             for md, X, U in modes]
    outs = [[_sum_entries([_reference_entry(md["C"], X, md["D"], U, r, c) for c in range(n)]) for r in range(q)]
            for md, X, U in modes]
    for i, (md, X, U) in enumerate(modes):
        idx = 0
        for r in range(n):
            for c in range(n):
                expr = _reference_entry(md["A"], X, md["B"], U, r, c)
                if r == c:
                    expr = expr + PolyExpr([LinExpr.variable(alpha)])
                prog.add_interval_ge(f"pos_flow[{i}]", idx, expr, (0.0, T), 0.0)
                idx += 1
    for i, (md, X, U) in enumerate(modes):
        idx = 0
        for r in range(q):
            for c in range(n):
                expr = _reference_entry(md["C"], X, md["D"], U, r, c)
                prog.add_interval_ge(f"pos_out[{i}]", idx, expr, (0.0, T), 0.0)
                idx += 1
    for i, (md, X, U) in enumerate(modes):
        for r, row in enumerate(flows[i]):
            expr = X[r].deriv() - row - PolyExpr.from_poly(_row_ones(md["E"], r).coeffs)
            prog.add_interval_ge(f"perf_flow[{i}]", r, expr, (0.0, T), margin)
    for i, (md, X, U) in enumerate(modes):
        for r, row in enumerate(outs[i]):
            expr = gam - row - PolyExpr.from_poly(_row_ones(md["F"], r).coeffs)
            prog.add_interval_ge(f"perf_out[{i}]", r, expr, (0.0, T), margin)
    for i, (md, X, U) in enumerate(modes):
        for r, row in enumerate(flows[i]):
            stat = (-row).eval_at(T) - float(md["E"](T)[r].sum())
            prog.add_point_ge(f"stat_flow[{i}]", r, stat, margin)
    for i, (md, X, U) in enumerate(modes):
        for r, row in enumerate(outs[i]):
            prog.add_point_ge(
                f"stat_out[{i}]",
                r,
                LinExpr.variable(gamma) - row.eval_at(T) - float(md["F"](T)[r].sum()),
                margin,
            )
    # the coupling rows in the order of the lift's jump maps
    for i in range(sw.N):
        for j in range(sw.N):
            if i == j:
                continue
            for r in range(n):
                prog.add_point_ge(f"couple[{j}->{i}]", r, Xs[i][r].eval_at(0.0) - Xs[j][r].eval_at(T), 0.0)
    for i, (md, X, U) in enumerate(modes):
        for r in range(n):
            prog.add_interval_ge(f"x_pos[{i}]", r, X[r] - PolyExpr.from_poly([x_min]), (0.0, T), 0.0)
            prog.add_point_ge(
                f"x_cap[{i}]", r, LinExpr.constant(synthesis_mod._X_CAP) - X[r].eval_at(0.0), 0.0
            )
    for i, (md, X, U) in enumerate(modes):
        if gain_cap is not None:
            idx = 0
            for l in range(m):
                for c in range(n):
                    for sgn in (1.0, -1.0):
                        expr = X[c].scaled(gain_cap) + U[l][c].scaled(sgn)
                        prog.add_interval_ge(f"gain_cap[{i}]", idx, expr, (0.0, T), 0.0)
                        idx += 1

    def finalize(sol, relax):
        ctrl = ControllerRealization(
            dwell=DwellTimeSpec.minimum(T),
            gamma=float(sol.x[gamma]),
            degree=degree,
            margin=margin,
            X=[[x.value(sol.x) for x in X] for X in Xs],
            Uc=[[[u.value(sol.x) for u in row] for row in U] for U in Us],
            Ud=None,
        )
        synthesis_mod._check_denominator(ctrl)
        return ctrl

    extra_obj: dict[int, float] = {}
    for X in Xs:
        for r in range(n):
            for k, le in enumerate(X[r].coeffs):
                w = reg * (T ** (k + 1) / (k + 1))
                for v, c in le.coeffs.items():
                    extra_obj[v] = extra_obj.get(v, 0.0) + c * w
    return _solve_with_escalation(prog.prog, gamma, finalize, extra_obj, relax_schedule)


def _reference_gain_rows(
    prog: _Program,
    mats: tuple,
    zeta: list[PolyExpr],
    gamma: int,
    tau_interval: tuple[float, float],
    jump_at,
    margin: float,
    jump_margin: float,
    stationary_at: Optional[float] = None,
    theta_interval: Optional[tuple[float, float]] = None,
):
    """analysis._gain_rows_constant_like with its jump and out_d rows in two
    branches: point rows at jump_at, or polynomials in theta over
    theta_interval."""
    A, Ec, Cc, Fc, jumps = mats
    n, qc = A.shape[0], Cc.shape[0]
    gam = PolyExpr([LinExpr.variable(gamma)])

    # flow rows: zeta' - A zeta - Ec*1 >= margin on tau_interval
    for i in range(n):
        expr = zeta[i].deriv() - _matvec_row(A, i, zeta) - PolyExpr.from_poly(
            _row_ones(Ec, i).coeffs
        )
        prog.add_interval_ge("flow", i, expr, tau_interval, margin)

    # continuous output rows: gamma - Cc zeta - Fc*1 >= margin on tau_interval
    for i in range(qc):
        expr = gam - _matvec_row(Cc, i, zeta) - PolyExpr.from_poly(_row_ones(Fc, i).coeffs)
        prog.add_interval_ge("out_c", i, expr, tau_interval, margin)

    # stationary rows at tau = T (minimum dwell-time only)
    if stationary_at is not None:
        T = stationary_at
        A_T = A(T)
        Ec_T = Ec(T).sum(axis=1)
        zeta_T = [z.eval_at(T) for z in zeta]
        for i in range(n):
            expr = -_const_matvec_row(A_T, i, zeta_T) - Ec_T[i]
            prog.add_point_ge("stat_flow", i, expr, margin)
        Cc_T = Cc(T)
        Fc_T = Fc(T).sum(axis=1)
        for i in range(qc):
            expr = LinExpr.variable(gamma) - _const_matvec_row(Cc_T, i, zeta_T) - Fc_T[i]
            prog.add_point_ge("stat_out", i, expr, margin)

    # jump and discrete output rows, per jump map
    zeta0 = [z.eval_at(0.0) for z in zeta]
    for jk, jm in enumerate(jumps):
        Ed1 = jm.Ed.sum(axis=1)
        Fd1 = jm.Fd.sum(axis=1)
        if theta_interval is None:
            T = jump_at
            target = [z.eval_at(T) for z in zeta]
            for i in range(n):
                expr = zeta0[i] - _const_matvec_row(jm.J, i, target) - Ed1[i]
                prog.add_point_ge(f"jump[{jk}]", i, expr, jump_margin)
            for i in range(jm.Cd.shape[0]):
                expr = (
                    LinExpr.variable(gamma)
                    - _const_matvec_row(jm.Cd, i, target)
                    - Fd1[i]
                )
                prog.add_point_ge(f"out_d[{jk}]", i, expr, margin)
        else:
            for i in range(n):
                expr = PolyExpr([zeta0[i]])
                for j in range(n):
                    if jm.J[i, j] != 0.0:
                        expr = expr - zeta[j].scaled(jm.J[i, j])
                expr = expr - PolyExpr.from_poly([Ed1[i]])
                prog.add_interval_ge(f"jump[{jk}]", i, expr, theta_interval, jump_margin)
            for i in range(jm.Cd.shape[0]):
                expr = gam
                for j in range(n):
                    if jm.Cd[i, j] != 0.0:
                        expr = expr - zeta[j].scaled(jm.Cd[i, j])
                expr = expr - PolyExpr.from_poly([Fd1[i]])
                prog.add_interval_ge(f"out_d[{jk}]", i, expr, theta_interval, margin)

    # scaling pin: margin <= zeta_i(0) <= PIN
    for i in range(n):
        prog.add_point_ge("pin_lo", i, zeta0[i], margin)
        prog.add_point_ge("pin_hi", i, LinExpr.constant(_ZETA_PIN) - zeta0[i], 0.0)

def reference_gain_rows_constant_like(prog, mats, jumps, zeta, gamma, tau_end, jump_dwells, margin, jump_margin,
                                      stationary_at=None):
    """Oracle for analysis._gain_rows_constant_like: its body before the jump
    and out_d rows went through one path, with separate point (jump_at) and
    interval (theta_interval) branches, which jump_dwells = (lo, hi) selects,
    and before its flow, output and stationary rows went through
    analysis._Mode.  mats = (A, B, E, C, D, F); B and D are not read."""
    A, _, E, C, _, F = mats
    lo, hi = jump_dwells
    _reference_gain_rows(ReferenceRows(prog), (A, E, C, F, jumps), [ref_expr(z) for z in zeta], gamma,
                         (0.0, tau_end), None if lo < hi else lo, margin, jump_margin, stationary_at=stationary_at,
                         theta_interval=(lo, hi) if lo < hi else None)


def reference_synthesize(
    sys: ImpulsiveSystem,
    dwell: DwellTimeSpec,
    degree: int = 2,
    margin: float = DEFAULT_MARGIN,
    fixed_kd: bool = False,
    x_min: float = 1e-3,
    reg: float = 1e-6,
    gain_cap: float = 100.0,
    relax_schedule=RELAX_SCHEDULE,
    dump_lp=None,
) -> ControllerRealization:
    """Oracle for synthesize: its body before its jump rows went through one
    path, writing each jump-row family as a theta polynomial, as a point row
    at jump_eval or through M, by the map_entry closure."""
    require_forward_time(sys, "synthesis")
    if len(sys.jumps) != 1:
        raise DimensionMismatch("synthesis expects a single jump map (lift switched systems separately)")
    if fixed_kd and dwell.kind != "range":
        raise ValueError("fixed_kd is a range dwell-time variant")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    n, mc = sys.n, sys.mc
    jm = sys.jump
    md_, qd = sys.md, sys.qd
    Ed1 = jm.Ed.sum(axis=1)
    Fd1 = jm.Fd.sum(axis=1)
    if dwell.kind == "arbitrary" and not sys.is_constant():
        raise NotConstant("arbitrary dwell-time synthesis needs constant matrices")

    x_degree = 0 if dwell.kind == "arbitrary" else degree
    Tend = 0.0 if dwell.kind == "arbitrary" else dwell.horizon_tau()
    genuine_range = dwell.kind == "range" and dwell.Tmax - dwell.Tmin > 1e-12
    # the jump rows are polynomials in theta for a genuine range design with
    # theta-dependent Ud; otherwise they are point rows at jump_eval (or in M)
    theta_poly = genuine_range and not fixed_kd
    theta_iv = (dwell.Tmin, dwell.Tmax) if dwell.kind == "range" else None
    if dwell.kind in ("constant", "minimum"):
        jump_eval = dwell.T
    elif dwell.kind == "arbitrary":
        jump_eval = 0.0
    else:
        jump_eval = None if genuine_range else dwell.Tmin

    prog = ReferenceRows(_Program(_product_cone))
    X = prog.poly_vec(n, x_degree, "X")
    Uc = [prog.poly_vec(n, x_degree, f"U{l}") for l in range(mc)]
    gamma = prog.scalar(lo=0.0, name="gamma")
    alpha = prog.scalar(lo=0.0, hi=synthesis_mod._ALPHA_CAP, name="alpha")
    Ud_poly = Ud_const = M = None
    if md_:
        if theta_poly:
            Ud_poly = [prog.poly_vec(n, x_degree, f"Ud{l}") for l in range(md_)]
        else:
            Ud_const = [
                [prog.scalar(name=f"Ud{l}{j}") for j in range(n)] for l in range(md_)
            ]
    if fixed_kd:
        M = [prog.scalar(lo=x_min, hi=synthesis_mod._X_CAP, name=f"M{j}") for j in range(n)]
    mode = ReferenceMode(prog, (sys.A, sys.Bc, sys.Ec, sys.Cc, sys.Dc, sys.Fc), X, Uc, Tend)
    mode.positivity(alpha)

    def map_entry(P, Q, i: int, j: int, where: Optional[float] = None):
        """(P X + Q Ud)_{ij} as PolyExpr in theta (theta_poly) or as LinExpr
        at `where` (default jump_eval), for the jump pair (J, Bd) or the
        discrete-output pair (Cd, Dd)."""
        if fixed_kd:
            e = LinExpr.variable(M[j]).scaled(P[i, j])
            for l in range(md_):
                e.add_inplace(LinExpr.variable(Ud_const[l][j]), float(Q[i, l]))
            return e
        if theta_poly:
            expr = X[j].scaled(P[i, j])
            for l in range(md_):
                expr = expr + Ud_poly[l][j].scaled(float(Q[i, l]))
            return expr
        e = X[j].eval_at(jump_eval if where is None else where).scaled(P[i, j])
        if Ud_const is not None:
            for l in range(md_):
                e.add_inplace(LinExpr.variable(Ud_const[l][j]), float(Q[i, l]))
        return e

    # jump/discrete-output positivity rows: (J X + Bd Ud) >= 0, (Cd X + Dd Ud) >= 0.
    # Minimum dwell-time imposes them at both timer endpoints: the jump fires
    # at a frozen X(T) (sound gain recovery) while the reference condition
    # evaluates at X(0); the intersection keeps both readings valid.
    jump_points = [0.0, dwell.T] if dwell.kind == "minimum" else [None]
    for family, P, Q in (("pos_jump", jm.J, jm.Bd), ("pos_out_d", jm.Cd, jm.Dd)):
        idx = 0
        for i in range(P.shape[0]):
            for j in range(n):
                if theta_poly:
                    prog.add_interval_ge(family, idx, map_entry(P, Q, i, j), theta_iv, 0.0)
                    idx += 1
                else:
                    for pt in jump_points:
                        prog.add_point_ge(family, idx, map_entry(P, Q, i, j, pt), 0.0)
                        idx += 1

    mode.performance(gamma, margin, dwell.T if dwell.kind == "minimum" else None)
    # jump performance rows: X_i(0) - [J X + Bd Ud](1)_i - Ed1_i >= margin
    gam = PolyExpr([LinExpr.variable(gamma)])
    for i in range(n):
        if theta_poly:
            row = _sum_entries([map_entry(jm.J, jm.Bd, i, j) for j in range(n)])
            expr = PolyExpr([X[i].eval_at(0.0)]) - row - PolyExpr.from_poly([Ed1[i]])
            prog.add_interval_ge("perf_jump", i, expr, theta_iv, margin)
        else:
            e = X[i].eval_at(0.0)
            for j in range(n):
                e = e - map_entry(jm.J, jm.Bd, i, j)
            prog.add_point_ge("perf_jump", i, e - Ed1[i], margin)
    for i in range(qd):
        if theta_poly:
            row = _sum_entries([map_entry(jm.Cd, jm.Dd, i, j) for j in range(n)])
            expr = gam - row - PolyExpr.from_poly([Fd1[i]])
            prog.add_interval_ge("perf_out_d", i, expr, theta_iv, margin)
        else:
            e = LinExpr.variable(gamma) - Fd1[i]
            for j in range(n):
                e = e - map_entry(jm.Cd, jm.Dd, i, j)
            prog.add_point_ge("perf_out_d", i, e, margin)
    if fixed_kd:
        for j in range(n):
            expr = PolyExpr([LinExpr.variable(M[j])]) - X[j]
            prog.add_interval_ge("x_below_M", j, expr, theta_iv, 0.0)

    mode.denominator(x_min, gain_cap)
    # implementable discrete gains: |Ud_lj| <= cap * X_j (or cap * M_j)
    if gain_cap is not None:
        idx = 2 * mc * n  # numbered on from the continuous gain_cap rows
        for l in range(md_):
            for j in range(n):
                for sgn in (1.0, -1.0):
                    if Ud_poly is not None:
                        expr = X[j].scaled(gain_cap) + Ud_poly[l][j].scaled(sgn)
                        prog.add_interval_ge("gain_cap_d", idx, expr, theta_iv, 0.0)
                    else:
                        base = (
                            LinExpr.variable(M[j]).scaled(gain_cap)
                            if fixed_kd
                            else X[j].eval_at(jump_eval).scaled(gain_cap)
                        )
                        base.add_inplace(LinExpr.variable(Ud_const[l][j]), sgn)
                        prog.add_point_ge("gain_cap_d", idx, base, 0.0)
                    idx += 1

    def finalize(sol, relax):
        Xp = [x.value(sol.x) for x in X]
        Ucp = [[Uc[l][j].value(sol.x) for j in range(n)] for l in range(mc)]
        Ud_out = None
        if Ud_poly is not None:
            Ud_out = [[Ud_poly[l][j].value(sol.x) for j in range(n)] for l in range(md_)]
        elif Ud_const is not None:
            Ud_out = [[Poly.const(sol.x[Ud_const[l][j]]) for j in range(n)] for l in range(md_)]
        M_out = np.array([sol.x[v] for v in M]) if fixed_kd else None
        ctrl = ControllerRealization(
            dwell=dwell,
            gamma=float(sol.x[gamma]),
            degree=x_degree,
            margin=margin,
            X=Xp,
            Uc=Ucp,
            Ud=Ud_out,
            M=M_out,
        )
        synthesis_mod._check_denominator(ctrl)
        return ctrl

    extra_obj: dict[int, float] = {}
    mode.regularize(extra_obj, reg)
    if fixed_kd:
        for v in M:
            extra_obj[v] = extra_obj.get(v, 0.0) + reg * max(Tend, 1.0)
    return _solve_with_escalation(prog.prog, gamma, finalize, extra_obj, relax_schedule, dump_lp)


def per_row_cone_rows(lp, name, q, order, margin):
    """The product-basis cone encoding of an interval row on q(s), s in
    [0, 1], expanding every product polynomial with Poly.__pow__ again for
    each row: the oracle of the design's product cone
    (analysis._product_cone), and the reference the Bernstein rows of
    _Program are checked against (analyses used this encoding before)."""
    q = ref_expr(q)
    pairs = [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]
    basis = {
        ij: ((Poly((0.0, 1.0)) ** ij[0]) * (Poly((1.0, -1.0)) ** ij[1])).coeffs
        for ij in pairs
    }
    cone = [lp.new_var(0.0, None, name=f"{name}_h{i}_{j}") for i, j in pairs]
    for k in range(order + 1):
        row = {}
        const = 0.0
        if k <= q.degree:
            for v, c in q.coeffs[k].coeffs.items():
                row[v] = row.get(v, 0.0) + c
            const = q.coeffs[k].const
        for v, ij in zip(cone, pairs):
            bc = basis[ij]
            if k < len(bc) and bc[k] != 0.0:
                row[v] = row.get(v, 0.0) - bc[k]
        add_eq(lp, row, (margin if k == 0 else 0.0) - const)


def bernstein_cone_rows(lp, name, q, order, margin):
    """The Bernstein-coefficient rows of an interval row on q(s), one row at
    a time, as _Program._cone_rows wrote them before runs of rows became
    blocks: b_i(q) = sum_{k <= i} C(i, k) / C(D, k) q_k, summed in k, then
    b_i(q) - s_i = margin with a slack column s_i >= 0."""
    W = np.zeros((order + 1, order + 1))
    for i in range(order + 1):
        W[i, : i + 1] = [math.comb(i, k) / math.comb(order, k) for k in range(i + 1)]
    b = np.zeros((order + 1, q.shape[1]))
    for k, qk in enumerate(q):
        b[k:] += W[k:, k, None] * qk
    for i, (const, *coeffs) in enumerate(b.tolist()):
        row = {lp.new_var(0.0, None, name=f"{name}_b{i}"): -1.0}
        row.update((v, c) for v, c in enumerate(coeffs) if c != 0.0)
        add_eq(lp, row, margin - const)


def product_cone_rows(lp, name, q, order, margin):
    """The product-basis cone rows of an interval row, one row at a time
    from the analysis._product_cone table, as a design program's _cone_rows
    wrote them before runs of rows became blocks."""
    table = _product_cone(order)
    cone = [lp.new_var(0.0, None, name=f"{name}{suffix}") for suffix in table.suffixes]
    qs = q.tolist()
    for k, basis_k in enumerate(table.matrix.tolist()):
        const, *coeffs = qs[k] if k < len(qs) else [0.0]
        row = {v: c for v, c in enumerate(coeffs) if c != 0.0}
        row.update((v, c) for v, c in zip(cone, basis_k) if c != 0.0)
        add_eq(lp, row, (margin if k == 0 else 0.0) - const)


def per_row_relaxation(prog, relax, objective, cone_rows=None):
    """Oracle for _Program.relaxation: the LP written row by row, as it was
    before runs of rows became blocks: each point row one >= row, each
    interval row p >= margin on [a, b] cone_rows(lp, name, q, order, margin)
    on q(s) = p(a + (b - a) s) of the reference PolyExpr, by default
    product_cone_rows for a design program and bernstein_cone_rows else.
    Only a design program is presolved."""
    if cone_rows is None:
        cone_rows = product_cone_rows if prog.cone is _product_cone else bernstein_cone_rows
    c = prog.columns
    lp = LinearProgram(c.num_vars, dict(objective), dict(c.bounds), dict(c.names))
    lp.presolve = prog.cone is _product_cone
    for family, index, e, interval, margin in prog.rows:
        if interval is None:
            add_ge(lp, row_terms(e)[0], margin - e[0])
        else:
            a, b = interval
            q = array_of(ref_expr(e).shift_scale_arg(a, b - a))
            cone_rows(lp, f"{family}{index}", q, len(e) - 1 + relax, margin)
    return lp


def row_records(prog, relax):
    """prog's rows as its point rows (family, index, expr, margin) and its
    interval rows (family, index, p, interval, order, margin) at order relax."""
    points = [(f, i, e, m) for f, i, e, iv, m in prog.rows if iv is None]
    intervals = [(f, i, p, iv, len(p) - 1 + relax, m) for f, i, p, iv, m in prog.rows if iv is not None]
    return points, intervals


def spy_relaxations(monkeypatch):
    """(program, order, LP) of every relaxation that any program encodes from
    here on, in order."""
    seen = []
    real = _Program.relaxation

    def relaxation(prog, relax, objective):
        lp = real(prog, relax, objective)
        seen.append((prog, relax, lp))
        return lp

    monkeypatch.setattr(_Program, "relaxation", relaxation)
    return seen


def first_program_rows(monkeypatch, run):
    """run()'s result and the rows of the first program it encodes, as a
    list of (terms, domain, margin) in program order, without their family
    names."""
    def terms(e):
        coeffs, const = row_terms(e)
        return tuple(sorted(coeffs.items())), const

    with monkeypatch.context() as m:
        encoded = spy_relaxations(m)
        out = run()
    rows = encoded[0][0].rows
    return out, [(terms(e) if iv is None else tuple(map(terms, e)), iv, mg) for _, _, e, iv, mg in rows]


def per_sample_referee(prog, objective):
    """Oracle for _Program.sampled_referee: one eval_at and one add_ge per
    sample of each interval row; presolved only for a design program."""
    lp = LinearProgram(prog.columns.num_vars, dict(objective), dict(prog.columns.bounds))
    lp.presolve = prog.cone is _product_cone
    points, intervals = row_records(prog, 0)
    for _, _, expr, margin in points:
        expr = ref_expr(expr)
        add_ge(lp, expr.coeffs, margin - expr.const)
    for _, _, pexpr, (a, b), _, margin in intervals:
        for t in np.linspace(a, b, _REFEREE_SAMPLES):
            e = ref_expr(pexpr).eval_at(float(t))
            add_ge(lp, e.coeffs, margin - e.const)
    return lp


def full_schedule_escalation(prog, gamma, finalize, extra_obj=None, relax_schedule=RELAX_SCHEDULE, dump_lp=None):
    """Oracle for analysis._solve_with_escalation: every order of the schedule
    is tried, and only then the sampled referee classifies the failure."""
    objective = {gamma: 1.0}
    for v, c in (extra_obj or {}).items():
        objective[v] = objective.get(v, 0.0) + c
    tried = []
    for relax in relax_schedule:
        lp = prog.relaxation(relax, objective)
        try:
            sol = analysis_mod.lp_solve(lp)
        except NumericalFailure as exc:
            tried.append((relax, f"NumericalFailure ({exc})"))
            continue
        if sol.status == "Optimal":
            if dump_lp:
                from dwellgain.lp import dump_lp as _dump

                _dump(lp, dump_lp)
            return finalize(sol, relax)
        if sol.status == "Unbounded":
            raise NumericalFailure("gain LP unbounded; encoding error")
        if not row_records(prog, relax)[1]:
            raise Infeasible("conditions infeasible (finite LP)")
        tried.append((relax, sol.status))
    history = "; ".join(f"order +{relax}: {what}" for relax, what in tried)
    ref_sol = analysis_mod.lp_solve(per_sample_referee(prog, objective))
    if ref_sol.status == "Optimal":
        raise RelaxationLimit(
            f"interval relaxation exhausted at order +{relax_schedule[-1]} "
            f"while the sampled referee stays feasible [{history}]"
        )
    raise Infeasible(f"conditions infeasible (sampled referee LP infeasible) [{history}]")


def spy_solves(monkeypatch, referee_fails=False):
    """Label every LP analysis solves "order" or "referee"; with referee_fails
    the referee's solve raises NumericalFailure instead."""
    calls, referees = [], []
    real_solve, real_referee = analysis_mod.lp_solve, _Program.sampled_referee

    def referee(prog, objective):
        lp = real_referee(prog, objective)
        referees.append(lp)
        return lp

    def solve(lp):
        is_referee = any(lp is r for r in referees)
        calls.append("referee" if is_referee else "order")
        if is_referee and referee_fails:
            raise NumericalFailure("HiGHS model status Unknown")
        return real_solve(lp)

    monkeypatch.setattr(_Program, "sampled_referee", referee)
    monkeypatch.setattr(analysis_mod, "lp_solve", solve)
    return calls


def reference_blanchini(sw, T, grid_points=101, margin=DEFAULT_MARGIN):
    """Oracle for analyze_switched_blanchini: its LP as it was written by
    hand, row by row (add_le), before its rows went through analysis._Program;
    solved with analysis_mod.lp_solve, without presolve."""
    from dwellgain.cert import flow_grid

    n, q, N = sw.n, sw.q, sw.N
    taus = np.linspace(0.0, T, grid_points)
    Phis, forced = zip(*(flow_grid(sw, taus, mode=i)[:2] for i in range(N)))

    lp = LinearProgram()
    lp.presolve = False
    lam = [[lp.new_var(name=f"lam{i}_{r}") for r in range(n)] for i in range(N)]
    gamma = lp.new_var(lo=0.0, name="gamma")
    for i, md in enumerate(sw.modes):
        A = md["A"].const()
        E1 = md["E"].const().sum(axis=1)
        for r in range(n):
            add_le(lp, {lam[i][c]: A[r, c] for c in range(n)}, -E1[r] - margin)
    for i in range(N):
        eAT = Phis[i][..., -1]
        integ = forced[i][:, -1]
        for j in range(N):
            if i == j:
                continue
            for r in range(n):
                row = {lam[j][c]: eAT[r, c] for c in range(n)}
                row[lam[i][r]] = row.get(lam[i][r], 0.0) - 1.0
                add_le(lp, row, -integ[r] - margin)
    for i, md in enumerate(sw.modes):
        C = md["C"].const()
        F1 = md["F"].const().sum(axis=1)
        for j in range(N):
            if i == j:
                continue
            for Ph in Phis[i].transpose(2, 0, 1):
                CP = C @ Ph
                CmCP = C - CP
                for r in range(q):
                    row = {lam[i][c]: CmCP[r, c] for c in range(n)}
                    for c in range(n):
                        row[lam[j][c]] = row.get(lam[j][c], 0.0) + CP[r, c]
                    row[gamma] = -1.0
                    add_le(lp, row, -F1[r] - margin)
    for i in range(N):
        for r in range(n):
            add_ge(lp, {lam[i][r]: 1.0}, margin)
    lp.objective = {gamma: 1.0}
    sol = analysis_mod.lp_solve(lp)
    if sol.status != "Optimal":
        raise Infeasible("per-mode vector conditions infeasible at this dwell-time")
    return float(sol.objective_value)
