from itertools import chain

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.optimize import linprog

from dwellgain import benchmarks
from dwellgain.errors import NumericalFailure
from dwellgain.lp import LpSolution


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

    bounds = [lp.bounds.get(v, (None, None)) for v in range(lp.num_vars)]
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
    vals = vals / scale[row_of]
    rhs = rhs / scale

    def to_csr(select):
        local = np.cumsum(select) - 1
        keep = select[row_of] & (vals != 0.0)
        shape = (int(select.sum()), lp.num_vars)
        return sp.csr_matrix((vals[keep], (local[row_of[keep]], cols[keep])), shape=shape)

    bounds = [lp.bounds.get(v, (None, None)) for v in range(lp.num_vars)]
    return c, to_csr(~is_eq), rhs[~is_eq], to_csr(is_eq), rhs[is_eq], bounds


def linprog_solve(lp) -> LpSolution:
    """Oracle for lp.lp_solve: scipy.optimize.linprog(method="highs") on the
    CSR assembly, with the same 1e-7 feasibility recheck of Optimal answers."""
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
