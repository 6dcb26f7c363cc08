import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from dwellgain import benchmarks


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
    """Assembled programs equal array for array: c, both CSR blocks (shape,
    data, indices, indptr), both right-hand sides and the bounds."""
    c, A_ub, b_ub, A_eq, b_eq, bounds = got
    c_r, A_ub_r, b_ub_r, A_eq_r, b_eq_r, bounds_r = want
    assert np.array_equal(c, c_r)
    for A, A_r in ((A_ub, A_ub_r), (A_eq, A_eq_r)):
        assert A.shape == A_r.shape
        assert np.array_equal(A.data, A_r.data)
        assert np.array_equal(A.indices, A_r.indices)
        assert np.array_equal(A.indptr, A_r.indptr)
    assert b_ub.shape == b_ub_r.shape and np.array_equal(b_ub, b_ub_r)
    assert b_eq.shape == b_eq_r.shape and np.array_equal(b_eq, b_eq_r)
    assert bounds == bounds_r
