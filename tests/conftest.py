import dataclasses
import math
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.optimize import linprog

from dwellgain import analysis as analysis_mod
from dwellgain import benchmarks
from dwellgain import synthesis as synthesis_mod
from dwellgain.analysis import (
    _REFEREE_SAMPLES,
    DEFAULT_MARGIN,
    RELAX_SCHEDULE,
    _ZETA_PIN,
    Certificate,
    _const_matvec_row,
    _matvec_row,
    _Program,
    _row_ones,
    _solve_with_escalation,
    analyze_constant,
    analyze_minimum,
    analyze_range,
)
from dwellgain.cert import _finish_report, _record, verify
from dwellgain.errors import Infeasible, Mismatch, NumericalFailure, RelaxationLimit
from dwellgain.lp import LinearProgram, LinExpr, LpSolution, PolyExpr, lp_solve
from dwellgain.model import DwellTimeSpec, ImpulsiveSystem, SwitchedSystem
from dwellgain.poly import HandelmanCertificate, Poly
from dwellgain.synthesis import ControllerRealization, _bilinear_entry, _sum_entries


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


def _zeta_rows_symbolic(A, Ec, Cc, Fc, zeta, gamma):
    """Flow/output row polynomials in tau derived with plain Poly arithmetic."""
    n, qc = A.shape[0], Cc.shape[0]
    flow, out_c = [], []
    for i in range(n):
        expr = zeta[i].deriv()
        for j in range(n):
            expr = expr - A.entry(i, j) * zeta[j]
        for j in range(Ec.shape[1]):
            expr = expr - Ec.entry(i, j)
        flow.append(expr)
    for i in range(qc):
        expr = Poly.const(gamma)
        for j in range(n):
            expr = expr - Cc.entry(i, j) * zeta[j]
        for j in range(Fc.shape[1]):
            expr = expr - Fc.entry(i, j)
        out_c.append(expr)
    return flow, out_c


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
        flow_rows, out_rows = _zeta_rows_symbolic(sys.A, sys.Ec, sys.Cc, sys.Fc, zeta, gamma)
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
        mu = cert.aux.get("mu")
        for jk, jm in enumerate(sys.jumps):
            for th in thetas:
                target = np.array([m.eval(th) for m in mu] if mu else [z.eval(th) for z in zeta])
                _record(slacks, f"jump[{jk}]", float(np.min(z0 - (jm.J @ target + jm.Ed.sum(axis=1)))))
                if jm.Cd.shape[0]:
                    _record(slacks, f"out_d[{jk}]",
                            float(np.min(gamma - (jm.Cd @ target + jm.Fd.sum(axis=1)))))
        if mu:
            for th in thetas:
                _record(slacks, "mu_dom", float(min(m.eval(th) - z.eval(th) for m, z in zip(mu, zeta))))
        _record(slacks, "pin_lo", float(np.min(z0)))
    return _finish_report(cert, sys, slacks, grid)


def _verify_switched(cert, sw, grid):
    if len(cert.zeta) != sw.N:
        raise Mismatch(f"certificate has {len(cert.zeta)} mode vectors, system has {sw.N}")
    T = cert.dwell.T
    gamma = cert.gamma
    slacks = {}
    for i, md in enumerate(sw.modes):
        zeta = cert.zeta[i]
        flow_rows, out_rows = _zeta_rows_symbolic(md["A"], md["E"], md["C"], md["F"], zeta, gamma)
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
    return _finish_report(cert, sw, slacks, grid)


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
    zsets = cert.zeta_vectors()
    n = len(zsets[0])
    for mode, zs in enumerate(zsets):
        m_arg = mode if per_mode else None
        A_m, Ec1_m, Cc_m, Fc1_m = view.cont_mesh(taus, mode=m_arg)
        zv = np.stack([z.eval(taus) for z in zs], axis=1)
        zdv = np.stack([z.deriv().eval(taus) for z in zs], axis=1)
        flow = zdv - np.einsum("mij,mj->mi", A_m, zv) - Ec1_m
        _record(slacks, f"flow[{mode}]" if per_mode else "flow", float(np.min(flow)))
        if Cc_m.shape[1]:
            outc = gamma - (np.einsum("mij,mj->mi", Cc_m, zv) + Fc1_m)
            _record(slacks, f"out_c[{mode}]" if per_mode else "out_c", float(np.min(outc)))
        if dwell.kind == "minimum":
            T = dwell.T
            A_T, Ec1_T, Cc_T, Fc1_T = (arr[-1] for arr in view.cont_mesh(np.array([T]), mode=m_arg))
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
            for jk, (J_cl, Ed1, Cd_cl, Fd1) in enumerate(view.jumps_at(float(th))):
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
    return _finish_report(cert, view, slacks, grid)


def three_path_verify(cert, sys, grid=1000):
    """Oracle for cert.verify: the three row evaluators it replaced -- symbolic
    Poly rows for impulsive and for switched systems, mesh rows for closed-loop
    views -- chosen by the type of `sys`, with the same Mismatch guards."""
    if isinstance(sys, SwitchedSystem):
        if cert.kind != "SwitchedMinDT":
            raise Mismatch(f"{cert.kind} certificate cannot verify a switched system")
        return _verify_switched(cert, sys, grid)
    if isinstance(sys, ImpulsiveSystem):
        if cert.kind == "SwitchedMinDT":
            raise Mismatch("switched certificate needs the switched system")
        return _verify_impulsive(cert, sys, grid)
    return _verify_numeric(cert, sys, grid)


def _mutations(cert):
    """The certificate, its gain cut to 0.9 gamma, and its zeta(0) cut to 0.97 zeta(0)."""
    cut = lambda z: Poly((0.97 * z.coeffs[0],) + z.coeffs[1:])
    zeta = [[cut(z) for z in zs] for zs in cert.zeta] if cert.per_mode else [cut(z) for z in cert.zeta]
    return [cert, dataclasses.replace(cert, gamma=0.9 * cert.gamma), dataclasses.replace(cert, zeta=zeta)]


def assert_matches_three_paths(cert, target):
    """verify gives the three-path oracle's verdicts, row families and slacks
    (to 1e-12 per unit of row scale) on the certificate and its mutations.
    The one key change: a closed-loop switched report splits pin_lo per mode."""
    for c in _mutations(cert):
        got, want = verify(c, target), three_path_verify(c, target)
        assert got.passed == want.passed
        assert got.handelman_ok == want.handelman_ok
        slack, ref = dict(got.worst_slack), dict(want.worst_slack)
        if c.per_mode and "pin_lo" in ref:
            split = [k for k in slack if k.startswith("pin_lo[")]
            assert len(split) == len(c.zeta)
            slack["pin_lo"] = min(slack.pop(k) for k in split)
        assert slack.keys() == ref.keys()
        scale = max([1.0 + abs(c.gamma)] + [z.max_abs_coeff() for zs in c.zeta_vectors() for z in zs])
        for fam, v in slack.items():
            assert abs(v - ref[fam]) <= 1e-12 * scale, fam


def bernstein_oracle(p, interval, d, margin=0.0):
    """Oracle for poly._bernstein: the degree-d Bernstein coefficients of
    (p - margin)(a + h s) on s in [0, 1], h = b - a, in Fractions, as
    certify_nonneg computed them before the integer routine."""
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
    """LP oracle for certify_nonneg at one order, as poly decided it before the
    exact Bernstein test: the product-basis cone, with every basis polynomial
    expanded by Poly.__pow__, solved by lp_solve; None when not Optimal."""
    h = b - a
    q = (p - Poly.const(margin)).shift_scale_arg(a, h)
    pairs = [(i, j) for i in range(order + 1) for j in range(order + 1 - i)]
    basis = {ij: (Poly((0.0, 1.0)) ** ij[0]) * (Poly((1.0, -1.0)) ** ij[1]) for ij in pairs}
    lp = LinearProgram(num_vars=len(pairs))
    for v in range(len(pairs)):
        lp.set_bounds(v, 0.0, None)
    for k in range(order + 1):
        row = {}
        for v, ij in enumerate(pairs):
            bc = basis[ij].coeffs
            if k < len(bc) and bc[k] != 0.0:
                row[v] = bc[k]
        lp.add_eq(row, q.coeffs[k] if k < len(q.coeffs) else 0.0)
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
    return HandelmanCertificate(interval=(a, b), order=order, weights=weights)


def reference_switched_min(sw, T, degree, margin=DEFAULT_MARGIN, relax_schedule=RELAX_SCHEDULE):
    """Oracle for analyze_switched_min: its body before the per-mode rows went
    through _gain_rows_constant_like, with its own flow, out_c, stat and pin loops."""
    n, q = sw.n, sw.q

    def build(relax: int):
        prog = _Program(relax)
        zetas = [prog.poly_vec(n, degree, f"zeta{i}_") for i in range(sw.N)]
        gamma = prog.scalar(lo=0.0, name="gamma")
        gam = PolyExpr([LinExpr.variable(gamma)])
        for i, md in enumerate(sw.modes):
            zeta = zetas[i]
            for r in range(n):
                expr = zeta[r].deriv() - _matvec_row(md["A"], r, zeta) - PolyExpr.from_poly(
                    _row_ones(md["E"], r).coeffs
                )
                prog.add_interval_ge(f"flow[{i}]", r, expr, (0.0, T), margin)
            for r in range(q):
                expr = gam - _matvec_row(md["C"], r, zeta) - PolyExpr.from_poly(
                    _row_ones(md["F"], r).coeffs
                )
                prog.add_interval_ge(f"out_c[{i}]", r, expr, (0.0, T), margin)
            A_T = md["A"](T)
            E_T = md["E"](T).sum(axis=1)
            C_T = md["C"](T)
            F_T = md["F"](T).sum(axis=1)
            zT = [z.eval_at(T) for z in zeta]
            for r in range(n):
                prog.add_point_ge(f"stat_flow[{i}]", r, -_const_matvec_row(A_T, r, zT) - E_T[r], margin)
            for r in range(q):
                prog.add_point_ge(
                    f"stat_out[{i}]",
                    r,
                    LinExpr.variable(gamma) - _const_matvec_row(C_T, r, zT) - F_T[r],
                    margin,
                )
            z0 = [z.eval_at(0.0) for z in zeta]
            for r in range(n):
                prog.add_point_ge(f"pin_lo[{i}]", r, z0[r], margin)
                prog.add_point_ge(f"pin_hi[{i}]", r, LinExpr.constant(_ZETA_PIN) - z0[r], 0.0)
        for i in range(sw.N):
            for j in range(sw.N):
                if i == j:
                    continue
                zi0 = [z.eval_at(0.0) for z in zetas[i]]
                zjT = [z.eval_at(T) for z in zetas[j]]
                for r in range(n):
                    prog.add_point_ge(f"couple[{j}->{i}]", r, zi0[r] - zjT[r], 0.0)

        def finalize(prog, sol, relax):
            return Certificate(
                kind="SwitchedMinDT",
                gamma=float(sol.x[gamma]),
                zeta=[[z.value(sol.x) for z in zeta] for zeta in zetas],
                dwell=DwellTimeSpec.minimum(T),
                margin=margin,
                jump_margin=0.0,
                degree=degree,
                rows=prog.extract_rows(sol.x),
                relax=relax,
            )

        return prog, gamma, finalize

    return _solve_with_escalation(build, degree, relax_schedule)


def reference_synthesize_switched(sw, T, degree, margin=DEFAULT_MARGIN, x_min=1e-3, reg=1e-6,
                                  gain_cap=100.0, relax_schedule=RELAX_SCHEDULE):
    """Oracle for synthesize_switched: its body before the per-mode rows went
    through synthesis._Mode, with its own positivity, performance, stationary,
    denominator and regularizer loops (families pos_out[i] and perf_out[i])."""
    n, m, q = sw.n, sw.m, sw.q

    def build(relax: int):
        prog = _Program(relax)
        Xs = [prog.poly_vec(n, degree, f"X{i}_") for i in range(sw.N)]
        Us = [
            [
                [
                    PolyExpr.from_vars(
                        [prog.lp.new_var(name=f"U{i}_{l}{j}_c{k}") for k in range(degree + 1)]
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
        for i, md in enumerate(sw.modes):
            X, U = Xs[i], Us[i]
            idx = 0
            for r in range(n):
                for c in range(n):
                    expr = _bilinear_entry(md["A"], X, md["B"], U, r, c)
                    if r == c:
                        expr = expr + PolyExpr([LinExpr.variable(alpha)])
                    prog.add_interval_ge(f"pos_flow[{i}]", idx, expr, (0.0, T), 0.0)
                    idx += 1
            idx = 0
            for r in range(q):
                for c in range(n):
                    expr = _bilinear_entry(md["C"], X, md["D"], U, r, c)
                    prog.add_interval_ge(f"pos_out[{i}]", idx, expr, (0.0, T), 0.0)
                    idx += 1
            for r in range(n):
                row = _sum_entries([_bilinear_entry(md["A"], X, md["B"], U, r, c) for c in range(n)])
                expr = X[r].deriv() - row - PolyExpr.from_poly(_row_ones(md["E"], r).coeffs)
                prog.add_interval_ge(f"perf_flow[{i}]", r, expr, (0.0, T), margin)
                stat = (-row).eval_at(T) - float(md["E"](T)[r].sum())
                prog.add_point_ge(f"stat_flow[{i}]", r, stat, margin)
            for r in range(q):
                row = _sum_entries([_bilinear_entry(md["C"], X, md["D"], U, r, c) for c in range(n)])
                expr = gam - row - PolyExpr.from_poly(_row_ones(md["F"], r).coeffs)
                prog.add_interval_ge(f"perf_out[{i}]", r, expr, (0.0, T), margin)
                prog.add_point_ge(
                    f"stat_out[{i}]",
                    r,
                    LinExpr.variable(gamma) - row.eval_at(T) - float(md["F"](T)[r].sum()),
                    margin,
                )
            for r in range(n):
                prog.add_interval_ge(f"x_pos[{i}]", r, X[r] - PolyExpr.from_poly([x_min]), (0.0, T), 0.0)
                prog.add_point_ge(
                    f"x_cap[{i}]", r, LinExpr.constant(synthesis_mod._X_CAP) - X[r].eval_at(0.0), 0.0
                )
            if gain_cap is not None:
                idx = 0
                for l in range(m):
                    for c in range(n):
                        for sgn in (1.0, -1.0):
                            expr = X[c].scaled(gain_cap) + U[l][c].scaled(sgn)
                            prog.add_interval_ge(f"gain_cap[{i}]", idx, expr, (0.0, T), 0.0)
                            idx += 1
        for i in range(sw.N):
            for j in range(sw.N):
                if i == j:
                    continue
                for r in range(n):
                    prog.add_point_ge(f"couple[{i}->{j}]", r, Xs[j][r].eval_at(0.0) - Xs[i][r].eval_at(T), 0.0)

        def finalize(prog, sol, relax):
            ctrl = ControllerRealization(
                kind="SwitchedMinDT",
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
        return prog, gamma, finalize, extra_obj

    return _solve_with_escalation(build, degree, relax_schedule)


def per_sample_referee(prog):
    """Oracle for _Program.sampled_referee: one eval_at and one add_ge per
    sample of each interval row."""
    lp = LinearProgram()
    lp.num_vars = prog.lp.num_vars
    lp.bounds = dict(prog.lp.bounds)
    lp.objective = dict(prog.lp.objective)
    for rec in prog.point_records:
        expr, margin = rec["expr"], rec["margin"]
        lp.add_ge(expr.coeffs, margin - expr.const)
    for rec in prog.interval_records:
        a, b = rec["interval"]
        for t in np.linspace(a, b, _REFEREE_SAMPLES):
            e = rec["pexpr"].eval_at(float(t))
            lp.add_ge(e.coeffs, rec["margin"] - e.const)
    return lp


def full_schedule_escalation(build, degree, relax_schedule=RELAX_SCHEDULE, dump_lp=None):
    """Oracle for analysis._solve_with_escalation: every order of the schedule
    is tried, and only then the sampled referee of the last order classifies
    the failure."""
    last_prog = None
    tried = []
    for relax in relax_schedule:
        built = build(relax)
        prog, gamma, finalize = built[:3]
        extra_obj = built[3] if len(built) > 3 else None
        last_prog = prog
        try:
            sol = prog.solve_min(gamma, extra_obj)
        except NumericalFailure as exc:
            tried.append((relax, f"NumericalFailure ({exc})"))
            continue
        if sol.status == "Optimal":
            if dump_lp:
                from dwellgain.lp import dump_lp as _dump

                _dump(prog.lp, dump_lp)
            return finalize(prog, sol, relax)
        if sol.status == "Unbounded":
            raise NumericalFailure("gain LP unbounded; encoding error")
        if not prog.interval_records:
            raise Infeasible("conditions infeasible (finite LP)")
        tried.append((relax, sol.status))
    history = "; ".join(f"order +{relax}: {what}" for relax, what in tried)
    ref_sol = analysis_mod.lp_solve(per_sample_referee(last_prog))
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

    def referee(prog):
        lp = real_referee(prog)
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
