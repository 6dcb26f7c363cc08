from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cell_mesh, oracle_export_rows, oracle_kc, oracle_kd
from dwellgain import sim
from dwellgain.cert import flow_grid, transition_matrix
from dwellgain.errors import DimensionMismatch, IllPosed, StepTooLarge
from dwellgain.model import DwellTimeSpec, ImpulsiveSystem, PolyMatrix, SwitchedSystem, lift_switched
from dwellgain.poly import Poly
from dwellgain.sim import (
    InputSignal,
    SequenceGen,
    combine_inputs,
    estimate_gain,
    export_trajectory,
    generate_inputs,
    simulate,
)
from dwellgain.synthesis import ControllerRealization, synthesize


def serial_march(R, s, x0):
    """Reference for the prefix scan: x_{i+1} = R[i] x_i + s[i], one cell at a time."""
    xs = np.empty((len(R) + 1,) + x0.shape)
    xs[0] = x0
    for i in range(len(R)):
        xs[i + 1] = R[i] @ xs[i] + (s[i] if xs[i].ndim == 1 else s[i][:, None])
    return xs


def oracle_rk4_maps(A_of, b_of, h, m, end=None):
    """Reference RK4 one-step maps, cell-major: x_{i+1} = R[i] x_i + s[i].

    A_of(taus) -> (len, n, n) and b_of(taus) -> (len, n); the cell ends come
    first in the mesh, then the midpoints.  The m cells are h wide, or with
    `end` the last one runs from (m - 1) h to end."""
    ends = np.arange(m + 1) * h
    h = np.full((m, 1), h)
    if end is not None:
        ends[-1] = end
        h[-1] = end - (m - 1) * h[-1]
    grid = np.concatenate([ends, ends[:-1] + 0.5 * h[:, 0]])
    A, b = A_of(grid), b_of(grid)
    A1, A2, A4 = A[:m], A[m + 1:], A[1:m + 1]
    b1, b2, b4 = b[:m], b[m + 1:], b[1:m + 1]
    H = h[:, :, None]
    M2 = A2 + 0.5 * H * (A2 @ A1)
    M3 = A2 + 0.5 * H * (A2 @ M2)
    M4 = A4 + H * (A4 @ M3)
    R = np.eye(A1.shape[1]) + (H / 6.0) * (A1 + 2.0 * M2 + 2.0 * M3 + M4)
    v2 = 0.5 * h * (A2 @ b1[:, :, None])[:, :, 0] + b2
    v3 = 0.5 * h * (A2 @ v2[:, :, None])[:, :, 0] + b2
    v4 = h * (A4 @ v3[:, :, None])[:, :, 0] + b4
    s = (h / 6.0) * (b1 + 2.0 * v2 + 2.0 * v3 + v4)
    return ends, R, s


def serial_simulate(sys, gen, inputs, x0, horizon, step=None, clamp=None, controller=None, full=False):
    """Reference simulation: every segment's maps are rebuilt and marched
    cell by cell, nothing is reused.  A segment of length seg has the points
    tau = j step, j < m = ceil(seg / step - 1e-9), and seg.  Impulsive systems need a single jump
    map; a controller needs an impulsive plant.  Returns (states, sup of the
    hybrid output), or with full=True a dict of the states, z_c, z_d and the
    pre- and post-jump states."""
    rng = np.random.default_rng(gen.seed)
    step = min(1e-3, gen.shortest / 50.0) if step is None else step
    switched = isinstance(sys, SwitchedSystem)
    mode = int(rng.integers(sys.N)) if switched else None
    x, t0, k = np.asarray(x0, dtype=float), 0.0, 0
    states, zcs, zds, pre, post, sups = [], [], [], [], [], [0.0]
    for dwell_len in gen.dwells(horizon, rng):
        seg = min(dwell_len, horizon - t0)
        last = t0 + dwell_len >= horizon - 1e-12
        m = max(1, int(np.ceil(seg / step - 1e-9)))
        if switched:
            A, E, C, F = (sys.modes[mode][key] for key in "AECF")
        else:
            A, E, C, F = sys.A, sys.Ec, sys.Cc, sys.Fc

        def w(ts, t0=t0):
            return np.broadcast_to(inputs.wc(t0 + ts), ts.shape).astype(float)

        def A_of(ts):
            if controller is None:
                return cell_mesh(A, ts, clamp)
            return cell_mesh(A, ts, clamp) + cell_mesh(sys.Bc, ts, clamp) @ oracle_kc(controller, ts)

        taus, R, s = oracle_rk4_maps(A_of, lambda ts: cell_mesh(E, ts, clamp).sum(axis=2) * w(ts)[:, None],
                                     step, m, end=seg)
        xs = serial_march(R, s, x)
        C_m = cell_mesh(C, taus, clamp)
        if controller is not None:
            C_m = C_m + cell_mesh(sys.Dc, taus, clamp) @ oracle_kc(controller, taus)
        zc = np.einsum("mij,mj->mi", C_m, xs)
        zc += cell_mesh(F, taus, clamp).sum(axis=2) * w(taus)[:, None]
        states.append(xs)
        zcs.append(zc)
        sups.append(np.max(np.abs(zc)))
        t0 += seg
        x = xs[-1]
        if last or t0 >= horizon - 1e-12:
            break
        k += 1
        pre.append(x)
        if switched:
            j = int(rng.integers(sys.N - 1))
            mode = j if j < mode else j + 1
            post.append(x)
            continue
        jm, wd = sys.jump, inputs.wd(k)
        ud = oracle_kd(controller, dwell_len) @ x if controller is not None else np.zeros(jm.Bd.shape[1])
        zds.append(jm.Cd @ x + jm.Dd @ ud + jm.Fd @ (wd * np.ones(jm.Fd.shape[1])))
        sups.append(np.max(np.abs(zds[-1])))
        x = jm.J @ x + jm.Bd @ ud + jm.Ed @ (wd * np.ones(jm.Ed.shape[1]))
        post.append(x)
    if full:
        return {"states": np.vstack(states), "zc": np.vstack(zcs), "zd": np.array(zds),
                "pre": np.array(pre), "post": np.array(post)}
    return np.vstack(states), float(max(sups))


def random_positive_impulsive(rng: np.random.Generator, n: int) -> ImpulsiveSystem:
    """A(tau) = A0 + tau A1 Metzler (possibly unstable); nonnegative input,
    output and jump data."""
    A = rng.uniform(0.0, 1.0, size=(n, n, 2))
    A[np.arange(n), np.arange(n), 0] = rng.uniform(-3.0, 0.5, size=n)
    A[np.arange(n), np.arange(n), 1] = rng.uniform(-1.0, 1.0, size=n)
    nonneg = lambda r, c: rng.uniform(0.0, 1.0, size=(r, c))
    return ImpulsiveSystem.from_arrays(
        A=PolyMatrix(A), Ec=nonneg(n, 2), Cc=nonneg(2, n), Fc=nonneg(2, 2),
        J=nonneg(n, n), Ed=nonneg(n, 1), Cd=nonneg(1, n), Fd=nonneg(1, 1),
    )


@pytest.fixture(scope="module")
def closed_loops(bench_chain_plant, bench_pair_plant):
    """design kind -> (plant, controller, a sequence generator for its dwell)."""
    designs = {
        "constant": (bench_chain_plant, DwellTimeSpec.constant(0.1)),
        "minimum": (bench_pair_plant, DwellTimeSpec.minimum(0.2)),
        "range": (bench_chain_plant, DwellTimeSpec.range(0.1, 0.3)),
    }
    loops = {key: (plant, synthesize(plant, spec, degree=2), SequenceGen.for_spec(spec, seed=5))
             for key, (plant, spec) in designs.items()}
    # the constant design on a plant with control feedthrough, so D K enters z_c
    plant, ctrl, gen = loops["constant"]
    loops["feedthrough"] = (replace(plant, Dc=PolyMatrix(np.full(plant.Dc.shape + (2,), 0.5))), ctrl, gen)
    return loops


def timer_switched() -> SwitchedSystem:
    """Three modes whose A, E, C and F all differ and depend on the timer, so
    that mesh data evaluated in the wrong mode or at the wrong point show."""
    rng = np.random.default_rng(7)
    modes = []
    for _ in range(3):
        A = rng.uniform(0.0, 0.5, size=(2, 2, 2))
        A[[0, 1], [0, 1], 0] = -rng.uniform(1.0, 2.0, size=2)
        modes.append({"A": PolyMatrix(A)} | {key: PolyMatrix(rng.uniform(0.0, 1.0, size=shape))
                                             for key, shape in (("E", (2, 1, 2)), ("C", (2, 2, 2)), ("F", (2, 1, 2)))})
    return SwitchedSystem.from_arrays(modes)


@pytest.fixture
def march_spy(monkeypatch):
    """The march each simulate call takes, and the (mode, points) of every
    table `_mode_table` builds."""
    seen = {"march": [], "tables": []}
    for name in ("_march_flat", "_march_tables"):
        march = getattr(sim, name)
        monkeypatch.setattr(sim, name, lambda *a, f=march, name=name: seen["march"].append(name) or f(*a))
    mode_table = sim._mode_table
    monkeypatch.setattr(sim, "_mode_table", lambda *a: seen["tables"].append((a[2], a[4])) or mode_table(*a))
    return seen


def check_full(traj, ref, switched=False):
    """Every output of simulate against serial_simulate(..., full=True)."""
    for got, want in ((traj.states, ref["states"]), (traj.zc, ref["zc"]),
                      (traj.pre_jump_states, ref["pre"]), (traj.post_jump_states, ref["post"])):
        np.testing.assert_allclose(got, np.reshape(want, got.shape), rtol=1e-12, atol=0)
    if not switched and len(ref["zd"]):
        np.testing.assert_allclose(traj.zd, ref["zd"], rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def scalar_relax():
    # xdot = -x + w, z = x
    return ImpulsiveSystem.from_arrays(
        A=[[-1.0]], Ec=[[1.0]], Cc=[[1.0]], Fc=[[0.0]],
        J=[[1.0]], Ed=[[0.0]], Cd=[[0.0]], Fd=[[0.0]],
    )


class TestSimulate:
    def test_zero_input_zero_state(self, bench_lti):
        zero = InputSignal(lambda t: np.zeros_like(np.asarray(t, dtype=float)), lambda k: 0.0)
        traj = simulate(bench_lti, SequenceGen.exact(0.5), zero, x0=[0.0, 0.0], horizon=5.0)
        assert np.max(np.abs(traj.states)) == 0.0
        assert np.max(np.abs(traj.zc)) == 0.0

    def test_scalar_closed_form(self, scalar_relax):
        traj = simulate(
            scalar_relax,
            SequenceGen.exact(100.0),  # no jump within the horizon
            generate_inputs("const_unit"),
            x0=[0.0],
            horizon=10.0,
            step=1e-3,
            check_step=True,
        )
        exact = 1.0 - np.exp(-traj.times)
        assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-6

    def test_positive_trajectory(self, bench_lti):
        traj = simulate(
            bench_lti,
            SequenceGen.min_plus_exp(0.4, seed=3),
            generate_inputs("const_unit"),
            x0=[1.0, 1.0],
            horizon=20.0,
        )
        assert traj.min_state() >= -1e-9

    def test_linearity_and_superposition(self, bench_lti):
        gen = SequenceGen.uniform_range(0.3, 0.6, seed=9)

        def run(alpha_c, alpha_d):
            sig = InputSignal(
                lambda t: alpha_c * np.ones_like(np.asarray(t, dtype=float)),
                lambda k: alpha_d,
            )
            return simulate(bench_lti, gen, sig, x0=[0.0, 0.0], horizon=8.0)

        one = run(1.0, 1.0)
        two = run(2.0, 2.0)
        scale = np.max(np.abs(two.states))
        assert np.max(np.abs(two.states - 2.0 * one.states)) <= 1e-9 * (1 + scale)

        a = run(1.0, 0.25)
        b = run(0.5, 0.75)
        both = run(1.5, 1.0)
        assert np.max(np.abs(both.states - a.states - b.states)) <= 1e-9 * (
            1 + np.max(np.abs(both.states))
        )

    def test_jump_count_and_residual(self, bench_lti):
        traj = simulate(
            bench_lti,
            SequenceGen.exact(0.5, seed=0),
            generate_inputs("const_unit"),
            x0=[1.0, 0.5],
            horizon=5.2,
        )
        assert traj.jump_count[-1] == len(traj.jump_times)
        assert len(traj.jump_times) == 10
        jm = bench_lti.jump
        for k in range(len(traj.jump_times)):
            pre = traj.pre_jump_states[k]
            post = traj.post_jump_states[k]
            expect = jm.J @ pre + jm.Ed @ np.ones(1)
            assert np.max(np.abs(post - expect)) <= 1e-12 * (1 + np.max(np.abs(expect)))

    def test_step_convergence(self, bench_lti, bench_timer_growth):
        for sys, gen in (
            (bench_lti, SequenceGen.exact(0.7, seed=1)),
            (bench_timer_growth, SequenceGen.uniform_range(0.3, 0.5, seed=1)),
        ):
            outs = []
            for step in (2e-3, 1e-3):
                traj = simulate(
                    sys, gen, generate_inputs("const_unit"), x0=[0.5, 0.5], horizon=10.0, step=step
                )
                outs.append(traj.sup_hybrid())
            assert abs(outs[0] - outs[1]) <= 1e-5 * (1 + abs(outs[1]))

    def test_step_too_large(self):
        stiff = ImpulsiveSystem.from_arrays(
            A=[[-30.0]], Ec=[[1.0]], Cc=[[1.0]], Fc=[[0.0]],
            J=[[1.0]], Ed=[[0.0]], Cd=[[0.0]], Fd=[[0.0]],
        )
        with pytest.raises(StepTooLarge):
            simulate(
                stiff,
                SequenceGen.exact(10.0),
                generate_inputs("const_unit"),
                x0=[1.0],
                horizon=5.0,
                step=0.1,
                check_step=True,
            )

    def test_dimension_checks(self, bench_lti):
        with pytest.raises(DimensionMismatch):
            simulate(bench_lti, SequenceGen.exact(0.5), generate_inputs("const_unit"),
                     x0=[1.0], horizon=5.0)
        with pytest.raises(DimensionMismatch):
            simulate(bench_lti, SequenceGen.exact(0.5), generate_inputs("const_unit"),
                     x0=[1.0, 1.0], horizon=-1.0)

    @pytest.mark.parametrize("horizon, step", [(np.inf, None), (np.nan, None), (5.0, np.nan), (5.0, np.inf),
                                               (5.0, 0.0)])
    def test_horizon_and_step_must_be_finite_and_positive(self, bench_lti, monkeypatch, horizon, step):
        """Refused before any dwell is drawn: the draws of an infinite
        horizon would never end, and a step of NaN would build no mesh."""
        def no_draws(*args):
            raise AssertionError("dwells drawn")

        monkeypatch.setattr(SequenceGen, "dwells", no_draws)
        with pytest.raises(DimensionMismatch, match="horizon and step must be finite and positive"):
            simulate(bench_lti, SequenceGen.min_plus_exp(0.5), generate_inputs("const_unit"),
                     x0=[0.0, 0.0], horizon=horizon, step=step)

    def test_switched_simulation(self, bench_switched):
        traj = simulate(
            bench_switched,
            SequenceGen.min_plus_exp(0.1, seed=4),
            generate_inputs("const_unit"),
            x0=[0.0, 0.0],
            horizon=10.0,
        )
        assert traj.modes is not None
        # state is continuous across switches
        for k in range(len(traj.jump_times)):
            assert np.array_equal(traj.pre_jump_states[k], traj.post_jump_states[k])
        assert traj.min_state() >= -1e-9

    def test_minimum_dwell_clamp_freezes_matrices(self, bench_timer_stable):
        # with clamping, flowing past T behaves like the frozen system
        gen = SequenceGen.exact(50.0)
        traj = simulate(
            bench_timer_stable, gen, generate_inputs("const_unit"),
            x0=[1.0, 1.0], horizon=12.0, clamp=2.0,
        )
        A_frozen = bench_timer_stable.A(2.0)
        Ec_frozen = bench_timer_stable.Ec(2.0).sum(axis=1)
        x_ss = -np.linalg.solve(A_frozen, Ec_frozen)
        assert traj.states[-1] == pytest.approx(x_ss, rel=1e-3)

    def test_state_overflow_raises(self):
        blowup = ImpulsiveSystem.from_arrays(
            A=[[50.0]], Ec=[[1.0]], Cc=[[1.0]], Fc=[[0.0]],
            J=[[1.0]], Ed=[[0.0]], Cd=[[0.0]], Fd=[[0.0]],
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StepTooLarge):
            simulate(blowup, SequenceGen.exact(1.0), generate_inputs("const_unit"),
                     x0=[1.0], horizon=30.0)


class TestSerialEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 31, 32, 33, 64, 65, 700])
    def test_scan_matches_serial_march(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        R = np.eye(n) + 0.01 * rng.uniform(0.0, 1.0, size=(m, n, n))
        s = 0.01 * rng.uniform(0.0, 1.0, size=(m, n))
        tables = sim._block_prefix(R.transpose(1, 2, 0).copy(), s.T.copy())
        x0 = rng.uniform(0.0, 1.0, size=n)
        np.testing.assert_allclose(sim._scan(tables, x0, m).T, serial_march(R, s, x0), rtol=1e-12, atol=0)
        X0 = rng.uniform(0.0, 1.0, size=(n, n + 1))
        np.testing.assert_allclose(np.moveaxis(sim._scan(tables, X0, m), -1, 0), serial_march(R, s, X0),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(np.moveaxis(sim._scan(tables, X0, m, forced=False), -1, 0),
                                   serial_march(R, 0.0 * s, X0), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("L", [1, 2, 3, 31, 32, 33, 64, 65, 700])
    def test_prefix_matches_serial_compositions(self, L, n):
        """Entry i of `_prefix` is maps 0..i composed, for any length L."""
        rng = np.random.default_rng(10 * L + n)
        R = np.eye(n) + 0.01 * rng.uniform(0.0, 1.0, size=(L, n, n))
        s = 0.01 * rng.uniform(0.0, 1.0, size=(L, n))
        T = sim._prefix(np.concatenate([R, s[:, :, None]], axis=2).transpose(1, 2, 0).copy(), np.empty((n, n + 1, L)))
        P, q = T[:, :n], T[:, n]
        np.testing.assert_allclose(np.moveaxis(P, -1, 0), serial_march(R, 0.0 * s, np.eye(n))[1:],
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(q.T, serial_march(R, s, np.zeros(n))[1:], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("L", [1, 2, 3, 31, 32, 33])
    def test_prefix_along_the_inner_axis(self, L, n):
        """The tables of `_block_prefix` are (n, n+1, L, K): `_prefix` composes
        along axis 2, each of the K columns a sequence of its own, and leaves
        its result in whichever buffer the number of steps lands on."""
        K = 5
        rng = np.random.default_rng(10 * L + n)
        R = np.eye(n) + 0.01 * rng.uniform(0.0, 1.0, size=(K, L, n, n))
        s = 0.01 * rng.uniform(0.0, 1.0, size=(K, L, n))
        T0 = np.concatenate([R, s[..., None]], axis=3).transpose(2, 3, 1, 0).copy()
        T = sim._prefix(T0, np.full_like(T0, np.nan))
        P, q = T[:, :n], T[:, n]
        assert T.shape == (n, n + 1, L, K)
        for c in range(K):
            np.testing.assert_allclose(np.moveaxis(P[:, :, :, c], -1, 0),
                                       serial_march(R[c], 0.0 * s[c], np.eye(n))[1:], rtol=1e-12, atol=0)
            np.testing.assert_allclose(q[:, :, c].T, serial_march(R[c], s[c], np.zeros(n))[1:],
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("horizon, tail", [(8.5, 324), (8.1955, 20)])
    def test_short_last_chunk_matches_serial_oracle(self, horizon, tail):
        """A flat march of more than one chunk whose last chunk is short and
        not a multiple of _BLOCK cells, after a full chunk of non-identity
        maps, and systems of n = 1, 2, 3 one after another, march as the
        serial oracle does."""
        inputs = combine_inputs(generate_inputs("sine"), generate_inputs("uniform_random", seed=8))
        gen = SequenceGen.exact(0.5, seed=3)
        for n in (1, 2, 3):
            sys_ = random_positive_impulsive(np.random.default_rng(40 + n), n)
            x0 = np.full(n, 0.1)
            traj = simulate(sys_, gen, inputs, x0=x0, horizon=horizon)
            assert len(traj.times) - 1 - sim._CHUNK == tail and tail % sim._BLOCK
            ref = serial_simulate(sys_, gen, inputs, x0, horizon, full=True)
            for got, want in ((traj.states, ref["states"]), (traj.zc, ref["zc"]), (traj.zd, ref["zd"])):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        kind=st.sampled_from(["exact", "uniform_range"]),
        T=st.floats(0.2, 1.0),
    )
    def test_simulate_matches_serial_oracle(self, seed, n, kind, T):
        sys_ = random_positive_impulsive(np.random.default_rng(seed), n)
        gen = SequenceGen.exact(T, seed) if kind == "exact" else SequenceGen.uniform_range(T, 1.5 * T, seed)
        inputs = generate_inputs("const_unit")
        traj = simulate(sys_, gen, inputs, x0=np.zeros(n), horizon=3.0)
        states, sup = serial_simulate(sys_, gen, inputs, np.zeros(n), 3.0)
        assert traj.sup_hybrid() == pytest.approx(sup, rel=1e-12, abs=0)
        assert np.max(np.abs(traj.states - states)) <= 1e-12 * np.max(np.abs(states))

    def test_time_varying_input_is_never_reused(self, bench_timer_growth, monkeypatch, march_spy):
        calls = []
        eval_mesh = PolyMatrix.eval_mesh
        monkeypatch.setattr(PolyMatrix, "eval_mesh", lambda *a, **kw: calls.append(1) or eval_mesh(*a, **kw))

        def run(gen, inputs):
            calls.clear()
            traj = simulate(bench_timer_growth, gen, inputs, x0=[0.2, 0.1], horizon=6.0, clamp=0.3)
            return traj, len(calls)

        gen, sine = SequenceGen.exact(0.35), generate_inputs("sine")
        _, one_segment = run(SequenceGen.exact(100.0), sine)
        traj, evals = run(gen, sine)
        states, sup = serial_simulate(bench_timer_growth, gen, sine, [0.2, 0.1], 6.0, clamp=0.3)
        assert len(traj.jump_times) == 17
        assert evals == one_segment  # the mesh is evaluated per chunk, not per segment
        assert traj.sup_hybrid() == pytest.approx(sup, rel=1e-12, abs=0)
        np.testing.assert_allclose(traj.states, states, rtol=1e-12, atol=0)

        # a constant input repeats the segments: one table over the longest
        # segment, whose 350 points serve the 17 full dwells and the
        # truncated last one of about 0.05, and one evaluation of the last
        # cells of all segments
        const = generate_inputs("const_unit")
        march_spy["tables"].clear()
        traj, evals = run(gen, const)
        ref = serial_simulate(bench_timer_growth, gen, const, [0.2, 0.1], 6.0, clamp=0.3, full=True)
        assert march_spy["tables"] == [(None, 350)] and evals == 2 * one_segment
        assert np.array_equal(np.bincount(traj.jump_count)[-2:], [351, 51])
        assert march_spy["march"] == ["_march_flat"] * 2 + ["_march_tables"]
        check_full(traj, ref)

    def test_switched_reuse_is_per_mode(self, bench_switched, march_spy):
        gen, const = SequenceGen.exact(0.3, seed=6), generate_inputs("const_unit")
        traj = simulate(bench_switched, gen, const, x0=[0.3, 0.1], horizon=5.0)
        ref = serial_simulate(bench_switched, gen, const, [0.3, 0.1], 5.0, full=True)
        assert len(set(traj.modes)) == 2
        # one table per mode, which the last 0.2 shares
        assert march_spy["march"] == ["_march_tables"] and sorted(march_spy["tables"]) == [(0, 300), (1, 300)]
        check_full(traj, ref, switched=True)
        assert np.array_equal(traj.pre_jump_states, traj.post_jump_states)


    @pytest.mark.parametrize("design", ["constant", "minimum", "range", "feedthrough"])
    @pytest.mark.parametrize("input_kind", ["const_unit", "sine"])
    def test_closed_loop_matches_serial_oracle(self, closed_loops, design, input_kind, march_spy):
        """K_c(tau) enters the mesh data and K_d(theta) every jump; under a
        constant input the segments share one table, whatever the dwell."""
        plant, ctrl, gen = closed_loops[design]
        inputs = generate_inputs(input_kind)
        x0 = np.full(plant.n, 0.1)
        traj = simulate(plant, gen, inputs, x0=x0, horizon=3.0, controller=ctrl, clamp=ctrl.clamp)
        ref = serial_simulate(plant, gen, inputs, x0, 3.0, clamp=ctrl.clamp, controller=ctrl, full=True)
        assert march_spy["march"] == ["_march_tables" if input_kind == "const_unit" else "_march_flat"]
        assert len(traj.jump_times) > 1
        check_full(traj, ref)

    @pytest.mark.parametrize("clamp", [None, 0.6])
    def test_flow_grid_matches_serial_march(self, bench_timer_growth, clamp):
        sys_, taus = bench_timer_growth, np.linspace(0.0, 1.3, 150)
        n, m, h = sys_.n, len(taus) - 1, taus[1] - taus[0]
        Phis, forced, C, z = flow_grid(sys_, taus, clamp=clamp)
        _, R, s = oracle_rk4_maps(lambda ts: cell_mesh(sys_.A, ts, clamp),
                                  lambda ts: cell_mesh(sys_.Ec, ts, clamp).sum(axis=2), h, m)
        np.testing.assert_allclose(Phis, serial_march(R, 0.0 * s, np.eye(n)).transpose(1, 2, 0), rtol=1e-12, atol=0)
        np.testing.assert_allclose(forced, serial_march(R, s, np.zeros(n)).T, rtol=1e-12, atol=0)
        # the output terms on the points, in the layout of the state arrays
        assert C.flags.c_contiguous and z.flags.c_contiguous
        np.testing.assert_array_equal(C, cell_mesh(sys_.Cc, taus, clamp).transpose(1, 2, 0))
        np.testing.assert_array_equal(z, cell_mesh(sys_.Fc, taus, clamp).sum(axis=2).T)
        # a system without continuous input has the same flow and no forcing
        unforced = flow_grid(ImpulsiveSystem.from_arrays(A=sys_.A, J=sys_.jump.J), taus, clamp=clamp)
        np.testing.assert_array_equal(unforced[0], Phis)
        assert not unforced[1].any()

    @pytest.mark.parametrize("clamp", [None, 0.4])
    def test_transition_matrix_matches_serial_march(self, bench_timer_growth, clamp):
        sys_, jumps, step = bench_timer_growth, [0.5, 1.1], 1e-3
        Phi, t, origin = np.eye(sys_.n), 0.0, 0.0
        for tk in jumps + [1.7]:
            m = int(np.ceil((tk - t) / step))
            _, R, s = oracle_rk4_maps(lambda ts: cell_mesh(sys_.A, ts + (t - origin), clamp),
                                      lambda ts: np.zeros((len(ts), sys_.n)), (tk - t) / m, m)
            Phi = serial_march(R, s, Phi)[-1]
            if tk in jumps:
                Phi, origin = sys_.jump.J @ Phi, tk
            t = tk
        got = transition_matrix(sys_, 0.0, 1.7, jumps_in_between=jumps, step=step, clamp=clamp)
        np.testing.assert_allclose(got, Phi, rtol=1e-12, atol=0)


class TestChunkedMarch:
    """The march runs over chunks of the run's flat point axis; a chunk seam
    may fall anywhere, on a jump too."""

    @pytest.fixture
    def seam_case(self, request, bench_lti, bench_timer_growth, bench_switched, closed_loops):
        """(system, sequence generator, simulate keywords) of one case."""
        case = request.param
        if case == "impulsive":
            return bench_lti, SequenceGen.uniform_range(0.2, 0.3, seed=3), {}
        if case == "clamped":
            return bench_timer_growth, SequenceGen.min_plus_exp(0.15, seed=4), {"clamp": 0.15}
        if case == "switched":
            return bench_switched, SequenceGen.min_plus_exp(0.1, seed=4), {}
        if case == "timer_switched":
            return timer_switched(), SequenceGen.min_plus_exp(0.1, seed=4), {}
        plant, ctrl, gen = closed_loops[case]
        return plant, gen, {"controller": ctrl, "clamp": ctrl.clamp}

    @pytest.mark.parametrize("chunk", [1, 7, 33, "jump"])
    @pytest.mark.parametrize(
        "seam_case",
        ["impulsive", "clamped", "switched", "timer_switched", "constant", "minimum", "range", "feedthrough"],
        indirect=True,
    )
    def test_chunk_seams_match_serial_oracle(self, seam_case, chunk, monkeypatch):
        sys_, gen, kw = seam_case
        inputs = combine_inputs(generate_inputs("sine"), generate_inputs("uniform_random", seed=8))
        x0 = np.full(sys_.n, 0.1)

        def run():
            return simulate(sys_, gen, inputs, x0=x0, horizon=1.5, step=0.01, **kw)

        if chunk == "jump":  # chunk 0 ends on the first pre-jump sample, chunk 1 starts with the jump
            chunk = int(np.searchsorted(run().jump_count, 1)) - 1
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        traj = run()
        ref = serial_simulate(sys_, gen, inputs, x0, 1.5, step=0.01, full=True, **kw)
        assert len(traj.jump_times) > 1
        for got, want in ((traj.states, ref["states"]), (traj.zc, ref["zc"]),
                          (traj.pre_jump_states, ref["pre"]), (traj.post_jump_states, ref["post"])):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        if isinstance(sys_, SwitchedSystem):
            assert np.array_equal(traj.pre_jump_states, traj.post_jump_states)
            assert traj.zd.size == 0
        else:
            np.testing.assert_allclose(traj.zd, ref["zd"], rtol=1e-12, atol=0)

    def test_jump_cells_stay_in_their_segment(self):
        """A jump sits on the flat axis as a cell of zero width, and a table
        ends at its mode's longest segment, so nothing is evaluated past a
        segment's end: here X(tau) of the controller turns negative just
        after the dwell.  The sine input takes the flat march, the constant
        one the table."""
        plant = ImpulsiveSystem.from_arrays(
            A=[[-1.0]], Bc=[[1.0]], Ec=[[1.0]], Cc=[[1.0]], Fc=[[0.0]], J=[[0.5]], Ed=[[0.2]], Cd=[[1.0]], Fd=[[0.0]],
        )
        ctrl = ControllerRealization(
            kind="ConstantDT", dwell=DwellTimeSpec.constant(1.0), gamma=1.0, degree=1, margin=0.0,
            X=[Poly((1.0, -0.999))],  # zero at tau = 1.001, within half a cell of the dwell
            Uc=[[Poly.const(-0.5)]],
        )
        gen = SequenceGen.exact(1.0)
        for inputs in (generate_inputs("sine"), generate_inputs("const_unit")):
            traj = simulate(plant, gen, inputs, x0=[1.0], horizon=3.5, step=0.01, controller=ctrl)
            ref = serial_simulate(plant, gen, inputs, [1.0], 3.5, step=0.01, controller=ctrl, full=True)
            assert len(traj.jump_times) == 3
            np.testing.assert_allclose(traj.states, ref["states"], rtol=1e-12, atol=0)
            np.testing.assert_allclose(traj.zd, ref["zd"], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("chunk", [sim._CHUNK, 28, "jump"])
    def test_halfstep_referee_skips_jumps(self, bench_timer_stable, chunk, monkeypatch):
        """timer_stable_bench's jump is expansive, so a referee that took a
        jump for an RK4 step would raise.  The referee must instead give the
        value it gives segment by segment, on each segment's own mesh, across
        chunk seams too (the referee's chunks hold _CHUNK // 4 maps)."""
        sys_, T = bench_timer_stable, 2.0

        def run():
            return simulate(sys_, SequenceGen.exact(T), generate_inputs("const_unit"), x0=[1.0, 1.0],
                            horizon=10.0, step=0.02, check_step=True)

        if chunk == "jump":  # a seam right before the first jump
            chunk = 4 * (int(np.searchsorted(run().jump_count, 1)) - 1)
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        traj = run()
        worst = 0.0
        for k in range(len(traj.jump_times) + 1):
            xs = traj.states[traj.jump_count == k].T
            m = xs.shape[1] - 1
            h = np.full(m, 0.02)
            h[-1] = T - (m - 1) * 0.02  # the last cell ends at the dwell
            cells = np.arange(m) * 0.02
            grid = np.concatenate([np.append(cells, T), cells + 0.5 * h, cells + 0.25 * h, cells + 0.75 * h])
            A = sys_.A.eval_mesh(grid)
            b = sys_.Ec.eval_mesh(grid).sum(axis=1)
            mids = slice(m + 1, 2 * m + 1)
            halves = (sim._rk4_stage(A, b, slice(0, m), slice(2 * m + 1, 3 * m + 1), mids, 0.5 * h),
                      sim._rk4_stage(A, b, mids, slice(3 * m + 1, 4 * m + 1), slice(1, m + 1), 0.5 * h))
            (R1, s1), (R2, s2) = halves
            x_two = np.einsum("ijm,jm->im", R2, np.einsum("ijm,jm->im", R1, xs[:, :-1]) + s1) + s2
            gap = np.max(np.abs(x_two - xs[:, 1:]), axis=0) / (1.0 + np.max(np.abs(xs[:, 1:]), axis=0))
            worst = max(worst, float(np.max(gap)))
        assert len(traj.jump_times) == 4
        assert worst > 1e-12  # truncation, not rounding, sets the value
        assert traj.meta["worst_local_truncation"] == pytest.approx(worst, rel=1e-12, abs=0)


class TestSharedSegments:
    """A run under a constant continuous input is marched from one table per
    mode, whatever its dwells; a time-varying input, a single segment, or
    tables that would not serve two segments on average keep the flat
    chunked march.  The closed loop, switched and clamped cases are in
    TestSerialEquivalence."""

    def test_discrete_input_varies_per_jump(self, bench_lti, march_spy):
        """uniform_random keeps w_c = 1, so the segments share one table, and draws w_d per jump."""
        gen = SequenceGen.exact(0.25)
        inputs = combine_inputs(generate_inputs("const_unit"), generate_inputs("uniform_random", seed=8))
        traj = simulate(bench_lti, gen, inputs, x0=[0.1, 0.2], horizon=4.0)
        assert march_spy["march"] == ["_march_tables"] and len(march_spy["tables"]) == 1
        ref = serial_simulate(bench_lti, gen, inputs, [0.1, 0.2], 4.0, full=True)
        assert len(np.unique(ref["zd"])) > 10
        check_full(traj, ref)

    @pytest.mark.parametrize("case", ["timer_stable", "no_zc"])
    def test_shared_tables_match_flat_march(self, bench_timer_stable, case, march_spy, monkeypatch):
        """The two marches agree, the referee too, also for a system without z_c."""
        sys_ = bench_timer_stable if case == "timer_stable" else TestExport._no_zc_system()
        gen, const = SequenceGen.exact(1.7), generate_inputs("const_unit")

        def run():
            return simulate(sys_, gen, const, x0=[1.0, 1.0], horizon=20.0, check_step=True)

        shared = run()
        monkeypatch.setattr(sim, "_constant_input", lambda *a: None)
        flat = run()
        assert march_spy["march"] == ["_march_tables", "_march_flat"]
        assert shared.zc.shape == flat.zc.shape and (shared.zc.size == 0) == (case == "no_zc")
        for part in ("states", "zc", "zd", "pre_jump_states", "post_jump_states"):
            np.testing.assert_allclose(getattr(shared, part), getattr(flat, part), rtol=1e-12, atol=0)
        assert shared.meta["worst_local_truncation"] == pytest.approx(flat.meta["worst_local_truncation"],
                                                                        rel=1e-9)

    def test_single_segment(self, bench_lti, march_spy):
        """T >= horizon is one segment, and T = 2.4 over a horizon of 3 has a
        table of more than half the run's maps: no table would serve twice."""
        const = generate_inputs("const_unit")
        for T, jumps in ((5.0, 0), (2.4, 1)):
            march_spy["march"].clear()
            gen = SequenceGen.exact(T)
            traj = simulate(bench_lti, gen, const, x0=[0.1, 0.2], horizon=3.0)
            assert march_spy["march"] == ["_march_flat"] and not march_spy["tables"]
            assert len(traj.jump_times) == jumps
            check_full(traj, serial_simulate(bench_lti, gen, const, [0.1, 0.2], 3.0, full=True))

    def test_shape_longer_than_a_chunk(self, bench_lti, march_spy, monkeypatch):
        """A segment of more cells than a chunk: its table is built one chunk
        at a time, each chunk from the previous one's last column."""
        monkeypatch.setattr(sim, "_CHUNK", 64)
        gen, const = SequenceGen.exact(0.25), generate_inputs("const_unit")
        traj = simulate(bench_lti, gen, const, x0=[0.1, 0.2], horizon=2.0, step=0.002)
        assert march_spy["march"] == ["_march_tables"] and march_spy["tables"] == [(None, 125)]
        check_full(traj, serial_simulate(bench_lti, gen, const, [0.1, 0.2], 2.0, step=0.002, full=True))

    @pytest.mark.parametrize("kind", ["range", "minimum"])
    @pytest.mark.parametrize("case", ["impulsive", "switched", "closed"])
    def test_random_dwell_shares_one_table_per_mode(self, bench_lti, bench_switched, closed_loops, case, kind,
                                                    march_spy):
        """Every segment's mesh starts at tau = 0 in whole steps, so under a
        constant input a random dwell builds one table per mode, over the
        mode's longest segment; a sine input keeps the flat march."""
        kw = {}
        if case == "closed":
            sys_, ctrl, gen = closed_loops[kind]
            kw = {"controller": ctrl, "clamp": ctrl.clamp}
        else:
            sys_, T = (bench_lti, 0.2) if case == "impulsive" else (bench_switched, 0.1)
            gen = (SequenceGen.uniform_range(T, 1.5 * T, seed=2) if kind == "range"
                   else SequenceGen.min_plus_exp(T, seed=2))
        x0 = np.full(sys_.n, 0.1)
        for inputs in (generate_inputs("const_unit"), generate_inputs("sine")):
            march_spy["march"].clear()
            traj = simulate(sys_, gen, inputs, x0=x0, horizon=4.0, **kw)
            assert len(set(np.diff(traj.jump_times))) > 5  # no two dwells alike
            if inputs.label == "sine":
                assert march_spy["march"] == ["_march_flat"]
            else:
                cells = np.bincount(traj.jump_count) - 1
                firsts = np.cumsum(cells + 1) - cells - 1
                seg_modes = traj.modes[firsts].tolist() if case == "switched" else [None] * len(cells)
                longest = {md: max(m for m, s in zip(cells, seg_modes) if s == md) for md in seg_modes}
                assert march_spy["march"] == ["_march_tables"]
                assert sorted(march_spy["tables"], key=str) == sorted(longest.items(), key=str)
            ref = serial_simulate(sys_, gen, inputs, x0, 4.0, full=True, **kw)
            check_full(traj, ref, switched=case == "switched")

    def test_tagged_impulsive_run_marches_one_flow(self, bench_switched, march_spy):
        """An impulsive system has one flow whatever the tags of its jump
        maps: the lift of a two-mode system builds one table, not one per
        tag mode, and its run is the switched system's to rounding: the
        block of its state of the active mode is the switched state."""
        lifted, gen, const = lift_switched(bench_switched), SequenceGen.exact(0.5), generate_inputs("const_unit")
        n = bench_switched.n
        traj = simulate(lifted, gen, const, x0=[0.1] * n + [0.0] * n, horizon=4.0, start_mode=0)
        assert march_spy["march"] == ["_march_tables"] and march_spy["tables"] == [(None, 500)]
        ref = simulate(bench_switched, gen, const, x0=[0.1] * n, horizon=4.0, start_mode=0)
        assert len(traj.jump_times) == 7 and set(ref.modes) == {0, 1}
        blocks = traj.states.reshape(len(traj.times), 2, n)
        np.testing.assert_allclose(blocks[np.arange(len(ref.modes)), ref.modes], ref.states, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("T, step", [(0.3, None), (0.5, None), (0.25, 0.002), (0.07, 0.01)])
    def test_whole_number_of_steps(self, bench_lti, T, step):
        """A dwell of a whole number of steps gets that many cells, all a step
        wide within rounding, even where T / step rounds above the whole
        number (0.07 / 0.01): no cell is narrower than 1e-9 of a step, and the
        times strictly increase within each segment."""
        traj = simulate(bench_lti, SequenceGen.exact(T), generate_inputs("const_unit"), x0=[0.1, 0.2], horizon=3.0,
                        step=step)
        h = traj.meta["step"]
        for k in range(len(traj.jump_times) + 1):
            cells = np.diff(traj.times[traj.jump_count == k])
            assert cells.min() > 1e-9 * h
            if k < len(traj.jump_times):
                assert len(cells) == round(T / h)
                np.testing.assert_allclose(cells, h, rtol=1e-9)


class TestErrorClasses:
    """What the plan-then-march order must keep raising; a state overflow is
    pinned by TestSimulate.test_state_overflow_raises, whose overflow lands
    in a later chunk."""

    def test_no_outgoing_jump_map(self):
        tagged = ImpulsiveSystem.from_arrays(
            A=[[-1.0]], Ec=[[1.0]], Cc=[[1.0]], Fc=[[0.0]], J=[[1.0]], Ed=[[0.0]], Cd=[[0.0]], Fd=[[0.0]],
            extra_jumps=[{"J": [[0.5]], "Ed": [[0.0]], "Cd": [[0.0]], "Fd": [[0.0]], "tag": (0, 1)}],
        )
        with pytest.raises(DimensionMismatch, match="no jump map leaves mode 1"):
            simulate(tagged, SequenceGen.exact(0.5), generate_inputs("const_unit"), x0=[1.0],
                     horizon=3.0, start_mode=0)

    def test_denominator_not_positive(self):
        plant = ImpulsiveSystem.from_arrays(
            A=[[-1.0]], Bc=[[1.0]], Ec=[[1.0]], Cc=[[1.0]], Fc=[[0.0]], J=[[0.5]], Ed=[[0.0]], Cd=[[0.0]], Fd=[[0.0]],
        )
        ctrl = ControllerRealization(
            kind="ConstantDT", dwell=DwellTimeSpec.constant(1.0), gamma=1.0, degree=1, margin=0.0,
            X=[Poly((0.5, -1.0))],  # crosses zero at tau = 0.5
            Uc=[[Poly.const(1.0)]],
        )
        with pytest.raises(IllPosed):
            simulate(plant, SequenceGen.exact(1.0), generate_inputs("const_unit"), x0=[1.0], horizon=2.0,
                     controller=ctrl)


def oracle_export_text(traj):
    """The states and jumps CSV text of the exporter's earlier row-by-row
    formatter, which called repr(float(x)) on every number."""

    def fmt(x) -> str:
        return repr(float(x))

    n = traj.states.shape[1]
    qc = traj.zc.shape[1] if traj.zc.size else 0
    lines = [",".join(["t"] + [f"x_{i+1}" for i in range(n)] + [f"zc_{i+1}" for i in range(qc)])]
    for k in range(len(traj.times)):
        row = [fmt(traj.times[k])] + [fmt(v) for v in traj.states[k]]
        if qc:
            row += [fmt(v) for v in traj.zc[k]]
        lines.append(",".join(row))
    states = "\n".join(lines) + "\n"
    qd = traj.zd.shape[1] if traj.zd.size else 0
    lines = [",".join(["k", "t_k"] + [f"zd_{i+1}" for i in range(qd)])]
    for k, tk in enumerate(traj.jump_times):
        row = [str(k + 1), fmt(tk)]
        if qd and k < traj.zd.shape[0]:
            row += [fmt(v) for v in traj.zd[k]]
        lines.append(",".join(row))
    return states, "\n".join(lines) + "\n"


class TestExport:
    @staticmethod
    def _no_zc_system():
        return ImpulsiveSystem.from_arrays(
            A=[[-1.0, 0.2], [0.1, -2.0]], Ec=[[1.0], [0.5]], Cc=np.zeros((0, 2)), Fc=np.zeros((0, 1)),
            J=[[0.5, 0.0], [0.0, 0.5]], Ed=[[0.1], [0.0]], Cd=[[1.0, 1.0]], Fd=[[0.0]],
        )

    @pytest.mark.parametrize("case", ["impulsive", "no_zc", "switched"])
    def test_bytes_match_row_formatter(self, case, bench_lti, bench_switched, tmp_path):
        sys_ = {"impulsive": bench_lti, "no_zc": self._no_zc_system(), "switched": bench_switched}[case]
        traj = simulate(sys_, SequenceGen.uniform_range(0.3, 0.6, seed=2), generate_inputs("sine"),
                        x0=np.full(sys_.n, 0.3), horizon=2.0)
        assert len(traj.jump_times) > 1
        assert (traj.zc.size == 0) == (case == "no_zc")
        assert (traj.zd.size == 0) == (case == "switched")
        prefix = str(tmp_path / case)
        export_trajectory(traj, prefix)
        states, jumps = oracle_export_text(traj)
        assert (tmp_path / f"{case}_states.csv").read_bytes() == states.encode()
        assert (tmp_path / f"{case}_jumps.csv").read_bytes() == jumps.encode()

    @pytest.mark.parametrize("every", [1, 3, 10, 10**6])
    @pytest.mark.parametrize("case", ["impulsive", "no_zc", "switched"])
    def test_export_rows_are_the_full_runs(self, case, every, bench_lti, bench_switched, tmp_path):
        """CLI simulate's stride cuts a run to whole rows of it, found as
        `oracle_export_rows` finds them, modes with them; exported, the
        states CSV is the full one's at those rows and the jumps CSV is the
        full one's."""
        from dwellgain.cli import _export_rows

        sys_ = {"impulsive": bench_lti, "no_zc": self._no_zc_system(), "switched": bench_switched}[case]
        traj = simulate(sys_, SequenceGen.uniform_range(0.3, 0.6, seed=2), generate_inputs("sine"),
                        x0=np.full(sys_.n, 0.3), horizon=2.0)
        thin = _export_rows(traj, every)
        keep = oracle_export_rows(traj.jump_count.tolist(), every)
        for part in ("times", "states", "zc", "jump_count") + (("modes",) if case == "switched" else ()):
            np.testing.assert_array_equal(getattr(thin, part), getattr(traj, part)[keep])
        assert (thin.modes is None) == (case != "switched")
        for part in ("jump_times", "zd", "pre_jump_states", "post_jump_states"):
            assert getattr(thin, part) is getattr(traj, part)
        export_trajectory(traj, str(tmp_path / "full"))
        export_trajectory(thin, str(tmp_path / "thin"))
        rows = (tmp_path / "full_states.csv").read_text().splitlines()
        assert (tmp_path / "thin_states.csv").read_text().splitlines() == rows[:1] + [rows[1 + i] for i in keep]
        assert (tmp_path / "thin_jumps.csv").read_bytes() == (tmp_path / "full_jumps.csv").read_bytes()


class TestInputs:
    def test_const_unit(self):
        sig = generate_inputs("const_unit")
        assert sig.wc(np.array([0.0, 3.7]))[1] == 1.0
        assert sig.wd(5) == 1.0

    def test_sine_peak(self):
        sig = generate_inputs("sine")
        assert sig.wc(np.array([np.pi / 2.0]))[0] == pytest.approx(1.0)

    def test_uniform_reproducible(self):
        a = generate_inputs("uniform_random", seed=12)
        b = generate_inputs("uniform_random", seed=12)
        draws_a = [a.wd(k) for k in range(1, 6)]
        draws_b = [b.wd(k) for k in range(1, 6)]
        assert draws_a == draws_b
        assert all(0.0 <= d < 1.0 for d in draws_a)
        c = generate_inputs("uniform_random", seed=13)
        assert [c.wd(k) for k in range(1, 6)] != draws_a

    def test_combine(self):
        sig = combine_inputs(generate_inputs("sine"), generate_inputs("uniform_random", 3))
        assert sig.wc(np.array([np.pi / 2]))[0] == pytest.approx(1.0)
        assert 0.0 <= sig.wd(1) < 1.0


class TestSequences:
    def test_exact(self):
        gen = SequenceGen.exact(0.5)
        dw = gen.dwells(2.2, np.random.default_rng(0))
        assert np.allclose(dw, 0.5)

    def test_uniform_respects_bounds(self):
        gen = SequenceGen.uniform_range(0.3, 0.5, seed=1)
        dw = gen.dwells(50.0, np.random.default_rng(1))
        assert np.all(dw >= 0.3) and np.all(dw <= 0.5)

    def test_min_plus_exp_respects_floor_and_cap(self):
        gen = SequenceGen.min_plus_exp(0.2, seed=2)
        dw = gen.dwells(100.0, np.random.default_rng(2))
        assert np.all(dw >= 0.2) and np.all(dw <= 2.0 + 1e-12)

    def test_for_spec(self):
        from dwellgain.model import DwellTimeSpec

        assert SequenceGen.for_spec(DwellTimeSpec.constant(0.3)).kind == "exact"
        assert SequenceGen.for_spec(DwellTimeSpec.minimum(0.3)).kind == "min_plus_exp"
        assert SequenceGen.for_spec(DwellTimeSpec.range(0.3, 0.5)).kind == "uniform_range"
        assert SequenceGen.for_spec(DwellTimeSpec.arbitrary()).kind == "uniform_range"


class TestEstimateGain:
    def test_validation(self, bench_lti):
        with pytest.raises(ValueError):
            estimate_gain(bench_lti, SequenceGen.exact(0.5), runs=0)
        with pytest.raises(ValueError):
            estimate_gain(bench_lti, SequenceGen.exact(0.5), norm="L2")

    def test_deterministic_given_seed(self, bench_lti):
        gen = SequenceGen.uniform_range(0.3, 0.5, seed=21)
        g1 = estimate_gain(bench_lti, gen, runs=5, horizon=10.0)
        g2 = estimate_gain(bench_lti, gen, runs=5, horizon=10.0)
        assert g1 == g2
