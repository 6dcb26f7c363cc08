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
    hybrid output), or with full=True a dict of the states, z_c, z_d, the
    pre- and post-jump states and the segments (t0, length, mode)."""
    rng = np.random.default_rng(gen.seed)
    step = min(1e-3, gen.shortest / 50.0) if step is None else step
    switched = isinstance(sys, SwitchedSystem)
    mode = int(rng.integers(sys.N)) if switched else None
    x, t0, k = np.asarray(x0, dtype=float), 0.0, 0
    states, zcs, zds, pre, post, sups, segments = [], [], [], [], [], [0.0], []
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
        segments.append((t0, seg, mode))
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
                "pre": np.array(pre), "post": np.array(post), "segments": segments}
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
def table_spy(monkeypatch):
    """The (mode, points) of every table `_mode_table` builds, in order."""
    seen = []
    mode_table = sim._mode_table

    def spy(plan, k, *rest):
        seen.append((plan.modes[plan.codes[k]], int(plan.ms[k])))
        return mode_table(plan, k, *rest)

    monkeypatch.setattr(sim, "_mode_table", spy)
    return seen


def segment_tables(traj):
    """(mode, m_k) of each segment of traj: the tables a time-varying input
    builds, one per segment over its own mesh."""
    cells = np.bincount(traj.jump_count) - 1
    firsts = np.cumsum(cells + 1) - cells - 1
    modes = [None] * len(cells) if traj.modes is None else traj.modes[firsts].tolist()
    return list(zip(modes, cells.tolist()))


def mode_tables(traj):
    """The tables a constant input builds: one per mode, in the order the
    modes first run, over the mode's longest segment."""
    longest = {}
    for md, m in segment_tables(traj):
        longest[md] = max(longest.get(md, 0), m)
    return list(longest.items())


def check_full(traj, ref, switched=False):
    """Every output of simulate against serial_simulate(..., full=True)."""
    for got, want in ((traj.states, ref["states"]), (traj.zc, ref["zc"]),
                      (traj.pre_jump_states, ref["pre"]), (traj.post_jump_states, ref["post"])):
        np.testing.assert_allclose(got, np.reshape(want, got.shape), rtol=1e-12, atol=0)
    if not switched and len(ref["zd"]):
        np.testing.assert_allclose(traj.zd, ref["zd"], rtol=1e-12, atol=0)


def oracle_referee(sys_, traj, segments, step, inputs, controller=None, clamp=None):
    """The half-step referee's value segment by segment along traj's states,
    each segment (t0, length, mode) on its own mesh: the largest gap between
    one step and two half steps of a cell, relative to 1 + |x| at its end.
    Jumps are not read."""
    worst = 0.0
    for k, (t0, seg, mode) in enumerate(segments):
        xs = traj.states[traj.jump_count == k].T
        m = xs.shape[1] - 1
        h = np.full(m, step)
        h[-1] = seg - (m - 1) * step  # the last cell ends at the segment's end
        cells = np.arange(m) * step
        grid = np.concatenate([np.append(cells, seg), cells + 0.5 * h, cells + 0.25 * h, cells + 0.75 * h])
        w = np.broadcast_to(inputs.wc(t0 + grid), grid.shape).astype(float)
        A, b, _, _ = sim._fields(sys_, controller, mode, clamp, grid, w, 0)
        mids = slice(m + 1, 2 * m + 1)
        (R1, s1), (R2, s2) = (sim._rk4_stage(A, b, slice(0, m), slice(2 * m + 1, 3 * m + 1), mids, 0.5 * h),
                              sim._rk4_stage(A, b, mids, slice(3 * m + 1, 4 * m + 1), slice(1, m + 1), 0.5 * h))
        x_two = np.einsum("ijm,jm->im", R2, np.einsum("ijm,jm->im", R1, xs[:, :-1]) + s1) + s2
        gap = np.max(np.abs(x_two - xs[:, 1:]), axis=0) / (1.0 + np.max(np.abs(xs[:, 1:]), axis=0))
        worst = max(worst, float(np.max(gap)))
    return worst


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("switched", [False, True])
    def test_x0_must_be_finite(self, bench_lti, bench_switched, monkeypatch, bad, switched):
        """A non-finite x0 is refused by name before any dwell is drawn: it
        used to be marched and blamed on the step (StepTooLarge)."""
        def no_draws(*args):
            raise AssertionError("dwells drawn")

        monkeypatch.setattr(SequenceGen, "dwells", no_draws)
        with pytest.raises(DimensionMismatch, match=r"^x0 must be finite, got \["):
            simulate(bench_switched if switched else bench_lti, SequenceGen.exact(0.5),
                     generate_inputs("const_unit"), x0=[bad, bad], horizon=3.0)

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
        """Runs of more points than a chunk, with a remainder that is not a
        multiple of _BLOCK, under a sine input, so that each segment has a
        table of its own, and systems of n = 1, 2, 3 one after another,
        march as the serial oracle does."""
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

    def test_time_varying_input_is_never_reused(self, bench_timer_growth, monkeypatch, table_spy):
        calls = []
        eval_mesh = PolyMatrix.eval_mesh
        monkeypatch.setattr(PolyMatrix, "eval_mesh", lambda *a, **kw: calls.append(1) or eval_mesh(*a, **kw))

        def run(gen, inputs):
            calls.clear()
            table_spy.clear()
            traj = simulate(bench_timer_growth, gen, inputs, x0=[0.2, 0.1], horizon=6.0, clamp=0.3)
            return traj, len(calls)

        gen, sine = SequenceGen.exact(0.35), generate_inputs("sine")
        _, one_segment = run(SequenceGen.exact(100.0), sine)  # one table and one last cell
        traj, _ = run(gen, sine)
        states, sup = serial_simulate(bench_timer_growth, gen, sine, [0.2, 0.1], 6.0, clamp=0.3)
        assert len(traj.jump_times) == 17
        # a table per segment on its own mesh, under the input along that segment
        assert table_spy == segment_tables(traj)
        assert traj.sup_hybrid() == pytest.approx(sup, rel=1e-12, abs=0)
        np.testing.assert_allclose(traj.states, states, rtol=1e-12, atol=0)

        # a constant input repeats the segments: one table over the longest
        # segment, whose 350 points serve the 17 full dwells and the
        # truncated last one of about 0.05, and one evaluation of the last
        # cells of all segments, as a single segment has
        const = generate_inputs("const_unit")
        traj, evals = run(gen, const)
        ref = serial_simulate(bench_timer_growth, gen, const, [0.2, 0.1], 6.0, clamp=0.3, full=True)
        assert table_spy == [(None, 350)] and evals == one_segment
        assert np.array_equal(np.bincount(traj.jump_count)[-2:], [351, 51])
        check_full(traj, ref)

    def test_switched_reuse_is_per_mode(self, bench_switched, table_spy):
        gen, const = SequenceGen.exact(0.3, seed=6), generate_inputs("const_unit")
        traj = simulate(bench_switched, gen, const, x0=[0.3, 0.1], horizon=5.0)
        ref = serial_simulate(bench_switched, gen, const, [0.3, 0.1], 5.0, full=True)
        assert len(set(traj.modes)) == 2
        # one table per mode, which the last 0.2 shares
        assert sorted(table_spy) == [(0, 300), (1, 300)] == sorted(mode_tables(traj))
        check_full(traj, ref, switched=True)
        assert np.array_equal(traj.pre_jump_states, traj.post_jump_states)


    @pytest.mark.parametrize("design", ["constant", "minimum", "range", "feedthrough"])
    @pytest.mark.parametrize("input_kind", ["const_unit", "sine"])
    def test_closed_loop_matches_serial_oracle(self, closed_loops, design, input_kind, table_spy):
        """K_c(tau) enters the mesh data and K_d(theta) every jump; under a
        constant input the segments share one table, whatever the dwell, and
        under a sine input each has its own."""
        plant, ctrl, gen = closed_loops[design]
        inputs = generate_inputs(input_kind)
        x0 = np.full(plant.n, 0.1)
        traj = simulate(plant, gen, inputs, x0=x0, horizon=3.0, controller=ctrl, clamp=ctrl.clamp)
        ref = serial_simulate(plant, gen, inputs, x0, 3.0, clamp=ctrl.clamp, controller=ctrl, full=True)
        assert table_spy == (mode_tables(traj) if input_kind == "const_unit" else segment_tables(traj))
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
    """A table longer than _CHUNK cells is built one chunk at a time; a chunk
    seam may fall anywhere in a segment, next to its last cell too."""

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

        if chunk == "jump":  # the first segment's table ends in a chunk of one cell, next to its last cell
            chunk = int(np.searchsorted(run().jump_count, 1)) - 3
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
        """A table ends at the longest segment it serves and a last cell at
        its segment's end, so nothing is evaluated past a segment's end:
        here X(tau) of the controller turns negative just after the dwell.
        The sine input builds a table per segment, the constant one a table
        for all."""
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
        value it gives segment by segment, on each segment's own mesh, also
        when the table is built in chunks."""
        sys_, T, const = bench_timer_stable, 2.0, generate_inputs("const_unit")

        def run():
            return simulate(sys_, SequenceGen.exact(T), const, x0=[1.0, 1.0], horizon=10.0, step=0.02,
                            check_step=True)

        if chunk == "jump":  # the table ends in a chunk of one cell, next to the last cell
            chunk = int(np.searchsorted(run().jump_count, 1)) - 3
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        traj = run()
        ref = serial_simulate(sys_, SequenceGen.exact(T), const, [1.0, 1.0], 10.0, step=0.02, full=True)
        worst = oracle_referee(sys_, traj, ref["segments"], 0.02, const)
        assert len(traj.jump_times) == 4
        assert worst > 1e-12  # truncation, not rounding, sets the value
        assert traj.meta["worst_local_truncation"] == pytest.approx(worst, rel=1e-12, abs=0)

    def test_halfstep_referee_walks_a_table_a_chunk_at_a_time(self, bench_lti, monkeypatch):
        """The referee builds the half-step maps of _CHUNK cells at a time: at
        chunks of 64, no RK4 batch of a run of about 1,000 cells spans more.
        With the table built at the default chunk and the referee walking
        chunks of 64, the states are the default run's and so is its value,
        bit for bit."""
        const, default_chunk = generate_inputs("const_unit"), sim._CHUNK

        def run():
            return simulate(bench_lti, SequenceGen.exact(25.0), const, x0=[0.1, 0.2], horizon=1.0, step=1e-3,
                            check_step=True)

        default = run()
        widths, rk4_stage, mode_table = [], sim._rk4_stage, sim._mode_table

        def spy(*args):
            R, s = rk4_stage(*args)
            widths.append(R.shape[-1])
            return R, s

        monkeypatch.setattr(sim, "_rk4_stage", spy)
        monkeypatch.setattr(sim, "_CHUNK", 64)
        chunked = run()
        assert len(chunked.times) > 1000 and len(chunked.jump_times) == 0
        assert max(widths) == 64 and chunked.meta["worst_local_truncation"] > 0

        def table_at_default_chunk(*args):
            sim._CHUNK = default_chunk
            table = mode_table(*args)
            sim._CHUNK = 64  # the referee runs after the tables
            return table

        monkeypatch.setattr(sim, "_mode_table", table_at_default_chunk)
        referee_chunked = run()
        assert np.array_equal(referee_chunked.states, default.states)
        assert referee_chunked.meta["worst_local_truncation"] == default.meta["worst_local_truncation"]

    @pytest.mark.parametrize("check_step", [False, True])
    def test_last_cells_evaluated_once_per_mode(self, bench_switched, check_step, monkeypatch):
        """The march asks for each mode's last-cell fields once, with the
        quarter points under check_step, and the referee reads those."""
        calls, last_cells = [], sim._Plan.last_cells

        def spy(plan, c, quarters):
            calls.append((c, quarters))
            return last_cells(plan, c, quarters)

        monkeypatch.setattr(sim._Plan, "last_cells", spy)
        traj = simulate(bench_switched, SequenceGen.min_plus_exp(0.1, seed=5), generate_inputs("const_unit"),
                        x0=[0.1, 0.1], horizon=2.0, check_step=check_step)
        assert calls == [(0, check_step), (1, check_step)]
        assert (traj.meta["worst_local_truncation"] > 0) == check_step

    @pytest.mark.parametrize("case", ["range", "minimum", "switched", "single segment", "closed", "sine"])
    def test_halfstep_referee_matches_per_segment(self, bench_lti, bench_timer_stable, bench_switched, closed_loops,
                                                  case, table_spy):
        """The referee builds each table's half-step maps once and applies
        them to the states of all the table's segments, padded to the
        longest: its value is the one segment by segment, where the segments
        differ in length, switch mode, are one, run in closed loop or each
        have a table of their own."""
        kw, inputs = {}, generate_inputs("sine" if case == "sine" else "const_unit")
        if case == "closed":
            sys_, ctrl, gen = closed_loops["range"]
            kw = {"controller": ctrl, "clamp": ctrl.clamp}
        else:
            sys_, gen = {
                "range": (bench_lti, SequenceGen.uniform_range(0.3, 0.6, seed=3)),
                "minimum": (bench_timer_stable, SequenceGen.min_plus_exp(0.3, seed=4)),
                "switched": (bench_switched, SequenceGen.min_plus_exp(0.1, seed=5)),
                "single segment": (bench_lti, SequenceGen.exact(25.0)),
                "sine": (bench_lti, SequenceGen.uniform_range(0.3, 0.6, seed=6)),
            }[case]
            kw = {"clamp": 0.3} if case == "minimum" else {}
        x0, step = np.full(sys_.n, 0.1), 0.01
        traj = simulate(sys_, gen, inputs, x0=x0, horizon=4.0, step=step, check_step=True, **kw)
        ref = serial_simulate(sys_, gen, inputs, x0, 4.0, step=step, full=True, **kw)
        assert table_spy == (segment_tables(traj) if case == "sine" else mode_tables(traj))
        assert (len(set(np.bincount(traj.jump_count))) > 2) == (case != "single segment")
        worst = oracle_referee(sys_, traj, ref["segments"], step, inputs, kw.get("controller"), kw.get("clamp"))
        assert worst > 1e-12
        assert traj.meta["worst_local_truncation"] == pytest.approx(worst, rel=1e-12, abs=0)


class TestSharedSegments:
    """A run under an input that declares its continuous part constant is
    marched from one table per mode, whatever its dwells; under any other
    input each segment has a table of its own.  The closed loop, switched
    and clamped cases are in TestSerialEquivalence."""

    def test_discrete_input_varies_per_jump(self, bench_lti, table_spy):
        """uniform_random keeps w_c = 1, so the segments share one table, and draws w_d per jump."""
        gen = SequenceGen.exact(0.25)
        inputs = combine_inputs(generate_inputs("const_unit"), generate_inputs("uniform_random", seed=8))
        traj = simulate(bench_lti, gen, inputs, x0=[0.1, 0.2], horizon=4.0)
        assert len(table_spy) == 1
        ref = serial_simulate(bench_lti, gen, inputs, [0.1, 0.2], 4.0, full=True)
        assert len(np.unique(ref["zd"])) > 10
        check_full(traj, ref)

    @pytest.mark.parametrize("case", ["timer_stable", "no_zc"])
    def test_shared_tables_match_per_segment_tables(self, bench_timer_stable, case, table_spy):
        """One table per mode and one per segment agree, the referee too, also
        for a system without z_c: const_unit declares w_c = 1 and shares one
        table, and the same input with no declared value has one per segment,
        although it is constant."""
        sys_ = bench_timer_stable if case == "timer_stable" else TestExport._no_zc_system()
        gen, const = SequenceGen.exact(1.7), generate_inputs("const_unit")

        def run(inputs):
            return simulate(sys_, gen, inputs, x0=[1.0, 1.0], horizon=20.0, check_step=True)

        shared = run(const)
        assert table_spy == [(None, 1700)]
        table_spy.clear()
        own = run(replace(const, wc_value=None))
        assert table_spy == segment_tables(own) and len(table_spy) == 12
        assert shared.zc.shape == own.zc.shape and (shared.zc.size == 0) == (case == "no_zc")
        for part in ("states", "zc", "zd", "pre_jump_states", "post_jump_states"):
            np.testing.assert_allclose(getattr(shared, part), getattr(own, part), rtol=1e-12, atol=0)
        assert shared.meta["worst_local_truncation"] == pytest.approx(own.meta["worst_local_truncation"],
                                                                        rel=1e-9)

    def test_single_segment(self, bench_lti, table_spy):
        """T >= horizon is one segment, which has no jump to scan over, and
        T = 2.4 over a horizon of 3 has a table of most of the run's points,
        which its last 0.6 shares."""
        const = generate_inputs("const_unit")
        for T, jumps, points in ((5.0, 0, 3000), (2.4, 1, 2400)):
            table_spy.clear()
            gen = SequenceGen.exact(T)
            traj = simulate(bench_lti, gen, const, x0=[0.1, 0.2], horizon=3.0)
            assert table_spy == [(None, points)]
            assert len(traj.jump_times) == jumps
            check_full(traj, serial_simulate(bench_lti, gen, const, [0.1, 0.2], 3.0, full=True))

    def test_shape_longer_than_a_chunk(self, bench_lti, table_spy, monkeypatch):
        """A segment of more cells than a chunk: its table is built one chunk
        at a time, each chunk from the previous one's last column."""
        monkeypatch.setattr(sim, "_CHUNK", 64)
        gen, const = SequenceGen.exact(0.25), generate_inputs("const_unit")
        traj = simulate(bench_lti, gen, const, x0=[0.1, 0.2], horizon=2.0, step=0.002)
        assert table_spy == [(None, 125)]
        check_full(traj, serial_simulate(bench_lti, gen, const, [0.1, 0.2], 2.0, step=0.002, full=True))

    @pytest.mark.parametrize("kind", ["range", "minimum"])
    @pytest.mark.parametrize("case", ["impulsive", "switched", "closed"])
    def test_random_dwell_shares_one_table_per_mode(self, bench_lti, bench_switched, closed_loops, case, kind,
                                                    table_spy):
        """Every segment's mesh starts at tau = 0 in whole steps, so under a
        constant input a random dwell builds one table per mode, over the
        mode's longest segment; a sine input builds one per segment."""
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
            table_spy.clear()
            traj = simulate(sys_, gen, inputs, x0=x0, horizon=4.0, **kw)
            assert len(set(np.diff(traj.jump_times))) > 5  # no two dwells alike
            assert table_spy == (segment_tables(traj) if inputs.label == "sine" else mode_tables(traj))
            ref = serial_simulate(sys_, gen, inputs, x0, 4.0, full=True, **kw)
            check_full(traj, ref, switched=case == "switched")

    def test_tagged_impulsive_run_marches_one_flow(self, bench_switched, table_spy):
        """An impulsive system has one flow whatever the tags of its jump
        maps: the lift of a two-mode system builds one table, not one per
        tag mode, and its run is the switched system's to rounding: the
        block of its state of the active mode is the switched state."""
        lifted, gen, const = lift_switched(bench_switched), SequenceGen.exact(0.5), generate_inputs("const_unit")
        n = bench_switched.n
        traj = simulate(lifted, gen, const, x0=[0.1] * n + [0.0] * n, horizon=4.0, start_mode=0)
        assert table_spy == [(None, 500)]
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


class TestGainRunWork:
    """A gain run does no per-point work whose result it never reads: a
    declared constant input is never called, and a table whose data take one
    value on its mesh is built from one RK4 map and one block, bit for bit
    the per-cell build."""

    @pytest.mark.parametrize("check_step", [False, True])
    @pytest.mark.parametrize("combined", [False, True])
    def test_declared_constant_is_never_probed(self, bench_timer_growth, check_step, combined):
        """const_unit's wc is never called, alone or through combine_inputs,
        and its run, from one table per mode, is bit for bit the run of the
        same lambdas with no declared value, which has one table per segment."""
        const = generate_inputs("const_unit")
        if combined:
            const = combine_inputs(const, generate_inputs("uniform_random", seed=8))

        def probe(t):
            raise AssertionError("a declared constant input was called")

        declared, undeclared = replace(const, wc=probe), replace(const, wc_value=None)
        assert declared.wc_value == 1.0
        gen = SequenceGen.min_plus_exp(0.3, seed=4)
        for sup in (False, True):  # a gain run has no referee: it fills no states
            a, b = (sim._run(bench_timer_growth, gen, inputs, [0.2, 0.1], 6.0, None, None, 0.3, check_step and not sup,
                             None, None, sup) for inputs in (declared, undeclared))
            if sup:
                assert a == b > 0
                continue
            assert a.meta["worst_local_truncation"] == b.meta["worst_local_truncation"]
            for part in ("times", "states", "zc", "zd", "pre_jump_states", "post_jump_states"):
                assert np.array_equal(getattr(a, part), getattr(b, part))

    def test_gain_run_refuses_the_referee(self, bench_timer_growth, monkeypatch):
        """A gain run fills z_c alone, so the referee would read no states:
        check_step with sup is refused before anything is marched."""
        monkeypatch.setattr(sim, "_march_tables", lambda *a: pytest.fail("the run was marched"))
        with pytest.raises(ValueError, match="check_step"):
            sim._run(bench_timer_growth, SequenceGen.min_plus_exp(0.3, seed=4), generate_inputs("const_unit"),
                     [0.2, 0.1], 6.0, None, None, 0.3, True, None, None, True)

    @pytest.mark.parametrize("m", [1, 5, 31, 32, 33, 100])
    def test_flow_of_constant_data_is_the_per_cell_flow(self, bench_lti, m, monkeypatch):
        """Phi across m cells of lti_jump_bench, as the analyses and cert read
        it without inputs, also for fewer cells than a block."""
        taus = np.linspace(0.0, 0.05 * m, m + 1)
        one = sim._flow_tables(bench_lti, None, None, None, taus)[0]
        monkeypatch.setattr(sim, "_time_invariant", lambda A, b: False)
        assert np.array_equal(one, sim._flow_tables(bench_lti, None, None, None, taus)[0])

    @pytest.mark.parametrize("case", ["lti", "switched mode", "shorter than a block", "clamped"])
    def test_time_invariant_table_is_the_per_cell_table(self, bench_lti, bench_switched, bench_timer_stable, case,
                                                         monkeypatch):
        """A run whose time-invariant tables are built from one block equals
        the run with every table built cell by cell, bit for bit, referee and
        gain included.  Past the clamp of a minimum dwell, timer_stable_bench's
        data stop changing, so its chunks there are time-invariant."""
        sys_, gen, kw = {
            "lti": (bench_lti, SequenceGen.min_plus_exp(0.3, seed=2), {}),
            "switched mode": (bench_switched, SequenceGen.exact(0.3, seed=6), {"start_mode": 0}),
            "shorter than a block": (bench_lti, SequenceGen.exact(0.02), {"step": 1e-3}),
            "clamped": (bench_timer_stable, SequenceGen.min_plus_exp(1.6, seed=3),
                        {"step": 0.02, "clamp": 1.6, "horizon": 30.0}),
        }[case]
        if case == "clamped":
            monkeypatch.setattr(sim, "_CHUNK", 64)
        seen, time_invariant = [], sim._time_invariant
        monkeypatch.setattr(sim, "_time_invariant", lambda A, b: seen.append(time_invariant(A, b)) or seen[-1])

        def run(sup):
            return sim._run(sys_, gen, generate_inputs("const_unit"), np.full(sys_.n, 0.1), kw.get("horizon", 5.0),
                            kw.get("step"), None, kw.get("clamp"), not sup, None, kw.get("start_mode"), sup)

        one, sup_one = run(False), run(True)
        assert True in seen and (False in seen) == (case == "clamped")
        monkeypatch.setattr(sim, "_time_invariant", lambda A, b: False)
        cells, sup_cells = run(False), run(True)
        assert sup_one == sup_cells == one.sup_hybrid()
        assert one.meta["worst_local_truncation"] == cells.meta["worst_local_truncation"] > 0
        for part in ("states", "zc", "zd", "pre_jump_states", "post_jump_states"):
            assert np.array_equal(getattr(one, part), getattr(cells, part))


class TestErrorClasses:
    """What the plan-then-march order must keep raising; a state overflow is
    pinned by TestSimulate.test_state_overflow_raises, whose overflow lands
    late in the run."""

    def test_no_outgoing_jump_map(self):
        tagged = ImpulsiveSystem.from_arrays(
            A=[[-1.0]], Ec=[[1.0]], Cc=[[1.0]], Fc=[[0.0]], J=[[1.0]], Ed=[[0.0]], Cd=[[0.0]], Fd=[[0.0]],
            extra_jumps=[{"J": [[0.5]], "Ed": [[0.0]], "Cd": [[0.0]], "Fd": [[0.0]], "tag": (0, 1)}],
        )
        with pytest.raises(DimensionMismatch, match="no jump map leaves mode 1"):
            simulate(tagged, SequenceGen.exact(0.5), generate_inputs("const_unit"), x0=[1.0],
                     horizon=3.0, start_mode=0)

    @pytest.mark.parametrize("start_mode", [-1, 5])
    def test_start_mode_out_of_range(self, bench_switched, start_mode):
        """A switched system's start mode is one of its N = 2 modes: -1 would
        march the last mode under the label -1, and 5 has no data."""
        with pytest.raises(DimensionMismatch, match=rf"start_mode must be in \[0, 2\), got {start_mode}"):
            simulate(bench_switched, SequenceGen.exact(0.5), generate_inputs("const_unit"), x0=[0.1, 0.1],
                     horizon=2.0, start_mode=start_mode)

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

    @pytest.mark.parametrize("kind, args, name", [
        ("exact", (0.0,), "T"), ("exact", (-1.0,), "T"), ("exact", (np.inf,), "T"), ("exact", (np.nan,), "T"),
        ("min_plus_exp", (0.0,), "T"), ("min_plus_exp", (-0.5,), "T"),
        ("uniform_range", (0.0, 0.0), "Tmin"), ("uniform_range", (-1.0, 1.0), "Tmin"),
        ("uniform_range", (0.5, 0.3), "Tmax"), ("uniform_range", (0.3, np.inf), "Tmax"),
    ])
    def test_refuses_a_dwell_it_cannot_draw(self, kind, args, name):
        """Refused at construction: dwells() of a dwell of zero or less would
        never reach the horizon, and min_plus_exp(0) would divide by zero."""
        with pytest.raises(ValueError, match=f"^{kind} needs .* got {name}="):
            getattr(SequenceGen, kind)(*args)

    def test_refuses_an_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown sequence kind 'poisson'$"):
            SequenceGen("poisson", T=1.0)

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

    @pytest.mark.parametrize("jobs", [0, -5])
    def test_jobs_must_be_positive(self, bench_lti, jobs, monkeypatch):
        """Refused before any run, as runs < 1 is."""
        monkeypatch.setattr(sim, "_gain_run", None)
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got runs=3, jobs={jobs}"):
            estimate_gain(bench_lti, SequenceGen.uniform_range(0.3, 0.5), runs=3, jobs=jobs)

    @pytest.mark.parametrize("lift", [True, False])
    def test_exact_dwell_runs_every_draw(self, bench_switched, lift):
        """An exact dwell collapses to one run only where a run draws
        nothing.  The lift of a two-mode system draws each jump map, the
        switched system its start mode: in both, a later run reaches a
        larger sup than run 0."""
        sys_ = lift_switched(bench_switched) if lift else bench_switched
        gen = SequenceGen.exact(0.5, seed=0 if lift else 1)
        sups = self._sups(sys_, gen, generate_inputs("const_unit"), 20, 10.0)
        assert max(sups) > sups[0]
        assert estimate_gain(sys_, gen, runs=20, horizon=10.0) == max(sups)
        assert estimate_gain(sys_, gen, runs=1, horizon=10.0) == sups[0]

    def test_deterministic_given_seed(self, bench_lti):
        gen = SequenceGen.uniform_range(0.3, 0.5, seed=21)
        g1 = estimate_gain(bench_lti, gen, runs=5, horizon=10.0)
        g2 = estimate_gain(bench_lti, gen, runs=5, horizon=10.0)
        assert g1 == g2

    @staticmethod
    def _sups(sys_, gen, inputs, runs, horizon, **kw):
        """simulate's sup_hybrid of each run of estimate_gain, under the rng of that run."""
        return [simulate(sys_, gen, inputs, np.zeros(sys_.n), horizon, rng=np.random.default_rng((gen.seed, r)),
                         **kw).sup_hybrid() for r in range(runs)]

    @pytest.mark.parametrize("case", ["constant", "range", "minimum", "switched", "closed range", "closed minimum",
                                      "no z_c", "sine", "single segment"])
    def test_is_the_largest_simulated_sup(self, bench_lti, bench_timer_stable, bench_switched, closed_loops,
                                          table_spy, monkeypatch, case):
        """estimate_gain equals the largest sup_hybrid of simulate's runs, bit
        for bit, from tables per mode or per segment.  A gain run builds no
        Trajectory; it fills z_c alone and takes z_d from the segment ends."""
        kw, runs = {}, 3
        if case.startswith("closed"):
            sys_, ctrl, gen = closed_loops[case.split()[1]]
            kw = {"controller": ctrl, "clamp": ctrl.clamp}
        else:
            sys_, gen = {
                "constant": (bench_lti, SequenceGen.exact(0.3)),
                "range": (bench_lti, SequenceGen.uniform_range(0.3, 0.45, seed=3)),
                "minimum": (bench_timer_stable, SequenceGen.min_plus_exp(0.7, seed=4)),
                "switched": (bench_switched, SequenceGen.min_plus_exp(0.1, seed=5)),
                "no z_c": (TestExport._no_zc_system(), SequenceGen.uniform_range(0.3, 0.45, seed=8)),  # z_d decides
                "sine": (bench_lti, SequenceGen.uniform_range(0.3, 0.45, seed=6)),
                "single segment": (bench_lti, SequenceGen.exact(25.0)),
            }[case]
            kw = {"clamp": 0.7} if case == "minimum" else {}
        inputs = generate_inputs("const_unit")
        if case == "sine":  # the gain runs' input, so that each of their segments has a table of its own
            inputs = generate_inputs("sine")
            monkeypatch.setattr(sim, "generate_inputs", lambda kind: inputs)
        runs = 1 if gen.kind == "exact" else runs
        trajs = [simulate(sys_, gen, inputs, np.zeros(sys_.n), 20.0, rng=np.random.default_rng((gen.seed, r)), **kw)
                 for r in range(runs)]
        tables = [segment_tables(t) if case == "sine" else mode_tables(t) for t in trajs]
        table_spy.clear()
        monkeypatch.setattr(sim, "Trajectory", None)  # a gain run that builds one fails
        assert estimate_gain(sys_, gen, runs=3, horizon=20.0, **kw) == max(t.sup_hybrid() for t in trajs)
        assert table_spy == sum(tables, [])

    def test_z_d_is_read_at_the_jumps(self, table_spy):
        """A gain run reads z_d off the pre-jump states, the segment ends but
        the last.  Every segment starts at 0 here, so z_d at jump k grows
        with the dwell before it; this draw's first dwell is its longest, so
        the first z_d is the sup, above every later one and the output the
        horizon's end would give."""
        reset = ImpulsiveSystem.from_arrays(A=[[-1.0]], Ec=[[1.0]], Cc=np.zeros((0, 1)), Fc=np.zeros((0, 1)),
                                            J=[[0.0]], Ed=[[0.0]], Cd=[[1.0]], Fd=[[0.0]])
        gen = SequenceGen.uniform_range(0.3, 0.6, seed=10)
        ref = simulate(reset, gen, generate_inputs("const_unit"), [0.0], 3.0, rng=np.random.default_rng((10, 0)))
        zd = ref.zd[:, 0]
        assert zd[0] > max(zd[1:].max(), ref.states[-1, 0])
        assert estimate_gain(reset, gen, runs=1, horizon=3.0) == zd[0]
        assert table_spy == mode_tables(ref) * 2

    def test_max_sup_takes_run_0_from_the_caller(self, bench_lti):
        """sup0 stands in for run 0, and runs 1.. are marched as estimate_gain marches them."""
        gen = SequenceGen.uniform_range(0.3, 0.45, seed=7)
        sups = self._sups(bench_lti, gen, generate_inputs("const_unit"), 4, 10.0)
        assert len(set(sups)) == 4

        def max_sup(sup0):
            return sim._max_sup(bench_lti, gen, 4, 10.0, "LinfXlinf", None, None, None, 1, sup0=sup0)

        assert max_sup(sups[0]) == max(sups)
        assert max_sup(0.0) == max(sups[1:])
        assert max_sup(1e9) == 1e9

    @pytest.mark.parametrize("q", [1, 0])
    def test_state_overflow_raises(self, q):
        """The tables march of a gain run fills no states, and still raises on
        their overflow, also where no z_c would show it."""
        blowup = ImpulsiveSystem.from_arrays(
            A=[[50.0]], Ec=[[1.0]], Cc=np.ones((q, 1)), Fc=np.zeros((q, 1)),
            J=[[1.0]], Ed=[[0.0]], Cd=[[0.0]], Fd=[[0.0]],
        )
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StepTooLarge):
            estimate_gain(blowup, SequenceGen.exact(1.0), runs=1, horizon=30.0)
