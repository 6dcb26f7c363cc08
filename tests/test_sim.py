import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwellgain import sim
from dwellgain.errors import DimensionMismatch, StepTooLarge
from dwellgain.model import ImpulsiveSystem, PolyMatrix, SwitchedSystem
from dwellgain.sim import (
    InputSignal,
    SequenceGen,
    combine_inputs,
    estimate_gain,
    generate_inputs,
    simulate,
)


def serial_march(R, s, x0):
    """Reference for the prefix scan: x_{i+1} = R[i] x_i + s[i], one cell at a time."""
    xs = np.empty((len(R) + 1,) + x0.shape)
    xs[0] = x0
    for i in range(len(R)):
        xs[i + 1] = R[i] @ xs[i] + (s[i] if xs[i].ndim == 1 else s[i][:, None])
    return xs


def serial_simulate(sys, gen, inputs, x0, horizon, step=None, clamp=None):
    """Reference simulation without a controller: every segment's maps are
    rebuilt and marched cell by cell, nothing is reused.  Impulsive systems
    need a single jump map.  Returns (states, sup of the hybrid output)."""
    rng = np.random.default_rng(gen.seed)
    step = min(1e-3, gen.shortest / 50.0) if step is None else step
    switched = isinstance(sys, SwitchedSystem)
    mode = int(rng.integers(sys.N)) if switched else None
    x, t0, k = np.asarray(x0, dtype=float), 0.0, 0
    states, sups = [], [0.0]
    for dwell_len in gen.dwells(horizon, rng):
        seg = min(dwell_len, horizon - t0)
        last = t0 + dwell_len >= horizon - 1e-12
        m = max(1, int(np.ceil(seg / step)))
        if switched:
            A, E, C, F = (sys.modes[mode][key] for key in "AECF")
        else:
            A, E, C, F = sys.A, sys.Ec, sys.Cc, sys.Fc

        def w(ts, t0=t0):
            return np.broadcast_to(inputs.wc(t0 + ts), ts.shape).astype(float)

        taus, R, s = sim._rk4_maps(
            lambda ts: A.eval_mesh(ts, clamp),
            lambda ts: E.eval_mesh(ts, clamp).sum(axis=2) * w(ts)[:, None],
            seg / m,
            m,
        )
        xs = serial_march(R, s, x)
        zc = np.einsum("mij,mj->mi", C.eval_mesh(taus, clamp), xs)
        zc += F.eval_mesh(taus, clamp).sum(axis=2) * w(taus)[:, None]
        states.append(xs)
        sups.append(np.max(np.abs(zc)))
        t0 += seg
        x = xs[-1]
        if last or t0 >= horizon - 1e-12:
            break
        k += 1
        if switched:
            j = int(rng.integers(sys.N - 1))
            mode = j if j < mode else j + 1
            continue
        jm, wd = sys.jump, inputs.wd(k)
        sups.append(np.max(np.abs(jm.Cd @ x + jm.Fd @ (wd * np.ones(jm.Fd.shape[1])))))
        x = jm.J @ x + jm.Ed @ (wd * np.ones(jm.Ed.shape[1]))
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
    @pytest.mark.parametrize("m", [1, 31, 32, 33, 700])
    def test_scan_matches_serial_march(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        R = np.eye(n) + 0.01 * rng.uniform(0.0, 1.0, size=(m, n, n))
        s = 0.01 * rng.uniform(0.0, 1.0, size=(m, n))
        P, q = sim._block_prefix(R, s)
        x0 = rng.uniform(0.0, 1.0, size=n)
        np.testing.assert_allclose(sim._scan(P, q, x0, m), serial_march(R, s, x0), rtol=1e-12, atol=0)
        X0 = rng.uniform(0.0, 1.0, size=(n, n + 1))
        np.testing.assert_allclose(sim._scan(P, q, X0, m), serial_march(R, s, X0), rtol=1e-12, atol=0)
        np.testing.assert_allclose(sim._scan(P, None, X0, m), serial_march(R, 0.0 * s, X0),
                                   rtol=1e-12, atol=0)

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

    def test_time_varying_input_is_never_reused(self, bench_timer_growth, monkeypatch):
        built = []
        flow = sim._flow
        monkeypatch.setattr(sim, "_flow", lambda *a: built.append(1) or flow(*a))
        gen, sine = SequenceGen.exact(0.35), generate_inputs("sine")
        traj = simulate(bench_timer_growth, gen, sine, x0=[0.2, 0.1], horizon=6.0, clamp=0.3)
        states, sup = serial_simulate(bench_timer_growth, gen, sine, [0.2, 0.1], 6.0, clamp=0.3)
        assert len(built) == len(traj.jump_times) + 1
        assert traj.sup_hybrid() == pytest.approx(sup, rel=1e-12, abs=0)
        np.testing.assert_allclose(traj.states, states, rtol=1e-12, atol=0)

        built.clear()
        const = generate_inputs("const_unit")
        traj = simulate(bench_timer_growth, gen, const, x0=[0.2, 0.1], horizon=6.0, clamp=0.3)
        states, sup = serial_simulate(bench_timer_growth, gen, const, [0.2, 0.1], 6.0, clamp=0.3)
        assert len(built) == 2  # the full dwell once, then the clipped last segment
        assert traj.sup_hybrid() == pytest.approx(sup, rel=1e-12, abs=0)
        np.testing.assert_allclose(traj.states, states, rtol=1e-12, atol=0)

    def test_switched_reuse_is_per_mode(self, bench_switched):
        gen, const = SequenceGen.exact(0.3, seed=6), generate_inputs("const_unit")
        traj = simulate(bench_switched, gen, const, x0=[0.3, 0.1], horizon=5.0)
        states, sup = serial_simulate(bench_switched, gen, const, [0.3, 0.1], 5.0)
        assert len(set(traj.modes)) == 2
        assert traj.sup_hybrid() == pytest.approx(sup, rel=1e-12, abs=0)
        np.testing.assert_allclose(traj.states, states, rtol=1e-12, atol=0)


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
