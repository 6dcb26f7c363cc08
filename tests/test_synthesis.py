import re

import numpy as np
import pytest

from conftest import assert_matches_three_paths, reference_synthesize_switched
from dwellgain.analysis import _Program
from dwellgain.benchmarks import two_mode_switched_bench
from dwellgain.errors import DimensionMismatch, DwellgainError, IllPosed, Infeasible
from dwellgain.lp import _assemble
from dwellgain.model import DwellTimeSpec, ImpulsiveSystem, SwitchedSystem
from dwellgain.poly import Poly
from dwellgain.sim import SequenceGen, InputSignal, estimate_gain, generate_inputs, simulate
from dwellgain.synthesis import (
    ControllerRealization,
    certificate_from,
    closed_loop,
    realize_gain,
    synthesize,
    synthesize_switched,
)
from dwellgain.cert import verify


@pytest.fixture(scope="module")
def ctrl_constant_01(bench_chain_plant):
    return synthesize(bench_chain_plant, DwellTimeSpec.constant(0.1), degree=2)


@pytest.fixture(scope="module")
def ctrl_range(bench_chain_plant):
    return synthesize(bench_chain_plant, DwellTimeSpec.range(0.1, 0.3), degree=2)


@pytest.fixture(scope="module")
def ctrl_minimum(bench_pair_plant):
    return synthesize(bench_pair_plant, DwellTimeSpec.minimum(0.2), degree=2)


class TestReferenceDesigns:
    def test_constant_01(self, ctrl_constant_01):
        assert ctrl_constant_01.gamma <= 1.10 * 0.5095
        assert ctrl_constant_01.kd() == pytest.approx(np.array([[-1.0, 0.0]]), abs=0.05)

    def test_constant_03(self, bench_chain_plant):
        ctrl = synthesize(bench_chain_plant, DwellTimeSpec.constant(0.3), degree=2)
        assert ctrl.gamma <= 1.10 * 0.69199
        assert ctrl.kd() == pytest.approx(np.array([[-1.0, 0.0]]), abs=0.05)

    def test_range_both_variants(self, bench_chain_plant, ctrl_range):
        assert ctrl_range.gamma <= 1.10 * 0.69199
        fixed = synthesize(bench_chain_plant, DwellTimeSpec.range(0.1, 0.3), degree=2, fixed_kd=True)
        assert fixed.gamma <= 1.10 * 0.69199
        assert fixed.kind == "RangeDT_FixedKd"
        assert fixed.M is not None
        # constant discrete gain: same matrix at every theta
        assert fixed.kd(0.1) == pytest.approx(fixed.kd(0.3))

    def test_minimum_second_plant(self, ctrl_minimum):
        assert ctrl_minimum.gamma <= 1.10 * 0.84401
        assert ctrl_minimum.kd() == pytest.approx(np.array([[0.0, -0.8037]]), abs=0.05)


class TestGainRecovery:
    def test_identity_denominator_returns_numerator(self):
        A = np.array([[-1.0, 0.5], [0.2, -2.0]])
        ctrl = ControllerRealization(
            kind="ConstantDT",
            dwell=DwellTimeSpec.constant(1.0),
            gamma=1.0,
            degree=0,
            margin=0.0,
            X=[Poly.const(1.0), Poly.const(1.0)],
            Uc=[[Poly.const(A[0, 0]), Poly.const(A[0, 1])],
                [Poly.const(A[1, 0]), Poly.const(A[1, 1])]],
            Ud=None,
        )
        for tau in (0.0, 0.4, 1.0):
            assert realize_gain(ctrl, tau) == pytest.approx(A)

    def test_printed_rational_gain_at_zero(self):
        # reference rational gains: entrywise ratio of constant terms at tau = 0
        ctrl = ControllerRealization(
            kind="RangeDT",
            dwell=DwellTimeSpec.range(0.1, 0.3),
            gamma=0.69199,
            degree=2,
            margin=1e-6,
            X=[Poly((1.0223, 0.78716, 0.39358)), Poly((0.3593, 0.6593, 0.38782))],
            Uc=[[Poly((-1.4349, -0.6155, 0.29095)), Poly((0.11222, -0.34431, -0.45596))]],
            Ud=[[Poly((-1.0153, -0.80458, -0.41365)), Poly((0.008416, -0.02624, -0.006043))]],
        )
        K0 = realize_gain(ctrl, 0.0)
        assert K0 == pytest.approx(np.array([[-1.4349 / 1.0223, 0.11222 / 0.3593]]), abs=1e-12)
        assert K0 == pytest.approx(np.array([[-1.4036, 0.3123]]), abs=1e-3)

    def test_minimum_clamps_timer(self, ctrl_minimum):
        assert realize_gain(ctrl_minimum, 5.0) == pytest.approx(realize_gain(ctrl_minimum, 0.2))

    def test_ill_posed_denominator(self):
        ctrl = ControllerRealization(
            kind="ConstantDT",
            dwell=DwellTimeSpec.constant(1.0),
            gamma=1.0,
            degree=1,
            margin=0.0,
            X=[Poly((0.5, -1.0))],  # crosses zero at tau = 0.5
            Uc=[[Poly.const(1.0)]],
            Ud=None,
        )
        with pytest.raises(IllPosed):
            realize_gain(ctrl, 0.9)


class TestCertificateTransfer:
    def test_verify_closed_loop(self, bench_chain_plant, bench_pair_plant,
                                ctrl_constant_01, ctrl_range, ctrl_minimum):
        pairs = [
            (bench_chain_plant, ctrl_constant_01),
            (bench_chain_plant, ctrl_range),
            (bench_pair_plant, ctrl_minimum),
        ]
        for sys, ctrl in pairs:
            rep = verify(certificate_from(ctrl), closed_loop(sys, ctrl), grid=800)
            assert rep.passed, rep.table()

    def test_closed_loop_positivity(self, bench_chain_plant, ctrl_constant_01):
        rng = np.random.default_rng(8)
        for seed in range(10):
            x0 = rng.uniform(0.0, 2.0, size=2)
            traj = simulate(
                bench_chain_plant,
                SequenceGen.exact(0.1, seed=seed),
                generate_inputs("const_unit"),
                x0=x0,
                horizon=8.0,
                controller=ctrl_constant_01,
            )
            assert traj.min_state() >= -1e-9

    def test_empirical_soundness(self, bench_chain_plant, bench_pair_plant,
                                 ctrl_constant_01, ctrl_range, ctrl_minimum):
        cases = [
            (bench_chain_plant, ctrl_constant_01, SequenceGen.exact(0.1, seed=3), None),
            (bench_chain_plant, ctrl_range, SequenceGen.uniform_range(0.1, 0.3, seed=3), None),
            (bench_pair_plant, ctrl_minimum, SequenceGen.min_plus_exp(0.2, seed=3), 0.2),
        ]
        for sys, ctrl, gen, clamp in cases:
            emp = estimate_gain(sys, gen, runs=25, horizon=20.0, controller=ctrl, clamp=clamp)
            assert emp <= ctrl.gamma + 1e-6

    def test_decay_with_gated_disturbances(self, bench_chain_plant, bench_pair_plant,
                                           ctrl_range, ctrl_minimum):
        """x0 = (4, 2), sine/uniform inputs shut off after t = 10: the closed
        loop must contract to 1% of the initial sup-norm by t = 20."""
        for sys, ctrl, gen, clamp in (
            (bench_chain_plant, ctrl_range, SequenceGen.uniform_range(0.1, 0.3, seed=6), None),
            (bench_pair_plant, ctrl_minimum, SequenceGen.min_plus_exp(0.2, seed=6), 0.2),
        ):
            wd = generate_inputs("uniform_random", seed=17)

            def wc_gated(t):
                t = np.asarray(t, dtype=float)
                return np.where(t <= 10.0, 0.5 * (1.0 + np.sin(t)), 0.0)

            jump_clock = {"t": 0.0}
            inputs = InputSignal(wc_gated, lambda k: wd.wd(k), "gated")
            traj = simulate(sys, gen, inputs, x0=[4.0, 2.0], horizon=20.0,
                            controller=ctrl, clamp=clamp)
            # discrete disturbances keep exciting at jumps; gate via the trajectory:
            # rerun with wd zeroed after t=10 using the recorded jump times
            times = traj.jump_times

            def wd_gated(k):
                return wd.wd(k) if k - 1 < len(times) and times[k - 1] <= 10.0 else 0.0

            traj = simulate(sys, gen, InputSignal(wc_gated, wd_gated, "gated2"),
                            x0=[4.0, 2.0], horizon=20.0, controller=ctrl, clamp=clamp)
            assert np.max(np.abs(traj.states[-1])) <= 1e-2 * 4.0


class TestSwitchedSynthesis:
    @staticmethod
    def _stabilizable_two_mode():
        return SwitchedSystem.from_arrays(
            [
                {
                    "A": [[1.0, 1.0], [0.0, -2.0]],
                    "B": [[1.0], [0.0]],
                    "E": [[0.2], [0.3]],
                    "C": [[0.0, 1.0]],
                    "F": [[0.1]],
                },
                {
                    "A": [[-2.0, 0.0], [1.0, 1.0]],
                    "B": [[0.0], [1.0]],
                    "E": [[0.3], [0.2]],
                    "C": [[1.0, 0.0]],
                    "F": [[0.1]],
                },
            ]
        )

    def test_feasible_design_stabilizes(self):
        sw = self._stabilizable_two_mode()
        ctrl = synthesize_switched(sw, 0.3, degree=2)
        assert ctrl.per_mode and ctrl.gamma > 0
        rep = verify(certificate_from(ctrl), closed_loop(sw, ctrl), grid=600)
        assert rep.passed, rep.table()
        assert_matches_three_paths(certificate_from(ctrl), closed_loop(sw, ctrl))
        traj = simulate(
            sw,
            SequenceGen.min_plus_exp(0.3, seed=1),
            generate_inputs("const_unit"),
            x0=[2.0, 1.0],
            horizon=25.0,
            controller=ctrl,
            clamp=0.3,
        )
        assert np.isfinite(traj.states).all()
        assert np.max(np.abs(traj.states[-1])) <= 2.0  # bounded under unit inputs
        emp = estimate_gain(sw, SequenceGen.min_plus_exp(0.3, seed=2), runs=20,
                            horizon=20.0, controller=ctrl, clamp=0.3)
        assert emp <= ctrl.gamma + 1e-6

    def test_single_mode_rejected(self):
        sw = SwitchedSystem.from_arrays(
            [{"A": [[-1.0]], "B": [[1.0]], "E": [[0.1]], "C": [[1.0]], "F": [[0.0]]}]
        )
        with pytest.raises(DimensionMismatch):
            synthesize_switched(sw, 0.2)

    def test_uncontrollable_unstable_row_infeasible(self):
        # B row zero where A has a positive diagonal: the stationary row can
        # never be satisfied
        sw = SwitchedSystem.from_arrays(
            [
                {
                    "A": [[1.0, 1.0], [0.0, 1.0]],
                    "B": [[1.0], [0.0]],
                    "E": [[0.2], [0.3]],
                    "C": [[0.0, 1.0]],
                    "F": [[0.1]],
                },
            ]
            * 2
        )
        with pytest.raises(Infeasible):
            synthesize_switched(sw, 0.2, degree=2)


class TestSwitchedModeOracle:
    """synthesize_switched builds its per-mode rows with synthesis._Mode; its
    programs and controllers equal those of its own loops, kept as
    conftest.reference_synthesize_switched.  The fold renames pos_out[i] and
    perf_out[i] to pos_out_c[i] and perf_out_c[i] and moves the stationary
    (point) rows past interval rows; _assemble puts every <= (point) row ahead
    of every = (interval) row, so the arrays HiGHS gets are unchanged."""

    @staticmethod
    def _solved(monkeypatch, run):
        """(assembly, point records, interval records) of every LP `run`
        solves, and its controller JSON or error class."""
        seen = []
        real = _Program.solve_min

        def lin(e):
            return list(e.coeffs.items()), e.const

        def family(name):
            return re.sub(r"^(pos|perf)_out\[", r"\1_out_c[", name)

        def spy(prog, *args):
            try:
                return real(prog, *args)
            finally:
                points = [(family(r["family"]), r["index"], lin(r["expr"]), r["margin"])
                          for r in prog.point_records]
                intervals = [(family(r["family"]), r["index"], [lin(c) for c in r["pexpr"].coeffs],
                              r["interval"], r["order"], r["margin"], r["cone"])
                             for r in prog.interval_records]
                seen.append((_assemble(prog.lp), points, intervals))

        with monkeypatch.context() as m:
            m.setattr(_Program, "solve_min", spy)
            try:
                out = run().to_json()
            except DwellgainError as exc:
                out = type(exc).__name__
        return seen, out

    @pytest.mark.parametrize("degree", [0, 2])
    @pytest.mark.parametrize("T", [0.1, 0.3, 1.0])
    @pytest.mark.parametrize("plant", ["two_mode", "stabilizable"])
    def test_same_programs_and_controller(self, monkeypatch, plant, T, degree):
        sw = two_mode_switched_bench() if plant == "two_mode" else TestSwitchedSynthesis._stabilizable_two_mode()
        got, out = self._solved(monkeypatch, lambda: synthesize_switched(sw, T, degree))
        want, out_r = self._solved(monkeypatch, lambda: reference_synthesize_switched(sw, T, degree))
        assert got and len(got) == len(want)
        for (asm, points, intervals), (asm_r, points_r, intervals_r) in zip(got, want):
            assert all(np.array_equal(x, y) for x, y in zip(asm, asm_r))
            assert points == points_r
            assert intervals == intervals_r
        assert out == out_r


class TestControllerIO:
    def test_round_trip_constant(self, ctrl_constant_01, tmp_path):
        path = tmp_path / "ctrl.json"
        ctrl_constant_01.save(str(path))
        loaded = ControllerRealization.load(str(path))
        assert loaded.gamma == ctrl_constant_01.gamma
        assert loaded.kd() == pytest.approx(ctrl_constant_01.kd())
        taus = np.linspace(0, 0.1, 5)
        assert loaded.kc_mesh(taus) == pytest.approx(ctrl_constant_01.kc_mesh(taus))

    def test_round_trip_range_theta_gain(self, ctrl_range, tmp_path):
        path = tmp_path / "ctrl_range.json"
        ctrl_range.save(str(path))
        loaded = ControllerRealization.load(str(path))
        for th in (0.1, 0.2, 0.3):
            assert loaded.kd(th) == pytest.approx(ctrl_range.kd(th))

    def test_arbitrary_kind_infeasible_plant(self, bench_chain_plant):
        # constant matrices: the plant qualifies for the arbitrary design only
        # if feasible; this plant needs dwell structure, so expect Infeasible
        with pytest.raises(Infeasible):
            synthesize(bench_chain_plant, DwellTimeSpec.arbitrary(), degree=0)


class TestArbitraryDesign:
    def test_feasible_plant(self):
        plant = ImpulsiveSystem.from_arrays(
            A=[[-1.0, 0.5], [0.4, -2.0]],
            Bc=[[1.0], [0.0]],
            Ec=[[0.2], [0.1]],
            Cc=[[0.0, 1.0]],
            Fc=[[0.05]],
            J=[[1.5, 0.0], [0.0, 1.5]],
            Bd=[[1.0, 0.0], [0.0, 1.0]],
            Ed=[[0.1], [0.1]],
            Cd=[[1.0, 0.0]],
            Fd=[[0.05]],
        )
        ctrl = synthesize(plant, DwellTimeSpec.arbitrary(), degree=0)
        assert ctrl.kind == "ArbitraryDT" and ctrl.degree == 0
        rep = verify(certificate_from(ctrl), closed_loop(plant, ctrl))
        assert rep.passed
        emp = estimate_gain(
            plant, SequenceGen.uniform_range(0.05, 1.0, seed=1),
            runs=20, horizon=15.0, controller=ctrl,
        )
        assert emp <= ctrl.gamma + 1e-6
        # gain constant in the timer
        assert ctrl.kc(0.0) == pytest.approx(ctrl.kc(3.0))
