import re

import numpy as np
import pytest

from conftest import (assert_matches_three_paths, first_program_rows, oracle_kd,
                      reference_synthesize_switched, spy_relaxations, stabilizable_two_mode)
from dwellgain import synthesis as synthesis_mod
from dwellgain.benchmarks import two_mode_switched_bench
from dwellgain.errors import (DimensionMismatch, DwellgainError, IllPosed, Infeasible, NotConstant, NotPositive,
                             Unsupported)
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
from dwellgain.cert import cross_check_discrete, verify


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

    def test_denominator_decided_exactly(self):
        """X = (tau - 0.3)^2 - 1e-8 dips below 0 on (0.2999, 0.3001) only,
        between the points of a 512-point grid on [0, 1]; X + 2e-8 is positive."""
        dip = Poly((0.09, -0.6, 1.0)) - 1e-8
        for dwell in (DwellTimeSpec.constant(1.0), DwellTimeSpec.minimum(1.0), DwellTimeSpec.range(0.5, 1.0)):
            ctrl = ControllerRealization(kind="ConstantDT", dwell=dwell, gamma=1.0, degree=2, margin=0.0,
                                         X=[dip], Uc=[])
            assert (dip.eval(np.linspace(0.0, 1.0, 512)) > 0.0).all()
            with pytest.raises(IllPosed):
                synthesis_mod._check_denominator(ctrl)
        # a constant X under arbitrary dwell is read at tau = 0
        for x, ok in ((Poly.const(1e-300), True), (Poly.const(0.0), False)):
            ctrl = ControllerRealization(kind="ArbitraryDT", dwell=DwellTimeSpec.arbitrary(), gamma=1.0,
                                         degree=0, margin=0.0, X=[x], Uc=[])
            if ok:
                synthesis_mod._check_denominator(ctrl)
            else:
                with pytest.raises(IllPosed):
                    synthesis_mod._check_denominator(ctrl)


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


class TestInputPositivity:
    """A design refuses a plant whose E or F, which no state feedback
    changes, check_positive does not prove nonnegative."""

    def test_negative_inputs_refused(self, negative_input_plant):
        message = "not positive on [0, 0.1]: Ec[1, 0], Fc[0, 0], jumps[0].Ed[1, 0]"
        for spec in (DwellTimeSpec.constant(0.1), DwellTimeSpec.range(0.1, 0.3)):
            end = f"{spec.horizon_tau():g}"
            with pytest.raises(NotPositive, match=re.escape(message.replace("0.1]", f"{end}]")) + "$"):
                synthesize(negative_input_plant, spec, 2)
        with pytest.raises(NotPositive, match=re.escape("not positive at tau = 0: Ec[1, 0]")):
            synthesize(negative_input_plant, DwellTimeSpec.arbitrary())

    def test_feedback_matrices_are_left_to_the_design(self, bench_chain_plant):
        """A J with a negative entry is designed for: a feedback changes J,
        and the design's positivity rows decide J + B_d K_d."""
        jm = bench_chain_plant.jump
        plant = ImpulsiveSystem.from_arrays(
            A=bench_chain_plant.A, Bc=bench_chain_plant.Bc, Ec=bench_chain_plant.Ec, Cc=bench_chain_plant.Cc,
            Fc=bench_chain_plant.Fc, J=jm.J - np.array([[0.0, 0.05], [0.0, 0.0]]), Bd=jm.Bd, Ed=jm.Ed, Cd=jm.Cd,
            Fd=jm.Fd)
        ctrl = synthesize(plant, DwellTimeSpec.constant(0.1), 2)
        assert verify(certificate_from(ctrl), closed_loop(plant, ctrl)).passed

    def test_channel_without_input_is_the_plants(self, bench_chain_plant):
        """No feedback changes J without a discrete input, nor A without a
        continuous one: the design gate decides them as the analyses do,
        where a negative entry used to reach an infeasible program."""
        jm = bench_chain_plant.jump
        J = jm.J - np.array([[0.0, 0.05], [0.0, 0.0]])
        plant = ImpulsiveSystem.from_arrays(A=bench_chain_plant.A, Ec=bench_chain_plant.Ec, Cc=bench_chain_plant.Cc,
                                            Fc=bench_chain_plant.Fc, J=J, Ed=jm.Ed, Cd=jm.Cd, Fd=jm.Fd)
        assert plant.mc == plant.md == 0
        with pytest.raises(NotPositive, match=re.escape("not positive on [0, 0.1]: jumps[0].J[0, 1]") + "$"):
            synthesize(plant, DwellTimeSpec.constant(0.1), 2)
        A = bench_chain_plant.A.coeffs[..., 0] - np.array([[0.0, 0.0], [0.05, 0.0]])
        plant = ImpulsiveSystem.from_arrays(A=A, Ec=bench_chain_plant.Ec, Cc=bench_chain_plant.Cc,
                                            Fc=bench_chain_plant.Fc, J=jm.J, Bd=jm.Bd, Ed=jm.Ed, Cd=jm.Cd, Fd=jm.Fd)
        with pytest.raises(NotPositive, match=re.escape("not positive on [0, 0.1]: A[1, 0]") + "$"):
            synthesize(plant, DwellTimeSpec.constant(0.1), 2)


class TestSwitchedSynthesis:
    _stabilizable_two_mode = staticmethod(stabilizable_two_mode)

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

    def test_negative_inputs_refused(self):
        """A mode's E and F, which no state feedback changes, are checked as
        the analyses check them; a closed loop of the plant fails verify."""
        good = self._stabilizable_two_mode()
        modes = [{k: md[k] for k in "ABECDF"} for md in good.modes]
        modes[1]["E"], modes[1]["F"] = [[0.3], [-0.2]], [[-0.1]]
        bad = SwitchedSystem.from_arrays(modes)
        message = "not positive on [0, 0.3]: modes[1].E[1, 0], modes[1].F[0, 0]"
        with pytest.raises(NotPositive, match=re.escape(message) + "$"):
            synthesize_switched(bad, 0.3, degree=2)
        ctrl = synthesize_switched(good, 0.3, degree=2)
        rep = verify(certificate_from(ctrl), closed_loop(bad, ctrl), grid=600)
        assert not rep.passed and rep.notes[0] == message

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


class TestSwitchedDesignDwellClasses:
    """synthesize designs a switched system under every dwell class, as the
    design of its lift with U block-diagonal and jump margin 0, reported per
    mode; each closed loop passes verify and the cross-check and its gamma
    stays at or above the Monte-Carlo lower bound."""

    KIND = {"arbitrary": "SwitchedArbitraryDT", "constant": "SwitchedConstantDT", "range": "SwitchedRangeDT"}

    @pytest.mark.parametrize("plant, dwell", [
        ("two_mode", "constant:0.1"),
        ("two_mode", "constant:0.5"),
        ("two_mode", "range:0.1:0.3"),
        ("two_mode", "range:0.5:1"),
        ("two_mode", "arbitrary"),
        ("three_mode", "constant:0.3"),
        ("three_mode", "range:0.3:0.6"),
        ("stabilizable", "constant:0.3"),
        ("stabilizable", "range:0.3:0.5"),
    ])
    def test_closed_loop_certified(self, bench_three_mode, plant, dwell):
        sw = {"two_mode": two_mode_switched_bench(), "three_mode": bench_three_mode,
              "stabilizable": stabilizable_two_mode()}[plant]
        spec = DwellTimeSpec.parse(dwell)
        ctrl = synthesize(sw, spec, 2)
        assert ctrl.kind == self.KIND[spec.kind] and ctrl.per_mode and ctrl.Ud is None
        assert [len(x) for x in ctrl.X] == [sw.n] * sw.N and [len(u) for u in ctrl.Uc] == [sw.m] * sw.N
        cert, loop = certificate_from(ctrl), closed_loop(sw, ctrl)
        assert verify(cert, loop).passed and cross_check_discrete(cert, loop).passed
        emp = estimate_gain(sw, SequenceGen.for_spec(spec, seed=1), runs=10, horizon=15.0, controller=ctrl)
        assert ctrl.gamma >= emp

    def test_switched_is_synthesize_minimum(self):
        sw = stabilizable_two_mode()
        ctrl = synthesize_switched(sw, 0.3, 2)
        assert synthesize(sw, DwellTimeSpec.minimum(0.3), 2).to_json() == ctrl.to_json()

    def test_fixed_kd_refused(self, monkeypatch):
        monkeypatch.setattr(synthesis_mod, "_solve_design", None)
        with pytest.raises(Unsupported, match="^fixed_kd acts on an impulsive system's discrete gain"):
            synthesize(two_mode_switched_bench(), DwellTimeSpec.range(0.1, 0.3), 2, fixed_kd=True)

    def test_arbitrary_needs_constant_modes(self):
        sw = SwitchedSystem.from_arrays([
            {"A": [[[-2.0, -1.0]]], "B": [[1.0]], "E": [[1.0]], "C": [[1.0]], "F": [[0.0]]},
            {"A": [[-1.0]], "B": [[1.0]], "E": [[1.0]], "C": [[1.0]], "F": [[0.0]]},
        ])
        with pytest.raises(NotConstant, match="needs constant matrices"):
            synthesize(sw, DwellTimeSpec.arbitrary(), 2)


class TestSwitchedModeOracle:
    """synthesize_switched solves synthesize's design program on the lift
    (model.lift_switched) with U block-diagonal.  Its program is that of the
    per-mode loops, kept as conftest.reference_synthesize_switched, row for
    row up to the family names: the coupling rows X_i(0) - X_j(T) >= 0 are
    the lift's jump rows, and those of its inactive blocks, X_k(0) >= 0,
    which X >= x_min implies, are not written.  The rows are in the same
    order, so both end the same way, with equal gamma, X and U_c, and each
    controller passes verify and the cross-check."""

    @staticmethod
    def _outcome(run):
        try:
            return run()
        except DwellgainError as exc:
            return type(exc).__name__

    def _check(self, monkeypatch, sw, T, degree):
        got, rows = first_program_rows(monkeypatch, lambda: self._outcome(lambda: synthesize_switched(sw, T, degree)))
        want, rows_r = first_program_rows(
            monkeypatch, lambda: self._outcome(lambda: reference_synthesize_switched(sw, T, degree)))
        assert rows == rows_r
        if isinstance(want, str):
            assert got == want
            return
        assert got.gamma == want.gamma and got.X == want.X and got.Uc == want.Uc
        cert, loop = certificate_from(got), closed_loop(sw, got)
        assert verify(cert, loop).passed and cross_check_discrete(cert, loop).passed

    @pytest.mark.parametrize("degree", [0, 2])
    @pytest.mark.parametrize("T", [0.1, 0.3, 1.0])
    @pytest.mark.parametrize("plant", ["two_mode", "stabilizable"])
    def test_same_programs_and_controller(self, monkeypatch, plant, T, degree):
        sw = two_mode_switched_bench() if plant == "two_mode" else TestSwitchedSynthesis._stabilizable_two_mode()
        self._check(monkeypatch, sw, T, degree)

    @pytest.mark.parametrize("degree", [0, 2])
    @pytest.mark.parametrize("T", [0.1, 0.3, 1.0])
    def test_three_modes(self, monkeypatch, bench_three_mode, T, degree):
        self._check(monkeypatch, bench_three_mode, T, degree)

    @pytest.mark.parametrize("degree", [0, 2])
    def test_block_diagonal_gains(self, monkeypatch, degree):
        """Each mode's input drives its own block only: the lifted program
        has N m n (degree + 1) U columns, and each mode's U_c is m x n."""
        sw = TestSwitchedSynthesis._stabilizable_two_mode()
        with monkeypatch.context() as m:
            encoded = spy_relaxations(m)
            ctrl = synthesize_switched(sw, 0.3, degree)
        names = encoded[0][0].columns.names.values()
        assert sum(name.startswith("U") for name in names) == sw.N * sw.m * sw.n * (degree + 1)
        assert [len(x) for x in ctrl.X] == [sw.n] * sw.N
        assert [[len(row) for row in uc] for uc in ctrl.Uc] == [[sw.n] * sw.m] * sw.N


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


def arbitrary_plant() -> ImpulsiveSystem:
    """A constant plant with an expansive jump that two jump inputs stabilize
    under any dwell."""
    return ImpulsiveSystem.from_arrays(
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


class TestKdMesh:
    def test_matches_per_theta_loop(self, bench_chain_plant, ctrl_constant_01, ctrl_range, ctrl_minimum):
        """kd_mesh equals, bit for bit, the per-theta kd loop and the gains
        U_d(theta) X(theta)^-1, or U_d M^-1, computed entry by entry from the
        stored U_d, X and M (`oracle_kd`), for every kind of design: constant,
        minimum and arbitrary dwell, the one-dwell ranges [0.2, 0.2] and [0.2,
        0.2 + 1e-13], a genuine range at degree 0 and 2, and a fixed K_d;
        thetas run past both ends of the range."""
        designs = [
            ctrl_constant_01,
            ctrl_minimum,
            ctrl_range,
            synthesize(arbitrary_plant(), DwellTimeSpec.range(0.1, 0.3), degree=0),
            synthesize(bench_chain_plant, DwellTimeSpec.range(0.2, 0.2), degree=2),
            synthesize(bench_chain_plant, DwellTimeSpec.range(0.2, 0.2000000000001), degree=2),
            synthesize(bench_chain_plant, DwellTimeSpec.range(0.1, 0.3), degree=2, fixed_kd=True),
            synthesize(arbitrary_plant(), DwellTimeSpec.arbitrary(), degree=0),
        ]
        assert [c.kind for c in designs] == ["ConstantDT", "MinimumDT"] + ["RangeDT"] * 4 + [
            "RangeDT_FixedKd", "ArbitraryDT"]
        # U_d varies with theta on the genuine ranges alone, constant rows elsewhere
        assert [c._ud_poly for c in designs] == [False, False, True, True, False, False, False, False]
        assert all(u.degree == 0 for c in designs if not c._ud_poly for row in c.Ud for u in row)
        thetas = np.array([0.05, 0.1, 0.1375, 0.2, 0.29, 0.3, 0.8])
        for ctrl in designs:
            mesh = ctrl.kd_mesh(thetas)
            assert mesh.flags.c_contiguous
            assert mesh.shape == (len(ctrl.Ud), len(ctrl.X), len(thetas))
            np.testing.assert_array_equal(mesh, np.stack([ctrl.kd(float(th)) for th in thetas], axis=-1))
            np.testing.assert_array_equal(mesh, np.stack([oracle_kd(ctrl, float(th)) for th in thetas], axis=-1))
            assert ctrl.kd_mesh([]).shape == mesh.shape[:2] + (0,)
        assert not np.array_equal(designs[2].kd(0.1), designs[2].kd(0.3))

    def test_one_dwell_range_needs_no_theta(self, bench_chain_plant, ctrl_range):
        """A range design on [0.2, 0.2], or one narrower than 1e-12, has a
        constant U_d and the one dwell 0.2: kd() is K_d there.  A U_d
        polynomial in theta still needs theta."""
        for Tmax in (0.2, 0.2000000000001):
            ctrl = synthesize(bench_chain_plant, DwellTimeSpec.range(0.2, Tmax), degree=2)
            assert ctrl.kind == "RangeDT" and not ctrl._ud_poly and "Ud" in ctrl.to_json()
            np.testing.assert_array_equal(ctrl.kd(), ctrl.kd(0.2))
            np.testing.assert_array_equal(ctrl.kd(), oracle_kd(ctrl, 0.2))
        with pytest.raises(ValueError, match="needs theta"):
            ctrl_range.kd()


class TestArbitraryDesign:
    def test_feasible_plant(self):
        plant = arbitrary_plant()
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
