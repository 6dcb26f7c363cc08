import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CERTIFY_GRID_DESIGNS,
    CERTIFY_GRID_T,
    LinExpr,
    PolyExpr,
    ReferenceRows,
    array_of,
    add_eq,
    first_program_rows,
    full_schedule_escalation,
    per_row_cone_rows,
    per_row_relaxation,
    per_sample_referee,
    reference_blanchini,
    row_records,
    spy_relaxations,
    spy_solves,
    assert_same_assembly,
    lil_assemble,
    lti_linf_closed_form,
    random_stable_metzler,
    reference_analyze_arbitrary,
    reference_gain_rows_constant_like,
    reference_switched_min,
    reference_synthesize,
    ref_expr,
    row_terms,
)
from dwellgain import analysis as analysis_mod
from dwellgain import benchmarks
from dwellgain import lp as lp_mod
from dwellgain import synthesis as synthesis_mod
from dwellgain.analysis import (
    DEFAULT_JUMP_MARGIN,
    DEFAULT_MARGIN,
    RELAX_SCHEDULE,
    Certificate,
    _Program,
    analyze_arbitrary,
    analyze_constant,
    analyze_lti,
    analyze_minimum,
    analyze_range,
    analyze_switched_blanchini,
    analyze_switched_min,
)
from dwellgain.errors import (
    DimensionMismatch,
    DwellgainError,
    Infeasible,
    NotConstant,
    NotPositive,
    NumericalFailure,
    ParseError,
    RelaxationLimit,
)
from dwellgain.cert import cross_check_discrete, verify
from dwellgain.lp import LinearProgram, _assemble, dump_lp
from dwellgain.model import DwellTimeSpec, ImpulsiveSystem, SwitchedSystem, adjoint, lift_switched
from dwellgain.sim import SequenceGen, estimate_gain
from dwellgain.synthesis import synthesize, synthesize_switched

DATA = Path(__file__).parent / "data"


class TestArbitrary:
    def test_reference_value(self, bench_lti):
        cert = analyze_arbitrary(bench_lti)
        assert cert.gamma == pytest.approx(1.925, rel=1e-3)
        assert cert.kind == "ArbitraryDT"
        lam = np.array([z.eval(0.0) for z in cert.zeta])
        assert np.all(lam > 0)

    def test_contraction_jump_gain_one(self):
        # A = -I, C = E = I, F = 0, J = 0.5 I, no discrete channel:
        # closed-form LTI gain = row sums of -C A^{-1} E + F = 1
        n = 3
        sys = ImpulsiveSystem.from_arrays(
            A=(-np.eye(n)).tolist(),
            Ec=np.eye(n).tolist(),
            Cc=np.eye(n).tolist(),
            Fc=np.zeros((n, n)).tolist(),
            J=(0.5 * np.eye(n)).tolist(),
            Ed=np.zeros((n, 1)).tolist(),
            Cd=np.zeros((1, n)).tolist(),
            Fd=np.zeros((1, 1)).tolist(),
        )
        cert = analyze_arbitrary(sys, margin=0.0, jump_margin=0.0)
        assert cert.gamma == pytest.approx(1.0, abs=1e-6)

    def test_unstable_infeasible(self):
        sys = ImpulsiveSystem.from_arrays(
            A=[[1.0]], Ec=[[1.0]], Cc=[[1.0]], Fc=[[0.0]],
            J=[[0.5]], Ed=[[0.0]], Cd=[[0.0]], Fd=[[0.0]],
        )
        with pytest.raises(Infeasible):
            analyze_arbitrary(sys)

    def test_not_constant_rejected(self, bench_timer_growth):
        with pytest.raises(NotConstant):
            analyze_arbitrary(bench_timer_growth)


class TestConstant:
    def test_reference_T03(self, bench_timer_growth):
        cert = analyze_constant(bench_timer_growth, 0.3, 4)
        assert cert.gamma <= 1.05 * 0.70386
        assert cert.gamma >= 0.687  # exact state-transition optimum is ~0.6871

    def test_reference_T05(self, bench_timer_growth):
        cert = analyze_constant(bench_timer_growth, 0.5, 4)
        assert cert.gamma <= 1.05 * 1.0517
        assert cert.gamma >= 1.027

    def test_identity_jump_matches_lti(self):
        # closed discrete row (jump_margin = 0) with J = I and no discrete data:
        # the bound collapses to the pure-continuous gain
        A = np.array([[-2.0, 0.5], [0.3, -1.5]])
        E = np.array([[0.4], [0.8]])
        C = np.array([[0.6, 0.2]])
        F = np.array([[0.1]])
        sys = ImpulsiveSystem.from_arrays(
            A=A.tolist(), Ec=E.tolist(), Cc=C.tolist(), Fc=F.tolist(),
            J=np.eye(2).tolist(), Ed=np.zeros((2, 1)).tolist(),
            Cd=np.zeros((1, 2)).tolist(), Fd=np.zeros((1, 1)).tolist(),
        )
        cert = analyze_constant(sys, 0.5, 2, jump_margin=0.0)
        assert cert.gamma == pytest.approx(lti_linf_closed_form(A, E, C, F), rel=1e-2)

    def test_degree_monotone(self, bench_timer_growth):
        g4 = analyze_constant(bench_timer_growth, 0.3, 4).gamma
        g6 = analyze_constant(bench_timer_growth, 0.3, 6).gamma
        assert g6 <= g4 + 1e-9


class TestMinimum:
    def test_reference(self, bench_timer_stable):
        cert = analyze_minimum(bench_timer_stable, 2.0, 4)
        assert cert.gamma <= 1.05 * 3.2364
        assert cert.kind == "MinimumDT"

    def test_harder_than_constant(self, bench_lti, bench_timer_stable):
        for sys, T in ((bench_lti, 0.5), (bench_timer_stable, 2.0)):
            g_min = analyze_minimum(sys, T, 4).gamma
            g_cst = analyze_constant(sys, T, 4).gamma
            assert g_min >= g_cst - 1e-9

    def test_arbitrary_dominates_minimum(self, bench_lti):
        g_arb = analyze_arbitrary(bench_lti).gamma
        g_min = analyze_minimum(bench_lti, 0.5, 4).gamma
        assert g_arb >= g_min - 1e-9

    def test_dwell_monotone_on_tracked_range(self, bench_lti):
        Ts = [0.2, 0.45, 0.7, 0.95, 1.2]
        gs = [analyze_minimum(bench_lti, T, 4).gamma for T in Ts]
        for a, b in zip(gs, gs[1:]):
            assert b <= a + 1e-9


class TestRange:
    def test_reference_degrees(self, bench_timer_growth):
        g4 = analyze_range(bench_timer_growth, 0.3, 0.5, 4).gamma
        g6 = analyze_range(bench_timer_growth, 0.3, 0.5, 6).gamma
        assert g4 <= 1.05 * 1.2239
        assert g6 <= 1.05 * 1.0855
        assert g6 <= g4 + 1e-9

    def test_degenerate_equals_constant(self, bench_timer_growth):
        g_rng = analyze_range(bench_timer_growth, 0.3, 0.3, 4).gamma
        g_cst = analyze_constant(bench_timer_growth, 0.3, 4).gamma
        assert g_rng == pytest.approx(g_cst, abs=1e-6)

    def test_nondecreasing_in_tmax(self, bench_timer_growth):
        g_small = analyze_range(bench_timer_growth, 0.3, 0.4, 4).gamma
        g_big = analyze_range(bench_timer_growth, 0.3, 0.5, 4).gamma
        assert g_big >= g_small - 1e-9


class TestSwitched:
    def test_reference(self, bench_switched):
        cert = analyze_switched_min(bench_switched, 0.1, 4)
        assert cert.gamma <= 1.05 * 0.50753
        assert cert.per_mode and len(cert.zeta) == 2

    def test_duplicate_modes_match_lti(self, bench_switched):
        mode = {
            "A": [[-1.0, 0.0], [1.0, -2.0]],
            "E": [[0.1], [0.1]],
            "C": [[0.0, 1.0]],
            "F": [[0.1]],
        }
        sw = SwitchedSystem.from_arrays([mode, mode])
        cert = analyze_switched_min(sw, 0.4, 4)
        oracle = lti_linf_closed_form(
            np.array(mode["A"]), np.array(mode["E"]), np.array(mode["C"]), np.array(mode["F"])
        )
        assert cert.gamma == pytest.approx(oracle, rel=1e-2)

    def test_unstable_mode_infeasible(self):
        sw = SwitchedSystem.from_arrays(
            [
                {"A": [[-1.0]], "E": [[0.1]], "C": [[1.0]], "F": [[0.0]]},
                {"A": [[0.5]], "E": [[0.1]], "C": [[1.0]], "F": [[0.0]]},
            ]
        )
        with pytest.raises(Infeasible):
            analyze_switched_min(sw, 0.05, 2)

    def test_blanchini_reference(self, bench_switched):
        g = analyze_switched_blanchini(bench_switched, 0.1, 101)
        assert g == pytest.approx(0.50674, rel=1e-2)

    def test_blanchini_grid_refinement(self, bench_switched):
        g1 = analyze_switched_blanchini(bench_switched, 0.1, 101)
        g2 = analyze_switched_blanchini(bench_switched, 0.1, 1001)
        assert abs(g2 - g1) <= 1e-3 * g1

    def test_blanchini_duplicate_modes(self):
        mode = {
            "A": [[-1.0, 0.0], [1.0, -2.0]],
            "E": [[0.1], [0.1]],
            "C": [[0.0, 1.0]],
            "F": [[0.1]],
        }
        sw = SwitchedSystem.from_arrays([mode, mode])
        g = analyze_switched_blanchini(sw, 0.4, 101)
        oracle = lti_linf_closed_form(
            np.array(mode["A"]), np.array(mode["E"]), np.array(mode["C"]), np.array(mode["F"])
        )
        assert g == pytest.approx(oracle, rel=1e-2)

    def test_lifted_form_matches_switched_analysis(self, bench_switched):
        """The impulsive lifting with block-selector jump maps reproduces the
        per-mode analysis (analyze_switched_min solves the lift's program)."""
        g_sw = analyze_switched_min(bench_switched, 0.1, 4).gamma
        g_lift = analyze_minimum(lift_switched(bench_switched), 0.1, 4, jump_margin=0.0).gamma
        assert g_lift == pytest.approx(g_sw, rel=1e-9)

    def test_blanchini_requires_constant_modes(self, bench_timer_growth):
        sw = SwitchedSystem.from_arrays(
            [
                {"A": [[[-2.0, -1.0]]], "E": [[1.0]], "C": [[1.0]], "F": [[0.0]]},
                {"A": [[-1.0]], "E": [[1.0]], "C": [[1.0]], "F": [[0.0]]},
            ]
        )
        with pytest.raises(NotConstant):
            analyze_switched_blanchini(sw, 0.1)


def analyze_spec(s, spec: DwellTimeSpec, degree: int, **kw):
    """The analysis entry point of spec's dwell class, as the CLI picks it."""
    if spec.kind == "arbitrary":
        return analyze_arbitrary(s, **kw)
    if spec.kind == "range":
        return analyze_range(s, spec.Tmin, spec.Tmax, degree, **kw)
    return (analyze_constant if spec.kind == "constant" else analyze_minimum)(s, spec.T, degree, **kw)


class TestSwitchedDwellClasses:
    """A switched system goes through the impulsive analysis entry points
    under every dwell class: each solves the program of the lift with jump
    margin 0 and reports it per mode, so its gamma and stacked zeta are
    those of the lift's analysis at jump_margin 0.  Each certificate passes
    verify and the cross-check and stays at or above the Monte-Carlo lower
    bound; gamma is the value recorded for the lift when only minimum
    dwell had a switched entry point."""

    KIND = {"arbitrary": "SwitchedArbitraryDT", "constant": "SwitchedConstantDT", "minimum": "SwitchedMinDT",
            "range": "SwitchedRangeDT"}

    @pytest.mark.parametrize("bench, dwell, gamma", [
        ("two_mode", "constant:0.1", 0.213175),
        ("two_mode", "constant:0.5", 0.261282),
        ("two_mode", "range:0.1:0.3", 0.310892),
        ("two_mode", "range:0.5:1", 0.30149),
        ("two_mode", "arbitrary", 0.700003),
        ("three_mode", "constant:0.3", 0.311684),
        ("three_mode", "range:0.3:0.6", 0.371982),
    ])
    def test_certified_as_the_lift(self, bench_switched, bench_three_mode, bench, dwell, gamma):
        sw = bench_switched if bench == "two_mode" else bench_three_mode
        spec = DwellTimeSpec.parse(dwell)
        degree = 0 if spec.kind == "arbitrary" else 4
        c = analyze_spec(sw, spec, degree)
        assert c.kind == self.KIND[spec.kind] and c.per_mode and [len(z) for z in c.zeta] == [sw.n] * sw.N
        assert c.jump_margin == 0.0 and c.gamma == pytest.approx(gamma, rel=1e-5)
        lift = analyze_spec(lift_switched(sw), spec, degree, jump_margin=0.0)
        assert lift.gamma == c.gamma and lift.zeta == [z for zs in c.zeta for z in zs]
        assert verify(c, sw).passed and cross_check_discrete(c, sw).passed
        assert c.gamma >= estimate_gain(sw, SequenceGen.for_spec(spec, seed=1), runs=10, horizon=15.0)

    def test_switched_min_is_analyze_minimum(self, bench_switched):
        """analyze_switched_min is analyze_minimum on a switched system, whose
        jump_margin is not read."""
        c = analyze_switched_min(bench_switched, 0.3, 4)
        assert analyze_minimum(bench_switched, 0.3, 4).to_json() == c.to_json()
        assert analyze_minimum(bench_switched, 0.3, 4, jump_margin=0.5).to_json() == c.to_json()

    def test_arbitrary_needs_constant_modes(self):
        sw = SwitchedSystem.from_arrays([
            {"A": [[[-2.0, -1.0]]], "E": [[1.0]], "C": [[1.0]], "F": [[0.0]]},
            {"A": [[-1.0]], "E": [[1.0]], "C": [[1.0]], "F": [[0.0]]},
        ])
        with pytest.raises(NotConstant):
            analyze_arbitrary(sw)

    def test_one_mode_refused_by_the_lift(self):
        sw = SwitchedSystem.from_arrays([{"A": [[-1.0]], "E": [[1.0]], "C": [[1.0]], "F": [[0.0]]}])
        with pytest.raises(DimensionMismatch, match="^lifting requires at least two modes$"):
            analyze_constant(sw, 0.3, 2)


class TestLti:
    def test_reference_gain(self, bench_lti):
        g, xi = analyze_lti(bench_lti, "Linf", "continuous")
        assert g == pytest.approx(0.9, abs=1e-6)
        assert np.all(xi > 0)

    def test_closed_form_oracle_20_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            A, E, C, F = random_stable_metzler(rng)
            sys = ImpulsiveSystem.from_arrays(
                A=A.tolist(), Ec=E.tolist(), Cc=C.tolist(), Fc=F.tolist(),
                J=np.eye(A.shape[0]).tolist(),
            )
            g, _ = analyze_lti(sys, "Linf", "continuous")
            assert g == pytest.approx(lti_linf_closed_form(A, E, C, F), rel=1e-6)

    def test_adjoint_duality_20_random(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            A, E, C, F = random_stable_metzler(rng)
            sys = ImpulsiveSystem.from_arrays(
                A=A.tolist(), Ec=E.tolist(), Cc=C.tolist(), Fc=F.tolist(),
                J=np.eye(A.shape[0]).tolist(),
            )
            g_primal, _ = analyze_lti(sys, "Linf", "continuous")
            g_dual, _ = analyze_lti(adjoint(sys), "L1", "continuous")
            assert g_dual == pytest.approx(g_primal, rel=1e-6)

    @pytest.mark.parametrize("time", ["continuous", "discrete"])
    def test_adjoint_l1_is_the_linf_lp(self, time):
        """analyze_lti(adjoint(s), "L1") solves the LP of analyze_lti(s): gamma
        and the witness agree bit for bit, also with 8 or more inputs or
        outputs, where a row summed in another order moves the last bits."""
        rng = np.random.default_rng(2402)
        dims = [(2, 1, 1), (3, 9, 2), (2, 2, 9), (4, 8, 8)] + [tuple(rng.integers(1, 11, 3)) for _ in range(16)]
        for n, p, q in dims:
            A, E, C, F = random_stable_metzler(rng, n, p, q)
            J = rng.uniform(0.0, 0.9 / n, (n, n))
            Ed, Cd, Fd = rng.uniform(0.0, 1.0, (n, p)), rng.uniform(0.0, 1.0, (q, n)), rng.uniform(0.0, 0.5, (q, p))
            s = ImpulsiveSystem.from_arrays(A=A, Ec=E, Cc=C, Fc=F, J=J, Ed=Ed, Cd=Cd, Fd=Fd)
            g, v = analyze_lti(s, "Linf", time)
            g_adj, v_adj = analyze_lti(adjoint(s), "L1", time)
            assert g_adj == g and np.array_equal(v_adj, v), (n, p, q)

    def test_discrete_linf(self):
        # x+ = 0.5 x + w, z = x: ell_inf gain = C (I-A)^{-1} E + F = 2
        sys = ImpulsiveSystem.from_arrays(
            A=[[0.0]], J=[[0.5]], Ed=[[1.0]], Cd=[[1.0]], Fd=[[0.0]],
        )
        g, _ = analyze_lti(sys, "Linf", "discrete")
        assert g == pytest.approx(2.0, abs=1e-6)

    def test_discrete_l1_duality(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(0, 0.3, (3, 3))
        E = rng.uniform(0, 1, (3, 2))
        C = rng.uniform(0, 1, (2, 3))
        F = rng.uniform(0, 0.2, (2, 2))
        sys = ImpulsiveSystem.from_arrays(A=np.zeros((3, 3)), J=A, Ed=E, Cd=C, Fd=F)
        adj = ImpulsiveSystem.from_arrays(A=np.zeros((3, 3)), J=A.T, Ed=C.T, Cd=E.T, Fd=F.T)
        g_inf, _ = analyze_lti(sys, "Linf", "discrete")
        g_one, _ = analyze_lti(adj, "L1", "discrete")
        assert g_one == pytest.approx(g_inf, rel=1e-6)
        # dense oracle: max row sum of C (I - A)^{-1} E + F
        G = C @ np.linalg.solve(np.eye(3) - A, E) + F
        assert g_inf == pytest.approx(float(np.max(G.sum(axis=1))), rel=1e-6)


class TestRelaxationLimit:
    @staticmethod
    def _hard_interval_system():
        # the scalar flow row is an offset parabola scaled by zeta: strictly
        # positive but outside the product cone until order ~26, regardless of
        # scale, so the default escalation hits its cap while the sampled
        # referee stays feasible
        return ImpulsiveSystem.from_arrays(
            A=[[[-0.26, 1.0, -1.0]]],
            Ec=[[[0.001]]],
            Cc=[[[1.0]]],
            Fc=[[[0.0]]],
            J=[[0.5]],
            Ed=[[0.0]],
            Cd=[[1.0]],
            Fd=[[0.0]],
        )

    def test_reported_distinctly_from_infeasible(self):
        with pytest.raises(RelaxationLimit) as err:
            analyze_constant(self._hard_interval_system(), 1.0, 0)
        # the message names every order tried and its outcome
        history = "; ".join(f"order +{r}: Infeasible" for r in RELAX_SCHEDULE)
        assert str(err.value).endswith(f"[{history}]")

    def test_history_keeps_numerical_failures(self, monkeypatch):
        encoded = spy_relaxations(monkeypatch)
        solve = analysis_mod.lp_solve

        def failing_at_six(lp):
            if any(lp is order_lp and relax == 6 for _, relax, order_lp in encoded):
                raise NumericalFailure("HiGHS model status Unknown")
            return solve(lp)

        monkeypatch.setattr(analysis_mod, "lp_solve", failing_at_six)
        with pytest.raises(RelaxationLimit) as err:
            analyze_constant(self._hard_interval_system(), 1.0, 0)
        assert str(err.value).endswith(
            "[order +4: Infeasible; order +6: NumericalFailure (HiGHS model status Unknown); "
            "order +8: Infeasible; order +10: Infeasible]"
        )

    def test_referee_infeasible_names_every_order(self, bench_timer_growth, monkeypatch):
        # timer_growth_bench is unstable at constant dwell 1.2: the referee
        # after order +4 is infeasible, so orders +6 to +10 are never encoded
        encoded = spy_relaxations(monkeypatch)
        with pytest.raises(Infeasible, match="sampled referee LP infeasible") as err:
            analyze_constant(bench_timer_growth, 1.2, 2)
        assert str(err.value).endswith("[order +4: Infeasible]")
        assert [relax for _, relax, _ in encoded] == [4]

    def test_program_built_once(self, monkeypatch):
        """One _Mode and one _Program are built, whatever the number of
        orders: the program is encoded at +4 to +10 and once as the referee."""
        built = []
        for cls in (analysis_mod._Mode, _Program):
            def init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built.append(_name)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)
        encoded = spy_relaxations(monkeypatch)
        calls = spy_solves(monkeypatch)
        with pytest.raises(RelaxationLimit) as err:
            analyze_constant(self._hard_interval_system(), 1.0, 0)
        history = "; ".join(f"order +{r}: Infeasible" for r in RELAX_SCHEDULE)
        assert str(err.value).endswith(f"[{history}]")
        assert built == ["_Program", "_Mode"]
        assert [relax for _, relax, _ in encoded] == [4, 6, 8, 10]
        assert len({id(prog) for prog, _, _ in encoded}) == 1
        assert calls == ["order", "referee", "order", "order", "order"]

    def test_higher_order_cap_solves(self):
        cert = analyze_constant(
            self._hard_interval_system(), 1.0, 0, relax_schedule=(26,)
        )
        assert cert.gamma > 0


def _offset_parabola_system(offset):
    # scalar flow row zeta * (offset - tau + tau^2) - 0.001 on [0, 1]: the
    # smaller the offset, the higher the relaxation order it needs
    return ImpulsiveSystem.from_arrays(
        A=[[[-offset, 1.0, -1.0]]], Ec=[[[0.001]]], Cc=[[[1.0]]], Fc=[[[0.0]]],
        J=[[0.5]], Ed=[[0.0]], Cd=[[1.0]], Fd=[[0.0]],
    )


def _certify_grid_runs():
    """(label, run(dump_lp path) -> certificate or controller) for every
    certify-grid analysis at degrees 2, 4 and 6, both switched analyses and
    every design."""
    runs = []
    for bench in ("lti_jump_bench", "timer_growth_bench", "timer_stable_bench"):
        s = getattr(benchmarks, bench)()
        for T in CERTIFY_GRID_T:
            for degree in (2, 4, 6):
                tag = f"{bench} T={T} degree={degree}"
                runs += [
                    (f"constant {tag}", lambda p, s=s, T=T, d=degree: analyze_constant(s, T, d, dump_lp=p)),
                    (f"minimum {tag}", lambda p, s=s, T=T, d=degree: analyze_minimum(s, T, d, dump_lp=p)),
                    (
                        f"range {tag}",
                        lambda p, s=s, T=T, d=degree: analyze_range(s, T, float(f"{1.5 * T:.5g}"), d, dump_lp=p),
                    ),
                ]
    sw = benchmarks.two_mode_switched_bench()
    for T in (0.3, 1.0):
        runs.append((f"switched T={T}", lambda p, T=T: analyze_switched_min(sw, T, 4, dump_lp=p)))
    for plant in ("unstable_chain_plant", "unstable_pair_plant"):
        pl = getattr(benchmarks, plant)()
        for spec, fixed_kd in CERTIFY_GRID_DESIGNS:
            runs.append((
                f"design {plant} {spec} fixed_kd={fixed_kd}",
                lambda p, pl=pl, spec=spec, k=fixed_kd: synthesize(pl, spec, 2, fixed_kd=k, dump_lp=p),
            ))
    return runs


def _artifacts(run, path):
    """(error class, artifact JSON text, dump_lp text) of one run."""
    try:
        art = run(str(path))
    except DwellgainError as exc:
        return type(exc), None, None
    art.save(str(path) + ".json")
    with open(str(path) + ".json") as fh, open(path) as lp_fh:
        return None, fh.read(), lp_fh.read()


def _assert_same_program(got, want):
    """Equal rows, and byte-equal arrays as lp._assemble hands them to HiGHS."""
    assert got.num_vars == want.num_vars
    assert got.rows == want.rows
    for g, w in zip(_assemble(got), _assemble(want)):
        if isinstance(g, np.ndarray):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        else:
            assert g == w


class TestEscalation:
    """The first Infeasible order's sampled referee settles infeasibility."""

    def test_feasible_at_first_order_solves_once(self, bench_timer_growth, monkeypatch):
        calls = spy_solves(monkeypatch)
        assert analyze_constant(bench_timer_growth, 0.3, 4).relax == 4
        assert calls == ["order"]

    def test_infeasible_solves_twice(self, bench_timer_growth, monkeypatch):
        calls = spy_solves(monkeypatch)
        with pytest.raises(Infeasible):
            analyze_constant(bench_timer_growth, 1.2, 2)
        assert calls == ["order", "referee"]

    def test_feasible_referee_lets_the_next_order_certify(self, monkeypatch):
        calls = spy_solves(monkeypatch)
        assert analyze_constant(_offset_parabola_system(0.3), 1.0, 0).relax == 6
        assert calls == ["order", "referee", "order"]

    def test_relaxation_limit_solves_the_referee_once(self, monkeypatch):
        calls = spy_solves(monkeypatch)
        with pytest.raises(RelaxationLimit):
            analyze_constant(_offset_parabola_system(0.26), 1.0, 0)
        assert calls == ["order", "referee", "order", "order", "order"]

    def test_early_referee_failure_is_named(self, monkeypatch):
        calls = spy_solves(monkeypatch, referee_fails=True)
        with pytest.raises(NumericalFailure) as err:
            analyze_constant(_offset_parabola_system(0.26), 1.0, 0)
        assert str(err.value) == (
            "sampled referee failed numerically [order +4: Infeasible; "
            "referee: NumericalFailure (HiGHS model status Unknown); "
            "order +6: Infeasible; order +8: Infeasible; order +10: Infeasible]"
        )
        assert calls == ["order", "referee", "order", "order", "order"]

    def test_early_referee_failure_still_certifies(self, monkeypatch):
        want = analyze_constant(_offset_parabola_system(0.3), 1.0, 0)
        spy_solves(monkeypatch, referee_fails=True)
        got = analyze_constant(_offset_parabola_system(0.3), 1.0, 0)
        assert got.to_json() == want.to_json()

    def test_referee_failure_never_reads_infeasible(self, bench_timer_growth, monkeypatch):
        calls = spy_solves(monkeypatch, referee_fails=True)
        with pytest.raises(NumericalFailure, match="^sampled referee failed numerically") as err:
            analyze_constant(bench_timer_growth, 1.2, 2)
        assert not isinstance(err.value, (Infeasible, RelaxationLimit))
        assert calls == ["order", "referee", "order", "order", "order"]

    @pytest.mark.parametrize("referee_fails", [False, True])
    def test_referee_after_numerical_failures(self, bench_timer_growth, monkeypatch, referee_fails):
        # no order ends Infeasible, so the referee is solved after the last order
        calls = spy_solves(monkeypatch, referee_fails)
        encoded = spy_relaxations(monkeypatch)
        solve = analysis_mod.lp_solve

        def failing(lp):
            if any(lp is order_lp for _, _, order_lp in encoded):
                raise NumericalFailure("HiGHS model status Unknown")
            return solve(lp)

        monkeypatch.setattr(analysis_mod, "lp_solve", failing)
        history = "; ".join(
            f"order +{r}: NumericalFailure (HiGHS model status Unknown)" for r in RELAX_SCHEDULE
        )
        if referee_fails:
            with pytest.raises(NumericalFailure) as err:
                analyze_constant(bench_timer_growth, 1.2, 2)
            assert str(err.value) == (
                f"sampled referee failed numerically [{history}; "
                "referee: NumericalFailure (HiGHS model status Unknown)]"
            )
        else:
            with pytest.raises(Infeasible) as err:
                analyze_constant(bench_timer_growth, 1.2, 2)
            assert str(err.value).endswith(f"[{history}]")
        assert calls == ["referee"]

    def test_certify_grid_matches_full_schedule(self, tmp_path, monkeypatch):
        runs = _certify_grid_runs()
        got = [_artifacts(run, tmp_path / f"got{i}.lp") for i, (_, run) in enumerate(runs)]
        monkeypatch.setattr(analysis_mod, "_solve_with_escalation", full_schedule_escalation)
        monkeypatch.setattr(synthesis_mod, "_solve_with_escalation", full_schedule_escalation)
        for i, (label, run) in enumerate(runs):
            assert got[i] == _artifacts(run, tmp_path / f"want{i}.lp"), label
        # both outcomes occur
        assert {g[0] for g in got} == {None, Infeasible}

    @pytest.mark.usefixtures("orbit_test_off")  # else only 16 programs are built
    def test_referee_matches_per_sample_build(self, monkeypatch, tmp_path):
        encoded = spy_relaxations(monkeypatch)
        for _, run in _certify_grid_runs()[::7]:
            _artifacts(run, tmp_path / "x.lp")
        assert len(encoded) >= 20
        for prog, relax, lp in encoded:
            assert any(interval[0] == 0.0 for _, _, _, interval, _, _ in row_records(prog, relax)[1])
            _assert_same_program(prog.sampled_referee(lp.objective), per_sample_referee(prog, lp.objective))

    def test_referee_matches_on_degenerate_interval(self):
        prog = ReferenceRows(_Program())
        zeta = prog.poly_vec(2, 3, "z")
        expr = zeta[0].scaled(-1.5) + zeta[1].deriv() - PolyExpr.from_poly([0.25, 0.0, 2.0])
        prog.add_interval_ge("flow", 0, expr, (0.0, 0.7), 1e-6)
        family, index, p, _, margin = prog.rows[0]
        prog.rows.append((family, index, p, (0.7, 0.7), margin))
        prog.add_point_ge("pin", 0, expr.eval_at(0.0), 1e-6)
        _assert_same_program(prog.sampled_referee({}), per_sample_referee(prog.prog, {}))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_eval_grid_equals_eval_at(self, data):
        nvars = data.draw(st.integers(1, 4))
        coef = st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3, allow_subnormal=False)
        coeffs = [
            LinExpr(
                {v: data.draw(coef) for v in data.draw(st.sets(st.integers(0, nvars - 1)))},
                data.draw(coef),
            )
            for _ in range(data.draw(st.integers(1, 9)))
        ]
        pexpr = PolyExpr(coeffs)
        a = data.draw(st.sampled_from([0.0, -0.25, 0.3, 2.0]))
        b = a + data.draw(st.sampled_from([0.0, 1e-3, 0.5, 3.0]))
        ts = np.linspace(a, b, 51)
        acc = analysis_mod._eval_grid(array_of(pexpr), ts)
        block, const = acc[:, 1:], acc[:, 0]
        for s, t in enumerate(ts):
            want = pexpr.eval_at(float(t))
            got = dict(enumerate(block[s].tolist()))
            assert {v: c for v, c in got.items() if c != 0.0} == {v: c for v, c in want.coeffs.items() if c != 0.0}
            assert const[s] == want.const

    @staticmethod
    def _draw_positive_system(data):
        """A small random positive impulsive system, a dwell-time spec and a
        degree; run() analyzes it and returns the certificate or the error type."""
        n = data.draw(st.integers(1, 2))
        u = lambda lo, hi: data.draw(st.floats(lo, hi, allow_subnormal=False))  # noqa: E731
        # Metzler flow matrix with timer-dependent diagonal, all else nonnegative
        A = [[[u(-3.0, 0.5), u(-1.0, 1.0)] if i == j else [u(0.0, 1.0), 0.0] for j in range(n)] for i in range(n)]
        sys = ImpulsiveSystem.from_arrays(
            A=A,
            Ec=[[u(0.0, 1.0)] for _ in range(n)],
            Cc=[[u(0.0, 1.0) for _ in range(n)]],
            Fc=[[u(0.0, 0.5)]],
            J=[[u(0.0, 1.5) for _ in range(n)] for _ in range(n)],
            Ed=[[u(0.0, 1.0)] for _ in range(n)],
            Cd=[[u(0.0, 1.0) for _ in range(n)]],
            Fd=[[u(0.0, 0.5)]],
        )
        T = data.draw(st.sampled_from([0.2, 0.5, 1.0]))
        spec = data.draw(
            st.sampled_from([DwellTimeSpec.constant(T), DwellTimeSpec.minimum(T), DwellTimeSpec.range(T, 1.5 * T)])
        )
        degree = data.draw(st.integers(1, 2))
        return sys, spec, TestEscalation._runner(sys, spec, degree)

    @staticmethod
    def _runner(sys, spec, degree):
        """run() analyzes sys under spec and returns the certificate or the error type."""

        def run():
            try:
                if spec.kind == "range":
                    return analyze_range(sys, spec.Tmin, spec.Tmax, degree)
                if spec.kind == "constant":
                    return analyze_constant(sys, spec.T, degree)
                return analyze_minimum(sys, spec.T, degree)
            except DwellgainError as exc:
                return type(exc)

        return run

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_positive_systems_match_full_schedule(self, data):
        sys, spec, run = self._draw_positive_system(data)
        got = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis_mod, "_solve_with_escalation", full_schedule_escalation)
            want = run()
        if isinstance(want, type):
            assert got is want
        else:
            assert got.to_json() == want.to_json()
            assert verify(got, sys).passed

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_positive_systems_gamma_bounds_monte_carlo(self, data):
        """A certified gamma is an upper bound, so it is never below the
        Monte-Carlo lower bound of the same system and dwell-time family."""
        sys, spec, run = self._draw_positive_system(data)
        seed = data.draw(st.integers(0, 2**16))
        cert = run()
        if isinstance(cert, type):
            return
        gen = SequenceGen.for_spec(spec, seed=seed)
        assert cert.gamma >= estimate_gain(sys, gen, runs=3, horizon=10.0, clamp=spec.clamp)


def _outcome(run):
    """run()'s certificate, or the class of the error it raises."""
    try:
        return run()
    except DwellgainError as exc:
        return type(exc)


def _shortfall(cert, target) -> float:
    """The most by which a row family's smallest value in verify falls below
    the margin its LP imposed: jump_margin on jump rows, 0 on pin_hi and
    couple rows, margin on every other row."""
    def margin(family):
        if family.startswith("jump"):
            return cert.jump_margin
        return 0.0 if family.startswith(("pin_hi", "couple")) else cert.margin

    return max(margin(f) - v for f, v in verify(cert, target).worst_slack.items())


class TestBernsteinRows:
    """_Program imposes the degree-D Bernstein cone by D + 1 coefficient
    rows; against the product-basis cone of the same order,
    conftest.per_row_cone_rows, no analysis ends worse: it fails
    only where the cone fails, it certifies at no higher order, verify passes,
    and at an equal order gamma is equal within 1e-7 relative, or 1e-7
    absolute: the two cones are equal, but HiGHS solves each program only to
    its 1e-7 primal and dual tolerances on the unit-norm rows.  On random
    systems the cone's solution may also fall short of a row's margin, within
    the solver's tolerance; its gamma may then be lower by more."""

    @staticmethod
    def _never_worse(target, run):
        """The outcome checks above; the two certificates when both certify
        at the same order, else None."""
        got = _outcome(run)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Program, "relaxation",
                       lambda prog, relax, objective: per_row_relaxation(prog, relax, objective, per_row_cone_rows))
            want = _outcome(run)
        if isinstance(got, type):
            assert isinstance(want, type), f"the cone certifies, the Bernstein rows raise {got.__name__}"
            return None
        assert verify(got, target).passed
        if isinstance(want, type):
            return None
        assert got.relax <= want.relax
        return (got, want) if got.relax == want.relax else None

    def _random_system_checks(self, sys, run):
        pair = self._never_worse(sys, run)
        if pair is None:
            return
        got, want = pair
        if got.gamma != pytest.approx(want.gamma, rel=1e-7, abs=1e-7):
            assert _shortfall(want, sys) > 1e-9 * (1.0 + want.gamma)
            assert got.gamma > want.gamma

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_positive_systems(self, data):
        sys, _, run = TestEscalation._draw_positive_system(data)
        self._random_system_checks(sys, run)

    @pytest.mark.parametrize(
        "arrays, dwell, degree",
        [
            # the Bernstein gamma lower by 1e-8: its out_c row falls short by that much
            (dict(A=[[[0.0]]], Fc=[[1e-8]]), "constant:0.2", 1),
            # both gammas feasible, the cone's 4.3e-8 higher
            (dict(A=[[[-1.5], [1.0]], [[0.0], [-1.5]]], Ec=[[0.0], [1.0]], Cc=[[0.25, 0.0]],
                  J=[[0.0, 1e-6], [5.960464477539063e-08, 0.375]], Ed=[[1.0], [0.0]]), "constant:1", 1),
            # both feasible, the Bernstein gamma 7.8e-8 higher
            (dict(A=[[[1e-08, -0.7696902271690274]]], Cc=[[0.9356248625304746]], Fc=[[0.20279271894664036]],
                  J=[[0.2777767477584692]], Ed=[[0.3820162010711857]], Cd=[[0.9969225979916649]],
                  Fd=[[0.20279271894664036]]), "minimum:0.5", 2),
            # the Bernstein gamma 3.3e-8 (relative 3.3e-6) higher; the cone's falls short by 1e-10
            (dict(A=[[[0.0, -0.5]]], Cc=[[1.0]]), "minimum:0.2", 2),
        ],
    )
    def test_pinned_draws(self, arrays, dwell, degree):
        """Draws of test_random_positive_systems on which both programs
        certify at one order with gammas more than 1e-7 relative apart."""
        n = len(arrays["A"])
        zeros = {"Ec": [[0.0]] * n, "Cc": [[0.0] * n], "Fc": [[0.0]], "J": [[0.0] * n] * n,
                 "Ed": [[0.0]] * n, "Cd": [[0.0] * n], "Fd": [[0.0]]}
        sys = ImpulsiveSystem.from_arrays(**{**zeros, **arrays})
        self._random_system_checks(sys, TestEscalation._runner(sys, DwellTimeSpec.parse(dwell), degree))

    @pytest.mark.xfail(
        raises=NumericalFailure, strict=False,
        reason="the out_d row's 8.3e-13 entry is below HiGHS's small_matrix_value, so every order's "
               "solution violates it by 8.27e-7 (ROADMAP item 1: a scale-aware LP acceptance test)",
    )
    def test_tiny_discrete_output_draw(self):
        """A draw of test_random_positive_systems (Hypothesis seed 222): its
        true gain is 0, so gamma = margin = 1e-6 is the answer, which the
        product-basis cone certifies at order +4."""
        zeros = {"Ec": [[0.0]], "Cc": [[0.0]], "Fc": [[0.0]], "Ed": [[0.0]], "Fd": [[0.0]]}
        sys = ImpulsiveSystem.from_arrays(A=[[[-1.0]]], J=[[1.0]], Cd=[[8.265803520048773e-13]], **zeros)
        got = analyze_constant(sys, 0.2, 1)
        assert got.gamma == pytest.approx(DEFAULT_MARGIN, rel=1e-7) and got.relax == RELAX_SCHEDULE[0]
        assert verify(got, sys).passed

    @pytest.mark.xfail(
        raises=RelaxationLimit, strict=False,
        reason="the out_c row's 1e-12 entry is below HiGHS's small_matrix_value, so every order's "
               "solution violates it by 1.04e-6 (ROADMAP item 1: a scale-aware LP acceptance test)",
    )
    def test_tiny_continuous_output_draw(self):
        """A draw of test_random_positive_systems: A(tau) = tau, Cc = 1e-12,
        J = 0.5.  Its true gain is 0, so gamma = margin = 1e-6 is the
        answer, which the product-basis cone certifies."""
        zeros = {"Ec": [[0.0]], "Fc": [[0.0]], "Ed": [[0.0]], "Cd": [[0.0]], "Fd": [[0.0]]}
        sys = ImpulsiveSystem.from_arrays(A=[[[0.0, 1.0]]], Cc=[[1e-12]], J=[[0.5]], **zeros)
        got = analyze_constant(sys, 0.2, 1)
        assert got.gamma == pytest.approx(DEFAULT_MARGIN, rel=1e-7) and verify(got, sys).passed
        self._random_system_checks(sys, TestEscalation._runner(sys, DwellTimeSpec.constant(0.2), 1))

    def test_certify_grid_analyses(self):
        """The certify-grid analyses."""
        sw = benchmarks.two_mode_switched_bench()
        for label, run in _certify_grid_runs():
            if label.startswith("design"):
                continue
            target = sw if label.startswith("switched") else getattr(benchmarks, label.split()[1])()
            pair = self._never_worse(target, lambda run=run: run(None))
            if pair is not None:
                assert pair[0].gamma == pytest.approx(pair[1].gamma, rel=1e-7), label

    DOMINATED_GAMMA = {
        ("lti_jump_bench", 0.12): 0.93050,
        ("lti_jump_bench", 0.2): 1.02447,
        ("timer_growth_bench", 0.12): 0.57569,
        ("timer_growth_bench", 0.2): 0.70385,
        ("lti_jump_bench", 2.7): 1.22347,
    }

    @pytest.mark.parametrize("bench, T", list(DOMINATED_GAMMA))
    def test_dominated_range_certifies(self, bench, T):
        """Degree-6 range analyses on [T, 1.5 T] whose dominated form (jump
        rows at a vector mu >= zeta, a program no longer offered: the plain
        one is never worse) failed numerically at every order under the
        product-basis cone (the first four), or, with the coefficient rows as
        plain >= rows, returned a certificate at T = 2.7 that verify refused.
        Each certifies at the first order."""
        s = getattr(benchmarks, bench)()
        c = analyze_range(s, T, float(f"{1.5 * T:.5g}"), 6)
        assert c.relax == RELAX_SCHEDULE[0] and c.gamma == pytest.approx(self.DOMINATED_GAMMA[bench, T], rel=1e-5)
        assert verify(c, s).passed
        assert cross_check_discrete(c, s).passed


def _timer_stable(A=None, J=None) -> ImpulsiveSystem:
    """timer_stable_bench with its flow or jump matrix replaced."""
    return ImpulsiveSystem.from_arrays(
        A=A or [[[-1.0], [0.0]], [[1.0, 1.0], [-2.0, 0.0, -1.0]]],
        Ec=[[[0.1]], [[0.1, 0.0, 1.0]]],
        Cc=[[[0.0, 1.0], [1.0]]],
        Fc=[[[0.03, 0.1]]],
        J=J or [[2.0, 1.0], [1.0, 3.0]],
        Ed=[[0.3], [0.3]],
        Cd=[[0.0, 1.0]],
        Fd=[[0.03]],
    )


def _stiff(rho: float, T: float = 0.01) -> ImpulsiveSystem:
    """Metzler flow with a fast mode, A = [[-1000, 0], [1, -1]], and a jump
    that makes rho(J Phi(T)) = rho: J Phi(T) is lower triangular with the
    diagonal rho, exp(-T)."""
    return ImpulsiveSystem.from_arrays(
        A=[[-1000.0, 0.0], [1.0, -1.0]],
        Ec=[[0.1], [0.1]],
        Cc=[[0.0, 1.0]],
        Fc=[[0.1]],
        J=[[rho * math.exp(1000.0 * T), 0.0], [0.0, 1.0]],
        Ed=[[0.3], [0.3]],
        Cd=[[0.0, 1.0]],
        Fd=[[0.03]],
    )


def _orbit(sys, spec, margin=DEFAULT_MARGIN, jump_margin=DEFAULT_JUMP_MARGIN):
    return analysis_mod._unstable_orbit(sys, spec, margin, jump_margin)


class TestUnstableOrbit:
    """analysis._unstable_orbit refuses a dwell set before any LP is built;
    wherever it does, the LPs of every order, solved with the test off,
    certify nothing."""

    @staticmethod
    def _never_certifies(run):
        """run() with the test off and every order of the schedule tried."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis_mod, "_unstable_orbit", lambda *args: None)
            mp.setattr(analysis_mod, "_solve_with_escalation", full_schedule_escalation)
            got = _outcome(run)
        assert isinstance(got, type), f"order +{got.relax} certifies gamma = {got.gamma}"

    def test_certify_grid_analyses(self):
        """The 162 certify-grid analyses: 3 systems, 3 kinds, 6 dwell times, degrees 2, 4 and 6."""
        fired = set()
        for bench in ("lti_jump_bench", "timer_growth_bench", "timer_stable_bench"):
            s = getattr(benchmarks, bench)()
            for T in CERTIFY_GRID_T:
                Tmax = float(f"{1.5 * T:.5g}")
                for spec in (DwellTimeSpec.constant(T), DwellTimeSpec.minimum(T), DwellTimeSpec.range(T, Tmax)):
                    reason = _orbit(s, spec)
                    if reason is None:
                        continue
                    for degree in (2, 4, 6):
                        run = {
                            "constant": lambda d=degree: analyze_constant(s, T, d),
                            "minimum": lambda d=degree: analyze_minimum(s, T, d),
                            "range": lambda d=degree: analyze_range(s, T, Tmax, d),
                        }[spec.kind]
                        with pytest.raises(Infeasible, match=f"^conditions infeasible \\({re.escape(reason)}\\)$"):
                            run()
                        self._never_certifies(run)
                        fired.add((bench, str(spec)))
        assert len(fired) == 22

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_positive_systems(self, data):
        sys, spec, run = TestEscalation._draw_positive_system(data)
        if _orbit(sys, spec) is not None:
            assert run() is Infeasible
            self._never_certifies(run)

    def test_fires_on_each_reason(self, bench_timer_growth, bench_timer_stable):
        assert _orbit(bench_timer_growth, DwellTimeSpec.minimum(0.5)) == (
            "A(T) is not Hurwitz at T = 0.5: spectral abscissa >= 1.25")
        assert _orbit(bench_timer_stable, DwellTimeSpec.range(0.5, 0.75)).startswith("rho(J Phi(theta)) >= 2.04")
        assert _orbit(bench_timer_stable, DwellTimeSpec.arbitrary()) is None
        # a second, expansive jump map is named by its index
        two = ImpulsiveSystem.from_arrays(
            A=[[-1.0]], Ec=[[0.1]], Cc=[[1.0]], Fc=[[0.0]], J=[[0.5]], Ed=[[0.1]], Cd=[[1.0]], Fd=[[0.0]],
            extra_jumps=[{"J": [[4.0]], "Ed": [[0.1]], "Cd": [[1.0]], "Fd": [[0.0]]}],
        )
        assert _orbit(two, DwellTimeSpec.constant(0.5)) == "rho(J[1] Phi(theta)) >= 2.426 at theta = 0.5"

    def test_negative_jump_entry(self):
        # the orbit test reads a positive system only: the gate refuses the
        # system before the test is reached
        assert _orbit(_timer_stable(), DwellTimeSpec.constant(0.5)) is not None
        s = _timer_stable(J=[[2.0, -1e-9], [1.0, 3.0]])
        for run in (lambda: analyze_constant(s, 0.5, 2), lambda: analyze_range(s, 0.2, 0.3, 2)):
            with pytest.raises(NotPositive, match=r"^not positive on \[0, 0\.[35]\]: jumps\[0\]\.J\[0, 1\]$"):
                run()

    def test_non_metzler_flow(self):
        # A[1][0] = 1 - 4 tau is nonnegative on [0, 0.25] only
        A = [[[-1.0], [0.0]], [[1.0, -4.0], [-2.0, 0.0, -1.0]]]
        s = _timer_stable(A=A)
        assert _orbit(s, DwellTimeSpec.constant(0.2)) is not None
        with pytest.raises(Infeasible, match=r"rho\(J Phi\(theta\)\)"):
            analyze_constant(s, 0.2, 2)
        for run in (lambda: analyze_constant(s, 0.5, 2), lambda: analyze_range(s, 0.2, 0.3, 2),
                    lambda: analyze_minimum(s, 0.5, 2)):
            with pytest.raises(NotPositive, match=r": A\[1, 0\]$"):
                run()

    def test_margin_zero(self, bench_timer_stable):
        spec = DwellTimeSpec.constant(0.5)
        assert _orbit(bench_timer_stable, spec, margin=1e-9) is not None
        assert _orbit(bench_timer_stable, spec, margin=0.0) is None
        assert _orbit(bench_timer_stable, spec, jump_margin=-1e-9) is None

    def test_stiff_stable_flow(self):
        """rho just below 1 behind a fast mode: one RK4 mesh alone reads
        rho(J Phi(T)) = 1.0004, the half-step mesh does not let it fire."""
        spec = DwellTimeSpec.constant(0.01)
        assert _orbit(_stiff(1.0 - 1e-5), spec) is None
        assert _orbit(_stiff(1.0 + 1e-2), spec) == "rho(J Phi(theta)) >= 1.01 at theta = 0.01"


class TestPositivityGate:
    """Every analysis refuses a system that model.check_positive does not
    prove positive, before any LP is built: the theorems hold for positive
    systems only."""

    @pytest.fixture
    def no_lp(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an LP was solved for a system that is not positive")

        monkeypatch.setattr(analysis_mod, "lp_solve", forbidden)

    def test_nonpositive_rotation(self, nonpositive_rotation, no_lp):
        s = nonpositive_rotation
        runs = {
            r"on \[0, 1\]": [lambda: analyze_constant(s, 1.0, 2), lambda: analyze_minimum(s, 1.0, 2),
                              lambda: analyze_range(s, 0.5, 1.0, 2)],
            "at tau = 0": [lambda: analyze_arbitrary(s), lambda: analyze_lti(s), lambda: analyze_lti(s, norm="L1")],
        }
        for where, group in runs.items():
            for run in group:
                with pytest.raises(NotPositive, match=f"^not positive {where}: A\\[0, 1\\]$"):
                    run()

    def test_lti_checks_only_the_data_it_reads(self):
        """analyze_lti reads (A, Ec, Cc, Fc) in continuous time and the first
        jump map (J, Ed, Cd, Fd) in discrete time, and checks only those."""
        flow_ok = ImpulsiveSystem.from_arrays(A=[[-1.0]], Ec=[[1.0]], Cc=[[1.0]], Fc=[[0.0]], J=[[-0.5]])
        for norm in ("Linf", "L1"):
            assert analyze_lti(flow_ok, norm, "continuous")[0] == pytest.approx(1.0, rel=1e-7)
            with pytest.raises(NotPositive, match=r"^not positive at tau = 0: jumps\[0\]\.J\[0, 0\]$"):
                analyze_lti(flow_ok, norm, "discrete")
        jump_ok = ImpulsiveSystem.from_arrays(A=[[-1.0, -1.0], [0.0, -1.0]], Ec=np.zeros((2, 1)), Cc=np.zeros((1, 2)),
                                              J=0.5 * np.eye(2), Ed=[[1.0], [1.0]], Cd=[[1.0, 1.0]])
        for norm in ("Linf", "L1"):
            # x+ = x / 2 + 1 settles at x = 2, so z = Cd x = 4
            assert analyze_lti(jump_ok, norm, "discrete")[0] == pytest.approx(4.0, rel=1e-7)
            with pytest.raises(NotPositive, match=r"^not positive at tau = 0: A\[0, 1\]$"):
                analyze_lti(jump_ok, norm, "continuous")

    def test_switched_mode_not_metzler(self, bench_switched, no_lp):
        modes = [{k: md[k] for k in "ABECDF"} for md in bench_switched.modes]
        modes[1]["A"] = [[-1.0, -1.0], [1.0, -6.0]]
        sw = SwitchedSystem.from_arrays(modes)
        for run in (lambda: analyze_switched_min(sw, 0.5, 2), lambda: analyze_switched_blanchini(sw, 0.5),
                    lambda: analyze_constant(sw, 0.5, 2), lambda: analyze_range(sw, 0.25, 0.5, 2)):
            with pytest.raises(NotPositive, match=r"^not positive on \[0, 0\.5\]: modes\[1\]\.A\[0, 1\]$"):
                run()
        with pytest.raises(NotPositive, match=r"^not positive at tau = 0: modes\[1\]\.A\[0, 1\]$"):
            analyze_arbitrary(sw)

    def test_unverified_entry_is_refused(self):
        # A[1, 0] = (1 - 2 tau)^2 >= 0 touches 0 inside [0, 1]: no Bernstein
        # order proves it, so the gate refuses it as unverified
        A = [[[-1.0], [0.0]], [[1.0, -4.0, 4.0], [-2.0, 0.0, -1.0]]]
        s = ImpulsiveSystem.from_arrays(A=A, Ec=[[0.1], [0.1]], Cc=[[0.0, 1.0]], J=[[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(NotPositive, match=r": A\[1, 0\] \(unverified\)$"):
            analyze_constant(s, 1.0, 2)
        assert analyze_constant(s, 0.4, 2).gamma > 0


class TestCertificateObject:
    def test_json_round_trip(self, bench_timer_growth, tmp_path):
        cert = analyze_constant(bench_timer_growth, 0.3, 4)
        path = tmp_path / "cert.json"
        cert.save(str(path))
        loaded = Certificate.load(str(path))
        assert loaded.gamma == cert.gamma
        assert loaded.kind == cert.kind
        assert str(loaded.dwell) == str(cert.dwell)
        assert [z.coeffs for z in loaded.zeta] == [z.coeffs for z in cert.zeta]

    @pytest.mark.parametrize("T", [1 / 3, 0.123456789])
    def test_dwell_round_trips_exactly(self, bench_timer_growth, tmp_path, T):
        cert = analyze_constant(bench_timer_growth, T, 4)
        path = tmp_path / "cert.json"
        cert.save(str(path))
        loaded = Certificate.load(str(path))
        assert loaded.dwell.T == T
        assert verify(loaded, bench_timer_growth).to_json() == verify(cert, bench_timer_growth).to_json()

    def test_short_dwell_file_unchanged(self, bench_timer_growth, tmp_path):
        # the fixture was written when the dwell field was str(dwell)
        with open(DATA / "timer_growth_constant_0.3.json") as fh:
            stored = json.load(fh)["dwell"]
        cert = analyze_constant(bench_timer_growth, 0.3, 4)
        assert cert.to_json()["dwell"] == stored == str(cert.dwell) == "constant:0.3"
        path = tmp_path / "cert.json"
        cert.save(str(path))
        assert '"dwell": "constant:0.3",' in path.read_text()

    def test_zeta_positive_at_origin(self, bench_timer_growth):
        cert = analyze_constant(bench_timer_growth, 0.3, 4)
        assert all(z.eval(0.0) > 0 for z in cert.zeta)


def per_row_bernstein_rows(lp, name, q, order, margin):
    """Oracle for the Bernstein rows of _Program: every row expands s^k in the
    degree-D Bernstein basis again, s^k = s^k (s + 1 - s)^(D - k), so the
    weight of q_k in b_i is C(D - k, i - k) / C(D, i), an exact fraction
    rounded once."""
    q = ref_expr(q)
    for i in range(order + 1):
        slack = lp.new_var(0.0, None, name=f"{name}_b{i}")
        row = {slack: -1.0}
        const = 0.0
        for k in range(min(i, q.degree) + 1):
            w = float(Fraction(math.comb(order - k, i - k), math.comb(order, i)))
            for v, c in q.coeffs[k].coeffs.items():
                row[v] = row.get(v, 0.0) + w * c
            const += w * q.coeffs[k].const
        add_eq(lp, row, margin - const)


def per_row_reference_relaxation(prog, relax, objective):
    """The per-row relaxation of the reference expansions: the Bernstein
    rows of per_row_bernstein_rows, a design's cone of per_row_cone_rows."""
    design = isinstance(prog, synthesis_mod._DesignProgram)
    return per_row_relaxation(prog, relax, objective, per_row_cone_rows if design else per_row_bernstein_rows)


class TestBlockEncoder:
    """_Program.relaxation writes each run of consecutive rows of one shape
    as one row block; its rows, bounds and names, the arrays _assemble hands
    to HiGHS and the dump_lp text equal those of the per-row oracle
    (conftest.per_row_relaxation), and the sampled referee equals
    conftest.per_sample_referee, on drawn analysis and design programs whose
    runs break on interval, length and width, with and without decision
    columns, and with constants and margins of -0.0."""

    _INTERVALS = ((0.0, 0.5), (0.0, 1.0), (0.25, 0.75))

    @classmethod
    def _program(cls, data):
        prog = synthesis_mod._DesignProgram() if data.draw(st.booleans()) else _Program()
        ncols = data.draw(st.integers(0, 3))
        for v in range(ncols):
            prog.scalar(lo=data.draw(st.sampled_from([None, 0.0, -1.5])), name=f"v{v}")
        shape = None
        for r in range(data.draw(st.integers(1, 8))):
            # mostly the last row's shape again, so that runs form
            if shape is None or not data.draw(st.booleans()):
                shape = data.draw(st.sampled_from([None, *cls._INTERVALS])), data.draw(st.integers(1, 3))
            interval, n = shape
            width = 1 + data.draw(st.integers(0, ncols))
            margin = data.draw(st.sampled_from([0.0, -0.0, 1e-6, 1e-2]))
            e = np.array([[data.draw(_COEF) for _ in range(width)] for _ in range(1 if interval is None else n)])
            if interval is None:
                prog.add_point_ge("pt", r, e[0], margin)
            else:
                prog.add_interval_ge("iv", r, analysis_mod._trim(e), interval, margin)
        return prog

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_per_row_oracle(self, data):
        prog = self._program(data)
        objective = {0: 1.0} if prog.columns.num_vars else {}
        with tempfile.TemporaryDirectory() as tmp:
            for relax in (0, 4):
                got, want = prog.relaxation(relax, objective), per_row_relaxation(prog, relax, objective)
                sign = lambda lp: [math.copysign(1.0, rhs) for _, _, rhs in lp.rows]  # noqa: E731
                assert sign(got) == sign(want)
                assert dict(got.bounds) == dict(want.bounds) and dict(got.names) == dict(want.names)
                _assert_same_program(got, want)
                texts = []
                for i, lp in enumerate((got, want)):
                    dump_lp(lp, f"{tmp}/{i}.lp")
                    texts.append(Path(f"{tmp}/{i}.lp").read_bytes())
                assert texts[0] == texts[1]
        _assert_same_program(prog.sampled_referee(objective), per_sample_referee(prog, objective))


class TestLpBuildOracle:
    """Programs built as row blocks from the cached Bernstein weights
    (analyses) and the product-basis table (designs) equal, row for row and
    array for array, those built row by row from the per-row expansions and
    the lil assembly."""

    @staticmethod
    def _solved(monkeypatch, tmp_path, run, reference):
        """Rows, assembly and dump_lp text of every LP that `run` solves."""
        assemble = lil_assemble if reference else lp_mod._assemble
        real = lp_mod._assemble
        seen = []

        def spy(prog):
            dump_lp(prog, str(tmp_path / "prog.lp"))
            rows = [(list(coeffs.items()), rel, rhs) for coeffs, rel, rhs in prog.rows]
            seen.append((rows, assemble(prog), (tmp_path / "prog.lp").read_bytes()))
            return real(prog)

        with monkeypatch.context() as m:
            m.setattr(lp_mod, "_assemble", spy)
            if reference:
                m.setattr(_Program, "relaxation", per_row_reference_relaxation)
            try:
                out = run()
            except DwellgainError as exc:
                out = type(exc).__name__
        return seen, out

    def _check(self, monkeypatch, tmp_path, run):
        got, out = self._solved(monkeypatch, tmp_path, run, reference=False)
        want, out_r = self._solved(monkeypatch, tmp_path, run, reference=True)
        assert got and len(got) == len(want)
        for (rows, asm, text), (rows_r, asm_r, text_r) in zip(got, want):
            # as dicts: the reference lists a row's columns in the order its
            # terms arise, the arrays in column order; _assemble and dump_lp
            # sort them
            assert [(dict(c), rel, rhs) for c, rel, rhs in rows] == [(dict(c), rel, rhs) for c, rel, rhs in rows_r]
            assert_same_assembly(asm, asm_r)
            assert text == text_r
        return out, out_r

    @pytest.mark.parametrize("relax", [4, 10])
    @pytest.mark.parametrize("degree", [0, 2, 4])
    @pytest.mark.parametrize("kind", ["constant", "minimum", "range"])
    def test_analysis(self, monkeypatch, tmp_path, bench_timer_growth, bench_timer_stable,
                      kind, degree, relax):
        def run():
            sched = (relax,)
            if kind == "constant":
                return analyze_constant(bench_timer_growth, 0.3, degree, relax_schedule=sched)
            if kind == "range":
                return analyze_range(bench_timer_growth, 0.3, 0.45, degree, relax_schedule=sched)
            # timer_growth is never stable under minimum dwell
            return analyze_minimum(bench_timer_stable, 1.9, degree, relax_schedule=sched)

        out, out_r = self._check(monkeypatch, tmp_path, run)
        if isinstance(out, Certificate):
            assert out.to_json() == out_r.to_json()
        else:
            assert out == out_r

    def test_switched_min(self, monkeypatch, tmp_path, bench_switched):
        out, out_r = self._check(
            monkeypatch, tmp_path, lambda: analyze_switched_min(bench_switched, 0.5, 2)
        )
        assert out.to_json() == out_r.to_json()

    def test_synthesize(self, monkeypatch, tmp_path, bench_chain_plant, bench_pair_plant):
        for plant in (bench_chain_plant, bench_pair_plant):
            for spec, fixed_kd in CERTIFY_GRID_DESIGNS:
                out, out_r = self._check(
                    monkeypatch, tmp_path, lambda: synthesize(plant, spec, 2, fixed_kd=fixed_kd)
                )
                if isinstance(out, str):
                    assert out == out_r
                else:
                    assert out.to_json() == out_r.to_json()

    def test_degenerate_interval(self, monkeypatch, tmp_path):
        def run():
            prog = ReferenceRows(_Program())
            gamma = prog.scalar(lo=0.0, name="gamma")
            z = prog.poly_vec(1, 2, "z")[0]
            prog.add_interval_ge("flat", 0, z - PolyExpr.from_poly([0.5]), (0.7, 0.7), 0.0)
            prog.add_interval_ge("wide", 0, z, (0.0, 2.0), 1e-3)
            prog.add_point_ge("cap", 0, z.eval_at(1.0) - gamma, -2.0)
            return analysis_mod.lp_solve(prog.relaxation(4, {gamma: 1.0})).status

        out, out_r = self._check(monkeypatch, tmp_path, run)
        assert out == out_r == "Optimal"


class TestSwitchedFoldOracle:
    """analyze_switched_min solves the minimum-dwell program of the lift
    (model.lift_switched), as analyze_minimum(lift, jump_margin=0) does.
    Its program is that of the per-mode loops, kept as
    conftest.reference_switched_min, row for row and in order up to the
    family names: the lift's jump rows of the inactive blocks, zeta_k(0) >=
    0, which the pin rows imply, are not written.  So its gamma and zeta
    equal the oracle's, and its certificate passes verify and the
    cross-check."""

    def _check(self, monkeypatch, sw, T, degree):
        got, rows = first_program_rows(monkeypatch, lambda: analyze_switched_min(sw, T, degree))
        want, rows_r = first_program_rows(monkeypatch, lambda: reference_switched_min(sw, T, degree))
        N, n = sw.N, sw.n
        assert rows == rows_r
        assert got.kind == "SwitchedMinDT" and [len(z) for z in got.zeta] == [n] * N
        assert got.relax == want.relax
        assert got.gamma == want.gamma and got.zeta == want.zeta
        assert verify(got, sw).passed and cross_check_discrete(got, sw).passed
        lifted = analyze_minimum(lift_switched(sw), T, degree, jump_margin=0.0)
        assert lifted.gamma == got.gamma and lifted.zeta == [z for zs in got.zeta for z in zs]

    @pytest.mark.parametrize("degree", [2, 4])
    @pytest.mark.parametrize("T", [0.05, 0.1, 0.3, 0.5, 1.0])
    def test_same_programs_and_certificate(self, monkeypatch, bench_switched, T, degree):
        self._check(monkeypatch, bench_switched, T, degree)

    @pytest.mark.parametrize("degree", [2, 4])
    @pytest.mark.parametrize("T", [0.1, 0.3, 1.0])
    def test_three_modes(self, monkeypatch, bench_three_mode, T, degree):
        self._check(monkeypatch, bench_three_mode, T, degree)


class TestBlanchiniOracle:
    """analyze_switched_blanchini writes its rows through analysis._Program;
    its LP, as dump_lp writes it, and its value equal those of the LP it
    wrote by hand, kept as conftest.reference_blanchini."""

    @staticmethod
    def _solved(monkeypatch, tmp_path, run):
        """run()'s value or error class, and the dump_lp text of every LP it solves."""
        texts = []
        real = analysis_mod.lp_solve

        def solve(lp):
            dump_lp(lp, str(tmp_path / "blanchini.lp"))
            texts.append((tmp_path / "blanchini.lp").read_text())
            return real(lp)

        with monkeypatch.context() as m:
            m.setattr(analysis_mod, "lp_solve", solve)
            try:
                out = run()
            except DwellgainError as exc:
                out = type(exc).__name__
        return out, texts

    @pytest.mark.parametrize("grid_points", [2, 11, 101])
    @pytest.mark.parametrize("T", [0.1, 0.3, 0.5, 1.0, 2.0])  # the dwell times of tools/artifact_hashes.py
    def test_same_lp_and_value(self, monkeypatch, tmp_path, bench_switched, T, grid_points):
        got, texts = self._solved(monkeypatch, tmp_path, lambda: analyze_switched_blanchini(bench_switched, T,
                                                                                          grid_points))
        want, texts_r = self._solved(monkeypatch, tmp_path, lambda: reference_blanchini(bench_switched, T,
                                                                                        grid_points))
        assert got == want
        assert len(texts) == 1 and texts == texts_r


class TestArbitraryFoldOracle:
    """analyze_arbitrary builds its rows with _gain_rows_constant_like, a
    degree-0 zeta at the single timer value 0; the programs and certificates
    equal those of its own loops, kept as conftest.reference_analyze_arbitrary.
    The rows are equal as dicts: a jump row of state i > 0 lists zeta_i first,
    which the assembled arrays do not see."""

    @staticmethod
    def _solved(monkeypatch, tmp_path, run):
        seen, out = TestLpBuildOracle._solved(monkeypatch, tmp_path, run, False)
        # the LP texts differ in the variable names (zeta<i>_c0 against lam<i>)
        return [([(dict(items), rel, rhs) for items, rel, rhs in rows], asm) for rows, asm, _ in seen], out

    @pytest.mark.parametrize(
        "bench, margins",
        [
            ("lti_jump_bench", ()),
            ("lti_jump_bench", (0.0, 0.0)),
            ("lti_jump_bench", (1e-3, 0.1)),
            ("lifted_two_mode", (0.0, 0.0)),
        ],
    )
    def test_same_program_and_certificate(self, monkeypatch, tmp_path, bench, margins):
        s = (lift_switched(benchmarks.two_mode_switched_bench()) if bench == "lifted_two_mode"
             else getattr(benchmarks, bench)())
        got, out = self._solved(monkeypatch, tmp_path, lambda: analyze_arbitrary(s, *margins))
        want, out_r = self._solved(monkeypatch, tmp_path, lambda: reference_analyze_arbitrary(s, *margins))
        assert len(got) == len(want) == 1
        (rows, asm), (rows_r, asm_r) = got[0], want[0]
        assert rows == rows_r
        assert all(np.array_equal(x, y) for x, y in zip(asm, asm_r))
        assert out.to_json() == out_r.to_json()

    @pytest.mark.parametrize("bench", ["unstable_chain_plant", "unstable_pair_plant"])
    def test_same_infeasible(self, monkeypatch, tmp_path, bench):
        """The chain plant's program is infeasible; the pair plant, with
        A[0, 1] = -1, is not positive and is refused before any LP is built."""
        s = getattr(benchmarks, bench)()
        got, out = self._solved(monkeypatch, tmp_path, lambda: analyze_arbitrary(s))
        _, out_r = self._solved(monkeypatch, tmp_path, lambda: reference_analyze_arbitrary(s))
        assert out_r == "Infeasible"
        if bench == "unstable_pair_plant":
            assert got == [] and out == "NotPositive"
            with pytest.raises(NotPositive, match=r"^not positive at tau = 0: A\[0, 1\]$"):
                analyze_arbitrary(s)
            return
        assert out == "Infeasible"
        with pytest.raises(Infeasible, match=r"conditions infeasible \(finite LP\)"):
            analyze_arbitrary(s)


def _with_inputs(s: ImpulsiveSystem) -> ImpulsiveSystem:
    """s with one nonnegative control input on each channel."""
    jm = s.jump
    return ImpulsiveSystem.from_arrays(
        A=s.A, Ec=s.Ec, Cc=s.Cc, Fc=s.Fc, J=jm.J, Ed=jm.Ed, Cd=jm.Cd, Fd=jm.Fd,
        Bc=np.full((s.n, 1), 0.5), Dc=np.full((s.qc, 1), 0.2),
        Bd=np.full((s.n, 1), 1.0), Dd=np.full((s.qd, 1), 0.3),
    )


# the design specs of tools/artifact_hashes.py, then one-dwell ranges under
# fixed K_d: exactly [0.2, 0.2] and narrower than the 1e-12 collapse
FOLD_DESIGNS = (
    (DwellTimeSpec.constant(0.1), False),
    (DwellTimeSpec.constant(0.3), False),
    (DwellTimeSpec.minimum(0.2), False),
    (DwellTimeSpec.minimum(0.5), False),
    (DwellTimeSpec.range(0.1, 0.3), False),
    (DwellTimeSpec.range(0.1, 0.3), True),
    (DwellTimeSpec.range(0.2, 0.2), False),
    (DwellTimeSpec.arbitrary(), False),
    (DwellTimeSpec.range(0.2, 0.2), True),
    (DwellTimeSpec.range(0.2, 0.2000000000001), False),
    (DwellTimeSpec.range(0.2, 0.2000000000001), True),
)


# the design families that took the analysis names when the theorem rows of
# both went through analysis._Mode and analysis._jump_rows
DESIGN_RENAMES = ((b"perf_flow", b"flow"), (b"perf_out_c", b"out_c"), (b"perf_jump", b"jump[0]"),
                  (b"perf_out_d", b"out_d[0]"))


def _renamed(text: bytes) -> bytes:
    for old, new in DESIGN_RENAMES:
        text = text.replace(old, new)
    return text


class TestJumpRowFoldOracle:
    """The jump-row families of _gain_rows_constant_like and synthesize are
    each written once, a single dwell being the interval [lo, lo], and the
    theorem rows of both go through analysis._Mode and analysis._jump_rows;
    their programs (rows as dicts, assembled arrays, dump_lp text, the design
    families under their analysis names) and certificates or controllers
    equal those of the two-branch builders, kept as
    conftest.reference_gain_rows_constant_like and conftest.reference_synthesize."""

    @staticmethod
    def _solved(monkeypatch, tmp_path, run):
        seen, out = TestLpBuildOracle._solved(monkeypatch, tmp_path, run, False)
        return [([(dict(items), rel, rhs) for items, rel, rhs in rows], asm, text) for rows, asm, text in seen], out

    def _same(self, monkeypatch, tmp_path, run, run_r):
        """Assert that run and run_r solve equal programs to equal outcomes; return run's."""
        got, out = self._solved(monkeypatch, tmp_path, run)
        want, out_r = self._solved(monkeypatch, tmp_path, run_r)
        assert len(got) == len(want)
        for (rows, asm, text), (rows_r, asm_r, text_r) in zip(got, want):
            assert rows == rows_r
            assert all(np.array_equal(x, y) for x, y in zip(asm, asm_r))
            assert text == _renamed(text_r)
        if isinstance(out, str):
            assert out == out_r
        else:
            assert json.dumps(out.to_json(), sort_keys=True) == json.dumps(out_r.to_json(), sort_keys=True)
        return out

    @pytest.mark.parametrize(
        "dwell, timers",
        [
            ("arbitrary", (0.0, 0.0)),
            ("constant:0.3", (0.3, 0.3)),
            ("minimum:0.3", (0.3, 0.3)),
            ("range:0.3:0.45", (0.3, 0.45)),
            ("range:0.3:0.3", (0.3, 0.3)),
            ("range:0.3:0.3000000000001", (0.3, 0.3)),
            ("range:0.3:0.300000000002", (0.3, 0.300000000002)),
        ],
    )
    def test_jump_timers(self, dwell, timers):
        """The dwells the jump rows hold at; a range narrower than 1e-12 is the one dwell Tmin."""
        assert analysis_mod._jump_timers(DwellTimeSpec.parse(dwell)) == timers

    @pytest.mark.parametrize("degree", [2, 4])
    @pytest.mark.parametrize(
        "bench, dwell",
        [
            ("lti_jump_bench", "constant:0.5"),
            ("timer_growth_bench", "constant:0.3"),
            ("timer_stable_bench", "minimum:1.9"),
            ("lti_jump_bench", "minimum:0.5"),
            ("timer_growth_bench", "range:0.3:0.45"),
            ("timer_growth_bench", "range:0.2:0.2"),
            ("timer_growth_bench", "range:0.2:0.2000000000001"),
            ("lti_jump_bench", "arbitrary"),
        ],
    )
    def test_analyses(self, monkeypatch, tmp_path, bench, dwell, degree):
        s = getattr(benchmarks, bench)()
        kind, *T = dwell.split(":")
        T = [float(t) for t in T]

        def run():
            if kind == "arbitrary":
                return analyze_arbitrary(s)
            if kind == "constant":
                return analyze_constant(s, T[0], degree)
            if kind == "minimum":
                return analyze_minimum(s, T[0], degree)
            return analyze_range(s, *T, degree)

        def run_r():
            with monkeypatch.context() as m:
                m.setattr(analysis_mod, "_gain_rows_constant_like", reference_gain_rows_constant_like)
                return run()

        out = self._same(monkeypatch, tmp_path, run, run_r)
        assert isinstance(out, Certificate)

    @pytest.mark.parametrize("plant", ["unstable_chain_plant", "unstable_pair_plant", "lti_jump_bench"])
    def test_designs(self, monkeypatch, tmp_path, plant):
        p = getattr(benchmarks, plant)()
        p = _with_inputs(p) if plant == "lti_jump_bench" else p
        certified = 0
        for degree in (0, 1, 2, 3):
            for spec, fixed_kd in FOLD_DESIGNS:
                out = self._same(
                    monkeypatch, tmp_path,
                    lambda: synthesize(p, spec, degree, fixed_kd=fixed_kd),
                    lambda: reference_synthesize(p, spec, degree, fixed_kd=fixed_kd),
                )
                certified += not isinstance(out, str)
        assert certified >= 20


# coefficients the row algebra must treat exactly: zeros of both signs, units,
# finite floats, and sevenths, whose sums round differently in another order
_COEF = (st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3, allow_subnormal=False)
         | st.integers(-10**4, 10**4).map(lambda k: k / 7.0))


def _draw_linexpr(data) -> LinExpr:
    """A reference expression over columns 0-2, zero coefficients kept."""
    return LinExpr({v: data.draw(_COEF) for v in data.draw(st.sets(st.integers(0, 2)))}, data.draw(_COEF))


def _draw_polyexpr(data) -> PolyExpr:
    """A reference polynomial of degree 0 to 4, drawn with up to two trailing
    zero coefficients for the trim to drop."""
    zero = st.sampled_from([0.0, -0.0])
    coeffs = [_draw_linexpr(data) for _ in range(data.draw(st.integers(1, 5)))]
    coeffs += [LinExpr({v: data.draw(zero) for v in data.draw(st.sets(st.integers(0, 2)))}, data.draw(zero))
               for _ in range(data.draw(st.integers(0, 2)))]
    return PolyExpr(coeffs)


def _key(e):
    """(nonzero coefficients, constant, sign of the constant) of a reference
    LinExpr or of a 1-D row array."""
    terms, const = (({v: c for v, c in e.coeffs.items() if c != 0.0}, e.const) if isinstance(e, LinExpr)
                    else row_terms(e))
    return terms, const, math.copysign(1.0, const)


def _assert_same(got: np.ndarray, want) -> None:
    """A row array equals a reference LinExpr or PolyExpr: the same kind, the
    same degree, and per coefficient the same nonzeros and constant, bit for bit."""
    if isinstance(want, LinExpr):
        assert got.ndim == 1 and _key(got) == _key(want)
    else:
        assert got.ndim == 2 and [_key(c) for c in got] == [_key(c) for c in want.coeffs]


def reference_bernstein_rows(lp, name, q, order, margin):
    """The Bernstein-coefficient rows of _Program._cone_rows on a reference
    PolyExpr q, one row at a time with its weights in a tuple."""
    for i in range(order + 1):
        weights = tuple(math.comb(i, k) / math.comb(order, k) for k in range(i + 1))
        slack = lp.new_var(0.0, None, name=f"{name}_b{i}")
        row = {slack: -1.0}
        const = 0.0
        for qk, w in zip(q.coeffs, weights):
            for v, c in qk.coeffs.items():
                row[v] = row.get(v, 0.0) + w * c
            const += w * qk.const
        add_eq(lp, row, margin - const)


class TestRowAlgebra:
    """The row arrays of analysis and their functions equal, bit for bit, the
    reference LinExpr and PolyExpr of conftest on random affine expressions,
    polynomials and data polynomials, exact zeros, -0.0 and trailing zero
    coefficients included."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_expressions(self, data):
        a, b = _draw_linexpr(data), _draw_linexpr(data)
        s = data.draw(_COEF)
        _assert_same(analysis_mod._add(array_of(a), array_of(b)), a + b)
        _assert_same(analysis_mod._add(array_of(a), array_of(b), -1.0), a - b)
        _assert_same(analysis_mod._scale(array_of(a), s), a.scaled(s))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_polynomials(self, data):
        p = _draw_polyexpr(data)
        # q = -p and q = p cancel down to the zero polynomial
        q = data.draw(st.sampled_from([None, "neg", "same"]))
        q = _draw_polyexpr(data) if q is None else p.scaled(-1.0) if q == "neg" else p
        P, Q = array_of(p), array_of(q)
        assert len(P) == len(p.coeffs)
        s, t = data.draw(_COEF), data.draw(st.sampled_from([0.0, -0.0, 0.7, -1.3]) | st.floats(-3.0, 3.0))
        poly = data.draw(st.lists(_COEF, min_size=1, max_size=5)) + [0.0] * data.draw(st.integers(0, 2))
        a = data.draw(st.sampled_from([0.0, -0.0, 0.3, -0.25, 2.0]))
        h = data.draw(st.sampled_from([0.0, 1e-3, 0.5, 3.0]))
        _assert_same(analysis_mod._add(P, Q), p + q)
        _assert_same(analysis_mod._add(P, Q, -1.0), p - q)
        _assert_same(analysis_mod._scale(P, s), p.scaled(s))
        _assert_same(analysis_mod._mul_poly(P, poly), p.mul_poly(poly))
        _assert_same(analysis_mod._poly(poly), PolyExpr.from_poly(poly))
        _assert_same(analysis_mod._deriv(P), p.deriv())
        _assert_same(analysis_mod._eval_at(P, t), p.eval_at(t))
        _assert_same(analysis_mod._trim(analysis_mod._shift_scale_arg(P, a, h)), p.shift_scale_arg(a, h))
        # a stack of polynomials shifts and evaluates row by row
        _assert_same(analysis_mod._trim(analysis_mod._shift_scale_arg(np.stack([P, P]), a, h)[1]),
                     p.shift_scale_arg(a, h))
        ts = np.linspace(a, a + h, 51)
        acc = analysis_mod._eval_grid(P, ts)
        assert analysis_mod._eval_grid(np.stack([P, P]), ts)[1].tobytes() == acc.tobytes()
        block, const = acc[:, 1:], acc[:, 0]
        cols_r, block_r, const_r = p.eval_grid(ts)
        for s in range(len(ts)):
            got = {v: c for v, c in enumerate(block[s].tolist()) if c != 0.0}
            assert got == {v: c for v, c in zip(cols_r, block_r[s].tolist()) if c != 0.0}
        assert [_key(np.array([c])) for c in const] == [_key(np.array([c])) for c in const_r]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bernstein_rows(self, data):
        q = _draw_polyexpr(data)
        order = q.degree + data.draw(st.integers(0, 4))
        margin = data.draw(st.sampled_from([0.0, -0.0, 1e-6, 1e-2]))
        got, lp = LinearProgram(num_vars=3), LinearProgram(num_vars=3)
        Q = array_of(q)
        _Program()._cone_rows(got, order, ["q"], np.arange(Q.shape[1] - 1), Q[None], np.array([margin]))
        reference_bernstein_rows(lp, "q", q, order, margin)
        assert [(c, rel, rhs, math.copysign(1.0, rhs)) for c, rel, rhs in got.rows] == [
            (c, rel, rhs, math.copysign(1.0, rhs)) for c, rel, rhs in lp.rows]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_value(self, data):
        """A polynomial of columns reads back from a solution as the
        reference's, a -0.0 as 0.0."""
        x = np.array([data.draw(_COEF) for _ in range(6)])
        p = PolyExpr.from_vars(data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True)))
        got, want = analysis_mod._value(array_of(p), x).coeffs, p.value(x).coeffs
        assert [(c, math.copysign(1.0, c)) for c in got] == [(c, math.copysign(1.0, c)) for c in want]


class TestNegativeZeroReadBack:
    """zeta, X and U_c read back from the LP solution as polynomials, where a
    -0.0 reads as 0.0; a constant U_d is read raw, -0.0 kept.  A solution with
    -0.0 in those columns writes these values to the JSON of a certificate
    and of a controller."""

    @staticmethod
    def _negative_zeros(monkeypatch, names):
        """Every LP solution from here on holds -0.0 in the columns named."""
        real = analysis_mod.lp_solve

        def solve(lp):
            sol = real(lp)
            x = sol.x.copy()
            x[[v for v, name in lp.names.items() if name in names]] = -0.0
            return lp_mod.LpSolution(sol.status, x, sol.objective_value)

        monkeypatch.setattr(analysis_mod, "lp_solve", solve)

    def test_certificate(self, monkeypatch, bench_timer_growth):
        self._negative_zeros(monkeypatch, {"zeta0_c1", "zeta1_c1"})
        data = analyze_constant(bench_timer_growth, 0.3, 2).to_json()
        assert [math.copysign(1.0, z[1]) for z in data["zeta"]] == [1.0, 1.0]
        assert [z[1] for z in data["zeta"]] == [0.0, 0.0]
        assert "-0.0" not in json.dumps(data)

    def test_controller(self, monkeypatch, bench_chain_plant):
        self._negative_zeros(monkeypatch, {"X0_c1", "U00_c1", "Ud00"})
        data = synthesize(bench_chain_plant, DwellTimeSpec.constant(0.1), 2).to_json()
        assert (data["X"][0][1], math.copysign(1.0, data["X"][0][1])) == (0.0, 1.0)
        assert (data["Uc"][0][0][1], math.copysign(1.0, data["Uc"][0][0][1])) == (0.0, 1.0)
        assert json.dumps(data["Ud"]).startswith("[[-0.0, ")
        assert "-0.0" not in json.dumps({k: v for k, v in data.items() if k != "Ud"})

# the rows that encode the theorem's conditions, in both LP builders
THEOREM_FAMILIES = ("flow", "out_c", "stat_flow", "stat_out", "jump[0]", "out_d[0]")


class TestAnalysisIsDesign:
    """An analysis is a design with U = 0: on a plant without inputs, the
    theorem rows synthesize builds equal those of the matching analyze_*
    (jump_margin = margin), once its X is matched to zeta by name.  The
    timer-dependent case at a dwell that is not dyadic holds the stationary
    rows of both to the matrices at T times X(T)."""

    @staticmethod
    def _theorem_rows(monkeypatch, run):
        """The theorem rows of the first LP that run solves, point rows
        first, each variable by its name, X read as zeta."""
        with monkeypatch.context() as m:
            encoded = spy_relaxations(m)
            try:
                run()
            except DwellgainError:
                pass
        prog, relax, _ = encoded[0]
        name = lambda v: re.sub(r"^X", "zeta", prog.columns.names[v])

        def lin(e):
            terms, const = row_terms(e)
            return {name(v): c for v, c in terms.items()}, const

        points, intervals = row_records(prog, relax)
        return ([(f, i, lin(e), mg) for f, i, e, mg in points if f in THEOREM_FAMILIES]
                + [(f, i, [lin(c) for c in p], iv, order, mg) for f, i, p, iv, order, mg in intervals
                   if f in THEOREM_FAMILIES])

    @pytest.mark.parametrize(
        "bench, dwell",
        [
            ("lti_jump_bench", "constant:0.5"),
            ("lti_jump_bench", "minimum:0.5"),
            ("lti_jump_bench", "range:0.2:0.3"),
            ("lti_jump_bench", "arbitrary"),
            ("timer_stable_bench", "minimum:1.7"),
        ],
    )
    def test_same_theorem_rows(self, monkeypatch, bench, dwell):
        s = getattr(benchmarks, bench)()
        assert s.mc == s.md == 0
        spec = DwellTimeSpec.parse(dwell)
        sched, m = (4,), DEFAULT_MARGIN

        def analyze():
            if spec.kind == "arbitrary":
                return analyze_arbitrary(s, m, m)
            if spec.kind == "range":
                return analyze_range(s, spec.Tmin, spec.Tmax, 2, margin=m, jump_margin=m, relax_schedule=sched)
            run = analyze_constant if spec.kind == "constant" else analyze_minimum
            return run(s, spec.T, 2, margin=m, jump_margin=m, relax_schedule=sched)

        want = self._theorem_rows(monkeypatch, analyze)
        got = self._theorem_rows(monkeypatch, lambda: synthesize(s, spec, 2, margin=m, relax_schedule=sched))
        assert {r[0] for r in want} >= {"flow", "out_c", "jump[0]", "out_d[0]"}
        assert ("stat_flow" in {r[0] for r in want}) == (spec.kind == "minimum")
        assert got == want


class TestNegativeDegree:
    """A negative degree is refused as a ValueError by every entry point that
    takes one, before any LP is built."""

    @pytest.mark.parametrize("run", ["analyze_constant", "synthesize", "analyze_switched_min", "synthesize_switched"])
    def test_refused(self, run):
        s, sw = benchmarks.timer_growth_bench(), benchmarks.two_mode_switched_bench()
        calls = {
            "analyze_constant": lambda: analyze_constant(s, 0.5, -1),
            "synthesize": lambda: synthesize(benchmarks.unstable_chain_plant(), DwellTimeSpec.constant(0.5), -1),
            "analyze_switched_min": lambda: analyze_switched_min(sw, 0.5, -1),
            "synthesize_switched": lambda: synthesize_switched(sw, 0.5, -1),
        }
        with pytest.raises(ValueError, match="degree must be >= 0"):
            calls[run]()


class TestNegativeMargin:
    """A margin or jump margin below 0 (or NaN) is refused as a ValueError
    naming it by every analysis and design entry point, before any LP is
    built: it would turn each strict theorem row into a slack one.  A margin
    of 0 stays allowed."""

    @pytest.mark.parametrize("run, name", [
        ("analyze_constant", "margin"), ("analyze_constant jump", "jump_margin"), ("analyze_minimum", "margin"),
        ("analyze_range", "jump_margin"), ("analyze_arbitrary", "margin"), ("analyze_switched_min", "margin"),
        ("switched analyze_range", "margin"), ("synthesize", "margin"), ("synthesize_switched", "margin"),
        ("analyze_constant nan", "margin"), ("analyze_switched_blanchini", "margin"),
    ])
    def test_refused(self, monkeypatch, run, name):
        def forbidden(*args, **kwargs):
            raise AssertionError("an LP was built under a negative margin")

        monkeypatch.setattr(_Program, "__init__", forbidden)
        monkeypatch.setattr(analysis_mod, "lp_solve", forbidden)
        s, sw = benchmarks.lti_jump_bench(), benchmarks.two_mode_switched_bench()
        calls = {
            "analyze_constant": lambda: analyze_constant(s, 0.5, 2, margin=-1.0),
            "analyze_constant jump": lambda: analyze_constant(s, 0.5, 2, jump_margin=-0.01),
            "analyze_minimum": lambda: analyze_minimum(s, 0.5, 2, margin=-1e-9),
            "analyze_range": lambda: analyze_range(s, 0.5, 0.75, 2, jump_margin=-1.0),
            "analyze_arbitrary": lambda: analyze_arbitrary(s, margin=-1.0),
            "analyze_switched_min": lambda: analyze_switched_min(sw, 0.5, 2, margin=-1.0),
            "switched analyze_range": lambda: analyze_range(sw, 0.5, 0.75, 2, margin=-1.0),
            "synthesize": lambda: synthesize(benchmarks.unstable_chain_plant(), DwellTimeSpec.constant(0.5), 2,
                                             margin=-1e-3),
            "synthesize_switched": lambda: synthesize_switched(sw, 0.5, 2, margin=-1.0),
            "analyze_constant nan": lambda: analyze_constant(s, 0.5, 2, margin=math.nan),
            "analyze_switched_blanchini": lambda: analyze_switched_blanchini(sw, 0.5, margin=-1.0),
        }
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got "):
            calls[run]()

    def test_zero_is_allowed(self):
        s = benchmarks.lti_jump_bench()
        c = analyze_constant(s, 0.5, 2, margin=0.0, jump_margin=0.0)
        assert (c.margin, c.jump_margin) == (0.0, 0.0) and 0.0 < c.gamma < math.inf


class TestSwitchedDwellGate:
    """The switched entry points refuse a dwell time outside (0, inf) with
    the ParseError of DwellTimeSpec.minimum, as the impulsive analyses do,
    before any LP is built."""

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("run", ["analyze_switched_min", "synthesize_switched", "analyze_switched_blanchini"])
    def test_refused(self, monkeypatch, bench_switched, run, T):
        def forbidden(*args, **kwargs):
            raise AssertionError("an LP was built for a dwell time outside (0, inf)")

        monkeypatch.setattr(_Program, "__init__", forbidden)
        monkeypatch.setattr(analysis_mod, "lp_solve", forbidden)
        calls = {
            "analyze_switched_min": lambda: analyze_switched_min(bench_switched, T, 2),
            "synthesize_switched": lambda: synthesize_switched(bench_switched, T, 2),
            "analyze_switched_blanchini": lambda: analyze_switched_blanchini(bench_switched, T),
        }
        with pytest.raises(ParseError, match=r"^minimum dwell-time needs 0 < T < inf, got "):
            calls[run]()
