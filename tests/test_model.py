import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_check_positive
from dwellgain import benchmarks
from dwellgain import poly as poly_mod
from dwellgain.analysis import (
    analyze_arbitrary,
    analyze_constant,
    analyze_minimum,
    analyze_range,
)
from dwellgain.cert import cross_check_discrete, flow_grid, verify
from dwellgain.errors import DimensionMismatch, InvalidDomain, NotPositive, ParseError, Unsupported
from dwellgain.model import (
    DwellTimeSpec,
    ImpulsiveSystem,
    JumpMap,
    PolyMatrix,
    SwitchedSystem,
    adjoint,
    check_positive,
    lift_switched,
    load_system,
    require_positive,
    save_system,
    system_to_json,
)
from dwellgain.poly import Poly
from dwellgain.sim import SequenceGen, generate_inputs, simulate
from dwellgain.synthesis import ControllerRealization, synthesize


class TestPolyMatrix:
    def test_eval_and_clamp(self):
        pm = PolyMatrix.from_entries([[[1.0, 2.0], [0.0]], [[0.0, 0.0, 1.0], [3.0]]])
        m = pm(2.0)
        assert m == pytest.approx(np.array([[5.0, 0.0], [4.0, 3.0]]))
        assert pm(5.0, clamp=2.0) == pytest.approx(m)

    def test_mesh_matches_pointwise(self):
        pm = PolyMatrix.from_entries([[[0.5, -1.0, 2.0]]])
        taus = np.linspace(0, 3, 7)
        mesh = pm.eval_mesh(taus)
        assert mesh.flags.c_contiguous and mesh.shape == (1, 1, len(taus))
        for k, t in enumerate(taus):
            assert mesh[..., k] == pytest.approx(pm(float(t)))
        # a controller's gains share the component-major (r, c, len) layout
        ctrl = ControllerRealization(
            kind="RangeDT", dwell=DwellTimeSpec.range(0.5, 2.0), gamma=1.0, degree=1, margin=0.0,
            X=[Poly((1.0, 0.5)), Poly((2.0, -0.25))],
            Uc=[[Poly((0.3, -0.1)), Poly((-0.2, 0.4))]],
            Ud=[[Poly((0.1, 0.2)), Poly((-0.3, 0.05))]],
        )
        for mesh, point in ((ctrl.kc_mesh(taus), ctrl.kc), (ctrl.kd_mesh(taus), ctrl.kd)):
            assert mesh.flags.c_contiguous and mesh.shape == (1, 2, len(taus))
            for k, t in enumerate(taus):
                np.testing.assert_array_equal(mesh[..., k], point(float(t)))
        # and so does flow_grid: Phi(tau_k, 0) and the forced response are [..., k],
        # the last point of the march over the grid's first k cells, and the
        # output terms C and F * 1 are [..., k] at tau_k
        A = PolyMatrix.from_entries([[[-1.0, 0.5], [0.3]], [[0.2, 0.1], [-2.0]]])
        E = PolyMatrix.from_entries([[[0.1]], [[0.2, 0.3]]])
        C = PolyMatrix.from_entries([[[0.5, 0.2], [1.0]]])
        F = PolyMatrix.from_entries([[[0.1, 0.3]]])
        sys_ = ImpulsiveSystem.from_arrays(A=A, Ec=E, Cc=C, Fc=F, J=np.eye(2))
        Phis, forced, C_m, z = flow_grid(sys_, taus)
        assert Phis.flags.c_contiguous and Phis.shape == (2, 2, len(taus))
        assert forced.flags.c_contiguous and forced.shape == (2, len(taus))
        assert C_m.flags.c_contiguous and C_m.shape == (1, 2, len(taus))
        assert z.flags.c_contiguous and z.shape == (1, len(taus))
        np.testing.assert_array_equal(Phis[..., 0], np.eye(2))
        np.testing.assert_array_equal(forced[..., 0], np.zeros(2))
        for k, t in enumerate(taus):
            np.testing.assert_array_equal(C_m[..., k], C(float(t)))
            np.testing.assert_array_equal(z[..., k], F(float(t)).sum(axis=1))
        for k in range(1, len(taus)):
            head_Phi, head_forced, _, _ = flow_grid(sys_, taus[: k + 1])
            np.testing.assert_allclose(Phis[..., k], head_Phi[..., -1], rtol=1e-12, atol=0)
            np.testing.assert_allclose(forced[..., k], head_forced[..., -1], rtol=1e-12, atol=0)

    def test_transpose_derivative(self):
        pm = PolyMatrix.from_entries([[[1.0, 1.0], [2.0]], [[0.0], [0.0, 3.0]]])
        assert pm.T.entry(0, 1).coeffs == pm.entry(1, 0).coeffs
        assert pm.deriv().entry(0, 0).coeffs == (1.0,)
        assert pm.deriv().entry(1, 1).coeffs == (3.0,)


class TestPositivity:
    def test_benchmark_is_positive(self, bench_lti):
        report = check_positive(bench_lti, (0.0, 1.0))
        assert report.positive and not report.violations

    def test_negative_offdiagonal_flagged(self):
        sys = ImpulsiveSystem.from_arrays(
            A=[[-1.0, -1.0], [0.0, -1.0]],
            Ec=[[0.0], [0.0]],
            Cc=[[1.0, 0.0]],
            Fc=[[0.0]],
            J=np.eye(2),
            Ed=[[0.0], [0.0]],
            Cd=[[0.0, 0.0]],
            Fd=[[0.0]],
        )
        report = check_positive(sys, (0.0, 1.0))
        assert not report.positive
        assert any(name == "A" and idx == (0, 1) for name, idx, _, _ in report.violations)

    def test_report_names_each_entry(self):
        # A[1,0] = t - 0.5 dips below 0 on the grid, Ec[1,0] = -0.2 is a
        # negative constant, Cc[0,1] = (t - 0.5)^2 + 0.01 has no order-12
        # certificate on [0, 1]
        sys = ImpulsiveSystem.from_arrays(
            A=[[[-1.0], [0.0]], [[-0.5, 1.0], [-1.0]]],
            Ec=[[[0.0]], [[-0.2]]],
            Cc=[[[0.0], [0.26, -1.0, 1.0]]],
            Fc=[[[0.0]]],
            J=np.eye(2),
            Ed=[[0.0], [0.0]],
            Cd=[[0.0, 0.0]],
            Fd=[[0.0]],
        )
        report = check_positive(sys, (0.0, 1.0))
        assert not report.positive
        assert report.violations == [("A", (1, 0), 0.0, -0.5), ("Ec", (1, 0), None, -0.2)]
        assert report.unverified == [("Cc", (0, 1))]

    def test_timer_dependent_positive(self, bench_timer_growth, bench_timer_stable):
        assert check_positive(bench_timer_growth, (0.0, 0.5)).positive
        assert check_positive(bench_timer_stable, (0.0, 2.0)).positive

    def test_lifted_jumps_nonnegative(self, bench_switched):
        lifted = lift_switched(bench_switched)
        report = check_positive(lifted, (0.0, 0.5))
        assert report.positive

    def test_invalid_domain(self, bench_lti):
        with pytest.raises(InvalidDomain):
            check_positive(bench_lti, (0.0, 0.0))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_falsifier_first_oracle(self, data):
        """The exact decision first and the grid falsifier only on an entry it
        refuses: the same reports as the falsifier-first audit it replaced
        (conftest.reference_check_positive)."""
        coeff = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.26, -0.5]), st.floats(-2.0, 2.0))
        entry = st.lists(coeff, min_size=1, max_size=4)
        n, q = data.draw(st.integers(1, 2)), data.draw(st.integers(0, 1))
        draw = lambda r, c, e: data.draw(st.lists(st.lists(e, min_size=c, max_size=c), min_size=r, max_size=r))
        const = st.one_of(st.sampled_from([0.0, 0.5]), st.floats(-0.1, 2.0))
        s = ImpulsiveSystem.from_arrays(
            A=draw(n, n, entry), Ec=draw(n, 1, entry), Cc=draw(q, n, entry), Fc=draw(q, 1, entry),
            J=draw(n, n, const), Ed=draw(n, 1, const),
        )
        domain = (0.0, data.draw(st.sampled_from([0.12, 0.5, 1.0, 2.7])))
        assert check_positive(s, domain) == reference_check_positive(s, domain)

    def test_falsifier_runs_only_after_an_exact_refusal(self, bench_timer_stable, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the falsifier ran on an entry the exact test proves")

        monkeypatch.setattr("dwellgain.model.falsify_nonneg", forbidden)
        assert check_positive(bench_timer_stable, (0.0, 2.0)).positive
        # A[0, 1] = 1 - 4 tau + c tau^2 has a negative coefficient: decided
        # exactly where c = 5, refused and then falsified where c = 3.9
        tilted = lambda c: ImpulsiveSystem.from_arrays(A=[[[-1.0], [1.0, -4.0, c]], [[0.0], [-1.0]]], J=np.eye(2))
        assert check_positive(tilted(5.0), (0.0, 1.0)).positive
        monkeypatch.setattr("dwellgain.model.falsify_nonneg", poly_mod.falsify_nonneg)
        (name, idx, tau, value), = check_positive(tilted(3.9), (0.0, 1.0)).violations
        assert (name, idx) == ("A", (0, 1)) and 0.4 < tau < 0.6 and value < 0

    def test_require_positive_names_entries(self, bench_lti):
        require_positive(bench_lti, 0.0)
        require_positive(bench_lti, 1.0)
        s = ImpulsiveSystem.from_arrays(
            A=[[[-1.0], [0.0]], [[-0.5, 1.0], [-1.0]]], Cc=[[[0.0], [0.26, -1.0, 1.0]]], J=[[1.0, -0.1], [0.0, 1.0]])
        with pytest.raises(NotPositive, match=(r"^not positive on \[0, 1\]: A\[1, 0\], "
                                               r"jumps\[0\]\.J\[0, 1\], Cc\[0, 1\] \(unverified\)$")):
            require_positive(s, 1.0)
        # tau_end = 0 (arbitrary dwell, LTI) comes with constant matrices
        s = ImpulsiveSystem.from_arrays(A=[[-1.0, 0.0], [-0.5, -1.0]], J=[[1.0, -0.1], [0.0, 1.0]])
        with pytest.raises(NotPositive, match=r"^not positive at tau = 0: A\[1, 0\], jumps\[0\]\.J\[0, 1\]$"):
            require_positive(s, 0.0)

    def test_require_positive_switched_per_mode(self, bench_switched):
        require_positive(bench_switched, 1.0)
        modes = [{k: md[k] for k in "ABECDF"} for md in bench_switched.modes]
        modes[1]["A"] = PolyMatrix.from_const([[-1.0, -1.0], [1.0, -6.0]])
        with pytest.raises(NotPositive, match=r": modes\[1\]\.A\[0, 1\]$"):
            require_positive(SwitchedSystem.from_arrays(modes), 1.0)

    def test_positivity_semantics_by_simulation(self, bench_lti, bench_timer_growth):
        """Certified-positive systems keep x, z_c, z_d nonnegative along runs."""
        for sys, Tdom in ((bench_lti, 1.0), (bench_timer_growth, 0.5)):
            assert check_positive(sys, (0.0, Tdom)).positive
            for seed in range(50):
                rng = np.random.default_rng((101, seed))
                x0 = rng.uniform(0.0, 2.0, size=sys.n)
                gen = SequenceGen.uniform_range(0.2, 0.5, seed=seed)
                traj = simulate(
                    sys, gen, generate_inputs("const_unit"), x0=x0, horizon=4.0, step=2e-3
                )
                assert traj.min_state() >= -1e-9
                if traj.zc.size:
                    assert float(traj.zc.min()) >= -1e-9
                if traj.zd.size:
                    assert float(traj.zd.min()) >= -1e-9


class TestLifting:
    def test_structure(self, bench_switched):
        lifted = lift_switched(bench_switched)
        assert lifted.n == 4
        assert len(lifted.jumps) == 2
        A = lifted.A.const()
        assert A[:2, :2] == pytest.approx(np.array([[-1.0, 0.0], [1.0, -2.0]]))
        assert A[2:, 2:] == pytest.approx(np.array([[-1.0, 1.0], [1.0, -6.0]]))
        assert A[:2, 2:] == pytest.approx(np.zeros((2, 2)))
        # jump maps are 0/1 block selectors: e_i e_j^T kron I
        for jm in lifted.jumps:
            src, dst = jm.tag
            sel = np.zeros((2, 2))
            sel[dst, src] = 1.0
            assert jm.J == pytest.approx(np.kron(sel, np.eye(2)))
        # stacked inputs/outputs
        assert lifted.Ec.const() == pytest.approx(np.array([[0.1], [0.1], [0.5], [0.0]]))
        assert lifted.Cc.const().shape == (2, 4)

    def test_single_mode_rejected(self):
        sw = SwitchedSystem.from_arrays(
            [{"A": [[-1.0]], "E": [[1.0]], "C": [[1.0]], "F": [[0.0]]}]
        )
        with pytest.raises(DimensionMismatch):
            lift_switched(sw)

    def test_lifting_preserves_positivity(self, bench_switched):
        assert check_positive(lift_switched(bench_switched), (0.0, 1.0)).positive


class TestAdjoint:
    def test_lti_transposition(self, bench_lti):
        adj = adjoint(bench_lti)
        assert adj.A.const() == pytest.approx(bench_lti.A.const().T)
        assert adj.Ec.const() == pytest.approx(bench_lti.Cc.const().T)
        assert adj.Cc.const() == pytest.approx(bench_lti.Ec.const().T)
        assert adj.jump.J == pytest.approx(bench_lti.jump.J.T)
        assert adj.jump.Ed == pytest.approx(bench_lti.jump.Cd.T)
        assert adj.time_reversed

    def test_dimension_swap(self, bench_lti):
        adj = adjoint(bench_lti)
        assert (adj.pc, adj.qc) == (bench_lti.qc, bench_lti.pc)
        assert (adj.pd, adj.qd) == (bench_lti.qd, bench_lti.pd)

    def test_involution_exact(self, bench_timer_stable):
        back = adjoint(adjoint(bench_timer_stable))
        assert np.array_equal(back.A.coeffs, bench_timer_stable.A.coeffs)
        assert np.array_equal(back.Ec.coeffs, bench_timer_stable.Ec.coeffs)
        assert np.array_equal(back.Cc.coeffs, bench_timer_stable.Cc.coeffs)
        assert np.array_equal(back.jump.J, bench_timer_stable.jump.J)
        assert not back.time_reversed

    def test_multi_jump_unsupported(self, bench_switched):
        with pytest.raises(Unsupported):
            adjoint(lift_switched(bench_switched))


def _mode(**misfit):
    """One mode of n = 2 states, one input, one exogenous input and one
    output, with the matrices misfit given in place of its own."""
    mode = {"A": [[-1.0, 0.0], [1.0, -2.0]], "B": [[1.0], [0.0]], "E": [[0.1], [0.1]], "C": [[0.0, 1.0]],
            "D": [[0.2]], "F": [[0.1]]}
    return {**mode, **misfit}


# a misfit of each matrix: the shape it has, and the shape mode 0 fixes
MISFITS = {"B": ([[1.0]], (2, 1)), "E": ([[0.1]], (2, 1)), "C": ([[0.0, 1.0, 1.0]], (1, 2)),
           "D": ([[0.2, 0.2]], (1, 1)), "F": ([[0.1, 0.1]], (1, 1))}


class TestShapeRule:
    """One rule fixes the shapes of a system's six matrices from A's rows,
    B's and E's columns and C's rows: that of the flow, of each jump map
    against the first one's channels, and of each mode against mode 0."""

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("key", sorted(MISFITS))
    def test_misfit_mode_matrix_is_refused(self, key, k):
        bad, want = MISFITS[key]
        modes = [_mode(), _mode()]
        modes[k] = _mode(**{key: bad})
        got = np.shape(bad)
        with pytest.raises(DimensionMismatch, match=re.escape(f"modes[{k}].{key}: expected shape {want}, got {got}")):
            SwitchedSystem.from_arrays(modes)

    def test_misfit_jump_matrix_is_refused(self):
        with pytest.raises(DimensionMismatch, match=re.escape("jumps[1].Cd: expected shape (1, 2), got (1, 3)")):
            ImpulsiveSystem.from_arrays(A=-np.eye(2), J=np.eye(2), Cd=[[1.0, 0.0]],
                                        extra_jumps=[{"J": np.eye(2), "Cd": [[1.0, 0.0, 0.0]]}])

    def test_omitted_matrices_are_zeros_of_the_fixed_shapes(self):
        sw = SwitchedSystem.from_arrays([{"A": [[-1.0, 0.0], [0.0, -1.0]], "E": [[1.0], [1.0]]}] * 2)
        assert [sw.modes[0][x].shape for x in "ABECDF"] == [(2, 2), (2, 0), (2, 1), (0, 2), (0, 0), (0, 1)]
        s = ImpulsiveSystem.from_arrays(A=-np.eye(2), J=np.eye(2), Bc=[[1.0], [0.0]], Cc=[[1.0, 1.0]],
                                        Ed=[[1.0], [0.0]])
        assert [m.shape for m in (s.Dc, s.Fc)] == [(1, 1), (1, 0)]
        assert [getattr(s.jump, x).shape for x in ("Bd", "Cd", "Dd", "Fd")] == [(2, 0), (0, 2), (0, 0), (0, 1)]

    def test_missing_A_or_J_is_a_key_error(self):
        with pytest.raises(KeyError):
            SwitchedSystem.from_arrays([{"E": [[1.0]]}])
        with pytest.raises(KeyError):
            ImpulsiveSystem.from_arrays(A=[[-1.0]], J=[[1.0]], extra_jumps=[{"Cd": [[1.0]]}])


def _random_switched(rng: np.random.Generator) -> SwitchedSystem:
    """N modes of n states, m, p inputs and q outputs, each matrix a random
    polynomial matrix of degree 0 to 2; a channel count may be zero."""
    N, n, m, p, q = int(rng.integers(2, 4)), int(rng.integers(1, 4)), *map(int, rng.integers(0, 3, size=3))
    shapes = {"A": (n, n), "B": (n, m), "E": (n, p), "C": (q, n), "D": (q, m), "F": (q, p)}
    return SwitchedSystem.from_arrays([{x: PolyMatrix(rng.uniform(-1.0, 1.0, (*rc, int(rng.integers(1, 4)))))
                                        for x, rc in shapes.items()} for _ in range(N)])


def _lift_oracle(sw: SwitchedSystem) -> dict:
    """The lift built by hand: A, B, C, D block-diagonal, E and F stacked, all
    on the longest coefficient axis, and a selector e_dst e_src' kron I per
    ordered pair of modes, dst major."""
    N, n, d = sw.N, sw.n, max(mat.coeffs.shape[2] for md in sw.modes for mat in md.values())

    def pad(mat):
        c = mat.coeffs
        return np.concatenate([c, np.zeros(c.shape[:2] + (d - c.shape[2],))], axis=2)

    def blocks(key, diagonal):
        rows = [[pad(md[key]) if (i == j or not diagonal) else np.zeros(pad(md[key]).shape)
                 for j in range(N if diagonal else 1)] for i, md in enumerate(sw.modes)]
        return np.concatenate([np.concatenate(row, axis=1) for row in rows], axis=0)

    out = {x: blocks(x, x not in "EF") for x in "ABECDF"}
    pairs = [(src, dst) for dst in range(N) for src in range(N) if src != dst]
    out["J"] = [np.kron(np.eye(N)[:, [dst]] @ np.eye(N)[[src]], np.eye(n)) for src, dst in pairs]
    out["tags"] = pairs
    return out


class TestLiftOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_switched_lift_matches_hand_built(self, seed):
        sw = _random_switched(np.random.default_rng(seed))
        lifted, want = lift_switched(sw), _lift_oracle(sw)
        for x, got in zip("ABECDF", (lifted.A, lifted.Bc, lifted.Ec, lifted.Cc, lifted.Dc, lifted.Fc)):
            assert got == PolyMatrix(want[x]), x
        Nn = sw.N * sw.n
        assert [jm.tag for jm in lifted.jumps] == want["tags"]
        for jm, J in zip(lifted.jumps, want["J"]):
            assert jm.J.shape == J.shape and np.array_equal(jm.J, J)
            assert [getattr(jm, x).shape for x in ("Bd", "Ed", "Cd", "Dd", "Fd")] == [(Nn, 0), (Nn, 0), (0, Nn),
                                                                                     (0, 0), (0, 0)]
            assert not any(getattr(jm, x).size for x in ("Bd", "Ed", "Cd", "Dd", "Fd"))
        assert not lifted.time_reversed


def _adjoint_oracle(sys: ImpulsiveSystem) -> ImpulsiveSystem:
    """The adjoint assembled field by field: transposes, input and output
    roles swapped, no control channels, time reversed."""
    jm = sys.jump
    return ImpulsiveSystem(
        A=sys.A.T, Bc=PolyMatrix.zeros(sys.n, 0), Ec=sys.Cc.T, Cc=sys.Ec.T, Dc=PolyMatrix.zeros(sys.pc, 0),
        Fc=sys.Fc.T,
        jumps=(JumpMap(J=jm.J.T.copy(), Bd=np.zeros((sys.n, 0)), Ed=jm.Cd.T.copy(), Cd=jm.Ed.T.copy(),
                       Dd=np.zeros((sys.pd, 0)), Fd=jm.Fd.T.copy()),),
        time_reversed=not sys.time_reversed,
    )


class TestAdjointOracle:
    @pytest.mark.parametrize("name", ["lti_jump_bench", "timer_growth_bench", "timer_stable_bench", "no_outputs"])
    def test_fields_equal_the_hand_built_adjoint(self, name):
        s = (ImpulsiveSystem.from_arrays(A=[[[-1.0, 0.5]]], J=[[0.5]], Ec=[[1.0]], Ed=[[1.0, 2.0]])
             if name == "no_outputs" else getattr(benchmarks, name)())
        for sys in (s, adjoint(s)):
            got, want = adjoint(sys), _adjoint_oracle(sys)
            for f in ("A", "Bc", "Ec", "Cc", "Dc", "Fc", "time_reversed"):
                assert getattr(got, f) == getattr(want, f), f
            assert len(got.jumps) == 1 and got.jump.tag is None
            for f in ("J", "Bd", "Ed", "Cd", "Dd", "Fd"):
                a, b = getattr(got.jump, f), getattr(want.jump, f)
                assert a.shape == b.shape and np.array_equal(a, b), f


def _analyze(name, s):
    return {
        "arbitrary": lambda: analyze_arbitrary(s),
        "constant": lambda: analyze_constant(s, 0.5, 4),
        "minimum": lambda: analyze_minimum(s, 0.5, 4),
        "range": lambda: analyze_range(s, 0.5, 0.8, 4),
    }[name]()


class TestTimeReversedRefused:
    """Every entry point but analyze_lti refuses a time-reversed system: it
    would read the adjoint as running forward (constant dwell 0.5 on the
    adjoint of lti_jump_bench gave 2.164; the primal's gain is 1.115)."""

    @pytest.mark.parametrize("kind", ["arbitrary", "constant", "minimum", "range"])
    def test_analyze(self, bench_lti, kind):
        assert _analyze(kind, bench_lti).gamma > 0
        with pytest.raises(Unsupported, match="time-reversed"):
            _analyze(kind, adjoint(bench_lti))

    def test_synthesize(self, bench_chain_plant):
        reversed_plant = replace(bench_chain_plant, time_reversed=True)
        with pytest.raises(Unsupported, match="time-reversed"):
            synthesize(reversed_plant, DwellTimeSpec.constant(0.1))

    def test_simulate(self, bench_lti):
        adj = adjoint(bench_lti)
        with pytest.raises(Unsupported, match="time-reversed"):
            simulate(adj, SequenceGen.exact(0.5), generate_inputs("const_unit"),
                     x0=np.zeros(adj.n), horizon=2.0)

    @pytest.mark.parametrize("check", [verify, cross_check_discrete])
    def test_verify_and_cross_check(self, bench_lti, check):
        cert = analyze_constant(bench_lti, 0.5, 4)
        assert check(cert, bench_lti).passed
        with pytest.raises(Unsupported, match="time-reversed"):
            check(cert, replace(bench_lti, time_reversed=True))


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        sys = ImpulsiveSystem.from_arrays(
            A=[[list(rng.uniform(-1, 1, 4)) for _ in range(2)] for _ in range(2)],
            Ec=[[list(rng.uniform(0, 1, 3))] for _ in range(2)],
            Cc=[[list(rng.uniform(0, 1, 2)) for _ in range(2)]],
            Fc=[[list(rng.uniform(0, 1, 2))]],
            J=rng.uniform(0, 1, (2, 2)),
            Ed=rng.uniform(0, 1, (2, 1)),
            Cd=rng.uniform(0, 1, (1, 2)),
            Fd=rng.uniform(0, 1, (1, 1)),
        )
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_system(sys, str(p1))
        save_system(load_system(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_benchmark_file_positive(self, bench_lti, tmp_path):
        path = tmp_path / "ex1.json"
        save_system(bench_lti, str(path))
        loaded = load_system(str(path))
        assert loaded.n == 2
        assert check_positive(loaded, (0.0, 1.0)).positive

    def test_switched_round_trip(self, bench_switched, tmp_path):
        path = tmp_path / "sw.json"
        save_system(bench_switched, str(path))
        loaded = load_system(str(path))
        assert isinstance(loaded, SwitchedSystem)
        assert loaded.N == 2
        assert loaded.modes[1]["A"].const() == pytest.approx(
            bench_switched.modes[1]["A"].const()
        )

    def test_lifted_round_trip(self, bench_switched, tmp_path):
        lifted = lift_switched(bench_switched)
        path = tmp_path / "lift.json"
        save_system(lifted, str(path))
        loaded = load_system(str(path))
        assert len(loaded.jumps) == 2
        assert loaded.jumps[1].tag == lifted.jumps[1].tag

    def test_nonsquare_A_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"A": [[[1.0], [0.0]]], "J": [[1.0]]}))
        with pytest.raises(DimensionMismatch, match=re.escape("A: expected shape (1, 1), got (1, 2)")):
            load_system(str(path))

    def test_declared_dimension_mismatch(self, bench_lti, tmp_path):
        data = json.loads(json.dumps({"n": 3, **_to_json(bench_lti)}))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DimensionMismatch):
            load_system(str(path))

    def test_parse_error_context(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_system(str(path))

    @pytest.mark.parametrize("switched", [False, True])
    def test_missing_A_is_a_parse_error(self, bench_lti, bench_switched, tmp_path, switched):
        data = system_to_json(bench_switched if switched else bench_lti)
        (data["modes"][0] if switched else data).pop("A")
        path = tmp_path / "noA.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="missing field 'A' in system file$"):
            load_system(str(path))

    def test_lifted_file_keeps_every_tag(self, bench_switched, tmp_path):
        """The first jump map's tag, the mode a simulation switches to, is read back too."""
        lifted = lift_switched(bench_switched)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_system(lifted, str(p1))
        loaded = load_system(str(p1))
        assert [jm.tag for jm in loaded.jumps] == [jm.tag for jm in lifted.jumps] == [(1, 0), (0, 1)]
        save_system(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def _to_json(sys):
    from dwellgain.model import system_to_json

    data = system_to_json(sys)
    data.pop("n")
    return data


class TestDwellTimeSpec:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("arbitrary", "arbitrary"),
            ("constant:0.3", "constant"),
            ("minimum:2", "minimum"),
            ("range:0.3:0.5", "range"),
        ],
    )
    def test_parse_round_trip(self, text, kind):
        spec = DwellTimeSpec.parse(text)
        assert spec.kind == kind
        assert DwellTimeSpec.parse(str(spec)) == spec

    @pytest.mark.parametrize(
        "text", ["constant:-1", "range:0.5:0.3", "minimum:0", "bogus", "range:1", "constant:x"]
    )
    def test_rejects_invalid(self, text):
        with pytest.raises(ParseError):
            DwellTimeSpec.parse(text)

    @pytest.mark.parametrize("T", [1 / 3, 0.123456789, 0.3, 2.0, 1e-5, 1234567.0])
    def test_file_text_round_trips_exactly(self, T):
        for spec in (DwellTimeSpec.constant(T), DwellTimeSpec.minimum(T), DwellTimeSpec.range(T, 1.5 * T)):
            assert DwellTimeSpec.parse(spec.to_json()) == spec
            # a time that six significant digits keep exactly is written as str() writes it
            if float(f"{T:g}") == T and float(f"{1.5 * T:g}") == 1.5 * T:
                assert spec.to_json() == str(spec)
        assert DwellTimeSpec.constant(1 / 3).to_json() == "constant:0.3333333333333333"
        assert str(DwellTimeSpec.constant(1 / 3)) == "constant:0.333333"
        assert DwellTimeSpec.arbitrary().to_json() == "arbitrary"

    def test_controller_keeps_its_dwell(self):
        ctrl = ControllerRealization(
            kind="RangeDT", dwell=DwellTimeSpec.range(1 / 3, 0.123456789 * 5), gamma=1.0, degree=0,
            margin=0.0, X=[Poly((1.0,))], Uc=[[Poly((0.5,))]],
        )
        data = json.loads(json.dumps(ctrl.to_json()))
        assert ControllerRealization.from_json(data).dwell == ctrl.dwell
        assert data["dwell"] == "range:0.3333333333333333:0.617283945"

    def test_clamp_only_for_minimum(self):
        assert DwellTimeSpec.minimum(2.0).clamp == 2.0
        assert DwellTimeSpec.constant(2.0).clamp is None
