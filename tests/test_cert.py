import dataclasses
import json
import math
import re
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    CERTIFY_GRID_DESIGNS,
    assert_matches_three_paths,
    bernstein_oracle,
    lifted,
    oracle_rows,
    reference_cross_check,
    stabilizable_two_mode,
    three_path_verify,
)
from dwellgain import benchmarks
from dwellgain import cert as cert_mod
from dwellgain.analysis import (
    RELAX_SCHEDULE,
    Certificate,
    analyze_arbitrary,
    analyze_constant,
    analyze_minimum,
    analyze_range,
    analyze_switched_min,
)
from dwellgain.cert import cross_check_discrete, flow_grid, transition_matrix, verify
from dwellgain.errors import Infeasible, Mismatch, Unsupported
from dwellgain.model import DwellTimeSpec, ImpulsiveSystem, SwitchedSystem
from dwellgain.poly import Poly, _bernstein, _Exact, decide_nonneg
from dwellgain.sim import SequenceGen, estimate_gain, generate_inputs, simulate
from dwellgain.synthesis import ControllerRealization, certificate_from, closed_loop, synthesize, synthesize_switched


IMPULSIVE_BENCHES = ("lti_jump_bench", "timer_growth_bench", "timer_stable_bench")

# certify-grid jobs whose rows a float rebuild of the weights in t used to
# reject, with the gain each LP gives; the exact row proof leaves the LP alone
SOUND_JOBS = [
    ("timer_growth_bench", "constant:0.33", 2, "0x1.85f4f8ce0c934p-1"),
    ("timer_growth_bench", "constant:0.12", 4, "0x1.0d19287409b71p-1"),
    ("timer_growth_bench", "range:0.33:0.495", 6, "0x1.0a2de123cafc3p+0"),
    ("timer_growth_bench", "range:0.2:0.3", 4, "0x1.6862772a02c2fp-1"),
    ("lti_jump_bench", "range:0.5:0.75", 6, "0x1.26d2db5907f7cp+0"),
    ("lti_jump_bench", "range:0.12:0.18", 6, "0x1.dc6aa068a53e7p-1"),
]


@pytest.fixture(scope="module")
def cert_constant(bench_timer_growth):
    return analyze_constant(bench_timer_growth, 0.3, 4)


# certificate files in the earlier format, rows stored next to zeta
DATA = Path(__file__).parent / "data"


def _rederived_rows(monkeypatch, c, target):
    """verify's report of c and the rows it proved: [(family, index, exact row, domain)]."""
    seen = []
    real = cert_mod._report

    def spy(rows, grid, *rest):
        seen.extend((f, k, row, domain) for f, parts in rows.items() for k, (_, row, domain, _, _) in enumerate(parts))
        return real(rows, grid, *rest)

    with monkeypatch.context() as m:
        m.setattr(cert_mod, "_report", spy)
        return verify(c, target), seen


def _fractions(row):
    """The exact row's coefficients as Fractions, in a Poly-like shell."""
    return SimpleNamespace(coeffs=[Fraction(c, 1 << row.e) for c in row.C])


class TestVerify:
    def test_passes_with_margin_slack(self, bench_timer_growth, cert_constant):
        rep = verify(cert_constant, bench_timer_growth, grid=1000)
        assert rep.passed
        assert rep.handelman_ok
        # strict rows carry at least half the encoded margin of slack
        assert rep.worst_slack["flow"] >= cert_constant.margin / 2
        assert rep.worst_slack["jump[0]"] >= cert_constant.jump_margin / 2

    def test_gamma_cut_fails_on_output_row(self, bench_timer_growth, cert_constant):
        bad = dataclasses.replace(cert_constant, gamma=0.9 * cert_constant.gamma)
        rep = verify(bad, bench_timer_growth, grid=1000)
        assert not rep.passed
        assert min(rep.worst_slack["out_c"], rep.worst_slack["out_d[0]"]) < 0

    def test_hand_built_lambda_fails_jump_row(self, bench_lti):
        lam = [Poly.const(1.0), Poly.const(1.0)]
        # (J - I) lam + Ed = [0.4, -0.5]: first row violated
        cert = Certificate(
            gamma=5.0,
            zeta=lam,
            dwell=DwellTimeSpec.arbitrary(),
            margin=0.0,
            jump_margin=0.0,
            degree=0,
        )
        rep = verify(cert, bench_lti)
        assert not rep.passed
        assert rep.worst_slack["jump[0]"] < 0

    def test_grid_consistency(self, bench_timer_growth, cert_constant):
        r1 = verify(cert_constant, bench_timer_growth, grid=1000)
        r2 = verify(cert_constant, bench_timer_growth, grid=10_000)
        assert r1.passed == r2.passed

    def test_mismatch_errors(self, bench_timer_growth, bench_switched, cert_constant):
        with pytest.raises(Mismatch):
            verify(cert_constant, bench_switched)
        short = dataclasses.replace(cert_constant, zeta=cert_constant.zeta[:1])
        with pytest.raises(Mismatch):
            verify(short, bench_timer_growth)

    @pytest.mark.parametrize("grid", [0, -3])
    def test_grid_below_one_is_refused(self, bench_timer_growth, grid):
        c = analyze_range(bench_timer_growth, 0.3, 0.5, 4)
        with pytest.raises(ValueError, match=f"^grid must be >= 1, got {grid}$"):
            verify(c, bench_timer_growth, grid=grid)

    def test_arbitrary_needs_constant_system(self, bench_timer_growth):
        lam = [Poly.const(1.0)] * bench_timer_growth.n
        cert = Certificate(gamma=5.0, zeta=lam, dwell=DwellTimeSpec.arbitrary(), margin=0.0, jump_margin=0.0,
                           degree=0)
        for check in (verify, three_path_verify):
            with pytest.raises(Mismatch, match="constant systems"):
                check(cert, bench_timer_growth)

    def test_switched_mode_count_mismatch(self, bench_switched):
        cert = analyze_switched_min(bench_switched, 0.1, 4)
        short = dataclasses.replace(cert, zeta=cert.zeta[:1])
        for check in (verify, three_path_verify):
            with pytest.raises(Mismatch, match="mode vectors"):
                check(short, bench_switched)

    def test_empty_zeta_is_a_mismatch(self, bench_lti, bench_switched):
        """A file whose zeta is [] reads as a certificate of no state rows:
        verify refuses it for either system with a Mismatch."""
        data = {**analyze_constant(bench_lti, 0.5, 2).to_json(), "zeta": []}
        cert = Certificate.from_json(data)
        assert not cert.per_mode and cert.kind == "ConstantDT"
        with pytest.raises(Mismatch, match="^certificate has 0 state rows, system has 2$"):
            verify(cert, bench_lti)
        with pytest.raises(Mismatch, match="^ConstantDT certificate cannot verify a switched system$"):
            verify(cert, bench_switched)

    def test_switched_certificate(self, bench_switched):
        cert = analyze_switched_min(bench_switched, 0.1, 4)
        rep = verify(cert, bench_switched)
        assert rep.passed
        # the lift's two selector maps: zeta_1(0) >= zeta_0(T) and zeta_0(0) >= zeta_1(T)
        assert [k for k in rep.worst_slack if k.startswith("jump")] == ["jump[0]", "jump[1]"]
        assert min(rep.worst_slack["jump[0]"], rep.worst_slack["jump[1]"]) >= -1e-12

    def test_minimum_and_range_kinds(self, bench_lti, bench_timer_growth):
        assert verify(analyze_minimum(bench_lti, 1.0, 4), bench_lti).passed
        assert verify(analyze_range(bench_timer_growth, 0.3, 0.5, 4), bench_timer_growth).passed


class TestRowProof:
    """verify proves every stored interval row by its exact Bernstein coefficients."""

    @pytest.mark.parametrize("bench, dwell, degree, gamma", SOUND_JOBS)
    def test_sound_certificates_verify(self, bench, dwell, degree, gamma):
        s = getattr(benchmarks, bench)()
        spec = DwellTimeSpec.parse(dwell)
        if spec.kind == "range":
            c = analyze_range(s, spec.Tmin, spec.Tmax, degree)
        else:
            c = analyze_constant(s, spec.T, degree)
        assert c.gamma == float.fromhex(gamma)
        rep = verify(c, s)
        assert rep.passed and rep.handelman_ok is True and rep.notes == []

    @staticmethod
    def _moves(c):
        """gamma cut below the output rows, every zeta(0) cut by 3% and zeta_1 pushed below 0 at tau = 0."""
        cut = lambda z, f: Poly((f(z.coeffs[0]),) + z.coeffs[1:])
        return {
            "gamma": dataclasses.replace(c, gamma=0.9 * c.gamma),
            "zeta(0)": dataclasses.replace(c, zeta=[cut(z, lambda x: 0.97 * x) for z in c.zeta]),
            "zeta_1": dataclasses.replace(c, zeta=[c.zeta[0], cut(c.zeta[1], lambda x: -1e-3)]),
        }

    @pytest.mark.parametrize("move", ["gamma", "zeta(0)", "zeta_1"])
    def test_moved_row_fails_with_its_note(self, bench_timer_growth, cert_constant, move):
        c = self._moves(cert_constant)[move]
        rep = verify(c, bench_timer_growth)
        assert not rep.passed and rep.handelman_ok is False
        proved = {note.split(" not proved")[0] for note in rep.notes if " not proved" in note}
        low, seen = [], {}
        for family, terms, domain in oracle_rows(c, bench_timer_growth):
            k = seen[family] = seen.get(family, -1) + 1
            p = sum(terms[1:], terms[0])
            pts = np.linspace(*domain, 1001) if isinstance(domain, tuple) else np.array([domain])
            margin = c.jump_margin if family.startswith("jump") else c.margin
            grid_min = float(np.min(p.eval(pts)))
            # a row pushed below zero by more than its margin is named, a row
            # above its margin is proved
            if grid_min < -margin:
                low.append(f"row {family}[{k}]")
                assert f"row {family}[{k}]" in proved
            elif grid_min > margin:
                assert f"row {family}[{k}]" not in proved
        assert low
        for note in rep.notes:
            if " not proved" in note:
                assert float(note.rsplit(" ", 1)[1]) < 0

    @pytest.mark.parametrize("bench", IMPULSIVE_BENCHES)
    def test_bernstein_matches_oracle_on_grid_rows(self, bench, certify_grid_analyses, monkeypatch):
        """_bernstein on the rows verify re-derives from zeta, against the
        Fraction oracle; each row equals the plain-Poly row of oracle_rows."""
        s = getattr(benchmarks, bench)()
        checked = 0
        for _, c in certify_grid_analyses(bench):
            rep, rows = _rederived_rows(monkeypatch, c, s)
            assert rep.passed and rep.handelman_ok is True
            want = {}
            for family, terms, domain in oracle_rows(c, s):
                want.setdefault(family, []).append((terms, domain))
            assert sorted(want) == sorted({f for f, *_ in rows})
            for family, k, row, domain in rows:
                terms, where = want[family][k]
                assert where == domain
                # the exact row and the float one agree to rounding of their terms
                size = sum(sum(abs(x) for x in t.coeffs) for t in terms)
                got = _fractions(row).coeffs
                p = sum(terms[1:], terms[0])
                assert all(abs(float(a) - b) <= 1e-13 * size
                           for a, b in zip_longest(got, p.coeffs, fillvalue=0.0))
                if isinstance(domain, tuple):
                    d = len(row.C) - 1 + RELAX_SCHEDULE[-1]
                    for margin in (0.0, c.margin):
                        N, S = _bernstein(row, domain, d, margin)
                        got = [Fraction(v, math.comb(d, i) * S) for i, v in enumerate(N)]
                        assert got == bernstein_oracle(_fractions(row), domain, d, margin)
                    checked += 1
        assert checked >= 50


class TestOneDecision:
    """`poly.decide_nonneg` stops at the first order of degree +
    RELAX_SCHEDULE that proves a row.  By degree elevation the smallest
    Bernstein coefficient never falls as the order rises, so its verdict, and
    the note verify writes, are those of the order-(degree + 10) decision,
    taken here from the Fraction oracle."""

    @settings(max_examples=300, deadline=None)
    # -1/128 + t ((t - 1/2)^2 + 3/128): proved at order 3 + 10 exactly at
    # -tol = p(0), and with 34 for 35 not proved at any order
    @example(C=[0, 35, -128, 128], e=7, domain=(0.0, 1.0), tol=("boundary", 1), w=1.0)
    @example(C=[-1, 34, -128, 128], e=7, domain=(0.0, 1.0), tol=("scaled", 0.0), w=0.37)
    @given(
        C=st.lists(st.integers(-2**24, 2**24), min_size=1, max_size=5),
        e=st.integers(0, 30),
        domain=st.sampled_from([(0.0, 0.1), (0.0, 0.5), (0.0, 1.0), (0.0, 2.7), 0.0, 0.3, 1.9]),
        tol=st.one_of(st.tuples(st.just("boundary"), st.integers(0, 2**24)),
                      st.tuples(st.just("scaled"), st.sampled_from([0.0, 1e-12, 1e-8, 1e-3, 0.5]))),
        w=st.sampled_from([1.0, 0.37]),
    )
    def test_verdict_and_note_of_the_last_order(self, C, e, domain, tol, w):
        kind, t = tol
        if kind == "boundary":
            # p(0) = C_0 / 2^e = -tol, the smallest coefficient when it is the least
            C, tol = [-t, *C[1:]], t / 2**e
        else:
            tol = t * sum(abs(c) for c in C) / 2**e
        row = _Exact(tuple(C), e)
        p = _fractions(row)
        if isinstance(domain, tuple):
            d = len(C) - 1 + RELAX_SCHEDULE[-1]
            least = min(bernstein_oracle(p, domain, d))
            words = f"at order {d}: smallest Bernstein coefficient"
        else:
            least = sum(c * Fraction(domain) ** k for k, c in enumerate(p.coeffs))
            words = f"at {domain:g}: value"
        if kind == "boundary":
            assume(least == -Fraction(tol))
        proved, order, got = decide_nonneg(row, domain, tol)
        assert proved == (least >= -Fraction(tol))
        if not proved:
            assert (order, got) == ((d if isinstance(domain, tuple) else 0), least)
        # the verdict of verify's report, at a row size whose tolerance is tol exactly
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cert_mod, "_SLACK_TOL", 1.0)
            rep = cert_mod._report({"f": [(0.0, row, domain, tol, w)]}, 10, [])
        assert rep.handelman_ok == proved
        assert rep.notes == ([] if proved else [f"row f[0] not proved {words} {float(least) / w:.3e}"])


class TestFixtures:
    """Certificate files in the earlier format, which stored the LP's rows
    next to zeta: the rows are ignored, and verify proves the rows of zeta."""

    def test_valid_certificate_loads_and_verifies(self, bench_timer_growth):
        data = json.loads((DATA / "timer_growth_constant_0.3.json").read_text())
        assert data["rows"]
        c = Certificate.from_json(data)
        assert "rows" not in c.to_json()
        rep = verify(c, bench_timer_growth)
        assert rep.passed and rep.handelman_ok is True and rep.notes == []
        assert cross_check_discrete(c, bench_timer_growth).passed

    @pytest.mark.parametrize("name, rows", [
        ("inflated_zeta_cut_gamma.json", ["out_c[0]", "out_d[0][0]"]),
        ("cut_zeta_inflated_gamma.json", ["flow[0]"]),
    ])
    def test_bad_certificates_fail_both_referees(self, bench_timer_growth, name, rows):
        """zeta_0 + 1e7 (1 - tau), which feeds no other row, with gamma cut by
        10%; and every zeta(0) cut by 3% with gamma = 1e7.  A tolerance scaled
        by the largest zeta coefficient or by 1 + |gamma| passed them."""
        c = Certificate.load(str(DATA / name))
        rep = verify(c, bench_timer_growth)
        assert not rep.passed and rep.handelman_ok is False
        assert [n.split(" not proved")[0] for n in rep.notes if " not proved" in n] == [f"row {r}" for r in rows]
        assert not cross_check_discrete(c, bench_timer_growth).passed


class TestVerifyOracle:
    """The one mesh body against the three row evaluators it replaced."""

    @pytest.mark.parametrize("bench", IMPULSIVE_BENCHES)
    def test_analysis_grid(self, bench, certify_grid_analyses):
        s = getattr(benchmarks, bench)()
        compared = set()
        for kind, c in certify_grid_analyses(bench):
            assert_matches_three_paths(c, s)
            compared.add(kind)
        # timer_growth is never stable under minimum dwell
        assert len(compared) >= 2

    def test_arbitrary_and_switched(self, bench_lti, bench_switched):
        arb = analyze_arbitrary(bench_lti)
        assert_matches_three_paths(arb, bench_lti)
        # an arbitrary dwell reads lambda = zeta(0) alone, whatever zeta's slope
        sloped = dataclasses.replace(arb, zeta=[z + Poly((0.0, -5.0)) for z in arb.zeta])
        assert_matches_three_paths(sloped, bench_lti)
        for T in (0.1, 0.3, 1.0):
            assert_matches_three_paths(analyze_switched_min(bench_switched, T, 4), bench_switched)

    @pytest.mark.parametrize("plant", ["unstable_chain_plant", "unstable_pair_plant"])
    def test_certify_grid_designs(self, plant):
        p = getattr(benchmarks, plant)()
        compared = 0
        for spec, fixed_kd in CERTIFY_GRID_DESIGNS:
            try:
                ctrl = synthesize(p, spec, 2, fixed_kd=fixed_kd)
            except Infeasible:
                continue
            assert_matches_three_paths(certificate_from(ctrl), closed_loop(p, ctrl))
            compared += 1
        assert compared


def with_inputs(s):
    """The benchmark with one nonnegative control input on each channel."""
    jm = s.jump
    return ImpulsiveSystem.from_arrays(
        A=s.A, Ec=s.Ec, Cc=s.Cc, Fc=s.Fc, J=jm.J, Ed=jm.Ed, Cd=jm.Cd, Fd=jm.Fd,
        Bc=np.full((s.n, 1), 0.5), Dc=np.full((s.qc, 1), 0.2),
        Bd=np.full((s.n, 1), 1.0), Dd=np.full((s.qd, 1), 0.3),
    )


def zero_gain(c, plant):
    """A controller of the certificate's dwell whose gains K_c, K_d are all 0."""
    one, zero = Poly.const(1.0), Poly.const(0.0)
    if c.per_mode:
        return ControllerRealization(
            dwell=c.dwell, gamma=c.gamma, degree=0, margin=0.0,
            X=[[one] * plant.n for _ in range(plant.N)],
            Uc=[[[zero] * plant.n for _ in range(plant.m)] for _ in range(plant.N)],
        )
    return ControllerRealization(
        dwell=c.dwell, gamma=c.gamma, degree=0, margin=0.0,
        X=[one] * plant.n, Uc=[[zero] * plant.n for _ in range(plant.mc)], Ud=[[zero] * plant.n for _ in range(plant.md)],
    )


class TestZeroGainClosedLoop:
    """verify reads a plant and the plant under zero gains through one
    evaluator, so an open-loop certificate gets the same report from both;
    the state-transition cross-check of the plant agrees with the verdict."""

    def test_same_report(self, bench_switched):
        benches = ("timer_growth_bench", "timer_stable_bench", "lti_jump_bench")
        growth, stable, lti = (with_inputs(getattr(benchmarks, b)()) for b in benches)
        cases = [
            (analyze_constant(growth, 0.33, 2), growth),
            (analyze_range(growth, 0.2, 0.3, 4), growth),
            (analyze_minimum(stable, 1.9, 4), stable),
            (analyze_minimum(lti, 0.5, 4), lti),
            (analyze_arbitrary(lti), lti),
            (analyze_switched_min(bench_switched, 0.3, 4), bench_switched),
        ]
        for c, plant in cases:
            for cut in (c, dataclasses.replace(c, gamma=0.9 * c.gamma)):
                want = verify(cut, plant).to_json()
                view = closed_loop(plant, zero_gain(cut, plant))
                assert verify(cut, view).to_json() == want
                referee = cross_check_discrete(cut, plant).to_json()
                assert cross_check_discrete(cut, view).to_json() == referee
                assert referee["passed"] == want["passed"]
        assert sum(verify(c, plant).passed for c, plant in cases) == len(cases)


# degree-2 design specs: each dwell kind, fixed Kd and a degenerate range
DESIGN_SPECS = (
    (DwellTimeSpec.constant(0.1), False),
    (DwellTimeSpec.constant(0.3), False),
    (DwellTimeSpec.minimum(0.2), False),
    (DwellTimeSpec.minimum(0.5), False),
    (DwellTimeSpec.range(0.1, 0.3), False),
    (DwellTimeSpec.range(0.1, 0.3), True),
    (DwellTimeSpec.range(0.2, 0.2), False),
    (DwellTimeSpec.arbitrary(), False),
)


def zeroed(ctrl):
    """The controller with its numerators U_c and U_d set to 0: K_c = K_d = 0."""
    zero = lambda rows: [[Poly.const(0.0) for _ in row] for row in rows]
    Uc = [zero(u) for u in ctrl.Uc] if ctrl.per_mode else zero(ctrl.Uc)
    return dataclasses.replace(ctrl, Uc=Uc, Ud=None if ctrl.Ud is None else zero(ctrl.Ud))


class TestClosedLoopCrossCheck:
    """The state-transition referee integrates A + B K_c and jumps with
    J + B_d K_d(theta): every design passes it, and the same certificate
    fails it on the plant under zero gains."""

    def test_designs_pass_and_fail_without_gains(self, bench_chain_plant, bench_pair_plant, bench_switched):
        designs = []
        for plant in (bench_chain_plant, bench_pair_plant):
            for spec, fixed_kd in DESIGN_SPECS:
                try:
                    designs.append((plant, synthesize(plant, spec, 2, fixed_kd=fixed_kd)))
                except Infeasible:
                    continue
        assert len(designs) >= 12
        # the two-mode bench with a control input on each mode
        steered = SwitchedSystem.from_arrays(
            [{**{k: md[k] for k in "AECF"}, "B": [[0.5], [0.5]], "D": [[0.2]]} for md in bench_switched.modes]
        )
        designs.append((steered, synthesize_switched(steered, 0.5, 2)))
        for plant, ctrl in designs:
            c = certificate_from(ctrl)
            assert cross_check_discrete(c, closed_loop(plant, ctrl)).passed, (plant, ctrl.dwell)
            assert not cross_check_discrete(c, closed_loop(plant, zeroed(ctrl))).passed, (plant, ctrl.dwell)
        # the bench has no control input, so its design is its open loop
        ctrl = synthesize_switched(bench_switched, 0.5, 2)
        assert cross_check_discrete(certificate_from(ctrl), closed_loop(bench_switched, ctrl)).passed


    def test_dwell_read_on_its_admissible_side(self, bench_lti):
        """A minimum dwell of 0.2 falls between grid points (T / h = 50.5 at
        the default grid); the state at the point below T is larger than at T
        and broke the jump row of this valid design."""
        plant = with_inputs(bench_lti)
        ctrl = synthesize(plant, DwellTimeSpec.minimum(0.2), 3)
        c, view = certificate_from(ctrl), closed_loop(plant, ctrl)
        assert verify(c, view).passed
        rep = cross_check_discrete(c, view)
        assert rep.passed and rep.worst_slack["jump[0]"] > 0
        assert cross_check_discrete(c, view, grid=4000).passed


class TestClosedLoopProof:
    """verify proves a design's rows from X, U_c and U_d (or M) exactly."""

    def test_designs_proved(self, bench_chain_plant, bench_pair_plant):
        proved = 0
        for plant in (bench_chain_plant, bench_pair_plant):
            for spec, fixed_kd in DESIGN_SPECS:
                try:
                    ctrl = synthesize(plant, spec, 2, fixed_kd=fixed_kd)
                except Infeasible:
                    continue
                rep = verify(certificate_from(ctrl), closed_loop(plant, ctrl))
                assert rep.passed and rep.handelman_ok is True and rep.notes == [], (plant, spec)
                proved += 1
        assert proved >= 12

    def test_gamma_cut_names_the_output_rows(self, bench_chain_plant):
        ctrl = synthesize(bench_chain_plant, DwellTimeSpec.range(0.1, 0.3), 2, fixed_kd=True)
        cut = dataclasses.replace(ctrl, gamma=0.9 * ctrl.gamma)
        rep = verify(certificate_from(cut), closed_loop(bench_chain_plant, cut))
        assert not rep.passed and rep.handelman_ok is False
        assert any(n.startswith("row out_") and " not proved " in n for n in rep.notes)

    def test_zeta_other_than_x_is_refused(self, bench_chain_plant):
        ctrl = synthesize(bench_chain_plant, DwellTimeSpec.constant(0.1), 2)
        c = certificate_from(ctrl)
        other = dataclasses.replace(c, zeta=[z + Poly.const(1.0) for z in c.zeta])
        with pytest.raises(Mismatch, match="zeta = X"):
            verify(other, closed_loop(bench_chain_plant, ctrl))


class TestPositivityProof:
    """verify proves the positivity hypothesis as well as the theorem rows: a
    plant by model.check_positive, a closed loop by its design's positivity
    rows, each failure a note; the theorem rows and their slacks are as
    before."""

    def test_nonpositive_plant_fails(self, nonpositive_rotation):
        # issued when no analysis checked positivity; its gamma is below the
        # gain a single simulated run already shows
        c = Certificate.load(str(DATA / "nonpositive_constant_1.json"))
        assert estimate_gain(nonpositive_rotation, SequenceGen.for_spec(c.dwell, seed=0), runs=1) > 1.3 * c.gamma
        rep = verify(c, nonpositive_rotation)
        assert not rep.passed and rep.handelman_ok is True
        assert rep.notes == ["not positive on [0, 1]: A[0, 1]"]
        assert min(rep.worst_slack.values()) > 0

    def test_negative_inputs_fail(self, negative_input_plant):
        """A controller made for a plant whose Ec, Fc and Ed have negative
        entries, when no design checked them: its rows are proved, and a
        simulated run exceeds its gamma, as no feedback changes those entries."""
        ctrl = ControllerRealization.load(str(DATA / "negative_input_design.json"))
        gen = SequenceGen.for_spec(ctrl.dwell, seed=0)
        assert estimate_gain(negative_input_plant, gen, runs=1, controller=ctrl) > 4 * ctrl.gamma
        rep = verify(certificate_from(ctrl), closed_loop(negative_input_plant, ctrl))
        assert not rep.passed and rep.handelman_ok is True
        assert rep.notes == ["not positive on [0, 0.1]: Ec[1, 0], Fc[0, 0], jumps[0].Ed[1, 0]"]

    def test_tampered_numerators_fail(self, bench_chain_plant):
        """U_c and U_d moved with their row sums kept: the theorem rows read
        them through U 1 only, so only the positivity rows see the change."""
        ctrl = synthesize(bench_chain_plant, DwellTimeSpec.constant(0.1), 2)
        want = verify(certificate_from(ctrl), closed_loop(bench_chain_plant, ctrl))
        (u0, u1), = ctrl.Uc
        uc = dataclasses.replace(ctrl, Uc=[[u0 + Poly.const(20.0), u1 - Poly.const(20.0)]])
        (d0, d1), = ctrl.Ud
        ud = dataclasses.replace(ctrl, Ud=[[d0 + Poly.const(20.0), d1 - Poly.const(20.0)]])
        for bad, entries in ((uc, ["A X + B U_c[0, 1]"]), (ud, ["J X + B_d U_d[0, 1]", "J X + B_d U_d[1, 1]"])):
            rep = verify(certificate_from(bad), closed_loop(bench_chain_plant, bad))
            assert not rep.passed and rep.handelman_ok is True
            assert rep.worst_slack == pytest.approx(want.worst_slack, abs=1e-12)  # rounding of K = U X^-1
            assert [n.split(" at ")[0] for n in rep.notes] == [f"closed loop not positive: {e}" for e in entries]


class TestTransitionMatrix:
    def test_nilpotent_exponential(self):
        sys = ImpulsiveSystem.from_arrays(A=[[0.0, 1.0], [0.0, 0.0]], J=np.eye(2))
        Phi = transition_matrix(sys, 0.0, 0.7)
        assert np.max(np.abs(Phi - np.array([[1.0, 0.7], [0.0, 1.0]]))) <= 1e-10

    def test_identity_at_equal_times(self, bench_lti):
        assert transition_matrix(bench_lti, 1.3, 1.3) == pytest.approx(np.eye(2))

    def test_pure_jump(self):
        sys = ImpulsiveSystem.from_arrays(A=[[0.0]], J=[[0.25]])
        Phi = transition_matrix(sys, 0.0, 1.0, jumps_in_between=[0.5])
        assert Phi == pytest.approx(np.array([[0.25]]))

    def test_semigroup_property(self, bench_lti, bench_timer_stable):
        for sys in (bench_lti, bench_timer_stable):
            r, s, t = 0.0, 0.6, 1.4
            full = transition_matrix(sys, r, t, timer_origin=0.0)
            first = transition_matrix(sys, r, s, timer_origin=0.0)
            second = transition_matrix(sys, s, t, timer_origin=0.0)
            assert np.max(np.abs(second @ first - full)) <= 1e-8

    def test_matches_expm_for_constant(self, bench_lti):
        from scipy.linalg import expm

        A = bench_lti.A.const()
        Phi = transition_matrix(bench_lti, 0.0, 0.9)
        assert np.max(np.abs(Phi - expm(0.9 * A))) <= 1e-9

    @pytest.mark.parametrize("kw, name", [
        ({"step": -1.0}, "step"), ({"step": 0.0}, "step"), ({"step": np.nan}, "step"), ({"step": np.inf}, "step"),
        ({"frm": np.nan}, "frm"), ({"frm": -np.inf}, "frm"), ({"to": np.nan}, "to"), ({"to": np.inf}, "to"),
        ({"timer_origin": np.nan}, "timer_origin"), ({"timer_origin": -np.inf}, "timer_origin"),
    ])
    def test_refuses_bad_arguments(self, bench_lti, kw, name):
        """A negative step used to integrate [0, 1] in one cell, a zero step to
        divide by zero, a NaN bound to return the identity, an infinite one
        to overflow and a NaN timer origin to return a NaN matrix."""
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            transition_matrix(bench_lti, **{"frm": 0.0, "to": 1.0, **kw})

    def test_refuses_nan_jump(self, bench_lti):
        """A NaN instant is in no interval, so it used to be dropped and the
        no-jump Phi returned, which differs from Phi with the jump at 0.5."""
        no_jump, jump = transition_matrix(bench_lti, 0.0, 1.0), transition_matrix(bench_lti, 0.0, 1.0, [0.5])
        assert no_jump[0, 0] == pytest.approx(0.36788, abs=1e-5) and jump[0, 0] == pytest.approx(0.18154, abs=1e-5)
        with pytest.raises(ValueError, match="^jumps_in_between must not hold NaN"):
            transition_matrix(bench_lti, 0.0, 1.0, jumps_in_between=[0.5, np.nan])

    @pytest.mark.parametrize("frm, jumps, error, message", [
        (1.0, [], ValueError, "need frm <= to"),
        (0.0, [0.2, 0.4], Unsupported, "transition through jumps needs a single jump map"),
        (0.0, np.array([0.2, 0.4]), Unsupported, "transition through jumps needs a single jump map"),
    ], ids=["backward", "multi-jump-list", "multi-jump-array"])
    def test_refusals(self, frm, jumps, error, message):
        """Each refusal by class and message: a NumPy array of jump instants
        is refused as a list is, not with NumPy's ambiguous truth value."""
        two_jumps = ImpulsiveSystem.from_arrays(A=[[-1.0]], J=[[0.5]], extra_jumps=[{"J": [[0.2]]}])
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            transition_matrix(two_jumps, frm, 0.5, jumps_in_between=jumps)

    @pytest.mark.parametrize("spec, theta", [(DwellTimeSpec.constant(0.1), 0.1), (DwellTimeSpec.range(0.1, 0.3), 0.2)])
    def test_closed_loop_through_jumps(self, bench_chain_plant, spec, theta):
        """A closed loop's Phi through two jumps, each J + B_d K_d(theta), is
        the simulated run from e_i less the run from 0 under the same unit
        inputs, column by column."""
        p = bench_chain_plant
        ctrl = synthesize(p, spec, 2)
        assert np.max(np.abs(p.jump.Bd @ ctrl.kd(theta))) > 0.5  # J alone is another map
        runs = [simulate(p, SequenceGen.exact(theta), generate_inputs("const_unit"), x0, 2.5 * theta, step=1e-3,
                         controller=ctrl) for x0 in np.vstack([np.zeros(p.n), np.eye(p.n)])]
        jumps = list(runs[0].jump_times)
        assert len(jumps) == 2
        Phi = transition_matrix(closed_loop(p, ctrl), 0.0, 2.5 * theta, jumps_in_between=jumps, step=1e-3)
        columns = np.stack([run.states[-1] - runs[0].states[-1] for run in runs[1:]], axis=1)
        np.testing.assert_allclose(Phi, columns, rtol=0, atol=1e-14)


class TestSwitchedLift:
    """verify and cross_check_discrete read a switched certificate, or a
    closed loop under a switched controller, as that of the lift: each
    report equals, whole, the one of the lifted certificate on
    `lift_switched` (conftest.lifted), passing and failing alike."""

    def test_reports_are_the_lifts(self, bench_three_mode):
        sw3, sw1 = bench_three_mode, stabilizable_two_mode()
        ctrl3, ctrl1 = synthesize_switched(sw3, 0.3, 2), synthesize_switched(sw1, 0.3, 2)
        cases = [
            (analyze_switched_min(sw3, 0.3, 4), sw3),
            (certificate_from(ctrl3), closed_loop(sw3, ctrl3)),
            (certificate_from(ctrl1), sw1),  # the open loop, which no certificate fits
            (certificate_from(ctrl1), closed_loop(sw1, ctrl1)),
        ]
        verdicts = []
        for c, target in cases:
            for check in (verify, cross_check_discrete):
                rep = check(c, target).to_json()
                assert rep == check(*lifted(c, target)).to_json()
                verdicts.append(rep["passed"])
        assert verdicts == [True, True, True, True, False, False, True, True]

    def test_lifted_inverts_unlifted(self, bench_three_mode):
        c = analyze_switched_min(bench_three_mode, 0.3, 4)
        assert c.lifted() == lifted(c, bench_three_mode)[0] and c.lifted().unlifted(3) == c
        ctrl = synthesize_switched(stabilizable_two_mode(), 0.3, 2)
        assert ctrl.lifted().unlifted(2) == ctrl

    def test_mismatch_still_raises(self, bench_three_mode):
        c = analyze_switched_min(bench_three_mode, 0.3, 4)
        lifted_c, lift = lifted(c, bench_three_mode)
        for check in (verify, cross_check_discrete):
            with pytest.raises(Mismatch, match="switched certificate needs the switched system"):
                check(c, lift)
            with pytest.raises(Mismatch, match="MinimumDT certificate cannot verify a switched system"):
                check(lifted_c, bench_three_mode)
            with pytest.raises(Mismatch, match="certificate has 2 mode vectors, system has 3"):
                check(dataclasses.replace(c, zeta=c.zeta[:2]), bench_three_mode)


class TestSwitchedDwellClassReports:
    """A switched certificate or closed loop of any dwell class is checked as
    the lifted one of its dwell's kind; a jump row with no term, a lifted
    inactive block's zeta_b(0) >= 0, is pin_lo's row and is proved once."""

    @pytest.mark.parametrize("dwell", ["constant:0.3", "range:0.3:0.6", "arbitrary"])
    def test_reports_are_the_lifts(self, bench_three_mode, dwell):
        spec = DwellTimeSpec.parse(dwell)
        sw = bench_three_mode
        c = {"constant": lambda: analyze_constant(sw, spec.T, 2), "arbitrary": lambda: analyze_arbitrary(sw),
             "range": lambda: analyze_range(sw, spec.Tmin, spec.Tmax, 2)}[spec.kind]()
        ctrl = synthesize(sw, spec, 2)
        assert c.lifted() == lifted(c, sw)[0] and c.lifted().unlifted(sw.N) == c
        assert ctrl.lifted().unlifted(sw.N) == ctrl
        for cc, target in ((c, sw), (certificate_from(ctrl), closed_loop(sw, ctrl))):
            for check in (verify, cross_check_discrete):
                rep = check(cc, target).to_json()
                assert rep["passed"] and rep == check(*lifted(cc, target)).to_json()

    def test_implied_rows_proved_once(self, monkeypatch, bench_switched, bench_three_mode):
        """The two-mode analysis at T = 0.3, degree 4, proves flow 4, out_c 2,
        stat_flow 4, stat_out 2, pin_lo 4 and 2 jump rows per switch: 20
        rows, and 24 with the 2 inactive-block rows of each switch.  The
        three-mode closed loop at T = 0.3, degree 2, proves 36 rows and
        positivity entries of A X + B U_c and C X + D U_c: its lift's
        selector jumps have no input, so J X + B_d U_d >= 0 restates J >= 0,
        which `model.check_positive` decides, and is not proved again.  The
        two-mode closed loop at T = 0.5, degree 2, proves 20 (29 with them)."""
        calls = []
        real = cert_mod.decide_nonneg
        monkeypatch.setattr(cert_mod, "decide_nonneg", lambda *a, **k: calls.append(a[0]) or real(*a, **k))
        rep = verify(analyze_switched_min(bench_switched, 0.3, 4), bench_switched)
        assert rep.passed and len(calls) == 20
        ctrl = synthesize_switched(bench_three_mode, 0.3, 2)
        calls.clear()
        rep = verify(certificate_from(ctrl), closed_loop(bench_three_mode, ctrl))
        assert rep.passed and len(calls) == 36
        ctrl = synthesize_switched(bench_switched, 0.5, 2)
        calls.clear()
        rep = verify(certificate_from(ctrl), closed_loop(bench_switched, ctrl))
        assert rep.passed and len(calls) == 20

    def test_transition_matrix_refuses_switched(self, bench_switched):
        for target in (bench_switched, closed_loop(bench_switched, synthesize_switched(bench_switched, 0.5, 2))):
            with pytest.raises(Unsupported, match="^transition_matrix needs an impulsive system"):
                transition_matrix(target, 0.0, 1.0)

    def test_flow_grid_needs_a_mode(self, bench_switched):
        taus = np.linspace(0.0, 1.0, 11)
        with pytest.raises(Unsupported, match="^the flow data of a switched system need a mode$"):
            flow_grid(bench_switched, taus)
        Phi = flow_grid(bench_switched, taus, mode=1)[0]
        assert Phi.shape == (2, 2, 11) and np.array_equal(Phi[..., 0], np.eye(2))


class TestFlowGrid:
    @pytest.mark.parametrize("taus", [[0.0, 1e-9, 3e-9], [0.0, 1.0, 2.0, 3.5], [5.0, 5.1, 5.3]])
    def test_uneven_grid_is_refused(self, bench_lti, taus):
        """Uniformity is judged relative to the step: [0, 1e-9, 3e-9] used to
        pass an absolute slack of 1e-8 and return Phi(2e-9) at tau = 3e-9."""
        with pytest.raises(ValueError, match="^flow_grid needs a uniform grid$"):
            flow_grid(bench_lti, taus)

    def test_empty_grid_is_refused(self, bench_lti):
        """An empty grid is a ValueError, as an uneven one is, not an
        IndexError of its missing step."""
        with pytest.raises(ValueError, match="^flow_grid needs a grid of one point at least$"):
            flow_grid(bench_lti, [])

    def test_one_point_grid_is_the_identity(self, bench_lti):
        Phi, r, C, z = flow_grid(bench_lti, [0.7])
        assert np.array_equal(Phi[..., 0], np.eye(2)) and not r.any()
        assert (Phi.shape, r.shape, C.shape, z.shape) == ((2, 2, 1), (2, 1), (1, 2, 1), (1, 1))

    @pytest.mark.parametrize("start, stop, cells", [(0.0, 1e-6, 1000), (1e3, 1e3 + 1e-3, 10), (0.0, 100.0, 3)])
    def test_uniform_grid_to_rounding_is_accepted(self, bench_lti, start, stop, cells):
        """A linspace is uniform up to rounding of its points, far off zero too."""
        Phi = flow_grid(bench_lti, np.linspace(start, stop, cells + 1))[0]
        assert Phi.shape == (2, 2, cells + 1) and np.array_equal(Phi[..., 0], np.eye(2))


class TestCrossCheckOracle:
    """cross_check_discrete reads the simulator's evaluator; the body that
    integrated the plant's PolyMatrix data itself, kept as
    conftest.reference_cross_check, gives the same verdicts and slacks.  A
    switched certificate is checked as the lift's: its report is the
    reference's impulsive one on the lift, with the verdict of the
    reference's per-mode path."""

    @staticmethod
    def _check(c, s):
        got, want = cross_check_discrete(c, s), reference_cross_check(*lifted(c, s))
        assert got.passed == want.passed
        assert got.grid_density == want.grid_density
        assert list(got.worst_slack) == list(want.worst_slack)
        for family, slack in want.worst_slack.items():
            assert abs(got.worst_slack[family] - slack) <= 1e-12 * (1.0 + abs(c.gamma))
        if c.per_mode:
            assert got.passed == reference_cross_check(c, s).passed

    @pytest.mark.parametrize("bench", IMPULSIVE_BENCHES)
    def test_analysis_grid(self, bench, certify_grid_analyses):
        s = getattr(benchmarks, bench)()
        for _, c in certify_grid_analyses(bench):
            self._check(c, s)

    def test_arbitrary_and_switched(self, bench_lti, bench_switched):
        self._check(analyze_arbitrary(bench_lti), bench_lti)
        self._check(analyze_switched_min(bench_switched, 0.3, 4), bench_switched)


class TestCrossCheck:
    def test_constant_positive_slack(self, bench_timer_growth, cert_constant):
        rep = cross_check_discrete(cert_constant, bench_timer_growth)
        assert rep.passed
        assert rep.phi_residual > 0

    def test_minimum_with_clamped_tail(self, bench_lti):
        cert = analyze_minimum(bench_lti, 1.0, 4)
        rep = cross_check_discrete(cert, bench_lti)
        assert rep.passed
        assert any(f.startswith("jump") for f in rep.worst_slack)

    def test_arbitrary(self, bench_lti):
        cert = analyze_arbitrary(bench_lti)
        rep = cross_check_discrete(cert, bench_lti)
        assert rep.passed

    def test_range(self, bench_timer_growth):
        cert = analyze_range(bench_timer_growth, 0.3, 0.5, 4)
        rep = cross_check_discrete(cert, bench_timer_growth)
        assert rep.passed

    def test_switched(self, bench_switched):
        cert = analyze_switched_min(bench_switched, 0.1, 4)
        rep = cross_check_discrete(cert, bench_switched)
        assert rep.passed

    @pytest.mark.parametrize("kw", [{"theta_points": 0}, {"theta_points": -2}, {"grid": 0}, {"grid": -3}])
    def test_counts_below_one_are_refused(self, bench_timer_growth, kw):
        """theta_points = 0 used to end in an empty reduction, and grid = -3 to run 404 points."""
        c = analyze_range(bench_timer_growth, 0.3, 0.5, 4)
        (key, value), = kw.items()
        with pytest.raises(ValueError, match=f"^theta_points and grid must be >= 1, got .*{key}={value}"):
            cross_check_discrete(c, bench_timer_growth, **kw)

    def test_gamma_cut_violates(self, bench_timer_growth, cert_constant):
        bad = dataclasses.replace(cert_constant, gamma=0.9 * cert_constant.gamma)
        rep = cross_check_discrete(bad, bench_timer_growth)
        assert not rep.passed
        assert rep.phi_residual < 0


def test_report_table_and_json(bench_timer_growth, cert_constant):
    rep = verify(cert_constant, bench_timer_growth)
    text = rep.table()
    assert "flow" in text and "passed" in text
    data = rep.to_json()
    assert data["passed"] is True and "worst_slack" in data
