"""Hash every artifact dwellgain produces on a fixed list of cases, so that two
versions of the package can be compared output by output.

    PYTHONPATH=src python3 tools/artifact_hashes.py OUT.json
    PYTHONPATH=src python3 tools/artifact_hashes.py --compare BEFORE.json AFTER.json

The first form runs the cases below against the dwellgain on the path and
writes one entry per output.  Certificates (without the `rows` that earlier
versions stored next to zeta), controllers, `--dump-lp` texts, gains,
Blanchini values, LTI gains with their witness vectors and error texts are
stored as SHA-256 digests of their JSON or text.  So is the `dump_lp` text of
every LP a case hands to `analysis.lp_solve`, in the order solved (`<case> lp[i]`):
each relaxation order tried, the sampled referee, and the LPs of
`analyze_arbitrary`, `analyze_lti` and the Blanchini bound, whether the solve
succeeds or not.  `verify` and
state-transition cross-check reports are stored whole.

The second form compares two such files.  Digests must be equal; a `verify`
report must keep its verdict and its worst slack per row family, bit for bit;
a cross-check report must keep its verdict and its row families, and each
worst slack may move by at most 1e-12 * (1 + |gamma|), as rounding may move
it.  It prints every other difference and exits 1 if there is one.  A summary
follows: the differences per output kind (certificate, controller, gain, lp,
verify, cross-check, simulation, decision, positivity, error), every verdict
that flips between pass and fail, every case that flips between a result and
an error and every error whose class changes (say Infeasible ->
NotPositive), each with its direction, the largest relative move of the gamma
stored with the cross-check entries, and that of the values stored with the
simulation entries.

Cases:
- the three impulsive benchmarks under constant, minimum, range [T, 1.5 T]
  and range-mu dwell at T in {0.12, 0.2, 0.33, 0.5, 1.9, 2.7} and degrees
  2, 4, 6, plus degenerate ranges [T, T] and ranges [T, T + 1e-13];
- arbitrary dwell on four constant systems at three margin settings, and
  `analyze_lti` of each for both norms and both times, and the L1 gain of
  its `adjoint` at both times;
- switched minimum dwell and the Blanchini bound at five dwell times, and
  the minimum-dwell analysis of a three-mode system (`three_mode_switched`),
  whose lift has six selector jump maps, at three dwell times;
- the switched constant, range and arbitrary analyses (`analyze_constant`,
  `analyze_range`, `analyze_arbitrary` of a SwitchedSystem) of
  two_mode_switched_bench at SWITCHED_DWELLS and of `three_mode_switched` at
  THREE_MODE_DWELLS, degree 4 (0 under arbitrary dwell), each verified and
  cross-checked;
- `synthesize` for three plants, eight dwell specifications and degrees 0-3,
  with the closed loop verified and cross-checked, and likewise fixed-K_d
  designs on [0.2, 0.2] and both designs on [0.2, 0.2 + 1e-13], and
  minimum-dwell designs for the timer-dependent timer_stable_bench with
  inputs at T in {0.7, 1.3, 1.7} and degrees 1-3;
- `synthesize_switched` for two_mode_switched_bench at four dwell times,
  for a two-mode plant with one input per mode (`stabilizable_two_mode`)
  at two, and for `three_mode_switched` at two, and `synthesize` of
  two_mode_switched_bench and `three_mode_switched` under the constant,
  range and arbitrary dwells of SWITCHED_DESIGN_DWELLS at degree 2, each
  closed loop verified and cross-checked;
- each switched `verify` and cross-check report again for its lifted twin
  (`lifted_twin`, key `<case> lifted`): the certificate or controller
  stacked onto `lift_switched`, so that a version which checks a switched
  system as its lift can be matched bit for bit against the twins of one
  that does not;
- the escalation outcomes at constant dwell: the offset parabola plant
  (`offset_parabola_system`) at offset 0.26 (needs order ~26) with the
  default schedule, which ends in RelaxationLimit, and with the schedule
  (26,), and at offset 0.3, which certifies at order +6 after a feasible
  referee, all at T = 1 and degree 0; and a plant whose discrete output
  entry, 8.27e-13, lies below HiGHS's small_matrix_value, at T = 0.2 and
  degree 1, whose every order and referee fail numerically;
- a system that is not positive (A[0, 1] = -3) under constant, minimum,
  range and arbitrary dwell, and `verify` of a certificate issued for it
  (tests/data/nonpositive_constant_1.json, made when no analysis checked
  positivity);
- `verify` of a closed loop whose U_c breaks its positivity rows while
  U_c 1 is unchanged: U_c[0][0] + 20 and U_c[0][1] - 20 in the
  unstable_chain_plant constant:0.1 degree-2 design;
- `synthesize` for a plant whose input matrices Ec, Fc and Ed have negative
  entries, which no state feedback changes, at constant:0.1 degree 2, and
  `verify` of the controller made for it when no design checked them
  (tests/data/negative_input_design.json);
- simulations, open and closed loop, impulsive (n = 1, 2, 4) and switched,
  at constant, range and minimum dwell: the `simulate` states, z_c and z_d
  and the bytes of the three `export_trajectory` files, over a horizon of
  about 30,000 mesh points and one of fewer maps than a prefix block, the
  `estimate_gain` value and the `cert.flow_grid` tables (Phi, r, C, z) on
  grids of 1 to 9,000 cells.  These trajectories take a sine input, which
  builds a table per segment; those of `constant_input_cases` take a constant
  one, which shares one table per mode, under exact, range and minimum
  dwell, open and closed loop, switched, and with a truncated last
  segment.  Arrays are stored as SHA-256 digests of their
  bytes, so a march that moves any value by one ulp shows; next to them
  are each array's largest magnitude and each estimate's value;
- one CLI `simulate` run at default flags through `cli.main`
  (lti_jump_bench, minimum:0.7, horizon 5, seed 1, paths relative to the
  output directory so that the sidecar's system path is the same on every
  checkout): its exit code and stdout and the bytes of its three files;
- `decide_nonneg` verdicts (proved, order, smallest Bernstein coefficient)
  of every nonconstant flow or output matrix entry of the built-in
  benchmarks on (0, 1.9) at tol 0, 1e-8 and -1e-8, and at the points of
  NONNEG_POINTS, and of the parabolas (t - 0.5)^2 + c on (0, 1) for c in
  PARABOLA_C; and the `violations` and `unverified` of `check_positive` of
  every benchmark, nonpositive_rotation and negative_input_plant at
  T in {0.2, 1.9}.

Only the public API is used, so the script runs against any version of `src/`;
a case that a version refuses with any exception is stored as its error.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from dwellgain import analysis, benchmarks, cert, cli, model, sim, synthesis, Poly
from dwellgain.errors import DwellgainError
from dwellgain.lp import dump_lp
from dwellgain.model import DwellTimeSpec, ImpulsiveSystem, SwitchedSystem, check_positive
from dwellgain.poly import decide_nonneg

IMPULSIVE = ("lti_jump_bench", "timer_growth_bench", "timer_stable_bench")
GRID_T = (0.12, 0.2, 0.33, 0.5, 1.9, 2.7)
DEGREES = (2, 4, 6)
DEGENERATE_RANGES = ((0.2, 0.2), (1.9, 1.9), (0.2, 0.2000000000001), (1.9, 1.9000000000001))
ARBITRARY_MARGINS = ((analysis.DEFAULT_MARGIN, analysis.DEFAULT_JUMP_MARGIN), (0.0, 0.0), (1e-3, 0.1))
SWITCHED_T = (0.1, 0.3, 0.5, 1.0, 2.0)
DESIGN_SPECS = (
    (DwellTimeSpec.constant(0.1), False),
    (DwellTimeSpec.constant(0.3), False),
    (DwellTimeSpec.minimum(0.2), False),
    (DwellTimeSpec.minimum(0.5), False),
    (DwellTimeSpec.range(0.1, 0.3), False),
    (DwellTimeSpec.range(0.1, 0.3), True),
    (DwellTimeSpec.range(0.2, 0.2), False),
    (DwellTimeSpec.arbitrary(), False),
    # one-dwell ranges: exactly [T, T], and narrower than the 1e-12 collapse
    (DwellTimeSpec.range(0.2, 0.2), True),
    (DwellTimeSpec.range(0.2, 0.2000000000001), False),
    (DwellTimeSpec.range(0.2, 0.2000000000001), True),
)
DESIGN_DEGREES = (0, 1, 2, 3)
# a timer-dependent plant at dwell times that are not dyadic
TIMER_DESIGN_SPECS = tuple((DwellTimeSpec.minimum(T), False) for T in (0.7, 1.3, 1.7))
TIMER_DESIGN_DEGREES = (1, 2, 3)
SWITCHED_DESIGN_T = (0.3, 0.5, 1.0, 2.0)
# switched designs with a block-diagonal U (m = 1) and with three modes
STABILIZABLE_DESIGN_T = (0.3, 0.5)
THREE_MODE_DESIGN_T = (0.3, 1.0)
THREE_MODE_T = (0.1, 0.3, 1.0)
# switched analyses and designs under the other dwell classes
SWITCHED_DWELLS = ("constant:0.1", "constant:0.5", "range:0.1:0.3", "range:0.5:1", "arbitrary")
THREE_MODE_DWELLS = ("constant:0.3", "range:0.3:0.6", "arbitrary")
SWITCHED_DESIGN_DWELLS = ("constant:0.3", "range:0.1:0.3", "arbitrary")
# certificate kind of an impulsive system per dwell kind: that of a lift
LIFTED_KIND = {"arbitrary": "ArbitraryDT", "constant": "ConstantDT", "minimum": "MinimumDT", "range": "RangeDT"}
# about 30,000 mesh points, and fewer maps than one prefix block
SIM_HORIZONS = (30.0, 0.02)
FLOW_GRID_CELLS = (1, 20, 700, 9000)
NONNEG_DOMAIN = (0.0, 1.9)
NONNEG_TOLS = (0.0, 1e-8, -1e-8)
NONNEG_POINTS = (0.0, 0.7, 1.9)
PARABOLA_C = (0.26, 0.25, 0.01, 0.0)
POSITIVITY_T = (0.2, 1.9)
SLACK_RTOL = 1e-12
DATA = os.path.join(os.path.dirname(__file__), "..", "tests", "data")
NONPOSITIVE_CERTIFICATE = os.path.join(DATA, "nonpositive_constant_1.json")
NEGATIVE_INPUT_DESIGN = os.path.join(DATA, "negative_input_design.json")


def nonpositive_rotation() -> ImpulsiveSystem:
    """A stable flow that is not positive, A[0, 1] = -3, with J = I: its gain
    under constant dwell 1 is its LTI L-infinity gain, 0.6244."""
    return ImpulsiveSystem.from_arrays(A=[[-1.0, -3.0], [3.0, -1.0]], Ec=[[1.0], [0.0]], Cc=[[0.0, 1.0]], J=np.eye(2))


def negative_input_plant() -> ImpulsiveSystem:
    """unstable_chain_plant with Ec = [[0.2], [-0.3]], Fc = [[-0.1]] and
    Ed = [[0.3], [-0.3]]: no state feedback makes its closed loop positive."""
    c = benchmarks.unstable_chain_plant()
    jm = c.jump
    return ImpulsiveSystem.from_arrays(A=c.A, Bc=c.Bc, Ec=[[0.2], [-0.3]], Cc=c.Cc, Fc=[[-0.1]],
                                       J=jm.J, Bd=jm.Bd, Ed=[[0.3], [-0.3]], Cd=jm.Cd, Fd=jm.Fd)


def offset_parabola_system(offset: float) -> ImpulsiveSystem:
    """A scalar plant whose flow row, zeta (offset - tau + tau^2) - 0.001 on
    [0, 1] at degree 0, needs a higher relaxation order the smaller the
    offset."""
    return ImpulsiveSystem.from_arrays(A=[[[-offset, 1.0, -1.0]]], Ec=[[[0.001]]], Cc=[[[1.0]]], Fc=[[[0.0]]],
                                       J=[[0.5]], Ed=[[0.0]], Cd=[[1.0]], Fd=[[0.0]])


def tiny_discrete_output_plant() -> ImpulsiveSystem:
    """A = -1, J = 1 and a discrete output entry of 8.27e-13, which row
    scaling leaves below HiGHS's small_matrix_value."""
    zeros = {"Ec": [[0.0]], "Cc": [[0.0]], "Fc": [[0.0]], "Ed": [[0.0]], "Fd": [[0.0]]}
    return ImpulsiveSystem.from_arrays(A=[[[-1.0]]], J=[[1.0]], Cd=[[8.265803520048773e-13]], **zeros)


def three_mode_switched() -> SwitchedSystem:
    """two_mode_switched_bench with a third mode: its lift has N (N - 1) = 6
    selector jump maps."""
    modes = [{k: md[k] for k in "ABECDF"} for md in benchmarks.two_mode_switched_bench().modes]
    modes.append({"A": [[-1.5, 0.2], [0.3, -1.0]], "E": [[0.2], [0.05]], "C": [[0.5, 0.5]], "F": [[0.0]]})
    return SwitchedSystem.from_arrays(modes)


def stabilizable_two_mode() -> SwitchedSystem:
    """Two modes with one input each, each mode's unstable state driven by
    its own input: a mode's controller acts on its own block only."""
    return SwitchedSystem.from_arrays([
        {"A": [[1.0, 1.0], [0.0, -2.0]], "B": [[1.0], [0.0]], "E": [[0.2], [0.3]], "C": [[0.0, 1.0]], "F": [[0.1]]},
        {"A": [[-2.0, 0.0], [1.0, 1.0]], "B": [[0.0], [1.0]], "E": [[0.3], [0.2]], "C": [[1.0, 0.0]], "F": [[0.1]]},
    ])


def lifted_twin(c, target):
    """A switched certificate and its system, or closed loop, as those of
    `model.lift_switched`, from public names only: zeta and X stacked, the
    kind of the dwell (LIFTED_KIND), U_c block-diagonal with zero
    polynomials off the blocks."""
    stack = lambda vectors: [v for vs in vectors for v in vs]
    kind = LIFTED_KIND[c.dwell.kind]
    lifted = dataclasses.replace(c, kind=kind, zeta=stack(c.zeta))
    if not isinstance(target, synthesis.ClosedLoopView):
        return lifted, model.lift_switched(target)
    ctrl = target.ctrl
    N, n, zero = len(ctrl.X), len(ctrl.X[0]), Poly((0.0,))
    Uc = [[zero] * (i * n) + row + [zero] * ((N - 1 - i) * n) for i, rows in enumerate(ctrl.Uc) for row in rows]
    ctrl = dataclasses.replace(ctrl, kind=kind, X=stack(ctrl.X), Uc=Uc)
    return lifted, synthesis.closed_loop(model.lift_switched(target.sys), ctrl)


def scalar_plant() -> ImpulsiveSystem:
    """A one-state plant with one control input on each channel."""
    return ImpulsiveSystem.from_arrays(A=[[-1.0]], Bc=[[1.0]], Ec=[[1.0]], Cc=[[1.0]], Fc=[[0.0]],
                                       J=[[0.5]], Bd=[[0.5]], Ed=[[0.2]], Cd=[[1.0]], Fd=[[0.0]])


def simulation_cases() -> list:
    """(name, system, dwell, controller or None) of the simulation outputs."""
    lti, timer, sw = benchmarks.lti_jump_bench(), benchmarks.timer_stable_bench(), benchmarks.two_mode_switched_bench()
    cases = [("lti_jump_bench", lti, DwellTimeSpec.parse(d), None)
             for d in ("constant:0.3", "range:0.3:0.45", "minimum:0.3")]
    cases += [("timer_stable_bench", timer, DwellTimeSpec.parse(d), None)
              for d in ("constant:2", "range:1.7:2.55", "minimum:1.7")]
    cases += [("timer_growth_bench", benchmarks.timer_growth_bench(), DwellTimeSpec.constant(0.6), None),
              ("lifted two_mode_switched_bench", model.lift_switched(sw), DwellTimeSpec.minimum(0.5), None),
              ("scalar_plant", scalar_plant(), DwellTimeSpec.constant(0.3), None)]
    cases += [("two_mode_switched_bench", sw, DwellTimeSpec.parse(d), None)
              for d in ("constant:0.5", "range:0.5:0.75", "minimum:0.5")]
    designs = (("unstable_chain_plant", benchmarks.unstable_chain_plant(), DwellTimeSpec.constant(0.1)),
               ("unstable_chain_plant", benchmarks.unstable_chain_plant(), DwellTimeSpec.range(0.1, 0.3)),
               ("unstable_pair_plant", benchmarks.unstable_pair_plant(), DwellTimeSpec.minimum(0.2)),
               ("scalar_plant", scalar_plant(), DwellTimeSpec.constant(0.3)))
    cases += [(f"{pname} closed loop", p, spec, synthesis.synthesize(p, spec, 2)) for pname, p, spec in designs]
    cases.append(("two_mode_switched_bench closed loop", sw, DwellTimeSpec.minimum(0.5),
                  synthesis.synthesize_switched(sw, 0.5, 2)))
    return cases


def constant_input_cases() -> list:
    """(name, system, dwell, controller or None, horizon) of the trajectories
    under a constant continuous input: exact dwell, whose segments repeat,
    and range and minimum dwell, whose segments differ in length."""
    lti, sw = benchmarks.lti_jump_bench(), benchmarks.two_mode_switched_bench()
    chain, pair = benchmarks.unstable_chain_plant(), benchmarks.unstable_pair_plant()
    designs = (("unstable_chain_plant", chain, DwellTimeSpec.constant(0.1)),
               ("unstable_chain_plant", chain, DwellTimeSpec.range(0.1, 0.3)),
               ("unstable_pair_plant", pair, DwellTimeSpec.minimum(0.2)))
    return [
        ("lti_jump_bench", lti, DwellTimeSpec.constant(0.3), None, 30.0),
        ("lti_jump_bench", lti, DwellTimeSpec.range(0.3, 0.45), None, 30.0),
        ("lti_jump_bench", lti, DwellTimeSpec.minimum(0.3), None, 30.0),
    ] + [(f"{pname} closed loop", p, spec, synthesis.synthesize(p, spec, 2), 30.0) for pname, p, spec in designs] + [
        ("two_mode_switched_bench", sw, DwellTimeSpec.constant(0.5), None, 30.0),
        ("two_mode_switched_bench", sw, DwellTimeSpec.range(0.5, 0.75), None, 30.0),
        ("two_mode_switched_bench", sw, DwellTimeSpec.minimum(0.5), None, 30.0),
        # 16 dwells and a last segment of 0.4
        ("timer_growth_bench", benchmarks.timer_growth_bench(), DwellTimeSpec.constant(0.6), None, 10.0),
    ]


def _array_digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype} {a.shape} ".encode() + a.tobytes()).hexdigest()


def record_trajectory(rec: "Recorder", key: str, s, gen, inputs, horizon: float, ctrl, clamp, prefix: str) -> None:
    """The states, z_c and z_d of one `simulate` run, each with its largest
    magnitude as its value, and the bytes of its export files."""
    try:
        traj = sim.simulate(s, gen, inputs, x0=np.full(s.n, 0.1), horizon=horizon, controller=ctrl, clamp=clamp,
                            check_step=True)
    except (DwellgainError, ValueError) as exc:
        rec.out[key] = _error(exc)
        return
    for part in ("states", "zc", "zd"):
        a = getattr(traj, part)
        rec.out[f"{key} {part}"] = {"digest": _array_digest(a), "value": float(np.max(np.abs(a))) if a.size else 0.0}
    sim.export_trajectory(traj, prefix)
    for suffix in ("_states.csv", "_jumps.csv", "_meta.json"):
        with open(prefix + suffix, "rb") as fh:
            rec.out[f"{key} export{suffix}"] = {"digest": hashlib.sha256(fh.read()).hexdigest()}


def collect_simulations(rec: "Recorder", out_dir: str) -> None:
    """The simulation outputs of `simulation_cases` and `constant_input_cases` into rec.out."""
    inputs = sim.combine_inputs(sim.generate_inputs("sine"), sim.generate_inputs("uniform_random", seed=8))
    prefix = os.path.join(out_dir, "trajectory")
    for name, s, dwell, ctrl in simulation_cases():
        gen = sim.SequenceGen.for_spec(dwell, seed=7)
        for horizon in SIM_HORIZONS:
            record_trajectory(rec, f"sim {name} {dwell} horizon={horizon}", s, gen, inputs, horizon, ctrl,
                              dwell.clamp, prefix)
        value = rec.solve(f"sim {name} {dwell} estimate_gain", lambda lp: sim.estimate_gain(
            s, gen, runs=3, horizon=10.0, controller=ctrl, clamp=dwell.clamp), repr)
        if value is not None:
            rec.out[f"sim {name} {dwell} estimate_gain"]["value"] = value
        view = s if ctrl is None else synthesis.closed_loop(s, ctrl)
        for mode in range(s.N) if isinstance(s, SwitchedSystem) else (None,):
            for cells in FLOW_GRID_CELLS:
                key = f"flow_grid {name} {dwell} mode={mode} cells={cells}"
                try:
                    tables = cert.flow_grid(view, np.linspace(0.0, 1.5, cells + 1), dwell.clamp, mode)
                except (DwellgainError, ValueError) as exc:
                    rec.out[key] = _error(exc)
                    continue
                for part, a in zip(("Phi", "r", "C", "z"), tables):
                    rec.out[f"{key} {part}"] = {"digest": _array_digest(a)}
    constant = sim.combine_inputs(sim.generate_inputs("const_unit"), sim.generate_inputs("uniform_random", seed=8))
    for name, s, dwell, ctrl, horizon in constant_input_cases():
        record_trajectory(rec, f"sim {name} {dwell} const_unit horizon={horizon}", s,
                          sim.SequenceGen.for_spec(dwell, seed=7), constant, horizon, ctrl, dwell.clamp, prefix)


def collect_cli_simulate(rec: "Recorder", out_dir: str) -> None:
    """The exit code, stdout and three files of one CLI simulate run into rec.out."""
    key = "sim cli simulate lti_jump_bench minimum:0.7 horizon=5 seed=1"
    with contextlib.chdir(out_dir), contextlib.redirect_stdout(io.StringIO()) as stdout:
        model.save_system(benchmarks.lti_jump_bench(), "lti_jump_bench.json")
        code = cli.main(["simulate", "--system", "lti_jump_bench.json", "--dwell", "minimum:0.7",
                         "--horizon", "5", "--seed", "1", "-o", "cli"])
        rec.out[f"{key} stdout"] = {"digest": _digest(f"exit {code}\n{stdout.getvalue()}")}
        for suffix in ("_states.csv", "_jumps.csv", "_meta.json"):
            with open("cli" + suffix, "rb") as fh:
                rec.out[f"{key} export{suffix}"] = {"digest": hashlib.sha256(fh.read()).hexdigest()}


def collect_decisions(rec: "Recorder") -> None:
    """The decide_nonneg verdicts and check_positive reports into rec.out."""
    verdict = lambda r: [r[0], r[1], str(r[2])]
    systems = {name: getattr(benchmarks, name)() for name in (
        "lti_jump_bench", "timer_growth_bench", "timer_stable_bench", "unstable_chain_plant",
        "unstable_pair_plant", "two_mode_switched_bench")}
    for name, s in systems.items():
        modes = range(s.N) if isinstance(s, SwitchedSystem) else (None,)
        for mode in modes:
            for label, mat in zip("ABECDF", model.mode_mats(s, mode)):
                for i in range(mat.shape[0]):
                    for j in range(mat.shape[1]):
                        p = mat.entry(i, j)
                        if p.degree == 0:
                            continue
                        key = f"decide_nonneg {name} mode={mode} {label}[{i},{j}]"
                        for tol in NONNEG_TOLS:
                            rec.solve(f"{key} {NONNEG_DOMAIN} tol={tol}",
                                      lambda lp: decide_nonneg(p, NONNEG_DOMAIN, tol), verdict)
                        for t in NONNEG_POINTS:
                            rec.solve(f"{key} at {t}", lambda lp: decide_nonneg(p, t), verdict)
    for c in PARABOLA_C:
        p = Poly((0.25 + c, -1.0, 1.0))
        rec.solve(f"decide_nonneg (t - 0.5)^2 + {c} (0.0, 1.0)", lambda lp: decide_nonneg(p, (0.0, 1.0)), verdict)
    systems.update(nonpositive_rotation=nonpositive_rotation(), negative_input_plant=negative_input_plant())
    for name, s in systems.items():
        for T in POSITIVITY_T:
            rec.solve(f"check_positive {name} T={T}", lambda lp: check_positive(s, (0.0, T)),
                      lambda r: {"violations": r.violations, "unverified": r.unverified})


def _digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _error(exc: Exception) -> dict:
    return {"error": _digest(f"{type(exc).__name__}: {exc}"), "text": f"{type(exc).__name__}: {exc}"}


def with_inputs(s: ImpulsiveSystem) -> ImpulsiveSystem:
    """The benchmark with one nonnegative control input on each channel."""
    jm = s.jump
    return ImpulsiveSystem.from_arrays(
        A=s.A, Ec=s.Ec, Cc=s.Cc, Fc=s.Fc, J=jm.J, Ed=jm.Ed, Cd=jm.Cd, Fd=jm.Fd,
        Bc=np.full((s.n, 1), 0.5), Dc=np.full((s.qc, 1), 0.2),
        Bd=np.full((s.n, 1), 1.0), Dd=np.full((s.qd, 1), 0.3),
    )


class Recorder:
    def __init__(self, lp_dir: str):
        self.out: dict[str, dict] = {}
        self.lp_path = os.path.join(lp_dir, "dump.lp")
        self.solved_path = os.path.join(lp_dir, "solved.lp")

    def solve(self, key: str, run, artifact):
        """run(lp_path) -> result; stores the digest of artifact(result), or
        the error, the LP text if run wrote one to lp_path, and the text of
        every LP that run hands to analysis.lp_solve."""
        if os.path.exists(self.lp_path):
            os.remove(self.lp_path)
        solved = []
        real = analysis.lp_solve

        def spy(prog):
            dump_lp(prog, self.solved_path)
            with open(self.solved_path) as fh:
                solved.append(_digest(fh.read()))
            return real(prog)

        analysis.lp_solve = spy
        try:
            result = run(self.lp_path)
        except Exception as exc:  # a version may not accept every case
            self.out[key] = _error(exc)
            return None
        finally:
            analysis.lp_solve = real
            for i, digest in enumerate(solved):
                self.out[f"{key} lp[{i}]"] = {"digest": digest}
        self.out[key] = {"digest": _digest(artifact(result))}
        if os.path.exists(self.lp_path):
            with open(self.lp_path) as fh:
                self.out[key + " lp"] = {"digest": _digest(fh.read())}
        return result

    def reports(self, key: str, c, target):
        """verify and the state-transition cross-check, whole reports."""
        self.out[key + " verify"] = {"verify": cert.verify(c, target).to_json()}
        try:
            rep = cert.cross_check_discrete(c, target).to_json()
        except Exception as exc:  # a version may not accept every target
            self.out[key + " cross-check"] = _error(exc)
            return
        self.out[key + " cross-check"] = {"report": rep, "gamma": float(c.gamma)}


def collect(lp_dir: str) -> dict:
    rec = Recorder(lp_dir)
    to_json = lambda c: {k: v for k, v in c.to_json().items() if k != "rows"}
    for bname in IMPULSIVE:
        s = getattr(benchmarks, bname)()
        for T in GRID_T:
            Tmax = float(f"{1.5 * T:.5g}")
            runs = {
                "constant": lambda d, lp: analysis.analyze_constant(s, T, d, dump_lp=lp),
                "minimum": lambda d, lp: analysis.analyze_minimum(s, T, d, dump_lp=lp),
                "range": lambda d, lp: analysis.analyze_range(s, T, Tmax, d, dump_lp=lp),
                "range-mu": lambda d, lp: analysis.analyze_range(s, T, Tmax, d, mode="mu_variant", dump_lp=lp),
            }
            for kind, run in runs.items():
                for d in DEGREES:
                    key = f"{bname} {kind} T={T} degree={d}"
                    c = rec.solve(key, lambda lp: run(d, lp), to_json)
                    if c is not None:
                        rec.reports(key, c, s)
        for lo, hi in DEGENERATE_RANGES:
            for mode in ("direct", "mu_variant"):
                key = f"{bname} range {lo}:{hi} {mode} degree=2"
                c = rec.solve(key, lambda lp: analysis.analyze_range(s, lo, hi, 2, mode=mode, dump_lp=lp), to_json)
                if c is not None:
                    rec.reports(key, c, s)

    arbitrary = {
        "lti_jump_bench": benchmarks.lti_jump_bench(),
        "unstable_chain_plant": benchmarks.unstable_chain_plant(),
        "unstable_pair_plant": benchmarks.unstable_pair_plant(),
        "lifted two_mode_switched_bench": model.lift_switched(benchmarks.two_mode_switched_bench()),
    }
    for sname, s in arbitrary.items():
        for margin, jump_margin in ARBITRARY_MARGINS:
            key = f"{sname} arbitrary margin={margin} jump_margin={jump_margin}"
            c = rec.solve(key, lambda lp: analysis.analyze_arbitrary(s, margin, jump_margin), to_json)
            if c is not None:
                rec.reports(key, c, s)
        lti = lambda result: [repr(result[0]), [repr(v) for v in result[1]]]
        for time in ("continuous", "discrete"):
            for norm in ("Linf", "L1"):
                rec.solve(f"{sname} lti {norm} {time}", lambda lp: analysis.analyze_lti(s, norm, time), lti)
            rec.solve(f"{sname} lti adjoint L1 {time}",
                      lambda lp: analysis.analyze_lti(model.adjoint(s), "L1", time), lti)

    sw = benchmarks.two_mode_switched_bench()
    for T in SWITCHED_T:
        key = f"two_mode_switched_bench minimum T={T} degree=4"
        c = rec.solve(key, lambda lp: analysis.analyze_switched_min(sw, T, 4, dump_lp=lp), to_json)
        if c is not None:
            rec.reports(key, c, sw)
            rec.reports(key + " lifted", *lifted_twin(c, sw))
        rec.solve(f"two_mode_switched_bench blanchini T={T}",
                  lambda lp: analysis.analyze_switched_blanchini(sw, T), lambda g: repr(g))
    sw3 = three_mode_switched()
    for T in THREE_MODE_T:
        key = f"three_mode_switched minimum T={T} degree=4"
        c = rec.solve(key, lambda lp: analysis.analyze_switched_min(sw3, T, 4, dump_lp=lp), to_json)
        if c is not None:
            rec.reports(key, c, sw3)
            rec.reports(key + " lifted", *lifted_twin(c, sw3))
    for sname, s, dwells in (("two_mode_switched_bench", sw, SWITCHED_DWELLS),
                             ("three_mode_switched", sw3, THREE_MODE_DWELLS)):
        for text in dwells:
            spec = DwellTimeSpec.parse(text)
            runs = {
                "constant": lambda lp: analysis.analyze_constant(s, spec.T, 4, dump_lp=lp),
                "range": lambda lp: analysis.analyze_range(s, spec.Tmin, spec.Tmax, 4, dump_lp=lp),
                "arbitrary": lambda lp: analysis.analyze_arbitrary(s),
            }
            key = f"{sname} {text} degree={0 if spec.kind == 'arbitrary' else 4}"
            c = rec.solve(key, runs[spec.kind], to_json)
            if c is not None:
                rec.reports(key, c, s)
                rec.reports(key + " lifted", *lifted_twin(c, s))

    plants = {
        "unstable_chain_plant": benchmarks.unstable_chain_plant(),
        "unstable_pair_plant": benchmarks.unstable_pair_plant(),
        "lti_jump_bench+inputs": with_inputs(benchmarks.lti_jump_bench()),
    }
    designs = [(pname, p, DESIGN_SPECS, DESIGN_DEGREES) for pname, p in plants.items()]
    designs.append(("timer_stable_bench+inputs", with_inputs(benchmarks.timer_stable_bench()),
                    TIMER_DESIGN_SPECS, TIMER_DESIGN_DEGREES))
    for pname, p, specs, degrees in designs:
        for spec, fixed_kd in specs:
            for d in degrees:
                key = f"{pname} design {spec.to_json()}{' fixed_kd' if fixed_kd else ''} degree={d}"
                ctrl = rec.solve(
                    key, lambda lp: synthesis.synthesize(p, spec, d, fixed_kd=fixed_kd, dump_lp=lp), to_json)
                if ctrl is not None:
                    rec.reports(key, synthesis.certificate_from(ctrl), synthesis.closed_loop(p, ctrl))
    switched_designs = [("two_mode_switched_bench", sw, SWITCHED_DESIGN_T),
                        ("stabilizable_two_mode", stabilizable_two_mode(), STABILIZABLE_DESIGN_T),
                        ("three_mode_switched", sw3, THREE_MODE_DESIGN_T)]
    for sname, s, Ts in switched_designs:
        for T in Ts:
            key = f"{sname} design minimum T={T} degree=2"
            ctrl = rec.solve(key, lambda lp: synthesis.synthesize_switched(s, T, 2, dump_lp=lp), to_json)
            if ctrl is not None:
                c, loop = synthesis.certificate_from(ctrl), synthesis.closed_loop(s, ctrl)
                rec.reports(key, c, loop)
                rec.reports(key + " lifted", *lifted_twin(c, loop))
    for sname, s in (("two_mode_switched_bench", sw), ("three_mode_switched", sw3)):
        for text in SWITCHED_DESIGN_DWELLS:
            key = f"{sname} design {text} degree=2"
            spec = DwellTimeSpec.parse(text)
            ctrl = rec.solve(key, lambda lp: synthesis.synthesize(s, spec, 2, dump_lp=lp), to_json)
            if ctrl is not None:
                c, loop = synthesis.certificate_from(ctrl), synthesis.closed_loop(s, ctrl)
                rec.reports(key, c, loop)
                rec.reports(key + " lifted", *lifted_twin(c, loop))

    escalations = {
        "offset_parabola_system(0.26) constant T=1.0 degree=0":
            lambda lp: analysis.analyze_constant(offset_parabola_system(0.26), 1.0, 0, dump_lp=lp),
        "offset_parabola_system(0.26) constant T=1.0 degree=0 relax_schedule=(26,)":
            lambda lp: analysis.analyze_constant(offset_parabola_system(0.26), 1.0, 0, relax_schedule=(26,),
                                                 dump_lp=lp),
        "offset_parabola_system(0.3) constant T=1.0 degree=0":
            lambda lp: analysis.analyze_constant(offset_parabola_system(0.3), 1.0, 0, dump_lp=lp),
        "tiny_discrete_output_plant constant T=0.2 degree=1":
            lambda lp: analysis.analyze_constant(tiny_discrete_output_plant(), 0.2, 1, dump_lp=lp),
    }
    for key, run in escalations.items():
        rec.solve(key, run, to_json)

    rot = nonpositive_rotation()
    runs = {
        "constant:1": lambda lp: analysis.analyze_constant(rot, 1.0, 2, dump_lp=lp),
        "minimum:1": lambda lp: analysis.analyze_minimum(rot, 1.0, 2, dump_lp=lp),
        "range:0.5:1": lambda lp: analysis.analyze_range(rot, 0.5, 1.0, 2, dump_lp=lp),
        "arbitrary": lambda lp: analysis.analyze_arbitrary(rot),
    }
    for spec, run in runs.items():
        key = f"nonpositive_rotation {spec} degree=2"
        c = rec.solve(key, run, to_json)
        if c is not None:
            rec.reports(key, c, rot)
    rec.reports("nonpositive_rotation certificate file", analysis.Certificate.load(NONPOSITIVE_CERTIFICATE), rot)
    chain = benchmarks.unstable_chain_plant()
    ctrl = synthesis.synthesize(chain, DwellTimeSpec.constant(0.1), 2)
    ctrl.Uc[0][0] = ctrl.Uc[0][0] + Poly((20.0,))
    ctrl.Uc[0][1] = ctrl.Uc[0][1] - Poly((20.0,))
    rec.reports("unstable_chain_plant design constant:0.1 degree=2 U_c tampered",
                synthesis.certificate_from(ctrl), synthesis.closed_loop(chain, ctrl))
    neg = negative_input_plant()
    rec.solve("negative_input_plant design constant:0.1 degree=2",
              lambda lp: synthesis.synthesize(neg, DwellTimeSpec.constant(0.1), 2), to_json)
    stored = synthesis.ControllerRealization.load(NEGATIVE_INPUT_DESIGN)
    rec.reports("negative_input_plant design file", synthesis.certificate_from(stored),
                synthesis.closed_loop(neg, stored))
    collect_simulations(rec, lp_dir)
    collect_cli_simulate(rec, lp_dir)
    collect_decisions(rec)
    return rec.out


def _same_cross_check(a: dict, b: dict) -> bool:
    ra, rb = a["report"], b["report"]
    if ra["passed"] != rb["passed"] or set(ra["worst_slack"]) != set(rb["worst_slack"]):
        return False
    tol = SLACK_RTOL * (1.0 + abs(a["gamma"]))
    return all(abs(ra["worst_slack"][f] - rb["worst_slack"][f]) <= tol for f in ra["worst_slack"])


def _same_verify(a: dict, b: dict) -> bool:
    ra, rb = a["verify"], b["verify"]
    return ra["passed"] == rb["passed"] and ra["worst_slack"] == rb["worst_slack"]


def _kind(key: str, a: dict, b: dict) -> str:
    """The output kind of a differing entry: error when either side is one,
    else read from the key."""
    if any(e is not None and "error" in e for e in (a, b)):
        return "error"
    for suffix in ("lp", "verify", "cross-check"):
        if key.endswith(" " + suffix):
            return suffix
    if key.rsplit(" ", 1)[-1].startswith("lp["):
        return "lp"
    if key.startswith(("sim ", "flow_grid ")):
        return "simulation"
    if key.startswith("decide_nonneg "):
        return "decision"
    if key.startswith("check_positive "):
        return "positivity"
    if " blanchini " in key or " lti " in key:
        return "gain"
    return "controller" if " design " in key else "certificate"


def _verdict(e: dict):
    """passed of a verify or cross-check entry, None for any other entry."""
    if e is None:
        return None
    report = e.get("verify") or e.get("report")
    return None if report is None else report["passed"]


def _error_class(e: dict) -> str:
    """The exception class of an error entry, the text before its first colon."""
    return e["text"].split(":", 1)[0]


def _summary(before: dict, after: dict, differ: list[str]) -> None:
    """Differences per output kind, every verdict, outcome and error-class
    flip, and the largest relative gamma move of the cross-check entries."""
    kinds: dict[str, int] = {}
    for key in differ:
        kind = _kind(key, before.get(key), after.get(key))
        kinds[kind] = kinds.get(kind, 0) + 1
    print("differences per kind: " + (", ".join(f"{k} {n}" for k, n in sorted(kinds.items())) or "none"))
    flips = []
    for key in differ:
        a, b = before.get(key), after.get(key)
        if a is None or b is None:
            continue
        va, vb = _verdict(a), _verdict(b)
        if va is not None and vb is not None and va != vb:
            flips.append(f"  {key}: {'pass' if va else 'fail'} -> {'pass' if vb else 'fail'}")
        elif ("error" in a) != ("error" in b) and not key.endswith((" verify", " cross-check")):
            flips.append(f"  {key}: {'error -> result' if 'error' in a else 'result -> error'}")
        elif "error" in a and "error" in b and _error_class(a) != _error_class(b):
            flips.append(f"  {key}: {_error_class(a)} -> {_error_class(b)}")
    print(f"{len(flips)} verdict, outcome or error-class flips")
    for line in flips:
        print(line)
    moves = [
        (abs(after[k]["gamma"] - before[k]["gamma"]) / abs(before[k]["gamma"]), k)
        for k in set(before) & set(after)
        if "gamma" in before[k] and "gamma" in after[k] and before[k]["gamma"] != 0.0
    ]
    if moves:
        rel, key = max(moves)
        print(f"largest relative gamma move {rel:.3g} ({key}) over {len(moves)} cross-check entries")
    moves = [
        (abs(after[k]["value"] - before[k]["value"]) / abs(before[k]["value"]), k)
        for k in set(before) & set(after)
        if "value" in before[k] and "value" in after[k] and before[k]["value"] != 0.0
    ]
    if moves:
        rel, key = max(moves)
        print(f"largest relative simulation value move {rel:.3g} ({key}) over {len(moves)} simulation entries")


def compare(before: dict, after: dict) -> int:
    """Print each key whose entry differs beyond what a refactor may move,
    then a summary of them; return the number of such keys."""
    differ = []
    for key in sorted(set(before) | set(after)):
        a, b = before.get(key), after.get(key)
        if a == b or (a and b and "report" in a and "report" in b and _same_cross_check(a, b)):
            continue
        if a and b and "verify" in a and "verify" in b and _same_verify(a, b):
            continue
        differ.append(key)
        describe = lambda e: ("missing" if e is None else
                              e.get("text") or e.get("report") or e.get("verify") or e["digest"][:12])
        print(f"{key}:\n  before {describe(a)}\n  after  {describe(b)}")
    print(f"{len(set(before) | set(after))} outputs, {len(differ)} differ")
    _summary(before, after, differ)
    return len(differ)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        with open(argv[1]) as fa, open(argv[2]) as fb:
            return 1 if compare(json.load(fa), json.load(fb)) else 0
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as lp_dir:
        out = collect(lp_dir)
    with open(argv[0], "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(out)} outputs written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
