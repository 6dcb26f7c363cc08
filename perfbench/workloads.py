"""The three benchmark workloads: op lists made from a seed, and their checks.

Ops call dwellgain only through public names, looked up on the module at call
time (`analysis.analyze_constant(...)`, `cli.main(...)`), so the layer tracer's
wrappers see every call and later refactors need no change here.

In certify-grid the dwell times are fixed and the seed shuffles the order of
the jobs, so every seed runs the same jobs with the same outcomes -- including
the ones that fail verify -- and the failed count of a run depends on its
number of passes alone.  In montecarlo the seed jitters each dwell time by up
to +-5% (log scale) around fixed centres and picks the switching sequences;
the job mix -- which configurations are stable, which take the rational
controller path -- stays the same from seed to seed, and so do the timings.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from dwellgain import analysis, benchmarks, cert, cli, model, sim, synthesis
from dwellgain.errors import Infeasible
from dwellgain.model import DwellTimeSpec

RANGE_RATIO = 1.5  # range dwell is [T, 1.5 T]
JITTER = 0.05
MC_HORIZON = 30.0
GAMMA_RTOL = 1e-9  # a Monte-Carlo lower bound may not exceed a certified gain by more
IMPULSIVE = ("lti_jump_bench", "timer_growth_bench", "timer_stable_bench")
KINDS = ("constant", "minimum", "range")


@dataclass
class Result:
    """What one op produced, reduced to what the checks and the reference need."""

    ok: bool = True
    reason: str = ""
    outcome: str = ""
    # one (certified, gamma or None) pair per certification job in the op
    certs: list = field(default_factory=list)
    value: Optional[float] = None  # Monte-Carlo gain lower bound
    exit: Optional[int] = None  # CLI exit code

    def summary(self) -> dict:
        return {"ok": self.ok, "outcome": self.outcome, "exit": self.exit, "value": self.value,
                "gammas": [g for _, g in self.certs], "certified": [c for c, _ in self.certs]}


def _identity(raw):
    return raw


@dataclass
class Op:
    key: str
    run: Callable[[], object]  # the timed call
    check: Callable[[object], Result] = _identity  # untimed
    jobs: int = 1  # certification jobs counted when the op raises


@dataclass
class Workload:
    name: str
    ops: list
    # certification jobs made outside the op list (Monte-Carlo references)
    reference_certs: list = field(default_factory=list)
    # Monte-Carlo op key -> certified gain of the same (system, dwell, controller)
    bounds: dict = field(default_factory=dict)
    finish: Callable[[], None] = lambda: None


def _dwell_time(rng, center: float) -> float:
    return float(f"{center * math.exp(rng.uniform(-JITTER, JITTER)):.5g}")


def _spec(kind: str, T: float) -> DwellTimeSpec:
    if kind == "range":
        return DwellTimeSpec.range(T, float(f"{RANGE_RATIO * T:.5g}"))
    return getattr(DwellTimeSpec, kind)(T)


def _verified(c, target, cross_check: bool = True) -> Result:
    """verify (and the state-transition cross-check) of a fresh certificate."""
    reasons = []
    rep = cert.verify(c, target)
    if not rep.passed:
        reasons.append("verify: " + ("; ".join(rep.notes) or "failed"))
    if cross_check:
        cc = cert.cross_check_discrete(c, target)
        if not cc.passed:
            reasons.append(f"cross_check_discrete: residual {cc.phi_residual:.3g}")
    ok = not reasons
    return Result(ok=ok, reason="; ".join(reasons), outcome="certified" if ok else "verify-failed",
                  certs=[(ok, float(c.gamma))])


def _infeasible() -> Result:
    return Result(outcome="infeasible", certs=[(False, None)])


def analysis_job(s, sname: str, spec: DwellTimeSpec, degree: int) -> Op:
    """check_positive -> analyze_<kind> -> verify -> cross_check_discrete."""

    def run():
        if not model.check_positive(s, (0.0, spec.horizon_tau())).positive:
            return Result(ok=False, reason="check_positive: not certified positive",
                          outcome="not-positive", certs=[(False, None)])
        try:
            if spec.kind == "range":
                c = analysis.analyze_range(s, spec.Tmin, spec.Tmax, degree)
            elif spec.kind == "constant":
                c = analysis.analyze_constant(s, spec.T, degree)
            else:
                c = analysis.analyze_minimum(s, spec.T, degree)
        except Infeasible:
            return _infeasible()
        return _verified(c, s)

    return Op(f"analysis {sname} {spec} degree={degree}", run)


def _switched_min_job(sw, T: float) -> Op:
    def run():
        try:
            c = analysis.analyze_switched_min(sw, T, 4)
        except Infeasible:
            return _infeasible()
        return _verified(c, sw)

    return Op(f"switched_min two_mode_switched_bench minimum:{T} degree=4", run)


def _blanchini_job(sw, T: float) -> Op:
    def run():
        try:
            g = analysis.analyze_switched_blanchini(sw, T)
        except Infeasible:
            return _infeasible()
        ok = math.isfinite(g) and g > 0
        return Result(ok=ok, reason="" if ok else f"gamma {g!r} not positive",
                      outcome="certified" if ok else "bad-gamma", certs=[(ok, float(g))])

    return Op(f"switched_blanchini two_mode_switched_bench minimum:{T}", run)


def _arbitrary_job(s) -> Op:
    return Op("arbitrary lti_jump_bench", lambda: _verified(analysis.analyze_arbitrary(s), s))


def _lti_adjoint_job(s) -> Op:
    """The L1 gain of the adjoint realization equals the primal Linf gain."""

    def run():
        g, _ = analysis.analyze_lti(s)
        g_adj, _ = analysis.analyze_lti(model.adjoint(s), norm="L1")
        ok = abs(g - g_adj) <= 1e-6 * max(1.0, abs(g))
        return Result(ok=ok, reason="" if ok else f"Linf {g!r} != adjoint L1 {g_adj!r}",
                      outcome="certified" if ok else "adjoint-mismatch", certs=[(ok, float(g))])

    return Op("lti lti_jump_bench Linf vs adjoint L1", run)


def design_job(p, pname: str, spec: DwellTimeSpec, fixed_kd: bool) -> Op:
    """synthesize -> verify of the closed loop."""

    def run():
        try:
            ctrl = synthesis.synthesize(p, spec, 2, fixed_kd=fixed_kd)
        except Infeasible:
            return _infeasible()
        view = synthesis.closed_loop(p, ctrl)
        return _verified(synthesis.certificate_from(ctrl), view, cross_check=False)

    return Op(f"design {pname} {spec}{' fixed_kd' if fixed_kd else ''} degree=2", run)


# Roughly log-spaced, but kept off the stability edges (timer_growth loses
# feasibility between T = 0.7 and 1.6 depending on kind and degree,
# timer_stable gains it near 1.25), where gamma grows without bound.
GRID_CENTERS = (0.12, 0.2, 0.33, 0.5, 1.9, 2.7)
DEGREES = (2, 4, 6)
SWITCHED_CENTERS = (0.3, 1.0)
DESIGNS = (
    (DwellTimeSpec.constant(0.1), False),
    (DwellTimeSpec.range(0.1, 0.3), False),
    (DwellTimeSpec.range(0.1, 0.3), True),
    (DwellTimeSpec.minimum(0.2), False),
)
PLANTS = ("unstable_chain_plant", "unstable_pair_plant")


def certify_grid(seed: int, tiny: bool) -> Workload:
    rng = np.random.default_rng(seed)
    centers = GRID_CENTERS[2:3] if tiny else GRID_CENTERS
    ops = []
    for si, sname in enumerate(IMPULSIVE):
        s = getattr(benchmarks, sname)()
        for ki, kind in enumerate(KINDS):
            for ci, center in enumerate(centers):
                # each degree meets every part of the T range across systems and kinds
                degree = DEGREES[(ci + si + ki) % len(DEGREES)]
                ops.append(analysis_job(s, sname, _spec(kind, center), degree))
    sw = benchmarks.two_mode_switched_bench()
    for T in SWITCHED_CENTERS[: 1 if tiny else None]:
        ops += [_switched_min_job(sw, T), _blanchini_job(sw, T)]
    lti = benchmarks.lti_jump_bench()
    ops += [_arbitrary_job(lti), _lti_adjoint_job(lti)]
    for pname in PLANTS:
        p = getattr(benchmarks, pname)()
        for spec, fixed_kd in DESIGNS[1:2] if tiny else DESIGNS:
            ops.append(design_job(p, pname, spec, fixed_kd))
    analysis.analyze_constant(lti, 1.0, 2)  # warm-up solve
    return Workload("certify-grid", [ops[i] for i in rng.permutation(len(ops))])


# Dwell-time centres per (system, kind), inside the range where the system is
# stable (timer_growth under minimum dwell never is), so runs stay finite.
MC_CENTERS = {
    "lti_jump_bench": {"constant": (0.3, 0.8, 1.5), "minimum": (0.3, 0.8, 1.5), "range": (0.3, 0.8, 1.5)},
    "timer_growth_bench": {"constant": (0.2, 0.4, 0.6), "minimum": (0.15, 0.25, 0.4),
                           "range": (0.2, 0.4, 0.6)},
    "timer_stable_bench": {"constant": (1.6, 2.0, 2.5), "minimum": (1.6, 2.0, 2.5), "range": (1.6, 2.0, 2.5)},
}
MC_SWITCHED = DwellTimeSpec.minimum(0.1)
MC_CLOSED = (("unstable_chain_plant", DwellTimeSpec.range(0.1, 0.3)),
             ("unstable_pair_plant", DwellTimeSpec.minimum(0.2)))


def _mc_job(key: str, s, spec: DwellTimeSpec, seq_seed: int, ctrl=None) -> Op:
    gen = sim.SequenceGen.for_spec(spec, seed=seq_seed)

    def run():
        v = sim.estimate_gain(s, gen, runs=1, horizon=MC_HORIZON, controller=ctrl, clamp=spec.clamp)
        ok = math.isfinite(v) and v > 0
        return Result(ok=ok, reason="" if ok else f"gain {v!r} not positive", outcome="value", value=float(v))

    return Op(f"{key} seq_seed={seq_seed}", run, jobs=0)


def montecarlo(seed: int, tiny: bool) -> Workload:
    """One op is one estimate_gain(runs=1, horizon=30) call."""
    rng = np.random.default_rng(seed)
    configs = []  # (key, system, spec, controller, certification of the configuration)
    for sname, per_kind in MC_CENTERS.items():
        s = getattr(benchmarks, sname)()
        for kind, centers in per_kind.items():
            for center in centers[:1] if tiny else centers:
                spec = _spec(kind, _dwell_time(rng, center))
                configs.append((f"open {sname} {spec}", s, spec, None, analysis_job(s, sname, spec, 4).run))
    sw = benchmarks.two_mode_switched_bench()
    configs.append((f"open two_mode_switched_bench {MC_SWITCHED}", sw, MC_SWITCHED, None,
                    _switched_min_job(sw, MC_SWITCHED.T).run))
    for pname, spec in MC_CLOSED:
        p = getattr(benchmarks, pname)()
        ctrl = synthesis.synthesize(p, spec, 2)
        configs.append((f"closed {pname} {spec}", p, spec, ctrl,
                        lambda p=p, c=ctrl: _verified(synthesis.certificate_from(c), synthesis.closed_loop(p, c),
                                                      cross_check=False)))
    ops = [_mc_job(key, s, spec, seed * 1000 + i, ctrl)
           for i, (key, s, spec, ctrl, _) in enumerate(configs)]
    wl = Workload("montecarlo", ops)

    def references():
        """Certify every configuration, untimed, for the gamma >= Monte-Carlo check."""
        for op, (*_, certify) in zip(ops, configs):
            res = certify()
            wl.reference_certs += res.certs
            certified, gamma = res.certs[0]
            if certified:
                wl.bounds[op.key] = gamma

    wl.finish = references
    return wl


# (system, analyze/simulate dwell kind, T, dwell for synthesize or None to
#  reuse the analyze dwell, expected analyze exit code)
CHAINS = (
    ("lti_jump_bench", "minimum", 0.7, None, cli.EXIT_OK),
    ("timer_growth_bench", "constant", 0.6, None, cli.EXIT_OK),
    ("two_mode_switched_bench", "minimum", 0.5, None, cli.EXIT_OK),
    ("unstable_chain_plant", "constant", 0.3, "range:0.1:0.3", cli.EXIT_INFEASIBLE),
)
CLI_RUNS = "2"
CLI_HORIZON = "5"
SWEEP_POINTS = 4


def _cli_call(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue() + err.getvalue()

    return run


def _gamma_file(path: str) -> float:
    with open(path) as fh:
        return float(json.load(fh)["gamma"])


def _chain(workdir: str, ci: int, sname: str, kind: str, T: float, synth_dwell, analyze_exit,
           sim_seed: int) -> list:
    """analyze -> certify -> simulate -> sweep -> synthesize -> certify -> simulate --controller."""
    base = os.path.join(workdir, f"chain{ci}")
    system, cert_path, ctrl_path = base + "_system.json", base + "_cert.json", base + "_ctrl.json"
    dwell = str(_spec(kind, T))
    synth_dwell = synth_dwell or dwell
    label = f"{sname} {dwell}"
    state = {}

    def step(name, argv, expect, judge=None, jobs=0):
        def check(raw):
            rc, text = raw
            if rc != expect:
                last = text.strip().splitlines()[-1] if text.strip() else ""
                return Result(ok=False, reason=f"exit {rc}, expected {expect}: {last}",
                              outcome=f"exit-{rc}", exit=rc, certs=[(False, None)] * jobs)
            res = judge() if judge else Result()
            res.exit, res.outcome = rc, res.outcome or "ok"
            return res

        return Op(f"cli {name} {label}", _cli_call(argv), check, jobs)

    def analyzed():
        state.clear()
        _gamma_file(cert_path)
        return Result()

    def certified(path, key):
        def judge():
            state[key] = _gamma_file(path)
            return Result(certs=[(True, state[key])])

        return judge

    def simulated(prefix, key):
        def judge():
            with open(prefix + "_meta.json") as fh:
                v = float(json.load(fh)["empirical_gain"])
            bound = state.get(key)
            if bound is not None and v > bound * (1 + GAMMA_RTOL):
                return Result(ok=False, reason=f"empirical gain {v!r} above certified {bound!r}",
                              outcome="unsound", value=v)
            return Result(value=v)

        return judge

    def swept():
        with open(base + "_sweep.csv") as fh:
            rows = fh.read().split()
        vals = [float(r.split(",")[1]) for r in rows[1:]]
        ok = len(vals) == SWEEP_POINTS and all(math.isnan(v) or v > 0 for v in vals)
        return Result(ok=ok, reason="" if ok else f"bad sweep rows {rows!r}")

    sim_args = ["--runs", CLI_RUNS, "--horizon", CLI_HORIZON, "--seed", str(sim_seed)]
    ops = []
    if analyze_exit == cli.EXIT_OK:
        ops.append(step("analyze", ["analyze", "--system", system, "--dwell", dwell, "--degree", "4",
                                    "-o", cert_path], cli.EXIT_OK, analyzed))
        ops.append(step("certify", ["certify", "--system", system, "--certificate", cert_path],
                        cli.EXIT_OK, certified(cert_path, "verified"), jobs=1))
    else:
        ops.append(step("analyze", ["analyze", "--system", system, "--dwell", dwell, "--degree", "4",
                                    "-o", cert_path], analyze_exit,
                        lambda: Result(outcome="infeasible", certs=[(False, None)]), jobs=1))
    ops.append(step("simulate", ["simulate", "--system", system, "--dwell", dwell, *sim_args,
                                 "-o", base + "_run"], cli.EXIT_OK, simulated(base + "_run", "verified")))
    ops.append(step("sweep", ["sweep", "--system", system, "--dwell", kind, "--from", f"{T / 2:.5g}",
                              "--to", f"{2 * T:.5g}", "--points", str(SWEEP_POINTS), "--degree", "4",
                              "-o", base + "_sweep.csv"], cli.EXIT_OK, swept))
    ops.append(step("synthesize", ["synthesize", "--system", system, "--dwell", synth_dwell,
                                   "--degree", "2", "-o", ctrl_path], cli.EXIT_OK))
    ops.append(step("certify-controller", ["certify", "--system", system, "--certificate", ctrl_path],
                    cli.EXIT_OK, certified(ctrl_path, "controller"), jobs=1))
    ops.append(step("simulate-controller", ["simulate", "--system", system, "--dwell", synth_dwell,
                                            *sim_args, "--controller", ctrl_path, "-o", base + "_crun"],
                    cli.EXIT_OK, simulated(base + "_crun", "controller")))
    model.save_system(getattr(benchmarks, sname)(), system)
    return ops


def pipeline(seed: int, tiny: bool, workdir: str) -> Workload:
    """One op is one in-process dwellgain.cli.main(argv) call; files stay in workdir.

    The seed picks the Monte-Carlo sequences of the simulate commands.  Dwell
    times are fixed, so with only eight certification jobs the certified gains
    (and certified_ratio, gamma_geomean) do not move from seed to seed."""
    ops = []
    for ci, (sname, kind, T, synth_dwell, analyze_exit) in enumerate(CHAINS[:2] if tiny else CHAINS):
        ops += _chain(workdir, ci, sname, kind, T, synth_dwell, analyze_exit, seed * 100 + ci)
    analysis.analyze_constant(benchmarks.lti_jump_bench(), 1.0, 2)  # warm-up solve
    return Workload("pipeline", ops)


def setup(name: str, seed: int, tiny: bool, workdir: str) -> Workload:
    """The timed set-up: systems, op list, warm-up solve, controllers."""
    if name == "certify-grid":
        return certify_grid(seed, tiny)
    if name == "montecarlo":
        return montecarlo(seed, tiny)
    return pipeline(seed, tiny, workdir)
