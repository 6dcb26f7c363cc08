"""Command-line entry point tying analysis, synthesis, simulation, and
verification into seeded, reproducible runs.

Exit codes: 0 success (certify: all rows passed), 1 certify failure,
2 parse/config error, 3 infeasible, 4 numerical failure / relaxation limit.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import analysis as ana
from . import cert as certmod
from . import sim
from . import synthesis as synth
from .errors import (
    DwellgainError,
    Infeasible,
    NumericalFailure,
    ParseError,
    RelaxationLimit,
    StepTooLarge,
)
from .model import DwellTimeSpec, SwitchedSystem, load_system, read_json
from .sim import SequenceGen, export_trajectory, generate_inputs

EXIT_OK = 0
EXIT_CERTIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


def _fmt(x: float) -> str:
    return repr(float(x))


def _at_least(flag: str, value: int, low: int = 1) -> None:
    """A ParseError naming the flag unless value >= low."""
    if value < low:
        raise ParseError(f"{flag} must be >= {low}, got {value}")


def _lp_options(degree: int, margin, order_cap) -> dict:
    """The keywords of an analysis or design LP from --degree, --margin and
    --order-cap: the relaxation orders up to the cap and any margin
    override; a negative degree or cap and a margin that is not finite are
    a ParseError."""
    _at_least("--degree", degree, 0)
    if order_cap is not None:
        _at_least("--order-cap", order_cap, 0)
    if margin is not None and not np.isfinite(margin):
        raise ParseError(f"--margin must be finite, got {margin}")
    schedule = ana.RELAX_SCHEDULE
    if order_cap is not None:
        schedule = tuple(r for r in schedule if r <= order_cap) or (int(order_cap),)
    kw = {"relax_schedule": schedule}
    if margin is not None:
        kw["margin"] = margin
    return kw


def _analyze_once(sys_obj, dwell: DwellTimeSpec, degree: int, margin, order_cap, dump_lp=None):
    kw = _lp_options(degree, margin, order_cap)
    if dwell.kind == "arbitrary":
        if dump_lp:
            raise ParseError("--dump-lp is not supported with --dwell arbitrary")
        kw.pop("relax_schedule")
        return ana.analyze_arbitrary(sys_obj, **kw)
    if dwell.kind == "constant":
        return ana.analyze_constant(sys_obj, dwell.T, degree, dump_lp=dump_lp, **kw)
    if dwell.kind == "minimum":
        return ana.analyze_minimum(sys_obj, dwell.T, degree, dump_lp=dump_lp, **kw)
    return ana.analyze_range(sys_obj, dwell.Tmin, dwell.Tmax, degree, dump_lp=dump_lp, **kw)


def _cmd_analyze(args) -> int:
    sys_obj = load_system(args.system)
    dwell = DwellTimeSpec.parse(args.dwell)
    cert = _analyze_once(sys_obj, dwell, args.degree, args.margin, args.order_cap, args.dump_lp)
    print(f"gamma = {_fmt(cert.gamma)}  ({cert.kind}, dwell {cert.dwell}, degree {cert.degree})")
    if args.output:
        cert.save(args.output)
        print(f"certificate written to {args.output}")
    return EXIT_OK


def _cmd_synthesize(args) -> int:
    sys_obj = load_system(args.system)
    dwell = DwellTimeSpec.parse(args.dwell)
    kw = _lp_options(args.degree, args.margin, args.order_cap)
    if args.fixed_kd and (isinstance(sys_obj, SwitchedSystem) or dwell.kind != "range"):
        raise ParseError("--fixed-kd needs an impulsive system and --dwell range:<Tmin>:<Tmax>")
    ctrl = synth.synthesize(sys_obj, dwell, args.degree, fixed_kd=args.fixed_kd, dump_lp=args.dump_lp, **kw)
    print(f"gamma = {_fmt(ctrl.gamma)}  ({ctrl.kind}, dwell {ctrl.dwell})")
    if args.output:
        ctrl.save(args.output)
        print(f"controller written to {args.output}")
    return EXIT_OK


def _export_rows(traj: sim.Trajectory, every: int) -> sim.Trajectory:
    """traj at the rows CLI simulate writes: each segment's rows at 0, every,
    2 * every, ... cells from its start, and its last row, so both rows of
    every jump and the horizon's last row; nothing is interpolated."""
    seg = traj.jump_count  # nondecreasing, so searchsorted finds each segment's first row
    keep = (np.arange(len(seg)) - np.searchsorted(seg, seg)) % every == 0
    keep |= np.r_[seg[1:] != seg[:-1], True]
    rows = {f: getattr(traj, f)[keep] for f in ("times", "states", "zc", "jump_count")}
    return dataclasses.replace(traj, modes=None if traj.modes is None else traj.modes[keep], **rows)


def _cmd_simulate(args) -> int:
    _at_least("--runs", args.runs)
    _at_least("--export-every", args.export_every)
    sys_obj = load_system(args.system)
    dwell = DwellTimeSpec.parse(args.dwell)
    gen = SequenceGen.for_spec(dwell, seed=args.seed)
    controller = synth.ControllerRealization.load(args.controller) if args.controller else None
    clamp = dwell.clamp
    traj = sim.simulate(
        sys_obj,
        gen,
        generate_inputs("const_unit"),
        x0=np.zeros(sys_obj.n),
        horizon=args.horizon,
        step=args.step,
        controller=controller,
        clamp=clamp,
        check_step=True,
        rng=np.random.default_rng((args.seed, 0)),
    )
    # The exported trajectory is estimate_gain's run 0: same rng, and the step
    # referee only reads the states, so its sup stands in for that run.
    gain = sim._max_sup(
        sys_obj, gen, args.runs, args.horizon, "LinfXlinf", args.step, controller, clamp, args.jobs,
        sup0=traj.sup_hybrid(),
    )
    prefix = args.output or "trajectory"
    export_trajectory(
        _export_rows(traj, args.export_every),
        prefix,
        sidecar={
            "command": "simulate",
            "system": args.system,
            "dwell": str(dwell),
            "seed": args.seed,
            "runs": args.runs,
            "inputs": "const_unit",
            "empirical_gain": gain,
            "controller": args.controller,
            "export_every": args.export_every,
        },
    )
    print(f"empirical gain lower bound = {_fmt(gain)}  ({args.runs} runs, horizon {_fmt(args.horizon)})")
    print(f"trajectory written to {prefix}_states.csv / {prefix}_jumps.csv")
    return EXIT_OK


def _cmd_certify(args) -> int:
    _at_least("--grid", args.grid)
    sys_obj = load_system(args.system)
    loaded = read_json(args.certificate, lambda data: (
        synth.ControllerRealization if data.get("type") == "controller" else ana.Certificate).from_json(data))
    ctrl = loaded if isinstance(loaded, synth.ControllerRealization) else None
    if ctrl is not None:
        cert, target = synth.certificate_from(ctrl), synth.closed_loop(sys_obj, ctrl)
    else:
        cert, target = loaded, sys_obj
    rep = certmod.verify(cert, target, grid=args.grid)
    print(rep.table())
    ok = rep.passed
    if ok and ctrl is None:
        cc = certmod.cross_check_discrete(cert, sys_obj)
        print(f"state-transition cross-check residual: {_fmt(cc.phi_residual)} "
              f"({'ok' if cc.passed else 'VIOLATED'})")
        ok = ok and cc.passed
    if not ok:
        # positivity and the rows not proved, the families the grid violates, else the cross-check above
        print("\n".join(f"FAILED: {note}" for note in rep.notes or ["state-transition cross-check"]))
    return EXIT_OK if ok else EXIT_CERTIFY_FAILED


def _sweep_point(payload) -> tuple[float, float]:
    (path, kind, T, degree, margin, order_cap) = payload
    sys_obj = load_system(path)
    dwell = DwellTimeSpec.parse(f"{kind}:{T}")
    try:
        cert = _analyze_once(sys_obj, dwell, degree, margin, order_cap)
        return T, cert.gamma
    except (Infeasible, RelaxationLimit):
        return T, float("nan")


def _cmd_sweep(args) -> int:
    kind = args.dwell.split(":")[0]
    if kind not in ("minimum", "constant"):
        raise ParseError("sweep supports --dwell minimum or constant")
    _at_least("--points", args.points)
    Ts = np.linspace(args.sweep_from, args.sweep_to, args.points)
    payloads = [(args.system, kind, float(T), args.degree, args.margin, args.order_cap) for T in Ts]
    if args.jobs > 1:
        # imported here: the pool loads multiprocessing, which one job never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_point, payloads))
    else:
        results = [_sweep_point(p) for p in payloads]
    out = args.output or "sweep.csv"
    lines = ["T,gamma"]
    for T, g in results:
        lines.append(f"{_fmt(T)},{_fmt(g)}")
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"sweep written to {out} ({args.points} points)")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The dwellgain argument parser, built once per process: parse_args
    leaves it unchanged, so every main() call can share it."""
    ap = argparse.ArgumentParser(
        prog="dwellgain",
        description="Dwell-time stability and hybrid-gain analysis/synthesis for positive impulsive and switched systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--system", required=True, help="system JSON file")
        p.add_argument("--dwell", required=True,
                       help="arbitrary | constant:<T> | minimum:<T> | range:<Tmin>:<Tmax>, "
                            "for an impulsive or a switched system")

    def lp_flags(p):
        p.add_argument("--degree", type=int, default=4, help="certificate polynomial degree")
        p.add_argument("--margin", type=float, default=None, help="strictness margin override")
        p.add_argument("--order-cap", type=int, default=None, help="interval-certificate order cap")
        p.add_argument("--dump-lp", default=None, help="write the solved LP in LP format")

    p = sub.add_parser("analyze", help="certified gain bound; writes certificate JSON")
    common(p)
    lp_flags(p)
    p.add_argument("--output", "-o", default=None, help="certificate JSON path")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synthesize", help="state-feedback design; writes controller JSON")
    common(p)
    lp_flags(p)
    p.add_argument("--fixed-kd", action="store_true", help="dwell-time-independent discrete gain (range, impulsive)")
    p.add_argument("--output", "-o", default=None, help="controller JSON path")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("simulate", help="Monte-Carlo gain lower bound + trajectory CSVs")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the sampled dwell sequences")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--horizon", type=float, default=30.0)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--controller", default=None, help="apply a synthesized controller JSON")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for the Monte-Carlo runs")
    p.add_argument("--output", "-o", default=None, help="output prefix (default 'trajectory')")
    p.add_argument("--export-every", type=int, default=10,
                   help="write every K-th mesh row of each segment and both rows of every jump (1: every row)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("certify", help="independent verification of a certificate/controller")
    p.add_argument("--system", required=True)
    p.add_argument("--certificate", required=True, help="certificate or controller JSON")
    p.add_argument("--grid", type=int, default=1000)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("sweep", help="gamma over a dwell-time grid, written as CSV")
    p.add_argument("--system", required=True)
    p.add_argument("--dwell", required=True, help="minimum | constant")
    p.add_argument("--from", dest="sweep_from", type=float, required=True)
    p.add_argument("--to", dest="sweep_to", type=float, required=True)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--order-cap", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NumericalFailure, RelaxationLimit, StepTooLarge) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DwellgainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
