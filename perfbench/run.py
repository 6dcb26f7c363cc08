"""dwellgain benchmark: one workload per run, one op at a time (closed loop,
one client, BLAS threads pinned to 1).

    python3 perfbench/run.py --workload certify-grid --seed 1 --seconds 20 --trace 0

A run sets up (timed as `setup_s`, median of five set-ups: this process and
four fresh ones), runs the op list once to warm up, then times a fixed number
of whole passes over the op list: `--seconds` over the workload's PASS_S,
rounded, and at least MIN_SAMPLES ops.  The count depends on the arguments
alone, so runs with the same arguments attempt the same ops and fail the same
ones.  Times are put on one machine-speed scale (see speed.py).  With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it alternates
untraced passes with passes that wrap every layer (see layertrace.py) and
prints the per-layer metrics.  The last line of standard output is the JSON result; the
full record (machine, raw times, LP sizes, failed ops, reference drift) goes to
perfbench/out/.

The program is imported from `src/` beside this directory; without it the run
stops with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("certify-grid", "montecarlo", "pipeline")
SETUP_SAMPLES = 5
MIN_SAMPLES = 100  # so that 10 timed ops lie beyond TAIL_PERCENTILE
TAIL_PERCENTILE = 90
HARD_STOP_S = 140.0  # start no pass after this, to end well within 180 s
# seconds per pass assumed when --seconds is turned into a number of passes:
# 2, 5 and 5 passes with --seconds 20 (raw untraced passes take about 11, 7
# and 3.5 s on a shared 2-vCPU Xeon host)
PASS_S = {"certify-grid": 10.0, "montecarlo": 4.0, "pipeline": 4.0}
REL_TOL = 1e-6  # reference comparison of gains and Monte-Carlo values

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "certified_ratio": "ratio",
    "gamma_geomean": "gain",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="'all' runs each workload in its own process, one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="few ops and no sample minimum (self-test)")
    ap.add_argument("--setup-probe", action="store_true", help="time one set-up and exit")
    ap.add_argument("--record-reference", action="store_true",
                    help=f"store this run's outcomes as the reference (seed {REFERENCE_SEED})")
    return ap.parse_args(argv)


def run_pass(ops, probe, tracer=None, pass_no=0):
    """Run every op once, probing machine speed before each.

    Returns (raw latencies in s, probe index per op, Results)."""
    from workloads import Result

    times, marks, results = [], [], []
    for i, op in enumerate(ops):
        marks.append(probe.probe())
        if tracer is not None:
            tracer.op = (pass_no, i)
        t0 = perf_counter()
        try:
            raw = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            raw = exc
        times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.op = None
        if isinstance(raw, Exception):
            res = Result(ok=False, reason=f"{type(raw).__name__}: {raw}", outcome=type(raw).__name__,
                         certs=[(False, None)] * op.jobs)
        else:
            try:
                res = op.check(raw)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                res = Result(ok=False, reason=f"check: {type(exc).__name__}: {exc}", outcome="check-error",
                             certs=[(False, None)] * op.jobs)
        results.append(res)
    return times, marks, results


def machine_info() -> dict:
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            info["l3"] = fh.read().strip()
    except OSError:
        pass  # not Linux, or no L3 listed
    return info


def setup_samples(args, first: dict) -> list[dict]:
    """`first` plus SETUP_SAMPLES - 1 set-ups timed in fresh interpreters."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--setup-probe"] + (["--tiny"] if args.tiny else [])
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def compare_reference(name: str, summaries: dict) -> list[dict]:
    """Differences from the outcomes recorded at the reference commit."""
    with open(REFERENCE) as fh:
        table = json.load(fh)["workloads"].get(name, {})
    drift = []

    def note(key, worse, what):
        drift.append({"op": key, "worse": worse, "what": what})

    def close(a, b):
        return abs(a - b) <= REL_TOL * max(1.0, abs(b))

    for key, cur in summaries.items():
        ref = table.get(key)
        if ref is None:
            note(key, True, "op not in the reference table")
            continue
        if ref["ok"] != cur["ok"]:
            note(key, ref["ok"], f"ok {ref['ok']} -> {cur['ok']} ({cur['outcome']})")
        if ref["exit"] != cur["exit"]:
            note(key, True, f"exit code {ref['exit']} -> {cur['exit']}")
        for was, now in zip(ref["certified"], cur["certified"]):
            if was != now:
                note(key, was, f"certified {was} -> {now}")
        for was, now in zip(ref["gammas"], cur["gammas"]):
            if was is not None and now is not None and not close(now, was):
                note(key, now > was, f"gamma {was!r} -> {now!r}")
        if ref["value"] is not None and cur["value"] is not None and not close(cur["value"], ref["value"]):
            note(key, True, f"Monte-Carlo value {ref['value']!r} -> {cur['value']!r}")
    return drift


def record_reference(name: str, summaries: dict) -> None:
    table = {"seed": REFERENCE_SEED, "workloads": {}}
    if REFERENCE.exists():
        with open(REFERENCE) as fh:
            table = json.load(fh)
    table["workloads"][name] = summaries
    with open(REFERENCE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def quality(certs) -> tuple[float, float]:
    """(certified jobs / jobs, geometric mean of every gamma returned)."""
    gammas = [g for _, g in certs if g is not None and math.isfinite(g) and g > 0]
    ratio = sum(1 for c, _ in certs if c) / len(certs) if certs else 0.0
    geomean = math.exp(statistics.fmean(math.log(g) for g in gammas)) if gammas else 0.0
    return ratio, geomean


def main(argv=None) -> int:
    t_start = perf_counter()
    args = parse_args(argv)
    if args.workload == "all":
        rc = 0
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
            rc = rc or subprocess.run(cmd, timeout=180).returncode
        return rc
    if not (SRC / "dwellgain" / "__init__.py").is_file():
        print(f"error: no dwellgain sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        return measure(args, workdir, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str, t_start: float) -> int:
    # NumPy is loaded before the clock starts, so that the speed probe can
    # bracket the set-up: its probes run just before and just after it
    from speed import SpeedProbe

    probe = SpeedProbe()
    first_probe = probe.bracket()
    t0 = perf_counter()
    import dwellgain

    if Path(dwellgain.__file__).resolve().parent != (SRC / "dwellgain").resolve():
        print(f"error: dwellgain imported from {dwellgain.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.setup(args.workload, args.seed, args.tiny, workdir)
    setup_raw = perf_counter() - t0

    import numpy as np

    import layertrace

    first_setup = {"raw_s": setup_raw, "setup_s": setup_raw * probe.scale_since(first_probe)}
    if args.setup_probe:
        print(json.dumps(first_setup))
        return 0
    setup = setup_samples(args, first_setup)
    ops = wl.ops

    # warm-up pass: fills caches, gives the outcomes every later pass must repeat,
    # and (untraced runs) counts LP sizes through a wrapper on lp_solve alone
    census = layertrace.Tracer(() if args.trace else (layertrace.LP_TARGET,)).install()
    try:
        _, _, first = run_pass(ops, probe)
    finally:
        census.uninstall()
    wl.finish()

    # a traced run alternates untraced and traced passes; the difference of
    # their median walls is the tracing overhead
    tracer = layertrace.Tracer() if args.trace else None
    untraced = []
    if args.tiny:
        n_passes = 1
    else:
        n_passes = max(math.ceil(MIN_SAMPLES / len(ops)), round(args.seconds / PASS_S[args.workload]))
    passes = []  # (raw latencies, probe marks, Results)
    while True:
        if tracer is not None:
            untraced.append(run_pass(ops, probe))
            tracer.install()
        try:
            passes.append(run_pass(ops, probe, tracer, len(passes)))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if len(passes) == n_passes:
            break
        if perf_counter() - t_start > HARD_STOP_S:
            print(f"warning: stopped after {len(passes)} of {n_passes} passes, {HARD_STOP_S:.0f} s in",
                  file=sys.stderr)
            break
    probe.probe()  # the last op's window gets a probe after it too

    # checks: every pass repeats the warm-up outcomes; Monte-Carlo gains stay
    # below the certified gain of the same configuration
    failed_ops, unsound = [], []
    summaries = {op.key: r.summary() for op, r in zip(ops, first)}
    for _, _, res in passes:
        for op, r in zip(ops, res):
            if r.ok and r.summary() != summaries[op.key]:
                r.ok, r.reason = False, "result differs from the warm-up pass"
            bound = wl.bounds.get(op.key)
            if r.value is not None and bound is not None and r.value > bound * (1 + workloads.GAMMA_RTOL):
                r.ok, r.outcome = False, "unsound"
                r.reason = f"Monte-Carlo gain {r.value!r} above certified {bound!r}"
            if r.outcome == "unsound":
                unsound.append(op.key)
            if not r.ok:
                failed_ops.append((op.key, r.reason))
    attempted = len(ops) * len(passes)
    drift = []
    if args.record_reference:
        record_reference(args.workload, summaries)
    elif args.seed == REFERENCE_SEED and not args.tiny:
        drift = compare_reference(args.workload, summaries)
    worse = [d for d in drift if d["worse"]]
    correct = not unsound and not worse

    scaled = [[t * probe.scale(k) for t, k in zip(times, marks)] for times, marks, _ in passes]
    samples = [t for lat in scaled for t in lat]
    walls = [sum(lat) for lat in scaled]
    certs = wl.reference_certs + [c for r in first for c in r.certs]
    ratio, geomean = quality(certs)
    tail = float(np.percentile(samples, TAIL_PERCENTILE))
    beyond = sum(1 for s in samples if s > tail)
    e2e = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1e3 * statistics.median(samples),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "certified_ratio": ratio,
        "gamma_geomean": geomean,
    }
    raw_walls = [sum(times) for times, _, _ in passes]
    raw_samples = [t for times, _, _ in passes for t in times]
    raw = {"setup_s": statistics.median(s["raw_s"] for s in setup), "wall_s": statistics.median(raw_walls),
           "op_p50_ms": 1e3 * statistics.median(raw_samples),
           "op_tail_ms": 1e3 * float(np.percentile(raw_samples, TAIL_PERCENTILE))}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "ops_per_pass": len(ops), "passes": len(passes),
        "tail_percentile": TAIL_PERCENTILE, "samples": len(samples), "samples_beyond_tail": beyond,
        "attempted": attempted, "failed": len(failed_ops), "fail_ratio": len(failed_ops) / attempted,
        "failed_ops": sorted({(k, why) for k, why in failed_ops}), "reference_drift": drift,
        "unsound": sorted(set(unsound)), "certification_jobs": len(certs),
        "reference_certs": wl.reference_certs, "mc_bounds": wl.bounds,
        "end_to_end": e2e, "raw": raw, "machine": machine_info(),
        "setup_samples": setup, "pass_walls_s": walls, "raw_pass_walls_s": raw_walls,
        "speed_probe_s": probe.samples,
        "op_latencies_s": {op.key: [times[i] for times, _, _ in passes] for i, op in enumerate(ops)},
    }

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass, {len(passes)} timed passes, "
          f"{len(samples)} samples")
    if args.trace:
        metrics = layertrace.per_pass_metrics(tracer, len(passes))
        missing = layertrace.missing_metrics(tracer)
        untraced_wall = statistics.median(sum(t * probe.scale(k) for t, k in zip(times, marks))
                                          for times, marks, _ in untraced)
        overhead = statistics.median(walls) - untraced_wall
        record.update(per_layer=metrics, missing=missing, untraced_wall_s=untraced_wall,
                      tracing_overhead_s=overhead, lp_sizes=layertrace.lp_sizes(tracer, 0),
                      spans=len(tracer.spans))
        for name, (unit, _) in layertrace.PER_LAYER.items():
            print(f"  {name:<28} {metrics[name]:>14.6g} {unit}{'  MISSING' if name in missing else ''}")
        print(f"  tracing overhead {overhead:.4f} s per pass (traced wall_s {statistics.median(walls):.4f}, "
              f"untraced {untraced_wall:.4f}); per-layer values are raw medians per pass")
        out = {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in layertrace.PER_LAYER.items()}
        tracer.write_spans(str(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"))
    else:
        record["lp_sizes"] = layertrace.lp_sizes(census)
        for name, unit in END_TO_END.items():
            extra = f"  (raw {raw[name]:.6g})" if name in raw else ""
            if name == "op_tail_ms":
                extra += f"  p{TAIL_PERCENTILE} of {len(samples)} samples, {beyond} beyond"
            print(f"  {name:<16} {e2e[name]:>12.6g} {unit}{extra}")
        out = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(f"  fail_ratio {len(failed_ops)}/{attempted} = {len(failed_ops) / attempted:.4f}")
    for key, why in record["failed_ops"]:
        print(f"  FAILED {key}: {why}")
    for d in drift:
        print(f"  DRIFT ({'worse' if d['worse'] else 'better'}) {d['op']}: {d['what']}")
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed_ops), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
