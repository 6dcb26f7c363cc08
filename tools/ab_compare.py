"""Time two versions of dwellgain against each other in one process, op by op.

    python3 tools/ab_compare.py PARENT CHANGE --workload montecarlo --passes 20

PARENT and CHANGE are directories that hold `src/dwellgain`, say a checkout
and a `git archive` of its parent.  They are loaded side by side as the
packages `dwellgain_a` and `dwellgain_b`, and `perfbench/workloads.py` of
this checkout builds one op list per side, with the name `dwellgain` bound to
that side's package while it imports.  One untimed pass warms both sides up
and records each op's result; then every timed pass runs op i of A and op i
of B back to back for each i, the side that runs first switching from op to
op and from pass to pass, so that a change in the machine's speed falls on
both sides alike.  BLAS threads are pinned to 1, as in perfbench/run.py.

It prints the median and quartiles of the per-pass ratio B/A (the sum of
B's op times over the sum of A's), the number of passes in which B was
faster, and per op key the median op time of each side and the median of
their per-pass ratio.  An op whose warm-up result (as the workload's check
sums it up: outcome, exit code, gains, Monte-Carlo value) differs between
the sides is listed, and the exit code is then 1.
"""

import argparse
import importlib.util
import os
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _exec(name: str, path: Path, package_dir: Path = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_side(root: str, tag: str):
    """The workloads module of one side: its package `dwellgain_<tag>`, loaded
    from root/src/dwellgain, is bound to `dwellgain` while workloads.py
    imports, and the previous bindings are restored after."""
    package_dir = Path(root) / "src" / "dwellgain"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no dwellgain sources under {Path(root) / 'src'}")
    name = f"dwellgain_{tag}"
    package = _exec(name, package_dir / "__init__.py", package_dir)
    saved = {k: v for k, v in sys.modules.items() if k == "dwellgain" or k.startswith("dwellgain.")}
    for k in saved:
        del sys.modules[k]
    sys.modules["dwellgain"] = package
    for k in [k for k in sys.modules if k.startswith(name + ".")]:
        sys.modules["dwellgain" + k[len(name):]] = sys.modules[k]
    try:
        return _exec(f"workloads_{tag}", WORKLOADS_PY)
    finally:
        for k in [k for k in sys.modules if k == "dwellgain" or k.startswith("dwellgain.")]:
            del sys.modules[k]
        sys.modules.update(saved)


def _call(op):
    """(seconds, raw result or the exception raised)."""
    t0 = perf_counter()
    try:
        raw = op.run()
    except Exception as exc:  # a failed op is still timed and compared
        raw = exc
    return perf_counter() - t0, raw


def _summary(op, raw):
    if isinstance(raw, Exception):
        return {"error": type(raw).__name__, "text": str(raw)}
    return op.check(raw).summary()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="directory holding src/dwellgain of side A")
    ap.add_argument("change", help="directory holding src/dwellgain of side B")
    ap.add_argument("--workload", required=True, choices=("certify-grid", "montecarlo", "pipeline"))
    ap.add_argument("--passes", type=int, required=True, help="timed passes (at least 2)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the op lists (default 1)")
    args = ap.parse_args(argv)
    if args.passes < 2:
        ap.error(f"--passes must be >= 2, got {args.passes}")

    for var in THREAD_VARS:  # before NumPy loads
        os.environ[var] = "1"
    with tempfile.TemporaryDirectory(prefix="ab-") as workdir:
        sides = []
        for root, tag in ((args.parent, "a"), (args.change, "b")):
            wl_mod = load_side(root, tag)
            os.mkdir(os.path.join(workdir, tag))
            sides.append(wl_mod.setup(args.workload, args.seed, False, os.path.join(workdir, tag)).ops)
        ops_a, ops_b = sides
        keys = [op.key for op in ops_a]
        if keys != [op.key for op in ops_b]:
            raise SystemExit("error: the two sides build different op lists")

        differ = []
        for op_a, op_b in zip(ops_a, ops_b):  # warm-up pass, results compared
            got = [_summary(op, _call(op)[1]) for op in (op_a, op_b)]
            if got[0] != got[1]:
                differ.append((op_a.key, got))

        times = [[[0.0] * len(keys) for _ in range(args.passes)] for _ in range(2)]
        for p in range(args.passes):
            for i in range(len(keys)):
                for s in ((0, 1) if (i + p) % 2 == 0 else (1, 0)):
                    times[s][p][i] = _call(sides[s][i])[0]

    ratios = [sum(b) / sum(a) for a, b in zip(*times)]
    q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    faster = sum(r < 1.0 for r in ratios)
    print(f"workload {args.workload}, seed {args.seed}: {len(keys)} ops, {args.passes} timed passes; "
          f"A = {args.parent}, B = {args.change}")
    print(f"per-pass ratio B/A: median {med:.4f} (quartiles {q1:.4f} - {q3:.4f}); "
          f"B faster in {faster}/{args.passes} passes")
    print(f"per-pass time: A median {1e3 * statistics.median(map(sum, times[0])):.2f} ms, "
          f"B median {1e3 * statistics.median(map(sum, times[1])):.2f} ms")
    by_key = {}
    for i, key in enumerate(keys):
        by_key.setdefault(key, []).append(i)
    print("per op key: median A ms, median B ms, median ratio B/A")
    for key, idx in by_key.items():
        a = [times[0][p][i] for p in range(args.passes) for i in idx]
        b = [times[1][p][i] for p in range(args.passes) for i in idx]
        r = [y / x for x, y in zip(a, b)]
        print(f"  {1e3 * statistics.median(a):9.3f} {1e3 * statistics.median(b):9.3f} "
              f"{statistics.median(r):7.4f}  {key}")
    print(f"results: {len(keys)} ops, {len(differ)} differ")
    for key, (a, b) in differ:
        print(f"  DIFFER {key}: A {a} B {b}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
