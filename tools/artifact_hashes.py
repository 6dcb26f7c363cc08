"""Hash every artifact dwellgain produces on a fixed list of cases, so that two
versions of the package can be compared output by output.

    PYTHONPATH=src python3 tools/artifact_hashes.py OUT.json
    PYTHONPATH=src python3 tools/artifact_hashes.py --compare BEFORE.json AFTER.json

The first form runs the cases below against the dwellgain on the path and
writes one entry per output.  Certificates (without the `rows` that earlier
versions stored next to zeta), controllers, `--dump-lp` texts, gains,
Blanchini values and error texts are stored as SHA-256 digests of their JSON
or text.  `verify` and state-transition cross-check reports are stored whole.

The second form compares two such files.  Digests must be equal; a `verify`
report must keep its verdict and its worst slack per row family, bit for bit;
a cross-check report must keep its verdict and its row families, and each
worst slack may move by at most 1e-12 * (1 + |gamma|), as rounding may move
it.  It prints every other difference and exits 1 if there is one.  A summary
follows: the differences per output kind (certificate, controller, gain, lp,
verify, cross-check, error), every verdict that flips between pass and fail,
every case that flips between a result and an error and every error whose
class changes (say Infeasible -> NotPositive), each with its direction, and
the largest relative move of the gamma stored with the cross-check entries.

Cases:
- the three impulsive benchmarks under constant, minimum, range [T, 1.5 T]
  and range-mu dwell at T in {0.12, 0.2, 0.33, 0.5, 1.9, 2.7} and degrees
  2, 4, 6, plus degenerate ranges [T, T] and ranges [T, T + 1e-13];
- arbitrary dwell on four constant systems at three margin settings;
- switched minimum dwell and the Blanchini bound at five dwell times;
- `synthesize` for three plants, eight dwell specifications and degrees 0-3,
  with the closed loop verified and cross-checked, and likewise fixed-K_d
  designs on [0.2, 0.2] and both designs on [0.2, 0.2 + 1e-13], and
  minimum-dwell designs for the timer-dependent timer_stable_bench with
  inputs at T in {0.7, 1.3, 1.7} and degrees 1-3;
- `synthesize_switched` at four dwell times;
- a system that is not positive (A[0, 1] = -3) under constant, minimum,
  range and arbitrary dwell, and `verify` of a certificate issued for it
  (tests/data/nonpositive_constant_1.json, made when no analysis checked
  positivity);
- `verify` of a closed loop whose U_c breaks its positivity rows while
  U_c 1 is unchanged: U_c[0][0] + 20 and U_c[0][1] - 20 in the
  unstable_chain_plant constant:0.1 degree-2 design.

Only the public API is used, so the script runs against any version of `src/`.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from dwellgain import analysis, benchmarks, cert, model, synthesis, Poly
from dwellgain.errors import DwellgainError
from dwellgain.model import DwellTimeSpec, ImpulsiveSystem

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
SLACK_RTOL = 1e-12
NONPOSITIVE_CERTIFICATE = os.path.join(os.path.dirname(__file__), "..", "tests", "data", "nonpositive_constant_1.json")


def nonpositive_rotation() -> ImpulsiveSystem:
    """A stable flow that is not positive, A[0, 1] = -3, with J = I: its gain
    under constant dwell 1 is its LTI L-infinity gain, 0.6244."""
    return ImpulsiveSystem.from_arrays(A=[[-1.0, -3.0], [3.0, -1.0]], Ec=[[1.0], [0.0]], Cc=[[0.0, 1.0]], J=np.eye(2))


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

    def solve(self, key: str, run, artifact):
        """run(lp_path) -> result; stores the digest of artifact(result), or
        the error, and the LP text if run wrote one to lp_path."""
        if os.path.exists(self.lp_path):
            os.remove(self.lp_path)
        try:
            result = run(self.lp_path)
        except (DwellgainError, ValueError) as exc:
            self.out[key] = _error(exc)
            return None
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

    sw = benchmarks.two_mode_switched_bench()
    for T in SWITCHED_T:
        key = f"two_mode_switched_bench minimum T={T} degree=4"
        c = rec.solve(key, lambda lp: analysis.analyze_switched_min(sw, T, 4, dump_lp=lp), to_json)
        if c is not None:
            rec.reports(key, c, sw)
        rec.solve(f"two_mode_switched_bench blanchini T={T}",
                  lambda lp: analysis.analyze_switched_blanchini(sw, T), lambda g: repr(g))

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
    for T in SWITCHED_DESIGN_T:
        key = f"two_mode_switched_bench design minimum T={T} degree=2"
        ctrl = rec.solve(key, lambda lp: synthesis.synthesize_switched(sw, T, 2, dump_lp=lp), to_json)
        if ctrl is not None:
            rec.reports(key, synthesis.certificate_from(ctrl), synthesis.closed_loop(sw, ctrl))

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
    if " blanchini " in key:
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
