import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import oracle_export_rows, spy_solves
from dwellgain import sim
from dwellgain.cli import main
from dwellgain.model import DwellTimeSpec, load_system, save_system, system_to_json
from dwellgain.synthesis import ControllerRealization, synthesize


@pytest.fixture(scope="module")
def ex1_path(bench_lti, tmp_path_factory):
    path = tmp_path_factory.mktemp("sys") / "ex1.json"
    save_system(bench_lti, str(path))
    return str(path)


@pytest.fixture(scope="module")
def ex2_path(bench_timer_growth, tmp_path_factory):
    path = tmp_path_factory.mktemp("sys") / "ex2.json"
    save_system(bench_timer_growth, str(path))
    return str(path)


class TestAnalyze:
    def test_arbitrary_reference(self, ex1_path, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(["analyze", "--system", ex1_path, "--dwell", "arbitrary", "-o", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        gamma = float(printed.split("gamma = ")[1].split()[0])
        assert gamma == pytest.approx(1.925, rel=1e-3)
        assert out.exists()

    def test_constant(self, ex2_path, tmp_path):
        out = tmp_path / "c.json"
        assert main(["analyze", "--system", ex2_path, "--dwell", "constant:0.3",
                     "--degree", "4", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "ConstantDT"

    def test_bad_dwell_exits_2(self, ex1_path):
        assert main(["analyze", "--system", ex1_path, "--dwell", "sometimes:1"]) == 2

    def test_missing_file_exits_2(self):
        assert main(["analyze", "--system", "/nonexistent.json", "--dwell", "arbitrary"]) == 2

    def test_infeasible_exits_3(self, tmp_path):
        from dwellgain.model import ImpulsiveSystem

        bad = ImpulsiveSystem.from_arrays(
            A=[[1.0]], Ec=[[1.0]], Cc=[[1.0]], Fc=[[0.0]],
            J=[[0.5]], Ed=[[0.0]], Cd=[[0.0]], Fd=[[0.0]],
        )
        path = tmp_path / "bad.json"
        save_system(bad, str(path))
        assert main(["analyze", "--system", str(path), "--dwell", "arbitrary"]) == 3

    def test_time_reversed_system_exits_2(self, ex1_path, tmp_path, capsys):
        data = json.loads(Path(ex1_path).read_text())
        data["time_reversed"] = True
        path = tmp_path / "reversed.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", "--system", str(path), "--dwell", "constant:0.5"]) == 2
        assert "time-reversed" in capsys.readouterr().err

    def test_relaxation_limit_exits_4(self, tmp_path):
        from dwellgain.model import ImpulsiveSystem

        hard = ImpulsiveSystem.from_arrays(
            A=[[[-0.26, 1.0, -1.0]]], Ec=[[[0.001]]], Cc=[[[1.0]]], Fc=[[[0.0]]],
            J=[[0.5]], Ed=[[0.0]], Cd=[[1.0]], Fd=[[0.0]],
        )
        path = tmp_path / "hard.json"
        save_system(hard, str(path))
        assert main(["analyze", "--system", str(path), "--dwell", "constant:1",
                     "--degree", "0"]) == 4

    def test_referee_infeasible_exits_3(self, ex2_path, capsys):
        # timer_growth_bench is unstable at constant dwell 1.2
        assert main(["analyze", "--system", ex2_path, "--dwell", "constant:1.2", "--degree", "2"]) == 3
        assert "[order +4: Infeasible]" in capsys.readouterr().err

    def test_unstable_orbit_exits_3(self, bench_timer_stable, tmp_path, capsys):
        # rho(J Phi(0.5)) > 1 refuses the analysis before any LP is built
        path = tmp_path / "stable.json"
        save_system(bench_timer_stable, str(path))
        assert main(["analyze", "--system", str(path), "--dwell", "constant:0.5"]) == 3
        err = capsys.readouterr().err
        assert err == "infeasible: conditions infeasible (rho(J Phi(theta)) >= 2.043 at theta = 0.5)\n"

    def test_referee_numerical_failure_exits_4(self, ex2_path, capsys, monkeypatch):
        spy_solves(monkeypatch, referee_fails=True)
        assert main(["analyze", "--system", ex2_path, "--dwell", "constant:1.2", "--degree", "2"]) == 4
        assert "sampled referee failed numerically" in capsys.readouterr().err

    def test_dump_lp(self, ex1_path, tmp_path):
        lp_path = tmp_path / "prog.lp"
        assert main(["analyze", "--system", ex1_path, "--dwell", "minimum:0.5",
                     "--degree", "2", "--dump-lp", str(lp_path)]) == 0
        assert "Minimize" in lp_path.read_text()


class TestCertify:
    def test_pipeline_soundness(self, ex2_path, tmp_path):
        cert = tmp_path / "cert.json"
        assert main(["analyze", "--system", ex2_path, "--dwell", "constant:0.3",
                     "--degree", "4", "-o", str(cert)]) == 0
        assert main(["certify", "--system", ex2_path, "--certificate", str(cert)]) == 0

    def test_tampered_gamma_fails_with_named_row(self, ex2_path, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        main(["analyze", "--system", ex2_path, "--dwell", "constant:0.3",
              "--degree", "4", "-o", str(cert)])
        data = json.loads(cert.read_text())
        data["gamma"] *= 0.9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(["certify", "--system", ex2_path, "--certificate", str(bad)])
        assert code == 1
        printed = capsys.readouterr().out
        assert "FAILED" in printed and "out_" in printed

    def test_moved_zeta_fails_with_its_note(self, ex2_path, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        main(["analyze", "--system", ex2_path, "--dwell", "constant:0.3",
              "--degree", "4", "-o", str(cert)])
        data = json.loads(cert.read_text())
        for z in data["zeta"]:
            z[0] *= 0.97  # pushes the flow rows below zero by more than their margin
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        code = main(["certify", "--system", ex2_path, "--certificate", str(bad)])
        assert code == 1
        printed = capsys.readouterr().out
        assert "FAILED: row flow[0] not proved at order" in printed
        assert "worst row family" not in printed

    def test_earlier_format_certifies(self, ex2_path):
        """A certificate file that still stores the LP's rows next to zeta."""
        path = Path(__file__).parent / "data" / "timer_growth_constant_0.3.json"
        assert "rows" in json.loads(path.read_text())
        assert main(["certify", "--system", ex2_path, "--certificate", str(path)]) == 0

    def test_controller_certify(self, bench_chain_plant, tmp_path):
        from dwellgain.model import DwellTimeSpec
        from dwellgain.synthesis import synthesize

        sys_path = tmp_path / "plant.json"
        save_system(bench_chain_plant, str(sys_path))
        ctrl = synthesize(bench_chain_plant, DwellTimeSpec.constant(0.1), degree=2)
        ctrl_path = tmp_path / "ctrl.json"
        ctrl.save(str(ctrl_path))
        assert main(["certify", "--system", str(sys_path),
                     "--certificate", str(ctrl_path)]) == 0


class TestPositivityGate:
    """A system that is not positive is refused by CLI analyze (exit 2), and
    a certificate issued for it when no analysis checked positivity fails
    CLI certify with a note naming the entry."""

    @pytest.fixture
    def rotation_path(self, nonpositive_rotation, tmp_path):
        path = tmp_path / "rotation.json"
        save_system(nonpositive_rotation, str(path))
        return str(path)

    @pytest.mark.parametrize("dwell", ["constant:1", "minimum:1", "range:0.5:1", "arbitrary"])
    def test_analyze_exits_2(self, rotation_path, dwell, capsys):
        assert main(["analyze", "--system", rotation_path, "--dwell", dwell]) == 2
        assert capsys.readouterr().err.startswith("error: not positive ")

    def test_certify_of_earlier_certificate_fails(self, rotation_path, capsys):
        path = Path(__file__).parent / "data" / "nonpositive_constant_1.json"
        assert main(["certify", "--system", rotation_path, "--certificate", str(path)]) == 1
        printed = capsys.readouterr().out
        assert "FAILED: not positive on [0, 1]: A[0, 1]" in printed

    def test_tampered_controller_fails_with_its_note(self, bench_chain_plant, tmp_path, capsys):
        sys_path = tmp_path / "plant.json"
        save_system(bench_chain_plant, str(sys_path))
        data = synthesize(bench_chain_plant, DwellTimeSpec.constant(0.1), degree=2).to_json()
        data["Uc"][0][0][0] += 20.0
        data["Uc"][0][1][0] -= 20.0
        ctrl_path = tmp_path / "ctrl.json"
        ctrl_path.write_text(json.dumps(data))
        assert main(["certify", "--system", str(sys_path), "--certificate", str(ctrl_path)]) == 1
        assert "FAILED: closed loop not positive: A X + B U_c[0, 1]" in capsys.readouterr().out

    def test_negative_inputs(self, negative_input_plant, tmp_path, capsys):
        """synthesize refuses a plant whose Ec, Fc and Ed no feedback makes
        nonnegative; certify fails the controller made for it when no design
        checked them."""
        sys_path, out = tmp_path / "plant.json", tmp_path / "ctrl.json"
        save_system(negative_input_plant, str(sys_path))
        assert main(["synthesize", "--system", str(sys_path), "--dwell", "constant:0.1", "--degree", "2",
                     "-o", str(out)]) == 2
        message = "not positive on [0, 0.1]: Ec[1, 0], Fc[0, 0], jumps[0].Ed[1, 0]"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        stored = Path(__file__).parent / "data" / "negative_input_design.json"
        assert main(["certify", "--system", str(sys_path), "--certificate", str(stored)]) == 1
        assert f"FAILED: {message}" in capsys.readouterr().out


class TestSynthesizeCommand:
    def test_writes_controller(self, bench_chain_plant, tmp_path):
        sys_path = tmp_path / "plant.json"
        save_system(bench_chain_plant, str(sys_path))
        out = tmp_path / "ctrl.json"
        assert main(["synthesize", "--system", str(sys_path), "--dwell", "constant:0.1",
                     "--degree", "2", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["type"] == "controller" and data["kind"] == "ConstantDT"

    def test_fixed_kd_flag(self, bench_chain_plant, tmp_path):
        sys_path = tmp_path / "plant.json"
        save_system(bench_chain_plant, str(sys_path))
        out = tmp_path / "ctrl.json"
        assert main(["synthesize", "--system", str(sys_path), "--dwell", "range:0.1:0.3",
                     "--degree", "2", "--fixed-kd", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["kind"] == "RangeDT_FixedKd"

    def test_degenerate_range_saves_and_certifies(self, bench_chain_plant, tmp_path):
        # range:T:T keeps a constant Ud; saving, kd and certify read it as such
        sys_path = tmp_path / "plant.json"
        save_system(bench_chain_plant, str(sys_path))
        out = tmp_path / "ctrl.json"
        assert main(["synthesize", "--system", str(sys_path), "--dwell", "range:0.2:0.2",
                     "--degree", "2", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "RangeDT" and "Ud" in data and "Ud_poly" not in data
        ctrl = synthesize(bench_chain_plant, DwellTimeSpec.range(0.2, 0.2), degree=2)
        loaded = ControllerRealization.load(str(out))
        assert loaded.to_json() == ctrl.to_json()
        assert np.array_equal(loaded.kd(0.2), ctrl.kd(0.2))
        assert np.array_equal(ctrl.kd(0.2), np.array(data["Ud"]) / [x.eval(0.2) for x in ctrl.X])
        assert main(["certify", "--system", str(sys_path), "--certificate", str(out)]) == 0


@pytest.fixture(scope="module")
def chain_path(bench_chain_plant, tmp_path_factory):
    path = tmp_path_factory.mktemp("sys") / "chain.json"
    save_system(bench_chain_plant, str(path))
    return str(path)


@pytest.fixture(scope="module")
def switched_path(bench_switched, tmp_path_factory):
    path = tmp_path_factory.mktemp("sys") / "switched.json"
    save_system(bench_switched, str(path))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--system", "{ex1}", "--dwell", "constant:0.3", "--degree", "-1"],
        ["analyze", "--system", "{ex1}", "--dwell", "arbitrary", "--dump-lp", "{out}"],
        ["sweep", "--system", "{ex1}", "--dwell", "minimum", "--from", "0.2", "--to", "0.4",
         "--points", "2", "--degree", "-1", "-o", "{out}"],
        ["synthesize", "--system", "{chain}", "--dwell", "constant:0.1", "--degree", "-1", "-o", "{out}"],
        ["synthesize", "--system", "{chain}", "--dwell", "constant:0.1", "--fixed-kd", "-o", "{out}"],
        ["synthesize", "--system", "{switched}", "--dwell", "minimum:0.5", "--fixed-kd", "-o", "{out}"],
        ["synthesize", "--system", "{switched}", "--dwell", "range:0.1:0.3", "--fixed-kd", "-o", "{out}"],
    ],
)
def test_config_errors_exit_2(ex1_path, chain_path, switched_path, tmp_path, capsys, argv):
    out = tmp_path / "out"
    args = [a.format(ex1=ex1_path, chain=chain_path, switched=switched_path, out=out) for a in argv]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("dwell", ["constant:0.3", "range:0.3:0.6", "arbitrary"])
def test_switched_pipeline(switched_path, tmp_path, capsys, dwell):
    """A switched system takes every dwell class through the same commands
    as an impulsive one: analyze -> certify -> simulate -> sweep and
    synthesize -> certify -> simulate each exit 0."""
    cert, ctrl, kind = tmp_path / "cert.json", tmp_path / "ctrl.json", dwell.split(":")[0]
    common = ["--system", switched_path, "--dwell", dwell]
    assert main(["analyze", *common, "--degree", "2", "-o", str(cert)]) == 0
    assert f"(Switched{kind.capitalize()}DT, dwell {dwell}," in capsys.readouterr().out
    assert main(["certify", "--system", switched_path, "--certificate", str(cert)]) == 0
    assert main(["simulate", *common, "--runs", "2", "--horizon", "3", "-o", str(tmp_path / "open")]) == 0
    if kind == "constant":  # sweep takes constant and minimum dwell
        csv = tmp_path / "sweep.csv"
        assert main(["sweep", "--system", switched_path, "--dwell", "constant", "--from", "0.2", "--to", "0.4",
                     "--points", "2", "--degree", "2", "-o", str(csv)]) == 0
        assert all(math.isfinite(float(g)) for g in re.findall(r",(.*)", csv.read_text())[1:])
    assert main(["synthesize", *common, "--degree", "2", "-o", str(ctrl)]) == 0
    assert main(["certify", "--system", switched_path, "--certificate", str(ctrl)]) == 0
    assert main(["simulate", *common, "--runs", "2", "--horizon", "3", "--controller", str(ctrl),
                 "-o", str(tmp_path / "closed")]) == 0


@pytest.mark.parametrize("text", ["{not json", "[]"])
@pytest.mark.parametrize("argv", [
    ["certify", "--system", "{ex1}", "--certificate", "{bad}"],
    ["simulate", "--system", "{ex1}", "--dwell", "minimum:0.5", "--runs", "1", "--controller", "{bad}", "-o", "{out}"],
    ["analyze", "--system", "{bad}", "--dwell", "arbitrary"],
])
def test_unreadable_file_exits_2(ex1_path, tmp_path, capsys, argv, text):
    """A malformed file, or one whose top level is not an object, is a parse
    error naming the file, whichever command reads it."""
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    bad.write_text(text)
    assert main([a.format(ex1=ex1_path, bad=bad, out=out) for a in argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("argv, source, field, value", [
    (["certify", "--system", "{ex1}", "--certificate", "{bad}"], "nonpositive_constant_1.json", "gamma", "x"),
    (["simulate", "--system", "{ex1}", "--dwell", "minimum:0.5", "--runs", "1", "--controller", "{bad}",
      "-o", "{out}"], "negative_input_design.json", "X", [[1.0], 2.0]),
    (["analyze", "--system", "{bad}", "--dwell", "arbitrary"], "{ex1}", "jump_maps", []),
    # a non-finite entry is refused where the file is read, before any LP
    (["analyze", "--system", "{bad}", "--dwell", "constant:0.3"], "{ex1}", "Ec", [[[float("nan")]], [[1.1]]]),
    (["analyze", "--system", "{bad}", "--dwell", "constant:0.3"], "{ex1}", "Ec", [[[float("inf")]], [[1.1]]]),
    (["analyze", "--system", "{bad}", "--dwell", "constant:0.3"], "{ex1}", "J", [[float("nan"), 1.0], [0.1, 0.1]]),
    # and so is a non-finite certificate value, before verify's exact arithmetic
    (["certify", "--system", "{ex1}", "--certificate", "{bad}"], "nonpositive_constant_1.json", "gamma", float("nan")),
    (["certify", "--system", "{ex1}", "--certificate", "{bad}"], "nonpositive_constant_1.json", "gamma", float("inf")),
    (["certify", "--system", "{ex1}", "--certificate", "{bad}"], "nonpositive_constant_1.json", "zeta",
     [[0.1, float("nan"), 0.02], [0.3, 0.0, -0.01]]),
])
def test_wrong_field_exits_2(ex1_path, tmp_path, capsys, argv, source, field, value):
    """A field of the wrong type or shape is a parse error naming the file
    and the field, whichever command reads it."""
    path = Path(ex1_path) if source == "{ex1}" else Path(__file__).parent / "data" / source
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    bad.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
    assert main([a.format(ex1=ex1_path, bad=bad, out=out) for a in argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: bad field {field!r}: ")
    assert not list(tmp_path.glob("out*"))


SIMULATE = ["simulate", "--system", "{ex1}", "--dwell", "minimum:0.5", "--runs", "2", "--horizon", "2"]
ANALYZE_RANGE = ["analyze", "--system", "{ex1}", "--dwell", "range:0.5:0.75", "--degree", "6"]
SWEEP = ["sweep", "--system", "{ex1}", "--dwell", "minimum", "--from", "0.2", "--to", "0.4"]


@pytest.mark.parametrize("argv, message", [
    (SIMULATE + ["--horizon", "inf"], "horizon and step must be finite and positive"),
    (SIMULATE + ["--horizon", "nan"], "horizon and step must be finite and positive"),
    (SIMULATE + ["--step", "nan"], "horizon and step must be finite and positive"),
    (SIMULATE + ["--runs", "0"], "--runs must be >= 1, got 0"),
    (["certify", "--system", "{ex1}", "--certificate", "{cert}", "--grid", "-5"], "--grid must be >= 1, got -5"),
    (["certify", "--system", "{ex1}", "--certificate", "{cert}", "--grid", "0"], "--grid must be >= 1, got 0"),
    (ANALYZE_RANGE + ["--margin", "nan"], "--margin must be finite, got nan"),
    (ANALYZE_RANGE + ["--margin=-inf"], "--margin must be finite, got -inf"),
    (ANALYZE_RANGE + ["--order-cap", "-1"], "--order-cap must be >= 0, got -1"),
    (SWEEP + ["--points", "-1"], "--points must be >= 1, got -1"),
    (SWEEP + ["--points", "0"], "--points must be >= 1, got 0"),
    (["sweep", "--system", "{ex1}", "--dwell", "range:0.3:0.6", "--from", "0.2", "--to", "0.4"],
     "sweep supports --dwell minimum or constant"),
    # a negative margin made every strict row slack: analyze wrote a gamma = 0.0 certificate, exit 0
    (["analyze", "--system", "{ex1}", "--dwell", "constant:0.5", "--degree", "2", "--margin", "-1"],
     "--margin must be >= 0, got -1.0"),
    (ANALYZE_RANGE + ["--margin=-1e-9"], "--margin must be >= 0, got -1e-09"),
    (["synthesize", "--system", "{ex1}", "--dwell", "constant:0.5", "--margin", "-0.5"],
     "--margin must be >= 0, got -0.5"),
    (SWEEP + ["--margin", "-1"], "--margin must be >= 0, got -1.0"),
    # --jobs below 1 ran silently with one job
    (SIMULATE + ["--jobs", "0"], "--jobs must be >= 1, got 0"),
    (SIMULATE + ["--jobs", "-2"], "--jobs must be >= 1, got -2"),
    (SWEEP + ["--jobs", "0"], "--jobs must be >= 1, got 0"),
    # the text after the class was ignored: the sweep ran and wrote its CSV, exit 0
    (["sweep", "--system", "{ex1}", "--dwell", "minimum:99", "--from", "0.2", "--to", "0.4"],
     "sweep supports --dwell minimum or constant"),
])
def test_unusable_flag_exits_2(ex1_path, tmp_path, capsys, monkeypatch, argv, message):
    """A flag value no run can use is a bad input, exit 2 with the flag
    named, before any output is written: not a traceback, and not a
    simulation that never ends (an infinite horizon's dwell draws, stubbed
    here)."""
    def no_draws(*args):
        raise AssertionError("dwells drawn")

    monkeypatch.setattr(sim.SequenceGen, "dwells", no_draws)
    cert = Path(__file__).parent / "data" / "nonpositive_constant_1.json"
    out = tmp_path / "out"
    assert main([a.format(ex1=ex1_path, cert=cert) for a in argv] + ["-o", str(out)] * (argv[0] != "certify")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


class TestLpFlags:
    """--order-cap and --margin reach the certificate file, and a sweep
    point with no certified gain is written as nan."""

    @pytest.mark.parametrize("cap", [2, 0])
    def test_order_cap_is_the_relax_written(self, ex1_path, tmp_path, cap):
        out = tmp_path / "c.json"
        argv = [a.format(ex1=ex1_path) for a in ANALYZE_RANGE]
        assert main(argv + ["--order-cap", str(cap), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["relax"] == cap

    def test_margin_is_written(self, ex1_path, tmp_path):
        out = tmp_path / "c.json"
        argv = [a.format(ex1=ex1_path) for a in ANALYZE_RANGE]
        assert main(argv + ["--margin", "0.001", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["margin"] == 0.001

    def test_margin_0_is_allowed(self, ex1_path, tmp_path):
        out = tmp_path / "c.json"
        argv = ["analyze", "--system", ex1_path, "--dwell", "constant:0.5", "--degree", "2"]
        assert main(argv + ["--margin", "0", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["margin"] == 0.0

    def test_sweep_writes_nan_where_no_gain_is_certified(self, ex2_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--system", ex2_path, "--dwell", "minimum", "--from", "0.2", "--to", "0.4",
                     "--points", "2", "-o", str(out)]) == 0
        assert out.read_text() == "T,gamma\n0.2,nan\n0.4,nan\n"


def test_parser_is_built_once(ex1_path, tmp_path, capsys):
    """main() shares one parser: analyze, simulate and a failing parse in one
    process print, write and exit as each does in a fresh process."""
    import subprocess
    import sys

    from dwellgain import cli

    assert cli.build_parser() is cli.build_parser()
    runs = [
        ["analyze", "--system", ex1_path, "--dwell", "minimum:0.5", "--degree", "2", "-o", str(tmp_path / "c.json")],
        ["simulate", "--system", ex1_path, "--dwell", "range:0.3:0.6", "--runs", "2", "--horizon", "2",
         "-o", str(tmp_path / "run")],
        ["simulate", "--system", ex1_path, "--dwell", "minimum:0.5", "--runs", "two"],
    ]

    def outputs():
        return {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}

    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        here = (code, *capsys.readouterr(), outputs())
        fresh = subprocess.run([sys.executable, "-m", "dwellgain.cli", *argv], capture_output=True, text=True)
        assert here == (fresh.returncode, fresh.stdout, fresh.stderr, outputs())
    assert code == 2 and "invalid int value: 'two'" in here[2]


class TestSimulateAndSweep:
    def test_simulate_outputs(self, ex1_path, tmp_path):
        prefix = str(tmp_path / "run")
        assert main(["simulate", "--system", ex1_path, "--dwell", "minimum:0.5",
                     "--runs", "3", "--horizon", "5", "--seed", "7", "-o", prefix]) == 0
        states = (tmp_path / "run_states.csv").read_text()
        assert states.splitlines()[0] == "t,x_1,x_2,zc_1"
        jumps = (tmp_path / "run_jumps.csv").read_text()
        assert jumps.splitlines()[0] == "k,t_k,zd_1"
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["seed"] == 7 and meta["runs"] == 3

    def test_byte_determinism(self, ex1_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            prefix = str(tmp_path / name)
            assert main(["simulate", "--system", ex1_path, "--dwell", "range:0.3:0.6",
                         "--runs", "2", "--horizon", "4", "--seed", "11", "-o", prefix]) == 0
            outs.append(
                (tmp_path / f"{name}_states.csv").read_bytes()
                + (tmp_path / f"{name}_jumps.csv").read_bytes()
            )
        assert outs[0] == outs[1]

    def test_sweep_csv(self, ex1_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--system", ex1_path, "--dwell", "minimum",
                     "--from", "0.2", "--to", "1.0", "--points", "4",
                     "--degree", "4", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "T,gamma"
        gammas = [float(l.split(",")[1]) for l in lines[1:]]
        assert len(gammas) == 4
        assert all(b <= a + 1e-9 for a, b in zip(gammas, gammas[1:]))

    def test_sweep_parallel_matches_serial(self, ex1_path, tmp_path):
        serial = tmp_path / "s.csv"
        parallel = tmp_path / "p.csv"
        for out, jobs in ((serial, "1"), (parallel, "2")):
            assert main(["sweep", "--system", ex1_path, "--dwell", "minimum",
                         "--from", "0.3", "--to", "0.9", "--points", "3",
                         "--degree", "2", "--jobs", jobs, "-o", str(out)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_sweep_reads_the_system_once(self, ex1_path, tmp_path, monkeypatch):
        """One read of --system per sweep, on the serial path and the --jobs
        path, whose workers get the system in their payloads; the spy counts
        in a file, which a forked worker's calls would reach too."""
        from dwellgain import cli

        log = tmp_path / "reads.log"

        def spy(path):
            with open(log, "a") as fh:
                fh.write("read\n")
            return load_system(path)

        monkeypatch.setattr(cli, "load_system", spy)
        csvs = []
        for jobs in ("1", "2"):
            log.write_text("")
            out = tmp_path / f"sweep{jobs}.csv"
            assert main(["sweep", "--system", ex1_path, "--dwell", "minimum", "--from", "0.3", "--to", "0.9",
                         "--points", "3", "--degree", "2", "--jobs", jobs, "-o", str(out)]) == 0
            assert log.read_text().splitlines() == ["read"]
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]


class TestExportEvery:
    """CLI simulate writes its states CSV at a stride of --export-every mesh
    cells per segment, keeping both rows of every jump; the run, its gain and
    the jumps CSV do not depend on the stride."""

    @staticmethod
    def _run(capsys, system, dwell, prefix, *extra):
        assert main(["simulate", "--system", system, "--dwell", dwell, "--runs", "3", "--horizon", "4",
                     "--seed", "5", "-o", prefix, *extra]) == 0
        return capsys.readouterr().out.replace(prefix, "PREFIX"), {
            suffix: Path(prefix + suffix).read_bytes() for suffix in ("_states.csv", "_jumps.csv", "_meta.json")}

    @pytest.mark.parametrize("dwell", ["minimum:0.5", "range:0.3:0.6", "constant:0.45"])
    @pytest.mark.parametrize("system", ["ex1", "switched"])
    def test_default_stride_keeps_full_rows(self, ex1_path, switched_path, tmp_path, capsys, system, dwell):
        path = {"ex1": ex1_path, "switched": switched_path}[system]
        out_full, full = self._run(capsys, path, dwell, str(tmp_path / "full"), "--export-every", "1")
        out_thin, thin = self._run(capsys, path, dwell, str(tmp_path / "thin"))
        assert out_thin == out_full
        assert thin["_jumps.csv"] == full["_jumps.csv"]
        meta_full, meta_thin = json.loads(full["_meta.json"]), json.loads(thin["_meta.json"])
        assert (meta_full.pop("export_every"), meta_thin.pop("export_every")) == (1, 10)
        assert meta_thin == meta_full  # empirical_gain included
        rows_full, rows_thin = full["_states.csv"].splitlines(), thin["_states.csv"].splitlines()
        assert 8 * len(rows_thin) < len(rows_full)
        it = iter(rows_full)
        assert all(row in it for row in rows_thin)  # a subsequence: every kept row, in order
        assert rows_thin[:2] == rows_full[:2] and rows_thin[-1] == rows_full[-1]
        jump_times = [line.split(b",")[1] for line in full["_jumps.csv"].splitlines()[1:]]
        assert jump_times
        times_full = [row.split(b",")[0] for row in rows_full[1:]]
        times_thin = [row.split(b",")[0] for row in rows_thin[1:]]
        for t in jump_times:  # the left and right rows of each jump, both kept whole
            assert times_full.count(t) == times_thin.count(t) == 2
            rows_at = lambda rows, times: [r for r, s in zip(rows[1:], times) if s == t]
            assert rows_at(rows_thin, times_thin) == rows_at(rows_full, times_full)

    def test_every_one_is_the_library_export(self, ex1_path, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        expected_stdout = TestSimulateIntegrationCount._reference(ex1_path, "range:0.3:0.6", 2, 11, prefix, every=1)
        expected = TestSimulateIntegrationCount._outputs(prefix)
        capsys.readouterr()
        assert main(["simulate", "--system", ex1_path, "--dwell", "range:0.3:0.6", "--runs", "2",
                     "--horizon", "4", "--seed", "11", "-o", prefix, "--export-every", "1"]) == 0
        assert capsys.readouterr().out == expected_stdout
        assert TestSimulateIntegrationCount._outputs(prefix) == expected

    @pytest.mark.parametrize("every", ["0", "-3"])
    def test_bad_stride_exits_2(self, ex1_path, tmp_path, capsys, every):
        assert main(["simulate", "--system", ex1_path, "--dwell", "minimum:0.5", "--runs", "1",
                     "-o", str(tmp_path / "out"), "--export-every", every]) == 2
        assert capsys.readouterr().err == f"error: --export-every must be >= 1, got {every}\n"
        assert not list(tmp_path.iterdir())


class TestSimulateIntegrationCount:
    """simulate exports run 0's trajectory and takes its sup as that run's
    gain sample, so each sampled sequence is integrated once: one call of
    `sim._run`, the body of `sim.simulate` and of every gain run."""

    @staticmethod
    def _reference(system, dwell, runs, seed, prefix, every=10):
        """The command's outputs with the export and estimate_gain run apart,
        the trajectory cut to the rows of `oracle_export_rows` at stride `every`."""
        sys_obj = load_system(system)
        spec = DwellTimeSpec.parse(dwell)
        gen = sim.SequenceGen.for_spec(spec, seed=seed)
        traj = sim.simulate(sys_obj, gen, sim.generate_inputs("const_unit"), x0=np.zeros(sys_obj.n),
                            horizon=4.0, clamp=spec.clamp, check_step=True,
                            rng=np.random.default_rng((seed, 0)))
        gain = sim.estimate_gain(sys_obj, gen, runs=runs, horizon=4.0, clamp=spec.clamp)
        keep = oracle_export_rows(traj.jump_count.tolist(), every)
        traj = dataclasses.replace(traj, times=traj.times[keep], states=traj.states[keep], zc=traj.zc[keep],
                                   jump_count=traj.jump_count[keep])
        sim.export_trajectory(traj, prefix, sidecar={
            "command": "simulate", "system": system, "dwell": str(spec), "seed": seed, "runs": runs,
            "inputs": "const_unit", "empirical_gain": gain, "controller": None, "export_every": every})
        return (f"empirical gain lower bound = {gain!r}  ({runs} runs, horizon 4.0)\n"
                f"trajectory written to {prefix}_states.csv / {prefix}_jumps.csv\n")

    @staticmethod
    def _outputs(prefix):
        return [Path(prefix + suffix).read_bytes() for suffix in ("_states.csv", "_jumps.csv", "_meta.json")]

    @pytest.mark.parametrize(
        "dwell, runs, jobs, integrations",
        [
            ("range:0.3:0.6", 2, 1, 2),
            ("minimum:0.4", 3, 1, 3),
            ("constant:0.5", 2, 1, 1),  # exact dwell: one run whatever --runs says
            ("range:0.3:0.6", 3, 2, None),  # runs 1 and 2 fan out over two processes
        ],
    )
    def test_matches_separate_estimate(self, ex1_path, tmp_path, capsys, monkeypatch,
                                       dwell, runs, jobs, integrations):
        prefix = str(tmp_path / "run")
        expected_stdout = self._reference(ex1_path, dwell, runs, 11, prefix)
        expected = self._outputs(prefix)
        capsys.readouterr()

        calls = []
        real = sim._run

        def counted(*args):
            calls.append(args[8])  # check_step
            return real(*args)

        monkeypatch.setattr(sim, "_run", counted)
        assert main(["simulate", "--system", ex1_path, "--dwell", dwell, "--runs", str(runs),
                     "--jobs", str(jobs), "--horizon", "4", "--seed", "11", "-o", prefix]) == 0
        assert capsys.readouterr().out == expected_stdout
        assert self._outputs(prefix) == expected
        if integrations is not None:
            assert len(calls) == integrations
            assert calls[0] is True  # the exported run carries the step referee


def test_import_leaves_multiprocessing_unloaded():
    """The process pool is imported only where --jobs > 1 runs it."""
    import os
    import subprocess
    import sys

    import dwellgain

    src = os.path.dirname(os.path.dirname(dwellgain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, dwellgain, dwellgain.cli\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_console_entry_point():
    import subprocess
    import sys

    r = subprocess.run(
        [sys.executable, "-m", "dwellgain.cli", "--help"], capture_output=True, text=True
    )
    assert r.returncode == 0
    assert "analyze" in r.stdout and "sweep" in r.stdout


@pytest.fixture
def misfit_f_path(bench_switched, tmp_path):
    """two_mode_switched_bench as a file whose mode-0 F has two columns, though E has one."""
    data = system_to_json(bench_switched)
    data["modes"][0]["F"] = [[[0.1], [0.1]]]
    path = tmp_path / "misfit.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("argv", [["analyze", "--degree", "2"], ["simulate", "--runs", "2", "--horizon", "3"]])
def test_misfit_switched_file_exits_2(misfit_f_path, tmp_path, capsys, argv):
    """A mode's F is held to the shape mode 0's E and C fix, mode 0's own
    included: the file used to be simulated, and analyze ended in a NumPy
    traceback."""
    out = tmp_path / "out"
    assert main([argv[0], "--system", misfit_f_path, "--dwell", "minimum:0.5", *argv[1:], "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: modes[0].F: expected shape (1, 1), got (1, 2)\n"
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("argv", [
    ["analyze", "--dwell", "constant:1e200", "--degree", "4"],
    ["analyze", "--dwell", "range:1e100:2e100", "--degree", "4"],
    ["analyze", "--dwell", "minimum:1e80", "--degree", "4"],
    ["analyze", "--dwell", "constant:1e77", "--degree", "4"],
    ["synthesize", "--dwell", "constant:1e200", "--degree", "2"],
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_dwell_exits_4(ex1_path, tmp_path, capsys, argv):
    """A dwell whose powers, or the coefficients they scale, overflow a float
    is a numerical failure naming the timer interval, not an OverflowError
    or a ValueError of the LP's non-finite rows.  Any RuntimeWarning on the
    way fails it: pyproject makes errors only of those the package raises,
    and one of NumPy's would print on the CLI's stderr."""
    out = tmp_path / "out.json"
    assert main([argv[0], "--system", ex1_path, *argv[1:], "-o", str(out)]) == 4
    T = float(argv[2].rsplit(":", 1)[1])
    assert capsys.readouterr().err == f"numerical failure: the polynomials on [0, {T:g}] overflow a float\n"
    assert not out.exists()
