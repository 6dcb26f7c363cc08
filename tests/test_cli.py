import json
from pathlib import Path

import numpy as np
import pytest

from conftest import spy_solves
from dwellgain import sim
from dwellgain.cli import main
from dwellgain.model import DwellTimeSpec, load_system, save_system
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
        assert np.array_equal(ctrl.kd(0.2), np.asarray(ctrl.Ud) / [x.eval(0.2) for x in ctrl.X])
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
    ],
)
def test_config_errors_exit_2(ex1_path, chain_path, switched_path, tmp_path, capsys, argv):
    out = tmp_path / "out"
    args = [a.format(ex1=ex1_path, chain=chain_path, switched=switched_path, out=out) for a in argv]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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


class TestSimulateIntegrationCount:
    """simulate exports run 0's trajectory and takes its sup as that run's
    gain sample, so each sampled sequence is integrated once."""

    @staticmethod
    def _reference(system, dwell, runs, seed, prefix):
        """The command's outputs with the export and estimate_gain run apart."""
        sys_obj = load_system(system)
        spec = DwellTimeSpec.parse(dwell)
        gen = sim.SequenceGen.for_spec(spec, seed=seed)
        traj = sim.simulate(sys_obj, gen, sim.generate_inputs("const_unit"), x0=np.zeros(sys_obj.n),
                            horizon=4.0, clamp=spec.clamp, check_step=True,
                            rng=np.random.default_rng((seed, 0)))
        gain = sim.estimate_gain(sys_obj, gen, runs=runs, horizon=4.0, clamp=spec.clamp)
        sim.export_trajectory(traj, prefix, sidecar={
            "command": "simulate", "system": system, "dwell": str(spec), "seed": seed, "runs": runs,
            "inputs": "const_unit", "empirical_gain": gain, "controller": None})
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
        real = sim.simulate

        def counted(*args, **kwargs):
            calls.append(kwargs.get("check_step"))
            return real(*args, **kwargs)

        monkeypatch.setattr(sim, "simulate", counted)
        assert main(["simulate", "--system", ex1_path, "--dwell", dwell, "--runs", str(runs),
                     "--jobs", str(jobs), "--horizon", "4", "--seed", "11", "-o", prefix]) == 0
        assert capsys.readouterr().out == expected_stdout
        assert self._outputs(prefix) == expected
        if integrations is not None:
            assert len(calls) == integrations
            assert calls[0] is True  # the exported run carries the step referee


def test_console_entry_point():
    import subprocess
    import sys

    r = subprocess.run(
        [sys.executable, "-m", "dwellgain.cli", "--help"], capture_output=True, text=True
    )
    assert r.returncode == 0
    assert "analyze" in r.stdout and "sweep" in r.stdout
