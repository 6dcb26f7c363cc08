"""The artifact file layer: `model.write_json` writes and `model.read_json`
reads every certificate, controller and system file."""

import json
import re

import numpy as np
import pytest

from dwellgain.analysis import (
    Certificate,
    analyze_arbitrary,
    analyze_constant,
    analyze_minimum,
    analyze_range,
    analyze_switched_min,
)
from dwellgain.errors import ParseError
from dwellgain.model import DwellTimeSpec, ImpulsiveSystem, load_system
from dwellgain.synthesis import ControllerRealization, synthesize, synthesize_switched

ARTIFACTS = {
    "ArbitraryDT": lambda b: analyze_arbitrary(b["lti"]),
    "ConstantDT": lambda b: analyze_constant(b["growth"], 0.3, 2),
    "MinimumDT": lambda b: analyze_minimum(b["lti"], 0.5, 2),
    "RangeDT": lambda b: analyze_range(b["growth"], 0.3, 0.5, 2),
    "RangeDT mu": lambda b: analyze_range(b["growth"], 0.3, 0.5, 2, mode="mu_variant"),
    "SwitchedMinDT": lambda b: analyze_switched_min(b["switched"], 0.5, 2),
    "ArbitraryDT design": lambda b: synthesize(b["lti+inputs"], DwellTimeSpec.arbitrary()),
    "ConstantDT design": lambda b: synthesize(b["chain"], DwellTimeSpec.constant(0.1), 2),
    "MinimumDT design": lambda b: synthesize(b["lti+inputs"], DwellTimeSpec.minimum(0.2), 2),
    "RangeDT design": lambda b: synthesize(b["chain"], DwellTimeSpec.range(0.1, 0.3), 2),
    "RangeDT_FixedKd design": lambda b: synthesize(b["chain"], DwellTimeSpec.range(0.1, 0.3), 2, fixed_kd=True),
    "SwitchedMinDT design": lambda b: synthesize_switched(b["switched"], 0.5, 2),
}


@pytest.fixture(scope="module")
def benches(bench_lti, bench_timer_growth, bench_chain_plant, bench_switched):
    s, jm = bench_lti, bench_lti.jump
    inputs = ImpulsiveSystem.from_arrays(  # one nonnegative control input on each channel
        A=s.A, Ec=s.Ec, Cc=s.Cc, Fc=s.Fc, J=jm.J, Ed=jm.Ed, Cd=jm.Cd, Fd=jm.Fd,
        Bc=np.full((s.n, 1), 0.5), Dc=np.full((s.qc, 1), 0.2), Bd=np.full((s.n, 1), 1.0), Dd=np.full((s.qd, 1), 0.3),
    )
    return {"lti": s, "lti+inputs": inputs, "growth": bench_timer_growth, "chain": bench_chain_plant,
            "switched": bench_switched}


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_round_trip(benches, tmp_path, name):
    """save writes the sorted, indent-1 JSON of to_json with a final newline,
    and load gives back an artifact with the same to_json."""
    artifact = ARTIFACTS[name](benches)
    data = artifact.to_json()
    assert data["kind"] == name.split()[0]
    assert ("mu" in data.get("aux", {})) == (name == "RangeDT mu")
    assert ("Ud_poly" in data) == (name == "RangeDT design")
    assert ("M" in data) == (name == "RangeDT_FixedKd design")
    path = tmp_path / "artifact.json"
    artifact.save(str(path))
    assert path.read_text() == json.dumps(data, indent=1, sort_keys=True) + "\n"
    assert type(artifact).load(str(path)).to_json() == data


@pytest.mark.parametrize("load", [Certificate.load, ControllerRealization.load, load_system],
                         ids=["certificate", "controller", "system"])
@pytest.mark.parametrize("text,message", [
    ("{not json", "line 1: Expecting property name"),
    ("[]", "the top level is a JSON list, not an object"),
    ("{}", "missing field"),
], ids=["malformed", "list", "empty"])
def test_unreadable_file_names_it(tmp_path, load, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: .*{message}"):
        load(str(path))
