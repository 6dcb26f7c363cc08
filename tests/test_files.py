"""The artifact file layer: `model.write_json` writes and `model.read_json`
reads every certificate, controller and system file."""

import json
import re
from pathlib import Path

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
from dwellgain.cli import main
from dwellgain.model import DwellTimeSpec, ImpulsiveSystem, load_system, save_system, system_to_json
from dwellgain.synthesis import ControllerRealization, synthesize, synthesize_switched

ARTIFACTS = {
    "ArbitraryDT": lambda b: analyze_arbitrary(b["lti"]),
    "ConstantDT": lambda b: analyze_constant(b["growth"], 0.3, 2),
    "MinimumDT": lambda b: analyze_minimum(b["lti"], 0.5, 2),
    "RangeDT": lambda b: analyze_range(b["growth"], 0.3, 0.5, 2),
    "SwitchedMinDT": lambda b: analyze_switched_min(b["switched"], 0.5, 2),
    "SwitchedConstantDT": lambda b: analyze_constant(b["switched"], 0.5, 2),
    "SwitchedRangeDT": lambda b: analyze_range(b["switched"], 0.1, 0.3, 2),
    "SwitchedArbitraryDT": lambda b: analyze_arbitrary(b["switched"]),
    "ArbitraryDT design": lambda b: synthesize(b["lti+inputs"], DwellTimeSpec.arbitrary()),
    "ConstantDT design": lambda b: synthesize(b["chain"], DwellTimeSpec.constant(0.1), 2),
    "MinimumDT design": lambda b: synthesize(b["lti+inputs"], DwellTimeSpec.minimum(0.2), 2),
    "RangeDT design": lambda b: synthesize(b["chain"], DwellTimeSpec.range(0.1, 0.3), 2),
    "RangeDT_FixedKd design": lambda b: synthesize(b["chain"], DwellTimeSpec.range(0.1, 0.3), 2, fixed_kd=True),
    "RangeDT one-dwell design": lambda b: synthesize(b["chain"], DwellTimeSpec.range(0.2, 0.2000000000001), 2),
    "SwitchedMinDT design": lambda b: synthesize_switched(b["switched"], 0.5, 2),
    "SwitchedConstantDT design": lambda b: synthesize(b["switched"], DwellTimeSpec.constant(0.3), 2),
    "SwitchedRangeDT design": lambda b: synthesize(b["switched"], DwellTimeSpec.range(0.1, 0.3), 2),
    "SwitchedArbitraryDT design": lambda b: synthesize(b["switched"], DwellTimeSpec.arbitrary()),
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
    and load gives back an artifact with the same to_json, which saves to
    the same bytes."""
    artifact = ARTIFACTS[name](benches)
    data = artifact.to_json()
    assert data["kind"] == name.split()[0]
    assert data.get("aux", {}) == {}
    assert ("Ud_poly" in data) == (name == "RangeDT design")
    assert ("M" in data) == (name == "RangeDT_FixedKd design")
    path = tmp_path / "artifact.json"
    artifact.save(str(path))
    assert path.read_text() == json.dumps(data, indent=1, sort_keys=True) + "\n"
    loaded = type(artifact).load(str(path))
    assert loaded.to_json() == data
    loaded.save(str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


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


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("base, field, value, named", [
    ("certificate", "gamma", "x", "gamma"),
    ("certificate", "zeta", 3, "zeta"),
    ("certificate", "dwell", 3, "dwell"),
    ("certificate", "aux", [], "aux"),
    ("controller", "X", [[1.0], 2.0], "X"),
    ("controller", "Ud", [[1.0], [2.0, 3.0]], "Ud"),
    ("controller", "margin", None, "margin"),
    ("system", "jump_maps", [], "jump_maps"),
    ("system", "jump_maps", [{"J": "x"}], "J"),
    ("system", "jump_maps", {"J": [[1.0]]}, "jump_maps"),
    ("system", "A", "x", "A"),
    ("system", "Ed", [["x"]], "Ed"),
    ("system", "tag", 3, "tag"),
    ("switched", "modes", [{"A": [[[1.0]]], "E": [["x"]]}], "E"),
    ("switched", "modes", 3, "modes"),
    # values that are not finite, as json writes and reads them
    ("certificate", "gamma", float("nan"), "gamma"),
    ("certificate", "jump_margin", float("-inf"), "jump_margin"),
    ("certificate", "zeta", [[0.5, float("inf")]], "zeta"),
    ("controller", "gamma", float("inf"), "gamma"),
    ("controller", "X", [[float("nan")]], "X"),
    # U_d and M of a 2-state controller: finite, one entry per state, and
    # U_d polynomial in theta only on a range of jump dwells
    ("controller", "Ud", [[float("nan"), 0.5]], "Ud"),
    ("controller", "Ud", [[0.5, float("-inf")]], "Ud"),
    ("controller", "Ud", [[0.5, 0.5, 0.5]], "Ud"),
    ("controller", "Ud", [[0.5]], "Ud"),
    ("controller", "Ud", [0.5, 0.5], "Ud"),
    ("controller", "M", [float("nan"), 1.0], "M"),
    ("controller", "M", [1.0, float("inf")], "M"),
    ("controller", "M", [1.0], "M"),
    ("controller", "Ud_poly", [[[0.5], [0.1, 0.2]]], "Ud_poly"),
    ("range controller", "Ud_poly", [[[0.5], [0.1, float("nan")]]], "Ud_poly"),
    ("range controller", "Ud_poly", [[[0.5], [0.1], [0.2]]], "Ud_poly"),
    ("range controller", "Ud_poly", [[[0.5], [0.1]]] * 2 + [[[0.5]]], "Ud_poly"),
    # a kind that is not a string, named as itself in both files
    ("certificate", "kind", 3, "kind"),
    ("controller", "kind", 3, "kind"),
    # a kind other than the one the dwell, the nesting of zeta or X (per
    # mode in a switched file) and, in a controller, M imply: a Switched
    # kind on a flat listing is named as the kind, not as zeta or X
    ("certificate", "kind", "Bogus", "kind"),
    ("certificate", "kind", "RangeDT", "kind"),
    ("certificate", "kind", "SwitchedConstantDT", "kind"),
    ("certificate", "zeta", [[[0.5], [0.5]], [[0.5], [0.5]]], "kind"),
    ("controller", "kind", "Bogus", "kind"),
    ("controller", "kind", "SwitchedConstantDT", "kind"),
    ("controller", "kind", "ConstantDT_FixedKd", "kind"),
    ("controller", "M", [1.0, 1.0], "kind"),
    ("range controller", "kind", "ConstantDT", "kind"),
    # the dominating vector of a mu-variant range certificate, a program no
    # longer offered: refused by name rather than verified as a plain range
    ("certificate", "aux", {"mu": [[0.5]]}, "aux"),
])
def test_wrong_field_names_it(bench_lti, bench_switched, negative_input_plant, tmp_path, capsys, base, field, value,
                              named):
    """A field of the wrong type or shape is a ParseError naming the file and
    the field, not a TypeError, ValueError or IndexError from the decoder.
    CLI certify refuses a bad certificate or controller file as a bad
    input, exit 2."""
    load = {"certificate": Certificate.load}.get(base, load_system)
    if base in ("system", "switched"):
        data = system_to_json(bench_lti if base == "system" else bench_switched)
    else:
        data = json.loads((DATA / ("nonpositive_constant_1.json" if base == "certificate"
                                   else "negative_input_design.json")).read_text())
    if base.endswith("controller"):
        load = ControllerRealization.load
        data["dwell"] = "range:0.1:0.3" if base == "range controller" else data["dwell"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**data, field: value}))
    message = f"{re.escape(str(path))}: bad field {named!r}: "
    with pytest.raises(ParseError, match=f"^{message}"):
        load(str(path))
    if base not in ("system", "switched"):
        save_system(negative_input_plant, str(tmp_path / "plant.json"))
        assert main(["certify", "--system", str(tmp_path / "plant.json"), "--certificate", str(path)]) == 2
        assert re.match(f"error: {message}", capsys.readouterr().err)
