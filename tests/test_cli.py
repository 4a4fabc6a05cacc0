"""Serialization and CLI contract tests: document round trips, digest
behavior, report precision, exit codes, and byte determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import fixedcircle
from fixedcircle import fileio
from fixedcircle.cli import main
from fixedcircle.errors import MalformedInputError
from fixedcircle.gallery import load_entry
from fixedcircle.metric_core import (Branch, MetricSpace, SelfMap, circle_of,
                                     circle_samples)
from fixedcircle.verifier import enumerate_fixed_circles

# ---------------------------------------------------------------------------
# Documents


def _roundtrip_space(space):
    doc = fileio.space_to_doc(space)
    text = fileio.dumps_document(doc)
    back = fileio.space_from_doc(fileio.loads_document(text))
    assert fileio.space_to_doc(back) == doc
    return back


def test_space_documents_round_trip_finite():
    space = MetricSpace.finite(("p", "q"), [[0, 1.5], [1.5, 0]])
    back = _roundtrip_space(space)
    assert back.points() == ("p", "q")
    assert back.distance("p", "q") == 1.5


@pytest.mark.parametrize("kind,samples", [
    ("real_usual", (0.0, 1.0, -2.5)),
    ("real_exp", (0.0, math.log(2.0))),
    ("real_abs_sum", (-1.0, 0.0, 2.0)),
])
def test_space_documents_round_trip_real(kind, samples):
    back = _roundtrip_space(MetricSpace.analytic(kind, samples))
    assert back.kind == kind
    assert back.points() == samples


def test_space_documents_round_trip_complex():
    space = MetricSpace.analytic(
        "complex_usual", (complex(-1, 0), complex(0, 1)))
    doc = fileio.space_to_doc(space)
    assert doc["carrier"]["samples"] == [[-1.0, 0.0], [0.0, 1.0]]
    back = _roundtrip_space(space)
    assert back.points() == (complex(-1, 0), complex(0, 1))


def test_map_documents_round_trip_table():
    space = MetricSpace.finite(("p", "q"), [[0, 2], [2, 0]])
    tmap = SelfMap.from_table(space, {"p": "q", "q": "q"})
    doc = fileio.map_to_doc(tmap)
    assert doc["rule"]["type"] == "table"
    back = fileio.map_from_doc(doc, space)
    assert back.table == tmap.table


def test_map_documents_round_trip_rule_and_piecewise():
    space = MetricSpace.analytic("real_usual", (-1.0, 1.0, 0.0, 5.0))
    rule = SelfMap.from_rule(space, ("reciprocal",))
    doc = fileio.map_to_doc(rule)
    assert doc["rule"]["branches"] == []
    back = fileio.map_from_doc(doc, space)
    assert back.apply(5.0) == 0.2

    pw = SelfMap.piecewise(
        space,
        (Branch(("on_circle", 0.0, 1.0), ("identity",)),
         Branch(("at_points", (5.0,)), ("constant", 0.0))),
        ("constant", 5.0))
    doc2 = fileio.map_to_doc(pw)
    back2 = fileio.map_from_doc(doc2, space)
    for x in space.points():
        assert back2.apply(x) == pw.apply(x)


def test_map_document_complex_constant():
    space = MetricSpace.analytic("complex_usual",
                                 (complex(0, 0), complex(1, 2)))
    tmap = SelfMap.piecewise(space, (), ("constant", complex(1, 2)))
    doc = fileio.map_to_doc(tmap)
    assert doc["rule"]["default"].startswith("constant:")
    back = fileio.map_from_doc(doc, space)
    assert back.apply(complex(0, 0)) == complex(1, 2)
    # a constant written as one number is read as a point of the plane
    real = fileio.map_from_doc({"rule": {"type": "piecewise", "branches": [],
                                         "default": "constant:1.5"}}, space)
    assert type(real.default[1]) is complex and real.default[1] == 1.5


def test_malformed_documents_are_diagnosed():
    with pytest.raises(MalformedInputError, match="line"):
        fileio.loads_document("{bad json", "space file")
    with pytest.raises(MalformedInputError, match="top level"):
        fileio.loads_document("[1, 2]", "space file")
    with pytest.raises(MalformedInputError, match="carrier"):
        fileio.space_from_doc({"metric": {"type": "named"}})
    with pytest.raises(MalformedInputError, match="matrix"):
        fileio.space_from_doc({"carrier": {"type": "finite",
                                           "labels": ["p"]},
                               "metric": {"type": "named"}})
    with pytest.raises(MalformedInputError, match="rule"):
        fileio.map_from_doc({}, MetricSpace.finite(("p",), [[0]]))


def test_digest_tracks_content():
    doc = fileio.space_to_doc(MetricSpace.finite(("p",), [[0]]))
    same = fileio.space_to_doc(MetricSpace.finite(("p",), [[0]]))
    other = fileio.space_to_doc(MetricSpace.finite(("q",), [[0]]))
    assert fileio.digest(doc) == fileio.digest(same)
    assert fileio.digest(doc) != fileio.digest(other)
    assert len(fileio.digest(doc)) == 16


def test_exported_matrix_keeps_full_precision():
    # input files are not reports: no 12-digit rounding on the way out
    v = 1049 / 2 ** 20
    space = MetricSpace.finite(("p", "q"), [[0, v], [v, 0]])
    doc = fileio.space_to_doc(space)
    assert doc["metric"]["values"][0][1] == v


# ---------------------------------------------------------------------------
# Reports


def test_round12_is_idempotent_after_first_pass():
    for x in (1 / 3, math.pi, 1e-17, 123456.789012345, -0.1, math.inf):
        once = fileio.round12(x)
        assert fileio.round12(once) == once


def test_report_round_trip():
    rep = fileio.RunReport(
        command="check", inputs={"space": "0" * 16}, epsilon=1e-9,
        conditions=[{"condition": "C1", "holds": True, "margin": 0.0}],
        caveats=["sampled-resolution verdict"],
        wall_time_seconds=fileio.round12(0.12345678901234))
    text = fileio.serialize_report(rep)
    assert fileio.parse_report(text) == rep
    with pytest.raises(MalformedInputError, match="schema"):
        fileio.parse_report(text.replace('"schema": 1', '"schema": 99'))
    # the required fields are the ones RunReport gives no default
    with pytest.raises(MalformedInputError, match=r"missing \['command'\]"):
        fileio.parse_report(text.replace('"command"', '"verb"'))


def test_report_table_is_flat():
    rep = fileio.RunReport(command="validate", inputs={}, epsilon=1e-9,
                           payload={"validation": {"valid": True}})
    table = fileio.report_table(rep)
    lines = table.strip().splitlines()
    assert "command\t\"validate\"" in lines
    assert "payload.validation.valid\ttrue" in lines


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    out = {}
    for entry_id in ("EX_2_5", "EX_2_6", "EX_2_12", "PROP_3_1"):
        entry = load_entry(entry_id)
        sp = root / f"{entry_id}.space.json"
        mp = root / f"{entry_id}.map.json"
        sp.write_text(fileio.dumps_document(fileio.space_to_doc(entry.space)))
        mp.write_text(fileio.dumps_document(fileio.map_to_doc(entry.tmap)))
        out[entry_id] = (str(sp), str(mp))
    bad = root / "bad.json"
    bad.write_text("{not json")
    out["bad"] = (str(bad), str(bad))
    asym = root / "asym.json"
    asym.write_text(fileio.dumps_document(
        {"carrier": {"type": "finite", "labels": ["a", "b"]},
         "metric": {"type": "matrix", "values": [[0, 1], [2, 0]]}}))
    out["asym"] = (str(asym), str(asym))
    return out


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_validate(files, capsys):
    code, out = _run(capsys, "validate", files["EX_2_5"][0])
    assert code == 0
    assert json.loads(out)["payload"]["validation"]["valid"]

    code, out = _run(capsys, "validate", files["asym"][0])
    assert code == 1
    violations = json.loads(out)["payload"]["validation"]["violations"]
    assert violations[0]["axiom"] == "symmetry"

    assert main(["validate", files["bad"][0]]) == 2
    assert main(["validate", "/nonexistent/nope.json"]) == 2


_HUGE = 10 ** 400

_ABC = {"carrier": {"type": "finite", "labels": ["a", "b", "c"]},
        "metric": {"type": "matrix",
                   "values": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}}


@pytest.mark.parametrize("space,tmap", [
    ({"carrier": {"type": "finite", "labels": ["a", "b"]},
      "metric": {"type": "matrix", "values": [[0, "x"], ["x", 0]]}}, None),
    ({"carrier": {"type": "finite", "labels": 3},
      "metric": {"type": "matrix",
                 "values": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}}, None),
    ({"carrier": {"type": "analytic", "kind": "real_usual",
                  "samples": [0.0, "x"]},
      "metric": {"type": "named"}}, None),
    (_ABC, {"rule": {"type": "table", "images": ["a", "b", "c"]}}),
    (_ABC, {"rule": {"type": "piecewise", "branches": [], "default": 3}}),
    # json reads an integer of any size; float() refuses one past its range
    ({"carrier": {"type": "finite", "labels": ["a", "b"]},
      "metric": {"type": "matrix", "values": [[0, _HUGE], [_HUGE, 0]]}}, None),
    ({"carrier": {"type": "analytic", "kind": "real_usual",
                  "samples": [0.0, _HUGE]},
      "metric": {"type": "named"}}, None),
    (_ABC, {"rule": {"type": "piecewise", "default": "identity",
                     "branches": [{"on_circle": {"center": "a",
                                                 "radius": _HUGE},
                                   "image": "identity"}]}}),
    (_ABC, {"rule": {"type": "piecewise", "default": "identity",
                     "branches": [{"at_points": {"points": [_HUGE]},
                                   "image": "identity"}]}}),
], ids=["non_numeric_entry", "labels_not_a_list", "non_numeric_sample",
        "images_not_an_object", "image_not_a_string", "huge_entry",
        "huge_sample", "huge_on_circle_radius", "huge_at_points_point"])
def test_cli_wrongly_typed_fields_exit_2(tmp_path, capsys, space, tmap):
    sp = tmp_path / "space.json"
    sp.write_text(json.dumps(space), encoding="utf-8")
    argv = ["validate", str(sp)]
    if tmap is not None:
        mp = tmp_path / "map.json"
        mp.write_text(json.dumps(tmap), encoding="utf-8")
        argv = ["enumerate", str(sp), str(mp)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("raw,says", [
    (b"[" * 100000, "nested too deeply"),
    (b"\xff\xfe{}", "space.json is not UTF-8"),
    (b'{"carrier": {"type": "finite", "labels": ["a"]}, "metric": '
     b'{"type": "matrix", "values": [[' + b"1" * 5000 + b"]]}}",
     "a number is too long")],
    ids=["nested_too_deeply", "not_utf8", "integer_of_5000_digits"])
def test_cli_unparseable_files_exit_2(tmp_path, capsys, raw, says):
    sp = tmp_path / "space.json"
    sp.write_bytes(raw)
    assert main(["validate", str(sp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: space file: ") and "Traceback" not in err
    assert says in err and err.count("\n") == 1


_LINE = {"carrier": {"type": "analytic", "kind": "real_usual",
                     "samples": [0.0, 1.0, 2.0]},
         "metric": {"type": "named"}}


@pytest.mark.parametrize("space,tmap", [
    ({**_LINE, "carrier": {**_LINE["carrier"],
                           "samples": [math.nan, 0.0, 1.0, 2.0]}}, None),
    (_LINE, {"rule": {"type": "piecewise", "branches": [],
                      "default": "constant:nan"}}),
    (_LINE, {"rule": {"type": "piecewise", "default": "identity",
                      "branches": [{"on_circle": {"center": 0.0,
                                                  "radius": math.inf},
                                    "image": "constant:0.0"}]}}),
], ids=["nan_sample", "nan_constant_image", "infinite_on_circle_radius"])
def test_cli_non_finite_points_exit_2(tmp_path, capsys, space, tmap):
    # json writes NaN and Infinity, and reads them back as floats
    sp = tmp_path / "space.json"
    sp.write_text(json.dumps(space), encoding="utf-8")
    argv = ["validate", str(sp)]
    if tmap is not None:
        mp = tmp_path / "map.json"
        mp.write_text(json.dumps(tmap), encoding="utf-8")
        argv = ["enumerate", str(sp), str(mp)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("kind,samples", [
    ("real_usual", [1e308, -1e308, 0.0]),
    ("complex_usual", [[1.5e308, 1.5e308], [0.0, 0.0]])],
    ids=["real_usual", "complex_usual"])
def test_cli_validate_overflowing_samples_exit_2(tmp_path, capsys, kind,
                                                 samples):
    # a distance between two samples is past the float range
    sp = tmp_path / "space.json"
    sp.write_text(json.dumps({**_LINE, "carrier": {
        **_LINE["carrier"], "kind": kind, "samples": samples}}),
        encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["validate", str(sp)])
    err = capsys.readouterr().err
    assert code == 2
    assert not caught, [str(w.message) for w in caught]
    assert err.startswith("error: ") and "overflows" in err


def test_cli_check_overflowing_samples_prints_only_the_error(tmp_path):
    # numpy's overflow warning in the pointwise metric must not reach
    # stderr ahead of the refusal; a fresh interpreter shows what a user
    # sees, with the default warning filters
    sp = tmp_path / "space.json"
    sp.write_text(json.dumps({**_LINE, "carrier": {
        **_LINE["carrier"], "samples": [1e308, -1e308, 0.0]}}),
        encoding="utf-8")
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"rule": {"type": "piecewise", "branches": [],
                                       "default": "identity"}}),
                  encoding="utf-8")
    src = Path(fixedcircle.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run(
        [sys.executable, "-m", "fixedcircle.cli", "check", str(sp), str(mp),
         "--conditions", "BANACH", "--center", "0", "--radius", "1"],
        capture_output=True, text=True, env=env, check=False)
    assert run.returncode == 2
    assert run.stderr == ("error: the real_usual metric overflows on the "
                          "sample set\n")


@pytest.mark.parametrize("command", [
    ("verify", "--theorem", "T_EXIST_C1C2"), ("check", "--conditions", "C1")],
    ids=["verify", "check"])
@pytest.mark.parametrize("kind,center,radius", [
    ("real_usual", "1e308", "1e308"), ("real_exp", "800", "1")],
    ids=["real_usual_member_at_inf", "real_exp_exp_overflows"])
def test_cli_overflowing_circle_exit_2(tmp_path, capsys, command, kind, center,
                                       radius):
    sp = tmp_path / "space.json"
    sp.write_text(json.dumps({**_LINE, "carrier": {**_LINE["carrier"],
                                                   "kind": kind}}),
                  encoding="utf-8")
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"rule": {"type": "piecewise", "branches": [],
                                       "default": "identity"}}),
                  encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command[0], str(sp), str(mp), *command[1:],
                     "--center", center, "--radius", radius])
    err = capsys.readouterr().err
    assert code == 2
    assert not caught, [str(w.message) for w in caught]
    assert err.startswith("error: ") and "overflows" in err
    assert repr(float(center)) in err and repr(float(radius)) in err


def test_cli_check_exit_codes(files, capsys):
    sp, mp = files["EX_2_6"]
    code, out = _run(capsys, "check", sp, mp, "--center", "0",
                     "--radius", "2", "--conditions", "C1,C2")
    assert code == 1
    rows = json.loads(out)["conditions"]
    assert [(r["condition"], r["holds"]) for r in rows] == [
        ("C1", True), ("C2", False)]

    sp, mp = files["EX_2_12"]
    code, _ = _run(capsys, "check", sp, mp, "--center", "0", "--radius", "1",
                   "--conditions", "C1_STAR,C2_STAR")
    assert code == 0

    assert main(["check", sp, mp, "--center", "0", "--radius", "1",
                 "--conditions", "C9"]) == 2


def test_cli_check_degenerate_caveat(files, capsys):
    sp, mp = files["EX_2_6"]
    code, out = _run(capsys, "check", sp, mp, "--center", "0",
                     "--radius", "0", "--conditions", "C1")
    caveats = json.loads(out)["caveats"]
    assert any("degenerate" in c for c in caveats)


def test_cli_check_reads_every_id_off_one_source(files, capsys, monkeypatch):
    # all twelve ids, in mixed case and with spaces, give the twelve
    # single-id rows of the golden file in order, off one operand source
    from fixedcircle import conditions
    from fixedcircle.registry import CONDITION_IDS
    from test_golden_reports import DATA, _digest
    built, reports = [], []
    source, check = conditions._OneMap, conditions.check_conditions

    class Counted(source):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    def recorded(*args, **kwargs):
        got = check(*args, **kwargs)
        reports.extend(got)
        return got
    monkeypatch.setattr(conditions, "_OneMap", Counted)
    monkeypatch.setattr(conditions, "check_conditions", recorded)
    ids = " , ".join(c.lower() if i % 2 else c.title()
                     for i, c in enumerate(CONDITION_IDS))
    sp, mp = files["EX_2_5"]
    code, out = _run(capsys, "check", sp, mp, "--center", "0",
                     "--radius", "2", "--conditions", f" {ids} ")
    assert code == 1 and len(built) == 1
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    assert [_digest(fileio.condition_row(r), [r]) for r in reports] == [
        golden[f"EX_2_5 circle 0 check {cid}"] for cid in CONDITION_IDS]
    assert json.loads(out)["conditions"] == json.loads(
        fileio.dumps_document([fileio.condition_row(r) for r in reports]))


def test_cli_verify(files, capsys):
    sp, mp = files["EX_2_5"]
    code, out = _run(capsys, "verify", sp, mp, "--theorem", "T_EXIST_C1C2",
                     "--center", "0", "--radius", "2")
    assert code == 0
    v = json.loads(out)["verdicts"][0]
    assert v["hypotheses_hold"] and v["conclusion_holds"] and v["consistent"]

    sp, mp = files["PROP_3_1"]
    code, out = _run(capsys, "verify", sp, mp, "--theorem", "T_UNIQUE_C3",
                     "--center", "x0", "--radius", "2")
    assert code == 0
    v = json.loads(out)["verdicts"][0]
    assert not v["hypotheses_hold"] and v["consistent"]
    assert len(v["fixed_circles"]) == 2

    # circle flags are required for circle-local theorems
    assert main(["verify", sp, mp, "--theorem", "T_EXIST_C1C2"]) == 2


def test_cli_verify_identity(files, capsys):
    sp, _ = files["PROP_3_1"]
    ident = sp.replace("PROP_3_1.space", "ident.map")
    with open(ident, "w") as fh:
        fh.write(fileio.dumps_document(
            {"rule": {"type": "table",
                      "images": {l: l for l in
                                 ("x0", "x1", "a", "b", "c", "e", "alpha")}}}))
    code, out = _run(capsys, "verify", sp, ident, "--theorem", "T_IDENTITY",
                     "--center", "x0", "--radius", "2")
    assert code == 0
    assert json.loads(out)["verdicts"][0]["conclusion_holds"]


def test_cli_enumerate(files, capsys):
    sp, mp = files["EX_2_12"]
    code, out = _run(capsys, "enumerate", sp, mp)
    assert code == 0
    got = {(c["center"], c["radius"]) for c in json.loads(out)["enumeration"]}
    assert got == {(0.0, 1.0), (3.0, 2.0), (2.0, 3.0)}


def test_cli_search(files, capsys):
    sp, _ = files["PROP_3_1"]
    code, out = _run(capsys, "search", sp, "--target", "C1 & !C2",
                     "--center", "x0", "--radius", "2")
    assert code == 0
    payload = json.loads(out)["payload"]["search"]
    assert payload["status"] == "found"
    assert payload["map"]["rule"]["type"] == "table"

    code, out = _run(capsys, "search", sp, "--target", "C1 & !C2",
                     "--center", "x0", "--radius", "2", "--budget", "0")
    assert code == 1
    assert json.loads(out)["payload"]["search"]["status"] == "exhausted"


def test_cli_gallery(files, capsys, tmp_path):
    code, out = _run(capsys, "gallery", "--filter", "EX_2_16")
    assert code == 0
    rows = json.loads(out)["payload"]["results"]
    assert rows and all(r["passed"] for r in rows)

    export = tmp_path / "exported"
    code, out = _run(capsys, "gallery", "--filter", "EX_2_16",
                     "--export", str(export))
    assert code == 0
    names = json.loads(out)["payload"]["exported"]
    assert names == ["EX_2_16.space.json", "EX_2_16.map.json"]
    for name in names:
        assert (export / name).exists()
    # the exported pair is usable as CLI input
    code2, _ = _run(capsys, "check", str(export / names[0]),
                    str(export / names[1]), "--center", "0", "--radius", "1",
                    "--conditions", "C1_DSTAR,C2_DSTAR")
    assert code2 == 0


@pytest.mark.parametrize("target", ["!" * 3000 + "C1",
                                    " & ".join(["C1"] * 3000)],
                         ids=["negations", "conjunction"])
def test_cli_search_deep_target_exits_2(files, capsys, target):
    sp, _ = files["PROP_3_1"]
    code = main(["search", sp, "--target", target, "--center", "x0",
                 "--radius", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("size,option,value", [
    (9, "--seed", "-1"), (3, "--seed", "-1"), (3, "--budget", "-5")],
    ids=["seed_sampled", "seed_exhaustive", "budget"])
def test_cli_search_negative_numbers_exit_2(tmp_path, capsys, size, option,
                                            value):
    # 9**9 maps exceed the default budget, so that search samples; 3**3
    # do not, so it exhausts
    sp = tmp_path / "space.json"
    labels = [f"p{i}" for i in range(size)]
    sp.write_text(json.dumps({
        "carrier": {"type": "finite", "labels": labels},
        "metric": {"type": "matrix",
                   "values": [[float(i != j) for j in range(size)]
                              for i in range(size)]}}), encoding="utf-8")
    code = main(["search", str(sp), "--target", "C1", "--center", "p0",
                 "--radius", "1", option, value])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert option[2:] in err


@pytest.mark.parametrize("labels,image", [
    (["0", "1", "2"], "1"), (["a,b", "c", "d"], "a,b")],
    ids=["numeric_label", "comma_label"])
def test_cli_constant_image_is_a_finite_label(tmp_path, capsys, labels,
                                              image):
    sp = tmp_path / "space.json"
    sp.write_text(json.dumps({**_ABC, "carrier": {"type": "finite",
                                                  "labels": labels}}),
                  encoding="utf-8")
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"rule": {"type": "piecewise", "branches": [],
                                       "default": f"constant:{image}"}}),
                  encoding="utf-8")
    code, out = _run(capsys, "enumerate", str(sp), str(mp),
                     "--include-degenerate")
    assert code == 0
    # the constant map fixes its image only
    assert [c["members"] for c in json.loads(out)["enumeration"]] == [[image]]


def test_cli_enumerate_skips_overflowing_displacements(tmp_path, capsys):
    # reciprocal sends a real_exp circle member near 0 past exp's range
    space = MetricSpace.analytic("real_exp", [k / 64 for k in range(-64, 65)])
    tmap = SelfMap.from_rule(space, ("reciprocal",))
    sp, mp = tmp_path / "space.json", tmp_path / "map.json"
    sp.write_text(fileio.dumps_document(fileio.space_to_doc(space)))
    mp.write_text(fileio.dumps_document(fileio.map_to_doc(tmap)))
    code, out = _run(capsys, "enumerate", str(sp), str(mp))
    assert code == 0
    circles = enumerate_fixed_circles(space, tmap)
    assert len(json.loads(out)["enumeration"]) == len(circles) > 0
    for circle in circles:
        for x in circle.members:   # the metric raises on an overflow
            assert space.distance(x, tmap.apply(x)) <= 1e-9


@pytest.mark.parametrize("raw", ["abc", "-1", "nan", "inf"])
def test_cli_bad_epsilon_variable_exits_2(tmp_path, capsys, monkeypatch,
                                          raw):
    sp = tmp_path / "space.json"
    sp.write_text(json.dumps(_ABC), encoding="utf-8")
    monkeypatch.setenv("FIXEDCIRCLE_EPSILON", raw)
    code = main(["validate", str(sp)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert repr(raw) in err


def test_cli_gallery_export_it_cannot_write_exits_2(capsys, tmp_path):
    # a file where the folder should be is an input error, not a crash
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["gallery", "--filter", "EX_2_5", "--export", str(taken)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and str(taken) in captured.err
    assert "Traceback" not in captured.err


def test_cli_gallery_takes_no_epsilon(capsys, monkeypatch):
    # replay runs at the default tolerance, so no flag pretends otherwise
    with pytest.raises(SystemExit) as exc:
        main(["gallery", "--epsilon", "0.3"])
    assert exc.value.code == 2
    # the report gives the tolerance replay used
    monkeypatch.setenv("FIXEDCIRCLE_EPSILON", "1e-10")
    code, out = _run(capsys, "gallery", "--filter", "EX_2_16")
    assert code == 0
    assert json.loads(out)["epsilon"] == 1e-10


def test_cli_byte_determinism(files, capsys):
    sp, mp = files["EX_2_12"]
    argv = ("check", sp, mp, "--center", "0", "--radius", "1",
            "--conditions", "C1_STAR,C2_STAR")
    _, out1 = _run(capsys, *argv)
    _, out2 = _run(capsys, *argv)
    def strip(text):
        return [l for l in text.splitlines() if "wall_time" not in l]

    assert strip(out1) == strip(out2)


def test_cli_epsilon_flag(files, capsys):
    sp, mp = files["EX_2_6"]
    code, out = _run(capsys, "check", sp, mp, "--center", "0",
                     "--radius", "2", "--conditions", "C2",
                     "--epsilon", "5.0")
    # with a huge tolerance the failing margin -2 now passes
    assert code == 0
    assert json.loads(out)["epsilon"] == 5.0


def test_cli_table_format(files, capsys):
    code, out = _run(capsys, "validate", files["EX_2_5"][0],
                     "--format", "table")
    assert code == 0
    assert "payload.validation.valid\ttrue" in out


def test_cli_help_names_env_vars(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "FIXEDCIRCLE_EPSILON" in out
    assert "FIXEDCIRCLE_CIRCLE_SAMPLES" not in out


def test_cli_rejects_unknown_theorem(files):
    sp, mp = files["EX_2_5"]
    with pytest.raises(SystemExit) as exc:
        main(["verify", sp, mp, "--theorem", "T_NOPE",
              "--center", "0", "--radius", "2"])
    assert exc.value.code == 2
