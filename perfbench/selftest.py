"""Self-test of the output checks: each check gets a right result, which
it must accept, and deliberately wrong ones, each of which it must
report. A check that cannot fail shows up here, before any timing.

The reference evaluations are exercised the same way on small cases
whose answers are known by hand.
"""

from __future__ import annotations

import json
from types import SimpleNamespace as NS

import numpy as np

import checks
import reference


def _expect(label, problems, should_fail, out):
    """A check fed a right (should_fail False) or wrong result."""
    if bool(problems) == should_fail:
        out.append(None)
    elif should_fail:
        out.append(f"check {label}: missed a wrong result")
    else:
        out.append(f"check {label}: rejected a right result: {problems}")


def _known(label, ok, out):
    """A reference evaluation on a hand-solved case."""
    out.append(None if ok else f"reference {label}: wrong on a hand-solved case")


def _report(**kw):
    base = dict(falsifications=(), spaces_checked=5, maps_checked=10,
                verdicts_checked=90)
    base.update(kw)
    return NS(**base)


def _search(status="exhausted", evaluated=100, table=None):
    space = NS(index_of=lambda p: int(p[1:]))
    found = None if table is None else NS(space=space, table=table)
    return NS(status=status, evaluated=evaluated, found=found)


def run() -> tuple[int, list[str]]:
    """(cases run, problems found in the checks themselves)."""
    out: list[str | None] = []
    e = _expect

    e("sweep right", checks.sweep_report(_report(), 5, 10, 90), False, out)
    e("sweep falsified", checks.sweep_report(
        _report(falsifications=(NS(theorem_id="T_BANACH"),)), 5, 10, 90),
        True, out)
    e("sweep maps", checks.sweep_report(_report(maps_checked=11), 5, 10, 90),
      True, out)
    e("sweep verdicts", checks.sweep_report(_report(verdicts_checked=89),
                                            5, 10, 90), True, out)
    e("sweep spaces", checks.sweep_report(_report(spaces_checked=4),
                                          5, 10, 90), True, out)

    want = {"C1": np.array([True, False])}
    e("flags right", checks.same_flags("t", {"C1": [True, False]}, want),
      False, out)
    e("flags wrong", checks.same_flags("t", {"C1": [True, True]}, want),
      True, out)

    e("search right", checks.search_result("t", _search(), "exhausted", 100),
      False, out)
    e("search status", checks.search_result(
        "t", _search("found", 100, ("p0",)), "exhausted", 100), True, out)
    e("search evaluated", checks.search_result(
        "t", _search(evaluated=99), "exhausted", 100), True, out)
    e("search found right", checks.search_result(
        "t", _search("found", 7, ("p1", "p0")), "found", 7, (1, 0), True),
      False, out)
    e("search not first hit", checks.search_result(
        "t", _search("found", 7, ("p0", "p0")), "found", 7, (1, 0), True),
      True, out)
    e("search bad witness", checks.search_result(
        "t", _search("found", 7, ("p1", "p0")), "found", 7, None, False),
      True, out)
    e("search found nothing", checks.search_result(
        "t", _search("found", 7), "found", 7), True, out)

    e("validation right", checks.validation("t", NS(valid=True), True),
      False, out)
    e("validation wrong", checks.validation("t", NS(valid=True), False),
      True, out)
    verdict = NS(theorem_id="T", hypotheses_hold=True, conclusion_holds=False)
    e("consistent right", checks.consistent("t", NS(consistent=True)),
      False, out)
    e("consistent wrong", checks.consistent("t", NS(consistent=False,
                                                    **vars(verdict))),
      True, out)
    rep = NS(condition_id="C1", holds=True)
    e("condition right", checks.condition("t", rep, "C1", True), False, out)
    e("condition id", checks.condition("t", rep, "C2", None), True, out)
    e("condition holds", checks.condition("t", rep, "C1", False), True, out)
    rows = [("a", 1.0, ("b",))]
    e("rows right", checks.same_rows("t", list(rows), rows), False, out)
    e("rows extra", checks.same_rows("t", rows + [("b", 1.0, ("a",))], rows),
      True, out)
    e("rows radius", checks.same_rows("t", [("a", 1.5, ("b",))], rows),
      True, out)
    e("fixed right", checks.all_fixed("t", [0.0, 1e-12], 1e-9), False, out)
    e("fixed moved", checks.all_fixed("t", [0.0, 1e-6], 1e-9), True, out)

    report = json.dumps({"command": "verify"})
    e("cli right", checks.cli_call("t", 0, report, "", 0, "verify")[0],
      False, out)
    e("cli exit", checks.cli_call("t", 1, report, "", 0, "verify")[0],
      True, out)
    e("cli traceback", checks.cli_call(
        "t", 2, "", "Traceback (most recent call last)", 2, None)[0],
      True, out)
    e("cli unparsable", checks.cli_call("t", 0, "{", "", 0, "verify")[0],
      True, out)
    e("cli other command", checks.cli_call("t", 0, report, "", 0,
                                           "check")[0], True, out)
    e("bytes right", checks.same_bytes(
        "t", 'a\n"wall_time_seconds": 1\n', 'a\n"wall_time_seconds": 2\n'),
      False, out)
    e("bytes differ", checks.same_bytes("t", "a\n", "b\n"), True, out)
    passed = {"payload": {"results": [{"passed": True}]}}
    e("gallery right", checks.gallery_doc("t", passed), False, out)
    e("gallery failed", checks.gallery_doc(
        "t", {"payload": {"results": [{"passed": True}, {"passed": False}]}}),
      True, out)
    e("gallery empty", checks.gallery_doc("t", {"payload": {}}), True, out)
    doc = {"payload": {"search": {"status": "exhausted", "evaluated": 3125}}}
    e("search doc right", checks.search_doc("t", doc, 3125), False, out)
    e("search doc count", checks.search_doc("t", doc, 3124), True, out)
    e("search doc found", checks.search_doc(
        "t", {"payload": {"search": {"status": "found", "evaluated": 3125}}},
        3125), True, out)
    e("verdict doc right", checks.verdict_doc(
        "t", {"verdicts": [{"theorem": "T", "consistent": True}]}), False, out)
    e("verdict doc inconsistent", checks.verdict_doc(
        "t", {"verdicts": [{"theorem": "T", "consistent": False}]}), True, out)
    e("verdict doc empty", checks.verdict_doc("t", {"verdicts": []}), True,
      out)
    pairs = [(0.0, 1.0), (0.5, 2.0)]
    e("circle listed", checks.circle_listed("t", pairs, 0.5, 2.0, 1e-9),
      False, out)
    e("circle missing", checks.circle_listed("t", pairs, 0.5, 1.0, 1e-9),
      True, out)

    # Reference evaluations on hand-solved cases: a 3-point space with
    # d(a,b)=1, d(a,c)=2, d(b,c)=1.5 and the unit circle about a = {b}.
    D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    maps = np.array([[0, 1, 2],      # identity: fixes b, C1, C2 hold
                     [0, 2, 2],      # b -> c: C2 holds, C1 fails
                     [0, 0, 0]])     # constant a: C2 fails, BANACH holds
    a = reference.atoms(D, maps, 0, 1.0)
    _known("C1", list(a["C1"]) == [True, False, True], out)
    _known("C2", list(a["C2"]) == [True, True, False], out)
    _known("FIXED_CIRCLE", list(a["FIXED_CIRCLE"]) == [True, False, False], out)
    _known("BANACH", list(a["BANACH"]) == [False, False, True], out)
    bad = D.copy()
    bad[0, 2] = bad[2, 0] = 3.0                    # 3 > 1 + 1.5
    _known("triangle", reference.metric_is_valid(D)
           and not reference.metric_is_valid(bad), out)
    _known("fixed circles", len(reference.fixed_circles(D, maps[0])) == 6
           and reference.fixed_circles(D, maps[2]) == [(1, 1.0, (0,)),
                                                       (2, 2.0, (0,))], out)
    return len(out), [p for p in out if p is not None]
