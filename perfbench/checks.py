"""Output checks. Each takes what the program returned plus what the
benchmark expects and returns a list of problems (empty when correct).

The expectations come from reference.py or from properties the method
must have (a verdict is consistent, an impossible search exhausts, a
named metric validates); none is a recording of an earlier output.
selftest.py feeds each check a wrong result to show it can fail.
"""

from __future__ import annotations

import json

import numpy as np


def sweep_report(report, spaces: int, maps: int, verdicts: int) -> list[str]:
    out = []
    if report.falsifications:
        out.append(f"sweep: {len(report.falsifications)} falsification(s), "
                   f"first {report.falsifications[0].theorem_id}")
    if report.spaces_checked != spaces:
        out.append(f"sweep: spaces_checked {report.spaces_checked} != {spaces}")
    if report.maps_checked != maps:
        out.append(f"sweep: maps_checked {report.maps_checked} != {maps}")
    if report.verdicts_checked != verdicts:
        out.append(f"sweep: verdicts_checked {report.verdicts_checked} "
                   f"!= {verdicts}")
    return out


def same_flags(where: str, got: dict, want: dict) -> list[str]:
    """Boolean arrays per name must match element for element."""
    out = []
    for name, w in want.items():
        g = np.asarray(got[name], dtype=bool)
        if g.shape != w.shape or not np.array_equal(g, w):
            bad = int(np.count_nonzero(g != w)) if g.shape == w.shape else -1
            out.append(f"{where}: {name} disagrees on {bad} map(s)")
    return out


def search_result(where: str, result, status: str, evaluated: int,
                  images: tuple | None = None,
                  witness_holds: bool | None = None) -> list[str]:
    """status/evaluated as expected; for a find, the witness's image
    indices (when known) and the target evaluated on it by the benchmark."""
    out = []
    if result.status != status:
        out.append(f"{where}: status {result.status!r}, expected {status!r}")
    if result.evaluated != evaluated:
        out.append(f"{where}: evaluated {result.evaluated}, "
                   f"expected {evaluated}")
    if status == "exhausted" and result.found is not None:
        out.append(f"{where}: exhausted search returned a map")
    if status == "found":
        if result.found is None:
            out.append(f"{where}: found search returned no map")
        elif images is not None and tuple(images) != tuple(
                result.found.space.index_of(p) for p in result.found.table):
            out.append(f"{where}: witness is not the first hit in order")
        if witness_holds is False:
            out.append(f"{where}: witness does not satisfy the target")
    return out


def validation(where: str, report, valid: bool) -> list[str]:
    if bool(report.valid) != valid:
        return [f"{where}: validate_metric valid={report.valid}, "
                f"brute force says {valid}"]
    return []


def consistent(where: str, verdict) -> list[str]:
    if not verdict.consistent:
        return [f"{where}: {verdict.theorem_id} is inconsistent "
                f"(hyp={verdict.hypotheses_hold}, "
                f"concl={verdict.conclusion_holds})"]
    return []


def condition(where: str, report, cid: str, holds: bool | None) -> list[str]:
    """Right id; where the benchmark evaluated it, the same verdict."""
    out = []
    if report.condition_id != cid:
        out.append(f"{where}: asked {cid}, report says {report.condition_id}")
    if holds is not None and bool(report.holds) != holds:
        out.append(f"{where}: {cid} holds={report.holds}, "
                   f"benchmark evaluates {holds}")
    return out


def same_rows(where: str, got: list, want: list) -> list[str]:
    """Two lists of (center, radius, members) rows, compared exactly."""
    if got == want:
        return []
    extra = [r for r in got if r not in want]
    missing = [r for r in want if r not in got]
    return [f"{where}: {len(got)} rows vs {len(want)} expected "
            f"({len(extra)} extra, {len(missing)} missing)"]


def all_fixed(where: str, displacements: list, eps: float) -> list[str]:
    """Every listed circle member stays within eps of itself."""
    worst = max(displacements, default=0.0)
    if worst > eps:
        return [f"{where}: a listed fixed circle moves a member by {worst:g}"]
    return []


def cli_call(where: str, code: int, out: str, err: str, expected: int,
             command: str | None) -> tuple[list[str], dict | None]:
    """Exit code as documented, no traceback, and for a report-producing
    call a parseable report of the right command. Returns the problems
    and the parsed report."""
    problems = []
    if code != expected:
        problems.append(f"{where}: exit {code}, expected {expected}")
    if "Traceback" in err:
        problems.append(f"{where}: traceback on stderr")
    doc = None
    if command is not None:
        try:
            doc = json.loads(out)
        except ValueError:
            problems.append(f"{where}: report does not parse")
            return problems, None
        if not isinstance(doc, dict) or doc.get("command") != command:
            problems.append(f"{where}: report is not a {command} report")
            doc = None
    return problems, doc


def same_bytes(where: str, first: str, second: str) -> list[str]:
    """Identical reports apart from the wall_time_seconds line."""
    def strip(text):
        return [l for l in text.splitlines() if "wall_time_seconds" not in l]
    if strip(first) != strip(second):
        return [f"{where}: two identical calls printed different reports"]
    return []


def search_doc(where: str, doc: dict, evaluated: int) -> list[str]:
    """A search report for an impossible target: exhausted, every map."""
    search = doc.get("payload", {}).get("search", {})
    if search.get("status") != "exhausted" \
            or search.get("evaluated") != evaluated:
        return [f"{where}: impossible target gave {search.get('status')} "
                f"after {search.get('evaluated')} maps, expected exhausted "
                f"after {evaluated}"]
    return []


def verdict_doc(where: str, doc: dict) -> list[str]:
    """A verify report with at least one verdict, all consistent."""
    verdicts = doc.get("verdicts", [])
    if not verdicts:
        return [f"{where}: report carries no verdict"]
    return [f"{where}: {v.get('theorem')} inconsistent"
            for v in verdicts if not v.get("consistent")]


def circle_listed(where: str, pairs: list, center, radius: float,
                  eps: float) -> list[str]:
    """(center, radius) is among the listed pairs, radius within eps."""
    if any(c == center and abs(r - radius) <= eps for c, r in pairs):
        return []
    return [f"{where}: circle ({center!r}, {radius}) is not listed"]


def gallery_doc(where: str, doc: dict) -> list[str]:
    rows = doc.get("payload", {}).get("results", [])
    failed = [r for r in rows if not r.get("passed")]
    out = []
    if not rows:
        out.append(f"{where}: gallery replay reported no expectations")
    if failed:
        out.append(f"{where}: {len(failed)} gallery expectation(s) failed")
    return out
