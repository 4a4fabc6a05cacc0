"""Command-line entry point.

Every subcommand reads space/map documents (see fileio), runs the
corresponding engine call, and prints one RunReport to stdout, JSON by
default or the flat tabular form with --format table. Exit codes are a
stable contract:

  0  success / everything requested holds
  1  a negative result: a condition fails, a search exhausts, a gallery
     expectation mismatches, a metric is invalid
  2  input error: unparseable file, unknown id, off-carrier point
  3  theorem falsification (a verdict with consistent = false)

Identical invocations produce byte-identical reports except for the
wall_time_seconds field.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import fileio
from .errors import FixedCircleError, MalformedInputError
from .metric_core import (DEFAULT_EPSILON, MetricSpace, circle_caveats,
                          circle_of, enumerate_fixed_circles, resolve_eps,
                          validate_metric)
from .registry import CONDITION_IDS, THEOREM_IDS, THEOREM_READS, needs_circle

_EXIT_OK = 0
_EXIT_NEGATIVE = 1
_EXIT_INPUT = 2
_EXIT_FALSIFIED = 3

_EPILOG = f"""environment:
  FIXEDCIRCLE_EPSILON         default comparison tolerance
                              (currently {DEFAULT_EPSILON!r}; --epsilon wins)
"""


def _read_doc(path: str, where: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise MalformedInputError(f"{where}: cannot read {path}: "
                                  f"{err.strerror}") from None
    except UnicodeDecodeError as err:
        raise MalformedInputError(f"{where}: {path} is not UTF-8: {err}") from None
    return fileio.loads_document(text, where)


def _load_space(path: str, eps: float) -> tuple[MetricSpace, str]:
    doc = _read_doc(path, "space file")
    return fileio.space_from_doc(doc, eps), fileio.digest(doc)


def _load_map(path: str, space: MetricSpace):
    doc = _read_doc(path, "map file")
    return fileio.map_from_doc(doc, space), fileio.digest(doc)


_MEMBER_VACUITY = "member-quantified conditions are vacuous"


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (exit_code, its own RunReport fields);
# main resolves the tolerance and adds it, the command and the wall time.
# A handler imports the engine it runs, so a call loads only its own.


def _cmd_validate(args, eps) -> tuple[int, dict]:
    space, space_digest = _load_space(args.space, eps)
    report = validate_metric(space, eps)
    return (_EXIT_OK if report.valid else _EXIT_NEGATIVE), dict(
        inputs={"space": space_digest},
        payload={"validation": fileio.validation_row(report)})


def _cmd_check(args, eps) -> tuple[int, dict]:
    from .conditions import check_conditions
    space, space_digest = _load_space(args.space, eps)
    tmap, map_digest = _load_map(args.map, space)
    center = fileio.point_from_text(args.center, space)
    circle = circle_of(space, center, args.radius, eps)
    requested = [c.strip().upper() for c in args.conditions.split(",")
                 if c.strip()]
    if not requested:
        raise MalformedInputError("--conditions lists no condition ids")
    rows = [fileio.condition_row(r) for r in check_conditions(
        requested, space, tmap, circle=circle, eps=eps)]
    all_hold = all(r["holds"] for r in rows)
    return (_EXIT_OK if all_hold else _EXIT_NEGATIVE), dict(
        inputs={"space": space_digest, "map": map_digest,
                "circle": fileio.circle_row(circle)},
        conditions=rows, caveats=circle_caveats(circle, _MEMBER_VACUITY))


def _cmd_verify(args, eps) -> tuple[int, dict]:
    from .verifier import verify_theorem
    space, space_digest = _load_space(args.space, eps)
    tmap, map_digest = _load_map(args.map, space)
    inputs = {"space": space_digest, "map": map_digest}
    circle, needed = None, needs_circle(THEOREM_READS[args.theorem])
    if (args.center is None) != (args.radius is None):
        raise MalformedInputError("--center and --radius go together: "
                                  "give both or neither")
    if args.center is not None:
        # resolved even when unneeded: the report echoes only a valid circle
        given = circle_of(space, fileio.point_from_text(args.center, space),
                          args.radius, eps)
        inputs["circle"] = {"center": fileio.point_to_json(given.center),
                            "radius": fileio.round12(given.radius)}
        circle = given if needed else None
    elif needed:
        raise MalformedInputError(
            f"theorem {args.theorem} needs --center and --radius")
    verdict = verify_theorem(args.theorem, space, tmap, circle, eps)
    return (_EXIT_OK if verdict.consistent else _EXIT_FALSIFIED), dict(
        inputs=inputs, verdicts=[fileio.verdict_row(verdict)],
        caveats=list(verdict.caveats))


def _cmd_enumerate(args, eps) -> tuple[int, dict]:
    space, space_digest = _load_space(args.space, eps)
    tmap, map_digest = _load_map(args.map, space)
    found = enumerate_fixed_circles(space, tmap,
                                    include_degenerate=args.include_degenerate,
                                    eps=eps)
    return _EXIT_OK, dict(
        inputs={"space": space_digest, "map": map_digest},
        enumeration=[fileio.circle_row(c) for c in found])


def _cmd_search(args, eps) -> tuple[int, dict]:
    from .generators import search_counterexample
    space, space_digest = _load_space(args.space, eps)
    center = fileio.point_from_text(args.center, space)
    circle = circle_of(space, center, args.radius, eps)
    result = search_counterexample(space, circle, args.target,
                                   budget=args.budget, seed=args.seed, eps=eps)
    return (_EXIT_OK if result.status == "found" else _EXIT_NEGATIVE), dict(
        inputs={"space": space_digest, "circle": fileio.circle_row(circle)},
        payload={"search": fileio.search_row(result)},
        caveats=circle_caveats(circle, _MEMBER_VACUITY))


def _cmd_gallery(args, eps) -> tuple[int, dict]:
    from .gallery import load_entry, matching_entries, replay_all
    report = replay_all(args.filter)
    rows = [{"entry": r.entry_id, "index": r.index, "kind": r.kind,
             "passed": r.passed, "detail": r.detail}
            for r in report.results]
    payload = {"results": rows,
               "entries": list(matching_entries(args.filter))}
    if args.export is not None:     # an OS refusal is an input error
        import os
        docs = {}
        for entry in map(load_entry, payload["entries"]):
            docs[f"{entry.entry_id}.space.json"] = fileio.space_to_doc(
                entry.space)
            docs[f"{entry.entry_id}.map.json"] = fileio.map_to_doc(entry.tmap)
        try:
            os.makedirs(args.export, exist_ok=True)
            for name, doc in docs.items():
                with open(os.path.join(args.export, name), "w",
                          encoding="utf-8") as fh:
                    fh.write(fileio.dumps_document(doc))
        except OSError as err:
            raise MalformedInputError(f"cannot export to {args.export}: "
                                      f"{err.strerror}") from None
        payload["exported"] = list(docs)
    return (_EXIT_OK if report.ok else _EXIT_NEGATIVE), dict(
        inputs={}, payload=payload)


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixedcircle",
        description="Check fixed-circle conditions and theorems on finite "
                    "and analytic metric spaces.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, epsilon=True):
        if epsilon:
            p.add_argument("--epsilon", type=float, default=None,
                           help="tolerance of the comparisons and of reading "
                                "the files (overrides FIXEDCIRCLE_EPSILON)")
        p.add_argument("--format", choices=("json", "table"), default="json",
                       help="report rendering (default json)")

    p = sub.add_parser("validate", help="check the metric axioms")
    p.add_argument("space", help="space file")
    common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("check", help="run condition checks on one circle")
    p.add_argument("space")
    p.add_argument("map")
    p.add_argument("--center", required=True,
                   help="circle center (label, number, or re,im)")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--conditions", required=True,
                   help="comma-separated ids, e.g. C1,C2 "
                        f"(known: {','.join(sorted(CONDITION_IDS))})")
    common(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("verify", help="verify one theorem's verdict")
    p.add_argument("space")
    p.add_argument("map")
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p.add_argument("--center", default=None)
    p.add_argument("--radius", type=float, default=None)
    common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("enumerate", help="list every fixed circle")
    p.add_argument("space")
    p.add_argument("map")
    p.add_argument("--include-degenerate", action="store_true")
    common(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("search",
                       help="search self-maps for a condition pattern")
    p.add_argument("space")
    p.add_argument("--target", required=True,
                   help="boolean expression over condition ids and "
                        "FIXED_CIRCLE, e.g. 'C1 & !C2'")
    p.add_argument("--center", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10 ** 6)
    common(p)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("gallery", help="replay the example gallery")
    p.add_argument("--filter", default=None,
                   help="entry-id substring filter")
    p.add_argument("--export", default=None, metavar="DIR",
                   help="also write each entry's space/map files here")
    common(p, epsilon=False)
    p.set_defaults(handler=_cmd_gallery)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        eps = resolve_eps(getattr(args, "epsilon", None))
        code, fields = args.handler(args, eps)
    except FixedCircleError as err:
        print(f"error: {err}", file=sys.stderr)
        return _EXIT_INPUT
    report = fileio.RunReport(
        command=args.command, epsilon=fileio.round12(eps),
        wall_time_seconds=fileio.round12(time.perf_counter() - started),
        **fields)
    if args.format == "table":
        sys.stdout.write(fileio.report_table(report))
    else:
        sys.stdout.write(fileio.serialize_report(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
