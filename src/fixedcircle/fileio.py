"""Serialization: space/map documents, report rows, and the RunReport
envelope.

Input documents (space and map files) are JSON with a fixed shape:

  space: {"carrier": {"type": "finite", "labels": [...]}
                    | {"type": "analytic", "kind": "<kind>", "samples": [...]},
          "metric":  {"type": "matrix", "values": [[...]]}
                    | {"type": "named"}}
  map:   {"rule": {"type": "table", "images": {...}}
                 | {"type": "piecewise", "branches": [...], "default": ...}}

Finite carriers pair with a matrix metric, analytic carriers with the
named metric of their kind. Complex numbers ride as [re, im] pairs;
labels are opaque strings. Piecewise branches carry one predicate
({"on_circle": {"center": c, "radius": r}} or
{"at_points": {"points": [...]}}) and an image string ("identity",
"reciprocal", or "constant:<value>", the value a point written as text
as point_from_text reads it).

Input files keep full float precision so a parsed space is bit-equal to
the exported one. A document is read at the call's tolerance: an
analytic carrier merges its near-equal samples at space_from_doc's eps,
and a piecewise map stays a rule, matched at each call's eps. Report values instead pass through round12, which
pins every number to 12 significant digits; re-reading a serialized
report reproduces the RunReport exactly, because a 12-digit decimal
survives the float round trip.
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import TYPE_CHECKING

from .errors import MalformedInputError
from .metric_core import Branch, Circle, MetricSpace, SelfMap, ValidationReport

if TYPE_CHECKING:
    from .conditions import ConditionReport
    from .generators import SearchResult
    from .verifier import TheoremVerdict

SCHEMA_VERSION = 1


def round12(x) -> float:
    """Pin a float to 12 significant digits (report-value precision)."""
    return float(f"{float(x):.12g}")


# ---------------------------------------------------------------------------
# Point and image encoding


def point_to_json(p):
    if isinstance(p, str):
        return p
    if isinstance(p, complex) and not isinstance(p, float):
        return [p.real, p.imag]
    return float(p)


def point_from_json(v, what: str):
    """A label, a number or an [re, im] pair; ``what`` names the field."""
    if isinstance(v, str):
        return v
    if isinstance(v, list) and len(v) == 2 and {*map(type, v)} <= {int, float}:
        return complex(float(v[0]), float(v[1]))
    if type(v) not in (int, float):
        raise MalformedInputError(f"{what} is not a label, a number or an "
                                  f"[re, im] pair of numbers: {v!r}")
    return float(v)


def point_from_text(text: str, space: MetricSpace):
    """A point written as text: a finite carrier's label as it stands, a
    real number on a real carrier, and 're,im' or a real number on the
    complex plane."""
    if space.is_finite:
        return text
    try:
        if space.kind != "complex_usual":
            return float(text)
        re_s, comma, im_s = text.partition(",")
        return complex(float(re_s), float(im_s) if comma else 0.0)
    except ValueError:
        raise MalformedInputError(
            f"bad point {text!r} for a {space.kind} carrier") from None


def _image_to_str(image: tuple) -> str:
    op = image[0]
    if op in ("identity", "reciprocal"):
        return op
    v = image[1]
    if isinstance(v, str):
        return f"constant:{v}"
    if isinstance(v, complex) and not isinstance(v, float):
        return f"constant:{v.real!r},{v.imag!r}"
    return f"constant:{float(v)!r}"


def _image_from_str(text, space: MetricSpace) -> tuple:
    if text in ("identity", "reciprocal"):
        return (text,)
    if not (isinstance(text, str) and text.startswith("constant:")):
        raise MalformedInputError(f"unknown image rule {text!r}")
    return ("constant", point_from_text(text[len("constant:"):], space))


# ---------------------------------------------------------------------------
# Space documents


def space_to_doc(space: MetricSpace) -> dict:
    if space.is_finite:
        return {"carrier": {"type": "finite", "labels": list(space.pts)},
                "metric": {"type": "matrix",
                           "values": [[float(v) for v in row]
                                      for row in space.as_array]}}
    return {"carrier": {"type": "analytic", "kind": space.kind,
                        "samples": [point_to_json(s) for s in space.pts]},
            "metric": {"type": "named"}}


def _expect(doc, key, where, kind=object):
    """doc[key], refused when missing or, for ``kind`` list, dict or
    float, when not a JSON array, object or number (an int or a float)."""
    if not isinstance(doc, dict) or key not in doc:
        raise MalformedInputError(f"{where}: missing required key {key!r}")
    if not (type(doc[key]) in (int, float) if kind is float
            else isinstance(doc[key], kind)):
        noun = {list: "array", dict: "object", float: "number"}[kind]
        raise MalformedInputError(f"{where}: {key!r} must be a JSON {noun}")
    return doc[key]


def _malformed_as(where: str):
    """Report what a wrongly typed field raises while a document is read
    (ValueError/TypeError: a non-numeric distance, sample or radius;
    OverflowError: an integer past the float range) as
    MalformedInputError, the input error every caller expects. A field of
    the wrong JSON type is refused first, by _expect."""
    def wrap(read):
        @functools.wraps(read)
        def reader(*args):
            try:
                return read(*args)
            except (ValueError, TypeError, OverflowError) as err:
                raise MalformedInputError(f"{where}: {err}") from None
        return reader
    return wrap


@_malformed_as("space document")
def space_from_doc(doc: dict, eps=None) -> MetricSpace:
    carrier = _expect(doc, "carrier", "space document")
    metric = _expect(doc, "metric", "space document")
    ctype = _expect(carrier, "type", "carrier")
    mtype = _expect(metric, "type", "metric")
    if ctype == "finite":
        if mtype != "matrix":
            raise MalformedInputError(
                f"finite carriers take a matrix metric, got {mtype!r}")
        labels = _expect(carrier, "labels", "carrier", list)
        if not all(isinstance(label, str) for label in labels):
            raise MalformedInputError("carrier: 'labels' must hold strings")
        values = _expect(metric, "values", "metric", list)
        if not all(isinstance(row, list) and {*map(type, row)} <= {int, float}
                   for row in values):
            raise MalformedInputError(
                "metric: 'values' must hold arrays of numbers")
        return MetricSpace.finite(labels, values)
    if ctype == "analytic":
        if mtype != "named":
            raise MalformedInputError(
                f"analytic carriers take the named metric, got {mtype!r}")
        kind = _expect(carrier, "kind", "carrier")
        samples = [point_from_json(s, "carrier: a sample")
                   for s in _expect(carrier, "samples", "carrier", list)]
        return MetricSpace.analytic(kind, samples, eps)
    raise MalformedInputError(f"unknown carrier type {ctype!r}")


# ---------------------------------------------------------------------------
# Map documents


def map_to_doc(tmap: SelfMap) -> dict:
    if tmap.kind == "table":
        pts = tmap.space.points()
        return {"rule": {"type": "table",
                         "images": {str(p): str(img)
                                    for p, img in zip(pts, tmap.table)}}}
    branches = []
    for b in tmap.branches:
        if b.predicate[0] == "on_circle":
            pred = {"on_circle": {"center": point_to_json(b.predicate[1]),
                                  "radius": float(b.predicate[2])}}
        else:
            pred = {"at_points": {"points": [point_to_json(p)
                                             for p in b.predicate[1]]}}
        branches.append({**pred, "image": _image_to_str(b.image)})
    return {"rule": {"type": "piecewise", "branches": branches,
                     "default": _image_to_str(tmap.default)}}


@_malformed_as("map document")
def map_from_doc(doc: dict, space: MetricSpace) -> SelfMap:
    rule = _expect(doc, "rule", "map document")
    rtype = _expect(rule, "type", "rule")
    if rtype == "table":    # from_table refuses an analytic carrier
        return SelfMap.from_table(space, _expect(rule, "images", "rule", dict))
    if rtype != "piecewise":
        raise MalformedInputError(f"unknown rule type {rtype!r}")
    default = _image_from_str(_expect(rule, "default", "rule"), space)
    branches = []
    listed = (_expect(rule, "branches", "rule", list) if "branches" in rule
              else [])
    for i, b in enumerate(listed):
        image = _image_from_str(_expect(b, "image", f"branch {i}"), space)
        if "on_circle" in b:
            node, where = b["on_circle"], f"branch {i}"
            pred = ("on_circle", point_from_json(
                _expect(node, "center", where), f"{where}: the center"),
                    float(_expect(node, "radius", where, float)))
        elif "at_points" in b:
            pts = _expect(b["at_points"], "points", f"branch {i}", list)
            pred = ("at_points", tuple(point_from_json(
                p, f"branch {i}: a point") for p in pts))
        else:
            raise MalformedInputError(
                f"branch {i}: needs an on_circle or at_points predicate")
        branches.append(Branch(pred, image))
    return SelfMap.piecewise(space, branches, default)


# ---------------------------------------------------------------------------
# Text round trip and digests


def loads_document(text: str, where: str = "document") -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise MalformedInputError(
            f"{where}: parse error at line {err.lineno}, column "
            f"{err.colno}: {err.msg}") from None
    except RecursionError:
        raise MalformedInputError(f"{where}: nested too deeply to parse") from None
    except ValueError:      # int() refuses a literal of over 4,300 digits
        raise MalformedInputError(f"{where}: a number is too long") from None
    if not isinstance(doc, dict):
        raise MalformedInputError(f"{where}: top level must be an object")
    return doc


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def digest(doc: dict) -> str:
    import hashlib      # maps libcrypto; only calls that read a file need it
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Report rows (engine dataclasses -> JSON-shaped dicts, floats at 12 digits)


def circle_row(circle: Circle) -> dict:
    # bool()/int() coercions: engine fields may be numpy scalars, which
    # json refuses (np.bool_ is not a bool subclass).
    return {"center": point_to_json(circle.center),
            "radius": round12(circle.radius),
            "members": [point_to_json(m) for m in circle.members],
            "resolution": circle.resolution,
            "degenerate": bool(circle.degenerate),
            "empty": bool(circle.empty)}


def condition_row(rep: ConditionReport) -> dict:
    return {"condition": rep.condition_id,
            "holds": bool(rep.holds),
            "margin": round12(rep.margin),
            "witness": None if rep.witness is None
            else [point_to_json(p) for p in rep.witness],
            "derived_param": None if rep.derived_param is None
            else round12(rep.derived_param),
            "checked_count": int(rep.checked_count),
            "resolution_caveat": bool(rep.resolution_caveat),
            "vacuous": bool(rep.vacuous),
            "notes": list(rep.notes)}


def verdict_row(verdict: TheoremVerdict) -> dict:
    return {"theorem": verdict.theorem_id,
            "hypotheses": [condition_row(r)
                           for r in verdict.hypothesis_reports],
            "hypotheses_hold": bool(verdict.hypotheses_hold),
            "conclusion_holds": bool(verdict.conclusion_holds),
            "consistent": bool(verdict.consistent),
            "caveats": list(verdict.caveats),
            "fixed_circles": None if verdict.fixed_circles is None
            else [circle_row(c) for c in verdict.fixed_circles]}


def validation_row(rep: ValidationReport) -> dict:
    return {"valid": bool(rep.valid),
            "point_count": int(rep.point_count),
            "violation_count": int(rep.violation_count),
            "violations": [{"axiom": v.axiom,
                            "witness": [point_to_json(p) for p in v.witness],
                            "magnitude": round12(v.magnitude)}
                           for v in rep.violations]}


def search_row(res: SearchResult) -> dict:
    return {"status": res.status,
            "target": res.target,
            "evaluated": int(res.evaluated),
            "map": None if res.found is None else map_to_doc(res.found)}


# ---------------------------------------------------------------------------
# RunReport envelope


@dataclass
class RunReport:
    """One CLI invocation's structured output.

    Every field is JSON-shaped (strings, numbers, bools, lists, dicts),
    so serialization is exact and parse(serialize(r)) == r.
    """

    command: str
    inputs: dict
    epsilon: float
    conditions: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    enumeration: list = field(default_factory=list)
    caveats: list = field(default_factory=list)
    payload: dict = field(default_factory=dict)
    wall_time_seconds: float = 0.0
    schema: int = SCHEMA_VERSION


def serialize_report(report: RunReport) -> str:
    return dumps_document(asdict(report))


def parse_report(text: str) -> RunReport:
    doc = loads_document(text, "report")
    if doc.get("schema") != SCHEMA_VERSION:
        raise MalformedInputError(
            f"unsupported report schema {doc.get('schema')!r}")
    known = fields(RunReport)
    missing = [f.name for f in known if f.name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise MalformedInputError(f"report: missing {sorted(missing)}")
    return RunReport(**{f.name: doc[f.name] for f in known if f.name in doc})


def _flat(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flat(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flat(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, json.dumps(value)))


def report_table(report: RunReport) -> str:
    """Flat two-column rendering: one dotted path and value per line."""
    rows: list[tuple[str, str]] = []
    _flat("", asdict(report), rows)
    return "\n".join(f"{path}\t{value}" for path, value in rows) + "\n"
