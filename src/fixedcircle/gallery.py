"""Curated instance gallery with pinned expectations, replayable as a
regression suite.

Each entry bundles a space, a self-map, the circles of interest, and a
list of expectation records stating exactly what the condition checkers,
the fixed-circle test, and the theorem verdicts must report: verdict
booleans, margins, derived parameters, resolved member sets, and
fixed-circle enumerations. replay_all re-evaluates every expectation
through the public engine entry points and reports one pass/fail row
per expectation, so any behavioral drift in the checkers surfaces as a
named mismatch here.

Analytic entries carry sample sets holding every point their
expectations mention plus a 101-point uniform grid over the mentioned
range, so membership and enumeration claims are decidable on the
shipped data alone.

Each entry is declared once, by id and title on its builder
(@_entry(id, title)); load_entry builds it from that registry. Entry ids
are stable opaque tags (EX_* / PROP_*); replay order is natural id order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .conditions import check_condition, classify_images
from .errors import DomainError
from .generators import build_circle_fixing_map, build_multi_circle_map
from .metric_core import (Branch, Circle, MetricSpace, SelfMap, circle_of,
                          circle_samples, is_fixed_circle, resolve_eps, within)
from .verifier import enumerate_fixed_circles, verify_theorem

_VALUE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Expectation records


@dataclass(frozen=True)
class ConditionExpectation:
    """A condition checker's verdict on one circle, with optional pinned
    margin and derived parameter."""

    condition_id: str
    circle_idx: int
    holds: bool
    margin: float | None = None
    derived_param: float | None = None


@dataclass(frozen=True)
class FixedCircleExpectation:
    circle_idx: int
    holds: bool


@dataclass(frozen=True)
class CircleMembersExpectation:
    """The resolved member set of a circle, matched with tolerance."""

    circle_idx: int
    members: tuple


@dataclass(frozen=True)
class FixedMembersExpectation:
    """Exactly which members of the circle the map leaves fixed."""

    circle_idx: int
    members: tuple


@dataclass(frozen=True)
class EnumerationExpectation:
    """(center, radius) pairs among the non-degenerate fixed circles;
    the whole set when exact, a subset claim otherwise."""

    pairs: tuple
    exact: bool = False


@dataclass(frozen=True)
class VerdictExpectation:
    """A theorem verdict's booleans; consistency is always demanded."""

    theorem_id: str
    circle_idx: int
    hypotheses_hold: bool
    conclusion_holds: bool
    fixed_circle_count: int | None = None


@dataclass(frozen=True)
class ClassificationExpectation:
    """Every member image lands in one region, optionally at one gap."""

    circle_idx: int
    region: str
    signed_gap: float | None = None


@dataclass(frozen=True)
class GalleryEntry:
    entry_id: str
    title: str
    space: MetricSpace
    tmap: SelfMap
    circles: tuple[Circle, ...]
    expectations: tuple
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExpectationResult:
    entry_id: str
    index: int
    kind: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class GalleryReport:
    results: tuple[ExpectationResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> tuple[ExpectationResult, ...]:
        return tuple(r for r in self.results if not r.passed)


# ---------------------------------------------------------------------------
# Entry construction helpers


def _grid(lo: float, hi: float) -> tuple:
    return tuple(float(v) for v in np.linspace(lo, hi, 101))


def _real(kind: str, mentioned, lo, hi) -> MetricSpace:
    return MetricSpace.analytic(kind, tuple(mentioned) + _grid(lo, hi))


# ---------------------------------------------------------------------------
# Entries

# entry id -> (title, builder); filled by @_entry as the module loads
_REGISTRY: dict = {}


def _entry(entry_id: str, title: str):
    """Register the decorated builder as the gallery entry entry_id.

    The builder returns the rest of GalleryEntry in field order:
    (space, tmap, circles, expectations[, notes]). An id is declared
    once; a second declaration is refused before anything is registered.
    """
    if entry_id in _REGISTRY:
        raise DomainError(f"gallery entry {entry_id!r} is already declared")

    def register(builder):
        _REGISTRY[entry_id] = (title, builder)
        return builder
    return register


@_entry("EX_2_4", "Members sent to the center's level, everything else to 2")
def _():
    space = _real("real_usual", (-1.0, 3.0, 1.0, 2.0), -1, 3)
    tmap = SelfMap.piecewise(
        space, (Branch(("on_circle", 1.0, 2.0), ("constant", 1.0)),),
        ("constant", 2.0))
    return space, tmap, (circle_of(space, 1.0, 2.0),), (
        CircleMembersExpectation(0, (-1.0, 3.0)),
        ConditionExpectation("C1", 0, True, margin=0.0),
        ConditionExpectation("C2", 0, False, margin=-2.0),
        FixedCircleExpectation(0, False),
        EnumerationExpectation((), exact=True),
    )


@_entry("EX_2_5", "Identity on the circle, exterior constant elsewhere")
def _():
    space = _real("real_usual", (-2.0, 2.0, 0.0, 5.0), -2, 5)
    circle = circle_of(space, 0.0, 2.0)
    tmap = build_circle_fixing_map(space, circle, anchor=5.0)
    return space, tmap, (circle,), (
        ConditionExpectation("C1", 0, True, margin=0.0),
        ConditionExpectation("C2", 0, True, margin=0.0),
        FixedCircleExpectation(0, True),
        ClassificationExpectation(0, "on", signed_gap=0.0),
        VerdictExpectation("T_EXIST_C1C2", 0, True, True),
        ConditionExpectation("ID_COND", 0, False, margin=-2.0,
                             derived_param=-1.0),
    )


@_entry("EX_2_6", "Constant map onto the center")
def _():
    space = _real("real_usual", (-2.0, 2.0, 0.0), -2, 2)
    circle = circle_of(space, 0.0, 2.0)
    return space, SelfMap.constant(space, 0.0), (circle,), (
        ConditionExpectation("C1", 0, True, margin=0.0),
        ConditionExpectation("C2", 0, False, margin=-2.0),
        FixedCircleExpectation(0, False),
        ConditionExpectation("ID_COND", 0, False, margin=0.0,
                             derived_param=1.0),
        VerdictExpectation("T_EXIST_C1C2", 0, False, False),
    )


@_entry("EX_2_7", "Constant map onto an exterior point")
def _():
    space = _real("real_usual", (-1.0, 1.0, 0.0, 3.0), -1, 3)
    circle = circle_of(space, 0.0, 1.0)
    return space, SelfMap.constant(space, 3.0), (circle,), (
        ConditionExpectation("C2", 0, True, margin=2.0),
        ConditionExpectation("C1", 0, False, margin=-6.0),
        ClassificationExpectation(0, "exterior", signed_gap=2.0),
        FixedCircleExpectation(0, False),
    )


@_entry("EX_2_8", "Complex reciprocal on the sampled unit circle")
def _():
    mentioned = (complex(-1, 0), complex(1, 0), complex(0, 0))
    space = MetricSpace.analytic("complex_usual",
                                 mentioned + circle_samples(0, 1))
    tmap = SelfMap.from_rule(space, ("reciprocal",))
    return space, tmap, (circle_of(space, complex(0, 0), 1.0),), (
        ConditionExpectation("C2", 0, True, margin=0.0),
        ConditionExpectation("C1", 0, False, margin=-2.0),
        FixedCircleExpectation(0, False),
        FixedMembersExpectation(0, (complex(-1, 0), complex(1, 0))),
    ), ("unit-circle membership is sample-resolved; the fixed members are "
        "exact because -1 and 1 sit in the sample set",)


@_entry("EX_2_11", "Identity on the circle, interior constant elsewhere")
def _():
    space = _real("real_usual", (-2.0, 2.0, 0.0, 1.0), -2, 2)
    circle = circle_of(space, 0.0, 2.0)
    tmap = build_circle_fixing_map(space, circle, anchor=1.0)
    return space, tmap, (circle,), (
        ConditionExpectation("C1_STAR", 0, True, margin=0.0),
        ConditionExpectation("C2_STAR", 0, True, margin=0.0),
        FixedCircleExpectation(0, True),
        VerdictExpectation("T_EXIST_STAR", 0, True, True),
    )


@_entry("EX_2_12", "Reciprocal on the unit circle, constant 5 elsewhere")
def _():
    space = _real("real_usual", (-1.0, 1.0, 5.0, 0.0, 3.0, 2.0), -1, 5)
    circles = (circle_of(space, 0.0, 1.0), circle_of(space, 3.0, 2.0),
               circle_of(space, 2.0, 3.0))
    tmap = SelfMap.piecewise(
        space, (Branch(("on_circle", 0.0, 1.0), ("reciprocal",)),),
        ("constant", 5.0))
    rows = []
    for i in range(3):
        rows += [ConditionExpectation("C1_STAR", i, True, margin=0.0),
                 ConditionExpectation("C2_STAR", i, True, margin=0.0),
                 FixedCircleExpectation(i, True),
                 VerdictExpectation("T_EXIST_STAR", i, True, True)]
    rows.append(EnumerationExpectation(((0.0, 1.0), (3.0, 2.0), (2.0, 3.0)),
                                       exact=True))
    return space, tmap, circles, tuple(rows), (
        "three distinct fixed circles; uniqueness is genuinely absent "
        "under the existence hypotheses alone",)


@_entry("EX_2_13", "Constant map onto an interior point")
def _():
    space = _real("real_usual", (-2.0, 2.0, 0.0, 1.0), -2, 2)
    circle = circle_of(space, 0.0, 2.0)
    return space, SelfMap.constant(space, 1.0), (circle,), (
        ConditionExpectation("C2_STAR", 0, True, margin=1.0),
        ConditionExpectation("C1_STAR", 0, False, margin=-4.0),
        ClassificationExpectation(0, "interior", signed_gap=-1.0),
        FixedCircleExpectation(0, False),
        VerdictExpectation("T_EXIST_STAR", 0, False, False),
    )


@_entry("EX_2_14", "Members pushed radially outward fivefold")
def _():
    space = _real("real_usual", (-1.0, 1.0, 0.0, -5.0, 5.0, 10.0), -5, 10)
    tmap = SelfMap.piecewise(
        space,
        (Branch(("at_points", (-1.0,)), ("constant", -5.0)),
         Branch(("at_points", (1.0,)), ("constant", 5.0))),
        ("constant", 10.0))
    return space, tmap, (circle_of(space, 0.0, 1.0),), (
        ConditionExpectation("C1_STAR", 0, True, margin=0.0),
        ConditionExpectation("C2_STAR", 0, False, margin=-4.0),
        FixedCircleExpectation(0, False),
    ), ("the default branch (everything else to 10) never enters the "
        "member-quantified verdicts on this circle",)


@_entry("EX_2_16", "Exponential-gap metric with a one-point unit circle")
def _():
    ln2 = math.log(2.0)
    space = _real("real_exp", (ln2, 0.0, 1.0), 0, 1)
    tmap = SelfMap.piecewise(
        space, (Branch(("on_circle", 0.0, 1.0), ("constant", ln2)),),
        ("constant", 1.0))
    return space, tmap, (circle_of(space, 0.0, 1.0),), (
        CircleMembersExpectation(0, (ln2,)),
        ConditionExpectation("C1_DSTAR", 0, True, margin=0.0),
        ConditionExpectation("C2_DSTAR", 0, True, margin=0.0,
                             derived_param=0.0),
        FixedCircleExpectation(0, True),
        VerdictExpectation("T_EXIST_DSTAR", 0, True, True),
    )


@_entry("EX_2_18",
        "Members collapsed to the center, the rest to a member value")
def _():
    space = _real("real_usual", (-2.0, 6.0, 2.0), -2, 6)
    tmap = SelfMap.piecewise(
        space, (Branch(("on_circle", 2.0, 4.0), ("constant", 2.0)),),
        ("constant", 6.0))
    return space, tmap, (circle_of(space, 2.0, 4.0),), (
        CircleMembersExpectation(0, (-2.0, 6.0)),
        ConditionExpectation("C1_DSTAR", 0, True, margin=0.0),
        ConditionExpectation("C2_DSTAR", 0, False, margin=0.0,
                             derived_param=1.0),
        FixedCircleExpectation(0, False),
        EnumerationExpectation((), exact=True),
    ), ("the weighted displacement condition fails exactly at the h -> 1 "
        "boundary: no admissible h below 1 exists",)


@_entry("EX_2_19",
        "Magnitude-sum metric where equal center and radius pin {0}")
def _():
    space = _real("real_abs_sum", (-1.0, 1.0, 0.5, 0.0, 2.0, 3.0), -1, 3)
    circles = (circle_of(space, 1.0, 2.0), circle_of(space, 1.0, 1.0),
               circle_of(space, 2.0, 2.0), circle_of(space, 3.0, 3.0))
    tmap = SelfMap.piecewise(
        space, (Branch(("at_points", (-1.0, 1.0)), ("constant", 0.5)),),
        ("constant", 0.0))
    return space, tmap, circles, (
        CircleMembersExpectation(0, (-1.0,)),
        ConditionExpectation("C1_STAR", 0, False, margin=-2.0),
        ConditionExpectation("C2_STAR", 0, True, margin=0.5),
        FixedCircleExpectation(0, False),
        CircleMembersExpectation(1, (0.0,)),
        ConditionExpectation("C1_STAR", 1, True, margin=0.0),
        ConditionExpectation("C2_STAR", 1, True, margin=0.0),
        FixedCircleExpectation(1, True),
        CircleMembersExpectation(2, (0.0,)),
        FixedCircleExpectation(2, True),
        CircleMembersExpectation(3, (0.0,)),
        FixedCircleExpectation(3, True),
        EnumerationExpectation(((1.0, 1.0), (2.0, 2.0), (3.0, 3.0))),
    ), ("every circle whose radius equals the center's magnitude resolves "
        "to the single point 0, which the map fixes",)


@_entry("EX_2_19B", "Constant map onto one member of the circle")
def _():
    space = _real("real_usual", (-2.0, 2.0, 0.0), -2, 2)
    circle = circle_of(space, 0.0, 2.0)
    return space, SelfMap.constant(space, 2.0), (circle,), (
        ConditionExpectation("C2_DSTAR", 0, True, margin=0.0,
                             derived_param=0.0),
        ConditionExpectation("C1_DSTAR", 0, False, margin=-4.0),
        FixedCircleExpectation(0, False),
        EnumerationExpectation((), exact=True),
        VerdictExpectation("T_EXIST_DSTAR", 0, False, False),
    )


@_entry("EX_3_4", "One map fixing three prescribed circles at once")
def _():
    space = _real("real_usual",
                  (-1.0, 1.0, 2.0, 6.0, 7.0, 13.0, 0.0, 4.0, 10.0, 20.0),
                  -1, 20)
    circles = (circle_of(space, 0.0, 1.0), circle_of(space, 4.0, 2.0),
               circle_of(space, 10.0, 3.0))
    tmap = build_multi_circle_map(space, circles, anchor=20.0)
    rows = []
    for i in range(3):
        rows += [ConditionExpectation("C1", i, True, margin=0.0),
                 ConditionExpectation("C2", i, True, margin=0.0),
                 FixedCircleExpectation(i, True),
                 VerdictExpectation("T_EXIST_C1C2", i, True, True)]
    rows.append(EnumerationExpectation(((0.0, 1.0), (4.0, 2.0), (10.0, 3.0))))
    return space, tmap, circles, tuple(rows)


@_entry("PROP_3_1", "Two prescribed fixed circles on a seven-point space")
def _():
    labels = ("x0", "x1", "a", "b", "c", "e", "alpha")
    near = {("x0", "a"), ("x0", "b"), ("x1", "c"), ("x1", "e")}
    n = len(labels)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            pair = (labels[i], labels[j])
            matrix[i][j] = matrix[j][i] = 2.0 if pair in near else 3.0
    space = MetricSpace.finite(labels, matrix)
    circles = (circle_of(space, "x0", 2.0), circle_of(space, "x1", 2.0))
    tmap = build_multi_circle_map(space, circles, anchor="alpha")
    return space, tmap, circles, (
        CircleMembersExpectation(0, ("a", "b")),
        CircleMembersExpectation(1, ("c", "e")),
        ConditionExpectation("C1", 0, True, margin=0.0),
        ConditionExpectation("C2", 0, True, margin=0.0),
        ConditionExpectation("C1", 1, True, margin=0.0),
        ConditionExpectation("C2", 1, True, margin=0.0),
        FixedCircleExpectation(0, True),
        FixedCircleExpectation(1, True),
        ConditionExpectation("C3", 0, False, margin=-1.0,
                             derived_param=1.5),
        VerdictExpectation("T_UNIQUE_C3", 0, False, False,
                           fixed_circle_count=2),
        EnumerationExpectation((("x0", 2.0), ("x1", 2.0)), exact=True),
    ), ("the two-circle construction cannot be a contraction: the "
        "uniqueness hypotheses fail while both circles stay fixed",)


def _natural_key(entry_id: str):
    return tuple(int(part) if part.isdigit() else part
                 for part in re.split(r"(\d+)", entry_id))


def list_entries() -> tuple[str, ...]:
    """Known entry ids in replay order."""
    return tuple(sorted(_REGISTRY, key=_natural_key))


def matching_entries(filter_substring: str | None) -> tuple[str, ...]:
    """The ids holding filter_substring, case-insensitively; all for None."""
    return tuple(e for e in list_entries() if filter_substring is None
                 or filter_substring.upper() in e.upper())


def load_entry(entry_id: str) -> GalleryEntry:
    """Build the named entry from scratch; deterministic per id."""
    try:
        title, builder = _REGISTRY[entry_id]
    except KeyError:
        raise DomainError(f"unknown gallery entry {entry_id!r}; "
                          f"known: {', '.join(list_entries())}") from None
    return GalleryEntry(entry_id, title, *builder())


# ---------------------------------------------------------------------------
# Replay


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= _VALUE_TOL


def _match_point_sets(space, got, want) -> bool:
    if len(got) != len(want):
        return False
    remaining = list(got)
    for w in want:
        for i, g in enumerate(remaining):
            if space.distance(g, w) <= _VALUE_TOL:
                del remaining[i]
                break
        else:
            return False
    return True


def _evaluate(entry: GalleryEntry, exp) -> tuple[bool, str]:
    space, tmap = entry.space, entry.tmap
    if isinstance(exp, ConditionExpectation):
        rep = check_condition(exp.condition_id, space, tmap,
                              circle=entry.circles[exp.circle_idx])
        ok = rep.holds == exp.holds
        if exp.margin is not None:
            ok = ok and _close(rep.margin, exp.margin)
        if exp.derived_param is not None:
            ok = ok and rep.derived_param is not None \
                and _close(rep.derived_param, exp.derived_param)
        return ok, (f"{exp.condition_id} holds={rep.holds} "
                    f"margin={rep.margin:.6g} derived={rep.derived_param}")
    if isinstance(exp, FixedCircleExpectation):
        rep = is_fixed_circle(tmap, entry.circles[exp.circle_idx])
        return rep.holds == exp.holds, f"fixed={rep.holds}"
    if isinstance(exp, CircleMembersExpectation):
        got = entry.circles[exp.circle_idx].members
        return (_match_point_sets(space, got, exp.members),
                f"members={list(got)!r}")
    if isinstance(exp, FixedMembersExpectation):
        rep = is_fixed_circle(tmap, entry.circles[exp.circle_idx])
        eps = resolve_eps(None)
        got = tuple(w.point for w in rep.witnesses if within(w.displacement, 0, eps))
        return (_match_point_sets(space, got, exp.members),
                f"fixed members={list(got)!r}")
    if isinstance(exp, EnumerationExpectation):
        found = enumerate_fixed_circles(space, tmap)
        got = tuple((c.center, c.radius) for c in found)
        ok = all(any(space.distance(gc, wc) <= _VALUE_TOL
                     and _close(gr, wr) for gc, gr in got)
                 for wc, wr in exp.pairs)
        if exp.exact:
            ok = ok and len(got) == len(exp.pairs)
        return ok, f"fixed circles={got!r}"
    if isinstance(exp, VerdictExpectation):
        verdict = verify_theorem(exp.theorem_id, space, tmap,
                                 entry.circles[exp.circle_idx])
        ok = (verdict.hypotheses_hold == exp.hypotheses_hold
              and verdict.conclusion_holds == exp.conclusion_holds
              and verdict.consistent)
        if exp.fixed_circle_count is not None:
            ok = ok and verdict.fixed_circles is not None \
                and len(verdict.fixed_circles) == exp.fixed_circle_count
        return ok, (f"{exp.theorem_id} hyp={verdict.hypotheses_hold} "
                    f"concl={verdict.conclusion_holds} "
                    f"consistent={verdict.consistent}")
    if isinstance(exp, ClassificationExpectation):
        rep = classify_images(tmap, entry.circles[exp.circle_idx])
        ok = all(c.region == exp.region for c in rep.classifications)
        if exp.signed_gap is not None:
            ok = ok and all(_close(c.signed_gap, exp.signed_gap)
                            for c in rep.classifications)
        regions = sorted({c.region for c in rep.classifications})
        return ok, f"regions={regions}"
    raise DomainError(f"unknown expectation record {exp!r}")


def replay_entry(entry: GalleryEntry) -> tuple[ExpectationResult, ...]:
    out = []
    for i, exp in enumerate(entry.expectations):
        try:
            passed, detail = _evaluate(entry, exp)
        except Exception as err:  # a crash is a failed expectation, not a crash of the replay
            passed, detail = False, f"error: {err}"
        out.append(ExpectationResult(entry_id=entry.entry_id, index=i,
                                     kind=type(exp).__name__,
                                     passed=bool(passed), detail=detail))
    return tuple(out)


def replay_all(filter_substring: str | None = None) -> GalleryReport:
    """Re-evaluate every expectation of every (matching) entry.

    The entries are matching_entries(filter_substring); an empty match
    set yields an empty, successful report.
    """
    return GalleryReport(results=tuple(
        r for entry_id in matching_entries(filter_substring)
        for r in replay_entry(load_entry(entry_id))))
