"""Theorem-level verdicts built from condition reports.

Each verify_* operation evaluates a theorem's hypotheses, then its
conclusion, and reports both along with the implication
``consistent = (not hypotheses_hold) or conclusion_holds``. On a valid
metric space consistent must be true for every map and circle; a false
value is a falsification event, the highest-severity outcome anywhere
in the package, and exists only to catch checker bugs.

The uniqueness verdicts assert what the uniqueness arguments actually
force: the circle is fixed and the map's fixed-point set is exactly the
circle's member set. Enumerating all fixed circles is reported
alongside for transparency, but other fixed circles whose members are a
subset of the fixed-point set (every one-point circle around a fixed
point, for instance) do not contradict the theorems and do not count
against consistency.

Each theorem is written once, in the registry EXISTENCE_VARIANTS /
UNIQUENESS_VARIANTS (hypothesis condition ids) or in its own verify_*
function; verify_theorem dispatches by theorem id. The soundness sweep
drives the same verdicts over seeded random spaces and bulk table maps
through theorem_flags, which ANDs the batch atoms of
conditions.condition_flags, and re-checks any hit through
verify_theorem before reporting it.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass

import numpy as np

from .conditions import (ConditionReport, PhiMap, batch_rows, check_banach,
                         check_caristi, check_condition,
                         check_identity_condition, condition_flags,
                         phi_canonical)
from .errors import DomainError, InvalidMetricError
from .generators import GenConfig, random_metric_space
from .metric_core import (Circle, MetricSpace, SelfMap, _resolve_eps,
                          circle_of, enumerate_circles, fixed_points,
                          is_fixed_circle, validate_metric)

THEOREM_IDS = ("T_EXIST_C1C2", "T_EXIST_STAR", "T_EXIST_DSTAR", "T_IDENTITY",
               "T_UNIQUE_C3", "T_UNIQUE_C3_STARVARIANT", "T_UNIQUE_C3_DSTAR",
               "T_BANACH", "T_CARISTI")

# The theorem registry: variant -> (theorem id, hypothesis condition ids).
# verify_existence/verify_uniqueness check these ids one by one and
# theorem_flags ANDs the same ids over a batch. T_IDENTITY, T_BANACH and
# T_CARISTI rest on the single condition ID_COND, BANACH and CARISTI.
EXISTENCE_VARIANTS = {
    "C1C2": ("T_EXIST_C1C2", ("C1", "C2")),
    "STAR": ("T_EXIST_STAR", ("C1_STAR", "C2_STAR")),
    "DSTAR": ("T_EXIST_DSTAR", ("C1_DSTAR", "C2_DSTAR")),
}

UNIQUENESS_VARIANTS = {
    "C3": ("T_UNIQUE_C3", ("C1", "C2", "C3")),
    "C3_ON_STAR": ("T_UNIQUE_C3_STARVARIANT", ("C1_STAR", "C2_STAR", "C3")),
    "C3_DSTAR": ("T_UNIQUE_C3_DSTAR", ("C1_DSTAR", "C2_DSTAR", "C3_DSTAR")),
}


@dataclass(frozen=True)
class TheoremVerdict:
    theorem_id: str
    hypothesis_reports: tuple[ConditionReport, ...]
    hypotheses_hold: bool
    conclusion_holds: bool
    consistent: bool
    caveats: tuple[str, ...] = ()
    fixed_circles: tuple[Circle, ...] | None = None


def _verdict(theorem_id, reports, hyp, concl, caveats=(), fixed_circles=None):
    return TheoremVerdict(theorem_id=theorem_id,
                          hypothesis_reports=tuple(reports),
                          hypotheses_hold=hyp, conclusion_holds=concl,
                          consistent=(not hyp) or concl,
                          caveats=tuple(caveats), fixed_circles=fixed_circles)


def _require_valid(space: MetricSpace, eps: float):
    report = validate_metric(space, eps)
    if not report.valid:
        raise InvalidMetricError(
            f"metric has {report.violation_count} axiom violation(s); "
            "first: " + repr(report.violations[0]), report=report)


def _circle_caveats(circle: Circle, empty_note: str) -> list[str]:
    """Caveats a circle puts on any report about it; ``empty_note`` says
    what an empty circle makes vacuous."""
    out = []
    if circle.resolution == "sampled":
        out.append("sampled-resolution verdict")
    if circle.empty:
        out.append("empty circle: " + empty_note)
    if circle.degenerate:
        out.append("degenerate circle (radius ~ 0)")
    return out


def verify_existence(space: MetricSpace, tmap: SelfMap, circle: Circle,
                     variant: str, eps=None) -> TheoremVerdict:
    """Hypotheses C1+C2 / C1*+C2* / C1**+C2**; conclusion: fixed circle."""
    eps = _resolve_eps(eps)
    try:
        theorem_id, hypotheses = EXISTENCE_VARIANTS[variant]
    except KeyError:
        raise DomainError(f"unknown existence variant {variant!r}") from None
    _require_valid(space, eps)
    reports = [check_condition(cid, space, tmap, circle=circle, eps=eps)
               for cid in hypotheses]
    fc = is_fixed_circle(tmap, circle, eps)
    return _verdict(theorem_id, reports, all(r.holds for r in reports),
                    fc.holds, _circle_caveats(circle, "conclusion is vacuous"))


def verify_identity_theorem(space: MetricSpace, tmap: SelfMap, circle: Circle,
                            eps=None) -> TheoremVerdict:
    """Hypothesis: the h>1 displacement bound over the whole carrier.
    Conclusion: the map is pointwise the identity and fixes the circle."""
    eps = _resolve_eps(eps)
    _require_valid(space, eps)
    report = check_identity_condition(space, tmap, circle.center, eps)
    fc = is_fixed_circle(tmap, circle, eps)
    pts = space.points()
    is_identity = len(fixed_points(tmap, eps)) == len(pts)
    return _verdict("T_IDENTITY", [report], report.holds,
                    is_identity and fc.holds,
                    _circle_caveats(circle, "conclusion is vacuous"))


def enumerate_fixed_circles(space: MetricSpace, tmap: SelfMap,
                            include_degenerate: bool = False,
                            eps=None) -> tuple[Circle, ...]:
    """Every realized circle whose members the map leaves fixed.

    Centers and radii come from enumerate_circles, so the result is
    deterministic: center order, then radius ascending. Degenerate
    (radius ~ 0) circles are included only on request; each is just a
    fixed point wearing a circle costume.
    """
    eps = _resolve_eps(eps)
    out = []
    for center, radius in enumerate_circles(space, eps):
        circle = circle_of(space, center, radius, eps)
        if circle.degenerate and not include_degenerate:
            continue
        if circle.empty:
            continue
        if is_fixed_circle(tmap, circle, eps).holds:
            out.append(circle)
    return tuple(out)


def _fixed_set_matches(space, tmap, circle, eps):
    """No carrier point off the circle is fixed (and members are fixed
    iff the fixed-circle test said so). Sample-window check on analytic
    carriers."""
    for x in fixed_points(tmap, eps):
        if abs(space.distance(x, circle.center) - circle.radius) > eps:
            return False
    return True


def verify_uniqueness(space: MetricSpace, tmap: SelfMap, circle: Circle,
                      variant: str, eps=None) -> TheoremVerdict:
    """Existence hypotheses plus a contraction; conclusion: the circle is
    fixed and the fixed-point set is exactly its member set.

    An empty circle cannot anchor the uniqueness argument (there is no
    member to play the fixed reference point), so its vacuously-true
    hypotheses are reported as not holding, with a caveat.
    """
    eps = _resolve_eps(eps)
    try:
        theorem_id, hypotheses = UNIQUENESS_VARIANTS[variant]
    except KeyError:
        raise DomainError(f"unknown uniqueness variant {variant!r}") from None
    _require_valid(space, eps)
    reports = [check_condition(cid, space, tmap, circle=circle, eps=eps)
               for cid in hypotheses]
    fc = is_fixed_circle(tmap, circle, eps)
    hyp = all(r.holds for r in reports)
    caveats = _circle_caveats(circle, "conclusion is vacuous")
    if circle.empty:
        hyp = False
        caveats.append("empty circle: hypotheses are vacuous, not asserted")
    concl = fc.holds and not fc.vacuous and _fixed_set_matches(space, tmap, circle, eps)
    found = enumerate_fixed_circles(space, tmap, include_degenerate=False, eps=eps)
    if len(found) > 1:
        caveats.append("other fixed circles exist inside the fixed-point set")
    if not space.is_finite:
        caveats.append("uniqueness checked over the sample window only")
    return _verdict(theorem_id, reports, hyp, concl, caveats, fixed_circles=found)


def verify_banach(space: MetricSpace, tmap: SelfMap, eps=None) -> TheoremVerdict:
    """Global contraction; conclusion: exactly one fixed point.

    Exact on finite carriers. On analytic carriers only the uniqueness
    half is refutable from samples (the fixed point itself may sit off
    the sample window), so the conclusion there is "at most one fixed
    sample", flagged.
    """
    eps = _resolve_eps(eps)
    _require_valid(space, eps)
    report = check_banach(space, tmap, eps)
    nfix = len(fixed_points(tmap, eps))
    if space.is_finite:
        return _verdict("T_BANACH", [report], report.holds, nfix == 1)
    return _verdict("T_BANACH", [report], report.holds, nfix <= 1,
                    ["sample window: existence of the fixed point not decidable"])


def verify_caristi(space: MetricSpace, tmap: SelfMap, phi: PhiMap,
                   eps=None) -> TheoremVerdict:
    """Caristi displacement bound; conclusion: a fixed point exists.

    Exact on finite carriers. On analytic carriers there is no finite
    refutation of existence, so the verdict reports whether a fixed
    sample was found and never counts its absence as a falsification.
    """
    eps = _resolve_eps(eps)
    _require_valid(space, eps)
    report = check_caristi(space, tmap, phi, eps)
    nfix = len(fixed_points(tmap, eps))
    if space.is_finite:
        return _verdict("T_CARISTI", [report], report.holds, nfix >= 1)
    caveats = ["sample window: absence of a fixed sample is not a refutation"]
    if nfix == 0:
        caveats.append("no fixed sample found")
    return _verdict("T_CARISTI", [report], report.holds, True, caveats)


def verify_theorem(theorem_id: str, space: MetricSpace, tmap: SelfMap,
                   circle: Circle | None = None, eps=None) -> TheoremVerdict:
    """The verdict of any theorem in THEOREM_IDS, by id.

    Every theorem but T_BANACH needs a circle; T_CARISTI takes the
    canonical weight at the circle's center.
    """
    if theorem_id not in THEOREM_IDS:
        raise DomainError(f"unknown theorem id {theorem_id!r}")
    if theorem_id == "T_BANACH":
        return verify_banach(space, tmap, eps)
    if circle is None:
        raise DomainError(f"{theorem_id} needs a circle")
    if theorem_id == "T_IDENTITY":
        return verify_identity_theorem(space, tmap, circle, eps)
    if theorem_id == "T_CARISTI":
        return verify_caristi(space, tmap, phi_canonical(space, circle.center),
                              eps)
    for table, verify in ((EXISTENCE_VARIANTS, verify_existence),
                          (UNIQUENESS_VARIANTS, verify_uniqueness)):
        for variant, (tid, _) in table.items():
            if tid == theorem_id:
                return verify(space, tmap, circle, variant, eps)


# ---------------------------------------------------------------------------
# Soundness sweep


@dataclass(frozen=True)
class Falsification:
    """A consistent=false event, the worst thing a sweep can find."""

    theorem_id: str
    space: MetricSpace
    images: tuple
    center: object
    radius: float
    verdict: TheoremVerdict


@dataclass(frozen=True)
class SweepReport:
    spaces_checked: int
    maps_checked: int
    verdicts_checked: int
    falsifications: tuple[Falsification, ...]
    # Kernel hits the per-instance verdict calls consistent: a fault of
    # the kernel, recorded in the same form.
    disagreements: tuple[Falsification, ...]
    elapsed_seconds: float

    @property
    def sound(self) -> bool:
        return not self.falsifications


def theorem_flags(D: np.ndarray, maps: np.ndarray, center_idx: int,
                  radius: float, eps: float) -> dict:
    """Hypothesis/conclusion booleans of every theorem for a batch of
    table maps.

    ``maps`` is an (m, n) array of image indices. Returns
    {theorem_id: (hypotheses_hold, conclusion_holds)} as boolean (m,)
    arrays, equal to the verify_* verdicts. The circle's members are
    read from the row d(c, x), as circle_of reads them; every hypothesis
    and conclusion is an atom of conditions.condition_flags, evaluated
    batch_rows maps at a time. An empty circle anchors no uniqueness
    argument, so there the uniqueness hypotheses and conclusions are
    false.
    """
    m, n = maps.shape
    member = np.abs(D[center_idx] - radius) <= eps
    nonempty = bool(member.any())
    rows = batch_rows(n)
    chunks = [_theorem_chunk(condition_flags(D, maps[start:start + rows],
                                             center_idx, radius, eps, member),
                             nonempty)
              for start in range(0, max(m, 1), rows)]
    if len(chunks) == 1:
        return chunks[0]
    return {tid: tuple(np.concatenate([c[tid][k] for c in chunks])
                       for k in (0, 1))
            for tid in THEOREM_IDS}


def _theorem_chunk(look, nonempty: bool) -> dict:
    """theorem_flags' result over one chunk, from its atom lookup."""
    def holds(ids):
        return functools.reduce(operator.and_, map(look, ids))
    fc = look("FIXED_CIRCLE")
    unique = fc & look("NO_FIXED_OFF_CIRCLE") & nonempty
    out = {tid: (holds(ids), fc) for tid, ids in EXISTENCE_VARIANTS.values()}
    out.update((tid, (holds(ids) & nonempty, unique))
               for tid, ids in UNIQUENESS_VARIANTS.values())
    out["T_IDENTITY"] = (look("ID_COND"), look("IDENTITY") & fc)
    out["T_BANACH"] = (look("BANACH"), look("ONE_FIXED_POINT"))
    out["T_CARISTI"] = (look("CARISTI"), look("SOME_FIXED_POINT"))
    return out


def _map_batch(n: int, maps_per_space: int, exhaustive_limit: int,
               rng: np.random.Generator) -> np.ndarray:
    if n <= exhaustive_limit and n ** n <= 10 ** 6:
        return np.array(list(itertools.product(range(n), repeat=n)), dtype=np.intp)
    return rng.integers(0, n, size=(maps_per_space, n), dtype=np.intp)


def _structured_maps(n: int, member: np.ndarray, anchor: int) -> np.ndarray:
    """Identity, all constants, and the circle-fixing map: the shapes the
    existence theorems actually fire on, which random maps almost never hit."""
    rows = np.empty((n + 2, n), dtype=np.intp)
    rows[0] = np.arange(n)
    rows[1:n + 1] = np.arange(n)[:, None]
    rows[n + 1] = np.where(member, np.arange(n), anchor)
    return rows


def soundness_sweep(space_count: int = 1000, sizes=tuple(range(2, 13)),
                    maps_per_space: int = 100, circles_per_space: int = 3,
                    exhaustive_limit: int = 4, seed: int = 20250817,
                    eps=None) -> SweepReport:
    """Check every theorem verdict for consistency over random instances.

    For each seeded space, table maps are either exhausted (small
    carriers) or sampled, a handful of structured maps is stirred in,
    and all nine theorems are evaluated against a selection of realized
    circles. Any consistent=false hit is re-verified through the
    per-instance path: a Falsification if that verdict is inconsistent
    too, a disagreement between the two paths otherwise.
    """
    eps = _resolve_eps(eps)
    t0 = time.perf_counter()
    events = {False: [], True: []}     # keyed by the re-check's consistent
    maps_checked = 0
    verdicts = 0
    for i in range(space_count):
        size = sizes[i % len(sizes)]
        space_seed = seed * 1_000_003 + i
        space = random_metric_space(GenConfig(seed=space_seed, size=size))
        D = space.as_array
        rng = np.random.default_rng(space_seed ^ 0x5EED)
        batch = _map_batch(size, maps_per_space, exhaustive_limit, rng)

        realized = enumerate_circles(space, eps)
        take = min(circles_per_space, len(realized))
        picks = rng.choice(len(realized), size=take, replace=False)
        for pick in sorted(picks):
            center, radius = realized[pick]
            ci = space.index_of(center)
            member = np.abs(D[ci] - radius) <= eps
            ext = np.flatnonzero(~member)
            anchor = int(ext[np.argmax(np.abs(D[ci, ext] - radius))]) if ext.size else ci
            maps = np.vstack([batch, _structured_maps(size, member, anchor)])
            flags = theorem_flags(D, maps, ci, radius, eps)
            maps_checked += maps.shape[0]
            for theorem_id, (hyp, concl) in flags.items():
                verdicts += maps.shape[0]
                bad, = (hyp & ~concl).nonzero()
                for b in bad:
                    tmap = SelfMap.from_indices(space, maps[b])
                    circle = circle_of(space, center, radius, eps)
                    verdict = verify_theorem(theorem_id, space, tmap, circle,
                                             eps)
                    events[verdict.consistent].append(Falsification(
                        theorem_id=theorem_id, space=space,
                        images=tuple(int(v) for v in maps[b]),
                        center=center, radius=radius, verdict=verdict))
    return SweepReport(spaces_checked=space_count, maps_checked=maps_checked,
                       verdicts_checked=verdicts,
                       falsifications=tuple(events[False]),
                       disagreements=tuple(events[True]),
                       elapsed_seconds=time.perf_counter() - t0)
