"""Theorem-level verdicts built from condition reports.

Each verdict evaluates a theorem's hypotheses, then its conclusion, and
reports both along with the implication
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

Each theorem is written once, in registry.THEOREMS: the condition
ids its hypotheses AND and the fixed-set atoms of
conditions.condition_flags its conclusion ANDs, with the uniqueness
rule for an empty circle and, in _SAMPLE_WINDOW, the relaxed conclusions
of analytic carriers beside it. verify_theorem reads one entry off the
operands of one map that its rules read: the hypothesis ConditionReports
and the conclusion atoms. The soundness sweep reads the same entries over
seeded random spaces and bulk table maps through theorem_flags, and
re-checks any hit through verify_theorem before reporting it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .conditions import (_MAPS_ONLY, ConditionReport, PhiMap, _report,
                         _source, batch_rows, circle_flags)
from .errors import DomainError, InvalidMetricError, MalformedInputError
from .metric_core import (Circle, MetricSpace, SelfMap, _center_rows, _radii,
                          circle_caveats, circle_of, enumerate_fixed_circles,
                          resolve_eps, validate_metric, within)
from .registry import THEOREM_IDS, THEOREM_READS, THEOREMS, check_request

_ATOMS = tuple(dict.fromkeys(a for *sides, _ in THEOREMS.values()
                             for side in sides for a in side))

# On an analytic carrier the map is seen on the sample window only, where
# two conclusions are not refutable as stated: T_BANACH's fixed point may
# sit off the window, so it means "at most one fixed sample"; T_CARISTI's
# existence has no finite refutation, so it always holds. Theorem id ->
# (relaxed conclusion atoms, caveat, note when the exact one fails).
_SAMPLE_WINDOW = {
    "T_BANACH": (("AT_MOST_ONE_FIXED_POINT",),
                 "sample window: existence of the fixed point not decidable",
                 None),
    "T_CARISTI": ((), "sample window: absence of a fixed sample is not a "
                      "refutation", "no fixed sample found"),
}

# variant -> (theorem id, hypothesis condition ids)
EXISTENCE_VARIANTS = {v: (tid, THEOREMS[tid][0]) for v, tid in (
    ("C1C2", "T_EXIST_C1C2"), ("STAR", "T_EXIST_STAR"),
    ("DSTAR", "T_EXIST_DSTAR"))}
UNIQUENESS_VARIANTS = {v: (tid, THEOREMS[tid][0]) for v, tid in (
    ("C3", "T_UNIQUE_C3"), ("C3_ON_STAR", "T_UNIQUE_C3_STARVARIANT"),
    ("C3_DSTAR", "T_UNIQUE_C3_DSTAR"))}


@dataclass(frozen=True)
class TheoremVerdict:
    theorem_id: str
    hypothesis_reports: tuple[ConditionReport, ...]
    hypotheses_hold: bool
    conclusion_holds: bool
    consistent: bool
    caveats: tuple[str, ...] = ()
    fixed_circles: tuple[Circle, ...] | None = None


def _require_valid(space: MetricSpace, eps: float):
    report = validate_metric(space, eps)
    if not report.valid:
        raise InvalidMetricError(
            f"metric has {report.violation_count} axiom violation(s); "
            "first: " + repr(report.violations[0]), report=report)


def verify_theorem(theorem_id: str, space: MetricSpace, tmap: SelfMap,
                   circle: Circle | None = None, eps=None,
                   phi: PhiMap | None = None) -> TheoremVerdict:
    """The verdict of any theorem in THEOREM_IDS, by id: its registry
    entry's hypothesis reports and conclusion atoms, read off one operand
    source of what its rules read (THEOREM_READS), once check_request
    passes it: all but T_BANACH need a circle; T_CARISTI reads only a
    phi, by default the canonical weight at the circle's center, so it
    carries no circle caveats, and no other theorem takes one."""
    if theorem_id not in THEOREM_IDS:
        raise DomainError(f"unknown theorem id {theorem_id!r}")
    reads = THEOREM_READS[theorem_id]
    check_request(theorem_id, reads, circle, phi)
    eps = resolve_eps(eps)
    _require_valid(space, eps)
    hypotheses, conclusion, unique = THEOREMS[theorem_id]
    src = _source(reads, space, tmap, circle, phi, eps)
    reports = tuple(_report(cid, src) for cid in hypotheses)
    hyp = all(r.holds for r in reports)
    concl = all(src.flag(atom)[0] for atom in conclusion)
    caveats = circle_caveats(circle, "conclusion is vacuous") \
        if "circle" in reads else []
    if not space.is_finite and theorem_id in _SAMPLE_WINDOW:
        relaxed, caveat, unmet = _SAMPLE_WINDOW[theorem_id]
        caveats += [caveat] if concl or not unmet else [caveat, unmet]
        concl = all(src.flag(atom)[0] for atom in relaxed)
    found = None
    if unique:
        if circle.empty:      # the uniqueness rule
            hyp = concl = False
            caveats.append("empty circle: hypotheses are vacuous, not asserted")
        found = enumerate_fixed_circles(space, tmap, eps=eps)
        if len(found) > 1:
            caveats.append("other fixed circles exist inside the fixed-point set")
        if not space.is_finite:
            caveats.append("uniqueness checked over the sample window only")
    return TheoremVerdict(theorem_id, reports, hyp, concl, (not hyp) or concl,
                          tuple(caveats), found)


# One name per verdict kind, each its verify_theorem call, kept with the
# variant tables because the benchmark pins them; tracing by id (ROADMAP
# item 2) frees them.


def _variant_theorem(table: dict, kind: str, variant: str) -> str:
    try:
        return table[variant][0]
    except KeyError:
        raise DomainError(f"unknown {kind} variant {variant!r}") from None


def verify_existence(space: MetricSpace, tmap: SelfMap, circle: Circle,
                     variant: str, eps=None) -> TheoremVerdict:
    """Hypotheses C1+C2 / C1*+C2* / C1**+C2**; conclusion: fixed circle."""
    return verify_theorem(_variant_theorem(EXISTENCE_VARIANTS, "existence",
                                           variant), space, tmap, circle, eps)


def verify_identity_theorem(space: MetricSpace, tmap: SelfMap, circle: Circle,
                            eps=None) -> TheoremVerdict:
    """Hypothesis: the h>1 displacement bound over the whole carrier.
    Conclusion: the map is pointwise the identity and fixes the circle."""
    return verify_theorem("T_IDENTITY", space, tmap, circle, eps)


def verify_uniqueness(space: MetricSpace, tmap: SelfMap, circle: Circle,
                      variant: str, eps=None) -> TheoremVerdict:
    """Existence hypotheses plus a contraction; conclusion: the circle is
    fixed and the fixed-point set is exactly its member set. On an empty
    circle, which cannot anchor the argument, both are false, with a
    caveat (the uniqueness rule of registry.THEOREMS)."""
    return verify_theorem(_variant_theorem(UNIQUENESS_VARIANTS, "uniqueness",
                                           variant), space, tmap, circle, eps)


def verify_banach(space: MetricSpace, tmap: SelfMap, eps=None) -> TheoremVerdict:
    """Global contraction; conclusion: exactly one fixed point, on an
    analytic carrier at most one fixed sample, flagged (_SAMPLE_WINDOW)."""
    return verify_theorem("T_BANACH", space, tmap, eps=eps)


def verify_caristi(space: MetricSpace, tmap: SelfMap, phi: PhiMap,
                   eps=None) -> TheoremVerdict:
    """Caristi displacement bound; conclusion: a fixed point exists. On an
    analytic carrier the absence of a fixed sample is noted, never counted
    as a falsification (_SAMPLE_WINDOW)."""
    return verify_theorem("T_CARISTI", space, tmap, eps=eps, phi=phi)


# ---------------------------------------------------------------------------
# Soundness sweep

# realized circles the sweep checks per space (fewer when fewer exist)
_CIRCLES_PER_SPACE = 3


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


def theorem_flags(D: np.ndarray, maps: np.ndarray, center_idx, radius,
                  eps: float, space=None) -> dict:
    """Each theorem's hypothesis and conclusion over a batch of maps.

    ``maps`` is an (m, n) array of image indices. Returns
    {theorem_id: (hypotheses_hold, conclusion_holds)} as boolean (m,)
    arrays, equal to the verify_* verdicts on a finite carrier; given
    equal-length sequences of k >= 1 centers and radii, as (k, m) arrays,
    row j the j-th circle's. Members are read from the distances d(x, c)
    (_center_rows), as circle_of reads them; each side is its registry
    entry reduced over the atoms of conditions.circle_flags, batch_rows
    maps at a time, under the uniqueness rule for an empty circle.

    With ``space``, D is an (S, n, n) stack, row r of maps a map on
    D[space[r]], and the centers and radii (k, S) arrays of each space's
    k circles: the sweep's one call per size group (see circle_flags).
    """
    centers, radii = np.atleast_1d(center_idx), np.atleast_1d(radius)
    m, rows = len(maps), batch_rows(maps.shape[1])
    if space is None:
        D, space = D[None], np.zeros(m, dtype=np.intp)
        centers, radii = centers[:, None], radii[:, None]
    member = within(_center_rows(D)[np.arange(len(D)), centers],
                    radii[..., None], eps)
    out = np.empty((len(centers), len(THEOREM_IDS), 2, m), dtype=bool)
    for start in range(0, m, rows):
        cut = slice(start, start + rows)
        s = space[cut]
        s = s[:1] if (s == s[0]).all() else s
        looks = circle_flags(D, s, maps[cut], centers, radii, eps, member)
        # each atom's (k, maps) bools; a _MAPS_ONLY one's (maps,) serve all
        atom = {a: looks[0](a) if a in _MAPS_ONLY else
                np.array([look(a) for look in looks]) for a in _ATOMS}
        nonempty = member.any(-1)[:, s]
        for t, (hyps, concl, unique) in enumerate(THEOREMS.values()):
            for h, side in enumerate((hyps, concl)):
                side = functools.reduce(np.logical_and, map(atom.get, side))
                out[:, t, h, cut] = side & nonempty if unique else side
    out = out[0] if np.ndim(center_idx) == 0 else out
    return {tid: (out[..., t, 0, :], out[..., t, 1, :])
            for t, tid in enumerate(THEOREM_IDS)}


def _map_batch(n: int, maps_per_space: int, exhaustive_limit: int,
               rngs) -> np.ndarray:
    """Each space's (m, n) table maps: on small carriers every map, made
    once and shared; else maps_per_space from the space's own stream."""
    if n <= exhaustive_limit and n ** n <= 10 ** 6:
        from .generators import _exhaustive_chunks
        table = next(_exhaustive_chunks(n, n ** n)).astype(np.intp, copy=False)
        return np.broadcast_to(table, (len(rngs),) + table.shape)
    return np.stack([rng.integers(0, n, size=(maps_per_space, n),
                                  dtype=np.intp) for rng in rngs])


def _structured_maps(D: np.ndarray, centers, radii, eps: float) -> np.ndarray:
    """Identity, all constants, and each circle's fixing map (members
    fixed, the rest sent to the point farthest off the circle): the shapes
    the existence theorems fire on, which random maps almost never hit.
    On a stack of spaces D is (S, n, n) and the centers and radii (S, k)."""
    n, cols = D.shape[-1], _center_rows(D)      # gaps of d(x, c)
    gap = np.abs(np.take_along_axis(cols, np.asarray(centers)[..., None], -2)
                 - np.asarray(radii)[..., None])
    fixing = np.where(within(gap, 0, eps), np.arange(n), gap.argmax(-1)[..., None])
    base = np.vstack([np.arange(n), np.arange(n)[:, None].repeat(n, 1)])
    return np.concatenate([np.broadcast_to(base, fixing.shape[:-2] + base.shape),
                           fixing], axis=-2)


def soundness_sweep(space_count: int = 1000, sizes=tuple(range(2, 13)),
                    maps_per_space: int = 100, exhaustive_limit: int = 4,
                    seed: int = 20250817, eps=None) -> SweepReport:
    """Check every theorem verdict for consistency over random instances.

    For each seeded space, table maps are either exhausted (small
    carriers) or sampled, a handful of structured maps is stirred in,
    and all nine theorems are evaluated against a selection of realized
    circles. The spaces of one size are drawn and read for their circles
    as one stack (generators._lattice, metric_core._radii) and share one
    theorem_flags pass over their stacked maps, batch_rows rows at a time.
    Any consistent=false hit is re-verified, in space order, through the
    per-instance path on its space, drawn again: a Falsification if that
    verdict is inconsistent too, a disagreement between the two paths
    otherwise. Negative counts are refused, and so is an eps at or above
    the drawn spaces' least distance (about 1.0004e-3), where they fail.
    """
    from .generators import (_LATTICE_BITS, _LATTICE_MIN, GenConfig, _lattice,
                             random_metric_space)
    eps = resolve_eps(eps)
    if min(space_count, maps_per_space) < 0 or not len(sizes):
        raise MalformedInputError(
            "space_count and maps_per_space must be >= 0 and sizes nonempty,"
            f" got {space_count}, {maps_per_space} and {sizes!r}")
    if eps >= (least := _LATTICE_MIN * 2.0 ** -_LATTICE_BITS):
        raise MalformedInputError(f"eps must be below {least!r}, the least "
                                  f"distance of a drawn space, got {eps!r}")
    for n in sizes:     # refuses a negative seed or a size below 1
        GenConfig(seed=seed, size=n)
    t0 = time.perf_counter()
    events, hits, maps_checked = {False: [], True: []}, [], 0
    for n in dict.fromkeys(sizes[:space_count]):
        number = [i for i in range(space_count) if sizes[i % len(sizes)] == n]
        space_seeds = [seed * 1_000_003 + i for i in number]
        D = _lattice(space_seeds, n)
        srt, keep = _radii(_center_rows(D), eps)
        rngs = [np.random.default_rng(s ^ 0x5EED) for s in space_seeds]
        batch = _map_batch(n, maps_per_space, exhaustive_limit, rngs)
        # below the eps bound every space of a size takes as many circles:
        # a one-point space realizes one, a larger one at least four
        k = min(_CIRCLES_PER_SPACE, int(keep.sum((1, 2)).min()))
        flat = np.array([realized[np.sort(rng.choice(
            len(realized), size=k, replace=False))]     # center-major
            for rng, realized in zip(rngs, map(np.flatnonzero, keep))])
        cis, radii = flat // n, np.take_along_axis(srt.reshape(len(D), -1),
                                                   flat, 1)
        maps = np.concatenate([batch, _structured_maps(D, cis, radii, eps)], 1)
        rows = maps.shape[1]    # per space: circle j reads the base
        maps_checked += len(D) * k * (rows - k + 1)     # rows and base + j
        flags = theorem_flags(D, maps.reshape(-1, n), cis.T, radii.T, eps,
                              np.repeat(np.arange(len(D)), rows))
        bad = np.stack([hyp & ~concl for hyp, concl in flags.values()], 1)
        for j, t, row in zip(*bad.nonzero()):
            g, b = divmod(row, rows)
            if b < rows - k or b == rows - k + j:   # not another's fixing map
                hits.append((number[g], j, t, b, cis[g, j], radii[g, j],
                             maps[g, b]))
    space_of = functools.cache(lambda i: random_metric_space(GenConfig(
        seed=seed * 1_000_003 + i, size=sizes[i % len(sizes)])))
    for i, _, t, _, ci, radius, images in sorted(
            hits, key=lambda hit: hit[:4]):      # in space order
        space = space_of(i)
        center = space.points()[ci]
        tmap = SelfMap.from_indices(space, images)
        circle = circle_of(space, center, radius, eps)
        verdict = verify_theorem(THEOREM_IDS[t], space, tmap, circle, eps)
        events[verdict.consistent].append(Falsification(
            theorem_id=THEOREM_IDS[t], space=space,
            images=tuple(int(v) for v in images),
            center=center, radius=float(radius), verdict=verdict))
    return SweepReport(spaces_checked=space_count, maps_checked=maps_checked,
                       verdicts_checked=maps_checked * len(THEOREM_IDS),
                       falsifications=tuple(events[False]),
                       disagreements=tuple(events[True]),
                       elapsed_seconds=time.perf_counter() - t0)
