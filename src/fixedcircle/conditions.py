"""Pointwise and pairwise inequality conditions on (space, map, circle).

Each condition is defined once, as a rule in _RULES over the operands
of a batch of table maps. A rule yields the verdict of each tuple it
quantifies over (members, (member, off-circle) pairs, pairs of points,
or every point) and, on request, each tuple's slack and, for C2_DSTAR,
C3 and BANACH, its h or ratio. Existential parameters are eliminated
analytically, never grid-searched, and the verdicts are division-free,
so a zero denominator or a floating tie cannot flip one. The strict
inequalities of C3_DSTAR, RHOADES and ID_COND must clear the tolerance
(slack > eps); those of C2_DSTAR (radius - d(Tx, c) < d(x, Tx)) and of
the contraction in C3 and BANACH (d(Tx, Ty) < d(x, y)) need not.

condition_flags reduces a batch's verdicts with .all for the search,
circle_flags for the sweep's circles, which share what depends on the
maps alone. Its map rows may lie on several spaces of one size, each
row then reading its own space's distances and its own circle's weights
and members, the members padded per row. check_conditions, or a theorem
verdict, builds the operands of one map (_OneMap, a batch of one) from
what its ids read (registry.READS) and reads its ConditionReports off
the same rules' arrays: the margin is the slack at the first smallest
tuple, that tuple the witness, derived_param the extremal feasible h.
The images of the points come from the map's image table, made once
per space and tolerance; only members off the points are mapped anew.
Analytic carriers read a distance between two samples from
space.as_array, any other from space._metric_fn, the one definition of
the metric the matrix holds.

The weight function phi is canonical when it is the distance to the
circle's center; CARISTI alone also reads a user-supplied one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError, MalformedInputError
from .metric_core import Circle, MetricSpace, SelfMap, resolve_eps
from .registry import CONDITION_IDS, READS


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one condition check.

    margin is the minimum slack over all checked tuples (negative iff
    the defining inequality is violated somewhere); for the existential
    conditions it is the slack of the defining inequality at the open
    parameter bound. derived_param carries the extremal feasible h
    (maximal required h for C2_DSTAR and C3/BANACH ratios, minimal
    available h for ID_COND) where that notion applies. A vacuous
    verdict (nothing to check) is flagged, never silently true.
    """

    condition_id: str
    holds: bool
    margin: float
    witness: tuple | None
    derived_param: float | None
    checked_count: int
    resolution_caveat: bool
    vacuous: bool = False
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class PhiMap:
    """A nonnegative weight on carrier points."""

    name: str
    fn: Callable = field(compare=False)
    _center: tuple = field(default=(None, None), init=False, compare=False,
                           repr=False)

    def at(self, x) -> float:
        v = float(self.fn(x))
        if v < 0 or not math.isfinite(v):
            raise MalformedInputError(f"phi({x!r}) = {v} must be finite and >= 0")
        return v


def phi_canonical(space: MetricSpace, center) -> PhiMap:
    """The canonical weight x -> d(x, center)."""
    if not space.contains(center):
        raise DomainError(f"center {center!r} is not in the carrier")
    phi = PhiMap(name=f"dist_to({center!r})", fn=lambda x: space.distance(x, center))
    object.__setattr__(phi, "_center", (space, center))    # for _OneMap
    return phi


# ---------------------------------------------------------------------------
# The rules: each condition written once


def _pointwise(fn, points, nin):
    """fn over the points at nin index arrays, elementwise, as floats;
    only the values asked for are computed. A value past the float range
    is refused by value (as_array, PhiMap.at), so numpy's warning is off."""
    each, points = np.frompyfunc(fn, nin, 1), np.array(points, dtype=object)
    return np.errstate(over="ignore")(
        lambda *idx: each(*(points[i] for i in idx)).astype(float))


def _carrier_distances(space: MetricSpace, pts: list):
    """d(a, b) at index arrays into pts, the samples first: as_array's
    entry for two samples once built (or to refuse inf), else _metric_fn's."""
    n, fn = len(space.points()), _pointwise(space._metric_fn, pts, 2)

    def d(a, b):
        off = np.maximum(a, b) >= n
        out = None if "as_array" in vars(space) else fn(a, b)
        if out is None or not np.isfinite(out[~off]).all():
            out = space.as_array[np.where(off, 0, a), np.where(off, 0, b)]
            if off.any():
                out[off] = fn(np.where(off, a, 0)[off], np.where(off, b, 0)[off])
        return out
    return d


class _Maps:
    """The operands of an (m, N) batch of table maps that no circle
    enters, each gathered on first use, and the flags of the rules that
    read only them (_MAPS_ONLY): ``maps[k, i]`` is the image of point i
    under map k, and ``d(a, b)`` gives the distances at index arrays.
    Index arrays read off maps carry its axis first, and d broadcasts
    them with point indices; the carrier's pairs give x and y a leading
    1, which d widens to the map axis when rows lie on several spaces.
    The first ``n`` points (all, by default) are the carrier's, X.
    take(..., 1) keeps a gathered block C-ordered; a[:, idx] would not
    be, and every op on the (m, x, y) blocks would then stride badly.
    """

    def __init__(self, d, maps, eps, n=None):
        self.d, self.maps, self.eps = d, maps, eps
        self.X = np.arange(maps.shape[1] if n is None else n)
        self._pairs, self._flags = {}, {}

    @cached_property
    def disp(self):
        """d(x, Tx) over the carrier's points."""
        return self.d(self.X, self.maps[:, :len(self.X)])

    @cached_property
    def fixed(self):
        """Whether each point is fixed, and how many are, per map."""
        fixed = self.disp <= self.eps
        return fixed, fixed.sum(1)

    def pairs(self, key):
        """(x, y, Tx, Ty, d(x, y), d(Tx, Ty), pairs of the block outside
        the set or None) over pairs of the carrier (or, on _Operands,
        members x off-circle points: "across"). For a batch BANACH's
        "all" is the (m, n, n) block of every pair, those other than
        x < y skipped: one gather without index arrays. For one map, and
        for RHOADES, whose three gathers over the block would do twice
        the work, it is the list of x < y pairs."""
        if key not in self._pairs:
            skip = None
            if key == "all" and len(self.maps) > 1:
                x, y = self.X[:, None], self.X[None, :]
                skip = x >= y
            else:
                x, y = np.triu_indices(len(self.X), 1)
            tx, ty = self.maps.take(x, 1), self.maps.take(y, 1)
            self._pairs[key] = (x, y, tx, ty, self.d(x[None], y[None]),
                                self.d(tx, ty), skip)
        return self._pairs[key]


def _row_take(a, idx):
    """a[r, idx[r]] for each row r of a; a (1, K) idx is every row's."""
    return a.take(idx[0], 1) if len(idx) == 1 else np.take_along_axis(a, idx, 1)


class _Operands(_Maps):
    """One circle's weights ``phi(a)``, radius and members ``M`` over
    ``base``, whose operands and _MAPS_ONLY flags all circles share: M
    is (1, |M|) (one map's in circle order), or (m, K) with the mask
    ``skip`` of each row's padding, which member rules skip as BANACH
    does pairs outside x < y. phi and radius may be a row's circle's."""

    def __init__(self, base, phi, radius, M, skip=None):
        super().__init__(base.d, base.maps, base.eps, len(base.X))
        self.base, self.phi, self.radius = base, phi, radius
        self.M, self.skip = M, skip

    disp = property(lambda self: self.base.disp)
    fixed = property(lambda self: self.base.fixed)

    def pairs(self, key):
        if key != "across":
            return self.base.pairs(key)
        if key not in self._pairs:
            (E, off_skip), x = self.off, self.M[:, :, None]
            y, tx = E[None, :], _row_take(self.maps, self.M)
            tx, ty = tx[:, :, None], self.maps.take(y, 1)
            skip = None if off_skip is None else \
                self.skip[:, :, None] | off_skip[:, None, :]
            self._pairs[key] = (x, y, tx, ty, self.d(x, y), self.d(tx, ty),
                                skip)
        return self._pairs[key]

    def flag(self, name: str) -> np.ndarray:
        """Atom ``name`` as (m,) bools, computed on first lookup and cached
        by rule (C1 and C1_DSTAR share one), on base for _MAPS_ONLY. No
        operand may refer back to this method: the cycle would hold every
        array of the batch until the cyclic collector happens to run."""
        rule = _RULES[name]
        src = self.base if name in _MAPS_ONLY else self
        flags = src._flags.get(rule)
        if flags is None:
            flags = rule(src)
            if isinstance(flags, tuple):
                ok, skip, _, _ = flags
                if skip is not None:
                    ok |= skip
                flags = ok.all(tuple(range(1, ok.ndim)))
            src._flags[rule] = flags
        return flags

    @cached_property
    def members(self):
        """(d(x, Tx), phi(x), phi(Tx)) over the members."""
        tx = _row_take(self.maps, self.M)
        return self.d(self.M, tx), self.phi(self.M), self.phi(tx)

    @cached_property
    def points(self):
        """(d(x, Tx), phi(x), phi(Tx)) over the carrier's points."""
        tx = self.maps[:, :len(self.X)]
        return self.disp, self.phi(self.X), self.phi(tx)

    @cached_property
    def off(self):
        """The off-circle points E, |phi(y) - radius| > eps on some row,
        and where phi has rows the (m, |E|) mask of a row's others."""
        off = np.atleast_2d(np.abs(self.phi(self.X) - self.radius) > self.eps)
        E = np.flatnonzero(off.any(0))
        return E, ~off[:, E] if len(off) > 1 else None


# A rule maps a batch's operands to (per-tuple verdicts, map axis first;
# the block's tuples outside the condition's set, or None; the point
# index arrays naming each tuple; a function giving the per-tuple slack
# and h or ratio, or None). A fixed-count atom's rule gives (m,) bools;
# FIXED_CIRCLE and NO_FIXED_OFF_CIRCLE give verdicts and skip alone.


def _margin(over, slack_of):
    """slack >= -eps over the members or every point, the slack a
    function of the radius and (d(x, Tx), phi(x), phi(Tx))."""
    def rule(src):
        slack = slack_of(src.radius, *getattr(src, over))
        where, skip = (src.M, src.skip) if over == "members" else (src.X, None)
        return (slack >= -src.eps, skip, (where,), lambda: (slack, None))
    return rule


def _gain(radius, disp, phi, phiT):
    """d(x, Tx) <= phi(x) - phi(Tx): C1, and CARISTI over every point."""
    return (phi - phiT) - disp


def _c2_dstar(src):
    # Per member without division: a moved member needs radius - d(Tx, c)
    # strictly below d(x, Tx), an unmoved one d(Tx, c) >= radius - eps.
    # The slack is taken at h -> 1; h is the least that would work.
    radius, eps = src.radius, src.eps
    disp, _, phiT = src.members
    moved = disp > eps
    ok = np.where(moved, radius - phiT < disp, phiT - radius >= -eps)

    def detail():
        return (np.where(moved, (disp + phiT) - radius, phiT - radius),
                np.divide(radius - phiT, disp, out=np.zeros_like(disp),
                          where=moved))
    return (ok, src.skip, (src.M,), detail)


def _id_cond(src):
    # The triangle inequality caps phi(x) - phi(Tx) at d(x, Tx) + eps on a
    # metric valid within eps, so a moved point never leaves strict room
    # for h > 1: its gain must clear the tolerance. The slack is the h a
    # point leaves, +inf where it does not move.
    disp, phi, phiT = src.points
    gain = phi - phiT
    fixed = src.fixed[0]

    def detail():
        return (np.divide(gain, disp, out=np.full_like(disp, math.inf),
                          where=~fixed), None)
    return (fixed | (gain - disp > src.eps), None, (src.X,), detail)


def _contraction(key):
    """d(Tx, Ty) < d(x, y), or d(Tx, Ty) <= eps where d(x, y) <= eps: one
    comparison, the least float above eps standing in for "<= eps". The
    ratio is the attained h, over pairs apart."""
    def rule(src):
        x, y, _, _, dxy, dtt, skip = src.pairs(key)
        eps = src.eps
        bound = np.where(dxy > eps, dxy, math.nextafter(eps, math.inf))

        def detail():
            slack = dxy - dtt
            return slack, np.divide(dtt, dxy, out=np.zeros_like(slack),
                                    where=dxy > eps)
        return (dtt < bound, skip, (x, y), detail)
    return rule


def _strict_five(key):
    """d(Tx, Ty) below the largest of d(x, y), d(x, Tx), d(y, Ty), d(x, Ty)
    and d(y, Tx) by more than the tolerance."""
    def rule(src):
        x, y, tx, ty, dxy, dtt, skip = src.pairs(key)
        disp = src.disp
        dx = src.members[0][..., None] if key == "across" else disp.take(x, 1)
        five = np.maximum(dxy, dx)
        np.maximum(five, disp.take(y, 1), out=five)
        np.maximum(five, src.d(x, ty), out=five)
        np.maximum(five, src.d(y, tx), out=five)
        slack = five - dtt
        return (slack > src.eps, skip, (x, y), lambda: (slack, None))
    return rule


_C1 = _margin("members", _gain)

# Atom -> rule. C1 and C1_DSTAR are one rule; C3 and C3_DSTAR share the
# (m, |M|, |E|) block of members x off-circle points.
_RULES = {
    "C1": _C1,
    "C2": _margin("members", lambda radius, disp, phi, phiT: phiT - radius),
    "C1_STAR": _margin("members", lambda radius, disp, phi, phiT:
                       ((phi + phiT) - 2 * radius) - disp),
    "C2_STAR": _margin("members", lambda radius, disp, phi, phiT:
                       radius - phiT),
    "C1_DSTAR": _C1,
    "C2_DSTAR": _c2_dstar,
    "ID_COND": _id_cond,
    "C3": _contraction("across"),
    "C3_DSTAR": _strict_five("across"),
    "BANACH": _contraction("all"),
    "CARISTI": _margin("points", _gain),
    "RHOADES": _strict_five("upper"),
    "FIXED_CIRCLE": lambda src: (src.members[0] <= src.eps, src.skip,
                                 None, None),
    "NO_FIXED_OFF_CIRCLE": lambda src: (~src.fixed[0].take(src.off[0], 1),
                                        src.off[1], None, None),
    "IDENTITY": lambda src: src.fixed[1] == len(src.X),
    "ONE_FIXED_POINT": lambda src: src.fixed[1] == 1,
    "AT_MOST_ONE_FIXED_POINT": lambda src: src.fixed[1] <= 1,
    "SOME_FIXED_POINT": lambda src: src.fixed[1] >= 1,
}
_MAPS_ONLY = frozenset(a for a, reads in READS.items() if reads is None)


# ---------------------------------------------------------------------------
# Single-map reports: a batch of one over the rules

_MEMBER_IDS = ("C1", "C2", "C1_STAR", "C2_STAR", "C1_DSTAR", "C2_DSTAR")

# What an empty tuple set means (ID_COND and CARISTI are never vacuous).
_EMPTY_NOTES = {
    **dict.fromkeys(_MEMBER_IDS, "empty circle: holds vacuously"),
    **dict.fromkeys(("C3", "C3_DSTAR"), "no (member, off-circle) pair to check"),
    **dict.fromkeys(("BANACH", "RHOADES"), "fewer than two points"),
}


class _OneMap(_Operands):
    """The operands of one map over the carrier's points, then the images
    (its image table), members, members' images and weight center off
    them. An image or a center takes an equal sample's index, a member
    only that of the very sample it is, so a witness names the member
    itself. A canonical phi is read off the distances to its center."""

    def __init__(self, space, tmap, circle=None, phi=None, eps=None):
        eps = resolve_eps(eps)
        radius, members = None, ()
        if circle is not None:
            radius, members = circle.radius, circle.members
        row, extra = tmap._images(space, eps)
        pts, finite = [*space.points(), *extra], space.is_finite

        def at(p, member=False):
            i = space.index_of(p) if finite else space._index.get(p)
            if i is None or member and pts[i] is not p:
                pts.append(p)
                return len(pts) - 1
            return i
        M = [at(p, member=not finite) for p in members]
        tail = [at(tmap.apply(p, eps=eps)) for p in pts[len(row) + len(extra):]]
        # the image of an off-sample image is never read: its slot holds 0
        maps = np.hstack((row, [0] * len(extra), tail)).astype(np.intp)
        c = at(phi._center[1]) if phi and phi._center[0] is space else None
        d = (lambda a, b: space.as_array[a, b]) if finite \
            else _carrier_distances(space, pts)
        weight = phi and c is None and _pointwise(phi.at, pts, 1)
        if c is not None:   # d(x, c) at every point; phi.at refuses inf
            w = d(np.arange(len(pts)), c)
            if not np.isfinite(w).all():
                _pointwise(phi.at, pts, 1)(np.flatnonzero(~np.isfinite(w)))
            weight = w.__getitem__
        super().__init__(_Maps(d, maps[None], eps, len(space.points())),
                         weight, radius, np.array([M], dtype=np.intp))
        self.pts, self.finite = pts, finite
        self.sampled = circle is not None and circle.resolution == "sampled"


def _source(reads, space, tmap, circle, phi, eps) -> _OneMap:
    """One map's operands for rules that read ``reads`` (registry.READS),
    under the weight phi, by default the canonical weight at the circle's
    center where a rule reads one."""
    if phi is None and reads - {None}:
        phi = phi_canonical(space, circle.center)
    return _OneMap(space, tmap, circle if "circle" in reads else None, phi,
                   eps)


def _report(condition_id: str, src: _OneMap) -> ConditionReport:
    """One map's report on one condition, read off the rule's arrays:
    the margin is the slack of the first smallest tuple, which is the
    witness; for ID_COND, whose slack is the h a point leaves,
    derived_param is that h and the margin its excess over 1. The caveat
    is a sampled circle's, or for a non-member condition an analytic
    carrier's."""
    ok, _, where, detail = _RULES[condition_id](src)
    caveat = src.sampled if condition_id in _MEMBER_IDS else not src.finite
    # One map's pair sets are lists (skip is None): the tuples are the
    # block's entries in order.
    block = ok.shape
    slack, param = detail()
    ok, slack = ok[0].ravel(), slack[0].ravel()
    if slack.size == 0 and condition_id in _EMPTY_NOTES:
        return ConditionReport(condition_id, True, math.inf, None, None, 0,
                               caveat, True, (_EMPTY_NOTES[condition_id],))
    margin, witness = math.inf, None
    if slack.size:
        i = int(slack.argmin())
        margin = float(slack[i])
        if margin != math.inf:
            witness = tuple(src.pts[np.broadcast_to(w, block).flat[i]]
                            for w in where)
    derived = None
    if param is not None:
        derived = max(0.0, float(param.max(initial=0.0)))
    if condition_id == "ID_COND":
        derived = margin
        margin = margin - 1 if math.isfinite(margin) else math.inf
    notes = (("phi assumed lower semicontinuous",)
             if condition_id == "CARISTI" else ())
    return ConditionReport(condition_id, bool(ok.all()), margin, witness,
                           derived, int(slack.size), caveat, False, notes)


def check_conditions(condition_ids, space: MetricSpace, tmap: SelfMap,
                     circle: Circle | None = None, phi: PhiMap | None = None,
                     eps=None) -> list[ConditionReport]:
    """The reports on several condition ids (any case), in id order, read
    off one operand source. Every id is checked against registry.READS
    first: a circle-local id needs a circle; CARISTI reads phi, by default
    the canonical weight at the circle's center. No other id reads a
    given phi: beside one, CARISTI's report comes off a source of its own."""
    ids = []
    for given in condition_ids:
        cid = given.upper()
        if cid not in CONDITION_IDS:
            raise DomainError(f"unknown condition id {given!r}")
        lacks = circle is None and READS[cid]
        if lacks and not (lacks == "weight" and phi is not None):
            raise DomainError(f"{cid} needs " + {
                "circle": "a circle", "center": "a circle to fix the center",
                "weight": "a phi or a circle for the canonical one"}[lacks])
        ids.append(cid)
    if not ids:
        return []
    reads = {READS[cid] for cid in ids}
    if phi is not None and "weight" in reads:
        weighed = _source({"weight"}, space, tmap, circle, phi, eps)
        rest = reads - {"weight"}
        src = _source(rest, space, tmap, circle, None, eps) \
            if rest - {None} else weighed
    else:
        src = weighed = _source(reads, space, tmap, circle, None, eps)
    return [_report(cid, weighed if READS[cid] == "weight" else src)
            for cid in ids]


def check_condition(condition_id: str, space: MetricSpace, tmap: SelfMap,
                    circle: Circle | None = None, phi: PhiMap | None = None,
                    eps=None) -> ConditionReport:
    """check_conditions of one id."""
    return check_conditions([condition_id], space, tmap, circle, phi, eps)[0]


# One name per condition, each its id's check_condition, kept because the
# benchmark's tracer wraps them; tracing by id (ROADMAP item 2) frees them.


def check_c1(space: MetricSpace, tmap: SelfMap, circle: Circle,
             eps=None) -> ConditionReport:
    """d(x, Tx) <= phi(x) - phi(Tx) for members x, canonical phi."""
    return check_condition("C1", space, tmap, circle, eps=eps)


def check_c2(space: MetricSpace, tmap: SelfMap, circle: Circle, eps=None) -> ConditionReport:
    """d(Tx, center) >= radius for members x."""
    return check_condition("C2", space, tmap, circle, eps=eps)


def check_c1_star(space: MetricSpace, tmap: SelfMap, circle: Circle, eps=None) -> ConditionReport:
    """d(x, Tx) <= phi(x) + phi(Tx) - 2 radius for members x."""
    return check_condition("C1_STAR", space, tmap, circle, eps=eps)


def check_c2_star(space: MetricSpace, tmap: SelfMap, circle: Circle, eps=None) -> ConditionReport:
    """d(Tx, center) <= radius for members x."""
    return check_condition("C2_STAR", space, tmap, circle, eps=eps)


def check_c2_dstar(space: MetricSpace, tmap: SelfMap, circle: Circle, eps=None) -> ConditionReport:
    """h d(x, Tx) + d(Tx, center) >= radius for members x, some h in [0, 1);
    derived_param is the least h that works (0 when every member passes
    with room), margin the slack at h -> 1."""
    return check_condition("C2_DSTAR", space, tmap, circle, eps=eps)


def check_identity_condition(space: MetricSpace, tmap: SelfMap, center,
                             eps=None) -> ConditionReport:
    """d(x, Tx) <= (phi(x) - phi(Tx)) / h over ALL carrier points, some h > 1,
    which on a metric valid within eps holds exactly when the map moves
    nothing. derived_param is the best h, the least ratio over moved
    points (+inf for the identity map); margin is derived_param - 1."""
    return _report("ID_COND", _OneMap(space, tmap, None,
                                      phi_canonical(space, center), eps))


def check_c3(space: MetricSpace, tmap: SelfMap, circle: Circle, eps=None) -> ConditionReport:
    """d(Tx, Ty) <= h d(x, y), members x against off-circle y, some h in [0, 1),
    a pair at zero distance needing images at zero distance; derived_param
    is the ratio attained (max over pairs), margin the slack at h -> 1."""
    return check_condition("C3", space, tmap, circle, eps=eps)


def check_c3_dstar(space: MetricSpace, tmap: SelfMap, circle: Circle, eps=None) -> ConditionReport:
    """d(Tx, Ty) < max of the five point-image distances, members x
    against off-circle y; strict, so margin must clear the tolerance."""
    return check_condition("C3_DSTAR", space, tmap, circle, eps=eps)


def check_rhoades(space: MetricSpace, tmap: SelfMap, eps=None) -> ConditionReport:
    """The globally quantified strict five-term condition, all pairs x != y
    (Rhoades 1977, "A comparison of various definitions of contractive
    mappings", Trans. AMS 226)."""
    return check_condition("RHOADES", space, tmap, eps=eps)


def check_banach(space: MetricSpace, tmap: SelfMap, eps=None) -> ConditionReport:
    """d(Tx, Ty) <= h d(x, y) over all pairs, some h in [0, 1);
    derived_param is the attained Lipschitz ratio."""
    return check_condition("BANACH", space, tmap, eps=eps)


def check_caristi(space: MetricSpace, tmap: SelfMap, phi: PhiMap, eps=None) -> ConditionReport:
    """d(x, Tx) <= phi(x) - phi(Tx) over all carrier points, user phi
    (Caristi 1976, Trans. AMS 215); phi's lower semicontinuity, not
    checkable on finite data, is an assumption recorded in the notes."""
    return check_condition("CARISTI", space, tmap, phi=phi, eps=eps)


# ---------------------------------------------------------------------------
# Batch verdicts


def member_mask(space: MetricSpace, circle: Circle) -> np.ndarray:
    """The circle's members as an (n,) bool mask over space.points()."""
    mask = np.zeros(len(space.points()), dtype=bool)
    mask[[space.index_of(p) for p in circle.members]] = True
    return mask


# Largest block (maps x points x points) one condition_flags call builds;
# batch callers size their chunks by batch_rows, so memory stays flat as
# |X| grows.
_PAIR_BLOCK = 2 ** 18


def batch_rows(n: int) -> int:
    """Maps per condition_flags call at n points."""
    return max(1, _PAIR_BLOCK // max(1, n * n))


def condition_flags(D: np.ndarray, maps: np.ndarray, center_idx: int,
                    radius: float, eps: float, member: np.ndarray):
    """Lazy atom -> (m,) bool lookup over a batch of table maps.

    ``maps`` is an (m, n) array of image indices into the rows of the
    distance matrix ``D``. The atoms are every id in CONDITION_IDS, with
    CARISTI on the canonical weight, each the .all of its rule's
    verdicts, and the fixed-set atoms the theorem conclusions read:
    FIXED_CIRCLE (no member moved), NO_FIXED_OFF_CIRCLE (no off-circle
    point fixed), and IDENTITY, ONE_FIXED_POINT, AT_MOST_ONE_FIXED_POINT
    and SOME_FIXED_POINT (how many points are fixed). The members are the
    mask ``member`` (member_mask of the circle). Vacuous cases come out
    True. An atom is computed on first lookup.
    """
    return circle_flags(D[None], [0], maps, [[center_idx]], [[radius]], eps,
                        [[member]])[0]


def circle_flags(D, s, maps, centers, radii, eps, members) -> list:
    """condition_flags for each circle slot, over one _Maps. ``D`` is an
    (S, n, n) stack, row r of ``maps`` a map on D[s[r]] (every row on
    D[s[0]] if s has one entry), and slot j's circle on space t has
    center centers[j][t], radius radii[j][t] and member mask
    members[j][t]."""
    if len(s) == 1:     # one space, read as one matrix: no per-row copies
        t, D1 = s[0], D[s[0]]
        base = _Maps(lambda a, b: D1[a, b], maps, eps)
        return [_Operands(base, D1[:, c[t]].__getitem__, r[t],
                          np.flatnonzero(m[t])[None]).flag
                for c, r, m in zip(centers, radii, members)]

    def d(a, b):        # a row's space along its index arrays
        if a.shape[0] == b.shape[0] == 1:   # the carrier's pairs: per row,
            return D[:, a[0], b[0]].take(s, 0)  # a copy of its space's
        return D[s.reshape(-1, *[1] * (max(a.ndim, b.ndim) - 1)), a, b]
    base, looks, at = _Maps(d, maps, eps), [], (s * D.shape[1])[:, None]
    for c, r, m in zip(centers, radii, members):
        col = D[np.arange(len(D)), :, c].ravel()        # each space's d(x, c)
        count = m.sum(1)        # each space's members, padded to the most
        M = np.argsort(~m, 1, kind="stable")[:, :count.take(s).max()]
        looks.append(_Operands(
            base, lambda a, col=col: col.take(at + a), r.take(s)[:, None],
            M.take(s, 0), (np.arange(M.shape[1]) >= count[:, None])[s]).flag)
    return looks
