"""Pointwise and pairwise inequality conditions on (space, map, circle).

Every checker returns a ConditionReport with the same anatomy: a
boolean verdict, the worst slack seen (margin), the tuple achieving it,
and for the conditions quantified over an auxiliary parameter h, the
extremal feasible value of h (derived_param). Existential parameters
are eliminated analytically, never grid-searched: feasibility reduces
to comparing the extremal value against the open bound, and the
comparisons themselves are done division-free so a zero denominator or
a floating tie cannot flip a verdict.

Strict inequalities are required to clear the tolerance (margin > eps)
rather than merely not undershoot it; a floating-point tie must not
count as "strictly less".

The weight function phi is canonical when it is the distance to the
circle's center; the Caristi checker also accepts a user-supplied one.

condition_flags evaluates the same inequalities for a batch of table
maps at once, as boolean arrays, for callers that need only verdicts:
the counterexample search and, through verifier.theorem_flags, the
soundness sweep. It is the package's one batch layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, MalformedInputError
from .metric_core import Circle, MetricSpace, SelfMap, _resolve_eps

CONDITION_IDS = ("C1", "C2", "C1_STAR", "C2_STAR", "C1_DSTAR", "C2_DSTAR",
                 "ID_COND", "C3", "C3_DSTAR", "BANACH", "CARISTI", "RHOADES")


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

    def at(self, x) -> float:
        v = float(self.fn(x))
        if v < 0 or not math.isfinite(v):
            raise MalformedInputError(f"phi({x!r}) = {v} must be finite and >= 0")
        return v


def phi_canonical(space: MetricSpace, center) -> PhiMap:
    """The canonical weight x -> d(x, center)."""
    if not space.contains(center):
        raise DomainError(f"center {center!r} is not in the carrier")
    return PhiMap(name=f"dist_to({center!r})", fn=lambda x: space.distance(x, center))


def _vacuous(condition_id, caveat, note) -> ConditionReport:
    return ConditionReport(condition_id=condition_id, holds=True,
                           margin=math.inf, witness=None, derived_param=None,
                           checked_count=0, resolution_caveat=caveat,
                           vacuous=True, notes=(note,))


def _member_scan(condition_id, circle, slack_of, eps, notes=()):
    """Shared driver for the member-quantified margin conditions."""
    caveat = circle.resolution == "sampled"
    if not circle.members:
        return _vacuous(condition_id, caveat, "empty circle: holds vacuously")
    margin, witness = math.inf, None
    for x in circle.members:
        s = slack_of(x)
        if s < margin:
            margin, witness = s, (x,)
    return ConditionReport(condition_id=condition_id, holds=margin >= -eps,
                           margin=margin, witness=witness, derived_param=None,
                           checked_count=len(circle.members),
                           resolution_caveat=caveat, notes=tuple(notes))


def check_c1(space: MetricSpace, tmap: SelfMap, circle: Circle,
             eps=None, _cid="C1") -> ConditionReport:
    """d(x, Tx) <= phi(x) - phi(Tx) for members x, canonical phi."""
    eps = _resolve_eps(eps)
    phi = phi_canonical(space, circle.center)

    def slack(x):
        tx = tmap.apply(x, eps=eps)
        return phi.at(x) - phi.at(tx) - space.distance(x, tx)
    return _member_scan(_cid, circle, slack, eps)


def check_c1_dstar(space, tmap, circle, eps=None) -> ConditionReport:
    """Same inequality as C1; reported under its own id so theorem
    verdicts can cite the hypothesis they actually used."""
    return check_c1(space, tmap, circle, eps, _cid="C1_DSTAR")


def check_c2(space: MetricSpace, tmap: SelfMap, circle: Circle, eps=None) -> ConditionReport:
    """d(Tx, center) >= radius for members x."""
    eps = _resolve_eps(eps)

    def slack(x):
        tx = tmap.apply(x, eps=eps)
        return space.distance(tx, circle.center) - circle.radius
    return _member_scan("C2", circle, slack, eps)


def check_c1_star(space: MetricSpace, tmap: SelfMap, circle: Circle, eps=None) -> ConditionReport:
    """d(x, Tx) <= phi(x) + phi(Tx) - 2 radius for members x."""
    eps = _resolve_eps(eps)
    phi = phi_canonical(space, circle.center)

    def slack(x):
        tx = tmap.apply(x, eps=eps)
        return phi.at(x) + phi.at(tx) - 2 * circle.radius - space.distance(x, tx)
    return _member_scan("C1_STAR", circle, slack, eps)


def check_c2_star(space: MetricSpace, tmap: SelfMap, circle: Circle, eps=None) -> ConditionReport:
    """d(Tx, center) <= radius for members x."""
    eps = _resolve_eps(eps)

    def slack(x):
        tx = tmap.apply(x, eps=eps)
        return circle.radius - space.distance(tx, circle.center)
    return _member_scan("C2_STAR", circle, slack, eps)


def check_c2_dstar(space: MetricSpace, tmap: SelfMap, circle: Circle, eps=None) -> ConditionReport:
    """h d(x, Tx) + d(Tx, center) >= radius for members x, some h in [0, 1).

    Feasibility is decided per member without division: a moved member
    needs radius - d(Tx, center) strictly below d(x, Tx); an unmoved
    member needs d(Tx, center) >= radius - eps outright. derived_param
    is the smallest h that would work (0 when every member passes with
    room); margin is the slack of the defining inequality at h -> 1.
    """
    eps = _resolve_eps(eps)
    caveat = circle.resolution == "sampled"
    if not circle.members:
        return _vacuous("C2_DSTAR", caveat, "empty circle: holds vacuously")
    holds = True
    margin, witness = math.inf, None
    h_req = 0.0
    for x in circle.members:
        tx = tmap.apply(x, eps=eps)
        disp = space.distance(x, tx)
        dtc = space.distance(tx, circle.center)
        if disp <= eps:
            slack = dtc - circle.radius
            ok = slack >= -eps
        else:
            slack = disp + dtc - circle.radius
            ok = circle.radius - dtc < disp
            h_req = max(h_req, (circle.radius - dtc) / disp)
        holds = holds and ok
        if slack < margin:
            margin, witness = slack, (x,)
    return ConditionReport(condition_id="C2_DSTAR", holds=holds, margin=margin,
                           witness=witness, derived_param=max(0.0, h_req),
                           checked_count=len(circle.members),
                           resolution_caveat=caveat)


def check_identity_condition(space: MetricSpace, tmap: SelfMap, center,
                             eps=None) -> ConditionReport:
    """d(x, Tx) <= (phi(x) - phi(Tx)) / h over ALL carrier points, some h > 1.

    The triangle inequality caps phi(x) - phi(Tx) at d(x, Tx) + eps on
    any metric valid within eps, so a moved point can never leave
    strict room for h > 1; the condition holds exactly when the map
    moves nothing. A moved point is accepted only if its slack clears
    the tolerance, which on valid input is impossible. derived_param
    reports the best available h: the minimum ratio over moved points,
    +inf for the identity map; margin is derived_param - 1.
    """
    eps = _resolve_eps(eps)
    phi = phi_canonical(space, center)
    holds = True
    best_h, witness = math.inf, None
    for x in space.points():
        tx = tmap.apply(x, eps=eps)
        disp = space.distance(x, tx)
        if disp <= eps:
            continue
        gain = phi.at(x) - phi.at(tx)
        if not (gain - disp > eps):
            holds = False
        h = gain / disp
        if h < best_h:
            best_h, witness = h, (x,)
    return ConditionReport(condition_id="ID_COND", holds=holds,
                           margin=best_h - 1 if math.isfinite(best_h) else math.inf,
                           witness=witness,
                           derived_param=best_h,
                           checked_count=len(space.points()),
                           resolution_caveat=not space.is_finite)


def _circle_split(space, circle, eps):
    """Carrier/sample points off the circle (membership by distance)."""
    return tuple(y for y in space.points()
                 if abs(space.distance(y, circle.center) - circle.radius) > eps)


def check_c3(space: MetricSpace, tmap: SelfMap, circle: Circle, eps=None) -> ConditionReport:
    """d(Tx, Ty) <= h d(x, y), members x against off-circle y, some h in [0, 1).

    Feasibility per pair is the division-free strict test
    d(Tx, Ty) < d(x, y); a pair at zero distance must have images at
    zero distance. derived_param is the contraction ratio actually
    attained (max over pairs), margin the slack at h -> 1.
    """
    eps = _resolve_eps(eps)
    caveat = circle.resolution == "sampled" or not space.is_finite
    exterior = _circle_split(space, circle, eps)
    pairs = ((x, y) for x in circle.members for y in exterior)
    return _contraction_scan("C3", space, tmap, pairs, eps, caveat,
                             "no (member, off-circle) pair to check")


def _contraction_scan(condition_id, space, tmap, pairs, eps, caveat, empty_note):
    holds = True
    margin, witness = math.inf, None
    ratio = 0.0
    count = 0
    images = {}

    def image(p):
        if p not in images:
            images[p] = tmap.apply(p, eps=eps)
        return images[p]
    for x, y in pairs:
        dxy = space.distance(x, y)
        dtt = space.distance(image(x), image(y))
        count += 1
        if dxy <= eps:
            if dtt > eps:
                holds = False
        else:
            if not (dtt < dxy):
                holds = False
            ratio = max(ratio, dtt / dxy)
        slack = dxy - dtt
        if slack < margin:
            margin, witness = slack, (x, y)
    if count == 0:
        return _vacuous(condition_id, caveat, empty_note)
    return ConditionReport(condition_id=condition_id, holds=holds,
                           margin=margin, witness=witness, derived_param=ratio,
                           checked_count=count, resolution_caveat=caveat)


def _max5(space, tmap, x, y, eps):
    tx = tmap.apply(x, eps=eps)
    ty = tmap.apply(y, eps=eps)
    big = max(space.distance(x, y), space.distance(x, tx), space.distance(y, ty),
              space.distance(x, ty), space.distance(y, tx))
    return big - space.distance(tx, ty)


def _strict_pair_scan(condition_id, space, tmap, pairs, eps, caveat, empty_note):
    margin, witness = math.inf, None
    count = 0
    for x, y in pairs:
        count += 1
        slack = _max5(space, tmap, x, y, eps)
        if slack < margin:
            margin, witness = slack, (x, y)
    if count == 0:
        return _vacuous(condition_id, caveat, empty_note)
    return ConditionReport(condition_id=condition_id, holds=margin > eps,
                           margin=margin, witness=witness, derived_param=None,
                           checked_count=count, resolution_caveat=caveat)


def check_c3_dstar(space: MetricSpace, tmap: SelfMap, circle: Circle, eps=None) -> ConditionReport:
    """d(Tx, Ty) < max of the five point-image distances, members x
    against off-circle y; strict, so margin must clear the tolerance."""
    eps = _resolve_eps(eps)
    caveat = circle.resolution == "sampled" or not space.is_finite
    exterior = _circle_split(space, circle, eps)
    pairs = ((x, y) for x in circle.members for y in exterior)
    return _strict_pair_scan("C3_DSTAR", space, tmap, pairs, eps, caveat,
                             "no (member, off-circle) pair to check")


def check_rhoades(space: MetricSpace, tmap: SelfMap, eps=None) -> ConditionReport:
    """The globally quantified strict five-term condition, all pairs x != y
    (Rhoades 1977, "A comparison of various definitions of contractive
    mappings", Trans. AMS 226)."""
    eps = _resolve_eps(eps)
    pts = space.points()
    pairs = ((pts[i], pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts)))
    return _strict_pair_scan("RHOADES", space, tmap, pairs, eps,
                             not space.is_finite, "fewer than two points")


def check_banach(space: MetricSpace, tmap: SelfMap, eps=None) -> ConditionReport:
    """d(Tx, Ty) <= h d(x, y) over all pairs, some h in [0, 1).

    derived_param is the attained Lipschitz ratio; the verdict is the
    division-free strict comparison per pair.
    """
    eps = _resolve_eps(eps)
    pts = space.points()
    pairs = ((pts[i], pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts)))
    return _contraction_scan("BANACH", space, tmap, pairs, eps,
                             not space.is_finite, "fewer than two points")


def check_caristi(space: MetricSpace, tmap: SelfMap, phi: PhiMap, eps=None) -> ConditionReport:
    """d(x, Tx) <= phi(x) - phi(Tx) over all carrier points, user phi
    (Caristi 1976, Trans. AMS 215).

    Lower semicontinuity of phi is an assumption recorded in the notes;
    it is not checkable on finite data.
    """
    eps = _resolve_eps(eps)
    margin, witness = math.inf, None
    for x in space.points():
        tx = tmap.apply(x, eps=eps)
        s = phi.at(x) - phi.at(tx) - space.distance(x, tx)
        if s < margin:
            margin, witness = s, (x,)
    pts = space.points()
    return ConditionReport(condition_id="CARISTI", holds=margin >= -eps,
                           margin=margin, witness=witness, derived_param=None,
                           checked_count=len(pts),
                           resolution_caveat=not space.is_finite,
                           notes=("phi assumed lower semicontinuous",))


def check_condition(condition_id: str, space: MetricSpace, tmap: SelfMap,
                    circle: Circle | None = None, phi: PhiMap | None = None,
                    eps=None) -> ConditionReport:
    """Dispatch a check by id. Circle-local conditions require a circle;
    CARISTI defaults phi to the canonical weight at the circle's center."""
    cid = condition_id.upper()
    if cid not in CONDITION_IDS:
        raise DomainError(f"unknown condition id {condition_id!r}")
    circle_local = {
        "C1": check_c1, "C2": check_c2, "C1_STAR": check_c1_star,
        "C2_STAR": check_c2_star, "C1_DSTAR": check_c1_dstar,
        "C2_DSTAR": check_c2_dstar, "C3": check_c3, "C3_DSTAR": check_c3_dstar,
    }
    if cid in circle_local:
        if circle is None:
            raise DomainError(f"{cid} needs a circle")
        return circle_local[cid](space, tmap, circle, eps)
    if cid == "ID_COND":
        if circle is None:
            raise DomainError("ID_COND needs a circle to fix the center")
        return check_identity_condition(space, tmap, circle.center, eps)
    if cid == "BANACH":
        return check_banach(space, tmap, eps)
    if cid == "RHOADES":
        return check_rhoades(space, tmap, eps)
    if phi is None:
        if circle is None:
            raise DomainError("CARISTI needs a phi or a circle for the canonical one")
        phi = phi_canonical(space, circle.center)
    return check_caristi(space, tmap, phi, eps)


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
    CARISTI on the canonical weight, and the fixed-set atoms the theorem
    conclusions read: FIXED_CIRCLE (is_fixed_circle), NO_FIXED_OFF_CIRCLE
    (the verifier's _fixed_set_matches), and IDENTITY, ONE_FIXED_POINT
    and SOME_FIXED_POINT (on fixed_points). Each holds exactly where its
    scalar counterpart says it holds, on any finite matrix, valid metric
    or not, and reads the same operands: d(x, Tx) is D[x, Tx], phi(x) is
    D[x, c], the members are the mask ``member`` (member_mask of the
    circle), and the off-circle points are the column test
    |D[y, c] - r| > eps of _circle_split.
    Vacuous cases come out True. An atom is computed on first lookup.

    The pair atoms read three sets of pairs, each gathered once. C3 and
    C3_DSTAR share the (m, |M|, |E|) block of members x off-circle
    points. BANACH reads the (m, n, n) block of all points, with the
    pairs other than x < y skipped: one gather without index arrays.
    RHOADES reads the list of x < y pairs, because its three gathers
    over the full block would do twice the work.
    """
    n = maps.shape[1]
    disp = D[np.arange(n), maps]          # d(x, Tx)
    fixed = disp <= eps
    phi = D[:, center_idx]                # d(x, c)
    phiT = phi[maps]                      # d(Tx, c)
    M = np.flatnonzero(member)
    E = np.flatnonzero(np.abs(phi - radius) > eps)
    # take(..., 1) keeps a gathered block C-ordered; a[:, idx] would not
    # be, and every op on the (m, x, y) blocks would then stride badly.
    dispM, phiM, phiTM = disp.take(M, 1), phi[M], phiT.take(M, 1)
    shared = {}

    def pairs(key):
        """(x, y, Tx, Ty, d(x, y), d(Tx, Ty), skipped pairs) over one set
        of pairs, gathered on first use; x and y broadcast against Tx and
        Ty. "across" and "all" are (m, x, y) blocks, "upper" an (m, pair)
        list."""
        if key not in shared:
            if key == "across":
                x, y = M[:, None], E[None, :]
            elif key == "all":
                x, y = np.arange(n)[:, None], np.arange(n)[None, :]
            else:
                x, y = np.triu_indices(n, 1)
            tx, ty = maps.take(x, 1), maps.take(y, 1)
            skip = x >= y if key == "all" else None
            shared[key] = (x, y, tx, ty, D[x, y], D[tx, ty], skip)
        return shared[key]

    def fixed_count():
        if "fixed" not in shared:
            shared["fixed"] = fixed.sum(1)
        return shared["fixed"]

    def every_pair(ok, skip):
        if skip is not None:
            ok |= skip
        return ok.all(tuple(range(1, ok.ndim)))

    def contraction(key):
        *_, dxy, dtt, skip = pairs(key)
        # dtt < dxy where dxy > eps, else dtt <= eps: one comparison, with
        # the least float above eps standing in for "<= eps".
        bound = np.where(dxy > eps, dxy, math.nextafter(eps, math.inf))
        return every_pair(dtt < bound, skip)

    def strict_five(key):
        x, y, tx, ty, dxy, dtt, skip = pairs(key)
        five = np.maximum(disp.take(x, 1), disp.take(y, 1))
        np.maximum(five, D[x, ty], out=five)
        np.maximum(five, D[y, tx], out=five)
        np.maximum(five, dxy, out=five)
        return every_pair(five - dtt > eps, skip)

    def c1():
        return ((phiM - phiTM) - dispM >= -eps).all(1)

    atoms = {
        "C1": c1,
        "C2": lambda: (phiTM - radius >= -eps).all(1),
        "C1_STAR": lambda: (((phiM + phiTM) - 2 * radius) - dispM
                            >= -eps).all(1),
        "C2_STAR": lambda: (radius - phiTM >= -eps).all(1),
        "C1_DSTAR": c1,
        "C2_DSTAR": lambda: np.where(dispM <= eps, phiTM - radius >= -eps,
                                     radius - phiTM < dispM).all(1),
        "ID_COND": lambda: (fixed | ((phi - phiT) - disp > eps)).all(1),
        "C3": lambda: contraction("across"),
        "C3_DSTAR": lambda: strict_five("across"),
        "BANACH": lambda: contraction("all"),
        "CARISTI": lambda: ((phi - phiT) - disp >= -eps).all(1),
        "RHOADES": lambda: strict_five("upper"),
        "FIXED_CIRCLE": lambda: fixed.take(M, 1).all(1),
        "NO_FIXED_OFF_CIRCLE": lambda: ~fixed.take(E, 1).any(1),
        "IDENTITY": lambda: fixed_count() == n,
        "ONE_FIXED_POINT": lambda: fixed_count() == 1,
        "SOME_FIXED_POINT": lambda: fixed_count() >= 1,
    }
    # Keyed by rule, so C1 and C1_DSTAR share one array. Nothing here may
    # refer back to look: a reference cycle would hold every array of
    # the batch until the cyclic collector happens to run.
    cache = {}

    def look(name: str) -> np.ndarray:
        rule = atoms[name]
        if rule not in cache:
            cache[rule] = rule()
        return cache[rule]

    return look
