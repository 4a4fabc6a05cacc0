"""Metric spaces, circles, and self-maps.

A space is its points, its kind and its matrix: finite (kind None,
point labels and a distance matrix) or analytic (one of four named
metrics, observed through a finite sample set: its points). The named
kinds are

    real_usual     d(x, y) = |x - y|            on the reals
    real_exp       d(x, y) = |e^x - e^y|        on the reals
    real_abs_sum   d(x, y) = 0 if x == y else |x| + |y|
    complex_usual  d(z, w) = |z - w|            on the complex plane

A circle of center c and radius r is the set of carrier points x with
d(x, c) = r (the paper's C_{x0,r}; on a finite carrier, column c of the
matrix). Circles resolve to explicit member tuples: by matrix scan on
finite carriers, by closed-form solving on the real analytic kinds
(resolution "exact"), and by intersecting the sample set on the complex
plane (resolution "sampled").

All types are immutable; every operation is a pure function of its
inputs plus the tolerance eps, absolute, 1e-9 unless FIXEDCIRCLE_EPSILON
or the call sets it. One rule, within, decides circle membership, fixed
points and degenerate radii: d(x, c) = r, d(x, Tx) = 0 and r = 0 each
hold when |a - b| <= eps. Axiom checks read the same eps.

numpy is imported by each function that builds or reads an array, not
with this module: a space is built, and a malformed space or map
refused, without it.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import DomainError, MalformedInputError

if TYPE_CHECKING:
    import numpy as np

DEFAULT_EPSILON = 1e-9
DEFAULT_CIRCLE_SAMPLES = 360

ANALYTIC_KINDS = ("real_usual", "real_exp", "real_abs_sum", "complex_usual")

# Cap on the number of detailed violation records kept per report; the
# total count is tracked separately so validity is never misjudged.
_VIOLATION_CAP = 256


def within(a, b, eps):
    """a = b at the tolerance, |a - b| <= eps: on floats or arrays."""
    return abs(a - b) <= eps


def resolve_eps(eps) -> float:
    """The tolerance: ``eps``, or when it is None FIXEDCIRCLE_EPSILON, or
    when that is unset or empty DEFAULT_EPSILON; finite and >= 0 in every
    case."""
    if eps is None:
        eps = os.environ.get("FIXEDCIRCLE_EPSILON") or DEFAULT_EPSILON
    try:
        value = float(eps)
    except (TypeError, ValueError):
        value = math.nan
    if not (value >= 0 and math.isfinite(value)):
        raise MalformedInputError(
            f"tolerance must be finite and >= 0, got {eps!r}")
    return value


@dataclass(frozen=True)
class MetricSpace:
    """A metric space: its points ``pts`` (a finite carrier's labels, or
    the samples scans range over on an analytic one, whose off-sample
    points remain legal arguments everywhere), its ``kind`` (None when
    finite) and its distance table ``matrix`` (None when analytic). Build
    one with ``finite`` or ``analytic``, which normalize and check input.
    """

    pts: tuple
    kind: str | None = None
    matrix: tuple[tuple[float, ...], ...] | None = None

    @classmethod
    def finite(cls, labels: Iterable[str], matrix) -> "MetricSpace":
        labels = tuple(str(l) for l in labels)
        rows = [tuple(float(v) for v in row) for row in matrix]
        n = len(rows)
        if n != len(labels):
            raise MalformedInputError(
                f"{len(labels)} labels but {n} matrix rows")
        if not n:
            raise MalformedInputError("finite carrier needs at least one point")
        if any(len(row) != n for row in rows):
            raise MalformedInputError("distance matrix is not square")
        for v in itertools.chain(*rows):
            if not 0 <= v < math.inf:
                raise MalformedInputError(
                    f"distance entries must be finite and >= 0, got {v}")
        if len(set(labels)) != n:
            raise MalformedInputError("duplicate point labels")
        return cls(labels, matrix=tuple(rows))

    @classmethod
    def analytic(cls, kind: str, samples: Iterable, eps=None) -> "MetricSpace":
        if kind not in ANALYTIC_KINDS:
            raise MalformedInputError(f"unknown analytic kind {kind!r}")
        eps, samples, carrier = resolve_eps(eps), tuple(samples), cls((), kind)
        if not samples:
            raise MalformedInputError("analytic carrier needs a nonempty sample set")
        odd = [s for s in samples if not carrier.contains(s)]
        if odd:     # contains' rule: no coercion of a string or a bool
            raise MalformedInputError(
                f"analytic samples must be finite numbers, got {odd[0]!r}")
        pts = list(map(complex if kind == "complex_usual" else float, samples))
        fn = _METRICS[kind][0]
        # Drop samples that are metrically indistinguishable from an
        # earlier one; keeping both would break identity of
        # indiscernibles at the declared tolerance.
        kept: list = []
        for p in pts:
            if all(fn(p, q) > eps for q in kept):
                kept.append(p)
        return cls(tuple(kept), kind)

    @property
    def is_finite(self) -> bool:
        return self.kind is None

    def points(self) -> tuple:
        """Carrier labels, or the sample set for analytic carriers."""
        return self.pts

    @cached_property
    def _index(self) -> dict:
        return {p: i for i, p in enumerate(self.points())}

    def index_of(self, point) -> int:
        try:
            return self._index[point]
        except (KeyError, TypeError):
            raise DomainError(f"point {point!r} is not a carrier point") from None

    @cached_property
    def as_array(self) -> np.ndarray:
        """Distance matrix over points() as a float array (any carrier):
        on an analytic one, distances' read of every ordered pair of
        samples, which refuses a distance past the float range."""
        import numpy as np
        if self.is_finite:
            return np.asarray(self.matrix, dtype=float)
        return self.distances(self.pts)(*np.ogrid[:len(self.pts), :len(self.pts)])

    @cached_property
    def _coordinates(self) -> np.ndarray:
        """Each sample's coordinate, read by its kind's array form."""
        import numpy as np
        return np.array([*map(_METRICS[self.kind][1], self.pts)])

    def distances(self, pts):
        """d(a, b) at index arrays into pts, the points first: as_array's
        entries, or on an analytic carrier the kind's array form at the
        points' coordinates, bit for bit the scalar metric, which rereads
        a pair the form leaves non-finite, in read order, to refuse an
        overflow with its message (on the samples, the sample set's)."""
        import numpy as np
        if self.is_finite:
            return lambda a, b, D=self.as_array: D[a, b]
        (fn, coordinate, form), n = _METRICS[self.kind], len(self.pts)
        # an int no float holds gets nan, so the scalar metric reads it
        v = np.concatenate((self._coordinates, [
            coordinate(p) if type(p) is not int or float(p) == p else math.nan
            for p in pts[n:]]))

        def d(a, b):
            with np.errstate(over="ignore", invalid="ignore"):
                out = form(np, v[a], v[b])
            if not np.isfinite(out).all():
                bad, (a, b) = ~np.isfinite(out), np.broadcast_arrays(a, b)
                for i in np.flatnonzero(bad).tolist():
                    r = fn(pts[a.flat[i]], pts[b.flat[i]])
                    out.flat[i] = math.inf if r >= 2 ** 1024 else r  # as floats
                if not np.isfinite(out[bad & (a < n) & (b < n)]).all():
                    raise MalformedInputError(
                        f"the {self.kind} metric overflows on the sample set")
            return out
        return d

    @cached_property
    def _validations(self) -> dict:
        """validate_metric's reports, keyed by the resolved tolerance."""
        return {}

    def contains(self, point) -> bool:
        """Membership in the carrier (not the sample set); an analytic
        carrier holds finite numbers only."""
        if self.is_finite:
            return point in self._index
        numbers = (int, float, complex) if self.kind == "complex_usual" else (int, float)
        try:    # an int past the float range is not a finite number here
            return (isinstance(point, numbers) and not isinstance(point, bool)
                    and cmath.isfinite(point))
        except OverflowError:
            return False

    def distance(self, x, y) -> float:
        if self.is_finite:
            return self.as_array[self.index_of(x), self.index_of(y)]
        return _METRICS[self.kind][0](x, y)


def _d_real_exp(x, y):
    try:
        return abs(math.exp(x) - math.exp(y))
    except OverflowError:
        raise MalformedInputError(
            f"exp metric overflows at x={x!r}, y={y!r}") from None


def _d_usual(x, y):
    """|x - y| on the reals or the complex plane, where it may overflow."""
    try:
        return abs(x - y)
    except OverflowError:
        raise MalformedInputError(
            f"metric overflows at x={x!r}, y={y!r}") from None


# Each named metric written twice: kind -> (the scalar metric; a point's
# coordinate, inf where exp may overflow; the metric on arrays of them,
# numpy passed in), equal bit for bit as the tests pin: on the plane both
# are hypot, as Python's complex abs is and numpy's is not.
_METRICS = {
    "real_usual": (_d_usual, float, lambda np, x, y: abs(x - y)),
    "real_exp": (_d_real_exp, lambda x: math.exp(x) if x < 709 else math.inf,
                 lambda np, x, y: abs(x - y)),
    "real_abs_sum": (lambda x, y: 0.0 if x == y else abs(x) + abs(y), float,
                     lambda np, x, y: np.where(x == y, 0.0, abs(x) + abs(y))),
    "complex_usual": (_d_usual, complex, lambda np, z, w: np.hypot(
        z.real - w.real, z.imag - w.imag)),
}


@dataclass(frozen=True)
class Violation:
    """One metric-axiom failure.

    ``axiom`` is one of "identity", "symmetry", "triangle". The witness
    is the offending point tuple, a pair once: for "identity" the order
    whose distance, the magnitude, is within eps of 0; for "triangle" it
    reads (x, y, z) with magnitude d(x,z) - d(x,y) - d(y,z).
    """

    axiom: str
    witness: tuple
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]
    violation_count: int
    point_count: int


def validate_metric(space: MetricSpace, eps=None) -> ValidationReport:
    """Check the three metric axioms over the carrier/sample points.

    Returns an empty violation list iff zero-self-distance, identity of
    indiscernibles, symmetry, and the triangle inequality all hold
    within the tolerance; MetricSpace.finite has already refused a
    non-square, negative or non-finite matrix. Each pair of points is
    read once, by within (see Violation). A space is checked once per
    tolerance; later calls return the same report.
    """
    eps = resolve_eps(eps)
    if eps not in space._validations:
        space._validations[eps] = _validate(space, eps)
    return space._validations[eps]


def _validate(space: MetricSpace, eps: float) -> ValidationReport:
    import numpy as np
    D, pts = space.as_array, space.points()
    found: list[Violation] = []

    def note(axiom, hits, magnitude, witness) -> int:
        # records the mask's first hits, in index order, up to the cap
        at = np.argwhere(hits)
        found.extend(Violation(axiom, witness(*i), float(magnitude[tuple(i)]))
                     for i in at[:_VIOLATION_CAP - len(found)].tolist())
        return len(at)

    diag = np.diag(D)
    count = note("identity", ~within(diag, 0, eps), diag, lambda i: (pts[i],))
    zero = within(D, 0, eps)    # a pair's witness is the order within eps of 0
    count += note("identity", np.triu(zero | zero.T, 1), np.where(zero, D, D.T),
                  lambda i, j: (pts[i], pts[j]) if zero[i, j] else (pts[j], pts[i]))
    count += note("symmetry", np.triu(~within(D, D.T, eps), 1), abs(D - D.T),
                  lambda i, j: (pts[i], pts[j]))
    # Triangle, by middle point j: memory O(n^2). At i = j or k = j the
    # excess is -d(j, j) <= 0; a sum past the float range is inf.
    for j in range(len(pts)):
        with np.errstate(over="ignore"):
            excess = D - (D[:, j:j + 1] + D[j:j + 1, :])
        bad = excess > eps
        np.fill_diagonal(bad, False)
        count += note("triangle", bad, excess, lambda i, k: (pts[i], pts[j], pts[k]))
    return ValidationReport(valid=count == 0, violations=tuple(found),
                            violation_count=count, point_count=len(pts))


@dataclass(frozen=True)
class Circle:
    """The carrier points x with d(x, ``center``) = ``radius``.

    ``members`` is the resolved point tuple in deterministic order.
    ``resolution`` is "exact" (finite scan or closed-form solve) or
    "sampled" (intersection with the sample set; verdicts built on it
    carry a caveat). Degenerate circles (radius within tolerance of 0)
    and empty circles are legal and flagged, never errors.
    """

    center: object
    radius: float
    members: tuple
    resolution: str
    degenerate: bool
    empty: bool


def circle_caveats(circle: Circle, empty_note: str) -> list[str]:
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


def circle_of(space: MetricSpace, center, radius, eps=None) -> Circle:
    """Resolve the circle with the given center and radius.

    The center must lie in the carrier (for analytic kinds that is the
    whole line/plane, not just the samples). The radius must be a
    finite nonnegative real, and on the real kinds the circle's members
    must be finite reals too.
    """
    eps = resolve_eps(eps)
    radius = float(radius)
    if radius < 0 or not math.isfinite(radius):
        raise MalformedInputError(f"radius must be finite and >= 0, got {radius}")
    if not space.contains(center):
        raise DomainError(f"center {center!r} is not in the carrier")
    if space.kind == "complex_usual":
        center = complex(center)
    elif not space.is_finite:
        center = float(center)
    return _mk_circle(space, center, radius,
                      _member_rows(space, center, [radius], eps)[0], eps)


def _on_points(space: MetricSpace) -> bool:
    """Whether circles are sets of carrier points (finite and complex
    carriers) rather than closed-form points (the real kinds)."""
    return space.is_finite or space.kind == "complex_usual"


def _center_rows(D: np.ndarray) -> np.ndarray:
    """Row c of D, or of each matrix of a stack: d(x, c), D's column c."""
    return D.swapaxes(-1, -2)


def _member_rows(space: MetricSpace, center, radii, eps: float, row=None):
    """The members of the circles about one center, one row per radius.

    On finite and complex carriers the rows are one (k, n) boolean array
    over points(): the window within(d(x, center), r, eps), taken over the
    center's whole row at once. ``row`` is by default the center's row of
    _center_rows(as_array), or on the complex plane, where a center may lie
    off the samples, the metric at each sample. On the real kinds each row
    is the member tuple of the closed form. ``center`` is a carrier point,
    of the carrier's number type on analytic carriers.
    """
    if not _on_points(space):
        return [_real_members(space.kind, center, r, eps) for r in radii]
    import numpy as np
    if row is None:
        n = len(space.pts)
        row = (space.distances((*space.pts, center))(np.arange(n), n)
               if space.kind == "complex_usual"
               else _center_rows(space.as_array)[space.index_of(center)])
    return within(row, np.asarray(radii, dtype=float)[:, None], eps)


def _real_members(kind: str, center: float, radius: float, eps: float) -> tuple:
    """Solve d(y, center) = radius in closed form on a real kind; a circle
    with a member past the float range is refused."""
    if within(radius, 0, eps):
        return (center,)
    try:
        if kind == "real_usual":
            members = (center - radius, center + radius)
        elif kind == "real_exp":
            ec = math.exp(center)
            members = (math.log(ec + radius),)
            if ec - radius > 0:
                members = (math.log(ec - radius),) + members
        else:  # real_abs_sum: solve |center| + |y| = radius with y != center
            t = radius - abs(center)
            if t < -eps:
                members = ()
            elif within(t, 0, eps):
                members = (0.0,)
            else:
                members = (-t, t)
            members = tuple(y for y in members if y != center)
        finite = all(map(math.isfinite, members))
    except OverflowError:
        finite = False
    if not finite:
        raise MalformedInputError(
            f"the circle about {center!r} of radius {radius!r} overflows: "
            "a member is not a finite real")
    return members


def _mk_circle(space: MetricSpace, center, radius: float, row,
               eps: float) -> Circle:
    """The Circle of one _member_rows row."""
    members = (tuple(itertools.compress(space.points(), row))
               if _on_points(space) else row)
    sampled = space.kind == "complex_usual"
    return Circle(center=center, radius=radius, members=members,
                  resolution="sampled" if sampled else "exact",
                  degenerate=within(radius, 0, eps), empty=len(members) == 0)


def _radii(rows: np.ndarray, eps: float):
    """Each row's radii, cut into clusters: one starts more than eps above
    the smallest distance, its representative, of the one before. Returns
    the sorted rows and the mask of the representatives: cut at each gap
    > eps, and scanned on a row with a gap in (0, eps], where rules part."""
    import numpy as np
    srt = np.sort(rows, axis=-1)
    gap = np.diff(srt, axis=-1, prepend=-np.inf)
    keep = gap > eps
    for at in map(tuple, np.argwhere(((gap > 0) & ~keep).any(-1))):
        last, cut = -math.inf, []
        for r in srt[at].tolist():
            cut.append(r - last > eps)
            last = r if cut[-1] else last
        keep[at] = cut
    return srt, keep


def enumerate_circles(space: MetricSpace, eps=None) -> tuple:
    """All (center, radius) pairs with realized, nonempty circles.

    Centers run over the carrier/sample points in order; for each, the
    radii are the distances d(x, c) the center actually attains, read off
    its row of _center_rows(as_array), the row circle_of resolves members
    on, ascending, deduplicated within the tolerance by _radii (the
    representative is the smallest of each cluster). The zero radius is
    included; it yields the degenerate one-point circle.
    """
    import numpy as np
    eps, pts = resolve_eps(eps), space.points()
    srt, keep = _radii(_center_rows(space.as_array), eps)
    return tuple((pts[c], r) for c, r in zip(np.nonzero(keep)[0].tolist(),
                                             srt[keep].tolist()))


def circle_samples(center, radius, count=DEFAULT_CIRCLE_SAMPLES) -> tuple:
    """Equally spaced points on a complex circle, for carrier building."""
    count = int(count)
    if count < 1:
        raise MalformedInputError(f"sample count must be >= 1, got {count}")
    center = complex(center)
    radius = float(radius)
    return tuple(center + radius * cmath.exp(2j * cmath.pi * k / count)
                 for k in range(count))


# ---------------------------------------------------------------------------
# Self-maps


@dataclass(frozen=True)
class Branch:
    """One piecewise branch: if ``predicate`` matches, apply ``image``.

    predicate: ("on_circle", center, radius) or ("at_points", points)
    image:     ("identity",) | ("constant", value) | ("reciprocal",)
    """

    predicate: tuple
    image: tuple


@dataclass(frozen=True)
class SelfMap:
    """A total self-mapping of the carrier.

    A table (from_table, from_indices; finite carriers) holds the image
    of points()[i] at slot i. Any other map is a piecewise rule on any
    carrier (a closed-form one has no branches), matched at the tolerance
    of each call that reads it, its images computed exactly even off the
    sample set. A map keeps one record, of the last space object and
    resolved tolerance it was read on: its image table and its fixed
    circles. The record is not a field, so ==, hash, repr and
    dataclasses.replace ignore it.
    """

    space: MetricSpace
    kind: str                      # "table" | "piecewise"
    table: tuple | None = None
    branches: tuple[Branch, ...] = ()
    default: tuple | None = None

    @classmethod
    def from_table(cls, space: MetricSpace, images: Mapping) -> "SelfMap":
        if not space.is_finite:
            raise MalformedInputError("lookup tables require a finite carrier")
        pts = space.points()
        missing = [p for p in pts if p not in images]
        if missing:
            raise MalformedInputError(f"map is not total, missing {missing[:5]}")
        extra = [p for p in images if p not in space._index]
        if extra:
            raise DomainError(f"images of points off the carrier: {extra[:5]}")
        tab = []
        for p in pts:
            img = images[p]
            if img not in space._index:
                raise DomainError(f"image {img!r} of {p!r} is off the carrier")
            tab.append(img)
        return cls(space=space, kind="table", table=tuple(tab))

    @classmethod
    def from_indices(cls, space: MetricSpace, indices) -> "SelfMap":
        """Table map from image indices into points(); finite only."""
        pts = space.points()
        return cls.from_table(space, {pts[i]: pts[j] for i, j in enumerate(indices)})

    @classmethod
    def from_rule(cls, space: MetricSpace, rule: tuple) -> "SelfMap":
        return cls.piecewise(space, (), rule)

    @classmethod
    def piecewise(cls, space: MetricSpace, branches: Iterable[Branch],
                  default: tuple) -> "SelfMap":
        branches = tuple(branches)
        for b in branches:
            pred = b.predicate
            if pred[0] not in ("on_circle", "at_points"):
                raise MalformedInputError(f"unknown predicate {pred[0]!r}")
            if not (all(map(space.contains, pred[1])) if pred[0] == "at_points"
                    else space.contains(pred[1]) and 0 <= pred[2] < math.inf):
                raise MalformedInputError("a predicate needs carrier points and "
                                          f"a finite radius >= 0: {pred!r}")
            _check_image(space, b.image)
        _check_image(space, default)
        return cls(space=space, kind="piecewise", branches=branches,
                   default=tuple(default))

    def _kept(self, space: MetricSpace, eps: float, name: str, make):
        """The record's ``name``, made by make() on first use."""
        rec = self.__dict__.get("_last")
        if rec is None or rec["space"] is not space or rec["eps"] != eps:
            rec = self.__dict__["_last"] = {"space": space, "eps": eps}
        if name not in rec:
            rec[name] = make()
        return rec[name]

    def _images(self, space: MetricSpace, eps: float):
        """The image table: a read-only intp row, row[i] the index of
        T(points()[i]) in points() + extra, and extra, the distinct
        images off the points, none on a finite carrier. A rule is applied
        at eps."""
        def table():
            import numpy as np
            index = dict(space._index)
            at = space.index_of if space.is_finite else (
                lambda p: index.setdefault(p, len(index)))
            images = (self.table if self.kind == "table" else
                      [self.apply(p, eps=eps) for p in space.points()])
            row = np.array([at(p) for p in images], dtype=np.intp)
            row.flags.writeable = False
            return row, tuple(index)[len(space._index):]
        return self._kept(space, eps, "images", table)

    @classmethod
    def identity(cls, space: MetricSpace) -> "SelfMap":
        return cls.from_rule(space, ("identity",))

    @classmethod
    def constant(cls, space: MetricSpace, value) -> "SelfMap":
        return cls.from_rule(space, ("constant", value))

    def apply(self, x, eps=None):
        if self.kind == "table":
            return self.table[self.space.index_of(x)]
        eps = resolve_eps(eps) if self.branches else eps
        for b in self.branches:
            if _matches(self.space, b.predicate, x, eps):
                return _apply_image(self.space, b.image, x)
        return _apply_image(self.space, self.default, x)


def _check_image(space, image):
    if not image or image[0] not in ("identity", "constant", "reciprocal"):
        raise MalformedInputError(f"unknown image rule {image!r}")
    if image[0] == "constant":
        if len(image) != 2 or not space.contains(image[1]):
            raise MalformedInputError(f"constant image {image!r} is off the carrier")
    if image[0] == "reciprocal" and space.is_finite:
        raise MalformedInputError("reciprocal images need an analytic carrier")


def _apply_image(space, image, x):
    op = image[0]
    if op == "identity":
        return x
    if op == "constant":
        return image[1]
    y = 0 if x == 0 else 1 / x      # inf past the float range, not an error
    if not space.contains(y):
        raise MalformedInputError(f"image rule {image!r} maps {x!r} off the carrier: {y!r}")
    return y


def _matches(space, predicate, x, eps):
    if predicate[0] == "on_circle":
        _, center, radius = predicate
        return within(space.distance(x, center), radius, eps)
    return x in predicate[1]


# ---------------------------------------------------------------------------
# Fixed-circle test, fixed points and fixed-circle enumeration


@dataclass(frozen=True)
class PointWitness:
    point: object
    image: object
    displacement: float


@dataclass(frozen=True)
class FixedCircleReport:
    """Verdict of the fixed-circle test with one witness per member."""

    holds: bool
    vacuous: bool
    resolution: str
    witnesses: tuple[PointWitness, ...]


def is_fixed_circle(tmap: SelfMap, circle: Circle, eps=None) -> FixedCircleReport:
    """True iff the map moves no member of the circle beyond tolerance.

    An empty circle yields a vacuous-true verdict with the ``vacuous``
    flag set, so callers can tell vacuity from content.
    """
    eps = resolve_eps(eps)
    witnesses = []
    for x in circle.members:
        tx = tmap.apply(x, eps=eps)
        witnesses.append(PointWitness(x, tx, tmap.space.distance(x, tx)))
    holds = all(within(w.displacement, 0, eps) for w in witnesses)
    return FixedCircleReport(holds=holds, vacuous=circle.empty,
                             resolution=circle.resolution,
                             witnesses=tuple(witnesses))


def enumerate_fixed_circles(space: MetricSpace, tmap: SelfMap,
                            include_degenerate: bool = False,
                            eps=None) -> tuple[Circle, ...]:
    """Every realized circle whose members the map leaves fixed.

    Centers and radii are those of enumerate_circles, so the result is
    deterministic: center order, then radius ascending. Degenerate
    (radius ~ 0) circles are included only on request; each is just a
    fixed point wearing a circle costume. Both answers are kept in the
    map's record (see SelfMap).
    """
    eps = resolve_eps(eps)
    every, proper = tmap._kept(space, eps, "circles",
                               lambda: _fixed_circles(space, tmap, eps))
    return every if include_degenerate else proper


def _fixed_circles(space: MetricSpace, tmap: SelfMap,
                   eps: float) -> tuple[tuple[Circle, ...], tuple]:
    """The fixed circles with and without the degenerate ones, in one
    pass per center, equal to a circle_of and an is_fixed_circle call per
    realized circle.

    A point is moved when d(x, Tx) is not within eps of 0, as
    is_fixed_circle reads it, or when the metric refuses d(x, Tx) as past
    the float range (where is_fixed_circle raises). On finite and complex
    carriers the images of the points come from the map's image table; on
    the real kinds the map is applied once per distinct member. The radii
    and member windows of a center are cut from and resolved on its one
    row of _center_rows(as_array), d(x, c) over the points, by the code
    circle_of resolves one with, and a Circle is built only for a fixed
    one. On n points that is n sorted rows, n image distances and O(n^3)
    elementwise array work in steps of O(n^2) memory; on the real kinds,
    O(n^2) closed-form members in Python.
    """
    import numpy as np

    def far(x, tx) -> bool:
        try:
            return not within(tmap.space.distance(x, tx), 0, eps)
        except MalformedInputError:
            return True

    @cache
    def moved(x) -> bool:
        return far(x, tmap.apply(x, eps=eps))

    pts = space.points()
    on_points = _on_points(space)
    if on_points:
        images, extra = tmap._images(space, eps)
        every = pts + extra
        moved_pts = np.array([far(x, every[j]) for x, j in zip(pts, images)],
                             dtype=bool)
    out = []
    center_rows = _center_rows(space.as_array)
    srt, keep = _radii(center_rows, eps)
    for center, row, cut, kept in zip(pts, center_rows, srt, keep):
        radii = cut[kept].tolist()
        rows = _member_rows(space, center, radii, eps, row)
        if on_points:
            fixed = np.flatnonzero(~(rows & moved_pts).any(axis=1))
        else:
            fixed = [k for k, m in enumerate(rows)
                     if m and not any(map(moved, m))]
        out += [_mk_circle(space, center, radii[k], rows[k], eps) for k in fixed]
    return tuple(out), tuple(c for c in out if not c.degenerate)


def fixed_points(tmap: SelfMap, eps=None) -> tuple:
    """Carrier/sample points the map leaves in place, in carrier order."""
    eps = resolve_eps(eps)
    return tuple(x for x in tmap.space.points() if within(
        tmap.space.distance(x, tmap.apply(x, eps=eps)), 0, eps))
