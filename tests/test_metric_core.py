"""Carrier, metric validation, circle resolution, and self-map tests.

Closed-form circle solvers are checked against brute scans computed
first in each test, so the expected member sets never come from the
code under test.
"""

import dataclasses
import itertools
import math
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixedcircle import metric_core
from fixedcircle.conditions import classify_images
from fixedcircle.errors import DomainError, MalformedInputError
from fixedcircle.generators import GenConfig, random_metric_space
from fixedcircle.metric_core import (ANALYTIC_KINDS, Branch, Circle,
                                     MetricSpace, SelfMap, circle_of,
                                     circle_samples, enumerate_circles,
                                     fixed_points, is_fixed_circle,
                                     validate_metric)

EPS = 1e-9


def _square(labels, entries):
    return MetricSpace.finite(labels, entries)


@pytest.fixture
def path_space():
    # three points on a line: q between p and s
    return _square(("p", "q", "s"),
                   [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


# ---------------------------------------------------------------------------
# Construction and validation


def test_finite_rejects_nonsquare():
    with pytest.raises(MalformedInputError):
        _square(("p", "q"), [[0, 1], [1, 0, 2]])


def test_finite_rejects_negative_and_nan():
    with pytest.raises(MalformedInputError):
        _square(("p", "q"), [[0, -1], [-1, 0]])
    with pytest.raises(MalformedInputError):
        _square(("p", "q"), [[0, float("nan")], [float("nan"), 0]])


def test_finite_rejects_duplicate_labels():
    with pytest.raises(MalformedInputError):
        _square(("p", "p"), [[0, 1], [1, 0]])


def test_finite_rejects_an_empty_carrier():
    # as analytic refuses an empty sample set
    with pytest.raises(MalformedInputError, match="at least one point"):
        _square((), [])


def test_validate_flags_each_axiom():
    asym = _square(("p", "q"), [[0, 1], [2, 0]])
    rep = validate_metric(asym)
    assert not rep.valid
    assert {v.axiom for v in rep.violations} == {"symmetry"}

    self_dist = _square(("p", "q"), [[1, 1], [1, 0]])
    rep = validate_metric(self_dist)
    assert any(v.axiom == "identity" for v in rep.violations)

    indisc = _square(("p", "q"), [[0, 0], [0, 0]])
    rep = validate_metric(indisc)
    assert any(v.axiom == "identity" for v in rep.violations)

    # d(b, a) is within eps of 0, d(a, b) is not, and they differ by less
    # than eps: one identity violation, witnessed in the order within eps
    m = [[0, 1.4e-9, 1], [0.5e-9, 0, 1], [1, 1, 0]]
    for matrix, witness in ((m, ("b", "a")),
                            (np.transpose(m).tolist(), ("a", "b"))):
        rep = validate_metric(_square("abc", matrix))
        assert rep.violations == (
            metric_core.Violation("identity", witness, 5e-10),)
        assert rep.violation_count == 1

    tri = _square(("p", "q", "s"), [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    rep = validate_metric(tri)
    bad = [v for v in rep.violations if v.axiom == "triangle"]
    assert bad and bad[0].magnitude == pytest.approx(3.0)


def test_validate_accepts_valid_matrix(path_space):
    rep = validate_metric(path_space)
    assert rep.valid and rep.violation_count == 0
    assert rep.point_count == 3


def test_validate_runs_once_per_space_and_tolerance(monkeypatch):
    from fixedcircle import metric_core
    runs = []
    real = metric_core._validate
    monkeypatch.setattr(metric_core, "_validate",
                        lambda space, eps: runs.append(eps) or real(space, eps))
    space = _square(("p", "q", "s"), [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]])
    first = validate_metric(space)
    assert validate_metric(space) is first
    assert validate_metric(space, EPS) is first     # same resolved tolerance
    assert runs == [EPS]
    # an equal space built apart keeps its own record
    twin = _square(("p", "q", "s"), [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]])
    assert validate_metric(twin) == first and runs == [EPS, EPS]
    loose = validate_metric(space, 0.5)
    assert loose is not first and runs == [EPS, EPS, 0.5]
    monkeypatch.setenv("FIXEDCIRCLE_EPSILON", "0.5")
    assert validate_metric(space) is loose and len(runs) == 3


def test_validate_counts_beyond_detail_cap():
    # every off-diagonal pair violates symmetry; the report keeps a
    # bounded sample but the count stays honest
    n = 30
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                m[i][j] = 1.0 + 0.1 * (i > j)
    space = _square(tuple(f"p{i}" for i in range(n)), m)
    rep = validate_metric(space)
    assert not rep.valid
    assert rep.violation_count >= len(rep.violations)
    assert _report_bits(rep) == _report_bits(_validate_by_loop(space))


def _validate_by_loop(space, eps=EPS):
    """The ValidationReport written as plain loops over Python floats: the
    diagonal; each pair i < j once, flagged for identity when either
    order is within eps of 0, that order (upper first) the witness, and
    for symmetry; then the triangle by middle point j, row i and column k,
    over three distinct points. The first _VIOLATION_CAP are kept."""
    D, pts = space.matrix, space.points()
    n, found = len(pts), []
    found += [("identity", (pts[i],), D[i][i]) for i in range(n)
              if abs(D[i][i]) > eps]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in pairs:
        for a, b in ((i, j), (j, i)):
            if abs(D[a][b]) <= eps:
                found.append(("identity", (pts[a], pts[b]), D[a][b]))
                break
    found += [("symmetry", (pts[i], pts[j]), abs(D[i][j] - D[j][i]))
              for i, j in pairs if abs(D[i][j] - D[j][i]) > eps]
    for j, i, k in itertools.product(range(n), repeat=3):
        excess = D[i][k] - (D[i][j] + D[j][k])
        if len({i, j, k}) == 3 and excess > eps:
            found.append(("triangle", (pts[i], pts[j], pts[k]), excess))
    return metric_core.ValidationReport(
        valid=not found, point_count=n, violation_count=len(found),
        violations=tuple(metric_core.Violation(*v)
                         for v in found[:metric_core._VIOLATION_CAP]))


def _report_bits(rep):
    """A report with each magnitude as its exact bits."""
    return dataclasses.replace(rep, violations=tuple(
        (v.axiom, v.witness, v.magnitude.hex()) for v in rep.violations))


# Entries to plant: at and beside eps, ordinary, and near the float maximum,
# where d(x, y) + d(y, z) passes the float range.
_ENTRIES = st.one_of(
    st.sampled_from([0.0, 5e-10, EPS, math.nextafter(EPS, 1), 1.4e-9, 1.0,
                     2.0, 8.9e307, 1.7e308, math.nextafter(1.7e308, 0),
                     1.7976931348623157e308]),
    st.floats(0, 4), st.floats(1e307, 1.7e308))


@st.composite
def _planted_spaces(draw):
    """A metric (points on a line, or one distance between any two) with
    entries overwritten anywhere, the diagonal and either triangle alike."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        xs = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
        m = [[float(abs(a - b)) for b in xs] for a in xs]
    else:
        m = [[0.0 if i == j else draw(_ENTRIES) for j in range(n)]
             for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i][j] = draw(_ENTRIES)
    return _square("abcdefg"[:n], m)


@given(space=_planted_spaces())
@settings(max_examples=300, deadline=None)
def test_validate_matches_a_plain_loop(space):
    rep = validate_metric(space)
    assert _report_bits(rep) == _report_bits(_validate_by_loop(space))
    flipped = validate_metric(_square(space.points(),
                                      np.transpose(space.matrix).tolist()))
    assert (flipped.valid, flipped.violation_count) == (rep.valid,
                                                       rep.violation_count)
    if rep.violation_count <= metric_core._VIOLATION_CAP:
        assert (sorted(v.axiom for v in flipped.violations)
                == sorted(v.axiom for v in rep.violations))


def test_analytic_dedupes_indistinguishable_samples():
    space = MetricSpace.analytic("real_usual", (1.0, 1.0 + 1e-12, 2.0))
    assert space.points() == (1.0, 2.0)


def test_analytic_rejects_empty_and_unknown_kind():
    with pytest.raises(MalformedInputError):
        MetricSpace.analytic("real_usual", ())
    with pytest.raises(MalformedInputError):
        MetricSpace.analytic("real_squared", (1.0,))


def test_analytic_carriers_refuse_non_finite_points():
    # NaN is at distance NaN from every sample, so every later sample
    # looked indistinguishable from it and was dropped; +-inf is no
    # point of the line or plane either
    for kind, bad in (("real_usual", math.nan), ("real_exp", -math.inf),
                      ("complex_usual", complex(0, math.inf))):
        with pytest.raises(MalformedInputError):
            MetricSpace.analytic(kind, (bad, 0.0, 1.0))
    line = MetricSpace.analytic("real_usual", (0.0, 1.0))
    plane = MetricSpace.analytic("complex_usual", (0j, 1j))
    for bad in (math.nan, math.inf, -math.inf):
        assert not line.contains(bad)
        assert not plane.contains(complex(bad, 0))
        with pytest.raises(MalformedInputError):
            SelfMap.constant(line, bad)
        for predicate in (("on_circle", 0.0, bad), ("on_circle", bad, 1.0),
                          ("at_points", (0.0, bad))):
            with pytest.raises(MalformedInputError):
                SelfMap.piecewise(line, (Branch(predicate, ("identity",)),),
                                  ("identity",))


@pytest.mark.parametrize("kind", ANALYTIC_KINDS)
def test_one_rule_for_a_point_of_a_carrier(kind):
    # contains' rule gates samples, at_points points, on_circle centers
    # and constants alike: a number, never a string or a bool coerced
    space = MetricSpace.analytic(kind, (0.0, 1))
    assert space.points() == ((0j, 1 + 0j) if kind == "complex_usual"
                              else (0.0, 1.0))
    for bad in ("1", True):
        assert not space.contains(bad)
        with pytest.raises(MalformedInputError, match="finite numbers"):
            MetricSpace.analytic(kind, (0.0, bad))
        for predicate in (("at_points", (bad,)), ("on_circle", bad, 1.0)):
            with pytest.raises(MalformedInputError, match="carrier points"):
                SelfMap.piecewise(space, (Branch(predicate, ("identity",)),),
                                  ("identity",))
        with pytest.raises(MalformedInputError, match="off the carrier"):
            SelfMap.constant(space, bad)
    finite = MetricSpace.finite(("p", "q"), [[0, 1], [1, 0]])
    with pytest.raises(MalformedInputError, match="carrier points"):
        SelfMap.piecewise(finite, (Branch(("at_points", ("z",)),
                                          ("constant", "p")),), ("identity",))


def test_nan_displacement_is_not_fixed():
    # a member at inf is at distance NaN from its own image: moved for
    # is_fixed_circle as for fixed_points and the FIXED_CIRCLE atom
    # (circle_of refuses such a circle; it is built by hand here)
    space = MetricSpace.analytic("real_usual", (0.0,))
    circle = Circle(center=1e308, radius=1e308, members=(0.0, math.inf),
                    resolution="exact", degenerate=False, empty=False)
    assert math.isinf(circle.members[-1])
    assert not is_fixed_circle(SelfMap.identity(space), circle).holds


def test_abs_sum_distance_definition():
    space = MetricSpace.analytic("real_abs_sum", (-1.0, 0.0, 1.0, 2.0))
    assert space.distance(-1.0, 1.0) == 2.0
    assert space.distance(1.0, 1.0) == 0.0
    assert space.distance(0.0, 2.0) == 2.0
    rep = validate_metric(space)
    assert rep.valid


@pytest.mark.parametrize("kind", ["real_usual", "real_exp", "real_abs_sum",
                                  "complex_usual"])
def test_sample_matrix_is_the_scalar_metric(kind):
    # one definition of each metric: the matrix that validation and the
    # radii read holds, bit for bit, what distance returns
    rng = np.random.default_rng(96)
    xs = rng.uniform(-3.0, 3.0, 96)
    if kind == "complex_usual":
        xs = xs + 1j * rng.uniform(-3.0, 3.0, 96)
    space = MetricSpace.analytic(kind, xs.tolist())
    pts = space.points()
    assert len(pts) == 96
    want = np.array([[space.distance(x, y) for y in pts] for x in pts])
    assert np.array_equal(space.as_array.view(np.int64), want.view(np.int64))


_EDGES = (0.0, -0.0, 1.0, -2.5, 708.9, 709.5, 709.8, 710.0, 8.98e307,
          -8.98e307, 1e308, -1e308, 1.7e308)
_REALS = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(_EDGES),
                   st.floats(allow_nan=False, allow_infinity=False))
# off the samples: ints too, past 2**53 where no float holds them
_OFF_REALS = st.one_of(_REALS, st.integers(-2 ** 70, 2 ** 70),
                       st.integers(-4, 4), st.sampled_from(
                           (2 ** 60 + 1, 2 ** 60 + 3, -2 ** 60 - 1)))
_PLANE = st.one_of(st.builds(complex, _REALS, _REALS),
                   st.complex_numbers(max_magnitude=1e3))


def _scalar_read(space, pts, a, b):
    """The scalar metric at each pair of a, b (broadcast), in read order,
    raising as the reader must: at the first pair the metric refuses,
    else where a pair of samples is past the float range."""
    a, b = np.broadcast_arrays(a, b)
    want = np.empty(a.shape)
    try:
        for i in range(a.size):
            want.flat[i] = space.distance(pts[a.flat[i]], pts[b.flat[i]])
    except MalformedInputError as exc:
        return str(exc)
    n = len(space.points())
    if not np.isfinite(want[(a < n) & (b < n)]).all():
        return f"the {space.kind} metric overflows on the sample set"
    return want


def _read_or_refusal(read, *args):
    try:
        return read(*args)
    except MalformedInputError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(ANALYTIC_KINDS), data=st.data())
def test_array_reader_is_the_scalar_metric(kind, data):
    # the array form distances reads equals the scalar metric bit for bit
    # on samples, off-sample floats and ints, -0.0 beside 0.0 and
    # magnitudes near 1e308, and refuses with the scalar metric's message
    plane = kind == "complex_usual"
    samples = data.draw(st.lists(_PLANE if plane else _REALS, min_size=1,
                                 max_size=5))
    try:
        space = MetricSpace.analytic(kind, samples)
    except MalformedInputError:     # the metric refuses two samples
        return
    off = data.draw(st.lists(st.one_of(_OFF_REALS, _PLANE) if plane
                             else _OFF_REALS, max_size=5))
    pts = [*space.points(), *off]
    i = np.arange(len(pts))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _read_or_refusal(space.distances(pts), i[:, None], i)
        matrix = _read_or_refusal(lambda: space.as_array)
    want = _scalar_read(space, pts, i[:, None], i)
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    n = len(space.points())
    want = _scalar_read(space, pts, i[:n, None], i[:n])
    if isinstance(want, str):
        assert matrix == want
    else:
        assert np.array_equal(matrix.view(np.int64), want.view(np.int64))


def test_complex_reader_is_hypot_not_numpy_abs():
    # numpy's complex abs differs from Python's in the last bit on many
    # pairs; the reader computes hypot, as Python's abs does
    rng = np.random.default_rng(2017)
    z = rng.uniform(-3, 3, 4000) + 1j * rng.uniform(-3, 3, 4000)
    space = MetricSpace.analytic("complex_usual", z[:2000].tolist())
    pts = [*space.points(), *z[2000:].tolist()]
    a, b = rng.integers(0, len(pts), (2, 20000))
    got = space.distances(pts)(a, b)
    want = np.array([abs(pts[x] - pts[y]) for x, y in zip(a, b)])
    assert np.array_equal(got, want)
    vz = np.array(pts)
    assert not np.array_equal(np.abs(vz[a] - vz[b]), want)


def test_exp_metric_overflow_is_malformed():
    with pytest.raises(MalformedInputError):
        MetricSpace.analytic("real_exp", (0.0, 1e6)).as_array


def test_overflowing_sample_distance_is_malformed():
    # 1e308 - (-1e308) is past the float range: refused, with no numpy
    # warning on the way, instead of an inf distance reported valid
    space = MetricSpace.analytic("real_usual", (1e308, -1e308, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedInputError, match="overflows"):
            validate_metric(space)
    # Python's complex abs raises where the sum of squares overflows
    with pytest.raises(MalformedInputError, match="overflows"):
        MetricSpace.analytic("complex_usual", (1.5e308 + 1.5e308j, 0j))


def test_triangle_sum_past_float_range_is_no_violation():
    # d(x, y) = 1.7e308 is finite, d(x, y) + d(y, x) is not
    space = MetricSpace.analytic("real_usual", (1e308, -7e307))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_metric(space).valid


def test_epsilon_env_override(monkeypatch, path_space):
    monkeypatch.setenv("FIXEDCIRCLE_EPSILON", "0.5")
    c = circle_of(path_space, "p", 1.2)
    # within the loosened tolerance, distance-1 points join the circle
    assert c.members == ("q",)


# ---------------------------------------------------------------------------
# Circle resolution


def test_circle_of_finite_scan(path_space):
    c = circle_of(path_space, "p", 1.0)
    assert c.members == ("q",)
    assert c.resolution == "exact"
    assert not c.degenerate and not c.empty
    assert circle_of(path_space, "p", 7.0).empty
    assert circle_of(path_space, "q", 0.0).members == ("q",)
    assert circle_of(path_space, "q", 0.0).degenerate


def test_circle_center_and_radius_guards(path_space):
    with pytest.raises(DomainError):
        circle_of(path_space, "z", 1.0)
    with pytest.raises(MalformedInputError):
        circle_of(path_space, "p", -1.0)
    with pytest.raises(MalformedInputError):
        circle_of(path_space, "p", float("inf"))


@given(center=st.floats(-50, 50), radius=st.floats(1e-6, 50))
@settings(max_examples=200, deadline=None)
def test_real_usual_circle_always_two_points(center, radius):
    space = MetricSpace.analytic("real_usual", (center, 0.0))
    c = circle_of(space, center, radius)
    assert c.members == (center - radius, center + radius)
    for m in c.members:
        assert space.distance(m, center) == pytest.approx(radius, abs=1e-6)


def test_real_exp_circle_against_scan():
    # oracle first: scan a dense grid for |e^x - e^c| = r crossings
    center, radius = 0.0, 1.0
    grid = np.linspace(-5, 5, 2_000_001)
    vals = np.abs(np.exp(grid) - math.exp(center)) - radius
    crossings = grid[np.abs(vals) < 2e-5]
    # the scan localizes exactly one root, near ln 2
    assert crossings.size and np.ptp(crossings) < 1e-3
    assert abs(crossings.mean() - math.log(2)) < 1e-4

    space = MetricSpace.analytic("real_exp", (0.0, 1.0))
    c = circle_of(space, center, radius)
    assert c.members == (math.log(2.0),)
    assert c.resolution == "exact"


def test_real_exp_circle_two_sided():
    # e^c - r > 0 gives the second, lower member
    space = MetricSpace.analytic("real_exp", (0.0,))
    c = circle_of(space, 0.0, 0.5)
    assert c.members == (math.log(0.5), math.log(1.5))


def _abs_sum_roots(center, radius):
    """Oracle: members of the |x|+|y| circle by sign-change bisection.

    d(y, center) is |y| + |center| away from the center and 0 at it, so
    the members are the roots of |y| + |center| - radius on each open
    half-line, plus 0 when |center| = radius, minus the center itself.
    Root isolation by sign change needs no tolerance.
    """
    g = lambda y: abs(y) + abs(center) - radius
    roots = []
    for lo, hi in ((-20.0, -1e-12), (1e-12, 20.0)):
        if g(lo) * g(hi) < 0:
            a, b = lo, hi
            for _ in range(100):
                mid = (a + b) / 2
                if g(a) * g(mid) <= 0:
                    b = mid
                else:
                    a = mid
            roots.append((a + b) / 2)
    if abs(center) == radius:
        roots.append(0.0)
    # drop the root that is the center itself (bisection localizes it
    # only to float precision, so compare with a buffer)
    return sorted(r for r in roots if abs(r - center) > 1e-6)


@pytest.mark.parametrize("center,radius", [
    (1.0, 2.0), (1.0, 1.0), (2.0, 2.0), (-3.0, 1.0), (0.5, 3.0),
])
def test_real_abs_sum_circle_against_scan(center, radius):
    oracle = _abs_sum_roots(center, radius)
    space = MetricSpace.analytic("real_abs_sum", (center, 0.0))
    c = circle_of(space, center, radius)
    assert len(c.members) == len(oracle)
    for got, want in zip(sorted(c.members), oracle):
        assert got == pytest.approx(want, abs=1e-9)


def test_real_abs_sum_circle_shapes():
    space = MetricSpace.analytic("real_abs_sum", (1.0, 0.0))
    assert circle_of(space, 1.0, 0.5).empty          # radius < |center|
    assert circle_of(space, 1.0, 1.0).members == (0.0,)
    assert circle_of(space, 1.0, 3.0).members == (-2.0, 2.0)
    # the center never belongs to its own positive-radius circle
    assert 1.0 not in circle_of(space, 1.0, 2.0).members


def test_complex_circle_is_sample_intersection():
    pts = (complex(-1, 0), complex(1, 0), complex(0, 2))
    space = MetricSpace.analytic("complex_usual", pts + circle_samples(0, 1))
    c = circle_of(space, complex(0, 0), 1.0)
    assert c.resolution == "sampled"
    assert complex(-1, 0) in c.members and complex(1, 0) in c.members
    assert complex(0, 2) not in c.members


def test_circle_samples_count_and_env(monkeypatch):
    assert len(circle_samples(0, 1)) == 360
    assert len(circle_samples(0, 1, count=7)) == 7
    # the count is a parameter only; the environment does not move it
    monkeypatch.setenv("FIXEDCIRCLE_CIRCLE_SAMPLES", "12")
    assert len(circle_samples(0, 1)) == 360
    with pytest.raises(MalformedInputError):
        circle_samples(0, 1, count=0)
    for z in circle_samples(complex(1, 1), 2.0, count=16):
        assert abs(abs(z - complex(1, 1)) - 2.0) < 1e-12


def test_enumerate_circles_covers_realized_radii(path_space):
    pairs = enumerate_circles(path_space)
    assert ("p", 0.0) in pairs and ("p", 1.0) in pairs and ("p", 2.0) in pairs
    # every listed pair resolves to a nonempty circle
    for center, radius in pairs:
        assert not circle_of(path_space, center, radius).empty


def test_complex_realized_circles_are_nonempty_at_zero_tolerance():
    # the radii are cut from the distances d(x, c) the member windows
    # read, so at eps = 0 every realized pair still holds the point
    # realizing it
    space = MetricSpace.analytic("complex_usual",
                                 circle_samples(0.3 + 0.1j, 1.7, 60))
    pairs = enumerate_circles(space, 0.0)
    assert len(pairs) > 3000
    circles = [circle_of(space, c, r, 0.0) for c, r in pairs]
    assert not [c for c in circles if c.empty]
    # and the members are those of the scalar metric the conditions read
    for c in circles:
        assert c.members == tuple(x for x in space.points()
                                  if space.distance(x, c.center) == c.radius)


def test_enumerate_circles_dedupes_within_eps():
    space = _square(("p", "q", "s"),
                    [[0, 1, 1 + 1e-12], [1, 0, 1], [1 + 1e-12, 1, 0]])
    radii = [r for c, r in enumerate_circles(space) if c == "p" and r > 0]
    assert radii == [1.0]


def _greedy_radii(row, eps):
    """The cluster rule as a plain loop: a cluster starts more than eps
    above the smallest distance of the one before."""
    out = []
    for r in sorted(row):
        if not out or r - out[-1] > eps:
            out.append(r)
    return out


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_stacked_radii_match_enumerate_circles_on_near_tie_chains(data):
    # entries on a few levels, each moved by up to three steps of a
    # fraction of eps: chained gaps in (0, eps], where a cut at every gap
    # > eps and the greedy rule part, beside exact ties and clear gaps
    eps = data.draw(st.sampled_from([1e-9, 0.125, 0.5]))
    S, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    level = data.draw(st.lists(st.floats(0, 3), min_size=1, max_size=3))
    step = data.draw(st.sampled_from([0.0, 0.375, 0.75, 1.0])) * eps
    D = np.array(data.draw(st.lists(
        st.tuples(st.sampled_from(level), st.integers(0, 3)),
        min_size=S * n * n, max_size=S * n * n)))
    # D[s, c] is center c's distances d(x, c): column c of space s
    D = (D[:, 0] + D[:, 1] * step).reshape(S, n, n)
    srt, keep = metric_core._radii(D, eps)
    labels = tuple(f"p{i}" for i in range(n))
    for s in range(S):
        stacked = [(labels[c], r) for c, r in zip(
            np.nonzero(keep[s])[0].tolist(), srt[s][keep[s]].tolist())]
        assert stacked == [(labels[c], r) for c in range(n)
                           for r in _greedy_radii(D[s, c].tolist(), eps)]
        assert stacked == list(enumerate_circles(
            MetricSpace.finite(labels, D[s].T.tolist()), eps))


def test_a_chain_of_near_ties_is_cut_by_the_greedy_rule():
    # gaps of 0.375 with eps = 0.5: no gap clears eps, but 1.75 is more
    # than eps above its cluster's representative 1.0
    srt, keep = metric_core._radii(np.array([[1.75, 0.0, 1.375, 1.0]]), 0.5)
    assert srt[0][keep[0]].tolist() == [0.0, 1.0, 1.75]


def test_circle_window_and_cluster_cut_are_closed_at_eps():
    # four points 0.5 apart on a line; with eps = 0.5 a distance exactly
    # eps from the radius is a member, and exactly eps above a cluster's
    # representative stays in its cluster (dyadic values: exact arithmetic)
    line = _square("abcd", [[abs(i - j) / 2 for j in range(4)]
                            for i in range(4)])
    assert circle_of(line, "a", 1.0, 0.5).members == ("b", "c", "d")
    assert circle_of(line, "a", 1.0, 0.0).members == ("c",)
    radii = {eps: [r for c, r in enumerate_circles(line, eps) if c == "a"]
             for eps in (0.5, 0.0)}
    assert radii == {0.5: [0.0, 1.0], 0.0: [0.0, 0.5, 1.0, 1.5]}


# ---------------------------------------------------------------------------
# Self-maps


def test_from_table_requires_total_on_carrier(path_space):
    with pytest.raises(MalformedInputError):
        SelfMap.from_table(path_space, {"p": "q"})
    with pytest.raises(DomainError):
        SelfMap.from_table(path_space, {"p": "z", "q": "p", "s": "p"})
    # an image listed for a point off the carrier is refused, not dropped
    with pytest.raises(DomainError, match="zz"):
        SelfMap.from_table(path_space, {"p": "p", "q": "q", "s": "s",
                                        "zz": "p"})


def test_on_circle_branches_refuse_a_negative_radius(path_space):
    line = MetricSpace.analytic("real_usual", (0.0, 1.0))
    for space, center in ((path_space, "p"), (line, 0.0)):
        with pytest.raises(MalformedInputError, match="radius >= 0"):
            SelfMap.piecewise(space, (Branch(("on_circle", center, -1.0),
                                             ("identity",)),), ("identity",))


def test_spaces_are_equal_exactly_when_points_kind_and_matrix_are():
    D = [[0, 1], [1, 0]]
    a = MetricSpace.finite(("x", "y"), D)
    assert (a.pts, a.kind, a.matrix) == (("x", "y"), None, ((0.0, 1.0),
                                                             (1.0, 0.0)))
    assert a == MetricSpace.finite(["x", "y"], D)
    assert hash(a) == hash(MetricSpace.finite(["x", "y"], D))
    assert a != MetricSpace.finite(("x", "z"), D)
    assert a != MetricSpace.finite(("x", "y"), [[0, 2], [2, 0]])
    line = MetricSpace.analytic("real_usual", (0.0, 1.0))
    assert (line.pts, line.kind, line.matrix) == ((0.0, 1.0), "real_usual",
                                                  None)
    assert line == MetricSpace.analytic("real_usual", [0, 1])
    assert hash(line) == hash(MetricSpace.analytic("real_usual", [0, 1]))
    assert line != MetricSpace.analytic("real_exp", (0.0, 1.0))
    assert line.is_finite is False and a.is_finite is True


def test_table_maps_reject_analytic_carriers():
    space = MetricSpace.analytic("real_usual", (0.0, 1.0))
    with pytest.raises(MalformedInputError):
        SelfMap.from_table(space, {0.0: 1.0, 1.0: 0.0})


def test_piecewise_stays_a_rule_on_finite():
    # x is 1e-6 off the unit circle about c: the rule fixes it at the
    # tolerance of the call, not at one fixed when the map was built
    space = _square("cxya", [[0, 1.000001, 1, 3], [1.000001, 0, 1, 2.5],
                             [1, 1, 0, 2.5], [3, 2.5, 2.5, 0]])
    m = SelfMap.piecewise(
        space, (Branch(("on_circle", "c", 1.0), ("identity",)),),
        ("constant", "a"))
    assert m.kind == "piecewise" and m.table is None
    assert m.apply("x", eps=1e-5) == "x" and m.apply("x") == "a"
    assert m.apply("y") == "y" and m.apply("c", eps=1e-5) == "a"
    assert fixed_points(m, eps=1e-5) == ("x", "y", "a")
    assert fixed_points(m) == ("y", "a")


def test_piecewise_branch_order_is_first_match():
    space = MetricSpace.analytic("real_usual", (0.0, 1.0, 2.0))
    m = SelfMap.piecewise(
        space,
        (Branch(("at_points", (1.0,)), ("constant", 0.0)),
         Branch(("on_circle", 0.0, 1.0), ("identity",))),
        ("constant", 2.0))
    assert m.apply(1.0) == 0.0      # first branch wins
    assert m.apply(-1.0) == -1.0    # second branch catches the other member
    assert m.apply(0.5) == 2.0


def test_reciprocal_needs_analytic_carrier(path_space):
    with pytest.raises(MalformedInputError):
        SelfMap.from_rule(path_space, ("reciprocal",))
    space = MetricSpace.analytic("real_usual", (0.0, 2.0))
    m = SelfMap.from_rule(space, ("reciprocal",))
    assert m.apply(2.0) == 0.5
    assert m.apply(0.0) == 0       # guarded pole
    assert m.apply(-4.0) == -0.25


def test_constant_image_must_be_on_carrier(path_space):
    with pytest.raises(MalformedInputError):
        SelfMap.piecewise(path_space, (), ("constant", "z"))


def test_off_sample_images_are_exact_not_snapped():
    space = MetricSpace.analytic("real_usual", (0.0, 3.0))
    m = SelfMap.from_rule(space, ("reciprocal",))
    # 1/3 is not a sample; the image must be the exact value
    assert m.apply(3.0) == pytest.approx(1 / 3, abs=0)


def _counting_apply(calls):
    """A stand-in for SelfMap.apply that records each point applied."""
    apply = SelfMap.apply

    def counted(self, x, eps=None):
        calls.append(x)
        return apply(self, x, eps=eps)
    return counted


def test_image_table_is_made_once_per_space_object_and_tolerance():
    # The table over points() is read back on the same space object at the
    # same tolerance and made again on another tolerance or on an equal
    # space that is another object. The constant image off the samples is
    # one point after them, however many samples map to it.
    samples = [k / 8 for k in range(-8, 9)]
    space = MetricSpace.analytic("real_usual", samples)
    twin = MetricSpace.analytic("real_usual", samples)
    assert twin == space and twin is not space
    tmap = SelfMap.piecewise(
        space, (Branch(("on_circle", 0.0, 0.5), ("identity",)),),
        ("constant", 0.3))
    calls = []
    for target, eps, fresh in [(space, EPS, True), (space, EPS, False),
                               (space, 0.25, True), (space, 0.25, False),
                               (twin, 0.25, True), (twin, 0.25, False),
                               (space, 0.25, True)]:
        calls.clear()
        with mock.patch.object(SelfMap, "apply", _counting_apply(calls)):
            row, extra = tmap._images(target, eps)
        assert len(calls) == (len(samples) if fresh else 0), (eps, fresh)
        assert extra == (0.3,)
        every = target.points() + extra
        assert [every[j] for j in row] == [tmap.apply(x, eps=eps)
                                           for x in target.points()]
        assert tmap._last["space"] is target and tmap._last["eps"] == eps


def test_map_record_is_not_part_of_the_map():
    space = MetricSpace.analytic("real_usual", (0.0, 1.0, 2.0))
    tmap = SelfMap.constant(space, 0.5)
    before = (hash(tmap), repr(tmap))
    row, extra = tmap._images(space, EPS)
    assert "_last" in vars(tmap)
    fresh = dataclasses.replace(tmap)
    assert "_last" not in vars(fresh)
    assert fresh == tmap and (hash(tmap), repr(tmap)) == before \
        == (hash(fresh), repr(fresh))
    assert row.dtype == np.intp and row.tolist() == [3, 3, 3]
    assert extra == (0.5,)
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        row[0] = 0


def test_fixed_points_and_fixed_circle(path_space):
    ident = SelfMap.identity(path_space)
    assert fixed_points(ident) == ("p", "q", "s")
    c = circle_of(path_space, "p", 1.0)
    assert is_fixed_circle(ident, c).holds

    swap = SelfMap.from_table(path_space, {"p": "s", "q": "q", "s": "p"})
    rep = is_fixed_circle(swap, circle_of(path_space, "q", 1.0))
    assert not rep.holds
    moved = [w for w in rep.witnesses if w.displacement > EPS]
    assert {w.point for w in moved} == {"p", "s"}


def test_empty_circle_is_vacuous_not_true(path_space):
    rep = is_fixed_circle(SelfMap.identity(path_space),
                          circle_of(path_space, "p", 9.0))
    assert rep.holds and rep.vacuous


def test_fixed_set_equals_degenerate_circle_union(path_space):
    # the fixed-point set is exactly the union of members of degenerate
    # circles centered at fixed points
    for tab in ({"p": "p", "q": "p", "s": "s"},
                {"p": "q", "q": "p", "s": "s"},
                {"p": "p", "q": "q", "s": "s"}):
        m = SelfMap.from_table(path_space, tab)
        fixed = set(fixed_points(m))
        union = set()
        for x in fixed:
            union.update(circle_of(path_space, x, 0.0).members)
        assert union == fixed


def test_classify_images_regions(path_space):
    m = SelfMap.from_table(path_space, {"p": "p", "q": "p", "s": "p"})
    c = circle_of(path_space, "p", 1.0)
    rep = classify_images(m, c)
    assert rep.interior == 1 and rep.on == 0 and rep.exterior == 0
    assert rep.classifications[0].signed_gap == pytest.approx(-1.0)


@given(st.integers(2, 8), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_generated_spaces_validate(size, seed):
    space = random_metric_space(GenConfig(seed=seed, size=size))
    assert validate_metric(space).valid


def test_within_is_the_one_tolerance_rule():
    # |a - b| <= eps, boundary included, on floats and arrays alike
    assert metric_core.within(1.0, 1.0 + 2 ** -20, 2 ** -20)
    assert not metric_core.within(1.0, 1.0 + 2 ** -19, 2 ** -20)
    assert not metric_core.within(math.nan, 0.0, 1.0)
    got = metric_core.within(np.array([0.5, 1.0, 1.5]), 1.0, 0.5)
    assert got.dtype == bool and got.tolist() == [True, True, True]
    got = metric_core.within(np.array([[0.0], [2.0]]), np.array([0.0, 1.0]), 0.0)
    assert got.tolist() == [[True, False], [False, False]]


@pytest.mark.parametrize("kind", ["real_usual", "complex_usual"])
@pytest.mark.parametrize("call,error", [
    (lambda space: MetricSpace.analytic(space.kind, [0.0, 2 ** 1100]),
     MalformedInputError),
    (lambda space: SelfMap.constant(space, 2 ** 1100), MalformedInputError),
    (lambda space: circle_of(space, -2 ** 1100, 1.0), DomainError),
], ids=["analytic", "constant", "circle_of"])
def test_int_past_the_float_range_is_off_the_carrier(kind, call, error):
    # no float holds 2**1100, so no analytic carrier does: contains says
    # so instead of raising OverflowError, and each builder refuses it
    space = MetricSpace.analytic(kind, [0.0, 1.0])
    assert not space.contains(2 ** 1100) and not space.contains(-2 ** 1100)
    assert space.contains(2 ** 1000)
    with pytest.raises(error):
        call(space)
