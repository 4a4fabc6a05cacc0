"""Theorem verdict tests.

The centerpiece holds the two evaluation routes together: the
vectorized sweep kernel and the per-instance rich API must agree on
every hypothesis/conclusion bit over exhaustive map batches. The sweep
never gets to certify soundness through a kernel that drifted from the
checkers it summarizes. Both routes read one theorem registry, so each
whole verdict is also held against a reference written here as plain
loops over is_fixed_circle, fixed_points and space.distance.
"""

import itertools
from unittest import mock

import numpy as np
import pytest

from fixedcircle import conditions, metric_core, verifier
from fixedcircle.errors import DomainError, InvalidMetricError
from fixedcircle.conditions import check_condition, phi_canonical
from fixedcircle.gallery import list_entries, load_entry
from fixedcircle.generators import (GenConfig, build_circle_fixing_map,
                                    random_metric_space)
from fixedcircle.metric_core import (ANALYTIC_KINDS, MetricSpace, SelfMap,
                                     circle_of, circle_samples,
                                     enumerate_circles, fixed_points,
                                     is_fixed_circle)
from fixedcircle.verifier import (THEOREM_IDS, TheoremVerdict,
                                  _structured_maps,
                                  enumerate_fixed_circles,
                                  soundness_sweep, theorem_flags,
                                  verify_banach, verify_caristi,
                                  verify_existence, verify_identity_theorem,
                                  verify_theorem, verify_uniqueness)

EPS = 1e-9


# ---------------------------------------------------------------------------
# Kernel vs rich API


@pytest.mark.parametrize("seed,size", [(0, 2), (1, 3), (4, 3), (9, 4)])
def test_kernel_agrees_with_rich_api(seed, size):
    space = random_metric_space(GenConfig(seed=seed, size=size))
    D = space.as_array
    n = size
    maps = np.array(list(itertools.product(range(n), repeat=n)),
                    dtype=np.intp)
    realized = [(c, r) for c, r in enumerate_circles(space) if r > EPS]
    for center, radius in realized:
        ci = space.points().index(center)
        flags = theorem_flags(D, maps, ci, radius, EPS)
        circle = circle_of(space, center, radius)
        for mi in range(maps.shape[0]):
            tmap = SelfMap.from_indices(space, maps[mi])
            for tid in THEOREM_IDS:
                hyp, concl = flags[tid]
                verdict = verify_theorem(tid, space, tmap, circle, EPS)
                assert bool(hyp[mi]) == verdict.hypotheses_hold, (tid, mi)
                assert bool(concl[mi]) == verdict.conclusion_holds, (tid, mi)
                assert verdict.consistent


# Valid within eps, but asymmetric: the row of c puts y on the circle
# (d(c, y) = 1 - 0.5 eps) while the column, phi(y) = d(y, c), sits 1.4 eps
# inside it. The kernel must read phi, the off-circle points and the fixed
# set from the column and take pairs with x < y, as the checkers do.
ROW_COLUMN_SPACE = MetricSpace.finite(("c", "x", "y"), [
    [0, 1, 1 - 0.5e-9], [1, 0, 0.5], [1 - 1.4e-9, 0.5, 0]])


def _assert_kernel_matches(space, maps, ci, radius, tid):
    hyp, concl = theorem_flags(space.as_array, maps, ci, radius, EPS)[tid]
    circle = circle_of(space, space.points()[ci], radius)
    for mi in range(maps.shape[0]):
        tmap = SelfMap.from_indices(space, maps[mi])
        verdict = verify_theorem(tid, space, tmap, circle, EPS)
        assert bool(hyp[mi]) == verdict.hypotheses_hold, mi
        assert bool(concl[mi]) == verdict.conclusion_holds, mi


@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_kernel_agrees_with_rich_api_on_asymmetric_space(tid):
    maps = np.array(list(itertools.product(range(3), repeat=3)),
                    dtype=np.intp)
    _assert_kernel_matches(ROW_COLUMN_SPACE, maps, 0, 1.0, tid)


@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_kernel_agrees_with_rich_api_on_empty_circle(tid):
    space = random_metric_space(GenConfig(seed=1, size=3))
    assert circle_of(space, "p0", 5.0).empty
    maps = np.array(list(itertools.product(range(3), repeat=3)),
                    dtype=np.intp)
    _assert_kernel_matches(space, maps, 0, 5.0, tid)


@pytest.mark.parametrize("n", [3, 6])
def test_kernel_chunks_agree_with_one_chunk(n):
    space = random_metric_space(GenConfig(seed=n, size=n))
    D = space.as_array
    rng = np.random.default_rng(n)
    maps = np.vstack([rng.integers(0, n, size=(39, n)), np.arange(n),
                      np.zeros(n, dtype=np.intp)]).astype(np.intp)
    for ci, radius in ((0, float(D[0, 1])), (n - 1, float(D[n - 1, 0]))):
        whole = theorem_flags(D, maps, ci, radius, EPS)
        assert conditions.batch_rows(n) >= maps.shape[0]
        # 7 maps per chunk: 6 chunks, the last one short
        with mock.patch.object(conditions, "_PAIR_BLOCK", 7 * n * n):
            assert conditions.batch_rows(n) == 7
            split = theorem_flags(D, maps, ci, radius, EPS)
        for tid in THEOREM_IDS:
            assert np.array_equal(split[tid][0], whole[tid][0]), tid
            assert np.array_equal(split[tid][1], whole[tid][1]), tid


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_map_batch_is_every_table_map_in_product_order(n):
    maps = verifier._map_batch(n, 5, 6, np.random.default_rng(0))
    assert maps.dtype == np.intp
    assert maps.tolist() == [list(t) for t in
                             itertools.product(range(n), repeat=n)]


def _assert_stack_matches_one_circle_calls(D, maps, centers, radii):
    stacked = theorem_flags(D, maps, centers, radii, EPS)
    for j, (ci, radius) in enumerate(zip(centers, radii)):
        alone = theorem_flags(D, maps, ci, radius, EPS)
        for tid in THEOREM_IDS:
            for side in (0, 1):
                assert stacked[tid][side].shape == (len(centers), len(maps))
                assert stacked[tid][side].dtype == bool
                assert np.array_equal(stacked[tid][side][j],
                                      alone[tid][side]), (tid, side, j)


@pytest.mark.parametrize("n", range(2, 13))
def test_circle_stack_agrees_with_one_circle_calls(n):
    # three realized circles, an empty one (the uniqueness rule) and a
    # second radius around the first center, over one batch
    space = random_metric_space(GenConfig(seed=40 + n, size=n))
    D = space.as_array
    rng = np.random.default_rng(n)
    maps = np.vstack([rng.integers(0, n, size=(30, n)), np.arange(n),
                      np.zeros(n, dtype=np.intp)]).astype(np.intp)
    realized = enumerate_circles(space)
    picks = [realized[k] for k in rng.choice(len(realized), size=3,
                                             replace=False)]
    centers = [space.index_of(c) for c, _ in picks]
    radii = [r for _, r in picks]
    other = [r for r in np.unique(D[centers[0]]) if r != radii[0]][-1]
    centers += [centers[0], centers[0]]
    radii += [float(D.max()) * 2 + 1, float(other)]
    assert not (np.abs(D[centers[0]] - radii[3]) <= EPS).any()
    _assert_stack_matches_one_circle_calls(D, maps, centers, radii)


def test_circle_stack_agrees_with_one_circle_calls_across_chunks():
    # 16 maps per chunk at 128 points: 40 maps span three chunks
    n = 128
    space = random_metric_space(GenConfig(seed=3, size=n))
    D = space.as_array
    assert conditions.batch_rows(n) == 16
    rng = np.random.default_rng(5)
    maps = np.vstack([rng.integers(0, n, size=(38, n)), np.arange(n),
                      np.full(n, 7)]).astype(np.intp)
    centers = [0, 0, 9]
    radii = [float(D[0, 1]), float(D[0, 2]), float(D[9].max()) + 1]
    _assert_stack_matches_one_circle_calls(D, maps, centers, radii)


# ---------------------------------------------------------------------------
# Whole verdicts against a plain-loop reference

# Each theorem's hypotheses, written out apart from the registry.
HYPOTHESES = {
    "T_EXIST_C1C2": ("C1", "C2"), "T_EXIST_STAR": ("C1_STAR", "C2_STAR"),
    "T_EXIST_DSTAR": ("C1_DSTAR", "C2_DSTAR"), "T_IDENTITY": ("ID_COND",),
    "T_UNIQUE_C3": ("C1", "C2", "C3"),
    "T_UNIQUE_C3_STARVARIANT": ("C1_STAR", "C2_STAR", "C3"),
    "T_UNIQUE_C3_DSTAR": ("C1_DSTAR", "C2_DSTAR", "C3_DSTAR"),
    "T_BANACH": ("BANACH",), "T_CARISTI": ("CARISTI",),
}


def _reference_verdict(tid, space, tmap, circle):
    """The verdict as the theorems state it, decided by loops over the
    members and the carrier points; the hypothesis reports are the
    checkers'."""
    reports = tuple(check_condition(cid, space, tmap, circle=circle, eps=EPS)
                    for cid in HYPOTHESES[tid])
    hyp = all(r.holds for r in reports)
    fixed = fixed_points(tmap, EPS)
    fc = is_fixed_circle(tmap, circle, EPS)
    caveats, found = [], None
    if tid not in ("T_BANACH", "T_CARISTI"):
        caveats += ["sampled-resolution verdict"] * (circle.resolution == "sampled")
        caveats += ["empty circle: conclusion is vacuous"] * circle.empty
        caveats += ["degenerate circle (radius ~ 0)"] * circle.degenerate
    if tid.startswith("T_EXIST"):
        concl = fc.holds
    elif tid == "T_IDENTITY":
        concl = len(fixed) == len(space.points()) and fc.holds
    elif tid.startswith("T_UNIQUE"):
        if circle.empty:
            hyp = False
            caveats.append("empty circle: hypotheses are vacuous, not asserted")
        concl = fc.holds and not fc.vacuous and all(
            abs(space.distance(x, circle.center) - circle.radius) <= EPS
            for x in fixed)
        found = verifier.enumerate_fixed_circles(space, tmap, eps=EPS)
        if len(found) > 1:
            caveats.append("other fixed circles exist inside the fixed-point set")
        if not space.is_finite:
            caveats.append("uniqueness checked over the sample window only")
    elif tid == "T_BANACH":
        concl = len(fixed) == 1 if space.is_finite else len(fixed) <= 1
        if not space.is_finite:
            caveats.append("sample window: existence of the fixed point not decidable")
    else:
        concl = bool(fixed) or not space.is_finite
        if not space.is_finite:
            caveats.append("sample window: absence of a fixed sample is not a refutation")
            caveats += ["no fixed sample found"] * (not fixed)
    return TheoremVerdict(tid, reports, hyp, concl, (not hyp) or concl,
                          tuple(caveats), found)


def _assert_reference_verdicts(space, circle, maps):
    for tmap in maps:
        for tid in THEOREM_IDS:
            assert verify_theorem(tid, space, tmap, circle, EPS) == \
                _reference_verdict(tid, space, tmap, circle), (tid, tmap)


def _exhaustive(space):
    n = len(space.points())
    return [SelfMap.from_indices(space, m)
            for m in itertools.product(range(n), repeat=n)]


@pytest.mark.parametrize("seed,size", [(3, 2), (5, 3), (2, 4)])
def test_verdicts_match_reference_on_random_spaces(seed, size):
    space = random_metric_space(GenConfig(seed=seed, size=size))
    maps = _exhaustive(space)
    # every third realized circle, degenerate ones included: all of them
    # at 4 points would take some 12 s
    for center, radius in enumerate_circles(space)[::3]:
        _assert_reference_verdicts(space, circle_of(space, center, radius),
                                   maps)


def test_verdicts_match_reference_on_asymmetric_and_empty_circles():
    _assert_reference_verdicts(ROW_COLUMN_SPACE,
                               circle_of(ROW_COLUMN_SPACE, "c", 1.0),
                               _exhaustive(ROW_COLUMN_SPACE))
    space = random_metric_space(GenConfig(seed=1, size=3))
    circle = circle_of(space, "p0", 5.0)
    assert circle.empty
    _assert_reference_verdicts(space, circle, _exhaustive(space))


@pytest.mark.parametrize("entry_id", [
    e for e in list_entries() if not load_entry(e).space.is_finite])
def test_verdicts_match_reference_on_analytic_gallery(entry_id):
    entry = load_entry(entry_id)
    for circle in entry.circles:
        _assert_reference_verdicts(entry.space, circle, [entry.tmap])


# ---------------------------------------------------------------------------
# Existence and identity verdicts


@pytest.fixture
def line():
    return MetricSpace.analytic("real_usual", (-2.0, 2.0, 0.0, 5.0))


def test_existence_verdict_shapes(line):
    circle = circle_of(line, 0.0, 2.0)
    ident = SelfMap.identity(line)
    v = verify_existence(line, ident, circle, "C1C2")
    assert v.theorem_id == "T_EXIST_C1C2"
    assert v.hypotheses_hold and v.conclusion_holds and v.consistent
    assert [r.condition_id for r in v.hypothesis_reports] == ["C1", "C2"]
    with pytest.raises(DomainError):
        verify_existence(line, ident, circle, "NOPE")


def test_existence_empty_circle_is_vacuous(line):
    space = MetricSpace.finite(("p", "q"), [[0, 1], [1, 0]])
    circle = circle_of(space, "p", 5.0)
    v = verify_existence(space, SelfMap.identity(space), circle, "C1C2")
    assert v.conclusion_holds and v.consistent
    assert any("vacuous" in c for c in v.caveats)


def test_identity_theorem_both_directions(line):
    circle = circle_of(line, 0.0, 2.0)
    v = verify_identity_theorem(line, SelfMap.identity(line), circle)
    assert v.hypotheses_hold and v.conclusion_holds
    v2 = verify_identity_theorem(line, SelfMap.constant(line, 0.0), circle)
    assert not v2.hypotheses_hold and not v2.conclusion_holds and v2.consistent


def test_invalid_metric_is_refused():
    broken = MetricSpace.finite(("p", "q", "s"),
                                [[0, 1, 9], [1, 0, 1], [9, 1, 0]])
    circle = circle_of(broken, "p", 1.0)
    with pytest.raises(InvalidMetricError) as err:
        verify_existence(broken, SelfMap.identity(broken), circle, "C1C2")
    assert err.value.report is not None
    assert not err.value.report.valid


# ---------------------------------------------------------------------------
# Uniqueness semantics


def _three_point_space(d_ab, d_ac, d_bc):
    return MetricSpace.finite(("a", "b", "c"),
                              [[0, d_ab, d_ac], [d_ab, 0, d_bc],
                               [d_ac, d_bc, 0]])


def test_uniqueness_conclusion_is_fixed_set_equality():
    # hypotheses hold, the circle's members are exactly the fixed set,
    # yet two more fixed circles sit inside that set; the conclusion
    # must still count as established or the theorem would be
    # falsified by its own proof
    space = _three_point_space(5.0, 5.0, 1.0)
    tmap = SelfMap.from_table(space, {"a": "b", "b": "b", "c": "c"})
    circle = circle_of(space, "a", 5.0)
    v = verify_uniqueness(space, tmap, circle, "C3")
    assert v.hypotheses_hold
    assert v.conclusion_holds
    assert v.consistent
    assert len(v.fixed_circles) == 3
    assert any("other fixed circles" in c for c in v.caveats)
    found = enumerate_fixed_circles(space, tmap)
    assert {(c.center, c.radius) for c in found} == {
        ("a", 5.0), ("b", 1.0), ("c", 1.0)}


def test_uniqueness_fails_when_fixed_set_leaks():
    # an extra fixed point off the circle breaks the conclusion
    space = _three_point_space(2.0, 3.0, 2.0)
    tmap = SelfMap.identity(space)
    circle = circle_of(space, "a", 2.0)    # members {b}; a and c also fixed
    v = verify_uniqueness(space, tmap, circle, "C3")
    assert not v.conclusion_holds
    assert v.consistent    # hypotheses fail too (identity is no contraction)


def test_uniqueness_empty_circle_hypotheses_not_asserted():
    space = MetricSpace.finite(("p", "q"), [[0, 1], [1, 0]])
    circle = circle_of(space, "p", 7.0)
    v = verify_uniqueness(space, SelfMap.identity(space), circle, "C3")
    assert not v.hypotheses_hold
    assert v.consistent
    assert any("vacuous" in c for c in v.caveats)


def test_uniqueness_analytic_carries_window_caveat():
    space = MetricSpace.analytic("real_usual", (-1.0, 1.0, 0.0, 0.5))
    circle = circle_of(space, 0.0, 1.0)
    tmap = SelfMap.identity(space)
    v = verify_uniqueness(space, tmap, circle, "C3")
    assert any("sample window" in c for c in v.caveats)


def test_enumerate_fixed_circles_degenerate_flag():
    # equilateral: every 2-member circle mixes fixed and moved points,
    # so the constant map fixes no positive-radius circle
    space = MetricSpace.finite(("p", "q", "s"),
                               [[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    const = SelfMap.constant(space, "p")
    assert enumerate_fixed_circles(space, const) == ()
    with_deg = enumerate_fixed_circles(space, const, include_degenerate=True)
    assert [(c.center, c.radius) for c in with_deg] == [("p", 0.0)]


def test_enumerate_fixed_circles_finds_singleton_around_other_center():
    # on two points the circle around q through p has members {p} only,
    # which the constant-to-p map fixes: a real, non-degenerate hit
    space = MetricSpace.finite(("p", "q"), [[0, 1], [1, 0]])
    const = SelfMap.constant(space, "p")
    found = enumerate_fixed_circles(space, const)
    assert [(c.center, c.radius) for c in found] == [("q", 1.0)]


# ---------------------------------------------------------------------------
# Fixed-circle enumeration against the plain loop


def _reference_fixed_circles(space, tmap, eps=EPS):
    """Every fixed circle, degenerate ones included, as one circle_of and
    one is_fixed_circle call per realized (center, radius) pair."""
    out = []
    for center, radius in enumerate_circles(space, eps):
        circle = circle_of(space, center, radius, eps)
        if not circle.empty and is_fixed_circle(tmap, circle, eps).holds:
            out.append(circle)
    return tuple(out)


def _assert_enumeration_matches_loop(space, tmaps, eps=EPS):
    for tmap in tmaps:
        want = _reference_fixed_circles(space, tmap, eps)
        for include_degenerate in (True, False):
            got = enumerate_fixed_circles(space, tmap, include_degenerate, eps)
            if not include_degenerate:
                want = tuple(c for c in want if not c.degenerate)
            # repr also tells -0.0 from 0.0 and a numpy float from a float
            assert got == want and repr(got) == repr(want), (tmap, eps)


@pytest.mark.parametrize("entry_id", list_entries())
def test_enumeration_matches_loop_on_gallery(entry_id):
    entry = load_entry(entry_id)
    _assert_enumeration_matches_loop(entry.space, [entry.tmap])


def _finite_maps(space, rng, count=12):
    """Every table map up to 4 points; beyond that the identity, every
    constant, a circle-fixing map and ``count`` random tables."""
    n = len(space.points())
    if n <= 4:
        return _exhaustive(space)
    D = space.as_array
    circle = circle_of(space, space.points()[0], float(D[0, n - 1]))
    rows = [np.arange(n), *(np.full(n, i) for i in range(n)),
            *rng.integers(0, n, size=(count, n))]
    return ([build_circle_fixing_map(space, circle)]
            + [SelfMap.from_indices(space, row) for row in rows])


@pytest.mark.parametrize("size", range(2, 13))
@pytest.mark.parametrize("eps", [EPS, 0.25])
def test_enumeration_matches_loop_on_random_spaces(size, eps):
    rng = np.random.default_rng(size)
    space = random_metric_space(GenConfig(seed=40 + size, size=size))
    _assert_enumeration_matches_loop(space, _finite_maps(space, rng), eps)


# c sees a, b and d at 1, 1.06 and 1.12: with eps = 0.1 the cut gives the
# radii 1 and 1.12, whose windows overlap in b.
OVERLAPPING_SPACE = MetricSpace.finite(("c", "a", "b", "d"), [
    [0, 1, 1.06, 1.12], [1, 0, 1, 1], [1.06, 1, 0, 1], [1.12, 1, 1, 0]])


@pytest.mark.parametrize("d1,d2", [(5e-10, 1.4e-9), (3.1e-10, 1.2e-9),
                                   (7.9e-10, 1.6e-9)])
def test_enumeration_matches_loop_on_near_ties(d1, d2):
    # the near-tie family of the benchmark's instance workload, its repro
    # first: x and y on the unit circle about a, within eps of one another
    space = MetricSpace.finite(("a", "x", "y"), [
        [0, 1, 1 - d1], [1, 0, d2], [1 - d1, d2, 0]])
    _assert_enumeration_matches_loop(space, _exhaustive(space))
    _assert_enumeration_matches_loop(space, _exhaustive(space), eps=2e-9)


def test_enumeration_matches_loop_on_overlapping_clusters():
    _assert_enumeration_matches_loop(ROW_COLUMN_SPACE,
                                     _exhaustive(ROW_COLUMN_SPACE))
    maps = _exhaustive(OVERLAPPING_SPACE)
    assert [r for c, r in enumerate_circles(OVERLAPPING_SPACE, 0.1)
            if c == "c"] == [0.0, 1.0, 1.12]
    _assert_enumeration_matches_loop(OVERLAPPING_SPACE, maps, eps=0.1)
    _assert_enumeration_matches_loop(OVERLAPPING_SPACE, maps)


def _analytic_spaces():
    # 1.004 is within 0.01 of the unit circle about 0 but not on it
    reals = [k / 8 for k in range(-16, 17)] + [1.004]
    plane = list(circle_samples(0, 1.0, 24)) + [
        complex(x, y) / 4 for x in range(-4, 5) for y in range(-4, 5)] + [1.004]
    return [MetricSpace.analytic(kind, plane if kind == "complex_usual"
                                 else reals)
            for kind in ANALYTIC_KINDS]


@pytest.mark.parametrize("space", _analytic_spaces(),
                         ids=lambda s: s.kind)
@pytest.mark.parametrize("eps", [EPS, 0.01, 0.0])
def test_enumeration_matches_loop_on_analytic_kinds(space, eps):
    zero = 0j if space.kind == "complex_usual" else 0.0
    circle = circle_of(space, zero, 1.0, eps)
    maps = [SelfMap.identity(space), SelfMap.constant(space, zero),
            build_circle_fixing_map(space, circle, eps=eps)]
    if space.kind != "complex_usual":
        maps.append(SelfMap.from_rule(space, ("reciprocal",)))
    _assert_enumeration_matches_loop(space, maps, eps)


def test_complex_identity_fixes_every_realized_circle_at_zero_tolerance():
    # a radius and its member window come from one row, so no realized
    # circle misses its own window by the last bit
    space = MetricSpace.analytic("complex_usual",
                                 circle_samples(0.3 + 0.1j, 1.7, 60))
    found = enumerate_fixed_circles(space, SelfMap.identity(space), eps=0.0)
    realized = [(c, r) for c, r in enumerate_circles(space, 0.0) if r > 0]
    assert len(realized) > 3000
    assert [(c.center, c.radius) for c in found] == realized


def _counting_apply():
    """A stand-in for SelfMap.apply that records each point applied."""
    apply = SelfMap.apply
    calls = []

    def counted(self, x, eps=None):
        calls.append(x)
        return apply(self, x, eps=eps)
    return calls, counted


@pytest.mark.parametrize("space", [
    random_metric_space(GenConfig(seed=11, size=24)), *_analytic_spaces()],
    ids=["finite", *ANALYTIC_KINDS])
def test_enumeration_applies_the_map_once_per_point(space):
    # once per carrier point where circles are sets of carrier points,
    # once per distinct member on the real kinds
    realized = [circle_of(space, c, r) for c, r in enumerate_circles(space)]
    bound = len(space.points())
    if space.kind not in (None, "complex_usual"):
        bound = len({m for circle in realized for m in circle.members})
    tmaps = [SelfMap.identity(space),
             build_circle_fixing_map(space, realized[5])]
    calls, counted = _counting_apply()
    for tmap in tmaps:
        calls.clear()
        with mock.patch.object(SelfMap, "apply", counted):
            found = enumerate_fixed_circles(space, tmap)
        assert found
        assert len(calls) <= bound


def test_uniqueness_verdicts_share_one_enumeration():
    # A finite map is never applied: the verdicts and the enumeration read
    # its table as indices. The three uniqueness verdicts and a direct
    # call read one enumeration.
    space = random_metric_space(GenConfig(seed=11, size=24))
    circle = circle_of(space, space.points()[0],
                       float(space.as_array[0, 23]))
    tmap = build_circle_fixing_map(space, circle)
    calls, counted = _counting_apply()
    made = mock.Mock(wraps=metric_core._fixed_circles)
    with mock.patch.object(SelfMap, "apply", counted), \
            mock.patch.object(metric_core, "_fixed_circles", made):
        verdicts = [verify_uniqueness(space, tmap, circle, variant)
                    for variant in ("C3", "C3_ON_STAR", "C3_DSTAR")]
        found = enumerate_fixed_circles(space, tmap)
    assert calls == [] and made.call_count == 1
    assert found and all(v.fixed_circles == found for v in verdicts)
    assert found == tuple(c for c in _reference_fixed_circles(space, tmap)
                          if not c.degenerate)


@pytest.mark.parametrize("space", [
    random_metric_space(GenConfig(seed=7, size=9)), *_analytic_spaces()],
    ids=["finite", *ANALYTIC_KINDS])
def test_enumeration_memo_keeps_the_last_space_and_tolerance(space):
    # One map asked at changing tolerances and over an equal space that
    # is another object: every answer is the plain loop's, the map is
    # enumerated again exactly when the (space, eps) differs from the last
    # call's (and applied again then, unless a finite map, whose table is
    # read), and the map keeps one record, holding that (space, eps) and
    # its enumeration.
    twin = (MetricSpace.finite(space.points(), space.matrix)
            if space.is_finite
            else MetricSpace.analytic(space.kind, space.points()))
    assert twin == space and twin is not space
    tmap = SelfMap.constant(space, space.points()[0])
    calls, counted = _counting_apply()
    made = mock.Mock(wraps=metric_core._fixed_circles)
    for target, eps, fresh in [(space, EPS, True), (space, EPS, False),
                               (space, 0.25, True), (space, EPS, True),
                               (twin, EPS, True), (twin, EPS, False),
                               (space, EPS, True)]:
        want = _reference_fixed_circles(target, tmap, eps)
        calls.clear()
        made.reset_mock()
        with mock.patch.object(SelfMap, "apply", counted), \
                mock.patch.object(metric_core, "_fixed_circles", made):
            got = {flag: enumerate_fixed_circles(target, tmap, flag, eps)
                   for flag in (True, False, True)}
        assert made.call_count == fresh, (target is twin, eps)
        assert bool(calls) == (fresh and not space.is_finite), \
            (target is twin, eps)
        record = tmap._last
        assert record["space"] is target and record["eps"] == eps
        assert "circles" in record
        for flag, expected in [(True, want), (False, tuple(
                c for c in want if not c.degenerate))]:
            assert got[flag] == expected and repr(got[flag]) == repr(
                expected), (target is twin, eps, flag)


# ---------------------------------------------------------------------------
# Banach and Caristi baselines


def test_banach_finite_exact():
    space = MetricSpace.finite(("p", "q", "s"),
                               [[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    const = SelfMap.constant(space, "p")
    v = verify_banach(space, const)
    assert v.hypotheses_hold and v.conclusion_holds
    ident = SelfMap.identity(space)
    v2 = verify_banach(space, ident)
    assert not v2.hypotheses_hold and v2.consistent


def test_banach_analytic_weakens_to_uniqueness():
    # T x = x/2 contracts, but its fixed point 0 need not be a sample;
    # the analytic conclusion is "at most one fixed sample"
    space = MetricSpace.analytic("real_usual", (1.0, 2.0))
    halve = SelfMap.piecewise(space, (), ("constant", 1.0))
    # build an honest contraction via a piecewise table on samples:
    # 1 -> 1, 2 -> 1 is a contraction with a fixed sample
    v = verify_banach(space, halve)
    assert v.consistent
    assert any("sample" in c for c in v.caveats)


def test_caristi_finite_and_analytic():
    space = MetricSpace.finite(("p", "q"), [[0, 1], [1, 0]])
    phi = phi_canonical(space, "p")
    const = SelfMap.constant(space, "p")
    v = verify_caristi(space, const, phi)
    assert v.hypotheses_hold and v.conclusion_holds and v.consistent

    # analytic: absence of a fixed sample is not a refutation, so the
    # conclusion stays un-falsified with a caveat
    aspace = MetricSpace.analytic("real_usual", (1.0, 2.0))
    aphi = phi_canonical(aspace, 0.0)
    tohalf = SelfMap.piecewise(aspace, (), ("constant", 0.5))
    va = verify_caristi(aspace, tohalf, aphi)
    assert va.conclusion_holds and va.consistent
    assert any("refutation" in c for c in va.caveats)


def test_each_pinned_verdict_is_its_ids_verdict():
    for entry_id in ("EX_2_5", "EX_2_12", "EX_2_16", "PROP_3_1"):
        entry = load_entry(entry_id)
        space, tmap = entry.space, entry.tmap
        for circle in entry.circles:
            def by_id(tid):
                return repr(verify_theorem(tid, space, tmap, circle))
            for table, fn in ((verifier.EXISTENCE_VARIANTS, verify_existence),
                              (verifier.UNIQUENESS_VARIANTS,
                               verify_uniqueness)):
                for variant, (tid, _) in table.items():
                    assert repr(fn(space, tmap, circle, variant)) \
                        == by_id(tid), (entry_id, variant)
            assert repr(verify_identity_theorem(space, tmap, circle)) \
                == by_id("T_IDENTITY")
            assert repr(verify_banach(space, tmap)) == by_id("T_BANACH")
            phi = phi_canonical(space, circle.center)
            assert repr(verify_caristi(space, tmap, phi)) \
                == by_id("T_CARISTI")


def test_theorems_needing_a_circle_refuse_none():
    space = MetricSpace.finite(("p", "q"), [[0, 1], [1, 0]])
    ident = SelfMap.identity(space)
    for tid in THEOREM_IDS:
        if tid == "T_BANACH":
            assert verify_theorem(tid, space, ident).consistent
        else:
            with pytest.raises(DomainError):
                verify_theorem(tid, space, ident)
    with pytest.raises(DomainError):
        verify_existence(space, ident, None, "C1C2")
    phi = phi_canonical(space, "p")
    assert verify_theorem("T_CARISTI", space, ident, phi=phi).consistent
    for tid in set(THEOREM_IDS) - {"T_CARISTI"}:    # only CARISTI reads phi
        with pytest.raises(DomainError, match="reads no phi"):
            verify_theorem(tid, space, ident, circle_of(space, "p", 1.0),
                           phi=phi)


# ---------------------------------------------------------------------------
# Tolerance repros: near-ties that the verdicts still call falsified. They
# pass once a verdict is decided again on the exact distances (ROADMAP
# item 1).

_NEAR_TIE_DSTAR = ([[0, 1.4999999998570792, 1.499999999847475],
                    [1.4999999998570792, 0, 2.000000000867538],
                    [1.499999999847475, 2.000000000867538, 0]],
                   1.499999999847475, [0, 0, 2])
_NEAR_TIE_C1C2 = ([[0, 1, 1 - 5e-10], [1, 0, 1.4e-9], [1 - 5e-10, 1.4e-9, 0]],
                  1.0, [0, 2, 2])


@pytest.mark.xfail(strict=True, reason="tolerance stacking: no exact "
                   "re-check of a falsification yet")
@pytest.mark.parametrize("repro,tid", [
    (_NEAR_TIE_DSTAR, "T_EXIST_DSTAR"), (_NEAR_TIE_C1C2, "T_EXIST_C1C2"),
    (_NEAR_TIE_C1C2, "T_EXIST_DSTAR")], ids=["DSTAR", "C1C2", "C1C2-DSTAR"])
def test_near_tie_repro_is_consistent(repro, tid):
    matrix, radius, images = repro
    space = MetricSpace.finite(("a", "x", "y"), matrix)
    tmap = SelfMap.from_indices(space, images)
    verdict = verify_theorem(tid, space, tmap, circle_of(space, "a", radius))
    assert verdict.consistent


# ---------------------------------------------------------------------------
# Sweep


def test_soundness_sweep_small_run():
    rep = soundness_sweep(space_count=30, sizes=(2, 3, 4, 5),
                          maps_per_space=25)
    assert rep.sound
    assert rep.spaces_checked == 30
    assert rep.maps_checked > 0
    assert rep.verdicts_checked >= rep.maps_checked
    assert rep.elapsed_seconds < 30


def test_sweep_is_seeded():
    a = soundness_sweep(space_count=6, sizes=(3, 4), maps_per_space=10,
                        seed=777)
    b = soundness_sweep(space_count=6, sizes=(3, 4), maps_per_space=10,
                        seed=777)
    assert (a.spaces_checked, a.maps_checked, a.verdicts_checked) == \
        (b.spaces_checked, b.maps_checked, b.verdicts_checked)


def _assert_sweep_calls_match_one_space_calls(**sweep):
    """Each stacked theorem_flags call a sweep makes equals, on every
    (space, circle, map) row, the one-space call on that space's rows."""
    kernel, calls = verifier.theorem_flags, []

    def recorded(D, maps, centers, radii, eps, space):
        flags = kernel(D, maps, centers, radii, eps, space)
        calls.append((D, maps, centers, radii, space, flags))
        return flags
    with mock.patch.object(verifier, "theorem_flags", recorded):
        rep = soundness_sweep(**sweep)
    assert rep.sound and rep.disagreements == ()
    for D, maps, centers, radii, space, flags in calls:
        _assert_stack_matches_one_space_calls(D, maps, centers, radii, space,
                                              flags)
    assert sum(len(D) for D, *_ in calls) == sweep["space_count"]
    return calls


def _assert_stack_matches_one_space_calls(D, maps, centers, radii, space,
                                          flags):
    for t in range(len(D)):
        rows = space == t
        alone = theorem_flags(D[t], maps[rows], centers[:, t], radii[:, t],
                              EPS)
        for tid in THEOREM_IDS:
            for side in (0, 1):
                assert np.array_equal(flags[tid][side][:, rows],
                                      alone[tid][side]), (tid, side, t)


def test_stacked_call_matches_one_space_calls_with_uneven_circles():
    # one slot's circles have 3 members (the discrete metric), 1 or none
    # (the uniqueness rule), another's 1 or 3, over chunks of 10 maps
    # that cross the spaces' boundaries at 20 and 45
    n = 4
    D = np.stack([np.ones((n, n)) - np.eye(n)]
                 + [random_metric_space(GenConfig(seed=s, size=n)).as_array
                    for s in (8, 9)])
    centers = np.array([[0, 1, 2], [3, 0, 1]])
    radii = np.array([[1.0, D[1, 1, 2], 9.0], [1.0, D[1, 0, 3], 0.0]])
    rng = np.random.default_rng(4)
    maps = rng.integers(0, n, size=(62, n)).astype(np.intp)
    maps[[0, 20, 45]] = np.arange(n)
    space = np.repeat([0, 1, 2], [20, 25, 17])
    with mock.patch.object(conditions, "_PAIR_BLOCK", 10 * n * n):
        flags = theorem_flags(D, maps, centers, radii, EPS, space)
    _assert_stack_matches_one_space_calls(D, maps, centers, radii, space,
                                          flags)


def test_grouped_sweep_matches_one_space_calls_across_sizes():
    # sizes 1 (one realized circle), 2, 3 and 5 in groups of three
    # spaces; chunks of 40 maps at 5 points, 111 at 3, 250 at 2 and 1000
    # at 1, so that in every group some chunk spans several spaces
    with mock.patch.object(conditions, "_PAIR_BLOCK", 40 * 5 * 5):
        calls = _assert_sweep_calls_match_one_space_calls(
            space_count=12, sizes=(1, 2, 3, 5), maps_per_space=100, seed=11)
    assert sorted(len(maps[0]) for _, maps, *_ in calls) == [1, 2, 3, 5]
    assert [len(centers) for _, maps, centers, *_ in calls
            if maps.shape[1] == 1] == [1]
    for D, maps, *_, space, _ in calls:
        rows = conditions.batch_rows(maps.shape[1])
        assert any(len(set(space[k:k + rows])) > 1
                   for k in range(0, len(maps), rows))


def test_grouped_sweep_matches_one_space_calls_at_128_points():
    # 16 maps per chunk at 128 points: the chunk across the two spaces'
    # boundary holds rows of both
    calls = _assert_sweep_calls_match_one_space_calls(
        space_count=2, sizes=(128,), maps_per_space=40, seed=5)
    ((D, maps, *_, space, _),) = calls
    assert conditions.batch_rows(128) == 16 and len(D) == 2
    boundary = int(np.flatnonzero(space == 1)[0])
    assert boundary % 16 != 0


def _slipped_sweep(slip, at=0):
    """A small sweep whose kernel has hyp & ~concl of T_EXIST_C1C2 forced
    by ``slip(hyp, concl, maps, k)`` on the rows of space ``at`` of its
    first size group's stacked call over k circle slots; returns the
    report and that space's (maps, centers, radii)."""
    kernel = verifier.theorem_flags
    calls = []

    def slipped(D, maps, centers, radii, eps, space):
        flags = kernel(D, maps, centers, radii, eps, space)
        if not calls:
            rows = np.flatnonzero(space == at)
            cut = slice(rows[0], rows[-1] + 1)
            hyp, concl = flags["T_EXIST_C1C2"]
            slip(hyp[:, cut], concl[:, cut], maps[cut], len(centers))
            calls.append((maps[cut], centers[:, at], radii[:, at]))
        return flags
    with mock.patch.object(verifier, "theorem_flags", slipped):
        rep = soundness_sweep(space_count=3, sizes=(3,), maps_per_space=5)
    return rep, calls[0]


def test_sweep_reports_a_kernel_slip_as_a_disagreement():
    # a kernel hit the per-instance verdict calls consistent is a fault of
    # the kernel, not a falsification of the theorem
    def slip(hyp, concl, maps, k):
        hyp[0, 0], concl[0, 0] = True, False
    rep, (maps, _, _) = _slipped_sweep(slip)
    assert rep.sound and rep.falsifications == ()
    (event,) = rep.disagreements
    assert event.theorem_id == "T_EXIST_C1C2"
    assert event.images == tuple(int(v) for v in maps[0])
    assert event.verdict.consistent


def test_sweep_skips_a_slip_on_another_circles_fixing_row():
    # the stack ends with one fixing row per circle: circle 0's verdicts
    # do not cover circle 1's row, circle 1's own verdicts do
    def slip(hyp, concl, maps, k):
        row = maps.shape[0] - k + 1
        hyp[:2, row], concl[:2, row] = True, False
    rep, (maps, centers, radii) = _slipped_sweep(slip)
    assert len(centers) == 3
    assert rep.sound and rep.falsifications == ()
    (event,) = rep.disagreements
    assert event.theorem_id == "T_EXIST_C1C2"
    assert event.images == tuple(int(v) for v in maps[-2])
    assert (event.space.index_of(event.center), event.radius) == \
        (centers[1], radii[1])
    assert event.verdict.consistent


def test_sweep_maps_a_slip_back_to_its_space_circle_and_map():
    # a slip on the last space of the size group, on one map row and one
    # circle slot, names that space, that map and that circle
    def slip(hyp, concl, maps, k):
        hyp[2, 3], concl[2, 3] = True, False
    rep, (maps, centers, radii) = _slipped_sweep(slip, at=2)
    assert rep.sound and rep.falsifications == ()
    (event,) = rep.disagreements
    first, drawn = (random_metric_space(GenConfig(
        seed=20250817 * 1_000_003 + i, size=3)) for i in (0, 2))
    assert not np.array_equal(first.as_array, drawn.as_array)
    assert np.array_equal(event.space.as_array, drawn.as_array)
    assert event.images == tuple(int(v) for v in maps[3])
    assert (event.space.index_of(event.center), event.radius) == \
        (centers[2], radii[2])
    assert event.verdict.consistent


def test_structured_maps_rows():
    # the circle (1, 1.0) has members 0 and 2; 3 is the farthest off it
    D = np.zeros((4, 4))
    D[1] = [1.0, 0.0, 1.0, 3.0]
    rows = _structured_maps(D, [1], [1.0], EPS)
    assert rows.dtype == np.intp
    assert rows.tolist() == [[0, 1, 2, 3], [0, 0, 0, 0], [1, 1, 1, 1],
                             [2, 2, 2, 2], [3, 3, 3, 3], [0, 3, 2, 3]]
    # one fixing row per circle, in order: (1, 3.0) has the member 3
    rows = _structured_maps(D, [1, 1], [1.0, 3.0], EPS)
    assert rows[-2:].tolist() == [[0, 3, 2, 3], [1, 1, 1, 3]]
