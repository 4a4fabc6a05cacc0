"""Condition checker tests.

The main safety net is a differential check: every report of
check_condition, field by field, and every batch atom of
condition_flags is compared against a plain-loop reimplementation of
the defining inequalities, written here from the definitions rather
than shared with the engine.
"""

import gc
import itertools
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixedcircle.conditions import (CONDITION_IDS, ConditionReport, PhiMap,
                                    _OneMap, check_banach,
                                    check_c1, check_c1_star,
                                    check_c2, check_c2_dstar, check_c2_star,
                                    check_c3, check_c3_dstar, check_caristi,
                                    check_condition, check_conditions,
                                    check_identity_condition, check_rhoades,
                                    condition_flags, member_mask,
                                    phi_canonical)
from fixedcircle.errors import DomainError
from fixedcircle.gallery import list_entries, load_entry
from fixedcircle.generators import (GenConfig, build_circle_fixing_map,
                                    random_metric_space)
from fixedcircle.metric_core import (MetricSpace, SelfMap, circle_of,
                                     enumerate_circles,
                                     enumerate_fixed_circles, is_fixed_circle,
                                     validate_metric)
from fixedcircle.verifier import THEOREM_IDS, verify_theorem

EPS = 1e-9


def _space_from_seed(seed, size):
    return random_metric_space(GenConfig(seed=seed, size=size))


def _maps_of(space):
    """All table maps on a small finite space."""
    pts = space.points()
    for images in itertools.product(pts, repeat=len(pts)):
        yield SelfMap.from_table(space, dict(zip(pts, images)))


def _some_circle(space):
    pairs = [p for p in enumerate_circles(space) if p[1] > EPS]
    center, radius = pairs[len(pairs) // 2]
    return circle_of(space, center, radius)


# ---------------------------------------------------------------------------
# Plain-loop oracle, straight from the definitions


_MEMBER_IDS = ("C1", "C2", "C1_STAR", "C2_STAR", "C1_DSTAR", "C2_DSTAR")


def _oracle(cid, space, t, circle, eps=EPS, phi=None):
    """The report of one condition on one map by a plain loop over its
    tuples: the margin is the first strictly smallest slack, its tuple
    the witness. The off-circle points are those whose distance to the
    center misses the radius by more than eps. ``phi`` is CARISTI's
    weight (canonical when None)."""
    d, c, r = space.distance, circle.center, circle.radius
    weight = phi.at if phi is not None else (lambda x: d(x, c))
    pts = space.points()
    off = [y for y in pts if abs(d(y, c) - r) > eps]
    if cid in _MEMBER_IDS:
        tuples = [(x,) for x in circle.members]
        note = "empty circle: holds vacuously"
    elif cid in ("C3", "C3_DSTAR"):
        tuples = [(x, y) for x in circle.members for y in off]
        note = "no (member, off-circle) pair to check"
    elif cid in ("BANACH", "RHOADES"):
        tuples = list(itertools.combinations(pts, 2))
        note = "fewer than two points"
    else:
        tuples, note = [(x,) for x in pts], None
    caveat = circle.resolution == "sampled" or (
        cid not in _MEMBER_IDS and not space.is_finite)
    if not tuples and note:
        return ConditionReport(cid, True, math.inf, None, None, 0, caveat,
                               True, (note,))
    # the margin conditions: slack of (x, Tx, d(x, Tx), d(Tx, c)) >= -eps
    weak = {"C1": lambda x, tx, dx, dtc: d(x, c) - dtc - dx,
            "C1_DSTAR": lambda x, tx, dx, dtc: d(x, c) - dtc - dx,
            "C2": lambda x, tx, dx, dtc: dtc - r,
            "C1_STAR": lambda x, tx, dx, dtc: d(x, c) + dtc - 2 * r - dx,
            "C2_STAR": lambda x, tx, dx, dtc: r - dtc,
            "CARISTI": lambda x, tx, dx, dtc: weight(x) - weight(tx) - dx}
    holds, margin, witness, ratios = True, math.inf, None, [0.0]
    for tup in tuples:
        x = tup[0]
        tx = t.apply(x, eps=eps)
        dx, dtc = d(x, tx), d(tx, c)
        if cid in weak:
            slack = weak[cid](x, tx, dx, dtc)
            ok = slack >= -eps
        elif cid == "C2_DSTAR":
            # some h in [0, 1) with h d(x, Tx) + d(Tx, c) >= r
            if dx <= eps:
                slack = dtc - r
                ok = slack >= -eps
            else:
                slack = dx + dtc - r
                ok = r - dtc < dx
                ratios.append((r - dtc) / dx)
        elif cid == "ID_COND":
            # some h > 1 with d(x, Tx) <= (phi(x) - phi(Tx)) / h; the
            # slack is the best h a moved point leaves
            if dx <= eps:
                continue
            gain = d(x, c) - dtc
            ok = gain - dx > eps
            slack = gain / dx
        else:
            y = tup[1]
            ty = t.apply(y, eps=eps)
            dxy, dtt = d(x, y), d(tx, ty)
            if cid in ("C3", "BANACH"):
                # some h in [0, 1) with d(Tx, Ty) <= h d(x, y)
                slack = dxy - dtt
                ok = dtt <= eps if dxy <= eps else dtt < dxy
                if dxy > eps:
                    ratios.append(dtt / dxy)
            else:
                five = max(dxy, dx, d(y, ty), d(x, ty), d(y, tx))
                slack = five - dtt
                ok = slack > eps
        holds = holds and ok
        if slack < margin:
            margin, witness = slack, tup
    derived = max(ratios) if cid in ("C2_DSTAR", "C3", "BANACH") else None
    if cid == "ID_COND":
        derived, margin = margin, margin - 1 if math.isfinite(margin) else math.inf
    notes = ("phi assumed lower semicontinuous",) if cid == "CARISTI" else ()
    return ConditionReport(cid, holds, margin, witness, derived, len(tuples),
                           caveat, False, notes)


def _exact(rep):
    """A report's fields with every float as float.hex and the witness
    as its repr, so a test sees each bit, the sign of zero included."""
    fields = dict(vars(rep), witness=repr(rep.witness))
    for name in ("margin", "derived_param"):
        if fields[name] is not None:
            fields[name] = float(fields[name]).hex()
    return fields


@pytest.mark.parametrize("seed", [3, 17, 40, 71, 99])
def test_margins_match_plain_loops(seed):
    space = _space_from_seed(seed, 5)
    circle = _some_circle(space)
    maps = itertools.islice(_maps_of(space), 0, 3125, 41)
    for t in maps:
        for cid in CONDITION_IDS:
            assert _exact(check_condition(cid, space, t, circle=circle)) \
                == _exact(_oracle(cid, space, t, circle)), cid


@pytest.mark.parametrize("entry_id,k", [
    ("EX_2_12", 0), ("EX_2_12", 2), ("EX_2_16", 0), ("EX_2_8", 0),
    ("EX_2_19", 0), ("EX_3_4", 1)])
def test_analytic_reports_match_plain_loops(entry_id, k):
    # images off the sample set: the reciprocal branch of EX_2_12 and the
    # complex reciprocal of EX_2_8; members off it: EX_2_16's ln 2 on the
    # real_exp carrier; a user weight for CARISTI
    entry = load_entry(entry_id)
    circle = entry.circles[k]
    for cid in CONDITION_IDS:
        assert _exact(check_condition(cid, entry.space, entry.tmap,
                                      circle=circle)) \
            == _exact(_oracle(cid, entry.space, entry.tmap, circle)), cid
    phi = PhiMap("abs", abs)
    assert _exact(check_caristi(entry.space, entry.tmap, phi)) == _exact(
        _oracle("CARISTI", entry.space, entry.tmap, circle, phi=phi))


# ---------------------------------------------------------------------------
# One image table per map


def test_checks_and_verdicts_apply_the_map_once_per_sample():
    # The 12 checks and the 9 verdicts of a 96-sample piecewise map read
    # one image table: the map is applied once at each sample, and besides
    # only at the circle's members off the samples. The uniqueness
    # verdicts' enumeration, which applies the map on its own, is made
    # first.
    samples = [k / 64 for k in range(-48, 48)]
    space = MetricSpace.analytic("real_usual", samples)
    circle = circle_of(space, samples[40], samples[60] - samples[40])
    tmap = build_circle_fixing_map(space, circle)
    enumerate_fixed_circles(space, tmap)
    apply, calls = SelfMap.apply, []

    def counted(self, x, eps=None):
        calls.append(x)
        return apply(self, x, eps=eps)
    with mock.patch.object(SelfMap, "apply", counted):
        for cid in CONDITION_IDS:
            check_condition(cid, space, tmap, circle=circle)
        for tid in THEOREM_IDS:
            verify_theorem(tid, space, tmap, circle)

    def among(x, points):
        return any(x is p for p in points)
    at_samples = [x for x in calls if among(x, samples)]
    assert sorted(at_samples) == sorted(space.points())
    assert all(among(x, circle.members) for x in calls
               if not among(x, samples))
    members = len(CONDITION_IDS + THEOREM_IDS) * len(circle.members)
    assert len(calls) <= len(samples) + members


def test_a_finite_map_needs_its_images_in_the_space_checked():
    # the table does not take an unknown label as a point off the carrier
    space = MetricSpace.finite(("p", "q", "s"),
                               [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    other = MetricSpace.finite(("p", "q", "t"), space.matrix)
    tmap = SelfMap.from_table(space, {"p": "s", "q": "q", "s": "p"})
    for _ in range(2):
        with pytest.raises(DomainError):
            check_condition("BANACH", other, tmap)
    assert "images" not in tmap._last


def test_a_constant_image_off_the_samples_is_one_point():
    space = MetricSpace.analytic("real_usual", [k / 8 for k in range(-16, 17)])
    tmap = SelfMap.constant(space, 0.3)
    assert _OneMap(space, tmap).pts == [*space.points(), 0.3]
    circle = circle_of(space, 0.0, 1.0)
    for cid in CONDITION_IDS:
        assert _exact(check_condition(cid, space, tmap, circle=circle)) \
            == _exact(_oracle(cid, space, tmap, circle)), cid


# ---------------------------------------------------------------------------
# Hand instances with exact margins


@pytest.fixture
def line_circle():
    space = MetricSpace.analytic("real_usual", (-2.0, 2.0, 0.0, 1.0, 5.0))
    return space, circle_of(space, 0.0, 2.0)


def test_c1_c2_on_identity(line_circle):
    space, circle = line_circle
    ident = SelfMap.identity(space)
    assert check_c1(space, ident, circle).margin == 0.0
    assert check_c2(space, ident, circle).margin == 0.0
    assert check_c1(space, ident, circle).holds


def test_c2_fails_with_witness_at_minimum(line_circle):
    space, circle = line_circle
    to_center = SelfMap.constant(space, 0.0)
    rep = check_c2(space, to_center, circle)
    assert not rep.holds
    assert rep.margin == -2.0
    assert rep.witness == (-2.0,)   # first member attains the minimum


def test_c1_star_exact_boundary(line_circle):
    space, circle = line_circle
    # send both members to the interior point 1: d(x,Tx)=phi+phiT-2r
    # fails (margin < 0) while C2* holds with slack 1
    t = SelfMap.constant(space, 1.0)
    assert check_c1_star(space, t, circle).margin == pytest.approx(-4.0)
    rep = check_c2_star(space, t, circle)
    assert rep.holds and rep.margin == pytest.approx(1.0)


def test_c2_dstar_boundary_needs_h_below_one(line_circle):
    space, circle = line_circle
    # images on the circle: required h is exactly 0
    t = SelfMap.constant(space, 2.0)
    rep = check_c2_dstar(space, t, circle)
    assert rep.holds and rep.derived_param == 0.0
    # image at the center: moving members would need h = 1, so it fails
    t2 = SelfMap.constant(space, 0.0)
    rep2 = check_c2_dstar(space, t2, circle)
    assert not rep2.holds and rep2.derived_param == pytest.approx(1.0)


def test_c2_implies_c2_dstar():
    for seed in (5, 23, 58):
        space = _space_from_seed(seed, 5)
        circle = _some_circle(space)
        for t in itertools.islice(_maps_of(space), 0, 3125, 97):
            if check_c2(space, t, circle).holds:
                assert check_c2_dstar(space, t, circle).holds


def test_caristi_restricts_to_c1():
    # with the canonical weight, the Caristi inequality restricted to
    # circle members is literally C1, so global Caristi forces C1 on
    # every realized circle
    for seed in (11, 29):
        space = _space_from_seed(seed, 4)
        for t in _maps_of(space):
            for center, radius in enumerate_circles(space):
                phi = phi_canonical(space, center)
                if check_caristi(space, t, phi).holds:
                    circle = circle_of(space, center, radius)
                    assert check_c1(space, t, circle).holds


def test_caristi_notes_semicontinuity(line_circle):
    space, circle = line_circle
    phi = phi_canonical(space, 0.0)
    rep = check_caristi(space, SelfMap.identity(space), phi)
    assert any("semicontinuous" in n for n in rep.notes)


def test_identity_condition_exhaustive_small():
    space = _space_from_seed(2, 3)
    center = space.points()[0]
    for t in _maps_of(space):
        rep = check_identity_condition(space, t, center)
        is_ident = all(t.apply(p) == p for p in space.points())
        assert rep.holds == is_ident


def test_identity_condition_derived_param(line_circle):
    space, _ = line_circle
    ident = SelfMap.identity(space)
    rep = check_identity_condition(space, ident, 0.0)
    assert rep.holds and rep.derived_param == math.inf
    const = SelfMap.constant(space, 0.0)
    rep2 = check_identity_condition(space, const, 0.0)
    assert not rep2.holds
    assert rep2.derived_param == pytest.approx(1.0)  # best ratio is h = 1


def test_rhoades_strict_inequality():
    space = _space_from_seed(7, 4)
    ident = SelfMap.identity(space)
    # identity: d(Tx,Ty) = d(x,y) = max term, never strictly below
    assert not check_rhoades(space, ident).holds
    p = space.points()[0]
    const = SelfMap.constant(space, p)
    assert check_rhoades(space, const).holds


def test_c3_vacuous_when_everything_is_on_circle():
    space = MetricSpace.finite(("p", "q"), [[0, 1], [1, 0]])
    circle = circle_of(space, "p", 1.0)
    swap = SelfMap.from_table(space, {"p": "q", "q": "p"})
    rep = check_c3(space, swap, circle)
    # members {q}, off-circle set {p}: q vs p is a real pair, so this
    # instance is not vacuous; shrink to the zero-radius circle instead
    assert rep.checked_count >= 1
    degenerate = circle_of(space, "p", 0.0)
    rep0 = check_c3(space, SelfMap.identity(space), degenerate)
    assert rep0.checked_count >= 1   # member p against off-circle q


def test_check_condition_dispatch(line_circle):
    space, circle = line_circle
    ident = SelfMap.identity(space)
    assert check_condition("c1", space, ident, circle=circle).holds
    with pytest.raises(DomainError):
        check_condition("C9", space, ident, circle=circle)
    with pytest.raises(DomainError):
        check_condition("C1", space, ident)    # circle-local, no circle


def test_phi_canonical_guards():
    space = MetricSpace.analytic("real_usual", (0.0, 1.0))
    with pytest.raises(DomainError):
        phi_canonical(MetricSpace.finite(("p",), [[0]]), "z")
    phi = phi_canonical(space, 0.0)
    assert phi.fn(1.0) == 1.0


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_identity_map_satisfies_weak_conditions(seed):
    space = _space_from_seed(seed, 4)
    circle = _some_circle(space)
    ident = SelfMap.identity(space)
    assert check_c1(space, ident, circle).holds
    assert check_c2(space, ident, circle).holds
    assert check_condition("C1_DSTAR", space, ident, circle=circle).holds
    assert check_c2_dstar(space, ident, circle).holds
    phi = phi_canonical(space, circle.center)
    assert check_caristi(space, ident, phi).holds


# ---------------------------------------------------------------------------
# Batch atoms and single-map reports against the oracle


ATOM_IDS = CONDITION_IDS + ("FIXED_CIRCLE",)

# A dyadic tolerance: with dyadic distances, a slack can land exactly on
# +-TIE_EPS, so every strict/weak comparison is exercised at its edge.
TIE_EPS = 2.0 ** -30


# Hand-made edges: the row and the column at the center straddle the
# circle's band; ID_COND's gain exceeds a displacement by exactly eps.
_HAND_MATRICES = {
    "row_col": [[0.0, 1.0, 1.0 - TIE_EPS / 2], [1.0, 0.0, 0.5],
                [1.0 - 1.5 * TIE_EPS, 0.5, 0.0]],
    "id_tie": [[0.0, 1.0, 0.0], [1.0 + TIE_EPS, 0.0, 1.0], [0.0, 1.0, 0.0]],
}


def _probe_matrix(kind, seed, n):
    """A distance matrix that puts the checkers' comparisons on edge.

    random:   a generated valid space.
    near_tie: distances 1, 1.5, 2 (tight triangles, ties at every
              strict comparison), each entry moved by 0 or +-TIE_EPS/2
              on its own, so the matrix is asymmetric within TIE_EPS.
    invalid:  values validate_metric rejects: zero or TIE_EPS off the
              diagonal, weight on it, asymmetry and broken triangles.
    """
    if kind in _HAND_MATRICES:
        return np.array(_HAND_MATRICES[kind])
    if kind == "random":
        return _space_from_seed(seed, n).as_array
    rng = np.random.default_rng(seed)
    if kind == "near_tie":
        base = rng.choice([1.0, 1.5, 2.0], size=(n, n))
        D = np.minimum(base, base.T) + rng.choice(
            [-0.5, 0.0, 0.5], size=(n, n)) * TIE_EPS
        np.fill_diagonal(D, 0.0)
        return D
    return rng.choice([0.0, TIE_EPS, 0.25, 1.0, 1.0 + TIE_EPS, 3.0],
                      size=(n, n))


def _probe_radii(D, ci):
    """Radii read off the row (circle_of's side) and the column (phi's
    side), each also moved by fractions of the tolerance, plus an empty
    circle."""
    seen = np.concatenate([D[ci], D[:, ci]])
    moved = np.concatenate([seen + f * TIE_EPS for f in (-1, -0.5, 0.5, 1)])
    return sorted({float(r) for r in np.concatenate([seen, moved, [7.0]])
                   if r >= 0})


@pytest.mark.parametrize("kind,seed,n", [
    (kind, seed, n) for kind in ("random", "near_tie", "invalid")
    for seed, n in ((1, 2), (2, 3), (3, 3), (4, 4))
] + [("row_col", 0, 3), ("id_tie", 0, 3)])
def test_condition_flags_match_scalar_checkers(kind, seed, n):
    eps = TIE_EPS
    D = _probe_matrix(kind, seed, n)
    space = MetricSpace.finite([f"p{i}" for i in range(n)], D.tolist())
    if kind in ("invalid", "id_tie"):
        assert not validate_metric(space, eps).valid
    maps = np.array(list(itertools.product(range(n), repeat=n)))
    if n == 4:
        maps = maps[::5]
    tmaps = [SelfMap.from_indices(space, row) for row in maps]
    pts = space.points()
    for ci in range(n):
        for radius in _probe_radii(space.as_array, ci):
            circle = circle_of(space, pts[ci], radius, eps)
            look = condition_flags(space.as_array, maps, ci, radius, eps,
                                   member_mask(space, circle))
            for k, tmap in enumerate(tmaps):
                for cid in CONDITION_IDS:
                    want = _oracle(cid, space, tmap, circle, eps)
                    assert bool(look(cid)[k]) == want.holds, (cid, ci, radius, k)
                    got = check_condition(cid, space, tmap, circle=circle,
                                          eps=eps)
                    assert _exact(got) == _exact(want), (cid, ci, radius, k)
                want = is_fixed_circle(tmap, circle, eps).holds
                assert bool(look("FIXED_CIRCLE")[k]) == want, (ci, radius, k)


def test_condition_flags_frees_its_arrays_without_the_collector():
    # a reference cycle through the lookup would keep every batch array
    # alive until the cyclic collector runs: memory then grows with use
    space = _space_from_seed(3, 4)
    maps = np.array(list(itertools.product(range(4), repeat=4)))
    gc.disable()
    try:
        circle = circle_of(space, space.points()[0], 0.5, EPS)
        look = condition_flags(space.as_array, maps, 0, 0.5, EPS,
                               member_mask(space, circle))
        refs = [weakref.ref(look(cid)) for cid in ATOM_IDS]
        del look
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# One operand source per request


def _requests():
    """(name, space, map, circle): every gallery circle, then seeded
    finite spaces of 2-10 points, up to three circles spread over the
    centers and three maps each."""
    for entry_id in list_entries():
        entry = load_entry(entry_id)
        for k, circle in enumerate(entry.circles):
            yield f"{entry_id} circle {k}", entry.space, entry.tmap, circle
    rng = np.random.default_rng(18)
    for size in range(2, 11):
        space = _space_from_seed(size, size)
        circles = enumerate_circles(space)
        for center, radius in circles[::len(circles) // 3 + 1]:
            for _ in range(3):
                tmap = SelfMap.from_indices(space, rng.integers(0, size, size))
                yield (f"n={size} {center} {radius} {tmap.table}", space,
                       tmap, circle_of(space, center, radius))


def test_one_request_reads_each_ids_own_report():
    for name, space, tmap, circle in _requests():
        got = check_conditions(CONDITION_IDS, space, tmap, circle=circle)
        want = [check_condition(cid, space, tmap, circle=circle)
                for cid in CONDITION_IDS]
        assert [_exact(r) for r in got] == [_exact(r) for r in want], name


def test_a_user_phi_is_read_by_caristi_alone():
    # C1, ID_COND and the other weighted rules read the canonical weight
    # in a request that hands CARISTI a weight of its own
    for name, space, tmap, circle in itertools.islice(_requests(), 0, None, 7):
        c = circle.center
        phi = PhiMap("shifted", lambda x: 2 * space.distance(x, c) + 1)
        got = check_conditions(("C1", "CARISTI", "ID_COND", "C3"), space,
                               tmap, circle=circle, phi=phi)
        want = [check_condition("C1", space, tmap, circle=circle),
                check_caristi(space, tmap, phi),
                check_condition("ID_COND", space, tmap, circle=circle),
                check_condition("C3", space, tmap, circle=circle)]
        assert [_exact(r) for r in got] == [_exact(r) for r in want], name
    # beside the canonical weight a user phi takes a second source; alone,
    # or beside ids reading no weight, it takes the request's only one
    with mock.patch("fixedcircle.conditions._OneMap",
                    wraps=_OneMap) as built:
        for ids, sources in ((("C1", "CARISTI"), 2), (("CARISTI",), 1),
                             (("BANACH", "CARISTI", "RHOADES"), 1)):
            built.reset_mock()
            check_conditions(ids, space, tmap, circle=circle, phi=phi)
            assert built.call_count == sources, ids


def test_a_request_is_checked_before_any_source_is_built():
    space = _space_from_seed(3, 4)
    tmap = SelfMap.identity(space)
    with mock.patch("fixedcircle.conditions._OneMap") as built:
        for ids in (("BANACH", "C9"), ("BANACH", "C1"), ("ID_COND",),
                    ("CARISTI",)):
            with pytest.raises(DomainError):
                check_conditions(ids, space, tmap)
            with pytest.raises(DomainError):    # ids read once
                check_conditions(iter(ids), space, tmap)
        assert check_conditions((), space, tmap) == []
    assert not built.called
    phi = PhiMap("one", lambda x: 1.0)
    rep, = check_conditions(("caristi",), space, tmap, phi=phi)
    assert rep.holds and rep.condition_id == "CARISTI"


_PINNED = {"C1": check_c1, "C2": check_c2, "C1_STAR": check_c1_star,
           "C2_STAR": check_c2_star, "C2_DSTAR": check_c2_dstar,
           "C3": check_c3, "C3_DSTAR": check_c3_dstar}


def test_each_pinned_checker_is_its_ids_check():
    for name, space, tmap, circle in itertools.islice(_requests(), 0, None, 5):
        def by_id(cid):
            return _exact(check_condition(cid, space, tmap, circle=circle))
        for cid, fn in _PINNED.items():
            assert _exact(fn(space, tmap, circle)) == by_id(cid), (name, cid)
        assert _exact(check_identity_condition(space, tmap, circle.center)) \
            == by_id("ID_COND"), name
        assert _exact(check_banach(space, tmap)) == by_id("BANACH"), name
        assert _exact(check_rhoades(space, tmap)) == by_id("RHOADES"), name
        phi = phi_canonical(space, circle.center)
        assert _exact(check_caristi(space, tmap, phi)) == by_id("CARISTI"), \
            name
