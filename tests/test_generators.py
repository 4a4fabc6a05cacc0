"""Generator and search tests: seeded space construction, anchor
selection, the circle-fixing recipes, and the counterexample search."""

import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixedcircle import conditions, generators
from fixedcircle.conditions import (CONDITION_IDS, check_c1, check_c1_star,
                                    check_c2, check_c2_star, check_condition)
from fixedcircle.errors import (AnchorSearchError, ConstraintViolationError,
                                DomainError, MalformedInputError)
from fixedcircle.generators import (GenConfig, build_circle_fixing_map,
                                    build_multi_circle_map, choose_anchor,
                                    random_metric_space, search_counterexample)
from fixedcircle.metric_core import (MetricSpace, SelfMap, circle_of,
                                     enumerate_circles, is_fixed_circle,
                                     validate_metric)
from fixedcircle.verifier import soundness_sweep

EPS = 1e-9


# ---------------------------------------------------------------------------
# random_metric_space


def test_generated_space_is_valid_at_size_20():
    space = random_metric_space(GenConfig(seed=42, size=20))
    rep = validate_metric(space)
    assert rep.valid and rep.point_count == 20


def test_generation_is_deterministic():
    a = random_metric_space(GenConfig(seed=7, size=9))
    b = random_metric_space(GenConfig(seed=7, size=9))
    assert a.matrix == b.matrix
    c = random_metric_space(GenConfig(seed=8, size=9))
    assert a.matrix != c.matrix


def test_positive_distances_off_diagonal():
    space = random_metric_space(GenConfig(seed=11, size=8))
    D = space.as_array
    off = D[~np.eye(8, dtype=bool)]
    assert off.min() > 0


def test_config_guards():
    with pytest.raises(MalformedInputError):
        GenConfig(seed=0, size=0)


def test_negative_seed_is_malformed():
    # numpy's generator refuses a negative seed with a bare ValueError;
    # GenConfig refuses it first, and with it a sweep's negative seed
    with pytest.raises(MalformedInputError, match="seed"):
        random_metric_space(GenConfig(seed=-1, size=3))
    with pytest.raises(MalformedInputError, match="seed"):
        soundness_sweep(2, seed=-1)


def test_size_one_space():
    space = random_metric_space(GenConfig(seed=0, size=1))
    assert validate_metric(space).valid
    assert space.points() == ("p0",)


# ---------------------------------------------------------------------------
# Anchor selection


@pytest.fixture
def star_space():
    # hub h at distance 2 from every leaf; leaves pairwise 4
    labels = ("h", "l1", "l2", "l3")
    m = [[0, 2, 2, 2], [2, 0, 4, 4], [2, 4, 0, 4], [2, 4, 4, 0]]
    return MetricSpace.finite(labels, m)


def test_choose_anchor_maximizes_slack(star_space):
    # constraint: distance to h differs from 2; the hub itself (slack 2)
    # beats every leaf (slack 0)
    got = choose_anchor(star_space, (("h", 2.0, "ne"),))
    assert got.value == "h"
    assert got.distances_to_centers[0].slack == pytest.approx(2.0)


def test_choose_anchor_tie_prefers_earliest(star_space):
    # all three leaves tie for distance-4 constraints; l1 wins by order
    got = choose_anchor(star_space, (("l2", 1.0, "ne"), ("l3", 1.0, "ne")))
    assert got.value in ("h", "l1")
    # strictly order-checking instance: every point has slack 1 for this
    space = MetricSpace.finite(("p", "q"), [[0, 3], [3, 0]])
    got2 = choose_anchor(space, (("p", 1.0, "ne"), ("q", 1.0, "ne")))
    assert got2.value == "p"


def test_choose_anchor_relations(star_space):
    exterior = choose_anchor(star_space, (("l1", 3.0, "gt"),))
    assert star_space.distance(exterior.value, "l1") > 3.0
    interior = choose_anchor(star_space, (("l1", 3.0, "lt"),))
    assert star_space.distance(interior.value, "l1") < 3.0


def test_choose_anchor_reports_blockers(star_space):
    # no point sits at distance > 10 from the hub
    with pytest.raises(AnchorSearchError) as err:
        choose_anchor(star_space, (("h", 10.0, "gt"),))
    assert err.value.blocked
    assert "admits 0 of 4" in err.value.blocked[0]


# ---------------------------------------------------------------------------
# Constructive recipes


def test_circle_fixing_map_fixes_and_satisfies(star_space):
    circle = circle_of(star_space, "h", 2.0)    # all three leaves
    tmap = build_circle_fixing_map(star_space, circle)
    assert is_fixed_circle(tmap, circle).holds
    c1 = check_c1(star_space, tmap, circle)
    c2 = check_c2(star_space, tmap, circle)
    assert c1.holds and c2.holds


def test_circle_fixing_map_star_pair_with_interior_anchor():
    space = MetricSpace.analytic("real_usual", (-2.0, 2.0, 0.0, 1.0))
    circle = circle_of(space, 0.0, 2.0)
    tmap = build_circle_fixing_map(space, circle, anchor=1.0)
    assert is_fixed_circle(tmap, circle).holds
    assert check_c1_star(space, tmap, circle).holds
    assert check_c2_star(space, tmap, circle).holds


def test_circle_fixing_map_rejects_on_circle_anchor(star_space):
    circle = circle_of(star_space, "h", 2.0)
    with pytest.raises(ConstraintViolationError):
        build_circle_fixing_map(star_space, circle, anchor="l1")


def test_circle_covering_carrier_yields_identity():
    space = MetricSpace.finite(("p", "q"), [[0, 1], [1, 0]])
    # the degenerate circle at p plus radius-1 circle cover everything;
    # a single radius-0 circle covers only p, so use both points' view:
    circle = circle_of(space, "p", 0.0)
    # members {p}; q is off the circle, so an anchor is needed and q
    # qualifies (distance 1 != 0)
    tmap = build_circle_fixing_map(space, circle)
    assert tmap.apply("p") == "p"
    # covering case: every point within one circle of the 1-point space
    solo = MetricSpace.finite(("only",), [[0]])
    cov = circle_of(solo, "only", 0.0)
    ident = build_circle_fixing_map(solo, cov)
    assert ident.apply("only") == "only"


def test_multi_circle_map_fixes_all(star_space):
    c1 = circle_of(star_space, "l1", 4.0)    # {l2, l3}
    c2 = circle_of(star_space, "h", 2.0)     # {l1, l2, l3}
    tmap = build_multi_circle_map(star_space, (c1, c2))
    assert is_fixed_circle(tmap, c1).holds
    assert is_fixed_circle(tmap, c2).holds


def test_multi_circle_map_needs_circles(star_space):
    with pytest.raises(MalformedInputError):
        build_multi_circle_map(star_space, ())


def test_multi_circle_anchor_must_avoid_every_circle():
    space = MetricSpace.analytic("real_usual", (-1.0, 1.0, 0.0, 3.0, 5.0))
    circles = (circle_of(space, 0.0, 1.0), circle_of(space, 0.0, 3.0))
    with pytest.raises(ConstraintViolationError):
        build_multi_circle_map(space, circles, anchor=3.0)
    ok = build_multi_circle_map(space, circles, anchor=5.0)
    for c in circles:
        assert is_fixed_circle(ok, c).holds


# ---------------------------------------------------------------------------
# Counterexample search


@pytest.fixture
def little():
    return random_metric_space(GenConfig(seed=5, size=3))


def _mid_circle(space):
    pairs = [p for p in enumerate_circles(space) if p[1] > EPS]
    center, radius = pairs[0]
    return circle_of(space, center, radius)


def test_search_finds_c1_without_c2(little):
    circle = _mid_circle(little)
    res = search_counterexample(little, circle, "C1 & !C2")
    assert res.status == "found"
    # the witness itself re-checks
    assert check_c1(little, res.found, circle).holds
    assert not check_c2(little, res.found, circle).holds


def test_search_finds_star_gap(little):
    circle = _mid_circle(little)
    res = search_counterexample(little, circle, "C2_STAR & !C1_STAR")
    assert res.status == "found"
    assert check_c2_star(little, res.found, circle).holds
    assert not check_c1_star(little, res.found, circle).holds


def test_search_exhausts_on_theorem_shaped_target(little):
    circle = _mid_circle(little)
    res = search_counterexample(little, circle,
                                "C1 & C2 & !FIXED_CIRCLE")
    assert res.exhausted
    assert res.evaluated == 27    # 3^3 table maps, exhaustively


def test_search_budget_zero(little):
    circle = _mid_circle(little)
    res = search_counterexample(little, circle, "C1", budget=0)
    assert res.exhausted and res.evaluated == 0


def test_search_random_mode_is_seeded():
    space = random_metric_space(GenConfig(seed=2, size=7))  # 7^7 > budget
    circle = _mid_circle(space)
    a = search_counterexample(space, circle, "C1 & !C2", budget=500, seed=9)
    b = search_counterexample(space, circle, "C1 & !C2", budget=500, seed=9)
    assert a.status == b.status and a.evaluated == b.evaluated
    if a.found is not None:
        assert a.found.table == b.found.table


def test_search_rejects_analytic_carriers():
    space = MetricSpace.analytic("real_usual", (0.0, 1.0))
    circle = circle_of(space, 0.0, 1.0)
    with pytest.raises(DomainError):
        search_counterexample(space, circle, "C1")


@pytest.mark.parametrize("expr", [
    "C1 &", "(C1 & C2", "C1 C2", "WAT", "C1 | | C2", "",
    # Python syntax beyond the target grammar
    "C1 # x", "C1 ~ C2", "C1 and C2", "C1.x", "1C1", "1and C1",
    # nested past the parser's depth
    pytest.param("!" * 3000 + "C1", id="3000_negations"),
    pytest.param(" & ".join(["C1"] * 3000), id="3000_term_conjunction"),
])
def test_search_rejects_malformed_targets(little, capsys, expr):
    circle = _mid_circle(little)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(MalformedInputError):
            search_counterexample(little, circle, expr)
    assert not caught, [str(w.message) for w in caught]
    assert capsys.readouterr().err == ""


def test_search_operator_semantics(little):
    circle = _mid_circle(little)
    # tautology finds the first map immediately
    res = search_counterexample(little, circle, "C1 | !C1")
    assert res.status == "found" and res.evaluated == 1
    # contradiction exhausts
    res2 = search_counterexample(little, circle, "C1 & !C1")
    assert res2.exhausted


# ---------------------------------------------------------------------------
# Chunked search against a one-candidate-at-a-time loop
#
# A target is a tree: an atom name, ("!", t), ("&", a, b) or ("|", a, b).

ATOMS = CONDITION_IDS + ("FIXED_CIRCLE",)


def _render(tree):
    if isinstance(tree, str):
        return tree
    if tree[0] == "!":
        return "!" + _render(tree[1])
    return f"({_render(tree[1])} {tree[0]} {_render(tree[2])})"


def _holds(tree, atom):
    if isinstance(tree, str):
        return atom(tree)
    if tree[0] == "!":
        return not _holds(tree[1], atom)
    if tree[0] == "&":
        return _holds(tree[1], atom) and _holds(tree[2], atom)
    return _holds(tree[1], atom) or _holds(tree[2], atom)


_RANK = {"|": 0, "&": 1, "!": 2}


def _render_tight(tree, rank=0):
    """_render with only the parentheses that precedence needs."""
    if isinstance(tree, str):
        return tree
    if tree[0] == "!":
        return "!" + _render_tight(tree[1], _RANK["!"])
    r = _RANK[tree[0]]
    text = (f"{_render_tight(tree[1], r)} {tree[0]} "
            f"{_render_tight(tree[2], r + 1)}")
    return f"({text})" if r < rank else text


def _lazy(tree, look):
    """A plain lazy evaluator over (m,) bool arrays: an & false everywhere,
    or an | true everywhere, does not look at its right operand."""
    if isinstance(tree, str):
        return look(tree)
    if tree[0] == "!":
        return ~_lazy(tree[1], look)
    left = _lazy(tree[1], look)
    if tree[0] == "&":
        return left & _lazy(tree[2], look) if left.any() else left
    return left if left.all() else left | _lazy(tree[2], look)


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        name = str(rng.choice(ATOMS))
        return name.lower() if rng.random() < 0.2 else name
    if rng.random() < 0.25:
        return ("!", _random_tree(rng, depth - 1))
    return (str(rng.choice(["&", "|"])), _random_tree(rng, depth - 1),
            _random_tree(rng, depth - 1))


def test_target_parser_matches_a_lazy_evaluator():
    rng = np.random.default_rng(20261018)
    m = 6
    for _ in range(400):
        tree = _random_tree(rng, int(rng.integers(1, 6)))
        # some atoms false or true everywhere, so the skips are exercised
        values = {}
        for name in ATOMS:
            kind = rng.integers(0, 3)
            values[name] = (np.full(m, bool(kind)) if kind < 2
                            else rng.integers(0, 2, m).astype(bool))

        def recorder(seen):
            def look(name):
                seen.append(name.upper())
                return values[name.upper()]
            return look
        want_seen = []
        want = _lazy(tree, recorder(want_seen))
        for j in range(m):
            assert want[j] == _holds(tree, lambda a: values[a.upper()][j])
        for text in (_render(tree), _render_tight(tree)):
            seen = []
            got = generators._parse_target(text)(recorder(seen))
            assert got.tolist() == want.tolist(), text
            assert seen == want_seen, text


def _brute_search(space, circle, tree, budget, seed):
    """(status, evaluated, table) of a scan that builds each candidate
    and asks the scalar checkers: exhaustive in itertools.product order
    when |X|**|X| fits the budget, else one seeded draw per candidate."""
    n = len(space.points())
    if n ** n <= budget:
        candidates = itertools.product(range(n), repeat=n)
    else:
        rng = np.random.default_rng(seed)
        candidates = (rng.integers(0, n, size=n) for _ in range(budget))
    evaluated = 0
    for images in candidates:
        tmap = SelfMap.from_indices(space, [int(v) for v in images])
        evaluated += 1

        def atom(name):
            if name == "FIXED_CIRCLE":
                return is_fixed_circle(tmap, circle).holds
            return check_condition(name, space, tmap, circle=circle).holds
        if _holds(tree, atom):
            return "found", evaluated, tmap.table
    return "exhausted", evaluated, None


def _chunked_search(space, circle, tree, budget, seed):
    res = search_counterexample(space, circle, _render(tree), budget=budget,
                                seed=seed)
    return (res.status, res.evaluated,
            None if res.found is None else res.found.table)


def _pair_block_for(chunk, n):
    """The _PAIR_BLOCK that makes the search use this chunk size at n."""
    return chunk * n * n


SEARCH_CASES = [
    # (space seed, n, target, budget, search seed, chunk)
    (5, 3, ("&", "C1", ("!", "C2")), 10 ** 6, 0, 4),         # exhaustive
    (5, 3, ("&", ("&", "C1", "C2"), ("!", "FIXED_CIRCLE")), 10 ** 6, 0, 4),
    (8, 4, ("&", "C3", ("!", "C3_DSTAR")), 10 ** 6, 0, 7),    # exhaustive
    (8, 4, ("|", "RHOADES", ("&", "ID_COND", "CARISTI")), 10 ** 6, 0, 7),
    (2, 5, ("&", "C2_DSTAR", ("!", "C1_DSTAR")), 301, 9, 7),  # sampled
    (2, 5, ("&", "BANACH", "C2_STAR"), 300, 3, 7),
    (6, 4, ("&", "C1", "C2"), 0, 0, 7),                       # budget 0
    (6, 4, ("&", "C1_STAR", ("!", "C2")), 100, 4, 7),         # 100 = 14*7+2
]


@pytest.mark.parametrize("space_seed,n,tree,budget,seed,chunk", SEARCH_CASES)
def test_chunked_search_matches_one_by_one(space_seed, n, tree, budget, seed,
                                           chunk):
    space = random_metric_space(GenConfig(seed=space_seed, size=n))
    for circle in (_mid_circle(space),
                   circle_of(space, space.points()[-1], 0.5)):
        want = _brute_search(space, circle, tree, budget, seed)
        with mock.patch.object(conditions, "_PAIR_BLOCK",
                               _pair_block_for(chunk, n)):
            assert _chunked_search(space, circle, tree, budget, seed) == want
        assert _chunked_search(space, circle, tree, budget, seed) == want


@pytest.mark.parametrize("space_seed,n,budget,seed", [
    (8, 4, 10 ** 6, 0),      # exhaustive: first hit is candidate 81
    (2, 5, 3000, 1),         # sampled: first hit is draw 320
])
def test_chunked_search_hit_in_a_later_chunk(space_seed, n, budget, seed):
    space = random_metric_space(GenConfig(seed=space_seed, size=n))
    circle = _mid_circle(space)
    tree = ("&", "BANACH", "C2")
    want = _brute_search(space, circle, tree, budget, seed)
    assert want[0] == "found" and want[1] > 10 * 7
    with mock.patch.object(conditions, "_PAIR_BLOCK", _pair_block_for(7, n)):
        assert _chunked_search(space, circle, tree, budget, seed) == want


def test_chunked_search_on_asymmetric_and_invalid_spaces():
    eps = 1e-9
    asym = MetricSpace.finite(("c", "x", "y"), [
        [0, 1, 1 - 0.5 * eps], [1, 0, 0.5], [1 - 1.4 * eps, 0.5, 0]])
    broken = MetricSpace.finite(("c", "x", "y", "z"), [
        [0, 1, 0, 3], [1, 0.25, 1, 1], [2, 1, 0, 0], [1, 3, 1, 0]])
    assert validate_metric(asym).valid and not validate_metric(broken).valid
    for space in (asym, broken):
        circle = circle_of(space, "c", 1.0)
        for tree in (("&", "C1", ("!", "C2")), ("&", "C2", ("!", "C1")),
                     ("|", "C3_DSTAR", "BANACH"), ("!", "ID_COND")):
            for budget in (10 ** 6, 50):
                want = _brute_search(space, circle, tree, budget, 1)
                assert _chunked_search(space, circle, tree, budget, 1) == want


_TREES = st.recursive(
    st.sampled_from(ATOMS),
    lambda sub: st.one_of(st.tuples(st.just("!"), sub),
                          st.tuples(st.sampled_from("&|"), sub, sub)),
    max_leaves=4)


@given(n=st.integers(1, 4), data=st.data(), tree=_TREES,
       budget=st.sampled_from([0, 1, 5, 26, 27, 64, 80]),
       seed=st.integers(0, 2 ** 16), chunk=st.sampled_from([1, 3, 10, 10 ** 4]))
@settings(max_examples=60, deadline=None)
def test_chunked_search_property(n, data, tree, budget, seed, chunk):
    values = st.sampled_from([0.0, 0.5, 1.0, 1.0 + 4e-10, 1.5, 2.0])
    D = data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    space = MetricSpace.finite([f"p{i}" for i in range(n)], D)
    center = data.draw(st.integers(0, n - 1))
    radius = data.draw(st.sampled_from(sorted(set(D[center] + [1.0]))))
    circle = circle_of(space, space.points()[center], radius)
    want = _brute_search(space, circle, tree, budget, seed)
    with mock.patch.object(conditions, "_PAIR_BLOCK",
                           _pair_block_for(chunk, n)):
        assert _chunked_search(space, circle, tree, budget, seed) == want


def _assert_chunks_are_bounded_and_own_buffers(got, chunk):
    assert all(0 < len(maps) <= chunk for maps in got)
    assert all(maps.dtype == np.int64 for maps in got)
    assert not any(np.shares_memory(a, b) for a, b in zip(got, got[1:]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("chunk", [1, 5, 7, 10 ** 4])
def test_exhaustive_chunks_follow_product_order(n, chunk):
    got = list(generators._exhaustive_chunks(n, chunk))
    _assert_chunks_are_bounded_and_own_buffers(got, chunk)
    assert np.vstack(got).tolist() == [list(t) for t in
                                       itertools.product(range(n), repeat=n)]


@pytest.mark.parametrize("n", [5, 6])
def test_exhaustive_chunks_follow_product_order_on_and_between_powers(n):
    # chunk sizes on a power of n and either side of one, so a chunk is
    # whole blocks of n**k candidates with k = 0, 1, batch_rows' k or n
    want = [list(t) for t in itertools.product(range(n), repeat=n)]
    for chunk in (1, n - 1, n, n + 1, n * n - 1, conditions.batch_rows(n),
                  n ** n, n ** n + 1):
        got = list(generators._exhaustive_chunks(n, chunk))
        _assert_chunks_are_bounded_and_own_buffers(got, chunk)
        assert np.vstack(got).tolist() == want, chunk


def test_exhaustive_chunks_match_the_index_table_at_seven_points():
    n, chunk = 7, conditions.batch_rows(7)
    got = list(generators._exhaustive_chunks(n, chunk))
    _assert_chunks_are_bounded_and_own_buffers(got, chunk)
    want = np.indices((n,) * n).reshape(n, -1).T
    assert np.array_equal(np.vstack(got), want)


def test_exhaustive_chunks_past_int64():
    # 20**20 candidates do not fit in an int64; decoding must not wrap.
    # A chunk of 401 takes two whole blocks of 20**2 candidates
    for chunk, rows in ((6, 6), (401, 400)):
        got = list(itertools.islice(generators._exhaustive_chunks(20, chunk),
                                    3))
        _assert_chunks_are_bounded_and_own_buffers(got, chunk)
        assert [len(maps) for maps in got] == [rows] * 3
        product = itertools.product(range(20), repeat=20)
        assert np.vstack(got).tolist() == [
            list(t) for t in itertools.islice(product, 3 * rows)]


@pytest.mark.parametrize("n", [5, 7, 8, 9, 12])
@pytest.mark.parametrize("chunk", [1000, 2001])
def test_sampled_chunks_keep_the_one_by_one_stream(n, chunk):
    rng = np.random.default_rng(31)
    want = [rng.integers(0, n, size=n).tolist() for _ in range(4500)]
    got = np.vstack(list(generators._sampled_chunks(n, 4500, chunk, 31)))
    assert got.tolist() == want
