"""Gallery regression tests: the shipped expectations replay green, the
harness detects corruption, and the headline member-set facts hold."""

import dataclasses
import math

import pytest

from fixedcircle import gallery
from fixedcircle.errors import DomainError
from fixedcircle.gallery import (ConditionExpectation, list_entries,
                                 load_entry, replay_all, replay_entry)
from fixedcircle.metric_core import validate_metric
from fixedcircle.verifier import enumerate_fixed_circles


def test_full_replay_is_green():
    report = replay_all()
    assert report.results
    for r in report.results:
        assert r.passed, f"{r.entry_id}[{r.index}] {r.kind}: {r.detail}"
    assert report.ok and report.failures == ()


def test_replay_ignores_circle_sample_variable(monkeypatch):
    # the gallery's complex carriers are pinned, not read from the
    # environment
    monkeypatch.setenv("FIXEDCIRCLE_CIRCLE_SAMPLES", "7")
    assert replay_all().ok


def test_complex_gallery_space_is_a_metric_at_zero_tolerance():
    # validation reads the same distances the checkers do, so the
    # sampled complex plane passes the triangle test with no slack
    assert validate_metric(load_entry("EX_2_8").space, 0.0).valid


def test_entry_ids_in_natural_order():
    ids = list_entries()
    assert ids.index("EX_2_4") < ids.index("EX_2_5")
    assert ids.index("EX_2_8") < ids.index("EX_2_11")    # 8 < 11 numerically
    assert ids.index("EX_2_19") < ids.index("EX_2_19B")
    assert ids.index("EX_3_4") < ids.index("PROP_3_1")
    assert len(ids) == 15


def test_each_id_is_declared_once_and_loads_as_itself():
    ids = list_entries()
    assert len(set(ids)) == len(ids)
    for entry_id in ids:
        assert load_entry(entry_id).entry_id == entry_id
    before = dict(gallery._REGISTRY)
    with pytest.raises(DomainError, match="EX_2_4"):
        gallery._entry("EX_2_4", "A second declaration")(lambda: None)
    assert gallery._REGISTRY == before


def test_unknown_entry_raises():
    with pytest.raises(DomainError):
        load_entry("EX_9_9")


def test_loading_is_deterministic():
    a = load_entry("EX_2_12")
    b = load_entry("EX_2_12")
    assert a.expectations == b.expectations
    assert a.space.points() == b.space.points()


def test_exp_metric_unit_circle_is_ln2():
    entry = load_entry("EX_2_16")
    (circle,) = entry.circles
    assert circle.members == (math.log(2.0),)


def test_shifted_circle_members():
    entry = load_entry("EX_2_18")
    assert load_entry("EX_2_18").circles[0].members == (-2.0, 6.0)
    assert entry.circles[0].center == 2.0


def test_three_fixed_circles_of_reciprocal_map():
    entry = load_entry("EX_2_12")
    found = enumerate_fixed_circles(entry.space, entry.tmap)
    assert {(c.center, c.radius) for c in found} == {
        (0.0, 1.0), (3.0, 2.0), (2.0, 3.0)}


def test_complex_reciprocal_fixes_exactly_plus_minus_one():
    entry = load_entry("EX_2_8")
    (circle,) = entry.circles
    eps = 1e-9
    fixed = [z for z in circle.members
             if abs(entry.tmap.apply(z) - z) <= eps]
    assert set(fixed) == {complex(-1, 0), complex(1, 0)}
    assert len(circle.members) > 300    # the sampled grid is really there


def test_abs_sum_equal_center_radius_circles_pin_zero():
    entry = load_entry("EX_2_19")
    for circle in entry.circles[1:]:
        assert circle.members == (0.0,)
        assert entry.tmap.apply(0.0) == 0.0


def test_corrupted_expectation_detected_exactly_once():
    entry = load_entry("EX_2_5")
    idx, target = next(
        (i, e) for i, e in enumerate(entry.expectations)
        if isinstance(e, ConditionExpectation) and e.holds)
    bad = dataclasses.replace(target, holds=False)
    expectations = list(entry.expectations)
    expectations[idx] = bad
    corrupted = dataclasses.replace(entry, expectations=tuple(expectations))
    results = replay_entry(corrupted)
    mismatches = [r for r in results if not r.passed]
    assert len(mismatches) == 1
    assert mismatches[0].index == idx


def test_filters():
    assert replay_all("NO_SUCH").results == ()
    assert replay_all("NO_SUCH").ok    # empty report is a success
    prop_only = replay_all("prop")
    assert prop_only.results
    assert all(r.entry_id == "PROP_3_1" for r in prop_only.results)
    assert len(replay_all("EX_2_19").results) > len(
        replay_all("EX_2_19B").results)


def test_every_entry_has_notes_or_selfcontained_title():
    for entry_id in list_entries():
        entry = load_entry(entry_id)
        assert entry.title
        assert entry.circles
        assert entry.expectations
