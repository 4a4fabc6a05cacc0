"""Pin of the single-map reports on small analytic carriers.

For each carrier below, every circle it lists and every map, the data
file holds a digest of the repr of check_condition's full
ConditionReport for each condition id and of verify_theorem's whole
TheoremVerdict for each theorem (repr writes each float exactly, the
sign of a zero included, and every witness as it is). The
carriers put members, images and centers both on and off the samples;
real_usual and real_abs_sum hold a sample -0.0 beside a closed-form
member 0.0, so a witness naming that member is pinned to its own text.
A change to how a check gathers its distances must leave every report
as it is; a mismatch names the call that changed.

Beside them, one carrier per kind at 96 samples, built as the
benchmark's instance workload builds its own (dyadic samples k/64 on the
real kinds; 48 circle points and 48 grid points on the complex plane),
each with a circle-fixing map about a circle through two samples: the
size at which a check's speed is measured.

The data was generated by the checkers as they stood while every
analytic distance was computed by the scalar metric. Regenerate it only
for a deliberate change of report content:

    PYTHONPATH=src python tests/test_single_map_pins.py
"""

import hashlib
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fixedcircle.conditions import (CONDITION_IDS, PhiMap, check_caristi,
                                    check_condition, phi_canonical)
from fixedcircle.errors import MalformedInputError
from fixedcircle.generators import build_circle_fixing_map
from fixedcircle.metric_core import (Branch, MetricSpace, SelfMap, circle_of,
                                     circle_samples)
from fixedcircle.verifier import THEOREM_IDS, verify_caristi, verify_theorem

DATA = Path(__file__).with_name("single_map_pins.json")

_R = math.exp(0.5) - 1.0

# kind -> (samples, (center, radius) of each circle, (branches, default)
# of each map). The first map fixes a circle and sends the rest to a
# sample; the second sends most points off the samples.
CARRIERS = {
    "real_usual": (
        (-2.0, -1.0, -0.0, 0.5, 1.0, 2.0, 3.0),
        ((1.0, 1.0), (0.25, 0.75)),
        ((((1.0, 1.0), ("identity",)),), ("constant", 3.0)),
        ((), ("reciprocal",))),
    "real_exp": (
        (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5),
        ((0.0, _R), (0.25, 0.5)),
        ((((0.0, _R), ("identity",)),), ("constant", 1.5)),
        ((), ("reciprocal",))),
    "real_abs_sum": (
        (-1.5, -0.0, 0.5, 1.0, 2.0),
        ((1.0, 1.0), (0.5, 2.5), (0.25, 1.25)),
        ((((0.5, 2.5), ("identity",)),), ("constant", -0.0)),
        ((), ("constant", 0.75))),
    "complex_usual": (
        circle_samples(0, 1, 6) + (0.5 + 0j, 2 + 0j, 1.5j),
        ((0j, 1.0), (0.5 + 0j, 1.5)),
        ((((0j, 1.0), ("identity",)),), ("constant", 2 + 0j)),
        ((), ("reciprocal",))),
}


LARGE_SEED = 2017


def _large_carriers():
    """(kind, samples, center, radius) of each 96-sample carrier."""
    rng = np.random.default_rng(LARGE_SEED)
    for kind in ("real_usual", "real_exp", "real_abs_sum"):
        ks = rng.choice(np.arange(-3 * 64, 3 * 64 + 1), size=96,
                        replace=False)
        samples = [float(k) / 64 for k in ks]
        space = MetricSpace.analytic(kind, samples)
        yield kind, samples, samples[0], space.distance(*samples[:2])
    center = complex(*(rng.integers(-8, 9, size=2) / 8))
    radius = float(rng.integers(4, 13)) / 8
    grid = rng.choice(33 * 33, size=48, replace=False)
    samples = list(circle_samples(center, radius, 48))
    samples += [center + complex(g % 33 - 16, g // 33 - 16) / 8 for g in grid]
    yield "complex_usual", samples, center, radius


def _instances():
    """(name, space, tmap, circle) over every carrier, map and circle."""
    for kind, (samples, circles, *maps) in CARRIERS.items():
        space = MetricSpace.analytic(kind, samples)
        for j, (branches, default) in enumerate(maps):
            tmap = SelfMap.piecewise(
                space, [Branch(("on_circle",) + on, image)
                        for on, image in branches], default)
            for k, (center, radius) in enumerate(circles):
                yield (f"{kind} map {j} circle {k}", space, tmap,
                       circle_of(space, center, radius))
    for kind, samples, center, radius in _large_carriers():
        space = MetricSpace.analytic(kind, samples)
        circle = circle_of(space, center, radius)
        yield (f"{kind} 96 samples circle-fixing map", space,
               build_circle_fixing_map(space, circle), circle)


def _digest(report):
    return hashlib.sha256(repr(report).encode()).hexdigest()[:24]


def _current():
    out = {}
    for name, space, tmap, circle in _instances():
        for cid in CONDITION_IDS:
            out[f"{name} check {cid}"] = _digest(
                check_condition(cid, space, tmap, circle=circle))
        for tid in THEOREM_IDS:
            out[f"{name} verify {tid}"] = _digest(
                verify_theorem(tid, space, tmap, circle))
    return out


def test_single_map_reports_match_the_pins():
    want = json.loads(DATA.read_text(encoding="utf-8"))
    got = _current()
    assert sorted(got) == sorted(want)
    changed = [call for call in want if got[call] != want[call]]
    assert not changed, f"{len(changed)} report(s) changed: {changed[:10]}"


def test_closed_form_zero_member_keeps_its_text():
    # the member 0.0 of the circle about 1.0 of radius 1.0 is not the
    # sample -0.0: its witness says 0.0
    for kind in ("real_usual", "real_abs_sum"):
        space = MetricSpace.analytic(kind, CARRIERS[kind][0])
        circle = circle_of(space, 1.0, 1.0)
        rep = check_condition("C2", space, SelfMap.constant(space, -1.0),
                              circle=circle)
        assert repr(circle.members[0]) == "0.0"
        assert repr(rep.witness) == "(0.0,)", kind


def test_caristi_canonical_weight_however_given():
    # the canonical weight defaulted, passed in, and as a user weight of
    # the same function give one report
    for name, space, tmap, circle in _instances():
        center = circle.center
        defaulted = check_condition("CARISTI", space, tmap, circle=circle)
        passed = verify_caristi(space, tmap, phi_canonical(space, center))
        user = PhiMap("user", lambda x: space.distance(x, center))
        assert repr(passed.hypothesis_reports[0]) == repr(defaulted), name
        assert repr(check_caristi(space, tmap, user)) == repr(defaulted), name


def test_only_phi_canonical_marks_the_canonical_weight():
    # a PhiMap is built from a name and a function alone, so a user
    # weight, even one named like the canonical weight, is read through
    # its own function
    assert [f.name for f in fields(PhiMap) if f.init] == ["name", "fn"]
    space = MetricSpace.analytic("real_usual", CARRIERS["real_usual"][0])
    tmap = SelfMap.constant(space, 3.0)
    twice = PhiMap("dist_to(0.0)", lambda x: 2 * space.distance(x, 0.0))
    assert check_caristi(space, tmap, phi_canonical(space, 0.0)).margin == -6.0
    rep = check_caristi(space, tmap, twice)
    assert (rep.margin, repr(rep.witness)) == (-9.0, "(-0.0,)")


def test_weights_past_the_float_range_are_refused():
    space = MetricSpace.analytic("real_usual", (1e308, 0.0))
    tmap = SelfMap.identity(space)
    with pytest.raises(MalformedInputError, match="must be finite"):
        check_caristi(space, tmap, PhiMap("inf", lambda x: math.inf))
    with pytest.raises(MalformedInputError, match="must be finite"):
        verify_caristi(space, tmap, PhiMap("inf", lambda x: math.inf))
    # the canonical weight about -1e308 is d(1e308, -1e308) = inf
    circle = circle_of(space, -1e308, 0.0)
    with pytest.raises(MalformedInputError,
                       match=r"phi\(1e\+308\) = inf must be finite"):
        check_condition("CARISTI", space, tmap, circle=circle)


def test_sample_pairs_past_the_float_range_are_refused():
    # d(1e308, -1e308) overflows; the checks read sample pairs from the
    # sample matrix, which refuses it, rather than return a nan margin
    space = MetricSpace.analytic("real_usual", (1e308, -1e308, 0.0))
    for cid in ("BANACH", "RHOADES"):
        with pytest.raises(MalformedInputError, match="overflows"):
            check_condition(cid, space, SelfMap.identity(space))


if __name__ == "__main__":
    DATA.write_text(json.dumps(_current(), indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
