"""Acceptance gates for the whole package, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all)
and asserts the same verdict, so the suite both reports and enforces.
Budgeted criteria measure wall time with perf_counter.
"""

import itertools
import math
import time

import numpy as np
import pytest

from fixedcircle import fileio
from fixedcircle.cli import main
from fixedcircle.conditions import check_condition, check_identity_condition
from fixedcircle.gallery import load_entry, replay_all
from fixedcircle.generators import (GenConfig, build_circle_fixing_map,
                                    build_multi_circle_map,
                                    random_metric_space,
                                    search_counterexample)
from fixedcircle.metric_core import (SelfMap, circle_of, enumerate_circles,
                                     is_fixed_circle, validate_metric)
from fixedcircle.verifier import soundness_sweep

_EPS = 1e-9


def _verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name} [{detail}]")
    assert ok, f"{name}: {detail}"


def test_gallery_replay_is_exact():
    t0 = time.perf_counter()
    report = replay_all()
    elapsed = time.perf_counter() - t0
    problems = [r for r in report.results if not r.passed]

    # pinned facts the replay must be reproducing, rechecked from scratch
    e16 = load_entry("EX_2_16")
    m16 = circle_of(e16.space, 0.0, 1.0).members
    log2_only = len(m16) == 1 and abs(m16[0] - math.log(2.0)) <= _EPS

    e18 = load_entry("EX_2_18")
    m18 = sorted(circle_of(e18.space, 2.0, 4.0).members)
    pair_ok = (len(m18) == 2 and abs(m18[0] + 2.0) <= _EPS
               and abs(m18[1] - 6.0) <= _EPS)

    e12 = load_entry("EX_2_12")
    triple_ok = ({(c.center, c.radius) for c in e12.circles}
                 == {(0.0, 1.0), (3.0, 2.0), (2.0, 3.0)}
                 and all(is_fixed_circle(e12.tmap, c).holds
                         for c in e12.circles))

    e8 = load_entry("EX_2_8")
    circ8 = e8.circles[0]
    fixed8 = [z for z in circ8.members
              if abs(e8.tmap.apply(z) - z) <= _EPS]
    spots = {complex(-1.0, 0.0), complex(1.0, 0.0)}
    pm_one = (len(fixed8) == 2 and len(circ8.members) >= 360
              and all(min(abs(z - s) for s in spots) <= _EPS for z in fixed8))

    ok = (not problems and len(report.results) >= 90
          and log2_only and pair_ok and triple_ok and pm_one
          and elapsed < 5.0)
    _verdict("gallery replay reproduces every pinned claim",
             ok, f"{len(report.results)} expectations, "
                 f"{len(problems)} mismatches, {elapsed:.2f}s (budget 5s)")


def test_theorem_soundness_sweep():
    report = soundness_sweep(space_count=1000, sizes=tuple(range(2, 13)),
                             maps_per_space=100, exhaustive_limit=4)
    ok = (report.spaces_checked == 1000
          and not report.falsifications
          and report.disagreements == ()
          and report.maps_checked >= 100_000
          and report.elapsed_seconds < 60.0)
    _verdict("soundness sweep finds zero falsifications",
             ok, f"{report.spaces_checked} spaces, "
                 f"{report.maps_checked} maps, "
                 f"{report.verdicts_checked} verdicts, "
                 f"{len(report.falsifications)} falsified, "
                 f"{len(report.disagreements)} kernel disagreements, "
                 f"{report.elapsed_seconds:.1f}s (budget 60s)")


@pytest.mark.parametrize("seed", [20250817, 7, 123])
def test_soundness_sweep_counts_are_pinned(seed):
    report = soundness_sweep(space_count=1000, seed=seed)
    counts = (report.maps_checked, report.verdicts_checked,
              len(report.falsifications), len(report.disagreements))
    _verdict(f"soundness sweep counts at seed {seed}",
             counts == (323_436, 2_910_924, 0, 0),
             "maps, verdicts, falsifications, disagreements = "
             f"{counts}")


def _advertised_pair(space, tmap, circle):
    """Exterior anchors advertise C1/C2, interior ones the starred pair."""
    off = [p for p in space.points()
           if abs(space.distance(p, circle.center) - circle.radius) > _EPS]
    if not off:
        return ("C1", "C2")
    side = space.distance(tmap.apply(off[0]), circle.center) - circle.radius
    return ("C1", "C2") if side > 0 else ("C1_STAR", "C2_STAR")


def test_recipe_closure():
    base = 424200
    single_bad, multi_bad = [], []

    for i in range(500):
        size = 3 + (i % 8)
        space = random_metric_space(GenConfig(seed=base + i, size=size))
        rng = np.random.default_rng(base + i)
        realized = enumerate_circles(space)
        center, radius = realized[int(rng.integers(len(realized)))]
        circle = circle_of(space, center, radius)
        anchor = None
        if i % 2:
            off = [p for p in space.points()
                   if abs(space.distance(p, center) - radius) > _EPS]
            if off:
                anchor = off[int(rng.integers(len(off)))]
        try:
            tmap = build_circle_fixing_map(space, circle, anchor=anchor)
            good = is_fixed_circle(tmap, circle).holds
            for cid in _advertised_pair(space, tmap, circle):
                good = good and check_condition(
                    cid, space, tmap, circle=circle).holds
        except Exception:
            good = False
        if not good:
            single_bad.append(i)

    for j in range(150):
        size = 5 + (j % 6)
        space = random_metric_space(GenConfig(seed=base * 7 + j, size=size))
        rng = np.random.default_rng(base * 7 + j)
        realized = enumerate_circles(space)
        k = 2 + (j % 3)
        picks = rng.choice(len(realized), size=k, replace=False)
        circles = [circle_of(space, *realized[p]) for p in sorted(picks)]
        try:
            tmap = build_multi_circle_map(space, circles)
            good = all(is_fixed_circle(tmap, c).holds for c in circles)
        except Exception:
            good = False
        if not good:
            multi_bad.append(j)

    ok = not single_bad and not multi_bad
    _verdict("constructive recipes close over their circles",
             ok, f"500 single ({len(single_bad)} bad), "
                 f"150 multi ({len(multi_bad)} bad)")


def test_identity_characterization():
    checked = 0
    wrong = 0
    crashes = 0
    for size in (1, 2, 3, 4):
        for seed in (11, 22, 33):
            space = random_metric_space(GenConfig(seed=seed, size=size))
            pts = space.points()
            for images in itertools.product(range(size), repeat=size):
                tmap = SelfMap.from_indices(space, images)
                is_ident = images == tuple(range(size))
                for center in pts:
                    checked += 1
                    try:
                        holds = check_identity_condition(
                            space, tmap, center).holds
                    except Exception:
                        crashes += 1
                        continue
                    if holds != is_ident:
                        wrong += 1
    ok = wrong == 0 and crashes == 0
    _verdict("identity condition holds exactly for the identity map",
             ok, f"{checked} map/center pairs, {wrong} wrong, "
                 f"{crashes} exceptions")


def test_counterexample_harness():
    impossible = ("C1 & C2 & !FIXED_CIRCLE",
                  "C1_STAR & C2_STAR & !FIXED_CIRCLE",
                  "C1_DSTAR & C2_DSTAR & !FIXED_CIRCLE")
    exhausted = 0
    leaks = 0
    found = 0
    misses = 0
    cases = [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1)]
    for size, seed in cases:
        space = random_metric_space(GenConfig(seed=5000 + seed, size=size))
        for center, radius in enumerate_circles(space):
            circle = circle_of(space, center, radius)
            for target in impossible:
                res = search_counterexample(space, circle, target)
                if res.status == "exhausted":
                    exhausted += 1
                else:
                    leaks += 1
            if radius > 0:
                res = search_counterexample(space, circle, "C1 & !C2")
                hit = (res.status == "found"
                       and check_condition("C1", space, res.found,
                                           circle=circle).holds
                       and not check_condition("C2", space, res.found,
                                               circle=circle).holds)
                if hit:
                    found += 1
                else:
                    misses += 1
    ok = leaks == 0 and misses == 0 and exhausted > 0 and found > 0
    _verdict("counterexample search honors the theorems",
             ok, f"{exhausted} impossible targets exhausted ({leaks} leaks), "
                 f"{found} constant-map witnesses ({misses} misses)")


def test_generator_validity():
    t0 = time.perf_counter()
    bad = 0
    for i in range(10_000):
        size = 2 + (i % 11)
        space = random_metric_space(GenConfig(seed=900_000 + i, size=size))
        if not validate_metric(space).valid:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 10.0
    _verdict("random spaces always validate",
             ok, f"10000 spaces, {bad} invalid, "
                 f"{elapsed:.1f}s (budget 10s)")


def test_cli_determinism(tmp_path, capsys):
    entry = load_entry("EX_2_12")
    sp = tmp_path / "space.json"
    mp = tmp_path / "map.json"
    sp.write_text(fileio.dumps_document(fileio.space_to_doc(entry.space)))
    mp.write_text(fileio.dumps_document(fileio.map_to_doc(entry.tmap)))

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, [l for l in out.splitlines() if "wall_time" not in l]

    commands = (
        ["check", str(sp), str(mp), "--center", "0", "--radius", "1",
         "--conditions", "C1_STAR,C2_STAR"],
        ["verify", str(sp), str(mp), "--theorem", "T_EXIST_STAR",
         "--center", "0", "--radius", "1"],
        ["enumerate", str(sp), str(mp)],
    )
    stable = 0
    drifted = 0
    for argv in commands:
        first = run(argv)
        if all(run(argv) == first for _ in range(2)):
            stable += 1
        else:
            drifted += 1
    ok = drifted == 0 and stable == len(commands)
    _verdict("CLI output is byte-identical modulo wall time",
             ok, f"{stable}/{len(commands)} commands stable across 3 runs")
