"""sweep: the bulk kernel path.

One round is the soundness_sweep acceptance configuration (1000 spaces of
2-12 points, 100 maps per space, exhaustive up to 4 points) cut into
CHUNKS calls of equal make-up, each with its own seed, plus a wide slice
of single-space calls at 128-256 points where theorem_flags builds
m x n^2 blocks and sets the peak memory. Work unit: verdicts.
"""

from __future__ import annotations

import numpy as np

import checks
import reference
from harness import INTERPRETER, MEMORY, Timer

# Small numpy calls and m x n^2 blocks: both kernels (see harness.Timer).
TIMER = Timer(INTERPRETER, MEMORY)

CHUNKS = 20
CHUNK_SPACES = 50
SIZES = tuple(range(2, 13))
MAPS_PER_SPACE = 100
EXHAUSTIVE_LIMIT = 4
WIDE_SIZES = (256, 128, 128)
CIRCLES_PER_SPACE = 3
THEOREMS = 9
SUBSAMPLE_SPACES = 8
SUBSAMPLE_MAPS = 24


def setup(P, seed, scratch):
    calls = [dict(space_count=CHUNK_SPACES, sizes=SIZES,
                  maps_per_space=MAPS_PER_SPACE,
                  exhaustive_limit=EXHAUSTIVE_LIMIT, seed=seed * 1000 + k)
             for k in range(CHUNKS)]
    calls += [dict(space_count=1, sizes=(n,), maps_per_space=MAPS_PER_SPACE,
                   exhaustive_limit=EXHAUSTIVE_LIMIT,
                   seed=seed * 1000 + CHUNKS + k)
              for k, n in enumerate(WIDE_SIZES)]
    return {"seed": seed, "calls": calls}


def _spaces(P, call):
    """The spaces a sweep call draws, seeded per index as soundness_sweep
    seeds them. Should that seeding change, the expected counts still
    hold: every space of two or more points realizes at least
    CIRCLES_PER_SPACE circles, so only the sizes matter."""
    for i in range(call["space_count"]):
        size = call["sizes"][i % len(call["sizes"])]
        yield size, P.generators.random_metric_space(
            P.generators.GenConfig(seed=call["seed"] * 1_000_003 + i,
                                   size=size))


def _batch(n):
    if n <= EXHAUSTIVE_LIMIT and n ** n <= 10 ** 6:
        return n ** n
    return MAPS_PER_SPACE


def prepare(P, state, log):
    """Expected counts per call, and the seeded subsample cross-check."""
    expected = []
    drawn = []
    for call in state["calls"]:
        maps = 0
        for n, space in _spaces(P, call):
            D = np.asarray(space.matrix, dtype=float)
            realized = sum(len(reference.realized_radii(D[c]))
                           for c in range(n))
            maps += min(CIRCLES_PER_SPACE, realized) * (_batch(n) + n + 2)
            if n <= max(SIZES):
                drawn.append(D)
        expected.append((call["space_count"], maps, THEOREMS * maps))
    rng = np.random.default_rng([state["seed"], 0x5B])
    for k in rng.choice(len(drawn), size=SUBSAMPLE_SPACES, replace=False):
        log.check(_subsample(P, drawn[int(k)], rng))
    return expected


def _subsample(P, D, rng):
    """C1, C2, BANACH and the fixed-circle test on random maps of one
    space, from the rich checkers and from the kernel, against the
    benchmark's own evaluation."""
    n = D.shape[0]
    labels = tuple(f"p{i}" for i in range(n))
    space = P.metric_core.MetricSpace.finite(labels, D.tolist())
    ci = int(rng.integers(n))
    radii = reference.realized_radii(D[ci])
    radius = radii[int(rng.integers(len(radii)))]
    maps = rng.integers(0, n, size=(SUBSAMPLE_MAPS, n))
    member = np.abs(D[ci] - radius) <= reference.EPS
    fixing = np.where(member, np.arange(n), int(np.argmax(~member)))
    maps = np.vstack([maps, np.arange(n), np.full(n, ci), fixing])
    own = reference.atoms(D, maps, ci, radius)
    circle = P.metric_core.circle_of(space, labels[ci], radius)
    rich = {"C1": [], "C2": [], "BANACH": [], "FIXED_CIRCLE": []}
    for row in maps:
        tmap = P.metric_core.SelfMap.from_indices(space, row)
        for cid in ("C1", "C2", "BANACH"):
            rich[cid].append(P.conditions.check_condition(
                cid, space, tmap, circle=circle).holds)
        rich["FIXED_CIRCLE"].append(
            P.metric_core.is_fixed_circle(tmap, circle).holds)
    flags = P.verifier.theorem_flags(D, maps.astype(np.intp), ci, radius,
                                     reference.EPS)
    kernel = {"C1&C2": flags["T_EXIST_C1C2"][0],
              "BANACH": flags["T_BANACH"][0],
              "FIXED_CIRCLE": flags["T_EXIST_C1C2"][1]}
    want = {"C1&C2": own["C1"] & own["C2"], "BANACH": own["BANACH"],
            "FIXED_CIRCLE": own["FIXED_CIRCLE"]}
    return (checks.same_flags(f"sweep subsample n={n} (checkers)", rich,
                              {k: own[k] for k in rich})
            + checks.same_flags(f"sweep subsample n={n} (theorem_flags)",
                                kernel, want))


def run_round(P, state, expected, log, inproc=False, tracer=None):
    for call, (spaces, maps, verdicts) in zip(state["calls"], expected):
        report, dt = TIMER.timed(P.verifier.soundness_sweep, **call)
        log.call(dt, report.verdicts_checked)
        log.check(checks.sweep_report(report, spaces, maps, verdicts))


def human(log):
    return [("verdicts_per_s", log.work_per_s(), "verdicts/s")]
