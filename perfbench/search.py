"""search: the per-candidate rich path.

search_counterexample builds every candidate as a table map and asks the
condition checkers about it, thousands of times at tiny n. One round:

  * two 6-point spaces, exhaustive branch (6^6 = 46,656 maps each): an
    impossible member-scan target that must exhaust;
  * two 5-point spaces, exhaustive branch: a findable target whose hit
    must be the first in itertools.product order (or, where the circle
    admits none, a full exhaust). Kept small so how deep the hit lies,
    which the seed decides, moves the round's work by a few percent;
  * four 8-point spaces, sampled branch, four circles each: the impossible
    member-scan target (C1 & C2 & !FIXED_CIRCLE), and per space one
    impossible target with a pair-scan atom evaluated first
    (RHOADES & C1 & C2 & !FIXED_CIRCLE).

Impossible targets are impossible by the existence theorem (C1 and C2
force a fixed circle). Work unit: maps evaluated.
"""

from __future__ import annotations

import itertools

import numpy as np

import checks
import reference
from harness import INTERPRETER, Timer

# Interpreter-bound: the interpreter kernel (see harness.Timer).
TIMER = Timer(INTERPRETER)

MEMBER_SCAN = "C1 & C2 & !FIXED_CIRCLE"
PAIR_SCAN = "RHOADES & C1 & C2 & !FIXED_CIRCLE"
FINDABLE = "C2 & !C1"
EXHAUSTIVE_N = 6
EXHAUSTIVE_SPACES = 2
FINDABLE_N = 5
FINDABLE_SPACES = 2
SAMPLED_N = 8
SAMPLED_SPACES = 4
CIRCLES = 4
MEMBER_BUDGET = 2500
PAIR_BUDGET = 800
FULL_BUDGET = 10 ** 6
# Maps the reference evaluates at once: small enough that this process's
# peak memory stays the program's, not the reference's.
BLOCK = 2048


def _circle(P, space, rng):
    """A realized circle of positive radius, chosen by the seed."""
    D = np.asarray(space.matrix, dtype=float)
    n = D.shape[0]
    ci = int(rng.integers(n))
    others = [j for j in range(n) if j != ci]
    radius = float(D[ci, others[int(rng.integers(len(others)))]])
    return P.metric_core.circle_of(space, space.points()[ci], radius)


def setup(P, seed, scratch):
    rng = np.random.default_rng([seed, 0x5E])
    gen = P.generators

    def space(n):
        return gen.random_metric_space(
            gen.GenConfig(seed=int(rng.integers(2 ** 31)), size=n))

    ops = []
    for n, target, count in ((EXHAUSTIVE_N, MEMBER_SCAN, EXHAUSTIVE_SPACES),
                             (FINDABLE_N, FINDABLE, FINDABLE_SPACES)):
        for _ in range(count):
            small = space(n)
            ops.append((small, _circle(P, small, rng), target, FULL_BUDGET, 0))
    for _ in range(SAMPLED_SPACES):
        big = space(SAMPLED_N)
        circles = [_circle(P, big, rng) for _ in range(CIRCLES)]
        ops += [(big, c, MEMBER_SCAN, MEMBER_BUDGET, int(rng.integers(2 ** 31)))
                for c in circles]
        ops.append((big, circles[0], PAIR_SCAN, PAIR_BUDGET,
                    int(rng.integers(2 ** 31))))
    return ops


def _geometry(space, circle):
    D = np.asarray(space.matrix, dtype=float)
    return D, space.index_of(circle.center), circle.radius


def _first_hit(target, D, ci, radius):
    """(1-based position, images) of the first map in itertools.product
    order that meets the target, or None; BLOCK maps at a time."""
    n = D.shape[0]
    maps = itertools.product(range(n), repeat=n)
    done = 0
    while block := list(itertools.islice(maps, BLOCK)):
        rows = np.array(block)
        hits = np.flatnonzero(reference.target_holds(target, D, rows, ci,
                                                     radius))
        if hits.size:
            return done + int(hits[0]) + 1, block[hits[0]]
        done += len(block)
    return None


def prepare(P, ops, log):
    """Expected (status, evaluated, first-hit images) per operation."""
    expected = []
    for space, circle, target, budget, _ in ops:
        n = len(space.points())
        if n ** n > budget:
            expected.append(("exhausted", budget, None))
            continue
        hit = _first_hit(target, *_geometry(space, circle))
        if hit is None:
            expected.append(("exhausted", n ** n, None))
        else:
            expected.append(("found", hit[0], tuple(hit[1])))
    return expected


def run_round(P, ops, expected, log, inproc=False, tracer=None):
    for (space, circle, target, budget, seed), (status, evaluated, images) \
            in zip(ops, expected):
        result, dt = TIMER.timed(P.generators.search_counterexample, space,
                                 circle, target, budget=budget, seed=seed)
        log.call(dt, result.evaluated)
        witness = None
        if result.found is not None:
            D, ci, radius = _geometry(space, circle)
            row = np.array([[space.index_of(p) for p in result.found.table]])
            witness = bool(reference.target_holds(target, D, row, ci,
                                                  radius)[0])
        where = f"search n={len(space.points())} {target!r}"
        log.check(checks.search_result(where, result, status, evaluated,
                                       images, witness))


def human(log):
    return [("maps_per_s", log.work_per_s(), "maps/s")]
