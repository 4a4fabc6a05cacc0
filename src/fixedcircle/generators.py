"""Instance construction: random valid spaces, circle-fixing maps, searches.

Random spaces are built on a dyadic integer lattice. Entries are drawn
as integers in [1049, 2**20], repaired to a shortest-path closure while
still integers (min-plus Floyd-Warshall is exact on ints), and scaled
by 2**-20 at the very end. The resulting floats are dyadic rationals,
so every comparison downstream is exact and the smallest distance
(~1e-3) sits far above the default epsilon. Zero off-diagonal entries
cannot be sampled at all, which is how identity of indiscernibles is
enforced.

The map builders reproduce the standard constructive shape: identity on
the designated circle(s), a constant anchor value elsewhere. Anchor
admissibility is a strict slack test; when no anchor is given one is
chosen by maximizing the minimum slack, ties broken by carrier order.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .conditions import (CONDITION_IDS, MEMBER_ATOMS, batch_rows,
                         condition_flags, member_mask)
from .errors import (AnchorSearchError, ConstraintViolationError, DomainError,
                     MalformedInputError)
from .metric_core import Branch, Circle, MetricSpace, SelfMap, resolve_eps

_LATTICE_BITS = 20
_LATTICE_MIN = 1049
# anchor relation -> (its symbol, the slack of a distance d against radius r)
_RELATIONS = {"ne": ("!=", lambda d, r: abs(d - r)),
              "gt": (">", lambda d, r: d - r),
              "lt": ("<", lambda d, r: r - d)}


@dataclass(frozen=True)
class GenConfig:
    seed: int
    size: int

    def __post_init__(self):
        if self.seed < 0:
            raise MalformedInputError(f"seed must be >= 0, got {self.seed}")
        if self.size < 1:
            raise MalformedInputError(f"size must be >= 1, got {self.size}")


def random_metric_space(config: GenConfig) -> MetricSpace:
    """Seeded random finite metric space, always valid: the one-seed case
    of _lattice."""
    return MetricSpace.finite(tuple(f"p{i}" for i in range(config.size)),
                              _lattice([config.seed], config.size)[0].tolist())


def _lattice(seeds, n: int) -> np.ndarray:
    """The (len(seeds), n, n) stack of random_metric_space's matrices:
    each seed's stream draws its entries, then one closure runs over the
    stack, in place, as step k leaves row and column k as they are."""
    grid = np.array([np.random.default_rng(seed).integers(
        _LATTICE_MIN, 2 ** _LATTICE_BITS, size=(n, n), endpoint=True,
        dtype=np.int64) for seed in seeds])
    grid = np.minimum(grid, grid.transpose(0, 2, 1))
    grid[:, range(n), range(n)] = 0
    for k in range(n):
        np.minimum(grid, grid[:, :, k, None] + grid[:, None, k], out=grid)
    return grid * 2.0 ** -_LATTICE_BITS


@dataclass(frozen=True)
class AnchorConstraint:
    """One requirement on the anchor's distance to a circle center."""

    center: object
    radius: float
    relation: str  # "ne" | "gt" | "lt"
    distance: float
    slack: float

    def describe(self) -> str:
        return f"d(alpha, {self.center!r}) {_RELATIONS[self.relation][0]} {self.radius}"


@dataclass(frozen=True)
class AnchorPoint:
    value: object
    distances_to_centers: tuple[AnchorConstraint, ...]


def _measure(space, value, wanted):
    """The candidate's AnchorConstraints, one per ``wanted`` triple, lazily."""
    for center, radius, relation in wanted:
        distance = space.distance(value, center)
        if relation not in _RELATIONS:
            raise MalformedInputError(f"unknown anchor relation {relation!r}")
        yield AnchorConstraint(center, radius, relation, distance,
                               _RELATIONS[relation][1](distance, radius))


def _bind_anchor(space, value, wanted, eps) -> AnchorPoint:
    """Measure the candidate against every constraint; strict slack only."""
    bound = []
    for c in _measure(space, value, wanted):
        if c.slack <= eps:
            raise ConstraintViolationError(
                f"anchor {value!r} violates {c.describe()} "
                f"(distance {c.distance}, slack {c.slack})")
        bound.append(c)
    return AnchorPoint(value=value, distances_to_centers=tuple(bound))


def choose_anchor(space: MetricSpace, wanted, eps=None) -> AnchorPoint:
    """Pick the carrier point maximizing the minimum constraint slack.

    ``wanted`` is a sequence of (center, radius, relation) triples with
    relation one of "ne", "gt", "lt". Ties go to the earliest carrier
    point. Raises AnchorSearchError listing how many candidates each
    constraint admitted when nothing qualifies.
    """
    eps = resolve_eps(eps)
    wanted = tuple(wanted)
    best, best_score = None, -np.inf
    admitted = [0] * len(wanted)
    for candidate in space.points():
        measured = tuple(_measure(space, candidate, wanted))
        ok = [c.slack > eps for c in measured]
        admitted = [a + k for a, k in zip(admitted, ok)]
        score = min((c.slack for c in measured), default=np.inf)
        if all(ok) and score > best_score:
            best, best_score = AnchorPoint(candidate, measured), score
    if best is None:
        blocked = tuple(
            f"{AnchorConstraint(c, r, rel, 0.0, 0.0).describe()}"
            f" admits {admitted[j]} of {len(space.points())} candidates"
            for j, (c, r, rel) in enumerate(wanted))
        raise AnchorSearchError("no admissible anchor in carrier", blocked)
    return best


def _resolve_anchor(space, circles, anchor, eps) -> AnchorPoint:
    wanted = tuple((c.center, c.radius, "ne") for c in circles)
    if anchor is None:
        return choose_anchor(space, wanted, eps)
    value = anchor.value if isinstance(anchor, AnchorPoint) else anchor
    return _bind_anchor(space, value, wanted, eps)


def build_circle_fixing_map(space: MetricSpace, circle: Circle, anchor=None,
                            eps=None) -> SelfMap:
    """Identity on the circle, constant anchor elsewhere.

    An exterior anchor (distance to center above the radius) yields a
    map satisfying C1 and C2 on the circle; an interior one satisfies
    the starred pair instead. The anchor may be an AnchorPoint, a raw
    carrier point, or None to auto-select; it must sit strictly off the
    circle. On a finite carrier the map is a table fixing exactly the
    circle's members, as circle_of resolved them; when they exhaust the
    carrier the map is the identity and no anchor is involved.
    """
    return build_multi_circle_map(space, (circle,), anchor, eps)


def build_multi_circle_map(space: MetricSpace, circles, anchor=None,
                           eps=None) -> SelfMap:
    """Identity on every listed circle, constant anchor elsewhere.

    The anchor must sit strictly off each circle; with one circle this
    reduces to build_circle_fixing_map. Auto-selection raises
    AnchorSearchError when the circles blanket the carrier.
    """
    eps = resolve_eps(eps)
    circles = tuple(circles)
    if not circles:
        raise MalformedInputError("need at least one circle")
    fixed = {p for c in circles for p in c.members}
    if space.is_finite and fixed.issuperset(space.points()):
        return SelfMap.identity(space)
    value = _resolve_anchor(space, circles, anchor, eps).value
    if space.is_finite:
        return SelfMap.from_table(space, {p: p if p in fixed else value
                                          for p in space.points()})
    branches = tuple(Branch(predicate=("on_circle", c.center, c.radius),
                            image=("identity",)) for c in circles)
    return SelfMap.piecewise(space, branches, default=("constant", value))


# ---------------------------------------------------------------------------
# Counterexample search

_SEARCH_ATOMS = CONDITION_IDS + ("FIXED_CIRCLE",)


# Not a letter, digit, _, whitespace or !&|() (\w and \s read
# str.isalnum and str.isspace), or a digit that starts a word: with no
# number in it, a target draws no SyntaxWarning from the parser.
_TARGET_JUNK = re.compile(r"[^\w\s!&|()]|(?<!\w)\d")

# Each operator's chain: when the value so far settles it, and how an
# operand joins. A conjunction false everywhere (or a disjunction true
# everywhere) skips its remaining operands, so atoms are looked up on
# demand, left to right.
_CHAINS = {ast.BitAnd: (lambda v: not v.any(), np.logical_and),
           ast.BitOr: (lambda v: v.all(), np.logical_or)}


def _parse_target(text: str):
    """Parse !, &, | and parentheses over condition-id atoms into an
    evaluator.

    ! binds tighter than &, and & tighter than |, each left-associative:
    Python's grammar for ~, & and |, so ast parses a target once its !
    are written as ~. Characters other than letters, digits, _,
    whitespace and !&|(), and numbers, are refused before parsing; after
    it, anything but atom names (any case) and the three operators, and
    a target nested too deeply for the parser.

    The evaluator takes an atom -> (m,) bool lookup and returns the (m,)
    bool verdicts; it comes with the set of atoms the target names.
    """
    bad = _TARGET_JUNK.search(text)
    if bad:
        raise MalformedInputError(
            f"bad character {bad.group()!r} in target at offset {bad.start()}")
    src = " ".join(text.split()).replace("!", "~")
    try:
        body = ast.parse(src, "<target>", "eval").body
    except SyntaxError as err:
        raise MalformedInputError(f"bad target {text!r}: {err.msg}") from None
    except (RecursionError, MemoryError):   # MemoryError: its stack overflowed
        raise MalformedInputError("target is nested too deeply") from None
    tree = _evaluator(body, src.encode())    # it refused any other name
    return tree, {n.id.upper() for n in ast.walk(body) if isinstance(n, ast.Name)}


def _evaluator(node, src: bytes):
    """The evaluator of one parsed target node. A run of ~ is read by its
    parity and a chain of one operator in a loop, so only parentheses,
    whose depth the parser bounds, nest Python calls."""
    odd = False
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
        node, odd = node.operand, not odd
    if odd:
        inner = _evaluator(node, src)
        return lambda look: ~inner(look)
    # the text as typed: Python's NFKC-normalized id would read a
    # full-width or superscript name as an atom
    part = src[node.col_offset:node.end_col_offset].decode()
    if isinstance(node, ast.Name):
        name = part.upper()
        if name not in _SEARCH_ATOMS:
            raise MalformedInputError(f"unknown condition atom {part!r}")
        return lambda look: look(name)
    if not (isinstance(node, ast.BinOp) and type(node.op) in _CHAINS):
        raise MalformedInputError(
            f"{part!r} in target is not an atom or a !, &, | expression")
    op = type(node.op)
    settled, join = _CHAINS[op]
    operands = []
    while isinstance(node, ast.BinOp) and type(node.op) is op:
        operands.append(node.right)
        node = node.left
    first = _evaluator(node, src)
    rest = [_evaluator(n, src) for n in reversed(operands)]

    def chain(look):
        v = first(look)
        for operand in rest:
            if settled(v):
                break
            v = join(v, operand(look))
        return v
    return chain


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "exhausted"
    target: str
    found: SelfMap | None
    evaluated: int

    @property
    def exhausted(self) -> bool:
        return self.status == "exhausted"


def _exhaustive_chunks(n: int, chunk: int, digits=None):
    """Every table map in itertools.product(range(n), repeat=n) order, as
    (<= chunk, n) image arrays, the images of the points ``digits`` (an
    increasing index list; all by default) varying, every other one 0.
    Candidate i is i written in base n, most significant digit first. A
    chunk is whole blocks of n**k candidates, k the largest with n**k <=
    chunk: a block's low k digits are one table, made once, and its high
    ones one row, decoded from the block number, which stays a Python
    int so a huge n**n cannot wrap."""
    cols = list(range(n) if digits is None else digits)
    d = len(cols)
    k = next(k for k in range(d, -1, -1) if n ** k <= chunk)
    step, total = n ** k, n ** d
    low = np.indices((n,) * k, dtype=np.int64).reshape(k, step).T
    per = chunk // step * step
    for start in range(0, total, per):
        blocks = min(per, total - start) // step
        maps = np.zeros((blocks, step, n), dtype=np.int64)
        maps[:, :, cols[d - k:]] = low
        carry, rest = np.arange(blocks, dtype=np.int64), start // step
        for j in range(d - k - 1, -1, -1):
            rest, digit = divmod(rest, n)
            carry += digit
            maps[:, :, cols[j]] = (carry % n)[:, None]
            carry //= n
        yield maps.reshape(-1, n)


def _sampled_chunks(n: int, budget: int, chunk: int, seed: int):
    """``budget`` seeded random table maps, (<= chunk, n) at a time. Drawing
    a (k, n) block takes the same stream as k draws of size n."""
    rng = np.random.default_rng(seed)
    for start in range(0, budget, chunk):
        yield rng.integers(0, n, size=(min(chunk, budget - start), n))


def search_counterexample(space: MetricSpace, circle: Circle, target: str,
                          budget: int = 10 ** 6, seed: int = 0,
                          eps=None) -> SearchResult:
    """Hunt for a table map meeting a boolean combination of conditions.

    Atoms are condition ids plus FIXED_CIRCLE, all interpreted against
    the given circle; operators are !, &, | and parentheses. Candidate
    maps are exhausted in index order when |X|**|X| fits the budget,
    otherwise drawn seeded-random up to the budget. Either way the
    first hit in evaluation order wins, so results are reproducible. A
    negative budget or seed is refused. When every atom reads only the
    members' images (MEMBER_ATOMS), exhausting varies those alone, every
    other image 0, the first map in index order with them: same result.

    Candidates are judged through conditions.condition_flags in chunks
    of at most conditions.batch_rows maps, so the largest pair block
    stays under a fixed number of entries: whole blocks of |X|**k
    consecutive maps when exhausting, batch_rows draws when sampling.
    The first true index of a chunk is the hit, so the found map and the
    evaluated count are those of a one-by-one scan, and the seeded
    stream is the one a one-by-one draw takes.
    """
    eps = resolve_eps(eps)
    if not space.is_finite:
        raise DomainError("counterexample search needs a finite carrier")
    for name, value in (("budget", budget), ("seed", seed)):
        if value < 0:
            raise MalformedInputError(f"{name} must be >= 0, got {value}")
    tree, atoms = _parse_target(target)
    n = len(space.points())
    D = space.as_array
    center = space.index_of(circle.center)
    member = member_mask(space, circle)
    chunk = batch_rows(n)
    if exhaustive := n ** n <= budget:
        chunks = _exhaustive_chunks(n, chunk, np.flatnonzero(member)
                                    if atoms <= MEMBER_ATOMS else None)
    else:
        chunks = _sampled_chunks(n, budget, chunk, seed)

    evaluated = 0
    for maps in chunks:
        look = condition_flags(D, maps, center, circle.radius, eps, member)
        hits = np.flatnonzero(tree(look))
        if hits.size:
            images = [int(v) for v in maps[hits[0]]]
            index = (reduce(lambda high, v: high * n + v, images) if exhaustive
                     else evaluated + int(hits[0]))    # exhaustive: base n
            return SearchResult(status="found", target=target,
                                found=SelfMap.from_indices(space, images),
                                evaluated=index + 1)
        evaluated += maps.shape[0]
    return SearchResult(status="exhausted", target=target, found=None,
                        evaluated=min(budget, n ** n))
