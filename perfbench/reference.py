"""The benchmark's own evaluation of what the program computes.

Everything here works from a distance matrix (or a sample matrix built
from the named metric formulas) and a table of image indices, with plain
numpy and the defining inequalities as the paper states them. None of it
calls into the program, so a check that compares the program's answer
with these functions compares two computations made apart.

Tolerance semantics follow the package's documented rule: one absolute
eps; a weak inequality may undershoot by eps; a strict one must clear
eps; circle membership is |d(center, x) - radius| <= eps; realized radii
are clustered greedily from the smallest, a new cluster starting when a
distance exceeds the current representative by more than eps.
"""

from __future__ import annotations

import math

import numpy as np

EPS = 1e-9


def realized_radii(row: np.ndarray, eps: float = EPS) -> list[float]:
    """Representatives of the distance clusters one center attains."""
    out: list[float] = []
    for r in np.sort(row):
        if not out or r - out[-1] > eps:
            out.append(float(r))
    return out


def metric_is_valid(D: np.ndarray, eps: float = EPS) -> bool:
    """Brute-force check of the metric axioms on a distance matrix."""
    n = D.shape[0]
    if np.any(np.abs(np.diag(D)) > eps):
        return False
    off = ~np.eye(n, dtype=bool)
    if np.any((D <= eps) & off) or np.any(np.abs(D - D.T) > eps):
        return False
    for j in range(n):
        if np.any(D > D[:, j:j + 1] + D[j:j + 1, :] + eps):
            return False
    return True


def fixed_circles(D: np.ndarray, table: np.ndarray, eps: float = EPS) -> list:
    """Every non-degenerate realized circle whose members the table map
    leaves in place, as (center index, radius, member indices), in center
    order and then ascending radius."""
    n = D.shape[0]
    fixed = D[np.arange(n), table] <= eps
    out = []
    for ci in range(n):
        for r in realized_radii(D[ci], eps):
            if r <= eps:
                continue
            members = np.flatnonzero(np.abs(D[ci] - r) <= eps)
            if members.size and fixed[members].all():
                out.append((ci, r, tuple(int(m) for m in members)))
    return out


def atoms(D: np.ndarray, maps: np.ndarray, center: int, radius: float,
          eps: float = EPS) -> dict:
    """C1, C2, BANACH, RHOADES and FIXED_CIRCLE for a batch of table maps.

    ``maps`` is (m, n) image indices; each value is an (m,) bool array.
    C1 uses the canonical weight phi(x) = d(x, center).
    """
    m, n = maps.shape
    rows = np.arange(n)
    phi = D[center]
    member = np.abs(phi - radius) <= eps
    disp = D[rows[None, :], maps]                     # d(x, Tx)
    phiT = phi[maps]                                  # d(Tx, center)
    mem = member[None, :]
    c1 = np.where(mem, phi[None, :] - phiT - disp >= -eps, True).all(1)
    c2 = np.where(mem, phiT - radius >= -eps, True).all(1)
    fc = np.where(mem, disp <= eps, True).all(1)

    i, j = np.triu_indices(n, 1)
    dxy = D[i, j][None, :]
    dtt = D[maps[:, i], maps[:, j]]
    banach = np.where(dxy <= eps, dtt <= eps, dtt < dxy).all(1)
    five = np.maximum.reduce([np.broadcast_to(dxy, dtt.shape),
                              disp[:, i], disp[:, j],
                              D[i[None, :], maps[:, j]],
                              D[j[None, :], maps[:, i]]])
    rhoades = (five - dtt > eps).all(1)
    return {"C1": c1, "C2": c2, "BANACH": banach, "RHOADES": rhoades,
            "FIXED_CIRCLE": fc}


# Search targets the benchmark uses, as functions of the atom arrays.
TARGETS = {
    "C1 & C2 & !FIXED_CIRCLE":
        lambda a: a["C1"] & a["C2"] & ~a["FIXED_CIRCLE"],
    "RHOADES & C1 & C2 & !FIXED_CIRCLE":
        lambda a: a["RHOADES"] & a["C1"] & a["C2"] & ~a["FIXED_CIRCLE"],
    "C2 & !C1":
        lambda a: a["C2"] & ~a["C1"],
}


def target_holds(target: str, D: np.ndarray, maps: np.ndarray, center: int,
                 radius: float, eps: float = EPS) -> np.ndarray:
    return TARGETS[target](atoms(D, maps, center, radius, eps))


def sample_distance(kind: str, x, y) -> float:
    """The named analytic metrics, written out from their definitions."""
    if kind == "real_usual":
        return abs(x - y)
    if kind == "real_exp":
        return abs(math.exp(x) - math.exp(y))
    if kind == "real_abs_sum":
        return 0.0 if x == y else abs(x) + abs(y)
    if kind == "complex_usual":
        return abs(complex(x) - complex(y))
    raise ValueError(f"unknown analytic kind {kind!r}")


def circle_fixing_image(kind: str, center, radius: float, anchor, x,
                        eps: float = EPS):
    """Image of x under 'identity on the circle, constant anchor elsewhere'."""
    if abs(sample_distance(kind, x, center) - radius) <= eps:
        return x
    return anchor
