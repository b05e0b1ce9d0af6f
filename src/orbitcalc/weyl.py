"""Signed permutations, fixed-point dictionaries, closed-orbit
representatives, and root data for the seven cases.

A Weyl-group element is a plain tuple of signed integers ``w`` with
``w[i-1] = w(i)`` and ``{|w(i)|} = {1..n}``.  Type A elements have no
negative entries; type D elements have an even number of them.
Only localization loads this module; ``formulas.closed_class`` reads its
representatives' statistics off the clans' signs.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache

from .clans import CaseId, Clan, ClanError, is_closed_clan

Weyl = tuple[int, ...]
Root = tuple[int, ...]


class WeylError(ValueError):
    """Raised on invalid signed permutations or unsupported requests."""


# ---------------------------------------------------------------------------
# Basic signed-permutation calculus
# ---------------------------------------------------------------------------


def validate_weyl(w, lie_type: str | None = None) -> Weyl:
    w = tuple(int(v) for v in w)
    n = len(w)
    if n == 0:
        raise WeylError("empty signed permutation")
    if sorted(abs(v) for v in w) != list(range(1, n + 1)):
        raise WeylError(f"absolute values of {w} are not a permutation of 1..{n}")
    negs = sum(1 for v in w if v < 0)
    if lie_type == "A" and negs:
        raise WeylError("type A elements cannot have negative entries")
    if lie_type == "D" and negs % 2:
        raise WeylError("type D elements need an even number of negative entries")
    return w


@lru_cache(maxsize=None)
def weyl_elements(lie_type: str, n: int) -> tuple[Weyl, ...]:
    """All elements of the Weyl group of the given classical type and rank."""
    if lie_type == "A":
        return tuple(itertools.permutations(range(1, n + 1)))
    if lie_type in ("B", "C", "D"):
        out = []
        for perm in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1, -1), repeat=n):
                if lie_type == "D" and signs.count(-1) % 2:
                    continue
                out.append(tuple(s * v for s, v in zip(signs, perm)))
        return tuple(sorted(out))
    raise WeylError(f"unknown Lie type {lie_type!r}")


def weyl_order(lie_type: str, n: int) -> int:
    """The order of ``weyl_elements(lie_type, n)``, without listing them."""
    if lie_type == "A":
        return math.factorial(n)
    order = 2 ** n * math.factorial(n)
    return order // 2 if lie_type == "D" else order


# ---------------------------------------------------------------------------
# Per-case groups and the fixed-point dictionary
# ---------------------------------------------------------------------------


def ambient_weyl(case: CaseId) -> tuple[Weyl, ...]:
    return weyl_elements(case.family, case.grank)


def fixed_point_to_clan(case: CaseId, w: Weyl) -> Clan:
    """The clan of the orbit containing the coordinate-flag fixed point w.

    Supported where K's blocks cover every coordinate; d-oxo-odd has no such
    dictionary for non-closed orbits.
    """
    w = validate_weyl(w, case.family)
    p, n = case.p, case.grank
    if len(w) != n:
        raise WeylError(f"expected a signed permutation of {n}")
    if case.uncovered:
        raise WeylError(
            f"the fixed-point dictionary is not available for case {case.tag}"
        )
    P, Q = case.ambient_shape
    symmetry = case.row.symmetry
    if symmetry == "skew":
        half = ["+" if v > 0 else "-" for v in w]
        flipped = ["-" if s == "+" else "+" for s in half]
        return Clan(tuple(half + flipped[::-1]), P, Q)
    half = ["+" if abs(v) <= p else "-" for v in w]
    if symmetry == "none":
        return Clan(tuple(half), P, Q)
    middle = ["-"] * (Q % 2)  # b-so: the odd summand's middle sign
    return Clan(tuple(half + middle + half[::-1]), P, Q)


@lru_cache(maxsize=None)
def fixed_points_by_clan(case: CaseId) -> dict[Clan, tuple[Weyl, ...]]:
    """Group every ambient Weyl element by the clan of its orbit (where K's
    blocks cover every coordinate)."""
    groups: dict[Clan, list[Weyl]] = {}
    for w in ambient_weyl(case):
        c = fixed_point_to_clan(case, w)
        groups.setdefault(c, []).append(w)
    return {c: tuple(ws) for c, ws in groups.items()}


def closed_orbit_fixed_points(case: CaseId, c: Clan) -> tuple[Weyl, ...]:
    """All coordinate-flag fixed points lying in the given closed orbit."""
    if not is_closed_clan(case, c):
        raise ClanError(f"{c.to_text()} is not a closed-orbit clan for this case")
    if not case.uncovered:
        return fixed_points_by_clan(case).get(c, ())
    (u,) = case.uncovered
    n = case.grank
    out = []
    for w in ambient_weyl(case):
        if abs(w[n - 1]) != u:
            continue
        ok = all(
            (abs(w[i - 1]) < u) == (c.mates[i - 1] == "+") for i in range(1, n)
        )
        if ok:
            out.append(w)
    return tuple(out)


def distinguished_representative(case: CaseId, c: Clan) -> Weyl:
    """Deterministic fixed-point representative of a closed orbit, built
    from the signs of the first n symbols of its clan.

    Where K's blocks cover every coordinate it is the lexicographically
    least w with ``fixed_point_to_clan(case, w) == c``, each entry the least
    that the sign at its position allows:

    * ``none``: the '+' positions get 1..p and the '-' positions p+1..n,
      in order (a '+' needs w(i) <= p);
    * mirror: the '+' positions get -p, -(p-1), ... and the '-' positions
      -n, -(n-1), ... (a '+' needs |w(i)| <= p); in type D with n odd the
      last entry turns positive, which keeps the number of negative entries
      even at the least cost;
    * ``skew``: a '+' position takes the least unused value and a '-'
      position minus the largest (a '+' needs w(i) > 0); in type D the
      clan has an even number of '-' signs.

    Where a coordinate u is uncovered (d-oxo-odd, u = p+1), the standard
    representative has no negative entries, w(n) = u, and increasing
    values within the '+' positions (1..p) and the '-' positions
    (p+2..n).  It is the one point of each closed orbit at which
    ``formulas.verify_localization`` checks the classes."""
    if not is_closed_clan(case, c):
        raise ClanError(f"{c.to_text()} is not a closed-orbit clan for this case")
    n, p = case.grank, case.p
    symmetry = case.row.symmetry
    if case.uncovered:
        (u,) = case.uncovered
        plus, minus = iter(range(1, u)), iter(range(u + 1, n + 1))
        return tuple(next(plus if s == "+" else minus) for s in c.mates[:n - 1]) + (u,)
    if symmetry == "none":
        plus, minus = iter(range(1, p + 1)), iter(range(p + 1, n + 1))
    elif symmetry == "mirror":
        plus, minus = iter(range(-p, 0)), iter(range(-n, -p))
    else:  # the '+' and '-' positions together use each |value| once
        plus, minus = iter(range(1, n + 1)), iter(range(-n, 0))
    w = [next(plus if s == "+" else minus) for s in c.mates[:n]]
    if symmetry == "mirror" and case.family == "D" and n % 2:
        w[-1] = -w[-1]
    return tuple(w)


# ---------------------------------------------------------------------------
# Root data
# ---------------------------------------------------------------------------


def _roots(lie_type: str, coords: range, n: int, positive: bool) -> list[Root]:
    """The roots of type ``lie_type`` on the coordinates ``coords``, as
    vectors of length n: e_i - e_j (and e_i + e_j outside type A) for i < j,
    and e_i in type B or 2e_i in type C; with their negatives unless
    ``positive``."""
    def vec(*entries: tuple[int, int]) -> Root:
        out = [0] * n
        for i, coeff in entries:
            out[i - 1] = coeff
        return tuple(out)

    signs = (-1,) if lie_type == "A" else (-1, 1)
    roots = [vec((i, 1), (j, s)) for i, j in itertools.combinations(coords, 2) for s in signs]
    short = {"B": 1, "C": 2}.get(lie_type)
    if short:
        roots += [vec((i, short)) for i in coords]
    return roots if positive else roots + [tuple(-a for a in r) for r in roots]


def apply_weyl_to_root(w: Weyl, root: Root) -> Root:
    """Push a coefficient vector through X_i -> sign(w(i)) X_|w(i)|."""
    vec = [0] * len(root)
    for i, coeff in enumerate(root, start=1):
        if coeff:
            v = w[i - 1]
            vec[abs(v) - 1] += coeff if v > 0 else -coeff
    return tuple(vec)


def restriction_weights(case: CaseId, w: Weyl) -> tuple[Root, ...]:
    """Multiset of torus weights of the closed orbit's normal-ish directions:
    the images of G's positive roots under w (with every uncovered
    coordinate zeroed), with one occurrence of every root of K's blocks
    removed.  Sorted for determinism."""
    w = validate_weyl(w, case.family)
    n = case.grank
    images = [apply_weyl_to_root(w, r) for r in _roots(case.family, range(1, n + 1), n, True)]
    for u in case.uncovered:  # zero out the uncovered coordinate
        images = [r[:u - 1] + (0,) + r[u:] for r in images]
    counts = Counter(images)
    for lie_type, block in case.k_blocks:
        for beta in _roots(lie_type, block, n, False):
            if counts.get(beta, 0) > 0:
                counts[beta] -= 1
    out: list[Root] = []
    for root, k in counts.items():
        out.extend([root] * k)
    return tuple(sorted(out))
