"""Signed permutations, fixed-point dictionaries, closed-orbit
representatives, statistics, and root data for the seven cases.

A Weyl-group element is a plain tuple of signed integers ``w`` with
``w[i-1] = w(i)`` and ``{|w(i)|} = {1..n}``.  Type A elements have no
negative entries; type D elements have an even number of them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache

from .clans import CaseId, Clan, ClanError, in_case_family

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


def weyl_abs(w: Weyl) -> Weyl:
    return tuple(abs(v) for v in w)


def weyl_inverse(w: Weyl) -> Weyl:
    inv = [0] * len(w)
    for i, v in enumerate(w, start=1):
        if v > 0:
            inv[v - 1] = i
        else:
            inv[-v - 1] = -i
    return tuple(inv)


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


def simple_reflection(lie_type: str, n: int, i: int) -> Weyl:
    """The i-th simple reflection as a signed permutation of 1..n."""
    vals = list(range(1, n + 1))
    if lie_type == "A":
        if not 1 <= i <= n - 1:
            raise WeylError(f"type A rank {n} has simple roots 1..{n - 1}")
        vals[i - 1], vals[i] = vals[i], vals[i - 1]
    elif lie_type in ("B", "C"):
        if not 1 <= i <= n:
            raise WeylError(f"type {lie_type} rank {n} has simple roots 1..{n}")
        if i < n:
            vals[i - 1], vals[i] = vals[i], vals[i - 1]
        else:
            vals[n - 1] = -n
    elif lie_type == "D":
        if not 1 <= i <= n or n < 2:
            raise WeylError(f"type D rank {n} has simple roots 1..{n}")
        if i < n:
            vals[i - 1], vals[i] = vals[i], vals[i - 1]
        else:
            vals[n - 2], vals[n - 1] = -n, -(n - 1)
    else:
        raise WeylError(f"unknown Lie type {lie_type!r}")
    return tuple(vals)


def embed_in_ambient(w: Weyl, parity: str) -> tuple[int, ...]:
    """Embed a signed permutation of n as an honest permutation of
    {1..2n} (parity='even') or {1..2n+1} (parity='odd')."""
    w = validate_weyl(w)
    n = len(w)
    if parity == "even":
        big = 2 * n + 1  # sigma(i) + sigma(2n+1-i) = 2n+1
        total = 2 * n
    elif parity == "odd":
        big = 2 * n + 2
        total = 2 * n + 1
    else:
        raise WeylError("parity must be 'even' or 'odd'")
    sigma = [0] * total
    for i, v in enumerate(w, start=1):
        sigma[i - 1] = v if v > 0 else big - (-v)
        sigma[total - i] = big - sigma[i - 1]
    if parity == "odd":
        sigma[n] = n + 1
    return tuple(sigma)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def stat_lp(w: Weyl, p: int) -> int:
    """#{(i, j) : i < j <= n, w(j) <= p < w(i)} for an unsigned permutation."""
    if any(v < 0 for v in w):
        raise WeylError("stat_lp is defined for unsigned permutations")
    n = len(w)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if w[j] <= p < w[i]
    )


def stat_psi(w: Weyl) -> int:
    return sum(1 for v in w if v < 0)


def stat_sigma(w: Weyl) -> int:
    """Sum of (n - i) over the positions i whose entry is negative."""
    n = len(w)
    return sum(n - i for i, v in enumerate(w, start=1) if v < 0)


def stat_tau(w: Weyl, p: int) -> int:
    """Sum over i <= n-1 with w(i) > p+1 of #{j : i < j <= n-1, w(j) <= p}."""
    n = len(w)
    total = 0
    for i in range(1, n):
        if w[i - 1] > p + 1:
            total += sum(1 for j in range(i + 1, n) if w[j - 1] <= p)
    return total


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


def is_closed_clan(case: CaseId, c: Clan) -> bool:
    """Closed orbits carry sign-only clans; where a coordinate is uncovered
    (d-oxo-odd), clans whose single pair sits at the two middle positions
    with signs elsewhere."""
    if not in_case_family(case, c):
        return False
    if not case.uncovered:
        return not c.pairs()
    n = case.grank
    return c.pairs() == ((n, n + 1),)


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
            (abs(w[i - 1]) < u) == (c.symbols[i - 1] == "+") for i in range(1, n)
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

    Where a coordinate u is uncovered (d-oxo-odd, u = p+1) and the formulas
    depend on the choice, the standard representative has no negative
    entries, w(n) = u, and increasing values within the '+' positions
    (1..p) and the '-' positions (p+2..n)."""
    if not is_closed_clan(case, c):
        raise ClanError(f"{c.to_text()} is not a closed-orbit clan for this case")
    n, p = case.grank, case.p
    symmetry = case.row.symmetry
    if case.uncovered:
        (u,) = case.uncovered
        plus, minus = iter(range(1, u)), iter(range(u + 1, n + 1))
        return tuple(next(plus if s == "+" else minus) for s in c.symbols[:n - 1]) + (u,)
    if symmetry == "none":
        plus, minus = iter(range(1, p + 1)), iter(range(p + 1, n + 1))
    elif symmetry == "mirror":
        plus, minus = iter(range(-p, 0)), iter(range(-n, -p))
    else:  # the '+' and '-' positions together use each |value| once
        plus, minus = iter(range(1, n + 1)), iter(range(-n, 0))
    w = [next(plus if s == "+" else minus) for s in c.symbols[:n]]
    if symmetry == "mirror" and case.family == "D" and n % 2:
        w[-1] = -w[-1]
    return tuple(w)


# ---------------------------------------------------------------------------
# Root data
# ---------------------------------------------------------------------------


def _unit(n: int, i: int, coeff: int = 1) -> Root:
    vec = [0] * n
    vec[i - 1] = coeff
    return tuple(vec)


def _pair_root(n: int, i: int, j: int, sign: int) -> Root:
    vec = [0] * n
    vec[i - 1] = 1
    vec[j - 1] = sign
    return tuple(vec)


@lru_cache(maxsize=None)
def positive_roots(case: CaseId) -> tuple[Root, ...]:
    """Positive roots of the ambient group, as coefficient vectors."""
    n = case.grank
    fam = case.family
    roots: list[Root] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            roots.append(_pair_root(n, i, j, -1))
            if fam != "A":
                roots.append(_pair_root(n, i, j, +1))
    if fam == "B":
        roots.extend(_unit(n, i) for i in range(1, n + 1))
    elif fam == "C":
        roots.extend(_unit(n, i, 2) for i in range(1, n + 1))
    return tuple(roots)


def _full_pair_system(n: int, block: range, with_short: bool,
                      short_coeff: int = 1) -> list[Root]:
    """All +/- pair roots within a block, optionally with +/- short roots."""
    roots: list[Root] = []
    members = list(block)
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            i, j = members[a], members[b]
            for si in (1, -1):
                for sj in (1, -1):
                    vec = [0] * n
                    vec[i - 1] = si
                    vec[j - 1] = sj
                    roots.append(tuple(vec))
    if with_short:
        for i in members:
            roots.append(_unit(n, i, short_coeff))
            roots.append(_unit(n, i, -short_coeff))
    return roots


@lru_cache(maxsize=None)
def subgroup_roots(case: CaseId) -> tuple[Root, ...]:
    """The full (positive and negative) root list of the symmetric subgroup:
    the root systems of K's blocks."""
    n = case.grank
    roots: list[Root] = []
    for lie_type, block in case.k_blocks:
        if lie_type == "A":
            roots += [_pair_root(n, i, j, -1) for i in block for j in block if i != j]
        else:
            roots += _full_pair_system(n, block, with_short=lie_type != "D",
                                       short_coeff=2 if lie_type == "C" else 1)
    return tuple(roots)


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
    the images of the positive roots under w (with every uncovered coordinate
    zeroed), with one occurrence of every subgroup root removed.
    Sorted for determinism."""
    w = validate_weyl(w, case.family)
    images = [apply_weyl_to_root(w, r) for r in positive_roots(case)]
    for u in case.uncovered:  # zero out the uncovered coordinate
        images = [r[:u - 1] + (0,) + r[u:] for r in images]
    counts = Counter(images)
    for beta in subgroup_roots(case):
        if counts.get(beta, 0) > 0:
            counts[beta] -= 1
    out: list[Root] = []
    for root, k in counts.items():
        out.extend([root] * k)
    return tuple(sorted(out))
