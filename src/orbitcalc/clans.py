"""Clans: sign/matching strings that index the orbits of a block subgroup on a flag variety.

A clan of shape ``(p, q)`` is a string of length ``n = p + q`` whose entries are
``'+'``, ``'-'``, or pair labels, each pair label occurring exactly twice, with
``#(+) - #(-) = p - q``.  Two clans are equal exactly when their sign positions
(and signs) agree and their pair labels induce the same matching of positions.

A clan is stored as its mate code: its symbols with every sign kept and every
pair symbol replaced by the 0-based position of its mate.  Mate codes need no
relabelling, and two clans of one shape are equal exactly when their codes
are.  Labels exist only at the edges: ``make_clan`` and ``parse_clan`` in
:mod:`orbitcalc.cmd_chern`, the one subcommand that reads clan text, turn
labelled input into a code once, and ``Clan.to_text`` numbers the pairs
1, 2, ... by first occurrence, for output.

The module also provides the rank-number tables of a clan and their order,
the table ``CASES`` of the seven supported symmetric pairs with the fold
rules, the family check and the closed-orbit check read off it,
enumeration, and ``Record``, the immutable base of the package's value
classes.

One walk enumerates every family, filling codes in canonical-string order,
so nothing is sorted.  It decides positions left to right, each trying its
symbols in that order.  Type A is the walk without a fold.  The six folded
families walk with the fold j -> N - 1 - j, each choice left of the middle
setting its image too, and admit only what the case's fold rules allow.
"""

from __future__ import annotations

import itertools
import sys
from operator import attrgetter
from typing import Callable, Sequence

PLUS = "+"
MINUS = "-"


class Record:
    """Immutable record.  A subclass names its fields in ``_fields`` and in its
    ``__slots__``, may give ``_defaults`` and may override ``_validate``.  Built
    by position or keyword; compared, hashed and shown field-wise."""

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        cls._key = property(attrgetter(*cls._fields))

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or len(values) != len(names)
                or not kwargs.keys() <= set(names[len(args):])):
            raise TypeError(f"{type(self).__name__}() takes the fields {names}")
        for name in names:
            object.__setattr__(self, name, values[name])
        self._validate()

    def _validate(self) -> None:
        """Check the fields; normalize them with ``object.__setattr__``."""

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


class CaseRow(Record):
    """The datum of one symmetric pair (G, K).

    ``family`` is G's root family; ``symmetry`` is that of the clans labelling
    the orbits ("none", "mirror" for symmetric clans, "skew" for the GL pairs);
    ``shape(p, q)`` is their (P, Q) shape; ``least`` is the least rank;
    ``desk`` is the shipped (p, q); ``blocks(p, q)`` is K's root system as
    (type, coordinates) blocks, coordinates 1-based.
    """

    __slots__ = _fields = ("family", "symmetry", "shape", "least", "desk", "blocks")
    family: str
    symmetry: str
    shape: Callable[[int, int], tuple[int, int]]
    least: int
    desk: tuple[int, int]
    blocks: Callable[[int, int], tuple[tuple[str, range], ...]]


def _pair_blocks(first: str, second: str, gap: int = 0):
    """K blocks of type ``first`` on 1..p and ``second`` on p+1+gap..p+q."""
    return lambda p, q: ((first, range(1, p + 1)), (second, range(p + 1 + gap, p + q + 1)))


def _gl_blocks(p: int, q: int) -> tuple[tuple[str, range], ...]:
    """K = GL(n), p == q == n: one A block on 1..n."""
    return (("A", range(1, p + 1)),)


#: The seven supported symmetric pairs, by tag.
CASES = {
    # (GL(p+q), GL(p) x GL(q))
    "a": CaseRow("A", "none", lambda p, q: (p, q), 1, (2, 2), _pair_blocks("A", "A")),
    # (SO(2n+1), S(O(2p) x O(2q+1))), n = p + q
    "b-so": CaseRow("B", "mirror", lambda p, q: (2 * p, 2 * q + 1), 2, (2, 1),
                    _pair_blocks("D", "B")),
    # (Sp(2n), Sp(2p) x Sp(2q)), n = p + q
    "c-spxsp": CaseRow("C", "mirror", lambda p, q: (2 * p, 2 * q), 2, (2, 1),
                       _pair_blocks("C", "C")),
    # (Sp(2n), GL(n))
    "c-sp-gl": CaseRow("C", "skew", lambda p, q: (p, q), 1, (2, 2), _gl_blocks),
    # (SO(2n), S(O(2p) x O(2q))), n = p + q
    "d-oxo-even": CaseRow("D", "mirror", lambda p, q: (2 * p, 2 * q), 2, (2, 1),
                          _pair_blocks("D", "D")),
    # (SO(2n), GL(n))
    "d-so-gl": CaseRow("D", "skew", lambda p, q: (p, q), 2, (3, 3), _gl_blocks),
    # (SO(2n), S(O(2p+1) x O(2q-1))), n = p + q; no K block covers p + 1
    "d-oxo-odd": CaseRow("D", "mirror", lambda p, q: (2 * p + 1, 2 * q - 1), 2, (1, 2),
                         _pair_blocks("B", "B", gap=1)),
}

#: The shipped rank of each family: (tag, p, q), checked end to end.
DESK_RANKS = tuple((tag, *row.desk) for tag, row in CASES.items())


class ClanError(ValueError):
    """Raised for malformed clan strings or inconsistent rank tables."""


class CheckError(ValueError):
    """Base of the errors raised when a consistency or verification check fails."""


class Clan(Record):
    """A clan, stored as its mate code ``mates`` (see the module docstring).
    ``Clan(mates, p, q)`` trusts its code; build a clan from labelled
    symbols with ``cmd_chern.make_clan`` or ``cmd_chern.parse_clan``."""

    __slots__ = ("mates", "p", "q", "_hash")
    _fields = ("mates", "p", "q")

    def __init__(self, mates: tuple, p: int, q: int) -> None:
        object.__setattr__(self, "mates", mates)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_hash", hash((mates, p, q)))

    def __eq__(self, other):
        if other.__class__ is not Clan:
            return NotImplemented
        return self.mates == other.mates and self.p == other.p and self.q == other.q

    def __hash__(self) -> int:
        return self._hash

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.p + self.q

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Matched position pairs (a, b) with a < b, 1-based, sorted by a."""
        return tuple((a + 1, b + 1) for a, b in enumerate(self.mates)
                     if b.__class__ is int and b > a)

    def _labels(self) -> list:
        """The symbols for output: pairs labelled 1, 2, ... by first occurrence."""
        out = list(self.mates)
        label = 0
        for j, x in enumerate(self.mates):
            if x.__class__ is int and x > j:
                label += 1
                out[j] = out[x] = label
        return out

    def to_text(self) -> str:
        return "".join(s if s.__class__ is str else str(s) if s < 10 else f"({s})"
                       for s in self._labels())

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()


# ---------------------------------------------------------------------------
# Rank numbers
# ---------------------------------------------------------------------------


class RankTable(Record):
    """The three rank-number families of a clan.

    ``plus[i-1]``  counts '+' signs and completed pairs among the first i symbols;
    ``minus[i-1]`` counts '-' signs and completed pairs;
    ``cross``      stores, for 1 <= i < j <= n, the number of pairs (s, t) with
                   s <= i < j < t, as ``cross[i-1][j-i-1]``.
    """

    __slots__ = _fields = ("plus", "minus", "cross")
    plus: tuple[int, ...]
    minus: tuple[int, ...]
    cross: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.plus)

    def below(self, other: "RankTable") -> bool:
        """The rank-number order on tables of one size: sign ranks at least
        ``other``'s, crossing ranks at most ``other``'s."""
        return (
            all(a >= b for a, b in zip(self.plus, other.plus))
            and all(a >= b for a, b in zip(self.minus, other.minus))
            and all(
                a <= b
                for row, other_row in zip(self.cross, other.cross)
                for a, b in zip(row, other_row)
            )
        )


def rank_table(c: Clan) -> RankTable:
    """Compute the rank-number table of a clan in one pass from the left.

    After position i, ``closes[t]`` is 1 exactly when a pair opened at or
    before i closes at t > i, so crossing row i is the suffix sums of
    ``closes`` beyond each j > i."""
    mates = c.mates
    n = len(mates)
    closes = [0] * n
    plus, minus, cross = [], [], []
    n_plus = n_minus = 0
    for i, x in enumerate(mates):  # 0-based
        if x == PLUS:
            n_plus += 1
        elif x == MINUS:
            n_minus += 1
        elif x < i:
            n_plus += 1
            n_minus += 1
        else:
            closes[x] = 1
        plus.append(n_plus)
        minus.append(n_minus)
        if i < n - 1:
            # closes[n - 1], ..., closes[i + 2] summed: the entries for j = n - 2 .. i + 1
            row = [0, *itertools.accumulate(closes[n - 1:i + 1:-1])]
            row.reverse()
            cross.append(tuple(row))
    return RankTable(tuple(plus), tuple(minus), tuple(cross))


# ---------------------------------------------------------------------------
# Case identifiers and per-case clan families
# ---------------------------------------------------------------------------


class CaseId(Record):
    """One of the seven supported symmetric pairs, with its rank parameters.

    For the two GL pairs (``c-sp-gl``, ``d-so-gl``) the parameters satisfy
    p == q == n.  For all the others n = p + q is the rank of the ambient
    group.
    """

    # row, ambient_shape, grank: read off CASES at construction; not in eq, hash, repr
    __slots__ = ("tag", "p", "q", "row", "ambient_shape", "grank")
    _fields = ("tag", "p", "q")

    def _validate(self) -> None:
        row = CASES.get(self.tag)
        if row is None:
            raise ClanError(f"unknown case tag {self.tag!r}")
        p, q = self.p, self.q
        if row.symmetry == "skew":
            if p != q or p < row.least:
                raise ClanError(f"case {self.tag} needs p == q == n >= {row.least}")
        elif row.symmetry == "none":
            if p < 0 or q < 0 or p + q < row.least:
                raise ClanError(
                    f"case {self.tag} needs p, q >= 0 with p + q >= {row.least}"
                )
        elif p < 1 or q < 1:
            raise ClanError(f"case {self.tag} needs p, q >= 1")
        # ambient_shape: the (P, Q) shape of the clans labelling the orbits;
        # grank: the rank of the ambient group (the number of x/y variables),
        # which is the clan length, halved for the folded families
        P, Q = row.shape(p, q)
        if P + Q > sys.maxsize:
            raise ClanError(f"rank {max(p, q)} is too large for case {self.tag}")
        n = P + Q if row.symmetry == "none" else (P + Q) // 2
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "ambient_shape", (P, Q))
        object.__setattr__(self, "grank", n)

    @property
    def family(self) -> str:
        """Root-system family of the ambient group: 'A', 'B', 'C', or 'D'."""
        return self.row.family

    @property
    def ambient_len(self) -> int:
        P, Q = self.ambient_shape
        return P + Q

    @property
    def k_blocks(self) -> tuple[tuple[str, range], ...]:
        """K's root system: (type, coordinates) for each block."""
        return self.row.blocks(self.p, self.q)

    @property
    def uncovered(self) -> tuple[int, ...]:
        """The coordinates no K block covers: p + 1 in d-oxo-odd, else none."""
        covered = {i for _, block in self.k_blocks for i in block}
        return tuple(i for i in range(1, self.grank + 1) if i not in covered)


def case_from_params(tag: str, p: int | None = None, q: int | None = None) -> CaseId:
    """Build a CaseId from CLI-style parameters (--p/--q, or --n as p for the
    GL pairs)."""
    row = CASES.get(tag)
    if row is not None and row.symmetry == "skew":
        if p is None or (q is not None and q != p):
            raise ClanError(f"case {tag} needs --n")
        return CaseId(tag, p, p)
    if p is None or q is None:
        raise ClanError(f"case {tag} needs --p and --q")
    return CaseId(tag, p, q)


#: The sign map of the fold j -> N - 1 - j for each symmetry (type A has no fold).
_FOLD_SIGNS = {"none": None, "mirror": {PLUS: PLUS, MINUS: MINUS},
               "skew": {PLUS: MINUS, MINUS: PLUS}}


def _fold_rules(row: CaseRow) -> tuple[dict | None, bool, bool]:
    """The three fold rules of a case: the fold's sign map (None for type A),
    whether a self-mirror pair (positions a + b = N + 1, N the clan length) is
    allowed, and whether the minus rank at the middle must be even.

    Self-mirror pairs are barred for mirror clans in type C and for skew
    clans in type D, and a type-D skew clan has an even minus rank at the
    middle."""
    skew = row.symmetry == "skew"
    return (_FOLD_SIGNS[row.symmetry], (row.family, skew) not in (("C", False), ("D", True)),
            skew and row.family == "D")


def _fold_fixes(mates: Sequence, signs: dict) -> bool:
    """Whether the fold j -> N - 1 - j fixes the code, the fold taking each
    sign to its image in ``signs`` and a pair (a, b) to (N - 1 - b, N - 1 - a)."""
    last = len(mates) - 1
    return all(y == (signs[x] if x.__class__ is str else last - x)
               for x, y in zip(mates, reversed(mates)))


def _has_self_mirror_pair(c: Clan) -> bool:
    """Whether a pair sits at positions a and N - 1 - a (0-based)."""
    last = c.n - 1
    return any(x == last - j for j, x in enumerate(c.mates))


def _middle_minus_rank(mates: Sequence, n: int) -> int:
    """The minus rank at position n, ``rank_table(c).minus[n - 1]``: the
    minus signs and the closed pairs among the first n positions.  A
    partial code may hold None at a pair still open."""
    return sum(x == MINUS or x.__class__ is int and x < j for j, x in enumerate(mates[:n]))


def in_case_family(case: CaseId, c: Clan) -> bool:
    """Whether the clan labels an orbit of the given case: it has the case's
    shape, the case's fold fixes its code, and the bars of
    :func:`_fold_rules` hold."""
    if (c.p, c.q) != case.ambient_shape:
        return False
    signs, self_mirror, even_middle = _fold_rules(case.row)
    return ((signs is None or _fold_fixes(c.mates, signs))
            and (self_mirror or not _has_self_mirror_pair(c))
            and not (even_middle and _middle_minus_rank(c.mates, case.grank) % 2))


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


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _walk(P: int, Q: int, signs: dict | None, self_mirror: bool, even_middle: bool,
          too_large: str) -> tuple[Clan, ...]:
    """The clans of shape (P, Q) that the fold with sign map ``signs`` fixes
    and the two bars of :func:`_fold_rules` admit, in canonical-string
    order; with no fold (``signs`` None), every clan of the shape.

    The walk decides positions left to right.  Each tries its symbols in
    canonical order: '+', '-', the close of an open pair (earliest opened
    first), a new pair.  A pair's mate is set when the pair closes.  A '+'
    takes one of P, a '-' one of Q and a pair one of each, and a choice is
    made only while what is left of (P, Q) allows it.  With a fold
    j -> N - 1 - j (N = P + Q), a position left of the middle also sets its
    image: a sign's image under ``signs``, or the image (N - 1 - b, N - 1 - a)
    of a pair (a, b).  The middle of an odd-length code holds a sign.  Once
    the left half is decided, the middle is checked: pairs open across it
    close in mirrored couples, so their number is even where self-mirror
    pairs are barred, and the minus rank there is even where
    ``even_middle`` asks.  A position right of the middle is either set
    already or closes a pair open across the middle, together with that
    pair's image.  ``too_large`` is the usage error for a code too long to
    hold, or too long for the walk's one call per position to nest.
    """
    N = P + Q
    try:
        mates: list = [None] * N
    except MemoryError:
        raise ClanError(too_large) from None
    half = N // 2 if signs else -1  # where the middle is checked
    # the signs a position tries: each with its image and what the two take from (P, Q)
    lone = ((PLUS, None, 1, 0), (MINUS, None, 0, 1))
    paired = tuple((s, t, (s == PLUS) + (t == PLUS), (s == MINUS) + (t == MINUS))
                   for s, t in signs.items()) if signs else lone
    out: list = []

    def fill(i: int, p: int, q: int, opened: tuple) -> None:
        # p, q: what is left of (P, Q); opened: the open pairs' first positions
        if i == half and (not self_mirror and len(opened) % 2
                          or even_middle and _middle_minus_rank(mates, half) % 2):
            return
        while i < N and mates[i] is not None:
            i += 1
        if i == N:
            out.append(Clan(tuple(mates), P, Q))
            return
        i_bar = N - 1 - i
        if signs and i > i_bar:  # right of the middle
            for a in opened:
                if self_mirror or a != i_bar:
                    a_bar = N - 1 - a
                    mates[a], mates[i], mates[i_bar], mates[a_bar] = i, a, a_bar, i_bar
                    fill(i + 1, p, q, tuple(x for x in opened if x != a and x != i_bar))
                    mates[a] = mates[i] = mates[i_bar] = mates[a_bar] = None
            return
        image = signs and i < i_bar
        for s, t, dp, dq in paired if image else lone:
            if dp <= p and dq <= q:
                mates[i] = s
                if image:
                    mates[i_bar] = t
                fill(i + 1, p - dp, q - dq, opened)
        mates[i] = None
        if image:
            mates[i_bar] = None
        elif signs:
            return  # the middle holds a sign
        d = 1 if image else 0  # a close with its image opens the image pair
        if p >= d and q >= d:
            for k, a in enumerate(opened):
                mates[a], mates[i] = i, a
                if image:
                    a_bar = N - 1 - a
                    mates[i_bar], mates[a_bar] = a_bar, i_bar
                fill(i + 1, p - d, q - d, opened[:k] + opened[k + 1:])
                mates[a] = mates[i] = None
                if image:
                    mates[i_bar] = mates[a_bar] = None
        if p and q:
            fill(i + 1, p - 1, q - 1, opened + (i,))

    try:
        fill(0, P, Q, ())
    except RecursionError:
        raise ClanError(too_large) from None
    return tuple(out)


def enumerate_clans(p: int, q: int) -> tuple[Clan, ...]:
    """All clans of shape (p, q), in canonical-string order ('+' < '-' <
    pair labels): the walk with no fold."""
    if p < 0 or q < 0 or p + q < 1:
        raise ClanError(f"invalid shape ({p}, {q})")
    return _walk(p, q, None, True, False, f"rank {p + q} is too large for shape ({p}, {q})")


def enumerate_case_clans(case: CaseId) -> tuple[Clan, ...]:
    """All clans of the case's family, in canonical-string order: every clan
    of its shape in type A, else the walk with the case's fold rules."""
    P, Q = case.ambient_shape
    if case.row.symmetry == "none":
        return enumerate_clans(P, Q)
    return _walk(P, Q, *_fold_rules(case.row),
                 f"rank {case.grank} is too large for case {case.tag}")


# ---------------------------------------------------------------------------
# Partial order
# ---------------------------------------------------------------------------


def leq(a: Clan, b: Clan) -> bool:
    """The rank-table order: a <= b iff a's table is below b's."""
    if (a.p, a.q) != (b.p, b.q):
        raise ClanError("clans of different shapes are incomparable")
    return rank_table(a).below(rank_table(b))
