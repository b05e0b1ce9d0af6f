"""Clans: sign/matching strings that index the orbits of a block subgroup on a flag variety.

A clan of shape ``(p, q)`` is a string of length ``n = p + q`` whose entries are
``'+'``, ``'-'``, or pair labels, each pair label occurring exactly twice, with
``#(+) - #(-) = p - q``.  Two clans are equal exactly when their sign positions
(and signs) agree and their pair labels induce the same matching of positions.

A clan is stored as its mate code: its symbols with every sign kept and every
pair symbol replaced by the 0-based position of its mate.  Mate codes need no
relabelling, and two clans of one shape are equal exactly when their codes
are.  Labels exist only at the edges: :func:`make_clan` and :func:`parse_clan`
turn labelled input into a code once, and ``Clan.to_text`` and
``Clan.sort_key`` number the pairs 1, 2, ... by first occurrence, for output
and for the canonical-string order.

The module also provides the rank-number tables of a clan and their order,
enumeration of all clans of a shape, the symmetry predicates, the table
``CASES`` of the seven supported symmetric pairs, and ``Record``, the
immutable base of the package's value classes.

Type A enumerates every clan of its shape.  The six folded families fill
the codes of their family directly: a walk fills positions left to right,
each choice together with its image under the fold j -> N - 1 - j, and
admits only what the family's bars allow.
"""

from __future__ import annotations

import itertools
import re
import sys
from operator import attrgetter
from typing import Callable, Iterator, Sequence

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

#: Tags for the seven supported symmetric pairs.
CASE_TAGS = tuple(CASES)

#: The shipped rank of each family: (tag, p, q), checked end to end.
DESK_RANKS = tuple((tag, *row.desk) for tag, row in CASES.items())


class ClanError(ValueError):
    """Raised for malformed clan strings or inconsistent rank tables."""


class CheckError(ValueError):
    """Base of the errors raised when a consistency or verification check fails."""


class Clan(Record):
    """A clan, stored as its mate code ``mates`` (see the module docstring).
    ``Clan(mates, p, q)`` trusts its code; build a clan from labelled
    symbols with :func:`make_clan` or :func:`parse_clan`."""

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

    def sort_key(self) -> tuple:
        """Deterministic ordering key, that of the canonical strings:
        '+' < '-' < pair labels by number."""
        return tuple([0 if s == PLUS else 1 if s == MINUS else s + 1 for s in self._labels()])


def make_clan(symbols: Sequence, p: int, q: int) -> Clan:
    """Build a clan from a symbol sequence ('+', '-', or hashable pair
    labels), checking it against the shape (p, q)."""
    if p < 0 or q < 0 or p + q < 1:
        raise ClanError(f"invalid shape ({p}, {q})")
    if len(symbols) != p + q:
        raise ClanError(
            f"clan has {len(symbols)} symbols but shape ({p}, {q}) needs {p + q}"
        )
    mates = list(symbols)
    at: dict = {}  # pair label -> its positions, labels by first occurrence
    for j, sym in enumerate(symbols):
        if sym != PLUS and sym != MINUS:
            at.setdefault(sym, []).append(j)
    for number, places in enumerate(at.values(), start=1):
        if len(places) != 2:
            raise ClanError(f"pair label {number} occurs {len(places)} times (needs exactly 2)")
        a, b = places
        mates[a], mates[b] = b, a
    n_plus, n_minus = mates.count(PLUS), mates.count(MINUS)
    if n_plus - n_minus != p - q:
        raise ClanError(
            f"sign counts (+{n_plus}, -{n_minus}) incompatible with shape ({p}, {q})"
        )
    return Clan(tuple(mates), p, q)


_TOKEN_RE = re.compile(r"\+|-|[0-9]|\((\d+)\)")


def parse_clan(text: str, p: int, q: int) -> Clan:
    """Parse a clan string such as ``'1+-1'`` or ``'(10)+(10)-'`` into a clan of shape (p, q)."""
    text = text.strip().replace("−", "-").replace("–", "-")
    symbols: list = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ClanError(f"unrecognized clan token at {text[pos:]!r}")
        tok = m.group(0)
        if tok == PLUS or tok == MINUS:
            symbols.append(tok)
        elif tok.startswith("("):
            symbols.append(int(m.group(1)))
        else:
            symbols.append(int(tok))
        pos = m.end()
    return make_clan(symbols, p, q)


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
# Enumeration
# ---------------------------------------------------------------------------


def _matchings(positions: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings of an even-size position tuple, deterministically."""
    if not positions:
        yield ()
        return
    first = positions[0]
    rest = positions[1:]
    for k, other in enumerate(rest):
        remaining = rest[:k] + rest[k + 1:]
        for sub in _matchings(remaining):
            yield ((first, other),) + sub


def enumerate_clans(p: int, q: int) -> tuple[Clan, ...]:
    """All clans of shape (p, q), sorted by canonical string ('+' < '-' < pair labels)."""
    if p < 0 or q < 0 or p + q < 1:
        raise ClanError(f"invalid shape ({p}, {q})")
    n = p + q
    try:
        positions = tuple(range(n))  # the pool every combination below draws from
    except MemoryError:
        raise ClanError(f"rank {n} is too large for shape ({p}, {q})") from None
    out = []
    for m in range(0, min(p, q) + 1):
        for pair_positions in itertools.combinations(positions, 2 * m):
            rest = [i for i in range(n) if i not in pair_positions]
            for matching in _matchings(pair_positions):
                paired: list = [MINUS] * n
                for a, b in matching:
                    paired[a], paired[b] = b, a
                for plus_positions in itertools.combinations(rest, p - m):
                    mates = paired.copy()
                    for j in plus_positions:
                        mates[j] = PLUS
                    out.append(Clan(tuple(mates), p, q))
    out.sort(key=Clan.sort_key)
    return tuple(out)


# ---------------------------------------------------------------------------
# Symmetry predicates
# ---------------------------------------------------------------------------


_SAME = {PLUS: PLUS, MINUS: MINUS}
_NEGATE = {PLUS: MINUS, MINUS: PLUS}


def _fold_fixes(mates: Sequence, signs: dict) -> bool:
    """Whether the fold j -> N - 1 - j fixes the code, the fold taking each
    sign to its image in ``signs`` and a pair (a, b) to (N - 1 - b, N - 1 - a)."""
    last = len(mates) - 1
    return all(y == (signs[x] if x.__class__ is str else last - x)
               for x, y in zip(mates, reversed(mates)))


def is_symmetric(c: Clan) -> bool:
    """True when the clan equals its own reversal (signs mirror, matching mirrored)."""
    return _fold_fixes(c.mates, _SAME)


def is_skew_symmetric(c: Clan) -> bool:
    """True when the reversal equals the sign-negated clan."""
    return c.p == c.q and _fold_fixes(c.mates, _NEGATE)


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


def _has_self_mirror_pair(c: Clan) -> bool:
    """Whether a pair sits at positions a and N - 1 - a (0-based)."""
    last = c.n - 1
    return any(x == last - j for j, x in enumerate(c.mates))


def _middle_minus_rank(mates: Sequence, n: int) -> int:
    """The minus rank at position n, ``rank_table(c).minus[n - 1]``: the
    minus signs and the closed pairs among the first n positions."""
    return sum(x == MINUS if x.__class__ is str else x < j for j, x in enumerate(mates[:n]))


def in_case_family(case: CaseId, c: Clan) -> bool:
    """Whether the clan labels an orbit of the given case.

    A self-mirror pair (positions a + b = N + 1, N the clan length) is barred
    for mirror clans in type C and for skew clans in type D, and a type-D
    skew clan has an even minus rank at the middle."""
    if (c.p, c.q) != case.ambient_shape:
        return False
    row = case.row
    if row.symmetry == "none":
        return True
    if row.symmetry == "mirror":
        return is_symmetric(c) and not (row.family == "C" and _has_self_mirror_pair(c))
    if not is_skew_symmetric(c):
        return False
    if row.family == "C":
        return True
    return not _has_self_mirror_pair(c) and _middle_minus_rank(c.mates, case.grank) % 2 == 0


def _folded_clans(case: CaseId) -> Iterator[tuple]:
    """The mate code of every clan of a folded case's family.

    These are the clans of the case's shape fixed by the fold
    j -> N - 1 - j (0-based, N the clan length), which keeps a sign of a
    mirror clan and flips a sign of a skew clan, and sends a pair (a, b) to
    the pair (N - 1 - b, N - 1 - a).  Positions are filled left to right,
    each choice together with its image, so the open positions always lie
    between the leftmost open one and its image.  The middle of an
    odd-length clan is its own image and holds a sign.  The walk admits
    what :func:`in_case_family` does: a self-mirror pair only where the
    family allows one, a partial code only while its open positions can
    still balance its signs, and in a type-D skew family a full code only
    when its minus rank at the middle is even.
    """
    P, Q = case.ambient_shape
    N = P + Q
    skew = case.row.symmetry == "skew"
    image = _NEGATE if skew else _SAME
    self_mirror = (case.family, skew) not in (("C", False), ("D", True))
    even_middle = skew and case.family == "D"
    try:
        mates: list = [None] * N
    except MemoryError:
        raise ClanError(f"rank {case.grank} is too large for case {case.tag}") from None

    def fill(i: int, balance: int, left: int) -> Iterator[tuple]:
        # balance: '+' signs less '-' signs so far; left: the open positions
        if abs(P - Q - balance) > left:
            return
        if not left:
            if not (even_middle and _middle_minus_rank(mates, case.grank) % 2):
                yield tuple(mates)
            return
        while mates[i] is not None:
            i += 1
        i_bar = N - 1 - i
        width = 1 if i == i_bar else 2
        step = 0 if skew else width
        for s, change in ((PLUS, step), (MINUS, -step)):
            mates[i_bar] = image[s]
            mates[i] = s
            yield from fill(i + 1, balance + change, left - width)
        mates[i] = mates[i_bar] = None
        for j in range(i + 1, i_bar + 1):
            j_bar = N - 1 - j
            # j == j_bar: the middle; j == i_bar: a self-mirror pair
            if mates[j] is not None or j == j_bar or (j == i_bar and not self_mirror):
                continue
            mates[i], mates[j] = j, i
            if j == i_bar:
                yield from fill(i + 1, balance, left - 2)
            else:
                mates[j_bar], mates[i_bar] = i_bar, j_bar
                yield from fill(i + 1, balance, left - 4)
                mates[j_bar] = mates[i_bar] = None
            mates[i] = mates[j] = None

    return fill(0, 0, N)


def enumerate_case_clans(case: CaseId) -> tuple[Clan, ...]:
    """All clans of the case's family, in canonical-string order.

    Type A takes every clan of its shape; the folded families take the
    codes :func:`_folded_clans` fills."""
    P, Q = case.ambient_shape
    if case.row.symmetry == "none":
        return enumerate_clans(P, Q)
    return tuple(sorted((Clan(m, P, Q) for m in _folded_clans(case)), key=Clan.sort_key))


# ---------------------------------------------------------------------------
# Partial order
# ---------------------------------------------------------------------------


def leq(a: Clan, b: Clan) -> bool:
    """The rank-table order: a <= b iff a's table is below b's."""
    if (a.p, a.q) != (b.p, b.q):
        raise ClanError("clans of different shapes are incomparable")
    return rank_table(a).below(rank_table(b))
