"""Clans: sign/matching strings that index the orbits of a block subgroup on a flag variety.

A clan of shape ``(p, q)`` is a string of length ``n = p + q`` whose entries are
``'+'``, ``'-'``, or pair labels, each pair label occurring exactly twice, with
``#(+) - #(-) = p - q``.  Two clans are equal exactly when their sign positions
(and signs) agree and their pair labels induce the same matching of positions,
so every clan is stored in canonical form: pair labels are renumbered
``1, 2, ...`` in order of first occurrence.

The module also provides the rank-number tables of a clan and their order,
enumeration of all clans of a shape, the symmetry predicates, the table
``CASES`` of the seven supported symmetric pairs, and ``Record``, the
immutable base of the package's value classes.

Type A enumerates every clan of its shape.  The six folded families are
enumerated directly: a walk fills positions left to right, each choice
together with its image under the fold i -> N + 1 - i, and
``in_case_family`` then applies the per-family bars to the few mirror or
skew clans this yields.
"""

from __future__ import annotations

import itertools
import re
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


def _canonical(symbols) -> tuple:
    """The symbols with their pair labels renumbered 1, 2, ... by first occurrence."""
    relabel: dict = {}
    return tuple([relabel.setdefault(s, len(relabel) + 1) if isinstance(s, int) else s
                  for s in symbols])


def _token_sort_key(sym) -> tuple[int, int]:
    """Sort key for canonical-string ordering: '+' < '-' < pair labels by number."""
    if sym == PLUS:
        return (0, 0)
    if sym == MINUS:
        return (1, 0)
    return (2, sym)


class Clan(Record):
    """A canonical clan.  Build instances with :func:`make_clan` or :func:`parse_clan`."""

    __slots__ = ("symbols", "p", "q", "_hash")
    _fields = ("symbols", "p", "q")

    def __init__(self, symbols: tuple, p: int, q: int) -> None:
        if p < 0 or q < 0 or p + q < 1:
            raise ClanError(f"invalid shape ({p}, {q})")
        if len(symbols) != p + q:
            raise ClanError(
                f"clan has {len(symbols)} symbols but shape ({p}, {q}) needs {p + q}"
            )
        counts: dict = {}
        n_plus = n_minus = 0
        for sym in symbols:
            if sym == PLUS:
                n_plus += 1
            elif sym == MINUS:
                n_minus += 1
            elif isinstance(sym, int):
                counts[sym] = counts.get(sym, 0) + 1
            else:
                raise ClanError(f"invalid clan symbol {sym!r}")
        for label, cnt in counts.items():
            if cnt != 2:
                raise ClanError(f"pair label {label} occurs {cnt} times (needs exactly 2)")
        if n_plus - n_minus != p - q:
            raise ClanError(
                f"sign counts (+{n_plus}, -{n_minus}) incompatible with shape ({p}, {q})"
            )
        self._fill(symbols, p, q)

    def _fill(self, symbols, p: int, q: int) -> None:
        symbols = _canonical(symbols)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_hash", hash((symbols, p, q)))

    @classmethod
    def _image(cls, symbols, p: int, q: int) -> "Clan":
        """The clan of symbols built to form one of shape (p, q): an
        enumeration's fill, or the image of a clan under a position
        permutation or a window move.  Pairs are relabelled; nothing is
        checked, since such an image is a clan whenever its source is."""
        c = object.__new__(cls)
        c._fill(symbols, p, q)
        return c

    def __eq__(self, other):
        if other.__class__ is not Clan:
            return NotImplemented
        return self.symbols == other.symbols and self.p == other.p and self.q == other.q

    def __hash__(self) -> int:
        return self._hash

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.p + self.q

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Matched position pairs (a, b) with a < b, 1-based, sorted by a."""
        first: dict[int, int] = {}
        out = []
        for pos, sym in enumerate(self.symbols, start=1):
            if isinstance(sym, int):
                if sym in first:
                    out.append((first[sym], pos))
                else:
                    first[sym] = pos
        return tuple(sorted(out))

    def to_text(self) -> str:
        out = []
        for sym in self.symbols:
            if sym == PLUS or sym == MINUS:
                out.append(sym)
            elif sym < 10:
                out.append(str(sym))
            else:
                out.append(f"({sym})")
        return "".join(out)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()

    def sort_key(self) -> tuple:
        """Deterministic ordering key: '+' < '-' < pair labels."""
        return tuple(_token_sort_key(sym) for sym in self.symbols)


def make_clan(symbols: Sequence, p: int, q: int) -> Clan:
    """Build a clan from a symbol sequence ('+', '-', or hashable pair labels)."""
    # Accept arbitrary hashable pair labels; map them to ints first.
    relabel: dict = {}
    out = []
    for sym in symbols:
        if sym == PLUS or sym == MINUS:
            out.append(sym)
        else:
            if sym not in relabel:
                relabel[sym] = len(relabel) + 1
            out.append(relabel[sym])
    return Clan(tuple(out), p, q)


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
    symbols = c.symbols
    n = len(symbols)
    close_at = {s: t for t, s in enumerate(symbols, start=1) if s.__class__ is int}
    closes = [0] * (n + 1)
    plus, minus, cross = [], [], []
    n_plus = n_minus = 0
    for i, s in enumerate(symbols, start=1):
        if s == PLUS:
            n_plus += 1
        elif s == MINUS:
            n_minus += 1
        elif close_at[s] == i:
            n_plus += 1
            n_minus += 1
        else:
            closes[close_at[s]] = 1
        plus.append(n_plus)
        minus.append(n_minus)
        if i < n:
            # closes[n], ..., closes[i + 2] summed: the entries for j = n - 1 .. i + 1
            row = [0, *itertools.accumulate(closes[n:i + 1:-1])]
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
    out = []
    for m in range(0, min(p, q) + 1):
        for pair_positions in itertools.combinations(range(1, n + 1), 2 * m):
            rest = [i for i in range(1, n + 1) if i not in pair_positions]
            for matching in _matchings(pair_positions):
                for plus_positions in itertools.combinations(rest, p - m):
                    symbols: list = [MINUS] * n
                    for pos in plus_positions:
                        symbols[pos - 1] = PLUS
                    for label, (a, b) in enumerate(matching, start=1):
                        symbols[a - 1] = label
                        symbols[b - 1] = label
                    out.append(Clan._image(symbols, p, q))
    out.sort(key=Clan.sort_key)
    return tuple(out)


# ---------------------------------------------------------------------------
# Symmetry predicates
# ---------------------------------------------------------------------------


def is_symmetric(c: Clan) -> bool:
    """True when the clan equals its own reversal (signs mirror, matching mirrored)."""
    return _canonical(c.symbols[::-1]) == c.symbols


_NEGATE = {PLUS: MINUS, MINUS: PLUS}


def is_skew_symmetric(c: Clan) -> bool:
    """True when the reversal equals the sign-negated clan: negating signs
    keeps the pair labels, so the negated reversal, relabelled, is ``c``."""
    if c.p != c.q:
        return False
    return _canonical([_NEGATE.get(s, s) for s in reversed(c.symbols)]) == c.symbols


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
    """Whether a pair sits at positions a and N + 1 - a (the middle of an
    odd-length clan must hold a sign)."""
    s = c.symbols
    return any(x == y and isinstance(x, int) for x, y in zip(s, reversed(s)))


def in_case_family(case: CaseId, c: Clan) -> bool:
    """Whether the clan labels an orbit of the given case.

    A self-mirror pair (positions a + b = N + 1, N the clan length) is barred
    for mirror clans in type C and for skew clans in type D."""
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
    if _has_self_mirror_pair(c):
        return False
    # the minus rank at the middle, rank_table(c).minus[n - 1], is even
    n = case.grank
    closed = sum(1 for _, b in c.pairs() if b <= n)
    return (c.symbols[:n].count(MINUS) + closed) % 2 == 0


def _folded_clans(P: int, Q: int, skew: bool) -> Iterator[Clan]:
    """Every clan of shape (P, Q) fixed by the fold i -> N + 1 - i, N = P + Q.

    The fold keeps a sign of a mirror clan and flips a sign of a skew clan,
    and sends a pair (a, b) to the pair (N + 1 - b, N + 1 - a).  Positions are
    filled left to right, each choice together with its image, so the open
    positions always lie between the leftmost open one and its image.  The
    middle of an odd-length clan is its own image and holds a sign.
    """
    N = P + Q
    image = _NEGATE if skew else {PLUS: PLUS, MINUS: MINUS}
    syms: list = [None] * N

    def fill(i: int, label: int) -> Iterator[Clan]:
        while i < N and syms[i] is not None:
            i += 1
        if i == N:
            if syms.count(PLUS) - syms.count(MINUS) == P - Q:
                yield Clan._image(syms, P, Q)
            return
        i_bar = N - 1 - i
        for s in (PLUS, MINUS):
            syms[i_bar] = image[s]
            syms[i] = s
            yield from fill(i + 1, label)
        syms[i] = syms[i_bar] = None
        for j in range(i + 1, i_bar + 1):
            j_bar = N - 1 - j
            if syms[j] is not None or j == j_bar:  # j == j_bar: the middle
                continue
            syms[i] = syms[j] = label
            if j == i_bar:  # a self-mirror pair
                yield from fill(i + 1, label + 1)
            else:
                syms[j_bar] = syms[i_bar] = label + 1
                yield from fill(i + 1, label + 2)
                syms[j_bar] = syms[i_bar] = None
            syms[i] = syms[j] = None

    return fill(0, 1)


def enumerate_case_clans(case: CaseId) -> tuple[Clan, ...]:
    """All clans of the case's family, in canonical-string order.

    Type A takes every clan of its shape.  The folded families build the
    mirror or skew clans of their shape directly and keep those
    :func:`in_case_family` admits."""
    P, Q = case.ambient_shape
    if case.row.symmetry == "none":
        return enumerate_clans(P, Q)
    found = [c for c in _folded_clans(P, Q, case.row.symmetry == "skew")
             if in_case_family(case, c)]
    found.sort(key=Clan.sort_key)
    return tuple(found)


# ---------------------------------------------------------------------------
# Partial order
# ---------------------------------------------------------------------------


def leq(a: Clan, b: Clan) -> bool:
    """The rank-table order: a <= b iff a's table is below b's."""
    if (a.p, a.q) != (b.p, b.q):
        raise ClanError("clans of different shapes are incomparable")
    return rank_table(a).below(rank_table(b))
