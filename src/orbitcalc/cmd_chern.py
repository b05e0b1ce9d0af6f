"""``orbitcalc chern``: the factored Chern class of one clan's closure; the
one subcommand that reads clan text."""

import re
from typing import Sequence

from .clans import MINUS, PLUS, Clan, ClanError
from .cli import emit, emit_json, resolve_case


def run(args) -> int:
    from .formulas import chern_factored
    case = resolve_case(args)
    if args.clan is None:
        raise ClanError("--clan is required for chern")
    P, Q = case.ambient_shape
    c = parse_clan(args.clan, P, Q)
    formula = chern_factored(case, c)
    if args.fmt == "json":
        emit_json(args, case, clan=c.to_text(), chern=formula.to_text())
    else:
        emit(args, [formula.to_text() + "\n"])
    return 0


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
