"""Command-line interface.

Subcommands: enumerate, poset, classes, verify, oracle, conjecture, chern.
Exit codes: 0 success, 1 verification failure (a failed localization or
oracle check, or an internal consistency check), 2 usage or i/o error.

A handler imports the layers it calls, and ``json`` only where it writes JSON:
every call is a fresh process, and start-up is about 9/10 of a ``conjecture``
call's CPU time (``setup_s`` against the mean job of ``cpu_s`` on the ``order``
benchmark).  For the same reason ``parse_args`` reads the command line from the
table ``COMMANDS``, not with argparse, whose import and parsers took about 5 ms
a call.  ``enumerate`` loads ``clans`` alone; ``conjecture`` and ``poset``
add ``orbits``; ``classes`` and ``chern`` add ``orbits``, ``formulas`` and
``poly``; ``verify`` and ``classes --verify`` add ``weyl`` too, which only
localization needs; only ``oracle`` loads ``geometry``.

Every handler hands ``_emit`` its output as chunks, written as they are
produced: ``classes`` renders one line (or one JSON entry) per orbit, so
its table is never held whole in memory, and ``verify`` writes each case's
lines once that case is checked.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable
from types import SimpleNamespace

from .clans import (CASES, DESK_RANKS, CaseId, CheckError, ClanError,
                    case_from_params, enumerate_case_clans, enumerate_clans, is_closed_clan,
                    parse_clan, rank_table)

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _emit(args, chunks: Iterable[str]) -> None:
    """Write each chunk of text as it is produced, to ``--output`` (opened
    once) or to stdout, so no command holds its whole output at once."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            out.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_json(args, case: CaseId, **fields) -> None:
    """Write ``fields`` and the case's tag, p and q under ``"case"`` as one
    JSON document."""
    import json
    data = {"case": {"tag": case.tag, "p": case.p, "q": case.q}, **fields}
    _emit(args, [json.dumps(data, indent=2, sort_keys=True) + "\n"])


def _resolve_case(args) -> CaseId:
    if args.case is None:
        raise ClanError("--case is required")
    if args.n is not None:
        if args.p is not None or args.q is not None:
            raise ClanError("give either --n or --p/--q, not both")
        if CASES[args.case].symmetry != "skew":
            raise ClanError(f"case {args.case} takes --p/--q, not --n")
        p = q = args.n
    else:
        if args.p is None or args.q is None:
            raise ClanError("give --p and --q (or --n for the GL families)")
        p, q = args.p, args.q
    return case_from_params(args.case, p, q)


def _guardrail(args, case: CaseId, count: int) -> None:
    if count > args.max_nodes:
        print(
            f"warning: case {case.tag} ({case.p},{case.q}) has {count} orbits, "
            f"above the --max-nodes cap {args.max_nodes}; this may take long",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    case = _resolve_case(args)
    clans = enumerate_case_clans(case)
    _guardrail(args, case, len(clans))
    if args.fmt == "json":
        _emit_json(args, case, count=len(clans), clans=[c.to_text() for c in clans])
    else:
        _emit(args, (c.to_text() + "\n" for c in clans))
    return 0


def cmd_poset(args) -> int:
    from .orbits import full_closure_order, poset_json_text, poset_to_dot, weak_order_graph
    case = _resolve_case(args)
    poset = weak_order_graph(case)
    _guardrail(args, case, len(poset.nodes))
    if args.full:
        poset = full_closure_order(poset)
    if args.fmt == "dot":
        _emit(args, [poset_to_dot(poset)])
    else:
        _emit(args, [poset_json_text(poset)])
    return 0


def cmd_classes(args) -> int:
    from .formulas import all_classes, chern_expansion, closed_class, verify_localization
    from .orbits import weak_order_graph
    case = _resolve_case(args)
    poset = weak_order_graph(case)
    _guardrail(args, case, len(poset.nodes))
    classes = all_classes(poset)
    if args.verify:
        report = verify_localization(poset, classes)
        if not report.ok:
            for line in report.failures:
                print(f"verify: {line}", file=sys.stderr)
            return VERIFY_ERROR

    def render(c) -> str:
        if args.factored and is_closed_clan(case, c):
            return closed_class(case, c).to_text()
        return chern_expansion(case).text(classes[c])

    if args.fmt == "json":
        import json

        # the text json.dumps(data, indent=2, sort_keys=True) writes, one entry at a time
        def entries():
            head = json.dumps({"tag": case.tag, "p": case.p, "q": case.q},
                              indent=2, sort_keys=True)
            yield '{\n  "case": ' + head.replace("\n", "\n  ") + ',\n  "classes": {'
            sep = "\n"
            for c in sorted(poset.nodes, key=lambda clan: clan.to_text()):
                yield f"{sep}    {json.dumps(c.to_text())}: {json.dumps(render(c))}"
                sep = ",\n"
            yield "\n  }\n}\n"

        _emit(args, entries())
    else:
        width = max(len(c.to_text()) for c in poset.nodes)
        _emit(args, (f"{c.to_text():<{width}}  {render(c)}\n" for c in poset.nodes))
    return 0


def cmd_verify(args) -> int:
    from .formulas import all_classes, verify_localization
    from .orbits import weak_order_graph
    if args.case is None:
        targets = [case_from_params(t, p, q) for t, p, q in DESK_RANKS]
    else:
        targets = [_resolve_case(args)]
    failed = []

    def reports():
        for case in targets:
            poset = weak_order_graph(case)
            _guardrail(args, case, len(poset.nodes))
            report = verify_localization(poset, all_classes(poset))
            status = "OK" if report.ok else "FAIL"
            support = (
                f"support pairs {report.support_pairs_checked}"
                if report.support_checked
                else "support skipped (no fixed-point dictionary)"
            )
            yield (f"{status}  {case.tag} ({case.p},{case.q}): "
                   f"closed points {report.closed_points_checked}, {support}, "
                   f"dense {'ok' if report.dense_ok else 'FAIL'}\n")
            if not report.ok:
                failed.append(case)
                yield from (f"      {f}\n" for f in report.failures)

    _emit(args, reports())
    return VERIFY_ERROR if failed else 0


def cmd_oracle(args) -> int:
    import random

    from .geometry import (GeometryError, block_diagonal_matrix, measure_rank_numbers,
                           representative_flag)
    move_max = args.max_n
    measure_max = args.measure_max_n
    rng = random.Random("oracle")  # a str seed does not depend on PYTHONHASHSEED
    mismatches = []
    measured = 0
    moved = 0
    for n in range(1, max(measure_max, move_max) + 1):
        for p in range(0, n + 1):
            q = n - p
            for c in enumerate_clans(p, q):
                at = f"at {c.to_text()} ({p},{q})"
                try:
                    flag, table = representative_flag(c), rank_table(c)
                    if n <= measure_max:
                        measured += 1
                        if measure_rank_numbers(flag, p, q) != table:
                            mismatches.append(f"measure mismatch {at}")
                    if n <= move_max:
                        moved += 1
                        k = block_diagonal_matrix(rng, p, q)
                        if measure_rank_numbers(flag.transformed(k), p, q) != table:
                            mismatches.append(f"K-invariance mismatch {at}")
                except GeometryError as exc:
                    raise GeometryError(f"{exc} {at}") from exc
    status = "OK" if not mismatches else "FAIL"
    out = [
        f"{status}  measured {measured} representative flags (p+q <= {measure_max}), "
        f"moved {moved} by a block-diagonal k (p+q <= {move_max})"
    ]
    out.extend("      " + m for m in mismatches)
    _emit(args, (line + "\n" for line in out))
    return VERIFY_ERROR if mismatches else 0


def cmd_conjecture(args) -> int:
    from .orbits import check_conjecture, weak_order_graph
    case = _resolve_case(args)
    poset = weak_order_graph(case)
    _guardrail(args, case, len(poset.nodes))
    report = check_conjecture(poset)
    if args.fmt == "json":
        _emit_json(args, case, coincides=report.coincides,
                   witnesses=[[a.to_text(), b.to_text()] for a, b in report.witnesses])
        return 0
    if report.coincides:
        _emit(args, [
            f"case {case.tag} ({case.p},{case.q}): computed closure order "
            "coincides with the rank-number order\n",
        ])
    else:
        lines = [
            f"case {case.tag} ({case.p},{case.q}): computed closure order is "
            f"strictly finer; {len(report.witnesses)} induced-only pairs:"
        ]
        lines.extend(
            f"  {a.to_text()} < {b.to_text()} only for rank numbers"
            for a, b in report.witnesses
        )
        _emit(args, (line + "\n" for line in lines))
    return 0


def cmd_chern(args) -> int:
    from .formulas import chern_factored
    case = _resolve_case(args)
    if args.clan is None:
        raise ClanError("--clan is required for chern")
    P, Q = case.ambient_shape
    c = parse_clan(args.clan, P, Q)
    formula = chern_factored(case, c)
    if args.fmt == "json":
        _emit_json(args, case, clan=c.to_text(), chern=formula.to_text())
    else:
        _emit(args, [formula.to_text() + "\n"])
    return 0


# ---------------------------------------------------------------------------
# argument parsing: COMMANDS declares each command's options once, for the
# parser and the help; parse_args reads the words as argparse read them
# ---------------------------------------------------------------------------


class UsageError(Exception):
    """A malformed call, raised as ``UsageError(command, message)``: ``main``
    writes the usage of ``command`` (None: of orbitcalc) and exits 2."""


def _count(what: str):
    """The type of an option that takes ``what``, 0 or more."""
    def parse(text: str) -> int:
        if not text.strip().isdecimal():
            raise UsageError(None, f"expected {what}, 0 or more, not {text!r}")
        return int(text)
    return parse


# an option is (flag, dest, type, default, help); its type is a callable, a
# tuple of choices, or None for a switch, which sets True
_OUTPUT = ("--output", "output", str, None, "write to file")
_CASE = (("--case", "case", tuple(sorted(CASES)), None, "orbit family selector"),
         ("--p", "p", int, None, "rank of the first block"),
         ("--q", "q", int, None, "rank of the second block"),
         ("--n", "n", int, None, "the rank of a GL family (c-sp-gl, d-so-gl)"))
_MAX_NODES = ("--max-nodes", "max_nodes", _count("a count of orbits"), 5000,
              "warn when the family is larger than this")
_FORMAT = ("--format", "fmt", ("text", "json"), "text", "output format")
_BOUND = _count("a bound on p+q")
COMMANDS = {
    "enumerate": (cmd_enumerate, (_OUTPUT, *_CASE, _MAX_NODES, _FORMAT)),
    "poset": (cmd_poset, (
        _OUTPUT, *_CASE, _MAX_NODES,
        ("--format", "fmt", ("text", "json", "dot"), "text", "output format"),
        ("--full", "full", None, False, "saturate and include the full closure order"))),
    "classes": (cmd_classes, (
        _OUTPUT, *_CASE, _MAX_NODES, _FORMAT,
        ("--factored", "factored", None, False, "write closed orbits' classes as products"),
        ("--verify", "verify", None, False, "run localization checks before emitting"))),
    "verify": (cmd_verify, (_OUTPUT, *_CASE, _MAX_NODES)),
    "oracle": (cmd_oracle, (
        _OUTPUT,
        ("--max-n", "max_n", _BOUND, 4, "move each representative flag with p+q <= MAX_N "
         "by a random block-diagonal k in GL(p) x GL(q) and measure it again"),
        ("--measure-max-n", "measure_max_n", _BOUND, 5,
         "measure each representative flag with p+q <= MEASURE_MAX_N"))),
    "conjecture": (cmd_conjecture, (_OUTPUT, *_CASE, _MAX_NODES, _FORMAT)),
    "chern": (cmd_chern, (_OUTPUT, *_CASE, _FORMAT, ("--clan", "clan", str, None, "the clan"))),
}
_HELP = ("-h", "--help")


def _read(command: str | None, word: str, flags: tuple[str, ...]):
    """``(flag, text after '=' or None)`` if ``word`` is one of ``flags`` or
    a unique prefix of a long one, ``("", None)`` if it is another option,
    None if it is a value: not led by '-', '-' or '--', a negative number,
    or a word with a space."""
    if word[:1] != "-" or word in ("-", "--"):
        return None
    name, eq, text = word.partition("=")
    if word in flags or eq and name in flags:
        return name, text if eq else None
    hits = [flag for flag in flags if flag.startswith(name)] if word[1] == "-" else []
    if len(hits) > 1:
        raise UsageError(command, f"ambiguous option: {word} could match {', '.join(hits)}")
    if hits:
        return hits[0], text if eq else None
    if word.startswith("-h"):  # the rest is read as -h's value
        return "-h", word[2:]
    if re.match(r"-\d+$|-\d*\.\d+$", word) or " " in word:
        return None
    return "", None


def _convert(command: str, flag: str, kind, text: str):
    """``text`` as the value of ``flag``: one of the choices ``kind``, or ``kind(text)``."""
    if isinstance(kind, tuple):
        if text in kind:
            return text
        why = f"invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})"
    else:
        try:
            return kind(text)
        except UsageError as exc:
            why = exc.args[1]
        except ValueError:
            why = f"invalid {kind.__name__} value: {text!r}"
    raise UsageError(command, f"argument {flag}: {why}")


def _spelled(flag: str, dest: str, kind) -> str:
    """An option as argparse's usage line spells it."""
    if kind is None:
        return flag
    return f"{flag} {{{','.join(kind)}}}" if isinstance(kind, tuple) else f"{flag} {dest.upper()}"


def _usage(command: str | None) -> str:
    """argparse's usage line of ``command`` (None: of orbitcalc), unwrapped."""
    if command is None:
        return f"usage: orbitcalc [-h] {{{','.join(COMMANDS)}}} ..."
    options = (f"[{_spelled(flag, dest, kind)}]" for flag, dest, kind, _, _ in COMMANDS[command][1])
    return " ".join([f"usage: orbitcalc {command} [-h]", *options])


def _help(command: str | None, text: str | None) -> None:
    """Write the help of ``command`` (None: of orbitcalc) to stdout."""
    if text is not None:
        raise UsageError(command, f"argument -h/--help: ignored explicit argument {text!r}")
    print(_usage(command))
    if command is None:
        print("Exact computation of orbit posets and equivariant classes for two-block "
              f"flag-variety orbit families.\ncommands: {', '.join(COMMANDS)}")
    else:
        for flag, dest, kind, default, about in COMMANDS[command][1]:
            shown = "" if default in (None, False) else f" (default: {default})"
            print(f"  {_spelled(flag, dest, kind)}  {about}{shown}")


def parse_args(argv) -> SimpleNamespace | None:
    """The options of a call, with its ``command`` and that command's
    handler ``fn``; None once ``-h`` has written the help.  A malformed call
    raises UsageError."""
    extras = []  # unknown words, reported once every word is read
    for at, word in enumerate(argv):
        read = _read(None, word, _HELP)
        if read is None:
            break
        if read[0]:
            return _help(None, read[1])
        extras.append(word)
    else:
        raise UsageError(None, "the following arguments are required: command")
    command, words = argv[at], argv[at + 1:]
    if command not in COMMANDS:
        raise UsageError(None, f"argument command: invalid choice: {command!r} "
                         f"(choose from {', '.join(map(repr, COMMANDS))})")
    fn, options = COMMANDS[command]
    table = {flag: (dest, kind) for flag, dest, kind, _, _ in options}
    args = SimpleNamespace(command=command, fn=fn,
                           **{dest: default for _, dest, _, default, _ in options})
    end = words.index("--") if "--" in words else len(words)  # no option after a --
    reads = [_read(command, word, (*_HELP, *table)) for word in words[:end]]
    at = 0
    while at < end:
        read, at = reads[at], at + 1
        if read is None or not read[0]:
            extras.append(words[at - 1])
            continue
        flag, text = read
        if flag in _HELP:
            return _help(command, text)
        dest, kind = table[flag]
        if kind is None:  # a switch
            if text is not None:
                raise UsageError(command, f"argument {flag}: ignored explicit argument {text!r}")
            text = True
        elif text is None:
            if at == end or reads[at] is not None:
                raise UsageError(command, f"argument {flag}: expected one argument")
            text, at = words[at], at + 1
        setattr(args, dest, text if kind is None else _convert(command, flag, kind, text))
    extras += words[end:]
    if extras:
        raise UsageError(None, f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return 0 if args is None else args.fn(args)  # None: -h wrote the help
    except UsageError as exc:
        command, message = exc.args
        prog = "orbitcalc" if command is None else f"orbitcalc {command}"
        print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
        return USAGE_ERROR
    except ClanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except CheckError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
