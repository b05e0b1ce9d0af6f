"""Command-line interface: the option table, the parser, the help and ``main``.

Subcommands: enumerate, poset, classes, verify, oracle, conjecture, chern.
Exit codes: 0 success, 1 verification failure (a failed localization or
oracle check, or an internal consistency check), 2 usage or i/o error (a
failed or closed stdout too).  A call ends through ``entry``, which freezes
the heap so that the interpreter does not tear it down at exit.

Every call is a fresh process, which compiles each source it loads when no
bytecode is cached, and start-up is about 9/10 of a ``conjecture`` call's CPU
time (``setup_s`` 0.048 s against a mean ``order`` job of 0.053 s of ``cpu_s``
on the benchmark).  So each subcommand's handler is the module
``cmd_<subcommand>``, which ``main`` imports when it dispatches, with the code
only it runs: ``cmd_poset`` holds the DOT and JSON writers, and ``cmd_chern``
the reader of clan text.  A handler imports the layer functions it calls
when it runs, so it calls whatever the benchmark's tracer or a test has put in
their place, and ``json`` only where it writes JSON.  For the same reason as
the modules, ``parse_args`` reads the command line from the table
``COMMANDS``, not with argparse, whose import and parsers took about 5 ms a
call.  Besides ``cli`` and its own
``cmd_<subcommand>``, ``enumerate`` loads ``clans`` alone; ``conjecture``
and ``poset`` add ``orbits``; ``classes`` and ``chern`` add ``orbits``,
``formulas`` and ``poly``; ``verify`` and ``classes --verify`` add ``weyl``
too, which only localization needs; only ``oracle`` loads ``geometry``.

Every handler hands ``emit`` its output as chunks, written as they are
produced: ``classes`` renders one line (or one JSON entry) per orbit, so
its table is never held whole in memory, and ``verify`` writes each case's
lines once that case is checked.
"""

from __future__ import annotations

import errno
import gc
import re
import sys
from collections.abc import Iterable
from importlib import import_module
from types import SimpleNamespace

from .clans import CASES, CaseId, CheckError, ClanError, case_from_params

USAGE_ERROR = 2
VERIFY_ERROR = 1


def emit(args, chunks: Iterable[str]) -> None:
    """Write each chunk of text as it is produced, to ``--output`` (opened
    once) or to stdout, so no command holds its whole output at once."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            out.writelines(chunks)
    else:
        _write_stdout(chunks)


def _write_stdout(chunks: Iterable[str]) -> None:
    """Write and flush ``chunks`` to stdout, so that a failed write, at the
    last flush too, raises OSError here, inside ``main``'s mapping to exit 2.

    A stdout that failed is set to None: the text it still buffers would fail
    again in the interpreter's flush at exit, which then exits 120."""
    out = sys.stdout
    if out is None:  # the process started with its stdout closed
        raise OSError(errno.EBADF, "stdout is closed")
    try:
        out.writelines(chunks)
        out.flush()
    except OSError:
        sys.stdout = None
        raise


def warn(text: str) -> None:
    """Write a diagnostic line to stderr, or drop it and the stream when it
    cannot be written (stderr closed): its buffer would fail again at exit."""
    try:
        if sys.stderr is not None:
            print(text, file=sys.stderr)
    except OSError:
        sys.stderr = None


def emit_json(args, case: CaseId, **fields) -> None:
    """Write ``fields`` and the case's tag, p and q under ``"case"`` as one
    JSON document."""
    import json
    data = {"case": {"tag": case.tag, "p": case.p, "q": case.q}, **fields}
    emit(args, [json.dumps(data, indent=2, sort_keys=True) + "\n"])


def resolve_case(args) -> CaseId:
    """The case that ``--case`` and ``--p``/``--q`` or ``--n`` name."""
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


def guardrail(args, case: CaseId, count: int) -> None:
    """Warn on stderr when the family has more orbits than ``--max-nodes``."""
    if count > args.max_nodes:
        warn(f"warning: case {case.tag} ({case.p},{case.q}) has {count} orbits, "
             f"above the --max-nodes cap {args.max_nodes}; this may take long")


# ---------------------------------------------------------------------------
# argument parsing: COMMANDS names each command's module, which main imports
# to run it, and declares its options once, for the parser and the help;
# parse_args reads the words as argparse read them
# ---------------------------------------------------------------------------


class UsageError(Exception):
    """A malformed call, raised as ``UsageError(command, message)``: ``main``
    writes the usage of ``command`` (None: of orbitcalc) and exits 2."""


def _count(what: str):
    """The type of an option that takes ``what``, 0 or more."""
    def parse(text: str) -> int:
        digits = text.strip()
        if not digits.isdecimal():
            raise UsageError(None, f"expected {what}, 0 or more, not {text!r}")
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            raise UsageError(None, f"{what} of {len(digits)} digits is too long to read") from None
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
    "enumerate": ("cmd_enumerate", (_OUTPUT, *_CASE, _MAX_NODES, _FORMAT)),
    "poset": ("cmd_poset", (
        _OUTPUT, *_CASE, _MAX_NODES,
        ("--format", "fmt", ("text", "json", "dot"), "text", "output format"),
        ("--full", "full", None, False, "saturate and include the full closure order"))),
    "classes": ("cmd_classes", (
        _OUTPUT, *_CASE, _MAX_NODES, _FORMAT,
        ("--factored", "factored", None, False, "write closed orbits' classes as products"),
        ("--verify", "verify", None, False, "run localization checks before emitting"))),
    "verify": ("cmd_verify", (_OUTPUT, *_CASE, _MAX_NODES)),
    "oracle": ("cmd_oracle", (
        _OUTPUT,
        ("--max-n", "max_n", _BOUND, 4, "move each representative flag with p+q <= MAX_N "
         "by a random block-diagonal k in GL(p) x GL(q) and measure it again"),
        ("--measure-max-n", "measure_max_n", _BOUND, 5,
         "measure each representative flag with p+q <= MEASURE_MAX_N"))),
    "conjecture": ("cmd_conjecture", (_OUTPUT, *_CASE, _MAX_NODES, _FORMAT)),
    "chern": ("cmd_chern", (_OUTPUT, *_CASE, _FORMAT, ("--clan", "clan", str, None, "the clan"))),
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
    lines = [_usage(command)]
    if command is None:
        lines.append("Exact computation of orbit posets and equivariant classes for two-block "
                     f"flag-variety orbit families.\ncommands: {', '.join(COMMANDS)}")
    else:
        for flag, dest, kind, default, about in COMMANDS[command][1]:
            shown = "" if default in (None, False) else f" (default: {default})"
            lines.append(f"  {_spelled(flag, dest, kind)}  {about}{shown}")
    _write_stdout(line + "\n" for line in lines)


def parse_args(argv) -> SimpleNamespace | None:
    """The options of a call, with its ``command``; None once ``-h`` has
    written the help.  A malformed call raises UsageError."""
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
    options = COMMANDS[command][1]
    table = {flag: (dest, kind) for flag, dest, kind, _, _ in options}
    args = SimpleNamespace(command=command, **{dest: default for _, dest, _, default, _ in options})
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
        if args is None:  # -h wrote the help
            return 0
        return import_module(f".{COMMANDS[args.command][0]}", __package__).run(args)
    except UsageError as exc:
        command, message = exc.args
        prog = "orbitcalc" if command is None else f"orbitcalc {command}"
        text, code = f"{_usage(command)}\n{prog}: error: {message}", USAGE_ERROR
    except ClanError as exc:
        text, code = f"error: {exc}", USAGE_ERROR
    except CheckError as exc:
        text, code = f"verification failed: {exc}", VERIFY_ERROR
    except OSError as exc:
        text, code = f"i/o error: {exc}", USAGE_ERROR
    warn(text)
    return code


def entry():
    """Run ``main`` on the command line and end the process with its exit
    code: the one way out of ``python -m orbitcalc`` and of the ``orbitcalc``
    script.

    ``gc.freeze()`` moves every object alive into the collector's permanent
    generation, which the collections CPython runs at exit skip, so the
    process no longer traverses its heap, nor frees the cycles that only a
    collection frees, before the kernel reclaims the memory.  That teardown
    took 4-7 ms of CPU a call, about what a ``conjecture`` job at the desk
    ranks computes, and takes about 1 ms frozen.
    ``SystemExit`` still runs ``atexit`` handlers and lets a caller such as
    ``python -m cProfile`` finish.  The freeze is not in ``main``, which tests
    and the benchmark's tracer call in-process: there it would keep every
    object of the call out of all later collections."""
    code = main()
    gc.freeze()
    raise SystemExit(code)
