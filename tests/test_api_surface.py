"""The library ships only what a command, script or benchmark reaches."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent

# parse_poly has no caller in the program: README promises that the printed
# tables parse back, and parse_poly is how they do.
ALLOWED = {"parse_poly"}


def test_every_definition_is_reached_outside_the_tests():
    # re-exports in __init__.py do not count as a use
    texts = {path: path.read_text(encoding="utf-8")
             for folder in ("src", "scripts", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path.name != "__init__.py"}
    unreached = []
    for path in (p for p in texts if p.parent.name == "orbitcalc"):
        lines = texts[path].splitlines()
        for node in ast.parse(texts[path]).body:
            defs = [node] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(node, ast.ClassDef):
                defs += [m for m in node.body if isinstance(m, ast.FunctionDef)
                         and not m.name.startswith("__")]
            for d in defs:
                rest = "\n".join(lines[:d.lineno - 1] + lines[d.end_lineno:])
                word = re.compile(rf"\b{d.name}\b")
                if d.name not in ALLOWED and not any(
                        word.search(rest if other == path else text)
                        for other, text in texts.items()):
                    unreached.append(f"{path.name}:{d.name}")
    assert unreached == []
