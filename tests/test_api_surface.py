"""The library ships only what a command, script or benchmark reaches."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent

# parse_poly has no caller in the program: README promises that the printed
# tables parse back, and parse_poly is how they do.
ALLOWED = {"parse_poly"}


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """Each name the code reads, as a variable or an attribute, with its line."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
    return out


def test_every_definition_is_reached_outside_the_tests():
    # In src/ only code counts: a name in a docstring or comment reaches
    # nothing.  scripts/ and perfbench/ are searched as text, because the
    # tracer names its targets in strings.  Re-exports in __init__.py do not
    # count as a use.
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))
               if path.name != "__init__.py"}
    trees = {path: ast.parse(text) for path, text in sources.items()}
    references = {path: _references(tree) for path, tree in trees.items()}
    texts = [path.read_text(encoding="utf-8")
             for folder in ("scripts", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    unreached = []
    for path in (p for p in trees if p.parent.name == "orbitcalc"):
        for node in trees[path].body:
            defs = [node] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(node, ast.ClassDef):
                defs += [m for m in node.body if isinstance(m, ast.FunctionDef)
                         and not m.name.startswith("__")]
            for d in defs:
                inside = range(d.lineno, d.end_lineno + 1)
                word = re.compile(rf"\b{d.name}\b")
                if d.name not in ALLOWED and not any(
                        name == d.name and (other != path or line not in inside)
                        for other, refs in references.items()
                        for name, line in refs) and not any(
                        word.search(text) for text in texts):
                    unreached.append(f"{path.name}:{d.name}")
    assert unreached == []
