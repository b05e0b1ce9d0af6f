"""The library ships only what a command, script or benchmark reaches."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent

# parse_poly has no caller in the program: README promises that the printed
# tables parse back, and parse_poly is how they do.
ALLOWED = {"parse_poly"}


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, *_COMPREHENSIONS)


def _own_names(scope: ast.AST) -> set[str]:
    """The parameters of a function or lambda and the variables its body
    assigns, or the targets of a comprehension; not those of the scopes
    nested in it.  A name bound by an import is not one of them: it names
    the definition it imports."""
    names = set()
    if not isinstance(scope, _COMPREHENSIONS):
        args = scope.args
        names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                 args.vararg, args.kwarg) if a}
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """Each name the code reads, as a variable or an attribute, with its line.
    A function's own parameters and variables (``_own_names``), and those of
    the scopes around it, are not references: ``terms.items()`` on a
    parameter ``terms`` does not reach a method ``terms``."""
    out = []

    def visit(node: ast.AST, local: frozenset) -> None:
        if isinstance(node, _SCOPES):
            local = local | _own_names(node)
        if isinstance(node, ast.Name) and node.id not in local:
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
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
