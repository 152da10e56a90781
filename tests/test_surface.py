"""Every module-level function, class and constant of pairprox must be named
by the library, the benchmark or the scripts, outside its own definition, so
that code which only tests call, and constants that nothing reads, do not
build up again."""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pairprox"
USERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]

# public names kept although nothing above calls them, each with its reason
ALLOWED = {
    "generate_inconsistent_system": "the least-squares problems with b outside ran A, the paper's second application",
    "save_operator": "the writer of the operator file format that load_operator and check-pair read",
}


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _words(nodes, docstrings):
    """Identifiers the nodes use: names, attributes, imported names, and the
    words of string constants other than docstrings (perfbench names what it
    patches by string)."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                found.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return found


def _defined(node):
    """The names a module-level statement defines: a function or class, or
    the targets of an assignment other than dunders, which Python reads."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        return [name for name in names if not (name.startswith("__") and name.endswith("__"))]
    return []


def _unnamed():
    trees = {path: ast.parse(path.read_text()) for path in USERS}
    docstrings = {id(c) for tree in trees.values() for c in _docstrings(tree)}
    elsewhere = {path: _words([tree], docstrings) for path, tree in trees.items()}
    unnamed = []
    for path in sorted(PACKAGE.glob("*.py")):
        body = trees[path].body
        for node in body:
            names = _defined(node)
            if not names:
                continue
            rest = _words([n for n in body if n is not node], docstrings)
            for name in names:
                if name not in rest and not any(name in words for p, words in elsewhere.items() if p != path):
                    unnamed.append(f"{path.stem}.{name}")
    return unnamed


def test_every_definition_has_a_caller_outside_tests():
    unnamed = _unnamed()
    # an ALLOWED name that is gone, or has gained a caller, is stale too
    assert sorted(name.split(".")[1] for name in unnamed) == sorted(ALLOWED), (
        f"defined but named nowhere in src/, perfbench/ or scripts/: {unnamed}; "
        "delete each, or list it in ALLOWED with a reason"
    )
