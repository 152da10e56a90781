"""Every module-level function, class and constant of pairprox must be named
by the library, the benchmark or the scripts, outside its own definition,
and every defaulted parameter or frozen- or slotted-dataclass field must be set by one
of their calls, so that code which only tests call, constants that nothing
reads and options that nothing sets do not build up again."""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pairprox"
USERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]

# public names kept although nothing above calls them, each with its reason
ALLOWED: dict[str, str] = {}


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


# options kept although no call above sets them, each with its reason
ALLOWED_OPTIONS = {
    "applications.generate_inconsistent_system.spectrum": "as generate_consistent_system's, which bench sets; only scripts/fingerprint.py calls this one",
    "linalg._json_field.default": "passed through the functools.partial alias `get`",
}


def _is_record_dataclass(node):
    """A dataclass declared frozen or slotted: a record whose fields its
    callers set, unlike a mutable dataclass built up field by field."""
    for deco in node.decorator_list:
        if isinstance(deco, ast.Call) and getattr(deco.func, "id", None) == "dataclass":
            if any(k.arg in ("frozen", "slots") and getattr(k.value, "value", False) is True for k in deco.keywords):
                return True
    return False


def _options(module, node, owner=None):
    """(label, callee, position, name) of each defaulted parameter of a
    function or method, or defaulted field of a frozen or slotted dataclass; position
    is its index among a call's positional arguments, None when only a
    keyword can pass it."""
    if isinstance(node, ast.FunctionDef):
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        # a method's call passes the instance implicitly, and __init__ is
        # called by its class's name
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        skip = 1 if owner is not None and not static else 0
        callee = owner if node.name == "__init__" else node.name
        label = ".".join(filter(None, (module, owner, node.name)))
        for i, arg in enumerate(positional[first:], first):
            yield f"{label}.{arg.arg}", callee, i - skip, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{label}.{arg.arg}", callee, None, arg.arg
    elif isinstance(node, ast.ClassDef):
        if _is_record_dataclass(node):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            for i, item in enumerate(fields):
                if item.value is not None:
                    yield f"{module}.{node.name}.{item.target.id}", node.name, i, item.target.id
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                yield from _options(module, item, node.name)


def _passes(call, callee, position, name):
    func = call.func
    called = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    if called == "replace" and any(k.arg == name for k in call.keywords):
        return True  # dataclasses.replace sets a field by keyword
    if called != callee:
        return False
    if any(k.arg == name or k.arg is None for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _unset_options():
    calls = [n for path in USERS for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)]
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for label, callee, position, name in _options(path.stem, node):
                if not any(_passes(call, callee, position, name) for call in calls):
                    unset.append(label)
    return unset


def test_every_option_is_set_by_a_caller_outside_tests():
    unset = _unset_options()
    # an ALLOWED_OPTIONS entry that is gone, or has gained a caller, is stale too
    assert sorted(unset) == sorted(ALLOWED_OPTIONS), (
        f"defaulted parameters or fields that no call in src/, perfbench/ or scripts/ sets: {unset}; "
        "delete each, or list it in ALLOWED_OPTIONS with a reason"
    )


def test_frozen_and_slotted_dataclass_fields_are_options():
    # ResolventOutput is slotted, not frozen: its defaulted `pattern` stays checked
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    labels = {label for stem, tree in trees.items() for node in tree.body for label, *_ in _options(stem, node)}
    assert {"resolvents.ResolventOutput.pattern", "solvers.SolverConfig.max_iters"} <= labels
