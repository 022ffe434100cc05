"""Every public top-level name of the package has a caller in the package or
the benchmark harness: a function, class or constant that only tests, demos or
the README use is dead weight, so it goes. A private top-level name is read
somewhere in the package, so a deletion that leaves a helper behind fails. The
same holds for an error class that no caller tells apart from its base, and
for a defaulted parameter that no caller in the package or the harness passes."""

from __future__ import annotations

import ast
from collections import Counter

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "specforge"
CALLERS = (PACKAGE, REPO_ROOT / "perfbench")


def _defined(tree: ast.Module) -> list[str]:
    """Names bound at module top level by ``def``, ``class`` or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def _referenced(tree: ast.Module, reexports: bool) -> set[str]:
    """Names read, attributes taken, and (unless ``reexports``) names imported."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not reexports:
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_package_name_has_a_caller():
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    paths = sorted(path for root in CALLERS for path in root.rglob("*.py"))
    assert len(paths) > 10
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.is_relative_to(PACKAGE):
            for name in _defined(tree):
                if not name.startswith("_"):
                    defined.setdefault(name, str(path.relative_to(REPO_ROOT)))
        # an __init__ that re-exports a name would count as its caller
        referenced |= _referenced(tree, reexports=path.name == "__init__.py")
    assert "load_corpus" in defined
    unused = sorted(f"{where}: {name}" for name, where in defined.items() if name not in referenced)
    assert unused == []


def test_every_private_package_name_is_read_in_the_package():
    defined: list[str] = []
    read: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        where = path.relative_to(REPO_ROOT)
        defined += [
            f"{where}: {name}"
            for name in _defined(tree)
            if name.startswith("_") and not name.startswith("__")
        ]
        read |= _referenced(tree, reexports=True)  # an import alone is no read
    assert any(entry.endswith(": _parse_block") for entry in defined)
    assert [entry for entry in defined if entry.rpartition(": ")[2] not in read] == []


# perfbench/spans.py counts calls through ``tokenize`` in these modules, so
# each binds the name whether or not it calls it.
SPAN_TOKENIZE = frozenset(
    {"analyzer/annotations.py", "analyzer/checks.py", "analyzer/lexer.py", "runner.py",
     "mutation.py"}
)


def test_every_name_a_package_module_imports_is_read_there():
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":  # an __init__ imports to re-export
            continue
        where = path.relative_to(PACKAGE).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = [
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [
            f"{where}: {name}"
            for name in imported
            if name not in read and not (name == "tokenize" and where in SPAN_TOKENIZE)
        ]
    assert unread == []


ERROR_ROOTS = frozenset({"Exception", "ValueError", "RuntimeError"})


def test_every_package_error_class_is_told_apart_or_shared():
    """An error class earns its place when the package catches it by name, or
    when it states one message format for two or more raise sites; otherwise
    its module's base error carries the message as well."""
    bases: dict[str, list[str]] = {}
    caught: set[str] = set()
    raised: Counter[str] = Counter()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(t.id for t in types if isinstance(t, ast.Name))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised[exc.id] += 1

    def is_error(name: str) -> bool:
        return any(base in ERROR_ROOTS or is_error(base) for base in bases.get(name, ()))

    errors = sorted(name for name in bases if is_error(name))
    assert {"GatewayError", "TokenizeError", "TemplateError"} <= set(errors)
    lone = [name for name in errors if name not in caught and raised[name] < 2]
    assert lone == []


def _defaulted(fn: ast.FunctionDef, bound: int) -> list[tuple[str, int | None]]:
    """(name, position after the ``bound`` leading self/cls) of each defaulted parameter;
    a keyword-only one has no position."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    first = len(positional) - len(fn.args.defaults)
    found: list[tuple[str, int | None]] = [
        (arg.arg, at - bound) for at, arg in enumerate(positional) if at >= first
    ]
    found += [
        (arg.arg, None)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    ]
    return found


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def test_every_defaulted_parameter_is_passed_by_a_package_caller():
    """A default that only tests override is a knob the program never turns: it
    becomes a module constant, read at call time. The rule covers public
    functions, public methods and ``__init__``s of classes that are not
    dataclasses (a dataclass field is a record's field, not a knob)."""
    params = []  # (where, callee name as called, parameter, position or None)
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        where = path.relative_to(PACKAGE).as_posix()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                params += [(where, node.name, *p) for p in _defaulted(node, 0)]
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in method.decorator_list
                )
                if method.name == "__init__" and not _is_dataclass(node):
                    params += [(where, node.name, *p) for p in _defaulted(method, 1)]
                elif not method.name.startswith("_"):
                    bound = 0 if static else 1
                    params += [(where, method.name, *p) for p in _defaulted(method, bound)]
    assert ("runner.py", "run", "max_workers", 5) in params

    calls: dict[str, list[ast.Call]] = {}  # by the callee's name, import aliases undone
    for path in sorted(path for root in CALLERS for path in root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = {
            alias.asname: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.asname
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(aliases.get(name, name), []).append(node)

    def passed(call: ast.Call, parameter: str, position: int | None) -> bool:
        if any(k.arg in (parameter, None) for k in call.keywords):  # None: a **mapping
            return True
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return True
        return position is not None and len(call.args) > position

    never = [
        f"{where}: {name}({parameter})"
        for where, name, parameter, position in params
        if not any(passed(call, parameter, position) for call in calls.get(name, ()))
    ]
    assert never == []
