"""A dead-code guard over the package source, with ``ast`` alone.

Five rules:
* no module-level import that its module never reads (``__init__``, whose
  imports are the public re-exports, is exempt);
* every top-level function or class is referenced, by name, somewhere in the
  package besides its own definition; a re-export in ``__init__`` counts;
* every module-level name bound by an assignment is read somewhere in the
  package besides its own statement (``__init__.__all__``, which only
  ``import *`` reads, is exempt);
* every method or property of every class, dunders aside, is read, as a
  name or an attribute, somewhere in the package outside its own body, so a
  public member that only tests read fails here;
* every ``_``-prefixed name that a docstring or comment quotes in double
  backticks (``_name``, or ``_Class.member`` with each part) is defined in
  the package.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

import curecheck

PACKAGE = Path(curecheck.__file__).resolve().parent


def _modules():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _names_read(node):
    """Names a statement reads: plain names, attribute names and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _bound_by_import(stmt):
    if isinstance(stmt, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        return [alias.asname or alias.name for alias in stmt.names]
    return []


def _bound_by_assignment(stmt):
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]


def _readers(modules):
    """name -> the (module, statement index) pairs that read it."""
    readers = defaultdict(set)
    for module, tree in modules.items():
        for i, stmt in enumerate(tree.body):
            for name in _names_read(stmt):
                readers[name].add((module, i))
    return readers


def test_no_unused_module_level_imports():
    unused = []
    for module, tree in _modules().items():
        if module == "__init__":
            continue
        read = set()
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                read |= _names_read(stmt)
        unused += [f"{module}.{name}" for stmt in tree.body for name in _bound_by_import(stmt)
                   if name not in read]
    assert unused == []


def test_every_top_level_definition_is_referenced():
    modules = _modules()
    readers = _readers(modules)
    unreferenced = [
        f"{module}.{stmt.name}"
        for module, tree in modules.items()
        for i, stmt in enumerate(tree.body)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not readers[stmt.name] - {(module, i)}
    ]
    assert unreferenced == []


def test_every_module_level_assignment_is_read():
    modules = _modules()
    readers = _readers(modules)
    unread = [
        f"{module}.{name}"
        for module, tree in modules.items()
        for i, stmt in enumerate(tree.body)
        for name in _bound_by_assignment(stmt)
        if not readers[name] - {(module, i)} and (module, name) != ("__init__", "__all__")
    ]
    assert unread == []


def test_every_class_method_is_read():
    modules = _modules()
    reads = defaultdict(list)  # name -> the Name and Attribute nodes that read it
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                reads[node.attr].append(node)
    unread = []
    for module, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("__"):
                    continue
                own = {id(node) for node in ast.walk(method)}
                if all(id(node) in own for node in reads[method.name]):
                    unread.append(f"{module}.{cls.name}.{method.name}")
    assert unread == []


def test_every_quoted_private_name_is_defined():
    modules = _modules()
    defined = set()  # functions, classes and methods, module-level and class-level assignments
    for tree in modules.values():
        for node in [tree, *ast.walk(tree)]:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, (ast.Module, ast.ClassDef)):
                defined.update(name for stmt in node.body for name in _bound_by_assignment(stmt))
    quoted = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in re.findall(r"``(_\w+(?:\.\w+)*)``", path.read_text())
    }
    assert quoted, "the pattern finds no quoted private name"
    undefined = [f"{module}: {name}" for module, name in sorted(quoted)
                 if not all(part in defined for part in name.split("."))]
    assert undefined == []
