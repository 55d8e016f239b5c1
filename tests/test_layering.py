"""Import layering of the package: every package import sits at module
level, the module import graph has no cycle, and no private name is
imported from another module."""

import ast
from pathlib import Path

import pseudomallows

PACKAGE = Path(pseudomallows.__file__).parent
MODULES = {
    p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"
}


def _package_imports(tree):
    """(module, imported names) for each import of a package module in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("pseudomallows."):
                    yield alias.name.split(".")[1], ()
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level != 1 and module.split(".")[0] != "pseudomallows":
                continue
            module = module.removeprefix("pseudomallows").lstrip(".")
            if module:
                yield module.split(".")[0], tuple(alias.name for alias in node.names)
            else:  # from . import a, b
                yield from ((alias.name, ()) for alias in node.names)


def test_no_package_import_inside_a_function():
    local = []
    for name, tree in MODULES.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [f"{name}.{func.name} imports {target}" for target, _ in _package_imports(func)]
    assert local == []


def test_module_import_graph_has_no_cycle():
    graph = {name: {target for target, _ in _package_imports(tree)} for name, tree in MODULES.items()}
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError(" -> ".join(path[path.index(name):] + [name]))
        if name in done or name not in graph:
            return
        path.append(name)
        for target in sorted(graph[name]):
            visit(target)
        path.pop()
        done.add(name)

    for name in graph:
        visit(name)


def test_private_names_stay_in_their_module():
    crossing = {
        (name, target, imported)
        for name, tree in MODULES.items()
        for target, names in _package_imports(tree)
        for imported in names
        if imported.startswith("_")
    }
    assert crossing == set(), sorted(crossing)
