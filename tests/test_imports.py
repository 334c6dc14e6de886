"""The package's import graph, read from the source: every viaccel module
imports its siblings at module level, so that graph is the whole graph, and
it has no cycle."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "viaccel"


def _package_imports(nodes) -> set:
    """The viaccel modules that the import statements among nodes name,
    each by its name within the package ("" for the package itself)."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            path = ("viaccel." if node.level else "") + (node.module or "")
            if path.split(".")[0] == "viaccel":
                inner = [part for part in path.split(".")[1:] if part]
                names.update(inner[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "viaccel":
                    names.add(parts[1] if len(parts) > 1 else "")
    return names


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_no_function_imports_a_package_module():
    found = []
    for module, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for name in sorted(_package_imports(ast.walk(fn))):
                    found.append(f"{module}.{fn.name} imports {name or 'viaccel'}")
    assert not found, "\n".join(found)


def test_the_module_import_graph_has_no_cycle():
    graph = {module: _package_imports(tree.body) - {module}
             for module, tree in _trees().items() if module != "__init__"}
    assert graph["harness"] == {"core"}
    done, path = set(), []

    def visit(module):
        assert module not in path, " -> ".join(path + [module])
        if module in done:
            return
        path.append(module)
        for dep in sorted(graph.get(module, ())):
            visit(dep)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)
