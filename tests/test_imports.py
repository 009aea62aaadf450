"""Every import in the package and its tests is used, and every private
module-level name of the package is read by the package (stdlib AST checks)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    """``file:line name`` of each imported name that the module never reads;
    names listed in ``__all__`` count as read."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    files = [*sorted((ROOT / "src" / "lgt").glob("*.py")),
             *sorted((ROOT / "tests").glob("*.py"))]
    assert [entry for path in files for entry in unused_imports(path)] == []


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) of each module-level private function, class and
    assigned name (one leading underscore, not a dunder)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out += [(name, node) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


def reads(node: ast.AST, module: str) -> set[tuple[str, str]]:
    """(module, name) of each name a statement of ``module`` reads: its
    loaded names, and the names it imports from another module."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add((module, n.id))
        elif isinstance(n, ast.ImportFrom) and n.module:
            out |= {(n.module, alias.name) for alias in n.names}
    return out


def test_every_private_name_is_read_by_the_package():
    # a private name that only its own definition or the tests read is dead
    paths = sorted((ROOT / "src" / "lgt").glob("*.py"))
    modules = {path: "lgt" if path.stem == "__init__" else f"lgt.{path.stem}"
               for path in paths}
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    read = [(stmt, reads(stmt, modules[path]))
            for path, tree in trees.items() for stmt in tree.body]
    dead = [f"{path.relative_to(ROOT)}:{stmt.lineno} {name}"
            for path, tree in trees.items()
            for name, stmt in private_definitions(tree)
            if not any((modules[path], name) in names
                       for other, names in read if other is not stmt)]
    assert dead == []
