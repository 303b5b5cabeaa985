"""Source hygiene of the perconn modules: every imported name is used, every
import sits at module level, no function recurses on input size, every
function is referenced, and every name the benchmark reaches exists."""

import ast
from pathlib import Path

import perconn
from perconn import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "perconn"
PERFBENCH = SRC.parent.parent / "perfbench"


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, line in sorted(_imported(tree).items()):
            if name not in used:
                unused.append(f"{path.name}:{line}: {name}")
    assert unused == []


def test_no_function_level_imports():
    # an import inside a function hides a dependency, and so a module cycle
    nested = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested |= {
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                }
    assert sorted(nested) == []


# Self-recursive functions whose depth is bounded independently of the input
# size, as "module.outer.inner" names.
RECURSION_ALLOWED: set[str] = set()


def _self_recursive(tree: ast.Module, module: str) -> list[str]:
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                calls = {
                    sub.func.id
                    for sub in ast.walk(child)
                    if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                }
                if child.name in calls:
                    found.append(name)
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def test_no_unbounded_self_recursion():
    recursive = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        recursive += _self_recursive(tree, path.stem)
    assert sorted(set(recursive) - RECURSION_ALLOWED) == []


def test_no_private_names_cross_modules():
    # modules reach each other through public names only, so the seams
    # between layers stay visible
    crossing = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("perconn")):
                private = [a.name for a in node.names if a.name.startswith("_")]
                crossing += [f"{path.name}:{node.lineno}: {name}" for name in private]
    assert crossing == []


# Defined but used only by the tests: the per-level oracle path reads
# sublevel graphs and finite cornerpoints through these.
UNREFERENCED_ALLOWED = {"sublevel_at", "finite_points"}


def test_every_function_is_referenced():
    # a function no module calls and the package does not export is dead code
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    referenced |= set(_imported(ast.parse((SRC / "__init__.py").read_text())))
    dead = [
        f"{where}: {name}"
        for name, where in sorted(defined.items())
        if name not in referenced | UNREFERENCED_ALLOWED and not (name.startswith("__") and name.endswith("__"))
    ]
    assert dead == []


def test_benchmark_names_resolve():
    # perfbench runs cli.main and builds its pools through ``pc.<name>``
    # (``import perconn as pc``); a name gone from the package would show
    # only as a failed benchmark run
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "perconn"
        }
        names |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases
        }
    assert names, "no pc.<name> found in perfbench"
    assert sorted(name for name in names if not hasattr(perconn, name)) == []
    assert callable(cli.main)
