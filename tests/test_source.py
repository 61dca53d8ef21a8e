"""Static checks over the package source."""

import ast
from collections import Counter
from pathlib import Path

REPO_DIR = Path(__file__).resolve().parents[1]
PACKAGE_DIR = REPO_DIR / "src" / "kgt5lab"


def test_no_module_binds_a_top_level_def_twice():
    # a second def/class of one name silently shadows the first
    shadowed = {}
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = Counter(node.name for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                             ast.ClassDef)))
        dupes = sorted(name for name, count in names.items() if count > 1)
        if dupes:
            shadowed[path.name] = dupes
    assert shadowed == {}


def test_cli_writes_files_only_through_atomic_write():
    # a file written in place is left truncated when the run fails mid-write
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    in_place = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            in_place.append(node.lineno)
        elif name == "open":
            # builtin open(path, mode) or path.open(mode)
            args = node.args[1:] if isinstance(func, ast.Name) else node.args
            mode = args[0] if args else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(mode.value) <= set("rbt")):
                in_place.append(node.lineno)
    assert in_place == []


def referenced_names(tree):
    """Every identifier a module uses: names, attributes, imported names and
    identifier-like strings (``monkeypatch.setattr(model, "encode", ...)``
    and the benchmark tracer name their targets as strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def test_every_def_is_referenced():
    # a def or class, at module level or nested, that nothing in src/,
    # tests/ or perfbench/ names is dead code
    used = Counter()
    for folder in ("src", "tests", "perfbench"):
        for path in (REPO_DIR / folder).rglob("*.py"):
            used.update(referenced_names(ast.parse(path.read_text(encoding="utf-8"))))
    unreferenced = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and not used[node.name]):
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert unreferenced == []
