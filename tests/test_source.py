"""Static checks over the package source."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "kgt5lab"


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
