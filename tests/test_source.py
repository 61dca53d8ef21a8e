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
