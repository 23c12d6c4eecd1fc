"""No module under src/ or tests/ keeps an import it never uses.

Each module is parsed with ``ast``: a name bound by a top-level ``import``
or ``from ... import`` must be read somewhere in the module.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unused_imports(source):
    """Names bound by top-level imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_checker_flags_only_unread_names():
    source = "import os.path\nimport numpy as np\nfrom math import pi, tau\nos.sep, tau\n"
    assert unused_imports(source) == ["np", "pi"]


def test_no_unused_top_level_imports():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)
                   + glob.glob(os.path.join(ROOT, "tests", "*.py")))
    assert len(paths) > 30
    unused = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            names = unused_imports(fh.read())
        if names:
            unused[os.path.relpath(path, ROOT)] = names
    assert unused == {}
