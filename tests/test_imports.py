"""No module under src/ or tests/ keeps an import it never uses, and no
module under src/ keeps a private name it never reads.

Each module is parsed with ``ast``: a name bound by a top-level ``import``
or ``from ... import`` must be read somewhere in the module, and so must a
top-level function, class or constant of src/ whose name starts with one
underscore.
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


def unread_private_names(source):
    """Top-level ``_x`` functions, classes and assigned names of ``source``
    that it never reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


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


def test_private_checker_flags_only_unread_names():
    source = ("_A, _B = 1, 2\n__all__ = []\nclass _C: pass\n"
              "def _f(): return _A\ndef _g(): pass\nPUBLIC = _f\n")
    assert unread_private_names(source) == ["_B", "_C", "_g"]


def test_no_unread_private_names_in_src():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True))
    assert len(paths) > 10
    unread = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            names = unread_private_names(fh.read())
        if names:
            unread[os.path.relpath(path, ROOT)] = names
    assert unread == {}
