"""No module under src/ or tests/ keeps an import it never uses, no
module under src/ keeps a private name it never reads, and src/ has no
public function or class that only tests reach.

Each module is parsed with ``ast``: a name bound by a top-level ``import``
or ``from ... import`` must be read somewhere in the module, and so must a
top-level function, class or constant of src/ whose name starts with one
underscore. A public top-level function or class of src/ must be read, as
a name, an attribute or a ``from`` import, somewhere in src/ or perfbench/,
unless ``TEST_ONLY_PUBLIC`` names it.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# public names that only tests read, each with the reason it stays
TEST_ONLY_PUBLIC = {
    "run_all": "the one-process API of the pipeline",
    "forget_saved": "test hook: later loads read the disk",
    "news2_score": "C9's per-patient reference for news2_scores",
    "News2Input": "the input record of news2_score",
    "format_time": "tests' reference for _format_times",
    "predict_margin": "tests' view of _tree_predict over a whole model",
}


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


def unreached_public_names(sources, readers):
    """Public top-level functions and classes of the ``sources`` texts that
    no text of ``readers`` reads."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [node.name for source in sources for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in read]


def _texts(*patterns):
    paths = sorted(p for pattern in patterns
                   for p in glob.glob(os.path.join(ROOT, pattern), recursive=True))
    texts = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    return texts


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


def test_public_checker_flags_only_unreached_names():
    lib = ("def used(): pass\ndef helper(): pass\ndef unread(): used()\n"
           "class Model: pass\nclass Orphan: pass\ndef _private(): pass\n")
    bench = "from lib import helper\nimport lib\nlib.Model()\n"
    assert unreached_public_names([lib], [lib, bench]) == ["unread", "Orphan"]


def test_every_public_name_in_src_is_read_outside_tests():
    src = _texts("src/**/*.py")
    assert len(src) > 10
    unreached = unreached_public_names(src, src + _texts("perfbench/*.py"))
    assert sorted(unreached) == sorted(TEST_ONLY_PUBLIC)
