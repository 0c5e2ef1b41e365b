"""Every name the package exports has a caller in ``src/``.

A name counts as used when some module other than ``__init__.py`` refers
to it outside its own definition; an import alone does not count.  A name
that only the tests use belongs in the tests, not in the package.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tropcm"

# exported with no caller in src/, and why
EXEMPT = {
    "default_ring": "builds the ring x1..xn, at a prompt or in a test",
    "weight_value": "the exact <w, alpha> that the integer weight keys of "
                    "the orders are tested against",
}


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _uses(tree, name):
    """References to ``name`` in ``tree`` outside a definition of ``name``."""
    def walk(node):
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == name):
            return 0
        hit = ((isinstance(node, ast.Name) and node.id == name)
               or (isinstance(node, ast.Attribute) and node.attr == name))
        return hit + sum(walk(child) for child in ast.iter_child_nodes(node))
    return walk(tree)


def test_every_export_has_a_caller_in_src():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"]
    unused = sorted(name for name in _exports() - set(EXEMPT)
                    if not any(_uses(tree, name) for tree in trees))
    assert unused == []


def test_exemptions_are_exports():
    assert set(EXEMPT) <= _exports()
