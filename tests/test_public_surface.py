"""Every name the package exports has a caller in ``src/``, so has every
public method and property of an exported class, and every defaulted
parameter of an exported function, or of a constructor or method of an
exported class, is set by some call there.

A name counts as used when some module other than ``__init__.py`` refers
to it outside its own definition; an import alone does not count.  A name
or an option that only the tests use belongs in the tests, not in the
package.
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


def _trees():
    return [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"]


def test_every_export_has_a_caller_in_src():
    trees = _trees()
    unused = sorted(name for name in _exports() - set(EXEMPT)
                    if not any(_uses(tree, name) for tree in trees))
    assert unused == []


def _exported_classes(trees):
    exports = _exports() - set(EXEMPT)
    return [node for tree in trees for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in exports]


def test_every_public_method_of_an_exported_class_has_a_caller_in_src():
    trees = _trees()
    unused = sorted(f"{cls.name}.{fn.name}" for cls in _exported_classes(trees)
                    for fn in cls.body if isinstance(fn, ast.FunctionDef)
                    and not fn.name.startswith("_")
                    and not any(_uses(tree, fn.name) for tree in trees))
    assert unused == []


def test_exemptions_are_exports():
    assert set(EXEMPT) <= _exports()


def _defaulted(fn):
    """{parameter: (position in a call, default)} of the defaulted
    parameters of ``fn``; the position of a keyword-only one is None, and
    the default is its AST dump."""
    positional = fn.args.posonlyargs + fn.args.args
    bound = int(bool(positional) and positional[0].arg in ("self", "cls"))
    first = len(positional) - len(fn.args.defaults)
    out = {a.arg: (i - bound, ast.dump(fn.args.defaults[i - first]))
           for i, a in enumerate(positional) if i >= first}
    out.update((a.arg, (None, ast.dump(d))) for a, d in zip(
        fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None)
    return out


def _functions(tree):
    """{definition: name its calls use} of every function and method in
    ``tree``; a class's ``__init__`` is called by the class name."""
    names = {fn: fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            names.update((fn, cls.name) for fn in cls.body
                         if isinstance(fn, ast.FunctionDef) and fn.name == "__init__")
    return names


def _settings(tree, names, defaulted):
    """(callee, parameter, forwarded) for each argument a call in ``tree``
    passes to a defaulted parameter, unless the argument is the default
    itself (same AST).  ``cls(...)`` inside a class calls that class.
    ``forwarded`` is ``(function, parameter)`` when the argument is a
    defaulted parameter of an enclosing function, passed on unchanged,
    else None."""
    def walk(node, scope, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.FunctionDef):
            scope = {**scope, **{a.arg: names[node] for a in ast.walk(node.args)
                                 if isinstance(a, ast.arg)}}
        if isinstance(node, ast.Call):
            func = node.func
            callee = getattr(func, "id", None) or getattr(func, "attr", None)
            callee = cls if callee == "cls" else callee
            positional = dict(enumerate(node.args))
            for param, (i, default) in defaulted.get(callee, {}).items():
                arg = next((k.value for k in node.keywords if k.arg == param),
                           positional.get(i))
                if arg is None or ast.dump(arg) == default:
                    continue
                owner = scope.get(getattr(arg, "id", None))
                forwarded = owner is not None and arg.id in defaulted.get(owner, {})
                yield callee, param, (owner, arg.id) if forwarded else None
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope, cls)
    return walk(tree, {}, None)


def _exported_callables(trees):
    """Names under which calls reach an export: each exported function,
    and each exported class with its methods."""
    exports = _exports() - set(EXEMPT)
    out = {node.name for tree in trees for node in tree.body
           if isinstance(node, ast.FunctionDef) and node.name in exports}
    for cls in _exported_classes(trees):
        out.add(cls.name)
        out.update(fn.name for fn in cls.body
                   if isinstance(fn, ast.FunctionDef) and fn.name != "__init__")
    return out


def test_every_default_of_an_export_is_set_in_src():
    trees = _trees()
    names = {fn: name for tree in trees for fn, name in _functions(tree).items()}
    # methods too: a method can forward its own parameter
    defaulted = {name: _defaulted(fn) for fn, name in names.items()}
    settings = [s for tree in trees for s in _settings(tree, names, defaulted)]
    # a parameter forwarded from a caller is set when the caller's is
    done = set()
    while True:
        found = {(callee, param) for callee, param, forwarded in settings
                 if forwarded is None or forwarded in done}
        if found <= done:
            break
        done |= found
    unset = sorted(f"{name}({param})" for name in _exported_callables(trees)
                   for param in defaulted.get(name, {}) if (name, param) not in done)
    assert unset == []
