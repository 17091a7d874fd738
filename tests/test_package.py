"""The package imports, and every module's export list names real objects
that something in `src/` uses, down to the public methods of exported
classes.

A deletion that leaves a stale name in `__all__` fails here rather than in
a user's `from probfpc.<module> import *`; so does a public name that only
the tests call, which belongs in `tests/genlib.py`.
"""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re

import pytest

# found without importing the package, so a failing import fails one test
# below instead of the collection of this file
MODULES = sorted(m.name for m in pkgutil.iter_modules(
    importlib.util.find_spec("probfpc").submodule_search_locations))


def test_package_imports():
    assert importlib.import_module("probfpc").__version__


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module("probfpc." + name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, "probfpc.%s.__all__ names missing objects: %s" % (name, missing)


# Public names that need no caller in src/, each with its reason.
NO_CALLER_NEEDED = {
    "cli.main": "the console-script entry point",
    "delay.run": "the paper's one-layer elimination, the reference for Frontier",
    "dist.dist_map": "the functor action of Dist",
}


def test_every_exemption_names_an_export():
    # a deleted export cannot leave its exemption behind
    stale = []
    for entry in NO_CALLER_NEEDED:
        module, _, name = entry.partition(".")
        if name not in getattr(importlib.import_module("probfpc." + module), "__all__", ()):
            stale.append(entry)
    assert not stale, "NO_CALLER_NEEDED names no export: %s" % stale


def _uses(tree):
    """Names a module loads, leaving out uses inside the module-level
    definition of the same name: recursion is not a caller."""
    used = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        used.update(n.id for n in ast.walk(top) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load) and n.id != own)
    return used


def _attr_uses(tree):
    """Attribute names and string constants (``getattr`` looks a name up by
    one) in a module, leaving out those inside a function of the same name:
    recursion is not a caller."""
    used, todo = set(), [(tree, None)]
    while todo:
        node, own = todo.pop()
        own = node.name if isinstance(node, ast.FunctionDef) else own
        name = (node.attr if isinstance(node, ast.Attribute) else
                node.value if isinstance(node, ast.Constant) else None)
        if isinstance(name, str) and name != own:
            used.add(name)
        todo.extend((c, own) for c in ast.iter_child_nodes(node))
    return used


def _trees():
    """The parsed source of every module, by name."""
    src = importlib.util.find_spec("probfpc").submodule_search_locations[0]
    trees = {}
    for name in MODULES:
        with open(os.path.join(src, name + ".py"), encoding="utf-8") as fh:
            trees[name] = ast.parse(fh.read())
    return trees


def test_public_names_have_a_caller_in_src():
    # code only the tests use lives in tests/: each exported name needs a
    # use in src/ outside its own definition and __init__.py, in its own
    # module or in one that imports it from there, and each public method
    # of an exported class an attribute or a string in src/ naming it
    trees = _trees()
    uses = {m: _uses(t) for m, t in trees.items()}
    attrs = set().union(*map(_attr_uses, trees.values()))
    imports = {m: {(n.module, a.name) for n in ast.walk(t)
                   if isinstance(n, ast.ImportFrom) for a in n.names}
               for m, t in trees.items()}
    unused = []
    for module, tree in trees.items():
        exported = next(ast.literal_eval(n.value) for n in tree.body
                        if isinstance(n, ast.Assign)
                        and getattr(n.targets[0], "id", None) == "__all__")
        for name in exported:
            callers = [m for m in trees if name in uses[m]
                       and (m == module or (module, name) in imports[m])]
            if not callers and "%s.%s" % (module, name) not in NO_CALLER_NEEDED:
                unused.append("%s.%s" % (module, name))
        unused += ["%s.%s.%s" % (module, c.name, f.name) for c in tree.body
                   if isinstance(c, ast.ClassDef) and c.name in exported
                   for f in c.body if isinstance(f, ast.FunctionDef)
                   and not f.name.startswith("_") and f.name not in attrs]
    assert not unused, "exported but never used in src/: %s" % unused


def test_indented_json_goes_through_one_writer():
    # json's indenting encoder recurses once per nesting level and costs
    # depth x size; cli._dumps writes the same text with neither
    calls = ["%s.py:%d" % (module, n.lineno)
             for module, tree in _trees().items() for n in ast.walk(tree)
             if isinstance(n, ast.Call)
             and ast.unparse(n.func).rpartition(".")[2] in ("dump", "dumps")
             and any(k.arg == "indent" for k in n.keywords)]
    assert not calls, "indented json.dump(s) outside cli._dumps: %s" % calls


def test_live_state_is_read_inside_frontier():
    # Frontier.recurrence owns the recurrence test, its seen states and
    # dead cycles; a call to live() elsewhere would grow a second one
    calls = ["%s.py:%d" % (module, n.lineno)
             for module, tree in _trees().items() for n in ast.walk(tree)
             if isinstance(n, ast.Call)
             and ast.unparse(n.func).rpartition(".")[2] == "live"
             and not any(isinstance(c, ast.ClassDef) and c.name == "Frontier"
                         and n in ast.walk(c) for c in tree.body)]
    assert not calls, "Frontier.live called outside Frontier: %s" % calls


def test_no_private_imports_across_modules():
    # an underscore name is its module's own business; a module that needs
    # another's private name should own it, or the name should be public.
    # The imported name is what counts, so `import x as _y` is allowed
    leaks = ["%s.py:%d imports %s from .%s" % (module, n.lineno, a.name, n.module or "")
             for module, tree in _trees().items() for n in ast.walk(tree)
             if isinstance(n, ast.ImportFrom) and n.level
             for a in n.names if a.name.startswith("_")]
    assert not leaks, "private names imported across modules: %s" % leaks


def test_readme_python_blocks_run(monkeypatch, capsys):
    # the library example is the README's only code a reader runs as is;
    # its paths are relative to the repository root
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert blocks, "README.md has no python block"
    monkeypatch.chdir(root)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
