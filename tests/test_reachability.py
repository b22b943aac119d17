"""Every top-level def or class in the package is reached from the
program's roots.

The roots are the statements each module runs on import outside its defs
and classes (``runner.STAGES``, ``maps.FAMILIES``, the ``__init__``
exports, ...) and the click commands.  From there the walk follows every
name loaded inside a reached definition: a bare name to its definition in
its own module or in the module it is imported from, and an attribute
load ``obj.name`` to every top-level definition, method or property
called ``name``.  A reached class brings its dunders (``__init__``,
``__post_init__``, ...) with it, but not its other methods: each of
those is reached only through an attribute load of its name.  Code that
only tests call is a second path that the program never runs; such
references live in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import devgibbs

PACKAGE = Path(devgibbs.__file__).parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_click_command(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in (
                "command", "group"):
            return True
    return False


def _is_method(node):
    """A def in a class body that is not a dunder."""
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__")))


def _walked(node):
    """What reaching a definition walks: a class without its methods."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return node.bases + node.keywords + node.decorator_list + [
        n for n in node.body if not _is_method(n)]


def unreached_names():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    defs = {}  # (module, name or Class.method) -> def or class node
    imported = {}  # (module, local name) -> (source module, name)
    named = {}  # name -> the keys of the definitions of that name
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imported[mod, alias.asname or alias.name] = (
                        node.module or "__init__", alias.name)
        for node in tree.body:
            if isinstance(node, DEFS):
                defs[mod, node.name] = node
                named.setdefault(node.name, []).append((mod, node.name))
            if isinstance(node, ast.ClassDef):
                for meth in filter(_is_method, node.body):
                    key = (mod, f"{node.name}.{meth.name}")
                    defs[key] = meth
                    named.setdefault(meth.name, []).append(key)

    def resolve(mod, name):
        seen = set()
        while (mod, name) in imported and (mod, name) not in seen:
            seen.add((mod, name))
            mod, name = imported[mod, name]
        return [(mod, name)] if (mod, name) in defs else []

    reached, todo = set(), []

    def reach(keys):
        for key in keys:
            if key not in reached:
                reached.add(key)
                todo.extend((key[0], node) for node in _walked(defs[key]))

    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, DEFS):
                if _is_click_command(node):
                    reach([(mod, node.name)])
            elif isinstance(node, ast.ImportFrom):
                if mod == "__init__":  # the exports
                    for alias in node.names:
                        reach(resolve(mod, alias.asname or alias.name))
            elif not isinstance(node, ast.Import):
                todo.append((mod, node))
    while todo:
        mod, tree = todo.pop()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reach(resolve(mod, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load):
                reach(named.get(node.attr, []))
    return sorted(f"{mod}.{name}" for mod, name in defs
                  if (mod, name) not in reached)


def test_every_definition_is_reached():
    missing = unreached_names()
    assert not missing, (
        f"defined in src/devgibbs but never reached from the program's "
        f"roots: {missing}; use them, delete them, or move them to "
        f"tests/oracles.py")


def _call_sites(tree, name):
    """Dotted name of the function or method around each call of ``name``,
    as ``name(...)`` or ``obj.name(...)``."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            func = f"{func}.{node.name}" if func else node.name
        if isinstance(node, ast.Call) and name in (
                getattr(node.func, "attr", None),
                getattr(node.func, "id", None)):
            out.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def _sites(name):
    return [(path.stem, func) for path in sorted(PACKAGE.glob("*.py"))
            for func in _call_sites(ast.parse(path.read_text()), name)]


def test_only_the_stepping_loops_call_step():
    # dynamics.walk is the one stepping loop: orbits, Birkhoff sums, ball
    # masses and the hyperbolic-time scan all read it
    assert _sites("step") == [("dynamics", "walk.__iter__")]


def test_only_chunk_map_draws_chunks_and_runs_the_pool():
    # sampling.chunk_map is the one Monte Carlo driver: every chunked
    # estimator hands it a job of the points alone
    for name in ("sample_chunks", "parallel_chunk_map"):
        assert _sites(name) == [("sampling", "chunk_map")], name
