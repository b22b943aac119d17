"""Every top-level def or class in the package is reached by the package.

A name counts as reached when a module other than its own loads it (an
import of it from its module, or an attribute of that name), when its own
module loads it outside its own definition, or when it is a click
command.  Code that only tests call is a second path that the program
never runs; the few names kept on purpose are listed with their reason.
"""

import ast
from pathlib import Path

import devgibbs

PACKAGE = Path(devgibbs.__file__).parent

ALLOWED = {
    "hyperbolic.naive_is_hyperbolic_time":
        "double-loop reference the incremental scan is tested against",
    "metric.in_dynamical_ball":
        "pointwise ball membership the exact ball intervals are tested "
        "against",
    "metric.maximal_separated_subset":
        "greedy separated set the covering numbers are tested against",
    "maps.verify_H":
        "only implementation of the paper's (H) distance-power check",
    "maps.verify_C":
        "only implementation of the paper's (C) preimage-contraction check",
    "hyperbolic.lag_statistic":
        "only implementation of the paper's hyperbolic-time lag limsup",
    "specprobe.gap_estimate":
        "only implementation of the pointwise gap p-hat(x, n, eps)",
}


def _is_click_command(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in (
                "command", "group"):
            return True
    return False


def _loads(tree, skip=None):
    """Names loaded in ``tree``, outside the subtree ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreached_names():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    imported = set()  # (module, name) loaded by another module
    attrs = {}  # module -> attribute names it loads
    for mod, tree in trees.items():
        attrs[mod] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imported.add((node.module, alias.name))
            elif isinstance(node, ast.Attribute):
                attrs[mod].add(node.attr)
    missing = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            reached = (
                (mod, name) in imported
                or any(name in a for other, a in attrs.items()
                       if other != mod)
                or name in _loads(tree, skip=node)
                or _is_click_command(node))
            if not reached:
                missing.append(f"{mod}.{name}")
    return missing


def test_every_definition_is_reached():
    missing = [name for name in unreached_names() if name not in ALLOWED]
    assert not missing, (
        f"defined in src/devgibbs but reached by nothing there: {missing}; "
        f"use or delete them, or list them in ALLOWED with a reason")


def test_allowed_names_exist_and_are_unreached():
    # an entry that the package reaches after all, or that no longer
    # exists, is a stale exemption
    assert sorted(ALLOWED) == sorted(
        name for name in unreached_names() if name in ALLOWED)


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
