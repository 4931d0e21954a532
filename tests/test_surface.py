"""The public surface of reidkit is pinned: every public top-level name of a
`reidkit` module is used by library code outside its own definition, or is
named in backticks in README.md as library surface. A function only tests
call cannot come back unseen."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "reidkit").glob("*.py"))}


def public_definitions(tree):
    """(name, defining node) of each public function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in targets if not name.startswith("_"))


def names_read(tree, skip):
    """Every name and attribute the tree reads, outside the node skip."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


# the last dotted part of each backticked identifier: `tsne.EARLY_ITERATIONS` names EARLY_ITERATIONS
README_NAMES = {
    span.split(".")[-1]
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    if re.fullmatch(r"[A-Za-z_][\w.]*", span)
}

SURFACE = [(module, name, node) for module, tree in MODULES.items() for name, node in public_definitions(tree)]


def test_every_module_is_parsed():
    assert {"cli", "gallery", "distance", "metrics"} <= set(MODULES)
    assert len(SURFACE) > 30


@pytest.mark.parametrize("module,name,node", SURFACE, ids=[f"{m}.{n}" for m, n, _ in SURFACE])
def test_public_name_is_used_or_documented(module, name, node):
    used = any(name in names_read(tree, node) for tree in MODULES.values())
    assert used or name in README_NAMES, (
        f"reidkit.{module}.{name} is read by no library code and not named in README.md"
    )


def test_every_module_parses_at_the_declared_python_floor():
    # ast.parse(feature_version=...) rejects syntax newer than the floor;
    # regex syntax such as possessive quantifiers is not checked here
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert floor, "pyproject.toml declares no requires-python floor"
    for path in sorted((ROOT / "src" / "reidkit").glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, int(floor[1])))
