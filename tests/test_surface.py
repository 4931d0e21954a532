"""The public surface of reidkit is pinned: every public top-level name of a
`reidkit` module is used by library code outside its own definition, or is
named in backticks in README.md as library surface. A function only tests
call cannot come back unseen. Only `gallery._write_file` writes files, and
`cli` reads no private name of another module but gallery's writer and
JSON report form, nor picks a dtype, so no library decision hides in the
CLI."""

import ast
import pathlib
import re

import numpy as np
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


def write_sites(tree, skip=None):
    """(line, call) of each open() whose mode may write and each call named
    dump (json.dump) in the tree, outside the node skip. A mode that is not a
    string literal counts as writing."""
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        mode = [k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2]
        writes = bool(mode) and not (
            isinstance(mode[0], ast.Constant) and isinstance(mode[0].value, str)
            and not set(mode[0].value) & set("wax+")
        )
        if (name == "open" and writes) or name == "dump":
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_every_file_is_written_by_gallery_write_file():
    # one writer: a policy for outputs (atomic replace, say) changes in one place
    writer = next(n for n in MODULES["gallery"].body if getattr(n, "name", None) == "_write_file")
    assert write_sites(writer), "the scan finds no write in gallery._write_file itself"
    sites = {m: write_sites(tree, writer) for m, tree in MODULES.items()}
    assert not any(sites.values()), {m: s for m, s in sites.items() if s}


def private_reads(tree):
    """(module, name) of each private name the tree reads from another reidkit
    module: imported as `from .m import _name`, or read as an attribute of a
    module imported as `from . import m [as alias]`."""
    modules = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for a in node.names}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            found |= {(node.module, a.name) for a in node.names if a.name.startswith("_")}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr.startswith("_")):
            found.add((modules[node.value.id], node.attr))
    return found


def test_cli_reads_no_private_name_but_the_writer_and_the_report_form():
    allowed = {("gallery", "_write_file"), ("gallery", "_json_report")}
    found = private_reads(MODULES["cli"])
    assert allowed <= found, "the scan no longer sees cli's writes"
    assert found <= allowed, sorted(found - allowed)


def test_cli_leaves_every_dtype_to_the_library():
    # the operand dtype of a stage is its library module's decision: cli
    # calls no astype, names no numpy dtype and passes no dtype= argument
    tree = MODULES["cli"]
    numpy_reads = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id == "np"}
    assert "errstate" in numpy_reads, "the scan no longer sees cli's numpy reads"
    dtypes = {a for a in numpy_reads
              if isinstance(t := getattr(np, a, None), type) and issubclass(t, (np.generic, np.dtype))}
    casts = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "astype"
             or isinstance(node, ast.keyword) and node.arg == "dtype"]
    assert not dtypes and not casts, (sorted(dtypes), casts)


def test_only_gallery_real_checks_for_complex():
    # one home for the complex rule: every other module casts a caller's
    # array through gallery._real
    sites = {(module, getattr(top, "name", None)) for module, tree in MODULES.items() for top in tree.body
             for node in ast.walk(top) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "iscomplexobj"}
    assert sites == {("gallery", "_real")}, sorted(sites, key=str)
