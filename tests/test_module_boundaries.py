"""What a module may read of another, checked on the source.

A module's underscore names are its own: what several modules read lives
under a plain name in the module that owns it (the colex subset format in
oscmlab.colex). Two reads are allowed, each of a name its module keeps
for a single reader. tests/layer_references.py is the independent
reference for the layer kernels, and oscmlab.colex the format and kernel
that dp, qdp and dc share, so neither imports anything from oscmlab.
"""

import ast
from pathlib import Path

import oscmlab

PACKAGE = Path(oscmlab.__file__).parent
# (reading module, sibling module, name)
ALLOWED = {("oracle", "bigraph", "_edge_pairs"),
           ("qdp", "dp", "_PRACTICAL_MAX_NV")}


def private(name):
    return name.startswith("_") and not name.endswith("__")


def sibling_source(node):
    """The sibling module a from-import names ("" for the package itself),
    or None for one from outside oscmlab."""
    if node.level:
        return node.module or ""
    if node.module == "oscmlab" or (node.module or "").startswith("oscmlab."):
        return node.module[len("oscmlab."):]
    return None


def private_reads(path):
    """(sibling, name) for each underscore name the module at path imports
    from a sibling module, or reads off one that it imports whole."""
    tree = ast.parse(path.read_text())
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = sibling_source(node)
        for alias in node.names if source is not None else ():
            if not source:              # from . import colex
                modules[alias.asname or alias.name] = alias.name
            elif private(alias.name):
                reads.add((source, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.add((modules[node.value.id], node.attr))
    return {(path.stem, *read) for read in reads}


def test_no_module_reads_a_siblings_private_name():
    reads = set().union(*map(private_reads, sorted(PACKAGE.glob("*.py"))))
    assert reads == ALLOWED


def test_layer_references_import_nothing_from_oscmlab():
    for path in (Path(__file__).with_name("layer_references.py"),
                 PACKAGE / "colex.py"):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert {name for name in imported if name.startswith(".")
                or name.split(".")[0] == "oscmlab"} == set(), path.name
