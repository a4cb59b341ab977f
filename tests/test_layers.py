"""Each module of the package imports only the layers below it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weftprint"

# The layers run textio -> graph -> weaves -> corpus and textio -> graph -> fingerprint -> distance -> evaluation;
# the two chains meet in pipeline, and cli sits on top.  Each module names the layers right below it.
RESTS_ON = {
    "textio": (),
    "graph": ("textio",),
    "weaves": ("graph",),
    "corpus": ("weaves",),
    "fingerprint": ("graph",),
    "distance": ("fingerprint",),
    "evaluation": ("distance",),
    "pipeline": ("corpus", "evaluation"),
    "cli": ("pipeline",),
}


def below(module):
    return {lower for direct in RESTS_ON[module] for lower in {direct} | below(direct)}


def imported_modules(path):
    """The package modules that ``path`` imports, at module level or inside a function."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("weftprint.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:  # absolute: only the package's own modules count
                if module.split(".")[0] != "weftprint":
                    continue
                module = module.removeprefix("weftprint").lstrip(".")
            names |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return names


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"} == set(RESTS_ON)


@pytest.mark.parametrize("module", RESTS_ON)
def test_modules_import_only_lower_layers(module):
    assert imported_modules(PACKAGE / f"{module}.py") <= below(module)


def test_the_check_sees_every_spelling_of_an_import(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import weftprint.cli\nfrom weftprint.corpus import x\nfrom weftprint import distance\n"
                      "from . import evaluation as e\ndef f():\n    from .fingerprint import y\n    from .graph.z import w\n")
    assert imported_modules(source) == {"cli", "corpus", "distance", "evaluation", "fingerprint", "graph"}


def test_no_module_imports_a_private_name_from_graph():
    # Text helpers live in textio; of graph's private names, only the thread frame that weaves builds on is shared.
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").removeprefix("weftprint.") == "graph":
                imported |= {f"{path.stem}: {a.name}" for a in node.names if a.name.startswith("_")}
    assert imported == {"weaves: _Frame"}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_names_bound(tree):
    """The private names a module binds: defs, classes, assignment targets, and attribute names set by string."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)  # __slots__ entries and object.__setattr__ names
    return {name for name in names if _private(name)}


def private_crossings(package):
    """Each private name a module of ``package`` imports from another, or reads as an attribute defined only elsewhere.

    An attribute read on ``self`` or ``cls`` is the module's own business, and
    one that no package module binds (``os._exit``) is not a crossing.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    bound = {module: private_names_bound(tree) for module, tree in trees.items()}
    crossings = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "weftprint"):
                source = (node.module or "").removeprefix("weftprint").lstrip(".")
                crossings |= {f"{module}: {source}.{a.name}" for a in node.names if _private(a.name)}
            elif (isinstance(node, ast.Attribute) and _private(node.attr) and node.attr not in bound[module]
                  and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
                crossings |= {f"{module}: {other}.{node.attr}" for other in trees if node.attr in bound[other]}
    return crossings


def test_private_names_cross_modules_only_where_pinned():
    # Every private name one package module takes from another is listed here, so a new crossing fails.
    assert private_crossings(PACKAGE) == {
        "weaves: graph._Frame",
        "weaves: graph._on_frame",  # the graph of a shared frame, built without re-checking the frame
        "fingerprint: graph._thread_arrays",  # the walk lists, cached on the graph
        "cli: corpus._parse_manifest",  # the rows without their paths: 0.6 ms against 2.5 ms per n999 manifest read
        "corpus: weaves._motif_pool",
        "corpus: weaves._place_motifs",
    }


def test_the_crossing_check_sees_imports_and_attribute_reads(tmp_path):
    (tmp_path / "low.py").write_text("import os\n_TABLE = {}\nclass G:\n    __slots__ = ('_cache',)\n"
                                     "    def _walk(self):\n        return self._cache\ndef _helper():\n    os._exit(0)\n")
    (tmp_path / "high.py").write_text("from . import low\nfrom .low import _helper\nclass H:\n"
                                      "    def _own(self):\n        return self._walk()\n"
                                      "def f(g):\n    return g._walk(), g._cache, low._TABLE, H()._own(), g._unbound\n")
    assert private_crossings(tmp_path) == {"high: low._helper", "high: low._walk", "high: low._cache",
                                           "high: low._TABLE"}
