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


def test_private_names_cross_modules_only_where_pinned():
    # Every private name one package module imports from another is listed here, so a new crossing fails.
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "weftprint"):
                module = (node.module or "").removeprefix("weftprint").lstrip(".")
                imported |= {f"{path.stem}: {module}.{a.name}" for a in node.names if a.name.startswith("_")}
    assert imported == {
        "weaves: graph._Frame",
        "cli: fingerprint._walk_each_once",
        "pipeline: fingerprint._walk_each_once",
        "corpus: weaves._motif_pool",
        "corpus: weaves._place_motifs",
    }
