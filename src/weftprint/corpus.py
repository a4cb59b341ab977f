"""Labeled corpora of generated weave graphs.

A corpus spec lists categories; each category produces ``count`` samples
of one weave kind on one grid size: first the clean bases, then a block of
cell-flip perturbed samples, then a block of rotated/mirrored samples
(cycling rotate90 / rotate180 / mirror).  Sample seeds derive from the
category seed and the sample index, so a spec regenerates byte-for-byte.

Spec files are INI-style, one section per category (grammar below and in
the README)::

    # optional; the fallback seed of categories without their own
    [corpus]
    seed = 7

    [twill-2-1]
    # plain | twill(m,n) | satin(p,s) | warp_above | random(d) | mixed(b,p)
    kind = twill(2,1)
    count = 20
    width = 24
    height = 24
    perturb_fraction = 0.25
    perturb_rate = 0.03
    transform_fraction = 0.25
    # optional; default derives from the global seed
    seed = 3

On disk a corpus is a directory of ``<id>.tg`` files plus a
``manifest.csv`` with header ``id,path,category`` (paths relative to the
manifest).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .graph import TextileGraph, _read_text, _significant_lines, load_graph, save_graph, serialize_graph
from .weaves import (
    TRANSFORM_OPS,
    _motif_pool,
    _place_motifs,
    _read_number,
    grid_to_graph,
    parse_kind,
    perturb,
    transform,
    weave_matrix,
)


@dataclass(frozen=True)
class CategorySpec:
    name: str
    kind: str
    count: int = 1
    width: int = 16
    height: int = 16
    perturb_fraction: float = 0.0
    perturb_rate: float = 0.0
    transform_fraction: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if not self.name or any(c in self.name for c in "/\\,\r\n"):
            raise ValueError(f"category name {self.name!r} must be non-empty, without path separators, "
                             "commas or line breaks")
        parse_kind(self.kind)
        try:  # each generator owns its argument ranges: build one 1x1 sample to apply them
            weave_matrix(self.kind, 1, 1, seed=0)
        except ValueError as exc:
            raise ValueError(f"category {self.name!r}: weave kind {self.kind!r}: {exc}") from None
        if self.count < 1:
            raise ValueError(f"category {self.name!r}: count must be >= 1")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"category {self.name!r}: seed must be >= 0")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"category {self.name!r}: grid dimensions must be >= 1")
        for field_name in ("perturb_fraction", "perturb_rate", "transform_fraction"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"category {self.name!r}: {field_name} must lie in [0, 1]")
        if _spelled(self.perturb_fraction) + _spelled(self.transform_fraction) > 1:
            raise ValueError(f"category {self.name!r}: perturbed and transformed fractions exceed the count")

    @property
    def n_perturbed(self) -> int:
        return int(self.count * _spelled(self.perturb_fraction))

    @property
    def n_transformed(self) -> int:
        return int(self.count * _spelled(self.transform_fraction))


def _spelled(fraction: float) -> Fraction:
    # The exact value of the shortest decimal spelling, as in a spec file: int(90 * 0.7) is 62, not 63.
    return Fraction(str(fraction))


@dataclass(frozen=True)
class CorpusSpec:
    categories: tuple[CategorySpec, ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        names = [c.name for c in self.categories]
        if len(set(names)) != len(names):
            raise ValueError("category names must be unique")
        if not self.categories:
            raise ValueError("corpus spec needs at least one category")
        if self.seed < 0:
            raise ValueError("corpus: seed must be >= 0")


class CorpusItem(NamedTuple):
    id: str
    graph: TextileGraph
    category: str


def _sample_seed(category_seed: int, index: int, stream: int) -> np.random.SeedSequence:
    # Distinct, portable streams per (sample, purpose) without RNG state leaks.
    return np.random.SeedSequence([category_seed, index, stream])

_POOL_STREAM = 997  # category-level stream id for shared mixed-weave motif pools


def _category_items(cat: CategorySpec, fallback_seed: int):
    seed = cat.seed if cat.seed is not None else fallback_seed
    name, args = parse_kind(cat.kind)
    if name == "mixed":  # one motif pool per category, drawn once; each sample only re-arranges it
        motifs = _motif_pool(*args, np.random.SeedSequence([seed, _POOL_STREAM]))
    n_clean = cat.count - cat.n_perturbed - cat.n_transformed
    for index in range(cat.count):
        if name == "mixed":
            cells = _place_motifs(motifs, cat.width, cat.height, _sample_seed(seed, index, 0))
        else:
            cells = weave_matrix(cat.kind, cat.width, cat.height, seed=_sample_seed(seed, index, 0))
        if n_clean <= index < n_clean + cat.n_perturbed:
            cells = perturb(cells, cat.perturb_rate, _sample_seed(seed, index, 1))
        elif index >= n_clean + cat.n_perturbed:
            cells = transform(cells, TRANSFORM_OPS[(index - n_clean - cat.n_perturbed) % len(TRANSFORM_OPS)])
        yield CorpusItem(f"{cat.name}-{index:03d}", grid_to_graph(cells), cat.name)


def generate_corpus(spec: CorpusSpec) -> list[CorpusItem]:
    """All samples of all categories, in spec order, deterministic per seed."""
    corpus = []
    for position, cat in enumerate(spec.categories):
        # Offset fallback seeds so two seedless categories never collide.
        corpus.extend(_category_items(cat, spec.seed * 1000 + position))
    return corpus


# --- spec files ---------------------------------------------------------------

# The type of each key's value; a key left out keeps its default.
_CATEGORY_KEYS = {
    "kind": str, "count": int, "width": int, "height": int,
    "perturb_fraction": float, "perturb_rate": float, "transform_fraction": float, "seed": int,
}


def _read_section(section, types: dict, where: str) -> dict:
    unknown = set(section) - set(types)
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    return {key: text if types[key] is str else _read_number(text, types[key], f"{where}: {key}")
            for key, text in section.items()}


def parse_corpus_spec(text: str) -> CorpusSpec:
    """The spec in ``text``, whose lines, blank lines and comments follow the ``.tg`` rule."""
    sections, current = {}, None
    for lineno, _, line in _significant_lines(text):
        key, equals, value = (part.strip(" \t") for part in line.partition("="))
        if line.startswith("[") and line.endswith("]"):
            if line[1:-1] in sections:
                raise ValueError(f"bad corpus spec: line {lineno}: repeated section {line}")
            current = sections[line[1:-1]] = {}
        elif not equals:
            raise ValueError(f"bad corpus spec: line {lineno}: expected '[section]' or 'key = value', got {line!r}")
        elif current is None:
            raise ValueError(f"bad corpus spec: line {lineno}: key {key!r} before any section")
        elif key in current:
            raise ValueError(f"bad corpus spec: line {lineno}: repeated key {key!r}")
        else:
            current[key] = value

    seed = _read_section(sections.pop("corpus", {}), {"seed": int}, "section 'corpus'").get("seed", 0)
    categories = []
    for name, section in sections.items():
        values = _read_section(section, _CATEGORY_KEYS, f"category {name!r}")
        if "kind" not in values:
            raise ValueError(f"category {name!r}: missing required key 'kind'")
        categories.append(CategorySpec(name, **values))
    return CorpusSpec(tuple(categories), seed=seed)


def load_corpus_spec(path) -> CorpusSpec:
    return parse_corpus_spec(_read_text(path))


# --- corpus directories ---------------------------------------------------------

MANIFEST_NAME = "manifest.csv"


def write_corpus(corpus, out_dir) -> Path:
    """Write one ``.tg`` per item plus the manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for item in corpus:
        filename = f"{item.id}.tg"
        save_graph(item.graph, out_dir / filename)
        rows.append((item.id, filename, item.category))
    manifest = out_dir / MANIFEST_NAME
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "path", "category"])
        writer.writerows(rows)
    return manifest


def read_manifest(path) -> list[tuple[str, Path, str]]:
    """Rows as (id, absolute path, category)."""
    path = Path(path)
    try:
        rows = list(csv.reader(io.StringIO(_read_text(path), newline=""), strict=True))
    except csv.Error as exc:  # malformed quoting or a field over the size limit
        raise ValueError(f"{path}: manifest: {exc}") from None
    rows = [r for r in rows if r]
    if not rows or rows[0] != ["id", "path", "category"]:
        raise ValueError(f"{path}: manifest must start with header 'id,path,category'")
    out = []
    seen = set()
    for row in rows[1:]:
        if len(row) != 3:
            raise ValueError(f"{path}: manifest row must have 3 fields, got {row!r}")
        item_id, rel_path, category = row
        if item_id in seen:
            raise ValueError(f"{path}: duplicate id {item_id!r}")
        seen.add(item_id)
        out.append((item_id, path.parent / rel_path, category))
    return out


def load_corpus(manifest_path) -> list[CorpusItem]:
    return [CorpusItem(item_id, load_graph(p), category) for item_id, p, category in read_manifest(manifest_path)]


def corpus_to_text(corpus) -> str:
    """Single deterministic text dump of a corpus, for byte-level comparisons."""
    buf = io.StringIO()
    for item in corpus:
        buf.write(f"=== {item.id} {item.category}\n")
        buf.write(serialize_graph(item.graph))
    return buf.getvalue()
