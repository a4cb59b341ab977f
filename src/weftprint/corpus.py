"""Labeled corpora of generated weave graphs.

A corpus spec lists categories; each category produces ``count`` samples
of one weave kind on one grid size: first the clean bases, then a block of
cell-flip perturbed samples, then a block of rotated/mirrored samples
(cycling rotate90 / rotate180 / mirror).  Sample seeds derive from the
category seed and the sample index, so a spec regenerates byte-for-byte.
Each sample builds only what it reads: the seed of its draw only for a
kind in ``SEEDED_KINDS``, the seed of its cell flips only when it is
perturbed, and a kind that draws nothing builds one read-only matrix per
category for every sample to start from.

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

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import textio
from .graph import TextileGraph, load_graph, serialize_graph
from .weaves import (
    SEEDED_KINDS,
    TRANSFORM_OPS,
    _motif_pool,
    _place_motifs,
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
            raise ValueError(f"category {self.name!r}: weave kind {textio.shown(self.kind)}: {exc}") from None
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
    regular = None
    if name == "mixed":  # one motif pool per category, drawn once; each sample only re-arranges it
        motifs = _motif_pool(*args, np.random.SeedSequence([seed, _POOL_STREAM]))
    elif name not in SEEDED_KINDS:  # the same matrix for every sample: built once, shared read-only
        regular = weave_matrix(cat.kind, cat.width, cat.height)
        regular.flags.writeable = False
    n_perturbed = cat.n_perturbed  # each read of the property builds a Fraction
    n_clean = cat.count - n_perturbed - cat.n_transformed
    for index in range(cat.count):
        if regular is not None:
            cells = regular
        elif name == "mixed":
            cells = _place_motifs(motifs, cat.width, cat.height, _sample_seed(seed, index, 0))
        else:
            cells = weave_matrix(cat.kind, cat.width, cat.height, seed=_sample_seed(seed, index, 0))
        if n_clean <= index < n_clean + n_perturbed:
            cells = perturb(cells, cat.perturb_rate, _sample_seed(seed, index, 1))
        elif index >= n_clean + n_perturbed:
            cells = transform(cells, TRANSFORM_OPS[(index - n_clean - n_perturbed) % len(TRANSFORM_OPS)])
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
    return {key: text if types[key] is str else textio.read_number(text, types[key], f"{where}: {key}")
            for key, text in section.items()}


def parse_corpus_spec(text: str) -> CorpusSpec:
    """The spec in ``text``, whose lines, blank lines and comments follow the :mod:`textio` rule."""
    sections, current = {}, None
    for lineno, _, line in textio.significant_lines(text):
        key, equals, value = (part.strip(" \t") for part in line.partition("="))
        if line.startswith("[") and line.endswith("]"):
            if line[1:-1] in sections:
                raise ValueError(f"bad corpus spec: line {lineno}: repeated section {line}")
            current = sections[line[1:-1]] = {}
        elif not equals:
            raise ValueError(f"bad corpus spec: line {lineno}: expected '[section]' or 'key = value', "
                             f"got {textio.shown(line)}")
        elif current is None:
            raise ValueError(f"bad corpus spec: line {lineno}: key {textio.shown(key)} before any section")
        elif key in current:
            raise ValueError(f"bad corpus spec: line {lineno}: repeated key {textio.shown(key)}")
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
    return textio.load(path, parse_corpus_spec)


# --- corpus directories ---------------------------------------------------------

MANIFEST_NAME = "manifest.csv"


def write_corpus(corpus, out_dir) -> Path:
    """Write one ``<id>.tg`` per item plus the manifest, and return its path.

    Each distinct graph is serialized once (graphs hash by content).  No file
    is written until every text is built, the manifest text passes
    ``_parse_manifest`` and encodes as UTF-8, nor for an id holding a path
    separator or NUL.  If the file system then refuses a write, the files
    this call created and the directories it made are removed before the
    error is raised again.
    """
    out_dir = Path(out_dir)
    texts, item_texts = {}, []  # graph: its .tg text; each item's text
    lines = ["id,path,category\n"]
    for item in corpus:
        if any(c in item.id for c in "/\\\0"):
            raise ValueError(f"corpus id {item.id!r} must not hold a path separator or NUL")
        if item.graph not in texts:
            texts[item.graph] = serialize_graph(item.graph)
        item_texts.append(texts[item.graph])
        lines.append(",".join(map(textio.csv_field, (item.id, f"{item.id}.tg", item.category))) + "\n")
    manifest_text = "".join(lines)
    rows = _parse_manifest(manifest_text)
    manifest = out_dir / MANIFEST_NAME
    textio.encoded(manifest, manifest_text)  # it holds every id and category: refuses each UTF-8 cannot encode
    made = list(takewhile(lambda d: not d.exists(), (out_dir, *out_dir.parents)))  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [(out_dir / rel, text) for (_, rel, _), text in zip(rows, item_texts)] + [(manifest, manifest_text)]
    created = []
    try:
        for path, text in files:
            if not path.exists():
                created.append(path)
            textio.write_text(path, text)
    except OSError:
        # Each undo is tried: the refused path may name no file at all, as when it is too long.
        for undo in [*(path.unlink for path in created), *(directory.rmdir for directory in made)]:
            with suppress(OSError):
                undo()
        raise
    return manifest


def _parse_manifest(text: str) -> list[list[str]]:
    """The (id, relative path, category) rows of manifest text."""
    rows = textio.csv_rows(text, "manifest")
    if not rows or rows[0] != ["id", "path", "category"]:
        raise ValueError("manifest must start with header 'id,path,category'")
    seen = set()
    for row in rows[1:]:
        if len(row) != 3:
            raise ValueError(f"manifest row must have 3 fields, got {row!r}")
        if row[0] in seen:
            raise ValueError(f"duplicate id {row[0]!r}")
        seen.add(row[0])
    return rows[1:]


def read_manifest(path) -> list[tuple[str, Path, str]]:
    """Rows as (id, absolute path, category)."""
    parent = Path(path).parent
    return [(item_id, parent / rel, category) for item_id, rel, category in textio.load(path, _parse_manifest)]


def load_corpus(manifest_path) -> list[CorpusItem]:
    return [CorpusItem(item_id, load_graph(p), category) for item_id, p, category in read_manifest(manifest_path)]
