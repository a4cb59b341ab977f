"""Distance measures between sparse fingerprint frequency vectors.

A fingerprint doubles as a frequency vector over the (implicit) space of
all neighborhoods; only nonzero counts are stored.  Five measures:

* ``jaccard`` -- 1 - sum(min)/sum(max), the multiset Jaccard distance
* ``hbool``   -- symmetric difference of the nonzero supports (presence only)
* ``hfreq``   -- L1 distance of the count vectors, unnormalized
* ``cosine``  -- 1 - cosine similarity of the raw count vectors
* ``tfidf``   -- cosine distance after log TF-IDF weighting against
  collection statistics

The per-pair functions iterate the smaller support, so pair cost tracks
sparsity.  ``distance_matrix`` computes all pairs at once with one columnar
kernel: an inverted index from each neighborhood to the rows holding it, so
a row meets only the rows it shares a neighborhood with (the all-pairs
scheme of Bayardo, Ma & Srikant, WWW 2007).  Its floats equal the per-pair
functions bit for bit.

TF and IDF use base-10 logarithms: TF = 1 + log10(count), IDF =
log10(N / df).  Degenerate conventions, chosen here and documented rather
than inherited: a cosine distance against an all-zero vector is 1, between
two all-zero vectors 0.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .graph import _read_text

METRICS = ("jaccard", "hbool", "hfreq", "cosine", "tfidf")
INTEGER_METRICS = ("hbool", "hfreq")
_EMPTY_JACCARD = "jaccard distance is undefined on empty fingerprints"


def _shared(r: Mapping, s: Mapping):
    """``(r[p], s[p])`` for each key both hold, walking the smaller support (``r`` on a tie)."""
    if len(r) <= len(s):
        return ((c, s[p]) for p, c in r.items() if p in s)
    return ((r[p], c) for p, c in s.items() if p in r)


def jaccard_distance(r: Mapping, s: Mapping) -> float:
    """Multiset Jaccard distance."""
    inter_min = sum(min(a, b) for a, b in _shared(r, s))
    union = sum(r.values()) + sum(s.values()) - inter_min
    if union == 0:  # no key, or every count is zero
        raise ValueError(_EMPTY_JACCARD)
    return 1.0 - inter_min / union


def hamming_bool_distance(r: Mapping, s: Mapping) -> int:
    """Number of neighborhoods present in exactly one of the two; a zero count is absent."""
    present = sum(1 for c in r.values() if c) + sum(1 for c in s.values() if c)
    return present - 2 * sum(1 for a, b in _shared(r, s) if a and b)


def hamming_freq_distance(r: Mapping, s: Mapping) -> int:
    """Unnormalized L1 distance over the union support: sum(r) + sum(s) - 2 sum(min)."""
    return sum(r.values()) + sum(s.values()) - 2 * sum(min(a, b) for a, b in _shared(r, s))


def _left_sum(values):
    """Sum in iteration order, one addition at a time.

    Float ``sum()`` is compensated from Python 3.12 on, while the matrix
    kernel adds left to right; both paths sum through here so that their
    bits agree on every Python version.
    """
    total = 0
    for v in values:
        total += v
    return total


def _norm(values) -> float:
    return math.sqrt(_left_sum(v * v for v in values))


def cosine_distance(r: Mapping, s: Mapping) -> float:
    """Cosine distance of the raw frequency vectors."""
    norm_r = _norm(r.values())
    norm_s = _norm(s.values())
    if norm_r == 0.0 and norm_s == 0.0:
        return 0.0
    if norm_r == 0.0 or norm_s == 0.0:
        return 1.0
    dot = _left_sum(a * b for a, b in _shared(r, s))
    # rounding can push the similarity a ulp past 1; keep the distance in [0, 1]
    return max(0.0, 1.0 - dot / (norm_r * norm_s))


@dataclass(frozen=True)
class CorpusStats:
    """Collection-level statistics backing TF-IDF weighting."""

    n_items: int
    df: Counter = field(default_factory=Counter)

    def __post_init__(self):
        if self.n_items < 1:
            raise ValueError("corpus statistics need at least one fingerprint")


def corpus_stats(fingerprints: Sequence[Mapping]) -> CorpusStats:
    """Count, per neighborhood, how many fingerprints contain it."""
    df: Counter = Counter()
    for fp in fingerprints:
        df.update(p for p, c in fp.items() if c)
    return CorpusStats(len(fingerprints), df)


def tfidf_weights(fp: Mapping, stats: CorpusStats) -> dict:
    """Log TF-IDF weight per neighborhood of ``fp``."""
    weights = {}
    n = stats.n_items
    df = stats.df
    for p, c in fp.items():
        if c <= 0:
            continue
        if p not in df:
            raise ValueError("stale corpus statistics: fingerprint contains an unknown neighborhood")
        weights[p] = (1.0 + math.log10(c)) * math.log10(n / df[p])
    return weights


def cosine_tfidf_distance(r: Mapping, s: Mapping, stats: CorpusStats) -> float:
    """Cosine distance of the TF-IDF weighted vectors."""
    return cosine_distance(tfidf_weights(r, stats), tfidf_weights(s, stats))


def pair_distance(r: Mapping, s: Mapping, metric: str, stats: CorpusStats | None = None) -> float:
    if metric == "jaccard":
        return jaccard_distance(r, s)
    if metric == "hbool":
        return float(hamming_bool_distance(r, s))
    if metric == "hfreq":
        return float(hamming_freq_distance(r, s))
    if metric == "cosine":
        return cosine_distance(r, s)
    if metric == "tfidf":
        if stats is None:
            raise ValueError("tfidf distance needs corpus statistics")
        return cosine_tfidf_distance(r, s, stats)
    raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")


def _refuse(ids, values: np.ndarray, bad: np.ndarray, rule: str) -> None:
    """Raise ``ValueError`` on the first cell ``bad`` marks, in row-major order, by row, id and column."""
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"distance matrix row {i + 1} ({ids[i]!r}): distances must be {rule}, "
                         f"got {values[i, j]} in column {ids[j]!r}")


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Exactly symmetric distances with their row/column ids; cells are finite, >= 0 and whole under hbool/hfreq."""

    ids: tuple[str, ...]
    values: np.ndarray
    metric: str = ""

    def __eq__(self, other):
        if not isinstance(other, DistanceMatrix):
            return NotImplemented
        return (
            self.ids == other.ids
            and self.metric == other.metric
            and np.array_equal(self.values, other.values)
        )

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.shape != (len(self.ids), len(self.ids)):
            raise ValueError(f"distance matrix shape {values.shape} does not match {len(self.ids)} ids")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("distance matrix ids must be unique")
        _refuse(self.ids, values, ~(np.isfinite(values) & (values >= 0)), "finite and >= 0")
        _refuse(self.ids, values, values != values.T, "symmetric")
        if self.metric in INTEGER_METRICS:
            fractional = np.empty(values.shape, dtype=bool)
            for row, out in zip(values, fractional):  # row by row: no n*n float temporary
                np.not_equal(np.rint(row), row, out=out)
            _refuse(self.ids, values, fractional, f"whole numbers under {self.metric}")
        values.flags.writeable = False
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "values", values)

    def index_of(self, item_id: str) -> int:
        try:
            return self.ids.index(item_id)
        except ValueError:
            raise KeyError(f"unknown id {item_id!r}") from None


def distance_matrix(
    fingerprints: Sequence[Mapping],
    metric: str,
    ids: Sequence[str] | None = None,
    stats: CorpusStats | None = None,
    threads: int = 1,
) -> DistanceMatrix:
    """All pairwise distances under one metric.

    Every cell equals ``pair_distance(fingerprints[i], fingerprints[j])``
    bit for bit, for i < j.  jaccard, hfreq and cosine need non-negative
    integer counts.  tfidf weighs against ``stats``, by default
    ``corpus_stats(fingerprints)``.  ``threads`` (>= 0) is accepted for
    compatibility: the kernel is single-threaded, so it changes neither the
    result nor the speed.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if len(fingerprints) < 2:
        raise ValueError("distance matrix needs at least two fingerprints")
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    if ids is None:
        ids = tuple(str(i) for i in range(len(fingerprints)))
    if len(ids) != len(fingerprints):
        raise ValueError("ids and fingerprints must have equal length")

    if metric == "tfidf":
        stats = corpus_stats(fingerprints) if stats is None else stats
        vectors = [tfidf_weights(fp, stats) for fp in fingerprints]
    else:
        vectors = list(fingerprints)
    return DistanceMatrix(tuple(ids), _pairwise(vectors, metric), metric)


def _pairwise(vectors: list[Mapping], metric: str) -> np.ndarray:
    """The columnar kernel behind ``distance_matrix``.

    Rows are ranked by (support size, index): that puts first the side
    ``pair_distance(r, s)`` iterates, the smaller support and ``r`` on a
    tie.  Row ``a`` is paired with every later-ranked row through the
    posting lists of its own keys, in its own key order, so ``np.bincount``
    adds each pair's products in the same order as the per-pair loop.
    Memory grows with the total support size, never with n times the
    vocabulary.
    """
    n = len(vectors)
    support = np.array([len(v) for v in vectors], dtype=np.int64)
    order = np.argsort(support, kind="stable")
    sizes = support[order]

    # CSR rows in rank order, each in its own key order; ids interned once
    vocab: dict = {}
    keys: list[int] = []
    counts: list = []
    for a in order:
        v = vectors[a]
        keys.extend(vocab.setdefault(p, len(vocab)) for p in v)
        counts.extend(v.values())
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    cols = np.array(keys, dtype=np.int64)
    data = np.array(counts)
    entry_row = np.repeat(np.arange(n), sizes)
    if metric in ("jaccard", "hfreq", "cosine") and data.size:
        if data.dtype.kind not in "iu" or data.min() < 0:
            raise ValueError(f"{metric} distance needs non-negative integer counts")
    data = data.astype(np.float64)
    if metric != "hbool":  # hbool reads presence only: its counts may square past the float range
        squares = np.bincount(entry_row, weights=data * data, minlength=n)
        # every aggregate is bounded by a row's sum of squares: keep it float-exact
        if metric != "tfidf" and squares.max() >= 2.0**52:
            raise ValueError(f"counts too large for exact {metric} distances")
        norms = np.sqrt(squares)  # bincount adds each row left to right, as _norm does
    else:  # a zero count is absent, as in the other measures
        present = np.bincount(entry_row, weights=data != 0, minlength=n)

    # CSC copy: per key, the rows holding it in rank order, and each entry's slot there
    by_col = np.argsort(cols, kind="stable")
    col_rows = entry_row[by_col]
    col_data = data[by_col]
    col_end = np.cumsum(np.bincount(cols, minlength=len(vocab)))
    slot = np.empty_like(by_col)
    slot[by_col] = np.arange(by_col.size)

    totals = np.bincount(entry_row, weights=data, minlength=n)

    values = np.zeros((n, n), dtype=np.float64)
    for r in range(n - 1):
        lo, hi = indptr[r], indptr[r + 1]
        starts = slot[lo:hi] + 1  # later-ranked rows follow row r in each posting list
        lengths = col_end[cols[lo:hi]] - starts
        take = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
        partner = col_rows[take] - (r + 1)
        m = n - r - 1
        mine, theirs = np.repeat(data[lo:hi], lengths), col_data[take]
        if metric == "hbool":
            shared = np.bincount(partner, weights=(mine != 0) & (theirs != 0), minlength=m)
            d = present[r] + present[r + 1:] - 2.0 * shared
        elif metric in ("cosine", "tfidf"):
            d = _cosine_row(np.bincount(partner, weights=mine * theirs, minlength=m), norms[r], norms[r + 1:])
        else:
            summin = np.bincount(partner, weights=np.minimum(mine, theirs), minlength=m)
            union = totals[r] + totals[r + 1:] - summin  # sum of max
            if metric == "hfreq":
                d = union - summin
            elif union.all():
                d = 1.0 - summin / union
            else:
                raise ValueError(_EMPTY_JACCARD)
        values[order[r], order[r + 1:]] = d
        values[order[r + 1:], order[r]] = d
    return values


def _cosine_row(dot: np.ndarray, norm_r: float, norm_s: np.ndarray) -> np.ndarray:
    """``cosine_distance`` for one row against many, same conventions."""
    if norm_r == 0.0:
        return np.where(norm_s == 0.0, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 1.0 - dot / (norm_r * norm_s)
    return np.where(norm_s == 0.0, 1.0, np.where(d > 0.0, d, 0.0))


# --- distance matrix CSV ----------------------------------------------------
#
# First row 'id,<id_1>,...,<id_n>', then one row per item.  A matrix whose
# cells are all whole is written unpadded; any other with 12 significant digits.


def distance_matrix_to_csv(dm: DistanceMatrix) -> str:
    """Distance CSV text, which ``csv_to_distance_matrix`` reads back.

    ``csv.writer`` spells each id, so Python's own rule decides its quoting;
    its CR LF row end makes it quote a CR in an id as it quotes an LF.
    Each row is one ``%`` format of one matrix row: ``%d`` when every cell
    is whole, whatever the metric, which is exact at any size, else
    ``%.12g``, which is ``format(x, ".12g")``.  Rows are converted one at
    a time, so no n*n list of Python objects is held.
    """
    quoted = []
    for row_id in dm.ids:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow([row_id, ""])  # two fields: csv quotes a lone empty one
        quoted.append(buf.getvalue()[:-3])
    whole = all(np.array_equal(np.rint(row), row) for row in dm.values)  # stops at the first fractional row
    fmt = (",%d" if whole else ",%.12g") * len(quoted)
    lines = [",".join(["id", *quoted]) + "\n"]
    lines += [row_id + fmt % tuple(row.tolist()) + "\n" for row_id, row in zip(quoted, dm.values)]
    return "".join(lines)


# A cell is an ASCII decimal number, or a nan/inf spelling that a range
# check then rejects.  float() alone would also take '1_0' and '٣'.
_CELL = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?i:nan|inf|infinity))")
_NOT_NUMERIC = str.maketrans("", "", "0123456789.eE+-,")


def _csv_canonical(text: str):
    """``(ids, values)`` of plainly spelled distance CSV text, else ``None``.

    Plain means no quote, CR or NUL, no line at the csv field limit, row
    ids equal to the header's, and non-empty rows of cells made of digits,
    signs, points and exponents.  ``None`` only means "not plain": the
    caller then runs the csv reader, which accepts or rejects the text.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.removesuffix("\n").split("\n")
    header = lines[0].split(",")
    n = len(header) - 1
    if header[0] != "id" or n < 1 or len(lines) != n + 1:
        return None
    if len(max(lines, key=len)) >= csv.field_size_limit():
        return None
    rows = [line.partition(",") for line in lines[1:]]
    bodies = [body for _, _, body in rows]
    if [row_id for row_id, _, _ in rows] != header[1:] or "" in bodies:
        return None
    if ",".join(bodies).translate(_NOT_NUMERIC):
        return None
    try:
        values = np.loadtxt(bodies, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return (tuple(header[1:]), values) if values.shape == (n, n) else None


def _csv_rows(text: str):
    """``(ids, values)`` of any distance CSV text: the reference reader.

    It is the one that reports errors, with the row, id and column.
    """
    try:
        rows = [r for r in csv.reader(io.StringIO(text, newline=""), strict=True) if r]
    except csv.Error as exc:  # malformed quoting or a field over the size limit
        raise ValueError(f"distance CSV: {exc}") from None
    if not rows or rows[0][:1] != ["id"]:
        raise ValueError("distance CSV must start with an 'id,...' header row")
    ids = tuple(rows[0][1:])
    n = len(ids)
    if len(rows) != n + 1:
        raise ValueError(f"distance CSV has {len(rows) - 1} data rows for {n} ids")
    values = np.zeros((n, n), dtype=np.float64)
    for i, row in enumerate(rows[1:]):
        if len(row) != n + 1 or row[0] != ids[i]:
            raise ValueError(f"distance CSV row {i + 1} does not match header ids")
        for j, cell in enumerate(row[1:]):
            if not _CELL.fullmatch(cell):
                raise ValueError(f"distance CSV row {i + 1} ({ids[i]!r}): {cell!r} is not a decimal number "
                                 f"in column {ids[j]!r}")
        values[i] = [float(x) for x in row[1:]]
    return ids, values


def csv_to_distance_matrix(text: str) -> DistanceMatrix:
    """Parse distance CSV text; plain text takes one ``np.loadtxt`` call."""
    return DistanceMatrix(*(_csv_canonical(text) or _csv_rows(text)))


def save_distance_matrix(dm: DistanceMatrix, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(distance_matrix_to_csv(dm))


def load_distance_matrix(path) -> DistanceMatrix:
    return csv_to_distance_matrix(_read_text(path))  # a CR in a quoted id stays a CR
