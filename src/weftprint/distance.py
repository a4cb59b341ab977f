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
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import textio

METRICS = ("jaccard", "hbool", "hfreq", "cosine", "tfidf")
INTEGER_METRICS = ("hbool", "hfreq")
_EMPTY_JACCARD = "jaccard distance is undefined on empty fingerprints"
_STALE = "stale corpus statistics: fingerprint contains an unknown neighborhood"


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
            raise ValueError(_STALE)
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
        not_str = [i for i in self.ids if not isinstance(i, str)]
        if not_str:  # the CSV spells every id as text, so only a str id reads back as itself
            raise ValueError(f"distance matrix ids must be str, got {not_str[0]!r}")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("distance matrix ids must be unique")
        _refuse(self.ids, values, ~(np.isfinite(values) & (values >= 0)), "finite and >= 0")
        _refuse(self.ids, values, values != values.T, "symmetric")
        values.flags.writeable = False
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "values", values)
        if self.metric in INTEGER_METRICS and not self.whole:
            _refuse(self.ids, values, np.rint(values) != values, f"whole numbers under {self.metric}")

    @cached_property
    def whole(self) -> bool:
        """Whether every cell is a whole number, tested row by row up to the first fractional row."""
        return all(np.array_equal(np.rint(row), row) for row in self.values)

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

    if metric == "tfidf" and stats is None:
        stats = corpus_stats(fingerprints)
    return DistanceMatrix(tuple(ids), _pairwise(fingerprints, metric, stats), metric)


def _pairwise(vectors: Sequence[Mapping], metric: str, stats: CorpusStats | None) -> np.ndarray:
    """The columnar kernel behind ``distance_matrix``.

    Rows stay in input order; only the posting lists and the loop see their
    rank, by (support size, index): that puts first the side
    ``pair_distance(r, s)`` iterates, the smaller support and ``r`` on a
    tie.  Row ``a`` is paired with every later-ranked row through the
    posting lists of its own keys, in its own key order, so ``np.bincount``
    adds each pair's products in the same order as the per-pair loop.
    hbool is hfreq over presence: its counts become 0/1 before any float
    conversion, and one Σmin row serves jaccard, hfreq and hbool.  Memory
    grows with the total support size, never with n times the vocabulary.
    """
    n = len(vectors)
    entry_row, cols, data, n_keys = _entries(vectors, metric, stats)
    support = np.bincount(entry_row, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(support)))
    order = np.argsort(support, kind="stable")
    rank = np.argsort(order)  # each row's place in order
    squares = np.bincount(entry_row, weights=data * data, minlength=n)
    # every aggregate is bounded by a row's sum of squares (its support size under hbool): keep it float-exact
    if metric != "tfidf" and squares.max() >= 2.0**52:
        raise ValueError(f"counts too large for exact {metric} distances")
    norms = np.sqrt(squares[order])  # bincount adds each row left to right, as _norm does
    totals = np.bincount(entry_row, weights=data, minlength=n)[order]

    # posting lists: per key, the ranks of the rows holding it in ascending order, and each entry's slot there
    entry_rank = rank[entry_row]
    by_key = np.argsort(cols * n + entry_rank)  # (key id, rank) is unique, so any sort gives this order
    col_ranks = entry_rank[by_key]
    col_data = data[by_key]
    col_end = np.cumsum(np.bincount(cols, minlength=n_keys))
    slot = np.empty_like(by_key)
    slot[by_key] = np.arange(by_key.size)

    values = np.zeros((n, n), dtype=np.float64)
    for r, a in enumerate(order[:-1].tolist()):
        lo, hi = indptr[a], indptr[a + 1]
        starts = slot[lo:hi] + 1  # later-ranked rows follow row a in each posting list
        lengths = col_end[cols[lo:hi]] - starts
        take = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
        partner = col_ranks[take] - (r + 1)
        m = n - r - 1
        mine, theirs = np.repeat(data[lo:hi], lengths), col_data[take]
        if metric in ("cosine", "tfidf"):
            d = _cosine_row(np.bincount(partner, weights=mine * theirs, minlength=m), norms[r], norms[r + 1:])
        else:
            summin = np.bincount(partner, weights=np.minimum(mine, theirs), minlength=m)
            union = totals[r] + totals[r + 1:] - summin  # sum of max
            if metric == "jaccard" and not union.all():
                raise ValueError(_EMPTY_JACCARD)
            d = union - summin if metric in INTEGER_METRICS else 1.0 - summin / union
        values[a, order[r + 1:]] = d
        values[order[r + 1:], a] = d
    return values


def _entries(vectors: Sequence[Mapping], metric: str, stats: CorpusStats | None):
    """``(entry_row, cols, data, key count)``: the kernel's float entries, row by row in input order.

    Each row keeps its own key order, and key ids are interned once.  Under
    tfidf the entries are weighed as ``tfidf_weights`` weighs them, so a
    dropped count leaves the support.  The key and count lists built here
    are freed on return, before the kernel makes its n x n result.
    """
    vocab: dict = {}
    keys: list[int] = []
    counts: list = []
    for v in vectors:
        keys.extend(vocab.setdefault(p, len(vocab)) for p in v)
        counts.extend(v.values())
    cols = np.array(keys, dtype=np.int64)
    data = np.array(counts)
    entry_row = np.repeat(np.arange(len(vectors)), [len(v) for v in vectors])
    if metric == "tfidf":
        cols, data, entry_row = _tfidf_entries(list(vocab), cols, data, entry_row, stats)
    elif metric == "hbool":  # hfreq over presence: each count's truth value, as hamming_bool_distance reads it
        data = data.astype(bool)
    elif data.size and (data.dtype.kind not in "iu" or data.min() < 0):
        # numpy stores whole counts past the int64 range as float or object
        large = data.dtype.kind in "fO" and all(isinstance(c, int) for c in counts) and min(counts) >= 0
        raise ValueError(f"counts too large for exact {metric} distances" if large
                         else f"{metric} distance needs non-negative integer counts")
    return entry_row, cols, data.astype(np.float64), len(vocab)


def _tfidf_entries(terms: list, cols: np.ndarray, data: np.ndarray, entry_row: np.ndarray,
                   stats: CorpusStats):
    """``(cols, weights, entry_row)`` of the entries ``tfidf_weights`` keeps; ``terms[i]`` is key id i.

    A count ``<= 0`` is dropped and a NaN count kept.  TF is computed once
    per distinct count and IDF once per kept key, with the per-pair
    function's operations, so the weights are equal bit for bit.
    """
    distinct, which = np.unique(data, return_inverse=True)
    distinct = distinct.tolist()  # the Python numbers, which tfidf_weights compares and logs
    kept = np.array([not c <= 0 for c in distinct], dtype=bool)
    tf = np.array([1.0 + math.log10(c) if k else 0.0 for c, k in zip(distinct, kept)])
    keep = kept[which]
    cols, which, entry_row = cols[keep], which[keep], entry_row[keep]
    used = np.zeros(len(terms), dtype=bool)
    used[cols] = True
    idf = np.zeros(len(terms))
    for i in np.flatnonzero(used).tolist():
        if terms[i] not in stats.df:  # a kept key only, as tfidf_weights checks
            raise ValueError(_STALE)
        idf[i] = math.log10(stats.n_items / stats.df[terms[i]])
    return cols, tf[which] * idf[cols], entry_row


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

    ``textio.csv_field`` spells each id, as it spells every manifest field.
    Each row is one ``%`` format of one matrix row: ``%d`` when
    ``dm.whole``, whatever the metric, which is exact at any size, else
    ``%.12g``, which is ``format(x, ".12g")``.  Rows are converted one at
    a time, so no n*n list of Python objects is held.  A row whose bytes
    equal an earlier row's reuses its text: equal floats would not do, as
    ``%.12g`` writes ``-0.0`` as ``-0`` and ``0.0`` as ``0``.
    """
    quoted = [textio.csv_field(row_id) for row_id in dm.ids]
    fmt = (",%d" if dm.whole else ",%.12g") * len(quoted)
    parts = [",".join(["id", *quoted]) + "\n"]
    first: dict[int, int] = {}  # hash of a row's bytes: the first row with that hash
    bodies = []
    for i, row in enumerate(dm.values):
        data = row.tobytes()
        j = first.setdefault(hash(data), i)
        bodies.append(bodies[j] if j < i and data == dm.values[j].tobytes() else fmt % tuple(row.tolist()) + "\n")
        parts += (quoted[i], bodies[i])
    return "".join(parts)


def _csv_canonical(text: str):
    """``(ids, values)`` of plainly spelled distance CSV text, else ``None``.

    Plain means no quote, CR or NUL, no line at the csv field limit, row
    ids equal to the header's, and non-empty rows of cells made of digits,
    signs, points and exponents.  ``None`` only means "not plain": the
    caller then runs the csv reader, which accepts or rejects the text.
    Each distinct row body is checked and parsed once, and shared by its rows.
    Cells of digits alone are read as int64, which is faster, then
    converted: both roundings are to nearest, so the floats are equal; a
    cell past int64 takes the float read, as does any sign, so ``-0``
    keeps its sign.
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
    distinct: dict[str, int] = {}  # each row body, in first-seen order: its row in the parsed array
    which = []
    for want_id, line in zip(header[1:], lines[1:]):
        row_id, _, body = line.partition(",")
        if row_id != want_id:
            return None
        which.append(distinct.setdefault(body, len(distinct)))
    if "" in distinct:
        return None
    cells = ",".join(distinct)
    if not cells.isascii():
        return None
    cells = cells.encode("ascii")
    if cells.translate(None, b"0123456789,.eE+-"):
        return None
    whole = not cells.translate(None, b"0123456789,")
    for dtype in (np.int64, np.float64) if whole else (np.float64,):
        try:
            values = np.loadtxt(list(distinct), dtype=dtype, delimiter=",", comments=None, ndmin=2)
        except (ValueError, OverflowError):  # an empty cell, say, or past int64: numpy 1.24 may raise either
            continue
        if values.shape != (len(distinct), n):
            return None
        return tuple(header[1:]), values.astype(np.float64, copy=False)[which]
    return None


def _csv_rows(text: str):
    """``(ids, values)`` of any distance CSV text: the reference reader.

    It is the one that reports errors, with the row, id and column.
    """
    rows = textio.csv_rows(text, "distance CSV")
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
            if not textio.CELL.fullmatch(cell):
                raise ValueError(f"distance CSV row {i + 1} ({ids[i]!r}): {textio.shown(cell)} is not a decimal number "
                                 f"in column {ids[j]!r}")
        values[i] = [float(x) for x in row[1:]]
    return ids, values


def csv_to_distance_matrix(text: str) -> DistanceMatrix:
    """Parse distance CSV text; plain text takes one ``np.loadtxt`` call."""
    return DistanceMatrix(*(_csv_canonical(text) or _csv_rows(text)))


def save_distance_matrix(dm: DistanceMatrix, path) -> None:
    textio.write_text(path, distance_matrix_to_csv(dm))


def load_distance_matrix(path) -> DistanceMatrix:
    return textio.load(path, csv_to_distance_matrix)  # a CR in a quoted id stays a CR
