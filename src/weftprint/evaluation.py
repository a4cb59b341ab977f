"""Clustering and ranked-retrieval evaluation over a distance matrix.

Clustering is average-linkage agglomerative (UPGMA): everything starts as
a singleton and the two clusters with the smallest mean pairwise distance
merge until the target count remains.  Cluster quality against a ground
truth partition is scored by pair counting: every unordered item pair is a
true/false positive/negative depending on whether the two partitions agree
on it, giving the Rand index plus precision, recall and F-measure.

Retrieval treats every item as a query over the remaining items ranked by
distance, with items of the query's own category relevant.  Reported:
mean average precision and 11-point interpolated precision/F curves, where
interpolated precision at recall level r is the best precision achieved at
any recall >= r.

Deterministic conventions (the math does not pin them down): UPGMA ties
break on the smallest pair of cluster representatives, a cluster being
represented by its smallest original matrix index; ranking ties break on
ascending id; queries whose category has no other member are skipped with
a warning.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .distance import DistanceMatrix

# arange/10 keeps each level the correctly rounded l/10, so recall values
# that equal a level as rationals compare equal as doubles too.
RECALL_LEVELS = np.arange(11) / 10.0


@dataclass(frozen=True)
class Partition:
    """Assignment of item ids to dense cluster ids ``0..m-1``."""

    assignment: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))
        labels = set(self.assignment.values())
        if labels != set(range(len(labels))):
            raise ValueError("cluster ids must be dense 0..m-1")

    @property
    def n_clusters(self) -> int:
        return len(set(self.assignment.values()))

    def clusters(self) -> list[set[str]]:
        out = [set() for _ in range(self.n_clusters)]
        for item, cid in self.assignment.items():
            out[cid].add(item)
        return out

    @classmethod
    def from_groups(cls, groups) -> "Partition":
        return cls({item: cid for cid, group in enumerate(groups) for item in group})

    @classmethod
    def from_labels(cls, labels: Mapping[str, str]) -> "Partition":
        """Dense partition from category labels, clusters ordered by first appearance."""
        seen: dict[str, int] = {}
        assignment = {}
        for item, label in labels.items():
            assignment[item] = seen.setdefault(label, len(seen))
        return cls(assignment)


def upgma_merges(dm: DistanceMatrix) -> list[tuple[int, int, float]]:
    """Full merge sequence ``(rep_i, rep_j, mean_distance)``, n-1 entries.

    Representatives are original matrix indices; the surviving cluster
    keeps the smaller one.  Mean pairwise distances are maintained
    incrementally as size-weighted averages, equal to the from-scratch
    mean up to rounding: the survivor's row is updated in place, in three
    array passes, and copied to its column.  Ties between equal stored
    means resolve to the smallest (rep_i, rep_j) pair.

    Each row's minimum and the first column holding it are cached, so a
    merge costs O(live clusters) plus a rescan of the rows whose minimum
    sat in column i or j and whose new column-i value exceeds it.  If
    that value is at most the minimum, every other column holds at least
    the minimum, no column before the cached one held it and ``i < j``,
    so column i is now the first column holding the row's minimum, as the
    fold records.  When the live clusters fall to half the array's rows,
    their rows and columns move to a smaller array in ascending original
    index, which keeps the tie rule.
    """
    n = len(dm.ids)
    d = np.array(dm.values, dtype=np.float64)
    np.fill_diagonal(d, np.inf)
    sizes = np.ones(n)
    live = np.arange(n)  # the original index of each row
    # Each row's minimum and the first column holding it; a merged-away
    # row keeps (inf, -1), which no later update touches.
    low = d.min(axis=1, initial=np.inf)
    arg = d.argmin(axis=1) if n else np.empty(0, dtype=np.intp)
    merges = []
    for count in range(n, 1, -1):  # live clusters before this merge
        if 2 * count <= len(d):
            keep = np.flatnonzero(sizes)
            d, sizes, low, live = d[np.ix_(keep, keep)], sizes[keep], low[keep], live[keep]
            arg = np.searchsorted(keep, arg[keep])
        # The first row holding the smallest minimum, at its first column:
        # the row-major first minimum, so the smallest (i, j) among ties.
        i = int(np.argmin(low))
        j = int(arg[i])
        merges.append((int(live[i]), int(live[j]), float(d[i, j])))
        wi, wj = sizes[i], sizes[j]
        # Row i becomes (wi*d[i] + wj*d[j]) / (wi + wj) in place.  Its inf
        # at columns i and j (from d[i, i] and d[j, j]) and at merged-away
        # columns stay inf; row j is never read again.
        col = d[i]
        col *= wi
        col += d[j] * wj
        col /= wi + wj
        d[:, i] = col
        d[:, j] = np.inf
        sizes[i], sizes[j] = wi + wj, 0.0
        low[j], arg[j] = np.inf, -1
        # Row i is stale (arg[i] == j and col[i] is inf); every row not
        # stale only meets the new column i.
        stale = (((arg == i) | (arg == j)) & (col > low)).nonzero()[0]
        fold = (col < low) | ((col == low) & (i < arg))
        np.putmask(low, fold, col)
        np.putmask(arg, fold, i)
        arg[stale] = d[stale].argmin(axis=1)
        low[stale] = d[stale, arg[stale]]
    return merges


def upgma_cluster(dm: DistanceMatrix, m: int) -> Partition:
    """Merge until ``m`` clusters remain; cluster ids ordered by smallest member."""
    n = len(dm.ids)
    if not 1 <= m <= n:
        raise ValueError(f"target cluster count {m} out of range [1, {n}]")
    root = list(range(n))
    for i, j, _ in upgma_merges(dm)[: n - m]:
        root[j] = i
    for x in range(n):  # root[x] <= x, so earlier entries are already final
        root[x] = root[root[x]]
    _, cids = np.unique(root, return_inverse=True)
    return Partition(dict(zip(dm.ids, cids.tolist())))


@dataclass(frozen=True)
class PairConfusion:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class ClusterScores:
    confusion: PairConfusion
    rand_index: float
    precision: float
    recall: float
    f_measure: float


def _pairs(labels: np.ndarray) -> int:
    """Unordered pairs of equal labels: the sum of C(count, 2) over labels."""
    counts = np.bincount(labels)
    return int((counts * (counts - 1) // 2).sum())


def pair_scores(predicted: Partition, truth: Partition) -> ClusterScores:
    """Pair-counting agreement between a clustering and the ground truth.

    The pair counts come from the contingency table of the two partitions
    (Hubert & Arabie, "Comparing partitions", 1985), in integers.
    """
    if set(predicted.assignment) != set(truth.assignment):
        raise ValueError("partitions cover different id sets")
    n = len(predicted.assignment)
    pred = np.fromiter(predicted.assignment.values(), dtype=np.int64, count=n)
    true = np.fromiter((truth.assignment[item] for item in predicted.assignment), dtype=np.int64, count=n)
    tp = _pairs(pred * n + true)
    fp = _pairs(pred) - tp
    fn = _pairs(true) - tp
    tn = n * (n - 1) // 2 - tp - fp - fn
    confusion = PairConfusion(tp, tn, fp, fn)
    total = confusion.total
    ri = (tp + tn) / total if total else 1.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ClusterScores(confusion, ri, precision, recall, f)


def _id_rank(ids: Sequence[str]) -> np.ndarray:
    """Each index's place in ascending id order: the key that breaks ranking ties."""
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def rank_for_query(dm: DistanceMatrix, query: str) -> list[str]:
    """All other ids, nearest first; ties break on ascending id."""
    if len(dm.ids) < 2:
        raise ValueError("ranking needs at least two items")
    q = dm.index_of(query)
    order = np.lexsort((_id_rank(dm.ids), dm.values[q]))
    return [dm.ids[i] for i in order.tolist() if i != q]


def _hit_precision(ranks: np.ndarray, m: int):
    """Precision ``k / rank`` at the k-th relevant item (last axis) and the average precision over ``m``.

    ``np.cumsum`` adds left to right, so every sum is that of a plain loop.
    """
    precision = np.arange(1, ranks.shape[-1] + 1) / ranks
    return precision, np.cumsum(precision, axis=-1)[..., -1] / m


def average_precision(ranked: Sequence[str], relevant) -> float:
    """Mean precision over the prefixes ending at each relevant item."""
    relevant = set(relevant)
    if not relevant:
        raise ValueError("average precision needs a non-empty relevant set")
    missing = relevant - set(ranked)
    if missing:
        raise ValueError(f"relevant items missing from the ranking: {sorted(missing)[:3]}")
    ranks = np.flatnonzero([item in relevant for item in ranked]) + 1
    return float(_hit_precision(ranks, len(relevant))[1])


def map_score(dm: DistanceMatrix, labels: Mapping[str, str]) -> float:
    """Mean average precision over all queries with at least one relevant item."""
    return interpolated_curves(dm, labels).map


@dataclass(frozen=True, eq=False)
class RetrievalCurves:
    """11-point interpolated precision/F averages plus MAP."""

    recall_levels: np.ndarray
    avg_precision: np.ndarray
    avg_f_measure: np.ndarray
    map: float

    def __eq__(self, other):
        if not isinstance(other, RetrievalCurves):
            return NotImplemented
        return self.map == other.map and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("recall_levels", "avg_precision", "avg_f_measure")
        )


def interpolated_curves(dm: DistanceMatrix, labels: Mapping[str, str]) -> RetrievalCurves:
    """Average the per-query interpolated precision and F over 11 recall levels.

    Queries are ranked one category block at a time: one stable
    ``np.argsort`` of the block's distinct rows, their columns taken in
    ascending id order, sorts on (distance, id) and gives each item's
    place, and only the places of the block's members are read.  Members
    whose rows are equal in bytes, as repeated samples make them, rank
    every item alike, so they share their row's places, and each reads
    its own place from its row.  With the query's own place dropped, the
    k-th relevant item has rank ``r = place + (place < own)`` and
    precision ``k / r``, the same division as at that rank of the full
    ranking.  Interpolated precision at a level is the best of
    these precisions from the first relevant item whose recall reaches
    it.  Per-query rows are kept in query order and summed left to right.
    """
    if set(labels) != set(dm.ids):
        raise ValueError("labels cover a different id set than the distance matrix")
    n = len(dm.ids)
    codes: dict[str, int] = {}
    category = np.array([codes.setdefault(labels[item], len(codes)) for item in dm.ids], dtype=np.intp)
    size = np.bincount(category, minlength=len(codes))[category]
    for query in (dm.ids[q] for q in np.flatnonzero(size == 1).tolist()):
        warnings.warn(f"category {labels[query]!r} has a single member; query {query!r} skipped")
    queries = np.flatnonzero(size > 1)
    if not len(queries):
        raise ValueError("no query has a relevant item")
    by_id = np.argsort(_id_rank(dm.ids))  # the indices in ascending id order
    interp_p = np.empty((n, len(RECALL_LEVELS)))
    ap = np.empty(n)
    for c in np.unique(category[queries]).tolist():
        members = np.flatnonzero(category == c)
        s, m = len(members), len(members) - 1
        rows = dm.values[members]
        row_codes = {}  # each distinct row's bytes: its index in distinct
        row_of = np.array([row_codes.setdefault(row.tobytes(), len(row_codes)) for row in rows])
        distinct = rows[np.unique(row_of, return_index=True)[1]]
        order = by_id[np.argsort(distinct[:, by_id], axis=1, kind="stable")]
        place = np.empty_like(order)
        place[np.arange(len(distinct))[:, None], order] = np.arange(n)
        place = place[:, members]
        own = place[row_of, np.arange(s)][:, None]
        places = np.sort(place, axis=1)[row_of]
        places = places[places != own].reshape(s, m)
        precision, ap[members] = _hit_precision(places + (places < own), m)
        # Best precision at any recall >= level: running max from the right.
        best_from_right = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
        interp_p[members] = best_from_right[:, np.searchsorted(np.arange(1, s) / m, RECALL_LEVELS)]
    interp_p, ap = interp_p[queries], ap[queries]
    # interp_p > 0 at every level: at level 0 it is the best precision, which m >= 1 makes positive
    interp_f = 2 * interp_p * RECALL_LEVELS / (interp_p + RECALL_LEVELS)
    return RetrievalCurves(
        recall_levels=RECALL_LEVELS.copy(),
        avg_precision=np.cumsum(interp_p, axis=0)[-1] / len(queries),
        avg_f_measure=np.cumsum(interp_f, axis=0)[-1] / len(queries),
        map=float(np.cumsum(ap)[-1] / len(queries)),
    )


# --- report files ------------------------------------------------------------


def curves_to_csv(curves: RetrievalCurves) -> str:
    lines = ["recall_level,avg_precision,avg_fmeasure"]
    for r, p, f in zip(curves.recall_levels, curves.avg_precision, curves.avg_f_measure):
        lines.append(f"{r:.1f},{p:.6f},{f:.6f}")
    return "\n".join(lines) + "\n"


def cluster_report_json(scores: ClusterScores, partition: Partition) -> str:
    report = {
        "RI": round(scores.rand_index, 6),
        "P": round(scores.precision, 6),
        "R": round(scores.recall, 6),
        "F": round(scores.f_measure, 6),
        "clusters": dict(partition.assignment),
    }
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def retrieval_report_json(curves: RetrievalCurves) -> str:
    return json.dumps({"MAP": round(curves.map, 6)}, sort_keys=True, indent=2) + "\n"
