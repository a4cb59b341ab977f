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
    mean up to rounding.  Ties between equal stored means resolve to the
    smallest (rep_i, rep_j) pair.  Each row's minimum is cached, so a
    merge costs O(n) plus a rescan of the rows whose minimum it moved.
    """
    n = len(dm.ids)
    d = np.array(dm.values, dtype=np.float64)
    np.fill_diagonal(d, np.inf)
    sizes = np.ones(n)
    # Each row's minimum and the first column holding it; a merged-away
    # row keeps (inf, -1), which no later update touches.
    low = d.min(axis=1, initial=np.inf)
    arg = d.argmin(axis=1) if n else np.empty(0, dtype=np.intp)
    merges = []
    for _ in range(n - 1):
        # The first row holding the smallest minimum, at its first column:
        # the row-major first minimum, so the smallest (i, j) among ties.
        i = int(np.argmin(low))
        j = int(arg[i])
        merges.append((i, j, float(d[i, j])))
        wi, wj = sizes[i], sizes[j]
        d[i] = d[:, i] = (wi * d[i] + wj * d[j]) / (wi + wj)
        d[i, i] = d[j] = d[:, j] = np.inf
        sizes[i] = wi + wj
        # Rows whose minimum sat in column i or j must rescan (row i among
        # them, as arg[i] == j); every other row only meets the new column i.
        stale = np.flatnonzero((arg == i) | (arg == j))
        col = d[i]
        fold = (col < low) | ((col == low) & (i < arg))
        low[fold] = col[fold]
        arg[fold] = i
        arg[stale] = d[stale].argmin(axis=1)
        low[stale] = d[stale, arg[stale]]
        low[j], arg[j] = np.inf, -1
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


def _rankings(dm: DistanceMatrix, queries):
    """Yield ``(q, order)``: the other matrix indices nearest first, ties on ascending id."""
    n = len(dm.ids)
    id_rank = np.empty(n, dtype=np.intp)
    id_rank[sorted(range(n), key=dm.ids.__getitem__)] = np.arange(n)
    for q in queries:
        order = np.lexsort((id_rank, dm.values[q]))
        yield q, order[order != q]


def rank_for_query(dm: DistanceMatrix, query: str) -> list[str]:
    """All other ids, nearest first; ties break on ascending id."""
    if len(dm.ids) < 2:
        raise ValueError("ranking needs at least two items")
    _, order = next(_rankings(dm, [dm.index_of(query)]))
    return [dm.ids[i] for i in order.tolist()]


def _precision(hit: np.ndarray, m: int):
    """Hits and precision after each rank, and the average precision over ``m`` relevant items.

    ``np.cumsum`` adds left to right, so every sum is that of a plain loop.
    """
    hits = np.cumsum(hit)
    precision = hits / np.arange(1, len(hit) + 1)
    return hits, precision, float(np.cumsum(precision[hit])[-1] / m)


def average_precision(ranked: Sequence[str], relevant) -> float:
    """Mean precision over the prefixes ending at each relevant item."""
    relevant = set(relevant)
    if not relevant:
        raise ValueError("average precision needs a non-empty relevant set")
    missing = relevant - set(ranked)
    if missing:
        raise ValueError(f"relevant items missing from the ranking: {sorted(missing)[:3]}")
    return _precision(np.array([item in relevant for item in ranked]), len(relevant))[2]


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
    """Average the per-query interpolated precision and F over 11 recall levels."""
    if set(labels) != set(dm.ids):
        raise ValueError("labels cover a different id set than the distance matrix")
    codes: dict[str, int] = {}
    category = np.array([codes.setdefault(labels[item], len(codes)) for item in dm.ids])
    precision_sum = np.zeros(len(RECALL_LEVELS))
    f_sum = np.zeros(len(RECALL_LEVELS))
    ap_sum = 0.0
    n_queries = 0
    for q, order in _rankings(dm, range(len(dm.ids))):
        hit = category[order] == category[q]
        m = int(hit.sum())
        if not m:
            query = dm.ids[q]
            warnings.warn(f"category {labels[query]!r} has a single member; query {query!r} skipped")
            continue
        hits, precision, ap = _precision(hit, m)
        # Best precision at any recall >= level: running max from the right.
        best_from_right = np.maximum.accumulate(precision[::-1])[::-1]
        first_at_level = np.searchsorted(hits / m, RECALL_LEVELS, side="left")
        interp_p = best_from_right[first_at_level]
        with np.errstate(invalid="ignore"):
            interp_f = np.where(
                interp_p + RECALL_LEVELS > 0,
                2 * interp_p * RECALL_LEVELS / (interp_p + RECALL_LEVELS),
                0.0,
            )
        precision_sum += interp_p
        f_sum += interp_f
        ap_sum += ap
        n_queries += 1
    if n_queries == 0:
        raise ValueError("no query has a relevant item")
    return RetrievalCurves(
        recall_levels=RECALL_LEVELS.copy(),
        avg_precision=precision_sum / n_queries,
        avg_f_measure=f_sum / n_queries,
        map=ap_sum / n_queries,
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
