"""End-to-end study runs: generate, fingerprint, compare, cluster, retrieve.

Everything downstream of the spec is a pure function of (spec, k, metric,
cluster count), so two runs with the same arguments produce identical
reports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .corpus import CorpusItem, CorpusSpec, generate_corpus
from .distance import DistanceMatrix, distance_matrix
from .evaluation import (
    ClusterScores,
    Partition,
    RetrievalCurves,
    interpolated_curves,
    pair_scores,
    upgma_cluster,
)
from .fingerprint import fingerprint


@dataclass(frozen=True)
class EvalReport:
    """Clustering scores and retrieval curves of one study run."""

    metric: str
    k: int
    n_clusters: int
    scores: ClusterScores
    curves: RetrievalCurves
    partition: Partition

    @property
    def rand_index(self) -> float:
        return self.scores.rand_index

    @property
    def f_measure(self) -> float:
        return self.scores.f_measure

    @property
    def map(self) -> float:
        return self.curves.map


def corpus_fingerprints(corpus: list[CorpusItem], k: int):
    """Ids and fingerprints of ``corpus``, in order, as ``fingerprint`` gives them one graph at a time.

    Graphs are hashable by content, so each distinct graph is walked once, at
    its first position, where a broken one raises; a repeat gets its own
    ``Counter`` copy of the first's fingerprint, so it builds no walk lists.
    """
    fps, walked = [], {}
    for item in corpus:
        first = walked.get(item.graph)
        if first is None:
            walked[item.graph] = first = fingerprint(item.graph, k)
            fps.append(first)
        else:
            fps.append(Counter(first))
    return [item.id for item in corpus], fps


def corpus_distance_matrix(corpus: list[CorpusItem], k: int, metric: str) -> DistanceMatrix:
    ids, fps = corpus_fingerprints(corpus, k)
    return distance_matrix(fps, metric, ids=ids)


def evaluate_distance_matrix(dm: DistanceMatrix, labels: dict[str, str], n_clusters: int,
                             metric: str = "", k: int = 0) -> EvalReport:
    partition = upgma_cluster(dm, n_clusters)
    truth = Partition.from_labels(labels)
    return EvalReport(
        metric=metric or dm.metric,
        k=k,
        n_clusters=n_clusters,
        scores=pair_scores(partition, truth),
        curves=interpolated_curves(dm, labels),
        partition=partition,
    )


def run_pipeline(spec: CorpusSpec, k: int, metric: str, n_clusters: int | None = None) -> EvalReport:
    """Generate the corpus and evaluate one (k, metric) configuration."""
    corpus = generate_corpus(spec)
    if n_clusters is None:
        n_clusters = len(spec.categories)
    labels = {item.id: item.category for item in corpus}
    dm = corpus_distance_matrix(corpus, k, metric)
    return evaluate_distance_matrix(dm, labels, n_clusters, metric=metric, k=k)
