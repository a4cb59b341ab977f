"""End-to-end study runs: generate, fingerprint, compare, cluster, retrieve.

Everything downstream of the spec is a pure function of (spec, k, metric,
cluster count), so two runs with the same arguments produce identical
reports.
"""

from __future__ import annotations

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
from .fingerprint import _walk_each_once, fingerprint


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


class _Arrays:
    """A graph as a dict key: two keys are equal exactly when the graphs' three arrays are."""

    __slots__ = ("graph", "_hash")

    def __init__(self, graph):
        self.graph = graph
        self._hash = hash((graph.next_node.tobytes(), graph.on_top.tobytes(), graph.opposite.tobytes()))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self._hash == other._hash and self.graph == other.graph  # a hash alone could collide


def corpus_fingerprints(corpus: list[CorpusItem], k: int):
    """Ids and fingerprints of ``corpus``, in order, as ``fingerprint`` gives them one graph at a time.

    Each distinct graph, by its arrays, is walked once in the call; a repeat
    gets its own copy of the first's fingerprint, so it builds no walk lists.
    """
    ids = [item.id for item in corpus]
    graphs = [item.graph for item in corpus]
    fps = _walk_each_once(map(_Arrays, graphs), lambda firsts: [fingerprint(graphs[i], k) for i in firsts])
    return ids, fps


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
