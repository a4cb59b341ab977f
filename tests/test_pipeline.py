import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weftprint.corpus import CategorySpec, CorpusItem, CorpusSpec
from weftprint.fingerprint import fingerprint
from weftprint.graph import InvalidGraphError, TextileGraph
from weftprint.pipeline import corpus_fingerprints, run_pipeline
from weftprint.weaves import grid_to_graph


def small_spec():
    return CorpusSpec(
        categories=(
            CategorySpec(name="plain", kind="plain", count=5, width=10, height=10,
                         perturb_fraction=0.2, perturb_rate=0.05, seed=1),
            CategorySpec(name="ribbed", kind="twill(3,1)", count=5, width=10, height=10,
                         perturb_fraction=0.2, perturb_rate=0.05, seed=2),
            CategorySpec(name="mosaic", kind="mixed(5,2)", count=5, width=10, height=10, seed=3),
        ),
        seed=0,
    )


def test_reports_are_run_to_run_identical():
    a = run_pipeline(small_spec(), k=3, metric="jaccard")
    b = run_pipeline(small_spec(), k=3, metric="jaccard")
    assert a == b
    assert a.curves == b.curves and a.partition == b.partition


def test_cluster_count_defaults_to_category_count():
    report = run_pipeline(small_spec(), k=3, metric="jaccard")
    assert report.n_clusters == 3
    assert set(report.partition.assignment.values()) == {0, 1, 2}


def test_separable_spec_scores_perfectly():
    report = run_pipeline(small_spec(), k=3, metric="jaccard")
    assert report.rand_index == 1.0
    assert report.map == pytest.approx(1.0, abs=0.02)


def test_tfidf_metric_wires_corpus_stats_through():
    report = run_pipeline(small_spec(), k=3, metric="tfidf", n_clusters=3)
    assert 0.0 <= report.map <= 1.0


def _copy(g, flip=None):
    """A new graph with ``g``'s arrays, its ``on_top`` flipped at node ``flip``: that breaks the model."""
    top = g.on_top.copy()
    if flip is not None:
        top[flip] = not top[flip]
    return TextileGraph(g.next_node, top, g.opposite)


@st.composite
def _graph_lists(draw):
    """Graphs that repeat: one object twice, equal-array copies, one-cell near twins and broken repeats."""
    shape = st.tuples(st.integers(1, 4), st.integers(1, 4))
    grids = draw(st.lists(shape.flatmap(lambda s: st.lists(st.booleans(), min_size=s[0] * s[1], max_size=s[0] * s[1])
                                        .map(lambda cells: np.array(cells).reshape(s))), min_size=1, max_size=3))
    pool = []
    for cells in grids:
        g = grid_to_graph(cells)
        twin = cells.copy()
        twin.flat[draw(st.integers(0, cells.size - 1))] ^= True
        pool += [g, g, _copy(g), grid_to_graph(twin)]
    broken = [_copy(pool[0], flip) for flip in draw(st.lists(st.sampled_from([0, 2]), max_size=2))]
    pool += broken + broken
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))


def _outcome(walk):
    """The fingerprints ``walk()`` returns, as item lists in key order, or the violations it raises."""
    try:
        return [list(fp.items()) for fp in walk()]
    except InvalidGraphError as exc:
        return exc.violations


@settings(max_examples=200, deadline=None)
@given(_graph_lists(), st.integers(1, 3))
def test_corpus_fingerprints_equal_one_walk_per_graph(graphs, k):
    corpus = [CorpusItem(f"g{i}", g, "c") for i, g in enumerate(graphs)]
    got = _outcome(lambda: corpus_fingerprints(corpus, k)[1])  # first, while no graph is checked or walked
    want = _outcome(lambda: [fingerprint(g, k) for g in graphs])
    assert got == want
    if all(isinstance(items, list) for items in want):
        fps = corpus_fingerprints(corpus, k)[1]
        assert len({id(fp) for fp in fps}) == len(fps)  # a repeat's Counter is its own, to mutate alone
