import pytest

from weftprint.corpus import CategorySpec, CorpusSpec
from weftprint.pipeline import run_pipeline


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
