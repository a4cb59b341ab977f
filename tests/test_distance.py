import dataclasses
import math
import re
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weftprint import distance
from weftprint.distance import (
    INTEGER_METRICS,
    METRICS,
    CorpusStats,
    DistanceMatrix,
    corpus_stats,
    cosine_distance,
    cosine_tfidf_distance,
    csv_to_distance_matrix,
    distance_matrix,
    distance_matrix_to_csv,
    hamming_bool_distance,
    hamming_freq_distance,
    jaccard_distance,
    load_distance_matrix,
    pair_distance,
    save_distance_matrix,
    tfidf_weights,
)

from conftest import random_fingerprint
from oracles import csv_written

# The worked pair: one graph with a single neighborhood type of count 4,
# one with two types of count 2 each.
R = Counter({"p": 4})
S = Counter({"p": 2, "q": 2})


class TestJaccard:
    def test_worked_pair(self):
        assert jaccard_distance(R, S) == pytest.approx(2 / 3, abs=1e-15)

    def test_identity(self):
        assert jaccard_distance(R, R) == 0.0
        assert jaccard_distance(S, S) == 0.0

    def test_disjoint_supports(self):
        assert jaccard_distance(Counter({"p": 3}), Counter({"q": 5})) == 1.0

    def test_empty_pair_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            jaccard_distance(Counter(), Counter())

    def test_zero_counts_rejected_like_empty(self):
        zeros = [Counter({"a": 0}), Counter({"b": 0})]
        with pytest.raises(ValueError, match="empty"):
            jaccard_distance(*zeros)
        with pytest.raises(ValueError, match="empty"):
            distance_matrix(zeros, "jaccard")

    def test_one_empty_side(self):
        assert jaccard_distance(R, Counter()) == 1.0


class TestHamming:
    def test_bool_worked_pair(self):
        assert hamming_bool_distance(R, S) == 1

    def test_bool_identity_and_disjoint(self):
        assert hamming_bool_distance(R, R) == 0
        assert hamming_bool_distance(Counter({"a": 1, "b": 1}), Counter({"c": 1})) == 3

    def test_freq_worked_pair_is_4(self):
        assert hamming_freq_distance(R, S) == 4

    def test_freq_identity(self):
        assert hamming_freq_distance(S, S) == 0

    def test_freq_against_empty(self):
        assert hamming_freq_distance(Counter({"p": 3}), Counter()) == 3

    @settings(max_examples=300, deadline=None)
    @given(*[st.dictionaries(st.sampled_from("abcdefgh"), st.integers(0, 2**70)) for _ in range(2)])
    def test_freq_is_l1_over_the_union_support(self, a, b):
        # an independent statement of hfreq: sum(min) is shared with the matrix kernel
        l1 = sum(abs(a.get(p, 0) - b.get(p, 0)) for p in set(a) | set(b))
        assert hamming_freq_distance(a, b) == l1

    def test_freq_at_least_bool(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = random_fingerprint(rng), random_fingerprint(rng)
            assert hamming_freq_distance(a, b) >= hamming_bool_distance(a, b)

    @settings(max_examples=300, deadline=None)
    @given(*[st.dictionaries(st.sampled_from("abcdefgh"), st.integers(0, 9)) for _ in range(2)])
    @example({"a": 0, "b": 1}, {"b": 1})
    def test_zero_count_is_absent_under_bool(self, a, b):
        nonzero = [{p: c for p, c in fp.items() if c} for fp in (a, b)]
        d = hamming_bool_distance(a, b)
        assert d == hamming_bool_distance(*nonzero) <= hamming_freq_distance(a, b)
        assert distance_matrix([a, b], "hbool").values[0, 1] == d


class TestCosine:
    def test_worked_pair_value(self):
        assert cosine_distance(R, S) == pytest.approx(1 - math.sqrt(2) / 2, abs=1e-12)

    def test_identity_within_tolerance(self):
        assert cosine_distance(S, S) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports(self):
        assert cosine_distance(Counter({"p": 2}), Counter({"q": 2})) == 1.0

    def test_zero_vector_conventions(self):
        assert cosine_distance(Counter(), Counter()) == 0.0
        assert cosine_distance(R, Counter()) == 1.0


class TestCorpusStats:
    def test_single_textile(self):
        stats = corpus_stats([S])
        assert stats.n_items == 1
        assert stats.df == Counter({"p": 1, "q": 1})

    def test_document_frequencies(self):
        fps = [Counter({"p": 1, "q": 2}), Counter({"p": 5}), Counter({"p": 1, "r": 1})]
        stats = corpus_stats(fps)
        assert stats.n_items == 3
        assert stats.df == Counter({"p": 3, "q": 1, "r": 1})

    def test_df_never_exceeds_n(self):
        rng = np.random.default_rng(1)
        fps = [random_fingerprint(rng) for _ in range(20)]
        stats = corpus_stats(fps)
        assert all(1 <= v <= stats.n_items for v in stats.df.values())

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_stats([])


class TestTfidf:
    def test_identical_vectors_zero(self):
        stats = CorpusStats(3, Counter({"p": 2, "q": 1}))
        assert cosine_tfidf_distance(S, S, stats) == pytest.approx(0.0, abs=1e-12)

    def test_all_idf_zero_falls_back_to_convention(self):
        # both textiles share the full support: every IDF = log(2/2) = 0
        stats = corpus_stats([S, S])
        assert cosine_tfidf_distance(S, S, stats) == 0.0

    def test_worked_example(self):
        # N=3, r={p:10}, s={p:10,q:10}, df={p:2,q:1}:
        # weights r = (0.352183, 0), s = (0.352183, 0.954243)
        r, s = Counter({"p": 10}), Counter({"p": 10, "q": 10})
        stats = CorpusStats(3, Counter({"p": 2, "q": 1}))
        wr, ws = tfidf_weights(r, stats), tfidf_weights(s, stats)
        assert wr["p"] == pytest.approx(0.352183, abs=1e-6)
        assert ws["q"] == pytest.approx(0.954243, abs=1e-6)
        assert cosine_tfidf_distance(r, s, stats) == pytest.approx(0.6537584469420386, abs=1e-6)

    def test_stale_stats_rejected(self):
        stats = CorpusStats(2, Counter({"p": 1}))
        with pytest.raises(ValueError, match="stale corpus statistics"):
            cosine_tfidf_distance(R, S, stats)


class TestMetricProperties:
    def test_symmetry_and_identity_all_metrics(self):
        rng = np.random.default_rng(2)
        stats_pool = [random_fingerprint(rng) for _ in range(30)]
        stats = corpus_stats(stats_pool)
        for _ in range(100):
            a = stats_pool[int(rng.integers(len(stats_pool)))]
            b = stats_pool[int(rng.integers(len(stats_pool)))]
            for metric in ("jaccard", "hbool", "hfreq", "cosine", "tfidf"):
                d_ab = pair_distance(a, b, metric, stats)
                d_ba = pair_distance(b, a, metric, stats)
                if metric in ("cosine", "tfidf"):
                    # summation order may differ between argument orders
                    assert d_ab == pytest.approx(d_ba, abs=1e-12)
                else:
                    assert d_ab == d_ba
                assert d_ab >= 0.0
                if metric in ("jaccard", "cosine", "tfidf"):
                    assert d_ab <= 1.0 + 1e-12
                d_aa = pair_distance(a, a, metric, stats)
                assert d_aa == pytest.approx(0.0, abs=1e-12)

    def test_jaccard_triangle_inequality_sample(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a, b, c = (random_fingerprint(rng) for _ in range(3))
            assert jaccard_distance(a, c) <= jaccard_distance(a, b) + jaccard_distance(b, c) + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a, b = random_fingerprint(rng), random_fingerprint(rng)
            for factor in (2, 3, 10):
                sa = Counter({p: factor * v for p, v in a.items()})
                sb = Counter({p: factor * v for p, v in b.items()})
                assert jaccard_distance(sa, sb) == jaccard_distance(a, b)
                assert cosine_distance(sa, sb) == pytest.approx(cosine_distance(a, b), abs=1e-12)


class TestDistanceMatrix:
    @pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf, -5.0])
    def test_cells_must_be_finite_and_non_negative(self, cell):
        # every matrix is checked when it is made, not only the ones read from or written to CSV
        message = r"^distance matrix row 1 \('a'\): distances must be finite and >= 0, got .* in column 'b'$"
        with pytest.raises(ValueError, match=message):
            DistanceMatrix(("a", "b"), [[0, cell], [cell, 0]])

    @pytest.mark.parametrize("metric", METRICS + ("",))
    def test_matrix_must_be_symmetric(self, metric):
        message = r"^distance matrix row 1 \('a'\): distances must be symmetric, got 5.0 in column 'c'$"
        with pytest.raises(ValueError, match=message):
            DistanceMatrix(("a", "b", "c"), [[0, 1, 5], [1, 0, 2], [4, 2, 0]], metric)

    @pytest.mark.parametrize("metric", INTEGER_METRICS)
    def test_integer_metrics_hold_whole_numbers(self, metric):
        rule = f"distances must be whole numbers under {metric}"
        message = rf"^distance matrix row 1 \('a'\): {rule}, got 0.5 in column 'b'$"
        with pytest.raises(ValueError, match=message):
            DistanceMatrix(("a", "b"), [[0, 0.5], [0.5, 0]], metric)
        with pytest.raises(ValueError, match=r"whole numbers .* got 2.5 in column 'a'$"):
            DistanceMatrix(("a", "b"), [[2.5, 1], [1, 0]], metric)  # the diagonal too: the writer spells it
        assert DistanceMatrix(("a", "b"), [[0, 2.0**64], [2.0**64, 0]], metric).values[0, 1] == 2.0**64
        DistanceMatrix(("a", "b"), [[0, 0.5], [0.5, 0]], "jaccard")

    def test_identical_fingerprints_all_zero(self):
        for metric in ("jaccard", "hbool", "hfreq", "cosine"):
            dm = distance_matrix([R, R], metric)
            assert np.array_equal(dm.values, np.zeros((2, 2)))

    def test_worked_pair_hfreq_offdiagonal(self):
        dm = distance_matrix([R, S], "hfreq", ids=("h1", "h2"))
        assert dm.values[0, 1] == dm.values[1, 0] == 4.0

    def test_matches_pairwise_calls(self):
        rng = np.random.default_rng(5)
        fps = [random_fingerprint(rng) for _ in range(5)]
        stats = corpus_stats(fps)
        for metric in ("jaccard", "hbool", "hfreq", "cosine", "tfidf"):
            dm = distance_matrix(fps, metric, stats=stats)
            for i in range(5):
                for j in range(5):
                    expected = 0.0 if i == j else pair_distance(fps[i], fps[j], metric, stats)
                    assert dm.values[i, j] == expected

    def test_tfidf_computes_its_own_corpus_stats(self):
        rng = np.random.default_rng(8)
        fps = [random_fingerprint(rng) for _ in range(9)]
        given_stats = distance_matrix(fps, "tfidf", stats=corpus_stats(fps))
        assert distance_matrix(fps, "tfidf").values.tobytes() == given_stats.values.tobytes()

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(6)
        fps = [random_fingerprint(rng) for _ in range(8)]
        dm = distance_matrix(fps, "jaccard")
        assert np.array_equal(dm.values, dm.values.T)
        assert np.array_equal(np.diag(dm.values), np.zeros(8))

    def test_thread_counts_do_not_change_output(self):
        rng = np.random.default_rng(7)
        fps = [random_fingerprint(rng) for _ in range(12)]
        csvs = {
            threads: distance_matrix_to_csv(distance_matrix(fps, "jaccard", threads=threads))
            for threads in (1, 2, 4, 0)
        }
        assert len(set(csvs.values())) == 1

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown metric"):
            distance_matrix([R, S], "euclid")
        with pytest.raises(ValueError, match="stale corpus statistics"):
            distance_matrix([R, S], "tfidf", stats=CorpusStats(2, Counter({"p": 1})))
        with pytest.raises(ValueError, match="at least two"):
            distance_matrix([R], "jaccard")
        with pytest.raises(ValueError, match="unique"):
            DistanceMatrix(("a", "a"), np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"^distance matrix shape \(3, 3\) does not match 2 ids$"):
            DistanceMatrix(("a", "b"), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="^ids and fingerprints must have equal length$"):
            distance_matrix([R, S], "jaccard", ids=("a",))
        with pytest.raises(ValueError, match="^tfidf distance needs corpus statistics$"):
            pair_distance(R, S, "tfidf")
        with pytest.raises(ValueError, match="^unknown metric 'euclid'"):
            pair_distance(R, S, "euclid")

    def test_ids_must_be_str(self):
        # a CSV reads every id back as text: (1, 2) would be saved as id,1,2 and load as ("1", "2")
        with pytest.raises(ValueError, match="^distance matrix ids must be str, got 1$"):
            distance_matrix([R, S], "hbool", ids=[1, 2])
        with pytest.raises(ValueError, match=r"^distance matrix ids must be str, got b'b'$"):
            DistanceMatrix(("a", b"b", None), np.zeros((3, 3)))

    @pytest.mark.parametrize("metric", ["jaccard", "hfreq", "cosine"])
    def test_counts_too_large_for_exact_sums_rejected(self, metric):
        big = Counter({"p": 2**26})  # a row's sum of squares reaches 2**52: sums may round
        with pytest.raises(ValueError, match=f"^counts too large for exact {metric} distances$"):
            distance_matrix([big, S], metric)
        distance_matrix([Counter({"p": 2**26 - 1}), S], metric)

    def test_equality(self):
        dm = DistanceMatrix(("a", "b"), [[0, 1], [1, 0]], "hbool")
        assert dm == DistanceMatrix(["a", "b"], np.array([[0.0, 1.0], [1.0, 0.0]]), "hbool")
        assert dm != DistanceMatrix(("a", "c"), [[0, 1], [1, 0]], "hbool")
        assert dm != DistanceMatrix(("a", "b"), [[0, 2], [2, 0]], "hbool")
        assert dm != DistanceMatrix(("a", "b"), [[0, 1], [1, 0]], "hfreq")
        assert dm != [[0, 1], [1, 0]]


    def test_counts_must_be_non_negative_integers(self):
        for bad in (Counter({"p": 1.5}), Counter({"p": -1}), Counter({"p": -2**70})):
            for metric in ("jaccard", "hfreq", "cosine"):
                with pytest.raises(ValueError, match="non-negative integer counts"):
                    distance_matrix([R, bad], metric)
        # non-negative integers all the same, which numpy stores as float or object: the bound's rule
        for big in (2**63, 2**64, 10**4999):  # the last has 5000 digits
            for metric in ("jaccard", "hfreq", "cosine"):
                with pytest.raises(ValueError, match=f"^counts too large for exact {metric} distances$"):
                    distance_matrix([R, Counter({"p": big})], metric)

    def test_whole_is_one_cached_read_only_test(self):
        dm = DistanceMatrix(("a", "b"), [[0, 1], [1, 0]], "hbool")
        assert dm.whole is True and "whole" in vars(dm)  # the hbool check computed it
        with mock.patch.object(np, "rint", side_effect=AssertionError("scanned again")):
            assert distance_matrix_to_csv(dm) == "id,a,b\na,0,1\nb,1,0\n"
        with pytest.raises(dataclasses.FrozenInstanceError):
            dm.whole = False
        assert DistanceMatrix(("a", "b"), [[0, 0.5], [0.5, 0]], "jaccard").whole is False

    def test_negative_thread_count_rejected(self):
        with pytest.raises(ValueError, match="threads"):
            distance_matrix([R, S], "jaccard", threads=-1)


# --- the matrix kernel against its per-pair oracle -----------------------------
#
# A small key universe makes shared keys, tied support sizes and duplicate
# fingerprints common; counts of 0 put keys in a support with no weight.

KEYS = st.sampled_from([f"p{i}" for i in range(8)])
COUNTS = st.integers(0, 9)
FINGERPRINTS = st.dictionaries(KEYS, COUNTS, max_size=6).map(Counter)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def assert_kernel_matches_pairs(fps, metrics=METRICS, stats=None):
    stats = corpus_stats(fps) if stats is None else stats
    n = len(fps)
    for metric in metrics:
        try:
            want = {(i, j): pair_distance(fps[i], fps[j], metric, stats)
                    for i in range(n) for j in range(i + 1, n)}
        except ValueError:
            with pytest.raises(ValueError):
                distance_matrix(fps, metric, stats=stats)
            continue
        values = distance_matrix(fps, metric, stats=stats).values
        for (i, j), d in want.items():
            assert bits(values[i, j]) == bits(d), (metric, i, j)
            assert bits(values[j, i]) == bits(d), (metric, j, i)


@st.composite
def corpora(draw, fingerprints=FINGERPRINTS):
    fps = draw(st.lists(fingerprints, min_size=2, max_size=8))
    copies = draw(st.lists(st.integers(0, len(fps) - 1), max_size=3))
    fps += [Counter(fps[i]) for i in copies]
    return draw(st.permutations(fps))


@st.composite
def equal_size_corpora(draw):
    size = draw(st.integers(1, 6))
    return draw(corpora(st.dictionaries(KEYS, COUNTS, min_size=size, max_size=size).map(Counter)))


@st.composite
def zero_idf_corpora(draw):
    # every fingerprint holds every weighted key, so every IDF is log10(1) = 0
    support = sorted(draw(st.sets(KEYS, min_size=1, max_size=5)))
    fps = []
    for _ in range(draw(st.integers(2, 6))):
        fp = Counter({p: draw(st.integers(1, 9)) for p in draw(st.permutations(support))})
        fp.update({p: 0 for p in draw(st.sets(KEYS, max_size=2)) if p not in fp})
        fps.append(fp)
    return fps


class TestKernelMatchesPairDistance:
    @settings(deadline=None)
    @given(corpora())
    def test_random_corpora(self, fps):
        assert_kernel_matches_pairs(fps)

    @settings(deadline=None)
    @given(equal_size_corpora())
    def test_equal_support_sizes(self, fps):
        assert_kernel_matches_pairs(fps)

    @settings(deadline=None)
    @given(zero_idf_corpora())
    def test_every_idf_zero(self, fps):
        assert all(w == 0.0 for fp in fps for w in tfidf_weights(fp, corpus_stats(fps)).values())
        assert_kernel_matches_pairs(fps)

    @settings(deadline=None)
    @given(corpora(st.dictionaries(KEYS, COUNTS, min_size=1, max_size=1).map(Counter)))
    def test_one_key_fingerprints(self, fps):
        assert_kernel_matches_pairs(fps)

    @settings(deadline=None)
    @given(corpora(st.dictionaries(KEYS, COUNTS | st.integers(2**1024, 2**1100), max_size=6).map(Counter)))
    @example([Counter({"a": 2**1100, "b": 1}), Counter({"a": 1})])  # hbool 1.0, not an OverflowError
    def test_hbool_counts_past_the_float_range(self, fps):
        assert_kernel_matches_pairs(fps, ("hbool",))

    @settings(deadline=None)
    @given(corpora(st.dictionaries(KEYS, st.integers(-3, 9) | st.just(math.nan) | st.integers(2**64, 2**70),
                                   max_size=6).map(Counter)))
    @example([Counter({"a": 2, "b": -1, "c": 0}), Counter({"b": math.nan, "a": 1})])
    def test_tfidf_drops_counts_up_to_zero_and_keeps_nan(self, fps):
        assert_kernel_matches_pairs(fps, ("tfidf",))

    def test_tfidf_stale_statistics(self):
        fps = [Counter({"a": 2, "u": 0, "b": 1}), Counter({"a": 1, "v": -2})]
        stats = CorpusStats(2, Counter({"a": 2, "b": 1}))
        assert_kernel_matches_pairs(fps, ("tfidf",), stats)  # u and v are unknown, but dropped before the check
        assert distance_matrix(fps, "tfidf", stats=stats).values[0, 1] == pair_distance(*fps, "tfidf", stats)
        fps[1]["w"] = math.nan  # kept, so unknown
        with pytest.raises(ValueError, match="^stale corpus statistics: fingerprint contains an unknown neighborhood$"):
            distance_matrix(fps, "tfidf", stats=stats)
        assert_kernel_matches_pairs(fps, ("tfidf",), stats)

    def test_desk_corpus_all_metrics(self, desk_fingerprints):
        _, fps = desk_fingerprints[4]
        assert_kernel_matches_pairs(fps[::6])


class TestDistanceCsv:
    def test_integer_metrics_unpadded(self):
        dm = distance_matrix([R, S], "hfreq", ids=("a", "b"))
        text = distance_matrix_to_csv(dm)
        assert text.splitlines()[1] == "a,0,4"

    def test_loaded_integer_matrix_resaves_byte_for_byte(self, tmp_path):
        # a loaded matrix has no metric: whole cells, not the label, choose the integer spelling
        text = "id,a,b\na,0,1000000000001\nb,1000000000001,0\n"
        (tmp_path / "d.csv").write_text(text, encoding="utf-8")
        dm = load_distance_matrix(tmp_path / "d.csv")
        assert dm.metric == ""
        save_distance_matrix(dm, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_text(encoding="utf-8") == text

    def test_unencodable_id_leaves_the_file_as_it_was(self, tmp_path):
        # a lone surrogate, which UTF-8 cannot encode, is refused before the file is opened
        path = tmp_path / "d.csv"
        path.write_text("id,a\na,0\n", encoding="utf-8")
        dm = DistanceMatrix(("a", "\ud800"), np.zeros((2, 2)))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8: character 5: surrogates not allowed$"):
            save_distance_matrix(dm, path)
        assert path.read_text(encoding="utf-8") == "id,a\na,0\n"

    def test_float_metrics_12_significant_digits(self):
        dm = distance_matrix([R, S], "jaccard", ids=("a", "b"))
        text = distance_matrix_to_csv(dm)
        assert text.splitlines()[1] == "a,0,0.666666666667"

    def test_cr_in_an_id_is_quoted_and_reads_back(self, tmp_path):
        dm = DistanceMatrix(("a\rb", "c"), [[0, 1], [1, 0]], "hbool")
        text = distance_matrix_to_csv(dm)
        assert text == 'id,"a\rb",c\n"a\rb",0,1\nc,1,0\n'
        assert csv_to_distance_matrix(text).ids == dm.ids
        save_distance_matrix(dm, tmp_path / "d.csv")
        loaded = load_distance_matrix(tmp_path / "d.csv")
        assert loaded.ids == dm.ids
        assert loaded.values.tobytes() == dm.values.tobytes()

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        fps = [random_fingerprint(rng) for _ in range(6)]
        dm = distance_matrix(fps, "jaccard")
        loaded = csv_to_distance_matrix(distance_matrix_to_csv(dm))
        assert loaded.ids == dm.ids
        assert np.allclose(loaded.values, dm.values, atol=1e-11)

    def test_malformed_csv_rejected(self):
        with pytest.raises(ValueError, match="header"):
            csv_to_distance_matrix("a,b\n0,1\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-1"])
    def test_non_finite_or_negative_cell_rejected(self, cell):
        message = r"row 2 \('b'\): distances must be finite and >= 0, got .* in column 'a'"
        with pytest.raises(ValueError, match=message):
            csv_to_distance_matrix(f"id,a,b\na,0,1\nb,{cell},0\n")
        # the writer refuses what the reader refuses; the cell is asymmetric too, and the range
        # message comes first under every metric
        for metric in METRICS:
            with pytest.raises(ValueError, match=message):
                distance_matrix_to_csv(DistanceMatrix(("a", "b"), [[0, 1], [float(cell), 0]], metric))

    @pytest.mark.parametrize("cell", ["1_0", "\u0663", " 1", "1 ", "", "0x1", "1e", "1.2.3", "++1", "1e5.0"])
    def test_cells_take_ascii_decimals_only(self, cell):
        with pytest.raises(ValueError, match=r"row 2 \('b'\): .* is not a decimal number in column 'a'"):
            csv_to_distance_matrix(f"id,a,b\na,0,1\nb,{cell},0\n")

    @pytest.mark.parametrize("text", ['id,a\na,"0\n', f"id,{'x' * 200_000}\n{'x' * 200_000},0\n",
                                      'id,"a"x,b\nax,0,1\nb,1,0\n'])
    def test_csv_module_errors_are_value_errors(self, text):
        with pytest.raises(ValueError, match="distance CSV: "):
            csv_to_distance_matrix(text)

    def test_decimal_spellings_load(self):
        dm = csv_to_distance_matrix("id,a,b,c\na,-0,1e-05,0.5\nb,1E-5,5.,12\nc,.5,+12,1E+2\n")
        assert dm.values.tolist() == [[0, 1e-05, 0.5], [1e-05, 5, 12], [0.5, 12, 100]]

    def test_written_text_takes_the_fast_path(self, desk_fingerprints):
        rng = np.random.default_rng(9)
        for ids, fps in [(None, [random_fingerprint(rng) for _ in range(7)]), desk_fingerprints[4]]:
            stats = corpus_stats(fps)
            for metric in METRICS:
                text = distance_matrix_to_csv(distance_matrix(fps, metric, ids=ids, stats=stats))
                fast_ids, values = distance._csv_canonical(text)
                with mock.patch.object(distance, "_csv_canonical", return_value=None):
                    reference = csv_to_distance_matrix(text)
                assert (fast_ids, values.tobytes()) == (reference.ids, reference.values.tobytes())
                assert distance_matrix_to_csv(reference) == text  # write(read(write(dm))) == write(dm)


PLAIN_CELLS = ["0", "1", "2", "0.5", "0.333333333333", "1e-05", "12"]
ODD_CELLS = ["+1", "-0", "-1", ".5", "5.", "1E+2", "1_0", "\u0663", "nan", "inf", " 1", "1 ", "", "1e", "--1", "0x1"]
ODD_IDS = ["", "id", "x,y", 'q"t', "a\rb", "\u0663", " a"]
EDITS = ["odd_cell", "drop_cell", "add_cell", "add_column", "row_id", "drop_row", "copy_row"]


def _field(text: str, quoting: str, is_id: bool) -> str:
    if quoting == "raw":
        return text
    if quoting == "all" or (quoting == "ids" and is_id) or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def repeats(n: int):
    """Index vectors of length ``n`` into ``range(n)``: the identity, or any, so that rows repeat."""
    return st.just(list(range(n))) | st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)


@st.composite
def distance_csv_texts(draw):
    """Distance CSV text, plainly written and then mutated in ways the csv reader tolerates or not.

    The cell table starts symmetric, so no refusal comes from its cells alone.
    """
    n = draw(st.integers(1, 4))
    ids = draw(st.lists(st.sampled_from([f"g{i}" for i in range(6)] + ODD_IDS), min_size=n, max_size=n))
    small = [[""] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            small[i][j] = small[j][i] = draw(st.sampled_from(PLAIN_CELLS))
    u = draw(repeats(n))
    cells = [[small[a][b] for b in u] for a in u]  # small[u][:, u]: rows u[i] and u[j] are equal where u repeats
    rows = [["id", *ids]] + [[row_id, *row] for row_id, row in zip(ids, cells)]
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=3)):
        row = rows[draw(st.integers(1, len(rows) - 1))] if len(rows) > 1 else rows[0]
        if edit == "odd_cell" and len(row) > 1:
            row[draw(st.integers(1, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif edit == "drop_cell" and row:
            row.pop()
        elif edit == "add_cell":
            row.append(draw(st.sampled_from(PLAIN_CELLS)))
        elif edit == "add_column":
            for other in rows[1:]:
                other.append(draw(st.sampled_from(PLAIN_CELLS)))
        elif edit == "row_id" and row:  # two drop_cell edits can empty a row
            row[0] = draw(st.sampled_from(["g9", "id", ""] + ids))
        elif edit == "drop_row" and len(rows) > 1:
            rows.remove(row)
        elif edit == "copy_row":
            rows.append(list(row))
    quoting = draw(st.sampled_from(["minimal", "ids", "all", "raw"]))
    lines = [",".join(_field(f, quoting, (r == 0) != (k == 0)) for k, f in enumerate(row))
             for r, row in enumerate(rows)]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


def _outcome(text: str):
    try:
        dm = csv_to_distance_matrix(text)
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)
    return dm.ids, dm.values.tobytes()


class TestCsvFastPath:
    @settings(max_examples=400, deadline=None)
    @given(distance_csv_texts())
    @example('id,"a"\n"a",0\n')
    @example("id,a\rb\na\rb,0\n")
    @example("id,a\na,\n")
    @example("id,a\na,0,1\n")
    def test_fast_path_matches_reference_reader(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fast path may not warn either
            fast = _outcome(text)
        with mock.patch.object(distance, "_csv_canonical", return_value=None):
            assert fast == _outcome(text)

    @settings(deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(
        st.sampled_from(["0", "7", "007", "-0", "+3", str(2**53 + 1), str(2**63 - 1), str(2**63), "9" * 300])
        | st.integers(0, 2**66).map(str), min_size=n, max_size=n), min_size=n, max_size=n)))
    @example([["0", str(2**53 + 1)], [str(2**63 - 1), "007"]])  # the int64 read
    @example([["0", str(2**63)], ["9" * 300, "1"]])  # past int64: the float read
    @example([["-0", "+3"], ["3", "0"]])
    def test_whole_cells_read_as_the_reference_reads_them(self, rows):
        ids = [f"g{i}" for i in range(len(rows))]
        text = "".join(",".join(row) + "\n" for row in [["id", *ids], *([i, *r] for i, r in zip(ids, rows))])
        fast_ids, values = distance._csv_canonical(text)
        want_ids, want = distance._csv_rows(text)
        assert (fast_ids, values.dtype, values.tobytes()) == (want_ids, want.dtype, want.tobytes())

    @pytest.mark.parametrize("half", ["1", "0.5"])
    def test_equal_bodies_around_another_read_back_in_input_order(self, half):
        text = f"id,a,b,c\na,0,{half},0\nb,{half},0,{half}\nc,0,{half},0\n"
        ids, values = distance._csv_canonical(text)
        want = [[0, float(half), 0], [float(half), 0, float(half)], [0, float(half), 0]]
        assert (ids, values.tolist()) == (("a", "b", "c"), want)
        assert values.tobytes() == distance._csv_rows(text)[1].tobytes()


WRITER_IDS = ["g0", "g1", "g2", "id", "", " a", "a b", "x,y", 'q"t', "a\rb", "a\nb", "\u0663", "\u00e9t\u00e9"]
WRITER_CELLS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.1, 1 / 3, 0.5, 1.5, 2.5, 1e16,
                2.0**52 - 0.5, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**63 - 1024, 2.0**63, 2.0**64, 1e300,
                math.nan, math.inf, -math.inf, -1.0, -5e-324]


@st.composite
def distance_matrix_parts(draw):
    """``(ids, values, metric)`` with odd ids, halves, huge cells and the cells a matrix refuses.

    The cells are symmetric, and whole numbers for the integer metrics, so
    the writers meet every matrix that can be made.
    """
    n = draw(st.integers(0, 4))
    ids = draw(st.lists(st.sampled_from(WRITER_IDS), min_size=n, max_size=n, unique=True))
    cell = st.one_of(st.sampled_from(WRITER_CELLS), st.integers(0, 40).map(lambda k: k / 2),
                     st.floats(0, 2.0**64), st.floats(allow_nan=False, allow_infinity=False))
    cells = np.array(draw(st.lists(cell, min_size=n * n, max_size=n * n)), dtype=np.float64).reshape(n, n)
    cells = np.where(np.triu(np.ones((n, n), dtype=bool)), cells, cells.T)  # keeps -0.0 and nan bits
    u = np.array(draw(repeats(n)), dtype=np.intp)
    cells = cells[u][:, u]  # still symmetric, with equal rows where u repeats
    metric = draw(st.sampled_from(METRICS + ("",)))
    if metric in INTEGER_METRICS:
        cells = np.trunc(cells)
    return tuple(ids), cells, metric


class TestCsvFastWriter:
    @settings(max_examples=400, deadline=None)
    @given(distance_matrix_parts())
    @example(((), np.zeros((0, 0)), "hbool"))
    @example((("x,y", "b"), [[0, 1], [1, 0]], "jaccard"))
    @example((("a", "b"), [[2.0**53 + 2, 2.0**63], [2.0**63, 2.0**64]], "hbool"))
    @example((("a", "b"), [[0.5, 1.5], [1.5, 2.5]], "jaccard"))
    @example((("",), [[0]], "jaccard"))
    @example((("a", "b"), [[-0.0, 1], [1, 0]], "hbool"))
    @example((("a", "b"), [[0, 2.0**70], [2.0**70, 0]], "hfreq"))
    @example((("a\rb", "c"), [[0, 0.5], [0.5, 0]], "cosine"))
    @example((("a", "b"), [[0, math.nan], [-5.0, 0]], "jaccard"))
    def test_fast_writer_matches_reference_writer(self, parts):
        ids, values, metric = parts
        if not (np.isfinite(values) & (np.asarray(values) >= 0)).all():
            # a matrix that the reader would refuse cannot be made, so it is never written
            with pytest.raises(ValueError, match=r"^distance matrix row \d+ \(.*\): distances must be finite and >= 0"):
                DistanceMatrix(ids, values, metric)
            return
        dm = DistanceMatrix(ids, values, metric)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the writer may not warn either
            written = distance_matrix_to_csv(dm)
        assert written == csv_written(dm)

    def test_rows_that_differ_only_in_the_sign_of_zero_are_written_apart(self):
        dm = DistanceMatrix(("a", "b", "c"), [[0.0, 0.0, 0.5], [0.0, -0.0, 0.5], [0.5, 0.5, 0.0]], "jaccard")
        written = distance_matrix_to_csv(dm)
        assert written.splitlines()[1:3] == ["a,0,0,0.5", "b,0,-0,0.5"]  # equal floats, different bytes
        assert written == csv_written(dm)
