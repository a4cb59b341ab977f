import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weftprint.distance import DistanceMatrix
from weftprint.evaluation import (
    Partition,
    average_precision,
    cluster_report_json,
    curves_to_csv,
    interpolated_curves,
    map_score,
    pair_scores,
    rank_for_query,
    upgma_cluster,
    upgma_merges,
)

from oracles import (
    loop_upgma_merges,
    naive_average_precision,
    naive_curves,
    naive_interpolated_precision,
    naive_pair_scores,
    naive_rank,
    naive_upgma_merges,
    query_loop_curves,
)


def matrix(ids, rows):
    return DistanceMatrix(tuple(ids), np.array(rows, dtype=float))


def random_matrix(rng, n):
    values = rng.random((n, n))
    values = (values + values.T) / 2
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(tuple(f"g{i}" for i in range(n)), values)


THREE_POINT = matrix("abc", [[0, 1, 4], [1, 0, 5], [4, 5, 0]])


class TestUpgma:
    def test_three_point_fixture(self):
        merges = upgma_merges(THREE_POINT)
        assert merges[0][:2] == (0, 1)
        assert merges[0][2] == 1.0
        # after {a,b}: distance to {c} is the mean of 4 and 5
        assert merges[1] == (0, 2, 4.5)

    def test_m_equals_n_all_singletons(self):
        part = upgma_cluster(THREE_POINT, 3)
        assert part.assignment == {"a": 0, "b": 1, "c": 2}

    def test_m_equals_one(self):
        part = upgma_cluster(THREE_POINT, 1)
        assert set(part.assignment.values()) == {0}

    def test_two_clusters(self):
        part = upgma_cluster(THREE_POINT, 2)
        assert part.assignment == {"a": 0, "b": 0, "c": 1}

    def test_m_out_of_range(self):
        for m in (0, 4):
            with pytest.raises(ValueError):
                upgma_cluster(THREE_POINT, m)

    def test_merge_sequence_matches_from_scratch_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            dm = random_matrix(rng, int(rng.integers(2, 11)))
            ours = upgma_merges(dm)
            reference = naive_upgma_merges(dm)
            assert [(i, j) for i, j, _ in ours] == [(i, j) for i, j, _ in reference]
            for (_, _, d_ours), (_, _, d_ref) in zip(ours, reference):
                assert d_ours == pytest.approx(d_ref, abs=1e-12)

    def test_tie_breaks_on_smallest_pair(self):
        dm = matrix("abcd", [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
        merges = upgma_merges(dm)
        assert merges[0][:2] == (0, 1)

    def test_positive_scaling_leaves_everything(self):
        rng = np.random.default_rng(14)
        dm = random_matrix(rng, 8)
        scaled = DistanceMatrix(dm.ids, dm.values * 2.0)
        assert [(i, j) for i, j, _ in upgma_merges(dm)] == [(i, j) for i, j, _ in upgma_merges(scaled)]
        assert upgma_cluster(dm, 3) == upgma_cluster(scaled, 3)
        labels = {g: ("x" if i % 2 else "y") for i, g in enumerate(dm.ids)}
        assert map_score(dm, labels) == map_score(scaled, labels)
        for g in dm.ids:
            assert rank_for_query(dm, g) == rank_for_query(scaled, g)


class TestPairScores:
    def test_perfect_agreement(self):
        part = Partition.from_groups([{"a", "b"}, {"c"}])
        scores = pair_scores(part, part)
        assert (scores.confusion.tp, scores.confusion.tn) == (1, 2)
        assert (scores.confusion.fp, scores.confusion.fn) == (0, 0)
        assert scores.rand_index == scores.precision == scores.recall == scores.f_measure == 1.0

    def test_hand_example_ri_one_third(self):
        truth = Partition.from_groups([{"a", "b"}, {"c"}])
        predicted = Partition.from_groups([{"a"}, {"b", "c"}])
        scores = pair_scores(predicted, truth)
        c = scores.confusion
        assert (c.tp, c.fn, c.fp, c.tn) == (0, 1, 1, 1)
        assert scores.rand_index == pytest.approx(1 / 3)
        assert scores.precision == scores.recall == scores.f_measure == 0.0

    def test_label_permutation_invariance(self):
        truth = Partition.from_groups([{"a", "b"}, {"c", "d"}])
        part = Partition({"a": 0, "b": 0, "c": 1, "d": 1})
        swapped = Partition({"a": 1, "b": 1, "c": 0, "d": 0})
        assert pair_scores(part, truth) == pair_scores(swapped, truth)

    def test_pair_count_total(self):
        rng = np.random.default_rng(15)
        ids = [f"g{i}" for i in range(12)]
        part = Partition({g: int(rng.integers(3)) for g in ids[:-1]} | {ids[-1]: 2})
        truth = Partition({g: i % 4 for i, g in enumerate(ids)})
        scores = pair_scores(part, truth)
        assert scores.confusion.total == 12 * 11 // 2

    def test_id_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different id sets"):
            pair_scores(Partition({"a": 0}), Partition({"b": 0}))

    def test_dense_cluster_ids_enforced(self):
        with pytest.raises(ValueError, match="dense"):
            Partition({"a": 0, "b": 2})


class TestRanking:
    def test_orders_by_distance(self):
        dm = matrix("qabc"[0:4], [[0, 0.1, 0.3, 0.2], [0.1, 0, 1, 1], [0.3, 1, 0, 1], [0.2, 1, 1, 0]])
        assert rank_for_query(dm, "q") == ["a", "c", "b"]

    def test_ties_break_on_ascending_id(self):
        dm = matrix("qba", [[0, 0.5, 0.5], [0.5, 0, 1], [0.5, 1, 0]])
        assert rank_for_query(dm, "q") == ["a", "b"]

    def test_excludes_query_and_has_full_length(self):
        rng = np.random.default_rng(16)
        dm = random_matrix(rng, 9)
        for q in dm.ids:
            ranked = rank_for_query(dm, q)
            assert q not in ranked and len(ranked) == 8

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            rank_for_query(THREE_POINT, "zz")

    def test_needs_two_items(self):
        with pytest.raises(ValueError, match="^ranking needs at least two items$"):
            rank_for_query(matrix("a", [[0]]), "a")


class TestAveragePrecision:
    def test_all_relevant_first(self):
        assert average_precision(["a", "b", "c", "d"], {"a", "b"}) == 1.0

    def test_ranks_1_and_3_of_4(self):
        assert average_precision(["r1", "x", "r2", "y"], {"r1", "r2"}) == pytest.approx(5 / 6)

    def test_ranks_1_and_4_of_5(self):
        assert average_precision(["r1", "x", "y", "r2", "z"], {"r1", "r2"}) == 0.75

    def test_matches_prefix_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            ranked = [f"d{i}" for i in range(n)]
            relevant = {f"d{i}" for i in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)}
            assert average_precision(ranked, relevant) == pytest.approx(
                naive_average_precision(ranked, relevant)
            )

    def test_long_rankings_sum_left_to_right(self):
        # Enough relevant items for a pairwise or compensated sum to differ.
        rng = np.random.default_rng(21)
        for _ in range(20):
            ranked = [f"d{i}" for i in range(300)]
            relevant = {f"d{i}" for i in rng.choice(300, size=int(rng.integers(20, 300)), replace=False)}
            assert average_precision(ranked, relevant) == naive_average_precision(ranked, relevant)

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            average_precision(["a"], set())

    def test_relevant_must_be_ranked(self):
        with pytest.raises(ValueError, match="missing"):
            average_precision(["a"], {"zz"})


SEPARATED = matrix(
    "abcd",
    [[0, 0.1, 0.9, 0.9], [0.1, 0, 0.9, 0.9], [0.9, 0.9, 0, 0.1], [0.9, 0.9, 0.1, 0]],
)
SEPARATED_LABELS = {"a": "x", "b": "x", "c": "y", "d": "y"}


class TestMapScore:
    def test_fully_separated_categories(self):
        assert map_score(SEPARATED, SEPARATED_LABELS) == 1.0

    def test_hand_built_mean(self):
        dm = matrix(
            "abcd",
            [[0, 0.2, 0.1, 0.9], [0.2, 0, 0.4, 0.9], [0.1, 0.4, 0, 0.9], [0.9, 0.9, 0.9, 0]],
        )
        labels = {"a": "x", "b": "x", "c": "y", "d": "y"}
        # a: ranked [c,b,d], relevant {b} -> AP = 1/2
        # b: ranked [a,c,d], relevant {a} -> AP = 1
        # c: ranked [a,b,d], relevant {d} -> AP = 1/3
        # d: ranked [a,b,c], relevant {c} -> AP = 1/3
        expected = (0.5 + 1.0 + 1 / 3 + 1 / 3) / 4
        assert map_score(dm, labels) == pytest.approx(expected)

    def test_single_member_category_skipped_with_warning(self):
        labels = {"a": "x", "b": "x", "c": "solo", "d": "x"}
        dm = matrix(
            "abcd",
            [[0, 0.1, 0.5, 0.2], [0.1, 0, 0.5, 0.2], [0.5, 0.5, 0, 0.5], [0.2, 0.2, 0.5, 0]],
        )
        with pytest.warns(UserWarning, match="single member"):
            value = map_score(dm, labels)
        assert 0.0 < value <= 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(18)
        dm = random_matrix(rng, 10)
        labels = {g: ("x" if i < 5 else "y") for i, g in enumerate(dm.ids)}
        squashed = DistanceMatrix(dm.ids, np.sqrt(dm.values))
        assert map_score(dm, labels) == pytest.approx(map_score(squashed, labels))


class TestInterpolatedCurves:
    def test_single_query_interpolation_fixture(self):
        # relevant at ranks 1 and 4 of 5: precision 1.0 through recall 0.5, then 0.5
        ranked = ["r1", "x", "y", "r2", "z"]
        levels = [i / 10 for i in range(11)]
        interp = naive_interpolated_precision(ranked, {"r1", "r2"}, levels)
        assert interp == [1.0] * 6 + [0.5] * 5

    @pytest.mark.parametrize("labels", [{"a": "x", "b": "x"}, {"a": "x", "b": "x", "c": "y", "d": "y"},
                                        {"a": "x", "b": "x", "z": "x"}], ids=["fewer", "more", "other"])
    def test_labels_must_cover_the_matrix_ids(self, labels):
        with pytest.raises(ValueError, match="^labels cover a different id set than the distance matrix$"):
            interpolated_curves(THREE_POINT, labels)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            dm = random_matrix(rng, int(rng.integers(4, 13)))
            labels = {g: f"c{i % 2}" for i, g in enumerate(dm.ids)}
            curves = interpolated_curves(dm, labels)
            ref_p, ref_f, ref_map = naive_curves(dm, labels, curves.recall_levels.tolist())
            assert np.allclose(curves.avg_precision, ref_p, atol=1e-12)
            assert np.allclose(curves.avg_f_measure, ref_f, atol=1e-12)
            assert curves.map == pytest.approx(ref_map, abs=1e-12)

    def test_single_query_running_max(self):
        # one query with known ranking: use two categories, second one-sided
        dm = matrix(
            ["q", "r1", "x", "y", "r2"],
            [
                [0, 0.1, 0.2, 0.3, 0.4],
                [0.1, 0, 0.15, 1, 1],
                [0.2, 0.15, 0, 1, 1],
                [0.3, 1, 1, 0, 0.05],
                [0.4, 1, 1, 0.05, 0],
            ],
        )
        labels = {"q": "rel", "r1": "rel", "r2": "rel", "x": "other", "y": "other"}
        curves = interpolated_curves(dm, labels)
        assert np.all(np.diff(curves.avg_precision) <= 1e-12)

    def test_exact_fixture_values(self):
        ranked_flags = [True, False, False, True, False]  # ranks 1 and 4 relevant, 5 items
        precision = []
        hits = 0
        for t, flag in enumerate(ranked_flags, start=1):
            hits += flag
            precision.append(hits / t)
        # independent interpolation: running max from the right at each level
        levels = [i / 10 for i in range(11)]
        recall = [sum(ranked_flags[:t]) / 2 for t in range(1, 6)]
        expected = []
        for level in levels:
            expected.append(max(p for p, r in zip(precision, recall) if r >= level))
        assert expected[:6] == [1.0] * 6 and expected[6:] == [0.5] * 5

    def test_perfect_retrieval_all_ones(self):
        curves = interpolated_curves(SEPARATED, SEPARATED_LABELS)
        assert np.allclose(curves.avg_precision, 1.0)
        assert curves.map == 1.0
        # F at recall 0 is 0 by the cited formula; elsewhere 2pr/(p+r)
        assert curves.avg_f_measure[0] == 0.0
        assert curves.avg_f_measure[10] == pytest.approx(1.0)

    def test_precision_non_increasing_property(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            dm = random_matrix(rng, 12)
            labels = {g: f"c{i % 3}" for i, g in enumerate(dm.ids)}
            curves = interpolated_curves(dm, labels)
            assert np.all(np.diff(curves.avg_precision) <= 1e-12)
            assert np.all((0 <= curves.avg_precision) & (curves.avg_precision <= 1))
            assert np.all((0 <= curves.avg_f_measure) & (curves.avg_f_measure <= 1))

    def test_map_matches_map_score(self):
        rng = np.random.default_rng(20)
        dm = random_matrix(rng, 9)
        labels = {g: f"c{i % 3}" for i, g in enumerate(dm.ids)}
        assert interpolated_curves(dm, labels).map == map_score(dm, labels)


@st.composite
def labeled_matrices(draw):
    """Small symmetric matrices: tie-heavy integers or random floats.

    Ids are a shuffled permutation, so index order and id order differ.
    """
    n = draw(st.integers(2, 9))
    if draw(st.booleans()):  # tie-heavy
        values = np.array(draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n)), dtype=float)
    else:
        values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n * n)
    values = values.reshape(n, n)
    values = np.triu(values, 1) + np.triu(values, 1).T
    ids = draw(st.permutations([f"g{i}" for i in range(n)]))
    labels = {item: f"c{draw(st.integers(0, 2))}" for item in ids}
    return DistanceMatrix(tuple(ids), values), labels


class TestAgainstOracles:
    @settings(max_examples=300, deadline=None)
    @given(labeled_matrices())
    def test_upgma_merges(self, case):
        dm, _ = case
        ours = upgma_merges(dm)
        assert ours == loop_upgma_merges(dm)
        upper = dm.values[np.triu_indices(len(dm.ids), 1)]
        if len(set(upper.tolist())) < len(upper):
            # Equal means computed along different paths can round apart, so
            # the from-scratch oracle may break a tie differently; the loop
            # oracle above pins the tie-heavy cases bit for bit.
            return
        reference = naive_upgma_merges(dm)
        assert [(i, j) for i, j, _ in ours] == [(i, j) for i, j, _ in reference]
        for (_, _, d_ours), (_, _, d_ref) in zip(ours, reference):
            assert d_ours == pytest.approx(d_ref, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(labeled_matrices(), st.data())
    def test_pair_scores(self, case, data):
        dm, labels = case
        predicted = upgma_cluster(dm, data.draw(st.integers(1, len(dm.ids))))
        truth = Partition.from_labels(labels)
        c = pair_scores(predicted, truth).confusion
        assert (c.tp, c.tn, c.fp, c.fn) == naive_pair_scores(predicted, truth)

    @settings(max_examples=300, deadline=None)
    @given(labeled_matrices())
    def test_ranking_and_curves(self, case):
        dm, labels = case
        for item in dm.ids:
            assert rank_for_query(dm, item) == naive_rank(dm, item)
        if all(list(labels.values()).count(c) == 1 for c in labels.values()):
            with pytest.warns(UserWarning), pytest.raises(ValueError, match="no query"):
                interpolated_curves(dm, labels)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            curves = interpolated_curves(dm, labels)
            assert curves.map == map_score(dm, labels)
        # Same operations in the same order as the enumeration: equal bits.
        ref_p, ref_f, ref_map = naive_curves(dm, labels, curves.recall_levels.tolist())
        assert (curves.avg_precision.tolist(), curves.avg_f_measure.tolist(), curves.map) == (ref_p, ref_f, ref_map)


@st.composite
def duplicate_item_matrices(draw):
    """Matrices ``small[u][:, u]`` over an index vector ``u`` with repeats, up to 40 items.

    Items of equal index are equal rows at distance 0, as repeated or
    transformed samples make them in an archive; 40 items let UPGMA
    compact its live set several times.  Ids are shuffled.
    """
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    small = rng.random((k, k)) if draw(st.booleans()) else rng.integers(0, 3, (k, k)).astype(float)
    small = np.triu(small, 1) + np.triu(small, 1).T
    u = rng.integers(0, k, draw(st.integers(1, 40)))
    ids = draw(st.permutations([f"g{i}" for i in range(len(u))]))
    labels = {item: f"c{draw(st.integers(0, 3))}" for item in ids}
    return DistanceMatrix(tuple(ids), small[u][:, u]), labels


class TestDuplicateItems:
    @settings(max_examples=150, deadline=None)
    @given(duplicate_item_matrices())
    def test_upgma_merges(self, case):
        dm, _ = case
        assert upgma_merges(dm) == loop_upgma_merges(dm)

    @settings(max_examples=150, deadline=None)
    @given(duplicate_item_matrices())
    def test_curves(self, case):
        dm, labels = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if all(list(labels.values()).count(c) == 1 for c in labels.values()):
                with pytest.raises(ValueError, match="no query"):
                    interpolated_curves(dm, labels)
                return
            curves = interpolated_curves(dm, labels)
        ref_p, ref_f, ref_map = naive_curves(dm, labels, curves.recall_levels.tolist())
        assert (curves.avg_precision.tolist(), curves.avg_f_measure.tolist(), curves.map) == (ref_p, ref_f, ref_map)


@pytest.mark.parametrize("key", [("jaccard", 4), ("hbool", 4), ("cosine", 4), ("jaccard", 6)],
                         ids=lambda key: f"{key[0]}-k{key[1]}")
def test_desk_scale_matches_loop_oracles(desk_matrices, desk_labels, key):
    dm = desk_matrices[key]
    assert upgma_merges(dm) == loop_upgma_merges(dm)
    curves = interpolated_curves(dm, desk_labels)
    reference = query_loop_curves(dm, desk_labels)
    assert (curves.avg_precision.tolist(), curves.avg_f_measure.tolist(), curves.map) == (
        reference.avg_precision.tolist(), reference.avg_f_measure.tolist(), reference.map)


@st.composite
def tie_heavy_matrices(draw):
    """Symmetric matrices of the integers 0-2, up to 40 items: most minima tie."""
    n = draw(st.integers(1, 40))
    upper = np.triu(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 3, (n, n)), 1)
    return DistanceMatrix(tuple(f"g{i}" for i in range(n)), (upper + upper.T).astype(float))


class TestCachedRowMinima:
    """``upgma_merges`` against the full-scan loop oracle where the cache is hard to keep."""

    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_matrices())
    def test_tie_heavy_matrices(self, dm):
        assert upgma_merges(dm) == loop_upgma_merges(dm)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
    @pytest.mark.parametrize("value", [0.0, 1.5])
    def test_constant_matrices(self, n, value):
        values = np.full((n, n), value)
        np.fill_diagonal(values, 0.0)
        dm = DistanceMatrix(tuple(f"g{i}" for i in range(n)), values)
        merges = upgma_merges(dm)
        assert merges == loop_upgma_merges(dm)
        # Every mean stays the constant, so item 0 absorbs 1, 2, ... in turn.
        assert merges == [(0, j, value) for j in range(1, n)]

    def test_every_small_matrix(self):
        assert upgma_merges(matrix("a", [[0]])) == []
        for upper in itertools.product(range(3), repeat=3):
            for n in (2, 3):
                values = np.zeros((n, n))
                values[np.triu_indices(n, 1)] = upper[: n * (n - 1) // 2]
                dm = DistanceMatrix(tuple("abc"[:n]), values + values.T)
                assert upgma_merges(dm) == loop_upgma_merges(dm)

    def test_rounded_mean_ties_an_earlier_column(self):
        # After (0, 3) and (1, 4) merge, row 0 stores 0.44999999999999996 for
        # both cluster 1 (the new column) and cluster 2 (its cached minimum):
        # the tie goes to the smaller column, 1.
        dm = matrix("abcde", [[0, 0.4, 0.7, 0.2, 0.6], [0.4, 0, 0.7, 0.5, 0.4], [0.7, 0.7, 0, 0.2, 0.7],
                              [0.2, 0.5, 0.2, 0, 0.3], [0.6, 0.4, 0.7, 0.3, 0]])
        merges = upgma_merges(dm)
        assert merges == loop_upgma_merges(dm)
        assert [(i, j) for i, j, _ in merges] == [(0, 3), (1, 4), (0, 1), (0, 2)]

    def test_row_whose_minimum_rose_rescans(self):
        # Row 3 caches its minimum 0.1 in column 0.  Merging (0, 1) keeps
        # it at 0.1, but merging the pair with 2 stores (2*0.1 + 0.1)/3 =
        # 0.10000000000000002 there: row 3 must rescan and find column 4,
        # which still holds 0.1.
        assert (2 * 0.1 + 0.1) / 3 == 0.10000000000000002
        dm = matrix("abcde", [[0, 0, 0.05, 0.1, 0.9], [0, 0, 0.05, 0.1, 0.9], [0.05, 0.05, 0, 0.1, 0.9],
                              [0.1, 0.1, 0.1, 0, 0.1], [0.9, 0.9, 0.9, 0.1, 0]])
        merges = upgma_merges(dm)
        assert merges == loop_upgma_merges(dm)
        assert merges[:3] == [(0, 1, 0.0), (0, 2, 0.05), (3, 4, 0.1)]

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_distance_rejected(self, bad):
        # the matrix refuses the cell when it is made, so UPGMA never meets one
        with pytest.raises(ValueError, match=r"row 1 \('a'\): distances must be finite .* in column 'c'"):
            matrix("abc", [[0, 1, bad], [1, 0, 2], [bad, 2, 0]])


class TestReports:
    def test_curves_csv_shape(self):
        text = curves_to_csv(interpolated_curves(SEPARATED, SEPARATED_LABELS))
        lines = text.strip().splitlines()
        assert lines[0] == "recall_level,avg_precision,avg_fmeasure"
        assert len(lines) == 12
        assert lines[1] == "0.0,1.000000,0.000000"
        assert lines[-1] == "1.0,1.000000,1.000000"

    def test_cluster_report_six_decimals(self):
        part = Partition.from_groups([{"a", "b"}, {"c"}])
        text = cluster_report_json(pair_scores(part, part), part)
        assert '"RI": 1.0' in text and '"clusters"' in text
