import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weftprint.graph import TERMINAL, EdgeLabel, edge_label, validate
from weftprint.weaves import (
    TRANSFORM_OPS,
    grid_to_graph,
    mirror,
    mixed_weave,
    parse_kind,
    perturb,
    plain_weave,
    random_weave,
    rotate90,
    rotate180,
    satin_weave,
    transform,
    twill_weave,
    warp_above_weave,
    weave_matrix,
)

from oracles import loop_grid_arrays, per_motif_mixed_weave

matrices = st.integers(1, 10).flatmap(
    lambda w: st.integers(1, 10).flatmap(
        lambda h: st.lists(
            st.lists(st.booleans(), min_size=w, max_size=w), min_size=h, max_size=h
        )
    )
).map(np.array)


class TestConstructors:
    def test_plain_2x2_checkerboard(self):
        assert plain_weave(2, 2).astype(int).tolist() == [[1, 0], [0, 1]]

    def test_plain_equals_1_1_twill(self):
        assert np.array_equal(plain_weave(5, 4), twill_weave(1, 1, 5, 4))

    def test_twill_2_1_rows_shift_right(self):
        m = twill_weave(2, 1, 6, 3)
        assert m[0].astype(int).tolist() == [1, 1, 0, 1, 1, 0]
        assert np.array_equal(m[1], np.roll(m[0], 1))
        assert np.array_equal(m[2], np.roll(m[0], 2))

    def test_warp_above_all_true(self):
        assert warp_above_weave(3, 7).all()

    def test_satin_one_raiser_per_period(self):
        m = satin_weave(5, 2, 5, 5)
        assert m.sum(axis=1).tolist() == [1] * 5
        # raiser column advances by the step each row
        assert [int(np.argmax(r)) for r in m] == [0, 2, 4, 1, 3]

    @pytest.mark.parametrize("period, step", [
        (2305843009213693955, 1152921504606846977),  # 2 * step is period - 1: one raiser in 24 rows
        (2 ** 63 - 25, 2 ** 62 - 12),  # 2 * step is period + 1: a raiser on every even row
    ])
    def test_satin_rows_are_exact_past_int64(self, period, step):
        # i * step passes int64 within 24 rows; in int64 it would wrap and move the raisers
        oracle = [[j % period == i * step % period for j in range(24)] for i in range(24)]
        assert satin_weave(period, step, 24, 24).tolist() == oracle

    def test_generator_arguments_stay_within_int64(self):
        assert twill_weave(2 ** 62, 2 ** 62 - 1, 3, 3).tolist() == [[j >= i for j in range(3)] for i in range(3)]
        with pytest.raises(ValueError, match=r"^twill counts must sum to less than 2\*\*63$"):
            twill_weave(2 ** 62, 2 ** 62, 3, 3)
        with pytest.raises(ValueError, match=r"^satin period must be less than 2\*\*63$"):
            satin_weave(2 ** 63, 3, 3, 3)

    @pytest.mark.parametrize("make, message", [
        (lambda n: twill_weave(n, 1, 3, 3), "twill counts must be >= 1, got {n}/1"),
        (lambda n: satin_weave(n, 2, 3, 3), "satin period must be >= 5, got {n}"),
        (lambda n: satin_weave(5, n, 3, 3), "satin step must satisfy 1 < step < period-1, got {n}"),
        (lambda n: random_weave(n, 3, 3, 0), "density must lie in [0, 1], got {n}"),
        (lambda n: mixed_weave(n, 1, 3, 3, 0, 0), "block size must be >= 1, got {n}"),
        (lambda n: mixed_weave(1, n, 3, 3, 0, 0), "motif pool size must be >= 1, got {n}"),
        (lambda n: plain_weave(n, 3), "grid dimensions must be >= 1, got w={n}, h=3"),
    ], ids=["twill", "satin-period", "satin-step", "density", "block", "pool", "grid"])
    def test_long_numbers_are_echoed_cut_short(self, make, message):
        # up to 40 characters a number is echoed whole, past them cut as a long token is
        for n, echo in ((-10 ** 38, str(-10 ** 38)), (-10 ** 39, "'-1000000000000000000'… (41 characters)")):
            with pytest.raises(ValueError) as caught:
                make(n)
            assert str(caught.value) == message.format(n=echo)

    def test_satin_parameter_validation(self):
        with pytest.raises(ValueError, match="period"):
            satin_weave(4, 2, 8, 8)
        with pytest.raises(ValueError, match="step"):
            satin_weave(5, 1, 8, 8)
        with pytest.raises(ValueError, match="step"):
            satin_weave(5, 4, 8, 8)
        with pytest.raises(ValueError, match="coprime"):
            satin_weave(6, 3, 8, 8)

    def test_twill_validation(self):
        with pytest.raises(ValueError):
            twill_weave(0, 1, 4, 4)
        with pytest.raises(ValueError):
            twill_weave(2, 1, 0, 4)

    def test_random_determinism_and_density(self):
        a = random_weave(0.3, 20, 20, 11)
        assert np.array_equal(a, random_weave(0.3, 20, 20, 11))
        assert not np.array_equal(a, random_weave(0.3, 20, 20, 12))
        assert 60 <= a.sum() <= 180  # loose Binomial(400, 0.3) band

    def test_kind_dispatcher(self):
        assert np.array_equal(weave_matrix("plain", 4, 4), plain_weave(4, 4))
        assert np.array_equal(weave_matrix("twill(2, 1)", 6, 3), twill_weave(2, 1, 6, 3))
        assert np.array_equal(weave_matrix("satin(5,2)", 5, 5), satin_weave(5, 2, 5, 5))
        assert weave_matrix("warp_above", 2, 2).all()
        assert np.array_equal(weave_matrix("random(0.5)", 4, 4, seed=3), random_weave(0.5, 4, 4, 3))

    def test_kind_dispatcher_errors(self):
        with pytest.raises(ValueError, match="unknown weave kind"):
            weave_matrix("basket", 4, 4)
        with pytest.raises(ValueError, match="parameter"):
            weave_matrix("twill(2)", 4, 4)
        with pytest.raises(ValueError, match="seed"):
            weave_matrix("random(0.5)", 4, 4)
        with pytest.raises(ValueError, match="unparseable"):
            parse_kind("twill(2,1")

    def test_parse_kind_converts_arguments(self):
        assert parse_kind("twill(2, 1)") == ("twill", [2, 1])
        assert parse_kind("random(0.5)") == ("random", [0.5])
        assert parse_kind(" warp_above ") == ("warp_above", [])
        assert [type(a) for a in parse_kind("mixed(4,3)")[1]] == [int, int]

    @pytest.mark.parametrize("kind, message", [
        ("basket", r"unknown weave kind 'basket'"),
        ("plain(1)", r"weave kind 'plain\(1\)' takes 0 parameter\(s\), got 1"),
        ("twill(2)", r"weave kind 'twill\(2\)' takes 2 parameter\(s\), got 1"),
        ("random(0.5,1)", r"weave kind 'random\(0.5,1\)' takes 1 parameter\(s\), got 2"),
        ("twill(\u0662,1)", r"weave kind 'twill\(\u0662,1\)': '\u0662' is not an integer"),
        ("satin(5,2.0)", r"weave kind 'satin\(5,2.0\)': '2.0' is not an integer"),
        ("random(1_0)", r"weave kind 'random\(1_0\)': '1_0' is not a decimal number"),
    ])
    def test_parse_kind_refuses(self, kind, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_kind(kind)

    @pytest.mark.parametrize("kind", ["plain\n", "\u00a0plain", "twill(2,1)\u2028", "twill(\u00a02,1)",
                                      "random(0.5\u3000)", "plain\r", "\fplain"])
    def test_parse_kind_takes_ascii_blanks_only(self, kind):
        with pytest.raises(ValueError, match="weave kind"):
            parse_kind(kind)

    def test_parse_kind_allows_spaces_and_tabs(self):
        assert parse_kind("\t twill \t( \t2 ,\t1 \t) \t") == ("twill", [2, 1])
        assert parse_kind("plain( )") == ("plain", [])


class TestMixedWeave:
    def test_every_block_comes_from_the_pool(self):
        m = mixed_weave(4, 3, 12, 12, pool_seed=5, choice_seed=6)
        pool_rng = np.random.default_rng(5)
        motifs = [pool_rng.random((4, 4)) < 0.5 for _ in range(3)]
        for bi in range(3):
            for bj in range(3):
                block = m[4 * bi:4 * bi + 4, 4 * bj:4 * bj + 4]
                assert any(np.array_equal(block, motif) for motif in motifs)

    def test_pool_shared_choices_differ(self):
        a = mixed_weave(6, 6, 24, 24, pool_seed=1, choice_seed=10)
        b = mixed_weave(6, 6, 24, 24, pool_seed=1, choice_seed=11)
        assert not np.array_equal(a, b)
        blocks = lambda m: {m[6 * i:6 * i + 6, 6 * j:6 * j + 6].tobytes() for i in range(4) for j in range(4)}
        assert blocks(a) & blocks(b)  # same motif vocabulary

    def test_non_multiple_sizes_truncate(self):
        m = mixed_weave(6, 2, 10, 7, pool_seed=0, choice_seed=0)
        assert m.shape == (7, 10)

    def test_deterministic(self):
        a = mixed_weave(5, 4, 20, 20, pool_seed=2, choice_seed=3)
        assert np.array_equal(a, mixed_weave(5, 4, 20, 20, pool_seed=2, choice_seed=3))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 9), st.integers(1, 30), st.integers(1, 30),
           st.integers(0, 2**32), st.integers(0, 2**32))
    def test_pool_drawn_at_once_equals_one_draw_per_motif(self, block, pool, w, h, pool_seed, choice_seed):
        assert np.array_equal(mixed_weave(block, pool, w, h, pool_seed, choice_seed),
                              per_motif_mixed_weave(block, pool, w, h, pool_seed, choice_seed))

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="block"):
            mixed_weave(0, 2, 8, 8, 0, 0)
        with pytest.raises(ValueError, match="pool"):
            mixed_weave(4, 0, 8, 8, 0, 0)

    def test_spawned_seeds_give_different_mosaics(self):
        # like random(d), mixed(b, p) honours a child's spawn key, not only its entropy
        children = np.random.SeedSequence(5).spawn(2)
        for kind in ("random(0.5)", "mixed(4,2)"):
            a, b = (weave_matrix(kind, 12, 12, seed=child) for child in children)
            assert not np.array_equal(a, b), kind
        child = children[0]
        first = weave_matrix("mixed(4,2)", 12, 12, seed=child)
        assert np.array_equal(weave_matrix("mixed(4,2)", 12, 12, seed=child), first)
        assert child.n_children_spawned == 0  # the caller's sequence is copied, not spawned from
        # a sequence without a spawn key builds what its entropy alone builds
        assert np.array_equal(weave_matrix("mixed(4,2)", 12, 12, seed=np.random.SeedSequence(5)),
                              weave_matrix("mixed(4,2)", 12, 12, seed=5))

    def test_dispatcher_form(self):
        m = weave_matrix("mixed(6,6)", 24, 24, seed=9)
        assert m.shape == (24, 24)
        assert np.array_equal(m, weave_matrix("mixed(6,6)", 24, 24, seed=9))
        with pytest.raises(ValueError, match="seed"):
            weave_matrix("mixed(6,6)", 24, 24)


class TestTransforms:
    @settings(max_examples=60, deadline=None)
    @given(matrices)
    def test_involutions(self, m):
        assert np.array_equal(rotate180(rotate180(m)), m)
        assert np.array_equal(mirror(mirror(m)), m)

    def test_rotate90_four_times_is_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = rng.random((int(rng.integers(1, 9)), int(rng.integers(1, 9)))) < 0.5
            out = m
            for _ in range(4):
                out = rotate90(out)
            assert np.array_equal(out, m)

    def test_rotate90_swaps_roles_and_flips(self):
        m = np.array([[True, False]])
        r = rotate90(m)
        assert r.shape == (2, 1)
        assert r.astype(int).tolist() == [[1], [0]]

    def test_transform_dispatch(self):
        m = plain_weave(3, 2)
        assert np.array_equal(transform(m, "mirror"), mirror(m))
        assert np.array_equal(transform(m, "rotate90"), rotate90(m))
        assert np.array_equal(transform(m, "rotate180"), rotate180(m))
        assert TRANSFORM_OPS == ("rotate90", "rotate180", "mirror")  # the order corpora cycle through
        with pytest.raises(ValueError, match="unknown transform"):
            transform(m, "shear")

    def test_rotate180_preserves_graph_statistics(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = rng.random((5, 7)) < 0.5
            g, gr = grid_to_graph(m), grid_to_graph(rotate180(m))
            assert g.crossing_count == gr.crossing_count
            for graph in (g, gr):
                assert validate(graph).ok

            def label_counts(graph):
                out = {label: 0 for label in EdgeLabel}
                for i in range(graph.node_count):
                    out[edge_label(graph, i)] += 1
                return out

            assert label_counts(g) == label_counts(gr)


class TestPerturb:
    def test_rate_zero_is_identity(self):
        m = plain_weave(6, 6)
        assert np.array_equal(perturb(m, 0.0, 1), m)

    def test_rate_one_inverts_everything(self):
        m = plain_weave(6, 6)
        assert np.array_equal(perturb(m, 1.0, 1), ~m)

    def test_deterministic_and_within_binomial_support(self):
        m = plain_weave(24, 24)
        out1 = perturb(m, 0.05, 42)
        out2 = perturb(m, 0.05, 42)
        assert np.array_equal(out1, out2)
        flips = int((out1 ^ m).sum())
        assert 0 <= flips <= 576
        assert flips == int((perturb(m, 0.05, 42) ^ m).sum())

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            perturb(plain_weave(2, 2), 1.5, 0)


class TestGridToGraph:
    def test_single_cell(self):
        g = grid_to_graph([[True]])
        assert g.node_count == 4
        assert list(g.next_node) == [TERMINAL] * 4
        assert list(g.on_top) == [True, True, False, False]

    def test_2x2_plain_link_structure(self):
        g = grid_to_graph(plain_weave(2, 2))
        assert g.node_count == 16
        terminals = int((g.next_node == TERMINAL).sum())
        assert terminals == 8  # 2w + 2h
        assert (g.node_count - terminals) // 2 == 4  # internal links

    def test_warp_weft_slot_layout(self):
        m = np.array([[True, False]])
        g = grid_to_graph(m)
        # crossing (0,0): warp over -> slots 0,1 on top; crossing (0,1) inverted
        assert list(g.on_top[:4]) == [True, True, False, False]
        assert list(g.on_top[4:]) == [False, False, True, True]
        # weft link: slot 3 of (0,0) to slot 2 of (0,1)
        assert g.next_node[3] == 6 and g.next_node[6] == 3

    @settings(max_examples=80, deadline=None)
    @given(matrices)
    def test_always_validates(self, m):
        g = grid_to_graph(m)
        assert validate(g).ok
        assert int((g.next_node == TERMINAL).sum()) == 2 * (m.shape[0] + m.shape[1])

    @settings(max_examples=150, deadline=None)
    @given(matrices)
    @example(np.ones((1, 7), dtype=bool))
    @example(np.zeros((6, 1), dtype=bool))
    @example(np.array([[True]]))
    def test_matches_crossing_by_crossing_builder(self, m):
        g = grid_to_graph(m)
        for got, want in zip((g.next_node, g.on_top, g.opposite), loop_grid_arrays(m)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_always_validates_500_matrices_up_to_16(self):
        rng = np.random.default_rng(500)
        for _ in range(500):
            w, h = (int(x) for x in rng.integers(1, 17, size=2))
            assert validate(grid_to_graph(random_weave(0.5, w, h, rng.integers(1 << 62)))).ok

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            grid_to_graph(np.zeros((0, 3), dtype=bool))
