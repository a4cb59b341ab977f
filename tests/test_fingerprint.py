import importlib
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weftprint.fingerprint import (
    PAD,
    _decode_arm,
    arm_walk,
    canonical_neighborhood,
    crossing_neighborhood,
    fingerprint,
    fingerprint_to_text,
    format_neighborhood,
    parse_neighborhood,
    text_to_fingerprint,
)
import weftprint.graph as graph_mod
from weftprint.graph import TERMINAL, GraphParseError, InvalidGraphError, TextileGraph, parse_graph, serialize_graph, validate
from weftprint.weaves import (
    grid_to_graph,
    plain_weave,
    random_weave,
    transform,
    twill_weave,
    warp_above_weave,
)

from oracles import digit_loop_decode_arm, naive_fingerprint

fingerprint_mod = importlib.import_module("weftprint.fingerprint")  # the package's name fingerprint is the function


def interior_warp_arm(w, h):
    """A warp arm of the central crossing pointing into the grid."""
    i, j = h // 2, w // 2
    return 4 * (i * w + j)  # slot 0: warp arm towards row i-1


class TestArmWalk:
    def test_immediate_termination_pads(self):
        g = grid_to_graph([[True]])
        assert arm_walk(g, 0, 3) == "T" + PAD * 2

    def test_interior_plain_weave_alternates(self):
        g = grid_to_graph(plain_weave(9, 9))
        assert arm_walk(g, interior_warp_arm(9, 9), 2) == "AA"

    def test_2x2_plain_interior_arm_hits_boundary(self):
        g = grid_to_graph(plain_weave(2, 2))
        # crossing (0,0) slot 1: one neighbor below, then the grid ends
        assert arm_walk(g, 1, 3) == "AT" + PAD

    def test_warp_above_never_alternates(self):
        g = grid_to_graph(warp_above_weave(7, 7))
        assert arm_walk(g, interior_warp_arm(7, 7), 3) == "NNN"

    def test_walk_depth_validation(self):
        g = grid_to_graph([[True]])
        with pytest.raises(ValueError):
            arm_walk(g, 0, 0)
        with pytest.raises(IndexError):
            arm_walk(g, 4, 1)


class TestNeighborhood:
    def test_corner_of_2x2_plain(self):
        g = grid_to_graph(plain_weave(2, 2))
        assert crossing_neighborhood(g, 0, 1) == "A,T;A,T"

    def test_warp_above_interior(self):
        g = grid_to_graph(warp_above_weave(5, 5))
        assert crossing_neighborhood(g, 12, 1) == "N,N;N,N"

    def test_all_terminal_crossing(self):
        g = grid_to_graph([[True]])
        for k in (1, 2, 5):
            arm = "T" + PAD * (k - 1)
            assert crossing_neighborhood(g, 0, k) == f"{arm},{arm};{arm},{arm}"

    def test_canonicalization_ignores_input_order(self):
        a = canonical_neighborhood(("AA", "NT"), ("TA", "T" + PAD))
        assert a == canonical_neighborhood(("NT", "AA"), ("TA", "T" + PAD))
        assert a == canonical_neighborhood(("TA", "T" + PAD), ("AA", "NT"))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(alphabet="ANT" + PAD, min_size=3, max_size=3), min_size=4, max_size=4),
           st.permutations([0, 1, 2, 3]))
    def test_canonical_form_unique_per_class(self, arms, perm):
        base = canonical_neighborhood(arms[:2], arms[2:])
        shuffled = [arms[p] for p in perm]
        # permuting within pairs and swapping pairs must not matter
        variants = {
            canonical_neighborhood(shuffled[:2], shuffled[2:]),
            canonical_neighborhood(shuffled[2:], shuffled[:2]),
        }
        if {*perm[:2]} in ({0, 1}, {2, 3}):
            assert variants == {base}

    def test_mismatched_arm_lengths_rejected(self):
        with pytest.raises(ValueError):
            canonical_neighborhood(("AA", "A"), ("AA", "AA"))

    def test_crossing_index_validation(self):
        g = grid_to_graph([[True]])
        with pytest.raises(IndexError):
            crossing_neighborhood(g, 1, 1)


class TestFingerprint:
    def test_2x2_plain_single_neighborhood_count_4(self):
        fp = fingerprint(grid_to_graph(plain_weave(2, 2)), 1)
        assert fp == Counter({"A,T;A,T": 4})

    def test_single_crossing(self):
        for k in (1, 4):
            fp = fingerprint(grid_to_graph([[False]]), k)
            assert sum(fp.values()) == 1 and len(fp) == 1

    def test_counts_sum_to_crossing_count(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            w, h = int(rng.integers(1, 13)), int(rng.integers(1, 13))
            g = grid_to_graph(random_weave(0.5, w, h, rng.integers(1 << 31)))
            for k in (1, 3, 7):
                assert sum(fingerprint(g, k).values()) == g.crossing_count

    def test_matches_crossing_neighborhood_reference(self):
        g = grid_to_graph(twill_weave(3, 2, 10, 8))
        for k in (1, 2, 5):
            ref = Counter(crossing_neighborhood(g, c, k) for c in range(g.crossing_count))
            assert fingerprint(g, k) == ref

    def test_matches_naive_hyperedge_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            w, h = int(rng.integers(1, 13)), int(rng.integers(1, 13))
            g = grid_to_graph(random_weave(0.5, w, h, rng.integers(1 << 31)))
            for k in (1, 2, 4, 9):
                assert fingerprint(g, k) == naive_fingerprint(g, k)

    def test_orientation_invariance_sample(self):
        m = random_weave(0.5, 9, 6, 77)
        base = {k: fingerprint(grid_to_graph(m), k) for k in (1, 4)}
        for op in ("rotate90", "rotate180", "mirror"):
            g = grid_to_graph(transform(m, op))
            for k in (1, 4):
                assert fingerprint(g, k) == base[k], op

    def test_face_flip_invariance(self):
        m = random_weave(0.5, 8, 8, 5)
        g, flipped = grid_to_graph(m), grid_to_graph(~m)
        for k in (1, 3, 6):
            assert fingerprint(g, k) == fingerprint(flipped, k)

    def test_closed_loop_structure_fingerprints(self):
        text = (
            "crossings 2\n"
            "0 4 1 1\n1 5 1 0\n2 6 0 3\n3 7 0 2\n"
            "4 0 1 5\n5 1 1 4\n6 2 0 7\n7 3 0 6\n"
        )
        g = parse_graph(text)
        fp = fingerprint(g, 3)
        assert sum(fp.values()) == 2  # bounded walks, no hang on loops

    def test_invalid_top_structure_rejected(self):
        g = TextileGraph(
            np.array([TERMINAL] * 4), np.array([True, True, True, False]), np.array([1, 0, 3, 2])
        )
        with pytest.raises(InvalidGraphError, match=r"crossing 0: top-edge count != 2 \(found 3\)"):
            fingerprint(g, 2)
        # the message names the offending crossing
        g = TextileGraph(
            np.array([TERMINAL] * 8),
            np.array([True, True, False, False, True, False, False, False]),
            np.array([1, 0, 3, 2, 5, 4, 7, 6]),
        )
        with pytest.raises(InvalidGraphError, match=r"crossing 1: top-edge count != 2 \(found 1\)"):
            fingerprint(g, 2)
        g = TextileGraph(np.array([TERMINAL] * 4), np.array([True, False, True, False]), np.array([1, 0, 3, 2]))
        with pytest.raises(InvalidGraphError, match="node 0: on_top differs from its opposite node 1"):
            fingerprint(g, 2)

    @pytest.mark.parametrize("opp_block", [[1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    def test_every_partner_layout_matches_reference(self, opp_block):
        # .tg files may pair slots (0,1),(0,2) or (0,3); grids only use (0,1)
        tops = {0, opp_block[0]}
        top = np.array([i in tops for i in range(4)] * 2)
        nxt = np.array([4, 5, 6, 7, 0, 1, 2, 3])
        opp = np.array(opp_block + [x + 4 for x in opp_block])
        g = TextileGraph(nxt, top, opp)
        assert validate(g).ok
        for k in (1, 2, 4):
            ref = Counter(crossing_neighborhood(g, c, k) for c in range(2))
            assert fingerprint(g, k) == ref
            assert fingerprint(g, k) == naive_fingerprint(g, k)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 9),
           st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    def test_keys_and_order_match_reference_under_slot_permutations(self, w, h, k, seed, perm_seed):
        # Key order is output: the distance kernel sums norms and dots in it.
        base = grid_to_graph(random_weave(0.5, w, h, seed))
        rng = np.random.default_rng(perm_seed)
        n = base.crossing_count
        new_index = (4 * np.arange(n)[:, None] + rng.permuted(np.tile(np.arange(4), (n, 1)), axis=1)).ravel()
        nxt, top, opp = (np.empty_like(a) for a in (base.next_node, base.on_top, base.opposite))
        nxt[new_index] = np.where(base.next_node < 0, TERMINAL, new_index[base.next_node])
        top[new_index] = base.on_top
        opp[new_index] = new_index[base.opposite]
        for g in (base, TextileGraph(nxt, top, opp)):
            assert validate(g).ok
            ref = Counter(crossing_neighborhood(g, c, k) for c in range(n))
            assert list(fingerprint(g, k).items()) == list(ref.items())

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64).flatmap(lambda k: st.tuples(st.just(k), st.integers(4**k, 2 * 4**k - 1))))
    def test_decode_arm_matches_digit_loop(self, k_arm):
        # codes are a sentinel digit 1 and then k base-4 label digits
        k, arm = k_arm
        assert _decode_arm(arm) == digit_loop_decode_arm(arm, k)

    @pytest.mark.parametrize("state", ["cold", "warm", "full"])
    def test_key_table_keeps_keys_and_their_order(self, monkeypatch, state):
        table = {}
        monkeypatch.setattr(fingerprint_mod, "_KEY_NAMES", table)
        first, second = (grid_to_graph(random_weave(0.5, 9, 7, seed)) for seed in (1, 2))
        if state != "cold":
            fingerprint(first, 3)
        if state == "full":  # the second graph's new keys do not fit: it formats all of its keys itself
            monkeypatch.setattr(fingerprint_mod, "_KEY_TABLE_SIZE", len(table) + 1)
        before = dict(table)
        for g in (first, second):
            fp = fingerprint(g, 3)
            ref = Counter(crossing_neighborhood(g, c, 3) for c in range(g.crossing_count))
            assert list(fp.items()) == list(ref.items())
        if state == "full":
            assert table == before
        else:  # the keys are the table's own strings
            assert {id(name) for name in table.values()} >= {id(key) for key in fp}
        assert len(table) <= fingerprint_mod._KEY_TABLE_SIZE

    def test_deep_keys_stay_out_of_the_key_table(self, monkeypatch):
        monkeypatch.setattr(fingerprint_mod, "_KEY_NAMES", {})
        g = grid_to_graph(random_weave(0.5, 5, 4, 3))
        for k in (fingerprint_mod._KEY_TABLE_DEPTH + 1, 1):
            ref = Counter(crossing_neighborhood(g, c, k) for c in range(g.crossing_count))
            assert list(fingerprint(g, k).items()) == list(ref.items())
        assert {(len(key) - 3) // 4 for key in fingerprint_mod._KEY_NAMES.values()} == {1}

    def test_large_k_memory_is_linear(self):
        # a table of 4**d for d <= k would hold ~50 MB at this depth
        g = _one_crossing([TERMINAL] * 4)
        k = 20_000
        tracemalloc.start()
        try:
            fp = fingerprint(g, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arm = "T" + PAD * (k - 1)
        assert fp == {f"{arm},{arm};{arm},{arm}": 1}
        assert peak < 5_000_000


def _one_crossing(nxt, top=(True, True, False, False), opp=(1, 0, 3, 2)):
    return TextileGraph(np.array(nxt), np.array(top), np.array(opp))


INVALID_GRAPHS = {
    "link inside its own crossing": lambda: _one_crossing([1, 0, TERMINAL, TERMINAL]),
    "asymmetric link": lambda: TextileGraph(
        np.array([TERMINAL, 4, TERMINAL, TERMINAL, TERMINAL, TERMINAL, TERMINAL, TERMINAL]),
        np.array([True, True, False, False] * 2),
        np.array([1, 0, 3, 2, 5, 4, 7, 6]),
    ),
    "opposite out of range": lambda: _one_crossing([TERMINAL] * 4, opp=(1, 0, 3, 9)),
    "three top nodes": lambda: _one_crossing([TERMINAL] * 4, top=(True, True, True, False)),
}

WALKS = {
    "fingerprint": lambda g: fingerprint(g, 2),
    "arm_walk": lambda g: arm_walk(g, 0, 2),
    "crossing_neighborhood": lambda g: crossing_neighborhood(g, 0, 2),
}


class TestWalksCheckTheGraph:
    @pytest.mark.parametrize("walk", WALKS, ids=str)
    @pytest.mark.parametrize("make", INVALID_GRAPHS, ids=str)
    def test_every_walk_refuses_an_invalid_graph(self, make, walk):
        g = INVALID_GRAPHS[make]()
        report = validate(g)
        assert not report.ok
        with pytest.raises(InvalidGraphError) as caught:
            WALKS[walk](g)
        assert caught.value.violations == list(report.violations)
        with pytest.raises(InvalidGraphError):  # a refused graph stays refused
            WALKS[walk](g)

    def test_each_graph_is_validated_once_at_most(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return validate(g)

        def walk_repeatedly(g):
            for k in (1, 2, 4):
                fingerprint(g, k)
                arm_walk(g, 0, k)
                crossing_neighborhood(g, 0, k)

        monkeypatch.setattr(graph_mod, "validate", counting)
        parsed = parse_graph(serialize_graph(grid_to_graph(plain_weave(3, 2))))
        walk_repeatedly(parsed)
        assert calls == [parsed]  # parse_graph checks; its walks do not
        calls.clear()
        walk_repeatedly(grid_to_graph(random_weave(0.5, 4, 3, 11)))
        assert calls == []  # valid by construction
        hand_built = TextileGraph(np.array([4, 5, 6, 7, 0, 1, 2, 3]),
                                  np.array([True, True, False, False] * 2),
                                  np.array([1, 0, 3, 2, 5, 4, 7, 6]))
        assert calls == []  # construction does not check
        walk_repeatedly(hand_built)
        assert calls == [hand_built]  # the first walk checks, once


def _walks(depth):
    return st.text("AN", max_size=depth).map(lambda s: s if len(s) == depth else (s + "T").ljust(depth, PAD))


@st.composite
def _counters(draw):
    """Dicts of canonical keys, mostly of one depth, keys of any arm order or length, other strings, and counts."""
    depth = draw(st.integers(1, 2))
    canonical = st.lists(_walks(depth), min_size=4, max_size=4).map(lambda a: canonical_neighborhood(a[:2], a[2:]))
    deeper = st.lists(_walks(depth + 1), min_size=4, max_size=4).map(lambda a: canonical_neighborhood(a[:2], a[2:]))
    arms = st.lists(_walks(depth) | st.text("ANT_0", max_size=depth + 1), min_size=4, max_size=4)
    spelled = arms.map(lambda a: f"{a[0]},{a[1]};{a[2]},{a[3]}")
    key = st.one_of(canonical, canonical, deeper, spelled, st.text(max_size=12))
    return draw(st.dictionaries(key, st.integers(1, 3) | st.integers(-1, 0), max_size=4))


class TestFingerprintFiles:
    def test_format_uses_zero_padding(self):
        assert format_neighborhood(f"A{PAD},TA;NN,NN") == "A0,TA;NN,NN"

    def test_parse_round_trips_and_canonicalizes(self):
        assert parse_neighborhood("AA,T0;AN,NT") == f"AA,T{PAD};AN,NT"
        assert parse_neighborhood("NT,AN;T0,AA") == f"AA,T{PAD};AN,NT"

    def test_parse_rejects_arms_that_are_not_walks(self):
        # An arm is [AN]*(T0*)?: pads only after a T, nothing after the pads.
        for bad in ("0A,A0;AA,AA", "A0,AA;AA,AA", "TA,AA;AA,AA", "TT,AA;AA,AA", "T0A,AAA;AAA,AAA", "0,A;A,A"):
            with pytest.raises(ValueError, match="not a walk"):
                parse_neighborhood(bad)
        assert parse_neighborhood("AT,T0;NA,NN") == f"AT,T{PAD};NA,NN"

    def test_parse_rejects_malformed_keys(self):
        for bad, message in [
            ("AA,AA", "two ';'-joined pairs"),
            ("AA;AA;AA", "two ';'-joined pairs"),
            ("AA;AA,AA", "each pair must have two ','-joined arms"),
            ("AA,AA;AA", "each pair must have two ','-joined arms"),
            ("AA,A;AA,AA", "share one positive length"),
            (",;,", "share one positive length"),
            ("AX,AA;AA,AA", "not a walk"),
        ]:
            with pytest.raises(ValueError, match=message):
                parse_neighborhood(bad)

    def test_text_round_trip_sorted(self):
        fp = fingerprint(grid_to_graph(twill_weave(2, 1, 9, 9)), 2)
        text = fingerprint_to_text(fp)
        lines = text.strip().splitlines()
        assert lines == sorted(lines)
        assert text_to_fingerprint(text) == fp

    def test_text_rejects_bad_counts(self):
        with pytest.raises(GraphParseError, match="^line 1, column 9: count must be >= 1, got 0$"):
            text_to_fingerprint("A,A;A,A 0\n")

    def test_text_refuses_a_repeated_neighborhood(self):
        # two spellings of one neighborhood are one neighborhood
        with pytest.raises(GraphParseError, match="^line 3, column 2: neighborhood 'NT,AN;T0,AA' repeats line 1$"):
            text_to_fingerprint("AA,T0;AN,NT 2\nAA,AA;AA,AA 1\n\tNT,AN;T0,AA 3\n")

    def test_text_reports_non_integer_count_with_line(self):
        # .fp errors are GraphParseErrors, a ValueError, placed as the .tg reader places them
        with pytest.raises(GraphParseError, match=r"^line 2, column 9: count: 'x' is not an integer$") as err:
            text_to_fingerprint("A,A;A,A 1\nA,A;A,T x\n")
        assert (err.value.line, err.value.column) == (2, 9)

    @pytest.mark.parametrize("text, message", [
        ("A,A;A,A 1 2\n", "line 1: expected '<key> <count>', got 'A,A;A,A 1 2'"),
        ("A,A;A,A\n", "line 1: expected '<key> <count>', got 'A,A;A,A'"),
        ("A,A;A,A 1\n  A;A,A 1\n", "line 2, column 3: each pair must have two ','-joined arms: 'A;A,A'"),
        ("A,A;A,A 1\nAX,AA;AA,AA 1\n", "line 2, column 1: arm 'AX' is not a walk"),
    ], ids=["three_fields", "one_field", "one_arm_pair", "bad_arm"])
    def test_text_errors_name_their_line_and_column(self, text, message):
        with pytest.raises(GraphParseError, match=f"^{re.escape(message)}"):
            text_to_fingerprint(text)

    @pytest.mark.parametrize("count", ["1_0", "\u0663", "2.0"])
    def test_text_count_takes_ascii_digits_only(self, count):
        with pytest.raises(GraphParseError, match=f"^line 2, column 9: count: {count!r} is not an integer$"):
            text_to_fingerprint(f"A,A;A,A 1\nA,A;A,T {count}\n")

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x85", "\u2028"])
    def test_text_lines_end_at_lf_and_cr_only(self, char):
        # str.splitlines would count a second line inside the comment
        with pytest.raises(GraphParseError, match="^line 2, column 9: ") as err:
            text_to_fingerprint(f"# note{char}more\nA,A;A,A x\n")
        assert err.value.line == 2
        assert text_to_fingerprint("A,A;A,A 1\r\nA,A;A,T 2\rN,N;A,A 3") == {"A,A;A,A": 1, "A,A;A,T": 2, "A,A;N,N": 3}

    def test_text_fields_split_at_spaces_and_tabs_only(self):
        assert text_to_fingerprint(" A,A;A,A\t\t2 \n") == {"A,A;A,A": 2}
        with pytest.raises(GraphParseError, match="^line 1: expected '<key> <count>'"):
            text_to_fingerprint("A,A;A,A\u00a02\n")

    def test_text_rejects_mixed_depths(self):
        with pytest.raises(GraphParseError, match="^line 2, column 2: neighborhood depth differs from earlier lines$"):
            text_to_fingerprint("A,A;A,A 1\n\tAA,AA;AA,AA 1\n")

    def test_text_accepts_a_plus_sign(self):
        assert text_to_fingerprint("A,A;A,A +3\n") == {"A,A;A,A": 3}

    @pytest.mark.parametrize("count, shown", [("subtracted", "0"), (1.5, "1.5"), (-1, "-1"), (True, "True")],
                             ids=["zero_after_subtract", "fraction", "negative", "bool"])
    def test_text_writer_refuses_unreadable_counts(self, tmp_path, count, shown):
        from weftprint.fingerprint import save_fingerprint

        if count == "subtracted":
            fp = Counter({"A,A;A,A": 2, "A,A;A,T": 1})
            fp.subtract({"A,A;A,T": 1})
        else:
            fp = Counter({"A,A;A,A": 2, "A,A;A,T": count})
        with pytest.raises(ValueError, match=f"^count of 'A,A;A,T' must be an int >= 1, got {shown}$"):
            save_fingerprint(fp, tmp_path / "x.fp")
        assert not (tmp_path / "x.fp").exists()

    @pytest.mark.parametrize("fp, message", [
        (Counter({"foo": 1}), "neighborhood 'foo' is not canonical"),
        (Counter({"AA,T_;AN,NT": 1, "NT,AN;T_,AA": 2}), "neighborhood 'NT,AN;T_,AA' is not canonical"),
        (Counter({"AA,T0;AN,NT": 1}), "neighborhood 'AA,T0;AN,NT' is not canonical"),  # '0' is the pad on disk only
        (Counter({"AN,NT;AA,T_": 1}), "neighborhood 'AN,NT;AA,T_' is not canonical"),  # pairs out of order
        (Counter({"A,A;A,A": 1, "AA,AA;AA,AA": 1}), "neighborhoods of depths [1, 2] in one fingerprint"),
        (Counter({",;,": 1}), "neighborhood ',;,' is not canonical"),
        (Counter({1: 1}), "neighborhood '1' is not canonical"),
    ], ids=["not_a_key", "second_spelling", "file_pad", "pair_order", "mixed_depths", "empty_arms", "not_a_string"])
    def test_text_writer_refuses_unreadable_keys(self, tmp_path, fp, message):
        from weftprint.fingerprint import save_fingerprint

        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            save_fingerprint(fp, tmp_path / "x.fp")
        assert not (tmp_path / "x.fp").exists()

    @settings(max_examples=300, deadline=None)
    @given(_counters())
    @example({"AA,AN;AT,NT": 2, "AN,NN;T_,T_": 1})
    def test_text_writer_accepts_exactly_what_reads_back_equal(self, fp):
        # The writer's checks against the reader: text written without them reads back equal just when they pass.
        unchecked = "".join(f"{format_neighborhood(nb)} {count}\n" for nb, count in sorted(fp.items()))
        try:
            equal = dict(text_to_fingerprint(unchecked)) == fp  # a Counter would count a 0 as missing
        except ValueError:
            equal = False
        try:
            text = fingerprint_to_text(Counter(fp))
        except ValueError:
            assert not equal
        else:
            assert equal and text == unchecked

    def test_the_writer_of_fp_files_leaves_a_file_whose_text_it_refuses(self, tmp_path):
        # a fingerprint's text is ASCII by construction; the one writer it goes through encodes before it opens
        from weftprint import textio

        path = tmp_path / "x.fp"
        path.write_text("A,A;A,A 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8: character 10: surrogates not allowed$"):
            textio.write_text(path, "A,A;A,A 2\n\udc80")
        assert path.read_text(encoding="utf-8") == "A,A;A,A 1\n"

    def test_save_load(self, tmp_path):
        from weftprint.fingerprint import load_fingerprint, save_fingerprint

        fp = fingerprint(grid_to_graph(plain_weave(3, 3)), 2)
        save_fingerprint(fp, tmp_path / "x.fp")
        assert load_fingerprint(tmp_path / "x.fp") == fp
