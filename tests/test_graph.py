import os
import pickle
import re
import subprocess
import sys
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weftprint.graph as graph_module
from weftprint.graph import (
    TERMINAL,
    EdgeLabel,
    GraphParseError,
    InvalidGraphError,
    TextileGraph,
    _parse_canonical,
    _parse_lines,
    edge_label,
    load_graph,
    parse_graph,
    save_graph,
    serialize_graph,
    validate,
)
from weftprint.corpus import load_corpus_spec, read_manifest
from weftprint.distance import load_distance_matrix
from weftprint.fingerprint import fingerprint, load_fingerprint
from weftprint.weaves import grid_to_graph, plain_weave, random_weave

from oracles import format_serialize_graph, implied_partner_violations, naive_validate, regex_parse_canonical

ONE_CROSSING = """\
crossings 1
0 -1 1 1
1 -1 1 0
2 -1 0 3
3 -1 0 2
"""


def graph_from_rows(rows):
    nxt, top, opp = zip(*rows)
    return TextileGraph(np.array(nxt), np.array(top, dtype=bool), np.array(opp))


def closed_loop_graph():
    """Two crossings, all four arms linked pairwise: no thread ends at all."""
    rows = [
        (4, 1, 1), (5, 1, 0), (6, 0, 3), (7, 0, 2),
        (0, 1, 5), (1, 1, 4), (2, 0, 7), (3, 0, 6),
    ]
    return graph_from_rows(rows)


class TestParse:
    def test_smallest_legal_graph(self):
        g = parse_graph(ONE_CROSSING)
        assert g.crossing_count == 1
        assert list(g.next_node) == [TERMINAL] * 4
        assert list(g.on_top) == [True, True, False, False]
        assert list(g.opposite) == [1, 0, 3, 2]

    def test_comments_and_blank_lines_ignored(self):
        noisy = "# header\n\n" + ONE_CROSSING.replace("0 -1 1 1", "0 -1 1 1\n# mid comment\n")
        assert parse_graph(noisy) == parse_graph(ONE_CROSSING)

    @pytest.mark.parametrize("text", ["", "\n# only a comment\n \t\n"], ids=["empty", "comments_only"])
    def test_empty_file(self, text):
        with pytest.raises(GraphParseError, match="^empty graph file$"):
            parse_graph(text)

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_only_lf_and_cr_end_a_line(self, char):
        # str.splitlines would end the comment at char and read the rest as the header
        text = f"# a comment{char} that goes on\n" + ONE_CROSSING
        assert parse_graph(text) == parse_graph(ONE_CROSSING)
        with pytest.raises(GraphParseError, match="crossing count") as err:
            parse_graph(f"# note{char} more\ncrossings x\n")
        assert (err.value.line, err.value.column) == (2, 11)

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_cr_lf_and_cr_end_a_line(self, end):
        assert parse_graph(ONE_CROSSING.replace("\n", end)) == parse_graph(ONE_CROSSING)

    def test_only_spaces_and_tabs_separate_fields(self):
        assert parse_graph(ONE_CROSSING.replace("2 -1 0 3", "\t2\t-1  0 3 \t")) == parse_graph(ONE_CROSSING)
        text = ONE_CROSSING.replace("2 -1 0 3", "2\u00a0-1 0 3")
        with pytest.raises(GraphParseError, match="expected 4 fields '<id> <next> <top> <opp>', got 3") as err:
            parse_graph(text)
        assert err.value.line == 4

    def test_node_count_mismatch(self):
        text = ONE_CROSSING + "4 -1 1 5\n"
        with pytest.raises(GraphParseError, match=r"node count 5 does not match 4\*1"):
            parse_graph(text)

    def test_missing_header(self):
        with pytest.raises(GraphParseError, match="crossings"):
            parse_graph("0 -1 1 1\n")

    def test_zero_crossings_rejected(self):
        with pytest.raises(GraphParseError, match=">= 1"):
            parse_graph("crossings 0\n")

    def test_bad_integer_reports_line_and_column(self):
        text = ONE_CROSSING.replace("2 -1 0 3", "2 oops 0 3")
        with pytest.raises(GraphParseError) as err:
            parse_graph(text)
        assert err.value.line == 4
        assert err.value.column == 3

    @pytest.mark.parametrize("token", ["0_1", "\u0663", "1.0"])
    def test_only_ascii_digit_integers(self, token):
        text = ONE_CROSSING.replace("2 -1 0 3", f"2 {token} 0 3")
        with pytest.raises(GraphParseError, match=f"next index: {token!r} is not an integer") as err:
            parse_graph(text)
        assert (err.value.line, err.value.column) == (4, 3)

    def test_integers_past_the_digit_limit_name_their_place(self):
        # int() refuses more digits than sys.get_int_max_str_digits() allows
        text = ONE_CROSSING.replace("2 -1 0 3", f"2 {'1' * 5000} 0 3")
        with pytest.raises(GraphParseError, match="^line 4, column 3: next index: integer has too many digits: 5000$"):
            parse_graph(text)

    def test_signed_integers_are_accepted(self):
        text = ONE_CROSSING.replace("2 -1 0 3", "+2 -1 -0 +3")
        assert parse_graph(text) == parse_graph(ONE_CROSSING)

    def test_next_index_out_of_range(self):
        text = ONE_CROSSING.replace("0 -1 1 1", "0 9 1 1")
        with pytest.raises(GraphParseError, match="out of range"):
            parse_graph(text)

    def test_node_ids_must_be_in_order(self):
        text = ONE_CROSSING.replace("1 -1 1 0", "2 -1 1 0", 1)
        with pytest.raises(GraphParseError, match="out of order"):
            parse_graph(text)

    def test_top_flag_must_be_binary(self):
        text = ONE_CROSSING.replace("0 -1 1 1", "0 -1 2 1")
        with pytest.raises(GraphParseError, match="top flag"):
            parse_graph(text)

    def test_error_column_is_the_fields_own_position(self):
        # The bad flag's text "2" also appears earlier on the line.
        text = ONE_CROSSING.replace("2 -1 0 3", "2 2 2 3")
        with pytest.raises(GraphParseError, match="top flag") as err:
            parse_graph(text)
        assert (err.value.line, err.value.column) == (4, 5)

    def test_header_error_column_is_the_fields_own_position(self):
        # "ss" also appears inside the word "crossings".
        with pytest.raises(GraphParseError, match="crossing count") as err:
            parse_graph("crossings ss\n")
        assert (err.value.line, err.value.column) == (1, 11)

    def test_other_spellings_parse_like_canonical_text(self):
        spelled = "\n  crossings\t+1\r\n0 -1 1 01\n1  -1 1 0\n# note\n2 -1 0 3\n3 -1 0 +2"
        assert _parse_canonical(spelled) is None
        assert parse_graph(spelled) == parse_graph(ONE_CROSSING)

    def test_semantically_invalid_graph_rejected(self):
        # next(0)=4 but next(4) stays terminal: asymmetric thread link
        text = (
            "crossings 2\n"
            "0 4 1 1\n1 -1 1 0\n2 -1 0 3\n3 -1 0 2\n"
            "4 -1 1 5\n5 -1 1 4\n6 -1 0 7\n7 -1 0 6\n"
        )
        with pytest.raises(InvalidGraphError, match="asymmetric"):
            parse_graph(text)

    def test_errors_survive_pickling(self):
        # an error sent between processes goes pickled
        invalid = InvalidGraphError(["node 0: a", "node 1: b", "node 2: c", "node 3: d"])
        back = pickle.loads(pickle.dumps(invalid))
        assert (type(back), str(back), back.violations) == (InvalidGraphError, str(invalid), invalid.violations)
        with pytest.raises(GraphParseError) as err:
            parse_graph("crossings ss\n")
        back = pickle.loads(pickle.dumps(err.value))
        assert (type(back), str(back), back.line, back.column) == (GraphParseError, str(err.value), 1, 11)


class TestSerialize:
    def test_round_trip_smallest(self):
        g = parse_graph(ONE_CROSSING)
        text = serialize_graph(g)
        assert parse_graph(text) == g
        # same text modulo the comment header
        body = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
        assert body + "\n" == ONE_CROSSING

    def test_serialize_deterministic(self):
        g = grid_to_graph(plain_weave(3, 2))
        assert serialize_graph(g) == serialize_graph(g)

    def test_plain_2x2_terminal_count(self):
        text = serialize_graph(grid_to_graph(plain_weave(2, 2)))
        node_lines = [l for l in text.splitlines() if l and not l.startswith(("#", "crossings"))]
        assert len(node_lines) == 16
        assert sum(1 for l in node_lines if l.split()[1] == "-1") == 8

    def test_round_trip_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            w, h = rng.integers(1, 9, size=2)
            g = grid_to_graph(random_weave(0.5, int(w), int(h), rng.integers(1 << 31)))
            assert parse_graph(serialize_graph(g)) == g


class TestValidate:
    def test_generator_output_validates(self):
        assert validate(grid_to_graph(plain_weave(2, 2))).ok

    def test_three_tops_in_one_crossing(self):
        g = graph_from_rows([(-1, 1, 1), (-1, 1, 0), (-1, 1, 3), (-1, 0, 2)])
        report = validate(g)
        assert not report.ok
        assert any("top-edge count != 2" in v for v in report.violations)

    def test_asymmetric_thread_link(self):
        rows = [
            (4, 1, 1), (-1, 1, 0), (-1, 0, 3), (-1, 0, 2),
            (1, 1, 5), (-1, 1, 4), (-1, 0, 7), (-1, 0, 6),
        ]
        report = validate(graph_from_rows(rows))
        assert any("asymmetric thread link" in v and "node 0" in v for v in report.violations)

    def test_self_opposite_rejected(self):
        g = graph_from_rows([(-1, 1, 0), (-1, 1, 1), (-1, 0, 3), (-1, 0, 2)])
        assert any("itself" in v for v in validate(g).violations)

    def test_opposite_must_stay_in_crossing(self):
        rows = [
            (-1, 1, 5), (-1, 1, 4), (-1, 0, 3), (-1, 0, 2),
            (-1, 1, 1), (-1, 1, 0), (-1, 0, 7), (-1, 0, 6),
        ]
        assert any("different crossing" in v for v in validate(graph_from_rows(rows)).violations)

    def test_top_flag_mismatch_within_pair(self):
        g = graph_from_rows([(-1, 1, 1), (-1, 0, 0), (-1, 0, 3), (-1, 1, 2)])
        assert any("on_top differs" in v or "not opposite partners" in v for v in validate(g).violations)

    def test_thread_link_within_own_crossing(self):
        g = graph_from_rows([(2, 1, 1), (-1, 1, 0), (0, 0, 3), (-1, 0, 2)])
        assert any("own crossing" in v for v in validate(g).violations)

    def test_node_count_not_multiple_of_four(self):
        g = TextileGraph(np.array([-1, -1]), np.array([True, True]), np.array([1, 0]))
        assert any("multiple of four" in v for v in validate(g).violations)

    def test_closed_loop_graph_is_legal(self):
        assert validate(closed_loop_graph()).ok


class TestEdgeLabel:
    def test_alternating_when_level_changes(self):
        g = closed_loop_graph()
        # invert crossing 1's levels: every link now changes level
        rows_top = np.array([True, True, False, False, False, False, True, True])
        g2 = TextileGraph(g.next_node, rows_top, g.opposite)
        assert validate(g2).ok
        assert edge_label(g2, 0) == EdgeLabel.ALTERNATING

    def test_non_alternating_when_level_kept(self):
        assert edge_label(closed_loop_graph(), 0) == EdgeLabel.NON_ALTERNATING

    def test_terminated_wins_regardless_of_levels(self):
        g = parse_graph(ONE_CROSSING)
        assert all(edge_label(g, i) == EdgeLabel.TERMINATED for i in range(4))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            edge_label(parse_graph(ONE_CROSSING), 4)

    def test_label_symmetry_over_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            g = grid_to_graph(random_weave(0.5, 6, 5, rng.integers(1 << 31)))
            for i in range(g.node_count):
                j = g.next_node[i]
                if j != TERMINAL:
                    assert edge_label(g, i) == edge_label(g, int(j))

    def test_terminated_labels_even_and_match_boundary(self):
        for w, h in [(1, 1), (2, 2), (5, 3)]:
            g = grid_to_graph(plain_weave(w, h))
            terminated = sum(1 for i in range(g.node_count) if edge_label(g, i) == EdgeLabel.TERMINATED)
            assert terminated == 2 * (w + h)
            assert terminated % 2 == 0

    def test_broken_graph_refused(self):
        # numpy would wrap the -2 and answer ALTERNATING; the label reads the checked arrays
        g = TextileGraph([-2, -1, -1, -1], [True, True, False, False], [1, 0, 3, 2])
        assert "node 0: next index -2 out of range" in validate(g).violations
        with pytest.raises(InvalidGraphError, match="next index -2 out of range"):
            edge_label(g, 0)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**31))
def test_parse_serialize_identity_property(w, h, seed):
    g = grid_to_graph(random_weave(0.5, w, h, seed))
    text = serialize_graph(g)
    assert parse_graph(text) == g
    # Canonical text takes the fast path, which reads what the reference reads.
    fast = _parse_canonical(text)
    assert fast is not None
    assert TextileGraph(*fast) == TextileGraph(*_parse_lines(text)) == g


# --- fast path against the reference reader ----------------------------------

_ODD_TOKENS = ["+1", "-0", "007", "1_0", "x", "-2", "2", "-1", "10" * 12, "\u0663", "1.0", "",
               "-", "--1", "1-1", "-01", "00", "9" * 18, "9" * 19, "\x00"]


def _reference_parse(text):
    """The line-by-line reader plus the loop-based validation oracle."""
    g = TextileGraph(*_parse_lines(text))
    violations = naive_validate(g)
    if violations:
        raise InvalidGraphError(violations)
    return g


def _outcome(parse, text):
    try:
        return parse(text)
    except (GraphParseError, InvalidGraphError) as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)


@st.composite
def mutated_tg_text(draw):
    """Serialized graph text after a few token, line, spelling and byte mutations."""
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    g = grid_to_graph(random_weave(0.5, w, h, draw(st.integers(0, 2**31))))
    size = g.node_count
    lines = serialize_graph(g).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        tokens = lines[at].split(" ")
        pos = draw(st.integers(0, len(tokens) - 1))
        op = draw(st.sampled_from([
            "swap", "drop", "duplicate", "value", "odd", "sign", "tab", "space", "indent",
            "comment", "blank", "drop_line", "duplicate_line", "crlf", "top", "id",
        ]))
        if op == "swap":
            other = draw(st.integers(0, len(tokens) - 1))
            tokens[pos], tokens[other] = tokens[other], tokens[pos]
        elif op == "drop":
            del tokens[pos]
        elif op == "duplicate":
            tokens.insert(pos, tokens[pos])
        elif op == "value":
            tokens[pos] = str(draw(st.sampled_from([size, size - 1, size + 1, -1, 0, 1, 4 * size])))
        elif op == "odd":
            tokens[pos] = draw(st.sampled_from(_ODD_TOKENS))
        elif op == "sign":
            tokens[pos] = "+" + tokens[pos]
        elif op == "tab":
            tokens[pos] = tokens[pos] + "\t"
        elif op == "space":
            tokens[pos] = tokens[pos] + " "
        elif op == "indent":
            tokens[0] = draw(st.sampled_from([" ", "\t", "\u00a0"])) + tokens[0]
        elif op == "comment":
            lines.insert(at, draw(st.sampled_from(["# comment", "  # indented", "#"])))
            continue
        elif op == "blank":
            lines.insert(at, draw(st.sampled_from(["", "   ", "\t"])))
            continue
        elif op == "drop_line":
            del lines[at]
            continue
        elif op == "duplicate_line":
            lines.insert(at, lines[at])
            continue
        elif op == "crlf":
            tokens[-1] = tokens[-1] + "\r"
        elif op == "top" and len(tokens) == 4:
            tokens[2] = "0" if tokens[2] == "1" else "1"
        elif op == "id" and len(tokens) == 4:
            tokens[0] = str(draw(st.integers(0, size)))
        lines[at] = " ".join(tokens)
    text = "\n".join(lines)
    if draw(st.booleans()):  # no final LF
        text = text.rstrip("\n")
    for _ in range(draw(st.integers(0, 2))):  # byte edits that keep to the canonical alphabet, or nearly
        at = draw(st.integers(0, len(text)))
        drop = draw(st.integers(0, 1))
        text = text[:at] + draw(st.sampled_from("0123456789 -\n\x00+")) + text[at + drop:]
    return text


_CANONICAL_ALPHABET_TOKENS = ["-", "--1", "1-1", "-0", "-01", "-2", "-10", "00", "01", "1" + "0" * 17, "9" * 19]


@st.composite
def near_canonical_tg_text(draw):
    """Serialized graph text with one edit: a field or a separator respelled, a space and an LF swapped,
    or digits after the final LF."""
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    g = grid_to_graph(random_weave(0.5, w, h, draw(st.integers(0, 2**31))))
    comment, header, body = serialize_graph(g).split("\n", 2)
    fields = re.split("( |\n)", body)  # fields at even positions, separators at odd ones
    op = draw(st.sampled_from(["field", "separator", "swap", "tail"]))
    if op == "field":
        fields[2 * draw(st.integers(0, 4 * g.node_count - 1))] = draw(st.sampled_from(_CANONICAL_ALPHABET_TOKENS))
    elif op == "separator":
        fields[2 * draw(st.integers(0, 4 * g.node_count - 1)) + 1] = draw(st.sampled_from("\t\r\x00\x0b"))
    elif op == "tail":
        fields[-1] = draw(st.sampled_from(["0", "12", "-1"]))
    else:
        space = 2 * draw(st.integers(0, 4 * g.node_count - 1)) + 1
        lf = 8 * draw(st.integers(0, g.node_count - 1)) + 7
        fields[space], fields[lf] = fields[lf], fields[space]
    return f"{comment}\n{header}\n" + "".join(fields)


def _fallback(line, replacement, outcome):
    return pytest.param(line, replacement, outcome, id=f"{line}-{replacement}")


@pytest.mark.parametrize("line, replacement, outcome", [
    _fallback("0 -1 1 1", "0 -1 1 4", GraphParseError),  # opposite index = node count
    _fallback("0 -1 1 1", "0 4 1 1", GraphParseError),  # next index = node count
    _fallback("1 -1 1 0", "2 -1 1 0", GraphParseError),  # id out of order
    _fallback("3 -1 0 2", "3 -1 0 2\n4 -1 0 2", GraphParseError),  # one node line too many
    # bytes outside the canonical spelling; the line reader reads some of them as ONE_CROSSING
    _fallback("0 -1 1 1", "0 - 1 1", GraphParseError),
    _fallback("0 -1 1 1", "0 --1 1 1", GraphParseError),
    _fallback("0 -1 1 1", "0 1-1 1 1", GraphParseError),
    _fallback("0 -1 1 1", "-0 -1 1 1", TextileGraph),
    _fallback("0 -1 1 1", "0 -01 1 1", TextileGraph),
    _fallback("1 -1 1 0", "1 -1 1 00", TextileGraph),
    _fallback("0 -1 1 1", f"0 {'1' + '0' * 17} 1 1", GraphParseError),  # 18 digits: read, then out of range
    _fallback("0 -1 1 1", f"0 {'9' * 19} 1 1", GraphParseError),  # 19 digits: past int64
    _fallback("0 -1 1 1", "0 -1 1\x001", GraphParseError),
    _fallback("2 -1 0 3", "2 -1 0 \u0663", GraphParseError),
    _fallback("0 -1 1 1", "0 -0 1 1", InvalidGraphError),  # next(0) = 0, in its own crossing
    _fallback("3 -1 0 2\n", "3 -1 0 2", TextileGraph),  # no final LF
    _fallback("3 -1 0 2\n", "3 -1 0 2\n4", GraphParseError),  # digits after the final LF
    _fallback("0 -1 1 1\n1 -1 1 0", "0 -1 1\n1 1 -1 1 0", GraphParseError),  # same fields, lines broken elsewhere
])
def test_canonical_spelling_with_bad_values_falls_back(line, replacement, outcome):
    text = ONE_CROSSING.replace(line, replacement)
    assert text != ONE_CROSSING
    assert _parse_canonical(text) is None
    assert regex_parse_canonical(text) is None
    got = _outcome(parse_graph, text)
    assert got == _outcome(_reference_parse, text)
    if outcome is TextileGraph:
        assert got == parse_graph(ONE_CROSSING)
    else:
        assert got[0] is outcome


def _assert_same_arrays(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(mutated_tg_text(), near_canonical_tg_text()))
def test_canonical_reader_matches_regex_oracle(text):
    fast, oracle = _parse_canonical(text), regex_parse_canonical(text)
    assert (fast is None) == (oracle is None)
    if fast is not None:
        _assert_same_arrays(fast, oracle)


@settings(max_examples=400, deadline=None)
@given(st.one_of(mutated_tg_text(), near_canonical_tg_text()))
def test_fast_path_matches_reference_reader(text):
    # Any other exception type escapes _outcome and fails the test.
    assert _outcome(parse_graph, text) == _outcome(_reference_parse, text)
    fast = _parse_canonical(text)
    if fast is not None:
        _assert_same_arrays(fast, _parse_lines(text))


# --- loop-free validate against the loop-based oracle --------------------------


@st.composite
def mutated_graph(draw):
    """A valid graph with a few of its invariants broken on purpose."""
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    g = grid_to_graph(random_weave(0.5, w, h, draw(st.integers(0, 2**31))))
    nxt, top, opp = g.next_node.copy(), g.on_top.copy(), g.opposite.copy()
    size = len(nxt)
    node = st.integers(0, size - 1)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(node)
        b = 4 * (i // 4)
        op = draw(st.sampled_from([
            "flip_top", "three_tops", "split_tops", "link", "in_crossing_link",
            "next_out_of_range", "opposite", "opposite_out_of_range", "truncate",
        ]))
        if op == "flip_top":
            top[i] = not top[i]
        elif op == "three_tops":
            top[b:b + 4] = True
            top[b + draw(st.integers(0, 3))] = False
        elif op == "split_tops":
            # one top node on each thread of the crossing
            top[b:b + 4] = False
            top[i] = True
            top[b + (opp[i] - b + draw(st.integers(1, 2))) % 4] = True
        elif op == "link":
            nxt[i] = draw(node)
        elif op == "in_crossing_link":
            nxt[i] = b + draw(st.integers(0, 3))
        elif op == "next_out_of_range":
            nxt[i] = draw(st.sampled_from([-3, -2, size, size + 5]))
        elif op == "opposite":
            opp[i] = draw(node)
        elif op == "opposite_out_of_range":
            opp[i] = draw(st.sampled_from([-1, size, size + 2]))
        elif op == "truncate":
            keep = draw(st.integers(0, size - 1))
            nxt, top, opp = nxt[:keep], top[:keep], opp[:keep]
            break
    return TextileGraph(nxt, top, opp)


@settings(max_examples=400, deadline=None)
@given(mutated_graph())
def test_validate_matches_loop_oracle(g):
    assert validate(g).violations == naive_validate(g)


def test_validate_matches_loop_oracle_on_broken_partners():
    # Crossing 0: tops on slots 0 and 2, but 0's partner is 1; the top flags of the pairs tell.
    g = graph_from_rows([(-1, 1, 1), (-1, 0, 0), (-1, 1, 3), (-1, 0, 2)])
    violations = validate(g).violations
    assert violations == (
        "node 0: on_top differs from its opposite node 1",
        "node 1: on_top differs from its opposite node 0",
        "node 2: on_top differs from its opposite node 3",
        "node 3: on_top differs from its opposite node 2",
    )
    assert violations == naive_validate(g)
    assert implied_partner_violations(g)


@settings(max_examples=400, deadline=None)
@given(mutated_graph())
def test_validate_refuses_what_the_partner_rules_refused(g):
    # validate no longer states the involution and top-partner rules: the others imply them
    parent_refuses = bool(naive_validate(g) or implied_partner_violations(g))
    assert validate(g).ok == (not parent_refuses)


@pytest.mark.parametrize("arrays, message", [
    (([[-1, -1, -1, -1]], [1, 1, 0, 0], [1, 0, 3, 2]), "next_node must be one-dimensional"),
    (([-1, -1, -1, -1], [[1, 1, 0, 0]], [1, 0, 3, 2]), "on_top must be one-dimensional"),
    (([-1, -1, -1, -1], [1, 1, 0, 0], [[1, 0], [3, 2]]), "opposite must be one-dimensional"),
    (([-1, -1, -1, -1], [1, 1, 0, 0], [1, 0, 3]), "next_node, on_top and opposite must have equal length"),
    (([-1, -1, -1], [1, 1, 0, 0], [1, 0, 3, 2]), "next_node, on_top and opposite must have equal length"),
], ids=["2d_next", "2d_top", "2d_opposite", "short_opposite", "short_next"])
def test_constructor_refuses_misshapen_arrays(arrays, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TextileGraph(*arrays)


def test_graph_equality_and_immutability():
    g = parse_graph(ONE_CROSSING)
    assert g == parse_graph(ONE_CROSSING)
    assert g != grid_to_graph(plain_weave(2, 2))
    with pytest.raises(ValueError):
        g.next_node[0] = 3


def test_graph_copies_its_input_arrays():
    g = closed_loop_graph()
    base = g.next_node.copy()
    top, opp = g.on_top.copy(), g.opposite.copy()
    from_view = TextileGraph(base[:], top, opp)
    before = fingerprint(from_view, 2)
    base[0] = 5  # a write to the caller's array after the first walk
    assert from_view.next_node[0] == 4
    assert validate(from_view).ok
    assert fingerprint(from_view, 2) == before
    # the graph's arrays are read-only; the caller's stay writable
    TextileGraph(base, top, opp)
    assert base.flags.writeable and top.flags.writeable and opp.flags.writeable


# --- walk lists: one shared int object per node id ---------------------------------

def reparsed(g):
    """``g`` read back from text, through the canonical and the line reader in turn."""
    text = serialize_graph(g)
    return [parse_graph(text), parse_graph(text.replace(" ", "  "))]


def walk_graphs(w, h, seed):
    g = grid_to_graph(random_weave(0.5, w, h, seed))
    return [g, *reparsed(g)]


def fresh_table(monkeypatch, table):
    """Start ``table`` over from its one TERMINAL row, as in a new process."""
    monkeypatch.setattr(table, "rows", table.rows[:1])
    return table


def fresh_int_table(monkeypatch):
    return fresh_table(monkeypatch, graph_module._INTS)


@pytest.fixture
def fresh_tokens(monkeypatch):
    return fresh_table(monkeypatch, graph_module._TOKENS)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 14), st.integers(1, 14), st.integers(0, 2**31))
def test_walk_lists_equal_the_arrays(w, h, seed):
    for g in walk_graphs(w, h, seed):
        lists = g._thread_arrays()
        for values, arr in zip(lists, (g.next_node, g.on_top, g.opposite)):
            assert values == arr.tolist()
            assert all(type(v) is type(x) for v, x in zip(values, arr.tolist()))
        assert {type(v) for v in lists[0] + lists[2]} == {int}
        assert TERMINAL in lists[0]


def test_ids_above_256_share_one_object_across_graphs(monkeypatch):
    fresh_int_table(monkeypatch)
    objects = {}
    for g in walk_graphs(9, 9, 1) + walk_graphs(14, 12, 2):  # 324 and 672 nodes
        nxt, _, opp = g._thread_arrays()
        for value in nxt + opp:
            assert objects.setdefault(value, value) is value
    assert max(objects) > 256


def test_growing_table_leaves_earlier_lists_and_fingerprints(monkeypatch):
    fresh_int_table(monkeypatch)
    sizes = [(3, 3), (9, 9), (14, 14), (20, 17), (12, 12), (5, 4), (1, 1)]
    graphs = [grid_to_graph(random_weave(0.5, w, h, seed)) for seed, (w, h) in enumerate(sizes)]
    seen = []
    for g in graphs:  # growing, then shrinking sizes
        prints = [fingerprint(g, k) for k in (1, 3, 5)]
        lists = g._thread_arrays()
        seen.append((g, lists, [list(values) for values in lists], prints))
        for earlier, cached, values, before in seen:
            assert earlier._thread_arrays() is cached
            assert list(cached) == values == [arr.tolist() for arr in
                                              (earlier.next_node, earlier.on_top, earlier.opposite)]
            assert [fingerprint(earlier, k) for k in (1, 3, 5)] == before
    for g, _, _, before in seen:  # equal graphs walked from scratch read the same
        assert [fingerprint(TextileGraph(g.next_node, g.on_top, g.opposite), k) for k in (1, 3, 5)] == before


def test_first_walks_in_threads_match_serial_fingerprints(monkeypatch):
    sizes = [(4, 4), (9, 9), (16, 13), (24, 24)]
    serial = [[fingerprint(g, 3) for g in walk_graphs(w, h, seed)] for seed, (w, h) in enumerate(sizes)]
    for _ in range(5):
        fresh_int_table(monkeypatch)
        barrier = threading.Barrier(len(sizes))

        def walk(seed, w, h):
            graphs = walk_graphs(w, h, seed)
            barrier.wait()
            return [fingerprint(g, 3) for g in graphs]

        with ThreadPoolExecutor(max_workers=len(sizes)) as pool:
            futures = [pool.submit(walk, seed, w, h) for seed, (w, h) in enumerate(sizes)]
            assert [f.result() for f in futures] == serial


def test_pickled_grid_graph_reads_the_same():
    g = grid_to_graph(random_weave(0.5, 9, 6, 4))
    fresh = pickle.loads(pickle.dumps(g))  # before its first walk
    prints = [fingerprint(g, k) for k in (1, 3)]
    walked = pickle.loads(pickle.dumps(g))  # with its walk lists
    for back in (fresh, walked):
        assert back == g and [fingerprint(back, k) for k in (1, 3)] == prints


def test_equal_graphs_hash_equal_and_meet_as_one_key():
    g = grid_to_graph(random_weave(0.5, 9, 6, 5))
    own = TextileGraph(g.next_node.copy(), g.on_top.copy(), g.opposite.copy())
    fresh = pickle.loads(pickle.dumps(g))  # before its hash is cached
    h = hash(g)
    hashed = pickle.loads(pickle.dumps(g))  # with its cached hash
    assert len({id(x) for x in (g, own, fresh, hashed)}) == 4
    assert hash(own) == hash(fresh) == hash(hashed) == h
    assert {g: 0, own: 1, fresh: 2, hashed: 3} == {g: 3}

    top = g.on_top.copy()
    top[5] = not top[5]
    flipped = TextileGraph(g.next_node, top, g.opposite)
    assert flipped != g and hash(flipped) != hash(g)  # crc32 catches every one-bit change
    assert len({g, flipped}) == 2


def test_graph_hash_is_the_same_in_every_process():
    cells = [[1, 0, 0], [0, 1, 1]]
    code = f"from weftprint.weaves import grid_to_graph; print(hash(grid_to_graph({cells})))"
    src = str(Path(graph_module.__file__).resolve().parents[1])
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True,
                           env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")]
    assert outs == [f"{hash(grid_to_graph(cells))}\n"] * 2


def test_parse_takes_no_crc_and_the_first_hash_takes_the_same_one():
    text = serialize_graph(grid_to_graph(random_weave(0.5, 7, 5, 3)))
    with mock.patch.object(graph_module.zlib, "crc32", wraps=zlib.crc32) as crc32:
        g = parse_graph(text)
        assert crc32.call_count == 0  # nothing on the CLI path hashes a parsed graph
        h = hash(g)
        assert crc32.call_count == 3
        assert hash(g) == h and crc32.call_count == 4  # the frame's crc is kept; on_top's is not
    assert h == zlib.crc32(g.on_top, zlib.crc32(g.opposite, zlib.crc32(g.next_node)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**31))
def test_framed_graph_fingerprints_as_a_graph_with_its_own_arrays(w, h, seed):
    fingerprint(grid_to_graph(random_weave(0.5, w, h, seed + 1)), 1)  # the frame's lists, built by another graph
    g = grid_to_graph(random_weave(0.5, w, h, seed))
    own = TextileGraph(g.next_node.copy(), g.on_top.copy(), g.opposite.copy())
    assert own.next_node is not g.next_node
    for k in range(1, 7):
        assert fingerprint(g, k) == fingerprint(own, k)


# --- serialize_graph: one shared token table --------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**31)), min_size=1, max_size=3))
def test_serialize_matches_format_oracle(weaves):
    # each example starts a fresh table, so every graph after the first may grow it
    with pytest.MonkeyPatch.context() as monkeypatch:
        fresh_table(monkeypatch, graph_module._TOKENS)
        for w, h, seed in weaves:
            g = grid_to_graph(random_weave(0.5, w, h, seed))
            assert serialize_graph(g) == format_serialize_graph(g)


def test_token_table_only_grows_and_keeps_its_objects(fresh_tokens):
    seen, largest = [], 0
    for seed, (w, h) in enumerate([(1, 1), (9, 9), (3, 3), (20, 17), (14, 14)]):  # some grow the table
        g = grid_to_graph(random_weave(0.5, w, h, seed))
        assert serialize_graph(g) == format_serialize_graph(g)
        largest = max(largest, g.node_count)
        rows = fresh_tokens.rows
        assert rows.tolist() == [[f"{i} ", f"{i}\n"] for i in range(TERMINAL, largest)]
        for earlier in seen:  # earlier rows keep their string objects
            assert all(a is b for a, b in zip(rows[:len(earlier)].flat, earlier.flat))
        seen.append(rows)


def test_first_serializations_in_threads_give_equal_text(monkeypatch):
    sizes = [(4, 4), (9, 9), (16, 13), (24, 24)]
    graphs = [grid_to_graph(random_weave(0.5, w, h, seed)) for seed, (w, h) in enumerate(sizes)]
    expected = [format_serialize_graph(g) for g in graphs]
    for _ in range(5):
        fresh_table(monkeypatch, graph_module._TOKENS)
        barrier = threading.Barrier(len(graphs))

        def write(g):
            barrier.wait()
            return serialize_graph(g)

        with ThreadPoolExecutor(max_workers=len(graphs)) as pool:
            assert list(pool.map(write, graphs)) == expected


def test_graph_that_breaks_the_model_is_not_written(tmp_path, fresh_tokens):
    # numpy would read -2 + 1 as the last row of the token table
    g = TextileGraph([-2, -1, -1, -1], [True, True, False, False], [1, 0, 3, 2])
    with pytest.raises(InvalidGraphError, match="next index -2 out of range"):
        serialize_graph(g)
    with pytest.raises(InvalidGraphError, match="next index -2 out of range"):
        save_graph(g, tmp_path / "broken.tg")
    assert not any(tmp_path.iterdir())
    assert len(fresh_tokens.rows) == 1


# --- reading files ---------------------------------------------------------------
#
# Every loader reads its file through one reader, as UTF-8 with the line ends as written.

LOADERS = {
    "graph": (load_graph, ONE_CROSSING),  # canonical: its CR LF and CR twins take the line reader
    "fingerprint": (load_fingerprint, "A,A;A,A 1\n\nA,A;A,T 2\n"),
    "spec": (load_corpus_spec, "[corpus]\nseed = 7\n\n[a]\nkind = plain\n"),
    "distances": (load_distance_matrix, "id,a,b\na,0,1\nb,1,0\n"),
    "manifest": (read_manifest, "id,path,category\na,a.tg,x\nb,b.tg,y\n"),
}


@pytest.mark.parametrize("load, text", LOADERS.values(), ids=LOADERS)
def test_loaders_read_cr_lf_and_cr_files_as_their_lf_twin(tmp_path, load, text):
    read = []
    for name, end in [("lf", "\n"), ("cr_lf", "\r\n"), ("cr", "\r")]:
        (tmp_path / name).write_bytes(text.replace("\n", end).encode())
        read.append(load(tmp_path / name))
    assert read[0] == read[1] == read[2]


@pytest.mark.parametrize("load, text", LOADERS.values(), ids=LOADERS)
def test_loaders_refuse_non_utf8_files_by_path(tmp_path, load, text):
    path = tmp_path / "bad"
    path.write_bytes(text[:5].encode() + b"\xff" + text[5:].encode())
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8: byte 5: invalid start byte$"):
        load(path)


BROKEN = {
    "graph": "crossings x\n",
    "fingerprint": "A,A;A,A 0\n",
    "spec": "[a]\ncount = 2\n",
    "distances": "id,a\na,x\n",
    "manifest": "id,path\n",
}


@pytest.mark.parametrize("load, text", [(LOADERS[name][0], BROKEN[name]) for name in LOADERS], ids=LOADERS)
def test_loaders_name_their_file_in_parse_errors(tmp_path, load, text):
    path = tmp_path / "bad"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: ") as err:
        load(path)
    assert type(err.value) is ValueError  # plain, as it pickles out of a pool worker
    assert str(path) not in str(err.value)[len(str(path)):]  # named once
