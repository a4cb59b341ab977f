import dataclasses
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import weftprint.corpus as corpus_module
import weftprint.weaves as weaves_module
from weftprint.corpus import (
    CategorySpec,
    CorpusItem,
    CorpusSpec,
    generate_corpus,
    load_corpus,
    parse_corpus_spec,
    read_manifest,
    write_corpus,
)
from weftprint.graph import TERMINAL, TextileGraph, serialize_graph, validate
from weftprint.weaves import grid_to_graph, plain_weave

from conftest import MISSPELLED_SPECS, desk_scale_config_text, desk_scale_spec
from oracles import configparser_corpus_spec, per_item_corpus, per_motif_mixed_weave

README = Path(__file__).resolve().parent.parent / "README.md"


class Unshared(dict):  # a graph table that never hands back a graph
    def setdefault(self, key, value):
        return value


def unshared_desk_corpus():
    """The desk corpus with a graph object of its own for each of its 180 items."""
    with mock.patch.object(weaves_module, "_GRAPHS", Unshared()):
        return generate_corpus(desk_scale_spec())


def corpus_to_text(corpus) -> str:
    """Single deterministic text dump of a corpus, for byte-level comparisons."""
    return "".join(f"=== {item.id} {item.category}\n" + serialize_graph(item.graph) for item in corpus)


def single_category(**overrides):
    base = dict(name="plain", kind="plain", count=3, width=4, height=4)
    base.update(overrides)
    return CorpusSpec((CategorySpec(**base),), seed=1)


FRACTIONS = st.floats(0, 1)


@st.composite
def category_specs(draw, sizes=st.integers(1, 2**64), seeds=st.integers(0, 2**64)):
    perturb_fraction, transform_fraction = draw(FRACTIONS), draw(FRACTIONS)
    assume(Fraction(str(perturb_fraction)) + Fraction(str(transform_fraction)) <= 1)  # the exact sum, as the spec rule
    return CategorySpec(
        name=draw(st.from_regex(r"[a-z0-9][a-z0-9_.-]{0,8}", fullmatch=True).filter(lambda s: s != "corpus")),
        kind=draw(st.one_of(st.sampled_from(["plain", "warp_above", "twill(2,1)", "satin(5,2)", "mixed(4,3)"]),
                            FRACTIONS.map(lambda d: f"random({d})"))),
        count=draw(sizes),
        width=draw(sizes),
        height=draw(sizes),
        perturb_fraction=perturb_fraction,
        perturb_rate=draw(FRACTIONS),
        transform_fraction=transform_fraction,
        seed=draw(seeds),
    )


class TestGenerate:
    def test_plain_category_produces_identical_graphs(self):
        corpus = generate_corpus(single_category())
        assert [item.id for item in corpus] == ["plain-000", "plain-001", "plain-002"]
        assert all(item.category == "plain" for item in corpus)
        reference = grid_to_graph(plain_weave(4, 4))
        assert all(item.graph == reference for item in corpus)

    def test_every_graph_validates_and_ids_unique(self):
        corpus = generate_corpus(desk_scale_spec())
        ids = [item.id for item in corpus]
        assert len(ids) == len(set(ids)) == 180
        assert all(validate(item.graph).ok for item in corpus)

    def test_desk_scale_layout(self):
        corpus = generate_corpus(desk_scale_spec())
        by_label = {}
        for item in corpus:
            by_label.setdefault(item.category, []).append(item)
        assert len(by_label) == 9
        assert all(len(items) == 20 for items in by_label.values())

    def test_group_structure_within_category(self):
        spec = single_category(count=8, perturb_fraction=0.25, perturb_rate=0.2,
                               transform_fraction=0.25, width=8, height=8)
        corpus = generate_corpus(spec)
        clean = grid_to_graph(plain_weave(8, 8))
        # 4 clean + 2 perturbed + 2 transformed
        assert [item.graph == clean for item in corpus[:4]] == [True] * 4
        assert all(item.graph != clean for item in corpus[4:6])
        assert all(item.graph.crossing_count == 64 for item in corpus)

    def test_equal_matrices_share_one_graph_and_the_same_text(self, desk_corpus):
        assert len(desk_corpus) == 180 and len({id(item.graph) for item in desk_corpus}) == 88
        unshared = unshared_desk_corpus()
        assert len({id(item.graph) for item in unshared}) == 180
        assert corpus_to_text(unshared) == corpus_to_text(desk_corpus)

    def test_determinism_byte_identical(self):
        a = corpus_to_text(generate_corpus(desk_scale_spec()))
        b = corpus_to_text(generate_corpus(desk_scale_spec()))
        assert a == b

    def test_seed_changes_random_category_only(self):
        spec_a = single_category(kind="random(0.5)", seed=None)
        spec_b = CorpusSpec(spec_a.categories, seed=2)
        assert corpus_to_text(generate_corpus(spec_a)) != corpus_to_text(generate_corpus(spec_b))

    def test_random_category_samples_differ(self):
        corpus = generate_corpus(single_category(kind="random(0.5)", count=5, width=10, height=10))
        texts = {corpus_to_text([item]) for item in corpus}
        assert len(texts) == 5

    def test_mixed_category_shares_one_motif_pool(self):
        from weftprint.distance import jaccard_distance
        from weftprint.fingerprint import fingerprint
        from weftprint.weaves import grid_to_graph, random_weave

        corpus = generate_corpus(single_category(kind="mixed(8,2)", count=6, width=24, height=24))
        texts = {corpus_to_text([item]) for item in corpus}
        assert len(texts) == 6  # different mosaics...
        fps = [fingerprint(item.graph, 6) for item in corpus]
        unrelated = [
            fingerprint(grid_to_graph(random_weave(0.5, 24, 24, seed)), 6) for seed in (900, 901, 902)
        ]
        intra = max(
            jaccard_distance(fps[i], fps[j]) for i in range(6) for j in range(i + 1, 6)
        )
        inter = min(jaccard_distance(fp, other) for fp in fps for other in unrelated)
        # ...but mutually closer than to matrices without the shared pool
        assert intra < inter

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 9), st.integers(1, 5), st.integers(1, 20), st.integers(1, 20),
           st.integers(0, 2**32))
    def test_mixed_pool_drawn_once_equals_per_sample_pools(self, block, pool, count, width, height, seed):
        spec = CorpusSpec((CategorySpec("m", f"mixed({block},{pool})", count, width, height, seed=seed),))
        for index, item in enumerate(generate_corpus(spec)):
            pool_seed = np.random.SeedSequence([seed, 997])
            cells = per_motif_mixed_weave(block, pool, width, height, pool_seed,
                                          np.random.SeedSequence([seed, index, 0]))
            assert item.graph == grid_to_graph(cells)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(category_specs(st.integers(1, 12), st.none() | st.integers(0, 2**64)), min_size=1, max_size=3,
                    unique_by=lambda c: c.name), st.integers(0, 2**32))
    def test_generate_equals_per_item_oracle(self, categories, seed):
        spec = CorpusSpec(tuple(categories), seed=seed)
        assert generate_corpus(spec) == per_item_corpus(spec)

    def test_each_sample_builds_only_what_it_reads(self):
        # the x3 corpus: 9 categories of 60 samples, 15 of each perturbed; one category of 60 mosaics
        spec = desk_scale_spec()
        spec = CorpusSpec(tuple(dataclasses.replace(cat, count=60) for cat in spec.categories), seed=spec.seed)
        with mock.patch.object(corpus_module, "_sample_seed", wraps=corpus_module._sample_seed) as sample_seed, \
                mock.patch.object(corpus_module, "weave_matrix", wraps=weaves_module.weave_matrix) as matrix:
            corpus = generate_corpus(spec)
        assert len(corpus) == 540
        streams = [c.args[2] for c in sample_seed.call_args_list]
        assert (len(streams), streams.count(0), streams.count(1)) == (195, 60, 135)
        regular = [cat.kind for cat in spec.categories if not cat.kind.startswith("mixed")]
        assert matrix.call_args_list == [mock.call(kind, 24, 24) for kind in regular]  # one unseeded build each


class TestSpecValidation:
    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count"):
            CategorySpec(name="x", kind="plain", count=0, width=4, height=4)

    def test_fractions_bounded(self):
        with pytest.raises(ValueError, match="perturb_fraction"):
            CategorySpec(name="x", kind="plain", count=4, width=4, height=4, perturb_fraction=1.2)
        with pytest.raises(ValueError, match="exceed"):
            CategorySpec(name="x", kind="plain", count=4, width=4, height=4,
                         perturb_fraction=0.75, transform_fraction=0.75)

    def test_line_breaks_in_names_rejected(self):
        # a spec line ends at CR or LF, so no spec file could name such a category
        for name in ("a\rb", "a\nb", "a\r\n", "\r"):
            with pytest.raises(ValueError, match="line breaks"):
                CategorySpec(name=name, kind="plain", count=1, width=2, height=2)
        # in a spec file CR ends the line, so the section header is broken there
        with pytest.raises(ValueError, match=r"^bad corpus spec: line 1: .* got '\[a'$"):
            parse_corpus_spec("[a\rb]\nkind = plain\n")

    def test_negative_seeds_rejected(self):
        # numpy's SeedSequence would refuse them only at generation, naming no place
        with pytest.raises(ValueError, match=r"^category 'x': seed must be >= 0$"):
            CategorySpec(name="x", kind="plain", count=1, width=2, height=2, seed=-3)
        cat = CategorySpec(name="x", kind="plain", count=1, width=2, height=2, seed=0)
        with pytest.raises(ValueError, match=r"^corpus: seed must be >= 0$"):
            CorpusSpec((cat,), seed=-1)
        with pytest.raises(ValueError, match=r"^category 'a': seed must be >= 0$"):
            parse_corpus_spec("[a]\nkind = plain\nseed = -3\n")
        with pytest.raises(ValueError, match=r"^corpus: seed must be >= 0$"):
            parse_corpus_spec("[corpus]\nseed = -3\n\n[a]\nkind = plain\n")

    @pytest.mark.parametrize("width, height", [(0, 4), (4, 0), (-1, -1)])
    def test_grid_dimensions_must_be_positive(self, width, height):
        with pytest.raises(ValueError, match=r"^category 'x': grid dimensions must be >= 1$"):
            CategorySpec(name="x", kind="plain", count=1, width=width, height=height)

    @pytest.mark.parametrize("text", ["", "[corpus]\nseed = 4\n"], ids=["empty", "corpus_only"])
    def test_spec_needs_a_category(self, text):
        with pytest.raises(ValueError, match="^corpus spec needs at least one category$"):
            parse_corpus_spec(text)
        with pytest.raises(ValueError, match="^corpus spec needs at least one category$"):
            CorpusSpec(())

    def test_category_names_unique(self):
        cat = CategorySpec(name="x", kind="plain", count=1, width=2, height=2)
        with pytest.raises(ValueError, match="unique"):
            CorpusSpec((cat, cat))

    def test_bad_kind_refused_when_made(self):
        with pytest.raises(ValueError, match="^unknown weave kind 'hexagonal'$"):
            CategorySpec(name="x", kind="hexagonal")
        with pytest.raises(ValueError, match=r"^weave kind 'twill\(2\)' takes 2 parameter\(s\), got 1$"):
            CategorySpec("x", "twill(2)", 4, 4, 4)

    @pytest.mark.parametrize("kind, message", [
        ("twill(0,1)", "twill counts must be >= 1, got 0/1"),
        ("satin(6,2)", "satin step 2 must be coprime with period 6"),
        ("random(2)", r"density must lie in \[0, 1\], got 2.0"),
        ("random(nan)", r"density must lie in \[0, 1\], got nan"),
        ("mixed(0,1)", "block size must be >= 1, got 0"),
        ("mixed(100000,100000)", r"motif pool size times block area must be <= 4194304, got 100000 \* 100000x100000"),
        ("mixed(20000,1)", r"motif pool size times block area must be <= 4194304, got 1 \* 20000x20000"),
    ])
    def test_kind_ranges_refused_when_made(self, kind, message):
        # the generator owns the range; the refusal names the category and the kind
        with pytest.raises(ValueError, match=f"^category 'a': weave kind {re.escape(repr(kind))}: {message}$"):
            CategorySpec("a", kind, 1, 4, 4)

    def test_long_kind_is_echoed_cut_short(self):
        kind = f"twill({'0' * 50},1)"
        echo = r"'twill\(00000000000000'… \(59 characters\)"
        with pytest.raises(ValueError, match=f"^category 'a': weave kind {echo}: twill counts must be >= 1, got 0/1$"):
            CategorySpec("a", kind, 1, 4, 4)

    def test_defaults(self):
        assert CategorySpec("x", "plain") == CategorySpec("x", "plain", 1, 16, 16, 0.0, 0.0, 0.0, None)

    def test_block_sizes_are_exact(self):
        # the float product 90 * 0.7 is 62.99..., one sample short of 63
        assert CategorySpec("x", "plain", 90, perturb_fraction=0.7).n_perturbed == 63
        assert CategorySpec("x", "plain", 100, transform_fraction=0.29).n_transformed == 29
        with pytest.raises(ValueError, match="exceed"):  # the float sum rounds to 1.0
            CategorySpec("x", "plain", perturb_fraction=1.0, transform_fraction=5e-324)
        for count in range(1, 201):
            for percent in range(101):
                cat = CategorySpec("x", "plain", count, perturb_fraction=percent / 100,
                                   transform_fraction=(100 - percent) / 100)
                assert (cat.n_perturbed, cat.n_transformed) == (count * percent // 100,
                                                                count * (100 - percent) // 100)


class TestSpecFiles:
    def test_parse_desk_scale_config(self):
        spec = parse_corpus_spec(desk_scale_config_text())
        assert spec == desk_scale_spec()

    def test_defaults_and_optional_seed(self):
        spec = parse_corpus_spec("[alpha]\nkind = plain\n")
        cat = spec.categories[0]
        assert (cat.count, cat.width, cat.height) == (1, 16, 16)
        assert cat.seed is None

    def test_global_seed_section(self):
        spec = parse_corpus_spec("[corpus]\nseed = 9\n\n[alpha]\nkind = plain\n")
        assert spec.seed == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            parse_corpus_spec("[alpha]\nkind = plain\ncolour = red\n")

    def test_unknown_corpus_key_rejected(self):
        with pytest.raises(ValueError, match=r"section 'corpus': unknown keys \['sed'\]"):
            parse_corpus_spec("[corpus]\nsed = 9\n\n[a]\nkind = plain\n")

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            parse_corpus_spec("[alpha]\ncount = 2\n")

    def test_malformed_ini_rejected(self):
        with pytest.raises(ValueError, match="^bad corpus spec: line 1: key 'kind' before any section$"):
            parse_corpus_spec("kind = plain\n")

    @pytest.mark.parametrize("text, message", [
        ("# c\n\n[a]\nkind = plain\n[b]\nkind = plain\n\n[a]\n",
         r"bad corpus spec: line 8: repeated section \[a\]"),
        ("[corpus]\nseed = 1\n[corpus]\n[a]\nkind = plain\n", r"bad corpus spec: line 3: repeated section \[corpus\]"),
        ("[a]\nkind = plain\n\t count\t= 2\ncount=3\n", r"bad corpus spec: line 4: repeated key 'count'"),
        ("[a]\nkind = plain\n[a b\n", r"bad corpus spec: line 3: expected '\[section\]' or 'key = value', got '\[a b'"),
    ], ids=["section_twice", "corpus_twice", "key_twice", "other_line"])
    def test_spec_lines_refused(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_corpus_spec(text)

    @pytest.mark.parametrize("text, message", [
        ("[DEFAULT]\nseed = 5\n\n[a]\nkind = plain\n", r"category 'DEFAULT': missing required key 'kind'"),
        ("[a]\nkind = plain\nCount = 3\n", r"category 'a': unknown keys \['Count'\]"),
        ("[a]\nkind: plain\n", r"bad corpus spec: line 2: expected '\[section\]' or 'key = value', got 'kind: plain'"),
        ("[a]\nkind = plain\n; a comment\n", r"bad corpus spec: line 3: .* got '; a comment'"),
        ("[a]\nkind = plain\ncount = 20 ; twenty\n", r"category 'a': count: '20 ; twenty' is not an integer"),
        ("[a]\nkind = twill(2,\n  1)\n", r"bad corpus spec: line 3: .* got '1\)'"),
        ("[a]\nkind = plain\ncount = 20\u00a0\n", r"category 'a': count: '20\\xa0' is not an integer"),
        ("[a]\nkind =\u00a0plain\n", r"unparseable weave kind '\\xa0plain'"),
    ], ids=["default_section", "key_case", "colon", "semicolon_comment", "inline_comment", "continuation",
            "nbsp_value", "nbsp_kind"])
    def test_configparser_rules_refused(self, text, message):
        # configparser took each of these; the spec grammar has none of its extra rules
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_corpus_spec(text)

    def test_ascii_blanks_and_line_ends(self):
        text = "[corpus]\r\n \tseed\t=\t4 \r\n\t# note\r[a]\t\nkind=twill( 2 ,\t1 )\ncount \t=  3\t"
        assert parse_corpus_spec(text) == CorpusSpec((CategorySpec("a", "twill( 2 ,\t1 )", 3),), seed=4)

    def test_readme_example_parses(self):
        block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL).group(1)
        spec = parse_corpus_spec(block)
        assert spec.seed == 7
        assert spec.categories == (CategorySpec("twill-2-1", "twill(2,1)", 20, 24, 24, 0.25, 0.03, 0.25, 8),)

    def test_docstring_example_parses(self):
        import weftprint.corpus

        block = weftprint.corpus.__doc__.split("::\n", 1)[1].split("\nOn disk", 1)[0]
        assert parse_corpus_spec(block).categories[0].kind == "twill(2,1)"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_reader_equals_configparser(self, data):
        # the documented grammar: sections, lowercase key = value lines, # comments,
        # blank lines, and ASCII blanks around keys and values
        blanks = st.sampled_from(["", " ", "\t", "  ", " \t "])
        extras = st.lists(st.one_of(blanks, blanks.map(lambda b: b + "#"),
                                    st.text(st.characters(exclude_characters="\r\n")).map(lambda t: "# " + t)),
                          max_size=2)
        categories = data.draw(st.lists(category_specs(), min_size=1, max_size=3, unique_by=lambda c: c.name))
        sections = [("corpus", {"seed": data.draw(st.integers(0, 2**64))})] if data.draw(st.booleans()) else []
        for cat in categories:
            keys = [f.name for f in dataclasses.fields(cat) if f.name not in ("name", "kind")]
            kept = data.draw(st.lists(st.sampled_from(keys), unique=True))
            sections.append((cat.name, {key: getattr(cat, key) for key in ["kind", *kept]}))
        lines = []
        for name, values in sections:
            lines += data.draw(extras) + [f"[{name}]" + data.draw(blanks)]
            for key, value in values.items():
                lines += data.draw(extras)
                lines.append(f"{key}{data.draw(blanks)}={data.draw(blanks)}{value}{data.draw(blanks)}")
        text = "\n".join(lines) + data.draw(st.sampled_from(["", "\n"]))
        assert parse_corpus_spec(text) == configparser_corpus_spec(text)

    @pytest.mark.parametrize("text, message", MISSPELLED_SPECS)
    def test_numbers_take_ascii_spellings_only(self, text, message):
        # int() and float() take every number here but the ones past int()'s digit limit;
        # the int64 rows would end in an OverflowError or a wrapped satin row
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_corpus_spec(text)

    def test_random_density_range_checked_when_made(self):
        message = r"^category 'a': weave kind 'random\(nan\)': density must lie in \[0, 1\], got nan$"
        with pytest.raises(ValueError, match=message):
            parse_corpus_spec("[a]\nkind = random(nan)\n")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(category_specs(), min_size=1, max_size=3, unique_by=lambda c: c.name), st.integers(0, 2**64))
    @example([CategorySpec("a", "random(1e-05)", 1, 1, 1, 5e-324, 0.1, 1e-05, 0)], 7)
    def test_written_values_read_back(self, categories, seed):
        # every value spelled by str(), one key per CategorySpec field
        lines = [f"[corpus]\nseed = {seed}\n"]
        for cat in categories:
            lines.append(f"[{cat.name}]")
            lines.extend(f"{f.name} = {getattr(cat, f.name)}" for f in dataclasses.fields(cat) if f.name != "name")
            lines.append("")
        assert parse_corpus_spec("\n".join(lines)) == CorpusSpec(tuple(categories), seed=seed)


class TestCorpusFiles:
    def test_write_and_load_round_trip(self, tmp_path):
        corpus = generate_corpus(single_category(count=2))
        manifest = write_corpus(corpus, tmp_path / "corpus")
        rows = read_manifest(manifest)
        assert [(r[0], r[2]) for r in rows] == [("plain-000", "plain"), ("plain-001", "plain")]
        assert all(path.exists() for _, path, _ in rows)
        loaded = load_corpus(manifest)
        assert loaded == corpus

    def test_each_graph_object_serialized_once(self, desk_corpus, tmp_path):
        # 88 distinct graphs, shared as 88 objects or held as 180 equal copies
        for name, corpus in (("shared", desk_corpus), ("unshared", unshared_desk_corpus())):
            with mock.patch.object(corpus_module, "serialize_graph", wraps=serialize_graph) as serialize:
                write_corpus(corpus, tmp_path / name)
            assert serialize.call_count == 88
            for item in corpus:
                assert (tmp_path / name / f"{item.id}.tg").read_text(encoding="utf-8") == serialize_graph(item.graph)

    def test_manifest_header_enforced(self, tmp_path):
        bad = tmp_path / "manifest.csv"
        bad.write_text("id,file,label\n")
        with pytest.raises(ValueError, match="header"):
            read_manifest(bad)

    def test_duplicate_ids_rejected(self, tmp_path):
        corpus = generate_corpus(single_category(count=1))
        manifest = write_corpus(corpus, tmp_path)
        manifest.write_text(manifest.read_text() + "plain-000,plain-000.tg,plain\n")
        with pytest.raises(ValueError, match="duplicate id"):
            read_manifest(manifest)


# Manifest fields: any text but a path separator or NUL, with the characters CSV quoting turns on made likely.
MANIFEST_TEXT = st.text(st.one_of(st.sampled_from(["\r", "\n", ",", '"', " "]),
                                  st.characters(exclude_characters="/\\\0")), max_size=8)


SURROGATE = re.compile("[\ud800-\udfff]")  # the only code points UTF-8 cannot encode


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(MANIFEST_TEXT, MANIFEST_TEXT), unique_by=lambda row: row[0], min_size=1, max_size=4))
@example([("a\rb", "y\rz"), (" a", '"q",\r\n')])
@example([("a", "\ud800")])
def test_written_manifest_reads_back(rows):
    # a lone surrogate, which UTF-8 cannot encode, is refused before any file is made
    graph = grid_to_graph(plain_weave(2, 2))
    corpus = [CorpusItem(item_id, graph, category) for item_id, category in rows]
    with tempfile.TemporaryDirectory() as out:
        if not any(SURROGATE.search(item_id + category) for item_id, category in rows):
            manifest = write_corpus(corpus, out)
            assert [(item_id, category) for item_id, _, category in read_manifest(manifest)] == rows
        else:
            with pytest.raises(ValueError, match=r"manifest\.csv: not UTF-8: character \d+: surrogates not allowed$"):
                write_corpus(corpus, Path(out) / "corpus")
            assert list(Path(out).iterdir()) == []


@pytest.mark.parametrize("ids, broken, refusal", [
    (["a", "a"], None, "duplicate id 'a'"),
    (["a", "../x"], None, r"corpus id '\.\./x' must not hold a path separator"),
    (["a", "b\\c"], None, r"corpus id 'b\\\\c' must not hold a path separator"),
    (["a", "b\0c"], None, r"corpus id 'b\\x00c' must not hold a path separator or NUL"),
    (["a", "b"], "b", r"crossing 0: top-edge count != 2"),
])
def test_refused_corpus_writes_no_file(tmp_path, ids, broken, refusal):
    good = grid_to_graph(plain_weave(2, 2))
    bad = TextileGraph(np.array([TERMINAL] * 4), np.array([True, True, True, False]), np.array([1, 0, 3, 2]))
    corpus = [CorpusItem(item_id, bad if item_id == broken else good, "c") for item_id in ids]
    with pytest.raises(ValueError, match=refusal):
        write_corpus(corpus, tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("ids, category", [(["a", "b"], "\ud800"), (["a", "\ud800"], "c"), (["a", "b\udc80"], "c")],
                         ids=["category", "id", "escaped_byte_id"])
def test_unencodable_names_leave_the_directory_as_it_was(tmp_path, ids, category):
    (tmp_path / "manifest.csv").write_text("id,path,category\n", encoding="utf-8")
    graph = grid_to_graph(plain_weave(2, 2))
    with pytest.raises(ValueError, match=r"manifest\.csv: not UTF-8: character \d+: surrogates not allowed$"):
        write_corpus([CorpusItem(item_id, graph, category) for item_id in ids], tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.csv"]
    assert (tmp_path / "manifest.csv").read_text(encoding="utf-8") == "id,path,category\n"


def test_refused_file_name_removes_what_the_write_made(tmp_path):
    # a file name past the file system's limit (255 bytes on Linux) is refused only when the file is made
    graph = grid_to_graph(plain_weave(2, 2))
    corpus = [CorpusItem(item_id, graph, "c") for item_id in ("a", "b", "x" * 300)]
    with pytest.raises(OSError, match="File name too long"):
        write_corpus(corpus, tmp_path / "new" / "corpus")
    (tmp_path / "a.tg").write_text("kept\n", encoding="utf-8")
    with pytest.raises(OSError, match="File name too long"):
        write_corpus(corpus, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["a.tg"]  # replaced, not made, by the refused write
