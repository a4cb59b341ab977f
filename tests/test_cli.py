import json
import multiprocessing
import os
import re
import signal
from unittest import mock

import pytest

from weftprint import cli
from weftprint import corpus as corpus_mod
from weftprint.cli import main
from weftprint.corpus import parse_corpus_spec
from weftprint.distance import METRICS, csv_to_distance_matrix, distance_matrix, distance_matrix_to_csv
from weftprint.fingerprint import fingerprint, fingerprint_to_text, text_to_fingerprint
from weftprint.graph import load_graph, parse_graph, save_graph
from weftprint.weaves import grid_to_graph, plain_weave

from conftest import MISSPELLED_SPECS, desk_scale_config_text

TINY_SPEC = """\
[corpus]
seed = 3

[plain]
kind = plain
count = 4
width = 6
height = 6

[warped]
kind = warp_above
count = 4
width = 6
height = 6
"""


@pytest.fixture()
def tiny_corpus(tmp_path):
    spec = tmp_path / "spec.ini"
    spec.write_text(TINY_SPEC)
    out = tmp_path / "corpus"
    assert main(["generate", "--spec", str(spec), "--out-dir", str(out)]) == 0
    return out / "manifest.csv"


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class TestGenerate:
    def test_writes_corpus_and_manifest(self, tiny_corpus):
        manifest = read(tiny_corpus)
        assert manifest.splitlines()[0] == "id,path,category"
        assert len(manifest.splitlines()) == 9
        assert (tiny_corpus.parent / "plain-000.tg").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = tmp_path / "spec.ini"
        spec.write_text(TINY_SPEC)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["generate", "--spec", str(spec), "--out-dir", str(out)]) == 0
            outputs.append({p.name: read(p) for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]

    def test_seed_zero_overrides_the_spec_seed(self, tmp_path):
        def generate(name, spec_seed, *flags):
            spec = tmp_path / f"{name}.ini"
            spec.write_text(f"[corpus]\nseed = {spec_seed}\n\n[noise]\nkind = random(0.5)\ncount = 2\nwidth = 5\nheight = 5\n")
            out = tmp_path / name
            assert main([*flags, "generate", "--spec", str(spec), "--out-dir", str(out)]) == 0
            return {p.name: read(p) for p in sorted(out.iterdir())}

        spec_seed_zero = generate("spec0", 0)
        assert generate("flag0", 5, "--seed", "0") == spec_seed_zero
        assert generate("spec5", 5) != spec_seed_zero

    def test_missing_spec_file_is_data_error(self, tmp_path, capsys):
        code = main(["generate", "--spec", str(tmp_path / "nope.ini"), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_corpus_key_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text("[corpus]\nsed = 9\n\n[a]\nkind = plain\n")
        assert main(["generate", "--spec", str(spec), "--out-dir", str(tmp_path / "out")]) == 2
        assert "unknown keys ['sed']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", MISSPELLED_SPECS)
    def test_misspelled_number_is_data_error(self, tmp_path, capsys, text, message):
        spec = tmp_path / "spec.ini"
        spec.write_text(text, encoding="utf-8")
        assert main(["generate", "--spec", str(spec), "--out-dir", str(tmp_path / "out")]) == 2
        assert re.search(f"^weftprint generate: error: {re.escape(str(spec))}: {message}$", capsys.readouterr().err,
                         re.MULTILINE)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["mixed(100000,100000)", "mixed(20000,1)"])
    def test_oversized_motif_pool_is_data_error(self, tmp_path, capsys, kind):
        # refused before the pool is drawn, which would take 8 bytes a cell: 3.2 GB for mixed(20000,1)
        spec = tmp_path / "spec.ini"
        spec.write_text(f"[a]\nkind = {kind}\n")
        assert main(["generate", "--spec", str(spec), "--out-dir", str(tmp_path / "out")]) == 2
        assert f"weave kind {kind!r}: motif pool size times block area must be <= 4194304" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, flags, message", [
        ("[corpus]\nseed = -3\n\n[a]\nkind = plain\n", [], "corpus: seed must be >= 0"),
        ("[a]\nkind = plain\nseed = -3\n", [], "category 'a': seed must be >= 0"),
        ("[a]\nkind = plain\n", ["--seed", "-3"], "corpus: seed must be >= 0"),
    ], ids=["spec_seed", "category_seed", "seed_flag"])
    def test_negative_seed_is_data_error(self, tmp_path, capsys, text, flags, message):
        spec = tmp_path / "spec.ini"
        spec.write_text(text)
        assert main([*flags, "generate", "--spec", str(spec), "--out-dir", str(tmp_path / "out")]) == 2
        named = f"{spec}: " if not flags else ""  # a refusal inside the file names it
        assert f"weftprint generate: error: {named}{message}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFingerprint:
    def test_single_file_paper_count(self, tmp_path, capsys):
        tg = tmp_path / "plain2x2.tg"
        save_graph(grid_to_graph(plain_weave(2, 2)), tg)
        out = tmp_path / "plain2x2.fp"
        assert main(["fingerprint", "--in", str(tg), "--k", "1", "--out", str(out)]) == 0
        assert read(out) == "A,T;A,T 4\n"

    def test_directory_mode(self, tiny_corpus, tmp_path):
        out = tmp_path / "fps"
        assert main(["fingerprint", "--in", str(tiny_corpus.parent), "--k", "2", "--out", str(out)]) == 0
        assert len(list(out.glob("*.fp"))) == 8

    def test_directory_without_graphs_is_data_error(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["fingerprint", "--in", str(tmp_path / "empty"), "--k", "1", "--out", str(tmp_path / "fps")]) == 2
        assert capsys.readouterr().err == f"weftprint fingerprint: error: no .tg files found in {tmp_path / 'empty'}\n"
        assert not (tmp_path / "fps").exists()

    def test_invalid_graph_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tg"
        bad.write_text("crossings 1\n0 -1 1 1\n")
        assert main(["fingerprint", "--in", str(bad), "--k", "1", "--out", str(tmp_path / "x.fp")]) == 2
        assert "node count" in capsys.readouterr().err


class TestDistmatrix:
    def test_duplicate_listing_gives_zero_offdiagonal(self, tmp_path):
        tg = tmp_path / "g.tg"
        save_graph(grid_to_graph(plain_weave(4, 4)), tg)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("id,path,category\none,g.tg,x\ntwo,g.tg,x\n")
        out = tmp_path / "d.csv"
        for metric in ("jaccard", "hbool", "hfreq", "cosine", "tfidf"):
            assert main(["distmatrix", "--manifest", str(manifest), "--metric", metric,
                         "--k", "2", "--out", str(out)]) == 0
            lines = read(out).splitlines()
            assert lines[0] == "id,one,two"
            assert lines[1].split(",")[2] in ("0", "0.0")

    def test_unknown_metric_is_usage_error(self, tiny_corpus, tmp_path, capsys):
        code = main(["distmatrix", "--manifest", str(tiny_corpus), "--metric", "euclid",
                     "--k", "2", "--out", str(tmp_path / "d.csv")])
        assert code == 1

    def test_threads_flag_is_gone(self, tiny_corpus, tmp_path):
        assert main(["--threads", "2", "distmatrix", "--manifest", str(tiny_corpus), "--metric", "jaccard",
                     "--k", "2", "--out", str(tmp_path / "d.csv")]) == 1


@pytest.fixture()
def tiny_pipeline(tiny_corpus, tmp_path):
    dist = tmp_path / "dist.csv"
    assert main(["distmatrix", "--manifest", str(tiny_corpus), "--metric", "jaccard",
                 "--k", "3", "--out", str(dist)]) == 0
    return tiny_corpus, dist


class TestCluster:
    def test_separates_tiny_corpus(self, tiny_pipeline, tmp_path, capsys):
        manifest, dist = tiny_pipeline
        report_path = tmp_path / "cluster.json"
        assert main(["cluster", "--dist", str(dist), "--clusters", "2",
                     "--truth", str(manifest), "--report", str(report_path)]) == 0
        report = json.loads(read(report_path))
        assert report["RI"] == 1.0 and report["F"] == 1.0
        assert set(report["clusters"].values()) == {0, 1}
        assert "RI=1.000000" in capsys.readouterr().out

    def test_singleton_truth_with_m_equals_n(self, tmp_path):
        tg = tmp_path / "g.tg"
        save_graph(grid_to_graph(plain_weave(3, 3)), tg)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("id,path,category\na,g.tg,ca\nb,g.tg,cb\nc,g.tg,cc\n")
        dist = tmp_path / "d.csv"
        assert main(["distmatrix", "--manifest", str(manifest), "--metric", "hfreq",
                     "--k", "1", "--out", str(dist)]) == 0
        report_path = tmp_path / "r.json"
        assert main(["cluster", "--dist", str(dist), "--clusters", "3",
                     "--truth", str(manifest), "--report", str(report_path)]) == 0
        assert json.loads(read(report_path))["RI"] == 1.0

    def test_bad_cluster_count_is_data_error(self, tiny_pipeline, tmp_path):
        manifest, dist = tiny_pipeline
        assert main(["cluster", "--dist", str(dist), "--clusters", "99",
                     "--truth", str(manifest), "--report", str(tmp_path / "r.json")]) == 2


class TestRetrieve:
    def test_curves_and_report(self, tiny_pipeline, tmp_path, capsys):
        manifest, dist = tiny_pipeline
        curves_path, report_path = tmp_path / "curves.csv", tmp_path / "map.json"
        assert main(["retrieve", "--dist", str(dist), "--truth", str(manifest),
                     "--curves", str(curves_path), "--report", str(report_path)]) == 0
        lines = read(curves_path).splitlines()
        assert lines[0] == "recall_level,avg_precision,avg_fmeasure"
        assert len(lines) == 12
        assert json.loads(read(report_path))["MAP"] == 1.0
        assert "MAP=1.000000" in capsys.readouterr().out


@pytest.mark.parametrize("cell", ["nan", "inf", "-1", "1_0", "\u0663"])
@pytest.mark.parametrize("command", ["cluster", "retrieve"])
def test_bad_distance_cell_is_data_error(tiny_corpus, tmp_path, capsys, command, cell):
    dist = tmp_path / "bad.csv"
    dist.write_text(f"id,a,b\na,0,{cell}\nb,{cell},0\n", encoding="utf-8")
    outputs = {"cluster": ["--clusters", "1", "--report", str(tmp_path / "r.json")],
               "retrieve": ["--curves", str(tmp_path / "c.csv"), "--report", str(tmp_path / "r.json")]}
    assert main([command, "--dist", str(dist), "--truth", str(tiny_corpus), *outputs[command]]) == 2
    assert "row 1 ('a')" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["cluster", "retrieve"])
def test_asymmetric_distance_csv_is_data_error(tiny_corpus, tmp_path, capsys, command):
    # UPGMA would read d(a,c) = 5 from the upper triangle and retrieval 0.5 from row c
    dist = tmp_path / "asymmetric.csv"
    dist.write_text("id,a,b,c\na,0,1,5\nb,9,0,2\nc,0.5,7,3\n", encoding="utf-8")
    outputs = {"cluster": ["--clusters", "1", "--report", str(tmp_path / "r.json")],
               "retrieve": ["--curves", str(tmp_path / "c.csv"), "--report", str(tmp_path / "r.json")]}
    assert main([command, "--dist", str(dist), "--truth", str(tiny_corpus), *outputs[command]]) == 2
    assert capsys.readouterr().err == (f"weftprint {command}: error: {dist}: distance matrix row 1 ('a'): "
                                       "distances must be symmetric, got 1.0 in column 'b'\n")
    assert not (tmp_path / "r.json").exists()
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("command", ["cluster", "retrieve"])
def test_text_after_a_closing_quote_is_data_error(tiny_corpus, tmp_path, capsys, command):
    # a lax csv reader would load the id as ax
    dist = tmp_path / "quoted.csv"
    dist.write_text('id,"a"x,b\nax,0,1\nb,1,0\n', encoding="utf-8")
    outputs = {"cluster": ["--clusters", "1", "--report", str(tmp_path / "r.json")],
               "retrieve": ["--curves", str(tmp_path / "c.csv"), "--report", str(tmp_path / "r.json")]}
    assert main([command, "--dist", str(dist), "--truth", str(tiny_corpus), *outputs[command]]) == 2
    assert capsys.readouterr().err == f"weftprint {command}: error: {dist}: distance CSV: ',' expected after '\"'\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "row",
    [f"a,g.tg,{'x' * 140_000}", "a,g.tg,x\ry", 'a,g.tg,"x', 'a,g.tg,"x"y'],
    ids=["oversized_field", "bare_cr", "unclosed_quote", "text_after_quote"],
)
def test_bad_truth_manifest_is_data_error(tiny_pipeline, tmp_path, capsys, row):
    _, dist = tiny_pipeline
    truth = tmp_path / "truth.csv"
    truth.write_bytes(f"id,path,category\n{row}\n".encode())
    report = tmp_path / "r.json"
    assert main(["cluster", "--dist", str(dist), "--clusters", "2", "--truth", str(truth),
                 "--report", str(report)]) == 2
    assert f"error: {truth}: manifest" in capsys.readouterr().err
    assert not report.exists()


class TestBench:
    def test_rows_and_monotone_endpoints(self, tmp_path):
        spec = tmp_path / "spec.ini"
        spec.write_text(TINY_SPEC)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--spec", str(spec), "--k-range", "1..4",
                     "--metrics", "jaccard,hbool", "--repeats", "3", "--out", str(out)]) == 0
        lines = read(out).splitlines()
        assert lines[0] == "metric,k,seconds"
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            (m, str(k)) for k in range(1, 5) for m in ("jaccard", "hbool")
        ]
        seconds = {(r[0], int(r[1])): float(r[2]) for r in rows}
        assert all(v > 0 for v in seconds.values())
        # coarse k-scaling check on the endpoints
        assert seconds[("jaccard", 4)] >= seconds[("jaccard", 1)]

    def test_seed_flag_replaces_the_spec_seed(self, tmp_path):
        # generate and bench read the spec the same way: --seed 99 replaces the spec's seed 3
        spec = tmp_path / "spec.ini"
        spec.write_text(TINY_SPEC)
        with mock.patch.object(corpus_mod, "generate_corpus", wraps=corpus_mod.generate_corpus) as spy:
            assert main(["--seed", "99", "bench", "--spec", str(spec), "--k-range", "1..1",
                         "--repeats", "1", "--out", str(tmp_path / "b.csv")]) == 0
            assert main(["--seed", "99", "generate", "--spec", str(spec), "--out-dir", str(tmp_path / "c")]) == 0
        assert [call.args[0].seed for call in spy.call_args_list] == [99, 99]

    def test_bad_k_range_is_data_error(self, tmp_path):
        spec = tmp_path / "spec.ini"
        spec.write_text(TINY_SPEC)
        assert main(["bench", "--spec", str(spec), "--k-range", "4",
                     "--out", str(tmp_path / "b.csv")]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--k-range", "0..2"], "--k-range needs 1 <= a <= b, got '0..2'"),
        (["--k-range", "3..2"], "--k-range needs 1 <= a <= b, got '3..2'"),
        (["--metrics", "jaccard,euclid"], "unknown metric 'euclid', expected one of " + str(METRICS)),
        (["--repeats", "0"], "--repeats must be >= 1"),
        (["--metrics", "jaccard\u00a0,\u2028hbool"], "unknown metric 'jaccard\\xa0', expected one of " + str(METRICS)),
        (["--k-range", "1.." + "1" * 5000], "--k-range bound: integer has too many digits: 5000"),
    ], ids=["k_below_one", "k_reversed", "unknown_metric", "no_repeats", "unicode_blank_metric", "k_past_digit_limit"])
    def test_refused_values_are_data_errors(self, tmp_path, capsys, flags, message):
        spec = tmp_path / "spec.ini"
        spec.write_text(TINY_SPEC)
        # a repeated flag's last value is the one argparse keeps
        assert main(["bench", "--spec", str(spec), "--k-range", "1..2", "--repeats", "1", *flags,
                     "--out", str(tmp_path / "b.csv")]) == 2
        assert capsys.readouterr().err == f"weftprint bench: error: {message}\n"
        assert not (tmp_path / "b.csv").exists()

    def test_empty_metric_list_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text(TINY_SPEC)
        assert main(["bench", "--spec", str(spec), "--k-range", "1..2", "--metrics", ",",
                     "--out", str(tmp_path / "b.csv")]) == 2
        assert "--metrics" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()


class TestIntegerFlags:
    # Flags take the file formats' integer rule: ASCII digits and a sign.
    # the last is past int()'s digit limit (sys.get_int_max_str_digits()), and echoed cut short
    BAD = ["\u0663", "1_0", " 9 ", "9 ", pytest.param("1" * 5000, id="5000_digits")]
    ECHO = {"1" * 5000: f"{'1' * 20!r}… (5000 characters)"}

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("flag", ["--seed", "--k", "--clusters", "--repeats"])
    def test_bad_value_is_usage_error(self, flag, value, tmp_path, capsys):
        argv = {
            "--seed": ["--seed", value, "generate", "--spec", "s.ini", "--out-dir", str(tmp_path / "c")],
            "--k": ["fingerprint", "--in", "g.tg", "--k", value, "--out", str(tmp_path / "g.fp")],
            "--clusters": ["cluster", "--dist", "d.csv", "--clusters", value, "--truth", "m.csv",
                           "--report", str(tmp_path / "r.json")],
            "--repeats": ["bench", "--spec", "s.ini", "--k-range", "1..2", "--repeats", value,
                          "--out", str(tmp_path / "b.csv")],
        }[flag]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid int value: {self.ECHO.get(value, repr(value))}" in err
        assert len(err) < 1000
        assert not any(tmp_path.iterdir())

    def test_non_numeric_value_keeps_the_argparse_message(self, capsys):
        assert main(["fingerprint", "--in", "g.tg", "--k", "abc", "--out", "g.fp"]) == 1
        assert "argument --k: invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("k_range", ["1_0..1_2", "\u0661..\u0663", " 1..2", "1..2 ", "1.. 2", "+..2"])
    def test_bad_k_range_bound_is_data_error(self, k_range, tmp_path, capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text(TINY_SPEC)
        assert main(["bench", "--spec", str(spec), "--k-range", k_range, "--out", str(tmp_path / "b.csv")]) == 2
        bad = next(bound for bound in k_range.split("..") if not re.fullmatch(r"[+-]?[0-9]+", bound))
        assert f"--k-range bound: {bad!r} is not an integer" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    def test_signed_ascii_values_still_parse(self, tmp_path):
        spec = tmp_path / "spec.ini"
        spec.write_text(TINY_SPEC)
        assert main(["--seed", "+7", "bench", "--spec", str(spec), "--k-range", "+1..02",
                     "--repeats", "+1", "--out", str(tmp_path / "b.csv")]) == 0
        assert [line.split(",")[1] for line in read(tmp_path / "b.csv").splitlines()[1:]] == ["1", "2"]


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_arguments_is_usage_error(self):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_desk_scale_config_parses_via_cli(self, tmp_path):
        # the acceptance-study spec must be expressible as a spec file
        spec = tmp_path / "desk.ini"
        spec.write_text(desk_scale_config_text())
        from weftprint.corpus import load_corpus_spec

        parsed = load_corpus_spec(spec)
        assert len(parsed.categories) == 9

    def test_non_utf8_files_are_named_once(self, tiny_corpus, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.write_bytes(b"crossings\xff 1\n")
        out = str(tmp_path / "out")
        commands = {
            "fingerprint": ["--in", str(bad), "--k", "1", "--out", out],
            "generate": ["--spec", str(bad), "--out-dir", out],
            "distmatrix": ["--manifest", str(bad), "--metric", "hbool", "--k", "1", "--out", out],
            "cluster": ["--dist", str(bad), "--clusters", "2", "--truth", str(tiny_corpus), "--report", out],
        }
        for command, args in commands.items():
            assert main([command, *args]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"weftprint {command}: error: {bad}: not UTF-8: byte 9: invalid start byte" for command in commands
        ]

    @pytest.mark.parametrize("command", ["generate", "fingerprint", "distmatrix", "cluster", "retrieve", "bench"])
    def test_parse_errors_name_their_file(self, tiny_corpus, tmp_path, capsys, command):
        # cluster and retrieve read two files; the message says which one is bad
        spec, dist, graph = tmp_path / "bad.ini", tmp_path / "bad.csv", tiny_corpus.parent / "plain-001.tg"
        spec.write_text("[a]\nkind = plain\ncount = x\n")
        dist.write_text("id,a,b\na,0,x\nb,1,0\n")
        graph.write_text("crossings 1\n0 x-1 1 1\n1 -1 1 0\n2 -1 0 3\n3 -1 0 2\n")
        out = tmp_path / "out"
        argv, message = {
            "generate": (["--spec", spec, "--out-dir", out], f"{spec}: category 'a': count: 'x' is not an integer"),
            "fingerprint": (["--in", graph, "--k", "2", "--out", out],
                            f"{graph}: line 2, column 3: next index: 'x-1' is not an integer"),
            "distmatrix": (["--manifest", tiny_corpus, "--metric", "jaccard", "--k", "2", "--out", out],
                           f"{graph}: line 2, column 3: next index: 'x-1' is not an integer"),
            "cluster": (["--dist", dist, "--clusters", "2", "--truth", tiny_corpus, "--report", out],
                        f"{dist}: distance CSV row 1 ('a'): 'x' is not a decimal number in column 'b'"),
            "retrieve": (["--dist", dist, "--truth", tiny_corpus, "--curves", out, "--report", out],
                         f"{dist}: distance CSV row 1 ('a'): 'x' is not a decimal number in column 'b'"),
            "bench": (["--spec", spec, "--k-range", "1..2", "--out", out],
                      f"{spec}: category 'a': count: 'x' is not an integer"),
        }[command]
        assert main([command, *map(str, argv)]) == 2
        assert capsys.readouterr().err == f"weftprint {command}: error: {message}\n"
        assert not out.exists()


LONG_TOKEN = "x" * 100_000
LONG_TOKEN_READERS = {
    "tg_field": lambda: parse_graph(f"crossings 1\n0 {LONG_TOKEN} 1 1\n1 -1 1 0\n2 -1 0 3\n3 -1 0 2\n"),
    "fp_count": lambda: text_to_fingerprint(f"A,A;A,A {LONG_TOKEN}\n"),
    "fp_key": lambda: text_to_fingerprint(f"{LONG_TOKEN} 1\n"),
    "csv_cell": lambda: csv_to_distance_matrix(f"id,a,b\na,0,{LONG_TOKEN}\nb,1,0\n"),
    "spec_value": lambda: parse_corpus_spec(f"[a]\nkind = plain\ncount = {LONG_TOKEN}\n"),
    "k_flag": lambda: main(["fingerprint", "--in", "g.tg", "--k", LONG_TOKEN, "--out", "g.fp"]),
}


@pytest.mark.parametrize("way_in", LONG_TOKEN_READERS)
def test_long_tokens_are_echoed_cut_short(way_in, capsys):
    try:
        assert LONG_TOKEN_READERS[way_in]() == 1  # only main returns: a usage error
        message = capsys.readouterr().err.splitlines()[-1]
    except ValueError as exc:
        message = str(exc)
    assert len(message) < 200
    assert "'xxxxxxxxxxxxxxxxxxxx'… (100000 characters)" in message


# A graph that parses but breaks the model: next(0) = 4, but next(4) is terminal.
ASYMMETRIC_TG = ("crossings 2\n0 4 1 1\n1 -1 1 0\n2 -1 0 3\n3 -1 0 2\n"
                 "4 -1 1 5\n5 -1 1 4\n6 -1 0 7\n7 -1 0 6\n")


def main_on_cpus(cpus, argv):
    """``main(argv)`` as seen on a host with ``cpus`` available CPUs."""
    with mock.patch.object(os, "sched_getaffinity", return_value=set(range(cpus))), \
         mock.patch.object(multiprocessing, "get_context", wraps=multiprocessing.get_context) as get_context:
        code = main(argv)
    assert get_context.called == (cpus > 1)  # the pool ran exactly when two CPUs were offered
    return code


def _worker_dies(path, k):
    os._exit(3)  # as when the kernel kills a worker


def _no_answer(signum, frame):
    raise TimeoutError("the command went on waiting for a dead worker")


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="the pool needs the affinity call")
class TestFingerprintPool:
    def test_fingerprint_files_are_identical_on_one_and_two_cpus(self, tiny_corpus, tmp_path):
        written = []
        for cpus in (1, 2):
            out = tmp_path / f"fps{cpus}"
            assert main_on_cpus(cpus, ["fingerprint", "--in", str(tiny_corpus.parent), "--k", "3",
                                       "--out", str(out)]) == 0
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(written[0]) == 8
        assert written[0] == written[1]

    @pytest.mark.parametrize("metric", METRICS)
    def test_distance_csv_is_identical_on_one_and_two_cpus(self, tiny_corpus, tmp_path, metric):
        written = []
        for cpus in (1, 2):
            out = tmp_path / f"d{cpus}.csv"
            assert main_on_cpus(cpus, ["distmatrix", "--manifest", str(tiny_corpus), "--metric", metric,
                                       "--k", "3", "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_broken_file_in_input_order_is_named(self, tiny_corpus, tmp_path, capsys, cpus):
        corpus = tiny_corpus.parent
        (corpus / "plain-001.tg").write_text("crossings 1\n0 x-1 1 1\n1 -1 1 0\n2 -1 0 3\n3 -1 0 2\n")
        (corpus / "warped-002.tg").write_text(ASYMMETRIC_TG)
        unparsed = "line 2, column 3: next index: 'x-1' is not an integer"
        invalid = "invalid graph: node 0: asymmetric thread link (next(0)=4, next(4)=-1)"
        reversed_manifest = corpus / "reversed.csv"
        lines = read(tiny_corpus).splitlines()
        reversed_manifest.write_text("\n".join([lines[0], *reversed(lines[1:])]) + "\n")
        # sorted directory order meets plain-001 first; the reversed manifest meets warped-002 first
        assert main_on_cpus(cpus, ["fingerprint", "--in", str(corpus), "--k", "2", "--out", str(tmp_path / "fps")]) == 2
        assert main_on_cpus(cpus, ["distmatrix", "--manifest", str(tiny_corpus), "--metric", "jaccard",
                                   "--k", "2", "--out", str(tmp_path / "d.csv")]) == 2
        assert main_on_cpus(cpus, ["distmatrix", "--manifest", str(reversed_manifest), "--metric", "jaccard",
                                   "--k", "2", "--out", str(tmp_path / "d.csv")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"weftprint fingerprint: error: {corpus / 'plain-001.tg'}: {unparsed}",
            f"weftprint distmatrix: error: {corpus / 'plain-001.tg'}: {unparsed}",
            f"weftprint distmatrix: error: {corpus / 'warped-002.tg'}: {invalid}",
        ]
        assert not (tmp_path / "fps").exists()  # no .fp file is written unless every graph is good
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_bad_depth_names_no_file(self, tiny_corpus, tmp_path, capsys, cpus):
        assert main_on_cpus(cpus, ["distmatrix", "--manifest", str(tiny_corpus), "--metric", "jaccard",
                                   "--k", "0", "--out", str(tmp_path / "d.csv")]) == 2
        assert capsys.readouterr().err == "weftprint distmatrix: error: walk depth k must be >= 1, got 0\n"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_generated_files_never_take_the_line_reader(self, tiny_corpus, tmp_path, cpus):
        # A generated file off the canonical reader would keep every output and lose the speed.
        # Pool workers fork, so they inherit the failing line reader.
        def line_reader(text):
            raise AssertionError("a .tg file took the line-by-line reader")

        corpus = tiny_corpus.parent
        fingerprint = ["fingerprint", "--in", str(corpus), "--k", "2", "--out", str(tmp_path / "fps")]
        with mock.patch("weftprint.graph._parse_lines", line_reader):
            assert main_on_cpus(cpus, fingerprint) == 0
            assert main_on_cpus(cpus, ["distmatrix", "--manifest", str(tiny_corpus), "--metric", "jaccard",
                                       "--k", "2", "--out", str(tmp_path / "d.csv")]) == 0
            # the guard is live: the same graph with CR LF line ends takes the line reader
            path = corpus / "plain-000.tg"
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            with pytest.raises(AssertionError, match="line-by-line reader"):
                main_on_cpus(cpus, fingerprint)

    def test_dead_worker_fails_the_command(self, tiny_corpus, tmp_path, capsys):
        # a worker that dies fails the command, where a multiprocessing.Pool would wait forever
        previous = signal.signal(signal.SIGALRM, _no_answer)
        signal.alarm(60)
        try:
            with mock.patch("weftprint.cli._fingerprint_file", _worker_dies):
                code = main_on_cpus(2, ["fingerprint", "--in", str(tiny_corpus.parent), "--k", "2",
                                        "--out", str(tmp_path / "fps")])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2
        assert capsys.readouterr().err == (
            "weftprint fingerprint: error: a worker process died before it fingerprinted its files\n")
        assert not (tmp_path / "fps").exists()


REPEATED_SPEC = """\
[corpus]
seed = 5

[plain]
kind = plain
count = 4
width = 6
height = 6
perturb_fraction = 0.5
perturb_rate = 0.2

[warped]
kind = warp_above
count = 3
width = 6
height = 6
"""


@pytest.fixture()
def repeated_corpus(tmp_path):
    """A corpus whose files repeat: equal clean samples, and byte-identical copies of a perturbed one."""
    spec = tmp_path / "spec.ini"
    spec.write_text(REPEATED_SPEC)
    out = tmp_path / "corpus"
    assert main(["generate", "--spec", str(spec), "--out-dir", str(out)]) == 0
    manifest = out / "manifest.csv"
    clean = (out / "plain-000.tg").read_bytes()
    perturbed = next(p for p in sorted(out.glob("plain-*.tg")) if p.read_bytes() != clean)
    for copy in ("copy-a", "copy-b"):
        (out / f"{copy}.tg").write_bytes(perturbed.read_bytes())
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write(f"{copy},{copy}.tg,plain\n")
    return manifest


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="the pool needs the affinity call")
class TestRepeatedFiles:
    def test_outputs_equal_one_walk_per_file(self, repeated_corpus, tmp_path):
        paths = [row[1] for row in corpus_mod.read_manifest(repeated_corpus)]
        assert 2 < len({path.read_bytes() for path in paths}) < len(paths)  # some files repeat, some differ
        want_fps = {p.stem + ".fp": fingerprint_to_text(fingerprint(load_graph(p), 3)).encode() for p in paths}
        for cpus in (1, 2):
            out = tmp_path / f"fps{cpus}"
            assert main_on_cpus(cpus, ["fingerprint", "--in", str(repeated_corpus.parent), "--k", "3",
                                       "--out", str(out)]) == 0
            assert {p.name: p.read_bytes() for p in out.iterdir()} == want_fps
        for metric in METRICS:
            want = distance_matrix_to_csv(distance_matrix([fingerprint(load_graph(p), 3) for p in paths], metric,
                                                          ids=[p.stem for p in paths])).encode()
            for cpus in (1, 2):
                out = tmp_path / f"{metric}{cpus}.csv"
                assert main_on_cpus(cpus, ["distmatrix", "--manifest", str(repeated_corpus), "--metric", metric,
                                           "--k", "3", "--out", str(out)]) == 0
                assert out.read_bytes() == want

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_failure_in_input_order_is_named(self, repeated_corpus, tmp_path, capsys, cpus):
        corpus = repeated_corpus.parent
        (corpus / "bad.tg").write_text(ASYMMETRIC_TG)
        (corpus / "bad-copy.tg").write_text(ASYMMETRIC_TG)
        invalid = "invalid graph: node 0: asymmetric thread link (next(0)=4, next(4)=-1)"
        missing = corpus / "missing.tg"
        orders = [["plain-000", "bad", "warped-000", "bad-copy", "missing"],
                  ["plain-000", "bad-copy", "bad", "missing"],
                  ["plain-000", "warped-000", "missing", "bad", "bad-copy"]]
        for n, order in enumerate(orders):
            manifest = corpus / f"order{n}.csv"
            manifest.write_text("id,path,category\n" + "".join(f"{name},{name}.tg,x\n" for name in order))
            assert main_on_cpus(cpus, ["distmatrix", "--manifest", str(manifest), "--metric", "jaccard",
                                       "--k", "2", "--out", str(tmp_path / "d.csv")]) == 2
        assert main_on_cpus(cpus, ["fingerprint", "--in", str(corpus), "--k", "2", "--out", str(tmp_path / "fps")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"weftprint distmatrix: error: {corpus / 'bad.tg'}: {invalid}",
            f"weftprint distmatrix: error: {corpus / 'bad-copy.tg'}: {invalid}",
            f"weftprint distmatrix: error: [Errno 2] No such file or directory: '{missing}'",
            f"weftprint fingerprint: error: {corpus / 'bad-copy.tg'}: {invalid}",  # sorted, bad-copy comes first
        ]
        assert not (tmp_path / "d.csv").exists()
        assert not (tmp_path / "fps").exists()

    def test_serial_route_walks_each_distinct_text_once(self, repeated_corpus, tmp_path):
        walked = []
        real = cli._fingerprint_file

        def fingerprint_file(file, k):
            walked.append(file[0])
            return real(file, k)

        paths = [row[1] for row in corpus_mod.read_manifest(repeated_corpus)]
        firsts = {}
        for path in paths:
            firsts.setdefault(path.read_bytes(), path)
        with mock.patch("weftprint.cli._fingerprint_file", fingerprint_file):
            assert main_on_cpus(1, ["distmatrix", "--manifest", str(repeated_corpus), "--metric", "jaccard",
                                    "--k", "2", "--out", str(tmp_path / "d.csv")]) == 0
        assert walked == list(firsts.values())
        assert len(walked) < len(paths)
