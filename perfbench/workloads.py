"""The three benchmark workloads and the checks on their outputs.

Each workload prepares its inputs in :meth:`setup`, runs one closed-loop
pass of its step sequence in :meth:`run_pass` (every step starts when the
previous one returns, one caller, the default single thread) and checks
the outputs of a pass in :meth:`check_pass`.  Steps are timed one by one;
checks run outside the timed region.

* ``study-desk``: the desk study through ``weftprint.cli.main``, on files.
  Graph ingest dominates: every ``distmatrix`` re-parses and re-walks the
  corpus.
* ``matrix-x3``: the library study on a corpus three times the desk size.
  Distance computation dominates and no graph is parsed.
* ``rescore-n999``: CLI ``cluster`` and ``retrieve`` over two precomputed
  999x999 distance CSVs.  Evaluation dominates; no graph, fingerprint or
  distance is computed in the pass.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import importlib
import io
import json
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

from weftprint import cli, corpus, distance, evaluation, pipeline

# ``weftprint.fingerprint`` is the function; the package attribute shadows the module.
fingerprint_mod = importlib.import_module("weftprint.fingerprint")

METRICS = distance.METRICS
K = 4
CLUSTERS = 9
DEFAULT_SEED = 7

# The desk-scale study corpus: 9 categories of 24x24 weaves, each 50%
# clean, 25% perturbed at rate 0.03 and 25% rotated or mirrored.
DESK_KINDS = (
    ("plain", "plain"),
    ("twill-2-1", "twill(2,1)"),
    ("twill-2-2", "twill(2,2)"),
    ("twill-3-1", "twill(3,1)"),
    ("twill-3-3", "twill(3,3)"),
    ("twill-4-4", "twill(4,4)"),
    ("satin-5-2", "satin(5,2)"),
    ("warp-above", "warp_above"),
    ("random-mixed", "mixed(8,2)"),
)


def desk_spec(seed: int, count: int = 20, perturb_rate: float = 0.03) -> corpus.CorpusSpec:
    """The desk spec of the test suite with ``count`` samples per category."""
    return corpus.CorpusSpec(
        tuple(
            corpus.CategorySpec(
                name=name, kind=kind, count=count, width=24, height=24,
                perturb_fraction=0.25, perturb_rate=perturb_rate, transform_fraction=0.25,
                seed=seed + position,
            )
            for position, (name, kind) in enumerate(DESK_KINDS)
        ),
        seed=seed,
    )


def spec_to_ini(spec: corpus.CorpusSpec) -> str:
    lines = [f"[corpus]\nseed = {spec.seed}\n"]
    for cat in spec.categories:
        lines.append(f"[{cat.name}]")
        lines.extend(f"{f.name} = {getattr(cat, f.name)}" for f in dataclasses.fields(cat) if f.name != "name")
        lines.append("")
    return "\n".join(lines)


# --- digests and samples -----------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode() + b"\0" + Path(path).read_bytes() + b"\0")
    return h.hexdigest()


def dir_digest(directory) -> str:
    return file_digest(*sorted(Path(directory).iterdir()))


def matrix_digest(dm) -> str:
    return _sha("\n".join(dm.ids).encode() + b"\0" + dm.metric.encode() + b"\0" + dm.values.tobytes())


# Writers of the three text formats, rebuilt here from their documented
# grammar, so that a change in the program's own formatting cannot hide
# from the checks that compare against them.


def tg_text(graph) -> str:
    nodes = zip(graph.next_node.tolist(), graph.on_top.tolist(), graph.opposite.tolist())
    lines = ["# weftprint graph format 1", f"crossings {graph.crossing_count}"]
    lines += [f"{i} {nxt} {int(top)} {opp}" for i, (nxt, top, opp) in enumerate(nodes)]
    return "\n".join(lines) + "\n"


def fp_text(fp) -> str:
    """Sorted '<key> <count>' lines; the pad symbol '_' is written as '0'."""
    lines = sorted(f"{key.replace('_', '0')} {count}" for key, count in fp.items())
    return "\n".join(lines) + "\n" if lines else ""


def csv_cell(x: float, metric: str) -> str:
    """Integer-valued metrics unpadded, the rest with 12 significant digits."""
    return str(int(round(x))) if metric in ("hbool", "hfreq") else format(x, ".12g")


def fingerprints_digest(ids, fps) -> str:
    return _sha("".join(f"== {i}\n{fp_text(fp)}" for i, fp in zip(ids, fps)).encode())


def sample_pairs(n: int, size: int = 24) -> list[tuple[int, int]]:
    """A fixed spread of distinct index pairs (i < j) for cell checks."""
    pairs = {(0, 1), (0, n - 1), (n - 2, n - 1)}
    for t in range(size):
        i = (37 * t + 11) % n
        j = (i + 1 + (101 * t + 5) % (n - 1)) % n
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)


def read_csv_rows(path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def check_matrix_cells(dm, fps, stats, metric) -> list[str]:
    values = dm.values
    failures = []
    if not np.array_equal(values, values.T) or np.any(np.diag(values) != 0):
        failures.append(f"{metric} matrix is not symmetric with a zero diagonal")
    for i, j in sample_pairs(len(fps)):
        want = distance.pair_distance(fps[i], fps[j], metric, stats)
        if values[i, j] != want:
            failures.append(f"{metric}[{i},{j}] = {values[i, j]!r}, per-pair {want!r}")
    return failures


def check_cluster_report(path, ids) -> list[str]:
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    failures = []
    if set(report) != {"RI", "P", "R", "F", "clusters"}:
        return [f"{Path(path).name}: unexpected keys {sorted(report)}"]
    if not all(0.0 <= report[key] <= 1.0 for key in ("RI", "P", "R", "F")):
        failures.append(f"{Path(path).name}: a score lies outside [0, 1]")
    clusters = report["clusters"]
    if set(clusters) != set(ids) or set(clusters.values()) != set(range(CLUSTERS)):
        failures.append(f"{Path(path).name}: clusters do not assign every id to one of {CLUSTERS}")
    return failures


def check_retrieval_report(curves_path, report_path) -> list[str]:
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    failures = []
    if set(report) != {"MAP"} or not 0.0 < report["MAP"] <= 1.0:
        failures.append(f"{Path(report_path).name}: expected one MAP in (0, 1], got {report}")
    rows = read_csv_rows(curves_path)
    if rows[0] != ["recall_level", "avg_precision", "avg_fmeasure"] or len(rows) != 12:
        failures.append(f"{Path(curves_path).name}: expected a header and 11 recall levels")
    return failures


def check_partition(partition, ids) -> list[str]:
    if set(partition.assignment) != set(ids) or partition.n_clusters != CLUSTERS:
        return [f"partition does not assign every id to one of {CLUSTERS} clusters"]
    return []


def category_distances(values: np.ndarray, categories) -> dict[str, float]:
    """Mean distance over item pairs of one category and over pairs of two."""
    cats = np.asarray(categories)
    same = cats[:, None] == cats[None, :]
    upper = np.triu(np.ones_like(same), k=1)
    return {
        "within": float(values[same & upper].mean()),
        "between": float(values[~same & upper].mean()),
    }


def support_summary(fps) -> dict:
    sizes = [len(fp) for fp in fps]
    vocab = set()
    for fp in fps:
        vocab.update(fp)
    return {
        "vocab": len(vocab),
        "support_min": min(sizes),
        "support_median": statistics.median(sizes),
        "support_max": max(sizes),
    }


# --- steps -------------------------------------------------------------------


@dataclasses.dataclass
class Op:
    """One timed step of a pass and the outcome of the checks on it."""

    name: str
    metric: str  # the end-to-end timing it is a sample of
    seconds: float = 0.0
    value: object = None
    error: str = ""
    failures: list = dataclasses.field(default_factory=list)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and not self.failures


def timed(name: str, metric: str, fn, /, *args, **kwargs) -> Op:
    op = Op(name, metric)
    start = time.perf_counter()
    try:
        op.value = fn(*args, **kwargs)
    except Exception:
        op.error = traceback.format_exc(limit=-3)
    op.seconds = time.perf_counter() - start
    return op


def run_cli(name: str, metric: str, argv) -> Op:
    """One ``weftprint`` command in this process; its console output is kept off stdout."""
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        op = timed(name, metric, cli.main, [str(a) for a in argv])
    if not op.error and op.value != 0:
        op.error = f"exit code {op.value}: {log.getvalue().strip()[-500:]}"
    return op


class Workload:
    name = ""
    corpus_graphs = 0
    setup_repeats = 7  # set-up is timed this many times per untraced run; the median is reported
    min_passes = 1  # untraced passes per run, however long they take

    def __init__(self, seed: int, expected: dict | None):
        self.seed = seed
        self.expected = expected  # digests recorded from the seed commit, or None
        self.first_digests: dict[str, str] = {}

    def setup(self, directory: Path) -> None:
        raise NotImplementedError

    def setup_checks(self) -> tuple[dict[str, str], list[str]]:
        """Digests of the set-up outputs and the failures of their checks."""
        return {}, []

    def run_pass(self, directory: Path) -> list[Op]:
        raise NotImplementedError

    def inspect(self, op: Op, directory: Path, outputs: dict) -> None:
        """Fill ``op.digest`` and ``op.failures`` from the step's outputs."""
        raise NotImplementedError

    def diagnostics(self, outputs: dict, directory: Path) -> dict:
        raise NotImplementedError

    def check_pass(self, ops: list[Op], directory: Path) -> None:
        outputs = {op.name: op.value for op in ops}
        for op in ops:
            if op.error:
                continue
            try:
                self.inspect(op, directory, outputs)
            except Exception:
                op.failures.append(traceback.format_exc(limit=-3))
                continue
            self.compare_digest(op.name, op.digest, op.failures)

    def compare_digest(self, key: str, digest: str, failures: list) -> None:
        """Outputs must repeat across passes, and match the seed commit's on the default seed."""
        first = self.first_digests.setdefault(key, digest)
        if digest != first:
            failures.append(f"{key}: output differs from the first pass")
        if self.expected is not None and digest != self.expected.get(key):
            failures.append(f"{key}: digest {digest[:12]} differs from the recorded {str(self.expected.get(key))[:12]}")

    def check_setup(self) -> list[str]:
        digests, failures = self.setup_checks()
        for key, digest in digests.items():
            self.compare_digest(key, digest, failures)
        return failures


class Expectations:
    """What the output checks compare against, computed in memory from the spec side.

    Only small values are kept (ids, a fixed sample of cells and texts), so
    no large object graph outlives set-up and weighs on the garbage
    collector while the program runs.
    """

    def __init__(self, items, fps, stats, metrics, texts: bool):
        self.ids = [item.id for item in items]
        self.categories = [item.category for item in items]
        self.shape = data_shape(self.ids, fps, items)
        self.pairs = sample_pairs(len(items))
        self.cells = {
            m: {(i, j): csv_cell(distance.pair_distance(fps[i], fps[j], m, stats), m) for i, j in self.pairs}
            for m in metrics
        }
        sampled = sorted({i for pair in self.pairs for i in pair})
        self.tg = {i: tg_text(items[i].graph) for i in sampled} if texts else {}
        self.fp = {i: fp_text(fps[i]) for i in sampled} if texts else {}

    def check_csv(self, path, metric) -> list[str]:
        """Compare the header and the sampled cells of a written matrix."""
        rows = read_csv_rows(path)
        if rows[0] != ["id", *self.ids]:
            return [f"{Path(path).name}: header ids differ from the corpus"]
        failures = []
        for (i, j), want in self.cells[metric].items():
            for a, b in ((i, j), (j, i)):
                if rows[a + 1][b + 1] != want:
                    failures.append(f"{Path(path).name}[{self.ids[a]},{self.ids[b]}] = "
                                    f"{rows[a + 1][b + 1]}, per-pair {want}")
        return failures


def data_shape(ids, fps, items) -> dict:
    n = len(ids)
    return {
        "graphs": n,
        "crossings": sum(item.graph.crossing_count for item in items),
        **support_summary(fps),
        "pairs_per_matrix": n * (n - 1) // 2,
    }


def report_scores(directory: Path, metric: str) -> dict:
    return {
        "MAP": json.loads((directory / f"{metric}.retrieve.json").read_text(encoding="utf-8"))["MAP"],
        "F": json.loads((directory / f"{metric}.cluster.json").read_text(encoding="utf-8"))["F"],
    }


def rescore_ops(matrices: dict, manifest, directory: Path) -> list[Op]:
    """``cluster`` then ``retrieve`` on each distance CSV, through the CLI."""
    ops = []
    for m, path in matrices.items():
        ops.append(run_cli(f"cluster_{m}", "cluster_s",
                           ["cluster", "--dist", path, "--clusters", CLUSTERS,
                            "--truth", manifest, "--report", directory / f"{m}.cluster.json"]))
        ops.append(run_cli(f"retrieve_{m}", "retrieve_s",
                           ["retrieve", "--dist", path, "--truth", manifest,
                            "--curves", directory / f"{m}.curves.csv",
                            "--report", directory / f"{m}.retrieve.json"]))
    return ops


def inspect_rescore(op: Op, directory: Path, ids) -> None:
    kind, _, m = op.name.partition("_")
    if kind == "cluster":
        op.failures += check_cluster_report(directory / f"{m}.cluster.json", ids)
        op.digest = file_digest(directory / f"{m}.cluster.json")
    else:
        op.failures += check_retrieval_report(directory / f"{m}.curves.csv", directory / f"{m}.retrieve.json")
        op.digest = file_digest(directory / f"{m}.curves.csv", directory / f"{m}.retrieve.json")


class StudyDesk(Workload):
    """The desk study run as a user would, one CLI command after another.

    Set-up writes the spec and computes the expected outputs in memory
    (corpus, fingerprints, TF-IDF statistics, sampled cells).
    """

    name = "study-desk"
    corpus_graphs = 180
    min_passes = 2  # one pass (~16 s) swings 10-30% with the machine's speed

    def setup(self, directory: Path) -> None:
        spec = desk_spec(self.seed)
        directory.mkdir(parents=True)
        text = spec_to_ini(spec)
        if corpus.parse_corpus_spec(text) != spec:
            raise RuntimeError("the written spec does not read back as the desk spec")
        self.spec_path = directory / "desk.ini"
        self.spec_path.write_text(text, encoding="utf-8")
        items = corpus.generate_corpus(spec)
        fps = [fingerprint_mod.fingerprint(item.graph, K) for item in items]
        self.want = Expectations(items, fps, distance.corpus_stats(fps), METRICS, texts=True)

    def run_pass(self, directory: Path) -> list[Op]:
        directory.mkdir(parents=True)
        manifest = directory / "corpus" / corpus.MANIFEST_NAME
        ops = [
            run_cli("generate", "generate_s", ["generate", "--spec", self.spec_path, "--out-dir", directory / "corpus"]),
            run_cli("fingerprint", "fingerprint_s",
                    ["fingerprint", "--in", directory / "corpus", "--k", K, "--out", directory / "fp"]),
        ]
        for m in METRICS:
            ops.append(run_cli(f"distmatrix_{m}", f"distmatrix_{m}_s",
                               ["distmatrix", "--manifest", manifest, "--metric", m, "--k", K,
                                "--out", directory / f"{m}.csv"]))
            ops += rescore_ops({m: directory / f"{m}.csv"}, manifest, directory)
        return ops

    def inspect(self, op: Op, d: Path, outputs: dict) -> None:
        want = self.want
        kind, _, m = op.name.partition("_")
        if kind == "generate":
            rows = read_csv_rows(d / "corpus" / corpus.MANIFEST_NAME)[1:]
            if [(r[0], r[2]) for r in rows] != list(zip(want.ids, want.categories)):
                op.failures.append("manifest ids or categories differ from the spec")
            for i, text in want.tg.items():
                if (d / "corpus" / f"{want.ids[i]}.tg").read_text(encoding="utf-8") != text:
                    op.failures.append(f"{want.ids[i]}.tg differs from the in-memory graph")
            op.digest = dir_digest(d / "corpus")
        elif kind == "fingerprint":
            if sorted(p.name for p in (d / "fp").iterdir()) != sorted(f"{i}.fp" for i in want.ids):
                op.failures.append("the .fp files do not match the corpus ids")
            for i, text in want.fp.items():
                if (d / "fp" / f"{want.ids[i]}.fp").read_text(encoding="utf-8") != text:
                    op.failures.append(f"{want.ids[i]}.fp differs from the in-memory fingerprint")
            op.digest = dir_digest(d / "fp")
        elif kind == "distmatrix":
            op.failures += want.check_csv(d / f"{m}.csv", m)
            op.digest = file_digest(d / f"{m}.csv")
        else:
            inspect_rescore(op, d, want.ids)

    def diagnostics(self, outputs: dict, d: Path) -> dict:
        out = dict(self.want.shape)
        for m in METRICS:
            values = distance.load_distance_matrix(d / f"{m}.csv").values
            out[m] = {**report_scores(d, m), **category_distances(values, self.want.categories)}
        return out


class MatrixX3(Workload):
    """The library study on the x3 corpus: fingerprints once, five matrices, five evaluations.

    Set-up generates the corpus and converts each graph's arrays to lists
    once, as ``weftprint bench`` does before it times anything.
    """

    name = "matrix-x3"
    corpus_graphs = 540

    def setup(self, directory: Path) -> None:
        self.items = corpus.generate_corpus(desk_spec(self.seed, count=60))
        for item in self.items:
            item.graph._thread_arrays()
        self.labels = {item.id: item.category for item in self.items}

    def run_pass(self, directory: Path) -> list[Op]:
        ops = [timed("fingerprints", "fingerprint_s", pipeline.corpus_fingerprints, self.items, K)]
        if ops[0].error:
            return ops
        ids, fps = ops[0].value
        ops.append(timed("corpus_stats", "corpus_stats_s", distance.corpus_stats, fps))
        stats = ops[-1].value
        for m in METRICS:
            ops.append(timed(f"distmatrix_{m}", f"distmatrix_{m}_s", distance.distance_matrix, fps, m,
                             ids=ids, stats=stats if m == "tfidf" else None))
        for m, dm in [(op.name.partition("_")[2], op.value) for op in ops[2:]]:
            if dm is not None:
                ops.append(timed(f"evaluate_{m}", "evaluate_s", pipeline.evaluate_distance_matrix,
                                 dm, self.labels, CLUSTERS, metric=m, k=K))
        return ops

    def inspect(self, op: Op, d: Path, outputs: dict) -> None:
        kind, _, m = op.name.partition("_")
        ids, fps = outputs["fingerprints"]
        if op.name == "fingerprints":
            if ids != [item.id for item in self.items]:
                op.failures.append("fingerprint ids differ from the corpus")
            for fp, item in zip(fps, self.items):
                if sum(fp.values()) != item.graph.crossing_count:
                    op.failures.append(f"{item.id}: counts do not sum to the crossing count")
            op.digest = fingerprints_digest(ids, fps)
        elif op.name == "corpus_stats":
            stats = op.value
            if stats.n_items != len(fps) or set(stats.df) != set().union(*fps):
                op.failures.append("corpus statistics do not cover the fingerprints")
            op.digest = _sha(repr((stats.n_items, sorted(stats.df.items()))).encode())
        elif kind == "distmatrix":
            op.failures += check_matrix_cells(op.value, fps, outputs["corpus_stats"], m)
            op.digest = matrix_digest(op.value)
        else:
            report = op.value
            op.failures += check_partition(report.partition, ids)
            text = (evaluation.cluster_report_json(report.scores, report.partition)
                    + evaluation.curves_to_csv(report.curves)
                    + evaluation.retrieval_report_json(report.curves))
            op.digest = _sha(text.encode())

    def diagnostics(self, outputs: dict, d: Path) -> dict:
        ids, fps = outputs["fingerprints"]
        out = data_shape(ids, fps, self.items)
        categories = [self.labels[i] for i in ids]
        for m in METRICS:
            report = outputs[f"evaluate_{m}"]
            out[m] = {"MAP": report.map, "F": report.f_measure,
                      **category_distances(outputs[f"distmatrix_{m}"].values, categories)}
        return out


class RescoreN999(Workload):
    """CLI clustering and retrieval over two precomputed 999x999 distance CSVs.

    Set-up generates and fingerprints the corpus, builds and saves the
    jaccard (float) and hbool (integer, tie-heavy) matrices, and writes the
    manifest the commands take their ground truth from.  The ``.tg`` files
    are not written: ``cluster`` and ``retrieve`` read only the manifest's
    ids and categories.
    """

    name = "rescore-n999"
    corpus_graphs = 999
    # One set-up takes 11-16 s on a 2-vCPU Xeon: long enough to average the
    # machine's speed swings, and a second would not fit the time budget.
    setup_repeats = 1
    RESCORED = ("jaccard", "hbool")

    def setup(self, directory: Path) -> None:
        directory.mkdir(parents=True)
        items = corpus.generate_corpus(desk_spec(self.seed, count=111))
        ids, fps = pipeline.corpus_fingerprints(items, K)
        self.csv = {}
        for m in self.RESCORED:
            self.csv[m] = directory / f"{m}.csv"
            distance.save_distance_matrix(distance.distance_matrix(fps, m, ids=ids), self.csv[m])
        self.manifest = directory / corpus.MANIFEST_NAME
        with open(self.manifest, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "path", "category"])
            writer.writerows((item.id, f"{item.id}.tg", item.category) for item in items)
        self.want = Expectations(items, fps, None, self.RESCORED, texts=False)

    def setup_checks(self):
        digests = {"manifest": file_digest(self.manifest)}
        failures = []
        for m, path in self.csv.items():
            failures += self.want.check_csv(path, m)
            digests[f"matrix_{m}"] = file_digest(path)
        return digests, failures

    def run_pass(self, directory: Path) -> list[Op]:
        directory.mkdir(parents=True)
        return rescore_ops(self.csv, self.manifest, directory)

    def inspect(self, op: Op, d: Path, outputs: dict) -> None:
        inspect_rescore(op, d, self.want.ids)

    def diagnostics(self, outputs: dict, d: Path) -> dict:
        out = dict(self.want.shape)
        for m, path in self.csv.items():
            values = distance.load_distance_matrix(path).values
            out[m] = {**report_scores(d, m), **category_distances(values, self.want.categories)}
        return out


WORKLOADS = {w.name: w for w in (StudyDesk, MatrixX3, RescoreN999)}
