"""Command-line front end.

Subcommands cover the full study pipeline: ``generate`` a corpus from a
spec file, ``fingerprint`` graphs, build a ``distmatrix``, ``cluster`` and
``retrieve`` against a ground-truth manifest, and ``bench`` run times.
All outputs are plain text or CSV and are byte-identical across re-runs.

Exit codes: 0 success, 1 usage error, 2 data, validation or I/O error.
"""

from __future__ import annotations

import argparse
import itertools
import os
import statistics
import sys
import time
from pathlib import Path

from . import corpus as corpus_mod
from . import distance as distance_mod
from . import evaluation as eval_mod
from .fingerprint import Fingerprint, _walk_each_once, fingerprint, save_fingerprint
from . import textio
from .graph import parse_graph

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; this tool reserves 2 for data errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _integer(text: str) -> int:
    # The file formats' integer rule, so '٣', '1_0' and ' 9 ' are refused.
    try:
        return textio.read_number(text, int, "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {textio.shown(text)}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="weftprint", description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=_integer, default=None,
                        help="replaces the spec's [corpus] seed, the fallback for categories without one "
                             "(default: the spec's seed)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a corpus of .tg files from a spec")
    p.add_argument("--spec", required=True, help="corpus spec file (INI sections per category)")
    p.add_argument("--out-dir", required=True, help="output directory for .tg files and manifest.csv")

    p = sub.add_parser("fingerprint", help="compute .fp fingerprints for a graph or directory")
    p.add_argument("--in", dest="input", required=True, help=".tg file or directory of .tg files")
    p.add_argument("--k", type=_integer, required=True, help="neighborhood walk depth")
    p.add_argument("--out", required=True, help=".fp file or directory, matching --in")

    p = sub.add_parser("distmatrix", help="pairwise distance matrix over a corpus manifest")
    p.add_argument("--manifest", required=True, help="corpus manifest CSV")
    p.add_argument("--metric", required=True, choices=distance_mod.METRICS)
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--out", required=True, help="output CSV")

    p = sub.add_parser("cluster", help="UPGMA clustering scored against manifest categories")
    p.add_argument("--dist", required=True, help="distance matrix CSV")
    p.add_argument("--clusters", type=_integer, required=True, help="target cluster count")
    p.add_argument("--truth", required=True, help="manifest CSV with ground-truth categories")
    p.add_argument("--report", required=True, help="output JSON report")

    p = sub.add_parser("retrieve", help="ranked-retrieval evaluation: MAP and 11-point curves")
    p.add_argument("--dist", required=True, help="distance matrix CSV")
    p.add_argument("--truth", required=True, help="manifest CSV with ground-truth categories")
    p.add_argument("--curves", required=True, help="output curves CSV")
    p.add_argument("--report", required=True, help="output JSON report")

    p = sub.add_parser("bench", help="time distance-matrix builds across k")
    p.add_argument("--spec", required=True, help="corpus spec file")
    p.add_argument("--k-range", required=True, help="inclusive range a..b, e.g. 2..9")
    p.add_argument("--metrics", default="jaccard", help="comma-separated metric list")
    p.add_argument("--repeats", type=_integer, default=3, help="runs per cell; the median is reported")
    p.add_argument("--out", required=True, help="output CSV with rows metric,k,seconds")
    return parser


def _load_labels(manifest_path) -> dict[str, str]:
    # The rows as read_manifest checks them, without the paths it would build.
    return {item_id: category for item_id, _, category in textio.load(manifest_path, corpus_mod._parse_manifest)}


def _load_spec(args) -> corpus_mod.CorpusSpec:
    spec = corpus_mod.load_corpus_spec(args.spec)
    if args.seed is not None:
        spec = corpus_mod.CorpusSpec(spec.categories, seed=args.seed)
    return spec


def _cmd_generate(args) -> int:
    manifest = corpus_mod.write_corpus(corpus_mod.generate_corpus(_load_spec(args)), args.out_dir)
    print(f"wrote {manifest}")
    return 0


def _fingerprint_file(file, k) -> Fingerprint:
    path, data = file
    return fingerprint(textio.load(path, parse_graph, data), k)


def _fingerprint_files(paths, k) -> list[Fingerprint]:
    """Fingerprints of the ``.tg`` files at ``paths``, in order, one worker per available CPU.

    The parent reads each file once; each distinct text goes to a worker, with
    the first path that holds it, and only a ``Counter`` comes back.  Pickling
    keeps its key order, and a repeated text gets a copy of its first's, so
    every output is the same as from one serial walk per file.  Either way the
    error raised is the first failure in input order.
    """
    files, unread = [], None
    for path in paths:
        try:
            files.append((path, Path(path).read_bytes()))
        except OSError as exc:  # raised once the files before it are known to be good
            unread = exc
            break
    fps = _walk_each_once((data for _, data in files),
                          lambda firsts: _fingerprint_texts([files[i] for i in firsts], k))
    if unread is not None:
        raise unread
    return fps


def _fingerprint_texts(files, k) -> list[Fingerprint]:
    """Fingerprints of the ``(path, bytes)`` pairs ``files``, in order, one worker per available CPU."""
    # Windows and macOS have no affinity call, so they stay serial; every
    # host that has one (Linux, FreeBSD) has fork.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(files))
    if workers > 1:
        # Imported here: at module level they add ~1.5 MB and ~15 ms to the
        # start of every command, pooled or not.
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        # Executor.map yields in input order and raises there, whichever
        # worker failed first; a worker that dies breaks the pool, where a
        # multiprocessing.Pool would wait for its lost chunk forever.
        try:
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                chunk = -(-len(files) // (4 * workers))  # Pool.map's default: four chunks per worker
                return list(pool.map(_fingerprint_file, files, itertools.repeat(k), chunksize=chunk))
        except BrokenProcessPool:  # an OSError, so main reports it as a data error
            raise ChildProcessError("a worker process died before it fingerprinted its files") from None
    return [_fingerprint_file(file, k) for file in files]


def _cmd_fingerprint(args) -> int:
    src = Path(args.input)
    if src.is_dir():
        out_dir = Path(args.out)
        paths = sorted(src.glob("*.tg"))
        if not paths:
            raise ValueError(f"no .tg files found in {src}")
        fps = _fingerprint_files(paths, args.k)
        out_dir.mkdir(parents=True, exist_ok=True)
        for path, fp in zip(paths, fps):
            save_fingerprint(fp, out_dir / (path.stem + ".fp"))
        print(f"wrote {len(paths)} fingerprints to {out_dir}")
    else:
        save_fingerprint(_fingerprint_files([src], args.k)[0], args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_distmatrix(args) -> int:
    rows = corpus_mod.read_manifest(args.manifest)
    fps = _fingerprint_files([r[1] for r in rows], args.k)
    dm = distance_mod.distance_matrix(fps, args.metric, ids=[r[0] for r in rows])
    distance_mod.save_distance_matrix(dm, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_cluster(args) -> int:
    dm = distance_mod.load_distance_matrix(args.dist)
    labels = _load_labels(args.truth)
    partition = eval_mod.upgma_cluster(dm, args.clusters)
    scores = eval_mod.pair_scores(partition, eval_mod.Partition.from_labels(labels))
    textio.write_text(args.report, eval_mod.cluster_report_json(scores, partition))
    print(f"RI={scores.rand_index:.6f} P={scores.precision:.6f} "
          f"R={scores.recall:.6f} F={scores.f_measure:.6f}")
    return 0


def _cmd_retrieve(args) -> int:
    dm = distance_mod.load_distance_matrix(args.dist)
    labels = _load_labels(args.truth)
    curves = eval_mod.interpolated_curves(dm, labels)
    textio.write_text(args.curves, eval_mod.curves_to_csv(curves))
    textio.write_text(args.report, eval_mod.retrieval_report_json(curves))
    print(f"MAP={curves.map:.6f}")
    return 0


def _parse_k_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"--k-range must look like a..b, got {textio.shown(text)}")
    lo, hi = (textio.read_number(bound, int, "--k-range bound") for bound in (lo, hi))
    if lo < 1 or hi < lo:
        raise ValueError(f"--k-range needs 1 <= a <= b, got {textio.shown(text)}")
    return range(lo, hi + 1)


def _cmd_bench(args) -> int:
    spec = _load_spec(args)
    k_values = _parse_k_range(args.k_range)
    metrics = [m.strip(" \t") for m in args.metrics.split(",") if m.strip(" \t")]
    if not metrics:
        raise ValueError(f"--metrics names no metric, got {args.metrics!r}")
    for metric in metrics:
        if metric not in distance_mod.METRICS:
            raise ValueError(f"unknown metric {metric!r}, expected one of {distance_mod.METRICS}")
    if args.repeats < 1:
        raise ValueError("--repeats must be >= 1")
    corpus = corpus_mod.generate_corpus(spec)
    for item in corpus:
        item.graph._thread_arrays()  # exclude one-time array conversion from timings

    ids = [item.id for item in corpus]

    lines = ["metric,k,seconds"]
    for k in k_values:
        for metric in metrics:
            samples = []
            for _ in range(args.repeats):
                start = time.perf_counter()
                # A walk per item, not corpus_fingerprints' walk per distinct graph:
                # with few distinct graphs, the times would follow k too little to show.
                distance_mod.distance_matrix([fingerprint(item.graph, k) for item in corpus], metric, ids=ids)
                samples.append(time.perf_counter() - start)
            lines.append(f"{metric},{k},{statistics.median(samples):.6f}")
    textio.write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "fingerprint": _cmd_fingerprint,
    "distmatrix": _cmd_distmatrix,
    "cluster": _cmd_cluster,
    "retrieve": _cmd_retrieve,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR

    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"weftprint {args.command}: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
