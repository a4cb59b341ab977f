"""Span tracing of weftprint's public functions, installed from outside the package.

Every public function of the traced layers is wrapped and the wrapper is
put in place of the original at each name a caller looks it up by: the
defining module, every weftprint module that imported it by name (``cli``
imports ``fingerprint`` and ``load_graph``, ``corpus`` imports
``save_graph``, ...) and the package namespace.  Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts the originals back.

Spans stay in memory as ``[name, start, end, parent, raised]`` and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("graph", "weaves", "corpus", "fingerprint", "distance", "evaluation", "pipeline", "cli")
CLI_COMMANDS = ("generate", "fingerprint", "distmatrix", "cluster", "retrieve")

# Called once per pair, cell, key or vertex: a span each would cost more
# than the work it times, so these calls are counted and never timed.
COUNT_ONLY = frozenset({
    "distance.pair_distance",
    "distance.jaccard_distance",
    "distance.hamming_bool_distance",
    "distance.hamming_freq_distance",
    "distance.cosine_distance",
    "distance.cosine_tfidf_distance",
    "distance.tfidf_weights",
    "distance.format_distance",
    "fingerprint.arm_walk",
    "fingerprint.canonical_neighborhood",
    "fingerprint.crossing_neighborhood",
    "fingerprint.format_neighborhood",
    "fingerprint.parse_neighborhood",
    "graph.edge_label",
})

NAME, START, END, PARENT, RAISED = range(5)


def _arg(args, kwargs, position, keyword):
    return args[position] if len(args) > position else kwargs[keyword]


def _cli_span_name(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv") or ()
    command = next((a for a in argv if not a.startswith("-")), "main")
    return f"cli.{command}"


def _matrix_span_name(args, kwargs):
    return f"distance.distance_matrix.{_arg(args, kwargs, 1, 'metric')}"


SPAN_NAMERS = {
    "cli.main": _cli_span_name,
    "distance.distance_matrix": _matrix_span_name,
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class PhaseData:
    """Counts and data properties seen during one kind of phase."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.vocab: set = set()
        self.supports: list[int] = []


class Tracer:
    """Collects spans and counts while installed; a no-op otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.phases: dict[str, PhaseData] = {}
        self.current = PhaseData()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._observers = {
            "graph.parse_graph": self._saw_parse,
            "fingerprint.fingerprint": self._saw_fingerprint,
            "distance.distance_matrix": self._saw_matrix,
            "distance.save_distance_matrix": self._saw_csv_write,
            "distance.load_distance_matrix": self._saw_csv_read,
            "evaluation.upgma_merges": self._saw_merges,
            "corpus.generate_corpus": self._saw_corpus,
            "cli.main": self._saw_exit_code,
        }

    # --- observers: counts taken at the layer boundary ---------------------

    def _saw_parse(self, args, kwargs, graph):
        self.current.counts["graph.crossings_parsed"] += graph.crossing_count

    def _saw_fingerprint(self, args, kwargs, fp):
        data = self.current
        data.counts["fingerprint.crossings_walked"] += _arg(args, kwargs, 0, "g").crossing_count
        data.vocab.update(fp)
        data.supports.append(len(fp))

    def _saw_matrix(self, args, kwargs, dm):
        n = len(dm.ids)
        self.current.counts[f"distance.pairs.{dm.metric}"] += n * (n - 1) // 2

    def _saw_csv_write(self, args, kwargs, _):
        self.current.counts["distance.csv_bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    def _saw_csv_read(self, args, kwargs, _):
        self.current.counts["distance.csv_bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _saw_merges(self, args, kwargs, merges):
        self.current.counts["evaluation.merges"] += len(merges)

    def _saw_corpus(self, args, kwargs, items):
        self.current.counts["corpus.items"] += len(items)

    def _saw_exit_code(self, args, kwargs, code):
        if code != 0:
            self.current.counts["cli.nonzero_exits"] += 1

    # --- wrappers ------------------------------------------------------------

    def _count_wrapper(self, name, fn):
        counts = self.current.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        namer = SPAN_NAMERS.get(name)
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            index = len(spans)
            span = [label, clock(), 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Put a wrapper at every name that refers to a traced function."""
        if self._patches:
            return
        modules = [importlib.import_module("weftprint")]
        modules += [importlib.import_module(f"weftprint.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                make = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
                wrappers[id(obj)] = make(name, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def phase(self, name: str):
        """Install the wrappers and record one root span around the block."""
        self.current = self.phases.setdefault(name, PhaseData())
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, -1, False]
        self.spans.append(span)
        self._stack.append(index)
        self.install()
        try:
            yield
        except BaseException:
            span[RAISED] = True
            raise
        finally:
            self.uninstall()
            span[END] = time.perf_counter()
            self._stack.pop()


# --- summaries ---------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def phase_roots(spans, phase: str) -> list[int]:
    return [i for i, span in enumerate(spans) if span[PARENT] < 0 and span[NAME] == phase]


def _in_phase(spans, phase: str) -> list[bool]:
    inside = [False] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        inside[i] = span[NAME] == phase if parent < 0 else inside[parent]
    return inside


def totals(spans, phase: str) -> dict[str, dict[str, float]]:
    """Per span name within one phase: calls, total and self seconds, origins of errors."""
    inside = _in_phase(spans, phase)
    own = self_times(spans)
    raised_below = {span[PARENT] for span in spans if span[RAISED]}
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        if not inside[i] or span[PARENT] < 0:
            continue
        entry = out.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
        entry["calls"] += 1
        entry["s"] += span[END] - span[START]
        entry["self_s"] += own[i]
        if span[RAISED] and i not in raised_below:
            entry["errors"] += 1
    return out


def layer_metrics(tracer: Tracer, corpus_graphs: int) -> dict[str, float]:
    """Per-layer metrics averaged over the traced passes.

    ``corpus_graphs`` is the number of graphs the workload's corpus holds;
    parses and walks per graph are taken against it.
    """
    spans = tracer.spans
    data = tracer.phases.get("pass", PhaseData())
    n_pass = len(phase_roots(spans, "pass"))
    if n_pass == 0:
        raise ValueError("no traced pass")
    per = totals(spans, "pass")

    def t(name, key="s"):
        return per.get(name, {}).get(key, 0.0) / n_pass

    def calls(name):
        return per.get(name, {}).get("calls", 0) / n_pass

    def count(key):
        return data.counts.get(key, 0) / n_pass

    def rate(numerator, seconds):
        return numerator / seconds if seconds > 0 else 0.0

    def layer_sum(phase_totals, layer, key):
        return sum(v[key] for name, v in phase_totals.items() if layer_of(name) == layer)

    m: dict[str, float] = {}
    parses = calls("graph.parse_graph")
    m["graph.parse_graph.self_s"] = t("graph.parse_graph", "self_s")
    m["graph.validate.s"] = t("graph.validate")
    m["graph.serialize_graph.s"] = t("graph.serialize_graph")
    m["graph.graphs_parsed"] = parses
    m["graph.crossings_per_s"] = rate(count("graph.crossings_parsed"), t("graph.parse_graph"))
    m["graph.parses_per_graph"] = parses / corpus_graphs

    walks = calls("fingerprint.fingerprint")
    m["fingerprint.fingerprint.s"] = t("fingerprint.fingerprint")
    m["fingerprint.crossings_per_s"] = rate(count("fingerprint.crossings_walked"), t("fingerprint.fingerprint"))
    m["fingerprint.walks_per_graph"] = walks / corpus_graphs
    m["fingerprint.save_fingerprint.s"] = t("fingerprint.save_fingerprint")
    m["fingerprint.vocab"] = float(len(data.vocab))
    m["fingerprint.support_mean"] = statistics.fmean(data.supports) if data.supports else 0.0

    for metric in importlib.import_module("weftprint.distance").METRICS:
        seconds = t(f"distance.distance_matrix.{metric}")
        m[f"distance.distance_matrix.{metric}.s"] = seconds
        m[f"distance.pairs_per_s.{metric}"] = rate(count(f"distance.pairs.{metric}"), seconds)
    m["distance.corpus_stats.s"] = t("distance.corpus_stats")
    m["distance.tfidf_weights.calls"] = count("distance.tfidf_weights.calls")
    m["distance.save_distance_matrix.s"] = t("distance.save_distance_matrix")
    m["distance.load_distance_matrix.s"] = t("distance.load_distance_matrix")
    m["distance.csv_bytes_written"] = count("distance.csv_bytes_written")
    m["distance.csv_bytes_read"] = count("distance.csv_bytes_read")

    m["evaluation.upgma_cluster.s"] = t("evaluation.upgma_cluster")
    m["evaluation.pair_scores.s"] = t("evaluation.pair_scores")
    m["evaluation.interpolated_curves.s"] = t("evaluation.interpolated_curves")
    m["evaluation.rank_for_query.s"] = t("evaluation.rank_for_query")
    m["evaluation.merges"] = count("evaluation.merges")
    m["evaluation.queries"] = calls("evaluation.rank_for_query")

    m["corpus.generate_corpus.s"] = t("corpus.generate_corpus")
    m["corpus.write_corpus.self_s"] = t("corpus.write_corpus", "self_s")
    m["corpus.read_manifest.s"] = t("corpus.read_manifest")
    m["corpus.items"] = count("corpus.items")
    m["weaves.grid_to_graph.s"] = t("weaves.grid_to_graph")

    m["pipeline.corpus_fingerprints.s"] = t("pipeline.corpus_fingerprints")
    m["pipeline.evaluate_distance_matrix.self_s"] = t("pipeline.evaluate_distance_matrix", "self_s")
    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_s"] = t(f"cli.{command}", "self_s")

    setup = totals(spans, "setup")
    n_setup = max(1, len(phase_roots(spans, "setup")))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_sum(per, layer, "self_s") / n_pass
        errors = layer_sum(per, layer, "errors")
        if layer == "cli":
            errors += data.counts.get("cli.nonzero_exits", 0)
        m[f"{layer}.errors"] = errors / n_pass
        m[f"setup.{layer}.self_s"] = layer_sum(setup, layer, "self_s") / n_setup
    return m
