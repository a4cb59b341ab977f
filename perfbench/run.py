"""weftprint benchmark: one workload in one process, untraced or traced.

Run from anywhere; the program is imported from ``src/`` beside this
directory, never from an installed copy:

    python3 perfbench/run.py --workload study-desk --seed 7 --seconds 10 --trace 0

``--trace 0`` sets the workload up several times, then runs passes until
``--seconds`` of pass time has been measured, and reports the end-to-end
metrics named in ``BENCHMARK.json``.  ``--trace 1`` sets up once and
alternates untraced and traced passes, and reports the per-layer metrics.
Either way the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the lines before it
are a readable report of every metric, and the full record (samples,
diagnostics, environment, spans) is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

# The end-to-end metrics of the study; those a workload has no step for read n/a.
STUDY_METRICS = (
    ("setup_s", "s"), ("pass_s", "s"), ("fingerprint_s", "s"),
    ("distmatrix_jaccard_s", "s"), ("distmatrix_hbool_s", "s"), ("distmatrix_hfreq_s", "s"),
    ("distmatrix_cosine_s", "s"), ("distmatrix_tfidf_s", "s"),
    ("cluster_s", "s"), ("retrieve_s", "s"), ("peak_rss_mb", "MB"), ("error_rate", "ratio"),
)


def import_program():
    """Import weftprint from this checkout's sources; exit if they are not there."""
    if not (SRC / "weftprint" / "__init__.py").is_file():
        sys.exit(f"perfbench: no weftprint sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import weftprint

    if Path(weftprint.__file__).resolve().parent != (SRC / "weftprint").resolve():
        sys.exit(f"perfbench: imported weftprint from {weftprint.__file__}, not from {SRC}")


def tail(samples):
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it, or None."""
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def summarize(samples):
    if not samples:
        return None
    found = tail(samples)
    return {
        "median": statistics.median(samples),
        "count": len(samples),
        "tail": None if found is None else {"percentile": found[0], "value": found[1]},
    }


def environment() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "weftprint").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def set_up(workload, tracer, directory: Path) -> float:
    gc.collect()
    start = time.perf_counter()
    if tracer:
        with tracer.phase("setup"):
            workload.setup(directory)
    else:
        workload.setup(directory)
    return time.perf_counter() - start


def run_workload(workload, tracer, seconds: float, work: Path) -> dict:
    """Set up, run passes until ``seconds`` of pass time is measured, check every pass.

    Untraced runs make at least ``workload.min_passes`` passes; traced runs
    alternate untraced and traced passes and end after a traced one.

    Untraced runs time the set-up ``workload.setup_repeats`` times, about
    half before the passes and the rest after them.  The machine's speed
    drifts over tens of seconds, so samples from both ends of the run give
    a steadier median than samples taken back to back.
    """
    repeats = 1 if tracer else workload.setup_repeats
    setup_times = [set_up(workload, tracer, work / "setup")]
    for r in range(1, (repeats + 1) // 2):
        shutil.rmtree(work / "setup", ignore_errors=True)
        setup_times.append(set_up(workload, tracer, work / "setup"))
    setup_failures = workload.check_setup()

    passes, diagnostics, measured = [], None, 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        directory = work / f"pass-{len(passes)}"
        # Every pass starts from the same collector state; outputs of
        # earlier passes are released, so they do not slow later ones.
        gc.collect()
        start = time.perf_counter()
        if traced:
            with tracer.phase("pass"):
                ops = workload.run_pass(directory)
        else:
            ops = workload.run_pass(directory)
        elapsed = time.perf_counter() - start
        workload.check_pass(ops, directory)
        if diagnostics is None and all(op.ok for op in ops):
            diagnostics = workload.diagnostics({op.name: op.value for op in ops}, directory)
        for op in ops:
            op.value = None
        shutil.rmtree(directory, ignore_errors=True)
        passes.append({"traced": traced, "seconds": elapsed, "ops": ops})
        measured += elapsed
        if tracer is None:
            done = measured >= seconds and len(passes) >= workload.min_passes
        else:
            done = measured >= seconds and len(passes) % 2 == 0
        if done:
            break
    for r in range(len(setup_times), repeats):
        setup_times.append(set_up(workload, tracer, work / f"setup-after-{r}"))
        shutil.rmtree(work / f"setup-after-{r}", ignore_errors=True)
    return {"setup_times": setup_times, "setup_failures": setup_failures,
            "passes": passes, "diagnostics": diagnostics}


def study_metrics(outcome, attempted: int, failed: int) -> dict:
    untraced = [p for p in outcome["passes"] if not p["traced"]]
    steps: dict[str, list[float]] = {}
    for p in untraced:
        for op in p["ops"]:
            steps.setdefault(op.metric, []).append(op.seconds)
    out = {
        "setup_s": summarize(outcome["setup_times"]),
        "pass_s": summarize([p["seconds"] for p in untraced]),
    }
    for name, samples in steps.items():
        out[name] = summarize(samples)
    out["peak_rss_mb"] = {"median": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "count": 1,
                          "tail": None}
    out["error_rate"] = {"median": failed / attempted, "count": attempted, "tail": None}
    return out


def print_report(name, args, outcome, study, layers, units):
    n_traced = sum(p["traced"] for p in outcome["passes"])
    print(f"perfbench {name}  seed {args.seed}  trace {args.trace}  "
          f"set-ups {len(outcome['setup_times'])}  passes {len(outcome['passes'])} ({n_traced} traced)")
    print(f"  {'end-to-end metric':<24}{'median':>14}  {'unit':<6}{'count':>6}  tail")
    extra = [(key, "s") for key in study if key not in dict(STUDY_METRICS)]
    for key, unit in (*STUDY_METRICS, *extra):
        entry = study.get(key)
        if entry is None:
            print(f"  {key:<24}{'n/a':>14}  {unit:<6}")
            continue
        shown = "-" if entry["tail"] is None else f"p{entry['tail']['percentile']} {entry['tail']['value']:.6g}"
        print(f"  {key:<24}{entry['median']:>14.6g}  {unit:<6}{entry['count']:>6}  {shown}")
    if layers:
        print(f"  {'per-layer metric':<40}{'value':>14}  unit")
        for key, value in layers.items():
            print(f"  {key:<40}{value:>14.6g}  {units.get(key, '')}")
    print("  diagnostics " + json.dumps(outcome["diagnostics"], sort_keys=True))
    for p in outcome["passes"]:
        for op in p["ops"]:
            if not op.ok:
                print(f"  FAILED {op.name}: {op.error or '; '.join(op.failures[:5])}")
    for failure in outcome["setup_failures"]:
        print(f"  FAILED setup: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0, help="pass time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.environ.pop("WEFTPRINT_THREADS", None)
    import_program()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(workloads.WORKLOADS)}")
    expected = None
    if args.seed == workloads.DEFAULT_SEED:
        expected = json.loads((HERE / "digests_seed7.json").read_text(encoding="utf-8"))[args.workload]
    workload = workloads.WORKLOADS[args.workload](args.seed, expected)
    tracer = spans.Tracer() if args.trace else None

    work = OUT / f"work-{os.getpid()}"
    try:
        outcome = run_workload(workload, tracer, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for p in outcome["passes"] for op in p["ops"]]
    attempted = len(ops) + 1  # the set-up counts as one operation
    failed = sum(not op.ok for op in ops) + bool(outcome["setup_failures"])
    study = study_metrics(outcome, attempted, failed)

    layers = {}
    if tracer:
        layers = spans.layer_metrics(tracer, workload.corpus_graphs)
        passes = outcome["passes"]
        layers["trace_overhead"] = (statistics.median(p["seconds"] for p in passes if p["traced"])
                                    / statistics.median(p["seconds"] for p in passes if not p["traced"]))
        if outcome["diagnostics"] is not None:
            outcome["diagnostics"]["parses_per_graph"] = layers["graph.parses_per_graph"]
            outcome["diagnostics"]["walks_per_graph"] = layers["fingerprint.walks_per_graph"]

    declared = spec["per_layer"] if tracer else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    values = layers if tracer else {key: entry["median"] for key, entry in study.items() if entry}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print_report(args.workload, args, outcome, study, layers, units)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(),
        "study": study, "per_layer": layers, "diagnostics": outcome["diagnostics"],
        "passes": [{"traced": p["traced"], "seconds": p["seconds"],
                    "ops": [{"name": op.name, "seconds": op.seconds, "ok": op.ok} for op in p["ops"]]}
                   for p in outcome["passes"]],
        "setup_times": outcome["setup_times"],
        "spans": tracer.spans if tracer else [],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, default=str) + "\n", encoding="utf-8")
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
