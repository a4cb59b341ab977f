"""One table of the study's end-to-end metrics for every workload.

    python3 perfbench/report.py [--seed 7] [--seconds 10]
        runs each workload untraced, each in its own process, then prints
        every end-to-end metric with its unit, workloads side by side;
    python3 perfbench/report.py .perfbench/results/*.json
        summarizes records of earlier runs instead: per workload and
        metric, the median over runs and the quartile spread
        (Q3 - Q1) / median;
    --json prints the summary as JSON, per-layer medians of traced runs
        included, in the form of the files under ``trajectory/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def load(paths, trace: int = 0) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        if record["trace"] == trace:
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def over_runs(values) -> dict | None:
    """Median over runs, quartiles and the spread (Q3 - Q1) / median."""
    if not values:
        return None
    out = {"median": statistics.median(values), "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else 0.0)
    return out


def study_values(records, metric) -> list[float]:
    return [r["study"][metric]["median"] for r in records if r["study"].get(metric)]


def cell(records, metric) -> str:
    summary = over_runs(study_values(records, metric))
    if summary is None:
        return "n/a"
    if "spread" not in summary:
        return f"{summary['median']:.4g}"
    return f"{summary['median']:.4g} ±{summary['spread']:.1%}"


def summary_json(paths) -> dict:
    untraced, traced = load(paths, 0), load(paths, 1)
    out = {}
    for workload in sorted({*untraced, *traced}):
        records = untraced.get(workload, [])
        layer_records = traced.get(workload, [])
        out[workload] = {
            "seeds": sorted(r["seed"] for r in records),
            "environment": (records or layer_records)[0]["environment"],
            "end_to_end": {metric: over_runs(study_values(records, metric)) for metric, _ in run.STUDY_METRICS},
            "per_layer": {key: statistics.median(r["per_layer"][key] for r in layer_records)
                          for key in (layer_records[0]["per_layer"] if layer_records else ())},
            "diagnostics": next((r["diagnostics"] for r in records if r["seed"] == 7), None),
        }
    return out


def print_table(by_workload) -> None:
    names = list(by_workload)
    print(f"{'metric':<22}{'unit':<7}" + "".join(f"{n:>24}" for n in names))
    print(f"{'runs':<29}" + "".join(f"{len(by_workload[n]):>24}" for n in names))
    for metric, unit in run.STUDY_METRICS:
        print(f"{metric:<22}{unit:<7}" + "".join(f"{cell(by_workload[n], metric):>24}" for n in names))


def run_all(seed: int, seconds: float) -> tuple[list[str], bool]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    paths, correct = [], True
    for workload in (w["name"] for w in spec["workloads"]):
        done = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exit code {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            correct = False
            continue
        correct &= json.loads(lines[-1])["correct"]
        paths += [str(run.ROOT / line.split()[-1]) for line in lines if line.startswith("  record ")]
    return paths, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="*", help="result records to summarize instead of running")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--json", action="store_true", help="print the summary as JSON")
    args = parser.parse_args(argv)
    correct = True
    paths = args.records
    if not paths:
        paths, correct = run_all(args.seed, args.seconds)
    if args.json:
        print(json.dumps(summary_json(paths), indent=1, sort_keys=True))
    else:
        print_table(load(paths))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
