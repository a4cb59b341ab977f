"""Retrieval and clustering quality away from saturation; reported, never gated.

    python3 perfbench/quality.py [--seed 7]

The desk corpus scores MAP = F = 1.0 under jaccard, so it cannot show a
quality regression.  This sweep raises the perturbation rate of the
perturbed quarter of each category (0.03, 0.1, 0.2, 0.3) and varies the
walk depth (k = 2, 4, 6) on desk-sized corpora, and prints one JSON object
with MAP, F and the Rand index of jaccard and hbool for every cell.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

RATES = (0.03, 0.1, 0.2, 0.3)
DEPTHS = (2, 4, 6)
MEASURES = ("jaccard", "hbool")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    run.import_program()
    import workloads
    from weftprint import corpus, distance, pipeline

    cells = []
    for rate in RATES:
        items = corpus.generate_corpus(workloads.desk_spec(args.seed, perturb_rate=rate))
        labels = {item.id: item.category for item in items}
        for k in DEPTHS:
            ids, fps = pipeline.corpus_fingerprints(items, k)
            for metric in MEASURES:
                dm = distance.distance_matrix(fps, metric, ids=ids)
                report = pipeline.evaluate_distance_matrix(dm, labels, workloads.CLUSTERS, metric=metric, k=k)
                cells.append({"perturb_rate": rate, "k": k, "metric": metric,
                              "MAP": report.map, "F": report.f_measure, "RI": report.rand_index})
                print(f"perturb_rate {rate:<5} k {k}  {metric:<8} MAP {report.map:.4f}  "
                      f"F {report.f_measure:.4f}  RI {report.rand_index:.4f}", file=sys.stderr)
    print(json.dumps({"seed": args.seed, "corpus": "desk spec, 180 graphs", "environment": run.environment(),
                      "cells": cells}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
