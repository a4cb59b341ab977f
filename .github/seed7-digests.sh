#!/usr/bin/env bash
# Seed-7 output digests: bash .github/seed7-digests.sh, from any directory.
#
# The benchmark's seed-7 digests pin every byte of the written CSV and JSON files,
# and on matrix-x3 the in-memory fingerprints and all five distance matrices.
# Every corpus comes from generate_corpus, which builds one read-only matrix per
# category of a kind that draws nothing and seeds only the draws a sample makes
# (its random or mixed matrix, its cell flips), so the digests pin that route too.
# study-desk runs twice: fingerprint --in DIR and distmatrix start one worker per
# available CPU, and pinned to one CPU (taskset -c 0) they run serially, so the same
# digests hold both routes to the same bytes.
# The last three runs, study-desk, matrix-x3 and rescore-n999 at seed 11, which has no
# recorded digests, check correctness only: sampled matrix cells, the written files against
# the in-memory graphs and fingerprints, and equal outputs across passes. All three corpora
# repeat weave matrices. On study-desk the CLI keeps one copy of each distinct .tg file,
# walks it once, and the repeats share that one fingerprint; fingerprint --in DIR formats
# each distinct .fp text once. matrix-x3 takes the in-memory route, which walks each
# distinct graph once, and rescore-n999 writes and reads its two 999x999 CSVs through
# shared equal rows, at a second seed.
# Each correct run prints its setup_s, pass_s and peak_rss_mb beside it, read from the run's
# last JSON line, so a log shows where set-up time, pass time and memory move.
# The script exits 1 at the first incorrect run and prints its report, whose FAILED
# lines name each failed check.
# Last, perfbench/quality.py --seed 7 scores jaccard and hbool away from saturation
# (k = 2, 4, 6 at four perturbation rates), where the digests' corpora score MAP = F = 1.0.
# Its 24 cells (MAP, F and RI) must equal perfbench/trajectory/d81d0fe-quality.json
# exactly, so UPGMA, retrieval and the hbool kernel are pinned where their results vary.
# The script exits 1 if any cell differs, and prints each differing cell.
cd "$(dirname "$0")/.." || exit 1
log=$(mktemp)
err=$(mktemp)
trap 'rm -f "$log" "$err"' EXIT
for run in "study-desk 7" "matrix-x3 7" "rescore-n999 7" "study-desk 7 taskset -c 0" "study-desk 11" \
    "matrix-x3 11" "rescore-n999 11"; do
  read -r workload seed pin <<< "$run"  # pin: an optional command prefix
  $pin python perfbench/run.py --workload "$workload" --seed "$seed" --seconds 1 --trace 0 > "$log" || true
  if ! tail -n 1 "$log" \
      | python -c 'import json, sys; sys.exit(0 if json.loads(sys.stdin.read())["correct"] is True else 1)'; then
    cat "$log"
    exit 1
  fi
  metrics=$(tail -n 1 "$log" | python -c 'import json, sys; m = json.loads(sys.stdin.read())["metrics"]
print("setup_s %s, pass_s %s, peak_rss_mb %s" % tuple(m[k]["value"] for k in ("setup_s", "pass_s", "peak_rss_mb")))')
  echo "seed $seed, $workload${pin:+ $pin}: correct, $metrics"
done
python perfbench/quality.py --seed 7 > "$log" 2> "$err" || { cat "$err"; exit 1; }
python - "$log" perfbench/trajectory/d81d0fe-quality.json <<'PY' || exit 1
import json, sys
got, want = (json.load(open(path, encoding="utf-8"))["cells"] for path in sys.argv[1:])
if len(got) != 24 or got != want:
    print(f"FAILED: {len(got)} quality cells against {len(want)} recorded; 24 expected")
    for cell in [c for c in got if c not in want]:
        print("FAILED: quality cell", json.dumps(cell), "is not recorded")
    for cell in [c for c in want if c not in got]:
        print("FAILED: recorded quality cell", json.dumps(cell), "is missing")
    sys.exit(1)
print("seed 7, quality: the 24 cells (MAP, F, RI) equal the d81d0fe record")
PY
