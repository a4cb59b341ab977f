#!/usr/bin/env bash
# Seed-7 output digests: bash .github/seed7-digests.sh, from any directory.
#
# The benchmark's seed-7 digests pin every byte of the written CSV and JSON files,
# and on matrix-x3 the in-memory fingerprints and all five distance matrices.
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
cd "$(dirname "$0")/.." || exit 1
log=$(mktemp)
trap 'rm -f "$log"' EXIT
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
