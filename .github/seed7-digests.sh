#!/usr/bin/env bash
# Seed-7 output digests: bash .github/seed7-digests.sh, from any directory.
#
# The benchmark's seed-7 digests pin every byte of the written CSV and JSON files,
# and on matrix-x3 the in-memory fingerprints and all five distance matrices.
# study-desk runs twice: fingerprint --in DIR and distmatrix start one worker per
# available CPU, and pinned to one CPU (taskset -c 0) they run serially, so the same
# digests hold both routes to the same bytes.
# A last study-desk run at seed 11, which has no recorded digests, checks correctness
# only: sampled matrix cells, the written files against the in-memory graphs and
# fingerprints, and equal outputs across passes. Its corpus repeats files too, so it
# takes the pooled route for repeated files at a second seed.
# The script exits 1 at the first incorrect run and prints its report, whose FAILED
# lines name each failed check.
cd "$(dirname "$0")/.." || exit 1
log=$(mktemp)
trap 'rm -f "$log"' EXIT
for run in "study-desk 7" "matrix-x3 7" "rescore-n999 7" "study-desk 7 taskset -c 0" "study-desk 11"; do
  read -r workload seed pin <<< "$run"  # pin: an optional command prefix
  $pin python perfbench/run.py --workload "$workload" --seed "$seed" --seconds 1 --trace 0 > "$log" || true
  if ! tail -n 1 "$log" \
      | python -c 'import json, sys; sys.exit(0 if json.loads(sys.stdin.read())["correct"] is True else 1)'; then
    cat "$log"
    exit 1
  fi
  echo "seed $seed, $workload${pin:+ $pin}: correct"
done
