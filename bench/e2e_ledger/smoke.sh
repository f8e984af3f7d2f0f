#!/bin/sh
# Smoke test of the e2e_ledger harness: every workload at toy size through a
# timed and a traced rep, then a run with a corrupted reference digest. The
# harness exits non-zero on an output mismatch, an unfinished job or a
# ledger residual above 5% of wall time; the corrupted run must exit 1.
#
#   smoke.sh path/to/e2e_ledger
set -eu
bin="$1"
for workload in sparse_wordcount dense_heavy selection_generated s3d_poisson; do
  "$bin" --workload "$workload" --smoke --seconds 1 --trace 1
done
status=0
"$bin" --workload sparse_wordcount --smoke --seconds 1 --trace 0 \
  --corrupt-digest || status=$?
if [ "$status" -ne 1 ]; then
  echo "smoke: corrupted reference digest gave exit $status, want 1" >&2
  exit 1
fi
echo "smoke: ok"
