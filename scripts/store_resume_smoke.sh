#!/usr/bin/env bash
# Store-resume smoke test: SIGKILL a sweep of the paper's 14 figures
# mid-flight, rerun it, and prove
#   1. the rerun resumes from the persistent run store (simulates only the
#      missing runs),
#   2. the resumed figure JSON is byte-identical to an uninterrupted run,
#   3. a third, fully-cached rerun does zero simulation work.
# Each rerun first removes results/: fleet mode skips any figure whose JSON
# already exists, and every rerun here must regenerate all of them.
#
# Usage: store_resume_smoke.sh BENCH_FIGURE_BINARY [WORK_DIR]
set -euo pipefail

bench_figure=$(readlink -f "$1")
work=${2:-$(mktemp -d)}
reps=30         # enough work that a 1-second SIGKILL lands mid-sweep
kill_after=1
run=("$bench_figure" --all --jobs 1 --out results --reps "$reps" --store=store)

mkdir -p "$work/ref" "$work/resume"

echo "== reference run (uninterrupted) =="
(cd "$work/ref" && "${run[@]}" >/dev/null)

echo "== interrupted run (SIGKILL after ${kill_after}s) =="
set +e
(cd "$work/resume" &&
 timeout -s KILL "$kill_after" "${run[@]}" >/dev/null 2>&1)
status=$?
set -e
if [ "$status" -ne 137 ]; then
  echo "error: expected the run to be SIGKILLed (exit 137), got $status" >&2
  echo "hint: raise reps so the run outlives the kill timer" >&2
  exit 1
fi
partial=$(cat "$work/resume/store/"seg-*.jsonl | wc -l)
echo "persisted $partial record(s) before the kill"
if [ "$partial" -eq 0 ]; then
  echo "error: the killed run persisted nothing" >&2
  exit 1
fi

echo "== resumed run =="
resume_stats=$(cd "$work/resume" && rm -rf results &&
  "${run[@]}" --store-stats | grep -F '[store]')
echo "$resume_stats"
case "$resume_stats" in
  *" 0 simulated"*)
    echo "error: the resumed run simulated nothing — the kill landed after" \
         "completion, so this proved nothing; raise reps" >&2
    exit 1 ;;
esac
case "$resume_stats" in
  *" 0 cached"*)
    echo "error: the resumed run served nothing from the store" >&2
    exit 1 ;;
esac

echo "== comparing figure JSON byte-for-byte =="
count=0
for f in "$work/ref/results/"*.json; do
  name=$(basename "$f")
  cmp "$f" "$work/resume/results/$name"
  count=$((count + 1))
done
echo "$count figure file(s) byte-identical"

echo "== fully-cached rerun must do zero simulation =="
cached_stats=$(cd "$work/resume" && rm -rf results &&
  "${run[@]}" --store-stats | grep -F '[store]')
echo "$cached_stats"
case "$cached_stats" in
  *" 0 simulated, 0 appended"*) ;;
  *)
    echo "error: fully-cached rerun still simulated something" >&2
    exit 1 ;;
esac

echo "store resume smoke: OK"
