#!/usr/bin/env bash
# tools/replay_under_load.sh — run the race scheduler's seed-replay tests on
# a loaded host.
#
#   tools/replay_under_load.sh <path/to/test_race>
#
# Starts one busy loop per core, then runs the two replay tests 50 times
# beside them.  Replay must not depend on the order in which the OS happens
# to run the explorer's threads, and a host with more runnable threads than
# cores is where that order varies most.  Fails if the filter does not select
# both tests (gtest passes an empty selection); otherwise exits with the test
# binary's status.  The busy loops are stopped on every exit path.
set -euo pipefail

test_race=$1
filter='RaceScheduler.SameSeedReplaysSameSchedule:RaceScheduler.ReplayReproducesScheduleHash'

# --gtest_list_tests prints the suite name, then one indented line per test.
selected=$("$test_race" --gtest_filter="$filter" --gtest_list_tests |
  grep -c '^  ' || true)
if [[ $selected -ne 2 ]]; then
  echo "replay_under_load: filter selects $selected of the 2 replay tests" >&2
  exit 1
fi

loops=()
trap 'kill "${loops[@]}" 2>/dev/null; wait' EXIT
for _ in $(seq "$(nproc)"); do
  (while :; do :; done) &
  loops+=($!)
done

"$test_race" --gtest_filter="$filter" --gtest_repeat=50
