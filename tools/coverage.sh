#!/usr/bin/env bash
# tools/coverage.sh — which src/ functions do the benches and examples reach?
#
# A report, not a gate: it always exits 0 once the runs succeed, and
# check.sh does not call it.  It
#   1. builds every bench and example target with `-O1 --coverage`;
#   2. runs `paper` (Table III and Figs. 2-7), `ablation_design`, the
#      bench-smoke ctests and every example;
#   3. prints each src/ function that gcov saw run zero times, summed over
#      every translation unit that compiled it.  src/{audit,lockdep,ptrprov,
#      race} are left out: they are analyzers that only tests arm.
#
# What is listed is reached by tests alone.  Some of it stays by rule (the
# reference oracles, audit-only snapshots, ISA-specific paths the host does
# not dispatch to); the rest must earn its keep or go.  gcov cannot see a
# header-inline member that no translation unit uses, since no object file
# holds it: grep for its callers instead.
#
# Usage: tools/coverage.sh [build dir]      (default: build-coverage)
set -euo pipefail

cd "$(dirname "$0")/.."
B="${1:-build-coverage}"
JOBS="$(nproc 2>/dev/null || echo 2)"

benches=$(sed -nE 's/^ca_add_(bench|micro)\(([a-z0-9_]+) .*/\2/p' \
  bench/CMakeLists.txt)
examples=$(sed -nE 's/^ca_add_example\(([a-z0-9_]+) .*/\1/p' \
  examples/CMakeLists.txt)

# An unknown build type adds no flags of its own, so -O1 is what runs.
cmake -B "$B" -S . -DCMAKE_BUILD_TYPE=Coverage \
  -DCMAKE_CXX_FLAGS="-O1 --coverage" > /dev/null
# shellcheck disable=SC2086  # word-split the target lists on purpose
cmake --build "$B" -j "$JOBS" --target $benches $examples > /dev/null
find "$B" -name '*.gcda' -delete  # count this run only

echo "coverage: running paper, ablation_design, bench-smoke, examples" >&2
( cd "$B/bench" && ./paper > /dev/null && ./ablation_design > /dev/null )
( cd "$B" && ctest -L bench-smoke -j "$JOBS" --output-on-failure >&2 )
for ex in $examples; do
  ( cd "$B/examples" && "./$ex" > /dev/null ) ||
    { echo "coverage: example $ex failed" >&2; exit 1; }
done

python3 - "$B" <<'EOF'
import json, os, subprocess, sys
from collections import defaultdict

build, root = sys.argv[1], os.getcwd()
skip = tuple(f"src/{d}/" for d in ("audit", "lockdep", "ptrprov", "race"))
counts = defaultdict(int)
for dirpath, _, files in os.walk(build):
    for gcno in (f for f in files if f.endswith(".gcno")):
        out = subprocess.run(
            ["gcov", "-j", "-t", "-m", "-o", dirpath,
             os.path.join(dirpath, gcno)],
            capture_output=True, text=True, check=True).stdout
        for line in filter(str.strip, out.splitlines()):
            doc = json.loads(line)
            for f in doc["files"]:
                path = os.path.relpath(os.path.realpath(os.path.join(
                    doc["current_working_directory"], f["file"])), root)
                if not path.startswith("src/") or path.startswith(skip):
                    continue
                for fn in f["functions"]:
                    key = (path, fn["start_line"], fn["demangled_name"])
                    counts[key] += fn["execution_count"]
never = sorted(k for k, n in counts.items() if n == 0)
for path, line, name in never:
    print(f"{path}:{line}: {name}")
print(f"coverage: {len(never)} of {len(counts)} src/ functions never ran "
      "(header-inline members no translation unit uses are not counted)",
      file=sys.stderr)
EOF
