#!/usr/bin/env bash
# tools/check.sh — the correctness gate for the data-management core.
#
# One stage per build flavour, plus the two source checkers.  Each flavour
# builds every executable its ctest selection can match (so a fresh build
# directory and a warm one run the same tests) and runs that selection once.
#   asan     build-asan/: ASan+UBSan Debug build of every target (Debug ⇒
#            CA_AUDIT_ENABLED, so every DataManager mutation boundary is
#            audited), the full ctest suite — bench-smoke, examples, the
#            audit stress harness and every feature suite included — then
#            the kparity and simd suites again at CA_ISA=scalar and, on an
#            AVX2 host, at CA_ISA=native, so every dispatch tier is proven
#            correct under ASan.
#   tsan     build-tsan/: TSan Debug build; the thread pool, latch, copy
#            engine, transfer edge cases, the Async* interleaving suites
#            (dm, policy conformance, integration), multitenant and comm.
#   race     build-race/: CA_RACE=ON build (instrumented sync shims,
#            vector-clock detector, seeded schedule explorer, lockdep and
#            ptrprov armed): the race, lockdep, ptrprov, multitenant, comm,
#            kparity and simd suites plus the latch and transfer edge cases,
#            with CA_LOCKDEP_DUMP/CA_PTRPROV_DUMP set; then
#            tools/ca_lint.py diffs the dumped lock graph and accessor sites
#            against docs/lock_hierarchy.json and
#            docs/pointer_provenance.json.
#   tidy     clang-tidy over src/ with the repo's .clang-tidy profile.
#   ca_lint  tools/ca_lint.py --self-test, then tools/ca_lint.py: the token
#            rules, dm-audit, the Region::data() scan and the lock-hierarchy
#            annotations against their manifests.
#
# Exits non-zero on the first finding of a stage that ran.  A stage whose
# toolchain is not installed (clang-tidy; python3 for ca_lint and the race
# stage's checker step) emits a machine-readable "SKIPPED:<stage> <reason>"
# line rather than silently passing; --require-all turns any skip into a
# non-zero exit so CI images that are supposed to carry the full toolchain
# cannot degrade quietly.
#
# Under GitHub Actions (GITHUB_ACTIONS set) the file:line findings of the
# checker steps are re-emitted as ::error annotations so they surface on
# the PR diff.
#
# Usage: tools/check.sh [--jobs N] [--require-all]
#                       [--only <stage>[,<stage>...]]
#
# Without --only every stage runs; --only runs exactly the named stages.
# An unknown name exits 2.
set -euo pipefail

cd "$(dirname "$0")/.."
STAGES=(asan tsan race tidy ca_lint)
# Each flavour's ctest selection, and the executables it can match.
SIMD_TESTS='kparity\.|simd\.'
TSAN_TESTS='ThreadPool|CopyEngine|Async|TransferEdge|Latch|multitenant\.|^comm\.'
TSAN_TARGETS=(test_util test_mem test_dm test_multitenant test_comm
              test_integration test_policy)
RACE_TESTS='race\.|TransferEdge|Latch|lockdep\.|ptrprov\.|multitenant\.|^comm\.|kparity\.|simd\.'
RACE_TARGETS=(test_race test_mem test_util test_lockdep test_ptrprov
              test_multitenant test_comm test_kernels test_simd)
JOBS="$(nproc 2>/dev/null || echo 2)"
ONLY=""
REQUIRE_ALL=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs) JOBS="${2:?--jobs requires a value}"; shift 2 ;;
    --require-all) REQUIRE_ALL=1; shift ;;
    --only) ONLY="${2:?--only requires a stage list}"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done
IFS=',' read -ra picked <<< "$ONLY"
for stage in "${picked[@]}"; do
  if [[ " ${STAGES[*]} " != *" $stage "* ]]; then
    echo "unknown stage: $stage (stages: ${STAGES[*]})" >&2
    exit 2
  fi
done
# selected <stage>: whether the stage runs (all of them without --only).
selected() { [[ -z "$ONLY" || ",$ONLY," == *",$1,"* ]]; }

note() { printf '\n==== %s ====\n' "$*"; }
# Re-emit `path:line: message` findings as GitHub Actions ::error
# annotations (in addition to the plain lines) when running under GHA.
annotate() {
  if [[ -n "${GITHUB_ACTIONS:-}" ]]; then
    sed -E 's|^([^: ]+):([0-9]+): (.*)$|&\n::error file=\1,line=\2::\3|'
  else
    cat
  fi
}
fail=0
skipped=()
skip() {  # skip <stage> <reason...>
  local stage="$1"; shift
  skipped+=("$stage")
  printf 'SKIPPED:%s %s\n' "$stage" "$*"
}

# --- asan: ASan + UBSan, every target, full suite, audit hooks armed ----------
if selected asan; then
  note "asan: ASan+UBSan Debug build (CA_AUDIT_ENABLED) + full ctest"
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCA_SANITIZE=address,undefined \
    -DCA_WERROR=OFF > /dev/null
  cmake --build build-asan -j "$JOBS"
  ( cd build-asan && ctest -j "$JOBS" --output-on-failure )
  # CA_ISA pins the entry dispatch level; the in-process sweep tests still
  # cover every supported level inside each run.
  isas=(scalar)
  if grep -qm1 avx2 /proc/cpuinfo 2>/dev/null; then
    isas+=(native)
  else
    skip asan-native "host CPU lacks AVX2; CA_ISA=scalar ran"
  fi
  for isa in "${isas[@]}"; do
    note "asan: kparity + simd suites at CA_ISA=$isa"
    ( cd build-asan && CA_ISA="$isa" ctest -j "$JOBS" -R "$SIMD_TESTS" \
        --output-on-failure )
  done
fi

# --- tsan: the threaded substrate ---------------------------------------------
if selected tsan; then
  note "tsan: TSan Debug build + ctest -R '$TSAN_TESTS'"
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCA_SANITIZE=thread \
    -DCA_WERROR=OFF > /dev/null
  cmake --build build-tsan -j "$JOBS" --target "${TSAN_TARGETS[@]}"
  ( cd build-tsan && ctest -j "$JOBS" -R "$TSAN_TESTS" --output-on-failure )
fi

# --- race: schedule explorer, lockdep and ptrprov under the CA_RACE shims ------
if selected race; then
  note "race: CA_RACE=ON build + ctest -R '$RACE_TESTS'"
  cmake -B build-race -S . -DCA_RACE=ON -DCA_WERROR=OFF > /dev/null
  cmake --build build-race -j "$JOBS" --target "${RACE_TARGETS[@]}"
  # The lockdep graph test dumps the observed acquisition-order graph, and
  # the ptrprov route test the observed accessor sites.
  LOCKDEP_DUMP="$(pwd)/build-race/lockdep_graph.json"
  PTRPROV_DUMP="$(pwd)/build-race/prov_sites.json"
  rm -f "$LOCKDEP_DUMP" "$PTRPROV_DUMP"
  ( cd build-race && CA_LOCKDEP_DUMP="$LOCKDEP_DUMP" \
      CA_PTRPROV_DUMP="$PTRPROV_DUMP" \
      ctest -j "$JOBS" -R "$RACE_TESTS" --output-on-failure )
  if command -v python3 > /dev/null 2>&1; then
    note "race: lock graph + accessor sites vs their manifests (tools/ca_lint.py)"
    if ! python3 tools/ca_lint.py --lockdep-graph "$LOCKDEP_DUMP" \
        --ptrprov-sites "$PTRPROV_DUMP" | annotate; then
      fail=1
    fi
  else
    skip race "python3 not installed; the dump diff did not run"
  fi
fi

# --- tidy: clang-tidy over src/ -------------------------------------------------
if selected tidy; then
  if command -v clang-tidy > /dev/null 2>&1; then
    note "tidy: clang-tidy over src/ (profile: .clang-tidy, warnings are errors)"
    cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
    mapfile -t sources < <(find src -name '*.cpp' | sort)
    if ! clang-tidy -p build-tidy --quiet "${sources[@]}"; then
      fail=1
    fi
  else
    skip tidy "clang-tidy not installed"
  fi
fi

# --- ca_lint: repository rules and manifests -------------------------------------
if selected ca_lint; then
  if command -v python3 > /dev/null 2>&1; then
    note "ca_lint: checker self-test + repository rules (tools/ca_lint.py)"
    if ! python3 tools/ca_lint.py --self-test; then
      fail=1
    fi
    if ! python3 tools/ca_lint.py | annotate; then
      fail=1
    fi
  else
    skip ca_lint "python3 not installed"
  fi
fi

if [[ "$fail" -ne 0 ]]; then
  note "check.sh: FINDINGS — see above"
  exit 1
fi
if [[ "${#skipped[@]}" -gt 0 ]]; then
  note "check.sh: clean, but ${#skipped[@]} stage(s) skipped: ${skipped[*]}"
  if [[ "$REQUIRE_ALL" -eq 1 ]]; then
    echo "check.sh: --require-all set and stages were skipped" >&2
    exit 3
  fi
  exit 0
fi
note "check.sh: all stages clean"
