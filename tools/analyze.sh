#!/usr/bin/env bash
# Static-analysis driver for the dido repository — the single entry point
# CI's static-analysis job runs, and the local equivalent of "is every
# concurrency contract still enforced?".
#
#   tools/analyze.sh [--skip-build]
#
# Runs, in order:
#   1. the dido invariant analyzer (tools/dido_analyze: all seven passes —
#      epoch-pin, fault-point, lock-annotation, hot-path purity,
#      allocation-ownership, response-completeness, memory-order) over the
#      real tree, with --backend auto so libclang / `clang -ast-dump=json`
#      refine the call graph when a compile_commands.json is available
#      (override with DIDO_ANALYZE_BACKEND=text to force the reference
#      backend),
#   2. its fixture self-test (seeded violations must all be caught),
#   3. a Clang -Wthread-safety build (errors) via the thread-safety preset,
#   4. cppcheck over src/ with the committed suppression list.
#
# The memory-order lint is the analyzer's memorder pass.
#
# Steps 3 and 4 are skipped with a notice when clang++/cppcheck are not
# installed (the analyzer and lints are pure Python and always run); CI
# uses an image that has both, so a skip there is a job misconfiguration.

set -u

cd "$(dirname "$0")/.."
REPO_ROOT=$(pwd)
SKIP_BUILD=0
[[ "${1:-}" == "--skip-build" ]] && SKIP_BUILD=1
STATUS=0

note() { printf '== %s\n' "$*"; }

# --------------------------------------------------- dido invariant passes --
note "dido_analyze: all contract passes (backend: ${DIDO_ANALYZE_BACKEND:-auto})"
if command -v python3 >/dev/null 2>&1; then
  python3 -m tools.dido_analyze "$REPO_ROOT" \
    --backend "${DIDO_ANALYZE_BACKEND:-auto}" || STATUS=1

  note "dido_analyze: fixture self-test"
  python3 tests/analyzer_fixtures/run_fixture_test.py "$REPO_ROOT" || STATUS=1
else
  note "FAIL: python3 not found (required for the invariant analyzer)"
  STATUS=1
fi

# ------------------------------------------------- clang thread-safety build --
if [[ $SKIP_BUILD -eq 1 ]]; then
  note "SKIP: thread-safety build (--skip-build)"
elif command -v clang++ >/dev/null 2>&1; then
  note "clang -Wthread-safety build (errors) via the thread-safety preset"
  cmake --preset thread-safety >/dev/null || STATUS=1
  cmake --build --preset thread-safety -j "$(nproc)" || STATUS=1
else
  note "SKIP: clang++ not found (thread-safety analysis needs Clang)"
fi

# ---------------------------------------------------------------- cppcheck --
if command -v cppcheck >/dev/null 2>&1; then
  note "cppcheck over src/"
  cppcheck --enable=warning,performance,portability \
    --suppressions-list=tools/cppcheck-suppressions.txt \
    --inline-suppr \
    --error-exitcode=1 \
    --std=c++20 \
    --language=c++ \
    -I src \
    --quiet \
    src || STATUS=1
else
  note "SKIP: cppcheck not found"
fi

if [[ $STATUS -eq 0 ]]; then
  note "analysis clean"
else
  note "analysis FAILED"
fi
exit $STATUS
