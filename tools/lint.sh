#!/usr/bin/env bash
# Lint driver for the dido repository.
#
#   tools/lint.sh [--fix]
#
# Runs, in order:
#   1. the dido invariant analyzer (all seven contract passes, including
#      the memory-order lint),
#   2. clang-format in check mode (or in-place with --fix),
#   3. clang-tidy over src/ (needs a compile_commands.json; the script
#      configures build/ with CMAKE_EXPORT_COMPILE_COMMANDS if absent).
#
# clang-format / clang-tidy steps are skipped with a notice when the tool
# is not installed, so the script stays usable in minimal containers; CI
# runs it on an image that has both.

set -u

cd "$(dirname "$0")/.."
REPO_ROOT=$(pwd)
FIX=0
[[ "${1:-}" == "--fix" ]] && FIX=1
STATUS=0

note() { printf '== %s\n' "$*"; }

# ---------------------------------------------------------------- sources --
# Git pathspec '*' crosses directory boundaries, so 'src/*.cc' covers every
# subsystem including nested ones (src/faults/, ...).
mapfile -t SOURCES < <(git ls-files 'src/*.cc' 'src/*.h' 'tests/*.cc' \
  'tools/*.cpp' 2>/dev/null)
if [[ ${#SOURCES[@]} -eq 0 ]]; then
  # Not a git checkout (e.g. a tarball): fall back to find.
  mapfile -t SOURCES < <(find src tests -name '*.cc' -o -name '*.h')
fi

# ------------------------------------------------- dido invariant analyzer --
# Full static-analysis sweep (thread-safety build + cppcheck included) is
# tools/analyze.sh; lint runs the fast pure-Python contract passes (all
# seven, memorder included) with the text backend — deterministic and
# toolchain-free.
note "dido_analyze: all contract passes (text backend)"
if command -v python3 >/dev/null 2>&1; then
  python3 -m tools.dido_analyze "$REPO_ROOT" || STATUS=1
else
  note "SKIP: python3 not found"
fi

# ------------------------------------------------------------ clang-format --
if command -v clang-format >/dev/null 2>&1; then
  if [[ $FIX -eq 1 ]]; then
    note "clang-format: rewriting in place"
    clang-format -i "${SOURCES[@]}" || STATUS=1
  else
    note "clang-format: check mode"
    clang-format --dry-run -Werror "${SOURCES[@]}" || STATUS=1
  fi
else
  note "SKIP: clang-format not found"
fi

# -------------------------------------------------------------- clang-tidy --
if command -v clang-tidy >/dev/null 2>&1; then
  note "clang-tidy over src/"
  if [[ ! -f build/compile_commands.json ]]; then
    note "configuring build/ for compile_commands.json"
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null || STATUS=1
  fi
  mapfile -t TIDY_SOURCES < <(printf '%s\n' "${SOURCES[@]}" | grep '^src/.*\.cc$')
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p build -quiet "${TIDY_SOURCES[@]}" || STATUS=1
  else
    clang-tidy -p build --quiet "${TIDY_SOURCES[@]}" || STATUS=1
  fi
else
  note "SKIP: clang-tidy not found"
fi

if [[ $STATUS -eq 0 ]]; then
  note "lint clean"
else
  note "lint FAILED"
fi
exit $STATUS
