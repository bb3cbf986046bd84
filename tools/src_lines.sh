#!/usr/bin/env bash
# Prints the number of lines in the tracked src/ sources (.cc + .h), the
# figure ROADMAP.md and CHANGES.md track as the size of the library.
#
#   tools/src_lines.sh

set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files -z 'src/*.cc' 'src/*.h' | xargs -0 cat | wc -l
