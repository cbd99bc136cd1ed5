#!/usr/bin/env bash
# netloc.sh — report the non-test Go lines a change adds, removes and
# nets, from <ref> to the working tree (committed, staged, unstaged and
# untracked files alike). _test.go files and perfbench/ (the benchmark
# harness) are left out, so the figure is the program itself.
#
# Usage: scripts/netloc.sh <ref> [path...]
#   scripts/netloc.sh HEAD~1
#   scripts/netloc.sh main internal/service
#
# It only reports; CI runs it in the lint job for the record.
set -euo pipefail
cd "$(dirname "$0")/.."

REF=${1:?usage: scripts/netloc.sh <ref> [path...]}
shift
PATHS=("$@")
[ ${#PATHS[@]} -gt 0 ] || PATHS=(.)

spec=()
for p in "${PATHS[@]}"; do
    spec+=(":(glob)${p%/}/**/*.go")
done
spec+=(':(exclude,glob)**/*_test.go' ':(exclude)perfbench')

read -r added removed < <(
    {
        git diff --numstat "$REF" -- "${spec[@]}"
        git ls-files --others --exclude-standard -z -- "${spec[@]}" |
            xargs -0 -r wc -l | awk '$2 != "total" { print $1 "\t0\t" $2 }'
    } | awk '{ a += $1; r += $2 } END { print a + 0, r + 0 }'
)
echo "netloc: non-test Go lines ${REF}..worktree (${PATHS[*]}): +$added / -$removed = $((added - removed))"
