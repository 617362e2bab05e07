#!/usr/bin/env bash
# Go line counts of the tree, split into non-test and test code (a file is
# test code when its name ends in _test.go), over every tracked *.go file of
# every module in the repository.
#
#   lines.sh [base]     (run from anywhere inside the repository)
#
# With a base commit it also prints the net change of each against that base
# (lines added minus lines deleted, from git diff --numstat, working tree
# included). It prints only; it judges nothing.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

count() {
  git ls-files -z -- '*.go' | grep -z "$@" | xargs -0r cat | wc -l
}
printf 'non-test Go lines: %d\n' "$(count -v '_test\.go$')"
printf 'test Go lines:     %d\n' "$(count '_test\.go$')"

if (($# > 0)); then
  git diff --numstat --no-renames "$1" -- '*.go' | awk -v base="$1" '
    $1 == "-" { next }  # binary
    $3 ~ /_test\.go$/ { t += $1 - $2; next }
    { n += $1 - $2 }
    END {
      printf "net change against %s: non-test %+d, test %+d\n", base, n, t
    }'
fi
