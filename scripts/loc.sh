#!/usr/bin/env bash
# loc.sh — count the non-test Go lines of the tree: every line of every
# .go file that is not a _test.go file, under internal/, under cmd/, and
# in perfbench/, then the internal/ + cmd/ total the subtraction aim is
# measured by. Run it from anywhere; it counts the checkout it lives in,
# or the directory given as its one argument.
#
#   scripts/loc.sh            # this checkout
#   scripts/loc.sh ../other   # another checkout, e.g. the parent commit
set -euo pipefail

root="${1:-$(dirname "$0")/..}"
cd "$root"

count() {
	find "$1" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
}

internal=$(count internal)
cmd=$(count cmd)
perfbench=$(count perfbench)
printf 'internal   %6d\n' "$internal"
printf 'cmd        %6d\n' "$cmd"
printf 'perfbench  %6d\n' "$perfbench"
printf 'internal+cmd %4d\n' "$((internal + cmd))"
