#!/bin/sh
# Non-test Go source line count: every tracked or new .go file, excluding
# _test.go files, testdata/ fixtures and the perfbench/ benchmark module.
# Prints one line per top-level directory (the module root counts as ".")
# and the total, so a change that deletes code shows up as a smaller total.
#
#	sh scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."

git ls-files -co --exclude-standard -- '*.go' |
	grep -v '_test\.go$' |
	grep -v '/testdata/' |
	grep -v '^perfbench/' |
	while read -r f; do
		[ -f "$f" ] || continue
		case "$f" in
		*/*) dir="${f%%/*}" ;;
		*) dir="." ;;
		esac
		printf '%s %s\n' "$dir" "$(wc -l <"$f")"
	done |
	awk '
		{ lines[$1] += $2; total += $2 }
		END {
			for (d in lines) printf "%8d  %s\n", lines[d], d | "sort -k2"
			close("sort -k2")
			printf "%8d  total\n", total
		}
	'
