#!/usr/bin/env bash
# check-gate-names.sh fails when a test name in a Makefile gate matches no
# test. `go test -run` passes when a name matches nothing, so renaming a
# gated test would silently drop it from its gate. For every
# `$(GO) test ... -run '...'` line of the Makefile it lists the tests of
# that line's packages, under that line's -race and -tags flags, with
# `go test -list`, and names every alternative of the -run pattern that
# matches none of them. A -run '^$' line runs benchmarks only and is
# skipped.
#
# Usage: bash scripts/check-gate-names.sh [Makefile]
# The GO environment variable overrides the go command.
set -euo pipefail
set -f # the Makefile lines are word-split below; expand no globs
makefile=${1:-Makefile}
go=${GO:-go}
lines=0 names=0 missing=0
# Join backslash-continued lines, then keep the gated `go test` lines.
while IFS= read -r line; do
	pattern=$(sed -E "s/.* -run '([^']*)'.*/\1/" <<<"$line")
	pattern=${pattern//\$\$/\$}
	[[ $pattern == '^$' ]] && continue
	flags=() pkgs=()
	prev=
	for tok in $line; do
		case $tok in
		-race) flags+=(-race) ;;
		./*) pkgs+=("$tok") ;;
		esac
		[[ $prev == -tags ]] && flags+=(-tags "$tok")
		prev=$tok
	done
	listed=$("$go" test "${flags[@]}" -list . "${pkgs[@]}" | grep -E '^(Test|Fuzz|Example)' || true)
	lines=$((lines + 1))
	IFS='|' read -ra alts <<<"$pattern"
	for name in "${alts[@]}"; do
		names=$((names + 1))
		if ! grep -qE -- "$name" <<<"$listed"; then
			echo "check-gate-names: $makefile: -run name $name matches no test in ${flags[*]} ${pkgs[*]}" >&2
			missing=$((missing + 1))
		fi
	done
done < <(sed -e ':a' -e '/\\$/N; s/\\\n//; ta' "$makefile" | grep -E '\$\(GO\) test .*-run ')
if ((missing > 0)); then
	echo "check-gate-names: $missing of $names gated test names match no test" >&2
	exit 1
fi
echo "check-gate-names: all $names gated test names on $lines lines match a test"
