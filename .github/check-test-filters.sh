#!/bin/sh
# Fails when an alternative of a -run, -bench or -fuzz pattern in the CI
# workflow matches no test, benchmark or fuzz target in the packages its
# `go test` command names (as `go test -list` reports them), so a guard
# that is deleted or renamed cannot silently drop out of a step.
#
# A pattern is split at '|' and each alternative is matched, unanchored as
# `go test` matches it, against the names of the right kind: -run against
# Test, Fuzz and Example functions, -bench against Benchmark functions,
# -fuzz against Fuzz functions. A -run beside -fuzz (the idiom that runs no
# unit test while fuzzing) is not checked.
#
# Usage, from the module root: sh .github/check-test-filters.sh
set -eu
workflow=.github/workflows/ci.yml

# unquote strips one pair of surrounding single quotes.
unquote() { v=${1#\'}; printf '%s' "${v%\'}"; }

# check pattern kind names: print each alternative of pattern that matches
# none of names' lines starting with kind.
check() {
	pattern=$1 kind=$2 names=$3
	printf '%s\n' "$pattern" | tr '|' '\n' | while IFS= read -r alt; do
		[ -n "$alt" ] || continue
		if ! printf '%s\n' "$names" | grep -E "^($kind)" | grep -Eq -- "$alt"; then
			printf 'no %s matches %s\n' "$kind" "$alt"
		fi
	done
}

failures=$(grep -o 'go test .*' "$workflow" | while IFS= read -r cmd; do
	run='' bench='' fuzz='' pkgs=''
	set -f
	# Word splitting is wanted here: one positional parameter a word.
	set -- $cmd
	set +f
	while [ $# -gt 0 ]; do
		case $1 in
		-run) run=$(unquote "$2"); shift ;;
		-bench) bench=$(unquote "$2"); shift ;;
		-fuzz) fuzz=$(unquote "$2"); shift ;;
		. | ./*) pkgs="$pkgs $1" ;;
		esac
		shift
	done
	[ -n "$run$bench$fuzz" ] || continue
	[ -z "$fuzz" ] || run=''
	# $pkgs splits into one word a package.
	if ! names=$(go test -list . $pkgs 2>&1); then
		printf 'go test -list .%s failed:\n%s\n' "$pkgs" "$names"
		continue
	fi
	out=$(
		[ -z "$run" ] || check "$run" 'Test|Fuzz|Example' "$names"
		[ -z "$bench" ] || check "$bench" 'Benchmark' "$names"
		[ -z "$fuzz" ] || check "$fuzz" 'Fuzz' "$names"
	)
	[ -z "$out" ] || printf '%s\n%s\n' "go test ...$pkgs:" "$out"
done)

if [ -n "$failures" ]; then
	printf '%s\n' "$failures" >&2
	exit 1
fi
