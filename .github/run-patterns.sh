#!/usr/bin/env bash
# Checks the test patterns of the CI workflows: for every `go test` line with
# a -run pattern, each of the pattern's |-separated alternatives must match a
# test, fuzz target or example of the packages the line names (go test -list).
# go test -run 'A|B' passes silently when B matches nothing, so a renamed or
# deleted test would otherwise drop out of its step unnoticed. The pattern
# '^$', which selects no test on purpose, is skipped. Run from the repository
# root:
#
#   bash .github/run-patterns.sh
set -euo pipefail

declare -A listed # package list -> the names go test -list gives for it
status=0 checked=0
for wf in .github/workflows/ci.yml .github/workflows/nightly.yml; do
	# Join continued lines, then keep the go test commands (not comments)
	# that name a pattern.
	while IFS= read -r line; do
		[[ $line =~ -run[=\ ]+(\'([^\']*)\'|([^\ \']+)) ]] || continue
		pattern=${BASH_REMATCH[2]:-${BASH_REMATCH[3]}}
		[[ $pattern == '^$' ]] && continue
		pkgs=$(grep -oE '(^|[[:space:]])\./[^[:space:]]*' <<<"$line" | tr -d ' \t' | tr '\n' ' ' || true)
		if [[ -z $pkgs ]]; then
			echo "$wf: no package in: $line" >&2
			status=1
			continue
		fi
		if [[ -z ${listed[$pkgs]+set} ]]; then
			# shellcheck disable=SC2086 # the package list is split on purpose
			listed[$pkgs]=$(go test -list . $pkgs | grep -E '^(Test|Fuzz|Example)' || true)
		fi
		checked=$((checked + 1))
		IFS='|' read -ra alts <<<"$pattern"
		for alt in "${alts[@]}"; do
			if ! grep -qE -- "$alt" <<<"${listed[$pkgs]}"; then
				echo "$wf: -run alternative '$alt' of '$pattern' matches no test in $pkgs" >&2
				status=1
			fi
		done
	done < <(sed -e ':a' -e '/\\$/{N;s/\\\n//;ba}' "$wf" | grep -E '^[^#]*go test .*-run' || true)
done
echo "$checked -run patterns checked" >&2
exit $status
