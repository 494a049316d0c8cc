#!/usr/bin/env bash
# Linked but unobserved: lists the functions under internal/ that some test
# reaches and no golden-driven test enters, one "file function" per line on
# stdout, with statement totals on stderr. Run from the repository root:
#
#   bash .github/coverage-audit.sh [WORKDIR]
#
# The golden-driven tests are the ones whose output is compared byte for byte
# with a committed file: ccexp's quick and paper-scale tables, workload
# trace, -report file, and SLO violation lines with their -report file,
# ccrun's stdout, the jobs event, decision and report goldens, obs' event,
# exposition and Perfetto goldens, and the examples' stdout (run here as
# covered binaries, their stdout checked against the same goldens).
set -euo pipefail

A=${1:-$(mktemp -d)}
mkdir -p "$A"
rm -rf "$A/excov" "$A/ex"
mkdir -p "$A/excov" "$A/ex"
# host.Pool runs inline at GOMAXPROCS=1 and on workers above it, so the set
# of reached blocks depends on it; C collation keeps the list's order fixed.
export GOMAXPROCS=2 LC_ALL=C
cov=(-count=1 -covermode=set -coverpkg=./internal/...)

# merge FILES: one profile of the blocks under internal/, each at the largest
# count any file gives it (a block missing from a file counts 0 there).
merge() {
	awk 'FNR == 1 || $1 !~ /^repro\/internal\// { next }
	{ k = $1 " " $2; if (!(k in n)) { order[++m] = k; n[k] = 0 } if ($3 + 0 > n[k]) n[k] = $3 + 0 }
	END { print "mode: set"; for (i = 1; i <= m; i++) print order[i], n[order[i]] }' "$@"
}

REPRO_NIGHTLY=1 go test "${cov[@]}" -coverprofile="$A/g_ccexp.out" \
	-run '^(TestQuickAllGolden|TestWorkloadTraceGolden|TestReportFileGolden|TestSLOReportGolden)$' ./cmd/ccexp >&2
go test "${cov[@]}" -coverprofile="$A/g_ccrun.out" -run '^TestStdoutGolden$' ./cmd/ccrun >&2
go test "${cov[@]}" -coverprofile="$A/g_experiments.out" \
	-run '^(TestFIFOPolicyEventLogGolden|TestJobsDecisionLogGolden|TestJobsReportGolden)$' \
	./internal/experiments >&2
go test "${cov[@]}" -coverprofile="$A/g_obs.out" \
	-run '^(TestJSONLSinkMatchesGolden|TestExpositionGolden|TestChromeTraceMatchesGolden)$' ./internal/obs >&2
# A binary built with -cover writes no counters unless main is covered too.
go build -cover -covermode=set -coverpkg=./internal/...,./examples/... -o "$A/ex/" ./examples/...
for b in "$A"/ex/*; do
	GOCOVERDIR="$A/excov" "$b" | cmp - "testdata/examples/${b##*/}.golden.txt"
done
go tool covdata textfmt -i="$A/excov" -o "$A/g_examples.out"
merge "$A"/g_*.out > "$A/golden.out"

go test "${cov[@]}" -coverprofile="$A/suite.out" ./... >&2
merge "$A/suite.out" "$A/golden.out" > "$A/full.out"

# Statement totals: every block once, from the full profile.
awk 'FNR == 1 { next } NR == FNR { g[$1] = $3; next }
	{ t += $2; if (g[$1] > 0) gs += $2; else if ($3 > 0) u += $2 }
	END { printf "statements %d, golden-driven %d (%.1f%%), reached by unit tests only %d (%.1f%%)\n",
		t, gs, 100 * gs / t, u, 100 * u / t }' "$A/golden.out" "$A/full.out" >&2

# Functions: 0 % under the goldens, above 0 % under the full suite. Printed
# without line numbers, so that an edit elsewhere in the file moves nothing,
# and with the receiver type, which go tool cover leaves out.
go tool cover -func="$A/golden.out" | awk '$NF == "0.0%" { print $1, $2 }' | sort > "$A/golden0"
go tool cover -func="$A/full.out" | awk '$1 != "total:" && $NF != "0.0%" { print $1, $2 }' | sort > "$A/reached"
comm -12 "$A/golden0" "$A/reached" | while IFS=': ' read -r file line fn; do
	file=${file#repro/}
	recv=$(sed -nE "${line}s/^func \(([A-Za-z0-9_]+ )?\*?([A-Za-z0-9_]+).*/\2./p" "$file")
	echo "$file $recv$fn"
done | sort
