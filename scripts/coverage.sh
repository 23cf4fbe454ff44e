#!/usr/bin/env bash
# Coverage gate for the paper-critical packages: the decision engines
# (cafe, xlru), their shared core and ordered set (ordtree), the edge
# server, and the chunk store, cluster and resilience packages that
# carry crash-safety, the peer line and its breakers must each stay at
# or above the threshold. The profile is collected with a shared
# -coverpkg so cross-package suites (notably internal/oracle, which
# drives the real policies through the real edge) count toward the
# packages they exercise, then split back out per package.
#
# Usage: scripts/coverage.sh [profile-out]   (default: coverage.out)
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD=80
GATED=(
	videocdn/internal/core
	videocdn/internal/cafe
	videocdn/internal/xlru
	videocdn/internal/edge
	videocdn/internal/policy
	videocdn/internal/lruq
	videocdn/internal/store
	videocdn/internal/cluster
	videocdn/internal/ordtree
	videocdn/internal/resilience
)
profile=${1:-coverage.out}

coverpkg=$(IFS=,; echo "${GATED[*]}")
go test -coverpkg="$coverpkg" -coverprofile="$profile" \
	./internal/core/ ./internal/cafe/ ./internal/xlru/ ./internal/edge/ ./internal/oracle/ \
	./internal/policy/ ./internal/lruq/ ./internal/store/ ./internal/cluster/ \
	./internal/ordtree/ ./internal/resilience/

echo
echo "coverage by gated package (threshold ${THRESHOLD}%):"
awk -v threshold="$THRESHOLD" -v gated="${GATED[*]}" '
	NR > 1 {
		# Lines look like: path/file.go:12.34,15.2 <stmts> <hits>.
		# The same block appears once per test binary that loaded the
		# package; dedupe on the block key, keeping the highest hit
		# count, so merged profiles do not double-count statements.
		if (!($1 in stmts)) {
			stmts[$1] = $2
			hits[$1] = $3
			n = split($1, parts, "/")
			pkg = parts[1]
			for (i = 2; i < n; i++) pkg = pkg "/" parts[i]
			pkgOf[$1] = pkg
		} else if ($3 > hits[$1]) {
			hits[$1] = $3
		}
	}
	END {
		for (key in stmts) {
			total[pkgOf[key]] += stmts[key]
			if (hits[key] > 0) covered[pkgOf[key]] += stmts[key]
		}
		failed = 0
		split(gated, want, " ")
		for (i in want) {
			pkg = want[i]
			if (total[pkg] == 0) {
				printf "  %-28s no statements in profile\n", pkg
				failed = 1
				continue
			}
			pct = 100 * covered[pkg] / total[pkg]
			mark = "ok"
			if (pct < threshold) { mark = "BELOW THRESHOLD"; failed = 1 }
			printf "  %-28s %6.1f%%  %s\n", pkg, pct, mark
		}
		exit failed
	}
' "$profile"
