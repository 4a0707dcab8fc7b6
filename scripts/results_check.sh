#!/usr/bin/env bash
# Bit-identity gate for the checked-in exhibits.
#
# Regenerates every CSV exhibit at paper scale into a temporary directory
# and requires results/ to match it byte for byte, so any change to the
# simulator, the models or the schedulers that moves a published number
# shows up as a diff. The Sec 4.8 spot check (10,000 machines, several
# minutes) is compared only when asked for.
#
#   scripts/results_check.sh              # every exhibit but spotcheck.csv
#   scripts/results_check.sh -spotcheck   # spotcheck.csv too
#
# Results are byte-identical across worker counts, so -parallel 2 only
# bounds memory and time (about 45 s on two cores).
set -euo pipefail
cd "$(cd "$(dirname "$0")/.." && pwd)"

args=(-parallel 2)
exclude=(-x spotcheck.csv)
if [ "${1:-}" = "-spotcheck" ]; then
	args+=(-spotcheck)
	exclude=()
fi

tmp=$(mktemp -d)
log=$(mktemp)
trap 'rm -rf "$tmp" "$log"' EXIT
if ! go run ./cmd/traconbench "${args[@]}" -csv "$tmp" > /dev/null 2> "$log"; then
	cat "$log" >&2
	exit 1
fi
if ! diff -r "${exclude[@]}" results "$tmp"; then
	echo "results-check: regenerated exhibits differ from results/ (diff above)" >&2
	exit 1
fi
echo "results-check: results/ matches a fresh paper-scale run"
