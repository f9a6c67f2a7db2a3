#!/bin/sh
# fma-guard.sh: fail when the arm64 build of cmd/galactos fuses a multiply
# into an add anywhere in galactos code except where the source asks for
# it with math.FMA.
#
# The Go spec lets a compiler fuse x*y + z into one rounding; the arm64
# backend does (FMADDD and friends), the amd64 one does not. A product
# rounded explicitly — float64(x*y) — may not be fused, and the portable
# lane bodies and the result path round every product that way, so the
# answer has the same bits on both. This script keeps it so: it disassembles
# the arm64 binary and lists every fused multiply-add inside a galactos
# function whose source file is not on the allowlist below (the files whose
# fusion is explicit math.FMA, mirroring the AVX-512 bodies' FMAs). Run it
# from the repository root; `make cross-smoke` does.
set -eu
GO=${GO:-go}
allow="internal/sphharm/kernel.go internal/sphharm/ylm.go"

# objdump names an instruction's source by base name only, so every
# allowlisted base name must be unique among the module's Go files.
names=""
for f in $allow; do
	b=$(basename "$f")
	n=$(find . -name "$b" ! -path './bench/*' | wc -l)
	if [ "$n" -ne 1 ]; then
		echo "fma-guard: allowlisted $f: $n files named $b" >&2
		exit 1
	fi
	names="$names $b"
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
GOOS=linux GOARCH=arm64 $GO build -o "$tmp/galactos" ./cmd/galactos
$GO tool objdump "$tmp/galactos" >"$tmp/dump"

awk -v names="$names" '
BEGIN { n = split(names, a, " "); for (i = 1; i <= n; i++) ok[a[i]] = 1 }
/^TEXT / { fn = $2; next }
fn ~ /^galactos[.\/]/ && /[ \t]F(N?)M(ADD|SUB)[DS][ \t]/ {
	split($1, loc, ":")
	if (!(loc[1] in ok)) { print fn, $1; bad++ }
}
END {
	if (bad) { printf "fma-guard: %d fused multiply-add(s) outside the math.FMA allowlist\n", bad; exit 1 }
	print "fma-guard: no implicit fused multiply-add in galactos code"
}' "$tmp/dump"
