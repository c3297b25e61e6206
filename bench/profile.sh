#!/usr/bin/env sh
# Flamegraph harness (ROADMAP "flamegraph harness" item): run a bench binary
# under `perf record` and emit a folded-stack file that any flamegraph
# renderer (e.g. flamegraph.pl, speedscope, inferno) accepts — so hot-path
# claims ship with profiles instead of assertions.
#
# Usage: bench/profile.sh BINARY NAME [ARGS...]
#   BINARY  bench executable to profile (e.g. build/bench_fig2_endpoints)
#   NAME    output stem: writes bench/out/NAME.perf.data + bench/out/NAME.folded
#   ARGS    forwarded to the binary
#
# Wired into CMake as `cmake --build build --target profile_fig2` (also
# profile_fig3). Skips gracefully — exit 0 with a note —
# when perf is missing or the kernel forbids profiling, so CI and
# perf-less containers never fail on it.
set -eu

if [ "$#" -lt 2 ]; then
    echo "usage: $0 BINARY NAME [ARGS...]" >&2
    exit 2
fi

BINARY="$1"
NAME="$2"
shift 2

OUT_DIR="$(dirname "$0")/out"
mkdir -p "$OUT_DIR"
PERF_DATA="$OUT_DIR/$NAME.perf.data"
FOLDED="$OUT_DIR/$NAME.folded"

if ! command -v perf >/dev/null 2>&1; then
    echo "profile.sh: perf not found — skipping (install linux-perf to profile)"
    exit 0
fi

# Dry-run: some kernels/containers expose a perf binary but refuse
# perf_event_open (perf_event_paranoid, seccomp). Treat that as a skip too.
if ! perf record -o /dev/null -- true >/dev/null 2>&1; then
    echo "profile.sh: perf record not permitted here — skipping" \
         "(try: sysctl kernel.perf_event_paranoid=1)"
    exit 0
fi

echo "profile.sh: perf record -g -- $BINARY $*"
perf record -g --call-graph dwarf -o "$PERF_DATA" -- "$BINARY" "$@"

# Fold stacks: "main;Node::service_burst;... COUNT" per line. Equivalent to
# FlameGraph's stackcollapse-perf.pl for the fields perf script emits here,
# without requiring that repo to be installed.
perf script -i "$PERF_DATA" 2>/dev/null | awk '
    /^[^[:space:]#]/ { inblock = 1; delete stack; depth = 0; next }
    inblock && NF == 0 {
        if (depth > 0) {
            folded = stack[depth]
            for (i = depth - 1; i >= 1; i--) folded = folded ";" stack[i]
            counts[folded]++
        }
        inblock = 0; next
    }
    inblock {
        # "        55f2a3b4c5d6 std::vector<net::Packet>::op()+0x1f (bin)"
        # Demangled C++ names contain spaces, so peel the line apart instead
        # of taking one whitespace-delimited field: drop the leading address,
        # the trailing " (dso)" and the +0xOFFSET suffix.
        frame = $0
        sub(/^[[:space:]]+/, "", frame)
        sub(/^[0-9a-f]+[[:space:]]+/, "", frame)
        sub(/[[:space:]]+\([^()]*\)$/, "", frame)
        sub(/\+0x[0-9a-f]+$/, "", frame)
        gsub(/;/, ":", frame)  # ";" is the fold separator
        if (frame != "[unknown]" && frame != "") stack[++depth] = frame
    }
    END { for (f in counts) print f, counts[f] }
' > "$FOLDED"

LINES=$(wc -l < "$FOLDED")
echo "profile.sh: wrote $FOLDED ($LINES unique stacks)"
echo "profile.sh: render with e.g. flamegraph.pl $FOLDED > $NAME.svg"
