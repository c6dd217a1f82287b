#!/usr/bin/env bash
# Check that every file CI and the docs read from the checkout is
# tracked by git: the benchmark declaration, the committed bench
# baselines and the benchmark's expected scores.
#
#   scripts/check_committed.sh [repo-root]
#
# Exits 0 when all are tracked, 1 naming each one that is not, and 77
# (CTest's SKIP_RETURN_CODE for this check) outside a git checkout.

set -u

root="${1:-$(dirname "$0")/..}"

committed=(
    BENCHMARK.json
    BENCH_fastmode.json
    BENCH_trajectory.json
    BENCH_frontier.json
    perfbench/expected.json
)

if ! command -v git >/dev/null 2>&1 ||
    ! git -C "$root" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    echo "SKIP: $root is not a git checkout"
    exit 77
fi

missing=0
for f in "${committed[@]}"; do
    if ! git -C "$root" ls-files --error-unmatch -- "$f" >/dev/null 2>&1; then
        echo "not tracked by git: $f"
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    exit 1
fi
echo "ok: ${#committed[@]} committed files tracked"
