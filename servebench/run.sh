#!/usr/bin/env bash
# Build the benchmark and the release `retrozilla-serve` from source, then
# run one measurement. Arguments pass through to the benchmark binary:
#
#   bash servebench/run.sh --workload detail --seed 1 --seconds 10 --trace 0
#
# Both builds go to $CARGO_TARGET_DIR (default: the repository's target/).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --target-dir "$target" \
    -p retroweb-service --bin retrozilla-serve

exec "$target/release/servebench" \
    --server-bin "$target/release/retrozilla-serve" \
    --work-dir "$target/servebench" \
    "$@"
