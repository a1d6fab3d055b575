#!/usr/bin/env bash
# Byte-exact stdout goldens under crates/bench/golden/.
#
#   bash scripts/check_goldens.sh [--update] [NAME...]
#
# NAME is one of sweep_fabric, sweep_availability, sweep_cluster,
# serving_sim and cluster_serving; with none, all five run. Each golden
# command runs in release mode and must exit 0 (the binaries assert their
# own gates). Without --update its stdout is diffed against the checked-in
# file and any difference fails the script; with --update the file is
# rewritten. A change that moves a golden says why in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

golden_sweep_fabric() {
    # The closing line carries the wall-clock run time, so it is left out.
    cargo run --release -p tensordimm_bench --bin sweep_fabric -- --quick \
        | grep -v '^\[sweep_fabric\] all gates passed in '
}

golden_sweep_availability() {
    cargo run --release -p tensordimm_bench --bin sweep_availability -- --quick
}

golden_sweep_cluster() {
    cargo run --release -p tensordimm_bench --bin sweep_cluster -- --quick
}

golden_serving_sim() {
    cargo run --release --example serving_sim
}

golden_cluster_serving() {
    cargo run --release --example cluster_serving
}

file_for() {
    case "$1" in
        sweep_fabric | sweep_availability | sweep_cluster) echo "crates/bench/golden/$1_quick.txt" ;;
        serving_sim | cluster_serving) echo "crates/bench/golden/$1.txt" ;;
        *)
            echo "unknown golden '$1' (sweep_fabric, sweep_availability, sweep_cluster, serving_sim, cluster_serving)" >&2
            exit 2
            ;;
    esac
}

update=0
if [[ "${1-}" == "--update" ]]; then
    update=1
    shift
fi
names=("$@")
if [[ ${#names[@]} -eq 0 ]]; then
    names=(sweep_fabric sweep_availability sweep_cluster serving_sim cluster_serving)
fi

out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
for name in "${names[@]}"; do
    file=$(file_for "$name")
    if ! "golden_$name" > "$out"; then
        echo "[check_goldens] $name: the golden command failed" >&2
        status=1
    elif [[ $update -eq 1 ]]; then
        cp "$out" "$file"
        echo "[check_goldens] $name: wrote $file"
    elif diff -u "$file" "$out"; then
        echo "[check_goldens] $name: matches $file"
    else
        echo "[check_goldens] $name: stdout differs from $file" >&2
        status=1
    fi
done
exit $status
