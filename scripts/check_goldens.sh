#!/usr/bin/env bash
# Byte-exact stdout goldens under crates/bench/golden/.
#
#   bash scripts/check_goldens.sh [--update] [NAME...]
#
# NAME is one of sweep_fabric, sweep_availability, sweep_cluster,
# sweep_hot_rows, sweep_static_check, the examples serving_sim,
# cluster_serving, hot_row_cache, bandwidth_scaling, multi_gpu_sharing,
# recommender_inference and tensor_isa_tour, or one of the paper-figure
# binaries in PAPER below (goldens under crates/bench/golden/paper/);
# `paper` stands for all of those. With no NAME, every golden runs. Each golden command
# runs in release mode and must exit 0 (the binaries assert their own
# gates). Without --update its stdout is diffed against the checked-in
# file and any difference fails the script; with --update the file is
# rewritten. A change that moves a golden says why in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# Paper-figure binaries whose whole stdout is a golden: every figure,
# table and ablation of the paper reproduction, plus the serving sweep.
PAPER=(
    fig03_model_size fig04_baseline_gap fig11_bandwidth_util fig12_dimm_scaling
    fig13_latency_breakdown fig14_perf_sweep fig15_large_embeddings fig16_link_sensitivity
    tab01_node_config tab02_workloads tab03_overheads
    ablation_alu_clock ablation_dram_policy ablation_fusion ablation_mapping
    ablation_queue_depth ablation_reduction_factor sweep_qps_sla
)

# Examples whose whole stdout is a golden.
EXAMPLES=(
    serving_sim cluster_serving hot_row_cache bandwidth_scaling multi_gpu_sharing
    recommender_inference tensor_isa_tour
)

# The other goldens: quick sweeps and the examples.
SWEEPS=(
    sweep_fabric sweep_availability sweep_cluster sweep_hot_rows sweep_static_check
    "${EXAMPLES[@]}"
)

is_paper() {
    [[ " ${PAPER[*]} " == *" $1 "* ]]
}

is_example() {
    [[ " ${EXAMPLES[*]} " == *" $1 "* ]]
}

golden_paper() {
    # sweep_qps_sla prints its worker count, so it is pinned rather than
    # taken from the host's cores.
    local args=()
    if [[ "$1" == sweep_qps_sla ]]; then
        args=(--workers 2)
    fi
    cargo run --release -p tensordimm_bench --bin "$1" -- "${args[@]}"
}

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

golden_sweep_hot_rows() {
    cargo run --release -p tensordimm_bench --bin sweep_hot_rows -- --quick
}

golden_sweep_static_check() {
    cargo run --release -p tensordimm_bench --bin sweep_static_check -- --quick
}

golden_example() {
    cargo run --release --example "$1"
}

file_for() {
    if is_paper "$1"; then
        echo "crates/bench/golden/paper/$1.txt"
        return
    fi
    if is_example "$1"; then
        echo "crates/bench/golden/$1.txt"
        return
    fi
    case "$1" in
        sweep_fabric | sweep_availability | sweep_cluster | sweep_hot_rows | sweep_static_check)
            echo "crates/bench/golden/$1_quick.txt"
            ;;
        *)
            echo "unknown golden '$1' (${SWEEPS[*]}, paper, ${PAPER[*]})" >&2
            exit 2
            ;;
    esac
}

update=0
if [[ "${1-}" == "--update" ]]; then
    update=1
    shift
fi
names=()
for name in "$@"; do
    if [[ "$name" == paper ]]; then
        names+=("${PAPER[@]}")
    else
        names+=("$name")
    fi
done
if [[ ${#names[@]} -eq 0 ]]; then
    names=("${SWEEPS[@]}" "${PAPER[@]}")
fi

out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
for name in "${names[@]}"; do
    file=$(file_for "$name")
    if is_paper "$name"; then
        command=(golden_paper "$name")
    elif is_example "$name"; then
        command=(golden_example "$name")
    else
        command=("golden_$name")
    fi
    if ! "${command[@]}" > "$out"; then
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
