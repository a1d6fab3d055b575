//! Peak memory per request stays within the compact-record budget.
//!
//! Per-request bookkeeping (request records, cluster records, routed
//! legs, per-shard sub-traces, the latency sample) dominates a serving
//! run's memory. Each test runs a benchmark-shaped simulation under the
//! counting allocator and bounds the peak live heap bytes per offered
//! request, set-up (pricer, fault schedules) included.
//!
//! The counts are exact: everything runs on this thread (one cluster
//! worker) and the simulator is deterministic, so a bound failing means
//! a structure grew or lives longer than before.

mod common;

use common::cluster_faults_config;
use tensordimm::cluster::simulate_cluster;
use tensordimm::models::Workload;
use tensordimm::serving::{
    simulate, AdmissionPolicy, ArrivalProcess, BatchPolicy, RetryPolicy, SimConfig,
};
use tensordimm::system::{DesignPoint, SystemModel};
use tensordimm_alloc_count::{measure_allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Requests per run.
const N: usize = 20_000;

/// Peak live bytes per request of the node run. Measured 56.5: a 40-byte
/// request record plus the 8-byte latency sample, sorted in place.
const BOUND_NODE: f64 = 60.0;

/// Peak live bytes per request of the cluster run, where a request fans
/// out to ~5.7 shard sub-requests (hedges included). Measured 367.5: the
/// shards' 40-byte request records, the 8-byte routed legs and the
/// 32-byte cluster records, live together at the rejoin once the
/// per-shard sub-traces are freed.
const BOUND_CLUSTER: f64 = 380.0;

/// Peak live bytes per request, printed for the record.
fn peak_per_request(label: &str, peak_live_bytes: i64) -> f64 {
    let per_request = peak_live_bytes as f64 / N as f64;
    println!("{label}: peak {peak_live_bytes} B live, {per_request:.1} B per request");
    per_request
}

#[test]
fn node_run_peak_memory_per_request() {
    // Shaped like the `node_warm` benchmark: 8 GPUs, 32-request batches,
    // a 2 ms deadline, bounded admission, 300k qps Poisson arrivals.
    let cfg = SimConfig::new(DesignPoint::Tdimm, 8, BatchPolicy::new(32, 300.0))
        .with_retry(RetryPolicy::none().with_deadline(2_000.0))
        .with_admission(AdmissionPolicy::bounded(256));
    let model = SystemModel::paper_defaults();
    let workload = Workload::facebook();
    let trace = ArrivalProcess::Poisson {
        rate_qps: 300_000.0,
    }
    .sample_arrivals_us(N, 3);
    let (report, stats) = measure_allocations(|| simulate(&model, &workload, &cfg, &trace));
    let report = report.expect("valid");
    assert_eq!(report.offered, N);
    assert!(report.completed > N / 2, "most requests complete");
    let per_request = peak_per_request("node", stats.peak_live_bytes);
    assert!(per_request < BOUND_NODE, "{per_request:.1} B per request");
}

#[test]
fn cluster_run_peak_memory_per_request() {
    let cfg = cluster_faults_config();
    let model = SystemModel::paper_defaults();
    let workload = Workload::facebook();
    let trace = ArrivalProcess::Bursty {
        rate_qps: 300_000.0,
        mean_burst: 4.0,
    }
    .sample_arrivals_us(N, 3);
    let (report, stats) = measure_allocations(|| simulate_cluster(&model, &workload, &cfg, &trace));
    let report = report.expect("valid");
    assert_eq!(report.offered, N);
    assert!(
        report.routing.subrequests > N,
        "requests fan out to several shards"
    );
    let per_request = peak_per_request("cluster", stats.peak_live_bytes);
    assert!(
        per_request < BOUND_CLUSTER,
        "{per_request:.1} B per request"
    );
}
