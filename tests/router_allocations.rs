//! The cluster router allocates O(1) amortized per request.
//!
//! `shard_traces` routes a trace and returns the per-shard sub-traces.
//! Doubling the trace may only add the amortized doublings of the
//! run-wide buffers (routes, the flat leg table, the per-shard traces, the
//! fault schedules over a longer horizon): O(log N) allocations, never a
//! sampler, row vector, owner set or leg vector per request.
//!
//! A counting wrapper around the system allocator counts this thread's
//! allocations; the routing is single-threaded, so the count is exact.

use tensordimm::cluster::{shard_traces, ClusterConfig, FailoverPolicy, NodeSpec, ShardPlan};
use tensordimm::faults::FaultPlan;
use tensordimm::models::Workload;
use tensordimm::serving::{AdmissionPolicy, ArrivalProcess, BatchPolicy, RetryPolicy};
use tensordimm::system::DesignPoint;
use tensordimm_alloc_count::{count_allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Requests in the shorter trace.
const N: usize = 20_000;

/// Shaped like the `cluster_faults` benchmark: 4 nodes, a replicated
/// 64-row hot head, hedged failover, DIMM faults on every node.
fn cluster_faults_config() -> ClusterConfig {
    let mut faults = FaultPlan::dimm_faults(0x5eed, 1.0);
    faults.dimms = 4;
    faults.dimm_candidate_gap_us = 2_000.0;
    faults.dimm_repair_us = 2_500.0;
    let nodes = (0..4)
        .map(|i| NodeSpec::paper(8).with_faults(faults.for_node(i)))
        .collect();
    ClusterConfig::new(
        ShardPlan::hot_cold(4, 2, 64).expect("4 nodes hold 2 replicas"),
        nodes,
        DesignPoint::Tdimm,
        BatchPolicy::new(32, 300.0),
    )
    .with_retry(
        RetryPolicy::none()
            .with_deadline(3_000.0)
            .with_retries(2, 100.0, 1_000.0)
            .with_hedging(500.0),
    )
    .with_admission(AdmissionPolicy::bounded(256))
    .with_failover(FailoverPolicy::HedgeDegraded)
    .with_lookups(8, 0.9, 0x10c5)
}

#[test]
fn routing_allocates_o1_amortized_per_request() {
    let cfg = cluster_faults_config();
    let workload = Workload::facebook();
    let trace = ArrivalProcess::Bursty {
        rate_qps: 300_000.0,
        mean_burst: 4.0,
    }
    .sample_arrivals_us(2 * N, 3);
    let allocations = |requests: usize| {
        let (traces, allocs) =
            count_allocations(|| shard_traces(&cfg, &workload, &trace[..requests]));
        let subrequests: usize = traces.expect("valid").iter().map(Vec::len).sum();
        assert!(subrequests > requests, "requests fan out to several shards");
        allocs
    };
    let (short, long) = (allocations(N), allocations(2 * N));
    // One allocation per request would add N; a per-row owner set would
    // add N x rows. Buffer doublings add a few per run-wide vector.
    assert!(
        long.saturating_sub(short) < 64,
        "{N} more requests made {} more allocations ({short} -> {long})",
        long.saturating_sub(short)
    );
    assert!(long < 1_000, "a whole routing run allocates {long} times");
}
